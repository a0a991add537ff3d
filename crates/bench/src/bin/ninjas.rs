//! §VIII-C — "The Three Ninjas": detection probability of O-Ninja,
//! H-Ninja and HT-Ninja against the privilege-escalation attack.
//!
//! Reproduces the paper's three findings:
//!
//! * **O-Ninja** (in-guest, continuous scanning) catches only ~10 % of
//!   rootkit-combined attacks on a ~31-process system, and spamming the
//!   process list with idle processes drives detection to ~0;
//! * **H-Ninja** (hypervisor VMI poller) catches 100 % at a 4 ms interval
//!   but degrades steeply as the interval grows;
//! * **HT-Ninja** (active monitoring on architectural invariants) catches
//!   100 % in every scenario.
//!
//! Flags:
//!   --trials N   independent attacks per scenario (default 60; paper: 300)
//!   --seed S     base seed (default 7)

use hypertap_bench::cli::{usage_exit, Args};
use hypertap_bench::ninja_scenarios::{detection_probability, AttackStyle, NinjaVariant};
use hypertap_bench::report::{bar, pct, table};
use hypertap_hvsim::clock::Duration;

fn main() {
    let args = Args::parse_known(&["trials", "seed"], &[]).unwrap_or_else(usage_exit);
    let trials: usize = args.get("trials", 60).unwrap_or_else(usage_exit);
    let seed: u64 = args.get("seed", 7).unwrap_or_else(usage_exit);
    println!("The Three Ninjas — detection probability ({trials} attacks per scenario)\n");

    // O-Ninja with continuous scanning vs process-list spamming. The base
    // system runs ~31 processes worth of scan work; spam adds idles.
    println!("O-Ninja (in-guest, continuous scanning) vs spamming:");
    let mut rows = Vec::new();
    for (label, spam) in [("~31 processes", 26usize), ("+100 idle", 126), ("+200 idle", 226)] {
        let p = detection_probability(
            NinjaVariant::ONinja { interval_ns: 0 },
            spam,
            AttackStyle::RootkitCombined,
            trials,
            seed,
        );
        rows.push(vec![label.to_string(), pct(p), bar(p, 30)]);
    }
    println!("{}", table(&["system size", "detection", ""], &rows));
    println!("(paper: ~10% at 31 processes, 2-3% at +100, ~0% at +200)\n");

    // H-Ninja vs polling interval.
    println!("H-Ninja (hypervisor VMI poller) vs interval:");
    let mut rows = Vec::new();
    for ms in [4u64, 8, 20, 50] {
        let p = detection_probability(
            NinjaVariant::HNinja { interval: Duration::from_millis(ms) },
            26,
            AttackStyle::RootkitCombined,
            trials,
            seed + 1000,
        );
        rows.push(vec![format!("{ms} ms"), pct(p), bar(p, 30)]);
    }
    println!("{}", table(&["interval", "detection", ""], &rows));
    println!("(paper: 100% at 4 ms, ~60% at 8 ms, <5% beyond 20 ms)\n");

    // HT-Ninja across every scenario, including the pure transient attack.
    println!("HT-Ninja (HyperTap, active monitoring):");
    let mut rows = Vec::new();
    for (label, spam, style) in [
        ("rootkit-combined, ~31 procs", 26usize, AttackStyle::RootkitCombined),
        ("rootkit-combined, +200 idle", 226, AttackStyle::RootkitCombined),
        ("pure transient attack", 26, AttackStyle::Transient),
    ] {
        let p = detection_probability(NinjaVariant::HtNinja, spam, style, trials, seed + 2000);
        rows.push(vec![label.to_string(), pct(p), bar(p, 30)]);
    }
    println!("{}", table(&["scenario", "detection", ""], &rows));
    println!("(paper: HT-Ninja detected all attacks in all tested scenarios)");
}
