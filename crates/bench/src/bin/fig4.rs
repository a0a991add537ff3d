//! Fig. 4 — Guest OS Hang Detection coverage.
//!
//! Runs the fault-injection campaign (374 lock sites × 4 workloads ×
//! {non-preemptible, preemptible} × {transient, persistent}) and prints the
//! per-cell outcome breakdown plus the headline statistics the paper
//! reports (≈82 % manifestation, 99.8 % detection coverage, 18–26 % partial
//! hangs).
//!
//! Flags:
//!   --stride N   inject every N-th site (default 16; 1 = the full 374)
//!   --seed S     campaign seed (default 42)
//!   --threads N  worker threads (default: all cores)
//!   --save PATH  write per-trial results as JSON lines (fig5 reads these)
//!   --quick      tiny smoke campaign (stride 94, Hanoi+make -j2 only)

use hypertap_bench::cli::{usage_exit, Args};
use hypertap_bench::report::{pct, table};
use hypertap_faultinject::campaign::{default_campaign, fig4_rows, run_campaign};
use hypertap_faultinject::spec::Workload;
use std::io::Write as _;

fn main() {
    let args = Args::parse_known(&["stride", "seed", "threads", "save", "quick"])
        .unwrap_or_else(usage_exit);
    let mut cfg = default_campaign(args.get("stride", 16).unwrap_or_else(usage_exit));
    cfg.seed = args.get("seed", 42).unwrap_or_else(usage_exit);
    cfg.threads = args.get("threads", 0).unwrap_or_else(usage_exit);
    if args.has("quick") {
        cfg = default_campaign(94);
        cfg.workloads = vec![Workload::Hanoi, Workload::MakeJ2];
    }
    let total = cfg.specs().len();
    eprintln!(
        "fig4: {} trials ({} sites x {} workloads x {} kernels x {} persistence)",
        total,
        cfg.sites.len(),
        cfg.workloads.len(),
        cfg.preemption.len(),
        cfg.persistence.len()
    );
    let results = run_campaign(&cfg, |done, total| {
        if done % 32 == 0 || done == total {
            eprint!("\r  {done}/{total} trials");
            let _ = std::io::stderr().flush();
        }
    });
    eprintln!();

    if let Some(path) = args.get_str("save") {
        let mut f = std::fs::File::create(path).expect("create results file");
        for r in &results {
            writeln!(f, "{}", serde_json::to_string(r).expect("serialise")).expect("write");
        }
        eprintln!("saved {} results to {path}", results.len());
    }

    println!("Fig. 4 — Guest OS Hang Detection coverage\n");
    let rows = fig4_rows(&results);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                if r.preemptible { "preempt" } else { "no-preempt" }.into(),
                if r.persistent { "persistent" } else { "transient" }.into(),
                r.trials.to_string(),
                r.not_activated.to_string(),
                r.not_manifested.to_string(),
                r.not_detected.to_string(),
                r.partial_hang.to_string(),
                r.full_hang.to_string(),
                pct(r.partial_fraction()),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "workload",
                "kernel",
                "fault",
                "trials",
                "not act.",
                "not manif.",
                "not det.",
                "partial",
                "full",
                "partial%"
            ],
            &table_rows
        )
    );

    // Headline statistics, as the paper aggregates them.
    let activated: usize = results.iter().filter(|r| r.activations > 0).count();
    let manifested: usize = results.iter().filter(|r| r.outcome.manifested()).count();
    let detected: usize = results.iter().filter(|r| r.outcome.detected()).count();
    let partial: usize = rows.iter().map(|r| r.partial_hang).sum();
    println!("trials:                {}", results.len());
    println!(
        "manifestation rate:    {} of activated (paper: ~82%)",
        pct(manifested as f64 / activated.max(1) as f64)
    );
    println!(
        "detection coverage:    {} of manifested (paper: 99.8%)",
        pct(detected as f64 / manifested.max(1) as f64)
    );
    println!(
        "partial hangs:         {} of detected (paper: 18-26%)",
        pct(partial as f64 / detected.max(1) as f64)
    );
}
