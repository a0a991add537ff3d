//! Table III — predicting Ninja's monitoring interval through the `/proc`
//! side channel.
//!
//! O-Ninja runs in-guest with intervals of 1, 2, 4 and 8 seconds; an
//! unprivileged prober polls `/proc/<ninja>/stat` and records each
//! sleep→run transition. The gaps between wake-ups recover the interval
//! with sub-millisecond precision — the information a transient attacker
//! needs to time its strike.
//!
//! Flags:
//!   --samples N   wake-ups per interval (default 12; the paper used 30)
//!   --poll-us N   prober polling gap in microseconds (default 200)

use hypertap_attacks::side_channel::{IntervalEstimate, SideChannelProber, WAKE_TAG};
use hypertap_bench::cli::{usage_exit, Args};
use hypertap_bench::report::table;
use hypertap_guestos::program::{FnProgram, UserOp, UserView};
use hypertap_guestos::syscalls::Sysno;
use hypertap_hvsim::clock::Duration;
use hypertap_hvsim::machine::RunExit;
use hypertap_monitors::harness::{EngineSelection, TapVm};
use hypertap_monitors::ninja::oninja::ONinja;
use hypertap_monitors::ninja::rules::NinjaRules;

/// Measures one interval; returns the recovered wake-up gaps.
fn measure_interval(interval_s: u64, samples: u64, poll_gap_ns: u64) -> Option<IntervalEstimate> {
    let mut vm =
        TapVm::builder().vcpus(2).memory(256 << 20).engines(EngineSelection::none()).build();
    let ninja = vm.kernel.register_program(
        "ninja",
        Box::new(move || {
            Box::new(ONinja::new(NinjaRules::new(), interval_s * 1_000_000_000, false))
        }),
    );
    // The prober learns the ninja's pid the honest way: from the process
    // list. Here init simply passes it along (pid 4: init=1, kflushd=2,3).
    let ninja_pid_guess = 4u64;
    let prober = vm.kernel.register_program(
        "prober",
        Box::new(move || {
            Box::new(SideChannelProber::new(ninja_pid_guess, poll_gap_ns, samples + 1))
        }),
    );
    let (ninja_raw, prober_raw) = (ninja.0, prober.0);
    let init = vm.kernel.register_program(
        "init",
        Box::new(move || {
            let mut stage = 0;
            Box::new(FnProgram(move |_v: &UserView<'_>| {
                stage += 1;
                match stage {
                    1 => UserOp::sys(Sysno::Spawn, &[ninja_raw, 0]),
                    2 => UserOp::sys(Sysno::Spawn, &[prober_raw, 1000]),
                    _ => UserOp::sys(Sysno::Waitpid, &[]),
                }
            }))
        }),
    );
    vm.kernel.set_init_program(init);

    // Run until the prober has seen its wake-ups (it exits on its own).
    let horizon = Duration::from_secs(interval_s * (samples + 4) + 10);
    let mut wakes: Vec<u64> = Vec::new();
    for _ in 0..10_000 {
        let run = vm.run_for(Duration::from_millis(200));
        for (_pid, ev) in vm.kernel.drain_all_mailboxes() {
            if ev.tag == WAKE_TAG {
                if let Ok(t) = ev.detail.parse() {
                    wakes.push(t);
                }
            }
        }
        if wakes.len() as u64 > samples || vm.now().as_nanos() > horizon.as_nanos() {
            break;
        }
        if run == RunExit::AllIdle || run == RunExit::Shutdown {
            break;
        }
    }
    // Discard the first wake (partial interval).
    if wakes.len() > 1 {
        wakes.remove(0);
    }
    IntervalEstimate::from_wakes(&wakes)
}

fn main() {
    let args = Args::parse_known(&["samples", "poll-us"], &[]).unwrap_or_else(usage_exit);
    let samples: u64 = args.get("samples", 12).unwrap_or_else(usage_exit);
    let poll_gap_ns: u64 = args.get::<u64>("poll-us", 200).unwrap_or_else(usage_exit) * 1_000;

    println!("Table III — predicting Ninja's monitoring interval (seconds)\n");
    let mut rows = Vec::new();
    for interval in [1u64, 2, 4, 8] {
        match measure_interval(interval, samples, poll_gap_ns) {
            Some(est) => rows.push(vec![
                format!("{interval}"),
                format!("{:.5}", est.mean_s),
                format!("{:.5}", est.min_s),
                format!("{:.5}", est.max_s),
                format!("{:.5}", est.sd_s),
                format!("{}", est.samples),
            ]),
            None => rows.push(vec![
                format!("{interval}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "0".into(),
            ]),
        }
    }
    println!(
        "{}",
        table(&["Ninja's interval", "Predicted mean", "Min", "Max", "SD", "samples"], &rows)
    );
    println!("(paper: means within ~0.0004 s of the true interval, SD < 0.001 s, 30 samples)");
}
