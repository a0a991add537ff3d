//! End-to-end detection-latency SLOs: from injected fault to raised
//! finding, per auditor — the paper's Fig. 5 summarized as a table.
//!
//! ```sh
//! cargo run --release --example detection_latency
//! cargo run --release --example detection_latency -- --trials 8 --assert
//! ```
//!
//! Each trial injects a persistent missing-unlock fault at a different
//! lock site under a compilation workload, runs until GOSHD alarms, then
//! correlates three timestamps per finding:
//!
//! * the **activation** instant from the kernel's fault-activation log
//!   (exact simulated time the fault first fired),
//! * the **trigger** event the finding's provenance cites (the last
//!   process switch before silence), resolved through the flight
//!   recorder's dump, and
//! * the **finding** time itself.
//!
//! GOSHD's SLO is sharp: the trigger latency must land in
//! `(threshold, threshold + em_tick]` — the auditor fires on the first
//! host-timer tick after the silence crosses the hang threshold. With
//! `--assert` the example enforces that bound on the median and exits
//! non-zero on violation (the CI telemetry job runs it that way).

use hypertap::framework::latency::{DetectionLatency, EventIndex, InjectionRecord};
use hypertap::framework::prelude::{FlightDump, MetricsRegistry, VmId};
use hypertap::guestos::fault::{FaultType, SingleFault};
use hypertap::guestos::kpath;
use hypertap::hvsim::clock::{Duration, SimTime};
use hypertap::monitors::goshd::{Goshd, GoshdConfig};
use hypertap::monitors::harness::{EngineSelection, TapVm};
use hypertap_bench::cli::{usage_exit, Args};

/// One hang trial: inject, run to the first alarm, correlate.
fn run_trial(trial: u64, threshold: Duration, lat: &mut DetectionLatency) -> bool {
    let mut vm = TapVm::builder()
        .vcpus(2)
        .engines(EngineSelection::context_switch_only())
        .goshd(GoshdConfig { threshold })
        .flight_capacity(8192)
        .build();
    let make = hypertap::workloads::make::install(&mut vm.kernel, 2, 24);
    let init = hypertap::workloads::make::install_init_running(&mut vm.kernel, make);
    vm.kernel.set_init_program(init);
    let site = kpath::site_for("ext3", trial) as u32;
    vm.kernel.set_fault_hook(Box::new(SingleFault::new(site, FaultType::MissingUnlock, true)));

    for _ in 0..400 {
        vm.run_for(Duration::from_millis(50));
        if vm.auditor::<Goshd>().map(|g| !g.alarms().is_empty()).unwrap_or(false) {
            break;
        }
    }

    let findings = vm.drain_findings();
    let dump =
        FlightDump::decode(&vm.flight_dump("detection-latency trial")).expect("own dump decodes");
    let index = EventIndex::from_dump(&dump);
    let injection = vm.kernel.fault_activation_log().first().map(|a| InjectionRecord {
        label: format!("missing-unlock@site{}", a.site),
        vm: VmId(0),
        time: SimTime::from_nanos(a.time_ns),
    });
    let goshd_findings: Vec<_> = findings.iter().filter(|f| f.auditor == "goshd").collect();
    let detected = !goshd_findings.is_empty();
    for f in &goshd_findings {
        lat.record(f, injection.as_ref(), Some(&index));
    }
    eprintln!(
        "trial {trial}: site {site}, activation {}, {} goshd finding(s)",
        injection.map(|i| i.time.to_string()).unwrap_or_else(|| "-".to_owned()),
        goshd_findings.len(),
    );
    detected
}

fn main() {
    let args = Args::parse_known(&["trials"], &["assert"]).unwrap_or_else(usage_exit);
    let trials: u64 = args.get("trials", 5).unwrap_or_else(usage_exit);
    let threshold = Duration::from_secs(2);
    let em_tick = Duration::from_millis(1); // TapVm builder default

    println!("== detection latency: {trials} missing-unlock hang trials ==");
    println!(
        "GOSHD threshold {threshold}, EM tick {em_tick} -> SLO: trigger latency in (threshold, threshold + tick]\n"
    );

    let mut lat = DetectionLatency::new();
    let mut detected = 0u64;
    for trial in 0..trials {
        if run_trial(trial, threshold, &mut lat) {
            detected += 1;
        }
    }

    println!("\n{}", lat.render_table());

    let mut reg = MetricsRegistry::new();
    lat.collect_metrics(&mut reg);
    let scrape = reg.to_prometheus();
    let hist_lines = scrape.lines().filter(|l| l.contains("detection_latency")).count();
    println!("exported {hist_lines} detection-latency metric lines (scrape via /metrics)");

    let median = lat.median_trigger_ns("goshd");
    let e2e = lat.median_e2e_ns("goshd");
    println!(
        "goshd: {detected}/{trials} detected, median trigger {}, median e2e {}",
        median.map(|v| Duration::from_nanos(v).to_string()).unwrap_or_else(|| "-".to_owned()),
        e2e.map(|v| Duration::from_nanos(v).to_string()).unwrap_or_else(|| "-".to_owned()),
    );

    if args.has("assert") {
        assert_eq!(detected, trials, "every injected hang must be detected");
        let median = median.expect("detected hangs yield trigger latencies");
        let lo = threshold.as_nanos();
        let hi = threshold.as_nanos() + em_tick.as_nanos();
        assert!(
            median > lo && median <= hi,
            "goshd median trigger latency {median} ns outside SLO ({lo}, {hi}] ns"
        );
        println!("SLO assert: goshd median trigger within one EM tick of its threshold ✓");
    }
}
