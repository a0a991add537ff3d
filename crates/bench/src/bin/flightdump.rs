//! `flightdump` — inspector for `.htfr` flight-recorder dumps.
//!
//! ```text
//! # pretty-print a dump written on an auditor panic / fleet failure
//! cargo run -p hypertap-bench --bin flightdump -- --in crash.htfr
//!
//! # export Chrome trace-event JSON (load in chrome://tracing or Perfetto)
//! cargo run -p hypertap-bench --bin flightdump -- \
//!     --in crash.htfr --export-chrome crash.json
//!
//! # no dump at hand? synthesize one from an induced guest hang
//! cargo run -p hypertap-bench --bin flightdump -- --demo --out demo.htfr
//!
//! # tail a dump directory, pretty-printing each new .htfr as it lands
//! cargo run -p hypertap-bench --bin flightdump -- --follow /tmp/dumps
//! ```
//!
//! The exported JSON carries complete spans (`ph: "X"`) for pipeline
//! stages and fleet worker slices, instant events (`ph: "i"`) for
//! findings and auditor state transitions, with timestamps in simulated
//! microseconds.

use hypertap_bench::cli::{usage_exit, Args};
use hypertap_core::prelude::FlightDump;
use hypertap_guestos::fault::{FaultType, SingleFault};
use hypertap_guestos::kpath;
use hypertap_hvsim::clock::Duration;
use hypertap_monitors::goshd::{Goshd, GoshdConfig};
use hypertap_monitors::harness::{EngineSelection, TapVm};

/// Induces a guest hang under full instrumentation and returns the flight
/// recorder's dump: the same bytes a real failure path would have written.
fn demo_dump() -> Vec<u8> {
    let mut vm = TapVm::builder()
        .vcpus(2)
        .engines(EngineSelection::context_switch_only())
        .goshd(GoshdConfig::paper_default())
        .metrics(true)
        .flight_capacity(4096)
        .build();
    let make = hypertap_workloads::make::install(&mut vm.kernel, 2, 24);
    let init = hypertap_workloads::make::install_init_running(&mut vm.kernel, make);
    vm.kernel.set_init_program(init);
    let site = kpath::site_for("ext3", 1) as u32;
    vm.kernel.set_fault_hook(Box::new(SingleFault::new(site, FaultType::MissingUnlock, true)));
    // Poll in short slices and stop right after the first alarm so the
    // finding is still in the ring, not evicted by post-alarm records.
    for _ in 0..300 {
        vm.run_for(Duration::from_millis(100));
        if vm.auditor::<Goshd>().map(|g| !g.alarms().is_empty()).unwrap_or(false) {
            break;
        }
    }
    let alarms = vm.auditor::<Goshd>().map(|g| g.alarms().len()).unwrap_or(0);
    eprintln!("demo: induced missing-unlock hang at site {site}, {alarms} GOSHD alarm(s)");
    vm.flight_dump("demo: induced guest hang (missing spinlock release)")
}

fn main() {
    let args = Args::parse_known(&[
        "in",
        "export-chrome",
        "demo",
        "out",
        "follow",
        "follow-ms",
        "poll-ms",
    ])
    .unwrap_or_else(usage_exit);
    let limit_ms: u64 = args.get("follow-ms", 0).unwrap_or_else(usage_exit);
    let poll_ms: u64 = args.get("poll-ms", 250).unwrap_or_else(usage_exit);
    if let Some(dir) = args.get_str("follow") {
        // Tail the directory until --follow-ms elapses (0 = forever).
        let deadline =
            if limit_ms == 0 { None } else { Some(std::time::Duration::from_millis(limit_ms)) };
        let poll = std::time::Duration::from_millis(poll_ms);
        let mut stdout = std::io::stdout();
        match hypertap_bench::follow::follow_dir(
            std::path::Path::new(dir),
            poll,
            deadline,
            &mut stdout,
        ) {
            Ok(n) => {
                eprintln!("follow: printed {n} dump(s) from {dir}");
                return;
            }
            Err(e) => {
                eprintln!("follow: {e}");
                std::process::exit(1);
            }
        }
    }
    let bytes = if args.has("demo") {
        let bytes = demo_dump();
        let out = args.get_str("out").unwrap_or("flight-demo.htfr");
        if let Err(e) = std::fs::write(out, &bytes) {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("demo: wrote {} bytes to {out}", bytes.len());
        bytes
    } else if let Some(path) = args.get_str("in") {
        match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        eprintln!("usage: flightdump --in <dump.htfr> [--export-chrome <out.json>]");
        eprintln!("       flightdump --demo [--out <dump.htfr>] [--export-chrome <out.json>]");
        std::process::exit(2);
    };

    let dump = match FlightDump::decode(&bytes) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("not a valid .htfr dump: {e:?}");
            std::process::exit(1);
        }
    };

    if let Some(out) = args.get_str("export-chrome") {
        let json = dump.to_chrome_json();
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
        println!("wrote Chrome trace-event JSON to {out} ({} bytes)", json.len());
        println!("load it in chrome://tracing or https://ui.perfetto.dev");
        return;
    }

    print!("{}", dump.render());
}
