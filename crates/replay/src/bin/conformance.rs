//! Differential conformance fuzzer.
//!
//! Samples seeded guest scenarios and runs each under the seven
//! configuration pairs of `conformance_pairs` that must be
//! logging-equivalent to the baseline:
//!
//! * software TLB off (exact);
//! * coarse interception (projected onto the shared classes);
//! * extra never-firing exception-bitmap vectors (exact);
//! * metrics instrumentation on (exact);
//! * flight-recorder retention off (exact);
//! * a snapshot/restore cycle every few slices (exact);
//! * the live telemetry plane attached (exact).
//!
//! It diffs the recorded traces and cross-checks that replaying the
//! baseline trace reproduces the live verdict. When a pair diverges, both
//! sides' flight recorders are dumped to `.htfr` files and the paths
//! printed; every replayed verdict's finding provenance is validated
//! against the trace it cites.
//!
//! ```text
//! cargo run --release -p hypertap-replay --bin conformance -- \
//!     --scenarios 100 --seed 42
//! ```
//!
//! `--inject-divergence <index>` is the harness self-test: it tampers a
//! copy of each baseline trace (shifting one record's time by 1 ns) and
//! requires the differ to detect and report it — exiting nonzero if the
//! known-bad trace slips through.
//!
//! `--pair <substring>` restricts the run to configuration pairs whose
//! right-hand label contains the substring (e.g. `--pair metrics` for the
//! metrics-on/off determinism check CI runs in isolation).
//!
//! `--fleet <vms>` switches to the fleet conformance pair instead: the
//! same VM fleet is run on `--workers-left` (default 1) and
//! `--workers-right` (default 8) worker threads, and every VM's findings,
//! delivery stats and recorded trace must match byte for byte — the
//! fleet determinism contract under real sharding.

use hypertap_bench::cli::{usage_exit, Args};
use hypertap_hvsim::clock::Duration;
use hypertap_replay::diff::{diff_traces, DiffPolicy};
use hypertap_replay::fleet::{fleet_conformance_pair, ScenarioFleet};
use hypertap_replay::replay::{replay_trace, validate_provenance};
use hypertap_replay::scenario::{
    conformance_pairs, register_auditors, run_scenario, run_scenario_variant, scenario_flight_dump,
    Scenario,
};

fn run_fleet_mode(args: &Args, vms: usize, seed: u64) {
    let workers_left = args.get::<usize>("workers-left", 1).unwrap_or_else(usage_exit);
    let workers_right = args.get::<usize>("workers-right", 8).unwrap_or_else(usage_exit);
    let cap_ms = args.get::<u64>("cap-ms", 60).unwrap_or_else(usage_exit);
    println!("== HyperTap fleet conformance ==");
    println!(
        "{vms} VMs   base seed: {seed}   workers: {workers_left} vs {workers_right}   \
         cap: {cap_ms} ms"
    );
    let fleet = ScenarioFleet::new(seed).capped(Duration::from_millis(cap_ms));
    match fleet_conformance_pair(&fleet, vms, workers_left, workers_right) {
        Some(d) => {
            println!("DIVERGENT vm {:?}: {}", d.vm, d.detail);
            eprintln!("fleet conformance FAILED");
            std::process::exit(1);
        }
        None => println!(
            "fleet conformance OK: {vms} VMs bit-identical at {workers_left} and \
             {workers_right} workers"
        ),
    }
}

fn main() {
    let args = Args::parse_known(&[
        "seed",
        "fleet",
        "workers-left",
        "workers-right",
        "cap-ms",
        "scenarios",
        "inject-divergence",
        "pair",
    ])
    .unwrap_or_else(usage_exit);
    let seed = args.get::<u64>("seed", 42).unwrap_or_else(usage_exit);
    if args.has("fleet") {
        run_fleet_mode(&args, args.get::<usize>("fleet", 8).unwrap_or_else(usage_exit), seed);
        return;
    }
    let scenarios = args.get::<u64>("scenarios", 25).unwrap_or_else(usage_exit);
    // A malformed index must not silently degrade to 0: the self-test
    // would then "pass" while testing a different record than asked for.
    let inject = args.get_str("inject-divergence").map(|v| match v.parse::<u64>() {
        Ok(at) => at,
        Err(e) => {
            eprintln!("--inject-divergence expects a record index, got {v:?}: {e}");
            std::process::exit(2);
        }
    });
    let pair_filter = args.get_str("pair").map(str::to_owned);

    println!("== HyperTap differential conformance ==");
    println!("scenarios: {scenarios}   base seed: {seed}");

    let mut pairs = conformance_pairs();
    if let Some(filter) = &pair_filter {
        pairs.retain(|(_, right, _)| right.label.contains(filter.as_str()));
        if pairs.is_empty() {
            eprintln!("--pair {filter:?} matched no configuration pair");
            std::process::exit(2);
        }
        let labels: Vec<&str> = pairs.iter().map(|(_, r, _)| r.label).collect();
        println!("pair filter {filter:?}: {labels:?}");
    }
    let mut runs = 0u64;
    let mut divergences = 0u64;
    let mut replay_mismatches = 0u64;
    let mut provenance_failures = 0u64;
    let mut injected_detected = 0u64;
    let mut total_events = 0u64;

    for ordinal in 0..scenarios {
        let scenario = Scenario::sample(seed, ordinal);
        let (base_trace, live_verdict) = run_scenario(&scenario, &pairs[0].0);
        total_events += base_trace.event_count();

        for (left, right, policy) in &pairs {
            let (other_trace, _) = run_scenario_variant(&scenario, right);
            runs += 1;
            let label = format!("{} vs {}", left.label, right.label);
            if let Some(d) = diff_traces(&base_trace, &other_trace, *policy) {
                divergences += 1;
                println!("DIVERGENT {:<24} {}", scenario.name, label);
                println!("{d}");
                // Post-mortem: dump both sides' flight recorders so the
                // divergence can be inspected offline with `flightdump`.
                for (side, variant) in [("left", left), ("right", right)] {
                    let reason =
                        format!("conformance-divergence: {} {label} ({side})", scenario.name);
                    let bytes = scenario_flight_dump(&scenario, variant, &reason);
                    let path = std::env::temp_dir().join(format!(
                        "hypertap-divergence-{ordinal}-{side}-{}.htfr",
                        std::process::id()
                    ));
                    match std::fs::write(&path, bytes) {
                        Ok(()) => println!("  flight dump ({side}): {}", path.display()),
                        Err(e) => println!("  flight dump ({side}) failed: {e}"),
                    }
                }
            }
        }

        // Replay cross-check: audit without the simulator, same verdict.
        let replayed = replay_trace(&base_trace, |em| register_auditors(em, scenario.vcpus));
        if replayed != live_verdict {
            replay_mismatches += 1;
            println!("REPLAY MISMATCH {:<24}", scenario.name);
            println!("  live:     {live_verdict:?}");
            println!("  replayed: {replayed:?}");
        }
        if let Err(e) = validate_provenance(&replayed, &base_trace) {
            provenance_failures += 1;
            println!("PROVENANCE INVALID {:<24} {e}", scenario.name);
        }

        if let Some(at) = inject {
            let mut tampered = base_trace.clone();
            tampered.tamper(at);
            match diff_traces(&base_trace, &tampered, DiffPolicy::Exact) {
                Some(d) => {
                    injected_detected += 1;
                    if ordinal == 0 {
                        println!("injected divergence detected in {}:", scenario.name);
                        println!("{d}");
                    }
                }
                None => {
                    println!("MISSED injected divergence at index {at} in {}", scenario.name);
                }
            }
        }
    }

    println!(
        "{runs} config-pair runs over {scenarios} scenarios ({total_events} baseline events): \
         {divergences} divergences, {replay_mismatches} replay mismatches, \
         {provenance_failures} invalid provenances"
    );
    if let Some(at) = inject {
        println!(
            "self-test: injected divergence at index {at} detected in \
             {injected_detected}/{scenarios} scenarios"
        );
        if injected_detected != scenarios {
            eprintln!("self-test FAILED: tampered traces were not all detected");
            std::process::exit(2);
        }
    }
    if divergences > 0 || replay_mismatches > 0 || provenance_failures > 0 {
        eprintln!("conformance FAILED");
        std::process::exit(1);
    }
    println!("conformance OK");
}
