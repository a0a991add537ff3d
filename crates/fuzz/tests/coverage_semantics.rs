//! Coverage-map semantics on real runs: fingerprints must not depend on
//! who collected the coverage (live tap vs post-hoc fold), in what order
//! maps were merged, or how many workers a fleet was sharded across.

use hypertap_fuzz::coverage::{CoverageMap, StreamCoverage};
use hypertap_fuzz::harness::fold_trace;
use hypertap_hvsim::clock::Duration;
use hypertap_replay::prelude::*;

/// Folds each fleet member's trace into its own map, then merges in the
/// given order.
fn merged_fleet_coverage(traces: &[Trace], reverse: bool) -> CoverageMap {
    let mut per_vm: Vec<CoverageMap> = traces
        .iter()
        .map(|t| {
            let mut stream = StreamCoverage::new();
            fold_trace(t, &mut stream);
            let mut map = CoverageMap::new();
            stream.fold_into(&mut map);
            map
        })
        .collect();
    if reverse {
        per_vm.reverse();
    }
    let mut merged = CoverageMap::new();
    for map in &per_vm {
        merged.merge(map);
    }
    merged
}

#[test]
fn fleet_fingerprints_are_identical_across_worker_counts() {
    let fleet = ScenarioFleet::new(9001).capped(Duration::from_millis(60));
    let sequential = run_scenario_fleet(&fleet, 6, 1);
    let sharded = run_scenario_fleet(&fleet, 6, 4);

    let seq_traces = fleet_traces(&sequential).expect("fleet traces decode");
    let shard_traces = fleet_traces(&sharded).expect("fleet traces decode");
    assert_eq!(seq_traces.len(), 6);
    assert_eq!(shard_traces.len(), 6);

    let seq = merged_fleet_coverage(&seq_traces, false);
    let shard = merged_fleet_coverage(&shard_traces, false);
    assert_eq!(
        seq.fingerprint(),
        shard.fingerprint(),
        "worker count changed the merged coverage fingerprint"
    );

    // Merge order must not matter either: OR-ing per-VM maps is
    // commutative, so forward and reverse merges agree bit-for-bit.
    let reversed = merged_fleet_coverage(&shard_traces, true);
    assert_eq!(shard.fingerprint(), reversed.fingerprint());
    assert!(shard.covers(&reversed) && reversed.covers(&shard));
}

#[test]
fn per_member_coverage_matches_solo_runs() {
    // Sharding preserves each member's own coverage, not just the merged
    // union: every fleet trace folds to the same map as the member run
    // alone.
    let fleet = ScenarioFleet::new(1207).capped(Duration::from_millis(60));
    let report = run_scenario_fleet(&fleet, 4, 3);
    let traces = fleet_traces(&report).expect("fleet traces decode");
    for (i, trace) in traces.iter().enumerate() {
        let solo = run_member_alone(&fleet, hypertap_core::prelude::VmId(i as u32));
        let solo_trace = Trace::decode(&solo.payload).expect("solo trace decodes");
        let fold = |t: &Trace| {
            let mut stream = StreamCoverage::new();
            fold_trace(t, &mut stream);
            let mut map = CoverageMap::new();
            stream.fold_into(&mut map);
            map.fingerprint()
        };
        assert_eq!(fold(trace), fold(&solo_trace), "vm {i} coverage differs from solo run");
    }
}
