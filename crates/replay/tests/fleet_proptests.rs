//! Property-based fleet determinism: a fleet run at ANY worker
//! count must reproduce, per VM, the findings and the recorded HTRC
//! trace of running that VM alone, byte for byte.
//!
//! This is the tentpole contract of `hypertap_core::fleet` exercised
//! end-to-end through real monitored guests: random base seeds sample
//! random scenario mixes (workloads, lock faults, rootkit insertions)
//! per VM, and random worker counts in {1, 2, 4, 8} run them. The
//! recorded traces are compared with [`diff_traces`] under
//! [`DiffPolicy::Exact`] on top of the raw byte equality, so a failure
//! names the first divergent record instead of just "bytes differ".
//!
//! Durations are capped at 30 ms per member to keep the property cheap
//! enough for many cases; CI runs a reduced case count via
//! `PROPTEST_CASES`.

use hypertap_core::prelude::VmId;
use hypertap_hvsim::clock::Duration;
use hypertap_replay::diff::{diff_traces, DiffPolicy};
use hypertap_replay::fleet::{run_member_alone, run_scenario_fleet, ScenarioFleet};
use hypertap_replay::trace::Trace;
use proptest::prelude::*;

fn quick_fleet(base_seed: u64) -> ScenarioFleet {
    ScenarioFleet::new(base_seed).capped(Duration::from_millis(30))
}

proptest! {
    /// Per-VM findings and recorded traces from a multi-worker fleet run are
    /// byte-identical to running each VM alone, for every sampled
    /// worker count.
    #[test]
    fn fleet_runs_are_bit_identical_to_single_vm_runs(
        base_seed in 0u64..u64::MAX,
        vms in 1usize..6,
        workers_sel in 0usize..4,
    ) {
        let workers = [1, 2, 4, 8][workers_sel];
        let fleet = quick_fleet(base_seed);
        let report = run_scenario_fleet(&fleet, vms, workers);
        prop_assert_eq!(report.per_vm.len(), vms);
        for (i, got) in report.per_vm.iter().enumerate() {
            prop_assert_eq!(got.vm, VmId(i as u32));
            let want = run_member_alone(&fleet, got.vm);
            prop_assert_eq!(
                &got.findings, &want.findings,
                "vm {} findings under {} workers", i, workers
            );
            prop_assert_eq!(&got.stats, &want.stats, "vm {} stats", i);
            if got.payload != want.payload {
                // Decode for a diagnosis that names the divergent record.
                let lt = Trace::decode(&got.payload).expect("fleet trace decodes");
                let rt = Trace::decode(&want.payload).expect("baseline trace decodes");
                let div = diff_traces(&lt, &rt, DiffPolicy::Exact);
                prop_assert!(
                    false,
                    "vm {} trace diverged under {} workers: {:?}",
                    i, workers, div
                );
            }
            prop_assert!(!got.payload.is_empty(), "member must record events");
        }
    }
}
