//! Property-based snapshot equivalence: interrupting a monitored guest at
//! a random slice boundary — serializing the whole machine to a `.htsp`
//! blob, restoring it into a recipe-fresh VM, and running on — must be
//! indistinguishable from never interrupting it.
//!
//! The property sweeps random scenarios (workload mixes, lock faults,
//! rootkit insertions) across vCPU counts 1–4 and software TLB on/off, and
//! compares *everything* the monitoring stack produces: findings (with
//! their provenance [`EventRef`]s), the recorded HTRC trace bytes, the
//! `.htfr` flight dump (the restored flight ring must continue the
//! uninterrupted one), the EM delivery counters, and the merged metrics
//! snapshot.
//!
//! Durations are capped at 40 ms per case; CI runs a reduced case count
//! via `PROPTEST_CASES`.
//!
//! [`EventRef`]: hypertap_core::event::EventRef

use hypertap_core::audit::Finding;
use hypertap_core::em::DeliveryStats;
use hypertap_core::metrics::MetricsRegistry;
use hypertap_core::prelude::VmId;
use hypertap_hvsim::clock::Duration;
use hypertap_hvsim::machine::RunExit;
use hypertap_replay::recorder::TraceRecorder;
use hypertap_replay::scenario::{build_scenario_vm, ConfigVariant, Scenario};
use hypertap_replay::trace::TraceHeader;
use proptest::prelude::*;

const CAP: Duration = Duration::from_millis(40);
const SLICE: Duration = Duration::from_millis(10);

fn variant_for(tlb: bool) -> ConfigVariant {
    let label = if tlb { "snapprop/tlb-on" } else { "snapprop/tlb-off" };
    ConfigVariant { label, tlb, fine: true, extra_vectors: &[], metrics: false, flight: true }
}

/// Everything a run produces that the equivalence contract covers.
struct Outcome {
    trace: Vec<u8>,
    findings: Vec<Finding>,
    flight: Vec<u8>,
    stats: DeliveryStats,
    metrics: MetricsRegistry,
}

fn recorded_vm(s: &Scenario, v: &ConfigVariant) -> (hypertap_monitors::TapVm, TraceRecorder) {
    let mut vm = build_scenario_vm(s, v, VmId(0));
    let recorder =
        TraceRecorder::new(TraceHeader::new(s.vcpus as u64, s.seed, s.name.clone(), v.label));
    vm.machine.hypervisor_mut().em.attach_tap(recorder.tap());
    (vm, recorder)
}

fn collect(mut vm: hypertap_monitors::TapVm, recorder: TraceRecorder) -> Outcome {
    vm.machine.hypervisor_mut().em.detach_tap();
    Outcome {
        trace: recorder.finish().encode(),
        findings: vm.drain_findings(),
        flight: vm.flight_dump("snapprop"),
        stats: vm.machine.hypervisor().em.stats(),
        metrics: vm.metrics_snapshot(),
    }
}

/// The control: one uninterrupted run to the scenario deadline.
fn run_uninterrupted(s: &Scenario, v: &ConfigVariant) -> Outcome {
    let (mut vm, recorder) = recorded_vm(s, v);
    vm.run_for(s.duration);
    collect(vm, recorder)
}

/// The interrupted run: `boundary` slices, then snapshot → recipe-fresh
/// rebuild → restore → run to the deadline on the restored copy.
fn run_interrupted(s: &Scenario, v: &ConfigVariant, boundary: u64) -> Outcome {
    let (mut vm, recorder) = recorded_vm(s, v);
    let deadline = vm.now() + s.duration;
    for _ in 0..boundary {
        let before = vm.now();
        let target = (before + SLICE).min(deadline);
        match vm.run_until(target) {
            RunExit::Shutdown | RunExit::Paused => break,
            RunExit::AllIdle if vm.now() == before => break,
            _ => {}
        }
        if vm.now() >= deadline {
            break;
        }
    }
    let bytes = vm.snapshot().expect("scenario VM snapshots at a slice boundary");
    let (mut restored, _old_tap) = {
        let mut fresh = build_scenario_vm(s, v, VmId(0));
        fresh.restore(&bytes).expect("snapshot restores into the same recipe");
        // The recorder's buffer is shared: hand the restored VM a new tap
        // into it and let the interrupted VM (and its tap box) drop.
        fresh.machine.hypervisor_mut().em.attach_tap(recorder.tap());
        (fresh, vm)
    };
    drop(_old_tap);
    restored.run_until(deadline);
    collect(restored, recorder)
}

proptest! {
    /// snapshot → restore → run ≡ run, over scenarios × vCPUs 1–4 ×
    /// TLB on/off × random interruption boundary.
    #[test]
    fn snapshot_restore_run_equals_uninterrupted_run(
        seed in 0u64..u64::MAX,
        ordinal in 0u64..64,
        vcpus in 1usize..=4,
        tlb in any::<bool>(),
        boundary in 0u64..5,
    ) {
        let mut s = Scenario::sample(seed, ordinal);
        s.vcpus = vcpus;
        if s.duration > CAP {
            s.duration = CAP;
        }
        let v = variant_for(tlb);
        let control = run_uninterrupted(&s, &v);
        let interrupted = run_interrupted(&s, &v, boundary);
        prop_assert_eq!(
            &interrupted.findings, &control.findings,
            "{} vcpus={} tlb={} boundary={}: findings (with provenance) must match",
            s.name, vcpus, tlb, boundary
        );
        prop_assert_eq!(
            &interrupted.flight, &control.flight,
            "{}: .htfr flight dump bytes must match", s.name
        );
        prop_assert_eq!(&interrupted.stats, &control.stats, "{}: delivery stats", s.name);
        prop_assert_eq!(
            &interrupted.metrics, &control.metrics,
            "{}: merged metrics snapshots must match", s.name
        );
        prop_assert_eq!(
            &interrupted.trace, &control.trace,
            "{}: recorded HTRC trace bytes must match", s.name
        );
    }
}
