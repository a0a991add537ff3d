//! Fleet conformance: per-VM trace recording under the sharded fleet
//! host, diffed against the sequential single-VM baseline.
//!
//! The fleet determinism contract (see `hypertap_core::fleet`) promises
//! that a VM's recorded [`EventTap`](hypertap_core::em::EventTap) stream
//! is a pure function of the VM, never of the worker count or of its
//! fleet neighbours. This module makes the promise testable with the
//! machinery this crate already has:
//!
//! * [`ScenarioFleet`] — a [`FleetWorkload`] whose members are sampled
//!   [`Scenario`]s (same sampler the conformance fuzzer uses), each
//!   wrapped in a [`FleetMember`] with a [`TraceRecorder`] attached at
//!   the Event Forwarder boundary. The encoded trace rides back in
//!   [`VmReport::payload`].
//! * [`diff_fleet_reports`] — compares two fleet runs per VM: findings,
//!   delivery stats, and the recorded trace bytes; a byte mismatch is
//!   decoded and handed to [`diff_traces`] under [`DiffPolicy::Exact`]
//!   so the report names the first divergent record.
//! * [`encode_fleet_archive`] / [`decode_fleet_archive`] — a `HTFL`
//!   container bundling every per-VM trace of a run into one blob, used
//!   by the fleet golden fixture (compressed to `.htrz` like the
//!   single-VM goldens).

use crate::diff::{diff_traces, DiffPolicy};
use crate::recorder::TraceRecorder;
use crate::scenario::{build_scenario_vm, ConfigVariant, Scenario, BASE};
use crate::trace::{Trace, TraceHeader};
use hypertap_core::fleet::{
    run_fleet, run_vm_alone, FleetConfig, FleetReport, FleetVm, FleetWorkload, SliceOutcome,
    VmReport,
};
use hypertap_core::prelude::VmId;
use hypertap_hvsim::clock::Duration;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use hypertap_monitors::fleet::FleetMember;
use std::sync::Arc;

/// A fleet whose members are sampled conformance [`Scenario`]s, each
/// recording its forwarded stream.
#[derive(Debug, Clone)]
pub struct ScenarioFleet {
    /// Seed the per-VM scenario sampling derives from; VM `i` runs
    /// `Scenario::sample(base_seed, i)`.
    pub base_seed: u64,
    /// The monitoring-plane configuration every member runs under.
    pub variant: ConfigVariant,
    /// Scheduling slice handed to each member per fleet round.
    pub slice: Duration,
    /// Optional cap on each sampled scenario's duration — sampled
    /// durations run 150–400 ms, which is slow for proptest case counts.
    pub duration_cap: Option<Duration>,
}

impl ScenarioFleet {
    /// A fleet over the [`BASE`] variant with 10 ms slices, uncapped.
    pub fn new(base_seed: u64) -> Self {
        ScenarioFleet {
            base_seed,
            variant: BASE,
            slice: Duration::from_millis(10),
            duration_cap: None,
        }
    }

    /// Caps each member's simulated run length (for fast proptests).
    pub fn capped(mut self, cap: Duration) -> Self {
        self.duration_cap = Some(cap);
        self
    }

    /// The scenario VM `vm` runs — a pure function of `(base_seed, vm)`.
    pub fn scenario_for(&self, vm: VmId) -> Scenario {
        let mut s = Scenario::sample(self.base_seed, vm.0 as u64);
        if let Some(cap) = self.duration_cap {
            if s.duration > cap {
                s.duration = cap;
            }
        }
        s
    }
}

/// A fleet member with a [`TraceRecorder`] tapped in at build time; the
/// encoded trace is stowed in [`VmReport::payload`] at finish.
struct RecordingMember {
    member: FleetMember,
    recorder: Option<TraceRecorder>,
}

impl FleetVm for RecordingMember {
    fn step_slice(&mut self) -> SliceOutcome {
        self.member.step_slice()
    }

    fn flight_dump(&mut self, reason: &str) -> Option<Vec<u8>> {
        self.member.flight_dump(reason)
    }

    fn finish(&mut self) -> VmReport {
        self.member.vm_mut().machine.hypervisor_mut().em.detach_tap();
        let mut report = self.member.finish();
        if let Some(recorder) = self.recorder.take() {
            report.payload = recorder.finish().encode();
        }
        report
    }
}

impl FleetWorkload for ScenarioFleet {
    fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
        let scenario = self.scenario_for(vm);
        let mut tap_vm = build_scenario_vm(&scenario, &self.variant, vm);
        let recorder = TraceRecorder::new(TraceHeader::new(
            scenario.vcpus as u64,
            scenario.seed,
            scenario.name.clone(),
            self.variant.label,
        ));
        tap_vm.machine.hypervisor_mut().em.attach_tap(recorder.tap());
        let member = FleetMember::new(tap_vm, vm, scenario.duration, self.slice);
        Box::new(RecordingMember { member, recorder: Some(recorder) })
    }
}

/// Runs a scenario fleet of `vms` VMs on `workers` threads.
pub fn run_scenario_fleet(fleet: &ScenarioFleet, vms: usize, workers: usize) -> FleetReport {
    run_fleet(Arc::new(fleet.clone()), FleetConfig::new(vms, workers))
}

/// Runs one fleet member alone, sequentially — the baseline every
/// worker count must reproduce bit-for-bit.
pub fn run_member_alone(fleet: &ScenarioFleet, vm: VmId) -> VmReport {
    run_vm_alone(fleet, vm)
}

/// Decodes every per-VM recorded trace out of a fleet report.
pub fn fleet_traces(report: &FleetReport) -> Result<Vec<Trace>, SnapError> {
    report.per_vm.iter().map(|r| Trace::decode(&r.payload)).collect()
}

/// Where two fleet runs first disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetDivergence {
    /// The VM whose outputs differ (`VmId(u32::MAX)` for shape mismatches
    /// that precede any per-VM comparison).
    pub vm: VmId,
    /// Human-readable description of the first difference.
    pub detail: String,
}

/// Diffs two fleet runs VM by VM: report shape, findings, delivery
/// stats, then recorded trace bytes (byte mismatches are decoded and
/// diffed [`DiffPolicy::Exact`] to name the first divergent record).
/// Returns `None` when the runs are bit-identical.
pub fn diff_fleet_reports(a: &FleetReport, b: &FleetReport) -> Option<FleetDivergence> {
    if a.per_vm.len() != b.per_vm.len() {
        return Some(FleetDivergence {
            vm: VmId(u32::MAX),
            detail: format!("VM counts differ: {} vs {}", a.per_vm.len(), b.per_vm.len()),
        });
    }
    for (left, right) in a.per_vm.iter().zip(b.per_vm.iter()) {
        if left.vm != right.vm {
            return Some(FleetDivergence {
                vm: left.vm,
                detail: format!("VM order differs: {:?} vs {:?}", left.vm, right.vm),
            });
        }
        if left.findings != right.findings {
            return Some(FleetDivergence {
                vm: left.vm,
                detail: format!(
                    "findings differ: {} vs {}",
                    left.findings.len(),
                    right.findings.len()
                ),
            });
        }
        if left.stats != right.stats {
            return Some(FleetDivergence {
                vm: left.vm,
                detail: format!("delivery stats differ: {:?} vs {:?}", left.stats, right.stats),
            });
        }
        if left.payload != right.payload {
            let detail = match (Trace::decode(&left.payload), Trace::decode(&right.payload)) {
                (Ok(lt), Ok(rt)) => match diff_traces(&lt, &rt, DiffPolicy::Exact) {
                    Some(d) => format!(
                        "traces diverge at record {}: `{}` vs `{}`",
                        d.index, d.left, d.right
                    ),
                    None => "trace bytes differ outside the record stream".to_string(),
                },
                (l, r) => format!("trace decode failed: {l:?} / {r:?}"),
            };
            return Some(FleetDivergence { vm: left.vm, detail });
        }
    }
    None
}

/// Runs the same fleet at two worker counts and diffs the results — the
/// fleet conformance pair. `None` means the sharded run reproduced the
/// other bit-for-bit.
pub fn fleet_conformance_pair(
    fleet: &ScenarioFleet,
    vms: usize,
    workers_a: usize,
    workers_b: usize,
) -> Option<FleetDivergence> {
    let a = run_scenario_fleet(fleet, vms, workers_a);
    let b = run_scenario_fleet(fleet, vms, workers_b);
    diff_fleet_reports(&a, &b)
}

/// Name of the checked-in golden fleet fixture
/// (`crates/replay/golden/fleet_quad.htrz`).
pub const GOLDEN_FLEET_NAME: &str = "fleet_quad";

/// The golden fleet scenario: four sampled VMs under the baseline
/// variant, capped to 60 ms each so the fixture stays small. Recorded by
/// `record-golden` and asserted byte-for-byte in `tests/replay_golden.rs`.
pub fn golden_fleet() -> (ScenarioFleet, usize) {
    (ScenarioFleet::new(0x5EED_F1EE).capped(Duration::from_millis(60)), 4)
}

const FLEET_MAGIC: &[u8; 4] = b"HTFL";

/// Current `HTFL` version. Version 1 was an unversioned fixed-width
/// layout (`u32` count, `u64` length prefixes); version 2 is varint-framed.
pub const FLEET_VERSION: u64 = 2;

/// Bundles per-VM traces into one `HTFL` blob: the header, a varint
/// count, then each trace's [`Trace::encode`] bytes as a length-prefixed
/// blob. Wrap in [`compress`](crate::trace::compress) for an `.htrz`
/// fixture.
pub fn encode_fleet_archive(traces: &[Trace]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.header(FLEET_MAGIC, FLEET_VERSION);
    w.varint(traces.len() as u64);
    for trace in traces {
        w.bytes(&trace.encode());
    }
    w.into_bytes()
}

/// Decodes a `HTFL` archive back into its per-VM traces.
pub fn decode_fleet_archive(bytes: &[u8]) -> Result<Vec<Trace>, SnapError> {
    let mut r = SnapReader::new(bytes);
    r.header(FLEET_MAGIC, FLEET_VERSION)?;
    let count = r.count(usize::MAX, "fleet trace count")?;
    let traces = (0..count).map(|_| Trace::decode(r.bytes()?)).collect::<Result<_, _>>()?;
    r.finish()?;
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_fleet(seed: u64) -> ScenarioFleet {
        ScenarioFleet::new(seed).capped(Duration::from_millis(40))
    }

    #[test]
    fn fleet_traces_match_the_single_vm_baseline_bit_for_bit() {
        let fleet = quick_fleet(0xC0FFEE);
        let vms = 5;
        let report = run_scenario_fleet(&fleet, vms, 3);
        assert_eq!(report.per_vm.len(), vms);
        for got in &report.per_vm {
            let want = run_member_alone(&fleet, got.vm);
            assert_eq!(got.payload, want.payload, "vm {:?} trace", got.vm);
            assert_eq!(got.findings, want.findings, "vm {:?} findings", got.vm);
            assert!(!got.payload.is_empty(), "member must record a trace");
        }
    }

    #[test]
    fn conformance_pair_is_clean_across_worker_counts() {
        let fleet = quick_fleet(0xBEEF);
        assert_eq!(fleet_conformance_pair(&fleet, 6, 1, 4), None);
    }

    #[test]
    fn diff_reports_names_the_divergent_vm() {
        let fleet = quick_fleet(0xD1FF);
        let a = run_scenario_fleet(&fleet, 3, 2);
        let mut b = a.clone();
        b.per_vm[1].payload = run_member_alone(&quick_fleet(0xD1FE), VmId(1)).payload;
        let div = diff_fleet_reports(&a, &b).expect("tampered run must diverge");
        assert_eq!(div.vm, VmId(1));
    }

    #[test]
    fn fleet_archive_roundtrips() {
        let fleet = quick_fleet(0xA5);
        let report = run_scenario_fleet(&fleet, 3, 2);
        let traces = fleet_traces(&report).expect("payloads decode");
        let blob = encode_fleet_archive(&traces);
        let back = decode_fleet_archive(&blob).expect("archive decodes");
        assert_eq!(back.len(), traces.len());
        for (a, b) in traces.iter().zip(back.iter()) {
            assert_eq!(a.encode(), b.encode());
        }
    }
}
