//! Randomized guest scenarios and interception-configuration variants.
//!
//! The conformance fuzzer samples a [`Scenario`] — a seeded program mix,
//! optionally a locking-discipline fault from the `hypertap-faultinject`
//! catalogue and a rootkit insertion from `hypertap-attacks` — and runs it
//! under several [`ConfigVariant`]s. The scenario fully determines guest
//! behaviour; the variant only changes monitoring-plane knobs that must
//! not be observable in the logged stream (or only by projection).

use crate::diff::DiffPolicy;
use crate::recorder::TraceRecorder;
use crate::replay::Verdict;
use crate::trace::{Trace, TraceHeader};
use hypertap_attacks::rootkits::all_rootkits;
use hypertap_core::audit::CountingAuditor;
use hypertap_core::em::EventMultiplexer;
use hypertap_core::event::{EventClass, EventMask};
use hypertap_core::prelude::VmId;
use hypertap_core::telemetry::{TelemetryHub, TelemetryServer};
use hypertap_faultinject::spec::FaultKind;
use hypertap_guestos::fault::SingleFault;
use hypertap_guestos::kernel::KernelConfig;
use hypertap_guestos::klocks::SITE_COUNT;
use hypertap_guestos::layout;
use hypertap_guestos::program::{UserOp, UserProgram, UserView};
use hypertap_guestos::syscalls::Sysno;
use hypertap_hvsim::clock::Duration;
use hypertap_hvsim::machine::RunExit;
use hypertap_hvsim::snap::{SnapReader, SnapWriter};
use hypertap_monitors::goshd::{Goshd, GoshdConfig};
use hypertap_monitors::harness::{EngineSelection, TapVm};
use hypertap_monitors::hrkd::Hrkd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The guest program mix of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMix {
    /// A syscall-heavy writer loop.
    Writer,
    /// The Tower-of-Hanoi compute workload.
    Hanoi,
    /// Serial compilation.
    MakeJ1,
    /// Two-way parallel compilation.
    MakeJ2,
    /// Writer and Hanoi side by side.
    WriterPlusHanoi,
}

impl WorkloadMix {
    /// All mixes, in sampling order.
    pub const ALL: [WorkloadMix; 5] = [
        WorkloadMix::Writer,
        WorkloadMix::Hanoi,
        WorkloadMix::MakeJ1,
        WorkloadMix::MakeJ2,
        WorkloadMix::WriterPlusHanoi,
    ];

    /// The mix's stable label, used in scenario names and the fuzz
    /// corpus's on-disk scenario format.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadMix::Writer => "writer",
            WorkloadMix::Hanoi => "hanoi",
            WorkloadMix::MakeJ1 => "make-j1",
            WorkloadMix::MakeJ2 => "make-j2",
            WorkloadMix::WriterPlusHanoi => "writer+hanoi",
        }
    }

    /// The inverse of [`WorkloadMix::label`].
    pub fn from_label(label: &str) -> Option<WorkloadMix> {
        WorkloadMix::ALL.into_iter().find(|m| m.label() == label)
    }
}

/// One sampled guest scenario. Everything the guest does is a pure
/// function of this description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (`s<ordinal>/<mix>` for sampled scenarios).
    pub name: String,
    /// Seed controlling every sampled choice below.
    pub seed: u64,
    /// vCPU count.
    pub vcpus: usize,
    /// Kernel preemption configuration.
    pub preemptible: bool,
    /// Simulated run length.
    pub duration: Duration,
    /// The program mix.
    pub mix: WorkloadMix,
    /// A fault-injection spec: catalogue site + persistence, with the
    /// fault type derived per-site exactly as the campaign derives it.
    pub fault: Option<(u32, bool)>,
    /// Index into [`all_rootkits`] of a rootkit to insert mid-run.
    pub rootkit: Option<usize>,
}

impl Scenario {
    /// Samples scenario number `ordinal` from the fuzzer's base seed.
    pub fn sample(base_seed: u64, ordinal: u64) -> Scenario {
        let seed = base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(ordinal);
        let mut rng = StdRng::seed_from_u64(seed);
        let mix = WorkloadMix::ALL[rng.gen_range(0usize..WorkloadMix::ALL.len())];
        let vcpus = rng.gen_range(1usize..3);
        let preemptible = rng.gen_range(0u32..2) == 1;
        let duration = Duration::from_millis(rng.gen_range(150u64..400));
        let fault = if rng.gen_range(0u32..3) == 0 {
            Some((rng.gen_range(0u32..SITE_COUNT as u32), rng.gen_range(0u32..2) == 1))
        } else {
            None
        };
        let rootkit = if rng.gen_range(0u32..4) == 0 {
            Some(rng.gen_range(0usize..all_rootkits().len()))
        } else {
            None
        };
        Scenario {
            name: format!("s{ordinal}/{}", mix.label()),
            seed,
            vcpus,
            preemptible,
            duration,
            mix,
            fault,
            rootkit,
        }
    }
}

/// A monitoring-plane configuration under test.
#[derive(Debug, Clone)]
pub struct ConfigVariant {
    /// Display label, also written into the trace header.
    pub label: &'static str,
    /// Software TLB on or off (PR 1's byte-identical invariant).
    pub tlb: bool,
    /// Full engine set (fine) or the context-switch + syscall subset
    /// (coarse). Both program the same exit controls; they differ only in
    /// which classes they decode.
    pub fine: bool,
    /// Extra exception-bitmap vectors to force-enable. Chosen among
    /// vectors the simulated guest never raises, so the exit stream — and
    /// therefore the trace — must not change at all.
    pub extra_vectors: &'static [u8],
    /// Host-side metrics instrumentation on or off. Host bookkeeping only;
    /// the trace must be byte-identical either way.
    pub metrics: bool,
    /// Flight-recorder retention on or off. The ring is host bookkeeping:
    /// event ordinals (and so finding provenance) advance identically
    /// either way, and the trace must be byte-identical.
    pub flight: bool,
}

/// The baseline configuration every pair compares against.
pub const BASE: ConfigVariant = ConfigVariant {
    label: "tlb-on/fine",
    tlb: true,
    fine: true,
    extra_vectors: &[],
    metrics: false,
    flight: true,
};

/// Baseline with the software TLB off.
pub const NO_TLB: ConfigVariant = ConfigVariant {
    label: "tlb-off/fine",
    tlb: false,
    fine: true,
    extra_vectors: &[],
    metrics: false,
    flight: true,
};

/// Baseline with the coarse engine subset.
pub const COARSE: ConfigVariant = ConfigVariant {
    label: "tlb-on/coarse",
    tlb: true,
    fine: false,
    extra_vectors: &[],
    metrics: false,
    flight: true,
};

/// Baseline with never-firing exception vectors added to the exit
/// controls (0x21 / 0x7f / 0xf1: nothing in the simulated guest raises
/// them; 0x80 is the syscall gate and stays untouched).
pub const EXTRA_BITMAP: ConfigVariant = ConfigVariant {
    label: "tlb-on/extra-bitmap",
    tlb: true,
    fine: true,
    extra_vectors: &[0x21, 0x7f, 0xf1],
    metrics: false,
    flight: true,
};

/// Baseline with full metrics instrumentation (pipeline spans, dispatch
/// latency, per-auditor counters). All of it host-side wall-clock
/// bookkeeping: the simulated stream must be byte-identical to [`BASE`].
pub const METRICS_ON: ConfigVariant = ConfigVariant {
    label: "tlb-on/metrics",
    tlb: true,
    fine: true,
    extra_vectors: &[],
    metrics: true,
    flight: true,
};

/// Baseline with flight-recorder retention switched off. Ordinal
/// assignment still runs (provenance must not depend on the knob), so
/// both the trace and the verdict — provenance included — must match
/// [`BASE`] exactly.
pub const FLIGHT_OFF: ConfigVariant = ConfigVariant {
    label: "tlb-on/flight-off",
    tlb: true,
    fine: true,
    extra_vectors: &[],
    metrics: false,
    flight: false,
};

/// Baseline knobs, but driven through a snapshot/restore cycle: the run is
/// interrupted every [`SNAPSHOT_CYCLE_EVERY`] slices, serialized to a
/// `.htsp` blob, restored into a freshly built VM, and continued. The
/// machine state crosses the codec repeatedly, so the trace, verdict and
/// provenance must still match [`BASE`] exactly — the snapshot equivalence
/// contract as a conformance pair.
pub const SNAPSHOT_CYCLE: ConfigVariant = ConfigVariant {
    label: "tlb-on/snapshot-cycle",
    tlb: true,
    fine: true,
    extra_vectors: &[],
    metrics: false,
    flight: true,
};

/// How many 10 ms slices a [`SNAPSHOT_CYCLE`] run takes between snapshot
/// cycles.
pub const SNAPSHOT_CYCLE_EVERY: u64 = 3;

/// Baseline knobs, but driven with the whole live telemetry plane
/// attached: a [`TelemetryHub`] + HTTP server scraped mid-run, an NDJSON
/// findings subscriber draining concurrently, and the EM's finding-bus
/// tap. Telemetry is host-side observation only, so the trace, verdict
/// and provenance must match [`BASE`] exactly.
pub const TELEMETRY_ON: ConfigVariant = ConfigVariant {
    label: "tlb-on/telemetry",
    tlb: true,
    fine: true,
    extra_vectors: &[],
    metrics: false,
    flight: true,
};

/// The configuration pairs the fuzzer differences, with their policies.
pub fn conformance_pairs() -> Vec<(ConfigVariant, ConfigVariant, DiffPolicy)> {
    vec![
        (BASE, NO_TLB, DiffPolicy::Exact),
        (BASE, COARSE, DiffPolicy::Projected(shared_classes())),
        (BASE, EXTRA_BITMAP, DiffPolicy::Exact),
        (BASE, METRICS_ON, DiffPolicy::Exact),
        (BASE, FLIGHT_OFF, DiffPolicy::Exact),
        (BASE, SNAPSHOT_CYCLE, DiffPolicy::Exact),
        (BASE, TELEMETRY_ON, DiffPolicy::Exact),
    ]
}

/// The classes both fine and coarse configurations decode.
pub fn shared_classes() -> EventMask {
    EventMask::only(EventClass::ProcessSwitch)
        .with(EventClass::ThreadSwitch)
        .with(EventClass::Syscall)
}

fn coarse_selection() -> EngineSelection {
    let mut sel = EngineSelection::all();
    sel.tss_integrity = false;
    sel.io = false;
    sel.fine_grained = false;
    sel
}

/// Registers the replayable auditor set used by every conformance run:
/// GOSHD (paper threshold), event-driven HRKD, and a counting auditor.
/// Live runs and replays must call this identically for verdicts to be
/// comparable.
pub fn register_auditors(em: &mut EventMultiplexer, vcpus: usize) {
    em.register(Box::new(Goshd::new(vcpus, GoshdConfig::paper_default())));
    em.register(Box::new(Hrkd::new(layout::os_profile(), layout::KERNEL_TEXT)));
    em.register(Box::new(CountingAuditor::new()));
}

/// The open/write/close loop every scenario can schedule. Serializable so
/// scenario guests can be snapshotted mid-campaign; the op stream is
/// identical to the closure it replaced, keeping the golden fixtures valid.
#[derive(Debug, Default)]
struct WriterLoop {
    n: u32,
}

impl UserProgram for WriterLoop {
    fn next_op(&mut self, _view: &UserView<'_>) -> UserOp {
        self.n += 1;
        match self.n % 3 {
            1 => UserOp::sys(Sysno::Open, &[7]),
            2 => UserOp::sys(Sysno::Write, &[0, 4096]),
            _ => UserOp::sys(Sysno::Close, &[0]),
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = SnapWriter::new();
        w.varint(self.n as u64);
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = SnapReader::new(bytes);
        let n = r.varint().map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        self.n = u32::try_from(n).map_err(|_| "writer counter overflow".to_string())?;
        Ok(())
    }
}

/// The stateless malware body a staged rootkit hides: a pure compute spin.
#[derive(Debug, Default)]
struct ComputeSpin;

impl UserProgram for ComputeSpin {
    fn next_op(&mut self, _view: &UserView<'_>) -> UserOp {
        UserOp::Compute(100_000)
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err("compute spin carries no state".to_string())
        }
    }
}

/// The scenario init program: spawns each workload, then (optionally) the
/// malware and its hiding rootkit, then settles into a wait loop.
#[derive(Debug)]
struct ScenarioInit {
    workloads: Vec<u64>,
    rootkit: Option<(u64, u64)>,
    stage: u64,
    malware_pid: u64,
}

impl UserProgram for ScenarioInit {
    fn next_op(&mut self, v: &UserView<'_>) -> UserOp {
        self.stage += 1;
        let stage = self.stage as usize;
        if stage <= self.workloads.len() {
            return UserOp::sys(Sysno::Spawn, &[self.workloads[stage - 1], 1000]);
        }
        if let Some((module, malware)) = self.rootkit {
            match stage - self.workloads.len() {
                1 => return UserOp::sys(Sysno::Spawn, &[malware, 1000]),
                2 => {
                    self.malware_pid = v.last_ret;
                    return UserOp::sys(Sysno::Nanosleep, &[20_000_000]);
                }
                3 => return UserOp::sys(Sysno::InstallModule, &[module, self.malware_pid]),
                _ => {}
            }
        }
        UserOp::sys(Sysno::Waitpid, &[])
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // The workload/rootkit tables are recipe state; only the staging
        // progress and the pid learned from `Spawn` move.
        let mut w = SnapWriter::new();
        w.varint(self.stage);
        w.varint(self.malware_pid);
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = SnapReader::new(bytes);
        self.stage = r.varint().map_err(|e| e.to_string())?;
        self.malware_pid = r.varint().map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())
    }
}

/// Builds the scenario's guest inside a fresh monitored VM.
fn install_guest(vm: &mut TapVm, scenario: &Scenario) {
    let writer = vm.kernel.register_program("writer", Box::new(|| Box::new(WriterLoop::default())));
    let hanoi = vm.kernel.register_program(
        "hanoi",
        Box::new(|| Box::new(hypertap_workloads::hanoi::Hanoi::paper_default())),
    );
    let workloads: Vec<u64> = match scenario.mix {
        WorkloadMix::Writer => vec![writer.0],
        WorkloadMix::Hanoi => vec![hanoi.0],
        WorkloadMix::MakeJ1 => vec![hypertap_workloads::make::install(&mut vm.kernel, 1, 12).0],
        WorkloadMix::MakeJ2 => vec![hypertap_workloads::make::install(&mut vm.kernel, 2, 12).0],
        WorkloadMix::WriterPlusHanoi => vec![writer.0, hanoi.0],
    };

    let rootkit = scenario.rootkit.map(|idx| {
        let spec = all_rootkits().swap_remove(idx);
        let module = vm.kernel.register_module(spec);
        let malware = vm.kernel.register_program("malware", Box::new(|| Box::new(ComputeSpin)));
        (module, malware.0)
    });

    let init = vm.kernel.register_program(
        "init",
        Box::new(move || {
            Box::new(ScenarioInit {
                workloads: workloads.clone(),
                rootkit,
                stage: 0,
                malware_pid: 0,
            })
        }),
    );
    vm.kernel.set_init_program(init);

    if let Some((site, persistent)) = scenario.fault {
        let fault = FaultKind::for_site(site);
        vm.kernel.set_fault_hook(Box::new(SingleFault::new(site, fault.into(), persistent)));
    }
}

/// Builds the scenario's monitored VM under a configuration variant,
/// tagged with `id`. Guest programs, auditors and fault hooks are all
/// installed; the caller only decides how to drive it (a single
/// [`run_scenario`] pass, or slice-by-slice as a fleet member).
///
/// Single-VM runs pass [`VmId`]`(0)`, which is the builder default —
/// the recorded stream is byte-identical to what this crate produced
/// before fleets existed, so the golden fixtures stay valid.
pub fn build_scenario_vm(scenario: &Scenario, variant: &ConfigVariant, id: VmId) -> TapVm {
    let engines = if variant.fine { EngineSelection::all() } else { coarse_selection() };
    let mut vm = TapVm::builder()
        .vm_id(id)
        .vcpus(scenario.vcpus)
        .memory(1 << 28)
        .kernel(KernelConfig::new(scenario.vcpus).with_preemption(scenario.preemptible))
        .engines(engines)
        .tlb(variant.tlb)
        .metrics(variant.metrics)
        .flight(variant.flight)
        .build();
    for &v in variant.extra_vectors {
        vm.machine.vm_mut().controls_mut().set_exception_exiting(v, true);
    }
    register_auditors(&mut vm.machine.hypervisor_mut().em, scenario.vcpus);
    install_guest(&mut vm, scenario);
    vm
}

/// Re-runs a scenario under a variant and serializes its flight recorder
/// into a `.htfr` dump — the post-mortem payload the conformance fuzzer
/// writes when a pair diverges. Guests are deterministic, so the re-run
/// reproduces the diverging run exactly; retention is forced on (it is
/// host-side only, which the flight conformance pair proves) so the dump
/// is populated even for `FLIGHT_OFF`.
pub fn scenario_flight_dump(scenario: &Scenario, variant: &ConfigVariant, reason: &str) -> Vec<u8> {
    let mut forced = variant.clone();
    forced.flight = true;
    let mut vm = build_scenario_vm(scenario, &forced, VmId(0));
    vm.run_for(scenario.duration);
    vm.flight_dump(reason)
}

/// Runs a scenario under a configuration variant, recording the forwarded
/// stream at the EM tap point. Returns the trace and the live verdict.
pub fn run_scenario(scenario: &Scenario, variant: &ConfigVariant) -> (Trace, Verdict) {
    let mut vm = build_scenario_vm(scenario, variant, VmId(0));

    let recorder = TraceRecorder::new(TraceHeader::new(
        scenario.vcpus as u64,
        scenario.seed,
        scenario.name.clone(),
        variant.label,
    ));
    vm.machine.hypervisor_mut().em.attach_tap(recorder.tap());
    vm.run_for(scenario.duration);
    vm.machine.hypervisor_mut().em.detach_tap();

    let trace = recorder.finish();
    let verdict = Verdict::collect(&mut vm.machine.hypervisor_mut().em, &trace);
    (trace, verdict)
}

/// Runs a scenario under `variant`, dispatching [`SNAPSHOT_CYCLE`] runs to
/// the snapshot-cycling driver. The conformance fuzzer uses this for the
/// right side of every pair so variant labels can select a *driving mode*,
/// not just a knob setting.
pub fn run_scenario_variant(scenario: &Scenario, variant: &ConfigVariant) -> (Trace, Verdict) {
    if variant.label == SNAPSHOT_CYCLE.label {
        run_scenario_snapshot_cycle(scenario, variant, SNAPSHOT_CYCLE_EVERY)
    } else if variant.label == TELEMETRY_ON.label {
        run_scenario_telemetry(scenario, variant)
    } else {
        run_scenario(scenario, variant)
    }
}

/// Runs a scenario with the whole live telemetry plane attached: a
/// [`TelemetryHub`] with its HTTP server started and `/metrics` scraped
/// mid-run, a findings subscriber draining concurrently, and the EM's
/// [`FindingBus`] tap publishing every drained finding. All of it is
/// host-side observation, so the recorded trace and the verdict must be
/// bit-identical to an untapped run — the conformance pair that proves
/// the telemetry plane cannot perturb the simulation.
///
/// [`FindingBus`]: hypertap_core::telemetry::FindingBus
pub fn run_scenario_telemetry(scenario: &Scenario, variant: &ConfigVariant) -> (Trace, Verdict) {
    let hub = std::sync::Arc::new(TelemetryHub::new());
    let mut server = TelemetryServer::start(std::sync::Arc::clone(&hub))
        .expect("telemetry server binds an ephemeral loopback port");
    let subscriber = hub.subscribe(64);

    let mut vm = build_scenario_vm(scenario, variant, VmId(0));
    vm.machine.hypervisor_mut().em.set_finding_bus(hub.bus(), VmId(0));

    let recorder = TraceRecorder::new(TraceHeader::new(
        scenario.vcpus as u64,
        scenario.seed,
        scenario.name.clone(),
        variant.label,
    ));
    vm.machine.hypervisor_mut().em.attach_tap(recorder.tap());
    // Split the run so a scrape + drain genuinely happen *mid-run*, with
    // the guest stopped at an arbitrary point — the server is live the
    // whole time for external scrapers. Absolute targets, so the final
    // deadline is identical to the baseline's single run_for (a relative
    // second leg would compound the first leg's overshoot).
    let deadline = vm.now() + scenario.duration;
    let mid = vm.now() + Duration::from_nanos(scenario.duration.as_nanos() / 2);
    vm.run_until(mid);
    let _ = hub.scrape().to_prometheus();
    let _ = subscriber.drain();
    vm.run_until(deadline);
    vm.machine.hypervisor_mut().em.detach_tap();

    let trace = recorder.finish();
    let verdict = Verdict::collect(&mut vm.machine.hypervisor_mut().em, &trace);
    vm.machine.hypervisor_mut().em.clear_finding_bus();
    let _ = subscriber.drain();
    server.stop();
    (trace, verdict)
}

/// Runs a scenario slice-by-slice, and every `every` slices serializes the
/// whole VM to a `.htsp` blob, rebuilds a fresh VM from the recipe,
/// restores the blob into it, and continues on the restored copy. The
/// recorder's shared buffer survives across cycles (each fresh VM gets a
/// new tap into the same buffer), so the result is one continuous trace.
///
/// # Panics
///
/// Panics if the VM fails to snapshot or restore — in a conformance run
/// that *is* the divergence being hunted.
pub fn run_scenario_snapshot_cycle(
    scenario: &Scenario,
    variant: &ConfigVariant,
    every: u64,
) -> (Trace, Verdict) {
    assert!(every > 0, "snapshot cycle period must be positive");
    let slice = Duration::from_millis(10);
    let mut vm = build_scenario_vm(scenario, variant, VmId(0));
    let recorder = TraceRecorder::new(TraceHeader::new(
        scenario.vcpus as u64,
        scenario.seed,
        scenario.name.clone(),
        variant.label,
    ));
    vm.machine.hypervisor_mut().em.attach_tap(recorder.tap());
    let deadline = vm.now() + scenario.duration;
    let mut slices = 0u64;
    while vm.now() < deadline {
        let before = vm.now();
        let target = (before + slice).min(deadline);
        match vm.run_until(target) {
            RunExit::Shutdown | RunExit::Paused => break,
            RunExit::AllIdle if vm.now() == before => break,
            _ => {}
        }
        slices += 1;
        if vm.now() >= deadline {
            break;
        }
        if slices.is_multiple_of(every) {
            let bytes = vm.snapshot().unwrap_or_else(|e| {
                panic!("snapshot cycle: {} failed to snapshot: {e}", scenario.name)
            });
            let mut fresh = build_scenario_vm(scenario, variant, VmId(0));
            fresh.restore(&bytes).unwrap_or_else(|e| {
                panic!("snapshot cycle: {} failed to restore: {e}", scenario.name)
            });
            fresh.machine.hypervisor_mut().em.attach_tap(recorder.tap());
            vm = fresh;
        }
    }
    vm.machine.hypervisor_mut().em.detach_tap();
    let trace = recorder.finish();
    let verdict = Verdict::collect(&mut vm.machine.hypervisor_mut().em, &trace);
    (trace, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_traces;
    use crate::replay::replay_trace;

    #[test]
    fn sampling_is_deterministic_and_varied() {
        let a = Scenario::sample(42, 3);
        let b = Scenario::sample(42, 3);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.mix, b.mix);
        assert_eq!(a.duration, b.duration);
        let mixes: std::collections::HashSet<&'static str> =
            (0..32).map(|i| Scenario::sample(42, i).mix.label()).collect();
        assert!(mixes.len() >= 3, "sampler should cover several mixes, got {mixes:?}");
    }

    #[test]
    fn same_scenario_same_config_is_byte_identical() {
        let s = Scenario::sample(7, 0);
        let (t1, v1) = run_scenario(&s, &BASE);
        let (t2, v2) = run_scenario(&s, &BASE);
        assert_eq!(t1.encode(), t2.encode(), "identical runs must produce identical traces");
        assert_eq!(v1, v2);
        assert!(t1.event_count() > 0, "the guest must actually produce events");
    }

    #[test]
    fn tlb_pair_is_conformant_and_replay_matches_live() {
        let s = Scenario::sample(7, 1);
        let (base, live) = run_scenario(&s, &BASE);
        let (other, _) = run_scenario(&s, &NO_TLB);
        assert_eq!(diff_traces(&base, &other, DiffPolicy::Exact), None);
        let replayed = replay_trace(&base, |em| register_auditors(em, s.vcpus));
        assert_eq!(replayed, live, "replay must reproduce the live verdict bit-for-bit");
    }

    #[test]
    fn snapshot_cycle_pair_is_conformant_and_verdicts_match() {
        // The snapshot equivalence contract as a conformance pair: a run
        // that round-trips the whole machine through the `.htsp` codec
        // every few slices must record a byte-identical trace and reach
        // the same verdict — provenance refs included — under Exact.
        for ordinal in [0u64, 1, 2] {
            let s = Scenario::sample(7, ordinal);
            let (base, live) = run_scenario(&s, &BASE);
            let (cycled, live_cycled) = run_scenario_variant(&s, &SNAPSHOT_CYCLE);
            assert_eq!(
                diff_traces(&base, &cycled, DiffPolicy::Exact),
                None,
                "{}: snapshot cycling must not change the trace",
                s.name
            );
            let mut relabeled = live_cycled.clone();
            relabeled.config = live.config.clone();
            assert_eq!(relabeled, live, "{}", s.name);
            assert_eq!(live_cycled.findings_provenance, live.findings_provenance);
        }
    }

    #[test]
    fn coarse_pair_is_conformant_under_projection() {
        let s = Scenario::sample(7, 2);
        let (base, _) = run_scenario(&s, &BASE);
        let (coarse, _) = run_scenario(&s, &COARSE);
        assert_eq!(diff_traces(&base, &coarse, DiffPolicy::Projected(shared_classes())), None);
    }

    #[test]
    fn flight_pair_is_conformant_and_provenance_is_identical() {
        // Switching off flight-recorder retention must change nothing the
        // guest or the auditors can observe: byte-identical trace, and the
        // same verdict — including every finding's provenance refs, since
        // ordinal assignment runs whether or not records are retained.
        let s = Scenario::sample(7, 4);
        let (base, live) = run_scenario(&s, &BASE);
        let (dark, live_dark) = run_scenario(&s, &FLIGHT_OFF);
        assert_eq!(diff_traces(&base, &dark, DiffPolicy::Exact), None);
        let mut relabeled = live_dark.clone();
        relabeled.config = live.config.clone();
        assert_eq!(relabeled, live);
        assert_eq!(live_dark.findings_provenance, live.findings_provenance);
    }

    #[test]
    fn telemetry_pair_is_conformant_and_verdicts_match() {
        // The telemetry plane's determinism proof: running with the HTTP
        // server live, a subscriber draining and the EM finding-bus tap
        // attached must record a byte-identical trace and reach the same
        // verdict — provenance refs included — as the untapped baseline.
        let s = Scenario::sample(7, 6);
        let (base, live) = run_scenario(&s, &BASE);
        let (tapped, live_tapped) = run_scenario_variant(&s, &TELEMETRY_ON);
        assert_eq!(diff_traces(&base, &tapped, DiffPolicy::Exact), None);
        let mut relabeled = live_tapped.clone();
        relabeled.config = live.config.clone();
        assert_eq!(relabeled, live);
        assert_eq!(live_tapped.findings_provenance, live.findings_provenance);
        assert!(base.event_count() > 0);
    }

    #[test]
    fn metrics_pair_is_conformant_and_verdicts_match() {
        // The tentpole's determinism proof, in miniature: a fully
        // instrumented run (spans + dispatch latency + per-auditor
        // counters) must record a byte-identical trace and reach the same
        // verdict as the uninstrumented baseline, under the Exact policy.
        let s = Scenario::sample(7, 3);
        let (base, live) = run_scenario(&s, &BASE);
        let (instrumented, live_metrics) = run_scenario(&s, &METRICS_ON);
        assert_eq!(diff_traces(&base, &instrumented, DiffPolicy::Exact), None);
        // Verdicts agree on everything but the config label.
        let mut relabeled = live_metrics.clone();
        relabeled.config = live.config.clone();
        assert_eq!(relabeled, live);
        assert!(base.event_count() > 0);
    }
}
