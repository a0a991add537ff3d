//! Fleet monitoring: many independent monitored VMs run by a pool of workers.
//!
//! The paper pitches HyperTap as a *cloud-side* framework — one
//! hypervisor-level logging layer covering every guest on a host — yet a
//! single [`crate::kvm::Kvm`] monitors a single VM. This module adds the
//! fleet layer: a [`FleetHost`] owns N independent simulated VMs (each with
//! its own `VmState`, `Kvm`, `EventMultiplexer` and monitor set, keyed by
//! [`VmId`]), hands them out to a configurable pool of worker threads, and
//! steps each in deterministic per-VM order. A [`FleetAggregator`] merges
//! the per-VM [`DeliveryStats`], findings (tagged by [`VmId`]) and
//! [`MetricsRegistry`] snapshots into one host-wide view.
//!
//! # Determinism contract
//!
//! Fleet VMs are **fully independent**: no simulated state is shared
//! between them, and the host hands every VM the *same* slice schedule —
//! build, then repeat [`FleetVm::step_slice`] until [`SliceOutcome::Done`],
//! then [`FleetVm::finish`] — regardless of how many workers the fleet runs
//! on. Worker count only changes which host thread runs a VM, and when,
//! never what a slice does, so a fleet run with any worker count produces
//! bit-identical per-VM findings, metrics-free observables and trace
//! recordings to running each VM alone ([`run_vm_alone`]), as the replay
//! crate's fleet conformance suite and determinism proptest check.
//!
//! # Work queue
//!
//! Workers pull VM ids from one shared atomic counter, in ascending order.
//! A worker builds the VM it claimed, steps it until [`SliceOutcome::Done`],
//! finishes and drops it, then claims the next id. No worker idles while an
//! unclaimed VM is left, at most one VM per worker is alive, and a VM's
//! slices run back to back on one thread. Which thread varies from run to
//! run; no per-VM result depends on it.
//!
//! [`FleetHost::stop`], `Drop` and a worker failure set one flag, checked
//! before every claim and every slice. So none of them builds an unclaimed
//! VM. A stopped run reports every claimed VM (ids `0..k`) and only those,
//! each finished exactly once; a failed run finishes its claimed VMs the
//! same way, except the one whose slice panicked, which gets a flight dump
//! instead. [`FleetHost::join`] joins every worker before it raises the
//! first failure.

use crate::audit::Finding;
use crate::em::DeliveryStats;
use crate::event::VmId;
use crate::flight::panic_message;
use crate::metrics::MetricsRegistry;
use crate::telemetry::{TelemetryHub, VmProbe};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What one scheduling slice did to a fleet VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceOutcome {
    /// The VM consumed the slice and wants more.
    Running,
    /// The VM is finished (campaign deadline reached, guest shut down, or
    /// nothing can ever run again). The host will call [`FleetVm::finish`]
    /// and never step it again.
    Done,
}

/// One monitored VM as the fleet host drives it.
///
/// Implementations are built *on* a worker thread by
/// [`FleetWorkload::build_vm`] and never cross threads afterwards, so the
/// trait deliberately has no `Send` bound — a `TapVm` (whose guest kernel
/// holds non-`Send` program factories) qualifies.
pub trait FleetVm {
    /// Advances the VM by one scheduling slice of simulated time.
    fn step_slice(&mut self) -> SliceOutcome;

    /// Drains the VM into its report. Called exactly once per VM — after
    /// [`SliceOutcome::Done`], or early when the fleet is stopped.
    fn finish(&mut self) -> VmReport;

    /// Serializes the VM's flight recorder (`.htfr` bytes) for a failure
    /// dump, or `None` when the VM has no recorder. Called best-effort
    /// after [`FleetVm::step_slice`] panics, before the failure is
    /// rethrown on the host.
    fn flight_dump(&mut self, _reason: &str) -> Option<Vec<u8>> {
        None
    }

    /// A cheap read-only probe of the VM's monitoring plane — simulated
    /// time, event intake, audit backpressure — for the telemetry hub's
    /// `/vms` endpoint. Called after every slice when a hub is attached;
    /// `None` (the default) reports nothing. Must not mutate simulated
    /// state: probing is host-side observation only.
    fn telemetry_probe(&mut self) -> Option<VmProbe> {
        None
    }
}

/// A recipe for the fleet's VMs: called once per [`VmId`], *on the worker
/// thread that owns the VM*.
///
/// # Determinism
///
/// `build_vm` must be a pure function of the `VmId` (plus the workload's
/// own immutable configuration). Anything else — host clocks, shared
/// mutable state, ambient randomness — would break the fleet determinism
/// contract, because worker count changes *when* and *where* each VM is
/// built.
pub trait FleetWorkload: Send + Sync {
    /// Builds the VM with the given id.
    fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm>;
}

/// Everything one fleet VM produced, drained when the VM finishes.
#[derive(Debug, Clone)]
pub struct VmReport {
    /// Which VM this is.
    pub vm: VmId,
    /// Every finding its monitors raised, in delivery order.
    pub findings: Vec<Finding>,
    /// Its Event Multiplexer's delivery counters.
    pub stats: DeliveryStats,
    /// Its full metrics snapshot (simulator + EF + EM layers).
    pub metrics: MetricsRegistry,
    /// Whether the guest halted (shutdown/pause/wedge) before its campaign
    /// deadline.
    pub halted: bool,
    /// Opaque extra payload — e.g. the replay crate stores the VM's
    /// encoded HTRC trace here. Empty when unused.
    pub payload: Vec<u8>,
}

/// Fleet shape: how many VMs over how many workers.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of VMs, ids `0..vms`.
    pub vms: usize,
    /// Requested worker threads (clamped to `1..=vms`; a zero-VM fleet
    /// spawns no workers at all).
    pub workers: usize,
}

impl FleetConfig {
    /// A fleet of `vms` VMs over `workers` threads.
    pub fn new(vms: usize, workers: usize) -> Self {
        FleetConfig { vms, workers }
    }

    /// The worker count actually spawned.
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1).min(self.vms)
    }
}

/// The collected result of a fleet run: per-VM reports in ascending
/// [`VmId`] order.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// One report per VM, sorted by id.
    pub per_vm: Vec<VmReport>,
}

impl FleetReport {
    /// Merges every per-VM report into one aggregate view.
    pub fn aggregate(&self) -> FleetAggregator {
        let mut agg = FleetAggregator::new();
        for r in &self.per_vm {
            agg.absorb(r);
        }
        agg
    }
}

/// A running fleet: worker threads claiming and running its VMs.
///
/// Always joins its workers — via [`FleetHost::join`], [`FleetHost::stop`]
/// or `Drop` — so a fleet can never leak threads.
pub struct FleetHost {
    handles: Vec<JoinHandle<Result<Vec<VmReport>, WorkerFailure>>>,
    stop: Arc<AtomicBool>,
    cfg: FleetConfig,
}

/// Why a worker stopped early: one VM's slice panicked. The worker grabs
/// the VM's flight-recorder dump before unwinding so the host can
/// reference it in the rethrown error.
struct WorkerFailure {
    vm: VmId,
    message: String,
    dump: Option<Vec<u8>>,
}

impl FleetHost {
    /// Launches the fleet: spawns the worker pool and starts stepping.
    pub fn launch(workload: Arc<dyn FleetWorkload>, cfg: FleetConfig) -> FleetHost {
        FleetHost::spawn(workload, cfg, None)
    }

    /// Launches the fleet with a live [`TelemetryHub`] attached: workers
    /// report lifecycle (build/run/done), per-slice progress probes and
    /// finished [`VmReport`]s to the hub, whose
    /// [`FindingBus`](crate::telemetry::FindingBus) streams findings to
    /// subscribers as they land. Telemetry is host-side
    /// observation only — the per-VM schedule, traces and findings are
    /// bit-identical to an untapped [`FleetHost::launch`].
    pub fn launch_with_telemetry(
        workload: Arc<dyn FleetWorkload>,
        cfg: FleetConfig,
        hub: Arc<TelemetryHub>,
    ) -> FleetHost {
        FleetHost::spawn(workload, cfg, Some(hub))
    }

    fn spawn(
        workload: Arc<dyn FleetWorkload>,
        cfg: FleetConfig,
        hub: Option<Arc<TelemetryHub>>,
    ) -> FleetHost {
        let stop = Arc::new(AtomicBool::new(false));
        let next = Arc::new(AtomicUsize::new(0));
        let handles = (0..cfg.effective_workers())
            .map(|w| {
                let (workload, stop, next, hub) =
                    (Arc::clone(&workload), Arc::clone(&stop), Arc::clone(&next), hub.clone());
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{w}"))
                    .spawn(move || {
                        worker_loop(w, cfg.vms, &next, &*workload, &stop, hub.as_deref())
                    })
                    .expect("spawn fleet worker")
            })
            .collect();
        FleetHost { handles, stop, cfg }
    }

    /// The fleet's shape.
    pub fn config(&self) -> FleetConfig {
        self.cfg
    }

    /// Number of worker threads actually spawned.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Waits for every VM to finish and returns the per-VM reports in
    /// ascending [`VmId`] order.
    ///
    /// A failed worker stops the fleet: the other workers finish the VMs
    /// they hold and are joined, and only then is the first failure (in
    /// worker order) raised — a caught slice panic with its flight-dump path, or a worker
    /// panic re-raised as is.
    pub fn join(mut self) -> FleetReport {
        let mut per_vm = Vec::with_capacity(self.cfg.vms);
        // `Ok` holds a caught slice panic, `Err` a panic that escaped a worker.
        let mut failure: Option<std::thread::Result<WorkerFailure>> = None;
        for handle in std::mem::take(&mut self.handles) {
            let outcome = match handle.join() {
                Ok(Ok(reports)) => {
                    per_vm.extend(reports);
                    continue;
                }
                Ok(Err(f)) => Ok(f),
                Err(panic) => Err(panic),
            };
            self.stop.store(true, Ordering::SeqCst);
            failure.get_or_insert(outcome);
        }
        match failure {
            None => {}
            Some(Ok(failure)) => {
                let mut msg =
                    format!("fleet worker panicked stepping {}: {}", failure.vm, failure.message);
                if let Some(bytes) = failure.dump {
                    let path = std::env::temp_dir().join(format!(
                        "hypertap-{}-worker-panic-{}.htfr",
                        failure.vm,
                        std::process::id()
                    ));
                    if std::fs::write(&path, bytes).is_ok() {
                        msg.push_str(&format!(" (flight dump: {})", path.display()));
                    }
                }
                panic!("{msg}");
            }
            Some(Err(panic)) => std::panic::resume_unwind(panic),
        }
        per_vm.sort_by_key(|r| r.vm.0);
        FleetReport { per_vm }
    }

    /// Requests shutdown and joins every worker. Every claimed VM is
    /// finished, early if need be, and reported; unclaimed VMs are never
    /// built. No worker thread outlives the call.
    pub fn stop(self) -> FleetReport {
        self.stop.store(true, Ordering::SeqCst);
        self.join()
    }
}

impl Drop for FleetHost {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in std::mem::take(&mut self.handles) {
            let _ = handle.join();
        }
    }
}

/// Sets the stop flag if a worker unwinds (a panic in `build_vm` or
/// `finish`), so the other workers claim no more VMs.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

fn worker_loop(
    worker: usize,
    vms: usize,
    next: &AtomicUsize,
    workload: &dyn FleetWorkload,
    stop: &AtomicBool,
    hub: Option<&TelemetryHub>,
) -> Result<Vec<VmReport>, WorkerFailure> {
    let _guard = StopOnUnwind(stop);
    if let Some(h) = hub {
        h.worker_started(worker);
    }
    let mut reports = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i >= vms {
            break;
        }
        let id = VmId(i as u32);
        if let Some(h) = hub {
            h.vm_started(id, worker);
        }
        let mut vm = workload.build_vm(id);
        while !stop.load(Ordering::SeqCst) {
            let outcome = match catch_unwind(AssertUnwindSafe(|| vm.step_slice())) {
                Ok(outcome) => outcome,
                Err(payload) => {
                    // The slice panicked: snapshot the VM's black box
                    // (best-effort — the VM may be mid-mutation) and hand
                    // the payload + dump to the host instead of unwinding
                    // the whole worker anonymously.
                    let message = panic_message(payload);
                    let reason = format!("fleet-worker-panic: {id}: {message}");
                    let dump =
                        catch_unwind(AssertUnwindSafe(|| vm.flight_dump(&reason))).ok().flatten();
                    stop.store(true, Ordering::SeqCst);
                    return Err(WorkerFailure { vm: id, message, dump });
                }
            };
            if let Some(h) = hub {
                h.vm_progress(id, worker, vm.telemetry_probe());
            }
            if outcome == SliceOutcome::Done {
                break;
            }
        }
        // Done or stopped: finished once here, and dropped before the next
        // claim, so a worker holds one VM at a time.
        let report = vm.finish();
        if let Some(h) = hub {
            h.vm_finished(&report, worker);
        }
        reports.push(report);
    }
    if let Some(h) = hub {
        h.worker_done(worker);
    }
    Ok(reports)
}

/// Runs a whole fleet to completion: launch + join.
pub fn run_fleet(workload: Arc<dyn FleetWorkload>, cfg: FleetConfig) -> FleetReport {
    FleetHost::launch(workload, cfg).join()
}

/// Runs a whole fleet to completion with a live [`TelemetryHub`]
/// attached: launch + join.
pub fn run_fleet_telemetry(
    workload: Arc<dyn FleetWorkload>,
    cfg: FleetConfig,
    hub: Arc<TelemetryHub>,
) -> FleetReport {
    FleetHost::launch_with_telemetry(workload, cfg, hub).join()
}

/// Runs one VM of the workload alone on the calling thread — the
/// sequential baseline the determinism contract compares fleet runs
/// against. Uses the exact same build/step/finish cycle as a worker.
pub fn run_vm_alone(workload: &dyn FleetWorkload, vm: VmId) -> VmReport {
    let mut boxed = workload.build_vm(vm);
    while boxed.step_slice() == SliceOutcome::Running {}
    boxed.finish()
}

/// Merges per-VM reports into one host-wide view: [`DeliveryStats`] sum
/// field-wise, findings accumulate tagged by [`VmId`] (in ascending-id
/// order when fed from a [`FleetReport`]), and metrics snapshots merge via
/// [`MetricsRegistry::merge`] (counters and histogram buckets add; gauges
/// sum, so ratio-style gauges should be recomputed from merged counters).
#[derive(Debug, Clone, Default)]
pub struct FleetAggregator {
    vms: u64,
    halted: u64,
    stats: DeliveryStats,
    findings: Vec<(VmId, Finding)>,
    metrics: MetricsRegistry,
}

impl FleetAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        FleetAggregator::default()
    }

    /// Folds one VM's report in.
    pub fn absorb(&mut self, report: &VmReport) {
        self.vms += 1;
        if report.halted {
            self.halted += 1;
        }
        self.stats.merge(report.stats);
        self.findings.extend(report.findings.iter().map(|f| (report.vm, f.clone())));
        self.metrics.merge(&report.metrics);
    }

    /// Number of VM reports absorbed.
    pub fn vm_count(&self) -> u64 {
        self.vms
    }

    /// How many of them halted before their deadline.
    pub fn halted_count(&self) -> u64 {
        self.halted
    }

    /// The summed delivery counters.
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }

    /// Every finding, tagged by the VM that raised it.
    pub fn findings(&self) -> &[(VmId, Finding)] {
        &self.findings
    }

    /// The merged metrics snapshot.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Severity;
    use hypertap_hvsim::clock::SimTime;
    use std::sync::atomic::AtomicU64;

    /// A deterministic stub VM: runs `slices` slices, then reports
    /// id-derived findings, stats and metrics.
    struct StubVm {
        id: VmId,
        remaining: u64,
        taken: u64,
        halt_after: Option<u64>,
        halted: bool,
    }

    impl FleetVm for StubVm {
        fn step_slice(&mut self) -> SliceOutcome {
            self.taken += 1;
            if let Some(h) = self.halt_after {
                if self.taken >= h {
                    self.halted = true;
                    return SliceOutcome::Done;
                }
            }
            if self.taken >= self.remaining {
                SliceOutcome::Done
            } else {
                SliceOutcome::Running
            }
        }

        fn finish(&mut self) -> VmReport {
            let mut metrics = MetricsRegistry::new();
            metrics.counter("stub_slices_total", "slices taken", self.taken);
            VmReport {
                vm: self.id,
                findings: vec![Finding {
                    auditor: "stub".to_owned(),
                    time: SimTime::from_nanos(self.id.0 as u64 * 10 + self.taken),
                    severity: Severity::Info,
                    message: format!("vm {} took {} slices", self.id.0, self.taken),
                    provenance: Vec::new(),
                }],
                stats: DeliveryStats { events_in: self.taken * 3, ..Default::default() },
                metrics,
                halted: self.halted,
                payload: self.id.0.to_le_bytes().to_vec(),
            }
        }
    }

    struct StubFleet {
        /// VM i runs `2 + i % 5` slices; VM ids divisible by 7 halt early.
        halters: bool,
    }

    impl FleetWorkload for StubFleet {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            let halt_after =
                if self.halters && vm.0.is_multiple_of(7) && vm.0 > 0 { Some(1) } else { None };
            Box::new(StubVm {
                id: vm,
                remaining: 2 + (vm.0 as u64) % 5,
                taken: 0,
                halt_after,
                halted: false,
            })
        }
    }

    #[test]
    fn zero_vms_is_an_empty_fleet() {
        let host =
            FleetHost::launch(Arc::new(StubFleet { halters: false }), FleetConfig::new(0, 8));
        assert_eq!(host.worker_count(), 0);
        let report = host.join();
        assert!(report.per_vm.is_empty());
        assert_eq!(report.aggregate().vm_count(), 0);
    }

    #[test]
    fn one_vm_on_eight_workers() {
        let report = run_fleet(Arc::new(StubFleet { halters: false }), FleetConfig::new(1, 8));
        assert_eq!(report.per_vm.len(), 1);
        assert_eq!(report.per_vm[0].vm, VmId(0));
        assert_eq!(report.per_vm[0].stats.events_in, 6, "VM 0 runs 2 slices of 3 events");
    }

    #[test]
    fn any_worker_count_matches_running_each_vm_alone() {
        let workload = Arc::new(StubFleet { halters: true });
        let vms = 13;
        let baseline: Vec<VmReport> =
            (0..vms).map(|i| run_vm_alone(&*workload, VmId(i as u32))).collect();
        for workers in [1usize, 2, 4, 8] {
            let report = run_fleet(
                Arc::clone(&workload) as Arc<dyn FleetWorkload>,
                FleetConfig::new(vms, workers),
            );
            assert_eq!(report.per_vm.len(), vms, "workers={workers}");
            for (got, want) in report.per_vm.iter().zip(baseline.iter()) {
                assert_eq!(got.vm, want.vm);
                assert_eq!(got.findings, want.findings, "workers={workers}");
                assert_eq!(got.stats, want.stats, "workers={workers}");
                assert_eq!(got.metrics, want.metrics, "workers={workers}");
                assert_eq!(got.payload, want.payload, "workers={workers}");
            }
        }
    }

    #[test]
    fn halting_vm_finishes_early_and_is_counted() {
        let report = run_fleet(Arc::new(StubFleet { halters: true }), FleetConfig::new(8, 4));
        assert_eq!(report.per_vm.len(), 8);
        let halted = &report.per_vm[7];
        assert!(halted.halted, "vm 7 halts after one slice");
        assert_eq!(halted.stats.events_in, 3);
        let agg = report.aggregate();
        assert_eq!(agg.halted_count(), 1);
        assert_eq!(agg.vm_count(), 8);
    }

    #[test]
    fn aggregator_merges_stats_findings_and_metrics() {
        let report = run_fleet(Arc::new(StubFleet { halters: false }), FleetConfig::new(5, 2));
        let agg = report.aggregate();
        // Slices: 2,3,4,5,6 → 20 slices → 60 events.
        assert_eq!(agg.stats().events_in, 60);
        assert_eq!(agg.findings().len(), 5);
        assert!(agg.findings().iter().zip(report.per_vm.iter()).all(|((id, _), r)| *id == r.vm));
        let merged = agg.metrics().find("stub_slices_total", &[]).unwrap();
        assert_eq!(merged.as_counter(), Some(20));
    }

    /// A VM that panics on its third slice and carries a tiny flight
    /// recorder for the failure dump.
    struct Crasher {
        id: VmId,
        taken: u64,
        flight: crate::flight::FlightRecorder,
    }

    impl FleetVm for Crasher {
        fn step_slice(&mut self) -> SliceOutcome {
            self.taken += 1;
            if self.taken == 3 {
                panic!("slice exploded on vm {}", self.id.0);
            }
            SliceOutcome::Running
        }

        fn finish(&mut self) -> VmReport {
            empty_report(self.id)
        }

        fn flight_dump(&mut self, reason: &str) -> Option<Vec<u8>> {
            Some(self.flight.dump_bytes(reason))
        }
    }

    struct CrashFleet;

    impl FleetWorkload for CrashFleet {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            Box::new(Crasher { id: vm, taken: 0, flight: crate::flight::FlightRecorder::new(8) })
        }
    }

    #[test]
    fn worker_panic_rethrows_with_a_flight_dump_reference() {
        let result =
            std::panic::catch_unwind(|| run_fleet(Arc::new(CrashFleet), FleetConfig::new(1, 1)));
        let message = panic_message(result.expect_err("the worker panic must propagate"));
        assert!(message.contains("fleet worker panicked stepping vm0"), "{message}");
        assert!(message.contains("slice exploded on vm 0"), "{message}");
        assert!(message.contains("flight dump: "), "{message}");
        let path = message
            .split("flight dump: ")
            .nth(1)
            .and_then(|rest| rest.strip_suffix(')'))
            .expect("message references the dump path");
        let bytes = std::fs::read(path).expect("dump file written");
        let dump = crate::flight::FlightDump::decode(&bytes).expect("dump decodes");
        assert!(dump.reason.contains("fleet-worker-panic: vm0"), "{}", dump.reason);
        assert!(dump.reason.contains("slice exploded"), "{}", dump.reason);
        let _ = std::fs::remove_file(path);
    }

    /// VM 0 panics once VM 1 has been built; VM 1 runs until stopped and
    /// then takes a while to finish before counting its finish. Every
    /// build is logged.
    #[derive(Default)]
    struct PanicAndSlowDrain {
        built: std::sync::Mutex<Vec<u32>>,
        vm1_finishes: AtomicU64,
    }

    struct PanicOrSlow {
        id: VmId,
        workload: Arc<PanicAndSlowDrain>,
        deadline: std::time::Instant,
    }

    impl FleetVm for PanicOrSlow {
        fn step_slice(&mut self) -> SliceOutcome {
            let vm1_built = self.workload.built.lock().unwrap().contains(&1);
            if self.id == VmId(0) && (vm1_built || std::time::Instant::now() > self.deadline) {
                panic!("vm 0 fails");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            SliceOutcome::Running
        }

        fn finish(&mut self) -> VmReport {
            if self.id == VmId(1) {
                std::thread::sleep(std::time::Duration::from_millis(200));
                self.workload.vm1_finishes.fetch_add(1, Ordering::SeqCst);
            }
            empty_report(self.id)
        }
    }

    /// The fleet of [`PanicOrSlow`] VMs, which share its state.
    struct PanicFleet(Arc<PanicAndSlowDrain>);

    impl FleetWorkload for PanicFleet {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            self.0.built.lock().unwrap().push(vm.0);
            Box::new(PanicOrSlow {
                id: vm,
                workload: Arc::clone(&self.0),
                deadline: std::time::Instant::now() + std::time::Duration::from_secs(10),
            })
        }
    }

    fn empty_report(vm: VmId) -> VmReport {
        VmReport {
            vm,
            findings: Vec::new(),
            stats: DeliveryStats::default(),
            metrics: MetricsRegistry::new(),
            halted: false,
            payload: Vec::new(),
        }
    }

    #[test]
    fn failed_run_joins_every_worker_before_raising() {
        // Four VMs on two workers: vm0 and vm1 are claimed, one per worker;
        // vm0 fails while vm1 runs, so vm2 and vm3 are never claimed.
        let state = Arc::new(PanicAndSlowDrain::default());
        let workload = Arc::new(PanicFleet(Arc::clone(&state)));
        let result = std::panic::catch_unwind(|| run_fleet(workload, FleetConfig::new(4, 2)));
        let message = panic_message(result.expect_err("the vm0 panic must propagate"));
        assert!(message.contains("vm 0 fails"), "{message}");
        assert_eq!(
            state.vm1_finishes.load(Ordering::SeqCst),
            1,
            "the surviving worker must finish vm1 once and be joined before the failure is raised"
        );
        let mut built = state.built.lock().unwrap().clone();
        built.sort_unstable();
        assert_eq!(built, vec![0, 1], "a failure must not build an unclaimed VM");
    }

    /// Every build, step, finish and drop: what ran, on which VM, on which
    /// thread.
    type SliceLog = Arc<std::sync::Mutex<Vec<(&'static str, VmId, String)>>>;

    /// Slice count of a VM that runs until every other VM of its fleet has
    /// finished (or 10 s have passed).
    const UNTIL_THE_REST_FINISH: u64 = 0;

    /// A VM that runs `slices` slices (`u64::MAX`: until stopped), or for
    /// 10 s at most, and logs, into a shared list, every build, step,
    /// finish and drop with the name of the thread that ran it.
    struct Logged {
        id: VmId,
        slices: u64,
        taken: u64,
        fleet: usize,
        log: SliceLog,
        deadline: std::time::Instant,
        finish_panics: bool,
    }

    impl Logged {
        fn note(&self, what: &'static str) {
            let thread = std::thread::current().name().unwrap_or("").to_owned();
            self.log.lock().unwrap().push((what, self.id, thread));
        }

        fn the_rest_finished(&self) -> bool {
            count(&self.log.lock().unwrap(), "finish") == self.fleet - 1
        }
    }

    impl FleetVm for Logged {
        fn step_slice(&mut self) -> SliceOutcome {
            self.note("step");
            self.taken += 1;
            let done = match self.slices {
                UNTIL_THE_REST_FINISH => self.the_rest_finished(),
                slices => self.taken >= slices,
            } || std::time::Instant::now() > self.deadline;
            if done {
                return SliceOutcome::Done;
            }
            if self.slices == u64::MAX || self.slices == UNTIL_THE_REST_FINISH {
                // Keep the log small while waiting.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            SliceOutcome::Running
        }

        fn finish(&mut self) -> VmReport {
            self.note("finish");
            if self.finish_panics {
                panic!("finishing {} failed", self.id);
            }
            VmReport {
                stats: DeliveryStats { events_in: self.taken, ..Default::default() },
                ..empty_report(self.id)
            }
        }
    }

    impl Drop for Logged {
        fn drop(&mut self) {
            self.note("drop");
        }
    }

    /// VM i runs `slices[i]` slices; building `build_panics` panics once
    /// some VM has taken a slice, and finishing `finish_panics` panics.
    struct LoggedFleet {
        slices: Vec<u64>,
        log: SliceLog,
        build_panics: Option<VmId>,
        finish_panics: Option<VmId>,
    }

    impl LoggedFleet {
        fn new(slices: &[u64]) -> Arc<LoggedFleet> {
            Arc::new(LoggedFleet {
                slices: slices.to_vec(),
                log: Arc::default(),
                build_panics: None,
                finish_panics: None,
            })
        }

        fn log(&self) -> Vec<(&'static str, VmId, String)> {
            self.log.lock().unwrap().clone()
        }

        /// Waits until `ready` holds for the log; fails after 10 s.
        fn wait_for(&self, ready: impl Fn(&[(&'static str, VmId, String)]) -> bool) {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !ready(&self.log.lock().unwrap()) {
                assert!(std::time::Instant::now() < deadline, "the fleet never got there");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }

        /// The ids of the VMs with a `what` entry, sorted.
        fn ids(&self, what: &str) -> Vec<u32> {
            let mut ids: Vec<u32> =
                self.log().iter().filter(|e| e.0 == what).map(|e| e.1 .0).collect();
            ids.sort_unstable();
            ids
        }
    }

    impl FleetWorkload for LoggedFleet {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            if self.build_panics == Some(vm) {
                self.wait_for(|log| count(log, "step") > 0);
                panic!("building {vm} failed");
            }
            let built = Logged {
                id: vm,
                slices: self.slices[vm.0 as usize],
                taken: 0,
                fleet: self.slices.len(),
                log: Arc::clone(&self.log),
                deadline: std::time::Instant::now() + std::time::Duration::from_secs(10),
                finish_panics: self.finish_panics == Some(vm),
            };
            built.note("build");
            Box::new(built)
        }
    }

    fn count(log: &[(&'static str, VmId, String)], what: &str) -> usize {
        log.iter().filter(|e| e.0 == what).count()
    }

    fn report_ids(report: &FleetReport) -> Vec<u32> {
        report.per_vm.iter().map(|r| r.vm.0).collect()
    }

    #[test]
    fn vms_are_claimed_in_id_order_and_run_to_completion() {
        let slices = [3, 1, 4, 1, 5, 9, 2];
        for workers in [1, 3] {
            let workload = LoggedFleet::new(&slices);
            let report = run_fleet(Arc::clone(&workload) as _, FleetConfig::new(7, workers));
            assert_eq!(report_ids(&report), vec![0, 1, 2, 3, 4, 5, 6]);
            let log = workload.log();
            let builds: Vec<u32> = log.iter().filter(|e| e.0 == "build").map(|e| e.1 .0).collect();
            if workers == 1 {
                assert_eq!(builds, vec![0, 1, 2, 3, 4, 5, 6], "VMs are built in id order");
            }
            assert_eq!(workload.ids("build"), vec![0, 1, 2, 3, 4, 5, 6], "each VM is built once");
            // On each thread, the VMs it claimed ascend (a claim and its
            // build are not atomic, so two threads' builds may interleave),
            // and every VM it built runs to completion before the next:
            // build, all its steps, finish, drop, back to back.
            let mut threads: Vec<&str> = log.iter().map(|e| e.2.as_str()).collect();
            threads.sort_unstable();
            threads.dedup();
            assert!(threads.len() <= workers);
            for thread in threads {
                let ran: Vec<(&str, u32)> =
                    log.iter().filter(|e| e.2 == thread).map(|e| (e.0, e.1 .0)).collect();
                let claimed: Vec<u32> =
                    ran.iter().filter(|e| e.0 == "build").map(|e| e.1).collect();
                assert!(claimed.windows(2).all(|w| w[0] < w[1]), "{thread} claimed {claimed:?}");
                let mut expected = Vec::new();
                for &vm in &claimed {
                    expected.push(("build", vm));
                    expected.extend((0..slices[vm as usize]).map(|_| ("step", vm)));
                    expected.extend([("finish", vm), ("drop", vm)]);
                }
                assert_eq!(ran, expected, "workers={workers}, {thread}");
            }
        }
    }

    #[test]
    fn at_most_workers_vms_are_alive() {
        for workers in [1, 2, 3] {
            let workload = LoggedFleet::new(&[4; 12]);
            run_fleet(Arc::clone(&workload) as _, FleetConfig::new(12, workers));
            let (mut unfinished, mut alive, mut peak_unfinished, mut peak_alive) = (0, 0, 0, 0);
            for (what, _, _) in workload.log() {
                match what {
                    "build" => (unfinished, alive) = (unfinished + 1, alive + 1),
                    "finish" => unfinished -= 1,
                    "drop" => alive -= 1,
                    _ => {}
                }
                peak_unfinished = peak_unfinished.max(unfinished);
                peak_alive = peak_alive.max(alive);
            }
            assert!(peak_unfinished <= workers, "workers={workers}: {peak_unfinished} unfinished");
            assert!(peak_alive <= workers, "workers={workers}: {peak_alive} alive");
        }
    }

    #[test]
    fn an_idle_worker_takes_the_rest_while_one_vm_runs_long() {
        // VM 0 runs until VMs 1..6 have finished. The worker that claimed
        // it holds nothing else, so the other worker runs all of them.
        let workload = LoggedFleet::new(&[UNTIL_THE_REST_FINISH, 1, 2, 1, 2, 1]);
        run_fleet(Arc::clone(&workload) as _, FleetConfig::new(6, 2));
        let log = workload.log();
        let thread_of =
            |vm: u32| log.iter().find(|e| e.0 == "build" && e.1 == VmId(vm)).unwrap().2.clone();
        for vm in 1..6 {
            assert_ne!(thread_of(vm), thread_of(0), "vm{vm} waited behind the long vm0");
        }
    }

    #[test]
    fn reports_come_back_in_id_order_whatever_the_finish_order() {
        // VM 0 runs until every other VM has finished, so VMs finish in the
        // order 1, 2, 3, 4, 5, 0.
        let workload = LoggedFleet::new(&[UNTIL_THE_REST_FINISH, 5, 4, 3, 2, 1]);
        let report = run_fleet(Arc::clone(&workload) as _, FleetConfig::new(6, 2));
        let finished: Vec<u32> =
            workload.log().iter().filter(|e| e.0 == "finish").map(|e| e.1 .0).collect();
        assert_eq!(finished, vec![1, 2, 3, 4, 5, 0]);
        assert_eq!(report_ids(&report), vec![0, 1, 2, 3, 4, 5]);
        let taken: Vec<u64> = report.per_vm[1..].iter().map(|r| r.stats.events_in).collect();
        assert_eq!(taken, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn stop_joins_all_workers_and_reports_only_claimed_vms() {
        // Every VM runs until stopped, so each worker claims one and holds
        // it: three are claimed, and the other three never are.
        let workload = LoggedFleet::new(&[u64::MAX; 6]);
        let host = FleetHost::launch(Arc::clone(&workload) as _, FleetConfig::new(6, 3));
        assert_eq!(host.worker_count(), 3);
        workload.wait_for(|log| count(log, "build") == 3);
        let report = host.stop();
        assert_eq!(report_ids(&report), vec![0, 1, 2], "claimed VMs are reported, no others");
        assert_eq!(workload.ids("build"), vec![0, 1, 2], "stop must not build an unclaimed VM");
        assert_eq!(workload.ids("finish"), vec![0, 1, 2], "each claimed VM is finished once");
    }

    #[test]
    fn stop_keeps_finished_reports_and_finishes_claimed_vms_once() {
        // Even VMs finish after one slice; odd ones run until stopped. The
        // two workers claim 0..4 between them and then each holds an odd VM.
        let workload = LoggedFleet::new(&[1, u64::MAX, 1, u64::MAX, 1, u64::MAX]);
        let host = FleetHost::launch(Arc::clone(&workload) as _, FleetConfig::new(6, 2));
        workload.wait_for(|log| count(log, "build") == 4 && count(log, "finish") == 2);
        let report = host.stop();
        assert_eq!(report_ids(&report), vec![0, 1, 2, 3]);
        assert_eq!(workload.ids("build"), vec![0, 1, 2, 3], "vm4 and vm5 are never claimed");
        assert_eq!(workload.ids("finish"), vec![0, 1, 2, 3], "every VM is finished exactly once");
        for r in report.per_vm.iter().filter(|r| r.vm.0 % 2 == 0) {
            assert_eq!(r.stats.events_in, 1, "{} ran its one slice", r.vm);
        }
    }

    #[test]
    fn a_panic_outside_a_slice_stops_the_fleet_too() {
        // vm1's build fails while vm0, which runs until stopped, is held by
        // the other worker: vm0 is finished once, and nothing else is built.
        let workload = Arc::new(LoggedFleet {
            build_panics: Some(VmId(1)),
            ..Arc::into_inner(LoggedFleet::new(&[u64::MAX; 4])).unwrap()
        });
        let fleet = Arc::clone(&workload);
        let result = std::panic::catch_unwind(|| run_fleet(fleet, FleetConfig::new(4, 2)));
        let message = panic_message(result.expect_err("the build panic must propagate"));
        assert!(message.contains("building vm1 failed"), "{message}");
        assert_eq!(workload.ids("build"), vec![0], "a failure must not build an unclaimed VM");
        assert_eq!(workload.ids("finish"), vec![0]);
        let steps = count(&workload.log(), "step");
        assert!(steps < 5_000, "vm0 ran {steps} slices: it was not stopped");
    }

    #[test]
    fn a_panic_in_finish_stops_the_fleet_too() {
        // vm1 finishes after one slice, and its finish fails while vm0,
        // which runs until stopped, is held by the other worker.
        let workload = Arc::new(LoggedFleet {
            finish_panics: Some(VmId(1)),
            ..Arc::into_inner(LoggedFleet::new(&[u64::MAX, 1, u64::MAX, u64::MAX])).unwrap()
        });
        let fleet = Arc::clone(&workload);
        let result = std::panic::catch_unwind(|| run_fleet(fleet, FleetConfig::new(4, 2)));
        let message = panic_message(result.expect_err("the finish panic must propagate"));
        assert!(message.contains("finishing vm1 failed"), "{message}");
        assert_eq!(workload.ids("build"), vec![0, 1], "a failure must not build an unclaimed VM");
        assert_eq!(workload.ids("finish"), vec![0, 1], "vm0 is finished once, when stopped");
        assert_eq!(workload.ids("drop"), vec![0, 1]);
    }

    #[test]
    fn stop_after_every_vm_finished_reports_them_all() {
        let workload = LoggedFleet::new(&[1, 2, 3]);
        let host = FleetHost::launch(Arc::clone(&workload) as _, FleetConfig::new(3, 2));
        workload.wait_for(|log| count(log, "drop") == 3);
        let report = host.stop();
        assert_eq!(report_ids(&report), vec![0, 1, 2], "a late stop loses no report");
        let taken: Vec<u64> = report.per_vm.iter().map(|r| r.stats.events_in).collect();
        assert_eq!(taken, vec![1, 2, 3], "every VM ran to completion");
        assert_eq!(count(&workload.log(), "finish"), 3, "and was finished once");
    }

    #[test]
    fn more_workers_than_vms_spawns_one_per_vm() {
        let workload = LoggedFleet::new(&[2, 2, 2]);
        let host = FleetHost::launch(Arc::clone(&workload) as _, FleetConfig::new(3, 8));
        assert_eq!(host.worker_count(), 3);
        assert_eq!(report_ids(&host.join()), vec![0, 1, 2]);
        let mut threads: Vec<String> = workload.log().into_iter().map(|e| e.2).collect();
        threads.sort_unstable();
        threads.dedup();
        assert!(threads
            .iter()
            .all(|t| ["fleet-worker-0", "fleet-worker-1", "fleet-worker-2"].contains(&t.as_str())));
    }

    #[test]
    fn the_hub_sees_each_claimed_vm_on_the_worker_that_ran_it() {
        use crate::telemetry::VmPhase;
        // Three workers hold one never-ending VM each; the other three are
        // never claimed, so the hub must never list them.
        let workload = LoggedFleet::new(&[u64::MAX; 6]);
        let hub = Arc::new(TelemetryHub::new());
        let host = FleetHost::launch_with_telemetry(
            Arc::clone(&workload) as _,
            FleetConfig::new(6, 3),
            Arc::clone(&hub),
        );
        workload.wait_for(|log| count(log, "step") >= 3 && count(log, "build") == 3);
        host.stop();
        let log = workload.log();
        let vms = hub.vms();
        assert_eq!(vms.iter().map(|s| s.vm.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        for s in &vms {
            assert_eq!(s.phase, VmPhase::Done, "{}", s.vm);
            let thread = &log.iter().find(|e| e.0 == "build" && e.1 == s.vm).unwrap().2;
            assert_eq!(thread, &format!("fleet-worker-{}", s.worker), "{}", s.vm);
            assert_eq!(s.slices, count_of(&log, "step", s.vm), "{}", s.vm);
        }
        let workers = hub.workers();
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|w| w.done));
    }

    fn count_of(log: &[(&'static str, VmId, String)], what: &str, vm: VmId) -> u64 {
        log.iter().filter(|e| e.0 == what && e.1 == vm).count() as u64
    }

    #[test]
    fn drop_without_join_does_not_leak_or_hang() {
        let workload = LoggedFleet::new(&[u64::MAX; 4]);
        let host = FleetHost::launch(Arc::clone(&workload) as _, FleetConfig::new(4, 2));
        workload.wait_for(|log| count(log, "build") == 2);
        drop(host); // must set the stop flag and join, not hang or leak
        assert_eq!(workload.ids("build"), vec![0, 1], "Drop must not build an unclaimed VM");
        assert_eq!(workload.ids("finish"), vec![0, 1]);
    }

    /// VM 0 finishes on its first slice; VM 1 runs until the other
    /// worker's thread has released its handle on the workload (or a
    /// deadline passes).
    struct WaitsForPeerExit {
        me: std::sync::Weak<WaitsForPeerExit>,
        saw_peer_exit: Arc<AtomicBool>,
    }

    struct PeerWatcher {
        id: VmId,
        workload: std::sync::Weak<WaitsForPeerExit>,
        saw_peer_exit: Arc<AtomicBool>,
        deadline: std::time::Instant,
    }

    impl FleetVm for PeerWatcher {
        fn step_slice(&mut self) -> SliceOutcome {
            if self.id == VmId(0) {
                return SliceOutcome::Done;
            }
            // Each worker thread holds one strong handle until it returns.
            if self.workload.strong_count() == 1 {
                self.saw_peer_exit.store(true, Ordering::SeqCst);
                return SliceOutcome::Done;
            }
            if std::time::Instant::now() > self.deadline {
                return SliceOutcome::Done;
            }
            std::thread::yield_now();
            SliceOutcome::Running
        }

        fn finish(&mut self) -> VmReport {
            empty_report(self.id)
        }
    }

    impl FleetWorkload for WaitsForPeerExit {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            Box::new(PeerWatcher {
                id: vm,
                workload: self.me.clone(),
                saw_peer_exit: Arc::clone(&self.saw_peer_exit),
                deadline: std::time::Instant::now() + std::time::Duration::from_secs(10),
            })
        }
    }

    #[test]
    fn a_worker_returns_as_soon_as_no_id_is_left() {
        let saw_peer_exit = Arc::new(AtomicBool::new(false));
        let workload = Arc::new_cyclic(|me| WaitsForPeerExit {
            me: me.clone(),
            saw_peer_exit: Arc::clone(&saw_peer_exit),
        });
        let report = run_fleet(workload, FleetConfig::new(2, 2));
        assert_eq!(report.per_vm.len(), 2);
        assert!(
            saw_peer_exit.load(Ordering::SeqCst),
            "a worker with no id left to claim must return, not wait for vm1 on the other"
        );
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(FleetConfig::new(64, 8).effective_workers(), 8);
        assert_eq!(FleetConfig::new(3, 8).effective_workers(), 3);
        assert_eq!(FleetConfig::new(5, 0).effective_workers(), 1);
    }
}
