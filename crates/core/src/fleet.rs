//! Fleet monitoring: many independent monitored VMs sharded over workers.
//!
//! The paper pitches HyperTap as a *cloud-side* framework — one
//! hypervisor-level logging layer covering every guest on a host — yet a
//! single [`crate::kvm::Kvm`] monitors a single VM. This module adds the
//! fleet layer: a [`FleetHost`] owns N independent simulated VMs (each with
//! its own `VmState`, `Kvm`, `EventMultiplexer` and monitor set, keyed by
//! [`VmId`]), shards them across a configurable pool of worker threads, and
//! steps them in deterministic per-VM order. A [`FleetAggregator`] merges
//! the per-VM [`DeliveryStats`], findings (tagged by [`VmId`]) and
//! [`MetricsRegistry`] snapshots into one host-wide view.
//!
//! # Determinism contract
//!
//! Fleet VMs are **fully independent**: no simulated state is shared
//! between them, and the host hands every VM the *same* slice schedule —
//! build, then repeat [`FleetVm::step_slice`] until [`SliceOutcome::Done`]
//! — regardless of how many workers the fleet runs on. Worker count only
//! changes which host thread a VM's slices execute on, never what a slice
//! does, so a fleet run with any worker count produces bit-identical
//! per-VM findings, metrics-free observables and trace recordings to
//! running each VM alone ([`run_vm_alone`]). The replay crate's fleet
//! conformance suite and the fleet determinism proptest enforce this.
//!
//! # Sharding model
//!
//! Static modulo sharding: worker `w` of `W` owns every VM whose id `i`
//! satisfies `i % W == w`, builds its VMs in ascending id order, then
//! round-robins one slice per live VM (ascending id order) until all are
//! done, then exits. VMs never move between workers — moving one would not
//! change any per-VM result (slices are per-VM), but static shards keep the
//! schedule trivially auditable and the worker→VM map reproducible in logs.

use crate::audit::Finding;
use crate::em::DeliveryStats;
use crate::event::VmId;
use crate::flight::panic_message;
use crate::metrics::MetricsRegistry;
use crate::telemetry::{FindingBus, TelemetryHub, VmProbe};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// A running fleet: worker threads stepping their VM shards.
///
/// Always joins its workers — via [`FleetHost::join`], [`FleetHost::stop`]
/// or `Drop` — so a fleet can never leak threads (the same lifecycle
/// discipline as `RhcServer::stop`).
pub struct FleetHost {
    handles: Vec<JoinHandle<Result<Vec<VmReport>, WorkerFailure>>>,
    stop: Arc<AtomicBool>,
    cfg: FleetConfig,
}

/// Why a worker abandoned its shard: one VM's slice panicked. The worker
/// grabs the VM's flight-recorder dump before unwinding so the host can
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
    /// finished [`VmReport`]s to the hub, whose [`FindingBus`] streams
    /// findings to subscribers as they land. Telemetry is host-side
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
        let workers = cfg.effective_workers();
        let mut handles = Vec::new();
        if cfg.vms > 0 {
            for w in 0..workers {
                let shard: Vec<VmId> =
                    (w..cfg.vms).step_by(workers).map(|i| VmId(i as u32)).collect();
                let workload = Arc::clone(&workload);
                let stop = Arc::clone(&stop);
                let hub = hub.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("fleet-worker-{w}"))
                    .spawn(move || worker_loop(w, &shard, &*workload, &stop, hub.as_deref()))
                    .expect("spawn fleet worker");
                handles.push(handle);
            }
        }
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
    /// A failed worker stops the fleet: the other workers drain their VMs
    /// and are joined, and only then is the first failure (in worker order)
    /// raised — a caught slice panic with its flight-dump path, or a worker
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

    /// Requests shutdown and joins every worker. VMs that had not finished
    /// are drained early, so their (partial) reports still appear in the
    /// result. Returns once all worker threads have exited — no thread
    /// outlives the call.
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

/// One VM on a worker: its identity and the VM itself.
struct WorkerSlot {
    id: VmId,
    vm: Box<dyn FleetVm>,
}

fn worker_loop(
    worker: usize,
    shard: &[VmId],
    workload: &dyn FleetWorkload,
    stop: &AtomicBool,
    hub: Option<&TelemetryHub>,
) -> Result<Vec<VmReport>, WorkerFailure> {
    if let Some(h) = hub {
        h.worker_started(worker);
    }
    // Build in ascending id order, step round-robin in ascending id order:
    // the per-VM slice schedule is identical for every worker count.
    let mut vms: Vec<WorkerSlot> = shard
        .iter()
        .map(|&id| {
            if let Some(h) = hub {
                h.vm_started(id, worker);
            }
            WorkerSlot { id, vm: workload.build_vm(id) }
        })
        .collect();
    let mut reports = Vec::with_capacity(vms.len());
    'run: while !vms.is_empty() {
        let mut i = 0;
        while i < vms.len() {
            if stop.load(Ordering::SeqCst) {
                break 'run;
            }
            let slot = &mut vms[i];
            let outcome = match catch_unwind(AssertUnwindSafe(|| slot.vm.step_slice())) {
                Ok(outcome) => outcome,
                Err(payload) => {
                    // The slice panicked: snapshot the VM's black box
                    // (best-effort — the VM may be mid-mutation) and hand
                    // the payload + dump to the host instead of unwinding
                    // the whole worker anonymously.
                    let message = panic_message(payload);
                    let reason = format!("fleet-worker-panic: {}: {message}", slot.id);
                    let dump = catch_unwind(AssertUnwindSafe(|| slot.vm.flight_dump(&reason)))
                        .ok()
                        .flatten();
                    stop.store(true, Ordering::SeqCst);
                    return Err(WorkerFailure { vm: slot.id, message, dump });
                }
            };
            if let Some(h) = hub {
                h.vm_progress(slot.id, worker, slot.vm.telemetry_probe());
            }
            if outcome == SliceOutcome::Done {
                let mut slot = vms.remove(i);
                let report = slot.vm.finish();
                if let Some(h) = hub {
                    h.vm_finished(&report, worker);
                }
                reports.push(report);
                continue;
            }
            i += 1;
        }
    }
    // Early stop: drain the VMs still running so partial reports are not
    // lost.
    for mut slot in vms {
        let report = slot.vm.finish();
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
    bus: Option<FindingBus>,
}

impl FleetAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        FleetAggregator::default()
    }

    /// Taps the aggregator with a live [`FindingBus`]: every finding in a
    /// subsequently [`FleetAggregator::absorb`]ed report is also published
    /// on the bus, tagged with the originating VM. The tap never blocks —
    /// slow subscribers drop (and count) instead.
    pub fn attach_bus(&mut self, bus: FindingBus) {
        self.bus = Some(bus);
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
        if let Some(bus) = &self.bus {
            bus.publish_all(report.vm, &report.findings);
        }
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

    /// A VM that never finishes on its own — only `stop()` can end it.
    struct Endless(VmId, Arc<AtomicU64>);

    impl FleetVm for Endless {
        fn step_slice(&mut self) -> SliceOutcome {
            self.1.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
            SliceOutcome::Running
        }

        fn finish(&mut self) -> VmReport {
            VmReport {
                vm: self.0,
                findings: Vec::new(),
                stats: DeliveryStats::default(),
                metrics: MetricsRegistry::new(),
                halted: false,
                payload: Vec::new(),
            }
        }
    }

    struct EndlessFleet(Arc<AtomicU64>);

    impl FleetWorkload for EndlessFleet {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            Box::new(Endless(vm, Arc::clone(&self.0)))
        }
    }

    #[test]
    fn stop_joins_all_workers_and_drains_partial_reports() {
        let slices = Arc::new(AtomicU64::new(0));
        let host =
            FleetHost::launch(Arc::new(EndlessFleet(Arc::clone(&slices))), FleetConfig::new(6, 3));
        assert_eq!(host.worker_count(), 3);
        // Let the workers demonstrably make progress, then pull the plug.
        while slices.load(Ordering::Relaxed) < 100 {
            std::thread::yield_now();
        }
        let report = host.stop();
        assert_eq!(report.per_vm.len(), 6, "stopped VMs must still be drained");
        let ids: Vec<u32> = report.per_vm.iter().map(|r| r.vm.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn drop_without_join_does_not_leak_or_hang() {
        let slices = Arc::new(AtomicU64::new(0));
        let host =
            FleetHost::launch(Arc::new(EndlessFleet(Arc::clone(&slices))), FleetConfig::new(2, 2));
        while slices.load(Ordering::Relaxed) < 10 {
            std::thread::yield_now();
        }
        drop(host); // must set the stop flag and join, not hang or leak
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
            VmReport {
                vm: self.id,
                findings: Vec::new(),
                stats: DeliveryStats::default(),
                metrics: MetricsRegistry::new(),
                halted: false,
                payload: Vec::new(),
            }
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

    /// VM 0 panics on its first slice; VM 1 runs until stopped and then
    /// takes a while to finish before raising `finished`.
    struct PanicAndSlowDrain(Arc<AtomicBool>);

    struct PanicOrSlow {
        id: VmId,
        finished: Arc<AtomicBool>,
    }

    impl FleetVm for PanicOrSlow {
        fn step_slice(&mut self) -> SliceOutcome {
            if self.id == VmId(0) {
                panic!("vm 0 fails");
            }
            std::thread::yield_now();
            SliceOutcome::Running
        }

        fn finish(&mut self) -> VmReport {
            if self.id == VmId(1) {
                std::thread::sleep(std::time::Duration::from_millis(200));
                self.finished.store(true, Ordering::SeqCst);
            }
            VmReport {
                vm: self.id,
                findings: Vec::new(),
                stats: DeliveryStats::default(),
                metrics: MetricsRegistry::new(),
                halted: false,
                payload: Vec::new(),
            }
        }
    }

    impl FleetWorkload for PanicAndSlowDrain {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            Box::new(PanicOrSlow { id: vm, finished: Arc::clone(&self.0) })
        }
    }

    #[test]
    fn failed_run_joins_every_worker_before_raising() {
        let finished = Arc::new(AtomicBool::new(false));
        let workload = Arc::new(PanicAndSlowDrain(Arc::clone(&finished)));
        let result = std::panic::catch_unwind(|| run_fleet(workload, FleetConfig::new(2, 2)));
        let message = panic_message(result.expect_err("the vm0 panic must propagate"));
        assert!(message.contains("vm 0 fails"), "{message}");
        assert!(
            finished.load(Ordering::SeqCst),
            "the surviving worker must be drained and joined before the failure is raised"
        );
    }

    /// Every build, step and finish: what ran, on which VM, on which thread.
    type SliceLog = Arc<std::sync::Mutex<Vec<(&'static str, VmId, String)>>>;

    /// A VM that runs `slices` slices and logs, into a shared list, every
    /// build, step and finish with the name of the thread that ran it.
    struct Logged {
        id: VmId,
        slices: u64,
        taken: u64,
        log: SliceLog,
    }

    impl Logged {
        fn note(&self, what: &'static str) {
            let thread = std::thread::current().name().unwrap_or("").to_owned();
            self.log.lock().unwrap().push((what, self.id, thread));
        }
    }

    impl FleetVm for Logged {
        fn step_slice(&mut self) -> SliceOutcome {
            self.note("step");
            self.taken += 1;
            if self.taken >= self.slices {
                SliceOutcome::Done
            } else {
                SliceOutcome::Running
            }
        }

        fn finish(&mut self) -> VmReport {
            self.note("finish");
            VmReport {
                vm: self.id,
                findings: Vec::new(),
                stats: DeliveryStats { events_in: self.taken, ..Default::default() },
                metrics: MetricsRegistry::new(),
                halted: false,
                payload: Vec::new(),
            }
        }
    }

    /// VM i runs `slices[i]` slices.
    struct LoggedFleet {
        slices: Vec<u64>,
        log: SliceLog,
    }

    impl LoggedFleet {
        fn new(slices: &[u64]) -> Arc<LoggedFleet> {
            Arc::new(LoggedFleet { slices: slices.to_vec(), log: Arc::default() })
        }

        fn log(&self) -> Vec<(&'static str, VmId, String)> {
            self.log.lock().unwrap().clone()
        }
    }

    impl FleetWorkload for LoggedFleet {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            let built = Logged {
                id: vm,
                slices: self.slices[vm.0 as usize],
                taken: 0,
                log: Arc::clone(&self.log),
            };
            built.note("build");
            Box::new(built)
        }
    }

    #[test]
    fn each_vm_lives_on_its_modulo_worker() {
        let workload = LoggedFleet::new(&[3, 1, 4, 1, 5, 9, 2]);
        let report = run_fleet(Arc::clone(&workload) as _, FleetConfig::new(7, 3));
        assert_eq!(report.per_vm.len(), 7);
        let log = workload.log();
        assert_eq!(log.len(), 7 + (3 + 1 + 4 + 1 + 5 + 9 + 2) + 7, "build + steps + finish");
        for (what, vm, thread) in log {
            assert_eq!(
                thread,
                format!("fleet-worker-{}", vm.0 % 3),
                "{what} of {vm} ran on the wrong worker"
            );
        }
    }

    #[test]
    fn a_worker_steps_its_shard_round_robin_in_id_order() {
        // One worker, slices 3,1,2,3: every round visits the unfinished VMs
        // in ascending id order, and a VM is finished on the slice that
        // reports `Done`, before the next VM is stepped.
        let workload = LoggedFleet::new(&[3, 1, 2, 3]);
        let report = run_fleet(Arc::clone(&workload) as _, FleetConfig::new(4, 1));
        let order: Vec<(&str, u32)> =
            workload.log().iter().map(|(what, vm, _)| (*what, vm.0)).collect();
        #[rustfmt::skip]
        let expected = vec![
            ("build", 0), ("build", 1), ("build", 2), ("build", 3),
            ("step", 0), ("step", 1), ("finish", 1), ("step", 2), ("step", 3),
            ("step", 0), ("step", 2), ("finish", 2), ("step", 3),
            ("step", 0), ("finish", 0), ("step", 3), ("finish", 3),
        ];
        assert_eq!(order, expected);
        let taken: Vec<u64> = report.per_vm.iter().map(|r| r.stats.events_in).collect();
        assert_eq!(taken, vec![3, 1, 2, 3]);
    }

    #[test]
    fn reports_come_back_in_id_order_whatever_the_finish_order() {
        // VM i runs 8 - i slices, so on each worker the VMs finish in
        // descending id order.
        let workload = LoggedFleet::new(&[8, 7, 6, 5, 4, 3]);
        let report = run_fleet(Arc::clone(&workload) as _, FleetConfig::new(6, 2));
        let finished: Vec<u32> = workload
            .log()
            .iter()
            .filter(|(what, _, thread)| *what == "finish" && thread == "fleet-worker-0")
            .map(|(_, vm, _)| vm.0)
            .collect();
        assert_eq!(finished, vec![4, 2, 0]);
        let ids: Vec<u32> = report.per_vm.iter().map(|r| r.vm.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let taken: Vec<u64> = report.per_vm.iter().map(|r| r.stats.events_in).collect();
        assert_eq!(taken, vec![8, 7, 6, 5, 4, 3]);
    }

    #[test]
    fn stop_keeps_finished_reports_and_drains_the_rest_once() {
        // Worker 0's shard (VMs 0, 2, 4) finishes after one slice each;
        // worker 1's (VMs 1, 3, 5) runs until stopped.
        let workload = LoggedFleet::new(&[1, u64::MAX, 1, u64::MAX, 1, u64::MAX]);
        let host = FleetHost::launch(Arc::clone(&workload) as _, FleetConfig::new(6, 2));
        let finishes = |log: &[(&str, VmId, String)]| -> Vec<u32> {
            log.iter().filter(|(what, _, _)| *what == "finish").map(|(_, vm, _)| vm.0).collect()
        };
        while finishes(&workload.log.lock().unwrap()).len() < 3 {
            std::thread::yield_now();
        }
        let report = host.stop();
        let ids: Vec<u32> = report.per_vm.iter().map(|r| r.vm.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let mut finished: Vec<u32> = finishes(&workload.log());
        finished.sort_unstable();
        assert_eq!(finished, vec![0, 1, 2, 3, 4, 5], "every VM is finished exactly once");
        for r in report.per_vm.iter().filter(|r| r.vm.0 % 2 == 0) {
            assert_eq!(r.stats.events_in, 1, "{} ran its one slice", r.vm);
        }
    }

    /// VM 0 finishes on its first slice; VM 1 runs until worker 0's thread
    /// has released its handle on the workload (or a deadline passes).
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
            VmReport {
                vm: self.id,
                findings: Vec::new(),
                stats: DeliveryStats::default(),
                metrics: MetricsRegistry::new(),
                halted: false,
                payload: Vec::new(),
            }
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
    fn a_worker_returns_as_soon_as_its_shard_is_done() {
        let saw_peer_exit = Arc::new(AtomicBool::new(false));
        let workload = Arc::new_cyclic(|me| WaitsForPeerExit {
            me: me.clone(),
            saw_peer_exit: Arc::clone(&saw_peer_exit),
        });
        let report = run_fleet(workload, FleetConfig::new(2, 2));
        assert_eq!(report.per_vm.len(), 2);
        assert!(
            saw_peer_exit.load(Ordering::SeqCst),
            "worker 0 must return once vm0 is done, not wait for vm1 on worker 1"
        );
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(FleetConfig::new(64, 8).effective_workers(), 8);
        assert_eq!(FleetConfig::new(3, 8).effective_workers(), 3);
        assert_eq!(FleetConfig::new(5, 0).effective_workers(), 1);
    }
}
