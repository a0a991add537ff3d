//! The live telemetry plane: HTTP scrape endpoints, finding streams, and
//! the monitor self-watchdog.
//!
//! The paper's reliability argument assumes the monitoring stack itself
//! stays live — §VII ships event-stream samples to a Remote Health Checker
//! for exactly that reason. This module generalises the idea into a fleet
//! telemetry plane:
//!
//! * [`FindingBus`] — a host-side publish/subscribe tap for findings.
//!   Subscribers get bounded queues with per-subscriber drop counters; a
//!   slow or dead consumer can never block the exit pipeline (the same
//!   never-block discipline as the RHC transport).
//! * [`TelemetryHub`] — shared host state for a running fleet: per-VM
//!   lifecycle, per-worker progress heartbeats, the merged metrics
//!   snapshot, and the degraded flag the self-watchdog raises.
//! * [`TelemetryServer`] — a zero-dependency HTTP/1.1 server (std
//!   `TcpListener`, the same per-connection-thread + shutdown-flag
//!   lifecycle as `rhc::RhcServer`) serving `/metrics` (Prometheus text),
//!   `/metrics.json` (snapshot schema v1), `/healthz`, `/vms`, and
//!   `/findings` as a live NDJSON stream fed by the bus.
//! * [`SelfWatch`] — the watchdog thread: when a worker stops making
//!   progress for longer than the watchdog period, it raises a
//!   `MonitorStalled` finding (auditor `"selfwatch"`, [`Severity::Alert`])
//!   on the bus and flips `/healthz` to degraded; recovery clears it.
//!
//! # Determinism contract
//!
//! Everything here is **host-side bookkeeping only** — publishing clones
//! findings that already exist, the hub reads host clocks, and the server
//! only renders state. Nothing feeds back into the simulation, so a run
//! with the full telemetry plane attached is byte-identical to a run
//! without it. The replay conformance suite enforces this with the
//! TELEMETRY_ON pair (`DiffPolicy::Exact`), like metrics-on/off.

use crate::audit::{Finding, Severity};
use crate::event::VmId;
use crate::fleet::VmReport;
use crate::metrics::MetricsRegistry;
use serde::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

/// The pseudo-VM id `selfwatch` findings are published under: the monitor
/// itself, not any guest.
pub const MONITOR_VM: VmId = VmId(u32::MAX);

/// Default bounded queue capacity for a `/findings` subscriber.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 1024;

// ---------------------------------------------------------------------------
// FindingBus
// ---------------------------------------------------------------------------

struct BusSlot {
    id: u64,
    queue: VecDeque<(VmId, Finding)>,
    capacity: usize,
    dropped: u64,
}

#[derive(Default)]
struct BusInner {
    subscribers: Vec<BusSlot>,
    next_id: u64,
    published: u64,
    dropped_total: u64,
}

/// A host-side finding fan-out: cloneable handle over shared state.
///
/// `publish` copies the finding into every live subscriber's bounded
/// queue; a full queue counts a drop (per subscriber and bus-wide) and
/// moves on — publishing never blocks and never fails. With zero
/// subscribers a publish is one mutex lock and a counter increment.
#[derive(Clone, Default)]
pub struct FindingBus {
    inner: Arc<Mutex<BusInner>>,
}

impl std::fmt::Debug for FindingBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FindingBus")
            .field("subscribers", &self.subscriber_count())
            .field("published", &self.published())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FindingBus {
    /// An empty bus with no subscribers.
    pub fn new() -> Self {
        FindingBus::default()
    }

    /// Registers a subscriber with a bounded queue of `capacity` findings.
    /// Dropping the returned handle unsubscribes.
    pub fn subscribe(&self, capacity: usize) -> FindingSubscriber {
        let mut inner = self.inner.lock().expect("finding bus");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.subscribers.push(BusSlot {
            id,
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        });
        FindingSubscriber { id, inner: Arc::clone(&self.inner) }
    }

    /// Publishes one finding to every subscriber.
    pub fn publish(&self, vm: VmId, finding: &Finding) {
        let mut inner = self.inner.lock().expect("finding bus");
        inner.published += 1;
        let mut dropped = 0u64;
        for slot in &mut inner.subscribers {
            if slot.queue.len() >= slot.capacity {
                slot.dropped += 1;
                dropped += 1;
            } else {
                slot.queue.push_back((vm, finding.clone()));
            }
        }
        inner.dropped_total += dropped;
    }

    /// Publishes a batch of findings from one VM, in order.
    pub fn publish_all(&self, vm: VmId, findings: &[Finding]) {
        for f in findings {
            self.publish(vm, f);
        }
    }

    /// Findings published over the bus's lifetime.
    pub fn published(&self) -> u64 {
        self.inner.lock().expect("finding bus").published
    }

    /// Findings dropped across all subscribers (full queues).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("finding bus").dropped_total
    }

    /// Currently live subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().expect("finding bus").subscribers.len()
    }
}

/// One subscription on a [`FindingBus`]. Drop to unsubscribe.
pub struct FindingSubscriber {
    id: u64,
    inner: Arc<Mutex<BusInner>>,
}

impl FindingSubscriber {
    /// Takes every queued finding, oldest first.
    pub fn drain(&self) -> Vec<(VmId, Finding)> {
        let mut inner = self.inner.lock().expect("finding bus");
        match inner.subscribers.iter_mut().find(|s| s.id == self.id) {
            Some(slot) => slot.queue.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Findings this subscriber has lost to its bounded queue.
    pub fn dropped(&self) -> u64 {
        let inner = self.inner.lock().expect("finding bus");
        inner.subscribers.iter().find(|s| s.id == self.id).map_or(0, |s| s.dropped)
    }
}

impl Drop for FindingSubscriber {
    fn drop(&mut self) {
        let mut inner = self.inner.lock().expect("finding bus");
        inner.subscribers.retain(|s| s.id != self.id);
    }
}

/// Renders one bus finding as a single NDJSON line (no trailing newline).
pub fn finding_json(vm: VmId, f: &Finding) -> String {
    let value = Value::Object(vec![
        ("vm".to_owned(), Value::U64(vm.0 as u64)),
        ("time_ns".to_owned(), Value::U64(f.time.as_nanos())),
        ("auditor".to_owned(), Value::Str(f.auditor.clone())),
        ("severity".to_owned(), Value::Str(f.severity.to_string())),
        ("message".to_owned(), Value::Str(f.message.clone())),
        (
            "provenance".to_owned(),
            Value::Array(f.provenance.iter().map(|r| Value::U64(r.0)).collect()),
        ),
    ]);
    serde_json::to_string(&value).expect("finding serializes")
}

// ---------------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------------

/// Where a fleet VM is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmPhase {
    /// `build_vm` is running on its worker.
    Building,
    /// Taking slices.
    Running,
    /// Finished and reported.
    Done,
}

impl VmPhase {
    fn as_str(self) -> &'static str {
        match self {
            VmPhase::Building => "building",
            VmPhase::Running => "running",
            VmPhase::Done => "done",
        }
    }
}

/// A cheap per-slice probe of one fleet VM's monitoring plane, for `/vms`.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmProbe {
    /// Current simulated time, nanoseconds.
    pub now_ns: u64,
    /// Events the Event Multiplexer has accepted.
    pub events_in: u64,
    /// Findings accumulated in the EM but not yet drained — delivery-ring
    /// backpressure as seen by the audit phase.
    pub pending_findings: u64,
}

/// One VM's row in the `/vms` table.
#[derive(Debug, Clone)]
pub struct VmStatus {
    /// Which VM.
    pub vm: VmId,
    /// Lifecycle phase.
    pub phase: VmPhase,
    /// Worker currently (or last) driving it.
    pub worker: usize,
    /// Slices taken so far.
    pub slices: u64,
    /// Latest probe (zeros until the VM reports one).
    pub probe: VmProbe,
    /// Findings in its final report (set at `Done`).
    pub findings: u64,
    /// Whether it halted before its deadline (set at `Done`).
    pub halted: bool,
}

/// One worker's liveness row.
#[derive(Debug, Clone)]
pub struct WorkerHealth {
    /// Worker index.
    pub worker: usize,
    /// Progress heartbeats observed (one per slice).
    pub beats: u64,
    /// Host time of the last heartbeat.
    pub last_beat: Instant,
    /// Whether the worker has exited its loop.
    pub done: bool,
    /// Whether the self-watchdog currently considers it stalled.
    pub stalled: bool,
    /// Last simulated time any of its VMs reported.
    pub last_now_ns: u64,
}

#[derive(Default)]
struct HubState {
    vms: Vec<VmStatus>,
    workers: Vec<WorkerHealth>,
    metrics: MetricsRegistry,
    merged_from: u64,
    stall_episodes: u64,
    degraded: bool,
}

/// Shared host-side state of a monitored fleet: what the telemetry server
/// serves and the self-watchdog inspects. All methods are cheap and take a
/// single internal lock; nothing here touches simulated state.
pub struct TelemetryHub {
    bus: FindingBus,
    state: Mutex<HubState>,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        TelemetryHub::new()
    }
}

impl TelemetryHub {
    /// An empty hub with a fresh bus.
    pub fn new() -> Self {
        TelemetryHub { bus: FindingBus::new(), state: Mutex::new(HubState::default()) }
    }

    /// The hub's finding bus (cloneable handle).
    pub fn bus(&self) -> FindingBus {
        self.bus.clone()
    }

    /// Subscribes to the hub's finding stream.
    pub fn subscribe(&self, capacity: usize) -> FindingSubscriber {
        self.bus.subscribe(capacity)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubState> {
        self.state.lock().expect("telemetry hub")
    }

    fn worker_mut(state: &mut HubState, worker: usize) -> &mut WorkerHealth {
        if let Some(at) = state.workers.iter().position(|w| w.worker == worker) {
            return &mut state.workers[at];
        }
        state.workers.push(WorkerHealth {
            worker,
            beats: 0,
            last_beat: Instant::now(),
            done: false,
            stalled: false,
            last_now_ns: 0,
        });
        state.workers.sort_by_key(|w| w.worker);
        let at = state.workers.iter().position(|w| w.worker == worker).expect("just inserted");
        &mut state.workers[at]
    }

    fn vm_mut(state: &mut HubState, vm: VmId, worker: usize) -> &mut VmStatus {
        if let Some(at) = state.vms.iter().position(|s| s.vm == vm) {
            return &mut state.vms[at];
        }
        state.vms.push(VmStatus {
            vm,
            phase: VmPhase::Building,
            worker,
            slices: 0,
            probe: VmProbe::default(),
            findings: 0,
            halted: false,
        });
        state.vms.sort_by_key(|s| s.vm.0);
        let at = state.vms.iter().position(|s| s.vm == vm).expect("just inserted");
        &mut state.vms[at]
    }

    /// A worker thread entered its loop.
    pub fn worker_started(&self, worker: usize) {
        let mut state = self.lock();
        let w = Self::worker_mut(&mut state, worker);
        w.last_beat = Instant::now();
    }

    /// A worker thread exited its loop (it can no longer stall).
    pub fn worker_done(&self, worker: usize) {
        let mut state = self.lock();
        let w = Self::worker_mut(&mut state, worker);
        w.done = true;
        w.stalled = false;
        state.degraded = state.workers.iter().any(|w| w.stalled);
    }

    /// `build_vm` started for `vm` on `worker`.
    pub fn vm_started(&self, vm: VmId, worker: usize) {
        let mut state = self.lock();
        Self::worker_mut(&mut state, worker).last_beat = Instant::now();
        let s = Self::vm_mut(&mut state, vm, worker);
        s.phase = VmPhase::Building;
        s.worker = worker;
    }

    /// `vm` took one slice on `worker`; `probe` is its monitoring-plane
    /// snapshot when the VM supports probing.
    pub fn vm_progress(&self, vm: VmId, worker: usize, probe: Option<VmProbe>) {
        let mut state = self.lock();
        {
            let w = Self::worker_mut(&mut state, worker);
            w.beats += 1;
            w.last_beat = Instant::now();
            if let Some(p) = &probe {
                w.last_now_ns = w.last_now_ns.max(p.now_ns);
            }
        }
        let s = Self::vm_mut(&mut state, vm, worker);
        s.phase = VmPhase::Running;
        s.worker = worker;
        s.slices += 1;
        if let Some(p) = probe {
            s.probe = p;
        }
    }

    /// `vm` finished: records its report, publishes its findings on the
    /// bus, and merges its metrics snapshot into the hub's fleet view.
    pub fn vm_finished(&self, report: &VmReport, worker: usize) {
        {
            let mut state = self.lock();
            {
                let s = Self::vm_mut(&mut state, report.vm, worker);
                s.phase = VmPhase::Done;
                s.worker = worker;
                s.findings = report.findings.len() as u64;
                s.halted = report.halted;
            }
            state.metrics.merge(&report.metrics);
            state.merged_from += 1;
            Self::worker_mut(&mut state, worker).last_beat = Instant::now();
        }
        self.bus.publish_all(report.vm, &report.findings);
    }

    /// Whether the self-watchdog currently reports the monitor degraded.
    pub fn degraded(&self) -> bool {
        self.lock().degraded
    }

    /// Snapshot of every VM's status, ascending id order.
    pub fn vms(&self) -> Vec<VmStatus> {
        self.lock().vms.clone()
    }

    /// Snapshot of every worker's health row.
    pub fn workers(&self) -> Vec<WorkerHealth> {
        self.lock().workers.clone()
    }

    /// The scrape snapshot: the merged per-VM metrics plus the telemetry
    /// plane's own series, stamped with capture time and merge provenance
    /// (how many per-VM registries contributed).
    pub fn scrape(&self) -> MetricsRegistry {
        let state = self.lock();
        let mut reg = state.metrics.clone();
        reg.counter(
            "hypertap_telemetry_findings_published_total",
            "findings published on the hub's finding bus",
            self.bus.published(),
        );
        reg.counter(
            "hypertap_telemetry_findings_dropped_total",
            "findings dropped by slow finding-bus subscribers",
            self.bus.dropped(),
        );
        reg.gauge(
            "hypertap_telemetry_subscribers",
            "live finding-bus subscribers",
            self.bus.subscriber_count() as f64,
        );
        for phase in [VmPhase::Building, VmPhase::Running, VmPhase::Done] {
            let n = state.vms.iter().filter(|s| s.phase == phase).count();
            reg.gauge_with(
                "hypertap_telemetry_vms",
                &[("phase", phase.as_str())],
                "fleet VMs by lifecycle phase",
                n as f64,
            );
        }
        reg.gauge(
            "hypertap_telemetry_workers_stalled",
            "workers the self-watchdog currently considers stalled",
            state.workers.iter().filter(|w| w.stalled).count() as f64,
        );
        reg.counter(
            "hypertap_telemetry_stall_episodes_total",
            "MonitorStalled episodes raised by the self-watchdog",
            state.stall_episodes,
        );
        reg.set_merged_from(state.merged_from);
        reg.stamp_captured_now();
        reg
    }

    /// `/healthz` body + status: `(healthy, json)`.
    pub fn healthz(&self) -> (bool, String) {
        let state = self.lock();
        let healthy = !state.degraded;
        let workers = state
            .workers
            .iter()
            .map(|w| {
                Value::Object(vec![
                    ("worker".to_owned(), Value::U64(w.worker as u64)),
                    ("beats".to_owned(), Value::U64(w.beats)),
                    ("done".to_owned(), Value::Bool(w.done)),
                    ("stalled".to_owned(), Value::Bool(w.stalled)),
                    (
                        "last_beat_age_ms".to_owned(),
                        Value::U64(w.last_beat.elapsed().as_millis() as u64),
                    ),
                ])
            })
            .collect();
        let by_phase = |phase: VmPhase| -> u64 {
            state.vms.iter().filter(|s| s.phase == phase).count() as u64
        };
        let value = Value::Object(vec![
            ("status".to_owned(), Value::Str(if healthy { "ok" } else { "degraded" }.to_owned())),
            ("workers".to_owned(), Value::Array(workers)),
            ("vms_building".to_owned(), Value::U64(by_phase(VmPhase::Building))),
            ("vms_running".to_owned(), Value::U64(by_phase(VmPhase::Running))),
            ("vms_done".to_owned(), Value::U64(by_phase(VmPhase::Done))),
            ("stall_episodes".to_owned(), Value::U64(state.stall_episodes)),
            (
                "bus".to_owned(),
                Value::Object(vec![
                    ("published".to_owned(), Value::U64(self.bus.published())),
                    ("dropped".to_owned(), Value::U64(self.bus.dropped())),
                    ("subscribers".to_owned(), Value::U64(self.bus.subscriber_count() as u64)),
                ]),
            ),
        ]);
        (healthy, serde_json::to_string_pretty(&value).expect("healthz serializes"))
    }

    /// `/vms` body: every VM's lifecycle + backpressure row.
    pub fn vms_json(&self) -> String {
        let state = self.lock();
        let rows = state
            .vms
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("vm".to_owned(), Value::U64(s.vm.0 as u64)),
                    ("phase".to_owned(), Value::Str(s.phase.as_str().to_owned())),
                    ("worker".to_owned(), Value::U64(s.worker as u64)),
                    ("slices".to_owned(), Value::U64(s.slices)),
                    ("now_ns".to_owned(), Value::U64(s.probe.now_ns)),
                    ("events_in".to_owned(), Value::U64(s.probe.events_in)),
                    ("pending_findings".to_owned(), Value::U64(s.probe.pending_findings)),
                    ("findings".to_owned(), Value::U64(s.findings)),
                    ("halted".to_owned(), Value::Bool(s.halted)),
                ])
            })
            .collect();
        serde_json::to_string_pretty(&Value::Array(rows)).expect("vms serializes")
    }

    /// One self-watchdog sweep: a worker that is not done and has made no
    /// progress for longer than `max_age` is marked stalled — raising a
    /// `MonitorStalled` finding on the bus and degrading `/healthz` — and
    /// un-marked once it beats again. Returns the findings raised by this
    /// sweep (they are already published).
    pub fn check_stalls(&self, max_age: StdDuration) -> Vec<Finding> {
        let mut raised = Vec::new();
        {
            let mut state = self.lock();
            let mut episodes = 0u64;
            for w in &mut state.workers {
                let age = w.last_beat.elapsed();
                if !w.done && age > max_age {
                    if !w.stalled {
                        w.stalled = true;
                        episodes += 1;
                        raised.push(Finding::new(
                            "selfwatch",
                            hypertap_hvsim::clock::SimTime::from_nanos(w.last_now_ns),
                            Severity::Alert,
                            format!(
                                "MonitorStalled: worker {} made no progress for {:?} \
                                     ({} beats observed)",
                                w.worker, age, w.beats
                            ),
                        ));
                    }
                } else if w.stalled {
                    w.stalled = false;
                }
            }
            state.stall_episodes += episodes;
            state.degraded = state.workers.iter().any(|w| w.stalled);
        }
        for f in &raised {
            self.bus.publish(MONITOR_VM, f);
        }
        raised
    }
}

// ---------------------------------------------------------------------------
// SelfWatch
// ---------------------------------------------------------------------------

/// The monitor self-watchdog thread: sweeps the hub's worker heartbeats
/// several times per period so a stall is noticed within one watchdog
/// period of exceeding it. Stop via [`SelfWatch::stop`]; drop is
/// best-effort and never blocks.
pub struct SelfWatch {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl SelfWatch {
    /// Starts watching `hub` with the given stall period.
    pub fn start(hub: Arc<TelemetryHub>, period: StdDuration) -> SelfWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // Sweeping at period/4 bounds detection delay to one sweep past
        // the stall threshold: degradation within one period of wedging.
        let sweep = period / 4;
        let handle = std::thread::Builder::new()
            .name("hypertap-selfwatch".to_owned())
            .spawn(move || {
                while !flag.load(Ordering::SeqCst) {
                    std::thread::sleep(sweep);
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    hub.check_stalls(period);
                }
            })
            .expect("spawn selfwatch");
        SelfWatch { stop, handle: Some(handle) }
    }

    /// Stops the watchdog and joins its thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SelfWatch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.take();
    }
}

// ---------------------------------------------------------------------------
// TelemetryServer
// ---------------------------------------------------------------------------

/// The telemetry HTTP/1.1 server. Same lifecycle as `rhc::RhcServer`: an
/// accept thread spawns one handler thread per connection, all watching a
/// shared shutdown flag; [`TelemetryServer::stop`] raises the flag, nudges
/// the accept loop with a throwaway connection, and joins.
pub struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds an ephemeral local port and starts serving `hub`.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(hub: Arc<TelemetryHub>) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("hypertap-telemetry".to_owned())
            .spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                while let Ok((stream, _)) = listener.accept() {
                    // `stop` wakes us with a throwaway connection after
                    // setting the flag; check it before serving.
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let hub = Arc::clone(&hub);
                    let conn_flag = Arc::clone(&stop_flag);
                    handlers.push(std::thread::spawn(move || {
                        serve_http_connection(stream, &hub, &conn_flag);
                    }));
                    handlers.retain(|h| !h.is_finished());
                }
                for h in handlers {
                    let _ = h.join();
                }
            })
            .expect("spawn telemetry server");
        Ok(TelemetryServer { addr, shutdown, handle: Some(handle) })
    }

    /// The address to scrape.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks every handler, and joins. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        // Best-effort, never blocking (call `stop` for a synchronous
        // shutdown): raise the flag and nudge the accept loop.
        self.shutdown.store(true, Ordering::SeqCst);
        if self.handle.is_some() {
            let _ = TcpStream::connect(self.addr);
        }
        self.handle.take();
    }
}

/// Reads one HTTP request (request line + headers) and returns the path,
/// tolerating read timeouts so the handler can notice shutdown while a
/// client dribbles its request in.
fn read_request_path(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) -> Option<String> {
    let mut request_line = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        match reader.read_line(&mut request_line) {
            Ok(0) => return None, // EOF before a full request.
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return None,
        }
    }
    // GET /path HTTP/1.1
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?.to_owned();
    if method != "GET" {
        return Some(format!("!{method}"));
    }
    // Drain headers up to the blank line; ignore their contents.
    let mut header = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    Some(path)
}

fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Streams the finding bus as NDJSON until the client disconnects or the
/// server shuts down. The subscriber is bounded, so a stalled client
/// drops findings rather than backing the bus up.
fn stream_findings(stream: &mut TcpStream, hub: &TelemetryHub, shutdown: &AtomicBool) {
    let sub = hub.subscribe(DEFAULT_SUBSCRIBER_CAPACITY);
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                Connection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    while !shutdown.load(Ordering::SeqCst) {
        let batch = sub.drain();
        for (vm, f) in &batch {
            let mut line = finding_json(*vm, f);
            line.push('\n');
            if stream.write_all(line.as_bytes()).is_err() {
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
        std::thread::sleep(StdDuration::from_millis(25));
    }
}

fn serve_http_connection(mut stream: TcpStream, hub: &TelemetryHub, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(StdDuration::from_millis(25)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let Some(path) = read_request_path(&mut reader, shutdown) else {
        return;
    };
    let route = path.split('?').next().unwrap_or("");
    match route {
        "/metrics" => {
            let body = hub.scrape().to_prometheus();
            write_response(&mut stream, "200 OK", "text/plain; version=0.0.4", &body);
        }
        "/metrics.json" => {
            let body = hub.scrape().to_json();
            write_response(&mut stream, "200 OK", "application/json", &body);
        }
        "/healthz" => {
            let (healthy, body) = hub.healthz();
            let status = if healthy { "200 OK" } else { "503 Service Unavailable" };
            write_response(&mut stream, status, "application/json", &body);
        }
        "/vms" => {
            write_response(&mut stream, "200 OK", "application/json", &hub.vms_json());
        }
        "/findings" => stream_findings(&mut stream, hub, shutdown),
        p if p.starts_with('!') => {
            write_response(
                &mut stream,
                "405 Method Not Allowed",
                "text/plain",
                "only GET is supported\n",
            );
        }
        _ => {
            write_response(
                &mut stream,
                "404 Not Found",
                "text/plain",
                "unknown path; try /metrics /metrics.json /healthz /vms /findings\n",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::DeliveryStats;
    use crate::fleet::{run_fleet, FleetConfig, FleetHost, FleetVm, FleetWorkload, SliceOutcome};
    use hypertap_hvsim::clock::SimTime;
    use std::io::Read as _;

    fn mk_finding(i: u64) -> Finding {
        Finding::new("t", SimTime::from_nanos(i), Severity::Info, format!("f{i}"))
    }

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
        stream.write_all(req.as_bytes()).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").expect("complete response");
        let status = head.lines().next().unwrap_or("").to_owned();
        (status, body.to_owned())
    }

    #[test]
    fn bus_delivers_in_order_and_unsubscribes_on_drop() {
        let bus = FindingBus::new();
        let sub = bus.subscribe(16);
        bus.publish(VmId(1), &mk_finding(1));
        bus.publish(VmId(2), &mk_finding(2));
        let got = sub.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, VmId(1));
        assert_eq!(got[1].1.message, "f2");
        assert_eq!(bus.published(), 2);
        assert_eq!(bus.subscriber_count(), 1);
        drop(sub);
        assert_eq!(bus.subscriber_count(), 0);
        // Publishing with no subscribers is fine and drops nothing.
        bus.publish(VmId(3), &mk_finding(3));
        assert_eq!(bus.dropped(), 0);
    }

    #[test]
    fn slow_subscriber_drops_are_counted_per_subscriber() {
        let bus = FindingBus::new();
        let slow = bus.subscribe(2);
        let fast = bus.subscribe(100);
        for i in 0..10 {
            bus.publish(VmId(0), &mk_finding(i));
        }
        assert_eq!(slow.dropped(), 8, "capacity 2 keeps 2 of 10");
        assert_eq!(slow.drain().len(), 2);
        assert_eq!(fast.dropped(), 0);
        assert_eq!(fast.drain().len(), 10);
        assert_eq!(bus.dropped(), 8);
        // After draining, the slow queue has room again.
        bus.publish(VmId(0), &mk_finding(99));
        assert_eq!(slow.drain().len(), 1);
        assert_eq!(slow.dropped(), 8);
    }

    #[test]
    fn finding_json_is_one_parseable_line() {
        let f = Finding::new(
            "goshd",
            SimTime::from_millis(310),
            Severity::Alert,
            "vcpu0 \"hung\"\nbadly",
        )
        .with_provenance(vec![crate::event::EventRef(4), crate::event::EventRef(9)]);
        let line = finding_json(VmId(7), &f);
        assert!(!line.contains('\n'), "NDJSON lines must not wrap: {line:?}");
        let v: Value = serde_json::from_str(&line).expect("line parses");
        assert_eq!(v.get("vm"), Some(&Value::U64(7)));
        assert_eq!(v.get("auditor"), Some(&Value::Str("goshd".to_owned())));
        assert_eq!(v.get("severity"), Some(&Value::Str("ALERT".to_owned())));
        let Some(Value::Array(prov)) = v.get("provenance") else {
            panic!("provenance must be an array");
        };
        assert_eq!(prov.len(), 2);
    }

    /// A stub fleet VM that emits one finding per slice via its report.
    struct ChattyVm {
        id: VmId,
        slices: u64,
        taken: u64,
        block: Option<Arc<AtomicBool>>,
    }

    impl FleetVm for ChattyVm {
        fn step_slice(&mut self) -> SliceOutcome {
            if let Some(gate) = &self.block {
                while gate.load(Ordering::SeqCst) {
                    std::thread::sleep(StdDuration::from_millis(1));
                }
            }
            self.taken += 1;
            if self.taken >= self.slices {
                SliceOutcome::Done
            } else {
                SliceOutcome::Running
            }
        }

        fn finish(&mut self) -> VmReport {
            let findings = (0..self.taken)
                .map(|i| {
                    Finding::new(
                        "stub",
                        SimTime::from_nanos(self.id.0 as u64 * 1000 + i),
                        Severity::Info,
                        format!("vm {} slice {i}", self.id.0),
                    )
                })
                .collect();
            VmReport {
                vm: self.id,
                findings,
                stats: DeliveryStats { events_in: self.taken, ..Default::default() },
                metrics: MetricsRegistry::new(),
                halted: false,
                payload: Vec::new(),
            }
        }
    }

    struct ChattyFleet {
        slices: u64,
        block_vm0: Option<Arc<AtomicBool>>,
    }

    impl FleetWorkload for ChattyFleet {
        fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
            let block = if vm.0 == 0 { self.block_vm0.clone() } else { None };
            Box::new(ChattyVm { id: vm, slices: self.slices, taken: 0, block })
        }
    }

    fn report_fingerprint(report: &crate::fleet::FleetReport) -> Vec<(VmId, Vec<Finding>, u64)> {
        report.per_vm.iter().map(|r| (r.vm, r.findings.clone(), r.stats.events_in)).collect()
    }

    #[test]
    fn fleet_results_are_bit_identical_with_zero_vs_many_subscribers() {
        let workload = Arc::new(ChattyFleet { slices: 4, block_vm0: None });
        let plain = run_fleet(Arc::clone(&workload) as _, FleetConfig::new(8, 3));

        let hub = Arc::new(TelemetryHub::new());
        let _many: Vec<FindingSubscriber> = vec![
            hub.subscribe(1), // pathologically slow
            hub.subscribe(4),
            hub.subscribe(1024),
        ];
        let host = FleetHost::launch_with_telemetry(
            Arc::clone(&workload) as _,
            FleetConfig::new(8, 3),
            Arc::clone(&hub),
        );
        let observed = host.join();
        assert_eq!(
            report_fingerprint(&plain),
            report_fingerprint(&observed),
            "telemetry plane must not perturb fleet results"
        );
        // The bus saw every finding exactly once (4 per VM × 8 VMs).
        assert_eq!(hub.bus().published(), 32);
        assert!(hub.bus().dropped() > 0, "the capacity-1 subscriber must have dropped");
    }

    #[test]
    fn subscriber_churn_during_a_running_fleet_is_safe() {
        let hub = Arc::new(TelemetryHub::new());
        let churn_hub = Arc::clone(&hub);
        let stop = Arc::new(AtomicBool::new(false));
        let churn_stop = Arc::clone(&stop);
        let churner = std::thread::spawn(move || {
            let mut drained = 0u64;
            while !churn_stop.load(Ordering::SeqCst) {
                let sub = churn_hub.subscribe(8);
                drained += sub.drain().len() as u64;
                drop(sub);
            }
            drained
        });
        let report = FleetHost::launch_with_telemetry(
            Arc::new(ChattyFleet { slices: 6, block_vm0: None }),
            FleetConfig::new(12, 4),
            Arc::clone(&hub),
        )
        .join();
        stop.store(true, Ordering::SeqCst);
        churner.join().expect("churner survives");
        assert_eq!(report.per_vm.len(), 12);
        assert_eq!(hub.bus().published(), 12 * 6);
        assert_eq!(hub.bus().subscriber_count(), 0);
    }

    #[test]
    fn hub_tracks_vm_lifecycle_and_worker_beats() {
        let hub = Arc::new(TelemetryHub::new());
        let report = FleetHost::launch_with_telemetry(
            Arc::new(ChattyFleet { slices: 3, block_vm0: None }),
            FleetConfig::new(4, 2),
            Arc::clone(&hub),
        )
        .join();
        assert_eq!(report.per_vm.len(), 4);
        let vms = hub.vms();
        assert_eq!(vms.len(), 4);
        for s in &vms {
            assert_eq!(s.phase, VmPhase::Done);
            assert_eq!(s.slices, 3);
            assert_eq!(s.findings, 3);
        }
        let workers = hub.workers();
        assert_eq!(workers.len(), 2);
        assert!(workers.iter().all(|w| w.done));
        assert_eq!(workers.iter().map(|w| w.beats).sum::<u64>(), 4 * 3);
        let scrape = hub.scrape();
        assert!(scrape.captured_at_unix_ns().is_some(), "scrape must be stamped");
        assert_eq!(scrape.merged_from(), 4, "one merged registry per finished VM");
        assert_eq!(
            scrape.find("hypertap_telemetry_findings_published_total", &[]).unwrap().as_counter(),
            Some(12)
        );
    }

    #[test]
    fn http_endpoints_serve_metrics_health_and_vms() {
        let hub = Arc::new(TelemetryHub::new());
        hub.vm_progress(VmId(0), 0, Some(VmProbe { now_ns: 123, ..Default::default() }));
        let mut server = TelemetryServer::start(Arc::clone(&hub)).expect("server starts");
        let addr = server.addr();

        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("hypertap_telemetry_findings_published_total 0"));

        let (status, body) = http_get(addr, "/metrics.json");
        assert!(status.contains("200"), "{status}");
        let reg = MetricsRegistry::from_json(&body).expect("scrape JSON parses");
        assert!(reg.captured_at_unix_ns().is_some());

        let (status, body) = http_get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"status\": \"ok\""), "{body}");

        let (status, body) = http_get(addr, "/vms");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"now_ns\": 123"), "{body}");

        let (status, _) = http_get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        server.stop();
        server.stop(); // idempotent
    }

    #[test]
    fn findings_endpoint_streams_ndjson_live() {
        let hub = Arc::new(TelemetryHub::new());
        let mut server = TelemetryServer::start(Arc::clone(&hub)).expect("server starts");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"GET /findings HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        stream.set_read_timeout(Some(StdDuration::from_millis(50))).expect("read timeout");
        let mut reader = BufReader::new(stream);
        // Publish after the subscription is live: wait for the headers.
        let mut line = String::new();
        let deadline = Instant::now() + StdDuration::from_secs(5);
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(_) if line.trim().is_empty() && !line.is_empty() => break,
                Ok(0) => panic!("server closed before headers finished"),
                Ok(_) => {}
                Err(_) => {}
            }
            assert!(Instant::now() < deadline, "headers never arrived");
        }
        // Wait until the stream's subscriber is registered, then publish.
        while hub.bus().subscriber_count() == 0 {
            assert!(Instant::now() < deadline, "stream subscriber never registered");
            std::thread::sleep(StdDuration::from_millis(5));
        }
        hub.bus().publish(VmId(3), &mk_finding(42));
        let mut got = String::new();
        loop {
            got.clear();
            match reader.read_line(&mut got) {
                Ok(n) if n > 0 && !got.trim().is_empty() => break,
                _ => {}
            }
            assert!(Instant::now() < deadline, "finding line never arrived");
        }
        let v: Value = serde_json::from_str(got.trim()).expect("NDJSON line parses");
        assert_eq!(v.get("vm"), Some(&Value::U64(3)));
        assert_eq!(v.get("message"), Some(&Value::Str("f42".to_owned())));
        server.stop();
    }

    #[test]
    fn healthz_degrades_within_one_watchdog_period_when_a_worker_stalls() {
        let gate = Arc::new(AtomicBool::new(true)); // VM 0 blocks while true
        let hub = Arc::new(TelemetryHub::new());
        let sub = hub.subscribe(64);
        let host = FleetHost::launch_with_telemetry(
            Arc::new(ChattyFleet { slices: 3, block_vm0: Some(Arc::clone(&gate)) }),
            FleetConfig::new(2, 2),
            Arc::clone(&hub),
        );
        let period = StdDuration::from_millis(150);
        let mut watch = SelfWatch::start(Arc::clone(&hub), period);
        let mut server = TelemetryServer::start(Arc::clone(&hub)).expect("server starts");

        // VM 0's worker is wedged inside its slice; /healthz must flip to
        // degraded within one watchdog period of the stall exceeding it.
        let deadline = Instant::now() + StdDuration::from_secs(10);
        loop {
            let (status, body) = http_get(server.addr(), "/healthz");
            if status.contains("503") {
                assert!(body.contains("\"status\": \"degraded\""), "{body}");
                break;
            }
            assert!(Instant::now() < deadline, "/healthz never degraded: {status}");
            std::thread::sleep(StdDuration::from_millis(20));
        }
        // The watchdog raised MonitorStalled on the bus.
        let mut stalled_seen = false;
        while Instant::now() < deadline && !stalled_seen {
            stalled_seen = sub
                .drain()
                .iter()
                .any(|(vm, f)| *vm == MONITOR_VM && f.message.contains("MonitorStalled"));
            if !stalled_seen {
                std::thread::sleep(StdDuration::from_millis(10));
            }
        }
        assert!(stalled_seen, "MonitorStalled finding never published");

        // Unblock: the worker recovers, health returns to ok.
        gate.store(false, Ordering::SeqCst);
        let report = host.join();
        assert_eq!(report.per_vm.len(), 2);
        loop {
            let (status, _) = http_get(server.addr(), "/healthz");
            if status.contains("200") {
                break;
            }
            assert!(Instant::now() < deadline, "/healthz never recovered");
            std::thread::sleep(StdDuration::from_millis(20));
        }
        watch.stop();
        server.stop();
    }

    #[test]
    fn aggregator_bus_tap_publishes_on_absorb() {
        let bus = FindingBus::new();
        let sub = bus.subscribe(16);
        let mut agg = crate::fleet::FleetAggregator::new();
        agg.attach_bus(bus.clone());
        let report = VmReport {
            vm: VmId(5),
            findings: vec![mk_finding(1), mk_finding(2)],
            stats: DeliveryStats::default(),
            metrics: MetricsRegistry::new(),
            halted: false,
            payload: Vec::new(),
        };
        agg.absorb(&report);
        let got = sub.drain();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(vm, _)| *vm == VmId(5)));
    }
}
