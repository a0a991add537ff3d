//! The Event Multiplexer (EM) — HyperTap's unified delivery hub.
//!
//! The EM receives every decoded event from the Event Forwarder exactly once
//! (the "blocking logging" phase) and fans it out to the registered
//! auditors. Two delivery paths exist, matching the paper's Fig. 2:
//!
//! * **Synchronous auditors** ([`crate::audit::Auditor`]) run in-line during
//!   exit handling, with mutable access to the VM. This is the *blocking*
//!   mode: an auditor can pause the VM or suppress the intercepted
//!   operation before it takes architectural effect. Deterministic; the
//!   default for experiments.
//! * **Audit containers** ([`ContainerAuditor`]) run on their own host
//!   threads behind a channel, mirroring the paper's LXC-container
//!   deployment: delivery is non-blocking for the guest, and a panicking
//!   auditor is caught, counted and restarted from its factory without
//!   affecting the VM, other auditors, or the host — the lightweight fault
//!   isolation argued for in §V-C.
//!
//! The EM also samples the raw exit stream to the Remote Health Checker
//! (§V-C): if the monitoring stack itself dies, the RHC's heartbeat gap
//! raises the alarm.
//!
//! # Hot path
//!
//! Fan-out sits on the exit path, so it is engineered to do no avoidable
//! per-event work:
//!
//! * A **precomputed routing table** (one slot per [`EventClass`], each
//!   listing exactly the subscribed auditor and container indices) is built
//!   at registration time and invalidated on attach/detach or
//!   re-subscription ([`EventMultiplexer::refresh_subscriptions`]). Fan-out
//!   walks only the subscribers of the event's class — no per-event mask
//!   tests against every auditor — and an empty slot short-circuits the
//!   whole event, counted in [`DeliveryStats::fast_skipped`] exactly as the
//!   older combined-mask check did.
//! * [`EventMultiplexer::deliver_all`] fans a whole exit's decoded events
//!   out in one call — the path the Event Forwarder ([`crate::kvm::Kvm`])
//!   uses — with one finding sink, one dispatch-latency observation and
//!   flight absorption only for events that actually produced findings or
//!   transitions.
//! * Container delivery is **zero-copy**: one `Arc<Event>` is built per
//!   event (lazily, only if some container is subscribed) and each
//!   subscribed container receives a reference-count bump instead of a full
//!   `Event` copy. This also shrinks every channel message — including
//!   `Tick`, which previously paid for the largest enum variant (a whole
//!   inline `Event`) on each send.
//! * Findings from synchronous auditors accumulate into a single sink that
//!   borrows the EM's own buffer via `mem::take`, instead of allocating a
//!   fresh `Vec` per auditor per event.

use crate::audit::{Auditor, Finding, FindingSink, Severity};
use crate::event::{Event, EventClass, EventMask, EventRef, VmId};
use crate::flight::{panic_message, FlightRecorder};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::rhc::{HeartbeatSample, RhcTransport};
use crate::telemetry::FindingBus;
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// An auditor that runs inside an audit container (own thread, no VM
/// access). Containerised audit is inherently after-the-fact: it can detect
/// and report, but not block the intercepted operation.
pub trait ContainerAuditor: Send {
    /// Name used in findings.
    fn name(&self) -> &str;

    /// Event classes to deliver.
    fn subscriptions(&self) -> EventMask;

    /// Handles one event, returning any findings.
    fn on_event(&mut self, event: &Event) -> Vec<Finding>;

    /// Periodic callback, returning any findings.
    fn on_tick(&mut self, _now: SimTime) -> Vec<Finding> {
        Vec::new()
    }
}

/// Factory that (re)builds a container auditor; used for restart after a
/// panic.
pub type ContainerFactory = Box<dyn Fn() -> Box<dyn ContainerAuditor> + Send>;

/// A passive observer at the Event Forwarder boundary.
///
/// A tap sees every event the EM receives — *before* subscription
/// filtering, so even events no auditor claimed are observed — plus every
/// periodic tick, in exactly the interleaving the auditors experienced.
/// Trace recorders (`hypertap-replay`) attach here: replaying the recorded
/// (event | tick) stream into a fresh EM reproduces the audit phase
/// bit-for-bit without re-running the simulator.
///
/// Taps must not mutate anything the guest can observe; they are the
/// record half of record–replay, and a tap with side effects would make
/// the recorded history diverge from the unrecorded one.
pub trait EventTap {
    /// Called once per forwarded event, before fan-out.
    fn on_event(&mut self, event: &Event);

    /// Called once per EM periodic tick, before auditors run.
    fn on_tick(&mut self, _now: SimTime) {}
}

/// Fans the single EM tap slot out to two taps, first then second, for
/// callers that need to observe the stream twice in one pass — e.g. the
/// scenario fuzzer recording a trace while folding a coverage map.
pub struct TeeTap {
    first: Box<dyn EventTap>,
    second: Box<dyn EventTap>,
}

impl TeeTap {
    /// Combines two taps; `first` sees every callback before `second`.
    pub fn new(first: Box<dyn EventTap>, second: Box<dyn EventTap>) -> TeeTap {
        TeeTap { first, second }
    }
}

impl EventTap for TeeTap {
    fn on_event(&mut self, event: &Event) {
        self.first.on_event(event);
        self.second.on_event(event);
    }

    fn on_tick(&mut self, now: SimTime) {
        self.first.on_tick(now);
        self.second.on_tick(now);
    }
}

enum ContainerMsg {
    /// Shared, not copied: every subscribed container gets the same
    /// allocation.
    Event(Arc<Event>),
    Tick(SimTime),
    Stop,
}

struct Container {
    name: String,
    mask: EventMask,
    tx: Sender<ContainerMsg>,
    handle: Option<JoinHandle<u64>>, // returns restart count
    /// Messages sent but not yet processed by the worker (Stop excluded).
    /// Incremented host-side on send, decremented by the worker thread —
    /// a live queue-depth gauge for the snapshot exporter.
    depth: Arc<AtomicU64>,
    /// Events enqueued to this container over its lifetime.
    enqueued: u64,
}

/// Delivery statistics (queried by benchmarks and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Events that entered fan-out (pre-filter, one per forwarded event).
    pub events_in: u64,
    /// Events delivered to synchronous auditors (per-auditor deliveries).
    pub sync_delivered: u64,
    /// Events enqueued to containers (per-container deliveries).
    pub container_enqueued: u64,
    /// Events that matched no subscription at all.
    pub unclaimed: u64,
    /// Unclaimed events rejected by the combined-mask check alone, before
    /// any per-auditor or per-container work.
    pub fast_skipped: u64,
    /// Exit-stream samples forwarded to the RHC.
    pub rhc_samples: u64,
}

impl DeliveryStats {
    /// Adds another VM's counters field-wise — the fleet aggregator's
    /// merge. Commutative, associative, and the default value is the
    /// identity.
    pub fn merge(&mut self, other: DeliveryStats) {
        self.events_in += other.events_in;
        self.sync_delivered += other.sync_delivered;
        self.container_enqueued += other.container_enqueued;
        self.unclaimed += other.unclaimed;
        self.fast_skipped += other.fast_skipped;
        self.rhc_samples += other.rhc_samples;
    }
}

struct RhcHook {
    transport: Box<dyn RhcTransport>,
    every: u64,
    seen: u64,
    seq: u64,
}

#[derive(Default)]
struct LocalSink {
    findings: Vec<Finding>,
    suppress: bool,
    /// Ref of the event being fanned out right now (None during ticks);
    /// auditors read it via [`FindingSink::current_ref`] to stamp
    /// provenance.
    current: Option<EventRef>,
    /// Auditor state transitions reported during this fan-out; absorbed
    /// into the flight recorder after the auditor loop returns.
    transitions: Vec<(String, String)>,
}

impl FindingSink for LocalSink {
    fn report(&mut self, finding: Finding) {
        self.findings.push(finding);
    }
    fn request_suppress(&mut self) {
        self.suppress = true;
    }
    fn current_ref(&self) -> Option<EventRef> {
        self.current
    }
    fn note_transition(&mut self, auditor: &str, detail: String) {
        self.transitions.push((auditor.to_owned(), detail));
    }
}

/// One slot of the per-class routing table: the indices of exactly the
/// auditors and containers subscribed to that class, in registration order
/// (delivery order is part of the determinism contract).
#[derive(Debug, Clone, Default)]
struct RouteEntry {
    auditors: Vec<usize>,
    containers: Vec<usize>,
}

impl RouteEntry {
    fn is_empty(&self) -> bool {
        self.auditors.is_empty() && self.containers.is_empty()
    }
}

/// One recorded audit-container panic (satellite of the flight recorder:
/// the restart path used to drop the payload on the floor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerPanic {
    /// Container name.
    pub container: String,
    /// The panic payload's message, best-effort.
    pub message: String,
}

/// The multiplexer itself.
pub struct EventMultiplexer {
    auditors: Vec<Box<dyn Auditor>>,
    containers: Vec<Container>,
    /// Union of every registered subscription; events outside it
    /// short-circuit. Subscriptions are sampled at registration time.
    combined_mask: EventMask,
    /// Per-class routing table, indexed by [`EventClass::index`]. Rebuilt
    /// whenever the subscriber set changes (register, container attach,
    /// shutdown, [`EventMultiplexer::refresh_subscriptions`]); fan-out walks
    /// only the listed indices instead of testing every auditor's mask.
    routing: Vec<RouteEntry>,
    findings: Vec<Finding>,
    container_findings_rx: Receiver<Finding>,
    container_findings_tx: Sender<Finding>,
    stats: DeliveryStats,
    rhc: Option<RhcHook>,
    tap: Option<Box<dyn EventTap>>,
    /// Host-side instrumentation switch: gates the wall-clock dispatch
    /// latency histogram. All other counters are plain integers and stay
    /// on unconditionally. Never observable by the simulation either way.
    metrics_enabled: bool,
    /// Events delivered per synchronous auditor, parallel to `auditors`.
    per_auditor_delivered: Vec<u64>,
    /// Host wall-clock latency of one `deliver_all` call, nanoseconds.
    dispatch_latency: Histogram,
    /// Findings drained so far, tallied by [`Severity`] discriminant.
    findings_by_severity: [u64; 3],
    /// Findings drained so far, tallied by reporting auditor name.
    findings_by_auditor: Vec<(String, u64)>,
    /// The per-VM black box: bounded ring of recent events, transitions,
    /// findings, panics and spans. Always on; purely host-side (the
    /// flight-on/off conformance pair proves the stream is unchanged).
    flight: FlightRecorder,
    /// Panic payloads forwarded by container workers on restart.
    panic_rx: Receiver<(String, String)>,
    panic_tx: Sender<(String, String)>,
    /// Every recorded container panic, in drain order.
    panic_log: Vec<ContainerPanic>,
    /// Panic totals per container name.
    panics_by_container: Vec<(String, u64)>,
    /// When set, each container panic also serializes the flight recorder
    /// to a `.htfr` file under this directory.
    flight_dump_dir: Option<PathBuf>,
    /// Dump files written so far.
    flight_dump_paths: Vec<PathBuf>,
    /// Live telemetry tap: every finding drained via
    /// [`EventMultiplexer::drain_findings`] is also published on this bus,
    /// tagged with the VM id. Host-side only — never serialized with EM
    /// state, never observable by the simulation.
    finding_bus: Option<(FindingBus, VmId)>,
}

impl std::fmt::Debug for EventMultiplexer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventMultiplexer")
            .field("auditors", &self.auditors.len())
            .field("containers", &self.containers.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Default for EventMultiplexer {
    fn default() -> Self {
        EventMultiplexer::new()
    }
}

impl EventMultiplexer {
    /// Creates an empty multiplexer.
    pub fn new() -> Self {
        let (tx, rx) = channel();
        let (panic_tx, panic_rx) = channel();
        EventMultiplexer {
            auditors: Vec::new(),
            containers: Vec::new(),
            combined_mask: EventMask::NONE,
            routing: vec![RouteEntry::default(); EventClass::ALL.len()],
            findings: Vec::new(),
            container_findings_rx: rx,
            container_findings_tx: tx,
            stats: DeliveryStats::default(),
            rhc: None,
            tap: None,
            metrics_enabled: false,
            per_auditor_delivered: Vec::new(),
            dispatch_latency: Histogram::latency_ns(),
            findings_by_severity: [0; 3],
            findings_by_auditor: Vec::new(),
            flight: FlightRecorder::default(),
            panic_rx,
            panic_tx,
            panic_log: Vec::new(),
            panics_by_container: Vec::new(),
            flight_dump_dir: None,
            flight_dump_paths: Vec::new(),
            finding_bus: None,
        }
    }

    /// Attaches a live [`FindingBus`] tap: every finding subsequently
    /// drained via [`EventMultiplexer::drain_findings`] is also published
    /// on the bus, tagged as coming from `vm`. The tap is host-side
    /// observation only — it never blocks the exit pipeline (slow
    /// subscribers drop, counted on the bus) and is not part of EM
    /// serialized state.
    pub fn set_finding_bus(&mut self, bus: FindingBus, vm: VmId) {
        self.finding_bus = Some((bus, vm));
    }

    /// Detaches the telemetry tap, if any.
    pub fn clear_finding_bus(&mut self) {
        self.finding_bus = None;
    }

    /// Enables or disables the host wall-clock dispatch-latency histogram.
    /// Purely host-side; the simulated event stream is identical either way
    /// (enforced by the metrics-on/off conformance pair).
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics_enabled = on;
    }

    /// Whether dispatch-latency instrumentation is on.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics_enabled
    }

    /// Attaches an [`EventTap`] observing the full pre-filter event and
    /// tick stream. At most one tap is attached; a previous tap is
    /// returned so callers can chain or finish it.
    pub fn attach_tap(&mut self, tap: Box<dyn EventTap>) -> Option<Box<dyn EventTap>> {
        self.tap.replace(tap)
    }

    /// Detaches the tap, if any.
    pub fn detach_tap(&mut self) -> Option<Box<dyn EventTap>> {
        self.tap.take()
    }

    /// Registers a synchronous auditor.
    pub fn register(&mut self, auditor: Box<dyn Auditor>) {
        self.combined_mask = self.combined_mask.union(auditor.subscriptions());
        self.auditors.push(auditor);
        self.per_auditor_delivered.push(0);
        self.rebuild_routing();
    }

    /// Rebuilds the per-class routing table from the current subscription
    /// masks. Registration-time cost, so the hot path never re-derives it.
    fn rebuild_routing(&mut self) {
        for entry in &mut self.routing {
            entry.auditors.clear();
            entry.containers.clear();
        }
        for class in EventClass::ALL {
            let slot = class.index();
            for (i, a) in self.auditors.iter().enumerate() {
                if a.subscriptions().contains(class) {
                    self.routing[slot].auditors.push(i);
                }
            }
            for (ci, c) in self.containers.iter().enumerate() {
                if c.mask.contains(class) {
                    self.routing[slot].containers.push(ci);
                }
            }
        }
    }

    /// Invalidates the routing table and combined mask after an auditor
    /// changed its subscriptions in place (the table is otherwise sampled
    /// at registration time). Containers keep the mask their factory
    /// declared.
    pub fn refresh_subscriptions(&mut self) {
        self.combined_mask = self
            .auditors
            .iter()
            .map(|a| a.subscriptions())
            .chain(self.containers.iter().map(|c| c.mask))
            .fold(EventMask::NONE, EventMask::union);
        self.rebuild_routing();
    }

    /// Number of registered synchronous auditors.
    pub fn auditor_count(&self) -> usize {
        self.auditors.len()
    }

    /// Looks up a registered synchronous auditor by concrete type.
    pub fn auditor<A: Auditor + 'static>(&self) -> Option<&A> {
        self.auditors.iter().find_map(|a| a.as_any().downcast_ref::<A>())
    }

    /// Mutable lookup of a registered synchronous auditor by concrete type.
    pub fn auditor_mut<A: Auditor + 'static>(&mut self) -> Option<&mut A> {
        self.auditors.iter_mut().find_map(|a| a.as_any_mut().downcast_mut::<A>())
    }

    /// Spawns an audit container from a factory. The factory is re-invoked
    /// to rebuild the auditor if it panics (failure isolation).
    pub fn register_container(&mut self, factory: ContainerFactory) {
        let prototype = factory();
        let name = prototype.name().to_owned();
        let mask = prototype.subscriptions();
        self.combined_mask = self.combined_mask.union(mask);
        let (tx, rx) = channel::<ContainerMsg>();
        let findings_tx = self.container_findings_tx.clone();
        let panic_tx = self.panic_tx.clone();
        let worker_name = name.clone();
        let depth = Arc::new(AtomicU64::new(0));
        let worker_depth = Arc::clone(&depth);
        let handle = std::thread::spawn(move || {
            let mut auditor = prototype;
            let mut restarts = 0u64;
            while let Ok(msg) = rx.recv() {
                let result = catch_unwind(AssertUnwindSafe(|| match &msg {
                    ContainerMsg::Event(e) => auditor.on_event(e),
                    ContainerMsg::Tick(now) => auditor.on_tick(*now),
                    ContainerMsg::Stop => Vec::new(),
                }));
                if matches!(msg, ContainerMsg::Stop) {
                    break;
                }
                worker_depth.fetch_sub(1, Ordering::Relaxed);
                match result {
                    Ok(findings) => {
                        for f in findings {
                            let _ = findings_tx.send(f);
                        }
                    }
                    Err(payload) => {
                        // The container absorbed the failure: rebuild the
                        // auditor and keep serving. The VM, the EM and the
                        // other auditors never notice — but the payload is
                        // preserved for metrics and the flight recorder.
                        restarts += 1;
                        let _ = panic_tx.send((worker_name.clone(), panic_message(payload)));
                        auditor = factory();
                    }
                }
            }
            restarts
        });
        self.containers.push(Container {
            name,
            mask,
            tx,
            handle: Some(handle),
            depth,
            enqueued: 0,
        });
        self.rebuild_routing();
    }

    /// Number of running audit containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Attaches a Remote Health Checker transport: every `every`-th exit is
    /// forwarded as a heartbeat sample.
    pub fn attach_rhc(&mut self, transport: Box<dyn RhcTransport>, every: u64) {
        assert!(every > 0, "sampling period must be positive");
        self.rhc = Some(RhcHook { transport, every, seen: 0, seq: 0 });
    }

    /// Fans one event out to subscribed auditors and containers, collecting
    /// synchronous findings into `sink`.
    fn fan_out(&mut self, vm: &mut VmState, event: &Event, sink: &mut LocalSink) {
        if let Some(tap) = &mut self.tap {
            tap.on_event(event);
        }
        // The flight recorder shares the tap's pre-filter vantage point:
        // the ref it assigns is the event's position in the forwarded
        // stream, which is also its index among a recorded trace's event
        // records. Sequencing advances even with recording disabled, so
        // provenance is identical flight-on and flight-off.
        sink.current = Some(self.flight.observe_event(event));
        self.stats.events_in += 1;
        let route = &self.routing[event.class().index()];
        if route.is_empty() {
            // Nobody anywhere subscribed: one table lookup and we are done.
            self.stats.unclaimed += 1;
            self.stats.fast_skipped += 1;
            return;
        }
        // Disjoint field borrows: the route is read-only while the auditors
        // and counters are mutated.
        for &i in &route.auditors {
            self.auditors[i].on_event(vm, event, sink);
            self.stats.sync_delivered += 1;
            self.per_auditor_delivered[i] += 1;
        }
        // One shared allocation per event, built only if some container is
        // subscribed; each delivery is a refcount bump.
        let mut shared: Option<Arc<Event>> = None;
        for &ci in &route.containers {
            let c = &mut self.containers[ci];
            let arc = shared.get_or_insert_with(|| Arc::new(*event));
            c.depth.fetch_add(1, Ordering::Relaxed);
            let _ = c.tx.send(ContainerMsg::Event(Arc::clone(arc)));
            c.enqueued += 1;
            self.stats.container_enqueued += 1;
        }
    }

    /// Moves the transitions and new findings a fan-out produced into the
    /// flight recorder, stamped at `time`.
    fn absorb_flight(&mut self, sink: &mut LocalSink, since: usize, time: SimTime) {
        for (auditor, detail) in sink.transitions.drain(..) {
            self.flight.note_transition(time, &auditor, detail);
        }
        for f in &sink.findings[since..] {
            self.flight.note_finding(f);
        }
    }

    /// Dispatches one event to everything subscribed. Returns `true` if any
    /// synchronous auditor requested suppression of the intercepted
    /// operation.
    pub fn dispatch(&mut self, vm: &mut VmState, event: &Event) -> bool {
        self.deliver_all(vm, std::slice::from_ref(event))
    }

    /// Dispatches every event decoded from one exit, in order, with the
    /// bookkeeping amortized across the slice: one finding sink, one
    /// dispatch-latency observation, and flight absorption only for events
    /// that actually produced findings or transitions (so each finding
    /// record lands right after the event that caused it). Returns `true`
    /// if any synchronous auditor requested suppression.
    pub fn deliver_all(&mut self, vm: &mut VmState, events: &[Event]) -> bool {
        let started = if self.metrics_enabled { Some(std::time::Instant::now()) } else { None };
        let mut sink =
            LocalSink { findings: std::mem::take(&mut self.findings), ..LocalSink::default() };
        for event in events {
            let since = sink.findings.len();
            self.fan_out(vm, event, &mut sink);
            if !sink.transitions.is_empty() || sink.findings.len() > since {
                self.absorb_flight(&mut sink, since, event.time);
            }
        }
        self.findings = sink.findings;
        if let Some(started) = started {
            let elapsed = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.dispatch_latency.observe(elapsed);
        }
        sink.suppress
    }

    /// Periodic tick from the host timer; drives time-based auditors.
    pub fn tick(&mut self, vm: &mut VmState, now: SimTime) {
        if let Some(tap) = &mut self.tap {
            tap.on_tick(now);
        }
        self.flight.observe_tick(now);
        let mut sink =
            LocalSink { findings: std::mem::take(&mut self.findings), ..LocalSink::default() };
        let since = sink.findings.len();
        for a in &mut self.auditors {
            a.on_tick(vm, now, &mut sink);
        }
        self.absorb_flight(&mut sink, since, now);
        self.findings = sink.findings;
        for c in &self.containers {
            c.depth.fetch_add(1, Ordering::Relaxed);
            let _ = c.tx.send(ContainerMsg::Tick(now));
        }
    }

    /// Notes one raw VM Exit for RHC sampling.
    pub fn note_exit(&mut self, time: SimTime) {
        if let Some(hook) = &mut self.rhc {
            hook.seen += 1;
            if hook.seen % hook.every == 0 {
                hook.seq += 1;
                hook.transport.send(&HeartbeatSample { time_ns: time.as_nanos(), seq: hook.seq });
                self.stats.rhc_samples += 1;
            }
        }
    }

    /// Drains every finding accumulated so far (synchronous auditors and
    /// containers alike).
    pub fn drain_findings(&mut self) -> Vec<Finding> {
        self.poll_container_panics();
        let mut out = std::mem::take(&mut self.findings);
        while let Ok(f) = self.container_findings_rx.try_recv() {
            // Synchronous findings were already recorded at fan-out time;
            // container findings only become visible here.
            self.flight.note_finding(&f);
            out.push(f);
        }
        for f in &out {
            self.findings_by_severity[f.severity as usize] += 1;
            match self.findings_by_auditor.iter_mut().find(|(name, _)| *name == f.auditor) {
                Some((_, n)) => *n += 1,
                None => self.findings_by_auditor.push((f.auditor.clone(), 1)),
            }
        }
        if let Some((bus, vm)) = &self.finding_bus {
            bus.publish_all(*vm, &out);
        }
        out
    }

    /// Findings accumulated from synchronous auditors and not yet drained.
    /// (Container findings become countable only at drain time.)
    pub fn pending_findings(&self) -> usize {
        self.findings.len()
    }

    /// Total messages queued across every audit container (sent, not yet
    /// processed) — the telemetry plane's backpressure gauge.
    pub fn container_backlog(&self) -> u64 {
        self.containers.iter().map(|c| c.depth.load(Ordering::Relaxed)).sum()
    }

    /// Delivery statistics.
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }

    /// Events delivered to the named synchronous auditor.
    pub fn delivered_to(&self, name: &str) -> Option<u64> {
        self.auditors.iter().position(|a| a.name() == name).map(|i| self.per_auditor_delivered[i])
    }

    /// The host-side dispatch-latency histogram (empty unless metrics are
    /// enabled).
    pub fn dispatch_latency(&self) -> &Histogram {
        &self.dispatch_latency
    }

    /// Messages currently queued to the named container (sent, not yet
    /// processed by its worker thread).
    pub fn container_queue_depth(&self, name: &str) -> Option<u64> {
        self.containers.iter().find(|c| c.name == name).map(|c| c.depth.load(Ordering::Relaxed))
    }

    /// Exports the EM's delivery, latency, container and findings counters
    /// into a snapshot registry.
    pub fn collect_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter(
            "hypertap_em_events_in_total",
            "events entering EM fan-out (pre-filter)",
            self.stats.events_in,
        );
        reg.counter(
            "hypertap_em_sync_delivered_total",
            "per-auditor synchronous deliveries",
            self.stats.sync_delivered,
        );
        reg.counter(
            "hypertap_em_container_enqueued_total",
            "per-container event enqueues",
            self.stats.container_enqueued,
        );
        reg.counter(
            "hypertap_em_unclaimed_total",
            "events matching no subscription",
            self.stats.unclaimed,
        );
        reg.counter(
            "hypertap_em_fast_skipped_total",
            "events rejected by the combined-mask check alone",
            self.stats.fast_skipped,
        );
        reg.gauge(
            "hypertap_em_fast_skip_ratio",
            "fraction of incoming events short-circuited by the combined mask",
            self.stats.fast_skipped as f64 / self.stats.events_in.max(1) as f64,
        );
        for (i, a) in self.auditors.iter().enumerate() {
            reg.counter_with(
                "hypertap_em_delivered_total",
                &[("auditor", a.name())],
                "events delivered per synchronous auditor",
                self.per_auditor_delivered[i],
            );
        }
        for c in &self.containers {
            reg.counter_with(
                "hypertap_container_enqueued_total",
                &[("container", &c.name)],
                "events enqueued per audit container",
                c.enqueued,
            );
        }
        for c in &self.containers {
            reg.gauge_with(
                "hypertap_container_queue_depth",
                &[("container", &c.name)],
                "messages sent to the container but not yet processed",
                c.depth.load(Ordering::Relaxed) as f64,
            );
        }
        for (sev, label) in
            [(Severity::Info, "info"), (Severity::Warning, "warning"), (Severity::Alert, "alert")]
        {
            reg.counter_with(
                "hypertap_findings_total",
                &[("severity", label)],
                "drained findings by severity",
                self.findings_by_severity[sev as usize],
            );
        }
        for (name, n) in &self.findings_by_auditor {
            reg.counter_with(
                "hypertap_findings_by_auditor_total",
                &[("auditor", name)],
                "drained findings by reporting auditor",
                *n,
            );
        }
        for (name, n) in &self.panics_by_container {
            reg.counter_with(
                "hypertap_container_panics_total",
                &[("container", name)],
                "audit-container panics caught and restarted",
                *n,
            );
        }
        reg.gauge(
            "hypertap_flight_records",
            "records currently retained by the flight recorder",
            self.flight.len() as f64,
        );
        reg.gauge(
            "hypertap_flight_capacity",
            "flight recorder ring capacity",
            self.flight.capacity() as f64,
        );
        reg.counter(
            "hypertap_flight_dropped_total",
            "flight records evicted to make room",
            self.flight.dropped(),
        );
        if !self.dispatch_latency.is_empty() {
            reg.histogram(
                "hypertap_em_dispatch_ns",
                "host wall-clock latency of one EM fan-out call, nanoseconds",
                &self.dispatch_latency,
            );
        }
        if let Some(hook) = &self.rhc {
            reg.counter(
                "hypertap_rhc_exits_seen_total",
                "raw exits observed by the RHC sampling hook",
                hook.seen,
            );
            reg.counter(
                "hypertap_rhc_samples_sent_total",
                "heartbeat samples forwarded to the RHC transport",
                hook.seq,
            );
            reg.gauge(
                "hypertap_rhc_sampling_period",
                "exits per heartbeat sample",
                hook.every as f64,
            );
        }
    }

    /// Absorbs any panic payloads container workers have forwarded since
    /// the last poll: tallies them for metrics, appends to the panic log
    /// and the flight recorder, and (if a dump directory is configured)
    /// writes a `.htfr` failure dump per panic.
    fn poll_container_panics(&mut self) {
        while let Ok((container, message)) = self.panic_rx.try_recv() {
            let count =
                match self.panics_by_container.iter_mut().find(|(name, _)| *name == container) {
                    Some((_, n)) => {
                        *n += 1;
                        *n
                    }
                    None => {
                        self.panics_by_container.push((container.clone(), 1));
                        1
                    }
                };
            self.flight.note_panic(&container, &message, count);
            if let Some(dir) = &self.flight_dump_dir {
                let path = dir
                    .join(format!("flight-{container}-panic{count}-{}.htfr", std::process::id()));
                let reason = format!("container-panic: {container}: {message}");
                if std::fs::write(&path, self.flight.dump_bytes(&reason)).is_ok() {
                    self.flight_dump_paths.push(path);
                }
            }
            self.panic_log.push(ContainerPanic { container, message });
        }
    }

    /// The per-VM flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Mutable access to the flight recorder (capacity/enable knobs, span
    /// recording from the Event Forwarder and fleet workers).
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// Directs container-panic failure dumps into `dir` (`None` disables
    /// dump files; in-memory recording is unaffected).
    pub fn set_flight_dump_dir(&mut self, dir: Option<PathBuf>) {
        self.flight_dump_dir = dir;
    }

    /// Paths of the `.htfr` failure dumps written so far.
    pub fn flight_dump_paths(&self) -> &[PathBuf] {
        &self.flight_dump_paths
    }

    /// Every container panic recorded so far (payload preserved). Call
    /// after [`EventMultiplexer::shutdown_containers`] for a complete view;
    /// while workers run, panics surface asynchronously at the next
    /// [`EventMultiplexer::drain_findings`].
    pub fn container_panics(&self) -> &[ContainerPanic] {
        &self.panic_log
    }

    /// Stops all containers, returning `(name, restart_count)` per container.
    pub fn shutdown_containers(&mut self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for c in &mut self.containers {
            let _ = c.tx.send(ContainerMsg::Stop);
        }
        for c in &mut self.containers {
            if let Some(h) = c.handle.take() {
                let restarts = h.join().unwrap_or(0);
                out.push((c.name.clone(), restarts));
            }
        }
        // Workers are joined: every forwarded panic payload is now in the
        // channel. Absorb them before the containers disappear.
        self.poll_container_panics();
        self.containers.clear();
        // Containers are gone; tighten the fast-path mask and routing table
        // back down to the synchronous subscriptions.
        self.combined_mask =
            self.auditors.iter().map(|a| a.subscriptions()).fold(EventMask::NONE, EventMask::union);
        self.rebuild_routing();
        out
    }

    /// Serializes the EM's deterministic audit-phase state for a machine
    /// snapshot: delivery counters, undrained findings, findings tallies,
    /// RHC sampling position, the flight recorder, and every synchronous
    /// auditor's state (framed by name, in registration order).
    ///
    /// Not captured: the routing table and combined mask (rebuilt from the
    /// auditor roster at registration), the attached tap (host-side; the
    /// caller re-attaches after restore), and the wall-clock dispatch-latency
    /// histogram (host instrumentation, invisible to the simulation).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Unsupported`] if audit containers are attached:
    /// container workers run on free-running host threads whose in-flight
    /// queue contents cannot be captured deterministically.
    pub fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        if !self.containers.is_empty() {
            return Err(SnapError::Unsupported {
                what: format!(
                    "EM with {} audit container(s): container queues are asynchronous host \
                     threads and cannot be snapshotted deterministically",
                    self.containers.len()
                ),
            });
        }
        w.varint(self.stats.events_in);
        w.varint(self.stats.sync_delivered);
        w.varint(self.stats.container_enqueued);
        w.varint(self.stats.unclaimed);
        w.varint(self.stats.fast_skipped);
        w.varint(self.stats.rhc_samples);
        w.varint(self.per_auditor_delivered.len() as u64);
        for n in &self.per_auditor_delivered {
            w.varint(*n);
        }
        w.varint(self.findings.len() as u64);
        for f in &self.findings {
            f.save(w);
        }
        for n in &self.findings_by_severity {
            w.varint(*n);
        }
        w.varint(self.findings_by_auditor.len() as u64);
        for (name, n) in &self.findings_by_auditor {
            w.string(name);
            w.varint(*n);
        }
        match &self.rhc {
            Some(hook) => {
                w.boolean(true);
                w.varint(hook.seen);
                w.varint(hook.seq);
            }
            None => w.boolean(false),
        }
        w.varint(self.panics_by_container.len() as u64);
        for (name, n) in &self.panics_by_container {
            w.string(name);
            w.varint(*n);
        }
        w.varint(self.panic_log.len() as u64);
        for p in &self.panic_log {
            w.string(&p.container);
            w.string(&p.message);
        }
        self.flight.save(w);
        w.varint(self.auditors.len() as u64);
        for a in &self.auditors {
            w.string(a.name());
            w.bytes(&a.snapshot_state());
        }
        Ok(())
    }

    /// Restores state written by [`EventMultiplexer::save_state`] into an EM
    /// rebuilt from the same recipe (same auditors registered in the same
    /// order, same RHC attachment, no containers).
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] on malformed bytes or when the
    /// restore target's roster does not match the snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if !self.containers.is_empty() {
            return Err(SnapError::Unsupported {
                what: "restore target has audit containers attached".to_owned(),
            });
        }
        self.stats.events_in = r.varint()?;
        self.stats.sync_delivered = r.varint()?;
        self.stats.container_enqueued = r.varint()?;
        self.stats.unclaimed = r.varint()?;
        self.stats.fast_skipped = r.varint()?;
        self.stats.rhc_samples = r.varint()?;
        let start = r.offset();
        let n = r.count(1 << 10, "per-auditor delivery counters")?;
        if n != self.auditors.len() {
            return Err(SnapError::BadValue { offset: start, what: "per-auditor counter count" });
        }
        for slot in self.per_auditor_delivered.iter_mut() {
            *slot = r.varint()?;
        }
        let n = r.count(1 << 20, "pending findings")?;
        self.findings = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            self.findings.push(Finding::load(r)?);
        }
        for slot in self.findings_by_severity.iter_mut() {
            *slot = r.varint()?;
        }
        let n = r.count(1 << 16, "findings-by-auditor tallies")?;
        self.findings_by_auditor = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = r.string()?;
            let count = r.varint()?;
            self.findings_by_auditor.push((name, count));
        }
        let start = r.offset();
        let had_rhc = r.boolean()?;
        match (&mut self.rhc, had_rhc) {
            (Some(hook), true) => {
                hook.seen = r.varint()?;
                hook.seq = r.varint()?;
            }
            (None, false) => {}
            _ => {
                return Err(SnapError::BadValue { offset: start, what: "RHC attachment mismatch" })
            }
        }
        let n = r.count(1 << 16, "container panic tallies")?;
        self.panics_by_container = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = r.string()?;
            let count = r.varint()?;
            self.panics_by_container.push((name, count));
        }
        let n = r.count(1 << 20, "container panic log")?;
        self.panic_log = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let container = r.string()?;
            let message = r.string()?;
            self.panic_log.push(ContainerPanic { container, message });
        }
        self.flight.load(r)?;
        let start = r.offset();
        let n = r.count(1 << 10, "auditor state blobs")?;
        if n != self.auditors.len() {
            return Err(SnapError::BadValue { offset: start, what: "auditor roster size" });
        }
        for a in self.auditors.iter_mut() {
            let name = r.string()?;
            let blob = r.bytes()?;
            if name != a.name() {
                return Err(SnapError::Unsupported {
                    what: format!(
                        "auditor roster mismatch: snapshot has '{name}', target has '{}'",
                        a.name()
                    ),
                });
            }
            a.restore_state(blob)?;
        }
        // Subscriptions may depend on restored auditor state; re-derive the
        // fast-path mask and routing table from the live roster.
        self.refresh_subscriptions();
        Ok(())
    }
}

impl Drop for EventMultiplexer {
    fn drop(&mut self) {
        // Destructors must not fail or block indefinitely: send Stop
        // best-effort and detach.
        for c in &mut self.containers {
            let _ = c.tx.send(ContainerMsg::Stop);
            c.handle.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{CountingAuditor, Severity};
    use crate::event::{EventClass, EventKind, VmId};
    use hypertap_hvsim::exit::VcpuSnapshot;
    use hypertap_hvsim::machine::{Machine, VmConfig};
    use hypertap_hvsim::mem::Gpa;
    use hypertap_hvsim::vcpu::{Vcpu, VcpuId};

    fn vm_state() -> VmState {
        struct NoHv;
        impl hypertap_hvsim::machine::Hypervisor for NoHv {
            fn handle_exit(
                &mut self,
                _vm: &mut VmState,
                _exit: &hypertap_hvsim::exit::VmExit,
            ) -> hypertap_hvsim::exit::ExitAction {
                hypertap_hvsim::exit::ExitAction::Resume
            }
        }
        Machine::new(VmConfig::new(1, 1 << 20), NoHv).into_parts().0
    }

    fn ev(kind: EventKind) -> Event {
        Event {
            vm: VmId(0),
            vcpu: VcpuId(0),
            time: SimTime::from_millis(1),
            kind,
            state: VcpuSnapshot::capture(&Vcpu::new(VcpuId(0))),
        }
    }

    #[test]
    fn dispatch_respects_subscriptions() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::with_mask(EventMask::only(EventClass::Syscall))));
        em.register(Box::new(CountingAuditor::new())); // subscribes to all
        let mut vm = vm_state();
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        em.dispatch(
            &mut vm,
            &ev(EventKind::Syscall {
                gate: crate::event::SyscallGate::Sysenter,
                number: 1,
                args: [0; 5],
            }),
        );
        assert_eq!(em.stats().sync_delivered, 3);
        let all = em.auditor::<CountingAuditor>().unwrap();
        // auditor::<T> returns the FIRST match: the syscall-only one.
        assert_eq!(all.events_seen(), 1);
    }

    #[test]
    fn unclaimed_events_are_counted() {
        let mut em = EventMultiplexer::new();
        let mut vm = vm_state();
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        assert_eq!(em.stats().unclaimed, 1);
        assert_eq!(em.stats().fast_skipped, 1);
    }

    #[test]
    fn combined_mask_skips_unsubscribed_classes() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::with_mask(EventMask::only(EventClass::Syscall))));
        let mut vm = vm_state();
        // Not a syscall: rejected by the combined mask before the auditor
        // loop runs.
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        assert_eq!(em.stats().fast_skipped, 1);
        assert_eq!(em.stats().unclaimed, 1);
        assert_eq!(em.stats().sync_delivered, 0);
    }

    #[test]
    fn deliver_all_batches_events() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::new()));
        let mut vm = vm_state();
        let events = [
            ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }),
            ev(EventKind::ThreadSwitch { kernel_stack: 0x2000 }),
        ];
        let suppress = em.deliver_all(&mut vm, &events);
        assert!(!suppress);
        assert_eq!(em.stats().sync_delivered, 2);
        assert_eq!(em.auditor::<CountingAuditor>().unwrap().events_seen(), 2);
    }

    /// Reports one finding, on the second event it is delivered.
    #[derive(Default)]
    struct FlagsSecond {
        seen: u64,
    }
    impl Auditor for FlagsSecond {
        fn name(&self) -> &str {
            "flags-second"
        }
        fn subscriptions(&self) -> EventMask {
            EventMask::ALL
        }
        fn on_event(&mut self, _vm: &mut VmState, event: &Event, sink: &mut dyn FindingSink) {
            self.seen += 1;
            if self.seen == 2 {
                sink.report(Finding::new("flags-second", event.time, Severity::Warning, "2nd"));
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn deliver_all_matches_per_event_dispatch() {
        // A 4-event slice through deliver_all must be indistinguishable from
        // four dispatch calls: same stats, per-auditor deliveries and flight
        // records. The finding raised by the second event must land right
        // after that event, not at the end of the slice.
        let events = [
            ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }),
            ev(EventKind::ThreadSwitch { kernel_stack: 0x2000 }),
            ev(EventKind::Syscall {
                gate: crate::event::SyscallGate::Sysenter,
                number: 7,
                args: [0; 5],
            }),
            ev(EventKind::HardwareInterrupt { vector: 0x20 }),
        ];
        let build = || {
            let mut em = EventMultiplexer::new();
            em.register(Box::new(CountingAuditor::with_mask(EventMask::only(EventClass::Syscall))));
            em.register(Box::new(FlagsSecond::default()));
            em
        };
        let (mut sliced, mut single) = (build(), build());
        let mut vm = vm_state();
        let sup_sliced = sliced.deliver_all(&mut vm, &events);
        let sup_single = events.iter().fold(false, |acc, e| single.dispatch(&mut vm, e) | acc);
        assert_eq!(sup_sliced, sup_single);
        assert_eq!(sliced.stats(), single.stats());
        assert_eq!(sliced.delivered_to("counting"), single.delivered_to("counting"));
        assert_eq!(sliced.delivered_to("flags-second"), Some(4));
        assert_eq!(single.delivered_to("flags-second"), Some(4));
        let records = sliced.flight().dump("t").records;
        assert_eq!(records, single.flight().dump("t").records);
        let shape: Vec<&str> = records
            .iter()
            .map(|r| match r {
                crate::flight::DumpRecord::Event { .. } => "event",
                crate::flight::DumpRecord::Finding { .. } => "finding",
                _ => "other",
            })
            .collect();
        assert_eq!(shape, ["event", "event", "finding", "event", "event"]);
    }

    #[test]
    fn deliver_all_observes_latency_once_per_call() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::new()));
        em.set_metrics_enabled(true);
        let mut vm = vm_state();
        let events = [
            ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }),
            ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(2) }),
            ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(3) }),
        ];
        em.deliver_all(&mut vm, &events);
        assert_eq!(em.dispatch_latency().count(), 1, "one observation per call");
        assert_eq!(em.stats().events_in, 3);
    }

    struct Retunable {
        mask: EventMask,
        seen: u64,
    }
    impl Auditor for Retunable {
        fn name(&self) -> &str {
            "retunable"
        }
        fn subscriptions(&self) -> EventMask {
            self.mask
        }
        fn on_event(&mut self, _vm: &mut VmState, _event: &Event, _sink: &mut dyn FindingSink) {
            self.seen += 1;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn refresh_subscriptions_invalidates_routing() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(Retunable { mask: EventMask::only(EventClass::Syscall), seen: 0 }));
        let mut vm = vm_state();
        let ps = ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) });
        em.dispatch(&mut vm, &ps);
        assert_eq!(em.stats().fast_skipped, 1, "not subscribed yet");

        // Re-subscribe in place; the table is stale until refreshed.
        em.auditor_mut::<Retunable>().unwrap().mask = EventMask::ALL;
        em.dispatch(&mut vm, &ps);
        assert_eq!(em.stats().fast_skipped, 2, "routing sampled at registration");

        em.refresh_subscriptions();
        em.dispatch(&mut vm, &ps);
        assert_eq!(em.stats().fast_skipped, 2);
        assert_eq!(em.auditor::<Retunable>().unwrap().seen, 1);

        // Narrowing works too.
        em.auditor_mut::<Retunable>().unwrap().mask = EventMask::NONE;
        em.refresh_subscriptions();
        em.dispatch(&mut vm, &ps);
        assert_eq!(em.stats().fast_skipped, 3);
        assert_eq!(em.auditor::<Retunable>().unwrap().seen, 1);
    }

    struct PanickyContainer {
        countdown: u32,
    }

    impl ContainerAuditor for PanickyContainer {
        fn name(&self) -> &str {
            "panicky"
        }
        fn subscriptions(&self) -> EventMask {
            EventMask::ALL
        }
        fn on_event(&mut self, event: &Event) -> Vec<Finding> {
            if self.countdown == 0 {
                panic!("auditor bug!");
            }
            self.countdown -= 1;
            vec![Finding::new("panicky", event.time, Severity::Info, "ok")]
        }
    }

    #[test]
    fn container_panics_are_isolated_and_restarted() {
        let mut em = EventMultiplexer::new();
        em.register_container(Box::new(|| Box::new(PanickyContainer { countdown: 1 })));
        let mut vm = vm_state();
        for _ in 0..4 {
            em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        }
        let restarts = em.shutdown_containers();
        assert_eq!(restarts.len(), 1);
        // countdown=1: ok, panic, (restart) ok, panic => 2 restarts, 2 findings.
        assert_eq!(restarts[0].1, 2);
        let findings = em.drain_findings();
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.auditor == "panicky"));
    }

    #[test]
    fn container_panic_payloads_are_preserved() {
        let mut em = EventMultiplexer::new();
        em.register_container(Box::new(|| Box::new(PanickyContainer { countdown: 1 })));
        let mut vm = vm_state();
        for _ in 0..4 {
            em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        }
        em.shutdown_containers();
        let panics = em.container_panics();
        assert_eq!(panics.len(), 2);
        assert!(panics.iter().all(|p| p.container == "panicky" && p.message == "auditor bug!"));
        let mut reg = MetricsRegistry::new();
        em.collect_metrics(&mut reg);
        assert_eq!(
            reg.find("hypertap_container_panics_total", &[("container", "panicky")])
                .unwrap()
                .as_counter(),
            Some(2)
        );
        // The panic records (payload included) landed in the black box.
        let dump = em.flight().dump("test");
        let panic_records: Vec<_> = dump
            .records
            .iter()
            .filter_map(|r| match r {
                crate::flight::DumpRecord::Panic { container, message, count } => {
                    Some((container.clone(), message.clone(), *count))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            panic_records,
            vec![
                ("panicky".into(), "auditor bug!".into(), 1),
                ("panicky".into(), "auditor bug!".into(), 2)
            ]
        );
    }

    #[test]
    fn container_panic_writes_flight_dump_file() {
        let dir = std::env::temp_dir().join(format!("hypertap-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dump dir");
        let mut em = EventMultiplexer::new();
        em.set_flight_dump_dir(Some(dir.clone()));
        em.register_container(Box::new(|| Box::new(PanickyContainer { countdown: 0 })));
        let mut vm = vm_state();
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        em.shutdown_containers();
        let paths = em.flight_dump_paths().to_vec();
        assert_eq!(paths.len(), 1);
        let bytes = std::fs::read(&paths[0]).expect("dump file exists");
        let dump = crate::flight::FlightDump::decode(&bytes).expect("dump decodes");
        assert!(dump.reason.contains("container-panic"), "{}", dump.reason);
        assert!(dump.reason.contains("auditor bug!"), "{}", dump.reason);
        assert!(
            dump.records.iter().any(|r| matches!(r, crate::flight::DumpRecord::Event { .. })),
            "dump retains the events leading up to the failure"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_findings_and_ticks_land_in_the_flight_ring() {
        struct Alerter;
        impl Auditor for Alerter {
            fn name(&self) -> &str {
                "alerter"
            }
            fn subscriptions(&self) -> EventMask {
                EventMask::ALL
            }
            fn on_event(&mut self, _vm: &mut VmState, event: &Event, sink: &mut dyn FindingSink) {
                let provenance: Vec<_> = sink.current_ref().into_iter().collect();
                sink.note_transition("alerter", "armed".to_owned());
                sink.report(
                    Finding::new("alerter", event.time, Severity::Alert, "seen")
                        .with_provenance(provenance),
                );
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut em = EventMultiplexer::new();
        em.register(Box::new(Alerter));
        let mut vm = vm_state();
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        em.tick(&mut vm, SimTime::from_millis(9));
        let dump = em.flight().dump("test");
        let kinds: Vec<_> = dump
            .records
            .iter()
            .map(|r| match r {
                crate::flight::DumpRecord::Event { .. } => "event",
                crate::flight::DumpRecord::Transition { .. } => "transition",
                crate::flight::DumpRecord::Finding { .. } => "finding",
                crate::flight::DumpRecord::Tick { .. } => "tick",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["event", "transition", "finding", "tick"]);
        assert!(matches!(
            &dump.records[2],
            crate::flight::DumpRecord::Finding { provenance, .. }
                if provenance == &vec![crate::event::EventRef(0)]
        ));
        // The finding drained from the EM carries the same provenance.
        let findings = em.drain_findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].provenance, vec![crate::event::EventRef(0)]);
        assert!(findings[0].explain().contains("triggered by exits #0"));
    }

    #[test]
    fn tap_sees_prefilter_stream_and_ticks() {
        #[derive(Default)]
        struct Log(std::sync::Arc<std::sync::Mutex<Vec<String>>>);
        impl EventTap for Log {
            fn on_event(&mut self, event: &Event) {
                self.0.lock().unwrap().push(format!("ev {}", event.kind));
            }
            fn on_tick(&mut self, now: SimTime) {
                self.0.lock().unwrap().push(format!("tick {now}"));
            }
        }
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut em = EventMultiplexer::new();
        em.attach_tap(Box::new(Log(log.clone())));
        // No auditors at all: the event is fast-skipped, but the tap still
        // observes it (the recorder must capture the *full* stream).
        let mut vm = vm_state();
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        em.tick(&mut vm, SimTime::from_millis(7));
        assert_eq!(em.stats().fast_skipped, 1);
        let got = log.lock().unwrap().clone();
        assert_eq!(
            got,
            vec!["ev process switch -> gpa:0x0000000001".to_string(), "tick 0.007000s".to_string()]
        );
        assert!(em.detach_tap().is_some());
        assert!(em.detach_tap().is_none());
    }

    #[test]
    fn sync_findings_are_collected() {
        struct Alerter;
        impl Auditor for Alerter {
            fn name(&self) -> &str {
                "alerter"
            }
            fn subscriptions(&self) -> EventMask {
                EventMask::ALL
            }
            fn on_event(&mut self, _vm: &mut VmState, event: &Event, sink: &mut dyn FindingSink) {
                sink.report(Finding::new("alerter", event.time, Severity::Alert, "seen"));
                sink.request_suppress();
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut em = EventMultiplexer::new();
        em.register(Box::new(Alerter));
        let mut vm = vm_state();
        let suppress =
            em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        assert!(suppress, "auditor requested suppression");
        let findings = em.drain_findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Alert);
    }

    #[test]
    fn tick_reaches_auditors() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::new()));
        let mut vm = vm_state();
        em.tick(&mut vm, SimTime::from_millis(5));
        em.tick(&mut vm, SimTime::from_millis(10));
        assert_eq!(em.auditor::<CountingAuditor>().unwrap().ticks_seen(), 2);
    }

    struct VecTransport(std::sync::Arc<std::sync::Mutex<Vec<HeartbeatSample>>>);
    impl RhcTransport for VecTransport {
        fn send(&mut self, sample: &HeartbeatSample) {
            self.0.lock().unwrap().push(sample.clone());
        }
    }

    #[test]
    fn rhc_sampling_every_nth_exit() {
        let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut em = EventMultiplexer::new();
        em.attach_rhc(Box::new(VecTransport(samples.clone())), 3);
        for i in 1..=10u64 {
            em.note_exit(SimTime::from_nanos(i * 100));
        }
        let got = samples.lock().unwrap();
        assert_eq!(got.len(), 3); // exits 3, 6, 9
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[2].time_ns, 900);
        assert_eq!(em.stats().rhc_samples, 3);
    }

    #[test]
    fn rhc_sampling_every_exit() {
        // every=1 boundary: each exit is a sample, seq tracks exits exactly.
        let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut em = EventMultiplexer::new();
        em.attach_rhc(Box::new(VecTransport(samples.clone())), 1);
        for i in 1..=5u64 {
            em.note_exit(SimTime::from_nanos(i));
        }
        let got = samples.lock().unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert_eq!(em.stats().rhc_samples, 5);
    }

    #[test]
    fn rhc_sampling_seen_grows_without_wraparound() {
        // Long stream, even period: exactly seen/every samples, strictly
        // increasing seq, no modulo aliasing as `seen` grows.
        let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut em = EventMultiplexer::new();
        em.attach_rhc(Box::new(VecTransport(samples.clone())), 2);
        for i in 1..=1000u64 {
            em.note_exit(SimTime::from_nanos(i * 10));
        }
        let got = samples.lock().unwrap();
        assert_eq!(got.len(), 500);
        assert!(got.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[499].seq, 500);
        assert_eq!(got[499].time_ns, 10_000);
    }

    struct QuietContainer;
    impl ContainerAuditor for QuietContainer {
        fn name(&self) -> &str {
            "quiet"
        }
        fn subscriptions(&self) -> EventMask {
            EventMask::ALL
        }
        fn on_event(&mut self, _event: &Event) -> Vec<Finding> {
            Vec::new()
        }
    }

    #[test]
    fn shutdown_containers_tightens_combined_mask() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::with_mask(EventMask::only(EventClass::Syscall))));
        em.register_container(Box::new(|| Box::new(QuietContainer)));
        let mut vm = vm_state();

        // While the ALL-mask container lives, a ProcessSwitch is claimed.
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        assert_eq!(em.stats().container_enqueued, 1);
        assert_eq!(em.stats().fast_skipped, 0);

        // After shutdown the combined mask must fall back to the sync
        // auditors' union — the same event is now fast-skipped.
        em.shutdown_containers();
        assert_eq!(em.container_count(), 0);
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(2) }));
        assert_eq!(em.stats().fast_skipped, 1);
        assert_eq!(em.stats().container_enqueued, 1, "no further container deliveries");

        // Syscalls still reach the surviving synchronous auditor.
        em.dispatch(
            &mut vm,
            &ev(EventKind::Syscall {
                gate: crate::event::SyscallGate::Sysenter,
                number: 3,
                args: [0; 5],
            }),
        );
        assert_eq!(em.stats().sync_delivered, 1);
    }

    #[test]
    fn dispatch_latency_records_only_when_enabled() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::new()));
        let mut vm = vm_state();
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        assert!(em.dispatch_latency().is_empty(), "disabled by default");

        em.set_metrics_enabled(true);
        assert!(em.metrics_enabled());
        for _ in 0..4 {
            em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(2) }));
        }
        assert_eq!(em.dispatch_latency().count(), 4);
        // Delivery behaviour is identical either way.
        assert_eq!(em.stats().events_in, 5);
        assert_eq!(em.stats().sync_delivered, 5);
    }

    #[test]
    fn per_auditor_counts_and_metrics_export() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::with_mask(EventMask::only(EventClass::Syscall))));
        em.register(Box::new(CountingAuditor::new()));
        let mut vm = vm_state();
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        em.dispatch(
            &mut vm,
            &ev(EventKind::Syscall {
                gate: crate::event::SyscallGate::Sysenter,
                number: 1,
                args: [0; 5],
            }),
        );
        // Both CountingAuditors share the name "counting": delivered_to
        // resolves to the first (syscall-only) registration.
        assert_eq!(em.delivered_to("counting"), Some(1));
        assert_eq!(em.delivered_to("nope"), None);

        let mut reg = MetricsRegistry::new();
        em.collect_metrics(&mut reg);
        assert_eq!(reg.find("hypertap_em_events_in_total", &[]).unwrap().as_counter(), Some(2));
        assert_eq!(
            reg.find("hypertap_em_sync_delivered_total", &[]).unwrap().as_counter(),
            Some(3)
        );
        assert_eq!(reg.find("hypertap_em_fast_skip_ratio", &[]).unwrap().as_gauge(), Some(0.0));
        assert!(reg.find("hypertap_em_delivered_total", &[("auditor", "counting")]).is_some());
        // Snapshot survives the JSON round-trip CI enforces.
        let back = MetricsRegistry::from_json(&reg.to_json()).unwrap();
        assert_eq!(back, reg);
    }

    #[test]
    fn findings_are_tallied_by_severity_and_auditor() {
        struct Alerter;
        impl Auditor for Alerter {
            fn name(&self) -> &str {
                "alerter"
            }
            fn subscriptions(&self) -> EventMask {
                EventMask::ALL
            }
            fn on_event(&mut self, _vm: &mut VmState, event: &Event, sink: &mut dyn FindingSink) {
                sink.report(Finding::new("alerter", event.time, Severity::Alert, "seen"));
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut em = EventMultiplexer::new();
        em.register(Box::new(Alerter));
        let mut vm = vm_state();
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(2) }));
        assert_eq!(em.drain_findings().len(), 2);
        let mut reg = MetricsRegistry::new();
        em.collect_metrics(&mut reg);
        assert_eq!(
            reg.find("hypertap_findings_total", &[("severity", "alert")]).unwrap().as_counter(),
            Some(2)
        );
        assert_eq!(
            reg.find("hypertap_findings_total", &[("severity", "info")]).unwrap().as_counter(),
            Some(0)
        );
        assert_eq!(
            reg.find("hypertap_findings_by_auditor_total", &[("auditor", "alerter")])
                .unwrap()
                .as_counter(),
            Some(2)
        );
    }

    #[test]
    fn container_queue_depth_drains_to_zero() {
        let mut em = EventMultiplexer::new();
        em.register_container(Box::new(|| Box::new(QuietContainer)));
        let mut vm = vm_state();
        for _ in 0..8 {
            em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        }
        // The worker drains asynchronously; after shutdown (which joins)
        // the queue must be empty. `shutdown_containers` clears the list,
        // so sample the gauge just before by polling.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while em.container_queue_depth("quiet") != Some(0) {
            assert!(std::time::Instant::now() < deadline, "queue never drained");
            std::thread::yield_now();
        }
        let mut reg = MetricsRegistry::new();
        em.collect_metrics(&mut reg);
        assert_eq!(
            reg.find("hypertap_container_enqueued_total", &[("container", "quiet")])
                .unwrap()
                .as_counter(),
            Some(8)
        );
        assert_eq!(
            reg.find("hypertap_container_queue_depth", &[("container", "quiet")])
                .unwrap()
                .as_gauge(),
            Some(0.0)
        );
        em.shutdown_containers();
    }
}
