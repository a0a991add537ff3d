//! The Event Multiplexer (EM) — HyperTap's unified delivery hub.
//!
//! The EM receives every decoded event from the Event Forwarder exactly once
//! (the "blocking logging" phase) and hands it to two kinds of consumer,
//! matching the paper's Fig. 2:
//!
//! * **Auditors** ([`crate::audit::Auditor`]) run in-line during exit
//!   handling, with mutable access to the VM, and receive only the event
//!   classes they subscribed to. This is the *blocking* mode: an auditor can
//!   pause the VM or suppress the intercepted operation before it takes
//!   architectural effect.
//! * **Observers** ([`EventTap`]) see the whole stream — every event,
//!   claimed or not, and every tick — and never steer it. The trace
//!   recorder, the fuzzer's coverage tap and audit containers
//!   ([`crate::container`], auditors on their own host threads, the paper's
//!   LXC deployment) all attach here.
//!
//! # Delivery order
//!
//! Each event goes, in this order, to
//!
//! 1. every observer, in attach order;
//! 2. the flight recorder, which numbers it with its [`EventRef`];
//! 3. the auditors subscribed to its class, in registration order.
//!
//! Each tick goes to every observer in attach order, then to the flight
//! recorder, then to every auditor in registration order. The order is part
//! of the determinism contract: observers record exactly the interleaving
//! the auditors experienced.
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
//! * A **precomputed routing table** (one slot per [`EventClass`], listing
//!   exactly the subscribed auditors) is built at registration time and
//!   rebuilt on re-subscription ([`EventMultiplexer::refresh_subscriptions`]).
//!   Fan-out walks only the subscribers of the event's class, and an empty
//!   slot short-circuits the whole event, counted in
//!   [`DeliveryStats::fast_skipped`].
//! * [`EventMultiplexer::deliver_all`] fans a whole exit's decoded events
//!   out in one call — the path the Event Forwarder ([`crate::kvm::Kvm`])
//!   uses — with one finding sink, one dispatch-latency observation and
//!   flight absorption only for events that actually produced findings or
//!   transitions.
//! * Findings from auditors accumulate into a single sink that borrows the
//!   EM's own buffer via `mem::take`, instead of allocating a fresh `Vec`
//!   per auditor per event.

use crate::audit::{Auditor, Finding, FindingSink, Severity};
use crate::event::{Event, EventClass, EventRef, VmId};
use crate::flight::FlightRecorder;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::rhc::{HeartbeatSample, RhcTransport};
use crate::telemetry::FindingBus;
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};

/// A passive observer at the Event Forwarder boundary.
///
/// An observer sees every event the EM receives — *before* subscription
/// routing, so even events no auditor claimed are observed — plus every
/// periodic tick, in exactly the interleaving the auditors experienced (see
/// the module docs for the full delivery order). Trace recorders
/// (`hypertap-replay`) attach here: replaying the recorded (event | tick)
/// stream into a fresh EM reproduces the audit phase bit-for-bit without
/// re-running the simulator.
///
/// Observers must not mutate anything the guest can observe; they are the
/// record half of record–replay, and an observer with side effects would
/// make the recorded history diverge from the unrecorded one.
pub trait EventTap {
    /// Called once per forwarded event, before the flight recorder and the
    /// auditors.
    fn on_event(&mut self, event: &Event);

    /// Called once per EM periodic tick, before auditors run.
    fn on_tick(&mut self, _now: SimTime) {}
}

/// Delivery statistics (queried by benchmarks and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Events that entered fan-out (pre-filter, one per forwarded event).
    pub events_in: u64,
    /// Events delivered to auditors (per-auditor deliveries).
    pub sync_delivered: u64,
    /// Events no auditor subscribed to, skipped after one routing-table
    /// lookup.
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

/// The multiplexer itself.
pub struct EventMultiplexer {
    auditors: Vec<Box<dyn Auditor>>,
    /// Per-class routing table, indexed by [`EventClass::index`]: the
    /// indices of exactly the auditors subscribed to that class, in
    /// registration order (delivery order is part of the determinism
    /// contract). Rebuilt whenever the subscriber set changes (register,
    /// [`EventMultiplexer::refresh_subscriptions`]).
    routing: Vec<Vec<usize>>,
    findings: Vec<Finding>,
    stats: DeliveryStats,
    rhc: Option<RhcHook>,
    /// Passive observers, called in attach order before the flight
    /// recorder and the auditors see an event or tick.
    observers: Vec<Box<dyn EventTap>>,
    /// Host-side instrumentation switch: gates the wall-clock dispatch
    /// latency histogram. All other counters are plain integers and stay
    /// on unconditionally. Never observable by the simulation either way.
    metrics_enabled: bool,
    /// Events delivered per auditor, parallel to `auditors`.
    per_auditor_delivered: Vec<u64>,
    /// Host wall-clock latency of one `deliver_all` call, nanoseconds.
    dispatch_latency: Histogram,
    /// Findings drained so far, tallied by [`Severity`] discriminant.
    findings_by_severity: [u64; 3],
    /// Findings drained so far, tallied by reporting auditor name.
    findings_by_auditor: Vec<(String, u64)>,
    /// The per-VM black box: bounded ring of recent events, transitions,
    /// findings and spans. Always on; purely host-side (the flight-on/off
    /// conformance pair proves the stream is unchanged).
    flight: FlightRecorder,
    /// Live telemetry bus: every finding drained via
    /// [`EventMultiplexer::drain_findings`] is also published on it,
    /// tagged with the VM id. Host-side only — never serialized with EM
    /// state, never observable by the simulation.
    finding_bus: Option<(FindingBus, VmId)>,
}

impl std::fmt::Debug for EventMultiplexer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventMultiplexer")
            .field("auditors", &self.auditors.len())
            .field("observers", &self.observers.len())
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
        EventMultiplexer {
            auditors: Vec::new(),
            routing: vec![Vec::new(); EventClass::ALL.len()],
            findings: Vec::new(),
            stats: DeliveryStats::default(),
            rhc: None,
            observers: Vec::new(),
            metrics_enabled: false,
            per_auditor_delivered: Vec::new(),
            dispatch_latency: Histogram::latency_ns(),
            findings_by_severity: [0; 3],
            findings_by_auditor: Vec::new(),
            flight: FlightRecorder::default(),
            finding_bus: None,
        }
    }

    /// Attaches a live [`FindingBus`]: every finding subsequently drained
    /// via [`EventMultiplexer::drain_findings`] is also published on the
    /// bus, tagged as coming from `vm`. Host-side observation only — it
    /// never blocks the exit pipeline (slow subscribers drop, counted on the
    /// bus) and is not part of EM serialized state.
    pub fn set_finding_bus(&mut self, bus: FindingBus, vm: VmId) {
        self.finding_bus = Some((bus, vm));
    }

    /// Detaches the finding bus, if any.
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

    /// Appends an [`EventTap`] to the observer list. It sees the full
    /// pre-filter event and tick stream after every observer attached
    /// before it.
    pub fn attach_tap(&mut self, tap: Box<dyn EventTap>) {
        self.observers.push(tap);
    }

    /// Detaches every observer, returning them in attach order.
    pub fn detach_tap(&mut self) -> Vec<Box<dyn EventTap>> {
        std::mem::take(&mut self.observers)
    }

    /// Registers a synchronous auditor.
    pub fn register(&mut self, auditor: Box<dyn Auditor>) {
        self.auditors.push(auditor);
        self.per_auditor_delivered.push(0);
        self.refresh_subscriptions();
    }

    /// Rebuilds the per-class routing table from the auditors' current
    /// subscription masks. The table is otherwise sampled at registration
    /// time, so call this after an auditor changed its subscriptions in
    /// place; the hot path never re-derives it.
    pub fn refresh_subscriptions(&mut self) {
        for class in EventClass::ALL {
            let slot = &mut self.routing[class.index()];
            slot.clear();
            slot.extend(
                self.auditors
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.subscriptions().contains(class))
                    .map(|(i, _)| i),
            );
        }
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

    /// Attaches a Remote Health Checker transport: every `every`-th exit is
    /// forwarded as a heartbeat sample.
    pub fn attach_rhc(&mut self, transport: Box<dyn RhcTransport>, every: u64) {
        assert!(every > 0, "sampling period must be positive");
        self.rhc = Some(RhcHook { transport, every, seen: 0, seq: 0 });
    }

    /// Hands one event to the observers, the flight recorder and the
    /// subscribed auditors, in that order, collecting findings into `sink`.
    fn fan_out(&mut self, vm: &mut VmState, event: &Event, sink: &mut LocalSink) {
        for observer in &mut self.observers {
            observer.on_event(event);
        }
        // The flight recorder shares the observers' pre-filter vantage
        // point: the ref it assigns is the event's position in the
        // forwarded stream, which is also its index among a recorded
        // trace's event records. Sequencing advances even with recording
        // disabled, so provenance is identical flight-on and flight-off.
        sink.current = Some(self.flight.observe_event(event));
        self.stats.events_in += 1;
        let route = &self.routing[event.class().index()];
        if route.is_empty() {
            // Nobody subscribed: one table lookup and we are done.
            self.stats.fast_skipped += 1;
            return;
        }
        // Disjoint field borrows: the route is read-only while the auditors
        // and counters are mutated.
        for &i in route {
            self.auditors[i].on_event(vm, event, sink);
            self.stats.sync_delivered += 1;
            self.per_auditor_delivered[i] += 1;
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
    /// auditor requested suppression of the intercepted operation.
    pub fn dispatch(&mut self, vm: &mut VmState, event: &Event) -> bool {
        self.deliver_all(vm, std::slice::from_ref(event))
    }

    /// Dispatches every event decoded from one exit, in order, with the
    /// bookkeeping amortized across the slice: one finding sink, one
    /// dispatch-latency observation, and flight absorption only for events
    /// that actually produced findings or transitions (so each finding
    /// record lands right after the event that caused it). Returns `true`
    /// if any auditor requested suppression.
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
        for observer in &mut self.observers {
            observer.on_tick(now);
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

    /// Drains every finding the auditors accumulated so far.
    pub fn drain_findings(&mut self) -> Vec<Finding> {
        let out = std::mem::take(&mut self.findings);
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

    /// Findings accumulated and not yet drained.
    pub fn pending_findings(&self) -> usize {
        self.findings.len()
    }

    /// Delivery statistics.
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }

    /// Events delivered to the named auditor.
    pub fn delivered_to(&self, name: &str) -> Option<u64> {
        self.auditors.iter().position(|a| a.name() == name).map(|i| self.per_auditor_delivered[i])
    }

    /// The host-side dispatch-latency histogram (empty unless metrics are
    /// enabled).
    pub fn dispatch_latency(&self) -> &Histogram {
        &self.dispatch_latency
    }

    /// Exports the EM's delivery, latency, flight and findings counters
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
            "hypertap_em_fast_skipped_total",
            "events no auditor subscribed to, skipped after one table lookup",
            self.stats.fast_skipped,
        );
        reg.gauge(
            "hypertap_em_fast_skip_ratio",
            "fraction of incoming events no auditor subscribed to",
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

    /// The per-VM flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Mutable access to the flight recorder (capacity/enable knobs, span
    /// recording from the Event Forwarder and fleet workers).
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// Serializes the EM's deterministic audit-phase state for a machine
    /// snapshot: delivery counters, undrained findings, findings tallies,
    /// RHC sampling position, the flight recorder, and every auditor's
    /// state (framed by name, in registration order).
    ///
    /// Not captured: the routing table (rebuilt from the auditor roster at
    /// registration), the observers (host-side; the caller re-attaches
    /// after restore), and the wall-clock dispatch-latency histogram (host
    /// instrumentation, invisible to the simulation).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.varint(self.stats.events_in);
        w.varint(self.stats.sync_delivered);
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
        self.flight.save(w);
        w.varint(self.auditors.len() as u64);
        for a in &self.auditors {
            w.string(a.name());
            w.bytes(&a.snapshot_state());
        }
    }

    /// Restores state written by [`EventMultiplexer::save_state`] into an EM
    /// rebuilt from the same recipe (same auditors registered in the same
    /// order, same RHC attachment).
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] on malformed bytes or when the
    /// restore target's roster does not match the snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats.events_in = r.varint()?;
        self.stats.sync_delivered = r.varint()?;
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
        // routing table from the live roster.
        self.refresh_subscriptions();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{CountingAuditor, Severity};
    use crate::event::{EventClass, EventKind, EventMask, VmId};
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
        assert_eq!(em.stats().fast_skipped, 1);
    }

    #[test]
    fn routing_skips_unsubscribed_classes() {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::with_mask(EventMask::only(EventClass::Syscall))));
        let mut vm = vm_state();
        // Not a syscall: its routing slot is empty, so no auditor runs.
        em.dispatch(&mut vm, &ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) }));
        assert_eq!(em.stats().fast_skipped, 1);
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
    fn observers_run_in_attach_order_before_auditors() {
        type Log = std::sync::Arc<std::sync::Mutex<Vec<String>>>;
        struct Observer(&'static str, Log);
        impl EventTap for Observer {
            fn on_event(&mut self, event: &Event) {
                self.1.lock().unwrap().push(format!("{} ev {}", self.0, event.class()));
            }
            fn on_tick(&mut self, _now: SimTime) {
                self.1.lock().unwrap().push(format!("{} tick", self.0));
            }
        }
        struct SyscallAuditor(Log);
        impl Auditor for SyscallAuditor {
            fn name(&self) -> &str {
                "syscalls"
            }
            fn subscriptions(&self) -> EventMask {
                EventMask::only(EventClass::Syscall)
            }
            fn on_event(&mut self, _vm: &mut VmState, event: &Event, _sink: &mut dyn FindingSink) {
                self.0.lock().unwrap().push(format!("auditor ev {}", event.class()));
            }
            fn on_tick(&mut self, _vm: &mut VmState, _now: SimTime, _sink: &mut dyn FindingSink) {
                self.0.lock().unwrap().push("auditor tick".to_owned());
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let log: Log = Default::default();
        let mut em = EventMultiplexer::new();
        em.register(Box::new(SyscallAuditor(log.clone())));
        em.attach_tap(Box::new(Observer("a", log.clone())));
        em.attach_tap(Box::new(Observer("b", log.clone())));
        let mut vm = vm_state();
        let syscall = ev(EventKind::Syscall {
            gate: crate::event::SyscallGate::Sysenter,
            number: 1,
            args: [0; 5],
        });
        let switch = ev(EventKind::ProcessSwitch { new_pdba: Gpa::new(1) });
        em.deliver_all(&mut vm, &[syscall, switch]);
        em.tick(&mut vm, SimTime::from_millis(7));
        let (sys, ps) = (syscall.class(), switch.class());
        let expected = [
            format!("a ev {sys}"),
            format!("b ev {sys}"),
            format!("auditor ev {sys}"),
            // Claimed by no auditor, still observed by both.
            format!("a ev {ps}"),
            format!("b ev {ps}"),
            "a tick".to_owned(),
            "b tick".to_owned(),
            "auditor tick".to_owned(),
        ];
        assert_eq!(*log.lock().unwrap(), expected);
        assert_eq!(em.stats().fast_skipped, 1);

        let mut detached = em.detach_tap();
        assert_eq!(detached.len(), 2);
        assert!(em.detach_tap().is_empty());
        log.lock().unwrap().clear();
        for observer in &mut detached {
            observer.on_tick(SimTime::ZERO);
        }
        assert_eq!(*log.lock().unwrap(), ["a tick", "b tick"], "returned in attach order");
        log.lock().unwrap().clear();
        em.dispatch(&mut vm, &syscall);
        assert_eq!(*log.lock().unwrap(), [format!("auditor ev {sys}")], "observers detached");
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
        assert_eq!(em.detach_tap().len(), 1);
        assert!(em.detach_tap().is_empty());
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
}
