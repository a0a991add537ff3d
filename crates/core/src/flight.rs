//! Per-VM flight recorder: a bounded black box for post-mortem forensics.
//!
//! The recorder sits at the Event Multiplexer's pre-filter boundary — the
//! same point an [`crate::em::EventTap`] observes — and keeps a bounded
//! ring of the most recent activity: forwarded events (each stamped with
//! its [`EventRef`] sequence number), periodic ticks, auditor state
//! transitions (GOSHD liveness flips, HRKD scan epochs, HT-Ninja
//! privilege-track edges), findings with their causal provenance, and
//! host-side pipeline / fleet-slice spans.
//!
//! Unlike the replay crate's [`crate::em::EventTap`] recorder, the flight
//! recorder is **always on** and **allocation-lean**: events are `Copy`
//! and land in a pre-sized ring; strings are only allocated for the rare
//! record kinds (transitions, findings, spans). Recording is purely
//! host-side state — the recorder-on/off conformance pair in the replay
//! crate proves the simulated event stream is byte-identical either way.
//!
//! On failure — a conformance divergence or a fleet worker panic — the
//! ring is serialized to a versioned `.htfr` dump ([`FlightDump`], format
//! [`FLIGHT_VERSION`], written with the [`hypertap_hvsim::snap`] codec)
//! that the `flightdump` inspector pretty-prints or exports as Chrome
//! trace-event JSON for `chrome://tracing` / Perfetto.

use crate::audit::{Finding, Severity};
use crate::event::{Event, EventClass, EventRef, VmId};
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Version stamped into every `.htfr` dump. Bump on any change to the
/// record encoding; [`FlightDump::decode`] rejects versions it does not
/// understand rather than misparsing them. Version 1 was a fixed-width
/// little-endian layout; version 2 shares the varint record encoding of
/// the `.htsp` flight section; version 3 dropped the audit-container panic
/// record (tag `0x05`, now rejected as an unknown tag).
pub const FLIGHT_VERSION: u64 = 3;

/// Default ring capacity (records, not bytes).
pub const DEFAULT_CAPACITY: usize = 256;

const FLIGHT_MAGIC: &[u8; 4] = b"HTFR";

const TAG_EVENT: u8 = 0x01;
const TAG_TICK: u8 = 0x02;
const TAG_TRANSITION: u8 = 0x03;
const TAG_FINDING: u8 = 0x04;
const TAG_SPAN: u8 = 0x06;

/// One in-memory ring entry. Events are kept as the `Copy` struct they
/// arrived as; rendering to strings is deferred to dump time.
#[derive(Debug, Clone)]
enum RingRecord {
    Event {
        seq: EventRef,
        event: Event,
    },
    Tick {
        time: SimTime,
    },
    Transition {
        time: SimTime,
        auditor: String,
        detail: String,
    },
    Finding(Finding),
    Span {
        name: &'static str,
        start: SimTime,
        duration_ns: u64,
        track: u32,
    },
    /// A record restored from a machine snapshot. Native records are only
    /// observable through [`FlightRecorder::dump`], so carrying the already
    /// rendered form is full fidelity: a restored ring dumps byte-for-byte
    /// identically to the ring it was captured from.
    Imported(DumpRecord),
}

/// The bounded per-VM flight recorder.
///
/// The event sequence counter advances even while recording is disabled:
/// [`EventRef`]s are a property of the forwarded stream itself, so
/// finding provenance is identical whether or not the black box is
/// retaining history — which is exactly what the recorder-on/off
/// conformance pair asserts.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<RingRecord>,
    next_seq: u64,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` records, enabled.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            enabled: true,
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Turns retention on or off. Sequence numbering continues either way.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether the ring is retaining records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Resizes the ring, discarding oldest records if it shrinks.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        self.capacity = capacity;
        while self.ring.len() > self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
    }

    /// The ring's capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted to make room so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ref the next forwarded event will receive.
    pub fn next_ref(&self) -> EventRef {
        EventRef(self.next_seq)
    }

    fn push(&mut self, record: RingRecord) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
    }

    /// Assigns the next [`EventRef`] to a forwarded event and retains it.
    /// Called once per event at the EM pre-filter boundary.
    pub fn observe_event(&mut self, event: &Event) -> EventRef {
        let seq = EventRef(self.next_seq);
        self.next_seq += 1;
        self.push(RingRecord::Event { seq, event: *event });
        seq
    }

    /// Retains one EM periodic tick.
    pub fn observe_tick(&mut self, time: SimTime) {
        self.push(RingRecord::Tick { time });
    }

    /// Retains an auditor state transition (liveness flip, scan epoch,
    /// privilege-track edge, ...).
    pub fn note_transition(&mut self, time: SimTime, auditor: &str, detail: String) {
        if !self.enabled {
            return;
        }
        self.push(RingRecord::Transition { time, auditor: auditor.to_owned(), detail });
    }

    /// Retains a finding alongside the events that caused it.
    pub fn note_finding(&mut self, finding: &Finding) {
        if !self.enabled {
            return;
        }
        self.push(RingRecord::Finding(finding.clone()));
    }

    /// Retains a host-side span (pipeline stage, fleet worker slice)
    /// anchored at simulated time `start` with a measured duration.
    pub fn note_span(&mut self, name: &'static str, start: SimTime, duration_ns: u64, track: u32) {
        self.push(RingRecord::Span { name, start, duration_ns, track });
    }

    /// Renders the ring into a serializable [`FlightDump`].
    pub fn dump(&self, reason: &str) -> FlightDump {
        let records = self.ring.iter().map(render_record).collect();
        FlightDump {
            version: FLIGHT_VERSION,
            reason: reason.to_owned(),
            capacity: self.capacity as u64,
            next_seq: self.next_seq,
            dropped: self.dropped,
            records,
        }
    }

    /// Renders and encodes the ring in one step.
    pub fn dump_bytes(&self, reason: &str) -> Vec<u8> {
        self.dump(reason).encode()
    }

    /// Serializes the recorder for a machine snapshot: the sequencing and
    /// eviction counters verbatim, plus every retained record in rendered
    /// ([`DumpRecord`]) form. Records are only observable through
    /// [`FlightRecorder::dump`], so the rendered form loses nothing a
    /// restored VM could expose.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.boolean(self.enabled);
        w.varint(self.capacity as u64);
        w.varint(self.next_seq);
        w.varint(self.dropped);
        w.varint(self.ring.len() as u64);
        for rec in &self.ring {
            save_record(w, &render_record(rec));
        }
    }

    /// Restores state written by [`FlightRecorder::save`]. Restored records
    /// enter the ring as [`RingRecord::Imported`] and dump byte-for-byte
    /// identically to the originals.
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.enabled = r.boolean()?;
        let start = r.offset();
        let capacity = r.varint()? as usize;
        if capacity == 0 {
            return Err(SnapError::BadValue { offset: start, what: "flight capacity" });
        }
        self.capacity = capacity;
        self.next_seq = r.varint()?;
        self.dropped = r.varint()?;
        let start = r.offset();
        let n = r.count(1 << 24, "flight records")?;
        if n > capacity {
            return Err(SnapError::BadValue { offset: start, what: "flight ring length" });
        }
        self.ring = VecDeque::with_capacity(n.min(4096));
        for _ in 0..n {
            let rec = load_record(r)?;
            self.ring.push_back(RingRecord::Imported(rec));
        }
        Ok(())
    }
}

/// Renders one ring record into its dump form (imported records pass
/// through verbatim).
fn render_record(r: &RingRecord) -> DumpRecord {
    match r {
        RingRecord::Event { seq, event } => DumpRecord::Event {
            seq: seq.0,
            time: event.time,
            vm: event.vm,
            vcpu: event.vcpu.0 as u32,
            class: event.class(),
            detail: event.kind.to_string(),
        },
        RingRecord::Tick { time } => DumpRecord::Tick { time: *time },
        RingRecord::Transition { time, auditor, detail } => {
            DumpRecord::Transition { time: *time, auditor: auditor.clone(), detail: detail.clone() }
        }
        RingRecord::Finding(f) => DumpRecord::Finding {
            time: f.time,
            auditor: f.auditor.clone(),
            severity: f.severity,
            message: f.message.clone(),
            provenance: f.provenance.clone(),
        },
        RingRecord::Span { name, start, duration_ns, track } => DumpRecord::Span {
            name: (*name).to_owned(),
            start: *start,
            duration_ns: *duration_ns,
            track: *track,
        },
        RingRecord::Imported(d) => d.clone(),
    }
}

/// Encodes one rendered record — the framing shared by `.htfr` dumps and
/// the `.htsp` flight section.
fn save_record(w: &mut SnapWriter, rec: &DumpRecord) {
    match rec {
        DumpRecord::Event { seq, time, vm, vcpu, class, detail } => {
            w.byte(TAG_EVENT);
            w.varint(*seq);
            w.varint(time.as_nanos());
            w.varint(u64::from(vm.0));
            w.varint(u64::from(*vcpu));
            w.byte(class_index(*class));
            w.string(detail);
        }
        DumpRecord::Tick { time } => {
            w.byte(TAG_TICK);
            w.varint(time.as_nanos());
        }
        DumpRecord::Transition { time, auditor, detail } => {
            w.byte(TAG_TRANSITION);
            w.varint(time.as_nanos());
            w.string(auditor);
            w.string(detail);
        }
        DumpRecord::Finding { time, auditor, severity, message, provenance } => {
            w.byte(TAG_FINDING);
            w.varint(time.as_nanos());
            w.string(auditor);
            w.byte(severity.to_byte());
            w.string(message);
            w.varint(provenance.len() as u64);
            for r in provenance {
                w.varint(r.0);
            }
        }
        DumpRecord::Span { name, start, duration_ns, track } => {
            w.byte(TAG_SPAN);
            w.string(name);
            w.varint(start.as_nanos());
            w.varint(*duration_ns);
            w.varint(u64::from(*track));
        }
    }
}

/// Decodes one record written by [`save_record`].
fn load_record(r: &mut SnapReader<'_>) -> Result<DumpRecord, SnapError> {
    let start = r.offset();
    let tag = r.byte()?;
    Ok(match tag {
        TAG_EVENT => {
            let seq = r.varint()?;
            let time = SimTime::from_nanos(r.varint()?);
            let vm = VmId(
                u32::try_from(r.varint()?)
                    .map_err(|_| SnapError::BadValue { offset: start, what: "vm id" })?,
            );
            let vcpu = u32::try_from(r.varint()?)
                .map_err(|_| SnapError::BadValue { offset: start, what: "vcpu index" })?;
            let class_off = r.offset();
            let idx = r.byte()? as usize;
            let class = *EventClass::ALL
                .get(idx)
                .ok_or(SnapError::BadValue { offset: class_off, what: "event class" })?;
            let detail = r.string()?;
            DumpRecord::Event { seq, time, vm, vcpu, class, detail }
        }
        TAG_TICK => DumpRecord::Tick { time: SimTime::from_nanos(r.varint()?) },
        TAG_TRANSITION => DumpRecord::Transition {
            time: SimTime::from_nanos(r.varint()?),
            auditor: r.string()?,
            detail: r.string()?,
        },
        TAG_FINDING => {
            let time = SimTime::from_nanos(r.varint()?);
            let auditor = r.string()?;
            let sev_off = r.offset();
            let severity = Severity::from_byte(r.byte()?)
                .ok_or(SnapError::BadValue { offset: sev_off, what: "finding severity" })?;
            let message = r.string()?;
            let n = r.count(1 << 16, "finding provenance refs")?;
            let mut provenance = Vec::with_capacity(n);
            for _ in 0..n {
                provenance.push(EventRef(r.varint()?));
            }
            DumpRecord::Finding { time, auditor, severity, message, provenance }
        }
        TAG_SPAN => DumpRecord::Span {
            name: r.string()?,
            start: SimTime::from_nanos(r.varint()?),
            duration_ns: r.varint()?,
            track: u32::try_from(r.varint()?)
                .map_err(|_| SnapError::BadValue { offset: start, what: "span track" })?,
        },
        tag => return Err(SnapError::BadTag { offset: start, tag }),
    })
}

/// One decoded (or rendered) dump record. Events carry their rendered
/// kind rather than the full snapshot: dumps are for humans and trace
/// viewers, not for replay — replay fidelity belongs to HTRC traces.
#[derive(Debug, Clone, PartialEq)]
pub enum DumpRecord {
    /// A forwarded event with its [`EventRef`] sequence number.
    Event { seq: u64, time: SimTime, vm: VmId, vcpu: u32, class: EventClass, detail: String },
    /// An EM periodic tick.
    Tick { time: SimTime },
    /// An auditor state transition.
    Transition { time: SimTime, auditor: String, detail: String },
    /// A finding with its causal provenance.
    Finding {
        time: SimTime,
        auditor: String,
        severity: Severity,
        message: String,
        provenance: Vec<EventRef>,
    },
    /// A host-side span (pipeline stage or fleet slice).
    Span { name: String, start: SimTime, duration_ns: u64, track: u32 },
}

/// A serialized flight-recorder snapshot: the versioned `.htfr` format.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Format version ([`FLIGHT_VERSION`] when freshly dumped).
    pub version: u64,
    /// Why the dump was taken ("conformance-divergence",
    /// "fleet-worker-panic", ...).
    pub reason: String,
    /// Ring capacity at dump time.
    pub capacity: u64,
    /// Sequence number the next event would have received — the total
    /// number of events forwarded over the recorder's lifetime.
    pub next_seq: u64,
    /// Records evicted from the ring before the dump.
    pub dropped: u64,
    /// Retained records, oldest first.
    pub records: Vec<DumpRecord>,
}

fn class_index(class: EventClass) -> u8 {
    EventClass::ALL.iter().position(|c| *c == class).expect("every class is in ALL") as u8
}

impl FlightDump {
    /// Serializes the dump as `.htfr` bytes: the header, the reason, the
    /// ring counters, then the records in the varint form of the `.htsp`
    /// flight section.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.header(FLIGHT_MAGIC, self.version);
        w.string(&self.reason);
        w.varint(self.capacity);
        w.varint(self.next_seq);
        w.varint(self.dropped);
        w.varint(self.records.len() as u64);
        for record in &self.records {
            save_record(&mut w, record);
        }
        w.into_bytes()
    }

    /// Parses `.htfr` bytes back into a dump.
    pub fn decode(bytes: &[u8]) -> Result<FlightDump, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(FLIGHT_MAGIC, FLIGHT_VERSION)?;
        let reason = r.string()?;
        let capacity = r.varint()?;
        let next_seq = r.varint()?;
        let dropped = r.varint()?;
        let n = r.count(usize::MAX, "flight records")?;
        let records = (0..n).map(|_| load_record(&mut r)).collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(FlightDump { version: FLIGHT_VERSION, reason, capacity, next_seq, dropped, records })
    }

    /// Human-readable rendering: a header plus one line per record,
    /// oldest first — the `flightdump` inspector's default output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "HTFR v{} | reason: {} | {} records (capacity {}, {} dropped, {} events total)",
            self.version,
            self.reason,
            self.records.len(),
            self.capacity,
            self.dropped,
            self.next_seq,
        );
        for record in &self.records {
            match record {
                DumpRecord::Event { seq, time, vm, vcpu, class, detail } => {
                    let _ = writeln!(out, "{seq:>8}  [{time} {vm} vcpu{vcpu}] {class}: {detail}");
                }
                DumpRecord::Tick { time } => {
                    let _ = writeln!(out, "       -  [{time}] em tick");
                }
                DumpRecord::Transition { time, auditor, detail } => {
                    let _ = writeln!(out, "       ~  [{time}] {auditor} transition: {detail}");
                }
                DumpRecord::Finding { time, auditor, severity, message, provenance } => {
                    let refs = render_refs(provenance);
                    let _ = writeln!(
                        out,
                        "       !  [{time} {severity}] {auditor}: {message} \
                         (triggered by exits {refs})"
                    );
                }
                DumpRecord::Span { name, start, duration_ns, track } => {
                    let _ = writeln!(
                        out,
                        "       =  [{start}] span {name} {duration_ns}ns (track {track})"
                    );
                }
            }
        }
        out
    }

    /// Exports the dump as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in
    /// `chrome://tracing` and Perfetto. Spans become complete (`"X"`)
    /// events, everything else instant (`"i"`) events; timestamps are
    /// simulated time in microseconds.
    pub fn to_chrome_json(&self) -> String {
        use serde::Value;
        let default_pid = self
            .records
            .iter()
            .find_map(|r| match r {
                DumpRecord::Event { vm, .. } => Some(u64::from(vm.0)),
                _ => None,
            })
            .unwrap_or(0);
        let ts = |t: SimTime| Value::F64(t.as_nanos() as f64 / 1000.0);
        let mut events: Vec<Value> = Vec::with_capacity(self.records.len() + 1);
        events.push(Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("ts".into(), Value::F64(0.0)),
            ("pid".into(), Value::U64(default_pid)),
            ("tid".into(), Value::U64(0)),
            (
                "args".into(),
                Value::Object(vec![(
                    "name".into(),
                    Value::Str(format!("hypertap vm{default_pid}")),
                )]),
            ),
        ]));
        for record in &self.records {
            let value = match record {
                DumpRecord::Event { seq, time, vm, vcpu, class, detail } => Value::Object(vec![
                    ("name".into(), Value::Str(detail.clone())),
                    ("cat".into(), Value::Str(class.to_string())),
                    ("ph".into(), Value::Str("i".into())),
                    ("ts".into(), ts(*time)),
                    ("pid".into(), Value::U64(u64::from(vm.0))),
                    ("tid".into(), Value::U64(u64::from(*vcpu))),
                    ("s".into(), Value::Str("t".into())),
                    ("args".into(), Value::Object(vec![("seq".into(), Value::U64(*seq))])),
                ]),
                DumpRecord::Tick { time } => Value::Object(vec![
                    ("name".into(), Value::Str("em-tick".into())),
                    ("cat".into(), Value::Str("tick".into())),
                    ("ph".into(), Value::Str("i".into())),
                    ("ts".into(), ts(*time)),
                    ("pid".into(), Value::U64(default_pid)),
                    ("tid".into(), Value::U64(0)),
                    ("s".into(), Value::Str("p".into())),
                ]),
                DumpRecord::Transition { time, auditor, detail } => Value::Object(vec![
                    ("name".into(), Value::Str(format!("{auditor} transition"))),
                    ("cat".into(), Value::Str("transition".into())),
                    ("ph".into(), Value::Str("i".into())),
                    ("ts".into(), ts(*time)),
                    ("pid".into(), Value::U64(default_pid)),
                    ("tid".into(), Value::U64(0)),
                    ("s".into(), Value::Str("p".into())),
                    (
                        "args".into(),
                        Value::Object(vec![("detail".into(), Value::Str(detail.clone()))]),
                    ),
                ]),
                DumpRecord::Finding { time, auditor, severity, message, provenance } => {
                    Value::Object(vec![
                        ("name".into(), Value::Str(message.clone())),
                        ("cat".into(), Value::Str("finding".into())),
                        ("ph".into(), Value::Str("i".into())),
                        ("ts".into(), ts(*time)),
                        ("pid".into(), Value::U64(default_pid)),
                        ("tid".into(), Value::U64(0)),
                        ("s".into(), Value::Str("g".into())),
                        (
                            "args".into(),
                            Value::Object(vec![
                                ("auditor".into(), Value::Str(auditor.clone())),
                                ("severity".into(), Value::Str(severity.to_string())),
                                (
                                    "provenance".into(),
                                    Value::Array(
                                        provenance.iter().map(|r| Value::U64(r.0)).collect(),
                                    ),
                                ),
                            ]),
                        ),
                    ])
                }
                DumpRecord::Span { name, start, duration_ns, track } => Value::Object(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("cat".into(), Value::Str("span".into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), ts(*start)),
                    ("dur".into(), Value::F64(*duration_ns as f64 / 1000.0)),
                    ("pid".into(), Value::U64(default_pid)),
                    ("tid".into(), Value::U64(u64::from(*track))),
                ]),
            };
            events.push(value);
        }
        let top = Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            (
                "otherData".into(),
                Value::Object(vec![
                    ("format".into(), Value::Str("hypertap-flight".into())),
                    ("version".into(), Value::U64(self.version)),
                    ("reason".into(), Value::Str(self.reason.clone())),
                ]),
            ),
        ]);
        serde_json::to_string_pretty(&top).expect("Value serialization is infallible")
    }
}

/// Renders a provenance list like `#3, #17` (or `-` when empty).
pub fn render_refs(refs: &[EventRef]) -> String {
    if refs.is_empty() {
        return "-".to_owned();
    }
    refs.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(", ")
}

/// Best-effort extraction of a panic payload's message — the std panic
/// machinery types payloads as `&str` or `String` in practice.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "<non-string panic payload>".to_owned(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use hypertap_hvsim::exit::VcpuSnapshot;
    use hypertap_hvsim::mem::Gpa;
    use hypertap_hvsim::vcpu::{Vcpu, VcpuId};

    fn ev(t_ms: u64) -> Event {
        Event {
            vm: VmId(0),
            vcpu: VcpuId(0),
            time: SimTime::from_millis(t_ms),
            kind: EventKind::ProcessSwitch { new_pdba: Gpa::new(0x1000) },
            state: VcpuSnapshot::capture(&Vcpu::new(VcpuId(0))),
        }
    }

    fn event_seqs(dump: &FlightDump) -> Vec<u64> {
        dump.records
            .iter()
            .filter_map(|r| match r {
                DumpRecord::Event { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn refs_are_assigned_in_arrival_order() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..3 {
            assert_eq!(fr.observe_event(&ev(i)), EventRef(i));
        }
        assert_eq!(fr.next_ref(), EventRef(3));
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 0);
    }

    #[test]
    fn capacity_one_ring_keeps_only_the_newest_event() {
        let mut fr = FlightRecorder::new(1);
        for i in 0..10 {
            fr.observe_event(&ev(i));
        }
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.dropped(), 9);
        let dump = fr.dump("test");
        assert_eq!(event_seqs(&dump), vec![9]);
        assert_eq!(dump.next_seq, 10);
    }

    #[test]
    fn exact_capacity_stream_drops_nothing() {
        let mut fr = FlightRecorder::new(16);
        for i in 0..16 {
            fr.observe_event(&ev(i));
        }
        assert_eq!(fr.len(), 16);
        assert_eq!(fr.dropped(), 0);
        assert_eq!(event_seqs(&fr.dump("test")), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn ten_times_capacity_preserves_newest_events_and_seqs() {
        let cap = 32u64;
        let mut fr = FlightRecorder::new(cap as usize);
        for i in 0..cap * 10 {
            fr.observe_event(&ev(i));
        }
        assert_eq!(fr.len(), cap as usize);
        assert_eq!(fr.dropped(), cap * 9);
        let dump = fr.dump("test");
        assert_eq!(event_seqs(&dump), (cap * 9..cap * 10).collect::<Vec<_>>());
        assert_eq!(dump.next_seq, cap * 10);
        assert_eq!(dump.dropped, cap * 9);
    }

    #[test]
    fn shrinking_capacity_discards_oldest() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..8 {
            fr.observe_event(&ev(i));
        }
        fr.set_capacity(3);
        assert_eq!(fr.capacity(), 3);
        assert_eq!(event_seqs(&fr.dump("test")), vec![5, 6, 7]);
        assert_eq!(fr.dropped(), 5);
    }

    #[test]
    fn disabled_recorder_numbers_but_retains_nothing() {
        let mut fr = FlightRecorder::new(8);
        fr.set_enabled(false);
        assert_eq!(fr.observe_event(&ev(1)), EventRef(0));
        assert_eq!(fr.observe_event(&ev(2)), EventRef(1));
        fr.observe_tick(SimTime::from_millis(3));
        fr.note_transition(SimTime::from_millis(3), "goshd", "flip".into());
        fr.note_finding(&Finding::new("goshd", SimTime::from_millis(3), Severity::Alert, "x"));
        assert!(fr.is_empty());
        assert_eq!(fr.next_ref(), EventRef(2), "sequencing continues while disabled");
        fr.set_enabled(true);
        assert_eq!(fr.observe_event(&ev(4)), EventRef(2));
        assert_eq!(fr.len(), 1);
    }

    #[test]
    fn restored_ring_continues_like_the_uninterrupted_one() {
        // Fill past capacity with every record kind, save, load into a
        // recorder of another capacity, then keep recording on both: the
        // restored ring must evict, number and dump exactly as the original.
        let mut original = FlightRecorder::new(6);
        for i in 0..9 {
            let r = original.observe_event(&ev(i));
            original.observe_tick(SimTime::from_millis(i));
            if i % 4 == 0 {
                original.note_transition(SimTime::from_millis(i), "goshd", format!("step {i}"));
                original.note_finding(
                    &Finding::new("goshd", SimTime::from_millis(i), Severity::Alert, "hung")
                        .with_provenance(vec![r]),
                );
            }
        }
        let mut w = SnapWriter::new();
        original.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FlightRecorder::new(64);
        let mut r = SnapReader::new(&bytes);
        restored.load(&mut r).expect("saved ring loads");
        r.finish().expect("load consumes the whole section");
        assert_eq!(restored.capacity(), 6);
        assert_eq!(restored.dump("cut"), original.dump("cut"));
        for i in 9..13 {
            assert_eq!(restored.observe_event(&ev(i)), original.observe_event(&ev(i)));
            restored.note_span("slice", SimTime::from_millis(i), 10, 0);
            original.note_span("slice", SimTime::from_millis(i), 10, 0);
        }
        assert_eq!(restored.next_ref(), original.next_ref());
        assert_eq!(restored.dropped(), original.dropped());
        assert_eq!(restored.dump_bytes("end"), original.dump_bytes("end"));
        assert_eq!(event_seqs(&restored.dump("end")), vec![10, 11, 12]);
    }

    #[test]
    fn dump_roundtrips_every_record_kind() {
        let mut fr = FlightRecorder::new(16);
        let r0 = fr.observe_event(&ev(1));
        fr.observe_tick(SimTime::from_millis(2));
        fr.note_transition(SimTime::from_millis(3), "goshd", "vcpu0 up->hung".into());
        fr.note_finding(
            &Finding::new("goshd", SimTime::from_millis(3), Severity::Alert, "vcpu0 hung")
                .with_provenance(vec![r0]),
        );
        fr.note_span("decode", SimTime::from_millis(1), 1234, 0);
        let dump = fr.dump("unit-test");
        let bytes = dump.encode();
        let back = FlightDump::decode(&bytes).expect("dump decodes");
        assert_eq!(back, dump);
        assert_eq!(back.version, FLIGHT_VERSION);
        assert_eq!(back.reason, "unit-test");
        assert_eq!(back.records.len(), 5);
        assert!(matches!(
            &back.records[3],
            DumpRecord::Finding { provenance, .. } if provenance == &vec![EventRef(0)]
        ));
    }

    #[test]
    fn render_mentions_every_record() {
        let mut fr = FlightRecorder::new(16);
        let r = fr.observe_event(&ev(1));
        fr.note_finding(
            &Finding::new("goshd", SimTime::from_millis(5), Severity::Alert, "vcpu0 hung")
                .with_provenance(vec![r]),
        );
        let text = fr.dump("render-test").render();
        assert!(text.contains("HTFR v3"), "{text}");
        assert!(text.contains("render-test"), "{text}");
        assert!(text.contains("process switch"), "{text}");
        assert!(text.contains("triggered by exits #0"), "{text}");
    }

    #[test]
    fn chrome_export_has_the_required_fields() {
        let mut fr = FlightRecorder::new(16);
        let r = fr.observe_event(&ev(1));
        fr.observe_tick(SimTime::from_millis(2));
        fr.note_finding(
            &Finding::new("goshd", SimTime::from_millis(3), Severity::Alert, "hung")
                .with_provenance(vec![r]),
        );
        fr.note_span("fleet-slice", SimTime::from_millis(0), 5_000_000, 3);
        let json = fr.dump("chrome-test").to_chrome_json();
        let top: serde::Value = serde_json::from_str(&json).expect("export is valid JSON");
        let events = match top.get("traceEvents") {
            Some(serde::Value::Array(items)) => items,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        assert!(!events.is_empty());
        let mut phases = Vec::new();
        for e in events {
            for field in ["name", "ph", "ts", "pid", "tid"] {
                assert!(e.get(field).is_some(), "missing {field} in {e:?}");
            }
            let ph = match e.get("ph") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("ph must be a string, got {other:?}"),
            };
            if ph == "X" {
                assert!(e.get("dur").is_some(), "complete events need dur: {e:?}");
            }
            phases.push(ph);
        }
        assert!(phases.contains(&"X".to_owned()), "span exported");
        assert!(phases.contains(&"i".to_owned()), "instants exported");
        assert!(json.contains("\"finding\""), "finding category present");
    }

    #[test]
    fn panic_message_extracts_str_and_string() {
        let from_str = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(from_str), "plain str");
        let msg = "formatted 42".to_owned();
        let from_string = std::panic::catch_unwind(move || std::panic::panic_any(msg)).unwrap_err();
        assert_eq!(panic_message(from_string), "formatted 42");
        let other = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(other), "<non-string panic payload>");
    }
}
