//! The versioned binary trace format.
//!
//! A trace is the full record of what the Event Forwarder handed the Event
//! Multiplexer during one run: every decoded [`Event`] (with the trusted
//! [`VcpuSnapshot`] captured at its VM Exit) plus every EM periodic tick, in
//! delivery order. The format is designed around two properties:
//!
//! * **Compactness.** Integers are LEB128 varints, event times are
//!   zigzag-encoded deltas from the previous record, and vCPU snapshots are
//!   delta-encoded against the previous snapshot of the *same* vCPU with a
//!   changed-field bitmask — consecutive exits of one vCPU usually change
//!   only RIP and a register or two.
//! * **Sync barriers.** Every [`SYNC_INTERVAL`] records the encoder emits a
//!   *sync barrier*: the per-vCPU delta state is reset and the next record
//!   is written in absolute form (absolute timestamp, full snapshot). The
//!   trailing index lists every barrier's record ordinal, byte offset and
//!   timestamp; the decoder checks each entry against the records it
//!   decoded.
//!
//! Layout:
//!
//! ```text
//! "HTRC"  varint(version) varint(vcpus) varint(seed)
//!         str(scenario) str(config)
//! records: 0x01 delta event | 0x02 delta tick | 0x03 sync event
//!          | 0x04 sync tick, ... , 0xFF end
//! index:  varint(count) { varint(ordinal) varint(offset) varint(time_ns) }*
//! "HTRE"
//! ```
//!
//! The bytes are written and read with [`hypertap_hvsim::snap`]'s
//! [`SnapWriter`]/[`SnapReader`]. Decoding never panics on malformed
//! input: every failure mode is a structured [`SnapError`].

use hypertap_core::event::{Event, EventKind, SyscallGate, VmId};
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::ept::AccessKind;
use hypertap_hvsim::exit::VcpuSnapshot;
use hypertap_hvsim::mem::{Gpa, Gva};
use hypertap_hvsim::snap::{rle_compress, rle_decompress, SnapError, SnapReader, SnapWriter};
use hypertap_hvsim::vcpu::{Cpl, VcpuId};
use std::collections::HashMap;
use std::fmt;

/// Leading magic of an uncompressed trace.
pub const TRACE_MAGIC: [u8; 4] = *b"HTRC";
/// Trailing magic sealing the index.
const END_MAGIC: [u8; 4] = *b"HTRE";
/// Leading magic of an RLE-compressed trace (golden files on disk).
pub const COMPRESSED_MAGIC: [u8; 4] = *b"HTRZ";
/// Current format version.
pub const TRACE_VERSION: u64 = 1;
/// Records between sync barriers (index granularity).
pub const SYNC_INTERVAL: usize = 256;

const REC_EVENT_DELTA: u8 = 0x01;
const REC_TICK_DELTA: u8 = 0x02;
const REC_EVENT_SYNC: u8 = 0x03;
const REC_TICK_SYNC: u8 = 0x04;
const REC_END: u8 = 0xFF;

/// Trace metadata: identifies what produced the record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (see [`TRACE_VERSION`]).
    pub version: u64,
    /// vCPU count of the recorded machine.
    pub vcpus: u64,
    /// Scenario seed (0 when not seed-derived).
    pub seed: u64,
    /// Scenario label (e.g. `quickstart`).
    pub scenario: String,
    /// Configuration label (e.g. `tlb-on/fine`).
    pub config: String,
}

impl TraceHeader {
    /// A header for the current version.
    pub fn new(
        vcpus: u64,
        seed: u64,
        scenario: impl Into<String>,
        config: impl Into<String>,
    ) -> Self {
        TraceHeader {
            version: TRACE_VERSION,
            vcpus,
            seed,
            scenario: scenario.into(),
            config: config.into(),
        }
    }
}

/// One entry of the record stream: a forwarded event or an EM tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A decoded guest operation delivered to the EM.
    Event(Event),
    /// An EM periodic tick at the given simulated time.
    Tick(SimTime),
}

impl TraceRecord {
    /// The record's simulated time.
    pub fn time(&self) -> SimTime {
        match self {
            TraceRecord::Event(e) => e.time,
            TraceRecord::Tick(t) => *t,
        }
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceRecord::Event(e) => write!(f, "{e}"),
            TraceRecord::Tick(t) => write!(f, "[{t}] em tick"),
        }
    }
}

/// A recorded run: header plus the ordered record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Metadata.
    pub header: TraceHeader,
    /// Events and ticks in delivery order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Number of event records.
    pub fn event_count(&self) -> u64 {
        self.records.iter().filter(|r| matches!(r, TraceRecord::Event(_))).count() as u64
    }

    /// Number of tick records.
    pub fn tick_count(&self) -> u64 {
        self.records.iter().filter(|r| matches!(r, TraceRecord::Tick(_))).count() as u64
    }

    /// Deliberately corrupts the record at `index` (modulo the stream
    /// length) by shifting its time one nanosecond forward. Used by the
    /// conformance fuzzer's `--inject-divergence` self-test: a harness
    /// that cannot detect a known-bad trace proves nothing.
    pub fn tamper(&mut self, index: u64) {
        if self.records.is_empty() {
            return;
        }
        let i = (index as usize) % self.records.len();
        match &mut self.records[i] {
            TraceRecord::Event(e) => e.time = SimTime::from_nanos(e.time.as_nanos() + 1),
            TraceRecord::Tick(t) => *t = SimTime::from_nanos(t.as_nanos() + 1),
        }
    }

    /// Iterates over the event records.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Event(e) => Some(e),
            TraceRecord::Tick(_) => None,
        })
    }

    /// Serializes the trace (records + index + trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.header(&TRACE_MAGIC, self.header.version);
        w.varint(self.header.vcpus);
        w.varint(self.header.seed);
        w.string(&self.header.scenario);
        w.string(&self.header.config);

        // (ordinal, byte offset, time) of every sync barrier.
        let mut index = Vec::new();
        let mut snaps: HashMap<usize, VcpuSnapshot> = HashMap::new();
        let mut last_ns = 0u64;
        let mut since_sync = SYNC_INTERVAL; // force a barrier on the first record
        for (ordinal, rec) in self.records.iter().enumerate() {
            let barrier = since_sync >= SYNC_INTERVAL;
            if barrier {
                snaps.clear();
                since_sync = 0;
                index.push((ordinal as u64, w.len() as u64, rec.time().as_nanos()));
            }
            since_sync += 1;
            match rec {
                TraceRecord::Tick(t) => {
                    w.byte(if barrier { REC_TICK_SYNC } else { REC_TICK_DELTA });
                    put_time(&mut w, barrier, last_ns, *t);
                    last_ns = t.as_nanos();
                }
                TraceRecord::Event(e) => {
                    // A barrier emptied `snaps`. Outside a barrier a vCPU's
                    // first appearance still needs a full snapshot; it is
                    // written in sync form but is not an index target (the
                    // barrier before it is).
                    let prev = snaps.get(&e.vcpu.0).copied();
                    w.byte(if prev.is_none() { REC_EVENT_SYNC } else { REC_EVENT_DELTA });
                    w.varint(e.vcpu.0 as u64);
                    put_time(&mut w, prev.is_none(), last_ns, e.time);
                    w.varint(e.vm.0 as u64);
                    put_kind(&mut w, &e.kind);
                    match prev {
                        None => put_snapshot_full(&mut w, &e.state),
                        Some(prev) => put_snapshot_delta(&mut w, &prev, &e.state),
                    }
                    snaps.insert(e.vcpu.0, e.state);
                    last_ns = e.time.as_nanos();
                }
            }
        }
        w.byte(REC_END);
        w.varint(index.len() as u64);
        for (ordinal, offset, time_ns) in index {
            w.varint(ordinal);
            w.varint(offset);
            w.varint(time_ns);
        }
        w.raw(&END_MAGIC);
        w.into_bytes()
    }

    /// Deserializes a trace, checking every index entry against the
    /// records it points at.
    pub fn decode(bytes: &[u8]) -> Result<Trace, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(&TRACE_MAGIC, TRACE_VERSION)?;
        let header = TraceHeader {
            version: TRACE_VERSION,
            vcpus: r.varint()?,
            seed: r.varint()?,
            scenario: r.string()?,
            config: r.string()?,
        };

        let mut records = Vec::new();
        let mut offsets = Vec::new();
        let mut snaps: HashMap<usize, VcpuSnapshot> = HashMap::new();
        let mut last_ns = 0u64;
        loop {
            let rec_offset = r.offset();
            let tag = r.byte()?;
            let sync = matches!(tag, REC_EVENT_SYNC | REC_TICK_SYNC);
            let record = match tag {
                REC_END => break,
                REC_TICK_SYNC | REC_TICK_DELTA => {
                    last_ns = get_time(&mut r, sync, last_ns)?;
                    TraceRecord::Tick(SimTime::from_nanos(last_ns))
                }
                REC_EVENT_SYNC | REC_EVENT_DELTA => {
                    let vcpu = r.varint()? as usize;
                    last_ns = get_time(&mut r, sync, last_ns)?;
                    let vm = u32::try_from(r.varint()?)
                        .map_err(|_| SnapError::BadValue { offset: rec_offset, what: "vm id" })?;
                    let kind = get_kind(&mut r)?;
                    let state = if sync {
                        get_snapshot_full(&mut r)?
                    } else {
                        let base = snaps
                            .get(&vcpu)
                            .ok_or(SnapError::MissingSnapshotBase { offset: rec_offset, vcpu })?;
                        get_snapshot_delta(&mut r, base)?
                    };
                    snaps.insert(vcpu, state);
                    TraceRecord::Event(Event {
                        vm: VmId(vm),
                        vcpu: VcpuId(vcpu),
                        time: SimTime::from_nanos(last_ns),
                        kind,
                        state,
                    })
                }
                _ => return Err(SnapError::BadTag { offset: rec_offset, tag }),
            };
            offsets.push(rec_offset);
            records.push(record);
        }

        for _ in 0..r.varint()? {
            let (ordinal, offset, time_ns) = (r.varint()?, r.varint()?, r.varint()?);
            let valid = offsets.get(ordinal as usize).is_some_and(|&o| o as u64 == offset)
                && records.get(ordinal as usize).is_some_and(|r| r.time().as_nanos() == time_ns);
            if !valid {
                return Err(SnapError::BadIndexEntry { ordinal });
            }
        }
        if r.take(4)? != END_MAGIC {
            return Err(SnapError::BadTrailer);
        }
        r.finish()?;
        Ok(Trace { header, records })
    }
}

/// Writes a record time: absolute in sync form, else as a wrapping delta
/// from the previous record. Together with [`get_time`] this round-trips
/// *any* pair of u64 timestamps exactly, while keeping ordinary monotone
/// traces one-or-two-byte compact.
fn put_time(w: &mut SnapWriter, sync: bool, last_ns: u64, t: SimTime) {
    if sync {
        w.varint(t.as_nanos());
    } else {
        w.svarint(t.as_nanos().wrapping_sub(last_ns) as i64);
    }
}

/// Inverse of [`put_time`].
fn get_time(r: &mut SnapReader<'_>, sync: bool, last_ns: u64) -> Result<u64, SnapError> {
    Ok(if sync { r.varint()? } else { last_ns.wrapping_add(r.svarint()? as u64) })
}

fn put_kind(w: &mut SnapWriter, kind: &EventKind) {
    match kind {
        EventKind::ProcessSwitch { new_pdba } => {
            w.byte(0);
            w.varint(new_pdba.value());
        }
        EventKind::ThreadSwitch { kernel_stack } => {
            w.byte(1);
            w.varint(*kernel_stack);
        }
        EventKind::Syscall { gate, number, args } => {
            w.byte(2);
            match gate {
                SyscallGate::Interrupt(v) => {
                    w.byte(0);
                    w.byte(*v);
                }
                SyscallGate::Sysenter => w.byte(1),
            }
            w.varint(*number);
            for a in args {
                w.varint(*a);
            }
        }
        EventKind::IoPort { port, write, value } => {
            w.byte(3);
            w.varint(*port as u64);
            w.boolean(*write);
            w.varint(*value);
        }
        EventKind::MmioAccess { gpa, write } => {
            w.byte(4);
            w.varint(gpa.value());
            w.boolean(*write);
        }
        EventKind::HardwareInterrupt { vector } => {
            w.byte(5);
            w.byte(*vector);
        }
        EventKind::ApicAccess { offset } => {
            w.byte(6);
            w.varint(*offset as u64);
        }
        EventKind::MemoryAccess { gpa, gva, access, value } => {
            w.byte(7);
            w.varint(gpa.value());
            w.opt_varint(gva.map(|g| g.value()));
            w.byte(match access {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
                AccessKind::Execute => 2,
            });
            w.opt_varint(*value);
        }
        EventKind::TssRelocated { expected, found } => {
            w.byte(8);
            w.varint(expected.value());
            w.varint(found.value());
        }
    }
}

fn get_kind(r: &mut SnapReader<'_>) -> Result<EventKind, SnapError> {
    let start = r.offset();
    let bad = |what| SnapError::BadValue { offset: start, what };
    let tag = r.byte()?;
    Ok(match tag {
        0 => EventKind::ProcessSwitch { new_pdba: Gpa::new(r.varint()?) },
        1 => EventKind::ThreadSwitch { kernel_stack: r.varint()? },
        2 => {
            let gate = match r.byte()? {
                0 => SyscallGate::Interrupt(r.byte()?),
                1 => SyscallGate::Sysenter,
                _ => return Err(bad("syscall gate")),
            };
            let number = r.varint()?;
            let mut args = [0u64; 5];
            for a in &mut args {
                *a = r.varint()?;
            }
            EventKind::Syscall { gate, number, args }
        }
        3 => {
            let port = u16::try_from(r.varint()?).map_err(|_| bad("io port"))?;
            EventKind::IoPort { port, write: r.boolean()?, value: r.varint()? }
        }
        4 => EventKind::MmioAccess { gpa: Gpa::new(r.varint()?), write: r.boolean()? },
        5 => EventKind::HardwareInterrupt { vector: r.byte()? },
        6 => EventKind::ApicAccess {
            offset: u16::try_from(r.varint()?).map_err(|_| bad("apic offset"))?,
        },
        7 => {
            let gpa = Gpa::new(r.varint()?);
            let gva = r.opt_varint()?.map(Gva::new);
            let access = match r.byte()? {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                2 => AccessKind::Execute,
                _ => return Err(bad("access kind")),
            };
            EventKind::MemoryAccess { gpa, gva, access, value: r.opt_varint()? }
        }
        8 => EventKind::TssRelocated {
            expected: Gva::new(r.varint()?),
            found: Gva::new(r.varint()?),
        },
        _ => return Err(SnapError::BadTag { offset: start, tag }),
    })
}

fn put_cpl(w: &mut SnapWriter, c: Cpl) {
    w.byte(match c {
        Cpl::Kernel => 0,
        Cpl::User => 1,
    });
}

fn get_cpl(r: &mut SnapReader<'_>) -> Result<Cpl, SnapError> {
    let offset = r.offset();
    match r.byte()? {
        0 => Ok(Cpl::Kernel),
        1 => Ok(Cpl::User),
        _ => Err(SnapError::BadValue { offset, what: "cpl" }),
    }
}

fn put_snapshot_full(w: &mut SnapWriter, s: &VcpuSnapshot) {
    w.varint(s.cr3.value());
    w.varint(s.tr_base.value());
    w.varint(s.rsp.value());
    w.varint(s.rip.value());
    put_cpl(w, s.cpl);
    for g in s.gprs_raw() {
        w.varint(g);
    }
}

fn get_snapshot_full(r: &mut SnapReader<'_>) -> Result<VcpuSnapshot, SnapError> {
    let cr3 = Gpa::new(r.varint()?);
    let tr_base = Gva::new(r.varint()?);
    let rsp = Gva::new(r.varint()?);
    let rip = Gva::new(r.varint()?);
    let cpl = get_cpl(r)?;
    let mut gprs = [0u64; 7];
    for g in &mut gprs {
        *g = r.varint()?;
    }
    Ok(VcpuSnapshot::from_parts(cr3, tr_base, rsp, rip, cpl, gprs))
}

/// Writes `s` as a change mask over `prev` (bits 0–4: cr3, tr_base, rsp,
/// rip, cpl), a GPR change mask, then only the changed fields.
fn put_snapshot_delta(w: &mut SnapWriter, prev: &VcpuSnapshot, s: &VcpuSnapshot) {
    let mask = u8::from(s.cr3 != prev.cr3)
        | u8::from(s.tr_base != prev.tr_base) << 1
        | u8::from(s.rsp != prev.rsp) << 2
        | u8::from(s.rip != prev.rip) << 3
        | u8::from(s.cpl != prev.cpl) << 4;
    let (gprs, prev_gprs) = (s.gprs_raw(), prev.gprs_raw());
    let mut gpr_mask = 0u8;
    for (i, (now, was)) in gprs.iter().zip(prev_gprs.iter()).enumerate() {
        gpr_mask |= u8::from(now != was) << i;
    }
    w.byte(mask);
    w.byte(gpr_mask);
    if mask & (1 << 0) != 0 {
        w.varint(s.cr3.value());
    }
    if mask & (1 << 1) != 0 {
        w.varint(s.tr_base.value());
    }
    if mask & (1 << 2) != 0 {
        w.varint(s.rsp.value());
    }
    if mask & (1 << 3) != 0 {
        w.varint(s.rip.value());
    }
    if mask & (1 << 4) != 0 {
        put_cpl(w, s.cpl);
    }
    for (i, g) in gprs.iter().enumerate() {
        if gpr_mask & (1 << i) != 0 {
            w.varint(*g);
        }
    }
}

fn get_snapshot_delta(
    r: &mut SnapReader<'_>,
    base: &VcpuSnapshot,
) -> Result<VcpuSnapshot, SnapError> {
    let offset = r.offset();
    let mask = r.byte()?;
    let gpr_mask = r.byte()?;
    if mask & 0xE0 != 0 || gpr_mask & 0x80 != 0 {
        return Err(SnapError::BadValue { offset, what: "snapshot mask" });
    }
    let cr3 = if mask & (1 << 0) != 0 { Gpa::new(r.varint()?) } else { base.cr3 };
    let tr_base = if mask & (1 << 1) != 0 { Gva::new(r.varint()?) } else { base.tr_base };
    let rsp = if mask & (1 << 2) != 0 { Gva::new(r.varint()?) } else { base.rsp };
    let rip = if mask & (1 << 3) != 0 { Gva::new(r.varint()?) } else { base.rip };
    let cpl = if mask & (1 << 4) != 0 { get_cpl(r)? } else { base.cpl };
    let mut gprs = base.gprs_raw();
    for (i, g) in gprs.iter_mut().enumerate() {
        if gpr_mask & (1 << i) != 0 {
            *g = r.varint()?;
        }
    }
    Ok(VcpuSnapshot::from_parts(cr3, tr_base, rsp, rip, cpl, gprs))
}

/// Wraps trace bytes for the checked-in golden traces: `HTRZ`, the
/// decompressed length as a varint, then [`rle_compress`] runs.
pub fn compress(bytes: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.raw(&COMPRESSED_MAGIC);
    w.varint(bytes.len() as u64);
    w.raw(&rle_compress(bytes));
    w.into_bytes()
}

/// Inverse of [`compress`]: structured errors, no panics, and the output
/// is bounded by the length claimed in the header.
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, SnapError> {
    let mut r = SnapReader::new(bytes);
    r.magic(&COMPRESSED_MAGIC)?;
    let expected = usize::try_from(r.varint()?).map_err(|_| SnapError::LengthMismatch)?;
    rle_decompress(r.take(r.remaining())?, expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(seed: u64) -> VcpuSnapshot {
        VcpuSnapshot::from_parts(
            Gpa::new(seed * 0x1000),
            Gva::new(0xffff_8000_0000 + seed),
            Gva::new(0x7fff_0000 + seed * 8),
            Gva::new(0x40_0000 + seed * 4),
            if seed.is_multiple_of(2) { Cpl::Kernel } else { Cpl::User },
            [seed, seed + 1, 0, 0, seed * 3, 0, 7],
        )
    }

    fn sample_trace(n: usize) -> Trace {
        let mut records = Vec::new();
        for i in 0..n {
            let t = SimTime::from_nanos(1_000 + i as u64 * 137);
            if i % 7 == 3 {
                records.push(TraceRecord::Tick(t));
            } else {
                records.push(TraceRecord::Event(Event {
                    vm: VmId(0),
                    vcpu: VcpuId(i % 2),
                    time: t,
                    kind: match i % 4 {
                        0 => EventKind::ProcessSwitch { new_pdba: Gpa::new(0x1000 * i as u64) },
                        1 => EventKind::Syscall {
                            gate: SyscallGate::Interrupt(0x80),
                            number: i as u64,
                            args: [1, 2, 3, 4, 5],
                        },
                        2 => EventKind::ThreadSwitch { kernel_stack: 0xffff + i as u64 },
                        _ => EventKind::IoPort { port: 0x3f8, write: true, value: i as u64 },
                    },
                    state: snap((i / 3) as u64),
                }));
            }
        }
        Trace { header: TraceHeader::new(2, 42, "unit", "tlb-on"), records }
    }

    #[test]
    fn round_trip_preserves_everything() {
        // 600 records cross two sync barriers.
        let trace = sample_trace(600);
        assert_eq!(Trace::decode(&trace.encode()).expect("decode"), trace);
    }

    #[test]
    fn delta_encoding_is_compact() {
        let trace = sample_trace(600);
        let bytes = trace.encode();
        // Full snapshots alone would be ≥ 11 varints/event; the delta form
        // should land well under 40 bytes per record on this stream.
        assert!(
            bytes.len() < trace.records.len() * 40,
            "{} bytes for {} records",
            bytes.len(),
            trace.records.len()
        );
    }

    #[test]
    fn trace_specific_errors_are_structured() {
        let event = |t: u64| {
            TraceRecord::Event(Event {
                vm: VmId(0),
                vcpu: VcpuId(0),
                time: SimTime::from_nanos(t),
                kind: EventKind::HardwareInterrupt { vector: 32 },
                state: snap(1),
            })
        };
        let header = TraceHeader::new(2, 0, "u", "c");
        let one = Trace { header: header.clone(), records: vec![event(5)] }.encode();
        let two = Trace { header, records: vec![event(5), event(6)] }.encode();

        // Tail of `one`: END, count 1, ordinal 0, offset, time 5, "HTRE".
        let mut bad_trailer = one.clone();
        *bad_trailer.last_mut().unwrap() = b'X';
        assert_eq!(Trace::decode(&bad_trailer), Err(SnapError::BadTrailer));
        let mut bad_index = one.clone();
        let time_at = bad_index.len() - 5;
        assert_eq!(bad_index[time_at], 5);
        bad_index[time_at] = 6;
        assert_eq!(Trace::decode(&bad_index), Err(SnapError::BadIndexEntry { ordinal: 0 }));

        // Record 1 of `two` is a vcpu0 delta; point it at vcpu1 instead.
        let at = one.iter().zip(&two).position(|(a, b)| a != b).unwrap();
        assert_eq!(two[at..at + 2], [REC_EVENT_DELTA, 0]);
        let mut no_base = two.clone();
        no_base[at + 1] = 1;
        assert_eq!(
            Trace::decode(&no_base),
            Err(SnapError::MissingSnapshotBase { offset: at, vcpu: 1 })
        );
    }

    #[test]
    fn compression_round_trips() {
        let bytes = sample_trace(300).encode();
        let z = compress(&bytes);
        assert_eq!(decompress(&z).expect("decompress"), bytes);
        // Degenerate inputs.
        assert_eq!(decompress(&compress(&[])).expect("empty"), Vec::<u8>::new());
        let runs = vec![0u8; 1000];
        let z = compress(&runs);
        assert!(z.len() < 30, "pure run should collapse, got {} bytes", z.len());
        assert_eq!(decompress(&z).expect("runs"), runs);
    }
}
