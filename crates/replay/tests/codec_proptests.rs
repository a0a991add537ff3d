//! Property-based tests for the trace codec: encoding round-trips exactly,
//! and malformed input — truncation anywhere, byte corruption anywhere —
//! produces a structured [`SnapError`](hypertap_hvsim::snap::SnapError), never a panic.

use hypertap_core::event::{Event, EventKind, SyscallGate, VmId};
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::ept::AccessKind;
use hypertap_hvsim::exit::VcpuSnapshot;
use hypertap_hvsim::mem::{Gpa, Gva};
use hypertap_hvsim::vcpu::{Cpl, VcpuId};
use hypertap_replay::trace::{compress, decompress, Trace, TraceHeader, TraceRecord};
use proptest::prelude::*;

/// Builds a record from sampled raw material. `kind_sel` picks among all
/// nine event kinds plus the tick record; `payload` seeds every field so
/// round-tripping exercises full-width values.
fn record_of(kind_sel: u8, time_ns: u64, vcpu: u8, payload: u64) -> TraceRecord {
    let kind = match kind_sel % 10 {
        0 => return TraceRecord::Tick(SimTime::from_nanos(time_ns)),
        1 => EventKind::ProcessSwitch { new_pdba: Gpa::new(payload & !0xFFF) },
        2 => EventKind::ThreadSwitch { kernel_stack: payload },
        3 => EventKind::Syscall {
            gate: if payload & 1 == 0 {
                SyscallGate::Interrupt((payload >> 1) as u8)
            } else {
                SyscallGate::Sysenter
            },
            number: payload >> 8,
            args: [payload, !payload, payload.rotate_left(13), 0, u64::MAX],
        },
        4 => EventKind::IoPort {
            port: payload as u16,
            write: payload & 1 == 1,
            value: payload >> 16,
        },
        5 => EventKind::MmioAccess { gpa: Gpa::new(payload), write: payload & 2 == 2 },
        6 => EventKind::HardwareInterrupt { vector: payload as u8 },
        7 => EventKind::ApicAccess { offset: (payload & 0xFFF) as u16 },
        8 => EventKind::MemoryAccess {
            gpa: Gpa::new(payload),
            gva: if payload & 1 == 0 { Some(Gva::new(!payload)) } else { None },
            access: match payload % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Execute,
            },
            value: if payload & 2 == 0 { Some(payload >> 2) } else { None },
        },
        _ => EventKind::TssRelocated {
            expected: Gva::new(payload),
            found: Gva::new(payload.wrapping_add(0x1000)),
        },
    };
    TraceRecord::Event(Event {
        vm: VmId(0),
        vcpu: VcpuId(vcpu as usize % 4),
        time: SimTime::from_nanos(time_ns),
        kind,
        state: VcpuSnapshot::from_parts(
            Gpa::new(payload & !0xFFF),
            Gva::new(payload ^ 0xAAAA),
            Gva::new(payload >> 1),
            Gva::new(payload.rotate_right(7)),
            if payload & 4 == 0 { Cpl::Kernel } else { Cpl::User },
            [payload, payload >> 1, 0, u64::MAX, payload.wrapping_mul(3), 1, payload ^ u64::MAX],
        ),
    })
}

fn trace_of(raw: &[(u8, u64, u8, u64)]) -> Trace {
    Trace {
        header: TraceHeader::new(4, 42, "proptest", "any"),
        records: raw.iter().map(|&(k, t, v, p)| record_of(k, t, v, p)).collect(),
    }
}

proptest! {
    /// Arbitrary record sequences — any kind mix, non-monotone times, full
    /// 64-bit payloads — survive encode/decode and compress/decompress
    /// without loss.
    #[test]
    fn encode_decode_round_trips(
        raw in prop::collection::vec(
            (0u8..=255, 0u64..u64::MAX, 0u8..=255, 0u64..u64::MAX),
            0..300,
        ),
    ) {
        let trace = trace_of(&raw);
        let bytes = trace.encode();
        let decoded = Trace::decode(&bytes).expect("well-formed bytes decode");
        prop_assert_eq!(&decoded, &trace);
        let unpacked = decompress(&compress(&bytes)).expect("round-trip");
        prop_assert_eq!(unpacked, bytes);
    }

    /// Truncating an encoded trace at any point yields a structured error,
    /// never a panic and never a silent partial decode.
    #[test]
    fn truncation_never_panics(
        raw in prop::collection::vec(
            (0u8..=255, 0u64..u64::MAX, 0u8..=255, 0u64..u64::MAX),
            1..80,
        ),
        cut_frac in 0u64..10_000,
    ) {
        let bytes = trace_of(&raw).encode();
        let cut = (cut_frac as usize * (bytes.len() - 1)) / 10_000;
        prop_assert!(
            Trace::decode(&bytes[..cut]).is_err(),
            "decode of a {cut}-byte prefix of {} bytes must fail",
            bytes.len()
        );
    }

    /// Flipping any single byte leaves decode panic-free: it either still
    /// decodes (e.g. a flipped bit inside an unvalidated payload) or
    /// returns a structured error — and decompression of corrupted
    /// compressed bytes behaves the same.
    #[test]
    fn corruption_never_panics(
        raw in prop::collection::vec(
            (0u8..=255, 0u64..u64::MAX, 0u8..=255, 0u64..u64::MAX),
            1..80,
        ),
        pos_frac in 0u64..10_000,
        flip in 1u8..=255,
    ) {
        let mut bytes = trace_of(&raw).encode();
        let pos = (pos_frac as usize * (bytes.len() - 1)) / 10_000;
        bytes[pos] ^= flip;
        let _ = Trace::decode(&bytes);

        let mut packed = compress(&bytes);
        let pos = (pos_frac as usize * (packed.len() - 1)) / 10_000;
        packed[pos] ^= flip;
        let _ = decompress(&packed);
    }
}
