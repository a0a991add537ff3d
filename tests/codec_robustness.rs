//! One robustness harness for all six binary decoders.
//!
//! Every format HyperTap reads back registers a sample and its decoder in
//! [`formats`]: HTRC traces, the HTRZ compressed wrapper, HTFL fleet
//! archives, `.htfr` flight dumps, `.htsp` machine snapshots and `.htcp`
//! campaign checkpoints. All of them sit on `hypertap_hvsim::snap`, so
//! one table checks them all. For every format:
//!
//! * every proper prefix of the sample, and the sample plus a trailing
//!   byte, is a structured error (on samples over [`EXHAUSTIVE`] bytes,
//!   prefixes are strided past the first and last [`EDGE`] bytes);
//! * a single flipped byte never panics the decoder;
//! * a length prefix claiming far more than the input holds is an error,
//!   not an allocation;
//! * a wrong magic is `BadMagic` and the next version is
//!   `UnsupportedVersion`.

use hypertap_core::audit::{Finding, Severity};
use hypertap_core::event::{Event, EventKind};
use hypertap_core::flight::FlightRecorder;
use hypertap_core::prelude::VmId;
use hypertap_faultinject::campaign::default_campaign;
use hypertap_faultinject::checkpoint::{
    campaign_fingerprint, CampaignCheckpoint, HTCP_MAGIC, HTCP_VERSION,
};
use hypertap_faultinject::spec::{Outcome, TrialResult};
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::exit::VcpuSnapshot;
use hypertap_hvsim::mem::Gpa;
use hypertap_hvsim::snap::{SnapError, SnapWriter};
use hypertap_hvsim::vcpu::{Vcpu, VcpuId};
use hypertap_monitors::snapshot::{HTSP_MAGIC, HTSP_VERSION};
use hypertap_replay::fleet::{decode_fleet_archive, FLEET_VERSION, GOLDEN_FLEET_NAME};
use hypertap_replay::golden::{golden_path, golden_snapshots, snapshot_path};
use hypertap_replay::scenario::{build_scenario_vm, BASE};
use hypertap_replay::trace::{decompress, Trace, TRACE_VERSION};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Samples up to this size have every prefix length and flip position
/// checked.
const EXHAUSTIVE: usize = 4096;

/// On larger samples, positions within this many bytes of either end are
/// all checked and about [`STRIDED`] positions in between.
const EDGE: usize = 128;
const STRIDED: usize = 256;

type Decoder = Box<dyn Fn(&[u8]) -> Result<(), SnapError>>;

/// One registered format.
struct Format {
    name: String,
    /// A valid encoding.
    sample: Vec<u8>,
    decode: Decoder,
    /// Offset of the one-byte version varint; `None` for HTRZ, whose
    /// header is the magic plus the decompressed length.
    version_at: Option<usize>,
    /// Blobs whose length prefixes claim far more than they hold.
    huge: Vec<Vec<u8>>,
}

fn read(path: std::path::PathBuf) -> Vec<u8> {
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A header followed by `fill`.
fn blob(magic: &[u8; 4], version: u64, fill: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.header(magic, version);
    fill(&mut w);
    w.into_bytes()
}

fn flight_sample() -> Vec<u8> {
    let mut fr = FlightRecorder::new(16);
    let seq = fr.observe_event(&Event {
        vm: VmId(3),
        vcpu: VcpuId(1),
        time: SimTime::from_millis(1),
        kind: EventKind::ProcessSwitch { new_pdba: Gpa::new(0x1000) },
        state: VcpuSnapshot::capture(&Vcpu::new(VcpuId(1))),
    });
    fr.observe_tick(SimTime::from_millis(2));
    fr.note_transition(SimTime::from_millis(3), "goshd", "vcpu1 up->hung".into());
    fr.note_finding(
        &Finding::new("goshd", SimTime::from_millis(3), Severity::Alert, "vcpu1 hung")
            .with_provenance(vec![seq]),
    );
    fr.note_span("decode", SimTime::from_millis(1), 1234, 7);
    fr.dump_bytes("robustness")
}

fn checkpoint_sample() -> Vec<u8> {
    let cfg = default_campaign(47);
    let specs = cfg.specs();
    let outcomes = [
        Outcome::NotActivated,
        Outcome::NotManifested,
        Outcome::NotDetected,
        Outcome::PartialHang,
        Outcome::FullHang,
    ];
    let completed = outcomes
        .iter()
        .zip(&specs)
        .enumerate()
        .map(|(i, (&outcome, spec))| {
            let at = (i > 0).then_some(1_000 * i as u64);
            let result = TrialResult {
                spec: spec.clone(),
                outcome,
                activations: i as u64,
                activated_at_ns: at,
                first_alarm_ns: outcome.detected().then_some(5_000),
                detection_latency_ns: outcome.detected().then_some(4_000),
                full_hang_at_ns: (outcome == Outcome::FullHang).then_some(9_000),
                full_hang_latency_ns: (outcome == Outcome::FullHang).then_some(8_000),
            };
            (2 * i as u64, result)
        })
        .collect();
    CampaignCheckpoint {
        fingerprint: campaign_fingerprint(&cfg),
        total: specs.len() as u64,
        completed,
    }
    .encode()
}

fn formats() -> Vec<Format> {
    let htrz = read(golden_path("three_ninjas"));
    let htrc = decompress(&htrz).expect("golden trace decompresses");
    let htfl = decompress(&read(golden_path(GOLDEN_FLEET_NAME))).expect("fleet decompresses");
    let mut formats = vec![
        Format {
            name: "HTRC".into(),
            sample: htrc,
            decode: Box::new(|b| Trace::decode(b).map(drop)),
            version_at: Some(4),
            huge: vec![blob(b"HTRC", TRACE_VERSION, |w| {
                w.varint(1); // vcpus
                w.varint(0); // seed
                w.varint(u64::MAX); // scenario label length
                w.byte(b'x');
            })],
        },
        Format {
            name: "HTRZ".into(),
            sample: htrz,
            decode: Box::new(|b| decompress(b).map(drop)),
            version_at: None,
            huge: vec![{
                let mut w = SnapWriter::new();
                w.raw(b"HTRZ");
                w.varint(1 << 62);
                w.raw(&[0x80, 7]);
                w.into_bytes()
            }],
        },
        Format {
            name: "HTFL".into(),
            sample: htfl,
            decode: Box::new(|b| decode_fleet_archive(b).map(drop)),
            version_at: Some(4),
            huge: vec![
                b"HTFL\xff\xff\xff\xff".to_vec(),
                blob(b"HTFL", FLEET_VERSION, |w| w.varint(u64::from(u32::MAX))),
                blob(b"HTFL", FLEET_VERSION, |w| {
                    w.varint(1);
                    w.varint(u64::MAX); // first trace's length
                }),
            ],
        },
        Format {
            name: "HTFR".into(),
            sample: flight_sample(),
            decode: Box::new(|b| hypertap_core::flight::FlightDump::decode(b).map(drop)),
            version_at: Some(4),
            huge: vec![
                blob(b"HTFR", hypertap_core::flight::FLIGHT_VERSION, |w| {
                    w.varint(u64::MAX); // reason length
                    w.byte(b'x');
                }),
                blob(b"HTFR", hypertap_core::flight::FLIGHT_VERSION, |w| {
                    w.string("r");
                    w.varint(16);
                    w.varint(0);
                    w.varint(0);
                    w.varint(u64::MAX); // record count
                }),
            ],
        },
        Format {
            name: "HTCP".into(),
            sample: checkpoint_sample(),
            decode: Box::new(|b| CampaignCheckpoint::decode(b).map(drop)),
            version_at: Some(4),
            huge: vec![blob(HTCP_MAGIC, HTCP_VERSION, |w| {
                w.varint(0); // fingerprint
                w.varint(u64::MAX); // total trials
                w.varint(u64::from(u32::MAX)); // completed trials, within the total
            })],
        },
    ];
    // The smallest golden snapshot is checked exhaustively, a large one
    // strided; each decode restores into a recipe-fresh VM.
    for (name, scenario, _) in golden_snapshots().into_iter().take(2) {
        formats.push(Format {
            name: format!("HTSP {name}"),
            sample: read(snapshot_path(&name)),
            decode: Box::new(move |b| build_scenario_vm(&scenario, &BASE, VmId(0)).restore(b)),
            version_at: Some(4),
            huge: vec![blob(HTSP_MAGIC, HTSP_VERSION, |w| {
                w.boolean(true); // booted
                w.varint(u64::MAX); // vcpu count
            })],
        });
    }
    formats
}

/// Positions `0..len` to check.
fn positions(len: usize) -> BTreeSet<usize> {
    let stride = if len <= EXHAUSTIVE { 1 } else { len / STRIDED };
    (0..len.min(EDGE))
        .chain(len.saturating_sub(EDGE)..len)
        .chain((0..len).step_by(stride))
        .collect()
}

fn decode_without_panic(f: &Format, bytes: &[u8], what: &str) -> Result<(), SnapError> {
    catch_unwind(AssertUnwindSafe(|| (f.decode)(bytes)))
        .unwrap_or_else(|_| panic!("{}: decoder panicked on {what}", f.name))
}

#[test]
fn samples_decode() {
    for f in formats() {
        assert_eq!((f.decode)(&f.sample), Ok(()), "{}: sample must decode", f.name);
    }
}

#[test]
fn every_prefix_and_a_trailing_byte_are_structured_errors() {
    for f in formats() {
        for len in positions(f.sample.len()) {
            let res = decode_without_panic(&f, &f.sample[..len], &format!("{len}-byte prefix"));
            assert!(res.is_err(), "{}: {len}-byte prefix decoded", f.name);
        }
        let mut longer = f.sample.clone();
        longer.push(0);
        assert!(decode_without_panic(&f, &longer, "trailing byte").is_err(), "{}", f.name);
    }
}

#[test]
fn single_byte_flips_never_panic() {
    // A flipped byte may still decode (payloads are not checksummed), but
    // it must never panic the decoder.
    for f in formats() {
        for pos in positions(f.sample.len()) {
            let mut bad = f.sample.clone();
            bad[pos] ^= 0xA5;
            let _ = decode_without_panic(&f, &bad, &format!("flip at {pos}"));
        }
    }
}

#[test]
fn huge_length_prefixes_are_errors() {
    for f in formats() {
        for (i, bytes) in f.huge.iter().enumerate() {
            let res = decode_without_panic(&f, bytes, &format!("huge blob {i}"));
            assert!(res.is_err(), "{}: huge blob {i} decoded", f.name);
        }
    }
}

#[test]
fn wrong_magic_and_next_version_are_rejected() {
    for f in formats() {
        let mut bad = f.sample.clone();
        bad[0] ^= 0xFF;
        assert_eq!((f.decode)(&bad), Err(SnapError::BadMagic), "{}", f.name);
        if let Some(at) = f.version_at {
            let mut next = f.sample.clone();
            next[at] += 1;
            let want = SnapError::UnsupportedVersion(u64::from(next[at]));
            assert_eq!((f.decode)(&next), Err(want), "{}", f.name);
        }
    }
}
