//! Running fuzz inputs and extracting their coverage.
//!
//! A scenario input runs in the live simulator with two EM observers, the
//! trace recorder and then a coverage tap; a trace input runs through the
//! replay path with the same auditor registration the conformance fuzzer
//! uses. Both produce a [`RunObservation`]: the trace, the verdict, the
//! flight dump, and a coverage map folding
//!
//! * consecutive-class stream edges and per-class histograms (the tap),
//! * auditor state-transition edges from the flight recorder (normalized
//!   so embedded quantities collapse onto the structural edge),
//! * finding/alarm counts from the verdict.
//!
//! Coverage is a pure function of the deterministic run, so the same input
//! always fingerprints identically — live, replayed, or sharded.

use crate::corpus::CorpusError;
use crate::coverage::{feature, normalize_detail, CoverageCollector, CoverageMap, StreamCoverage};
use hypertap_core::em::EventMultiplexer;
use hypertap_core::flight::{DumpRecord, FlightDump};
use hypertap_core::prelude::VmId;
use hypertap_monitors::goshd::{Goshd, GoshdConfig};
use hypertap_replay::prelude::*;
use hypertap_replay::replay::placeholder_vm;
use hypertap_replay::scenario::ConfigVariant;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Flight-ring capacity fuzz runs use, large enough that auditor
/// transitions are not evicted before coverage extraction.
pub const FLIGHT_CAPACITY: usize = 1 << 15;

/// GOSHD hang threshold for the fuzz-scale auditors, in milliseconds.
/// The paper threshold (4 s) matches production profiling but can never
/// fire inside a ~100 ms fuzz run; the fuzz-scale instance is profiled
/// against the simulator's millisecond-scale scheduler instead.
pub const FUZZ_GOSHD_THRESHOLD_MS: u64 = 10;

/// Registers the fuzz-scale auditors on top of the conformance set: a
/// second GOSHD with a threshold that can fire inside a capped fuzz run.
/// It is a passive observer that consults only its own last-switch state,
/// so it changes what the flight recorder sees — the coverage signal —
/// without perturbing the recorded trace, and it stays safe on the replay
/// path's placeholder VM (unlike HRKD's periodic VMI scan, which walks
/// guest page tables that only exist live). Live runs and replays must
/// both use this registration for verdicts to be comparable.
pub fn register_fuzz_auditors(em: &mut EventMultiplexer, vcpus: usize) {
    register_auditors(em, vcpus);
    register_extra_fuzz_auditors(em, vcpus);
}

/// Only the fuzz-scale additions, for EMs that already carry the
/// conformance set (the live path: `build_scenario_vm` registers it).
pub fn register_extra_fuzz_auditors(em: &mut EventMultiplexer, vcpus: usize) {
    let threshold = hypertap_hvsim::clock::Duration::from_millis(FUZZ_GOSHD_THRESHOLD_MS);
    em.register(Box::new(Goshd::new(vcpus, GoshdConfig::from_profiled_slice(threshold))));
}

/// Everything observed from running one input.
#[derive(Debug)]
pub struct RunObservation {
    /// The recorded (scenario input) or replayed (trace input) stream.
    pub trace: Trace,
    /// The run's verdict.
    pub verdict: Verdict,
    /// The full coverage map of the run.
    pub coverage: CoverageMap,
    /// Only the auditor state-transition edges — the guided-vs-blind
    /// comparison metric.
    pub transitions: CoverageMap,
    /// The run's `.htfr` flight dump.
    pub flight: Vec<u8>,
}

/// Folds the flight dump's auditor transitions into coverage maps. Each
/// transition contributes two features with AFL-bucketed counts: the raw
/// `(auditor, detail)` edge — auditor details are deterministic and carry
/// no timestamps, so per-vCPU identity survives — and the normalized edge,
/// where digit runs are masked so structurally-equal transitions from
/// future auditors that do embed quantities still collapse together.
pub fn fold_transitions(flight: &[u8], full: &mut CoverageMap, transitions: &mut CoverageMap) {
    let Ok(dump) = FlightDump::decode(flight) else { return };
    let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    for rec in &dump.records {
        if let DumpRecord::Transition { auditor, detail, .. } = rec {
            *counts.entry((auditor.clone(), detail.clone())).or_insert(0) += 1;
        }
    }
    let mut normalized: BTreeMap<(String, String), u64> = BTreeMap::new();
    for ((auditor, detail), count) in counts {
        *normalized.entry((auditor.clone(), normalize_detail(&detail))).or_insert(0) += count;
        let f = feature("transition-raw", &[&auditor, &detail]);
        full.observe(f, count);
        transitions.observe(f, count);
    }
    for ((auditor, detail), count) in normalized {
        let f = feature("transition", &[&auditor, &detail]);
        full.observe(f, count);
        transitions.observe(f, count);
    }
}

/// Folds verdict-derived features (finding shapes, alarm and finding
/// counts) into a coverage map.
pub fn fold_verdict(verdict: &Verdict, map: &mut CoverageMap) {
    let mut finding_counts: BTreeMap<String, u64> = BTreeMap::new();
    for rendered in &verdict.findings {
        *finding_counts.entry(normalize_detail(rendered)).or_insert(0) += 1;
    }
    for (shape, count) in finding_counts {
        map.observe(feature("finding", &[&shape]), count);
    }
    map.observe(feature("findings-total", &[]), verdict.findings.len() as u64);
    map.observe(feature("goshd-alarms", &[]), verdict.goshd_alarms.len() as u64);
    if verdict.counted_events > 0 {
        let mag = 64 - verdict.counted_events.leading_zeros();
        map.hit(feature("counted-mag", &[&mag.to_string()]));
    }
}

/// Folds a trace's record stream into a [`StreamCoverage`] — the same fold
/// the live [`CoverageCollector`] tap performs, applied after the fact.
pub fn fold_trace(trace: &Trace, stream: &mut StreamCoverage) {
    for rec in &trace.records {
        match rec {
            TraceRecord::Event(e) => stream.see_event(e.vcpu.0, e.class()),
            TraceRecord::Tick(_) => stream.see_tick(),
        }
    }
}

/// Runs a scenario live under `variant`, recording the trace and folding
/// coverage in a single pass: the recorder and then the coverage tap
/// observe the EM stream.
pub fn observe_scenario(scenario: &Scenario, variant: &ConfigVariant) -> RunObservation {
    let mut vm = build_scenario_vm(scenario, variant, VmId(0));
    let recorder = TraceRecorder::new(TraceHeader::new(
        scenario.vcpus as u64,
        scenario.seed,
        scenario.name.clone(),
        variant.label,
    ));
    let collector = CoverageCollector::new();
    {
        let em = &mut vm.machine.hypervisor_mut().em;
        em.flight_mut().set_capacity(FLIGHT_CAPACITY);
        register_extra_fuzz_auditors(em, scenario.vcpus);
        em.attach_tap(recorder.tap());
        em.attach_tap(collector.tap());
    }
    vm.run_for(scenario.duration);
    let flight = vm.flight_dump("scenariofuzz");
    let em = &mut vm.machine.hypervisor_mut().em;
    em.detach_tap();
    let trace = recorder.finish();
    let verdict = Verdict::collect(em, &trace);

    let mut coverage = CoverageMap::new();
    collector.fold_into(&mut coverage);
    let mut transitions = CoverageMap::new();
    fold_transitions(&flight, &mut coverage, &mut transitions);
    fold_verdict(&verdict, &mut coverage);
    RunObservation { trace, verdict, coverage, transitions, flight }
}

/// Runs a trace input through the replay path — the conformance auditor
/// set against a placeholder VM — capturing the same observation shape as
/// a live run (flight transitions included).
pub fn observe_replay(trace: &Trace) -> RunObservation {
    let mut em = EventMultiplexer::new();
    em.flight_mut().set_capacity(FLIGHT_CAPACITY);
    register_fuzz_auditors(&mut em, trace.header.vcpus as usize);
    let mut vm = placeholder_vm(trace.header.vcpus as usize);
    for rec in &trace.records {
        match rec {
            TraceRecord::Event(ev) => {
                em.deliver_all(&mut vm, std::slice::from_ref(ev));
            }
            TraceRecord::Tick(t) => em.tick(&mut vm, *t),
        }
    }
    let flight = em.flight().dump_bytes("scenariofuzz-replay");
    let verdict = Verdict::collect(&mut em, trace);

    let mut stream = StreamCoverage::new();
    fold_trace(trace, &mut stream);
    let mut coverage = CoverageMap::new();
    stream.fold_into(&mut coverage);
    let mut transitions = CoverageMap::new();
    fold_transitions(&flight, &mut coverage, &mut transitions);
    fold_verdict(&verdict, &mut coverage);
    RunObservation { trace: trace.clone(), verdict, coverage, transitions, flight }
}

/// Writes a reproducer for a diverging pair: `<stem>-left.htrz`,
/// `<stem>-right.htrz` and `<stem>.htfr`. Returns the written paths.
pub fn write_reproducer(
    dir: &Path,
    stem: &str,
    left: &Trace,
    right: &Trace,
    flight: &[u8],
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let paths = vec![
        dir.join(format!("{stem}-left.htrz")),
        dir.join(format!("{stem}-right.htrz")),
        dir.join(format!("{stem}.htfr")),
    ];
    std::fs::write(&paths[0], compress(&left.encode()))?;
    std::fs::write(&paths[1], compress(&right.encode()))?;
    std::fs::write(&paths[2], flight)?;
    Ok(paths)
}

/// Writes a single-trace reproducer: `<stem>.htrz` plus, when a flight
/// dump is available, `<stem>.htfr`. Returns the written paths.
pub fn write_trace_artifact(
    dir: &Path,
    stem: &str,
    trace: &Trace,
    flight: &[u8],
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = vec![dir.join(format!("{stem}.htrz"))];
    std::fs::write(&paths[0], compress(&trace.encode()))?;
    if !flight.is_empty() {
        paths.push(dir.join(format!("{stem}.htfr")));
        std::fs::write(&paths[1], flight)?;
    }
    Ok(paths)
}

/// Reads back a reproducer pair written by [`write_reproducer`] and
/// returns the divergence it replays to, if any. A file that cannot be
/// read is a [`CorpusError::Io`] naming its path.
pub fn replay_reproducer(dir: &Path, stem: &str) -> Result<Option<Divergence>, CorpusError> {
    let read = |name: String| -> Result<Trace, CorpusError> {
        let path = dir.join(name).display().to_string();
        let bytes = std::fs::read(&path).map_err(|e| CorpusError::Io(path.clone(), e))?;
        decompress(&bytes)
            .and_then(|raw| Trace::decode(&raw))
            .map_err(|e| CorpusError::Trace(path, e))
    };
    let left = read(format!("{stem}-left.htrz"))?;
    let right = read(format!("{stem}-right.htrz"))?;
    Ok(diff_traces(&left, &right, DiffPolicy::Exact))
}
