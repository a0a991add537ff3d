//! Coverage-guided scenario fuzzing for the HyperTap monitoring stack.
//!
//! The conformance fuzzer samples scenarios blindly from seeds; this crate
//! follows the IRIS direction instead and turns the replay + flight +
//! metrics layers into a feedback-driven bug-finding engine:
//!
//! * **Inputs** are scenario specs (run live, diffed against a partner
//!   configuration, cross-checked against replay) and recorded HTRC
//!   traces (mutated through the codec, run through replay alone).
//! * **Coverage** is deterministic feedback the stack already produces —
//!   auditor state-transition edges from the flight recorder, stream-edge
//!   and per-class histograms from an EM tap, finding counts from the
//!   verdict — folded into a [`CoverageMap`] fingerprint.
//! * **The corpus** keeps every input that reached new coverage; guided
//!   generation mutates corpus entries ([`mutate`],
//!   [`hypertap_replay::mutate`]) instead of sampling fresh.
//! * **Divergences** (pair mismatch, replay mismatch, codec or replay
//!   non-determinism) are shrunk to a minimal reproducer pair
//!   (`.htrz` + `.htfr`) via [`hypertap_replay::shrink`].
//!
//! Everything is seeded: the same seed and iteration budget produce a
//! byte-identical corpus and coverage fingerprint. (A wall-clock budget
//! can stop a run early, trading that guarantee for bounded latency.)

pub mod corpus;
pub mod coverage;
pub mod harness;
pub mod mutate;

use crate::corpus::{CorpusItem, InputKind};
use crate::coverage::CoverageMap;
use crate::harness::{observe_replay, observe_scenario, write_reproducer, write_trace_artifact};
use crate::mutate::mutate_scenario;
use hypertap_hvsim::clock::Duration;
use hypertap_replay::prelude::*;
use hypertap_replay::scenario::{ConfigVariant, EXTRA_BITMAP, FLIGHT_OFF, NO_TLB};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// The Exact-policy partner variants a scenario input is diffed against.
pub const PARTNERS: [&ConfigVariant; 3] = [&NO_TLB, &FLIGHT_OFF, &EXTRA_BITMAP];

/// A fuzzing budget and strategy.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: drives every sampled choice in the run.
    pub seed: u64,
    /// Iteration budget (one generated input per iteration).
    pub iterations: u64,
    /// Duration cap applied to every scenario the fuzzer runs.
    pub cap: Duration,
    /// Coverage-guided corpus mutation (true) or blind seed sampling
    /// (false) — the baseline the guided loop is compared against.
    pub guided: bool,
    /// Optional wall-clock budget. Stops the loop early when exceeded;
    /// byte-determinism then only holds between runs hitting the same
    /// iteration count.
    pub deadline: Option<std::time::Instant>,
}

impl FuzzConfig {
    /// A guided config with the default 100 ms cap.
    pub fn new(seed: u64, iterations: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            iterations,
            cap: Duration::from_millis(100),
            guided: true,
            deadline: None,
        }
    }
}

/// One confirmed misbehaviour found while fuzzing.
#[derive(Debug)]
pub struct DivergenceReport {
    /// Iteration that found it (`u64::MAX` for the seeding phase).
    pub iteration: u64,
    /// What kind of check failed: `pair-divergence`, `replay-mismatch`,
    /// `provenance-invalid`, `codec-roundtrip`, `replay-nondeterminism`.
    pub kind: &'static str,
    /// The input's name.
    pub input: String,
    /// Human-readable description.
    pub detail: String,
    /// Reproducer artifacts written for it (empty when the run had no
    /// output directory).
    pub reproducer: Vec<PathBuf>,
}

/// The result of a fuzzing run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Iterations actually executed (≤ the budget under a deadline).
    pub iterations: u64,
    /// Live simulator runs plus replays performed.
    pub executions: u64,
    /// The corpus: every input that reached new coverage, admission order.
    pub corpus: Vec<CorpusItem>,
    /// The merged coverage map.
    pub coverage: CoverageMap,
    /// Merged auditor state-transition edges only.
    pub transitions: CoverageMap,
    /// Everything that failed a check.
    pub divergences: Vec<DivergenceReport>,
}

impl FuzzOutcome {
    /// The run's coverage fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.coverage.fingerprint()
    }

    /// Distinct auditor state-transition edge bits reached.
    pub fn transition_edges(&self) -> u32 {
        self.transitions.bits()
    }
}

struct Fuzzer {
    config: FuzzConfig,
    rng: StdRng,
    corpus: Vec<CorpusItem>,
    coverage: CoverageMap,
    transitions: CoverageMap,
    divergences: Vec<DivergenceReport>,
    executions: u64,
    repro_dir: Option<PathBuf>,
}

impl Fuzzer {
    fn clamp(&self, s: &mut Scenario) {
        if s.duration > self.config.cap {
            s.duration = self.config.cap;
        }
    }

    fn admit(
        &mut self,
        iteration: u64,
        name: String,
        parent: Option<String>,
        kind: InputKind,
        cov: &CoverageMap,
        trans: &CoverageMap,
    ) {
        let novel = self.coverage.novel_bits(cov) > 0;
        self.coverage.merge(cov);
        self.transitions.merge(trans);
        if novel {
            self.corpus.push(CorpusItem { name, parent, fingerprint: cov.fingerprint(), kind });
        }
        let _ = iteration;
    }

    fn report(
        &mut self,
        iteration: u64,
        kind: &'static str,
        input: &str,
        detail: String,
        reproducer: Vec<PathBuf>,
    ) {
        self.divergences.push(DivergenceReport {
            iteration,
            kind,
            input: input.to_owned(),
            detail,
            reproducer,
        });
    }

    /// Full checks for a scenario input: live base run, Exact diff against
    /// a sampled partner variant, replay cross-check, provenance check.
    /// Returns the base observation.
    fn check_scenario(&mut self, iteration: u64, s: &Scenario) -> crate::harness::RunObservation {
        let obs = observe_scenario(s, &BASE);
        self.executions += 1;

        let partner = PARTNERS[self.rng.gen_range(0usize..PARTNERS.len())];
        let (partner_trace, _) = run_scenario(s, partner);
        self.executions += 1;
        if diff_traces(&obs.trace, &partner_trace, DiffPolicy::Exact).is_some() {
            let shrunk = shrink_diverging_prefix(&obs.trace, &partner_trace, DiffPolicy::Exact)
                .expect("a diverging pair shrinks");
            let stem = format!("repro-i{iteration}-pair");
            let reproducer = match &self.repro_dir {
                Some(dir) => write_reproducer(dir, &stem, &shrunk.left, &shrunk.right, &obs.flight)
                    .expect("reproducer artifacts must be writable"),
                None => Vec::new(),
            };
            let detail = format!(
                "{} vs {} diverge; shrunk to {} records\n{}",
                BASE.label, partner.label, shrunk.keep, shrunk.divergence
            );
            self.report(iteration, "pair-divergence", &s.name, detail, reproducer);
        }

        let replayed =
            replay_trace(&obs.trace, |em| crate::harness::register_fuzz_auditors(em, s.vcpus));
        self.executions += 1;
        if replayed != obs.verdict {
            let reproducer =
                self.trace_artifact(&format!("repro-i{iteration}-replay"), &obs.trace, &obs.flight);
            self.report(
                iteration,
                "replay-mismatch",
                &s.name,
                format!(
                    "live verdict != replayed verdict\nlive: {:?}\nreplayed: {replayed:?}",
                    obs.verdict
                ),
                reproducer,
            );
        }
        if let Err(e) = validate_provenance(&replayed, &obs.trace) {
            let reproducer = self.trace_artifact(
                &format!("repro-i{iteration}-provenance"),
                &obs.trace,
                &obs.flight,
            );
            self.report(iteration, "provenance-invalid", &s.name, e, reproducer);
        }
        obs
    }

    fn trace_artifact(&mut self, stem: &str, trace: &Trace, flight: &[u8]) -> Vec<PathBuf> {
        match &self.repro_dir {
            Some(dir) => write_trace_artifact(dir, stem, trace, flight)
                .expect("reproducer artifacts must be writable"),
            None => Vec::new(),
        }
    }

    /// Robustness checks for a trace input: codec round-trips, replay
    /// determinism, a one-byte corruption probe. Returns the replay
    /// observation's coverage maps.
    fn check_trace(&mut self, iteration: u64, name: &str, t: &Trace) -> (CoverageMap, CoverageMap) {
        let bytes = t.encode();
        match Trace::decode(&bytes) {
            Ok(decoded) if decoded == *t => {}
            Ok(_) => {
                let repro = self.trace_artifact(&format!("repro-i{iteration}-codec"), t, &[]);
                self.report(
                    iteration,
                    "codec-roundtrip",
                    name,
                    "decode(encode(t)) != t".into(),
                    repro,
                );
            }
            Err(e) => {
                let repro = self.trace_artifact(&format!("repro-i{iteration}-codec"), t, &[]);
                self.report(
                    iteration,
                    "codec-roundtrip",
                    name,
                    format!("decode failed: {e}"),
                    repro,
                );
            }
        }
        if decompress(&compress(&bytes)).as_deref() != Ok(&bytes[..]) {
            let repro = self.trace_artifact(&format!("repro-i{iteration}-compress"), t, &[]);
            self.report(
                iteration,
                "codec-roundtrip",
                name,
                "HTRZ round-trip mismatch".into(),
                repro,
            );
        }
        // Corruption probe: a flipped byte must yield Ok or a structured
        // error — a panic here would abort the fuzzer, which is the signal.
        if !bytes.is_empty() {
            let pos = self.rng.gen_range(0usize..bytes.len());
            let flip = self.rng.gen_range(1u64..256) as u8;
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= flip;
            let _ = Trace::decode(&corrupted);
        }

        let r1 = observe_replay(t);
        let r2 = observe_replay(t);
        self.executions += 2;
        if r1.verdict != r2.verdict {
            let repro =
                self.trace_artifact(&format!("repro-i{iteration}-replaydet"), t, &r1.flight);
            self.report(
                iteration,
                "replay-nondeterminism",
                name,
                format!("two replays disagree\nfirst: {:?}\nsecond: {:?}", r1.verdict, r2.verdict),
                repro,
            );
        }
        (r1.coverage, r1.transitions)
    }

    /// Runs the seeding phase: every starter item is executed once and
    /// admitted by novelty (the first item always is).
    fn seed_corpus(&mut self, starter: Vec<CorpusItem>) {
        for item in starter {
            match item.kind {
                InputKind::Scenario(mut s) => {
                    self.clamp(&mut s);
                    let obs = self.check_scenario(u64::MAX, &s);
                    self.admit(
                        u64::MAX,
                        item.name,
                        item.parent,
                        InputKind::Scenario(s),
                        &obs.coverage,
                        &obs.transitions,
                    );
                }
                InputKind::Trace(t) => {
                    let (cov, trans) = self.check_trace(u64::MAX, &item.name, &t);
                    self.admit(u64::MAX, item.name, item.parent, InputKind::Trace(t), &cov, &trans);
                }
            }
        }
    }

    fn iteration(&mut self, i: u64) {
        let pick = self.rng.gen_range(0usize..self.corpus.len().max(1));
        let (input, parent_name) = if self.config.guided {
            match &self.corpus[pick].kind {
                InputKind::Scenario(base) => {
                    let base = base.clone();
                    let parent = self.corpus[pick].name.clone();
                    let (mut s, _muts) =
                        mutate_scenario(&mut self.rng, &base, &format!("c{i:04}"), self.config.cap);
                    self.clamp(&mut s);
                    (InputKind::Scenario(s), Some(parent))
                }
                InputKind::Trace(base) => {
                    let base = base.clone();
                    let parent = self.corpus[pick].name.clone();
                    let mut t = base.clone();
                    let n = self.rng.gen_range(1usize..3);
                    for _ in 0..n {
                        TraceMutation::sample(&mut self.rng, t.records.len() as u64).apply(&mut t);
                    }
                    t.header.scenario = format!("t{i:04}");
                    (InputKind::Trace(t), Some(parent))
                }
            }
        } else {
            // Blind baseline: fresh sample from the seed distribution,
            // exactly like the conformance fuzzer, capped like the guided
            // runs.
            let mut s = Scenario::sample(self.config.seed, i);
            self.clamp(&mut s);
            s.name = format!("c{i:04}");
            (InputKind::Scenario(s), None)
        };

        match input {
            InputKind::Scenario(s) => {
                let obs = self.check_scenario(i, &s);
                // Derive an occasional replay-only input from the fresh
                // trace (both modes, so per-iteration work is comparable).
                let derived = if self.rng.gen_range(0u32..3) == 0 {
                    let mut t = obs.trace.clone();
                    let m = TraceMutation::sample(&mut self.rng, t.records.len() as u64);
                    m.apply(&mut t);
                    t.header.scenario = format!("t{i:04}");
                    let name = format!("t{i:04}");
                    let (cov, trans) = self.check_trace(i, &name, &t);
                    Some((name, t, cov, trans))
                } else {
                    None
                };
                self.admit(
                    i,
                    format!("c{i:04}"),
                    parent_name.clone(),
                    InputKind::Scenario(s),
                    &obs.coverage,
                    &obs.transitions,
                );
                if let Some((name, t, cov, trans)) = derived {
                    self.admit(
                        i,
                        name,
                        Some(format!("c{i:04}")),
                        InputKind::Trace(t),
                        &cov,
                        &trans,
                    );
                }
            }
            InputKind::Trace(t) => {
                let name = format!("t{i:04}");
                let (cov, trans) = self.check_trace(i, &name, &t);
                self.admit(i, name, parent_name, InputKind::Trace(t), &cov, &trans);
            }
        }
    }
}

/// Runs a fuzzing campaign. `starter` seeds the corpus (use
/// [`corpus::starter_scenarios`] wrapped in items, or a loaded corpus
/// directory); `repro_dir`, when given, receives reproducer artifacts for
/// every divergence found.
pub fn run_fuzz(
    config: FuzzConfig,
    starter: Vec<CorpusItem>,
    repro_dir: Option<&Path>,
) -> FuzzOutcome {
    let mut fuzzer = Fuzzer {
        rng: StdRng::seed_from_u64(config.seed),
        corpus: Vec::new(),
        coverage: CoverageMap::new(),
        transitions: CoverageMap::new(),
        divergences: Vec::new(),
        executions: 0,
        repro_dir: repro_dir.map(Path::to_path_buf),
        config,
    };
    // The starter corpus is part of the guided system; the blind baseline
    // is exactly the conformance fuzzer's seed sampling, nothing more.
    if fuzzer.config.guided {
        let starter = if starter.is_empty() {
            crate::corpus::starter_scenarios()
                .into_iter()
                .map(|s| CorpusItem {
                    name: s.name.clone(),
                    parent: None,
                    fingerprint: 0,
                    kind: InputKind::Scenario(s),
                })
                .collect()
        } else {
            starter
        };
        fuzzer.seed_corpus(starter);
    }

    let mut ran = 0u64;
    for i in 0..fuzzer.config.iterations {
        if let Some(deadline) = fuzzer.config.deadline {
            if std::time::Instant::now() >= deadline {
                break;
            }
        }
        fuzzer.iteration(i);
        ran = i + 1;
    }
    FuzzOutcome {
        iterations: ran,
        executions: fuzzer.executions,
        corpus: fuzzer.corpus,
        coverage: fuzzer.coverage,
        transitions: fuzzer.transitions,
        divergences: fuzzer.divergences,
    }
}
