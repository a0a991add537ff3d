//! End-to-end properties of the fuzzing loop: seeded determinism (same
//! seed + budget ⇒ byte-identical corpus and fingerprint), clean runs on
//! the healthy stack, and divergence shrinking producing a verified
//! minimal reproducer.

use hypertap_fuzz::corpus::{encode_scenario_entry, CorpusError, InputKind};
use hypertap_fuzz::harness::{observe_scenario, replay_reproducer, write_reproducer};
use hypertap_fuzz::{run_fuzz, FuzzConfig};
use hypertap_hvsim::clock::Duration;
use hypertap_replay::prelude::*;

/// Renders a corpus deterministically for byte-comparison.
fn render_corpus(outcome: &hypertap_fuzz::FuzzOutcome) -> Vec<(String, Vec<u8>)> {
    outcome
        .corpus
        .iter()
        .map(|item| match &item.kind {
            InputKind::Scenario(s) => (
                item.name.clone(),
                encode_scenario_entry(&item.name, item.parent.as_deref(), s).into_bytes(),
            ),
            InputKind::Trace(t) => (item.name.clone(), compress(&t.encode())),
        })
        .collect()
}

fn small_config(seed: u64, guided: bool) -> FuzzConfig {
    FuzzConfig { seed, iterations: 6, cap: Duration::from_millis(60), guided, deadline: None }
}

#[test]
fn same_seed_and_budget_give_byte_identical_outcomes() {
    let first = run_fuzz(small_config(7, true), Vec::new(), None);
    let second = run_fuzz(small_config(7, true), Vec::new(), None);
    assert_eq!(first.iterations, second.iterations);
    assert_eq!(first.executions, second.executions);
    assert_eq!(first.fingerprint(), second.fingerprint());
    assert_eq!(render_corpus(&first), render_corpus(&second));
    assert!(first.divergences.is_empty(), "healthy stack must fuzz clean");

    // A different seed explores differently.
    let other = run_fuzz(small_config(8, true), Vec::new(), None);
    assert_ne!(
        render_corpus(&first),
        render_corpus(&other),
        "different seeds should produce different corpora"
    );
}

#[test]
fn blind_mode_is_deterministic_too() {
    let first = run_fuzz(small_config(7, false), Vec::new(), None);
    let second = run_fuzz(small_config(7, false), Vec::new(), None);
    assert_eq!(first.fingerprint(), second.fingerprint());
    assert_eq!(render_corpus(&first), render_corpus(&second));
    assert!(first.divergences.is_empty());
}

#[test]
fn injected_divergence_shrinks_to_a_verified_reproducer() {
    // The end-to-end reproducer path the fuzzer takes when a pair check
    // fails: tamper a recorded trace, shrink against the original, write
    // the pair, read it back, and confirm it replays the same divergence.
    let mut scenario = Scenario::sample(31, 0);
    scenario.duration = Duration::from_millis(60);
    scenario.name = "shrink-e2e".to_owned();
    let obs = observe_scenario(&scenario, &BASE);
    let at = obs.trace.records.len() as u64 / 2;
    let mut tampered = obs.trace.clone();
    tampered.tamper(at);

    let shrunk = shrink_diverging_prefix(&obs.trace, &tampered, DiffPolicy::Exact)
        .expect("tampered trace diverges");
    assert_eq!(shrunk.keep as u64, at + 1, "reproducer must be minimal");
    assert_eq!(shrunk.divergence.index, at);

    let dir = std::env::temp_dir().join("hypertap-fuzz-e2e");
    write_reproducer(&dir, "e2e", &shrunk.left, &shrunk.right, &obs.flight)
        .expect("reproducer writes");
    let replayed = replay_reproducer(&dir, "e2e")
        .expect("reproducer reads back")
        .expect("reproducer still diverges");
    assert_eq!(
        format!("{replayed}"),
        format!("{}", shrunk.divergence),
        "reproducer must replay the divergence bit-for-bit"
    );
}

#[test]
fn missing_reproducer_is_an_io_error_naming_the_path() {
    // Not a truncated trace: the error must say the file could not be
    // read, and which file.
    let dir = std::env::temp_dir().join("hypertap-fuzz-no-such-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let err = replay_reproducer(&dir, "gone").expect_err("nothing to read");
    let want = dir.join("gone-left.htrz").display().to_string();
    assert!(
        matches!(&err, CorpusError::Io(path, e)
            if *path == want && e.kind() == std::io::ErrorKind::NotFound),
        "{err}"
    );
    assert!(err.to_string().starts_with(&want), "{err}");
}
