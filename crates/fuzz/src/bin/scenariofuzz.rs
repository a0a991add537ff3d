//! Coverage-guided scenario fuzzer.
//!
//! ```text
//! scenariofuzz [--seed N] [--iters N] [--seconds N] [--cap-ms N]
//!              [--out DIR] [--blind] [--compare] [--corpus]
//!              [--shrink-selftest] [--record-corpus DIR]
//! ```
//!
//! * default: guided fuzzing from the built-in starter scenarios;
//!   `--corpus` seeds from the checked-in corpus directory instead.
//! * `--blind`: blind seed sampling (the baseline), same checks.
//! * `--compare`: run guided and blind at the same budget and report the
//!   auditor-transition-edge counts side by side.
//! * `--shrink-selftest`: inject a divergence, shrink it, write the
//!   reproducer pair and verify it replays the same divergence.
//! * `--record-corpus DIR`: regenerate the starter corpus fixtures.
//!
//! Exit codes: 0 clean, 1 divergences found (reproducers written when
//! `--out` is set), 2 self-test or compare failure, 3 usage error
//! (including an unknown flag).

use hypertap_bench::cli::Args;
use hypertap_fuzz::corpus::{load_corpus, record_starter_corpus, CORPUS_DIR};
use hypertap_fuzz::harness::{observe_scenario, replay_reproducer, write_reproducer};
use hypertap_fuzz::{run_fuzz, FuzzConfig, FuzzOutcome};
use hypertap_hvsim::clock::Duration;
use hypertap_replay::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn print_outcome(label: &str, out: &FuzzOutcome) {
    let scenarios = out
        .corpus
        .iter()
        .filter(|i| matches!(i.kind, hypertap_fuzz::corpus::InputKind::Scenario(_)))
        .count();
    println!("{label}: {} iterations, {} executions", out.iterations, out.executions);
    println!(
        "  corpus: {} entries ({} scenario, {} trace)",
        out.corpus.len(),
        scenarios,
        out.corpus.len() - scenarios
    );
    println!("  coverage: {} bits, fingerprint {:#018x}", out.coverage.bits(), out.fingerprint());
    println!("  transition edges: {}", out.transition_edges());
    println!("  divergences: {}", out.divergences.len());
    for d in &out.divergences {
        let at =
            if d.iteration == u64::MAX { "seed".to_owned() } else { format!("i{}", d.iteration) };
        println!("  [{at}] {} in {}: {}", d.kind, d.input, d.detail.lines().next().unwrap_or(""));
        for p in &d.reproducer {
            println!("    reproducer: {}", p.display());
        }
    }
}

/// Injects a tampered divergence into a recorded trace, shrinks it,
/// writes the reproducer pair, and verifies the pair replays to the same
/// divergence bit-for-bit.
fn shrink_selftest(out_dir: &Path) -> Result<(), String> {
    let mut scenario = Scenario::sample(4242, 0);
    scenario.duration = Duration::from_millis(80);
    scenario.name = "shrink-selftest".to_owned();
    let obs = observe_scenario(&scenario, &BASE);
    let len = obs.trace.records.len() as u64;
    if len < 3 {
        return Err(format!("self-test trace too short: {len} records"));
    }
    let at = len / 3;
    let mut tampered = obs.trace.clone();
    tampered.tamper(at);

    let shrunk = shrink_diverging_prefix(&obs.trace, &tampered, DiffPolicy::Exact)
        .ok_or("tampered trace did not diverge")?;
    if shrunk.keep as u64 != at + 1 {
        return Err(format!(
            "shrinker kept {} records for a divergence at index {at}; expected {}",
            shrunk.keep,
            at + 1
        ));
    }
    if shrunk.divergence.index != at {
        return Err(format!(
            "shrunk divergence at index {}, expected {at}",
            shrunk.divergence.index
        ));
    }

    let paths = write_reproducer(out_dir, "selftest", &shrunk.left, &shrunk.right, &obs.flight)
        .map_err(|e| format!("writing reproducer: {e}"))?;
    let replayed = replay_reproducer(out_dir, "selftest")
        .map_err(|e| format!("replaying reproducer: {e}"))?
        .ok_or("reproducer pair replayed conformant")?;
    if format!("{replayed}") != format!("{}", shrunk.divergence) {
        return Err(format!(
            "reproducer divergence differs:\nshrunk:   {}\nreplayed: {replayed}",
            shrunk.divergence
        ));
    }
    println!(
        "shrink self-test: divergence at index {at} shrunk to {} records, reproducer verified",
        shrunk.keep
    );
    for p in paths {
        println!("  artifact: {}", p.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse_known(&[
        "seed",
        "iters",
        "seconds",
        "cap-ms",
        "out",
        "blind",
        "compare",
        "corpus",
        "shrink-selftest",
        "record-corpus",
    ]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(3);
        }
    };
    let numbers = (|| -> Result<_, String> {
        Ok((
            args.get::<u64>("seed", 42)?,
            args.get::<u64>("iters", 25)?,
            args.get::<u64>("cap-ms", 100)?,
            args.get::<u64>("seconds", 0)?,
        ))
    })();
    let (seed, iters, cap_ms, seconds) = match numbers {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(3);
        }
    };
    let out_dir: Option<PathBuf> = args.get_str("out").map(PathBuf::from);

    if let Some(dir) = args.get_str("record-corpus") {
        return match record_starter_corpus(Path::new(dir)) {
            Ok(items) => {
                println!("recorded {} starter corpus entries under {dir}", items.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("recording corpus: {e}");
                ExitCode::from(3)
            }
        };
    }

    if args.has("shrink-selftest") {
        let dir = out_dir.unwrap_or_else(std::env::temp_dir);
        return match shrink_selftest(&dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("shrink self-test FAILED: {e}");
                ExitCode::from(2)
            }
        };
    }

    let starter = if args.has("corpus") {
        match load_corpus(Path::new(CORPUS_DIR)) {
            Ok(items) => {
                println!("seeded from {} checked-in corpus entries", items.len());
                items
            }
            Err(e) => {
                eprintln!("loading corpus from {CORPUS_DIR}: {e}");
                return ExitCode::from(3);
            }
        }
    } else {
        Vec::new()
    };

    let deadline =
        (seconds > 0).then(|| std::time::Instant::now() + std::time::Duration::from_secs(seconds));
    let config = FuzzConfig {
        seed,
        iterations: iters,
        cap: Duration::from_millis(cap_ms),
        guided: !args.has("blind"),
        deadline,
    };

    if args.has("compare") {
        let guided = run_fuzz(
            FuzzConfig { guided: true, ..config.clone() },
            starter.clone(),
            out_dir.as_deref(),
        );
        let blind = run_fuzz(FuzzConfig { guided: false, ..config }, starter, out_dir.as_deref());
        print_outcome("guided", &guided);
        print_outcome("blind", &blind);
        let (g, b) = (guided.transition_edges(), blind.transition_edges());
        println!("transition-edge advantage: guided {g} vs blind {b}");
        if !guided.divergences.is_empty() || !blind.divergences.is_empty() {
            return ExitCode::from(1);
        }
        return if g > b {
            ExitCode::SUCCESS
        } else {
            eprintln!("compare FAILED: guided did not beat blind");
            ExitCode::from(2)
        };
    }

    let label = if config.guided { "guided fuzz" } else { "blind fuzz" };
    let outcome = run_fuzz(config, starter, out_dir.as_deref());
    print_outcome(label, &outcome);
    if outcome.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
