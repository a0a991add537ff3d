//! `perf` — the benchmark's command line.
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! ```
//!
//! With `--workload`, runs that workload and prints its metrics; the last
//! line is one JSON object (`correct`, `attempted`, `failed`, `metrics`)
//! holding the end-to-end metrics, or the per-layer metrics of a traced
//! run. Without it, runs every workload in turn, each in its own child
//! process so set-up time and peak memory are per workload. A traced run
//! writes its spans to `target/perf-trace/<workload>.jsonl`.

use hypertap_perf::workloads::WORKLOADS;
use hypertap_perf::{result_json, run, trace, Limit, DEFAULT_SEED};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: None, seed: DEFAULT_SEED, seconds: 10.0, traced: false };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => a.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload '{w}' (one of {})", WORKLOADS.join(", ")));
        }
    }
    Ok(a)
}

fn run_one(name: &str, a: &Args, started: Instant) -> ExitCode {
    let report = match run(name, a.seed, Limit::Seconds(a.seconds), a.traced, started) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    println!("workload {name} seed {} {}", a.seed, if a.traced { "traced" } else { "untraced" });
    for n in &report.notes {
        println!("  {n}");
    }
    for m in report.e2e.iter().chain(&report.layers) {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if a.traced {
        let path = Path::new("target").join("perf-trace").join(format!("{name}.jsonl"));
        match trace::write_log(&path, &report.spans) {
            Ok(()) => println!("  spans: {} in {}", report.spans.len(), path.display()),
            Err(e) => eprintln!("perf: writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&report, a.traced));
    ExitCode::SUCCESS
}

/// Runs every workload in its own child process, one after another.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf: locating own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
            ])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perf: workload {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perf: starting workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_one(w, &args, started),
        None => run_all(&args),
    }
}
