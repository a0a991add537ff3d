//! CLI contract tests for the experiment binaries: each accepts exactly
//! its documented flags, and any other `--flag` exits with usage code 2
//! and a message naming the bad flag and the accepted ones, instead of
//! silently running the default experiment.

use std::process::Command;

/// Runs `bin` with one unknown flag and checks the usage error lists
/// `expected` (the binary's documented flags, in order).
fn rejects_unknown_flag(bin: &str, expected: &[&str]) {
    let out = Command::new(bin).args(["--no-such-flag", "1"]).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin}: unknown flag must be a usage error, got {:?}\nstdout: {}\nstderr: {stderr}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains("unknown flag --no-such-flag"), "{bin}: {stderr}");
    let listed: Vec<String> = expected.iter().map(|f| format!("--{f}")).collect();
    assert!(
        stderr.contains(&listed.join(", ")),
        "{bin}: usage must list the documented flags {listed:?}, got: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin}: nothing may run before the flags are checked");
}

#[test]
fn table3_accepts_only_its_documented_flags() {
    rejects_unknown_flag(env!("CARGO_BIN_EXE_table3"), &["samples", "poll-us"]);
}

#[test]
fn fig4_accepts_only_its_documented_flags() {
    rejects_unknown_flag(
        env!("CARGO_BIN_EXE_fig4"),
        &["stride", "seed", "threads", "save", "quick"],
    );
}

#[test]
fn fig5_accepts_only_its_documented_flags() {
    rejects_unknown_flag(
        env!("CARGO_BIN_EXE_fig5"),
        &["load", "stride", "seed", "threads", "quick"],
    );
}

#[test]
fn ninjas_accepts_only_its_documented_flags() {
    rejects_unknown_flag(env!("CARGO_BIN_EXE_ninjas"), &["trials", "seed"]);
}

#[test]
fn flightdump_accepts_only_its_documented_flags() {
    rejects_unknown_flag(
        env!("CARGO_BIN_EXE_flightdump"),
        &["in", "export-chrome", "demo", "out", "follow", "follow-ms", "poll-ms"],
    );
}
