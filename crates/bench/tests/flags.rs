//! CLI contract tests for the experiment binaries: each accepts exactly
//! its documented flags, and any other `--flag` exits with usage code 2
//! and a message naming the bad flag and the accepted ones, instead of
//! silently running the default experiment. A malformed value and a stray
//! positional argument are usage errors too, naming what was wrong.

use std::process::Command;

/// Runs `bin` with `args` and checks it stops with usage code 2 before
/// running anything, with `needle` in the message; returns the message.
fn usage_error(bin: &str, args: &[&str], needle: &str) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: must be a usage error, got {:?}\nstdout: {}\nstderr: {stderr}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(needle), "{bin} {args:?}: message must name {needle:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?}: nothing may run before the flags are checked");
    stderr
}

/// Runs `bin` with one unknown flag and checks the usage error lists
/// `expected` (the binary's documented flags, in order).
fn rejects_unknown_flag(bin: &str, expected: &[&str]) {
    let stderr = usage_error(bin, &["--no-such-flag", "1"], "unknown flag --no-such-flag");
    let listed: Vec<String> = expected.iter().map(|f| format!("--{f}")).collect();
    assert!(
        stderr.contains(&listed.join(", ")),
        "{bin}: usage must list the documented flags {listed:?}, got: {stderr}"
    );
}

/// A malformed number for `flag` is a usage error naming the flag and the
/// value, not a silent run with the default; so is a bare positional.
fn rejects_malformed(bin: &str, flag: &str) {
    usage_error(bin, &[&format!("--{flag}"), "1O0"], &format!("\"1O0\" for --{flag}"));
    usage_error(bin, &["100"], "unexpected argument \"100\"");
}

#[test]
fn table3_accepts_only_its_documented_flags() {
    rejects_unknown_flag(env!("CARGO_BIN_EXE_table3"), &["samples", "poll-us"]);
    rejects_malformed(env!("CARGO_BIN_EXE_table3"), "samples");
}

#[test]
fn fig4_accepts_only_its_documented_flags() {
    rejects_unknown_flag(
        env!("CARGO_BIN_EXE_fig4"),
        &["stride", "seed", "threads", "save", "quick"],
    );
    rejects_malformed(env!("CARGO_BIN_EXE_fig4"), "stride");
}

#[test]
fn fig5_accepts_only_its_documented_flags() {
    rejects_unknown_flag(
        env!("CARGO_BIN_EXE_fig5"),
        &["load", "stride", "seed", "threads", "quick"],
    );
    rejects_malformed(env!("CARGO_BIN_EXE_fig5"), "seed");
}

#[test]
fn ninjas_accepts_only_its_documented_flags() {
    rejects_unknown_flag(env!("CARGO_BIN_EXE_ninjas"), &["trials", "seed"]);
    rejects_malformed(env!("CARGO_BIN_EXE_ninjas"), "trials");
}

#[test]
fn flightdump_accepts_only_its_documented_flags() {
    rejects_unknown_flag(
        env!("CARGO_BIN_EXE_flightdump"),
        &["in", "export-chrome", "demo", "out", "follow", "follow-ms", "poll-ms"],
    );
    rejects_malformed(env!("CARGO_BIN_EXE_flightdump"), "poll-ms");
}
