//! CLI contract tests for the `conformance` binary: malformed
//! `--inject-divergence` values are rejected with an error instead of
//! silently degrading to index 0, and well-formed values still drive the
//! self-test.

use std::process::Command;

fn conformance() -> Command {
    Command::new(env!("CARGO_BIN_EXE_conformance"))
}

#[test]
fn malformed_inject_divergence_is_rejected() {
    for bad in ["zero", "-1", "1.5", ""] {
        let out = conformance()
            .args(["--scenarios", "1", "--inject-divergence", bad])
            .output()
            .expect("spawn conformance");
        assert_eq!(
            out.status.code(),
            Some(2),
            "value {bad:?} must be rejected, got {:?}\nstdout: {}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--inject-divergence") && stderr.contains("record index"),
            "stderr must name the flag and the expectation, got: {stderr}"
        );
    }
}

#[test]
fn well_formed_inject_divergence_runs_the_self_test() {
    let out = conformance()
        .args(["--scenarios", "1", "--pair", "tlb-off", "--inject-divergence", "5"])
        .output()
        .expect("spawn conformance");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "self-test run must pass, got {:?}\nstdout: {stdout}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("self-test: injected divergence at index 5 detected in 1/1"),
        "stdout must report the self-test at the requested index, got: {stdout}"
    );
}

#[test]
fn unknown_flags_are_rejected() {
    let out = conformance().args(["--scenarios", "1", "--scenario", "1"]).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a misspelled flag must be a usage error, got {:?}\nstdout: {}\nstderr: {stderr}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains("unknown flag --scenario "), "{stderr}");
    assert!(
        stderr.contains(
            "--seed, --fleet, --workers-left, --workers-right, --cap-ms, --scenarios, \
             --inject-divergence, --pair"
        ),
        "usage must list every documented flag, got: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no conformance run may start");
}

#[test]
fn fleet_mode_flags_are_checked_before_any_run() {
    // A bare `--fleet` once ran 8 VMs; now every fleet flag needs its value.
    for (args, needle) in [
        (&["--fleet"][..], "--fleet needs a value"),
        (&["--fleet", "--workers-left", "2"][..], "--fleet needs a value"),
        (&["--fleet", "2", "--cap-ms"][..], "--cap-ms needs a value"),
        (&["--fleet", "2", "--workers-right", "1O"][..], "\"1O\" for --workers-right"),
    ] {
        let out = conformance().args(args).output().expect("spawn conformance");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no conformance run may start");
    }
}

#[test]
fn an_uneven_worker_pair_is_bit_identical() {
    let out = conformance()
        .args(["--fleet", "6", "--workers-left", "2", "--workers-right", "3"])
        .output()
        .expect("spawn conformance");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "got {:?}\nstdout: {stdout}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("fleet conformance OK: 6 VMs bit-identical at 2 and 3 workers"),
        "{stdout}"
    );
}
