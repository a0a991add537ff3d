//! CLI contract test for the `scenariofuzz` binary: a flag outside its
//! documented list is a usage error (exit 3) instead of silently running
//! a default fuzzing loop.

use std::process::Command;

#[test]
fn unknown_flags_exit_with_the_usage_code() {
    for args in [&["--no-such-flag"][..], &["--seed", "42", "--iters-max", "5"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_scenariofuzz"))
            .args(args)
            .output()
            .expect("spawn scenariofuzz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{args:?} must be a usage error, got {:?}\nstdout: {}\nstderr: {stderr}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(stderr.contains("unknown flag --"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(
                "--seed, --iters, --seconds, --cap-ms, --out, --blind, --compare, \
                 --corpus, --shrink-selftest, --record-corpus"
            ),
            "{args:?}: usage must list every documented flag, got: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: no fuzzing may start");
    }
}
