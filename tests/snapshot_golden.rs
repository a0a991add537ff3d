//! Golden `.htsp` machine-snapshot regression.
//!
//! Three checked-in snapshots — an idle (unbooted) guest, a guest mid-hang
//! and a guest mid-rootkit-scan — must stay byte-identical to a freshly
//! captured snapshot of the same scenario at the same simulated time, must
//! restore into a recipe-fresh VM that continues exactly like an
//! uninterrupted run, and must refuse a retired version and a foreign
//! recipe. Truncation and corruption robustness is checked for every
//! format, `.htsp` included, in `codec_robustness.rs`.
//!
//! If a deliberate behaviour change breaks the byte regression, regenerate
//! with `cargo run --release -p hypertap-replay --bin record-golden` and
//! review the deltas in the commit.

use hypertap_core::prelude::VmId;
use hypertap_hvsim::clock::Duration;
use hypertap_hvsim::snap::SnapError;
use hypertap_replay::golden::{golden_snapshots, record_snapshot, snapshot_path};
use hypertap_replay::scenario::{build_scenario_vm, BASE};

fn checked_in(name: &str) -> Vec<u8> {
    let path = snapshot_path(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {} ({e}); run record-golden", path.display())
    })
}

#[test]
fn live_snapshots_match_checked_in_htsp_byte_for_byte() {
    for (name, scenario, at) in golden_snapshots() {
        let fixture = checked_in(&name);
        let fresh = record_snapshot(&scenario, at);
        assert_eq!(
            fresh,
            fixture,
            "{name}: live snapshot diverged from golden fixture ({} vs {} bytes); if the \
             behaviour change is intentional, regenerate with record-golden",
            fresh.len(),
            fixture.len()
        );
    }
}

#[test]
fn golden_snapshots_restore_and_continue_like_uninterrupted_runs() {
    for (name, scenario, at) in golden_snapshots() {
        let fixture = checked_in(&name);
        let rest = Duration::from_nanos(scenario.duration.as_nanos() - at.as_nanos());

        // The uninterrupted control: same recipe, same total schedule.
        let mut control = build_scenario_vm(&scenario, &BASE, VmId(0));
        if at > Duration::ZERO {
            control.run_for(at);
        }
        control.run_for(rest);

        // The restored run: recipe-fresh VM, state from the fixture.
        let mut restored = build_scenario_vm(&scenario, &BASE, VmId(0));
        restored.restore(&fixture).unwrap_or_else(|e| panic!("{name}: fixture restores: {e}"));
        restored.run_for(rest);

        assert_eq!(restored.now(), control.now(), "{name}");
        assert_eq!(restored.drain_findings(), control.drain_findings(), "{name}");
        assert_eq!(
            restored.machine.hypervisor().em.stats(),
            control.machine.hypervisor().em.stats(),
            "{name}: delivery counters must continue identically"
        );
        assert_eq!(
            restored.snapshot().unwrap(),
            control.snapshot().unwrap(),
            "{name}: final machine states must be byte-identical"
        );
    }
}

#[test]
fn version_skew_is_a_structured_error() {
    let (name, scenario, _) = &golden_snapshots()[0];
    let mut skewed = checked_in(name);
    skewed[4] = 9; // the version varint follows the 4-byte magic
    let mut vm = build_scenario_vm(scenario, &BASE, VmId(0));
    assert_eq!(vm.restore(&skewed), Err(SnapError::UnsupportedVersion(9)));
    // Version 1 carried the forwarder's staging-ring state; its hypervisor
    // section no longer parses, so it must be refused up front.
    let mut v1 = checked_in(name);
    v1[4] = 1;
    assert_eq!(vm.restore(&v1), Err(SnapError::UnsupportedVersion(1)));
    let mut wrong_magic = checked_in(name);
    wrong_magic[0] = b'X';
    assert_eq!(vm.restore(&wrong_magic), Err(SnapError::BadMagic));
}

#[test]
fn cross_recipe_restore_is_rejected() {
    // A snapshot of one golden scenario must not restore into a different
    // scenario's VM: the roster/congruence checks reject it structurally.
    let snaps = golden_snapshots();
    let mid_hang = checked_in(&snaps[1].0);
    let (_, rootkit_scenario, _) = &snaps[2];
    let mut vm = build_scenario_vm(rootkit_scenario, &BASE, VmId(0));
    assert!(
        vm.restore(&mid_hang).is_err(),
        "restoring mid_hang into the rootkit_hunt recipe must fail"
    );
}
