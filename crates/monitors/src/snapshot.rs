//! `.htsp` — whole-machine snapshots of a monitored VM.
//!
//! The snapshot is the newest member of the HTRC codec family: a `HTSP`
//! magic, a varint version, then three layer sections in boot order —
//! guest kernel, machine, hypervisor — each serialized by the layer that
//! owns the state (`Kernel::save_state`, `VmState::save_state`,
//! `Kvm::save_state`). Everything deterministic is captured: vCPU register
//! files, guest memory (RLE zero-page compression), EPT and tracked paging
//! structures, device/clock/timer state, pending IRQs, per-vCPU TLBs,
//! interception-engine state, the Event Multiplexer's delivery counters
//! and findings, auditor state machines, and the flight-recorder ring. Host-side wall-clock instrumentation (metric spans, dispatch
//! latencies) is deliberately absent — the metrics-on/off conformance pair
//! proves it cannot influence the stream.
//!
//! # Restore contract
//!
//! [`TapVm::restore`] targets a VM **freshly built from the same recipe**
//! (same builder calls, same registered programs/modules/auditors, same
//! engine selection). Recipe state — factories, closures, profiles, cost
//! models, thresholds — is never serialized; the codec validates roster
//! congruence (names, counts, vCPU counts, knob settings) and fails with a
//! structured [`SnapError`] on any mismatch. Section order matters: the
//! kernel section is decoded first so a booted guest re-registers its
//! device topology on the I/O bus before the machine section loads each
//! device's state back into it.
//!
//! # Determinism
//!
//! `snapshot → restore → run ≡ run`, bit-for-bit: findings, provenance
//! [`EventRef`](hypertap_core::event::EventRef)s, HTRC trace bytes and
//! merged metrics counters all match an uninterrupted run. The replay
//! crate's `SNAPSHOT_CYCLE` conformance pair and the snapshot equivalence
//! proptests enforce this.

use crate::harness::TapVm;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};

/// Magic bytes opening every `.htsp` snapshot.
pub const HTSP_MAGIC: &[u8; 4] = b"HTSP";

/// Current `.htsp` format version. Version 2 dropped the Event
/// Forwarder's batching flag and staging-ring counters from the hypervisor
/// section; version 3 dropped the Event Multiplexer's audit-container
/// counters and panic log, and the flight ring's panic records. Older
/// blobs are rejected as unsupported.
pub const HTSP_VERSION: u64 = 3;

impl TapVm {
    /// Serializes the whole monitored VM into a versioned `.htsp` blob.
    ///
    /// # Errors
    ///
    /// Fails with [`SnapError::Unsupported`] when the VM holds state that
    /// cannot be captured: a live task running a closure-backed program.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        let mut w = SnapWriter::new();
        w.header(HTSP_MAGIC, HTSP_VERSION);
        self.kernel.save_state(&mut w)?;
        self.machine.vm().save_state(&mut w);
        self.machine.hypervisor().save_state(&mut w);
        Ok(w.into_bytes())
    }

    /// Restores a snapshot produced by [`TapVm::snapshot`] into this VM,
    /// which must have been freshly built from the same recipe.
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] on malformed input, a version
    /// skew, or a recipe mismatch. The VM may be partially overwritten on
    /// error and must be discarded — never run a VM whose restore failed.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(HTSP_MAGIC, HTSP_VERSION)?;
        let (vm, kvm) = self.machine.parts_mut();
        self.kernel.restore_state(&mut r, &mut vm.io)?;
        vm.load_state(&mut r)?;
        kvm.restore_state(&mut r)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goshd::GoshdConfig;
    use crate::ninja::rules::NinjaRules;
    use hypertap_hvsim::clock::Duration;
    use hypertap_hvsim::machine::VmLifecycle;

    fn monitored_vm() -> TapVm {
        TapVm::builder()
            .vcpus(2)
            .memory(1 << 28)
            .goshd(GoshdConfig::paper_default())
            .hrkd()
            .htninja(NinjaRules::new())
            .hninja(NinjaRules::new(), Duration::from_millis(4))
            .build()
    }

    #[test]
    fn snapshot_restore_snapshot_is_byte_stable() {
        let mut vm = monitored_vm();
        vm.run_for(Duration::from_millis(30));
        let bytes = vm.snapshot().expect("running VM snapshots");
        let mut fresh = monitored_vm();
        fresh.restore(&bytes).expect("snapshot restores into same recipe");
        assert_eq!(fresh.machine.vm().lifecycle(), VmLifecycle::Running);
        let again = fresh.snapshot().expect("restored VM snapshots");
        assert_eq!(bytes, again, "restore must reproduce the exact serialized state");
    }

    #[test]
    fn uninit_vm_roundtrips() {
        let vm = monitored_vm();
        let bytes = vm.snapshot().expect("unbooted VM snapshots");
        let mut fresh = monitored_vm();
        fresh.restore(&bytes).expect("restores");
        assert_eq!(fresh.machine.vm().lifecycle(), VmLifecycle::Uninit);
        assert!(!fresh.kernel.is_booted());
        assert_eq!(fresh.snapshot().unwrap(), bytes);
    }

    #[test]
    fn restored_vm_continues_identically() {
        // The equivalence contract in miniature (the replay crate proves it
        // at scale): run 30 ms, snapshot, run both the original and the
        // restored copy 30 ms more — findings and counters must agree.
        let mut a = monitored_vm();
        a.run_for(Duration::from_millis(30));
        let bytes = a.snapshot().unwrap();
        let mut b = monitored_vm();
        b.restore(&bytes).unwrap();
        a.run_for(Duration::from_millis(30));
        b.run_for(Duration::from_millis(30));
        assert_eq!(a.now(), b.now());
        assert_eq!(a.drain_findings(), b.drain_findings());
        assert_eq!(
            a.machine.hypervisor().em.stats(),
            b.machine.hypervisor().em.stats(),
            "delivery counters must continue identically"
        );
        assert_eq!(
            a.machine.hypervisor().forwarded_events(),
            b.machine.hypervisor().forwarded_events()
        );
        assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap());
    }

    #[test]
    fn bad_magic_and_version_skew_are_structured_errors() {
        let vm = monitored_vm();
        let bytes = vm.snapshot().unwrap();
        let mut fresh = monitored_vm();
        assert_eq!(fresh.restore(b"NOPE"), Err(SnapError::BadMagic));
        let mut skewed = bytes.clone();
        skewed[4] = 99; // the version varint
        assert_eq!(fresh.restore(&skewed), Err(SnapError::UnsupportedVersion(99)));
        assert!(fresh.restore(&bytes[..3]).is_err(), "truncated magic must error");
    }

    #[test]
    fn recipe_mismatch_is_rejected() {
        let mut vm = monitored_vm();
        vm.run_for(Duration::from_millis(10));
        let bytes = vm.snapshot().unwrap();
        // Wrong vCPU count.
        let mut other = TapVm::builder().vcpus(3).memory(1 << 28).build();
        assert!(other.restore(&bytes).is_err());
        // Wrong auditor roster (no monitors registered).
        let mut bare = TapVm::builder().vcpus(2).memory(1 << 28).build();
        assert!(bare.restore(&bytes).is_err());
    }
}
