//! VM Exits: the event-generation mechanism of Hardware-Assisted
//! Virtualization.
//!
//! When the guest attempts a restricted operation, the (simulated) processor
//! suspends the vCPU and transfers control to the hypervisor, delivering a
//! [`VmExit`] that carries the exit reason, its qualification data, and a
//! snapshot of the guest's architectural state (the VMCS guest-state area).
//! Which operations are restricted is programmable through [`ExitControls`],
//! mirroring the VMCS execution-control fields that HyperTap's interception
//! engines program:
//!
//! | Control | VT-x analogue | Used by |
//! |---|---|---|
//! | `cr3_load_exiting` | "CR3-load exiting" processor control | process tracking (Fig. 3A) |
//! | `exception_bitmap` | `EXCEPTION_BITMAP` | interrupt-based syscall interception (Fig. 3D) |
//! | `msr_write_exiting` | MSR bitmaps | fast-syscall interception (Fig. 3E) |
//!
//! EPT permission violations, I/O instructions, external interrupts and APIC
//! accesses exit unconditionally, as on real hardware.

use crate::clock::{Duration, SimTime};
use crate::ept::EptViolation;
use crate::mem::{Gpa, Gva};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::vcpu::{Cpl, Gpr, Msr, Vcpu, VcpuId};
use std::fmt;

/// How the exiting exception was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionType {
    /// A software interrupt (`INT n`) — the legacy system-call gate.
    SoftwareInterrupt,
    /// A hardware-detected fault (e.g. a guest page fault).
    Fault,
}

/// The reason and qualification data of a VM Exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmExitKind {
    /// A control-register write (`CR_ACCESS`). For CR3 this is the process
    /// context-switch event.
    CrAccess {
        /// Which control register (3 for CR3).
        cr: u8,
        /// The value being loaded.
        value: u64,
    },
    /// A guest-physical access violated EPT permissions (`EPT_VIOLATION`).
    EptViolation(EptViolation),
    /// A write to a model-specific register (`WRMSR`).
    Wrmsr {
        /// The target MSR.
        msr: Msr,
        /// The value being written.
        value: u64,
    },
    /// An exception selected by the exception bitmap (`EXCEPTION`).
    Exception {
        /// Interrupt/exception vector number.
        vector: u8,
        /// How it was raised.
        ex_type: ExceptionType,
    },
    /// A port I/O instruction (`IO_INSTRUCTION`).
    IoInst {
        /// The I/O port.
        port: u16,
        /// True for `OUT`-family, false for `IN`-family.
        write: bool,
        /// The value written (for writes) or a placeholder (for reads).
        value: u64,
    },
    /// A hardware interrupt arrived while in guest mode (`EXTERNAL_INTERRUPT`).
    ExternalInterrupt {
        /// The interrupt vector.
        vector: u8,
    },
    /// An access to the virtual-APIC page (`APIC_ACCESS`).
    ApicAccess {
        /// Byte offset into the APIC page.
        offset: u16,
        /// True for a write.
        write: bool,
        /// The value written, if a write.
        value: u64,
    },
    /// The guest executed `HLT`.
    Hlt,
}

/// The coarse reason of a VM Exit: one per [`VmExitKind`] variant, spelled
/// as the paper's Table I names them. The discriminant is the reason's
/// index in [`ExitReason::ALL`], so per-reason tables ([`ExitStats`]
/// counts, the hypervisor's exit routes) index by `reason as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitReason {
    /// [`VmExitKind::CrAccess`].
    CrAccess,
    /// [`VmExitKind::EptViolation`].
    EptViolation,
    /// [`VmExitKind::Wrmsr`].
    Wrmsr,
    /// [`VmExitKind::Exception`].
    Exception,
    /// [`VmExitKind::IoInst`].
    IoInst,
    /// [`VmExitKind::ExternalInterrupt`].
    ExternalInt,
    /// [`VmExitKind::ApicAccess`].
    ApicAccess,
    /// [`VmExitKind::Hlt`].
    Hlt,
}

impl ExitReason {
    /// Every reason, in discriminant order. Reports list reasons in this
    /// order.
    pub const ALL: [ExitReason; 8] = [
        ExitReason::CrAccess,
        ExitReason::EptViolation,
        ExitReason::Wrmsr,
        ExitReason::Exception,
        ExitReason::IoInst,
        ExitReason::ExternalInt,
        ExitReason::ApicAccess,
        ExitReason::Hlt,
    ];

    /// The reason's name, as the paper's Table I spells it.
    pub fn name(self) -> &'static str {
        match self {
            ExitReason::CrAccess => "CR_ACCESS",
            ExitReason::EptViolation => "EPT_VIOLATION",
            ExitReason::Wrmsr => "WRMSR",
            ExitReason::Exception => "EXCEPTION",
            ExitReason::IoInst => "IO_INST",
            ExitReason::ExternalInt => "EXTERNAL_INT",
            ExitReason::ApicAccess => "APIC_ACCESS",
            ExitReason::Hlt => "HLT",
        }
    }
}

impl VmExitKind {
    /// The exit's coarse reason.
    pub fn reason(&self) -> ExitReason {
        match self {
            VmExitKind::CrAccess { .. } => ExitReason::CrAccess,
            VmExitKind::EptViolation(_) => ExitReason::EptViolation,
            VmExitKind::Wrmsr { .. } => ExitReason::Wrmsr,
            VmExitKind::Exception { .. } => ExitReason::Exception,
            VmExitKind::IoInst { .. } => ExitReason::IoInst,
            VmExitKind::ExternalInterrupt { .. } => ExitReason::ExternalInt,
            VmExitKind::ApicAccess { .. } => ExitReason::ApicAccess,
            VmExitKind::Hlt => ExitReason::Hlt,
        }
    }
}

impl fmt::Display for VmExitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.reason().name();
        match self {
            VmExitKind::CrAccess { cr, value } => write!(f, "{name} cr{cr} <- {value:#x}"),
            VmExitKind::EptViolation(v) => write!(f, "{name} {} at {}", v.access, v.gpa),
            VmExitKind::Wrmsr { msr, value } => write!(f, "{name} {msr} <- {value:#x}"),
            VmExitKind::Exception { vector, .. } => write!(f, "{name} vector {vector:#x}"),
            VmExitKind::IoInst { port, write, .. } => {
                write!(f, "{name} port {port:#x} {}", if *write { "out" } else { "in" })
            }
            VmExitKind::ExternalInterrupt { vector } => write!(f, "{name} vector {vector:#x}"),
            VmExitKind::ApicAccess { offset, .. } => write!(f, "{name} offset {offset:#x}"),
            VmExitKind::Hlt => f.write_str(name),
        }
    }
}

/// The guest-state snapshot saved alongside an exit (the VMCS guest area).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VcpuSnapshot {
    /// Guest CR3 at exit time (before the exiting operation takes effect).
    pub cr3: Gpa,
    /// Guest TR base at exit time.
    pub tr_base: Gva,
    /// Guest RSP at exit time.
    pub rsp: Gva,
    /// Guest RIP at exit time.
    pub rip: Gva,
    /// Guest privilege level at exit time.
    pub cpl: Cpl,
    gprs: [u64; 7],
}

impl VcpuSnapshot {
    /// Captures the current state of a vCPU.
    pub fn capture(vcpu: &Vcpu) -> Self {
        VcpuSnapshot {
            cr3: vcpu.cr3(),
            tr_base: vcpu.tr_base(),
            rsp: vcpu.rsp(),
            rip: vcpu.rip(),
            cpl: vcpu.cpl(),
            gprs: vcpu.gprs(),
        }
    }

    /// Reads a general-purpose register from the snapshot.
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.gprs[r.index()]
    }

    /// The raw GPR file, in [`Gpr::ALL`] order. Trace recorders serialize
    /// snapshots through this together with [`VcpuSnapshot::from_parts`].
    pub fn gprs_raw(&self) -> [u64; 7] {
        self.gprs
    }

    /// Rebuilds a snapshot from its serialized parts (`gprs` in
    /// [`Gpr::ALL`] order). The inverse of field access +
    /// [`VcpuSnapshot::gprs_raw`]; replay engines use it to reconstruct the
    /// trusted state captured at record time.
    pub fn from_parts(
        cr3: Gpa,
        tr_base: Gva,
        rsp: Gva,
        rip: Gva,
        cpl: Cpl,
        gprs: [u64; 7],
    ) -> Self {
        VcpuSnapshot { cr3, tr_base, rsp, rip, cpl, gprs }
    }
}

/// A VM Exit event, as delivered to the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmExit {
    /// Which vCPU exited.
    pub vcpu: VcpuId,
    /// Simulated time of the exit.
    pub time: SimTime,
    /// Reason and qualification.
    pub kind: VmExitKind,
    /// Guest architectural state at the moment of the exit.
    pub state: VcpuSnapshot,
}

/// What the hypervisor wants done after handling an exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExitAction {
    /// Emulate the exiting operation (let its architectural effect happen)
    /// and resume the guest. The common case.
    #[default]
    Resume,
    /// Suppress the exiting operation: resume the guest *without* performing
    /// the operation's architectural effect. Used by enforcement policies.
    Suppress,
}

/// The programmable exit controls (VMCS execution controls + MSR/exception
/// bitmaps).
#[derive(Debug, Clone)]
pub struct ExitControls {
    cr3_load_exiting: bool,
    exception_bitmap: [u64; 4],
    msr_write_exiting: [bool; Msr::ALL.len()],
}

impl Default for ExitControls {
    fn default() -> Self {
        ExitControls {
            cr3_load_exiting: false,
            exception_bitmap: [0; 4],
            msr_write_exiting: [false; Msr::ALL.len()],
        }
    }
}

impl ExitControls {
    /// Creates controls with nothing optional enabled (a plain EPT guest:
    /// CR3 loads, exceptions and MSR writes do not exit).
    pub fn new() -> Self {
        ExitControls::default()
    }

    /// Whether CR3 loads cause `CR_ACCESS` exits.
    pub fn cr3_load_exiting(&self) -> bool {
        self.cr3_load_exiting
    }

    /// Enables or disables CR3-load exiting.
    pub fn set_cr3_load_exiting(&mut self, on: bool) {
        self.cr3_load_exiting = on;
    }

    /// Whether the given exception vector causes `EXCEPTION` exits.
    pub fn exception_exiting(&self, vector: u8) -> bool {
        self.exception_bitmap[(vector / 64) as usize] & (1u64 << (vector % 64)) != 0
    }

    /// Selects whether `vector` causes `EXCEPTION` exits.
    pub fn set_exception_exiting(&mut self, vector: u8, on: bool) {
        let (word, bit) = ((vector / 64) as usize, vector % 64);
        if on {
            self.exception_bitmap[word] |= 1u64 << bit;
        } else {
            self.exception_bitmap[word] &= !(1u64 << bit);
        }
    }

    /// Whether writes to `msr` cause `WRMSR` exits.
    pub fn msr_write_exiting(&self, msr: Msr) -> bool {
        self.msr_write_exiting[msr_slot(msr)]
    }

    /// Selects whether writes to `msr` cause `WRMSR` exits.
    pub fn set_msr_write_exiting(&mut self, msr: Msr, on: bool) {
        self.msr_write_exiting[msr_slot(msr)] = on;
    }

    /// Serializes the programmed controls.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.boolean(self.cr3_load_exiting);
        for word in self.exception_bitmap {
            w.varint(word);
        }
        for on in self.msr_write_exiting {
            w.boolean(on);
        }
    }

    /// Restores state saved by [`ExitControls::save`].
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cr3_load_exiting = r.boolean()?;
        for word in &mut self.exception_bitmap {
            *word = r.varint()?;
        }
        for on in &mut self.msr_write_exiting {
            *on = r.boolean()?;
        }
        Ok(())
    }
}

fn msr_slot(msr: Msr) -> usize {
    Msr::ALL.iter().position(|m| *m == msr).expect("all MSRs present")
}

/// Running statistics over VM Exits: counts per [`ExitReason`] and the
/// cumulative world-switch overhead charged to the guest. The Fig. 7
/// performance experiments read these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExitStats {
    counts: [u64; ExitReason::ALL.len()],
    overhead: Duration,
}

impl ExitStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        ExitStats::default()
    }

    pub(crate) fn record(&mut self, kind: &VmExitKind, cost: Duration) {
        self.counts[kind.reason() as usize] += 1;
        self.overhead += cost;
    }

    /// Number of exits with the given reason.
    pub fn count(&self, reason: ExitReason) -> u64 {
        self.counts[reason as usize]
    }

    /// Total number of exits of all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cumulative world-switch overhead charged to guest time.
    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    /// Serializes the per-reason counters and cumulative overhead.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        for c in self.counts {
            w.varint(c);
        }
        w.varint(self.overhead.as_nanos());
    }

    /// Restores state saved by [`ExitStats::save`].
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for c in &mut self.counts {
            *c = r.varint()?;
        }
        self.overhead = Duration::from_nanos(r.varint()?);
        Ok(())
    }

    /// Iterates `(reason name, count)` pairs for non-zero reasons, in
    /// [`ExitReason::ALL`] order. Metric labels and the benchmark's digest
    /// are built from these names in this order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ExitReason::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|(_, c)| *c > 0)
            .map(|(r, c)| (r.name(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ept::AccessKind;

    #[test]
    fn controls_default_off() {
        let c = ExitControls::new();
        assert!(!c.cr3_load_exiting());
        assert!(!c.exception_exiting(0x80));
        assert!(!c.msr_write_exiting(Msr::SysenterEip));
    }

    #[test]
    fn exception_bitmap_bits_are_independent() {
        let mut c = ExitControls::new();
        c.set_exception_exiting(0x80, true);
        c.set_exception_exiting(0x2e, true);
        assert!(c.exception_exiting(0x80));
        assert!(c.exception_exiting(0x2e));
        assert!(!c.exception_exiting(0x81));
        c.set_exception_exiting(0x80, false);
        assert!(!c.exception_exiting(0x80));
        assert!(c.exception_exiting(0x2e));
    }

    #[test]
    fn exception_bitmap_covers_all_vectors() {
        let mut c = ExitControls::new();
        c.set_exception_exiting(255, true);
        c.set_exception_exiting(0, true);
        assert!(c.exception_exiting(255));
        assert!(c.exception_exiting(0));
        assert!(!c.exception_exiting(128));
    }

    #[test]
    fn msr_bitmap_per_register() {
        let mut c = ExitControls::new();
        c.set_msr_write_exiting(Msr::SysenterEip, true);
        assert!(c.msr_write_exiting(Msr::SysenterEip));
        assert!(!c.msr_write_exiting(Msr::SysenterEsp));
    }

    #[test]
    fn stats_record_and_query() {
        let mut s = ExitStats::new();
        s.record(&VmExitKind::Hlt, Duration::from_nanos(100));
        s.record(&VmExitKind::CrAccess { cr: 3, value: 0x1000 }, Duration::from_nanos(200));
        s.record(&VmExitKind::CrAccess { cr: 3, value: 0x2000 }, Duration::from_nanos(200));
        assert_eq!(s.count(ExitReason::CrAccess), 2);
        assert_eq!(s.count(ExitReason::Hlt), 1);
        assert_eq!(s.count(ExitReason::Wrmsr), 0);
        assert_eq!(s.total(), 3);
        assert_eq!(s.overhead().as_nanos(), 500);
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs, vec![("CR_ACCESS", 2), ("HLT", 1)]);
    }

    #[test]
    fn reason_names_and_order_are_pinned() {
        // Metric labels and the benchmark's digest hash these strings in
        // this order.
        let names: Vec<_> = ExitReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "CR_ACCESS",
                "EPT_VIOLATION",
                "WRMSR",
                "EXCEPTION",
                "IO_INST",
                "EXTERNAL_INT",
                "APIC_ACCESS",
                "HLT",
            ]
        );
        for (i, r) in ExitReason::ALL.into_iter().enumerate() {
            assert_eq!(r as usize, i, "{r:?}");
        }
    }

    #[test]
    fn every_kind_maps_to_its_reason() {
        let violation =
            EptViolation { gpa: Gpa::new(0), gva: None, access: AccessKind::Write, value: None };
        let kinds = [
            VmExitKind::CrAccess { cr: 3, value: 0 },
            VmExitKind::EptViolation(violation),
            VmExitKind::Wrmsr { msr: Msr::SysenterEip, value: 0 },
            VmExitKind::Exception { vector: 0x80, ex_type: ExceptionType::SoftwareInterrupt },
            VmExitKind::IoInst { port: 0x3f8, write: true, value: 0 },
            VmExitKind::ExternalInterrupt { vector: 0x20 },
            VmExitKind::ApicAccess { offset: 0xb0, write: true, value: 0 },
            VmExitKind::Hlt,
        ];
        let reasons: Vec<_> = kinds.iter().map(VmExitKind::reason).collect();
        assert_eq!(reasons, ExitReason::ALL);
        for kind in kinds {
            assert!(kind.to_string().starts_with(kind.reason().name()), "{kind}");
        }
    }

    #[test]
    fn snapshot_captures_gprs() {
        let mut v = Vcpu::new(VcpuId(0));
        v.set_gpr(Gpr::Rax, 5);
        v.set_gpr(Gpr::Rbx, 6);
        let snap = VcpuSnapshot::capture(&v);
        assert_eq!(snap.gpr(Gpr::Rax), 5);
        assert_eq!(snap.gpr(Gpr::Rbx), 6);
        assert_eq!(snap.cpl, Cpl::Kernel);
    }

    #[test]
    fn snapshot_reads_every_gpr_like_the_vcpu() {
        let mut v = Vcpu::new(VcpuId(0));
        for (i, r) in Gpr::ALL.into_iter().enumerate() {
            v.set_gpr(r, 0x1000 + i as u64);
        }
        let snap = VcpuSnapshot::capture(&v);
        for r in Gpr::ALL {
            assert_eq!(snap.gpr(r), v.gpr(r), "{r:?}");
        }
    }
}
