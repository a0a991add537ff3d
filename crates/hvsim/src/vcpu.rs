//! Virtual CPUs: the architectural register state the hypervisor can trust.
//!
//! On VM Exit, VT-x saves the guest's register state into the VMCS; the
//! hypervisor reads fields such as the guest CR3, TR base and RSP from there.
//! The paper's notation `vcpu.CR3` refers to exactly this host-side view. In
//! the simulator the [`Vcpu`] struct *is* that view: guest code can only
//! modify it through the mediated operations of [`crate::cpu::CpuCtx`], so
//! its contents are architectural ground truth — the "root of trust" of
//! HyperTap's monitoring stack.

use crate::clock::SimTime;
use crate::mem::{Gpa, Gva};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::fmt;

/// Index of a virtual CPU within its VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VcpuId(pub usize);

impl fmt::Display for VcpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vcpu{}", self.0)
    }
}

/// General-purpose registers (the subset system calls use for arguments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gpr {
    /// Accumulator — carries the system-call number by convention.
    Rax,
    /// First syscall argument.
    Rbx,
    /// Second syscall argument.
    Rcx,
    /// Third syscall argument.
    Rdx,
    /// Fourth syscall argument.
    Rsi,
    /// Fifth syscall argument.
    Rdi,
    /// Frame/base register.
    Rbp,
}

impl Gpr {
    /// All general-purpose registers, in definition order.
    pub const ALL: [Gpr; 7] =
        [Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx, Gpr::Rsi, Gpr::Rdi, Gpr::Rbp];

    /// Position of the register in [`Gpr::ALL`] (and in every GPR array).
    pub(crate) fn index(self) -> usize {
        match self {
            Gpr::Rax => 0,
            Gpr::Rbx => 1,
            Gpr::Rcx => 2,
            Gpr::Rdx => 3,
            Gpr::Rsi => 4,
            Gpr::Rdi => 5,
            Gpr::Rbp => 6,
        }
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Gpr::Rax => "rax",
            Gpr::Rbx => "rbx",
            Gpr::Rcx => "rcx",
            Gpr::Rdx => "rdx",
            Gpr::Rsi => "rsi",
            Gpr::Rdi => "rdi",
            Gpr::Rbp => "rbp",
        })
    }
}

/// Model-Specific Registers relevant to the monitored invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Msr {
    /// `IA32_SYSENTER_CS` — code segment loaded by `SYSENTER`.
    SysenterCs,
    /// `IA32_SYSENTER_ESP` — kernel stack pointer loaded by `SYSENTER`.
    SysenterEsp,
    /// `IA32_SYSENTER_EIP` — the fast-system-call entry point. Writes to
    /// this MSR are what the paper's Fig. 3E interception algorithm traps.
    SysenterEip,
    /// `IA32_EFER` — mode control (modelled for completeness).
    Efer,
}

impl Msr {
    /// All modelled MSRs.
    pub const ALL: [Msr; 4] = [Msr::SysenterCs, Msr::SysenterEsp, Msr::SysenterEip, Msr::Efer];

    /// The architectural MSR index (as used by `RDMSR`/`WRMSR`).
    pub const fn index(self) -> u32 {
        match self {
            Msr::SysenterCs => 0x174,
            Msr::SysenterEsp => 0x175,
            Msr::SysenterEip => 0x176,
            Msr::Efer => 0xC000_0080,
        }
    }

    fn slot(self) -> usize {
        match self {
            Msr::SysenterCs => 0,
            Msr::SysenterEsp => 1,
            Msr::SysenterEip => 2,
            Msr::Efer => 3,
        }
    }
}

impl fmt::Display for Msr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Msr::SysenterCs => "IA32_SYSENTER_CS",
            Msr::SysenterEsp => "IA32_SYSENTER_ESP",
            Msr::SysenterEip => "IA32_SYSENTER_EIP",
            Msr::Efer => "IA32_EFER",
        })
    }
}

/// Current privilege level of a vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Cpl {
    /// Ring 0 — kernel mode (the boot state).
    #[default]
    Kernel,
    /// Ring 3 — user mode.
    User,
}

impl fmt::Display for Cpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cpl::Kernel => "ring0",
            Cpl::User => "ring3",
        })
    }
}

/// One virtual CPU's architectural state plus its local clock.
#[derive(Debug, Clone)]
pub struct Vcpu {
    id: VcpuId,
    /// Local simulated clock of this vCPU.
    pub clock: SimTime,
    cr3: Gpa,
    tr_base: Gva,
    rsp: Gva,
    rip: Gva,
    cpl: Cpl,
    gprs: [u64; 7],
    msrs: [u64; 4],
    /// Interrupts-enabled flag (IF in RFLAGS).
    pub interrupts_enabled: bool,
    /// Pending external interrupt vectors, in arrival order.
    pub(crate) pending_irqs: Vec<u8>,
    /// True while the vCPU executes HLT waiting for an interrupt.
    pub(crate) halted: bool,
}

impl Vcpu {
    /// Creates a vCPU in its power-on state.
    pub fn new(id: VcpuId) -> Self {
        Vcpu {
            id,
            clock: SimTime::ZERO,
            cr3: Gpa::NULL,
            tr_base: Gva::new(0),
            rsp: Gva::new(0),
            rip: Gva::new(0),
            cpl: Cpl::Kernel,
            gprs: [0; 7],
            msrs: [0; 4],
            interrupts_enabled: true,
            pending_irqs: Vec::new(),
            halted: false,
        }
    }

    /// This vCPU's index.
    pub fn id(&self) -> VcpuId {
        self.id
    }

    /// Guest CR3: the Page-Directory Base Address of the running process.
    /// This is the invariant behind the paper's process tracking (§VI-A1).
    pub fn cr3(&self) -> Gpa {
        self.cr3
    }

    /// Host-side write of guest CR3 (a VMCS guest-state write).
    pub fn set_cr3(&mut self, value: Gpa) {
        self.cr3 = value;
    }

    /// Guest TR base: the virtual address of the running task's TSS.
    /// This is the invariant behind thread tracking (§VI-A2).
    pub fn tr_base(&self) -> Gva {
        self.tr_base
    }

    /// Host-side write of guest TR base (a VMCS guest-state write).
    pub fn set_tr_base(&mut self, value: Gva) {
        self.tr_base = value;
    }

    /// Guest stack pointer.
    pub fn rsp(&self) -> Gva {
        self.rsp
    }

    /// Host-side write of the guest stack pointer.
    pub fn set_rsp(&mut self, value: Gva) {
        self.rsp = value;
    }

    /// Guest instruction pointer (coarse: the simulator tracks it at the
    /// granularity of mediated operations, enough for `/proc` side channels).
    pub fn rip(&self) -> Gva {
        self.rip
    }

    /// Host-side write of the guest instruction pointer.
    pub fn set_rip(&mut self, value: Gva) {
        self.rip = value;
    }

    /// Current privilege level.
    pub fn cpl(&self) -> Cpl {
        self.cpl
    }

    /// Host-side write of the guest privilege level.
    pub fn set_cpl(&mut self, cpl: Cpl) {
        self.cpl = cpl;
    }

    /// Reads a general-purpose register.
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.gprs[r.index()]
    }

    /// The whole GPR file, in [`Gpr::ALL`] order.
    pub(crate) fn gprs(&self) -> [u64; 7] {
        self.gprs
    }

    /// Writes a general-purpose register. Public because register writes are
    /// not privileged and cause no exits; guest convenience.
    pub fn set_gpr(&mut self, r: Gpr, value: u64) {
        self.gprs[r.index()] = value;
    }

    /// Reads an MSR (the host side may do this freely; the guest reads via
    /// `RDMSR`, which this simulator does not trap).
    pub fn msr(&self, m: Msr) -> u64 {
        self.msrs[m.slot()]
    }

    /// Host-side write of an MSR (a VMCS guest-state write).
    pub fn set_msr(&mut self, m: Msr, value: u64) {
        self.msrs[m.slot()] = value;
    }

    /// Whether this vCPU is halted waiting for an interrupt.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether an external interrupt is queued for delivery.
    pub fn has_pending_irq(&self) -> bool {
        !self.pending_irqs.is_empty()
    }

    /// Serializes the full architectural state of this vCPU.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.varint(self.id.0 as u64);
        w.varint(self.clock.as_nanos());
        w.varint(self.cr3.value());
        w.varint(self.tr_base.value());
        w.varint(self.rsp.value());
        w.varint(self.rip.value());
        w.byte(match self.cpl {
            Cpl::Kernel => 0,
            Cpl::User => 1,
        });
        for g in self.gprs {
            w.varint(g);
        }
        for m in self.msrs {
            w.varint(m);
        }
        w.boolean(self.interrupts_enabled);
        w.varint(self.pending_irqs.len() as u64);
        for v in &self.pending_irqs {
            w.byte(*v);
        }
        w.boolean(self.halted);
    }

    /// Restores state saved by [`Vcpu::save`]. The serialized vCPU index
    /// must match this vCPU's.
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let off = r.offset();
        let id = r.varint()? as usize;
        if id != self.id.0 {
            return Err(SnapError::BadValue { offset: off, what: "vcpu index" });
        }
        self.clock = SimTime::from_nanos(r.varint()?);
        self.cr3 = Gpa::new(r.varint()?);
        self.tr_base = Gva::new(r.varint()?);
        self.rsp = Gva::new(r.varint()?);
        self.rip = Gva::new(r.varint()?);
        let off = r.offset();
        self.cpl = match r.byte()? {
            0 => Cpl::Kernel,
            1 => Cpl::User,
            _ => return Err(SnapError::BadValue { offset: off, what: "cpl" }),
        };
        for g in &mut self.gprs {
            *g = r.varint()?;
        }
        for m in &mut self.msrs {
            *m = r.varint()?;
        }
        self.interrupts_enabled = r.boolean()?;
        let n = r.count(4096, "pending irq count")?;
        self.pending_irqs.clear();
        for _ in 0..n {
            self.pending_irqs.push(r.byte()?);
        }
        self.halted = r.boolean()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_on_state() {
        let v = Vcpu::new(VcpuId(0));
        assert_eq!(v.cpl(), Cpl::Kernel);
        assert_eq!(v.cr3(), Gpa::NULL);
        assert!(v.interrupts_enabled);
        assert!(!v.is_halted());
        assert_eq!(v.clock, SimTime::ZERO);
        for r in Gpr::ALL {
            assert_eq!(v.gpr(r), 0);
        }
        for m in Msr::ALL {
            assert_eq!(v.msr(m), 0);
        }
    }

    #[test]
    fn gpr_slots_are_independent() {
        let mut v = Vcpu::new(VcpuId(1));
        for (i, r) in Gpr::ALL.iter().enumerate() {
            v.set_gpr(*r, i as u64 + 100);
        }
        for (i, r) in Gpr::ALL.iter().enumerate() {
            assert_eq!(v.gpr(*r), i as u64 + 100);
        }
    }

    #[test]
    fn msr_indices_match_architecture() {
        assert_eq!(Msr::SysenterCs.index(), 0x174);
        assert_eq!(Msr::SysenterEsp.index(), 0x175);
        assert_eq!(Msr::SysenterEip.index(), 0x176);
    }

    #[test]
    fn display_impls() {
        assert_eq!(VcpuId(3).to_string(), "vcpu3");
        assert_eq!(Gpr::Rax.to_string(), "rax");
        assert_eq!(Msr::SysenterEip.to_string(), "IA32_SYSENTER_EIP");
        assert_eq!(Cpl::User.to_string(), "ring3");
    }
}
