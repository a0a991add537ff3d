//! System-call interception (paper §VI-B, Fig. 3D and Fig. 3E).
//!
//! A system call is a ring transition, and ring transitions must pass
//! through architecturally defined gates — so trapping the gates yields a
//! complete, untamperable syscall stream:
//!
//! * **Interrupt-based syscalls** (`INT 0x80` on Linux, `INT 0x2E` on
//!   Windows): the exception bitmap makes the chosen vectors exit
//!   ([`IntSyscallEngine`], Fig. 3D).
//! * **Fast syscalls** (`SYSENTER`): the entry point lives in
//!   `IA32_SYSENTER_EIP`, which can only be changed by a trapping `WRMSR`.
//!   The engine learns the entry address from the `WRMSR` exit and
//!   execute-protects its page, so every `SYSENTER` raises an
//!   `EPT_VIOLATION` ([`FastSyscallEngine`], Fig. 3E).
//!
//! In both cases the syscall number and arguments are read from the
//! VMCS-saved registers (RAX + RBX/RCX/RDX/RSI/RDI), exactly as the paper's
//! pseudo-code does.

use super::{InterceptEngine, Table1Row};
use crate::event::{EventKind, SyscallGate};
use hypertap_hvsim::ept::{AccessKind, EptPerm};
use hypertap_hvsim::exit::{
    ExceptionType, ExitAction, ExitReason, VcpuSnapshot, VmExit, VmExitKind,
};
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::mem::{Gfn, Gva};
use hypertap_hvsim::paging;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use hypertap_hvsim::vcpu::{Gpr, Msr};

/// Linux's legacy syscall vector.
pub const LINUX_SYSCALL_VECTOR: u8 = 0x80;
/// Windows' legacy syscall vector.
pub const WINDOWS_SYSCALL_VECTOR: u8 = 0x2e;

fn decode_syscall(state: &VcpuSnapshot) -> (u64, [u64; 5]) {
    (
        state.gpr(Gpr::Rax),
        [
            state.gpr(Gpr::Rbx),
            state.gpr(Gpr::Rcx),
            state.gpr(Gpr::Rdx),
            state.gpr(Gpr::Rsi),
            state.gpr(Gpr::Rdi),
        ],
    )
}

static INT_ROWS: [Table1Row; 1] = [Table1Row {
    category: "System call interception",
    guest_event: "Interrupt-based system call",
    vm_exit: &[ExitReason::Exception],
    armed_by: &[],
    invariant: "Software interrupts cause EXCEPTION VM Exits",
}];

/// Intercepts legacy interrupt-based system calls (Fig. 3D).
#[derive(Debug)]
pub struct IntSyscallEngine {
    vectors: Vec<u8>,
}

impl IntSyscallEngine {
    /// Intercepts the standard Linux and Windows vectors.
    pub fn new() -> Self {
        IntSyscallEngine { vectors: vec![LINUX_SYSCALL_VECTOR, WINDOWS_SYSCALL_VECTOR] }
    }

    /// Intercepts a custom set of vectors.
    pub fn with_vectors(vectors: Vec<u8>) -> Self {
        IntSyscallEngine { vectors }
    }
}

impl Default for IntSyscallEngine {
    fn default() -> Self {
        IntSyscallEngine::new()
    }
}

impl InterceptEngine for IntSyscallEngine {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "int-syscall"
    }

    fn table1_rows(&self) -> &'static [Table1Row] {
        &INT_ROWS
    }

    fn enable(&mut self, vm: &mut VmState) {
        for v in &self.vectors {
            vm.controls_mut().set_exception_exiting(*v, true);
        }
    }

    fn disable(&mut self, vm: &mut VmState) {
        for v in &self.vectors {
            vm.controls_mut().set_exception_exiting(*v, false);
        }
    }

    fn on_exit(
        &mut self,
        _vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction {
        if let VmExitKind::Exception { vector, ex_type: ExceptionType::SoftwareInterrupt } =
            exit.kind
        {
            if self.vectors.contains(&vector) {
                let (number, args) = decode_syscall(&exit.state);
                emit(EventKind::Syscall { gate: SyscallGate::Interrupt(vector), number, args });
            }
        }
        ExitAction::Resume
    }
}

static FAST_ROWS: [Table1Row; 1] = [Table1Row {
    category: "System call interception",
    guest_event: "Fast system call",
    vm_exit: &[ExitReason::Wrmsr, ExitReason::EptViolation],
    armed_by: &[],
    invariant: "SYSENTER's target instruction is stored in an MSR register; \
                write to MSR registers causes WRMSR VM Exit",
}];

/// Intercepts `SYSENTER`-based system calls (Fig. 3E).
#[derive(Debug, Default)]
pub struct FastSyscallEngine {
    syscall_entry: Option<Gva>,
    protected: Option<(Gfn, EptPerm)>,
}

impl FastSyscallEngine {
    /// Creates the engine. It learns the entry point from the guest's own
    /// `WRMSR` to `IA32_SYSENTER_EIP`.
    pub fn new() -> Self {
        FastSyscallEngine::default()
    }

    /// The syscall entry point learned so far.
    pub fn syscall_entry(&self) -> Option<Gva> {
        self.syscall_entry
    }

    fn protect_entry(&mut self, vm: &mut VmState, entry: Gva, cr3: hypertap_hvsim::mem::Gpa) {
        if let Some((gfn, prev)) = self.protected.take() {
            vm.ept.set_perm(gfn, prev);
        }
        if let Ok(gpa) = paging::walk(&vm.mem, cr3, entry) {
            let prev = vm.ept.set_perm(gpa.gfn(), EptPerm::RW); // no execute
            self.protected = Some((gpa.gfn(), prev));
        }
        self.syscall_entry = Some(entry);
    }
}

impl InterceptEngine for FastSyscallEngine {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "fast-syscall"
    }

    fn table1_rows(&self) -> &'static [Table1Row] {
        &FAST_ROWS
    }

    fn enable(&mut self, vm: &mut VmState) {
        vm.controls_mut().set_msr_write_exiting(Msr::SysenterEip, true);
    }

    fn disable(&mut self, vm: &mut VmState) {
        vm.controls_mut().set_msr_write_exiting(Msr::SysenterEip, false);
        if let Some((gfn, prev)) = self.protected.take() {
            vm.ept.set_perm(gfn, prev);
        }
        self.syscall_entry = None;
    }

    fn on_exit(
        &mut self,
        vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction {
        match exit.kind {
            VmExitKind::Wrmsr { msr: Msr::SysenterEip, value } => {
                self.protect_entry(vm, Gva::new(value), exit.state.cr3);
            }
            VmExitKind::EptViolation(v)
                if v.access == AccessKind::Execute
                    && v.gva.is_some()
                    && v.gva == self.syscall_entry =>
            {
                let (number, args) = decode_syscall(&exit.state);
                emit(EventKind::Syscall { gate: SyscallGate::Sysenter, number, args });
            }
            _ => {}
        }
        ExitAction::Resume
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.opt_varint(self.syscall_entry.map(|g| g.value()));
        match self.protected {
            Some((gfn, prev)) => {
                w.boolean(true);
                w.varint(gfn.value());
                w.byte(prev.to_bits());
            }
            None => w.boolean(false),
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        self.syscall_entry = r.opt_varint()?.map(Gva::new);
        self.protected = if r.boolean()? {
            let gfn = Gfn::new(r.varint()?);
            let start = r.offset();
            let prev = EptPerm::from_bits(r.byte()?)
                .ok_or(SnapError::BadValue { offset: start, what: "ept permission" })?;
            Some((gfn, prev))
        } else {
            None
        };
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{events, machine_with};
    use super::*;
    use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
    use hypertap_hvsim::machine::GuestProgram;
    use hypertap_hvsim::mem::Gfn;
    use hypertap_hvsim::paging::{AddressSpaceBuilder, FrameAllocator};
    use hypertap_hvsim::vcpu::VcpuId;

    const TSS_GVA: u64 = 0x3800_0000;
    const ENTRY_GVA: u64 = 0x3810_0000;

    fn boot(cpu: &mut CpuCtx<'_>) {
        let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(4096));
        let vm = cpu.vm_mut();
        let mut asb = AddressSpaceBuilder::new(&mut vm.mem, &mut falloc);
        asb.map_fresh_range(&mut vm.mem, &mut falloc, Gva::new(TSS_GVA), 1);
        asb.map_fresh_range(&mut vm.mem, &mut falloc, Gva::new(ENTRY_GVA), 1);
        let pdba = asb.pdba();
        cpu.load_task_register(Gva::new(TSS_GVA));
        cpu.write_cr3(pdba);
    }

    struct IntGuest {
        booted: bool,
    }

    impl GuestProgram for IntGuest {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            if cpu.vcpu_id() != VcpuId(0) {
                cpu.compute(1_000_000_000);
                return StepOutcome::Continue;
            }
            if !self.booted {
                boot(cpu);
                self.booted = true;
                return StepOutcome::Continue;
            }
            cpu.iret(Gva::new(0x7fff_0000)); // to user mode
            cpu.set_gpr(Gpr::Rax, 4); // write(2) on 32-bit Linux
            cpu.set_gpr(Gpr::Rbx, 1);
            cpu.set_gpr(Gpr::Rcx, 0xb0f);
            cpu.int_n(LINUX_SYSCALL_VECTOR).unwrap();
            StepOutcome::Continue
        }
    }

    #[test]
    fn int80_decodes_number_and_args() {
        let mut m = machine_with(Box::new(IntSyscallEngine::new()));
        m.run_steps(&mut IntGuest { booted: false }, 3);
        let syscalls: Vec<_> = events(&m)
            .iter()
            .filter_map(|(_, k)| match k {
                EventKind::Syscall { gate, number, args } => Some((*gate, *number, *args)),
                _ => None,
            })
            .collect();
        assert_eq!(syscalls.len(), 1);
        let (gate, number, args) = syscalls[0];
        assert_eq!(gate, SyscallGate::Interrupt(0x80));
        assert_eq!(number, 4);
        assert_eq!(args[0], 1);
        assert_eq!(args[1], 0xb0f);
    }

    #[test]
    fn custom_vector_set() {
        let mut m = machine_with(Box::new(IntSyscallEngine::with_vectors(vec![0x42])));
        // 0x80 is NOT trapped by this engine.
        m.run_steps(&mut IntGuest { booted: false }, 3);
        assert!(events(&m).is_empty());
    }

    struct FastGuest {
        booted: bool,
    }

    impl GuestProgram for FastGuest {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            if cpu.vcpu_id() != VcpuId(0) {
                cpu.compute(1_000_000_000);
                return StepOutcome::Continue;
            }
            if !self.booted {
                boot(cpu);
                // Kernel announces its fast-syscall entry point.
                cpu.wrmsr(Msr::SysenterEip, ENTRY_GVA);
                cpu.wrmsr(Msr::SysenterEsp, 0xA000);
                self.booted = true;
                return StepOutcome::Continue;
            }
            cpu.sysexit(Gva::new(0x7fff_0000));
            cpu.set_gpr(Gpr::Rax, 20); // getpid
            cpu.sysenter().unwrap();
            StepOutcome::Continue
        }
    }

    #[test]
    fn sysenter_is_intercepted_after_wrmsr_learning() {
        let mut m = machine_with(Box::new(FastSyscallEngine::new()));
        m.run_steps(&mut FastGuest { booted: false }, 4);
        let syscalls: Vec<_> = events(&m)
            .iter()
            .filter_map(|(_, k)| match k {
                EventKind::Syscall { gate: SyscallGate::Sysenter, number, .. } => Some(*number),
                _ => None,
            })
            .collect();
        assert_eq!(syscalls, vec![20, 20]);
    }

    #[test]
    fn uninstall_unprotects_entry_page() {
        let mut m = machine_with(Box::new(FastSyscallEngine::new()));
        m.run_steps(&mut FastGuest { booted: false }, 3);
        assert!(m.vm().ept.restricted_frames() > 0);
        let (vm, kvm) = m.parts_mut();
        assert!(kvm.uninstall(vm, "fast-syscall"));
        assert_eq!(vm.ept.restricted_frames(), 0);
    }
}
