//! The guest-visible CPU interface — where architectural invariants are
//! enforced.
//!
//! Guest software (the simulated kernel and, through it, user programs) can
//! only act on the machine through a [`CpuCtx`]. Every operation below
//! consults the VM's exit controls and EPT, raises the appropriate VM Exit
//! to the hypervisor *before* its architectural effect takes place (the
//! trap-and-emulate order of Popek & Goldberg), charges simulated time from
//! the cost model, and then performs the effect (unless the hypervisor
//! returned [`ExitAction::Suppress`]).
//!
//! This is what makes the simulator's invariants equivalent in force to
//! hardware ones: there is no API through which guest code can change the
//! address space, the task register, the kernel stack pointer in the TSS, or
//! the privilege level without going through this module.

use crate::clock::{Duration, SimTime};
use crate::ept::AccessKind;
use crate::exit::{ExceptionType, ExitAction, VcpuSnapshot, VmExit, VmExitKind};
use crate::machine::{Hypervisor, VmState};
use crate::mem::{Gpa, Gva};
use crate::paging::{self, PageFault};
use crate::vcpu::{Cpl, Gpr, Msr, Vcpu, VcpuId};

/// Byte offset of the ring-0 stack pointer (`RSP0`) within a TSS.
///
/// This matches the x86 TSS layout (ESP0/RSP0 at offset 4); the thread-switch
/// interception algorithm (paper Fig. 3B) watches writes to exactly
/// `TR.base + TSS_RSP0_OFFSET`.
pub const TSS_RSP0_OFFSET: u64 = 4;

/// APIC register offset of the timer initial-count register.
pub const APIC_TIMER_INIT: u16 = 0x380;
/// APIC register offset of the interrupt-command register (IPIs).
pub const APIC_ICR: u16 = 0x300;
/// APIC register offset of the end-of-interrupt register.
pub const APIC_EOI: u16 = 0x0B0;

/// Result of one guest step (see [`crate::machine::GuestProgram`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepOutcome {
    /// Keep running.
    Continue,
    /// Power off the VM.
    Shutdown,
}

/// Mediated access to one vCPU and its VM, handed to guest code for the
/// duration of a step.
pub struct CpuCtx<'a> {
    vm: &'a mut VmState,
    hv: &'a mut dyn Hypervisor,
    vcpu: VcpuId,
}

impl<'a> CpuCtx<'a> {
    /// Binds a context to one vCPU. Normally called only by the run loop.
    pub fn new(vm: &'a mut VmState, hv: &'a mut dyn Hypervisor, vcpu: VcpuId) -> Self {
        CpuCtx { vm, hv, vcpu }
    }

    /// The vCPU this context executes on.
    pub fn vcpu_id(&self) -> VcpuId {
        self.vcpu
    }

    /// This vCPU's local clock.
    pub fn now(&self) -> SimTime {
        self.vcpu_ref().clock
    }

    /// Read-only view of the whole VM (guest code uses this sparingly; it
    /// exists mainly for tests and in-step assertions).
    pub fn vm(&self) -> &VmState {
        self.vm
    }

    /// Mutable view of the VM. Exposed for host-written test guests; the
    /// simulated kernel confines itself to the mediated operations.
    pub fn vm_mut(&mut self) -> &mut VmState {
        self.vm
    }

    fn vcpu_ref(&self) -> &Vcpu {
        self.vm.vcpu(self.vcpu)
    }

    fn vcpu_mut(&mut self) -> &mut Vcpu {
        self.vm.vcpu_mut(self.vcpu)
    }

    #[inline]
    fn charge(&mut self, d: Duration) {
        self.vcpu_mut().clock += d;
    }

    /// Burns `units` abstract compute units of guest time.
    pub fn compute(&mut self, units: u64) {
        let d = self.vm.cost().compute_unit.saturating_mul(units);
        self.charge(d);
    }

    /// Advances this vCPU's clock by an explicit duration (used by workload
    /// scripts that model fixed-latency work).
    pub fn advance(&mut self, d: Duration) {
        self.charge(d);
    }

    /// Reads a general-purpose register.
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.vcpu_ref().gpr(r)
    }

    /// Writes a general-purpose register (unprivileged; no exit).
    pub fn set_gpr(&mut self, r: Gpr, value: u64) {
        self.vcpu_mut().set_gpr(r, value);
    }

    /// Sets the instruction pointer (models a jump; no exit).
    pub fn set_rip(&mut self, rip: Gva) {
        self.vcpu_mut().set_rip(rip);
    }

    /// Current privilege level.
    pub fn cpl(&self) -> Cpl {
        self.vcpu_ref().cpl()
    }

    /// Enables or disables maskable interrupts (`STI`/`CLI`).
    pub fn set_interrupts_enabled(&mut self, on: bool) {
        self.charge(self.vm.cost().reg_op);
        self.vcpu_mut().interrupts_enabled = on;
    }

    /// Whether maskable interrupts are enabled.
    pub fn interrupts_enabled(&self) -> bool {
        self.vcpu_ref().interrupts_enabled
    }

    fn fire_exit(&mut self, kind: VmExitKind) -> ExitAction {
        let cost = self.vm.cost().exit_cost(&kind);
        self.charge(cost);
        self.vm.stats_mut().record(&kind, cost);
        let exit = VmExit {
            vcpu: self.vcpu,
            time: self.vcpu_ref().clock,
            kind,
            state: VcpuSnapshot::capture(self.vcpu_ref()),
        };
        self.hv.handle_exit(self.vm, &exit)
    }

    // ----- control registers & task register -------------------------------

    /// Current CR3 (Page-Directory Base Address of the running process).
    pub fn cr3(&self) -> Gpa {
        self.vcpu_ref().cr3()
    }

    /// Loads CR3 — the architectural process context switch. Raises a
    /// `CR_ACCESS` VM Exit when CR3-load exiting is enabled. As on hardware,
    /// a CR3 load that takes effect flushes this vCPU's TLB (a suppressed
    /// load has no architectural effect, so nothing is flushed).
    pub fn write_cr3(&mut self, pdba: Gpa) {
        self.charge(self.vm.cost().reg_op);
        if self.vm.controls().cr3_load_exiting() {
            let action = self.fire_exit(VmExitKind::CrAccess { cr: 3, value: pdba.value() });
            if action == ExitAction::Suppress {
                return;
            }
        }
        self.vcpu_mut().set_cr3(pdba);
        self.vm.flush_tlb(self.vcpu);
    }

    /// Current TR base (address of the running task's TSS).
    pub fn tr_base(&self) -> Gva {
        self.vcpu_ref().tr_base()
    }

    /// Loads the task register (`LTR`). Privileged, but does not exit under
    /// default VT-x controls — the hypervisor instead reads the saved TR from
    /// the VMCS, which is why the paper's TSS-integrity check (Fig. 3C)
    /// compares saved TR values on every exit rather than trapping `LTR`.
    pub fn load_task_register(&mut self, tss_base: Gva) {
        self.charge(self.vm.cost().reg_op);
        self.vcpu_mut().set_tr_base(tss_base);
    }

    /// Current stack pointer.
    pub fn rsp(&self) -> Gva {
        self.vcpu_ref().rsp()
    }

    /// Sets the stack pointer (unprivileged; no exit).
    pub fn set_rsp(&mut self, rsp: Gva) {
        self.vcpu_mut().set_rsp(rsp);
    }

    // ----- memory -----------------------------------------------------------

    /// Translates a guest-virtual address under the current CR3 by walking
    /// the in-memory page tables. This is the uncached reference walk; the
    /// MMU's data path goes through the per-vCPU software TLB instead (see
    /// [`crate::tlb`]), which by construction returns the same results.
    ///
    /// # Errors
    ///
    /// Returns the [`PageFault`] a real MMU would raise.
    pub fn translate(&self, gva: Gva) -> Result<Gpa, PageFault> {
        paging::walk(&self.vm.mem, self.cr3(), gva)
    }

    #[inline]
    fn access_checked(
        &mut self,
        gva: Gva,
        len: u64,
        access: AccessKind,
        value: Option<u64>,
    ) -> Result<Option<Gpa>, PageFault> {
        let (gpa, perm) = self.vm.translate_for(self.vcpu, gva)?;
        self.charge(self.vm.cost().mem_cost(len));
        if self.vm.io.is_mmio(gpa) {
            // MMIO regions are never RAM-backed: the access always exits.
            let violation = crate::ept::EptViolation { gpa, gva: Some(gva), access, value };
            let action = self.fire_exit(VmExitKind::EptViolation(violation));
            if action == ExitAction::Suppress {
                return Ok(None);
            }
            return Ok(Some(gpa)); // caller routes to the device
        }
        // `perm` is the frame's current EPT permission (the TLB revalidates
        // its cached copy against the EPT generation), so the common allowed
        // case skips the permission-map lookup entirely.
        if !perm.allows(access) {
            let violation = crate::ept::EptViolation { gpa, gva: Some(gva), access, value };
            let action = self.fire_exit(VmExitKind::EptViolation(violation));
            if action == ExitAction::Suppress {
                return Ok(None);
            }
            // Resume = the hypervisor emulated the access; it proceeds.
        }
        Ok(Some(gpa))
    }

    /// Reads guest memory at a virtual address.
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] if translation fails.
    pub fn read_gva(&mut self, gva: Gva, buf: &mut [u8]) -> Result<(), PageFault> {
        match self.access_checked(gva, buf.len() as u64, AccessKind::Read, None)? {
            Some(gpa) => {
                if self.vm.io.is_mmio(gpa) {
                    let v = self.vm.io.mmio_device(gpa).map(|d| d.mmio_read(gpa)).unwrap_or(0xFF);
                    let n = buf.len().min(8);
                    buf[..n].copy_from_slice(&v.to_le_bytes()[..n]);
                } else {
                    self.vm.mem.read(gpa, buf);
                }
            }
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Writes guest memory at a virtual address.
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] if translation fails.
    pub fn write_gva(&mut self, gva: Gva, buf: &[u8]) -> Result<(), PageFault> {
        let value = (buf.len() <= 8).then(|| {
            let mut v = [0u8; 8];
            v[..buf.len()].copy_from_slice(buf);
            u64::from_le_bytes(v)
        });
        if let Some(gpa) = self.access_checked(gva, buf.len() as u64, AccessKind::Write, value)? {
            if self.vm.io.is_mmio(gpa) {
                let mut v = [0u8; 8];
                let n = buf.len().min(8);
                v[..n].copy_from_slice(&buf[..n]);
                if let Some(d) = self.vm.io.mmio_device(gpa) {
                    d.mmio_write(gpa, u64::from_le_bytes(v));
                }
            } else {
                self.vm.mem.write(gpa, buf);
            }
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at a guest-virtual address.
    ///
    /// Dedicated width-8 path: skips the byte-buffer plumbing of
    /// [`CpuCtx::read_gva`] and goes straight to the memory's `u64` accessor
    /// (behaviour is identical, including MMIO routing and suppression).
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] if translation fails.
    #[inline]
    pub fn read_u64_gva(&mut self, gva: Gva) -> Result<u64, PageFault> {
        match self.access_checked(gva, 8, AccessKind::Read, None)? {
            Some(gpa) => {
                if self.vm.io.is_mmio(gpa) {
                    Ok(self.vm.io.mmio_device(gpa).map(|d| d.mmio_read(gpa)).unwrap_or(0xFF))
                } else {
                    Ok(self.vm.mem.read_u64(gpa))
                }
            }
            None => Ok(0),
        }
    }

    /// Writes a little-endian `u64` at a guest-virtual address.
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] if translation fails.
    #[inline]
    pub fn write_u64_gva(&mut self, gva: Gva, value: u64) -> Result<(), PageFault> {
        if let Some(gpa) = self.access_checked(gva, 8, AccessKind::Write, Some(value))? {
            if self.vm.io.is_mmio(gpa) {
                if let Some(d) = self.vm.io.mmio_device(gpa) {
                    d.mmio_write(gpa, value);
                }
            } else {
                self.vm.mem.write_u64(gpa, value);
            }
        }
        Ok(())
    }

    /// Physical-mode memory read (paging off — early boot only).
    pub fn read_gpa(&mut self, gpa: Gpa, buf: &mut [u8]) {
        self.charge(self.vm.cost().mem_cost(buf.len() as u64));
        self.vm.mem.read(gpa, buf);
    }

    /// Physical-mode memory write (paging off — early boot only).
    pub fn write_gpa(&mut self, gpa: Gpa, buf: &[u8]) {
        self.charge(self.vm.cost().mem_cost(buf.len() as u64));
        self.vm.mem.write(gpa, buf);
    }

    // ----- privilege transitions -------------------------------------------

    /// Raises software interrupt `vector` (`INT n`) — the legacy system-call
    /// gate. If the exception bitmap selects the vector, an `EXCEPTION` VM
    /// Exit fires first. On the user→kernel transition the CPU loads the
    /// kernel stack pointer from `TSS.RSP0`, the architectural step that
    /// makes `RSP0` a reliable thread identifier.
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] if the TSS is not mapped in the current
    /// address space.
    pub fn int_n(&mut self, vector: u8) -> Result<(), PageFault> {
        self.charge(self.vm.cost().reg_op);
        if self.vm.controls().exception_exiting(vector) {
            let action = self.fire_exit(VmExitKind::Exception {
                vector,
                ex_type: ExceptionType::SoftwareInterrupt,
            });
            if action == ExitAction::Suppress {
                return Ok(());
            }
        }
        if self.cpl() == Cpl::User {
            let tr = self.tr_base();
            let rsp0_addr = tr.offset(TSS_RSP0_OFFSET);
            let gpa = self.translate(rsp0_addr)?;
            self.charge(self.vm.cost().mem_cost(8));
            let rsp0 = self.vm.mem.read_u64(gpa);
            let v = self.vcpu_mut();
            v.set_rsp(Gva::new(rsp0));
            v.set_cpl(Cpl::Kernel);
        }
        Ok(())
    }

    /// Returns from kernel to user mode (`IRET`), restoring the given user
    /// stack pointer.
    pub fn iret(&mut self, user_rsp: Gva) {
        self.charge(self.vm.cost().reg_op);
        let v = self.vcpu_mut();
        v.set_rsp(user_rsp);
        v.set_cpl(Cpl::User);
    }

    /// Executes `SYSENTER`: jumps to the entry point in
    /// `IA32_SYSENTER_EIP`, loading the kernel stack from
    /// `IA32_SYSENTER_ESP`. If the entry point's page is execute-protected
    /// in EPT, an `EPT_VIOLATION` exit fires — the paper's fast-system-call
    /// interception (Fig. 3E).
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] if the entry point is not mapped.
    pub fn sysenter(&mut self) -> Result<(), PageFault> {
        self.charge(self.vm.cost().reg_op);
        let target = Gva::new(self.vcpu_ref().msr(Msr::SysenterEip));
        let gpa = self.translate(target)?;
        if let Err(violation) = self.vm.ept.check(gpa, Some(target), AccessKind::Execute) {
            let action = self.fire_exit(VmExitKind::EptViolation(violation));
            if action == ExitAction::Suppress {
                return Ok(());
            }
        }
        let kernel_rsp = self.vcpu_ref().msr(Msr::SysenterEsp);
        let v = self.vcpu_mut();
        v.set_rip(target);
        v.set_rsp(Gva::new(kernel_rsp));
        v.set_cpl(Cpl::Kernel);
        Ok(())
    }

    /// Executes `SYSEXIT`: returns to user mode at the given stack pointer.
    pub fn sysexit(&mut self, user_rsp: Gva) {
        self.charge(self.vm.cost().reg_op);
        let v = self.vcpu_mut();
        v.set_rsp(user_rsp);
        v.set_cpl(Cpl::User);
    }

    // ----- MSRs --------------------------------------------------------------

    /// Writes a model-specific register (`WRMSR`). Raises a `WRMSR` VM Exit
    /// when the MSR bitmap selects the register.
    pub fn wrmsr(&mut self, msr: Msr, value: u64) {
        self.charge(self.vm.cost().reg_op);
        if self.vm.controls().msr_write_exiting(msr) {
            let action = self.fire_exit(VmExitKind::Wrmsr { msr, value });
            if action == ExitAction::Suppress {
                return;
            }
        }
        self.vcpu_mut().set_msr(msr, value);
    }

    /// Reads a model-specific register (`RDMSR`; not trapped).
    pub fn rdmsr(&self, msr: Msr) -> u64 {
        self.vcpu_ref().msr(msr)
    }

    // ----- I/O ----------------------------------------------------------------

    /// Executes `OUT port, value`. Always raises an `IO_INST` exit (the
    /// hypervisor multiplexes devices), then the access is routed to the
    /// device mapped at the port.
    pub fn pio_out(&mut self, port: u16, value: u64) {
        let action = self.fire_exit(VmExitKind::IoInst { port, write: true, value });
        if action == ExitAction::Suppress {
            return;
        }
        if let Some(dev) = self.vm.io.pio_device(port) {
            dev.pio_write(port, value);
        }
    }

    /// Executes `IN port`. Always raises an `IO_INST` exit, then reads from
    /// the device mapped at the port (floating bus `0xFF` if none).
    pub fn pio_in(&mut self, port: u16) -> u64 {
        let action = self.fire_exit(VmExitKind::IoInst { port, write: false, value: 0 });
        if action == ExitAction::Suppress {
            return 0;
        }
        self.vm.io.pio_device(port).map(|d| d.pio_read(port)).unwrap_or(0xFF)
    }

    // ----- APIC & interrupts ---------------------------------------------------

    /// Programs this vCPU's local APIC timer to fire every `period`
    /// (vector 0x20). Raises an `APIC_ACCESS` exit.
    pub fn program_apic_timer(&mut self, period: Duration) {
        let action = self.fire_exit(VmExitKind::ApicAccess {
            offset: APIC_TIMER_INIT,
            write: true,
            value: period.as_nanos(),
        });
        if action == ExitAction::Suppress {
            return;
        }
        let now = self.vcpu_ref().clock;
        let t = &mut self.vm.apic_timers[self.vcpu.0];
        if period == Duration::ZERO {
            t.period = None;
        } else {
            t.period = Some(period);
            t.next_due = now + period;
        }
        self.vm.wake_gen += 1;
    }

    /// Sends an inter-processor interrupt to another vCPU. Raises an
    /// `APIC_ACCESS` exit (ICR write).
    pub fn send_ipi(&mut self, target: VcpuId, vector: u8) {
        let value = (vector as u64) | ((target.0 as u64) << 8);
        let action =
            self.fire_exit(VmExitKind::ApicAccess { offset: APIC_ICR, write: true, value });
        if action == ExitAction::Suppress {
            return;
        }
        self.vm.inject_irq(target, vector);
    }

    /// Signals end-of-interrupt to the local APIC.
    pub fn apic_eoi(&mut self) {
        let _ = self.fire_exit(VmExitKind::ApicAccess { offset: APIC_EOI, write: true, value: 0 });
    }

    /// Takes the next pending external interrupt, if interrupts are enabled.
    /// Taking one raises an `EXTERNAL_INT` VM Exit (interrupts are acked by
    /// the hypervisor first under HAV) and returns the vector for the guest
    /// to dispatch.
    pub fn poll_interrupt(&mut self) -> Option<u8> {
        if !self.vcpu_ref().interrupts_enabled {
            return None;
        }
        if self.vm.vcpu(self.vcpu).pending_irqs.is_empty() {
            return None;
        }
        let vector = self.vm.vcpu_mut(self.vcpu).pending_irqs.remove(0);
        let action = self.fire_exit(VmExitKind::ExternalInterrupt { vector });
        if action == ExitAction::Suppress {
            return None;
        }
        // Interrupt delivery switches to the kernel stack via TSS.RSP0 as
        // well, but the simulated kernel performs its own dispatch after
        // this returns; privilege bookkeeping happens there.
        Some(vector)
    }

    /// Executes `HLT`: the vCPU idles until the next interrupt.
    pub fn hlt(&mut self) {
        let action = self.fire_exit(VmExitKind::Hlt);
        if action == ExitAction::Suppress {
            return;
        }
        let has_irq = self.vcpu_ref().has_pending_irq();
        if !has_irq {
            self.vcpu_mut().halted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::device::LatchDevice;
    use crate::ept::EptPerm;
    use crate::machine::{Machine, VmConfig};
    use crate::mem::{Gfn, PAGE_SIZE};
    use crate::paging::{AddressSpaceBuilder, FrameAllocator};

    /// Hypervisor recording exits, optionally suppressing some kinds.
    #[derive(Debug, Default)]
    struct TestHv {
        exits: Vec<VmExitKind>,
        suppress_wrmsr: bool,
        suppress_cr3: bool,
    }

    impl Hypervisor for TestHv {
        fn handle_exit(&mut self, _vm: &mut VmState, exit: &VmExit) -> ExitAction {
            self.exits.push(exit.kind);
            match exit.kind {
                VmExitKind::Wrmsr { .. } if self.suppress_wrmsr => ExitAction::Suppress,
                VmExitKind::CrAccess { .. } if self.suppress_cr3 => ExitAction::Suppress,
                _ => ExitAction::Resume,
            }
        }
    }

    fn machine() -> Machine<TestHv> {
        Machine::new(
            VmConfig::new(2, 32 << 20).with_cost(CostModel::calibrated()),
            TestHv::default(),
        )
    }

    fn with_cpu<R>(m: &mut Machine<TestHv>, f: impl FnOnce(&mut CpuCtx<'_>) -> R) -> R {
        let (vm, hv) = m.parts_mut();
        let mut cpu = CpuCtx::new(vm, hv, VcpuId(0));
        f(&mut cpu)
    }

    /// Builds an address space with one mapped page and loads it.
    fn setup_paged(m: &mut Machine<TestHv>) -> (Gva, Gpa) {
        let gva = Gva::new(0x40_0000);
        with_cpu(m, |cpu| {
            let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(1024));
            let vm = cpu.vm_mut();
            let mut asb = AddressSpaceBuilder::new(&mut vm.mem, &mut falloc);
            let frame = falloc.alloc(&mut vm.mem);
            asb.map(&mut vm.mem, &mut falloc, gva, frame);
            let pdba = asb.pdba();
            cpu.write_cr3(pdba);
            (gva, frame.base())
        })
    }

    #[test]
    fn cr3_write_exits_only_when_enabled() {
        let mut m = machine();
        with_cpu(&mut m, |cpu| cpu.write_cr3(Gpa::new(0x5000)));
        assert!(m.hypervisor().exits.is_empty());
        m.vm_mut().controls_mut().set_cr3_load_exiting(true);
        with_cpu(&mut m, |cpu| cpu.write_cr3(Gpa::new(0x6000)));
        assert_eq!(m.hypervisor().exits, vec![VmExitKind::CrAccess { cr: 3, value: 0x6000 }]);
        assert_eq!(m.vm().vcpu(VcpuId(0)).cr3(), Gpa::new(0x6000));
    }

    #[test]
    fn suppressed_cr3_write_has_no_effect() {
        let mut m = machine();
        m.vm_mut().controls_mut().set_cr3_load_exiting(true);
        m.hypervisor_mut().suppress_cr3 = true;
        with_cpu(&mut m, |cpu| cpu.write_cr3(Gpa::new(0x7000)));
        assert_eq!(m.vm().vcpu(VcpuId(0)).cr3(), Gpa::NULL);
    }

    #[test]
    fn gva_rw_through_page_tables() {
        let mut m = machine();
        let (gva, gpa) = setup_paged(&mut m);
        with_cpu(&mut m, |cpu| {
            cpu.write_u64_gva(gva, 0xabcd).unwrap();
            assert_eq!(cpu.read_u64_gva(gva).unwrap(), 0xabcd);
        });
        assert_eq!(m.vm().mem.read_u64(gpa), 0xabcd);
    }

    #[test]
    fn unmapped_gva_faults() {
        let mut m = machine();
        setup_paged(&mut m);
        with_cpu(&mut m, |cpu| {
            assert!(cpu.read_u64_gva(Gva::new(0x90_0000)).is_err());
        });
    }

    #[test]
    fn ept_write_protection_raises_violation_then_write_proceeds() {
        let mut m = machine();
        let (gva, gpa) = setup_paged(&mut m);
        m.vm_mut().ept.set_perm(gpa.gfn(), EptPerm::RX);
        with_cpu(&mut m, |cpu| {
            cpu.write_u64_gva(gva, 77).unwrap();
        });
        // One EPT_VIOLATION exit with the right qualification...
        assert_eq!(m.hypervisor().exits.len(), 1);
        match m.hypervisor().exits[0] {
            VmExitKind::EptViolation(v) => {
                assert_eq!(v.gpa, gpa);
                assert_eq!(v.gva, Some(gva));
                assert_eq!(v.access, AccessKind::Write);
            }
            other => panic!("unexpected exit {other:?}"),
        }
        // ...and the emulated write completed.
        assert_eq!(m.vm().mem.read_u64(gpa), 77);
        // Reads do not trap.
        with_cpu(&mut m, |cpu| {
            assert_eq!(cpu.read_u64_gva(gva).unwrap(), 77);
        });
        assert_eq!(m.hypervisor().exits.len(), 1);
    }

    #[test]
    fn int80_exits_when_bitmapped_and_switches_stack_from_tss() {
        let mut m = machine();
        let (tss_gva, tss_gpa) = setup_paged(&mut m);
        // Set up the TSS: RSP0 lives at offset 4.
        m.vm_mut().mem.write_u64(tss_gpa.offset(TSS_RSP0_OFFSET), 0xdead_0000);
        m.vm_mut().controls_mut().set_exception_exiting(0x80, true);
        with_cpu(&mut m, |cpu| {
            cpu.load_task_register(tss_gva);
            cpu.iret(Gva::new(0x1234)); // drop to user mode
            assert_eq!(cpu.cpl(), Cpl::User);
            cpu.set_gpr(Gpr::Rax, 42); // syscall number
            cpu.int_n(0x80).unwrap();
            assert_eq!(cpu.cpl(), Cpl::Kernel);
            assert_eq!(cpu.rsp(), Gva::new(0xdead_0000));
        });
        let ex = m
            .hypervisor()
            .exits
            .iter()
            .find(|e| matches!(e, VmExitKind::Exception { .. }))
            .expect("exception exit");
        assert!(matches!(
            ex,
            VmExitKind::Exception { vector: 0x80, ex_type: ExceptionType::SoftwareInterrupt }
        ));
    }

    #[test]
    fn int80_does_not_exit_without_bitmap() {
        let mut m = machine();
        let (tss_gva, _) = setup_paged(&mut m);
        with_cpu(&mut m, |cpu| {
            cpu.load_task_register(tss_gva);
            cpu.iret(Gva::new(0));
            cpu.int_n(0x80).unwrap();
        });
        assert!(m.hypervisor().exits.iter().all(|e| !matches!(e, VmExitKind::Exception { .. })));
    }

    #[test]
    fn wrmsr_exit_and_suppression() {
        let mut m = machine();
        m.vm_mut().controls_mut().set_msr_write_exiting(Msr::SysenterEip, true);
        with_cpu(&mut m, |cpu| cpu.wrmsr(Msr::SysenterEip, 0xc000_0000));
        assert_eq!(m.vm().vcpu(VcpuId(0)).msr(Msr::SysenterEip), 0xc000_0000);
        assert_eq!(m.hypervisor().exits.len(), 1);
        // Untracked MSR: no exit.
        with_cpu(&mut m, |cpu| cpu.wrmsr(Msr::SysenterEsp, 0x1000));
        assert_eq!(m.hypervisor().exits.len(), 1);
        // Suppressed write leaves the MSR unchanged.
        m.hypervisor_mut().suppress_wrmsr = true;
        with_cpu(&mut m, |cpu| cpu.wrmsr(Msr::SysenterEip, 0x1));
        assert_eq!(m.vm().vcpu(VcpuId(0)).msr(Msr::SysenterEip), 0xc000_0000);
    }

    #[test]
    fn sysenter_traps_on_exec_protected_entry_page() {
        let mut m = machine();
        let (entry_gva, entry_gpa) = setup_paged(&mut m);
        with_cpu(&mut m, |cpu| {
            cpu.wrmsr(Msr::SysenterEip, entry_gva.value());
            cpu.wrmsr(Msr::SysenterEsp, 0xbeef_0000);
        });
        // Unprotected: no exit.
        with_cpu(&mut m, |cpu| {
            cpu.sysexit(Gva::new(0));
            cpu.sysenter().unwrap();
            assert_eq!(cpu.cpl(), Cpl::Kernel);
            assert_eq!(cpu.rsp(), Gva::new(0xbeef_0000));
            assert_eq!(cpu.vm().vcpu(VcpuId(0)).rip(), entry_gva);
        });
        assert!(m.hypervisor().exits.is_empty());
        // Execute-protected: EPT_VIOLATION with Execute access.
        m.vm_mut().ept.set_perm(entry_gpa.gfn(), EptPerm::RW);
        with_cpu(&mut m, |cpu| {
            cpu.sysexit(Gva::new(0));
            cpu.sysenter().unwrap();
        });
        assert!(matches!(
            m.hypervisor().exits[..],
            [VmExitKind::EptViolation(v)] if v.access == AccessKind::Execute
        ));
    }

    #[test]
    fn pio_always_exits_and_reaches_device() {
        let mut m = machine();
        let id = m.vm_mut().io.register(Box::<LatchDevice>::default());
        m.vm_mut().io.map_pio(0x1f0..0x1f8, id);
        with_cpu(&mut m, |cpu| {
            cpu.pio_out(0x1f0, 0x55);
            assert_eq!(cpu.pio_in(0x1f1), 0x55);
            assert_eq!(cpu.pio_in(0x999), 0xFF, "unmapped port floats high");
        });
        let io_exits =
            m.hypervisor().exits.iter().filter(|e| matches!(e, VmExitKind::IoInst { .. })).count();
        assert_eq!(io_exits, 3);
    }

    #[test]
    fn mmio_routes_to_device_not_ram() {
        let mut m = machine();
        let (gva, gpa) = setup_paged(&mut m);
        let id = m.vm_mut().io.register(Box::<LatchDevice>::default());
        m.vm_mut().io.map_mmio(gpa.value()..gpa.value() + PAGE_SIZE, id);
        with_cpu(&mut m, |cpu| {
            cpu.write_u64_gva(gva, 0x77).unwrap();
            assert_eq!(cpu.read_u64_gva(gva).unwrap(), 0x77);
        });
        // RAM behind the MMIO window is untouched.
        assert_eq!(m.vm().mem.read_u64(gpa), 0);
        let ept_exits = m
            .hypervisor()
            .exits
            .iter()
            .filter(|e| matches!(e, VmExitKind::EptViolation(_)))
            .count();
        assert_eq!(ept_exits, 2, "every MMIO access exits");
    }

    #[test]
    fn apic_timer_and_ipi() {
        let mut m = machine();
        with_cpu(&mut m, |cpu| {
            cpu.program_apic_timer(Duration::from_millis(1));
            cpu.send_ipi(VcpuId(1), 0x30);
        });
        assert_eq!(m.vm().vcpu(VcpuId(1)).pending_irqs, vec![0x30]);
        let apic_exits = m
            .hypervisor()
            .exits
            .iter()
            .filter(|e| matches!(e, VmExitKind::ApicAccess { .. }))
            .count();
        assert_eq!(apic_exits, 2);
    }

    #[test]
    fn interrupts_respect_if_flag() {
        let mut m = machine();
        m.vm_mut().inject_irq(VcpuId(0), 0x21);
        with_cpu(&mut m, |cpu| {
            cpu.set_interrupts_enabled(false);
            assert_eq!(cpu.poll_interrupt(), None);
            cpu.set_interrupts_enabled(true);
            assert_eq!(cpu.poll_interrupt(), Some(0x21));
            assert_eq!(cpu.poll_interrupt(), None);
        });
        let int_exits = m
            .hypervisor()
            .exits
            .iter()
            .filter(|e| matches!(e, VmExitKind::ExternalInterrupt { .. }))
            .count();
        assert_eq!(int_exits, 1);
    }

    #[test]
    fn repeated_gva_access_hits_tlb() {
        let mut m = machine();
        let (gva, _) = setup_paged(&mut m);
        with_cpu(&mut m, |cpu| {
            for i in 0..10 {
                cpu.write_u64_gva(gva.offset(i * 8), i).unwrap();
            }
        });
        let stats = m.vm().tlb_stats();
        assert_eq!(stats.misses, 1, "one compulsory miss for the page");
        assert_eq!(stats.hits, 9);
    }

    #[test]
    fn cr3_load_flushes_tlb_unless_suppressed() {
        let mut m = machine();
        let (gva, _) = setup_paged(&mut m);
        with_cpu(&mut m, |cpu| {
            cpu.read_u64_gva(gva).unwrap();
        });
        assert_eq!(m.vm().tlb_stats().flushes, 1, "setup_paged loads CR3 once");
        let cr3 = m.vm().vcpu(VcpuId(0)).cr3();
        with_cpu(&mut m, |cpu| cpu.write_cr3(cr3));
        assert_eq!(m.vm().tlb_stats().flushes, 2);
        // A suppressed CR3 load has no architectural effect — no flush.
        m.vm_mut().controls_mut().set_cr3_load_exiting(true);
        m.hypervisor_mut().suppress_cr3 = true;
        with_cpu(&mut m, |cpu| cpu.write_cr3(Gpa::new(0x9000)));
        assert_eq!(m.vm().tlb_stats().flushes, 2);
    }

    #[test]
    fn tlb_disabled_vm_behaves_identically() {
        let run = |tlb: bool| {
            let mut m = Machine::new(VmConfig::new(2, 32 << 20).with_tlb(tlb), TestHv::default());
            let (gva, gpa) = setup_paged(&mut m);
            m.vm_mut().ept.set_perm(gpa.gfn(), EptPerm::RX);
            with_cpu(&mut m, |cpu| {
                cpu.write_u64_gva(gva, 7).unwrap();
                cpu.read_u64_gva(gva).unwrap();
            });
            (
                m.vm().now(),
                m.hypervisor().exits.clone(),
                m.vm().mem.read_u64(gpa),
                m.vm().tlb_stats().lookups(),
            )
        };
        let (t_on, exits_on, val_on, lookups_on) = run(true);
        let (t_off, exits_off, val_off, lookups_off) = run(false);
        assert_eq!(t_on, t_off, "TLB must not change simulated time");
        assert_eq!(exits_on, exits_off, "TLB must not change the exit stream");
        assert_eq!(val_on, val_off);
        assert!(lookups_on > 0);
        assert_eq!(lookups_off, 0, "disabled TLB records nothing");
    }

    #[test]
    fn page_table_edit_is_visible_through_tlb() {
        let mut m = machine();
        let gva = Gva::new(0x40_0000);
        with_cpu(&mut m, |cpu| {
            let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(1024));
            let vm = cpu.vm_mut();
            let mut asb = AddressSpaceBuilder::new(&mut vm.mem, &mut falloc);
            let f1 = falloc.alloc(&mut vm.mem);
            let f2 = falloc.alloc(&mut vm.mem);
            asb.map(&mut vm.mem, &mut falloc, gva, f1);
            cpu.write_cr3(asb.pdba());
            cpu.write_u64_gva(gva, 0x11).unwrap();
            // Remap the page without touching CR3 — only the tracked
            // page-table write invalidates the cached translation.
            let vm = cpu.vm_mut();
            asb.map(&mut vm.mem, &mut falloc, gva, f2);
            cpu.write_u64_gva(gva, 0x22).unwrap();
            assert_eq!(cpu.vm().mem.read_u64(f1.base()), 0x11);
            assert_eq!(cpu.vm().mem.read_u64(f2.base()), 0x22);
        });
    }

    #[test]
    fn hlt_with_pending_irq_does_not_sleep() {
        let mut m = machine();
        m.vm_mut().inject_irq(VcpuId(0), 0x20);
        with_cpu(&mut m, |cpu| cpu.hlt());
        assert!(!m.vm().vcpu(VcpuId(0)).is_halted());
        with_cpu(&mut m, |cpu| {
            let _ = cpu.poll_interrupt();
            cpu.hlt();
        });
        assert!(m.vm().vcpu(VcpuId(0)).is_halted());
    }
}
