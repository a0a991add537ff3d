//! Thread-switch interception (paper §VI-A2, Fig. 3B).
//!
//! Threads can share an address space, so CR3 cannot distinguish them. The
//! architecture instead guarantees that the TSS pointed to by TR holds the
//! per-task ring-0 stack pointer (`RSP0`), which the kernel rewrites at every
//! thread dispatch and which is unique per thread (each kernel stack occupies
//! its own address range). The engine write-protects the page holding each
//! vCPU's TSS once the guest has finished setting up (first CR3 load, as in
//! the paper), and decodes subsequent `EPT_VIOLATION` exits whose faulting
//! address is exactly `TR.base + RSP0 offset` into
//! [`EventKind::ThreadSwitch`] events.

use super::{InterceptEngine, Table1Row};
use crate::event::EventKind;
use hypertap_hvsim::cpu::TSS_RSP0_OFFSET;
use hypertap_hvsim::ept::{AccessKind, EptPerm};
use hypertap_hvsim::exit::{ExitAction, ExitReason, VmExit, VmExitKind};
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::mem::{Gfn, Gpa, Gva};
use hypertap_hvsim::paging;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};

static ROWS: [Table1Row; 1] = [Table1Row {
    category: "Context switch interception",
    guest_event: "Thread switch",
    vm_exit: &[ExitReason::EptViolation],
    // The TSS pages are protected on the first CR3 load.
    armed_by: &[ExitReason::CrAccess],
    invariant: "The TR register always points to the TSS structure of the running process; \
                TSS.RSP0 is unique for each thread",
}];

#[derive(Debug, Clone, Copy)]
struct Watch {
    rsp0_addr: Gva,
    gfn: Gfn,
    prev_perm: EptPerm,
}

/// Write-protects TSS pages and emits [`EventKind::ThreadSwitch`] events.
#[derive(Debug, Default)]
pub struct ThreadSwitchEngine {
    armed: bool,
    watches: Vec<Option<Watch>>,
}

impl ThreadSwitchEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        ThreadSwitchEngine::default()
    }

    /// Whether the TSS pages have been protected yet (happens at the guest's
    /// first CR3 load, when its data structures exist).
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    fn arm(&mut self, vm: &mut VmState, pdba: Gpa) {
        if self.watches.len() != vm.vcpu_count() {
            self.watches = vec![None; vm.vcpu_count()];
        }
        for i in 0..vm.vcpu_count() {
            if self.watches[i].is_some() {
                continue; // already protected
            }
            let tr = vm.vcpu(hypertap_hvsim::vcpu::VcpuId(i)).tr_base();
            if tr.value() == 0 {
                continue; // vCPU not brought up yet; re-armed on a later exit
            }
            let rsp0_addr = tr.offset(TSS_RSP0_OFFSET);
            // Kernel mappings are shared across address spaces, so the PDBA
            // being loaded translates the TSS as well as any other.
            if let Ok(gpa) = paging::walk(&vm.mem, pdba, rsp0_addr) {
                let prev_perm = vm.ept.set_perm(gpa.gfn(), EptPerm::RX);
                self.watches[i] = Some(Watch { rsp0_addr, gfn: gpa.gfn(), prev_perm });
            }
        }
        self.armed = self.watches.iter().any(Option::is_some);
    }
}

impl InterceptEngine for ThreadSwitchEngine {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "thread-switch"
    }

    fn table1_rows(&self) -> &'static [Table1Row] {
        &ROWS
    }

    fn enable(&mut self, _vm: &mut VmState) {
        // Arming waits for the first CR3 load, which `armed_by` routes here.
    }

    fn disable(&mut self, vm: &mut VmState) {
        for w in self.watches.iter().flatten() {
            vm.ept.set_perm(w.gfn, w.prev_perm);
        }
        self.watches.clear();
        self.armed = false;
    }

    fn on_exit(
        &mut self,
        vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction {
        match exit.kind {
            VmExitKind::CrAccess { cr: 3, value }
                if !self.armed || self.watches.iter().any(Option::is_none) =>
            {
                self.arm(vm, Gpa::new(value));
            }
            VmExitKind::EptViolation(v) if v.access == AccessKind::Write => {
                let watch = self.watches.get(exit.vcpu.0).copied().flatten();
                if let (Some(w), Some(gva)) = (watch, v.gva) {
                    if gva == w.rsp0_addr {
                        // The written value is the new kernel stack pointer —
                        // the architectural thread identifier.
                        emit(EventKind::ThreadSwitch { kernel_stack: v.value.unwrap_or(0) });
                    }
                    // Other writes to the protected page (the rest of the
                    // TSS) are emulated silently.
                }
            }
            _ => {}
        }
        ExitAction::Resume
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.boolean(self.armed);
        w.varint(self.watches.len() as u64);
        for watch in &self.watches {
            match watch {
                Some(wa) => {
                    w.boolean(true);
                    w.varint(wa.rsp0_addr.value());
                    w.varint(wa.gfn.value());
                    w.byte(wa.prev_perm.to_bits());
                }
                None => w.boolean(false),
            }
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        self.armed = r.boolean()?;
        let n = r.count(1 << 10, "thread-switch watch slots")?;
        self.watches = Vec::with_capacity(n);
        for _ in 0..n {
            self.watches.push(if r.boolean()? {
                let rsp0_addr = Gva::new(r.varint()?);
                let gfn = Gfn::new(r.varint()?);
                let start = r.offset();
                let prev_perm = EptPerm::from_bits(r.byte()?)
                    .ok_or(SnapError::BadValue { offset: start, what: "ept permission" })?;
                Some(Watch { rsp0_addr, gfn, prev_perm })
            } else {
                None
            });
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{engine, events, machine_with};
    use super::*;
    use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
    use hypertap_hvsim::machine::GuestProgram;
    use hypertap_hvsim::paging::{AddressSpaceBuilder, FrameAllocator};
    use hypertap_hvsim::vcpu::VcpuId;

    const TSS_GVA: u64 = 0x3800_0000;

    /// Guest: boots (maps a TSS, loads TR, first CR3 write), then performs
    /// "thread switches" by rewriting TSS.RSP0.
    struct ThreadSwitcher {
        booted: bool,
        stacks: Vec<u64>,
        i: usize,
    }

    impl GuestProgram for ThreadSwitcher {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            if !self.booted {
                if cpu.vcpu_id() != VcpuId(0) {
                    return StepOutcome::Continue;
                }
                let mut falloc = FrameAllocator::new(
                    hypertap_hvsim::mem::Gfn::new(16),
                    hypertap_hvsim::mem::Gfn::new(4096),
                );
                let vm = cpu.vm_mut();
                let mut asb = AddressSpaceBuilder::new(&mut vm.mem, &mut falloc);
                asb.map_fresh_range(&mut vm.mem, &mut falloc, Gva::new(TSS_GVA), 1);
                // Both vCPUs get TSSes on the same page (as the paper notes,
                // one TSS per vCPU; pages containing them are protected).
                let pdba = asb.pdba();
                cpu.load_task_register(Gva::new(TSS_GVA));
                cpu.vm_mut().vcpu_mut(VcpuId(1)).clock +=
                    hypertap_hvsim::clock::Duration::from_secs(3600); // park vCPU 1
                cpu.write_cr3(pdba); // first CR3 load arms the engine
                self.booted = true;
                return StepOutcome::Continue;
            }
            let stack = self.stacks[self.i % self.stacks.len()];
            self.i += 1;
            cpu.write_u64_gva(Gva::new(TSS_GVA + TSS_RSP0_OFFSET), stack).unwrap();
            StepOutcome::Continue
        }
    }

    #[test]
    fn rsp0_writes_become_thread_switch_events() {
        let mut m = machine_with(Box::new(ThreadSwitchEngine::new()));
        let mut g = ThreadSwitcher { booted: false, stacks: vec![0xA000, 0xB000], i: 0 };
        m.run_steps(&mut g, 4); // boot + 3 switches
        let switches: Vec<u64> = events(&m)
            .iter()
            .filter_map(|(_, k)| match k {
                EventKind::ThreadSwitch { kernel_stack } => Some(*kernel_stack),
                _ => None,
            })
            .collect();
        assert_eq!(switches, vec![0xA000, 0xB000, 0xA000]);
    }

    #[test]
    fn unrelated_writes_to_tss_page_do_not_emit() {
        let mut m = machine_with(Box::new(ThreadSwitchEngine::new()));
        let mut g = ThreadSwitcher { booted: false, stacks: vec![0xA000], i: 0 };
        m.run_steps(&mut g, 1); // boot only

        struct OtherWrite;
        impl GuestProgram for OtherWrite {
            fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
                // Write elsewhere in the protected TSS page (not RSP0).
                cpu.write_u64_gva(Gva::new(TSS_GVA + 0x100), 7).unwrap();
                StepOutcome::Continue
            }
        }
        m.run_steps(&mut OtherWrite, 1);
        assert!(events(&m).iter().all(|(_, k)| !matches!(k, EventKind::ThreadSwitch { .. })));
        // But the write itself was emulated and landed.
        let (vm, _) = m.parts_mut();
        let vcpu0_cr3 = vm.vcpu(VcpuId(0)).cr3();
        let gpa = paging::walk(&vm.mem, vcpu0_cr3, Gva::new(TSS_GVA + 0x100)).unwrap();
        assert_eq!(vm.mem.read_u64(gpa), 7);
    }

    #[test]
    fn uninstall_restores_permissions() {
        let mut m = machine_with(Box::new(ThreadSwitchEngine::new()));
        let mut g = ThreadSwitcher { booted: false, stacks: vec![0xA000], i: 0 };
        m.run_steps(&mut g, 1);
        assert!(m.vm().ept.restricted_frames() > 0);
        let (vm, kvm) = m.parts_mut();
        assert!(kvm.uninstall(vm, "thread-switch"));
        assert_eq!(vm.ept.restricted_frames(), 0);
        assert!(!vm.controls().cr3_load_exiting(), "no installed engine routes CR_ACCESS");
    }

    #[test]
    fn arming_waits_for_first_cr3() {
        let mut m = machine_with(Box::new(ThreadSwitchEngine::new()));
        // No guest ran: CR3 loads exit (the engine is armed by them) but
        // nothing is protected yet.
        assert!(m.vm().controls().cr3_load_exiting());
        assert_eq!(m.vm().ept.restricted_frames(), 0);
        assert!(!engine::<ThreadSwitchEngine>(&mut m).is_armed());
        let mut g = ThreadSwitcher { booted: false, stacks: vec![0xA000], i: 0 };
        m.run_steps(&mut g, 1);
        assert!(engine::<ThreadSwitchEngine>(&mut m).is_armed());
    }
}
