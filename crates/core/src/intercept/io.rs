//! I/O access interception (paper §VI-C).
//!
//! The hypervisor already multiplexes I/O, so the architectural channels all
//! produce exits without extra programming: port instructions (`IO_INST`),
//! memory-mapped I/O (`EPT_VIOLATION` on unbacked MMIO regions), hardware
//! interrupts (`EXTERNAL_INT`) and APIC traffic (`APIC_ACCESS`). The engine
//! decodes each into the corresponding event.

use super::{InterceptEngine, Table1Row};
use crate::event::EventKind;
use hypertap_hvsim::ept::AccessKind;
use hypertap_hvsim::exit::{ExitAction, ExitReason, VmExit, VmExitKind};
use hypertap_hvsim::machine::VmState;

static ROWS: [Table1Row; 4] = [
    Table1Row {
        category: "I/O access interception",
        guest_event: "Programmed I/O",
        vm_exit: &[ExitReason::IoInst],
        armed_by: &[],
        invariant: "Execution of I/O instructions (e.g., IN, INS, OUT, OUTS)",
    },
    Table1Row {
        category: "I/O access interception",
        guest_event: "Memory mapped I/O",
        vm_exit: &[ExitReason::EptViolation],
        armed_by: &[],
        invariant: "Access to memory mapped I/O areas, which are set as protected",
    },
    Table1Row {
        category: "I/O access interception",
        guest_event: "Hardware interrupt",
        vm_exit: &[ExitReason::ExternalInt],
        armed_by: &[],
        invariant: "Hardware interrupt delivery causes EXTERNAL_INT VM Exits",
    },
    Table1Row {
        category: "I/O access interception",
        guest_event: "I/O APIC access",
        vm_exit: &[ExitReason::ApicAccess],
        armed_by: &[],
        invariant: "I/O Advanced Programmable Interrupt Controller (APIC) events",
    },
];

/// Decodes the unconditional I/O exits into events.
#[derive(Debug, Default)]
pub struct IoEngine {
    /// When false (the default), APIC accesses are not forwarded as events —
    /// they are extremely frequent and most auditors only need device I/O.
    pub forward_apic: bool,
}

impl IoEngine {
    /// Creates the engine (APIC events off).
    pub fn new() -> Self {
        IoEngine::default()
    }

    /// Creates the engine with APIC-event forwarding on.
    pub fn with_apic_events() -> Self {
        IoEngine { forward_apic: true }
    }
}

impl InterceptEngine for IoEngine {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "io-access"
    }

    fn table1_rows(&self) -> &'static [Table1Row] {
        &ROWS
    }

    fn enable(&mut self, _vm: &mut VmState) {
        // I/O exits are unconditional under HAV; nothing to program.
    }

    fn disable(&mut self, _vm: &mut VmState) {}

    fn on_exit(
        &mut self,
        vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction {
        match exit.kind {
            VmExitKind::IoInst { port, write, value } => {
                emit(EventKind::IoPort { port, write, value });
            }
            VmExitKind::EptViolation(v) if vm.io.is_mmio(v.gpa) => {
                emit(EventKind::MmioAccess { gpa: v.gpa, write: v.access == AccessKind::Write });
            }
            VmExitKind::ExternalInterrupt { vector } => {
                emit(EventKind::HardwareInterrupt { vector });
            }
            VmExitKind::ApicAccess { offset, .. } if self.forward_apic => {
                emit(EventKind::ApicAccess { offset });
            }
            _ => {}
        }
        ExitAction::Resume
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{events, machine_with};
    use super::*;
    use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
    use hypertap_hvsim::device::LatchDevice;
    use hypertap_hvsim::machine::GuestProgram;
    use hypertap_hvsim::mem::{Gfn, Gva};
    use hypertap_hvsim::paging::{AddressSpaceBuilder, FrameAllocator};
    use hypertap_hvsim::vcpu::VcpuId;

    struct IoGuest {
        booted: bool,
        mmio_gva: Gva,
    }

    impl GuestProgram for IoGuest {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            if cpu.vcpu_id() != VcpuId(0) {
                cpu.compute(1_000_000_000);
                return StepOutcome::Continue;
            }
            if !self.booted {
                let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(4096));
                let vm = cpu.vm_mut();
                let mut asb = AddressSpaceBuilder::new(&mut vm.mem, &mut falloc);
                let frame = falloc.alloc(&mut vm.mem);
                asb.map(&mut vm.mem, &mut falloc, self.mmio_gva, frame);
                let id = vm.io.register(Box::<LatchDevice>::default());
                vm.io.map_pio(0x1f0..0x1f8, id);
                vm.io.map_mmio(frame.base().value()..frame.base().value() + 4096, id);
                let pdba = asb.pdba();
                cpu.write_cr3(pdba);
                self.booted = true;
                return StepOutcome::Continue;
            }
            cpu.pio_out(0x1f0, 0x42);
            cpu.write_u64_gva(self.mmio_gva, 7).unwrap();
            let _ = cpu.poll_interrupt();
            StepOutcome::Continue
        }
    }

    #[test]
    fn decodes_pio_mmio_and_interrupts() {
        let mut m = machine_with(Box::new(IoEngine::new()));
        m.vm_mut().inject_irq(VcpuId(0), 0x33);
        let mut g = IoGuest { booted: false, mmio_gva: Gva::new(0x2000_0000) };
        m.run_steps(&mut g, 3);
        let kinds: Vec<_> = events(&m).iter().map(|(_, k)| *k).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::IoPort { port: 0x1f0, write: true, value: 0x42 })));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::MmioAccess { write: true, .. })));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::HardwareInterrupt { vector: 0x33 })));
    }

    #[test]
    fn apic_events_off_by_default() {
        let mut m = machine_with(Box::new(IoEngine::new()));
        struct ApicGuest;
        impl GuestProgram for ApicGuest {
            fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
                cpu.apic_eoi();
                StepOutcome::Continue
            }
        }
        m.run_steps(&mut ApicGuest, 1);
        assert!(events(&m).is_empty());

        let mut m2 = machine_with(Box::new(IoEngine::with_apic_events()));
        m2.run_steps(&mut ApicGuest, 1);
        assert!(matches!(events(&m2)[0].1, EventKind::ApicAccess { .. }));
    }

    #[test]
    fn table1_has_four_io_rows() {
        assert_eq!(IoEngine::new().table1_rows().len(), 4);
    }
}
