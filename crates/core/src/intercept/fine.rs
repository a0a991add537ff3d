//! Fine-grained interception (paper §VI-D).
//!
//! EPT permissions make it possible to watch individual frames for reads,
//! writes or instruction fetches. The paper notes the significant cost of
//! this granularity and recommends it only for selective critical
//! protection; the engine therefore watches an explicit frame list rather
//! than offering blanket tracing.

use super::{InterceptEngine, Table1Row};
use crate::event::EventKind;
use hypertap_hvsim::ept::{AccessKind, EptPerm};
use hypertap_hvsim::exit::{ExitAction, ExitReason, VmExit, VmExitKind};
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::mem::Gfn;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::HashMap;

static ROWS: [Table1Row; 2] = [
    Table1Row {
        category: "Low-level interception",
        guest_event: "Memory access",
        vm_exit: &[ExitReason::EptViolation],
        armed_by: &[],
        invariant:
            "Accesses to memory regions with proper permissions cause EPT_VIOLATION VM Exits",
    },
    Table1Row {
        category: "Low-level interception",
        guest_event: "Instruction execution",
        vm_exit: &[ExitReason::EptViolation],
        armed_by: &[],
        invariant:
            "Execution of instructions from non-executable regions causes EPT_VIOLATION VM Exits",
    },
];

/// Watches selected guest frames at EPT granularity.
#[derive(Debug, Default)]
pub struct FineGrainedEngine {
    watched: HashMap<Gfn, EptPerm>, // gfn -> previous permission
}

impl FineGrainedEngine {
    /// Creates the engine with an empty watch list.
    pub fn new() -> Self {
        FineGrainedEngine::default()
    }

    /// Watches a frame with the given (restricted) permission; accesses that
    /// the permission denies will be reported as [`EventKind::MemoryAccess`].
    pub fn watch_frame(&mut self, vm: &mut VmState, gfn: Gfn, perm: EptPerm) {
        let prev = vm.ept.set_perm(gfn, perm);
        self.watched.entry(gfn).or_insert(prev);
    }

    /// Stops watching a frame, restoring its original permission.
    pub fn unwatch_frame(&mut self, vm: &mut VmState, gfn: Gfn) {
        if let Some(prev) = self.watched.remove(&gfn) {
            vm.ept.set_perm(gfn, prev);
        }
    }

    /// Number of watched frames.
    pub fn watched_frames(&self) -> usize {
        self.watched.len()
    }
}

impl InterceptEngine for FineGrainedEngine {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "fine-grained"
    }

    fn table1_rows(&self) -> &'static [Table1Row] {
        &ROWS
    }

    fn enable(&mut self, _vm: &mut VmState) {
        // Watching is explicit per frame; nothing global to program.
    }

    fn disable(&mut self, vm: &mut VmState) {
        for (gfn, prev) in self.watched.drain() {
            vm.ept.set_perm(gfn, prev);
        }
    }

    fn on_exit(
        &mut self,
        _vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction {
        if let VmExitKind::EptViolation(v) = exit.kind {
            if self.watched.contains_key(&v.gpa.gfn()) {
                emit(EventKind::MemoryAccess {
                    gpa: v.gpa,
                    gva: v.gva,
                    access: v.access,
                    value: v.value,
                });
            }
        }
        ExitAction::Resume
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        // Deterministic byte stream: the map is emitted in ascending-gfn
        // order regardless of hash-map iteration order.
        let mut entries: Vec<(Gfn, EptPerm)> = self.watched.iter().map(|(g, p)| (*g, *p)).collect();
        entries.sort_by_key(|(g, _)| *g);
        w.varint(entries.len() as u64);
        for (gfn, prev) in entries {
            w.varint(gfn.value());
            w.byte(prev.to_bits());
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        let n = r.count(1 << 24, "watched frames")?;
        self.watched = HashMap::with_capacity(n);
        for _ in 0..n {
            let gfn = Gfn::new(r.varint()?);
            let start = r.offset();
            let prev = EptPerm::from_bits(r.byte()?)
                .ok_or(SnapError::BadValue { offset: start, what: "ept permission" })?;
            self.watched.insert(gfn, prev);
        }
        r.finish()
    }
}

/// Convenience: the permission that reports the given access kinds.
pub fn perm_watching(kinds: &[AccessKind]) -> EptPerm {
    let mut perm = EptPerm::RWX;
    for k in kinds {
        perm = match k {
            AccessKind::Write => match perm {
                p if p == EptPerm::RWX => EptPerm::RX,
                p if p == EptPerm::RW => EptPerm::NONE, // read-only impossible in model; drop all
                p => p,
            },
            AccessKind::Execute => match perm {
                p if p == EptPerm::RWX => EptPerm::RW,
                p if p == EptPerm::RX => EptPerm::NONE,
                p => p,
            },
            AccessKind::Read => EptPerm::NONE,
        };
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{engine, events, machine_with};
    use super::*;
    use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
    use hypertap_hvsim::machine::GuestProgram;
    use hypertap_hvsim::mem::Gva;
    use hypertap_hvsim::paging::{AddressSpaceBuilder, FrameAllocator};
    use hypertap_hvsim::vcpu::VcpuId;

    const DATA_GVA: u64 = 0x2400_0000;

    struct WriteGuest {
        booted: bool,
    }

    impl GuestProgram for WriteGuest {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            if cpu.vcpu_id() != VcpuId(0) {
                cpu.compute(1_000_000_000);
                return StepOutcome::Continue;
            }
            if !self.booted {
                let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(4096));
                let vm = cpu.vm_mut();
                let mut asb = AddressSpaceBuilder::new(&mut vm.mem, &mut falloc);
                asb.map_fresh_range(&mut vm.mem, &mut falloc, Gva::new(DATA_GVA), 1);
                let pdba = asb.pdba();
                cpu.write_cr3(pdba);
                self.booted = true;
                return StepOutcome::Continue;
            }
            cpu.write_u64_gva(Gva::new(DATA_GVA + 8), 0x55).unwrap();
            let _ = cpu.read_u64_gva(Gva::new(DATA_GVA)).unwrap();
            StepOutcome::Continue
        }
    }

    #[test]
    fn watched_frame_reports_denied_accesses_only() {
        let mut m = machine_with(Box::new(FineGrainedEngine::new()));
        let mut g = WriteGuest { booted: false };
        m.run_steps(&mut g, 1); // boot
        let gpa = {
            let vm = m.vm();
            hypertap_hvsim::paging::walk(&vm.mem, vm.vcpu(VcpuId(0)).cr3(), Gva::new(DATA_GVA))
                .unwrap()
        };
        // Watch writes to the data frame through the installed engine.
        let (vm, kvm) = m.parts_mut();
        let fge = kvm.engine_mut("fine-grained").unwrap().as_any_mut();
        let fge = fge.downcast_mut::<FineGrainedEngine>().unwrap();
        fge.watch_frame(vm, gpa.gfn(), EptPerm::RX);
        assert_eq!(engine::<FineGrainedEngine>(&mut m).watched_frames(), 1);
        m.run_steps(&mut g, 2);
        let mems: Vec<_> = events(&m)
            .iter()
            .filter(|(_, k)| matches!(k, EventKind::MemoryAccess { .. }))
            .collect();
        assert_eq!(mems.len(), 1, "write trapped, read allowed");
        match mems[0].1 {
            EventKind::MemoryAccess { access, value, .. } => {
                assert_eq!(access, AccessKind::Write);
                assert_eq!(value, Some(0x55));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unwatch_restores() {
        let mut m = machine_with(Box::new(FineGrainedEngine::new()));
        let (vm, _) = m.parts_mut();
        let mut fge = FineGrainedEngine::new();
        fge.watch_frame(vm, Gfn::new(100), EptPerm::NONE);
        assert_eq!(vm.ept.restricted_frames(), 1);
        fge.unwatch_frame(vm, Gfn::new(100));
        assert_eq!(vm.ept.restricted_frames(), 0);
        assert_eq!(fge.watched_frames(), 0);
    }

    #[test]
    fn perm_watching_combinations() {
        assert_eq!(perm_watching(&[AccessKind::Write]), EptPerm::RX);
        assert_eq!(perm_watching(&[AccessKind::Execute]), EptPerm::RW);
        assert_eq!(perm_watching(&[AccessKind::Write, AccessKind::Execute]), EptPerm::NONE);
        assert_eq!(perm_watching(&[AccessKind::Read]), EptPerm::NONE);
    }
}
