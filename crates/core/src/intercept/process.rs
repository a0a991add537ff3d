//! Process context-switch interception and the process-counting algorithm
//! (paper §VI-A1, Fig. 3A).
//!
//! The x86 architecture requires CR3 to hold the Page-Directory Base Address
//! (PDBA) of the running process; PDBAs are unique per user process, so the
//! stream of CR3 loads is a trusted stream of process identifiers — no guest
//! data structure is consulted.

use super::{InterceptEngine, Table1Row};
use crate::event::EventKind;
use hypertap_hvsim::exit::{ExitAction, ExitReason, VmExit, VmExitKind};
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::mem::{Gpa, GuestMemory, Gva};
use hypertap_hvsim::paging;
use std::collections::BTreeSet;

static ROWS: [Table1Row; 1] = [Table1Row {
    category: "Context switch interception",
    guest_event: "Process context switch",
    vm_exit: &[ExitReason::CrAccess],
    armed_by: &[],
    invariant: "The CR3 register always points to the PDBA of the running process; \
                writes to CR registers cause CR_ACCESS VM Exits",
}];

/// Decodes CR3 loads into [`EventKind::ProcessSwitch`] events. CR3-load
/// exiting is switched on by [`crate::kvm::Kvm`], because this engine's row
/// names `CR_ACCESS`.
#[derive(Debug, Default)]
pub struct ProcessSwitchEngine;

impl ProcessSwitchEngine {
    /// Creates the engine (enable it via [`InterceptEngine::enable`] or
    /// [`crate::kvm::Kvm::install`]).
    pub fn new() -> Self {
        ProcessSwitchEngine
    }
}

impl InterceptEngine for ProcessSwitchEngine {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "process-switch"
    }

    fn table1_rows(&self) -> &'static [Table1Row] {
        &ROWS
    }

    fn enable(&mut self, _vm: &mut VmState) {}

    fn disable(&mut self, _vm: &mut VmState) {}

    fn on_exit(
        &mut self,
        _vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction {
        if let VmExitKind::CrAccess { cr: 3, value } = exit.kind {
            emit(EventKind::ProcessSwitch { new_pdba: Gpa::new(value) });
        }
        ExitAction::Resume
    }
}

/// The process-counting algorithm of Fig. 3A.
///
/// `PDBA_set` starts empty at VM boot; every observed CR3 load adds its PDBA.
/// [`ProcessCounter::count_valid`] then prunes stale PDBAs by attempting to
/// translate a known guest-virtual address under each remembered page
/// directory — a dead process's directory has been freed (and zeroed by the
/// guest's frame allocator), so the walk fails and the PDBA is discarded.
/// The surviving set size is the trusted count of live address spaces,
/// independent of any guest-OS data structure.
#[derive(Debug, Clone, Default)]
pub struct ProcessCounter {
    pdba_set: BTreeSet<u64>,
}

impl ProcessCounter {
    /// An empty counter (VM start).
    pub fn new() -> Self {
        ProcessCounter::default()
    }

    /// Records one observed CR3 load.
    pub fn observe(&mut self, pdba: Gpa) {
        self.pdba_set.insert(pdba.value());
    }

    /// Convenience: records the PDBA of a [`EventKind::ProcessSwitch`].
    pub fn observe_event(&mut self, kind: &EventKind) {
        if let EventKind::ProcessSwitch { new_pdba } = kind {
            self.observe(*new_pdba);
        }
    }

    /// Number of PDBAs ever observed and not yet pruned (no validity check).
    pub fn raw_count(&self) -> usize {
        self.pdba_set.len()
    }

    /// Whether a PDBA has been observed (and not pruned).
    pub fn contains(&self, pdba: Gpa) -> bool {
        self.pdba_set.contains(&pdba.value())
    }

    /// The Fig. 3A "Count the Virtual Address Spaces" procedure: prunes every
    /// PDBA under which `known_gva` (an address mapped in all live address
    /// spaces, e.g. a kernel-text address) no longer translates, then returns
    /// the set size.
    ///
    /// The paper's pseudo-code temporarily loads each PDBA into `vcpu.CR3`
    /// and calls `gva_to_gpa`; the simulator's page walker takes the PDBA
    /// directly, which is the same computation without the save/restore
    /// dance.
    pub fn count_valid(&mut self, mem: &GuestMemory, known_gva: Gva) -> usize {
        self.pdba_set.retain(|&pdba| paging::walk(mem, Gpa::new(pdba), known_gva).is_ok());
        self.pdba_set.len()
    }

    /// Iterates over the currently remembered PDBAs.
    pub fn iter(&self) -> impl Iterator<Item = Gpa> + '_ {
        self.pdba_set.iter().map(|&v| Gpa::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{events, machine_with};
    use super::*;
    use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
    use hypertap_hvsim::machine::GuestProgram;
    use hypertap_hvsim::mem::{Gfn, PAGE_SIZE};
    use hypertap_hvsim::paging::{AddressSpaceBuilder, FrameAllocator};

    struct SwitchLoop {
        pdbas: Vec<u64>,
        i: usize,
    }

    impl GuestProgram for SwitchLoop {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            cpu.write_cr3(Gpa::new(self.pdbas[self.i % self.pdbas.len()]));
            self.i += 1;
            StepOutcome::Continue
        }
    }

    #[test]
    fn every_cr3_load_becomes_a_process_switch_event() {
        let mut m = machine_with(Box::new(ProcessSwitchEngine::new()));
        let mut g = SwitchLoop { pdbas: vec![0x1000, 0x2000, 0x1000], i: 0 };
        m.run_steps(&mut g, 3);
        let events = events(&m);
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0].1,
            EventKind::ProcessSwitch { new_pdba } if new_pdba == Gpa::new(0x1000)
        ));
    }

    #[test]
    fn uninstall_stops_events() {
        let mut m = machine_with(Box::new(ProcessSwitchEngine::new()));
        let (vm, kvm) = m.parts_mut();
        assert!(kvm.uninstall(vm, "process-switch"));
        let mut g = SwitchLoop { pdbas: vec![0x1000], i: 0 };
        m.run_steps(&mut g, 3);
        assert!(events(&m).is_empty());
        assert_eq!(m.vm().stats().total(), 0, "CR3 loads no longer exit");
    }

    #[test]
    fn counter_dedups_pdbas() {
        let mut c = ProcessCounter::new();
        c.observe(Gpa::new(0x1000));
        c.observe(Gpa::new(0x2000));
        c.observe(Gpa::new(0x1000));
        assert_eq!(c.raw_count(), 2);
        assert!(c.contains(Gpa::new(0x2000)));
        assert!(!c.contains(Gpa::new(0x3000)));
    }

    #[test]
    fn count_valid_prunes_dead_address_spaces() {
        // Build two live address spaces sharing a kernel page, then destroy one.
        let mut mem = GuestMemory::new(32 << 20);
        let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new((32 << 20) / PAGE_SIZE));
        let known = Gva::new(0x3000_0000);

        let mut kas = AddressSpaceBuilder::new(&mut mem, &mut falloc);
        let kframe = falloc.alloc(&mut mem);
        kas.map(&mut mem, &mut falloc, known, kframe);

        let mut uas = AddressSpaceBuilder::new(&mut mem, &mut falloc);
        uas.share_range_from(&mut mem, kas.pdba(), known, known.offset(PAGE_SIZE));

        let mut c = ProcessCounter::new();
        c.observe(kas.pdba());
        c.observe(uas.pdba());
        assert_eq!(c.count_valid(&mem, known), 2);

        // Kill the user process: its directory is freed and zeroed.
        let dead = uas.pdba();
        uas.destroy(&mut mem, &mut falloc, Some(kas.pdba()));
        assert_eq!(c.count_valid(&mem, known), 1);
        assert!(!c.contains(dead));
        assert!(c.contains(kas.pdba()));
    }

    #[test]
    fn observe_event_filters_kinds() {
        let mut c = ProcessCounter::new();
        c.observe_event(&EventKind::ProcessSwitch { new_pdba: Gpa::new(0x9000) });
        c.observe_event(&EventKind::ThreadSwitch { kernel_stack: 0x1 });
        assert_eq!(c.raw_count(), 1);
    }

    #[test]
    fn table1_row_present() {
        let e = ProcessSwitchEngine::new();
        assert_eq!(e.table1_rows().len(), 1);
        assert_eq!(e.table1_rows()[0].vm_exit, [ExitReason::CrAccess]);
    }
}
