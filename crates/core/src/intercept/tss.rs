//! TSS-integrity checking (paper Fig. 3C).
//!
//! An attacker who relocated a vCPU's TSS could point monitoring at a decoy
//! structure. The defence is architectural: the hypervisor records each
//! vCPU's TR base once the guest has booted (first CR3 load) and compares the
//! saved value against the VMCS-saved TR on subsequent exits. A mismatch
//! means the TSS was relocated and raises an integrity alarm.

use super::{InterceptEngine, Table1Row};
use crate::event::EventKind;
use hypertap_hvsim::exit::{ExitAction, ExitReason, VmExit, VmExitKind};
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::mem::Gva;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use hypertap_hvsim::vcpu::VcpuId;

static ROWS: [Table1Row; 1] = [Table1Row {
    category: "Context switch interception",
    guest_event: "TSS relocation (integrity)",
    vm_exit: &ExitReason::ALL,
    armed_by: &[],
    invariant: "The TR register saved in the VMCS must match the value recorded at guest boot",
}];

/// Checks on every exit that no vCPU's TR has moved since boot.
#[derive(Debug, Default)]
pub struct TssIntegrityEngine {
    saved_tr: Vec<Option<Gva>>,
    alerted: Vec<bool>,
}

impl TssIntegrityEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        TssIntegrityEngine::default()
    }

    /// The TR value recorded for a vCPU, if armed.
    pub fn saved_tr(&self, vcpu: VcpuId) -> Option<Gva> {
        self.saved_tr.get(vcpu.0).copied().flatten()
    }
}

impl InterceptEngine for TssIntegrityEngine {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "tss-integrity"
    }

    fn table1_rows(&self) -> &'static [Table1Row] {
        &ROWS
    }

    fn enable(&mut self, vm: &mut VmState) {
        self.saved_tr = vec![None; vm.vcpu_count()];
        self.alerted = vec![false; vm.vcpu_count()];
    }

    fn disable(&mut self, _vm: &mut VmState) {
        self.saved_tr.clear();
        self.alerted.clear();
    }

    fn on_exit(
        &mut self,
        vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction {
        let armed = self.saved_tr.iter().any(Option::is_some);
        let all_armed = self.saved_tr.iter().all(Option::is_some);
        if !all_armed && matches!(exit.kind, VmExitKind::CrAccess { cr: 3, .. }) {
            // Record each vCPU's boot-time TR as it comes online.
            for i in 0..vm.vcpu_count() {
                if self.saved_tr[i].is_none() {
                    let tr = vm.vcpu(VcpuId(i)).tr_base();
                    if tr.value() != 0 {
                        self.saved_tr[i] = Some(tr);
                    }
                }
            }
        }
        if !armed {
            return ExitAction::Resume;
        }
        // Integrity check on every subsequent exit.
        for i in 0..vm.vcpu_count() {
            let (Some(saved), false) = (self.saved_tr[i], self.alerted[i]) else { continue };
            let current = vm.vcpu(VcpuId(i)).tr_base();
            if current != saved {
                self.alerted[i] = true;
                emit(EventKind::TssRelocated { expected: saved, found: current });
            }
        }
        ExitAction::Resume
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.varint(self.saved_tr.len() as u64);
        for tr in &self.saved_tr {
            w.opt_varint(tr.map(|g| g.value()));
        }
        w.varint(self.alerted.len() as u64);
        for a in &self.alerted {
            w.boolean(*a);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        let n = r.count(1 << 10, "saved TR slots")?;
        self.saved_tr = Vec::with_capacity(n);
        for _ in 0..n {
            self.saved_tr.push(r.opt_varint()?.map(Gva::new));
        }
        let n = r.count(1 << 10, "alert flags")?;
        self.alerted = Vec::with_capacity(n);
        for _ in 0..n {
            self.alerted.push(r.boolean()?);
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
    use hypertap_hvsim::mem::Gpa;

    struct Script {
        steps: Vec<fn(&mut CpuCtx<'_>)>,
        i: usize,
    }

    impl GuestProgram for Script {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            if cpu.vcpu_id().0 != 0 {
                cpu.compute(1_000_000_000);
                return StepOutcome::Continue;
            }
            if let Some(f) = self.steps.get(self.i) {
                f(cpu);
                self.i += 1;
            }
            StepOutcome::Continue
        }
    }

    #[test]
    fn relocation_raises_one_alert() {
        let mut m = machine_with(Box::new(TssIntegrityEngine::new()));
        let mut g = Script {
            steps: vec![
                |cpu| {
                    cpu.load_task_register(Gva::new(0x1000));
                    cpu.write_cr3(Gpa::new(0x2000)); // arms: records TR
                },
                |cpu| cpu.write_cr3(Gpa::new(0x2000)), // clean exit: no alert
                |cpu| {
                    cpu.load_task_register(Gva::new(0x9000)); // rootkit relocates TSS
                    cpu.write_cr3(Gpa::new(0x2000)); // next exit detects it
                },
                |cpu| cpu.write_cr3(Gpa::new(0x2000)), // no duplicate alert
            ],
            i: 0,
        };
        m.run_steps(&mut g, 4);
        let alerts: Vec<_> = events(&m)
            .iter()
            .filter(|(_, k)| matches!(k, EventKind::TssRelocated { .. }))
            .collect();
        assert_eq!(alerts.len(), 1);
        match alerts[0].1 {
            EventKind::TssRelocated { expected, found } => {
                assert_eq!(expected, Gva::new(0x1000));
                assert_eq!(found, Gva::new(0x9000));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn no_alert_when_tr_is_stable() {
        let mut m = machine_with(Box::new(TssIntegrityEngine::new()));
        let mut g = Script {
            steps: vec![
                |cpu| {
                    cpu.load_task_register(Gva::new(0x1000));
                    cpu.write_cr3(Gpa::new(0x2000));
                },
                |cpu| cpu.write_cr3(Gpa::new(0x3000)),
                |cpu| cpu.write_cr3(Gpa::new(0x2000)),
            ],
            i: 0,
        };
        m.run_steps(&mut g, 3);
        assert!(events(&m).iter().all(|(_, k)| !matches!(k, EventKind::TssRelocated { .. })));
    }

    #[test]
    fn saved_tr_is_queryable() {
        let mut m = machine_with(Box::new(TssIntegrityEngine::new()));
        let mut g = Script {
            steps: vec![|cpu| {
                cpu.load_task_register(Gva::new(0x1000));
                cpu.write_cr3(Gpa::new(0x2000));
            }],
            i: 0,
        };
        m.run_steps(&mut g, 1);
        let e = engine::<TssIntegrityEngine>(&mut m);
        assert_eq!(e.saved_tr(VcpuId(0)), Some(Gva::new(0x1000)));
        assert_eq!(e.saved_tr(VcpuId(1)), None, "vCPU 1 never loaded TR");
    }
}
