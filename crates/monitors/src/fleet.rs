//! Fleet membership for monitored VMs: drives a [`TapVm`] through the
//! [`FleetVm`] slice protocol of `hypertap_core::fleet`.
//!
//! A [`FleetMember`] advances its guest in fixed slices of simulated time
//! up to a campaign deadline. The slice length is part of the workload
//! configuration, identical for every worker count, so the member's event
//! stream is a pure function of the VM itself — the fleet determinism
//! contract holds by construction and is enforced by the replay crate's
//! fleet conformance suite.

use crate::harness::TapVm;
use hypertap_core::fleet::{FleetVm, SliceOutcome, VmReport};
use hypertap_core::prelude::VmId;
use hypertap_core::telemetry::VmProbe;
use hypertap_hvsim::clock::{Duration, SimTime};
use hypertap_hvsim::machine::RunExit;

/// A monitored VM enrolled in a fleet: a [`TapVm`] plus its campaign
/// deadline and slice length.
pub struct FleetMember {
    vm: TapVm,
    id: VmId,
    deadline: SimTime,
    slice: Duration,
    halted: bool,
    done: bool,
}

impl FleetMember {
    /// Enrolls a freshly built VM: it will run for `total` simulated time
    /// in slices of `slice` (both must be positive).
    pub fn new(vm: TapVm, id: VmId, total: Duration, slice: Duration) -> Self {
        assert!(slice > Duration::ZERO, "fleet slice must be positive");
        assert!(total > Duration::ZERO, "fleet campaign duration must be positive");
        let deadline = vm.now() + total;
        FleetMember { vm, id, deadline, slice, halted: false, done: false }
    }

    /// The member's VM id.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// Whether the guest halted (shutdown, auditor pause, or full wedge)
    /// before the campaign deadline.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The wrapped VM (e.g. to attach a trace recorder before stepping).
    pub fn vm_mut(&mut self) -> &mut TapVm {
        &mut self.vm
    }

    /// The wrapped VM, immutably.
    pub fn vm(&self) -> &TapVm {
        &self.vm
    }
}

impl FleetVm for FleetMember {
    fn step_slice(&mut self) -> SliceOutcome {
        if self.done {
            return SliceOutcome::Done;
        }
        let before = self.vm.now();
        let wall = if self.vm.machine.hypervisor().em.flight().is_enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let target = (before + self.slice).min(self.deadline);
        match self.vm.run_until(target) {
            // The guest powered off (Sysno::Reboot) or an auditor paused
            // the VM: its campaign is over.
            RunExit::Shutdown | RunExit::Paused => {
                self.halted = true;
                self.done = true;
            }
            // Every vCPU halted with nothing pending and no forward
            // progress possible — a wedged guest also ends its campaign.
            RunExit::AllIdle if self.vm.now() == before => {
                self.halted = true;
                self.done = true;
            }
            _ => {
                if self.vm.now() >= self.deadline {
                    self.done = true;
                }
            }
        }
        if let Some(wall) = wall {
            // One span per slice regardless of worker count, so the ring's
            // record count stays deterministic; only the duration is wall
            // clock, and durations are never exported as metrics.
            let ns = wall.elapsed().as_nanos() as u64;
            self.vm.machine.hypervisor_mut().em.flight_mut().note_span(
                "fleet-slice",
                before,
                ns,
                self.id.0,
            );
        }
        if self.done {
            SliceOutcome::Done
        } else {
            SliceOutcome::Running
        }
    }

    fn finish(&mut self) -> VmReport {
        VmReport {
            vm: self.id,
            findings: self.vm.drain_findings(),
            stats: self.vm.machine.hypervisor().em.stats(),
            metrics: self.vm.metrics_snapshot(),
            halted: self.halted,
            payload: Vec::new(),
        }
    }

    fn flight_dump(&mut self, reason: &str) -> Option<Vec<u8>> {
        Some(self.vm.flight_dump(reason))
    }

    fn telemetry_probe(&mut self) -> Option<VmProbe> {
        let em = &self.vm.machine.hypervisor().em;
        Some(VmProbe {
            now_ns: self.vm.now().as_nanos(),
            events_in: em.stats().events_in,
            pending_findings: em.pending_findings() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goshd::GoshdConfig;
    use hypertap_guestos::program::{FnProgram, UserOp, UserView};
    use hypertap_guestos::syscalls::Sysno;

    fn member(total_ms: u64, slice_ms: u64, reboot: bool) -> FleetMember {
        let id = VmId(3);
        let mut vm = TapVm::builder().vm_id(id).goshd(GoshdConfig::paper_default()).build();
        if reboot {
            let prog = vm.kernel.register_program(
                "suicide",
                Box::new(|| {
                    let mut n = 0u32;
                    Box::new(FnProgram(move |_v: &UserView<'_>| {
                        n += 1;
                        if n > 50 {
                            UserOp::sys(Sysno::Reboot, &[])
                        } else {
                            UserOp::Compute(10_000)
                        }
                    }))
                }),
            );
            vm.kernel.set_init_program(prog);
        }
        FleetMember::new(vm, id, Duration::from_millis(total_ms), Duration::from_millis(slice_ms))
    }

    #[test]
    fn slices_until_deadline_and_reports() {
        let mut m = member(20, 4, false);
        let mut slices = 0;
        while m.step_slice() == SliceOutcome::Running {
            slices += 1;
            assert!(slices < 100, "member must terminate");
        }
        assert!(!m.halted());
        assert!(m.vm().now() >= SimTime::from_millis(20));
        let report = m.finish();
        assert_eq!(report.vm, VmId(3));
        assert!(report.stats.events_in > 0, "a live guest produces events");
        assert!(!report.halted);
    }

    #[test]
    fn guest_reboot_halts_the_member_mid_campaign() {
        let mut m = member(500, 5, true);
        let mut slices = 0u32;
        while m.step_slice() == SliceOutcome::Running {
            slices += 1;
            assert!(slices < 200, "rebooting guest must end early");
        }
        assert!(m.halted(), "reboot must be classified as a halt");
        assert!(m.vm().now() < SimTime::from_millis(500), "halt happened before the deadline");
        let report = m.finish();
        assert!(report.halted);
    }

    #[test]
    fn events_are_tagged_with_the_member_vm_id() {
        let m = member(10, 10, false);
        assert_eq!(m.vm().machine.hypervisor().vm_id(), VmId(3));
    }
}
