//! The run loop's step rule, checked on a booted kernel.
//!
//! `Machine::run_until` steps one vCPU in bursts. Every step it takes must
//! still be the step a one-step-per-selection loop would take at that
//! point: the earliest `(clock, id)` vCPU, running, not halted, before the
//! deadline, with no host timer, APIC timer or scheduled IRQ due at or
//! before its clock. A wrapper around the kernel asserts exactly that
//! before every step of a multi-vCPU `make -j2` run under HTTP load, a
//! host timer and hypervisor pauses.

use hypertap_guestos::prelude::*;
use hypertap_hvsim::clock::{Duration, SimTime};
use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
use hypertap_hvsim::exit::{ExitAction, VmExit};
use hypertap_hvsim::machine::{
    GuestProgram, Hypervisor, Machine, RunExit, TimerId, VmConfig, VmLifecycle, VmState,
};

/// Hypervisor that pauses the VM every `pause_every` exits and counts
/// host-timer firings.
struct PausingHv {
    exits: u64,
    pause_every: u64,
    fires: u64,
}

impl Hypervisor for PausingHv {
    fn handle_exit(&mut self, vm: &mut VmState, _exit: &VmExit) -> ExitAction {
        self.exits += 1;
        if self.exits.is_multiple_of(self.pause_every) {
            vm.pause();
        }
        ExitAction::Resume
    }

    fn on_timer(&mut self, _vm: &mut VmState, _timer: TimerId, _now: SimTime) {
        self.fires += 1;
    }
}

/// The kernel behind a check of the per-step rule.
struct StepRule<'k> {
    kernel: &'k mut Kernel,
    deadline: SimTime,
    steps: u64,
}

impl GuestProgram for StepRule<'_> {
    fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
        let (vm, me, now) = (cpu.vm(), cpu.vcpu_id(), cpu.now());
        let earliest = vm.vcpus().map(|v| (v.clock, v.id().0)).min().expect("a vCPU");
        assert_eq!(
            earliest,
            (now, me.0),
            "step {} ran a vCPU that is not the earliest",
            self.steps
        );
        assert!(now < self.deadline, "step {} ran at {now}, past the deadline", self.steps);
        assert!(!vm.vcpu(me).is_halted(), "step {} ran a halted vCPU", self.steps);
        assert_eq!(vm.lifecycle(), VmLifecycle::Running, "step {}", self.steps);
        if let Some(due) = vm.next_wake() {
            assert!(due > now, "step {} ran at {now} with a wake-up due at {due}", self.steps);
        }
        self.steps += 1;
        self.kernel.step(cpu)
    }
}

/// Runs `make -j2` on `vcpus` vCPUs through deadlines that split the run,
/// with NIC interrupts after the first, optionally under a host timer, and
/// checks every step; returns (steps, pauses, host-timer firings).
fn run_checked(vcpus: usize, host_timer: bool) -> (u64, u64, u64) {
    let hv = PausingHv { exits: 0, pause_every: 997, fires: 0 };
    let mut m = Machine::new(VmConfig::new(vcpus, 256 << 20), hv);
    let mut k = Kernel::new(KernelConfig::new(vcpus));
    let make = hypertap_workloads::make::install(&mut k, 2, 6);
    let init = hypertap_workloads::make::install_init_running(&mut k, make);
    k.set_init_program(init);
    if host_timer {
        m.vm_mut().register_host_timer(Duration::from_micros(700));
    }

    let (mut steps, mut pauses) = (0, 0);
    for (i, us) in [50_321, 120_007, 120_950, 800_000].into_iter().enumerate() {
        let deadline = SimTime::from_micros(us);
        loop {
            let mut rule = StepRule { kernel: &mut k, deadline, steps };
            let r = m.run_until(&mut rule, deadline);
            steps = rule.steps;
            if r != RunExit::Paused {
                assert_eq!(r, RunExit::Deadline);
                break;
            }
            pauses += 1;
            m.vm_mut().resume();
        }
        if i == 0 {
            // NIC interrupts at Poisson arrival times.
            let now = m.vm().now();
            hypertap_workloads::http::offer_load(
                m.vm_mut(),
                &k,
                now,
                2_000.0,
                Duration::from_millis(200),
                512,
                7,
            );
        }
    }
    (steps, pauses, m.hypervisor().fires)
}

#[test]
fn every_step_of_a_booted_kernel_is_the_per_step_choice() {
    let (steps, pauses, _) = run_checked(1, false);
    assert!(steps > 5_000 && pauses > 3, "1 vCPU: {steps} steps, {pauses} pauses");
    let (steps, pauses, fires) = run_checked(3, true);
    assert!(steps > 10_000 && pauses > 3, "3 vCPUs: {steps} steps, {pauses} pauses");
    assert!(fires > 300, "host timer fired: {fires}");
}
