//! The burst run loop against the one-step-per-selection loop it replaced.
//!
//! [`run_until_stepwise`] is that loop, kept as a reference model: every
//! iteration re-selects the vCPU, fires whatever is due and steps once.
//! Scripted guests and hypervisors drive both loops through the same VM and
//! must produce the same per-step `(vcpu, clock before, clock after)`
//! sequence, host-timer firings, exits, returned [`RunExit`]s and final VM
//! state.

use super::*;
use crate::exit::VmExitKind;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// The per-step run loop: one selection, one round of due events and one
/// guest step per iteration.
fn run_until_stepwise<H: Hypervisor>(
    m: &mut Machine<H>,
    guest: &mut dyn GuestProgram,
    deadline: SimTime,
) -> RunExit {
    loop {
        match m.vm.lifecycle {
            VmLifecycle::Stopped => return RunExit::Shutdown,
            VmLifecycle::Paused => return RunExit::Paused,
            VmLifecycle::Uninit => m.vm.lifecycle = VmLifecycle::Running,
            VmLifecycle::Running => {}
        }
        let vcpu_id =
            m.vm.vcpus
                .iter()
                .min_by_key(|v| (v.clock, v.id().0))
                .map(|v| v.id())
                .expect("at least one vCPU");
        let now = m.vm.vcpus[vcpu_id.0].clock;
        if now >= deadline {
            return RunExit::Deadline;
        }

        for i in 0..m.vm.timers.len() {
            loop {
                let t = &m.vm.timers[i];
                if t.cancelled || t.next_due > now {
                    break;
                }
                let due = t.next_due;
                let period = t.period;
                m.vm.timers[i].next_due = due + period;
                m.hv.on_timer(&mut m.vm, TimerId(i), due);
            }
        }
        m.vm.fire_due_apic_timers(now);
        m.vm.deliver_due_irqs(now);
        match m.vm.lifecycle {
            VmLifecycle::Stopped => return RunExit::Shutdown,
            VmLifecycle::Paused => return RunExit::Paused,
            VmLifecycle::Uninit | VmLifecycle::Running => {}
        }

        if m.vm.vcpus[vcpu_id.0].halted {
            match m.vm.next_wake() {
                Some(t) => {
                    let target = t.max(now).min(deadline);
                    if target == now && t <= now {
                        if m.vm.vcpus[vcpu_id.0].halted {
                            m.vm.vcpus[vcpu_id.0].clock = now + Duration::from_nanos(1);
                        }
                        continue;
                    }
                    m.vm.vcpus[vcpu_id.0].clock = target;
                    continue;
                }
                None => {
                    if m.vm.vcpus.iter().all(|v| v.halted) {
                        return RunExit::AllIdle;
                    }
                    m.vm.vcpus[vcpu_id.0].clock = deadline;
                    continue;
                }
            }
        }

        let mut cpu = CpuCtx::new(&mut m.vm, &mut m.hv, vcpu_id);
        match guest.step(&mut cpu) {
            StepOutcome::Continue => {}
            StepOutcome::Shutdown => {
                m.vm.lifecycle = VmLifecycle::Stopped;
                return RunExit::Shutdown;
            }
        }
    }
}

/// The per-step `run_steps`: select the earliest vCPU and step it, `n`
/// times, ignoring halts, pauses and timers.
fn run_steps_stepwise<H: Hypervisor>(m: &mut Machine<H>, guest: &mut dyn GuestProgram, n: usize) {
    if m.vm.lifecycle == VmLifecycle::Uninit {
        m.vm.lifecycle = VmLifecycle::Running;
    }
    for _ in 0..n {
        let vcpu_id =
            m.vm.vcpus.iter().min_by_key(|v| (v.clock, v.id().0)).map(|v| v.id()).expect("a vCPU");
        let mut cpu = CpuCtx::new(&mut m.vm, &mut m.hv, vcpu_id);
        if guest.step(&mut cpu) == StepOutcome::Shutdown {
            break;
        }
    }
}

/// One observable event of a run, in the order it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Step { vcpu: usize, before: SimTime, after: SimTime },
    Exit { vcpu: usize, time: SimTime, kind: VmExitKind },
    Timer { id: usize, due: SimTime },
}

type Log = Rc<RefCell<Vec<Ev>>>;

/// When the hypervisor pauses or stops the VM: at the n-th exit or the
/// n-th host-timer firing (0: never).
#[derive(Debug, Clone, Copy)]
struct Plan {
    pause_at_exit: u64,
    stop_at_exit: u64,
    pause_at_fire: u64,
    stop_at_fire: u64,
}

/// Hypervisor that logs exits and timer firings, pauses or stops the VM
/// on its [`Plan`], and schedules an IRQ from every third timer firing.
struct ScriptHv {
    log: Log,
    plan: Plan,
    exits: u64,
    fires: u64,
}

impl Hypervisor for ScriptHv {
    fn handle_exit(&mut self, vm: &mut VmState, exit: &VmExit) -> ExitAction {
        self.log.borrow_mut().push(Ev::Exit {
            vcpu: exit.vcpu.0,
            time: exit.time,
            kind: exit.kind,
        });
        self.exits += 1;
        if self.exits == self.plan.pause_at_exit {
            vm.pause();
        }
        if self.exits == self.plan.stop_at_exit {
            vm.request_shutdown();
        }
        ExitAction::Resume
    }

    fn on_timer(&mut self, vm: &mut VmState, timer: TimerId, now: SimTime) {
        self.log.borrow_mut().push(Ev::Timer { id: timer.0, due: now });
        self.fires += 1;
        if self.fires == self.plan.pause_at_fire {
            vm.pause();
        }
        if self.fires == self.plan.stop_at_fire {
            vm.request_shutdown();
        }
        if self.fires.is_multiple_of(3) {
            let target = VcpuId(self.fires as usize % vm.vcpu_count());
            vm.schedule_irq(now + Duration::from_micros(self.fires % 7), target, 0x41);
        }
    }
}

/// Guest that plays `ops` in a cycle, one per step, whichever vCPU steps.
/// Every step polls for an interrupt, burns a vCPU-dependent few
/// nanoseconds, then performs its op; `(kind, a, b)` decodes as in `step`.
struct Script {
    log: Log,
    ops: Vec<(u8, u64, u64)>,
    at: usize,
}

impl GuestProgram for Script {
    fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
        let vcpu = cpu.vcpu_id();
        let n = cpu.vm().vcpu_count();
        let before = cpu.now();
        let _ = cpu.poll_interrupt();
        cpu.advance(Duration::from_nanos(10 + 7 * vcpu.0 as u64));
        let (kind, a, b) = self.ops[self.at % self.ops.len()];
        self.at += 1;
        let mut outcome = StepOutcome::Continue;
        match kind {
            // Short and long compute, uneven across vCPUs.
            0 => cpu.advance(Duration::from_nanos((a + 1) * 50 * (vcpu.0 as u64 + 1))),
            1 => cpu.advance(Duration::from_micros(a + 1)),
            2 => cpu.hlt(),
            // An IRQ due now (at this vCPU's clock) or later.
            3 => {
                let due = if b == 0 { cpu.now() } else { cpu.now() + Duration::from_micros(a) };
                cpu.vm_mut().schedule_irq(due, VcpuId(b as usize % n), 0x30);
            }
            4 => cpu.program_apic_timer(Duration::from_micros(a * 5)),
            // Park another vCPU forward.
            5 => {
                let other = VcpuId((vcpu.0 + 1 + b as usize) % n);
                if other != vcpu {
                    cpu.vm_mut().vcpu_mut(other).clock += Duration::from_micros(a);
                }
            }
            6 => cpu.write_cr3(Gpa::new(0x1000 * (a + 1))),
            7 => cpu.set_interrupts_enabled(b != 0),
            8 => {
                if cpu.vm().timers.len() < 4 {
                    cpu.vm_mut().register_host_timer(Duration::from_micros(a + 1));
                }
            }
            _ => {
                if a == 0 {
                    outcome = StepOutcome::Shutdown;
                }
            }
        }
        self.log.borrow_mut().push(Ev::Step { vcpu: vcpu.0, before, after: cpu.now() });
        outcome
    }
}

/// One generated scenario: the VM, its initial events, the guest script and
/// the hypervisor's plan.
#[derive(Debug, Clone)]
struct Scenario {
    vcpus: usize,
    timers: Vec<u64>,
    irqs: Vec<(u64, usize)>,
    ops: Vec<(u8, u64, u64)>,
    plan: Plan,
}

/// Everything a run shows: the event log, each `run_until` call's
/// [`RunExit`] and the final VM state's snapshot bytes.
type Outcome = (Vec<Ev>, Vec<RunExit>, Vec<u8>);

type Run = fn(&mut Machine<ScriptHv>, &mut dyn GuestProgram, SimTime) -> RunExit;

/// Builds `s`'s VM and guest, lets `run` drive them and returns what the
/// run showed.
fn drive(
    s: &Scenario,
    run: impl FnOnce(&mut Machine<ScriptHv>, &mut Script) -> Vec<RunExit>,
) -> Outcome {
    let log = Log::default();
    let hv = ScriptHv { log: log.clone(), plan: s.plan, exits: 0, fires: 0 };
    let mut m = Machine::new(VmConfig::new(s.vcpus, 1 << 20), hv);
    m.vm_mut().controls_mut().set_cr3_load_exiting(true);
    for &period in &s.timers {
        m.vm_mut().register_host_timer(Duration::from_micros(period));
    }
    for &(due, vcpu) in &s.irqs {
        m.vm_mut().schedule_irq(SimTime::from_micros(due), VcpuId(vcpu % s.vcpus), 0x21);
    }
    let mut guest = Script { log: log.clone(), ops: s.ops.clone(), at: 0 };
    let exits = run(&mut m, &mut guest);
    let mut w = SnapWriter::new();
    m.vm().save_state(&mut w);
    let events = log.borrow().clone();
    (events, exits, w.into_bytes())
}

/// Runs to each of `deadlines` in turn through `run`, resuming after a
/// pause (a few times at most).
fn to_each(
    deadlines: &[SimTime],
    run: Run,
) -> impl FnOnce(&mut Machine<ScriptHv>, &mut Script) -> Vec<RunExit> + '_ {
    move |m, guest| {
        let mut exits = Vec::new();
        let mut resumes = 0;
        for &deadline in deadlines {
            loop {
                let r = run(m, guest, deadline);
                exits.push(r);
                if r == RunExit::Paused && resumes < 4 {
                    resumes += 1;
                    m.vm_mut().resume();
                    continue;
                }
                break;
            }
        }
        exits
    }
}

/// The end of every run, µs.
const END_US: u64 = 600;

proptest! {
    /// The burst loop matches the per-step loop event for event, in one
    /// run to the end and in runs split at intermediate deadlines, and so
    /// does `run_steps`. (The split run is compared loop against loop, not
    /// against the single run: in both loops a halted vCPU with nothing
    /// pending parks at the deadline it was given, so splits legitimately
    /// change when it wakes.)
    #[test]
    fn burst_loop_matches_stepwise_loop(
        vcpus in 1usize..5,
        ops in prop::collection::vec((0u8..10, 0u64..16, 0u64..4), 1..24),
        timers in prop::collection::vec(1u64..60, 0..3),
        irqs in prop::collection::vec((0u64..END_US, 0usize..4), 0..5),
        plan in (0u64..60, 0u64..160, 0u64..12, 0u64..30),
        cuts in prop::collection::vec(1u64..END_US, 0..4),
    ) {
        let plan = Plan {
            pause_at_exit: plan.0,
            stop_at_exit: plan.1,
            pause_at_fire: plan.2,
            stop_at_fire: plan.3,
        };
        let s = Scenario { vcpus, timers, irqs, ops, plan };
        let end = [SimTime::from_micros(END_US)];
        prop_assert!(
            drive(&s, to_each(&end, run_until_stepwise)) == drive(&s, to_each(&end, Machine::run_until)),
            "single run diverges for {s:?}"
        );
        let mut split: Vec<SimTime> = cuts.iter().map(|&c| SimTime::from_micros(c)).collect();
        split.sort();
        split.extend(end);
        prop_assert!(
            drive(&s, to_each(&split, run_until_stepwise))
                == drive(&s, to_each(&split, Machine::run_until)),
            "run split at {split:?} diverges for {s:?}"
        );
        let steps = |run: fn(&mut Machine<ScriptHv>, &mut dyn GuestProgram, usize)| {
            drive(&s, move |m, guest| {
                run(m, guest, 300);
                Vec::new()
            })
        };
        prop_assert!(
            steps(run_steps_stepwise) == steps(Machine::run_steps),
            "run_steps diverges for {s:?}"
        );
    }
}
