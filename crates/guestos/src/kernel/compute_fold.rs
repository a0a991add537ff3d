//! The folded `Compute` op against its two-step reference form.
//!
//! In the two-step form, the step in which a user program returns
//! `UserOp::Compute(n)` only stores `pending_compute = n`, and each later
//! step charges one chunk. In the folded form the kernel runs, the op step
//! charges the first chunk itself. Under `Machine::run_until` the two
//! cannot be told apart: the op step moves no clock and touches no wake-up,
//! halt or lifecycle state, so it never ends a burst, and the same vCPU's
//! next step follows at the same clock with nothing fired in between. The
//! test-only switch `Kernel::two_step_compute` selects the reference form.
//! Booted kernels run in both forms must show the same ops at the same
//! clocks, the same exits and timer firings, and the same statistics and
//! snapshot bytes at every `run_until` boundary; the folded form must take
//! exactly one step fewer per `Compute(n)` with `n > 0`.

use super::*;
use hypertap_hvsim::exit::{ExitAction, ExitStats, VmExit, VmExitKind};
use hypertap_hvsim::machine::{Hypervisor, Machine, RunExit, TimerId, VmConfig, VmState};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// The default compute chunk, ns.
const CHUNK: u64 = 200_000;

/// Every op a program asked for: `(pid, UserView::now, op)`.
type OpLog = Rc<RefCell<Vec<(u64, SimTime, UserOp)>>>;

/// One scripted operation. `Kill(j)` kills init's `j`-th child (mod the
/// number spawned); it is a `getpid` in a program that spawned nothing.
#[derive(Debug, Clone, Copy)]
enum Op {
    Compute(u64),
    Getpid,
    Write(u64),
    Sleep(u64),
    NetRecv,
    Emit,
    Kill(usize),
}

/// Decodes a generated `(kind, a)` pair; compute sizes cover zero, below,
/// at and several times the chunk.
fn op(kind: u8, a: u64) -> Op {
    match kind {
        0 => Op::Compute(0),
        1 => Op::Compute(CHUNK),
        2 | 3 => Op::Compute(a),
        4 => Op::Getpid,
        5 => Op::Write(a % 8_192 + 1),
        6 => Op::Sleep(a % 3_000_000),
        7 => Op::NetRecv,
        8 => Op::Emit,
        _ => Op::Kill(a as usize),
    }
}

/// A program that first spawns `spawn` children (registered programs
/// `0..spawn`), then plays `ops` `rounds` times and exits, logging every
/// op it yields.
struct Scripted {
    spawn: usize,
    ops: Vec<Op>,
    rounds: usize,
    pc: usize,
    children: Vec<u64>,
    log: OpLog,
}

impl UserProgram for Scripted {
    fn next_op(&mut self, view: &UserView<'_>) -> UserOp {
        if (1..=self.spawn).contains(&self.pc) {
            self.children.push(view.last_ret);
        }
        let next = if self.pc < self.spawn {
            UserOp::sys(Sysno::Spawn, &[self.pc as u64, 1000])
        } else {
            let at = self.pc - self.spawn;
            match self.ops.get(at % self.ops.len()).filter(|_| at < self.ops.len() * self.rounds) {
                None => UserOp::Exit(0),
                Some(&Op::Compute(n)) => UserOp::Compute(n),
                Some(Op::Getpid) => UserOp::sys(Sysno::Getpid, &[]),
                Some(&Op::Write(bytes)) => UserOp::sys(Sysno::Write, &[0, bytes]),
                Some(&Op::Sleep(ns)) => UserOp::sys(Sysno::Nanosleep, &[ns]),
                Some(Op::NetRecv) => UserOp::sys(Sysno::NetRecv, &[1500]),
                Some(Op::Emit) => UserOp::Emit("op".into(), self.pc.to_string()),
                Some(&Op::Kill(j)) => match self.children.len() {
                    0 => UserOp::sys(Sysno::Getpid, &[]),
                    len => UserOp::sys(Sysno::Kill, &[self.children[j % len]]),
                },
            }
        };
        self.pc += 1;
        self.log.borrow_mut().push((view.pid, view.now, next.clone()));
        next
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = SnapWriter::new();
        w.varint(self.pc as u64);
        w.varint(self.children.len() as u64);
        for &pid in &self.children {
            w.varint(pid);
        }
        Some(w.into_bytes())
    }
}

/// Hypervisor that logs every exit and host-timer firing, and raises a NIC
/// interrupt a few µs after every other firing.
#[derive(Default)]
struct LogHv {
    exits: Vec<(usize, SimTime, VmExitKind)>,
    fires: Vec<SimTime>,
}

impl Hypervisor for LogHv {
    fn handle_exit(&mut self, _vm: &mut VmState, exit: &VmExit) -> ExitAction {
        self.exits.push((exit.vcpu.0, exit.time, exit.kind));
        ExitAction::Resume
    }

    fn on_timer(&mut self, vm: &mut VmState, _timer: TimerId, now: SimTime) {
        self.fires.push(now);
        if self.fires.len().is_multiple_of(2) {
            let target = VcpuId(self.fires.len() % vm.vcpu_count());
            vm.schedule_irq(now + Duration::from_micros(3), target, NIC_IRQ_VECTOR);
        }
    }
}

/// One kernel step as the run loop took it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepRec {
    vcpu: usize,
    before: SimTime,
    after: SimTime,
    /// Ops asked for up to the end of this step.
    ops: usize,
    /// Process exits up to the end of this step.
    exits: u64,
}

/// The kernel behind a step log.
struct Logged<'a> {
    kernel: &'a mut Kernel,
    log: &'a OpLog,
    steps: &'a mut Vec<StepRec>,
}

impl GuestProgram for Logged<'_> {
    fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
        let before = cpu.now();
        let outcome = self.kernel.step(cpu);
        self.steps.push(StepRec {
            vcpu: cpu.vcpu_id().0,
            before,
            after: cpu.now(),
            ops: self.log.borrow().len(),
            exits: self.kernel.stats.exits,
        });
        outcome
    }
}

/// A booted-kernel scenario: the programs, the VM's initial events and the
/// deadlines `run_until` is called with.
#[derive(Debug, Clone)]
struct Scenario {
    vcpus: usize,
    tick: Duration,
    rounds: usize,
    init: Vec<Op>,
    children: Vec<Vec<Op>>,
    host_timer_us: Option<u64>,
    /// NIC interrupts `(µs, vCPU)`, each with a packet, queued once the
    /// first deadline is reached.
    nic_irqs: Vec<(u64, usize)>,
    deadlines: Vec<SimTime>,
}

/// What a run showed at one `run_until` boundary.
#[derive(Debug, PartialEq, Eq)]
struct Boundary {
    exit: RunExit,
    ops: usize,
    exit_stats: ExitStats,
    kernel_stats: KernelStats,
    kernel_bytes: Vec<u8>,
    vm_bytes: Vec<u8>,
}

/// Everything a run showed.
struct Run {
    ops: Vec<(u64, SimTime, UserOp)>,
    steps: Vec<StepRec>,
    exits: Vec<(usize, SimTime, VmExitKind)>,
    fires: Vec<SimTime>,
    boundaries: Vec<Boundary>,
    /// Steps taken up to each boundary.
    steps_at: Vec<usize>,
}

/// Runs `s` with the folded (`two_step == false`) or the two-step form.
fn drive(s: &Scenario, two_step: bool) -> Run {
    let log = OpLog::default();
    let mut cfg = KernelConfig::new(s.vcpus);
    cfg.tick = s.tick;
    let mut k = Kernel::new(cfg);
    k.two_step_compute = two_step;
    let scripted = |spawn: usize, ops: &[Op]| -> ProgramFactory {
        let (ops, rounds, log) = (ops.to_vec(), s.rounds, log.clone());
        Box::new(move || {
            let (ops, log) = (ops.clone(), log.clone());
            Box::new(Scripted { spawn, ops, rounds, pc: 0, children: Vec::new(), log })
        })
    };
    for ops in &s.children {
        k.register_program("child", scripted(0, ops));
    }
    let init = k.register_program("init", scripted(s.children.len(), &s.init));
    k.set_init_program(init);

    let mut m = Machine::new(VmConfig::new(s.vcpus, 256 << 20), LogHv::default());
    m.vm_mut().controls_mut().set_cr3_load_exiting(true);
    if let Some(us) = s.host_timer_us {
        m.vm_mut().register_host_timer(Duration::from_micros(us));
    }

    let mut steps = Vec::new();
    let (mut boundaries, mut steps_at) = (Vec::new(), Vec::new());
    for (i, &deadline) in s.deadlines.iter().enumerate() {
        let exit =
            m.run_until(&mut Logged { kernel: &mut k, log: &log, steps: &mut steps }, deadline);
        if i == 0 && !s.nic_irqs.is_empty() {
            // Booted: queue one packet behind each NIC interrupt.
            let nic = k.nic_device_id().expect("booted by the first deadline");
            for &(us, v) in &s.nic_irqs {
                let dev = m.vm_mut().io.device_mut(nic).as_any().downcast_mut::<NicDevice>();
                dev.expect("the NIC").push_rx(1_500);
                let due = SimTime::from_micros(us);
                m.vm_mut().schedule_irq(due, VcpuId(v % s.vcpus), NIC_IRQ_VECTOR);
            }
        }
        let mut kernel_bytes = SnapWriter::new();
        k.save_state(&mut kernel_bytes).expect("scripted programs save");
        let mut vm_bytes = SnapWriter::new();
        m.vm().save_state(&mut vm_bytes);
        steps_at.push(steps.len());
        boundaries.push(Boundary {
            exit,
            ops: log.borrow().len(),
            exit_stats: m.vm().stats().clone(),
            kernel_stats: k.stats().clone(),
            kernel_bytes: kernel_bytes.into_bytes(),
            vm_bytes: vm_bytes.into_bytes(),
        });
    }
    let (_, hv) = m.into_parts();
    let ops = log.borrow().clone();
    Run { ops, steps, exits: hv.exits, fires: hv.fires, boundaries, steps_at }
}

/// `Compute(n)` ops with `n > 0` among `ops`: the steps the fold saves.
fn folded(ops: &[(u64, SimTime, UserOp)]) -> usize {
    ops.iter().filter(|(_, _, op)| matches!(op, UserOp::Compute(n) if *n > 0)).count()
}

/// The first deadline of every generated run, µs: the kernel has booted.
const BOOT_US: u64 = 100;

/// The end of every generated run, µs: past the daemons' first wake-ups.
const END_US: u64 = 80_000;

fn ops_strategy(max: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..10, 0u64..1_000_000), 1..max)
}

proptest! {
    /// On booted kernels with 1–4 vCPUs, the folded and the two-step
    /// `Compute` op show the same ops at the same clocks, the same exits
    /// and timer firings, and at every `run_until` boundary the same
    /// `RunExit`, `ExitStats`, `KernelStats` and kernel and VM snapshot
    /// bytes; the fold takes one step fewer per `Compute(n > 0)`.
    #[test]
    fn folded_compute_matches_two_step_compute(
        vcpus in 1usize..5,
        init in ops_strategy(8),
        children in prop::collection::vec(ops_strategy(10), 0..4),
        rounds in 1usize..6,
        host_timer in (0u8..2, 100u64..5_000),
        nic_irqs in prop::collection::vec((BOOT_US..END_US, 0usize..4), 0..6),
        cuts in prop::collection::vec(BOOT_US..END_US, 0..4),
    ) {
        let decode = |ops: Vec<(u8, u64)>| ops.into_iter().map(|(k, a)| op(k, a)).collect();
        let mut deadlines: Vec<SimTime> =
            [BOOT_US].iter().chain(&cuts).map(|&c| SimTime::from_micros(c)).collect();
        deadlines.sort();
        deadlines.push(SimTime::from_micros(END_US));
        let s = Scenario {
            vcpus,
            tick: Duration::from_millis(1),
            rounds,
            init: decode(init),
            children: children.into_iter().map(decode).collect(),
            host_timer_us: (host_timer.0 == 1).then_some(host_timer.1),
            nic_irqs,
            deadlines,
        };
        let (fold, two) = (drive(&s, false), drive(&s, true));
        prop_assert!(fold.ops == two.ops, "ops diverge for {s:?}");
        prop_assert!(fold.exits == two.exits, "exits diverge for {s:?}");
        prop_assert!(fold.fires == two.fires, "timer firings diverge for {s:?}");
        prop_assert!(fold.boundaries == two.boundaries, "boundaries diverge for {s:?}");
        for (b, (f, t)) in fold.boundaries.iter().zip(fold.steps_at.iter().zip(&two.steps_at)) {
            prop_assert_eq!(f + folded(&fold.ops[..b.ops]), *t);
        }
    }
}

/// A one-vCPU kernel whose init plays `ops`. The tick is 1 s, so nothing
/// interrupts the 20 ms run and every clock is exact.
fn single(ops: Vec<Op>, two_step: bool) -> Run {
    let s = Scenario {
        vcpus: 1,
        tick: Duration::from_secs(1),
        rounds: 1,
        init: ops,
        children: Vec::new(),
        host_timer_us: None,
        nic_irqs: Vec::new(),
        deadlines: vec![SimTime::from_millis(20)],
    };
    drive(&s, two_step)
}

/// The clocks, in ns after op `i` was asked for, at which the steps from
/// the one that asked for it up to the one that asks for op `i + 1` end.
fn op_step_ends(run: &Run, i: usize) -> Vec<u64> {
    let t0 = run.ops[i].1;
    run.steps.iter().filter(|s| s.ops == i + 1).map(|s| (s.after - t0).as_nanos()).collect()
}

/// Runs `Compute(n)` between two `getpid`s in both forms and checks the
/// folded form's step ends against `folded`. The two-step form ends one
/// more step at the op's own clock first (none more for `n == 0`), and
/// both ask for the next op exactly `n` ns after the compute op.
fn check_compute(n: u64, folded: &[u64]) {
    let script = vec![Op::Getpid, Op::Compute(n), Op::Getpid];
    let (fold, two) = (single(script.clone(), false), single(script, true));
    assert_eq!(fold.ops[1].2, UserOp::Compute(n));
    assert_eq!(op_step_ends(&fold, 1), folded, "Compute({n}), folded");
    let two_step = if n == 0 { vec![0] } else { [&[0], folded].concat() };
    assert_eq!(op_step_ends(&two, 1), two_step, "Compute({n}), two-step");
    assert_eq!(fold.ops[2].1, fold.ops[1].1 + Duration::from_nanos(n));
    assert!(fold.ops == two.ops && fold.boundaries == two.boundaries);
}

#[test]
fn compute_zero_charges_nothing_and_asks_again_at_the_same_clock() {
    check_compute(0, &[0]);
}

#[test]
fn compute_below_one_chunk_takes_one_step() {
    check_compute(CHUNK - 1, &[CHUNK - 1]);
}

#[test]
fn compute_of_exactly_one_chunk_takes_one_step() {
    check_compute(CHUNK, &[CHUNK]);
}

#[test]
fn compute_of_three_chunks_and_a_rest_takes_four_steps() {
    let r = 37_123;
    check_compute(3 * CHUNK + r, &[CHUNK, 2 * CHUNK, 3 * CHUNK, 3 * CHUNK + r]);
}

#[test]
fn a_task_killed_with_compute_pending_exits_at_the_two_step_clock() {
    // init spawns the victim (pid 4, after two daemons), computes 1 ms and
    // kills it. The victim asks for 2 ms of compute on vCPU 0 at 1 009 750
    // ns; init, on vCPU 1, asks to kill it at 1 172 510 ns, inside the
    // victim's first chunk. A task running on another vCPU can only be
    // marked (`kill_pending`), so the victim exits in its next step, at
    // the first chunk boundary, with 1.8 ms of compute still pending.
    let s = Scenario {
        vcpus: 2,
        tick: Duration::from_millis(1),
        rounds: 1,
        init: vec![Op::Compute(1_000_000), Op::Kill(0), Op::Sleep(50_000_000)],
        children: vec![vec![Op::Compute(10 * CHUNK)]],
        host_timer_us: None,
        nic_irqs: Vec::new(),
        deadlines: vec![SimTime::from_millis(30)],
    };
    let t0 = SimTime::from_nanos(1_009_750);
    let (fold, two) = (drive(&s, false), drive(&s, true));
    for run in [&fold, &two] {
        assert_eq!(run.ops[2], (4, t0, UserOp::Compute(10 * CHUNK)));
        assert_eq!(run.ops[3], (1, SimTime::from_nanos(1_172_510), UserOp::sys(Sysno::Kill, &[4])));
        let exit = run.steps.iter().find(|s| s.exits == 1).expect("the victim exits");
        assert_eq!((exit.vcpu, exit.before), (0, t0 + Duration::from_nanos(CHUNK)));
        assert_eq!(exit.after, SimTime::from_nanos(1_211_500));
    }
    assert!(fold.ops == two.ops && fold.boundaries == two.boundaries);
    assert_eq!(fold.steps.len() + folded(&fold.ops), two.steps.len());
}
