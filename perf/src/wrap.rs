//! Timing wrappers at each layer's public trait boundary.
//!
//! The benchmark never edits the program: it rebuilds the same stack with
//! its own implementations of `GuestProgram`, `InterceptEngine`, `Auditor`
//! and `EventTap` that delegate every call to the real object and record a
//! span around the calls the tracer samples. Name, `as_any*` and snapshot
//! state are delegated too, so `TapVm::auditor::<T>()`, `Kvm::engine_mut`
//! and the snapshot roster checks see the wrapped objects as the originals.
//!
//! The wrappers are generic over the wrapped type, so the delegated call
//! is static, and count calls in a [`Gate`] that is handed to the tracer
//! when the wrapper is dropped with its VM: the untimed path costs a
//! decrement and a branch.

use crate::trace::{self, Gate, STEP_EVERY};
use hypertap_core::audit::{Auditor, FindingSink};
use hypertap_core::em::{EventMultiplexer, EventTap};
use hypertap_core::event::{Event, EventKind, EventMask};
use hypertap_core::intercept::{
    FastSyscallEngine, FineGrainedEngine, IntSyscallEngine, InterceptEngine, IoEngine,
    ProcessSwitchEngine, Table1Row, ThreadSwitchEngine, TssIntegrityEngine,
};
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
use hypertap_hvsim::exit::{ExitAction, VmExit};
use hypertap_hvsim::machine::{GuestProgram, RunExit, VmState};
use hypertap_hvsim::snap::SnapError;
use hypertap_monitors::harness::TapVm;
use std::any::Any;

/// Deterministic sampler choosing which guest steps to sample: gaps
/// between samples are uniform in `1..2 * STEP_EVERY`, drawn from a
/// xorshift generator seeded by the benchmark seed.
#[derive(Debug, Clone)]
pub struct Sampler {
    state: u64,
    countdown: u64,
}

impl Sampler {
    /// A sampler whose choices are a pure function of `seed` and `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut s =
            Sampler { state: (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1, countdown: 0 };
        s.countdown = s.gap();
        s
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    fn gap(&mut self) -> u64 {
        1 + self.next() % (2 * STEP_EVERY - 1)
    }
}

/// The guest kernel as the run loop sees it: every sampled step is a step
/// sample or, half the time, a null probe followed by an untimed step.
struct TimedGuest<'a, G> {
    guest: &'a mut G,
    sampler: &'a mut Sampler,
    steps: u64,
}

impl<G: GuestProgram> GuestProgram for TimedGuest<'_, G> {
    fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
        self.steps += 1;
        self.sampler.countdown -= 1;
        if self.sampler.countdown > 0 {
            return self.guest.step(cpu);
        }
        self.sampler.countdown = self.sampler.gap();
        if self.sampler.next() & 1 == 0 {
            trace::step_sample(|| self.guest.step(cpu))
        } else {
            trace::null_probe();
            self.guest.step(cpu)
        }
    }
}

/// `TapVm::run_until` with the kernel behind the step wrapper, timed as one
/// `hvsim.run_until` span.
pub fn run_until(vm: &mut TapVm, sampler: &mut Sampler, deadline: SimTime) -> RunExit {
    let (exit, steps) = trace::span(trace::RUN_UNTIL, || {
        let mut guest = TimedGuest { guest: &mut vm.kernel, sampler, steps: 0 };
        let exit = vm.machine.run_until(&mut guest, deadline);
        (exit, guest.steps)
    });
    trace::add_calls(trace::STEP, steps);
    exit
}

/// An interception engine whose `on_exit` calls are counted and sampled.
pub struct TimedEngine<E: InterceptEngine> {
    inner: E,
    layer: usize,
    gate: Gate,
}

impl<E: InterceptEngine> TimedEngine<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        let layer = trace::engine_layer(inner.name());
        TimedEngine { inner, layer, gate: Gate::default() }
    }
}

impl<E: InterceptEngine> Drop for TimedEngine<E> {
    fn drop(&mut self) {
        trace::add_calls(self.layer, self.gate.calls());
    }
}

impl<E: InterceptEngine> InterceptEngine for TimedEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn table1_rows(&self) -> &'static [Table1Row] {
        self.inner.table1_rows()
    }

    fn enable(&mut self, vm: &mut VmState) {
        self.inner.enable(vm);
    }

    fn disable(&mut self, vm: &mut VmState) {
        self.inner.disable(vm);
    }

    fn on_exit(
        &mut self,
        vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction {
        if self.gate.pass() {
            return self.inner.on_exit(vm, exit, emit);
        }
        let inner = &mut self.inner;
        self.gate.run(self.layer, || inner.on_exit(vm, exit, emit))
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.inner.restore_state(bytes)
    }
}

/// An auditor whose `on_event` and `on_tick` calls are counted and
/// sampled.
pub struct TimedAuditor<A: Auditor> {
    inner: A,
    event_layer: usize,
    tick_layer: usize,
    events: Gate,
    ticks: Gate,
}

impl<A: Auditor> Drop for TimedAuditor<A> {
    fn drop(&mut self) {
        trace::add_calls(self.event_layer, self.events.calls());
        trace::add_calls(self.tick_layer, self.ticks.calls());
    }
}

/// Boxes `inner` behind a [`TimedAuditor`]. In a `replay`, its events
/// count as `em.replay.audit` instead of its own layer.
pub fn timed_auditor<A: Auditor + 'static>(inner: A, replay: bool) -> Box<dyn Auditor> {
    let slot = trace::auditor_slot(inner.name());
    let event_layer = if replay { trace::REPLAY_AUDIT } else { trace::AUDIT_EVENT0 + slot };
    let tick_layer = trace::AUDIT_TICK0 + slot;
    Box::new(TimedAuditor {
        inner,
        event_layer,
        tick_layer,
        events: Gate::default(),
        ticks: Gate::default(),
    })
}

impl<A: Auditor> Auditor for TimedAuditor<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn subscriptions(&self) -> EventMask {
        self.inner.subscriptions()
    }

    fn on_event(&mut self, vm: &mut VmState, event: &Event, sink: &mut dyn FindingSink) {
        if self.events.pass() {
            return self.inner.on_event(vm, event, sink);
        }
        let inner = &mut self.inner;
        self.events.run(self.event_layer, || inner.on_event(vm, event, sink));
    }

    fn on_tick(&mut self, vm: &mut VmState, now: SimTime, sink: &mut dyn FindingSink) {
        if self.ticks.pass() {
            return self.inner.on_tick(vm, now, sink);
        }
        let inner = &mut self.inner;
        self.ticks.run(self.tick_layer, || inner.on_tick(vm, now, sink));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.inner.restore_state(bytes)
    }
}

/// An event tap (the trace recorder) whose calls are counted and sampled.
pub struct TimedTap {
    inner: Box<dyn EventTap>,
    events: Gate,
    ticks: Gate,
}

impl TimedTap {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn EventTap>) -> Self {
        TimedTap { inner, events: Gate::default(), ticks: Gate::default() }
    }
}

impl Drop for TimedTap {
    fn drop(&mut self) {
        trace::add_calls(trace::RECORD_EVENT, self.events.calls());
        trace::add_calls(trace::RECORD_TICK, self.ticks.calls());
    }
}

impl EventTap for TimedTap {
    fn on_event(&mut self, event: &Event) {
        if self.events.pass() {
            return self.inner.on_event(event);
        }
        let inner = &mut self.inner;
        self.events.run(trace::RECORD_EVENT, || inner.on_event(event));
    }

    fn on_tick(&mut self, now: SimTime) {
        if self.ticks.pass() {
            return self.inner.on_tick(now);
        }
        let inner = &mut self.inner;
        self.ticks.run(trace::RECORD_TICK, || inner.on_tick(now));
    }
}

/// A fresh engine of the kind an installed engine's name identifies,
/// behind a [`TimedEngine`].
fn timed_engine(name: &str) -> Box<dyn InterceptEngine> {
    match name {
        "process-switch" => Box::new(TimedEngine::new(ProcessSwitchEngine::new())),
        "thread-switch" => Box::new(TimedEngine::new(ThreadSwitchEngine::new())),
        "tss-integrity" => Box::new(TimedEngine::new(TssIntegrityEngine::new())),
        "int-syscall" => Box::new(TimedEngine::new(IntSyscallEngine::new())),
        "fast-syscall" => Box::new(TimedEngine::new(FastSyscallEngine::new())),
        "io-access" => Box::new(TimedEngine::new(IoEngine::new())),
        "fine-grained" => Box::new(TimedEngine::new(FineGrainedEngine::new())),
        other => panic!("no recipe for interception engine '{other}'"),
    }
}

/// Puts a freshly built, never-run VM behind the wrappers: uninstalls its
/// engines and reinstalls fresh ones of the same kinds, in the same order,
/// inside [`TimedEngine`]s, then swaps in a fresh Event Multiplexer with
/// `auditors` registered — the VM recipe's roster, in recipe order, each
/// already behind [`timed_auditor`].
pub fn instrument(vm: &mut TapVm, auditors: Vec<Box<dyn Auditor>>) {
    let (state, kvm) = vm.machine.parts_mut();
    let names = kvm.engine_names();
    for name in &names {
        assert!(kvm.uninstall(state, name), "engine '{name}' is installed");
    }
    for name in names {
        kvm.install(state, timed_engine(name));
    }
    kvm.em = EventMultiplexer::new();
    for a in auditors {
        kvm.em.register(a);
    }
}
