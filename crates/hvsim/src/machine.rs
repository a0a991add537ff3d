//! The virtual machine: state container, hypervisor trait and run loop.
//!
//! A [`Machine`] pairs one VM's state ([`VmState`]) with a [`Hypervisor`]
//! implementation (in the HyperTap stack, the KVM model carrying the Event
//! Forwarder). Guest software is supplied as a [`GuestProgram`] and driven by
//! the deterministic run loop: at every iteration the vCPU with the smallest
//! local clock executes one bounded step, giving a conservative discrete-
//! event interleaving of multiprocessor guests.

use crate::clock::{Duration, SimTime};
use crate::cost::CostModel;
use crate::cpu::{CpuCtx, StepOutcome};
use crate::device::IoBus;
use crate::ept::{Ept, EptPerm};
use crate::exit::{ExitAction, ExitControls, ExitStats, VmExit};
use crate::mem::{Gpa, GuestMemory, Gva};
use crate::paging::{self, PageFault};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::tlb::{Tlb, TlbStats};
use crate::vcpu::{Vcpu, VcpuId};
use std::collections::BinaryHeap;

/// Lifecycle of a virtual machine.
///
/// The run loop honours the state machine `Uninit → Running ⇄ Paused →
/// Stopped`: a freshly built VM is `Uninit` until first stepped, `pause`/
/// `resume` toggle between `Paused` and `Running`, and `Stopped` is
/// terminal. Snapshots capture the lifecycle so a restored VM resumes in
/// exactly the phase it was captured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VmLifecycle {
    /// Built but never stepped.
    #[default]
    Uninit,
    /// Actively runnable.
    Running,
    /// Paused by the hypervisor or an auditor; `resume` re-enables running.
    Paused,
    /// Shut down; the run loop will not step the guest again.
    Stopped,
}

impl VmLifecycle {
    fn to_tag(self) -> u8 {
        match self {
            VmLifecycle::Uninit => 0,
            VmLifecycle::Running => 1,
            VmLifecycle::Paused => 2,
            VmLifecycle::Stopped => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<VmLifecycle> {
        Some(match tag {
            0 => VmLifecycle::Uninit,
            1 => VmLifecycle::Running,
            2 => VmLifecycle::Paused,
            3 => VmLifecycle::Stopped,
            _ => return None,
        })
    }
}

/// Identifier of a recurring host timer registered on a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) usize);

#[derive(Debug, Clone)]
struct HostTimer {
    period: Duration,
    next_due: SimTime,
    cancelled: bool,
}

/// A scheduled external interrupt (e.g. a network packet arrival generated
/// by a load source outside the VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScheduledIrq {
    due: SimTime,
    vcpu: VcpuId,
    vector: u8,
}

impl PartialOrd for ScheduledIrq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledIrq {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.vcpu.cmp(&self.vcpu))
            .then_with(|| other.vector.cmp(&self.vector))
    }
}

/// Per-vCPU local APIC timer programmed by the guest.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ApicTimer {
    pub(crate) period: Option<Duration>,
    pub(crate) next_due: SimTime,
}

/// Configuration for building a VM.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Number of virtual CPUs.
    pub vcpus: usize,
    /// Guest-physical memory size in bytes.
    pub memory: u64,
    /// Cost model for guest operations and exits.
    pub cost: CostModel,
    /// Whether the per-vCPU software TLB caches translations (on by
    /// default). Purely a host-side optimisation: simulated behaviour is
    /// identical either way (see [`crate::tlb`]).
    pub tlb_enabled: bool,
}

impl VmConfig {
    /// A VM with the calibrated cost model.
    pub fn new(vcpus: usize, memory: u64) -> Self {
        VmConfig { vcpus, memory, cost: CostModel::calibrated(), tlb_enabled: true }
    }

    /// Replaces the cost model (builder style).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enables or disables the software TLB (builder style).
    pub fn with_tlb(mut self, enabled: bool) -> Self {
        self.tlb_enabled = enabled;
        self
    }
}

/// All mutable state of one virtual machine, as visible to the hypervisor.
#[derive(Debug)]
pub struct VmState {
    /// Guest-physical memory.
    pub mem: GuestMemory,
    /// Extended page tables.
    pub ept: Ept,
    /// I/O devices.
    pub io: IoBus,
    vcpus: Vec<Vcpu>,
    controls: ExitControls,
    cost: CostModel,
    stats: ExitStats,
    lifecycle: VmLifecycle,
    timers: Vec<HostTimer>,
    irq_schedule: BinaryHeap<ScheduledIrq>,
    pub(crate) apic_timers: Vec<ApicTimer>,
    tlbs: Vec<Tlb>,
    tlb_enabled: bool,
}

impl VmState {
    fn new(config: &VmConfig) -> Self {
        assert!(config.vcpus > 0, "a VM needs at least one vCPU");
        VmState {
            mem: GuestMemory::new(config.memory),
            ept: Ept::new(),
            io: IoBus::new(),
            vcpus: (0..config.vcpus).map(|i| Vcpu::new(VcpuId(i))).collect(),
            controls: ExitControls::new(),
            cost: config.cost.clone(),
            stats: ExitStats::new(),
            lifecycle: VmLifecycle::Uninit,
            timers: Vec::new(),
            irq_schedule: BinaryHeap::new(),
            apic_timers: vec![ApicTimer::default(); config.vcpus],
            tlbs: (0..config.vcpus).map(|_| Tlb::new()).collect(),
            tlb_enabled: config.tlb_enabled,
        }
    }

    /// Number of vCPUs.
    pub fn vcpu_count(&self) -> usize {
        self.vcpus.len()
    }

    /// Read access to a vCPU's architectural state.
    pub fn vcpu(&self, id: VcpuId) -> &Vcpu {
        &self.vcpus[id.0]
    }

    /// Mutable access to a vCPU (host side, e.g. for boot-state setup).
    pub fn vcpu_mut(&mut self, id: VcpuId) -> &mut Vcpu {
        &mut self.vcpus[id.0]
    }

    /// Iterates over all vCPUs.
    pub fn vcpus(&self) -> impl Iterator<Item = &Vcpu> {
        self.vcpus.iter()
    }

    /// The VM's exit controls.
    pub fn controls(&self) -> &ExitControls {
        &self.controls
    }

    /// Mutable exit controls (hypervisor programming).
    pub fn controls_mut(&mut self) -> &mut ExitControls {
        &mut self.controls
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Exit statistics accumulated so far.
    pub fn stats(&self) -> &ExitStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut ExitStats {
        &mut self.stats
    }

    /// Whether the software TLB is in use.
    pub fn tlb_enabled(&self) -> bool {
        self.tlb_enabled
    }

    /// TLB counters aggregated across all vCPUs (all zero when disabled).
    pub fn tlb_stats(&self) -> TlbStats {
        let mut total = TlbStats::default();
        for t in &self.tlbs {
            total.merge(&t.stats());
        }
        total
    }

    /// Translates `gva` for `vcpu` under its current CR3, through the
    /// vCPU's TLB when enabled, and returns the guest-physical address with
    /// the frame's current EPT permission. The MMU's hot path.
    #[inline]
    pub(crate) fn translate_for(
        &mut self,
        vcpu: VcpuId,
        gva: Gva,
    ) -> Result<(Gpa, EptPerm), PageFault> {
        let cr3 = self.vcpus[vcpu.0].cr3();
        if self.tlb_enabled {
            self.tlbs[vcpu.0].translate(&mut self.mem, &self.ept, cr3, gva)
        } else {
            let gpa = paging::walk(&self.mem, cr3, gva)?;
            Ok((gpa, self.ept.perm(gpa.gfn())))
        }
    }

    /// Flushes `vcpu`'s TLB (called on CR3 loads).
    pub(crate) fn flush_tlb(&mut self, vcpu: VcpuId) {
        if self.tlb_enabled {
            self.tlbs[vcpu.0].flush();
        }
    }

    /// The earliest vCPU clock — the VM's conservative notion of "now".
    pub fn now(&self) -> SimTime {
        self.vcpus.iter().map(|v| v.clock).min().unwrap_or(SimTime::ZERO)
    }

    /// The VM's current lifecycle phase.
    pub fn lifecycle(&self) -> VmLifecycle {
        self.lifecycle
    }

    /// Pauses the VM: the run loop returns [`RunExit::Paused`] before the
    /// next guest step. Auditors use this to stop a VM during an attack.
    /// Ignored once the VM is stopped (shutdown is terminal).
    pub fn pause(&mut self) {
        if self.lifecycle != VmLifecycle::Stopped {
            self.lifecycle = VmLifecycle::Paused;
        }
    }

    /// Clears a pause request.
    pub fn resume(&mut self) {
        if self.lifecycle == VmLifecycle::Paused {
            self.lifecycle = VmLifecycle::Running;
        }
    }

    /// Whether a pause has been requested.
    pub fn is_paused(&self) -> bool {
        self.lifecycle == VmLifecycle::Paused
    }

    /// Requests an orderly shutdown of the run loop.
    pub fn request_shutdown(&mut self) {
        self.lifecycle = VmLifecycle::Stopped;
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.lifecycle == VmLifecycle::Stopped
    }

    /// Registers a recurring host-side timer; the hypervisor's
    /// [`Hypervisor::on_timer`] fires every `period`, first at
    /// `now + period`. Host timers model work the monitoring stack does off
    /// the guest's back (polling auditors, watchdog checks); they consume no
    /// guest time.
    pub fn register_host_timer(&mut self, period: Duration) -> TimerId {
        assert!(period > Duration::ZERO, "timer period must be positive");
        let id = TimerId(self.timers.len());
        let next_due = self.now() + period;
        self.timers.push(HostTimer { period, next_due, cancelled: false });
        id
    }

    /// Cancels a recurring host timer.
    pub fn cancel_host_timer(&mut self, id: TimerId) {
        self.timers[id.0].cancelled = true;
    }

    /// Schedules an external interrupt (e.g. an I/O completion or a network
    /// packet from an external load generator) for delivery to `vcpu` at
    /// simulated time `due`.
    pub fn schedule_irq(&mut self, due: SimTime, vcpu: VcpuId, vector: u8) {
        self.irq_schedule.push(ScheduledIrq { due, vcpu, vector });
    }

    /// Queues an interrupt for immediate delivery to `vcpu` (it is taken at
    /// the vCPU's next interrupt poll, provided interrupts are enabled).
    /// A halted vCPU wakes only if it can actually take the interrupt —
    /// `HLT` with interrupts disabled deadlocks the CPU, exactly as on
    /// hardware.
    pub fn inject_irq(&mut self, vcpu: VcpuId, vector: u8) {
        let v = &mut self.vcpus[vcpu.0];
        v.pending_irqs.push(vector);
        if v.interrupts_enabled {
            v.halted = false;
        }
    }

    /// The earliest pending wake-up event (host timer, APIC timer or
    /// scheduled IRQ), if any.
    fn next_event_time(&self) -> Option<SimTime> {
        let timer = self.timers.iter().filter(|t| !t.cancelled).map(|t| t.next_due).min();
        let apic = self.apic_timers.iter().filter(|t| t.period.is_some()).map(|t| t.next_due).min();
        let irq = self.irq_schedule.peek().map(|s| s.due);
        [timer, apic, irq].into_iter().flatten().min()
    }

    fn deliver_due_irqs(&mut self, now: SimTime) {
        while let Some(s) = self.irq_schedule.peek() {
            if s.due > now {
                break;
            }
            let s = self.irq_schedule.pop().expect("peeked");
            self.inject_irq(s.vcpu, s.vector);
        }
    }

    fn fire_due_apic_timers(&mut self, now: SimTime) {
        for i in 0..self.apic_timers.len() {
            let Some(period) = self.apic_timers[i].period else { continue };
            while self.apic_timers[i].next_due <= now {
                let due = self.apic_timers[i].next_due;
                self.apic_timers[i].next_due = due + period;
                // Vector 0x20: the conventional timer interrupt.
                self.inject_irq(VcpuId(i), 0x20);
            }
        }
    }

    /// Serializes everything the machine layer owns: lifecycle, memory, EPT,
    /// device state, vCPUs, exit controls/statistics, host and APIC timers,
    /// the IRQ schedule, and the per-vCPU TLBs. The cost model and device
    /// topology are recipe state and are not captured — a restore target is
    /// rebuilt from the same recipe first.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.byte(self.lifecycle.to_tag());
        self.mem.save(w);
        self.ept.save(w);
        self.io.save_devices(w);
        w.varint(self.vcpus.len() as u64);
        for v in &self.vcpus {
            v.save(w);
        }
        self.controls.save(w);
        self.stats.save(w);
        w.varint(self.timers.len() as u64);
        for t in &self.timers {
            w.varint(t.period.as_nanos());
            w.varint(t.next_due.as_nanos());
            w.boolean(t.cancelled);
        }
        // The heap pops in (due, vcpu, vector) order; serializing that order
        // keeps the encoding canonical.
        let mut irqs: Vec<ScheduledIrq> = self.irq_schedule.iter().copied().collect();
        irqs.sort_by_key(|s| (s.due, s.vcpu, s.vector));
        w.varint(irqs.len() as u64);
        for s in irqs {
            w.varint(s.due.as_nanos());
            w.varint(s.vcpu.0 as u64);
            w.byte(s.vector);
        }
        w.varint(self.apic_timers.len() as u64);
        for t in &self.apic_timers {
            w.opt_varint(t.period.map(|p| p.as_nanos()));
            w.varint(t.next_due.as_nanos());
        }
        w.boolean(self.tlb_enabled);
        for t in &self.tlbs {
            t.save(w);
        }
    }

    /// Restores state saved by [`VmState::save_state`] into a VM built from
    /// the same recipe (vCPU count, memory size, TLB setting and registered
    /// devices must match).
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] on malformed input or a recipe
    /// mismatch; the VM may be partially overwritten in that case and should
    /// be discarded.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let off = r.offset();
        self.lifecycle = VmLifecycle::from_tag(r.byte()?)
            .ok_or(SnapError::BadValue { offset: off, what: "lifecycle" })?;
        self.mem.load(r)?;
        self.ept.load(r)?;
        self.io.load_devices(r)?;
        let off = r.offset();
        let nvcpus = r.varint()? as usize;
        if nvcpus != self.vcpus.len() {
            return Err(SnapError::BadValue { offset: off, what: "vcpu count" });
        }
        for v in &mut self.vcpus {
            v.load(r)?;
        }
        self.controls.load(r)?;
        self.stats.load(r)?;
        let ntimers = r.count(1 << 20, "host timer count")?;
        self.timers.clear();
        for _ in 0..ntimers {
            let off = r.offset();
            let period = Duration::from_nanos(r.varint()?);
            if period == Duration::ZERO {
                return Err(SnapError::BadValue { offset: off, what: "timer period" });
            }
            let next_due = SimTime::from_nanos(r.varint()?);
            let cancelled = r.boolean()?;
            self.timers.push(HostTimer { period, next_due, cancelled });
        }
        let nirqs = r.count(1 << 24, "scheduled irq count")?;
        self.irq_schedule.clear();
        for _ in 0..nirqs {
            let due = SimTime::from_nanos(r.varint()?);
            let off = r.offset();
            let vcpu = r.varint()? as usize;
            if vcpu >= self.vcpus.len() {
                return Err(SnapError::BadValue { offset: off, what: "irq vcpu" });
            }
            let vector = r.byte()?;
            self.irq_schedule.push(ScheduledIrq { due, vcpu: VcpuId(vcpu), vector });
        }
        let off = r.offset();
        let napic = r.varint()? as usize;
        if napic != self.apic_timers.len() {
            return Err(SnapError::BadValue { offset: off, what: "apic timer count" });
        }
        for t in &mut self.apic_timers {
            t.period = r.opt_varint()?.map(Duration::from_nanos);
            t.next_due = SimTime::from_nanos(r.varint()?);
        }
        let off = r.offset();
        let tlb_enabled = r.boolean()?;
        if tlb_enabled != self.tlb_enabled {
            return Err(SnapError::BadValue { offset: off, what: "tlb setting" });
        }
        for t in &mut self.tlbs {
            t.load(r)?;
        }
        Ok(())
    }
}

/// The host-side handler for VM Exits — in the HyperTap stack, the KVM model
/// with the Event Forwarder compiled in.
pub trait Hypervisor {
    /// Handles one VM Exit. Returning [`ExitAction::Suppress`] prevents the
    /// exiting operation's architectural effect.
    fn handle_exit(&mut self, vm: &mut VmState, exit: &VmExit) -> ExitAction;

    /// Fires when a registered host timer elapses.
    fn on_timer(&mut self, _vm: &mut VmState, _timer: TimerId, _now: SimTime) {}
}

/// Guest software: steps one vCPU at a time under the run loop's direction.
pub trait GuestProgram {
    /// Executes a bounded burst of work on the vCPU selected by
    /// `cpu.vcpu_id()`. Implementations must keep each step short (at most a
    /// scheduler quantum) so vCPU clocks stay interleaved.
    fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome;
}

/// Why the run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunExit {
    /// The requested deadline was reached.
    Deadline,
    /// The VM was paused by the hypervisor or an auditor.
    Paused,
    /// The guest (or an auditor) requested shutdown.
    Shutdown,
    /// Every vCPU is halted and no timers or interrupts are pending.
    AllIdle,
}

/// A virtual machine bound to its hypervisor.
#[derive(Debug)]
pub struct Machine<H> {
    vm: VmState,
    hv: H,
}

impl<H: Hypervisor> Machine<H> {
    /// Builds a machine from a config and a hypervisor.
    pub fn new(config: VmConfig, hypervisor: H) -> Self {
        Machine { vm: VmState::new(&config), hv: hypervisor }
    }

    /// The VM state.
    pub fn vm(&self) -> &VmState {
        &self.vm
    }

    /// Mutable VM state.
    pub fn vm_mut(&mut self) -> &mut VmState {
        &mut self.vm
    }

    /// The hypervisor.
    pub fn hypervisor(&self) -> &H {
        &self.hv
    }

    /// Mutable hypervisor.
    pub fn hypervisor_mut(&mut self) -> &mut H {
        &mut self.hv
    }

    /// Splits the machine into VM state and hypervisor (both mutable), for
    /// host-side code that needs to thread them separately.
    pub fn parts_mut(&mut self) -> (&mut VmState, &mut H) {
        (&mut self.vm, &mut self.hv)
    }

    /// Consumes the machine, returning its parts.
    pub fn into_parts(self) -> (VmState, H) {
        (self.vm, self.hv)
    }

    fn fire_due_host_timers(&mut self, now: SimTime) {
        for i in 0..self.vm.timers.len() {
            loop {
                let t = &self.vm.timers[i];
                if t.cancelled || t.next_due > now {
                    break;
                }
                let due = t.next_due;
                let period = t.period;
                self.vm.timers[i].next_due = due + period;
                self.hv.on_timer(&mut self.vm, TimerId(i), due);
            }
        }
    }

    /// Runs the guest until `deadline` (exclusive) or an earlier stop cause.
    pub fn run_until(&mut self, guest: &mut dyn GuestProgram, deadline: SimTime) -> RunExit {
        loop {
            match self.vm.lifecycle {
                VmLifecycle::Stopped => return RunExit::Shutdown,
                VmLifecycle::Paused => return RunExit::Paused,
                VmLifecycle::Uninit => self.vm.lifecycle = VmLifecycle::Running,
                VmLifecycle::Running => {}
            }
            // Pick the vCPU with the smallest local clock.
            let vcpu_id = self
                .vm
                .vcpus
                .iter()
                .min_by_key(|v| (v.clock, v.id().0))
                .map(|v| v.id())
                .expect("at least one vCPU");
            let now = self.vm.vcpus[vcpu_id.0].clock;
            if now >= deadline {
                return RunExit::Deadline;
            }

            self.fire_due_host_timers(now);
            self.vm.fire_due_apic_timers(now);
            self.vm.deliver_due_irqs(now);
            match self.vm.lifecycle {
                VmLifecycle::Stopped => return RunExit::Shutdown,
                VmLifecycle::Paused => return RunExit::Paused,
                VmLifecycle::Uninit | VmLifecycle::Running => {}
            }

            if self.vm.vcpus[vcpu_id.0].halted {
                // Skip idle time to the next wake-up event.
                match self.vm.next_event_time() {
                    Some(t) => {
                        let target = t.max(now).min(deadline);
                        if target == now && t <= now {
                            // An event at `now` was just delivered; re-check halt.
                            if self.vm.vcpus[vcpu_id.0].halted {
                                // Nothing woke this vCPU; let another run.
                                self.vm.vcpus[vcpu_id.0].clock = now + Duration::from_nanos(1);
                            }
                            continue;
                        }
                        self.vm.vcpus[vcpu_id.0].clock = target;
                        continue;
                    }
                    None => {
                        // No future events can wake anyone.
                        if self.vm.vcpus.iter().all(|v| v.halted) {
                            return RunExit::AllIdle;
                        }
                        self.vm.vcpus[vcpu_id.0].clock = deadline;
                        continue;
                    }
                }
            }

            let mut cpu = CpuCtx::new(&mut self.vm, &mut self.hv, vcpu_id);
            match guest.step(&mut cpu) {
                StepOutcome::Continue => {}
                StepOutcome::Shutdown => {
                    self.vm.lifecycle = VmLifecycle::Stopped;
                    return RunExit::Shutdown;
                }
            }
        }
    }

    /// Runs exactly `n` guest steps (testing convenience; ignores halts and
    /// pauses, always stepping the earliest-clock vCPU).
    pub fn run_steps(&mut self, guest: &mut dyn GuestProgram, n: usize) {
        if self.vm.lifecycle == VmLifecycle::Uninit {
            self.vm.lifecycle = VmLifecycle::Running;
        }
        for _ in 0..n {
            let vcpu_id = self
                .vm
                .vcpus
                .iter()
                .min_by_key(|v| (v.clock, v.id().0))
                .map(|v| v.id())
                .expect("at least one vCPU");
            let mut cpu = CpuCtx::new(&mut self.vm, &mut self.hv, vcpu_id);
            if guest.step(&mut cpu) == StepOutcome::Shutdown {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exit::{ExitReason, VmExitKind};
    use crate::mem::Gpa;

    /// Hypervisor that records exits and timer firings.
    #[derive(Debug, Default)]
    struct Recorder {
        exits: Vec<VmExitKind>,
        timer_fires: Vec<SimTime>,
    }

    impl Hypervisor for Recorder {
        fn handle_exit(&mut self, _vm: &mut VmState, exit: &VmExit) -> ExitAction {
            self.exits.push(exit.kind);
            ExitAction::Resume
        }
        fn on_timer(&mut self, _vm: &mut VmState, _timer: TimerId, now: SimTime) {
            self.timer_fires.push(now);
        }
    }

    /// Guest that just burns compute time.
    struct Burner;
    impl GuestProgram for Burner {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            cpu.compute(1_000); // 1 µs at calibrated cost
            StepOutcome::Continue
        }
    }

    #[test]
    fn run_until_reaches_deadline() {
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Recorder::default());
        let r = m.run_until(&mut Burner, SimTime::from_micros(100));
        assert_eq!(r, RunExit::Deadline);
        assert!(m.vm().now() >= SimTime::from_micros(100));
    }

    #[test]
    fn vcpus_interleave_by_clock() {
        struct Tagger {
            order: Vec<usize>,
        }
        impl GuestProgram for Tagger {
            fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
                self.order.push(cpu.vcpu_id().0);
                // vCPU 0 runs long steps, vCPU 1 short ones.
                cpu.compute(if cpu.vcpu_id().0 == 0 { 3_000 } else { 1_000 });
                StepOutcome::Continue
            }
        }
        let mut m = Machine::new(VmConfig::new(2, 1 << 20), Recorder::default());
        let mut g = Tagger { order: Vec::new() };
        m.run_steps(&mut g, 8);
        // vCPU 1 must step roughly 3x as often as vCPU 0.
        let c0 = g.order.iter().filter(|&&v| v == 0).count();
        let c1 = g.order.iter().filter(|&&v| v == 1).count();
        assert!(c1 > c0, "faster-stepping vCPU runs more often: {c0} vs {c1}");
    }

    #[test]
    fn host_timer_fires_periodically() {
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Recorder::default());
        m.vm_mut().register_host_timer(Duration::from_micros(10));
        m.run_until(&mut Burner, SimTime::from_micros(100));
        let fires = &m.hypervisor().timer_fires;
        assert!(fires.len() >= 9, "expected ~10 firings, got {}", fires.len());
        assert_eq!(fires[0], SimTime::from_micros(10));
        assert_eq!(fires[1], SimTime::from_micros(20));
    }

    #[test]
    fn pause_stops_the_loop() {
        struct PauseSelf;
        impl GuestProgram for PauseSelf {
            fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
                cpu.compute(100);
                cpu.vm_mut().pause();
                StepOutcome::Continue
            }
        }
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Recorder::default());
        let r = m.run_until(&mut PauseSelf, SimTime::from_secs(1));
        assert_eq!(r, RunExit::Paused);
        m.vm_mut().resume();
        let r = m.run_until(&mut PauseSelf, SimTime::from_secs(1));
        assert_eq!(r, RunExit::Paused);
    }

    #[test]
    fn halted_vcpu_skips_to_next_event_and_wakes_on_irq() {
        struct HaltThenCount {
            wakes: usize,
        }
        impl GuestProgram for HaltThenCount {
            fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
                if cpu.poll_interrupt().is_some() {
                    self.wakes += 1;
                }
                cpu.hlt();
                StepOutcome::Continue
            }
        }
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Recorder::default());
        m.vm_mut().schedule_irq(SimTime::from_millis(5), VcpuId(0), 0x21);
        let mut g = HaltThenCount { wakes: 0 };
        let r = m.run_until(&mut g, SimTime::from_millis(100));
        assert_eq!(r, RunExit::AllIdle);
        assert_eq!(g.wakes, 1);
        assert!(m.vm().now() >= SimTime::from_millis(5));
    }

    #[test]
    fn all_idle_when_nothing_pending() {
        struct HaltNow;
        impl GuestProgram for HaltNow {
            fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
                cpu.hlt();
                StepOutcome::Continue
            }
        }
        let mut m = Machine::new(VmConfig::new(2, 1 << 20), Recorder::default());
        let r = m.run_until(&mut HaltNow, SimTime::from_secs(1));
        assert_eq!(r, RunExit::AllIdle);
    }

    #[test]
    fn shutdown_from_guest() {
        struct Quit;
        impl GuestProgram for Quit {
            fn step(&mut self, _cpu: &mut CpuCtx<'_>) -> StepOutcome {
                StepOutcome::Shutdown
            }
        }
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Recorder::default());
        assert_eq!(m.run_until(&mut Quit, SimTime::from_secs(1)), RunExit::Shutdown);
        assert!(m.vm().shutdown_requested());
    }

    #[test]
    fn scheduled_irq_is_delivered_in_order() {
        let mut vm = VmState::new(&VmConfig::new(1, 1 << 20));
        vm.schedule_irq(SimTime::from_millis(2), VcpuId(0), 2);
        vm.schedule_irq(SimTime::from_millis(1), VcpuId(0), 1);
        vm.deliver_due_irqs(SimTime::from_millis(1));
        assert_eq!(vm.vcpu(VcpuId(0)).pending_irqs, vec![1]);
        vm.deliver_due_irqs(SimTime::from_millis(2));
        assert_eq!(vm.vcpu(VcpuId(0)).pending_irqs, vec![1, 2]);
    }

    #[test]
    fn exit_cost_advances_guest_clock() {
        struct Cr3Writer;
        impl GuestProgram for Cr3Writer {
            fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
                cpu.write_cr3(Gpa::new(0x1000));
                StepOutcome::Continue
            }
        }
        // Without CR3 exiting: only the register-op cost.
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Recorder::default());
        m.run_steps(&mut Cr3Writer, 1);
        let quiet = m.vm().now();
        // With CR3 exiting: the exit cost is added.
        let mut m2 = Machine::new(VmConfig::new(1, 1 << 20), Recorder::default());
        m2.vm_mut().controls_mut().set_cr3_load_exiting(true);
        m2.run_steps(&mut Cr3Writer, 1);
        assert!(m2.vm().now() > quiet);
        assert_eq!(m2.hypervisor().exits.len(), 1);
        assert_eq!(m2.vm().stats().count(ExitReason::CrAccess), 1);
    }
}
