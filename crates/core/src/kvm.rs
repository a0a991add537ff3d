//! The KVM hypervisor model with HyperTap's Event Forwarder integrated.
//!
//! In the paper, HyperTap adds fewer than 100 lines to the KVM kernel module:
//! an Event Forwarder (EF) hooked into the VM-exit dispatch path that ships
//! each exit (plus relevant guest state) to the Event Multiplexer. [`Kvm`]
//! plays that role here: it implements [`Hypervisor`] for the simulator,
//! routes every exit through the installed interception engines, wraps the
//! decoded events with the trusted state snapshot, and forwards them to its
//! embedded [`EventMultiplexer`].

use crate::em::EventMultiplexer;
use crate::event::{Event, VmId};
use crate::intercept::{InterceptEngine, Table1Row};
use crate::metrics::{MetricsRegistry, Spans};
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::exit::{ExitAction, VmExit};
use hypertap_hvsim::machine::{Hypervisor, TimerId, VmState};
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};

/// The hypervisor: exit dispatch + Event Forwarder + Event Multiplexer.
pub struct Kvm {
    engines: Vec<Box<dyn InterceptEngine>>,
    /// The Event Multiplexer — register auditors and containers here.
    pub em: EventMultiplexer,
    vm_id: VmId,
    forwarded_events: u64,
    /// Host wall-clock spans over the exit→decode→fan-out path. Disabled
    /// (one branch per exit) unless metrics are switched on.
    spans: Spans,
    /// The current exit's decoded events, in engine install order. Cleared
    /// (not dropped) per exit, so the steady-state exit path performs no
    /// heap allocation (pinned by `tests/alloc_steady_state.rs`).
    events: Vec<Event>,
}

impl std::fmt::Debug for Kvm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kvm")
            .field("vm_id", &self.vm_id)
            .field("engines", &self.engines.iter().map(|e| e.name()).collect::<Vec<_>>())
            .field("forwarded_events", &self.forwarded_events)
            .finish_non_exhaustive()
    }
}

impl Default for Kvm {
    fn default() -> Self {
        Kvm::new()
    }
}

impl Kvm {
    /// A hypervisor for VM 0 with no engines installed.
    pub fn new() -> Self {
        Kvm {
            engines: Vec::new(),
            em: EventMultiplexer::new(),
            vm_id: VmId(0),
            forwarded_events: 0,
            spans: Spans::new(false),
            events: Vec::with_capacity(8),
        }
    }

    /// Switches host-side instrumentation (pipeline spans + EM dispatch
    /// latency) on or off. Never observable by the simulation.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.spans.set_enabled(on);
        self.em.set_metrics_enabled(on);
    }

    /// Exports the Event Forwarder's counters, the pipeline-stage span
    /// histograms, and the embedded EM's metrics into a snapshot registry.
    pub fn collect_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter(
            "hypertap_ef_forwarded_events_total",
            "decoded events forwarded by the Event Forwarder to the EM",
            self.forwarded_events,
        );
        self.spans.collect(
            "hypertap_pipeline_ns",
            "host wall-clock latency per exit-pipeline stage, nanoseconds",
            reg,
        );
        self.em.collect_metrics(reg);
    }

    /// A hypervisor tagged with an explicit VM id.
    pub fn with_vm_id(vm_id: VmId) -> Self {
        Kvm { vm_id, ..Kvm::new() }
    }

    /// The VM id stamped into every forwarded event.
    pub fn vm_id(&self) -> VmId {
        self.vm_id
    }

    /// Installs and enables an interception engine.
    pub fn install(&mut self, vm: &mut VmState, mut engine: Box<dyn InterceptEngine>) {
        engine.enable(vm);
        self.engines.push(engine);
    }

    /// Disables and removes the engine with the given name. Returns whether
    /// it was found.
    pub fn uninstall(&mut self, vm: &mut VmState, name: &str) -> bool {
        if let Some(pos) = self.engines.iter().position(|e| e.name() == name) {
            let mut engine = self.engines.remove(pos);
            engine.disable(vm);
            true
        } else {
            false
        }
    }

    /// Names of the installed engines.
    pub fn engine_names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// Mutable access to an installed engine by name (for engines with
    /// runtime configuration like the fine-grained watcher).
    pub fn engine_mut(&mut self, name: &str) -> Option<&mut (dyn InterceptEngine + '_)> {
        self.engines
            .iter_mut()
            .find(|e| e.name() == name)
            .map(|e| e.as_mut() as &mut dyn InterceptEngine)
    }

    /// The Table I rows contributed by every installed engine, in
    /// installation order — the data behind the `table1` experiment binary.
    pub fn table1(&self) -> Vec<Table1Row> {
        self.engines.iter().flat_map(|e| e.table1_rows().iter().copied()).collect()
    }

    /// Total decoded events forwarded to the EM so far.
    pub fn forwarded_events(&self) -> u64 {
        self.forwarded_events
    }

    /// Serializes the Event Forwarder's deterministic state for a machine
    /// snapshot: the forwarded-event counter, every installed engine's state
    /// (framed by name, in install order), and the embedded Event
    /// Multiplexer.
    ///
    /// Not captured: the wall-clock span probes (host instrumentation) and
    /// the per-exit event buffer (refilled from scratch on every exit).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError::Unsupported`] from the EM when audit
    /// containers are attached.
    pub fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.varint(u64::from(self.vm_id.0));
        w.varint(self.forwarded_events);
        w.varint(self.engines.len() as u64);
        for e in &self.engines {
            w.string(e.name());
            w.bytes(&e.snapshot_state());
        }
        self.em.save_state(w)
    }

    /// Restores state written by [`Kvm::save_state`] into a forwarder
    /// rebuilt from the same recipe (same VM id, same engines installed in
    /// the same order, same auditor roster).
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] on malformed bytes or a recipe
    /// mismatch (VM id or engine roster).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let start = r.offset();
        if r.varint()? != u64::from(self.vm_id.0) {
            return Err(SnapError::BadValue { offset: start, what: "vm id mismatch" });
        }
        self.forwarded_events = r.varint()?;
        let start = r.offset();
        let n = r.count(1 << 10, "engine state blobs")?;
        if n != self.engines.len() {
            return Err(SnapError::BadValue { offset: start, what: "engine roster size" });
        }
        for e in self.engines.iter_mut() {
            let name = r.string()?;
            let blob = r.bytes()?;
            if name != e.name() {
                return Err(SnapError::Unsupported {
                    what: format!(
                        "engine roster mismatch: snapshot has '{name}', target has '{}'",
                        e.name()
                    ),
                });
            }
            e.restore_state(blob)?;
        }
        self.em.restore_state(r)
    }
}

impl Hypervisor for Kvm {
    fn handle_exit(&mut self, vm: &mut VmState, exit: &VmExit) -> ExitAction {
        let mut action = ExitAction::Resume;
        // One branch decides all span work for this exit; with spans off
        // neither stage reads the host clock at all.
        let spans_on = self.spans.is_enabled();
        // 1. Logging phase: every engine inspects the exit and its decoded
        //    events are wrapped, in install order, straight into the
        //    reusable per-exit buffer. This is the blocking part of the
        //    pipeline, shared by all monitors.
        let decode_started = if spans_on { self.spans.start() } else { None };
        self.events.clear();
        let (vm_id, events) = (self.vm_id, &mut self.events);
        let mut emit = |kind| {
            events.push(Event {
                vm: vm_id,
                vcpu: exit.vcpu,
                time: exit.time,
                kind,
                state: exit.state,
            })
        };
        for engine in &mut self.engines {
            if engine.on_exit(vm, exit, &mut emit) == ExitAction::Suppress {
                action = ExitAction::Suppress;
            }
        }
        if spans_on {
            if let Some(ns) = self.spans.record("decode", decode_started) {
                self.em.flight_mut().note_span("decode", exit.time, ns, exit.vcpu.0 as u32);
            }
        }
        // 2. Forward the exit's events to the EM in one call; auditors run
        //    their (independent) audit phases. A synchronous auditor may
        //    request suppression, which is why delivery completes before
        //    the exit returns.
        if !self.events.is_empty() {
            self.forwarded_events += self.events.len() as u64;
            let fanout_started = if spans_on { self.spans.start() } else { None };
            let suppress = self.em.deliver_all(vm, &self.events);
            if spans_on {
                if let Some(ns) = self.spans.record("fanout", fanout_started) {
                    self.em.flight_mut().note_span("fanout", exit.time, ns, exit.vcpu.0 as u32);
                }
            }
            if suppress {
                action = ExitAction::Suppress;
            }
        }
        // 3. RHC heartbeat sampling sees the raw exit stream.
        self.em.note_exit(exit.time);
        action
    }

    fn on_timer(&mut self, vm: &mut VmState, _timer: TimerId, now: SimTime) {
        self.em.tick(vm, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{Auditor, CountingAuditor, FindingSink};
    use crate::event::{EventKind, EventMask, EventRef};
    use crate::intercept::{IntSyscallEngine, IoEngine, ProcessSwitchEngine};
    use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
    use hypertap_hvsim::machine::{GuestProgram, Machine, VmConfig};
    use hypertap_hvsim::mem::Gpa;

    struct Switcher;
    impl GuestProgram for Switcher {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            cpu.write_cr3(Gpa::new(0x1000));
            StepOutcome::Continue
        }
    }

    #[test]
    fn install_enable_and_forward() {
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
        let (vm, kvm) = m.parts_mut();
        kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
        kvm.em.register(Box::new(CountingAuditor::new()));
        m.run_steps(&mut Switcher, 5);
        assert_eq!(m.hypervisor().forwarded_events(), 5);
        assert_eq!(m.hypervisor().em.auditor::<CountingAuditor>().unwrap().events_seen(), 5);
    }

    #[test]
    fn uninstall_reverts_controls() {
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
        let (vm, kvm) = m.parts_mut();
        kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
        assert!(vm.controls().cr3_load_exiting());
        assert!(kvm.uninstall(vm, "process-switch"));
        assert!(!vm.controls().cr3_load_exiting());
        assert!(!kvm.uninstall(vm, "process-switch"));
        m.run_steps(&mut Switcher, 3);
        assert_eq!(m.hypervisor().forwarded_events(), 0);
    }

    #[test]
    fn table1_aggregates_engine_rows() {
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
        let (vm, kvm) = m.parts_mut();
        kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
        kvm.install(vm, Box::new(IntSyscallEngine::new()));
        kvm.install(vm, Box::new(IoEngine::new()));
        let rows = kvm.table1();
        assert_eq!(rows.len(), 1 + 1 + 4);
        assert!(rows.iter().any(|r| r.vm_exit == "CR_ACCESS"));
        assert!(rows.iter().any(|r| r.guest_event == "Programmed I/O"));
    }

    #[test]
    fn engine_names_in_install_order() {
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
        let (vm, kvm) = m.parts_mut();
        kvm.install(vm, Box::new(IoEngine::new()));
        kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
        assert_eq!(kvm.engine_names(), vec!["io-access", "process-switch"]);
        assert!(kvm.engine_mut("io-access").is_some());
        assert!(kvm.engine_mut("nope").is_none());
    }

    struct Chatty;
    impl GuestProgram for Chatty {
        fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
            // Two engines' worth of traffic per step: a context switch and
            // a port write.
            cpu.write_cr3(Gpa::new(0x3000));
            cpu.pio_out(0x3f8, 0x41);
            StepOutcome::Continue
        }
    }

    fn run_chatty(steps: usize) -> Machine<Kvm> {
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
        let (vm, kvm) = m.parts_mut();
        kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
        kvm.install(vm, Box::new(IoEngine::new()));
        kvm.em.register(Box::new(CountingAuditor::new()));
        m.run_steps(&mut Chatty, steps);
        m
    }

    /// Decodes one marker event from every exit it is shown, so an exit
    /// another engine also decodes yields two events.
    struct Marker;
    impl InterceptEngine for Marker {
        fn name(&self) -> &'static str {
            "marker"
        }
        fn table1_rows(&self) -> &'static [Table1Row] {
            &[]
        }
        fn enable(&mut self, _vm: &mut VmState) {}
        fn disable(&mut self, _vm: &mut VmState) {}
        fn on_exit(
            &mut self,
            _vm: &mut VmState,
            _exit: &VmExit,
            emit: &mut dyn FnMut(EventKind),
        ) -> ExitAction {
            emit(EventKind::HardwareInterrupt { vector: 0xee });
            ExitAction::Resume
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Records every delivered event with the ref the EM stamped on it.
    #[derive(Default)]
    struct Arrivals(Vec<(EventRef, EventKind, SimTime)>);
    impl Auditor for Arrivals {
        fn name(&self) -> &str {
            "arrivals"
        }
        fn subscriptions(&self) -> EventMask {
            EventMask::ALL
        }
        fn on_event(&mut self, _vm: &mut VmState, event: &Event, sink: &mut dyn FindingSink) {
            let at = sink.current_ref().expect("delivered events carry a ref");
            self.0.push((at, event.kind, event.time));
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn one_exit_delivers_events_in_engine_install_order() {
        let mut m = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
        let (vm, kvm) = m.parts_mut();
        kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
        kvm.install(vm, Box::new(Marker));
        kvm.em.register(Box::new(Arrivals::default()));
        m.run_steps(&mut Switcher, 3);
        let seen = &m.hypervisor().em.auditor::<Arrivals>().unwrap().0;
        assert_eq!(seen.len(), 6, "each CR3 exit fires both engines");
        assert_eq!(m.hypervisor().forwarded_events(), 6);
        for pair in seen.chunks(2) {
            assert!(
                matches!(pair[0].1, EventKind::ProcessSwitch { .. }),
                "the first-installed engine's event arrives first: {pair:?}"
            );
            assert_eq!(pair[1].1, EventKind::HardwareInterrupt { vector: 0xee });
            assert_eq!(pair[0].2, pair[1].2, "both events come from the same exit");
        }
        let first = seen[0].0 .0;
        for (k, (at, _, _)) in seen.iter().enumerate() {
            assert_eq!(*at, EventRef(first + k as u64), "refs are consecutive in arrival order");
        }
    }

    #[test]
    fn disabled_spans_never_touch_the_host_clock() {
        let m = run_chatty(8);
        assert_eq!(
            m.hypervisor().spans.timestamps_taken(),
            0,
            "metrics off: no Instant::now() on the exit path"
        );
        let mut on = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
        let (vm, kvm) = on.parts_mut();
        kvm.set_metrics_enabled(true);
        kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
        on.run_steps(&mut Switcher, 3);
        // decode + fanout per eventful exit.
        assert_eq!(on.hypervisor().spans.timestamps_taken(), 6);
    }

    #[test]
    fn pipeline_metrics_are_exported() {
        let m = run_chatty(4);
        let mut reg = crate::metrics::MetricsRegistry::new();
        m.hypervisor().collect_metrics(&mut reg);
        assert_eq!(
            reg.find("hypertap_ef_forwarded_events_total", &[]).unwrap().as_counter(),
            Some(m.hypervisor().forwarded_events())
        );
        // One delivery path: no staging-ring or batch series exist.
        for name in [
            "hypertap_pipeline_batches_total",
            "hypertap_pipeline_events_total",
            "hypertap_pipeline_backpressure_flushes_total",
        ] {
            assert!(reg.find(name, &[]).is_none(), "{name} must not be exported");
        }
        assert!(reg.entries().iter().all(|e| !e.name.starts_with("hypertap_ring_")));
    }

    #[test]
    fn metrics_capture_pipeline_spans_without_changing_delivery() {
        let run = |metrics: bool| {
            let mut m = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
            let (vm, kvm) = m.parts_mut();
            kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
            kvm.em.register(Box::new(CountingAuditor::new()));
            kvm.set_metrics_enabled(metrics);
            m.run_steps(&mut Switcher, 5);
            m
        };
        let plain = run(false);
        let instrumented = run(true);
        // Identical observable behaviour...
        assert_eq!(
            plain.hypervisor().forwarded_events(),
            instrumented.hypervisor().forwarded_events()
        );
        assert_eq!(plain.hypervisor().em.stats(), instrumented.hypervisor().em.stats());
        // ...but only the instrumented run recorded spans.
        let mut reg = crate::metrics::MetricsRegistry::new();
        instrumented.hypervisor().collect_metrics(&mut reg);
        let decode = reg.find("hypertap_pipeline_ns", &[("stage", "decode")]).expect("decode span");
        assert_eq!(decode.as_histogram().unwrap().count(), 5);
        assert!(reg.find("hypertap_pipeline_ns", &[("stage", "fanout")]).is_some());
        assert_eq!(
            reg.find("hypertap_ef_forwarded_events_total", &[]).unwrap().as_counter(),
            Some(5)
        );

        let mut plain_reg = crate::metrics::MetricsRegistry::new();
        plain.hypervisor().collect_metrics(&mut plain_reg);
        assert!(plain_reg.find("hypertap_pipeline_ns", &[("stage", "decode")]).is_none());
    }
}
