//! Assembly harness: a monitored VM in a few lines.
//!
//! [`TapVmBuilder`] wires together the standard stack: a [`Machine`] whose
//! hypervisor is the HyperTap-enabled [`Kvm`] with the full interception
//! engine set installed, a simulated guest [`Kernel`], a host timer driving
//! the Event Multiplexer's periodic auditors, and whichever monitors the
//! caller selects.

use crate::goshd::{Goshd, GoshdConfig};
use crate::hrkd::Hrkd;
use crate::ninja::hninja::HNinja;
use crate::ninja::htninja::HtNinja;
use crate::ninja::rules::NinjaRules;
use hypertap_core::intercept::{
    FastSyscallEngine, IntSyscallEngine, IoEngine, ProcessSwitchEngine, ThreadSwitchEngine,
    TssIntegrityEngine,
};
use hypertap_core::kvm::Kvm;
use hypertap_core::prelude::{Finding, VmId};
use hypertap_guestos::kernel::{Kernel, KernelConfig};
use hypertap_guestos::layout;
use hypertap_hvsim::clock::{Duration, SimTime};
use hypertap_hvsim::machine::{Machine, RunExit, VmConfig};

/// Which interception engines to install.
#[derive(Debug, Clone, Copy)]
pub struct EngineSelection {
    /// CR3-load interception (process switches).
    pub process_switch: bool,
    /// TSS write-protection (thread switches).
    pub thread_switch: bool,
    /// TSS-relocation integrity checking.
    pub tss_integrity: bool,
    /// Exception-bitmap syscall interception (`INT 0x80`).
    pub int_syscall: bool,
    /// WRMSR + execute-protection syscall interception (`SYSENTER`).
    pub fast_syscall: bool,
    /// I/O access decoding.
    pub io: bool,
    /// Fine-grained memory watching (§VI-D); frames are watched explicitly
    /// at runtime (e.g. by [`crate::integrity::KernelIntegrity`]).
    pub fine_grained: bool,
}

impl EngineSelection {
    /// Everything on (the default).
    pub fn all() -> Self {
        EngineSelection {
            process_switch: true,
            thread_switch: true,
            tss_integrity: true,
            int_syscall: true,
            fast_syscall: true,
            io: true,
            fine_grained: true,
        }
    }

    /// Only what context-switch monitors (GOSHD, HRKD) need.
    pub fn context_switch_only() -> Self {
        EngineSelection {
            process_switch: true,
            thread_switch: true,
            tss_integrity: false,
            int_syscall: false,
            fast_syscall: false,
            io: false,
            fine_grained: false,
        }
    }

    /// Nothing at all (unmonitored baseline for overhead measurements).
    pub fn none() -> Self {
        EngineSelection {
            process_switch: false,
            thread_switch: false,
            tss_integrity: false,
            int_syscall: false,
            fast_syscall: false,
            io: false,
            fine_grained: false,
        }
    }
}

impl Default for EngineSelection {
    fn default() -> Self {
        EngineSelection::all()
    }
}

/// Builder for a monitored VM.
pub struct TapVmBuilder {
    vcpus: usize,
    memory: u64,
    kernel_cfg: Option<KernelConfig>,
    engines: EngineSelection,
    em_tick: Duration,
    goshd: Option<GoshdConfig>,
    hrkd: bool,
    hrkd_period: Option<Duration>,
    htninja: Option<NinjaRules>,
    htninja_pause: bool,
    hninja: Option<(NinjaRules, Duration)>,
    tlb: Option<bool>,
    metrics: bool,
    flight: Option<bool>,
    flight_capacity: Option<usize>,
    vm_id: VmId,
}

impl TapVmBuilder {
    /// Starts from the paper's default guest: 2 vCPUs, 1 GiB RAM,
    /// non-preemptible kernel, all engines installed, no monitors.
    pub fn new() -> Self {
        TapVmBuilder {
            vcpus: 2,
            memory: 1 << 30,
            kernel_cfg: None,
            engines: EngineSelection::all(),
            em_tick: Duration::from_millis(1),
            goshd: None,
            hrkd: false,
            hrkd_period: None,
            htninja: None,
            htninja_pause: false,
            hninja: None,
            tlb: None,
            metrics: false,
            flight: None,
            flight_capacity: None,
            vm_id: VmId(0),
        }
    }

    /// Tags the hypervisor with an explicit VM id — stamped into every
    /// forwarded event (and therefore every recorded trace), which is how
    /// fleet members stay distinguishable after aggregation.
    pub fn vm_id(mut self, id: VmId) -> Self {
        self.vm_id = id;
        self
    }

    /// Sets the vCPU count.
    pub fn vcpus(mut self, n: usize) -> Self {
        self.vcpus = n;
        self
    }

    /// Sets guest-physical memory size.
    pub fn memory(mut self, bytes: u64) -> Self {
        self.memory = bytes;
        self
    }

    /// Supplies a custom kernel configuration (vCPU count is overridden to
    /// match the machine's).
    pub fn kernel(mut self, cfg: KernelConfig) -> Self {
        self.kernel_cfg = Some(cfg);
        self
    }

    /// Chooses which interception engines to install.
    pub fn engines(mut self, sel: EngineSelection) -> Self {
        self.engines = sel;
        self
    }

    /// Sets the Event Multiplexer's host-timer period (drives `on_tick`).
    pub fn em_tick(mut self, period: Duration) -> Self {
        self.em_tick = period;
        self
    }

    /// Registers GOSHD.
    pub fn goshd(mut self, cfg: GoshdConfig) -> Self {
        self.goshd = Some(cfg);
        self
    }

    /// Registers HRKD (manual cross-validation; see
    /// [`TapVmBuilder::hrkd_periodic`] for automatic checks).
    pub fn hrkd(mut self) -> Self {
        self.hrkd = true;
        self
    }

    /// Registers HRKD with periodic automatic VMI cross-validation.
    pub fn hrkd_periodic(mut self, period: Duration) -> Self {
        self.hrkd = true;
        self.hrkd_period = Some(period);
        self
    }

    /// Registers HT-Ninja.
    pub fn htninja(mut self, rules: NinjaRules) -> Self {
        self.htninja = Some(rules);
        self
    }

    /// Registers HT-Ninja with pause-on-detect enforcement.
    pub fn htninja_pausing(mut self, rules: NinjaRules) -> Self {
        self.htninja = Some(rules);
        self.htninja_pause = true;
        self
    }

    /// Registers H-Ninja (hypervisor-level passive VMI poller).
    pub fn hninja(mut self, rules: NinjaRules, interval: Duration) -> Self {
        self.hninja = Some((rules, interval));
        self
    }

    /// Enables or disables the simulator's per-vCPU software TLB. When not
    /// called, the TLB is on unless the `HYPERTAP_NO_TLB` environment
    /// variable is set — the knob the determinism checks use to diff
    /// experiment output with and without translation caching.
    pub fn tlb(mut self, enabled: bool) -> Self {
        self.tlb = Some(enabled);
        self
    }

    /// Enables host-side metrics instrumentation (pipeline spans, EM
    /// dispatch-latency histogram). Off by default; purely host-side either
    /// way — the metrics-on/off replay conformance pair proves the
    /// simulated event stream is byte-identical.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Enables or disables the EM's flight recorder (on by default).
    /// Retention is purely host-side: event ordinals advance identically
    /// either way, which the flight-on/off replay conformance pair proves.
    pub fn flight(mut self, enabled: bool) -> Self {
        self.flight = Some(enabled);
        self
    }

    /// Sets the flight-recorder ring capacity (records retained).
    pub fn flight_capacity(mut self, records: usize) -> Self {
        self.flight_capacity = Some(records);
        self
    }

    /// Builds the monitored VM (guest not yet booted; it boots on the first
    /// step of [`TapVm::run_for`]).
    pub fn build(self) -> TapVm {
        let tlb_enabled = self.tlb.unwrap_or_else(|| std::env::var_os("HYPERTAP_NO_TLB").is_none());
        let mut machine = Machine::new(
            VmConfig::new(self.vcpus, self.memory).with_tlb(tlb_enabled),
            Kvm::with_vm_id(self.vm_id),
        );
        {
            let (vm, kvm) = machine.parts_mut();
            kvm.set_metrics_enabled(self.metrics);
            if let Some(on) = self.flight {
                kvm.em.flight_mut().set_enabled(on);
            }
            if let Some(cap) = self.flight_capacity {
                kvm.em.flight_mut().set_capacity(cap);
            }
            if self.engines.process_switch {
                kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
            }
            if self.engines.thread_switch {
                kvm.install(vm, Box::new(ThreadSwitchEngine::new()));
            }
            if self.engines.tss_integrity {
                kvm.install(vm, Box::new(TssIntegrityEngine::new()));
            }
            if self.engines.int_syscall {
                kvm.install(vm, Box::new(IntSyscallEngine::new()));
            }
            if self.engines.fast_syscall {
                kvm.install(vm, Box::new(FastSyscallEngine::new()));
            }
            if self.engines.io {
                kvm.install(vm, Box::new(IoEngine::new()));
            }
            if self.engines.fine_grained {
                kvm.install(vm, Box::new(hypertap_core::intercept::FineGrainedEngine::new()));
            }
            vm.register_host_timer(self.em_tick);

            let profile = layout::os_profile();
            if let Some(cfg) = self.goshd {
                kvm.em.register(Box::new(Goshd::new(self.vcpus, cfg)));
            }
            if self.hrkd {
                let mut hrkd = Hrkd::new(profile.clone(), layout::KERNEL_TEXT);
                if let Some(p) = self.hrkd_period {
                    hrkd = hrkd.with_periodic_check(p);
                }
                kvm.em.register(Box::new(hrkd));
            }
            if let Some(rules) = self.htninja {
                let mut n = HtNinja::new(profile.clone(), rules, self.vcpus);
                if self.htninja_pause {
                    n = n.with_pause_on_detect();
                }
                kvm.em.register(Box::new(n));
            }
            if let Some((rules, interval)) = self.hninja {
                kvm.em.register(Box::new(HNinja::new(profile, rules, interval)));
            }
        }
        let kcfg = match self.kernel_cfg {
            Some(mut c) => {
                c.vcpus = self.vcpus;
                c
            }
            None => KernelConfig::new(self.vcpus),
        };
        TapVm { machine, kernel: Kernel::new(kcfg) }
    }
}

impl Default for TapVmBuilder {
    fn default() -> Self {
        TapVmBuilder::new()
    }
}

/// A monitored VM: machine (with the HyperTap hypervisor) plus guest kernel.
pub struct TapVm {
    /// The simulated machine; its hypervisor is the [`Kvm`] model.
    pub machine: Machine<Kvm>,
    /// The guest kernel (configure programs/modules before running).
    pub kernel: Kernel,
}

impl TapVm {
    /// Starts a builder.
    pub fn builder() -> TapVmBuilder {
        TapVmBuilder::new()
    }

    /// Runs the guest for `d` more simulated time (from the current clock).
    ///
    /// `d == Duration::ZERO` is a documented no-op: the run loop is never
    /// entered, the guest does not step (so a fresh VM does **not** boot),
    /// and [`RunExit::Deadline`] is returned immediately. Callers that
    /// compute durations should treat a zero result as a bug in their
    /// arithmetic — a debug assertion flags it so the mistake surfaces in
    /// tests instead of as silently-skipped boot assertions downstream.
    pub fn run_for(&mut self, d: Duration) -> RunExit {
        debug_assert!(
            d > Duration::ZERO,
            "TapVm::run_for(Duration::ZERO) is a no-op: the guest cannot step and a \
             fresh VM will not boot; pass a positive duration"
        );
        if d == Duration::ZERO {
            return RunExit::Deadline;
        }
        let deadline = self.machine.vm().now() + d;
        self.machine.run_until(&mut self.kernel, deadline)
    }

    /// Runs the guest until an absolute simulated time.
    pub fn run_until(&mut self, deadline: SimTime) -> RunExit {
        self.machine.run_until(&mut self.kernel, deadline)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.machine.vm().now()
    }

    /// Drains every finding the monitors produced so far.
    pub fn drain_findings(&mut self) -> Vec<Finding> {
        self.machine.hypervisor_mut().em.drain_findings()
    }

    /// Convenience accessor for a registered auditor by type.
    pub fn auditor<A: hypertap_core::audit::Auditor + 'static>(&self) -> Option<&A> {
        self.machine.hypervisor().em.auditor::<A>()
    }

    /// Mutable accessor for a registered auditor by type.
    pub fn auditor_mut<A: hypertap_core::audit::Auditor + 'static>(&mut self) -> Option<&mut A> {
        self.machine.hypervisor_mut().em.auditor_mut::<A>()
    }

    /// Serializes the flight recorder into a versioned `.htfr` dump —
    /// the payload written to disk when something in the pipeline fails.
    pub fn flight_dump(&self, reason: &str) -> Vec<u8> {
        self.machine.hypervisor().em.flight().dump_bytes(reason)
    }

    /// Takes a full metrics snapshot of the monitored VM: simulator counters
    /// (exit reasons, simulated exit cost, TLB), the Event Forwarder and
    /// pipeline spans, and every EM delivery/findings counter.
    pub fn metrics_snapshot(&self) -> hypertap_core::metrics::MetricsRegistry {
        let mut reg = hypertap_core::metrics::MetricsRegistry::new();
        hypertap_core::metrics::collect_vm(&mut reg, self.machine.vm());
        self.machine.hypervisor().collect_metrics(&mut reg);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_build() {
        let vm = TapVm::builder().build();
        assert_eq!(vm.machine.vm().vcpu_count(), 2);
        assert_eq!(vm.machine.hypervisor().engine_names().len(), 7);
    }

    #[test]
    fn engine_selection_respected() {
        let vm = TapVm::builder().engines(EngineSelection::context_switch_only()).build();
        let names = vm.machine.hypervisor().engine_names();
        assert!(names.contains(&"process-switch"));
        assert!(names.contains(&"thread-switch"));
        assert!(!names.contains(&"fast-syscall"));
        let none = TapVm::builder().engines(EngineSelection::none()).build();
        assert!(none.machine.hypervisor().engine_names().is_empty());
    }

    #[test]
    fn uninstalling_process_switch_leaves_thread_switch_working() {
        let mut vm = TapVm::builder().engines(EngineSelection::context_switch_only()).build();
        let (state, kvm) = vm.machine.parts_mut();
        assert!(kvm.uninstall(state, "process-switch"));
        vm.run_for(Duration::from_millis(200));
        assert!(vm.machine.vm().controls().cr3_load_exiting(), "thread-switch still needs CR3");
        let thread = vm.machine.hypervisor_mut().engine_mut("thread-switch").unwrap();
        let thread = thread.as_any_mut().downcast_mut::<ThreadSwitchEngine>().unwrap();
        assert!(thread.is_armed(), "the first CR3 load must still reach thread-switch");
    }

    #[test]
    fn every_recipe_keeps_its_cr3_exit_control() {
        // These values are captured in `.htsp` snapshots of each recipe.
        let mut ninja = EngineSelection::context_switch_only();
        ninja.int_syscall = true;
        ninja.fast_syscall = true;
        for (sel, cr3) in [
            (EngineSelection::all(), true),
            (EngineSelection::context_switch_only(), true),
            (ninja, true),
            (EngineSelection::none(), false),
        ] {
            let vm = TapVm::builder().engines(sel).build();
            assert_eq!(vm.machine.vm().controls().cr3_load_exiting(), cr3, "{sel:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "run_for(Duration::ZERO) is a no-op")]
    fn run_for_zero_is_flagged_in_debug() {
        let mut vm = TapVm::builder().build();
        vm.run_for(Duration::ZERO);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn run_for_zero_is_a_no_op_in_release() {
        let mut vm = TapVm::builder().build();
        let before = vm.now();
        assert_eq!(vm.run_for(Duration::ZERO), RunExit::Deadline);
        assert_eq!(vm.now(), before, "zero duration must not advance time");
        assert!(!vm.kernel.is_booted(), "zero duration must not step (or boot) the guest");
    }

    #[test]
    fn run_for_positive_duration_boots_and_advances() {
        let mut vm = TapVm::builder().build();
        vm.run_for(Duration::from_millis(50));
        assert!(vm.kernel.is_booted());
        assert!(vm.now() >= SimTime::from_millis(50));
    }

    #[test]
    fn flight_knobs_configure_the_recorder() {
        let on = TapVm::builder().flight_capacity(16).build();
        let flight = &on.machine.hypervisor().em;
        assert!(flight.flight().is_enabled(), "flight recorder is on by default");
        assert_eq!(flight.flight().capacity(), 16);

        let mut off = TapVm::builder().flight(false).build();
        assert!(!off.machine.hypervisor().em.flight().is_enabled());
        off.run_for(Duration::from_millis(10));
        assert!(off.machine.hypervisor().em.flight().is_empty(), "disabled ring retains nothing");
        // Ordinals still advance so provenance is unchanged by the knob.
        assert!(off.machine.hypervisor().em.flight().next_ref().0 > 0);
        let dump = off.flight_dump("smoke");
        assert!(hypertap_core::prelude::FlightDump::decode(&dump).is_ok());
    }

    #[test]
    fn monitors_register() {
        let vm = TapVm::builder()
            .goshd(GoshdConfig::paper_default())
            .hrkd()
            .htninja(NinjaRules::new())
            .hninja(NinjaRules::new(), Duration::from_millis(4))
            .build();
        assert!(vm.auditor::<Goshd>().is_some());
        assert!(vm.auditor::<Hrkd>().is_some());
        assert!(vm.auditor::<HtNinja>().is_some());
        assert!(vm.auditor::<HNinja>().is_some());
    }

    #[test]
    fn metrics_snapshot_covers_every_layer() {
        let mut vm =
            TapVm::builder().metrics(true).goshd(GoshdConfig::paper_default()).hrkd().build();
        vm.run_for(Duration::from_millis(50));
        let reg = vm.metrics_snapshot();
        // Simulator layer: exit reasons + always-on TLB gauges.
        assert!(reg
            .entries()
            .iter()
            .any(|e| e.name == "hypertap_vm_exits_total" && e.value.as_counter().unwrap_or(0) > 0));
        assert!(reg.find("hypertap_tlb_hit_rate", &[]).is_some());
        // Event Forwarder + pipeline spans.
        assert!(reg.find("hypertap_ef_forwarded_events_total", &[]).is_some());
        assert!(reg.find("hypertap_pipeline_ns", &[("stage", "decode")]).is_some());
        // EM layer, per-auditor series.
        assert!(reg.find("hypertap_em_delivered_total", &[("auditor", "goshd")]).is_some());
        // The snapshot survives both exporters.
        let back = hypertap_core::metrics::MetricsRegistry::from_json(&reg.to_json()).unwrap();
        assert_eq!(back, reg);
        assert!(reg.to_prometheus().contains("# TYPE hypertap_tlb_hits_total counter"));
    }
}
