//! # hypertap-core — unified reliability-and-security event logging
//!
//! This crate is the reproduction of HyperTap's primary contribution (DSN
//! 2014): a hypervisor-level monitoring framework in which the **logging**
//! phase is shared by all reliability and security (RnS) monitors and rooted
//! in hardware architectural invariants, while each monitor's **audit**
//! phase runs independently.
//!
//! The pieces map onto the paper's architecture (its Fig. 1 and Fig. 2):
//!
//! * [`intercept`] — the interception engines of §VI, one per row group of
//!   the paper's Table I. Each engine programs VM-exit controls or EPT
//!   permissions on the [`hypertap_hvsim`] substrate and turns raw VM Exits
//!   into typed guest [`event::Event`]s. The pseudo-code of Fig. 3A–E lives
//!   here, tested directly.
//! * [`kvm`] — the KVM hypervisor model with the **Event Forwarder** (EF)
//!   integrated at the exit-dispatch point (the paper's <100-line KVM patch).
//! * [`em`] — the **Event Multiplexer** (EM): receives events from the EF
//!   and delivers them to the auditors subscribed to their class (blocking
//!   logging, in-line audit), after an ordered list of passive observers
//!   ([`em::EventTap`]) has seen the whole stream.
//! * [`container`] — panic-isolated *audit containers*: an auditor on its
//!   own host thread behind one EM observer (the paper runs auditors in LXC
//!   containers on the host).
//! * [`audit`] — the [`audit::Auditor`] trait plus findings plumbing; the
//!   concrete example auditors (GOSHD, HRKD, the Ninjas) live in the
//!   `hypertap-monitors` crate.
//! * [`vmi`] — *traditional* virtual-machine introspection: decoding guest
//!   kernel data structures from memory. Deliberately **untrusted** — this
//!   is the surface DKOM rootkits corrupt — and used only for baseline
//!   monitors and for cross-view validation.
//! * [`mod@derive`] — OS-state derivation rooted at architectural invariants
//!   (TR → TSS → kernel stack → `thread_info` → `task_struct`), the trusted
//!   path of the paper's §IV-B.
//! * [`rhc`] — the **Remote Health Checker**: samples of the event stream
//!   are shipped to an external observer that alarms when the stream stops,
//!   watching the liveness of the monitoring stack itself.
//! * [`metrics`] — zero-dependency observability: a [`metrics::MetricsRegistry`]
//!   of counters/gauges/histograms, span timing for the
//!   exit→decode→fan-out→audit path, and JSON + Prometheus exporters. Host
//!   bookkeeping only — provably side-effect-free on the simulation (the
//!   replay conformance suite diffs metrics-on vs metrics-off runs byte for
//!   byte).
//! * [`fleet`] — the cloud-side fleet layer: a [`fleet::FleetHost`] shards
//!   N independent monitored VMs over a worker-thread pool with a
//!   determinism contract (any worker count reproduces each VM's findings
//!   and traces bit-for-bit), and a [`fleet::FleetAggregator`] merges
//!   per-VM delivery stats, findings and metrics snapshots.
//! * [`telemetry`] — the live telemetry plane: a zero-dependency HTTP
//!   server scraping `/metrics`, `/healthz` and `/vms`, a
//!   [`telemetry::FindingBus`] streaming findings as NDJSON, and the
//!   [`telemetry::SelfWatch`] watchdog that raises `MonitorStalled` when
//!   the monitor itself wedges. Host-side only, like [`metrics`].
//! * [`latency`] — detection-latency accounting: correlates fault-campaign
//!   injection records with finding provenance into per-auditor latency
//!   histograms (virtual-time ns and exit count), the paper's Fig. 5.
//!
//! ## Example: observing process switches from CR3 loads
//!
//! ```
//! use hypertap_core::prelude::*;
//! use hypertap_hvsim::prelude::*;
//!
//! // Assemble a VM whose hypervisor is the HyperTap-enabled KVM model.
//! let mut machine = Machine::new(VmConfig::new(1, 16 << 20), Kvm::new());
//! let (vm, kvm) = machine.parts_mut();
//! kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
//! kvm.em.register(Box::new(CountingAuditor::new()));
//!
//! // A guest that "context switches" between two address spaces.
//! struct TwoProcs;
//! impl GuestProgram for TwoProcs {
//!     fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
//!         cpu.write_cr3(Gpa::new(0x1000));
//!         cpu.write_cr3(Gpa::new(0x2000));
//!         StepOutcome::Continue
//!     }
//! }
//!
//! machine.run_steps(&mut TwoProcs, 4);
//! let counter = machine.hypervisor().em.auditor::<CountingAuditor>().unwrap();
//! assert_eq!(counter.events_seen(), 8);
//! ```

pub mod audit;
pub mod container;
pub mod coverage;
pub mod derive;
pub mod em;
pub mod event;
pub mod fleet;
pub mod flight;
pub mod intercept;
pub mod kvm;
pub mod latency;
pub mod metrics;
pub mod profile;
pub mod rhc;
pub mod telemetry;
pub mod vmi;

/// Glob import of the framework's main types.
pub mod prelude {
    pub use crate::audit::{Auditor, CountingAuditor, Finding, FindingSink, Severity};
    pub use crate::coverage::{CoverageCollector, CoverageMap, StreamCoverage};
    pub use crate::em::{DeliveryStats, EventMultiplexer, EventTap};
    pub use crate::event::{Event, EventClass, EventKind, EventMask, EventRef, SyscallGate, VmId};
    pub use crate::fleet::{
        run_fleet, run_fleet_telemetry, run_vm_alone, FleetAggregator, FleetConfig, FleetHost,
        FleetReport, FleetVm, FleetWorkload, SliceOutcome, VmReport,
    };
    pub use crate::flight::{FlightDump, FlightRecorder, FLIGHT_VERSION};
    pub use crate::intercept::{
        FastSyscallEngine, FineGrainedEngine, IntSyscallEngine, InterceptEngine, IoEngine,
        ProcessSwitchEngine, ThreadSwitchEngine, TssIntegrityEngine,
    };
    pub use crate::kvm::Kvm;
    pub use crate::latency::{DetectionLatency, EventIndex, InjectionRecord, LatencySample};
    pub use crate::metrics::{
        collect_vm, Histogram, MetricValue, MetricsArg, MetricsRegistry, Spans,
    };
    pub use crate::profile::OsProfile;
    pub use crate::rhc::{HeartbeatSample, RemoteHealthChecker, RhcTransport};
    pub use crate::telemetry::{
        FindingBus, FindingSubscriber, SelfWatch, TelemetryHub, TelemetryServer, VmPhase, VmProbe,
        VmStatus, WorkerHealth,
    };
}

pub use prelude::*;
