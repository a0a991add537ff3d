//! Hardware-invariant interception engines (paper §VI, Table I, Fig. 3).
//!
//! Each engine owns one guest-event family: it programs the VM-exit controls
//! and/or EPT permissions needed to make the corresponding guest operations
//! trap, and decodes the resulting VM Exits into typed [`EventKind`]s. The
//! engines and [`crate::kvm::Kvm`] are the only components that touch exit
//! controls, so co-deployed monitors can never conflict over them — the
//! unified-logging argument of the paper's §IV-A.
//!
//! Table I is also the dispatch table. Each engine's [`Table1Row`]s name
//! the exit reasons it decodes (`vm_exit`, the paper's column) plus any it
//! needs only to set itself up (`armed_by`), and `Kvm` hands an engine
//! exactly the exits whose reason its rows name. CR3-load exiting, the one
//! control several engines need, is owned by `Kvm`: it is on exactly while
//! some installed engine's rows name `CR_ACCESS`.
//!
//! | Engine | Paper | Guest event | Routed exits | Invariant |
//! |---|---|---|---|---|
//! | [`ProcessSwitchEngine`] | §VI-A1, Fig. 3A | process context switch | `CR_ACCESS` | CR3 always holds the running process's PDBA |
//! | [`ThreadSwitchEngine`] | §VI-A2, Fig. 3B | thread switch | `EPT_VIOLATION`, armed by `CR_ACCESS` | TR points at the TSS; `TSS.RSP0` is unique per thread |
//! | [`TssIntegrityEngine`] | Fig. 3C | TSS relocation | every reason | TR must not move after boot |
//! | [`IntSyscallEngine`] | §VI-B1, Fig. 3D | interrupt-based syscall | `EXCEPTION` | software interrupts are the only legacy ring gate |
//! | [`FastSyscallEngine`] | §VI-B2, Fig. 3E | fast syscall | `WRMSR`, `EPT_VIOLATION` | `SYSENTER` target lives in an MSR; MSR writes trap |
//! | [`IoEngine`] | §VI-C | I/O accesses | `IO_INST`, `EPT_VIOLATION`, `EXTERNAL_INT`, `APIC_ACCESS` | I/O must use architectural channels |
//! | [`FineGrainedEngine`] | §VI-D | memory access / instruction execution | `EPT_VIOLATION` | EPT permissions bind all guest-physical accesses |

use crate::event::EventKind;
use hypertap_hvsim::exit::{ExitAction, ExitReason, VmExit};
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::snap::SnapError;

mod fine;
mod io;
mod process;
mod syscall;
mod thread;
mod tss;

pub use fine::{perm_watching, FineGrainedEngine};
pub use io::IoEngine;
pub use process::{ProcessCounter, ProcessSwitchEngine};
pub use syscall::{FastSyscallEngine, IntSyscallEngine};
pub use thread::ThreadSwitchEngine;
pub use tss::TssIntegrityEngine;

/// One row of the paper's Table I, as self-described by an engine. Its
/// exit reasons are also what [`crate::kvm::Kvm`] routes to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Monitoring category (Table I column 1).
    pub category: &'static str,
    /// Guest event (column 2).
    pub guest_event: &'static str,
    /// Related VM Exit reason(s) (column 3).
    pub vm_exit: &'static [ExitReason],
    /// Exit reasons the engine must also see to set up this row, which the
    /// paper's column does not name (the thread-switch engine protects the
    /// TSS on the first CR3 load).
    pub armed_by: &'static [ExitReason],
    /// The architectural invariant relied upon (column 4).
    pub invariant: &'static str,
}

impl Table1Row {
    /// Column 3 as `table1` prints it: the reason names, comma-separated,
    /// or a note for a row that names every reason.
    pub fn vm_exit_column(&self) -> String {
        if self.vm_exit == ExitReason::ALL {
            return "(checked on every VM Exit)".to_string();
        }
        self.vm_exit.iter().map(|r| r.name()).collect::<Vec<_>>().join(", ")
    }
}

/// An interception engine: the logging-phase component for one guest-event
/// family.
pub trait InterceptEngine {
    /// Engine name.
    fn name(&self) -> &'static str;

    /// The Table I rows this engine implements. The exit reasons they name
    /// are the only exits [`crate::kvm::Kvm`] shows the engine.
    fn table1_rows(&self) -> &'static [Table1Row];

    /// Programs the exit controls / EPT protections this engine needs.
    fn enable(&mut self, vm: &mut VmState);

    /// Reverts the programming done by [`InterceptEngine::enable`].
    fn disable(&mut self, vm: &mut VmState);

    /// Inspects one VM Exit, emitting zero or more decoded events. The exit's
    /// reason is one the engine's [`Table1Row`]s name; the engine still
    /// filters within it (which CR, which frame, which MSR). The default
    /// action is [`ExitAction::Resume`] (emulate and continue).
    fn on_exit(
        &mut self,
        vm: &mut VmState,
        exit: &VmExit,
        emit: &mut dyn FnMut(EventKind),
    ) -> ExitAction;

    /// Upcast for engines with runtime configuration (e.g. the fine-grained
    /// watcher's frame list).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Serializes the engine's mutable runtime state (armed watches, learned
    /// entry points, ...) for a machine snapshot. Engines whose entire state
    /// is recipe configuration return an empty blob (the default). EPT
    /// permissions the engine programmed are *not* part of this blob — they
    /// are captured by the machine's own EPT serialization.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state produced by [`InterceptEngine::snapshot_state`] into a
    /// freshly built engine of the same kind.
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] on malformed bytes; the default
    /// accepts only an empty blob.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(SnapError::Unsupported {
                what: format!("engine '{}' has no restorable state", self.name()),
            })
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared scaffolding for engine tests: a 2-vCPU machine whose `Kvm`
    //! runs a single engine, and an auditor that collects what it decodes.

    use super::*;
    use crate::audit::{Auditor, FindingSink};
    use crate::event::{Event, EventMask};
    use crate::kvm::Kvm;
    use hypertap_hvsim::machine::{Machine, VmConfig};
    use hypertap_hvsim::vcpu::VcpuId;

    /// Every decoded event, with the vCPU it came from.
    #[derive(Default)]
    struct Collected(Vec<(VcpuId, EventKind)>);

    impl Auditor for Collected {
        fn name(&self) -> &str {
            "collected"
        }
        fn subscriptions(&self) -> EventMask {
            EventMask::ALL
        }
        fn on_event(&mut self, _vm: &mut VmState, event: &Event, _sink: &mut dyn FindingSink) {
            self.0.push((event.vcpu, event.kind));
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A 2-vCPU machine with the engine installed.
    pub fn machine_with(engine: Box<dyn InterceptEngine>) -> Machine<Kvm> {
        let mut m = Machine::new(VmConfig::new(2, 64 << 20), Kvm::new());
        let (vm, kvm) = m.parts_mut();
        kvm.install(vm, engine);
        kvm.em.register(Box::new(Collected::default()));
        m
    }

    /// The events decoded so far, in delivery order.
    pub fn events(m: &Machine<Kvm>) -> &[(VcpuId, EventKind)] {
        &m.hypervisor().em.auditor::<Collected>().expect("registered by machine_with").0
    }

    /// The single installed engine, downcast to its type.
    pub fn engine<E: 'static>(m: &mut Machine<Kvm>) -> &mut E {
        let kvm = m.hypervisor_mut();
        let name = kvm.engine_names()[0];
        kvm.engine_mut(name).and_then(|e| e.as_any_mut().downcast_mut()).expect("engine type")
    }
}
