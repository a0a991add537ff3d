//! The unified event model shared by every RnS monitor.
//!
//! HyperTap's central observation is that reliability monitors and security
//! monitors can consume the *same* logged events even though they audit them
//! under different policies. The [`Event`] type is that common currency: a
//! typed guest operation (decoded from one or more VM Exits by an
//! interception engine) plus the trusted hardware state captured at the exit.
//!
//! Events are grouped into [`EventClass`]es so auditors can subscribe to the
//! granularity they need (paper §V-B: "an auditor starts by registering for
//! a set of events needed to enforce its policy").

use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::ept::AccessKind;
use hypertap_hvsim::exit::VcpuSnapshot;
use hypertap_hvsim::mem::{Gpa, Gva};
use hypertap_hvsim::vcpu::VcpuId;
use std::fmt;

/// Identifier of a monitored VM. The reproduction drives one VM per
/// machine, but the event model keeps the id so multi-VM auditors (one
/// auditing container per VM, as in the paper's Fig. 2) stay expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Position of one forwarded event in a VM's pre-filter event stream.
///
/// The Event Multiplexer assigns refs in arrival order starting at `#0`,
/// at the same boundary where an [`crate::em::EventTap`] observes the
/// stream. Because a recorded HTRC trace captures exactly that stream, an
/// `EventRef` doubles as the index of the event among a trace's event
/// records — replaying a trace reproduces every ref bit-for-bit, and a
/// [`crate::audit::Finding`]'s provenance can be resolved against either
/// the in-memory flight recorder or the trace on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventRef(pub u64);

impl fmt::Display for EventRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Which architectural gate a system call came through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallGate {
    /// A software interrupt (e.g. `INT 0x80` on Linux, `INT 0x2E` on
    /// Windows) — intercepted via the exception bitmap (Fig. 3D).
    Interrupt(u8),
    /// `SYSENTER` — intercepted via WRMSR tracking plus execute-protection
    /// of the entry page (Fig. 3E).
    Sysenter,
}

impl fmt::Display for SyscallGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyscallGate::Interrupt(v) => write!(f, "int {v:#x}"),
            SyscallGate::Sysenter => f.write_str("sysenter"),
        }
    }
}

/// A decoded guest operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The guest loaded a new Page-Directory Base Address into CR3: a
    /// process context switch.
    ProcessSwitch {
        /// The PDBA being loaded — the architectural process identifier.
        new_pdba: Gpa,
    },
    /// The guest rewrote `TSS.RSP0`: a thread switch. The kernel stack
    /// pointer is the architectural thread identifier.
    ThreadSwitch {
        /// The new ring-0 stack pointer (thread identifier).
        kernel_stack: u64,
    },
    /// A system call entered the kernel.
    Syscall {
        /// Which gate it used.
        gate: SyscallGate,
        /// The system-call number (from RAX).
        number: u64,
        /// Up to five register-carried arguments (RBX, RCX, RDX, RSI, RDI).
        args: [u64; 5],
    },
    /// A port I/O instruction.
    IoPort {
        /// The port accessed.
        port: u16,
        /// True for `OUT`.
        write: bool,
        /// The value written (writes only).
        value: u64,
    },
    /// A memory-mapped I/O access.
    MmioAccess {
        /// The guest-physical address inside the MMIO window.
        gpa: Gpa,
        /// True for writes.
        write: bool,
    },
    /// A hardware interrupt was delivered to the guest.
    HardwareInterrupt {
        /// Interrupt vector.
        vector: u8,
    },
    /// An APIC register access.
    ApicAccess {
        /// Register offset within the APIC page.
        offset: u16,
    },
    /// A fine-grained watched memory access (paper §VI-D).
    MemoryAccess {
        /// Guest-physical address.
        gpa: Gpa,
        /// Guest-virtual address, when known.
        gva: Option<Gva>,
        /// Access kind.
        access: AccessKind,
        /// Written value, for small writes.
        value: Option<u64>,
    },
    /// Integrity alarm: the saved TR no longer matches the value recorded at
    /// boot — somebody relocated a TSS (Fig. 3C).
    TssRelocated {
        /// TR base recorded when the guest finished booting.
        expected: Gva,
        /// TR base observed now.
        found: Gva,
    },
}

impl EventKind {
    /// The class used for subscription filtering.
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::ProcessSwitch { .. } => EventClass::ProcessSwitch,
            EventKind::ThreadSwitch { .. } => EventClass::ThreadSwitch,
            EventKind::Syscall { .. } => EventClass::Syscall,
            EventKind::IoPort { .. } | EventKind::MmioAccess { .. } => EventClass::Io,
            EventKind::HardwareInterrupt { .. } | EventKind::ApicAccess { .. } => {
                EventClass::Interrupt
            }
            EventKind::MemoryAccess { .. } => EventClass::Memory,
            EventKind::TssRelocated { .. } => EventClass::Integrity,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::ProcessSwitch { new_pdba } => write!(f, "process switch -> {new_pdba}"),
            EventKind::ThreadSwitch { kernel_stack } => {
                write!(f, "thread switch -> rsp0 {kernel_stack:#x}")
            }
            EventKind::Syscall { gate, number, .. } => write!(f, "syscall {number} via {gate}"),
            EventKind::IoPort { port, write, .. } => {
                write!(f, "pio {} port {port:#x}", if *write { "out" } else { "in" })
            }
            EventKind::MmioAccess { gpa, write } => {
                write!(f, "mmio {} {gpa}", if *write { "write" } else { "read" })
            }
            EventKind::HardwareInterrupt { vector } => write!(f, "irq {vector:#x}"),
            EventKind::ApicAccess { offset } => write!(f, "apic access {offset:#x}"),
            EventKind::MemoryAccess { gpa, access, .. } => write!(f, "watched {access} {gpa}"),
            EventKind::TssRelocated { expected, found } => {
                write!(f, "TSS relocated: expected {expected}, found {found}")
            }
        }
    }
}

/// Coarse event classes for subscriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// Process context switches (CR3 loads).
    ProcessSwitch,
    /// Thread switches (TSS.RSP0 writes).
    ThreadSwitch,
    /// System calls.
    Syscall,
    /// Port and memory-mapped I/O.
    Io,
    /// Hardware interrupts and APIC traffic.
    Interrupt,
    /// Fine-grained watched memory accesses.
    Memory,
    /// Integrity alarms from the logging layer itself.
    Integrity,
}

impl EventClass {
    /// All classes.
    pub const ALL: [EventClass; 7] = [
        EventClass::ProcessSwitch,
        EventClass::ThreadSwitch,
        EventClass::Syscall,
        EventClass::Io,
        EventClass::Interrupt,
        EventClass::Memory,
        EventClass::Integrity,
    ];

    /// Dense index of the class in [`EventClass::ALL`] order — the key into
    /// the EM's precomputed routing table.
    pub fn index(self) -> usize {
        match self {
            EventClass::ProcessSwitch => 0,
            EventClass::ThreadSwitch => 1,
            EventClass::Syscall => 2,
            EventClass::Io => 3,
            EventClass::Interrupt => 4,
            EventClass::Memory => 5,
            EventClass::Integrity => 6,
        }
    }

    fn bit(self) -> u16 {
        match self {
            EventClass::ProcessSwitch => 1 << 0,
            EventClass::ThreadSwitch => 1 << 1,
            EventClass::Syscall => 1 << 2,
            EventClass::Io => 1 << 3,
            EventClass::Interrupt => 1 << 4,
            EventClass::Memory => 1 << 5,
            EventClass::Integrity => 1 << 6,
        }
    }
}

impl fmt::Display for EventClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EventClass::ProcessSwitch => "process-switch",
            EventClass::ThreadSwitch => "thread-switch",
            EventClass::Syscall => "syscall",
            EventClass::Io => "io",
            EventClass::Interrupt => "interrupt",
            EventClass::Memory => "memory",
            EventClass::Integrity => "integrity",
        })
    }
}

/// A set of [`EventClass`]es — an auditor's subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventMask(u16);

impl EventMask {
    /// The empty subscription.
    pub const NONE: EventMask = EventMask(0);
    /// Every event class.
    pub const ALL: EventMask = EventMask(0x7F);

    /// A mask containing exactly one class.
    pub const fn only(class: EventClass) -> EventMask {
        // `bit` is not const-callable through the method; inline the match.
        EventMask(match class {
            EventClass::ProcessSwitch => 1 << 0,
            EventClass::ThreadSwitch => 1 << 1,
            EventClass::Syscall => 1 << 2,
            EventClass::Io => 1 << 3,
            EventClass::Interrupt => 1 << 4,
            EventClass::Memory => 1 << 5,
            EventClass::Integrity => 1 << 6,
        })
    }

    /// This mask extended with another class.
    pub const fn with(self, class: EventClass) -> EventMask {
        EventMask(self.0 | EventMask::only(class).0)
    }

    /// Whether the mask contains a class.
    pub fn contains(self, class: EventClass) -> bool {
        self.0 & class.bit() != 0
    }

    /// Whether the mask is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl FromIterator<EventClass> for EventMask {
    fn from_iter<I: IntoIterator<Item = EventClass>>(iter: I) -> Self {
        iter.into_iter().fold(EventMask::NONE, EventMask::with)
    }
}

/// One logged event: a decoded guest operation plus the trusted hardware
/// state captured when the triggering VM Exit fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The VM the event came from.
    pub vm: VmId,
    /// The vCPU that performed the operation.
    pub vcpu: VcpuId,
    /// Simulated time at which the operation was intercepted.
    pub time: SimTime,
    /// The decoded operation.
    pub kind: EventKind,
    /// Trusted architectural state at the exit (the root of trust for any
    /// OS-state derivation the auditor performs).
    pub state: VcpuSnapshot,
}

impl Event {
    /// The event's class.
    pub fn class(&self) -> EventClass {
        self.kind.class()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {} {}] {}", self.time, self.vm, self.vcpu, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_only_and_with() {
        let m = EventMask::only(EventClass::Syscall).with(EventClass::Io);
        assert!(m.contains(EventClass::Syscall));
        assert!(m.contains(EventClass::Io));
        assert!(!m.contains(EventClass::ProcessSwitch));
        assert!(!m.is_empty());
        assert!(EventMask::NONE.is_empty());
    }

    #[test]
    fn mask_all_covers_every_class() {
        for c in EventClass::ALL {
            assert!(EventMask::ALL.contains(c), "ALL should contain {c}");
        }
    }

    #[test]
    fn mask_from_iterator() {
        let m: EventMask = [EventClass::Memory, EventClass::Integrity].into_iter().collect();
        assert!(m.contains(EventClass::Memory));
        assert!(m.contains(EventClass::Integrity));
        assert!(!m.contains(EventClass::Syscall));
    }

    #[test]
    fn kinds_map_to_classes() {
        assert_eq!(
            EventKind::ProcessSwitch { new_pdba: Gpa::new(0) }.class(),
            EventClass::ProcessSwitch
        );
        assert_eq!(EventKind::ThreadSwitch { kernel_stack: 0 }.class(), EventClass::ThreadSwitch);
        assert_eq!(
            EventKind::Syscall { gate: SyscallGate::Sysenter, number: 1, args: [0; 5] }.class(),
            EventClass::Syscall
        );
        assert_eq!(EventKind::IoPort { port: 0, write: false, value: 0 }.class(), EventClass::Io);
        assert_eq!(EventKind::MmioAccess { gpa: Gpa::new(0), write: true }.class(), EventClass::Io);
        assert_eq!(EventKind::HardwareInterrupt { vector: 3 }.class(), EventClass::Interrupt);
        assert_eq!(
            EventKind::MemoryAccess {
                gpa: Gpa::new(0),
                gva: None,
                access: AccessKind::Read,
                value: None
            }
            .class(),
            EventClass::Memory
        );
        assert_eq!(
            EventKind::TssRelocated { expected: Gva::new(0), found: Gva::new(1) }.class(),
            EventClass::Integrity
        );
    }

    #[test]
    fn class_index_matches_all_order() {
        for (i, c) in EventClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c} should sit at routing slot {i}");
        }
    }

    #[test]
    fn display_is_informative() {
        let k = EventKind::Syscall { gate: SyscallGate::Interrupt(0x80), number: 5, args: [0; 5] };
        assert_eq!(k.to_string(), "syscall 5 via int 0x80");
        assert_eq!(VmId(2).to_string(), "vm2");
    }
}
