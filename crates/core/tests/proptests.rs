//! Property-based tests for the framework's invariant-bearing pieces: the
//! subscription mask, the Event Multiplexer's delivery accounting, the
//! process counter, and the RHC gap detector.

use hypertap_core::audit::CountingAuditor;
use hypertap_core::em::EventMultiplexer;
use hypertap_core::event::{Event, EventClass, EventKind, EventMask, SyscallGate, VmId};
use hypertap_core::intercept::ProcessCounter;
use hypertap_core::rhc::{HeartbeatSample, RemoteHealthChecker};
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::exit::{ExitAction, VcpuSnapshot, VmExit};
use hypertap_hvsim::machine::{Hypervisor, Machine, VmConfig, VmState};
use hypertap_hvsim::mem::Gpa;
use hypertap_hvsim::vcpu::{Vcpu, VcpuId};
use proptest::prelude::*;

struct NoHv;
impl Hypervisor for NoHv {
    fn handle_exit(&mut self, _vm: &mut VmState, _exit: &VmExit) -> ExitAction {
        ExitAction::Resume
    }
}

fn vm_state() -> VmState {
    Machine::new(VmConfig::new(1, 1 << 20), NoHv).into_parts().0
}

fn class_strategy() -> impl Strategy<Value = EventClass> {
    prop::sample::select(EventClass::ALL.to_vec())
}

fn event_of(class: EventClass) -> Event {
    let kind = match class {
        EventClass::ProcessSwitch => EventKind::ProcessSwitch { new_pdba: Gpa::new(0x1000) },
        EventClass::ThreadSwitch => EventKind::ThreadSwitch { kernel_stack: 0xA000 },
        EventClass::Syscall => {
            EventKind::Syscall { gate: SyscallGate::Sysenter, number: 1, args: [0; 5] }
        }
        EventClass::Io => EventKind::IoPort { port: 1, write: true, value: 0 },
        EventClass::Interrupt => EventKind::HardwareInterrupt { vector: 0x20 },
        EventClass::Memory => EventKind::MemoryAccess {
            gpa: Gpa::new(0),
            gva: None,
            access: hypertap_hvsim::ept::AccessKind::Read,
            value: None,
        },
        EventClass::Integrity => EventKind::TssRelocated {
            expected: hypertap_hvsim::mem::Gva::new(0),
            found: hypertap_hvsim::mem::Gva::new(1),
        },
    };
    Event {
        vm: VmId(0),
        vcpu: VcpuId(0),
        time: SimTime::from_millis(1),
        kind,
        state: VcpuSnapshot::capture(&Vcpu::new(VcpuId(0))),
    }
}

proptest! {
    /// A mask built from a set of classes contains exactly those classes.
    #[test]
    fn event_mask_is_a_set(classes in prop::collection::vec(class_strategy(), 0..10)) {
        let mask: EventMask = classes.iter().copied().collect();
        for c in EventClass::ALL {
            prop_assert_eq!(mask.contains(c), classes.contains(&c));
        }
        prop_assert_eq!(mask.is_empty(), classes.is_empty());
    }

    /// The EM's delivery statistics are conserved: each event is delivered
    /// to exactly the auditors whose mask matches, and unmatched events are
    /// counted fast-skipped.
    #[test]
    fn em_delivery_is_conserved(
        sub_a in class_strategy(),
        sub_b in class_strategy(),
        events in prop::collection::vec(class_strategy(), 1..50),
    ) {
        let mut em = EventMultiplexer::new();
        em.register(Box::new(CountingAuditor::with_mask(EventMask::only(sub_a))));
        em.register(Box::new(CountingAuditor::with_mask(EventMask::only(sub_b))));
        let mut vm = vm_state();
        let mut expected_deliveries = 0u64;
        let mut expected_skipped = 0u64;
        for class in &events {
            let matching = [sub_a, sub_b].iter().filter(|s| **s == *class).count() as u64;
            expected_deliveries += matching;
            if matching == 0 {
                expected_skipped += 1;
            }
            em.dispatch(&mut vm, &event_of(*class));
        }
        prop_assert_eq!(em.stats().sync_delivered, expected_deliveries);
        prop_assert_eq!(em.stats().fast_skipped, expected_skipped);
    }

    /// The process counter's raw count equals the number of distinct PDBAs
    /// observed, independent of order and duplication.
    #[test]
    fn process_counter_counts_distinct(pdbas in prop::collection::vec(1u64..64, 1..100)) {
        let mut c = ProcessCounter::new();
        for p in &pdbas {
            c.observe(Gpa::new(p * 0x1000));
        }
        let mut distinct = pdbas.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(c.raw_count(), distinct.len());
        for p in &distinct {
            prop_assert!(c.contains(Gpa::new(p * 0x1000)));
        }
    }

    /// The RHC alarms exactly when the gap since the last sample exceeds
    /// the timeout, for arbitrary monotone sample/check sequences.
    #[test]
    fn rhc_gap_detection(
        timeout in 1u64..1_000_000,
        gaps in prop::collection::vec(1u64..2_000_000, 1..30),
    ) {
        let mut rhc = RemoteHealthChecker::new(timeout);
        let mut now = 0u64;
        let mut last_sample = None;
        for (i, gap) in gaps.iter().enumerate() {
            now += gap;
            if i % 2 == 0 {
                rhc.on_sample(HeartbeatSample { time_ns: now, seq: i as u64 });
                last_sample = Some(now);
            } else {
                let expect_alert = match last_sample {
                    Some(t) => now - t > timeout,
                    None => now > timeout,
                };
                prop_assert_eq!(rhc.check(now).is_some(), expect_alert);
            }
        }
    }
}
