//! Audit containers: a [`ContainerAuditor`] on its own host thread, fed by
//! one EM observer — the paper's Fig. 2 deployment, where auditors run in
//! LXC containers beside the VM.
//!
//! [`spawn`] builds the auditor from its factory and returns two halves:
//!
//! * a [`ContainerTap`] to hand to
//!   [`EventMultiplexer::attach_tap`](crate::em::EventMultiplexer::attach_tap).
//!   It forwards every event in the auditor's subscription mask, and every
//!   tick, to the worker thread. Events are `Copy`, so each send is one
//!   copy into the channel; the guest never waits for the auditor.
//! * a [`ContainerHandle`] the caller keeps. [`ContainerHandle::shutdown`]
//!   stops the worker after everything sent so far and returns what it
//!   accumulated: `(restarts, findings, panic messages)`.
//!
//! Containerised audit is after-the-fact: it can detect and report, but
//! not suppress the intercepted operation. In exchange it is isolated
//! (§V-C): a panicking auditor is caught, its message kept, and the auditor
//! rebuilt from the factory, while the VM, the EM and every other auditor
//! and observer carry on. Because the tap only reads, a run with a
//! container attached records the same trace and verdict as one without.

use crate::audit::Finding;
use crate::em::EventTap;
use crate::event::{Event, EventMask};
use crate::flight::panic_message;
use hypertap_hvsim::clock::SimTime;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

/// An auditor that runs inside an audit container (own thread, no VM
/// access).
pub trait ContainerAuditor: Send {
    /// Name used in findings.
    fn name(&self) -> &str;

    /// Event classes to deliver.
    fn subscriptions(&self) -> EventMask;

    /// Handles one event, returning any findings.
    fn on_event(&mut self, event: &Event) -> Vec<Finding>;

    /// Periodic callback, returning any findings.
    fn on_tick(&mut self, _now: SimTime) -> Vec<Finding> {
        Vec::new()
    }
}

/// Factory that (re)builds a container auditor; used for restart after a
/// panic.
pub type ContainerFactory = Box<dyn Fn() -> Box<dyn ContainerAuditor> + Send>;

/// What a container's worker accumulated by shutdown: its restart count,
/// every finding in report order, and each caught panic's message.
pub type ContainerReport = (u64, Vec<Finding>, Vec<String>);

enum Msg {
    Event(Event),
    Tick(SimTime),
    Stop,
}

/// The EM observer half of a container: filters by the auditor's mask and
/// forwards to the worker thread.
pub struct ContainerTap {
    mask: EventMask,
    tx: Sender<Msg>,
}

impl EventTap for ContainerTap {
    fn on_event(&mut self, event: &Event) {
        if self.mask.contains(event.class()) {
            let _ = self.tx.send(Msg::Event(*event));
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        let _ = self.tx.send(Msg::Tick(now));
    }
}

/// The caller's half of a container: stops the worker and collects its
/// report. Dropped without [`ContainerHandle::shutdown`], it detaches the
/// worker, which then exits once its tap is dropped.
pub struct ContainerHandle {
    tx: Sender<Msg>,
    worker: JoinHandle<ContainerReport>,
}

impl ContainerHandle {
    /// Stops the worker once it has handled every message sent before this
    /// call, and returns its report.
    pub fn shutdown(self) -> ContainerReport {
        let _ = self.tx.send(Msg::Stop);
        self.worker.join().unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// Starts an audit container built by `factory`. The factory is called
/// again to rebuild the auditor each time it panics.
pub fn spawn(factory: ContainerFactory) -> (ContainerTap, ContainerHandle) {
    let mut auditor = factory();
    let mask = auditor.subscriptions();
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let (mut restarts, mut findings, mut panics) = (0, Vec::new(), Vec::new());
        while let Ok(msg) = rx.recv() {
            let result = match msg {
                Msg::Event(event) => catch_unwind(AssertUnwindSafe(|| auditor.on_event(&event))),
                Msg::Tick(now) => catch_unwind(AssertUnwindSafe(|| auditor.on_tick(now))),
                Msg::Stop => break,
            };
            match result {
                Ok(mut found) => findings.append(&mut found),
                Err(payload) => {
                    restarts += 1;
                    panics.push(panic_message(payload));
                    auditor = factory();
                }
            }
        }
        (restarts, findings, panics)
    });
    (ContainerTap { mask, tx: tx.clone() }, ContainerHandle { tx, worker })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Severity;
    use crate::em::EventMultiplexer;
    use crate::event::{EventClass, EventKind, VmId};
    use hypertap_hvsim::exit::VcpuSnapshot;
    use hypertap_hvsim::machine::{Machine, VmConfig, VmState};
    use hypertap_hvsim::mem::Gpa;
    use hypertap_hvsim::vcpu::{Vcpu, VcpuId};

    fn vm_state() -> VmState {
        struct NoHv;
        impl hypertap_hvsim::machine::Hypervisor for NoHv {
            fn handle_exit(
                &mut self,
                _vm: &mut VmState,
                _exit: &hypertap_hvsim::exit::VmExit,
            ) -> hypertap_hvsim::exit::ExitAction {
                hypertap_hvsim::exit::ExitAction::Resume
            }
        }
        Machine::new(VmConfig::new(1, 1 << 20), NoHv).into_parts().0
    }

    fn switch(pdba: u64) -> Event {
        Event {
            vm: VmId(0),
            vcpu: VcpuId(0),
            time: SimTime::from_millis(pdba),
            kind: EventKind::ProcessSwitch { new_pdba: Gpa::new(pdba) },
            state: VcpuSnapshot::capture(&Vcpu::new(VcpuId(0))),
        }
    }

    /// Reports each process switch, and panics on every second event since
    /// its last (re)build.
    struct Panicky {
        seen: u32,
    }

    impl ContainerAuditor for Panicky {
        fn name(&self) -> &str {
            "panicky"
        }
        fn subscriptions(&self) -> EventMask {
            EventMask::only(EventClass::ProcessSwitch)
        }
        fn on_event(&mut self, event: &Event) -> Vec<Finding> {
            self.seen += 1;
            if self.seen == 2 {
                panic!("auditor bug!");
            }
            vec![Finding::new("panicky", event.time, Severity::Info, event.kind.to_string())]
        }
        fn on_tick(&mut self, now: SimTime) -> Vec<Finding> {
            vec![Finding::new("panicky", now, Severity::Info, "tick")]
        }
    }

    #[test]
    fn panicking_auditor_is_isolated_restarted_and_its_findings_survive() {
        let (tap, handle) = spawn(Box::new(|| Box::new(Panicky { seen: 0 })));
        let mut em = EventMultiplexer::new();
        em.attach_tap(Box::new(tap));
        let mut vm = vm_state();
        // Delivered: ok, panic, (rebuilt) ok, panic, (rebuilt) ok.
        for pdba in 1..=5 {
            em.dispatch(&mut vm, &switch(pdba));
        }
        em.tick(&mut vm, SimTime::from_millis(9));
        // A syscall is outside the container's mask and never reaches it.
        let syscall = Event {
            kind: EventKind::Syscall {
                gate: crate::event::SyscallGate::Sysenter,
                number: 1,
                args: [0; 5],
            },
            ..switch(6)
        };
        em.dispatch(&mut vm, &syscall);
        assert_eq!(em.stats().events_in, 6, "the EM never noticed the panics");

        let (restarts, findings, panics) = handle.shutdown();
        assert_eq!(restarts, 2);
        assert_eq!(panics, ["auditor bug!", "auditor bug!"], "payloads are kept");
        // Findings from before and after each crash survive, in order.
        let messages: Vec<String> = findings.iter().map(|f| f.message.clone()).collect();
        let mut expected: Vec<String> = [1, 3, 5].map(|p| switch(p).kind.to_string()).into();
        expected.push("tick".to_owned());
        assert_eq!(messages, expected);
        assert!(findings.iter().all(|f| f.auditor == "panicky"));
    }

    #[test]
    fn container_panics_are_isolated_and_restarted() {
        type Seen = std::sync::Arc<std::sync::atomic::AtomicU64>;
        struct Counter(Seen);
        impl EventTap for Counter {
            fn on_event(&mut self, _event: &Event) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let (tap, handle) = spawn(Box::new(|| Box::new(Panicky { seen: 0 })));
        let seen = Seen::default();
        let mut em = EventMultiplexer::new();
        em.attach_tap(Box::new(tap));
        em.attach_tap(Box::new(Counter(seen.clone())));
        let mut vm = vm_state();
        for pdba in 1..=5 {
            em.dispatch(&mut vm, &switch(pdba));
        }
        // Every event still reached the observer attached after the
        // container, and the EM counted each one.
        assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 5);
        assert_eq!(em.stats().events_in, 5);
        let (restarts, findings, _) = handle.shutdown();
        assert_eq!(restarts, 2, "rebuilt after each panic");
        assert_eq!(findings.len(), 3, "the rebuilt auditor kept handling events");
    }

    #[test]
    fn container_panic_payloads_are_preserved() {
        /// Panics on every event, with a different payload type each time.
        struct Payloads;
        impl ContainerAuditor for Payloads {
            fn name(&self) -> &str {
                "payloads"
            }
            fn subscriptions(&self) -> EventMask {
                EventMask::ALL
            }
            fn on_event(&mut self, event: &Event) -> Vec<Finding> {
                match event.time.as_millis() {
                    n @ 1 => panic!("formatted payload {n}"),
                    2 => panic!("static payload"),
                    _ => std::panic::panic_any(7u32),
                }
            }
        }
        let (mut tap, handle) = spawn(Box::new(|| Box::new(Payloads)));
        for pdba in 1..=3 {
            tap.on_event(&switch(pdba));
        }
        let (restarts, findings, panics) = handle.shutdown();
        assert_eq!(restarts, 3);
        assert!(findings.is_empty());
        assert_eq!(panics, ["formatted payload 1", "static payload", "<non-string panic payload>"]);
    }

    #[test]
    fn shutdown_handles_every_event_sent_before_it() {
        /// Never panics: reports every event and tick.
        struct Quiet;
        impl ContainerAuditor for Quiet {
            fn name(&self) -> &str {
                "quiet"
            }
            fn subscriptions(&self) -> EventMask {
                EventMask::ALL
            }
            fn on_event(&mut self, event: &Event) -> Vec<Finding> {
                vec![Finding::new("quiet", event.time, Severity::Info, "event")]
            }
            fn on_tick(&mut self, now: SimTime) -> Vec<Finding> {
                vec![Finding::new("quiet", now, Severity::Info, "tick")]
            }
        }
        let (tap, handle) = spawn(Box::new(|| Box::new(Quiet)));
        let mut em = EventMultiplexer::new();
        em.attach_tap(Box::new(tap));
        let mut vm = vm_state();
        for pdba in 1..=64 {
            em.dispatch(&mut vm, &switch(pdba));
        }
        em.tick(&mut vm, SimTime::from_millis(100));
        // Shut down at once, without waiting: the worker must still drain
        // the whole queue first.
        let (restarts, findings, panics) = handle.shutdown();
        assert_eq!((restarts, panics.len()), (0, 0));
        assert_eq!(findings.len(), 65);
        let times: Vec<u64> = findings.iter().map(|f| f.time.as_millis()).collect();
        assert_eq!(times, (1..=64).chain([100]).collect::<Vec<_>>(), "handled in send order");
    }

    #[test]
    fn detached_container_receives_nothing_more() {
        let (tap, handle) = spawn(Box::new(|| Box::new(Panicky { seen: 0 })));
        let mut em = EventMultiplexer::new();
        em.attach_tap(Box::new(tap));
        let mut vm = vm_state();
        em.dispatch(&mut vm, &switch(1));
        let detached = em.detach_tap();
        assert_eq!(detached.len(), 1);
        // Once detached, further events and ticks never reach the worker,
        // so the auditor neither reports nor reaches its panicking event.
        em.dispatch(&mut vm, &switch(2));
        em.tick(&mut vm, SimTime::from_millis(3));
        assert_eq!(em.stats().events_in, 2);
        let (restarts, findings, panics) = handle.shutdown();
        assert_eq!((restarts, panics.len()), (0, 0));
        let messages: Vec<String> = findings.iter().map(|f| f.message.clone()).collect();
        assert_eq!(messages, [switch(1).kind.to_string()]);
        drop(detached);
    }
}
