//! Integration tests for the paper's *unified logging* claims (§IV-A) and
//! the enforcement/containment features of the framework.

use hypertap::harness::{EngineSelection, TapVm};
use hypertap::prelude::*;
use hypertap_core::container::{self, ContainerAuditor};
use hypertap_core::event::EventClass;
use hypertap_guestos::layout;
use hypertap_guestos::program::UserView;
use hypertap_hvsim::clock::Duration;

/// GOSHD (reliability) and HRKD (security) consume the *same* logged
/// context-switch events: with both registered, the number of events
/// forwarded by the Event Forwarder does not change — only the fan-out.
#[test]
fn one_logging_channel_feeds_reliability_and_security() {
    let run = |goshd: bool, hrkd: bool| -> (u64, u64) {
        let mut builder = TapVm::builder().engines(EngineSelection::context_switch_only());
        if goshd {
            builder = builder.goshd(GoshdConfig::paper_default());
        }
        if hrkd {
            builder = builder.hrkd();
        }
        let mut vm = builder.build();
        vm.run_for(Duration::from_secs(2));
        let forwarded = vm.machine.hypervisor().forwarded_events();
        let delivered = vm.machine.hypervisor().em.stats().sync_delivered;
        (forwarded, delivered)
    };
    let (f_one, d_one) = run(true, false);
    let (f_both, d_both) = run(true, true);
    assert_eq!(f_one, f_both, "logging volume is independent of the auditor count");
    assert_eq!(d_both, 2 * d_one, "each auditor gets its own delivery of the shared stream");
}

/// A containerised auditor receives the stream off the guest's back and its
/// crashes are contained and restarted — the Fig. 2 deployment.
#[test]
fn audit_containers_receive_and_survive_panics() {
    struct Flaky {
        seen: u64,
    }
    impl ContainerAuditor for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn subscriptions(&self) -> EventMask {
            EventMask::only(EventClass::ProcessSwitch).with(EventClass::ThreadSwitch)
        }
        fn on_event(&mut self, event: &Event) -> Vec<Finding> {
            self.seen += 1;
            if self.seen.is_multiple_of(5) {
                panic!("auditor bug");
            }
            vec![Finding::new("flaky", event.time, Severity::Info, "seen")]
        }
    }

    let mut vm = TapVm::builder().engines(EngineSelection::context_switch_only()).build();
    let (tap, handle) = container::spawn(Box::new(|| Box::new(Flaky { seen: 0 })));
    vm.machine.hypervisor_mut().em.attach_tap(Box::new(tap));
    vm.run_for(Duration::from_secs(2));

    let (restarts, findings, panics) = handle.shutdown();
    // Every delivered event either reported a finding or panicked.
    let delivered = findings.len() as u64 + restarts;
    assert!(delivered > 0, "events flowed to the container");
    assert!(restarts > 0, "the container absorbed at least one panic");
    assert_eq!(panics.len() as u64, restarts);
    assert!(!findings.is_empty(), "findings from before/after crashes survive");
    assert!(vm.drain_findings().is_empty(), "container findings stay out of the VM's stream");
}

/// The kernel-integrity auditor blocks an in-guest attempt to patch kernel
/// text: the write raises an EPT violation, the blocking auditor requests
/// suppression, and the text is unchanged.
#[test]
fn kernel_integrity_blocks_code_patching() {
    let mut vm = TapVm::builder().build();
    // Boot, then arm the protection on the kernel text page and register
    // the configured auditor.
    vm.run_for(Duration::from_millis(100));
    let kernel_pd = vm.kernel.kernel_pd();
    {
        let (vmstate, kvm) = vm.machine.parts_mut();
        let mut integrity = KernelIntegrity::new(true);
        integrity
            .protect_text(vmstate, kvm, kernel_pd, layout::KERNEL_TEXT)
            .expect("kernel text mapped after boot");
        kvm.em.register(Box::new(integrity));
    }
    let read_text = |vm: &TapVm| {
        let vmstate = vm.machine.vm();
        let gpa = hypertap_hvsim::paging::walk(&vmstate.mem, kernel_pd, layout::KERNEL_TEXT)
            .expect("mapped");
        vmstate.mem.read_u64(gpa)
    };
    let before = read_text(&vm);

    // The attacker: a kernel-memory write primitive aimed at the syscall
    // entry code (what a code-injecting rootkit does).
    let mut patcher = PatcherGuest;
    vm.machine.run_steps(&mut patcher, 1);

    assert_eq!(before, read_text(&vm), "the patch was suppressed");
    let attempts =
        vm.machine.hypervisor().em.auditor::<KernelIntegrity>().expect("registered").attempts();
    assert_eq!(attempts.len(), 1, "the attempt was recorded");
    assert!(attempts[0].blocked);
    assert_eq!(attempts[0].value, Some(0xBADC0DE));
}

/// HT-Ninja's pause-on-detect enforcement stops the VM before the attack
/// finishes exfiltrating.
#[test]
fn htninja_pause_stops_the_attack() {
    let mut vm = TapVm::builder().htninja_pausing(NinjaRules::new()).build();
    let rk = vm.kernel.register_module(rootkit_by_name("FU").unwrap());
    let attack = vm.kernel.register_program(
        "exploit",
        Box::new(move || Box::new(AttackProgram::new(AttackConfig::rootkit_combined(rk)))),
    );
    let attack_raw = attack.0;
    let shell = vm.kernel.register_program(
        "sh",
        Box::new(move || {
            let mut stage = 0;
            Box::new(FnProgram(move |_v: &UserView<'_>| {
                stage += 1;
                match stage {
                    1 => UserOp::sys(Sysno::Nanosleep, &[50_000_000]),
                    2 => UserOp::sys(Sysno::Spawn, &[attack_raw, u64::MAX]),
                    _ => UserOp::sys(Sysno::Waitpid, &[]),
                }
            }))
        }),
    );
    let init = hypertap::workloads::make::install_init_running(&mut vm.kernel, shell);
    vm.kernel.set_init_program(init);

    let exit = vm.run_for(Duration::from_secs(2));
    assert_eq!(exit, hypertap_hvsim::machine::RunExit::Paused, "the auditor froze the VM");
    let ninja = vm.auditor::<HtNinja>().unwrap();
    assert_eq!(ninja.detections().len(), 1);
    // The attack never completed: no attack-done mail.
    let mails = vm.kernel.drain_all_mailboxes();
    assert!(mails.iter().all(|(_, e)| e.tag != ATTACK_DONE_TAG));
}

/// Stand-in for a code-injecting rootkit: one raw write into kernel text.
struct PatcherGuest;
impl hypertap_hvsim::machine::GuestProgram for PatcherGuest {
    fn step(
        &mut self,
        cpu: &mut hypertap_hvsim::cpu::CpuCtx<'_>,
    ) -> hypertap_hvsim::cpu::StepOutcome {
        let _ = cpu.write_u64_gva(layout::KERNEL_TEXT, 0xBADC0DE);
        hypertap_hvsim::cpu::StepOutcome::Shutdown
    }
}

/// The Remote Health Checker notices when the monitored stack goes silent:
/// heartbeats flow while the guest runs, and a check after the VM stops
/// raises the liveness alarm (the in-process transport variant; the
/// `remote_health` example does the same over TCP).
#[test]
fn rhc_alarms_when_the_event_stream_stops() {
    use hypertap_core::rhc::{InProcTransport, RemoteHealthChecker};
    use std::cell::RefCell;
    use std::rc::Rc;

    let checker = Rc::new(RefCell::new(RemoteHealthChecker::new(1_000_000_000)));
    let mut vm = TapVm::builder().build();
    vm.machine.hypervisor_mut().em.attach_rhc(Box::new(InProcTransport::new(checker.clone())), 32);
    vm.run_for(Duration::from_secs(2));

    let now_ns = vm.now().as_nanos();
    {
        let mut c = checker.borrow_mut();
        assert!(c.received() > 10, "heartbeats flowed: {}", c.received());
        assert!(c.check(now_ns).is_none(), "healthy while running");
    }
    // The monitoring stack dies with the VM; 5 simulated seconds later the
    // external checker alarms.
    let mut c = checker.borrow_mut();
    let alert = c.check(now_ns + 5_000_000_000).expect("silence alarm");
    assert!(alert.last_heartbeat_ns.is_some());
}
