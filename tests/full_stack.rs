//! Cross-crate integration tests: the full monitored-VM stack.
//!
//! These exercise the complete pipeline — guest kernel → architectural
//! operations → VM Exits → interception engines → Event Forwarder →
//! Event Multiplexer → auditors — end to end, the way the experiment
//! binaries use it.

use hypertap::harness::{EngineSelection, TapVm};
use hypertap::prelude::*;
use hypertap_guestos::program::UserView;
use hypertap_hvsim::clock::Duration;
use hypertap_hvsim::exit::ExitReason;

/// Booting the default guest produces the expected event mix: process
/// switches (CR3), thread switches (TSS writes), syscalls (SYSENTER), I/O.
#[test]
fn boot_produces_all_event_classes() {
    let mut vm = TapVm::builder().build();
    // A workload that exercises syscalls and disk I/O.
    let w = vm.kernel.register_program(
        "writer",
        Box::new(|| Box::new(FnProgram(|_v: &UserView<'_>| UserOp::sys(Sysno::Write, &[0, 4096])))),
    );
    let init = hypertap_workloads::make::install_init_running(&mut vm.kernel, w);
    vm.kernel.set_init_program(init);
    vm.run_for(Duration::from_millis(500));

    assert!(vm.kernel.is_booted());
    let stats = vm.machine.vm().stats();
    assert!(stats.count(ExitReason::CrAccess) > 0, "process switches");
    assert!(stats.count(ExitReason::EptViolation) > 0, "TSS writes + sysenter");
    assert!(stats.count(ExitReason::IoInst) > 0, "disk port I/O");
    assert!(stats.count(ExitReason::ExternalInt) > 0, "timer ticks");
    assert!(stats.count(ExitReason::Wrmsr) > 0, "sysenter MSR setup");
    assert!(vm.machine.hypervisor().forwarded_events() > 0);
}

/// GOSHD stays silent on a healthy guest.
#[test]
fn goshd_no_false_alarms_on_healthy_guest() {
    let mut vm = TapVm::builder()
        .goshd(hypertap_monitors::goshd::GoshdConfig { threshold: Duration::from_secs(2) })
        .build();
    vm.run_for(Duration::from_secs(20));
    let goshd = vm.auditor::<Goshd>().unwrap();
    assert!(goshd.alarms().is_empty(), "healthy guest must not alarm: {:?}", goshd.alarms());
}

/// GOSHD detects a hang injected by leaking a hot kernel lock, and the
/// hang is partial (the other vCPU keeps scheduling).
#[test]
fn goshd_detects_injected_hang() {
    let mut vm = TapVm::builder()
        .goshd(hypertap_monitors::goshd::GoshdConfig { threshold: Duration::from_secs(2) })
        .build();
    // Two writers (they hammer the vfs/ext3/block paths) on 2 vCPUs.
    let w = vm.kernel.register_program(
        "writer",
        Box::new(|| Box::new(FnProgram(|_v: &UserView<'_>| UserOp::sys(Sysno::Write, &[0, 4096])))),
    );
    let w_raw = w.0;
    let init = vm.kernel.register_program(
        "init",
        Box::new(move || {
            let mut stage = 0;
            Box::new(FnProgram(move |_v: &UserView<'_>| {
                stage += 1;
                match stage {
                    1 | 2 => UserOp::sys(Sysno::Spawn, &[w_raw, 1000]),
                    _ => UserOp::sys(Sysno::Nanosleep, &[3_600_000_000_000]),
                }
            }))
        }),
    );
    vm.kernel.set_init_program(init);
    // Leak every vfs lock release persistently: the writers will hang.
    struct LeakVfs;
    impl hypertap_guestos::fault::FaultHook for LeakVfs {
        fn check(
            &mut self,
            site: u32,
            acquire: bool,
        ) -> Option<hypertap_guestos::fault::FaultType> {
            let table = hypertap_guestos::klocks::LockTable::new();
            if !acquire && table.site(site as usize).subsystem == "vfs" {
                Some(hypertap_guestos::fault::FaultType::MissingUnlock)
            } else {
                None
            }
        }
        fn activations(&self) -> u64 {
            1
        }
    }
    vm.kernel.set_fault_hook(Box::new(LeakVfs));
    vm.run_for(Duration::from_secs(30));
    let goshd = vm.auditor::<Goshd>().unwrap();
    assert!(!goshd.alarms().is_empty(), "hang must be detected");
    let findings = vm.drain_findings();
    assert!(findings.iter().any(|f| f.auditor == "goshd"));
}

/// HRKD sees through a DKOM rootkit: the hidden process stays in the
/// trusted (architectural) view while vanishing from VMI.
#[test]
fn hrkd_detects_dkom_hidden_process() {
    let mut vm = TapVm::builder().hrkd().build();
    let rk = vm.kernel.register_module(rootkit_by_name("SucKIT").expect("table 2 rootkit"));
    // A busy victim process that gets hidden.
    let victim = vm.kernel.register_program(
        "victim",
        Box::new(|| Box::new(FnProgram(|_v: &UserView<'_>| UserOp::Compute(100_000)))),
    );
    let victim_raw = victim.0;
    let init = vm.kernel.register_program(
        "init",
        Box::new(move || {
            let mut stage = 0;
            let mut vpid = 0u64;
            Box::new(FnProgram(move |v: &UserView<'_>| {
                stage += 1;
                match stage {
                    1 => UserOp::sys(Sysno::Spawn, &[victim_raw, 1000]),
                    2 => {
                        vpid = v.last_ret;
                        // Give the victim time to run (so HRKD observes its
                        // CR3), then hide it.
                        UserOp::sys(Sysno::Nanosleep, &[50_000_000])
                    }
                    3 => UserOp::sys(Sysno::InstallModule, &[rk, vpid]),
                    _ => UserOp::sys(Sysno::Nanosleep, &[3_600_000_000_000]),
                }
            }))
        }),
    );
    vm.kernel.set_init_program(init);
    vm.run_for(Duration::from_millis(500));

    // Manual cross-validation (the way the Table II experiment drives it).
    let now = vm.now();
    let (machine, _kernel) = (&mut vm.machine, &vm.kernel);
    let (vmstate, kvm) = machine.parts_mut();
    let hrkd = kvm.em.auditor_mut::<Hrkd>().unwrap();
    let report = hrkd.cross_validate_vmi(vmstate, now);
    assert!(
        !report.hidden_pdbas.is_empty(),
        "the hidden process's address space must be flagged: {report:?}"
    );
}

/// HT-Ninja catches a privilege escalation at its first unauthorized I/O
/// syscall, even though the process also hides with a rootkit.
#[test]
fn htninja_catches_escalation_despite_rootkit() {
    let mut vm = TapVm::builder().htninja(NinjaRules::new()).build();
    let rk = vm.kernel.register_module(rootkit_by_name("FU").expect("table 2 rootkit"));
    let attack = vm.kernel.register_program(
        "exploit",
        Box::new(move || Box::new(AttackProgram::new(AttackConfig::rootkit_combined(rk)))),
    );
    let attack_raw = attack.0;
    // The attacker's shell: an unprivileged user process that launches the
    // exploit (so the escalated process's parent is uid 1000, outside the
    // magic group — as in the paper's scenario).
    let shell = vm.kernel.register_program(
        "sh",
        Box::new(move || {
            let mut stage = 0;
            Box::new(FnProgram(move |_v: &UserView<'_>| {
                stage += 1;
                match stage {
                    1 => UserOp::sys(Sysno::Nanosleep, &[100_000_000]),
                    2 => UserOp::sys(Sysno::Spawn, &[attack_raw, u64::MAX]),
                    _ => UserOp::sys(Sysno::Waitpid, &[]),
                }
            }))
        }),
    );
    let init = hypertap_workloads::make::install_init_running(&mut vm.kernel, shell);
    vm.kernel.set_init_program(init);
    vm.run_for(Duration::from_millis(500));
    let ninja = vm.auditor::<HtNinja>().unwrap();
    assert_eq!(ninja.detections().len(), 1, "exactly one attack, one catch");
    let d = &ninja.detections()[0];
    assert_eq!(d.comm, "exploit");
    assert_eq!(d.euid, 0);
    assert_eq!(d.parent_uid, 1000, "parent is the user's shell");
    assert_eq!(d.via, "io-syscall", "caught at the sensitive-data copy");
}

/// The TSS-integrity engine raises an alarm if something relocates a TSS.
#[test]
fn tss_relocation_is_flagged() {
    let mut vm = TapVm::builder().build();
    vm.run_for(Duration::from_millis(100));
    // Simulate a malicious TR move on vCPU 1 (host-side stand-in for a
    // hypothetical in-guest LTR attack).
    vm.machine.vm_mut().vcpu_mut(VcpuId(1)).set_tr_base(Gva::new(0x3333_0000));
    let (vmstate, kvm) = vm.machine.parts_mut();
    kvm.em.register(Box::new(CountingAuditor::with_mask(EventMask::only(
        hypertap_core::event::EventClass::Integrity,
    ))));
    let _ = vmstate;
    vm.run_for(Duration::from_millis(100));
    let c = vm.auditor::<CountingAuditor>().unwrap();
    assert_eq!(c.events_seen(), 1, "one TssRelocated event");
}

/// Monitoring overhead exists but is small for an idle-ish guest, and the
/// baseline (no engines) is strictly faster in guest time per work.
#[test]
fn monitoring_costs_guest_time() {
    let run = |engines: EngineSelection| -> u64 {
        let mut vm = TapVm::builder().engines(engines).build();
        let w = vm.kernel.register_program(
            "writer",
            Box::new(|| {
                let mut n = 0u64;
                Box::new(FnProgram(move |_v: &UserView<'_>| {
                    n += 1;
                    if n > 2_000 {
                        UserOp::sys(Sysno::Reboot, &[])
                    } else {
                        UserOp::sys(Sysno::Write, &[0, 4096])
                    }
                }))
            }),
        );
        let init = hypertap_workloads::make::install_init_running(&mut vm.kernel, w);
        vm.kernel.set_init_program(init);
        vm.run_for(Duration::from_secs(60));
        vm.now().as_nanos()
    };
    let base = run(EngineSelection::none());
    let monitored = run(EngineSelection::all());
    assert!(monitored > base, "monitoring must cost something");
    let overhead = (monitored - base) as f64 / base as f64;
    assert!(overhead < 0.5, "but not half the machine: {overhead}");
}
