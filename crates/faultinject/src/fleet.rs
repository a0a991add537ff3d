//! Fleet-scale campaigns: fan the fault / rootkit / exploit scenarios
//! across a whole fleet of monitored guests.
//!
//! Where [`crate::campaign`] runs one fault-injection trial per VM
//! sequentially over a work queue, this driver builds a
//! [`hypertap_core::fleet::FleetHost`] whose every member is a full
//! monitored guest — workload plus (sampled per VM) a locking-discipline
//! fault from the catalogue, a privilege-escalation exploit, and a
//! DKOM rootkit hiding the escalated process — watched by GOSHD, periodic
//! HRKD cross-validation and HT-Ninja. Per-VM scenario sampling is a pure
//! function of `(base_seed, VmId)`, so the fleet determinism contract
//! holds: any worker count reproduces each VM's findings bit-for-bit.

use crate::spec::{FaultKind, Workload};
use hypertap_attacks::exploit::{AttackConfig, AttackProgram};
use hypertap_attacks::rootkits::all_rootkits;
use hypertap_core::fleet::{run_fleet, FleetConfig, FleetReport, FleetVm, FleetWorkload};
use hypertap_core::prelude::VmId;
use hypertap_guestos::fault::SingleFault;
use hypertap_guestos::kernel::KernelConfig;
use hypertap_guestos::klocks::SITE_COUNT;
use hypertap_guestos::program::{FnProgram, UserOp, UserView};
use hypertap_guestos::syscalls::Sysno;
use hypertap_hvsim::clock::Duration;
use hypertap_monitors::fleet::FleetMember;
use hypertap_monitors::goshd::GoshdConfig;
use hypertap_monitors::harness::{EngineSelection, TapVm};
use hypertap_monitors::ninja::rules::NinjaRules;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The attack (if any) a fleet VM hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAttack {
    /// Escalate, copy data, vanish in ~300 µs.
    Transient,
    /// Escalate, act, then load the indexed rootkit to hide.
    RootkitCombined(usize),
}

/// One VM's sampled scenario — a pure function of `(base_seed, vm)`.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// The VM this scenario belongs to.
    pub vm: VmId,
    /// Derived per-VM seed.
    pub seed: u64,
    /// The guest workload.
    pub workload: Workload,
    /// Kernel preemption model.
    pub preemptible: bool,
    /// Locking-discipline fault: catalogue site + persistence.
    pub fault: Option<(u32, bool)>,
    /// Privilege-escalation attack, possibly rootkit-hidden.
    pub attack: Option<FleetAttack>,
}

impl FleetScenario {
    /// Samples the scenario for one VM of a campaign.
    pub fn sample(base_seed: u64, vm: VmId) -> FleetScenario {
        let seed = base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(vm.0 as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        // HttpServer needs externally offered load, which a sliced fleet
        // member cannot arrange mid-run — sample the self-driving three.
        let workloads = [Workload::Hanoi, Workload::MakeJ1, Workload::MakeJ2];
        let workload = workloads[rng.gen_range(0usize..workloads.len())];
        let preemptible = rng.gen_range(0u32..2) == 1;
        let fault = if rng.gen_range(0u32..3) == 0 {
            Some((rng.gen_range(0u32..SITE_COUNT as u32), rng.gen_range(0u32..2) == 1))
        } else {
            None
        };
        let attack = match rng.gen_range(0u32..4) {
            0 => Some(FleetAttack::RootkitCombined(rng.gen_range(0usize..all_rootkits().len()))),
            1 => Some(FleetAttack::Transient),
            _ => None,
        };
        FleetScenario { vm, seed, workload, preemptible, fault, attack }
    }
}

/// A fleet-scale campaign: the [`FleetWorkload`] whose VMs are sampled
/// fault/exploit/rootkit scenarios under the full monitor set.
#[derive(Debug, Clone)]
pub struct FleetCampaign {
    /// Seed all per-VM sampling derives from.
    pub base_seed: u64,
    /// Simulated campaign length per VM.
    pub duration: Duration,
    /// Scheduling slice handed to each VM per fleet round.
    pub slice: Duration,
    /// GOSHD hang threshold.
    pub goshd_threshold: Duration,
    /// HRKD cross-validation period (how fast hidden tasks surface).
    pub hrkd_period: Duration,
}

impl FleetCampaign {
    /// A short campaign suitable for tests and benches: 150 ms of guest
    /// time in 10 ms slices, aggressive HRKD checks so rootkit-combined
    /// attacks surface within the window.
    pub fn quick(base_seed: u64) -> Self {
        FleetCampaign {
            base_seed,
            duration: Duration::from_millis(150),
            slice: Duration::from_millis(10),
            goshd_threshold: Duration::from_secs(2),
            hrkd_period: Duration::from_millis(25),
        }
    }
}

/// Builds the monitored guest for one sampled scenario.
pub fn build_campaign_vm(cfg: &FleetCampaign, scenario: &FleetScenario) -> TapVm {
    let mut vm = TapVm::builder()
        .vm_id(scenario.vm)
        .vcpus(2)
        .memory(1 << 28)
        .kernel(KernelConfig::new(2).with_preemption(scenario.preemptible))
        .engines(EngineSelection::all())
        .goshd(GoshdConfig { threshold: cfg.goshd_threshold })
        .hrkd_periodic(cfg.hrkd_period)
        .htninja(NinjaRules::new())
        .build();

    let workload = match scenario.workload {
        Workload::Hanoi => vm.kernel.register_program(
            "hanoi",
            Box::new(|| Box::new(hypertap_workloads::hanoi::Hanoi::paper_default())),
        ),
        Workload::MakeJ1 => hypertap_workloads::make::install(&mut vm.kernel, 1, 12),
        Workload::MakeJ2 => hypertap_workloads::make::install(&mut vm.kernel, 2, 12),
        Workload::HttpServer => unreachable!("fleet sampling excludes HttpServer"),
    };

    let shell = scenario.attack.map(|a| {
        let attack_cfg = match a {
            FleetAttack::Transient => AttackConfig::transient(),
            FleetAttack::RootkitCombined(idx) => {
                let module = vm.kernel.register_module(all_rootkits().swap_remove(idx));
                AttackConfig::rootkit_combined(module)
            }
        };
        let attack = vm.kernel.register_program(
            "exploit",
            Box::new(move || Box::new(AttackProgram::new(attack_cfg.clone()))),
        );
        // The attacker's (unprivileged) shell: the exploit inherits its
        // non-root uid, so the escalation to euid 0 is a rules violation —
        // a root process spawned by root would be "authorized".
        let attack_raw = attack.0;
        vm.kernel
            .register_program(
                "sh",
                Box::new(move || {
                    let mut stage = 0u32;
                    Box::new(FnProgram(move |_v: &UserView<'_>| {
                        stage += 1;
                        match stage {
                            // Let the workload settle before the break-in.
                            1 => UserOp::sys(Sysno::Nanosleep, &[30_000_000]),
                            2 => UserOp::sys(Sysno::Spawn, &[attack_raw, u64::MAX]),
                            _ => UserOp::sys(Sysno::Nanosleep, &[3_600_000_000_000]),
                        }
                    }))
                }),
            )
            .0
    });

    let workload_raw = workload.0;
    let init = vm.kernel.register_program(
        "init",
        Box::new(move || {
            let mut stage = 0u32;
            Box::new(FnProgram(move |_v: &UserView<'_>| {
                stage += 1;
                match (stage, shell) {
                    (1, _) => UserOp::sys(Sysno::Spawn, &[workload_raw, 1000]),
                    (2, Some(sh)) => UserOp::sys(Sysno::Spawn, &[sh, 1000]),
                    _ => UserOp::sys(Sysno::Waitpid, &[]),
                }
            }))
        }),
    );
    vm.kernel.set_init_program(init);

    if let Some((site, persistent)) = scenario.fault {
        let fault = FaultKind::for_site(site);
        vm.kernel.set_fault_hook(Box::new(SingleFault::new(site, fault.into(), persistent)));
    }
    vm
}

impl FleetWorkload for FleetCampaign {
    fn build_vm(&self, vm: VmId) -> Box<dyn FleetVm> {
        let scenario = FleetScenario::sample(self.base_seed, vm);
        let tap_vm = build_campaign_vm(self, &scenario);
        Box::new(FleetMember::new(tap_vm, vm, self.duration, self.slice))
    }
}

/// Host-wide summary of a fleet campaign (derived from the aggregator).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCampaignSummary {
    /// VMs that ran.
    pub vms: u64,
    /// VMs whose guest halted before the campaign deadline.
    pub halted: u64,
    /// Events that entered fan-out, summed over the fleet.
    pub events_in: u64,
    /// Findings over the whole fleet, tallied by reporting auditor.
    pub findings_by_auditor: Vec<(String, u64)>,
}

/// Runs a campaign over `vms` VMs on `workers` threads and summarizes.
pub fn run_fleet_campaign(
    campaign: &FleetCampaign,
    vms: usize,
    workers: usize,
) -> (FleetReport, FleetCampaignSummary) {
    let report = run_fleet(Arc::new(campaign.clone()), FleetConfig::new(vms, workers));
    let summary = summarize(&report);
    (report, summary)
}

/// Folds a fleet report into the campaign summary.
pub fn summarize(report: &FleetReport) -> FleetCampaignSummary {
    let agg = report.aggregate();
    let mut findings_by_auditor: Vec<(String, u64)> = Vec::new();
    for (_, finding) in agg.findings() {
        match findings_by_auditor.iter_mut().find(|(name, _)| *name == finding.auditor) {
            Some((_, n)) => *n += 1,
            None => findings_by_auditor.push((finding.auditor.clone(), 1)),
        }
    }
    FleetCampaignSummary {
        vms: agg.vm_count(),
        halted: agg.halted_count(),
        events_in: agg.stats().events_in,
        findings_by_auditor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertap_core::fleet::{run_vm_alone, VmReport};

    #[test]
    fn sampling_is_deterministic_and_covers_attacks() {
        let a = FleetScenario::sample(9, VmId(4));
        let b = FleetScenario::sample(9, VmId(4));
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.attack, b.attack);
        let attacks =
            (0..32).filter(|&i| FleetScenario::sample(9, VmId(i)).attack.is_some()).count();
        assert!(attacks > 4, "about half the fleet should host an attack, got {attacks}");
    }

    #[test]
    fn campaign_fleet_matches_single_vm_runs_and_finds_attacks() {
        let campaign = FleetCampaign::quick(0xF1EE7);
        let vms = 6;
        let baseline: Vec<VmReport> =
            (0..vms).map(|i| run_vm_alone(&campaign, VmId(i as u32))).collect();
        // Every worker count must reproduce the lone-VM runs bit for bit:
        // the worker pool changes scheduling, never per-VM results.
        for workers in [1, 2, 4, 8] {
            let (report, summary) = run_fleet_campaign(&campaign, vms, workers);
            assert_eq!(report.per_vm.len(), vms);
            for (got, want) in report.per_vm.iter().zip(baseline.iter()) {
                assert_eq!(got.vm, want.vm);
                assert_eq!(got.findings, want.findings, "vm {:?} at {workers} workers", got.vm);
                assert_eq!(got.stats, want.stats, "vm {:?} at {workers} workers", got.vm);
            }
            assert_eq!(summary.vms, vms as u64);
            assert!(summary.events_in > 0, "live guests must produce events");
            // With ~half the VMs hosting an attack under HT-Ninja + periodic
            // HRKD, the fleet as a whole must catch something.
            assert!(
                !summary.findings_by_auditor.is_empty(),
                "expected at least one auditor finding across the fleet: {summary:?}"
            );
        }
    }
}
