//! The five benchmark workloads.
//!
//! Each workload is a fixed, seeded pool of operations ("ops"). One pass
//! over the pool is a *block*; every op builds fresh VMs, so a block is the
//! same host work every time it runs. Inputs come from the seed only: the
//! program under test sees the generated scenarios and campaigns.

use crate::trace;
use crate::wrap::{self, timed_auditor, Sampler, TimedTap};
use hypertap_attacks::rootkits::all_rootkits;
use hypertap_core::audit::{Auditor, CountingAuditor};
use hypertap_core::em::{EventMultiplexer, EventTap};
use hypertap_core::fleet::{
    run_fleet, FleetConfig, FleetReport, FleetVm, FleetWorkload, SliceOutcome, VmReport,
};
use hypertap_core::metrics::MetricsRegistry;
use hypertap_core::prelude::VmId;
use hypertap_faultinject::fleet::{build_campaign_vm, FleetCampaign, FleetScenario};
use hypertap_guestos::kernel::KernelConfig;
use hypertap_guestos::klocks::SITE_COUNT;
use hypertap_guestos::layout;
use hypertap_guestos::program::{FnProgram, UserOp, UserView};
use hypertap_guestos::syscalls::Sysno;
use hypertap_hvsim::clock::{Duration, SimTime};
use hypertap_hvsim::machine::RunExit;
use hypertap_monitors::goshd::{Goshd, GoshdConfig};
use hypertap_monitors::harness::{EngineSelection, TapVm};
use hypertap_monitors::hrkd::Hrkd;
use hypertap_monitors::ninja::htninja::HtNinja;
use hypertap_monitors::ninja::rules::NinjaRules;
use hypertap_replay::prelude::{
    build_scenario_vm, compress, decompress, register_auditors, replay_trace, validate_provenance,
    Scenario, Trace, TraceHeader, TraceRecorder, Verdict, BASE,
};
use hypertap_replay::scenario::WorkloadMix;
use hypertap_workloads::unixbench::{self, Ubench};
use std::sync::Arc;

/// Workload names, in the order `perf` runs them.
pub const WORKLOADS: [&str; 5] =
    ["fig7", "syscall-storm", "hanoi-compute", "record-replay", "fleet64"];

/// Simulated counters one op accumulates (deterministic for a given op).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Simulated guest time, ns (summed over the op's VMs).
    pub sim_ns: u64,
    /// VM exits.
    pub exits: u64,
    /// Events that entered EM fan-out.
    pub em_events: u64,
    /// Events rejected by the EM's combined-mask fast skip.
    pub fast_skipped: u64,
    /// Per-auditor synchronous deliveries.
    pub delivered: u64,
    /// Software-TLB hits.
    pub tlb_hits: u64,
    /// Software-TLB lookups.
    pub tlb_lookups: u64,
    /// Findings reported.
    pub findings: u64,
    /// Events in recorded traces.
    pub trace_events: u64,
    /// Encoded trace bytes.
    pub trace_bytes: u64,
    /// Compressed trace bytes.
    pub compressed_bytes: u64,
    /// Snapshot bytes.
    pub snap_bytes: u64,
    /// Snapshots taken.
    pub snapshots: u64,
}

impl Counts {
    /// Adds `o` field-wise.
    pub fn add(&mut self, o: &Counts) {
        self.sim_ns += o.sim_ns;
        self.exits += o.exits;
        self.em_events += o.em_events;
        self.fast_skipped += o.fast_skipped;
        self.delivered += o.delivered;
        self.tlb_hits += o.tlb_hits;
        self.tlb_lookups += o.tlb_lookups;
        self.findings += o.findings;
        self.trace_events += o.trace_events;
        self.trace_bytes += o.trace_bytes;
        self.compressed_bytes += o.compressed_bytes;
        self.snap_bytes += o.snap_bytes;
        self.snapshots += o.snapshots;
    }
}

/// What one op produced.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// Simulated digest: FNV-1a over simulated time, exit counts by reason,
    /// forwarded events, rendered findings and trace bytes.
    pub digest: u64,
    /// Simulated counters.
    pub counts: Counts,
    /// Why the op's output checks failed, if they did.
    pub error: Option<String>,
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes a number.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Whether an op runs behind the timing wrappers, and the seed its step
/// sampler derives from.
#[derive(Debug, Clone, Copy)]
pub struct Tracing {
    /// Timing wrappers on.
    pub on: bool,
    /// Benchmark seed.
    pub seed: u64,
}

/// One monitored VM as an op drives it: plain, or instrumented with its
/// own step sampler.
struct Vm {
    vm: TapVm,
    sampler: Option<Sampler>,
}

impl Vm {
    /// Builds a VM from `recipe`; when tracing, times the build and puts
    /// the VM behind the wrappers with `auditors` (the recipe's roster).
    fn build(
        t: Tracing,
        salt: u64,
        recipe: impl FnOnce() -> TapVm,
        auditors: impl FnOnce() -> Vec<Box<dyn Auditor>>,
    ) -> Vm {
        if !t.on {
            return Vm { vm: recipe(), sampler: None };
        }
        trace::span(trace::VM_BUILD, || {
            let mut vm = recipe();
            wrap::instrument(&mut vm, auditors());
            Vm { vm, sampler: Some(Sampler::new(t.seed, salt)) }
        })
    }

    fn run_until(&mut self, deadline: SimTime) -> RunExit {
        match &mut self.sampler {
            Some(s) => wrap::run_until(&mut self.vm, s, deadline),
            None => self.vm.run_until(deadline),
        }
    }

    /// Hashes the VM's simulated outcome, drains its findings into the hash
    /// and returns its counters.
    fn digest_into(&mut self, h: &mut Fnv) -> Counts {
        hash_machine(h, &self.vm);
        let findings = self.vm.drain_findings();
        for f in &findings {
            h.str(&f.to_string());
        }
        Counts { findings: findings.len() as u64, ..vm_counts(&self.vm) }
    }
}

/// Hashes simulated time, exit counts by reason and forwarded events.
fn hash_machine(h: &mut Fnv, vm: &TapVm) {
    h.u64(vm.now().as_nanos());
    for (reason, n) in vm.machine.vm().stats().iter() {
        h.str(reason);
        h.u64(n);
    }
    h.u64(vm.machine.hypervisor().forwarded_events());
}

fn vm_counts(vm: &TapVm) -> Counts {
    let state = vm.machine.vm();
    let em = vm.machine.hypervisor().em.stats();
    let tlb = state.tlb_stats();
    Counts {
        sim_ns: vm.now().as_nanos(),
        exits: state.stats().total(),
        em_events: em.events_in,
        fast_skipped: em.fast_skipped,
        delivered: em.sync_delivered,
        tlb_hits: tlb.hits,
        tlb_lookups: tlb.lookups(),
        ..Counts::default()
    }
}

/// A benchmark workload: a fixed pool of ops generated from the seed.
pub trait Workload {
    /// Ops per block (one pass over the pool).
    fn block_len(&self) -> usize;

    /// Ops of the pool (from op 0) that set-up runs as its warm-up.
    fn warmup_ops(&self) -> usize;

    /// Runs op `i` of the pool (`i < block_len`).
    fn run_op(&mut self, i: usize, t: Tracing) -> OpOutput;
}

/// Generates a workload's inputs from `seed`.
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fig7" => Box::new(Fig7 { times: Default::default() }),
        "syscall-storm" => Box::new(ScenarioPool::new(seed, STORM_POOL, Some(WorkloadMix::Writer))),
        "hanoi-compute" => Box::new(ScenarioPool::new(seed, HANOI_POOL, Some(WorkloadMix::Hanoi))),
        "record-replay" => {
            Box::new(RecordReplay { pool: ScenarioPool::new(seed, RECORD_POOL, None) })
        }
        "fleet64" => Box::new(Fleet64 {
            campaigns: (0..FLEET_POOL as u64)
                .map(|i| {
                    FleetCampaign::quick(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
                })
                .collect(),
        }),
        _ => return None,
    })
}

// ---------------------------------------------------------------- fig7 ---

/// The monitoring configurations of the paper's Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig7Config {
    /// No engines, no auditors.
    Baseline,
    /// HRKD alone.
    Hrkd,
    /// HT-Ninja alone.
    HtNinja,
    /// GOSHD + HRKD + HT-Ninja on the shared channel.
    AllThree,
}

impl Fig7Config {
    /// All four, baseline first.
    pub const ALL: [Fig7Config; 4] =
        [Fig7Config::Baseline, Fig7Config::Hrkd, Fig7Config::HtNinja, Fig7Config::AllThree];
}

/// The Fig. 7 VM for one (benchmark, configuration) pair: a 2-vCPU guest
/// whose init spawns the benchmark program and waits; the benchmark reboots
/// the VM when done.
fn fig7_vm(bench: Ubench, config: Fig7Config) -> TapVm {
    let builder = TapVm::builder()
        .vcpus(2)
        .memory(512 << 20)
        .kernel(KernelConfig::new(2))
        .em_tick(Duration::from_millis(1));
    let builder = match config {
        Fig7Config::Baseline => builder.engines(EngineSelection::none()),
        Fig7Config::Hrkd => builder.engines(EngineSelection::context_switch_only()).hrkd(),
        Fig7Config::HtNinja => {
            let mut sel = EngineSelection::context_switch_only();
            sel.int_syscall = true;
            sel.fast_syscall = true;
            builder.engines(sel).htninja(NinjaRules::new())
        }
        Fig7Config::AllThree => builder
            .engines(EngineSelection::all())
            .goshd(GoshdConfig::paper_default())
            .hrkd()
            .htninja(NinjaRules::new()),
    };
    let mut vm = builder.build();
    let program = unixbench::install(&mut vm.kernel, bench).0;
    let init = vm.kernel.register_program(
        "init",
        Box::new(move || {
            let mut started = false;
            Box::new(FnProgram(move |_v: &UserView<'_>| {
                if started {
                    UserOp::sys(Sysno::Waitpid, &[])
                } else {
                    started = true;
                    UserOp::sys(Sysno::Spawn, &[program, 0])
                }
            }))
        }),
    );
    vm.kernel.set_init_program(init);
    vm
}

/// The auditor roster [`fig7_vm`] registers, in registration order,
/// behind the timing wrappers.
fn fig7_auditors(config: Fig7Config) -> Vec<Box<dyn Auditor>> {
    let hrkd = || timed_auditor(Hrkd::new(layout::os_profile(), layout::KERNEL_TEXT), false);
    let htninja = || timed_auditor(HtNinja::new(layout::os_profile(), NinjaRules::new(), 2), false);
    match config {
        Fig7Config::Baseline => Vec::new(),
        Fig7Config::Hrkd => vec![hrkd()],
        Fig7Config::HtNinja => vec![htninja()],
        Fig7Config::AllThree => {
            vec![
                timed_auditor(Goshd::new(2, GoshdConfig::paper_default()), false),
                hrkd(),
                htninja(),
            ]
        }
    }
}

/// Runs one Fig. 7 VM to completion; returns the op's output and the
/// benchmark's simulated completion time (`None`, and an error, if the
/// benchmark did not shut the VM down).
pub fn run_fig7_vm(
    bench: Ubench,
    config: Fig7Config,
    t: Tracing,
    salt: u64,
) -> (OpOutput, Option<Duration>) {
    let mut vm = Vm::build(t, salt, || fig7_vm(bench, config), || fig7_auditors(config));
    let deadline = vm.vm.now() + Duration::from_secs(600);
    let finished = vm.run_until(deadline) == RunExit::Shutdown;
    let mut h = Fnv::default();
    let counts = vm.digest_into(&mut h);
    let error = (!finished).then(|| format!("{bench} under {config:?} did not finish"));
    let done = finished.then(|| Duration::from_nanos(counts.sim_ns));
    (OpOutput { digest: h.finish(), counts, error }, done)
}

/// Fig. 7 runs per pass: 12 benchmarks x 4 configurations.
const FIG7_PASS: usize = 48;

/// One op: one (benchmark, configuration) VM of the suite, in Fig. 7 row
/// order; the last op of each pass checks the pass's overheads.
struct Fig7 {
    /// Completion times of the current pass, per benchmark and
    /// configuration (`None` until run, or if the VM did not finish).
    times: [[Option<Duration>; 4]; 12],
}

impl Workload for Fig7 {
    fn block_len(&self) -> usize {
        FIG7_PASSES * FIG7_PASS
    }

    fn warmup_ops(&self) -> usize {
        FIG7_PASS
    }

    fn run_op(&mut self, i: usize, t: Tracing) -> OpOutput {
        let (j, k) = (i % FIG7_PASS / 4, i % 4);
        if i.is_multiple_of(FIG7_PASS) {
            self.times = Default::default();
        }
        let (mut out, done) = run_fig7_vm(Ubench::suite()[j], Fig7Config::ALL[k], t, i as u64);
        self.times[j][k] = done;
        if i % FIG7_PASS == FIG7_PASS - 1 && out.error.is_none() {
            out.error = check_fig7(&self.times).err();
        }
        out
    }
}

fn overhead(base: Duration, with: Duration) -> f64 {
    (with.as_nanos() as f64 - base.as_nanos() as f64) / base.as_nanos() as f64
}

/// The paper's per-class claims (EXPERIMENTS.md, Fig. 7) as checks on one
/// pass: CPU-bound < 2 %, disk-I/O mean < 5 %, system-call mean 19 % ± 3 pp,
/// and all three auditors together cost at most the slowest one + 0.5 pp.
fn check_fig7(times: &[[Option<Duration>; 4]; 12]) -> Result<(), String> {
    let mut disk = Vec::new();
    let mut syscall = Vec::new();
    for (bench, row) in Ubench::suite().into_iter().zip(times) {
        let Some(t) = row.iter().copied().collect::<Option<Vec<Duration>>>() else {
            return Err(format!("{bench}: the pass is incomplete"));
        };
        let (hrkd, htninja, all) =
            (overhead(t[0], t[1]), overhead(t[0], t[2]), overhead(t[0], t[3]));
        match bench.class() {
            "cpu" if all >= 0.02 => {
                return Err(format!("{bench}: CPU-bound overhead {all:.4} >= 2 %"))
            }
            "disk-io" => disk.push(all),
            "syscall" => syscall.push(all),
            _ => {}
        }
        if all > hrkd.max(htninja) + 0.005 {
            return Err(format!(
                "{bench}: all three {all:.4} > max(HRKD {hrkd:.4}, HT-Ninja {htninja:.4}) + 0.5 pp"
            ));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if mean(&disk) >= 0.05 {
        return Err(format!("disk-I/O mean overhead {:.4} >= 5 %", mean(&disk)));
    }
    if (mean(&syscall) - 0.19).abs() > 0.03 {
        return Err(format!(
            "system-call mean overhead {:.4} outside 19 % +- 3 pp",
            mean(&syscall)
        ));
    }
    Ok(())
}

// ------------------------------------------------- scenario workloads ---

/// One sampled guest scenario per op, from `replay::Scenario::sample`.
/// The sampler's shape choices are stratified instead of drawn, so that
/// every seed's pool has the same shape: the mix is forced (or cycles
/// through all five when `None`), the vCPU count alternates 1, 2, the
/// length spreads evenly over the sampler's 150–400 ms, and every third
/// scenario has a lock fault and every fourth a rootkit (the sampler's
/// rates). Seeds differ in the fault sites and kinds, the rootkits and the
/// preemption model.
struct ScenarioPool {
    scenarios: Vec<Scenario>,
}

impl ScenarioPool {
    fn new(seed: u64, len: usize, mix: Option<WorkloadMix>) -> Self {
        ScenarioPool { scenarios: (0..len).map(|i| pool_scenario(seed, i, mix)).collect() }
    }
}

/// Scenario `i` of a pool (see [`ScenarioPool`]).
pub fn pool_scenario(seed: u64, i: usize, mix: Option<WorkloadMix>) -> Scenario {
    let mut s = Scenario::sample(seed, i as u64);
    s.mix = mix.unwrap_or(WorkloadMix::ALL[i % WorkloadMix::ALL.len()]);
    s.vcpus = 1 + i % 2;
    // Golden-ratio sequence: an even spread for any pool size.
    let spread = (i as f64 * 0.618_033_988_75).fract();
    s.duration = Duration::from_millis(150 + (250.0 * spread) as u64);
    let h = s.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    s.fault = i.is_multiple_of(3).then_some(((h % SITE_COUNT as u64) as u32, (h >> 32) & 1 == 1));
    s.rootkit = (i % 4 == 1).then_some(((h >> 16) % all_rootkits().len() as u64) as usize);
    s.name = format!("s{i}/{}", s.mix.label());
    s
}

/// The auditor roster `replay::scenario::register_auditors` registers,
/// behind the timing wrappers (in a replay, their events count as
/// `em.replay.audit`).
fn scenario_auditors(vcpus: usize, replay: bool) -> Vec<Box<dyn Auditor>> {
    vec![
        timed_auditor(Goshd::new(vcpus, GoshdConfig::paper_default()), replay),
        timed_auditor(Hrkd::new(layout::os_profile(), layout::KERNEL_TEXT), replay),
        timed_auditor(CountingAuditor::new(), replay),
    ]
}

fn build_scenario(s: &Scenario, t: Tracing, salt: u64) -> Vm {
    Vm::build(
        t,
        salt,
        || build_scenario_vm(s, &BASE, VmId(0)),
        || scenario_auditors(s.vcpus, false),
    )
}

impl Workload for ScenarioPool {
    fn block_len(&self) -> usize {
        self.scenarios.len()
    }

    fn warmup_ops(&self) -> usize {
        SCENARIO_WARMUP
    }

    fn run_op(&mut self, i: usize, t: Tracing) -> OpOutput {
        let s = &self.scenarios[i];
        let mut vm = build_scenario(s, t, i as u64);
        let deadline = vm.vm.now() + s.duration;
        vm.run_until(deadline);
        let mut h = Fnv::default();
        let counts = vm.digest_into(&mut h);
        OpOutput { digest: h.finish(), counts, error: None }
    }
}

/// One op is a round of five sampled scenarios, one of each mix (a single
/// scenario's cost depends on its mix, and rounds keep the op latency
/// distribution from splitting into five modes). Each scenario is recorded
/// live with a trace recorder tap, snapshotted at mid-run and restored into
/// a rebuilt VM, then encoded, compressed, decompressed, decoded and
/// replayed without the simulator.
struct RecordReplay {
    pool: ScenarioPool,
}

/// Records scenario `s` with a mid-run snapshot → rebuild → restore, and
/// returns the trace, the live verdict and the run's counters. The VM's
/// simulated outcome is hashed into `h`.
pub fn record_with_snapshot(
    s: &Scenario,
    t: Tracing,
    salt: u64,
    h: &mut Fnv,
) -> Result<(Trace, Verdict, Counts), String> {
    let recorder =
        TraceRecorder::new(TraceHeader::new(s.vcpus as u64, s.seed, s.name.clone(), BASE.label));
    let tap = || -> Box<dyn EventTap> {
        if t.on {
            Box::new(TimedTap::new(recorder.tap()))
        } else {
            recorder.tap()
        }
    };
    let mut vm = build_scenario(s, t, salt);
    vm.vm.machine.hypervisor_mut().em.attach_tap(tap());
    let deadline = vm.vm.now() + s.duration;
    let mid = vm.vm.now() + Duration::from_nanos(s.duration.as_nanos() / 2);
    vm.run_until(mid);
    let bytes =
        timed(t, trace::SNAP_SAVE, || vm.vm.snapshot()).map_err(|e| format!("snapshot: {e}"))?;
    let mut fresh = build_scenario(s, t, salt ^ 1 << 32);
    timed(t, trace::SNAP_RESTORE, || fresh.vm.restore(&bytes))
        .map_err(|e| format!("restore: {e}"))?;
    fresh.vm.machine.hypervisor_mut().em.attach_tap(tap());
    fresh.run_until(deadline);
    fresh.vm.machine.hypervisor_mut().em.detach_tap();
    hash_machine(h, &fresh.vm);
    let counts = Counts { snapshots: 1, snap_bytes: bytes.len() as u64, ..vm_counts(&fresh.vm) };
    let trace = recorder.finish();
    let verdict = Verdict::collect(&mut fresh.vm.machine.hypervisor_mut().em, &trace);
    Ok((trace, verdict, counts))
}

fn timed<R>(t: Tracing, layer: usize, f: impl FnOnce() -> R) -> R {
    if t.on {
        trace::span(layer, f)
    } else {
        f()
    }
}

impl Workload for RecordReplay {
    fn block_len(&self) -> usize {
        self.pool.scenarios.len() / MIXES
    }

    fn warmup_ops(&self) -> usize {
        SCENARIO_WARMUP / MIXES
    }

    fn run_op(&mut self, i: usize, t: Tracing) -> OpOutput {
        let mut counts = Counts::default();
        let mut h = Fnv::default();
        let mut error = None;
        for k in MIXES * i..MIXES * (i + 1) {
            let result = record_replay(&self.pool.scenarios[k], t, k as u64, &mut h, &mut counts);
            error = error.or(result.err());
        }
        OpOutput { digest: h.finish(), counts, error }
    }
}

/// Records, round-trips and replays scenario `s`, hashing its outcome into
/// `h` and adding its counters to `counts`; fails on any output mismatch.
fn record_replay(
    s: &Scenario,
    t: Tracing,
    salt: u64,
    h: &mut Fnv,
    counts: &mut Counts,
) -> Result<(), String> {
    let (trace, live, recorded) = record_with_snapshot(s, t, salt, h)?;
    counts.add(&recorded);
    let encoded = timed(t, trace::ENCODE, || trace.encode());
    let packed = timed(t, trace::COMPRESS, || compress(&encoded));
    let unpacked = timed(t, trace::DECOMPRESS, || decompress(&packed))
        .map_err(|e| format!("decompress: {e}"))?;
    let decoded =
        timed(t, trace::DECODE, || Trace::decode(&unpacked)).map_err(|e| format!("decode: {e}"))?;
    let replayed = if t.on {
        trace::span(trace::REPLAY, || {
            replay_trace(&decoded, |em: &mut EventMultiplexer| {
                for a in scenario_auditors(s.vcpus, true) {
                    em.register(a);
                }
            })
        })
    } else {
        replay_trace(&decoded, |em| register_auditors(em, s.vcpus))
    };
    counts.trace_events += trace.event_count();
    counts.trace_bytes += encoded.len() as u64;
    counts.compressed_bytes += packed.len() as u64;
    counts.findings += live.findings.len() as u64;
    for f in &live.findings {
        h.str(f);
    }
    h.bytes(&encoded);
    if unpacked != encoded {
        return Err("decompress(compress(bytes)) != bytes".to_owned());
    }
    if decoded != trace {
        return Err("decode(encode(trace)) != trace".to_owned());
    }
    if replayed != live {
        return Err(format!("{}: replayed verdict differs from the live one", s.name));
    }
    validate_provenance(&live, &trace)
}

// ------------------------------------------------------------- fleet64 ---

/// Fleet size of one campaign.
const FLEET_VMS: usize = 64;
/// Fleet worker threads: no more than the cores of the 2-core host the
/// benchmark was sized on.
pub(crate) const FLEET_WORKERS: usize = 2;

/// One op: a `FleetCampaign::quick` campaign of 64 VMs on 2 workers; the
/// pool holds campaigns for a few seeds derived from the benchmark seed, so
/// that a run's cost does not hang on one campaign's sampled faults.
struct Fleet64 {
    campaigns: Vec<FleetCampaign>,
}

impl Workload for Fleet64 {
    fn block_len(&self) -> usize {
        self.campaigns.len()
    }

    fn warmup_ops(&self) -> usize {
        1
    }

    fn run_op(&mut self, i: usize, t: Tracing) -> OpOutput {
        let cfg = FleetConfig::new(FLEET_VMS, FLEET_WORKERS);
        let campaign = self.campaigns[i].clone();
        let report = if t.on {
            let workload =
                TracedFleet { campaign, seed: t.seed, op: trace::current_op(), block_op: i as u64 };
            trace::span(trace::FLEET_CAMPAIGN, || run_fleet(Arc::new(workload), cfg))
        } else {
            run_fleet(Arc::new(campaign), cfg)
        };
        fleet_output(&report)
    }
}

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.find(name, &[]).and_then(|v| v.as_counter()).unwrap_or(0)
}

fn fleet_output(report: &FleetReport) -> OpOutput {
    let mut h = Fnv::default();
    let mut counts = Counts::default();
    let mut error = None;
    if report.per_vm.len() != FLEET_VMS {
        error = Some(format!("{} of {FLEET_VMS} VMs reported", report.per_vm.len()));
    }
    for r in &report.per_vm {
        let m = &r.metrics;
        let sim_ns =
            m.find("hypertap_vm_sim_time_ns", &[]).and_then(|v| v.as_gauge()).unwrap_or(0.0) as u64;
        let exits: u64 = m
            .entries()
            .iter()
            .filter(|e| e.name == "hypertap_vm_exits_total")
            .map(|e| e.value.as_counter().unwrap_or(0))
            .sum();
        let c = Counts {
            sim_ns,
            exits,
            em_events: r.stats.events_in,
            fast_skipped: r.stats.fast_skipped,
            delivered: r.stats.sync_delivered,
            tlb_hits: counter(m, "hypertap_tlb_hits_total"),
            tlb_lookups: counter(m, "hypertap_tlb_hits_total")
                + counter(m, "hypertap_tlb_misses_total"),
            findings: r.findings.len() as u64,
            ..Counts::default()
        };
        h.u64(u64::from(r.vm.0));
        h.u64(c.sim_ns);
        for e in m.entries().iter().filter(|e| e.name == "hypertap_vm_exits_total") {
            h.str(&e.labels.iter().map(|(_, v)| v.as_str()).collect::<String>());
            h.u64(e.value.as_counter().unwrap_or(0));
        }
        h.u64(counter(m, "hypertap_ef_forwarded_events_total"));
        h.u64(u64::from(r.halted));
        for f in &r.findings {
            h.str(&f.to_string());
        }
        counts.add(&c);
    }
    OpOutput { digest: h.finish(), counts, error }
}

/// The campaign's recipe with every VM behind the timing wrappers.
struct TracedFleet {
    campaign: FleetCampaign,
    seed: u64,
    op: u64,
    block_op: u64,
}

impl FleetWorkload for TracedFleet {
    fn build_vm(&self, id: VmId) -> Box<dyn FleetVm> {
        trace::set_op(self.op);
        let c = &self.campaign;
        let t = Tracing { on: true, seed: self.seed };
        let salt = (self.block_op << 16) | u64::from(id.0);
        let vm = Vm::build(
            t,
            salt,
            || build_campaign_vm(c, &FleetScenario::sample(c.base_seed, id)),
            || fleet_auditors(c),
        );
        let deadline = vm.vm.now() + c.duration;
        Box::new(TracedMember {
            vm: Some(vm),
            id,
            deadline,
            slice: c.slice,
            halted: false,
            done: false,
        })
    }
}

/// The auditor roster `build_campaign_vm` registers, in registration
/// order, behind the timing wrappers.
fn fleet_auditors(c: &FleetCampaign) -> Vec<Box<dyn Auditor>> {
    vec![
        timed_auditor(Goshd::new(2, GoshdConfig { threshold: c.goshd_threshold }), false),
        timed_auditor(
            Hrkd::new(layout::os_profile(), layout::KERNEL_TEXT).with_periodic_check(c.hrkd_period),
            false,
        ),
        timed_auditor(HtNinja::new(layout::os_profile(), NinjaRules::new(), 2), false),
    ]
}

/// A fleet member with the same slice protocol as
/// `hypertap_monitors::fleet::FleetMember`, driving its instrumented VM
/// through the step wrapper and timing each slice. Dropping it drops the
/// VM (whose wrappers hand in their call counts) and flushes the worker
/// thread's spans.
struct TracedMember {
    vm: Option<Vm>,
    id: VmId,
    deadline: SimTime,
    slice: Duration,
    halted: bool,
    done: bool,
}

impl TracedMember {
    fn vm(&mut self) -> &mut Vm {
        self.vm.as_mut().expect("a member keeps its VM until dropped")
    }
}

impl Drop for TracedMember {
    fn drop(&mut self) {
        drop(self.vm.take());
        trace::flush();
    }
}

impl FleetVm for TracedMember {
    fn step_slice(&mut self) -> SliceOutcome {
        trace::span(trace::FLEET_SLICE, || {
            if self.done {
                return SliceOutcome::Done;
            }
            let (id, deadline, slice) = (self.id, self.deadline, self.slice);
            let vm = self.vm();
            let before = vm.vm.now();
            let wall =
                vm.vm.machine.hypervisor().em.flight().is_enabled().then(std::time::Instant::now);
            let target = (before + slice).min(deadline);
            let exit = vm.run_until(target);
            let now = vm.vm.now();
            if let Some(wall) = wall {
                let ns = wall.elapsed().as_nanos() as u64;
                vm.vm.machine.hypervisor_mut().em.flight_mut().note_span(
                    "fleet-slice",
                    before,
                    ns,
                    id.0,
                );
            }
            match exit {
                RunExit::Shutdown | RunExit::Paused => {
                    self.halted = true;
                    self.done = true;
                }
                RunExit::AllIdle if now == before => {
                    self.halted = true;
                    self.done = true;
                }
                _ => self.done = now >= deadline,
            }
            if self.done {
                SliceOutcome::Done
            } else {
                SliceOutcome::Running
            }
        })
    }

    fn finish(&mut self) -> VmReport {
        let halted = self.halted;
        let (id, vm) = (self.id, &mut self.vm().vm);
        VmReport {
            vm: id,
            findings: vm.drain_findings(),
            stats: vm.machine.hypervisor().em.stats(),
            metrics: vm.metrics_snapshot(),
            halted,
            payload: Vec::new(),
        }
    }
}

// ---------------------------------------------------------- pool sizes ---

// Each block takes half a second to a second on a 2-core x86-64 host, so a
// 20 s run has twenty to forty.

/// Fig. 7 passes per block.
const FIG7_PASSES: usize = 3;
/// Scenarios per block of `syscall-storm`.
const STORM_POOL: usize = 125;
/// Scenarios per block of `hanoi-compute`.
const HANOI_POOL: usize = 120;
/// Scenarios per block of `record-replay` (30 rounds of the five mixes).
const RECORD_POOL: usize = 150;
/// Campaigns per block of `fleet64`.
const FLEET_POOL: usize = 10;
/// Warm-up scenarios of the scenario workloads: two of each mix.
const SCENARIO_WARMUP: usize = 10;
/// Scenario mixes, one per scenario of a `record-replay` round.
const MIXES: usize = WorkloadMix::ALL.len();
