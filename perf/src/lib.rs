//! `hypertap-perf`: the end-to-end benchmark of the HyperTap reproduction.
//!
//! [`run`] drives one workload (see [`workloads`]) as a closed loop on one
//! main thread (`fleet64` adds its two fleet workers): it generates the
//! inputs from the seed and runs the warm-up ops (set-up), then runs whole
//! blocks of ops until the time limit, checks every op's outputs and
//! reports the end-to-end metrics over the fastest blocks. A traced run
//! alternates untraced and traced blocks of the same ops; the traced blocks
//! run behind the timing wrappers (module `wrap`) and yield the per-layer
//! metrics, and every traced op must reproduce the untraced op's simulated
//! digest.

mod heap;
pub mod trace;
pub mod workloads;
mod wrap;

use std::time::Instant;
use workloads::{Counts, OpOutput, Tracing};

/// Seed used when none is given; the golden digests below are for it.
pub const DEFAULT_SEED: u64 = 42;

/// Simulated digest of one block at [`DEFAULT_SEED`], per workload.
const GOLDEN_DIGESTS: [(&str, u64); 5] = [
    ("fig7", 0xf20d_25e6_17b0_9c8e),
    ("syscall-storm", 0x8a79_2ea1_bc53_6f38),
    ("hanoi-compute", 0xcf23_01de_b158_ea2a),
    ("record-replay", 0x21af_7a7c_e454_485e),
    ("fleet64", 0xbff3_2e37_9f90_c86a),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Blocks between two set-up repetitions, which spreads them over the run.
const SETUP_EVERY: usize = 4;

/// Share of the estimated guest-step time by which the run-loop residual
/// may fall below zero beyond its sampling noise. Untimed, a step overlaps
/// the run loop's own code in the CPU's out-of-order window; a step sample
/// sits between two clock reads and cannot, so step samples overstate the
/// steps and the residual of a cheap run loop reads a few ns/step negative
/// (down to about −10 % of the step time on `fig7` and `syscall-storm`,
/// whose steps are long). The gate still catches a large layer counted
/// twice, such as interception: a quarter of the step time on
/// `syscall-storm`.
const STEP_OVERLAP: f64 = 0.2;

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Whole blocks until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many ops (one untraced block, plus one traced block in
    /// a traced run) — the library-level smoke-test entry point.
    Ops(usize),
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// The outcome of one [`run`].
#[derive(Debug)]
pub struct Report {
    /// Ops run, warm-ups included.
    pub attempted: u64,
    /// Ops whose output checks failed.
    pub failed: u64,
    /// No op failed, the digest matched (or was not checked) and the traced
    /// run's attribution was consistent.
    pub correct: bool,
    /// End-to-end metrics, measured on untraced blocks.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics, measured on traced blocks (traced runs only).
    pub layers: Vec<Metric>,
    /// Human-readable context lines (raw values, quartiles, sample counts).
    pub notes: Vec<String>,
    /// Raw spans of the traced blocks.
    pub spans: Vec<trace::SpanRec>,
}

/// One pass over the workload's pool.
struct Block {
    traced: bool,
    sim_ns: u64,
    host_ns: u64,
    latencies_ms: Vec<f64>,
}

impl Block {
    fn speed(&self) -> f64 {
        ratio(self.sim_ns as f64, self.host_ns as f64)
    }
}

/// The fastest quarter of `blocks` (at least one). Other tenants of a
/// shared host only ever slow a block down, in spells that last seconds to
/// minutes; the fastest blocks are what the code itself costs.
fn fastest<'a>(blocks: impl Iterator<Item = &'a Block>) -> Vec<&'a Block> {
    let mut v: Vec<&Block> = blocks.collect();
    v.sort_by(|a, b| b.speed().total_cmp(&a.speed()));
    v.truncate(v.len().div_ceil(4));
    v
}

/// Output checks: each op's own checks plus determinism — every run of op
/// `i` must reproduce the first run's simulated digest.
struct Checker {
    reference: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn check(&mut self, i: usize, out: &OpOutput) {
        self.attempted += 1;
        let mut bad = out.error.clone();
        match self.reference[i] {
            None => self.reference[i] = Some(out.digest),
            Some(d) if d != out.digest => {
                bad.get_or_insert(format!(
                    "op {i}: digest {:#018x} != first run's {d:#018x}",
                    out.digest
                ));
            }
            Some(_) => {}
        }
        if let Some(why) = bad {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("FAILED {why}"));
            }
        }
    }
}

/// One set-up repetition: generates the workload's inputs and runs its
/// warm-up ops. Returns the workload and the seconds since `t0`.
fn set_up(
    name: &str,
    seed: u64,
    ck: &mut Checker,
    t0: Instant,
) -> (Box<dyn workloads::Workload>, f64) {
    let mut work = workloads::make(name, seed).expect("workload exists");
    let plain = Tracing { on: false, seed };
    let outs: Vec<OpOutput> =
        (0..work.warmup_ops().min(work.block_len())).map(|i| work.run_op(i, plain)).collect();
    let secs = t0.elapsed().as_secs_f64();
    for (i, out) in outs.iter().enumerate() {
        ck.check(i, out);
    }
    (work, secs)
}

/// Linear-interpolated quantile of sorted data.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&sorted(v.into_iter().collect()), 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs workload `name`. `started` is when the process started, so the
/// first set-up repetition includes process start-up.
pub fn run(
    name: &str,
    seed: u64,
    limit: Limit,
    traced: bool,
    started: Instant,
) -> Result<Report, String> {
    let pool = workloads::make(name, seed)
        .ok_or_else(|| format!("unknown workload '{name}'"))?
        .block_len();
    let mut ck =
        Checker { reference: vec![None; pool], attempted: 0, failed: 0, notes: Vec::new() };
    if traced {
        trace::calibrate();
    }
    // Set-up repetitions: the first from process start, the others spread
    // over the run so a slow spell of the host does not set the median.
    let (mut work, first) = set_up(name, seed, &mut ck, started);
    let mut setup = vec![first];
    let reps = match limit {
        Limit::Ops(_) => 1,
        Limit::Seconds(_) => SETUP_REPS,
    };

    let block_len = match limit {
        Limit::Ops(n) => n,
        Limit::Seconds(_) => pool,
    };
    trace::reset();
    let mut blocks: Vec<Block> = Vec::new();
    let mut traced_counts = Counts::default();
    let mut op_id = 0u64;
    let mut heap_mb = None;
    let start = Instant::now();
    loop {
        let is_traced = traced && blocks.len() % 2 == 1;
        let t = Tracing { on: is_traced, seed };
        let mut block =
            Block { traced: is_traced, sim_ns: 0, host_ns: 0, latencies_ms: Vec::new() };
        for j in 0..block_len {
            let i = j % pool;
            op_id += 1;
            trace::set_op(op_id);
            let t0 = Instant::now();
            let out = if is_traced {
                trace::span(trace::OP, || work.run_op(i, t))
            } else {
                work.run_op(i, t)
            };
            let ns = t0.elapsed().as_nanos() as u64;
            if is_traced {
                trace::flush();
                traced_counts.add(&out.counts);
            }
            block.host_ns += ns;
            block.sim_ns += out.counts.sim_ns;
            block.latencies_ms.push(ns as f64 / 1e6);
            ck.check(i, &out);
        }
        blocks.push(block);
        // The first block runs every op of the pool once. A later set-up
        // repetition builds a second pool while the first is still alive,
        // which is the benchmark's doing, not the program's.
        if heap_mb.is_none() {
            heap_mb = Some(heap::peak_mb());
        }
        let done = match limit {
            Limit::Ops(_) => blocks.len() >= if traced { 2 } else { 1 },
            Limit::Seconds(s) => {
                start.elapsed().as_secs_f64() >= s && (!traced || blocks.len() >= 2)
            }
        };
        let due = if done {
            reps.saturating_sub(setup.len())
        } else {
            usize::from(setup.len() < reps && blocks.len().is_multiple_of(SETUP_EVERY))
        };
        for _ in 0..due {
            let (w, secs) = set_up(name, seed, &mut ck, Instant::now());
            work = w;
            setup.push(secs);
        }
        if done {
            break;
        }
    }
    let Checker { reference, attempted, mut failed, mut notes } = ck;

    let mut correct = failed == 0;
    if seed == DEFAULT_SEED && matches!(limit, Limit::Seconds(_)) {
        let mut h = workloads::Fnv::default();
        for d in &reference {
            h.u64(d.unwrap_or(0));
        }
        let digest = h.finish();
        let golden = GOLDEN_DIGESTS.iter().find(|(w, _)| *w == name).map_or(0, |(_, d)| *d);
        notes.push(format!("digest {digest:#018x} (golden {golden:#018x})"));
        if digest != golden {
            notes.push(
                "FAILED digest differs from the golden digest: every op counts as failed"
                    .to_owned(),
            );
            failed = attempted;
            correct = false;
        }
    }

    // Simulated speed is the median over the fastest untraced blocks; the
    // op latency percentiles pool the ops of those blocks.
    let fast = fastest(blocks.iter().filter(|b| !b.traced));
    let speed = median(fast.iter().map(|b| b.speed()));
    let lat = sorted(fast.iter().flat_map(|b| b.latencies_ms.iter().copied()).collect());
    let all: Vec<f64> = blocks.iter().filter(|b| !b.traced).map(Block::speed).collect();
    let by_speed = sorted(all.clone());
    notes.push(format!(
        "block sim_speed q1 {:.4} median {:.4} q3 {:.4}; in run order ({} blocks of {block_len} \
         ops, fastest {} used): {}",
        quantile(&by_speed, 0.25),
        quantile(&by_speed, 0.5),
        quantile(&by_speed, 0.75),
        all.len(),
        fast.len(),
        all.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>().join(" ")
    ));
    notes.push(format!(
        "op latency samples {}, {} beyond p90",
        lat.len(),
        lat.len() - (0.9 * lat.len() as f64).ceil() as usize
    ));
    notes.push(format!("set-up repetitions (s): {setup:.4?}"));
    notes.push(format!("peak resident set (VmHWM) {:.3} MiB", max_rss_mb()));
    notes.push(format!(
        "ops_attempted {attempted} ops_failed {failed} host_parallelism {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let e2e = vec![
        metric("sim_speed", "guest-s/host-s", speed),
        metric("op_p50_ms", "ms", quantile(&lat, 0.5)),
        metric("op_p90_ms", "ms", quantile(&lat, 0.9)),
        metric("setup_s", "s", median(setup)),
        metric("peak_heap_mb", "MiB", heap_mb.expect("every run has a first block")),
    ];

    let (layers, spans) = if traced {
        let ledger = trace::take_ledger();
        let steps = ledger.calls[trace::STEP] as f64;
        let (residual, se) = (ledger.run_loop_self_ns(), ledger.step_total_se_ns());
        notes.push(format!(
            "trace: {} step samples; clock {:.1} ns (step null probes), {:.1} ns (call null probes), \
             {:.1} ns (calibration); span footprint {:.1} ns; {} preempted samples dropped",
            ledger.step_samples(),
            ledger.null_ns(trace::STEP_NULL),
            ledger.null_ns(trace::CALL_NULL),
            ledger.cal.inside_ns,
            ledger.cal.footprint_ns,
            ledger.spikes
        ));
        let allowed = 3.0 * se + STEP_OVERLAP * ledger.step_total_ns();
        notes.push(format!(
            "trace: run-loop residual {:.3} ns/step, standard error {:.3} ns/step, \
             step {:.3} ns/step, lowest allowed {:.3} ns/step",
            ratio(residual, steps),
            ratio(se, steps),
            ratio(ledger.step_total_ns(), steps),
            -ratio(allowed, steps)
        ));
        if residual < -allowed {
            notes.push(
                "FAILED run-loop residual is negative beyond three standard errors plus the \
                 allowed step overlap"
                    .to_owned(),
            );
            correct = false;
        }
        let traced_speed =
            median(fastest(blocks.iter().filter(|b| b.traced)).iter().map(|b| b.speed()));
        let overhead = ratio(speed, traced_speed) - 1.0;
        if overhead > 0.10 {
            notes.push(format!("WARN trace.overhead {overhead:.4} exceeds 0.10"));
        }
        let ops =
            blocks.iter().filter(|b| b.traced).map(|b| b.latencies_ms.len()).sum::<usize>() as f64;
        (layer_metrics(&ledger, &traced_counts, ops, overhead), ledger.log)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Report { attempted, failed, correct, e2e, layers, notes, spans })
}

/// The per-layer metrics of a traced run.
fn layer_metrics(l: &trace::Ledger, c: &Counts, ops: f64, overhead: f64) -> Vec<Metric> {
    use trace::*;
    let steps = l.calls[STEP] as f64;
    let exits = c.exits as f64;
    let sim_ms = c.sim_ns as f64 / 1e6;
    let calls = |layer: usize| l.calls[layer] as f64;
    let per_call = |layer: usize| ratio(l.self_ns(layer), calls(layer));
    let engines: f64 = (0..=ENGINES.len()).map(|k| l.self_ns(ENGINE0 + k)).sum();
    let audits: f64 = (0..=AUDITORS.len())
        .map(|k| l.self_ns(AUDIT_EVENT0 + k) + l.self_ns(AUDIT_TICK0 + k))
        .sum::<f64>()
        + l.self_ns(REPLAY_AUDIT);
    let recording: f64 = [RECORD_EVENT, RECORD_TICK, ENCODE, DECODE, COMPRESS, DECOMPRESS]
        .iter()
        .map(|&k| l.self_ns(k))
        .sum();
    let snap = l.self_ns(SNAP_SAVE) + l.self_ns(SNAP_RESTORE);
    let run_loop = l.run_loop_self_ns();
    let fleet = l.agg[FLEET_CAMPAIGN].spans[0] > 0;
    // Host time the op's threads had: the op wall clock, or every fleet
    // worker for the whole campaign.
    let wall = if fleet {
        workloads::FLEET_WORKERS as f64 * l.total_ns(FLEET_CAMPAIGN)
    } else {
        l.total_ns(OP)
    };
    let attributed = run_loop
        + l.self_ns(STEP)
        + engines
        + audits
        + recording
        + snap
        + l.self_ns(REPLAY)
        + l.self_ns(VM_BUILD)
        + l.self_ns(FLEET_SLICE);
    let busy: f64 = l.slice_busy.iter().map(|(_, _, ns)| ns).sum();
    let imbalance = {
        let mut per_op: Vec<f64> = Vec::new();
        let mut ops: Vec<u64> = l.slice_busy.iter().map(|(o, _, _)| *o).collect();
        ops.sort_unstable();
        ops.dedup();
        for op in ops {
            let v: Vec<f64> =
                l.slice_busy.iter().filter(|(o, _, _)| *o == op).map(|(_, _, ns)| *ns).collect();
            let mean = v.iter().sum::<f64>() / workloads::FLEET_WORKERS as f64;
            per_op.push(ratio(v.iter().copied().fold(0.0, f64::max), mean));
        }
        quantile(&sorted(per_op), 0.5)
    };
    let pct = |ns: f64| 100.0 * ratio(ns, wall);

    let mut m = vec![
        metric("guestos.step.self_ns_per_step", "ns/step", ratio(l.self_ns(STEP), steps)),
        metric("hvsim.run_loop.self_ns_per_step", "ns/step", ratio(run_loop, steps)),
        metric("intercept.decode.self_ns_per_exit", "ns/exit", ratio(engines, exits)),
    ];
    for (k, e) in ENGINES.iter().enumerate() {
        m.push(metric(
            format!("intercept.{e}.self_ns_per_exit"),
            "ns/exit",
            ratio(l.self_ns(ENGINE0 + k), exits),
        ));
    }
    m.push(metric(
        "em.replay.self_ns_per_event",
        "ns/event",
        ratio(l.self_ns(REPLAY), c.trace_events as f64),
    ));
    for (k, a) in AUDITORS.iter().enumerate() {
        m.push(metric(
            format!("audit.{a}.self_ns_per_event"),
            "ns/event",
            per_call(AUDIT_EVENT0 + k),
        ));
    }
    for (k, a) in AUDITORS.iter().enumerate() {
        m.push(metric(format!("audit.{a}.tick_ns_per_tick"), "ns/tick", per_call(AUDIT_TICK0 + k)));
    }
    m.extend([
        metric("setup.vm_build_ms", "ms/build", ratio(l.total_ns(VM_BUILD), calls(VM_BUILD)) / 1e6),
        metric("replay.record.ns_per_event", "ns/event", per_call(RECORD_EVENT)),
        metric(
            "replay.encode.ns_per_event",
            "ns/event",
            ratio(l.total_ns(ENCODE), c.trace_events as f64),
        ),
        metric(
            "replay.decode.ns_per_event",
            "ns/event",
            ratio(l.total_ns(DECODE), c.trace_events as f64),
        ),
        metric(
            "replay.compress.ns_per_byte",
            "ns/B",
            ratio(l.total_ns(COMPRESS), c.trace_bytes as f64),
        ),
        metric(
            "replay.decompress.ns_per_byte",
            "ns/B",
            ratio(l.total_ns(DECOMPRESS), c.trace_bytes as f64),
        ),
        metric("snap.save_ms", "ms/snapshot", ratio(l.total_ns(SNAP_SAVE), calls(SNAP_SAVE)) / 1e6),
        metric(
            "snap.restore_ms",
            "ms/snapshot",
            ratio(l.total_ns(SNAP_RESTORE), calls(SNAP_RESTORE)) / 1e6,
        ),
        metric(
            "fleet.slice.ns_per_sim_ms",
            "ns/sim-ms",
            if fleet { ratio(l.total_ns(FLEET_SLICE), sim_ms) } else { 0.0 },
        ),
        metric("fleet.busy_share", "ratio", if fleet { ratio(busy, wall) } else { 0.0 }),
        metric("fleet.worker_imbalance", "ratio", imbalance),
        metric("hvsim.run_loop.share", "%", pct(run_loop)),
        metric("guestos.step.share", "%", pct(l.self_ns(STEP))),
        metric("intercept.share", "%", pct(engines)),
        metric("audit.share", "%", pct(audits)),
        metric("em.replay.share", "%", pct(l.self_ns(REPLAY))),
        metric("replay.share", "%", pct(recording)),
        metric("snap.share", "%", pct(snap)),
        metric("setup.vm_build.share", "%", pct(l.self_ns(VM_BUILD))),
        metric("hvsim.steps_per_sim_ms", "1/ms", ratio(steps, sim_ms)),
        metric("hvsim.exits_per_sim_ms", "1/ms", ratio(exits, sim_ms)),
        metric("hvsim.tlb.hit_rate", "ratio", ratio(c.tlb_hits as f64, c.tlb_lookups as f64)),
        metric("em.events_per_exit", "ratio", ratio(c.em_events as f64, exits)),
        metric("em.fast_skip_ratio", "ratio", ratio(c.fast_skipped as f64, c.em_events as f64)),
        metric(
            "audit.deliveries_per_event",
            "ratio",
            ratio(c.delivered as f64, c.em_events as f64),
        ),
        metric("audit.findings_per_op", "count", ratio(c.findings as f64, ops)),
        metric(
            "replay.trace.bytes_per_event",
            "B/event",
            ratio(c.trace_bytes as f64, c.trace_events as f64),
        ),
        metric(
            "replay.compress.ratio",
            "ratio",
            ratio(c.compressed_bytes as f64, c.trace_bytes as f64),
        ),
        metric("snap.bytes", "B", ratio(c.snap_bytes as f64, c.snapshots as f64)),
        metric("trace.overhead", "ratio", overhead),
        metric("trace.sampled_steps", "count", l.step_samples() as f64),
        metric("trace.coverage", "ratio", ratio(attributed, wall)),
    ]);
    m
}

/// The last line of a run's output: one JSON object with the end-to-end
/// (untraced) or per-layer (traced) metrics.
pub fn result_json(r: &Report, traced: bool) -> String {
    let metrics = if traced { &r.layers } else { &r.e2e };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}
