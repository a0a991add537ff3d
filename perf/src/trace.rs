//! Layer-attributed host-time spans, recorded from outside the program.
//!
//! The wrappers in [`crate::wrap`] call into this module at each layer's
//! public trait boundary. A span has a layer, a start, an end, the span
//! that was open when it started (its parent) and the id of the benchmark
//! op it belongs to. Spans stay in memory as per-layer aggregates plus a
//! raw log of the first [`LOG_CAP`] spans; [`write_log`] writes the log
//! when the benchmark ends.
//!
//! Timing every guest step would triple host time, so the hot layers are
//! sampled and every sampled span carries the weight that makes the sums
//! unbiased:
//!
//! * *Step samples*: a random one in [`STEP_EVERY`] guest steps is a
//!   span with nothing inside it timed, so it carries the clock cost of one
//!   span only. [`Ledger`] scales their sum by `steps / step samples`.
//! * *Calls* — engine `on_exit`, auditor `on_event` and `on_tick` (live
//!   or in a replay), tap `on_event` and `on_tick` — are timed for the
//!   first [`TIMED_FIRST`] calls of each wrapper, with weight 1. After that
//!   every [`CALL_EVERY`]-th call is sampled, alternately timed (weight
//!   `2 * CALL_EVERY`) or replaced by a null probe. Calls inside a step
//!   sample are never timed.
//!
//! A sampled span longer than [`SPIKE_NS`] is a host preemption, not guest
//! work (one would otherwise count hundreds of times over): it is left out
//! of the estimates and counted in [`Ledger::spikes`].
//!
//! Everything else (builds, codecs, snapshots, `replay_trace`, fleet
//! slices, the run loop itself) is always timed ("exact"). Calls are
//! counted on every call.
//!
//! Self time is a span's duration minus its children's. Aggregates keep
//! raw sums so [`Ledger`] can remove the tracer's own cost at the end:
//! `inside_ns`, the clock cost inside one measured span, and
//! `footprint_ns`, the host time one span adds to its parent, both from
//! [`calibrate`]. The clock cost actually removed is the mean duration of
//! the *null probes* — empty spans taken in place of half the samples, at
//! the same places — because a clock read in the middle of simulation
//! costs more than the back-to-back reads of the calibration loop. Step
//! samples use the step null probes, everything else the call null probes.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One in this many guest steps is sampled (half as step samples, half as
/// null probes).
pub const STEP_EVERY: u64 = 1024;
/// After the first [`TIMED_FIRST`] calls, one in this many calls of a
/// wrapper is sampled.
pub const CALL_EVERY: u64 = 1024;
/// Sampled spans longer than this are host preemptions, ns.
pub const SPIKE_NS: f64 = 20_000.0;
/// Calls per wrapper that are always timed, so that rare layers (an
/// auditor that sees only context switches) are measured too.
pub const TIMED_FIRST: u64 = 16;

/// Span and counter names, indexed by the layer constants below.
pub const LAYER_NAMES: [&str; LAYERS] = [
    "op",
    "setup.vm_build",
    "hvsim.run_until",
    "guestos.step",
    "intercept.process-switch",
    "intercept.thread-switch",
    "intercept.tss-integrity",
    "intercept.int-syscall",
    "intercept.fast-syscall",
    "intercept.io-access",
    "intercept.fine-grained",
    "intercept.other",
    "audit.goshd.event",
    "audit.hrkd.event",
    "audit.htninja.event",
    "audit.counting.event",
    "audit.other.event",
    "audit.goshd.tick",
    "audit.hrkd.tick",
    "audit.htninja.tick",
    "audit.counting.tick",
    "audit.other.tick",
    "replay.record.event",
    "replay.record.tick",
    "replay.encode",
    "replay.decode",
    "replay.compress",
    "replay.decompress",
    "em.replay",
    "snap.save",
    "snap.restore",
    "fleet.campaign",
    "fleet.slice",
    "guestos.step.null",
    "call.null",
    "em.replay.audit",
    "calibrate",
];

/// Number of layers.
pub const LAYERS: usize = 37;
/// One benchmark op (root span on the main thread).
pub const OP: usize = 0;
/// Building (and, when traced, instrumenting) one VM.
pub const VM_BUILD: usize = 1;
/// One `Machine::run_until` call.
pub const RUN_UNTIL: usize = 2;
/// One `GuestProgram::step` of the guest kernel.
pub const STEP: usize = 3;
/// First of the per-engine `InterceptEngine::on_exit` layers.
pub const ENGINE0: usize = 4;
/// Installed engine names, in the order of their layers from [`ENGINE0`].
pub const ENGINES: [&str; 7] = [
    "process-switch",
    "thread-switch",
    "tss-integrity",
    "int-syscall",
    "fast-syscall",
    "io-access",
    "fine-grained",
];
/// First of the per-auditor `Auditor::on_event` layers.
pub const AUDIT_EVENT0: usize = 12;
/// First of the per-auditor `Auditor::on_tick` layers.
pub const AUDIT_TICK0: usize = 17;
/// Auditor layer names, in layer order from [`AUDIT_EVENT0`] / [`AUDIT_TICK0`].
pub const AUDITORS: [&str; 4] = ["goshd", "hrkd", "htninja", "counting"];
/// `EventTap::on_event` of the trace recorder.
pub const RECORD_EVENT: usize = 22;
/// `EventTap::on_tick` of the trace recorder.
pub const RECORD_TICK: usize = 23;
/// `Trace::encode`.
pub const ENCODE: usize = 24;
/// `Trace::decode`.
pub const DECODE: usize = 25;
/// `compress`.
pub const COMPRESS: usize = 26;
/// `decompress`.
pub const DECOMPRESS: usize = 27;
/// `replay_trace`: the EM and auditors without the simulator.
pub const REPLAY: usize = 28;
/// `TapVm::snapshot`.
pub const SNAP_SAVE: usize = 29;
/// `TapVm::restore`.
pub const SNAP_RESTORE: usize = 30;
/// One `run_fleet` campaign.
pub const FLEET_CAMPAIGN: usize = 31;
/// One `FleetVm::step_slice`.
pub const FLEET_SLICE: usize = 32;
/// An empty span taken in place of a step sample.
pub const STEP_NULL: usize = 33;
/// An empty span taken in place of a sampled call.
pub const CALL_NULL: usize = 34;
/// `Auditor::on_event` during `replay_trace`, every auditor.
pub const REPLAY_AUDIT: usize = 35;
const CALIBRATE: usize = 36;

/// Layers called inside guest steps: every engine, every auditor's
/// `on_event`, and the recorder tap's `on_event`.
pub const IN_STEP: [usize; 14] = [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 22];
/// Layers the run loop calls outside guest steps (EM ticks).
pub const TICKS: [usize; 6] = [17, 18, 19, 20, 21, 23];

/// Raw spans kept for the `.jsonl` log, per process.
pub const LOG_CAP: usize = 200_000;

/// The layer of an installed engine.
pub fn engine_layer(name: &str) -> usize {
    ENGINE0 + ENGINES.iter().position(|e| *e == name).unwrap_or(ENGINES.len())
}

/// The index of an auditor among [`AUDITORS`] (or one past it).
pub fn auditor_slot(name: &str) -> usize {
    match name {
        "goshd" => 0,
        "hrkd" => 1,
        "ht-ninja" => 2,
        "counting" => 3,
        _ => AUDITORS.len(),
    }
}

/// Weighted per-layer sums, split into exact (`[0]`) and sampled (`[1]`)
/// spans. Exact spans have weight 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerAgg {
    /// Timed spans.
    pub spans: [u64; 2],
    /// Sum of weights.
    pub weight: [f64; 2],
    /// Weighted measured durations, ns.
    pub measured: [f64; 2],
    /// Weighted measured durations of direct children, ns.
    pub child_measured: [f64; 2],
    /// Weighted direct-children counts.
    pub children: [f64; 2],
    /// Weighted descendant counts.
    pub descendants: [f64; 2],
    /// Weighted squared measured durations, ns².
    pub squares: [f64; 2],
}

impl LayerAgg {
    fn merge(&mut self, other: &LayerAgg) {
        for k in 0..2 {
            self.spans[k] += other.spans[k];
            self.weight[k] += other.weight[k];
            self.measured[k] += other.measured[k];
            self.child_measured[k] += other.child_measured[k];
            self.children[k] += other.children[k];
            self.descendants[k] += other.descendants[k];
            self.squares[k] += other.squares[k];
        }
    }
}

/// One logged span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Span id, unique per process.
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer index.
    pub layer: u16,
    /// Weight (1 for exact spans).
    pub weight: f32,
    /// Benchmark op the span belongs to.
    pub op: u64,
    /// Start, ns since tracing began.
    pub start_ns: u64,
    /// End, ns since tracing began.
    pub end_ns: u64,
}

/// Clock-overhead constants measured by [`calibrate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    /// Measured duration of an empty span, ns.
    pub inside_ns: f64,
    /// Host time one empty span costs its parent, ns.
    pub footprint_ns: f64,
}

/// Everything the main and worker threads flushed.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Per-layer span sums.
    pub agg: [LayerAgg; LAYERS],
    /// Per-layer call counts (every call, timed or not).
    pub calls: [u64; LAYERS],
    /// The first [`LOG_CAP`] spans.
    pub log: Vec<SpanRec>,
    /// Fleet slice time per (op, worker thread), ns.
    pub slice_busy: Vec<(u64, u64, f64)>,
    /// Sampled spans dropped as host preemptions.
    pub spikes: u64,
    /// The tracer's clock costs.
    pub cal: Calibration,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            agg: [LayerAgg::default(); LAYERS],
            calls: [0; LAYERS],
            log: Vec::new(),
            slice_busy: Vec::new(),
            spikes: 0,
            cal: Calibration::default(),
        }
    }
}

impl Ledger {
    /// Corrected total duration of one class of a layer's spans, ns.
    fn total_class(&self, layer: usize, k: usize) -> f64 {
        let a = &self.agg[layer];
        a.measured[k]
            - a.weight[k] * self.null_ns(CALL_NULL)
            - a.descendants[k] * self.cal.footprint_ns
    }

    /// Corrected self time of one class of a layer's spans, ns.
    fn self_class(&self, layer: usize, k: usize) -> f64 {
        let a = &self.agg[layer];
        a.measured[k]
            - a.child_measured[k]
            - (a.weight[k] - a.children[k]) * self.null_ns(CALL_NULL)
            - a.children[k] * self.cal.footprint_ns
    }

    /// Estimated total duration of a layer over the run, ns.
    pub fn total_ns(&self, layer: usize) -> f64 {
        match layer {
            STEP => self.step_total_ns(),
            _ => self.total_class(layer, 0) + self.total_class(layer, 1),
        }
    }

    /// Estimated self time of a layer over the run, ns.
    pub fn self_ns(&self, layer: usize) -> f64 {
        match layer {
            STEP => self.step_self_ns(),
            RUN_UNTIL => self.run_loop_self_ns(),
            REPLAY => self.total_ns(REPLAY) - self.total_ns(REPLAY_AUDIT),
            _ => self.self_class(layer, 0) + self.self_class(layer, 1),
        }
    }

    /// Mean measured duration of one kind of null probe: the clock cost a
    /// span taken there carries, ns.
    pub fn null_ns(&self, layer: usize) -> f64 {
        let a = &self.agg[layer];
        if a.spans[0] == 0 {
            self.cal.inside_ns
        } else {
            a.measured[0] / a.spans[0] as f64
        }
    }

    /// Estimated time of all guest steps, everything inside them included.
    pub fn step_total_ns(&self) -> f64 {
        let a = &self.agg[STEP];
        if a.spans[1] == 0 {
            return 0.0;
        }
        let sampled = a.measured[1] - a.spans[1] as f64 * self.null_ns(STEP_NULL);
        self.calls[STEP] as f64 / a.spans[1] as f64 * sampled
    }

    /// Estimated time of the guest steps minus the engine, auditor and tap
    /// calls inside them.
    pub fn step_self_ns(&self) -> f64 {
        self.step_total_ns() - IN_STEP.iter().map(|&l| self.total_class(l, 1)).sum::<f64>()
    }

    /// Self time of the simulator's run loop: `run_until` minus the
    /// estimated guest steps and the timed ticks inside it, ns.
    pub fn run_loop_self_ns(&self) -> f64 {
        let ticks: f64 = TICKS.iter().map(|&l| self.total_ns(l)).sum();
        self.total_class(RUN_UNTIL, 0) - ticks - self.step_total_ns()
    }

    /// Standard error of [`Ledger::step_total_ns`] (and so of the run-loop
    /// residual), from the spread of the step samples, ns.
    pub fn step_total_se_ns(&self) -> f64 {
        let a = &self.agg[STEP];
        let n = a.spans[1] as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mean = a.measured[1] / n;
        let var = (a.squares[1] / n - mean * mean).max(0.0) * n / (n - 1.0);
        self.calls[STEP] as f64 * (var / n).sqrt()
    }

    /// Step samples taken.
    pub fn step_samples(&self) -> u64 {
        self.agg[STEP].spans[1]
    }
}

struct Open {
    layer: u16,
    sampled: bool,
    weight: f64,
    id: u64,
    parent: u64,
    start: Instant,
    child_measured: f64,
    children: u64,
    descendants: u64,
}

struct ThreadTrace {
    stack: Vec<Open>,
    agg: [LayerAgg; LAYERS],
    spikes: u64,
    log: Vec<SpanRec>,
    next_id: u64,
    thread: u64,
    epoch: Instant,
}

impl ThreadTrace {
    fn new() -> Self {
        static THREADS: AtomicU64 = AtomicU64::new(0);
        ThreadTrace {
            stack: Vec::with_capacity(16),
            agg: [LayerAgg::default(); LAYERS],
            spikes: 0,
            log: Vec::new(),
            next_id: 0,
            thread: THREADS.fetch_add(1, Ordering::Relaxed),
            epoch: *EPOCH.get_or_init(Instant::now),
        }
    }
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
    /// Set while a step sample runs: nested calls are then not timed.
    static IN_STEP_SAMPLE: Cell<bool> = const { Cell::new(false) };
    static OP_ID: Cell<u64> = const { Cell::new(0) };
    static CALLS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
}

static LEDGER: Mutex<Option<Ledger>> = Mutex::new(None);
/// Set once the ledger's log holds [`LOG_CAP`] spans: threads stop logging.
static LOG_FULL: AtomicBool = AtomicBool::new(false);
static CAL: OnceLock<Calibration> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Adds `n` calls of `layer` to this thread's counts.
pub fn add_calls(layer: usize, n: u64) {
    CALLS.with(|c| c[layer].set(c[layer].get() + n));
}

/// Sets the op id stamped on spans this thread records from now on.
pub fn set_op(op: u64) {
    OP_ID.with(|o| o.set(op));
}

/// The op id this thread stamps on spans.
pub fn current_op() -> u64 {
    OP_ID.with(Cell::get)
}

fn enter(layer: usize, sampled: bool, weight: f64) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.next_id += 1;
        let id = (t.thread << 40) | t.next_id;
        let parent = t.stack.last().map_or(0, |o| o.id);
        t.stack.push(Open {
            layer: layer as u16,
            sampled,
            weight,
            id,
            parent,
            start: Instant::now(),
            child_measured: 0.0,
            children: 0,
            descendants: 0,
        });
    });
}

fn exit() {
    let end = Instant::now();
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let o = t.stack.pop().expect("span exit without enter");
        let measured = end.duration_since(o.start).as_nanos() as f64;
        let (k, w) = (usize::from(o.sampled), o.weight);
        let layer = usize::from(o.layer);
        if (o.sampled || layer == STEP_NULL || layer == CALL_NULL) && measured > SPIKE_NS {
            t.spikes += 1;
        } else {
            let a = &mut t.agg[layer];
            a.spans[k] += 1;
            a.weight[k] += w;
            a.measured[k] += w * measured;
            a.child_measured[k] += w * o.child_measured;
            a.children[k] += w * o.children as f64;
            a.descendants[k] += w * o.descendants as f64;
            a.squares[k] += w * measured * measured;
        }
        if let Some(p) = t.stack.last_mut() {
            p.child_measured += measured;
            p.children += 1;
            p.descendants += 1 + o.descendants;
        }
        if !LOG_FULL.load(Ordering::Relaxed) && t.log.len() < LOG_CAP {
            let since = |i: Instant| i.saturating_duration_since(t.epoch).as_nanos() as u64;
            let rec = SpanRec {
                id: o.id,
                parent: o.parent,
                layer: o.layer,
                weight: w as f32,
                op: OP_ID.with(Cell::get),
                start_ns: since(o.start),
                end_ns: since(end),
            };
            t.log.push(rec);
        }
    });
}

/// Counts and times `f` as one exact span of `layer`.
pub fn span<R>(layer: usize, f: impl FnOnce() -> R) -> R {
    add_calls(layer, 1);
    enter(layer, false, 1.0);
    let r = f();
    exit();
    r
}

/// A wrapper's call counter and sampling gate. The hot path is one
/// decrement and a branch ([`Gate::pass`]); every call that does not pass
/// goes through [`Gate::run`], which counts the calls since the last one
/// and applies the sampling policy in the module docs.
#[derive(Debug)]
pub struct Gate {
    left: u64,
    interval: u64,
    seen: u64,
}

impl Default for Gate {
    fn default() -> Self {
        Gate { left: 1, interval: 1, seen: 0 }
    }
}

impl Gate {
    /// Whether this call takes the untimed fast path.
    #[inline(always)]
    pub fn pass(&mut self) -> bool {
        self.left -= 1;
        self.left != 0
    }

    /// Calls counted so far, this one included.
    pub fn calls(&self) -> u64 {
        self.seen + self.interval - self.left
    }

    /// Runs `f`, a call that did not [`pass`](Gate::pass), as a sampled
    /// span of `layer`, after a null probe, or untimed inside a step sample.
    #[cold]
    #[inline(never)]
    pub fn run<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        self.seen += self.interval;
        let n = self.seen;
        self.interval = if n < TIMED_FIRST { 1 } else { CALL_EVERY };
        self.left = self.interval;
        if IN_STEP_SAMPLE.with(Cell::get) {
            return f();
        }
        let weight = if n <= TIMED_FIRST {
            1.0
        } else if ((n - TIMED_FIRST) / CALL_EVERY).is_multiple_of(2) {
            2.0 * CALL_EVERY as f64
        } else {
            enter(CALL_NULL, false, 1.0);
            exit();
            return f();
        };
        enter(layer, true, weight);
        let r = f();
        exit();
        r
    }
}

/// Runs `f` (one guest step) as a step sample: the step is one span and
/// nothing inside it is timed.
pub fn step_sample<R>(f: impl FnOnce() -> R) -> R {
    IN_STEP_SAMPLE.with(|s| s.set(true));
    enter(STEP, true, 1.0);
    let r = f();
    exit();
    IN_STEP_SAMPLE.with(|s| s.set(false));
    r
}

/// Takes a null probe: an empty span where a step sample would start.
pub fn null_probe() {
    enter(STEP_NULL, false, 1.0);
    exit();
}

/// Measures the tracer's clock costs once per process. Must run before
/// any span is recorded for the ledger.
pub fn calibrate() -> Calibration {
    *CAL.get_or_init(|| {
        let mut gaps: Vec<u128> = (0..20_001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                b.duration_since(a).as_nanos()
            })
            .collect();
        gaps.sort_unstable();
        let inside_ns = gaps[gaps.len() / 2] as f64;
        // Measured with logging off: in a run the log fills within the
        // first traced block, so the steady-state cost excludes the push.
        LOG_FULL.store(true, Ordering::Relaxed);
        // The median of several loops of empty spans nested in a parent,
        // so the parent bookkeeping is part of each measurement.
        let mut per_span: Vec<f64> = (0..15)
            .map(|_| {
                const N: u32 = 2_000;
                enter(CALIBRATE, false, 1.0);
                let t0 = Instant::now();
                for _ in 0..N {
                    enter(CALIBRATE, false, 1.0);
                    exit();
                }
                let ns = t0.elapsed().as_nanos() as f64 / f64::from(N);
                exit();
                ns
            })
            .collect();
        per_span.sort_by(f64::total_cmp);
        TRACE.with(|t| t.borrow_mut().agg = [LayerAgg::default(); LAYERS]);
        LOG_FULL.store(false, Ordering::Relaxed);
        Calibration { inside_ns, footprint_ns: per_span[per_span.len() / 2] }
    })
}

/// Moves this thread's aggregates, counts and log into the process ledger.
pub fn flush() {
    let (agg, spikes, log, thread) = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let agg = std::mem::replace(&mut t.agg, [LayerAgg::default(); LAYERS]);
        (agg, std::mem::take(&mut t.spikes), std::mem::take(&mut t.log), t.thread)
    });
    let calls: [u64; LAYERS] = CALLS.with(|c| std::array::from_fn(|i| c[i].replace(0)));
    let mut guard = LEDGER.lock().expect("trace ledger lock");
    let ledger = guard.get_or_insert_with(Ledger::default);
    ledger.spikes += spikes;
    for (l, a) in agg.iter().enumerate() {
        ledger.agg[l].merge(a);
        ledger.calls[l] += calls[l];
    }
    let slice = agg[FLEET_SLICE].measured[0];
    if slice > 0.0 {
        let op = current_op();
        match ledger.slice_busy.iter_mut().find(|(o, th, _)| *o == op && *th == thread) {
            Some(entry) => entry.2 += slice,
            None => ledger.slice_busy.push((op, thread, slice)),
        }
    }
    let room = LOG_CAP.saturating_sub(ledger.log.len());
    ledger.log.extend(log.into_iter().take(room));
    if ledger.log.len() >= LOG_CAP {
        LOG_FULL.store(true, Ordering::Relaxed);
    }
}

/// Takes the process ledger, leaving an empty one.
pub fn take_ledger() -> Ledger {
    flush();
    let mut ledger = LEDGER.lock().expect("trace ledger lock").take().unwrap_or_default();
    ledger.cal = CAL.get().copied().unwrap_or_default();
    ledger
}

/// Discards everything recorded so far (this thread and the ledger).
pub fn reset() {
    flush();
    *LEDGER.lock().expect("trace ledger lock") = None;
    LOG_FULL.store(false, Ordering::Relaxed);
}

/// Writes the span log as JSON lines: one object per span with its id,
/// parent id, layer name, op id, weight and start/end in ns.
pub fn write_log(path: &Path, log: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in log {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"weight\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            LAYER_NAMES[usize::from(s.layer)],
            s.op,
            s.weight,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
