//! Coverage maps for the scenario fuzzer.
//!
//! The fuzzer steers itself with cheap, deterministic feedback the
//! monitoring stack already produces: auditor state-transition edges from
//! the flight recorder, per-class event histograms, finding counts, and
//! consecutive-class edges of the forwarded stream itself. Every such
//! observation is reduced to a *feature* (a stable 64-bit FNV hash of its
//! description) plus a *count*, and folded into a fixed-size
//! [`CoverageMap`]: an AFL-style byte map where each slot holds a bitmask
//! of count buckets seen for the features hashing there.
//!
//! The map is deliberately a join-semilattice: [`CoverageMap::merge`] is a
//! bitwise OR, so merging is commutative, associative and idempotent, and
//! the [`CoverageMap::fingerprint`] of a merged map is independent of the
//! order (or sharding) in which coverage was collected — the property the
//! fleet determinism contract extends to coverage.
//!
//! Nothing here uses wall-clock time, pointer values or hash-map iteration
//! order: the same run always produces the same map, byte for byte.

use hypertap_core::em::EventTap;
use hypertap_core::event::{Event, EventClass};
use hypertap_hvsim::clock::SimTime;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Number of slots in a [`CoverageMap`]. A power of two so feature hashes
/// fold in with a mask.
pub const MAP_SLOTS: usize = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string. Stable across runs, platforms and
/// toolchains — the coverage fingerprint contract depends on this, so the
/// fuzzer never uses `std`'s randomized hashers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a feature description (a tag plus its parts) into a feature id.
/// A `0xFF` separator — which cannot appear in the UTF-8 parts — keeps
/// `["ab","c"]` distinct from `["a","bc"]`.
pub fn feature(tag: &str, parts: &[&str]) -> u64 {
    let mut h = FNV_OFFSET;
    for chunk in std::iter::once(tag).chain(parts.iter().copied()) {
        for &b in chunk.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Buckets a count AFL-style: 1, 2, 3, 4–7, 8–15, 16–31, 32–127, 128+.
/// Returns the bit index (0–7), or `None` for a zero count (nothing seen).
pub fn bucket(count: u64) -> Option<u8> {
    match count {
        0 => None,
        1 => Some(0),
        2 => Some(1),
        3 => Some(2),
        4..=7 => Some(3),
        8..=15 => Some(4),
        16..=31 => Some(5),
        32..=127 => Some(6),
        _ => Some(7),
    }
}

/// Masks every ASCII digit run in a detail string with `#`, so transition
/// details that embed times, ordinals or addresses ("scan epoch 17", "pid
/// 2041") collapse onto their structural edge. Two transitions are the
/// same *edge* when they differ only in such quantities; magnitudes are
/// still distinguished by the count buckets of [`CoverageMap::observe`].
pub fn normalize_detail(detail: &str) -> String {
    let mut out = String::with_capacity(detail.len());
    let mut in_run = false;
    for c in detail.chars() {
        if c.is_ascii_digit() {
            if !in_run {
                out.push('#');
                in_run = true;
            }
        } else {
            in_run = false;
            out.push(c);
        }
    }
    out
}

/// A fixed-size coverage map: one byte of count-bucket bits per slot.
#[derive(Clone, PartialEq, Eq)]
pub struct CoverageMap {
    slots: Vec<u8>,
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoverageMap({} bits, fp {:#018x})", self.bits(), self.fingerprint())
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap { slots: vec![0u8; MAP_SLOTS] }
    }

    /// Records that `feature` was seen `count` times. A zero count is a
    /// no-op. Feeding final per-run counts (rather than running partial
    /// counts) keeps the map independent of observation order.
    pub fn observe(&mut self, feature: u64, count: u64) {
        if let Some(bit) = bucket(count) {
            self.slots[(feature & (MAP_SLOTS as u64 - 1)) as usize] |= 1 << bit;
        }
    }

    /// Records a single occurrence of `feature`.
    pub fn hit(&mut self, feature: u64) {
        self.observe(feature, 1);
    }

    /// Folds another map in: bitwise OR per slot. Commutative, associative
    /// and idempotent — the semilattice join the fingerprint contract and
    /// the fleet sharding tests rely on.
    pub fn merge(&mut self, other: &CoverageMap) {
        for (s, o) in self.slots.iter_mut().zip(other.slots.iter()) {
            *s |= o;
        }
    }

    /// Number of bits `candidate` would add to this map — the novelty
    /// signal deciding corpus admission. Zero means `candidate` is fully
    /// covered already.
    pub fn novel_bits(&self, candidate: &CoverageMap) -> u32 {
        self.slots.iter().zip(candidate.slots.iter()).map(|(s, c)| (c & !s).count_ones()).sum()
    }

    /// Whether this map covers every bit of `other`.
    pub fn covers(&self, other: &CoverageMap) -> bool {
        self.novel_bits(other) == 0
    }

    /// Total set bits — the "edges reached" count reports use.
    pub fn bits(&self) -> u32 {
        self.slots.iter().map(|s| s.count_ones()).sum()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| *s == 0)
    }

    /// A stable fingerprint of the map contents (FNV-1a over the slot
    /// bytes). Equal maps — however their coverage was accumulated or
    /// merged — fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.slots)
    }
}

/// Stream-derived coverage: consecutive-class edges per vCPU, per-class
/// totals and tick counts, folded from the pre-filter event stream — the
/// same stream the trace recorder logs, so coverage computed live through
/// a [`CoverageCollector`]'s tap equals coverage folded from the recorded
/// trace.
#[derive(Debug, Default)]
pub struct StreamCoverage {
    last_class: BTreeMap<usize, EventClass>,
    pair_counts: BTreeMap<(usize, u8, u8), u64>,
    class_counts: [u64; EventClass::ALL.len()],
    ticks: u64,
}

impl StreamCoverage {
    /// An empty accumulator.
    pub fn new() -> StreamCoverage {
        StreamCoverage::default()
    }

    /// Folds one forwarded event.
    pub fn see_event(&mut self, vcpu: usize, class: EventClass) {
        let cur = class.index() as u8;
        if let Some(prev) = self.last_class.insert(vcpu, class) {
            *self.pair_counts.entry((vcpu, prev.index() as u8, cur)).or_insert(0) += 1;
        }
        self.class_counts[class.index()] += 1;
    }

    /// Folds one EM tick.
    pub fn see_tick(&mut self) {
        self.ticks += 1;
    }

    /// Renders the accumulated stream features into a coverage map.
    pub fn fold_into(&self, map: &mut CoverageMap) {
        for (&(vcpu, prev, cur), &count) in &self.pair_counts {
            let f =
                feature("stream-edge", &[&vcpu.to_string(), &prev.to_string(), &cur.to_string()]);
            map.observe(f, count);
        }
        for (idx, &count) in self.class_counts.iter().enumerate() {
            map.observe(feature("class", &[&idx.to_string()]), count);
            if count > 0 {
                // A magnitude feature with finer resolution than the
                // count buckets: the bit length of the per-class total.
                let mag = 64 - count.leading_zeros();
                map.hit(feature("class-mag", &[&idx.to_string(), &mag.to_string()]));
            }
        }
        map.observe(feature("ticks", &[]), self.ticks);
    }
}

/// A coverage-tap factory sharing its accumulator with the caller, the
/// same shape as the trace recorder: the EM owns the tap box, the collector
/// keeps the other handle and folds the map after the run.
pub struct CoverageCollector {
    shared: Arc<Mutex<StreamCoverage>>,
}

impl Default for CoverageCollector {
    fn default() -> Self {
        CoverageCollector::new()
    }
}

impl CoverageCollector {
    /// A fresh collector.
    pub fn new() -> CoverageCollector {
        CoverageCollector { shared: Arc::new(Mutex::new(StreamCoverage::new())) }
    }

    /// The tap to hand to
    /// [`EventMultiplexer::attach_tap`](hypertap_core::em::EventMultiplexer::attach_tap),
    /// typically after a trace recorder's.
    pub fn tap(&self) -> Box<dyn EventTap> {
        Box::new(CoverageTap { shared: Arc::clone(&self.shared) })
    }

    /// Renders everything observed so far into a coverage map.
    pub fn fold_into(&self, map: &mut CoverageMap) {
        self.shared.lock().expect("coverage accumulator").fold_into(map);
    }
}

/// The EM-boundary tap feeding a [`StreamCoverage`]. Sits at the same
/// pre-filter point as the trace recorder's tap, so it sees the full
/// forwarded stream regardless of auditor subscriptions.
struct CoverageTap {
    shared: Arc<Mutex<StreamCoverage>>,
}

impl EventTap for CoverageTap {
    fn on_event(&mut self, event: &Event) {
        self.shared.lock().expect("coverage accumulator").see_event(event.vcpu.0, event.class());
    }

    fn on_tick(&mut self, _now: SimTime) {
        self.shared.lock().expect("coverage accumulator").see_tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(features: &[(u64, u64)]) -> CoverageMap {
        let mut m = CoverageMap::new();
        for &(f, c) in features {
            m.observe(f, c);
        }
        m
    }

    #[test]
    fn feature_hashing_is_stable_and_separator_safe() {
        assert_eq!(feature("t", &["ab", "c"]), feature("t", &["ab", "c"]));
        assert_ne!(feature("t", &["ab", "c"]), feature("t", &["a", "bc"]));
        assert_ne!(feature("t", &[]), feature("u", &[]));
    }

    #[test]
    fn buckets_follow_the_afl_ladder() {
        assert_eq!(bucket(0), None);
        assert_eq!(bucket(1), Some(0));
        assert_eq!(bucket(2), Some(1));
        assert_eq!(bucket(3), Some(2));
        assert_eq!(bucket(4), Some(3));
        assert_eq!(bucket(7), Some(3));
        assert_eq!(bucket(8), Some(4));
        assert_eq!(bucket(31), Some(5));
        assert_eq!(bucket(127), Some(6));
        assert_eq!(bucket(u64::MAX), Some(7));
    }

    #[test]
    fn normalize_masks_digit_runs() {
        assert_eq!(
            normalize_detail("vcpu0 liveness: live -> hung"),
            "vcpu# liveness: live -> hung"
        );
        assert_eq!(
            normalize_detail("scan epoch 17: 2 hidden pdba(s), 0 hidden kstack(s)"),
            "scan epoch #: # hidden pdba(s), # hidden kstack(s)"
        );
        assert_eq!(normalize_detail("no digits"), "no digits");
    }

    #[test]
    fn observe_zero_is_a_noop_and_hit_sets_one_bit() {
        let mut m = CoverageMap::new();
        m.observe(feature("f", &[]), 0);
        assert!(m.is_empty());
        m.hit(feature("f", &[]));
        assert_eq!(m.bits(), 1);
    }

    #[test]
    fn novelty_is_order_independent() {
        // The same final (feature, count) observations yield the same map —
        // and therefore the same novelty verdict — in any order.
        let obs = [(feature("a", &[]), 3), (feature("b", &[]), 17), (feature("c", &[]), 1)];
        let forward = map_of(&obs);
        let mut reversed = obs;
        reversed.reverse();
        let backward = map_of(&reversed);
        assert_eq!(forward, backward);
        assert_eq!(forward.fingerprint(), backward.fingerprint());

        let base = map_of(&obs[..2]);
        assert_eq!(base.novel_bits(&forward), base.novel_bits(&backward));
        assert!(base.novel_bits(&forward) > 0, "feature c is novel");
        assert_eq!(forward.novel_bits(&base), 0, "subset adds nothing");
    }

    #[test]
    fn merge_is_commutative() {
        let a = map_of(&[(1, 1), (2, 40)]);
        let b = map_of(&[(2, 3), (99, 8)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn merge_is_associative() {
        let a = map_of(&[(1, 1)]);
        let b = map_of(&[(2, 2)]);
        let c = map_of(&[(3, 300)]);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_is_idempotent_and_identity_on_empty() {
        let a = map_of(&[(7, 7), (8, 128)]);
        let mut twice = a.clone();
        twice.merge(&a);
        assert_eq!(twice, a, "self-merge changes nothing");
        let mut onto_empty = CoverageMap::new();
        onto_empty.merge(&a);
        assert_eq!(onto_empty, a, "merging into an empty map copies it");
        let mut with_empty = a.clone();
        with_empty.merge(&CoverageMap::new());
        assert_eq!(with_empty, a, "merging an empty map changes nothing");
    }

    #[test]
    fn covers_is_subset_order() {
        let small = map_of(&[(1, 1)]);
        let big = map_of(&[(1, 1), (2, 2)]);
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.covers(&big));
    }

    #[test]
    fn stream_coverage_matches_between_tap_and_direct_fold() {
        use hypertap_core::event::{EventKind, VmId};
        use hypertap_hvsim::exit::VcpuSnapshot;
        use hypertap_hvsim::mem::{Gpa, Gva};
        use hypertap_hvsim::vcpu::{Cpl, VcpuId};

        let ev = |vcpu: usize, kind: EventKind| Event {
            vm: VmId(0),
            vcpu: VcpuId(vcpu),
            time: SimTime::from_nanos(10),
            kind,
            state: VcpuSnapshot::from_parts(
                Gpa::new(0x1000),
                Gva::new(0),
                Gva::new(0),
                Gva::new(0),
                Cpl::Kernel,
                [0; 7],
            ),
        };
        let events = [
            ev(0, EventKind::ProcessSwitch { new_pdba: Gpa::new(0x1000) }),
            ev(0, EventKind::ThreadSwitch { kernel_stack: 0xAA }),
            ev(1, EventKind::ProcessSwitch { new_pdba: Gpa::new(0x2000) }),
            ev(0, EventKind::ProcessSwitch { new_pdba: Gpa::new(0x3000) }),
        ];

        let collector = CoverageCollector::new();
        let mut tap = collector.tap();
        for e in &events {
            tap.on_event(e);
        }
        tap.on_tick(SimTime::from_nanos(50));
        let mut via_tap = CoverageMap::new();
        collector.fold_into(&mut via_tap);

        let mut direct = StreamCoverage::new();
        for e in &events {
            direct.see_event(e.vcpu.0, e.class());
        }
        direct.see_tick();
        let mut via_fold = CoverageMap::new();
        direct.fold_into(&mut via_fold);

        assert_eq!(via_tap, via_fold);
        assert!(!via_tap.is_empty());
    }
}
