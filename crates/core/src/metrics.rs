//! Zero-dependency metrics & tracing for the monitoring plane.
//!
//! The paper's whole evaluation (§VIII, Fig. 7) is built on *measuring* the
//! monitoring stack itself — per-exit overhead, event rates per class,
//! detection latency. This module is the unified observability layer those
//! measurements flow through: a [`MetricsRegistry`] of counters, gauges and
//! fixed-bucket [`Histogram`]s, a cheap host-wall-clock span recorder
//! ([`Spans`]) for the exit→decode→fan-out→audit path, and two
//! dependency-free exporters (a JSON snapshot and Prometheus text format).
//!
//! # Determinism contract
//!
//! Metrics are **host-side bookkeeping only**. Nothing here reads or writes
//! simulated state, charges simulated time, or changes a delivery decision:
//! counters increment plain integers, and span timing uses the *host* clock
//! ([`std::time::Instant`]), which never feeds back into the simulation.
//! The replay-conformance suite enforces this: a metrics-on run and a
//! metrics-off run of the same scenario must produce byte-identical traces
//! and verdicts (`DiffPolicy::Exact`), exactly like the TLB on/off pair.
//!
//! # Snapshot model
//!
//! The registry is pull-based: instrumented components keep their own live
//! counters and *export* into a fresh registry when a snapshot is taken
//! (`EventMultiplexer::collect_metrics`, `Kvm::collect_metrics`,
//! [`collect_vm`], `RemoteHealthChecker::collect_metrics`). Snapshots are
//! therefore free until requested, and the hot path never touches a string.

use hypertap_hvsim::machine::VmState;
use serde::{Deserialize, Serialize, Value};
use std::time::Instant;

/// Default bucket bounds for host-side latency histograms, nanoseconds.
pub const LATENCY_BOUNDS_NS: [u64; 10] =
    [100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000];

/// Default bucket bounds for simulated-time gap histograms (e.g. RHC
/// heartbeat inter-arrival), nanoseconds.
pub const GAP_BOUNDS_NS: [u64; 8] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    60_000_000_000,
];

/// A fixed-bucket histogram: `bounds.len() + 1` buckets, the last catching
/// everything above the highest bound. Recording is a bounded linear scan
/// over the (small, fixed) bound list plus two integer adds — cheap enough
/// for per-event use.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
}

impl Histogram {
    /// A histogram over the given ascending bucket bounds (inclusive upper
    /// edges).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket bounds must be ascending");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0 }
    }

    /// The standard host-latency histogram ([`LATENCY_BOUNDS_NS`]).
    pub fn latency_ns() -> Self {
        Histogram::new(&LATENCY_BOUNDS_NS)
    }

    /// The standard simulated-gap histogram ([`GAP_BOUNDS_NS`]).
    pub fn gap_ns() -> Self {
        Histogram::new(&GAP_BOUNDS_NS)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.iter().position(|b| value <= *b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// `(upper_bound, count)` per finite bucket, in bound order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds.iter().copied().zip(self.counts.iter().copied())
    }

    /// Count of observations above the highest bound.
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("counts is never empty")
    }

    /// Whether another histogram uses the same bucket bounds (the
    /// precondition for [`Histogram::merge`]).
    pub fn same_bounds(&self, other: &Histogram) -> bool {
        self.bounds == other.bounds
    }

    /// Merges another histogram recorded over the **same bucket bounds**
    /// into this one: per-bucket counts add, sums add (saturating, like
    /// [`Histogram::observe`]). Because the buckets line up, every
    /// observation lands in the same bucket after the merge as it did
    /// before — the property the fleet aggregator relies on.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ; merging histograms of different
    /// shapes silently would corrupt both distributions.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.same_bounds(other),
            "cannot merge histograms with different bucket bounds ({:?} vs {:?})",
            self.bounds,
            other.bounds
        );
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    fn from_parts(bounds: Vec<u64>, counts: Vec<u64>, sum: u64) -> Self {
        assert_eq!(counts.len(), bounds.len() + 1);
        Histogram { bounds, counts, sum }
    }
}

/// The value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Point-in-time measurement.
    Gauge(f64),
    /// Distribution of observations.
    Histogram(Histogram),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, if this is a histogram.
    pub fn as_histogram(&self) -> Option<&Histogram> {
        match self {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// One named (optionally labelled) metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Base metric name (Prometheus-style, e.g. `hypertap_vm_exits_total`).
    pub name: String,
    /// Label pairs distinguishing series of the same name.
    pub labels: Vec<(String, String)>,
    /// One-line description.
    pub help: String,
    /// The value.
    pub value: MetricValue,
}

/// A point-in-time snapshot of every exported metric, in insertion order
/// (which the exporters preserve, keeping output deterministic).
///
/// A scraped snapshot can additionally carry *attribution*: when it was
/// captured (host wall clock) and how many source registries were merged
/// into it (the fleet's per-VM/per-worker provenance). Both are unset on
/// freshly collected per-VM registries — they are stamped only at
/// scrape/export time, so determinism comparisons between per-VM
/// registries never see host time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<MetricEntry>,
    captured_at_unix_ns: Option<u64>,
    merged_from: u64,
}

/// Snapshot schema version written into the JSON export.
pub const SNAPSHOT_VERSION: u64 = 1;

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn push(&mut self, name: &str, labels: &[(&str, &str)], help: &str, value: MetricValue) {
        self.entries.push(MetricEntry {
            name: name.to_owned(),
            labels: labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            help: help.to_owned(),
            value,
        });
    }

    /// Records an unlabelled counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.push(name, &[], help, MetricValue::Counter(value));
    }

    /// Records a labelled counter.
    pub fn counter_with(&mut self, name: &str, labels: &[(&str, &str)], help: &str, value: u64) {
        self.push(name, labels, help, MetricValue::Counter(value));
    }

    /// Records an unlabelled gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.push(name, &[], help, MetricValue::Gauge(value));
    }

    /// Records a labelled gauge.
    pub fn gauge_with(&mut self, name: &str, labels: &[(&str, &str)], help: &str, value: f64) {
        self.push(name, labels, help, MetricValue::Gauge(value));
    }

    /// Records an unlabelled histogram snapshot.
    pub fn histogram(&mut self, name: &str, help: &str, hist: &Histogram) {
        self.push(name, &[], help, MetricValue::Histogram(hist.clone()));
    }

    /// Records a labelled histogram snapshot.
    pub fn histogram_with(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        hist: &Histogram,
    ) {
        self.push(name, labels, help, MetricValue::Histogram(hist.clone()));
    }

    /// Every entry, in insertion order.
    pub fn entries(&self) -> &[MetricEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stamps the snapshot with the current host wall-clock time (Unix
    /// nanoseconds). Called at scrape/export time, never on per-VM
    /// registries that feed determinism comparisons.
    pub fn stamp_captured_now(&mut self) {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        self.captured_at_unix_ns = Some(now);
    }

    /// Sets an explicit capture timestamp (Unix nanoseconds).
    pub fn set_captured_at_unix_ns(&mut self, at: u64) {
        self.captured_at_unix_ns = Some(at);
    }

    /// When this snapshot was captured (Unix nanoseconds), if stamped.
    pub fn captured_at_unix_ns(&self) -> Option<u64> {
        self.captured_at_unix_ns
    }

    /// Records how many source registries were merged into this snapshot.
    pub fn set_merged_from(&mut self, sources: u64) {
        self.merged_from = sources;
    }

    /// How many source registries were merged into this snapshot (0 when
    /// never set — a single-source registry).
    pub fn merged_from(&self) -> u64 {
        self.merged_from
    }

    /// Looks up a metric by name and exact label set.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| {
                e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(labels.iter())
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|e| &e.value)
    }

    /// Merges another snapshot into this one — the fleet aggregator's
    /// combine step for per-VM registries.
    ///
    /// Series are matched by `(name, labels)`. For matching series:
    /// counters add (saturating), histograms merge bucket-wise
    /// ([`Histogram::merge`]), and gauges **sum** — correct for additive
    /// gauges (queue depths, enabled-flags-as-counts) but not for ratios
    /// like `hypertap_tlb_hit_rate`, which consumers should recompute from
    /// the merged hit/miss counters instead. Series present only in
    /// `other` are appended in `other`'s order, so merging registries with
    /// the same series set (the per-VM snapshot case) is commutative and
    /// associative, and the empty registry is the identity.
    ///
    /// # Panics
    ///
    /// Panics when the same `(name, labels)` series has different kinds or
    /// histogram bucket bounds on the two sides — those snapshots are not
    /// of the same schema and merging them would be meaningless.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for entry in &other.entries {
            let existing =
                self.entries.iter_mut().find(|e| e.name == entry.name && e.labels == entry.labels);
            match existing {
                None => self.entries.push(entry.clone()),
                Some(mine) => match (&mut mine.value, &entry.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a = a.saturating_add(*b);
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += *b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (mine, theirs) => panic!(
                        "cannot merge metric `{}`: kind {} vs {}",
                        entry.name,
                        mine.kind(),
                        theirs.kind()
                    ),
                },
            }
        }
    }

    /// Renders the snapshot as indented JSON (the schema round-tripped by
    /// the CI check; see [`MetricsRegistry::from_json`]).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics snapshot serializes")
    }

    /// Parses a JSON snapshot back into a registry.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the text is not valid JSON or does not
    /// match the snapshot schema.
    pub fn from_json(text: &str) -> Result<MetricsRegistry, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for e in &self.entries {
            if last_name != Some(e.name.as_str()) {
                out.push_str("# HELP ");
                out.push_str(&e.name);
                out.push(' ');
                out.push_str(&e.help.replace('\n', " "));
                out.push_str("\n# TYPE ");
                out.push_str(&e.name);
                out.push(' ');
                out.push_str(e.value.kind());
                out.push('\n');
                last_name = Some(e.name.as_str());
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&e.name);
                    out.push_str(&render_labels(&e.labels, None));
                    out.push_str(&format!(" {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&e.name);
                    out.push_str(&render_labels(&e.labels, None));
                    out.push_str(&format!(" {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in h.buckets() {
                        cumulative += count;
                        out.push_str(&e.name);
                        out.push_str("_bucket");
                        out.push_str(&render_labels(&e.labels, Some(&bound.to_string())));
                        out.push_str(&format!(" {cumulative}\n"));
                    }
                    cumulative += h.overflow();
                    out.push_str(&e.name);
                    out.push_str("_bucket");
                    out.push_str(&render_labels(&e.labels, Some("+Inf")));
                    out.push_str(&format!(" {cumulative}\n"));
                    out.push_str(&e.name);
                    out.push_str("_sum");
                    out.push_str(&render_labels(&e.labels, None));
                    out.push_str(&format!(" {}\n", h.sum()));
                    out.push_str(&e.name);
                    out.push_str("_count");
                    out.push_str(&render_labels(&e.labels, None));
                    out.push_str(&format!(" {}\n", h.count()));
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    // The Prometheus exposition format requires backslash, double-quote
    // and line-feed escaped inside label values — a raw newline would
    // split the series line and corrupt the whole scrape.
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let escaped = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Audits Prometheus text-exposition output against the format rules the
/// scrape endpoint promises: every sample belongs to a family announced by
/// exactly one `# TYPE`/`# HELP` pair, counter families end in `_total`,
/// histogram families expose a `+Inf` bucket, names match the metric-name
/// grammar, and every non-comment line is a parseable `series value` pair.
/// Returns one message per violation — empty means clean.
pub fn lint_prometheus(text: &str) -> Vec<String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut problems = Vec::new();
    let mut types: Vec<(String, String)> = Vec::new();
    let mut helps: Vec<String> = Vec::new();
    let mut histogram_inf: Vec<(String, bool)> = Vec::new();
    for (at, line) in text.lines().enumerate() {
        let ln = at + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !valid_name(name) {
                problems.push(format!("line {ln}: invalid family name in TYPE: {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                problems.push(format!("line {ln}: unknown TYPE {kind:?} for {name}"));
            }
            if types.iter().any(|(n, _)| n == name) {
                problems.push(format!("line {ln}: duplicate TYPE for family {name}"));
            }
            if kind == "histogram" {
                histogram_inf.push((name.to_owned(), false));
            }
            types.push((name.to_owned(), kind.to_owned()));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if helps.iter().any(|n| n == name) {
                problems.push(format!("line {ln}: duplicate HELP for family {name}"));
            }
            helps.push(name.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        let Some(space) = line.rfind(' ') else {
            problems.push(format!("line {ln}: not a `series value` sample: {line:?}"));
            continue;
        };
        let (series, value) = line.split_at(space);
        if value.trim().parse::<f64>().is_err() {
            problems.push(format!("line {ln}: sample value does not parse: {line:?}"));
        }
        let series_name = series.split('{').next().unwrap_or("");
        if !valid_name(series_name) {
            problems.push(format!("line {ln}: invalid series name {series_name:?}"));
            continue;
        }
        // Map the series to its family: histogram samples append
        // `_bucket`/`_sum`/`_count` to the family name.
        let family = types.iter().find_map(|(n, kind)| {
            if kind == "histogram" {
                ["_bucket", "_sum", "_count"]
                    .iter()
                    .find(|suffix| series_name == format!("{n}{suffix}"))
                    .map(|suffix| (n.clone(), kind.clone(), *suffix))
            } else if series_name == n {
                Some((n.clone(), kind.clone(), ""))
            } else {
                None
            }
        });
        match family {
            None => {
                problems.push(format!("line {ln}: sample {series_name} has no preceding # TYPE"))
            }
            Some((fam, kind, suffix)) => {
                if !helps.iter().any(|h| h == &fam) {
                    problems.push(format!("line {ln}: family {fam} has no # HELP"));
                }
                if kind == "counter" && !fam.ends_with("_total") {
                    problems.push(format!("line {ln}: counter {fam} must end with `_total`"));
                }
                if suffix == "_bucket" && series.contains("le=\"+Inf\"") {
                    if let Some((_, saw)) = histogram_inf.iter_mut().find(|(n, _)| *n == fam) {
                        *saw = true;
                    }
                }
            }
        }
    }
    for (fam, saw) in &histogram_inf {
        if !saw {
            problems.push(format!("histogram {fam} has no `+Inf` bucket"));
        }
    }
    problems
}

impl Serialize for MetricsRegistry {
    fn to_value(&self) -> Value {
        let metrics = self
            .entries
            .iter()
            .map(|e| {
                let mut fields: Vec<(String, Value)> =
                    vec![("name".to_owned(), Value::Str(e.name.clone()))];
                if !e.labels.is_empty() {
                    fields.push((
                        "labels".to_owned(),
                        Value::Object(
                            e.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                                .collect(),
                        ),
                    ));
                }
                fields.push(("kind".to_owned(), Value::Str(e.value.kind().to_owned())));
                fields.push(("help".to_owned(), Value::Str(e.help.clone())));
                match &e.value {
                    MetricValue::Counter(v) => fields.push(("value".to_owned(), Value::U64(*v))),
                    MetricValue::Gauge(v) => fields.push(("value".to_owned(), Value::F64(*v))),
                    MetricValue::Histogram(h) => {
                        fields.push(("count".to_owned(), Value::U64(h.count())));
                        fields.push(("sum".to_owned(), Value::U64(h.sum())));
                        fields.push((
                            "buckets".to_owned(),
                            Value::Array(
                                h.buckets()
                                    .map(|(bound, count)| {
                                        Value::Object(vec![
                                            ("le".to_owned(), Value::U64(bound)),
                                            ("count".to_owned(), Value::U64(count)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ));
                        fields.push(("overflow".to_owned(), Value::U64(h.overflow())));
                    }
                }
                Value::Object(fields)
            })
            .collect();
        let mut fields = vec![("version".to_owned(), Value::U64(SNAPSHOT_VERSION))];
        // Attribution fields are emitted only when set, so un-stamped
        // snapshots keep the original schema byte for byte (and legacy
        // snapshots without them still parse).
        if let Some(at) = self.captured_at_unix_ns {
            fields.push(("captured_at_unix_ns".to_owned(), Value::U64(at)));
        }
        if self.merged_from != 0 {
            fields.push(("merged_from".to_owned(), Value::U64(self.merged_from)));
        }
        fields.push(("metrics".to_owned(), Value::Array(metrics)));
        Value::Object(fields)
    }
}

fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, serde::Error> {
    value.get(key).ok_or_else(|| serde::Error::custom(format!("missing field `{key}`")))
}

impl Deserialize for MetricsRegistry {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let version = u64::from_value(field(value, "version")?)?;
        if version != SNAPSHOT_VERSION {
            return Err(serde::Error::custom(format!(
                "unsupported metrics snapshot version {version}"
            )));
        }
        let captured_at_unix_ns = match value.get("captured_at_unix_ns") {
            Some(v) => Some(u64::from_value(v)?),
            None => None,
        };
        let merged_from = match value.get("merged_from") {
            Some(v) => u64::from_value(v)?,
            None => 0,
        };
        let Value::Array(metrics) = field(value, "metrics")? else {
            return Err(serde::Error::custom("`metrics` must be an array"));
        };
        let mut entries = Vec::with_capacity(metrics.len());
        for m in metrics {
            let name = String::from_value(field(m, "name")?)?;
            let help = String::from_value(field(m, "help")?)?;
            let labels = match m.get("labels") {
                Some(Value::Object(fields)) => fields
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), String::from_value(v)?)))
                    .collect::<Result<Vec<_>, serde::Error>>()?,
                Some(_) => return Err(serde::Error::custom("`labels` must be an object")),
                None => Vec::new(),
            };
            let kind = String::from_value(field(m, "kind")?)?;
            let value = match kind.as_str() {
                "counter" => MetricValue::Counter(u64::from_value(field(m, "value")?)?),
                "gauge" => MetricValue::Gauge(f64::from_value(field(m, "value")?)?),
                "histogram" => {
                    let sum = u64::from_value(field(m, "sum")?)?;
                    let overflow = u64::from_value(field(m, "overflow")?)?;
                    let Value::Array(buckets) = field(m, "buckets")? else {
                        return Err(serde::Error::custom("`buckets` must be an array"));
                    };
                    let mut bounds = Vec::with_capacity(buckets.len());
                    let mut counts = Vec::with_capacity(buckets.len() + 1);
                    for b in buckets {
                        bounds.push(u64::from_value(field(b, "le")?)?);
                        counts.push(u64::from_value(field(b, "count")?)?);
                    }
                    counts.push(overflow);
                    if bounds.is_empty() {
                        return Err(serde::Error::custom("histogram needs buckets"));
                    }
                    MetricValue::Histogram(Histogram::from_parts(bounds, counts, sum))
                }
                other => {
                    return Err(serde::Error::custom(format!("unknown metric kind `{other}`")))
                }
            };
            entries.push(MetricEntry { name, labels, help, value });
        }
        Ok(MetricsRegistry { entries, captured_at_unix_ns, merged_from })
    }
}

/// A cheap host-wall-clock span recorder for named pipeline stages (the
/// exit→decode→fan-out→audit path). Disabled spans cost one branch per
/// call site; enabled spans cost two `Instant` reads and one histogram
/// record. Host time never feeds back into the simulation, so spans are
/// covered by the metrics-on/off conformance pair like every other metric.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    stages: Vec<(&'static str, Histogram)>,
    /// Host timestamps actually taken by [`Spans::start`] — the regression
    /// guard that a disabled recorder never touches the clock.
    timestamps_taken: u64,
}

impl Spans {
    /// A recorder, enabled or not.
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, stages: Vec::new(), timestamps_taken: 0 }
    }

    /// Turns recording on or off (accumulated stages are kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span: returns a host timestamp when enabled, `None` (free)
    /// when disabled. `Instant::now()` — a vDSO call, but still tens of
    /// nanoseconds on the exit path — is only reached when enabled.
    #[inline]
    pub fn start(&mut self) -> Option<Instant> {
        if self.enabled {
            self.timestamps_taken += 1;
            Some(Instant::now())
        } else {
            None
        }
    }

    /// How many host timestamps [`Spans::start`] has actually taken. Stays
    /// at zero for as long as the recorder is disabled — the property the
    /// exit-path regression test pins down.
    pub fn timestamps_taken(&self) -> u64 {
        self.timestamps_taken
    }

    /// Finishes a span started by [`Spans::start`], attributing the elapsed
    /// host nanoseconds to `stage`. Returns the elapsed nanoseconds (so the
    /// caller can forward the same measurement to the flight recorder), or
    /// `None` when recording was disabled at [`Spans::start`] time.
    pub fn record(&mut self, stage: &'static str, started: Option<Instant>) -> Option<u64> {
        let started = started?;
        let elapsed = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        match self.stages.iter_mut().find(|(name, _)| *name == stage) {
            Some((_, hist)) => hist.observe(elapsed),
            None => {
                let mut hist = Histogram::latency_ns();
                hist.observe(elapsed);
                self.stages.push((stage, hist));
            }
        }
        Some(elapsed)
    }

    /// The accumulated histogram for one stage, if it ever recorded.
    pub fn stage(&self, name: &str) -> Option<&Histogram> {
        self.stages.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Exports every stage as a labelled histogram series of `metric`.
    pub fn collect(&self, metric: &str, help: &str, reg: &mut MetricsRegistry) {
        for (stage, hist) in &self.stages {
            reg.histogram_with(metric, &[("stage", stage)], help, hist);
        }
    }
}

/// Exports the simulator-side metrics of a VM: per-exit-reason counts, the
/// simulated cycle cost charged to exit handling, and the software TLB's
/// counters, as always-on registry gauges.
pub fn collect_vm(reg: &mut MetricsRegistry, vm: &VmState) {
    reg.gauge(
        "hypertap_vm_sim_time_ns",
        "current simulated time, nanoseconds",
        vm.now().as_nanos() as f64,
    );
    for (reason, count) in vm.stats().iter() {
        reg.counter_with(
            "hypertap_vm_exits_total",
            &[("reason", reason)],
            "VM exits by hardware exit reason",
            count,
        );
    }
    reg.counter(
        "hypertap_vm_exit_overhead_ns_total",
        "simulated cycle cost charged to exit handling, nanoseconds",
        vm.stats().overhead().as_nanos(),
    );
    let tlb = vm.tlb_stats();
    reg.gauge(
        "hypertap_tlb_enabled",
        "whether the per-vCPU software TLB is enabled (1) or bypassed (0)",
        if vm.tlb_enabled() { 1.0 } else { 0.0 },
    );
    reg.counter("hypertap_tlb_hits_total", "software TLB lookup hits", tlb.hits);
    reg.counter("hypertap_tlb_misses_total", "software TLB lookup misses", tlb.misses);
    reg.counter("hypertap_tlb_fills_total", "software TLB entries filled", tlb.fills);
    reg.counter("hypertap_tlb_flushes_total", "software TLB flushes", tlb.flushes);
    reg.gauge("hypertap_tlb_hit_rate", "software TLB hit rate over all lookups", tlb.hit_rate());
}

/// A `--metrics[=PATH]` request parsed from a binary's arguments.
///
/// Bare `--metrics` prints both exports to stdout; `--metrics=PATH` writes
/// the JSON snapshot to `PATH` and the Prometheus text format to
/// `PATH.prom`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsArg {
    /// Output path, or `None` for stdout.
    pub path: Option<String>,
}

impl MetricsArg {
    /// Scans the process arguments for `--metrics[=PATH]`.
    pub fn from_env() -> Option<MetricsArg> {
        MetricsArg::from_args(std::env::args().skip(1))
    }

    /// Scans an explicit argument list (testable). The last occurrence
    /// wins.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Option<MetricsArg> {
        let mut found = None;
        for a in args {
            if a == "--metrics" {
                found = Some(MetricsArg { path: None });
            } else if let Some(p) = a.strip_prefix("--metrics=") {
                found = Some(MetricsArg { path: Some(p.to_owned()) });
            }
        }
        found
    }

    /// Emits both exports per the parsed request (best-effort: I/O errors
    /// are reported to stderr, not panicked on).
    pub fn emit(&self, reg: &MetricsRegistry) {
        match &self.path {
            Some(path) => {
                let prom_path = format!("{path}.prom");
                if let Err(e) = std::fs::write(path, reg.to_json() + "\n") {
                    eprintln!("metrics: failed to write {path}: {e}");
                    return;
                }
                if let Err(e) = std::fs::write(&prom_path, reg.to_prometheus()) {
                    eprintln!("metrics: failed to write {prom_path}: {e}");
                    return;
                }
                println!("metrics: wrote {path} (JSON) and {prom_path} (Prometheus)");
            }
            None => {
                println!("\n== metrics snapshot (JSON) ==");
                println!("{}", reg.to_json());
                println!("\n== metrics snapshot (Prometheus) ==");
                print!("{}", reg.to_prometheus());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(10, 2), (100, 2), (1000, 0)]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5126);
        assert!((h.mean() - 1025.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("hypertap_events_total", "events", 42);
        reg.counter_with(
            "hypertap_vm_exits_total",
            &[("reason", "CR_ACCESS")],
            "exits by reason",
            7,
        );
        reg.gauge("hypertap_tlb_hit_rate", "hit rate", 0.976_562_5);
        let mut h = Histogram::new(&[100, 1000]);
        h.observe(50);
        h.observe(250);
        h.observe(9999);
        reg.histogram_with("hypertap_dispatch_ns", &[("stage", "fanout")], "latency", &h);
        reg
    }

    #[test]
    fn find_matches_name_and_labels() {
        let reg = sample_registry();
        assert_eq!(reg.find("hypertap_events_total", &[]).unwrap().as_counter(), Some(42));
        assert_eq!(
            reg.find("hypertap_vm_exits_total", &[("reason", "CR_ACCESS")]).unwrap().as_counter(),
            Some(7)
        );
        assert!(reg.find("hypertap_vm_exits_total", &[]).is_none());
        assert!(reg.find("nope", &[]).is_none());
    }

    #[test]
    fn json_snapshot_round_trips() {
        let reg = sample_registry();
        let json = reg.to_json();
        let back = MetricsRegistry::from_json(&json).expect("snapshot parses back");
        assert_eq!(back, reg);
        // And the re-rendered text is identical (deterministic export).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn json_snapshot_rejects_garbage_and_future_versions() {
        assert!(MetricsRegistry::from_json("not json").is_err());
        assert!(MetricsRegistry::from_json("{\"version\": 999, \"metrics\": []}").is_err());
        assert!(MetricsRegistry::from_json("{\"metrics\": []}").is_err());
    }

    #[test]
    fn prometheus_export_shape() {
        let text = sample_registry().to_prometheus();
        assert!(text.contains("# HELP hypertap_events_total events\n"));
        assert!(text.contains("# TYPE hypertap_events_total counter\n"));
        assert!(text.contains("hypertap_events_total 42\n"));
        assert!(text.contains("hypertap_vm_exits_total{reason=\"CR_ACCESS\"} 7\n"));
        assert!(text.contains("hypertap_tlb_hit_rate 0.9765625\n"));
        // Histogram buckets are cumulative and end with +Inf.
        assert!(text.contains("hypertap_dispatch_ns_bucket{stage=\"fanout\",le=\"100\"} 1\n"));
        assert!(text.contains("hypertap_dispatch_ns_bucket{stage=\"fanout\",le=\"1000\"} 2\n"));
        assert!(text.contains("hypertap_dispatch_ns_bucket{stage=\"fanout\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("hypertap_dispatch_ns_sum{stage=\"fanout\"} 10299\n"));
        assert!(text.contains("hypertap_dispatch_ns_count{stage=\"fanout\"} 3\n"));
    }

    #[test]
    fn prometheus_emits_help_once_per_series_family() {
        let mut reg = MetricsRegistry::new();
        reg.counter_with("m", &[("a", "1")], "help", 1);
        reg.counter_with("m", &[("a", "2")], "help", 2);
        let text = reg.to_prometheus();
        assert_eq!(text.matches("# HELP m help").count(), 1);
        assert_eq!(text.matches("# TYPE m counter").count(), 1);
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let mut reg = MetricsRegistry::new();
        reg.counter_with("m", &[("evil", "a\\b\"c\nd")], "help", 1);
        let text = reg.to_prometheus();
        assert!(
            text.contains("m{evil=\"a\\\\b\\\"c\\nd\"} 1\n"),
            "backslash, quote and newline must all be escaped: {text:?}"
        );
        // No raw newline may survive inside a label value: every line must
        // be a comment or a complete `series value` pair.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.ends_with(" 1"),
                "scrape line corrupted by unescaped newline: {line:?}"
            );
        }
    }

    #[test]
    fn spans_disabled_are_free_and_enabled_record() {
        let mut spans = Spans::new(false);
        let t = spans.start();
        assert!(t.is_none());
        assert!(spans.record("decode", t).is_none(), "disabled spans measure nothing");
        assert!(spans.stage("decode").is_none());
        assert_eq!(spans.timestamps_taken(), 0, "disabled start never reads the clock");

        spans.set_enabled(true);
        for _ in 0..3 {
            let t = spans.start();
            assert!(spans.record("decode", t).is_some(), "enabled spans return elapsed ns");
        }
        assert_eq!(spans.stage("decode").unwrap().count(), 3);
        assert_eq!(spans.timestamps_taken(), 3);
        let mut reg = MetricsRegistry::new();
        spans.collect("hypertap_span_ns", "span latency", &mut reg);
        assert!(reg.find("hypertap_span_ns", &[("stage", "decode")]).is_some());
    }

    fn registry_from(counter: u64, gauge: f64, samples: &[u64]) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("m_total", "a counter", counter);
        reg.gauge("m_depth", "an additive gauge", gauge);
        let mut h = Histogram::new(&[10, 100, 1000]);
        for &s in samples {
            h.observe(s);
        }
        reg.histogram_with("m_ns", &[("stage", "x")], "a histogram", &h);
        reg
    }

    #[test]
    fn histogram_merge_adds_buckets_and_sum() {
        let mut a = Histogram::new(&[10, 100]);
        a.observe(5);
        a.observe(500);
        let mut b = Histogram::new(&[10, 100]);
        b.observe(50);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 555);
        assert_eq!(a.buckets().collect::<Vec<_>>(), vec![(10, 1), (100, 1)]);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    fn histogram_merge_keeps_boundary_values_in_their_bucket() {
        // Observations exactly on a bucket's (inclusive) upper edge must
        // land in the same bucket whether observed pre- or post-merge.
        let bounds = [10u64, 100, 1000];
        let mut merged = Histogram::new(&bounds);
        let mut one_shot = Histogram::new(&bounds);
        let (left, right) = ([10u64, 100, 1000], [11u64, 101, 1001]);
        let mut a = Histogram::new(&bounds);
        let mut b = Histogram::new(&bounds);
        for v in left {
            a.observe(v);
            one_shot.observe(v);
        }
        for v in right {
            b.observe(v);
            one_shot.observe(v);
        }
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, one_shot, "merge must preserve bucket placement");
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[10, 100]);
        a.merge(&Histogram::new(&[10, 200]));
    }

    #[test]
    fn registry_merge_is_commutative_for_shared_series() {
        let a = registry_from(3, 1.5, &[5, 50]);
        let b = registry_from(7, 2.5, &[500, 5000]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.find("m_total", &[]).unwrap().as_counter(), Some(10));
        assert_eq!(ab.find("m_depth", &[]).unwrap().as_gauge(), Some(4.0));
        assert_eq!(ab.find("m_ns", &[("stage", "x")]).unwrap().as_histogram().unwrap().count(), 4);
    }

    #[test]
    fn registry_merge_is_associative() {
        let a = registry_from(1, 0.25, &[1]);
        let b = registry_from(2, 0.5, &[20]);
        let c = registry_from(4, 1.0, &[300]);
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
    fn registry_merge_identity_on_empty() {
        let a = registry_from(42, 3.0, &[7, 70, 700]);
        let mut onto_empty = MetricsRegistry::new();
        onto_empty.merge(&a);
        assert_eq!(onto_empty, a, "merging into an empty registry copies it");
        let mut with_empty = a.clone();
        with_empty.merge(&MetricsRegistry::new());
        assert_eq!(with_empty, a, "merging an empty registry changes nothing");
    }

    #[test]
    fn registry_merge_appends_disjoint_series() {
        let mut a = MetricsRegistry::new();
        a.counter("only_a", "left", 1);
        let mut b = MetricsRegistry::new();
        b.counter("only_b", "right", 2);
        a.merge(&b);
        assert_eq!(a.find("only_a", &[]).unwrap().as_counter(), Some(1));
        assert_eq!(a.find("only_b", &[]).unwrap().as_counter(), Some(2));
    }

    #[test]
    #[should_panic(expected = "kind counter vs gauge")]
    fn registry_merge_rejects_kind_mismatch() {
        let mut a = MetricsRegistry::new();
        a.counter("m", "as counter", 1);
        let mut b = MetricsRegistry::new();
        b.gauge("m", "as gauge", 1.0);
        a.merge(&b);
    }

    #[test]
    fn snapshot_attribution_round_trips() {
        let mut reg = sample_registry();
        reg.set_captured_at_unix_ns(1_700_000_000_000_000_000);
        reg.set_merged_from(8);
        let json = reg.to_json();
        assert!(json.contains("\"captured_at_unix_ns\": 1700000000000000000"), "{json}");
        assert!(json.contains("\"merged_from\": 8"), "{json}");
        let back = MetricsRegistry::from_json(&json).expect("attributed snapshot parses");
        assert_eq!(back, reg);
        assert_eq!(back.captured_at_unix_ns(), Some(1_700_000_000_000_000_000));
        assert_eq!(back.merged_from(), 8);
    }

    #[test]
    fn unstamped_snapshot_keeps_legacy_schema_and_legacy_json_parses() {
        // Per-VM registries are never stamped: their JSON must not grow
        // attribution fields (fleet determinism compares them byte-wise).
        let json = sample_registry().to_json();
        assert!(!json.contains("captured_at_unix_ns"), "{json}");
        assert!(!json.contains("merged_from"), "{json}");
        // And a legacy snapshot without the fields still parses.
        let legacy = MetricsRegistry::from_json("{\"version\": 1, \"metrics\": []}").unwrap();
        assert_eq!(legacy.captured_at_unix_ns(), None);
        assert_eq!(legacy.merged_from(), 0);
    }

    #[test]
    fn stamp_captured_now_uses_the_host_clock() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.captured_at_unix_ns(), None);
        reg.stamp_captured_now();
        let at = reg.captured_at_unix_ns().expect("stamped");
        // Sometime after 2020-01-01 (no clock skew tolerance needed:
        // this only guards against a zero/garbage stamp).
        assert!(at > 1_577_836_800_000_000_000, "implausible capture time {at}");
    }

    #[test]
    fn prometheus_lint_accepts_a_real_vm_snapshot() {
        use crate::intercept::ProcessSwitchEngine;
        use crate::kvm::Kvm;
        use hypertap_hvsim::prelude::*;

        struct TwoProcs;
        impl GuestProgram for TwoProcs {
            fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
                cpu.write_cr3(Gpa::new(0x1000));
                cpu.write_cr3(Gpa::new(0x2000));
                StepOutcome::Continue
            }
        }

        let mut machine = Machine::new(VmConfig::new(1, 16 << 20), Kvm::new());
        let (vm, kvm) = machine.parts_mut();
        kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
        machine.run_steps(&mut TwoProcs, 8);

        let mut reg = MetricsRegistry::new();
        collect_vm(&mut reg, machine.vm());
        machine.hypervisor().collect_metrics(&mut reg);
        let text = reg.to_prometheus();
        let problems = lint_prometheus(&text);
        assert!(problems.is_empty(), "format violations in live scrape:\n{}", problems.join("\n"));
        assert!(text.contains("hypertap_vm_exits_total"), "scrape looks empty: {text}");
    }

    #[test]
    fn prometheus_lint_catches_format_violations() {
        // A counter family not ending in `_total`.
        let mut bad_counter = MetricsRegistry::new();
        bad_counter.counter("hypertap_events", "events", 1);
        let problems = lint_prometheus(&bad_counter.to_prometheus());
        assert!(problems.iter().any(|p| p.contains("must end with `_total`")), "{problems:?}");

        // A sample with no preceding TYPE.
        let problems = lint_prometheus("orphan_series 12\n");
        assert!(problems.iter().any(|p| p.contains("no preceding # TYPE")), "{problems:?}");

        // A histogram without a +Inf bucket.
        let text = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n";
        let problems = lint_prometheus(text);
        assert!(problems.iter().any(|p| p.contains("no `+Inf` bucket")), "{problems:?}");

        // A sample line whose value is not a number.
        let problems =
            lint_prometheus("# HELP m_total x\n# TYPE m_total counter\nm_total NaNopes\n");
        assert!(problems.iter().any(|p| p.contains("does not parse")), "{problems:?}");

        // The registry's own export is clean by construction.
        assert!(lint_prometheus(&sample_registry().to_prometheus()).is_empty());
    }

    #[test]
    fn metrics_arg_parses_both_forms() {
        let none = MetricsArg::from_args(Vec::<String>::new());
        assert!(none.is_none());
        let bare = MetricsArg::from_args(vec!["--metrics".to_owned()]).unwrap();
        assert_eq!(bare.path, None);
        let with_path =
            MetricsArg::from_args(vec!["--seed".to_owned(), "--metrics=out.json".to_owned()])
                .unwrap();
        assert_eq!(with_path.path.as_deref(), Some("out.json"));
    }
}
