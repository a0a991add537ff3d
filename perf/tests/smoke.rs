//! Two ops of every workload, untraced and traced: every workload and
//! metric that `BENCHMARK.json` lists is emitted, with its unit, and no op
//! fails.

use hypertap_perf::workloads::WORKLOADS;
use hypertap_perf::{run, Limit, Metric, DEFAULT_SEED};
use serde::Value;
use std::time::Instant;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => &fields.iter().find(|(k, _)| k == key).expect("key present").1,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `f` applied to every entry of one list of `BENCHMARK.json`.
fn declared<T>(root: &Value, list: &str, f: impl Fn(&Value) -> T) -> Vec<T> {
    match field(root, list) {
        Value::Array(items) => items.iter().map(f).collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

fn name_and_unit(m: &Value) -> (String, String) {
    (text(field(m, "name")), text(field(m, "unit")))
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit.to_owned())).collect()
}

#[test]
fn every_workload_emits_every_metric_and_fails_no_op() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    assert_eq!(declared(&root, "workloads", |w| text(field(w, "name"))), WORKLOADS);
    let e2e = declared(&root, "end_to_end", name_and_unit);
    let layers = declared(&root, "per_layer", name_and_unit);
    for w in WORKLOADS {
        let r = run(w, DEFAULT_SEED, Limit::Ops(2), true, Instant::now()).expect("workload runs");
        assert_eq!(r.failed, 0, "{w}: {:?}", r.notes);
        assert!(r.correct, "{w}: {:?}", r.notes);
        assert_eq!(emitted(&r.e2e), e2e, "{w}");
        assert_eq!(emitted(&r.layers), layers, "{w}");
        for m in &r.e2e {
            assert!(m.value.is_finite() && m.value > 0.0, "{w}: {} = {}", m.name, m.value);
        }
    }
}
