//! The metric registry, `BENCHMARK.json` and the result line agree.

use std::collections::BTreeMap;

use glint_e2ebench::report::{self, END_TO_END, PER_LAYER};
use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {key}"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn every_metric_name_is_valid_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .map(|e| e.metric.name)
        .chain(PER_LAYER.iter().map(|l| l.metric.name))
        .collect();
    for name in &names {
        assert!(report::valid_name(name), "{name} is not [A-Za-z0-9_.-]+");
        assert!(name.len() <= 64, "{name} is longer than 64");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a metric name is used twice");
    assert!(!report::valid_name("bad name"));
    assert!(!report::valid_name(""));
    assert!(!report::valid_name("p99/ms"));
}

#[test]
fn benchmark_json_lists_the_registry() {
    let spec = benchmark_json();
    let e2e = field(&spec, "end_to_end")
        .as_seq()
        .expect("end_to_end list");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, want) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name").as_str(), Some(want.metric.name));
        assert_eq!(field(entry, "unit").as_str(), Some(want.metric.unit));
        assert_eq!(field(entry, "better").as_str(), Some(want.metric.better));
        assert_eq!(field(entry, "bound").as_f64(), Some(want.bound));
    }
    let layers = field(&spec, "per_layer").as_seq().expect("per_layer list");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, want) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(entry, "name").as_str(), Some(want.metric.name));
        assert_eq!(field(entry, "unit").as_str(), Some(want.metric.unit));
        assert_eq!(field(entry, "better").as_str(), Some(want.metric.better));
    }
    let workloads: Vec<&str> = field(&spec, "workloads")
        .as_seq()
        .expect("workload list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("workload name"))
        .collect();
    assert_eq!(workloads, glint_e2ebench::WORKLOADS);
}

#[test]
fn result_line_parses_with_the_workspace_json() {
    for traced in [false, true] {
        let metrics = report::reported(traced);
        let values: BTreeMap<&'static str, f64> = metrics
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, i as f64 + 0.25))
            .collect();
        let line = report::result_line(true, 1234, 0, &metrics, &values).expect("reports");
        let parsed: Value = serde_json::from_str(&line).expect("result line parses");
        let keys: Vec<&str> = parsed
            .as_map()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&parsed, "attempted").as_u64(), Some(1234));
        assert_eq!(field(&parsed, "failed").as_u64(), Some(0));
        let reported = field(&parsed, "metrics").as_map().expect("metrics object");
        assert_eq!(reported.len(), metrics.len());
        for ((name, entry), want) in reported.iter().zip(&metrics) {
            assert_eq!(name, want.name);
            assert_eq!(field(entry, "value").as_f64(), Some(values[want.name]));
            assert_eq!(field(entry, "unit").as_str(), Some(want.unit));
        }
    }
}

#[test]
fn result_line_refuses_missing_or_non_finite_values() {
    let metrics = report::reported(false);
    let mut values: BTreeMap<&'static str, f64> = metrics.iter().map(|m| (m.name, 1.0)).collect();
    values.insert("latency_p50_ms", f64::NAN);
    assert!(report::result_line(true, 1, 0, &metrics, &values).is_err());
    values.remove("latency_p50_ms");
    assert!(report::result_line(true, 1, 0, &metrics, &values).is_err());
}
