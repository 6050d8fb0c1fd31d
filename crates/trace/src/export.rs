//! JSON export of the trace registry, written through the serde_json
//! shim: `BTreeMap` iteration order makes the output deterministic up to
//! the `*_ns` / `sum` values, and non-finite floats serialize as `null`.
//!
//! Layout of an exported document (pretty-printed, keys in this order):
//!
//! ```json
//! {
//!   "run": "<label>",
//!   "schema": 1,
//!   "counters": { "<name>": <u64>, ... },
//!   "gauges": { "<name>": { "last": <f64>, "updates": <u64> }, ... },
//!   "histograms": { "<name>": { "count": .., "nonfinite": ..,
//!       "sum": .., "min": .., "max": .., "edges": [..], "buckets": [..] } },
//!   "spans": { "<path>": { "count": .., "total_ns": .., "min_ns": ..,
//!       "max_ns": .. }, ... }
//! }
//! ```

use crate::{Snapshot, HISTOGRAM_EDGES};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Schema version stamped into every export; bump on layout changes so CI
/// can reject stale readers.
pub const SCHEMA_VERSION: u64 = 1;

/// One JSON object per registry entry, in name order.
fn section<T>(entries: &BTreeMap<String, T>, render: impl Fn(&T) -> Value) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(name, stat)| (name.clone(), render(stat)))
            .collect(),
    )
}

/// Render a snapshot as a pretty-printed JSON document.
pub fn to_json(snap: &Snapshot, run: &str) -> String {
    // u64 nanoseconds cover 584 years of span time
    let ns = |t: u128| u64::try_from(t).unwrap_or(u64::MAX);
    let doc = json!({
        "run": run,
        "schema": SCHEMA_VERSION,
        "counters": snap.counters,
        "gauges": section(&snap.gauges, |g| json!({ "last": g.last, "updates": g.updates })),
        "histograms": section(&snap.histograms, |h| json!({
            "count": h.count,
            "nonfinite": h.nonfinite,
            "sum": h.sum,
            "min": h.min,
            "max": h.max,
            "edges": HISTOGRAM_EDGES,
            "buckets": h.buckets,
        })),
        "spans": section(&snap.spans, |s| json!({
            "count": s.count,
            "total_ns": ns(s.total_ns),
            // a never-entered span keeps its `u128::MAX` sentinel
            "min_ns": if s.count == 0 { 0 } else { ns(s.min_ns) },
            "max_ns": ns(s.max_ns),
        })),
    });
    let mut out = serde_json::to_string_pretty(&doc).unwrap_or_default();
    out.push('\n');
    out
}

/// Directory run exports land in: `$GLINT_TRACE_DIR` when set, else
/// `target/glint-trace/` under the current directory.
pub fn trace_dir() -> PathBuf {
    match std::env::var_os("GLINT_TRACE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target").join("glint-trace"),
    }
}

/// Write the current registry snapshot to `path` (parent directories are
/// created). Returns the rendered document length in bytes.
pub fn write_json_to(path: &Path, run: &str) -> std::io::Result<usize> {
    let doc = to_json(&crate::snapshot(), run);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.as_bytes())?;
    Ok(doc.len())
}

/// Export the current registry snapshot as `<trace_dir>/<run>.json` and
/// return the path written. `run` must be a bare file stem (it is
/// sanitized: path separators become `_`).
pub fn export_run(run: &str) -> std::io::Result<PathBuf> {
    let stem: String = run
        .chars()
        .map(|c| if c == '/' || c == '\\' { '_' } else { c })
        .collect();
    let path = trace_dir().join(format!("{stem}.json"));
    write_json_to(&path, run)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaugeStat, HistogramStat, SpanStat};

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("b.second".into(), 7);
        snap.counters.insert("a.first".into(), 1);
        snap.gauges.insert(
            "train.loss".into(),
            GaugeStat {
                last: 0.5,
                updates: 3,
            },
        );
        let mut h = HistogramStat {
            count: 2,
            nonfinite: 1,
            sum: 4.0,
            min: 1.0,
            max: 3.0,
            ..Default::default()
        };
        h.buckets[3] = 2;
        snap.histograms.insert("detector.drift".into(), h);
        snap.spans.insert(
            "epoch/forward".into(),
            SpanStat {
                count: 4,
                total_ns: 100,
                min_ns: 10,
                max_ns: 40,
            },
        );
        snap
    }

    fn parsed(snap: &Snapshot, run: &str) -> Value {
        serde_json::parse(&to_json(snap, run)).unwrap()
    }

    #[test]
    fn renders_all_sections_in_sorted_order() {
        let doc = parsed(&sample_snapshot(), "unit");
        let keys: Vec<&str> = doc
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["run", "schema", "counters", "gauges", "histograms", "spans"]
        );
        assert_eq!(doc.get("run").and_then(Value::as_str), Some("unit"));
        assert_eq!(doc.get("schema").and_then(Value::as_u64), Some(1));
        let counters: Vec<&str> = doc
            .get("counters")
            .unwrap()
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            counters,
            ["a.first", "b.second"],
            "counters must be name-sorted"
        );
        let span = doc
            .get("spans")
            .and_then(|s| s.get("epoch/forward"))
            .unwrap();
        assert_eq!(span.get("count").and_then(Value::as_u64), Some(4));
        let buckets = doc
            .get("histograms")
            .and_then(|h| h.get("detector.drift"))
            .and_then(|h| h.get("buckets"))
            .unwrap();
        assert_eq!(
            buckets,
            &serde_json::to_value(&[0u64, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0])
        );
    }

    #[test]
    fn empty_snapshot_is_valid_structure() {
        let text = to_json(&Snapshot::default(), "empty");
        assert!(text.ends_with("}\n"));
        let doc = serde_json::parse(&text).unwrap();
        for section in ["counters", "gauges", "histograms", "spans"] {
            assert_eq!(doc.get(section), Some(&Value::Map(Vec::new())), "{section}");
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut snap = Snapshot::default();
        // a never-hit histogram keeps min=+inf / max=-inf
        snap.histograms
            .insert("empty".into(), HistogramStat::default());
        snap.gauges.insert(
            "bad".into(),
            GaugeStat {
                last: f64::NAN,
                updates: 1,
            },
        );
        let doc = parsed(&snap, "nf");
        let hist = doc.get("histograms").and_then(|h| h.get("empty")).unwrap();
        assert_eq!(hist.get("min"), Some(&Value::Null));
        assert_eq!(hist.get("max"), Some(&Value::Null));
        assert_eq!(
            doc.get("gauges").and_then(|g| g.get("bad")),
            Some(&json!({ "last": null, "updates": 1u64 }))
        );
    }

    /// A NaN gauge, a never-hit histogram, a never-entered span and names
    /// that need escaping: the parsed document, re-serialized compactly.
    #[test]
    fn parsed_export_is_pinned() {
        let mut snap = sample_snapshot();
        snap.counters.insert("quote\"back\\slash".into(), 3);
        snap.gauges.insert(
            "nan\ngauge".into(),
            GaugeStat {
                last: f64::NAN,
                updates: 2,
            },
        );
        snap.histograms
            .insert("empty\u{1}".into(), HistogramStat::default());
        snap.spans
            .insert("never/entered".into(), SpanStat::default());
        let doc = to_json(&snap, "pin\t\"run\"");
        let parsed = serde_json::parse(&doc).unwrap();
        assert_eq!(
            serde_json::to_string(&parsed).unwrap(),
            concat!(
                r#"{"run":"pin\t\"run\"","schema":1,"#,
                r#""counters":{"a.first":1,"b.second":7,"quote\"back\\slash":3},"#,
                r#""gauges":{"nan\ngauge":{"last":null,"updates":2},"train.loss":{"last":0.5,"updates":3}},"#,
                r#""histograms":{"detector.drift":{"count":2,"nonfinite":1,"sum":4.0,"min":1.0,"max":3.0,"#,
                r#""edges":[0.1,0.25,0.5,1.0,2.0,3.0,5.0,10.0,25.0,100.0],"buckets":[0,0,0,2,0,0,0,0,0,0,0]},"#,
                r#""empty\u0001":{"count":0,"nonfinite":0,"sum":0.0,"min":null,"max":null,"#,
                r#""edges":[0.1,0.25,0.5,1.0,2.0,3.0,5.0,10.0,25.0,100.0],"buckets":[0,0,0,0,0,0,0,0,0,0,0]}},"#,
                r#""spans":{"epoch/forward":{"count":4,"total_ns":100,"min_ns":10,"max_ns":40},"#,
                r#""never/entered":{"count":0,"total_ns":0,"min_ns":0,"max_ns":0}}}"#,
            )
        );
    }

    #[test]
    fn export_run_sanitizes_and_writes() {
        let dir = std::env::temp_dir().join("glint-trace-test-export");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("GLINT_TRACE_DIR", &dir);
        let path = export_run("ci/unit").unwrap();
        std::env::remove_var("GLINT_TRACE_DIR");
        assert!(path.ends_with("ci_unit.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde_json::parse(&text).unwrap();
        assert_eq!(doc.get("run").and_then(Value::as_str), Some("ci/unit"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
