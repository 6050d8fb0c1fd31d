//! Metric registry and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! bounds; `tests/metrics.rs` keeps the two in step.

use std::collections::BTreeMap;

use serde_json::Value;

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub metric: Metric,
    pub bound: f64,
}

/// A per-layer metric and the end-to-end metric (and workload) it should
/// move.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub metric: Metric,
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        metric: m(name, unit, better),
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        metric: m(name, unit, better),
        moves,
    }
}

/// Reported by every workload's untraced run (`--trace 0`).
///
/// The timing bounds are as wide as allowed: on a shared two-vCPU host,
/// ten consecutive window_stream runs measured p50 from 1.08 to 1.44 ms,
/// the slowest run slow in all three of its rounds, so a tighter bound
/// would fail on the machine, not the code.
/// Agreement with the oracle depends only on the inputs and the models.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p99_ms", "ms", "lower", 0.25),
    e2e("throughput_ops_s", "ops/s", "higher", 0.25),
    e2e("oracle_agreement", "ratio", "higher", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

const NLP: &str = "latency_p50_ms on fleet_churn and window_stream; ~0 on serve_score";
const GRAPH: &str = "latency_p50_ms on window_stream";
const INCREMENTAL: &str = "throughput_ops_s on fleet_churn";
const RULE_STATE: &str = "latency_p99_ms on fleet_churn (grows with deployed rules)";
const GNN: &str = "latency_p50_ms on window_stream; throughput_ops_s on serve_score";
const DRIFT: &str = "nothing (control)";
const EXPLAIN: &str = "latency_p99_ms on window_stream, far more than p50";
const SERVE: &str = "latency_p50_ms and throughput_ops_s on serve_score";
const TRAINER: &str = "setup_s on every workload";
const TRACE: &str = "nothing (measurement quality)";
const VERDICT: &str = "must stay 0 (the run fails otherwise)";

/// Reported by every workload's traced run (`--trace 1`). Per operation
/// unless the name says otherwise; a layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: &[Layer] = &[
    layer("nlp.features.calls_per_op", "count", "lower", NLP),
    layer("nlp.features.ms_per_op", "ms", "lower", NLP),
    layer("nlp.features.us_per_call", "us", "lower", NLP),
    layer("graph.build.ms_per_op", "ms", "lower", GRAPH),
    layer("graph.nodes.p50", "count", "lower", GRAPH),
    layer("graph.nodes.max", "count", "lower", GRAPH),
    layer("graph.edges.p50", "count", "lower", GRAPH),
    layer("incremental.apply.ms_per_op", "ms", "lower", INCREMENTAL),
    layer(
        "incremental.remined_pairs_per_op",
        "count",
        "lower",
        INCREMENTAL,
    ),
    layer(
        "incremental.correlated_frac",
        "ratio",
        "higher",
        INCREMENTAL,
    ),
    layer("incremental.refresh.ms_per_op", "ms", "lower", INCREMENTAL),
    layer("detector.apply_delta.us_per_op", "us", "lower", RULE_STATE),
    layer("gnn.prepare.ms_per_op", "ms", "lower", GNN),
    layer("gnn.embed.ms_per_op", "ms", "lower", GNN),
    layer("gnn.classify.ms_per_op", "ms", "lower", GNN),
    layer("tensor.matmul.flops_per_op", "flop", "lower", GNN),
    layer("tensor.spmm.flops_per_op", "flop", "lower", GNN),
    layer("tensor.alloc.matrices_per_op", "count", "lower", GNN),
    layer("infer.pool.miss_frac", "ratio", "lower", GNN),
    layer("drift.degree.us_per_op", "us", "lower", DRIFT),
    layer("explain.calls_frac", "ratio", "lower", EXPLAIN),
    layer("explain.ms_per_call", "ms", "lower", EXPLAIN),
    layer("explain.forward_passes_per_call", "count", "lower", EXPLAIN),
    layer("explain.ms_share", "ratio", "lower", EXPLAIN),
    layer("serve.client_ms.p50", "ms", "lower", SERVE),
    layer("serve.server_ms.p50", "ms", "lower", SERVE),
    layer("serve.scorer_ms.p50", "ms", "lower", SERVE),
    layer("serve.overhead_ms.p50", "ms", "lower", SERVE),
    layer("serve.request_bytes.mean", "bytes", "lower", SERVE),
    layer("serve.shed", "count", "lower", SERVE),
    layer("serve.errors", "count", "lower", SERVE),
    layer("serve.deadline_retries", "count", "lower", SERVE),
    layer("trainer.classifier_s", "s", "lower", TRAINER),
    layer("trainer.contrastive_s", "s", "lower", TRAINER),
    layer("fleet.bootstrap_s", "s", "lower", TRAINER),
    layer("trace.overhead_frac", "ratio", "lower", TRACE),
    layer("trace.unattributed_frac", "ratio", "lower", TRACE),
    layer("verdict.failed_frac", "ratio", "lower", VERDICT),
    layer("verdict.degraded_frac", "ratio", "lower", VERDICT),
];

/// The metrics one run prints: the end-to-end set untraced, the per-layer
/// set traced.
pub fn reported(traced: bool) -> Vec<Metric> {
    if traced {
        PER_LAYER.iter().map(|l| l.metric).collect()
    } else {
        END_TO_END.iter().map(|e| e.metric).collect()
    }
}

/// Does `name` match `[A-Za-z0-9_.-]+`?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// with every metric of `metrics` named, valued and united. A value the run
/// did not produce is an error, never a silent 0: layers a workload does
/// not exercise must be set to 0 explicitly by the workload.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut entries = Vec::with_capacity(metrics.len());
    for metric in metrics {
        let value = values
            .get(metric.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", metric.name));
        }
        entries.push((
            metric.name.to_string(),
            Value::Map(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(metric.unit.to_string())),
            ]),
        ));
    }
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(entries)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// Per-layer table for the traced run: value, unit, and the end-to-end
/// metric each layer metric should move.
pub fn layer_table(workload: &str, values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = format!("per-layer metrics, workload {workload} (traced run)\n");
    out.push_str(&format!(
        "  {:<34} {:>14} {:<6} should move\n",
        "metric", "value", "unit"
    ));
    for l in PER_LAYER {
        let v = values.get(l.metric.name).copied().unwrap_or(f64::NAN);
        out.push_str(&format!(
            "  {:<34} {:>14.4} {:<6} {}\n",
            l.metric.name, v, l.metric.unit, l.moves
        ));
    }
    out
}
