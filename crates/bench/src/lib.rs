//! # glint-bench
//!
//! Shared machinery for the experiment harnesses under `benches/` — one
//! harness per table and figure of the paper's evaluation (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for the paper-vs-measured record).
//!
//! Every harness honours:
//! - `GLINT_SCALE`  — dataset-size multiplier vs paper scale (default 0.03);
//! - `GLINT_TRIALS` — repeated trials per configuration (default 1; paper uses 5);
//! - `GLINT_EPOCHS` — GNN training epochs (default 16).
//!
//! Results are printed as aligned tables with the paper's number next to the
//! measured one, and appended as JSON to `target/glint-results/` under the harness working directory (`crates/bench/target/glint-results/` from the repo root).

use glint_core::construction::OfflineBuilder;
use glint_gnn::batch::{GraphSchema, PreparedGraph};
use glint_gnn::models::{
    GcnModel, GinModel, GraphModel, GxnModel, HgslModel, InfoGraphModel, Itgnn, ItgnnConfig,
    MagcnModel, MagxnModel, ModelConfig,
};
use glint_gnn::trainer::TrainConfig;
use glint_graph::{GraphDataset, Split};
use glint_rules::{CorpusConfig, CorpusGenerator, Platform, Rule};
use std::io::Write as _;

/// Dataset-scale multiplier (vs Table 2 / Table 3 paper counts).
pub fn scale() -> f64 {
    std::env::var("GLINT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03)
}

/// Number of repeated trials per configuration (paper: 5).
pub fn trials() -> usize {
    std::env::var("GLINT_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// GNN training epochs.
pub fn epochs() -> usize {
    std::env::var("GLINT_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// The shared synthetic corpus for all experiments.
pub fn corpus() -> Vec<Rule> {
    let cfg = CorpusConfig {
        scale: scale(),
        per_platform_cap: 2_000,
        seed: 0x6117,
    };
    CorpusGenerator::generate_corpus(&cfg)
}

/// Offline builder over the shared corpus.
pub fn offline(seed: u64) -> OfflineBuilder {
    OfflineBuilder::new(corpus(), seed)
}

/// Scaled Table 3 graph counts.
pub fn n_graphs(paper_count: usize) -> usize {
    ((paper_count as f64 * scale()).round() as usize).clamp(40, 4_000)
}

/// Standard training config for the experiment harnesses (lr from the
/// Figure 7-style sweep: 1e-3 converges, 1e-2 diverges on this substrate).
pub fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: epochs(),
        lr: 1e-3,
        seed,
        ..Default::default()
    }
}

/// Prepare a split: oversample threats in train (the §4.4 protocol), then
/// materialize `PreparedGraph`s.
pub fn prepare_split(split: &Split, seed: u64) -> (Vec<PreparedGraph>, Vec<PreparedGraph>) {
    let mut train = split.train.clone();
    train.oversample_threats(seed);
    (
        PreparedGraph::prepare_all(train.graphs()),
        PreparedGraph::prepare_all(split.test.graphs()),
    )
}

/// Instantiate a model by its paper name for a dataset schema.
pub fn make_model(name: &str, schema: &GraphSchema, seed: u64) -> Box<dyn GraphModel> {
    let homo_dim = schema.types.first().map(|(_, d)| *d).unwrap_or(0);
    let cfg = ModelConfig {
        hidden: 64,
        embed: 64,
        seed,
    };
    match name {
        "GCN" => Box::new(GcnModel::new(homo_dim, cfg)),
        "GIN" => Box::new(GinModel::new(homo_dim, cfg)),
        "GXN" => Box::new(GxnModel::new(homo_dim, cfg)),
        "IFG" => Box::new(InfoGraphModel::new(homo_dim, cfg)),
        "ITGNN" | "ITGNN-S" | "ITGNN-C" => Box::new(Itgnn::new(
            &schema.types,
            ItgnnConfig {
                seed,
                ..Default::default()
            },
        )),
        "HGSL" => Box::new(HgslModel::new(&schema.types, 64, 64, seed)),
        "MAGCN" => Box::new(MagcnModel::new(&schema.types, 64, 64, seed)),
        "MAGXN" => Box::new(MagxnModel::new(&schema.types, 64, 64, seed)),
        other => panic!("unknown model {other}"),
    }
}

/// Mean node features of a graph (the SVC/KNN graph representation of §4.4).
pub fn mean_feature(graph: &glint_graph::InteractionGraph) -> Vec<f32> {
    let dim = graph.max_feature_dim();
    let mut acc = vec![0.0f32; dim];
    for n in graph.nodes() {
        for (i, &v) in n.features.iter().enumerate() {
            acc[i] += v;
        }
    }
    let inv = 1.0 / graph.n_nodes().max(1) as f32;
    acc.iter_mut().for_each(|v| *v *= inv);
    acc
}

/// Dataset → (features, labels) for classical models.
pub fn dataset_to_xy(ds: &GraphDataset) -> (glint_tensor::Matrix, Vec<usize>) {
    let dim = ds.iter().map(|g| g.max_feature_dim()).max().unwrap_or(0);
    let rows: Vec<Vec<f32>> = ds
        .iter()
        .map(|g| {
            let mut f = mean_feature(g);
            f.resize(dim, 0.0);
            f
        })
        .collect();
    (glint_tensor::Matrix::from_rows(&rows), ds.labels())
}

/// Build the Table 3 homogeneous IFTTT labeled dataset.
pub fn ifttt_dataset(builder: &OfflineBuilder) -> GraphDataset {
    builder.build_dataset(&[Platform::Ifttt], n_graphs(6_000), 12, true)
}

/// Build the Table 3 SmartThings labeled dataset (tiny, like the paper's).
pub fn smartthings_dataset(builder: &OfflineBuilder) -> GraphDataset {
    builder.build_dataset(&[Platform::SmartThings], n_graphs(165).min(165), 12, true)
}

/// Build the Table 3 heterogeneous labeled dataset.
pub fn hetero_dataset(builder: &OfflineBuilder) -> GraphDataset {
    builder.build_dataset(
        &[Platform::Ifttt, Platform::SmartThings, Platform::Alexa],
        n_graphs(12_758),
        12,
        true,
    )
}

// ---- output helpers ----

/// Print an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:<width$}  ", width = w));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format "measured (paper X)" cells.
pub fn vs_paper(measured: f64, paper: f64) -> String {
    format!("{:5.1}% (paper {:.1}%)", measured * 100.0, paper * 100.0)
}

/// Percent formatting.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Append a JSON record of the experiment outcome.
pub fn record_json(experiment: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("target/glint-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(value).unwrap_or_default()
        );
    }
}

/// Repo-root `BENCH_trace.json` — the machine-readable observability
/// snapshot CI checks for (resolved from this crate's manifest dir so it
/// lands at the root regardless of the harness working directory).
pub fn bench_trace_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_trace.json")
}

/// Export everything glint-trace collected so far to the repo-root
/// `BENCH_trace.json` plus a per-run copy under `target/glint-trace/`.
/// No-op (returns `None`) when tracing is disabled, so harnesses can call
/// it unconditionally at the end of a run.
pub fn export_trace(run: &str) -> Option<std::path::PathBuf> {
    if !glint_trace::enabled() {
        return None;
    }
    let path = bench_trace_path();
    glint_trace::export::write_json_to(&path, run).ok()?;
    let _ = glint_trace::export::export_run(run);
    Some(path)
}

/// Repo-root `BENCH_inference.json` — the serving fast-path counter
/// snapshot (alloc counters, matmul/spmm flops, span timings) the
/// `micro_inference` harness emits and CI gates against regressions.
pub fn bench_inference_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_inference.json")
}

/// Export the current trace registry to the repo-root
/// `BENCH_inference.json`. No-op (returns `None`) when tracing is
/// disabled. Unlike [`export_trace`] this does not touch
/// `BENCH_trace.json` — the two snapshots gate different paths (training
/// observability vs the tape-free serving loop).
pub fn export_inference_trace(run: &str) -> Option<std::path::PathBuf> {
    if !glint_trace::enabled() {
        return None;
    }
    let path = bench_inference_path();
    glint_trace::export::write_json_to(&path, run).ok()?;
    Some(path)
}

/// Repo-root `BENCH_serve.json` — the serving-layer snapshot (qps,
/// latency percentiles, shed/degraded counts, p95 budget) the
/// `micro_serve` harness emits and CI gates against the committed
/// budget.
pub fn bench_serve_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
}

/// Repo-root `BENCH_scale.json` — the multi-tenant churn snapshot (ingest
/// latency percentiles, peak RSS, and the incremental-vs-batch work
/// ratchet) the `micro_scale` harness emits. Overridable with
/// `GLINT_SCALE_OUT` so the CI smoke stage can write to a scratch path
/// without disturbing the committed snapshot.
pub fn bench_scale_path() -> std::path::PathBuf {
    match std::env::var("GLINT_SCALE_OUT") {
        Ok(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json"),
    }
}

/// Read one top-level `f64` field out of a JSON snapshot. `None` when
/// the file or the field is absent or malformed.
pub fn snapshot_f64(path: &std::path::Path, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let value = serde_json::parse(&text).ok()?;
    value.get(name)?.as_f64()
}

/// Read one counter out of an exported trace snapshot (`BENCH_trace.json`
/// / `BENCH_inference.json`). `None` when the file, the `counters`
/// section, or the counter itself is absent or malformed.
pub fn snapshot_counter(path: &std::path::Path, name: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let value = serde_json::parse(&text).ok()?;
    value.get("counters")?.get(name)?.as_u64()
}

/// Wall-clock helper.
#[expect(
    clippy::disallowed_methods,
    reason = "benchmarks report wall-clock time by design"
)]
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    eprintln!(
        "[glint-bench] {label}: {:.1}s",
        start.elapsed().as_secs_f64()
    );
    out
}
