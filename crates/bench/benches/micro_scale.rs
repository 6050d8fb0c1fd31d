//! Million-home churn microbenchmark: drives the sharded incremental
//! pipeline (`glint_testbed::ChurnHarness`) over `GLINT_SCALE_HOMES`
//! simulated homes of Table-2-proportioned rule churn, timing every
//! ingest→verdict delta and reading peak RSS, and emits the repo-root
//! `BENCH_scale.json` snapshot CI gates against.
//!
//! Two gates, enforced here with a non-zero exit:
//!
//! 1. **Re-mine ratchet** — pairs re-mined incrementally must stay
//!    strictly below what from-scratch batch mining would have done
//!    (`remined_pairs < full_mine_pairs`).
//! 2. **Re-embed ratchet** — dirty-subgraph re-embeds must stay strictly
//!    below full-corpus re-embeds (`reembedded < full_reembed`).
//!
//! Everything except the wall-clock/RSS section of the snapshot is a pure
//! function of the seed: the `counters` object is byte-identical across
//! runs and thread configurations (pinned by `glint-testbed`'s own tests
//! and the `observability` snapshot test).
//!
//! Env knobs: `GLINT_SCALE_HOMES` (default 100_000), `GLINT_SCALE_OUT`
//! (default repo-root `BENCH_scale.json`).

use std::time::Instant;

use glint_testbed::{ChurnConfig, ChurnHarness, ScaleCounters};
use serde_json::{json, Value};

/// Deltas scale with the fleet: one churn event per five homes keeps the
/// default run at the committed 100k-home / 20k-delta shape while the CI
/// smoke (1k homes) finishes in seconds.
fn config(homes: u64) -> ChurnConfig {
    ChurnConfig {
        homes,
        deltas: (homes / 5).max(50),
        persist_every: 64,
        shard_dir: Some(std::env::temp_dir().join(format!("glint-scale-shards-{homes}"))),
        ..ChurnConfig::default()
    }
}

/// Peak resident set (VmHWM, kB) from `/proc/self/status`; 0 when the
/// platform does not expose it.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

fn percentile(sorted_ms: &[f64], pct: usize) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = (sorted_ms.len() - 1) * pct.min(100) / 100;
    sorted_ms[idx]
}

struct Snapshot {
    homes: u64,
    counters: ScaleCounters,
    bootstrap_s: f64,
    churn_s: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    max_ms: f64,
    ingest_qps: f64,
    peak_rss_kb: u64,
}

#[expect(
    clippy::disallowed_methods,
    reason = "the harness times every ingest-to-verdict delta by design"
)]
fn run(homes: u64) -> Snapshot {
    let cfg = config(homes);
    if let Some(dir) = &cfg.shard_dir {
        // scratch shards from a previous run must not leak into compaction
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut harness = ChurnHarness::new(cfg).expect("churn harness boots");

    let begin = Instant::now();
    harness.bootstrap().expect("bootstrap ingests cleanly");
    let bootstrap_s = begin.elapsed().as_secs_f64();

    let mut latencies_ms: Vec<f64> = Vec::with_capacity(harness.churn_len() as usize);
    let begin = Instant::now();
    loop {
        let start = Instant::now();
        match harness.tick() {
            Ok(true) => latencies_ms.push(start.elapsed().as_secs_f64() * 1e3),
            Ok(false) => break,
            Err(e) => panic!("churn delta rejected mid-stream: {e}"),
        }
    }
    let churn_s = begin.elapsed().as_secs_f64();
    let counters = harness.finish();

    latencies_ms.sort_by(f64::total_cmp);
    Snapshot {
        homes,
        p50: percentile(&latencies_ms, 50),
        p95: percentile(&latencies_ms, 95),
        p99: percentile(&latencies_ms, 99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        ingest_qps: latencies_ms.len() as f64 / churn_s.max(1e-9),
        bootstrap_s,
        churn_s,
        counters,
        peak_rss_kb: peak_rss_kb(),
    }
}

fn main() {
    let homes: u64 = std::env::var("GLINT_SCALE_HOMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let snap = run(homes);
    let c = &snap.counters;

    let counters_json: Value = serde_json::to_value(c);
    let remined_over_full = c.remined_pairs as f64 / (c.full_mine_pairs as f64).max(1.0);
    let reembed_over_full = c.reembedded as f64 / (c.full_reembed as f64).max(1.0);
    let ratchet_pass = c.remined_pairs < c.full_mine_pairs && c.reembedded < c.full_reembed;
    let body = json!({
        "run": "micro_scale",
        "schema": 1u64,
        "homes": snap.homes,
        "counters": counters_json,
        "latency_ms": {
            "p50": snap.p50,
            "p95": snap.p95,
            "p99": snap.p99,
            "max": snap.max_ms,
        },
        "ingest_qps": snap.ingest_qps,
        "wall_s": { "bootstrap": snap.bootstrap_s, "churn": snap.churn_s },
        "peak_rss_kb": snap.peak_rss_kb,
        "ratchet": {
            "remined_over_full": remined_over_full,
            "reembed_over_full": reembed_over_full,
            "pass": ratchet_pass,
        },
    });
    let path = glint_bench::bench_scale_path();
    let text = serde_json::to_string_pretty(&body).unwrap_or_default();
    if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
        eprintln!("SCALE GATE FAILED: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "scale snapshot: {} homes, {} churn deltas, ingest p50 {:.3} ms / p95 {:.3} ms, \
         {:.0} ingests/s, remine ratio {:.4}, re-embed ratio {:.4}, peak RSS {} kB -> {}",
        snap.homes,
        c.churn_deltas,
        snap.p50,
        snap.p95,
        snap.ingest_qps,
        remined_over_full,
        reembed_over_full,
        snap.peak_rss_kb,
        path.display()
    );
    if c.remined_pairs >= c.full_mine_pairs {
        eprintln!(
            "SCALE GATE FAILED: incremental mining did no better than batch \
             ({} re-mined pairs >= {} full-mine pairs)",
            c.remined_pairs, c.full_mine_pairs
        );
        std::process::exit(1);
    }
    if c.reembedded >= c.full_reembed {
        eprintln!(
            "SCALE GATE FAILED: dirty-set re-embedding did no better than a full re-embed \
             ({} re-embedded >= {} full)",
            c.reembedded, c.full_reembed
        );
        std::process::exit(1);
    }
}
