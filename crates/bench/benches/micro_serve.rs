//! Serving-layer microbenchmark: boots a real `glint-serve` instance on
//! loopback, drives it with a deterministic workload, and emits the
//! repo-root `BENCH_serve.json` snapshot CI gates against.
//!
//! Three phases:
//!
//! 1. **Latency/qps** — a comfortably-configured server answers a
//!    sequential `/score` workload; client-side latencies give
//!    p50/p95/p99 and qps, gated against the committed `p95_budget_ms`.
//! 2. **Deadline degradation** — a server whose full-verdict cost floor
//!    exceeds every request budget must answer each request on the
//!    drift-only rung (graceful degradation, never silence).
//! 3. **Overload shedding** — a single-worker, capacity-2 server with
//!    its worker pinned by a batch must shed the burst with `429`s while
//!    `accepted + shed == sent` stays exact (no request unaccounted). The
//!    batch's first graph waits at a gate until the burst is admitted or
//!    shed, so exactly 10 of the 12 burst requests shed, however fast the
//!    server parses and scores.

use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use glint_core::construction::OfflineBuilder;
use glint_core::drift::DriftDetector;
use glint_core::{DeadlinePressure, Detection, GlintDetector};
use glint_gnn::batch::{GraphSchema, PreparedGraph};
use glint_gnn::models::{Itgnn, ItgnnConfig};
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer, TrainConfig};
use glint_graph::InteractionGraph;
use glint_rules::scenarios::table1_rules;
use glint_rules::Platform;
use glint_serve::{client, Scorer, ServeConfig, Server};
use serde_json::{json, Value};

/// Small trained detector over the Table 1 scenario corpus — the same
/// shape the fault matrix uses, sized so the harness boots in seconds.
fn trained_detector() -> (GlintDetector<Itgnn, Itgnn>, Vec<InteractionGraph>) {
    let rules = table1_rules();
    let builder = OfflineBuilder::new(rules, 7);
    let mut ds = builder.build_dataset(Platform::all(), 32, 5, true);
    ds.oversample_threats(7);
    let prepared = PreparedGraph::prepare_all(ds.graphs());
    let schema = GraphSchema::infer(ds.iter());
    let cfg = ItgnnConfig {
        hidden: 12,
        embed: 8,
        n_scales: 2,
        ..Default::default()
    };
    let mut classifier = Itgnn::new(&schema.types, cfg.clone());
    ClassifierTrainer::new(TrainConfig {
        epochs: 3,
        ..Default::default()
    })
    .train(&mut classifier, &prepared);
    let mut embedder = Itgnn::new(&schema.types, cfg);
    ContrastiveTrainer::new(TrainConfig {
        epochs: 2,
        ..Default::default()
    })
    .train(&mut embedder, &prepared);
    let emb = ContrastiveTrainer::embed_all(&embedder, &prepared);
    let labels: Vec<usize> = prepared.iter().map(|g| g.label.unwrap_or(0)).collect();
    let detector = GlintDetector::new(
        table1_rules(),
        classifier,
        embedder,
        DriftDetector::fit(&emb, &labels),
    );
    (detector, ds.graphs().to_vec())
}

#[derive(Default)]
struct Gate {
    armed: bool,
    entered: bool,
    open: bool,
}

/// A scorer that, once armed, holds its first call until the harness
/// opens the gate, so the harness decides how long the worker that takes
/// it stays busy.
struct Gated {
    inner: Arc<dyn Scorer>,
    gate: Mutex<Gate>,
    changed: Condvar,
}

impl Gated {
    fn new(inner: Arc<dyn Scorer>) -> Self {
        Self {
            inner,
            gate: Mutex::new(Gate::default()),
            changed: Condvar::new(),
        }
    }

    fn update(&self, change: impl FnOnce(&mut Gate)) {
        change(&mut self.gate.lock().unwrap_or_else(PoisonError::into_inner));
        self.changed.notify_all();
    }

    /// Block until `ready` holds; fail after 30 s instead of hanging.
    fn wait(&self, ready: impl Fn(&Gate) -> bool) {
        let gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let (_gate, waited) = self
            .changed
            .wait_timeout_while(gate, Duration::from_secs(30), |g| !ready(g))
            .unwrap_or_else(PoisonError::into_inner);
        assert!(!waited.timed_out(), "gate wait timed out");
    }
}

impl Scorer for Gated {
    fn score(&self, graph: InteractionGraph, pressure: DeadlinePressure) -> Detection {
        let held = {
            let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
            gate.armed && !std::mem::replace(&mut gate.entered, true)
        };
        if held {
            self.changed.notify_all();
            self.wait(|g| g.open);
        }
        self.inner.score(graph, pressure)
    }
}

fn score_body(graph: &InteractionGraph, deadline_ms: Option<u64>) -> Value {
    match deadline_ms {
        Some(ms) => json!({ "graph": serde_json::to_value(graph), "deadline_ms": ms }),
        None => json!({ "graph": serde_json::to_value(graph) }),
    }
}

fn metric_u64(metrics: &Value, name: &str) -> u64 {
    metrics.get(name).and_then(Value::as_u64).unwrap_or(0)
}

fn percentile(sorted_ms: &[f64], pct: usize) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = (sorted_ms.len() - 1) * pct.min(100) / 100;
    sorted_ms[idx]
}

struct Snapshot {
    qps: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    sent: u64,
    accepted: u64,
    shed: u64,
    answered: u64,
    drift_only: u64,
    quarantined: u64,
    respawns: u64,
}

/// Phase 1: sequential `/score` workload against a comfortable server.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness measures loopback request latency by design"
)]
fn measure_latency(
    detector: Arc<GlintDetector<Itgnn, Itgnn>>,
    graphs: &[InteractionGraph],
) -> (f64, f64, f64, f64) {
    let cfg = ServeConfig {
        // generous budget: this phase measures the happy path, not shedding
        deadline_ms: 250,
        ..Default::default()
    };
    let server = Server::start(detector, cfg).expect("bind loopback");
    let addr = server.addr();
    for graph in graphs.iter().cycle().take(8) {
        let (status, _) = client::post(&addr, "/score", &score_body(graph, None)).expect("warmup");
        assert_eq!(status, 200, "warmup request must succeed");
    }
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(120);
    let begin = Instant::now();
    for (i, graph) in graphs.iter().cycle().take(120).enumerate() {
        let start = Instant::now();
        let (status, body) =
            client::post(&addr, "/score", &score_body(graph, None)).expect("scored");
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200, "request {i} must succeed, got body {body:?}");
    }
    let elapsed = begin.elapsed().as_secs_f64();
    server.shutdown();
    latencies_ms.sort_by(f64::total_cmp);
    (
        120.0 / elapsed.max(1e-9),
        percentile(&latencies_ms, 50),
        percentile(&latencies_ms, 95),
        percentile(&latencies_ms, 99),
    )
}

/// Phases 2+3: deterministic degradation and shedding on a constrained
/// server, returning its final `/metrics` accounting.
fn measure_overload(
    detector: Arc<GlintDetector<Itgnn, Itgnn>>,
    graphs: &[InteractionGraph],
) -> (u64, Value) {
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        deadline_ms: 500,
        // the cost floor dwarfs every request budget, so each request is
        // deadline-pressured into the drift-only rung deterministically
        full_cost_floor_ms: 1_000,
        ..Default::default()
    };
    let scorer = Arc::new(Gated::new(detector));
    let server = Server::start(Arc::clone(&scorer) as Arc<dyn Scorer>, cfg).expect("bind loopback");
    let addr = server.addr();
    let mut sent = 0u64;

    // Phase 2: every request must degrade to drift-only, never hang.
    for graph in graphs.iter().cycle().take(12) {
        let (status, body) =
            client::post(&addr, "/score", &score_body(graph, Some(500))).expect("scored");
        sent += 1;
        assert_eq!(status, 200);
        let rung = body
            .get("degradation")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        assert_eq!(
            rung, "drift_only",
            "deadline-pressured request must ride the drift-only rung"
        );
    }

    // Phase 3: pin the single worker on a batch whose first graph waits at
    // the gate, then burst. With the worker held and capacity 2, exactly
    // 2 burst requests queue and the other 10 shed with 429.
    let batch: Vec<Value> = graphs
        .iter()
        .cycle()
        .take(64)
        .map(serde_json::to_value)
        .collect();
    scorer.update(|g| g.armed = true);
    let mut occupier = std::net::TcpStream::connect(addr).expect("connect occupier");
    occupier
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client::write_request(
        &mut occupier,
        "POST",
        "/score_batch",
        Some(&json!({ "graphs": batch, "deadline_ms": 500 })),
    )
    .expect("occupier written");
    sent += 1;
    scorer.wait(|g| g.entered);
    let (answers, answered) = mpsc::channel();
    let mut readers = Vec::new();
    for graph in graphs.iter().cycle().take(12) {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect burst");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let body = score_body(graph, Some(500));
        client::write_request(&mut stream, "POST", "/score", Some(&body)).expect("burst written");
        sent += 1;
        let answers = answers.clone();
        readers.push(std::thread::spawn(move || {
            let _ = answers.send(client::read_response(&mut stream));
        }));
    }
    // The queue cannot drain while the gate is shut, so once every burst
    // request is queued or answered, admission is decided: open the gate
    // and collect the queued requests' answers.
    let mut statuses = Vec::new();
    let next = |statuses: &mut Vec<u16>| {
        let (status, _) = answered
            .recv_timeout(Duration::from_secs(30))
            .expect("burst reader alive")
            .expect("burst answered");
        statuses.push(status);
    };
    while statuses.len() + server.queue_depth() < 12 {
        next(&mut statuses);
    }
    scorer.update(|g| g.open = true);
    while statuses.len() < 12 {
        next(&mut statuses);
    }
    for reader in readers {
        reader.join().expect("burst reader finished");
    }
    let mut n200 = 0u64;
    let mut n429 = 0u64;
    for status in statuses {
        match status {
            200 => n200 += 1,
            429 => n429 += 1,
            other => panic!("burst request answered with unexpected status {other}"),
        }
    }
    let (status, _) = client::read_response(&mut occupier).expect("occupier answered");
    assert_eq!(status, 200, "the occupying batch must still be answered");
    assert_eq!(
        (n200, n429),
        (2, 10),
        "a held worker and a capacity-2 queue admit 2 of a 12-request burst"
    );

    let (status, metrics) = client::get(&addr, "/metrics").expect("metrics");
    sent += 1;
    assert_eq!(status, 200);
    let accepted = metric_u64(&metrics, "accepted");
    let shed = metric_u64(&metrics, "shed");
    assert_eq!(
        accepted + shed,
        sent,
        "admission accounting must be exact: accepted + shed == sent"
    );
    server.shutdown();
    (sent, metrics)
}

fn run() -> Snapshot {
    let (detector, graphs) = trained_detector();
    let detector = Arc::new(detector);
    let (qps, p50, p95, p99) = measure_latency(Arc::clone(&detector), &graphs);
    let (overload_sent, metrics) = measure_overload(detector, &graphs);
    let verdicts = metrics.get("verdicts").cloned().unwrap_or(Value::Null);
    Snapshot {
        qps,
        p50,
        p95,
        p99,
        sent: overload_sent + 8 + 120,
        accepted: metric_u64(&metrics, "accepted") + 8 + 120,
        shed: metric_u64(&metrics, "shed"),
        answered: metric_u64(&metrics, "answered") + 8 + 120,
        drift_only: metric_u64(&verdicts, "drift_only"),
        quarantined: metric_u64(&verdicts, "quarantined"),
        respawns: metric_u64(&metrics, "worker_respawns"),
    }
}

fn main() {
    // Budget must be read before the export overwrites the snapshot.
    let budget_ms = glint_bench::snapshot_f64(&glint_bench::bench_serve_path(), "p95_budget_ms")
        .unwrap_or(25.0);
    let snap = run();
    let body = json!({
        "run": "micro_serve",
        "schema": 1u64,
        "qps": snap.qps,
        "latency_ms": { "p50": snap.p50, "p95": snap.p95, "p99": snap.p99 },
        "p95_budget_ms": budget_ms,
        "requests": {
            "sent": snap.sent,
            "accepted": snap.accepted,
            "shed": snap.shed,
            "answered": snap.answered,
        },
        "degraded": { "drift_only": snap.drift_only, "quarantined": snap.quarantined },
        "worker_respawns": snap.respawns,
    });
    let path = glint_bench::bench_serve_path();
    let text = serde_json::to_string_pretty(&body).unwrap_or_default();
    if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
        eprintln!("SERVE GATE FAILED: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "serve snapshot: qps {:.0}, p50 {:.2} ms, p95 {:.2} ms (budget {budget_ms} ms), \
         shed {}, drift_only {} -> {}",
        snap.qps,
        snap.p50,
        snap.p95,
        snap.shed,
        snap.drift_only,
        path.display()
    );
    if snap.p95 > budget_ms {
        eprintln!(
            "SERVE GATE FAILED: p95 latency {:.2} ms exceeds the committed budget {budget_ms} ms",
            snap.p95
        );
        std::process::exit(1);
    }
}
