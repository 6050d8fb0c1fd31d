//! Overload and degradation contract of `glint-serve`, pinned over real
//! loopback sockets.
//!
//! Three guarantees under pressure:
//!
//! 1. **Bounded admission** — saturating a single-worker, capacity-2
//!    server with a burst sheds the excess with `429 + Retry-After`,
//!    answers every accepted request, and keeps the admission accounting
//!    exact: `accepted + shed == sent`, no hang, no silent drop.
//! 2. **Deadline degradation** — when the estimated full-verdict cost
//!    exceeds the request budget, the answer arrives on the drift-only
//!    rung with an explicit reason, instead of blowing the deadline.
//! 3. **Worker panic isolation** — a panic injected mid-response kills
//!    one worker only: the victim request gets a typed `500`, other
//!    in-flight requests complete normally, a replacement worker spawns,
//!    and the server keeps serving.
//!
//! The fail-point registry is process-global, so tests serialise on one
//! mutex like the fault-injection matrix does.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use glint_suite::core::construction::OfflineBuilder;
use glint_suite::core::drift::DriftDetector;
use glint_suite::core::{DeadlinePressure, Detection, GlintDetector};
use glint_suite::failpoint::{Action, ScopedFail};
use glint_suite::gnn::batch::{GraphSchema, PreparedGraph};
use glint_suite::gnn::models::{Itgnn, ItgnnConfig};
use glint_suite::gnn::trainer::{ClassifierTrainer, ContrastiveTrainer, TrainConfig};
use glint_suite::graph::InteractionGraph;
use glint_suite::rules::scenarios::table1_rules;
use glint_suite::rules::Platform;
use glint_suite::serve::{client, Scorer, ServeConfig, Server, SITE_RESPOND};
use serde_json::{json, Value};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Fixture {
    detector: Arc<GlintDetector<Itgnn, Itgnn>>,
    graphs: Vec<InteractionGraph>,
}

/// One small trained detector shared by every test in this binary.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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
        Fixture {
            detector: Arc::new(GlintDetector::new(
                table1_rules(),
                classifier,
                embedder,
                DriftDetector::fit(&emb, &labels),
            )),
            graphs: ds.graphs().to_vec(),
        }
    })
}

#[derive(Default)]
struct Gate {
    entered: bool,
    open: bool,
}

/// A scorer whose first call waits until the test opens its gate, so the
/// test decides how long the worker that takes it stays busy.
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

    /// Block until `ready` holds; fail after 30 s instead of hanging.
    fn wait(&self, ready: impl Fn(&Gate) -> bool) {
        let gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let (_gate, waited) = self
            .changed
            .wait_timeout_while(gate, Duration::from_secs(30), |g| !ready(g))
            .unwrap_or_else(PoisonError::into_inner);
        assert!(!waited.timed_out(), "gate wait timed out");
    }

    fn open(&self) {
        let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        gate.open = true;
        self.changed.notify_all();
    }
}

impl Scorer for Gated {
    fn score(&self, graph: InteractionGraph, pressure: DeadlinePressure) -> Detection {
        let first = {
            let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
            !std::mem::replace(&mut gate.entered, true)
        };
        if first {
            self.changed.notify_all();
            self.wait(|g| g.open);
        }
        self.inner.score(graph, pressure)
    }
}

fn score_body(graph: &InteractionGraph, deadline_ms: u64) -> Value {
    json!({ "graph": serde_json::to_value(graph), "deadline_ms": deadline_ms })
}

fn metric_u64(metrics: &Value, name: &str) -> u64 {
    metrics.get(name).and_then(Value::as_u64).unwrap_or(0)
}

#[test]
fn saturated_queue_sheds_with_429_and_answers_every_accepted_request() {
    let _guard = serial();
    let fx = fixture();
    let scorer = Arc::new(Gated::new(Arc::clone(&fx.detector) as Arc<dyn Scorer>));
    let server = Server::start(
        Arc::clone(&scorer) as Arc<dyn Scorer>,
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            deadline_ms: 500,
            full_cost_floor_ms: 1_000,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let mut sent = 0u64;

    // Pin the single worker on a batch whose first graph waits at the
    // gate (write it, defer the read). Once the gate opens, one graph is
    // left, so the queued requests reach the worker long before their
    // 500 ms deadline.
    let batch: Vec<Value> = fx
        .graphs
        .iter()
        .cycle()
        .take(2)
        .map(serde_json::to_value)
        .collect();
    let mut occupier = TcpStream::connect(addr).expect("connect occupier");
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

    // Burst 12 more requests while the worker is busy: capacity 2 means
    // at most 2 can queue; the rest must shed immediately.
    let (answers, answered) = mpsc::channel();
    let mut readers = Vec::new();
    for graph in fx.graphs.iter().cycle().take(12) {
        let mut stream = TcpStream::connect(addr).expect("connect burst");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let body = score_body(graph, 500);
        client::write_request(&mut stream, "POST", "/score", Some(&body)).expect("burst written");
        sent += 1;
        let answers = answers.clone();
        readers.push(std::thread::spawn(move || {
            let _ = answers.send(client::read_response(&mut stream));
        }));
    }
    // The queue cannot drain while the gate is shut, so once every burst
    // request is either queued or answered, admission is decided: open
    // the gate and collect the queued requests' answers.
    let mut responses = Vec::new();
    let next = |responses: &mut Vec<(u16, Value)>| {
        // every connection gets an answer within the timeout — no hangs
        let response = answered
            .recv_timeout(Duration::from_secs(30))
            .expect("burst reader alive")
            .expect("burst answered");
        responses.push(response);
    };
    while responses.len() + server.queue_depth() < 12 {
        next(&mut responses);
    }
    scorer.open();
    while responses.len() < 12 {
        next(&mut responses);
    }
    for reader in readers {
        reader.join().expect("burst reader finished");
    }
    let mut n200 = 0u64;
    let mut n429 = 0u64;
    for (status, body) in responses {
        match status {
            200 => {
                // accepted under deadline pressure: must ride the ladder
                assert_eq!(
                    body.get("degradation").and_then(Value::as_str),
                    Some("drift_only"),
                    "deadline-pressured request must answer on the drift-only rung"
                );
                n200 += 1;
            }
            429 => n429 += 1,
            other => panic!("burst request answered with unexpected status {other}"),
        }
    }
    assert!(
        n429 > 0,
        "a capacity-2 queue must shed part of a 12-request burst"
    );
    assert_eq!(n200 + n429, 12, "every burst request must be answered");
    let (status, _) = client::read_response(&mut occupier).expect("occupier answered");
    assert_eq!(status, 200, "the occupying batch must still complete");

    let (status, metrics) = client::get(&addr, "/metrics").expect("metrics");
    sent += 1;
    assert_eq!(status, 200);
    assert_eq!(
        metric_u64(&metrics, "accepted") + metric_u64(&metrics, "shed"),
        sent,
        "admission accounting must be exact: accepted + shed == sent"
    );
    assert_eq!(metric_u64(&metrics, "shed"), n429);
    server.shutdown();
    // shutdown is idempotent (Drop will call it again)
    server.shutdown();
}

#[test]
fn deadline_pressure_degrades_to_drift_only_with_a_reason() {
    let _guard = serial();
    let fx = fixture();
    let server = Server::start(
        Arc::clone(&fx.detector) as Arc<dyn glint_suite::serve::Scorer>,
        ServeConfig {
            full_cost_floor_ms: 1_000,
            deadline_ms: 500,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let (status, body) =
        client::post(&addr, "/score", &score_body(&fx.graphs[0], 500)).expect("scored");
    assert_eq!(status, 200);
    assert_eq!(
        body.get("degradation").and_then(Value::as_str),
        Some("drift_only")
    );
    let reason = body.get("reason").and_then(Value::as_str).unwrap_or("");
    assert!(
        reason.contains("deadline"),
        "drift-only reason must name the deadline, got: {reason}"
    );
    // degraded answers still carry usable evidence
    let probability = body
        .get("threat_probability")
        .and_then(Value::as_f64)
        .expect("drift-only verdict carries a pseudo-probability");
    assert!((0.0..=1.0).contains(&probability));
    assert!(body
        .get("drift_degree")
        .and_then(Value::as_f64)
        .is_some_and(f64::is_finite));
    server.shutdown();
}

#[test]
fn worker_panic_is_contained_respawned_and_other_requests_survive() {
    let _guard = serial();
    let fx = fixture();
    let server = Server::start(
        Arc::clone(&fx.detector) as Arc<dyn glint_suite::serve::Scorer>,
        ServeConfig {
            workers: 4,
            deadline_ms: 500,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    // Fire a panic on the first respond-site hit only.
    let _fail = ScopedFail::new(SITE_RESPOND, Action::Panic, 1);

    let mut statuses = Vec::new();
    for graph in fx.graphs.iter().cycle().take(6) {
        let (status, body) =
            client::post(&addr, "/score", &score_body(graph, 500)).expect("answered");
        statuses.push((status, body));
    }
    let n500 = statuses.iter().filter(|(s, _)| *s == 500).count();
    let n200 = statuses.iter().filter(|(s, _)| *s == 200).count();
    assert_eq!(n500, 1, "exactly one request hits the injected panic");
    assert_eq!(n200, 5, "other in-flight requests must be unaffected");
    let victim = statuses
        .iter()
        .find(|(s, _)| *s == 500)
        .map(|(_, b)| b.clone())
        .expect("victim body");
    let kind = victim
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .unwrap_or("");
    assert_eq!(
        kind, "worker_panic",
        "the victim gets a typed error, not silence"
    );

    // The pool healed: a fresh request succeeds and the respawn is counted.
    let (status, _) =
        client::post(&addr, "/score", &score_body(&fx.graphs[0], 500)).expect("post-panic");
    assert_eq!(status, 200, "the server keeps serving after a worker panic");
    let (status, metrics) = client::get(&addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert!(
        metric_u64(&metrics, "worker_respawns") >= 1,
        "the respawn must be visible in /metrics"
    );
    assert_eq!(
        server.worker_respawns(),
        metric_u64(&metrics, "worker_respawns")
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_400s_not_hangs() {
    let _guard = serial();
    let fx = fixture();
    let server = Server::start(
        Arc::clone(&fx.detector) as Arc<dyn glint_suite::serve::Scorer>,
        ServeConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.addr();
    // not JSON at all
    let (status, body) = client::post(&addr, "/score", &json!("not an object")).expect("answered");
    assert_eq!(status, 400);
    assert!(body.get("error").is_some());
    // JSON object but no graph
    let (status, _) =
        client::post(&addr, "/score", &json!({ "deadline_ms": 10u64 })).expect("answered");
    assert_eq!(status, 400);
    // unknown route
    let (status, _) = client::get(&addr, "/nope").expect("answered");
    assert_eq!(status, 404);
    // feedback round-trip still works on the same server
    let (status, body) = client::post(
        &addr,
        "/feedback",
        &json!({
            "graph": serde_json::to_value(&fx.graphs[0]),
            "verdict": "Normal",
            "note": "smart bulb schedule, expected"
        }),
    )
    .expect("answered");
    assert_eq!(status, 200);
    assert_eq!(body.get("stored").and_then(Value::as_u64), Some(1));
    server.shutdown();
}

/// A string-heavy body well under the 4 MiB limit: about 2 MB of
/// 8-character strings where the graph should be. The JSON reader takes
/// it in one linear pass, so the typed `400` arrives in milliseconds. A
/// reader that re-checks the rest of the document at every character
/// (quadratic in the body size) holds the worker for about a minute.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test bounds the wall time of one refused request"
)]
fn string_heavy_body_gets_a_typed_400_in_linear_time() {
    let _guard = serial();
    let fx = fixture();
    let server = Server::start(
        Arc::clone(&fx.detector) as Arc<dyn glint_suite::serve::Scorer>,
        ServeConfig::default(),
    )
    .expect("bind loopback");
    let words: Vec<Value> = (0..190_000)
        .map(|i| Value::Str(format!("w{i:07}")))
        .collect();
    let body = json!({ "graph": words });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let started = std::time::Instant::now();
    client::write_request(&mut stream, "POST", "/score", Some(&body)).expect("written");
    let (status, reply) = client::read_response(&mut stream).expect("answered within 20 s");
    let elapsed = started.elapsed();
    assert_eq!(status, 400, "{reply:?}");
    let kind = reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str);
    assert_eq!(kind, Some("bad_graph"));
    assert!(
        elapsed < Duration::from_secs(5),
        "a 2 MB body took {elapsed:?} to refuse"
    );
    server.shutdown();
}

/// Python's `json.dumps` writes every non-BMP character as a UTF-16
/// surrogate pair, so a hub's note with an emoji arrives as
/// `\ud83d\ude00`. The raw request bytes carry the escapes as written.
#[test]
fn feedback_note_with_a_surrogate_pair_is_stored() {
    let _guard = serial();
    let fx = fixture();
    let server = Server::start(
        Arc::clone(&fx.detector) as Arc<dyn glint_suite::serve::Scorer>,
        ServeConfig::default(),
    )
    .expect("bind loopback");
    let graph = serde_json::to_string(&fx.graphs[0]).expect("graph serializes");
    let body = format!(r#"{{"graph":{graph},"verdict":"Threat","note":"caf\u00e9 \ud83d\ude00"}}"#);
    let request = format!(
        "POST /feedback HTTP/1.1\r\nHost: glint\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("written");
    let (status, reply) = client::read_response(&mut stream).expect("answered");
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(reply.get("stored").and_then(Value::as_u64), Some(1));
    server.shutdown();
}
