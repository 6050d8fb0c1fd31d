//! `serve_score`: one closed-loop client per core, each acting as a hub
//! that POSTs one pre-featurized window graph to `/score` over loopback and
//! waits for the verdict.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use glint_core::{DeadlinePressure, GlintDetector};
use glint_gnn::models::Itgnn;
use glint_serve::{client, Scorer, ServeConfig, Server};
use serde_json::Value;

use crate::inputs::ServeInputs;
use crate::layers::{self, Stages, TimingScorer, VerdictKey};
use crate::run::{self, Budget, Op, Outcome, Phase, WARMUP_OPS};
use crate::setup::Models;
use crate::stats;

/// Hardware threads: the number of client connections and server workers.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The default serving configuration (25 ms deadline) with one worker per
/// core.
fn config() -> ServeConfig {
    ServeConfig {
        workers: nproc(),
        ..ServeConfig::default()
    }
}

struct State<'m> {
    models: &'m Models,
    inputs: ServeInputs,
    detector: Arc<GlintDetector<Itgnn, Itgnn>>,
    server: Server,
}

fn setup(models: &Models, seed: u64) -> Result<State<'_>, String> {
    let inputs = ServeInputs::generate(&models.corpus, seed)?;
    let detector = Arc::new(models.detector(models.corpus.clone()));
    let scorer: Arc<dyn Scorer> = detector.clone();
    let server =
        Server::start(scorer, config()).map_err(|e| format!("cannot bind loopback: {e}"))?;
    Ok(State {
        models,
        inputs,
        detector,
        server,
    })
}

/// The digest of this seed's inputs, without training anything.
pub fn digest(seed: u64) -> Result<String, String> {
    Ok(ServeInputs::generate(&crate::setup::corpus(), seed)?
        .digest()
        .hex())
}

/// The verdict a `/score` response body states, and whether the server
/// degraded it for lack of deadline budget; `None` when malformed, or
/// when its probability is not exactly an `f32`.
fn verdict_of(body: &Value) -> Option<(VerdictKey, bool)> {
    let fields = body.as_map()?;
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let rung = match get("degradation")?.as_str()? {
        "full" => 0,
        "drift_only" => 1,
        "quarantined" => 2,
        _ => return None,
    };
    let probability = match get("threat_probability")? {
        Value::Null => f32::NAN,
        v => {
            let p = v.as_f64()?;
            let narrow = p as f32;
            if f64::from(narrow) != p {
                return None;
            }
            narrow
        }
    };
    let drifting = match get("drifting")? {
        Value::Bool(b) => *b,
        _ => return None,
    };
    let causes = match get("warning")? {
        Value::Null => Vec::new(),
        w => {
            let causes = w
                .as_map()?
                .iter()
                .find(|(k, _)| k == "causes")?
                .1
                .as_seq()?;
            causes
                .iter()
                .map(|c| {
                    c.as_map()?
                        .iter()
                        .find(|(k, _)| k == "rule_id")?
                        .1
                        .as_u64()
                        .and_then(|id| u32::try_from(id).ok())
                })
                .collect::<Option<Vec<u32>>>()?
        }
    };
    let deadline = get("reason")
        .and_then(Value::as_str)
        .is_some_and(|r| r.contains("deadline"));
    let key = VerdictKey {
        is_threat: get("verdict")?.as_str()? == "threat",
        probability_bits: probability.to_bits(),
        drifting,
        rung,
        causes,
    };
    Some((key, deadline))
}

/// One exchange on a fresh connection (the server closes after each).
fn post(addr: &SocketAddr, request: &[u8]) -> std::io::Result<(u16, Value)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request)?;
    client::read_response(&mut stream)
}

/// What one client saw.
#[derive(Default)]
struct ClientRun {
    phase: Phase,
    /// Index of every timed request.
    bodies: Vec<usize>,
    mismatches: usize,
    /// Requests sent again after a deadline quarantine.
    retries: u64,
    /// Answers the server degraded for lack of deadline budget, by
    /// request, checked after the phase.
    pressured: Vec<(usize, VerdictKey)>,
}

/// Drive the server at `addr` with one closed-loop client per core. Client
/// `c` sends bodies `c, c + clients, c + 2 * clients, ...` (cyclically);
/// each first sends [`WARMUP_OPS`] untimed requests. `on_timed_start`
/// runs once, after every warm-up answer and before any timed request.
fn drive(
    state: &State,
    expected: &[VerdictKey],
    addr: SocketAddr,
    budget: &[Budget],
    on_timed_start: &(dyn Fn() + Sync),
) -> (Phase, Vec<ClientRun>) {
    let clients = budget.len();
    let barrier = Barrier::new(clients);
    let timed_total = AtomicUsize::new(0);
    let begin = Mutex::new(None::<Instant>);
    let n = state.inputs.requests.len();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, timed_total, begin) = (&barrier, &timed_total, &begin);
                s.spawn(move || {
                    let mut run = ClientRun::default();
                    let exchange = |k: usize, run: &mut ClientRun| -> f64 {
                        let b = (c + k * clients) % n;
                        let start = Instant::now();
                        let mut result = post(&addr, &state.inputs.requests[b]);
                        // The server quarantines a request whose deadline
                        // ran out before assessment began: a stall, not a
                        // verdict. A hub sends it once more; a second
                        // quarantine counts as failed.
                        if let Ok((200, body)) = &result {
                            if matches!(verdict_of(body), Some((key, true)) if key.rung == 2) {
                                run.retries += 1;
                                result = post(&addr, &state.inputs.requests[b]);
                            }
                        }
                        let ms = start.elapsed().as_secs_f64() * 1e3;
                        let op = match result {
                            Ok((200, body)) => match verdict_of(&body) {
                                Some((key, deadline)) => {
                                    // a deadline-pressured answer is checked
                                    // at its rung after the phase; drift-only
                                    // counts as degraded, quarantine as failed
                                    if deadline {
                                        run.pressured.push((b, key.clone()));
                                    } else if key != expected[b] {
                                        run.mismatches += 1;
                                    }
                                    Op::Verdict(key)
                                }
                                None => Op::Failed(format!("malformed /score answer {body:?}")),
                            },
                            Ok((status, body)) => Op::Failed(format!("status {status}: {body:?}")),
                            Err(e) => Op::Failed(format!("transport error: {e}")),
                        };
                        run.phase.record(op);
                        run.bodies.push(b);
                        ms
                    };
                    for k in 0..WARMUP_OPS {
                        exchange(k, &mut run);
                    }
                    run.bodies.clear();
                    if barrier.wait().is_leader() {
                        on_timed_start();
                        *begin.lock().expect("no client panics holding the start") =
                            Some(Instant::now());
                    }
                    barrier.wait();
                    let start = begin
                        .lock()
                        .expect("no client panics holding the start")
                        .expect("the leader set the start");
                    let mut k = WARMUP_OPS;
                    loop {
                        // a time budget counts every client's operations,
                        // a replayed sequence only this client's
                        let timed = match budget[c] {
                            Budget::Seconds(_) => timed_total.load(Ordering::Relaxed),
                            Budget::Ops(_) => run.phase.latencies_ms.len(),
                        };
                        if budget[c].done(timed, start.elapsed().as_secs_f64()) {
                            break;
                        }
                        let ms = exchange(k, &mut run);
                        run.phase.latencies_ms.push(ms);
                        timed_total.fetch_add(1, Ordering::Relaxed);
                        k += 1;
                    }
                    run.phase.elapsed_s = start.elapsed().as_secs_f64();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut merged = Phase::default();
    for run in &runs {
        merged.latencies_ms.extend(&run.phase.latencies_ms);
        merged.elapsed_s = merged.elapsed_s.max(run.phase.elapsed_s);
        merged.keys.extend(run.phase.keys.iter().cloned());
        merged.failed += run.phase.failed;
        merged.degraded += run.phase.degraded;
        for why in &run.phase.failures {
            merged.note_failure(why.clone());
        }
    }
    (merged, runs)
}

/// Every answer must equal the in-process verdict on the same graph at the
/// rung the server chose.
fn check(state: &State, runs: &[ClientRun]) -> Option<String> {
    let pressured = runs.iter().flat_map(|r| &r.pressured).filter(|(b, key)| {
        let pressure = match key.rung {
            1 => DeadlinePressure::Tight,
            _ => DeadlinePressure::Expired,
        };
        let graph = state.inputs.graphs[*b].clone();
        *key != VerdictKey::of(&state.detector.assess_under_pressure(graph, pressure))
    });
    let mismatches = runs.iter().map(|r| r.mismatches).sum::<usize>() + pressured.count();
    (mismatches > 0).then(|| {
        format!("{mismatches} /score verdicts differ from in-process assess on the same graph")
    })
}

fn metric_f64(metrics: &Value, name: &str) -> f64 {
    metrics
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == name))
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or(0.0)
}

impl State<'_> {
    /// The same requests against a fresh server whose scorer is the
    /// per-layer stopwatch.
    fn traced(
        &self,
        expected: &[VerdictKey],
        counts: &[Budget],
        out: &mut Outcome,
    ) -> Result<(Phase, Vec<ClientRun>), String> {
        let scorer = Arc::new(TimingScorer {
            detector: Arc::clone(&self.detector),
            embedder: self.models.copy(&self.models.embedder),
            drift: self.models.drift.clone(),
            stages: Mutex::new(Stages::default()),
            scorer_ms: Mutex::new(Vec::new()),
        });
        let dyn_scorer: Arc<dyn Scorer> = scorer.clone();
        let server = Server::start(dyn_scorer, config())
            .map_err(|e| format!("cannot bind loopback: {e}"))?;
        layers::start_tracing();
        let reset = || {
            *scorer
                .stages
                .lock()
                .expect("scorer holds no lock across a panic") = Stages::default();
            scorer
                .scorer_ms
                .lock()
                .expect("scorer holds no lock across a panic")
                .clear();
            glint_trace::reset();
        };
        let (phase, runs) = drive(self, expected, server.addr(), counts, &reset);
        let counters = layers::stop_tracing();
        let metrics = match client::get(&server.addr(), "/metrics") {
            Ok((200, m)) => m,
            other => return Err(format!("/metrics failed: {other:?}")),
        };
        server.shutdown();

        let stages = scorer.stages.lock().expect("server is shut down").clone();
        let scorer_ms = scorer
            .scorer_ms
            .lock()
            .expect("server is shut down")
            .clone();
        let ops = phase.timed() as f64;
        let client_total_ns = phase.latencies_ms.iter().sum::<f64>() * 1e6;
        let scorer_total_ns = scorer_ms.iter().sum::<f64>() * 1e6;
        let client_p50 = phase.p50_ms();
        let scorer_p50 = stats::percentile(&stats::sorted(&scorer_ms), stats::P50).unwrap_or(0.0);
        let timed_bodies: Vec<usize> = runs.iter().flat_map(|r| r.bodies.iter().copied()).collect();
        let bytes: usize = timed_bodies
            .iter()
            .map(|&b| self.inputs.requests[b].len())
            .sum();
        let nodes = stats::sorted(
            &timed_bodies
                .iter()
                .map(|&b| self.inputs.graphs[b].n_nodes() as f64)
                .collect::<Vec<_>>(),
        );
        let edges = stats::sorted(
            &timed_bodies
                .iter()
                .map(|&b| self.inputs.graphs[b].n_edges() as f64)
                .collect::<Vec<_>>(),
        );

        let v = &mut out.values;
        layers::stage_values(v, &stages, &counters, ops, scorer_total_ns);
        v.insert(
            "graph.nodes.p50",
            stats::percentile(&nodes, stats::P50).unwrap_or(0.0),
        );
        v.insert("graph.nodes.max", nodes.last().copied().unwrap_or(0.0));
        v.insert(
            "graph.edges.p50",
            stats::percentile(&edges, stats::P50).unwrap_or(0.0),
        );
        v.insert("serve.client_ms.p50", client_p50);
        v.insert(
            "serve.server_ms.p50",
            metric_f64(&metrics, "p50_latency_ms"),
        );
        v.insert("serve.scorer_ms.p50", scorer_p50);
        v.insert("serve.overhead_ms.p50", client_p50 - scorer_p50);
        v.insert("serve.request_bytes.mean", run::ratio(bytes as f64, ops));
        v.insert("serve.shed", metric_f64(&metrics, "shed"));
        v.insert("serve.errors", metric_f64(&metrics, "errors"));
        v.insert(
            "serve.deadline_retries",
            runs.iter().map(|r| r.retries as f64).sum(),
        );
        // Client time is the serving layer's overhead plus the scorer's;
        // what the stage stopwatches miss inside the scorer is unattributed.
        v.insert(
            "trace.unattributed_frac",
            run::ratio(scorer_total_ns - stages.total_ns() as f64, client_total_ns),
        );
        Ok((phase, runs))
    }
}

/// One untraced round: the merged phase, each client's view, and a failed
/// correctness check.
struct Round {
    phase: Phase,
    runs: Vec<ClientRun>,
    problem: Option<String>,
}

impl State<'_> {
    /// The in-process verdict on each request's round-tripped graph. The
    /// inputs and models are the same in every round, so a run computes
    /// this once, outside the timed set-up.
    fn expected(&self) -> Vec<VerdictKey> {
        self.inputs
            .graphs
            .iter()
            .map(|g| VerdictKey::of(&self.detector.assess(g.clone())))
            .collect()
    }

    fn round(&mut self, budget: Budget, expected: &[VerdictKey]) -> Round {
        let clients = vec![budget; nproc()];
        let (phase, runs) = drive(self, expected, self.server.addr(), &clients, &|| {});
        self.server.shutdown();
        let problem = check(self, &runs);
        Round {
            phase,
            runs,
            problem,
        }
    }
}

/// Run `serve_score`: [`run::ROUNDS`] rounds of set-up (server boot
/// included) and measurement, and with `traced` each client's request
/// sequence of the last round replayed against a server running the
/// per-layer stopwatch scorer.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let models = Models::train()?;
    let mut expected = None;
    let rounds = run::rounds(
        seconds,
        || setup(&models, seed),
        |state, budget, _| {
            let expected = expected.get_or_insert_with(|| state.expected());
            state.round(budget, expected)
        },
    )?;
    let expected = expected.expect("at least one round");
    let state = &rounds.last;
    let mut out = Outcome::default();
    let clients = nproc();
    out.notes.push(format!(
        "inputs digest serve_score seed {seed}: {} ({} requests, {clients} clients, \
         {clients} workers)",
        state.inputs.digest().hex(),
        state.inputs.requests.len()
    ));
    for round in &rounds.results {
        out.count(&round.phase);
        out.problems.extend(round.problem.clone());
    }
    let retries: u64 = rounds
        .results
        .iter()
        .flat_map(|round| &round.runs)
        .map(|r| r.retries)
        .sum();
    out.notes.push(format!(
        "requests sent again after a deadline quarantine, untraced rounds: {retries}"
    ));
    let last = rounds.results.last().expect("a round");

    if traced {
        out.values = layers::zeroed();
        let counts: Vec<Budget> = last
            .runs
            .iter()
            .map(|r| Budget::Ops(r.phase.latencies_ms.len()))
            .collect();
        let (phase, traced_runs) = state.traced(&expected, &counts, &mut out)?;
        out.count(&phase);
        out.problems.extend(check(state, &traced_runs));
        // Both phases were checked body by body against the in-process
        // verdicts, at the rung the server chose.
        out.trace_values(&last.phase, &phase);
        out.trainer_values(&models);
    } else {
        // Every body is a benign window, so agreement is the share of
        // verdicts that call it benign.
        let agree = rounds
            .results
            .iter()
            .flat_map(|round| &round.runs)
            .map(|r| {
                r.phase.keys[WARMUP_OPS..]
                    .iter()
                    .filter(|k| k.as_ref().is_some_and(|k| !k.is_threat))
                    .count() as u64
            })
            .sum();
        let phases: Vec<&Phase> = rounds.results.iter().map(|r| &r.phase).collect();
        out.values = run::end_to_end(models.train_s, &rounds.setup_s, &phases, agree);
        for (i, phase) in phases.iter().enumerate() {
            out.notes.push(run::latency_summary(
                &format!("untraced round {}", i + 1),
                phase,
            ));
        }
    }
    Ok(out)
}
