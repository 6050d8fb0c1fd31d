//! `fleet_churn`: one caller streams rule add/remove deltas for thousands
//! of homes through `IncrementalPipeline::ingest`, with the dirty-home
//! embedding refresh at its usual cadence. The write path beside the two
//! read paths.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use glint_core::construction::node_features;
use glint_core::incremental::{home_graph, mine_all, IncrementalPipeline, OracleMiner, RuleChange};
use glint_core::oracle;
use glint_core::GlintDetector;
use glint_gnn::models::Itgnn;
use glint_graph::InteractionGraph;
use glint_rules::Rule;

use crate::inputs::{FleetInputs, FLEET_REFRESH_EVERY};
use crate::layers::{self, NlpTimer, Replay, Stages, VerdictKey};
use crate::run::{self, Budget, Op, Outcome, Phase, WARMUP_OPS};
use crate::setup::Models;
use crate::stats;

/// Homes whose final graph is checked against a full batch rebuild.
const CHECKED_HOMES: usize = 64;

/// A bootstrapped fleet: the pipeline and detector after every bootstrap
/// add, with embeddings current.
struct Fleet {
    pipeline: IncrementalPipeline,
    detector: GlintDetector<Itgnn, Itgnn>,
    /// The embedder `detector` was built with, for refreshes and the stage
    /// replay.
    embedder: Itgnn,
}

struct State<'m> {
    models: &'m Models,
    inputs: FleetInputs,
    fleet: Fleet,
    bootstrap_s: f64,
}

fn bootstrap(models: &Models, inputs: &FleetInputs) -> Result<Fleet, String> {
    let mut pipeline = IncrementalPipeline::new();
    let mut detector = models.detector(Vec::new());
    for ev in &inputs.events[..inputs.bootstrap_len] {
        pipeline
            .apply(&ev.delta, &node_features)
            .map_err(|e| format!("bootstrap delta {} rejected: {e}", ev.step))?;
        detector.apply_delta(&ev.delta);
    }
    let embedder = models.copy(&models.embedder);
    pipeline.refresh(&embedder);
    Ok(Fleet {
        pipeline,
        detector,
        embedder,
    })
}

fn setup(models: &Models, seed: u64) -> Result<State<'_>, String> {
    let inputs = FleetInputs::generate(seed);
    let start = Instant::now();
    let fleet = bootstrap(models, &inputs)?;
    Ok(State {
        bootstrap_s: start.elapsed().as_secs_f64(),
        models,
        inputs,
        fleet,
    })
}

/// The digest of this seed's inputs, without training anything.
pub fn digest(seed: u64) -> String {
    FleetInputs::generate(seed).digest().hex()
}

fn is_refresh(i: usize) -> bool {
    (i as u64 + 1).is_multiple_of(FLEET_REFRESH_EVERY)
}

fn correlations(pipeline: &IncrementalPipeline, home: u64) -> usize {
    pipeline.home(home).map_or(0, |s| s.correlations().len())
}

impl Fleet {
    /// The untraced write path. Returns the phase and, per operation, the
    /// rule ids of the graph its verdict is about.
    fn untraced(&mut self, inputs: &FleetInputs, budget: Budget) -> (Phase, Vec<Vec<u32>>) {
        let churn = &inputs.events[inputs.bootstrap_len..];
        let mut members = Vec::new();
        let phase = run::closed_loop(budget, |i| {
            let ev = churn.get(i)?;
            let result = self
                .pipeline
                .ingest(&ev.delta, &mut self.detector, &node_features);
            if is_refresh(i) {
                self.pipeline.refresh(&self.embedder);
            }
            Some(match result {
                Ok(outcome) => {
                    let d = &outcome.detection;
                    members.push(d.graph.nodes().iter().map(|n| n.rule_id.0).collect());
                    Op::Verdict(VerdictKey::of(d))
                }
                Err(e) => {
                    members.push(Vec::new());
                    Op::Failed(format!("delta {} rejected: {e}", ev.step))
                }
            })
        });
        (phase, members)
    }

    /// The same deltas through the per-layer stopwatches: `apply`, then
    /// `apply_delta`, then the detector's stages, then the refresh.
    fn traced(
        &mut self,
        models: &Models,
        inputs: &FleetInputs,
        budget: Budget,
        out: &mut Outcome,
    ) -> Phase {
        let churn = &inputs.events[inputs.bootstrap_len..];
        let mut nlp = NlpTimer::default();
        let mut stages = Stages::default();
        let (mut apply_ns, mut apply_delta_ns, mut refresh_ns) = (0u64, 0u64, 0u64);
        let (mut remined, mut new_records) = (0u64, 0u64);
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        layers::start_tracing();
        let phase = run::closed_loop(budget, |i| {
            if i == WARMUP_OPS {
                nlp = NlpTimer::default();
                stages = Stages::default();
                (apply_ns, apply_delta_ns, refresh_ns) = (0, 0, 0);
                (remined, new_records) = (0, 0);
                nodes.clear();
                edges.clear();
                glint_trace::reset();
            }
            let ev = churn.get(i)?;
            let home = ev.delta.home;
            let records_before = correlations(&self.pipeline, home);

            let nlp_before = nlp.ns();
            let start = Instant::now();
            let feature_fn = |r: &Rule| nlp.features(r);
            let applied = self.pipeline.apply(&ev.delta, &feature_fn);
            apply_ns += layers::ns_since(start) - (nlp.ns() - nlp_before);
            let report = match applied {
                Ok(report) => report,
                Err(e) => return Some(Op::Failed(format!("delta {} rejected: {e}", ev.step))),
            };

            let start = Instant::now();
            self.detector.apply_delta(&ev.delta);
            apply_delta_ns += layers::ns_since(start);

            let graph = self
                .pipeline
                .home(home)
                .and_then(|s| s.graph().cloned())
                .unwrap_or_else(|| InteractionGraph::new(Vec::new()));
            nodes.push(graph.n_nodes() as f64);
            edges.push(graph.n_edges() as f64);
            let replay = Replay::new(&self.detector, &self.embedder, &models.drift);
            let detection = replay.assess(self.detector.rules(), graph, &mut stages);

            if is_refresh(i) {
                let start = Instant::now();
                self.pipeline.refresh(&self.embedder);
                refresh_ns += layers::ns_since(start);
            }
            if matches!(ev.delta.change, RuleChange::Add(_)) {
                remined += report.remined_pairs as u64;
                new_records +=
                    correlations(&self.pipeline, home).saturating_sub(records_before) as u64;
            }
            Some(Op::Verdict(VerdictKey::of(&detection)))
        });
        let counters = layers::stop_tracing();

        let ops = phase.timed() as f64;
        let verdict_ns: f64 = phase.latencies_ms.iter().sum::<f64>() * 1e6;
        let ms = |ns: u64| ns as f64 / 1e6;
        let v = &mut out.values;
        layers::nlp_values(v, nlp.calls(), nlp.ns(), ops);
        layers::stage_values(v, &stages, &counters, ops, verdict_ns);
        let nodes = stats::sorted(&nodes);
        v.insert(
            "graph.nodes.p50",
            stats::percentile(&nodes, stats::P50).unwrap_or(0.0),
        );
        v.insert("graph.nodes.max", nodes.last().copied().unwrap_or(0.0));
        v.insert(
            "graph.edges.p50",
            stats::percentile(&stats::sorted(&edges), stats::P50).unwrap_or(0.0),
        );
        v.insert("incremental.apply.ms_per_op", run::ratio(ms(apply_ns), ops));
        v.insert(
            "incremental.remined_pairs_per_op",
            run::ratio(remined as f64, ops),
        );
        v.insert(
            "incremental.correlated_frac",
            run::ratio(new_records as f64, remined as f64),
        );
        v.insert(
            "incremental.refresh.ms_per_op",
            run::ratio(ms(refresh_ns), ops),
        );
        v.insert(
            "detector.apply_delta.us_per_op",
            run::ratio(apply_delta_ns as f64 / 1e3, ops),
        );
        let attributed =
            (nlp.ns() + apply_ns + apply_delta_ns + refresh_ns + stages.total_ns()) as f64;
        v.insert(
            "trace.unattributed_frac",
            run::ratio(verdict_ns - attributed, verdict_ns),
        );
        phase
    }

    /// Homes whose incremental state differs from a full batch rebuild
    /// over their final rules, among the first [`CHECKED_HOMES`] homes the
    /// phase touched.
    fn check_homes(&self, inputs: &FleetInputs, ops: usize) -> Vec<String> {
        let touched: BTreeSet<u64> = inputs.events[inputs.bootstrap_len..]
            .iter()
            .take(ops)
            .map(|ev| ev.delta.home)
            .collect();
        let mut problems = Vec::new();
        for &home in touched.iter().take(CHECKED_HOMES) {
            let Some(state) = self.pipeline.home(home) else {
                problems.push(format!("home {home} vanished from the pipeline"));
                continue;
            };
            let corr = mine_all(&OracleMiner, state.rules());
            if state.correlations() != &corr {
                problems.push(format!(
                    "home {home}: incremental correlations differ from batch"
                ));
            }
            let rebuilt = home_graph(state.rules(), &corr, &node_features);
            if state.graph() != rebuilt.as_ref() {
                problems.push(format!("home {home}: incremental graph differs from batch"));
            }
        }
        problems
    }
}

/// One untraced round: the phase, how many of its timed verdicts agree
/// with the oracle, and the failed correctness checks.
struct Round {
    phase: Phase,
    agree: u64,
    problems: Vec<String>,
}

impl State<'_> {
    /// Every round replays the same deltas on a freshly bootstrapped fleet.
    fn round(&mut self, budget: Budget, _round: usize) -> Round {
        let (phase, members) = self.fleet.untraced(&self.inputs, budget);
        let mut problems = self.fleet.check_homes(&self.inputs, phase.keys.len());
        if phase.keys.len() >= self.inputs.events.len() - self.inputs.bootstrap_len {
            problems.push("churn deltas ran out before the phase's time was up".to_string());
        }
        let rules: BTreeMap<u32, &Rule> = self
            .inputs
            .events
            .iter()
            .filter_map(|ev| match &ev.delta.change {
                RuleChange::Add(r) => Some((r.id.0, r)),
                RuleChange::Remove(_) => None,
            })
            .collect();
        let agree = (WARMUP_OPS..phase.keys.len())
            .filter(|&i| {
                let group: Vec<&Rule> = members[i]
                    .iter()
                    .filter_map(|id| rules.get(id).copied())
                    .collect();
                let truth = oracle::is_vulnerable(&group);
                phase.keys[i].as_ref().is_some_and(|k| k.is_threat == truth)
            })
            .count() as u64;
        Round {
            phase,
            agree,
            problems,
        }
    }
}

/// Run `fleet_churn`: [`run::ROUNDS`] rounds of set-up (bootstrap
/// included) and measurement, and with `traced` the last round's deltas
/// replayed on a freshly bootstrapped fleet through the per-layer
/// stopwatches.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let models = Models::train()?;
    let mut bootstrap_s = Vec::new();
    let rounds = run::rounds(
        seconds,
        || {
            let state = setup(&models, seed)?;
            bootstrap_s.push(state.bootstrap_s);
            Ok(state)
        },
        State::round,
    )?;
    let state = &rounds.last;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "inputs digest fleet_churn seed {seed}: {} ({} bootstrap adds, {} deltas, {} homes)",
        state.inputs.digest().hex(),
        state.inputs.bootstrap_len,
        state.inputs.events.len() - state.inputs.bootstrap_len,
        state.fleet.pipeline.n_homes()
    ));
    for round in &rounds.results {
        out.count(&round.phase);
        out.problems.extend(round.problems.iter().cloned());
    }
    let last = &rounds.results.last().expect("a round").phase;

    if traced {
        let mut fresh = bootstrap(state.models, &state.inputs)?;
        out.values = layers::zeroed();
        let phase = fresh.traced(
            state.models,
            &state.inputs,
            Budget::Ops(last.timed()),
            &mut out,
        );
        out.count(&phase);
        out.trace_values(last, &phase);
        out.same_verdicts(last, &phase);
        out.problems
            .extend(fresh.check_homes(&state.inputs, phase.keys.len()));
        out.trainer_values(&models);
        out.values
            .insert("fleet.bootstrap_s", stats::median(&bootstrap_s));
    } else {
        let phases: Vec<&Phase> = rounds.results.iter().map(|r| &r.phase).collect();
        let agree = rounds.results.iter().map(|r| r.agree).sum();
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
