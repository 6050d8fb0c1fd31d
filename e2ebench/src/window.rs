//! `window_stream`: one caller screens 3-hour windows of simulated homes'
//! event logs, each one `OnlineBuilder::build` followed by
//! `GlintDetector::assess`.

use std::time::Instant;

use glint_core::construction::node_features;
use glint_core::GlintDetector;
use glint_gnn::models::Itgnn;
use glint_graph::builder::OnlineBuilder;
use glint_rules::Rule;

use crate::inputs::{SimHome, Window, WindowInputs};
use crate::layers::{self, NlpTimer, Replay, Stages, VerdictKey};
use crate::run::{self, Budget, Op, Outcome, Phase, WARMUP_OPS};
use crate::setup::Models;
use crate::stats;

struct State<'m> {
    models: &'m Models,
    inputs: WindowInputs,
    detector: GlintDetector<Itgnn, Itgnn>,
    /// The embedder `detector` was built with, for the stage replay.
    embedder: Itgnn,
}

fn setup(models: &Models, seed: u64) -> Result<State<'_>, String> {
    let inputs = WindowInputs::generate(&models.corpus, seed)?;
    let detector = models.detector(models.corpus.clone());
    let embedder = models.copy(&models.embedder);
    Ok(State {
        models,
        inputs,
        detector,
        embedder,
    })
}

/// The digest of this seed's inputs, without training anything.
pub fn digest(seed: u64) -> Result<String, String> {
    Ok(WindowInputs::generate(&crate::setup::corpus(), seed)?
        .digest()
        .hex())
}

impl State<'_> {
    fn window(&self, i: usize) -> (Window, &SimHome) {
        let w = self.inputs.window(i);
        (w, &self.inputs.homes[w.home])
    }

    /// Screen windows `start`, `start + 1`, ... of the operation sequence.
    fn untraced(&self, budget: Budget, start: usize) -> Phase {
        let builder = OnlineBuilder::default();
        run::closed_loop(budget, |i| {
            let (w, home) = self.window(start + i);
            let graph = builder.build(&home.rules, &home.log, w.from, w.to(), &node_features);
            Some(Op::Verdict(VerdictKey::of(&self.detector.assess(graph))))
        })
    }

    fn traced(&self, budget: Budget, start: usize, out: &mut Outcome) -> Phase {
        let builder = OnlineBuilder::default();
        let replay = Replay::new(&self.detector, &self.embedder, &self.models.drift);
        let mut nlp = NlpTimer::default();
        let mut stages = Stages::default();
        let mut build_self_ns = 0u64;
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        layers::start_tracing();
        let phase = run::closed_loop(budget, |i| {
            if i == WARMUP_OPS {
                nlp = NlpTimer::default();
                stages = Stages::default();
                build_self_ns = 0;
                nodes.clear();
                edges.clear();
                glint_trace::reset();
            }
            let (w, home) = self.window(start + i);
            let nlp_before = nlp.ns();
            let start = Instant::now();
            let feature_fn = |r: &Rule| nlp.features(r);
            let graph = builder.build(&home.rules, &home.log, w.from, w.to(), &feature_fn);
            build_self_ns += layers::ns_since(start) - (nlp.ns() - nlp_before);
            nodes.push(graph.n_nodes() as f64);
            edges.push(graph.n_edges() as f64);
            let detection = replay.assess(self.detector.rules(), graph, &mut stages);
            Some(Op::Verdict(VerdictKey::of(&detection)))
        });
        let counters = layers::stop_tracing();

        let ops = phase.timed() as f64;
        let verdict_ns: f64 = phase.latencies_ms.iter().sum::<f64>() * 1e6;
        let v = &mut out.values;
        layers::nlp_values(v, nlp.calls(), nlp.ns(), ops);
        layers::stage_values(v, &stages, &counters, ops, verdict_ns);
        v.insert(
            "graph.build.ms_per_op",
            run::ratio(build_self_ns as f64 / 1e6, ops),
        );
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
        let attributed = (nlp.ns() + build_self_ns + stages.total_ns()) as f64;
        v.insert(
            "trace.unattributed_frac",
            run::ratio(verdict_ns - attributed, verdict_ns),
        );
        phase
    }
}

/// Where in the operation sequence a round starts: each round screens
/// windows of its own, so a run samples three times as many windows as one
/// round does.
fn start(round: usize) -> usize {
    round * 2 * run::MIN_OPS
}

/// Run `window_stream`: [`run::ROUNDS`] rounds of set-up and
/// measurement, and with `traced` the last round's windows replayed
/// through the per-layer stopwatches.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let models = Models::train()?;
    let rounds = run::rounds(
        seconds,
        || setup(&models, seed),
        |state, budget, round| state.untraced(budget, start(round)),
    )?;
    let state = &rounds.last;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "inputs digest window_stream seed {seed}: {} ({} homes, {} windows)",
        state.inputs.digest().hex(),
        state.inputs.homes.len(),
        state.inputs.n_windows()
    ));
    out.notes.push(format!(
        "held-out oracle agreement of the trained classifier: {:.3}",
        state.models.heldout_agreement
    ));
    for phase in &rounds.results {
        out.count(phase);
    }
    let explained = rounds
        .results
        .iter()
        .flat_map(|p| p.keys.iter().flatten())
        .filter(|k| !k.causes.is_empty())
        .count();
    if explained == 0 {
        out.problems.push(
            "no verdict raised an explained warning: the explainer went unmeasured".to_string(),
        );
    }
    let last = rounds.results.last().expect("a round");

    if traced {
        out.values = layers::zeroed();
        let phase = state.traced(Budget::Ops(last.timed()), start(run::ROUNDS - 1), &mut out);
        out.count(&phase);
        out.trace_values(last, &phase);
        out.same_verdicts(last, &phase);
        out.trainer_values(&models);
    } else {
        let agree = rounds
            .results
            .iter()
            .enumerate()
            .map(|(round, p)| {
                (WARMUP_OPS..p.keys.len())
                    .filter(|&i| {
                        let truth = state.inputs.stratum(start(round) + i).vulnerable;
                        p.keys[i].as_ref().is_some_and(|k| k.is_threat == truth)
                    })
                    .count() as u64
            })
            .sum();
        let phases: Vec<&Phase> = rounds.results.iter().collect();
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
