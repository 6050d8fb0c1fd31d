//! Per-layer timing for the traced run. Every span is taken here, around
//! a call into one layer's public function; nothing inside the library is
//! instrumented for this benchmark.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use glint_core::construction::node_features;
use glint_core::drift::DriftDetector;
use glint_core::error::GlintError;
use glint_core::{explain, DeadlinePressure, Degradation, Detection, GlintDetector, Warning};
use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::{GraphModel, InferOutput, Itgnn, ModelOutput};
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer};
use glint_graph::InteractionGraph;
use glint_rules::Rule;
use glint_serve::Scorer;
use glint_tensor::{InferCtx, ParamSet, Tape, Var};

use crate::run::ratio;

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The NLP front end behind a stopwatch: pass [`NlpTimer::features`] as a
/// `feature_fn` and it counts calls and time spent in `node_features`.
#[derive(Default)]
pub struct NlpTimer {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl NlpTimer {
    pub fn features(&self, rule: &Rule) -> Vec<f32> {
        let start = Instant::now();
        let f = node_features(rule);
        self.ns.set(self.ns.get() + ns_since(start));
        self.calls.set(self.calls.get() + 1);
        f
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn ns(&self) -> u64 {
        self.ns.get()
    }
}

/// Time and work of the detector's stages, summed over operations.
#[derive(Clone, Debug, Default)]
pub struct Stages {
    pub prepare_ns: u64,
    pub embed_ns: u64,
    pub drift_ns: u64,
    pub classify_ns: u64,
    pub explain_ns: u64,
    pub explain_calls: u64,
    pub forward_passes: u64,
}

impl Stages {
    pub fn add(&mut self, o: &Stages) {
        self.prepare_ns += o.prepare_ns;
        self.embed_ns += o.embed_ns;
        self.drift_ns += o.drift_ns;
        self.classify_ns += o.classify_ns;
        self.explain_ns += o.explain_ns;
        self.explain_calls += o.explain_calls;
        self.forward_passes += o.forward_passes;
    }

    pub fn total_ns(&self) -> u64 {
        self.prepare_ns + self.embed_ns + self.drift_ns + self.classify_ns + self.explain_ns
    }
}

/// A classifier that counts its forward passes, handed to the explainer so
/// `explain.forward_passes_per_call` is counted rather than assumed.
struct Counting<'a> {
    inner: &'a dyn GraphModel,
    passes: AtomicU64,
}

impl GraphModel for Counting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn params(&self) -> &ParamSet {
        self.inner.params()
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        unreachable!("the explainer only reads the classifier")
    }

    fn embed_dim(&self) -> usize {
        self.inner.embed_dim()
    }

    fn forward(&self, tape: &mut Tape, vars: &[Var], g: &PreparedGraph) -> ModelOutput {
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.inner.forward(tape, vars, g)
    }

    fn forward_infer(&self, ctx: &mut InferCtx, g: &PreparedGraph) -> InferOutput {
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.inner.forward_infer(ctx, g)
    }
}

/// The detector's assessment replayed stage by stage, in its order:
/// `PreparedGraph::from_graph` → `ContrastiveTrainer::embed` →
/// `DriftDetector::drift_degree` → `ClassifierTrainer::predict_proba` →
/// `explain::top_causes`. It holds the same trained models the detector
/// does, so its verdicts are bit-identical to `GlintDetector::assess`;
/// each run checks that against its untraced phase.
pub struct Replay<'a> {
    pub classifier: &'a Itgnn,
    pub embedder: &'a Itgnn,
    pub drift: &'a DriftDetector,
    pub top_k: usize,
}

impl<'a> Replay<'a> {
    /// Replay over `detector`'s own classifier; `embedder` and `drift` must
    /// be the ones the detector was built with.
    pub fn new(
        detector: &'a GlintDetector<Itgnn, Itgnn>,
        embedder: &'a Itgnn,
        drift: &'a DriftDetector,
    ) -> Self {
        Self {
            classifier: detector.classifier(),
            embedder,
            drift,
            top_k: detector.top_k_causes,
        }
    }

    /// Assess `graph`, resolving warning causes among `rules`.
    pub fn assess(&self, rules: &[Rule], graph: InteractionGraph, st: &mut Stages) -> Detection {
        if graph.n_nodes() == 0 {
            return Detection {
                graph,
                drifting: false,
                drift_degree: 0.0,
                threat_probability: 0.0,
                is_threat: false,
                warning: None,
                degradation: Degradation::None,
            };
        }
        if let Err(e) = graph.validate() {
            return Detection::quarantined(graph, GlintError::InvalidGraph(e).to_string());
        }
        let start = Instant::now();
        let prepared = PreparedGraph::from_graph(&graph);
        st.prepare_ns += ns_since(start);

        let start = Instant::now();
        let embedding = ContrastiveTrainer::embed(self.embedder, &prepared);
        st.embed_ns += ns_since(start);

        let start = Instant::now();
        let drift_degree = self.drift.drift_degree(&embedding);
        let drifting = drift_degree > self.drift.threshold;
        st.drift_ns += ns_since(start);

        let start = Instant::now();
        let p = ClassifierTrainer::predict_proba(self.classifier, &prepared);
        st.classify_ns += ns_since(start);
        let (threat_probability, is_threat, degradation) = if p.is_finite() {
            (p, p > 0.5, Degradation::None)
        } else {
            let pseudo = (drift_degree / (drift_degree + self.drift.threshold)) as f32;
            (
                pseudo,
                drifting,
                Degradation::DriftOnly(format!("classifier produced non-finite probability {p}")),
            )
        };

        let warning = if is_threat || drifting {
            let start = Instant::now();
            let causes_idx = if degradation == Degradation::None {
                let counting = Counting {
                    inner: self.classifier,
                    passes: AtomicU64::new(0),
                };
                let idx = explain::top_causes(&counting, &graph, self.top_k);
                st.explain_calls += 1;
                st.forward_passes += counting.passes.load(Ordering::Relaxed);
                idx
            } else {
                Vec::new()
            };
            let causes: Vec<&Rule> = causes_idx
                .iter()
                .filter_map(|&i| {
                    let id = graph.node(i).rule_id.0;
                    rules.iter().find(|r| r.id.0 == id)
                })
                .collect();
            let warning = Warning::new(drifting && !is_threat, &causes);
            st.explain_ns += ns_since(start);
            Some(warning)
        } else {
            None
        };
        Detection {
            graph,
            drifting,
            drift_degree,
            threat_probability,
            is_threat,
            warning,
            degradation,
        }
    }
}

/// What a verdict says, in a form two runs can compare exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictKey {
    pub is_threat: bool,
    pub probability_bits: u32,
    pub drifting: bool,
    /// 0 full, 1 drift-only, 2 quarantined.
    pub rung: u8,
    pub causes: Vec<u32>,
}

impl VerdictKey {
    pub fn of(d: &Detection) -> Self {
        Self {
            is_threat: d.is_threat,
            probability_bits: d.threat_probability.to_bits(),
            drifting: d.drifting,
            rung: rung(&d.degradation),
            causes: d
                .warning
                .as_ref()
                .map(|w| w.causes.iter().map(|c| c.rule_id).collect())
                .unwrap_or_default(),
        }
    }
}

pub fn rung(d: &Degradation) -> u8 {
    match d {
        Degradation::None => 0,
        Degradation::DriftOnly(_) => 1,
        Degradation::Quarantined(_) => 2,
    }
}

/// The `Scorer` the traced `serve_score` server runs: a full-budget request
/// is answered by the stage replay, any other by the detector itself, and
/// every call is timed.
pub struct TimingScorer {
    pub detector: Arc<GlintDetector<Itgnn, Itgnn>>,
    /// The embedder and drift screen `detector` was built with.
    pub embedder: Itgnn,
    pub drift: DriftDetector,
    pub stages: Mutex<Stages>,
    pub scorer_ms: Mutex<Vec<f64>>,
}

impl Scorer for TimingScorer {
    fn score(&self, graph: InteractionGraph, pressure: DeadlinePressure) -> Detection {
        let start = Instant::now();
        let mut st = Stages::default();
        let detection = match pressure {
            DeadlinePressure::Comfortable => Replay::new(
                &self.detector,
                &self.embedder,
                &self.drift,
            )
            .assess(self.detector.rules(), graph, &mut st),
            other => self.detector.assess_under_pressure(graph, other),
        };
        let ms = ns_since(start) as f64 / 1e6;
        self.stages
            .lock()
            .expect("no scorer panics while holding the stage totals")
            .add(&st);
        self.scorer_ms
            .lock()
            .expect("no scorer panics while holding the latency list")
            .push(ms);
        detection
    }
}

/// Library counters that exist under tracing, read after a traced phase.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub matmul_flops: u64,
    pub spmm_flops: u64,
    pub alloc_matrices: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl Counters {
    pub fn read() -> Self {
        Self {
            matmul_flops: glint_trace::counter_value("tensor.matmul.flops"),
            spmm_flops: glint_trace::counter_value("tensor.spmm.flops"),
            alloc_matrices: glint_trace::counter_value("tensor.alloc.matrices"),
            pool_hits: glint_trace::counter_value("infer.pool.hits"),
            pool_misses: glint_trace::counter_value("infer.pool.misses"),
        }
    }
}

/// Every per-layer metric at 0: the value of a layer a workload does not
/// exercise.
pub fn zeroed() -> BTreeMap<&'static str, f64> {
    crate::report::PER_LAYER
        .iter()
        .map(|l| (l.metric.name, 0.0))
        .collect()
}

/// The detector-stage and tensor metrics of a traced phase of `ops`
/// timed operations whose verdicts took `verdict_ns` in total.
pub fn stage_values(
    v: &mut BTreeMap<&'static str, f64>,
    st: &Stages,
    counters: &Counters,
    ops: f64,
    verdict_ns: f64,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    v.insert("gnn.prepare.ms_per_op", ratio(ms(st.prepare_ns), ops));
    v.insert("gnn.embed.ms_per_op", ratio(ms(st.embed_ns), ops));
    v.insert("gnn.classify.ms_per_op", ratio(ms(st.classify_ns), ops));
    v.insert(
        "tensor.matmul.flops_per_op",
        ratio(counters.matmul_flops as f64, ops),
    );
    v.insert(
        "tensor.spmm.flops_per_op",
        ratio(counters.spmm_flops as f64, ops),
    );
    v.insert(
        "tensor.alloc.matrices_per_op",
        ratio(counters.alloc_matrices as f64, ops),
    );
    v.insert(
        "infer.pool.miss_frac",
        ratio(
            counters.pool_misses as f64,
            (counters.pool_hits + counters.pool_misses) as f64,
        ),
    );
    v.insert(
        "drift.degree.us_per_op",
        ratio(st.drift_ns as f64 / 1e3, ops),
    );
    v.insert("explain.calls_frac", ratio(st.explain_calls as f64, ops));
    v.insert(
        "explain.ms_per_call",
        ratio(ms(st.explain_ns), st.explain_calls as f64),
    );
    v.insert(
        "explain.forward_passes_per_call",
        ratio(st.forward_passes as f64, st.explain_calls as f64),
    );
    v.insert("explain.ms_share", ratio(st.explain_ns as f64, verdict_ns));
}

/// The NLP metrics of a traced phase of `ops` timed operations.
pub fn nlp_values(v: &mut BTreeMap<&'static str, f64>, calls: u64, ns: u64, ops: f64) {
    v.insert("nlp.features.calls_per_op", ratio(calls as f64, ops));
    v.insert("nlp.features.ms_per_op", ratio(ns as f64 / 1e6, ops));
    v.insert(
        "nlp.features.us_per_call",
        ratio(ns as f64 / 1e3, calls as f64),
    );
}

/// Start collecting the library's tracing counters from zero.
pub fn start_tracing() {
    glint_trace::set_enabled(true);
    glint_trace::reset();
}

/// Stop collecting and return what the traced phase counted.
pub fn stop_tracing() -> Counters {
    let c = Counters::read();
    glint_trace::set_enabled(false);
    c
}
