//! The online detection pipeline (Figure 2, steps ④–⑧): construct the
//! real-time interaction graph from deployed rules + event logs, screen it
//! with the drift detector, classify it with the threat detector, and raise
//! a warning with explained causes.
//!
//! ## Degradation ladder
//!
//! Serving never panics past this API. Each graph is assessed independently
//! and lands on one rung:
//!
//! 1. **Full verdict** ([`Degradation::None`]) — drift screening + GNN
//!    classification, the normal path.
//! 2. **Drift-only fallback** ([`Degradation::DriftOnly`]) — the classifier
//!    failed (panic, injected fault, non-finite output); the verdict falls
//!    back to the MAD drift score, with a pseudo-probability derived from
//!    the drift degree.
//! 3. **Quarantine** ([`Degradation::Quarantined`]) — the graph failed
//!    structural validation or the embedding itself failed; no verdict is
//!    possible, the `Detection` carries NaN scores and the reason. In
//!    [`GlintDetector::assess_batch`] a quarantined graph degrades only its
//!    own slot — the rest of the batch is unaffected.

use crate::drift::DriftDetector;
use crate::error::GlintError;
use crate::explain;
use crate::warning::Warning;
use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::GraphModel;
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer};
use glint_graph::builder::OnlineBuilder;
use glint_graph::InteractionGraph;
use glint_rules::event::EventLog;
use glint_rules::Rule;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fail-point site hit at the top of every per-graph assessment.
pub const SITE_ASSESS: &str = "detector.assess";
/// Fail-point site hit before the classifier runs (forces the drift-only
/// fallback rung).
pub const SITE_CLASSIFY: &str = "detector.classify";

/// How much of the detection pipeline actually ran for this graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// Full pipeline: drift screening + GNN classification.
    None,
    /// Classifier failed; the verdict is the drift/MAD score only. Carries
    /// the failure reason.
    DriftOnly(String),
    /// Input rejected or embedding failed; no verdict at all. Carries the
    /// reason.
    Quarantined(String),
}

impl Degradation {
    pub fn is_degraded(&self) -> bool {
        !matches!(self, Degradation::None)
    }
}

/// How much latency budget a caller has left for one assessment. The
/// serving layer translates its per-request deadline into one of these
/// rungs; the detector itself never reads a clock, so verdict content
/// stays a pure function of the graph and the chosen rung.
///
/// Each rung maps onto the degradation ladder above:
/// [`Comfortable`](DeadlinePressure::Comfortable) runs the full pipeline,
/// [`Tight`](DeadlinePressure::Tight) skips the classifier and answers
/// from the drift screen ([`Degradation::DriftOnly`]), and
/// [`Expired`](DeadlinePressure::Expired) returns an explicit
/// [`Degradation::Quarantined`] timeout verdict instead of silence.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DeadlinePressure {
    /// Enough budget for the full GNN verdict.
    Comfortable,
    /// Not enough budget for the classifier; drift screening only.
    Tight,
    /// The deadline already passed; no assessment is attempted.
    Expired,
}

/// Outcome of screening one real-time window.
#[derive(Clone, Debug)]
pub struct Detection {
    /// The real-time interaction graph that was analysed.
    pub graph: InteractionGraph,
    /// Drift screening verdict (step ⑤).
    pub drifting: bool,
    pub drift_degree: f64,
    /// Classifier verdict (threat probability and hard label).
    pub threat_probability: f32,
    pub is_threat: bool,
    /// The warning raised, if any.
    pub warning: Option<Warning>,
    /// Which rung of the degradation ladder produced this verdict.
    pub degradation: Degradation,
}

impl Detection {
    /// A quarantined detection: no verdict, NaN scores, reason attached.
    pub fn quarantined(graph: InteractionGraph, reason: String) -> Self {
        Detection {
            graph,
            drifting: false,
            drift_degree: f64::NAN,
            threat_probability: f32::NAN,
            is_threat: false,
            warning: None,
            degradation: Degradation::Quarantined(reason),
        }
    }
}

/// Everything [`Detection`] carries except the graph itself (the internal
/// assessment result, before the graph is moved into place).
struct Verdict {
    drifting: bool,
    drift_degree: f64,
    threat_probability: f32,
    is_threat: bool,
    warning: Option<Warning>,
    degradation: Degradation,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// The first rule with id `id` in `rules`, which is sorted by id: what a
/// front-to-back scan finds, in O(log n).
fn deployed_rule(rules: &[Rule], id: u32) -> Option<&Rule> {
    let at = rules.partition_point(|r| r.id.0 < id);
    rules.get(at).filter(|r| r.id.0 == id)
}

/// The deployed Glint instance: deployed rules + trained models.
pub struct GlintDetector<C: GraphModel, E: GraphModel> {
    rules: Vec<Rule>,
    classifier: C,
    embedder: E,
    drift: DriftDetector,
    online: OnlineBuilder,
    /// Number of causes listed in warnings.
    pub top_k_causes: usize,
}

impl<C: GraphModel, E: GraphModel> GlintDetector<C, E> {
    pub fn new(mut rules: Vec<Rule>, classifier: C, embedder: E, drift: DriftDetector) -> Self {
        // the deployed set is kept sorted by rule id so delta application
        // finds its slot in O(log n); the Vec insert/remove itself is O(n)
        rules.sort_by_key(|r| r.id.0);
        Self {
            rules,
            classifier,
            embedder,
            drift,
            online: OnlineBuilder,
            top_k_causes: 3,
        }
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Consume one rule delta from the incremental pipeline: the deployed
    /// rule set is updated in place so warnings and window processing
    /// resolve the new rules — no full rebuild. A duplicate add or unknown
    /// remove is a silent no-op: the pipeline in front of the detector
    /// already surfaced the typed error, and the detector's view must
    /// simply converge to the pipeline's.
    pub fn apply_delta(&mut self, delta: &crate::incremental::RuleDelta) {
        match &delta.change {
            crate::incremental::RuleChange::Add(rule) => {
                if let Err(at) = self.rules.binary_search_by_key(&rule.id.0, |r| r.id.0) {
                    self.rules.insert(at, rule.clone());
                }
            }
            crate::incremental::RuleChange::Remove(id) => {
                if let Ok(at) = self.rules.binary_search_by_key(&id.0, |r| r.id.0) {
                    self.rules.remove(at);
                }
            }
        }
    }

    pub fn classifier(&self) -> &C {
        &self.classifier
    }

    pub fn embedder(&self) -> &E {
        &self.embedder
    }

    /// Give user feedback to the models (step ⑧: fine-tuning hooks).
    pub fn classifier_mut(&mut self) -> &mut C {
        &mut self.classifier
    }

    /// Screen one time window of the event log.
    pub fn process_window(&self, log: &EventLog, from: f64, to: f64) -> Detection {
        let graph = self.online.build(
            &self.rules,
            log,
            from,
            to,
            &crate::construction::node_features,
        );
        self.assess(graph)
    }

    /// Assess an already-constructed interaction graph. Never panics: a
    /// poisoned graph or an internal failure lands on a lower rung of the
    /// degradation ladder (drift-only fallback or quarantine) instead.
    pub fn assess(&self, graph: InteractionGraph) -> Detection {
        self.assess_mode(graph, false)
    }

    /// Deadline-aware assessment: the caller states how much latency
    /// budget remains and the verdict lands on the matching rung of the
    /// degradation ladder. `Comfortable` is exactly [`Self::assess`];
    /// `Tight` skips the classifier (embed + drift screen only, a
    /// [`Degradation::DriftOnly`] verdict with the drift-derived
    /// pseudo-probability); `Expired` returns an explicit
    /// [`Degradation::Quarantined`] timeout verdict without touching the
    /// models. Never panics, never blocks on anything but the math it was
    /// budgeted for.
    pub fn assess_under_pressure(
        &self,
        graph: InteractionGraph,
        pressure: DeadlinePressure,
    ) -> Detection {
        match pressure {
            DeadlinePressure::Comfortable => self.assess_mode(graph, false),
            DeadlinePressure::Tight => self.assess_mode(graph, true),
            DeadlinePressure::Expired => {
                let detection = Detection::quarantined(
                    graph,
                    "deadline expired before assessment began".to_string(),
                );
                if glint_trace::enabled() {
                    glint_trace::counter("detector.verdict.quarantined", 1);
                }
                detection
            }
        }
    }

    fn assess_mode(&self, graph: InteractionGraph, skip_classifier: bool) -> Detection {
        let _span = glint_trace::span("assess");
        let detection = match self.verdict(&graph, skip_classifier) {
            Ok(v) => Detection {
                graph,
                drifting: v.drifting,
                drift_degree: v.drift_degree,
                threat_probability: v.threat_probability,
                is_threat: v.is_threat,
                warning: v.warning,
                degradation: v.degradation,
            },
            Err(e) => Detection::quarantined(graph, e.to_string()),
        };
        if glint_trace::enabled() {
            let rung = match &detection.degradation {
                Degradation::None => "detector.verdict.full",
                Degradation::DriftOnly(_) => "detector.verdict.drift_only",
                Degradation::Quarantined(_) => "detector.verdict.quarantined",
            };
            glint_trace::counter(rung, 1);
            // Quarantined verdicts carry NaN scores by design — they have no
            // drift degree to report, so they must not pollute the histogram
            // with a `nonfinite` sample (the rung counter above already
            // records the event).
            if !matches!(detection.degradation, Degradation::Quarantined(_)) {
                glint_trace::histogram("detector.drift_degree", detection.drift_degree);
            }
        }
        detection
    }

    /// Like [`assess`](Self::assess), but surfaces quarantine-level
    /// failures as a typed [`GlintError`] instead of a quarantined
    /// `Detection` — for callers that treat a rejected input as an error
    /// rather than a degraded verdict. Drift-only fallback still returns
    /// `Ok` (the verdict exists, just degraded).
    pub fn try_assess(&self, graph: InteractionGraph) -> Result<Detection, GlintError> {
        let v = self.verdict(&graph, false)?;
        Ok(Detection {
            graph,
            drifting: v.drifting,
            drift_degree: v.drift_degree,
            threat_probability: v.threat_probability,
            is_threat: v.is_threat,
            warning: v.warning,
            degradation: v.degradation,
        })
    }

    /// The assessment pipeline. `Err` means quarantine (no verdict
    /// possible); `Ok` verdicts may still be degraded to drift-only.
    /// With `skip_classifier` the pipeline stops after drift screening
    /// (the deadline-pressure rung): the verdict is deliberately
    /// drift-only, not a classifier failure.
    #[expect(
        clippy::disallowed_methods,
        reason = "the degradation layer: a panic while embedding, classifying or \
                  explaining one graph quarantines or degrades that graph only"
    )]
    fn verdict(
        &self,
        graph: &InteractionGraph,
        skip_classifier: bool,
    ) -> Result<Verdict, GlintError> {
        if graph.n_nodes() == 0 {
            return Ok(Verdict {
                drifting: false,
                drift_degree: 0.0,
                threat_probability: 0.0,
                is_threat: false,
                warning: None,
                degradation: Degradation::None,
            });
        }
        graph.validate().map_err(GlintError::InvalidGraph)?;
        // step ⑤: drift screening in the contrastive latent space. Batch
        // preparation and the embedder run behind a panic barrier — a graph
        // that slips past validation, or a poisoned embedder, quarantines
        // this one graph instead of killing the monitoring loop.
        let embedded = {
            let _span = glint_trace::span("embed");
            catch_unwind(AssertUnwindSafe(
                || -> Result<(PreparedGraph, Vec<f32>), GlintError> {
                    glint_failpoint::trigger(SITE_ASSESS)?;
                    let prepared = PreparedGraph::from_graph(graph);
                    let embedding = ContrastiveTrainer::embed(&self.embedder, &prepared);
                    Ok((prepared, embedding))
                },
            ))
        };
        let (prepared, embedding) = match embedded {
            Ok(Ok(x)) => x,
            Ok(Err(e)) => return Err(e),
            Err(payload) => return Err(GlintError::Panicked(panic_message(payload))),
        };
        let drift_degree = self.drift.drift_degree(&embedding);
        let drifting = drift_degree > self.drift.threshold;
        // step ⑥: classification, falling back to the drift score when the
        // classifier fails — a degraded verdict beats no verdict. Under
        // deadline pressure the classifier is skipped outright and the
        // same fallback rung answers.
        let classified = if skip_classifier {
            None
        } else {
            let _span = glint_trace::span("classify");
            Some(catch_unwind(AssertUnwindSafe(
                || -> Result<f32, GlintError> {
                    glint_failpoint::trigger(SITE_CLASSIFY)?;
                    Ok(ClassifierTrainer::predict_proba(
                        &self.classifier,
                        &prepared,
                    ))
                },
            )))
        };
        let (threat_probability, is_threat, degradation) = match classified {
            Some(Ok(Ok(p))) if p.is_finite() => (p, p > 0.5, Degradation::None),
            other => {
                let reason = match other {
                    None => "deadline pressure: classifier skipped".to_string(),
                    Some(Ok(Ok(p))) => format!("classifier produced non-finite probability {p}"),
                    Some(Ok(Err(e))) => e.to_string(),
                    Some(Err(payload)) => panic_message(payload),
                };
                // drift-only pseudo-probability: 0.5 exactly at the MAD
                // threshold, approaching 1 as the drift degree grows
                let pseudo = (drift_degree / (drift_degree + self.drift.threshold)) as f32;
                (pseudo, drifting, Degradation::DriftOnly(reason))
            }
        };
        // step ⑦: warning with explained causes. Explanation reuses the
        // classifier, so on the fallback rung (or if explain itself fails)
        // the warning is raised without cause attribution. On the full rung
        // `prepared` and the probability are the classifier's own, so the
        // explainer runs only its deletion passes.
        let warning = if is_threat || drifting {
            let causes_idx = if degradation == Degradation::None {
                catch_unwind(AssertUnwindSafe(|| {
                    explain::top_causes_prepared(
                        &self.classifier,
                        graph,
                        &prepared,
                        threat_probability,
                        self.top_k_causes,
                    )
                }))
                .unwrap_or_default()
            } else {
                Vec::new()
            };
            let causes: Vec<&Rule> = causes_idx
                .iter()
                .filter_map(|&i| deployed_rule(&self.rules, graph.node(i).rule_id.0))
                .collect();
            Some(Warning::new(drifting && !is_threat, &causes))
        } else {
            None
        };
        Ok(Verdict {
            drifting,
            drift_degree,
            threat_probability,
            is_threat,
            warning,
            degradation,
        })
    }

    /// Assess a batch of graphs, scoring them concurrently. Results come
    /// back in input order and are identical to mapping [`Self::assess`]
    /// serially — the parallel kernels and the ordered fan-out are both
    /// deterministic. Failures are isolated per graph: a poisoned graph
    /// yields a quarantined `Detection` in its own slot and the rest of the
    /// batch is assessed normally.
    pub fn assess_batch(&self, graphs: &[InteractionGraph]) -> Vec<Detection> {
        glint_tensor::par::ordered_map(graphs.len(), |i| self.assess(graphs[i].clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_gnn::models::{Itgnn, ItgnnConfig};
    use glint_gnn::trainer::TrainConfig;
    use glint_graph::GraphLabel;
    use glint_rules::event::{EventKind, EventRecord};
    use glint_rules::scenarios::table1_rules;
    use glint_rules::Platform;
    use glint_tensor::Matrix;

    fn tiny_models() -> (Itgnn, Itgnn, DriftDetector) {
        // train a minimal pair of models on oracle-labeled samples of the
        // Table 1 house so the pipeline is end-to-end real
        let rules = table1_rules();
        let builder = crate::construction::OfflineBuilder::new(rules, 5);
        let mut ds = builder.build_dataset(Platform::all(), 24, 6, true);
        ds.oversample_threats(1);
        let prepared = PreparedGraph::prepare_all(ds.graphs());
        let types = glint_gnn::batch::GraphSchema::infer(ds.graphs().iter()).types;
        let cfg = ItgnnConfig {
            hidden: 12,
            embed: 8,
            n_scales: 2,
            ..Default::default()
        };
        let mut classifier = Itgnn::new(&types, cfg.clone());
        ClassifierTrainer::new(TrainConfig {
            epochs: 4,
            ..Default::default()
        })
        .train(&mut classifier, &prepared);
        let mut embedder = Itgnn::new(&types, cfg);
        ContrastiveTrainer::new(TrainConfig {
            epochs: 3,
            ..Default::default()
        })
        .train(&mut embedder, &prepared);
        let emb = ContrastiveTrainer::embed_all(&embedder, &prepared);
        let labels: Vec<usize> = prepared.iter().map(|g| g.label.unwrap()).collect();
        let drift = DriftDetector::fit(&emb, &labels);
        (classifier, embedder, drift)
    }

    #[test]
    fn deployed_rule_finds_the_first_of_equal_ids() {
        let mut rules = table1_rules();
        // a second rule 4 and a second rule 9, on other platforms
        let mut dup4 = rules[3].clone();
        dup4.platform = Platform::HomeAssistant;
        let mut dup9 = rules[8].clone();
        dup9.platform = Platform::Ifttt;
        rules.extend([dup4, dup9]);
        // `new`'s stable sort keeps equal ids in input order
        rules.sort_by_key(|r| r.id.0);
        let ids: Vec<u32> = rules.iter().map(|r| r.id.0).collect();
        assert!(ids.windows(2).any(|w| w[0] == w[1]), "{ids:?}");
        for id in 0..=ids.iter().max().copied().unwrap_or(0) + 1 {
            let scanned = rules.iter().find(|r| r.id.0 == id);
            let found = deployed_rule(&rules, id);
            assert_eq!(
                found.map(|r| (r.id, r.platform)),
                scanned.map(|r| (r.id, r.platform)),
                "id {id}"
            );
        }
        assert!(deployed_rule(&[], 1).is_none());
    }

    #[test]
    fn end_to_end_window_processing() {
        let (classifier, embedder, drift) = tiny_models();
        let detector = GlintDetector::new(table1_rules(), classifier, embedder, drift);
        // replay the paper's running incident: movie → lights off → door
        // locked; smoke → window open; temp high → AC on → windows closed
        let mut log = EventLog::new();
        log.push(EventRecord::new(100.0, EventKind::RuleFired { rule_id: 1 }));
        log.push(EventRecord::new(130.0, EventKind::RuleFired { rule_id: 9 }));
        log.push(EventRecord::new(
            1900.0,
            EventKind::RuleFired { rule_id: 6 },
        ));
        log.push(EventRecord::new(
            1960.0,
            EventKind::RuleFired { rule_id: 4 },
        ));
        log.push(EventRecord::new(
            2000.0,
            EventKind::RuleFired { rule_id: 5 },
        ));
        let det = detector.process_window(&log, 0.0, 3000.0);
        assert_eq!(det.graph.n_nodes(), 5, "five rules executed");
        assert!(
            det.graph.n_edges() >= 2,
            "causal chain edges survive pruning"
        );
        assert!((0.0..=1.0).contains(&det.threat_probability));
        if det.is_threat {
            let w = det.warning.expect("threat must carry a warning");
            assert!(!w.causes.is_empty());
        }
    }

    #[test]
    fn empty_window_is_benign() {
        let (classifier, embedder, drift) = tiny_models();
        let detector = GlintDetector::new(table1_rules(), classifier, embedder, drift);
        let log = EventLog::new();
        let det = detector.process_window(&log, 0.0, 100.0);
        assert!(!det.is_threat);
        assert!(det.warning.is_none());
        assert_eq!(det.graph.n_nodes(), 0);
    }

    #[test]
    fn nan_feature_graph_quarantines_only_its_own_slot() {
        let (classifier, embedder, drift) = tiny_models();
        let rules = table1_rules();
        let detector = GlintDetector::new(rules.clone(), classifier, embedder, drift);
        let builder = crate::construction::OfflineBuilder::new(rules, 5);
        let ds = builder.build_dataset(Platform::all(), 6, 6, true);
        let mut graphs: Vec<_> = ds.graphs().iter().take(3).cloned().collect();
        assert!(graphs.len() >= 2, "need at least two graphs");
        // poison the middle graph with a NaN feature (bypassing add_edge's
        // construction-time checks, as a hostile producer would)
        let poisoned = {
            let g = &graphs[1];
            let mut nodes = g.nodes().to_vec();
            nodes[0].features[0] = f32::NAN;
            let mut bad = InteractionGraph::new(nodes);
            for &(s, d, k) in g.edges() {
                bad.add_edge(s, d, k);
            }
            bad
        };
        graphs[1] = poisoned;
        let detections = detector.assess_batch(&graphs);
        assert_eq!(detections.len(), 3);
        for (i, det) in detections.iter().enumerate() {
            if i == 1 {
                assert!(
                    matches!(det.degradation, Degradation::Quarantined(_)),
                    "poisoned graph must quarantine, got {:?}",
                    det.degradation
                );
                assert!(det.threat_probability.is_nan());
                assert!(!det.is_threat);
            } else {
                assert_eq!(
                    det.degradation,
                    Degradation::None,
                    "healthy graph {i} must get a full verdict"
                );
                assert!((0.0..=1.0).contains(&det.threat_probability));
            }
        }
    }

    #[test]
    fn pressure_rungs_map_onto_the_degradation_ladder() {
        let (classifier, embedder, drift) = tiny_models();
        let rules = table1_rules();
        let detector = GlintDetector::new(rules.clone(), classifier, embedder, drift);
        let builder = crate::construction::OfflineBuilder::new(rules, 5);
        let ds = builder.build_dataset(Platform::all(), 4, 6, true);
        let graph = ds.graphs()[0].clone();
        assert!(graph.n_nodes() > 0, "need a non-empty graph");

        let full = detector.assess_under_pressure(graph.clone(), DeadlinePressure::Comfortable);
        assert_eq!(full.degradation, Degradation::None);
        assert!((0.0..=1.0).contains(&full.threat_probability));

        let tight = detector.assess_under_pressure(graph.clone(), DeadlinePressure::Tight);
        match &tight.degradation {
            Degradation::DriftOnly(reason) => {
                assert!(reason.contains("deadline"), "reason: {reason}")
            }
            other => panic!("Tight must land on DriftOnly, got {other:?}"),
        }
        // drift screening still ran: the degree is real, and the
        // pseudo-probability is the drift-derived one
        assert!(tight.drift_degree.is_finite());
        assert_eq!(tight.drift_degree, full.drift_degree);
        assert!((0.0..=1.0).contains(&tight.threat_probability));

        let expired = detector.assess_under_pressure(graph, DeadlinePressure::Expired);
        match &expired.degradation {
            Degradation::Quarantined(reason) => {
                assert!(reason.contains("deadline expired"), "reason: {reason}")
            }
            other => panic!("Expired must quarantine, got {other:?}"),
        }
        assert!(expired.threat_probability.is_nan());
        assert!(!expired.is_threat);
    }

    #[test]
    fn try_assess_surfaces_invalid_graph_as_typed_error() {
        let (classifier, embedder, drift) = tiny_models();
        let detector = GlintDetector::new(table1_rules(), classifier, embedder, drift);
        let mut nodes = vec![glint_graph::graph::Node {
            rule_id: glint_rules::RuleId(1),
            platform: Platform::Ifttt,
            features: vec![1.0, f32::INFINITY],
        }];
        nodes[0].features[1] = f32::INFINITY;
        let bad = InteractionGraph::new(nodes);
        let err = detector.try_assess(bad).unwrap_err();
        assert!(
            matches!(err, crate::error::GlintError::InvalidGraph(_)),
            "got {err}"
        );
    }

    #[test]
    fn assess_flags_labeled_threat_graphs_sensibly() {
        let (classifier, embedder, drift) = tiny_models();
        let rules = table1_rules();
        let detector = GlintDetector::new(rules.clone(), classifier, embedder, drift);
        let builder = crate::construction::OfflineBuilder::new(rules, 77);
        let ds = builder.build_dataset(Platform::all(), 12, 6, true);
        let mut agree = 0;
        for g in ds.iter() {
            let want = g.label == Some(GraphLabel::Threat);
            let mut unlabeled = g.clone();
            unlabeled.label = None;
            let det = detector.assess(unlabeled);
            if det.is_threat == want {
                agree += 1;
            }
        }
        // lightly-trained tiny model: just demand better than random-ish
        assert!(agree >= 6, "agreement {agree}/12");
        let _ = Matrix::zeros(1, 1);
    }
}
