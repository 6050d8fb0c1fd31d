//! Hand-computed numeric tests for drift detection (Algorithm 3).
//!
//! The core fixture is seven 1-D embeddings `[1, 2, 3, 4, 5, 6, 7]` in one
//! class. Every statistic is exact in binary floating point, so the tests
//! assert *equality*, not closeness:
//!
//! - centroid = 28/7 = 4
//! - distances to the centroid: {3, 2, 1, 0, 1, 2, 3} → sorted
//!   [0, 1, 1, 2, 2, 3, 3] → median = 2
//! - absolute deviations from that median: {1, 0, 1, 2, 1, 0, 1} → sorted
//!   [0, 0, 1, 1, 1, 1, 2] → MAD = 1
//! - drift degree of a query x: max(0, |x − 4| − 2) / 1
//!
//! The second half drives the same fixture through the detector's
//! drift-only fallback rung and pins the `d / (d + T_MAD)` pseudo-
//! probabilities to hand-derived values (degrees 1, 3, 9 → 0.25, 0.5,
//! 0.75 exactly).

use glint_core::detector::{Degradation, GlintDetector, SITE_CLASSIFY};
use glint_core::drift::{DriftDetector, T_MAD};
use glint_failpoint::{Action, ScopedFail};
use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::{GraphModel, InferOutput, ModelOutput};
use glint_graph::graph::Node;
use glint_graph::InteractionGraph;
use glint_rules::{Platform, RuleId};
use glint_tensor::{InferCtx, Matrix, ParamSet, Tape, Var};

/// The seven-point single-class fixture.
fn seven_point_detector() -> DriftDetector {
    let x = Matrix::from_rows(&[
        vec![1.0],
        vec![2.0],
        vec![3.0],
        vec![4.0],
        vec![5.0],
        vec![6.0],
        vec![7.0],
    ]);
    DriftDetector::fit(&x, &[0, 0, 0, 0, 0, 0, 0])
}

#[test]
fn seven_point_fixture_matches_hand_computed_mad_statistics() {
    let det = seven_point_detector();
    assert_eq!(det.threshold, T_MAD);
    assert_eq!(det.threshold, 3.0);

    // degree(x) = max(0, |x − 4| − 2) / 1, all arithmetic exact
    assert_eq!(det.drift_degree(&[4.0]), 0.0, "centroid itself");
    assert_eq!(det.drift_degree(&[6.0]), 0.0, "at the median distance");
    assert_eq!(det.drift_degree(&[6.5]), 0.5);
    assert_eq!(det.drift_degree(&[7.0]), 1.0, "outermost training point");
    assert_eq!(det.drift_degree(&[1.0]), 1.0, "symmetric on the other side");
    assert_eq!(det.drift_degree(&[-1.0]), 3.0);
    assert_eq!(det.drift_degree(&[10.0]), 4.0);
    assert_eq!(det.drift_degree(&[15.0]), 9.0);

    // one-sided: closer than the median distance is squarely in-distribution
    assert_eq!(det.drift_degree(&[3.5]), 0.0);
    assert_eq!(det.drift_degree(&[4.5]), 0.0);

    // the threshold is strict: degree exactly T_MAD does not drift
    assert_eq!(det.drift_degree(&[-1.0]), det.threshold);
    assert!(!det.is_drifting(&[-1.0]));
    assert!(det.is_drifting(&[10.0]));
    assert!(!det.is_drifting(&[7.0]));
}

#[test]
fn two_class_fixture_takes_the_minimum_over_classes() {
    // class 1 is the same shape shifted to centroid 104: med 2, MAD 1 again
    let rows: Vec<Vec<f32>> = (1..=7)
        .map(|v| vec![v as f32])
        .chain((101..=107).map(|v| vec![v as f32]))
        .collect();
    let labels = [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1];
    let det = DriftDetector::fit(&Matrix::from_rows(&rows), &labels);

    // near class 1: its degree wins the min even though class 0 screams
    assert_eq!(det.drift_degree(&[104.0]), 0.0);
    assert_eq!(det.drift_degree(&[107.0]), 1.0);
    // near class 0: identical to the single-class fixture
    assert_eq!(det.drift_degree(&[10.0]), 4.0);
    // equidistant from both centroids (d = 50 each): min(48, 48) = 48
    assert_eq!(det.drift_degree(&[54.0]), 48.0);
    // drifting requires exceeding the threshold for *every* class
    assert!(!det.is_drifting(&[0.0]), "degree min(2, 102) = 2");
    assert!(det.is_drifting(&[54.0]));
}

#[test]
fn all_identical_scores_hit_the_mad_epsilon_floor() {
    // all seven training embeddings identical: every distance is 0, so the
    // median and MAD are both 0 and only the 1e-9 floor keeps the degree
    // finite for finite queries
    let x = Matrix::from_rows(&vec![vec![5.0f32]; 7]);
    let det = DriftDetector::fit(&x, &[0; 7]);

    assert_eq!(det.drift_degree(&[5.0]), 0.0, "exactly on the point mass");
    assert!(!det.is_drifting(&[5.0]));

    // any displacement is amplified by 1/1e-9: degree = 0.5 / 1e-9, the
    // exact same (deterministic) f64 arithmetic as the implementation
    let amplified = 0.5f64 / 1e-9;
    assert_eq!(det.drift_degree(&[5.5]), amplified);
    assert_eq!(det.drift_degree(&[4.5]), amplified);
    assert!(det.drift_degree(&[5.5]).is_finite());
    assert!(det.is_drifting(&[5.5]));
}

#[test]
fn batch_detect_matches_hand_computed_degrees() {
    let det = seven_point_detector();
    let probes = Matrix::from_rows(&[vec![4.0], vec![-1.0], vec![10.0], vec![15.0]]);
    // only the strict exceedances come back, with their exact degrees
    let hits = det.detect(&probes);
    assert_eq!(hits, vec![(2, 4.0), (3, 9.0)]);
}

/// A model whose graph embedding is a fixed 1-D constant: lets the test
/// place the detector's latent point exactly where the hand computation
/// wants it. The logits are a tied 1×2 zero row (probability 0.5) so the
/// same struct doubles as the full-rung control classifier.
struct FixedEmbedder {
    params: ParamSet,
    value: f32,
}

impl FixedEmbedder {
    fn new(value: f32) -> Self {
        Self {
            params: ParamSet::new(),
            value,
        }
    }
}

impl GraphModel for FixedEmbedder {
    fn name(&self) -> &'static str {
        "fixed-embedder"
    }
    fn params(&self) -> &ParamSet {
        &self.params
    }
    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }
    fn embed_dim(&self) -> usize {
        1
    }
    fn forward(&self, tape: &mut Tape, _vars: &[Var], _g: &PreparedGraph) -> ModelOutput {
        ModelOutput {
            embedding: tape.var(Matrix::from_rows(&[vec![self.value]])),
            logits: tape.var(Matrix::from_rows(&[vec![0.0, 0.0]])),
            aux_loss: None,
        }
    }
    fn forward_infer(&self, _ctx: &mut InferCtx, _g: &PreparedGraph) -> InferOutput {
        InferOutput {
            embedding: Matrix::from_rows(&[vec![self.value]]),
            logits: Matrix::from_rows(&[vec![0.0, 0.0]]),
        }
    }
}

/// A minimal valid one-node graph (the stub models ignore it, but it must
/// pass structural validation to reach the drift stage).
fn one_node_graph() -> InteractionGraph {
    InteractionGraph::new(vec![Node {
        rule_id: RuleId(0),
        platform: Platform::Ifttt,
        features: vec![0.25, 0.5],
    }])
}

/// Pin the drift-only fallback's `d / (d + threshold)` pseudo-probability
/// to hand-derived values by steering the embedding through a stub model.
/// Degrees 1, 3, 9 over threshold 3 give exactly 0.25, 0.5, 0.75 in f32.
///
/// All rungs live in one test function because the classify fail-point
/// site is process-global state.
#[test]
fn drift_only_pseudo_probabilities_match_hand_computation() {
    let cases: &[(f32, f64, f32, bool)] = &[
        // (embedding, expected degree, expected pseudo-probability, drifting)
        (4.0, 0.0, 0.0, false),
        (7.0, 1.0, 0.25, false),
        (-1.0, 3.0, 0.5, false), // exactly at the threshold: pseudo is ½
        (15.0, 9.0, 0.75, true),
    ];
    for &(value, degree, pseudo, drifting) in cases {
        let detector = GlintDetector::new(
            Vec::new(),
            FixedEmbedder::new(0.0), // classifier (never reached)
            FixedEmbedder::new(value),
            seven_point_detector(),
        );
        let _force_fallback = ScopedFail::new(SITE_CLASSIFY, Action::Err, 1);
        let det = detector.assess(one_node_graph());
        assert!(
            matches!(det.degradation, Degradation::DriftOnly(_)),
            "embedding {value}: expected drift-only rung, got {:?}",
            det.degradation
        );
        assert_eq!(det.drift_degree, degree, "embedding {value}");
        assert_eq!(det.threat_probability, pseudo, "embedding {value}");
        assert_eq!(det.drifting, drifting, "embedding {value}");
        // on the fallback rung the hard verdict IS the drift verdict
        assert_eq!(det.is_threat, drifting, "embedding {value}");
    }

    // full-rung control: with no fault armed the tied-logits classifier
    // answers 0.5 and the pseudo-probability machinery never runs
    let detector = GlintDetector::new(
        Vec::new(),
        FixedEmbedder::new(0.0),
        FixedEmbedder::new(15.0),
        seven_point_detector(),
    );
    let det = detector.assess(one_node_graph());
    assert_eq!(det.degradation, Degradation::None);
    assert_eq!(det.drift_degree, 9.0);
    assert_eq!(det.threat_probability, 0.5);
}
