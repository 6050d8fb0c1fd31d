//! # glint-core
//!
//! Glint — the paper's system: graph learning for interactive threat
//! detection in heterogeneous smart-home rule data.
//!
//! The offline stage ([`construction`]) discovers action→trigger correlations
//! from rule *text* ([`correlation`], Algorithm 1), chains correlated rules
//! into interaction graphs, and labels them with the literature's six threat
//! policies ([`oracle`]). ITGNN models (from `glint-gnn`) are trained on the
//! result; [`transfer`] moves knowledge across platforms (§3.3.4), and
//! [`drift`] implements Algorithm 3's MAD-based drifting-sample detection in
//! the contrastive latent space. The online stage ([`detector`]) fuses
//! deployed rules with event logs, prunes temporally implausible edges, and
//! raises user-facing [`warning`]s with salient-node explanations
//! ([`explain`]).

pub mod construction;
pub mod correlation;
pub mod detector;
pub mod drift;
pub mod error;
pub mod explain;
pub mod feedback;
pub mod incremental;
pub mod oracle;
pub mod persist;
pub mod transfer;
pub mod warning;

pub use construction::{node_features, DatasetBundle, OfflineBuilder};
pub use correlation::{pair_features, CorrelationDiscoverer, PairDataset};
pub use detector::{DeadlinePressure, Degradation, Detection, GlintDetector};
pub use drift::DriftDetector;
pub use error::GlintError;
pub use feedback::FeedbackStore;
pub use incremental::{
    DeltaError, IncrementalPipeline, OracleMiner, PairCorrelation, RuleChange, RuleDelta,
};
pub use oracle::{label_rules, ThreatFinding, ThreatKind};
pub use warning::Warning;
