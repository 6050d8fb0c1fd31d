//! Incremental Algorithm 1: delta mining over per-home rule sets.
//!
//! The batch pipeline re-runs correlation mining, graph construction, and
//! embedding over the *whole corpus* on every rule change — O(N²) pair work
//! for a change that touches one home. This module makes the pipeline
//! delta-driven, the THREATRACE discipline of scoping updates to the
//! affected neighborhood of an evolving graph:
//!
//! 1. **Vocabulary neighborhood.** Each home indexes its rules by the
//!    device and channel *tokens* they emit and consume
//!    (`glint_rules::correlation::TokenIndex`). Algorithm 1 can only relate
//!    two rules that share a token, so when a rule is added only the pairs
//!    inside its token neighborhood are re-mined — the remainder of the
//!    home's weight map is provably unchanged.
//! 2. **Dirty-set tracking.** A delta marks exactly its home dirty;
//!    [`IncrementalPipeline::refresh`] re-embeds dirty homes only, so the
//!    GNN never re-embeds the other N−1 homes.
//! 3. **Live ingest→verdict.** [`IncrementalPipeline::ingest`] applies a
//!    delta, rebuilds the one affected home graph, forwards the delta to
//!    the [`GlintDetector`], and returns the detector's verdict — no full
//!    rebuild anywhere on the path.
//!
//! Equivalence contract: for any delta sequence, the incremental weight
//! maps, graphs, and embeddings are **bitwise identical** to a from-scratch
//! batch rebuild over the final rule sets ([`mine_all`] + [`home_graph`] are
//! the shared canonical constructors; `tests/incremental_equiv.rs` holds the
//! proptest).

use crate::detector::{Detection, GlintDetector};
use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::GraphModel;
use glint_gnn::trainer::ContrastiveTrainer;
use glint_graph::builder::{assemble, rule_nodes};
use glint_graph::graph::InteractionGraph;
use glint_graph::shard::{ShardError, ShardedStore};
use glint_graph::GraphDataset;
use glint_rules::correlation::TokenIndex;
use glint_rules::{Rule, RuleId};
use std::collections::BTreeMap;
use std::fmt;

pub use glint_rules::correlation::PairCorrelation;

/// Ground-truth Algorithm 1 over the device/channel taxonomy, the miner
/// [`mine_all`] runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleMiner;

impl OracleMiner {
    pub fn mine(&self, a: &Rule, b: &Rule) -> PairCorrelation {
        PairCorrelation::mine(a, b)
    }
}

/// A rule add/remove event on one home's deployed rule set.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RuleDelta {
    pub home: u64,
    pub change: RuleChange,
}

#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RuleChange {
    Add(Rule),
    Remove(RuleId),
}

/// Why a delta could not be applied. The pipeline state is unchanged on any
/// of these.
#[derive(Debug)]
pub enum DeltaError {
    /// `Add` for a rule id the home already deploys.
    DuplicateRule { home: u64, id: u32 },
    /// `Remove` for a rule id the home does not deploy.
    UnknownRule { home: u64, id: u32 },
    /// `Remove` addressed to a home with no rules at all.
    UnknownHome { home: u64 },
    /// Shard persistence failed.
    Shard(ShardError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::DuplicateRule { home, id } => {
                write!(f, "home {home} already deploys rule {id}")
            }
            DeltaError::UnknownRule { home, id } => {
                write!(f, "home {home} does not deploy rule {id}")
            }
            DeltaError::UnknownHome { home } => write!(f, "home {home} has no deployed rules"),
            DeltaError::Shard(e) => write!(f, "shard persistence failed: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<ShardError> for DeltaError {
    fn from(e: ShardError) -> Self {
        DeltaError::Shard(e)
    }
}

/// One home's live state: sorted rules, mined pair records, the token
/// index, the current interaction graph, and the (possibly stale) embedding.
#[derive(Default)]
pub struct HomeState {
    /// Deployed rules, sorted by rule id (the canonical node order).
    rules: Vec<Rule>,
    /// Mined records for ordered pairs `(a_id, b_id)`; empty records are
    /// never stored.
    corr: BTreeMap<(u32, u32), PairCorrelation>,
    /// The deployed rules by vocabulary token, keyed by rule id.
    tokens: TokenIndex<u32>,
    /// Current interaction graph (`None` while the home has no rules).
    graph: Option<InteractionGraph>,
    /// Latest contrastive embedding; `None` until the first refresh.
    embedding: Option<Vec<f32>>,
    /// Embedding is stale relative to the rules/graph.
    dirty: bool,
}

impl HomeState {
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub fn correlations(&self) -> &BTreeMap<(u32, u32), PairCorrelation> {
        &self.corr
    }

    pub fn graph(&self) -> Option<&InteractionGraph> {
        self.graph.as_ref()
    }

    pub fn embedding(&self) -> Option<&[f32]> {
        self.embedding.as_deref()
    }

    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    fn rule_by_id(&self, id: u32) -> Option<&Rule> {
        self.rules
            .binary_search_by_key(&id, |r| r.id.0)
            .ok()
            .and_then(|i| self.rules.get(i))
    }
}

/// Mine every ordered pair of `rules` from scratch — the batch counterpart
/// the incremental path must match bitwise.
pub fn mine_all(miner: &OracleMiner, rules: &[Rule]) -> BTreeMap<(u32, u32), PairCorrelation> {
    let mut corr = BTreeMap::new();
    for a in rules {
        for b in rules {
            if a.id == b.id {
                continue;
            }
            let pc = miner.mine(a, b);
            if !pc.is_empty() {
                corr.insert((a.id.0, b.id.0), pc);
            }
        }
    }
    corr
}

/// Canonical graph constructor shared by the incremental and batch paths:
/// nodes in `rules` order, edges from the mined records through the one
/// assembler every interaction graph goes through. Returns `None` for an
/// empty rule set.
pub fn home_graph(
    rules: &[Rule],
    corr: &BTreeMap<(u32, u32), PairCorrelation>,
    feature_fn: &dyn Fn(&Rule) -> Vec<f32>,
) -> Option<InteractionGraph> {
    if rules.is_empty() {
        return None;
    }
    let id = |i: usize| rules.get(i).map(|r| r.id.0);
    let nodes = rule_nodes(rules, feature_fn);
    Some(assemble(nodes, |i, j| corr.get(&(id(i)?, id(j)?))))
}

/// Work accounting across the pipeline's lifetime. The scale ratchet
/// asserts `remined_pairs < full_mine_pairs` and
/// `reembedded < full_reembed` — the whole point of being incremental.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Deltas applied.
    pub deltas: u64,
    /// Ordered pairs actually re-mined (neighborhood-scoped).
    pub remined_pairs: u64,
    /// Ordered pairs a from-scratch batch rebuild would have mined instead
    /// (Σ over homes of n·(n−1), accumulated per delta).
    pub full_mine_pairs: u64,
    /// Home graphs re-embedded by [`IncrementalPipeline::refresh`].
    pub reembedded: u64,
    /// Home graphs a full re-embed would have touched instead (all homes
    /// with rules, accumulated per refresh).
    pub full_reembed: u64,
    /// Home graphs rebuilt (one per effective delta).
    pub graphs_rebuilt: u64,
}

/// What one applied delta did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApplyReport {
    pub home: u64,
    /// Distinct rules in the changed rule's token neighborhood.
    pub neighborhood: usize,
    /// Ordered pairs re-mined for this delta (0 for a removal).
    pub remined_pairs: usize,
    /// Pair records dropped (removal only).
    pub removed_pairs: usize,
}

/// Outcome of [`IncrementalPipeline::ingest`]: the delta's mining report
/// plus the detector's verdict on the home's fresh graph.
pub struct IngestOutcome {
    pub report: ApplyReport,
    pub detection: Detection,
}

/// What a [`IncrementalPipeline::refresh`] pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefreshReport {
    /// Dirty homes re-embedded in this pass.
    pub reembedded: usize,
    /// Homes left untouched (clean, or empty of rules).
    pub skipped: usize,
}

/// The delta-driven multi-home pipeline: per-home incremental Algorithm 1,
/// dirty-set embedding refresh, and live ingest→verdict.
#[derive(Default)]
pub struct IncrementalPipeline {
    homes: BTreeMap<u64, HomeState>,
    /// Running Σ over homes of n·(n−1) — the batch-equivalent mining cost.
    total_pairs: u64,
    stats: PipelineStats,
}

impl IncrementalPipeline {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    pub fn n_homes(&self) -> usize {
        self.homes.len()
    }

    pub fn home(&self, home: u64) -> Option<&HomeState> {
        self.homes.get(&home)
    }

    pub fn homes(&self) -> impl Iterator<Item = (&u64, &HomeState)> {
        self.homes.iter()
    }

    pub fn dirty_homes(&self) -> Vec<u64> {
        self.homes
            .iter()
            .filter(|(_, s)| s.dirty)
            .map(|(&h, _)| h)
            .collect()
    }

    /// Apply one delta: re-mine the vocabulary neighborhood, rebuild the
    /// home's graph, mark the home dirty. Every other home — and every
    /// pair outside the neighborhood — is untouched.
    pub fn apply(
        &mut self,
        delta: &RuleDelta,
        feature_fn: &dyn Fn(&Rule) -> Vec<f32>,
    ) -> Result<ApplyReport, DeltaError> {
        let report = match &delta.change {
            RuleChange::Add(rule) => self.apply_add(delta.home, rule)?,
            RuleChange::Remove(id) => self.apply_remove(delta.home, *id)?,
        };
        self.stats.deltas += 1;
        self.stats.remined_pairs += report.remined_pairs as u64;
        self.stats.full_mine_pairs += self.total_pairs;
        self.stats.graphs_rebuilt += 1;
        if let Some(state) = self.homes.get_mut(&delta.home) {
            state.graph = home_graph(&state.rules, &state.corr, feature_fn);
            state.dirty = true;
        }
        Ok(report)
    }

    fn apply_add(&mut self, home: u64, rule: &Rule) -> Result<ApplyReport, DeltaError> {
        let state = self.homes.entry(home).or_default();
        let Err(insert_at) = state.rules.binary_search_by_key(&rule.id.0, |r| r.id.0) else {
            return Err(DeltaError::DuplicateRule {
                home,
                id: rule.id.0,
            });
        };
        let neigh = state.tokens.neighborhood(rule.id.0, rule);
        let mut remined = 0usize;
        for &sid in &neigh {
            let Some(other) = state.rule_by_id(sid) else {
                continue;
            };
            let forward = PairCorrelation::mine(rule, other);
            let backward = PairCorrelation::mine(other, rule);
            remined += 2;
            if !forward.is_empty() {
                state.corr.insert((rule.id.0, sid), forward);
            }
            if !backward.is_empty() {
                state.corr.insert((sid, rule.id.0), backward);
            }
        }
        let prior = state.rules.len() as u64;
        state.rules.insert(insert_at, rule.clone());
        state.tokens.add_rule(rule.id.0, rule);
        self.total_pairs += 2 * prior;
        Ok(ApplyReport {
            home,
            neighborhood: neigh.len(),
            remined_pairs: remined,
            removed_pairs: 0,
        })
    }

    fn apply_remove(&mut self, home: u64, id: RuleId) -> Result<ApplyReport, DeltaError> {
        let Some(state) = self.homes.get_mut(&home) else {
            return Err(DeltaError::UnknownHome { home });
        };
        let Ok(at) = state.rules.binary_search_by_key(&id.0, |r| r.id.0) else {
            return Err(DeltaError::UnknownRule { home, id: id.0 });
        };
        let rule = state.rules.remove(at);
        state.tokens.remove_rule(id.0, &rule);
        let before = state.corr.len();
        state.corr.retain(|&(a, b), _| a != id.0 && b != id.0);
        let removed = before - state.corr.len();
        self.total_pairs -= 2 * state.rules.len() as u64;
        Ok(ApplyReport {
            home,
            neighborhood: 0,
            remined_pairs: 0,
            removed_pairs: removed,
        })
    }

    /// Re-embed dirty homes only. Homes with no rules are cleared instead
    /// of embedded (an empty graph has nothing to embed).
    pub fn refresh(&mut self, embedder: &dyn GraphModel) -> RefreshReport {
        let mut report = RefreshReport::default();
        let mut populated = 0u64;
        for state in self.homes.values_mut() {
            if !state.rules.is_empty() {
                populated += 1;
            }
            if !state.dirty {
                report.skipped += 1;
                continue;
            }
            match &state.graph {
                Some(g) => {
                    let prepared = PreparedGraph::from_graph(g);
                    state.embedding = Some(ContrastiveTrainer::embed(embedder, &prepared));
                    report.reembedded += 1;
                }
                None => {
                    state.embedding = None;
                    report.skipped += 1;
                }
            }
            state.dirty = false;
        }
        self.stats.reembedded += report.reembedded as u64;
        self.stats.full_reembed += populated;
        report
    }

    /// The live path: apply the delta, forward it to the detector's
    /// deployed rule set, and assess the home's fresh graph — one home's
    /// worth of work per event, end to end.
    pub fn ingest<C: GraphModel, E: GraphModel>(
        &mut self,
        delta: &RuleDelta,
        detector: &mut GlintDetector<C, E>,
        feature_fn: &dyn Fn(&Rule) -> Vec<f32>,
    ) -> Result<IngestOutcome, DeltaError> {
        let report = self.apply(delta, feature_fn)?;
        detector.apply_delta(delta);
        let graph = self
            .homes
            .get(&delta.home)
            .and_then(|s| s.graph.clone())
            .unwrap_or_else(|| InteractionGraph::new(Vec::new()));
        let detection = detector.assess(graph);
        Ok(IngestOutcome { report, detection })
    }

    /// Persist one home's current graph into its shard. A home with no
    /// rules persists an empty dataset (the shard stays addressable).
    pub fn persist_home(&self, store: &mut ShardedStore, home: u64) -> Result<(), DeltaError> {
        let Some(state) = self.homes.get(&home) else {
            return Err(DeltaError::UnknownHome { home });
        };
        let mut ds = GraphDataset::new();
        if let Some(g) = &state.graph {
            ds.push(g.clone());
        }
        store.save_shard(home, &ds)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_rules::scenarios::table1_rules;
    use glint_rules::Platform;

    fn feat(r: &Rule) -> Vec<f32> {
        vec![r.id.0 as f32, r.actions.len() as f32]
    }

    fn add(home: u64, rule: Rule) -> RuleDelta {
        RuleDelta {
            home,
            change: RuleChange::Add(rule),
        }
    }

    fn remove(home: u64, id: u32) -> RuleDelta {
        RuleDelta {
            home,
            change: RuleChange::Remove(RuleId(id)),
        }
    }

    #[test]
    fn incremental_add_matches_batch_mine() {
        let rules = table1_rules();
        let mut pipe = IncrementalPipeline::new();
        for r in &rules {
            pipe.apply(&add(1, r.clone()), &feat).unwrap();
        }
        let state = pipe.home(1).unwrap();
        let batch = mine_all(&OracleMiner, state.rules());
        assert_eq!(state.correlations(), &batch);
        // the incremental graph equals the canonical batch graph
        let expected = home_graph(state.rules(), &batch, &feat).unwrap();
        assert_eq!(state.graph().unwrap(), &expected);
    }

    #[test]
    fn remove_reverses_add() {
        let rules = table1_rules();
        let mut pipe = IncrementalPipeline::new();
        for r in &rules {
            pipe.apply(&add(1, r.clone()), &feat).unwrap();
        }
        let last = rules.last().unwrap();
        let report = pipe.apply(&remove(1, last.id.0), &feat).unwrap();
        assert!(report.removed_pairs > 0 || report.neighborhood == 0);
        let state = pipe.home(1).unwrap();
        let batch = mine_all(&OracleMiner, state.rules());
        assert_eq!(state.correlations(), &batch);
    }

    #[test]
    fn deltas_scope_to_their_home() {
        let rules = table1_rules();
        let mut pipe = IncrementalPipeline::new();
        pipe.apply(&add(1, rules[0].clone()), &feat).unwrap();
        pipe.apply(&add(2, rules[1].clone()), &feat).unwrap();
        let types: Vec<(Platform, usize)> = Platform::all().iter().map(|&p| (p, 2)).collect();
        let embedder = glint_gnn::models::Itgnn::new(
            &types,
            glint_gnn::models::ItgnnConfig {
                hidden: 4,
                embed: 4,
                n_scales: 1,
                ..Default::default()
            },
        );
        pipe.refresh(&embedder);
        assert_eq!(pipe.dirty_homes(), Vec::<u64>::new());
        // a delta on home 2 must not dirty home 1
        pipe.apply(&add(2, rules[2].clone()), &feat).unwrap();
        assert_eq!(pipe.dirty_homes(), vec![2]);
        let report = pipe.refresh(&embedder);
        assert_eq!(report.reembedded, 1);
    }

    #[test]
    fn bad_deltas_are_typed_and_leave_state_unchanged() {
        let rules = table1_rules();
        let mut pipe = IncrementalPipeline::new();
        pipe.apply(&add(1, rules[0].clone()), &feat).unwrap();
        let stats_before = pipe.stats().clone();
        assert!(matches!(
            pipe.apply(&add(1, rules[0].clone()), &feat),
            Err(DeltaError::DuplicateRule { home: 1, .. })
        ));
        assert!(matches!(
            pipe.apply(&remove(1, 999), &feat),
            Err(DeltaError::UnknownRule { home: 1, id: 999 })
        ));
        assert!(matches!(
            pipe.apply(&remove(77, 1), &feat),
            Err(DeltaError::UnknownHome { home: 77 })
        ));
        assert_eq!(pipe.stats(), &stats_before);
        assert_eq!(pipe.home(1).unwrap().rules().len(), 1);
    }

    #[test]
    fn stats_ratchet_remined_below_full() {
        let rules = table1_rules();
        let mut pipe = IncrementalPipeline::new();
        // spread the fixture over several homes so the full-corpus cost
        // dwarfs any one neighborhood
        for (i, r) in rules.iter().enumerate() {
            pipe.apply(&add((i % 4) as u64, r.clone()), &feat).unwrap();
        }
        let stats = pipe.stats();
        assert!(stats.full_mine_pairs > 0);
        assert!(
            stats.remined_pairs < stats.full_mine_pairs,
            "incremental mining must beat batch: {stats:?}"
        );
    }

    #[test]
    fn empty_home_round_trip() {
        let rules = table1_rules();
        let mut pipe = IncrementalPipeline::new();
        pipe.apply(&add(5, rules[0].clone()), &feat).unwrap();
        pipe.apply(&remove(5, rules[0].id.0), &feat).unwrap();
        let state = pipe.home(5).unwrap();
        assert!(state.rules().is_empty());
        assert!(state.graph().is_none());
        assert!(state.correlations().is_empty());
        // and the token index fully drains
        assert!(state.tokens.is_empty());
    }

    #[test]
    fn persist_home_writes_a_loadable_shard() {
        let dir = std::env::temp_dir().join("glint_incremental_persist");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ShardedStore::create(&dir).unwrap();
        let rules = table1_rules();
        let mut pipe = IncrementalPipeline::new();
        pipe.apply(&add(9, rules[0].clone()), &feat).unwrap();
        pipe.apply(&add(9, rules[8].clone()), &feat).unwrap();
        pipe.persist_home(&mut store, 9).unwrap();
        let ds = store.load_shard(9).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.graphs()[0], *pipe.home(9).unwrap().graph().unwrap());
        assert!(matches!(
            pipe.persist_home(&mut store, 1234),
            Err(DeltaError::UnknownHome { home: 1234 })
        ));
    }
}
