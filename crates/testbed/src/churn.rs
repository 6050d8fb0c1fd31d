//! Deterministic multi-tenant rule-churn load generator and harness.
//!
//! Simulates N×10⁵ homes deploying and retiring automation rules at Table 2
//! platform proportions, driving the incremental pipeline's ingest→verdict
//! path one delta at a time. Everything here is a pure function of the seed:
//! the churn trace serializes byte-identically across runs and thread
//! configurations, and the harness counters are exactly reproducible — the
//! wall-clock/RSS measurement lives in `glint-bench` (`micro_scale`), never
//! here.
//!
//! Flow per churn event: [`ChurnGenerator`] emits a [`RuleDelta`] →
//! [`IncrementalPipeline::ingest`] re-mines the home's vocabulary
//! neighborhood, rebuilds that one home graph, forwards the delta to the
//! [`GlintDetector`], and returns the verdict. Periodically the harness
//! refreshes dirty-home embeddings and persists touched homes into a
//! [`ShardedStore`], exercising the live shard-delta path end to end.

use glint_core::detector::Degradation;
use glint_core::drift::DriftDetector;
use glint_core::incremental::{DeltaError, IncrementalPipeline, RuleChange, RuleDelta};
use glint_core::GlintDetector;
use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::{Itgnn, ItgnnConfig};
use glint_gnn::trainer::ContrastiveTrainer;
use glint_graph::shard::ShardedStore;
use glint_rules::corpus::CorpusGenerator;
use glint_rules::{Action, Platform, Rule, RuleId, Trigger};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Feature dimension of [`churn_features`].
pub const CHURN_FEATURE_DIM: usize = 8;

/// Cheap structural featurizer for scale runs: 8 dims derived from the rule
/// AST (no NLP embedding — at 10⁵ homes the 300-d text features would
/// dominate RSS without changing what the harness measures). Deterministic
/// and platform-uniform, so every graph is schema-compatible.
pub fn churn_features(rule: &Rule) -> Vec<f32> {
    let trigger_class = match &rule.trigger {
        Trigger::DeviceState { .. } => 1.0,
        Trigger::ChannelThreshold { .. } => 2.0,
        Trigger::ChannelRange { .. } => 3.0,
        Trigger::ChannelEvent { .. } => 4.0,
        Trigger::Time(_) => 5.0,
        Trigger::Voice => 6.0,
        Trigger::Manual => 7.0,
    };
    let n_notify = rule
        .actions
        .iter()
        .filter(|a| matches!(a, Action::Notify | Action::Snapshot { .. }))
        .count() as f32;
    let actuated = rule.actuated_devices();
    let n_channels: usize = actuated.iter().map(|(d, _)| d.affects().len()).sum();
    vec![
        1.0,
        trigger_class,
        rule.trigger.channel().map_or(0.0, |c| c as u8 as f32 + 1.0),
        rule.conditions.len() as f32,
        rule.actions.len() as f32,
        actuated.len() as f32,
        n_notify,
        (n_channels as f32).sqrt(),
    ]
}

/// Scale/churn knobs. Defaults are the committed-benchmark shape; the CI
/// smoke stage runs the same config at `homes = 1_000`.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Simulated homes (tenants).
    pub homes: u64,
    /// Churn deltas after bootstrap (each one is a full ingest→verdict).
    pub deltas: u64,
    /// Rules deployed per home during bootstrap.
    pub bootstrap_rules: usize,
    /// A home at this size only sheds rules.
    pub max_rules_per_home: usize,
    /// Refresh dirty-home embeddings every this many churn deltas.
    pub refresh_every: u64,
    /// Persist the touched home's shard every this many churn deltas
    /// (0 disables persistence).
    pub persist_every: u64,
    /// Where shards go when `persist_every > 0`.
    pub shard_dir: Option<PathBuf>,
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            homes: 100_000,
            deltas: 20_000,
            bootstrap_rules: 3,
            max_rules_per_home: 8,
            refresh_every: 256,
            persist_every: 0,
            shard_dir: None,
            seed: 0x5ca1e,
        }
    }
}

/// One churn event: the step index and the delta it carries.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ChurnEvent {
    pub step: u64,
    pub delta: RuleDelta,
}

/// Streaming churn-event source. Emits the bootstrap adds (home-major),
/// then `deltas` Table-2-proportioned add/remove events. Same seed + config
/// ⇒ the identical event sequence, byte for byte.
pub struct ChurnGenerator {
    cfg: ChurnConfig,
    corpus: CorpusGenerator,
    rng: StdRng,
    /// home → live rule ids (sorted ascending by construction).
    live: BTreeMap<u64, Vec<u32>>,
    emitted: u64,
}

impl ChurnGenerator {
    pub fn new(cfg: ChurnConfig) -> Self {
        let corpus = CorpusGenerator::new(cfg.seed);
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        Self {
            cfg,
            corpus,
            rng,
            live: BTreeMap::new(),
            emitted: 0,
        }
    }

    /// Events in the bootstrap phase (all adds).
    pub fn bootstrap_len(&self) -> u64 {
        self.cfg.homes * self.cfg.bootstrap_rules as u64
    }

    /// Total events this generator will emit.
    pub fn total_len(&self) -> u64 {
        self.bootstrap_len() + self.cfg.deltas
    }

    /// Sample a platform at Table 2 proportions (IFTTT dominates at ~96%,
    /// exactly as in the paper's corpus).
    fn sample_platform(&mut self) -> Platform {
        let total: u64 = Platform::all()
            .iter()
            .map(|p| p.paper_rule_count() as u64)
            .sum();
        let mut pick = self.rng.gen_range(0..total);
        for &p in Platform::all() {
            let w = p.paper_rule_count() as u64;
            if pick < w {
                return p;
            }
            pick -= w;
        }
        Platform::Ifttt
    }

    fn next_add(&mut self, home: u64) -> RuleDelta {
        let platform = self.sample_platform();
        let rule = self.corpus.rule_for(platform);
        self.live.entry(home).or_default().push(rule.id.0);
        RuleDelta {
            home,
            change: RuleChange::Add(rule),
        }
    }

    fn next_remove(&mut self, home: u64) -> Option<RuleDelta> {
        let ids = self.live.get_mut(&home)?;
        if ids.is_empty() {
            return None;
        }
        let at = self.rng.gen_range(0..ids.len());
        let id = ids.remove(at);
        Some(RuleDelta {
            home,
            change: RuleChange::Remove(RuleId(id)),
        })
    }
}

impl Iterator for ChurnGenerator {
    type Item = ChurnEvent;

    fn next(&mut self) -> Option<ChurnEvent> {
        if self.emitted >= self.total_len() {
            return None;
        }
        let step = self.emitted;
        let delta = if step < self.bootstrap_len() {
            // bootstrap: home-major round of adds
            let home = step / self.cfg.bootstrap_rules as u64;
            self.next_add(home)
        } else {
            // churn: pick a home; grow when small, shed when full
            let home = self.rng.gen_range(0..self.cfg.homes);
            let n_live = self.live.get(&home).map_or(0, Vec::len);
            let add = if n_live == 0 {
                true
            } else if n_live >= self.cfg.max_rules_per_home {
                false
            } else {
                self.rng.gen_bool(0.55)
            };
            if add {
                self.next_add(home)
            } else {
                match self.next_remove(home) {
                    Some(d) => d,
                    None => self.next_add(home),
                }
            }
        };
        self.emitted += 1;
        Some(ChurnEvent { step, delta })
    }
}

/// Collect the full event trace (small configs only — the trace holds every
/// generated rule). The determinism contract is on the serialized JSON of
/// this value.
pub fn churn_trace(cfg: ChurnConfig) -> Vec<ChurnEvent> {
    ChurnGenerator::new(cfg).collect()
}

/// Reproducible work counters for one harness run. Serialized into
/// `BENCH_scale.json`; same seed + config ⇒ the identical counter set.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ScaleCounters {
    pub homes: u64,
    pub bootstrap_deltas: u64,
    pub churn_deltas: u64,
    /// Verdicts returned on the ingest path (one per churn delta).
    pub verdicts: u64,
    pub threats: u64,
    pub degraded_verdicts: u64,
    /// Ordered pairs re-mined across the run (vocabulary-neighborhood
    /// scoped).
    pub remined_pairs: u64,
    /// Ordered pairs a from-scratch batch rebuild would have mined instead.
    pub full_mine_pairs: u64,
    /// Dirty home graphs re-embedded across all refreshes.
    pub reembedded: u64,
    /// Home graphs a full re-embed would have touched instead.
    pub full_reembed: u64,
    pub graphs_rebuilt: u64,
    pub shards_persisted: u64,
    /// Live rules across all homes at the end of the run.
    pub final_rules: u64,
    /// Largest live rule set of any single home.
    pub max_home_rules: u64,
}

/// The end-to-end churn harness: generator + incremental pipeline +
/// detector (+ optional sharded persistence), stepped one delta at a time
/// so the bench can time each ingest.
pub struct ChurnHarness {
    generator: ChurnGenerator,
    pipeline: IncrementalPipeline,
    detector: GlintDetector<Itgnn, Itgnn>,
    store: Option<ShardedStore>,
    counters: ScaleCounters,
    refresh_every: u64,
    persist_every: u64,
    churn_seen: u64,
    bootstrapped: bool,
}

impl ChurnHarness {
    /// Build the harness: tiny deterministic ITGNN models (8-d structural
    /// features, all platforms in the schema) and a drift detector fitted
    /// on a handful of warm-up graphs from the same generator seed.
    pub fn new(cfg: ChurnConfig) -> Result<Self, DeltaError> {
        let types: Vec<(Platform, usize)> = Platform::all()
            .iter()
            .map(|&p| (p, CHURN_FEATURE_DIM))
            .collect();
        let model_cfg = ItgnnConfig {
            hidden: 8,
            embed: 8,
            n_scales: 1,
            seed: cfg.seed,
            ..Default::default()
        };
        let classifier = Itgnn::new(&types, model_cfg.clone());
        let embedder = Itgnn::new(&types, model_cfg);
        // warm-up: a few homes' worth of rules from an identically seeded
        // generator provide the drift detector's reference distribution
        let warm_cfg = ChurnConfig {
            homes: 8,
            deltas: 0,
            shard_dir: None,
            persist_every: 0,
            ..cfg.clone()
        };
        let mut warm = IncrementalPipeline::new();
        for ev in ChurnGenerator::new(warm_cfg) {
            warm.apply(&ev.delta, &churn_features)?;
        }
        let warm_graphs: Vec<PreparedGraph> = warm
            .homes()
            .filter_map(|(_, s)| s.graph())
            .map(PreparedGraph::from_graph)
            .collect();
        let embeddings = ContrastiveTrainer::embed_all(&embedder, &warm_graphs);
        let labels = vec![0usize; warm_graphs.len()];
        let drift = DriftDetector::fit(&embeddings, &labels);
        let detector = GlintDetector::new(Vec::new(), classifier, embedder, drift);
        let store = match (&cfg.shard_dir, cfg.persist_every) {
            (Some(dir), n) if n > 0 => Some(ShardedStore::open_or_create(dir)?),
            _ => None,
        };
        let counters = ScaleCounters {
            homes: cfg.homes,
            ..ScaleCounters::default()
        };
        Ok(Self {
            refresh_every: cfg.refresh_every.max(1),
            persist_every: cfg.persist_every,
            generator: ChurnGenerator::new(cfg),
            pipeline: IncrementalPipeline::new(),
            detector,
            store,
            counters,
            churn_seen: 0,
            bootstrapped: false,
        })
    }

    pub fn counters(&self) -> &ScaleCounters {
        &self.counters
    }

    pub fn pipeline(&self) -> &IncrementalPipeline {
        &self.pipeline
    }

    /// Deltas remaining after bootstrap (for progress/timing loops).
    pub fn churn_len(&self) -> u64 {
        self.generator.total_len() - self.generator.bootstrap_len()
    }

    /// Apply all bootstrap adds (plain pipeline applies — the deployment
    /// backlog) and bring embeddings current with one refresh.
    pub fn bootstrap(&mut self) -> Result<(), DeltaError> {
        let n = self.generator.bootstrap_len();
        for _ in 0..n {
            let Some(ev) = self.generator.next() else {
                break;
            };
            self.pipeline.apply(&ev.delta, &churn_features)?;
            self.detector.apply_delta(&ev.delta);
            self.counters.bootstrap_deltas += 1;
        }
        self.pipeline.refresh(self.detector.embedder());
        self.bootstrapped = true;
        Ok(())
    }

    /// Run one churn delta through the full ingest→verdict path. Returns
    /// `false` when the generator is exhausted.
    pub fn tick(&mut self) -> Result<bool, DeltaError> {
        if !self.bootstrapped {
            self.bootstrap()?;
        }
        let Some(ev) = self.generator.next() else {
            return Ok(false);
        };
        let outcome = self
            .pipeline
            .ingest(&ev.delta, &mut self.detector, &churn_features)?;
        self.counters.churn_deltas += 1;
        self.counters.verdicts += 1;
        if outcome.detection.is_threat {
            self.counters.threats += 1;
        }
        if !matches!(outcome.detection.degradation, Degradation::None) {
            self.counters.degraded_verdicts += 1;
        }
        self.churn_seen += 1;
        if self.churn_seen.is_multiple_of(self.refresh_every) {
            self.pipeline.refresh(self.detector.embedder());
        }
        if let Some(store) = &mut self.store {
            if self.persist_every > 0 && self.churn_seen.is_multiple_of(self.persist_every) {
                self.pipeline.persist_home(store, ev.delta.home)?;
                self.counters.shards_persisted += 1;
            }
        }
        Ok(true)
    }

    /// Drain the generator (bootstrap + every churn delta), then finalize.
    pub fn run(&mut self) -> Result<ScaleCounters, DeltaError> {
        while self.tick()? {}
        Ok(self.finish())
    }

    /// Final refresh + counter rollup.
    pub fn finish(&mut self) -> ScaleCounters {
        self.pipeline.refresh(self.detector.embedder());
        let stats = self.pipeline.stats();
        self.counters.remined_pairs = stats.remined_pairs;
        self.counters.full_mine_pairs = stats.full_mine_pairs;
        self.counters.reembedded = stats.reembedded;
        self.counters.full_reembed = stats.full_reembed;
        self.counters.graphs_rebuilt = stats.graphs_rebuilt;
        self.counters.final_rules = self
            .pipeline
            .homes()
            .map(|(_, s)| s.rules().len() as u64)
            .sum();
        self.counters.max_home_rules = self
            .pipeline
            .homes()
            .map(|(_, s)| s.rules().len() as u64)
            .max()
            .unwrap_or(0);
        self.counters.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnConfig {
        ChurnConfig {
            homes: 24,
            deltas: 120,
            refresh_every: 16,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn trace_is_seed_deterministic() {
        let a = churn_trace(tiny());
        let b = churn_trace(tiny());
        assert_eq!(a, b);
        let c = churn_trace(ChurnConfig {
            seed: 0xdead,
            ..tiny()
        });
        assert_ne!(a, c, "different seed must vary the trace");
    }

    #[test]
    fn platform_mix_is_ifttt_dominated() {
        // Table 2: IFTTT is ~96.5% of the corpus
        let trace = churn_trace(ChurnConfig {
            homes: 200,
            deltas: 0,
            ..tiny()
        });
        let ifttt = trace
            .iter()
            .filter(
                |e| matches!(&e.delta.change, RuleChange::Add(r) if r.platform == Platform::Ifttt),
            )
            .count();
        let total = trace.len();
        assert!(
            ifttt as f64 / total as f64 > 0.85,
            "IFTTT share {ifttt}/{total} far from Table 2"
        );
    }

    #[test]
    fn harness_counters_reproducible_and_incremental_wins() {
        let mut h1 = ChurnHarness::new(tiny()).unwrap();
        let c1 = h1.run().unwrap();
        let mut h2 = ChurnHarness::new(tiny()).unwrap();
        let c2 = h2.run().unwrap();
        assert_eq!(c1, c2, "same seed must reproduce every counter");
        assert_eq!(c1.churn_deltas, 120);
        assert_eq!(c1.verdicts, c1.churn_deltas);
        // the scale ratchet: incremental work strictly below batch work
        assert!(c1.remined_pairs < c1.full_mine_pairs, "{c1:?}");
        assert!(c1.reembedded < c1.full_reembed, "{c1:?}");
    }

    #[test]
    fn removals_happen_and_homes_stay_bounded() {
        let cfg = ChurnConfig {
            homes: 6,
            deltas: 400,
            max_rules_per_home: 5,
            ..tiny()
        };
        let trace = churn_trace(cfg.clone());
        assert!(trace
            .iter()
            .any(|e| matches!(e.delta.change, RuleChange::Remove(_))));
        let mut h = ChurnHarness::new(cfg.clone()).unwrap();
        let c = h.run().unwrap();
        assert!(c.max_home_rules <= cfg.max_rules_per_home as u64);
    }
}
