//! Offline dataset construction (§3.2.2 / §4.2): render rules, embed their
//! text, chain correlated rules into interaction graphs, and label each
//! graph with the policy oracle.

use crate::oracle;
use glint_graph::builder::GraphBuilder;
use glint_graph::{GraphDataset, GraphLabel, InteractionGraph};
use glint_nlp::EmbeddingSpace;
use glint_rules::{render::render_rule, Platform, Rule};
use std::collections::BTreeMap;

/// Node features for a rule: the averaged word embedding of its rendered
/// description — 512-d sentence embeddings for voice platforms, 300-d word
/// embeddings otherwise (§4.2).
pub fn node_features(rule: &Rule) -> Vec<f32> {
    let text = render_rule(rule);
    let tokens = glint_nlp::tokenize(&text);
    if rule.platform.is_voice() {
        EmbeddingSpace::sentence_space().rule_embedding(&tokens)
    } else {
        EmbeddingSpace::word_space().rule_embedding(&tokens)
    }
}

/// A labeled + unlabeled dataset pair for one platform mix.
#[derive(Clone, Debug, Default)]
pub struct DatasetBundle {
    pub labeled: GraphDataset,
    pub unlabeled: GraphDataset,
}

impl DatasetBundle {
    /// Fraction of labeled graphs that are vulnerable.
    pub fn unsafe_fraction(&self) -> f64 {
        let stats = self.labeled.class_stats();
        if stats.total() == 0 {
            0.0
        } else {
            stats.threat as f64 / stats.total() as f64
        }
    }
}

/// Offline builder: owns the corpus and the correlation index.
pub struct OfflineBuilder {
    rules: Vec<Rule>,
    seed: u64,
}

impl OfflineBuilder {
    pub fn new(rules: Vec<Rule>, seed: u64) -> Self {
        Self { rules, seed }
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Label an interaction graph with the oracle (by looking up its rules).
    pub fn label_graph(&self, g: &InteractionGraph) -> GraphLabel {
        let by_id: BTreeMap<u32, &Rule> = self.rules.iter().map(|r| (r.id.0, r)).collect();
        let members: Vec<&Rule> = g
            .nodes()
            .iter()
            .filter_map(|n| by_id.get(&n.rule_id.0).copied())
            .collect();
        if oracle::is_vulnerable(&members) {
            GraphLabel::Threat
        } else {
            GraphLabel::Normal
        }
    }

    /// Build `n_graphs` interaction graphs over rules of the given platforms
    /// (node count 2–`max_nodes`), labeled by the oracle when `label` is set.
    pub fn build_dataset(
        &self,
        platforms: &[Platform],
        n_graphs: usize,
        max_nodes: usize,
        label: bool,
    ) -> GraphDataset {
        let pool: Vec<Rule> = self
            .rules
            .iter()
            .filter(|r| platforms.contains(&r.platform))
            .cloned()
            .collect();
        assert!(!pool.is_empty(), "no rules for {platforms:?}");
        let mut builder = GraphBuilder::new(&pool, self.seed);
        let mut ds = GraphDataset::new();
        for _ in 0..n_graphs {
            let mut g = builder.sample_graph(2, max_nodes.max(2), &node_features);
            if label {
                g.label = Some(self.label_graph(&g));
            }
            ds.push(g);
        }
        ds
    }

    /// The paper's three dataset families (Table 3), scaled by `scale`:
    /// labeled IFTTT (6,000), labeled SmartThings (165), labeled
    /// heterogeneous over IFTTT+SmartThings+Alexa (12,758), plus unlabeled
    /// pools (10,000 IFTTT / 19,440 five-platform).
    pub fn table3_bundles(&self, scale: f64) -> Table3 {
        let n = |full: usize| ((full as f64 * scale).round() as usize).max(24);
        let max_nodes = 12; // paper: 2–50; scaled for CPU budgets
        Table3 {
            ifttt: DatasetBundle {
                labeled: self.build_dataset(&[Platform::Ifttt], n(6000), max_nodes, true),
                unlabeled: self.build_dataset(&[Platform::Ifttt], n(10_000), max_nodes, false),
            },
            smartthings: DatasetBundle {
                labeled: self.build_dataset(&[Platform::SmartThings], n(165), max_nodes, true),
                unlabeled: GraphDataset::new(),
            },
            hetero: DatasetBundle {
                labeled: self.build_dataset(
                    &[Platform::Ifttt, Platform::SmartThings, Platform::Alexa],
                    n(12_758),
                    max_nodes,
                    true,
                ),
                unlabeled: self.build_dataset(
                    &[
                        Platform::Ifttt,
                        Platform::SmartThings,
                        Platform::Alexa,
                        Platform::GoogleAssistant,
                        Platform::HomeAssistant,
                    ],
                    n(19_440),
                    max_nodes,
                    false,
                ),
            },
        }
    }
}

/// The three Table 3 dataset families.
pub struct Table3 {
    pub ifttt: DatasetBundle,
    pub smartthings: DatasetBundle,
    pub hetero: DatasetBundle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_rules::{CorpusConfig, CorpusGenerator};

    fn small_corpus() -> Vec<Rule> {
        let cfg = CorpusConfig {
            scale: 0.0005,
            per_platform_cap: 160,
            seed: 21,
        };
        CorpusGenerator::generate_corpus(&cfg)
    }

    #[test]
    fn node_features_dims_by_platform() {
        let rules = glint_rules::scenarios::table1_rules();
        for r in &rules {
            let f = node_features(r);
            if r.platform.is_voice() {
                assert_eq!(f.len(), 512);
            } else {
                assert_eq!(f.len(), 300);
            }
        }
    }

    #[test]
    fn datasets_have_both_classes() {
        let builder = OfflineBuilder::new(small_corpus(), 1);
        let ds = builder.build_dataset(&[Platform::Ifttt], 60, 8, true);
        let stats = ds.class_stats();
        assert_eq!(stats.total(), 60);
        assert!(stats.threat > 0, "no vulnerable graphs sampled");
        assert!(stats.normal > 0, "no normal graphs sampled");
    }

    #[test]
    fn hetero_dataset_mixes_platforms_and_dims() {
        let builder = OfflineBuilder::new(small_corpus(), 2);
        let ds = builder.build_dataset(
            &[Platform::Ifttt, Platform::Alexa, Platform::SmartThings],
            40,
            8,
            true,
        );
        let hetero_graphs = ds.iter().filter(|g| g.is_heterogeneous()).count();
        assert!(hetero_graphs > 0, "no heterogeneous graphs in the mix");
    }

    #[test]
    fn unlabeled_pools_are_unlabeled() {
        let builder = OfflineBuilder::new(small_corpus(), 3);
        let ds = builder.build_dataset(&[Platform::Ifttt], 20, 6, false);
        assert!(ds.iter().all(|g| g.label.is_none()));
    }

    #[test]
    fn label_matches_direct_oracle_call() {
        let builder = OfflineBuilder::new(glint_rules::scenarios::table1_rules(), 4);
        let ds = builder.build_dataset(Platform::all(), 10, 9, true);
        // Table 1 rules contain known threats; at least one sampled graph
        // must be vulnerable
        assert!(ds.class_stats().threat > 0);
    }
}
