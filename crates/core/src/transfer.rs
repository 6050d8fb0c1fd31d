//! Cross-domain graph transfer learning (§3.3.4 / Table 6).
//!
//! Protocol: train on the source domain; copy name-matching parameters into
//! a target-domain model; freeze the transferred early layers (they carry
//! the generic interaction features); fine-tune the rest on the target
//! domain; compare against training from scratch.

use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::GraphModel;
use glint_gnn::trainer::{ClassifierTrainer, TrainConfig};
use glint_ml::metrics::BinaryMetrics;

/// Outcome of one Table 6 row.
#[derive(Clone, Copy, Debug)]
pub struct TransferOutcome {
    /// Target-domain accuracy trained from scratch.
    pub no_transfer: BinaryMetrics,
    /// Target-domain accuracy with transferred + frozen early layers.
    pub with_transfer: BinaryMetrics,
    /// How many parameters were transferred by name.
    pub transferred_params: usize,
}

impl TransferOutcome {
    pub fn improvement(&self) -> f64 {
        self.with_transfer.accuracy - self.no_transfer.accuracy
    }
}

/// Run the full protocol.
///
/// * `scratch` — a fresh target-architecture model (evaluated as baseline);
/// * `transferred` — an identical fresh model that receives the source
///   parameters;
/// * `source_model` — trained on the source domain already;
/// * `freeze_prefixes` — parameter-name prefixes to freeze after transfer
///   (e.g. `["enc."]` to freeze the whole encoder, the paper's choice when
///   the target set is tiny; `["enc.l0"]` to freeze only the earliest layer
///   when the target set is large).
#[expect(
    clippy::too_many_arguments,
    reason = "the protocol's inputs are independent: three models, the freeze \
              list, two target splits and two schedules"
)]
pub fn run_transfer(
    scratch: &mut dyn GraphModel,
    transferred: &mut dyn GraphModel,
    source_model: &dyn GraphModel,
    freeze_prefixes: &[&str],
    target_train: &[PreparedGraph],
    target_test: &[PreparedGraph],
    scratch_config: TrainConfig,
    finetune_config: TrainConfig,
) -> TransferOutcome {
    // baseline: from scratch on the target domain
    let trainer = ClassifierTrainer::new(scratch_config);
    trainer.train(scratch, target_train);
    let no_transfer = ClassifierTrainer::evaluate(scratch, target_test);

    // transfer: copy matching parameters, freeze the early stack, fine-tune
    let transferred_params = transferred
        .params_mut()
        .copy_matching_from(source_model.params());
    for prefix in freeze_prefixes {
        transferred.params_mut().freeze_prefix(prefix);
    }
    let finetuner = ClassifierTrainer::new(finetune_config);
    finetuner.train(transferred, target_train);
    transferred.params_mut().unfreeze_all();
    let with_transfer = ClassifierTrainer::evaluate(transferred, target_test);

    TransferOutcome {
        no_transfer,
        with_transfer,
        transferred_params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_gnn::models::{GcnModel, ModelConfig};
    use glint_graph::graph::{EdgeKind, GraphLabel, Node};
    use glint_graph::InteractionGraph;
    use glint_rules::{Platform, RuleId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic domain: threat = cycle present; features carry a weak
    /// class-dependent shift so transfer has signal to move.
    fn domain(n: usize, seed: u64, dim: usize) -> Vec<PreparedGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let threat = i % 2 == 1;
                let size = 4 + (i % 3);
                let nodes: Vec<Node> = (0..size)
                    .map(|k| Node {
                        rule_id: RuleId(k as u32),
                        platform: Platform::Ifttt,
                        features: (0..dim)
                            .map(|_| rng.gen_range(-0.5f32..0.5) + if threat { 0.3 } else { -0.3 })
                            .collect(),
                    })
                    .collect();
                let mut g = InteractionGraph::new(nodes);
                for k in 0..size - 1 {
                    g.add_edge(k, k + 1, EdgeKind::ActionTrigger);
                }
                if threat {
                    g.add_edge(size - 1, 0, EdgeKind::ActionTrigger);
                }
                PreparedGraph::from_graph(&g.with_label(if threat {
                    GraphLabel::Threat
                } else {
                    GraphLabel::Normal
                }))
            })
            .collect()
    }

    #[test]
    fn transfer_moves_parameters_and_reports() {
        let source = domain(30, 1, 6);
        let target_train = domain(8, 2, 6);
        let target_test = domain(12, 3, 6);

        let cfg = ModelConfig {
            hidden: 16,
            embed: 16,
            seed: 5,
        };
        let mut source_model = GcnModel::new(6, cfg);
        ClassifierTrainer::new(TrainConfig {
            epochs: 20,
            ..Default::default()
        })
        .train(&mut source_model, &source);

        let mut scratch = GcnModel::new(
            6,
            ModelConfig {
                hidden: 16,
                embed: 16,
                seed: 6,
            },
        );
        let mut transferred = GcnModel::new(
            6,
            ModelConfig {
                hidden: 16,
                embed: 16,
                seed: 7,
            },
        );
        let outcome = run_transfer(
            &mut scratch,
            &mut transferred,
            &source_model,
            &["enc."],
            &target_train,
            &target_test,
            TrainConfig {
                epochs: 6,
                ..Default::default()
            },
            TrainConfig {
                epochs: 6,
                ..Default::default()
            },
        );
        assert!(outcome.transferred_params > 0);
        assert!(
            outcome.with_transfer.accuracy >= 0.5,
            "{:?}",
            outcome.with_transfer
        );
        // after run_transfer the model is unfrozen again
        assert_eq!(transferred.params().frozen_count(), 0);
    }

    #[test]
    fn transfer_helps_on_tiny_target_sets() {
        // with only 6 target graphs, the transferred encoder should not hurt
        let source = domain(40, 11, 6);
        let target_train = domain(6, 12, 6);
        let target_test = domain(20, 13, 6);
        let mut source_model = GcnModel::new(
            6,
            ModelConfig {
                hidden: 16,
                embed: 16,
                seed: 8,
            },
        );
        ClassifierTrainer::new(TrainConfig {
            epochs: 25,
            ..Default::default()
        })
        .train(&mut source_model, &source);
        let mut scratch = GcnModel::new(
            6,
            ModelConfig {
                hidden: 16,
                embed: 16,
                seed: 9,
            },
        );
        let mut transferred = GcnModel::new(
            6,
            ModelConfig {
                hidden: 16,
                embed: 16,
                seed: 9,
            },
        );
        let outcome = run_transfer(
            &mut scratch,
            &mut transferred,
            &source_model,
            &["enc."],
            &target_train,
            &target_test,
            TrainConfig {
                epochs: 5,
                ..Default::default()
            },
            TrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        assert!(
            outcome.improvement() > -0.15,
            "transfer badly hurt: {:?} vs {:?}",
            outcome.with_transfer,
            outcome.no_transfer
        );
    }
}
