//! Training output pinned bit for bit.
//!
//! `infer_equiv.rs` compares forward *values*; nothing there notices a
//! forward pass that computes the same values through a different op
//! sequence on the tape. Such a change reorders how `backward` accumulates
//! gradients, and the trained parameters drift in their last bits. This
//! test trains three small models for two classifier epochs and two
//! contrastive epochs on a fixed dataset and checks a checksum of every
//! parameter's `f32::to_bits` against a recorded value.
//!
//! The models cover every training-only term a forward pass records:
//! a two-scale heterogeneous ITGNN (metapath attention plus VIPool's
//! infomax loss), GXN (VIPool on a homogeneous graph) and InfoGraph (the
//! local/global mutual-information loss). A deliberate change to training
//! arithmetic re-records the constants with `GLINT_PRINT_TRAIN_BITS=1`.

use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::{GraphModel, GxnModel, InfoGraphModel, Itgnn, ItgnnConfig, ModelConfig};
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer, TrainConfig};
use glint_graph::graph::{EdgeKind, GraphLabel, Node};
use glint_graph::InteractionGraph;
use glint_rules::{Platform, RuleId};

const DIM: usize = 4;

/// Twelve labelled graphs of 3-8 nodes; threats close a cycle. Node `i`
/// of graph `k` takes platform `platforms[i % len]`.
fn dataset(platforms: &[Platform]) -> Vec<PreparedGraph> {
    (0..12usize)
        .map(|k| {
            let n = 3 + k % 6;
            let nodes: Vec<Node> = (0..n)
                .map(|i| Node {
                    rule_id: RuleId(i as u32),
                    platform: platforms[i % platforms.len()],
                    features: (0..DIM)
                        .map(|d| ((k * 13 + i * 31 + d * 7) % 97) as f32 / 97.0 - 0.5)
                        .collect(),
                })
                .collect();
            let mut g = InteractionGraph::new(nodes);
            for i in 0..n - 1 {
                g.add_edge(i, i + 1, EdgeKind::ActionTrigger);
            }
            let threat = k % 3 == 0;
            if threat {
                g.add_edge(n - 1, 0, EdgeKind::ActionTrigger);
            }
            let label = if threat {
                GraphLabel::Threat
            } else {
                GraphLabel::Normal
            };
            PreparedGraph::from_graph(&g.with_label(label))
        })
        .collect()
}

/// FNV-1a over every parameter's name and value bits, in registration order.
fn checksum(model: &dyn GraphModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, m) in model.params().iter() {
        eat(name.as_bytes());
        for v in m.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Two classifier epochs, then two contrastive epochs; the checksum after.
fn train(model: &mut dyn GraphModel, data: &[PreparedGraph]) -> u64 {
    let cfg = TrainConfig {
        epochs: 2,
        seed: 5,
        ..Default::default()
    };
    ClassifierTrainer::new(cfg.clone()).train(model, data);
    ContrastiveTrainer::new(cfg).train(model, data);
    let sum = checksum(model);
    if std::env::var_os("GLINT_PRINT_TRAIN_BITS").is_some() {
        println!("{}: {sum:#018x}", model.name());
    }
    sum
}

#[test]
fn heterogeneous_two_scale_itgnn_trains_to_pinned_bits() {
    let data = dataset(&[Platform::Ifttt, Platform::SmartThings]);
    let mut model = Itgnn::new(
        &[(Platform::Ifttt, DIM), (Platform::SmartThings, DIM)],
        ItgnnConfig {
            hidden: 8,
            embed: 8,
            n_scales: 2,
            seed: 1,
            ..Default::default()
        },
    );
    assert_eq!(train(&mut model, &data), 0xa7f6_7cf5_586c_e9a0);
}

#[test]
fn gxn_trains_to_pinned_bits() {
    let data = dataset(&[Platform::Ifttt]);
    let cfg = ModelConfig {
        hidden: 8,
        embed: 8,
        seed: 2,
    };
    let mut model = GxnModel::new(DIM, cfg);
    assert_eq!(train(&mut model, &data), 0x6f29_c23b_9c5c_aa34);
}

#[test]
fn infograph_trains_to_pinned_bits() {
    let data = dataset(&[Platform::Ifttt]);
    let cfg = ModelConfig {
        hidden: 8,
        embed: 8,
        seed: 3,
    };
    let mut model = InfoGraphModel::new(DIM, cfg);
    assert_eq!(train(&mut model, &data), 0x8aae_f795_9e8b_b3c6);
}
