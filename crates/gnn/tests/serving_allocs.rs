//! Serving passes build no tape: matrix allocations and pool misses of
//! every model's tape-free forward, counted with tracing on.
//!
//! A forward pass that records onto a tape allocates every activation it
//! produces, so it shows up here as hundreds of `tensor.alloc.matrices`
//! per pass. After one warm-up call the pooled executor serves every
//! activation from recycled buffers: no pool misses for any model, and
//! matrix allocations only where the model copies its input
//! (`PreparedGraph::homo_features`, one per pass).
//!
//! The trace registry is process-global, so this binary holds a single
//! test and runs in its own process.

use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::{
    GcnModel, GinModel, GraphModel, GxnModel, HgslModel, InfoGraphModel, Itgnn, ItgnnConfig,
    MagcnModel, MagxnModel, ModelConfig,
};
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer};
use glint_graph::graph::{EdgeKind, Node};
use glint_graph::InteractionGraph;
use glint_rules::{Platform, RuleId};

const DIM: usize = 4;
const CALLS: usize = 10;

/// A fixed 7-node graph: a path plus two chords, node `i` on
/// `platforms[i % len]`.
fn graph(platforms: &[Platform]) -> PreparedGraph {
    let nodes: Vec<Node> = (0..7usize)
        .map(|i| Node {
            rule_id: RuleId(i as u32),
            platform: platforms[i % platforms.len()],
            features: (0..DIM)
                .map(|d| ((i * 31 + d * 7) % 97) as f32 / 97.0 - 0.5)
                .collect(),
        })
        .collect();
    let mut g = InteractionGraph::new(nodes);
    for (u, v) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 0),
        (2, 5),
    ] {
        g.add_edge(u, v, EdgeKind::ActionTrigger);
    }
    PreparedGraph::from_graph(&g)
}

/// `tensor.alloc.matrices` and `infer.pool.misses` over `CALLS` calls each
/// of `predict_proba` and `embed`, after one warm-up call of each.
fn serving_counts(model: &dyn GraphModel, g: &PreparedGraph) -> (u64, u64) {
    ClassifierTrainer::predict_proba(model, g);
    ContrastiveTrainer::embed(model, g);
    glint_trace::reset();
    for _ in 0..CALLS {
        ClassifierTrainer::predict_proba(model, g);
        ContrastiveTrainer::embed(model, g);
    }
    (
        glint_trace::counter_value("tensor.alloc.matrices"),
        glint_trace::counter_value("infer.pool.misses"),
    )
}

#[test]
fn serving_passes_allocate_only_their_inputs() {
    let homo = graph(&[Platform::Ifttt]);
    let hetero = graph(&[Platform::Ifttt, Platform::SmartThings]);
    let types = [
        (Platform::Ifttt, DIM),
        (Platform::SmartThings, DIM),
        (Platform::Alexa, DIM),
    ];
    let cfg = ModelConfig {
        hidden: 16,
        embed: 16,
        seed: 1,
    };
    let itgnn_cfg = ItgnnConfig {
        hidden: 16,
        embed: 16,
        ..Default::default()
    };
    let passes = 2 * CALLS as u64;
    // (label, model, graph, matrix allocations expected over all passes)
    let cases: Vec<(&str, Box<dyn GraphModel>, &PreparedGraph, u64)> = vec![
        (
            "ITGNN homogeneous",
            Box::new(Itgnn::homogeneous(Platform::Ifttt, DIM, itgnn_cfg.clone())),
            &homo,
            0,
        ),
        (
            "ITGNN heterogeneous",
            Box::new(Itgnn::new(&types, itgnn_cfg)),
            &hetero,
            0,
        ),
        ("GCN", Box::new(GcnModel::new(DIM, cfg)), &homo, passes),
        ("GIN", Box::new(GinModel::new(DIM, cfg)), &homo, passes),
        ("GXN", Box::new(GxnModel::new(DIM, cfg)), &homo, passes),
        (
            "InfoGraph",
            Box::new(InfoGraphModel::new(DIM, cfg)),
            &homo,
            passes,
        ),
        (
            "MAGCN",
            Box::new(MagcnModel::new(&types, 16, 16, 1)),
            &hetero,
            0,
        ),
        (
            "MAGXN",
            Box::new(MagxnModel::new(&types, 16, 16, 1)),
            &hetero,
            0,
        ),
        (
            "HGSL",
            Box::new(HgslModel::new(&types, 16, 16, 1)),
            &hetero,
            0,
        ),
    ];

    glint_trace::set_enabled(true);
    let measured: Vec<(&str, u64, u64)> = cases
        .iter()
        .map(|(label, model, g, _)| {
            let (allocs, misses) = serving_counts(&**model, g);
            (*label, allocs, misses)
        })
        .collect();
    glint_trace::set_enabled(false);

    let expected: Vec<(&str, u64, u64)> = cases
        .iter()
        .map(|(label, _, _, allocs)| (*label, *allocs, 0))
        .collect();
    assert_eq!(
        measured, expected,
        "(model, tensor.alloc.matrices, infer.pool.misses) over {passes} warm serving passes"
    );
}
