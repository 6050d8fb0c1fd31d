//! Bitwise equivalence of the tape-free inference fast path.
//!
//! The serving contract is strict: `forward_infer` must produce the *same
//! bits* as a tape forward — not merely close values — at any
//! `GLINT_THREADS` setting. These properties are what licenses the
//! detector to skip tape construction entirely when assessing.

use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::{
    GcnModel, GinModel, GraphModel, GxnModel, HgslModel, InfoGraphModel, Itgnn, ItgnnConfig,
    MagcnModel, MagxnModel, ModelConfig,
};
use glint_gnn::trainer::ClassifierTrainer;
use glint_graph::graph::{EdgeKind, Node};
use glint_graph::InteractionGraph;
use glint_rules::{Platform, RuleId};
use glint_tensor::{par, InferCtx, Tape};
use proptest::prelude::*;

const DIM: usize = 4;

/// Deterministic pseudo-random node features (no RNG in tests: the seed is
/// part of the proptest case).
fn feat(seed: u64, node: usize, d: usize) -> f32 {
    (((seed as usize).wrapping_add(node * 31 + d * 7) % 97) as f32) / 97.0 - 0.5
}

fn build_graph(
    n: usize,
    raw_edges: &[(usize, usize)],
    seed: u64,
    platforms: &[Platform],
) -> InteractionGraph {
    let nodes: Vec<Node> = (0..n)
        .map(|i| Node {
            rule_id: RuleId(i as u32),
            platform: platforms[i % platforms.len()],
            features: (0..DIM).map(|d| feat(seed, i, d)).collect(),
        })
        .collect();
    let mut g = InteractionGraph::new(nodes);
    for &(u, v) in raw_edges {
        if u % n != v % n {
            g.add_edge(u % n, v % n, EdgeKind::ActionTrigger);
        }
    }
    g
}

fn graph_strategy(platforms: &'static [Platform]) -> impl Strategy<Value = InteractionGraph> {
    (
        2usize..7,
        proptest::collection::vec((0usize..7, 0usize..7), 1..10),
        0u64..1000,
    )
        .prop_map(move |(n, edges, seed)| build_graph(n, &edges, seed, platforms))
}

/// Tape forward → (embedding bits, logits bits).
fn tape_bits(model: &dyn GraphModel, g: &PreparedGraph) -> (Vec<u32>, Vec<u32>) {
    let mut tape = Tape::new();
    let vars = model.params().bind(&mut tape);
    let out = model.forward(&mut tape, &vars, g);
    (
        tape.value(out.embedding)
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        tape.value(out.logits)
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    )
}

/// Tape-free forward → (embedding bits, logits bits).
fn infer_bits(model: &dyn GraphModel, g: &PreparedGraph) -> (Vec<u32>, Vec<u32>) {
    let mut ctx = InferCtx::new();
    let out = model.forward_infer(&mut ctx, g);
    (
        out.embedding.data().iter().map(|v| v.to_bits()).collect(),
        out.logits.data().iter().map(|v| v.to_bits()).collect(),
    )
}

fn itgnn_cfg() -> ItgnnConfig {
    ItgnnConfig {
        hidden: 8,
        embed: 8,
        n_scales: 2,
        ..Default::default()
    }
}

/// One ITGNN configuration per Figure 7 axis, each off its default.
fn ablation_axes() -> Vec<(&'static str, ItgnnConfig)> {
    let base = itgnn_cfg();
    vec![
        (
            "disable_intra",
            ItgnnConfig {
                disable_intra: true,
                ..base.clone()
            },
        ),
        (
            "disable_inter",
            ItgnnConfig {
                disable_inter: true,
                ..base.clone()
            },
        ),
        (
            "disable_intra + disable_inter",
            ItgnnConfig {
                disable_intra: true,
                disable_inter: true,
                ..base.clone()
            },
        ),
        (
            "n_scales 1",
            ItgnnConfig {
                n_scales: 1,
                ..base.clone()
            },
        ),
        (
            "pool_ratio 1.0",
            ItgnnConfig {
                pool_ratio: 1.0,
                ..base.clone()
            },
        ),
        (
            "unbounded embedding",
            ItgnnConfig {
                bounded_embedding: false,
                ..base
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Homogeneous model zoo: tape forward and tape-free forward agree
    /// bit for bit on embedding and logits.
    #[test]
    fn tape_free_forward_is_bitwise_identical_homo(g in graph_strategy(&[Platform::Ifttt])) {
        let p = PreparedGraph::from_graph(&g);
        let cfg = ModelConfig { hidden: 8, embed: 8, seed: 3 };
        let models: Vec<Box<dyn GraphModel>> = vec![
            Box::new(GcnModel::new(DIM, cfg)),
            Box::new(GinModel::new(DIM, cfg)),
            Box::new(Itgnn::homogeneous(Platform::Ifttt, DIM, itgnn_cfg())),
        ];
        for model in &models {
            prop_assert_eq!(
                tape_bits(&**model, &p),
                infer_bits(&**model, &p),
                "{} tape vs tape-free",
                model.name()
            );
        }
    }

    /// Heterogeneous ITGNN (per-platform projections, metapath attention,
    /// VIPool coarsening): still bitwise-identical.
    #[test]
    fn tape_free_forward_is_bitwise_identical_hetero(
        g in graph_strategy(&[Platform::Ifttt, Platform::SmartThings])
    ) {
        let p = PreparedGraph::from_graph(&g);
        let model = Itgnn::new(
            &[(Platform::Ifttt, DIM), (Platform::SmartThings, DIM)],
            itgnn_cfg(),
        );
        prop_assert_eq!(tape_bits(&model, &p), infer_bits(&model, &p));
    }

    /// The baselines with training-only terms or a metapath front end:
    /// GXN (VIPool) and InfoGraph (mutual-information loss) on homogeneous
    /// graphs.
    #[test]
    fn baselines_are_bitwise_identical_homo(g in graph_strategy(&[Platform::Ifttt])) {
        let p = PreparedGraph::from_graph(&g);
        let cfg = ModelConfig { hidden: 8, embed: 8, seed: 9 };
        let models: Vec<Box<dyn GraphModel>> = vec![
            Box::new(GxnModel::new(DIM, cfg)),
            Box::new(InfoGraphModel::new(DIM, cfg)),
        ];
        for model in &models {
            prop_assert_eq!(
                tape_bits(&**model, &p),
                infer_bits(&**model, &p),
                "{} tape vs tape-free",
                model.name()
            );
        }
    }

    /// MAGCN, MAGXN and HGSL on heterogeneous graphs.
    #[test]
    fn baselines_are_bitwise_identical_hetero(
        g in graph_strategy(&[Platform::Ifttt, Platform::SmartThings])
    ) {
        let p = PreparedGraph::from_graph(&g);
        let types = [(Platform::Ifttt, DIM), (Platform::SmartThings, DIM)];
        let models: Vec<Box<dyn GraphModel>> = vec![
            Box::new(MagcnModel::new(&types, 8, 8, 5)),
            Box::new(MagxnModel::new(&types, 8, 8, 6)),
            Box::new(HgslModel::new(&types, 8, 8, 7)),
        ];
        for model in &models {
            prop_assert_eq!(
                tape_bits(&**model, &p),
                infer_bits(&**model, &p),
                "{} tape vs tape-free",
                model.name()
            );
        }
    }

    /// Every Figure 7 ablation axis the ITGNN body branches on.
    #[test]
    fn itgnn_ablation_axes_are_bitwise_identical(
        g in graph_strategy(&[Platform::Ifttt, Platform::SmartThings])
    ) {
        let p = PreparedGraph::from_graph(&g);
        let types = [(Platform::Ifttt, DIM), (Platform::SmartThings, DIM)];
        for (axis, cfg) in ablation_axes() {
            let model = Itgnn::new(&types, cfg);
            prop_assert_eq!(tape_bits(&model, &p), infer_bits(&model, &p), "{}", axis);
        }
    }

    /// The explainer's path: project the whole graph once, then score each
    /// deletion from the kept rows of that projection. Every deletion must
    /// give the bits of a plain forward over the reduced graph, on every
    /// ablation axis and with the sole node of a platform deleted.
    #[test]
    fn projected_deletions_are_bitwise_identical(
        g in graph_strategy(&[Platform::Ifttt, Platform::SmartThings])
    ) {
        let base = PreparedGraph::from_graph(&g);
        let types = [(Platform::Ifttt, DIM), (Platform::SmartThings, DIM)];
        let n = g.n_nodes();
        for (axis, cfg) in ablation_axes().into_iter().chain([("default", itgnn_cfg())]) {
            let model = Itgnn::new(&types, cfg);
            let mut ctx = InferCtx::new();
            let h = model
                .project_infer(&mut ctx, &base)
                .expect("ITGNN has a node-local stage");
            for drop in 0..n {
                let reduced = PreparedGraph::without_node(&g, drop);
                let keep: Vec<usize> = (0..n).filter(|&i| i != drop).collect();
                let mut rows = ctx.acquire(keep.len(), h.cols());
                h.gather_rows_into(&keep, &mut rows);
                let out = model.forward_infer_projected(&mut ctx, &reduced, rows);
                let got = (
                    out.embedding.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    out.logits.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                );
                prop_assert_eq!(got, infer_bits(&model, &reduced), "{} drop {}", axis, drop);
            }
        }
    }

    /// A model without a node-local stage takes the default hooks: no
    /// projection, and `forward_infer_projected` is `forward_infer`.
    #[test]
    fn default_hooks_fall_back_to_forward_infer(g in graph_strategy(&[Platform::Ifttt])) {
        let p = PreparedGraph::from_graph(&g);
        let model = GcnModel::new(DIM, ModelConfig { hidden: 8, embed: 8, seed: 4 });
        let mut ctx = InferCtx::new();
        prop_assert!(model.project_infer(&mut ctx, &p).is_none());
        let unused = ctx.acquire(p.n, 8);
        let out = model.forward_infer_projected(&mut ctx, &p, unused);
        let got = (
            out.embedding.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out.logits.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        prop_assert_eq!(got, infer_bits(&model, &p));
    }

    /// The serving wrapper itself: `predict` (tape-free) agrees with the
    /// tape argmax on every graph.
    #[test]
    fn predict_matches_tape_argmax(g in graph_strategy(&[Platform::Ifttt])) {
        let p = PreparedGraph::from_graph(&g);
        let model = Itgnn::homogeneous(Platform::Ifttt, DIM, itgnn_cfg());
        let mut tape = Tape::new();
        let vars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &vars, &p);
        let tape_pred = tape.value(out.logits).argmax_rows()[0];
        prop_assert_eq!(ClassifierTrainer::predict(&model, &p), tape_pred);
    }
}

/// A graph big enough that the hidden-layer matmuls cross the parallel
/// dispatch threshold (`MIN_PAR_WORK`), so the 4-thread run genuinely fans
/// out instead of vacuously matching the serial path.
fn large_line_graph() -> InteractionGraph {
    let n = 400;
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    build_graph(n, &edges, 17, &[Platform::Ifttt])
}

#[test]
fn tape_free_forward_is_bitwise_identical_across_thread_counts() {
    let p = PreparedGraph::from_graph(&large_line_graph());
    let model = Itgnn::homogeneous(
        Platform::Ifttt,
        DIM,
        ItgnnConfig {
            hidden: 64,
            embed: 16,
            n_scales: 2,
            ..Default::default()
        },
    );
    let serial = par::with_threads(1, || infer_bits(&model, &p));
    let fanned = par::with_threads(4, || infer_bits(&model, &p));
    assert_eq!(serial, fanned, "GLINT_THREADS must not change serving bits");
    let taped = par::with_threads(4, || tape_bits(&model, &p));
    assert_eq!(serial, taped, "tape and tape-free must agree under fan-out");
}

/// Buffer-pool invariant: after a warm-up assessment, repeated serving on
/// the same thread reaches a steady state — the thread-local pool stops
/// growing (every acquire is a recycled buffer, no new allocations).
#[test]
fn thread_pool_stops_growing_after_warmup() {
    let graphs: Vec<PreparedGraph> = (0..4)
        .map(|k| {
            let edges: Vec<(usize, usize)> = (0..5usize).map(|i| (i, (i + k + 1) % 6)).collect();
            PreparedGraph::from_graph(&build_graph(6, &edges, k as u64, &[Platform::Ifttt]))
        })
        .collect();
    let model = Itgnn::homogeneous(Platform::Ifttt, DIM, itgnn_cfg());
    for g in &graphs {
        ClassifierTrainer::predict(&model, g);
        ClassifierTrainer::predict_proba(&model, g);
    }
    let warm = glint_tensor::infer::thread_pool_free_buffers();
    for _ in 0..25 {
        for g in &graphs {
            ClassifierTrainer::predict(&model, g);
            ClassifierTrainer::predict_proba(&model, g);
        }
    }
    let after = glint_tensor::infer::thread_pool_free_buffers();
    assert_eq!(
        warm, after,
        "steady-state serving must recycle, not grow, the activation pool"
    );
}
