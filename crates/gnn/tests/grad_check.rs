//! Property-based gradient checks for the GNN layer zoo: VIPool, TAG
//! propagation, and the metapath transform, swept over random shapes and
//! seeds against central finite differences.
//!
//! Tolerances: central differences in f32 carry O(h²) truncation error plus
//! O(ε/h) cancellation error, which bottoms out around 1e-3 relative — so
//! the checks accept an element when its absolute *or* relative error
//! clears 5e-3 (see `CheckReport::ok`). Gradients that are wrong in kind
//! (dropped terms, transposed factors, missing chain-rule links) miss by
//! orders of magnitude, so this still catches every structural bug.
//!
//! Non-differentiable pieces are pinned, not averaged over: VIPool's top-k
//! selection is checked through its smooth surrogates (the infomax loss,
//! which bypasses selection, and the gated output at ratio 1.0, where the
//! kept set cannot change under perturbation), and the negative-sample
//! shuffle seed is fixed per case so analytic and numeric passes see the
//! same pairing.

use glint_gnn::batch::PreparedGraph;
use glint_gnn::layers::TagConv;
use glint_gnn::metapath::MetapathEncoder;
use glint_gnn::vipool::VIPool;
use glint_graph::graph::{EdgeKind, Node};
use glint_graph::InteractionGraph;
use glint_rules::{Platform, RuleId};
use glint_tensor::grad_check::{check_gradients, CheckReport};
use glint_tensor::optim::ParamId;
use glint_tensor::{init, Csr, Matrix, ParamSet, TapeExec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 5e-3;

/// Central-difference step: large enough to beat f32 round-off on losses of
/// magnitude ~1, small enough that curvature stays negligible.
const H: f32 = 1e-3;

fn assert_report(report: CheckReport, what: &str) {
    assert!(
        report.ok(TOL),
        "{what}: gradient check failed: {report:?} (worst = (input, elem, analytic, numeric))"
    );
}

/// Shapes of every parameter in registration order, for regenerating a
/// perturbed copy of the full parameter vector.
fn param_shapes(params: &ParamSet) -> Vec<(usize, usize)> {
    (0..params.len())
        .map(|i| {
            let m = params.get(ParamId(i));
            (m.rows(), m.cols())
        })
        .collect()
}

/// Overwrite every parameter with the matching matrix from `mats`.
fn overwrite_params(params: &mut ParamSet, mats: &[Matrix]) {
    assert_eq!(params.len(), mats.len());
    for (i, m) in mats.iter().enumerate() {
        *params.get_mut(ParamId(i)) = m.clone();
    }
}

/// A connected line graph with `extra` deterministic chords.
fn line_edges(n: usize, extra: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    for e in 0..extra {
        let u = (seed as usize + e * 7) % n;
        let v = (seed as usize + e * 13 + 1) % n;
        if u != v {
            edges.push((u, v));
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// TAG propagation: ŷ = Σ_i Â^i H W_i + b. Checked w.r.t. the input
    /// features AND every filter matrix at random shapes, hop counts, and
    /// graph topologies.
    #[test]
    fn tagconv_gradients_match_finite_differences(
        n in 2usize..7,
        in_dim in 2usize..5,
        out_dim in 2usize..4,
        k in 1usize..4,
        seed in 0u64..1000,
    ) {
        let edges = line_edges(n, n / 2, seed);
        let adj = Csr::normalized_adjacency(n, &edges);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa11ce);
        // learn the registration-order shapes from a throwaway instance
        let mut proto = ParamSet::new();
        TagConv::new(&mut proto, "tag", in_dim, out_dim, k, &mut rng);
        let mut inputs = vec![init::uniform(&mut rng, n, in_dim, 1.0)];
        inputs.extend(
            param_shapes(&proto)
                .iter()
                .map(|&(r, c)| init::uniform(&mut rng, r, c, 1.0)),
        );
        let report = check_gradients(&inputs, H, |tape, ins| {
            let mut params = ParamSet::new();
            let mut build_rng = StdRng::seed_from_u64(0);
            let layer = TagConv::new(&mut params, "tag", in_dim, out_dim, k, &mut build_rng);
            overwrite_params(&mut params, &ins[1..]);
            let vars = params.bind(tape);
            let h = tape.var(ins[0].clone());
            let out = layer.forward(&mut TapeExec::new(tape, &vars), &adj, &h);
            let act = tape.sigmoid(out); // curvature so W grads aren't constant
            let loss = tape.mean_all(act);
            let mut checked = vec![h];
            checked.extend(vars);
            (loss, checked)
        });
        assert_report(report, "TagConv");
    }

    /// VIPool's infomax objective (the `L_pool` summand of Eq. 2) is smooth
    /// in the features and all four scorer parameters — top-k selection
    /// never enters this loss.
    #[test]
    fn vipool_infomax_loss_gradients_match_finite_differences(
        n in 2usize..7,
        dim in 2usize..5,
        ratio in 0.3f32..1.0,
        seed in 0u64..1000,
    ) {
        let edges = line_edges(n, 1, seed);
        let adj_row = Csr::row_normalized(n, &edges);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
        let mut proto = ParamSet::new();
        VIPool::new(&mut proto, "pool", dim, ratio, &mut rng);
        let mut inputs = vec![init::uniform(&mut rng, n, dim, 1.0)];
        inputs.extend(
            param_shapes(&proto)
                .iter()
                .map(|&(r, c)| init::uniform(&mut rng, r, c, 1.0)),
        );
        let report = check_gradients(&inputs, H, |tape, ins| {
            let mut params = ParamSet::new();
            let mut build_rng = StdRng::seed_from_u64(0);
            let pool = VIPool::new(&mut params, "pool", dim, ratio, &mut build_rng);
            overwrite_params(&mut params, &ins[1..]);
            let vars = params.bind(tape);
            let h = tape.var(ins[0].clone());
            let out = pool.forward(&mut TapeExec::new(tape, &vars), &adj_row, &h, seed);
            let mut checked = vec![h];
            checked.extend(vars);
            (out.pool_loss.expect("the tape records the infomax loss"), checked)
        });
        assert_report(report, "VIPool infomax loss");
    }

    /// The gated pooled output at ratio 1.0: the kept set is all nodes, so
    /// the whole score→gate→output path is differentiable and the scorer
    /// parameters must receive correct task gradients through the gate.
    #[test]
    fn vipool_gated_output_gradients_match_finite_differences(
        n in 2usize..6,
        dim in 2usize..5,
        seed in 0u64..1000,
    ) {
        let edges = line_edges(n, 1, seed);
        let adj_row = Csr::row_normalized(n, &edges);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbead);
        let mut proto = ParamSet::new();
        VIPool::new(&mut proto, "pool", dim, 1.0, &mut rng);
        let mut inputs = vec![init::uniform(&mut rng, n, dim, 1.0)];
        inputs.extend(
            param_shapes(&proto)
                .iter()
                .map(|&(r, c)| init::uniform(&mut rng, r, c, 1.0)),
        );
        let report = check_gradients(&inputs, H, |tape, ins| {
            let mut params = ParamSet::new();
            let mut build_rng = StdRng::seed_from_u64(0);
            let pool = VIPool::new(&mut params, "pool", dim, 1.0, &mut build_rng);
            overwrite_params(&mut params, &ins[1..]);
            let vars = params.bind(tape);
            let h = tape.var(ins[0].clone());
            let out = pool.forward(&mut TapeExec::new(tape, &vars), &adj_row, &h, seed);
            let loss = tape.mean_all(out.h);
            let mut checked = vec![h];
            checked.extend(vars);
            (loss, checked)
        });
        assert_report(report, "VIPool gated output");
    }

    /// The metapath transform (projection + intra aggregation + attention
    /// fusion), checked w.r.t. every parameter on a random two-platform
    /// heterogeneous graph. Node features enter as constants, exactly as in
    /// the real model, so the projections are the first differentiable layer.
    #[test]
    fn metapath_gradients_match_finite_differences(
        n in 3usize..6,
        hidden in 2usize..6,
        seed in 0u64..1000,
    ) {
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let platform = if i % 2 == 0 { Platform::Ifttt } else { Platform::Alexa };
                let dim = if i % 2 == 0 { 2 } else { 3 };
                Node {
                    rule_id: RuleId(i as u32),
                    platform,
                    features: (0..dim)
                        .map(|d| (((seed as usize + i * 17 + d * 5) % 89) as f32) / 89.0 - 0.5)
                        .collect(),
                }
            })
            .collect();
        let mut g = InteractionGraph::new(nodes);
        for (u, v) in line_edges(n, 1, seed) {
            g.add_edge(u, v, EdgeKind::ActionTrigger);
        }
        let prepared = PreparedGraph::from_graph(&g);
        let types: Vec<(Platform, usize)> = prepared
            .by_type
            .iter()
            .map(|b| (b.platform, b.feats.cols()))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
        let mut proto = ParamSet::new();
        MetapathEncoder::new(&mut proto, "enc", &types, hidden, &mut rng);
        let inputs: Vec<Matrix> = param_shapes(&proto)
            .iter()
            .map(|&(r, c)| init::uniform(&mut rng, r, c, 1.0))
            .collect();
        let report = check_gradients(&inputs, H, |tape, ins| {
            let mut params = ParamSet::new();
            let mut build_rng = StdRng::seed_from_u64(0);
            let enc = MetapathEncoder::new(&mut params, "enc", &types, hidden, &mut build_rng);
            overwrite_params(&mut params, ins);
            let vars = params.bind(tape);
            let out = enc.forward(&mut TapeExec::new(tape, &vars), &prepared);
            let act = tape.sigmoid(out);
            let loss = tape.mean_all(act);
            (loss, vars)
        });
        assert_report(report, "MetapathEncoder");
    }
}

/// Deterministic spot-check kept outside proptest so a regression names the
/// exact failing configuration instead of a shrunken case.
#[test]
fn tagconv_reference_configuration_grad_checks() {
    let adj = Csr::normalized_adjacency(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let mut rng = StdRng::seed_from_u64(99);
    let mut proto = ParamSet::new();
    TagConv::new(&mut proto, "tag", 3, 2, 2, &mut rng);
    let mut inputs = vec![init::uniform(&mut rng, 5, 3, 1.0)];
    inputs.extend(
        param_shapes(&proto)
            .iter()
            .map(|&(r, c)| init::uniform(&mut rng, r, c, 1.0)),
    );
    let report = check_gradients(&inputs, H, |tape, ins| {
        let mut params = ParamSet::new();
        let mut build_rng = StdRng::seed_from_u64(0);
        let layer = TagConv::new(&mut params, "tag", 3, 2, 2, &mut build_rng);
        overwrite_params(&mut params, &ins[1..]);
        let vars = params.bind(tape);
        let h = tape.var(ins[0].clone());
        let out = layer.forward(&mut TapeExec::new(tape, &vars), &adj, &h);
        let act = tape.sigmoid(out);
        let loss = tape.mean_all(act);
        let mut checked = vec![h];
        checked.extend(vars);
        (loss, checked)
    });
    assert_report(report, "TagConv reference");
}
