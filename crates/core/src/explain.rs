//! Salient-node attribution for threat warnings (the Figure 3a red nodes).
//!
//! The paper points to PGExplainer/SubgraphX-style tools; this reproduction
//! uses deletion-based attribution, which needs no extra model: a node's
//! importance is how much the threat probability drops when the node is
//! removed from the graph.

use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::GraphModel;
use glint_gnn::trainer::ClassifierTrainer;
use glint_graph::InteractionGraph;

/// Per-node importance scores for the threat prediction, descending.
pub fn node_importance(model: &dyn GraphModel, g: &InteractionGraph) -> Vec<(usize, f64)> {
    let base = ClassifierTrainer::predict_proba(model, &PreparedGraph::from_graph(g)) as f64;
    let mut scores: Vec<(usize, f64)> = (0..g.n_nodes())
        .map(|drop| {
            if g.n_nodes() <= 1 {
                return (drop, 0.0);
            }
            let reduced = remove_node(g, drop);
            let p = ClassifierTrainer::predict_proba(model, &PreparedGraph::from_graph(&reduced))
                as f64;
            (drop, base - p)
        })
        .collect();
    rank_desc(&mut scores);
    scores
}

/// Sort `(node, importance)` pairs by descending importance under the IEEE
/// total order — deterministic even when a degenerate model yields NaN
/// importances (NaN ranks first, so broken attributions are visible rather
/// than panicking).
fn rank_desc(scores: &mut [(usize, f64)]) {
    scores.sort_by(|a, b| b.1.total_cmp(&a.1));
}

/// The top-k most influential nodes (the warning's "potential causes").
pub fn top_causes(model: &dyn GraphModel, g: &InteractionGraph, k: usize) -> Vec<usize> {
    node_importance(model, g)
        .into_iter()
        .take(k)
        .map(|(i, _)| i)
        .collect()
}

/// `g` without node `drop`: the nodes after it shift down by one, and the
/// edges touching it vanish.
fn remove_node(g: &InteractionGraph, drop: usize) -> InteractionGraph {
    let remap = |i: usize| (i != drop).then(|| i - usize::from(i > drop));
    let nodes = (0..g.n_nodes())
        .filter(|&i| i != drop)
        .map(|i| g.node(i).clone())
        .collect();
    let mut out = InteractionGraph::new(nodes);
    for &(u, v, kind) in g.edges() {
        if let (Some(nu), Some(nv)) = (remap(u), remap(v)) {
            out.add_edge(nu, nv, kind);
        }
    }
    out.label = g.label;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_graph::graph::{EdgeKind, GraphLabel, Node};
    use glint_rules::{Platform, RuleId};

    fn graph(n: usize) -> InteractionGraph {
        let nodes: Vec<Node> = (0..n)
            .map(|i| Node {
                rule_id: RuleId(i as u32),
                platform: Platform::Ifttt,
                features: vec![i as f32 * 0.1 + 0.1; 4],
            })
            .collect();
        let mut g = InteractionGraph::new(nodes);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, EdgeKind::ActionTrigger);
        }
        g.with_label(GraphLabel::Threat)
    }

    #[test]
    fn remove_node_rewires_edges() {
        let g = graph(4);
        let r = remove_node(&g, 1);
        assert_eq!(r.n_nodes(), 3);
        // edges 0→1 and 1→2 vanish; 2→3 becomes 1→2 in the new indexing
        assert_eq!(r.n_edges(), 1);
        assert_eq!(r.edges()[0].0, 1);
        assert_eq!(r.edges()[0].1, 2);

        // a 5-chain plus back, skip and shared-device edges of every kind
        use EdgeKind::{ActionCondition as Ac, ActionTrigger as At, SharedDevice as Sd};
        let mut g = graph(5);
        for (u, v, kind) in [(4, 0, Ac), (0, 2, Sd), (2, 0, Sd), (3, 1, Ac)] {
            g.add_edge(u, v, kind);
        }
        // dropping the first, a middle and the last node
        let expected = [
            (0, vec![(0, 1, At), (1, 2, At), (2, 3, At), (2, 0, Ac)]),
            (2, vec![(0, 1, At), (2, 3, At), (3, 0, Ac), (2, 1, Ac)]),
            (
                4,
                vec![
                    (0, 1, At),
                    (1, 2, At),
                    (2, 3, At),
                    (0, 2, Sd),
                    (2, 0, Sd),
                    (3, 1, Ac),
                ],
            ),
        ];
        for (drop, edges) in expected {
            let r = remove_node(&g, drop);
            assert_eq!(r.edges(), edges, "drop {drop}");
            let kept: Vec<u32> = r.nodes().iter().map(|n| n.rule_id.0).collect();
            let want: Vec<u32> = (0..5).filter(|&i| i != drop as u32).collect();
            assert_eq!(kept, want, "drop {drop}");
            assert_eq!(r.label, g.label);
        }
    }

    #[test]
    fn importance_is_a_permutation_of_nodes() {
        use glint_gnn::models::{GcnModel, ModelConfig};
        let g = graph(5);
        let model = GcnModel::new(
            4,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 1,
            },
        );
        let imp = node_importance(&model, &g);
        let mut idx: Vec<usize> = imp.iter().map(|(i, _)| *i).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
        let top = top_causes(&model, &g, 2);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn single_node_graph_scores_zero() {
        use glint_gnn::models::{GcnModel, ModelConfig};
        let g = graph(1);
        let model = GcnModel::new(
            4,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 2,
            },
        );
        let imp = node_importance(&model, &g);
        assert_eq!(imp, vec![(0, 0.0)]);
    }

    #[test]
    fn rank_desc_is_total_on_nan_importances() {
        let mut scores = vec![(0, 0.5), (1, f64::NAN), (2, 0.9), (3, f64::NEG_INFINITY)];
        rank_desc(&mut scores);
        // NaN outranks +inf under total_cmp, so a broken attribution surfaces
        // at the top of the cause list instead of panicking the sort.
        assert_eq!(
            scores.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2, 0, 3]
        );
    }
}
