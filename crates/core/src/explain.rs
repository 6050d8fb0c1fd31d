//! Salient-node attribution for threat warnings (the Figure 3a red nodes).
//!
//! The paper points to PGExplainer/SubgraphX-style tools; this reproduction
//! uses deletion-based attribution, which needs no extra model: a node's
//! importance is how much the threat probability drops when the node is
//! removed from the graph.
//!
//! ## Cost
//!
//! Explaining an n-node graph takes one classifier forward per deletion.
//! [`top_causes_prepared`] takes the graph's prepared form and threat
//! probability from a caller that already scored it (the detector does),
//! so it runs the n deletion forwards alone; [`node_importance`] and
//! [`top_causes`] prepare and score the graph first, n + 1 forwards in all.
//! The deletions share two things:
//!
//! - **Preparation.** Each deletion is prepared straight from the graph by
//!   `PreparedGraph::without_node`; the smaller graph is never built.
//! - **Projection.** A model whose forward starts with a node-local stage
//!   (`GraphModel::project_infer`: ITGNN's per-platform projection) runs
//!   that stage once over the whole graph. Each deletion gathers its kept
//!   rows and runs the rest of the forward
//!   (`GraphModel::forward_infer_projected`). Other models run each
//!   deletion's full forward.
//!
//! Neither changes a bit of a score. A projected row is its node's feature
//! row times its platform's weight, accumulated from +0.0 and scattered
//! into place from +0.0, so it does not depend on which other nodes the
//! graph holds. `without_node` equals `from_graph` of the reduced graph
//! field for field.

use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::GraphModel;
use glint_gnn::trainer::ClassifierTrainer;
use glint_graph::InteractionGraph;

/// Per-node importance scores for the threat prediction, descending.
pub fn node_importance(model: &dyn GraphModel, g: &InteractionGraph) -> Vec<(usize, f64)> {
    let prepared = PreparedGraph::from_graph(g);
    let p = ClassifierTrainer::predict_proba(model, &prepared);
    node_importance_prepared(model, g, &prepared, p)
}

/// [`node_importance`] past the scoring of `g` itself (see
/// [`top_causes_prepared`]).
fn node_importance_prepared(
    model: &dyn GraphModel,
    g: &InteractionGraph,
    prepared: &PreparedGraph,
    p: f32,
) -> Vec<(usize, f64)> {
    let n = g.n_nodes();
    if n <= 1 {
        // deleting the only node leaves no graph to score
        return (0..n).map(|drop| (drop, 0.0)).collect();
    }
    let base = f64::from(p);
    let mut scores = glint_tensor::infer::with_ctx(|ctx| {
        let projected = model.project_infer(ctx, prepared);
        let mut keep = Vec::with_capacity(n);
        let scores: Vec<(usize, f64)> = (0..n)
            .map(|drop| {
                let reduced = PreparedGraph::without_node(g, drop);
                let out = match &projected {
                    Some(h) => {
                        keep.clear();
                        keep.extend((0..n).filter(|&i| i != drop));
                        let mut rows = ctx.acquire(keep.len(), h.cols());
                        h.gather_rows_into(&keep, &mut rows);
                        model.forward_infer_projected(ctx, &reduced, rows)
                    }
                    None => model.forward_infer(ctx, &reduced),
                };
                let p = ClassifierTrainer::threat_probability(ctx, out);
                (drop, base - f64::from(p))
            })
            .collect();
        if let Some(h) = projected {
            ctx.release(h);
        }
        scores
    });
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
    let prepared = PreparedGraph::from_graph(g);
    let p = ClassifierTrainer::predict_proba(model, &prepared);
    top_causes_prepared(model, g, &prepared, p, k)
}

/// [`top_causes`] of a graph the caller already scored: `prepared` is
/// `PreparedGraph::from_graph(g)` and `p` the model's threat probability on
/// it. Runs one forward per deletion and no other.
pub fn top_causes_prepared(
    model: &dyn GraphModel,
    g: &InteractionGraph,
    prepared: &PreparedGraph,
    p: f32,
    k: usize,
) -> Vec<usize> {
    node_importance_prepared(model, g, prepared, p)
        .into_iter()
        .take(k)
        .map(|(i, _)| i)
        .collect()
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
