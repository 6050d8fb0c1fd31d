//! MAGNN-style metapath-based node transformation (Algorithm 2, lines 1–13):
//! project per-type features into a shared space, aggregate intra-metapath
//! instances, and fuse metapaths with attention into homogeneous-type node
//! embeddings.

use crate::batch::PreparedGraph;
use glint_rules::Platform;
use glint_tensor::optim::ParamId;
use glint_tensor::{init, Exec, Matrix, ParamSet};
use rand::rngs::StdRng;

/// The encoder: per-platform projections + shared attention parameters.
#[derive(Clone, Debug)]
pub struct MetapathEncoder {
    /// (platform, W_A) node-feature projections into the shared space.
    projections: Vec<(Platform, ParamId)>,
    /// Attention transform M (hidden × att_dim) and bias.
    att_m: ParamId,
    att_b: ParamId,
    /// Attention vector q (1 × att_dim).
    att_q: ParamId,
    pub hidden: usize,
    /// When true, skip intra-metapath aggregation (ablation "intra" removed).
    pub disable_intra: bool,
    /// When true, replace attention fusion by uniform averaging (ablation
    /// "inter" removed).
    pub disable_inter: bool,
}

impl MetapathEncoder {
    pub fn new(
        params: &mut ParamSet,
        prefix: &str,
        types: &[(Platform, usize)],
        hidden: usize,
        rng: &mut StdRng,
    ) -> Self {
        let projections = types
            .iter()
            .map(|(p, dim)| {
                let id = params.add(
                    format!("{prefix}.proj.{}", p.name()),
                    init::xavier_uniform(rng, *dim, hidden),
                );
                (*p, id)
            })
            .collect();
        let att_dim = hidden.min(32);
        let att_m = params.add(
            format!("{prefix}.att.m"),
            init::xavier_uniform(rng, hidden, att_dim),
        );
        let att_b = params.add(format!("{prefix}.att.b"), Matrix::zeros(1, att_dim));
        let att_q = params.add(
            format!("{prefix}.att.q"),
            init::xavier_uniform(rng, 1, att_dim),
        );
        Self {
            projections,
            att_m,
            att_b,
            att_q,
            hidden,
            disable_intra: false,
            disable_inter: false,
        }
    }

    /// Project per-type features into the shared space and scatter them into
    /// an n × hidden matrix.
    pub fn project<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> X::T {
        let mut acc: Option<X::T> = None;
        for block in &g.by_type {
            let w = self
                .projections
                .iter()
                .find(|(p, _)| *p == block.platform)
                // glint-lint: allow(hot-panic) — a block with no projection is
                // a model-construction bug (projections cover every platform
                // at build time); the detector's degradation layer quarantines
                // the panic to the offending graph
                .unwrap_or_else(|| panic!("no projection for {:?}", block.platform))
                .1;
            let projected = x.input_matmul_w(&block.feats, w); // k × hidden
            let scattered = x.spmm(&block.select, &projected); // n × hidden
            x.release(projected);
            acc = Some(match acc {
                Some(a) => x.add(a, scattered),
                None => scattered,
            });
        }
        // glint-lint: allow(hot-unwrap) — PreparedGraph construction always
        // emits at least one type block for a non-empty graph, and empty
        // graphs are rejected before projection
        acc.expect("graph has at least one type block")
    }

    /// Full metapath-based node transformation: returns n × hidden
    /// homogeneous-type node embeddings (Algorithm 2 line 13's `G_m` features).
    pub fn forward<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> X::T {
        let h = self.project(x, g);
        self.aggregate(x, g, h)
    }

    /// The structure-dependent rest of [`forward`](Self::forward):
    /// intra-metapath averaging and inter-metapath fusion of `h`, the n ×
    /// hidden output of [`project`](Self::project) for `g`.
    pub(crate) fn aggregate<X: Exec>(&self, x: &mut X, g: &PreparedGraph, h: X::T) -> X::T {
        if self.disable_intra && self.disable_inter {
            // ablation "None": raw projected features only
            return h;
        }
        // intra-metapath aggregation: one summary per metapath
        let ops: Vec<&crate::batch::MetapathOp> = if self.disable_intra {
            // only identity paths (no instance averaging)
            g.metapath_ops
                .iter()
                .filter(|o| o.path.len() == 1)
                .collect()
        } else {
            g.metapath_ops.iter().collect()
        };
        if ops.is_empty() {
            return h;
        }
        let h_paths: Vec<X::T> = ops.iter().map(|op| x.spmm(&op.agg, &h)).collect();
        x.release(h);
        let weights = if self.disable_inter || h_paths.len() == 1 {
            // uniform fusion
            x.filled(1, h_paths.len(), 1.0 / h_paths.len() as f32)
        } else {
            // inter-metapath attention: s_p = mean_v sigmoid(M h_p^v + b)
            // over valid rows; β = softmax(q · s_p)
            let scores = x.row_of_sums(ops.iter().zip(&h_paths), |x, (op, hp)| {
                let valid = x.gather_rows(hp, &op.valid_rows);
                let sig = x.linear_sigmoid(&valid, self.att_m, self.att_b);
                x.release(valid);
                let s_p = x.mean_rows(&sig); // 1 × att_dim
                x.release(sig);
                x.mul_w(s_p, self.att_q)
            });
            x.softmax_rows(scores)
        };
        let out = x.weighted_sum(&h_paths, &weights);
        x.release(weights);
        for hp in h_paths {
            x.release(hp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_graph::graph::{EdgeKind, Node};
    use glint_graph::InteractionGraph;
    use glint_rules::RuleId;
    use glint_tensor::{Tape, TapeExec};
    use rand::SeedableRng;

    fn hetero_graph() -> PreparedGraph {
        let mut g = InteractionGraph::new(vec![
            Node {
                rule_id: RuleId(0),
                platform: Platform::Ifttt,
                features: vec![1.0, 0.0],
            },
            Node {
                rule_id: RuleId(1),
                platform: Platform::Alexa,
                features: vec![0.3, 0.6, 0.9],
            },
            Node {
                rule_id: RuleId(2),
                platform: Platform::Ifttt,
                features: vec![0.0, 1.0],
            },
        ]);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        g.add_edge(1, 2, EdgeKind::ActionTrigger);
        PreparedGraph::from_graph(&g)
    }

    fn encoder(g: &PreparedGraph) -> (ParamSet, MetapathEncoder) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let types: Vec<(Platform, usize)> = g
            .by_type
            .iter()
            .map(|b| (b.platform, b.feats.cols()))
            .collect();
        let enc = MetapathEncoder::new(&mut params, "enc", &types, 8, &mut rng);
        (params, enc)
    }

    #[test]
    fn projection_unifies_dimensions() {
        let g = hetero_graph();
        let (params, enc) = encoder(&g);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let h = enc.project(&mut TapeExec::new(&mut tape, &vars), &g);
        assert_eq!(tape.value(h).shape(), (3, 8));
        // every row is populated (non-zero with overwhelming probability)
        for r in 0..3 {
            let norm: f32 = tape.value(h).row(r).iter().map(|v| v * v).sum();
            assert!(norm > 1e-9, "row {r} empty after projection");
        }
    }

    #[test]
    fn forward_produces_homogeneous_embeddings() {
        let g = hetero_graph();
        let (params, enc) = encoder(&g);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let out = enc.forward(&mut TapeExec::new(&mut tape, &vars), &g);
        assert_eq!(tape.value(out).shape(), (3, 8));
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn ablations_change_the_output() {
        let g = hetero_graph();
        let (params, enc) = encoder(&g);
        let run = |enc: &MetapathEncoder| {
            let mut tape = Tape::new();
            let vars = params.bind(&mut tape);
            let out = enc.forward(&mut TapeExec::new(&mut tape, &vars), &g);
            tape.value(out).clone()
        };
        let full = run(&enc);
        let mut no_intra = enc.clone();
        no_intra.disable_intra = true;
        let mut no_both = enc.clone();
        no_both.disable_intra = true;
        no_both.disable_inter = true;
        assert!(
            full.sq_dist(&run(&no_intra)) > 1e-10,
            "intra ablation is a no-op"
        );
        assert!(
            full.sq_dist(&run(&no_both)) > 1e-10,
            "full ablation is a no-op"
        );
    }

    #[test]
    fn gradients_flow_to_projections() {
        let g = hetero_graph();
        let (params, enc) = encoder(&g);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let out = enc.forward(&mut TapeExec::new(&mut tape, &vars), &g);
        let loss = tape.mean_all(out);
        let grads = tape.backward(loss);
        for (p, id) in &enc.projections {
            let g = grads.get(vars[id.0]);
            assert!(g.is_some(), "no grad for projection of {p:?}");
            assert!(g.unwrap().norm() > 0.0, "zero grad for projection of {p:?}");
        }
    }
}
