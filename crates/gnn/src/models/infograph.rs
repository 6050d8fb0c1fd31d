//! InfoGraph (IFG) baseline: a GIN encoder trained to maximize mutual
//! information between node-level ("local") and graph-level ("global")
//! embeddings, DGI-style. The MI term appears as the auxiliary loss — a
//! bilinear discriminator scores true (node, graph) pairs against pairs with
//! corrupted (row-shuffled) node features.

use crate::batch::PreparedGraph;
use crate::layers::{readout_sum, Dense, GinLayer};
use crate::models::{GraphModel, InferOutput, ModelConfig, ModelOutput};
use glint_tensor::{init, Exec, InferCtx, InferExec, ParamSet, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

pub struct InfoGraphModel {
    params: ParamSet,
    l0: GinLayer,
    l1: GinLayer,
    /// Bilinear discriminator matrix (hidden × embed).
    disc: glint_tensor::ParamId,
    fuse: Dense,
    head: Dense,
    embed: usize,
}

impl InfoGraphModel {
    pub fn new(in_dim: usize, config: ModelConfig) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let l0 = GinLayer::new(&mut params, "enc.l0", in_dim, config.hidden, &mut rng);
        let l1 = GinLayer::new(
            &mut params,
            "enc.l1",
            config.hidden,
            config.hidden,
            &mut rng,
        );
        let disc = params.add(
            "enc.disc",
            init::xavier_uniform(&mut rng, config.hidden, config.embed),
        );
        let fuse = Dense::new(&mut params, "fuse", config.hidden, config.embed, &mut rng);
        let head = Dense::new(&mut params, "head", config.embed, 2, &mut rng);
        Self {
            params,
            l0,
            l1,
            disc,
            fuse,
            head,
            embed: config.embed,
        }
    }

    /// The forward pass, on either executor.
    fn run<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> ModelOutput<X::T> {
        let input = x.input(g.homo_features());
        let h0 = self.l0.forward(x, &g.adj_sum, &input);
        let a0 = x.relu(h0);
        let h1 = self.l1.forward(x, &g.adj_sum, &a0);
        x.release(a0);
        let local = x.relu(h1); // n × hidden
        let red = readout_sum(x, &local); // 1 × hidden
        let fused = self.fuse.forward(x, &red);
        x.release(red);
        let embedding = x.tanh(fused); // 1 × embed
        let aux_loss = x
            .taped([&local, &embedding])
            .and_then(|[local, embedding]| x.train_only(|t| self.mi_loss(t, local, embedding, g.n)))
            .flatten();
        x.release(local);
        let logits = self.head.forward(x, &embedding);
        ModelOutput {
            embedding,
            logits,
            aux_loss,
        }
    }

    /// The local/global mutual-information term, DGI-style: a bilinear
    /// discriminator `score_i = h_i · D · gᵀ` on true node rows against
    /// row-shuffled ones. Training only; `None` below two nodes.
    fn mi_loss(&self, t: &mut TapeExec<'_>, local: Var, embedding: Var, n: usize) -> Option<Var> {
        let disc = t.var(self.disc);
        let tape = &mut *t.tape;
        let g_t = tape.transpose(embedding); // embed × 1
        let dg = tape.matmul(disc, g_t); // hidden × 1
        let pos_logits = tape.matmul(local, dg); // n × 1

        // corrupted pairing: shuffle node rows
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(n as u64 * 31 + 7);
        perm.shuffle(&mut rng);
        if n >= 2 && perm.iter().enumerate().all(|(i, &p)| i == p) {
            perm.swap(0, 1);
        }
        let corrupted = tape.gather_rows(local, &perm);
        let neg_logits = tape.matmul(corrupted, dg);

        (n >= 2).then(|| {
            let pos = tape.bce_with_logits(pos_logits, &vec![1.0; n]);
            let neg = tape.bce_with_logits(neg_logits, &vec![0.0; n]);
            let sum = tape.add(pos, neg);
            tape.scale(sum, 0.5)
        })
    }
}

impl GraphModel for InfoGraphModel {
    fn name(&self) -> &'static str {
        "InfoGraph"
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn embed_dim(&self) -> usize {
        self.embed
    }

    fn forward(&self, tape: &mut Tape, vars: &[Var], g: &PreparedGraph) -> ModelOutput {
        self.run(&mut TapeExec::new(tape, vars), g)
    }

    fn forward_infer(&self, ctx: &mut InferCtx, g: &PreparedGraph) -> InferOutput {
        self.run(&mut InferExec::new(ctx, &self.params), g).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests_support::homo_line_graph;

    #[test]
    fn forward_with_mi_aux() {
        let g = PreparedGraph::from_graph(&homo_line_graph(6, 4));
        let model = InfoGraphModel::new(4, ModelConfig::default());
        let mut tape = Tape::new();
        let vars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &vars, &g);
        assert_eq!(tape.value(out.logits).shape(), (1, 2));
        let aux = out.aux_loss.expect("MI loss present");
        assert!(tape.value(aux).get(0, 0) > 0.0);
    }

    #[test]
    fn single_node_graph_skips_mi() {
        let g = PreparedGraph::from_graph(&homo_line_graph(1, 4));
        let model = InfoGraphModel::new(4, ModelConfig::default());
        let mut tape = Tape::new();
        let vars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &vars, &g);
        assert!(out.aux_loss.is_none());
    }
}
