//! GCN baseline (Kipf & Welling): two normalized-propagation layers, a
//! mean‖max readout, and a linear head. Homogeneous graphs only.

use crate::batch::PreparedGraph;
use crate::layers::{readout_mean_max, Dense, GcnLayer};
use crate::models::{embed_and_classify, GraphModel, InferOutput, ModelConfig, ModelOutput};
use glint_tensor::{Exec, InferCtx, InferExec, ParamSet, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub struct GcnModel {
    params: ParamSet,
    l0: GcnLayer,
    l1: GcnLayer,
    fuse: Dense,
    head: Dense,
    embed: usize,
}

impl GcnModel {
    pub fn new(in_dim: usize, config: ModelConfig) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let l0 = GcnLayer::new(&mut params, "enc.l0", in_dim, config.hidden, &mut rng);
        let l1 = GcnLayer::new(
            &mut params,
            "enc.l1",
            config.hidden,
            config.hidden,
            &mut rng,
        );
        let fuse = Dense::new(
            &mut params,
            "fuse",
            2 * config.hidden,
            config.embed,
            &mut rng,
        );
        let head = Dense::new(&mut params, "head", config.embed, 2, &mut rng);
        Self {
            params,
            l0,
            l1,
            fuse,
            head,
            embed: config.embed,
        }
    }

    /// The forward pass, on either executor.
    fn run<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> ModelOutput<X::T> {
        let input = x.input(g.homo_features());
        let h0 = self.l0.forward(x, &g.adj_norm, &input);
        let a0 = x.relu(h0);
        let h1 = self.l1.forward(x, &g.adj_norm, &a0);
        x.release(a0);
        let a1 = x.relu(h1);
        let red = readout_mean_max(x, &a1);
        x.release(a1);
        let (embedding, logits) = embed_and_classify(x, &self.fuse, &self.head, red);
        ModelOutput {
            embedding,
            logits,
            aux_loss: None,
        }
    }
}

impl GraphModel for GcnModel {
    fn name(&self) -> &'static str {
        "GCN"
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
    use crate::batch::tests_support::{homo_line_graph, labeled_pair};

    #[test]
    fn forward_shapes() {
        let g = PreparedGraph::from_graph(&homo_line_graph(5, 4));
        let model = GcnModel::new(4, ModelConfig::default());
        let mut tape = Tape::new();
        let vars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &vars, &g);
        assert_eq!(tape.value(out.embedding).shape(), (1, 64));
        assert_eq!(tape.value(out.logits).shape(), (1, 2));
        assert!(out.aux_loss.is_none());
    }

    #[test]
    fn embedding_bounded_by_tanh() {
        let g = PreparedGraph::from_graph(&homo_line_graph(4, 3));
        let model = GcnModel::new(3, ModelConfig::default());
        let mut tape = Tape::new();
        let vars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &vars, &g);
        assert!(tape
            .value(out.embedding)
            .data()
            .iter()
            .all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn different_graphs_embed_differently() {
        let (ga, gb) = labeled_pair(4);
        let model = GcnModel::new(4, ModelConfig::default());
        let run = |g: &PreparedGraph| {
            let mut tape = Tape::new();
            let vars = model.params().bind(&mut tape);
            let out = model.forward(&mut tape, &vars, g);
            tape.value(out.embedding).clone()
        };
        assert!(run(&ga).sq_dist(&run(&gb)) > 1e-10);
    }
}
