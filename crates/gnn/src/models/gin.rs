//! GIN baseline (Xu et al.): sum-aggregation isomorphism layers with
//! per-layer sum readouts (the jumping-knowledge concatenation of the
//! original paper). Homogeneous graphs only.

use crate::batch::PreparedGraph;
use crate::layers::{concat_readout, readout_sum, Dense, GinLayer};
use crate::models::{embed_and_classify, GraphModel, InferOutput, ModelConfig, ModelOutput};
use glint_tensor::{Exec, InferCtx, InferExec, ParamSet, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub struct GinModel {
    params: ParamSet,
    layers: Vec<GinLayer>,
    fuse: Dense,
    head: Dense,
    embed: usize,
}

impl GinModel {
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
            layers: vec![l0, l1],
            fuse,
            head,
            embed: config.embed,
        }
    }

    /// The forward pass, on either executor.
    fn run<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> ModelOutput<X::T> {
        let input = x.input(g.homo_features());
        let mut h: Option<X::T> = None;
        let mut readouts: Option<X::T> = None;
        for layer in &self.layers {
            let next = layer.forward(x, &g.adj_sum, h.as_ref().unwrap_or(&input));
            if let Some(prev) = h.take() {
                x.release(prev);
            }
            let next = x.relu(next);
            let r = readout_sum(x, &next);
            h = Some(next);
            readouts = Some(concat_readout(x, readouts, r));
        }
        if let Some(last) = h {
            x.release(last);
        }
        // glint-lint: allow(hot-unwrap) — layer count is a construction-time
        // constant >= 1, so the readout accumulator is always seeded
        let red = readouts.expect("at least one layer");
        let (embedding, logits) = embed_and_classify(x, &self.fuse, &self.head, red);
        ModelOutput {
            embedding,
            logits,
            aux_loss: None,
        }
    }
}

impl GraphModel for GinModel {
    fn name(&self) -> &'static str {
        "GIN"
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
        let g = PreparedGraph::from_graph(&homo_line_graph(6, 5));
        let model = GinModel::new(5, ModelConfig::default());
        let mut tape = Tape::new();
        let vars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &vars, &g);
        assert_eq!(tape.value(out.logits).shape(), (1, 2));
        assert_eq!(tape.value(out.embedding).shape(), (1, 64));
    }

    #[test]
    fn structure_sensitivity() {
        let (a, b) = labeled_pair(5);
        let model = GinModel::new(5, ModelConfig::default());
        let run = |g: &PreparedGraph| {
            let mut tape = Tape::new();
            let vars = model.params().bind(&mut tape);
            let out = model.forward(&mut tape, &vars, g);
            tape.value(out.embedding).clone()
        };
        assert!(
            run(&a).sq_dist(&run(&b)) > 1e-10,
            "GIN must separate different structures"
        );
    }
}
