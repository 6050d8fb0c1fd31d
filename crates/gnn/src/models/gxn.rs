//! GXN baseline (graph cross network): a VIPool pyramid over two scales with
//! GCN propagation at each scale and concatenated readouts. Carries the
//! infomax pooling loss as its auxiliary objective.

use crate::batch::PreparedGraph;
use crate::layers::{concat_readout, readout_mean_max, Dense, GcnLayer};
use crate::models::{embed_and_classify, GraphModel, InferOutput, ModelConfig, ModelOutput};
use crate::vipool::VIPool;
use glint_tensor::{Exec, InferCtx, InferExec, ParamSet, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub struct GxnModel {
    params: ParamSet,
    conv0: GcnLayer,
    pool: VIPool,
    conv1: GcnLayer,
    fuse: Dense,
    head: Dense,
    embed: usize,
}

impl GxnModel {
    pub fn new(in_dim: usize, config: ModelConfig) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let conv0 = GcnLayer::new(&mut params, "enc.l0", in_dim, config.hidden, &mut rng);
        let pool = VIPool::new(&mut params, "enc.pool", config.hidden, 0.6, &mut rng);
        let conv1 = GcnLayer::new(
            &mut params,
            "enc.l1",
            config.hidden,
            config.hidden,
            &mut rng,
        );
        let fuse = Dense::new(
            &mut params,
            "fuse",
            4 * config.hidden,
            config.embed,
            &mut rng,
        );
        let head = Dense::new(&mut params, "head", config.embed, 2, &mut rng);
        Self {
            params,
            conv0,
            pool,
            conv1,
            fuse,
            head,
            embed: config.embed,
        }
    }

    /// The forward pass, on either executor.
    fn run<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> ModelOutput<X::T> {
        let input = x.input(g.homo_features());
        let h0 = self.conv0.forward(x, &g.adj_norm, &input);
        let a0 = x.relu(h0);
        let r0 = readout_mean_max(x, &a0);

        let pooled = self.pool.forward(x, &g.adj_row, &a0, g.n as u64);
        x.release(a0);
        let h1 = self.conv1.forward(x, &pooled.adj_norm, &pooled.h);
        x.release(pooled.h);
        let a1 = x.relu(h1);
        let r1 = readout_mean_max(x, &a1);
        x.release(a1);

        let red = concat_readout(x, Some(r0), r1);
        let (embedding, logits) = embed_and_classify(x, &self.fuse, &self.head, red);
        ModelOutput {
            embedding,
            logits,
            aux_loss: pooled.pool_loss,
        }
    }
}

impl GraphModel for GxnModel {
    fn name(&self) -> &'static str {
        "GXN"
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
    fn forward_shapes_and_aux_loss() {
        let g = PreparedGraph::from_graph(&homo_line_graph(8, 4));
        let model = GxnModel::new(4, ModelConfig::default());
        let mut tape = Tape::new();
        let vars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &vars, &g);
        assert_eq!(tape.value(out.logits).shape(), (1, 2));
        let aux = out.aux_loss.expect("GXN carries a pooling loss");
        assert!(tape.value(aux).get(0, 0) > 0.0);
    }

    #[test]
    fn works_on_tiny_graphs() {
        // 2-node graphs are the paper's minimum size
        let g = PreparedGraph::from_graph(&homo_line_graph(2, 4));
        let model = GxnModel::new(4, ModelConfig::default());
        let mut tape = Tape::new();
        let vars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &vars, &g);
        assert!(tape.value(out.logits).all_finite());
    }
}
