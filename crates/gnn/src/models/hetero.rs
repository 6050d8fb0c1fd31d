//! Heterogeneous baselines of §4.5: MAGCN, MAGXN (MAGNN graph converter in
//! front of GCN / GXN cores) and HGSL (heterogeneous graph structure
//! learning).

use crate::batch::PreparedGraph;
use crate::layers::{concat_readout, readout_mean_max, Dense, GcnLayer};
use crate::metapath::MetapathEncoder;
use crate::models::{embed_and_classify, GraphModel, InferOutput, ModelOutput};
use crate::vipool::VIPool;
use glint_rules::Platform;
use glint_tensor::{Csr, Exec, InferCtx, InferExec, ParamSet, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// MAGCN: MAGNN converter + two GCN layers.
pub struct MagcnModel {
    params: ParamSet,
    encoder: MetapathEncoder,
    l0: GcnLayer,
    l1: GcnLayer,
    fuse: Dense,
    head: Dense,
    embed: usize,
}

impl MagcnModel {
    pub fn new(types: &[(Platform, usize)], hidden: usize, embed: usize, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let encoder = MetapathEncoder::new(&mut params, "enc.meta", types, hidden, &mut rng);
        let l0 = GcnLayer::new(&mut params, "enc.l0", hidden, hidden, &mut rng);
        let l1 = GcnLayer::new(&mut params, "enc.l1", hidden, hidden, &mut rng);
        let fuse = Dense::new(&mut params, "fuse", 2 * hidden, embed, &mut rng);
        let head = Dense::new(&mut params, "head", embed, 2, &mut rng);
        Self {
            params,
            encoder,
            l0,
            l1,
            fuse,
            head,
            embed,
        }
    }

    /// The forward pass, on either executor.
    fn run<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> ModelOutput<X::T> {
        let h = self.encoder.forward(x, g);
        let h0 = self.l0.forward(x, &g.adj_norm, &h);
        x.release(h);
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

impl GraphModel for MagcnModel {
    fn name(&self) -> &'static str {
        "MAGCN"
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

/// MAGXN: MAGNN converter + GXN core (VIPool pyramid) — the heavier
/// architecture the paper finds slower and weaker than MAGCN.
pub struct MagxnModel {
    params: ParamSet,
    encoder: MetapathEncoder,
    conv0: GcnLayer,
    pool: VIPool,
    conv1: GcnLayer,
    fuse: Dense,
    head: Dense,
    embed: usize,
}

impl MagxnModel {
    pub fn new(types: &[(Platform, usize)], hidden: usize, embed: usize, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let encoder = MetapathEncoder::new(&mut params, "enc.meta", types, hidden, &mut rng);
        let conv0 = GcnLayer::new(&mut params, "enc.l0", hidden, hidden, &mut rng);
        let pool = VIPool::new(&mut params, "enc.pool", hidden, 0.6, &mut rng);
        let conv1 = GcnLayer::new(&mut params, "enc.l1", hidden, hidden, &mut rng);
        let fuse = Dense::new(&mut params, "fuse", 4 * hidden, embed, &mut rng);
        let head = Dense::new(&mut params, "head", embed, 2, &mut rng);
        Self {
            params,
            encoder,
            conv0,
            pool,
            conv1,
            fuse,
            head,
            embed,
        }
    }

    /// The forward pass, on either executor.
    fn run<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> ModelOutput<X::T> {
        let h = self.encoder.forward(x, g);
        let h0 = self.conv0.forward(x, &g.adj_norm, &h);
        x.release(h);
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

impl GraphModel for MagxnModel {
    fn name(&self) -> &'static str {
        "MAGXN"
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

/// HGSL: heterogeneous graph structure *learning* — augments the observed
/// adjacency with a feature-similarity graph computed from the projected
/// node embeddings, then propagates over both structures with separate GCN
/// branches.
pub struct HgslModel {
    params: ParamSet,
    encoder: MetapathEncoder,
    conv_obs: GcnLayer,
    conv_sim: GcnLayer,
    l1: GcnLayer,
    fuse: Dense,
    head: Dense,
    embed: usize,
    /// Cosine-similarity threshold for the learned structure.
    pub sim_threshold: f32,
}

impl HgslModel {
    pub fn new(types: &[(Platform, usize)], hidden: usize, embed: usize, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let encoder = MetapathEncoder::new(&mut params, "enc.meta", types, hidden, &mut rng);
        let conv_obs = GcnLayer::new(&mut params, "enc.obs", hidden, hidden, &mut rng);
        let conv_sim = GcnLayer::new(&mut params, "enc.sim", hidden, hidden, &mut rng);
        let l1 = GcnLayer::new(&mut params, "enc.l1", hidden, hidden, &mut rng);
        let fuse = Dense::new(&mut params, "fuse", 2 * hidden, embed, &mut rng);
        let head = Dense::new(&mut params, "head", embed, 2, &mut rng);
        Self {
            params,
            encoder,
            conv_obs,
            conv_sim,
            l1,
            fuse,
            head,
            embed,
            sim_threshold: 0.7,
        }
    }

    /// The forward pass, on either executor.
    fn run<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> ModelOutput<X::T> {
        let h = self.encoder.forward(x, g);
        let adj_sim = self.similarity_adjacency(x.value(&h));
        let obs = self.conv_obs.forward(x, &g.adj_norm, &h);
        let sim = self.conv_sim.forward(x, &adj_sim, &h);
        x.release(h);
        let combined = x.add(obs, sim);
        let a0 = x.relu(combined);
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

    /// Feature-similarity graph over current projected features (treated as
    /// a constant structure for this pass — structure updates between steps).
    fn similarity_adjacency(&self, h: &glint_tensor::Matrix) -> Csr {
        let n = h.rows();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let sim = cosine(h.row(i), h.row(j));
                if sim > self.sim_threshold {
                    edges.push((i, j));
                }
            }
        }
        Csr::normalized_adjacency(n, &edges)
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na < 1e-9 || nb < 1e-9 {
        0.0
    } else {
        dot / (na * nb)
    }
}

impl GraphModel for HgslModel {
    fn name(&self) -> &'static str {
        "HGSL"
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
    use crate::batch::tests_support::hetero_small;

    fn types() -> Vec<(Platform, usize)> {
        vec![
            (Platform::Ifttt, 4),
            (Platform::SmartThings, 4),
            (Platform::Alexa, 6),
        ]
    }

    #[test]
    fn magcn_forward() {
        let g = hetero_small();
        let m = MagcnModel::new(&types(), 16, 16, 1);
        let mut tape = Tape::new();
        let vars = m.params().bind(&mut tape);
        let out = m.forward(&mut tape, &vars, &g);
        assert_eq!(tape.value(out.logits).shape(), (1, 2));
        assert!(out.aux_loss.is_none());
    }

    #[test]
    fn magxn_forward_with_pool_loss() {
        let g = hetero_small();
        let m = MagxnModel::new(&types(), 16, 16, 2);
        let mut tape = Tape::new();
        let vars = m.params().bind(&mut tape);
        let out = m.forward(&mut tape, &vars, &g);
        assert!(out.aux_loss.is_some());
        assert!(tape.value(out.logits).all_finite());
    }

    #[test]
    fn magxn_heavier_than_magcn() {
        // the paper attributes MAGXN's weakness to its larger parameterization
        let magcn = MagcnModel::new(&types(), 16, 16, 3);
        let magxn = MagxnModel::new(&types(), 16, 16, 3);
        assert!(magxn.params().num_scalars() > magcn.params().num_scalars());
    }

    #[test]
    fn hgsl_forward_and_similarity_structure() {
        let g = hetero_small();
        let m = HgslModel::new(&types(), 16, 16, 4);
        let mut tape = Tape::new();
        let vars = m.params().bind(&mut tape);
        let out = m.forward(&mut tape, &vars, &g);
        assert!(tape.value(out.logits).all_finite());
        // similarity graph on identical rows links everything
        let h = glint_tensor::Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let adj = m.similarity_adjacency(&h);
        let d = adj.to_dense();
        assert!(d.get(0, 1) > 0.0, "identical rows must be linked");
        assert_eq!(d.get(0, 2), d.get(2, 0), "symmetric");
    }
}
