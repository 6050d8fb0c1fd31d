//! ITGNN — the paper's contribution (Algorithm 2): a unified model for
//! homogeneous *and* heterogeneous interaction graphs.
//!
//! Pipeline per graph:
//! 1. **Metapath-based node transformation** (heterogeneous → homogeneous-
//!    type): per-platform feature projection, intra-metapath instance
//!    averaging, inter-metapath attention fusion ([`MetapathEncoder`]).
//! 2. **Multi-scale graph generation**: a [`VIPool`] pyramid produces `D`
//!    scales; each scale is propagated with [`TagConv`] layers (exact
//!    polynomial propagation, no convolution approximation).
//! 3. **Multi-scale fusion**: per-scale mean‖max readouts are concatenated
//!    and fused by fully-connected layers into the graph embedding `z_G`.
//!
//! The classification head gives ITGNN-S (Eq. 2, with β-weighted pooling
//! loss as `aux_loss`); the embedding feeds the contrastive objective of
//! ITGNN-C (Eq. 1) and Algorithm 3's drift detector.

use crate::batch::PreparedGraph;
use crate::layers::{concat_readout, readout_mean_max, Dense, TagConv};
use crate::metapath::MetapathEncoder;
use crate::models::{GraphModel, InferOutput, ModelOutput};
use crate::vipool::VIPool;
use glint_rules::Platform;
use glint_tensor::{Exec, InferCtx, InferExec, Matrix, ParamSet, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;

/// ITGNN hyper-parameters (the Figure 7 ablation axes).
#[derive(Clone, Debug)]
pub struct ItgnnConfig {
    pub hidden: usize,
    pub embed: usize,
    /// Number of scales D in the multi-scale generator (Fig. 7: best at 3).
    pub n_scales: usize,
    /// VIPool keep ratio (Fig. 7: best at 0.6; 1.0 disables pooling).
    pub pool_ratio: f32,
    /// TAG propagation layers per scale (Fig. 7: best at 2, over-smooths at 6).
    pub prop_layers: usize,
    /// TAG polynomial order (hops per propagation layer).
    pub tag_hops: usize,
    /// Ablation: drop intra-metapath aggregation.
    pub disable_intra: bool,
    /// Ablation: drop inter-metapath attention (uniform fusion).
    pub disable_inter: bool,
    /// Bound the graph embedding with tanh (good for classification
    /// stability). Contrastive / drift usage wants the unbounded latent —
    /// saturated tanh coordinates collapse out-of-distribution graphs onto
    /// the same hypercube corners as the training clusters.
    pub bounded_embedding: bool,
    pub seed: u64,
}

impl Default for ItgnnConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            embed: 64,
            n_scales: 3,
            pool_ratio: 0.6,
            prop_layers: 2,
            tag_hops: 2,
            disable_intra: false,
            disable_inter: false,
            bounded_embedding: true,
            seed: 0,
        }
    }
}

pub struct Itgnn {
    params: ParamSet,
    encoder: MetapathEncoder,
    /// `scales[d][l]`: TAG conv l at scale d.
    scales: Vec<Vec<TagConv>>,
    pools: Vec<VIPool>,
    fuse: Dense,
    head: Dense,
    config: ItgnnConfig,
}

impl Itgnn {
    /// Build for a set of node types (platform, feature dim). A single type
    /// makes the same architecture run homogeneous data — the unified-model
    /// property of the paper.
    pub fn new(types: &[(Platform, usize)], config: ItgnnConfig) -> Self {
        assert!(config.n_scales >= 1 && config.prop_layers >= 1);
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut encoder =
            MetapathEncoder::new(&mut params, "enc.meta", types, config.hidden, &mut rng);
        encoder.disable_intra = config.disable_intra;
        encoder.disable_inter = config.disable_inter;
        let mut scales = Vec::new();
        let mut pools = Vec::new();
        for d in 0..config.n_scales {
            let convs: Vec<TagConv> = (0..config.prop_layers)
                .map(|l| {
                    TagConv::new(
                        &mut params,
                        &format!("enc.scale{d}.conv{l}"),
                        config.hidden,
                        config.hidden,
                        config.tag_hops,
                        &mut rng,
                    )
                })
                .collect();
            scales.push(convs);
            if d + 1 < config.n_scales {
                pools.push(VIPool::new(
                    &mut params,
                    &format!("enc.scale{d}.pool"),
                    config.hidden,
                    config.pool_ratio,
                    &mut rng,
                ));
            }
        }
        let fuse = Dense::new(
            &mut params,
            "fuse",
            config.n_scales * 2 * config.hidden,
            config.embed,
            &mut rng,
        );
        let head = Dense::new(&mut params, "head", config.embed, 2, &mut rng);
        Self {
            params,
            encoder,
            scales,
            pools,
            fuse,
            head,
            config,
        }
    }

    /// Convenience constructor for a homogeneous platform.
    pub fn homogeneous(platform: Platform, in_dim: usize, config: ItgnnConfig) -> Self {
        Self::new(&[(platform, in_dim)], config)
    }

    pub fn config(&self) -> &ItgnnConfig {
        &self.config
    }

    /// The forward pass, on either executor.
    fn run<X: Exec>(&self, x: &mut X, g: &PreparedGraph) -> ModelOutput<X::T> {
        let h = self.encoder.project(x, g);
        self.run_projected(x, g, h)
    }

    /// The forward pass after the node-local metapath projection `h`.
    fn run_projected<X: Exec>(&self, x: &mut X, g: &PreparedGraph, h: X::T) -> ModelOutput<X::T> {
        // 1. metapath-based node transformation → homogeneous-type graph
        let mut h = self.encoder.aggregate(x, g, h);
        // the prepared graph's CSRs until the first pool hands back its own
        let mut adj_norm = Cow::Borrowed(&g.adj_norm);
        let mut adj_row = Cow::Borrowed(&g.adj_row);

        // 2. multi-scale generation + propagation
        let mut readouts: Option<X::T> = None;
        let mut pool_losses: Vec<Var> = Vec::new();
        for (d, convs) in self.scales.iter().enumerate() {
            for conv in convs {
                let next = conv.forward(x, &adj_norm, &h);
                x.release(std::mem::replace(&mut h, next));
                h = x.relu(h);
            }
            let r = readout_mean_max(x, &h);
            readouts = Some(concat_readout(x, readouts, r));
            if d + 1 < self.scales.len() {
                let pooled = self.pools[d].forward(x, &adj_row, &h, (g.n + d) as u64);
                x.release(std::mem::replace(&mut h, pooled.h));
                adj_norm = Cow::Owned(pooled.adj_norm);
                adj_row = Cow::Owned(pooled.adj_row);
                pool_losses.extend(pooled.pool_loss);
            }
        }
        x.release(h);

        // 3. multi-scale fusion
        // glint-lint: allow(hot-unwrap) — scale count is a construction-time
        // constant >= 1, so the readout accumulator is always seeded
        let red = readouts.expect("at least one scale");
        let fused = self.fuse.forward(x, &red);
        x.release(red);
        let embedding = if self.config.bounded_embedding {
            x.tanh(fused)
        } else {
            fused
        };
        let logits = self.head.forward(x, &embedding);
        let aux_loss = x
            .train_only(|t| {
                pool_losses.into_iter().reduce(|a, b| {
                    let s = t.tape.add(a, b);
                    t.tape.scale(s, 0.5)
                })
            })
            .flatten();
        ModelOutput {
            embedding,
            logits,
            aux_loss,
        }
    }
}

impl GraphModel for Itgnn {
    fn name(&self) -> &'static str {
        "ITGNN"
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn embed_dim(&self) -> usize {
        self.config.embed
    }

    fn forward(&self, tape: &mut Tape, vars: &[Var], g: &PreparedGraph) -> ModelOutput {
        self.run(&mut TapeExec::new(tape, vars), g)
    }

    /// The projection `project_infer` returns, then
    /// `forward_infer_projected`: serving and the explainer share one body.
    fn forward_infer(&self, ctx: &mut InferCtx, g: &PreparedGraph) -> InferOutput {
        let h = self
            .encoder
            .project(&mut InferExec::new(ctx, &self.params), g);
        self.forward_infer_projected(ctx, g, h)
    }

    /// The per-platform projection: each row is its node's feature row
    /// times its platform's weight, scattered from +0.0, so it depends on
    /// that node alone.
    fn project_infer(&self, ctx: &mut InferCtx, g: &PreparedGraph) -> Option<Matrix> {
        Some(
            self.encoder
                .project(&mut InferExec::new(ctx, &self.params), g),
        )
    }

    fn forward_infer_projected(
        &self,
        ctx: &mut InferCtx,
        g: &PreparedGraph,
        h: Matrix,
    ) -> InferOutput {
        self.run_projected(&mut InferExec::new(ctx, &self.params), g, h)
            .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests_support::{hetero_small, homo_line_graph, labeled_pair};

    #[test]
    fn unified_model_handles_homo_and_hetero() {
        let homo = PreparedGraph::from_graph(&homo_line_graph(5, 4));
        let m_h = Itgnn::homogeneous(Platform::Ifttt, 4, ItgnnConfig::default());
        let mut tape = Tape::new();
        let vars = m_h.params().bind(&mut tape);
        let out = m_h.forward(&mut tape, &vars, &homo);
        assert_eq!(tape.value(out.logits).shape(), (1, 2));

        let het = hetero_small();
        let types = vec![
            (Platform::Ifttt, 4),
            (Platform::SmartThings, 4),
            (Platform::Alexa, 6),
        ];
        let m_het = Itgnn::new(&types, ItgnnConfig::default());
        let mut tape2 = Tape::new();
        let vars2 = m_het.params().bind(&mut tape2);
        let out2 = m_het.forward(&mut tape2, &vars2, &het);
        assert!(tape2.value(out2.logits).all_finite());
        assert!(
            out2.aux_loss.is_some(),
            "multi-scale ITGNN carries pool loss"
        );
    }

    #[test]
    fn one_scale_has_no_pool_loss() {
        let cfg = ItgnnConfig {
            n_scales: 1,
            ..Default::default()
        };
        let m = Itgnn::homogeneous(Platform::Ifttt, 4, cfg);
        let g = PreparedGraph::from_graph(&homo_line_graph(4, 4));
        let mut tape = Tape::new();
        let vars = m.params().bind(&mut tape);
        let out = m.forward(&mut tape, &vars, &g);
        assert!(out.aux_loss.is_none());
    }

    #[test]
    fn scale_count_changes_param_count() {
        let small = Itgnn::homogeneous(
            Platform::Ifttt,
            4,
            ItgnnConfig {
                n_scales: 1,
                ..Default::default()
            },
        );
        let big = Itgnn::homogeneous(
            Platform::Ifttt,
            4,
            ItgnnConfig {
                n_scales: 4,
                ..Default::default()
            },
        );
        assert!(big.params().num_scalars() > small.params().num_scalars());
    }

    #[test]
    fn structure_sensitivity() {
        let (a, b) = labeled_pair(4);
        let m = Itgnn::homogeneous(Platform::Ifttt, 4, ItgnnConfig::default());
        let run = |g: &PreparedGraph| {
            let mut tape = Tape::new();
            let vars = m.params().bind(&mut tape);
            let out = m.forward(&mut tape, &vars, g);
            tape.value(out.embedding).clone()
        };
        assert!(run(&a).sq_dist(&run(&b)) > 1e-10);
    }

    #[test]
    fn transfer_freezing_targets_encoder_layers() {
        let mut m = Itgnn::homogeneous(Platform::Ifttt, 4, ItgnnConfig::default());
        let frozen = m.params_mut().freeze_prefix("enc.");
        assert!(frozen > 0);
        // head and fuse stay live
        let total = m.params().len();
        assert!(m.params().frozen_count() < total);
    }

    #[test]
    fn tiny_two_node_graph_is_safe() {
        let g = PreparedGraph::from_graph(&homo_line_graph(2, 4));
        let m = Itgnn::homogeneous(Platform::Ifttt, 4, ItgnnConfig::default());
        let mut tape = Tape::new();
        let vars = m.params().bind(&mut tape);
        let out = m.forward(&mut tape, &vars, &g);
        assert!(tape.value(out.logits).all_finite());
    }
}
