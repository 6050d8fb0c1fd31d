//! The model zoo: every architecture the paper evaluates.

pub mod gcn;
pub mod gin;
pub mod gxn;
pub mod hetero;
pub mod infograph;
pub mod itgnn;

use crate::batch::PreparedGraph;
use crate::layers::Dense;
use glint_tensor::{Exec, InferCtx, Matrix, ParamSet, Tape, Var};

pub use gcn::GcnModel;
pub use gin::GinModel;
pub use gxn::GxnModel;
pub use hetero::{HgslModel, MagcnModel, MagxnModel};
pub use infograph::InfoGraphModel;
pub use itgnn::{Itgnn, ItgnnConfig};

/// Result of one forward pass over a single graph. Each model's forward
/// body returns one over its executor's activations (`T = Var` on the
/// tape).
pub struct ModelOutput<T = Var> {
    /// Graph-level embedding (`1 × embed_dim`).
    pub embedding: T,
    /// Class logits (`1 × 2`).
    pub logits: T,
    /// Auxiliary (pooling / infomax) loss to add with weight β, if any.
    /// Recorded on the tape only.
    pub aux_loss: Option<Var>,
}

/// Result of a tape-free forward pass: plain values, no autograd graph.
///
/// The matrices may come from the [`InferCtx`] buffer pool — callers that
/// run in a serving loop should hand them back with `ctx.release(..)` once
/// the scalars they need have been copied out.
pub struct InferOutput {
    /// Graph-level embedding (`1 × embed_dim`).
    pub embedding: Matrix,
    /// Class logits (`1 × 2`).
    pub logits: Matrix,
}

impl From<ModelOutput<Matrix>> for InferOutput {
    fn from(out: ModelOutput<Matrix>) -> Self {
        Self {
            embedding: out.embedding,
            logits: out.logits,
        }
    }
}

/// A trainable graph-classification model.
///
/// Every model in the zoo writes its forward pass once, generic over
/// [`Exec`]; [`forward`](Self::forward) runs it on a
/// [`glint_tensor::TapeExec`] and [`forward_infer`](Self::forward_infer)
/// on a [`glint_tensor::InferExec`].
///
/// `Send + Sync` is a supertrait so trainers can run forward/backward passes
/// for the graphs of a mini-batch on worker threads (every implementor is a
/// plain data struct around a [`ParamSet`], so the bound is free).
pub trait GraphModel: Send + Sync {
    fn name(&self) -> &'static str;
    fn params(&self) -> &ParamSet;
    fn params_mut(&mut self) -> &mut ParamSet;
    /// Dimension of [`ModelOutput::embedding`].
    fn embed_dim(&self) -> usize;
    /// Forward pass. `vars` must come from `self.params().bind(tape)`.
    fn forward(&self, tape: &mut Tape, vars: &[Var], g: &PreparedGraph) -> ModelOutput;

    /// Tape-free forward pass for serving: values only, computed with the
    /// pooled [`InferCtx`] kernels, bitwise-identical to [`forward`]
    /// (property-tested in `tests/infer_equiv.rs`).
    fn forward_infer(&self, ctx: &mut InferCtx, g: &PreparedGraph) -> InferOutput;

    /// The node-local first stage of [`forward_infer`](Self::forward_infer),
    /// for a model that has one: a matrix whose row `i` depends only on
    /// node `i`'s features. The rows of a subgraph are then the subgraph's
    /// rows of this matrix, so a caller scoring many subgraphs of one graph
    /// (the explainer's deletions) computes them once. `None`, the
    /// default, means the model has no such stage.
    fn project_infer(&self, _ctx: &mut InferCtx, _g: &PreparedGraph) -> Option<Matrix> {
        None
    }

    /// [`forward_infer`](Self::forward_infer) of `g` given `h`, the rows
    /// [`project_infer`](Self::project_infer) returns for `g` (gathered
    /// from a larger graph's projection when `g` is a subgraph of it).
    /// Bitwise-identical to `forward_infer(g)`. The default releases `h`
    /// and runs `forward_infer`.
    fn forward_infer_projected(
        &self,
        ctx: &mut InferCtx,
        g: &PreparedGraph,
        h: Matrix,
    ) -> InferOutput {
        ctx.release(h);
        self.forward_infer(ctx, g)
    }
}

/// The shared head of the baselines: graph embedding `tanh(fuse(red))` and
/// class logits `head(embedding)`. Consumes the readout `red`.
fn embed_and_classify<X: Exec>(x: &mut X, fuse: &Dense, head: &Dense, red: X::T) -> (X::T, X::T) {
    let fused = fuse.forward(x, &red);
    x.release(red);
    let embedding = x.tanh(fused);
    let logits = head.forward(x, &embedding);
    (embedding, logits)
}

/// Shared hyper-parameters for the baseline models.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    pub hidden: usize,
    pub embed: usize,
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            embed: 64,
            seed: 0,
        }
    }
}
