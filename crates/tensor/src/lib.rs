//! # glint-tensor
//!
//! Dense/sparse numeric substrate for the Glint reproduction.
//!
//! The paper implements its models in PyTorch + DGL; this crate provides the
//! minimal-but-complete stand-in: a row-major [`Matrix`] type with the dense
//! kernels GNN training needs, a CSR sparse matrix ([`csr::Csr`]) for
//! normalized adjacency propagation, a tape-based reverse-mode autograd
//! engine ([`tape::Tape`]), a tape-free serving path ([`infer`]), the
//! [`exec::Exec`] op set that lets one forward body run on either,
//! parameter initialization, the Adam optimizer, and durable training
//! checkpoints ([`checkpoint`]) for crash-safe resume-exact training.
//!
//! Design notes (following the Rust performance-book idioms):
//! - all tensors are `f32`, row-major, contiguous `Vec<f32>`;
//! - autograd nodes live in an arena indexed by [`tape::Var`] (no `Rc`
//!   cycles, no interior mutability in hot loops);
//! - sparse × dense products iterate CSR rows directly and are the only
//!   graph-propagation primitive the models need.

pub mod checkpoint;
pub mod csr;
pub mod exec;
pub mod grad_check;
pub mod infer;
pub mod init;
pub mod matrix;
pub mod optim;
pub mod par;
pub mod tape;

pub use checkpoint::{load_checkpoint, save_checkpoint, CheckpointError, TrainCheckpoint};
pub use csr::Csr;
pub use exec::{Exec, InferExec, TapeExec};
pub use infer::{BufferPool, InferCtx};
pub use matrix::Matrix;
pub use optim::{Adam, AdamState, ParamId, ParamMismatch, ParamSet};
pub use tape::{Tape, Var};

/// Numeric tolerance used across the crate's tests and gradient checks.
pub const EPS: f32 = 1e-4;
