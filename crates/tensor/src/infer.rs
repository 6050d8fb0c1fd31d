//! Tape-free forward-only execution with pooled activation buffers.
//!
//! Training needs the autograd tape: every op records its value and a
//! backward closure, and every intermediate activation must stay alive
//! until `backward` runs. Serving needs none of that — `BENCH_trace.json`
//! showed the detector paying the full tape price per assessment (~29.8k
//! matrix allocations / 2.28M elements over a 105-step run) just to throw
//! the tape away. This module is the serving-side substrate:
//!
//! - [`BufferPool`] — a free list of activation buffers. Acquiring a matrix
//!   reuses a previously released buffer when one is large enough
//!   (re-zeroed, so a kernel that accumulates into it sees exactly the
//!   state a fresh `Matrix::zeros` would give it); only a miss
//!   allocates, and only a miss ticks the `tensor.alloc.*` counters.
//! - [`InferCtx`] — the pool plus forward kernels mirroring the tape op
//!   set. Products go through `par::{matmul_into, spmm_into}`, which share
//!   the dispatch thresholds, the `GLINT_THREADS` fan-out and the exact
//!   `*_block` kernels of the tape path — results are **bitwise
//!   identical** to a tape forward at any thread count (property-tested in
//!   `crates/gnn/tests/infer_equiv.rs`).
//! - Fused affine+activation kernels ([`InferCtx::linear_relu`],
//!   [`InferCtx::linear_sigmoid`]): the bias add and the activation are
//!   applied in one pass over the product buffer. Fusion here is
//!   *element-wise only* — each output element sees the same sequence of
//!   f32 operations as the unfused tape ops, so bitwise equivalence
//!   survives. Matmul/spmm accumulation is never fused into an existing
//!   accumulator (that would reorder the floating-point reduction).
//! - [`with_ctx`] — a thread-local context. Repeated assessments on a
//!   persistent thread reach a steady state where the pool serves every
//!   activation and the serving path stops allocating matrices entirely.
//!
//! The layers never call these kernels directly: they are written once
//! against [`crate::exec::Exec`], and [`crate::exec::InferExec`] maps each
//! op onto a kernel here (in-place element-wise ops included). The tape
//! stays authoritative for training; this module only computes values.

use crate::{Csr, Matrix};
use std::cell::RefCell;

/// Upper bound on retained free buffers — the working set of one forward
/// pass is far below this; the cap only guards against pathological churn.
const MAX_POOLED: usize = 512;

/// Free list of activation buffers, recycled across forward passes.
#[derive(Default)]
pub struct BufferPool {
    free: Vec<Vec<f32>>,
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently sitting in the free list (test hook for
    /// the no-growth-after-warm-up invariant).
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// A zeroed `rows × cols` matrix: recycled from the free list when a
    /// buffer with enough capacity exists, freshly allocated otherwise.
    /// Only the miss path allocates (and ticks `tensor.alloc.*`).
    pub fn acquire(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        if let Some(pos) = self.free.iter().position(|b| b.capacity() >= len) {
            let mut buf = self.free.swap_remove(pos);
            buf.clear();
            buf.resize(len, 0.0);
            if glint_trace::enabled() {
                glint_trace::counter("infer.pool.hits", 1);
            }
            return Matrix::from_vec(rows, cols, buf);
        }
        if glint_trace::enabled() {
            glint_trace::counter("infer.pool.misses", 1);
        }
        Matrix::zeros(rows, cols)
    }

    /// Return a matrix's buffer to the free list.
    pub fn release(&mut self, m: Matrix) {
        if self.free.len() < MAX_POOLED {
            self.free.push(m.into_vec());
        }
    }
}

/// Forward-only execution context: a [`BufferPool`] plus the tape op set
/// re-expressed as pooled/in-place kernels. Every method documents which
/// tape op it mirrors; the arithmetic is identical element for element.
#[derive(Default)]
pub struct InferCtx {
    pool: BufferPool,
}

impl InferCtx {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Pooled zeroed matrix (see [`BufferPool::acquire`]).
    pub fn acquire(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.acquire(rows, cols)
    }

    /// Pooled matrix filled with a constant (mirrors `Matrix::full`).
    pub fn filled(&mut self, rows: usize, cols: usize, value: f32) -> Matrix {
        let mut m = self.pool.acquire(rows, cols);
        for x in m.data_mut() {
            *x = value;
        }
        m
    }

    /// Hand an activation back for reuse.
    pub fn release(&mut self, m: Matrix) {
        self.pool.release(m);
    }

    // ---- products (mirror `Tape::matmul` / `Tape::spmm`) ----

    /// `a × b` into a pooled buffer via [`crate::par::matmul_into`].
    pub fn matmul(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = self.pool.acquire(a.rows(), b.cols());
        crate::par::matmul_into(a, b, &mut out);
        out
    }

    /// Sparse `adj × h` into a pooled buffer via [`crate::par::spmm_into`].
    pub fn spmm(&mut self, adj: &Csr, h: &Matrix) -> Matrix {
        let mut out = self.pool.acquire(adj.rows(), h.cols());
        crate::par::spmm_into(adj, h, &mut out);
        out
    }

    // ---- fused affine (+ activation) kernels (mirror `Tape::linear`) ----

    /// Affine layer `x × w + bias` — the bias broadcast is applied in place
    /// on the product buffer (one pass, no `add_row_broadcast` copy).
    pub fn linear(&mut self, x: &Matrix, w: &Matrix, bias: &Matrix) -> Matrix {
        let mut out = self.matmul(x, w);
        out.add_row_broadcast_inplace(bias);
        out
    }

    /// Fused `relu(x × w + bias)`: bias add and activation in a single pass
    /// over each product element — same f32 sequence as `linear` + `relu`.
    pub fn linear_relu(&mut self, x: &Matrix, w: &Matrix, bias: &Matrix) -> Matrix {
        let mut out = self.matmul(x, w);
        fused_bias_act(&mut out, bias, |v| v.max(0.0));
        out
    }

    /// Fused `sigmoid(x × w + bias)` — see [`linear_relu`](Self::linear_relu).
    pub fn linear_sigmoid(&mut self, x: &Matrix, w: &Matrix, bias: &Matrix) -> Matrix {
        let mut out = self.matmul(x, w);
        fused_bias_act(&mut out, bias, |v| 1.0 / (1.0 + (-v).exp()));
        out
    }

    // ---- shape ops (mirror the corresponding tape ops) ----

    /// Horizontal concatenation `[a | b]` (mirrors `Tape::concat_cols`).
    pub fn concat_cols(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "concat_cols row mismatch");
        let (ca, cb) = (a.cols(), b.cols());
        let mut out = self.pool.acquire(a.rows(), ca + cb);
        for r in 0..a.rows() {
            let (left, right) = out.row_mut(r).split_at_mut(ca);
            left.copy_from_slice(a.row(r));
            right.copy_from_slice(b.row(r));
        }
        out
    }

    /// Gather rows by index (mirrors `Tape::gather_rows`).
    pub fn gather_rows(&mut self, a: &Matrix, idx: &[usize]) -> Matrix {
        let mut out = self.pool.acquire(idx.len(), a.cols());
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(a.row(i));
        }
        out
    }

    /// Column-wise mean → `1 × c` (mirrors `Tape::mean_rows`; identical
    /// accumulate-then-scale order to `Matrix::mean_rows`).
    pub fn mean_rows(&mut self, a: &Matrix) -> Matrix {
        let mut out = self.pool.acquire(1, a.cols());
        if a.rows() == 0 {
            return out;
        }
        for r in 0..a.rows() {
            for (o, &x) in out.data_mut().iter_mut().zip(a.row(r)) {
                *o += x;
            }
        }
        let inv = 1.0 / a.rows() as f32;
        out.map_inplace(|x| x * inv);
        out
    }

    /// Column-wise max → `1 × c` (mirrors `Tape::max_rows` / `Matrix::max_rows`:
    /// starts from −∞, strict `>` update).
    pub fn max_rows(&mut self, a: &Matrix) -> Matrix {
        let mut out = self.filled(1, a.cols(), f32::NEG_INFINITY);
        for r in 0..a.rows() {
            for (o, &x) in out.data_mut().iter_mut().zip(a.row(r)) {
                if x > *o {
                    *o = x;
                }
            }
        }
        out
    }

    /// Column-wise sum → `1 × c` (mirrors `Tape::sum_rows_readout`).
    pub fn sum_rows(&mut self, a: &Matrix) -> Matrix {
        let mut out = self.pool.acquire(1, a.cols());
        for r in 0..a.rows() {
            for (o, &x) in out.data_mut().iter_mut().zip(a.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// `Σ_p w[0,p] · hs[p]` (mirrors `Tape::weighted_sum`: a zeroed
    /// accumulator receiving the same `axpy` sequence in order).
    pub fn weighted_sum(&mut self, hs: &[Matrix], w: &Matrix) -> Matrix {
        assert!(!hs.is_empty());
        assert_eq!(w.shape(), (1, hs.len()), "weights must be 1×P");
        let shape = hs[0].shape();
        let mut out = self.pool.acquire(shape.0, shape.1);
        for (p, h) in hs.iter().enumerate() {
            assert_eq!(h.shape(), shape, "weighted_sum shape mismatch");
            out.axpy(w.get(0, p), h);
        }
        out
    }
}

/// One fused pass over the product buffer: `out[r][c] = act(out[r][c] + bias[c])`.
/// Each element sees exactly the unfused sequence (bias add, then the
/// activation applied to that sum), so fusion preserves bitwise equality.
fn fused_bias_act(out: &mut Matrix, bias: &Matrix, act: impl Fn(f32) -> f32) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), out.cols(), "bias width mismatch");
    let cols = out.cols().max(1);
    for row in out.data_mut().chunks_mut(cols) {
        for (o, &b) in row.iter_mut().zip(bias.data()) {
            *o = act(*o + b);
        }
    }
}

thread_local! {
    static CTX: RefCell<InferCtx> = RefCell::new(InferCtx::new());
}

/// Run `f` with this thread's persistent inference context. Buffers
/// released back to the context are reused by later calls on the same
/// thread, which is what makes repeated assessments allocation-free at
/// steady state. A nested call (the context is already borrowed higher up
/// this thread's stack) runs on a fresh scratch context instead of
/// panicking the `RefCell`.
pub fn with_ctx<R>(f: impl FnOnce(&mut InferCtx) -> R) -> R {
    CTX.with(|c| match c.try_borrow_mut() {
        Ok(mut ctx) => f(&mut ctx),
        Err(_) => f(&mut InferCtx::new()),
    })
}

/// Free-buffer count of this thread's persistent pool (test hook).
pub fn thread_pool_free_buffers() -> usize {
    CTX.with(|c| {
        c.try_borrow()
            .map(|ctx| ctx.pool().free_buffers())
            .unwrap_or(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_matmul_matches_serial() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let mut ctx = InferCtx::new();
        let c = ctx.matmul(&a, &b);
        assert_eq!(c, a.matmul(&b));
        ctx.release(c);
        // second product reuses the released buffer and still matches
        let c2 = ctx.matmul(&b, &a);
        assert_eq!(c2, b.matmul(&a));
        assert_eq!(ctx.pool().free_buffers(), 0);
        ctx.release(c2);
        assert_eq!(ctx.pool().free_buffers(), 1);
    }

    #[test]
    fn fused_linear_matches_unfused_ops_bitwise() {
        let x = Matrix::from_rows(&[vec![0.5, -1.5], vec![2.0, 0.25]]);
        let w = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.75, 3.0, -0.125]]);
        let b = Matrix::row_vector(vec![0.1, -0.2, 0.3]);
        let mut ctx = InferCtx::new();
        let reference = x.matmul(&w).add_row_broadcast(&b);
        let lin = ctx.linear(&x, &w, &b);
        for (l, r) in lin.data().iter().zip(reference.data()) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
        let relu_ref = reference.map(|v| v.max(0.0));
        let fused = ctx.linear_relu(&x, &w, &b);
        for (l, r) in fused.data().iter().zip(relu_ref.data()) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
        let sig_ref = reference.map(|v| 1.0 / (1.0 + (-v).exp()));
        let fused_sig = ctx.linear_sigmoid(&x, &w, &b);
        for (l, r) in fused_sig.data().iter().zip(sig_ref.data()) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn pool_reuses_buffers_and_rezeroes() {
        let mut pool = BufferPool::new();
        let mut m = pool.acquire(3, 3);
        m.data_mut().fill(7.0);
        pool.release(m);
        let m2 = pool.acquire(2, 4); // smaller: must fit in the 9-cap buffer
        assert!(m2.data().iter().all(|&x| x == 0.0), "recycled buffer dirty");
        assert_eq!(pool.free_buffers(), 0);
        pool.release(m2);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn readouts_match_matrix_kernels() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, -2.0]]);
        let mut ctx = InferCtx::new();
        assert_eq!(ctx.mean_rows(&m), m.mean_rows());
        assert_eq!(ctx.max_rows(&m), m.max_rows());
        assert_eq!(ctx.sum_rows(&m), m.sum_rows());
        let g = ctx.gather_rows(&m, &[1, 0, 1]);
        assert_eq!(g, m.gather_rows(&[1, 0, 1]));
        let cc = ctx.concat_cols(&m, &g.gather_rows(&[0, 1]));
        assert_eq!(cc.shape(), (2, 4));
        assert_eq!(cc.row(0), &[1.0, 10.0, 3.0, -2.0]);
    }

    #[test]
    fn weighted_sum_matches_tape_formulation() {
        let h0 = Matrix::row_vector(vec![1.0, 2.0]);
        let h1 = Matrix::row_vector(vec![3.0, 4.0]);
        let w = Matrix::row_vector(vec![0.25, 0.75]);
        let mut ctx = InferCtx::new();
        let out = ctx.weighted_sum(&[h0.clone(), h1.clone()], &w);
        let mut reference = Matrix::zeros(1, 2);
        reference.axpy(0.25, &h0);
        reference.axpy(0.75, &h1);
        for (l, r) in out.data().iter().zip(reference.data()) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn nested_with_ctx_does_not_panic() {
        let n = with_ctx(|outer| {
            let m = outer.acquire(2, 2);
            let inner = with_ctx(|inner| inner.acquire(1, 1).len());
            outer.release(m);
            inner
        });
        assert_eq!(n, 1);
    }
}
