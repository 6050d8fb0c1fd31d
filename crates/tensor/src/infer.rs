//! Pooled activation buffers for tape-free, forward-only execution.
//!
//! Training needs the autograd tape: every op records its value and a
//! backward closure, and every intermediate activation must stay alive
//! until `backward` runs. Serving needs none of that — `BENCH_trace.json`
//! showed the detector paying the full tape price per assessment (~29.8k
//! matrix allocations / 2.28M elements over a 105-step run) just to throw
//! the tape away. This module is the serving side's memory:
//!
//! - [`BufferPool`] — a free list of activation buffers. Acquiring a matrix
//!   reuses a previously released buffer when one is large enough
//!   (re-zeroed, so a kernel that accumulates into it sees exactly the
//!   state a fresh `Matrix::zeros` would give it); only a miss
//!   allocates, and only a miss ticks the `tensor.alloc.*` counters.
//! - [`InferCtx`] — the pool a tape-free forward pass draws from. Its
//!   products only take a pooled buffer and fill it through
//!   `par::{matmul_into, spmm_into}`, the primitives behind the tape's
//!   products, so results are **bitwise identical** to a tape forward at
//!   any thread count (property-tested in
//!   `crates/gnn/tests/infer_equiv.rs`).
//! - [`with_ctx`] — a thread-local context. Repeated assessments on a
//!   persistent thread reach a steady state where the pool serves every
//!   activation and the serving path stops allocating matrices entirely.
//!
//! No op is written here. The layers are written once against
//! [`crate::exec::Exec`], and [`crate::exec::InferExec`] runs each op as a
//! pooled buffer plus the one kernel the tape's op runs too: the `*_into`
//! readouts and shape ops on [`Matrix`], the in-place softmax, and the
//! bias add with its activation fused in (`Matrix::add_bias_act`). The tape
//! stays authoritative for training; this module only supplies memory.

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

/// Forward-only execution context: the [`BufferPool`] a tape-free forward
/// pass takes its activations from and hands them back to.
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

    /// Pooled matrix filled with a constant (the pooled `Matrix::full`).
    pub fn filled(&mut self, rows: usize, cols: usize, value: f32) -> Matrix {
        let mut m = self.pool.acquire(rows, cols);
        m.data_mut().fill(value);
        m
    }

    /// Hand an activation back for reuse.
    pub fn release(&mut self, m: Matrix) {
        self.pool.release(m);
    }

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
    use crate::{Exec, InferExec, ParamSet};

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
        let reference = x.matmul(&w).add_row_broadcast(&b);
        let mut params = ParamSet::new();
        let (w, b) = (params.add("w", w), params.add("b", b));
        let mut ctx = InferCtx::new();
        let mut ctx = InferExec::new(&mut ctx, &params);
        let lin = ctx.linear(&x, w, b);
        for (l, r) in lin.data().iter().zip(reference.data()) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
        let relu_ref = reference.map(|v| v.max(0.0));
        let fused = ctx.linear_relu(&x, w, b);
        for (l, r) in fused.data().iter().zip(relu_ref.data()) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
        let sig_ref = reference.map(|v| 1.0 / (1.0 + (-v).exp()));
        let fused_sig = ctx.linear_sigmoid(&x, w, b);
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
        // the readouts below run on recycled buffers, released dirty
        let dirty: Vec<Matrix> = (0..4).map(|_| ctx.filled(2, 4, 7.0)).collect();
        dirty.into_iter().for_each(|d| ctx.release(d));
        let params = ParamSet::new();
        let mut ctx = InferExec::new(&mut ctx, &params);
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
        let params = ParamSet::new();
        let mut ctx = InferCtx::new();
        let out = InferExec::new(&mut ctx, &params).weighted_sum(&[h0.clone(), h1.clone()], &w);
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
