//! One forward body, two executors.
//!
//! Every GNN layer and model writes its forward pass once, generic over
//! [`Exec`]. Training runs the body on a [`TapeExec`], which records each
//! op on an autograd [`Tape`]; serving runs the same body on an
//! [`InferExec`], which computes the values into buffers from an
//! [`InferCtx`] pool, in place where the signature allows, and builds no
//! tape.
//!
//! Buffer discipline lives in the signatures. An op that borrows its
//! operands writes a fresh activation (a pooled buffer when serving). An op
//! that takes an activation by value may write its result into that
//! activation's buffer (in place when serving) and releases any other
//! operand it consumes. [`Exec::release`] hands a buffer back once the body
//! is done with it. On the tape an activation is a [`Var`] handle and
//! releasing is a no-op, so a body drives the buffer pool through exactly
//! the acquire/release sequence it spells out, and the tape through exactly
//! the op sequence it spells out.
//!
//! The two executors agree bit for bit because they run the same kernels.
//! Products go through `par::{matmul_into, spmm_into}` on both sides. Every
//! other op has one body on [`Matrix`] that both sides call: the tape's op
//! allocates its output (`mean_rows`, `gather_rows`, …) where `InferExec`
//! takes a pooled buffer (`mean_rows_into`, `gather_rows_into`, …) or
//! works in place (`softmax_rows_inplace`, `add_bias_act`). The ReLU and
//! sigmoid formulas are spelled once, in `matrix`.
//! `crates/gnn/tests/infer_equiv.rs` property-tests every model. Weights
//! are addressed by [`ParamId`]: the tape reads the var bound for it this
//! pass, inference reads the [`ParamSet`] directly.
//!
//! Terms that only training consumes (VIPool's infomax loss, InfoGraph's
//! mutual-information loss) are recorded through [`Exec::train_only`] at
//! their place in the pass; inference skips them.
//!
//! The executors' methods are `#[inline]`: each only records one tape op
//! or runs one kernel on a pooled buffer, and the generic bodies that call
//! them are instantiated in other crates, where a non-inline method stays
//! an extra call. Without the attribute the benchmark's `fleet_churn`
//! workload (graphs of 1-8 nodes, where per-op overhead shows) ran 15-80%
//! slower at p50.

use crate::infer::InferCtx;
use crate::matrix::{relu, sigmoid};
use crate::{Csr, Matrix, ParamId, ParamSet, Tape, Var};

/// The op set of the GNN forward passes.
pub trait Exec {
    /// An activation: a tape node, or a (pooled) matrix.
    type T;

    /// The value behind an activation.
    fn value<'v>(&'v self, a: &'v Self::T) -> &'v Matrix;
    /// Hand an activation's buffer back for reuse (no-op on the tape).
    fn release(&mut self, a: Self::T);
    /// A graph input built for this pass: a tape constant, or the matrix
    /// itself. It is dropped, never released, when the pass ends.
    fn input(&mut self, m: Matrix) -> Self::T;
    /// A constant-filled `rows × cols` matrix.
    fn filled(&mut self, rows: usize, cols: usize, value: f32) -> Self::T;

    /// Sparse propagation `adj × h`.
    fn spmm(&mut self, adj: &Csr, h: &Self::T) -> Self::T;
    /// `a × b`.
    fn matmul(&mut self, a: &Self::T, b: &Self::T) -> Self::T;
    /// `a × w`.
    fn matmul_w(&mut self, a: &Self::T, w: ParamId) -> Self::T;
    /// `x × w` for graph features the caller keeps: the tape records a
    /// constant copy of `x`, inference reads it in place.
    fn input_matmul_w(&mut self, x: &Matrix, w: ParamId) -> Self::T;
    /// Affine layer `x × w + b`.
    fn linear(&mut self, x: &Self::T, w: ParamId, b: ParamId) -> Self::T;
    /// `relu(x × w + b)`.
    fn linear_relu(&mut self, x: &Self::T, w: ParamId, b: ParamId) -> Self::T;
    /// `sigmoid(x × w + b)`.
    fn linear_sigmoid(&mut self, x: &Self::T, w: ParamId, b: ParamId) -> Self::T;
    /// `x + b`, the `1 × c` bias row broadcast over the rows of `x`.
    fn add_bias(&mut self, x: Self::T, b: ParamId) -> Self::T;

    /// `a + b` element-wise, into `a`'s buffer; `b` is released.
    fn add(&mut self, a: Self::T, b: Self::T) -> Self::T;
    /// `a ∘ b` element-wise, into `a`'s buffer; `b` is released.
    fn mul(&mut self, a: Self::T, b: Self::T) -> Self::T;
    /// `a ∘ b` element-wise, into `b`'s buffer (the tape records `mul(a, b)`).
    fn mul_into(&mut self, a: &Self::T, b: Self::T) -> Self::T;
    /// `a ∘ w` element-wise, in place.
    fn mul_w(&mut self, a: Self::T, w: ParamId) -> Self::T;
    /// `(1 + ε) · h` for a `1 × 1` weight `ε` (GIN's self weight).
    fn scale_one_plus(&mut self, h: &Self::T, eps: ParamId) -> Self::T;
    /// `Σ_p w[0,p] · hs[p]` for a `1 × P` weight row.
    fn weighted_sum(&mut self, hs: &[Self::T], w: &Self::T) -> Self::T;

    fn relu(&mut self, a: Self::T) -> Self::T;
    fn sigmoid(&mut self, a: Self::T) -> Self::T;
    fn tanh(&mut self, a: Self::T) -> Self::T;
    /// Row-wise softmax.
    fn softmax_rows(&mut self, a: Self::T) -> Self::T;

    /// Column-wise mean, `1 × c`.
    fn mean_rows(&mut self, a: &Self::T) -> Self::T;
    /// Column-wise max, `1 × c`.
    fn max_rows(&mut self, a: &Self::T) -> Self::T;
    /// Column-wise sum, `1 × c`.
    fn sum_rows(&mut self, a: &Self::T) -> Self::T;
    /// `[a | b]`.
    fn concat_cols(&mut self, a: &Self::T, b: &Self::T) -> Self::T;
    /// Rows of `a` picked by `idx`.
    fn gather_rows(&mut self, a: &Self::T, idx: &[usize]) -> Self::T;
    /// A `1 × n` row whose entry `i` is the sum of all elements of
    /// `part(self, item_i)` (the metapath attention scores). Each part is
    /// consumed as soon as it is summed.
    fn row_of_sums<I, F>(&mut self, items: I, part: F) -> Self::T
    where
        I: ExactSizeIterator,
        F: FnMut(&mut Self, I::Item) -> Self::T;

    /// The tape nodes behind `acts`, kept for a training-only term recorded
    /// later in the pass; `None` when serving.
    fn taped<const N: usize>(&self, acts: [&Self::T; N]) -> Option<[Var; N]>;
    /// Record a training-only term at this point of the pass. The tape runs
    /// `f`; inference skips it and returns `None`.
    fn train_only<R>(&mut self, f: impl FnOnce(&mut TapeExec<'_>) -> R) -> Option<R>;
}

/// Training executor: records every op on a tape.
pub struct TapeExec<'a> {
    /// The tape; training-only terms record tape-specific ops (losses) on it.
    pub tape: &'a mut Tape,
    /// The model's parameters bound on `tape` (`ParamSet::bind`).
    vars: &'a [Var],
}

impl<'a> TapeExec<'a> {
    #[inline]
    pub fn new(tape: &'a mut Tape, vars: &'a [Var]) -> Self {
        Self { tape, vars }
    }

    /// The tape node bound to parameter `id` this pass.
    #[inline]
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }
}

impl Exec for TapeExec<'_> {
    type T = Var;

    #[inline]
    fn value<'v>(&'v self, a: &'v Var) -> &'v Matrix {
        self.tape.value(*a)
    }

    #[inline]
    fn release(&mut self, _a: Var) {}

    #[inline]
    fn input(&mut self, m: Matrix) -> Var {
        self.tape.constant(m)
    }

    #[inline]
    fn filled(&mut self, rows: usize, cols: usize, value: f32) -> Var {
        self.tape.constant(Matrix::full(rows, cols, value))
    }

    #[inline]
    fn spmm(&mut self, adj: &Csr, h: &Var) -> Var {
        self.tape.spmm(adj, *h)
    }

    #[inline]
    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.matmul(*a, *b)
    }

    #[inline]
    fn matmul_w(&mut self, a: &Var, w: ParamId) -> Var {
        let w = self.var(w);
        self.tape.matmul(*a, w)
    }

    #[inline]
    fn input_matmul_w(&mut self, x: &Matrix, w: ParamId) -> Var {
        let x = self.tape.constant(x.clone());
        let w = self.var(w);
        self.tape.matmul(x, w)
    }

    #[inline]
    fn linear(&mut self, x: &Var, w: ParamId, b: ParamId) -> Var {
        let (w, b) = (self.var(w), self.var(b));
        self.tape.linear(*x, w, b)
    }

    #[inline]
    fn linear_relu(&mut self, x: &Var, w: ParamId, b: ParamId) -> Var {
        let z = self.linear(x, w, b);
        self.tape.relu(z)
    }

    #[inline]
    fn linear_sigmoid(&mut self, x: &Var, w: ParamId, b: ParamId) -> Var {
        let z = self.linear(x, w, b);
        self.tape.sigmoid(z)
    }

    #[inline]
    fn add_bias(&mut self, x: Var, b: ParamId) -> Var {
        let b = self.var(b);
        self.tape.add_bias(x, b)
    }

    #[inline]
    fn add(&mut self, a: Var, b: Var) -> Var {
        self.tape.add(a, b)
    }

    #[inline]
    fn mul(&mut self, a: Var, b: Var) -> Var {
        self.tape.mul(a, b)
    }

    #[inline]
    fn mul_into(&mut self, a: &Var, b: Var) -> Var {
        self.tape.mul(*a, b)
    }

    #[inline]
    fn mul_w(&mut self, a: Var, w: ParamId) -> Var {
        let w = self.var(w);
        self.tape.mul(a, w)
    }

    #[inline]
    fn scale_one_plus(&mut self, h: &Var, eps: ParamId) -> Var {
        let one = self.tape.constant(Matrix::full(1, 1, 1.0));
        let eps = self.var(eps);
        let s = self.tape.add(eps, one);
        self.tape.weighted_sum(&[*h], s)
    }

    #[inline]
    fn weighted_sum(&mut self, hs: &[Var], w: &Var) -> Var {
        self.tape.weighted_sum(hs, *w)
    }

    #[inline]
    fn relu(&mut self, a: Var) -> Var {
        self.tape.relu(a)
    }

    #[inline]
    fn sigmoid(&mut self, a: Var) -> Var {
        self.tape.sigmoid(a)
    }

    #[inline]
    fn tanh(&mut self, a: Var) -> Var {
        self.tape.tanh(a)
    }

    #[inline]
    fn softmax_rows(&mut self, a: Var) -> Var {
        self.tape.softmax_rows(a)
    }

    #[inline]
    fn mean_rows(&mut self, a: &Var) -> Var {
        self.tape.mean_rows(*a)
    }

    #[inline]
    fn max_rows(&mut self, a: &Var) -> Var {
        self.tape.max_rows(*a)
    }

    #[inline]
    fn sum_rows(&mut self, a: &Var) -> Var {
        self.tape.sum_rows_readout(*a)
    }

    #[inline]
    fn concat_cols(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.concat_cols(*a, *b)
    }

    #[inline]
    fn gather_rows(&mut self, a: &Var, idx: &[usize]) -> Var {
        self.tape.gather_rows(*a, idx)
    }

    /// Each part is reduced with `sum_all` and appended with `concat_cols`
    /// as soon as it is built, so the row's gradient reaches every part.
    #[inline]
    fn row_of_sums<I, F>(&mut self, items: I, mut part: F) -> Var
    where
        I: ExactSizeIterator,
        F: FnMut(&mut Self, I::Item) -> Var,
    {
        let mut row: Option<Var> = None;
        for item in items {
            let p = part(self, item);
            let s = self.tape.sum_all(p);
            row = Some(match row {
                Some(r) => self.tape.concat_cols(r, s),
                None => s,
            });
        }
        row.unwrap_or_else(|| self.tape.constant(Matrix::zeros(1, 0)))
    }

    #[inline]
    fn taped<const N: usize>(&self, acts: [&Var; N]) -> Option<[Var; N]> {
        Some(acts.map(|a| *a))
    }

    #[inline]
    fn train_only<R>(&mut self, f: impl FnOnce(&mut TapeExec<'_>) -> R) -> Option<R> {
        Some(f(self))
    }
}

/// Serving executor: the tape's kernels on [`InferCtx`]'s pooled buffers,
/// over a model's parameters, no tape.
pub struct InferExec<'a> {
    ctx: &'a mut InferCtx,
    params: &'a ParamSet,
}

impl<'a> InferExec<'a> {
    #[inline]
    pub fn new(ctx: &'a mut InferCtx, params: &'a ParamSet) -> Self {
        Self { ctx, params }
    }

    /// `act(x × w + b)`: the product in a pooled buffer, then the bias add
    /// and `act` fused into one pass over it.
    #[inline]
    fn affine(&mut self, x: &Matrix, w: ParamId, b: ParamId, act: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.ctx.matmul(x, self.params.get(w));
        out.add_bias_act(self.params.get(b), act);
        out
    }
}

/// `a[i] = f(a[i], b[i])` over two equally shaped matrices.
fn zip_inplace(a: &mut Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.shape(), b.shape(), "element-wise shape mismatch");
    for (x, &y) in a.data_mut().iter_mut().zip(b.data()) {
        *x = f(*x, y);
    }
}

impl Exec for InferExec<'_> {
    type T = Matrix;

    #[inline]
    fn value<'v>(&'v self, a: &'v Matrix) -> &'v Matrix {
        a
    }

    #[inline]
    fn release(&mut self, a: Matrix) {
        self.ctx.release(a);
    }

    #[inline]
    fn input(&mut self, m: Matrix) -> Matrix {
        m
    }

    #[inline]
    fn filled(&mut self, rows: usize, cols: usize, value: f32) -> Matrix {
        self.ctx.filled(rows, cols, value)
    }

    #[inline]
    fn spmm(&mut self, adj: &Csr, h: &Matrix) -> Matrix {
        self.ctx.spmm(adj, h)
    }

    #[inline]
    fn matmul(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        self.ctx.matmul(a, b)
    }

    #[inline]
    fn matmul_w(&mut self, a: &Matrix, w: ParamId) -> Matrix {
        self.ctx.matmul(a, self.params.get(w))
    }

    #[inline]
    fn input_matmul_w(&mut self, x: &Matrix, w: ParamId) -> Matrix {
        self.ctx.matmul(x, self.params.get(w))
    }

    #[inline]
    fn linear(&mut self, x: &Matrix, w: ParamId, b: ParamId) -> Matrix {
        self.affine(x, w, b, |v| v)
    }

    #[inline]
    fn linear_relu(&mut self, x: &Matrix, w: ParamId, b: ParamId) -> Matrix {
        self.affine(x, w, b, relu)
    }

    #[inline]
    fn linear_sigmoid(&mut self, x: &Matrix, w: ParamId, b: ParamId) -> Matrix {
        self.affine(x, w, b, sigmoid)
    }

    #[inline]
    fn add_bias(&mut self, mut x: Matrix, b: ParamId) -> Matrix {
        x.add_bias_act(self.params.get(b), |v| v);
        x
    }

    #[inline]
    fn add(&mut self, mut a: Matrix, b: Matrix) -> Matrix {
        zip_inplace(&mut a, &b, |x, y| x + y);
        self.ctx.release(b);
        a
    }

    #[inline]
    fn mul(&mut self, mut a: Matrix, b: Matrix) -> Matrix {
        zip_inplace(&mut a, &b, |x, y| x * y);
        self.ctx.release(b);
        a
    }

    /// f32 multiplication commutes, so `b ∘ a` in `b`'s buffer has the
    /// bits of the tape's `mul(a, b)`.
    #[inline]
    fn mul_into(&mut self, a: &Matrix, mut b: Matrix) -> Matrix {
        zip_inplace(&mut b, a, |x, y| x * y);
        b
    }

    #[inline]
    fn mul_w(&mut self, mut a: Matrix, w: ParamId) -> Matrix {
        zip_inplace(&mut a, self.params.get(w), |x, y| x * y);
        a
    }

    /// The tape's `weighted_sum(&[h], ε + 1)`: a zeroed accumulator taking
    /// one `axpy` with the same scalar.
    #[inline]
    fn scale_one_plus(&mut self, h: &Matrix, eps: ParamId) -> Matrix {
        let s = self.params.get(eps).get(0, 0) + 1.0;
        let mut out = self.ctx.acquire(h.rows(), h.cols());
        out.axpy(s, h);
        out
    }

    #[inline]
    fn weighted_sum(&mut self, hs: &[Matrix], w: &Matrix) -> Matrix {
        let (rows, cols) = hs[0].shape();
        let mut out = self.ctx.acquire(rows, cols);
        out.add_weighted(hs.iter(), w);
        out
    }

    #[inline]
    fn relu(&mut self, mut a: Matrix) -> Matrix {
        a.map_inplace(relu);
        a
    }

    #[inline]
    fn sigmoid(&mut self, mut a: Matrix) -> Matrix {
        a.map_inplace(sigmoid);
        a
    }

    #[inline]
    fn tanh(&mut self, mut a: Matrix) -> Matrix {
        a.map_inplace(f32::tanh);
        a
    }

    #[inline]
    fn softmax_rows(&mut self, mut a: Matrix) -> Matrix {
        a.softmax_rows_inplace();
        a
    }

    #[inline]
    fn mean_rows(&mut self, a: &Matrix) -> Matrix {
        let mut out = self.ctx.acquire(1, a.cols());
        a.mean_rows_into(&mut out);
        out
    }

    #[inline]
    fn max_rows(&mut self, a: &Matrix) -> Matrix {
        let mut out = self.ctx.filled(1, a.cols(), f32::NEG_INFINITY);
        a.max_rows_into(&mut out, |_, _| {});
        out
    }

    #[inline]
    fn sum_rows(&mut self, a: &Matrix) -> Matrix {
        let mut out = self.ctx.acquire(1, a.cols());
        a.sum_rows_into(&mut out);
        out
    }

    #[inline]
    fn concat_cols(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = self.ctx.acquire(a.rows(), a.cols() + b.cols());
        a.concat_cols_into(b, &mut out);
        out
    }

    #[inline]
    fn gather_rows(&mut self, a: &Matrix, idx: &[usize]) -> Matrix {
        let mut out = self.ctx.acquire(idx.len(), a.cols());
        a.gather_rows_into(idx, &mut out);
        out
    }

    /// One pooled `1 × n` buffer filled left to right: the layout of the
    /// tape's `concat_cols` chain, with `Matrix::sum` as its `sum_all`.
    #[inline]
    fn row_of_sums<I, F>(&mut self, items: I, mut part: F) -> Matrix
    where
        I: ExactSizeIterator,
        F: FnMut(&mut Self, I::Item) -> Matrix,
    {
        let mut row = self.ctx.acquire(1, items.len());
        for (i, item) in items.enumerate() {
            let p = part(self, item);
            row.set(0, i, p.sum());
            self.ctx.release(p);
        }
        row
    }

    #[inline]
    fn taped<const N: usize>(&self, _acts: [&Matrix; N]) -> Option<[Var; N]> {
        None
    }

    #[inline]
    fn train_only<R>(&mut self, _f: impl FnOnce(&mut TapeExec<'_>) -> R) -> Option<R> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Weights `w` (2×4), `b` (1×4), `eps` (1×1) and `q` (1×4).
    fn params() -> (ParamSet, [ParamId; 4]) {
        let mut p = ParamSet::new();
        let w = p.add(
            "w",
            Matrix::from_rows(&[vec![0.3, -0.2, 0.7, 0.1], vec![1.1, 0.4, -0.6, 0.9]]),
        );
        let b = p.add("b", Matrix::row_vector(vec![0.05, -0.1, 0.2, 0.0]));
        let eps = p.add("eps", Matrix::full(1, 1, 0.25));
        let q = p.add("q", Matrix::row_vector(vec![0.5, -1.5, 0.75, 2.0]));
        (p, [w, b, eps, q])
    }

    /// A small pass over most of the op set.
    fn body<X: Exec>(x: &mut X, [w, b, eps, q]: [ParamId; 4]) -> X::T {
        let adj = Csr::normalized_adjacency(3, &[(0, 1), (1, 2)]);
        let h = x.input(Matrix::from_rows(&[
            vec![0.5, -1.0],
            vec![2.0, 0.25],
            vec![-0.75, 1.5],
        ]));
        let p = x.spmm(&adj, &h);
        let l = x.linear_relu(&p, w, b);
        x.release(p);
        let s = x.scale_one_plus(&l, eps);
        let g = x.gather_rows(&s, &[2, 0]);
        x.release(s);
        let scores = x.row_of_sums([&l, &g].into_iter(), |x, a| {
            let m = x.mean_rows(a);
            x.mul_w(m, q)
        });
        let beta = x.softmax_rows(scores);
        let hs = [x.max_rows(&l), x.sum_rows(&g)];
        let fused = x.weighted_sum(&hs, &beta);
        for m in hs {
            x.release(m);
        }
        x.release(beta);
        let t = x.tanh(fused);
        let z = x.linear_sigmoid(&h, w, b);
        let zb = x.add_bias(z, b);
        let gated = x.mul_into(&l, zb);
        let c = x.concat_cols(&t, &t);
        x.release(t);
        x.release(l);
        x.release(g);
        let half = x.filled(3, 4, 0.5);
        let sq = x.mul(gated, half);
        let r = x.relu(sq);
        let shift = x.filled(3, 4, -0.25);
        let sum = x.add(r, shift);
        let proj = x.filled(4, 2, 0.5);
        let tail = x.matmul(&sum, &proj);
        x.release(sum);
        x.release(proj);
        let tail_w = x.matmul_w(&tail, w);
        x.release(tail);
        let tail_m = x.mean_rows(&tail_w);
        x.release(tail_w);
        let wide = x.concat_cols(&c, &tail_m);
        x.release(c);
        x.release(tail_m);
        x.sigmoid(wide)
    }

    #[test]
    fn executors_agree_bitwise() {
        let (params, ids) = params();
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let out = body(&mut TapeExec::new(&mut tape, &vars), ids);
        let taped = bits(tape.value(out));
        let mut ctx = InferCtx::new();
        let served = body(&mut InferExec::new(&mut ctx, &params), ids);
        assert_eq!(taped, bits(&served));
    }

    #[test]
    fn serving_reaches_a_steady_pool() {
        let (params, ids) = params();
        let mut ctx = InferCtx::new();
        for _ in 0..2 {
            let out = body(&mut InferExec::new(&mut ctx, &params), ids);
            ctx.release(out);
        }
        let warm = ctx.pool().free_buffers();
        let out = body(&mut InferExec::new(&mut ctx, &params), ids);
        ctx.release(out);
        assert_eq!(ctx.pool().free_buffers(), warm);
    }

    #[test]
    fn training_only_terms_run_on_the_tape_alone() {
        let (params, _) = params();
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let mut t = TapeExec::new(&mut tape, &vars);
        let a = t.filled(1, 1, 2.0);
        let [v] = t.taped([&a]).expect("the tape keeps its nodes");
        let before = t.tape.len();
        let recorded = t.train_only(|t| t.tape.scale(v, 3.0));
        assert_eq!(recorded.map(|r| t.tape.value(r).get(0, 0)), Some(6.0));
        assert_eq!(t.tape.len(), before + 1);

        let mut ctx = InferCtx::new();
        let mut x = InferExec::new(&mut ctx, &params);
        let a = x.filled(1, 1, 2.0);
        assert!(x.taped([&a]).is_none());
        assert!(x.train_only(|t| t.tape.len()).is_none());
    }
}
