//! Row-major dense `f32` matrix with the kernel set GNN training needs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// Vectors are represented as `1 × n` or `n × 1` matrices. All binary ops
/// panic on shape mismatch — shape errors are programming errors in this
/// workspace, not runtime conditions.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        if glint_trace::enabled() {
            glint_trace::counter("tensor.alloc.matrices", 1);
            glint_trace::counter("tensor.alloc.elements", (rows * cols) as u64);
        }
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create from a flat row-major buffer. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Create from nested rows (test convenience).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self {
            rows: 1,
            cols: n,
            data,
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        matmul_block(self, rhs, 0, self.rows, &mut out.data);
        out
    }

    /// `selfᵀ × rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        t_matmul_block(self, rhs, 0, self.cols, &mut out.data);
        out
    }

    /// `self × rhsᵀ` without materializing the transpose.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        matmul_t_block(self, rhs, 0, self.rows, &mut out.data);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary zip into a new matrix. Panics on shape mismatch.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Accumulate `alpha * rhs` into `self`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Add a `1 × cols` row vector to every row (broadcast bias add).
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_bias_act(bias, |x| x);
        out
    }

    /// The broadcast bias add with an element-wise activation fused into
    /// the same pass, in place: `self[r][c] = act(self[r][c] + bias[c])`.
    /// Each element sees exactly the unfused sequence (the add, then `act`
    /// of the sum), so fusion keeps the bits.
    pub fn add_bias_act(&mut self, bias: &Matrix, act: impl Fn(f32) -> f32) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for row in self.data.chunks_mut(self.cols.max(1)) {
            for (o, &b) in row.iter_mut().zip(&bias.data) {
                *o = act(*o + b);
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise mean: returns a `1 × cols` matrix.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.mean_rows_into(&mut out);
        out
    }

    /// [`mean_rows`](Self::mean_rows) into a zeroed `1 × cols` buffer: the
    /// column sums, then one scale by `1 / rows` (none for zero rows).
    pub(crate) fn mean_rows_into(&self, out: &mut Matrix) {
        if self.rows == 0 {
            return;
        }
        self.sum_rows_into(out);
        let inv = 1.0 / self.rows as f32;
        out.map_inplace(|x| x * inv);
    }

    /// Column-wise max: returns a `1 × cols` matrix (−∞ on zero rows).
    pub fn max_rows(&self) -> Matrix {
        let mut out = Matrix::full(1, self.cols, f32::NEG_INFINITY);
        self.max_rows_into(&mut out, |_, _| {});
        out
    }

    /// [`max_rows`](Self::max_rows) into a `1 × cols` buffer holding −∞:
    /// a strict `>` update over the rows in order. `raised(c, r)` runs each
    /// time row `r` raises column `c`, so its last call for a column names
    /// the first row holding that column's maximum.
    pub(crate) fn max_rows_into(&self, out: &mut Matrix, mut raised: impl FnMut(usize, usize)) {
        debug_assert_eq!(out.shape(), (1, self.cols));
        for r in 0..self.rows {
            for (c, (o, &x)) in out.data.iter_mut().zip(self.row(r)).enumerate() {
                if x > *o {
                    *o = x;
                    raised(c, r);
                }
            }
        }
    }

    /// Column-wise sum: returns a `1 × cols` matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.sum_rows_into(&mut out);
        out
    }

    /// [`sum_rows`](Self::sum_rows) accumulated into a zeroed `1 × cols`
    /// buffer, row by row in order.
    pub(crate) fn sum_rows_into(&self, out: &mut Matrix) {
        debug_assert_eq!(out.shape(), (1, self.cols));
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// `out += Σ_p w[0,p] · hs[p]` for a `1 × P` weight row: one
    /// [`axpy`](Self::axpy) per part, in order. Into a zeroed buffer this is
    /// the weighted sum of the parts.
    pub(crate) fn add_weighted<'a>(
        &mut self,
        hs: impl ExactSizeIterator<Item = &'a Matrix>,
        w: &Matrix,
    ) {
        assert_eq!(w.shape(), (1, hs.len()), "weights must be 1×P");
        for (p, h) in hs.enumerate() {
            assert_eq!(h.shape(), self.shape(), "weighted_sum shape mismatch");
            self.axpy(w.get(0, p), h);
        }
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// In-place row-wise softmax: each row is shifted by its max,
    /// exponentiated, and divided by its sum when that sum is positive.
    pub fn softmax_rows_inplace(&mut self) {
        for row in self.data.chunks_mut(self.cols.max(1)) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        }
    }

    /// Gather rows by index into a new matrix.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// [`gather_rows`](Self::gather_rows) into an `idx.len() × cols`
    /// buffer, every element of which is overwritten.
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        debug_assert_eq!(out.shape(), (idx.len(), self.cols));
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i));
        }
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        self.concat_cols_into(rhs, &mut out);
        out
    }

    /// [`concat_cols`](Self::concat_cols) into a `rows × (cols +
    /// rhs.cols)` buffer, every element of which is overwritten.
    pub(crate) fn concat_cols_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "concat_cols row mismatch");
        debug_assert_eq!(out.shape(), (self.rows, self.cols + rhs.cols));
        for r in 0..self.rows {
            let (left, right) = out.row_mut(r).split_at_mut(self.cols);
            left.copy_from_slice(self.row(r));
            right.copy_from_slice(rhs.row(r));
        }
    }

    /// Vertical concatenation (stack on top of each other).
    pub fn concat_rows(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "concat_rows col mismatch");
        let mut data = Vec::with_capacity((self.rows + rhs.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        }
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Squared Euclidean distance between two equally-shaped matrices.
    pub fn sq_dist(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Dot product treating both matrices as flat vectors.
    pub fn dot(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.len(), rhs.len());
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Index of the maximum element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// `max(x, 0)`: the one spelling of the ReLU formula.
#[inline]
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// `1 / (1 + e^{−x})`: the one spelling of the logistic sigmoid.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

// ---------------------------------------------------------------------------
// Block kernels.
//
// Each function computes output rows `[row_lo, row_hi)` into `out_block`, a
// slice covering exactly those rows of the result buffer. The serial entry
// points above call them over the full row range; the parallel layer (`par`)
// hands each worker a disjoint block via `split_at_mut`. Because each output
// element is accumulated by exactly one worker using exactly the serial
// per-element loop, the parallel results are bitwise identical to the serial
// ones at any thread count.
// ---------------------------------------------------------------------------

/// Width, in `f32`s, of the column tile the dense-output kernels accumulate
/// in. 32 keeps the accumulator in eight 128-bit registers on baseline
/// x86-64 and covers the 32-wide attention products in one tile.
const TILE: usize = 32;

/// Store `Σ coef × src` into `out_row`, summing the `(coef, src)` pairs in
/// the order `terms()` yields them — the one accumulation loop behind
/// `matmul`, `t_matmul`, `spmm` and `t_spmm`. Every `src` row is as wide as
/// `out_row`; `terms` is called once per tile.
///
/// The row is processed one [`TILE`]-wide column tile at a time: the tile's
/// accumulator starts at +0.0, lives in registers for the whole pass over
/// `terms`, and is stored once at the end. A last tile narrower than
/// `TILE` is zeroed and accumulates in place. Each output element therefore
/// sees `((0 + c₀s₀) + c₁s₁) + …` with one rounding per multiply and per
/// add — no FMA, no partial sums, no reassociation — so the bits do not
/// depend on the tile width, and every element of `out_row` is written.
///
/// There is no zero-skip: a `coef` of ±0 multiplies its row like any other.
/// That costs nothing in exactness. Under round-to-nearest a sum is −0.0
/// only when both addends are −0.0, so an accumulator that starts at +0.0
/// is never −0.0, and adding a ±0 product leaves every value — ±∞ and NaN
/// included — unchanged. And `0 × NaN` or `0 × ∞` still reaches the sum.
#[inline]
pub(crate) fn accumulate_row<'a, I>(out_row: &mut [f32], terms: impl Fn() -> I)
where
    I: Iterator<Item = (f32, &'a [f32])>,
{
    let mut col = 0;
    let mut out_tiles = out_row.chunks_exact_mut(TILE);
    for out_tile in &mut out_tiles {
        let mut acc = [0.0f32; TILE];
        for (coef, src) in terms() {
            if let Some(src_tile) = src.get(col..).and_then(<[f32]>::first_chunk::<TILE>) {
                for (a, &s) in acc.iter_mut().zip(src_tile) {
                    *a += coef * s;
                }
            }
        }
        out_tile.copy_from_slice(&acc);
        col += TILE;
    }
    let out_tail = out_tiles.into_remainder();
    if !out_tail.is_empty() {
        out_tail.fill(0.0);
        for (coef, src) in terms() {
            for (o, &s) in out_tail.iter_mut().zip(src.get(col..).unwrap_or_default()) {
                *o += coef * s;
            }
        }
    }
}

/// Rows `[row_lo, row_hi)` of `a × rhs`: output row `i` sums `a[i][k] ×
/// rhs.row(k)` over ascending `k`.
pub(crate) fn matmul_block(
    a: &Matrix,
    rhs: &Matrix,
    row_lo: usize,
    row_hi: usize,
    out_block: &mut [f32],
) {
    debug_assert_eq!(out_block.len(), (row_hi - row_lo) * rhs.cols);
    let w = rhs.cols.max(1);
    for (i, out_row) in (row_lo..row_hi).zip(out_block.chunks_exact_mut(w)) {
        accumulate_row(out_row, || {
            a.row(i).iter().copied().zip(rhs.data.chunks_exact(w))
        });
    }
}

/// Output rows `[row_lo, row_hi)` of `aᵀ × rhs`. Output row `i` is the
/// product of `a`'s column `i` with all of `rhs`, summed over ascending `k`
/// whatever the row partition.
pub(crate) fn t_matmul_block(
    a: &Matrix,
    rhs: &Matrix,
    row_lo: usize,
    row_hi: usize,
    out_block: &mut [f32],
) {
    debug_assert_eq!(out_block.len(), (row_hi - row_lo) * rhs.cols);
    let w = rhs.cols.max(1);
    for (i, out_row) in (row_lo..row_hi).zip(out_block.chunks_exact_mut(w)) {
        accumulate_row(out_row, || {
            // column `i` of `a`; `a.cols > i`, so the step is never zero
            let a_col = a.data.iter().skip(i).step_by(a.cols).copied();
            a_col.zip(rhs.data.chunks_exact(w))
        });
    }
}

/// Output rows `[row_lo, row_hi)` of `a × rhsᵀ`: every element is the dot
/// product of two rows, summed over ascending `k`.
pub(crate) fn matmul_t_block(
    a: &Matrix,
    rhs: &Matrix,
    row_lo: usize,
    row_hi: usize,
    out_block: &mut [f32],
) {
    debug_assert_eq!(out_block.len(), (row_hi - row_lo) * rhs.rows);
    for i in row_lo..row_hi {
        let a_row = a.row(i);
        for j in 0..rhs.rows {
            let b_row = rhs.row(j);
            let mut acc = 0.0;
            for (&av, &b) in a_row.iter().zip(b_row) {
                acc += av * b;
            }
            out_block[(i - row_lo) * rhs.rows + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_hand_checked() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 0.5]]);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // monotone: larger logits get larger mass
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn concat_and_gather() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let b = Matrix::from_rows(&[vec![4.0], vec![5.0], vec![6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(1), &[2.0, 5.0]);
        let g = c.gather_rows(&[2, 0]);
        assert_eq!(g.row(0), &[3.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 4.0]);
    }

    #[test]
    fn mean_and_max_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, -2.0]]);
        assert_eq!(m.mean_rows(), Matrix::row_vector(vec![2.0, 4.0]));
        assert_eq!(m.max_rows(), Matrix::row_vector(vec![3.0, 10.0]));
    }

    #[test]
    fn bias_broadcast() {
        let m = Matrix::zeros(2, 3);
        let b = Matrix::row_vector(vec![1.0, 2.0, 3.0]);
        let out = m.add_row_broadcast(&b);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// IEEE 754: `0 × NaN = NaN` and `0 × ∞ = NaN`. The kernels must not
    /// swallow them — a NaN that sneaks into an activation must surface in
    /// the product, not vanish behind a sparsity optimization.
    #[test]
    fn matmul_zero_times_nan_propagates() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![f32::NAN, 3.0], vec![4.0, 5.0]]);
        let c = a.matmul(&b);
        // row 0: 0×NaN + 1×4 must be NaN; 0×3 + 1×5 is an exact 5
        assert!(c.get(0, 0).is_nan(), "0 × NaN was skipped: {:?}", c);
        assert!(c.get(1, 0).is_nan(), "2 × NaN lost: {:?}", c);
        let b_inf = Matrix::from_rows(&[vec![f32::INFINITY, 3.0], vec![4.0, 5.0]]);
        assert!(a.matmul(&b_inf).get(0, 0).is_nan(), "0 × ∞ must be NaN");
        // clean zeros still act as exact zeros
        let b_ok = Matrix::from_rows(&[vec![6.0, 3.0], vec![4.0, 5.0]]);
        assert_eq!(
            a.matmul(&b_ok),
            Matrix::from_rows(&[vec![4.0, 5.0], vec![12.0, 6.0]])
        );
    }

    #[test]
    fn t_matmul_zero_times_nan_propagates() {
        // column 0 of `a` is all zeros; b[0][0] is NaN ⇒ out[0][0] = 0 × NaN
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![f32::NAN, 1.0], vec![2.0, 3.0]]);
        let c = a.t_matmul(&b);
        // out[0][0] = 0×NaN + 0×2 = NaN; out[0][1] = 0×1 + 0×3 = +0 (finite
        // operands: the zero products leave the accumulator at exactly +0)
        assert!(c.get(0, 0).is_nan(), "{:?}", c);
        assert_eq!(c.get(0, 1), 0.0);
        assert_eq!(c.get(1, 1), 7.0);
        assert!(c.get(1, 0).is_nan(), "1 × NaN reaches out[1][0]");
        assert!(
            a.transpose().matmul(&b).get(0, 0).is_nan(),
            "explicit transpose agrees"
        );
    }

    #[test]
    fn matmul_t_nan_propagates() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![f32::NAN, 2.0], vec![3.0, 4.0]]);
        let c = a.matmul_t(&b);
        assert!(c.get(0, 0).is_nan());
        assert_eq!(c.get(0, 1), 4.0);
    }

    #[test]
    fn argmax_rows_is_deterministic_on_nan() {
        let m = Matrix::from_rows(&[
            vec![0.0, 3.0, 1.0],
            vec![2.0, f32::NAN, f32::INFINITY],
            vec![f32::NAN, f32::NAN, f32::NAN],
        ]);
        // Positive NaN is the maximum of the IEEE total order, so it wins the
        // argmax (deterministically) instead of panicking the comparator;
        // ties resolve to the last index, as Iterator::max_by specifies.
        assert_eq!(m.argmax_rows(), vec![1, 1, 2]);
    }
}
