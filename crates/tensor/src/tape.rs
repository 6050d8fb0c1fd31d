//! Tape-based reverse-mode automatic differentiation.
//!
//! The tape is an append-only arena of nodes; [`Var`] is an index into it.
//! A fresh tape is built per forward pass (graphs here are tiny, so the
//! rebuild cost is negligible), and [`Tape::backward`] walks the arena in
//! reverse, accumulating gradients per node.
//!
//! Fused loss ops ([`Tape::softmax_cross_entropy`], [`Tape::bce_with_logits`],
//! [`Tape::contrastive_pair`]) carry analytic gradients so the numerically
//! delicate parts never go through the generic op graph.

use crate::matrix::{relu, sigmoid};
use crate::{Csr, Matrix};

/// Strict-mode dynamic checks (`--features strict`): shape, bounds, and
/// finiteness contracts on every tape op, covering what the token-level
/// linter (`glint-lint`) cannot see statically. Everything is
/// `debug_assert!`-based, so even with the feature on, release builds pay
/// nothing; with the feature off this module does not exist.
#[cfg(feature = "strict")]
mod strict {
    use crate::{Csr, Matrix};

    pub fn shape_eq(op: &str, a: &Matrix, b: &Matrix) {
        debug_assert_eq!(a.shape(), b.shape(), "strict: `{op}` operand shapes differ");
    }

    pub fn matmul_dims(op: &str, a: &Matrix, b: &Matrix) {
        debug_assert_eq!(
            a.cols(),
            b.rows(),
            "strict: `{op}` inner dimensions differ ({}x{} × {}x{})",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
    }

    pub fn spmm_operands(adj: &Csr, h: &Matrix) {
        #[cfg(debug_assertions)]
        adj.validate();
        debug_assert_eq!(
            adj.cols(),
            h.rows(),
            "strict: spmm adjacency cols must equal feature rows"
        );
    }

    pub fn bias_shape(x: &Matrix, bias: &Matrix) {
        debug_assert!(
            bias.rows() == 1 && bias.cols() == x.cols(),
            "strict: bias must be 1x{}, got {}x{}",
            x.cols(),
            bias.rows(),
            bias.cols()
        );
    }

    pub fn rows_in_bounds(op: &str, idx: &[usize], rows: usize) {
        debug_assert!(
            idx.iter().all(|&i| i < rows),
            "strict: `{op}` row index out of bounds (rows = {rows})"
        );
    }

    /// Backward contract: each parent gradient matches its parent's value
    /// shape and stays finite.
    pub fn grad_ok(parent: &Matrix, grad: &Matrix) {
        debug_assert_eq!(
            grad.shape(),
            parent.shape(),
            "strict: gradient shape must equal parent value shape"
        );
        debug_assert!(grad.all_finite(), "strict: non-finite gradient");
    }
}

/// Handle to a tape node.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Backward function: `(grad_out, parent_values, node_value) -> parent grads`.
///
/// A `None` entry means "identity pass-through": that parent's gradient is
/// `grad_out` itself. Ops whose Jacobian w.r.t. a parent is the identity
/// (`add`, `sub`'s first operand, `add_bias`'s input) return `None` instead
/// of cloning `grad_out`, and [`Tape::backward`] accumulates straight from
/// the upstream buffer — no per-edge copy.
type BackFn = Box<dyn Fn(&Matrix, &[&Matrix], &Matrix) -> Vec<Option<Matrix>>>;

struct Node {
    value: Matrix,
    parents: Vec<usize>,
    back: Option<BackFn>,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Grads {
    inner: Vec<Option<Matrix>>,
}

impl Grads {
    /// Gradient of the loss w.r.t. `v`, if `v` participated in the loss.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.inner.get(v.0).and_then(Option::as_ref)
    }

    /// Assemble a gradient set directly, `inner[i]` being the gradient for
    /// `Var(i)`. Used by mini-batch training to feed an optimizer step with
    /// gradients reduced across several per-graph tapes.
    pub fn from_options(inner: Vec<Option<Matrix>>) -> Self {
        Self { inner }
    }

    /// Global L2 norm over a set of vars (for clipping diagnostics).
    pub fn global_norm(&self, vars: &[Var]) -> f32 {
        vars.iter()
            .filter_map(|&v| self.get(v))
            .map(|g| g.data().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }
}

/// Reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, parents: Vec<usize>, back: Option<BackFn>) -> Var {
        debug_assert!(value.all_finite(), "non-finite value entering tape");
        self.nodes.push(Node {
            value,
            parents,
            back,
        });
        Var(self.nodes.len() - 1)
    }

    /// Register a leaf (parameter or input). Gradients are accumulated for
    /// every leaf; the caller decides which ones feed an optimizer.
    pub fn var(&mut self, value: Matrix) -> Var {
        self.push(value, Vec::new(), None)
    }

    /// Alias of [`Tape::var`] for readability at call sites with constants.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.var(value)
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    // ---- element-wise binary ----

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        #[cfg(feature = "strict")]
        strict::shape_eq("add", self.value(a), self.value(b));
        let value = self.value(a).add(self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|_, _, _| vec![None, None])),
        )
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        #[cfg(feature = "strict")]
        strict::shape_eq("sub", self.value(a), self.value(b));
        let value = self.value(a).sub(self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, _, _| vec![None, Some(g.scale(-1.0))])),
        )
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        #[cfg(feature = "strict")]
        strict::shape_eq("mul", self.value(a), self.value(b));
        let value = self.value(a).mul(self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, p, _| {
                vec![Some(g.mul(p[1])), Some(g.mul(p[0]))]
            })),
        )
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |g, _, _| vec![Some(g.scale(s))])),
        )
    }

    // ---- linear algebra ----

    // Forward and backward products go through the `par` entry points: they
    // return bitwise-serial results but fan out over threads once the
    // operands clear `par::MIN_PAR_WORK` (tiny graphs stay serial).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        #[cfg(feature = "strict")]
        strict::matmul_dims("matmul", self.value(a), self.value(b));
        let value = crate::par::matmul(self.value(a), self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, p, _| {
                vec![
                    Some(crate::par::matmul_t(g, p[1])),
                    Some(crate::par::t_matmul(p[0], g)),
                ]
            })),
        )
    }

    /// Sparse propagation `adj × h` with `adj` a constant CSR matrix.
    pub fn spmm(&mut self, adj: &Csr, h: Var) -> Var {
        #[cfg(feature = "strict")]
        strict::spmm_operands(adj, self.value(h));
        let value = crate::par::spmm(adj, self.value(h));
        let adj = adj.clone();
        self.push(
            value,
            vec![h.0],
            Some(Box::new(move |g, _, _| {
                vec![Some(crate::par::t_spmm(&adj, g))]
            })),
        )
    }

    /// Broadcast-add a `1 × c` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        #[cfg(feature = "strict")]
        strict::bias_shape(self.value(x), self.value(bias));
        let value = self.value(x).add_row_broadcast(self.value(bias));
        self.push(
            value,
            vec![x.0, bias.0],
            Some(Box::new(|g, _, _| vec![None, Some(g.sum_rows())])),
        )
    }

    /// Affine layer `x × w + bias` (bias broadcast over rows).
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_bias(xw, bias)
    }

    // ---- activations ----

    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(relu);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _| {
                vec![Some(g.zip(p[0], |gi, x| if x > 0.0 { gi } else { 0.0 }))]
            })),
        )
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(sigmoid);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, y| {
                vec![Some(g.zip(y, |gi, yi| gi * yi * (1.0 - yi)))]
            })),
        )
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, y| {
                vec![Some(g.zip(y, |gi, yi| gi * (1.0 - yi * yi)))]
            })),
        )
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, y| {
                let mut out = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let gr = g.row(r);
                    let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    let orow = out.row_mut(r);
                    for ((o, &yi), &gi) in orow.iter_mut().zip(yr).zip(gr) {
                        *o = yi * (gi - dot);
                    }
                }
                vec![Some(out)]
            })),
        )
    }

    // ---- shape ops ----

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, _| vec![Some(g.transpose())])),
        )
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).concat_cols(self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, p, _| {
                let ca = p[0].cols();
                let cb = p[1].cols();
                let mut ga = Matrix::zeros(g.rows(), ca);
                let mut gb = Matrix::zeros(g.rows(), cb);
                for r in 0..g.rows() {
                    ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                    gb.row_mut(r).copy_from_slice(&g.row(r)[ca..]);
                }
                vec![Some(ga), Some(gb)]
            })),
        )
    }

    pub fn gather_rows(&mut self, a: Var, idx: &[usize]) -> Var {
        #[cfg(feature = "strict")]
        strict::rows_in_bounds("gather_rows", idx, self.value(a).rows());
        let value = self.value(a).gather_rows(idx);
        let idx = idx.to_vec();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |g, p, _| {
                let mut out = Matrix::zeros(p[0].rows(), p[0].cols());
                for (r, &i) in idx.iter().enumerate() {
                    for (o, &x) in out.row_mut(i).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                vec![Some(out)]
            })),
        )
    }

    /// Column-wise mean over rows → `1 × c` (mean readout).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).mean_rows();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _| {
                let n = p[0].rows().max(1) as f32;
                let mut out = Matrix::zeros(p[0].rows(), p[0].cols());
                for r in 0..p[0].rows() {
                    for (o, &gi) in out.row_mut(r).iter_mut().zip(g.row(0)) {
                        *o = gi / n;
                    }
                }
                vec![Some(out)]
            })),
        )
    }

    /// Column-wise sum over rows → `1 × c` (sum readout, GIN-style).
    pub fn sum_rows_readout(&mut self, a: Var) -> Var {
        let value = self.value(a).sum_rows();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _| {
                let mut out = Matrix::zeros(p[0].rows(), p[0].cols());
                for r in 0..p[0].rows() {
                    out.row_mut(r).copy_from_slice(g.row(0));
                }
                vec![Some(out)]
            })),
        )
    }

    /// Column-wise max over rows → `1 × c` (max readout). Gradient is routed
    /// to the (first) argmax row per column.
    pub fn max_rows(&mut self, a: Var) -> Var {
        let val = self.value(a);
        let mut argmax = vec![0usize; val.cols()];
        let mut value = Matrix::full(1, val.cols(), f32::NEG_INFINITY);
        val.max_rows_into(&mut value, |c, r| argmax[c] = r);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |g, p, _| {
                let mut out = Matrix::zeros(p[0].rows(), p[0].cols());
                for (c, &r) in argmax.iter().enumerate() {
                    out.set(r, c, g.get(0, c));
                }
                vec![Some(out)]
            })),
        )
    }

    /// Mean over all elements → `1 × 1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::full(1, 1, self.value(a).mean());
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _| {
                let n = p[0].len().max(1) as f32;
                vec![Some(Matrix::full(
                    p[0].rows(),
                    p[0].cols(),
                    g.get(0, 0) / n,
                ))]
            })),
        )
    }

    /// Sum over all elements → `1 × 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::full(1, 1, self.value(a).sum());
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _| {
                vec![Some(Matrix::full(p[0].rows(), p[0].cols(), g.get(0, 0)))]
            })),
        )
    }

    /// Weighted sum of equally-shaped matrices: `Σ_p w[0,p] · hs[p]`.
    ///
    /// Used for inter-metapath attention fusion: `w` is a `1 × P` attention
    /// row and each `hs[p]` an `n × d` metapath summary.
    pub fn weighted_sum(&mut self, hs: &[Var], w: Var) -> Var {
        let (rows, cols) = self.value(hs[0]).shape();
        let mut value = Matrix::zeros(rows, cols);
        value.add_weighted(hs.iter().map(|&h| self.value(h)), self.value(w));
        let mut parents: Vec<usize> = hs.iter().map(|v| v.0).collect();
        parents.push(w.0);
        let n_h = hs.len();
        self.push(
            value,
            parents,
            Some(Box::new(move |g, p, _| {
                let w_val = p[n_h];
                let mut grads: Vec<Option<Matrix>> =
                    (0..n_h).map(|i| Some(g.scale(w_val.get(0, i)))).collect();
                let mut gw = Matrix::zeros(1, n_h);
                for (i, h) in p.iter().take(n_h).enumerate() {
                    gw.set(0, i, g.dot(h));
                }
                grads.push(Some(gw));
                grads
            })),
        )
    }

    // ---- fused losses ----

    /// Class-weighted softmax cross-entropy over logits `n × k` with integer
    /// targets. Implements the classification term of Eq. (2):
    /// `L = Σ w_{y_n} · CE_n / Σ w_{y_n}`.
    pub fn softmax_cross_entropy(
        &mut self,
        logits: Var,
        targets: &[usize],
        class_weights: &[f32],
    ) -> Var {
        let z = self.value(logits);
        assert_eq!(z.rows(), targets.len());
        let probs = z.softmax_rows();
        let weights: Vec<f32> = targets.iter().map(|&t| class_weights[t]).collect();
        let w_sum: f32 = weights.iter().sum::<f32>().max(1e-12);
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            loss -= weights[r] * probs.get(r, t).max(1e-12).ln();
        }
        loss /= w_sum;
        let targets = targets.to_vec();
        self.push(
            Matrix::full(1, 1, loss),
            vec![logits.0],
            Some(Box::new(move |g, p, _| {
                let probs = p[0].softmax_rows();
                let mut out = probs;
                for (r, &t) in targets.iter().enumerate() {
                    let w = weights[r] / w_sum;
                    for c in 0..out.cols() {
                        let y = if c == t { 1.0 } else { 0.0 };
                        let v = (out.get(r, c) - y) * w * g.get(0, 0);
                        out.set(r, c, v);
                    }
                }
                vec![Some(out)]
            })),
        )
    }

    /// Mean binary cross-entropy with logits; `targets[i] ∈ [0, 1]` pairs with
    /// row `i` of the `n × 1` logit column. Used for the VIPool loss term.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let z = self.value(logits);
        assert_eq!(z.cols(), 1, "bce expects an n×1 logit column");
        assert_eq!(z.rows(), targets.len());
        let n = targets.len().max(1) as f32;
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            let x = z.get(r, 0);
            // stable: max(x,0) - x t + ln(1 + e^{-|x|})
            loss += relu(x) - x * t + (1.0 + (-x.abs()).exp()).ln();
        }
        loss /= n;
        let targets = targets.to_vec();
        self.push(
            Matrix::full(1, 1, loss),
            vec![logits.0],
            Some(Box::new(move |g, p, _| {
                let mut out = Matrix::zeros(p[0].rows(), 1);
                for (r, &t) in targets.iter().enumerate() {
                    let x = p[0].get(r, 0);
                    out.set(r, 0, (sigmoid(x) - t) / n * g.get(0, 0));
                }
                vec![Some(out)]
            })),
        )
    }

    /// Contrastive pair loss (Eq. 1) over two `1 × d` embeddings.
    ///
    /// Same label: `‖a − b‖²`. Different label: `max(0, ε − ‖a − b‖)²`.
    pub fn contrastive_pair(&mut self, a: Var, b: Var, same_label: bool, margin: f32) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.shape(), bv.shape());
        let d2 = av.sq_dist(bv);
        let d = d2.sqrt();
        let loss = if same_label {
            d2
        } else {
            let m = relu(margin - d);
            m * m
        };
        self.push(
            Matrix::full(1, 1, loss),
            vec![a.0, b.0],
            Some(Box::new(move |g, p, _| {
                let diff = p[0].sub(p[1]);
                let d = diff.norm();
                let coeff = if same_label {
                    2.0
                } else if d < margin && d > 1e-12 {
                    -2.0 * (margin - d) / d
                } else {
                    0.0
                };
                let ga = diff.scale(coeff * g.get(0, 0));
                let gb = ga.scale(-1.0);
                vec![Some(ga), Some(gb)]
            })),
        )
    }

    // ---- backward ----

    /// Run reverse-mode accumulation from a scalar (`1 × 1`) loss node.
    pub fn backward(&self, loss: Var) -> Grads {
        let _span = glint_trace::span("tape_backward");
        if glint_trace::enabled() {
            glint_trace::counter("tensor.backward.calls", 1);
            glint_trace::counter("tensor.backward.nodes", self.nodes.len() as u64);
        }
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Matrix>> = Vec::with_capacity(self.nodes.len());
        grads.resize_with(self.nodes.len(), || None);
        grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        for i in (0..=loss.0).rev() {
            // Parents are strictly earlier in the append-only arena, so the
            // split lets us read this node's gradient while scattering into
            // parent slots without cloning it first.
            let (earlier, later) = grads.split_at_mut(i);
            let Some(g) = later[0].as_ref() else { continue };
            let node = &self.nodes[i];
            let Some(back) = &node.back else { continue };
            let parent_vals: Vec<&Matrix> =
                node.parents.iter().map(|&p| &self.nodes[p].value).collect();
            let pgrads = back(g, &parent_vals, &node.value);
            debug_assert_eq!(pgrads.len(), node.parents.len());
            #[cfg(feature = "strict")]
            for (pv, pg) in parent_vals.iter().zip(&pgrads) {
                strict::grad_ok(pv, pg.as_ref().unwrap_or(g));
            }
            for (&p, pg) in node.parents.iter().zip(pgrads) {
                debug_assert!(p < i, "tape parent must precede its node");
                match (&mut earlier[p], pg) {
                    (Some(acc), Some(pg)) => acc.axpy(1.0, &pg),
                    (Some(acc), None) => acc.axpy(1.0, g),
                    (slot @ None, Some(pg)) => *slot = Some(pg),
                    (slot @ None, None) => *slot = Some(g.clone()),
                }
            }
        }
        Grads { inner: grads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_mul_chain_gradient() {
        // f = sum((a + b) ∘ a); df/da = (2a + b), df/db = a
        let mut t = Tape::new();
        let a = t.var(Matrix::row_vector(vec![1.0, 2.0]));
        let b = t.var(Matrix::row_vector(vec![3.0, 4.0]));
        let s = t.add(a, b);
        let m = t.mul(s, a);
        let loss = t.sum_all(m);
        assert_eq!(t.value(loss).get(0, 0), 1.0 * 4.0 + 2.0 * 6.0);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[5.0, 8.0]);
        assert_eq!(g.get(b).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn matmul_gradient_shapes() {
        let mut t = Tape::new();
        let a = t.var(Matrix::zeros(3, 4));
        let b = t.var(Matrix::zeros(4, 2));
        let c = t.matmul(a, b);
        let loss = t.sum_all(c);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), (3, 4));
        assert_eq!(g.get(b).unwrap().shape(), (4, 2));
    }

    #[test]
    fn sigmoid_gradient_at_zero() {
        let mut t = Tape::new();
        let a = t.var(Matrix::full(1, 1, 0.0));
        let s = t.sigmoid(a);
        let loss = t.sum_all(s);
        let g = t.backward(loss);
        // dσ/dx at 0 = 0.25
        assert!((g.get(a).unwrap().get(0, 0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn softmax_ce_gradient_is_p_minus_y() {
        let mut t = Tape::new();
        let logits = t.var(Matrix::from_rows(&[vec![1.0, 2.0]]));
        let loss = t.softmax_cross_entropy(logits, &[1], &[1.0, 1.0]);
        let g = t.backward(loss);
        let probs = Matrix::from_rows(&[vec![1.0, 2.0]]).softmax_rows();
        let gl = g.get(logits).unwrap();
        assert!((gl.get(0, 0) - probs.get(0, 0)).abs() < 1e-6);
        assert!((gl.get(0, 1) - (probs.get(0, 1) - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn contrastive_same_label_pulls_together() {
        let mut t = Tape::new();
        let a = t.var(Matrix::row_vector(vec![1.0, 0.0]));
        let b = t.var(Matrix::row_vector(vec![0.0, 0.0]));
        let loss = t.contrastive_pair(a, b, true, 1.0);
        assert!((t.value(loss).get(0, 0) - 1.0).abs() < 1e-6);
        let g = t.backward(loss);
        // gradient on a points away from b (loss decreases by moving a to b)
        assert!(g.get(a).unwrap().get(0, 0) > 0.0);
    }

    #[test]
    fn contrastive_diff_label_beyond_margin_is_zero() {
        let mut t = Tape::new();
        let a = t.var(Matrix::row_vector(vec![10.0, 0.0]));
        let b = t.var(Matrix::row_vector(vec![0.0, 0.0]));
        let loss = t.contrastive_pair(a, b, false, 1.0);
        assert_eq!(t.value(loss).get(0, 0), 0.0);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn gather_rows_scatter_adds() {
        let mut t = Tape::new();
        let a = t.var(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let g1 = t.gather_rows(a, &[0, 0, 2]);
        let loss = t.sum_all(g1);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[2.0, 0.0, 1.0]);
    }

    #[test]
    fn weighted_sum_gradients() {
        let mut t = Tape::new();
        let h0 = t.var(Matrix::row_vector(vec![1.0, 2.0]));
        let h1 = t.var(Matrix::row_vector(vec![3.0, 4.0]));
        let w = t.var(Matrix::row_vector(vec![0.25, 0.75]));
        let out = t.weighted_sum(&[h0, h1], w);
        assert_eq!(t.value(out).data(), &[0.25 + 2.25, 0.5 + 3.0]);
        let loss = t.sum_all(out);
        let g = t.backward(loss);
        assert_eq!(g.get(h0).unwrap().data(), &[0.25, 0.25]);
        assert_eq!(g.get(w).unwrap().data(), &[3.0, 7.0]);
    }

    #[test]
    fn max_rows_routes_gradient_to_argmax() {
        let mut t = Tape::new();
        let a = t.var(Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 2.0]]));
        let m = t.max_rows(a);
        assert_eq!(t.value(m).data(), &[3.0, 5.0]);
        let loss = t.sum_all(m);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // loss = sum(a + a) => grad a = 2
        let mut t = Tape::new();
        let a = t.var(Matrix::full(1, 1, 3.0));
        let s = t.add(a, a);
        let loss = t.sum_all(s);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().get(0, 0), 2.0);
    }
}
