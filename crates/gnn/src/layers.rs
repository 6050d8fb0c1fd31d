//! GNN layers: GCN, GIN, and TAG convolutions plus graph readouts.
//!
//! Each layer owns [`ParamId`]s into the model's [`ParamSet`] and writes
//! its forward pass once, generic over the [`Exec`] executor: the same
//! body records onto the tape for training and runs the pooled kernels for
//! serving.

use glint_tensor::optim::ParamId;
use glint_tensor::{init, Csr, Exec, Matrix, ParamSet};
use rand::rngs::StdRng;

/// GCN layer: `H' = Â H W + b` (activation applied by the caller).
#[derive(Clone, Debug)]
pub struct GcnLayer {
    w: ParamId,
    b: ParamId,
}

impl GcnLayer {
    pub fn new(
        params: &mut ParamSet,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = params.add(
            format!("{prefix}.w"),
            init::xavier_uniform(rng, in_dim, out_dim),
        );
        let b = params.add(format!("{prefix}.b"), Matrix::zeros(1, out_dim));
        Self { w, b }
    }

    pub fn forward<X: Exec>(&self, x: &mut X, adj_norm: &Csr, h: &X::T) -> X::T {
        let prop = x.spmm(adj_norm, h);
        let out = x.linear(&prop, self.w, self.b);
        x.release(prop);
        out
    }
}

/// GIN layer: `H' = MLP((1 + ε) H + Σ_{u∈N(v)} H_u)` with a 2-layer MLP.
#[derive(Clone, Debug)]
pub struct GinLayer {
    eps: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
}

impl GinLayer {
    pub fn new(
        params: &mut ParamSet,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let eps = params.add(format!("{prefix}.eps"), Matrix::zeros(1, 1));
        let w1 = params.add(
            format!("{prefix}.w1"),
            init::xavier_uniform(rng, in_dim, out_dim),
        );
        let b1 = params.add(format!("{prefix}.b1"), Matrix::zeros(1, out_dim));
        let w2 = params.add(
            format!("{prefix}.w2"),
            init::xavier_uniform(rng, out_dim, out_dim),
        );
        let b2 = params.add(format!("{prefix}.b2"), Matrix::zeros(1, out_dim));
        Self {
            eps,
            w1,
            b1,
            w2,
            b2,
        }
    }

    pub fn forward<X: Exec>(&self, x: &mut X, adj_sum: &Csr, h: &X::T) -> X::T {
        let neigh = x.spmm(adj_sum, h);
        let scaled_self = x.scale_one_plus(h, self.eps);
        let agg = x.add(scaled_self, neigh);
        let a1 = x.linear_relu(&agg, self.w1, self.b1);
        x.release(agg);
        let out = x.linear(&a1, self.w2, self.b2);
        x.release(a1);
        out
    }
}

/// TAG convolution (topology-adaptive): `H' = Σ_{k=0..K} Â^k H W_k + b`.
/// Exact polynomial propagation — no convolution approximation (§3.3.1).
#[derive(Clone, Debug)]
pub struct TagConv {
    pub k: usize,
    /// `W_0`, applied to `H` itself.
    w0: ParamId,
    /// `W_1..W_K`, one per hop.
    hops: Vec<ParamId>,
    b: ParamId,
}

impl TagConv {
    pub fn new(
        params: &mut ParamSet,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        k: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut weight = |i: usize| {
            params.add(
                format!("{prefix}.w{i}"),
                init::xavier_uniform(rng, in_dim, out_dim),
            )
        };
        let w0 = weight(0);
        let hops = (1..=k).map(weight).collect();
        let b = params.add(format!("{prefix}.b"), Matrix::zeros(1, out_dim));
        Self { k, w0, hops, b }
    }

    /// Each hop's term is added onto the accumulator element-wise — never
    /// fused into the matmul reduction itself, which would reorder the
    /// floating-point sums.
    pub fn forward<X: Exec>(&self, x: &mut X, adj_norm: &Csr, h: &X::T) -> X::T {
        let mut acc = x.matmul_w(h, self.w0);
        let mut power: Option<X::T> = None; // Â^k H for k >= 1
        for &w in &self.hops {
            let next = x.spmm(adj_norm, power.as_ref().unwrap_or(h));
            if let Some(prev) = power.take() {
                x.release(prev);
            }
            let term = x.matmul_w(&next, w);
            acc = x.add(acc, term);
            power = Some(next);
        }
        if let Some(p) = power {
            x.release(p);
        }
        x.add_bias(acc, self.b)
    }
}

/// Dense layer wrapper.
#[derive(Clone, Debug)]
pub struct Dense {
    w: ParamId,
    b: ParamId,
}

impl Dense {
    pub fn new(
        params: &mut ParamSet,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = params.add(
            format!("{prefix}.w"),
            init::xavier_uniform(rng, in_dim, out_dim),
        );
        let b = params.add(format!("{prefix}.b"), Matrix::zeros(1, out_dim));
        Self { w, b }
    }

    pub fn forward<X: Exec>(&self, x: &mut X, h: &X::T) -> X::T {
        x.linear(h, self.w, self.b)
    }
}

/// Mean ‖ max readout: n × d → 1 × 2d.
pub fn readout_mean_max<X: Exec>(x: &mut X, h: &X::T) -> X::T {
    let mean = x.mean_rows(h);
    let max = x.max_rows(h);
    let out = x.concat_cols(&mean, &max);
    x.release(mean);
    x.release(max);
    out
}

/// Sum readout (GIN convention): n × d → 1 × d.
pub fn readout_sum<X: Exec>(x: &mut X, h: &X::T) -> X::T {
    x.sum_rows(h)
}

/// Append readout `r` to the running concatenation `acc` (the multi-scale
/// and per-layer readout chains of ITGNN and GIN).
pub fn concat_readout<X: Exec>(x: &mut X, acc: Option<X::T>, r: X::T) -> X::T {
    match acc {
        Some(prev) => {
            let cc = x.concat_cols(&prev, &r);
            x.release(prev);
            x.release(r);
            cc
        }
        None => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_tensor::grad_check::check_gradients;
    use glint_tensor::{Tape, TapeExec};
    use rand::SeedableRng;

    fn path_adj(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Csr::normalized_adjacency(n, &edges)
    }

    #[test]
    fn gcn_layer_shapes_and_grads() {
        let mut rng = StdRng::seed_from_u64(1);
        let adj = path_adj(4);
        let x0 = init::uniform(&mut rng, 4, 3, 1.0);
        let report = check_gradients(&[x0], 1e-3, |tape, ins| {
            let mut params = ParamSet::new();
            let mut r = StdRng::seed_from_u64(2);
            let layer = GcnLayer::new(&mut params, "gcn", 3, 2, &mut r);
            let vars = params.bind(tape);
            let h = tape.var(ins[0].clone());
            let mut x = TapeExec::new(tape, &vars);
            let out = layer.forward(&mut x, &adj, &h);
            let red = readout_mean_max(&mut x, &out);
            let loss = tape.mean_all(red);
            (loss, vec![h])
        });
        assert!(report.ok(2e-2), "{report:?}");
    }

    #[test]
    fn gin_layer_distinguishes_structures() {
        // GIN with sum aggregation must produce different readouts for a
        // triangle vs a 3-path with identical node features.
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let layer = GinLayer::new(&mut params, "gin", 2, 4, &mut rng);
        let feats = Matrix::from_rows(&vec![vec![1.0, 0.5]; 3]);
        let run = |edges: &[(usize, usize)]| -> Matrix {
            let mut sum_triplets = Vec::new();
            for &(u, v) in edges {
                sum_triplets.push((u, v, 1.0));
                sum_triplets.push((v, u, 1.0));
            }
            let adj = Csr::from_triplets(3, 3, &sum_triplets);
            let mut tape = Tape::new();
            let vars = params.bind(&mut tape);
            let h = tape.constant(feats.clone());
            let mut x = TapeExec::new(&mut tape, &vars);
            let out = layer.forward(&mut x, &adj, &h);
            let red = readout_sum(&mut x, &out);
            tape.value(red).clone()
        };
        let triangle = run(&[(0, 1), (1, 2), (2, 0)]);
        let path = run(&[(0, 1), (1, 2)]);
        assert!(
            triangle.sq_dist(&path) > 1e-6,
            "GIN failed to separate structures"
        );
    }

    #[test]
    fn tag_conv_k0_equals_linear() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let conv = TagConv::new(&mut params, "tag", 3, 2, 0, &mut rng);
        let adj = path_adj(3);
        let x = init::uniform(&mut rng, 3, 3, 1.0);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let h = tape.constant(x.clone());
        let out = conv.forward(&mut TapeExec::new(&mut tape, &vars), &adj, &h);
        // K=0: no propagation — output is x·W0 + b
        let w0 = params.get(glint_tensor::ParamId(0)).clone();
        let expected = x.matmul(&w0);
        assert!(tape.value(out).sq_dist(&expected) < 1e-8);
    }

    #[test]
    fn tag_conv_uses_neighbourhood() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let conv = TagConv::new(&mut params, "tag", 2, 2, 2, &mut rng);
        let adj = path_adj(3);
        let run = |x: Matrix| {
            let mut tape = Tape::new();
            let vars = params.bind(&mut tape);
            let h = tape.constant(x);
            let out = conv.forward(&mut TapeExec::new(&mut tape, &vars), &adj, &h);
            tape.value(out).clone()
        };
        let base = run(Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
        ]));
        let moved = run(Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 0.0],
            vec![5.0, 0.0],
        ]));
        // node 0's output must change when node 2 (two hops away) changes
        let delta: f32 = base
            .row(0)
            .iter()
            .zip(moved.row(0))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta > 1e-6, "K=2 TAG conv must see 2-hop context");
    }
}
