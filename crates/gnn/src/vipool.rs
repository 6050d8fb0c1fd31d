//! Vertex-infomax pooling (VIPool, from GXN) — the multi-scale graph
//! generator of ITGNN (Algorithm 2 lines 15–21) together with the auxiliary
//! pooling loss `L_pool` of Eq. (2).
//!
//! Each vertex is scored by an estimate of the mutual information between
//! its own embedding and its neighbourhood's: `s_v = σ(W_s [h_v ‖ h_{N(v)}])`.
//! The top-⌈ratio·n⌉ vertices are kept (features gated by their scores so
//! gradients reach the scorer), and the infomax objective is a BCE that
//! discriminates true (vertex, neighbourhood) pairs from shuffled ones.

use glint_tensor::optim::ParamId;
use glint_tensor::{init, Csr, Exec, Matrix, ParamSet, TapeExec, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One VIPool stage.
#[derive(Clone, Debug)]
pub struct VIPool {
    w: ParamId,
    b: ParamId,
    /// Bilinear interaction factors: the MI discriminator must score the
    /// *correlation* between a vertex and its neighbourhood, which a linear
    /// map on the concatenation cannot express (identical marginals).
    bilin_a: ParamId,
    bilin_b: ParamId,
    pub ratio: f32,
}

/// Output of a pooling step.
pub struct Pooled<T> {
    /// Gated, pooled node features (k × d).
    pub h: T,
    /// Normalized adjacency of the induced subgraph.
    pub adj_norm: Csr,
    /// Row-normalized adjacency of the induced subgraph.
    pub adj_row: Csr,
    /// Kept node indices (into the pre-pool graph), sorted.
    pub kept: Vec<usize>,
    /// Infomax BCE loss for this stage (the `L_pool` summand); recorded on
    /// the tape only, `None` when serving.
    pub pool_loss: Option<Var>,
}

impl VIPool {
    pub fn new(
        params: &mut ParamSet,
        prefix: &str,
        dim: usize,
        ratio: f32,
        rng: &mut StdRng,
    ) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0);
        let k = dim.min(16);
        let w = params.add(format!("{prefix}.w"), init::xavier_uniform(rng, 2 * dim, 1));
        let b = params.add(format!("{prefix}.b"), Matrix::zeros(1, 1));
        let bilin_a = params.add(format!("{prefix}.ba"), init::xavier_uniform(rng, dim, k));
        let bilin_b = params.add(format!("{prefix}.bb"), init::xavier_uniform(rng, dim, k));
        Self {
            w,
            b,
            bilin_a,
            bilin_b,
            ratio,
        }
    }

    /// Discriminator logits for (vertex, neighbourhood) rows:
    /// `z = rowsum((H A) ∘ (N B)) + [H ‖ N] w + b`.
    fn score<X: Exec>(&self, x: &mut X, h: &X::T, neigh: &X::T) -> X::T {
        let pair = x.concat_cols(h, neigh);
        let linear = x.linear(&pair, self.w, self.b); // n × 1
        x.release(pair);
        let ha = x.matmul_w(h, self.bilin_a);
        let nb = x.matmul_w(neigh, self.bilin_b);
        let prod = x.mul(ha, nb);
        let k = x.value(&prod).cols();
        let ones = x.filled(k, 1, 1.0);
        let bilinear = x.matmul(&prod, &ones); // n × 1
        x.release(prod);
        x.release(ones);
        x.add(linear, bilinear)
    }

    /// The infomax objective: true (vertex, neighbourhood) pairs against the
    /// same vertices paired with a shuffled neighbourhood. Training only.
    fn infomax_loss(&self, t: &mut TapeExec<'_>, [h, neigh, logits]: [Var; 3], seed: u64) -> Var {
        let n = t.tape.value(h).rows();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        perm.shuffle(&mut rng);
        // ensure it deranges something for n ≥ 2
        if n >= 2 && perm.iter().enumerate().all(|(i, &p)| i == p) {
            perm.swap(0, 1);
        }
        let shuffled_neigh = t.tape.gather_rows(neigh, &perm);
        let neg_logits = self.score(t, &h, &shuffled_neigh);
        let pos_loss = t.tape.bce_with_logits(logits, &vec![1.0; n]);
        let neg_loss = t.tape.bce_with_logits(neg_logits, &vec![0.0; n]);
        let sum = t.tape.add(pos_loss, neg_loss);
        t.tape.scale(sum, 0.5)
    }

    /// Score, select, gate, and (on the tape) compute the infomax loss.
    ///
    /// `adj_row` provides the mean-neighbourhood operator; `seed` drives the
    /// negative-sample shuffle (deterministic per call site).
    pub fn forward<X: Exec>(&self, x: &mut X, adj_row: &Csr, h: &X::T, seed: u64) -> Pooled<X::T> {
        let (n, d) = x.value(h).shape();
        let neigh = x.spmm(adj_row, h);
        let logits = self.score(x, h, &neigh); // n × 1
        let taped = x.taped([h, &neigh, &logits]);
        x.release(neigh);
        let scores = x.sigmoid(logits);
        let pool_loss = taped.and_then(|vars| x.train_only(|t| self.infomax_loss(t, vars, seed)));

        // top-k selection by score value (selection itself non-differentiable)
        let k = ((self.ratio * n as f32).ceil() as usize).clamp(1, n);
        let mut kept = rank_desc(x.value(&scores));
        kept.truncate(k);
        kept.sort_unstable();

        // gate features by scores so the scorer receives task gradients
        let ones = x.filled(1, d, 1.0);
        let gate = x.matmul(&scores, &ones); // n × d
        x.release(ones);
        x.release(scores);
        let gated = x.mul_into(h, gate);
        let pooled_h = x.gather_rows(&gated, &kept);
        x.release(gated);

        // induced sub-adjacency, re-normalized
        let sub_edges = induced_edges(adj_row, &kept);
        Pooled {
            h: pooled_h,
            adj_norm: Csr::normalized_adjacency(k, &sub_edges),
            adj_row: Csr::row_normalized(k, &sub_edges),
            kept,
            pool_loss,
        }
    }
}

/// Node order by descending score (column 0), under the IEEE total order:
/// deterministic for any input, including NaN scores from a diverged scorer
/// (NaN ranks first instead of panicking mid-sort).
fn rank_desc(scores: &Matrix) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.rows()).collect();
    order.sort_by(|&a, &b| scores.get(b, 0).total_cmp(&scores.get(a, 0)));
    order
}

/// Edges of the induced subgraph on `kept` (kept must be sorted), relabelled
/// to 0..k.
fn induced_edges(adj: &Csr, kept: &[usize]) -> Vec<(usize, usize)> {
    let mut remap = vec![usize::MAX; adj.cols()];
    for (new, &old) in kept.iter().enumerate() {
        remap[old] = new;
    }
    let mut edges = Vec::new();
    for (new_r, &old_r) in kept.iter().enumerate() {
        for (c, _v) in adj.row_iter(old_r) {
            if remap[c] != usize::MAX && remap[c] != new_r {
                edges.push((new_r, remap[c]));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_tensor::{InferCtx, InferExec, Tape};

    fn setup(n: usize, ratio: f32) -> (ParamSet, VIPool, Csr, Matrix) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let pool = VIPool::new(&mut params, "pool", 4, ratio, &mut rng);
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let adj_row = Csr::row_normalized(n, &edges);
        let feats = init::uniform(&mut rng, n, 4, 1.0);
        (params, pool, adj_row, feats)
    }

    #[test]
    fn pooling_keeps_ratio_fraction() {
        let (params, pool, adj_row, feats) = setup(10, 0.6);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let h = tape.var(feats);
        let out = pool.forward(&mut TapeExec::new(&mut tape, &vars), &adj_row, &h, 1);
        assert_eq!(out.kept.len(), 6);
        assert_eq!(tape.value(out.h).shape(), (6, 4));
        assert_eq!(out.adj_norm.rows(), 6);
    }

    #[test]
    fn ratio_one_keeps_everything() {
        let (params, pool, adj_row, feats) = setup(5, 1.0);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let h = tape.var(feats);
        let out = pool.forward(&mut TapeExec::new(&mut tape, &vars), &adj_row, &h, 2);
        assert_eq!(out.kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_loss_is_finite_and_positive() {
        let (params, pool, adj_row, feats) = setup(8, 0.5);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let h = tape.var(feats);
        let out = pool.forward(&mut TapeExec::new(&mut tape, &vars), &adj_row, &h, 3);
        let loss = tape.value(out.pool_loss.expect("recorded")).get(0, 0);
        assert!(loss.is_finite() && loss > 0.0, "pool loss {loss}");
    }

    #[test]
    fn gradients_reach_scorer_via_gating() {
        let (params, pool, adj_row, feats) = setup(6, 0.5);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let h = tape.var(feats);
        let out = pool.forward(&mut TapeExec::new(&mut tape, &vars), &adj_row, &h, 4);
        // task-style loss on pooled features only (no pool_loss term)
        let loss = tape.mean_all(out.h);
        let grads = tape.backward(loss);
        let w_grad = grads.get(vars[0]).expect("scorer weight grad");
        assert!(
            w_grad.norm() > 0.0,
            "gating must route task gradients to the scorer"
        );
    }

    #[test]
    fn training_on_infomax_reduces_loss() {
        let (mut params, pool, adj_row, feats) = setup(12, 0.5);
        let mut opt = glint_tensor::Adam::new(0.02);
        let mut losses = Vec::new();
        // fixed shuffle (seed 0) so the discriminator has a learnable target
        for _ in 0..80 {
            let mut tape = Tape::new();
            let vars = params.bind(&mut tape);
            let h = tape.constant(feats.clone());
            let out = pool.forward(&mut TapeExec::new(&mut tape, &vars), &adj_row, &h, 0);
            let pool_loss = out.pool_loss.expect("recorded");
            let grads = tape.backward(pool_loss);
            losses.push(tape.value(pool_loss).get(0, 0));
            opt.step(&mut params, &vars, &grads);
        }
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(last < first, "infomax loss should fall: {first} → {last}");
        assert!(
            last < 0.693,
            "infomax loss should fall below ln 2, got {last}"
        );
    }

    #[test]
    fn single_node_graph_is_safe() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(13);
        let pool = VIPool::new(&mut params, "pool", 3, 0.5, &mut rng);
        let adj_row = Csr::row_normalized(1, &[]);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let h = tape.var(Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]));
        let out = pool.forward(&mut TapeExec::new(&mut tape, &vars), &adj_row, &h, 5);
        assert_eq!(out.kept, vec![0]);
    }

    #[test]
    fn serving_skips_the_infomax_loss_and_keeps_the_same_nodes() {
        let (params, pool, adj_row, feats) = setup(9, 0.5);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let h = tape.constant(feats.clone());
        let taped = pool.forward(&mut TapeExec::new(&mut tape, &vars), &adj_row, &h, 6);
        let mut ctx = InferCtx::new();
        let served = pool.forward(&mut InferExec::new(&mut ctx, &params), &adj_row, &feats, 6);
        assert!(taped.pool_loss.is_some() && served.pool_loss.is_none());
        assert_eq!(taped.kept, served.kept);
        assert_eq!(tape.value(taped.h), &served.h);
    }

    #[test]
    fn rank_desc_is_total_on_nan_scores() {
        let scores =
            Matrix::from_rows(&[vec![0.2], vec![f32::NAN], vec![f32::INFINITY], vec![-1.0]]);
        // NaN sorts above +inf under the IEEE total order, so a diverged
        // scorer is visible in the kept set rather than a sort panic.
        assert_eq!(rank_desc(&scores), vec![1, 2, 0, 3]);
    }
}
