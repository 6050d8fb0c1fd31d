//! Parameter containers and first-order optimizers.
//!
//! Models own a [`ParamSet`]; each forward pass binds the parameters onto a
//! fresh [`Tape`] (in registration order) and after `backward` the optimizer
//! applies the gradients back onto the set. Freezing (for the paper's
//! transfer-learning stage, §3.3.4) is a per-parameter flag the optimizers
//! honour.

use crate::tape::{Grads, Tape, Var};
use crate::Matrix;
use serde::{Deserialize, Serialize};

/// Handle to a parameter inside a [`ParamSet`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// Named, orderable collection of trainable matrices.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamSet {
    names: Vec<String>,
    mats: Vec<Matrix>,
    frozen: Vec<bool>,
}

impl ParamSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; returns its stable id.
    pub fn add(&mut self, name: impl Into<String>, mat: Matrix) -> ParamId {
        self.names.push(name.into());
        self.mats.push(mat);
        self.frozen.push(false);
        ParamId(self.mats.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.mats.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.mats[id.0]
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Bind every parameter onto `tape`, returning vars in registration order.
    pub fn bind(&self, tape: &mut Tape) -> Vec<Var> {
        self.mats.iter().map(|m| tape.var(m.clone())).collect()
    }

    /// Freeze parameters whose name starts with `prefix` (transfer learning).
    /// Returns how many parameters were frozen.
    pub fn freeze_prefix(&mut self, prefix: &str) -> usize {
        let mut n = 0;
        for (name, f) in self.names.iter().zip(&mut self.frozen) {
            if name.starts_with(prefix) {
                *f = true;
                n += 1;
            }
        }
        n
    }

    /// Unfreeze everything.
    pub fn unfreeze_all(&mut self) {
        self.frozen.iter_mut().for_each(|f| *f = false);
    }

    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.frozen[id.0]
    }

    /// Count of frozen parameters.
    pub fn frozen_count(&self) -> usize {
        self.frozen.iter().filter(|&&f| f).count()
    }

    /// Total scalar count (for the §4.8.2 model-size measurement).
    pub fn num_scalars(&self) -> usize {
        self.mats.iter().map(Matrix::len).sum()
    }

    /// Serialized size in bytes if stored as raw f32 (model-size metric).
    pub fn byte_size(&self) -> usize {
        self.num_scalars() * std::mem::size_of::<f32>()
    }

    /// Copy parameter values from another set where names match (transfer).
    /// Returns the number of transferred matrices.
    pub fn copy_matching_from(&mut self, source: &ParamSet) -> usize {
        let mut n = 0;
        for (i, name) in self.names.iter().enumerate() {
            if let Some(j) = source.names.iter().position(|s| s == name) {
                if source.mats[j].shape() == self.mats[i].shape() {
                    self.mats[i] = source.mats[j].clone();
                    n += 1;
                }
            }
        }
        n
    }

    /// Strict variant of [`copy_matching_from`](Self::copy_matching_from):
    /// every parameter in `self` must find a same-name, same-shape source, and
    /// `source` must carry no extras. Any discrepancy is an error describing
    /// exactly what failed to line up — nothing is silently skipped (the
    /// destination is still mutated for whatever did match; callers treat an
    /// `Err` as fatal and discard the set).
    pub fn copy_exact_from(&mut self, source: &ParamSet) -> Result<(), ParamMismatch> {
        let mut mismatches = Vec::new();
        for (i, name) in self.names.iter().enumerate() {
            match source.names.iter().position(|s| s == name) {
                None => mismatches.push(format!("missing parameter `{name}`")),
                Some(j) if source.mats[j].shape() != self.mats[i].shape() => {
                    mismatches.push(format!(
                        "shape mismatch for `{name}`: expected {:?}, found {:?}",
                        self.mats[i].shape(),
                        source.mats[j].shape()
                    ));
                }
                Some(j) => self.mats[i] = source.mats[j].clone(),
            }
        }
        for name in &source.names {
            if !self.names.contains(name) {
                mismatches.push(format!("unexpected parameter `{name}`"));
            }
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(ParamMismatch {
                expected: self.names.len(),
                matched: self.names.len()
                    - mismatches
                        .iter()
                        .filter(|m| !m.starts_with("unexpected"))
                        .count(),
                mismatches,
            })
        }
    }

    /// Iterate `(name, matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.names.iter().map(String::as_str).zip(self.mats.iter())
    }
}

/// Why a strict parameter restore was rejected: the matched-vs-expected
/// count plus a line per discrepancy.
#[derive(Debug, Clone)]
pub struct ParamMismatch {
    pub expected: usize,
    pub matched: usize,
    pub mismatches: Vec<String>,
}

impl std::fmt::Display for ParamMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parameter set mismatch ({}/{} matched): {}",
            self.matched,
            self.expected,
            self.mismatches.join("; ")
        )
    }
}

impl std::error::Error for ParamMismatch {}

/// Optimizer over a [`ParamSet`].
pub trait Optimizer {
    /// Apply one update step. `vars[i]` must be the tape var bound from
    /// parameter `i` this pass (i.e. the output of [`ParamSet::bind`]).
    fn step(&mut self, params: &mut ParamSet, vars: &[Var], grads: &Grads);
}

/// SGD with classical momentum and optional L2 weight decay.
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    velocity: Vec<Option<Matrix>>,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    pub fn with_momentum(mut self, m: f32) -> Self {
        self.momentum = m;
        self
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet, vars: &[Var], grads: &Grads) {
        if self.velocity.len() < params.len() {
            self.velocity.resize_with(params.len(), || None);
        }
        let (lr, mom, wd) = (self.lr, self.momentum, self.weight_decay);
        // Fully in-place: updates are element-wise independent, so one fused
        // pass per parameter replaces the old clone/scale/axpy sequence with
        // the same floating-point expressions (bitwise-identical trajectory,
        // zero allocations after the velocity buffers exist).
        #[expect(
            clippy::needless_range_loop,
            reason = "i indexes four parallel arrays (frozen, mats, vars, velocity)"
        )]
        for i in 0..params.len() {
            if params.frozen[i] {
                continue;
            }
            let Some(g) = grads.get(vars[i]) else {
                continue;
            };
            let p = &mut params.mats[i];
            if mom > 0.0 {
                let v = self.velocity[i].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
                for ((pk, vk), &gk) in p.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                    let upd = if wd > 0.0 { gk + wd * *pk } else { gk };
                    *vk = *vk * mom + upd;
                    *pk += -lr * *vk;
                }
            } else {
                for (pk, &gk) in p.data_mut().iter_mut().zip(g.data()) {
                    let upd = if wd > 0.0 { gk + wd * *pk } else { gk };
                    *pk += -lr * upd;
                }
            }
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Snapshot the optimizer's mutable state (step count + moment
    /// estimates) for exact-resume checkpointing. Hyperparameters are not
    /// included — they come from the training config on resume.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore a snapshot taken by [`state`](Self::state). The next `step`
    /// continues the bias-correction schedule and moment estimates exactly
    /// where the snapshotted optimizer left off.
    pub fn restore(&mut self, state: AdamState) {
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

/// Serializable snapshot of [`Adam`]'s mutable state.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AdamState {
    pub t: u64,
    pub m: Vec<Option<Matrix>>,
    pub v: Vec<Option<Matrix>>,
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, vars: &[Var], grads: &Grads) {
        if self.m.len() < params.len() {
            self.m.resize_with(params.len(), || None);
            self.v.resize_with(params.len(), || None);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps, wd) =
            (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        // Fused in-place update. Each element's arithmetic mirrors the old
        // clone/scale/axpy/mul sequence exactly (same f32 expressions in the
        // same order), so trajectories and `state()` round-trips stay
        // bitwise-identical — the step just stops allocating O(params) fresh
        // matrices once the moment buffers exist.
        #[expect(
            clippy::needless_range_loop,
            reason = "i indexes five parallel arrays (frozen, mats, vars, m, v)"
        )]
        for i in 0..params.len() {
            if params.frozen[i] {
                continue;
            }
            let Some(g) = grads.get(vars[i]) else {
                continue;
            };
            let m = self.m[i].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            let v = self.v[i].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            let p = &mut params.mats[i];
            for (((pk, mk), vk), &gk) in p
                .data_mut()
                .iter_mut()
                .zip(m.data_mut())
                .zip(v.data_mut())
                .zip(g.data())
            {
                let grad = if wd > 0.0 { gk + wd * *pk } else { gk };
                *mk = *mk * beta1 + (1.0 - beta1) * grad;
                *vk = *vk * beta2 + (1.0 - beta2) * (grad * grad);
                let mh = *mk / bc1;
                let vh = *vk / bc2;
                *pk -= lr * mh / (vh.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    /// Minimise f(w) = (w − 3)² with each optimizer; both must converge.
    fn run_quadratic(opt: &mut dyn Optimizer) -> f32 {
        let mut params = ParamSet::new();
        params.add("w", Matrix::full(1, 1, 0.0));
        for _ in 0..300 {
            let mut tape = Tape::new();
            let vars = params.bind(&mut tape);
            let target = tape.constant(Matrix::full(1, 1, 3.0));
            let diff = tape.sub(vars[0], target);
            let sq = tape.mul(diff, diff);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            opt.step(&mut params, &vars, &grads);
        }
        params.get(ParamId(0)).get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1).with_momentum(0.5);
        assert!((run_quadratic(&mut opt) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!((run_quadratic(&mut opt) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut params = ParamSet::new();
        params.add("enc.w", Matrix::full(1, 1, 1.0));
        params.add("head.w", Matrix::full(1, 1, 1.0));
        assert_eq!(params.freeze_prefix("enc."), 1);
        let mut opt = Sgd::new(0.5);
        let mut tape = Tape::new();
        let vars = params.bind(&mut tape);
        let s = tape.add(vars[0], vars[1]);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        opt.step(&mut params, &vars, &grads);
        assert_eq!(params.get(ParamId(0)).get(0, 0), 1.0, "frozen param moved");
        assert!(
            params.get(ParamId(1)).get(0, 0) < 1.0,
            "live param should move"
        );
    }

    #[test]
    fn copy_exact_rejects_any_mismatch() {
        let mut src = ParamSet::new();
        src.add("enc.w", Matrix::full(2, 2, 5.0));
        src.add("head.w", Matrix::full(1, 3, 7.0));

        let mut exact = ParamSet::new();
        exact.add("enc.w", Matrix::zeros(2, 2));
        exact.add("head.w", Matrix::zeros(1, 3));
        assert!(exact.copy_exact_from(&src).is_ok());
        assert_eq!(exact.get(ParamId(1)).get(0, 2), 7.0);

        let mut shape_off = ParamSet::new();
        shape_off.add("enc.w", Matrix::zeros(2, 2));
        shape_off.add("head.w", Matrix::zeros(1, 4));
        let err = shape_off.copy_exact_from(&src).unwrap_err();
        assert_eq!(err.matched, 1);
        assert_eq!(err.expected, 2);
        assert!(err.to_string().contains("head.w"), "{err}");

        let mut missing = ParamSet::new();
        missing.add("enc.w", Matrix::zeros(2, 2));
        missing.add("other.w", Matrix::zeros(1, 1));
        let err = missing.copy_exact_from(&src).unwrap_err();
        assert!(err.to_string().contains("missing parameter `other.w`"));
        assert!(err.to_string().contains("unexpected parameter `head.w`"));
    }

    #[test]
    fn adam_state_round_trip_resumes_exact() {
        // run 10 steps straight vs 5 steps + snapshot/restore + 5 steps
        let run = |split: Option<usize>| -> f32 {
            let mut params = ParamSet::new();
            params.add("w", Matrix::full(1, 1, 0.0));
            let mut opt = Adam::new(0.1);
            for step in 0..10 {
                if split == Some(step) {
                    let snap = opt.state();
                    opt = Adam::new(0.1);
                    opt.restore(snap);
                }
                let mut tape = Tape::new();
                let vars = params.bind(&mut tape);
                let target = tape.constant(Matrix::full(1, 1, 3.0));
                let diff = tape.sub(vars[0], target);
                let sq = tape.mul(diff, diff);
                let loss = tape.sum_all(sq);
                let grads = tape.backward(loss);
                opt.step(&mut params, &vars, &grads);
            }
            params.get(ParamId(0)).get(0, 0)
        };
        assert_eq!(run(None).to_bits(), run(Some(5)).to_bits());
    }

    #[test]
    fn copy_matching_transfers_by_name_and_shape() {
        let mut src = ParamSet::new();
        src.add("enc.w", Matrix::full(2, 2, 5.0));
        src.add("head.w", Matrix::full(1, 3, 7.0));
        let mut dst = ParamSet::new();
        dst.add("enc.w", Matrix::zeros(2, 2));
        dst.add("head.w", Matrix::zeros(1, 4)); // shape mismatch: skipped
        assert_eq!(dst.copy_matching_from(&src), 1);
        assert_eq!(dst.get(ParamId(0)).get(0, 0), 5.0);
        assert_eq!(dst.get(ParamId(1)).get(0, 0), 0.0);
    }
}
