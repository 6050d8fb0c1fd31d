//! Multi-layer perceptron classifier on the autograd substrate, with
//! class-weighted cross-entropy (the Figure 6 "MLP").

use crate::Classifier;
use glint_tensor::{init, Adam, Matrix, ParamSet, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

use glint_tensor::optim::ParamId;

/// MLP with one or more hidden ReLU layers and a softmax head.
pub struct MlpClassifier {
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
    pub class_weights: Option<[f32; 2]>,
    params: ParamSet,
    layer_ids: Vec<(ParamId, ParamId)>,
    in_dim: usize,
}

impl MlpClassifier {
    pub fn new(hidden: Vec<usize>) -> Self {
        Self {
            hidden,
            epochs: 120,
            lr: 5e-3,
            seed: 0,
            class_weights: None,
            params: ParamSet::new(),
            layer_ids: Vec::new(),
            in_dim: 0,
        }
    }

    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn init_params(&mut self, in_dim: usize) {
        self.in_dim = in_dim;
        self.params = ParamSet::new();
        self.layer_ids.clear();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut dims = vec![in_dim];
        dims.extend(&self.hidden);
        dims.push(2);
        for (l, w) in dims.windows(2).enumerate() {
            let wid = self.params.add(
                format!("mlp.l{l}.w"),
                init::xavier_uniform(&mut rng, w[0], w[1]),
            );
            let bid = self
                .params
                .add(format!("mlp.l{l}.b"), Matrix::zeros(1, w[1]));
            self.layer_ids.push((wid, bid));
        }
    }

    /// Forward pass, returning the logits var.
    fn forward(
        &self,
        tape: &mut Tape,
        vars: &[glint_tensor::Var],
        x: &Matrix,
    ) -> glint_tensor::Var {
        let mut h = tape.constant(x.clone());
        let n_layers = self.layer_ids.len();
        for (l, (wid, bid)) in self.layer_ids.iter().enumerate() {
            let w = vars[wid.0];
            let b = vars[bid.0];
            h = tape.linear(h, w, b);
            if l + 1 < n_layers {
                h = tape.relu(h);
            }
        }
        h
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        let mut tape = Tape::new();
        let vars = self.params.bind(&mut tape);
        let out = self.forward(&mut tape, &vars, x);
        tape.value(out).clone()
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len());
        self.init_params(x.cols());
        let cw = self.class_weights.unwrap_or_else(|| {
            let w = crate::sampling::class_weights(y, 2);
            [w[0], w[1]]
        });
        let mut opt = Adam::new(self.lr);
        for _ in 0..self.epochs {
            let mut tape = Tape::new();
            let vars = self.params.bind(&mut tape);
            let logits = self.forward(&mut tape, &vars, x);
            let loss = tape.softmax_cross_entropy(logits, y, &cw);
            let grads = tape.backward(loss);
            opt.step(&mut self.params, &vars, &grads);
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.logits(x).argmax_rows()
    }

    fn decision_scores(&self, x: &Matrix) -> Vec<f32> {
        let p = self.logits(x).softmax_rows();
        (0..p.rows()).map(|r| p.get(r, 1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn xor_cloud(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.gen_bool(0.5);
            let b = rng.gen_bool(0.5);
            let fx = if a { 1.0 } else { -1.0 } + rng.gen_range(-0.3f32..0.3);
            let fy = if b { 1.0 } else { -1.0 } + rng.gen_range(-0.3f32..0.3);
            rows.push(vec![fx, fy]);
            y.push(usize::from(a != b));
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_xor_cloud() {
        let (x, y) = xor_cloud(200, 21);
        let mut mlp = MlpClassifier::new(vec![16]).with_epochs(250).with_seed(1);
        mlp.fit(&x, &y);
        let acc = crate::metrics::BinaryMetrics::from_predictions(&y, &mlp.predict(&x)).accuracy;
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn scores_are_probabilities() {
        let (x, y) = xor_cloud(50, 22);
        let mut mlp = MlpClassifier::new(vec![8]).with_epochs(50);
        mlp.fit(&x, &y);
        for s in mlp.decision_scores(&x) {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_cloud(80, 23);
        let mut a = MlpClassifier::new(vec![8]).with_epochs(30).with_seed(4);
        let mut b = MlpClassifier::new(vec![8]).with_epochs(30).with_seed(4);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
    }
}
