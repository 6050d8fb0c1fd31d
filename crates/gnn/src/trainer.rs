//! Training loops: ITGNN-S-style weighted classification (Eq. 2) and
//! ITGNN-C-style contrastive embedding learning (Eq. 1), plus evaluation.

use crate::batch::PreparedGraph;
use crate::loss::{eq2_total, sample_pairs};
use crate::models::{GraphModel, InferOutput};
use glint_ml::metrics::BinaryMetrics;
use glint_tensor::checkpoint::{
    load_checkpoint, save_checkpoint, CheckpointError, TrainCheckpoint,
};
use glint_tensor::tape::Grads;
use glint_tensor::{par, Adam, InferCtx, Matrix, ParamMismatch, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::path::PathBuf;

/// Fail-point site hit after every completed epoch (post-checkpoint) in the
/// resumable training paths.
pub const SITE_EPOCH_END: &str = "trainer.epoch_end";

/// Shared training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub lr: f32,
    /// Weight β of the pooling loss in Eq. (2).
    pub beta: f32,
    /// Contrastive margin ε in Eq. (1).
    pub margin: f32,
    pub seed: u64,
    /// Graphs (or pairs) per optimizer step. `1` reproduces classic
    /// per-sample SGD exactly; larger batches accumulate per-sample
    /// gradients — computed concurrently on worker threads — and reduce
    /// them in sample order before a single Adam step, so results are
    /// identical at any thread count for a fixed seed.
    pub batch_size: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 12,
            lr: 3e-3,
            beta: 0.1,
            margin: 5.0,
            seed: 0,
            batch_size: 1,
        }
    }
}

/// Reduce per-sample `(flat gradients, loss)` results into one [`Grads`]
/// (mean over the batch) plus the summed loss. Accumulation follows the
/// sample order of `results` — fixed by the caller, never by thread timing.
fn reduce_batch(results: Vec<(Vec<Option<Matrix>>, f32)>) -> (Grads, f32) {
    let n_params = results.first().map_or(0, |(g, _)| g.len());
    let count = results.len();
    let mut sum: Vec<Option<Matrix>> = vec![None; n_params];
    let mut loss = 0.0f32;
    for (flat, l) in results {
        loss += l;
        for (acc, g) in sum.iter_mut().zip(flat) {
            if let Some(g) = g {
                match acc {
                    Some(a) => *a = a.add(&g),
                    None => *acc = Some(g),
                }
            }
        }
    }
    if count > 1 {
        let inv = 1.0 / count as f32;
        for a in sum.iter_mut().flatten() {
            *a = a.scale(inv);
        }
    }
    (Grads::from_options(sum), loss)
}

/// The tape vars a fresh `bind` will produce, computed once up front so the
/// optimizer can be fed batch-reduced gradients without keeping any of the
/// per-sample tapes alive.
fn canonical_vars(model: &dyn GraphModel) -> Vec<Var> {
    model.params().bind(&mut Tape::new())
}

/// Where and how often resumable training writes durable checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint file (one file, overwritten atomically each save).
    pub path: PathBuf,
    /// Save after every `every` completed epochs (`1` = every epoch).
    pub every: usize,
}

impl CheckpointPolicy {
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            path: path.into(),
            every: every.max(1),
        }
    }
}

/// Why resumable training stopped short of a finished report.
#[derive(Debug)]
pub enum TrainError {
    /// No graphs (or pairs) to train on.
    EmptyTrainingSet,
    /// A checkpoint could not be written, or an existing one could not be
    /// read (corrupt/truncated/version-mismatch files land here, typed).
    Checkpoint(CheckpointError),
    /// The checkpoint's parameters do not fit the model being resumed.
    Restore(ParamMismatch),
    /// An injected fault (or real IO error) fired at an epoch boundary;
    /// training state up to the last checkpoint is safely on disk.
    Interrupted(std::io::Error),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyTrainingSet => write!(f, "empty training set"),
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            TrainError::Restore(e) => write!(f, "resume rejected: {e}"),
            TrainError::Interrupted(e) => write!(f, "training interrupted: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<ParamMismatch> for TrainError {
    fn from(e: ParamMismatch) -> Self {
        TrainError::Restore(e)
    }
}

/// Mutable state a trainer carries across epochs; exactly what a checkpoint
/// captures, so `resume(save(state))` is the identity.
struct EpochState {
    opt: Adam,
    rng: StdRng,
    start_epoch: usize,
    losses: Vec<f32>,
}

impl EpochState {
    fn fresh(lr: f32, seed: u64) -> Self {
        Self {
            opt: Adam::new(lr),
            rng: StdRng::seed_from_u64(seed),
            start_epoch: 0,
            losses: Vec::new(),
        }
    }

    /// Resume from `policy.path` when a checkpoint exists there; fresh state
    /// otherwise. A present-but-unreadable checkpoint is a typed error, not
    /// a silent restart — the caller decides whether to delete it.
    fn resume(
        lr: f32,
        seed: u64,
        model: &mut dyn GraphModel,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<Self, TrainError> {
        let Some(policy) = policy else {
            return Ok(Self::fresh(lr, seed));
        };
        if !policy.path.exists() {
            return Ok(Self::fresh(lr, seed));
        }
        let ckpt = load_checkpoint(&policy.path)?;
        model.params_mut().copy_exact_from(&ckpt.params)?;
        let mut opt = Adam::new(lr);
        opt.restore(ckpt.opt);
        Ok(Self {
            opt,
            rng: StdRng::from_state(ckpt.rng_state),
            start_epoch: ckpt.epochs_done,
            losses: ckpt.epoch_losses,
        })
    }

    /// Checkpoint after epoch `done` (1-based count of completed epochs) if
    /// the policy says so, then hit the epoch-end fail point.
    fn epoch_end(
        &mut self,
        done: usize,
        model: &dyn GraphModel,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<(), TrainError> {
        if let Some(policy) = policy {
            if done.is_multiple_of(policy.every) {
                let _span = glint_trace::span("checkpoint");
                let ckpt = TrainCheckpoint {
                    params: model.params().clone(),
                    opt: self.opt.state(),
                    rng_state: self.rng.state(),
                    epochs_done: done,
                    epoch_losses: self.losses.clone(),
                };
                save_checkpoint(&policy.path, &ckpt)?;
                glint_trace::counter("train.checkpoints", 1);
            }
        }
        glint_failpoint::trigger(SITE_EPOCH_END).map_err(TrainError::Interrupted)
    }
}

/// Per-epoch mean losses from a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Did the loss go down overall?
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

fn labels_of(graphs: &[PreparedGraph]) -> Vec<usize> {
    graphs
        .iter()
        .map(|g| g.label.expect("training graphs must be labeled"))
        .collect()
}

/// Supervised trainer (ITGNN-S protocol, also used for all baselines).
pub struct ClassifierTrainer {
    pub config: TrainConfig,
}

impl ClassifierTrainer {
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// Train in place; one optimizer step per `batch_size` graphs. The
    /// per-graph forward/backward passes of a batch run concurrently (see
    /// [`par::ordered_map`]); gradients are reduced in batch order, so the
    /// result is independent of the thread count.
    pub fn train(&self, model: &mut dyn GraphModel, train: &[PreparedGraph]) -> TrainReport {
        assert!(!train.is_empty(), "empty training set");
        self.train_inner(model, train, None)
            .expect("training without a checkpoint policy cannot fail")
    }

    /// Like [`train`](Self::train), but checkpoints every
    /// [`CheckpointPolicy::every`] epochs and resumes from `policy.path`
    /// when a checkpoint already exists there. A run killed at any epoch
    /// boundary and resumed produces bitwise the same parameters, losses,
    /// and report as an uninterrupted run with the same config.
    pub fn train_resumable(
        &self,
        model: &mut dyn GraphModel,
        train: &[PreparedGraph],
        policy: &CheckpointPolicy,
    ) -> Result<TrainReport, TrainError> {
        self.train_inner(model, train, Some(policy))
    }

    fn train_inner(
        &self,
        model: &mut dyn GraphModel,
        train: &[PreparedGraph],
        policy: Option<&CheckpointPolicy>,
    ) -> Result<TrainReport, TrainError> {
        if train.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        let labels = labels_of(train);
        let cw = glint_ml::sampling::class_weights(&labels, 2);
        let batch = self.config.batch_size.max(1);
        let vars = canonical_vars(model);
        let mut state = EpochState::resume(self.config.lr, self.config.seed, model, policy)?;
        let _train_span = glint_trace::span("classifier_train");
        for epoch in state.start_epoch..self.config.epochs {
            let _epoch_span = glint_trace::span("epoch");
            let mut order: Vec<usize> = (0..train.len()).collect();
            order.shuffle(&mut state.rng);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(batch) {
                let frozen: &dyn GraphModel = model;
                let results = {
                    let _span = glint_trace::span("forward_backward");
                    par::ordered_map(chunk.len(), |j| {
                        let i = chunk[j];
                        let mut tape = Tape::new();
                        let vars = frozen.params().bind(&mut tape);
                        let out = frozen.forward(&mut tape, &vars, &train[i]);
                        let cls = tape.softmax_cross_entropy(out.logits, &[labels[i]], &cw);
                        let total = eq2_total(&mut tape, cls, out.aux_loss, self.config.beta);
                        let grads = tape.backward(total);
                        let flat = vars.iter().map(|&v| grads.get(v).cloned()).collect();
                        (flat, tape.value(total).get(0, 0))
                    })
                };
                let (grads, loss_sum) = reduce_batch(results);
                epoch_loss += loss_sum;
                if glint_trace::enabled() {
                    glint_trace::counter("train.steps", 1);
                    glint_trace::gauge("train.grad_norm", f64::from(grads.global_norm(&vars)));
                }
                let _opt_span = glint_trace::span("optimizer");
                state.opt.step(model.params_mut(), &vars, &grads);
            }
            state.losses.push(epoch_loss / train.len() as f32);
            if glint_trace::enabled() {
                glint_trace::counter("train.epochs", 1);
                glint_trace::gauge("train.loss", f64::from(epoch_loss / train.len() as f32));
            }
            state.epoch_end(epoch + 1, model, policy)?;
        }
        Ok(TrainReport {
            epoch_losses: state.losses,
        })
    }

    /// Predict the class of one graph. Serving path: tape-free forward on
    /// this thread's pooled [`glint_tensor::infer::InferCtx`] — no autograd
    /// nodes, and at steady state no allocations.
    pub fn predict(model: &dyn GraphModel, g: &PreparedGraph) -> usize {
        glint_tensor::infer::with_ctx(|ctx| {
            let out = model.forward_infer(ctx, g);
            let pred = out.logits.argmax_rows()[0];
            ctx.release(out.embedding);
            ctx.release(out.logits);
            pred
        })
    }

    /// Probability of the threat class (tape-free, see [`predict`](Self::predict)).
    pub fn predict_proba(model: &dyn GraphModel, g: &PreparedGraph) -> f32 {
        glint_tensor::infer::with_ctx(|ctx| {
            let out = model.forward_infer(ctx, g);
            Self::threat_probability(ctx, out)
        })
    }

    /// The threat-class probability of one tape-free forward's output; its
    /// buffers go back to `ctx`.
    pub fn threat_probability(ctx: &mut InferCtx, out: InferOutput) -> f32 {
        let mut logits = out.logits;
        logits.softmax_rows_inplace();
        let p = logits.get(0, 1);
        ctx.release(out.embedding);
        ctx.release(logits);
        p
    }

    /// Evaluate on labeled graphs with the paper's weighted-F1 convention.
    /// Test graphs are scored concurrently, predictions in input order.
    pub fn evaluate(model: &dyn GraphModel, test: &[PreparedGraph]) -> BinaryMetrics {
        let y_true = labels_of(test);
        let y_pred = par::ordered_map(test.len(), |i| Self::predict(model, &test[i]));
        BinaryMetrics::weighted_from_predictions(&y_true, &y_pred)
    }
}

/// Contrastive trainer (ITGNN-C, Eq. 1 + Algorithm 3's embedding source).
pub struct ContrastiveTrainer {
    pub config: TrainConfig,
}

impl ContrastiveTrainer {
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// Train in place; one optimizer step per `batch_size` contrastive
    /// pairs, with the pairs of a batch processed concurrently and reduced
    /// in pair order (thread-count independent, like the classifier).
    pub fn train(&self, model: &mut dyn GraphModel, train: &[PreparedGraph]) -> TrainReport {
        assert!(!train.is_empty());
        self.train_inner(model, train, None)
            .expect("training without a checkpoint policy cannot fail")
    }

    /// Resumable variant — same contract as
    /// [`ClassifierTrainer::train_resumable`]: kill at any epoch boundary,
    /// resume, and the final parameters are bitwise identical to an
    /// uninterrupted run.
    pub fn train_resumable(
        &self,
        model: &mut dyn GraphModel,
        train: &[PreparedGraph],
        policy: &CheckpointPolicy,
    ) -> Result<TrainReport, TrainError> {
        self.train_inner(model, train, Some(policy))
    }

    fn train_inner(
        &self,
        model: &mut dyn GraphModel,
        train: &[PreparedGraph],
        policy: Option<&CheckpointPolicy>,
    ) -> Result<TrainReport, TrainError> {
        if train.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        let labels = labels_of(train);
        // one pair per training graph each epoch
        let n_pairs = train.len();
        let batch = self.config.batch_size.max(1);
        let vars = canonical_vars(model);
        let mut state = EpochState::resume(self.config.lr, self.config.seed, model, policy)?;
        let _train_span = glint_trace::span("contrastive_train");
        for epoch in state.start_epoch..self.config.epochs {
            let _epoch_span = glint_trace::span("epoch");
            let pairs = sample_pairs(&labels, n_pairs, &mut state.rng);
            let mut epoch_loss = 0.0;
            for chunk in pairs.chunks(batch) {
                let frozen: &dyn GraphModel = model;
                let results = {
                    let _span = glint_trace::span("forward_backward");
                    par::ordered_map(chunk.len(), |j| {
                        let (a, b, same) = chunk[j];
                        let mut tape = Tape::new();
                        let vars = frozen.params().bind(&mut tape);
                        let out_a = frozen.forward(&mut tape, &vars, &train[a]);
                        let out_b = frozen.forward(&mut tape, &vars, &train[b]);
                        let contrast = tape.contrastive_pair(
                            out_a.embedding,
                            out_b.embedding,
                            same,
                            self.config.margin,
                        );
                        // pooling losses from both forwards still regularize
                        let with_a =
                            eq2_total(&mut tape, contrast, out_a.aux_loss, self.config.beta);
                        let total = eq2_total(&mut tape, with_a, out_b.aux_loss, self.config.beta);
                        let grads = tape.backward(total);
                        let flat = vars.iter().map(|&v| grads.get(v).cloned()).collect();
                        (flat, tape.value(total).get(0, 0))
                    })
                };
                let (grads, loss_sum) = reduce_batch(results);
                epoch_loss += loss_sum;
                if glint_trace::enabled() {
                    glint_trace::counter("train.steps", 1);
                    glint_trace::gauge("train.grad_norm", f64::from(grads.global_norm(&vars)));
                }
                let _opt_span = glint_trace::span("optimizer");
                state.opt.step(model.params_mut(), &vars, &grads);
            }
            state.losses.push(epoch_loss / pairs.len().max(1) as f32);
            if glint_trace::enabled() {
                glint_trace::counter("train.epochs", 1);
                glint_trace::gauge(
                    "train.loss",
                    f64::from(epoch_loss / pairs.len().max(1) as f32),
                );
            }
            state.epoch_end(epoch + 1, model, policy)?;
        }
        Ok(TrainReport {
            epoch_losses: state.losses,
        })
    }

    /// Latent representation of one graph (Algorithm 3 line 3). Serving
    /// path: tape-free forward on this thread's pooled
    /// [`glint_tensor::infer::InferCtx`].
    pub fn embed(model: &dyn GraphModel, g: &PreparedGraph) -> Vec<f32> {
        glint_tensor::infer::with_ctx(|ctx| {
            let out = model.forward_infer(ctx, g);
            let v = out.embedding.data().to_vec();
            ctx.release(out.embedding);
            ctx.release(out.logits);
            v
        })
    }

    /// Embeddings of a whole set as an `n × embed` matrix. Graphs are
    /// scored concurrently; rows come back in input order regardless of
    /// the thread count.
    pub fn embed_all(model: &dyn GraphModel, graphs: &[PreparedGraph]) -> Matrix {
        let rows = par::ordered_map(graphs.len(), |i| Self::embed(model, &graphs[i]));
        Matrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests_support::homo_line_graph;
    use crate::models::{GcnModel, Itgnn, ItgnnConfig, ModelConfig};
    use glint_graph::graph::{EdgeKind, GraphLabel};
    use glint_rules::Platform;

    /// Tiny synthetic task: threat graphs contain a directed cycle (denser
    /// edge structure), normal graphs are lines. Features overlap.
    fn toy_dataset(n: usize) -> Vec<PreparedGraph> {
        let mut out = Vec::new();
        for i in 0..n {
            let size = 4 + (i % 3);
            let mut g = homo_line_graph(size, 6);
            let threat = i % 2 == 1;
            if threat {
                g.add_edge(size - 1, 0, EdgeKind::ActionTrigger);
                g.add_edge(size / 2, 0, EdgeKind::ActionTrigger);
            }
            out.push(PreparedGraph::from_graph(&g.with_label(if threat {
                GraphLabel::Threat
            } else {
                GraphLabel::Normal
            })));
        }
        out
    }

    #[test]
    fn classifier_training_reduces_loss_and_fits_toy_task() {
        let data = toy_dataset(24);
        let mut model = GcnModel::new(
            6,
            ModelConfig {
                hidden: 16,
                embed: 16,
                seed: 1,
            },
        );
        let trainer = ClassifierTrainer::new(TrainConfig {
            epochs: 30,
            lr: 5e-3,
            ..Default::default()
        });
        let report = trainer.train(&mut model, &data);
        assert!(
            report.improved(),
            "loss did not fall: {:?}",
            report.epoch_losses
        );
        let metrics = ClassifierTrainer::evaluate(&model, &data);
        assert!(metrics.accuracy > 0.9, "toy accuracy {metrics}");
    }

    #[test]
    fn itgnn_fits_toy_task() {
        let data = toy_dataset(20);
        let cfg = ItgnnConfig {
            hidden: 16,
            embed: 16,
            n_scales: 2,
            ..Default::default()
        };
        let mut model = Itgnn::homogeneous(Platform::Ifttt, 6, cfg);
        let trainer = ClassifierTrainer::new(TrainConfig {
            epochs: 25,
            lr: 5e-3,
            ..Default::default()
        });
        trainer.train(&mut model, &data);
        let metrics = ClassifierTrainer::evaluate(&model, &data);
        assert!(metrics.accuracy > 0.85, "ITGNN toy accuracy {metrics}");
    }

    #[test]
    fn contrastive_training_separates_classes() {
        let data = toy_dataset(20);
        let cfg = ItgnnConfig {
            hidden: 16,
            embed: 8,
            n_scales: 2,
            ..Default::default()
        };
        let mut model = Itgnn::homogeneous(Platform::Ifttt, 6, cfg);
        let trainer = ContrastiveTrainer::new(TrainConfig {
            epochs: 20,
            lr: 5e-3,
            margin: 3.0,
            ..Default::default()
        });
        trainer.train(&mut model, &data);
        // intra-class distances must be smaller than inter-class distances
        let emb = ContrastiveTrainer::embed_all(&model, &data);
        let labels: Vec<usize> = data.iter().map(|g| g.label.unwrap()).collect();
        let (mut intra, mut inter, mut n_intra, mut n_inter) = (0.0f32, 0.0f32, 0, 0);
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                let d: f32 = emb
                    .row(i)
                    .iter()
                    .zip(emb.row(j))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
                    .sqrt();
                if labels[i] == labels[j] {
                    intra += d;
                    n_intra += 1;
                } else {
                    inter += d;
                    n_inter += 1;
                }
            }
        }
        let intra = intra / n_intra as f32;
        let inter = inter / n_inter as f32;
        assert!(
            inter > intra,
            "contrastive failed: intra={intra} inter={inter}"
        );
    }

    /// The batched trainers promise thread-count independence: same seed +
    /// same batch size ⇒ bitwise-identical parameters and losses whether
    /// the batch runs on 1 worker or 8.
    #[test]
    fn batched_training_deterministic_across_thread_counts() {
        let data = toy_dataset(16);
        let cfg = TrainConfig {
            epochs: 4,
            lr: 5e-3,
            batch_size: 4,
            ..Default::default()
        };
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut model = GcnModel::new(
                    6,
                    ModelConfig {
                        hidden: 16,
                        embed: 16,
                        seed: 7,
                    },
                );
                let report = ClassifierTrainer::new(cfg.clone()).train(&mut model, &data);
                (model, report)
            })
        };
        let (m1, r1) = run(1);
        let (m8, r8) = run(8);
        assert_eq!(r1.epoch_losses, r8.epoch_losses, "loss curves diverged");
        for ((n1, p1), (_, p8)) in m1.params().iter().zip(m8.params().iter()) {
            assert_eq!(p1, p8, "parameter {n1} differs between thread counts");
        }
    }

    #[test]
    fn contrastive_batched_training_deterministic_across_thread_counts() {
        let data = toy_dataset(12);
        let cfg = ItgnnConfig {
            hidden: 12,
            embed: 8,
            n_scales: 2,
            ..Default::default()
        };
        let tcfg = TrainConfig {
            epochs: 3,
            lr: 5e-3,
            margin: 3.0,
            batch_size: 3,
            ..Default::default()
        };
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut model = Itgnn::homogeneous(Platform::Ifttt, 6, cfg.clone());
                ContrastiveTrainer::new(tcfg.clone()).train(&mut model, &data);
                ContrastiveTrainer::embed_all(&model, &data)
            })
        };
        assert_eq!(
            run(1),
            run(8),
            "contrastive embeddings differ between thread counts"
        );
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("glint_trainer_tests");
        std::fs::create_dir_all(&dir).expect("create test dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path); // each test starts fresh
        path
    }

    fn assert_params_bitwise(a: &dyn GraphModel, b: &dyn GraphModel) {
        for ((name, pa), (_, pb)) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(pa.shape(), pb.shape(), "shape of {name}");
            for (x, y) in pa.data().iter().zip(pb.data()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "parameter {name} not bitwise equal"
                );
            }
        }
    }

    /// Kill the classifier run at every possible epoch boundary; each
    /// resumed run must match the uninterrupted run bitwise.
    #[test]
    fn classifier_kill_resume_is_bitwise_identical() {
        let data = toy_dataset(12);
        let cfg = TrainConfig {
            epochs: 6,
            lr: 5e-3,
            batch_size: 3,
            seed: 9,
            ..Default::default()
        };
        let fresh_model = || {
            GcnModel::new(
                6,
                ModelConfig {
                    hidden: 8,
                    embed: 8,
                    seed: 5,
                },
            )
        };
        let mut straight = fresh_model();
        let straight_report = ClassifierTrainer::new(cfg.clone()).train(&mut straight, &data);

        for kill_after in 1..cfg.epochs {
            let path = ckpt_path(&format!("classifier_kill_{kill_after}.ckpt"));
            let policy = CheckpointPolicy::new(&path, 1);
            // phase 1: run only `kill_after` epochs, as if the process died
            let mut part = fresh_model();
            let short_cfg = TrainConfig {
                epochs: kill_after,
                ..cfg.clone()
            };
            ClassifierTrainer::new(short_cfg)
                .train_resumable(&mut part, &data, &policy)
                .unwrap();
            // phase 2: brand-new process resumes from the checkpoint
            let mut resumed = fresh_model();
            let report = ClassifierTrainer::new(cfg.clone())
                .train_resumable(&mut resumed, &data, &policy)
                .unwrap();
            assert_params_bitwise(&straight, &resumed);
            assert_eq!(
                straight_report.epoch_losses, report.epoch_losses,
                "loss trace diverged resuming after epoch {kill_after}"
            );
        }
    }

    #[test]
    fn contrastive_kill_resume_is_bitwise_identical() {
        let data = toy_dataset(10);
        let mcfg = ItgnnConfig {
            hidden: 8,
            embed: 8,
            n_scales: 2,
            ..Default::default()
        };
        let cfg = TrainConfig {
            epochs: 4,
            lr: 5e-3,
            margin: 3.0,
            batch_size: 2,
            seed: 3,
            ..Default::default()
        };
        let fresh_model = || Itgnn::homogeneous(Platform::Ifttt, 6, mcfg.clone());
        let mut straight = fresh_model();
        ContrastiveTrainer::new(cfg.clone()).train(&mut straight, &data);

        let kill_after = 2;
        let path = ckpt_path("contrastive_kill.ckpt");
        let policy = CheckpointPolicy::new(&path, 1);
        let mut part = fresh_model();
        ContrastiveTrainer::new(TrainConfig {
            epochs: kill_after,
            ..cfg.clone()
        })
        .train_resumable(&mut part, &data, &policy)
        .unwrap();
        let mut resumed = fresh_model();
        ContrastiveTrainer::new(cfg)
            .train_resumable(&mut resumed, &data, &policy)
            .unwrap();
        assert_params_bitwise(&straight, &resumed);
    }

    /// A resumable run with no pre-existing checkpoint matches plain train.
    #[test]
    fn resumable_fresh_run_matches_plain_train() {
        let data = toy_dataset(10);
        let cfg = TrainConfig {
            epochs: 3,
            lr: 5e-3,
            batch_size: 2,
            ..Default::default()
        };
        let fresh_model = || {
            GcnModel::new(
                6,
                ModelConfig {
                    hidden: 8,
                    embed: 8,
                    seed: 4,
                },
            )
        };
        let mut plain = fresh_model();
        ClassifierTrainer::new(cfg.clone()).train(&mut plain, &data);
        let path = ckpt_path("fresh_run.ckpt");
        let mut resumable = fresh_model();
        ClassifierTrainer::new(cfg)
            .train_resumable(&mut resumable, &data, &CheckpointPolicy::new(&path, 2))
            .unwrap();
        assert_params_bitwise(&plain, &resumable);
    }

    /// Resuming into a model with a different architecture is a typed
    /// error, not a silent partial restore.
    #[test]
    fn resume_into_wrong_architecture_is_rejected() {
        let data = toy_dataset(8);
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let path = ckpt_path("wrong_arch.ckpt");
        let policy = CheckpointPolicy::new(&path, 1);
        let mut model = GcnModel::new(
            6,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 1,
            },
        );
        ClassifierTrainer::new(cfg.clone())
            .train_resumable(&mut model, &data, &policy)
            .unwrap();
        let mut other = GcnModel::new(
            6,
            ModelConfig {
                hidden: 12, // different hidden width: shapes cannot match
                embed: 8,
                seed: 1,
            },
        );
        let err = ClassifierTrainer::new(cfg)
            .train_resumable(&mut other, &data, &policy)
            .unwrap_err();
        assert!(matches!(err, TrainError::Restore(_)), "got {err}");
    }

    #[test]
    fn empty_training_set_is_typed_error_in_resumable_path() {
        let path = ckpt_path("empty_set.ckpt");
        let mut model = GcnModel::new(
            6,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 1,
            },
        );
        let err = ClassifierTrainer::new(TrainConfig::default())
            .train_resumable(&mut model, &[], &CheckpointPolicy::new(&path, 1))
            .unwrap_err();
        assert!(matches!(err, TrainError::EmptyTrainingSet));
    }

    #[test]
    fn predict_proba_in_unit_interval() {
        let data = toy_dataset(8);
        let mut model = GcnModel::new(
            6,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 2,
            },
        );
        ClassifierTrainer::new(TrainConfig {
            epochs: 3,
            ..Default::default()
        })
        .train(&mut model, &data);
        for g in &data {
            let p = ClassifierTrainer::predict_proba(&model, g);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
