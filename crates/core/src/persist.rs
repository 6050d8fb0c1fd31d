//! Model persistence: save/load trained parameter sets (the cloud-provided
//! "public GNN model" of §3.1 needs to ship to home hubs somehow).
//!
//! Parameters travel as serde_json bytes inside the durable envelope
//! (checksummed, versioned, atomic temp-file + rename), so a crash mid-save
//! leaves the previous model readable, and a torn, bit-flipped or
//! envelope-less file is rejected with a typed error.
//! [`load_params`] is strict — every tensor must restore, or the whole load
//! fails with a matched-vs-expected report. [`load_params_partial`] keeps
//! the lenient by-name/shape matching that cross-platform transfer learning
//! (§3.3.4) relies on.

use crate::error::GlintError;
use glint_failpoint::durable;
use glint_gnn::models::GraphModel;
use glint_tensor::ParamSet;
use std::path::Path;

/// Envelope kind tag for persisted parameter sets.
pub const PARAMS_KIND: &str = "glint-params";
/// Current parameter-file format version.
pub const PARAMS_VERSION: u32 = 1;
/// Fail-point site hit by [`save_params`].
pub const SITE_PERSIST_SAVE: &str = "persist.save";

/// Save a model's parameters durably (atomic write, CRC-checked envelope).
pub fn save_params(model: &dyn GraphModel, path: impl AsRef<Path>) -> Result<(), GlintError> {
    let json = serde_json::to_vec(model.params())
        .map_err(|e| GlintError::Decode(format!("serialize: {e}")))?;
    durable::write_durable(SITE_PERSIST_SAVE, path, PARAMS_KIND, PARAMS_VERSION, &json)?;
    Ok(())
}

/// Read a parameter set off disk and verify its envelope.
fn read_param_set(path: impl AsRef<Path>) -> Result<ParamSet, GlintError> {
    let (_version, payload) = durable::read_durable(path, PARAMS_KIND, PARAMS_VERSION)?;
    serde_json::from_slice(&payload).map_err(|e| GlintError::Decode(format!("parse: {e}")))
}

/// Load parameters into a freshly-constructed model of the same
/// architecture. Strict: every tensor of the model must restore by name and
/// shape, with no extras in the file — any discrepancy fails the whole load
/// with a matched-vs-expected report ([`GlintError::Params`]). Silent
/// partial restores were a deployment hazard; for deliberate partial reuse
/// see [`load_params_partial`].
pub fn load_params(model: &mut dyn GraphModel, path: impl AsRef<Path>) -> Result<(), GlintError> {
    let loaded = read_param_set(path)?;
    model.params_mut().copy_exact_from(&loaded)?;
    Ok(())
}

/// Lenient load for transfer learning: restore whatever matches by name and
/// shape, skip the rest, and report how many tensors were restored out of
/// how many the model expects. Errors only when *nothing* matches (almost
/// certainly the wrong file).
pub fn load_params_partial(
    model: &mut dyn GraphModel,
    path: impl AsRef<Path>,
) -> Result<(usize, usize), GlintError> {
    let loaded = read_param_set(path)?;
    let expected = model.params().len();
    let matched = model.params_mut().copy_matching_from(&loaded);
    if matched == 0 {
        return Err(GlintError::Decode(
            "no parameters matched — wrong architecture?".into(),
        ));
    }
    Ok((matched, expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_failpoint::durable::DurableError;
    use glint_gnn::batch::PreparedGraph;
    use glint_gnn::models::{GcnModel, GinModel, ModelConfig};
    use glint_gnn::trainer::ClassifierTrainer;
    use glint_graph::graph::{EdgeKind, Node};
    use glint_graph::InteractionGraph;
    use glint_rules::{Platform, RuleId};

    fn graph() -> PreparedGraph {
        let nodes: Vec<Node> = (0..4)
            .map(|i| Node {
                rule_id: RuleId(i),
                platform: Platform::Ifttt,
                features: vec![0.3 * i as f32, 0.5, -0.2, 0.9],
            })
            .collect();
        let mut g = InteractionGraph::new(nodes);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        g.add_edge(1, 2, EdgeKind::ActionTrigger);
        g.add_edge(2, 3, EdgeKind::ActionTrigger);
        PreparedGraph::from_graph(&g)
    }

    fn gcn(seed: u64) -> GcnModel {
        GcnModel::new(
            4,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed,
            },
        )
    }

    #[test]
    fn save_load_round_trips_predictions() {
        let dir = std::env::temp_dir().join("glint_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");

        let model = gcn(42);
        let g = graph();
        let expected = ClassifierTrainer::predict_proba(&model, &g);
        save_params(&model, &path).unwrap();

        let mut restored = gcn(999);
        load_params(&mut restored, &path).unwrap();
        let actual = ClassifierTrainer::predict_proba(&restored, &g);
        assert!((expected - actual).abs() < 1e-6, "{expected} vs {actual}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strict_load_rejects_wrong_architecture() {
        let dir = std::env::temp_dir().join("glint_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let model = gcn(1);
        save_params(&model, &path).unwrap();
        // GCN → GCN restores cleanly
        let mut same = gcn(9);
        load_params(&mut same, &path).unwrap();
        // GIN's encoder params are named differently → strict load fails
        // with a matched-vs-expected report instead of restoring a fraction
        let mut other = GinModel::new(
            4,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 1,
            },
        );
        let err = load_params(&mut other, &path).unwrap_err();
        match err {
            GlintError::Params(m) => {
                assert!(m.matched < m.expected, "{m}");
                assert!(!m.mismatches.is_empty());
            }
            other => panic!("expected Params error, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_load_transfers_what_matches() {
        let dir = std::env::temp_dir().join("glint_persist_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let model = gcn(1);
        save_params(&model, &path).unwrap();
        let mut other = GinModel::new(
            4,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 1,
            },
        );
        // GIN shares the fuse/head tensor names with GCN; the encoder does
        // not — partial load reports the split instead of pretending success
        match load_params_partial(&mut other, &path) {
            Ok((matched, expected)) => assert!(matched < expected, "{matched}/{expected}"),
            Err(GlintError::Decode(_)) => {} // zero overlap is also acceptable
            Err(e) => panic!("unexpected error {e}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_and_truncated_params_are_typed_errors() {
        let dir = std::env::temp_dir().join("glint_persist_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let model = gcn(3);
        save_params(&model, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let torn = dir.join("torn.bin");
        std::fs::write(&torn, &good[..good.len() / 3]).unwrap();
        let mut m = gcn(5);
        assert!(matches!(
            load_params(&mut m, &torn),
            Err(GlintError::Envelope(DurableError::Truncated { .. }))
        ));

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let corrupt = dir.join("corrupt.bin");
        std::fs::write(&corrupt, &flipped).unwrap();
        assert!(matches!(
            load_params(&mut m, &corrupt),
            Err(GlintError::Envelope(DurableError::ChecksumMismatch))
        ));

        // bare JSON, without the envelope, is not a params file
        let bare = dir.join("bare.json");
        std::fs::write(&bare, serde_json::to_vec(model.params()).unwrap()).unwrap();
        assert!(matches!(
            load_params(&mut m, &bare),
            Err(GlintError::Envelope(DurableError::NotAnEnvelope(_)))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_save_failure_preserves_previous_model() {
        let dir = std::env::temp_dir().join("glint_persist_test5");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let model = gcn(7);
        save_params(&model, &path).unwrap();
        let g = graph();
        let expected = ClassifierTrainer::predict_proba(&model, &g);

        let _guard = glint_failpoint::ScopedFail::new(
            SITE_PERSIST_SAVE,
            glint_failpoint::Action::ShortWrite(20),
            1,
        );
        assert!(save_params(&gcn(8), &path).is_err());
        let mut restored = gcn(11);
        load_params(&mut restored, &path).unwrap();
        let actual = ClassifierTrainer::predict_proba(&restored, &g);
        assert!((expected - actual).abs() < 1e-6);
        std::fs::remove_file(&path).ok();
    }
}
