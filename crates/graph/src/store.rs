//! Durable persistence for graph datasets (DGL's stored-dataset stand-in).
//!
//! A dataset is written as serde_json bytes inside the
//! [`glint_failpoint::durable`] envelope: checksummed, versioned, and
//! renamed into place atomically so a crash mid-save leaves the previous
//! generation intact instead of a torn file. Loading a truncated, corrupt,
//! envelope-less or future-version file is a typed [`StoreError`] — never a
//! panic.

use crate::dataset::GraphDataset;
use glint_failpoint::durable::{self, DurableError};
use std::fmt;
use std::path::Path;

/// Envelope kind tag for stored datasets.
pub const DATASET_KIND: &str = "glint-dataset";
/// Current dataset format version.
pub const DATASET_VERSION: u32 = 1;
/// Fail-point site hit by [`save`].
pub const SITE_STORE_SAVE: &str = "graph.store.save";

/// Why a dataset could not be saved or loaded.
#[derive(Debug)]
pub enum StoreError {
    /// Envelope-level failure: IO, truncation, checksum, version, kind, or
    /// no envelope at all.
    Envelope(DurableError),
    /// The envelope verified but its payload doesn't decode to a dataset.
    Decode(String),
    /// The dataset decoded but contains a structurally invalid graph.
    InvalidGraph { index: usize, reason: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Envelope(e) => write!(f, "dataset envelope error: {e}"),
            StoreError::Decode(why) => write!(f, "dataset decode error: {why}"),
            StoreError::InvalidGraph { index, reason } => {
                write!(f, "dataset graph {index} is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<DurableError> for StoreError {
    fn from(e: DurableError) -> Self {
        StoreError::Envelope(e)
    }
}

/// Save a dataset durably: JSON payload inside a checksummed envelope,
/// written to a temp file and renamed into place. Hits [`SITE_STORE_SAVE`].
pub fn save(dataset: &GraphDataset, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let json =
        serde_json::to_vec(dataset).map_err(|e| StoreError::Decode(format!("serialize: {e}")))?;
    durable::write_durable(SITE_STORE_SAVE, path, DATASET_KIND, DATASET_VERSION, &json)?;
    Ok(())
}

/// Load a dataset, verifying checksum and structure. Every malformed input
/// — torn write, flipped bits, missing envelope (a shard manifest, say),
/// wrong kind, future version, out-of-range edges — surfaces as a typed
/// [`StoreError`].
pub fn load(path: impl AsRef<Path>) -> Result<GraphDataset, StoreError> {
    let (_version, payload) = durable::read_durable(path, DATASET_KIND, DATASET_VERSION)?;
    let dataset: GraphDataset =
        serde_json::from_slice(&payload).map_err(|e| StoreError::Decode(format!("parse: {e}")))?;
    for (index, graph) in dataset.graphs().iter().enumerate() {
        graph
            .validate()
            .map_err(|reason| StoreError::InvalidGraph { index, reason })?;
    }
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, GraphLabel, InteractionGraph, Node};
    use glint_rules::{Platform, RuleId};

    fn sample_dataset() -> GraphDataset {
        let mut g = InteractionGraph::new(vec![
            Node {
                rule_id: RuleId(1),
                platform: Platform::Ifttt,
                features: vec![1.0, 2.0],
            },
            Node {
                rule_id: RuleId(2),
                platform: Platform::Alexa,
                features: vec![3.0],
            },
        ]);
        g.add_edge(0, 1, EdgeKind::ActionTrigger);
        let mut ds = GraphDataset::new();
        ds.push(g.with_label(GraphLabel::Threat));
        ds
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("glint_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip() {
        let ds = sample_dataset();
        let path = tmp("ds.bin");
        save(&ds, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.graphs()[0], ds.graphs()[0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load("/nonexistent/glint/ds.json").is_err());
    }

    #[test]
    fn truncated_and_garbage_files_are_typed_errors() {
        let ds = sample_dataset();
        let path = tmp("mangle.bin");
        save(&ds, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let torn = tmp("mangle_torn.bin");
        std::fs::write(&torn, &good[..good.len() - 10]).unwrap();
        assert!(matches!(
            load(&torn),
            Err(StoreError::Envelope(DurableError::Truncated { .. }))
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x20;
        let corrupt = tmp("mangle_corrupt.bin");
        std::fs::write(&corrupt, &flipped).unwrap();
        assert!(matches!(
            load(&corrupt),
            Err(StoreError::Envelope(DurableError::ChecksumMismatch))
        ));

        let garbage = tmp("mangle_garbage.bin");
        std::fs::write(&garbage, b"]]] not json, not envelope").unwrap();
        assert!(matches!(
            load(&garbage),
            Err(StoreError::Envelope(DurableError::NotAnEnvelope(_)))
        ));
    }

    #[test]
    fn shard_manifest_is_rejected_with_a_typed_error() {
        // a real manifest, produced by the sharded store itself
        let dir = std::env::temp_dir().join("glint_store_test_manifest");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = crate::shard::ShardedStore::create(&dir).unwrap();
        store.save_shard(7, &sample_dataset()).unwrap();
        assert!(matches!(
            load(dir.join(crate::shard::MANIFEST_FILE)),
            Err(StoreError::Envelope(DurableError::NotAnEnvelope(_)))
        ));
    }

    #[test]
    fn out_of_range_edges_from_disk_are_rejected() {
        // a verified envelope whose dataset has an edge to a missing node
        // (serde bypasses add_edge's assertion)
        let ds = sample_dataset();
        let json = serde_json::to_string(&ds)
            .unwrap()
            .replace("[0,1,", "[0,9,");
        let path = tmp("bad_edge.bin");
        durable::write_durable(
            "tests.none",
            &path,
            DATASET_KIND,
            DATASET_VERSION,
            json.as_bytes(),
        )
        .unwrap();
        assert!(matches!(
            load(&path),
            Err(StoreError::InvalidGraph { index: 0, .. })
        ));
    }

    #[test]
    fn failed_save_leaves_previous_generation_readable() {
        let ds = sample_dataset();
        let path = tmp("atomic.bin");
        save(&ds, &path).unwrap();
        let _guard = glint_failpoint::ScopedFail::new(
            SITE_STORE_SAVE,
            glint_failpoint::Action::ShortWrite(12),
            1,
        );
        assert!(save(&ds, &path).is_err());
        assert_eq!(load(&path).unwrap().graphs()[0], ds.graphs()[0]);
        std::fs::remove_file(&path).ok();
    }
}
