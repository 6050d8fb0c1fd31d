//! Durable training checkpoints: parameters + optimizer moments + RNG/epoch
//! cursor, written atomically through the [`glint_failpoint::durable`]
//! envelope (versioned, CRC-checked, temp-file + rename).
//!
//! A checkpoint captures everything a trainer needs to continue a run so
//! that a process killed at an epoch boundary and resumed produces bitwise
//! the same parameters as an uninterrupted run: the [`ParamSet`], the
//! [`AdamState`] (step count + first/second moments), the raw xoshiro256++
//! RNG state, the number of completed epochs, and the per-epoch loss trace.

use crate::optim::{AdamState, ParamSet};
use glint_failpoint::durable::{self, DurableError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Envelope kind tag for training checkpoints.
pub const CHECKPOINT_KIND: &str = "glint-checkpoint";
/// Current checkpoint format version. Readers reject anything newer.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Fail-point site hit by [`save_checkpoint`].
pub const SITE_CHECKPOINT_SAVE: &str = "checkpoint.save";

/// Complete resumable training state at an epoch boundary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Model parameters after `epochs_done` epochs.
    pub params: ParamSet,
    /// Adam step count and moment estimates.
    pub opt: AdamState,
    /// Raw xoshiro256++ state of the training RNG (shuffle/pair-sampling
    /// cursor), so the resumed run consumes the identical value stream.
    pub rng_state: [u64; 4],
    /// Epochs fully completed before this snapshot.
    pub epochs_done: usize,
    /// Mean loss of each completed epoch (the eventual `TrainReport`).
    pub epoch_losses: Vec<f32>,
}

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Envelope-level failure: IO, truncation, checksum, version, kind.
    Envelope(DurableError),
    /// The payload verified but is not a decodable checkpoint.
    Decode(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Envelope(e) => write!(f, "checkpoint envelope error: {e}"),
            CheckpointError::Decode(why) => write!(f, "checkpoint decode error: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DurableError> for CheckpointError {
    fn from(e: DurableError) -> Self {
        CheckpointError::Envelope(e)
    }
}

/// Serialize `ckpt` and write it durably at `path` (atomic temp + rename;
/// a crash mid-save leaves the previous checkpoint intact). Hits the
/// [`SITE_CHECKPOINT_SAVE`] fail point.
pub fn save_checkpoint(
    path: impl AsRef<Path>,
    ckpt: &TrainCheckpoint,
) -> Result<(), CheckpointError> {
    let json =
        serde_json::to_vec(ckpt).map_err(|e| CheckpointError::Decode(format!("serialize: {e}")))?;
    durable::write_durable(
        SITE_CHECKPOINT_SAVE,
        path,
        CHECKPOINT_KIND,
        CHECKPOINT_VERSION,
        &json,
    )?;
    Ok(())
}

/// Read and verify a checkpoint. Corrupt, truncated, wrong-kind, or
/// future-version files surface as typed errors — never a panic.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<TrainCheckpoint, CheckpointError> {
    let (_version, payload) = durable::read_durable(path, CHECKPOINT_KIND, CHECKPOINT_VERSION)?;
    serde_json::from_slice(&payload).map_err(|e| CheckpointError::Decode(format!("parse: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use glint_failpoint::durable::write_durable;

    fn sample() -> TrainCheckpoint {
        let mut params = ParamSet::new();
        params.add(
            "layer.w",
            Matrix::from_rows(&[vec![1.0, -2.5], vec![0.125, 3.0]]),
        );
        params.add("layer.b", Matrix::full(1, 2, 0.5));
        TrainCheckpoint {
            params,
            opt: AdamState {
                t: 17,
                m: vec![Some(Matrix::full(2, 2, 0.01)), None],
                v: vec![Some(Matrix::full(2, 2, 0.002)), None],
            },
            rng_state: [1, u64::MAX, 42, 0],
            epochs_done: 3,
            epoch_losses: vec![0.9, 0.5, 0.25],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("glint_checkpoint_tests");
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir.join(name)
    }

    #[test]
    fn round_trip_is_bitwise() {
        let path = tmp("round_trip.ckpt");
        let ckpt = sample();
        save_checkpoint(&path, &ckpt).unwrap();
        let back = load_checkpoint(&path).unwrap();
        assert_eq!(back.epochs_done, 3);
        assert_eq!(back.rng_state, ckpt.rng_state);
        assert_eq!(back.opt.t, 17);
        for ((_, a), (_, b)) in ckpt.params.iter().zip(back.params.iter()) {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "param restore must be bitwise");
            }
        }
        let m0 = back.opt.m[0].as_ref().unwrap();
        assert_eq!(m0.get(1, 1).to_bits(), 0.01f32.to_bits());
        assert!(back.opt.m[1].is_none());
    }

    #[test]
    fn truncated_and_corrupt_files_are_typed_errors() {
        let path = tmp("mangle.ckpt");
        save_checkpoint(&path, &sample()).unwrap();
        let good = std::fs::read(&path).unwrap();

        let short_path = tmp("mangle_short.ckpt");
        std::fs::write(&short_path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            load_checkpoint(&short_path),
            Err(CheckpointError::Envelope(DurableError::Truncated { .. }))
        ));

        let mut flipped = good.clone();
        let mid = flipped.len() - 8;
        flipped[mid] ^= 0xff;
        let flip_path = tmp("mangle_flip.ckpt");
        std::fs::write(&flip_path, &flipped).unwrap();
        assert!(matches!(
            load_checkpoint(&flip_path),
            Err(CheckpointError::Envelope(DurableError::ChecksumMismatch))
        ));

        let garbage_path = tmp("mangle_garbage.ckpt");
        std::fs::write(&garbage_path, b"not a checkpoint at all").unwrap();
        assert!(matches!(
            load_checkpoint(&garbage_path),
            Err(CheckpointError::Envelope(DurableError::NotAnEnvelope(_)))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let path = tmp("future.ckpt");
        write_durable(
            "tests.none",
            &path,
            CHECKPOINT_KIND,
            CHECKPOINT_VERSION + 1,
            b"{}",
        )
        .unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Envelope(
                DurableError::UnsupportedVersion { .. }
            ))
        ));
    }

    #[test]
    fn valid_but_wrong_payload_is_decode_error() {
        let path = tmp("wrong_payload.ckpt");
        write_durable(
            "tests.none",
            &path,
            CHECKPOINT_KIND,
            CHECKPOINT_VERSION,
            b"[1, 2, 3]",
        )
        .unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Decode(_))
        ));
    }
}
