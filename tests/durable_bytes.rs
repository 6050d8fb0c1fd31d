//! Byte pins for the four durable stores: the exact files
//! `persist::save_params`, `save_checkpoint`, `store::save` and
//! `ShardedStore::save_shard` (shard and manifest) write for fixed seeded
//! inputs, as FNV-1a digests. The envelope header, the JSON writer and
//! every payload's field order feed the bytes, so a change to any of them
//! moves a digest. A failure prints the fresh value.

use std::path::PathBuf;

use glint_suite::core::persist;
use glint_suite::gnn::models::{GcnModel, ModelConfig};
use glint_suite::graph::shard::{ShardedStore, MANIFEST_FILE};
use glint_suite::graph::store;
use glint_suite::graph::{EdgeKind, GraphDataset, GraphLabel, InteractionGraph, Node};
use glint_suite::rules::{Platform, RuleId};
use glint_suite::tensor::checkpoint::{save_checkpoint, TrainCheckpoint};
use glint_suite::tensor::optim::{AdamState, ParamSet};
use glint_suite::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("glint-durable-bytes").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_digest(path: &std::path::Path, expected: u64) {
    let bytes = std::fs::read(path).unwrap();
    let fresh = fnv(&bytes);
    assert_eq!(
        fresh,
        expected,
        "{} ({} bytes): fresh digest {fresh:#018x}",
        path.display(),
        bytes.len()
    );
}

/// Seeded floats with the values a writer can get wrong: signed zero,
/// subnormals, integral values and the f32 extremes.
fn seeded_values(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 7 {
            0 => -0.0,
            1 => f32::from_bits(1 + (rng.gen::<u32>() & 0x7f)),
            2 => rng.gen_range(-4i32..5) as f32,
            3 => f32::MAX,
            _ => rng.gen_range(-3.0f32..3.0),
        })
        .collect()
}

fn seeded_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = seeded_values(rng, rows * cols);
    Matrix::from_vec(rows, cols, data)
}

fn seeded_dataset(seed: u64) -> GraphDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let platforms = Platform::all();
    let mut ds = GraphDataset::new();
    for g in 0..3u32 {
        let n = 2 + g as usize;
        let nodes = (0..n)
            .map(|i| Node {
                rule_id: RuleId(10 * g + i as u32),
                platform: platforms[(g as usize + i) % platforms.len()],
                features: seeded_values(&mut rng, 3 + i),
            })
            .collect();
        let mut graph = InteractionGraph::new(nodes);
        for i in 1..n {
            let kind = [
                EdgeKind::ActionTrigger,
                EdgeKind::ActionCondition,
                EdgeKind::SharedDevice,
            ][i % 3];
            graph.add_edge(i - 1, i, kind);
        }
        let label = if g == 1 {
            GraphLabel::Threat
        } else {
            GraphLabel::Normal
        };
        ds.push(graph.with_label(label));
    }
    ds
}

#[test]
fn saved_params_bytes_are_pinned() {
    let model = GcnModel::new(
        5,
        ModelConfig {
            hidden: 6,
            embed: 4,
            seed: 3,
        },
    );
    let path = scratch("params").join("model.glint");
    persist::save_params(&model, &path).unwrap();
    assert_digest(&path, 0x8158_a215_3871_ee32);
}

#[test]
fn saved_checkpoint_bytes_are_pinned() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut params = ParamSet::new();
    params.add("enc.w", seeded_matrix(&mut rng, 3, 4));
    params.add("enc.b", seeded_matrix(&mut rng, 1, 4));
    params.add("head.w\"quoted\"", seeded_matrix(&mut rng, 4, 2));
    let ckpt = TrainCheckpoint {
        params,
        opt: AdamState {
            t: 9,
            m: vec![Some(seeded_matrix(&mut rng, 3, 4)), None, None],
            v: vec![Some(seeded_matrix(&mut rng, 3, 4)), None, None],
        },
        rng_state: [rng.gen(), u64::MAX, 0, 42],
        epochs_done: 2,
        epoch_losses: seeded_values(&mut rng, 5),
    };
    let path = scratch("checkpoint").join("train.ckpt");
    save_checkpoint(&path, &ckpt).unwrap();
    assert_digest(&path, 0x30d5_a35b_f382_91a1);
}

#[test]
fn saved_dataset_bytes_are_pinned() {
    let path = scratch("dataset").join("ds.glint");
    store::save(&seeded_dataset(5), &path).unwrap();
    assert_digest(&path, 0x85f9_307d_8a61_2512);
}

#[test]
fn saved_shard_and_manifest_bytes_are_pinned() {
    let dir = scratch("shards");
    let mut sharded = ShardedStore::create(&dir).unwrap();
    sharded.save_shard(4, &seeded_dataset(8)).unwrap();
    sharded.save_shard(2, &seeded_dataset(9)).unwrap();
    assert_digest(&dir.join("shard-4.glint"), 0x661a_2b46_d54b_137c);
    assert_digest(&dir.join("shard-2.glint"), 0xc9fb_aecb_ab75_fa53);
    assert_digest(&dir.join(MANIFEST_FILE), 0xfd10_74be_5f7e_b240);
}
