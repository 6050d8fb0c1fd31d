//! MICRO-PAR — serial-vs-parallel speedup of the `glint_tensor::par` layer.
//!
//! Two workloads, each at 1/2/4/8 threads (forced via `par::with_threads`,
//! so one run covers every configuration regardless of `GLINT_THREADS`):
//! - a 512×512 dense matmul, the kernel-level headline number;
//! - batched ITGNN inference over a pile of interaction graphs, the
//!   pipeline-level number (per-graph matrices are tiny, so the win comes
//!   from `par::ordered_map` fanning whole graphs out to workers).
//!
//! The acceptance bar from the parallel-layer work: ≥2× at 4+ threads for
//! both. A summary line per workload prints the measured speedups.

use criterion::{criterion_group, BenchmarkId, Criterion};
use glint_core::construction::node_features;
use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::{Itgnn, ItgnnConfig};
use glint_gnn::trainer::ClassifierTrainer;
use glint_graph::builder::GraphBuilder;
use glint_tensor::{par, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

fn bench_matmul(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("hardware threads available: {cores} (speedups above that count are core-bound)");
    let mut rng = StdRng::seed_from_u64(0xbe9c);
    let a = random_matrix(&mut rng, 512, 512);
    let b = random_matrix(&mut rng, 512, 512);
    // correctness sanity before timing anything
    let reference = a.matmul(&b);
    assert_eq!(par::with_threads(4, || par::matmul(&a, &b)), reference);

    let mut group = c.benchmark_group("matmul_512");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bench, &t| {
                bench.iter(|| par::with_threads(t, || std::hint::black_box(par::matmul(&a, &b))));
            },
        );
    }
    group.finish();

    // readable speedup summary (criterion output reports absolute times)
    for &threads in &[2usize, 4, 8] {
        let serial = time_it(|| {
            par::with_threads(1, || std::hint::black_box(par::matmul(&a, &b)));
        });
        let parallel = time_it(|| {
            par::with_threads(threads, || std::hint::black_box(par::matmul(&a, &b)));
        });
        println!(
            "matmul 512x512: {threads} threads speedup {:.2}x",
            serial / parallel
        );
    }
}

fn bench_batched_inference(c: &mut Criterion) {
    let cfg = glint_rules::CorpusConfig {
        scale: 0.001,
        per_platform_cap: 400,
        seed: 0xe46,
    };
    let rules = glint_rules::CorpusGenerator::generate_corpus(&cfg);
    let mut builder = GraphBuilder::new(&rules, 11);
    let graphs: Vec<PreparedGraph> = (0..96)
        .map(|_| PreparedGraph::from_graph(&builder.sample_graph(20, 20, &node_features)))
        .collect();
    let types = {
        let mut t: Vec<(glint_rules::Platform, usize)> = Vec::new();
        for g in &graphs {
            for b in &g.by_type {
                if !t.iter().any(|(p, _)| *p == b.platform) {
                    t.push((b.platform, b.feats.cols()));
                }
            }
        }
        t.sort_by_key(|(p, _)| p.type_index());
        t
    };
    let model = Itgnn::new(&types, ItgnnConfig::default());

    let predict_all = || {
        par::ordered_map(graphs.len(), |i| {
            ClassifierTrainer::predict(&model, &graphs[i])
        })
    };
    let mut group = c.benchmark_group("itgnn_batch_inference_96");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bench, &t| {
                bench.iter(|| par::with_threads(t, || std::hint::black_box(predict_all())));
            },
        );
    }
    group.finish();

    for &threads in &[2usize, 4, 8] {
        let serial = time_it(|| {
            par::with_threads(1, || std::hint::black_box(predict_all()));
        });
        let parallel = time_it(|| {
            par::with_threads(threads, || std::hint::black_box(predict_all()));
        });
        println!(
            "batched ITGNN inference (96 graphs): {threads} threads speedup {:.2}x",
            serial / parallel
        );
    }
}

/// Median-of-5 wall-clock seconds for one call.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness measures wall-clock speedups by design"
)]
fn time_it(f: impl Fn()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

criterion_group!(benches, bench_matmul, bench_batched_inference);

fn main() {
    benches();
    // with GLINT_TRACE=1 this snapshots kernel flop/call counters to the
    // repo-root BENCH_trace.json (no-op otherwise)
    if let Some(path) = glint_bench::export_trace("micro_parallel") {
        println!("trace exported to {}", path.display());
    }
}
