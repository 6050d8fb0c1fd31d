//! Property-based equivalence suite for the parallel execution layer.
//!
//! Two families of properties:
//! - **algebraic**: sparse products agree with their densified dense-matmul
//!   counterparts (to numeric tolerance — different accumulation orders);
//! - **exactness**: every parallel kernel returns *bitwise identical*
//!   results to its serial twin at 1, 2, and 8 threads, including for
//!   inputs salted with zeros, NaN, and ±∞. Bit-level comparison, not
//!   `==`, because `NaN != NaN` would vacuously pass NaN outputs.
//!
//! Matrices are generated from a proptest-driven seed through the workspace
//! RNG: shapes are fixed large enough to clear `par::MIN_PAR_WORK` so the
//! fan-out actually executes (a threshold fallback to serial would make the
//! equality trivially true).

use glint_tensor::{par, Csr, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, salted: bool) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if salted {
                match rng.gen_range(0..10usize) {
                    0 => 0.0,
                    1 => f32::NAN,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    _ => rng.gen_range(-2.0f32..2.0),
                }
            } else if rng.gen_bool(0.2) {
                0.0 // zero coefficients: their ±0 products must leave sums unchanged
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn random_csr(rng: &mut StdRng, rows: usize, cols: usize, nnz: usize) -> Csr {
    let triplets: Vec<(usize, usize, f32)> = (0..nnz)
        .map(|_| {
            (
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                rng.gen_range(-2.0f32..2.0),
            )
        })
        .collect();
    Csr::from_triplets(rows, cols, &triplets)
}

/// Bitwise equality, NaN-safe (same shape, same bit pattern per element).
fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dense kernels: parallel == serial, bit for bit, at several thread
    /// counts. 64×32 × 32×32 = 65 536 MACs = exactly `MIN_PAR_WORK`.
    #[test]
    fn parallel_dense_kernels_bitwise_equal_serial(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, 64, 32, false);
        let b = random_matrix(&mut rng, 32, 32, false);
        let g = random_matrix(&mut rng, 64, 32, false);
        let serial_mm = a.matmul(&b);
        let serial_tm = a.t_matmul(&g);
        let serial_mt = a.matmul_t(&g);
        for threads in [1usize, 2, 8] {
            par::with_threads(threads, || {
                prop_assert!(bits_eq(&par::matmul(&a, &b), &serial_mm), "matmul @ {threads}");
                prop_assert!(bits_eq(&par::t_matmul(&a, &g), &serial_tm), "t_matmul @ {threads}");
                prop_assert!(bits_eq(&par::matmul_t(&a, &g), &serial_mt), "matmul_t @ {threads}");
                Ok(())
            })?;
        }
    }

    /// Same exactness with NaN/∞/zero-salted inputs: the tiled accumulation
    /// and the row partitioning must both preserve IEEE semantics.
    #[test]
    fn parallel_dense_kernels_bitwise_equal_serial_with_nans(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, 64, 32, true);
        let b = random_matrix(&mut rng, 32, 32, true);
        let serial = a.matmul(&b);
        for threads in [2usize, 8] {
            par::with_threads(threads, || {
                prop_assert!(bits_eq(&par::matmul(&a, &b), &serial), "salted matmul @ {threads}");
                Ok(())
            })?;
        }
    }

    /// Sparse kernels: parallel == serial bitwise; serial == densified dense
    /// matmul to tolerance (the accumulation orders differ).
    #[test]
    fn parallel_sparse_kernels_equal_serial_and_dense(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        // nnz chosen so nnz × h.cols clears MIN_PAR_WORK even after
        // duplicate triplets merge (~3400 distinct × 24 ≈ 82k MACs)
        let s = random_csr(&mut rng, 120, 100, 4000);
        let h = random_matrix(&mut rng, 100, 24, false);
        let ht = random_matrix(&mut rng, 120, 24, false);
        let serial_spmm = s.spmm(&h);
        let serial_t = s.t_spmm(&ht);
        // algebraic reference: densify and use the dense kernels
        let dense = s.to_dense();
        prop_assert!(serial_spmm.sq_dist(&dense.matmul(&h)) < 1e-6);
        prop_assert!(serial_t.sq_dist(&dense.t_matmul(&ht)) < 1e-6);
        for threads in [1usize, 2, 8] {
            par::with_threads(threads, || {
                prop_assert!(bits_eq(&par::spmm(&s, &h), &serial_spmm), "spmm @ {threads}");
                prop_assert!(bits_eq(&par::t_spmm(&s, &ht), &serial_t), "t_spmm @ {threads}");
                Ok(())
            })?;
        }
    }

    /// Sub-threshold shapes take the serial fallback and must (trivially but
    /// importantly) agree too — the dispatch itself must not change results.
    #[test]
    fn small_shapes_fall_back_identically(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, 5, 4, false);
        let b = random_matrix(&mut rng, 4, 3, false);
        par::with_threads(8, || {
            prop_assert!(bits_eq(&par::matmul(&a, &b), &a.matmul(&b)));
            Ok(())
        })?;
    }
}
