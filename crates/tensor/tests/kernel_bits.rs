//! Bit oracle for the register-tiled dense-output kernels.
//!
//! `matmul`, `t_matmul`, `spmm` and `t_spmm` accumulate each output row in
//! fixed-width column tiles held in registers. They replaced loops that
//! accumulated straight into the output buffer, skipped a `0 × row` product
//! whenever a per-call scan (`finite_rows`) had found the row finite, and
//! scattered `t_spmm` row-major. The test-local copies of those loops below
//! are the oracle: every entry point — the serial `Matrix`/`Csr` methods,
//! the `par` kernels and their `_into` twins at 1 and 4 threads, and
//! `InferCtx::{matmul, spmm}` — must match it bit for bit, NaN payloads
//! aside (see below).
//!
//! Inputs are salted with +0.0, −0.0, ±NaN, ±∞ and values whose products
//! underflow to ±0, so the oracle's skip fires and `0 × NaN`/`0 × ∞` occur.
//! Output widths straddle the tile width (1, 2, 31–33, 63–65, 130), the
//! inner dimension runs from 0 to 520, and 0-row operands are included.
//!
//! Every non-NaN output is compared with `f32::to_bits`, so the sign of a
//! zero or an infinity counts. A NaN output must be NaN in both, at the
//! same position, but its sign and payload are not compared: when two NaNs
//! meet in one add, Rust leaves open which one the result carries, and the
//! x86 `addps` keeps its first operand's — whichever the register allocator
//! put there. The zero-skip kernel's own NaN signs already moved with the
//! optimization level: on x86-64, a 64×520 · 520×130 product with 1% of
//! elements ±NaN/±∞ had 5,813 negative NaNs among its 8,320 NaN outputs at
//! opt-level 0, 5,812 at opt-level 1 and 5,971 at opt-level 3, on
//! identical inputs.

use glint_tensor::infer::InferCtx;
use glint_tensor::{par, Csr, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTHS: [usize; 9] = [1, 2, 31, 32, 33, 63, 64, 65, 130];
const ROWS: [usize; 6] = [0, 1, 2, 3, 8, 17];
/// Per-mille odds that an element is ±NaN or ±∞.
const NON_FINITE: [u32; 4] = [0, 1, 10, 50];

// ---------------------------------------------------------------------------
// The oracle: the kernels as they were before the register tiling.
// ---------------------------------------------------------------------------

/// Per-row flags: is every element of the row finite?
fn finite_rows(m: &Matrix) -> Vec<bool> {
    (0..m.rows())
        .map(|r| m.row(r).iter().all(|v| v.is_finite()))
        .collect()
}

fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let b_finite = finite_rows(b);
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (k, &av) in a.row(i).iter().enumerate() {
            if av == 0.0 && b_finite[k] {
                continue;
            }
            for (o, &x) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                *o += av * x;
            }
        }
    }
    out
}

fn oracle_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let b_finite = finite_rows(b);
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for (k, &k_finite) in b_finite.iter().enumerate() {
        for (i, &av) in a.row(k).iter().enumerate() {
            if av == 0.0 && k_finite {
                continue;
            }
            for (o, &x) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                *o += av * x;
            }
        }
    }
    out
}

fn oracle_spmm(a: &Csr, h: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), h.cols());
    for r in 0..a.rows() {
        for (c, v) in a.row_iter(r) {
            for (o, &x) in out.row_mut(r).iter_mut().zip(h.row(c)) {
                *o += v * x;
            }
        }
    }
    out
}

/// The row-major scatter: output row `c` receives its terms in ascending
/// source row order.
fn oracle_t_spmm(a: &Csr, h: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), h.cols());
    for r in 0..a.rows() {
        for (c, v) in a.row_iter(r) {
            for (o, &x) in out.row_mut(c).iter_mut().zip(h.row(r)) {
                *o += v * x;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

fn salted(rng: &mut StdRng, non_finite_per_mille: u32) -> f32 {
    if rng.gen_range(0..1000u32) < non_finite_per_mille {
        return match rng.gen_range(0..4u32) {
            0 => f32::NAN,
            1 => -f32::NAN,
            2 => f32::INFINITY,
            _ => f32::NEG_INFINITY,
        };
    }
    match rng.gen_range(0..10u32) {
        0 | 1 => 0.0,
        2 | 3 => -0.0,
        // |product| < f32::MIN_POSITIVE / 2: rounds to ±0
        4 => {
            if rng.gen_bool(0.5) {
                1e-30
            } else {
                -1e-30
            }
        }
        _ => rng.gen_range(-2.0f32..2.0),
    }
}

fn matrix(rng: &mut StdRng, rows: usize, cols: usize, non_finite: u32) -> Matrix {
    let data = (0..rows * cols).map(|_| salted(rng, non_finite)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Random CSR with duplicate coordinates (summed by `from_triplets`) and
/// salted values, so stored entries include ±0, NaN and ±∞.
fn csr(rng: &mut StdRng, rows: usize, cols: usize, non_finite: u32) -> Csr {
    let cells = rows * cols;
    let nnz = if cells == 0 {
        0
    } else {
        rng.gen_range(0..=cells.min(3000))
    };
    let triplets: Vec<(usize, usize, f32)> = (0..nnz)
        .map(|_| {
            (
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                salted(rng, non_finite),
            )
        })
        .collect();
    Csr::from_triplets(rows, cols, &triplets)
}

/// Same shape and, element by element, the same bits — or NaN in both.
fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// A buffer of the given shape full of NaN: an `_into` kernel must
/// overwrite every element.
fn garbage(rows: usize, cols: usize) -> Matrix {
    Matrix::full(rows, cols, f32::NAN)
}

/// Run every dense-output entry point on one set of operands and compare
/// each with the oracle. `a`/`b` feed `matmul`, `at`/`g` feed `t_matmul`,
/// `s`/`h` feed `spmm`, and `st`/`g` feed `t_spmm`.
fn check_all(
    a: &Matrix,
    b: &Matrix,
    at: &Matrix,
    g: &Matrix,
    s: &Csr,
    h: &Matrix,
    st: &Csr,
) -> Result<(), String> {
    let want_mm = oracle_matmul(a, b);
    let want_tm = oracle_t_matmul(at, g);
    let want_sp = oracle_spmm(s, h);
    let want_ts = oracle_t_spmm(st, g);
    let serial = [
        ("Matrix::matmul", a.matmul(b), &want_mm),
        ("Matrix::t_matmul", at.t_matmul(g), &want_tm),
        ("Csr::spmm", s.spmm(h), &want_sp),
        ("Csr::t_spmm", st.t_spmm(g), &want_ts),
    ];
    let mut runs: Vec<(String, Matrix, &Matrix)> = serial
        .into_iter()
        .map(|(name, got, want)| (name.to_string(), got, want))
        .collect();
    for threads in [1usize, 4] {
        par::with_threads(threads, || {
            let mut mm_into = garbage(a.rows(), b.cols());
            par::matmul_into(a, b, &mut mm_into);
            let mut sp_into = garbage(s.rows(), h.cols());
            par::spmm_into(s, h, &mut sp_into);
            // a pooled context whose free list holds a dirty buffer
            let mut ctx = InferCtx::new();
            ctx.release(garbage(a.rows().max(s.rows()) + 1, 131));
            let ctx_mm = ctx.matmul(a, b);
            let ctx_sp = ctx.spmm(s, h);
            let parallel = [
                ("par::matmul", par::matmul(a, b), &want_mm),
                ("par::t_matmul", par::t_matmul(at, g), &want_tm),
                ("par::spmm", par::spmm(s, h), &want_sp),
                ("par::t_spmm", par::t_spmm(st, g), &want_ts),
                ("par::matmul_into", mm_into, &want_mm),
                ("par::spmm_into", sp_into, &want_sp),
                ("InferCtx::matmul", ctx_mm, &want_mm),
                ("InferCtx::spmm", ctx_sp, &want_sp),
            ];
            for (name, got, want) in parallel {
                runs.push((format!("{name} @ {threads} threads"), got, want));
            }
        });
    }
    match runs.iter().find(|(_, got, want)| !bits_eq(got, want)) {
        None => Ok(()),
        Some((name, _, _)) => Err(format!(
            "{name} differs from the oracle (a {:?} b {:?} at {:?} g {:?} s {}x{} st {}x{})",
            a.shape(),
            b.shape(),
            at.shape(),
            g.shape(),
            s.rows(),
            s.cols(),
            st.rows(),
            st.cols()
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every kernel at every tile-straddling width, inner dimension 0–520,
    /// 0–17 output rows and four non-finite densities.
    #[test]
    fn tiled_kernels_match_the_zero_skip_oracle(
        seed in 0u64..1 << 48,
        wi in 0usize..WIDTHS.len(),
        k in 0usize..=520,
        ri in 0usize..ROWS.len(),
        di in 0usize..NON_FINITE.len(),
    ) {
        let (w, rows, nf) = (WIDTHS[wi], ROWS[ri], NON_FINITE[di]);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = matrix(&mut rng, rows, k, nf);
        let b = matrix(&mut rng, k, w, nf);
        let at = matrix(&mut rng, k, rows, nf);
        let g = matrix(&mut rng, k, w, nf);
        let s = csr(&mut rng, rows, k, nf);
        let h = matrix(&mut rng, k, w, nf);
        let st = csr(&mut rng, k, rows, nf);
        let outcome = check_all(&a, &b, &at, &g, &s, &h, &st);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Shapes well past `par::MIN_PAR_WORK`, so the 4-thread runs fan out over
/// uneven row blocks, and zero-row/zero-inner-dimension operands.
#[test]
fn tiled_kernels_match_the_oracle_when_fanned_out_and_when_empty() {
    let mut rng = StdRng::seed_from_u64(14);
    for (rows, k, w) in [(64, 520, 130), (37, 301, 65), (5, 0, 33), (0, 7, 64)] {
        for nf in [0, 10] {
            let a = matrix(&mut rng, rows, k, nf);
            let b = matrix(&mut rng, k, w, nf);
            let at = matrix(&mut rng, k, rows, nf);
            let g = matrix(&mut rng, k, w, nf);
            let s = csr(&mut rng, rows, k, nf);
            let h = matrix(&mut rng, k, w, nf);
            let st = csr(&mut rng, k, rows, nf);
            if let Err(e) = check_all(&a, &b, &at, &g, &s, &h, &st) {
                panic!("{rows}x{k}x{w}, non-finite {nf}‰: {e}");
            }
        }
    }
}
