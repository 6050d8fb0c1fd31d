//! Parallel execution layer for the dense and sparse kernels.
//!
//! Every product here is a drop-in for its serial twin on [`Matrix`]/[`Csr`]
//! and produces **bitwise-identical** results at any thread count: work is
//! partitioned by *output row*, each output element is accumulated by
//! exactly one worker, and each worker runs exactly the serial per-element
//! loop (the `*_block` kernels shared with the serial entry points). There
//! is no atomics-based reduction and no operation reordering — parallel ==
//! serial is an equality, not a tolerance.
//!
//! The five products (`matmul`, `t_matmul`, `matmul_t`, `spmm`, `t_spmm`)
//! share one private dispatch: it ticks the trace counters, looks up the
//! thread count, decides between the serial and the fanned-out path, and
//! partitions the output rows. `matmul_into` and `spmm_into` write into a
//! caller's buffer; `matmul` and `spmm` only allocate and call them, as
//! does the pooled inference path (`InferCtx::{matmul, spmm}`).
//!
//! The dense-output kernels share one register-tiled accumulation loop
//! (`matrix::accumulate_row`): each output row is built in fixed-width
//! column tiles whose accumulators stay in registers for the whole pass
//! over the inner dimension, in ascending order, and are stored once. There
//! is no zero-skip and no per-call scan of the operands, so a 1–8-row
//! product on a tiny interaction graph costs its multiply-adds and nothing
//! else.
//!
//! Thread-count resolution, in priority order:
//! 1. a [`with_threads`] override on the current thread (used by tests and
//!    by nested parallel sections to force serial execution in workers);
//! 2. the `GLINT_THREADS` environment variable, read once lazily
//!    (`GLINT_THREADS=1` forces serial everywhere);
//! 3. [`std::thread::available_parallelism`].
//!
//! Small problems skip the fan-out entirely: below [`MIN_PAR_WORK`]
//! flop-equivalents the scoped-thread setup costs more than it saves, so the
//! kernels fall through to the serial path. The interaction graphs in this
//! workspace are tiny (2–50 nodes) — for them the win comes from batching
//! *across* graphs (see `glint-gnn`'s trainer and `glint-core`'s batch
//! scoring), not from splitting one small matmul.

use crate::matrix::{matmul_block, matmul_t_block, t_matmul_block};
use crate::{Csr, Matrix};
use std::cell::Cell;
use std::sync::OnceLock;

/// Minimum number of multiply-accumulates before a kernel fans out.
/// Below this, thread spawn/join overhead (~10µs) dwarfs the arithmetic.
pub const MIN_PAR_WORK: usize = 1 << 16;

fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("GLINT_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread count the next parallel kernel on this thread will use.
pub fn current_threads() -> usize {
    OVERRIDE.with(Cell::get).unwrap_or_else(configured_threads)
}

/// Run `f` with the parallel kernels forced to `n` threads on this thread
/// (1 = serial). Restores the previous setting on exit, including on panic —
/// the equivalence tests rely on this to compare thread counts in-process.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

/// Split `n` rows into `parts` contiguous near-equal ranges.
fn partition(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let rem = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0;
    for p in 0..parts {
        let hi = lo + base + usize::from(p < rem);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// The `(calls, flops)` trace counters of a product family.
type Counters = (&'static str, &'static str);
const MATMUL: Counters = ("tensor.matmul.calls", "tensor.matmul.flops");
const SPMM: Counters = ("tensor.spmm.calls", "tensor.spmm.flops");

/// The one dispatch behind every product: count the call and its `2 ×
/// work` flops, then have `block(lo, hi, slice)` overwrite output rows
/// `[lo, hi)`, `slice` being exactly those rows of `out`'s buffer. Below
/// two output rows, one thread or [`MIN_PAR_WORK`] multiply-adds, one call
/// covers every row. Otherwise the buffer is split into disjoint row
/// blocks via `split_at_mut`, one per scoped worker, so workers never
/// share a cache line's ownership. Workers run with a serial override in
/// place: a kernel that itself calls a parallel kernel (e.g. through
/// batched scoring) must not fan out again.
fn dispatch<F>(out: &mut Matrix, (calls, flops): Counters, work: usize, block: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    if glint_trace::enabled() {
        glint_trace::counter(calls, 1);
        glint_trace::counter(flops, 2 * work as u64);
    }
    let threads = current_threads();
    let (rows, w) = out.shape();
    if threads <= 1 || rows < 2 || work < MIN_PAR_WORK {
        return block(0, rows, out.data_mut());
    }
    let ranges = partition(rows, threads);
    crossbeam::thread::scope(|s| {
        let mut rest = out.data_mut();
        let mut handles = Vec::with_capacity(ranges.len());
        for &(lo, hi) in &ranges {
            let (part, tail) = rest.split_at_mut((hi - lo) * w);
            rest = tail;
            let block = &block;
            handles.push(s.spawn(move || with_threads(1, || block(lo, hi, part))));
        }
        for h in handles {
            // glint-lint: allow(hot-unwrap) — a worker panic must propagate
            // to the caller; there is no partial result to salvage
            h.join().expect("parallel kernel worker panicked");
        }
    })
    // glint-lint: allow(hot-unwrap) — scope teardown only errs if a worker
    // panicked, which must propagate
    .expect("scoped thread pool failed");
}

/// Panic unless the operand shapes `a` and `b` fit product `op`.
fn check_dims(op: &str, fit: bool, a: (usize, usize), b: (usize, usize)) {
    assert!(fit, "{op} {}x{} × {}x{}", a.0, a.1, b.0, b.1);
}

/// Parallel `a × b`; exact same result as [`Matrix::matmul`].
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out);
    out
}

/// [`matmul`] into a caller-provided output buffer of shape
/// `a.rows × b.cols`, every element of which is overwritten. The tape-free
/// inference path feeds pooled buffers through here.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    check_dims("matmul", a.cols() == b.rows(), a.shape(), b.shape());
    assert_eq!(
        out.shape(),
        (a.rows(), b.cols()),
        "matmul_into output shape mismatch"
    );
    let work = a.rows() * a.cols() * b.cols();
    dispatch(out, MATMUL, work, |lo, hi, block| {
        matmul_block(a, b, lo, hi, block)
    });
}

/// Parallel `aᵀ × b`; exact same result as [`Matrix::t_matmul`].
pub fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    check_dims("t_matmul", a.rows() == b.rows(), a.shape(), b.shape());
    let mut out = Matrix::zeros(a.cols(), b.cols());
    let work = a.rows() * a.cols() * b.cols();
    dispatch(&mut out, MATMUL, work, |lo, hi, block| {
        t_matmul_block(a, b, lo, hi, block)
    });
    out
}

/// Parallel `a × bᵀ`; exact same result as [`Matrix::matmul_t`].
pub fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    check_dims("matmul_t", a.cols() == b.cols(), a.shape(), b.shape());
    let mut out = Matrix::zeros(a.rows(), b.rows());
    let work = a.rows() * a.cols() * b.rows();
    dispatch(&mut out, MATMUL, work, |lo, hi, block| {
        matmul_t_block(a, b, lo, hi, block)
    });
    out
}

/// Parallel sparse × dense `a × h`; exact same result as [`Csr::spmm`].
pub fn spmm(a: &Csr, h: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), h.cols());
    spmm_into(a, h, &mut out);
    out
}

/// [`spmm`] into a caller-provided output buffer of shape
/// `a.rows × h.cols`, every element of which is overwritten.
pub fn spmm_into(a: &Csr, h: &Matrix, out: &mut Matrix) {
    check_dims("spmm", a.cols() == h.rows(), a.shape(), h.shape());
    assert_eq!(
        out.shape(),
        (a.rows(), h.cols()),
        "spmm_into output shape mismatch"
    );
    let work = a.nnz() * h.cols();
    dispatch(out, SPMM, work, |lo, hi, block| {
        a.spmm_block(h, lo, hi, block)
    });
}

/// Parallel transposed sparse × dense `aᵀ × h`; exact same result as
/// [`Csr::t_spmm`]. Both regroup the stored entries by column (ascending
/// source row) and run the same block kernel over that view.
pub fn t_spmm(a: &Csr, h: &Matrix) -> Matrix {
    check_dims("t_spmm", a.rows() == h.rows(), a.shape(), h.shape());
    let (col_ptr, entries) = a.csc_groups();
    let mut out = Matrix::zeros(a.cols(), h.cols());
    let work = a.nnz() * h.cols();
    dispatch(&mut out, SPMM, work, |lo, hi, block| {
        a.t_spmm_block(h, &col_ptr, &entries, lo, hi, block)
    });
    out
}

/// Map `f` over `0..n` on the configured number of threads, preserving input
/// order in the output. Each worker takes one contiguous range of items
/// from `partition` and runs it serially (nested kernels see a
/// `with_threads(1)` override), writing each result into its own slot, so
/// the output is identical to `(0..n).map(f).collect()` regardless of
/// thread count. This is the batching primitive behind `glint-gnn`'s
/// mini-batch gradient accumulation and `glint-core`'s batch scoring.
pub fn ordered_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = current_threads().min(n.max(1));
    if threads <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    crossbeam::thread::scope(|s| {
        let mut rest = slots.as_mut_slice();
        let mut handles = Vec::with_capacity(threads);
        // contiguous partition: worker w owns items [lo, hi)
        for (lo, hi) in partition(n, threads) {
            let (block, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let f = &f;
            handles.push(s.spawn(move || {
                with_threads(1, || {
                    for (off, slot) in block.iter_mut().enumerate() {
                        *slot = Some(f(lo + off));
                    }
                })
            }));
        }
        for h in handles {
            // glint-lint: allow(hot-unwrap) — a worker panic must propagate
            // to the caller; there is no partial result to salvage
            h.join().expect("ordered_map worker panicked");
        }
    })
    // glint-lint: allow(hot-unwrap) — scope teardown only errs if a worker
    // panicked, which must propagate
    .expect("scoped thread pool failed");
    slots
        .into_iter()
        // glint-lint: allow(hot-unwrap) — the contiguous partition covers
        // every index exactly once, so each slot was written before join
        .map(|s| s.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn random_csr(rng: &mut StdRng, rows: usize, cols: usize, nnz: usize) -> Csr {
        let triplets: Vec<(usize, usize, f32)> = (0..nnz)
            .map(|_| {
                (
                    rng.gen_range(0..rows),
                    rng.gen_range(0..cols),
                    rng.gen_range(-1.0f32..1.0),
                )
            })
            .collect();
        Csr::from_triplets(rows, cols, &triplets)
    }

    /// Shapes big enough to clear MIN_PAR_WORK so the fan-out actually runs.
    #[test]
    fn parallel_kernels_match_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = random_matrix(&mut rng, 130, 70);
        let b = random_matrix(&mut rng, 70, 90);
        let c = random_matrix(&mut rng, 130, 90);
        let d = random_matrix(&mut rng, 95, 70);
        let s = random_csr(&mut rng, 300, 260, 9000);
        let h = random_matrix(&mut rng, 260, 40);
        let ht = random_matrix(&mut rng, 300, 40);
        for threads in [2, 3, 8] {
            with_threads(threads, || {
                assert_eq!(matmul(&a, &b), a.matmul(&b));
                assert_eq!(t_matmul(&a, &c), a.t_matmul(&c));
                assert_eq!(matmul_t(&a, &d), a.matmul_t(&d));
                assert_eq!(spmm(&s, &h), s.spmm(&h));
                assert_eq!(t_spmm(&s, &ht), s.t_spmm(&ht));
            });
        }
    }

    #[test]
    fn with_threads_nests_and_restores() {
        let outer = current_threads();
        with_threads(4, || {
            assert_eq!(current_threads(), 4);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 4);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn partition_covers_exactly() {
        for (n, parts) in [(10, 3), (3, 10), (0, 4), (16, 4), (7, 1)] {
            let ranges = partition(n, parts);
            let mut next = 0;
            for (lo, hi) in ranges {
                assert_eq!(lo, next);
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn ordered_map_preserves_order() {
        for threads in [1, 2, 5] {
            let out = with_threads(threads, || ordered_map(23, |i| i * i));
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert_eq!(ordered_map(0, |i| i), Vec::<usize>::new());
    }
}
