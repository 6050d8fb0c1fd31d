//! Allocation-counter regression tests for the serving/optimizer fast
//! paths. `BENCH_trace.json` measured ~29.8k matrix allocations per
//! 105-step run before the tape-free refactor; these tests pin the two
//! properties that recover that budget:
//!
//! 1. optimizer steps are allocation-free once their state buffers exist
//!    (the old `Adam::step` cloned every gradient and moment matrix on
//!    every step);
//! 2. the pooled inference kernels stop allocating after warm-up, and a
//!    fixed training loop stays under a pinned allocation ceiling.
//!
//! The trace registry is process-global, so every test holds one lock for
//! its whole body — an unmetered warm-up must not allocate while another
//! test is counting — and leaves tracing disabled on exit.

use glint_tensor::{Adam, Exec, InferCtx, InferExec, Matrix, ParamSet, Tape};
use std::sync::{Mutex, MutexGuard};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Run the calling test alone among this binary's tests.
fn serial() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` with tracing enabled and a clean registry; returns `f`'s value
/// (typically counter readings taken inside). Restores the disabled state.
/// The caller holds [`serial`].
fn with_trace<R>(f: impl FnOnce() -> R) -> R {
    glint_trace::set_enabled(true);
    glint_trace::reset();
    let out = f();
    glint_trace::reset();
    glint_trace::set_enabled(false);
    out
}

/// One quadratic training step: forward + backward on a fresh tape, then
/// `opt.step`. Returns the grads-producing closure's artifacts so callers
/// can meter the step in isolation.
fn quadratic_step(opt: &mut Adam, params: &mut ParamSet, metered: bool) -> u64 {
    let mut tape = Tape::new();
    let vars = params.bind(&mut tape);
    let loss = quadratic_loss(&mut tape, &vars);
    let grads = tape.backward(loss);
    if metered {
        with_trace(|| {
            opt.step(params, &vars, &grads);
            glint_trace::counter_value("tensor.alloc.matrices")
        })
    } else {
        opt.step(params, &vars, &grads);
        0
    }
}

/// `sum(w^2) + sum(b^2)` over the two bound parameters.
fn quadratic_loss(tape: &mut Tape, vars: &[glint_tensor::Var]) -> glint_tensor::Var {
    let sq0 = tape.mul(vars[0], vars[0]);
    let l0 = tape.sum_all(sq0);
    let sq1 = tape.mul(vars[1], vars[1]);
    let l1 = tape.sum_all(sq1);
    tape.add(l0, l1)
}

fn two_params() -> ParamSet {
    let mut params = ParamSet::new();
    params.add("w", Matrix::full(4, 6, 0.5));
    params.add("b", Matrix::full(1, 6, 0.1));
    params
}

#[test]
fn adam_steps_allocate_nothing_after_warmup() {
    let _serial = serial();
    let mut params = two_params();
    let mut opt = Adam::new(0.01);
    // Warm-up: the first step lazily allocates the m/v moment buffers.
    quadratic_step(&mut opt, &mut params, false);
    for _ in 0..5 {
        let allocs = quadratic_step(&mut opt, &mut params, true);
        assert_eq!(
            allocs, 0,
            "Adam::step must update parameters and moments in place"
        );
    }
}

#[test]
fn adam_warmup_allocates_exactly_the_moment_buffers() {
    let _serial = serial();
    let mut params = two_params();
    let mut opt = Adam::new(0.01);
    // First step: m + v per parameter, nothing else.
    let allocs = quadratic_step(&mut opt, &mut params, true);
    assert_eq!(allocs, 4, "2 params x (m, v) state buffers");
}

#[test]
fn pooled_inference_kernels_stop_allocating_once_warm() {
    let _serial = serial();
    let a = Matrix::full(8, 12, 0.3);
    let mut params = ParamSet::new();
    let b = params.add("w", Matrix::full(12, 8, 0.2));
    let bias = params.add("b", Matrix::full(1, 8, 0.05));
    let mut ctx = InferCtx::new();
    let mut x = InferExec::new(&mut ctx, &params);
    // Warm-up pass populates the pool with the working set.
    let c = x.linear_relu(&a, b, bias);
    x.release(c);
    let (allocs, hits, misses) = with_trace(|| {
        for _ in 0..10 {
            let c = x.linear_relu(&a, b, bias);
            x.release(c);
        }
        (
            glint_trace::counter_value("tensor.alloc.matrices"),
            glint_trace::counter_value("infer.pool.hits"),
            glint_trace::counter_value("infer.pool.misses"),
        )
    });
    assert_eq!(allocs, 0, "warm pool must serve every activation");
    assert_eq!(misses, 0);
    assert_eq!(hits, 10, "every acquire is a pool hit after warm-up");
}

/// Pinned `tensor.alloc.matrices` count for a fixed 105-step training
/// workload (the same step count `BENCH_trace.json` measures). The backward
/// pass and the optimizer no longer clone per step: this pin is the ratchet
/// that keeps those allocations from creeping back.
#[test]
fn fixed_105_step_workload_stays_under_allocation_ceiling() {
    let _serial = serial();
    let mut params = two_params();
    let mut opt = Adam::new(0.01);
    let allocs = with_trace(|| {
        for _ in 0..105 {
            let mut tape = Tape::new();
            let vars = params.bind(&mut tape);
            let loss = quadratic_loss(&mut tape, &vars);
            let grads = tape.backward(loss);
            opt.step(&mut params, &vars, &grads);
        }
        glint_trace::counter_value("tensor.alloc.matrices")
    });
    // The whole run costs exactly the one-off Adam moment buffers (2 params
    // x m/v): backward's pass-through gradients and the in-place optimizer
    // allocate nothing per step. The pre-refactor tape/optimizer (grad
    // clones in backward, clone-per-step optimizers) sat far above this.
    assert_eq!(
        allocs, 4,
        "105-step workload must only allocate the optimizer state buffers"
    );
}
