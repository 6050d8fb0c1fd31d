//! Worker pool with panic isolation.
//!
//! This is the serving layer's degradation boundary — the only file in
//! the crate allowed to `catch_unwind`. A panic anywhere inside a
//! handler (scoring, serialization, injected `panic` faults) is caught
//! here: the in-flight request gets a typed `500`, the poisoned worker
//! exits, and a replacement worker is spawned so pool capacity recovers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::handlers;
use crate::http;
use crate::server::Shared;

/// Spawn one worker thread. The live count is registered *before* the
/// thread starts so a shutdown racing the spawn still waits for it.
pub(crate) fn spawn_worker(shared: &Arc<Shared>) {
    shared.workers.register();
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared));
}

/// Pop admitted jobs until the queue is closed and drained. Each job is
/// handled under `catch_unwind`; a caught panic terminates this worker
/// (its loop state is suspect) after answering the victim request and
/// arranging a replacement.
#[expect(
    clippy::disallowed_methods,
    reason = "the serving layer's panic-isolation boundary: a handler panic \
              answers its request with a 500 and respawns the worker"
)]
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if glint_trace::enabled() {
            glint_trace::gauge("serve.queue.depth", shared.queue.backlog() as f64);
        }
        // A clone of the victim's stream, taken before the handler can
        // poison anything, so the typed 500 can still be delivered.
        let spare = job.stream.try_clone().ok();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handlers::handle_connection(shared, job)
        }));
        if outcome.is_err() {
            shared.metrics.respawns.fetch_add(1, Ordering::Relaxed);
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            if glint_trace::enabled() {
                glint_trace::counter("serve.worker.respawns", 1);
            }
            if let Some(mut stream) = spare {
                let _ = http::write_json(
                    &mut stream,
                    500,
                    &handlers::error_body(
                        "worker_panic",
                        "worker panicked while handling this request; a replacement worker \
                         was spawned",
                    ),
                );
            }
            if !shared.shutdown.load(Ordering::Relaxed) {
                spawn_worker(shared);
            }
            break;
        }
    }
    shared.workers.deregister();
}
