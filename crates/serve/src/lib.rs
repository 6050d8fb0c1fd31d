//! # glint-serve
//!
//! Deadline-bounded real-time scoring service over [`glint_core`]'s
//! detector: a dependency-free HTTP/1.1 server (hand-rolled parser over
//! `std::net`, matching the workspace's shim-only policy) built around
//! robustness under load rather than raw feature count.
//!
//! ## Endpoints
//!
//! * `POST /score` — score one interaction graph (`{"graph": …,
//!   "deadline_ms": …}`), answering on the detector's degradation ladder.
//! * `POST /score_batch` — score `{"graphs": […]}` under one shared
//!   deadline; later graphs in the batch feel more deadline pressure.
//! * `POST /feedback` — record a user verdict (`{"graph": …, "verdict":
//!   "Normal"|"Threat", "note": …}`) in the special-case store.
//! * `GET /metrics` — queue depth, shed/degraded counts, latency
//!   percentiles, qps.
//!
//! ## Robustness contract
//!
//! * **Bounded admission** — requests enter a fixed-capacity MPMC queue;
//!   when it is full the acceptor answers `429` with `Retry-After`
//!   immediately instead of queueing unboundedly.
//! * **Per-request deadlines** — the client's `deadline_ms` (capped by
//!   the server budget) burns from the moment the connection is admitted.
//!   A request that cannot afford the full GNN verdict gets a
//!   [`DriftOnly`](glint_core::Degradation::DriftOnly) answer; one past
//!   its deadline gets an explicit quarantined timeout verdict — never
//!   silence.
//! * **Worker panic isolation** — a panic inside a handler is contained
//!   by the worker loop: the in-flight request receives a typed `500`,
//!   the poisoned worker exits, and a replacement is spawned.
//! * **Graceful shutdown** — [`Server::shutdown`] is idempotent, stops
//!   admission, drains the queue, and joins every worker.
//! * **Fail-point sites** — [`SITE_ACCEPT`], [`SITE_PARSE`],
//!   [`SITE_ENQUEUE`], [`SITE_RESPOND`] let the fault matrix force a
//!   failure at every network-layer stage and prove it stays typed and
//!   contained.

mod handlers;
mod http;
mod metrics;
mod queue;
mod server;
mod worker;

pub mod client;

pub use server::{Scorer, ServeConfig, Server};

/// Fail-point site hit on every accepted connection, before admission.
/// A fired fault drops the connection (the client sees a closed socket).
pub const SITE_ACCEPT: &str = "serve.accept";
/// Fail-point site hit at the top of request parsing. A fired fault
/// surfaces as a typed `400` response.
pub const SITE_PARSE: &str = "serve.parse";
/// Fail-point site hit before the request enters the bounded queue. A
/// fired fault surfaces as a typed `503` response.
pub const SITE_ENQUEUE: &str = "serve.enqueue";
/// Fail-point site hit before the response is written. `err` downgrades
/// the response to a typed `500`; `panic` simulates a worker crash
/// mid-response (contained by the worker loop, which respawns).
pub const SITE_RESPOND: &str = "serve.respond";

/// The serving layer's single wall-clock read site. Deadlines and latency
/// metrics need a monotonic clock; verdict *content* never depends on it —
/// the detector only ever sees the discrete
/// [`DeadlinePressure`](glint_core::DeadlinePressure) rung.
pub(crate) mod clock {
    use std::time::Instant;

    #[expect(
        clippy::disallowed_methods,
        reason = "deadline enforcement and latency metrics need a monotonic \
                  clock; verdicts depend only on the discrete pressure rung \
                  derived from it, never on the raw time"
    )]
    pub(crate) fn now() -> Instant {
        Instant::now()
    }
}
