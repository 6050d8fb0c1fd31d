//! Server lifecycle: bind, admit, dispatch, drain.
//!
//! One acceptor thread owns the listener and the admission decision
//! (bounded queue or immediate `429`); a fixed pool of worker threads
//! owns parsing, scoring, and responding. Shutdown is idempotent: stop
//! admissions, wake the acceptor, drain the queue, join every worker.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use glint_core::feedback::FeedbackStore;
use glint_core::{DeadlinePressure, Detection, GlintDetector};
use glint_gnn::models::GraphModel;
use glint_graph::InteractionGraph;

use crate::clock;
use crate::handlers;
use crate::http;
use crate::queue::{Bounded, PushError};
use crate::worker;

/// Anything that can turn a graph plus a deadline-pressure rung into a
/// [`Detection`]. Implemented for every [`GlintDetector`] so the server
/// is generic over model types without infecting its own API.
pub trait Scorer: Send + Sync {
    fn score(&self, graph: InteractionGraph, pressure: DeadlinePressure) -> Detection;
}

impl<C, E> Scorer for GlintDetector<C, E>
where
    C: GraphModel + Send + Sync,
    E: GraphModel + Send + Sync,
{
    fn score(&self, graph: InteractionGraph, pressure: DeadlinePressure) -> Detection {
        self.assess_under_pressure(graph, pressure)
    }
}

/// Server tuning knobs. The defaults suit a local real-time monitor; the
/// overload tests shrink `workers`/`queue_capacity` to force shedding
/// deterministically.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see [`Server::addr`]).
    pub addr: String,
    /// Worker threads scoring requests.
    pub workers: usize,
    /// Bounded queue capacity — the only place requests ever wait.
    pub queue_capacity: usize,
    /// Server-side deadline budget in ms; client `deadline_ms` is capped
    /// here. 25 ms sits exactly on a glint-trace histogram bucket edge,
    /// so the latency histograms split at the deadline.
    pub deadline_ms: u64,
    /// Floor for the estimated full-verdict cost (ms). The live estimate
    /// is an EWMA of observed full verdicts; a non-zero floor makes the
    /// deadline→DriftOnly degradation deterministic in tests.
    pub full_cost_floor_ms: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout (slow-sender guard).
    pub read_timeout_ms: u64,
    /// `Retry-After` seconds advertised on `429` responses.
    pub retry_after_s: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            deadline_ms: 25,
            full_cost_floor_ms: 0,
            max_body_bytes: 4 << 20,
            read_timeout_ms: 2_000,
            retry_after_s: 1,
        }
    }
}

/// One admitted connection. The deadline clock starts at admission, so
/// time spent waiting in the queue burns the request's budget.
pub(crate) struct Job {
    pub stream: TcpStream,
    pub admitted_at: Instant,
}

/// Live-worker accounting so shutdown can wait for the pool to drain,
/// across respawns.
pub(crate) struct WorkerSet {
    alive: Mutex<usize>,
    changed: Condvar,
}

impl WorkerSet {
    fn new() -> Self {
        Self {
            alive: Mutex::new(0),
            changed: Condvar::new(),
        }
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, usize> {
        self.alive
            // glint-lint: allow(hot-lock) — touched once per worker
            // lifetime (spawn/exit), not per request; a poisoned count
            // recovers via into_inner since the counter is valid after any
            // interrupted increment
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub(crate) fn register(&self) {
        *self.guard() += 1;
    }

    pub(crate) fn deregister(&self) {
        {
            let mut alive = self.guard();
            *alive = alive.saturating_sub(1);
        }
        self.changed.notify_all();
    }

    fn wait_idle(&self) {
        let mut alive = self.guard();
        while *alive > 0 {
            alive = self
                .changed
                .wait(alive)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// State shared by the acceptor, the workers, and the handlers.
pub(crate) struct Shared {
    pub scorer: Arc<dyn Scorer>,
    pub cfg: ServeConfig,
    pub queue: Bounded<Job>,
    pub metrics: crate::metrics::Metrics,
    pub feedback: Mutex<FeedbackStore>,
    pub shutdown: AtomicBool,
    pub workers: WorkerSet,
    pub started: Instant,
    /// EWMA of observed full-verdict cost in µs (0 = no observation yet).
    full_cost_ewma_us: AtomicU64,
}

impl Shared {
    /// Current estimate of what a full GNN verdict costs, floored by the
    /// configured minimum. Requests whose remaining budget is below this
    /// degrade to drift-only instead of blowing the deadline.
    pub(crate) fn estimated_full_cost(&self) -> Duration {
        let ewma = self.full_cost_ewma_us.load(Ordering::Relaxed);
        Duration::from_micros(ewma.max(self.cfg.full_cost_floor_ms.saturating_mul(1_000)))
    }

    /// Fold one observed full-verdict duration into the EWMA (α = 1/8).
    /// Racy read-modify-write is fine: the estimate only steers the
    /// degradation decision, never the verdict content.
    pub(crate) fn observe_full_cost(&self, spent: Duration) {
        let us = spent.as_micros() as u64;
        let old = self.full_cost_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            us
        } else {
            (old.saturating_mul(7).saturating_add(us)) / 8
        };
        self.full_cost_ewma_us.store(new, Ordering::Relaxed);
    }
}

/// A running scoring service. Dropping the handle shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Bind, spawn the worker pool and the acceptor, and return once the
    /// server is reachable at [`Server::addr`].
    pub fn start(scorer: Arc<dyn Scorer>, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            scorer,
            queue: Bounded::new(cfg.queue_capacity.max(1)),
            metrics: crate::metrics::Metrics::new(),
            feedback: Mutex::new(FeedbackStore::new()),
            shutdown: AtomicBool::new(false),
            workers: WorkerSet::new(),
            started: clock::now(),
            full_cost_ewma_us: AtomicU64::new(0),
            cfg,
        });
        for _ in 0..shared.cfg.workers.max(1) {
            worker::spawn_worker(&shared);
        }
        let accept_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Server {
            shared,
            addr,
            acceptor: Mutex::new(Some(handle)),
        })
    }

    /// The bound address (resolves the `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.backlog()
    }

    /// Workers respawned after a contained panic.
    pub fn worker_respawns(&self) -> u64 {
        self.shared.metrics.respawns.load(Ordering::Relaxed)
    }

    /// Graceful, idempotent shutdown: stop admissions, drain every
    /// already-admitted request, join the acceptor and all workers.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // The acceptor is parked in accept(); a throwaway connection
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        let handle = {
            let mut acceptor = self
                .acceptor
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            acceptor.take()
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.shared.queue.close();
        self.shared.workers.wait_idle();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections and apply admission control. The only work done on
/// this thread per connection is the queue push (or the `429`/`503`
/// refusal), so admission keeps up even when every worker is busy.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let stream = match conn {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        if glint_failpoint::check(crate::SITE_ACCEPT).is_some() {
            // Injected accept fault: the connection is dropped before
            // admission. Contained — the client sees a closed socket and
            // the next connection is served normally.
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let mut stream = stream;
        if glint_failpoint::check(crate::SITE_ENQUEUE).is_some() {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            http::drain_request(&mut stream, shared.cfg.max_body_bytes);
            let _ = http::write_json(
                &mut stream,
                503,
                &handlers::error_body("enqueue", "injected fault while enqueueing the request"),
            );
            continue;
        }
        let job = Job {
            stream,
            admitted_at: clock::now(),
        };
        // Count the admission before a worker can see the job: a request
        // answered at once (`GET /metrics` on an idle worker) must find
        // itself in `accepted`. The queue lock orders this increment
        // before the worker's pop.
        shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        match shared.queue.try_push(job) {
            Ok(depth) => {
                if glint_trace::enabled() {
                    glint_trace::counter("serve.accepted", 1);
                    glint_trace::gauge("serve.queue.depth", depth as f64);
                }
            }
            Err(PushError::Full(job)) => {
                // Admission control: never queue unboundedly. Shed with
                // 429 + Retry-After, synchronously, from this thread.
                shared.metrics.accepted.fetch_sub(1, Ordering::Relaxed);
                shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                if glint_trace::enabled() {
                    glint_trace::counter("serve.shed", 1);
                }
                let retry = shared.cfg.retry_after_s.to_string();
                let body = serde_json::to_string(&handlers::error_body(
                    "overload",
                    "request queue is full; retry after the advertised delay",
                ))
                .unwrap_or_else(|_| "{}".to_string());
                let mut stream = job.stream;
                // Lingering close: drain the refused request (bounded by a
                // short timeout so a slow sender cannot pin the acceptor)
                // before answering, else the close RSTs away the 429.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                http::drain_request(&mut stream, shared.cfg.max_body_bytes);
                let _ = http::write_response(&mut stream, 429, &body, &[("Retry-After", &retry)]);
            }
            Err(PushError::Closed(_)) => {
                shared.metrics.accepted.fetch_sub(1, Ordering::Relaxed);
                break;
            }
        }
    }
    shared.queue.close();
}
