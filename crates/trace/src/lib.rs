//! # glint-trace
//!
//! Dependency-free structured observability for the Glint workspace:
//! hierarchical spans with monotonic timing, named counters, gauges, and
//! fixed-bucket histograms behind one process-global registry.
//!
//! ## Cost model
//!
//! The same discipline as `glint-failpoint`: when tracing is disabled (the
//! default) every instrumentation site is a single relaxed atomic load and
//! an early return — no lock, no allocation, no clock read. Tracing is
//! enabled by `GLINT_TRACE=1` in the environment (read once, on the first
//! hit of any site) or programmatically via [`set_enabled`].
//!
//! ## Determinism contract
//!
//! Span *structure* and all recorded *counts* are deterministic by
//! construction: which spans open, how often a counter is bumped, and which
//! histogram bucket a sample lands in never depend on thread interleaving —
//! only measured durations (and float `sum` accumulation order) do. The
//! test suite therefore asserts on exported counter and bucket values as an
//! oracle for pipeline behaviour, while treating `*_ns` fields as opaque.
//!
//! ## Naming scheme
//!
//! * Spans nest per thread: a span opened while another is live on the same
//!   thread is recorded under the joined path `outer/inner`. Top-level span
//!   names are `snake_case` site names (`classifier_train`, `assess`).
//! * Counters, gauges, and histograms use dot-separated `subsystem.metric`
//!   names (`tensor.matmul.flops`, `detector.verdict.full`).
//!
//! See DESIGN.md "Observability" for the full name registry and the
//! overhead budget.

pub mod export;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

/// Gate states. Starts [`UNINIT`] so the very first hit of any site pays one
/// environment read; after that a hit costs one relaxed atomic load.
const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

fn init_from_env() -> bool {
    let on = std::env::var("GLINT_TRACE")
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
        })
        .unwrap_or(false);
    // `set_enabled` may have raced us; keep whatever is there on conflict.
    let _ = STATE.compare_exchange(
        UNINIT,
        if on { ON } else { OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == ON
}

/// Is tracing currently collecting? The disabled path of every
/// instrumentation site reduces to this one relaxed load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Programmatically enable or disable collection, overriding `GLINT_TRACE`.
/// Already-collected data is kept; use [`reset`] to drop it.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Aggregated timing of one span path.
#[derive(Clone, Debug)]
pub struct SpanStat {
    /// Times this path was entered (deterministic).
    pub count: u64,
    /// Total / min / max wall time in nanoseconds (not deterministic).
    pub total_ns: u128,
    pub min_ns: u128,
    pub max_ns: u128,
}

impl Default for SpanStat {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u128::MAX,
            max_ns: 0,
        }
    }
}

/// Last-value gauge with an update count.
#[derive(Clone, Debug, Default)]
pub struct GaugeStat {
    pub last: f64,
    pub updates: u64,
}

/// Upper bucket edges shared by every histogram: a sample `v` lands in the
/// first bucket with `v <= edge`, or in the overflow bucket past the last
/// edge. Fixed edges keep bucket counts deterministic and comparable across
/// runs; the range is tuned for drift degrees and probabilities (the MAD
/// threshold 3.0 is itself an edge).
pub const HISTOGRAM_EDGES: [f64; 10] = [0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0];

/// Fixed-bucket histogram. `count`/`nonfinite`/`buckets` are deterministic;
/// `sum` is accumulated in arrival order and is not.
#[derive(Clone, Debug)]
pub struct HistogramStat {
    /// Finite samples recorded.
    pub count: u64,
    /// NaN / infinite samples (counted, never bucketed).
    pub nonfinite: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// One count per [`HISTOGRAM_EDGES`] entry plus a final overflow bucket.
    pub buckets: [u64; HISTOGRAM_EDGES.len() + 1],
}

impl Default for HistogramStat {
    fn default() -> Self {
        Self {
            count: 0,
            nonfinite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_EDGES.len() + 1],
        }
    }
}

/// A point-in-time copy of everything collected so far.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeStat>,
    pub histograms: BTreeMap<String, HistogramStat>,
    pub spans: BTreeMap<String, SpanStat>,
}

fn registry() -> &'static Mutex<Snapshot> {
    static REGISTRY: OnceLock<Mutex<Snapshot>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Snapshot::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Snapshot> {
    // A panic while holding this lock can only come from OOM; propagating
    // the poison as a fresh panic in an observability layer would turn a
    // survived fault into a crash, so take the data as-is.
    // glint-lint: allow(hot-lock) — reached only when tracing is armed; the
    // steady-state gate in `enabled()` is one relaxed atomic load, and
    // tracing explicitly trades latency for observability when switched on
    match registry().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread stack of open span names; the joined stack is the path a
    /// closing span records under. Worker threads start their own roots.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII span: records on drop. Constructed disabled, it is inert.
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Open a hierarchical span. When tracing is disabled this is one relaxed
/// atomic load and the guard is a no-op. Durations come from the monotonic
/// clock ([`Instant`]), so they never go backwards under wall-clock steps.
#[expect(
    clippy::disallowed_methods,
    reason = "span durations are observability output only; recorded counts \
              and structure never depend on them"
)]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    // glint-lint: allow(taint-flow) — span durations are observability
    // output only; recorded counts and structure never depend on them
    let start = Instant::now();
    SpanGuard { start: Some(start) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos();
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut reg = lock();
        let stat = reg.spans.entry(path).or_default();
        stat.count += 1;
        stat.total_ns += elapsed;
        stat.min_ns = stat.min_ns.min(elapsed);
        stat.max_ns = stat.max_ns.max(elapsed);
    }
}

// ---------------------------------------------------------------------------
// Counters / gauges / histograms
// ---------------------------------------------------------------------------

/// Add `delta` to the named counter (creating it at zero first).
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = lock();
    match reg.counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            reg.counters.insert(name.to_string(), delta);
        }
    }
}

/// Set the named gauge to `value` (last-value-wins, update count kept).
pub fn gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = lock();
    let g = reg.gauges.entry(name.to_string()).or_default();
    g.last = value;
    g.updates += 1;
}

/// Record `value` into the named histogram. Non-finite samples are counted
/// separately and never bucketed.
pub fn histogram(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = lock();
    let h = reg.histograms.entry(name.to_string()).or_default();
    if !value.is_finite() {
        h.nonfinite += 1;
        return;
    }
    h.count += 1;
    h.sum += value;
    h.min = h.min.min(value);
    h.max = h.max.max(value);
    let idx = HISTOGRAM_EDGES
        .iter()
        .position(|&edge| value <= edge)
        .unwrap_or(HISTOGRAM_EDGES.len());
    h.buckets[idx] += 1;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

/// Current value of a counter (0 when never bumped). Reads work whether or
/// not collection is currently enabled.
pub fn counter_value(name: &str) -> u64 {
    lock().counters.get(name).copied().unwrap_or(0)
}

/// Last value of a gauge, if it was ever set.
pub fn gauge_value(name: &str) -> Option<f64> {
    lock().gauges.get(name).map(|g| g.last)
}

/// How many times a span path was entered.
pub fn span_count(path: &str) -> u64 {
    lock().spans.get(path).map_or(0, |s| s.count)
}

/// Total samples (finite + non-finite) recorded into a histogram.
pub fn histogram_total(name: &str) -> u64 {
    lock()
        .histograms
        .get(name)
        .map_or(0, |h| h.count + h.nonfinite)
}

/// Copy out everything collected so far.
pub fn snapshot() -> Snapshot {
    lock().clone()
}

/// Drop all collected data (test isolation between scenarios). Does not
/// change the enabled state.
pub fn reset() {
    let mut reg = lock();
    *reg = Snapshot::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry and the enable gate are process-global; tests that
    /// toggle them must not interleave.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let was = enabled();
        set_enabled(true);
        reset();
        let out = f();
        reset();
        set_enabled(was);
        out
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let was = enabled();
        set_enabled(false);
        reset();
        counter("tests.off", 3);
        gauge("tests.off_gauge", 1.0);
        histogram("tests.off_hist", 2.0);
        {
            let _s = span("tests_off_span");
        }
        assert_eq!(counter_value("tests.off"), 0);
        assert_eq!(gauge_value("tests.off_gauge"), None);
        assert_eq!(histogram_total("tests.off_hist"), 0);
        assert_eq!(span_count("tests_off_span"), 0);
        set_enabled(was);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        with_tracing(|| {
            counter("tests.hits", 2);
            counter("tests.hits", 3);
            assert_eq!(counter_value("tests.hits"), 5);
            let snap = snapshot();
            assert_eq!(snap.counters.get("tests.hits"), Some(&5));
        });
    }

    #[test]
    fn gauge_is_last_value_wins() {
        with_tracing(|| {
            gauge("tests.loss", 0.9);
            gauge("tests.loss", 0.4);
            assert_eq!(gauge_value("tests.loss"), Some(0.4));
            assert_eq!(snapshot().gauges["tests.loss"].updates, 2);
        });
    }

    #[test]
    fn histogram_buckets_are_deterministic() {
        with_tracing(|| {
            // edges: ..., 2.0, 3.0, 5.0, ... — 3.0 lands in the `<= 3.0`
            // bucket, 3.5 in `<= 5.0`, 1e9 in overflow, NaN separately
            for v in [3.0, 3.5, 1e9, f64::NAN, f64::INFINITY] {
                histogram("tests.drift", v);
            }
            let snap = snapshot();
            let h = &snap.histograms["tests.drift"];
            assert_eq!(h.count, 3);
            assert_eq!(h.nonfinite, 2);
            let le3 = HISTOGRAM_EDGES.iter().position(|&e| e == 3.0).unwrap();
            assert_eq!(h.buckets[le3], 1);
            assert_eq!(h.buckets[le3 + 1], 1);
            assert_eq!(h.buckets[HISTOGRAM_EDGES.len()], 1, "overflow bucket");
            assert_eq!(h.min, 3.0);
            assert_eq!(h.max, 1e9);
        });
    }

    #[test]
    fn spans_nest_into_paths() {
        with_tracing(|| {
            {
                let _outer = span("outer");
                {
                    let _inner = span("inner");
                }
                {
                    let _inner = span("inner");
                }
            }
            {
                let _lone = span("inner");
            }
            assert_eq!(span_count("outer"), 1);
            assert_eq!(span_count("outer/inner"), 2);
            assert_eq!(span_count("inner"), 1);
            let snap = snapshot();
            let outer = &snap.spans["outer"];
            assert!(outer.min_ns <= outer.max_ns);
            assert!(outer.total_ns >= outer.max_ns);
        });
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test unwinds through an open span on purpose"
    )]
    fn span_path_survives_panic_unwind() {
        with_tracing(|| {
            let result = std::panic::catch_unwind(|| {
                let _outer = span("unwound");
                panic!("boom");
            });
            assert!(result.is_err());
            // the guard dropped during unwind: recorded, stack popped
            assert_eq!(span_count("unwound"), 1);
            {
                let _clean = span("after");
            }
            assert_eq!(span_count("after"), 1, "stack must not stay polluted");
        });
    }

    #[test]
    fn reset_clears_everything() {
        with_tracing(|| {
            counter("tests.gone", 1);
            {
                let _s = span("gone");
            }
            reset();
            assert_eq!(counter_value("tests.gone"), 0);
            assert_eq!(span_count("gone"), 0);
            assert!(snapshot().counters.is_empty());
        });
    }
}
