//! Offline shim of the `criterion` API surface used by this workspace's
//! benchmark harnesses. Timing is a simple warmup + fixed-sample median
//! (no statistical analysis, no HTML reports); results are printed as
//! `bench <name> ... <time>/iter`.
//!
//! Set `GLINT_BENCH_FAST=1` to cut samples to the minimum, e.g. when a CI
//! job only needs the harness to run end-to-end.
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall-clock time by design"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Measurement driver handed to `b.iter(..)` closures.
pub struct Bencher {
    sample_size: usize,
    /// Filled in by `iter`: median per-iteration time.
    last: Option<Duration>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            last: None,
        }
    }

    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // warmup + calibration: how many iterations fit in ~20ms?
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            std::hint::black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() > Duration::from_millis(20) || warm_iters >= 1_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_nanos() / warm_iters as u128;
        // aim each sample at ~5ms of work, at least one iteration
        let iters_per_sample = (5_000_000 / per_iter.max(1)).clamp(1, 10_000) as u64;
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            samples.push(start.elapsed().as_nanos() / iters_per_sample as u128);
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        self.last = Some(Duration::from_nanos(median as u64));
    }
}

fn fast_mode() -> bool {
    std::env::var("GLINT_BENCH_FAST").is_ok_and(|v| v != "0")
}

fn format_time(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Identifier for a parameterized benchmark.
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: if fast_mode() { 2 } else { 10 },
        }
    }
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, self.sample_size, &mut f);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            sample_size,
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, f: &mut F) {
    let mut b = Bencher::new(sample_size);
    f(&mut b);
    match b.last {
        Some(t) => println!("bench {label:<40} {:>12}/iter", format_time(t)),
        None => println!("bench {label:<40} (no iter() call)"),
    }
}

/// Grouped benchmarks (shares the parent's printing, adds a name prefix).
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = if fast_mode() { 2 } else { n.max(2) };
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchLabel>,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().0);
        run_one(&label, self.sample_size, &mut f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.name);
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        match b.last {
            Some(t) => println!("bench {label:<40} {:>12}/iter", format_time(t)),
            None => println!("bench {label:<40} (no iter() call)"),
        }
        self
    }

    pub fn finish(self) {}
}

/// Accepts both `&str` and `BenchmarkId` where criterion takes `id: impl Into<...>`.
pub struct BenchLabel(pub String);

impl From<&str> for BenchLabel {
    fn from(s: &str) -> Self {
        BenchLabel(s.to_string())
    }
}

impl From<String> for BenchLabel {
    fn from(s: String) -> Self {
        BenchLabel(s)
    }
}

impl From<BenchmarkId> for BenchLabel {
    fn from(id: BenchmarkId) -> Self {
        BenchLabel(id.name)
    }
}

/// Re-export so `criterion::black_box` callers keep working.
pub use std::hint::black_box;

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
