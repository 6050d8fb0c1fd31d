//! Run machinery shared by the workloads: rounds of set-up and
//! measurement, the closed-loop runner, and the end-to-end metrics every
//! workload reports.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::layers::VerdictKey;
use crate::setup::Models;
use crate::stats;

/// A run trains the models once, then runs this many rounds, each its own
/// set-up (inputs, deployment, fleet bootstrap, server boot) followed by a
/// timed phase of `--seconds / ROUNDS`. Each timing is the best round's
/// (see [`end_to_end`]): the measurement samples three moments spread over
/// the run, and a round slowed by load from outside the process does not
/// move it.
pub const ROUNDS: usize = 3;

/// Untimed operations at the start of every phase: they warm the buffer
/// pools and caches, and their verdicts are still checked.
pub const WARMUP_OPS: usize = 16;

/// A timed phase keeps going past its time budget until it has this many
/// operations, so the 99th percentile has at least ten samples beyond it.
pub const MIN_OPS: usize = 1_010;

/// ... but never past this multiple of its time budget.
pub const MAX_BUDGET_FACTOR: f64 = 4.0;

/// How long a timed phase lasts.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// At least this many seconds and [`MIN_OPS`] operations.
    Seconds(f64),
    /// Exactly this many timed operations: a traced phase replays the
    /// untraced phase's operation sequence.
    Ops(usize),
}

impl Budget {
    /// Is the phase over after `timed` operations in `elapsed_s` seconds?
    pub fn done(&self, timed: usize, elapsed_s: f64) -> bool {
        match *self {
            Budget::Seconds(s) => {
                (elapsed_s >= s && timed >= MIN_OPS) || elapsed_s >= s * MAX_BUDGET_FACTOR
            }
            Budget::Ops(n) => timed >= n,
        }
    }
}

/// The result of one operation.
pub enum Op {
    Verdict(VerdictKey),
    Failed(String),
}

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Latency of every timed operation.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed operations, warm-up excluded.
    pub elapsed_s: f64,
    /// Verdict of every operation, warm-up included, in sequence order;
    /// `None` for a failed operation.
    pub keys: Vec<Option<VerdictKey>>,
    /// Operations that failed or were quarantined.
    pub failed: u64,
    /// Drift-only verdicts.
    pub degraded: u64,
    /// Why operations failed (the first few).
    pub failures: Vec<String>,
}

impl Phase {
    pub fn timed(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn attempted(&self) -> u64 {
        self.keys.len() as u64
    }

    pub fn record(&mut self, op: Op) {
        match op {
            Op::Verdict(key) => {
                match key.rung {
                    1 => self.degraded += 1,
                    2 => {
                        self.failed += 1;
                        self.note_failure("quarantined verdict".to_string());
                    }
                    _ => {}
                }
                self.keys.push(Some(key));
            }
            Op::Failed(why) => {
                self.failed += 1;
                self.note_failure(why);
                self.keys.push(None);
            }
        }
    }

    pub fn note_failure(&mut self, why: String) {
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    pub fn p50_ms(&self) -> f64 {
        stats::percentile(&stats::sorted(&self.latencies_ms), stats::P50).unwrap_or(0.0)
    }
}

/// Drive `op(i)` for `i = 0, 1, ...` one at a time: [`WARMUP_OPS`]
/// untimed, then timed until `budget` is spent. `op` returns `None` when
/// its inputs are exhausted, which ends the phase early.
pub fn closed_loop(budget: Budget, mut op: impl FnMut(usize) -> Option<Op>) -> Phase {
    let mut phase = Phase::default();
    for i in 0..WARMUP_OPS {
        match op(i) {
            Some(result) => phase.record(result),
            None => return phase,
        }
    }
    let begin = Instant::now();
    let mut i = WARMUP_OPS;
    while !budget.done(phase.timed(), begin.elapsed().as_secs_f64()) {
        let start = Instant::now();
        let Some(result) = op(i) else { break };
        phase.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        phase.record(result);
        i += 1;
    }
    phase.elapsed_s = begin.elapsed().as_secs_f64();
    phase
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// The metrics the run reports (end-to-end or per-layer).
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; the run is incorrect when non-empty.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Fold a phase's operation counts and failures in.
    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted();
        self.failed += phase.failed;
        for why in &phase.failures {
            self.problems.push(format!("operation failed: {why}"));
        }
    }

    /// The shared verdict-accounting and trace-overhead metrics of a
    /// traced run, after [`Outcome::count`] has seen both phases.
    pub fn trace_values(&mut self, untraced: &Phase, traced: &Phase) {
        let attempted = self.attempted as f64;
        self.values
            .insert("verdict.failed_frac", ratio(self.failed as f64, attempted));
        self.values.insert(
            "verdict.degraded_frac",
            ratio((untraced.degraded + traced.degraded) as f64, attempted),
        );
        let base = untraced.p50_ms();
        self.values
            .insert("trace.overhead_frac", ratio(traced.p50_ms() - base, base));
        self.notes.push(latency_summary("untraced phase", untraced));
        self.notes.push(latency_summary("traced phase", traced));
    }

    /// The trainer's per-layer metrics.
    pub fn trainer_values(&mut self, models: &Models) {
        self.values
            .insert("trainer.classifier_s", models.classifier_s);
        self.values
            .insert("trainer.contrastive_s", models.contrastive_s);
    }

    /// Check that a traced phase replaying an untraced phase's operation
    /// sequence reached the same verdicts.
    pub fn same_verdicts(&mut self, untraced: &Phase, traced: &Phase) {
        let mismatches = untraced
            .keys
            .iter()
            .zip(&traced.keys)
            .filter(|(a, b)| a != b)
            .count();
        if mismatches > 0 || traced.keys.len() != untraced.keys.len() {
            self.problems.push(format!(
                "traced verdicts differ from untraced ones: {mismatches} mismatches, \
                 {} vs {} operations",
                traced.keys.len(),
                untraced.keys.len()
            ));
        }
    }
}

/// What the rounds of a run measured.
pub struct Rounds<T, R> {
    pub setup_s: Vec<f64>,
    /// Each round's measurement, in order.
    pub results: Vec<R>,
    /// The last round's state, after its measurement.
    pub last: T,
}

/// Run [`ROUNDS`] rounds: time `setup`, then `measure` the new state with
/// its share of `seconds` and the round's number. A round's state is
/// dropped before the next round's set-up starts, except the last one's,
/// which is returned.
pub fn rounds<T, R>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut measure: impl FnMut(&mut T, Budget, usize) -> R,
) -> Result<Rounds<T, R>, String> {
    let budget = Budget::Seconds(seconds / ROUNDS as f64);
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut results = Vec::with_capacity(ROUNDS);
    let mut last = None;
    for round in 0..ROUNDS {
        drop(last.take());
        let start = Instant::now();
        let mut state = setup()?;
        setup_s.push(start.elapsed().as_secs_f64());
        results.push(measure(&mut state, budget, round));
        last = Some(state);
    }
    Ok(Rounds {
        setup_s,
        results,
        last: last.expect("at least one round"),
    })
}

/// Peak resident set size (VmHWM) in MB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics of a run's untraced rounds: each timing is the
/// best round's (lowest latency, highest throughput); `setup_s` is the one
/// training of the run, `train_s`, plus the median of the rounds' own
/// set-ups; `oracle_agreements` counts the timed verdicts of all rounds
/// that agree with the oracle.
///
/// Load from outside the process only ever slows a round, so the best of
/// the rounds is the closest to what the program itself costs. Over two
/// sets of ten window_stream runs on a shared 2-vCPU VM it cut the p99
/// spread (q3 - q1 over the median) from 0.165 and 0.295 with the median
/// round to 0.130 and 0.166.
pub fn end_to_end(
    train_s: f64,
    setup_s: &[f64],
    phases: &[&Phase],
    oracle_agreements: u64,
) -> BTreeMap<&'static str, f64> {
    let each = |f: &dyn Fn(&Phase) -> f64| phases.iter().map(|p| f(p)).collect::<Vec<_>>();
    let lowest = |f: &dyn Fn(&Phase) -> f64| each(f).into_iter().fold(f64::INFINITY, f64::min);
    let timed: usize = phases.iter().map(|p| p.timed()).sum();
    let mut v = BTreeMap::new();
    v.insert("setup_s", train_s + stats::median(setup_s));
    v.insert("latency_p50_ms", lowest(&|p| p.p50_ms()));
    v.insert(
        "latency_p99_ms",
        lowest(&|p| stats::percentile(&stats::sorted(&p.latencies_ms), stats::P99).unwrap_or(0.0)),
    );
    v.insert(
        "throughput_ops_s",
        each(&|p| ratio(p.timed() as f64, p.elapsed_s))
            .into_iter()
            .fold(0.0, f64::max),
    );
    v.insert(
        "oracle_agreement",
        ratio(oracle_agreements as f64, timed as f64),
    );
    v.insert("peak_rss_mb", peak_rss_mb());
    v
}

/// Human-readable summary of a phase's latency distribution.
pub fn latency_summary(name: &str, phase: &Phase) -> String {
    let sorted = stats::sorted(&phase.latencies_ms);
    let tail = match stats::tail(&sorted) {
        Some((p, v)) => format!("{} {v:.3} ms", stats::label(p)),
        None => "no tail percentile".to_string(),
    };
    format!(
        "{name}: {} timed ops in {:.2} s, p50 {:.3} ms, highest percentile with >= {} \
         samples beyond: {tail}",
        phase.timed(),
        phase.elapsed_s,
        stats::percentile(&sorted, stats::P50).unwrap_or(0.0),
        stats::MIN_BEYOND,
    )
}
