//! Percentile selection.

use glint_e2ebench::run::{self, Phase, MIN_OPS};
use glint_e2ebench::stats::{self, beyond, percentile, tail, MIN_BEYOND, P50, P99};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn nearest_rank_percentiles_are_exact() {
    let v = ramp(1000);
    assert_eq!(percentile(&v, P50), Some(500.0));
    // 0.99 * 1000 in floating point rounds up past rank 990
    assert_eq!(percentile(&v, P99), Some(990.0));
    assert_eq!(percentile(&v, 10_000), Some(1000.0));
    assert_eq!(percentile(&ramp(1), P99), Some(1.0));
    assert_eq!(percentile(&[], P50), None);
    assert_eq!(beyond(1000, P99), 10);
    assert_eq!(beyond(999, P99), 9);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let cases = [
        (5, None),
        (19, None),
        (20, Some(5_000)),
        (199, Some(9_000)),
        (200, Some(9_500)),
        (999, Some(9_500)),
        (1_000, Some(9_900)),
        (9_999, Some(9_900)),
        (10_000, Some(9_990)),
        (100_000, Some(9_999)),
    ];
    for (n, want) in cases {
        let v = ramp(n);
        let got = tail(&v);
        assert_eq!(got.map(|(p, _)| p), want, "n = {n}");
        if let Some((p, value)) = got {
            assert!(beyond(n, p) >= MIN_BEYOND);
            assert_eq!(percentile(&v, p), Some(value));
        }
    }
}

#[test]
fn a_minimal_phase_leaves_ten_samples_beyond_p99() {
    assert!(beyond(MIN_OPS, P99) >= MIN_BEYOND);
    assert_eq!(tail(&ramp(MIN_OPS)).map(|(p, _)| p), Some(P99));
}

#[test]
fn end_to_end_timings_are_the_best_round() {
    let phase = |ms: f64, elapsed_s: f64| Phase {
        latencies_ms: (1..=MIN_OPS)
            .map(|i| ms * i as f64 / MIN_OPS as f64)
            .collect(),
        elapsed_s,
        ..Phase::default()
    };
    // the fastest round decides every timing, whatever the slowed ones do;
    // set-up is the median round's
    let rounds = [phase(2.0, 1.0), phase(1.0, 0.5), phase(50.0, 25.0)];
    let refs: Vec<&Phase> = rounds.iter().collect();
    let v = run::end_to_end(0.5, &[3.0, 1.0, 2.0], &refs, 3 * MIN_OPS as u64 / 2);
    assert_eq!(v["setup_s"], 2.5);
    assert_eq!(
        v["latency_p50_ms"],
        percentile(&rounds[1].latencies_ms, P50).unwrap()
    );
    assert_eq!(
        v["latency_p99_ms"],
        percentile(&rounds[1].latencies_ms, P99).unwrap()
    );
    assert_eq!(v["throughput_ops_s"], 2.0 * MIN_OPS as f64);
    assert_eq!(v["oracle_agreement"], 0.5);
}

#[test]
fn rounds_share_the_time_budget_and_keep_the_last_state() {
    let mut setups = 0;
    let rounds = run::rounds(
        9.0,
        || {
            setups += 1;
            Ok(setups)
        },
        |state, budget, round| {
            *state *= 10;
            match budget {
                run::Budget::Seconds(s) => (round, s),
                run::Budget::Ops(_) => (round, f64::NAN),
            }
        },
    )
    .expect("set-up succeeds");
    assert_eq!(setups, run::ROUNDS);
    assert_eq!(rounds.setup_s.len(), run::ROUNDS);
    let share = 9.0 / run::ROUNDS as f64;
    assert_eq!(
        rounds.results,
        (0..run::ROUNDS).map(|r| (r, share)).collect::<Vec<_>>()
    );
    assert_eq!(rounds.last, 10 * run::ROUNDS);
    assert!(run::rounds(1.0, || Err::<u8, _>("no".to_string()), |_, _, _| ()).is_err());
}

#[test]
fn labels_and_medians() {
    assert_eq!(stats::label(9_900), "p99");
    assert_eq!(stats::label(9_990), "p99.9");
    assert_eq!(stats::label(9_999), "p99.99");
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(stats::median(&[]), 0.0);
}
