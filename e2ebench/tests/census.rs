//! The operation mixes of `window_stream` and `serve_score` come from a
//! census of the simulator's windows, recorded in `inputs::STRATA` and
//! `inputs::SERVE_BODIES`; a recount must give the recorded numbers, and
//! every run must draw in the recorded proportions.

use glint_e2ebench::inputs::{
    self, CENSUS_HOMES, CENSUS_SEED, SERVE_BODIES, SERVE_BODY_COUNT, STRATA,
};
use glint_e2ebench::setup;

#[test]
fn recorded_census_matches_a_recount() {
    let corpus = setup::corpus();
    let windows = inputs::window_census(&corpus, CENSUS_SEED, CENSUS_HOMES);
    let recorded: Vec<usize> = STRATA.iter().map(|s| s.census).collect();
    assert_eq!(
        windows[..STRATA.len()],
        recorded[..],
        "window census changed: rerun `glint-e2ebench --census`"
    );
    assert_eq!(windows.iter().sum::<usize>(), 27_000);
    let bodies = inputs::serve_census(&corpus, CENSUS_SEED, CENSUS_HOMES);
    let recorded: Vec<usize> = SERVE_BODIES.iter().map(|(_, n)| *n).collect();
    assert_eq!(
        bodies, recorded,
        "serve census changed: rerun `glint-e2ebench --census`"
    );
}

#[test]
fn apportion_splits_exactly_by_largest_remainder() {
    let weights: Vec<usize> = SERVE_BODIES.iter().map(|(_, n)| *n).collect();
    assert_eq!(
        inputs::apportion(&weights, SERVE_BODY_COUNT),
        vec![2_191, 1_640, 265]
    );
    assert_eq!(inputs::apportion(&[1, 1, 1], 10), vec![4, 3, 3]);
    assert_eq!(inputs::apportion(&[7, 0], 5), vec![5, 0]);
}

/// Every prefix of the draw order holds each stratum within one draw of
/// its share.
fn assert_smooth(weights: &[usize]) {
    let order = inputs::interleave(weights);
    let total: usize = weights.iter().sum();
    assert_eq!(order.len(), total);
    let mut drawn = vec![0usize; weights.len()];
    for (t, &s) in order.iter().enumerate() {
        drawn[s] += 1;
        for (k, &w) in weights.iter().enumerate() {
            let share = (t + 1) as f64 * w as f64 / total as f64;
            assert!(
                (drawn[k] as f64 - share).abs() < 1.0 + 1e-9,
                "after {} draws stratum {k} has {} for a share of {share}",
                t + 1,
                drawn[k]
            );
        }
    }
    assert_eq!(drawn, weights);
}

#[test]
fn interleave_keeps_every_prefix_in_proportion() {
    assert_smooth(&[5, 1, 3]);
    assert_smooth(&[1, 0, 2]);
    assert_smooth(&STRATA.iter().map(|s| s.census).collect::<Vec<_>>());
}
