// Fixture: every violation here carries a justified pragma, so the linter
// must report nothing. Exercises same-line pragmas, previous-line pragmas,
// multi-line wrapped justifications, and multi-rule pragmas.
use std::time::Instant;

pub fn dedup(ids: &[u32]) -> Vec<u32> {
    // glint-lint: allow(hash-collection) — membership-only set, never iterated
    let mut seen = std::collections::HashSet::new();
    ids.iter().copied().filter(|i| seen.insert(*i)).collect()
}

pub fn stamp_for_log() -> Instant {
    Instant::now() // glint-lint: allow(wall-clock) — log timestamp only, never feeds results
}

pub fn cmp_checked(a: f32, b: f32) -> std::cmp::Ordering {
    debug_assert!(!a.is_nan() && !b.is_nan());
    // glint-lint: allow(partial-cmp-unwrap, hot-unwrap) — inputs validated
    // finite by the debug_assert above; release keeps the invariant via the
    // caller
    a.partial_cmp(&b).unwrap()
}

pub fn sort_scores(v: &mut [f32]) {
    // glint-lint: allow(float-cmp-order) — scores are clamped to [0, 1] before
    // this call, so partial_cmp is total here
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

pub fn skip_zero(x: f32) -> bool {
    // glint-lint: allow(float-eq) — deliberate IEEE exact-zero test: 0.0 is
    // the sparsity sentinel and is stored exactly
    x == 0.0
}

pub fn hot_first(v: &[f32]) -> f32 {
    if v.is_empty() {
        // glint-lint: allow(hot-panic) — an empty kernel input is a
        // programming error worth aborting on, not a value to fabricate
        panic!("kernel fed an empty slice");
    }
    // glint-lint: allow(hot-unwrap) — guarded by the emptiness check above
    *v.first().unwrap()
}
