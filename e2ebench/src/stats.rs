//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank and given in parts per ten thousand
//! (`P99 = 9_900`), so the rank arithmetic is exact integer arithmetic: a
//! float `0.99 * 1000.0` rounds up to rank 991 and would silently report a
//! different sample.

/// Median.
pub const P50: u64 = 5_000;
/// 99th percentile.
pub const P99: u64 = 9_900;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer make it a statement about a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_CANDIDATES: [u64; 6] = [9_999, 9_990, 9_900, 9_500, 9_000, P50];

/// 1-based nearest rank of the `per10k` percentile among `n` samples.
fn rank(n: usize, per10k: u64) -> usize {
    let n64 = n as u64;
    let r = (per10k.min(10_000) * n64).div_ceil(10_000);
    (r as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `per10k / 100` percent of all samples at or below
/// it. `None` for no samples.
pub fn percentile(sorted: &[f64], per10k: u64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), per10k) - 1])
}

/// Samples strictly beyond the `per10k` percentile's rank.
pub fn beyond(n: usize, per10k: u64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, per10k)
    }
}

/// The highest candidate percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, as `(per10k, value)`. `None` when even the median
/// has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<(u64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Ascending copy of `values` (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (mean of the middle pair for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Format a percentile given in parts per ten thousand, e.g. `p99.9`.
pub fn label(per10k: u64) -> String {
    let whole = per10k / 100;
    let frac = per10k % 100;
    if frac == 0 {
        format!("p{whole}")
    } else if frac.is_multiple_of(10) {
        format!("p{whole}.{}", frac / 10)
    } else {
        format!("p{whole}.{frac:02}")
    }
}
