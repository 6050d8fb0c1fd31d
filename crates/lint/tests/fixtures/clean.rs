// Fixture: near misses the linter must NOT flag, even when linted under a
// hot-path + deterministic file name.

/// Mentions of HashMap, Instant::now(), thread_rng() and x.partial_cmp(&y)
/// .unwrap() in doc comments are not code.
pub fn docs_only() -> &'static str {
    // Neither are comments: HashMap::new(), panic!("no"), v[i] == 0.0
    "strings are not code either: HashMap, Instant::now(), x == 0.0, \
     v.sort_by(|a, b| a.partial_cmp(b).unwrap())"
}

pub fn raw_string() -> &'static str {
    r#"SystemTime::now() inside a raw string with "quotes" stays inert"#
}

/// Total comparators are fine in ordering positions.
pub fn sorted(mut v: Vec<f32>) -> Vec<f32> {
    v.sort_by(f32::total_cmp);
    v
}

/// `unwrap_or` on partial_cmp outside an ordering callback is allowed.
pub fn cmp_or_equal(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Integer equality and tuple-index fields are not float comparisons.
pub fn ints(pair: (usize, f32), n: usize) -> bool {
    pair.0 == n
}

/// assert!/debug_assert! are contracts, not panics, even on hot paths.
pub fn checked_scale(v: &mut [f32], s: f32) {
    debug_assert!(s.is_finite());
    assert!(!v.is_empty());
    for x in v.iter_mut() {
        *x *= s;
    }
}

/// Iterator access instead of indexing; ranges like 0..n are not slices.
pub fn sum_window(v: &[f32], n: usize) -> f32 {
    v.iter().take(n).sum()
}

#[cfg(test)]
mod tests {
    // cfg(test) code is stripped before linting: unwrap, indexing and float
    // equality are all fine in tests.
    use std::collections::HashMap;

    #[test]
    fn test_code_is_exempt() {
        let mut m = HashMap::new();
        m.insert("k", 1.0f32);
        let v = [1.0f32, 2.0];
        assert!(v[0] == 1.0);
        assert_eq!(*m.get("k").unwrap(), 1.0);
    }
}
