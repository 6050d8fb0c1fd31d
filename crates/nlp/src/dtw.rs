//! Dynamic time warping over token-embedding sequences (Algorithm 1, line 4).
//!
//! The number of verbs/objects differs between trigger and action phrases, so
//! the paper aligns them with DTW before computing a similarity. Cost between
//! two tokens is `1 − cosine(v_a, v_b)`.

use crate::embed::{cosine, EmbeddingSpace};

/// DTW distance between two sequences given a pairwise cost function.
pub fn dtw_distance<T>(a: &[T], b: &[T], cost: impl Fn(&T, &T) -> f32) -> f32 {
    if a.is_empty() || b.is_empty() {
        // maximal cost per unmatched element
        return (a.len() + b.len()) as f32;
    }
    let (n, m) = (a.len(), b.len());
    let mut prev = vec![f32::INFINITY; m + 1];
    let mut cur = vec![f32::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        cur[0] = f32::INFINITY;
        for j in 1..=m {
            let c = cost(&a[i - 1], &b[j - 1]);
            cur[j] = c + prev[j - 1].min(prev[j]).min(cur[j - 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Normalized DTW similarity between two word lists in an embedding space:
/// `1 / (1 + DTW/len)`, in `(0, 1]`, where cost is cosine distance.
pub fn word_sequence_similarity(space: &EmbeddingSpace, a: &[String], b: &[String]) -> f32 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let va: Vec<_> = a.iter().map(|w| space.word_vec(w)).collect();
    let vb: Vec<_> = b.iter().map(|w| space.word_vec(w)).collect();
    let d = dtw_distance(&va, &vb, |x, y| 1.0 - cosine(x, y));
    let norm = d / a.len().max(b.len()) as f32;
    1.0 / (1.0 + norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_cost(a: &f32, b: &f32) -> f32 {
        (a - b).abs()
    }

    #[test]
    fn identical_sequences_zero_distance() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(dtw_distance(&a, &a, scalar_cost), 0.0);
    }

    #[test]
    fn warping_aligns_stretched_sequences() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 2.0, 3.0]; // stretched copy
        assert_eq!(dtw_distance(&a, &b, scalar_cost), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [1.0, 5.0, 2.0];
        let b = [2.0, 4.0];
        let d1 = dtw_distance(&a, &b, scalar_cost);
        let d2 = dtw_distance(&b, &a, scalar_cost);
        assert!((d1 - d2).abs() < 1e-6);
    }

    #[test]
    fn empty_sequences() {
        let a: [f32; 0] = [];
        let b = [1.0];
        assert_eq!(dtw_distance(&a, &b, scalar_cost), 1.0);
        assert_eq!(dtw_distance(&a, &a, scalar_cost), 0.0);
    }

    #[test]
    fn word_similarity_reflects_semantics() {
        let space = EmbeddingSpace::word_space();
        let open_win = vec!["open".to_string(), "window".to_string()];
        let win_opens = vec!["window".to_string(), "opens".to_string()];
        let play_music = vec!["play".to_string(), "music".to_string()];
        let rel = word_sequence_similarity(&space, &open_win, &win_opens);
        let unrel = word_sequence_similarity(&space, &open_win, &play_music);
        assert!(rel > unrel, "rel={rel} unrel={unrel}");
    }

    #[test]
    fn similarity_bounds() {
        let space = EmbeddingSpace::word_space();
        let a = vec!["light".to_string()];
        let sim = word_sequence_similarity(&space, &a, &a);
        assert!((sim - 1.0).abs() < 1e-5);
        assert_eq!(word_sequence_similarity(&space, &a, &[]), 0.0);
        assert_eq!(word_sequence_similarity(&space, &[], &[]), 1.0);
    }
}
