//! Candidate verification: exact overlap computation with early termination.

use crate::measure::Threshold;

/// Exact intersection size of two strictly-increasing rank vectors (merge).
pub fn intersection_size(x: &[u32], y: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The smallest token two strictly-increasing rank vectors share (merge,
/// stopping at the first hit).
pub fn first_common(x: &[u32], y: &[u32]) -> Option<u32> {
    let (mut i, mut j) = (0usize, 0usize);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Some(x[i]),
        }
    }
    None
}

/// Merge-based overlap test with early termination: returns the exact
/// overlap if it reaches `needed`, otherwise `None` as soon as the bound
/// `overlap_so_far + remaining_possible < needed` proves failure.
///
/// `start_x`/`start_y` let callers resume after prefix positions already
/// accounted for in `seed` (the PPJoin verification pattern).
pub fn overlap_at_least(
    x: &[u32],
    y: &[u32],
    start_x: usize,
    start_y: usize,
    seed: usize,
    needed: usize,
) -> Option<usize> {
    let mut i = start_x;
    let mut j = start_y;
    let mut n = seed;
    while i < x.len() && j < y.len() {
        // Even matching every remaining token cannot reach `needed`.
        let best = n + (x.len() - i).min(y.len() - j);
        if best < needed {
            return None;
        }
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (n >= needed).then_some(n)
}

/// Verify a candidate pair against a threshold: applies the length filter,
/// computes α, runs the early-terminating overlap test, and returns the
/// exact similarity of joining pairs.
pub fn verify_pair(t: &Threshold, x: &[u32], y: &[u32]) -> Option<f64> {
    if !t.length_compatible(x.len(), y.len()) {
        return None;
    }
    let alpha = t.overlap_needed(x.len(), y.len());
    overlap_at_least(x, y, 0, 0, 0, alpha)?;
    // Overlap reached α; compute the exact similarity (cheap given the
    // overlap is already known to pass; `matches` recomputes exactly).
    t.matches(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_common_is_the_smallest_shared_token() {
        assert_eq!(first_common(&[1, 3, 5], &[2, 3, 5, 7]), Some(3));
        assert_eq!(first_common(&[1, 2], &[3, 4]), None);
        assert_eq!(first_common(&[], &[1]), None);
    }

    #[test]
    fn intersection_basic() {
        assert_eq!(intersection_size(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(intersection_size(&[], &[1]), 0);
        assert_eq!(intersection_size(&[1, 2], &[1, 2]), 2);
        assert_eq!(intersection_size(&[1, 2], &[3, 4]), 0);
    }

    #[test]
    fn overlap_at_least_reaches_or_prunes() {
        let x = [1u32, 2, 3, 4, 5];
        let y = [3u32, 4, 5, 6, 7];
        assert_eq!(overlap_at_least(&x, &y, 0, 0, 0, 3), Some(3));
        assert_eq!(overlap_at_least(&x, &y, 0, 0, 0, 4), None);
    }

    #[test]
    fn overlap_resume_with_seed() {
        let x = [1u32, 2, 3, 4, 5];
        let y = [1u32, 2, 3, 4, 5];
        // Pretend positions 0..2 already matched (seed 2).
        assert_eq!(overlap_at_least(&x, &y, 2, 2, 2, 5), Some(5));
    }

    #[test]
    fn verify_pair_applies_length_filter() {
        let t = Threshold::jaccard(0.8);
        let x: Vec<u32> = (0..10).collect();
        let y: Vec<u32> = (0..20).collect();
        // 10 vs 20 fails the length filter outright (upper bound 12).
        assert!(verify_pair(&t, &x, &y).is_none());
    }

    #[test]
    fn verify_pair_returns_similarity() {
        let t = Threshold::jaccard(0.5);
        let x = [0u32, 1, 2, 3];
        let y = [1u32, 2, 3, 8, 9];
        let s = verify_pair(&t, &x, &y).unwrap();
        assert!((s - 0.5).abs() < 1e-12);
        let t9 = Threshold::jaccard(0.9);
        assert!(verify_pair(&t9, &x, &y).is_none());
    }

    #[test]
    fn verify_identical_sets() {
        let t = Threshold::jaccard(1.0);
        let x = [5u32, 9, 11];
        assert_eq!(verify_pair(&t, &x, &x), Some(1.0));
    }
}
