//! The PPJoin+ suffix filter.
//!
//! After the prefix and positional filters admit a candidate pair, PPJoin+
//! (Xiao et al., WWW'08) probes the *suffixes* — the tokens after the
//! matched prefix position — with a divide-and-conquer lower bound on their
//! Hamming distance. If even the lower bound exceeds the largest Hamming
//! distance compatible with the required overlap α, the pair cannot join and
//! verification is skipped.
//!
//! For sets, `H(x, y) = |x| + |y| − 2·|x ∩ y|`, so `|x ∩ y| ≥ o` implies
//! `H(x, y) ≤ |x| + |y| − 2o`.

/// Maximum recursion depth of the divide-and-conquer bound, as recommended
/// by the PPJoin+ paper (deeper probing costs more than it saves).
pub const MAX_DEPTH: usize = 2;

/// Lower bound on the Hamming distance between two sorted token sets.
///
/// `budget` allows early exit: once the partial bound exceeds it, any value
/// `> budget` may be returned (the caller only compares against `budget`).
/// The returned value is always a valid lower bound on `H(x, y)`.
pub fn hamming_lower_bound(x: &[u32], y: &[u32], budget: usize, depth: usize) -> usize {
    let len_diff = x.len().abs_diff(y.len());
    if depth > MAX_DEPTH || x.is_empty() || y.is_empty() || len_diff > budget {
        return len_diff;
    }
    // Partition y at its middle token and x at the matching position: tokens
    // left of the pivot can only intersect tokens left of it, and likewise
    // right — so the Hamming bounds of the halves add.
    let mid = y.len() / 2;
    let w = y[mid];
    let (yl, yr) = (&y[..mid], &y[mid + 1..]);
    let p = x.partition_point(|&t| t < w);
    let found = p < x.len() && x[p] == w;
    let (xl, xr) = if found {
        (&x[..p], &x[p + 1..])
    } else {
        (&x[..p], &x[p..])
    };
    let miss = usize::from(!found);
    let hl = hamming_lower_bound(xl, yl, budget.saturating_sub(miss), depth + 1);
    let partial = hl + miss;
    if partial > budget {
        return partial;
    }
    let hr = hamming_lower_bound(xr, yr, budget - partial, depth + 1);
    partial + hr
}

/// Combined length of the two suffixes from which the kernel applies the
/// suffix filter; below it candidates go straight to the early-terminating
/// merge of [`crate::verify::overlap_at_least`].
///
/// The probe is up to three binary searches (`MAX_DEPTH`), so its cost grows
/// with log n; the merge it can save costs at most one step per remaining
/// token, and on a pair the filter would prune it stops as soon as the
/// mismatches have used up the slack. `kernels_micro` (`suffix_vs_merge`:
/// the pairs that pass the positional filter, medians of three runs on the
/// 2-vCPU reference host) gives, in ns per pair the filter prunes, probe
/// against the merge saved, and what running the filter adds to verifying
/// the whole population:
///
/// | set sizes | τ 0.5 | τ 0.8 | whole population |
/// |---|---|---|---|
/// | 8–12 tokens (DBLP-style titles) | 32 vs 23 | 19 vs 7 | +57 % / +176 % |
/// | 24–48 tokens | 54 vs 55 | 38 vs 31 | +23 % / +23 % |
/// | 64–128 tokens | 62 vs 72 | 55 vs 55 | +21 % / +22 % |
///
/// On short records the probe costs more than the merge of a pair it prunes
/// (a *complete* merge of 20 tokens is ~40 ns), so the filter can only add
/// time — ~1 s of the 2.4 s single-thread join of the `zipf-lowtau-self`
/// corpus. The probe draws level with the saved merge at 24–48 tokens a
/// side and is cheaper from 64–128, and its own cost stays ~60 ns while a
/// merge grows by ~2 ns a token: the gate sits at 128 combined tokens, the
/// first size class where a prune saves at least what the probe costs, so
/// records of CITESEERX-abstract length keep the filter. On this generator's
/// independently drawn tokens the filter still loses ~20 % there, because it
/// is also paid on the pairs it cannot prune; the gate bounds that cost
/// rather than promising a win.
const MIN_PROBE_TOKENS: usize = 128;

/// True when probing suffixes of these lengths may cost less than the merge
/// it can save.
pub(crate) fn suffix_pays_off(x_suffix_len: usize, y_suffix_len: usize) -> bool {
    x_suffix_len + y_suffix_len >= MIN_PROBE_TOKENS
}

/// Exact Hamming distance between two sorted sets (test oracle).
pub fn hamming_exact(x: &[u32], y: &[u32]) -> usize {
    let inter = crate::verify::intersection_size(x, y);
    x.len() + y.len() - 2 * inter
}

/// Suffix-filter decision for a candidate pair: given the suffixes after the
/// first shared prefix token and the overlap still required from them,
/// returns `true` when the pair **survives** (may still join).
pub fn suffix_survives(x_suffix: &[u32], y_suffix: &[u32], required_overlap: usize) -> bool {
    if required_overlap == 0 {
        return true;
    }
    let max_len = x_suffix.len().min(y_suffix.len());
    if max_len < required_overlap {
        return false;
    }
    let h_max = x_suffix.len() + y_suffix.len() - 2 * required_overlap;
    hamming_lower_bound(x_suffix, y_suffix, h_max, 1) <= h_max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_never_exceeds_exact() {
        // Deterministic sweep over structured cases.
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            ((0..10).collect(), (0..10).collect()),
            ((0..10).collect(), (5..15).collect()),
            ((0..10).collect(), (20..25).collect()),
            (vec![], (0..4).collect()),
            ((0..1).collect(), vec![]),
            (vec![1, 3, 5, 7, 9], vec![2, 4, 6, 8, 10]),
            (vec![1, 2, 3, 10, 11], vec![1, 3, 11, 12]),
        ];
        for (x, y) in cases {
            let exact = hamming_exact(&x, &y);
            let lb = hamming_lower_bound(&x, &y, usize::MAX, 1);
            assert!(lb <= exact, "lb {lb} > exact {exact} for {x:?} vs {y:?}");
        }
    }

    #[test]
    fn identical_sets_bound_zero() {
        let x: Vec<u32> = (0..16).collect();
        assert_eq!(hamming_lower_bound(&x, &x, usize::MAX, 1), 0);
        assert_eq!(hamming_exact(&x, &x), 0);
    }

    #[test]
    fn disjoint_sets_get_nonzero_bound() {
        let x: Vec<u32> = (0..8).collect();
        let y: Vec<u32> = (100..108).collect();
        assert!(hamming_lower_bound(&x, &y, usize::MAX, 1) > 0);
    }

    #[test]
    fn survives_is_conservative() {
        // A pair with enough suffix overlap must survive.
        let x: Vec<u32> = (0..10).collect();
        let y: Vec<u32> = (0..10).collect();
        assert!(suffix_survives(&x, &y, 10));
        // Required overlap larger than the shorter suffix cannot survive.
        assert!(!suffix_survives(&x, &y[..4], 5));
    }

    #[test]
    fn survives_zero_requirement() {
        assert!(suffix_survives(&[], &[], 0));
        assert!(suffix_survives(&[1], &[2], 0));
    }

    #[test]
    fn budget_early_exit_still_sound() {
        let x: Vec<u32> = (0..32).collect();
        let y: Vec<u32> = (32..64).collect();
        // With a tiny budget the function may return early, but whatever it
        // returns must exceed the budget (correct prune signal) and stay a
        // valid lower bound.
        let lb = hamming_lower_bound(&x, &y, 3, 1);
        assert!(lb <= hamming_exact(&x, &y));
        assert!(lb > 3 || lb == hamming_exact(&x, &y));
    }
}
