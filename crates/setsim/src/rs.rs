//! Single-node R-S (two-relation) join kernels.
//!
//! These are the kernels the paper's stage-2 reducers run in the R-S case:
//! the R side is indexed (or buffered), the S side streams against it.
//! When both sides are consumed in increasing size order — which the
//! MapReduce length-class trick of Figure 6 guarantees — the indexed kernel
//! evicts R records that fall below the length filter's lower bound, just
//! like the self-join case.

use crate::measure::Threshold;
use crate::naive::Record;
use crate::ppjoin::{FilterConfig, PpjoinIndex};
use crate::verify::verify_pair;

/// Nested-loop R-S join with length filtering: the single-node equivalent
/// of the paper's BK reducer for the R-S case. Returns `(r_id, s_id, sim)`
/// sorted.
pub fn block_rs_join(r: &[Record], s: &[Record], t: &Threshold) -> Vec<(u64, u64, f64)> {
    let mut out = Vec::new();
    for (rid, x) in r {
        for (sid, y) in s {
            if let Some(sim) = verify_pair(t, x, y) {
                out.push((*rid, *sid, sim));
            }
        }
    }
    out.sort_by(|p, q| p.0.cmp(&q.0).then(p.1.cmp(&q.1)));
    out
}

/// Indexed R-S join: index R's prefixes, stream S in increasing size order,
/// evicting R records as the length filter allows — the single-node
/// equivalent of the paper's PK reducer for the R-S case. Returns
/// `(r_id, s_id, sim)` sorted, deduplicated.
pub fn indexed_rs_join(
    r: &[Record],
    s: &[Record],
    t: &Threshold,
    filters: FilterConfig,
) -> Vec<(u64, u64, f64)> {
    let mut r_sorted: Vec<&Record> = r.iter().collect();
    r_sorted.sort_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(&b.0)));
    let mut s_sorted: Vec<&Record> = s.iter().collect();
    s_sorted.sort_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(&b.0)));

    let mut index = PpjoinIndex::for_rs(*t, filters);
    let mut next_r = 0usize;
    let mut out = Vec::new();
    for (sid, y) in s_sorted {
        // Stream in every R record that could join an S record of |y| (or
        // longer, since S ascends): everything up to the upper bound.
        let max_r_len = t.upper_bound(y.len());
        while next_r < r_sorted.len() && r_sorted[next_r].1.len() <= max_r_len {
            let (rid, x) = r_sorted[next_r];
            index.insert(*rid, x);
            next_r += 1;
        }
        for m in index.probe(y) {
            out.push((m.rid, *sid, m.sim));
        }
    }
    out.sort_by(|p, q| p.0.cmp(&q.0).then(p.1.cmp(&q.1)));
    out.dedup_by(|p, q| p.0 == q.0 && p.1 == q.1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn recs(base: u64, sets: &[&[u32]]) -> Vec<Record> {
        sets.iter()
            .enumerate()
            .map(|(i, s)| (base + i as u64, s.to_vec()))
            .collect()
    }

    fn fixture() -> (Vec<Record>, Vec<Record>) {
        let r = recs(
            1,
            &[
                &[1, 2, 3, 4],
                &[5, 6, 7, 8, 9],
                &[1, 2, 3],
                &[10, 11, 12, 13, 14, 15],
            ],
        );
        let s = recs(
            100,
            &[
                &[1, 2, 3, 4, 5],
                &[5, 6, 7, 8, 9],
                &[20, 21],
                &[10, 11, 12, 13, 14, 16],
            ],
        );
        (r, s)
    }

    #[test]
    fn both_kernels_match_naive() {
        let (r, s) = fixture();
        for tau in [0.5, 0.7, 0.9] {
            let t = Threshold::jaccard(tau);
            let expected: Vec<(u64, u64)> = naive::rs_join(&r, &s, &t)
                .iter()
                .map(|(a, b, _)| (*a, *b))
                .collect();
            let block: Vec<(u64, u64)> = block_rs_join(&r, &s, &t)
                .iter()
                .map(|(a, b, _)| (*a, *b))
                .collect();
            let indexed: Vec<(u64, u64)> = indexed_rs_join(&r, &s, &t, FilterConfig::ppjoin())
                .iter()
                .map(|(a, b, _)| (*a, *b))
                .collect();
            assert_eq!(block, expected, "block tau={tau}");
            assert_eq!(indexed, expected, "indexed tau={tau}");
        }
    }

    #[test]
    fn empty_sides() {
        let t = Threshold::jaccard(0.8);
        let (r, _) = fixture();
        assert!(block_rs_join(&r, &[], &t).is_empty());
        assert!(block_rs_join(&[], &r, &t).is_empty());
        assert!(indexed_rs_join(&[], &r, &t, FilterConfig::ppjoin()).is_empty());
        assert!(indexed_rs_join(&r, &[], &t, FilterConfig::ppjoin()).is_empty());
    }

    #[test]
    fn suffix_filter_preserves_results() {
        let (r, s) = fixture();
        let t = Threshold::jaccard(0.6);
        let plus = indexed_rs_join(&r, &s, &t, FilterConfig::ppjoin_plus());
        let plain = indexed_rs_join(&r, &s, &t, FilterConfig::prefix_only());
        assert_eq!(plus, plain);
    }
}
