//! Property-based tests over the set-similarity kernels.
//!
//! These are the real correctness guarantee for the filter mathematics: for
//! randomly generated record collections, every optimized kernel must return
//! exactly the pairs the naive quadratic oracle returns, and every filter
//! bound must hold as a theorem.

use proptest::prelude::*;
use setsim::{
    allpairs, bitmap, intersection_size, naive, ppjoin, rs, suffix, verify_pair, FilterConfig,
    SimFunction, Threshold, Tokenizer, WordTokenizer,
};

/// A random sorted token set with ranks drawn from a small universe so that
/// overlaps are common.
fn token_set(max_rank: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..max_rank, 0..=max_len)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

fn record_collection(n: usize) -> impl Strategy<Value = Vec<(u64, Vec<u32>)>> {
    prop::collection::vec(token_set(40, 12), 0..=n).prop_map(|sets| {
        sets.into_iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .collect()
    })
}

/// How [`rank_shapes`] lays a set's ranks out.
#[derive(Debug, Clone, Copy)]
enum RankShape {
    /// As drawn.
    Plain,
    /// `rank · 64 + r`: every rank ≡ r (mod 64), as the ranks one of 64
    /// routing groups receives.
    Residue(u32),
    /// `rank · 2^k`: every rank shares its low `k` bits (all zero).
    Shifted(u32),
}

impl RankShape {
    fn apply(self, set: &[u32]) -> Vec<u32> {
        set.iter()
            .map(|&rank| match self {
                RankShape::Plain => rank,
                RankShape::Residue(r) => rank * 64 + r,
                RankShape::Shifted(k) => rank << k,
            })
            .collect()
    }
}

/// Plain ranks, and the shapes that would crowd a bitmap keyed on a rank's
/// low bits onto a few of its 64 bits.
fn rank_shapes() -> impl Strategy<Value = RankShape> {
    prop_oneof![
        Just(RankShape::Plain),
        (0u32..64).prop_map(RankShape::Residue),
        (1u32..=20).prop_map(RankShape::Shifted),
    ]
}

fn thresholds() -> impl Strategy<Value = Threshold> {
    prop_oneof![
        (1u32..=10).prop_map(|i| Threshold::jaccard(f64::from(i) / 10.0)),
        (5u32..=10).prop_map(|i| Threshold::cosine(f64::from(i) / 10.0)),
        (5u32..=10).prop_map(|i| Threshold::dice(f64::from(i) / 10.0)),
        (1usize..=4).prop_map(Threshold::overlap),
    ]
}

fn pair_ids(pairs: &[(u64, u64, f64)]) -> Vec<(u64, u64)> {
    pairs.iter().map(|(a, b, _)| (*a, *b)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// PPJoin+ (and each weaker filter config) returns exactly the naive result.
    #[test]
    fn ppjoin_equals_naive(records in record_collection(24), t in thresholds()) {
        let expected = pair_ids(&naive::self_join(&records, &t));
        for filters in [FilterConfig::prefix_only(), FilterConfig::ppjoin(), FilterConfig::ppjoin_plus()] {
            let got = pair_ids(&ppjoin::self_join(&records, &t, filters));
            prop_assert_eq!(&got, &expected, "filters={:?} t={:?}", filters, t);
        }
    }

    /// All-Pairs returns exactly the naive result.
    #[test]
    fn allpairs_equals_naive(records in record_collection(24), t in thresholds()) {
        let expected = pair_ids(&naive::self_join(&records, &t));
        let got = pair_ids(&allpairs::self_join(&records, &t));
        prop_assert_eq!(got, expected);
    }

    /// Indexed and nested-loop R-S kernels return exactly the naive result.
    #[test]
    fn rs_kernels_equal_naive(
        r in record_collection(14),
        s in record_collection(14),
        t in thresholds(),
    ) {
        let s: Vec<(u64, Vec<u32>)> = s.into_iter().map(|(i, v)| (1000 + i, v)).collect();
        let expected = pair_ids(&naive::rs_join(&r, &s, &t));
        let block = pair_ids(&rs::block_rs_join(&r, &s, &t));
        prop_assert_eq!(&block, &expected);
        let indexed = pair_ids(&rs::indexed_rs_join(&r, &s, &t, FilterConfig::ppjoin_plus()));
        prop_assert_eq!(&indexed, &expected);
    }

    /// Prefix-filter theorem: any pair at or above the threshold shares at
    /// least one token in their probe prefixes.
    #[test]
    fn prefix_filter_is_complete(x in token_set(40, 14), y in token_set(40, 14), t in thresholds()) {
        if t.matches(&x, &y).is_some() && !x.is_empty() && !y.is_empty() {
            let px = &x[..t.probe_prefix_len(x.len())];
            let py = &y[..t.probe_prefix_len(y.len())];
            prop_assert!(
                intersection_size(px, py) >= 1,
                "similar pair shares no prefix token: {:?} {:?} t={:?}", x, y, t
            );
        }
    }

    /// Index-prefix theorem: for a similar pair with |y| <= |x|, x's probe
    /// prefix intersects y's *index* prefix.
    #[test]
    fn index_prefix_is_complete(x in token_set(40, 14), y in token_set(40, 14), t in thresholds()) {
        let (x, y) = if x.len() >= y.len() { (x, y) } else { (y, x) };
        if t.matches(&x, &y).is_some() && !y.is_empty() {
            let px = &x[..t.probe_prefix_len(x.len())];
            let iy = &y[..t.index_prefix_len(y.len())];
            prop_assert!(intersection_size(px, iy) >= 1);
        }
    }

    /// Length-filter theorem: similar pairs pass the length filter.
    #[test]
    fn length_filter_is_complete(x in token_set(40, 14), y in token_set(40, 14), t in thresholds()) {
        if t.matches(&x, &y).is_some() && !x.is_empty() && !y.is_empty() {
            prop_assert!(t.length_compatible(x.len(), y.len()));
            let (lo, hi) = (x.len().min(y.len()), x.len().max(y.len()));
            prop_assert!(hi >= t.lower_bound(hi).min(hi));
            prop_assert!(lo >= t.lower_bound(hi), "lower bound violated");
            prop_assert!(hi <= t.upper_bound(lo), "upper bound violated");
        }
    }

    /// α theorem: sim >= τ iff overlap >= α.
    #[test]
    fn alpha_is_tight(x in token_set(40, 14), y in token_set(40, 14), t in thresholds()) {
        let alpha = t.overlap_needed(x.len(), y.len());
        let overlap = intersection_size(&x, &y);
        if !x.is_empty() && !y.is_empty() {
            prop_assert_eq!(t.matches(&x, &y).is_some(), overlap >= alpha);
        }
    }

    /// The suffix filter's Hamming bound never exceeds the true distance.
    #[test]
    fn suffix_bound_is_sound(x in token_set(60, 20), y in token_set(60, 20)) {
        let exact = suffix::hamming_exact(&x, &y);
        let lb = suffix::hamming_lower_bound(&x, &y, usize::MAX, 1);
        prop_assert!(lb <= exact, "lb {} > exact {}", lb, exact);
    }

    /// The bitmap filter's bound never falls below the true overlap, on
    /// plain and adversarial ranks alike.
    #[test]
    fn bitmap_bound_is_sound(
        x in token_set(40, 20),
        y in token_set(40, 20),
        shape in rank_shapes(),
    ) {
        let (x, y) = (shape.apply(&x), shape.apply(&y));
        let bound = bitmap::overlap_bound(x.len(), y.len(), bitmap::bitmap(&x), bitmap::bitmap(&y));
        let overlap = intersection_size(&x, &y);
        prop_assert!(bound >= overlap, "bound {} < overlap {}: {:?} {:?}", bound, overlap, x, y);
    }

    /// On the same rank shapes the kernels the bitmap filter runs in still
    /// return exactly the naive result, under every measure.
    #[test]
    fn bitmap_filtered_kernels_equal_naive(
        records in record_collection(24),
        s in record_collection(14),
        shape in rank_shapes(),
        t in thresholds(),
    ) {
        let records: Vec<(u64, Vec<u32>)> =
            records.into_iter().map(|(i, v)| (i, shape.apply(&v))).collect();
        let expected = pair_ids(&naive::self_join(&records, &t));
        for filters in [FilterConfig::prefix_only(), FilterConfig::ppjoin(), FilterConfig::ppjoin_plus()] {
            let got = pair_ids(&ppjoin::self_join(&records, &t, filters));
            prop_assert_eq!(&got, &expected, "self-join {:?} {:?} {:?}", shape, filters, t);
        }
        let s: Vec<(u64, Vec<u32>)> =
            s.into_iter().map(|(i, v)| (1000 + i, shape.apply(&v))).collect();
        let expected = pair_ids(&naive::rs_join(&records, &s, &t));
        let got = pair_ids(&rs::indexed_rs_join(&records, &s, &t, FilterConfig::ppjoin_plus()));
        prop_assert_eq!(&got, &expected, "R-S {:?} {:?}", shape, t);
    }

    /// `verify_pair` agrees with the exact predicate.
    #[test]
    fn verify_agrees_with_matches(x in token_set(40, 14), y in token_set(40, 14), t in thresholds()) {
        let direct = t.matches(&x, &y);
        let verified = verify_pair(&t, &x, &y);
        prop_assert_eq!(direct.is_some(), verified.is_some());
        if let (Some(a), Some(b)) = (direct, verified) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Similarity functions are symmetric and bounded.
    #[test]
    fn similarity_is_symmetric(x in token_set(40, 14), y in token_set(40, 14)) {
        for t in [Threshold::jaccard(0.5), Threshold::cosine(0.5), Threshold::dice(0.5)] {
            let a = t.similarity(&x, &y);
            let b = t.similarity(&y, &x);
            prop_assert!((a - b).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&a));
        }
        if !x.is_empty() {
            let t = Threshold::jaccard(0.5);
            prop_assert!((t.similarity(&x, &x) - 1.0).abs() < 1e-12);
        }
    }

    /// Word tokenization produces distinct tokens, and projection through a
    /// corpus order produces strictly increasing ranks.
    #[test]
    fn tokenize_project_invariants(texts in prop::collection::vec("[ -~]{0,40}", 1..8)) {
        let tok = WordTokenizer::new();
        let lists: Vec<Vec<String>> = texts.iter().map(|s| tok.tokenize(s)).collect();
        for list in &lists {
            let mut sorted = list.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), list.len(), "duplicate tokens");
        }
        let order = setsim::TokenOrder::from_corpus(&lists);
        for list in &lists {
            let ranks = order.project(list);
            prop_assert!(ranks.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(ranks.len(), list.len(), "all corpus tokens must be known");
        }
    }

    /// Overlap threshold uses raw counts.
    #[test]
    fn overlap_function_counts(x in token_set(40, 14), y in token_set(40, 14)) {
        let t = Threshold::new(SimFunction::Overlap, 2.0).unwrap();
        prop_assert_eq!(t.similarity(&x, &y) as usize, intersection_size(&x, &y));
    }
}

// ---------------------------------------------------------------------------
// The PPJoin(+) index against the oracle on a fixed grid
// ---------------------------------------------------------------------------

mod index_grid {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use setsim::{naive, ppjoin, rs, FilterConfig, Match, PpjoinIndex, Record, Threshold};

    const FILTERS: [fn() -> FilterConfig; 3] = [
        FilterConfig::prefix_only,
        FilterConfig::ppjoin,
        FilterConfig::ppjoin_plus,
    ];

    /// Every measure at τ ∈ {0.5, 0.6, 0.8, 0.9, 1.0}; the overlap measure
    /// takes a token count instead.
    fn thresholds() -> Vec<Threshold> {
        let mut out = Vec::new();
        for tau in [0.5, 0.6, 0.8, 0.9, 1.0] {
            out.push(Threshold::jaccard(tau));
            out.push(Threshold::cosine(tau));
            out.push(Threshold::dice(tau));
        }
        out.extend([1, 2, 4, 8].map(Threshold::overlap));
        out
    }

    /// `n` random sets of `lens` tokens each over `0..universe`, RIDs from
    /// `first_rid`. A third of them are near-copies of an earlier set, so
    /// that high thresholds have pairs to find.
    fn corpus(
        rng: &mut StdRng,
        n: usize,
        lens: std::ops::RangeInclusive<usize>,
        universe: u32,
        first_rid: u64,
    ) -> Vec<Record> {
        let mut out: Vec<Record> = Vec::with_capacity(n);
        for i in 0..n {
            let mut set = std::collections::BTreeSet::new();
            if i > 0 && rng.random_bool(0.33) {
                set.extend(out[rng.random_range(0..i)].1.iter().copied());
                for _ in 0..rng.random_range(0..=2usize) {
                    let victim = *set.iter().nth(rng.random_range(0..set.len())).unwrap();
                    set.remove(&victim);
                    set.insert(rng.random_range(0..universe));
                }
            } else {
                let len = rng.random_range(lens.clone());
                while set.len() < len {
                    set.insert(rng.random_range(0..universe));
                }
            }
            out.push((first_rid + i as u64, set.into_iter().collect()));
        }
        out
    }

    fn ids(pairs: &[(u64, u64, f64)]) -> Vec<(u64, u64)> {
        pairs.iter().map(|(a, b, _)| (*a, *b)).collect()
    }

    fn assert_same(got: &[(u64, u64, f64)], expected: &[(u64, u64, f64)], what: &str) {
        assert_eq!(ids(got), ids(expected), "{what}");
        for (g, e) in got.iter().zip(expected) {
            assert!((g.2 - e.2).abs() < 1e-12, "{what}: similarity of {g:?}");
        }
    }

    #[test]
    fn self_join_equals_naive_on_the_grid() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(0x5e1f + seed);
            // Short sets, and sets long enough for the suffix filter to run.
            let mut records = corpus(&mut rng, 40, 1..=12, 40, 0);
            records.extend(corpus(&mut rng, 20, 64..=110, 400, 1000));
            for t in thresholds() {
                let expected = naive::self_join(&records, &t);
                for filters in FILTERS {
                    let got = ppjoin::self_join(&records, &t, filters());
                    assert_same(
                        &got,
                        &expected,
                        &format!("seed={seed} {t:?} {:?}", filters()),
                    );
                }
            }
        }
    }

    #[test]
    fn rs_join_equals_naive_with_shorter_and_longer_probes() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(0x25 + seed);
            let short = corpus(&mut rng, 30, 1..=8, 30, 0);
            let long = corpus(&mut rng, 30, 6..=20, 30, 1000);
            let mixed = corpus(&mut rng, 30, 1..=20, 30, 2000);
            // Probes (S) shorter than the indexed side (R), longer, and both.
            for (r, s) in [
                (&long, &short),
                (&short, &long),
                (&mixed, &long),
                (&long, &mixed),
            ] {
                for t in thresholds() {
                    let expected = naive::rs_join(r, s, &t);
                    for filters in FILTERS {
                        let got = rs::indexed_rs_join(r, s, &t, filters());
                        assert_same(
                            &got,
                            &expected,
                            &format!("seed={seed} {t:?} {:?}", filters()),
                        );
                    }
                }
            }
        }
    }

    /// Probe-then-insert `records` in length order, keeping every probe's
    /// matches.
    fn stream(index: &mut PpjoinIndex, records: &[Record]) -> Vec<Vec<Match>> {
        let mut sorted: Vec<&Record> = records.iter().collect();
        sorted.sort_by_key(|(rid, tokens)| (tokens.len(), *rid));
        sorted
            .into_iter()
            .map(|(rid, tokens)| {
                let matches = index.probe(tokens);
                index.insert(*rid, tokens);
                matches
            })
            .collect()
    }

    #[test]
    fn a_reset_index_behaves_like_a_new_one() {
        let mut rng = StdRng::seed_from_u64(0x7e5e7);
        let first = corpus(&mut rng, 60, 1..=30, 50, 0);
        let second = corpus(&mut rng, 60, 1..=12, 40, 500);
        for t in [
            Threshold::jaccard(0.5),
            Threshold::cosine(0.8),
            Threshold::overlap(2),
        ] {
            for filters in FILTERS {
                let mut reused = PpjoinIndex::new(t, filters());
                stream(&mut reused, &first);
                assert!(reused.candidates_examined() > 0);
                reused.reset();
                assert_eq!(reused.live_records(), 0);
                let mut fresh = PpjoinIndex::new(t, filters());
                assert_eq!(reused.approx_bytes(), fresh.approx_bytes());
                assert_eq!(stream(&mut reused, &second), stream(&mut fresh, &second));
                assert_eq!(reused.candidates_examined(), fresh.candidates_examined());
                assert_eq!(reused.funnel(), fresh.funnel());
                assert_eq!(reused.approx_bytes(), fresh.approx_bytes());
            }
        }
    }

    #[test]
    fn matches_come_in_insertion_order() {
        let mut rng = StdRng::seed_from_u64(0x04de4);
        let records = corpus(&mut rng, 80, 4..=10, 24, 0);
        let t = Threshold::jaccard(0.5);
        let mut index = PpjoinIndex::new(t, FilterConfig::ppjoin_plus());
        let mut sorted: Vec<&Record> = records.iter().collect();
        // RIDs descend along the stream, so insertion order is not RID order.
        sorted.sort_by_key(|(rid, tokens)| (tokens.len(), std::cmp::Reverse(*rid)));
        let mut inserted: Vec<u64> = Vec::new();
        let mut multi = 0;
        for (rid, tokens) in sorted {
            let matches = index.probe(tokens);
            let position = |m: &Match| inserted.iter().position(|r| *r == m.rid).unwrap();
            assert!(matches
                .windows(2)
                .all(|w| position(&w[0]) < position(&w[1])));
            multi += usize::from(matches.len() > 1);
            index.insert(*rid, tokens);
            inserted.push(*rid);
        }
        assert!(multi > 0, "some probe must return several matches");
    }

    fn funnel_of(records: &[Record], t: &Threshold, filters: FilterConfig) -> setsim::Funnel {
        let mut index = PpjoinIndex::new(*t, filters);
        stream(&mut index, records);
        index.funnel()
    }

    #[test]
    fn suffix_filter_runs_on_long_records_only() {
        let mut rng = StdRng::seed_from_u64(0x50ff1);
        let t = Threshold::jaccard(0.6);

        let long = corpus(&mut rng, 120, 100..=160, 260, 0);
        assert!(long.iter().all(|(_, tokens)| tokens.len() >= 64));
        let with = funnel_of(&long, &t, FilterConfig::ppjoin_plus());
        let without = funnel_of(&long, &t, FilterConfig::ppjoin());
        assert!(with.suffix_calls > 0, "the suffix filter must still fire");
        assert!(with.suffix < with.positional, "and prune: {with:?}");
        assert_eq!(without.suffix_calls, 0);
        assert_eq!(without.suffix, without.positional);
        assert_eq!(with.verified, without.verified);
        assert_same(
            &ppjoin::self_join(&long, &t, FilterConfig::ppjoin_plus()),
            &naive::self_join(&long, &t),
            "long records",
        );

        // Short records skip it: switching it on changes nothing at all.
        let short = corpus(&mut rng, 200, 6..=12, 40, 0);
        let with = funnel_of(&short, &t, FilterConfig::ppjoin_plus());
        assert!(
            with.candidates > with.verified,
            "there was something to prune"
        );
        assert_eq!(with.suffix_calls, 0);
        assert_eq!(with, funnel_of(&short, &t, FilterConfig::ppjoin()));
        let mut on = PpjoinIndex::new(t, FilterConfig::ppjoin_plus());
        let mut off = PpjoinIndex::new(t, FilterConfig::ppjoin());
        assert_eq!(stream(&mut on, &short), stream(&mut off, &short));
    }

    #[test]
    fn funnel_narrows_step_by_step() {
        let mut rng = StdRng::seed_from_u64(0xf0e1);
        let mut records = corpus(&mut rng, 150, 4..=14, 40, 0);
        records.extend(corpus(&mut rng, 60, 100..=140, 240, 1000));
        for t in [
            Threshold::jaccard(0.5),
            Threshold::jaccard(0.8),
            Threshold::dice(0.7),
        ] {
            for filters in FILTERS {
                let f = funnel_of(&records, &t, filters());
                let chain = [
                    f.postings,
                    f.candidates,
                    f.bitmap,
                    f.positional,
                    f.suffix,
                    f.verified,
                ];
                assert!(chain.windows(2).all(|w| w[0] >= w[1]), "{f:?}");
                assert!(f.suffix_calls <= f.positional, "{f:?}");
                assert!(f.verified > 0 && f.postings > f.verified, "{f:?}");
                let pairs = ppjoin::self_join(&records, &t, filters());
                assert_eq!(f.verified, pairs.len() as u64, "every match is one pair");
            }
        }
    }

    /// Ownership splits a join between indexes without coordination: `k`
    /// indexes over the same stream, the `i`-th owning the pairs first
    /// touched at a token `≡ i (mod k)`, find every pair exactly once
    /// between them — whichever record of a tie is streamed first — because
    /// for a pair that joins the first touch is at the smallest token the
    /// two records share. Each index counts what it left to the others.
    #[test]
    fn owned_probes_partition_the_matches() {
        let mut rng = StdRng::seed_from_u64(0x0b5e55);
        let mut records = corpus(&mut rng, 150, 4..=14, 40, 0);
        records.extend(corpus(&mut rng, 40, 64..=100, 200, 1000));
        // Ties in length streamed in the opposite RID order.
        let mut reversed: Vec<&Record> = records.iter().collect();
        reversed.sort_by_key(|(rid, tokens)| (tokens.len(), std::cmp::Reverse(*rid)));
        for t in [
            Threshold::jaccard(0.5),
            Threshold::cosine(0.8),
            Threshold::overlap(3),
        ] {
            for filters in FILTERS {
                let expected = ppjoin::self_join(&records, &t, filters());
                assert!(!expected.is_empty());
                let whole = funnel_of(&records, &t, filters());
                assert_eq!(whole.unowned, 0, "`probe` owns everything");
                for k in [2u32, 3, 7] {
                    let mut got = Vec::new();
                    let mut candidates = 0;
                    for owner in 0..k {
                        let order: Vec<&Record> = if owner % 2 == 0 {
                            let mut sorted: Vec<&Record> = records.iter().collect();
                            sorted.sort_by_key(|(rid, tokens)| (tokens.len(), *rid));
                            sorted
                        } else {
                            reversed.clone()
                        };
                        let mut index = PpjoinIndex::new(t, filters());
                        for (rid, tokens) in order {
                            for m in index.probe_owned(tokens, |tok, _| tok % k == owner) {
                                got.push((m.rid.min(*rid), m.rid.max(*rid), m.sim));
                            }
                            index.insert(*rid, tokens);
                        }
                        let f = index.funnel();
                        assert!(f.postings >= f.candidates + f.unowned, "{f:?}");
                        if owner % 2 == 0 {
                            assert_eq!(f.postings, whole.postings, "same stream, same scan");
                        }
                        assert!(f.unowned > 0 && f.candidates < whole.candidates, "{f:?}");
                        candidates += f.candidates;
                    }
                    got.sort_by_key(|p| (p.0, p.1));
                    assert_same(&got, &expected, &format!("{k} owners at {t:?}"));
                    assert!(candidates >= expected.len() as u64);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The token buffer against the tokenizers it replaced
// ---------------------------------------------------------------------------

mod token_buffer {
    use proptest::prelude::*;
    use setsim::{DedupMode, QGramTokenizer, TokenBuf, TokenOrder, Tokenizer, WordTokenizer};

    /// The tokenizers as they were before the token buffer — split, a
    /// lower-cased `String` per token, duplicates dropped through a map —
    /// kept here as the oracle.
    mod oracle {
        use setsim::DedupMode;
        use std::collections::HashMap;

        fn dedup_tokens(raw: impl Iterator<Item = String>, mode: DedupMode) -> Vec<String> {
            let mut seen: HashMap<String, u32> = HashMap::new();
            let mut out = Vec::new();
            for tok in raw {
                let count = seen.entry(tok.clone()).or_insert(0);
                *count += 1;
                match (mode, *count) {
                    (_, 1) => out.push(tok),
                    (DedupMode::Collapse, _) => {}
                    (DedupMode::Number, n) => out.push(format!("{tok}#{n}")),
                }
            }
            out
        }

        pub fn words(text: &str, mode: DedupMode) -> Vec<String> {
            let raw = text
                .split(|c: char| !c.is_alphanumeric())
                .filter(|w| !w.is_empty())
                .map(str::to_lowercase);
            dedup_tokens(raw, mode)
        }

        pub fn qgrams(text: &str, q: usize, mode: DedupMode) -> Vec<String> {
            let mut cleaned = String::with_capacity(text.len() + 2 * (q - 1));
            for _ in 0..q - 1 {
                cleaned.push('#');
            }
            let mut last_sep = false;
            let mut has_content = false;
            for c in text.chars() {
                if c.is_alphanumeric() {
                    cleaned.extend(c.to_lowercase());
                    last_sep = false;
                    has_content = true;
                } else if !last_sep && !cleaned.is_empty() {
                    cleaned.push(' ');
                    last_sep = true;
                }
            }
            if !has_content {
                return Vec::new();
            }
            while cleaned.ends_with(' ') {
                cleaned.pop();
            }
            for _ in 0..q - 1 {
                cleaned.push('#');
            }
            let chars: Vec<char> = cleaned.chars().collect();
            if chars.len() < q {
                return Vec::new();
            }
            let raw = chars.windows(q).map(|w| w.iter().collect::<String>());
            dedup_tokens(raw, mode)
        }

        /// The global order of a corpus as `TokenOrder::from_corpus` built
        /// it before the token table: counted in a map, sorted by count,
        /// then token.
        pub fn corpus_order(corpus: &[Vec<String>]) -> Vec<String> {
            let mut freq: HashMap<&str, u64> = HashMap::new();
            for rec in corpus {
                for tok in rec {
                    *freq.entry(tok.as_str()).or_insert(0) += 1;
                }
            }
            let mut pairs: Vec<(&str, u64)> = freq.into_iter().collect();
            pairs.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
            pairs.into_iter().map(|(t, _)| t.to_string()).collect()
        }

        /// `TokenOrder`'s rank map before the token table.
        pub fn rank_of(ordered: &[String]) -> HashMap<String, u32> {
            (ordered.iter().cloned()).zip(0..).collect()
        }

        /// `TokenOrder::project_into` before the token table.
        pub fn project(rank_of: &HashMap<String, u32>, tokens: &[String]) -> Vec<u32> {
            let mut ranks: Vec<u32> = tokens
                .iter()
                .filter_map(|t| rank_of.get(t.as_str()).copied())
                .collect();
            ranks.sort_unstable();
            ranks.dedup();
            ranks
        }
    }

    const MODES: [DedupMode; 2] = [DedupMode::Collapse, DedupMode::Number];

    /// Tokenize every text in turn into ONE buffer per tokenizer and
    /// compare with the oracle, so a token left over from the previous
    /// text would show; the `Vec<String>` collector must agree too.
    fn check(texts: &[String]) -> Result<(), TestCaseError> {
        for mode in MODES {
            let word = WordTokenizer { dedup: mode };
            let mut buf = TokenBuf::new();
            for text in texts {
                let expected = oracle::words(text, mode);
                word.tokenize_into(text, &mut buf);
                prop_assert_eq!(buf.len(), expected.len());
                prop_assert_eq!(buf.is_empty(), expected.is_empty());
                prop_assert_eq!(
                    buf.iter().collect::<Vec<_>>(),
                    expected.clone(),
                    "word {:?} {:?}",
                    mode,
                    text
                );
                prop_assert_eq!(
                    word.tokenize(text),
                    expected,
                    "word collector {:?} {:?}",
                    mode,
                    text
                );
            }
            for q in 1..=4 {
                let gram = QGramTokenizer { q, dedup: mode };
                // The word tokenizer's buffer, not a new one: a mapper
                // never mixes tokenizers, but nothing may depend on that.
                for text in texts {
                    let expected = oracle::qgrams(text, q, mode);
                    gram.tokenize_into(text, &mut buf);
                    prop_assert_eq!(
                        buf.iter().collect::<Vec<_>>(),
                        expected.clone(),
                        "q={} {:?} {:?}",
                        q,
                        mode,
                        text
                    );
                    prop_assert_eq!(
                        gram.tokenize(text),
                        expected,
                        "q={} collector {:?} {:?}",
                        q,
                        mode,
                        text
                    );
                }
            }
        }
        Ok(())
    }

    /// Every projection of every text — from a [`TokenBuf`] by its hashes,
    /// from borrowed tokens, from owned ones — equals the map projection
    /// it replaced, through a dictionary that lacks some of the corpus's
    /// tokens; and the corpus order equals the map-counted one. One buffer
    /// and one rank vector serve every tokenizer, mode and text.
    fn check_projection(texts: &[String]) -> Result<(), TestCaseError> {
        let mut buf = TokenBuf::new();
        let mut ranks = Vec::new();
        for mode in MODES {
            for q in [None, Some(2), Some(3)] {
                let tokenizer: Box<dyn Tokenizer> = match q {
                    None => Box::new(WordTokenizer { dedup: mode }),
                    Some(q) => Box::new(QGramTokenizer { q, dedup: mode }),
                };
                let tokens_of = |text: &str| match q {
                    None => oracle::words(text, mode),
                    Some(q) => oracle::qgrams(text, q, mode),
                };
                let lists: Vec<Vec<String>> = texts.iter().map(|t| tokens_of(t)).collect();
                let corpus = oracle::corpus_order(&lists);
                let from_corpus = TokenOrder::from_corpus(&lists);
                prop_assert_eq!(from_corpus.tokens().collect::<Vec<_>>(), corpus.clone());
                let known: Vec<String> = (corpus.iter().enumerate())
                    .filter(|(i, _)| i % 3 != 1)
                    .map(|(_, t)| t.clone())
                    .collect();
                let order = TokenOrder::from_ordered_tokens(&known).unwrap();
                let rank_of = oracle::rank_of(&known);
                for (text, list) in texts.iter().zip(&lists) {
                    let expected = oracle::project(&rank_of, list);
                    tokenizer.tokenize_into(text, &mut buf);
                    order.project_buf(&buf, &mut ranks);
                    prop_assert_eq!(&ranks, &expected, "project_buf {:?} {:?}", mode, text);
                    order.project_into(buf.iter(), &mut ranks);
                    prop_assert_eq!(&ranks, &expected, "project_into {:?} {:?}", mode, text);
                    prop_assert_eq!(
                        order.project(list),
                        expected,
                        "project {:?} {:?}",
                        mode,
                        text
                    );
                }
            }
        }
        Ok(())
    }

    /// Lower-casing that is context-sensitive (`Σ` at the end of a word),
    /// changes a character's length (`İ`) or its count, title case, words
    /// mixing ASCII with other scripts, more distinct tokens than the
    /// duplicate table starts with, and nothing at all.
    #[test]
    fn named_cases_match_the_oracle() {
        let many: String = (0..1000)
            .map(|i| format!("Tok{} tok{} ", i % 300, i % 7))
            .collect();
        let texts = [
            "ΟΔΟΣ",
            "İstanbul",
            "ǅ",
            "ΟΔΟΣ οδος Οδός ΟΔΟΣ. ΑΣ Σ ΣΑ aΣ Σa",
            "İstanbul istanbul i̇stanbul ISTANBUL IİI",
            "ǅ ǆ Ǆ ǅx xǅ",
            "abcΣ Σabc abΣc ABC abc AbC straße STRASSE ﬁn FIN",
            "x²y ½ ٣ three३",
            "The the THE tHe#2 the#2 the",
            "a-b_c.d,e;f a b c d e f",
            "",
            "...!!!",
            " \t - ",
            many.as_str(),
        ]
        .map(str::to_string);
        check(&texts).unwrap();
        // And in the other order, so each text follows a different one.
        let mut reversed = texts.to_vec();
        reversed.reverse();
        check(&reversed).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Short texts over an alphabet where separators, case pairs,
        /// digits and the awkward Unicode letters are all common.
        #[test]
        fn short_texts_match_the_oracle(
            texts in prop::collection::vec("[abABzZ019 ,.#ΣσςΟοİIıiǅǆßé中²\u{345}-]{0,24}", 1..6),
        ) {
            check(&texts)?;
        }

        /// Short texts over the same alphabet, projected every way.
        #[test]
        fn projections_match_the_map_projection(
            texts in prop::collection::vec("[abABzZ019 ,.#ΣσςΟοİIıiǅǆßé中²\u{345}-]{0,24}", 1..8),
        ) {
            check_projection(&texts)?;
        }

        /// Long records: up to 200 words from a vocabulary of 90 in mixed
        /// case, so duplicates are found by the table and the table grows.
        #[test]
        fn long_records_match_the_oracle(
            records in prop::collection::vec(prop::collection::vec(0usize..90, 0..200), 1..4),
        ) {
            let texts: Vec<String> = records
                .iter()
                .map(|words| {
                    words
                        .iter()
                        .map(|w| match w % 3 {
                            0 => format!("word{w}, "),
                            1 => format!("WORD{w} "),
                            _ => format!("wörd{w}-"),
                        })
                        .collect()
                })
                .collect();
            check(&texts)?;
        }
    }
}
