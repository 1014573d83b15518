//! The single-thread baseline: the same join with `setsim` alone, no
//! MapReduce. It gives the reference every sample's output is checked
//! against, the `setsim` layer's numbers, and the denominator of the COST
//! ratio.

use std::time::Instant;

use fuzzyjoin::{FilterConfig, RecordFormat, TokenizerKind};
use setsim::{PpjoinIndex, Record, Threshold, TokenOrder};

use crate::corpus::Corpus;

/// Digest of a join result: FNV-1a over the RID pairs in order with their
/// similarity rounded to 1e-9.
pub fn digest_pairs(sorted: &[(u64, u64, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (a, b, sim) in sorted {
        eat(*a);
        eat(*b);
        eat((sim * 1e9).round() as u64);
    }
    h
}

/// What the single-thread run produced.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Digest of the expected pairs.
    pub digest: u64,
    /// Number of expected pairs.
    pub pairs: u64,
    /// Seconds parsing and tokenising every record.
    pub tokenize_s: f64,
    /// Seconds building the token order and projecting every record.
    pub project_s: f64,
    /// Seconds in the PPJoin+ kernel.
    pub ppjoin_s: f64,
    /// Candidates the kernel examined.
    pub candidates: u64,
    /// Projected R records.
    pub r: Vec<Record>,
    /// Projected S records of an R-S join.
    pub s: Option<Vec<Record>>,
    /// `(token, 1)` pairs of the first records, as stage 1's mapper emits
    /// them: the input of the sort-and-combine rung.
    pub token_counts: Vec<(String, u64)>,
}

impl Reference {
    /// Seconds of the whole single-thread join.
    pub fn total_s(&self) -> f64 {
        self.tokenize_s + self.project_s + self.ppjoin_s
    }
}

/// Records whose tokens feed the sort-and-combine rung.
const TOKEN_COUNT_RECORDS: usize = 50_000;

fn tokenize(lines: &[String]) -> Vec<(u64, Vec<String>)> {
    let format = RecordFormat::bibliographic();
    let tokenizer = TokenizerKind::Word.build();
    lines
        .iter()
        .map(|line| {
            let (rid, attr) = format.parse(line).expect("generated lines parse");
            (rid, tokenizer.tokenize(&attr))
        })
        .collect()
}

fn project(order: &TokenOrder, lists: &[(u64, Vec<String>)]) -> Vec<Record> {
    lists
        .iter()
        .map(|(rid, tokens)| (*rid, order.project(tokens)))
        .collect()
}

fn by_length(records: &[Record]) -> Vec<&Record> {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(&b.0)));
    sorted
}

/// `setsim::ppjoin::self_join`, keeping the index so that its candidate
/// count can be read.
fn self_join(records: &[Record], t: &Threshold) -> (Vec<(u64, u64, f64)>, u64) {
    let mut index = PpjoinIndex::new(*t, FilterConfig::ppjoin_plus());
    let mut out = Vec::new();
    for (rid, tokens) in by_length(records) {
        for m in index.probe(tokens) {
            out.push((m.rid.min(*rid), m.rid.max(*rid), m.sim));
        }
        index.insert(*rid, tokens.clone());
    }
    (out, index.candidates_examined())
}

/// `setsim::rs::indexed_rs_join`, keeping the index likewise.
fn rs_join(r: &[Record], s: &[Record], t: &Threshold) -> (Vec<(u64, u64, f64)>, u64) {
    let r_sorted = by_length(r);
    let mut index = PpjoinIndex::for_rs(*t, FilterConfig::ppjoin_plus());
    let mut next_r = 0usize;
    let mut out = Vec::new();
    for (sid, y) in by_length(s) {
        let max_r_len = t.upper_bound(y.len());
        while next_r < r_sorted.len() && r_sorted[next_r].1.len() <= max_r_len {
            let (rid, x) = r_sorted[next_r];
            index.insert(*rid, x.clone());
            next_r += 1;
        }
        for m in index.probe(y) {
            out.push((m.rid, *sid, m.sim));
        }
    }
    (out, index.candidates_examined())
}

/// Join `corpus` at Jaccard `tau` on one thread.
pub fn compute(corpus: &Corpus, tau: f64) -> Reference {
    let t = Threshold::jaccard(tau);

    let start = Instant::now();
    let r_lists = tokenize(&corpus.r);
    let s_lists = corpus.s.as_deref().map(tokenize);
    let tokenize_s = start.elapsed().as_secs_f64();

    let token_counts = r_lists
        .iter()
        .take(TOKEN_COUNT_RECORDS)
        .flat_map(|(_, tokens)| tokens.iter().map(|tok| (tok.clone(), 1u64)))
        .collect();

    // The order comes from R alone, as stage 1 computes it; S tokens
    // outside it are dropped by `project`.
    let start = Instant::now();
    let order = TokenOrder::from_corpus(r_lists.iter().map(|(_, tokens)| tokens));
    let r = project(&order, &r_lists);
    let s = s_lists.as_deref().map(|lists| project(&order, lists));
    let project_s = start.elapsed().as_secs_f64();
    drop((r_lists, s_lists));

    let start = Instant::now();
    let (mut pairs, candidates) = match &s {
        None => self_join(&r, &t),
        Some(s) => rs_join(&r, s, &t),
    };
    pairs.sort_by(|p, q| p.0.cmp(&q.0).then(p.1.cmp(&q.1)));
    pairs.dedup_by(|p, q| p.0 == q.0 && p.1 == q.1);
    let ppjoin_s = start.elapsed().as_secs_f64();

    Reference {
        digest: digest_pairs(&pairs),
        pairs: pairs.len() as u64,
        tokenize_s,
        project_s,
        ppjoin_s,
        candidates,
        r,
        s,
        token_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CorpusKind, CorpusSpec};

    #[test]
    fn matches_the_library_kernels() {
        let t = Threshold::jaccard(0.6);
        let self_corpus = crate::corpus::generate(
            CorpusSpec {
                kind: CorpusKind::Dblp,
                base: 300,
                factor: 2,
            },
            5,
        );
        let reference = compute(&self_corpus, 0.6);
        let expected = setsim::ppjoin::self_join(&reference.r, &t, FilterConfig::ppjoin_plus());
        assert!(reference.pairs > 0);
        assert_eq!(reference.digest, digest_pairs(&expected));

        let rs_corpus = crate::corpus::generate(
            CorpusSpec {
                kind: CorpusKind::CiteRs,
                base: 200,
                factor: 2,
            },
            5,
        );
        let reference = compute(&rs_corpus, 0.6);
        let expected = setsim::rs::indexed_rs_join(
            &reference.r,
            reference.s.as_ref().unwrap(),
            &t,
            FilterConfig::ppjoin_plus(),
        );
        assert!(reference.pairs > 0, "shared publications must match");
        assert_eq!(reference.digest, digest_pairs(&expected));
    }

    #[test]
    fn digest_depends_on_pairs_and_similarity() {
        let a = digest_pairs(&[(1, 2, 0.8)]);
        assert_ne!(a, digest_pairs(&[(1, 3, 0.8)]));
        assert_ne!(a, digest_pairs(&[(1, 2, 0.9)]));
        assert_eq!(a, digest_pairs(&[(1, 2, 0.8 + 1e-12)]));
    }
}
