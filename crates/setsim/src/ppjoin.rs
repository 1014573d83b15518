//! The PPJoin / PPJoin+ indexed kernel.
//!
//! This is the "PK" kernel of the paper: an inverted index over *prefix
//! tokens* combined with the length, bitmap, positional, and (optionally)
//! suffix filters. The streaming interface matches how the paper's stage-2
//! reducers consume it:
//!
//! * records arrive in **non-decreasing set-size order** (the composite
//!   `(group, length)` key sort guarantees this inside each reduce group);
//! * each record first **probes** the index for joining partners, then is
//!   **inserted**;
//! * as probe lengths grow, indexed records whose size falls below the
//!   length-filter lower bound are **evicted**, which is the memory
//!   optimization the paper highlights ("the index knows the lower bound on
//!   the length of the unseen data elements ... and discards the data
//!   elements below the minimum length").
//!
//! The index exposes its approximate footprint so MapReduce reducers can
//! charge their [`memory gauge`](mapreduce::MemoryGauge)-equivalent budgets.
//!
//! A probe scans hundreds of postings per pair it finds, so the work per
//! posting is what the layout serves: one slot per stored record holds both
//! the record's header and its cell of the candidate accumulator, validated
//! by an epoch stamp instead of being cleared; the length filter and α come
//! from a table by partner length; the bitmap filter drops, at first touch,
//! a candidate whose token bitmap rules out α ([`crate::bitmap`]), so it is
//! never accumulated; tokens sit in one arena. A probe looks up a hash map
//! once per prefix token, never per posting, and allocates only the matches
//! it returns. DESIGN.md §17 has the measurements behind this.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;

use crate::bitmap::{bitmap, overlap_bound};
use crate::measure::Threshold;
use crate::naive::Record;
use crate::suffix::{suffix_pays_off, suffix_survives};
use crate::verify::overlap_at_least;

/// Which optional filters the kernel applies (prefix, length and bitmap are
/// always on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Positional filter (PPJoin).
    pub positional: bool,
    /// Suffix filter (PPJoin+).
    pub suffix: bool,
}

impl FilterConfig {
    /// PPJoin+: positional and suffix filters on — the paper's PK kernel.
    pub fn ppjoin_plus() -> Self {
        FilterConfig {
            positional: true,
            suffix: true,
        }
    }

    /// PPJoin: positional filter only.
    pub fn ppjoin() -> Self {
        FilterConfig {
            positional: true,
            suffix: false,
        }
    }

    /// Prefix + length filters only (All-Pairs-style candidate generation).
    pub fn prefix_only() -> Self {
        FilterConfig {
            positional: false,
            suffix: false,
        }
    }
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self::ppjoin_plus()
    }
}

#[derive(Debug, Clone, Copy)]
struct Posting {
    /// Insertion number of the record (monotone over the index's life).
    rec: u32,
    pos: u32,
}

#[derive(Debug, Clone, Default)]
struct PostingList {
    /// Postings before `start` belong to evicted records.
    start: usize,
    posts: Vec<Posting>,
}

impl PostingList {
    /// Step over the postings of evicted records. Insertion numbers grow
    /// along a list, so the dead ones form a prefix; once that prefix is
    /// longer than the live rest it is dropped, which keeps the copying
    /// amortised O(1) per posting and never allocates.
    fn skip_dead(&mut self, live_from: u32) {
        while self.start < self.posts.len() && self.posts[self.start].rec < live_from {
            self.start += 1;
        }
        if self.start * 2 > self.posts.len() {
            self.posts.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Hasher for the token → posting-list map. Keys are token ranks the
/// program assigned itself (dense `u32`s from [`crate::TokenOrder`]), not
/// strings from outside, so one multiply replaces SipHash; the fold brings
/// the well-mixed high half into the bucket bits, because ranks routed to
/// one reduce group can share their low bits (`rank % groups`).
#[derive(Debug, Clone, Copy, Default)]
struct RankHasher(u64);

impl Hasher for RankHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("token ranks hash through write_u32");
    }

    fn write_u32(&mut self, rank: u32) {
        let h = u64::from(rank).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Marks a slot whose candidate the ownership test, the bitmap filter or the
/// positional filter has pruned.
const PRUNED: u32 = u32::MAX;

/// One stored record: where its tokens sit in the arena, plus its cell of
/// the candidate accumulator. The accumulator fields hold this probe's
/// state only while `epoch` equals the index's current epoch.
#[derive(Debug, Clone)]
struct Slot {
    rid: u64,
    /// Offset of the record's tokens in the arena.
    off: u32,
    len: u32,
    /// The record's token bitmap ([`crate::bitmap::bitmap`]).
    bits: u64,
    epoch: u32,
    /// Prefix tokens shared with the probe so far, or [`PRUNED`].
    overlap: u32,
    /// Position after the last matched token in the probe (x) and in this
    /// record (y), for suffix filtering and verification resume.
    last_x: u32,
    last_y: u32,
}

/// The bounds of one (probe length, partner length) pair. `alpha == 0`
/// means the pair fails the length filter (α itself is at least 1).
#[derive(Debug, Clone, Copy, Default)]
struct LenBound {
    /// Probe length this entry was computed for; 0 = never (a probe of
    /// length 0 has an empty prefix and looks nothing up).
    lx: u32,
    alpha: u32,
}

/// α(lx, ly) through the per-length table, computing it on first use. The
/// table depends only on the threshold, so it stays valid across probes of
/// one length and across [`PpjoinIndex::reset`].
#[inline]
fn alpha_for(bounds: &mut [LenBound], t: &Threshold, lx: u32, ly: u32) -> u32 {
    let entry = &mut bounds[ly as usize];
    if entry.lx != lx {
        let (x, y) = (lx as usize, ly as usize);
        let alpha = if t.length_compatible(x, y) {
            t.overlap_needed(x, y) as u32
        } else {
            0
        };
        *entry = LenBound { lx, alpha };
    }
    entry.alpha
}

/// Work done by the kernel's filter stack, summed over all probes since
/// construction or the last [`PpjoinIndex::reset`]. Apart from `unowned`
/// and `suffix_calls` each figure counts what the step before it let
/// through, so `postings ≥ candidates ≥ bitmap ≥ positional ≥ suffix ≥
/// verified`, and `postings ≥ candidates + unowned`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Live postings scanned under the probe prefixes.
    pub postings: u64,
    /// Distinct length-compatible records the caller's ownership test
    /// rejected at first touch ([`PpjoinIndex::probe_owned`]); always 0
    /// under [`PpjoinIndex::probe`].
    pub unowned: u64,
    /// Distinct length-compatible records the ownership test kept.
    pub candidates: u64,
    /// Candidates the bitmap filter passed: they entered the accumulator.
    pub bitmap: u64,
    /// Bitmap survivors the positional filter did not prune.
    pub positional: u64,
    /// Positional survivors handed to the suffix filter (it is skipped for
    /// short suffixes, so this is at most `positional`).
    pub suffix_calls: u64,
    /// Positional survivors that reached verification: the suffix filter
    /// passed them or was not applied.
    pub suffix: u64,
    /// Verified pairs returned as matches.
    pub verified: u64,
}

impl Funnel {
    /// The figures in field order: `postings`, `unowned`, `candidates`,
    /// `bitmap`, `positional`, `suffix_calls`, `suffix`, `verified`.
    pub fn steps(&self) -> [u64; 8] {
        [
            self.postings,
            self.unowned,
            self.candidates,
            self.bitmap,
            self.positional,
            self.suffix_calls,
            self.suffix,
            self.verified,
        ]
    }
}

/// `approx_bytes()` of an index holding nothing.
const EMPTY_BYTES: u64 = 64;

/// Streaming PPJoin(+) index. See the module docs for the usage contract.
#[derive(Debug, Clone)]
pub struct PpjoinIndex {
    t: Threshold,
    filters: FilterConfig,
    /// If true, index the full probe prefix rather than the shorter index
    /// prefix. Required when probes may be *shorter* than indexed records
    /// (the R-S case); self-joins use the index prefix.
    index_full_prefix: bool,
    index: HashMap<u32, PostingList, BuildHasherDefault<RankHasher>>,
    /// Stored records from insertion number `base` on, in insertion order.
    slots: Vec<Slot>,
    /// Their tokens, back to back in the same order.
    arena: Vec<u32>,
    /// Insertion number of `slots[0]`.
    base: u32,
    /// Insertion number of the first record the length watermark has not
    /// evicted; `slots[..live_from - base]` are dead and await compaction.
    live_from: u32,
    /// Length of the longest record seen, to enforce the ordering contract.
    max_len_seen: usize,
    approx_bytes: u64,
    /// Stamp of the current probe; a slot whose `epoch` differs holds stale
    /// accumulator state.
    epoch: u32,
    /// Scratch: slots the current probe touched, in first-touch order.
    touched: Vec<u32>,
    /// Lazily filled (probe length, partner length) → α table, by partner
    /// length.
    bounds: Vec<LenBound>,
    /// Scratch: the current probe's matches with their slot, for ordering.
    hits: Vec<(u32, Match)>,
    funnel: Funnel,
}

/// A joining partner reported by [`PpjoinIndex::probe`].
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Partner record id.
    pub rid: u64,
    /// Exact similarity.
    pub sim: f64,
}

impl PpjoinIndex {
    /// An index for self-joins (records probe then insert, ascending size).
    pub fn new(t: Threshold, filters: FilterConfig) -> Self {
        Self::with_prefix_mode(t, filters, false)
    }

    /// An index that indexes the full probe prefix — required when probing
    /// records may be shorter than indexed ones (R-S joins).
    pub fn for_rs(t: Threshold, filters: FilterConfig) -> Self {
        Self::with_prefix_mode(t, filters, true)
    }

    fn with_prefix_mode(t: Threshold, filters: FilterConfig, full_prefix: bool) -> Self {
        PpjoinIndex {
            t,
            filters,
            index_full_prefix: full_prefix,
            index: HashMap::default(),
            slots: Vec::new(),
            arena: Vec::new(),
            base: 0,
            live_from: 0,
            max_len_seen: 0,
            approx_bytes: EMPTY_BYTES,
            epoch: 0,
            touched: Vec::new(),
            bounds: Vec::new(),
            hits: Vec::new(),
            funnel: Funnel::default(),
        }
    }

    /// Forget every record and zero the counters, keeping the allocations
    /// and the per-length table: a reduce task reuses one index for all of
    /// its groups. The index then behaves exactly like a new one.
    pub fn reset(&mut self) {
        // Clearing a hash table costs its capacity, not its size; a table
        // one large group grew must not tax every small group after it.
        if self.index.capacity() > 4 * self.index.len().max(16) {
            self.index = HashMap::default();
        } else {
            self.index.clear();
        }
        self.slots.clear();
        self.arena.clear();
        self.base = 0;
        self.live_from = 0;
        self.max_len_seen = 0;
        self.approx_bytes = EMPTY_BYTES;
        self.funnel = Funnel::default();
    }

    /// Total candidates across all probes so far — the prefix-filter
    /// survivor count, before bitmap, positional and suffix pruning. Drives
    /// the candidate-count histograms.
    pub fn candidates_examined(&self) -> u64 {
        self.funnel.candidates
    }

    /// The filter funnel across all probes so far.
    pub fn funnel(&self) -> Funnel {
        self.funnel
    }

    /// Number of records currently indexed and not evicted.
    pub fn live_records(&self) -> usize {
        self.slots.len() - (self.live_from - self.base) as usize
    }

    /// Approximate footprint in bytes of the live records (tokens, slot,
    /// postings). Insert charges and eviction releases the same amount per
    /// record. Suitable for charging a task memory budget.
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }

    /// Tokens of a record of `len` tokens that get a posting.
    fn indexed_prefix_len(&self, len: usize) -> usize {
        if self.index_full_prefix {
            self.t.probe_prefix_len(len)
        } else {
            self.t.index_prefix_len(len)
        }
    }

    fn record_bytes(&self, len: usize) -> u64 {
        (len * size_of::<u32>()
            + size_of::<Slot>()
            + self.indexed_prefix_len(len) * size_of::<Posting>()) as u64
    }

    /// Evict records shorter than `min_len` (they can no longer join any
    /// current or future probe). Their postings are skipped as probes meet
    /// them; slots and tokens are dropped once the dead outnumber the live,
    /// so the copying is amortised and capacity tracks the live set.
    fn evict_below(&mut self, min_len: usize) {
        let end = self.base + self.slots.len() as u32;
        while self.live_from < end {
            let len = self.slots[(self.live_from - self.base) as usize].len as usize;
            if len >= min_len {
                break;
            }
            self.approx_bytes -= self.record_bytes(len);
            self.live_from += 1;
        }
        let dead = (self.live_from - self.base) as usize;
        if dead * 2 > self.slots.len() {
            let cut = self
                .slots
                .get(dead)
                .map_or(self.arena.len(), |s| s.off as usize);
            self.arena.drain(..cut);
            self.slots.drain(..dead);
            for slot in &mut self.slots {
                slot.off -= cut as u32;
            }
            self.base = self.live_from;
        }
    }

    /// Open a new accumulator epoch: every slot's state becomes stale at
    /// once, without touching the slots.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            for slot in &mut self.slots {
                slot.epoch = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Probe for all indexed records joining `tokens` (sorted ranks), in
    /// insertion order. Does **not** insert.
    pub fn probe(&mut self, tokens: &[u32]) -> Vec<Match> {
        self.probe_owned(tokens, |_, _| true)
    }

    /// [`probe`](Self::probe) restricted to the pairs the caller owns.
    /// `owned(token, rid)` is asked once per stored record, at the
    /// probe-prefix token that first reaches it; a record it rejects is out
    /// of this probe before any overlap is accumulated for it.
    ///
    /// For a pair that joins, that token is the smallest token the two
    /// records share: `overlap ≥ α` common tokens all sit at or after it, so
    /// it lies within the first `len − α + 1` tokens of both records, which
    /// is inside the probe prefix of the one and the indexed prefix of the
    /// other. The answer for a joining pair therefore does not depend on
    /// which of the two probes, nor on what else the index holds — the
    /// property that lets several indexes over overlapping record sets
    /// split the pairs between them without coordination.
    pub fn probe_owned(
        &mut self,
        tokens: &[u32],
        mut owned: impl FnMut(u32, u64) -> bool,
    ) -> Vec<Match> {
        let lx = tokens.len();
        let lx32 = u32::try_from(lx).expect("a record holds fewer than 2^32 tokens");
        // Future probes are at least as long as this one, so any stored
        // record below this probe's lower bound can never join again.
        self.evict_below(self.t.lower_bound(lx));
        self.next_epoch();
        self.touched.clear();
        let (base, live_from, epoch) = (self.base, self.live_from, self.epoch);
        let probe_len = self.t.probe_prefix_len(lx);
        let bx = bitmap(tokens);
        for (i, &tok) in tokens[..probe_len].iter().enumerate() {
            let Some(list) = self.index.get_mut(&tok) else {
                continue;
            };
            list.skip_dead(live_from);
            let live = &list.posts[list.start..];
            self.funnel.postings += live.len() as u64;
            for &Posting { rec, pos } in live {
                let at = rec - base;
                let slot = &mut self.slots[at as usize];
                let alpha = alpha_for(&mut self.bounds, &self.t, lx32, slot.len);
                if alpha == 0 {
                    continue;
                }
                if slot.epoch != epoch {
                    slot.epoch = epoch;
                    if !owned(tok, slot.rid) {
                        slot.overlap = PRUNED;
                        self.funnel.unowned += 1;
                        continue;
                    }
                    self.funnel.candidates += 1;
                    if overlap_bound(lx, slot.len as usize, bx, slot.bits) < alpha as usize {
                        slot.overlap = PRUNED;
                        continue;
                    }
                    slot.overlap = 0;
                    self.touched.push(at);
                } else if slot.overlap == PRUNED {
                    continue;
                }
                slot.overlap += 1;
                slot.last_x = i as u32 + 1;
                slot.last_y = pos + 1;
                if self.filters.positional {
                    let rest = (lx32 - slot.last_x).min(slot.len - slot.last_y);
                    if slot.overlap + rest < alpha {
                        slot.overlap = PRUNED;
                    }
                }
            }
        }
        self.funnel.bitmap += self.touched.len() as u64;
        for &at in &self.touched {
            let slot = &self.slots[at as usize];
            if slot.overlap == PRUNED {
                continue;
            }
            self.funnel.positional += 1;
            let y = &self.arena[slot.off as usize..][..slot.len as usize];
            // Accumulation filled this entry when it admitted the slot.
            let alpha = self.bounds[y.len()].alpha as usize;
            let (seen_x, seen_y) = (slot.last_x as usize, slot.last_y as usize);
            // The accumulated overlap is exactly
            // |x[..last_x] ∩ y[..last_y]|: every token in y[..last_y] lies in
            // y's indexed prefix and every token in x[..last_x] lies in x's
            // probe prefix, so any shared token in that region was a posting
            // hit and was counted. The suffixes therefore owe the rest of α,
            // and seeding the merge with the overlap is exact — the original
            // PPJoin verification optimization.
            let overlap = slot.overlap as usize;
            if self.filters.suffix && suffix_pays_off(lx - seen_x, y.len() - seen_y) {
                self.funnel.suffix_calls += 1;
                let owed = alpha.saturating_sub(overlap);
                if !suffix_survives(&tokens[seen_x..], &y[seen_y..], owed) {
                    continue;
                }
            }
            self.funnel.suffix += 1;
            if let Some(total) = overlap_at_least(tokens, y, seen_x, seen_y, overlap, alpha) {
                debug_assert_eq!(
                    total,
                    crate::verify::intersection_size(tokens, y),
                    "resumed verification must equal a full recount"
                );
                let sim = self.t.similarity_from_overlap(total, lx, y.len());
                self.hits.push((at, Match { rid: slot.rid, sim }));
            }
        }
        self.funnel.verified += self.hits.len() as u64;
        // First-touch order is not insertion order; only the matches need
        // sorting, not every candidate.
        self.hits.sort_unstable_by_key(|&(at, _)| at);
        self.hits.drain(..).map(|(_, m)| m).collect()
    }

    /// Insert a record (sorted ranks). Panics in debug builds if records
    /// arrive out of size order.
    pub fn insert(&mut self, rid: u64, tokens: impl AsRef<[u32]>) {
        let tokens = tokens.as_ref();
        debug_assert!(
            tokens.len() >= self.max_len_seen || self.index_full_prefix,
            "self-join inserts must arrive in non-decreasing size order"
        );
        debug_assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "tokens must be a sorted set"
        );
        let len = u32::try_from(tokens.len()).expect("a record holds fewer than 2^32 tokens");
        let off = u32::try_from(self.arena.len()).expect("live tokens of one index fit u32");
        let rec = u32::try_from(self.slots.len())
            .ok()
            .and_then(|n| self.base.checked_add(n))
            .expect("too many records in one index");
        self.max_len_seen = self.max_len_seen.max(tokens.len());
        if self.bounds.len() <= tokens.len() {
            self.bounds.resize(tokens.len() + 1, LenBound::default());
        }
        let plen = self.indexed_prefix_len(tokens.len());
        for (pos, &tok) in tokens[..plen].iter().enumerate() {
            self.index.entry(tok).or_default().posts.push(Posting {
                rec,
                pos: pos as u32,
            });
        }
        self.arena.extend_from_slice(tokens);
        self.slots.push(Slot {
            rid,
            off,
            len,
            bits: bitmap(tokens),
            epoch: 0,
            overlap: 0,
            last_x: 0,
            last_y: 0,
        });
        self.approx_bytes += self.record_bytes(tokens.len());
    }
}

/// Self-join a set of records with PPJoin(+). Records need not be
/// pre-sorted; output pairs are id-normalized (`a < b`) and sorted, with
/// exact duplicates removed.
pub fn self_join(records: &[Record], t: &Threshold, filters: FilterConfig) -> Vec<(u64, u64, f64)> {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(&b.0)));
    let mut index = PpjoinIndex::new(*t, filters);
    let mut out = Vec::new();
    for (rid, tokens) in sorted {
        for m in index.probe(tokens) {
            let (a, b) = if *rid < m.rid {
                (*rid, m.rid)
            } else {
                (m.rid, *rid)
            };
            out.push((a, b, m.sim));
        }
        index.insert(*rid, tokens);
    }
    out.sort_by(|p, q| p.0.cmp(&q.0).then(p.1.cmp(&q.1)));
    out.dedup_by(|p, q| p.0 == q.0 && p.1 == q.1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn recs(sets: &[&[u32]]) -> Vec<Record> {
        sets.iter()
            .enumerate()
            .map(|(i, s)| (i as u64 + 1, s.to_vec()))
            .collect()
    }

    fn assert_matches_naive(records: &[Record], t: &Threshold, filters: FilterConfig) {
        let expected = naive::self_join(records, t);
        let got = self_join(records, t, filters);
        let e: Vec<(u64, u64)> = expected.iter().map(|(a, b, _)| (*a, *b)).collect();
        let g: Vec<(u64, u64)> = got.iter().map(|(a, b, _)| (*a, *b)).collect();
        assert_eq!(g, e, "filters={filters:?}");
        for ((_, _, s1), (_, _, s2)) in got.iter().zip(&expected) {
            assert!((s1 - s2).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_on_structured_data() {
        let records = recs(&[
            &[1, 2, 3, 4, 5],
            &[1, 2, 3, 4, 6],
            &[2, 3, 4, 5, 6],
            &[10, 11, 12, 13, 14],
            &[10, 11, 12, 13, 15],
            &[1, 2],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ]);
        for filters in [
            FilterConfig::prefix_only(),
            FilterConfig::ppjoin(),
            FilterConfig::ppjoin_plus(),
        ] {
            for tau in [0.5, 0.6, 0.8, 0.9, 1.0] {
                assert_matches_naive(&records, &Threshold::jaccard(tau), filters);
            }
            assert_matches_naive(&records, &Threshold::cosine(0.8), filters);
            assert_matches_naive(&records, &Threshold::dice(0.8), filters);
            assert_matches_naive(&records, &Threshold::overlap(4), filters);
        }
    }

    #[test]
    fn identical_records_always_found() {
        let records = recs(&[&[5, 6, 7], &[5, 6, 7], &[5, 6, 7]]);
        let t = Threshold::jaccard(1.0);
        let pairs = self_join(&records, &t, FilterConfig::ppjoin_plus());
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|(_, _, s)| *s == 1.0));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let t = Threshold::jaccard(0.8);
        assert!(self_join(&[], &t, FilterConfig::ppjoin_plus()).is_empty());
        let one = recs(&[&[1]]);
        assert!(self_join(&one, &t, FilterConfig::ppjoin_plus()).is_empty());
    }

    /// Records with rapidly growing lengths: by the time long records
    /// probe, short ones must have been evicted.
    fn growing_records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let len = 3 + i as u32 * 3;
                (i, (0..len).map(|k| k * 7 + i as u32).collect())
            })
            .collect()
    }

    #[test]
    fn eviction_shrinks_footprint() {
        let records = growing_records(40);
        let t = Threshold::jaccard(0.9);
        let mut index = PpjoinIndex::new(t, FilterConfig::ppjoin());
        let mut max_live = 0;
        for (rid, tokens) in &records {
            index.probe(tokens);
            index.insert(*rid, tokens);
            max_live = max_live.max(index.live_records());
        }
        assert!(
            max_live < records.len(),
            "length eviction should keep the live set small: {max_live}"
        );
        assert!(index.approx_bytes() > 0);
    }

    #[test]
    fn full_eviction_returns_the_footprint_to_empty() {
        let records = growing_records(120);
        let total_tokens: usize = records.iter().map(|(_, t)| t.len()).sum();
        for full_prefix in [false, true] {
            let t = Threshold::jaccard(0.9);
            let mut index = PpjoinIndex::with_prefix_mode(t, FilterConfig::ppjoin(), full_prefix);
            let empty = index.approx_bytes();
            let mut peak_bytes = 0;
            for (rid, tokens) in &records {
                index.probe(tokens);
                index.insert(*rid, tokens);
                peak_bytes = peak_bytes.max(index.approx_bytes());
            }
            assert!(peak_bytes > empty);
            // A probe so long that nothing stored can still join it.
            let longest: Vec<u32> = (0..4000).collect();
            assert!(index.probe(&longest).is_empty());
            assert_eq!(index.live_records(), 0);
            assert_eq!(
                index.approx_bytes(),
                empty,
                "insert and evict must charge and release the same amount"
            );
            assert!(index.slots.is_empty() && index.arena.is_empty());
            // Dead tokens were reclaimed as the stream went, not kept until
            // the end: the arena never held more than a fraction of them.
            assert!(
                index.arena.capacity() * 2 < total_tokens,
                "arena capacity {} for {total_tokens} tokens streamed",
                index.arena.capacity()
            );
        }
    }

    #[test]
    fn dead_postings_are_dropped_when_a_probe_meets_them() {
        // Every record shares token 0, so one posting list holds them all.
        let t = Threshold::jaccard(0.9);
        let mut index = PpjoinIndex::for_rs(t, FilterConfig::ppjoin());
        for i in 0..50u32 {
            let len = 10 + i * 2;
            let tokens: Vec<u32> = (0..len).collect();
            index.insert(u64::from(i), tokens);
        }
        let probe: Vec<u32> = (0..200).collect();
        index.probe(&probe);
        let list = &index.index[&0];
        assert!(index.live_records() < 50);
        assert_eq!(list.start, 0, "the dead prefix outweighed the live rest");
        assert_eq!(list.posts.len(), index.live_records());
    }

    #[test]
    fn epoch_wrap_cannot_resurrect_stale_slots() {
        let t = Threshold::jaccard(0.5);
        let records = recs(&[&[1, 2, 3, 4], &[1, 2, 3, 5], &[2, 3, 4, 5], &[1, 3, 4, 6]]);
        // The second probe touches nothing, so the first one's stamps
        // survive until the wrap.
        let probes: [&[u32]; 4] = [
            &[1, 2, 3, 4, 5],
            &[7, 8, 9, 10, 11],
            &[2, 3, 4, 5, 6],
            &[1, 2, 3, 4, 5],
        ];
        let mut fresh = PpjoinIndex::new(t, FilterConfig::ppjoin_plus());
        let mut wrapping = PpjoinIndex::new(t, FilterConfig::ppjoin_plus());
        for (rid, tokens) in &records {
            fresh.insert(*rid, tokens);
            wrapping.insert(*rid, tokens);
        }
        // The first probe stamps slots with epoch 1 and leaves accumulator
        // state in them; the wrap two probes later reuses that stamp.
        assert_eq!(wrapping.probe(probes[0]), fresh.probe(probes[0]));
        assert!(wrapping.slots.iter().any(|s| s.epoch == 1));
        wrapping.epoch = u32::MAX - 1;
        for probe in &probes[1..] {
            assert_eq!(wrapping.probe(probe), fresh.probe(probe));
        }
        assert_eq!(wrapping.epoch, 2, "the counter wrapped");
        assert_eq!(wrapping.funnel(), fresh.funnel());
    }

    #[test]
    fn probe_without_insert_is_read_only() {
        let t = Threshold::jaccard(0.5);
        let mut index = PpjoinIndex::new(t, FilterConfig::ppjoin_plus());
        index.insert(1, vec![1, 2, 3, 4]);
        let m1 = index.probe(&[1, 2, 3, 5]);
        let m2 = index.probe(&[1, 2, 3, 5]);
        assert_eq!(m1, m2);
        assert_eq!(m1.len(), 1);
        assert_eq!(m1[0].rid, 1);
    }

    #[test]
    fn rs_mode_finds_shorter_probes() {
        // In R-S mode a probe shorter than the indexed record must still
        // find it (self-join mode would not guarantee this).
        let t = Threshold::jaccard(0.5);
        let mut index = PpjoinIndex::for_rs(t, FilterConfig::ppjoin());
        index.insert(1, vec![1, 2, 3, 4, 5, 6]);
        let m = index.probe(&[1, 2, 3, 4]);
        // Jaccard(4,6 sharing 4) = 4/6 = 0.66 ≥ 0.5.
        assert_eq!(m.len(), 1);
    }
}
