//! Stage-2 reducers: the Basic Kernel (BK) and the PPJoin+ Kernel (PK).

use mapreduce::{Counter, Emit, Histogram, Reducer, Result, TaskContext};
use setsim::{verify_pair, FilterConfig, PpjoinIndex};

use crate::keys::{Member, Ownership, Projection, Stage2Key, REL_S};
use crate::named::Named;

/// Histogram: candidate pairs examined per reduce group (after the prefix
/// filter, before verification). Percentiles expose join-key skew.
pub const HIST_CANDIDATES_PER_GROUP: &str = "stage2.group.candidates";
/// Histogram: verified pairs emitted per reduce group.
pub const HIST_SURVIVORS_PER_GROUP: &str = "stage2.group.survivors";

/// Counters of the PK kernel's filter funnel, in the order of
/// [`setsim::Funnel::steps`]. All but `unowned` and `suffix_calls` form a
/// chain, each at most the one before; `unowned` counts the first touches
/// another reducer owns (`postings ≥ candidates + unowned`), and `verified`
/// equals `stage2.pairs_emitted`.
pub const FUNNEL_COUNTERS: [&str; 8] = [
    "stage2.funnel.postings",
    "stage2.funnel.unowned",
    "stage2.funnel.candidates",
    "stage2.funnel.bitmap",
    "stage2.funnel.positional",
    "stage2.funnel.suffix_calls",
    "stage2.funnel.suffix",
    "stage2.funnel.verified",
];

/// Bytes charged for a buffered projection.
pub(crate) fn projection_bytes(tokens: &[u32]) -> u64 {
    tokens.len() as u64 * 4 + 48
}

/// The job-wide counters and histograms every stage-2 kernel feeds, held by
/// the reducer for the life of its task.
#[derive(Clone)]
pub(crate) struct KernelCounters {
    candidates: Named<Counter>,
    pairs_emitted: Named<Counter>,
    group_candidates: Named<Histogram>,
    group_survivors: Named<Histogram>,
}

impl KernelCounters {
    pub(crate) fn new() -> Self {
        KernelCounters {
            candidates: Named::new("stage2.candidates"),
            pairs_emitted: Named::new("stage2.pairs_emitted"),
            group_candidates: Named::new(HIST_CANDIDATES_PER_GROUP),
            group_survivors: Named::new(HIST_SURVIVORS_PER_GROUP),
        }
    }
}

/// Per-reduce-group kernel statistics: plain tallies while the group runs,
/// added to the job counters and recorded into the job histograms at group
/// end, so skewed groups show up in the p95/p99 of the run report and the
/// per-pair loops touch no shared state.
#[derive(Default)]
pub(crate) struct GroupStats {
    candidates: u64,
    survivors: u64,
}

impl GroupStats {
    pub(crate) fn new() -> Self {
        GroupStats::default()
    }

    /// Count one owned candidate pair reaching verification.
    pub(crate) fn candidate(&mut self) {
        self.candidates += 1;
    }

    /// Count candidates accumulated elsewhere (e.g. inside the PPJoin+
    /// index) in one step.
    pub(crate) fn add_candidates(&mut self, n: u64) {
        self.candidates += n;
    }

    /// Add this group's totals to the task's counters and histograms.
    pub(crate) fn finish(&self, counters: &mut KernelCounters, ctx: &TaskContext) {
        counters.candidates.get(ctx).add(self.candidates);
        counters.pairs_emitted.get(ctx).add(self.survivors);
        counters
            .group_candidates
            .get(ctx)
            .record_count(self.candidates);
        counters
            .group_survivors
            .get(ctx)
            .record_count(self.survivors);
    }
}

/// Emit a verified pair: id-normalized for self-joins, `(r, s)` for R-S.
pub(crate) fn emit_pair(
    rs: bool,
    a: u64,
    b: u64,
    sim: f64,
    out: &mut dyn Emit<(u64, u64), f64>,
    stats: &mut GroupStats,
) -> Result<()> {
    stats.survivors += 1;
    if rs {
        out.emit((a, b), sim)
    } else {
        out.emit((a.min(b), a.max(b)), sim)
    }
}

/// The Basic Kernel: nested loops over the group's projections, verifying
/// exactly the pairs this group owns. For R-S joins, only the R side is
/// buffered; S records stream against it ("we then store the records from
/// the first relation (as they arrive first), and stream the records from
/// the second relation").
#[derive(Clone)]
pub struct BkReducer {
    owner: Ownership,
    /// R-S mode (false = self-join).
    rs: bool,
    counters: KernelCounters,
}

impl BkReducer {
    /// A BK reducer for self-joins or R-S joins.
    pub fn new(owner: Ownership, rs: bool) -> Self {
        BkReducer {
            owner,
            rs,
            counters: KernelCounters::new(),
        }
    }
}

/// Verify `(o, x)` if `key`'s group owns it, and emit it if it joins: the
/// step every nested-loop kernel takes per pair.
pub(crate) fn join_owned(
    owner: &Ownership,
    key: &Stage2Key,
    rs: bool,
    o: (u64, &[u32]),
    x: (u64, &[u32]),
    out: &mut dyn Emit<(u64, u64), f64>,
    stats: &mut GroupStats,
) -> Result<()> {
    if !owner.owns_pair(key, o, x) {
        return Ok(());
    }
    stats.candidate();
    match verify_pair(owner.threshold(), o.1, x.1) {
        Some(sim) => emit_pair(rs, o.0, x.0, sim, out, stats),
        None => Ok(()),
    }
}

impl Reducer for BkReducer {
    type Key = Stage2Key;
    type InValue = Projection;
    type OutKey = (u64, u64);
    type OutValue = f64;

    fn reduce(
        &mut self,
        key: &Stage2Key,
        values: &mut dyn Iterator<Item = (Stage2Key, Projection)>,
        out: &mut dyn Emit<(u64, u64), f64>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let mut buffer: Vec<Projection> = Vec::new();
        let mut charged = 0u64;
        let mut stats = GroupStats::new();
        for ((_, _, _, _, rel), (rid, tokens)) in values {
            let x = (rid, tokens.as_slice());
            if self.rs && rel == REL_S {
                // Stream S against the buffered R records.
                for (r_rid, r_tokens) in &buffer {
                    let r = (*r_rid, r_tokens.as_slice());
                    join_owned(&self.owner, key, true, r, x, out, &mut stats)?;
                }
            } else {
                if !self.rs {
                    for (o_rid, o_tokens) in &buffer {
                        if *o_rid == rid {
                            continue;
                        }
                        let o = (*o_rid, o_tokens.as_slice());
                        join_owned(&self.owner, key, false, o, x, out, &mut stats)?;
                    }
                }
                let bytes = projection_bytes(&tokens);
                ctx.memory().charge(bytes)?;
                charged += bytes;
                buffer.push((rid, tokens));
            }
        }
        ctx.memory().release(charged);
        stats.finish(&mut self.counters, ctx);
        Ok(())
    }
}

/// The PPJoin+ Kernel: the streaming indexed kernel of [`setsim::ppjoin`],
/// exploiting the composite-key sort: projections arrive in increasing
/// length order, so the index evicts by the length filter as it goes.
#[derive(Clone)]
pub struct PkReducer {
    /// One index per reduce task, reset at the start of every group. It
    /// knows a record by its position in `members`.
    index: PpjoinIndex,
    /// The group's indexed records, in insertion order.
    members: Vec<Member>,
    owner: Ownership,
    /// R-S mode (false = self-join).
    rs: bool,
    counters: KernelCounters,
    index_peak_bytes: Named<Counter>,
    funnel: [Named<Counter>; 8],
}

impl PkReducer {
    /// A PK reducer for self-joins or R-S joins, with PPJoin+'s filters.
    pub fn new(owner: Ownership, rs: bool) -> Self {
        let threshold = *owner.threshold();
        let filters = FilterConfig::ppjoin_plus();
        PkReducer {
            index: if rs {
                PpjoinIndex::for_rs(threshold, filters)
            } else {
                PpjoinIndex::new(threshold, filters)
            },
            members: Vec::new(),
            owner,
            rs,
            counters: KernelCounters::new(),
            index_peak_bytes: Named::new("stage2.index_peak_bytes"),
            funnel: FUNNEL_COUNTERS.map(Named::new),
        }
    }
}

impl Reducer for PkReducer {
    type Key = Stage2Key;
    type InValue = Projection;
    type OutKey = (u64, u64);
    type OutValue = f64;

    fn reduce(
        &mut self,
        key: &Stage2Key,
        values: &mut dyn Iterator<Item = (Stage2Key, Projection)>,
        out: &mut dyn Emit<(u64, u64), f64>,
        ctx: &TaskContext,
    ) -> Result<()> {
        // At the start rather than the end: a group that failed half way
        // must not leak its records into the next one.
        self.index.reset();
        self.members.clear();
        let mut charged = 0u64;
        let mut stats = GroupStats::new();
        let (owner, members) = (&self.owner, &mut self.members);
        for ((_, _, _, _, rel), (rid, tokens)) in values {
            // R records are only indexed, S records only probe, self-join
            // records do both. The index drops, at first touch, every
            // partner whose pair another group owns.
            let x = Member::new(rid);
            let is_s = self.rs && rel == REL_S;
            if is_s || !self.rs {
                let mut owned = owner.probing(key, x);
                let owned = |m, id| owned.owns(m, || members[id as usize]);
                for m in self.index.probe_owned(&tokens, owned) {
                    let partner = members[m.rid as usize].rid;
                    emit_pair(self.rs, partner, rid, m.sim, out, &mut stats)?;
                }
            }
            if !is_s {
                self.index.insert(members.len() as u64, tokens);
                members.push(x);
                // Charge the footprint's growth: the index's, which eviction
                // shrinks, so only positive deltas count and the high water
                // is tracked; and the member's, kept to the group's end.
                let now = self.index.approx_bytes() + size_of_val(members.as_slice()) as u64;
                if now > charged {
                    ctx.memory().charge(now - charged)?;
                    charged = now;
                }
            }
        }
        self.index_peak_bytes.get(ctx).add(charged);
        ctx.memory().release(charged);
        let funnel = self.index.funnel();
        for (counter, n) in self.funnel.iter_mut().zip(funnel.steps()) {
            counter.get(ctx).add(n);
        }
        stats.add_candidates(funnel.candidates);
        stats.finish(&mut self.counters, ctx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{plain, REL_R};
    use mapreduce::{Cache, Counters, Dfs, MemoryGauge, Phase, VecEmitter};
    use setsim::Threshold;

    fn ctx_with_budget(budget: Option<u64>) -> TaskContext {
        let gauge = match budget {
            Some(b) => MemoryGauge::new("t", b),
            None => MemoryGauge::unlimited("t"),
        };
        TaskContext::new(
            Phase::Reduce,
            0,
            0,
            1,
            Counters::new(),
            gauge,
            Cache::new(),
            Dfs::new(1, 64).unwrap(),
        )
    }

    /// Group values: projections sharing group 0, in length order.
    fn group_values(recs: &[(u64, Vec<u32>)], rel: u8) -> Vec<(Stage2Key, Projection)> {
        let mut v: Vec<(Stage2Key, Projection)> = recs
            .iter()
            .map(|(rid, t)| (plain(0, t.len() as u32, rel), (*rid, t.clone())))
            .collect();
        v.sort_by_key(|a| a.0);
        v
    }

    #[test]
    fn bk_self_finds_pairs() {
        let t = Threshold::jaccard(0.5);
        let recs = vec![
            (1u64, vec![1u32, 2, 3, 4]),
            (2, vec![1, 2, 3, 5]),
            (3, vec![10, 11, 12]),
        ];
        let mut r = BkReducer::new(Ownership::one_group(t), false);
        let mut out = VecEmitter::new();
        let ctx = ctx_with_budget(None);
        let vals = group_values(&recs, REL_R);
        let key = vals[0].0;
        r.reduce(&key, &mut vals.into_iter(), &mut out, &ctx)
            .unwrap();
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].0, (1, 2));
        assert_eq!(ctx.counter("stage2.pairs_emitted").get(), 1);
        assert_eq!(ctx.memory().used(), 0, "memory released at group end");
    }

    #[test]
    fn pk_self_matches_bk() {
        let t = Threshold::jaccard(0.5);
        let recs = vec![
            (1u64, vec![1u32, 2, 3, 4]),
            (2, vec![1, 2, 3, 5]),
            (3, vec![2, 3, 4, 5, 6]),
            (4, vec![1, 2, 3, 4]),
        ];
        let vals = group_values(&recs, REL_R);
        let key = vals[0].0;

        let mut bk_out = VecEmitter::new();
        BkReducer::new(Ownership::one_group(t), false)
            .reduce(
                &key,
                &mut vals.clone().into_iter(),
                &mut bk_out,
                &ctx_with_budget(None),
            )
            .unwrap();
        let mut pk_out = VecEmitter::new();
        PkReducer::new(Ownership::one_group(t), false)
            .reduce(
                &key,
                &mut vals.into_iter(),
                &mut pk_out,
                &ctx_with_budget(None),
            )
            .unwrap();
        let mut a: Vec<(u64, u64)> = bk_out.pairs.iter().map(|(k, _)| *k).collect();
        let mut b: Vec<(u64, u64)> = pk_out.pairs.iter().map(|(k, _)| *k).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn bk_rs_streams_s_against_r() {
        let t = Threshold::jaccard(0.5);
        // R record len 4 (class 2), S records len 4.
        let mut vals = vec![
            (plain(0, 2, REL_R), (1u64, vec![1u32, 2, 3, 4])),
            (plain(0, 4, REL_S), (100, vec![1, 2, 3, 4])),
            (plain(0, 4, REL_S), (200, vec![7, 8, 9, 10])),
        ];
        vals.sort_by_key(|a| a.0);
        let key = vals[0].0;
        let mut out = VecEmitter::new();
        BkReducer::new(Ownership::one_group(t), true)
            .reduce(
                &key,
                &mut vals.into_iter(),
                &mut out,
                &ctx_with_budget(None),
            )
            .unwrap();
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].0, (1, 100), "(r, s) orientation");
    }

    #[test]
    fn pk_rs_matches_bk_rs() {
        let t = Threshold::jaccard(0.5);
        let mut vals = vec![
            (plain(0, 2, REL_R), (1u64, vec![1u32, 2, 3, 4])),
            (plain(0, 3, REL_R), (2, vec![2, 3, 4, 5, 6, 7])),
            (plain(0, 4, REL_S), (100, vec![1, 2, 3, 4])),
            (plain(0, 5, REL_S), (200, vec![2, 3, 4, 5, 6])),
        ];
        vals.sort_by_key(|a| a.0);
        let key = vals[0].0;
        let mut bk = VecEmitter::new();
        BkReducer::new(Ownership::one_group(t), true)
            .reduce(
                &key,
                &mut vals.clone().into_iter(),
                &mut bk,
                &ctx_with_budget(None),
            )
            .unwrap();
        let mut pk = VecEmitter::new();
        PkReducer::new(Ownership::one_group(t), true)
            .reduce(&key, &mut vals.into_iter(), &mut pk, &ctx_with_budget(None))
            .unwrap();
        let mut a: Vec<(u64, u64)> = bk.pairs.iter().map(|(k, _)| *k).collect();
        let mut b: Vec<(u64, u64)> = pk.pairs.iter().map(|(k, _)| *k).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn bk_hits_memory_budget() {
        let t = Threshold::jaccard(0.9);
        let recs: Vec<(u64, Vec<u32>)> = (0..50)
            .map(|i| (i, (0..20u32).map(|k| k * 50 + i as u32).collect()))
            .collect();
        let mut sorted = recs;
        for r in &mut sorted {
            r.1.sort_unstable();
            r.1.dedup();
        }
        let vals = group_values(&sorted, REL_R);
        let key = vals[0].0;
        let ctx = ctx_with_budget(Some(500));
        let err = BkReducer::new(Ownership::one_group(t), false)
            .reduce(&key, &mut vals.into_iter(), &mut VecEmitter::new(), &ctx)
            .unwrap_err();
        assert!(err.is_out_of_memory());
    }

    #[test]
    fn pk_uses_less_memory_than_bk_on_length_spread() {
        // Widely spread lengths: PK's eviction keeps the live index tiny,
        // while BK buffers everything.
        let t = Threshold::jaccard(0.9);
        let mut recs = Vec::new();
        for i in 0..30u64 {
            let len = 4 + i as u32 * 4;
            let tokens: Vec<u32> = (0..len).map(|k| k * 37 % 1000 + i as u32 * 1000).collect();
            let mut tokens = tokens;
            tokens.sort_unstable();
            tokens.dedup();
            recs.push((i, tokens));
        }
        recs.sort_by_key(|(_, t)| t.len());
        let vals = group_values(&recs, REL_R);
        let key = vals[0].0;

        let bk_ctx = ctx_with_budget(None);
        BkReducer::new(Ownership::one_group(t), false)
            .reduce(
                &key,
                &mut vals.clone().into_iter(),
                &mut VecEmitter::new(),
                &bk_ctx,
            )
            .unwrap();
        let pk_ctx = ctx_with_budget(None);
        PkReducer::new(Ownership::one_group(t), false)
            .reduce(&key, &mut vals.into_iter(), &mut VecEmitter::new(), &pk_ctx)
            .unwrap();
        let bk_peak = bk_ctx.memory().high_water();
        let pk_peak = pk_ctx.memory().high_water();
        assert!(
            pk_peak < bk_peak,
            "PK eviction should bound memory: pk={pk_peak} bk={bk_peak}"
        );
    }
}
