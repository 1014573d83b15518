//! Section 5: kernels for reduce groups that do not fit in memory.
//!
//! When no further filter can shrink a reduce group below the task's memory
//! budget, the group is sub-partitioned into blocks small enough to fit, and
//! the cross product of blocks is computed one resident block at a time:
//!
//! * **Map-based** ([`MapBlocksReducer`]): the *map* side replicates and
//!   interleaves blocks via `(pass, kind)` key components so the reducer
//!   consumes a single forward stream — each block arrives once as a
//!   `load` (becomes resident, self-joined) followed by the later blocks as
//!   `stream` copies (joined against the resident block). Replication
//!   inflates the shuffle.
//! * **Reduce-based** ([`ReduceBlocksReducer`]): each block is shuffled
//!   exactly once; the reducer keeps block 0 resident, spills the rest to
//!   its local disk (simulated as encoded buffers, with bytes counted on
//!   `stage2.local_disk_bytes`), and re-reads them for the remaining
//!   passes.
//!
//! For R-S joins only the R side is sub-partitioned; S streams against each
//! resident R block (map-based replicates S per block; reduce-based spills S
//! once and re-reads it per block).

use mapreduce::{Codec, Counter, Emit, Reducer, Result, TaskContext};

use crate::keys::{Ownership, Projection, Stage2Key, KIND_LOAD, REL_S};
use crate::named::Named;
use crate::stage2::reducers::{join_owned, projection_bytes, GroupStats, KernelCounters};

/// Reducer for map-based block processing.
#[derive(Clone)]
pub struct MapBlocksReducer {
    owner: Ownership,
    /// R-S mode (false = self-join).
    rs: bool,
    counters: KernelCounters,
}

impl MapBlocksReducer {
    /// Build for self-join or R-S mode.
    pub fn new(owner: Ownership, rs: bool) -> Self {
        MapBlocksReducer {
            owner,
            rs,
            counters: KernelCounters::new(),
        }
    }
}

impl Reducer for MapBlocksReducer {
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
        let mut resident: Vec<Projection> = Vec::new();
        let mut charged = 0u64;
        let mut current_pass: Option<u32> = None;
        let mut stats = GroupStats::new();
        for ((_, pass, kind, _, rel), (rid, tokens)) in values {
            if current_pass != Some(pass) {
                // New pass: the previous resident block is discarded.
                ctx.memory().release(charged);
                charged = 0;
                resident.clear();
                current_pass = Some(pass);
            }
            // A streamed record joins the resident block, and so does a
            // self-join record being loaded into it (within-block pairs);
            // in R-S mode R records never join each other.
            let is_stream = kind != KIND_LOAD || (self.rs && rel == REL_S);
            if is_stream || !self.rs {
                let x = (rid, tokens.as_slice());
                for (o_rid, o_tokens) in &resident {
                    // Same-RID skip applies only within one relation; R and
                    // S RID spaces are independent.
                    if !self.rs && *o_rid == rid {
                        continue;
                    }
                    let o = (*o_rid, o_tokens.as_slice());
                    join_owned(&self.owner, key, self.rs, o, x, out, &mut stats)?;
                }
            }
            if !is_stream {
                let bytes = projection_bytes(&tokens);
                ctx.memory().charge(bytes)?;
                charged += bytes;
                resident.push((rid, tokens));
            }
        }
        ctx.memory().release(charged);
        stats.finish(&mut self.counters, ctx);
        Ok(())
    }
}

/// Reducer for reduce-based block processing.
#[derive(Clone)]
pub struct ReduceBlocksReducer {
    owner: Ownership,
    /// R-S mode (false = self-join).
    rs: bool,
    counters: KernelCounters,
    local_disk_bytes: Named<Counter>,
}

impl ReduceBlocksReducer {
    /// Build for self-join or R-S mode.
    pub fn new(owner: Ownership, rs: bool) -> Self {
        ReduceBlocksReducer {
            owner,
            rs,
            counters: KernelCounters::new(),
            local_disk_bytes: Named::new("stage2.local_disk_bytes"),
        }
    }

    fn join_against(
        &self,
        key: &Stage2Key,
        resident: &[Projection],
        rid: u64,
        tokens: &[u32],
        out: &mut dyn Emit<(u64, u64), f64>,
        stats: &mut GroupStats,
    ) -> Result<()> {
        for (o_rid, o_tokens) in resident {
            // In R-S mode the resident block is R and the probe is S; equal
            // RIDs are distinct records there.
            if !self.rs && *o_rid == rid {
                continue;
            }
            let o = (*o_rid, o_tokens.as_slice());
            join_owned(&self.owner, key, self.rs, o, (rid, tokens), out, stats)?;
        }
        Ok(())
    }
}

/// A simulated local-disk spill file of encoded projections.
#[derive(Default)]
struct SpillFile {
    buf: Vec<u8>,
    records: usize,
}

impl SpillFile {
    /// Append a projection; returns the bytes it took on disk.
    fn write(&mut self, p: &Projection) -> u64 {
        let before = self.buf.len();
        p.encode(&mut self.buf);
        self.records += 1;
        (self.buf.len() - before) as u64
    }

    fn read_all(&self) -> Result<Vec<Projection>> {
        let mut r = mapreduce::ByteReader::new(&self.buf);
        let mut out = Vec::with_capacity(self.records);
        for _ in 0..self.records {
            out.push(Projection::decode(&mut r)?);
        }
        Ok(out)
    }
}

impl Reducer for ReduceBlocksReducer {
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
        // ---- streaming step: block 0 resident, everything else to disk ----
        let mut resident: Vec<Projection> = Vec::new();
        let mut charged = 0u64;
        let mut stats = GroupStats::new();
        let mut first_pass: Option<u32> = None;
        // Spilled R/self blocks by pass, in arrival (ascending) order.
        let mut spilled: Vec<(u32, SpillFile)> = Vec::new();
        let mut s_spill = SpillFile::default();
        let mut disk_bytes = 0u64;
        for ((_, pass, _, _, rel), (rid, tokens)) in values {
            if self.rs && rel == REL_S {
                // S streams against the resident block and is spilled for
                // the later passes.
                self.join_against(key, &resident, rid, &tokens, out, &mut stats)?;
                disk_bytes += s_spill.write(&(rid, tokens));
                continue;
            }
            if first_pass.is_none() {
                first_pass = Some(pass);
            }
            if Some(pass) == first_pass {
                // Resident block: incremental self-join (self mode only).
                if !self.rs {
                    self.join_against(key, &resident, rid, &tokens, out, &mut stats)?;
                }
                let bytes = projection_bytes(&tokens);
                ctx.memory().charge(bytes)?;
                charged += bytes;
                resident.push((rid, tokens));
            } else {
                // Later block: join against the resident block (in R-S mode
                // R records never join each other), then spill.
                if !self.rs {
                    self.join_against(key, &resident, rid, &tokens, out, &mut stats)?;
                }
                if spilled.last().map(|(p, _)| *p) != Some(pass) {
                    spilled.push((pass, SpillFile::default()));
                }
                disk_bytes += spilled
                    .last_mut()
                    .expect("just pushed")
                    .1
                    .write(&(rid, tokens));
            }
        }
        self.local_disk_bytes.get(ctx).add(disk_bytes);
        // ---- disk passes ----
        let s_records = if self.rs {
            s_spill.read_all()?
        } else {
            Vec::new()
        };
        for i in 0..spilled.len() {
            ctx.memory().release(charged);
            charged = 0;
            resident.clear();
            // Load block i from disk, self-joining while loading.
            for (rid, tokens) in spilled[i].1.read_all()? {
                if !self.rs {
                    self.join_against(key, &resident, rid, &tokens, out, &mut stats)?;
                }
                let bytes = projection_bytes(&tokens);
                ctx.memory().charge(bytes)?;
                charged += bytes;
                resident.push((rid, tokens));
            }
            if self.rs {
                // Stream the whole spilled S partition against this block.
                for (sid, s_tokens) in &s_records {
                    self.join_against(key, &resident, *sid, s_tokens, out, &mut stats)?;
                }
            } else {
                // Stream the later blocks against this block.
                for (_, file) in &spilled[i + 1..] {
                    for (rid, tokens) in file.read_all()? {
                        self.join_against(key, &resident, rid, &tokens, out, &mut stats)?;
                    }
                }
            }
        }
        ctx.memory().release(charged);
        stats.finish(&mut self.counters, ctx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{blocked, KIND_STREAM, REL_R};
    use mapreduce::{stable_hash, Cache, Counters, Dfs, MemoryGauge, Phase, VecEmitter};
    use setsim::Threshold;
    use std::collections::BTreeSet;

    fn ctx() -> TaskContext {
        TaskContext::new(
            Phase::Reduce,
            0,
            0,
            1,
            Counters::new(),
            MemoryGauge::unlimited("t"),
            Cache::new(),
            Dfs::new(1, 64).unwrap(),
        )
    }

    fn sample_records(n: u64) -> Vec<(u64, Vec<u32>)> {
        // Clusters of 3 near-identical records so there are plenty of pairs.
        (0..n)
            .map(|i| {
                let base = (i / 3) * 10;
                let mut t: Vec<u32> = (0..6u32).map(|k| base as u32 + k).collect();
                if i % 3 == 1 {
                    t[5] += 100; // one-token difference
                }
                t.sort_unstable();
                (i, t)
            })
            .collect()
    }

    /// Ground truth: all pairs within the group above the threshold.
    fn expected_pairs(recs: &[(u64, Vec<u32>)], t: &Threshold) -> BTreeSet<(u64, u64)> {
        setsim::naive::self_join(recs, t)
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect()
    }

    /// Simulate the map-side emission for map-based blocks over one group.
    fn map_blocks_stream(recs: &[(u64, Vec<u32>)], blocks: u32) -> Vec<(Stage2Key, Projection)> {
        let mut vals = Vec::new();
        for (rid, tokens) in recs {
            let b = (stable_hash(rid) % u64::from(blocks)) as u32;
            vals.push((
                blocked(0, b, KIND_LOAD, tokens.len() as u32, REL_R),
                (*rid, tokens.clone()),
            ));
            for pass in 0..b {
                vals.push((
                    blocked(0, pass, KIND_STREAM, tokens.len() as u32, REL_R),
                    (*rid, tokens.clone()),
                ));
            }
        }
        vals.sort_by_key(|a| a.0);
        vals
    }

    /// Simulate the map-side emission for reduce-based blocks.
    fn reduce_blocks_stream(recs: &[(u64, Vec<u32>)], blocks: u32) -> Vec<(Stage2Key, Projection)> {
        let mut vals: Vec<(Stage2Key, Projection)> = recs
            .iter()
            .map(|(rid, tokens)| {
                let b = (stable_hash(rid) % u64::from(blocks)) as u32;
                (
                    blocked(0, b, KIND_LOAD, tokens.len() as u32, REL_R),
                    (*rid, tokens.clone()),
                )
            })
            .collect();
        vals.sort_by_key(|a| a.0);
        vals
    }

    #[test]
    fn map_blocks_self_join_is_complete() {
        let t = Threshold::jaccard(0.6);
        let recs = sample_records(18);
        let expected = expected_pairs(&recs, &t);
        assert!(!expected.is_empty());
        for blocks in [1u32, 2, 3, 5] {
            let vals = map_blocks_stream(&recs, blocks);
            let key = vals[0].0;
            let mut out = VecEmitter::new();
            MapBlocksReducer::new(Ownership::one_group(t), false)
                .reduce(&key, &mut vals.into_iter(), &mut out, &ctx())
                .unwrap();
            let got: BTreeSet<(u64, u64)> = out.pairs.iter().map(|(k, _)| *k).collect();
            assert_eq!(got, expected, "blocks={blocks}");
        }
    }

    #[test]
    fn reduce_blocks_self_join_is_complete() {
        let t = Threshold::jaccard(0.6);
        let recs = sample_records(18);
        let expected = expected_pairs(&recs, &t);
        for blocks in [1u32, 2, 4] {
            let vals = reduce_blocks_stream(&recs, blocks);
            let key = vals[0].0;
            let c = ctx();
            let mut out = VecEmitter::new();
            ReduceBlocksReducer::new(Ownership::one_group(t), false)
                .reduce(&key, &mut vals.into_iter(), &mut out, &c)
                .unwrap();
            let got: BTreeSet<(u64, u64)> = out.pairs.iter().map(|(k, _)| *k).collect();
            assert_eq!(got, expected, "blocks={blocks}");
            if blocks > 1 {
                assert!(
                    c.counter("stage2.local_disk_bytes").get() > 0,
                    "later blocks must hit local disk"
                );
            }
        }
    }

    #[test]
    fn blocks_bound_resident_memory() {
        let t = Threshold::jaccard(0.95);
        let recs = sample_records(30);
        // Whole-group footprint.
        let total: u64 = recs.iter().map(|(_, t)| projection_bytes(t)).sum();

        let vals = map_blocks_stream(&recs, 6);
        let key = vals[0].0;
        let c = ctx();
        MapBlocksReducer::new(Ownership::one_group(t), false)
            .reduce(&key, &mut vals.into_iter(), &mut VecEmitter::new(), &c)
            .unwrap();
        let peak = c.memory().high_water();
        assert!(
            peak < total / 2,
            "resident block should be far below the whole group: {peak} vs {total}"
        );
        assert_eq!(c.memory().used(), 0);
    }

    #[test]
    fn rs_reduce_blocks_matches_naive() {
        let t = Threshold::jaccard(0.6);
        let r: Vec<(u64, Vec<u32>)> = sample_records(9);
        let s: Vec<(u64, Vec<u32>)> = sample_records(9)
            .into_iter()
            .map(|(i, t)| (100 + i, t))
            .collect();
        let expected: BTreeSet<(u64, u64)> = setsim::naive::rs_join(&r, &s, &t)
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect();
        assert!(!expected.is_empty());
        for blocks in [1u32, 3] {
            let mut vals: Vec<(Stage2Key, Projection)> = Vec::new();
            for (rid, tokens) in &r {
                let b = (stable_hash(rid) % u64::from(blocks)) as u32;
                vals.push((blocked(0, b, KIND_LOAD, 0, REL_R), (*rid, tokens.clone())));
            }
            for (sid, tokens) in &s {
                vals.push((
                    blocked(0, blocks, KIND_LOAD, tokens.len() as u32, REL_S),
                    (*sid, tokens.clone()),
                ));
            }
            vals.sort_by_key(|a| a.0);
            let key = vals[0].0;
            let mut out = VecEmitter::new();
            ReduceBlocksReducer::new(Ownership::one_group(t), true)
                .reduce(&key, &mut vals.into_iter(), &mut out, &ctx())
                .unwrap();
            let got: BTreeSet<(u64, u64)> = out.pairs.iter().map(|(k, _)| *k).collect();
            assert_eq!(got, expected, "blocks={blocks}");
        }
    }

    #[test]
    fn rs_map_blocks_matches_naive() {
        let t = Threshold::jaccard(0.6);
        let r: Vec<(u64, Vec<u32>)> = sample_records(9);
        let s: Vec<(u64, Vec<u32>)> = sample_records(9)
            .into_iter()
            .map(|(i, t)| (100 + i, t))
            .collect();
        let expected: BTreeSet<(u64, u64)> = setsim::naive::rs_join(&r, &s, &t)
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect();
        let blocks = 3u32;
        let mut vals: Vec<(Stage2Key, Projection)> = Vec::new();
        for (rid, tokens) in &r {
            let b = (stable_hash(rid) % u64::from(blocks)) as u32;
            vals.push((blocked(0, b, KIND_LOAD, 0, REL_R), (*rid, tokens.clone())));
        }
        for (sid, tokens) in &s {
            for pass in 0..blocks {
                vals.push((
                    blocked(0, pass, KIND_STREAM, tokens.len() as u32, REL_S),
                    (*sid, tokens.clone()),
                ));
            }
        }
        vals.sort_by_key(|a| a.0);
        let key = vals[0].0;
        let mut out = VecEmitter::new();
        MapBlocksReducer::new(Ownership::one_group(t), true)
            .reduce(&key, &mut vals.into_iter(), &mut out, &ctx())
            .unwrap();
        let got: BTreeSet<(u64, u64)> = out.pairs.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, expected);
    }
}
