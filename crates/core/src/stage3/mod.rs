//! Stage 3: record join — materializing actual pairs of joined records.
//!
//! Stage 2 produced `(rid1, rid2, sim)` triples; this stage brings back the
//! full records. Duplicate RID pairs from stage 2 are eliminated here, as in
//! the paper.
//!
//! * **BRJ** (Basic Record Join) — two jobs. Job 1 consumes *both* the
//!   original records and the RID-pair list (a multi-input job; the mapper
//!   dispatches on the input file name) and groups each record with the
//!   pairs that reference it. Job 2 groups the two half-filled pairs by
//!   their RID-pair key and outputs the assembled record pair.
//! * **OPRJ** (One-Phase Record Join) — one job. The RID-pair list is
//!   broadcast to every map task and indexed in memory (charging the task
//!   memory budget — this is the variant that dies with out-of-memory on
//!   large lists); mappers emit half-filled pairs directly and the single
//!   reduce assembles them.
//!
//! Output: a sequence file keyed by `(rid1, rid2)` with values
//! `(record line 1, record line 2, similarity)`.

use std::collections::HashMap;
use std::sync::Arc;

use mapreduce::{
    seq_input, text_input, Cluster, Counter, Emit, Job, Mapper, MrError, PipelineMetrics, Reducer,
    Result, TaskContext,
};

use crate::config::{BadRecordPolicy, JoinConfig, RecordFormat, Stage3Algo};
use crate::named::Named;
use crate::recovery::{self, Recovery};
use crate::stage2::parse_pair_line;

/// A fully joined output pair: the two record lines and their similarity.
pub type JoinedPair = (String, String, f64);

/// Key identifying a joined pair.
pub type PairKey = (u64, u64);

const TAG_RECORD: u8 = 0;
const TAG_HALF: u8 = 1;

/// Which side of the pair a record fills.
const POS_FIRST: u8 = 0;
const POS_SECOND: u8 = 1;

// ---------------------------------------------------------------------------
// BRJ job 1
// ---------------------------------------------------------------------------

/// Job-1 value: either a record line or a pair-half request.
/// `(tag, other_rid, pos, sim, payload)`.
type HalfValue = (u8, u64, u8, f64, String);

/// BRJ job-1 mapper: records and RID pairs share the job; the input file
/// name tells them apart.
#[derive(Clone)]
struct BrjFillMapper {
    format: RecordFormat,
    pairs_path: String,
    /// `Some(s_path)`: R-S mode; record inputs under this path are S.
    s_path: Option<String>,
    /// Policy for malformed *record* lines. Pair lines are always parsed
    /// strictly: the pipeline wrote them itself, so a malformed pair line
    /// is corruption, not dirty input.
    bad_records: BadRecordPolicy,
}

impl Mapper for BrjFillMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = (u64, u8);
    type OutValue = HalfValue;

    fn map(
        &mut self,
        _off: &u64,
        line: &String,
        out: &mut dyn Emit<(u64, u8), HalfValue>,
        ctx: &TaskContext,
    ) -> Result<()> {
        if ctx.input_path.starts_with(self.pairs_path.as_str()) {
            let (a, b, sim) = parse_pair_line(line)?;
            let (rel_a, rel_b) = if self.s_path.is_some() {
                (0u8, 1u8)
            } else {
                (0, 0)
            };
            out.emit((a, rel_a), (TAG_HALF, b, POS_FIRST, sim, String::new()))?;
            out.emit((b, rel_b), (TAG_HALF, a, POS_SECOND, sim, String::new()))?;
        } else {
            let rel = match &self.s_path {
                Some(s) if ctx.input_path.starts_with(s.as_str()) => 1u8,
                _ => 0,
            };
            let rid = match self.format.rid(line) {
                Ok(rid) => rid,
                Err(e) => return self.bad_records.on_bad_record(ctx, e),
            };
            out.emit((rid, rel), (TAG_RECORD, 0, 0, 0.0, line.clone()))?;
        }
        Ok(())
    }
}

/// BRJ job-1 reducer: one record + the pair halves that reference it →
/// half-filled pairs keyed by the RID pair. Duplicate halves (the same pair
/// verified by several stage-2 reducers) are dropped here.
#[derive(Clone)]
struct BrjFillReducer {
    halves: Named<Counter>,
}

impl Default for BrjFillReducer {
    fn default() -> Self {
        BrjFillReducer {
            halves: Named::new("stage3.halves"),
        }
    }
}

impl Reducer for BrjFillReducer {
    type Key = (u64, u8);
    type InValue = HalfValue;
    type OutKey = PairKey;
    type OutValue = (u8, String, f64);

    fn reduce(
        &mut self,
        key: &(u64, u8),
        values: &mut dyn Iterator<Item = ((u64, u8), HalfValue)>,
        out: &mut dyn Emit<PairKey, (u8, String, f64)>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let rid = key.0;
        let mut record: Option<String> = None;
        let mut halves: Vec<(u64, u8, f64)> = Vec::new();
        for (_, (tag, other, pos, sim, payload)) in values {
            if tag == TAG_RECORD {
                record = Some(payload);
            } else {
                halves.push((other, pos, sim));
            }
        }
        let Some(record) = record else {
            if halves.is_empty() {
                return Ok(());
            }
            return Err(MrError::TaskFailed(format!(
                "stage 3: RID {rid} referenced by {} pairs but its record is missing",
                halves.len()
            )));
        };
        halves.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        halves.dedup_by_key(|(other, pos, _)| (*other, *pos));
        for (other, pos, sim) in halves {
            let pair_key = if pos == POS_FIRST {
                (rid, other)
            } else {
                (other, rid)
            };
            self.halves.get(ctx).incr();
            out.emit(pair_key, (pos, record.clone(), sim))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Assembly reduce (BRJ job 2 and OPRJ)
// ---------------------------------------------------------------------------

/// Final reducer: for each RID-pair key, combine the two half-filled pairs
/// into the output record pair.
#[derive(Clone)]
struct AssembleReducer {
    joined_pairs: Named<Counter>,
}

impl Default for AssembleReducer {
    fn default() -> Self {
        AssembleReducer {
            joined_pairs: Named::new("stage3.joined_pairs"),
        }
    }
}

impl Reducer for AssembleReducer {
    type Key = PairKey;
    type InValue = (u8, String, f64);
    type OutKey = PairKey;
    type OutValue = JoinedPair;

    fn reduce(
        &mut self,
        key: &PairKey,
        values: &mut dyn Iterator<Item = (PairKey, (u8, String, f64))>,
        out: &mut dyn Emit<PairKey, JoinedPair>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let mut first: Option<String> = None;
        let mut second: Option<String> = None;
        let mut sim = 0.0;
        for (_, (pos, line, s)) in values {
            sim = s;
            if pos == POS_FIRST {
                first = Some(line);
            } else {
                second = Some(line);
            }
        }
        match (first, second) {
            (Some(a), Some(b)) => {
                self.joined_pairs.get(ctx).incr();
                out.emit(*key, (a, b, sim))
            }
            _ => Err(MrError::TaskFailed(format!(
                "stage 3: pair {key:?} is missing a half"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// OPRJ
// ---------------------------------------------------------------------------

/// The broadcast RID-pair index: rid → (other, pos, sim) entries.
type PairIndex = HashMap<u64, Vec<(u64, u8, f64)>>;

fn load_pair_index(
    dfs: &mapreduce::Dfs,
    pairs_path: &str,
    rel: u8,
    rs: bool,
) -> Result<(PairIndex, u64)> {
    // Per-entry heap footprint of the in-memory index: the (other, pos,
    // sim) tuple plus amortized Vec headroom and HashMap bucket overhead —
    // this is what makes OPRJ's broadcast list blow a task heap in the
    // paper's Section 6.2.
    const ENTRY_BYTES: u64 = 96;
    let mut index: PairIndex = HashMap::new();
    let mut bytes = 0u64;
    for line in dfs.read_text(pairs_path)? {
        let (a, b, sim) = parse_pair_line(&line)?;
        // In R-S mode each side indexes only its own column; in self-join
        // mode both columns index into the single relation.
        if !rs || rel == 0 {
            index.entry(a).or_default().push((b, POS_FIRST, sim));
            bytes += ENTRY_BYTES;
        }
        if !rs || rel == 1 {
            index.entry(b).or_default().push((a, POS_SECOND, sim));
            bytes += ENTRY_BYTES;
        }
    }
    for list in index.values_mut() {
        list.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
        list.dedup_by_key(|(other, pos, _)| (*other, *pos));
    }
    Ok((index, bytes))
}

/// OPRJ mapper: loads the broadcast RID-pair list in setup (charging its
/// memory budget) and emits half-filled pairs for every referenced record.
#[derive(Clone)]
struct OprjMapper {
    format: RecordFormat,
    pairs_path: String,
    s_path: Option<String>,
    bad_records: BadRecordPolicy,
    index_r: Option<Arc<PairIndex>>,
    index_s: Option<Arc<PairIndex>>,
}

impl Mapper for OprjMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = PairKey;
    type OutValue = (u8, String, f64);

    fn setup(&mut self, ctx: &TaskContext) -> Result<()> {
        let rs = self.s_path.is_some();
        let dfs = ctx.dfs().clone();
        let pairs_path = self.pairs_path.clone();
        self.index_r = Some(ctx.cache().get_or_load::<PairIndex, _>(
            "stage3.pair-index-r",
            ctx.memory(),
            || load_pair_index(&dfs, &pairs_path, 0, rs),
        )?);
        if rs {
            let dfs = ctx.dfs().clone();
            let pairs_path = self.pairs_path.clone();
            self.index_s = Some(ctx.cache().get_or_load::<PairIndex, _>(
                "stage3.pair-index-s",
                ctx.memory(),
                || load_pair_index(&dfs, &pairs_path, 1, true),
            )?);
        }
        Ok(())
    }

    fn map(
        &mut self,
        _off: &u64,
        line: &String,
        out: &mut dyn Emit<PairKey, (u8, String, f64)>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let is_s = matches!(&self.s_path, Some(s) if ctx.input_path.starts_with(s.as_str()));
        let index = if is_s {
            self.index_s.as_ref().expect("setup ran (S index)")
        } else {
            self.index_r.as_ref().expect("setup ran")
        };
        let rid = match self.format.rid(line) {
            Ok(rid) => rid,
            Err(e) => return self.bad_records.on_bad_record(ctx, e),
        };
        if let Some(entries) = index.get(&rid) {
            for (other, pos, sim) in entries {
                let pair_key = if *pos == POS_FIRST {
                    (rid, *other)
                } else {
                    (*other, rid)
                };
                out.emit(pair_key, (*pos, line.clone(), *sim))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Run stage 3 for a self-join. `record_inputs` is the original records
/// path; `pairs_path` is stage 2's output. Writes the joined pairs (seq
/// file) to `{work}/joined` and returns its path.
pub fn run_self(
    cluster: &Cluster,
    records: &str,
    pairs_path: &str,
    config: &JoinConfig,
    work: &str,
) -> Result<(String, PipelineMetrics)> {
    run_impl(
        cluster,
        records,
        None,
        pairs_path,
        config,
        work,
        &mut Recovery::disabled(),
    )
}

/// [`run_self`] with resume support (see [`crate::recovery`]).
pub fn run_self_with(
    cluster: &Cluster,
    records: &str,
    pairs_path: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    run_impl(cluster, records, None, pairs_path, config, work, rec)
}

/// Run stage 3 for an R-S join.
pub fn run_rs(
    cluster: &Cluster,
    r_records: &str,
    s_records: &str,
    pairs_path: &str,
    config: &JoinConfig,
    work: &str,
) -> Result<(String, PipelineMetrics)> {
    run_impl(
        cluster,
        r_records,
        Some(s_records),
        pairs_path,
        config,
        work,
        &mut Recovery::disabled(),
    )
}

/// [`run_rs`] with resume support (see [`crate::recovery`]).
pub fn run_rs_with(
    cluster: &Cluster,
    r_records: &str,
    s_records: &str,
    pairs_path: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    run_impl(
        cluster,
        r_records,
        Some(s_records),
        pairs_path,
        config,
        work,
        rec,
    )
}

fn run_impl(
    cluster: &Cluster,
    records: &str,
    s_records: Option<&str>,
    pairs_path: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    let joined_path = format!("{}/joined", work.trim_end_matches('/'));
    let mut metrics = PipelineMetrics::default();
    let tag = recovery::stage3_tag(config);
    let mut record_paths = vec![records];
    if let Some(s) = s_records {
        record_paths.push(s);
    }
    match config.stage3 {
        Stage3Algo::Brj => {
            let halves_path = format!("{}/halves", work.trim_end_matches('/'));
            let mut fill_inputs = record_paths.clone();
            fill_inputs.push(pairs_path);
            let fp1 =
                recovery::job_fingerprint(cluster.dfs(), "stage3-brj-fill", &fill_inputs, &tag);
            if rec.should_skip(cluster, "stage3-brj-fill", &halves_path, fp1) {
                metrics.push(Recovery::skipped_job_metrics("stage3-brj-fill"));
            } else {
                let mapper = BrjFillMapper {
                    format: config.format.clone(),
                    pairs_path: pairs_path.to_string(),
                    s_path: s_records.map(str::to_string),
                    bad_records: config.bad_records,
                };
                let mut inputs = text_input(cluster.dfs(), records)?;
                if let Some(s) = s_records {
                    inputs.extend(text_input(cluster.dfs(), s)?);
                }
                inputs.extend(text_input(cluster.dfs(), pairs_path)?);
                let job1 = Job::new("stage3-brj-fill", mapper, BrjFillReducer::default())
                    .inputs(inputs)
                    .output_seq(&halves_path)
                    .fingerprint(fp1);
                metrics.push(cluster.run(job1)?);
            }

            let fp2 = recovery::job_fingerprint(
                cluster.dfs(),
                "stage3-brj-assemble",
                &[&halves_path],
                &tag,
            );
            if rec.should_skip(cluster, "stage3-brj-assemble", &joined_path, fp2) {
                metrics.push(Recovery::skipped_job_metrics("stage3-brj-assemble"));
            } else {
                let job2 = Job::new(
                    "stage3-brj-assemble",
                    mapreduce::IdentityMapper::<PairKey, (u8, String, f64)>::new(),
                    AssembleReducer::default(),
                )
                .inputs(seq_input::<PairKey, (u8, String, f64)>(
                    cluster.dfs(),
                    &halves_path,
                )?)
                .output_seq(&joined_path)
                .fingerprint(fp2);
                metrics.push(cluster.run(job2)?);
            }
        }
        Stage3Algo::Oprj => {
            let mut oprj_inputs = record_paths.clone();
            oprj_inputs.push(pairs_path);
            let fp = recovery::job_fingerprint(cluster.dfs(), "stage3-oprj", &oprj_inputs, &tag);
            if rec.should_skip(cluster, "stage3-oprj", &joined_path, fp) {
                metrics.push(Recovery::skipped_job_metrics("stage3-oprj"));
            } else {
                let mapper = OprjMapper {
                    format: config.format.clone(),
                    pairs_path: pairs_path.to_string(),
                    s_path: s_records.map(str::to_string),
                    bad_records: config.bad_records,
                    index_r: None,
                    index_s: None,
                };
                let mut inputs = text_input(cluster.dfs(), records)?;
                if let Some(s) = s_records {
                    inputs.extend(text_input(cluster.dfs(), s)?);
                }
                let job = Job::new("stage3-oprj", mapper, AssembleReducer::default())
                    .inputs(inputs)
                    .output_seq(&joined_path)
                    .fingerprint(fp);
                metrics.push(cluster.run(job)?);
            }
        }
    }
    Ok((joined_path, metrics))
}

/// Read the final joined pairs from `joined_path`, sorted by RID pair.
pub fn read_joined(cluster: &Cluster, joined_path: &str) -> Result<Vec<(PairKey, JoinedPair)>> {
    let mut out: Vec<(PairKey, JoinedPair)> = cluster.dfs().read_seq(joined_path)?;
    out.sort_by_key(|a| a.0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::{Cache, Counters, Dfs, MemoryGauge, Phase, VecEmitter};

    fn ctx(phase: Phase, dfs: Dfs) -> TaskContext {
        TaskContext::new(
            phase,
            0,
            0,
            1,
            Counters::new(),
            MemoryGauge::unlimited("t"),
            Cache::new(),
            dfs,
        )
    }

    fn map_ctx_with_path(dfs: Dfs, path: &str) -> TaskContext {
        let mut c = ctx(Phase::Map, dfs);
        c.input_path = path.to_string();
        c
    }

    #[test]
    fn brj_fill_mapper_dispatches_on_input_path() {
        let dfs = Dfs::new(1, 64);
        let mut m = BrjFillMapper {
            format: RecordFormat::bibliographic(),
            pairs_path: "/work/ridpairs".into(),
            s_path: None,
            bad_records: BadRecordPolicy::Strict,
        };
        // A record line.
        let c = map_ctx_with_path(dfs.clone(), "/records");
        let mut out = VecEmitter::new();
        m.map(&0, &"7\ttitle\tauthor\tmisc".to_string(), &mut out, &c)
            .unwrap();
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].0, (7, 0));
        assert_eq!(out.pairs[0].1 .0, TAG_RECORD);

        // A pair line emits both halves.
        let c = map_ctx_with_path(dfs, "/work/ridpairs/part-00000");
        let mut out = VecEmitter::new();
        m.map(&0, &"3\t9\t0.9".to_string(), &mut out, &c).unwrap();
        assert_eq!(out.pairs.len(), 2);
        assert_eq!(out.pairs[0].0, (3, 0));
        assert_eq!(out.pairs[1].0, (9, 0));
        assert_eq!(out.pairs[0].1 .2, POS_FIRST);
        assert_eq!(out.pairs[1].1 .2, POS_SECOND);
    }

    #[test]
    fn brj_fill_reducer_dedups_duplicate_halves() {
        let dfs = Dfs::new(1, 64);
        let mut r = BrjFillReducer::default();
        let key = (5u64, 0u8);
        // One record plus the same pair (5, 9) reported twice (two stage-2
        // reducers verified it).
        let vals = vec![
            (key, (TAG_RECORD, 0, 0, 0.0, "5\tt\ta\tm".to_string())),
            (key, (TAG_HALF, 9, POS_FIRST, 0.9, String::new())),
            (key, (TAG_HALF, 9, POS_FIRST, 0.9, String::new())),
        ];
        let mut out = VecEmitter::new();
        r.reduce(
            &key,
            &mut vals.into_iter(),
            &mut out,
            &ctx(Phase::Reduce, dfs),
        )
        .unwrap();
        assert_eq!(out.pairs.len(), 1, "duplicates must collapse");
        assert_eq!(out.pairs[0].0, (5, 9));
    }

    #[test]
    fn brj_fill_reducer_errors_on_missing_record() {
        let dfs = Dfs::new(1, 64);
        let mut r = BrjFillReducer::default();
        let key = (5u64, 0u8);
        let vals = vec![(key, (TAG_HALF, 9, POS_FIRST, 0.9, String::new()))];
        let err = r
            .reduce(
                &key,
                &mut vals.into_iter(),
                &mut VecEmitter::new(),
                &ctx(Phase::Reduce, dfs),
            )
            .unwrap_err();
        assert!(matches!(err, MrError::TaskFailed(_)));
    }

    #[test]
    fn assemble_reducer_pairs_halves() {
        let dfs = Dfs::new(1, 64);
        let mut r = AssembleReducer::default();
        let key = (1u64, 2u64);
        let vals = vec![
            (key, (POS_FIRST, "rec1".to_string(), 0.88)),
            (key, (POS_SECOND, "rec2".to_string(), 0.88)),
        ];
        let mut out = VecEmitter::new();
        r.reduce(
            &key,
            &mut vals.into_iter(),
            &mut out,
            &ctx(Phase::Reduce, dfs),
        )
        .unwrap();
        assert_eq!(
            out.pairs,
            vec![((1, 2), ("rec1".to_string(), "rec2".to_string(), 0.88))]
        );
    }

    #[test]
    fn assemble_reducer_errors_on_lone_half() {
        let dfs = Dfs::new(1, 64);
        let mut r = AssembleReducer::default();
        let key = (1u64, 2u64);
        let vals = vec![(key, (POS_FIRST, "rec1".to_string(), 0.88))];
        let err = r
            .reduce(
                &key,
                &mut vals.into_iter(),
                &mut VecEmitter::new(),
                &ctx(Phase::Reduce, dfs),
            )
            .unwrap_err();
        assert!(matches!(err, MrError::TaskFailed(_)));
    }

    #[test]
    fn pair_index_loads_and_dedups() {
        let dfs = Dfs::new(1, 1024);
        dfs.write_text("/pairs", ["1\t2\t0.9", "1\t2\t0.9", "1\t3\t0.85"])
            .unwrap();
        // Self-join mode: both columns indexed.
        let (index, bytes) = load_pair_index(&dfs, "/pairs", 0, false).unwrap();
        assert_eq!(index[&1].len(), 2, "rid 1 pairs with 2 and 3 (deduped)");
        assert_eq!(index[&2].len(), 1);
        assert_eq!(index[&3].len(), 1);
        assert!(bytes > 0);
        // R-S mode: the R side indexes only the first column.
        let (r_index, _) = load_pair_index(&dfs, "/pairs", 0, true).unwrap();
        assert!(r_index.contains_key(&1));
        assert!(!r_index.contains_key(&2));
        let (s_index, _) = load_pair_index(&dfs, "/pairs", 1, true).unwrap();
        assert!(s_index.contains_key(&2));
        assert!(!s_index.contains_key(&1));
    }
}
