//! Stage 3: record join — materializing actual pairs of joined records.
//!
//! Stage 2 produced `(rid1, rid2, sim)` triples, each pair once (the paper
//! eliminates duplicates here; stage 2's ownership rule leaves none); this
//! stage brings back the full records.
//!
//! * **BRJ** (Basic Record Join) — two jobs. Job 1 consumes *both* the
//!   original records and the RID-pair list (a multi-input job; the mapper
//!   dispatches on the input file name) and groups each record with the
//!   pairs that reference it. Only records some pair names can reach the
//!   output, so the driver first publishes the set of participating RIDs
//!   ([`Participants`]) and the mapper drops every other record before the
//!   shuffle — a semi-join reduction; when the set exceeds a task's memory
//!   budget the job runs unfiltered, as in the paper. Job 2 groups the two
//!   half-filled pairs by their RID-pair key and outputs the assembled
//!   record pair.
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
    codec_struct, seq_input, text_input, Cluster, Counter, Dfs, Emit, IdentityMapper, Job, JobSpec,
    Mapper, MrError, PipelineMetrics, Reducer, Result, TaskContext,
};

use crate::config::{JoinConfig, Stage3Algo};
use crate::keys::{Relations, REL_R, REL_S};
use crate::named::Named;
use crate::recovery::{self, run_spec, Recovery};
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

/// The RIDs stage 2's pairs name: the only records that can reach the
/// output. One sorted list per relation, because R and S number their
/// records independently; a self-join keeps both columns in `r`.
#[derive(Debug, Default, PartialEq, Eq)]
struct Participants {
    r: Vec<u64>,
    s: Vec<u64>,
}

impl Participants {
    /// Collect the participating RIDs from stage 2's pair file.
    fn from_pairs(dfs: &Dfs, pairs_path: &str, rs: bool) -> Result<Self> {
        let mut p = Participants::default();
        for line in dfs.read_text(pairs_path)? {
            let (a, b, _) = parse_pair_line(&line)?;
            p.r.push(a);
            if rs { &mut p.s } else { &mut p.r }.push(b);
        }
        for list in [&mut p.r, &mut p.s] {
            list.sort_unstable();
            list.dedup();
        }
        Ok(p)
    }

    fn len(&self) -> usize {
        self.r.len() + self.s.len()
    }

    /// What a task holding the set charges its memory gauge.
    fn bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<u64>()) as u64
    }

    fn contains(&self, rel: u8, rid: u64) -> bool {
        let list = if rel == REL_S { &self.s } else { &self.r };
        list.binary_search(&rid).is_ok()
    }

    /// Publish the set as a seq file of `(relation, rid)` entries.
    fn write(&self, dfs: &Dfs, path: &str) -> Result<()> {
        let mut w = dfs.seq_writer(path)?;
        for (rel, list) in [(REL_R, &self.r), (REL_S, &self.s)] {
            for rid in list {
                w.write(&rel, rid);
            }
        }
        w.close()
    }

    fn read(dfs: &Dfs, path: &str) -> Result<Self> {
        let mut p = Participants::default();
        for (rel, rid) in dfs.read_seq::<u8, u64>(path)? {
            if rel == REL_S { &mut p.s } else { &mut p.r }.push(rid);
        }
        Ok(p)
    }

    /// The driver's half of the semi-join: derive the set from stage 2's
    /// pair file and publish it under `work` for job 1's mappers, unless it
    /// exceeds a task's memory budget. Returns the set's size and where it
    /// was published. Both follow from the pair file and the cluster config
    /// alone, so a resumed driver decides the same; no manifest covers the
    /// file, and one a crashed driver left is replaced.
    fn publish(
        cluster: &Cluster,
        pairs_path: &str,
        rs: bool,
        work: &str,
    ) -> Result<(usize, Option<String>)> {
        let dfs = cluster.dfs();
        let path = format!("{}/participants", work.trim_end_matches('/'));
        dfs.delete_prefix(&path);
        let participants = Participants::from_pairs(dfs, pairs_path, rs)?;
        let fits = cluster
            .config()
            .task_memory
            .is_none_or(|budget| participants.bytes() <= budget);
        if fits {
            participants.write(dfs, &path)?;
        }
        Ok((participants.len(), fits.then_some(path)))
    }
}

/// BRJ job-1 mapper: records and RID pairs share the job; the input file
/// name tells them apart.
#[derive(Clone)]
struct BrjFillMapper {
    /// The record format, and the policy for malformed *record* lines. Pair
    /// lines are always parsed strictly: the pipeline wrote them itself, so
    /// a malformed pair line is corruption, not dirty input.
    config: JoinConfig,
    relations: Relations,
    pairs_path: String,
    /// The published [`Participants`] file; `None` when the set does not
    /// fit a task's memory budget and every record is shuffled.
    participants_path: Option<String>,
    participants: Option<Arc<Participants>>,
    records_filtered: Named<Counter>,
}

impl BrjFillMapper {
    fn new(spec: &FillSpec) -> Self {
        BrjFillMapper {
            config: spec.config.clone(),
            relations: spec.relations.clone(),
            pairs_path: spec.pairs.clone(),
            participants_path: spec.participants.clone(),
            participants: None,
            records_filtered: Named::new("stage3.records_filtered"),
        }
    }
}

impl Mapper for BrjFillMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = (u64, u8);
    type OutValue = HalfValue;

    fn setup(&mut self, ctx: &TaskContext) -> Result<()> {
        if let Some(path) = &self.participants_path {
            let dfs = ctx.dfs();
            self.participants = Some(ctx.cache().get_or_load::<Participants, _>(
                "stage3.participants",
                ctx.memory(),
                || {
                    let p = Participants::read(dfs, path)?;
                    let bytes = p.bytes();
                    Ok((p, bytes))
                },
            )?);
        }
        Ok(())
    }

    fn map(
        &mut self,
        _off: &u64,
        line: &String,
        out: &mut dyn Emit<(u64, u8), HalfValue>,
        ctx: &TaskContext,
    ) -> Result<()> {
        if ctx.input_path.starts_with(self.pairs_path.as_str()) {
            let (a, b, sim) = parse_pair_line(line)?;
            let rel_b = if self.relations.is_rs() { REL_S } else { REL_R };
            out.emit((a, REL_R), (TAG_HALF, b, POS_FIRST, sim, String::new()))?;
            out.emit((b, rel_b), (TAG_HALF, a, POS_SECOND, sim, String::new()))?;
        } else {
            let rel = self.relations.tag_of(&ctx.input_path);
            let rid = match self.config.format.rid(line) {
                Ok(rid) => rid,
                Err(e) => return self.config.bad_records.on_bad_record(ctx, e),
            };
            if self
                .participants
                .as_ref()
                .is_some_and(|p| !p.contains(rel, rid))
            {
                self.records_filtered.get(ctx).incr();
                return Ok(());
            }
            out.emit((rid, rel), (TAG_RECORD, 0, 0, 0.0, line.clone()))?;
        }
        Ok(())
    }
}

/// BRJ job-1 reducer: one record + the pair halves that reference it →
/// half-filled pairs keyed by the RID pair, in `(other, pos)` order.
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
        if !rs || rel == REL_R {
            index.entry(a).or_default().push((b, POS_FIRST, sim));
            bytes += ENTRY_BYTES;
        }
        if !rs || rel == REL_S {
            index.entry(b).or_default().push((a, POS_SECOND, sim));
            bytes += ENTRY_BYTES;
        }
    }
    for list in index.values_mut() {
        list.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
    }
    Ok((index, bytes))
}

/// OPRJ mapper: loads the broadcast RID-pair list in setup (charging its
/// memory budget) and emits half-filled pairs for every referenced record.
#[derive(Clone)]
struct OprjMapper {
    config: JoinConfig,
    relations: Relations,
    pairs_path: String,
    index_r: Option<Arc<PairIndex>>,
    index_s: Option<Arc<PairIndex>>,
}

impl Mapper for OprjMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = PairKey;
    type OutValue = (u8, String, f64);

    fn setup(&mut self, ctx: &TaskContext) -> Result<()> {
        let rs = self.relations.is_rs();
        let dfs = ctx.dfs().clone();
        let pairs_path = self.pairs_path.clone();
        self.index_r = Some(ctx.cache().get_or_load::<PairIndex, _>(
            "stage3.pair-index-r",
            ctx.memory(),
            || load_pair_index(&dfs, &pairs_path, REL_R, rs),
        )?);
        if rs {
            let dfs = ctx.dfs().clone();
            let pairs_path = self.pairs_path.clone();
            self.index_s = Some(ctx.cache().get_or_load::<PairIndex, _>(
                "stage3.pair-index-s",
                ctx.memory(),
                || load_pair_index(&dfs, &pairs_path, REL_S, true),
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
        let index = if self.relations.tag_of(&ctx.input_path) == REL_S {
            self.index_s.as_ref().expect("setup ran (S index)")
        } else {
            self.index_r.as_ref().expect("setup ran")
        };
        let rid = match self.config.format.rid(line) {
            Ok(rid) => rid,
            Err(e) => return self.config.bad_records.on_bad_record(ctx, e),
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
// The jobs, each one encodable value
// ---------------------------------------------------------------------------

const FILL_FACTORY: &str = "core.stage3.brj-fill";
const ASSEMBLE_FACTORY: &str = "core.stage3.brj-assemble";
const OPRJ_FACTORY: &str = "core.stage3.oprj";

/// Register the stage-3 jobs with worker processes: BRJ's two and OPRJ's
/// one.
pub(crate) fn register_process_jobs() {
    mapreduce::register_job_spec::<FillSpec>(FILL_FACTORY);
    mapreduce::register_job_spec::<AssembleSpec>(ASSEMBLE_FACTORY);
    mapreduce::register_job_spec::<OprjSpec>(OPRJ_FACTORY);
}

/// BRJ job 1: group every participating record with the pair halves that
/// name it.
struct FillSpec {
    relations: Relations,
    pairs: String,
    halves: String,
    /// Where [`Participants::publish`] put the set, if it fits.
    participants: Option<String>,
    config: JoinConfig,
}
codec_struct!(FillSpec {
    relations,
    pairs,
    halves,
    participants,
    config,
});

impl JobSpec for FillSpec {
    type Mapper = BrjFillMapper;
    type Reducer = BrjFillReducer;

    fn factory(&self) -> &'static str {
        FILL_FACTORY
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<BrjFillMapper, BrjFillReducer>> {
        let mut inputs = self.relations.splits(dfs)?;
        inputs.extend(text_input(dfs, &self.pairs)?);
        let mapper = BrjFillMapper::new(self);
        Ok(
            Job::new("stage3-brj-fill", mapper, BrjFillReducer::default())
                .inputs(inputs)
                .output_seq(&self.halves),
        )
    }
}

/// BRJ job 2: put the two halves of every pair together.
struct AssembleSpec {
    halves: String,
    joined: String,
}
codec_struct!(AssembleSpec { halves, joined });

impl JobSpec for AssembleSpec {
    type Mapper = IdentityMapper<PairKey, (u8, String, f64)>;
    type Reducer = AssembleReducer;

    fn factory(&self) -> &'static str {
        ASSEMBLE_FACTORY
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<Self::Mapper, AssembleReducer>> {
        let mapper = IdentityMapper::new();
        Ok(
            Job::new("stage3-brj-assemble", mapper, AssembleReducer::default())
                .inputs(seq_input(dfs, &self.halves)?)
                .output_seq(&self.joined),
        )
    }
}

/// OPRJ's one job.
struct OprjSpec {
    relations: Relations,
    pairs: String,
    joined: String,
    config: JoinConfig,
}
codec_struct!(OprjSpec {
    relations,
    pairs,
    joined,
    config,
});

impl JobSpec for OprjSpec {
    type Mapper = OprjMapper;
    type Reducer = AssembleReducer;

    fn factory(&self) -> &'static str {
        OPRJ_FACTORY
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<OprjMapper, AssembleReducer>> {
        let mapper = OprjMapper {
            config: self.config.clone(),
            relations: self.relations.clone(),
            pairs_path: self.pairs.clone(),
            index_r: None,
            index_s: None,
        };
        Ok(Job::new("stage3-oprj", mapper, AssembleReducer::default())
            .inputs(self.relations.splits(dfs)?)
            .output_seq(&self.joined))
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
    let relations = Relations::new(records, None);
    let rec = &mut Recovery::disabled();
    run_with(cluster, &relations, pairs_path, config, work, rec)
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
    let relations = Relations::new(r_records, Some(s_records));
    let rec = &mut Recovery::disabled();
    run_with(cluster, &relations, pairs_path, config, work, rec)
}

/// The stage-3 driver, self-join and R-S alike, with resume support (see
/// [`crate::recovery`]).
pub(crate) fn run_with(
    cluster: &Cluster,
    relations: &Relations,
    pairs_path: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    config.validate().map_err(MrError::InvalidConfig)?;
    let work = work.trim_end_matches('/');
    let (joined, halves) = (format!("{work}/joined"), format!("{work}/halves"));
    let mut metrics = PipelineMetrics::default();
    let tag = recovery::stage3_tag(config);
    let mut inputs: Vec<&str> = relations.paths().collect();
    inputs.push(pairs_path);
    match config.stage3 {
        Stage3Algo::Brj => {
            let ran = rec.run_or_skip(cluster, "stage3-brj-fill", &inputs, &tag, &halves, |fp| {
                // Semi-join reduction: the mappers shuffle only the records
                // some pair names.
                let (named, participants) =
                    Participants::publish(cluster, pairs_path, relations.is_rs(), work)?;
                let spec = FillSpec {
                    relations: relations.clone(),
                    pairs: pairs_path.to_string(),
                    halves: halves.clone(),
                    participants,
                    config: config.clone(),
                };
                let mut jm = run_spec(cluster, &spec, fp)?;
                jm.counters
                    .push(("stage3.participants".to_string(), named as u64));
                Ok(jm)
            });
            metrics.push(ran?);
            let spec = AssembleSpec {
                halves: halves.clone(),
                joined: joined.clone(),
            };
            let ran = rec.run_or_skip(
                cluster,
                "stage3-brj-assemble",
                &[&halves],
                &tag,
                &joined,
                |fp| run_spec(cluster, &spec, fp),
            );
            metrics.push(ran?);
        }
        Stage3Algo::Oprj => {
            let spec = OprjSpec {
                relations: relations.clone(),
                pairs: pairs_path.to_string(),
                joined: joined.clone(),
                config: config.clone(),
            };
            let ran = rec.run_or_skip(cluster, "stage3-oprj", &inputs, &tag, &joined, |fp| {
                run_spec(cluster, &spec, fp)
            });
            metrics.push(ran?);
        }
    }
    Ok((joined, metrics))
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

    fn fill_mapper(s_path: Option<&str>, participants_path: Option<&str>) -> BrjFillMapper {
        BrjFillMapper::new(&FillSpec {
            relations: Relations::new("/r", s_path),
            pairs: "/work/ridpairs".into(),
            halves: "/work/halves".into(),
            participants: participants_path.map(str::to_string),
            config: JoinConfig::recommended(),
        })
    }

    #[test]
    fn run_refuses_a_bad_config_before_any_job() {
        use crate::recovery::tests::refuses_a_bad_config;
        refuses_a_bad_config(|c, bad| run_self(c, "/in", "/work/ridpairs", bad, "/work"));
        refuses_a_bad_config(|c, bad| run_rs(c, "/r", "/s", "/work/ridpairs", bad, "/work"));
    }

    #[test]
    fn workers_build_every_stage3_job_from_the_bytes_the_driver_encodes() {
        use crate::recovery::tests::worker_builds_the_drivers_job as rebuilt;
        let dfs = Dfs::new(2, 16);
        let lines = |n: u64| (0..n).map(|i| format!("{i}\ttitle {i}\tauthor"));
        dfs.write_text("/r", lines(6)).unwrap();
        dfs.write_text("/s", lines(9)).unwrap();
        dfs.write_text("/work/ridpairs", ["1\t2\t0.9", "3\t4\t0.8"])
            .unwrap();
        let half = ((1u64, 2u64), (POS_FIRST, "1\tt\ta".to_string(), 0.9));
        dfs.write_seq("/work/halves", &[half]).unwrap();
        let count = |path: &str| dfs.splits(path).unwrap().len();
        let (halves, joined) = ("/work/halves".to_string(), "/work/joined".to_string());
        let config = JoinConfig {
            bad_records: crate::config::BadRecordPolicy::SkipUpTo(3),
            ..JoinConfig::recommended()
        };
        for s in [None, Some("/s")] {
            let relations = Relations::new("/r", s);
            let records = count("/r") + s.map_or(0, count);
            let fill = FillSpec {
                relations: relations.clone(),
                pairs: "/work/ridpairs".into(),
                halves: halves.clone(),
                participants: s.map(|_| "/work/participants".to_string()),
                config: config.clone(),
            };
            let splits = records + count("/work/ridpairs");
            let expected = ("stage3-brj-fill".to_string(), None, halves.clone(), splits);
            assert_eq!(rebuilt(&fill, &dfs), expected);
            let oprj = OprjSpec {
                relations,
                pairs: "/work/ridpairs".into(),
                joined: joined.clone(),
                config: config.clone(),
            };
            let expected = ("stage3-oprj".to_string(), None, joined.clone(), records);
            assert_eq!(rebuilt(&oprj, &dfs), expected);
        }
        let assemble = AssembleSpec {
            halves: halves.clone(),
            joined: joined.clone(),
        };
        let expected = (
            "stage3-brj-assemble".to_string(),
            None,
            joined,
            count("/work/halves"),
        );
        assert_eq!(rebuilt(&assemble, &dfs), expected);
    }

    #[test]
    fn brj_fill_mapper_dispatches_on_input_path() {
        let dfs = Dfs::new(1, 64);
        let mut m = fill_mapper(None, None);
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
    fn brj_fill_mapper_drops_records_no_pair_names() {
        let dfs = Dfs::new(1, 64);
        // R and S number their records independently: RID 7 joins as an R
        // record only, RID 3 as an S record only.
        dfs.write_text("/work/ridpairs/part-00000", ["7\t3\t0.9"])
            .unwrap();
        let p = Participants::from_pairs(&dfs, "/work/ridpairs", true).unwrap();
        assert_eq!((p.r.as_slice(), p.s.as_slice()), (&[7][..], &[3][..]));
        p.write(&dfs, "/work/participants").unwrap();
        assert_eq!(Participants::read(&dfs, "/work/participants").unwrap(), p);

        let mut m = fill_mapper(Some("/s"), Some("/work/participants"));
        let emitted = |m: &mut BrjFillMapper, c: &TaskContext, rid: u64| -> usize {
            let mut out = VecEmitter::new();
            m.map(&0, &format!("{rid}\ttitle\tauthor\tmisc"), &mut out, c)
                .unwrap();
            out.pairs.len()
        };
        let r_ctx = map_ctx_with_path(dfs.clone(), "/r");
        m.setup(&r_ctx).unwrap();
        assert_eq!(r_ctx.memory().used(), p.bytes(), "the set is charged");
        assert_eq!(emitted(&mut m, &r_ctx, 7), 1);
        assert_eq!(emitted(&mut m, &r_ctx, 3), 0, "3 joins only as an S record");
        assert_eq!(r_ctx.counter("stage3.records_filtered").get(), 1);
        let s_ctx = map_ctx_with_path(dfs, "/s/part-00000");
        assert_eq!(emitted(&mut m, &s_ctx, 3), 1);
        assert_eq!(emitted(&mut m, &s_ctx, 7), 0, "7 joins only as an R record");
    }

    #[test]
    fn participants_of_a_self_join_cover_both_columns() {
        let dfs = Dfs::new(1, 64);
        dfs.write_text("/pairs", ["1\t2\t0.9", "1\t3\t0.85", "9\t2\t0.8"])
            .unwrap();
        let p = Participants::from_pairs(&dfs, "/pairs", false).unwrap();
        assert_eq!(p.r, vec![1, 2, 3, 9]);
        assert!(p.s.is_empty());
        assert_eq!(p.bytes(), 32);
        assert!(p.contains(REL_R, 9) && !p.contains(REL_R, 4));
    }

    #[test]
    fn brj_fill_reducer_emits_one_half_per_pair_in_partner_order() {
        let dfs = Dfs::new(1, 64);
        let mut r = BrjFillReducer::default();
        let key = (5u64, 0u8);
        // Record 5 is the first member of (5, 9) and the second of (2, 5);
        // the halves arrive in shuffle order, not partner order.
        let vals = vec![
            (key, (TAG_HALF, 9, POS_FIRST, 0.9, String::new())),
            (key, (TAG_RECORD, 0, 0, 0.0, "5\tt\ta\tm".to_string())),
            (key, (TAG_HALF, 2, POS_SECOND, 0.8, String::new())),
        ];
        let mut out = VecEmitter::new();
        let c = ctx(Phase::Reduce, dfs);
        r.reduce(&key, &mut vals.into_iter(), &mut out, &c).unwrap();
        let keys: Vec<PairKey> = out.pairs.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(2, 5), (5, 9)]);
        assert_eq!(c.counter("stage3.halves").get(), 2, "one half per pair");
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
    fn pair_index_loads_each_column_sorted_by_partner() {
        let dfs = Dfs::new(1, 1024);
        dfs.write_text("/pairs", ["1\t3\t0.85", "1\t2\t0.9"])
            .unwrap();
        // Self-join mode: both columns indexed.
        let (index, bytes) = load_pair_index(&dfs, "/pairs", 0, false).unwrap();
        assert_eq!(
            index[&1],
            vec![(2, POS_FIRST, 0.9), (3, POS_FIRST, 0.85)],
            "entries sorted by partner, whatever the file order"
        );
        assert_eq!(index[&2].len(), 1);
        assert_eq!(index[&3].len(), 1);
        assert_eq!(bytes, 4 * 96, "one entry per column per pair");
        // R-S mode: the R side indexes only the first column.
        let (r_index, _) = load_pair_index(&dfs, "/pairs", 0, true).unwrap();
        assert!(r_index.contains_key(&1));
        assert!(!r_index.contains_key(&2));
        let (s_index, _) = load_pair_index(&dfs, "/pairs", 1, true).unwrap();
        assert!(s_index.contains_key(&2));
        assert!(!s_index.contains_key(&1));
    }
}
