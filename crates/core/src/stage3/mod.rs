//! Stage 3: record join — materializing actual pairs of joined records.
//!
//! Stage 2 produced `(rid1, rid2, sim)` triples, each pair once (the paper
//! eliminates duplicates here; stage 2's ownership rule leaves none); this
//! stage brings back the full records.
//!
//! * **BRJ** (Basic Record Join) — two chained reduce-side joins,
//!   `(pairs ⋈ column 1) ⋈ column 2`, each a multi-input job whose mapper
//!   dispatches on the input file name. Job 1 reads the first-column
//!   relation (R; the one file of a self-join) and the RID-pair list, keys
//!   both by the first RID and writes, per pair `(a, b, sim)`, one *fill*
//!   `b → (a, sim, a's line)`. Job 2 reads the second-column relation (S)
//!   and the fills, keys both by the second RID and outputs the assembled
//!   record pair. In a self-join job 1 has already read every record job 2
//!   needs, so it *forwards* them among its fills and job 2 reads no
//!   relation: the input is scanned once. Every participating record
//!   crosses each shuffle once and only the first member is copied per
//!   pair — a deviation from the paper, whose phase 2 regroups two full
//!   half-pairs by RID pair (DESIGN.md §19c). Only records some pair names
//!   can reach the output, so the driver first publishes the set of
//!   participating RIDs per column ([`Participants`]) and the mappers drop
//!   every other record before the shuffle — a semi-join reduction; when
//!   the set exceeds a task's memory budget both jobs run unfiltered, as in
//!   the paper.
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
    codec_struct, group_by, partition_by, text_input, Cluster, Counter, Dfs, Emit, Job, JobSpec,
    Mapper, MrError, PipelineMetrics, Reducer, Result, TaskContext,
};

use crate::config::{JoinConfig, Stage3Algo};
use crate::keys::{is_under, Relations, REL_R, REL_S};
use crate::named::Named;
use crate::recovery::{self, run_spec, Recovery};
use crate::stage2::parse_pair_line;

/// A fully joined output pair: the two record lines and their similarity.
pub type JoinedPair = (String, String, f64);

/// Key identifying a joined pair.
pub type PairKey = (u64, u64);

/// Which side of the pair a record fills — and, for BRJ, which pair column
/// a job joins its relation on.
const POS_FIRST: u8 = 0;
const POS_SECOND: u8 = 1;

/// The pair column of `pos` as an index; a `pos` decoded from a damaged
/// spec is the second.
fn column(pos: u8) -> usize {
    usize::from(pos != POS_FIRST)
}

// ---------------------------------------------------------------------------
// BRJ: one mapper and one reducer, run once per pair column
// ---------------------------------------------------------------------------

/// Shuffle key of both BRJ jobs: `(rid, tag, partner)`, partitioned and
/// grouped on the RID alone. The natural sort then delivers a record
/// ([`TAG_RECORD`], partner 0) ahead of the side entries naming it, and
/// those in partner order, so the reducer streams.
type BrjKey = (u64, u8, u64);

/// Shuffle value: `(sim, line)`. A record carries its own line, a pair
/// line of job 1 none, a fill of job 2 the first member's.
type BrjValue = (f64, String);

const TAG_RECORD: u8 = 0;
const TAG_SIDE: u8 = 1;

/// Format job 1's output `((a, b), (a's line, "", sim))` as a fill line: a
/// pair line turned to lead with `b`, then `a`'s record. A forwarded record
/// is the fill `(a, a)`: no self-join pair names a record twice.
fn format_fill_line(k: &PairKey, v: &JoinedPair) -> String {
    format!("{}\t{}\t{}\t{}", k.1, k.0, v.2, v.0)
}

/// The RIDs stage 2's pairs name: the only records that can reach the
/// output. One sorted list per pair column ([`POS_FIRST`], [`POS_SECOND`]):
/// job 1 joins the first column's relation, job 2 the second's. In a
/// self-join job 1 keeps both columns, to forward the second.
#[derive(Debug, Default, PartialEq, Eq)]
struct Participants([Vec<u64>; 2]);

impl Participants {
    /// Collect the participating RIDs from stage 2's pair file.
    fn from_pairs(dfs: &Dfs, pairs_path: &str) -> Result<Self> {
        let mut p = Participants::default();
        for line in dfs.read_text(pairs_path)? {
            let (a, b, _) = parse_pair_line(&line)?;
            p.0[0].push(a);
            p.0[1].push(b);
        }
        for list in &mut p.0 {
            list.sort_unstable();
            list.dedup();
        }
        Ok(p)
    }

    /// Publish the set as a seq file of `(column, rid)` entries.
    fn write(&self, dfs: &Dfs, path: &str) -> Result<()> {
        let mut w = dfs.seq_writer(path)?;
        for (pos, list) in [POS_FIRST, POS_SECOND].into_iter().zip(&self.0) {
            for rid in list {
                w.write(&pos, rid);
            }
        }
        w.close()
    }

    /// The sorted RIDs of a published set that a mapper of column `pos`
    /// keeps: its own column, and under `forward` the other one too.
    fn read_kept(dfs: &Dfs, path: &str, pos: u8, forward: bool) -> Result<Vec<u64>> {
        let entries = dfs.read_seq::<u8, u64>(path)?;
        let kept = entries.into_iter().filter(|(p, _)| forward || *p == pos);
        let mut kept: Vec<u64> = kept.map(|(_, rid)| rid).collect();
        kept.sort_unstable();
        kept.dedup();
        Ok(kept)
    }

    /// The driver's half of the semi-join: derive the set from stage 2's
    /// pair file and publish it under `work` for the mappers of both jobs,
    /// unless what one of them keeps exceeds a task's memory budget. Returns
    /// how many RIDs each job's mappers keep (under `forward` job 1 keeps
    /// both columns) and where the set was published. Both follow from the
    /// pair file and the cluster config alone, so a resumed driver decides
    /// the same; no manifest covers the file, and one a crashed driver left
    /// is replaced.
    fn publish(
        cluster: &Cluster,
        pairs_path: &str,
        work: &str,
        forward: bool,
    ) -> Result<([usize; 2], Option<String>)> {
        let dfs = cluster.dfs();
        let path = format!("{work}/participants");
        dfs.delete_prefix(&path);
        let participants = Participants::from_pairs(dfs, pairs_path)?;
        let [first, second] = &participants.0;
        let second_only = second.iter().filter(|b| first.binary_search(b).is_err());
        let forwarded = if forward { second_only.count() } else { 0 };
        let kept = [first.len() + forwarded, second.len()];
        let fits = cluster.config().task_memory.is_none_or(|budget| {
            let bytes = |rids: &usize| (rids * std::mem::size_of::<u64>()) as u64;
            kept.iter().all(|rids| bytes(rids) <= budget)
        });
        if fits {
            participants.write(dfs, &path)?;
        }
        Ok((kept, fits.then_some(path)))
    }
}

/// BRJ mapper: one relation's records and the job's side input — the RID
/// pairs (job 1) or job 1's fills (job 2) — share the job; the input file
/// name tells them apart.
#[derive(Clone)]
struct BrjMapper {
    /// The record format, and the policy for malformed *record* lines. Side
    /// lines are always parsed strictly: the pipeline wrote them itself, so
    /// a malformed one is corruption, not dirty input.
    config: JoinConfig,
    pos: u8,
    /// Keep the other column's participants too, to forward them.
    forward: bool,
    /// A fill of a record with itself is the record, forwarded by job 1.
    forwarded: bool,
    side_path: String,
    /// The published [`Participants`] file; `None` when the set does not
    /// fit a task's memory budget and every record is shuffled.
    participants_path: Option<String>,
    participants: Option<Arc<Vec<u64>>>,
    records_filtered: Named<Counter>,
    /// The value being emitted, kept for its capacity.
    value: BrjValue,
}

impl BrjMapper {
    fn new(spec: &BrjSpec) -> Self {
        BrjMapper {
            config: spec.config.clone(),
            pos: spec.pos,
            forward: spec.forward,
            forwarded: spec.records.is_none(),
            side_path: spec.side.clone(),
            participants_path: spec.participants.clone(),
            participants: None,
            records_filtered: Named::new("stage3.records_filtered"),
            value: (0.0, String::new()),
        }
    }

    /// Emit `(sim, record)` under `key` through the kept value.
    fn emit(
        &mut self,
        out: &mut dyn Emit<BrjKey, BrjValue>,
        key: BrjKey,
        sim: f64,
        record: &str,
    ) -> Result<()> {
        self.value.0 = sim;
        self.value.1.clear();
        self.value.1.push_str(record);
        out.emit_ref(&key, &self.value)
    }
}

impl Mapper for BrjMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = BrjKey;
    type OutValue = BrjValue;

    fn setup(&mut self, ctx: &TaskContext) -> Result<()> {
        if let Some(path) = &self.participants_path {
            let (dfs, pos, forward) = (ctx.dfs(), self.pos, self.forward);
            self.participants = Some(ctx.cache().get_or_load::<Vec<u64>, _>(
                "stage3.participants",
                ctx.memory(),
                || {
                    let kept = Participants::read_kept(dfs, path, pos, forward)?;
                    let bytes = std::mem::size_of_val(kept.as_slice()) as u64;
                    Ok((kept, bytes))
                },
            )?);
        }
        Ok(())
    }

    fn map(
        &mut self,
        _off: &u64,
        line: &String,
        out: &mut dyn Emit<BrjKey, BrjValue>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let (rid, record) = if is_under(&ctx.input_path, &self.side_path) {
            // `rid \t partner \t sim`, and on a fill the first member's
            // record after a third tab.
            let (head, record) = match (self.pos, line.match_indices('\t').nth(2)) {
                (POS_FIRST, None) => (line.as_str(), ""),
                (POS_SECOND, Some((at, _))) => (&line[..at], &line[at + 1..]),
                _ => return Err(MrError::TaskFailed(format!("bad BRJ side line: {line:?}"))),
            };
            let (rid, partner, sim) = parse_pair_line(head)?;
            if !(self.forwarded && partner == rid) {
                return self.emit(out, (rid, TAG_SIDE, partner), sim, record);
            }
            (rid, record)
        } else {
            match self.config.format.rid(line) {
                Ok(rid) => (rid, line.as_str()),
                Err(e) => return self.config.bad_records.on_bad_record(ctx, e),
            }
        };
        if self
            .participants
            .as_ref()
            .is_some_and(|p| p.binary_search(&rid).is_err())
        {
            self.records_filtered.get(ctx).incr();
            return Ok(());
        }
        self.emit(out, (rid, TAG_RECORD, 0), 0.0, record)
    }
}

/// BRJ reducer: one record, then the side entries naming it in partner
/// order. Job 1 turns each pair `(rid, b, sim)` into a fill of `b` carrying
/// this record, and in a self-join forwards the record itself; job 2 turns
/// each fill `(rid, a, sim, a's line)` into the joined pair.
#[derive(Clone)]
struct BrjReducer {
    pos: u8,
    forward: bool,
    emitted: Named<Counter>,
}

impl BrjReducer {
    fn new(spec: &BrjSpec) -> Self {
        let counter = ["stage3.fills", "stage3.joined_pairs"][column(spec.pos)];
        BrjReducer {
            pos: spec.pos,
            forward: spec.forward,
            emitted: Named::new(counter),
        }
    }
}

impl Reducer for BrjReducer {
    type Key = BrjKey;
    type InValue = BrjValue;
    type OutKey = PairKey;
    type OutValue = JoinedPair;

    fn reduce(
        &mut self,
        key: &BrjKey,
        values: &mut dyn Iterator<Item = (BrjKey, BrjValue)>,
        out: &mut dyn Emit<PairKey, JoinedPair>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let rid = key.0;
        let mut record: Option<String> = None;
        for ((_, tag, partner), (sim, line)) in values {
            if tag == TAG_RECORD {
                if self.forward {
                    out.emit((rid, rid), (line.clone(), String::new(), 0.0))?;
                }
                record = Some(line);
                continue;
            }
            let Some(record) = &record else {
                return Err(MrError::TaskFailed(format!(
                    "stage 3: RID {rid} is named by a pair but its record is missing"
                )));
            };
            self.emitted.get(ctx).incr();
            if self.pos == POS_FIRST {
                out.emit((rid, partner), (record.clone(), String::new(), sim))?;
            } else {
                out.emit((partner, rid), (line, record.clone(), sim))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// OPRJ
// ---------------------------------------------------------------------------

/// OPRJ's reducer: for each RID-pair key, combine the two half-filled pairs
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

/// BRJ's jobs by pair column: `(job name, factory)`.
const BRJ_JOBS: [(&str, &str); 2] = [
    ("stage3-brj-fill", FILL_FACTORY),
    ("stage3-brj-assemble", ASSEMBLE_FACTORY),
];

/// Register the stage-3 jobs with worker processes: BRJ's two and OPRJ's
/// one.
pub(crate) fn register_process_jobs() {
    mapreduce::register_job_spec::<BrjSpec>(FILL_FACTORY);
    mapreduce::register_job_spec::<BrjSpec>(ASSEMBLE_FACTORY);
    mapreduce::register_job_spec::<OprjSpec>(OPRJ_FACTORY);
}

/// One BRJ job: join the relation of pair column `pos` with the side input
/// keyed by that column.
struct BrjSpec {
    /// [`POS_FIRST`] for `stage3-brj-fill`, [`POS_SECOND`] for
    /// `stage3-brj-assemble`.
    pos: u8,
    /// The relation of the column; `None` for job 2 of a self-join, which
    /// finds its records among the fills.
    records: Option<String>,
    /// Job 1 of a self-join, the one job that reads its relation: forward
    /// the second column's records among the fills.
    forward: bool,
    /// Stage 2's pairs for job 1, job 1's fills for job 2.
    side: String,
    out: String,
    /// Where [`Participants::publish`] put the set, if it fits.
    participants: Option<String>,
    config: JoinConfig,
}
codec_struct!(BrjSpec {
    pos,
    records,
    forward,
    side,
    out,
    participants,
    config,
});

impl BrjSpec {
    /// `(job name, factory)` of the spec's pair column.
    fn job(&self) -> (&'static str, &'static str) {
        BRJ_JOBS[column(self.pos)]
    }
}

impl JobSpec for BrjSpec {
    type Mapper = BrjMapper;
    type Reducer = BrjReducer;

    fn factory(&self) -> &'static str {
        self.job().1
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<BrjMapper, BrjReducer>> {
        // The side input first: without the sort below, its entries would
        // reach a reducer ahead of the record they name.
        let mut inputs = text_input(dfs, &self.side)?;
        if let Some(records) = &self.records {
            inputs.extend(text_input(dfs, records)?);
        }
        let job = Job::new(self.job().0, BrjMapper::new(self), BrjReducer::new(self))
            .inputs(inputs)
            .partitioner(partition_by(|k: &BrjKey| k.0))
            .group_eq(group_by(|k: &BrjKey| k.0));
        Ok(if self.pos == POS_FIRST {
            job.output_text(&self.out, Arc::new(format_fill_line))
        } else {
            job.output_seq(&self.out)
        })
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
    relations.validate()?;
    let work = work.trim_end_matches('/');
    let joined = format!("{work}/joined");
    let mut metrics = PipelineMetrics::default();
    let tag = recovery::stage3_tag(config);
    match config.stage3 {
        Stage3Algo::Brj => {
            let fills = format!("{work}/fills");
            // A self-join scans its relation once: job 1 forwards what job
            // 2 needs of it, and job 2 has no relation to read.
            let forward = !relations.is_rs();
            let jobs = [
                (Some(relations.r.as_str()), pairs_path, &fills),
                (relations.s.as_deref(), fills.as_str(), &joined),
            ];
            // Semi-join reduction: the mappers shuffle only the records
            // some pair names. Published by whichever job runs first, so a
            // resume that skips job 1 still filters job 2.
            let mut published = None;
            for (pos, (records, side, out)) in jobs.into_iter().enumerate() {
                let name = BRJ_JOBS[pos].0;
                let inputs: Vec<&str> = records.into_iter().chain([side]).collect();
                let ran = rec.run_or_skip(cluster, name, &inputs, &tag, out, |fp| {
                    let (kept, participants) = match &mut published {
                        Some(p) => p,
                        none => {
                            none.insert(Participants::publish(cluster, pairs_path, work, forward)?)
                        }
                    };
                    let spec = BrjSpec {
                        pos: pos as u8,
                        records: records.map(str::to_string),
                        forward: forward && pos == 0,
                        side: side.to_string(),
                        out: out.clone(),
                        participants: participants.clone(),
                        config: config.clone(),
                    };
                    let mut jm = run_spec(cluster, &spec, fp)?;
                    jm.counters
                        .push(("stage3.participants".to_string(), kept[pos] as u64));
                    Ok(jm)
                });
                metrics.push(ran?);
            }
        }
        Stage3Algo::Oprj => {
            let spec = OprjSpec {
                relations: relations.clone(),
                pairs: pairs_path.to_string(),
                joined: joined.clone(),
                config: config.clone(),
            };
            let mut inputs: Vec<&str> = relations.paths().collect();
            inputs.push(pairs_path);
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

    /// BRJ job 1 ([`POS_FIRST`]) or job 2 ([`POS_SECOND`]) of an R-S join.
    fn brj_spec(pos: u8, participants_path: Option<&str>) -> BrjSpec {
        BrjSpec {
            pos,
            records: Some("/r".into()),
            forward: false,
            side: ["/work/ridpairs", "/work/fills"][usize::from(pos)].into(),
            out: "/work/out".into(),
            participants: participants_path.map(str::to_string),
            config: JoinConfig::recommended(),
        }
    }

    fn brj_mapper(pos: u8, participants_path: Option<&str>) -> BrjMapper {
        BrjMapper::new(&brj_spec(pos, participants_path))
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
        dfs.write_text("/work/fills", ["2\t1\t0.9\t1\ttitle 1\tauthor"])
            .unwrap();
        let count = |path: &str| dfs.splits(path).unwrap().len();
        let config = JoinConfig {
            bad_records: crate::config::BadRecordPolicy::SkipUpTo(3),
            ..JoinConfig::recommended()
        };
        for s in [None, Some("/s")] {
            // Job 2 of a self-join finds its records among the fills.
            for (pos, name, records, side, out) in [
                (
                    POS_FIRST,
                    "stage3-brj-fill",
                    Some("/r"),
                    "/work/ridpairs",
                    "/work/fills",
                ),
                (
                    POS_SECOND,
                    "stage3-brj-assemble",
                    s,
                    "/work/fills",
                    "/work/joined",
                ),
            ] {
                let brj = BrjSpec {
                    pos,
                    records: records.map(str::to_string),
                    forward: s.is_none() && pos == POS_FIRST,
                    side: side.into(),
                    out: out.into(),
                    participants: s.map(|_| "/work/participants".to_string()),
                    config: config.clone(),
                };
                let splits = count(side) + records.map_or(0, count);
                assert_eq!(
                    rebuilt(&brj, &dfs),
                    (name.to_string(), None, out.to_string(), splits)
                );
            }
            let oprj = OprjSpec {
                relations: Relations::new("/r", s),
                pairs: "/work/ridpairs".into(),
                joined: "/work/joined".into(),
                config: config.clone(),
            };
            let records = count("/r") + s.map_or(0, count);
            let expected = (
                "stage3-oprj".to_string(),
                None,
                "/work/joined".to_string(),
                records,
            );
            assert_eq!(rebuilt(&oprj, &dfs), expected);
        }
    }

    #[test]
    fn brj_keys_deliver_a_record_ahead_of_its_entries_in_partner_order() {
        let dfs = Dfs::new(1, 64);
        dfs.write_text("/r", ["5\tt\ta"]).unwrap();
        dfs.write_text("/work/ridpairs", ["5\t9\t0.9"]).unwrap();
        let job = brj_spec(POS_FIRST, None).build(&dfs).unwrap();
        let mut keys = vec![
            (5, TAG_SIDE, 9),
            (4, TAG_SIDE, 1),
            (5, TAG_SIDE, 2),
            (5, TAG_RECORD, 0),
        ];
        keys.sort_by(|a, b| (job.sort_cmp)(a, b));
        let sorted = [
            (4, TAG_SIDE, 1),
            (5, TAG_RECORD, 0),
            (5, TAG_SIDE, 2),
            (5, TAG_SIDE, 9),
        ];
        assert_eq!(keys, sorted);
        // One reduce call and one reduce task per RID, whatever else the key says.
        assert!((job.group_eq)(&keys[1], &keys[3]) && !(job.group_eq)(&keys[0], &keys[1]));
        assert_eq!(
            (job.partitioner)(&keys[1], 16),
            (job.partitioner)(&keys[3], 16)
        );
    }

    #[test]
    fn brj_fill_mapper_dispatches_on_input_path() {
        let dfs = Dfs::new(1, 64);
        let mut m = brj_mapper(POS_FIRST, None);
        let map = |m: &mut BrjMapper, path: &str, line: &str| {
            let mut out = VecEmitter::new();
            let c = map_ctx_with_path(dfs.clone(), path);
            m.map(&0, &line.to_string(), &mut out, &c)
                .map(|()| out.pairs)
        };
        // A record line — also from a file whose name merely begins with
        // the pair file's.
        let record = "7\ttitle\tauthor\tmisc";
        let keyed = vec![((7, TAG_RECORD, 0), (0.0, record.to_string()))];
        assert_eq!(map(&mut m, "/records", record).unwrap(), keyed);
        assert_eq!(
            map(&mut m, "/work/ridpairs2/part-00000", record).unwrap(),
            keyed
        );
        // A pair line goes to its first member alone, asking for the second.
        let pairs = "/work/ridpairs/part-00000";
        let want = vec![((3, TAG_SIDE, 9), (0.9, String::new()))];
        assert_eq!(map(&mut m, pairs, "3\t9\t0.9").unwrap(), want);
        assert!(map(&mut m, pairs, "3\t9\t0.9\textra").is_err());

        // Job 2: a fill goes to the second member, carrying the first's line.
        let mut m = brj_mapper(POS_SECOND, None);
        let fills = "/work/fills/part-00000";
        let fill = vec![((9, TAG_SIDE, 3), (0.9, "3\tt\ta\t".to_string()))];
        assert_eq!(map(&mut m, fills, "9\t3\t0.9\t3\tt\ta\t").unwrap(), fill);
        assert!(
            map(&mut m, fills, "9\t3\t0.9").is_err(),
            "a fill without its record"
        );
        assert_eq!(
            map(&mut m, "/work/ridpairs/part-00000", record).unwrap(),
            keyed
        );
        // A fill of a record with itself is a fill like any other in an R-S
        // join, whose relations number their records independently — and in
        // a self-join the record, forwarded by job 1.
        let forwarded = format!("7\t7\t0\t{record}");
        let own = vec![((7, TAG_SIDE, 7), (0.0, record.to_string()))];
        assert_eq!(map(&mut m, fills, &forwarded).unwrap(), own);
        m.forwarded = true;
        assert_eq!(map(&mut m, fills, &forwarded).unwrap(), keyed);
    }

    #[test]
    fn brj_fill_mapper_drops_records_no_pair_names() {
        let dfs = Dfs::new(1, 64);
        // The columns number their records independently: RID 7 joins as a
        // first member only, RID 3 as a second member only.
        dfs.write_text("/work/ridpairs/part-00000", ["7\t3\t0.9"])
            .unwrap();
        let p = Participants::from_pairs(&dfs, "/work/ridpairs").unwrap();
        assert_eq!(p.0, [vec![7], vec![3]]);
        p.write(&dfs, "/work/participants").unwrap();

        let emitted = |m: &mut BrjMapper, c: &TaskContext, rid: u64| -> usize {
            let mut out = VecEmitter::new();
            m.map(&0, &format!("{rid}\ttitle\tauthor\tmisc"), &mut out, c)
                .unwrap();
            out.pairs.len()
        };
        let mut m = brj_mapper(POS_FIRST, Some("/work/participants"));
        let c = map_ctx_with_path(dfs.clone(), "/r");
        m.setup(&c).unwrap();
        assert_eq!(c.memory().used(), 8, "one column is charged");
        assert_eq!(emitted(&mut m, &c, 7), 1);
        assert_eq!(emitted(&mut m, &c, 3), 0, "3 joins only as a second member");
        assert_eq!(c.counter("stage3.records_filtered").get(), 1);
        let mut m = brj_mapper(POS_SECOND, Some("/work/participants"));
        let c = map_ctx_with_path(dfs.clone(), "/s/part-00000");
        m.setup(&c).unwrap();
        assert_eq!(emitted(&mut m, &c, 3), 1);
        assert_eq!(emitted(&mut m, &c, 7), 0, "7 joins only as a first member");
        // Job 1 of a self-join keeps both columns: it forwards the second.
        let mut m = BrjMapper::new(&BrjSpec {
            forward: true,
            ..brj_spec(POS_FIRST, Some("/work/participants"))
        });
        let c = map_ctx_with_path(dfs, "/r");
        m.setup(&c).unwrap();
        assert_eq!(c.memory().used(), 16, "both columns are charged");
        assert_eq!((emitted(&mut m, &c, 3), emitted(&mut m, &c, 7)), (1, 1));
        assert_eq!(emitted(&mut m, &c, 4), 0);
    }

    #[test]
    fn participants_of_a_self_join_cover_both_columns() {
        let dfs = Dfs::new(1, 64);
        dfs.write_text(
            "/pairs",
            ["1\t2\t0.9", "1\t3\t0.85", "9\t2\t0.8", "2\t9\t0.8"],
        )
        .unwrap();
        let p = Participants::from_pairs(&dfs, "/pairs").unwrap();
        assert_eq!(p.0, [vec![1, 2, 9], vec![2, 3, 9]]);
        p.write(&dfs, "/participants").unwrap();
        for (pos, column) in [POS_FIRST, POS_SECOND].into_iter().zip(&p.0) {
            let read = Participants::read_kept(&dfs, "/participants", pos, false).unwrap();
            assert_eq!(&read, column);
        }
        let both = Participants::read_kept(&dfs, "/participants", POS_FIRST, true).unwrap();
        assert_eq!(both, [1, 2, 3, 9]);
    }

    fn reduce(
        pos: u8,
        vals: Vec<(BrjKey, BrjValue)>,
    ) -> (Result<()>, Vec<(PairKey, JoinedPair)>, TaskContext) {
        reduce_with(&brj_spec(pos, None), vals)
    }

    fn reduce_with(
        spec: &BrjSpec,
        vals: Vec<(BrjKey, BrjValue)>,
    ) -> (Result<()>, Vec<(PairKey, JoinedPair)>, TaskContext) {
        let mut out = VecEmitter::new();
        let c = ctx(Phase::Reduce, Dfs::new(1, 64));
        let key = vals[0].0;
        let ran = BrjReducer::new(spec).reduce(&key, &mut vals.into_iter(), &mut out, &c);
        (ran, out.pairs, c)
    }

    #[test]
    fn brj_fill_reducer_emits_one_fill_per_pair_in_partner_order() {
        // Record 5 is the first member of (5, 7) and (5, 9); the shuffle's
        // sort delivered the record first, then the pairs by partner.
        let line = "5\tt\ta\tm".to_string();
        let vals = vec![
            ((5, TAG_RECORD, 0), (0.0, line.clone())),
            ((5, TAG_SIDE, 7), (0.8, String::new())),
            ((5, TAG_SIDE, 9), (0.9, String::new())),
        ];
        let (ran, fills, c) = reduce(POS_FIRST, vals);
        ran.unwrap();
        let expected = vec![
            ((5, 7), (line.clone(), String::new(), 0.8)),
            ((5, 9), (line, String::new(), 0.9)),
        ];
        assert_eq!(fills, expected);
        assert_eq!(c.counter("stage3.fills").get(), 2, "one fill per pair");
        // On the wire a fill leads with the member still to come.
        assert_eq!(
            format_fill_line(&fills[0].0, &fills[0].1),
            "7\t5\t0.8\t5\tt\ta\tm"
        );
        // A record no pair names as first member emits nothing — unless a
        // self-join forwards it to job 2, as a fill of itself and no fill
        // by the counter.
        let lone = || vec![((6, TAG_RECORD, 0), (0.0, "6\tt".to_string()))];
        let (ran, fills, _) = reduce(POS_FIRST, lone());
        assert!(ran.is_ok() && fills.is_empty());
        let forwarding = BrjSpec {
            forward: true,
            ..brj_spec(POS_FIRST, None)
        };
        let (ran, fills, c) = reduce_with(&forwarding, lone());
        ran.unwrap();
        assert_eq!(fills, [((6, 6), ("6\tt".to_string(), String::new(), 0.0))]);
        assert_eq!(format_fill_line(&fills[0].0, &fills[0].1), "6\t6\t0\t6\tt");
        assert_eq!(c.counter("stage3.fills").get(), 0);
    }

    #[test]
    fn brj_assemble_reducer_puts_each_line_on_its_own_side() {
        // Record 5 is the second member of (2, 5) and (3, 5).
        let vals = vec![
            ((5, TAG_RECORD, 0), (0.0, "five".to_string())),
            ((5, TAG_SIDE, 2), (0.8, "two".to_string())),
            ((5, TAG_SIDE, 3), (0.9, "three".to_string())),
        ];
        let (ran, joined, c) = reduce(POS_SECOND, vals);
        ran.unwrap();
        let expected = vec![
            ((2, 5), ("two".to_string(), "five".to_string(), 0.8)),
            ((3, 5), ("three".to_string(), "five".to_string(), 0.9)),
        ];
        assert_eq!(joined, expected);
        assert_eq!(c.counter("stage3.joined_pairs").get(), 2);
    }

    #[test]
    fn brj_fill_reducer_errors_on_missing_record() {
        for pos in [POS_FIRST, POS_SECOND] {
            let (ran, _, _) = reduce(pos, vec![((5, TAG_SIDE, 9), (0.9, String::new()))]);
            assert!(matches!(ran.unwrap_err(), MrError::TaskFailed(_)));
        }
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
