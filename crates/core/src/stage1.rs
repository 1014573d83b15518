//! Stage 1: token ordering.
//!
//! Scans the input records, computes per-token frequencies over the join
//! attribute, and produces the global token list ordered by **increasing**
//! frequency — the order that makes record prefixes hold their rarest
//! tokens, balancing stage-2 workload under token-frequency skew.
//!
//! The paper's two variants, plus one extension:
//!
//! * **BTO** (Basic Token Ordering) — two jobs: (1) classic word-count with
//!   a combiner; (2) a sort job that swaps `(token, count)` to
//!   `(count, token)` keys and funnels everything through a single reducer,
//!   whose output is the totally ordered token list.
//! * **OPTO** (One-Phase Token Ordering) — one job: same counting map side,
//!   but the single reducer keeps `(token, total)` in memory and sorts the
//!   tokens in its tear-down, trading a second job for reducer memory.
//! * **BTO-R** ([`Stage1Algo::BtoRange`], extension) — BTO with a sampled
//!   range partitioner so the sort runs on many reducers yet still yields
//!   one total order, removing the single-reducer bottleneck the paper
//!   measures.

use std::collections::HashMap;
use std::sync::Arc;

use mapreduce::{
    range_partitioner, sample_boundaries, seq_input, sum_combiner, text_input, ByteReader, Cluster,
    Codec, Counter, Dfs, Emit, Job, Mapper, MrError, PipelineMetrics, Reducer, Result, TaskContext,
};

use crate::config::{BadRecordPolicy, JoinConfig, RecordFormat, Stage1Algo, TokenizerKind};
use crate::named::Named;
use crate::recovery::{self, Recovery};
use crate::tokenizer_cache::CachedTokenizer;

/// Mapper shared by BTO job 1 and OPTO: parse the record, tokenize the join
/// attribute, and count its tokens in a table kept for the task — the
/// in-mapper combine — emitting `(token, count)` when the task ends.
pub struct TokenCountMapper {
    format: RecordFormat,
    tokenizer: CachedTokenizer,
    bad_records: BadRecordPolicy,
    /// The record's join attribute, kept for its capacity.
    attr: String,
    counts: TokenCounts,
    records: Named<Counter>,
    occurrences: Named<Counter>,
}

impl TokenCountMapper {
    /// Build from the join configuration.
    pub fn new(format: RecordFormat, tokenizer: TokenizerKind) -> Self {
        Self::with_policy(format, tokenizer, BadRecordPolicy::Strict)
    }

    /// Build with an explicit bad-record policy.
    pub fn with_policy(
        format: RecordFormat,
        tokenizer: TokenizerKind,
        bad_records: BadRecordPolicy,
    ) -> Self {
        TokenCountMapper {
            format,
            tokenizer: CachedTokenizer::new(tokenizer),
            bad_records,
            attr: String::new(),
            counts: TokenCounts::default(),
            records: Named::new("stage1.records"),
            occurrences: Named::new(TOKEN_OCCURRENCES_COUNTER),
        }
    }
}

/// Every attempt clones the job's prototype: a clone starts with an empty
/// table and nothing charged.
impl Clone for TokenCountMapper {
    fn clone(&self) -> Self {
        Self::with_policy(self.format.clone(), self.tokenizer.kind(), self.bad_records)
    }
}

/// Counter of the count job: tokens seen, one per distinct token of each
/// record. The job's `map_output_records` and `combine_*` only see what the
/// mappers' tables flush.
pub const TOKEN_OCCURRENCES_COUNTER: &str = "stage1.token_occurrences";

/// One map task's token counts so far: at most the distinct tokens of its
/// split, charged to the task's memory budget. A token the budget has no
/// room for flushes the table through the task's output and starts it
/// again, and the job's sum combiner merges the flushes.
#[derive(Default)]
struct TokenCounts {
    counts: HashMap<String, u64>,
    /// Bytes charged to the task's memory gauge for `counts`.
    charged: u64,
}

impl TokenCounts {
    /// Modelled footprint of one entry beside the token's bytes: the
    /// `String` header, the count, and the table's spare slots.
    const ENTRY_BYTES: u64 = 48;

    fn add(
        &mut self,
        token: &str,
        out: &mut dyn Emit<String, u64>,
        ctx: &TaskContext,
    ) -> Result<()> {
        if let Some(n) = self.counts.get_mut(token) {
            *n += 1;
            return Ok(());
        }
        let bytes = token.len() as u64 + Self::ENTRY_BYTES;
        if ctx.memory().charge(bytes).is_err() {
            self.flush(out, ctx)?;
            if ctx.memory().charge(bytes).is_err() {
                // A budget without room for one entry: count nothing here.
                return out.emit(token.to_string(), 1);
            }
        }
        self.charged += bytes;
        self.counts.insert(token.to_string(), 1);
        Ok(())
    }

    /// Emit every count and give the memory back. The table's order is
    /// arbitrary; the engine sorts what a task emits.
    fn flush(&mut self, out: &mut dyn Emit<String, u64>, ctx: &TaskContext) -> Result<()> {
        for (token, n) in self.counts.drain() {
            out.emit(token, n)?;
        }
        ctx.memory().release(self.charged);
        self.charged = 0;
        Ok(())
    }
}

impl Mapper for TokenCountMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;

    fn map(
        &mut self,
        _offset: &u64,
        line: &String,
        out: &mut dyn Emit<String, u64>,
        ctx: &TaskContext,
    ) -> Result<()> {
        if let Err(e) = self.format.parse_into(line, &mut self.attr) {
            return self.bad_records.on_bad_record(ctx, e);
        }
        self.records.get(ctx).incr();
        let tokens = self.tokenizer.tokenize(&self.attr);
        self.occurrences.get(ctx).add(tokens.len() as u64);
        for token in tokens.iter() {
            self.counts.add(token, out, ctx)?;
        }
        Ok(())
    }

    fn cleanup(&mut self, out: &mut dyn Emit<String, u64>, ctx: &TaskContext) -> Result<()> {
        self.counts.flush(out, ctx)
    }
}

/// Reducer of BTO job 1: total count per token.
#[derive(Clone, Default)]
struct SumReducer;

impl Reducer for SumReducer {
    type Key = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;

    fn reduce(
        &mut self,
        key: &String,
        values: &mut dyn Iterator<Item = (String, u64)>,
        out: &mut dyn Emit<String, u64>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        out.emit(key.clone(), values.map(|(_, n)| n).sum())
    }
}

/// Mapper of BTO job 2: swap `(token, count)` into a `(count, token)` key so
/// the framework sorts by frequency (token as tiebreak for determinism).
#[derive(Clone, Default)]
struct SwapForSortMapper;

impl Mapper for SwapForSortMapper {
    type InKey = String;
    type InValue = u64;
    type OutKey = (u64, String);
    type OutValue = ();

    fn map(
        &mut self,
        token: &String,
        count: &u64,
        out: &mut dyn Emit<(u64, String), ()>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        out.emit((*count, token.clone()), ())
    }
}

/// Reducer of BTO job 2: echo tokens in sorted order (single reducer).
#[derive(Clone, Default)]
struct EmitTokenReducer;

impl Reducer for EmitTokenReducer {
    type Key = (u64, String);
    type InValue = ();
    type OutKey = String;
    type OutValue = ();

    fn reduce(
        &mut self,
        key: &(u64, String),
        values: &mut dyn Iterator<Item = ((u64, String), ())>,
        out: &mut dyn Emit<String, ()>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        // Duplicate tokens cannot occur (job 1 reduced per token), but drain
        // defensively.
        let n = values.count().max(1);
        for _ in 0..n {
            out.emit(key.1.clone(), ())?;
        }
        Ok(())
    }
}

/// OPTO reducer: accumulate totals in memory, sort in tear-down.
#[derive(Clone, Default)]
struct OptoReducer {
    acc: Vec<(String, u64)>,
    charged: u64,
}

impl Reducer for OptoReducer {
    type Key = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = ();

    fn reduce(
        &mut self,
        key: &String,
        values: &mut dyn Iterator<Item = (String, u64)>,
        _out: &mut dyn Emit<String, ()>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let total: u64 = values.map(|(_, n)| n).sum();
        let bytes = key.len() as u64 + 32;
        ctx.memory().charge(bytes)?;
        self.charged += bytes;
        self.acc.push((key.clone(), total));
        Ok(())
    }

    fn cleanup(&mut self, out: &mut dyn Emit<String, ()>, ctx: &TaskContext) -> Result<()> {
        self.acc
            .sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for (token, _) in self.acc.drain(..) {
            out.emit(token, ())?;
        }
        ctx.memory().release(self.charged);
        self.charged = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Process-isolated execution
// ---------------------------------------------------------------------------

/// Factory name under which the BTO count job is registered for
/// process-isolated workers (see [`register_process_jobs`]).
pub const BTO_COUNT_FACTORY: &str = "core.stage1.bto-count";

/// Factory name under which the BTO sort job is registered for
/// process-isolated workers (see [`register_process_jobs`]).
pub const BTO_SORT_FACTORY: &str = "core.stage1.bto-sort";

/// Wire form of the count job's parameters: everything the worker-side
/// factory needs to rebuild the job from scratch.
struct CountPayload {
    input: String,
    output: String,
    rid_field: u64,
    join_fields: Vec<u64>,
    tokenizer: u8,
    qgram: u64,
    bad_records: u8,
    bad_limit: u64,
}

impl Codec for CountPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.input.encode(buf);
        self.output.encode(buf);
        self.rid_field.encode(buf);
        self.join_fields.encode(buf);
        self.tokenizer.encode(buf);
        self.qgram.encode(buf);
        self.bad_records.encode(buf);
        self.bad_limit.encode(buf);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(CountPayload {
            input: Codec::decode(r)?,
            output: Codec::decode(r)?,
            rid_field: Codec::decode(r)?,
            join_fields: Codec::decode(r)?,
            tokenizer: Codec::decode(r)?,
            qgram: Codec::decode(r)?,
            bad_records: Codec::decode(r)?,
            bad_limit: Codec::decode(r)?,
        })
    }
}

impl CountPayload {
    fn new(input: &str, output: &str, config: &JoinConfig) -> Self {
        let (tokenizer, qgram) = match config.tokenizer {
            TokenizerKind::Word => (0, 0),
            TokenizerKind::QGram(q) => (1, q as u64),
        };
        let (bad_records, bad_limit) = match config.bad_records {
            BadRecordPolicy::Strict => (0, 0),
            BadRecordPolicy::Skip => (1, 0),
            BadRecordPolicy::SkipUpTo(n) => (2, n),
        };
        CountPayload {
            input: input.to_string(),
            output: output.to_string(),
            rid_field: config.format.rid_field as u64,
            join_fields: config
                .format
                .join_fields
                .iter()
                .map(|&f| f as u64)
                .collect(),
            tokenizer,
            qgram,
            bad_records,
            bad_limit,
        }
    }

    fn mapper(&self) -> Result<TokenCountMapper> {
        let tokenizer = match self.tokenizer {
            0 => TokenizerKind::Word,
            1 => TokenizerKind::QGram(self.qgram as usize),
            t => return Err(MrError::Codec(format!("unknown tokenizer tag {t}"))),
        };
        let bad_records = match self.bad_records {
            0 => BadRecordPolicy::Strict,
            1 => BadRecordPolicy::Skip,
            2 => BadRecordPolicy::SkipUpTo(self.bad_limit),
            t => return Err(MrError::Codec(format!("unknown bad-record tag {t}"))),
        };
        let format = RecordFormat {
            rid_field: self.rid_field as usize,
            join_fields: self.join_fields.iter().map(|&f| f as usize).collect(),
        };
        Ok(TokenCountMapper::with_policy(
            format,
            tokenizer,
            bad_records,
        ))
    }
}

/// BTO job 1, built through one function on both the driver and the
/// worker-side factory so the two can never diverge.
fn bto_count_job(
    dfs: &Dfs,
    input: &str,
    output: &str,
    mapper: TokenCountMapper,
) -> Result<Job<TokenCountMapper, SumReducer>> {
    Ok(Job::new("stage1-bto-count", mapper, SumReducer)
        .inputs(text_input(dfs, input)?)
        .combiner(sum_combiner())
        .output_seq(output))
}

/// BTO job 2, shared the same way. The payload is just the two paths.
fn bto_sort_job(
    dfs: &Dfs,
    counts: &str,
    tokens: &str,
) -> Result<Job<SwapForSortMapper, EmitTokenReducer>> {
    Ok(
        Job::new("stage1-bto-sort", SwapForSortMapper, EmitTokenReducer)
            .inputs(seq_input::<String, u64>(dfs, counts)?)
            .reducers(1)
            .output_text(tokens, Arc::new(|k: &String, _v: &()| k.clone())),
    )
}

/// Register the worker-side factories for the stage-1 jobs that can run
/// process-isolated (the two BTO jobs; OPTO and the range-partitioned sort
/// carry driver-computed closures and take the in-process fallback).
///
/// Any binary that should execute these jobs remotely must call this
/// before [`mapreduce::process_worker_main`]. Idempotent.
pub fn register_process_jobs() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        mapreduce::register_job_factory(BTO_COUNT_FACTORY, |payload, dfs| {
            let p = CountPayload::from_bytes(payload)?;
            bto_count_job(dfs, &p.input, &p.output, p.mapper()?)
        });
        mapreduce::register_job_factory(BTO_SORT_FACTORY, |payload, dfs| {
            let (counts, tokens) = <(String, String)>::from_bytes(payload)?;
            bto_sort_job(dfs, &counts, &tokens)
        });
    });
}

/// Run stage 1 over the records at `input`, writing the ordered token list
/// (one token per line, ascending frequency) to `{work}/tokens`.
///
/// Returns the token-list path and per-job metrics.
pub fn run(
    cluster: &Cluster,
    input: &str,
    config: &JoinConfig,
    work: &str,
) -> Result<(String, PipelineMetrics)> {
    run_with(cluster, input, config, work, &mut Recovery::disabled())
}

/// [`run`] with resume support: jobs whose commit manifest validates against
/// the current inputs and config are skipped (see [`crate::recovery`]).
pub fn run_with(
    cluster: &Cluster,
    input: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    let tokens_path = format!("{}/tokens", work.trim_end_matches('/'));
    let mut metrics = PipelineMetrics::default();
    let tag = recovery::stage1_tag(config);
    let mapper =
        TokenCountMapper::with_policy(config.format.clone(), config.tokenizer, config.bad_records);

    match config.stage1 {
        Stage1Algo::Bto => {
            let counts_path = format!("{}/token-counts", work.trim_end_matches('/'));
            metrics.push(rec.run_or_skip(
                cluster,
                "stage1-bto-count",
                &[input],
                &tag,
                &counts_path,
                |fp| {
                    let payload = CountPayload::new(input, &counts_path, config).to_bytes();
                    let job = bto_count_job(cluster.dfs(), input, &counts_path, mapper)?
                        .fingerprint(fp)
                        .remote(BTO_COUNT_FACTORY, payload);
                    cluster.run(job)
                },
            )?);
            metrics.push(rec.run_or_skip(
                cluster,
                "stage1-bto-sort",
                &[&counts_path],
                &tag,
                &tokens_path,
                |fp| {
                    let payload = (counts_path.clone(), tokens_path.clone()).to_bytes();
                    let job = bto_sort_job(cluster.dfs(), &counts_path, &tokens_path)?
                        .fingerprint(fp)
                        .remote(BTO_SORT_FACTORY, payload);
                    cluster.run(job)
                },
            )?);
        }
        Stage1Algo::Opto => {
            metrics.push(rec.run_or_skip(
                cluster,
                "stage1-opto",
                &[input],
                &tag,
                &tokens_path,
                |fp| {
                    let job = Job::new("stage1-opto", mapper, OptoReducer::default())
                        .inputs(text_input(cluster.dfs(), input)?)
                        .combiner(sum_combiner())
                        .reducers(1)
                        .output_text(&tokens_path, Arc::new(|k: &String, _v: &()| k.clone()))
                        .fingerprint(fp);
                    cluster.run(job)
                },
            )?);
        }
        Stage1Algo::BtoRange => {
            let counts_path = format!("{}/token-counts", work.trim_end_matches('/'));
            metrics.push(rec.run_or_skip(
                cluster,
                "stage1-btor-count",
                &[input],
                &tag,
                &counts_path,
                |fp| {
                    let job = Job::new("stage1-btor-count", mapper, SumReducer)
                        .inputs(text_input(cluster.dfs(), input)?)
                        .combiner(sum_combiner())
                        .output_seq(&counts_path)
                        .fingerprint(fp);
                    cluster.run(job)
                },
            )?);
            metrics.push(rec.run_or_skip(
                cluster,
                "stage1-btor-sort",
                &[&counts_path],
                &tag,
                &tokens_path,
                |fp| {
                    // Driver-side sampling, the equivalent of building Hadoop's
                    // TotalOrderPartitioner partition file: read the (small) count
                    // output, sort, and take quantile boundaries.
                    let mut sample: Vec<(u64, String)> = cluster
                        .dfs()
                        .read_seq::<String, u64>(&counts_path)?
                        .into_iter()
                        .map(|(t, c)| (c, t))
                        .collect();
                    sample.sort();
                    let reducers = cluster.config().default_reducers();
                    let boundaries = sample_boundaries(&sample, reducers);

                    let job = Job::new("stage1-btor-sort", SwapForSortMapper, EmitTokenReducer)
                        .inputs(seq_input::<String, u64>(cluster.dfs(), &counts_path)?)
                        .partitioner(range_partitioner(boundaries))
                        .reducers(reducers)
                        .output_text(&tokens_path, Arc::new(|k: &String, _v: &()| k.clone()))
                        .fingerprint(fp);
                    cluster.run(job)
                },
            )?);
        }
    }
    Ok((tokens_path, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::{Cache, ClusterConfig, Counters, MemoryGauge, Phase, VecEmitter};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_nodes(3), 512).unwrap()
    }

    fn write_records(cluster: &Cluster) {
        // Frequencies over title+authors: rare=1, mid=2, common=3.
        let lines = [
            "1\tcommon mid\trare\tmisc",
            "2\tcommon\tmid\tmisc",
            "3\tcommon\t\tmisc",
        ];
        cluster.dfs().write_text("/in", lines).unwrap();
    }

    fn config(algo: Stage1Algo) -> JoinConfig {
        JoinConfig {
            stage1: algo,
            ..JoinConfig::recommended()
        }
    }

    #[test]
    fn bto_orders_tokens_by_ascending_frequency() {
        let c = cluster();
        write_records(&c);
        let (path, m) = run(&c, "/in", &config(Stage1Algo::Bto), "/work").unwrap();
        assert_eq!(m.jobs.len(), 2);
        let tokens = c.dfs().read_text(&path).unwrap();
        assert_eq!(tokens, vec!["rare", "mid", "common"]);
    }

    #[test]
    fn opto_matches_bto_output() {
        let c1 = cluster();
        write_records(&c1);
        let (p1, m1) = run(&c1, "/in", &config(Stage1Algo::Bto), "/work").unwrap();
        let bto = c1.dfs().read_text(&p1).unwrap();

        let c2 = cluster();
        write_records(&c2);
        let (p2, m2) = run(&c2, "/in", &config(Stage1Algo::Opto), "/work").unwrap();
        let opto = c2.dfs().read_text(&p2).unwrap();

        assert_eq!(bto, opto);
        assert_eq!(m2.jobs.len(), 1, "OPTO is one job");
        assert_eq!(m1.jobs.len(), 2, "BTO is two jobs");
    }

    #[test]
    fn opto_respects_memory_budget() {
        let mut cc = ClusterConfig::with_nodes(2);
        cc.task_memory = Some(50); // absurdly small: token list cannot fit
        let c = Cluster::new(cc, 512).unwrap();
        write_records(&c);
        let err = run(&c, "/in", &config(Stage1Algo::Opto), "/work").unwrap_err();
        assert!(err.is_out_of_memory());
    }

    #[test]
    fn bto_range_matches_bto_with_many_reducers() {
        let c1 = cluster();
        write_records(&c1);
        let (p1, _) = run(&c1, "/in", &config(Stage1Algo::Bto), "/work").unwrap();
        let bto = c1.dfs().read_text(&p1).unwrap();

        let c2 = cluster();
        write_records(&c2);
        let (p2, m2) = run(&c2, "/in", &config(Stage1Algo::BtoRange), "/work").unwrap();
        let btor = c2.dfs().read_text(&p2).unwrap();
        assert_eq!(
            btor, bto,
            "range-partitioned sort must preserve the total order"
        );
        assert!(
            m2.jobs[1].reduce.tasks > 1,
            "sort phase must use multiple reducers"
        );
    }

    #[test]
    fn bto_range_on_larger_dictionary() {
        let c = cluster();
        // 60 tokens with distinct frequencies spread across reducers.
        let mut lines = Vec::new();
        for i in 0..60 {
            for _ in 0..=i {
                lines.push(format!("{}\ttok{i:02}\tx\t", lines.len() + 1));
            }
        }
        c.dfs().write_text("/big", &lines).unwrap();
        let (path, _) = run(&c, "/big", &config(Stage1Algo::BtoRange), "/w").unwrap();
        let tokens = c.dfs().read_text(&path).unwrap();
        let mut expected: Vec<String> = (0..60).map(|i| format!("tok{i:02}")).collect();
        expected.push("x".to_string()); // the author field token, most frequent
        assert_eq!(tokens, expected);
        // Output spans multiple part files.
        assert!(c.dfs().data_files(&path).len() > 1);
    }

    #[test]
    fn counters_track_records() {
        let c = cluster();
        write_records(&c);
        let (_, m) = run(&c, "/in", &config(Stage1Algo::Bto), "/work").unwrap();
        assert_eq!(m.jobs[0].counter("stage1.records"), 3);
        // common mid rare | common mid | common
        assert_eq!(m.jobs[0].counter(TOKEN_OCCURRENCES_COUNTER), 6);
    }

    fn map_ctx(budget: u64) -> TaskContext {
        TaskContext::new(
            Phase::Map,
            0,
            0,
            1,
            Counters::new(),
            MemoryGauge::new("t", budget),
            Cache::new(),
            Dfs::new(1, 64),
        )
    }

    fn sorted(mut pairs: Vec<(String, u64)>) -> Vec<(String, u64)> {
        pairs.sort();
        pairs
    }

    #[test]
    fn the_mapper_counts_in_its_table_and_emits_when_the_task_ends() {
        let ctx = map_ctx(u64::MAX);
        let mut m = TokenCountMapper::new(RecordFormat::two_column(), TokenizerKind::Word);
        let mut out = VecEmitter::new();
        for line in ["1\tb a b", "2\ta C", "3\tÇa c"] {
            m.map(&0, &line.to_string(), &mut out, &ctx).unwrap();
        }
        assert!(out.pairs.is_empty(), "nothing leaves before cleanup");
        assert!(ctx.memory().used() > 0, "the table is charged");

        // An attempt clones the prototype: the clone owns no counts.
        let mut fresh = m.clone();
        fresh.cleanup(&mut out, &ctx).unwrap();
        assert!(out.pairs.is_empty());

        m.cleanup(&mut out, &ctx).unwrap();
        let expected = [("a", 2), ("b", 1), ("c", 2), ("ça", 1)].map(|(t, n)| (t.to_string(), n));
        assert_eq!(sorted(out.pairs), expected);
        assert_eq!(ctx.memory().used(), 0, "cleanup gives the memory back");
    }

    #[test]
    fn a_refused_charge_flushes_the_table_and_never_fails_the_task() {
        // Room for two entries ("a" and "b" at 49 bytes each), not three.
        let ctx = map_ctx(100);
        let mut m = TokenCountMapper::new(RecordFormat::two_column(), TokenizerKind::Word);
        let mut out = VecEmitter::new();
        m.map(&0, &"1\ta b".to_string(), &mut out, &ctx).unwrap();
        m.map(&0, &"2\ta b".to_string(), &mut out, &ctx).unwrap();
        assert!(out.pairs.is_empty());
        m.map(&0, &"3\tc a".to_string(), &mut out, &ctx).unwrap();
        assert_eq!(
            sorted(std::mem::take(&mut out.pairs)),
            [("a".to_string(), 2), ("b".to_string(), 2)],
            "the third token flushed the first two"
        );
        m.cleanup(&mut out, &ctx).unwrap();
        assert_eq!(
            sorted(out.pairs),
            [("a".to_string(), 1), ("c".to_string(), 1)]
        );
        assert_eq!(ctx.memory().used(), 0);

        // No room for even one entry: every token goes straight out.
        let ctx = map_ctx(10);
        let mut m = TokenCountMapper::new(RecordFormat::two_column(), TokenizerKind::Word);
        let mut out = VecEmitter::new();
        m.map(&0, &"1\ta b a".to_string(), &mut out, &ctx).unwrap();
        m.map(&0, &"2\ta".to_string(), &mut out, &ctx).unwrap();
        m.cleanup(&mut out, &ctx).unwrap();
        let ones = [("a", 1), ("a", 1), ("b", 1)].map(|(t, n)| (t.to_string(), n));
        assert_eq!(sorted(out.pairs), ones);
    }

    /// 6 000 generated records in 64 KiB blocks (≈ 9 map tasks), and the
    /// order `setsim` computes for them without MapReduce.
    fn generated_corpus(c: &Cluster) -> Vec<String> {
        let lines = datagen::to_lines(&datagen::dblp(6_000, 31));
        c.dfs().write_text("/gen", &lines).unwrap();
        let format = RecordFormat::bibliographic();
        let tokenizer = TokenizerKind::Word.build();
        let lists: Vec<Vec<String>> = lines
            .iter()
            .map(|l| tokenizer.tokenize(&format.parse(l).unwrap().1))
            .collect();
        setsim::TokenOrder::from_corpus(&lists).tokens().to_vec()
    }

    #[test]
    fn every_variant_writes_the_reference_order_of_a_generated_corpus() {
        for algo in [Stage1Algo::Bto, Stage1Algo::Opto, Stage1Algo::BtoRange] {
            let c = Cluster::new(ClusterConfig::with_nodes(3), 64 << 10).unwrap();
            let expected = generated_corpus(&c);
            let (path, m) = run(&c, "/gen", &config(algo), "/work").unwrap();
            assert!(m.jobs[0].map.tasks > 4, "{algo:?}: several map tasks");
            assert_eq!(c.dfs().read_text(&path).unwrap(), expected, "{algo:?}");
        }
    }

    #[test]
    fn a_table_too_large_for_task_memory_flushes_and_commits_the_same_bytes() {
        let roomy = Cluster::new(ClusterConfig::with_nodes(3), 64 << 10).unwrap();
        generated_corpus(&roomy);
        let (_, m_roomy) = run(&roomy, "/gen", &config(Stage1Algo::Bto), "/work").unwrap();

        let mut cc = ClusterConfig::with_nodes(3);
        cc.task_memory = Some(4096); // ≈ 75 tokens of a split's thousands
        let tight = Cluster::new(cc, 64 << 10).unwrap();
        generated_corpus(&tight);
        let (_, m_tight) = run(&tight, "/gen", &config(Stage1Algo::Bto), "/work").unwrap();

        let parts = |c: &Cluster, dir: &str| -> Vec<(String, u64, u32)> {
            (c.dfs().data_files(dir).iter())
                .map(|f| {
                    let stat = c.dfs().stat(f).unwrap();
                    (f.clone(), stat.len, stat.crc)
                })
                .collect()
        };
        for dir in ["/work/token-counts", "/work/tokens"] {
            assert_eq!(parts(&tight, dir), parts(&roomy, dir), "{dir}");
        }

        let (roomy_job, tight_job) = (&m_roomy.jobs[0], &m_tight.jobs[0]);
        assert!(tight_job.map_output_records > roomy_job.map_output_records);
        assert!(
            tight_job.combine_input_records > tight_job.combine_output_records,
            "the combiner merged the flushes"
        );
        assert_eq!(
            roomy_job.combine_input_records, roomy_job.combine_output_records,
            "one flush per task leaves the combiner nothing to merge"
        );
        let counts: Vec<(String, u64)> = tight.dfs().read_seq("/work/token-counts").unwrap();
        let total: u64 = counts.iter().map(|(_, n)| n).sum();
        for job in [roomy_job, tight_job] {
            assert_eq!(job.counter(TOKEN_OCCURRENCES_COUNTER), total);
        }
    }
}
