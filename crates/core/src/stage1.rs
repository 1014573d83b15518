//! Stage 1: token ordering.
//!
//! Scans the input records, computes per-token frequencies over the join
//! attribute, and produces the global token list ordered by **increasing**
//! frequency — the order that makes record prefixes hold their rarest
//! tokens, balancing stage-2 workload under token-frequency skew.
//!
//! The paper's two variants:
//!
//! * **BTO** (Basic Token Ordering) — two jobs: (1) classic word-count with
//!   a combiner; (2) a sort job that swaps `(token, count)` to
//!   `(count, token)` keys and funnels everything through a single reducer,
//!   whose output is the totally ordered token list.
//! * **OPTO** (One-Phase Token Ordering) — one job: same counting map side,
//!   but the single reducer keeps `(token, total)` in memory and sorts the
//!   tokens in its tear-down, trading a second job for reducer memory.

use std::sync::Arc;

use mapreduce::{
    codec_struct, seq_input, sum_combiner, text_input, Cluster, Counter, Dfs, Emit, Job, JobSpec,
    Mapper, MrError, PipelineMetrics, Reducer, Result, TaskContext,
};
use setsim::{HashedToken, TokenTable};

use crate::config::{JoinConfig, Stage1Algo};
use crate::named::Named;
use crate::recovery::{self, run_spec, Recovery};
use crate::tokenizer_cache::CachedTokenizer;

/// Mapper shared by BTO job 1 and OPTO: parse the record, tokenize the join
/// attribute, and count its tokens in a table kept for the task — the
/// in-mapper combine — emitting `(token, count)` when the task ends.
pub struct TokenCountMapper {
    config: JoinConfig,
    tokenizer: CachedTokenizer,
    /// The record's join attribute, kept for its capacity.
    attr: String,
    counts: TokenCounts,
    records: Named<Counter>,
    occurrences: Named<Counter>,
}

impl TokenCountMapper {
    /// The count mapper of a join under `config`.
    pub fn new(config: &JoinConfig) -> Self {
        TokenCountMapper {
            config: config.clone(),
            tokenizer: CachedTokenizer::new(config.tokenizer),
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
        Self::new(&self.config)
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
    /// The tokens, looked up by the hash the tokenizer took of each.
    tokens: TokenTable,
    /// Per token of `tokens`, its count.
    counts: Vec<u64>,
    /// Bytes charged to the task's memory gauge for the table.
    charged: u64,
}

impl TokenCounts {
    /// Modelled footprint of one entry beside the token's bytes: its end
    /// offset and hash, its count, its index slots, and the vectors' spare
    /// capacity.
    const ENTRY_BYTES: u64 = 48;

    fn add(
        &mut self,
        token: HashedToken<'_>,
        out: &mut dyn Emit<String, u64>,
        ctx: &TaskContext,
    ) -> Result<()> {
        if let Some(i) = self.tokens.find(token) {
            self.counts[i] += 1;
            return Ok(());
        }
        let bytes = token.as_str().len() as u64 + Self::ENTRY_BYTES;
        if ctx.memory().charge(bytes).is_err() {
            self.flush(out, ctx)?;
            if ctx.memory().charge(bytes).is_err() {
                // A budget without room for one entry: count nothing here.
                return out.emit(token.as_str().to_string(), 1);
            }
        }
        self.charged += bytes;
        self.tokens.push(token);
        self.counts.push(1);
        Ok(())
    }

    /// Emit every count, in the order the tokens were first seen, and give
    /// the memory back. The engine sorts what a task emits.
    fn flush(&mut self, out: &mut dyn Emit<String, u64>, ctx: &TaskContext) -> Result<()> {
        for (token, &n) in self.tokens.iter().zip(&self.counts) {
            out.emit(token.to_string(), n)?;
        }
        self.tokens.clear();
        self.counts.clear();
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
        if let Err(e) = self.config.format.parse_into(line, &mut self.attr) {
            return self.config.bad_records.on_bad_record(ctx, e);
        }
        self.records.get(ctx).incr();
        let tokens = self.tokenizer.tokenize(&self.attr);
        self.occurrences.get(ctx).add(tokens.len() as u64);
        for token in tokens.hashed() {
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
// The jobs, each one encodable value
// ---------------------------------------------------------------------------

/// How every stage-1 job writes a token: the line is the token.
fn token_line<V>() -> mapreduce::TextFormat<String, V> {
    Arc::new(|token: &String, _: &V| token.clone())
}

/// BTO's two jobs, each as its name and its worker-side factory's.
const COUNT: (&str, &str) = ("stage1-bto-count", "core.stage1.bto-count");
const SORT: (&str, &str) = ("stage1-bto-sort", "core.stage1.bto-sort");
const OPTO_FACTORY: &str = "core.stage1.opto";

/// BTO's count job: `(token, total)` pairs, as a seq file.
struct CountSpec {
    input: String,
    counts: String,
    config: JoinConfig,
}
codec_struct!(CountSpec {
    input,
    counts,
    config
});

impl JobSpec for CountSpec {
    type Mapper = TokenCountMapper;
    type Reducer = SumReducer;

    fn factory(&self) -> &'static str {
        COUNT.1
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<TokenCountMapper, SumReducer>> {
        let mapper = TokenCountMapper::new(&self.config);
        Ok(Job::new(COUNT.0, mapper, SumReducer)
            .inputs(text_input(dfs, &self.input)?)
            .combiner(sum_combiner())
            .output_seq(&self.counts))
    }
}

/// BTO's sort job: the counted tokens by ascending `(count, token)`, on one
/// reducer, whose part is the total order.
struct SortSpec {
    counts: String,
    tokens: String,
}
codec_struct!(SortSpec { counts, tokens });

impl JobSpec for SortSpec {
    type Mapper = SwapForSortMapper;
    type Reducer = EmitTokenReducer;

    fn factory(&self) -> &'static str {
        SORT.1
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<SwapForSortMapper, EmitTokenReducer>> {
        Ok(Job::new(SORT.0, SwapForSortMapper, EmitTokenReducer)
            .inputs(seq_input::<String, u64>(dfs, &self.counts)?)
            .reducers(1)
            .output_text(&self.tokens, token_line()))
    }
}

/// OPTO's one job: count as BTO does, total and sort in the single reducer.
struct OptoSpec {
    input: String,
    tokens: String,
    config: JoinConfig,
}
codec_struct!(OptoSpec {
    input,
    tokens,
    config
});

impl JobSpec for OptoSpec {
    type Mapper = TokenCountMapper;
    type Reducer = OptoReducer;

    fn factory(&self) -> &'static str {
        OPTO_FACTORY
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<TokenCountMapper, OptoReducer>> {
        let mapper = TokenCountMapper::new(&self.config);
        Ok(Job::new("stage1-opto", mapper, OptoReducer::default())
            .inputs(text_input(dfs, &self.input)?)
            .combiner(sum_combiner())
            .reducers(1)
            .output_text(&self.tokens, token_line()))
    }
}

/// Register the stage-1 jobs with worker processes: BTO's two and OPTO's
/// one.
pub(crate) fn register_process_jobs() {
    mapreduce::register_job_spec::<CountSpec>(COUNT.1);
    mapreduce::register_job_spec::<SortSpec>(SORT.1);
    mapreduce::register_job_spec::<OptoSpec>(OPTO_FACTORY);
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
    run_with(cluster, input, config, work, &mut Recovery::default())
}

/// [`run`], recording into `rec`: jobs whose commit manifest validates
/// against the current inputs and config are skipped (see
/// [`crate::recovery`]).
pub(crate) fn run_with(
    cluster: &Cluster,
    input: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    config.validate().map_err(MrError::InvalidConfig)?;
    let work = work.trim_end_matches('/');
    let (tokens, counts) = (format!("{work}/tokens"), format!("{work}/token-counts"));
    let mut metrics = PipelineMetrics::default();
    let tag = recovery::stage1_tag(config);
    let (input_path, config) = (input.to_string(), config.clone());
    if config.stage1 == Stage1Algo::Opto {
        let spec = OptoSpec {
            input: input_path,
            tokens: tokens.clone(),
            config,
        };
        let ran = rec.run_or_skip(cluster, "stage1-opto", &[input], &tag, &tokens, |fp| {
            run_spec(cluster, &spec, fp)
        });
        metrics.push(ran?);
        return Ok((tokens, metrics));
    }
    let count = CountSpec {
        input: input_path,
        counts: counts.clone(),
        config,
    };
    let ran = rec.run_or_skip(cluster, COUNT.0, &[input], &tag, &counts, |fp| {
        run_spec(cluster, &count, fp)
    });
    metrics.push(ran?);
    let sort = SortSpec {
        counts: counts.clone(),
        tokens: tokens.clone(),
    };
    let ran = rec.run_or_skip(cluster, SORT.0, &[&counts], &tag, &tokens, |fp| {
        run_spec(cluster, &sort, fp)
    });
    metrics.push(ran?);
    Ok((tokens, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RecordFormat, TokenizerKind};
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
    fn run_refuses_a_bad_config_before_any_job() {
        crate::recovery::tests::refuses_a_bad_config(|c, bad| run(c, "/in", bad, "/work"));
    }

    #[test]
    fn workers_build_every_stage1_job_from_the_bytes_the_driver_encodes() {
        use crate::recovery::tests::worker_builds_the_drivers_job as rebuilt;
        let c = Cluster::new(ClusterConfig::with_nodes(3), 16).unwrap();
        write_records(&c);
        c.dfs()
            .write_seq("/work/token-counts", &[("mid".to_string(), 2u64)])
            .unwrap();
        let splits = text_input(c.dfs(), "/in").unwrap().len();
        assert!(splits > 1);
        let (input, counts, tokens) = ("/in", "/work/token-counts", "/work/tokens");
        let spec = CountSpec {
            input: input.into(),
            counts: counts.into(),
            config: JoinConfig {
                tokenizer: TokenizerKind::QGram(3),
                ..config(Stage1Algo::Bto)
            },
        };
        let expected = (COUNT.0.to_string(), None, counts.to_string(), splits);
        assert_eq!(rebuilt(&spec, c.dfs()), expected);
        let opto = OptoSpec {
            input: input.into(),
            tokens: tokens.into(),
            config: config(Stage1Algo::Opto),
        };
        let expected = (
            "stage1-opto".to_string(),
            Some(1),
            tokens.to_string(),
            splits,
        );
        assert_eq!(rebuilt(&opto, c.dfs()), expected);
        let spec = SortSpec {
            counts: counts.into(),
            tokens: tokens.into(),
        };
        let expected = (SORT.0.to_string(), Some(1), tokens.to_string(), 1);
        assert_eq!(rebuilt(&spec, c.dfs()), expected);
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
    fn bto_range_on_larger_dictionary() {
        let c = cluster();
        // 60 tokens with distinct frequencies, counted on many reducers.
        let mut lines = Vec::new();
        for i in 0..60 {
            for _ in 0..=i {
                lines.push(format!("{}\ttok{i:02}\tx\t", lines.len() + 1));
            }
        }
        c.dfs().write_text("/big", &lines).unwrap();
        let (path, _) = run(&c, "/big", &config(Stage1Algo::Bto), "/w").unwrap();
        let tokens = c.dfs().read_text(&path).unwrap();
        let mut expected: Vec<String> = (0..60).map(|i| format!("tok{i:02}")).collect();
        expected.push("x".to_string()); // the author field token, most frequent
        assert_eq!(tokens, expected);
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
            Dfs::new(1, 64).unwrap(),
        )
    }

    fn two_column() -> JoinConfig {
        JoinConfig {
            format: RecordFormat::two_column(),
            ..JoinConfig::recommended()
        }
    }

    fn sorted(mut pairs: Vec<(String, u64)>) -> Vec<(String, u64)> {
        pairs.sort();
        pairs
    }

    #[test]
    fn the_mapper_counts_in_its_table_and_emits_when_the_task_ends() {
        let ctx = map_ctx(u64::MAX);
        let mut m = TokenCountMapper::new(&two_column());
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
        let mut m = TokenCountMapper::new(&two_column());
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
        let mut m = TokenCountMapper::new(&two_column());
        let mut out = VecEmitter::new();
        m.map(&0, &"1\ta b a".to_string(), &mut out, &ctx).unwrap();
        m.map(&0, &"2\ta".to_string(), &mut out, &ctx).unwrap();
        m.cleanup(&mut out, &ctx).unwrap();
        let ones = [("a", 1), ("a", 1), ("b", 1)].map(|(t, n)| (t.to_string(), n));
        assert_eq!(sorted(out.pairs), ones);
    }

    #[test]
    fn a_mapper_that_flushes_many_times_emits_the_counts_of_one_that_does_not() {
        let lines = datagen::to_lines(&datagen::dblp(400, 5));
        let config = JoinConfig {
            tokenizer: TokenizerKind::Word,
            ..JoinConfig::recommended()
        };
        let run = |budget: u64| {
            let ctx = map_ctx(budget);
            let mut m = TokenCountMapper::new(&config);
            let mut out = VecEmitter::new();
            for line in &lines {
                m.map(&0, line, &mut out, &ctx).unwrap();
            }
            m.cleanup(&mut out, &ctx).unwrap();
            assert_eq!(ctx.memory().used(), 0);
            let emitted = out.pairs.len();
            let mut sums = std::collections::BTreeMap::new();
            for (token, n) in out.pairs {
                *sums.entry(token).or_insert(0u64) += n;
            }
            (sums, emitted)
        };
        let (roomy, roomy_emits) = run(u64::MAX);
        let (tight, tight_emits) = run(2_000);
        assert_eq!(roomy_emits, roomy.len(), "one flush: one pair per token");
        assert!(
            tight_emits > 2 * roomy_emits,
            "several flushes: {tight_emits} pairs against {roomy_emits}"
        );
        assert_eq!(tight, roomy);
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
        (setsim::TokenOrder::from_corpus(&lists).tokens())
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn every_variant_writes_the_reference_order_of_a_generated_corpus() {
        for algo in [Stage1Algo::Bto, Stage1Algo::Opto] {
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
