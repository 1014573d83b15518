//! Stage 2: RID-pair generation — the join "kernel".
//!
//! The mapper ([`mapper::ProjectionMapper`]) projects records onto
//! `(RID, token ranks)` and routes them on prefix-token keys; the reducers
//! verify candidates with the configured kernel (BK nested loops, PK
//! PPJoin+, or the Section-5 block-processing variants). Two similar
//! records meet in every reduce group their routing keys share, but only
//! the group that owns the pair ([`crate::keys::owner_key`]) verifies and
//! emits it, so the output — a text file of `rid1 \t rid2 \t similarity`
//! lines — holds each pair exactly once.

pub mod blocks;
pub mod mapper;
pub mod reducers;

use std::sync::Arc;

use mapreduce::{
    text_input, ByteReader, Cluster, Codec, Dfs, Job, KeyLabel, MrError, PipelineMetrics, Reducer,
    Result, SplitSource,
};
use setsim::{SimFunction, Threshold};

use crate::config::{
    BadRecordPolicy, JoinConfig, RecordFormat, Stage2Algo, TokenRouting, TokenizerKind,
};
use crate::keys::{
    stage2_grouping, stage2_partitioner, stage2_sort, Ownership, Projection, Stage2Key,
};
use crate::recovery::{self, Recovery};
use crate::skew::{self, SkewPlan};
use crate::stage2::blocks::{MapBlocksReducer, ReduceBlocksReducer};
use crate::stage2::mapper::{EmitMode, ProjectionMapper};
use crate::stage2::reducers::{BkReducer, PkReducer};

/// Parse a stage-2 output line back into `(rid1, rid2, sim)`.
pub fn parse_pair_line(line: &str) -> Result<(u64, u64, f64)> {
    let mut it = line.split('\t');
    let parse_u64 = |s: Option<&str>| -> Result<u64> {
        s.ok_or_else(|| MrError::TaskFailed(format!("short pair line: {line:?}")))?
            .parse::<u64>()
            .map_err(|e| MrError::TaskFailed(format!("bad pair line {line:?}: {e}")))
    };
    let a = parse_u64(it.next())?;
    let b = parse_u64(it.next())?;
    let sim = it
        .next()
        .ok_or_else(|| MrError::TaskFailed(format!("short pair line: {line:?}")))?
        .parse::<f64>()
        .map_err(|e| MrError::TaskFailed(format!("bad similarity in {line:?}: {e}")))?;
    if !sim.is_finite() {
        return Err(MrError::TaskFailed(format!(
            "non-finite similarity in {line:?}"
        )));
    }
    if it.next().is_some() {
        return Err(MrError::TaskFailed(format!(
            "trailing fields in pair line: {line:?}"
        )));
    }
    Ok((a, b, sim))
}

/// Format a RID pair as a stage-2 output line.
pub fn format_pair_line(k: &(u64, u64), sim: &f64) -> String {
    format!("{}\t{}\t{}", k.0, k.1, sim)
}

fn emit_mode(algo: &Stage2Algo) -> EmitMode {
    match algo {
        Stage2Algo::Bk | Stage2Algo::Pk { .. } => EmitMode::Plain,
        Stage2Algo::BkMapBlocks { blocks } => EmitMode::MapBlocks { blocks: *blocks },
        Stage2Algo::BkReduceBlocks { blocks } => EmitMode::ReduceBlocks { blocks: *blocks },
    }
}

/// Build one stage-2 kernel job: every kernel variant shares this shape
/// (composite-key partitioner/sort/grouping, heavy-hitter key labels, the
/// pair-line text output). The driver and the worker-side factory both go
/// through here, so the two can never diverge.
fn kernel_job<R>(
    name: &'static str,
    inputs: Vec<SplitSource<u64, String>>,
    mapper: ProjectionMapper,
    reducer: R,
    routing: TokenRouting,
    skew_plan: &SkewPlan,
    pairs_path: &str,
) -> Job<ProjectionMapper, R>
where
    R: Reducer<Key = Stage2Key, InValue = Projection, OutKey = (u64, u64), OutValue = f64>,
{
    // Label routing keys for the heavy-hitter report: with individual-token
    // routing the group component *is* the prefix-token rank, so the report
    // names the exact hot token; with grouped routing it names the group.
    // Synthesized skew split keys get their own `…/split:i-j` labels so the
    // report shows per-split reduce-key load instead of opaque hashes.
    let split_labels = skew_plan.split_key_labels(routing);
    let key_label: KeyLabel<Stage2Key> = match routing {
        TokenRouting::Individual => Arc::new(move |k: &Stage2Key| {
            split_labels
                .get(&k.0)
                .cloned()
                .unwrap_or_else(|| format!("rank:{}", k.0))
        }),
        TokenRouting::Grouped { .. } => Arc::new(move |k: &Stage2Key| {
            split_labels
                .get(&k.0)
                .cloned()
                .unwrap_or_else(|| format!("group:{}", k.0))
        }),
    };
    Job::new(name, mapper, reducer)
        .inputs(inputs)
        .partitioner(stage2_partitioner())
        .sort_cmp(stage2_sort())
        .group_eq(stage2_grouping())
        .key_label(key_label)
        .output_text(pairs_path, Arc::new(format_pair_line))
}

// ---------------------------------------------------------------------------
// Process-isolated execution
// ---------------------------------------------------------------------------

/// Factory name under which the BK kernel job is registered for
/// process-isolated workers (see [`crate::register_process_jobs`]). The
/// other kernels carry the same mapper but are exercised far less by the
/// process suites; they take the documented in-process fallback.
pub const STAGE2_BK_FACTORY: &str = "core.stage2.bk";

/// Wire form of the BK kernel job's parameters: everything the worker-side
/// factory needs to rebuild the job from scratch.
struct BkPayload {
    inputs: Vec<String>,
    pairs: String,
    tokens_path: String,
    s_path: Option<String>,
    rs: u8,
    rid_field: u64,
    join_fields: Vec<u64>,
    tokenizer: u8,
    qgram: u64,
    sim_func: u8,
    tau: f64,
    /// `0` encodes individual-token routing, `g > 0` grouped routing.
    routing_groups: u32,
    length_sub_routing: Option<u64>,
    bad_records: u8,
    bad_limit: u64,
    /// Skew plan entries (`group → buckets`); empty when splitting is off.
    /// The plan rides the payload so process-backend workers route records
    /// exactly as the driver planned.
    skew_splits: Vec<(u32, u32)>,
}

impl Codec for BkPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.inputs.encode(buf);
        self.pairs.encode(buf);
        self.tokens_path.encode(buf);
        self.s_path.encode(buf);
        self.rs.encode(buf);
        self.rid_field.encode(buf);
        self.join_fields.encode(buf);
        self.tokenizer.encode(buf);
        self.qgram.encode(buf);
        self.sim_func.encode(buf);
        self.tau.encode(buf);
        self.routing_groups.encode(buf);
        self.length_sub_routing.encode(buf);
        self.bad_records.encode(buf);
        self.bad_limit.encode(buf);
        self.skew_splits.encode(buf);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(BkPayload {
            inputs: Codec::decode(r)?,
            pairs: Codec::decode(r)?,
            tokens_path: Codec::decode(r)?,
            s_path: Codec::decode(r)?,
            rs: Codec::decode(r)?,
            rid_field: Codec::decode(r)?,
            join_fields: Codec::decode(r)?,
            tokenizer: Codec::decode(r)?,
            qgram: Codec::decode(r)?,
            sim_func: Codec::decode(r)?,
            tau: Codec::decode(r)?,
            routing_groups: Codec::decode(r)?,
            length_sub_routing: Codec::decode(r)?,
            bad_records: Codec::decode(r)?,
            bad_limit: Codec::decode(r)?,
            skew_splits: Codec::decode(r)?,
        })
    }
}

impl BkPayload {
    fn new(
        inputs: &[&str],
        pairs: &str,
        tokens_path: &str,
        s_path: Option<&str>,
        rs: bool,
        config: &JoinConfig,
        skew_plan: &SkewPlan,
    ) -> Self {
        let (tokenizer, qgram) = match config.tokenizer {
            TokenizerKind::Word => (0, 0),
            TokenizerKind::QGram(q) => (1, q as u64),
        };
        let sim_func = match config.threshold.func() {
            SimFunction::Jaccard => 0,
            SimFunction::Cosine => 1,
            SimFunction::Dice => 2,
            SimFunction::Overlap => 3,
        };
        let routing_groups = match config.routing {
            TokenRouting::Individual => 0,
            TokenRouting::Grouped { groups } => groups.max(1),
        };
        let (bad_records, bad_limit) = match config.bad_records {
            BadRecordPolicy::Strict => (0, 0),
            BadRecordPolicy::Skip => (1, 0),
            BadRecordPolicy::SkipUpTo(n) => (2, n),
        };
        BkPayload {
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            pairs: pairs.to_string(),
            tokens_path: tokens_path.to_string(),
            s_path: s_path.map(str::to_string),
            rs: rs as u8,
            rid_field: config.format.rid_field as u64,
            join_fields: config
                .format
                .join_fields
                .iter()
                .map(|&f| f as u64)
                .collect(),
            tokenizer,
            qgram,
            sim_func,
            tau: config.threshold.tau(),
            routing_groups,
            length_sub_routing: config.length_sub_routing.map(u64::from),
            bad_records,
            bad_limit,
            skew_splits: skew_plan.entries(),
        }
    }

    fn threshold(&self) -> Result<Threshold> {
        let func = match self.sim_func {
            0 => SimFunction::Jaccard,
            1 => SimFunction::Cosine,
            2 => SimFunction::Dice,
            3 => SimFunction::Overlap,
            t => return Err(MrError::Codec(format!("unknown similarity tag {t}"))),
        };
        Threshold::new(func, self.tau).map_err(MrError::Codec)
    }

    fn routing(&self) -> TokenRouting {
        match self.routing_groups {
            0 => TokenRouting::Individual,
            groups => TokenRouting::Grouped { groups },
        }
    }

    fn mapper(&self, skew_plan: Arc<SkewPlan>) -> Result<ProjectionMapper> {
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
        Ok(ProjectionMapper::new(
            format,
            tokenizer,
            self.threshold()?,
            self.routing(),
            self.tokens_path.clone(),
            self.s_path.clone(),
            EmitMode::Plain,
            self.length_sub_routing.map(|w| w as u32),
        )
        .bad_records(bad_records)
        .skew(skew_plan))
    }

    fn skew_plan(&self) -> SkewPlan {
        SkewPlan::from_entries(self.skew_splits.clone())
    }

    fn job(&self, dfs: &Dfs) -> Result<Job<ProjectionMapper, BkReducer>> {
        let mut inputs = Vec::new();
        for path in &self.inputs {
            inputs.extend(text_input(dfs, path)?);
        }
        let skew_plan = Arc::new(self.skew_plan());
        let owner = Ownership::new(
            self.threshold()?,
            self.routing(),
            self.length_sub_routing.map(|w| w as u32),
            skew_plan.clone(),
        );
        Ok(kernel_job(
            "stage2-bk",
            inputs,
            self.mapper(skew_plan.clone())?,
            BkReducer::new(owner, self.rs != 0),
            self.routing(),
            &skew_plan,
            &self.pairs,
        ))
    }
}

/// Register the worker-side factory for the BK kernel. Idempotent; called
/// through [`crate::register_process_jobs`].
pub(crate) fn register_process_jobs() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        mapreduce::register_job_factory(STAGE2_BK_FACTORY, |payload, dfs| {
            BkPayload::from_bytes(payload)?.job(dfs)
        });
    });
}

#[allow(clippy::too_many_arguments)]
fn run_kernel(
    cluster: &Cluster,
    inputs: Vec<SplitSource<u64, String>>,
    input_paths: &[&str],
    mapper: ProjectionMapper,
    config: &JoinConfig,
    rs: bool,
    pairs_path: &str,
    skew_plan: &Arc<SkewPlan>,
    remote_payload: Option<Vec<u8>>,
    rec: &mut Recovery,
) -> Result<PipelineMetrics> {
    let tag = recovery::stage2_tag(config, rs);
    // The reducers decide ownership by the scheme the mapper routed with.
    let owner = Ownership::new(
        config.threshold,
        config.routing,
        config.length_sub_routing,
        skew_plan.clone(),
    );
    macro_rules! run_with {
        ($name:expr, $reducer:expr) => {
            rec.run_or_skip(cluster, $name, input_paths, &tag, pairs_path, |fp| {
                let mut job = kernel_job(
                    $name,
                    inputs,
                    mapper,
                    $reducer,
                    config.routing,
                    skew_plan,
                    pairs_path,
                )
                .fingerprint(fp);
                if let Some(payload) = remote_payload {
                    job = job.remote(STAGE2_BK_FACTORY, payload);
                }
                let mut jm = cluster.run(job)?;
                // Driver-side skew counters: plan size and fan-out, visible
                // in the run report next to the mapper-side replication
                // metrics even when no mapper happened to hit a split group.
                if !skew_plan.is_empty() {
                    jm.counters
                        .push(("skew.split_tokens".to_string(), skew_plan.len() as u64));
                    jm.counters.push((
                        "skew.split_reduce_keys".to_string(),
                        skew_plan.total_split_keys(),
                    ));
                    jm.counters.push((
                        "skew.max_buckets".to_string(),
                        u64::from(skew_plan.max_buckets()),
                    ));
                }
                Ok(jm)
            })?
        };
    }
    let job_metrics = match config.stage2 {
        Stage2Algo::Bk => run_with!("stage2-bk", BkReducer::new(owner, rs)),
        Stage2Algo::Pk { filters } => {
            run_with!("stage2-pk", PkReducer::new(owner, filters, rs))
        }
        Stage2Algo::BkMapBlocks { .. } => {
            run_with!("stage2-bk-mapblocks", MapBlocksReducer::new(owner, rs))
        }
        Stage2Algo::BkReduceBlocks { .. } => run_with!(
            "stage2-bk-reduceblocks",
            ReduceBlocksReducer::new(owner, rs)
        ),
    };
    let mut metrics = PipelineMetrics::default();
    metrics.push(job_metrics);
    Ok(metrics)
}

/// Run the self-join kernel over the records at `input`, using the stage-1
/// token list at `tokens_path`. Writes RID pairs to `{work}/ridpairs`.
pub fn run_self(
    cluster: &Cluster,
    input: &str,
    tokens_path: &str,
    config: &JoinConfig,
    work: &str,
) -> Result<(String, PipelineMetrics)> {
    run_self_with(
        cluster,
        input,
        tokens_path,
        config,
        work,
        &mut Recovery::disabled(),
    )
}

/// [`run_self`] with resume support (see [`crate::recovery`]).
pub fn run_self_with(
    cluster: &Cluster,
    input: &str,
    tokens_path: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    let pairs_path = format!("{}/ridpairs", work.trim_end_matches('/'));
    // The skew pre-pass: sample the input, estimate per-group load, decide
    // which routing groups to split. Deterministic, so a resumed driver
    // rebuilds the identical plan and committed output stays skippable.
    let skew_plan = Arc::new(skew::build_plan(
        cluster.dfs(),
        &[input],
        tokens_path,
        config,
    )?);
    let mapper = ProjectionMapper::new(
        config.format.clone(),
        config.tokenizer,
        config.threshold,
        config.routing,
        tokens_path.to_string(),
        None,
        emit_mode(&config.stage2),
        config.length_sub_routing,
    )
    .bad_records(config.bad_records)
    .skew(skew_plan.clone());
    let inputs = text_input(cluster.dfs(), input)?;
    let remote_payload = match config.stage2 {
        Stage2Algo::Bk => Some(
            BkPayload::new(
                &[input],
                &pairs_path,
                tokens_path,
                None,
                false,
                config,
                &skew_plan,
            )
            .to_bytes(),
        ),
        _ => None,
    };
    let metrics = run_kernel(
        cluster,
        inputs,
        &[input, tokens_path],
        mapper,
        config,
        false,
        &pairs_path,
        &skew_plan,
        remote_payload,
        rec,
    )?;
    Ok((pairs_path, metrics))
}

/// Run the R-S kernel: R records at `r_input`, S records at `s_input`.
/// The token list must have been computed over R (stage 1 runs on the
/// smaller relation); S tokens outside it are discarded.
pub fn run_rs(
    cluster: &Cluster,
    r_input: &str,
    s_input: &str,
    tokens_path: &str,
    config: &JoinConfig,
    work: &str,
) -> Result<(String, PipelineMetrics)> {
    run_rs_with(
        cluster,
        r_input,
        s_input,
        tokens_path,
        config,
        work,
        &mut Recovery::disabled(),
    )
}

/// [`run_rs`] with resume support (see [`crate::recovery`]).
pub fn run_rs_with(
    cluster: &Cluster,
    r_input: &str,
    s_input: &str,
    tokens_path: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    let pairs_path = format!("{}/ridpairs", work.trim_end_matches('/'));
    // Sample both relations: a group is hot by its combined R+S load.
    let skew_plan = Arc::new(skew::build_plan(
        cluster.dfs(),
        &[r_input, s_input],
        tokens_path,
        config,
    )?);
    let mapper = ProjectionMapper::new(
        config.format.clone(),
        config.tokenizer,
        config.threshold,
        config.routing,
        tokens_path.to_string(),
        Some(s_input.to_string()),
        emit_mode(&config.stage2),
        config.length_sub_routing,
    )
    .bad_records(config.bad_records)
    .skew(skew_plan.clone());
    let mut inputs = text_input(cluster.dfs(), r_input)?;
    inputs.extend(text_input(cluster.dfs(), s_input)?);
    let remote_payload = match config.stage2 {
        Stage2Algo::Bk => Some(
            BkPayload::new(
                &[r_input, s_input],
                &pairs_path,
                tokens_path,
                Some(s_input),
                true,
                config,
                &skew_plan,
            )
            .to_bytes(),
        ),
        _ => None,
    };
    let metrics = run_kernel(
        cluster,
        inputs,
        &[r_input, s_input, tokens_path],
        mapper,
        config,
        true,
        &pairs_path,
        &skew_plan,
        remote_payload,
        rec,
    )?;
    Ok((pairs_path, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_line_roundtrip() {
        let line = format_pair_line(&(3, 17), &0.875);
        assert_eq!(parse_pair_line(&line).unwrap(), (3, 17, 0.875));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_pair_line("").is_err());
        assert!(parse_pair_line("1\t2").is_err());
        assert!(parse_pair_line("a\tb\t0.5").is_err());
        assert!(parse_pair_line("1\t2\tnotafloat").is_err());
        // Trailing columns must not be silently dropped.
        assert!(parse_pair_line("1\t2\t0.5\tjunk").is_err());
        assert!(parse_pair_line("1\t2\t0.5\t").is_err());
        // Similarities must be finite.
        assert!(parse_pair_line("1\t2\tNaN").is_err());
        assert!(parse_pair_line("1\t2\tinf").is_err());
        assert!(parse_pair_line("1\t2\t-inf").is_err());
    }
}
