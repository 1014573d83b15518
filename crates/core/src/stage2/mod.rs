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
    codec_struct, Cluster, Dfs, Emit, Job, JobSpec, KeyLabel, MrError, PipelineMetrics, Reducer,
    Result, TaskContext,
};

use crate::config::{JoinConfig, Stage2Algo, TokenRouting};
use crate::keys::{Ownership, Projection, Relations, Stage2Key};
use crate::recovery::{self, run_spec, Recovery};
use crate::skew::{self, SkewPlan};
use crate::stage2::blocks::{MapBlocksReducer, ReduceBlocksReducer};
use crate::stage2::mapper::ProjectionMapper;
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

/// The reducer of a stage-2 job: the kernel [`JoinConfig::stage2`] names.
#[derive(Clone)]
pub(crate) enum KernelReducer {
    /// [`Stage2Algo::Bk`].
    Bk(BkReducer),
    /// [`Stage2Algo::Pk`].
    Pk(Box<PkReducer>),
    /// [`Stage2Algo::BkMapBlocks`].
    MapBlocks(MapBlocksReducer),
    /// [`Stage2Algo::BkReduceBlocks`].
    ReduceBlocks(ReduceBlocksReducer),
}

impl KernelReducer {
    /// The kernel of a join under `config`. The reducers decide ownership
    /// by the scheme the mapper routed with: the same config and plan.
    fn new(config: &JoinConfig, skew: Arc<SkewPlan>, rs: bool) -> Self {
        let owner = Ownership::new(config, skew);
        match config.stage2 {
            Stage2Algo::Bk => Self::Bk(BkReducer::new(owner, rs)),
            Stage2Algo::Pk => Self::Pk(Box::new(PkReducer::new(owner, rs))),
            Stage2Algo::BkMapBlocks { .. } => Self::MapBlocks(MapBlocksReducer::new(owner, rs)),
            Stage2Algo::BkReduceBlocks { .. } => {
                Self::ReduceBlocks(ReduceBlocksReducer::new(owner, rs))
            }
        }
    }
}

impl Reducer for KernelReducer {
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
        match self {
            Self::Bk(r) => r.reduce(key, values, out, ctx),
            Self::Pk(r) => r.reduce(key, values, out, ctx),
            Self::MapBlocks(r) => r.reduce(key, values, out, ctx),
            Self::ReduceBlocks(r) => r.reduce(key, values, out, ctx),
        }
    }
}

/// A stage-2 kernel job. Every kernel variant shares this shape: the
/// composite key partitioned and grouped on its group component and sorted
/// whole, heavy-hitter key labels, the pair-line text output.
struct KernelSpec {
    relations: Relations,
    tokens: String,
    pairs: String,
    config: JoinConfig,
    /// The skew plan's `(group, buckets)` entries; empty when splitting is
    /// off. Workers route records exactly as the driver planned.
    skew_splits: Vec<(u32, u32)>,
}
codec_struct!(KernelSpec {
    relations,
    tokens,
    pairs,
    config,
    skew_splits,
});

/// A kernel job's name and its factory's.
type Names = (&'static str, &'static str);

impl KernelSpec {
    const BK: Names = ("stage2-bk", "core.stage2.bk");
    const PK: Names = ("stage2-pk", "core.stage2.pk");
    const MAP_BLOCKS: Names = ("stage2-bk-mapblocks", "core.stage2.bk-mapblocks");
    const REDUCE_BLOCKS: Names = ("stage2-bk-reduceblocks", "core.stage2.bk-reduceblocks");

    fn names(algo: Stage2Algo) -> Names {
        match algo {
            Stage2Algo::Bk => Self::BK,
            Stage2Algo::Pk => Self::PK,
            Stage2Algo::BkMapBlocks { .. } => Self::MAP_BLOCKS,
            Stage2Algo::BkReduceBlocks { .. } => Self::REDUCE_BLOCKS,
        }
    }
}

impl JobSpec for KernelSpec {
    type Mapper = ProjectionMapper;
    type Reducer = KernelReducer;

    fn factory(&self) -> &'static str {
        Self::names(self.config.stage2).1
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<ProjectionMapper, KernelReducer>> {
        let config = &self.config;
        let plan = Arc::new(SkewPlan::from_entries(self.skew_splits.clone()));
        // Label routing keys for the heavy-hitter report: with
        // individual-token routing the group component *is* the prefix-token
        // rank, so the report names the exact hot token; with grouped
        // routing it names the group. Synthesized skew split keys get their
        // own `…/split:i-j` labels so the report shows per-split reduce-key
        // load instead of opaque hashes.
        let split_labels = plan.split_key_labels(config.routing);
        let prefix = match config.routing {
            TokenRouting::Individual => "rank",
            TokenRouting::Grouped { .. } => "group",
        };
        let key_label: KeyLabel<Stage2Key> = Arc::new(move |k: &Stage2Key| {
            let split = split_labels.get(&k.0).cloned();
            split.unwrap_or_else(|| format!("{prefix}:{}", k.0))
        });
        let mapper =
            ProjectionMapper::new(config, &self.tokens, self.relations.clone(), plan.clone());
        let reducer = KernelReducer::new(config, plan, self.relations.is_rs());
        Ok(Job::new(Self::names(config.stage2).0, mapper, reducer)
            .inputs(self.relations.splits(dfs)?)
            // The paper's custom partitioner: partition and group on the
            // group alone; the key's own order then delivers `(pass, kind,
            // class, rel)` order inside each group.
            .group_on(|k: &Stage2Key| k.0)
            .key_label(key_label)
            .output_text(&self.pairs, Arc::new(format_pair_line)))
    }
}

/// Register the stage-2 jobs with worker processes: one per kernel.
pub(crate) fn register_process_jobs() {
    mapreduce::register_job_spec::<KernelSpec>(KernelSpec::BK.1);
    mapreduce::register_job_spec::<KernelSpec>(KernelSpec::PK.1);
    mapreduce::register_job_spec::<KernelSpec>(KernelSpec::MAP_BLOCKS.1);
    mapreduce::register_job_spec::<KernelSpec>(KernelSpec::REDUCE_BLOCKS.1);
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
    let relations = Relations::new(input, None);
    let rec = &mut Recovery::default();
    run_with(cluster, &relations, tokens_path, config, work, rec)
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
    let relations = Relations::new(r_input, Some(s_input));
    let rec = &mut Recovery::default();
    run_with(cluster, &relations, tokens_path, config, work, rec)
}

/// The stage-2 driver, self-join and R-S alike, skipping each job whose
/// committed output is still valid (see [`crate::recovery`]).
pub(crate) fn run_with(
    cluster: &Cluster,
    relations: &Relations,
    tokens_path: &str,
    config: &JoinConfig,
    work: &str,
    rec: &mut Recovery,
) -> Result<(String, PipelineMetrics)> {
    config.validate().map_err(MrError::InvalidConfig)?;
    relations.validate()?;
    let pairs = format!("{}/ridpairs", work.trim_end_matches('/'));
    let mut inputs: Vec<&str> = relations.paths().collect();
    // The skew pre-pass: sample the input (both relations: a group is hot
    // by its combined R+S load), estimate per-group load, decide which
    // routing groups to split. Deterministic, so a resumed driver rebuilds
    // the identical plan and committed output stays skippable.
    let plan = skew::build_plan(cluster.dfs(), &inputs, tokens_path, config)?;
    inputs.push(tokens_path);
    let tag = recovery::stage2_tag(config, relations.is_rs());
    let spec = KernelSpec {
        relations: relations.clone(),
        tokens: tokens_path.to_string(),
        pairs: pairs.clone(),
        config: config.clone(),
        skew_splits: plan.entries(),
    };
    let name = KernelSpec::names(config.stage2).0;
    let ran = rec.run_or_skip(cluster, name, &inputs, &tag, &pairs, |fp| {
        let mut jm = run_spec(cluster, &spec, fp)?;
        // Driver-side skew counters: plan size and fan-out, visible in the
        // run report next to the mapper-side replication metrics even when
        // no mapper happened to hit a split group.
        if !plan.is_empty() {
            let counters = [
                ("skew.split_tokens", plan.len() as u64),
                ("skew.split_reduce_keys", plan.total_split_keys()),
                ("skew.max_buckets", u64::from(plan.max_buckets())),
            ];
            jm.counters
                .extend(counters.map(|(name, n)| (name.to_string(), n)));
        }
        Ok(jm)
    });
    let mut metrics = PipelineMetrics::default();
    metrics.push(ran?);
    Ok((pairs, metrics))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mapreduce::Codec;

    /// The stage-2 job of `config` over the self-join records at `input`,
    /// as the driver builds it, without a skew plan.
    pub(crate) fn kernel_job(
        dfs: &Dfs,
        input: &str,
        config: &JoinConfig,
    ) -> Result<Job<ProjectionMapper, KernelReducer>> {
        let spec = KernelSpec {
            relations: Relations::new(input, None),
            tokens: "/work/tokens".into(),
            pairs: "/work/ridpairs".into(),
            config: config.clone(),
            skew_splits: Vec::new(),
        };
        spec.build(dfs)
    }

    #[test]
    fn run_refuses_a_bad_config_before_any_job() {
        use crate::recovery::tests::refuses_a_bad_config;
        refuses_a_bad_config(|c, bad| run_self(c, "/in", "/work/tokens", bad, "/work"));
        refuses_a_bad_config(|c, bad| run_rs(c, "/r", "/s", "/work/tokens", bad, "/work"));
    }

    #[test]
    fn workers_build_every_kernel_job_from_the_bytes_the_driver_encodes() {
        use crate::recovery::tests::worker_builds_the_drivers_job as rebuilt;
        let dfs = Dfs::new(2, 16).unwrap();
        let lines = |n: u64| (0..n).map(|i| format!("{i}\ttitle {i}\tauthor"));
        dfs.write_text("/r", lines(6)).unwrap();
        dfs.write_text("/s", lines(9)).unwrap();
        let (r_splits, s_splits) = (dfs.splits("/r").unwrap(), dfs.splits("/s").unwrap());
        // The two values the BK payload this spec replaced did not carry: a
        // group count as given, and a block-processing kernel.
        let grouped = TokenRouting::Grouped { groups: 7 };
        for (stage2, routing, s, name) in [
            (Stage2Algo::Bk, grouped, None, "stage2-bk"),
            (Stage2Algo::Pk, grouped, Some("/s"), "stage2-pk"),
            (
                Stage2Algo::BkMapBlocks { blocks: 3 },
                TokenRouting::Individual,
                None,
                "stage2-bk-mapblocks",
            ),
            (
                Stage2Algo::BkReduceBlocks { blocks: 2 },
                TokenRouting::Individual,
                Some("/s"),
                "stage2-bk-reduceblocks",
            ),
        ] {
            let spec = KernelSpec {
                relations: Relations::new("/r", s),
                tokens: "/work/tokens".into(),
                pairs: "/work/ridpairs".into(),
                config: JoinConfig {
                    stage2,
                    routing,
                    ..JoinConfig::recommended()
                },
                skew_splits: vec![(3, 2), (9, 4)],
            };
            let splits = r_splits.len() + s.map_or(0, |_| s_splits.len());
            let expected = (name.to_string(), None, "/work/ridpairs".to_string(), splits);
            assert_eq!(rebuilt(&spec, &dfs), expected);
            let decoded = KernelSpec::from_bytes(&spec.to_bytes()).unwrap();
            assert_eq!(decoded.config, spec.config);
            assert_eq!(decoded.skew_splits, spec.skew_splits);
        }
    }

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
