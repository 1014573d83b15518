//! End-to-end join drivers: the paper's three stages chained together.

use mapreduce::{Cluster, PipelineMetrics, Result};

use crate::config::{JoinConfig, BAD_RECORDS_COUNTER};
use crate::keys::Relations;
use crate::model;
use crate::recovery::Recovery;
use crate::{stage1, stage2, stage3};

/// Result of an end-to-end join: output locations plus per-stage metrics.
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    /// DFS path of the ordered token list (stage 1).
    pub tokens_path: String,
    /// DFS path of the RID-pair list (stage 2).
    pub ridpairs_path: String,
    /// DFS path of the joined record pairs (stage 3).
    pub joined_path: String,
    /// Metrics of stage 1's job(s).
    pub stage1: PipelineMetrics,
    /// Metrics of stage 2's job.
    pub stage2: PipelineMetrics,
    /// Metrics of stage 3's job(s).
    pub stage3: PipelineMetrics,
    /// What this run decided about earlier output in its work directory:
    /// jobs skipped and re-run, checksum failures (empty when there was
    /// none).
    pub recovery: Recovery,
}

impl JoinOutcome {
    /// Total modelled seconds across all stages ([`model::sim_secs`]).
    pub fn sim_secs(&self) -> f64 {
        let (s1, s2, s3) = self.stage_sim_secs();
        s1 + s2 + s3
    }

    /// Total real wall-clock seconds.
    pub fn wall_secs(&self) -> f64 {
        self.stage1.wall_secs() + self.stage2.wall_secs() + self.stage3.wall_secs()
    }

    /// Per-stage modelled seconds `(stage1, stage2, stage3)`.
    pub fn stage_sim_secs(&self) -> (f64, f64, f64) {
        (
            model::sim_secs(&self.stage1),
            model::sim_secs(&self.stage2),
            model::sim_secs(&self.stage3),
        )
    }

    /// Total bytes shuffled across all stages.
    pub fn shuffle_bytes(&self) -> u64 {
        self.stage1.shuffle_bytes() + self.stage2.shuffle_bytes() + self.stage3.shuffle_bytes()
    }

    /// Every job's metrics across the three stages, in execution order.
    pub fn all_jobs(&self) -> impl Iterator<Item = &mapreduce::JobMetrics> {
        self.stage1
            .jobs
            .iter()
            .chain(&self.stage2.jobs)
            .chain(&self.stage3.jobs)
    }

    /// Failed task attempts that were retried, across all stages.
    pub fn task_retries(&self) -> u64 {
        self.all_jobs().map(|j| j.task_retries).sum()
    }

    /// Reduce outputs committed across all stages (one per reduce task of
    /// every job with an output directory).
    pub fn output_commits(&self) -> u64 {
        self.all_jobs().map(|j| j.output_commits).sum()
    }

    /// Failed reduce attempts whose partial output was discarded.
    pub fn output_aborts(&self) -> u64 {
        self.all_jobs().map(|j| j.output_aborts).sum()
    }

    /// Orphaned `_attempt-*` files scavenged at job starts across all
    /// stages (leftovers of a crashed prior run).
    pub fn scavenged_attempt_files(&self) -> u64 {
        self.all_jobs().map(|j| j.scavenged_attempt_files).sum()
    }

    /// Malformed input records skipped under a lenient
    /// [`crate::config::BadRecordPolicy`], across all stages.
    pub fn bad_records_skipped(&self) -> u64 {
        self.all_jobs()
            .map(|j| j.counter(BAD_RECORDS_COUNTER))
            .sum()
    }

    /// The modelled cluster's speculative attempts `(launched, won,
    /// killed)` across all stages.
    pub fn speculative(&self) -> (u64, u64, u64) {
        self.all_jobs().fold((0, 0, 0), |(l, w, k), j| {
            let (launched, won, killed) = model::job(j).speculative();
            (l + launched, w + won, k + killed)
        })
    }
}

/// Run an end-to-end **self-join** of the records at `input`.
///
/// `work` is a DFS directory the stage outputs land under. A join over a
/// `work` an earlier (possibly crashed) run left behind resumes: each job
/// whose committed output is still trustworthy — its manifest names the
/// same inputs by content and the same relevant config, and every part
/// verifies against its checksum — is skipped, and every other job runs
/// into its cleared output directory ([`crate::recovery`]). The output is
/// identical to a join over an empty `work`. Returns the outcome with all
/// three stages' metrics.
///
/// ```
/// use fuzzyjoin::{self_join, JoinConfig};
/// use mapreduce::{Cluster, ClusterConfig};
///
/// let cluster = Cluster::new(ClusterConfig::with_nodes(2), 1 << 16).unwrap();
/// cluster
///     .dfs()
///     .write_text(
///         "/records",
///         [
///             "1\tefficient parallel set similarity joins\tvernica carey li",
///             "2\tefficient parallel set similarity joins\tvernica carey li",
///             "3\tsomething entirely different\tnobody",
///         ],
///     )
///     .unwrap();
/// let outcome = self_join(&cluster, "/records", "/work", &JoinConfig::recommended()).unwrap();
/// let joined = fuzzyjoin::read_joined(&cluster, &outcome.joined_path).unwrap();
/// assert_eq!(joined.len(), 1);
/// assert_eq!(joined[0].0, (1, 2));
/// ```
pub fn self_join(
    cluster: &Cluster,
    input: &str,
    work: &str,
    config: &JoinConfig,
) -> Result<JoinOutcome> {
    join_impl(cluster, input, None, work, config)
}

/// Run an end-to-end **R-S join** between the records at `r_input` and
/// `s_input`. Stage 1 (token ordering) runs on R only, so R should be the
/// smaller relation, as in the paper; S tokens absent from R's dictionary
/// are discarded in stage 2. Resumes over `work` as [`self_join`] does.
pub fn rs_join(
    cluster: &Cluster,
    r_input: &str,
    s_input: &str,
    work: &str,
    config: &JoinConfig,
) -> Result<JoinOutcome> {
    join_impl(cluster, r_input, Some(s_input), work, config)
}

fn join_impl(
    cluster: &Cluster,
    r_input: &str,
    s_input: Option<&str>,
    work: &str,
    config: &JoinConfig,
) -> Result<JoinOutcome> {
    let mut rec = Recovery::default();
    let relations = Relations::new(r_input, s_input);
    relations.validate()?;
    let (tokens_path, m1) = stage1::run_with(cluster, r_input, config, work, &mut rec)?;
    let (ridpairs_path, m2) =
        stage2::run_with(cluster, &relations, &tokens_path, config, work, &mut rec)?;
    let (joined_path, m3) =
        stage3::run_with(cluster, &relations, &ridpairs_path, config, work, &mut rec)?;
    Ok(JoinOutcome {
        tokens_path,
        ridpairs_path,
        joined_path,
        stage1: m1,
        stage2: m2,
        stage3: m3,
        recovery: rec,
    })
}

/// Read back the stage-2 RID pairs, sorted (stage 2 writes each pair
/// once) — convenient for tests and for workloads that only need the pair
/// list.
pub fn read_rid_pairs(cluster: &Cluster, ridpairs_path: &str) -> Result<Vec<(u64, u64, f64)>> {
    let mut pairs = Vec::new();
    for line in cluster.dfs().read_text(ridpairs_path)? {
        pairs.push(stage2::parse_pair_line(&line)?);
    }
    pairs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(pairs)
}
