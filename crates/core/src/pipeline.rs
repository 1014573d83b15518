//! End-to-end join drivers: the paper's three stages chained together.

use std::fmt;

use mapreduce::{Cluster, JobMetrics, PipelineMetrics, Result, HIST_REDUCE_GROUP_RECORDS};

use crate::config::{JoinConfig, BAD_RECORDS_COUNTER};
use crate::keys::Relations;
use crate::model;
use crate::recovery::Recovery;
use crate::stage3::{JoinedPair, PairKey};
use crate::{stage1, stage2, stage3};

/// What a resumed run decided: jobs skipped (committed output reused), jobs
/// re-run (with the reason their output was not reusable), and detected
/// checksum failures. Empty/default for non-resume runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Whether this run was started in resume mode.
    pub resume: bool,
    /// Jobs skipped because their commit manifest validated.
    pub jobs_skipped: Vec<String>,
    /// Jobs re-run, as `name: reason` strings.
    pub jobs_rerun: Vec<String>,
    /// Committed files whose checksum no longer matched their bytes.
    pub checksum_failures: u64,
}

impl From<Recovery> for RecoverySummary {
    fn from(rec: Recovery) -> Self {
        RecoverySummary {
            resume: rec.is_resume(),
            jobs_skipped: rec.jobs_skipped,
            jobs_rerun: rec.jobs_rerun,
            checksum_failures: rec.checksum_failures,
        }
    }
}

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
    /// Resume decisions of this run (default for non-resume runs).
    pub recovery: RecoverySummary,
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

    /// A multi-line human-readable report of the join execution: one row per
    /// MapReduce job with modelled time, shuffle volume, and task counts,
    /// plus stage totals.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (stage, metrics) in [
            ("1", &self.stage1),
            ("2", &self.stage2),
            ("3", &self.stage3),
        ] {
            for job in &metrics.jobs {
                let _ = writeln!(s, "{}", JobText(job));
            }
            let _ = writeln!(
                s,
                "  stage {stage} total: {:.3}s simulated, {:.3}s wall",
                model::sim_secs(metrics),
                metrics.wall_secs()
            );
        }
        let _ = writeln!(
            s,
            "end-to-end: {:.3}s simulated, {:.3}s wall, {} bytes shuffled",
            self.sim_secs(),
            self.wall_secs(),
            self.shuffle_bytes()
        );
        // What exactness saved: meetings of two records that a reducer left
        // to the pair's owner (counted by the PK kernel), and records stage
        // 3 kept out of its shuffle because no pair names them.
        let sum = |stage: &PipelineMetrics, name: &str| -> u64 {
            stage.jobs.iter().map(|j| j.counter(name)).sum()
        };
        let _ = writeln!(
            s,
            "exact dataflow: stage 2 emitted {} pairs, left {} first touches to their owner \
             (stage2.funnel.unowned); stage 3 shuffled {} participating records, filtered {} \
             (stage3.participants, stage3.records_filtered)",
            sum(&self.stage2, "stage2.pairs_emitted"),
            sum(&self.stage2, "stage2.funnel.unowned"),
            sum(&self.stage3, "stage3.participants"),
            sum(&self.stage3, "stage3.records_filtered"),
        );
        let (launched, won, killed) = self.speculative();
        if self.task_retries() + self.output_aborts() + launched > 0 {
            let _ = writeln!(
                s,
                "faults: {} retries, {} commits, {} aborts, speculative {launched} launched/{won} won/{killed} killed",
                self.task_retries(),
                self.output_commits(),
                self.output_aborts(),
            );
        }
        s
    }
}

/// One job's rows of [`JoinOutcome::report`]: what it ran beside what the
/// modelled cluster made of it.
struct JobText<'a>(&'a JobMetrics);

impl fmt::Display for JobText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (job, model) = (self.0, model::job(self.0));
        let (launched, won, killed) = model.speculative();
        writeln!(
            f,
            "job {:<28} sim {:>8.3}s  wall {:>8.3}s",
            job.name, model.sim_secs, job.wall_secs
        )?;
        writeln!(
            f,
            "  map    tasks {:>5}  in {:>10} rec  out {:>10} rec  makespan {:>8.3}s (skew {:.2}, {} local/{} remote)",
            job.map.tasks,
            job.map_input_records,
            job.map_output_records,
            model.map.makespan,
            job.map.skew(),
            model.map.local_tasks,
            model.map.remote_tasks,
        )?;
        writeln!(
            f,
            "  shuffle {:>12} bytes  {:>10} rec  {} spills  transfer {:>7.3}s",
            job.shuffle_bytes, job.shuffle_records, job.spills, model.transfer_secs
        )?;
        write!(
            f,
            "  reduce tasks {:>5}  groups {:>9}  in {:>10} rec  out {:>9} rec  makespan {:>8.3}s (skew {:.2}, {} merge passes, {} retries)",
            job.reduce.tasks,
            job.reduce_input_groups,
            job.reduce_input_records,
            job.reduce_output_records,
            model.reduce.makespan,
            job.reduce.skew(),
            job.merge_passes,
            job.task_retries,
        )?;
        if job.task_retries + launched + job.output_aborts > 0 {
            write!(
                f,
                "\n  faults retries {:>3} (backoff {:>6.1}s)  speculative {} launched/{} won/{} killed  commits {} aborts {}",
                job.task_retries,
                model.backoff_secs,
                launched,
                won,
                killed,
                job.output_commits,
                job.output_aborts,
            )?;
        }
        if job.scavenged_attempt_files > 0 {
            write!(
                f,
                "\n  recovery scavenged {} orphaned attempt file(s)",
                job.scavenged_attempt_files,
            )?;
        }
        if let Some(h) = job.histogram(HIST_REDUCE_GROUP_RECORDS) {
            if !h.is_empty() {
                write!(
                    f,
                    "\n  groups per-group records p50 {:.0}  p95 {:.0}  p99 {:.0}  max {:.0}",
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.percentile(99.0),
                    h.max,
                )?;
            }
        }
        if !job.reduce_key_heavy_hitters.is_empty() {
            write!(f, "\n  hot keys")?;
            for (label, count) in job.reduce_key_heavy_hitters.iter().take(5) {
                write!(f, "  {label}={count}")?;
            }
        }
        Ok(())
    }
}

/// Run an end-to-end **self-join** of the records at `input`.
///
/// `work` is a scratch DFS directory; stage outputs land under it. Returns
/// the outcome with all three stages' metrics.
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
    join_impl(cluster, input, None, work, config, false)
}

/// [`self_join`] in **resume mode**: given a work directory from a previous
/// (possibly crashed) run over the same `Dfs`, validate each job's commit
/// manifest and skip jobs whose committed output is still trustworthy —
/// same inputs by content, same relevant config, every part verifying
/// against its checksum. Invalid or missing output is cleared and
/// re-produced. The final output is identical to an uninterrupted run.
pub fn self_join_resume(
    cluster: &Cluster,
    input: &str,
    work: &str,
    config: &JoinConfig,
) -> Result<JoinOutcome> {
    join_impl(cluster, input, None, work, config, true)
}

/// Run an end-to-end **R-S join** between the records at `r_input` and
/// `s_input`. Stage 1 (token ordering) runs on R only, so R should be the
/// smaller relation, as in the paper; S tokens absent from R's dictionary
/// are discarded in stage 2.
pub fn rs_join(
    cluster: &Cluster,
    r_input: &str,
    s_input: &str,
    work: &str,
    config: &JoinConfig,
) -> Result<JoinOutcome> {
    join_impl(cluster, r_input, Some(s_input), work, config, false)
}

/// [`rs_join`] in resume mode (see [`self_join_resume`]).
pub fn rs_join_resume(
    cluster: &Cluster,
    r_input: &str,
    s_input: &str,
    work: &str,
    config: &JoinConfig,
) -> Result<JoinOutcome> {
    join_impl(cluster, r_input, Some(s_input), work, config, true)
}

fn join_impl(
    cluster: &Cluster,
    r_input: &str,
    s_input: Option<&str>,
    work: &str,
    config: &JoinConfig,
    resume: bool,
) -> Result<JoinOutcome> {
    let mut rec = if resume {
        Recovery::resuming()
    } else {
        Recovery::disabled()
    };
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
        recovery: rec.into(),
    })
}

/// Read back the final joined record pairs, sorted by RID pair.
pub fn read_joined(cluster: &Cluster, joined_path: &str) -> Result<Vec<(PairKey, JoinedPair)>> {
    stage3::read_joined(cluster, joined_path)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A job as the engine reports one on a one-node cluster.
    fn job(name: &str) -> JobMetrics {
        JobMetrics {
            name: name.into(),
            nodes: 1,
            ..Default::default()
        }
    }

    #[test]
    fn display_contains_key_fields() {
        let m = job("stage2-kernel");
        let s = JobText(&m).to_string();
        assert!(s.contains("stage2-kernel"));
        assert!(s.contains("shuffle"));
    }

    #[test]
    fn display_shows_heavy_hitters_and_group_percentiles() {
        let group_hist = mapreduce::Histogram::new();
        for n in [1u64, 2, 3, 100] {
            group_hist.record_count(n);
        }
        let m = JobMetrics {
            histograms: vec![(HIST_REDUCE_GROUP_RECORDS.to_string(), group_hist.snapshot())],
            reduce_key_heavy_hitters: vec![("rank:0".into(), 100), ("rank:7".into(), 3)],
            ..job("stage2-bk")
        };
        let s = JobText(&m).to_string();
        assert!(s.contains("hot keys"), "{s}");
        assert!(s.contains("rank:0=100"), "{s}");
        assert!(s.contains("p95"), "{s}");
    }

    #[test]
    fn pipeline_display_lists_jobs_and_totals() {
        let stage = |m: JobMetrics| PipelineMetrics { jobs: vec![m] };
        let outcome = JoinOutcome {
            stage1: stage(JobMetrics {
                shuffle_bytes: 10,
                ..job("stage1-a")
            }),
            stage2: stage(JobMetrics {
                shuffle_bytes: 30,
                ..job("stage2-b")
            }),
            ..Default::default()
        };
        let s = outcome.report();
        assert!(s.contains("stage1-a"), "{s}");
        assert!(s.contains("stage2-b"), "{s}");
        assert!(s.contains("stage 2 total"), "{s}");
        assert!(s.contains("40 bytes"), "{s}");
    }
}
