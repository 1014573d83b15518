//! Per-job execution metrics.
//!
//! Each job reports real wall-clock time, per-phase task statistics, shuffle
//! byte counts (measured on the encoded representation that actually crossed
//! the map→reduce boundary), and one [`TaskRecord`] per committed task —
//! what ran, where, and for how long. What a modelled cluster would have
//! made of those records is the caller's to compute (`fuzzyjoin::model`).

use crate::codec_struct;
use crate::task::Phase;
use crate::trace::HistogramSnapshot;

/// Statistics for one phase (map or reduce) of a job, over the measured
/// seconds of its committed tasks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseMetrics {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Sum of individual task durations (seconds of work).
    pub total_task_secs: f64,
    /// Longest single task.
    pub max_task_secs: f64,
}

impl PhaseMetrics {
    /// The statistics of one phase's task records.
    pub(crate) fn of(tasks: &[TaskRecord]) -> Self {
        PhaseMetrics {
            tasks: tasks.len(),
            total_task_secs: tasks.iter().map(|t| t.secs).sum(),
            max_task_secs: tasks.iter().map(|t| t.secs).fold(0.0, f64::max),
        }
    }

    /// Mean task duration; 0 for an empty phase.
    pub fn mean_task_secs(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.total_task_secs / self.tasks as f64
        }
    }

    /// Skew indicator: max task time over mean task time (1.0 = balanced).
    pub fn skew(&self) -> f64 {
        let mean = self.mean_task_secs();
        if mean == 0.0 {
            1.0
        } else {
            self.max_task_secs / mean
        }
    }
}

/// One committed task, as it ran: the winning attempt's coordinates, its
/// input, and its measured seconds. Identical across backends except for
/// `secs`, because attempts are placed by `(task, attempt)`, not by the
/// executing thread or process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRecord {
    /// Map or reduce.
    pub phase: Phase,
    /// Task index within its phase.
    pub task: usize,
    /// Zero-based index of the winning attempt (the retries before it).
    pub attempt: usize,
    /// Node label of the winning attempt.
    pub node: usize,
    /// DFS node holding a map task's input block, if it has one.
    pub node_hint: Option<usize>,
    /// Input bytes: a map task's split, a reduce task's partition.
    pub input_bytes: u64,
    /// Measured seconds of the winning attempt.
    pub secs: f64,
    /// Slow-down factor an injected straggle fault put on the winning
    /// attempt; 1.0 when none did.
    pub straggle: f64,
}
codec_struct!(TaskRecord {
    phase,
    task,
    attempt,
    node,
    node_hint,
    input_bytes,
    secs,
    straggle,
});

/// Metrics for a single MapReduce job execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobMetrics {
    /// Job name as given in the spec.
    pub name: String,
    /// Nodes of the topology the job ran on.
    pub nodes: usize,
    /// One record per committed task: map tasks, then reduce tasks, each
    /// in task order.
    pub tasks: Vec<TaskRecord>,
    /// Map-phase task statistics.
    pub map: PhaseMetrics,
    /// Reduce-phase task statistics (includes merge + reduce function time).
    pub reduce: PhaseMetrics,
    /// Failed task attempts that were retried (across both phases).
    pub task_retries: u64,
    /// Reduce outputs committed (attempt files renamed into place). Exactly
    /// one commit per reduce task on jobs with an output directory — failed
    /// attempts never commit.
    pub output_commits: u64,
    /// Failed reduce attempts whose partial output was discarded.
    pub output_aborts: u64,
    /// Orphaned `_attempt-*` files from a crashed prior run that the job
    /// deleted from its output directory before starting.
    pub scavenged_attempt_files: u64,
    /// Intermediate reduce-side merge passes (runs beyond the merge factor).
    pub merge_passes: u64,
    /// Records fed to map functions.
    pub map_input_records: u64,
    /// Records emitted by map functions (before the combiner).
    pub map_output_records: u64,
    /// Records entering combiner invocations.
    pub combine_input_records: u64,
    /// Records leaving combiner invocations.
    pub combine_output_records: u64,
    /// Encoded bytes written to spill runs — the data that crosses the
    /// network in a shuffle.
    pub shuffle_bytes: u64,
    /// Records that crossed the shuffle (post-combiner).
    pub shuffle_records: u64,
    /// Number of spill runs produced by map tasks.
    pub spills: u64,
    /// Distinct reduce groups (keys after grouping comparator).
    pub reduce_input_groups: u64,
    /// Records consumed by reduce functions.
    pub reduce_input_records: u64,
    /// Records emitted by reduce functions.
    pub reduce_output_records: u64,
    /// Real wall-clock seconds the in-process execution took.
    pub wall_secs: f64,
    /// User counters `(name, value)`, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Named histogram snapshots, name-ordered: engine-built distributions
    /// ([`crate::trace::HIST_MAP_TASK_SECS`],
    /// [`crate::trace::HIST_REDUCE_TASK_SECS`],
    /// [`crate::trace::HIST_REDUCE_GROUP_RECORDS`]) plus any user
    /// histograms recorded through [`crate::TaskContext::histogram`].
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Heaviest reduce keys `(label, shuffle records)` in descending
    /// weight, for jobs that define a [`crate::Job::key_label`]; empty
    /// otherwise.
    pub reduce_key_heavy_hitters: Vec<(String, u64)>,
}

impl JobMetrics {
    /// Value of a user counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A named histogram snapshot, when one was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Committed tasks of `phase` per node label, indexed by node.
    pub fn tasks_per_node(&self, phase: Phase) -> Vec<u64> {
        let mut per_node = vec![0u64; self.nodes];
        for t in self.tasks.iter().filter(|t| t.phase == phase) {
            per_node[t.node % self.nodes] += 1;
        }
        per_node
    }
}

/// Accumulated metrics over a multi-job pipeline (one paper "stage" may be
/// one or two jobs; a full join is three stages).
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Per-job metrics in execution order.
    pub jobs: Vec<JobMetrics>,
}

impl PipelineMetrics {
    /// Append one job's metrics.
    pub fn push(&mut self, m: JobMetrics) {
        self.jobs.push(m);
    }

    /// Merge another pipeline's jobs after this one's.
    pub fn extend(&mut self, other: PipelineMetrics) {
        self.jobs.extend(other.jobs);
    }

    /// Total real wall-clock seconds.
    pub fn wall_secs(&self) -> f64 {
        self.jobs.iter().map(|j| j.wall_secs).sum()
    }

    /// Total bytes shuffled across all jobs.
    pub fn shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.shuffle_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_mean_and_skew() {
        let p = PhaseMetrics {
            tasks: 4,
            total_task_secs: 8.0,
            max_task_secs: 5.0,
        };
        assert!((p.mean_task_secs() - 2.0).abs() < 1e-12);
        assert!((p.skew() - 2.5).abs() < 1e-12);
        let empty = PhaseMetrics::default();
        assert_eq!(empty.mean_task_secs(), 0.0);
        assert_eq!(empty.skew(), 1.0);
    }

    #[test]
    fn counter_lookup() {
        let m = JobMetrics {
            counters: vec![("a".into(), 3), ("b".into(), 7)],
            ..Default::default()
        };
        assert_eq!(m.counter("b"), 7);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn pipeline_accumulates() {
        let mut p = PipelineMetrics::default();
        p.push(JobMetrics {
            wall_secs: 0.5,
            shuffle_bytes: 100,
            ..Default::default()
        });
        p.push(JobMetrics {
            wall_secs: 1.0,
            shuffle_bytes: 50,
            ..Default::default()
        });
        assert!((p.wall_secs() - 1.5).abs() < 1e-12);
        assert_eq!(p.shuffle_bytes(), 150);
        let mut q = PipelineMetrics::default();
        q.extend(p);
        assert_eq!(q.jobs.len(), 2);
    }
}
