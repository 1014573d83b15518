//! The cluster a job runs on: what a caller decides about it
//! ([`ClusterConfig`]: how many nodes, which backend, what budgets and
//! faults) and the one topology constant the engine sizes jobs with,
//! [`SLOTS_PER_NODE`].
//!
//! The rest of the paper's §6 cluster — 1 Gb/s links, Hadoop's speculation,
//! retry backoff — is not the engine's: each job records what ran
//! ([`crate::TaskRecord`]), and `fuzzyjoin::model` computes what a modelled
//! cluster of this many nodes would have made of it.

use std::time::{Duration, Instant};

use crate::backend::BackendKind;
use crate::codec_struct;
use crate::faults::FaultPlan;

/// Concurrent map tasks per node, and concurrent reduce tasks per node
/// (paper §6: 4 and 4).
pub const SLOTS_PER_NODE: usize = 4;

/// Heartbeats a supervised worker sends per task deadline.
const HEARTBEATS_PER_DEADLINE: u32 = 20;

/// `secs` as one task attempt's wall-clock deadline: finite, positive and
/// short enough that the instant it ends at exists on this host's clock.
pub fn task_deadline(secs: f64) -> Result<Duration, String> {
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|d| secs > 0.0 && Instant::now().checked_add(*d).is_some())
        .ok_or_else(|| format!("{secs} must be finite, > 0 and a representable deadline"))
}

/// What a caller decides about the shared-nothing cluster a job runs on;
/// DESIGN.md §20 lists who sets each field.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of simulated nodes (the paper sweeps 2..=10).
    pub nodes: usize,
    /// Optional per-task memory budget in bytes (paper: 2.5 GB virtual per
    /// task). `None` disables budget enforcement.
    pub task_memory: Option<u64>,
    /// Map-side sort buffer: encoded output bytes buffered before a spill
    /// (Hadoop's `io.sort.mb`). Tests shrink it to force multi-spill runs.
    pub spill_buffer_bytes: usize,
    /// Physical threads used to execute tasks. Defaults to the host's
    /// available parallelism; timing fidelity is best when this does not
    /// exceed the physical core count.
    pub execution_threads: Option<usize>,
    /// Times a failing task is executed before the job fails (Hadoop's
    /// `mapreduce.map.maxattempts`); 1 = no retries. A retry runs at once;
    /// the backoff Hadoop would wait before it is the model's to charge.
    pub max_task_attempts: usize,
    /// Optional deterministic fault-injection plan (see [`crate::faults`]).
    pub faults: Option<FaultPlan>,
    /// Which execution backend runs the tasks (see [`crate::backend`]).
    /// All three backends produce byte-identical output from the same task
    /// runner; they differ only in the shuffle transport — how map output
    /// reaches the reducers — and, for [`BackendKind::Process`], in which
    /// process an attempt runs.
    pub backend: BackendKind,
    /// Where the DFS lives, for every backend (the
    /// [`BackendKind::Process`] backend's workers open it too). `None`
    /// gives the cluster a self-cleaning temp root ([`crate::Dfs::new`]).
    /// Set it to keep the filesystem around across engine restarts
    /// (crash/resume).
    pub dfs_root: Option<std::path::PathBuf>,
    /// Capacity (in spill runs) of the one shuffle channel between the map
    /// attempts and the collector thread of the [`BackendKind::Sharded`]
    /// backend. The collector receives eagerly, so this bounds only how
    /// many runs can be in hand-off at once — a sender blocks while that
    /// many are queued — not how far the map phase runs ahead of the
    /// reducers (reduce starts when the map phase is over).
    pub shuffle_channel_capacity: usize,
    /// Wall-clock deadline for one task attempt on the real backends
    /// ([`BackendKind::Sharded`] and [`BackendKind::Process`]). When an
    /// attempt in a worker process exceeds it, the job's watchdog kills the
    /// worker and the attempt is retried as a transient `NodeLost`; an
    /// attempt on the driver's threads cannot be killed, so the job fails
    /// fast with a classified error. A supervised worker also heartbeats,
    /// every twentieth of this. `None` (the default) disables wall-clock
    /// supervision entirely. Never affects committed bytes.
    pub task_timeout_secs: Option<f64>,
}

// What a process-backend worker needs of its driver's configuration, as it
// crosses the pipe in the hello: topology, the task budgets its attempts
// run under, the fault plan (minus its storage keys, see `FaultPlan`) so
// that it reaches the driver's own pure `decide()` outcomes, and the task
// deadline, which says whether and how often to heartbeat. Everything else
// decodes to the default, the backend above all: a worker runs its attempts
// itself.
codec_struct!(
    ClusterConfig {
        nodes,
        task_memory,
        spill_buffer_bytes,
        faults,
        task_timeout_secs,
    }..ClusterConfig::default()
);

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 10,
            task_memory: None,
            spill_buffer_bytes: 64 << 20,
            execution_threads: None,
            max_task_attempts: 1,
            faults: None,
            backend: BackendKind::Simulated,
            dfs_root: None,
            shuffle_channel_capacity: 256,
            task_timeout_secs: None,
        }
    }
}

impl ClusterConfig {
    /// A config with `nodes` simulated nodes and the paper's slot counts.
    pub fn with_nodes(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            ..Default::default()
        }
    }

    /// Default number of reduce tasks for a job: one wave of reduce slots,
    /// matching the paper's Hadoop configuration.
    pub fn default_reducers(&self) -> usize {
        self.nodes * SLOTS_PER_NODE
    }

    /// Physical execution threads to use.
    pub fn physical_threads(&self) -> usize {
        self.execution_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// How often a supervised worker heartbeats while it runs a task: the
    /// task deadline / 20, so the watchdog's eight-beat window is 40 % of
    /// the deadline. The driver's watchdog and the worker's heartbeat
    /// thread both take it from here. `None` when the cluster is not
    /// supervised.
    pub(crate) fn heartbeat_interval(&self) -> Option<Duration> {
        let deadline = Duration::from_secs_f64(self.task_timeout_secs?);
        Some(deadline / HEARTBEATS_PER_DEADLINE)
    }

    /// Validate the topology.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        if self.spill_buffer_bytes < 1024 {
            return Err("spill buffer must be at least 1 KiB".into());
        }
        if self.max_task_attempts == 0 {
            return Err("max_task_attempts must be at least 1".into());
        }
        if self.shuffle_channel_capacity == 0 {
            return Err("shuffle_channel_capacity must be at least 1".into());
        }
        if let Some(secs) = self.task_timeout_secs {
            task_deadline(secs).map_err(|e| format!("task_timeout_secs {e}"))?;
        }
        if let Some(plan) = &self.faults {
            plan.validate(self.nodes)?;
            // On the process backend an injected hang really is a worker
            // that never answers; without a deadline nothing ever kills
            // it and the driver blocks forever.
            if plan.p_hang > 0.0
                && self.backend == BackendKind::Process
                && self.task_timeout_secs.is_none()
            {
                return Err(
                    "fault plan injects hangs (hang= > 0) on the process backend: \
                     set task_timeout_secs so hung workers can be recovered"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_topology() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 10);
        assert_eq!(c.default_reducers(), 40);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_topologies() {
        let mut c = ClusterConfig::with_nodes(0);
        assert!(c.validate().is_err());
        c.nodes = 1;
        c.validate().unwrap();
        c.spill_buffer_bytes = 10;
        assert!(c.validate().is_err());
    }

    /// A timeout is accepted only when its deadline exists: the watchdog
    /// turns it into a `Duration` and an `Instant`, and neither may panic.
    #[test]
    fn validation_rejects_deadlines_the_clock_cannot_hold() {
        let timeout = |secs| ClusterConfig {
            task_timeout_secs: Some(secs),
            ..ClusterConfig::default()
        };
        for secs in [1e-3, 5.0, 1e9] {
            timeout(secs).validate().unwrap();
        }
        for secs in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e19, 1e20, f64::MAX] {
            let err = timeout(secs).validate().unwrap_err();
            assert!(err.starts_with("task_timeout_secs "), "{secs}: {err}");
        }
    }

    #[test]
    fn validation_rejects_bad_fault_plans() {
        let mut c = ClusterConfig::with_nodes(2);
        c.validate().unwrap();
        let mut plan = FaultPlan::quiet(0);
        plan.dead_node = Some(5);
        c.faults = Some(plan);
        assert!(c.validate().is_err(), "dead node must exist");
    }
}
