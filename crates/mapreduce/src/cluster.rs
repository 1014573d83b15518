//! The paper's cluster, written down once, and the time model used for
//! speedup/scaleup experiments.
//!
//! Section 6 of the paper fixes its cluster: 10 nodes (swept 2..=10), each
//! with 4 map and 4 reduce slots, on 1 Gb/s Ethernet, running Hadoop with
//! its default speculative execution. Those are constants here
//! ([`SLOTS_PER_NODE`], [`transfer_secs`], the backup attempts of
//! [`schedule`]); [`ClusterConfig`] holds only what a caller decides — how
//! many nodes, which backend, what budgets and faults.
//!
//! Every task's execution is timed individually. The engine then computes a
//! **simulated makespan** per phase with [`schedule`]: tasks are
//! list-scheduled onto `nodes × SLOTS_PER_NODE` virtual slots in submission
//! order — what Hadoop's JobTracker does when it hands tasks to free slots.
//! This is what makes speedup and scaleup curves meaningful even on a
//! single-core host: a stage whose work is concentrated in one reduce task
//! (the paper's skewed BRJ stage, or the single-reducer token sort) stops
//! speeding up no matter how many simulated nodes are added, because the
//! makespan is dominated by that one task.

use crate::backend::BackendKind;
use crate::codec_struct;
use crate::faults::FaultPlan;

/// Concurrent map tasks per node, and concurrent reduce tasks per node
/// (paper §6: 4 and 4).
pub const SLOTS_PER_NODE: usize = 4;

/// Per-node link bandwidth in bytes/second: 1 Gb/s full duplex, as on the
/// paper's IBM x3650 cluster.
const LINK_BYTES_PER_SEC: f64 = 125.0e6;

/// Seconds to move `bytes` over one node's link: a reduce task pulling its
/// partition (the reducer's own link is the bottleneck), or a map task
/// reading an input block held by another node.
pub fn transfer_secs(bytes: u64) -> f64 {
    bytes as f64 / LINK_BYTES_PER_SEC
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
    /// `mapreduce.map.maxattempts`); 1 = no retries. Each retry charges a
    /// capped exponential backoff to simulated time only.
    pub max_task_attempts: usize,
    /// Optional deterministic fault-injection plan (see [`crate::faults`]).
    pub faults: Option<FaultPlan>,
    /// Which execution backend runs the tasks (see [`crate::backend`]).
    /// All three backends produce byte-identical output from the same task
    /// runner; they differ only in the shuffle transport — how map output
    /// reaches the reducers — and, for [`BackendKind::Process`], in which
    /// process an attempt runs.
    pub backend: BackendKind,
    /// Root directory of a disk-backed DFS. Setting it puts the store on
    /// disk for *any* backend — the in-process backends gain a persistent,
    /// kill-survivable store, and the [`BackendKind::Process`] backend
    /// uses it as its storage plane. `None` keeps the in-memory store for
    /// the in-process backends and gives the process backend a
    /// self-cleaning temp directory. Set it to keep the filesystem around
    /// across engine restarts (crash/resume).
    pub dfs_root: Option<std::path::PathBuf>,
    /// Follow the write→sync→rename→dir-sync durable-commit discipline on
    /// the disk store: a file is fsynced before it is renamed into place
    /// and its directory after, and a job's commit syncs every part, then
    /// their directory, before it publishes `_SUCCESS` that way. On by
    /// default; benches opt out to measure the fsync tax — with it off, a
    /// killed *process* still never loses acknowledged commits (the page
    /// cache survives), but power loss can. No effect on the in-memory store.
    pub durable_commits: bool,
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
    /// fast with a classified error. `None` (the default) disables
    /// wall-clock supervision entirely. Never affects simulated time or
    /// committed bytes.
    pub task_timeout_secs: Option<f64>,
    /// Interval at which process workers emit heartbeat frames on the
    /// pipe protocol while a task runs; a worker silent for eight
    /// intervals is presumed hung and killed, even before its task
    /// deadline. Only meaningful when
    /// [`ClusterConfig::task_timeout_secs`] is set.
    pub heartbeat_interval_secs: f64,
}

// What a process-backend worker needs of its driver's configuration, as it
// crosses the pipe in the hello: topology, the task budgets its attempts
// run under, the fault plan (minus its storage keys, see `FaultPlan`) so
// that it reaches the driver's own pure `decide()` outcomes, the commit
// discipline — a task-level part commit must not be weaker than the
// job-level one — and whether to heartbeat. Everything else decodes to the
// default, the backend above all: a worker runs its attempts itself.
codec_struct!(
    ClusterConfig {
        nodes,
        task_memory,
        spill_buffer_bytes,
        faults,
        durable_commits,
        task_timeout_secs,
        heartbeat_interval_secs,
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
            durable_commits: true,
            shuffle_channel_capacity: 256,
            task_timeout_secs: None,
            heartbeat_interval_secs: 0.25,
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
        if let Some(timeout) = self.task_timeout_secs {
            if !timeout.is_finite() || timeout <= 0.0 {
                return Err(format!(
                    "task_timeout_secs {timeout} must be finite and > 0"
                ));
            }
        }
        if !self.heartbeat_interval_secs.is_finite() || self.heartbeat_interval_secs <= 0.0 {
            return Err(format!(
                "heartbeat_interval_secs {} must be finite and > 0",
                self.heartbeat_interval_secs
            ));
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

/// One task's inputs to [`schedule`].
#[derive(Debug, Clone, Copy)]
pub struct SimTask {
    /// Seconds the task's attempt ran (possibly inflated by an injected
    /// slow-down).
    pub duration: f64,
    /// Seconds a healthy attempt takes; a backup copy runs at this speed.
    /// An attempt with `duration > expected` is a straggler.
    pub expected: f64,
    /// DFS node holding the task's input block, if it has one.
    pub node_hint: Option<usize>,
    /// Input bytes, read over the network when the task runs off that node.
    pub input_bytes: u64,
}

/// One primary-vs-backup race of a [`Schedule`], on the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecRace {
    /// Index of the straggling task in submission order.
    pub task: usize,
    /// Slot seconds the primary attempt would occupy if left to finish.
    pub primary_duration: f64,
    /// Simulated second the backup attempt launched.
    pub backup_start: f64,
    /// Slot seconds the backup attempt needs (the healthy expectation).
    pub backup_duration: f64,
    /// True when the backup finished before the primary.
    pub backup_won: bool,
}

/// What [`schedule`] made of one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// Phase makespan in seconds.
    pub makespan: f64,
    /// Tasks whose committing attempt ran on the node holding its input
    /// (every task without a hint is local).
    pub local_tasks: u64,
    /// Tasks whose committing attempt read its input across the network.
    pub remote_tasks: u64,
    /// One record per straggler raced by a backup, in submission order.
    /// Hadoop kills the loser of a race, so attempts launched and attempts
    /// killed both equal `races.len()`.
    pub races: Vec<SpecRace>,
}

impl Schedule {
    /// Backup attempts that finished before their primary.
    pub fn won(&self) -> u64 {
        self.races.iter().filter(|r| r.backup_won).count() as u64
    }
}

/// The phase schedule of the modelled cluster: each task, in submission
/// order, takes the slot on which it finishes first — Hadoop handing the
/// next pending task to a free slot — where running off the node that holds
/// its input block adds the block's [`transfer_secs`] (data-local vs remote
/// tasks). When a primary attempt runs past its expected duration the
/// JobTracker notices, starts a backup on another slot, commits whichever
/// copy finishes first and kills the other (speculative execution); a phase
/// without stragglers has no races, so fault-free time never sees them.
pub fn schedule(tasks: &[SimTask], nodes: usize) -> Schedule {
    schedule_on(tasks, nodes, SLOTS_PER_NODE)
}

fn schedule_on(tasks: &[SimTask], nodes: usize, slots_per_node: usize) -> Schedule {
    assert!(nodes > 0 && slots_per_node > 0);
    let mut slots: Vec<Slot> = (0..nodes * slots_per_node)
        .map(|i| Slot {
            free_at: 0.0,
            node: i % nodes,
        })
        .collect();
    let mut out = Schedule::default();
    for (task, t) in tasks.iter().enumerate() {
        debug_assert!(t.duration >= 0.0 && t.expected >= 0.0, "{t:?}");
        let primary = place(&slots, t, t.duration, 0.0, None).expect("at least one slot");
        let mut winner = primary;
        if t.duration > t.expected {
            // The overrun shows once the healthy expectation has elapsed.
            let noticed = primary.finish - (t.duration - t.expected);
            if let Some(backup) = place(&slots, t, t.expected, noticed, Some(primary.slot)) {
                let backup_won = backup.finish < primary.finish;
                out.races.push(SpecRace {
                    task,
                    primary_duration: primary.finish - primary.start,
                    backup_start: backup.start,
                    backup_duration: backup.finish - backup.start,
                    backup_won,
                });
                if backup_won {
                    winner = backup;
                }
                // The loser is killed the moment the winner commits.
                slots[backup.slot].free_at = winner.finish;
            }
        }
        slots[primary.slot].free_at = winner.finish;
        out.makespan = out.makespan.max(winner.finish);
        if winner.local {
            out.local_tasks += 1;
        } else {
            out.remote_tasks += 1;
        }
    }
    out
}

struct Slot {
    free_at: f64,
    node: usize,
}

/// Where and when one attempt of a task runs.
#[derive(Clone, Copy)]
struct Placement {
    slot: usize,
    start: f64,
    finish: f64,
    local: bool,
}

/// The slot, other than `skip`, on which an attempt of `t` taking `secs`
/// and starting no earlier than `not_before` finishes first.
fn place(
    slots: &[Slot],
    t: &SimTask,
    secs: f64,
    not_before: f64,
    skip: Option<usize>,
) -> Option<Placement> {
    let mut best: Option<Placement> = None;
    for (slot, &Slot { free_at, node }) in slots.iter().enumerate() {
        let local = t.node_hint.is_none_or(|h| h == node);
        let remote_read = if local {
            0.0
        } else {
            transfer_secs(t.input_bytes)
        };
        let start = free_at.max(not_before);
        let finish = start + (secs + remote_read);
        if Some(slot) != skip && best.is_none_or(|b| finish < b.finish) {
            best = Some(Placement {
                slot,
                start,
                finish,
                local,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A task with no input block that runs as long as expected.
    fn healthy(duration: f64) -> SimTask {
        straggler(duration, duration)
    }

    fn straggler(duration: f64, expected: f64) -> SimTask {
        SimTask {
            duration,
            expected,
            node_hint: None,
            input_bytes: 0,
        }
    }

    /// A healthy task whose input block lives on `node`; `transfer` is the
    /// seconds a remote read of it costs.
    fn hinted(duration: f64, node: usize, transfer: f64) -> SimTask {
        SimTask {
            node_hint: Some(node),
            input_bytes: (transfer * LINK_BYTES_PER_SEC) as u64,
            ..healthy(duration)
        }
    }

    fn makespan(durations: &[f64], slots: usize) -> f64 {
        let tasks: Vec<SimTask> = durations.iter().map(|&d| healthy(d)).collect();
        schedule_on(&tasks, 1, slots).makespan
    }

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

    #[test]
    fn makespan_single_slot_is_sum() {
        let d = [1.0, 2.0, 3.0];
        assert!((makespan(&d, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_many_slots_is_max() {
        let d = [1.0, 2.0, 3.0];
        assert!((makespan(&d, 8) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_greedy_order_matters() {
        // Two slots, tasks in submission order: [3,3,1,1] -> slots finish at
        // (3+1)=4 and (3+1)=4 -> makespan 4.
        let d = [3.0, 3.0, 1.0, 1.0];
        assert!((makespan(&d, 2) - 4.0).abs() < 1e-12);
        // Skewed: one long task dominates regardless of slot count.
        let d = [10.0, 0.1, 0.1, 0.1];
        assert!((makespan(&d, 16) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_empty_is_zero() {
        assert_eq!(makespan(&[], 4), 0.0);
    }

    #[test]
    fn locality_schedule_prefers_local_slots() {
        // Two nodes, one slot each; two tasks pinned to different nodes.
        let tasks = [hinted(1.0, 0, 10.0), hinted(1.0, 1, 10.0)];
        let out = schedule_on(&tasks, 2, 1);
        assert_eq!(out.local_tasks, 2);
        assert_eq!(out.remote_tasks, 0);
        assert!(
            (out.makespan - 1.0).abs() < 1e-12,
            "both run in parallel locally"
        );
    }

    #[test]
    fn locality_schedule_pays_remote_penalty_when_forced() {
        // One node only; a task hinted to node 3 must run remotely, behind
        // 2 seconds of transfer.
        let out = schedule_on(&[hinted(1.0, 3, 2.0)], 1, 1);
        assert_eq!(out.remote_tasks, 1);
        assert!((out.makespan - 3.0).abs() < 1e-12);
    }

    #[test]
    fn locality_schedule_trades_wait_against_transfer() {
        // Node 0 holds every block; with tiny blocks (0.01 s of transfer)
        // the scheduler happily runs tasks remotely on node 1 instead of
        // queueing on node 0.
        let tasks = [hinted(1.0, 0, 0.01); 4];
        let out = schedule_on(&tasks, 2, 1);
        assert!(out.remote_tasks >= 1, "cheap transfers beat queueing");
        assert!(out.makespan < 3.0, "parallelism wins: {out:?}");
    }

    #[test]
    fn unhinted_tasks_are_always_local() {
        let task = SimTask {
            input_bytes: 1 << 30,
            ..healthy(0.5)
        };
        let out = schedule(&[task], 4);
        assert_eq!(out.local_tasks, 1);
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

    #[test]
    fn speculative_schedule_matches_plain_without_stragglers() {
        let durations = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let tasks: Vec<SimTask> = durations.iter().map(|&d| healthy(d)).collect();
        // The plain schedule, from the textbook: next task to the slot that
        // frees first.
        let plain = |slots: usize| {
            let mut free_at = vec![0.0f64; slots];
            for d in durations {
                let first = free_at.iter_mut().min_by(|a, b| a.total_cmp(b)).unwrap();
                *first += d;
            }
            free_at.into_iter().fold(0.0, f64::max)
        };
        for slots in [1, 2, 4, 16] {
            let spec = schedule_on(&tasks, 1, slots);
            assert!(
                (spec.makespan - plain(slots)).abs() < 1e-12,
                "slots={slots}: {} vs {}",
                spec.makespan,
                plain(slots)
            );
            assert_eq!(spec.won(), 0);
            assert!(spec.races.is_empty());
        }
    }

    #[test]
    fn speculative_copy_beats_straggler() {
        // One 100s straggler (expected 1s) plus three healthy 1s tasks on
        // 4 slots: the copy launches at t=1 and finishes at t=2, far ahead
        // of the primary's t=100.
        let mut tasks = vec![straggler(100.0, 1.0)];
        tasks.extend([healthy(1.0); 3]);
        let out = schedule(&tasks, 1);
        assert_eq!(out.won(), 1);
        assert!(
            (out.makespan - 2.0).abs() < 1e-12,
            "copy wins at t=2: {out:?}"
        );
        assert_eq!(out.races.len(), 1);
        let race = out.races[0];
        assert_eq!(race.task, 0);
        assert!(race.backup_won);
        assert!((race.backup_start - 1.0).abs() < 1e-12, "{race:?}");
        assert!((race.backup_duration - 1.0).abs() < 1e-12);
        assert!((race.primary_duration - 100.0).abs() < 1e-12);
    }

    #[test]
    fn speculation_needs_a_second_slot() {
        let out = schedule_on(&[straggler(10.0, 1.0)], 1, 1);
        assert!(out.races.is_empty(), "single slot cannot speculate");
        assert!((out.makespan - 10.0).abs() < 1e-12);
    }

    #[test]
    fn losing_copy_is_killed_not_committed() {
        // Straggler only slightly over expectation: primary finishes first
        // (copy starts at t=expected, needs another `expected`), so the
        // copy loses and is killed.
        let out = schedule(&[straggler(1.2, 1.0), healthy(1.0)], 1);
        assert_eq!(out.races.len(), 1);
        assert_eq!(out.won(), 0, "primary finished first");
        assert!((out.makespan - 1.2).abs() < 1e-12);
    }

    #[test]
    fn backup_copy_runs_where_it_finishes_first_and_is_counted_there() {
        // Two nodes, one slot each. The block is on node 0; the primary
        // takes node 0's slot and straggles, so the only slot for the copy
        // is node 1's, behind 0.5 s of transfer: launched at t=1, done at
        // t=2.5, and the task commits as a remote one.
        let task = SimTask {
            duration: 50.0,
            ..hinted(1.0, 0, 0.5)
        };
        let out = schedule_on(&[task], 2, 1);
        assert_eq!((out.won(), out.local_tasks, out.remote_tasks), (1, 0, 1));
        assert!((out.makespan - 2.5).abs() < 1e-12, "{out:?}");
        assert!((out.races[0].backup_duration - 1.5).abs() < 1e-12);
    }

    #[test]
    fn network_transfer_time() {
        assert!((transfer_secs(312_500_000) - 2.5).abs() < 1e-12);
    }
}
