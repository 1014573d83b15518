//! Cluster topology and the time model used for speedup/scaleup experiments.
//!
//! The paper runs on a 10-node cluster where each node offers 4 map slots and
//! 4 reduce slots. This crate executes everything inside one process, so a
//! "cluster" here is (a) a topology that decides *how many tasks may run
//! concurrently* and *how shuffle bytes translate into transfer time*, and
//! (b) a pool of physical worker threads used to execute the tasks.
//!
//! Every task's execution is timed individually. The engine then computes a
//! **simulated makespan**: tasks are list-scheduled onto `nodes × slots`
//! virtual slots in submission order — exactly what Hadoop's JobTracker does
//! when it hands tasks to free slots. This is what makes speedup and scaleup
//! curves meaningful even on a single-core host: a stage whose work is
//! concentrated in one reduce task (the paper's skewed BRJ stage, or the
//! single-reducer token sort) stops speeding up no matter how many simulated
//! nodes are added, because the makespan is dominated by that one task.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::backend::BackendKind;
use crate::codec_struct;
use crate::faults::FaultPlan;

/// Simple network model for the shuffle phase.
///
/// Each reduce task pulls its partition from every map output; the reducer's
/// own link is the bottleneck, so transfer time is `bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-node link bandwidth in bytes/second (paper cluster: ~1 GbE).
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-task scheduling/startup overhead in seconds. Hadoop task
    /// (JVM) startup is on the order of a second; the default here is a
    /// small constant so tiny jobs are not dominated by it.
    pub task_overhead_secs: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            // 1 Gb/s full-duplex link, as on the paper's IBM x3650 cluster.
            bandwidth_bytes_per_sec: 125.0e6,
            task_overhead_secs: 0.0,
        }
    }
}

impl NetworkModel {
    /// Seconds to move `bytes` to one reducer.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

/// Shared-nothing cluster topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of simulated nodes (the paper sweeps 2..=10).
    pub nodes: usize,
    /// Concurrent map tasks per node (paper: 4).
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node (paper: 4).
    pub reduce_slots_per_node: usize,
    /// Optional per-task memory budget in bytes (paper: 2.5 GB virtual per
    /// task). `None` disables budget enforcement.
    pub task_memory: Option<u64>,
    /// Map-side sort buffer: encoded output bytes buffered before a spill
    /// (Hadoop's `io.sort.mb`).
    pub spill_buffer_bytes: usize,
    /// Physical threads used to execute tasks. Defaults to the host's
    /// available parallelism; timing fidelity is best when this does not
    /// exceed the physical core count.
    pub execution_threads: Option<usize>,
    /// Times a failing task is executed before the job fails (Hadoop's
    /// `mapreduce.map.maxattempts`); 1 = no retries.
    pub max_task_attempts: usize,
    /// Maximum spill runs merged in one pass on the reduce side (Hadoop's
    /// `io.sort.factor`); partitions with more runs get intermediate merge
    /// passes first.
    pub merge_factor: usize,
    /// Base simulated backoff before re-executing a failed attempt; doubles
    /// each retry up to a 60 s cap. Charged to simulated time only — real
    /// execution retries immediately.
    pub retry_backoff_secs: f64,
    /// Speculatively re-execute straggler attempts in the makespan model
    /// (Hadoop's speculative execution). Only changes anything when a task
    /// runs slower than its expected duration (i.e. under fault injection).
    pub speculation: bool,
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
    /// the disk store: data files are fsynced before being renamed into
    /// place, and the parent directory is fsynced before a rename (a part
    /// commit, a `_SUCCESS` manifest) counts as committed. On by default;
    /// benches opt out to measure the fsync tax — with it off, a killed
    /// *process* still never loses acknowledged commits (the page cache
    /// survives), but power loss can. No effect on the in-memory store.
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
    /// attempt exceeds the deadline the supervisor kills the worker and the
    /// attempt is retried as a transient `NodeLost` (process backend), or
    /// trips the cooperative cancel and the job fails fast with a
    /// classified error (sharded backend: threads cannot be killed). `None`
    /// (the default) disables wall-clock supervision entirely. Never
    /// affects simulated time or committed bytes.
    pub task_timeout_secs: Option<f64>,
    /// Interval at which process workers emit heartbeat frames on the
    /// pipe protocol while a task runs; a worker silent for eight
    /// intervals is presumed hung and killed, even before its task
    /// deadline. Only meaningful when
    /// [`ClusterConfig::task_timeout_secs`] is set.
    pub heartbeat_interval_secs: f64,
    /// A process worker slot that suffers this many transport/timeout
    /// losses within a sliding 60 s window is quarantined: removed from
    /// rotation for the rest of the job (the next job starts with a clean
    /// ledger). When every slot is quarantined the remaining attempts run
    /// in-process on the driver over the same DFS store and run files
    /// (byte-identical output).
    pub worker_quarantine_losses: usize,
    /// Emit a [`crate::trace::EventKind::Profile`] trace event per job
    /// carrying the per-phase [`crate::JobProfile`] JSON. Phase counters
    /// are collected regardless (they are a handful of clock reads per
    /// attempt); this flag only controls the extra trace event. Profiling
    /// never changes committed output.
    pub profile: bool,
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
        merge_factor,
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
            map_slots_per_node: 4,
            reduce_slots_per_node: 4,
            task_memory: None,
            spill_buffer_bytes: 64 << 20,
            execution_threads: None,
            max_task_attempts: 1,
            merge_factor: 64,
            retry_backoff_secs: 1.0,
            speculation: true,
            faults: None,
            backend: BackendKind::Simulated,
            dfs_root: None,
            durable_commits: true,
            shuffle_channel_capacity: 256,
            task_timeout_secs: None,
            heartbeat_interval_secs: 0.25,
            worker_quarantine_losses: 3,
            profile: false,
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

    /// Total map slots across the cluster.
    pub fn map_slots(&self) -> usize {
        self.nodes * self.map_slots_per_node
    }

    /// Total reduce slots across the cluster.
    pub fn reduce_slots(&self) -> usize {
        self.nodes * self.reduce_slots_per_node
    }

    /// Default number of reduce tasks for a job: one wave of reduce slots,
    /// matching the paper's Hadoop configuration.
    pub fn default_reducers(&self) -> usize {
        self.reduce_slots().max(1)
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
        if self.map_slots_per_node == 0 || self.reduce_slots_per_node == 0 {
            return Err("each node needs at least one map and one reduce slot".into());
        }
        if self.spill_buffer_bytes < 1024 {
            return Err("spill buffer must be at least 1 KiB".into());
        }
        if self.max_task_attempts == 0 {
            return Err("max_task_attempts must be at least 1".into());
        }
        if self.merge_factor < 2 {
            return Err("merge_factor must be at least 2".into());
        }
        if !self.retry_backoff_secs.is_finite() || self.retry_backoff_secs < 0.0 {
            return Err(format!(
                "retry_backoff_secs {} must be finite and >= 0",
                self.retry_backoff_secs
            ));
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
        if self.worker_quarantine_losses == 0 {
            return Err("worker_quarantine_losses must be at least 1".into());
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

/// Total-order wrapper for scheduling over `f64` durations. Uses
/// `f64::total_cmp` so a NaN (which validation upstream should have
/// rejected) orders deterministically instead of panicking the scheduler.
struct Finite(f64);
impl PartialEq for Finite {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for Finite {}
impl PartialOrd for Finite {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Finite {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One map task's scheduling inputs: measured duration, the node holding
/// its input block (if known), and the input size for the remote-read
/// penalty.
#[derive(Debug, Clone, Copy)]
pub struct MapTaskSpec {
    /// Measured execution seconds.
    pub duration: f64,
    /// DFS node holding the task's input block.
    pub node_hint: Option<usize>,
    /// Input bytes (charged over the network when scheduled off-node).
    pub input_bytes: u64,
}

/// Result of a locality-aware schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleOutcome {
    /// Phase makespan in seconds.
    pub makespan: f64,
    /// Tasks that ran on the node holding their input.
    pub local_tasks: u64,
    /// Tasks that had to read their input across the network.
    pub remote_tasks: u64,
    /// Per-task slot occupancy (duration + any remote-read penalty), in
    /// submission order — the inputs to speculative re-scheduling.
    pub task_costs: Vec<f64>,
}

/// Locality-aware greedy scheduling of map tasks: each task, in submission
/// order, takes the slot giving the earliest finish time, where running on
/// a node other than the one holding its input block adds the block's
/// transfer time — Hadoop's data-local vs rack/remote task distinction.
pub fn schedule_map_tasks(
    tasks: &[MapTaskSpec],
    nodes: usize,
    slots_per_node: usize,
    network: &NetworkModel,
) -> ScheduleOutcome {
    assert!(nodes > 0 && slots_per_node > 0);
    // (free_at, node) per slot.
    let mut slots: Vec<(f64, usize)> = (0..nodes * slots_per_node)
        .map(|i| (0.0, i % nodes))
        .collect();
    let mut out = ScheduleOutcome::default();
    for t in tasks {
        debug_assert!(t.duration.is_finite() && t.duration >= 0.0);
        let mut best: Option<(f64, usize, bool)> = None; // finish, slot, local
        for (i, &(free_at, node)) in slots.iter().enumerate() {
            let local = t.node_hint.is_none_or(|h| h == node);
            let cost = t.duration
                + if local {
                    0.0
                } else {
                    network.transfer_secs(t.input_bytes)
                };
            let finish = free_at + cost;
            if best.is_none_or(|(bf, _, _)| finish < bf) {
                best = Some((finish, i, local));
            }
        }
        let (finish, slot, local) = best.expect("at least one slot");
        out.task_costs.push(finish - slots[slot].0);
        slots[slot].0 = finish;
        out.makespan = out.makespan.max(finish);
        if local {
            out.local_tasks += 1;
        } else {
            out.remote_tasks += 1;
        }
    }
    out
}

/// Greedy list-scheduling makespan: assign each task, in order, to the slot
/// that frees up first. Returns the time the last slot finishes.
///
/// This mirrors Hadoop's behaviour of handing the next pending task to the
/// first heartbeat from a node with a free slot.
pub fn list_schedule_makespan(durations: &[f64], slots: usize) -> f64 {
    assert!(slots > 0, "need at least one slot");
    let mut heap: BinaryHeap<Reverse<Finite>> = (0..slots.min(durations.len().max(1)))
        .map(|_| Reverse(Finite(0.0)))
        .collect();
    let mut makespan = 0.0f64;
    for &d in durations {
        debug_assert!(d.is_finite() && d >= 0.0, "task duration {d}");
        let Reverse(Finite(free_at)) = heap.pop().expect("non-empty heap");
        let finish = free_at + d;
        makespan = makespan.max(finish);
        heap.push(Reverse(Finite(finish)));
    }
    makespan
}

/// One task's inputs to speculative scheduling: the duration the attempt
/// actually took (possibly inflated by an injected slow-down) and the
/// duration a healthy attempt was expected to take.
#[derive(Debug, Clone, Copy)]
pub struct SpecTask {
    /// Slot seconds the primary attempt occupies.
    pub duration: f64,
    /// Expected (fault-free) slot seconds; a speculative copy runs at this
    /// speed.
    pub expected: f64,
}

/// One primary-vs-backup race from a speculative schedule, on the
/// simulated timeline — the input for trace visualisation of speculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecRace {
    /// Index of the straggling task in submission order.
    pub task: usize,
    /// Simulated second the primary attempt started.
    pub primary_start: f64,
    /// Slot seconds the primary attempt would occupy if left to finish.
    pub primary_duration: f64,
    /// Simulated second the backup attempt launched.
    pub backup_start: f64,
    /// Slot seconds the backup attempt needs (the healthy expectation).
    pub backup_duration: f64,
    /// True when the backup finished before the primary.
    pub backup_won: bool,
}

/// Result of a speculative list schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpecOutcome {
    /// Phase makespan in seconds.
    pub makespan: f64,
    /// Speculative attempts launched.
    pub launched: u64,
    /// Speculative attempts that finished before their primary.
    pub won: u64,
    /// Attempts killed because the other copy committed first (Hadoop kills
    /// the loser, so this equals `launched` — each race has one loser).
    pub killed: u64,
    /// One record per straggler raced by a backup, in submission order.
    pub races: Vec<SpecRace>,
}

/// Greedy list scheduling with Hadoop-style speculative execution: when a
/// task's primary attempt runs past its expected duration (a straggler), a
/// backup attempt is launched on the next free slot; whichever copy finishes
/// first commits and the other is killed. With no stragglers this reduces to
/// [`list_schedule_makespan`] exactly.
pub fn list_schedule_speculative(tasks: &[SpecTask], slots: usize) -> SpecOutcome {
    assert!(slots > 0, "need at least one slot");
    let mut heap: BinaryHeap<Reverse<Finite>> = (0..slots.min(tasks.len().max(1) * 2))
        .map(|_| Reverse(Finite(0.0)))
        .collect();
    let mut out = SpecOutcome::default();
    for (task, t) in tasks.iter().enumerate() {
        debug_assert!(t.duration.is_finite() && t.duration >= 0.0);
        debug_assert!(t.expected.is_finite() && t.expected >= 0.0);
        let Reverse(Finite(start)) = heap.pop().expect("non-empty heap");
        let primary_finish = start + t.duration;
        let is_straggler = t.duration > t.expected;
        if !is_straggler || heap.is_empty() {
            // Healthy task, or no second slot exists to speculate on.
            out.makespan = out.makespan.max(primary_finish);
            heap.push(Reverse(Finite(primary_finish)));
            continue;
        }
        // The JobTracker notices the attempt overrunning once its expected
        // duration has elapsed, then starts a copy on the next free slot.
        let Reverse(Finite(backup_free)) = heap.pop().expect("second slot");
        let backup_start = backup_free.max(start + t.expected);
        let backup_finish = backup_start + t.expected;
        let winner_finish = primary_finish.min(backup_finish);
        out.launched += 1;
        out.killed += 1;
        if backup_finish < primary_finish {
            out.won += 1;
        }
        out.races.push(SpecRace {
            task,
            primary_start: start,
            primary_duration: t.duration,
            backup_start,
            backup_duration: t.expected,
            backup_won: backup_finish < primary_finish,
        });
        // The loser is killed the moment the winner commits, freeing both
        // slots at the winner's finish time.
        out.makespan = out.makespan.max(winner_finish);
        heap.push(Reverse(Finite(winner_finish)));
        heap.push(Reverse(Finite(winner_finish)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_topology() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 10);
        assert_eq!(c.map_slots(), 40);
        assert_eq!(c.reduce_slots(), 40);
        assert_eq!(c.default_reducers(), 40);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_topologies() {
        let mut c = ClusterConfig::with_nodes(0);
        assert!(c.validate().is_err());
        c.nodes = 1;
        c.map_slots_per_node = 0;
        assert!(c.validate().is_err());
        c.map_slots_per_node = 1;
        c.spill_buffer_bytes = 10;
        assert!(c.validate().is_err());
    }

    #[test]
    fn makespan_single_slot_is_sum() {
        let d = [1.0, 2.0, 3.0];
        assert!((list_schedule_makespan(&d, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_many_slots_is_max() {
        let d = [1.0, 2.0, 3.0];
        assert!((list_schedule_makespan(&d, 8) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_greedy_order_matters() {
        // Two slots, tasks in submission order: [3,3,1,1] -> slots finish at
        // (3+1)=4 and (3+1)=4 -> makespan 4.
        let d = [3.0, 3.0, 1.0, 1.0];
        assert!((list_schedule_makespan(&d, 2) - 4.0).abs() < 1e-12);
        // Skewed: one long task dominates regardless of slot count.
        let d = [10.0, 0.1, 0.1, 0.1];
        assert!((list_schedule_makespan(&d, 16) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_empty_is_zero() {
        assert_eq!(list_schedule_makespan(&[], 4), 0.0);
    }

    #[test]
    fn locality_schedule_prefers_local_slots() {
        let net = NetworkModel {
            bandwidth_bytes_per_sec: 100.0,
            task_overhead_secs: 0.0,
        };
        // Two nodes, one slot each; two tasks pinned to different nodes.
        let tasks = [
            MapTaskSpec {
                duration: 1.0,
                node_hint: Some(0),
                input_bytes: 1000,
            },
            MapTaskSpec {
                duration: 1.0,
                node_hint: Some(1),
                input_bytes: 1000,
            },
        ];
        let out = schedule_map_tasks(&tasks, 2, 1, &net);
        assert_eq!(out.local_tasks, 2);
        assert_eq!(out.remote_tasks, 0);
        assert!(
            (out.makespan - 1.0).abs() < 1e-12,
            "both run in parallel locally"
        );
    }

    #[test]
    fn locality_schedule_pays_remote_penalty_when_forced() {
        let net = NetworkModel {
            bandwidth_bytes_per_sec: 100.0,
            task_overhead_secs: 0.0,
        };
        // One node only; a task hinted to node 3 must run remotely.
        let tasks = [MapTaskSpec {
            duration: 1.0,
            node_hint: Some(3),
            input_bytes: 200, // 2 seconds of transfer
        }];
        let out = schedule_map_tasks(&tasks, 1, 1, &net);
        assert_eq!(out.remote_tasks, 1);
        assert!((out.makespan - 3.0).abs() < 1e-12);
    }

    #[test]
    fn locality_schedule_trades_wait_against_transfer() {
        let net = NetworkModel {
            bandwidth_bytes_per_sec: 1000.0,
            task_overhead_secs: 0.0,
        };
        // Node 0 holds every block; with tiny blocks the scheduler happily
        // runs tasks remotely on node 1 instead of queueing on node 0.
        let tasks: Vec<MapTaskSpec> = (0..4)
            .map(|_| MapTaskSpec {
                duration: 1.0,
                node_hint: Some(0),
                input_bytes: 10, // 0.01 s transfer
            })
            .collect();
        let out = schedule_map_tasks(&tasks, 2, 1, &net);
        assert!(out.remote_tasks >= 1, "cheap transfers beat queueing");
        assert!(out.makespan < 3.0, "parallelism wins: {out:?}");
    }

    #[test]
    fn unhinted_tasks_are_always_local() {
        let net = NetworkModel::default();
        let tasks = [MapTaskSpec {
            duration: 0.5,
            node_hint: None,
            input_bytes: 1 << 30,
        }];
        let out = schedule_map_tasks(&tasks, 4, 2, &net);
        assert_eq!(out.local_tasks, 1);
    }

    #[test]
    fn finite_totally_orders_nan() {
        // total_cmp puts NaN after infinities instead of panicking; the
        // scheduler must survive a NaN smuggled past upstream validation.
        let mut v = [Finite(1.0), Finite(f64::NAN), Finite(0.5)];
        v.sort();
        assert_eq!(v[0].0, 0.5);
        assert_eq!(v[1].0, 1.0);
        assert!(v[2].0.is_nan());
        assert!(Finite(f64::NAN) == Finite(f64::NAN));
    }

    #[test]
    fn validation_rejects_bad_backoff_and_fault_plans() {
        let mut c = ClusterConfig::with_nodes(2);
        c.retry_backoff_secs = f64::NAN;
        assert!(c.validate().is_err());
        c.retry_backoff_secs = -1.0;
        assert!(c.validate().is_err());
        c.retry_backoff_secs = 1.0;
        c.validate().unwrap();
        let mut plan = FaultPlan::quiet(0);
        plan.dead_node = Some(5);
        c.faults = Some(plan);
        assert!(c.validate().is_err(), "dead node must exist");
    }

    #[test]
    fn speculative_schedule_matches_plain_without_stragglers() {
        let durations = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let tasks: Vec<SpecTask> = durations
            .iter()
            .map(|&d| SpecTask {
                duration: d,
                expected: d,
            })
            .collect();
        for slots in [1, 2, 4, 16] {
            let spec = list_schedule_speculative(&tasks, slots);
            let plain = list_schedule_makespan(&durations, slots);
            assert!(
                (spec.makespan - plain).abs() < 1e-12,
                "slots={slots}: {} vs {plain}",
                spec.makespan
            );
            assert_eq!(spec.launched, 0);
            assert_eq!(spec.won, 0);
            assert_eq!(spec.killed, 0);
            assert!(spec.races.is_empty());
        }
    }

    #[test]
    fn speculative_copy_beats_straggler() {
        // One 100s straggler (expected 1s) plus three healthy 1s tasks on
        // 4 slots: the copy launches at t=1 and finishes at t=2, far ahead
        // of the primary's t=100.
        let mut tasks = vec![SpecTask {
            duration: 100.0,
            expected: 1.0,
        }];
        tasks.extend((0..3).map(|_| SpecTask {
            duration: 1.0,
            expected: 1.0,
        }));
        let out = list_schedule_speculative(&tasks, 4);
        assert_eq!(out.launched, 1);
        assert_eq!(out.won, 1);
        assert_eq!(out.killed, 1);
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
        let tasks = [SpecTask {
            duration: 10.0,
            expected: 1.0,
        }];
        let out = list_schedule_speculative(&tasks, 1);
        assert_eq!(out.launched, 0, "single slot cannot speculate");
        assert!((out.makespan - 10.0).abs() < 1e-12);
    }

    #[test]
    fn losing_copy_is_killed_not_committed() {
        // Straggler only slightly over expectation: primary finishes first
        // (copy starts at t=expected, needs another `expected`), so the
        // copy loses and is killed.
        let tasks = [
            SpecTask {
                duration: 1.2,
                expected: 1.0,
            },
            SpecTask {
                duration: 1.0,
                expected: 1.0,
            },
        ];
        let out = list_schedule_speculative(&tasks, 4);
        assert_eq!(out.launched, 1);
        assert_eq!(out.won, 0, "primary finished first");
        assert_eq!(out.killed, 1);
        assert!((out.makespan - 1.2).abs() < 1e-12);
    }

    #[test]
    fn schedule_records_task_costs() {
        let net = NetworkModel {
            bandwidth_bytes_per_sec: 100.0,
            task_overhead_secs: 0.0,
        };
        let tasks = [
            MapTaskSpec {
                duration: 1.0,
                node_hint: Some(0),
                input_bytes: 100,
            },
            MapTaskSpec {
                duration: 2.0,
                node_hint: None,
                input_bytes: 0,
            },
        ];
        let out = schedule_map_tasks(&tasks, 2, 1, &net);
        assert_eq!(out.task_costs.len(), 2);
        assert!((out.task_costs[0] - 1.0).abs() < 1e-12, "local, no penalty");
        assert!((out.task_costs[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn network_transfer_time() {
        let n = NetworkModel {
            bandwidth_bytes_per_sec: 100.0,
            task_overhead_secs: 0.0,
        };
        assert!((n.transfer_secs(250) - 2.5).abs() < 1e-12);
    }
}
