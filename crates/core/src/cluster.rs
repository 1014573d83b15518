//! The paper's §6 cluster, written down once for [`crate::model`], which
//! re-exports the scheduler: 4 map and 4 reduce slots per node
//! (`mapreduce::SLOTS_PER_NODE`), 1 Gb/s links ([`transfer_secs`]), Hadoop's
//! default speculative execution (the backup attempts of [`schedule`]) and
//! its capped exponential retry backoff ([`backoff_after`]) — constants, not
//! options. [`schedule`] is the one place a phase's tasks meet the slots.

use mapreduce::SLOTS_PER_NODE;

/// Per-node link bandwidth in bytes/second: 1 Gb/s full duplex, as on the
/// paper's IBM x3650 cluster.
const LINK_BYTES_PER_SEC: f64 = 125.0e6;

/// Seconds to move `bytes` over one node's link: a reduce task pulling its
/// partition (the reducer's own link is the bottleneck), or a map task
/// reading an input block held by another node.
pub fn transfer_secs(bytes: u64) -> f64 {
    bytes as f64 / LINK_BYTES_PER_SEC
}

/// Backoff after a task's first failed attempt, and the cap it doubles up
/// to.
const BACKOFF_BASE_SECS: f64 = 1.0;
const BACKOFF_CAP_SECS: f64 = 60.0;

/// Seconds Hadoop waits after `failed_attempt` (0-based) fails: capped
/// exponential, `min(cap, base * 2^attempt)`.
pub fn backoff_after(failed_attempt: usize) -> f64 {
    (BACKOFF_BASE_SECS * 2f64.powi(failed_attempt.min(62) as i32)).min(BACKOFF_CAP_SECS)
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

    #[test]
    fn backoff_is_capped_exponential() {
        assert_eq!(backoff_after(0), 1.0);
        assert_eq!(backoff_after(1), 2.0);
        assert_eq!(backoff_after(5), 32.0);
        assert_eq!(backoff_after(6), BACKOFF_CAP_SECS, "capped");
        assert_eq!(
            backoff_after(100),
            BACKOFF_CAP_SECS,
            "huge attempt counts saturate"
        );
    }
}
