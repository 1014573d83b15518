//! The paper's cluster as a model: what the 10-node Hadoop of §6 would
//! have made of a job that ran on one host.
//!
//! The engine runs every task where it can and records what ran, one
//! [`TaskRecord`] per committed task ([`JobMetrics::tasks`]). Speedup and
//! scaleup need the cluster the paper ran on, so [`job`] computes it, as a
//! pure function of those records and the job's node count: each phase's
//! tasks are list-scheduled by [`schedule`] onto `nodes × SLOTS_PER_NODE`
//! virtual slots in submission order — what Hadoop's JobTracker does when it
//! hands tasks to free slots — and job time is the map makespan plus the
//! reduce makespan. A stage whose work sits in one reduce task (the skewed
//! BRJ stage, the single-reducer token sort) therefore stops speeding up
//! however many nodes are added, as on the paper's cluster.
//!
//! Section 6 fixes the cluster, so it is written down as constants, not
//! options: 4 map and 4 reduce slots per node (`SLOTS_PER_NODE`), 1 Gb/s
//! links ([`transfer_secs`]), Hadoop's default speculative execution (the
//! backup attempts of [`schedule`]) and its capped exponential retry
//! backoff. The engine retries at once and never speculates; a
//! straggler is a recorded slow-down factor, and a retry is a recorded
//! attempt index, which this model charges.

use mapreduce::{JobMetrics, Phase, PipelineMetrics, TaskRecord};

use crate::cluster::backoff_after;
pub use crate::cluster::{schedule, transfer_secs, Schedule, SimTask, SpecRace};

/// What the modelled cluster made of one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobModel {
    /// The map phase's schedule: makespan, locality, speculative races.
    pub map: Schedule,
    /// The reduce phase's schedule.
    pub reduce: Schedule,
    /// Retry backoff charged to the job's tasks, both phases.
    pub backoff_secs: f64,
    /// Shuffle transfer seconds of the largest reduce partition.
    pub transfer_secs: f64,
    /// Job time: map makespan plus reduce makespan.
    pub sim_secs: f64,
}

impl JobModel {
    /// Speculative attempts `(launched, won, killed)` across both phases.
    /// Hadoop kills the loser of every race, so `killed == launched`.
    pub fn speculative(&self) -> (u64, u64, u64) {
        let launched = (self.map.races.len() + self.reduce.races.len()) as u64;
        (launched, self.map.won() + self.reduce.won(), launched)
    }
}

/// The modelled cluster's account of `m`: map tasks beside their input
/// blocks, reduce tasks behind the transfer of their partition, each task
/// stretched by its straggle factor (its healthy copy is what a backup
/// runs) and delayed by the backoff of the attempts that failed before it.
pub fn job(m: &JobMetrics) -> JobModel {
    let nodes = m.nodes;
    // Backoff delays both the actual and the expected completion time, so
    // it never triggers speculation by itself.
    let backoff = |t: &TaskRecord| (0..t.attempt).map(backoff_after).fold(0.0, |a, b| a + b);
    let sim_task = |t: &TaskRecord| {
        let (transfer, node_hint) = match t.phase {
            Phase::Map => (0.0, t.node_hint.map(|n| n % nodes)),
            Phase::Reduce => (transfer_secs(t.input_bytes), None),
        };
        SimTask {
            duration: transfer + (t.secs * t.straggle + backoff(t)),
            expected: transfer + (t.secs + backoff(t)),
            node_hint,
            input_bytes: t.input_bytes,
        }
    };
    let phase = |phase| m.tasks.iter().filter(move |t| t.phase == phase);
    let schedule_phase = |p| schedule(&phase(p).map(sim_task).collect::<Vec<_>>(), nodes);
    let (map, reduce) = (schedule_phase(Phase::Map), schedule_phase(Phase::Reduce));
    JobModel {
        backoff_secs: m.tasks.iter().map(backoff).fold(0.0, |a, b| a + b),
        transfer_secs: phase(Phase::Reduce)
            .map(|t| transfer_secs(t.input_bytes))
            .fold(0.0, f64::max),
        sim_secs: map.makespan + reduce.makespan,
        map,
        reduce,
    }
}

/// Modelled seconds of a pipeline: its jobs run back to back.
pub fn sim_secs(p: &PipelineMetrics) -> f64 {
    p.jobs.iter().map(|j| job(j).sim_secs).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_nodes_never_increase_simulated_time() {
        // The task records of a deliberately skewed word count: 12 map
        // tasks over 3 nodes' blocks, and 40 reduce tasks of which one holds
        // most of the shuffle. Modelled time must not grow with node count,
        // and is far from linear when skewed.
        let task = |phase, task: usize, secs: f64, input_bytes| TaskRecord {
            phase,
            task,
            attempt: 0,
            node: task % 3,
            node_hint: (phase == Phase::Map).then_some(task % 3),
            input_bytes,
            secs,
            straggle: 1.0,
        };
        let maps = (0..12).map(|i| task(Phase::Map, i, 0.002 + 0.0001 * i as f64, 4096));
        let reduces = (0..40).map(|i| {
            let hot = i == 7;
            let secs = if hot { 0.02 } else { 0.0005 };
            task(Phase::Reduce, i, secs, if hot { 60_000 } else { 900 })
        });
        let mut m = JobMetrics {
            tasks: maps.chain(reduces).collect(),
            ..Default::default()
        };
        let mut sims = Vec::new();
        for nodes in [1usize, 2, 4] {
            m.nodes = nodes;
            sims.push(job(&m).sim_secs);
        }
        assert!(
            sims.windows(2).all(|w| w[1] <= w[0] * 1.5),
            "sim times should not grow substantially with nodes: {sims:?}"
        );
    }

    #[test]
    fn a_job_is_its_two_schedules_back_to_back() {
        // One map task retried twice and straggling 10x on 2 nodes, one
        // reduce task pulling 125 MB (one second of link).
        let map = TaskRecord {
            phase: Phase::Map,
            task: 0,
            attempt: 2,
            node: 1,
            node_hint: Some(0),
            input_bytes: 0,
            secs: 1.0,
            straggle: 10.0,
        };
        let reduce = TaskRecord {
            phase: Phase::Reduce,
            attempt: 0,
            input_bytes: 125_000_000,
            straggle: 1.0,
            node_hint: None,
            ..map
        };
        let m = JobMetrics {
            nodes: 2,
            tasks: vec![map, reduce],
            ..Default::default()
        };
        let model = job(&m);
        // The map task waits out 1 s + 2 s of backoff either way: its 10x
        // primary would end at 13 s, and the backup launched once a healthy
        // 4 s had passed ends at 8 s.
        assert_eq!(model.backoff_secs, 3.0);
        assert_eq!(model.map.makespan, 8.0);
        assert_eq!(model.speculative(), (1, 1, 1));
        assert_eq!(model.transfer_secs, 1.0);
        assert_eq!(model.reduce.makespan, 2.0);
        assert_eq!(model.sim_secs, 10.0);
        let pipeline = PipelineMetrics {
            jobs: vec![m.clone(), m],
        };
        assert_eq!(sim_secs(&pipeline), 20.0);
    }
}
