//! Property-based tests of the modelled cluster's scheduler
//! (`fuzzyjoin::model::schedule`): the plain list schedule to the bit
//! without hints or stragglers, makespan bounds, and locality.

use proptest::prelude::*;

use fuzzyjoin::model::{schedule, SimTask};
use mapreduce::SLOTS_PER_NODE;

/// Hint-free tasks that run as long as expected.
fn healthy(durations: &[f64]) -> Vec<SimTask> {
    let task = |&duration| SimTask {
        duration,
        expected: duration,
        node_hint: None,
        input_bytes: 0,
    };
    durations.iter().map(task).collect()
}

/// The textbook list schedule, as the oracle: each task, in order, to the
/// slot that frees first.
fn list_schedule_makespan(durations: &[f64], slots: usize) -> f64 {
    let mut free_at = vec![0.0f64; slots];
    for d in durations {
        *free_at.iter_mut().min_by(|a, b| a.total_cmp(b)).unwrap() += d;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Without hints or stragglers `schedule` is the plain list schedule,
    /// to the bit.
    #[test]
    fn schedule_equals_plain_list_schedule_without_hints_or_stragglers(
        durations in prop::collection::vec(0.0f64..10.0, 0..80),
        nodes in 1usize..6,
    ) {
        let out = schedule(&healthy(&durations), nodes);
        let oracle = list_schedule_makespan(&durations, nodes * SLOTS_PER_NODE);
        prop_assert_eq!(out.makespan.to_bits(), oracle.to_bits());
        prop_assert!(out.races.is_empty());
        prop_assert_eq!((out.local_tasks, out.remote_tasks), (durations.len() as u64, 0));
    }

    /// Makespan bounds: max(duration) <= makespan <= sum(durations), and
    /// more slots never increase it.
    #[test]
    fn makespan_bounds(
        durations in prop::collection::vec(0.0f64..10.0, 1..80),
        nodes in 1usize..5,
    ) {
        let slots = nodes * SLOTS_PER_NODE;
        let m = schedule(&healthy(&durations), nodes).makespan;
        let max = durations.iter().copied().fold(0.0, f64::max);
        let sum: f64 = durations.iter().sum();
        prop_assert!(m >= max - 1e-9);
        prop_assert!(m <= sum + 1e-9);
        let m_more = schedule(&healthy(&durations), nodes + 1).makespan;
        prop_assert!(m_more <= m + 1e-9, "more slots worsened makespan");
        // Work conservation: makespan >= sum / slots.
        prop_assert!(m >= sum / slots as f64 - 1e-9);
    }

    /// Locality-aware scheduling never beats the no-penalty lower bound.
    #[test]
    fn locality_schedule_bounds(
        tasks in prop::collection::vec((0.0f64..5.0, 0usize..4, 0u64..10_000), 1..60),
        nodes in 1usize..5,
    ) {
        let specs: Vec<SimTask> = tasks
            .iter()
            .map(|&(duration, node, input_bytes)| SimTask {
                duration,
                expected: duration,
                node_hint: Some(node % nodes),
                input_bytes,
            })
            .collect();
        let out = schedule(&specs, nodes);
        let durations: Vec<f64> = tasks.iter().map(|t| t.0).collect();
        let ideal = list_schedule_makespan(&durations, nodes * SLOTS_PER_NODE);
        prop_assert!(out.makespan >= ideal - 1e-9, "locality beat the ideal");
        prop_assert_eq!(out.local_tasks + out.remote_tasks, tasks.len() as u64);
    }
}
