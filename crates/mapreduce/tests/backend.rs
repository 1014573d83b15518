//! Backend parity: the in-process executor at every thread count and the
//! process executor must be byte-for-byte indistinguishable, under every
//! cluster shape, under chaos, and across repeated runs.
//!
//! The probe job is deliberately order-sensitive: the reducer concatenates
//! values in *arrival order*, so any difference in how a backend presents
//! equal-key runs to the merge (task order, spill order, thread
//! interleaving) becomes a visible output difference.
//!
//! The probe jobs here are closure-built, so no worker process could
//! rebuild them: on the process backend their attempts run on the driver's
//! threads — over the disk-backed store and through checksummed run files,
//! making this file the parity wall for the on-disk filesystem and the
//! run-file shuffle as well. Real out-of-process execution is covered by
//! `tests/process.rs`.

use std::sync::Once;

use mapreduce::{
    text_input, BackendKind, ClosureMapper, ClosureReducer, Cluster, ClusterConfig, Emit,
    FaultPlan, Job, JobMetrics, MrError, Phase, TaskContext, TaskRecord,
};

fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected user-code panic") {
                prev(info);
            }
        }));
    });
}

/// Many small lines so a tiny DFS block size yields many map tasks, and a
/// tiny spill buffer yields several spill runs per task.
fn corpus() -> Vec<String> {
    (0..400).map(|i| format!("k{} v{i}", i % 13)).collect()
}

fn config(backend: BackendKind, nodes: usize, threads: usize) -> ClusterConfig {
    ClusterConfig {
        backend,
        execution_threads: Some(threads),
        spill_buffer_bytes: 1024,
        ..ClusterConfig::with_nodes(nodes)
    }
}

/// Run the order-sensitive probe job; returns reduce output in file order
/// (NOT sorted — presentation order is exactly what's under test).
fn run_probe(config: ClusterConfig, faults: Option<FaultPlan>) -> Vec<(String, String)> {
    let config = ClusterConfig {
        max_task_attempts: if faults.is_some() { 8 } else { 1 },
        faults,
        ..config
    };
    let cluster = Cluster::new(config, 256).unwrap();
    cluster.dfs().write_text("/in", corpus()).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64, line: &String, out: &mut dyn Emit<String, String>, _: &TaskContext| {
            let (k, v) = line.split_once(' ').unwrap();
            out.emit(k.to_string(), v.to_string())
        },
    );
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, String)>,
         out: &mut dyn Emit<String, String>,
         _: &TaskContext| {
            // Concatenate in arrival order: leaks run-presentation order
            // straight into the committed bytes.
            let joined: Vec<String> = vs.map(|(_, v)| v).collect();
            out.emit(k.clone(), joined.join(","))
        },
    );
    let job = Job::new("probe", mapper, reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    cluster.run(job).unwrap();
    cluster.dfs().read_seq("/out").unwrap()
}

#[test]
fn output_matches_across_thread_counts_and_cluster_shapes() {
    // (nodes, threads) crosses 1-node and thread-oversubscribed shapes.
    for (nodes, threads) in [(1, 1), (1, 4), (3, 1), (3, 4), (10, 2)] {
        let simulated = run_probe(config(BackendKind::Simulated, nodes, threads), None);
        for threads in [1, 2, 8] {
            assert_eq!(
                simulated,
                run_probe(config(BackendKind::Simulated, nodes, threads), None),
                "order-sensitive output diverged on nodes={nodes} threads={threads}"
            );
        }
        let process = run_probe(config(BackendKind::Process, nodes, threads), None);
        assert_eq!(
            simulated, process,
            "disk-backed output diverged on nodes={nodes} threads={threads}"
        );
    }
}

#[test]
fn in_process_is_deterministic_across_repeated_runs() {
    // 10x on 3 nodes, on 1, 2 and 8 threads: no interleaving may leak into
    // the committed bytes.
    let baseline = run_probe(config(BackendKind::Simulated, 3, 1), None);
    assert!(!baseline.is_empty());
    for (rep, threads) in [2, 8].into_iter().cycle().take(9).enumerate() {
        let again = run_probe(config(BackendKind::Simulated, 3, threads), None);
        assert_eq!(
            baseline,
            again,
            "run {} ({threads} threads) diverged",
            rep + 2
        );
    }
}

#[test]
fn chaos_leaves_output_identical_at_every_thread_count() {
    quiet_injected_panics();
    let plan = FaultPlan::aggressive(0x0BAC_CE2D);
    let clean = run_probe(config(BackendKind::Simulated, 3, 4), None);
    for threads in [1, 2, 8] {
        let simulated = run_probe(
            config(BackendKind::Simulated, 3, threads),
            Some(plan.clone()),
        );
        assert_eq!(
            clean, simulated,
            "chaos changed output on {threads} threads"
        );
    }
    let process = run_probe(config(BackendKind::Process, 3, 4), Some(plan));
    assert_eq!(clean, process, "chaos changed disk-backed output");
}

#[test]
fn map_failure_fails_the_job_with_a_classified_error() {
    quiet_injected_panics();
    for threads in [1, 2, 8] {
        map_failure_is_classified(threads);
    }
}

fn map_failure_is_classified(threads: usize) {
    let plan = FaultPlan {
        p_transient: 1.0,
        ..FaultPlan::quiet(7)
    };
    let config = ClusterConfig {
        max_task_attempts: 2,
        faults: Some(plan),
        ..config(BackendKind::Simulated, 3, threads)
    };
    let cluster = Cluster::new(config, 256).unwrap();
    cluster.dfs().write_text("/in", corpus()).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64, line: &String, out: &mut dyn Emit<String, u64>, _: &TaskContext| {
            out.emit(line.clone(), 1)
        },
    );
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _: &TaskContext| out.emit(k.clone(), vs.count() as u64),
    );
    let job = Job::new("doomed", mapper, reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let err = cluster.run(job).unwrap_err();
    assert!(err.is_transient(), "exhausted retries keep their class");
    assert!(
        matches!(err, MrError::TaskFailed(_) | MrError::TaskPanicked(_)),
        "{threads} threads: classified failure, got {err:?}"
    );
}

/// In-process attempts cannot be killed: a map attempt that outlives
/// `task_timeout_secs` fires its watch, its late result is discarded, and
/// the job fails with a classified error before any reduce task could
/// commit a part.
fn deadline_fails_the_job_fast_and_leaves_no_output(backend: BackendKind, threads: usize) {
    let config = ClusterConfig {
        task_timeout_secs: Some(0.05),
        max_task_attempts: 2,
        ..config(backend, 3, threads)
    };
    let cluster = Cluster::new(config, 256).unwrap();
    cluster.dfs().write_text("/in", corpus()).unwrap();
    let mapper = ClosureMapper::new(
        |off: &u64, line: &String, out: &mut dyn Emit<String, u64>, _: &TaskContext| {
            // The first record of the first split: one map attempt sleeps.
            if *off == 0 {
                std::thread::sleep(std::time::Duration::from_millis(400));
            }
            out.emit(line.clone(), 1)
        },
    );
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _: &TaskContext| out.emit(k.clone(), vs.count() as u64),
    );
    let job = Job::new("overdue", mapper, reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let err = cluster.run(job).unwrap_err();
    match &err {
        MrError::TaskFailed(msg) => assert!(
            msg.contains("task wall-clock deadline exceeded"),
            "{backend}: unclassified deadline failure: {msg}"
        ),
        other => panic!("{backend}: expected a deadline TaskFailed, got {other:?}"),
    }
    assert!(
        cluster.dfs().list("/out").is_empty(),
        "{backend}: a job past its deadline left output behind: {:?}",
        cluster.dfs().list("/out")
    );
}

/// The default backend honours the deadline too, on any thread count.
#[test]
fn in_process_deadline_fails_the_job_fast_and_leaves_no_output() {
    for threads in [1, 2, 8] {
        deadline_fails_the_job_fast_and_leaves_no_output(BackendKind::Simulated, threads);
    }
}

/// A closure-built job runs on the process backend's driver threads, under
/// the same watchdog as its worker conversations.
#[test]
fn process_deadline_fails_a_closure_built_job_fast_and_leaves_no_output() {
    deadline_fails_the_job_fast_and_leaves_no_output(BackendKind::Process, 4);
}

#[test]
fn empty_input_commits_identical_empty_parts_at_every_thread_count() {
    // Zero map tasks: reducers still commit (empty) parts, on every
    // backend and thread count.
    let mut outputs = Vec::new();
    for (backend, threads) in [
        (BackendKind::Simulated, 1),
        (BackendKind::Simulated, 2),
        (BackendKind::Simulated, 8),
        (BackendKind::Process, 2),
    ] {
        let cluster = Cluster::new(config(backend, 2, threads), 256).unwrap();
        let mapper = ClosureMapper::new(
            |_: &u64, _: &String, _: &mut dyn Emit<String, u64>, _: &TaskContext| Ok(()),
        );
        let reducer = ClosureReducer::new(
            |k: &String,
             vs: &mut dyn Iterator<Item = (String, u64)>,
             out: &mut dyn Emit<String, u64>,
             _: &TaskContext| out.emit(k.clone(), vs.count() as u64),
        );
        let job = Job::new("empty", mapper, reducer).output_seq("/out");
        let m = cluster.run(job).unwrap();
        assert_eq!(m.output_commits, m.reduce.tasks as u64);
        let pairs: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
        outputs.push(pairs);
    }
    assert!(outputs.iter().all(|o| *o == outputs[0]));
}

#[test]
fn deterministic_metrics_agree_between_backends() {
    quiet_injected_panics();
    let run = |backend, threads| {
        let config = ClusterConfig {
            max_task_attempts: 8,
            faults: Some(FaultPlan::aggressive(11)),
            ..config(backend, 3, threads)
        };
        let cluster = Cluster::new(config, 256).unwrap();
        cluster.dfs().write_text("/in", corpus()).unwrap();
        let mapper = ClosureMapper::new(
            |_off: &u64, line: &String, out: &mut dyn Emit<String, u64>, _: &TaskContext| {
                out.emit(line.split(' ').next().unwrap().to_string(), 1)
            },
        );
        let reducer = ClosureReducer::new(
            |k: &String,
             vs: &mut dyn Iterator<Item = (String, u64)>,
             out: &mut dyn Emit<String, u64>,
             _: &TaskContext| out.emit(k.clone(), vs.count() as u64),
        );
        let job = Job::new("counts", mapper, reducer)
            .inputs(text_input(cluster.dfs(), "/in").unwrap())
            .output_seq("/out");
        cluster.run(job).unwrap()
    };
    // Every field of every task record but the measured seconds.
    let records = |m: &JobMetrics| -> Vec<TaskRecord> {
        m.tasks
            .iter()
            .map(|&t| TaskRecord { secs: 0.0, ..t })
            .collect()
    };
    let a = run(BackendKind::Simulated, 4);
    assert!(a.tasks.iter().any(|t| t.attempt > 0), "the plan retries");
    assert!(
        a.tasks.iter().any(|t| t.straggle > 1.0),
        "the plan straggles"
    );
    for b in [
        run(BackendKind::Simulated, 1),
        run(BackendKind::Simulated, 8),
        run(BackendKind::Process, 4),
    ] {
        // Everything not derived from wall-clock must agree exactly.
        assert_eq!(a.map.tasks, b.map.tasks);
        assert_eq!(a.reduce.tasks, b.reduce.tasks);
        assert_eq!(a.shuffle_bytes, b.shuffle_bytes);
        assert_eq!(a.shuffle_records, b.shuffle_records);
        assert_eq!(a.spills, b.spills);
        assert_eq!(a.map_input_records, b.map_input_records);
        assert_eq!(a.map_output_records, b.map_output_records);
        assert_eq!(a.reduce_input_groups, b.reduce_input_groups);
        assert_eq!(a.reduce_input_records, b.reduce_input_records);
        assert_eq!(a.reduce_output_records, b.reduce_output_records);
        assert_eq!(records(&a), records(&b));
        assert_eq!(a.task_retries, b.task_retries);
        assert_eq!(a.output_commits, b.output_commits);
    }
    let per_node = |phase| a.tasks_per_node(phase).iter().sum::<u64>();
    assert_eq!(per_node(Phase::Map), a.map.tasks as u64);
    assert_eq!(per_node(Phase::Reduce), a.reduce.tasks as u64);
}
