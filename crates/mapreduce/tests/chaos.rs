//! Chaos tests: the engine under deterministic fault injection.
//!
//! Every test runs a real job with an aggressive seeded [`FaultPlan`] —
//! transient errors, user-code panics, environmental OOMs, late
//! (post-write, pre-commit) failures, stragglers, and a dead node — and
//! asserts the output is bitwise identical to a fault-free run. The seed
//! can be overridden with the `CHAOS_SEED` environment variable (CI runs
//! several), so a reported failure is reproducible from its seed alone.

use std::sync::Once;

use mapreduce::faults::{Fault, FaultPlan};
use mapreduce::task::Phase;
use mapreduce::{
    sum_combiner, text_input, BackendKind, ClosureMapper, ClosureReducer, Cluster, ClusterConfig,
    Emit, Job, JobMetrics, MrError, TaskContext,
};

/// Seed under test; CI sweeps several via `CHAOS_SEED`.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Injected panics are part of the tests; keep them out of stderr while
/// letting genuine panics through.
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
            if !msg.contains("injected user-code panic") && !msg.contains("deliberate test panic") {
                prev(info);
            }
        }));
    });
}

fn cluster_with(nodes: usize, max_attempts: usize, faults: Option<FaultPlan>) -> Cluster {
    // `MR_BACKEND=process` (CI backend-parity job) re-runs this suite on
    // the process executor; every assertion must hold unchanged.
    let config = ClusterConfig {
        nodes,
        max_task_attempts: max_attempts,
        faults,
        backend: BackendKind::from_env(),
        ..ClusterConfig::with_nodes(nodes)
    };
    Cluster::new(config, 256).unwrap()
}

type WcMapper = ClosureMapper<
    u64,
    String,
    String,
    u64,
    fn(&u64, &String, &mut dyn Emit<String, u64>, &TaskContext) -> mapreduce::Result<()>,
>;

fn wc_mapper() -> WcMapper {
    ClosureMapper::new(
        (|_off, line, out, _ctx| {
            for w in line.split_whitespace() {
                out.emit(w.to_string(), 1)?;
            }
            Ok(())
        })
            as fn(&u64, &String, &mut dyn Emit<String, u64>, &TaskContext) -> mapreduce::Result<()>,
    )
}

#[allow(clippy::type_complexity)]
fn wc_reducer() -> ClosureReducer<
    String,
    u64,
    String,
    u64,
    impl FnMut(
            &String,
            &mut dyn Iterator<Item = (String, u64)>,
            &mut dyn Emit<String, u64>,
            &TaskContext,
        ) -> mapreduce::Result<()>
        + Clone,
> {
    ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
    )
}

/// ~100 lines / dozens of splits so the aggressive plan is guaranteed to
/// hit a healthy sample of attempts.
fn corpus() -> Vec<String> {
    (0..400)
        .map(|i| format!("alpha w{} w{} gamma", i % 23, i % 7))
        .collect()
}

/// Run word count on the given cluster; returns sorted counts + metrics.
fn run_wordcount(cluster: &Cluster) -> (Vec<(String, u64)>, JobMetrics) {
    cluster.dfs().write_text("/in", corpus()).unwrap();
    let job = Job::new("wc", wc_mapper(), wc_reducer())
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .combiner(sum_combiner())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    let mut counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    counts.sort();
    (counts, m)
}

#[test]
fn chaos_wordcount_is_bitwise_equal_to_fault_free_run() {
    quiet_injected_panics();
    let (baseline, base_metrics) = run_wordcount(&cluster_with(3, 1, None));
    assert_eq!(base_metrics.task_retries, 0);

    let plan = FaultPlan::aggressive(chaos_seed());
    assert!(
        plan.failure_probability() >= 0.10,
        "chaos plan must fail at least 10% of attempts"
    );
    let chaos = cluster_with(3, 8, Some(plan));
    let (counts, m) = run_wordcount(&chaos);

    assert_eq!(counts, baseline, "faults must never change the output");
    assert!(m.task_retries > 0, "aggressive plan must force retries");
    assert!(
        m.tasks.iter().any(|t| t.attempt > 0),
        "retried tasks are recorded"
    );
    // Exactly one commit per reduce task — failed and killed attempts never
    // commit, so commits cannot exceed tasks even under heavy retries.
    assert_eq!(m.output_commits, m.reduce.tasks as u64);
    assert_eq!(m.output_aborts, m.counter("mr.output.aborts"));
    // The output directory holds exactly the committed part files plus the
    // `_SUCCESS` commit manifest.
    let listed = chaos.dfs().data_files("/out");
    assert_eq!(listed.len(), m.reduce.tasks);
    assert!(
        listed.iter().all(|p| p.contains("/part-")),
        "no attempt files may survive the job: {listed:?}"
    );
    assert!(
        chaos.dfs().exists("/out/_SUCCESS"),
        "a committed job must leave a _SUCCESS manifest"
    );
}

#[test]
fn chaos_survives_a_dead_node() {
    quiet_injected_panics();
    let (baseline, _) = run_wordcount(&cluster_with(3, 1, None));
    let plan = FaultPlan {
        dead_node: Some(1),
        ..FaultPlan::quiet(chaos_seed())
    };
    let chaos = cluster_with(3, 3, Some(plan));
    let (counts, m) = run_wordcount(&chaos);
    assert_eq!(counts, baseline);
    // Round-robin block placement guarantees tasks were hinted onto the
    // dead node; each such attempt fails with NodeLost and is retried on
    // the next node.
    assert!(m.task_retries > 0, "dead node must force re-executions");
}

#[test]
fn chaos_node_failure_plus_faults_still_exact() {
    quiet_injected_panics();
    let (baseline, _) = run_wordcount(&cluster_with(3, 1, None));
    let plan = FaultPlan {
        dead_node: Some(2),
        ..FaultPlan::aggressive(chaos_seed())
    };
    let chaos = cluster_with(3, 10, Some(plan));
    let (counts, m) = run_wordcount(&chaos);
    assert_eq!(counts, baseline);
    assert!(m.task_retries > 0);
}

#[test]
fn panicking_mapper_does_not_abort_process_and_is_retried() {
    quiet_injected_panics();
    let cluster = cluster_with(2, 2, None);
    cluster.dfs().write_text("/in", ["a b", "c d"]).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64,
         line: &String,
         out: &mut dyn Emit<String, u64>,
         ctx: &TaskContext|
         -> mapreduce::Result<()> {
            if ctx.attempt == 0 {
                panic!("deliberate test panic in mapper");
            }
            for w in line.split_whitespace() {
                out.emit(w.to_string(), 1)?;
            }
            Ok(())
        },
    );
    let job = Job::new("panicky", mapper, wc_reducer())
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    assert!(m.task_retries > 0);
    let counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    assert_eq!(counts.len(), 4);
}

#[test]
fn panicking_mapper_with_one_attempt_fails_classified() {
    quiet_injected_panics();
    let cluster = cluster_with(2, 1, None);
    cluster.dfs().write_text("/in", ["a"]).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64,
         _line: &String,
         _out: &mut dyn Emit<String, u64>,
         _ctx: &TaskContext|
         -> mapreduce::Result<()> {
            panic!("deliberate test panic in mapper");
        },
    );
    let job = Job::new("panicky", mapper, wc_reducer())
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    match cluster.run(job) {
        Err(MrError::TaskPanicked(msg)) => assert!(msg.contains("deliberate test panic")),
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
    assert!(
        cluster.dfs().list("/out").is_empty(),
        "failed job must leave no output"
    );
}

#[test]
fn plan_exceeding_max_attempts_fails_classified_with_clean_dfs() {
    quiet_injected_panics();
    let plan = FaultPlan {
        p_transient: 1.0,
        ..FaultPlan::quiet(chaos_seed())
    };
    let chaos = cluster_with(3, 2, Some(plan));
    chaos.dfs().write_text("/in", corpus()).unwrap();
    let job = Job::new("doomed", wc_mapper(), wc_reducer())
        .inputs(text_input(chaos.dfs(), "/in").unwrap())
        .output_seq("/out");
    let err = chaos.run(job).unwrap_err();
    assert!(
        matches!(err, MrError::TaskFailed(_)),
        "classified error, not a hang or panic: {err:?}"
    );
    assert!(err.is_transient(), "exhausted error keeps its class");
    assert!(
        chaos.dfs().list("/out").is_empty(),
        "job-level abort must wipe partial output"
    );
    // The input is untouched.
    assert_eq!(chaos.dfs().read_text("/in").unwrap().len(), corpus().len());
}

#[test]
fn late_fault_discards_uncommitted_output_and_retry_commits() {
    quiet_injected_panics();
    // Deterministically pick a seed where reduce task 0 late-fails on
    // attempt 0 (full output written, death before commit), succeeds on
    // attempt 1, and the single map task has a clean attempt in budget.
    let mut seed = 0u64;
    let plan = loop {
        let p = FaultPlan {
            p_late: 0.5,
            ..FaultPlan::quiet(seed)
        };
        let map_ok = (0..4).any(|a| p.decide("late", Phase::Map, 0, a).is_none());
        let reduce_hit = p.decide("late", Phase::Reduce, 0, 0) == Some(Fault::LateFail)
            && p.decide("late", Phase::Reduce, 0, 1).is_none();
        if map_ok && reduce_hit {
            break p;
        }
        seed += 1;
    };
    let config = ClusterConfig {
        nodes: 2,
        max_task_attempts: 4,
        faults: Some(plan),
        backend: BackendKind::from_env(),
        ..ClusterConfig::with_nodes(2)
    };
    let cluster = Cluster::new(config, 1 << 16).unwrap(); // one big block
    cluster.dfs().write_text("/in", ["a b", "b c"]).unwrap();
    let job = Job::new("late", wc_mapper(), wc_reducer())
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .reducers(1)
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    assert!(m.task_retries >= 1);
    assert!(
        m.output_aborts >= 1,
        "the late-failed attempt's output must be aborted"
    );
    assert_eq!(m.output_commits, 1, "exactly one attempt commits");
    let mut counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    counts.sort();
    assert_eq!(
        counts,
        vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 1)]
    );
    assert_eq!(
        cluster.dfs().list("/out"),
        vec!["/out/_SUCCESS", "/out/part-00000"]
    );
    assert_eq!(cluster.dfs().data_files("/out"), vec!["/out/part-00000"]);
}

#[test]
fn gauge_oom_is_permanent_and_not_retried() {
    quiet_injected_panics();
    let config = ClusterConfig {
        nodes: 2,
        task_memory: Some(64),
        max_task_attempts: 5,
        backend: BackendKind::from_env(),
        ..ClusterConfig::with_nodes(2)
    };
    let cluster = Cluster::new(config, 256).unwrap();
    cluster.dfs().write_text("/in", ["x"]).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64,
         _line: &String,
         _out: &mut dyn Emit<String, u64>,
         ctx: &TaskContext|
         -> mapreduce::Result<()> {
            ctx.counter("test.map_attempts").incr();
            ctx.memory().charge(1 << 20)?; // hopelessly over budget
            Ok(())
        },
    );
    let job =
        Job::new("oomy", mapper, wc_reducer()).inputs(text_input(cluster.dfs(), "/in").unwrap());
    let err = cluster.run(job).unwrap_err();
    assert!(err.is_out_of_memory());
    assert!(
        !err.is_transient(),
        "deterministic budget OOM must be permanent"
    );
}

#[test]
fn injected_oom_is_transient_and_survivable() {
    quiet_injected_panics();
    let (baseline, _) = run_wordcount(&cluster_with(3, 1, None));
    let plan = FaultPlan {
        p_oom: 0.3,
        ..FaultPlan::quiet(chaos_seed())
    };
    let chaos = cluster_with(3, 10, Some(plan));
    let (counts, m) = run_wordcount(&chaos);
    assert_eq!(counts, baseline);
    assert!(m.task_retries > 0, "30% OOM rate must force retries");
}
