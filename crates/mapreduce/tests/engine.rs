//! Integration tests driving the engine end-to-end.

use std::sync::Arc;

use mapreduce::{
    seq_input, sum_combiner, text_input, ClosureMapper, ClosureReducer, Cluster, ClusterConfig,
    Emit, IdentityMapper, IdentityReducer, Job, MrError, TaskContext,
};

mod common;
use common::seq_splits;

fn small_cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig::with_nodes(nodes), 256).unwrap()
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

#[test]
fn word_count_end_to_end() {
    let cluster = small_cluster(3);
    let lines: Vec<String> = (0..50)
        .map(|i| format!("alpha beta{} alpha gamma", i % 5))
        .collect();
    cluster.dfs().write_text("/in", &lines).unwrap();

    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
    );
    let job = Job::new("wc", wc_mapper(), reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .combiner(sum_combiner())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();

    let mut counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    counts.sort();
    assert_eq!(counts.len(), 7); // alpha, beta0..4, gamma
    assert_eq!(counts.iter().find(|(w, _)| w == "alpha").unwrap().1, 100);
    assert_eq!(m.map_input_records, 50);
    assert_eq!(m.map_output_records, 200);
    assert!(
        m.shuffle_records < m.map_output_records,
        "combiner must shrink the shuffle: {} vs {}",
        m.shuffle_records,
        m.map_output_records
    );
    assert!(m.shuffle_bytes > 0);
    assert_eq!(m.reduce_output_records, 7);
    assert_eq!(m.reduce_input_groups, 7);
    assert_eq!(m.tasks.len(), m.map.tasks + m.reduce.tasks);
    assert!(m.wall_secs > 0.0);
}

#[test]
fn results_identical_across_topologies() {
    // The same job on 2 and on 10 nodes must produce identical output.
    let mut outputs = Vec::new();
    for nodes in [2usize, 10] {
        let cluster = small_cluster(nodes);
        let lines: Vec<String> = (0..200)
            .map(|i| format!("w{} w{} shared", i % 17, i % 7))
            .collect();
        cluster.dfs().write_text("/in", &lines).unwrap();
        let reducer = ClosureReducer::new(
            |k: &String,
             vs: &mut dyn Iterator<Item = (String, u64)>,
             out: &mut dyn Emit<String, u64>,
             _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
        );
        let job = Job::new("wc", wc_mapper(), reducer)
            .inputs(text_input(cluster.dfs(), "/in").unwrap())
            .output_seq("/out");
        cluster.run(job).unwrap();
        let mut counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
        counts.sort();
        outputs.push(counts);
    }
    assert_eq!(outputs[0], outputs[1]);
}

#[test]
fn secondary_sort_streams_values_in_key_order() {
    // Composite key (group, seq): partition+group on `group`, sort on both.
    // Each reduce group must observe `seq` strictly increasing.
    let cluster = small_cluster(4);
    let records: Vec<((), (u32, u32))> = (0..100).map(|i| ((), (i % 5, 1000 - i))).collect();
    let mapper = ClosureMapper::new(
        |_k: &(), v: &(u32, u32), out: &mut dyn Emit<(u32, u32), ()>, _ctx: &TaskContext| {
            out.emit(*v, ())
        },
    );
    let reducer = ClosureReducer::new(
        |key: &(u32, u32),
         vs: &mut dyn Iterator<Item = ((u32, u32), ())>,
         out: &mut dyn Emit<u32, Vec<u32>>,
         _ctx: &TaskContext| {
            let seqs: Vec<u32> = vs.map(|(k, _)| k.1).collect();
            assert!(
                seqs.windows(2).all(|w| w[0] <= w[1]),
                "group {key:?} not sorted: {seqs:?}"
            );
            out.emit(key.0, seqs)
        },
    );
    let job = Job::new("secondary-sort", mapper, reducer)
        .inputs(seq_splits(cluster.dfs(), "/in", records, 7))
        .group_on(|k: &(u32, u32)| k.0)
        .output_seq("/groups");
    let m = cluster.run(job).unwrap();
    assert_eq!(m.reduce_input_groups, 5, "one group per group id");
    let groups: Vec<(u32, Vec<u32>)> = cluster.dfs().read_seq("/groups").unwrap();
    assert_eq!(groups.len(), 5);
    for (_, seqs) in groups {
        assert_eq!(seqs.len(), 20);
    }
}

#[test]
fn multi_input_mapper_sees_file_tags() {
    let cluster = small_cluster(2);
    cluster.dfs().write_text("/left", ["l1", "l2"]).unwrap();
    cluster.dfs().write_text("/right", ["r1"]).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64, line: &String, out: &mut dyn Emit<String, String>, ctx: &TaskContext| {
            out.emit(line.clone(), ctx.input_path.clone())
        },
    );
    let reducer = IdentityReducer::<String, String>::new();
    let mut inputs = text_input(cluster.dfs(), "/left").unwrap();
    inputs.extend(text_input(cluster.dfs(), "/right").unwrap());
    let job = Job::new("tags", mapper, reducer)
        .inputs(inputs)
        .output_seq("/tagged");
    cluster.run(job).unwrap();
    let mut pairs: Vec<(String, String)> = cluster.dfs().read_seq("/tagged").unwrap();
    pairs.sort();
    assert_eq!(
        pairs,
        vec![
            ("l1".into(), "/left".into()),
            ("l2".into(), "/left".into()),
            ("r1".into(), "/right".into()),
        ]
    );
}

#[test]
fn text_output_formats_lines() {
    let cluster = small_cluster(1);
    let records: Vec<(u32, u32)> = vec![(1, 10), (2, 20)];
    let job = Job::new(
        "fmt",
        IdentityMapper::<u32, u32>::new(),
        IdentityReducer::<u32, u32>::new(),
    )
    .inputs(seq_splits(cluster.dfs(), "/in", records, 1))
    .reducers(1)
    .output_text("/txt", Arc::new(|k: &u32, v: &u32| format!("{k}\t{v}")));
    cluster.run(job).unwrap();
    let lines = cluster.dfs().read_text("/txt").unwrap();
    assert_eq!(lines, vec!["1\t10", "2\t20"]);
}

#[test]
fn single_reducer_produces_totally_sorted_output() {
    let cluster = small_cluster(4);
    let records: Vec<(u64, ())> = (0..500).rev().map(|i| (i, ())).collect();
    let job = Job::new(
        "sort",
        IdentityMapper::<u64, ()>::new(),
        IdentityReducer::<u64, ()>::new(),
    )
    .inputs(seq_splits(cluster.dfs(), "/in", records, 13))
    .reducers(1)
    .output_seq("/sorted");
    cluster.run(job).unwrap();
    let out: Vec<(u64, ())> = cluster.dfs().read_seq("/sorted").unwrap();
    assert_eq!(out.len(), 500);
    assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
}

#[test]
fn spills_happen_with_tiny_buffer_and_results_stay_correct() {
    let mut config = ClusterConfig::with_nodes(2);
    config.spill_buffer_bytes = 1024; // force many spills
    let cluster = Cluster::new(config, 256).unwrap();
    let lines: Vec<String> = (0..300)
        .map(|i| format!("tok{} tok{}", i % 13, i % 3))
        .collect();
    cluster.dfs().write_text("/in", &lines).unwrap();
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
    );
    let job = Job::new("spilly", wc_mapper(), reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .combiner(sum_combiner())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    assert!(m.spills >= m.map.tasks as u64, "expected spills");
    let counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 600);
}

#[test]
fn memory_budget_fails_tasks_with_oom() {
    let mut config = ClusterConfig::with_nodes(1);
    config.task_memory = Some(100);
    let cluster = Cluster::new(config, 256).unwrap();
    let records: Vec<(u32, u32)> = (0..10).map(|i| (i, i)).collect();
    let inputs = seq_splits(cluster.dfs(), "/in", records, 1);
    let mapper = ClosureMapper::new(
        |k: &u32, v: &u32, out: &mut dyn Emit<u32, u32>, ctx: &TaskContext| {
            // Pretend to hold 64 bytes per record: the third record breaks
            // the 100-byte budget.
            ctx.memory().charge(64)?;
            out.emit(*k, *v)
        },
    );
    let job = Job::new("oom", mapper, IdentityReducer::<u32, u32>::new()).inputs(inputs);
    let err = cluster.run(job).unwrap_err();
    assert!(err.is_out_of_memory(), "got {err:?}");
}

#[test]
fn job_errors_propagate_from_reducers() {
    let cluster = small_cluster(2);
    let inputs = seq_splits(cluster.dfs(), "/in", vec![(1u32, 1u32)], 1);
    let reducer = ClosureReducer::new(
        |_k: &u32,
         _vs: &mut dyn Iterator<Item = (u32, u32)>,
         _out: &mut dyn Emit<u32, u32>,
         _ctx: &TaskContext| Err(MrError::TaskFailed("boom".into())),
    );
    let job = Job::new("fail", IdentityMapper::<u32, u32>::new(), reducer).inputs(inputs);
    let err = cluster.run(job).unwrap_err();
    assert!(matches!(err, MrError::TaskFailed(_)));
}

#[test]
fn seq_input_feeds_next_job() {
    // Chain two jobs: word count then swap-sort by count, like BTO.
    let cluster = small_cluster(2);
    let lines = ["c c c b b a", "c b a a a a"];
    cluster.dfs().write_text("/in", lines).unwrap();
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
    );
    let job1 = Job::new("count", wc_mapper(), reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/counts");
    cluster.run(job1).unwrap();

    let swap = mapreduce::SwapMapper::<String, u64>::new();
    let job2 = Job::new("sort", swap, IdentityReducer::<u64, String>::new())
        .inputs(seq_input::<String, u64>(cluster.dfs(), "/counts").unwrap())
        .reducers(1)
        .output_seq("/sorted");
    cluster.run(job2).unwrap();
    let sorted: Vec<(u64, String)> = cluster.dfs().read_seq("/sorted").unwrap();
    let tokens: Vec<&str> = sorted.iter().map(|(_, t)| t.as_str()).collect();
    assert_eq!(
        tokens,
        vec!["b", "c", "a"],
        "ascending frequency: b=3, c=4, a=5"
    );
}

#[test]
fn flaky_tasks_are_retried_and_job_succeeds() {
    let mut config = ClusterConfig::with_nodes(2);
    config.max_task_attempts = 3;
    let cluster = Cluster::new(config, 256).unwrap();
    let lines: Vec<String> = (0..40).map(|i| format!("w{} w{}", i % 5, i % 3)).collect();
    cluster.dfs().write_text("/in", &lines).unwrap();
    // The mapper fails on its first attempt of every task.
    let mapper = ClosureMapper::new(
        |_off: &u64, line: &String, out: &mut dyn Emit<String, u64>, ctx: &TaskContext| {
            if ctx.attempt == 0 {
                return Err(MrError::TaskFailed("simulated transient failure".into()));
            }
            for w in line.split_whitespace() {
                out.emit(w.to_string(), 1)?;
            }
            Ok(())
        },
    );
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
    );
    let job = Job::new("flaky", mapper, reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    assert!(
        m.task_retries >= m.map.tasks as u64,
        "every map task retried once"
    );
    let counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 80, "results correct despite retries");
}

#[test]
fn permanently_failing_task_exhausts_attempts() {
    let mut config = ClusterConfig::with_nodes(1);
    config.max_task_attempts = 3;
    let cluster = Cluster::new(config, 256).unwrap();
    let inputs = seq_splits(cluster.dfs(), "/in", vec![(1u32, 1u32)], 1);
    let mapper = ClosureMapper::new(
        |_k: &u32, _v: &u32, _out: &mut dyn Emit<u32, u32>, _ctx: &TaskContext| {
            Err(MrError::TaskFailed("permanent".into()))
        },
    );
    let job = Job::new("doomed", mapper, IdentityReducer::<u32, u32>::new()).inputs(inputs);
    let err = cluster.run(job).unwrap_err();
    assert!(matches!(err, MrError::TaskFailed(_)));
}

#[test]
fn flaky_reducer_retries_and_replaces_partial_output() {
    let mut config = ClusterConfig::with_nodes(1);
    config.max_task_attempts = 2;
    let cluster = Cluster::new(config, 256).unwrap();
    let records: Vec<(u32, u32)> = (0..10).map(|i| (i, i)).collect();
    // Reducer emits a record and THEN fails on attempt 0 — the partial part
    // file must be replaced by the successful attempt.
    let reducer = ClosureReducer::new(
        |k: &u32,
         vs: &mut dyn Iterator<Item = (u32, u32)>,
         out: &mut dyn Emit<u32, u32>,
         ctx: &TaskContext| {
            let sum: u32 = vs.map(|(_, v)| v).sum();
            out.emit(*k, sum)?;
            if ctx.attempt == 0 {
                return Err(MrError::TaskFailed("post-emit failure".into()));
            }
            Ok(())
        },
    );
    let job = Job::new("flaky-reduce", IdentityMapper::<u32, u32>::new(), reducer)
        .inputs(seq_splits(cluster.dfs(), "/in", records, 2))
        .reducers(1)
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    assert!(m.task_retries >= 1);
    let out: Vec<(u32, u32)> = cluster.dfs().read_seq("/out").unwrap();
    assert_eq!(out.len(), 10, "exactly one copy of each group's output");
}

#[test]
fn multithreaded_execution_matches_sequential() {
    // The host may have one core, so the default engine path is sequential;
    // force a 4-thread worker pool and check results are identical.
    let lines: Vec<String> = (0..500)
        .map(|i| format!("tok{} tok{} tok{}", i % 31, i % 7, i % 3))
        .collect();
    let run_with = |threads: usize| {
        let mut config = ClusterConfig::with_nodes(4);
        config.execution_threads = Some(threads);
        config.spill_buffer_bytes = 2048; // exercise spills under concurrency
        let cluster = Cluster::new(config, 512).unwrap();
        cluster.dfs().write_text("/in", &lines).unwrap();
        let reducer = ClosureReducer::new(
            |k: &String,
             vs: &mut dyn Iterator<Item = (String, u64)>,
             out: &mut dyn Emit<String, u64>,
             _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
        );
        let job = Job::new("wc", wc_mapper(), reducer)
            .inputs(text_input(cluster.dfs(), "/in").unwrap())
            .combiner(sum_combiner())
            .output_seq("/out");
        cluster.run(job).unwrap();
        let mut counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
        counts.sort();
        counts
    };
    assert_eq!(run_with(1), run_with(4));
}

#[test]
fn multithreaded_retries_work() {
    let mut config = ClusterConfig::with_nodes(2);
    config.execution_threads = Some(4);
    config.max_task_attempts = 2;
    let cluster = Cluster::new(config, 256).unwrap();
    let lines: Vec<String> = (0..60).map(|i| format!("w{}", i % 9)).collect();
    cluster.dfs().write_text("/in", &lines).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64, line: &String, out: &mut dyn Emit<String, u64>, ctx: &TaskContext| {
            if ctx.attempt == 0 {
                return Err(MrError::TaskFailed("flaky".into()));
            }
            out.emit(line.clone(), 1)
        },
    );
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
    );
    let job = Job::new("flaky-mt", mapper, reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    assert!(m.task_retries > 0);
    let counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    assert_eq!(counts.iter().map(|(_, n)| n).sum::<u64>(), 60);
}

#[test]
fn tiny_merge_factor_forces_intermediate_passes() {
    let mut config = ClusterConfig::with_nodes(4);
    config.spill_buffer_bytes = 1024;
    // 256-byte blocks of ~22-byte lines: ~170 map tasks, each of which sees
    // every `i % 5` token, so those tokens' partitions collect ~170 runs —
    // more than one merge pass opens.
    let cluster = Cluster::new(config, 256).unwrap();
    let lines: Vec<String> = (0..2000)
        .map(|i| format!("token{} token{} token{}", i % 29, i % 13, i % 5))
        .collect();
    cluster.dfs().write_text("/in", &lines).unwrap();
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
    );
    let job = Job::new("merge-passes", wc_mapper(), reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    assert!(
        m.merge_passes > 0,
        "expected intermediate merge passes over {} map tasks' runs",
        m.map.tasks
    );
    assert!(m.map.tasks > mapreduce::run::MERGE_FACTOR);
    // Results must be unaffected by the merge strategy.
    let counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 6000);
}
