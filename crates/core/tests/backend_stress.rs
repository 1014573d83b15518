//! Concurrency smoke tests for the execution backends at the pipeline
//! level: the full 3-stage set-similarity join, run repeatedly on 1, 2 and
//! 8 threads, must commit **identical bytes** every time — and those bytes
//! must match the single-threaded run's. The engine-level
//! counterpart lives in `crates/mapreduce/tests/backend.rs`; this suite
//! stresses the same property through stage 1 → 2 → 3 where token
//! orderings, grouped routing, and stage 3's record join all depend on committed
//! intermediate files.

use fuzzyjoin::{
    read_joined, self_join, BackendKind, Cluster, ClusterConfig, JoinConfig, Stage1Algo,
    Stage2Algo, Stage3Algo, Threshold,
};

/// One full self-join; returns the committed outputs verbatim: the raw
/// stage-2 RID-pair text lines in file order plus the parsed stage-3 rows
/// in file order (similarities compared bitwise via `to_bits`).
fn run_join(backend: BackendKind, threads: usize) -> (Vec<String>, Vec<(u64, u64, u64)>) {
    let config = ClusterConfig {
        backend,
        execution_threads: Some(threads),
        ..ClusterConfig::with_nodes(3)
    };
    let cluster = Cluster::new(config, 2048).unwrap();
    let lines = datagen::to_lines(&datagen::dblp(80, 0xD5));
    cluster.dfs().write_text("/records", &lines).unwrap();
    let join = JoinConfig::recommended().with_threshold(Threshold::jaccard(0.8));
    let outcome = self_join(&cluster, "/records", "/work", &join).unwrap();
    let rid_pairs: Vec<String> = cluster.dfs().read_text(&outcome.ridpairs_path).unwrap();
    let joined = read_joined(&cluster, &outcome.joined_path)
        .unwrap()
        .into_iter()
        .map(|((a, b), (_, _, sim))| (a, b, sim.to_bits()))
        .collect();
    (rid_pairs, joined)
}

/// Seeded stress: the same join 10× in process with 8 worker threads on a
/// 1-CPU-or-more host — no thread interleaving may leak into the committed
/// bytes of any stage.
#[test]
fn in_process_join_is_byte_stable_across_ten_runs() {
    let baseline = run_join(BackendKind::Simulated, 8);
    assert!(!baseline.1.is_empty(), "stress corpus must produce pairs");
    for rep in 0..9 {
        let again = run_join(BackendKind::Simulated, 8);
        assert_eq!(baseline, again, "join run {} diverged", rep + 2);
    }
}

/// The stable bytes must also be the *right* bytes: every thread count
/// agrees with one thread on every stage's committed output.
#[test]
fn in_process_join_matches_one_thread_at_every_thread_count() {
    let one_thread = run_join(BackendKind::Simulated, 1);
    for threads in [2, 8] {
        let threaded = run_join(BackendKind::Simulated, threads);
        assert_eq!(
            one_thread, threaded,
            "{threads} threads diverged from one thread"
        );
    }
}

/// Where each job of a join runs on the process backend: every spec of
/// stages 1–3 is registered, so whatever the stage-1 × stage-2 × stage-3
/// choice, every winning map and reduce attempt of every job ran in a
/// worker process — and in the cluster's one pool, which a fault-free
/// pipeline never has to spawn from twice per slot.
#[test]
fn process_backend_runs_exactly_the_registered_jobs_in_worker_processes() {
    const THREADS: u64 = 2;
    let lines = datagen::to_lines(&datagen::dblp(80, 0xD5));
    let mut reference: Option<Vec<(u64, u64, u64)>> = None;
    let mut jobs_seen = std::collections::BTreeSet::new();
    let stage2s = [
        Stage2Algo::Bk,
        JoinConfig::recommended().stage2,
        Stage2Algo::BkMapBlocks { blocks: 3 },
        Stage2Algo::BkReduceBlocks { blocks: 3 },
    ];
    for stage1 in [Stage1Algo::Bto, Stage1Algo::Opto] {
        for stage2 in stage2s {
            for stage3 in [Stage3Algo::Brj, Stage3Algo::Oprj] {
                let join = JoinConfig {
                    stage1,
                    stage2,
                    stage3,
                    ..JoinConfig::recommended().with_threshold(Threshold::jaccard(0.8))
                };
                let combo = join.combo_name();
                let config = ClusterConfig {
                    backend: BackendKind::Process,
                    execution_threads: Some(THREADS as usize),
                    ..ClusterConfig::with_nodes(3)
                };
                let cluster = Cluster::new(config, 2048).unwrap();
                cluster.dfs().write_text("/records", &lines).unwrap();
                let outcome = self_join(&cluster, "/records", "/work", &join).unwrap();
                for j in outcome.all_jobs() {
                    jobs_seen.insert(j.name.clone());
                    assert_eq!(
                        j.counter("mr.process.worker_map_tasks"),
                        j.map.tasks as u64,
                        "{combo}: {} ran a map attempt outside a worker",
                        j.name
                    );
                    assert_eq!(
                        j.counter("mr.process.worker_reduce_tasks"),
                        j.reduce.tasks as u64,
                        "{combo}: {} ran a reduce attempt outside a worker",
                        j.name
                    );
                }
                let spawned: u64 = outcome
                    .all_jobs()
                    .map(|j| j.counter("mr.process.workers_spawned"))
                    .sum();
                assert!(
                    (1..=THREADS).contains(&spawned),
                    "{combo}: {spawned} workers spawned for a pool of {THREADS}"
                );
                let joined: Vec<(u64, u64, u64)> = read_joined(&cluster, &outcome.joined_path)
                    .unwrap()
                    .into_iter()
                    .map(|((a, b), (_, _, sim))| (a, b, sim.to_bits()))
                    .collect();
                assert!(!joined.is_empty(), "stress corpus must produce pairs");
                assert_eq!(reference.get_or_insert(joined.clone()), &joined, "{combo}");
            }
        }
    }
    assert_eq!(jobs_seen.len(), 10, "all ten jobs ran: {jobs_seen:?}");
}

/// Hidden worker entry for `MR_BACKEND=process`: the driver re-spawns this
/// test binary as worker processes that land here. In a normal test run
/// the worker env var is unset and this is an instant no-op pass.
#[test]
fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}
