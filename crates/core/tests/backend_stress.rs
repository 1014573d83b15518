//! Concurrency smoke tests for the sharded execution backend at the
//! pipeline level: the full 3-stage set-similarity join, run repeatedly
//! with real threads, must commit **identical bytes** every time — and
//! those bytes must match the simulated backend's. The engine-level
//! counterpart lives in `crates/mapreduce/tests/backend.rs`; this suite
//! stresses the same property through stage 1 → 2 → 3 where token
//! orderings, grouped routing, and stage 3's record join all depend on committed
//! intermediate files.

use fuzzyjoin::{
    read_joined, self_join, BackendKind, Cluster, ClusterConfig, JoinConfig, Threshold,
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

/// Seeded stress: the same join 10× on the sharded backend with 4 worker
/// threads on a 1-CPU-or-more host — no thread interleaving may leak into
/// the committed bytes of any stage.
#[test]
fn sharded_join_is_byte_stable_across_ten_runs() {
    let baseline = run_join(BackendKind::Sharded, 4);
    assert!(!baseline.1.is_empty(), "stress corpus must produce pairs");
    for rep in 0..9 {
        let again = run_join(BackendKind::Sharded, 4);
        assert_eq!(baseline, again, "sharded join run {} diverged", rep + 2);
    }
}

/// The stable bytes must also be the *right* bytes: simulated and sharded
/// agree on every stage's committed output, across thread counts.
#[test]
fn sharded_join_matches_simulated_at_every_thread_count() {
    let simulated = run_join(BackendKind::Simulated, 1);
    for threads in [1, 2, 8] {
        let sharded = run_join(BackendKind::Sharded, threads);
        assert_eq!(
            simulated, sharded,
            "sharded({threads} threads) diverged from simulated"
        );
    }
}

/// Where each job of a join runs on the process backend: the jobs whose
/// specs `register_process_jobs` registers — both BTO jobs and the BK kernel
/// — in worker processes, every other job on the driver through the
/// in-process fallback (ROADMAP item 1 moves them, under a measured claim).
#[test]
fn process_backend_runs_exactly_the_registered_jobs_in_worker_processes() {
    let run = |join: JoinConfig| {
        let config = ClusterConfig {
            backend: BackendKind::Process,
            execution_threads: Some(2),
            ..ClusterConfig::with_nodes(3)
        };
        let cluster = Cluster::new(config, 2048).unwrap();
        assert!(cluster.dfs().disk_root().is_some(), "workers share a disk");
        let lines = datagen::to_lines(&datagen::dblp(80, 0xD5));
        cluster.dfs().write_text("/records", &lines).unwrap();
        let outcome = self_join(&cluster, "/records", "/work", &join).unwrap();
        let jobs: Vec<(String, u64, u64)> = outcome
            .all_jobs()
            .map(|j| {
                let worker_maps = j.counter("mr.process.worker_map_tasks");
                let fallback = j.counter("mr.process.fallback_jobs");
                (j.name.clone(), worker_maps, fallback)
            })
            .collect();
        jobs
    };
    let bk = run(JoinConfig::basic());
    let names: Vec<&str> = bk.iter().map(|(name, ..)| name.as_str()).collect();
    let expected = [
        "stage1-bto-count",
        "stage1-bto-sort",
        "stage2-bk",
        "stage3-brj-fill",
        "stage3-brj-assemble",
    ];
    assert_eq!(names, expected);
    for (name, worker_maps, fallback) in &bk[..3] {
        assert!(*worker_maps > 0, "{name} mapped nothing in a worker");
        assert_eq!(*fallback, 0, "{name}");
    }
    for (name, worker_maps, fallback) in &bk[3..] {
        assert_eq!((*worker_maps, *fallback), (0, 1), "{name}");
    }
    let pk = run(JoinConfig::recommended());
    assert_eq!(pk[2].0, "stage2-pk");
    let fallbacks: u64 = pk.iter().map(|(.., fallback)| fallback).sum();
    assert_eq!(fallbacks, 3, "PK and both BRJ jobs: {pk:?}");
}

/// Hidden worker entry for `MR_BACKEND=process`: the driver re-spawns this
/// test binary as worker processes that land here. In a normal test run
/// the worker env var is unset and this is an instant no-op pass.
#[test]
fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}
