//! Chaos differential suite for the full 3-stage join pipeline.
//!
//! The capstone robustness property: an aggressive seeded fault plan —
//! transient errors, user-code panics, environmental OOMs, late
//! post-write failures, stragglers, and (in one cell) a dead node —
//! injected across every job of every stage must leave the stage-2 RID
//! pairs and the stage-3 joined output **bitwise identical** to a
//! fault-free run, for both the BK and PK kernels in both self-join and
//! R-S mode. The seed comes from `CHAOS_SEED` (CI sweeps several). A word
//! count under stragglers and retries checks what the modelled cluster
//! (`fuzzyjoin::model`) makes of them.

use std::sync::Once;

use fuzzyjoin::{
    model, read_joined, read_rid_pairs, rs_join, self_join, BackendKind, Cluster, ClusterConfig,
    FaultPlan, JoinConfig, JoinOutcome, MrError, Stage2Algo,
};
use mapreduce::{
    text_input, ClosureMapper, ClosureReducer, Emit, Job, JobMetrics, Phase, TaskContext,
    HIST_MAP_TASK_SECS,
};
use setsim::oracle;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Injected panics are part of the chaos plan; keep them off stderr while
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
            if !msg.contains("injected user-code panic") {
                prev(info);
            }
        }));
    });
}

fn cluster_with(faults: Option<FaultPlan>) -> Cluster {
    // `MR_BACKEND=process` (CI backend-parity job) runs the whole chaos
    // suite on the process executor; output must stay bitwise identical.
    let config = ClusterConfig {
        max_task_attempts: 8,
        faults,
        backend: BackendKind::from_env(),
        ..ClusterConfig::with_nodes(3)
    };
    Cluster::new(config, 2048).unwrap()
}

fn kernels() -> [Stage2Algo; 2] {
    [Stage2Algo::Bk, Stage2Algo::Pk]
}

/// Everything a run produces that faults must not be able to change.
#[derive(Debug, PartialEq)]
struct RunOutput {
    rid_pairs: Vec<(u64, u64, f64)>,
    joined: Vec<oracle::ResultRow>,
}

fn self_outputs(cluster: &Cluster, config: &JoinConfig) -> (RunOutput, JoinOutcome) {
    let lines = datagen::to_lines(&datagen::dblp(80, 11));
    cluster.dfs().write_text("/records", &lines).unwrap();
    let outcome = self_join(cluster, "/records", "/work", config).unwrap();
    (collect(cluster, &outcome), outcome)
}

fn rs_outputs(cluster: &Cluster, config: &JoinConfig) -> (RunOutput, JoinOutcome) {
    let r = datagen::to_lines(&datagen::dblp(60, 11));
    // Guarantee overlap: S carries copies of every 4th R record.
    let mut s = datagen::to_lines(&datagen::citeseerx(40, 1011));
    for (i, line) in r.iter().enumerate().filter(|(i, _)| i % 4 == 0) {
        let mut fields: Vec<&str> = line.split('\t').collect();
        let rid = format!("{}", 10_000 + i);
        fields[0] = &rid;
        s.push(fields.join("\t"));
    }
    cluster.dfs().write_text("/r", &r).unwrap();
    cluster.dfs().write_text("/s", &s).unwrap();
    let outcome = rs_join(cluster, "/r", "/s", "/work", config).unwrap();
    (collect(cluster, &outcome), outcome)
}

fn collect(cluster: &Cluster, outcome: &JoinOutcome) -> RunOutput {
    RunOutput {
        rid_pairs: read_rid_pairs(cluster, &outcome.ridpairs_path).unwrap(),
        joined: read_joined(cluster, &outcome.joined_path)
            .unwrap()
            .into_iter()
            .map(|((a, b), (_, _, sim))| (a, b, sim))
            .collect(),
    }
}

/// BK and PK, self-join and R-S, under the aggressive plan: stage-2 RID
/// pairs and stage-3 joined pairs bitwise equal to fault-free, with the
/// fault machinery demonstrably engaged.
#[test]
fn chaos_pipeline_is_bitwise_equal_to_fault_free() {
    quiet_injected_panics();
    let plan = FaultPlan::aggressive(chaos_seed());
    assert!(plan.failure_probability() >= 0.10);
    for stage2 in kernels() {
        let config = JoinConfig {
            stage2,
            ..JoinConfig::recommended()
        };
        let (baseline_self, base_outcome) = self_outputs(&cluster_with(None), &config);
        assert_eq!(base_outcome.task_retries(), 0);
        assert!(
            !baseline_self.joined.is_empty(),
            "vacuous corpus for {stage2:?}"
        );

        let chaos = cluster_with(Some(plan.clone()));
        let (out, outcome) = self_outputs(&chaos, &config);
        assert_eq!(out, baseline_self, "{stage2:?} self-join under chaos");
        assert!(outcome.task_retries() > 0, "plan must engage ({stage2:?})");
        assert!(outcome.output_commits() > 0);

        let (baseline_rs, _) = rs_outputs(&cluster_with(None), &config);
        assert!(!baseline_rs.joined.is_empty(), "vacuous R-S corpus");
        let chaos = cluster_with(Some(plan.clone()));
        let (out, outcome) = rs_outputs(&chaos, &config);
        assert_eq!(out, baseline_rs, "{stage2:?} R-S join under chaos");
        assert!(outcome.task_retries() > 0);
    }
}

/// One cell additionally loses a whole node: every attempt hinted onto it
/// fails with `NodeLost` and must be re-executed elsewhere, still bitwise
/// exact end to end.
#[test]
fn chaos_pipeline_survives_losing_a_node() {
    quiet_injected_panics();
    let config = JoinConfig::recommended();
    let (baseline, _) = self_outputs(&cluster_with(None), &config);
    let plan = FaultPlan {
        dead_node: Some(1),
        ..FaultPlan::aggressive(chaos_seed())
    };
    let chaos = cluster_with(Some(plan));
    let (out, outcome) = self_outputs(&chaos, &config);
    assert_eq!(out, baseline, "dead node must not change the join result");
    assert!(outcome.task_retries() > 0);
}

/// A plan that always fails exhausts `max_task_attempts`: the pipeline
/// returns a classified error (no hang, no panic escape) and the DFS holds
/// no partial joined output.
#[test]
fn chaos_pipeline_exhausting_attempts_fails_clean() {
    quiet_injected_panics();
    let plan = FaultPlan {
        p_transient: 1.0,
        ..FaultPlan::quiet(chaos_seed())
    };
    let config = ClusterConfig {
        max_task_attempts: 2,
        faults: Some(plan),
        backend: BackendKind::from_env(),
        ..ClusterConfig::with_nodes(3)
    };
    let cluster = Cluster::new(config, 2048).unwrap();
    let lines = datagen::to_lines(&datagen::dblp(40, 11));
    cluster.dfs().write_text("/records", &lines).unwrap();
    let err = self_join(&cluster, "/records", "/work", &JoinConfig::recommended()).unwrap_err();
    assert!(
        matches!(err, MrError::TaskFailed(_)),
        "classified failure, got {err:?}"
    );
    assert!(err.is_transient(), "exhausted error keeps its class");
    // Job-level abort wiped every stage directory the failed job owned;
    // no stage leaves attempt files anywhere under the work prefix.
    let leftovers: Vec<String> = cluster
        .dfs()
        .list("/work")
        .into_iter()
        .filter(|p| p.rsplit('/').next().is_some_and(|b| b.starts_with('_')))
        .collect();
    assert!(leftovers.is_empty(), "attempt files leaked: {leftovers:?}");
}

/// Storage-storm cell: seeded EIO and torn-write injection into the
/// store. Worker-side hits are retried inside the engine; an unlucky
/// driver-side read can still surface as a classified error, so the test
/// does what a real operator does — resume a fresh driver over the
/// surviving DFS, with a re-rolled fault seed each launch (draws are keyed
/// on (seed, op, path), so a fixed seed would replay the identical fault
/// forever) — until the join completes. The result must be bitwise
/// identical to the fault-free run, with the injector demonstrably fired:
/// on a store the test makes and hands its clusters, and on the one a
/// simulated `Cluster::new` without a `dfs_root` makes itself.
#[test]
fn chaos_pipeline_survives_storage_storm_bitwise_identical() {
    quiet_injected_panics();
    let config = JoinConfig::recommended();
    let (baseline, _) = self_outputs(&cluster_with(None), &config);
    let storm = |launch: u64, backend| ClusterConfig {
        max_task_attempts: 8,
        faults: Some(FaultPlan {
            p_disk_eio: 0.01,
            p_torn_write: 0.03,
            ..FaultPlan::quiet(chaos_seed().wrapping_add(launch))
        }),
        backend,
        ..ClusterConfig::with_nodes(3)
    };
    // Launch 0 runs under `eio=1.0`, so the store takes a fault whatever
    // the later launches draw; they resume under the storm to completion.
    let launch_config = |launch: u64, backend| {
        let mut config = storm(launch, backend);
        if launch == 0 {
            config.faults = Some(FaultPlan {
                p_disk_eio: 1.0,
                ..FaultPlan::quiet(chaos_seed())
            });
        }
        config
    };

    // Input goes through a fault-free handle; faults are installed on the
    // per-cluster handles below, so only pipeline traffic sees the storm.
    let dfs = mapreduce::Dfs::new(3, 2048).unwrap();
    let backend = BackendKind::from_env();
    let (out, injections) = survive_storm(&dfs, &config, |launch| {
        Cluster::with_dfs(launch_config(launch, backend), dfs.clone()).unwrap()
    });
    assert_eq!(out, baseline, "storage storm changed the join result");
    assert!(injections > 0, "storm plan never fired");

    // The same on a cluster that made its own store.
    let own = Cluster::new(storm(0, BackendKind::Simulated), 2048).unwrap();
    assert!(own.config().dfs_root.is_none());
    let calm = mapreduce::Dfs::new_disk(3, 2048, own.dfs().root()).unwrap();
    let (out, injections) = survive_storm(&calm, &config, |launch| {
        let config = launch_config(launch, BackendKind::Simulated);
        Cluster::with_dfs(config, own.dfs().clone()).unwrap()
    });
    assert_eq!(out, baseline, "storage storm changed the join result");
    assert!(injections > 0, "a store without a dfs_root took no fault");
}

/// Self-join `/records`, written through the fault-free handle `calm`, on
/// `launch(n)` for launch n = 0, 1, … until a launch completes and its
/// committed output reads back through `calm`; the output, and the storage
/// faults injected on the way.
fn survive_storm(
    calm: &mapreduce::Dfs,
    config: &JoinConfig,
    launch: impl Fn(u64) -> Cluster,
) -> (RunOutput, u64) {
    let lines = datagen::to_lines(&datagen::dblp(80, 11));
    calm.write_text("/records", &lines).unwrap();
    let calm = Cluster::with_dfs(
        ClusterConfig {
            backend: BackendKind::from_env(),
            ..ClusterConfig::with_nodes(3)
        },
        calm.clone(),
    )
    .unwrap();
    let mut injections = 0u64;
    for n in 0..24u64 {
        let cluster = launch(n);
        let result = fuzzyjoin::self_join(&cluster, "/records", "/work", config);
        injections += cluster.dfs().storage_fault_injections();
        match result {
            Ok(outcome) => {
                // Read the committed output back through the calm cluster
                // so a read-side EIO cannot fire while checking the result.
                // A torn write on the *final* stage commits successfully
                // (the damage is only visible to readers, via the CRC
                // wall), so a checksum error here sends the loop around
                // again — the next resume invalidates that manifest and
                // re-runs the producer, just as the CLI's resume path does.
                let rid_pairs = read_rid_pairs(&calm, &outcome.ridpairs_path);
                let joined = read_joined(&calm, &outcome.joined_path);
                match (rid_pairs, joined) {
                    (Ok(rid_pairs), Ok(joined)) => {
                        let joined = joined.into_iter();
                        let out = RunOutput {
                            rid_pairs,
                            joined: joined.map(|((a, b), (_, _, sim))| (a, b, sim)).collect(),
                        };
                        return (out, injections);
                    }
                    (r, j) => {
                        for e in [r.err(), j.err()].into_iter().flatten() {
                            assert!(
                                e.is_checksum_mismatch(),
                                "committed output may only fail the CRC wall, got {e:?}"
                            );
                        }
                    }
                }
            }
            Err(e) => assert!(
                // Transient (EIO, exhausted retries) or a torn write caught
                // by the CRC wall — both heal on the next resume; anything
                // else (Codec, InvalidConfig, ...) is a real bug.
                e.is_transient() || e.is_checksum_mismatch() || matches!(e, MrError::TaskFailed(_)),
                "storm may only surface recoverable classes, got {e:?}"
            ),
        }
    }
    panic!("join never completed under the storage storm");
}

/// A word-count cluster: `nodes` nodes, `attempts` attempts per task, and
/// 256-byte blocks, so 400 lines make dozens of map tasks.
fn wc_cluster(nodes: usize, attempts: usize, faults: Option<FaultPlan>) -> Cluster {
    let config = ClusterConfig {
        max_task_attempts: attempts,
        faults,
        backend: BackendKind::from_env(),
        ..ClusterConfig::with_nodes(nodes)
    };
    Cluster::new(config, 256).unwrap()
}

/// Word count of `lines` whose map attempts below `flaky` fail: the sorted
/// counts and the job's metrics.
fn word_count(
    cluster: &Cluster,
    lines: &[String],
    flaky: usize,
) -> (Vec<(String, u64)>, JobMetrics) {
    cluster.dfs().write_text("/in", lines).unwrap();
    let mapper = ClosureMapper::new(
        move |_: &u64, line: &String, out: &mut dyn Emit<String, u64>, ctx: &TaskContext| {
            if ctx.attempt < flaky {
                return Err(MrError::TaskFailed("a flaky first attempt".into()));
            }
            line.split_whitespace()
                .try_for_each(|w| out.emit(w.to_string(), 1))
        },
    );
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
    );
    let job = Job::new("wc", mapper, reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    let mut counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    counts.sort();
    (counts, m)
}

#[test]
fn stragglers_are_speculated_and_speculation_pays() {
    quiet_injected_panics();
    let plan = FaultPlan {
        p_straggler: 1.0,
        straggler_factor: 200.0,
        ..FaultPlan::quiet(chaos_seed())
    };
    let lines: Vec<String> = (0..400)
        .map(|i| format!("alpha w{} w{} gamma", i % 23, i % 7))
        .collect();
    let (baseline, _) = word_count(&wc_cluster(3, 1, None), &lines, 0);

    let (counts, m_spec) = word_count(&wc_cluster(3, 1, Some(plan)), &lines, 0);
    let sim = model::job(&m_spec);
    let (launched, won, killed) = sim.speculative();
    assert_eq!(counts, baseline, "stragglers must not change output");
    assert!(launched > 0, "every task straggles");
    assert!(won > 0, "200x stragglers lose the race");
    assert_eq!(killed, launched, "every race kills exactly one attempt");
    // The engine never runs a backup: still one commit per task.
    assert_eq!(m_spec.output_commits, m_spec.reduce.tasks as u64);
    // Left to finish, each phase's slowest 200x primary alone would outlast
    // the job the backups completed.
    let primary = |phase| {
        let tasks = m_spec.tasks.iter().filter(|t| t.phase == phase);
        tasks.map(|t| t.secs * t.straggle).fold(0.0, f64::max)
    };
    assert!(
        sim.sim_secs < primary(Phase::Map) + primary(Phase::Reduce),
        "speculation must beat 200x stragglers: {sim:?}"
    );
}

#[test]
fn backoff_is_charged_to_simulated_time_only() {
    quiet_injected_panics();
    let start = std::time::Instant::now();
    let (_, m) = word_count(&wc_cluster(2, 3, None), &["a b c".to_string()], 2);
    let wall = start.elapsed().as_secs_f64();
    let sim = model::job(&m);
    assert_eq!(m.task_retries, 2);
    assert!((sim.backoff_secs - 3.0).abs() < 1e-9, "1s, then 2s");
    assert!(sim.sim_secs >= 3.0, "backoff lands in simulated time");
    assert!(wall < 3.0, "…but never in real time");
    // …nor in measured task seconds.
    let map_secs = m.histogram(HIST_MAP_TASK_SECS).unwrap();
    assert!(m.map.max_task_secs < 1.0, "{:?}", m.map);
    assert!(map_secs.max < 1.0, "{map_secs:?}");
}

/// Hidden worker entry for `MR_BACKEND=process`: the driver re-spawns this
/// test binary as worker processes that land here. In a normal test run
/// the worker env var is unset and this is an instant no-op pass.
#[test]
fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}
