//! Durable-recovery chaos suite: driver crash/resume and data integrity
//! across the full 3-stage pipeline.
//!
//! Two capstone properties:
//!
//! 1. **Crash/resume**: for *every* job index of the recommended 5-job
//!    pipeline and both crash kinds (right after the job commits, or mid-job
//!    before the commit), an injected driver crash followed by a resume over
//!    the surviving DFS yields output bitwise identical to an uninterrupted
//!    run, with every committed job provably skipped (per-job metrics and
//!    trace events) and only the rest re-executed — and stage 3's side
//!    file of participating RIDs, which no manifest covers, re-derived to
//!    the same bytes and the same decision.
//! 2. **Integrity**: flipping one bit in any committed file is detected on
//!    the next read as a classified checksum error — never silently wrong
//!    pairs — it invalidates the producing job's manifest, and a resume
//!    re-executes exactly that producer.

use std::sync::Once;

use fuzzyjoin::{
    read_joined, read_rid_pairs, rs_join, self_join, Cluster, ClusterConfig, FaultPlan, JoinConfig,
    JoinOutcome, MrError, Recovery, Threshold, JOB_SKIPPED_COUNTER,
};
use mapreduce::{EventKind, TraceSink};
use setsim::oracle;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Injected panics are part of aggressive chaos plans; keep them off stderr
/// while letting genuine panics through.
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
    // `MR_BACKEND=process` (CI backend-parity job) runs the whole
    // crash/resume suite on the process executor. `resume_cluster` clones
    // the crashed config, so the backend survives resume automatically.
    let config = ClusterConfig {
        max_task_attempts: 8,
        faults,
        backend: mapreduce::BackendKind::from_env(),
        ..ClusterConfig::with_nodes(3)
    };
    Cluster::new(config, 2048).unwrap()
}

/// A fresh driver over the SAME DFS as the crashed one — what a real resume
/// does. The crash points and the one-shot corruption are cleared; every
/// other fault knob (transients, panics, stragglers, ...) stays live.
fn resume_cluster(crashed: &Cluster) -> Cluster {
    let mut faults = crashed.config().faults.clone();
    if let Some(p) = faults.as_mut() {
        p.crash_after = None;
        p.crash_mid = None;
        p.corrupt_path = None;
    }
    let config = ClusterConfig {
        faults,
        ..crashed.config().clone()
    };
    Cluster::with_dfs(config, crashed.dfs().clone()).unwrap()
}

fn write_self_input(cluster: &Cluster) {
    let lines = datagen::to_lines(&datagen::dblp(80, 11));
    cluster.dfs().write_text("/records", &lines).unwrap();
}

fn write_rs_inputs(cluster: &Cluster) {
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
}

/// Everything a run produces that recovery must not be able to change.
#[derive(Debug, PartialEq)]
struct RunOutput {
    rid_pairs: Vec<(u64, u64, f64)>,
    joined: Vec<(u64, u64, f64)>,
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

fn skipped_in_metrics(outcome: &JoinOutcome) -> usize {
    outcome
        .all_jobs()
        .map(|j| j.counter(JOB_SKIPPED_COUNTER))
        .sum::<u64>() as usize
}

/// The sweep: crash at every job index of the recommended pipeline, both
/// after the commit and mid-job, and resume each time.
#[test]
fn every_crash_point_resumes_bitwise_identical() {
    let config = JoinConfig::recommended();
    let base_cluster = cluster_with(None);
    write_self_input(&base_cluster);
    let base = self_join(&base_cluster, "/records", "/work", &config).unwrap();
    let base_out = collect(&base_cluster, &base);
    assert!(!base_out.joined.is_empty(), "vacuous corpus");
    let total_jobs = base.all_jobs().count();
    assert_eq!(total_jobs, 5, "recommended combo runs 5 jobs");
    // Stage 3's semi-join: the driver publishes the participating RIDs
    // between stage 2's commit and whichever BRJ job runs first; both
    // jobs' mappers load it.
    let participants = |c: &Cluster| c.dfs().read_seq::<u8, u64>("/work/participants").unwrap();
    let filter_counters = |o: &JoinOutcome, job: usize| {
        let job = &o.stage3.jobs[job];
        (
            job.counter("stage3.participants"),
            job.counter("stage3.records_filtered"),
        )
    };
    let base_participants = participants(&base_cluster);
    assert!(!base_participants.is_empty());
    assert!(filter_counters(&base, 0).1 > 0 && filter_counters(&base, 1).1 > 0);

    for point in 0..total_jobs {
        for mid in [false, true] {
            let plan = FaultPlan {
                crash_after: (!mid).then_some(point),
                crash_mid: mid.then_some(point),
                ..FaultPlan::quiet(0)
            };
            let crashed = cluster_with(Some(plan));
            write_self_input(&crashed);
            let err = self_join(&crashed, "/records", "/work", &config).unwrap_err();
            assert!(err.is_driver_crash(), "point {point} mid={mid}: {err:?}");
            // Job 3 is BRJ job 1: a crash in its middle is a crash between
            // the side file and the job's commit.
            assert_eq!(
                crashed.dfs().exists("/work/participants"),
                point >= 3,
                "point {point} mid={mid}"
            );

            // No manifest covers the side file, so a resumed driver must not
            // trust what it finds: wherever a BRJ job is still to run — job
            // 2 alone when the crash came after job 1 committed — the file
            // is lost, or left naming RIDs no record has.
            let committed = if mid { point } else { point + 1 };
            if point >= 3 && committed < total_jobs {
                crashed.dfs().delete_prefix("/work/participants");
                if !mid {
                    let stale = [(0u8, u64::MAX), (1u8, u64::MAX)];
                    crashed
                        .dfs()
                        .write_seq("/work/participants", &stale)
                        .unwrap();
                }
            }

            let mut fresh = resume_cluster(&crashed);
            let sink = TraceSink::new();
            fresh.set_trace(sink.clone());
            let outcome = self_join(&fresh, "/records", "/work", &config).unwrap();
            assert_eq!(
                collect(&fresh, &outcome),
                base_out,
                "resumed output diverged (point {point}, mid={mid})"
            );
            // Whichever driver wrote the side file last, it decided as the
            // uninterrupted run did; a re-run BRJ job filtered the same records.
            assert_eq!(participants(&fresh), base_participants);
            for job in 0..2 {
                if outcome.stage3.jobs[job].counter(JOB_SKIPPED_COUNTER) == 0 {
                    assert_eq!(filter_counters(&outcome, job), filter_counters(&base, job));
                }
            }

            // A crash *after* job N leaves N+1 committed jobs to skip; a
            // crash *mid* job N leaves N (job N's parts exist but carry no
            // manifest, so they are swept and the job re-runs).
            assert_eq!(
                outcome.recovery.jobs_skipped.len(),
                committed,
                "point {point} mid={mid}: {:?}",
                outcome.recovery
            );
            assert_eq!(
                outcome.recovery.jobs_rerun.len(),
                total_jobs - committed,
                "point {point} mid={mid}: {:?}",
                outcome.recovery
            );
            // The skips are visible in per-job metrics and the trace.
            assert_eq!(skipped_in_metrics(&outcome), committed);
            let skip_events = sink
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::ResumeSkip)
                .count();
            assert_eq!(skip_events, committed, "point {point} mid={mid}");
        }
    }
}

/// Crash/resume composed with the aggressive task-level chaos plan: the
/// resumed driver still faces transients, panics, OOMs, and stragglers, and
/// the final output stays bitwise identical.
#[test]
fn crash_resume_under_aggressive_chaos_stays_bitwise_identical() {
    quiet_injected_panics();
    let config = JoinConfig::recommended();
    let base_cluster = cluster_with(None);
    write_self_input(&base_cluster);
    let base = self_join(&base_cluster, "/records", "/work", &config).unwrap();
    let base_out = collect(&base_cluster, &base);

    let plan = FaultPlan {
        crash_after: Some(2),
        ..FaultPlan::aggressive(chaos_seed())
    };
    let crashed = cluster_with(Some(plan));
    write_self_input(&crashed);
    let err = self_join(&crashed, "/records", "/work", &config).unwrap_err();
    assert!(err.is_driver_crash(), "{err:?}");

    let fresh = resume_cluster(&crashed);
    let outcome = self_join(&fresh, "/records", "/work", &config).unwrap();
    assert_eq!(collect(&fresh, &outcome), base_out);
    assert_eq!(outcome.recovery.jobs_skipped.len(), 3);
    assert_eq!(outcome.recovery.jobs_rerun.len(), 2);
}

/// Resuming over an untouched completed work directory is a no-op: every
/// job's manifest validates, nothing re-runs, the output is unchanged.
#[test]
fn resume_over_a_completed_run_skips_every_job() {
    let config = JoinConfig::recommended();
    let cluster = cluster_with(None);
    write_self_input(&cluster);
    let base = self_join(&cluster, "/records", "/work", &config).unwrap();
    let base_out = collect(&cluster, &base);

    let fresh = resume_cluster(&cluster);
    let resumed = self_join(&fresh, "/records", "/work", &config).unwrap();
    assert_eq!(resumed.recovery.jobs_skipped.len(), 5);
    assert!(resumed.recovery.jobs_rerun.is_empty());
    assert_eq!(resumed.recovery.checksum_failures, 0);
    assert_eq!(skipped_in_metrics(&resumed), 5);
    assert_eq!(collect(&fresh, &resumed), base_out);
}

/// A join owns its work directory. Over the store of a join on 4 nodes —
/// finished, or dead in its first job with every count part written and no
/// manifest — a join on 2 nodes equals the oracle: it reuses what
/// validates, and the 4-node run's extra parts are never read back.
#[test]
fn a_join_on_fewer_nodes_over_a_larger_joins_dfs_equals_the_oracle() {
    let config = JoinConfig::recommended();
    let lines = datagen::to_lines(&datagen::dblp(80, 11));
    let corpus: Vec<(u64, String)> = lines
        .iter()
        .map(|l| config.format.parse(l).unwrap())
        .collect();
    let expected =
        oracle::expected_self_join(&*config.tokenizer.build(), &corpus, &config.threshold);
    assert!(!expected.is_empty(), "vacuous corpus");
    let on = |nodes, faults| ClusterConfig {
        faults,
        backend: mapreduce::BackendKind::from_env(),
        ..ClusterConfig::with_nodes(nodes)
    };
    for crash_mid in [None, Some(0)] {
        let faults = crash_mid.map(|job| FaultPlan {
            crash_mid: Some(job),
            ..FaultPlan::quiet(0)
        });
        let four = Cluster::new(on(4, faults), 2048).unwrap();
        four.dfs().write_text("/records", &lines).unwrap();
        match self_join(&four, "/records", "/work", &config) {
            Ok(outcome) => {
                assert!(crash_mid.is_none());
                assert_eq!(outcome.recovery, Recovery::default(), "a fresh join");
            }
            Err(e) => assert!(crash_mid.is_some() && e.is_driver_crash(), "{e}"),
        }

        let two = Cluster::with_dfs(on(2, None), four.dfs().clone()).unwrap();
        let outcome = self_join(&two, "/records", "/work", &config).unwrap();
        let rows: Vec<oracle::ResultRow> = collect(&two, &outcome).joined;
        let diff = oracle::diff(&expected, &rows);
        assert!(diff.is_empty(), "crash_mid {crash_mid:?}: {diff}");
        let reused = if crash_mid.is_some() { 0 } else { 5 };
        assert_eq!(outcome.recovery.jobs_skipped.len(), reused);
    }
}

/// A config change invalidates exactly the stages whose fingerprint covers
/// it: a new threshold re-runs the kernel and the record join, but the token
/// order (threshold-independent) is reused.
#[test]
fn resume_with_a_different_threshold_reruns_the_kernel_only() {
    let cluster = cluster_with(None);
    write_self_input(&cluster);
    let loose = JoinConfig::recommended();
    self_join(&cluster, "/records", "/work", &loose).unwrap();

    // What a clean tight run produces, for comparison.
    let probe = cluster_with(None);
    write_self_input(&probe);
    let tight = loose.clone().with_threshold(Threshold::jaccard(0.9));
    let clean = self_join(&probe, "/records", "/work", &tight).unwrap();
    let clean_out = collect(&probe, &clean);

    let fresh = resume_cluster(&cluster);
    let resumed = self_join(&fresh, "/records", "/work", &tight).unwrap();
    assert_eq!(collect(&fresh, &resumed), clean_out);
    assert_eq!(
        resumed.recovery.jobs_skipped,
        vec!["stage1-bto-count", "stage1-bto-sort"],
        "token order is threshold-independent and must be reused"
    );
    assert_eq!(resumed.recovery.jobs_rerun.len(), 3);
}

/// Flip one bit in the committed token file: the corruption is detected on
/// read (classified, never silent), only its producing job re-runs, and —
/// because the re-produced bytes are identical, hence the stored CRC is too
/// — every downstream manifest stays valid.
#[test]
fn corrupting_the_token_file_reruns_only_its_producer() {
    let config = JoinConfig::recommended();
    let cluster = cluster_with(None);
    write_self_input(&cluster);
    let outcome = self_join(&cluster, "/records", "/work", &config).unwrap();
    let base_out = collect(&cluster, &outcome);
    let victim = cluster.dfs().data_files(&outcome.tokens_path)[0].clone();
    cluster.dfs().corrupt(&victim).unwrap();

    let err = cluster.dfs().read_text(&victim).unwrap_err();
    assert!(
        matches!(err, MrError::ChecksumMismatch { .. }),
        "corrupt read must be classified, got {err:?}"
    );

    let fresh = resume_cluster(&cluster);
    let resumed = self_join(&fresh, "/records", "/work", &config).unwrap();
    assert_eq!(collect(&fresh, &resumed), base_out);
    assert!(resumed.recovery.checksum_failures >= 1);
    assert_eq!(
        resumed.recovery.jobs_rerun.len(),
        1,
        "{:?}",
        resumed.recovery
    );
    assert!(
        resumed.recovery.jobs_rerun[0].starts_with("stage1-bto-sort"),
        "{:?}",
        resumed.recovery.jobs_rerun
    );
    assert_eq!(resumed.recovery.jobs_skipped.len(), 4);
}

/// End-to-end corruption injection via the fault plan: the bit flips right
/// after stage 2 commits, the very next stage-3 read detects it and fails
/// the run with a classified error — corrupted bytes are never joined into
/// output — and a resume re-runs stage 2 onward to the correct result.
#[test]
fn injected_corruption_is_detected_then_recovered_never_silent() {
    let config = JoinConfig::recommended();
    // Learn a stage-2 part path from a clean probe run.
    let probe = cluster_with(None);
    write_self_input(&probe);
    let base = self_join(&probe, "/records", "/work", &config).unwrap();
    let base_out = collect(&probe, &base);
    // Some reducer parts can be empty; corrupt one that holds pairs.
    let victim = probe
        .dfs()
        .data_files(&base.ridpairs_path)
        .into_iter()
        .find(|p| !probe.dfs().read_text(p).unwrap().is_empty())
        .expect("some ridpairs part holds data");

    let plan = FaultPlan {
        corrupt_path: Some(victim.clone()),
        ..FaultPlan::quiet(0)
    };
    let cluster = cluster_with(Some(plan));
    write_self_input(&cluster);
    let err = self_join(&cluster, "/records", "/work", &config).unwrap_err();
    assert!(
        matches!(err, MrError::ChecksumMismatch { .. }),
        "corruption must fail the run, not poison it: {err:?}"
    );
    // Nothing downstream of the corruption was committed.
    assert!(cluster.dfs().data_files("/work/joined").is_empty());

    let fresh = resume_cluster(&cluster);
    let resumed = self_join(&fresh, "/records", "/work", &config).unwrap();
    assert_eq!(
        collect(&fresh, &resumed),
        base_out,
        "post-corruption resume must converge to the clean result"
    );
    assert!(resumed.recovery.checksum_failures >= 1);
    assert_eq!(
        resumed.recovery.jobs_skipped.len(),
        2,
        "{:?}",
        resumed.recovery
    );
    assert!(
        resumed
            .recovery
            .jobs_rerun
            .iter()
            .any(|j| j.starts_with("stage2-pk")),
        "{:?}",
        resumed.recovery.jobs_rerun
    );
}

/// The R-S cell: crash mid-kernel in an R-S join and resume to a bitwise
/// identical result.
#[test]
fn rs_join_crash_resume_is_bitwise_identical() {
    let config = JoinConfig::recommended();
    let base_cluster = cluster_with(None);
    write_rs_inputs(&base_cluster);
    let base = rs_join(&base_cluster, "/r", "/s", "/work", &config).unwrap();
    let base_out = collect(&base_cluster, &base);
    assert!(!base_out.joined.is_empty(), "vacuous R-S corpus");
    let total = base.all_jobs().count();

    let plan = FaultPlan {
        crash_mid: Some(2),
        ..FaultPlan::quiet(0)
    };
    let crashed = cluster_with(Some(plan));
    write_rs_inputs(&crashed);
    let err = rs_join(&crashed, "/r", "/s", "/work", &config).unwrap_err();
    assert!(err.is_driver_crash(), "{err:?}");

    let fresh = resume_cluster(&crashed);
    let outcome = rs_join(&fresh, "/r", "/s", "/work", &config).unwrap();
    assert_eq!(collect(&fresh, &outcome), base_out);
    assert_eq!(outcome.recovery.jobs_skipped.len(), 2);
    assert_eq!(outcome.recovery.jobs_rerun.len(), total - 2);
}

/// A disk that fills up mid-pipeline with a *healing* budget: every write
/// past the budget fails ENOSPC (classified transient), the failure site
/// runs an immediate scavenger pass, the freed budget lets the retried
/// attempt through. Engine-retried writes heal in place; if the fill lands
/// on an unretried driver-side write, the surfaced error is transient and
/// a resume over the surviving DFS finishes the job — either way the
/// pipeline completes bitwise identical to fault-free without operator
/// intervention.
#[test]
fn enospc_with_healing_scavenger_resumes_to_completion() {
    let config = JoinConfig::recommended();
    let base_cluster = cluster_with(None);
    write_self_input(&base_cluster);
    let base = self_join(&base_cluster, "/records", "/work", &config).unwrap();
    let baseline = collect(&base_cluster, &base);

    let dfs = mapreduce::Dfs::new(3, 2048).unwrap();
    let lines = datagen::to_lines(&datagen::dblp(80, 11));
    dfs.write_text("/records", &lines).unwrap();

    let mut injections = 0u64;
    let mut finished = None;
    for _launch in 0..24 {
        let plan = FaultPlan {
            // The engine scavenges (and so heals the budget) at every job
            // start, so what matters is per-job write volume: above the
            // largest single file this corpus produces (~3 KB, so a healed
            // retry always fits) but below the ~4.4 KB the busiest job
            // writes, so the budget provably trips mid-job.
            enospc_after_bytes: Some(3_500),
            enospc_heals: true,
            ..FaultPlan::quiet(chaos_seed())
        };
        let cluster_config = ClusterConfig {
            max_task_attempts: 8,
            faults: Some(plan),
            backend: mapreduce::BackendKind::from_env(),
            ..ClusterConfig::with_nodes(3)
        };
        let cluster = Cluster::with_dfs(cluster_config, dfs.clone()).unwrap();
        let result = self_join(&cluster, "/records", "/work", &config);
        injections += cluster.dfs().storage_fault_injections();
        match result {
            Ok(outcome) => {
                finished = Some((collect(&cluster, &outcome), outcome));
                break;
            }
            Err(e) => assert!(e.is_transient(), "ENOSPC must stay transient, got {e:?}"),
        }
    }
    let (out, _) = finished.expect("join never completed under the healing ENOSPC budget");
    assert_eq!(out, baseline, "ENOSPC storm changed the join result");
    // Storage injection is a driver-side instrument: process workers open
    // fresh fault-free handles, so the bulk part writes bypass the budget
    // there and only the (small) driver-side commits are charged.
    if !matches!(
        mapreduce::BackendKind::from_env(),
        mapreduce::BackendKind::Process
    ) {
        assert!(injections > 0, "the byte budget never fired");
    }
}

/// Hidden worker entry for `MR_BACKEND=process`: the driver re-spawns this
/// test binary as worker processes that land here. In a normal test run
/// the worker env var is unset and this is an instant no-op pass.
#[test]
fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}
