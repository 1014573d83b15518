//! Engine-level recovery tests: the output-commit manifest, the job-start
//! attempt scavenger, and the injected driver-crash / corruption fault
//! points that the pipeline-level chaos suite builds on.

use mapreduce::faults::FaultPlan;
use mapreduce::{
    text_input, BackendKind, ClosureMapper, ClosureReducer, Cluster, ClusterConfig, Emit, Job,
    JobManifest, ManifestCheck, MrError, TaskContext,
};

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

fn cluster(faults: Option<FaultPlan>) -> Cluster {
    // `MR_BACKEND=sharded` (CI backend-parity job) re-runs this suite on
    // the sharded executor; manifests and scavenging must behave the same.
    let config = ClusterConfig {
        faults,
        backend: BackendKind::from_env(),
        ..ClusterConfig::with_nodes(2)
    };
    let c = Cluster::new(config, 1 << 16).unwrap();
    c.dfs().write_text("/in", ["a b a", "b c"]).unwrap();
    c
}

fn wc_job(
    dfs: &mapreduce::Dfs,
) -> Job<
    WcMapper,
    impl mapreduce::Reducer<Key = String, InValue = u64, OutKey = String, OutValue = u64>,
> {
    Job::new("wc", wc_mapper(), wc_reducer())
        .inputs(text_input(dfs, "/in").unwrap())
        .reducers(1)
        .output_seq("/out")
        .fingerprint(0xabcd)
}

fn expected_counts() -> Vec<(String, u64)> {
    vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]
}

#[test]
fn committed_job_writes_a_checksummed_manifest() {
    let c = cluster(None);
    c.run(wc_job(c.dfs())).unwrap();
    let m = JobManifest::read(c.dfs(), "/out")
        .unwrap()
        .expect("committed job must leave a _SUCCESS manifest");
    assert_eq!(m.job, "wc");
    assert_eq!(m.fingerprint, 0xabcd);
    assert_eq!(m.parts.len(), 1);
    assert_eq!(m.parts[0].name, "part-00000");
    assert_eq!(
        m.parts[0].crc,
        c.dfs().file_crc("/out/part-00000").unwrap(),
        "manifest CRC must match the committed file's stored CRC"
    );
    assert_eq!(m.validate(c.dfs(), "/out", 0xabcd), ManifestCheck::Valid);
}

#[test]
fn stale_attempt_file_is_scavenged_never_promoted() {
    let c = cluster(None);
    // A crashed prior run left an uncommitted attempt file full of garbage.
    // If it survived until the reduce phase it could be renamed over (or
    // mistaken for) this run's fresh output.
    c.dfs()
        .write_text("/out/_attempt-00000-3", ["GARBAGE FROM A DEAD RUN"])
        .unwrap();
    let m = c.run(wc_job(c.dfs())).unwrap();
    assert_eq!(
        m.scavenged_attempt_files, 1,
        "the orphan must be counted in JobMetrics"
    );
    assert_eq!(m.counter("mr.recovery.scavenged"), 1);
    assert!(
        !c.dfs().exists("/out/_attempt-00000-3"),
        "the orphan must be deleted before any task runs"
    );
    let mut counts: Vec<(String, u64)> = c.dfs().read_seq("/out").unwrap();
    counts.sort();
    assert_eq!(counts, expected_counts(), "output must be fresh, not stale");
}

#[test]
fn rerun_replaces_a_stale_success_manifest() {
    let c = cluster(None);
    c.run(wc_job(c.dfs())).unwrap();
    // Re-running the job (e.g. after the driver decided the output was
    // invalid) must replace the manifest, not trip over the stale one.
    let m = c.run(wc_job(c.dfs()).fingerprint(0x9999)).unwrap();
    assert_eq!(m.scavenged_attempt_files, 0);
    let back = JobManifest::read(c.dfs(), "/out").unwrap().unwrap();
    assert_eq!(back.fingerprint, 0x9999, "manifest must be the fresh one");
}

/// A job owns its output directory, as a Hadoop job does: an earlier job's
/// parts — here four, of other words — are gone before this job's two are
/// written, so neither a read of the directory nor the manifest this job
/// commits can see them.
#[test]
fn a_job_with_fewer_reducers_replaces_every_earlier_part() {
    let c = cluster(None);
    let words: Vec<String> = (0..64).map(|i| format!("old{i}")).collect();
    c.dfs().write_text("/old", &words).unwrap();
    let old = Job::new("wc-old", wc_mapper(), wc_reducer())
        .inputs(text_input(c.dfs(), "/old").unwrap())
        .reducers(4)
        .output_seq("/out");
    c.run(old).unwrap();
    let before = JobManifest::read(c.dfs(), "/out").unwrap().unwrap();
    assert_eq!(before.parts.len(), 4);

    let m = c.run(wc_job(c.dfs()).reducers(2)).unwrap();
    let mut counts: Vec<(String, u64)> = c.dfs().read_seq("/out").unwrap();
    counts.sort();
    assert_eq!(counts, expected_counts(), "only this job's records");
    let after = JobManifest::read(c.dfs(), "/out").unwrap().unwrap();
    let parts: Vec<&str> = after.parts.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(parts, ["part-00000", "part-00001"]);
    assert_eq!(
        after.validate(c.dfs(), "/out", 0xabcd),
        ManifestCheck::Valid
    );
    assert_eq!(m.scavenged_attempt_files, 0, "parts are not attempt files");
}

#[test]
fn mid_job_crash_leaves_parts_but_no_manifest() {
    let c = cluster(Some(FaultPlan {
        crash_mid: Some(0),
        ..FaultPlan::default()
    }));
    let err = c.run(wc_job(c.dfs())).unwrap_err();
    assert!(err.is_driver_crash(), "got {err}");
    assert!(
        c.dfs().exists("/out/part-00000"),
        "task-committed parts survive a driver crash"
    );
    assert!(
        JobManifest::read(c.dfs(), "/out").unwrap().is_none(),
        "the job never committed, so there must be no _SUCCESS"
    );
}

/// Durability is paid once per job: reduce attempts write and rename their
/// parts without a sync, and the job's commit syncs every part, then the
/// directory, then publishes the manifest (temp file, directory) — N + 3
/// fsyncs where per-part durability cost 3 N + 2. A crash before the wave
/// has synced nothing and left no manifest, which is what a re-run replaces.
#[test]
fn a_job_syncs_its_parts_in_one_wave_at_its_commit() {
    const PARTS: usize = 5;
    let run = |faults: Option<FaultPlan>| {
        let config = ClusterConfig {
            faults,
            backend: BackendKind::from_env(),
            ..ClusterConfig::with_nodes(2)
        };
        let dfs = mapreduce::Dfs::new(2, 1 << 16).unwrap();
        let c = Cluster::with_dfs(config, dfs).unwrap();
        c.dfs().write_text("/in", ["a b a", "b c"]).unwrap();
        let before = c.dfs().syncs();
        let result = c.run(wc_job(c.dfs()).reducers(PARTS));
        let syncs = c.dfs().syncs() - before;
        (c, result, syncs)
    };
    let (durable, result, syncs) = run(None);
    result.unwrap();
    assert_eq!(syncs, PARTS as u64 + 3);
    let manifest = JobManifest::read(durable.dfs(), "/out").unwrap().unwrap();
    assert_eq!(manifest.parts.len(), PARTS);
    assert_eq!(
        manifest.validate(durable.dfs(), "/out", 0xabcd),
        ManifestCheck::Valid
    );

    let crash = FaultPlan {
        crash_mid: Some(0),
        ..FaultPlan::default()
    };
    let (crashed, result, syncs) = run(Some(crash));
    assert!(result.unwrap_err().is_driver_crash());
    assert_eq!(syncs, 0, "no attempt syncs; the wave never ran");
    assert_eq!(crashed.dfs().data_files("/out").len(), PARTS);
    assert!(JobManifest::read(crashed.dfs(), "/out").unwrap().is_none());
    // A fresh driver over the surviving store re-runs the job over them.
    let config = ClusterConfig {
        backend: BackendKind::from_env(),
        ..ClusterConfig::with_nodes(2)
    };
    let resumed = Cluster::with_dfs(config, crashed.dfs().clone()).unwrap();
    resumed.run(wc_job(resumed.dfs()).reducers(PARTS)).unwrap();
    assert_eq!(
        JobManifest::read(resumed.dfs(), "/out").unwrap(),
        Some(manifest)
    );
}

#[test]
fn crash_after_commit_leaves_a_valid_manifest() {
    let c = cluster(Some(FaultPlan {
        crash_after: Some(0),
        ..FaultPlan::default()
    }));
    let err = c.run(wc_job(c.dfs())).unwrap_err();
    assert!(err.is_driver_crash(), "got {err}");
    let m = JobManifest::read(c.dfs(), "/out").unwrap().unwrap();
    assert_eq!(
        m.validate(c.dfs(), "/out", 0xabcd),
        ManifestCheck::Valid,
        "the job committed before the crash; its output is reusable"
    );
}

#[test]
fn crash_points_index_jobs_in_driver_order() {
    // crash_after = 1 lets job 0 commit and kills the driver after job 1.
    let c = cluster(Some(FaultPlan {
        crash_after: Some(1),
        ..FaultPlan::default()
    }));
    c.run(wc_job(c.dfs())).unwrap();
    let job2 = Job::new("wc2", wc_mapper(), wc_reducer())
        .inputs(text_input(c.dfs(), "/in").unwrap())
        .reducers(1)
        .output_seq("/out2");
    let err = c.run(job2).unwrap_err();
    assert!(err.is_driver_crash(), "got {err}");
    assert!(JobManifest::read(c.dfs(), "/out").unwrap().is_some());
    assert!(JobManifest::read(c.dfs(), "/out2").unwrap().is_some());
}

#[test]
fn injected_corruption_is_detected_never_silent() {
    let c = cluster(Some(FaultPlan {
        corrupt_path: Some("/out/part-00000".to_string()),
        ..FaultPlan::default()
    }));
    // The job itself succeeds: corruption strikes *after* commit.
    c.run(wc_job(c.dfs())).unwrap();
    let err = c
        .dfs()
        .read_seq::<String, u64>("/out")
        .expect_err("reading a corrupted file must fail, not return wrong data");
    assert!(matches!(err, MrError::ChecksumMismatch { .. }), "got {err}");
    // The manifest check classifies it as corruption, which resume logic
    // uses to re-run the producing stage.
    let m = JobManifest::read(c.dfs(), "/out").unwrap().unwrap();
    let check = m.validate(c.dfs(), "/out", 0xabcd);
    assert!(check.is_corruption(), "got {check:?}");
}

/// `corrupt=PATH` fires at the commit of the directory holding PATH, not of
/// one whose name PATH's directory merely extends.
#[test]
fn corruption_point_spares_a_sibling_directory() {
    let victim = "/out-old/part-00000";
    let c = cluster(Some(FaultPlan {
        corrupt_path: Some(victim.to_string()),
        ..FaultPlan::default()
    }));
    c.dfs()
        .write_seq(victim, &[("kept".to_string(), 1u64)])
        .unwrap();
    c.run(wc_job(c.dfs())).unwrap();
    c.dfs()
        .verify(victim)
        .expect("/out committed, not /out-old");
    assert!(c.dfs().list("/out").iter().all(|p| p.starts_with("/out/")));
    assert_eq!(c.dfs().list("/out-old"), [victim]);
}

/// The golden files of the on-disk format: `tests/fixtures/pr12/` holds
/// one committed job output — an `MRDFSv2` container of 20 lines cut into
/// 16-byte blocks on 2 nodes, and its `_SUCCESS` manifest. Today's writer
/// must produce the part byte for byte, and today's reader must load,
/// split, verify and validate both unchanged: a change to either side of
/// the format fails here before it strands a store written by the last
/// release.
#[test]
fn committed_output_golden_files_pin_the_on_disk_format() {
    let dfs = mapreduce::Dfs::new(2, 16).unwrap();
    let dir = dfs.root().join("fs/out");
    std::fs::create_dir_all(&dir).unwrap();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr12");
    for name in ["part-00000", "_SUCCESS"] {
        std::fs::copy(fixtures.join(name), dir.join(name)).unwrap();
    }
    let golden = std::fs::read(fixtures.join("part-00000")).unwrap();
    assert_eq!(&golden[..8], b"MRDFSv2\0");
    let written = mapreduce::Dfs::new(2, 16).unwrap();
    let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
    written.write_text("/part-00000", &lines).unwrap();
    let rewritten = written.root().join("fs/part-00000");
    assert_eq!(std::fs::read(rewritten).unwrap(), golden);
    assert_eq!(dfs.read_text("/out").unwrap(), lines);
    assert_eq!(dfs.splits("/out").unwrap().len(), 8);
    dfs.verify("/out/part-00000").unwrap();
    let stat = dfs.stat("/out/part-00000").unwrap();
    assert_eq!((stat.len, stat.crc), (150, 0x041b_3a5c));
    let manifest = JobManifest::read(&dfs, "/out").unwrap().unwrap();
    assert_eq!(manifest.job, "pr12-fixture");
    assert_eq!(
        manifest.validate(&dfs, "/out", 0x0123_4567_89ab_cdef),
        ManifestCheck::Valid
    );
    assert_eq!(
        JobManifest::collect(&dfs, "pr12-fixture", 0x0123_4567_89ab_cdef, "/out").unwrap(),
        manifest
    );
}
