//! Real out-of-process execution: these tests register a job spec and
//! run the probe job through `BackendKind::Process` with *actual worker
//! processes* — the driver re-executes this test binary with
//! `MR_PROCESS_WORKER=1`, libtest lands in [`process_worker_entry`], and
//! the child hands itself over to the frame loop.
//!
//! Covered here (closure-built jobs on this backend are also what
//! `tests/backend.rs` runs):
//!
//! * committed output is byte-identical to the in-process backends, the
//!   worker-side counters prove the remote path really ran, and a map
//!   attempt parks one run file, not one per partition;
//! * one pool of workers serves every job of a cluster, and the quarantine
//!   ledger starts clean at each of them;
//! * driver and workers lay a directory of multi-block files out alike from
//!   the headers, and a worker reads the blocks it maps and no others;
//! * a job not built from a spec runs on the driver, over the same run
//!   files, and spawns nothing;
//! * a factory name the workers do not know fails the job as
//!   `InvalidConfig`;
//! * a worker that dies mid-task (`abort()`, i.e. SIGKILL-grade: no
//!   unwind, no goodbye frame) is classified as a lost node and the task
//!   is retried on a fresh worker without taking down the driver;
//! * a worker that responds with an undecodable frame is killed and
//!   replaced the same way;
//! * chaos parity: under an aggressive fault plan the remote path still
//!   commits exactly the clean bytes;
//! * every attempt clones its mapper or reducer once, retries included, on
//!   the driver and in workers, and a panicking attempt in a worker comes
//!   back as one classified error and one retry;
//! * the driver traces and counts every worker attempt as the simulated
//!   backend does its own, and a lost or timed-out attempt is reported on
//!   the node its `task_start` names.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::{Mutex, MutexGuard, Once};

use mapreduce::{
    text_input, BackendKind, Cluster, ClusterConfig, Dfs, Emit, EventKind, FaultPlan, Job,
    JobMetrics, JobSpec, Mapper, MrError, Outcome, Phase, Reducer, Result, TaskContext, TraceEvent,
    TraceSink, CORRUPT_FRAME_ENV, WORKER_ENV,
};

const PROBE_FACTORY: &str = "process-probe";
const FLAKY_FACTORY: &str = "process-flaky";
/// A factory name no executable registers: a job sent under it must be
/// rejected by the worker that is asked to open it.
const UNKNOWN_FACTORY: &str = "process-probe-unregistered";

/// Hidden worker entry. When the driver spawns this binary with
/// `MR_PROCESS_WORKER=1` set, this "test" registers the factories and
/// never returns (the worker exits from inside `process_worker_main`).
/// In a normal test run the variable is unset and this is a no-op pass.
#[test]
fn process_worker_entry() {
    register_factories();
    mapreduce::process_worker_main();
}

/// Spawned workers inherit this process's environment and the chaos knob
/// is process-global, so every test that spawns workers serializes here.
/// A poisoned lock is fine to reuse — the env guard below restores state
/// on unwind.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock_env() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sets an env var for the guard's lifetime; removal on drop runs even
/// when the test unwinds, so later tests never inherit the chaos knob.
struct EnvGuard(&'static str);

impl EnvGuard {
    fn set(name: &'static str) -> Self {
        std::env::set_var(name, "1");
        EnvGuard(name)
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        std::env::remove_var(self.0);
    }
}

fn register_factories() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        mapreduce::register_job_spec::<ProbeSpec>(PROBE_FACTORY);
        mapreduce::register_job_spec::<FlakySpec>(FLAKY_FACTORY);
    });
}

/// Many small lines so the tiny block size yields several map tasks and
/// the tiny spill buffer yields several runs per task.
fn corpus() -> Vec<String> {
    (0..400).map(|i| format!("k{} v{i}", i % 13)).collect()
}

/// The same order-sensitive probe as `tests/backend.rs`: the reducer
/// concatenates values in arrival order, so any divergence in how the
/// remote path presents runs to the merge shows up in the output bytes.
///
/// Driver and worker both build the job through this spec's `build` (the
/// worker from the bytes the driver encoded), so they cannot drift apart.
struct ProbeSpec {
    input: String,
    output: String,
    kill_attempts: u64,
    /// Map task 0's first attempt in a worker that is not killed sleeps
    /// forever.
    hang: bool,
    /// Send the job under [`UNKNOWN_FACTORY`].
    unknown_factory: bool,
    /// The job runs on the process backend, whose map attempts park their
    /// output in run files.
    parks: bool,
}
mapreduce::codec_struct!(ProbeSpec {
    input,
    output,
    kill_attempts,
    hang,
    unknown_factory,
    parks,
});

impl ProbeSpec {
    fn new(kill_attempts: u64, on: &Cluster) -> Self {
        ProbeSpec {
            input: "/in".into(),
            output: "/out".into(),
            kill_attempts,
            hang: false,
            unknown_factory: false,
            parks: on.config().backend == BackendKind::Process,
        }
    }
}

impl JobSpec for ProbeSpec {
    type Mapper = ProbeMapper;
    type Reducer = ProbeReducer;

    fn factory(&self) -> &'static str {
        if self.unknown_factory {
            UNKNOWN_FACTORY
        } else {
            PROBE_FACTORY
        }
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<ProbeMapper, ProbeReducer>> {
        let mapper = ProbeMapper {
            kill_attempts: self.kill_attempts,
            hang: self.hang,
            at_first_record: true,
        };
        let reducer = ProbeReducer { parks: self.parks };
        Ok(Job::new("process-probe", mapper, reducer)
            .inputs(text_input(dfs, &self.input)?)
            .output_seq(&self.output))
    }
}

#[derive(Clone)]
struct ProbeMapper {
    kill_attempts: u64,
    hang: bool,
    /// Cloned per attempt, so true at each attempt's first record.
    at_first_record: bool,
}

impl Mapper for ProbeMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = String;

    fn map(
        &mut self,
        off: &u64,
        line: &String,
        out: &mut dyn Emit<String, String>,
        ctx: &TaskContext,
    ) -> Result<()> {
        if std::mem::take(&mut self.at_first_record) {
            // Which block this task id got, wherever the task ran.
            let split = format!("probe.split.{}.{}@{off}", ctx.task_id, ctx.input_path);
            ctx.counter(&split).incr();
        }
        // SIGKILL-grade death: no unwind, no error frame, the pipe
        // just closes. Guarded on the worker env var so an attempt the
        // driver runs itself never aborts the driver, and on task 0's
        // first `kill_attempts` attempts so a retry (or the driver's own
        // attempt, once every slot is quarantined) eventually succeeds.
        if ctx.task_id == 0 && std::env::var_os(WORKER_ENV).is_some() {
            if (ctx.attempt as u64) < self.kill_attempts {
                std::process::abort();
            }
            // A genuine hang in user code: the worker's heartbeat thread
            // keeps beating, so only the task deadline can end the attempt.
            if self.hang && ctx.attempt as u64 == self.kill_attempts {
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(60));
                }
            }
        }
        let (k, v) = line.split_once(' ').unwrap();
        out.emit(k.to_string(), v.to_string())
    }
}

#[derive(Clone)]
struct ProbeReducer {
    parks: bool,
}

impl Reducer for ProbeReducer {
    type Key = String;
    type InValue = String;
    type OutKey = String;
    type OutValue = String;

    /// Count what the map phase parked for this job: by now every winning
    /// map attempt's runs are on disk and nothing has been cleaned up.
    fn setup(&mut self, ctx: &TaskContext) -> Result<()> {
        if !self.parks {
            return Ok(()); // the in-process reference run parks nothing
        }
        let shuffle = ctx.dfs().root().join("shuffle");
        let spill_dirs: Vec<_> = std::fs::read_dir(shuffle)
            .unwrap()
            .map(|dir| dir.unwrap().path())
            .collect();
        assert_eq!(spill_dirs.len(), 1, "one spill directory per running job");
        let run_files = std::fs::read_dir(&spill_dirs[0]).unwrap().count();
        ctx.counter("probe.reduce_setups").incr();
        ctx.counter("probe.run_files_seen").add(run_files as u64);
        Ok(())
    }

    fn reduce(
        &mut self,
        k: &String,
        vs: &mut dyn Iterator<Item = (String, String)>,
        out: &mut dyn Emit<String, String>,
        _: &TaskContext,
    ) -> Result<()> {
        let joined: Vec<String> = vs.map(|(_, v)| v).collect();
        out.emit(k.clone(), joined.join(","))
    }
}

/// A job that keeps a ledger of its own clones — every clone of its mapper
/// or reducer appends one byte to `{ledger}.map` or `{ledger}.reduce`, in
/// whichever process makes it — and whose task 0 fails its first attempt:
/// with a transient error in both phases or, with `panic` set, with a
/// panic in the mapper alone.
struct FlakySpec {
    ledger: String,
    panic: bool,
}
mapreduce::codec_struct!(FlakySpec { ledger, panic });

impl FlakySpec {
    /// A spec whose ledger files are fresh, under the temp directory.
    fn new(tag: &str, panic: bool) -> Self {
        let ledger = std::env::temp_dir().join(format!("mr-flaky-{tag}-{}", std::process::id()));
        let spec = FlakySpec {
            ledger: ledger.display().to_string(),
            panic,
        };
        spec.remove_ledger();
        spec
    }

    /// Clones of the mapper (`"map"`) or the reducer (`"reduce"`) so far.
    fn clones(&self, phase: &str) -> u64 {
        let path = format!("{}.{phase}", self.ledger);
        std::fs::metadata(path).map_or(0, |m| m.len())
    }

    fn remove_ledger(&self) {
        for phase in ["map", "reduce"] {
            let _ = std::fs::remove_file(format!("{}.{phase}", self.ledger));
        }
    }
}

impl JobSpec for FlakySpec {
    type Mapper = FlakyMapper;
    type Reducer = FlakyReducer;

    fn factory(&self) -> &'static str {
        FLAKY_FACTORY
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<FlakyMapper, FlakyReducer>> {
        let ledger = |phase| Ledger(format!("{}.{phase}", self.ledger));
        let mapper = FlakyMapper {
            _ledger: ledger("map"),
            panic: self.panic,
        };
        let reducer = FlakyReducer {
            _ledger: ledger("reduce"),
            fail: !self.panic,
        };
        Ok(Job::new("process-flaky", mapper, reducer)
            .inputs(text_input(dfs, "/in")?)
            .output_seq("/flaky"))
    }
}

/// A file that grows by one byte per clone of its holder.
struct Ledger(String);

impl Clone for Ledger {
    fn clone(&self) -> Self {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.0)
            .unwrap();
        file.write_all(b".").unwrap();
        Ledger(self.0.clone())
    }
}

/// Task 0's first attempt, the one [`FlakySpec`] fails.
fn first_attempt_of_task_0(ctx: &TaskContext) -> bool {
    (ctx.task_id, ctx.attempt) == (0, 0)
}

#[derive(Clone)]
struct FlakyMapper {
    /// Held for its `Clone`, which writes the ledger.
    _ledger: Ledger,
    panic: bool,
}

impl Mapper for FlakyMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = String;

    fn setup(&mut self, ctx: &TaskContext) -> Result<()> {
        match (first_attempt_of_task_0(ctx), self.panic) {
            (true, true) => panic!("deliberate test panic in the flaky mapper"),
            (true, false) => Err(MrError::TaskFailed("flaky map attempt".into())),
            (false, _) => Ok(()),
        }
    }

    fn map(
        &mut self,
        _: &u64,
        line: &String,
        out: &mut dyn Emit<String, String>,
        _: &TaskContext,
    ) -> Result<()> {
        let (k, v) = line.split_once(' ').unwrap();
        out.emit(k.to_string(), v.to_string())
    }
}

#[derive(Clone)]
struct FlakyReducer {
    /// Held for its `Clone`, which writes the ledger.
    _ledger: Ledger,
    fail: bool,
}

impl Reducer for FlakyReducer {
    type Key = String;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;

    fn setup(&mut self, ctx: &TaskContext) -> Result<()> {
        if self.fail && first_attempt_of_task_0(ctx) {
            return Err(MrError::TaskFailed("flaky reduce attempt".into()));
        }
        Ok(())
    }

    fn reduce(
        &mut self,
        k: &String,
        vs: &mut dyn Iterator<Item = (String, String)>,
        out: &mut dyn Emit<String, u64>,
        _: &TaskContext,
    ) -> Result<()> {
        out.emit(k.clone(), vs.count() as u64)
    }
}

struct ProbeRun {
    output: Vec<(String, String)>,
    metrics: JobMetrics,
}

fn run_probe(
    backend: BackendKind,
    remote: bool,
    kill: bool,
    faults: Option<FaultPlan>,
    attempts: usize,
) -> ProbeRun {
    let kill_attempts = u64::from(kill);
    run_probe_with(remote, kill_attempts, |config| {
        config.backend = backend;
        config.max_task_attempts = attempts;
        config.faults = faults;
    })
}

/// Like [`run_probe`], but the caller gets to adjust the full
/// [`ClusterConfig`] — the supervision cells below need timeouts,
/// heartbeat cadence, and quarantine thresholds on top of the basics.
fn run_probe_with(
    remote: bool,
    kill_attempts: u64,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> ProbeRun {
    let cluster = probe_cluster(tweak);
    let spec = ProbeSpec::new(kill_attempts, &cluster);
    let job = if remote {
        Job::from_spec(&spec, cluster.dfs())
    } else {
        spec.build(cluster.dfs())
    }
    .unwrap();
    let metrics = cluster.run(job).unwrap();
    let output = cluster.dfs().read_seq("/out").unwrap();
    ProbeRun { output, metrics }
}

/// One more spec-built probe job on `cluster`, writing to `output`.
fn run_probe_on(cluster: &Cluster, kill_attempts: u64, output: &str) -> ProbeRun {
    let spec = ProbeSpec {
        output: output.into(),
        ..ProbeSpec::new(kill_attempts, cluster)
    };
    let job = Job::from_spec(&spec, cluster.dfs()).unwrap();
    let metrics = cluster.run(job).unwrap();
    let output = cluster.dfs().read_seq(output).unwrap();
    ProbeRun { output, metrics }
}

fn counter(m: &JobMetrics, name: &str) -> u64 {
    m.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn remote_output_matches_in_process_and_workers_really_ran() {
    let _env = lock_env();
    let local = run_probe(BackendKind::Simulated, false, false, None, 1);
    let remote = run_probe(BackendKind::Process, true, false, None, 1);

    assert!(!local.output.is_empty());
    assert_eq!(local.output, remote.output, "remote output diverged");

    // The worker-side counters only exist if map/reduce work actually
    // happened in a child process.
    assert_eq!(counter(&remote.metrics, "mr.process.remote_jobs"), 1);
    assert!(counter(&remote.metrics, "mr.process.workers_spawned") >= 1);
    assert_eq!(
        counter(&remote.metrics, "mr.process.worker_map_tasks"),
        remote.metrics.map.tasks as u64
    );
    assert_eq!(
        counter(&remote.metrics, "mr.process.worker_reduce_tasks"),
        remote.metrics.reduce.tasks as u64
    );

    // Deterministic metrics must agree with the in-process run: the
    // shuffle really was serialized through spill files, not faked.
    assert_eq!(local.metrics.map.tasks, remote.metrics.map.tasks);
    assert_eq!(local.metrics.reduce.tasks, remote.metrics.reduce.tasks);
    assert_eq!(local.metrics.shuffle_bytes, remote.metrics.shuffle_bytes);
    assert_eq!(
        local.metrics.shuffle_records,
        remote.metrics.shuffle_records
    );
    assert_eq!(local.metrics.spills, remote.metrics.spills);
    assert_eq!(
        local.metrics.map_output_records,
        remote.metrics.map_output_records
    );
    assert_eq!(
        local.metrics.reduce_input_groups,
        remote.metrics.reduce_input_groups
    );
    assert_eq!(
        local.metrics.reduce_output_records,
        remote.metrics.reduce_output_records
    );
    assert_eq!(
        remote.metrics.output_commits,
        remote.metrics.reduce.tasks as u64
    );

    // One run file per parked map attempt — every map task of this corpus
    // has output and none was retried — however many partitions it wrote
    // to: each reduce task saw exactly `map.tasks` files.
    assert!(remote.metrics.reduce.tasks > 1 && remote.metrics.map.tasks > 1);
    assert_eq!(
        counter(&remote.metrics, "probe.reduce_setups"),
        remote.metrics.reduce.tasks as u64
    );
    assert_eq!(
        counter(&remote.metrics, "probe.run_files_seen"),
        (remote.metrics.map.tasks * remote.metrics.reduce.tasks) as u64
    );
}

/// What a cluster's spill root holds once its jobs are over.
fn leaked_spill_dirs(cluster: &Cluster) -> Vec<std::ffi::OsString> {
    let shuffle = cluster.dfs().root().join("shuffle");
    std::fs::read_dir(shuffle)
        .map(|dir| dir.map(|e| e.unwrap().file_name()).collect())
        .unwrap_or_default()
}

fn probe_cluster(tweak: impl FnOnce(&mut ClusterConfig)) -> Cluster {
    register_factories();
    let mut config = ClusterConfig {
        backend: BackendKind::Process,
        execution_threads: Some(4),
        spill_buffer_bytes: 1024,
        ..ClusterConfig::with_nodes(3)
    };
    tweak(&mut config);
    let cluster = Cluster::new(config, 256).unwrap();
    cluster.dfs().write_text("/in", corpus()).unwrap();
    cluster
}

/// A closure-built job (here: a spec's job with the spec's bytes left off)
/// is one no worker can rebuild: it runs on the driver's threads over the
/// process backend's own run files, and spawns nothing.
#[test]
fn closure_job_runs_on_the_driver_over_run_files() {
    let _env = lock_env();
    let local = run_probe(BackendKind::Simulated, false, false, None, 1);
    let driver = run_probe(BackendKind::Process, false, false, None, 1);

    assert_eq!(local.output, driver.output);
    assert_eq!(counter(&driver.metrics, "mr.process.workers_spawned"), 0);
    assert_eq!(counter(&driver.metrics, "mr.process.remote_jobs"), 0);
    assert_eq!(counter(&driver.metrics, "mr.process.worker_map_tasks"), 0);
    assert_eq!(
        counter(&driver.metrics, "mr.process.worker_reduce_tasks"),
        0
    );
    assert_eq!(
        counter(&driver.metrics, "probe.run_files_seen"),
        (driver.metrics.map.tasks * driver.metrics.reduce.tasks) as u64,
        "the driver's own attempts park and fetch run files too"
    );
}

#[test]
fn unknown_factory_fails_the_job_as_invalid_config() {
    let _env = lock_env();
    let cluster = probe_cluster(|_| {});
    let spec = ProbeSpec {
        unknown_factory: true,
        ..ProbeSpec::new(0, &cluster)
    };
    let job = Job::from_spec(&spec, cluster.dfs()).unwrap();
    assert!(job.remote.is_some(), "every spec-built job is sent out");
    match cluster.run(job) {
        Err(MrError::InvalidConfig(msg)) => {
            assert!(msg.contains(UNKNOWN_FACTORY), "{msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    assert!(cluster.dfs().list("/out").is_empty(), "no task ever ran");
    // The driver that owns the spill directory is alive, so no scavenger
    // would ever sweep one it left behind.
    assert_eq!(
        leaked_spill_dirs(&cluster),
        Vec::<std::ffi::OsString>::new()
    );

    // The worker that said no is healthy, and so is the cluster: a job it
    // can build runs on the same pool.
    let metrics = run_probe_on(&cluster, 0, "/out").metrics;
    assert_eq!(
        counter(&metrics, "mr.process.worker_map_tasks"),
        metrics.map.tasks as u64
    );
}

/// The pool is the cluster's: a second job reuses the first job's workers
/// (total spawns stay within the pool's size), each job gets its own spill
/// directory and leaves none behind.
#[test]
fn one_worker_pool_serves_every_job_of_a_cluster() {
    let _env = lock_env();
    let cluster = probe_cluster(|_| {});
    let first = run_probe_on(&cluster, 0, "/out");
    let second = run_probe_on(&cluster, 0, "/out2");
    assert_eq!(first.output, second.output);
    let (first, second) = (first.metrics, second.metrics);
    for m in [&first, &second] {
        assert_eq!(
            counter(m, "mr.process.worker_map_tasks"),
            m.map.tasks as u64
        );
        assert_eq!(
            counter(m, "mr.process.worker_reduce_tasks"),
            m.reduce.tasks as u64
        );
    }
    let spawned = |m: &JobMetrics| counter(m, "mr.process.workers_spawned");
    assert!(spawned(&first) >= 1);
    assert!(
        spawned(&first) + spawned(&second) <= 4,
        "a fault-free cluster spawns each of its 4 slots at most once: {} + {}",
        spawned(&first),
        spawned(&second)
    );
    assert_eq!(
        leaked_spill_dirs(&cluster),
        Vec::<std::ffi::OsString>::new()
    );
}

/// A worker maps what it is sent. Driver and workers lay a directory of
/// multi-block files out from the headers alone — files in name order,
/// blocks in file order — so a task id names the same block everywhere; and
/// with one block's payload damaged behind the store's back (stored CRCs
/// untouched), the driver's `from_spec` and every worker's `Open` still
/// succeed and the job fails with that block's checksum, from the map
/// attempt that read it.
#[test]
fn a_worker_reads_and_verifies_the_blocks_it_maps_and_no_others() {
    let _env = lock_env();
    let cluster = probe_cluster(|_| {});
    let dfs = cluster.dfs();
    let lines = corpus();
    for (name, part) in ["c", "a", "b"].iter().zip(lines.chunks(150)) {
        dfs.write_text(&format!("/ind/{name}"), part).unwrap();
    }
    let spec = ProbeSpec {
        input: "/ind".into(),
        ..ProbeSpec::new(0, &cluster)
    };
    let metrics = cluster.run(Job::from_spec(&spec, dfs).unwrap()).unwrap();
    let splits = dfs.splits("/ind").unwrap();
    assert!(splits.len() > 6, "several blocks per file");
    assert_eq!(metrics.map.tasks, splits.len());
    assert_eq!(
        counter(&metrics, "mr.process.worker_map_tasks"),
        splits.len() as u64
    );
    for (task, split) in splits.iter().enumerate() {
        let name = format!("probe.split.{task}.{}@{}", split.path, split.offset);
        assert_eq!(counter(&metrics, &name), 1, "{name}");
    }
    let paths: Vec<&str> = splits.iter().map(|s| s.path.as_str()).collect();
    assert!(paths.is_sorted() && paths[0] == "/ind/a" && paths[paths.len() - 1] == "/ind/c");

    // Damage a middle block of the middle file. Its stored CRC is that of
    // a file holding the block's lines alone.
    let victim = splits.iter().filter(|s| s.path == "/ind/b").nth(1).unwrap();
    let text = dfs.read_text("/ind/b").unwrap().join("\n") + "\n";
    let block = &text[victim.offset as usize..(victim.offset + victim.len) as usize];
    dfs.write_text("/block", block.lines()).unwrap();
    let block_crc = dfs.file_crc("/block").unwrap();
    let real = dfs.root().join("fs/ind/b");
    let mut bytes = std::fs::read(&real).unwrap();
    let header = bytes.len() - text.len();
    bytes[header + victim.offset as usize + 1] ^= 0x01;
    std::fs::write(&real, &bytes).unwrap();

    let job = Job::from_spec(&spec, dfs).expect("the driver builds from headers");
    match cluster.run(job) {
        Err(MrError::ChecksumMismatch { path, expected, .. }) => {
            assert_eq!((path.as_str(), expected), ("/ind/b", block_crc));
        }
        other => panic!("expected the block's ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn killed_worker_is_classified_and_retried_on_a_fresh_worker() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    let killed = run_probe(BackendKind::Process, true, true, None, 4);

    assert_eq!(
        clean.output, killed.output,
        "retry after worker death changed the committed bytes"
    );
    assert_eq!(counter(&killed.metrics, "mr.process.remote_jobs"), 1);
    assert!(
        counter(&killed.metrics, "mr.process.worker_lost") >= 1,
        "the aborted worker was never noticed"
    );
    assert!(
        counter(&killed.metrics, "mr.process.workers_spawned") >= 2,
        "no replacement worker was spawned"
    );
}

#[test]
fn corrupted_response_frame_kills_the_worker_not_the_job() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    let corrupted = {
        let _knob = EnvGuard::set(CORRUPT_FRAME_ENV);
        run_probe(BackendKind::Process, true, false, None, 4)
    };

    assert_eq!(
        clean.output, corrupted.output,
        "corrupt frame recovery changed the committed bytes"
    );
    assert!(
        counter(&corrupted.metrics, "mr.process.worker_lost") >= 1,
        "the garbling worker was never killed"
    );
    assert_eq!(counter(&corrupted.metrics, "mr.process.remote_jobs"), 1);
}

#[test]
fn chaos_parity_through_real_workers() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    let plan = FaultPlan::aggressive(0x0F00_D5EED);
    let chaos = run_probe(BackendKind::Process, true, false, Some(plan), 8);

    assert_eq!(
        clean.output, chaos.output,
        "chaos changed remotely committed bytes"
    );
    assert_eq!(counter(&chaos.metrics, "mr.process.remote_jobs"), 1);
    assert!(counter(&chaos.metrics, "mr.process.worker_map_tasks") >= 1);
}

/// `hang=` in the fault plan makes workers really sleep forever mid-task,
/// heartbeats suppressed; the job's watchdog must notice, kill them, spawn
/// replacements and retry — with the committed bytes untouched.
#[test]
fn injected_hang_is_deadline_killed_retried_and_byte_identical() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    let plan = FaultPlan::parse("seed=77,hang=0.3,slow_heartbeat=0.1").unwrap();
    let hung = run_probe_with(true, 0, |config| {
        config.max_task_attempts = 8;
        config.faults = Some(plan);
        config.task_timeout_secs = Some(2.0);
    });

    assert_eq!(
        clean.output, hung.output,
        "hang recovery changed the committed bytes"
    );
    assert!(
        counter(&hung.metrics, "mr.supervise.task_timeout") >= 1,
        "no hung task was ever timed out"
    );
    assert!(
        counter(&hung.metrics, "mr.process.worker_lost") >= 1,
        "the hung worker was never classified as lost"
    );
    assert!(
        counter(&hung.metrics, "mr.process.workers_spawned") >= 2,
        "no replacement worker was spawned"
    );
    assert_eq!(counter(&hung.metrics, "mr.process.remote_jobs"), 1);
}

/// The real thing, no fault plan: the probe's own map code sleeps forever
/// on (map task 0, attempt 0) while its worker keeps heartbeating. The
/// deadline must kill the process, a replacement must take the retry, and
/// the committed bytes must be the clean ones.
#[test]
fn real_hung_worker_is_killed_and_replaced() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    let cluster = probe_cluster(|config| {
        config.max_task_attempts = 4;
        config.task_timeout_secs = Some(2.0);
    });
    let spec = ProbeSpec {
        hang: true,
        ..ProbeSpec::new(0, &cluster)
    };
    let metrics = cluster
        .run(Job::from_spec(&spec, cluster.dfs()).unwrap())
        .unwrap();
    let output = cluster.dfs().read_seq("/out").unwrap();

    assert_eq!(
        clean.output, output,
        "hung-worker recovery changed the committed bytes"
    );
    assert!(
        counter(&metrics, "mr.supervise.task_timeout") >= 1,
        "the hung worker was never timed out"
    );
    assert!(
        counter(&metrics, "mr.process.workers_spawned") >= 2,
        "no replacement worker was spawned"
    );
}

/// `(phase, task, attempt)` of every event of `kind`.
fn attempts_of(events: &[TraceEvent], kind: EventKind) -> Vec<(&'static str, u64, u64)> {
    let of = |e: &TraceEvent| {
        (
            e.phase.unwrap().as_str(),
            e.task.unwrap(),
            e.attempt.unwrap(),
        )
    };
    events.iter().filter(|e| e.kind == kind).map(of).collect()
}

/// The driver records every attempt, wherever it ran. A traced spec-built
/// job under an aggressive plan has, on the process backend, one
/// `task_start` and one `task_end` per attempt, one `commit` per reduce
/// task and one `abort` per counted abort — and each count is the
/// simulated run's, since fault draws are pure in `(job, phase, task,
/// attempt)`.
#[test]
fn worker_attempts_are_traced_and_counted_as_the_simulated_backend_does() {
    let _env = lock_env();
    // A seed under which first attempts fail in both phases.
    let plan = FaultPlan::aggressive(26);
    let traced = |backend| {
        let mut cluster = probe_cluster(|config| {
            config.backend = backend;
            config.max_task_attempts = 8;
            config.faults = Some(plan.clone());
        });
        let sink = TraceSink::new();
        cluster.set_trace(sink.clone());
        let m = run_probe_on(&cluster, 0, "/out").metrics;
        let events = sink.events();
        let starts = attempts_of(&events, EventKind::TaskStart);
        let ends = attempts_of(&events, EventKind::TaskEnd);
        let distinct: BTreeSet<_> = starts.iter().collect();
        assert_eq!(
            distinct.len(),
            starts.len(),
            "{backend}: an attempt started twice"
        );
        assert_eq!(
            distinct,
            ends.iter().collect(),
            "{backend}: starts and ends differ"
        );
        let attempts = (m.map.tasks + m.reduce.tasks) as u64 + m.task_retries;
        assert_eq!(starts.len() as u64, attempts, "{backend}");
        let count = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
        let (commits, aborts) = (count(EventKind::Commit), count(EventKind::Abort));
        assert_eq!(commits, m.reduce.tasks as u64, "{backend}");
        assert_eq!(commits, m.output_commits, "{backend}");
        assert_eq!(aborts, m.output_aborts, "{backend}");
        if backend == BackendKind::Process {
            let in_workers = counter(&m, "mr.process.worker_map_tasks");
            assert_eq!(
                in_workers, m.map.tasks as u64,
                "the winning maps ran in workers"
            );
        }
        (starts.len(), ends.len(), commits, aborts, m.task_retries)
    };
    let simulated = traced(BackendKind::Simulated);
    assert!(
        simulated.3 > 0,
        "the plan aborts some reduce attempt: {simulated:?}"
    );
    assert_eq!(traced(BackendKind::Process), simulated);
}

/// An attempt's node is decided once, and every report of the attempt
/// names it. Map task 0, which starts on its block's node, loses its worker on
/// attempt 0 and hangs on attempt 1 until the watchdog kills it: both
/// `NodeLost` errors and the `task_timeout` event name the node their
/// attempt's `task_start` names.
#[test]
fn a_lost_or_timed_out_attempt_names_the_node_it_started_on() {
    let _env = lock_env();
    let mut cluster = probe_cluster(|config| {
        config.max_task_attempts = 4;
        config.task_timeout_secs = Some(2.0);
    });
    let sink = TraceSink::new();
    cluster.set_trace(sink.clone());
    let spec = ProbeSpec {
        hang: true,
        ..ProbeSpec::new(1, &cluster)
    };
    cluster
        .run(Job::from_spec(&spec, cluster.dfs()).unwrap())
        .unwrap();

    let events = sink.events();
    let map0 = |kind| {
        let at_map0 = move |e: &&TraceEvent| {
            e.kind == kind && (e.phase, e.task) == (Some(Phase::Map), Some(0))
        };
        events.iter().filter(at_map0).cloned().collect::<Vec<_>>()
    };
    let started_on: BTreeMap<u64, u64> = map0(EventKind::TaskStart)
        .iter()
        .map(|e| (e.attempt.unwrap(), e.node.unwrap()))
        .collect();
    let lost: Vec<_> = map0(EventKind::TaskEnd)
        .into_iter()
        .filter(|e| e.outcome == Some(Outcome::Failed))
        .collect();
    let lost_attempts: Vec<_> = lost.iter().map(|e| e.attempt.unwrap()).collect();
    assert_eq!(lost_attempts, [0, 1], "killed, then timed out");
    for e in &lost {
        let node = started_on[&e.attempt.unwrap()];
        let error = e.error.as_deref().unwrap();
        assert!(error.starts_with(&format!("node {node} lost ")), "{error}");
    }
    let timeouts = map0(EventKind::TaskTimeout);
    assert_eq!(timeouts.len(), 1);
    assert_eq!(timeouts[0].attempt, Some(1));
    assert_eq!(timeouts[0].node, Some(started_on[&1]));
}

/// A worker slot that keeps losing workers gets quarantined; once every
/// slot is quarantined the pool is out of the game and tasks fall back
/// in-process on the same DFS — completing the job byte-identically. The
/// verdicts are that job's: the cluster's next job starts from a clean
/// ledger and runs in workers again.
#[test]
fn quarantined_pool_falls_back_in_process_byte_identically() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    let cluster = probe_cluster(|config| {
        config.max_task_attempts = 8;
        config.execution_threads = Some(2);
    });
    // Task 0 aborts the worker on every attempt, so each retry costs a slot
    // one of the three losses that quarantine it: at most six attempts on
    // the two slots until no healthy slot remains and the in-process
    // fallback finishes the task.
    let poisoned = run_probe_on(&cluster, u64::MAX, "/out");

    assert_eq!(
        clean.output, poisoned.output,
        "quarantine fallback changed the committed bytes"
    );
    let poisoned = poisoned.metrics;
    assert!(
        counter(&poisoned, "mr.supervise.quarantined") >= 1,
        "no worker slot was ever quarantined"
    );
    assert!(
        counter(&poisoned, "mr.supervise.fallback_tasks") >= 1,
        "no task ran through the in-process fallback"
    );
    assert!(
        counter(&poisoned, "mr.process.worker_lost") >= 1,
        "the aborting workers were never noticed"
    );

    // Two runner threads on two clean slots never find the pool empty; on
    // what the poisoned job left of it, they would.
    let healthy = run_probe_on(&cluster, 0, "/out2");
    assert_eq!(clean.output, healthy.output);
    let healthy = healthy.metrics;
    assert_eq!(counter(&healthy, "mr.supervise.fallback_tasks"), 0);
    assert_eq!(
        counter(&healthy, "mr.process.worker_map_tasks"),
        healthy.map.tasks as u64,
        "one poisoned job must not push the next one in-process"
    );
    assert_eq!(
        counter(&healthy, "mr.process.worker_reduce_tasks"),
        healthy.reduce.tasks as u64
    );
}

/// An attempt clones the job's mapper or reducer prototype once, retries
/// included, on the driver's threads and in worker processes alike; nothing
/// else clones them — not a task list, not a worker opening the job.
#[test]
fn every_attempt_clones_its_mapper_or_reducer_once() {
    let _env = lock_env();
    for backend in [BackendKind::Simulated, BackendKind::Process] {
        let cluster = probe_cluster(|config| {
            config.backend = backend;
            config.max_task_attempts = 2;
        });
        let spec = FlakySpec::new(&format!("clones-{backend}"), false);
        let job = Job::from_spec(&spec, cluster.dfs()).unwrap();
        let metrics = cluster.run(job).unwrap();
        // Task 0 of each phase failed its first attempt.
        assert_eq!(metrics.task_retries, 2, "{backend}");
        let attempts = |tasks: usize| tasks as u64 + 1;
        assert_eq!(spec.clones("map"), attempts(metrics.map.tasks), "{backend}");
        assert_eq!(
            spec.clones("reduce"),
            attempts(metrics.reduce.tasks),
            "{backend}"
        );
        if backend == BackendKind::Process {
            let map_tasks = counter(&metrics, "mr.process.worker_map_tasks");
            assert_eq!(map_tasks, metrics.map.tasks as u64, "attempts ran remotely");
        }
        spec.remove_ledger();
    }
}

/// A panic in a worker's attempt is that attempt's failure, not the
/// worker's: it comes back as one error frame carrying the panic, the
/// worker stays in the pool, and the one retry commits.
#[test]
fn a_panicking_attempt_in_a_worker_is_one_error_frame_and_one_retry() {
    let _env = lock_env();
    let spec = FlakySpec::new("panic", true);
    let cluster = probe_cluster(|config| config.max_task_attempts = 1);
    match cluster.run(Job::from_spec(&spec, cluster.dfs()).unwrap()) {
        Err(MrError::TaskPanicked(msg)) => assert!(msg.contains("deliberate test panic"), "{msg}"),
        other => panic!("expected TaskPanicked, got {other:?}"),
    }

    let cluster = probe_cluster(|config| config.max_task_attempts = 2);
    let metrics = cluster
        .run(Job::from_spec(&spec, cluster.dfs()).unwrap())
        .unwrap();
    assert_eq!(metrics.task_retries, 1);
    assert_eq!(counter(&metrics, "mr.process.worker_lost"), 0);
    assert_eq!(
        counter(&metrics, "mr.process.worker_map_tasks"),
        metrics.map.tasks as u64
    );
    spec.remove_ledger();
}
