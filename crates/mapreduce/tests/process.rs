//! Real out-of-process execution: these tests register a job spec and
//! run the probe job through `BackendKind::Process` with *actual worker
//! processes* — the driver re-executes this test binary with
//! `MR_PROCESS_WORKER=1`, libtest lands in [`process_worker_entry`], and
//! the child hands itself over to the frame loop.
//!
//! Covered here (the closure-job fallback path is covered by
//! `tests/backend.rs`):
//!
//! * committed output is byte-identical to the in-process backends, and
//!   the worker-side counters prove the remote path really ran;
//! * a job not built from a registered spec falls back in-process,
//!   correctly;
//! * a factory name the workers do not know fails the handshake and falls
//!   back;
//! * a worker that dies mid-task (`abort()`, i.e. SIGKILL-grade: no
//!   unwind, no goodbye frame) is classified as a lost node and the task
//!   is retried on a fresh worker without taking down the driver;
//! * a worker that responds with an undecodable frame is killed and
//!   replaced the same way;
//! * chaos parity: under an aggressive fault plan the remote path still
//!   commits exactly the clean bytes.

use std::sync::{Mutex, MutexGuard, Once};

use mapreduce::{
    text_input, BackendKind, Cluster, ClusterConfig, Dfs, Emit, FaultPlan, Job, JobMetrics,
    JobSpec, Mapper, Reducer, Result, TaskContext, CORRUPT_FRAME_ENV, HANG_ENV, WORKER_ENV,
};

const PROBE_FACTORY: &str = "process-probe";
const DRIVER_ONLY_FACTORY: &str = "process-probe-driver-only";

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
        // A factory the driver knows and its workers do not: a job sent
        // under it must fail the handshake.
        if std::env::var_os(WORKER_ENV).is_none() {
            mapreduce::register_job_spec::<ProbeSpec>(DRIVER_ONLY_FACTORY);
        }
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
    /// Send the job under [`DRIVER_ONLY_FACTORY`].
    driver_only: bool,
}
mapreduce::codec_struct!(ProbeSpec {
    input,
    output,
    kill_attempts,
    driver_only,
});

impl ProbeSpec {
    fn new(kill_attempts: u64) -> Self {
        ProbeSpec {
            input: "/in".into(),
            output: "/out".into(),
            kill_attempts,
            driver_only: false,
        }
    }
}

impl JobSpec for ProbeSpec {
    type Mapper = ProbeMapper;
    type Reducer = ProbeReducer;

    fn factory(&self) -> &'static str {
        if self.driver_only {
            DRIVER_ONLY_FACTORY
        } else {
            PROBE_FACTORY
        }
    }

    fn build(&self, dfs: &Dfs) -> Result<Job<ProbeMapper, ProbeReducer>> {
        let mapper = ProbeMapper {
            kill_attempts: self.kill_attempts,
        };
        Ok(Job::new("process-probe", mapper, ProbeReducer)
            .inputs(text_input(dfs, &self.input)?)
            .output_seq(&self.output))
    }
}

#[derive(Clone)]
struct ProbeMapper {
    kill_attempts: u64,
}

impl Mapper for ProbeMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = String;

    fn map(
        &mut self,
        _off: &u64,
        line: &String,
        out: &mut dyn Emit<String, String>,
        ctx: &TaskContext,
    ) -> Result<()> {
        // SIGKILL-grade death: no unwind, no error frame, the pipe
        // just closes. Guarded on the worker env var so an
        // in-process fallback run of this mapper never aborts the
        // driver, and on task 0's first `kill_attempts` attempts so
        // a retry (or the in-process fallback) eventually succeeds.
        if ctx.task_id == 0
            && (ctx.attempt as u64) < self.kill_attempts
            && std::env::var_os(WORKER_ENV).is_some()
        {
            std::process::abort();
        }
        let (k, v) = line.split_once(' ').unwrap();
        out.emit(k.to_string(), v.to_string())
    }
}

#[derive(Clone)]
struct ProbeReducer;

impl Reducer for ProbeReducer {
    type Key = String;
    type InValue = String;
    type OutKey = String;
    type OutValue = String;

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
    let spec = ProbeSpec::new(kill_attempts);
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
    assert_eq!(counter(&remote.metrics, "mr.process.fallback_jobs"), 0);
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
}

#[test]
fn job_without_remote_spec_falls_back_in_process() {
    let _env = lock_env();
    let local = run_probe(BackendKind::Simulated, false, false, None, 1);
    let fallback = run_probe(BackendKind::Process, false, false, None, 1);

    assert_eq!(local.output, fallback.output);
    assert_eq!(counter(&fallback.metrics, "mr.process.fallback_jobs"), 1);
    assert_eq!(counter(&fallback.metrics, "mr.process.remote_jobs"), 0);
    assert_eq!(counter(&fallback.metrics, "mr.process.worker_map_tasks"), 0);
}

#[test]
fn unknown_factory_fails_the_handshake_and_falls_back() {
    let _env = lock_env();
    let local = run_probe(BackendKind::Simulated, false, false, None, 1);

    let config = ClusterConfig {
        backend: BackendKind::Process,
        execution_threads: Some(4),
        spill_buffer_bytes: 1024,
        ..ClusterConfig::with_nodes(3)
    };
    let cluster = Cluster::new(config, 256).unwrap();
    cluster.dfs().write_text("/in", corpus()).unwrap();
    register_factories();
    let spec = ProbeSpec {
        driver_only: true,
        ..ProbeSpec::new(0)
    };
    let job = Job::from_spec(&spec, cluster.dfs()).unwrap();
    assert!(job.remote.is_some(), "the driver sends it out");
    let metrics = cluster.run(job).unwrap();
    let output: Vec<(String, String)> = cluster.dfs().read_seq("/out").unwrap();

    assert_eq!(local.output, output, "fallback must still commit the job");
    // The pool never came up, and its owner (this driver) is alive, so no
    // scavenger would ever sweep a spill directory it left behind.
    let shuffle = cluster.dfs().disk_root().unwrap().join("shuffle");
    let leaked: Vec<_> = std::fs::read_dir(&shuffle)
        .map(|dir| dir.map(|e| e.unwrap().file_name()).collect())
        .unwrap_or_default();
    assert!(leaked.is_empty(), "failed handshake leaked {leaked:?}");
    assert_eq!(counter(&metrics, "mr.process.handshake_failures"), 1);
    assert_eq!(counter(&metrics, "mr.process.fallback_jobs"), 1);
    assert_eq!(counter(&metrics, "mr.process.remote_jobs"), 0);
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
    assert_eq!(counter(&chaos.metrics, "mr.process.fallback_jobs"), 0);
}

/// `hang=` in the fault plan makes workers stop responding mid-task; the
/// supervisor must notice (heartbeats dry up), kill them, and retry —
/// with the committed bytes untouched.
#[test]
fn injected_hang_is_deadline_killed_retried_and_byte_identical() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    let plan = FaultPlan::parse("seed=77,hang=0.3,slow_heartbeat=0.1").unwrap();
    let hung = run_probe_with(true, 0, |config| {
        config.max_task_attempts = 8;
        config.faults = Some(plan);
        config.task_timeout_secs = Some(2.0);
        config.heartbeat_interval_secs = 0.05;
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
    assert_eq!(counter(&hung.metrics, "mr.process.remote_jobs"), 1);
}

/// The real thing, no fault plan: `MR_CHAOS_HANG` makes the first worker
/// genuinely sleep forever on (map task 0, attempt 0). The watchdog must
/// kill the process, spawn a replacement, and commit identical bytes.
#[test]
fn real_hung_worker_is_killed_and_replaced() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    let hung = {
        let _knob = EnvGuard::set(HANG_ENV);
        run_probe_with(true, 0, |config| {
            config.max_task_attempts = 4;
            config.task_timeout_secs = Some(2.0);
            config.heartbeat_interval_secs = 0.05;
        })
    };

    assert_eq!(
        clean.output, hung.output,
        "hung-worker recovery changed the committed bytes"
    );
    assert!(
        counter(&hung.metrics, "mr.supervise.task_timeout") >= 1,
        "the hung worker was never timed out"
    );
    assert!(
        counter(&hung.metrics, "mr.process.workers_spawned") >= 2,
        "no replacement worker was spawned"
    );
}

/// A worker slot that keeps losing workers gets quarantined; once every
/// slot is quarantined the pool is out of the game and tasks fall back
/// in-process on the same DFS — completing the job byte-identically.
#[test]
fn quarantined_pool_falls_back_in_process_byte_identically() {
    let _env = lock_env();
    let clean = run_probe(BackendKind::Process, true, false, None, 1);
    // Task 0 aborts the worker on every attempt, so each retry burns a
    // fresh slot (threshold 1 quarantines on the first loss) until no
    // healthy slot remains and the in-process fallback finishes the task.
    let quarantined = run_probe_with(true, u64::MAX, |config| {
        config.max_task_attempts = 8;
        config.worker_quarantine_losses = 1;
    });

    assert_eq!(
        clean.output, quarantined.output,
        "quarantine fallback changed the committed bytes"
    );
    assert!(
        counter(&quarantined.metrics, "mr.supervise.quarantined") >= 1,
        "no worker slot was ever quarantined"
    );
    assert!(
        counter(&quarantined.metrics, "mr.supervise.fallback_tasks") >= 1,
        "no task ran through the in-process fallback"
    );
    assert!(
        counter(&quarantined.metrics, "mr.process.worker_lost") >= 1,
        "the aborting workers were never noticed"
    );
}
