//! The job executor: map phase, spill/combine, shuffle, merge, reduce phase,
//! and the record of what ran — one [`TaskRecord`] per committed task.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::backend::{self, BackendKind};
use crate::cluster::ClusterConfig;
use crate::codec::ByteReader;
use crate::codec_struct;
use crate::counters::Counters;
use crate::dfs::{is_under, BlockWriter, Dfs};
use crate::error::{MrError, Result};
use crate::faults::Fault;
use crate::job::{Job, Output, TextFormat};
use crate::kv::{Key, Value};
use crate::manifest::JobManifest;
use crate::mapper::Mapper;
use crate::memory::MemoryGauge;
use crate::metrics::{JobMetrics, PhaseMetrics, TaskRecord};
use crate::partitioner::{natural_sort, Grouping};
use crate::profile;
use crate::reducer::{CombineFn, Reducer};
use crate::remote::WorkerPool;
use crate::run::{merge_to_factor, sort_and_combine, GroupValues, MergeStream, Run, MERGE_FACTOR};
use crate::sketch::SpaceSaving;
use crate::task::{Emit, Phase, TaskContext};
use crate::trace::{
    EventKind, Histogram, HistogramSnapshot, Histograms, TraceEvent, TraceSink,
    HEAVY_HITTER_WARNINGS, HIST_MAP_TASK_SECS, HIST_REDUCE_GROUP_RECORDS, HIST_REDUCE_TASK_SECS,
};

/// A simulated shared-nothing cluster: a topology plus a DFS.
///
/// `Cluster::run` executes a [`Job`] to completion and returns its
/// [`JobMetrics`], with one [`TaskRecord`] per committed task.
pub struct Cluster {
    config: ClusterConfig,
    dfs: Dfs,
    trace: Option<TraceSink>,
    /// Jobs started on this cluster, in driver order. Indexes the
    /// driver-crash points in [`FaultPlan`] (`crash_after`/`crash_mid`),
    /// so "crash after job 2" means the third `run` call on this engine.
    jobs_run: AtomicUsize,
    /// The process backend's worker pool: spawned from by this cluster's
    /// jobs, shut down when the cluster is dropped.
    workers: Option<Mutex<WorkerPool>>,
}

impl Cluster {
    /// Create a cluster with a fresh DFS using the given block size: at
    /// `config.dfs_root` when there is one — what lets crash-torture
    /// harnesses SIGKILL a driver and resume over the surviving files —
    /// and in a self-cleaning temp root otherwise.
    pub fn new(config: ClusterConfig, dfs_block_size: usize) -> Result<Self> {
        config.validate().map_err(MrError::InvalidConfig)?;
        let dfs = match &config.dfs_root {
            Some(root) => Dfs::new_disk(config.nodes, dfs_block_size, root)?,
            None => Dfs::new(config.nodes, dfs_block_size)?,
        };
        Self::with_dfs(config, dfs)
    }

    /// Create a cluster around an existing DFS (e.g. to re-run with a
    /// different topology over the same data, or to resume a crashed
    /// pipeline in a fresh engine). The cluster's storage policy is applied
    /// to the handle: the durable-commit discipline, always, and, when the
    /// fault plan carries storage keys, driver-side storage fault
    /// injection. The process backend's workers open the same root.
    pub fn with_dfs(config: ClusterConfig, mut dfs: Dfs) -> Result<Self> {
        config.validate().map_err(MrError::InvalidConfig)?;
        dfs.set_durable(true);
        if let Some(plan) = &config.faults {
            dfs.install_storage_faults(plan);
        }
        let workers = (config.backend == BackendKind::Process)
            .then(|| Mutex::new(WorkerPool::new(&config, &dfs, dfs.root())));
        Ok(Cluster {
            config,
            dfs,
            trace: None,
            jobs_run: AtomicUsize::new(0),
            workers,
        })
    }

    /// The cluster's DFS handle.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The cluster topology.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Attach a trace sink; every subsequent job records span events per
    /// `(job, phase, task, attempt)` into it. The driver emits every event,
    /// whichever backend ran the attempt, outside the timed window of each
    /// attempt, so tracing is never charged to measured task seconds and
    /// task outputs are unaffected.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// The worker pool of a process-backend cluster.
    pub(crate) fn worker_pool(&self) -> &Mutex<WorkerPool> {
        self.workers
            .as_ref()
            .expect("with_dfs gives every process-backend cluster a pool")
    }

    fn gauge(&self, label: String) -> MemoryGauge {
        match self.config.task_memory {
            Some(b) => MemoryGauge::new(label, b),
            None => MemoryGauge::unlimited(label),
        }
    }

    /// Execute a job: setup and scavenge, execute on the configured
    /// backend, job-level commit or abort, finalize — one function each,
    /// and with the backend's spawn/map/regroup/reduce the seven wall
    /// windows of [`crate::profile`].
    pub fn run<M, R>(&self, job: Job<M, R>) -> Result<JobMetrics>
    where
        M: Mapper,
        R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
    {
        let wall_start = Instant::now();
        let run = JobRun::new(&job, self)?;
        let counters = &run.counters;
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::new(EventKind::JobStart, &job.name));
        }
        let job_seq = self.jobs_run.fetch_add(1, Ordering::Relaxed);
        if let Some(dir) = job.output.dir() {
            self.scavenge(&job.name, dir, counters);
        }
        counters.add_since(profile::WALL_SETUP_US, wall_start);
        // An `Err` here is a map-phase failure: it propagates without
        // touching the output directory.
        let outcome = backend::execute(&run)?;

        let commit_start = Instant::now();
        let reduce = self.commit_job(
            (&job.name, job_seq, job.fingerprint.unwrap_or(0)),
            job.output.dir(),
            outcome.reduce_result,
        )?;
        counters.add_since(profile::WALL_COMMIT_US, commit_start);
        Ok(self.finalize(
            &job.name,
            wall_start,
            counters,
            &run.histograms,
            (&outcome.map_outs, &reduce),
        ))
    }

    /// Recovery before any task starts: the job owns its output directory,
    /// so all of it goes — `_attempt-*` files a crashed driver left, a stale
    /// `_SUCCESS` manifest, an earlier run's parts however many reducers it
    /// had — and the manifest this job commits lists only the parts it
    /// wrote. Killed or quarantined process workers also leak `*.run` spill
    /// files (and driver temps) under the DFS root; the DFS-level scavenger
    /// sweeps everything owned by dead pids. Counts attempt and orphan files.
    fn scavenge(&self, job_name: &str, dir: &str, counters: &Counters) {
        let mut scavenged = self.sweep_attempts(dir);
        self.dfs.delete_prefix(dir);
        scavenged += self.dfs.scavenge_orphans() as u64;
        if scavenged > 0 {
            counters.get("mr.recovery.scavenged").add(scavenged);
            if let Some(t) = &self.trace {
                let mut e = TraceEvent::new(EventKind::Scavenge, job_name);
                e.records = Some(scavenged);
                e.detail = Some(format!("orphaned attempt/spill file(s) under {dir}"));
                t.emit(e);
            }
        }
    }

    /// Delete every `_attempt-*` file of `dir`; how many went.
    fn sweep_attempts(&self, dir: &str) -> u64 {
        let is_attempt = |p: &String| {
            p.rsplit('/')
                .next()
                .is_some_and(|b| b.starts_with("_attempt-"))
        };
        let attempts = self.dfs.list(dir).into_iter().filter(is_attempt);
        attempts.filter(|p| self.dfs.delete(p).is_ok()).count() as u64
    }

    /// Job-level commit/abort (Hadoop's OutputCommitter.commitJob /
    /// abortJob) around the reduce phase's outcome: on success sweep any
    /// leftover attempt files, make the parts durable in one wave and write
    /// the `_SUCCESS` commit manifest; on failure remove the whole output
    /// directory so a failed job never leaves partial output behind.
    fn commit_job(
        &self,
        (job_name, job_seq, fingerprint): (&str, usize, u64),
        dir: Option<&str>,
        reduce_result: Result<Vec<ReduceTaskOut>>,
    ) -> Result<Vec<ReduceTaskOut>> {
        let reduce = match reduce_result {
            Ok(reduce) => reduce,
            Err(e) => {
                if let Some(dir) = dir {
                    self.dfs.delete_prefix(dir);
                }
                return Err(e);
            }
        };
        let faults = self.config.faults.as_ref();
        // Injected driver crash *mid-job*: all reduce tasks committed their
        // parts at task level, but the job-level commit (attempt sweep, sync
        // wave, `_SUCCESS` manifest) never ran. The output directory is left
        // exactly as the crash would leave it — parts present, no manifest —
        // so resume logic must treat the job as uncommitted.
        if faults.is_some_and(|plan| plan.crash_mid == Some(job_seq)) {
            return Err(MrError::DriverCrash(format!(
                "mid job {job_seq} ({job_name}) before commit"
            )));
        }
        if let Some(dir) = dir {
            self.sweep_attempts(dir);
            // The commit itself can hit a transient storage fault
            // (injected EIO on the manifest write, ENOSPC freed by the
            // scavenger): re-issue it a bounded number of times rather
            // than failing a job whose parts all committed. Reduce attempts
            // wrote and renamed their parts without syncing: one wave makes
            // every part, then the directory, durable before the manifest
            // that names them is — the only order a resume relies on, since
            // it discards a directory without a manifest whatever it holds.
            commit_with_retries(|| {
                self.dfs.sync_under(dir)?;
                JobManifest::collect(&self.dfs, job_name, fingerprint, dir)?.write(&self.dfs, dir)
            })?;
            // Injected post-commit corruption: flip a bit in a committed
            // part so the next read (or manifest check) of this directory
            // must detect it.
            if let Some(target) = faults.and_then(|p| p.corrupt_path.as_deref()) {
                if is_under(target, dir) && self.dfs.exists(target) {
                    self.dfs.corrupt(target)?;
                }
            }
        }
        // Injected driver crash *after* this job committed: downstream jobs
        // never start. Resume must skip this job (manifest valid) and re-run
        // only what is missing.
        if faults.is_some_and(|plan| plan.crash_after == Some(job_seq)) {
            return Err(MrError::DriverCrash(format!(
                "after job {job_seq} ({job_name}) committed"
            )));
        }
        Ok(reduce)
    }

    /// Histograms and heavy hitters, built from winning-attempt outputs
    /// only, so the distributions are deterministic even when fault
    /// injection retries attempts. Warns (stderr, counter, trace event)
    /// when the heaviest reduce key carries too large a share of the
    /// shuffle.
    #[allow(clippy::type_complexity)]
    fn distributions(
        &self,
        job_name: &str,
        counters: &Counters,
        histograms: &Histograms,
        (map_outs, reduce_outs): (&[MapStats], &[ReduceTaskOut]),
        shuffle_records: u64,
    ) -> (Vec<(String, HistogramSnapshot)>, Vec<(String, u64)>) {
        let map_secs = Histogram::new();
        for o in map_outs {
            map_secs.record(o.record.secs);
        }
        let reduce_secs = Histogram::new();
        let mut group_records = HistogramSnapshot::default();
        let mut key_counts: Option<SpaceSaving<String>> = None;
        for o in reduce_outs {
            reduce_secs.record(o.record.secs);
            group_records.merge(&o.group_records);
            if let Some(tk) = &o.key_counts {
                key_counts
                    .get_or_insert_with(|| SpaceSaving::new(HEAVY_HITTER_CAPACITY))
                    .merge(tk);
            }
        }
        let mut job_histograms = histograms.snapshot();
        job_histograms.push((HIST_MAP_TASK_SECS.to_string(), map_secs.snapshot()));
        job_histograms.push((HIST_REDUCE_TASK_SECS.to_string(), reduce_secs.snapshot()));
        job_histograms.push((HIST_REDUCE_GROUP_RECORDS.to_string(), group_records));
        job_histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let heavy_hitters = key_counts
            .map(|tk| tk.top(HEAVY_HITTER_TOP_K))
            .unwrap_or_default();
        if let Some((label, count)) = heavy_hitters.first() {
            let share = *count as f64 / shuffle_records.max(1) as f64;
            if shuffle_records > 0 && share > HEAVY_HITTER_WARN_SHARE {
                counters.get(HEAVY_HITTER_WARNINGS).incr();
                eprintln!(
                    "warning: job {job_name}: reduce key {label} carries {count} of \
                     {shuffle_records} shuffle records ({:.0}% > {:.0}% threshold) — a different \
                     token ordering or grouped routing would balance reducers better",
                    share * 100.0,
                    HEAVY_HITTER_WARN_SHARE * 100.0,
                );
                if let Some(t) = &self.trace {
                    let mut e = TraceEvent::new(EventKind::SkewWarning, job_name);
                    e.records = Some(*count);
                    e.detail = Some(format!(
                        "{label} carries {:.1}% of {shuffle_records} shuffle records",
                        share * 100.0
                    ));
                    t.emit(e);
                }
            }
        }
        (job_histograms, heavy_hitters)
    }

    /// Turn the winning attempts' outputs into [`JobMetrics`]: the task
    /// records, the distributions, and the closing trace events.
    fn finalize(
        &self,
        name: &str,
        wall_start: Instant,
        counters: &Counters,
        histograms: &Histograms,
        (map_outs, reduce_outs): (&[MapStats], &[ReduceTaskOut]),
    ) -> JobMetrics {
        let finalize_start = Instant::now();
        let shuffle_bytes = map_outs.iter().map(|o| o.shuffle_bytes).sum();
        let shuffle_records = map_outs.iter().map(|o| o.shuffle_records).sum();
        let (job_histograms, heavy_hitters) = self.distributions(
            name,
            counters,
            histograms,
            (map_outs, reduce_outs),
            shuffle_records,
        );
        let records = map_outs.iter().map(|o| o.record);
        let tasks: Vec<TaskRecord> = records
            .chain(reduce_outs.iter().map(|o| o.record))
            .collect();
        let (map_tasks, reduce_tasks) = tasks.split_at(map_outs.len());
        counters.add_since(profile::WALL_FINALIZE_US, finalize_start);
        let metrics = JobMetrics {
            name: name.to_string(),
            nodes: self.config.nodes,
            map: PhaseMetrics::of(map_tasks),
            reduce: PhaseMetrics::of(reduce_tasks),
            task_retries: tasks.iter().map(|t| t.attempt as u64).sum(),
            output_commits: counters.value("mr.output.commits"),
            output_aborts: counters.value("mr.output.aborts"),
            scavenged_attempt_files: counters.value("mr.recovery.scavenged"),
            merge_passes: reduce_outs.iter().map(|o| o.merge_passes).sum(),
            map_input_records: map_outs.iter().map(|o| o.input_records).sum(),
            map_output_records: map_outs.iter().map(|o| o.output_records).sum(),
            combine_input_records: map_outs.iter().map(|o| o.combine_in).sum(),
            combine_output_records: map_outs.iter().map(|o| o.combine_out).sum(),
            shuffle_bytes,
            shuffle_records,
            spills: map_outs.iter().map(|o| o.spills).sum(),
            reduce_input_groups: reduce_outs.iter().map(|o| o.groups).sum(),
            reduce_input_records: reduce_outs.iter().map(|o| o.input_records).sum(),
            reduce_output_records: reduce_outs.iter().map(|o| o.output_records).sum(),
            wall_secs: wall_start.elapsed().as_secs_f64(),
            counters: counters.snapshot(),
            histograms: job_histograms,
            reduce_key_heavy_hitters: heavy_hitters,
            tasks,
        };
        if let Some(t) = &self.trace {
            let mut e = TraceEvent::new(EventKind::JobEnd, &metrics.name);
            e.dur_us = Some((metrics.wall_secs * 1e6) as u64);
            e.bytes = Some(shuffle_bytes);
            e.records = Some(shuffle_records);
            t.emit(e);
        }
        metrics
    }
}

/// Heavy-hitter reduce keys reported per job, for jobs that define a key
/// labeler (see [`crate::Job::key_label`]).
const HEAVY_HITTER_TOP_K: usize = 10;

/// Warn (log line, counter, trace event) when the heaviest reduce key
/// carries more than this share of a job's shuffle records — the
/// operational symptom of a bad token order.
const HEAVY_HITTER_WARN_SHARE: f64 = 0.5;

/// Sketch capacity for per-task heavy-hitter tracking: generously above
/// the reported top-k so near-ties survive task-level merging.
const HEAVY_HITTER_CAPACITY: usize = HEAVY_HITTER_TOP_K * 8;

// ---- generic task pool ----------------------------------------------------

/// Render a caught panic payload as a message (`&str` and `String`
/// payloads are preserved, anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// An attempt's one panic boundary: a panic in `body` becomes
/// [`MrError::TaskPanicked`] here, on the driver's threads and in a worker
/// process alike.
fn panic_boundary<O>(body: impl FnOnce() -> Result<O>) -> Result<O> {
    std::panic::catch_unwind(AssertUnwindSafe(body))
        .unwrap_or_else(|payload| Err(MrError::TaskPanicked(panic_message(payload.as_ref()))))
}

/// Run one task with retries (Hadoop's task attempts). Failed attempts are
/// re-executed only when the error is transient ([`MrError::is_transient`]),
/// as a panicked attempt is — its [`panic_boundary`] has already turned the
/// panic into [`MrError::TaskPanicked`]; permanent errors fail immediately.
/// A retry runs at once: there is no backoff to wait out on one host.
fn run_with_retries<I, O>(
    item: &I,
    max_attempts: usize,
    f: &(impl Fn(&I, usize) -> Result<O> + Sync),
) -> Result<O> {
    for attempt in 0..max_attempts {
        match f(item, attempt) {
            Ok(out) => return Ok(out),
            Err(e) if !e.is_transient() || attempt + 1 == max_attempts => return Err(e),
            Err(_) => {}
        }
    }
    unreachable!("retry loop always returns")
}

/// Re-issue the job-level commit (manifest collect + write) on transient
/// storage faults. The commit is idempotent — `JobManifest::write` replaces
/// any half-written `_SUCCESS` — so a bounded retry is safe. Permanent
/// errors (a corrupt part failing its CRC during collect) propagate
/// immediately.
fn commit_with_retries(mut f: impl FnMut() -> Result<()>) -> Result<()> {
    const MAX_COMMIT_ATTEMPTS: usize = 8;
    let mut attempt = 0;
    loop {
        match f() {
            Ok(()) => return Ok(()),
            Err(e) => {
                attempt += 1;
                if !e.is_transient() || attempt >= MAX_COMMIT_ATTEMPTS {
                    return Err(e);
                }
            }
        }
    }
}

/// Run `items` through `f` on up to `threads` worker threads with per-task
/// retries, failing fast on the first exhausted task. Returns the outputs
/// in completion order.
pub(crate) fn run_tasks<I, O, F>(
    items: Vec<I>,
    threads: usize,
    max_attempts: usize,
    f: F,
) -> Result<Vec<O>>
where
    I: Send,
    O: Send,
    F: Fn(&I, usize) -> Result<O> + Sync,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let workers = threads.clamp(1, items.len());
    let queue: Mutex<Vec<I>> = Mutex::new(items.into_iter().rev().collect());
    let results: Mutex<Vec<O>> = Mutex::new(Vec::new());
    let error: Mutex<Option<MrError>> = Mutex::new(None);
    let work = || loop {
        if error.lock().is_some() {
            return;
        }
        let item = queue.lock().pop();
        let Some(item) = item else { return };
        match run_with_retries(&item, max_attempts, &f) {
            Ok(out) => results.lock().push(out),
            Err(e) => {
                error.lock().get_or_insert(e);
                return;
            }
        }
    };
    // The calling thread is one of the workers. A worker that panics makes
    // `scope` panic after joining the rest.
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    if let Some(e) = error.into_inner() {
        return Err(e);
    }
    Ok(results.into_inner())
}

// ---- one job in flight -----------------------------------------------------

/// One job in flight: the job, the cluster it runs on, the counters and
/// histograms its attempts record into, and its reducer count — everything
/// an attempt reads. The driver builds one per job ([`Cluster::run`]) and a
/// process worker one per request, both with [`JobRun::new`]; running one
/// attempt of task *i* ([`JobRun::map_task`], [`JobRun::reduce_task`]) is
/// all it does. Map task *i* reads `job.inputs[i]`, and each attempt clones
/// the job's mapper or reducer prototype once.
pub(crate) struct JobRun<'a, M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    pub(crate) job: &'a Job<M, R>,
    pub(crate) cluster: &'a Cluster,
    pub(crate) counters: Counters,
    pub(crate) histograms: Histograms,
    pub(crate) num_reducers: usize,
}

/// Where one attempt runs: `(phase, task, attempt, node)`, as
/// [`JobRun::at`] decides it.
pub(crate) type At = (Phase, usize, usize, usize);

impl<'a, M, R> JobRun<'a, M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    /// `job` on `cluster` with fresh counters and histograms, and the job's
    /// reducer count or else one wave of the cluster's reduce slots (a
    /// worker's rebuilt job carries the count the driver resolved).
    pub(crate) fn new(job: &'a Job<M, R>, cluster: &'a Cluster) -> Result<Self> {
        let num_reducers = job
            .num_reducers
            .unwrap_or_else(|| cluster.config.default_reducers());
        if num_reducers == 0 {
            return Err(MrError::InvalidConfig(format!(
                "job {}: need at least one reducer",
                job.name
            )));
        }
        Ok(JobRun {
            job,
            cluster,
            counters: Counters::new(),
            histograms: Histograms::new(),
            num_reducers,
        })
    }

    /// Where attempt `attempt` of task `task` runs: the one place an
    /// attempt's node is decided, whose answer the attempt's body, the
    /// runner's trace events, a lost worker's `NodeLost` and the watchdog's
    /// `task_timeout` all carry, on the driver and in a worker alike. A map
    /// task starts beside its block, a reduce task on node `task % nodes`,
    /// and each retry rotates to the next node — how a re-execution escapes
    /// a dead or unhealthy machine.
    pub(crate) fn at(&self, phase: Phase, task: usize, attempt: usize) -> At {
        let nodes = self.cluster.config.nodes;
        let home = match phase {
            Phase::Map => self.job.inputs[task].node(),
            Phase::Reduce => task,
        };
        (phase, task, attempt, (home + attempt) % nodes)
    }

    /// The context an attempt's user code sees, and the label its errors
    /// carry.
    fn context(&self, (phase, task_id, attempt, node): At) -> (TaskContext, String) {
        let label = format!("{}/{}-{task_id}", self.job.name, phase.as_str());
        let mut ctx = TaskContext::new(
            phase,
            task_id,
            node,
            self.num_reducers,
            self.counters.clone(),
            self.cluster.gauge(label.clone()),
            self.job.cache.clone(),
            self.cluster.dfs.clone(),
        );
        ctx.attempt = attempt;
        ctx.set_histograms(self.histograms.clone());
        (ctx, label)
    }

    /// The fault-injection hook shared by map and reduce attempts: checks
    /// the dead node, then draws this attempt's fault. `Transient`, `Panic`,
    /// and `Oom` fire immediately; `Straggle` and `LateFail` are returned for
    /// the task body to apply.
    fn inject_start_faults(&self, at: At, label: &str) -> Result<Option<Fault>> {
        let (phase, task_id, attempt, node) = at;
        let Some(plan) = &self.cluster.config.faults else {
            return Ok(None);
        };
        if plan.node_is_dead(node) {
            return Err(MrError::NodeLost {
                node,
                task: label.to_string(),
            });
        }
        let fault = plan.decide(&self.job.name, phase, task_id, attempt);
        match fault {
            Some(Fault::Transient) => Err(MrError::TaskFailed(format!(
                "injected transient fault ({label} attempt {attempt})"
            ))),
            Some(Fault::Panic) => panic!("injected user-code panic ({label} attempt {attempt})"),
            Some(Fault::Oom) => Err(MrError::OutOfMemory {
                task: label.to_string(),
                requested: 0,
                budget: 0,
                transient: true,
            }),
            // A worker process hangs for real before dispatch, so no worker
            // attempt gets here with a hang. An attempt on the driver's
            // threads cannot be killed, so its hang degrades to an immediate
            // transient loss — the retry decision a worker's watch reaches,
            // without the wait.
            Some(Fault::Hang) => Err(MrError::NodeLost {
                node,
                task: label.to_string(),
            }),
            // A worker's serve loop silenced its heartbeats before dispatch;
            // an attempt on the driver's threads has none to silence.
            Some(Fault::SlowHeartbeat) => Ok(None),
            other => Ok(other),
        }
    }
}

/// The record of the winning attempt at `at`: it drew `fault`, read
/// `input` (its node hint and bytes) and ran `secs`.
fn task_record(
    at: At,
    fault: Option<Fault>,
    (node_hint, input_bytes): (Option<usize>, u64),
    secs: f64,
) -> TaskRecord {
    let (phase, task, attempt, node) = at;
    let straggle = match fault {
        Some(Fault::Straggle(factor)) => factor,
        _ => 1.0,
    };
    TaskRecord {
        phase,
        task,
        attempt,
        node,
        node_hint,
        input_bytes,
        secs,
        straggle,
    }
}

// ---- map side ---------------------------------------------------------------

/// What the driver keeps of a winning map attempt once its runs are
/// routed: its task record, record counts and the shuffle volume it parked.
pub(crate) struct MapStats {
    pub(crate) record: TaskRecord,
    pub(crate) input_records: u64,
    pub(crate) output_records: u64,
    pub(crate) spills: u64,
    pub(crate) combine_in: u64,
    pub(crate) combine_out: u64,
    /// Encoded bytes and records of the spill runs this attempt parked.
    pub(crate) shuffle_bytes: u64,
    pub(crate) shuffle_records: u64,
}
codec_struct!(MapStats {
    record,
    input_records,
    output_records,
    spills,
    combine_in,
    combine_out,
    shuffle_bytes,
    shuffle_records,
});

/// A winning map attempt: its stats plus its spill runs per partition, in
/// spill order, in whatever form the shuffle transport parked them (`P`).
pub(crate) struct MapTaskOut<P> {
    pub(crate) stats: MapStats,
    pub(crate) runs: Vec<Vec<P>>,
}
codec_struct!(MapTaskOut<P> { stats, runs });

/// A partition's pairs since the last spill, back to back, and each one's
/// `(key, offset, len)` in emission order (Hadoop's map output buffer).
type Part<K> = (Vec<u8>, Vec<(K, usize, usize)>);

/// Map-side output collector with spill-and-combine behaviour; each pair is
/// encoded into its partition's [`Part`] at emit.
struct MapEmitter<'a, K: Key, V: Value> {
    parts: Vec<Part<K>>,
    buffered_bytes: usize,
    threshold: usize,
    grouping: &'a Grouping<K>,
    combiner: Option<&'a CombineFn<K, V>>,
    runs: Vec<Vec<Run>>,
    output_records: u64,
    spills: u64,
    combine_in: u64,
    combine_out: u64,
    /// Seconds spent in `spill()` (sort + copy), for the per-phase profile;
    /// subtracted from the attempt's elapsed time to isolate user map
    /// execution, which includes encoding at emit.
    spill_secs: f64,
    /// Encoded bytes and records produced by `spill()`.
    spill_bytes: u64,
    spill_records: u64,
}

impl<'a, K: Key, V: Value> MapEmitter<'a, K, V> {
    fn new(
        num_partitions: usize,
        threshold: usize,
        grouping: &'a Grouping<K>,
        combiner: Option<&'a CombineFn<K, V>>,
    ) -> Self {
        MapEmitter {
            parts: (0..num_partitions).map(|_| Default::default()).collect(),
            buffered_bytes: 0,
            threshold,
            grouping,
            combiner,
            runs: (0..num_partitions).map(|_| Vec::new()).collect(),
            output_records: 0,
            spills: 0,
            combine_in: 0,
            combine_out: 0,
            spill_secs: 0.0,
            spill_bytes: 0,
            spill_records: 0,
        }
    }

    /// Encode a pair into its partition's buffer and index it under `key`.
    fn put(&mut self, key: K, value: &V) -> Result<()> {
        self.output_records += 1;
        let p = self.grouping.partition(&key, self.parts.len() as u32) as usize;
        debug_assert!(p < self.parts.len(), "partition out of range");
        let (bytes, index) = &mut self.parts[p];
        let at = bytes.len();
        key.encode(bytes);
        value.encode(bytes);
        let len = bytes.len() - at;
        index.push((key, at, len));
        self.buffered_bytes += len;
        if self.buffered_bytes >= self.threshold {
            self.spill()?;
        }
        Ok(())
    }

    /// Park each partition's buffered pairs as one sorted run. The index is
    /// sorted stably by the key's `Ord`, so equal keys keep emission order,
    /// and each pair's bytes are copied; with a combiner the pairs are
    /// decoded and go through [`sort_and_combine`] instead.
    fn spill(&mut self) -> Result<()> {
        let spill_start = Instant::now();
        let mut spilled_any = false;
        for (p, (bytes, index)) in self.parts.iter_mut().enumerate() {
            if index.is_empty() {
                continue;
            }
            spilled_any = true;
            let run = match self.combiner {
                None => {
                    index.sort_by(|a, b| a.0.cmp(&b.0));
                    let mut data = Vec::with_capacity(bytes.len());
                    for &(_, at, len) in index.iter() {
                        data.extend_from_slice(&bytes[at..at + len]);
                    }
                    Run {
                        data: data.into(),
                        records: index.len(),
                    }
                }
                Some(combiner) => {
                    let mut pairs = Vec::with_capacity(index.len());
                    for &(_, at, len) in index.iter() {
                        let mut r = ByteReader::new(&bytes[at..at + len]);
                        pairs.push((K::decode(&mut r)?, V::decode(&mut r)?));
                    }
                    let (cin, cout) = (&mut self.combine_in, &mut self.combine_out);
                    let sort = natural_sort();
                    let sorted = sort_and_combine(pairs, &sort, Some(combiner), cin, cout);
                    Run::encode(&sorted)
                }
            };
            bytes.clear();
            index.clear();
            self.spill_bytes += run.len_bytes() as u64;
            self.spill_records += run.records as u64;
            self.runs[p].push(run);
        }
        if spilled_any {
            self.spills += 1;
        }
        self.buffered_bytes = 0;
        self.spill_secs += spill_start.elapsed().as_secs_f64();
        Ok(())
    }
}

impl<K: Key, V: Value> Emit<K, V> for MapEmitter<'_, K, V> {
    fn emit(&mut self, key: K, value: V) -> Result<()> {
        self.put(key, &value)
    }

    fn emit_ref(&mut self, key: &K, value: &V) -> Result<()> {
        self.put(key.clone(), value)
    }
}

impl<M, R> JobRun<'_, M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    /// Run map attempt `at` behind its panic boundary and hand its spill
    /// runs to `park` — the shuffle transport's map side (see
    /// [`crate::backend::Transport::park`]). Parking happens after the
    /// attempt's measured window closes, so it is never charged to the
    /// attempt's measured seconds.
    pub(crate) fn map_task<P>(
        &self,
        at: At,
        park: impl FnOnce(Vec<Vec<Run>>) -> Result<Vec<Vec<P>>>,
    ) -> Result<MapTaskOut<P>> {
        panic_boundary(|| self.map_attempt(at, park))
    }

    fn map_attempt<P>(
        &self,
        at: At,
        park: impl FnOnce(Vec<Vec<Run>>) -> Result<Vec<Vec<P>>>,
    ) -> Result<MapTaskOut<P>> {
        let (_, task_id, attempt, _) = at;
        let split = &self.job.inputs[task_id];
        let mut mapper = self.job.mapper.clone();
        let start = Instant::now();
        let (mut ctx, label) = self.context(at);
        let fault = self.inject_start_faults(at, &label)?;
        ctx.set_input_path(split.tag());
        let records = split.open(&self.cluster.dfs)?;
        let job = self.job;
        let mut emitter = MapEmitter::new(
            self.num_reducers,
            self.cluster.config.spill_buffer_bytes,
            &job.grouping,
            job.combiner.as_ref(),
        );
        mapper.setup(&ctx)?;
        let mut input_records = 0u64;
        records(&mut |k, v| {
            input_records += 1;
            mapper.map(k, v, &mut emitter, &ctx)
        })?;
        mapper.cleanup(&mut emitter, &ctx)?;
        emitter.spill()?;
        if matches!(fault, Some(Fault::LateFail)) {
            // The work finished but the node died before the map output could
            // be served to reducers; the attempt counts as failed.
            return Err(MrError::TaskFailed(format!(
                "injected late fault: map output lost ({label} attempt {attempt})"
            )));
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Per-phase profile: the attempt's time splits into spill (sort +
        // copy) and everything else (read, user map function and encoding
        // at emit). Recorded only for
        // attempts that got this far, so failed attempts never skew the
        // attribution.
        let counters = &self.counters;
        counters.add_secs(profile::BUSY_SPILL_US, emitter.spill_secs);
        counters
            .get(profile::BUSY_SPILL_BYTES)
            .add(emitter.spill_bytes);
        counters.add_secs(profile::BUSY_MAP_EXEC_US, elapsed - emitter.spill_secs);
        // Shuffle transport, map side: the winning attempt's runs go wherever
        // this backend keeps them until the reduce phase.
        let park_start = Instant::now();
        let runs = park(emitter.runs)?;
        counters.add_since(profile::BUSY_SHUFFLE_TRANSPORT_US, park_start);
        counters
            .get(profile::BUSY_SHUFFLE_TRANSPORT_BYTES)
            .add(emitter.spill_bytes);
        Ok(MapTaskOut {
            stats: MapStats {
                record: task_record(at, fault, (Some(split.node()), split.size()), elapsed),
                input_records,
                output_records: emitter.output_records,
                spills: emitter.spills,
                combine_in: emitter.combine_in,
                combine_out: emitter.combine_out,
                shuffle_bytes: emitter.spill_bytes,
                shuffle_records: emitter.spill_records,
            },
            runs,
        })
    }
}

// ---- reduce side -------------------------------------------------------------

pub(crate) struct ReduceTaskOut {
    pub(crate) record: TaskRecord,
    pub(crate) groups: u64,
    pub(crate) input_records: u64,
    pub(crate) output_records: u64,
    pub(crate) merge_passes: u64,
    /// Distribution of records per reduce group in this task.
    pub(crate) group_records: HistogramSnapshot,
    /// Shuffle records per labeled reduce key (jobs with a key labeler).
    pub(crate) key_counts: Option<SpaceSaving<String>>,
}
codec_struct!(ReduceTaskOut {
    record,
    groups,
    input_records,
    output_records,
    merge_passes,
    group_records,
    key_counts,
});

/// Reduce-side output collector writing to the DFS.
struct ReduceEmitter<K, V> {
    /// The attempt's output file and, for text output, how a pair becomes
    /// a line; `None` for a job without output.
    sink: Option<(BlockWriter, Option<TextFormat<K, V>>)>,
    records: u64,
}

impl<K: Value, V: Value> ReduceEmitter<K, V> {
    /// Open an *attempt-scoped* output: each attempt writes to its own
    /// hidden `_attempt-<task>-<n>` path, never directly to the part file.
    /// A stale file from a retried attempt that died post-close is
    /// replaced.
    fn open(dfs: &Dfs, output: &Output<K, V>, task_id: usize, attempt: usize) -> Result<Self> {
        let path = output.dir().map(|dir| attempt_path(dir, task_id, attempt));
        if let Some(path) = &path {
            let _ = dfs.delete(path);
        }
        let sink = match (output, path) {
            (Output::Seq(_), Some(path)) => Some((dfs.seq_writer(&path)?, None)),
            (Output::Text(_, fmt), Some(path)) => {
                Some((dfs.text_writer(&path)?, Some(fmt.clone())))
            }
            _ => None,
        };
        Ok(ReduceEmitter { sink, records: 0 })
    }

    fn close(self) -> Result<u64> {
        if let Some((writer, _)) = self.sink {
            writer.close()?;
        }
        Ok(self.records)
    }
}

fn part_path(dir: &str, task_id: usize) -> String {
    format!("{}/part-{task_id:05}", dir.trim_end_matches('/'))
}

/// Hidden per-attempt output path; promoted to [`part_path`] on commit.
fn attempt_path(dir: &str, task_id: usize, attempt: usize) -> String {
    format!(
        "{}/_attempt-{task_id:05}-{attempt}",
        dir.trim_end_matches('/')
    )
}

impl<K: Value, V: Value> Emit<K, V> for ReduceEmitter<K, V> {
    fn emit(&mut self, key: K, value: V) -> Result<()> {
        self.emit_ref(&key, &value)
    }

    fn emit_ref(&mut self, key: &K, value: &V) -> Result<()> {
        self.records += 1;
        match &mut self.sink {
            None => {}
            Some((w, None)) => w.write(key, value),
            Some((w, Some(fmt))) => w.write_line(&fmt(key, value)),
        }
        Ok(())
    }
}

impl<M, R> JobRun<'_, M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    /// Run reduce attempt `at` behind its panic boundary over the runs
    /// `fetch` returns — the shuffle transport's reduce side (see
    /// [`crate::backend::Transport::fetch`]), called before the attempt's
    /// measured window opens. The attempt's file operations happen where
    /// it runs: a winning attempt renames its output to the part file, a
    /// failed one deletes it (Hadoop's `OutputCommitter.abortTask`), so it
    /// can never be read as output. The runner counts both.
    pub(crate) fn reduce_task(
        &self,
        at: At,
        fetch: impl FnOnce() -> Result<Vec<Run>>,
    ) -> Result<ReduceTaskOut> {
        let result = panic_boundary(|| self.reduce_attempt(at, fetch));
        if let (Err(_), Some(dir)) = (&result, self.job.output.dir()) {
            let (_, task_id, attempt, _) = at;
            let _ = self
                .cluster
                .dfs
                .delete(&attempt_path(dir, task_id, attempt));
        }
        result
    }

    fn reduce_attempt(
        &self,
        at: At,
        fetch: impl FnOnce() -> Result<Vec<Run>>,
    ) -> Result<ReduceTaskOut> {
        let (_, task_id, attempt, _) = at;
        let counters = &self.counters;
        let fetch_start = Instant::now();
        let runs = fetch()?;
        counters.add_since(profile::BUSY_SHUFFLE_TRANSPORT_US, fetch_start);
        let mut reducer = self.job.reducer.clone();
        let start = Instant::now();
        let input_bytes: u64 = runs.iter().map(|r| r.len_bytes() as u64).sum();
        let (ctx, label) = self.context(at);
        let fault = self.inject_start_faults(at, &label)?;
        // Multi-pass merge when this partition has more runs than one pass may
        // open.
        let job = self.job;
        let merge_start = Instant::now();
        let (runs, merge_passes) = merge_to_factor::<M::OutKey, M::OutValue>(runs, MERGE_FACTOR)?;
        let mut stream = MergeStream::<M::OutKey, M::OutValue>::new(runs, natural_sort())?;
        let merge_secs = merge_start.elapsed().as_secs_f64();
        // A part is made durable by its job's commit, not by its attempt.
        let mut out_dfs = self.cluster.dfs.clone();
        out_dfs.set_durable(false);
        let mut emitter = ReduceEmitter::open(&out_dfs, &job.output, task_id, attempt)?;
        reducer.setup(&ctx)?;
        let mut groups = 0u64;
        let group_hist = Histogram::new();
        let mut key_counts = job
            .key_label
            .as_ref()
            .map(|_| SpaceSaving::new(HEAVY_HITTER_CAPACITY));
        let mut read_before = 0u64;
        while let Some(first_key) = stream.peek_key().cloned() {
            let mut group = GroupValues::new(&mut stream, first_key.clone(), &job.grouping);
            reducer.reduce(&first_key, &mut group, &mut emitter, &ctx)?;
            group.drain()?;
            let read = stream.records_read();
            let in_group = read - read_before;
            read_before = read;
            group_hist.record_count(in_group);
            if let (Some(tk), Some(kl)) = (key_counts.as_mut(), &job.key_label) {
                tk.add(kl(&first_key), in_group);
            }
            groups += 1;
        }
        reducer.cleanup(&mut emitter, &ctx)?;
        let input_records = stream.records_read();
        let output_records = emitter.close()?;
        // The measured window ends here: commit bookkeeping and trace emission
        // below are never charged to the attempt's measured seconds.
        let elapsed = start.elapsed().as_secs_f64();
        if matches!(fault, Some(Fault::LateFail)) {
            // The attempt wrote its full output but died before committing —
            // the exact window the commit protocol exists for. The uncommitted
            // `_attempt-*` file is discarded by the abort path.
            return Err(MrError::TaskFailed(format!(
                "injected late fault: died before commit ({label} attempt {attempt})"
            )));
        }
        // Per-phase profile: merge vs. user reduce execution, recorded only
        // for attempts that survived (failed attempts never skew attribution).
        counters.add_secs(profile::BUSY_MERGE_US, merge_secs);
        counters.add_secs(profile::BUSY_REDUCE_EXEC_US, elapsed - merge_secs);
        // Task commit: atomically promote the attempt file to the part file.
        // Exactly one attempt per task ever gets here, so commits == tasks.
        if let Some(dir) = job.output.dir() {
            out_dfs.rename(
                &attempt_path(dir, task_id, attempt),
                &part_path(dir, task_id),
            )?;
        }
        Ok(ReduceTaskOut {
            record: task_record(at, fault, (None, input_bytes), elapsed),
            groups,
            input_records,
            output_records,
            merge_passes,
            group_records: group_hist.snapshot(),
            key_counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The attempt that succeeded.
    #[derive(Debug)]
    struct TestOut {
        attempt: usize,
    }

    fn attempts_until<E>(max_attempts: usize, fail_with: E) -> (Result<TestOut>, usize)
    where
        E: Fn(usize) -> Option<MrError> + Sync,
    {
        let calls = AtomicUsize::new(0);
        let result = run_with_retries(&(), max_attempts, &|_, attempt| {
            calls.fetch_add(1, Ordering::Relaxed);
            match fail_with(attempt) {
                Some(e) => Err(e),
                None => Ok(TestOut { attempt }),
            }
        });
        (result, calls.load(Ordering::Relaxed))
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let (result, calls) = attempts_until(5, |attempt| {
            (attempt < 2).then(|| MrError::TaskFailed("flaky".into()))
        });
        let out = result.unwrap();
        assert_eq!(calls, 3);
        assert_eq!(out.attempt, 2);
    }

    #[test]
    fn transient_errors_exhaust_attempts() {
        let (result, calls) = attempts_until(3, |_| Some(MrError::TaskFailed("always".into())));
        assert!(matches!(result, Err(MrError::TaskFailed(_))));
        assert_eq!(calls, 3, "transient failures burn every attempt");
    }

    #[test]
    fn permanent_errors_fail_fast_per_variant() {
        let permanent: Vec<MrError> = vec![
            MrError::InvalidConfig("bad".into()),
            MrError::Codec("garbled".into()),
            MrError::FileNotFound("/x".into()),
            MrError::FileExists("/x".into()),
            MrError::OutOfMemory {
                task: "t".into(),
                requested: 2,
                budget: 1,
                transient: false,
            },
        ];
        for e in permanent {
            let (result, calls) = attempts_until(5, |_| Some(e.clone()));
            assert_eq!(result.unwrap_err(), e);
            assert_eq!(calls, 1, "permanent {e:?} must not be retried");
        }
    }

    #[test]
    fn transient_variants_are_each_retried() {
        let transient: Vec<MrError> = vec![
            MrError::TaskFailed("flaky".into()),
            MrError::TaskPanicked("boom".into()),
            MrError::NodeLost {
                node: 1,
                task: "t".into(),
            },
            MrError::OutOfMemory {
                task: "t".into(),
                requested: 2,
                budget: 1,
                transient: true,
            },
        ];
        for e in transient {
            let (result, calls) = attempts_until(2, |attempt| (attempt == 0).then(|| e.clone()));
            assert!(result.is_ok(), "{e:?} should be retried to success");
            assert_eq!(calls, 2);
        }
    }

    #[test]
    fn panics_become_classified_attempt_failures() {
        // The attempt's own boundary turns the panic into a transient error,
        // and the retry loop takes it from there.
        let calls = AtomicUsize::new(0);
        let attempt = |_: &(), attempt| {
            panic_boundary(|| {
                if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("user code exploded");
                }
                Ok(TestOut { attempt })
            })
        };
        match run_with_retries(&(), 1, &attempt) {
            Err(MrError::TaskPanicked(msg)) => assert!(msg.contains("user code exploded")),
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        // A panicking attempt is retried like any transient failure.
        calls.store(0, Ordering::Relaxed);
        assert!(run_with_retries(&(), 2, &attempt).is_ok());
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    use crate::codec::Codec;

    /// What a spill sequence looks like from outside: each partition's runs
    /// as `(bytes, records)`, then spills, combine in/out, spilled records
    /// and spilled bytes.
    type Spills = (Vec<Vec<(Vec<u8>, usize)>>, [u64; 5]);

    fn as_bytes(runs: &[Vec<Run>]) -> Vec<Vec<(Vec<u8>, usize)>> {
        let run = |r: &Run| (r.data.to_vec(), r.records);
        runs.iter()
            .map(|part| part.iter().map(run).collect())
            .collect()
    }

    /// The map side before pairs were encoded at emit, kept as the oracle:
    /// typed pairs per partition, counted by their encoded sizes, spilled
    /// through `sort_and_combine` and `Run::encode` once the count reaches
    /// the threshold, and once more when the task ends.
    fn typed_spills<V: Value>(
        pairs: &[(String, V)],
        (parts, threshold): (usize, usize),
        combiner: Option<&CombineFn<String, V>>,
    ) -> Spills {
        let cmp = natural_sort();
        let mut buffers: Vec<Vec<(String, V)>> = vec![Vec::new(); parts];
        let mut runs: Vec<Vec<Run>> = vec![Vec::new(); parts];
        let (mut buffered, mut spills, mut cin, mut cout) = (0, 0, 0, 0);
        for (i, (k, v)) in pairs.iter().enumerate() {
            buffered += k.to_bytes().len() + v.to_bytes().len();
            let p = (crate::stable_hash(k) % parts as u64) as usize;
            buffers[p].push((k.clone(), v.clone()));
            if buffered < threshold && i + 1 < pairs.len() {
                continue;
            }
            for (p, buffer) in buffers.iter_mut().enumerate() {
                let pairs = std::mem::take(buffer);
                if !pairs.is_empty() {
                    let sorted = sort_and_combine(pairs, &cmp, combiner, &mut cin, &mut cout);
                    runs[p].push(Run::encode(&sorted));
                }
            }
            spills += 1;
            buffered = 0;
        }
        let records = runs.iter().flatten().map(|r| r.records as u64).sum();
        let bytes = runs.iter().flatten().map(|r| r.len_bytes() as u64).sum();
        (as_bytes(&runs), [spills, cin, cout, records, bytes])
    }

    /// The same pairs through [`MapEmitter`], by value or by reference.
    fn emitted_spills<V: Value>(
        pairs: &[(String, V)],
        (parts, threshold): (usize, usize),
        combiner: Option<&CombineFn<String, V>>,
        by_ref: bool,
    ) -> Spills {
        let grouping = Grouping::whole_key();
        let mut e = MapEmitter::new(parts, threshold, &grouping, combiner);
        for (k, v) in pairs {
            match by_ref {
                true => e.emit_ref(k, v).unwrap(),
                false => e.emit(k.clone(), v.clone()).unwrap(),
            }
        }
        e.spill().unwrap();
        let totals = [
            e.spills,
            e.combine_in,
            e.combine_out,
            e.spill_records,
            e.spill_bytes,
        ];
        (as_bytes(&e.runs), totals)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every run the emitter parks, and every spill point and counter,
        /// is what the typed path made of the same pairs: with and without a
        /// combiner, by value and by reference, with spill buffers that force
        /// many spills or few. Keys repeat and each value carries its
        /// emission index, so a sort that is not stable shows.
        #[test]
        fn the_emitter_spills_what_the_typed_path_spilled(
            keys in proptest::collection::vec(("[a-d]{0,3}", ".{0,6}"), 0..300),
            parts in 1usize..5,
            threshold in proptest::prop_oneof![1usize..160, 160usize..4000],
            by_ref in proptest::prelude::any::<bool>(),
        ) {
            let shape = (parts, threshold);
            let tagged: Vec<(String, (u64, String))> = keys
                .iter()
                .enumerate()
                .map(|(i, (k, payload))| (k.clone(), (i as u64, payload.clone())))
                .collect();
            let typed = typed_spills(&tagged, shape, None);
            proptest::prop_assert_eq!(emitted_spills(&tagged, shape, None, by_ref), typed);
            let counted: Vec<(String, u64)> =
                keys.iter().enumerate().map(|(i, (k, _))| (k.clone(), i as u64)).collect();
            let sum = crate::reducer::sum_combiner::<String>();
            let typed = typed_spills(&counted, shape, Some(&sum));
            let emitted = emitted_spills(&counted, shape, Some(&sum), by_ref);
            proptest::prop_assert_eq!(emitted, typed);
        }
    }
}
