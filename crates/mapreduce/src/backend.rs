//! Execution backends: one task runner, two shuffle transports.
//!
//! [`Cluster::run`](crate::Cluster::run) is a backend-neutral driver
//! (validation, recovery scavenging, the commit protocol, metrics) around
//! the middle that [`execute`] owns. Every backend runs that middle through
//! the same function, [`run_phases`]: *run the map tasks, regroup their
//! spill runs per reduce partition, run the reduce tasks*, on the same
//! retrying task pool. The only thing that varies is the [`Transport`] —
//! how a winning map attempt's runs are parked and how a reduce attempt
//! gets them back:
//!
//! | backend | transport | parked form | where attempts run |
//! |---|---|---|---|
//! | [`BackendKind::Simulated`] | [`InMemory`] | the [`Run`] itself | driver threads |
//! | [`BackendKind::Process`] | [`crate::remote::ProcessTransport`] | a `RunRef` to a checksummed frame of the map attempt's run file | the cluster's worker processes; driver threads for a closure-built job, and for an attempt that finds every worker slot quarantined |
//!
//! # Determinism contract
//!
//! Every backend must produce **byte-identical committed output** for the
//! same job on the same DFS. That holds regardless of thread interleaving
//! because
//!
//! * an attempt's coordinates — including the node label used for fault
//!   injection — come from one function, `JobRun::at`, pure in the job and
//!   `(task_id, attempt)`, never from the executing thread or process;
//! * equal keys surface in reduce in *run presentation order*, and the
//!   runner's regroup hands every partition its runs in `(map task, spill)`
//!   order whatever order the map tasks finished in;
//! * reduce work only starts after the whole map phase has succeeded, so a
//!   map failure always preempts reduce execution.
//!
//! The runner runs on the driver on every backend, and it records every
//! attempt — its trace span and its output commit or abort — so a worker
//! process's attempts are traced and counted as the driver's own are.
//!
//! Every backend reports the same [`crate::TaskRecord`]s but their measured
//! seconds: the winning attempt, its node and its injected slow-down come
//! from the same pure decisions everywhere. What a modelled cluster makes
//! of the records is computed outside the engine (`fuzzyjoin::model`).

use std::time::Instant;

use crate::engine::{run_tasks, At, JobRun, MapStats, MapTaskOut, ReduceTaskOut};
use crate::error::{MrError, Result};
use crate::mapper::Mapper;
use crate::profile;
use crate::reducer::Reducer;
use crate::remote::ProcessTransport;
use crate::run::Run;
use crate::supervise::Watchdog;
use crate::task::Phase;
use crate::trace::{EventKind, Outcome, TraceEvent};

/// Which execution backend a [`ClusterConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The deterministic in-process executor: attempts on the driver's
    /// thread pool, a serial shuffle regroup — the reference semantics.
    #[default]
    Simulated,
    /// Process-isolated workers over a disk-backed DFS: the driver
    /// re-spawns its own executable as one pool of worker processes per
    /// [`crate::Cluster`] and frames task assignments over stdin/stdout
    /// pipes (see [`crate::remote`]). Only a job no worker can rebuild —
    /// one without a [`crate::RemoteJobSpec`] — runs on the driver's
    /// threads, over the same run files.
    Process,
}

impl BackendKind {
    /// Parse a CLI-style backend name (`simulated` or `process`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "simulated" => Some(BackendKind::Simulated),
            "process" => Some(BackendKind::Process),
            _ => None,
        }
    }

    /// Backend selected by the `MR_BACKEND` environment variable, falling
    /// back to the default. Test suites use this so CI's `backend-parity`
    /// job can re-run them wholesale on another backend; an unrecognized
    /// value panics rather than silently testing the default.
    pub fn from_env() -> Self {
        match std::env::var("MR_BACKEND") {
            Ok(name) => Self::parse(&name).unwrap_or_else(|| {
                panic!("bad MR_BACKEND={name:?} (expected simulated or process)")
            }),
            Err(_) => Self::default(),
        }
    }

    /// The CLI-style name of this backend.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Simulated => "simulated",
            BackendKind::Process => "process",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the runner hands back to the driver. A top-level `Err` from
/// [`execute`] means the **map phase** failed (the driver propagates it
/// without touching the output directory); `reduce_result` carries the
/// reduce phase's outcome so the driver can run the job-level commit/abort
/// protocol around it. Both output lists are in task order.
pub(crate) struct ExecOutcome {
    pub(crate) map_outs: Vec<MapStats>,
    pub(crate) reduce_result: Result<Vec<ReduceTaskOut>>,
}

/// How spill runs travel from the map attempt that produced them to the
/// reduce attempts that merge them — the one thing that differs between
/// the backends.
pub(crate) trait Transport: Sync {
    /// The parked form of one spill run: what a map attempt returns and
    /// the regroup routes.
    type Parked: Send + Sync;

    /// Park a winning map attempt's runs (outer index = partition, inner
    /// = spill order) and return their parked forms in the same shape.
    fn park(
        &self,
        task_id: usize,
        attempt: usize,
        runs: Vec<Vec<Run>>,
    ) -> Result<Vec<Vec<Self::Parked>>>;

    /// Get parked runs back, in the order given.
    fn fetch(&self, parked: &[Self::Parked]) -> Result<Vec<Run>>;

    /// Run map attempt `at` somewhere that parks its own output. `Ok(None)`
    /// (the default) means "run it on this thread".
    fn remote_map(&self, _at: At) -> Result<Option<MapTaskOut<Self::Parked>>> {
        Ok(None)
    }

    /// Run reduce attempt `at` somewhere that fetches its own input.
    /// `Ok(None)` (the default) means "run it on this thread".
    fn remote_reduce(&self, _at: At, _parked: &[Self::Parked]) -> Result<Option<ReduceTaskOut>> {
        Ok(None)
    }
}

/// The simulated backend's transport: a run stays where the map attempt
/// left it (a [`Run`] is reference-counted, so fetching is a pointer copy).
pub(crate) struct InMemory;

impl Transport for InMemory {
    type Parked = Run;

    fn park(&self, _task: usize, _attempt: usize, runs: Vec<Vec<Run>>) -> Result<Vec<Vec<Run>>> {
        Ok(runs)
    }

    fn fetch(&self, parked: &[Run]) -> Result<Vec<Run>> {
        Ok(parked.to_vec())
    }
}

/// Run one job's map and reduce phases on the backend its config selects.
pub(crate) fn execute<M, R>(run: &JobRun<'_, M, R>) -> Result<ExecOutcome>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    let config = run.cluster.config();
    let counters = &run.counters;
    let threads = config.physical_threads();
    // Supervision follows the deadline: `None` without one, on every
    // backend.
    let watchdog = Watchdog::new(config, counters, run.cluster.trace(), &run.job.name);
    let watchdog = watchdog.as_ref();
    match config.backend {
        BackendKind::Simulated => run_phases(run, threads, &InMemory, watchdog),
        BackendKind::Process => {
            let spawn_start = Instant::now();
            // The pool is the cluster's; holding it runs the cluster's jobs
            // one at a time.
            let mut pool = run.cluster.worker_pool().lock();
            let workers = ProcessTransport::begin(&mut pool, run, watchdog)?;
            counters.add_since(profile::WALL_SPAWN_US, spawn_start);
            let result = run_phases(run, workers.size(), &workers, watchdog);
            // Closing the job and spill cleanup close the reduce window, so
            // the windows still tile the backend's whole execution.
            let teardown_start = Instant::now();
            workers.end();
            counters.add_since(profile::WALL_REDUCE_US, teardown_start);
            result
        }
    }
}

/// The one place a job's phases are sequenced: map tasks → regroup the
/// parked runs per reduce partition → reduce tasks, on up to `threads`
/// pool threads, with the three wall windows taken back-to-back around
/// them. A map task is its index into the job's inputs, a reduce task its
/// partition and the runs parked for it. Each attempt is placed by
/// [`JobRun::at`] and [`recorded`] here; one the transport does not run
/// elsewhere runs on this pool thread, under `watchdog` if supervised.
fn run_phases<M, R, T>(
    run: &JobRun<'_, M, R>,
    threads: usize,
    shuffle: &T,
    watchdog: Option<&Watchdog>,
) -> Result<ExecOutcome>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
    T: Transport,
{
    let max_attempts = run.cluster.config().max_task_attempts;
    let exec_start = Instant::now();
    let map_tasks = (0..run.job.inputs.len()).collect();
    let map_io = |o: &MapTaskOut<T::Parked>| (o.stats.record.input_bytes, o.stats.output_records);
    let mut map_outs = run_tasks(map_tasks, threads, max_attempts, |&task, attempt| {
        let at = run.at(Phase::Map, task, attempt);
        recorded(run, at, map_io, || match shuffle.remote_map(at)? {
            Some(out) => Ok(out),
            None => Watchdog::supervised(watchdog, at, || {
                run.map_task(at, |runs| shuffle.park(task, attempt, runs))
            }),
        })
    })?;
    let map_done = exec_start.elapsed().as_secs_f64();

    // Regroup: visit map outputs in task order and each task's runs in
    // spill order — the canonical run presentation order, whichever order
    // the tasks finished in.
    map_outs.sort_by_key(|o| o.stats.record.task);
    let mut partitions: Vec<Vec<T::Parked>> = (0..run.num_reducers).map(|_| Vec::new()).collect();
    let mut map_outs_stats = Vec::with_capacity(map_outs.len());
    for out in map_outs {
        for (partition, runs) in partitions.iter_mut().zip(out.runs) {
            partition.extend(runs);
        }
        map_outs_stats.push(out.stats);
    }
    let regroup_done = exec_start.elapsed().as_secs_f64();

    let reduce_tasks = partitions.into_iter().enumerate().collect();
    let reduce_result = run_tasks(
        reduce_tasks,
        threads,
        max_attempts,
        |&(task, ref parked), attempt| {
            let at = run.at(Phase::Reduce, task, attempt);
            let reduce_io = |o: &ReduceTaskOut| (o.record.input_bytes, o.output_records);
            recorded(run, at, reduce_io, || {
                match shuffle.remote_reduce(at, parked)? {
                    Some(out) => Ok(out),
                    None => Watchdog::supervised(watchdog, at, || {
                        run.reduce_task(at, || shuffle.fetch(parked))
                    }),
                }
            })
        },
    )
    .map(|mut outs| {
        outs.sort_by_key(|o| o.record.task);
        outs
    });
    let reduce_done = exec_start.elapsed().as_secs_f64();
    let counters = &run.counters;
    counters.add_secs(profile::WALL_MAP_US, map_done);
    for regroup in [profile::WALL_REGROUP_US, profile::BUSY_REGROUP_US] {
        counters.add_secs(regroup, regroup_done - map_done);
    }
    counters.add_secs(profile::WALL_REDUCE_US, reduce_done - regroup_done);
    Ok(ExecOutcome {
        map_outs: map_outs_stats,
        reduce_result,
    })
}

/// One attempt as the driver records it, wherever `body` runs it. With a
/// sink, `body` is bracketed by a `task_start` and exactly one `task_end`
/// (fault label, outcome, error, the attempt's `io`). A reduce attempt of a
/// job with output then counts and traces its `commit` or `abort` (a lost
/// worker's attempt aborts too; the job commit sweeps its `_attempt-*`
/// file), so events equal counters on every backend.
fn recorded<M, R, O>(
    run: &JobRun<'_, M, R>,
    at: At,
    io: impl Fn(&O) -> (u64, u64),
    body: impl FnOnce() -> Result<O>,
) -> Result<O>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    let (phase, task, attempt, node) = at;
    let trace = run.cluster.trace();
    let event = |kind| TraceEvent::new(kind, &run.job.name).at_task(phase, task, attempt, node);
    let result = match trace {
        None => body(),
        Some(sink) => {
            let config = run.cluster.config();
            // `decide` is pure in `(job, phase, task, attempt)`: this is the
            // fault the attempt draws itself, in whichever process it runs.
            let fault = config.faults.as_ref().and_then(|plan| {
                if plan.node_is_dead(node) {
                    return Some("dead_node".to_string());
                }
                let fault = plan.decide(&run.job.name, phase, task, attempt)?;
                Some(format!("{fault:?}").to_lowercase())
            });
            let (mut start, mut end) = (event(EventKind::TaskStart), event(EventKind::TaskEnd));
            (start.fault, end.fault) = (fault.clone(), fault);
            sink.emit(start);
            let t0 = Instant::now();
            let result = body();
            end.dur_us = Some((t0.elapsed().as_micros() as u64).max(1));
            let (outcome, error) = match &result {
                Ok(out) => {
                    let (bytes, records) = io(out);
                    (end.bytes, end.records) = (Some(bytes), Some(records));
                    (Outcome::Ok, None)
                }
                // A panic reaches the runner as its attempt boundary's
                // `TaskPanicked`, in whichever process it ran.
                Err(MrError::TaskPanicked(message)) => (Outcome::Panicked, Some(message.clone())),
                Err(e) => (Outcome::Failed, Some(e.to_string())),
            };
            (end.outcome, end.error) = (Some(outcome), error);
            sink.emit(end);
            result
        }
    };
    if phase == Phase::Reduce && run.job.output.dir().is_some() {
        let (counter, kind) = match result {
            Ok(_) => ("mr.output.commits", EventKind::Commit),
            Err(_) => ("mr.output.aborts", EventKind::Abort),
        };
        run.counters.get(counter).incr();
        if let Some(sink) = trace {
            sink.emit(event(kind));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_cli_names() {
        assert_eq!(
            BackendKind::parse("simulated"),
            Some(BackendKind::Simulated)
        );
        assert_eq!(BackendKind::parse("process"), Some(BackendKind::Process));
        assert_eq!(BackendKind::parse("async"), None);
        assert_eq!(BackendKind::default(), BackendKind::Simulated);
        for kind in [BackendKind::Simulated, BackendKind::Process] {
            assert_eq!(BackendKind::parse(&kind.to_string()), Some(kind));
        }
    }
}
