//! Per-phase profiling: wall-window coverage, output neutrality, and the
//! profile each job's metrics carry back from a run.
//!
//! The profiler rides the ordinary counter channel, so it must hold on
//! every backend — on the process backend these closure-built jobs, which
//! no worker could rebuild, run on the driver's threads over run files.
//! Real out-of-process counter merging is covered by `tests/process.rs`.

use mapreduce::{
    text_input, BackendKind, ClosureMapper, ClosureReducer, Cluster, ClusterConfig, Emit, Job,
    JobMetrics, JobProfile, TaskContext, TraceSink,
};

fn corpus(records: usize) -> Vec<String> {
    (0..records).map(|i| format!("k{} v{i}", i % 13)).collect()
}

/// Enough records for the probe's spills and attribution to show.
const SHORT: usize = 400;

/// Enough records that a job lasts 50 ms or more (130–180 ms unoptimised on
/// the 2-vCPU reference host). The coverage contract allows 5 % of the job
/// wall outside the phase windows; one preemption between two windows is
/// more than that of a 5 ms job, and not of this one.
const LONG: usize = 25_000;

/// Held by the tests that assert coverage: libtest runs this file's tests
/// on parallel threads, and two four-thread jobs on a two-core host stall
/// each other for longer between windows than either job's 5 % allows.
static TIMED: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn timed() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock is another timed test's failed assertion.
    TIMED.lock().unwrap_or_else(|e| e.into_inner())
}

fn config(backend: BackendKind) -> ClusterConfig {
    ClusterConfig {
        backend,
        execution_threads: Some(4),
        spill_buffer_bytes: 1024,
        ..ClusterConfig::with_nodes(3)
    }
}

/// Run the standard probe job over `records` records, with a trace sink
/// attached when `traced`; returns (metrics, committed pairs).
fn run_probe(
    config: ClusterConfig,
    records: usize,
    traced: bool,
) -> (JobMetrics, Vec<(String, String)>) {
    let mut cluster = Cluster::new(config, 256).unwrap();
    if traced {
        cluster.set_trace(TraceSink::new());
    }
    cluster.dfs().write_text("/in", corpus(records)).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64, line: &String, out: &mut dyn Emit<String, String>, _: &TaskContext| {
            let (k, v) = line.split_once(' ').unwrap();
            out.emit(k.to_string(), v.to_string())
        },
    );
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, String)>,
         out: &mut dyn Emit<String, String>,
         _: &TaskContext| {
            let joined: Vec<String> = vs.map(|(_, v)| v).collect();
            out.emit(k.clone(), joined.join(","))
        },
    );
    let job = Job::new("probe", mapper, reducer)
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let metrics = cluster.run(job).unwrap();
    let pairs = cluster.dfs().read_seq("/out").unwrap();
    (metrics, pairs)
}

#[test]
fn wall_windows_cover_job_wall_on_every_backend() {
    let _alone = timed();
    for backend in [BackendKind::Simulated, BackendKind::Process] {
        let (metrics, _) = run_probe(config(backend), LONG, false);
        let prof = JobProfile::from_metrics(&metrics);
        assert!(!prof.is_empty(), "{backend:?}: no phase counters recorded");
        let coverage = prof.coverage(metrics.wall_secs);
        assert!(
            coverage >= 0.95,
            "{backend:?}: wall windows cover {:.1}% of {:.4}s job wall ({:?})",
            coverage * 100.0,
            metrics.wall_secs,
            prof.wall_phases(),
        );
        // Non-overlapping windows can never exceed the job wall by more
        // than scheduling noise.
        assert!(
            coverage <= 1.05,
            "{backend:?}: windows overlap: coverage {coverage:.3}"
        );
    }
}

#[test]
fn busy_attribution_is_recorded_and_consistent() {
    let (metrics, _) = run_probe(config(BackendKind::Simulated), SHORT, false);
    let prof = JobProfile::from_metrics(&metrics);
    // The probe spills (1 KiB buffer over 400 records), so spill bytes and
    // map-exec time must both be visible.
    assert!(prof.busy_spill_bytes > 0, "no spill bytes attributed");
    assert!(prof.busy_map_exec_us > 0, "no map-exec time attributed");
    assert!(
        prof.busy_reduce_exec_us > 0,
        "no reduce-exec time attributed"
    );
    // Spilled bytes travel the shuffle: transport bytes match spill bytes
    // (they are counted where each winning attempt parks its runs).
    assert_eq!(prof.busy_shuffle_transport_bytes, prof.busy_spill_bytes);
}

#[test]
fn tracing_never_changes_committed_output() {
    for backend in [BackendKind::Simulated, BackendKind::Process] {
        let (_, off) = run_probe(config(backend), SHORT, false);
        let (_, on) = run_probe(config(backend), SHORT, true);
        assert_eq!(off, on, "{backend:?}: tracing changed committed bytes");
    }
}

/// The metrics of two untraced jobs run back to back on one cluster.
fn two_jobs() -> Vec<JobMetrics> {
    let cluster = Cluster::new(config(BackendKind::Simulated), 256).unwrap();
    // The caller asserts coverage, hence the long jobs.
    cluster.dfs().write_text("/in", corpus(LONG)).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64, line: &String, out: &mut dyn Emit<String, u64>, _: &TaskContext| {
            out.emit(line.split(' ').next().unwrap().to_string(), 1)
        },
    );
    let reducer = ClosureReducer::new(
        |k: &String,
         vs: &mut dyn Iterator<Item = (String, u64)>,
         out: &mut dyn Emit<String, u64>,
         _: &TaskContext| out.emit(k.clone(), vs.count() as u64),
    );
    ["first", "second"]
        .map(|name| {
            let job = Job::new(name, mapper.clone(), reducer.clone())
                .inputs(text_input(cluster.dfs(), "/in").unwrap())
                .output_seq(format!("/out-{name}"));
            cluster.run(job).unwrap()
        })
        .into()
}

/// Every job's metrics carry its own profile, with no trace sink needed to
/// read it: the windows cover each job's wall.
#[test]
fn one_profile_event_per_traced_job() {
    let _alone = timed();
    let jobs = two_jobs();
    let names: Vec<&str> = jobs.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["first", "second"]);
    for metrics in &jobs {
        let profile = JobProfile::from_metrics(metrics);
        let coverage = profile.coverage(metrics.wall_secs);
        assert!(
            coverage >= 0.95,
            "{}: coverage {coverage:.3} below 95%",
            metrics.name
        );
        let json = profile.to_json(metrics.wall_secs);
        assert!(json.get("wall_us").is_some());
        assert!(json.get("busy_us").is_some());
    }
}
