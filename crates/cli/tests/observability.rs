//! End-to-end observability: a full 3-stage CLI run must produce a
//! Perfetto-loadable trace with one complete span per task attempt, a
//! schema-versioned metrics JSON matching the in-process metrics, and
//! bitwise-identical join output with tracing on, off, and under chaos.

use std::fs;

use fuzzyjoin_cli::run;
use mapreduce::{EventKind, Json, TraceSink};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("fuzzyjoin-cli-observability");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// The corpus every test joins, written once: the tests run on parallel
/// threads, and a second `gen` would truncate the file under a running join.
fn corpus() -> String {
    static CORPUS: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    CORPUS
        .get_or_init(|| {
            let path = tmp("corpus.tsv");
            run(&argv(&format!(
                "gen --kind dblp --records 250 --scale 2 --seed 11 --out {path}"
            )))
            .unwrap();
            path
        })
        .clone()
}

#[test]
fn selfjoin_emits_trace_metrics_and_report() {
    let corpus = corpus();
    let pairs = tmp("pairs.tsv");
    let trace = tmp("trace.jsonl");
    let metrics = tmp("metrics.json");
    let msg = run(&argv(&format!(
        "selfjoin --input {corpus} --out {pairs} --threshold 0.8 --nodes 3 \
         --trace-out {trace} --metrics-json {metrics}"
    )))
    .unwrap();
    assert!(msg.contains("trace ("), "{msg}");
    assert!(msg.contains("run report written"), "{msg}");

    // The JSONL trace parses back and covers all five jobs of the
    // recommended combo, with every task attempt's span complete. It keeps
    // what ran; the summaries are the run report's.
    let trace = fs::read_to_string(&trace).unwrap();
    assert!(!trace.contains("\"kind\":\"profile\""), "{trace}");
    let events = TraceSink::parse_jsonl(&trace).unwrap();
    let jobs: std::collections::BTreeSet<&str> = events.iter().map(|e| e.job.as_str()).collect();
    for job in [
        "stage1-bto-count",
        "stage1-bto-sort",
        "stage2-pk",
        "stage3-brj-fill",
        "stage3-brj-assemble",
    ] {
        assert!(jobs.contains(job), "missing job {job} in {jobs:?}");
    }
    let starts = events
        .iter()
        .filter(|e| e.kind == EventKind::TaskStart)
        .count();
    let ends = events
        .iter()
        .filter(|e| e.kind == EventKind::TaskEnd)
        .count();
    assert!(starts > 0);
    assert_eq!(starts, ends, "every attempt span must be closed");

    // The metrics JSON carries the schema header and per-stage jobs whose
    // names and totals line up with the trace.
    let report = Json::parse(&fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("fuzzyjoin.run-report")
    );
    assert_eq!(report.get("v").and_then(Json::as_u64), Some(2));
    let stages = report.get("stages").and_then(Json::as_arr).unwrap();
    assert_eq!(stages.len(), 3);
    let mut report_jobs = Vec::new();
    for stage in stages {
        for job in stage.get("jobs").and_then(Json::as_arr).unwrap() {
            report_jobs.push(job.get("name").and_then(Json::as_str).unwrap().to_string());
            // Every job reports the engine histograms.
            let hists = job.get("histograms").unwrap();
            assert!(hists.get("task.map.secs").is_some(), "{report_jobs:?}");
            let h = hists.get("reduce.group.records").unwrap();
            assert_eq!(
                h.get("count").and_then(Json::as_u64),
                job.get("reduce_input_groups").and_then(Json::as_u64)
            );
        }
    }
    assert_eq!(report_jobs.len(), 5, "{report_jobs:?}");
    // Stage 2 reports kernel histograms and resolved heavy hitters.
    let s2_job = &stages[1].get("jobs").and_then(Json::as_arr).unwrap()[0];
    let hists = s2_job.get("histograms").unwrap();
    assert!(hists.get("stage2.group.candidates").is_some());
    assert!(hists.get("stage2.group.survivors").is_some());
    let hitters = s2_job
        .get("reduce_key_heavy_hitters")
        .and_then(Json::as_arr)
        .unwrap();
    assert!(!hitters.is_empty(), "stage 2 must report heavy hitters");
    assert!(hitters[0]
        .get("label")
        .and_then(Json::as_str)
        .unwrap()
        .starts_with("rank:"));
    assert!(
        hitters[0].get("token").is_some(),
        "rank labels must resolve to tokens: {hitters:?}"
    );
    // Exactly once, readable from the artifact alone: stage 2 emits as many
    // pairs as stage 3 joins, and says how many meetings it left to their
    // owner; stage 3 says how many records it kept out of its shuffle.
    let counter = |stage: usize, job: usize, name: &str| -> Option<u64> {
        stages[stage].get("jobs").and_then(Json::as_arr).unwrap()[job]
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    let emitted = counter(1, 0, "stage2.pairs_emitted").unwrap();
    assert!(emitted > 0);
    assert_eq!(counter(2, 1, "stage3.joined_pairs"), Some(emitted));
    assert!(counter(1, 0, "stage2.funnel.unowned").unwrap() > 0);
    assert!(counter(2, 0, "stage3.participants").unwrap() > 0);
    assert!(counter(2, 0, "stage3.records_filtered").unwrap() > 0);
    // Totals are internally consistent with the per-stage numbers.
    let totals = report.get("totals").unwrap();
    let sum: f64 = stages
        .iter()
        .map(|s| s.get("sim_secs").and_then(Json::as_f64).unwrap())
        .sum();
    let total = totals.get("sim_secs").and_then(Json::as_f64).unwrap();
    assert!((sum - total).abs() < 1e-9, "{sum} vs {total}");
}

/// Hidden worker entry: `--backend process` re-spawns this test binary as
/// its workers, which land here and build the join's jobs.
#[test]
fn process_worker_entry() {
    fuzzyjoin_cli::process_worker_entry();
}

/// The driver records every attempt, whichever backend runs it: a process
/// join's trace holds the `task_start`, `task_end` and `commit` events the
/// simulated join's does, one per attempt and per reduce task.
#[test]
fn process_backend_traces_every_attempt_like_the_simulated_backend() {
    let corpus = corpus();
    let traced = |backend: &str| {
        let (pairs, trace) = (
            tmp(&format!("{backend}.tsv")),
            tmp(&format!("{backend}.jsonl")),
        );
        run(&argv(&format!(
            "selfjoin --input {corpus} --out {pairs} --threshold 0.8 --nodes 3 \
             --backend {backend} --trace-out {trace}"
        )))
        .unwrap();
        let events = TraceSink::parse_jsonl(&fs::read_to_string(&trace).unwrap()).unwrap();
        let count = |kind| events.iter().filter(|e| e.kind == kind).count();
        let counts = [EventKind::TaskStart, EventKind::TaskEnd, EventKind::Commit].map(count);
        (fs::read_to_string(&pairs).unwrap(), counts)
    };
    let (simulated_pairs, simulated) = traced("simulated");
    assert!(simulated.iter().all(|&n| n > 0), "{simulated:?}");
    let (process_pairs, process) = traced("process");
    assert_eq!(process, simulated, "task_start, task_end, commit");
    assert_eq!(process_pairs, simulated_pairs);
}

#[test]
fn chrome_trace_export_is_loadable_json() {
    let corpus = corpus();
    let pairs = tmp("pairs-chrome.tsv");
    let trace = tmp("trace.json");
    run(&argv(&format!(
        "selfjoin --input {corpus} --out {pairs} --threshold 0.8 --nodes 2 \
         --trace-out {trace}"
    )))
    .unwrap();
    let doc = Json::parse(&fs::read_to_string(&trace).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
}

#[test]
fn tracing_and_chaos_leave_output_bitwise_identical() {
    let corpus = corpus();
    let baseline = tmp("base.tsv");
    run(&argv(&format!(
        "selfjoin --input {corpus} --out {baseline} --threshold 0.8 --nodes 3"
    )))
    .unwrap();
    let expected = fs::read_to_string(&baseline).unwrap();
    assert!(!expected.is_empty());

    // Tracing on.
    let traced = tmp("traced.tsv");
    run(&argv(&format!(
        "selfjoin --input {corpus} --out {traced} --threshold 0.8 --nodes 3 \
         --trace-out {} --metrics-json {}",
        tmp("t2.jsonl"),
        tmp("m2.json"),
    )))
    .unwrap();
    assert_eq!(fs::read_to_string(&traced).unwrap(), expected);

    // Chaos with tracing: output still identical, and the trace records the
    // fault-injected attempts (failed task-end events present).
    let chaotic = tmp("chaos.tsv");
    let chaos_trace = tmp("chaos.jsonl");
    let msg = run(&argv(&format!(
        "selfjoin --input {corpus} --out {chaotic} --threshold 0.8 --nodes 3 \
         --fault-seed 42 --trace-out {chaos_trace}"
    )))
    .unwrap();
    assert!(msg.contains("faults survived"), "{msg}");
    assert_eq!(fs::read_to_string(&chaotic).unwrap(), expected);
    let events = TraceSink::parse_jsonl(&fs::read_to_string(&chaos_trace).unwrap()).unwrap();
    let failed = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::TaskEnd && e.outcome != Some(mapreduce::trace::Outcome::Ok)
        })
        .count();
    assert!(failed > 0, "chaos trace must show failed attempts");
    let faulted = events
        .iter()
        .filter(|e| e.kind == EventKind::TaskStart && e.fault.is_some())
        .count();
    assert!(faulted > 0, "fault-injected attempts must be labeled");
}

#[test]
fn traced_run_emits_profile_events_and_covered_metrics() {
    let corpus = corpus();
    let pairs = tmp("prof-pairs.tsv");
    let trace = tmp("prof-trace.jsonl");
    let metrics = tmp("prof-metrics.json");
    let msg = run(&argv(&format!(
        "selfjoin --input {corpus} --out {pairs} --threshold 0.8 --nodes 3 \
         --backend sharded --trace-out {trace} --metrics-json {metrics}"
    )))
    .unwrap();
    assert!(msg.contains("run report written"), "{msg}");
    // The profiles are the run report's; the trace repeats none.
    let trace = fs::read_to_string(&trace).unwrap();
    assert!(!trace.contains("\"kind\":\"profile\""), "{trace}");

    // Each of the run report's five jobs carries its profile plus the
    // measured per-phase wall_secs (the v1 gap fix) — and in aggregate,
    // the wall-weighted coverage meets the 95% contract.
    let report = Json::parse(&fs::read_to_string(&metrics).unwrap()).unwrap();
    let (mut jobs, mut wall, mut covered) = (0, 0.0, 0.0);
    for stage in report.get("stages").and_then(Json::as_arr).unwrap() {
        for job in stage.get("jobs").and_then(Json::as_arr).unwrap() {
            jobs += 1;
            let profile = job.get("profile").expect("job profile object");
            assert!(profile.get("wall_us").is_some());
            let coverage = profile.get("coverage").and_then(Json::as_f64).unwrap();
            // Per-job sanity only: a millisecond-scale job on a loaded test
            // host can lose a visible fraction to scheduling jitter. The
            // strict >=95% per-job contract is asserted on a job long enough
            // to resolve it by `mapreduce/tests/profile.rs`.
            assert!(coverage > 0.5, "coverage {coverage:.3} implausibly low");
            wall += job.get("wall_secs").and_then(Json::as_f64).unwrap();
            covered += profile.get("covered_secs").and_then(Json::as_f64).unwrap();
            let map_wall = job
                .get("map")
                .and_then(|m| m.get("wall_secs"))
                .and_then(Json::as_f64)
                .unwrap();
            assert!(map_wall > 0.0, "measured map wall must be recorded");
        }
    }
    assert_eq!(jobs, 5, "one profile per pipeline job");
    assert!(
        covered >= 0.95 * wall,
        "aggregate coverage {:.3} below the 95% contract",
        covered / wall
    );

    // Tracing and reporting must not perturb the join itself.
    let plain = tmp("prof-plain.tsv");
    run(&argv(&format!(
        "selfjoin --input {corpus} --out {plain} --threshold 0.8 --nodes 3 \
         --backend sharded"
    )))
    .unwrap();
    assert_eq!(
        fs::read_to_string(&pairs).unwrap(),
        fs::read_to_string(&plain).unwrap(),
        "tracing changed the committed pairs"
    );
}

#[test]
fn rsjoin_supports_observability_flags() {
    let corpus = corpus();
    let out = tmp("rs.tsv");
    let metrics = tmp("rs-metrics.json");
    let msg = run(&argv(&format!(
        "rsjoin --r {corpus} --s {corpus} --out {out} --threshold 0.9 --nodes 2 \
         --metrics-json {metrics}"
    )))
    .unwrap();
    assert!(msg.contains("run report written"), "{msg}");
    let report = Json::parse(&fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(report.get("v").and_then(Json::as_u64), Some(2));
    let jobs: Vec<&str> = report
        .get("stages")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .flat_map(|stage| stage.get("jobs").and_then(Json::as_arr).unwrap())
        .map(|job| job.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        jobs,
        [
            "stage1-bto-count",
            "stage1-bto-sort",
            "stage2-pk",
            "stage3-brj-fill",
            "stage3-brj-assemble"
        ]
    );
    assert!(
        report
            .get("totals")
            .and_then(|t| t.get("shuffle_bytes"))
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
}
