//! Trace-layer integration tests: span completeness under chaos fault
//! injection, JSONL schema round-trips on real event streams, Chrome
//! export well-formedness, and the reduce-key heavy-hitter report.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Once;

use mapreduce::faults::FaultPlan;
use mapreduce::{
    sum_combiner, text_input, ClosureMapper, ClosureReducer, Cluster, ClusterConfig, Emit,
    EventKind, Job, JobMetrics, Json, Outcome, Phase, TaskContext, TraceEvent, TraceSink,
    HEAVY_HITTER_WARNINGS, HIST_MAP_TASK_SECS, HIST_REDUCE_GROUP_RECORDS, HIST_REDUCE_TASK_SECS,
};

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

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

fn cluster_with(nodes: usize, max_attempts: usize, faults: Option<FaultPlan>) -> Cluster {
    let config = ClusterConfig {
        nodes,
        max_task_attempts: max_attempts,
        faults,
        ..ClusterConfig::with_nodes(nodes)
    };
    Cluster::new(config, 256).unwrap()
}

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

fn corpus() -> Vec<String> {
    (0..400)
        .map(|i| format!("alpha w{} w{} gamma", i % 23, i % 7))
        .collect()
}

fn run_wordcount(cluster: &Cluster) -> (Vec<(String, u64)>, JobMetrics) {
    cluster.dfs().write_text("/in", corpus()).unwrap();
    let job = Job::new("wc", wc_mapper(), wc_reducer())
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .combiner(sum_combiner())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    let mut counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
    counts.sort();
    (counts, m)
}

type AttemptKey = (String, String, u64, u64);

fn attempt_key(e: &TraceEvent) -> AttemptKey {
    let phase = match e.phase {
        Some(Phase::Map) => "map",
        Some(Phase::Reduce) => "reduce",
        None => "job",
    };
    (
        e.job.clone(),
        phase.to_string(),
        e.task.unwrap_or(u64::MAX),
        e.attempt.unwrap_or(u64::MAX),
    )
}

#[test]
fn chaos_run_traces_every_attempt_with_exactly_one_end() {
    quiet_injected_panics();
    let plan = FaultPlan::aggressive(chaos_seed());
    let mut chaos = cluster_with(3, 8, Some(plan));
    let sink = TraceSink::new();
    chaos.set_trace(sink.clone());
    let (_, m) = run_wordcount(&chaos);
    assert!(m.task_retries > 0, "aggressive plan must force retries");

    let events = sink.events();
    let mut starts: HashMap<AttemptKey, u64> = HashMap::new();
    let mut ends: HashMap<AttemptKey, Vec<&TraceEvent>> = HashMap::new();
    let mut commits: HashMap<AttemptKey, u64> = HashMap::new();
    for e in &events {
        match e.kind {
            EventKind::TaskStart => *starts.entry(attempt_key(e)).or_insert(0) += 1,
            EventKind::TaskEnd => ends.entry(attempt_key(e)).or_default().push(e),
            EventKind::Commit => *commits.entry(attempt_key(e)).or_insert(0) += 1,
            _ => {}
        }
    }
    assert!(!starts.is_empty());
    // Exactly one start and one end per attempt — retried, panicked, and
    // fault-injected attempts included.
    for (key, n) in &starts {
        assert_eq!(*n, 1, "duplicate start for {key:?}");
        let e = ends.get(key).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(e.len(), 1, "want exactly one end for {key:?}, got {e:?}");
        assert!(e[0].dur_us.unwrap_or(0) >= 1, "span has a duration");
        assert!(e[0].outcome.is_some());
    }
    for key in ends.keys() {
        assert!(starts.contains_key(key), "end without start: {key:?}");
    }
    // Every committed attempt ended ok, and each reduce task commits
    // exactly once.
    assert_eq!(
        commits.values().map(|&n| n as usize).sum::<usize>(),
        m.reduce.tasks,
        "one commit per reduce task"
    );
    for (key, n) in &commits {
        assert_eq!(*n, 1, "task committed twice: {key:?}");
        let end = &ends[key][0];
        assert_eq!(end.outcome, Some(Outcome::Ok), "committed attempt: {key:?}");
    }
    // The plan forced failures; failed ends carry an error, and a retried
    // transient failure is followed by its task's next attempt.
    let failed: Vec<&&TraceEvent> = ends
        .values()
        .flatten()
        .filter(|e| e.outcome != Some(Outcome::Ok))
        .collect();
    assert!(!failed.is_empty(), "aggressive plan must fail attempts");
    assert!(failed.iter().all(|e| e.error.is_some()));
    assert!(
        failed.iter().any(|e| {
            let (job, phase, task, attempt) = attempt_key(e);
            starts.contains_key(&(job, phase, task, attempt + 1))
        }),
        "some failed attempt must be retried"
    );
    // Aborts observed in metrics appear as events.
    let aborts = events.iter().filter(|e| e.kind == EventKind::Abort).count() as u64;
    assert_eq!(aborts, m.output_aborts);
}

#[test]
fn tracing_does_not_change_results_or_sim_metrics_inputs() {
    quiet_injected_panics();
    let plan = FaultPlan::aggressive(chaos_seed());
    let plain = cluster_with(3, 8, Some(plan.clone()));
    let (baseline, base_m) = run_wordcount(&plain);

    let mut traced = cluster_with(3, 8, Some(plan));
    traced.set_trace(TraceSink::new());
    let (counts, m) = run_wordcount(&traced);
    assert_eq!(counts, baseline, "tracing must not perturb output");
    // Data-dependent metrics are bitwise identical; only measured timings
    // may differ between the two processes.
    assert_eq!(m.shuffle_bytes, base_m.shuffle_bytes);
    assert_eq!(m.shuffle_records, base_m.shuffle_records);
    assert_eq!(m.task_retries, base_m.task_retries);
    assert_eq!(m.output_commits, base_m.output_commits);
    assert_eq!(m.output_aborts, base_m.output_aborts);
    assert_eq!(m.reduce_input_groups, base_m.reduce_input_groups);
    let groups = |m: &JobMetrics| m.histogram(HIST_REDUCE_GROUP_RECORDS).unwrap().clone();
    assert_eq!(groups(&m), groups(&base_m), "group sizes are deterministic");
}

/// A panicking attempt on the driver's threads ends exactly once, as
/// panicked, and is retried exactly once: its own panic boundary turns the
/// panic into a classified failure before the retry loop sees it.
#[test]
fn a_traced_panicking_attempt_ends_once_as_panicked_and_retries_once() {
    quiet_injected_panics();
    let mut cluster = cluster_with(2, 2, None);
    let sink = TraceSink::new();
    cluster.set_trace(sink.clone());
    cluster.dfs().write_text("/in", corpus()).unwrap();
    let mapper = ClosureMapper::new(
        |_off: &u64,
         line: &String,
         out: &mut dyn Emit<String, u64>,
         ctx: &TaskContext|
         -> mapreduce::Result<()> {
            if (ctx.task_id, ctx.attempt) == (0, 0) {
                panic!("injected user-code panic (map 0, attempt 0)");
            }
            for w in line.split_whitespace() {
                out.emit(w.to_string(), 1)?;
            }
            Ok(())
        },
    );
    let job = Job::new("panicky", mapper, wc_reducer())
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .output_seq("/out");
    let m = cluster.run(job).unwrap();
    assert_eq!(m.task_retries, 1);
    let events = sink.events();
    let map0: Vec<(Option<u64>, Option<Outcome>)> = events
        .iter()
        .filter(|e| e.kind == EventKind::TaskEnd)
        .filter(|e| (e.phase, e.task) == (Some(Phase::Map), Some(0)))
        .map(|e| (e.attempt, e.outcome))
        .collect();
    assert_eq!(
        map0,
        [
            (Some(0), Some(Outcome::Panicked)),
            (Some(1), Some(Outcome::Ok))
        ]
    );
    let panicked: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.outcome == Some(Outcome::Panicked))
        .collect();
    assert_eq!(panicked.len(), 1, "one panicked end in the whole job");
    let error = panicked[0].error.as_deref().unwrap();
    assert!(error.contains("injected user-code panic"), "{error}");
}

#[test]
fn real_event_stream_roundtrips_through_jsonl() {
    quiet_injected_panics();
    let mut chaos = cluster_with(3, 8, Some(FaultPlan::aggressive(chaos_seed())));
    let sink = TraceSink::new();
    chaos.set_trace(sink.clone());
    let _ = run_wordcount(&chaos);
    let jsonl = sink.to_jsonl();
    let parsed = TraceSink::parse_jsonl(&jsonl).unwrap();
    assert_eq!(parsed, sink.events(), "emit → JSONL → parse is lossless");
    assert!(jsonl.lines().all(|l| l.contains("\"v\":1")));
}

#[test]
fn chrome_export_is_perfetto_shaped() {
    quiet_injected_panics();
    let plan = FaultPlan {
        p_straggler: 1.0,
        straggler_factor: 200.0,
        ..FaultPlan::quiet(chaos_seed())
    };
    let mut cluster = cluster_with(3, 1, Some(plan));
    let sink = TraceSink::new();
    cluster.set_trace(sink.clone());
    run_wordcount(&cluster);
    let straggled = |e: &TraceEvent| {
        e.fault
            .as_deref()
            .is_some_and(|f| f.starts_with("straggle"))
    };
    assert!(sink.events().iter().any(straggled), "stragglers are traced");

    let chrome = sink.to_chrome_trace();
    let doc = Json::parse(&chrome).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
    let complete = events.iter().filter(|e| ph(e) == "X").count();
    let ends = sink
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskEnd | EventKind::JobEnd))
        .count();
    assert_eq!(complete, ends, "every span becomes one complete event");
    // A metadata name exists for the process and every complete event has
    // the fields Perfetto requires.
    for e in events {
        let ph = ph(e);
        assert!(e.get("pid").is_some());
        if ph != "M" {
            assert!(e.get("tid").is_some() && e.get("ts").is_some());
        }
        if ph == "X" {
            assert!(e.get("dur").is_some(), "complete events need dur");
        }
    }
    assert!(events.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("process_name")
            && e.get("ph").and_then(Json::as_str) == Some("M")
    }));
}

#[test]
fn job_level_events_bracket_the_run() {
    let mut cluster = cluster_with(2, 1, None);
    let sink = TraceSink::new();
    cluster.set_trace(sink.clone());
    let (_, m) = run_wordcount(&cluster);
    let events = sink.events();
    let starts: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::JobStart)
        .collect();
    let ends: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::JobEnd)
        .collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(ends.len(), 1);
    assert_eq!(ends[0].bytes, Some(m.shuffle_bytes));
    assert_eq!(ends[0].records, Some(m.shuffle_records));
    // Engine histograms land in the metrics regardless of tracing.
    assert_eq!(
        m.histogram(HIST_MAP_TASK_SECS).unwrap().count,
        m.map.tasks as u64
    );
    assert_eq!(
        m.histogram(HIST_REDUCE_TASK_SECS).unwrap().count,
        m.reduce.tasks as u64
    );
    assert_eq!(
        m.histogram(HIST_REDUCE_GROUP_RECORDS).unwrap().count,
        m.reduce_input_groups
    );
}

#[test]
fn heavy_hitter_report_names_the_dominant_key_and_warns() {
    // A corpus where one word carries the overwhelming majority of shuffle
    // records — the shape of a frequency-hot prefix token.
    let mut cluster = cluster_with(2, 1, None);
    let lines: Vec<String> = (0..200)
        .map(|i| format!("hot hot hot hot rare{i}"))
        .collect();
    cluster.dfs().write_text("/in", lines).unwrap();
    let sink = TraceSink::new();
    cluster.set_trace(sink.clone());
    let job = Job::new("skewed", wc_mapper(), wc_reducer())
        .inputs(text_input(cluster.dfs(), "/in").unwrap())
        .key_label(Arc::new(|k: &String| format!("word:{k}")))
        .output_seq("/out");
    let m = cluster.run(job).unwrap();

    let top = m
        .reduce_key_heavy_hitters
        .first()
        .expect("hitters reported");
    assert_eq!(top.0, "word:hot");
    assert!(
        top.1 * 2 > m.shuffle_records,
        "'hot' must carry a majority share: {top:?} of {}",
        m.shuffle_records
    );
    assert_eq!(m.counter(HEAVY_HITTER_WARNINGS), 1, "warning counter set");
    let events = sink.events();
    let warnings: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::SkewWarning)
        .collect();
    assert_eq!(warnings.len(), 1);
    assert!(warnings[0].detail.as_deref().unwrap().contains("word:hot"));
}

#[test]
fn no_key_label_means_no_heavy_hitters_and_no_warning() {
    let cluster = cluster_with(2, 1, None);
    let (_, m) = run_wordcount(&cluster);
    assert!(m.reduce_key_heavy_hitters.is_empty());
    assert_eq!(m.counter(HEAVY_HITTER_WARNINGS), 0);
}
