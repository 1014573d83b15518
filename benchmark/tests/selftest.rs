//! Self-tests of the benchmark: the names it may report, the agreement of
//! `BENCHMARK.json` with `spec.rs`, and smoke runs of every workload that
//! check the result's shape, the span tree, and that counts repeat.

use std::path::PathBuf;

use fuzzyjoin_benchmark::corpus;
use fuzzyjoin_benchmark::spec::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use fuzzyjoin_benchmark::trace::Trace;
use fuzzyjoin_benchmark::workload::{
    assemble, finish, sample_once, Attempt, FromParent, SampleReport,
};
use mapreduce::Json;

/// Worker entry of the process backend: a driver in this test binary
/// re-spawns it with a libtest filter naming this test.
#[test]
fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|(name, _, _)| *name));
    for name in &names {
        assert!(name_ok(name), "bad name {name:?}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(PER_LAYER.len() <= 128);
    assert!((2..=8).contains(&WORKLOADS.len()));
    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!((setup.unit, setup.bound), ("s", largest));
}

#[test]
fn benchmark_json_lists_what_the_spec_defines() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, expected);

    let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.into(),
                m.unit.into(),
                m.better.as_str().into(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(end_to_end, expected);

    let per_layer: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| (name.to_string(), unit.to_string(), better.as_str().into()))
        .collect();
    assert_eq!(per_layer, expected);
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
}

fn smoke(workload: &Workload) -> Workload {
    Workload {
        corpus: workload.corpus.smoke(),
        ..*workload
    }
}

/// One smoke run: a warm-up, two timed samples, then the reference, the
/// traced sample and the ladder. In the benchmark every sample runs in a
/// process of its own; here, where only the shape of the result is checked,
/// they share the test's. Each run writes under a directory of its own, so
/// tests may run side by side.
fn smoke_run(workload: &Workload, tag: &str) -> (Json, Trace) {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", workload.name));
    std::fs::create_dir_all(&out_dir).unwrap();
    let workload = smoke(workload);
    let corpus = corpus::generate(workload.corpus, 42);
    corpus.save(&out_dir, workload.name).unwrap();
    let attempts: Vec<Attempt> = [false, true, true]
        .iter()
        .enumerate()
        .map(|(i, &timed)| {
            let label = format!("sample-{i}");
            Attempt {
                outcome: sample_once(&workload, &corpus, &out_dir, &label),
                label,
                timed,
            }
        })
        .collect();
    let done = finish(&workload, &corpus, &out_dir, true, FromParent::default());
    // The reports cross a process boundary as JSON.
    for attempt in &attempts {
        let report = attempt.outcome.as_ref().unwrap();
        assert_eq!(
            SampleReport::from_json(&report.to_json()).as_ref(),
            Some(report)
        );
    }
    let result = assemble(&workload, &attempts, &done.json);
    (result, done.trace.expect("a traced run has a trace"))
}

fn per_layer(result: &Json, name: &str) -> f64 {
    result
        .get("per_layer")
        .and_then(|p| p.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("per-layer metric {name} is missing: {result}"))
}

fn median(result: &Json, name: &str) -> f64 {
    result
        .get("end_to_end")
        .and_then(|e| e.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("end-to-end metric {name} is missing: {result}"))
}

fn check_span_tree(trace: &Trace) {
    let spans = trace.spans();
    let named = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
    for s in spans {
        assert!(s.end >= s.start, "{s:?}");
        assert!(trace.self_secs(s.id) >= 0.0);
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(p < s.id, "a parent is recorded before its children");
            assert!(
                s.start >= parent.start && s.end <= parent.end,
                "{s:?} lies outside {parent:?}"
            );
        }
    }
    let join = named("join");
    let stages: f64 = ["stage1", "stage2", "stage3"]
        .iter()
        .map(|name| {
            let stage = named(name);
            assert_eq!(stage.parent, Some(join.id));
            assert!(
                spans
                    .iter()
                    .any(|s| s.parent == Some(stage.id) && s.reported),
                "{name} has a span per job"
            );
            stage.secs()
        })
        .sum();
    assert!(
        stages >= 0.95 * join.secs(),
        "stage spans cover {stages} of {} s",
        join.secs()
    );
    assert!(spans.iter().any(|s| s.name == "rung:codec"));
}

/// Run a workload's smoke corpus twice from one seed.
fn check_workload(name: &str) {
    let workload = spec::workload(name).unwrap();
    let (first, trace) = smoke_run(workload, "a");
    let (second, _) = smoke_run(workload, "b");

    for result in [&first, &second] {
        assert_eq!(
            result.get("ops_failed").and_then(Json::as_u64),
            Some(0),
            "{result}"
        );
        // warm-up, two timed, traced, the CLI, and the ladder's variants.
        assert!(result.get("ops_attempted").and_then(Json::as_u64) >= Some(5));
        for m in END_TO_END {
            let value = median(result, m.name);
            assert!(value.is_finite() && value > 0.0, "{} = {value}", m.name);
        }
        for (metric, _, _) in PER_LAYER {
            assert!(per_layer(result, metric).is_finite(), "{metric}");
        }
    }
    check_span_tree(&trace);

    // Counts the program makes repeat exactly.
    assert_eq!(median(&first, "shuffle_mb"), median(&second, "shuffle_mb"));
    for metric in [
        "stage2.replication_rate",
        "setsim.pairs",
        "setsim.candidates_examined",
        "stage3.pairs_out",
        "codec.bytes_per_rec",
    ] {
        assert_eq!(
            per_layer(&first, metric),
            per_layer(&second, metric),
            "{metric}"
        );
    }
    assert!(
        per_layer(&first, "setsim.pairs") > 0.0,
        "the join finds pairs"
    );
}

#[test]
fn smoke_dblp_self() {
    check_workload("dblp-self");
}

#[test]
fn smoke_cite_rs() {
    check_workload("cite-rs");
}

#[test]
fn smoke_zipf_lowtau_self() {
    check_workload("zipf-lowtau-self");
}

#[test]
fn smoke_dblp_self_process() {
    check_workload("dblp-self-process");
    let workload = spec::workload("dblp-self-process").unwrap();
    let (result, _) = smoke_run(workload, "c");
    assert!(
        per_layer(&result, "engine.wall_spawn_s") > 0.0,
        "worker processes were spawned"
    );
}
