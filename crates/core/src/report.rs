//! Machine-readable run reports.
//!
//! A run report is a single JSON document summarizing an end-to-end join:
//! per-stage, per-job modelled/wall time ([`crate::model`]), shuffle
//! volume, task and fault statistics, user counters, histogram percentiles,
//! and the reduce-key heavy hitters (with `rank:N` labels resolved back to
//! the actual prefix token via the stage-1 token list). It is the one
//! summary a join writes: what `--metrics-json` prints and what the bench
//! harness embeds in `BENCH_*.json` files.
//!
//! # Schema compatibility
//!
//! Every report carries `"schema": "fuzzyjoin.run-report"` and
//! `"v": 3`. The compatibility rule: consumers must ignore unknown
//! fields; [`REPORT_SCHEMA_VERSION`] is bumped only when an existing field
//! is removed or changes meaning, never for additions.

use mapreduce::{
    obj, Cluster, HistogramSnapshot, JobMetrics, JobProfile, Json, PipelineMetrics, Result,
};

use crate::config::JoinConfig;
use crate::model::{self, Schedule};
use crate::pipeline::JoinOutcome;

/// Identifies the document type (the `schema` field of every report).
pub const REPORT_SCHEMA: &str = "fuzzyjoin.run-report";

/// Current report schema version (the `v` field). Additive changes do not
/// bump this; removals and meaning changes do: 2 dropped
/// `recovery.resume`, since every join resumes, and 3 dropped the
/// `profile.*` names from each job's `counters`, which its `profile`
/// object holds.
pub const REPORT_SCHEMA_VERSION: u64 = 3;

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn speculative_json((launched, won, killed): (u64, u64, u64)) -> Json {
    obj(vec![
        ("launched", num(launched)),
        ("won", num(won)),
        ("killed", num(killed)),
    ])
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    obj(vec![
        ("count", num(h.count)),
        ("sum", Json::Num(h.sum)),
        ("min", Json::Num(h.min)),
        ("max", Json::Num(h.max)),
        ("zeros", num(h.zeros)),
        ("mean", Json::Num(h.mean())),
        ("p50", Json::Num(h.percentile(50.0))),
        ("p95", Json::Num(h.percentile(95.0))),
        ("p99", Json::Num(h.percentile(99.0))),
    ])
}

/// Resolve a heavy-hitter label against the stage-1 token list: a
/// `rank:N` label names line `N` of the ordered token file. Skew split
/// keys (`rank:N/split:i-j`) resolve to the same token as their parent.
fn resolve_label(label: &str, tokens: Option<&[String]>) -> Option<String> {
    let rank_part = label.strip_prefix("rank:")?.split('/').next()?;
    let rank: usize = rank_part.parse().ok()?;
    tokens?.get(rank).cloned()
}

fn job_json(job: &JobMetrics, tokens: Option<&[String]>) -> Json {
    // Additive (no `v` bump): phase objects carry the *measured* wall
    // window alongside the modelled makespan. `makespan_secs` is the
    // model's schedule time, which says nothing about how long the phase
    // really took on this host; `wall_secs` is the driver-observed window
    // from the per-phase profiler. Task seconds are measured.
    let profile = JobProfile::from_metrics(job);
    let model = model::job(job);
    let phase = |p: &mapreduce::PhaseMetrics, schedule: &Schedule, wall_us: u64| {
        obj(vec![
            ("tasks", num(p.tasks as u64)),
            ("total_task_secs", Json::Num(p.total_task_secs)),
            ("max_task_secs", Json::Num(p.max_task_secs)),
            ("makespan_secs", Json::Num(schedule.makespan)),
            // Additive (no `v` bump): the model's data locality.
            ("local_tasks", num(schedule.local_tasks)),
            ("remote_tasks", num(schedule.remote_tasks)),
            ("wall_secs", Json::Num(wall_us as f64 / 1e6)),
            ("skew", Json::Num(p.skew())),
        ])
    };
    // The profiler's counters are the `profile` object below, once.
    let counters = Json::Obj(
        job.counters
            .iter()
            .filter(|(n, _)| !n.starts_with("profile."))
            .map(|(n, v)| (n.clone(), num(*v)))
            .collect(),
    );
    let histograms = Json::Obj(
        job.histograms
            .iter()
            .map(|(n, h)| (n.clone(), histogram_json(h)))
            .collect(),
    );
    let hitters = Json::Arr(
        job.reduce_key_heavy_hitters
            .iter()
            .map(|(label, records)| {
                let mut fields = vec![
                    ("label", Json::Str(label.clone())),
                    ("records", num(*records)),
                ];
                if let Some(token) = resolve_label(label, tokens) {
                    fields.push(("token", Json::Str(token)));
                }
                obj(fields)
            })
            .collect(),
    );
    obj(vec![
        ("name", Json::Str(job.name.clone())),
        ("sim_secs", Json::Num(model.sim_secs)),
        ("wall_secs", Json::Num(job.wall_secs)),
        ("shuffle_bytes", num(job.shuffle_bytes)),
        ("shuffle_records", num(job.shuffle_records)),
        ("map", phase(&job.map, &model.map, profile.wall_map_us)),
        (
            "reduce",
            phase(&job.reduce, &model.reduce, profile.wall_reduce_us),
        ),
        ("reduce_input_groups", num(job.reduce_input_groups)),
        ("reduce_output_records", num(job.reduce_output_records)),
        // Additive (no `v` bump): the record path's volumes and the model's
        // shuffle transfer time.
        ("map_input_records", num(job.map_input_records)),
        ("map_output_records", num(job.map_output_records)),
        ("spills", num(job.spills)),
        ("merge_passes", num(job.merge_passes)),
        ("reduce_input_records", num(job.reduce_input_records)),
        ("scavenged_attempt_files", num(job.scavenged_attempt_files)),
        ("transfer_secs", Json::Num(model.transfer_secs)),
        ("task_retries", num(job.task_retries)),
        ("backoff_secs", Json::Num(model.backoff_secs)),
        ("speculative", speculative_json(model.speculative())),
        ("output_commits", num(job.output_commits)),
        ("output_aborts", num(job.output_aborts)),
        ("counters", counters),
        ("histograms", histograms),
        ("reduce_key_heavy_hitters", hitters),
        // Additive (no `v` bump): the full per-phase profile object.
        ("profile", profile.to_json(job.wall_secs)),
    ])
}

fn stage_json(stage: u64, metrics: &PipelineMetrics, tokens: Option<&[String]>) -> Json {
    obj(vec![
        ("stage", num(stage)),
        ("sim_secs", Json::Num(model::sim_secs(metrics))),
        ("wall_secs", Json::Num(metrics.wall_secs())),
        ("shuffle_bytes", num(metrics.shuffle_bytes())),
        (
            "jobs",
            Json::Arr(metrics.jobs.iter().map(|j| job_json(j, tokens)).collect()),
        ),
    ])
}

/// Build the run report for a completed join.
///
/// `tokens` is the stage-1 ordered token list (line index = rank), used to
/// resolve `rank:N` heavy-hitter labels to the actual hot prefix tokens;
/// pass `None` to skip resolution. See [`run_report_resolved`] for the
/// variant that reads the list from the DFS itself.
pub fn run_report(outcome: &JoinOutcome, config: &JoinConfig, tokens: Option<&[String]>) -> Json {
    let config_json = obj(vec![
        ("threshold", Json::Str(format!("{:?}", config.threshold))),
        // Additive (no `v` bump): the input format and the bad-record
        // policy, which change what is read and so what is joined.
        ("format", Json::Str(format!("{:?}", config.format))),
        ("tokenizer", Json::Str(format!("{:?}", config.tokenizer))),
        ("stage1", Json::Str(format!("{:?}", config.stage1))),
        ("stage2", Json::Str(format!("{:?}", config.stage2))),
        ("stage3", Json::Str(format!("{:?}", config.stage3))),
        ("routing", Json::Str(format!("{:?}", config.routing))),
        // Additive (no `v` bump): skew-adaptive routing configuration. The
        // per-job `skew.*` counters and the `skew.replication_factor`
        // histogram surface through the generic counters/histograms
        // sections; split reduce keys appear in `reduce_key_heavy_hitters`
        // under `…/split:i-j` labels.
        ("skew", Json::Str(format!("{:?}", config.skew))),
        (
            "bad_records",
            Json::Str(format!("{:?}", config.bad_records)),
        ),
    ]);
    let totals = obj(vec![
        ("sim_secs", Json::Num(outcome.sim_secs())),
        ("wall_secs", Json::Num(outcome.wall_secs())),
        ("shuffle_bytes", num(outcome.shuffle_bytes())),
        ("task_retries", num(outcome.task_retries())),
        ("output_commits", num(outcome.output_commits())),
        ("output_aborts", num(outcome.output_aborts())),
        ("speculative", speculative_json(outcome.speculative())),
    ]);
    // What the join decided about earlier output, and data-integrity
    // counters.
    let recovery = obj(vec![
        (
            "jobs_skipped",
            Json::Arr(
                outcome
                    .recovery
                    .jobs_skipped
                    .iter()
                    .map(|j| Json::Str(j.clone()))
                    .collect(),
            ),
        ),
        (
            "jobs_rerun",
            Json::Arr(
                outcome
                    .recovery
                    .jobs_rerun
                    .iter()
                    .map(|j| Json::Str(j.clone()))
                    .collect(),
            ),
        ),
        ("checksum_failures", num(outcome.recovery.checksum_failures)),
        (
            "scavenged_attempt_files",
            num(outcome.scavenged_attempt_files()),
        ),
        ("bad_records_skipped", num(outcome.bad_records_skipped())),
    ]);
    obj(vec![
        ("schema", Json::Str(REPORT_SCHEMA.into())),
        ("v", num(REPORT_SCHEMA_VERSION)),
        ("config", config_json),
        (
            "paths",
            obj(vec![
                ("tokens", Json::Str(outcome.tokens_path.clone())),
                ("ridpairs", Json::Str(outcome.ridpairs_path.clone())),
                ("joined", Json::Str(outcome.joined_path.clone())),
            ]),
        ),
        (
            "stages",
            Json::Arr(vec![
                stage_json(1, &outcome.stage1, tokens),
                stage_json(2, &outcome.stage2, tokens),
                stage_json(3, &outcome.stage3, tokens),
            ]),
        ),
        ("totals", totals),
        ("recovery", recovery),
    ])
}

/// [`run_report`] with heavy-hitter labels resolved by reading the stage-1
/// token list back from the cluster's DFS.
pub fn run_report_resolved(
    cluster: &Cluster,
    outcome: &JoinOutcome,
    config: &JoinConfig,
) -> Result<Json> {
    let tokens = cluster.dfs().read_text(&outcome.tokens_path)?;
    Ok(run_report(outcome, config, Some(&tokens)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with_hitters() -> JoinOutcome {
        let mut stage2 = PipelineMetrics::default();
        stage2.push(JobMetrics {
            name: "stage2-pk".into(),
            nodes: 1,
            shuffle_bytes: 640,
            shuffle_records: 40,
            task_retries: 1,
            output_commits: 2,
            counters: vec![
                ("profile.wall.map_us".into(), 1_500_000),
                ("profile.wall.reduce_us".into(), 500_000),
                ("stage2.candidates".into(), 9),
            ],
            reduce_key_heavy_hitters: vec![("rank:1".into(), 30), ("rank:0".into(), 10)],
            ..Default::default()
        });
        JoinOutcome {
            tokens_path: "/work/tokens".into(),
            ridpairs_path: "/work/ridpairs".into(),
            joined_path: "/work/joined".into(),
            stage2,
            ..Default::default()
        }
    }

    #[test]
    fn report_has_schema_and_totals() {
        let outcome = outcome_with_hitters();
        let report = run_report(&outcome, &JoinConfig::recommended(), None);
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(report.get("v").and_then(Json::as_u64), Some(3));
        let totals = report.get("totals").unwrap();
        assert_eq!(
            totals.get("shuffle_bytes").and_then(Json::as_u64),
            Some(640)
        );
        assert_eq!(totals.get("task_retries").and_then(Json::as_u64), Some(1));
        // Round-trips through the serializer.
        let reparsed = Json::parse(&report.to_string()).unwrap();
        assert_eq!(
            reparsed
                .get("totals")
                .unwrap()
                .get("output_commits")
                .and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn report_config_names_every_field_of_the_join_config() {
        use crate::config::{BadRecordPolicy, RecordFormat};
        let config = JoinConfig {
            format: RecordFormat::two_column(),
            bad_records: BadRecordPolicy::Skip,
            ..JoinConfig::recommended()
        };
        // Spelled out without `..`, so a new field fails to compile here.
        let JoinConfig {
            threshold: _,
            format,
            tokenizer: _,
            stage1: _,
            stage2: _,
            routing: _,
            stage3: _,
            bad_records,
            skew: _,
        } = &config;
        let mut fields = [
            "threshold",
            "format",
            "tokenizer",
            "stage1",
            "stage2",
            "routing",
            "stage3",
            "bad_records",
            "skew",
        ];
        fields.sort_unstable();
        let report = run_report(&outcome_with_hitters(), &config, None);
        let members = report.get("config").and_then(Json::as_obj).unwrap();
        let mut names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, fields);
        let member = |name| report.get("config")?.get(name)?.as_str();
        assert_eq!(member("format"), Some(format!("{format:?}").as_str()));
        assert_eq!(
            member("bad_records"),
            Some(format!("{bad_records:?}").as_str())
        );
        // What the bug hid: this run's config read as a strict bibliographic one.
        let strict = run_report(&outcome_with_hitters(), &JoinConfig::recommended(), None);
        assert_ne!(strict.get("config"), report.get("config"));
    }

    #[test]
    fn report_has_a_recovery_section() {
        let mut outcome = outcome_with_hitters();
        outcome.recovery.jobs_skipped = vec!["stage1-bto-count".into()];
        outcome
            .recovery
            .jobs_rerun
            .push("stage2-pk: checksum mismatch".into());
        outcome.recovery.checksum_failures = 1;
        let report = run_report(&outcome, &JoinConfig::recommended(), None);
        let rec = report.get("recovery").unwrap();
        assert_eq!(rec.get("resume"), None, "every join resumes");
        let skipped = rec.get("jobs_skipped").and_then(Json::as_arr).unwrap();
        assert_eq!(skipped[0].as_str(), Some("stage1-bto-count"));
        let rerun = rec.get("jobs_rerun").and_then(Json::as_arr).unwrap();
        assert_eq!(rerun[0].as_str(), Some("stage2-pk: checksum mismatch"));
        assert_eq!(rec.get("checksum_failures").and_then(Json::as_u64), Some(1));
        assert_eq!(
            rec.get("scavenged_attempt_files").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            rec.get("bad_records_skipped").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn consumers_ignore_unknown_fields() {
        // The compatibility contract: fields may be *added* without a `v`
        // bump, so a consumer parsing a newer report must still find every
        // field it knows about. Simulate a future report by splicing an
        // unknown field into the serialized document.
        let outcome = outcome_with_hitters();
        let report = run_report(&outcome, &JoinConfig::recommended(), None);
        let serialized = report.to_string();
        let future = serialized.replacen('{', "{\"from_the_future\":{\"x\":[1,2]},", 1);
        let reparsed = Json::parse(&future).unwrap();
        assert_eq!(
            reparsed.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(reparsed.get("v").and_then(Json::as_u64), Some(3));
        assert!(reparsed.get("recovery").is_some());
        assert_eq!(
            reparsed
                .get("totals")
                .unwrap()
                .get("shuffle_bytes")
                .and_then(Json::as_u64),
            Some(640)
        );
        // The per-phase `wall_secs` / `profile` additions are themselves
        // additive: every pre-existing field is still found after they
        // landed, and a consumer that knows about them finds them too.
        let jobs = reparsed.get("stages").and_then(Json::as_arr).unwrap()[1]
            .get("jobs")
            .and_then(Json::as_arr)
            .unwrap();
        let map = jobs[0].get("map").unwrap();
        assert!(map.get("makespan_secs").is_some());
        assert!(map.get("wall_secs").is_some());
        assert!(jobs[0].get("profile").is_some());
    }

    #[test]
    fn phase_objects_carry_measured_wall_and_a_profile_object() {
        // The v1 gap this closes: on every backend
        // `makespan_secs` is modeled schedule time, so reports carried no
        // *measured* per-phase wall at all. The phase windows recorded by
        // the profiler now surface as `wall_secs` without a `v` bump.
        let outcome = outcome_with_hitters();
        let report = run_report(&outcome, &JoinConfig::recommended(), None);
        assert_eq!(report.get("v").and_then(Json::as_u64), Some(3));
        let jobs = report.get("stages").and_then(Json::as_arr).unwrap()[1]
            .get("jobs")
            .and_then(Json::as_arr)
            .unwrap();
        let map_wall = jobs[0]
            .get("map")
            .unwrap()
            .get("wall_secs")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((map_wall - 1.5).abs() < 1e-9, "{map_wall}");
        let reduce_wall = jobs[0]
            .get("reduce")
            .unwrap()
            .get("wall_secs")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((reduce_wall - 0.5).abs() < 1e-9, "{reduce_wall}");
        let profile = jobs[0].get("profile").unwrap();
        assert!(profile.get("wall_us").is_some());
        assert!(profile.get("busy_us").is_some());
        assert!(profile.get("coverage").and_then(Json::as_f64).is_some());
    }

    /// A job prints its profile once: the `profile` object holds the
    /// profiler's counters, read from the job's metrics, and `counters`
    /// holds every other counter.
    #[test]
    fn job_counters_leave_the_profile_to_its_object() {
        let outcome = outcome_with_hitters();
        let report = run_report(&outcome, &JoinConfig::recommended(), None);
        let job = &report.get("stages").and_then(Json::as_arr).unwrap()[1]
            .get("jobs")
            .and_then(Json::as_arr)
            .unwrap()[0];
        let counters = job.get("counters").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.iter().all(|n| !n.starts_with("profile.")),
            "{names:?}"
        );
        assert_eq!(names, ["stage2.candidates"]);
        let metrics = &outcome.stage2.jobs[0];
        let expected = JobProfile::from_metrics(metrics).to_json(metrics.wall_secs);
        let profile = job.get("profile").unwrap();
        for field in ["wall_us", "busy_us"] {
            assert_eq!(profile.get(field), expected.get(field), "{field}");
        }
        let wall_us = |phase| profile.get("wall_us")?.get(phase)?.as_u64();
        assert_eq!(wall_us("map"), Some(1_500_000));
        assert_eq!(wall_us("reduce"), Some(500_000));
    }

    /// The record-path volumes, the model's locality and its transfer time
    /// are copied, not recomputed: each field reads what it names.
    #[test]
    fn job_objects_copy_record_volumes_locality_and_transfer() {
        use mapreduce::{Phase, TaskRecord};
        // Twelve map tasks whose blocks all sit on node 0 of two: more than
        // its slots, so some read remotely. One reduce task behind a transfer.
        let map = |task| TaskRecord {
            phase: Phase::Map,
            task,
            attempt: 0,
            node: 0,
            node_hint: Some(0),
            input_bytes: 4096,
            secs: 1.0,
            straggle: 1.0,
        };
        let reduce = TaskRecord {
            phase: Phase::Reduce,
            node_hint: None,
            input_bytes: 125_000_000,
            ..map(0)
        };
        let job = JobMetrics {
            name: "stage1-bto-count".into(),
            nodes: 2,
            tasks: (0..12).map(map).chain([reduce]).collect(),
            map_input_records: 11,
            map_output_records: 12,
            spills: 13,
            merge_passes: 14,
            reduce_input_records: 15,
            scavenged_attempt_files: 16,
            ..Default::default()
        };
        let model = model::job(&job);
        assert!(model.map.local_tasks > 0 && model.map.remote_tasks > 0);
        assert!(model.transfer_secs > 0.0);
        let mut outcome = outcome_with_hitters();
        outcome.stage1.push(job.clone());
        let report = run_report(&outcome, &JoinConfig::recommended(), None);
        let reported = &report.get("stages").and_then(Json::as_arr).unwrap()[0]
            .get("jobs")
            .and_then(Json::as_arr)
            .unwrap()[0];
        let count = |name: &str| reported.get(name).and_then(Json::as_u64);
        assert_eq!(count("map_input_records"), Some(job.map_input_records));
        assert_eq!(count("map_output_records"), Some(job.map_output_records));
        assert_eq!(count("spills"), Some(job.spills));
        assert_eq!(count("merge_passes"), Some(job.merge_passes));
        assert_eq!(
            count("reduce_input_records"),
            Some(job.reduce_input_records)
        );
        assert_eq!(
            count("scavenged_attempt_files"),
            Some(job.scavenged_attempt_files)
        );
        assert_eq!(
            reported.get("transfer_secs").and_then(Json::as_f64),
            Some(model.transfer_secs)
        );
        for (phase, schedule) in [("map", &model.map), ("reduce", &model.reduce)] {
            let phase = reported.get(phase).unwrap();
            let tasks = |name: &str| phase.get(name).and_then(Json::as_u64);
            assert_eq!(tasks("local_tasks"), Some(schedule.local_tasks));
            assert_eq!(tasks("remote_tasks"), Some(schedule.remote_tasks));
        }
    }

    #[test]
    fn heavy_hitter_ranks_resolve_to_tokens() {
        let outcome = outcome_with_hitters();
        let tokens = vec!["alpha".to_string(), "beta".to_string()];
        let report = run_report(&outcome, &JoinConfig::recommended(), Some(&tokens));
        let stages = report.get("stages").and_then(Json::as_arr).unwrap();
        let jobs = stages[1].get("jobs").and_then(Json::as_arr).unwrap();
        let hitters = jobs[0]
            .get("reduce_key_heavy_hitters")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(
            hitters[0].get("label").and_then(Json::as_str),
            Some("rank:1")
        );
        assert_eq!(hitters[0].get("token").and_then(Json::as_str), Some("beta"));
        assert_eq!(
            hitters[1].get("token").and_then(Json::as_str),
            Some("alpha")
        );
    }

    #[test]
    fn unresolvable_labels_are_kept_without_token() {
        let outcome = outcome_with_hitters();
        // Token list too short for rank 1.
        let tokens = vec!["alpha".to_string()];
        let report = run_report(&outcome, &JoinConfig::recommended(), Some(&tokens));
        let stages = report.get("stages").and_then(Json::as_arr).unwrap();
        let jobs = stages[1].get("jobs").and_then(Json::as_arr).unwrap();
        let hitters = jobs[0]
            .get("reduce_key_heavy_hitters")
            .and_then(Json::as_arr)
            .unwrap();
        assert!(hitters[0].get("token").is_none());
        assert_eq!(
            hitters[1].get("token").and_then(Json::as_str),
            Some("alpha")
        );
    }
}
