//! What runs inside a child process: one sample (`sample_once`), or after
//! the timed rounds the single-thread reference with, optionally, the traced
//! sample and the ladder (`finish`); and how the parent assembles a
//! workload's result from their reports (`assemble`).
//!
//! Every join runs in a process of its own, as a user's `fuzzyjoin-cli`
//! invocation does. A process that has already joined once keeps memory in
//! glibc's per-thread arenas, so its next join starts warmer and its peak
//! memory reads tens of MB higher or not, by chance.

use std::collections::BTreeMap;
use std::path::Path;

use fuzzyjoin::BackendKind;
use mapreduce::{obj, JobProfile, Json, HIST_REDUCE_GROUP_RECORDS};

use crate::corpus::Corpus;
use crate::procfs::{self_hwm_mb, WorkerRssWatch};
use crate::reference::{self, Reference};
use crate::rungs;
use crate::sample::{self, Sample, SampleSpans, Variant};
use crate::spec::{self, Workload, END_TO_END};
use crate::trace::Trace;

/// A 64-bit digest as JSON: hex, since a JSON number holds 53 bits.
fn digest_json(digest: u64) -> Json {
    Json::Str(format!("{digest:016x}"))
}

fn digest_from(json: Option<&Json>) -> Option<u64> {
    u64::from_str_radix(json?.as_str()?, 16).ok()
}

/// What one sample's process reports to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleReport {
    /// Seconds setting the cluster up.
    pub setup_s: f64,
    /// Seconds of the join.
    pub join_wall_s: f64,
    /// CPU seconds of the join, workers included.
    pub join_cpu_s: f64,
    /// Bytes shuffled by the join's jobs.
    pub shuffle_bytes: u64,
    /// `VmHWM` of the process after the join, plus on the process backend
    /// the largest worker `VmHWM` seen while it ran.
    pub peak_rss_mb: f64,
    /// Digest of the joined output.
    pub digest: u64,
}

impl SampleReport {
    /// The report as one JSON object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("setup_s", Json::Num(self.setup_s)),
            ("join_wall_s", Json::Num(self.join_wall_s)),
            ("join_cpu_s", Json::Num(self.join_cpu_s)),
            ("shuffle_bytes", Json::Num(self.shuffle_bytes as f64)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("digest", digest_json(self.digest)),
        ])
    }

    /// Parse what [`SampleReport::to_json`] wrote.
    pub fn from_json(json: &Json) -> Option<SampleReport> {
        let num = |key: &str| json.get(key).and_then(Json::as_f64);
        Some(SampleReport {
            setup_s: num("setup_s")?,
            join_wall_s: num("join_wall_s")?,
            join_cpu_s: num("join_cpu_s")?,
            shuffle_bytes: json.get("shuffle_bytes")?.as_u64()?,
            peak_rss_mb: num("peak_rss_mb")?,
            digest: digest_from(json.get("digest"))?,
        })
    }
}

/// Run one join of `workload` over `corpus` in this process, with tracing
/// off. The process should be fresh: see the module comment.
pub fn sample_once(
    workload: &Workload,
    corpus: &Corpus,
    out_dir: &Path,
    label: &str,
) -> Result<SampleReport, String> {
    // The engine starts and reaps its worker processes inside the join.
    let workers = workload.on_disk().then(WorkerRssWatch::start);
    let (sample, _) = sample::run(workload, Variant::default(), corpus, out_dir, label, None)?;
    let workers_mb = workers.as_ref().map_or(0.0, WorkerRssWatch::largest_mb);
    Ok(SampleReport {
        setup_s: sample.setup_s,
        join_wall_s: sample.join_wall_s,
        join_cpu_s: sample.join_cpu_s,
        shuffle_bytes: sample.outcome.shuffle_bytes(),
        peak_rss_mb: self_hwm_mb() + workers_mb,
        digest: sample.digest,
    })
}

/// What the finishing process reports, and the spans it recorded.
pub struct Finish {
    /// The reference digest, the corpus sizes, the operations this process
    /// ran with their failures, and after a traced run the per-layer
    /// metrics.
    pub json: Json,
    /// The spans of the traced run.
    pub trace: Option<Trace>,
}

/// The joins the finishing process runs itself: the traced sample and the
/// ladder's variants.
struct Finisher<'a> {
    workload: Workload,
    corpus: &'a Corpus,
    /// Seconds the parent took to generate the corpus.
    generate_s: f64,
    out_dir: &'a Path,
    /// `(label, output digest)` of every join run here.
    outputs: Vec<(String, u64)>,
    errors: Vec<String>,
    ops_attempted: u64,
}

/// What the parent knows and the finishing process needs for the ladder.
#[derive(Debug, Clone, Copy, Default)]
pub struct FromParent {
    /// Seconds the corpus took to generate.
    pub generate_s: f64,
    /// Median wall and CPU seconds of the timed samples, which some ladder
    /// ratios are taken against; the traced sample's own when there were
    /// none.
    pub untraced: Option<(f64, f64)>,
}

/// After the timed rounds: join `corpus` on one thread for the reference,
/// and with `traced` run the traced sample and the ladder. The corpus must
/// also lie saved under `out_dir`, where the CLI rung reads it.
pub fn finish(
    workload: &Workload,
    corpus: &Corpus,
    out_dir: &Path,
    traced: bool,
    FromParent {
        generate_s,
        untraced,
    }: FromParent,
) -> Finish {
    let mut f = Finisher {
        workload: *workload,
        corpus,
        generate_s,
        out_dir,
        outputs: Vec::new(),
        errors: Vec::new(),
        ops_attempted: 0,
    };

    // The reference runs first, on a fresh heap, so that the single-thread
    // baseline reads the same whether or not a traced run follows.
    let reference = reference::compute(corpus, workload.tau);

    let mut trace = traced.then(|| {
        let mut t = Trace::new(format!("{}-traced", workload.name));
        let root = t.open("traced-run", None);
        (t, root)
    });
    let traced_sample = trace.as_mut().map(|(t, root)| f.traced_sample(t, *root));

    let mut per_layer = None;
    if let (Some((t, root)), Some(sample)) = (trace.as_mut(), traced_sample) {
        let ladder = sample.and_then(|(sample, spans)| {
            let untraced = untraced.unwrap_or((sample.join_wall_s, sample.join_cpu_s));
            f.ladder(t, *root, &reference, &sample, spans, untraced)
        });
        match ladder {
            Ok(metrics) => per_layer = Some(metrics),
            Err(e) => f.errors.push(format!("traced run: {e}")),
        }
        t.close(*root);
    }

    for (label, digest) in &f.outputs {
        if *digest != reference.digest {
            f.errors.push(format!(
                "{label}: output digest {digest:016x} differs from the reference {:016x}",
                reference.digest
            ));
        }
    }

    let mut fields = vec![
        ("reference_digest", digest_json(reference.digest)),
        (
            "sizes",
            obj(vec![
                ("records", Json::Num(corpus.records() as f64)),
                ("r_records", Json::Num(corpus.r.len() as f64)),
                (
                    "s_records",
                    Json::Num(corpus.s.as_ref().map_or(0, Vec::len) as f64),
                ),
                ("input_mb", Json::Num(corpus.input_bytes() as f64 / 1e6)),
                ("pairs", Json::Num(reference.pairs as f64)),
            ]),
        ),
        ("ops_attempted", Json::Num(f.ops_attempted as f64)),
        (
            "errors",
            Json::Arr(f.errors.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    if let Some(metrics) = per_layer {
        fields.push((
            "per_layer",
            Json::Obj(
                spec::PER_LAYER
                    .iter()
                    .map(|(name, unit, _)| {
                        let value = metrics.get(name).copied().map_or(Json::Null, Json::Num);
                        (
                            name.to_string(),
                            obj(vec![
                                ("value", value),
                                ("unit", Json::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Finish {
        json: obj(fields),
        trace: trace.map(|(t, _)| t),
    }
}

impl Finisher<'_> {
    /// One join with its stages run one by one under spans.
    fn traced_sample(
        &mut self,
        trace: &mut Trace,
        root: usize,
    ) -> Result<(Sample, SampleSpans), String> {
        self.ops_attempted += 1;
        let (ran, _) = trace.span("sample", Some(root), |trace, id| {
            sample::run(
                &self.workload,
                Variant::default(),
                self.corpus,
                self.out_dir,
                "traced",
                Some((trace, id)),
            )
        });
        let (sample, spans) = ran?;
        self.outputs.push(("traced".to_string(), sample.digest));
        Ok((sample, spans.expect("a traced sample has spans")))
    }

    /// One more sample of the same join under `variant`, checked like any
    /// other; `None` (and a failed operation) when it errors.
    fn ladder_sample(&mut self, label: &str, variant: Variant) -> Option<Sample> {
        self.ops_attempted += 1;
        match sample::run(
            &self.workload,
            variant,
            self.corpus,
            self.out_dir,
            label,
            None,
        ) {
            Ok((sample, _)) => {
                self.outputs.push((label.to_string(), sample.digest));
                Some(sample)
            }
            Err(e) => {
                self.errors.push(format!("{label}: {e}"));
                None
            }
        }
    }

    /// The per-layer metrics by name: from the traced sample's spans and
    /// job metrics, from the single-thread reference, and from the rungs,
    /// which run here, each under its own span.
    fn ladder(
        &mut self,
        trace: &mut Trace,
        root: usize,
        reference: &Reference,
        traced: &Sample,
        spans: SampleSpans,
        (untraced_wall, untraced_cpu): (f64, f64),
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        let workload = self.workload;
        let out_dir = self.out_dir;
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

        m.insert("datagen.generate_s", self.generate_s);
        m.insert("datagen.records", self.corpus.records() as f64);
        m.insert("datagen.input_mb", self.corpus.input_bytes() as f64 / 1e6);

        // Stages, from the spans and the jobs' own metrics.
        let outcome = &traced.outcome;
        let [s1, s2, s3] = spans.stages;
        let count_job = &outcome.stage1.jobs[0];
        let kernel_job = &outcome.stage2.jobs[0];
        let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        m.insert("stage1.wall_s", trace.secs(s1));
        m.insert("stage1.self_s", trace.self_secs(s1));
        m.insert(
            "stage1.shuffle_mb",
            outcome.stage1.shuffle_bytes() as f64 / 1e6,
        );
        m.insert(
            "stage1.combine_ratio",
            ratio(
                count_job.combine_output_records,
                count_job.combine_input_records,
            ),
        );
        m.insert(
            "stage1.tokens",
            outcome
                .stage1
                .jobs
                .last()
                .map_or(0, |j| j.reduce_output_records) as f64,
        );
        m.insert("stage2.wall_s", trace.secs(s2));
        m.insert("stage2.self_s", trace.self_secs(s2));
        m.insert(
            "stage2.shuffle_mb",
            outcome.stage2.shuffle_bytes() as f64 / 1e6,
        );
        m.insert(
            "stage2.replication_rate",
            ratio(kernel_job.map_output_records, kernel_job.map_input_records),
        );
        m.insert(
            "stage2.max_reduce_group_records",
            kernel_job
                .histogram(HIST_REDUCE_GROUP_RECORDS)
                .map_or(0.0, |h| h.max),
        );
        m.insert("stage2.reduce_skew", kernel_job.reduce.skew());
        m.insert(
            "stage2.rid_pairs_out",
            kernel_job.reduce_output_records as f64,
        );
        m.insert(
            "stage2.dup_pair_ratio",
            ratio(kernel_job.reduce_output_records, traced.pairs),
        );
        m.insert(
            "stage2.skew_split_groups",
            kernel_job.counter("skew.split_tokens") as f64,
        );
        m.insert("stage3.wall_s", trace.secs(s3));
        m.insert("stage3.self_s", trace.self_secs(s3));
        m.insert(
            "stage3.shuffle_mb",
            outcome.stage3.shuffle_bytes() as f64 / 1e6,
        );
        m.insert(
            "stage3.shuffle_bytes_per_output_byte",
            ratio(outcome.stage3.shuffle_bytes(), traced.output_bytes),
        );
        m.insert("stage3.pairs_out", traced.pairs as f64);

        // Engine, summed over the join's jobs.
        let mut profile = [0u64; 12];
        for job in outcome.all_jobs() {
            let p = JobProfile::from_metrics(job);
            for (slot, us) in profile.iter_mut().zip([
                p.wall_setup_us,
                p.wall_spawn_us,
                p.wall_map_us,
                p.wall_regroup_us,
                p.wall_reduce_us,
                p.wall_commit_us,
                p.wall_finalize_us,
                p.busy_map_exec_us,
                p.busy_spill_us,
                p.busy_shuffle_transport_us,
                p.busy_merge_us,
                p.busy_reduce_exec_us,
            ]) {
                *slot += us;
            }
        }
        for (name, us) in [
            "engine.wall_setup_s",
            "engine.wall_spawn_s",
            "engine.wall_map_s",
            "engine.wall_regroup_s",
            "engine.wall_reduce_s",
            "engine.wall_commit_s",
            "engine.wall_finalize_s",
            "engine.busy_map_exec_s",
            "engine.busy_spill_s",
            "engine.busy_transport_s",
            "engine.busy_merge_s",
            "engine.busy_reduce_exec_s",
        ]
        .into_iter()
        .zip(profile)
        {
            m.insert(name, us as f64 / 1e6);
        }
        let sum = |f: &dyn Fn(&mapreduce::JobMetrics) -> u64| -> f64 {
            outcome.all_jobs().map(f).sum::<u64>() as f64
        };
        m.insert("engine.map_tasks", sum(&|j| j.map.tasks as u64));
        m.insert("engine.reduce_tasks", sum(&|j| j.reduce.tasks as u64));
        m.insert("engine.spills", sum(&|j| j.spills));
        m.insert("engine.merge_passes", sum(&|j| j.merge_passes));
        m.insert("engine.task_retries", sum(&|j| j.task_retries));
        m.insert(
            "engine.process_fallback_jobs",
            sum(&|j| j.counter("mr.process.fallback_jobs")),
        );

        // Pipeline.
        m.insert("pipeline.traced_wall_s", traced.join_wall_s);
        m.insert(
            "pipeline.trace_overhead_pct",
            100.0 * (traced.join_wall_s - untraced_wall) / untraced_wall,
        );
        m.insert(
            "pipeline.cpu_util",
            untraced_cpu / (untraced_wall * spec::threads() as f64),
        );
        m.insert("pipeline.cost_ratio", untraced_wall / reference.total_s());

        // setsim: the single-thread reference run.
        let records = self.corpus.records() as f64;
        m.insert(
            "setsim.tokenize_ns_per_rec",
            reference.tokenize_s * 1e9 / records,
        );
        m.insert(
            "setsim.project_ns_per_rec",
            reference.project_s * 1e9 / records,
        );
        m.insert("setsim.ppjoin_single_s", reference.ppjoin_s);
        m.insert("setsim.candidates_examined", reference.candidates as f64);
        m.insert("setsim.pairs", reference.pairs as f64);
        m.insert(
            "setsim.verify_useful_ratio",
            ratio(reference.pairs, reference.candidates),
        );

        // The same join with one thing changed. Where the workload already
        // runs that way its own number stands in.
        let kernel_wall = outcome.stage2.wall_secs();
        let skew_off_wall = if workload.skew_adaptive {
            let variant = Variant {
                skew_off: true,
                ..Variant::default()
            };
            let (sample, _) = trace.span("rung:skew-off", Some(root), |_, _| {
                self.ladder_sample("skew-off", variant)
            });
            sample.map_or(f64::NAN, |s| s.outcome.stage2.wall_secs())
        } else {
            kernel_wall
        };
        m.insert("stage2.wall_skew_off_s", skew_off_wall);
        let simulated_wall = if workload.backend == BackendKind::Simulated {
            untraced_wall
        } else {
            let variant = Variant {
                backend: Some(BackendKind::Simulated),
                ..Variant::default()
            };
            let (sample, _) = trace.span("rung:simulated-ref", Some(root), |_, _| {
                self.ladder_sample("simulated-ref", variant)
            });
            sample.map_or(f64::NAN, |s| s.join_wall_s)
        };
        m.insert("engine.simulated_ref_wall_s", simulated_wall);

        // The ladder's own rungs.
        let pairs = rungs::stage2_pairs(reference);
        let (codec, _) = trace.span("rung:codec", Some(root), |_, _| rungs::codec(&pairs));
        m.insert("codec.encode_ns_per_rec", codec.encode_ns_per_rec);
        m.insert("codec.decode_ns_per_rec", codec.decode_ns_per_rec);
        m.insert("codec.bytes_per_rec", codec.bytes_per_rec);

        // Each reducer of the kernel job merges one run per map-side spill.
        let fanin = (kernel_job.spills as usize).max(2);
        let (sort_ns, _) = trace.span("rung:run-sort-combine", Some(root), |_, _| {
            rungs::sort_combine_ns_per_rec(&reference.token_counts)
        });
        let (merge_ns, _) = trace.span("rung:run-merge", Some(root), |_, _| {
            rungs::merge_ns_per_rec(&pairs, fanin)
        });
        m.insert("run.sort_combine_ns_per_rec", sort_ns);
        m.insert("run.merge_ns_per_rec", merge_ns);
        m.insert("run.merge_fanin", fanin as f64);

        let capacity = mapreduce::ClusterConfig::default().shuffle_channel_capacity;
        let (channel, _) = trace.span("rung:shuffle-channel", Some(root), |_, _| {
            rungs::channel_mb_per_s(&pairs, capacity)
        });
        m.insert("shuffle.channel_mb_per_s", channel);

        let (dfs, _) = trace.span("rung:dfs", Some(root), |_, _| {
            rungs::dfs(&workload, self.corpus, reference.pairs, out_dir)
        });
        let dfs = dfs?;
        m.insert("dfs.write_mb_per_s", dfs.write_mb_per_s);
        m.insert("dfs.read_mb_per_s", dfs.read_mb_per_s);
        m.insert("dfs.seq_roundtrip_mb_per_s", dfs.seq_roundtrip_mb_per_s);

        let (identity, _) = trace.span("rung:engine-identity", Some(root), |_, _| {
            rungs::identity_job(&workload, &pairs, out_dir)
        });
        let (identity_s, identity_recs) = identity?;
        m.insert("engine.identity_wall_s", identity_s);
        m.insert(
            "engine.identity_us_per_rec",
            identity_s * 1e6 / identity_recs.max(1) as f64,
        );

        self.ops_attempted += 1;
        let (cli, _) = trace.span("rung:cli", Some(root), |_, _| {
            rungs::cli_run(&workload, out_dir)
        });
        let (cli_s, cli_pairs) = cli?;
        if cli_pairs != reference.pairs {
            self.errors.push(format!(
                "cli: wrote {cli_pairs} pairs, the reference has {}",
                reference.pairs
            ));
        }
        m.insert("cli.run_wall_s", cli_s);
        m.insert("cli.overhead_s", cli_s - untraced_wall);
        Ok(m)
    }
}

/// Median, extremes and count of a metric's timed samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The statistic the metric reports: the median, or for
    /// `peak_rss_mb` the mean.
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First and third quartile, as Python's `statistics.quantiles(n=4)`
    /// gives them: their distance is the spread of the samples.
    pub quartiles: (f64, f64),
    /// Number of samples.
    pub n: usize,
}

/// The value at rank `p * (n + 1)` of `sorted`, between neighbours in
/// proportion, clamped to the ends.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * (sorted.len() + 1) as f64).clamp(1.0, sorted.len() as f64);
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below - 1] + (rank - below as f64) * (sorted[above - 1] - sorted[below - 1])
}

impl Stat {
    /// Median and extremes of `values`, which must not be empty.
    pub fn median_of(values: &[f64]) -> Stat {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Stat {
            value: quantile(&v, 0.5),
            min: v[0],
            max: v[v.len() - 1],
            quartiles: (quantile(&v, 0.25), quantile(&v, 0.75)),
            n: v.len(),
        }
    }

    /// Mean and extremes of `values`, which must not be empty.
    pub fn mean_of(values: &[f64]) -> Stat {
        Stat {
            value: values.iter().sum::<f64>() / values.len() as f64,
            ..Stat::median_of(values)
        }
    }

    fn to_json(self, unit: &str) -> Json {
        obj(vec![
            ("value", Json::Num(self.value)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("q1", Json::Num(self.quartiles.0)),
            ("q3", Json::Num(self.quartiles.1)),
            ("n", Json::Num(self.n as f64)),
            ("unit", Json::Str(unit.to_string())),
        ])
    }
}

/// One sample the parent asked for, and what came back.
pub struct Attempt {
    /// Name of the sample in error messages.
    pub label: String,
    /// Whether the sample counts in the statistics (a warm-up does not).
    pub timed: bool,
    /// The sample's report, or why there is none.
    pub outcome: Result<SampleReport, String>,
}

/// The reports of the timed samples that have one.
pub fn timed_reports(attempts: &[Attempt]) -> Vec<&SampleReport> {
    attempts
        .iter()
        .filter(|a| a.timed)
        .filter_map(|a| a.outcome.as_ref().ok())
        .collect()
}

/// The end-to-end statistics of the timed samples. Timings and the count
/// are medians. Peak memory is the mean: the high-water mark of one process
/// falls in one of two or three clusters (which arena served which phase),
/// so the median of a few readings jumps between clusters from run to run
/// where the mean moves little.
pub fn end_to_end(records: f64, timed: &[&SampleReport]) -> Vec<(&'static str, Stat)> {
    if timed.is_empty() {
        return Vec::new();
    }
    let values =
        |f: &dyn Fn(&SampleReport) -> f64| -> Vec<f64> { timed.iter().map(|s| f(s)).collect() };
    let median = |f: &dyn Fn(&SampleReport) -> f64| Stat::median_of(&values(f));
    vec![
        ("setup_s", median(&|s| s.setup_s)),
        ("join_wall_s", median(&|s| s.join_wall_s)),
        ("records_per_s", median(&|s| records / s.join_wall_s)),
        ("join_cpu_s", median(&|s| s.join_cpu_s)),
        ("peak_rss_mb", Stat::mean_of(&values(&|s| s.peak_rss_mb))),
        ("shuffle_mb", median(&|s| s.shuffle_bytes as f64 / 1e6)),
    ]
}

/// A workload's result: the samples checked against the reference digest
/// of `finish`, their statistics, and what `finish` measured.
pub fn assemble(workload: &Workload, attempts: &[Attempt], finish: &Json) -> Json {
    let reference = digest_from(finish.get("reference_digest"));
    let mut errors: Vec<String> = Vec::new();
    for attempt in attempts {
        match (&attempt.outcome, reference) {
            (Err(e), _) => errors.push(format!("{}: {e}", attempt.label)),
            (Ok(_), None) => {
                errors.push(format!("{}: no reference to check against", attempt.label))
            }
            (Ok(report), Some(reference)) if report.digest != reference => errors.push(format!(
                "{}: output digest {:016x} differs from the reference {reference:016x}",
                attempt.label, report.digest
            )),
            (Ok(_), Some(_)) => {}
        }
    }
    let finish_errors = finish.get("errors").and_then(Json::as_arr).unwrap_or(&[]);
    errors.extend(
        finish_errors
            .iter()
            .filter_map(|e| e.as_str().map(str::to_string)),
    );
    let finish_ops = finish
        .get("ops_attempted")
        .and_then(Json::as_u64)
        .unwrap_or(0);

    let timed = timed_reports(attempts);
    let sizes = finish.get("sizes").cloned().unwrap_or(Json::Null);
    let records = sizes
        .get("records")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let stats = end_to_end(records, &timed);

    let mut fields = vec![
        ("workload", Json::Str(workload.name.to_string())),
        ("backend", Json::Str(workload.backend.as_str().into())),
        ("sizes", sizes),
        (
            "ops_attempted",
            Json::Num((attempts.len() as u64 + finish_ops) as f64),
        ),
        ("ops_failed", Json::Num(errors.len() as f64)),
        (
            "errors",
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ),
        (
            "end_to_end",
            Json::Obj(
                END_TO_END
                    .iter()
                    .filter_map(|m| {
                        let (_, stat) = stats.iter().find(|(name, _)| *name == m.name)?;
                        Some((m.name.to_string(), stat.to_json(m.unit)))
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(per_layer) = finish.get("per_layer") {
        fields.push(("per_layer", per_layer.clone()));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_match_pythons() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2, 7, 16]
        let s = Stat::median_of(&[22.0, 1.0, 7.0, 2.0, 16.0, 4.0, 11.0]);
        assert_eq!(
            (s.value, s.quartiles, s.min, s.max, s.n),
            (7.0, (2.0, 16.0), 1.0, 22.0, 7)
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Stat::median_of(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.value, s.quartiles), (2.5, (1.25, 3.75)));
        let one = Stat::mean_of(&[5.0]);
        assert_eq!((one.value, one.quartiles), (5.0, (5.0, 5.0)));
        assert_eq!(Stat::mean_of(&[1.0, 2.0, 6.0]).value, 3.0);
    }
}
