//! Differential correctness harness: every stage-1 ordering × stage-2
//! kernel × routing × similarity-measure combination,
//! in both self-join and R-S mode, must produce **exactly** the
//! `(rid1, rid2, sim)` set of the naive O(n²) oracle (`setsim::naive` via
//! `setsim::oracle`) on the same corpus — similarity values compared
//! bitwise. Every matrix cell additionally runs **in process on one thread
//! and on the host's threads, and in worker processes** on a disk-backed
//! DFS, and asserts the committed pair sets are bitwise identical. Every pipeline run also checks stage 2's raw output: each
//! joined pair on exactly one line of the rid-pairs file, none twice.
//!
//! On a divergence the failing corpus is delta-debugged down to a
//! locally-minimal counterexample (`setsim::oracle::shrink_within`) before
//! the panic — first whole records, then the tokens *inside* each
//! surviving record — so a regression reports the handful of tokens that
//! expose it, not a 90-record dump. A randomized property test
//! (`proptest`) covers corpus shapes the seeded `datagen` corpora don't
//! reach: heavy duplicates, tiny dictionaries, single-token and empty
//! join attributes.

use fuzzyjoin::{
    build_skew_plan, read_joined, rs_join, self_join, BackendKind, Cluster, ClusterConfig,
    JoinConfig, JoinOutcome, SkewConfig, Stage1Algo, Stage2Algo, Stage3Algo, Threshold,
    TokenRouting, TokenizerKind,
};
use proptest::prelude::*;
use setsim::oracle;

/// Seeded corpora per configuration cell (acceptance floor: ≥ 3 each).
const SEEDS: [u64; 3] = [11, 223, 3407];

/// Backend for tests outside the explicit parity cells. The CI
/// `backend-parity` matrix re-runs this suite with `MR_BACKEND=process` so
/// the proptest/q-gram/pathological/duplicate tests get coverage on both
/// executors too; the matrix cells always run both backends regardless.
fn default_backend() -> BackendKind {
    BackendKind::from_env()
}

/// Cluster shape a matrix cell runs on. The default is the 3-node cluster
/// the original harness used; the stressed variants cover the degenerate
/// 1-node topology (every task serialized onto one machine) and a tight
/// per-task memory budget that exercises the accounting on every charge
/// site without tipping the seeded corpora into OOM. `threads: None` runs
/// on the host's parallelism.
#[derive(Clone, Copy, Debug)]
struct ClusterSpec {
    nodes: usize,
    task_memory: Option<u64>,
    backend: BackendKind,
    threads: Option<usize>,
}

fn default_spec() -> ClusterSpec {
    ClusterSpec {
        nodes: 3,
        task_memory: None,
        backend: default_backend(),
        threads: None,
    }
}

fn cluster_on(spec: ClusterSpec) -> Cluster {
    let config = ClusterConfig {
        task_memory: spec.task_memory,
        backend: spec.backend,
        execution_threads: spec.threads,
        ..ClusterConfig::with_nodes(spec.nodes)
    };
    Cluster::new(config, 2048).unwrap()
}

fn cluster(nodes: usize) -> Cluster {
    cluster_on(ClusterSpec {
        nodes,
        ..default_spec()
    })
}

/// The runs a cell compares with its simulated run on `shape`: the same
/// backend on one thread, and worker processes.
fn parity_specs(shape: ClusterSpec) -> [ClusterSpec; 2] {
    [
        ClusterSpec {
            backend: BackendKind::Simulated,
            threads: Some(1),
            ..shape
        },
        ClusterSpec {
            backend: BackendKind::Process,
            ..shape
        },
    ]
}

fn kernels() -> [Stage2Algo; 4] {
    [
        Stage2Algo::Bk,
        Stage2Algo::Pk,
        Stage2Algo::BkMapBlocks { blocks: 3 },
        Stage2Algo::BkReduceBlocks { blocks: 3 },
    ]
}

const ROUTINGS: [TokenRouting; 2] = [
    TokenRouting::Individual,
    TokenRouting::Grouped { groups: 8 },
];

/// Stage-1 token orderings crossed into the matrix. Any total order over
/// the dictionary yields the same τ-similar pairs, so OPTO's different
/// tie-breaking must be invisible in the committed output.
const STAGE1S: [Stage1Algo; 2] = [Stage1Algo::Bto, Stage1Algo::Opto];

fn measures() -> [Threshold; 4] {
    [
        Threshold::jaccard(0.8),
        Threshold::cosine(0.85),
        Threshold::dice(0.85),
        // A constant overlap count rather than a ratio: different
        // prefix/length-filter bounds than the ratio measures.
        Threshold::overlap(4),
    ]
}

/// The `(rid1, rid2, sim)` rows of a finished join, after checking the
/// exactly-once invariant on stage 2's raw output: the rid-pairs file names
/// no pair twice and holds one line per joined row. A violation is an
/// `Err`, so the shrinkers minimise it like any other defect.
fn joined_rows(c: &Cluster, outcome: &JoinOutcome) -> Result<Vec<oracle::ResultRow>, String> {
    let mut raw =
        fuzzyjoin::read_rid_pairs(c, &outcome.ridpairs_path).map_err(|e| e.to_string())?;
    let lines = raw.len();
    raw.dedup_by_key(|&mut (a, b, _)| (a, b));
    if raw.len() != lines {
        return Err(format!(
            "stage 2 wrote {lines} pair lines for {} distinct pairs",
            raw.len()
        ));
    }
    let rows: Vec<oracle::ResultRow> = read_joined(c, &outcome.joined_path)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|((a, b), (_, _, sim))| (a, b, sim))
        .collect();
    if rows.len() != lines {
        return Err(format!(
            "stage 2 wrote {lines} pairs but stage 3 joined {}",
            rows.len()
        ));
    }
    Ok(rows)
}

/// Run the full 3-stage self-join pipeline, returning `(rid1, rid2, sim)`
/// rows from the final joined output.
fn pipeline_self(lines: &[String], config: &JoinConfig) -> Result<Vec<oracle::ResultRow>, String> {
    pipeline_self_on(default_spec(), lines, config)
}

fn pipeline_self_on(
    spec: ClusterSpec,
    lines: &[String],
    config: &JoinConfig,
) -> Result<Vec<oracle::ResultRow>, String> {
    let c = cluster_on(spec);
    c.dfs()
        .write_text("/records", lines)
        .map_err(|e| e.to_string())?;
    let outcome = self_join(&c, "/records", "/work", config).map_err(|e| e.to_string())?;
    joined_rows(&c, &outcome)
}

/// Run the full 3-stage R-S pipeline.
fn pipeline_rs_on(
    spec: ClusterSpec,
    r_lines: &[String],
    s_lines: &[String],
    config: &JoinConfig,
) -> Result<Vec<oracle::ResultRow>, String> {
    let c = cluster_on(spec);
    c.dfs()
        .write_text("/r", r_lines)
        .map_err(|e| e.to_string())?;
    c.dfs()
        .write_text("/s", s_lines)
        .map_err(|e| e.to_string())?;
    let outcome = rs_join(&c, "/r", "/s", "/work", config).map_err(|e| e.to_string())?;
    joined_rows(&c, &outcome)
}

/// Oracle result for a self-join corpus under `config`'s preprocessing.
fn oracle_self(lines: &[String], config: &JoinConfig) -> Vec<oracle::ResultRow> {
    let corpus: Vec<(u64, String)> = lines
        .iter()
        .map(|l| config.format.parse(l).expect("corpus line"))
        .collect();
    oracle::expected_self_join(&*config.tokenizer.build(), &corpus, &config.threshold)
}

/// Oracle result for an R-S corpus pair under `config`'s preprocessing.
fn oracle_rs(
    r_lines: &[String],
    s_lines: &[String],
    config: &JoinConfig,
) -> Vec<oracle::ResultRow> {
    let parse = |lines: &[String]| -> Vec<(u64, String)> {
        lines
            .iter()
            .map(|l| config.format.parse(l).expect("corpus line"))
            .collect()
    };
    oracle::expected_rs_join(
        &*config.tokenizer.build(),
        &parse(r_lines),
        &parse(s_lines),
        &config.threshold,
    )
}

/// Tokens of a line's join attribute (field 1 of the tab-separated record
/// format) — the part granularity for token-level counterexample
/// shrinking.
fn attr_tokens(line: &str) -> Vec<String> {
    line.split('\t')
        .nth(1)
        .unwrap_or("")
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

/// Rebuild a record line with its join attribute replaced by a token
/// subset; RID and payload fields survive untouched.
fn with_attr_tokens(line: &str, tokens: &[String]) -> String {
    let mut fields: Vec<String> = line.split('\t').map(str::to_string).collect();
    if fields.len() > 1 {
        fields[1] = tokens.join(" ");
    }
    fields.join("\t")
}

/// Rows keyed for bitwise comparison (`f64::to_bits`, so `-0.0 != 0.0`
/// and every ULP counts — "bitwise identical" means exactly that).
fn rows_bits(rows: &[oracle::ResultRow]) -> Vec<(u64, u64, u64)> {
    rows.iter().map(|&(a, b, s)| (a, b, s.to_bits())).collect()
}

/// Assert pipeline == oracle for a self-join; on divergence, shrink the
/// corpus to a minimal counterexample and panic with the full diff.
fn check_self(lines: &[String], config: &JoinConfig, label: &str) {
    check_self_on(default_spec(), lines, config, label)
}

fn check_self_on(spec: ClusterSpec, lines: &[String], config: &JoinConfig, label: &str) {
    let actual =
        pipeline_self_on(spec, lines, config).unwrap_or_else(|e| panic!("{label}: pipeline: {e}"));
    report_self_divergence(spec, lines, config, label, &actual);
}

/// Diff `actual` against the oracle; on divergence, two-level delta-debug
/// (records, then tokens within each surviving record) and panic.
fn report_self_divergence(
    spec: ClusterSpec,
    lines: &[String],
    config: &JoinConfig,
    label: &str,
    actual: &[oracle::ResultRow],
) {
    let expected = oracle_self(lines, config);
    let d = oracle::diff(&expected, actual);
    if d.is_empty() {
        return;
    }
    let minimal = oracle::shrink_within(
        lines,
        |subset| {
            let sub: Vec<String> = subset.to_vec();
            match pipeline_self_on(spec, &sub, config) {
                Ok(rows) => !oracle::diff(&oracle_self(&sub, config), &rows).is_empty(),
                Err(_) => true, // an erroring subset still reproduces a defect
            }
        },
        |line| attr_tokens(line),
        |line, tokens| with_attr_tokens(line, tokens),
    );
    let min_diff = match pipeline_self_on(spec, &minimal, config) {
        Ok(rows) => oracle::diff(&oracle_self(&minimal, config), &rows).to_string(),
        Err(e) => format!("pipeline error: {e}"),
    };
    panic!(
        "{label}: pipeline diverges from naive oracle\n{d}\nminimal counterexample \
         ({} records):\n{}\nminimal diff: {min_diff}",
        minimal.len(),
        minimal.join("\n"),
    );
}

/// One matrix cell: run the pipeline on the simulated backend and on each
/// of [`parity_specs`] of the same shape, assert the committed pair sets
/// are bitwise identical, then check the simulated rows against the oracle.
fn check_self_cell_on(shape: ClusterSpec, lines: &[String], config: &JoinConfig, label: &str) {
    let sim_spec = ClusterSpec {
        backend: BackendKind::Simulated,
        ..shape
    };
    let simulated = pipeline_self_on(sim_spec, lines, config)
        .unwrap_or_else(|e| panic!("{label} [simulated]: pipeline: {e}"));
    for spec in parity_specs(shape) {
        let rows = pipeline_self_on(spec, lines, config)
            .unwrap_or_else(|e| panic!("{label} [{spec:?}]: pipeline: {e}"));
        assert_eq!(
            rows_bits(&simulated),
            rows_bits(&rows),
            "{label}: {spec:?} diverges from simulated"
        );
    }
    report_self_divergence(sim_spec, lines, config, label, &simulated);
}

fn check_self_cell(lines: &[String], config: &JoinConfig, label: &str) {
    check_self_cell_on(default_spec(), lines, config, label)
}

/// R-S counterpart of [`check_self`]; shrinks over the R ∪ S record list,
/// partitioning each candidate subset back into its relations.
fn check_rs(r_lines: &[String], s_lines: &[String], config: &JoinConfig, label: &str) {
    check_rs_on(default_spec(), r_lines, s_lines, config, label)
}

fn check_rs_on(
    spec: ClusterSpec,
    r_lines: &[String],
    s_lines: &[String],
    config: &JoinConfig,
    label: &str,
) {
    let actual = pipeline_rs_on(spec, r_lines, s_lines, config)
        .unwrap_or_else(|e| panic!("{label}: pipeline: {e}"));
    report_rs_divergence(spec, r_lines, s_lines, config, label, &actual);
}

/// R-S counterpart of [`report_self_divergence`].
fn report_rs_divergence(
    spec: ClusterSpec,
    r_lines: &[String],
    s_lines: &[String],
    config: &JoinConfig,
    label: &str,
    actual: &[oracle::ResultRow],
) {
    let expected = oracle_rs(r_lines, s_lines, config);
    let d = oracle::diff(&expected, actual);
    if d.is_empty() {
        return;
    }
    // Tag records with their relation so one shrink pass covers both.
    let tagged: Vec<(bool, String)> = r_lines
        .iter()
        .map(|l| (true, l.clone()))
        .chain(s_lines.iter().map(|l| (false, l.clone())))
        .collect();
    let split = |subset: &[(bool, String)]| -> (Vec<String>, Vec<String>) {
        let r = subset
            .iter()
            .filter(|(is_r, _)| *is_r)
            .map(|(_, l)| l.clone())
            .collect();
        let s = subset
            .iter()
            .filter(|(is_r, _)| !*is_r)
            .map(|(_, l)| l.clone())
            .collect();
        (r, s)
    };
    let minimal = oracle::shrink_within(
        &tagged,
        |subset| {
            let (r, s) = split(subset);
            match pipeline_rs_on(spec, &r, &s, config) {
                Ok(rows) => !oracle::diff(&oracle_rs(&r, &s, config), &rows).is_empty(),
                Err(_) => true,
            }
        },
        |(_, line)| attr_tokens(line),
        |(is_r, line), tokens| (*is_r, with_attr_tokens(line, tokens)),
    );
    let (min_r, min_s) = split(&minimal);
    let min_diff = match pipeline_rs_on(spec, &min_r, &min_s, config) {
        Ok(rows) => oracle::diff(&oracle_rs(&min_r, &min_s, config), &rows).to_string(),
        Err(e) => format!("pipeline error: {e}"),
    };
    panic!(
        "{label}: R-S pipeline diverges from naive oracle\n{d}\nminimal counterexample \
         R ({}):\n{}\nS ({}):\n{}\nminimal diff: {min_diff}",
        min_r.len(),
        min_r.join("\n"),
        min_s.len(),
        min_s.join("\n"),
    );
}

/// R-S counterpart of [`check_self_cell_on`]: both backends and one thread,
/// bitwise parity, then the oracle.
fn check_rs_cell_on(
    shape: ClusterSpec,
    r_lines: &[String],
    s_lines: &[String],
    config: &JoinConfig,
    label: &str,
) {
    let sim_spec = ClusterSpec {
        backend: BackendKind::Simulated,
        ..shape
    };
    let simulated = pipeline_rs_on(sim_spec, r_lines, s_lines, config)
        .unwrap_or_else(|e| panic!("{label} [simulated]: pipeline: {e}"));
    for spec in parity_specs(shape) {
        let rows = pipeline_rs_on(spec, r_lines, s_lines, config)
            .unwrap_or_else(|e| panic!("{label} [{spec:?}]: pipeline: {e}"));
        assert_eq!(
            rows_bits(&simulated),
            rows_bits(&rows),
            "{label}: {spec:?} diverges from simulated"
        );
    }
    report_rs_divergence(sim_spec, r_lines, s_lines, config, label, &simulated);
}

fn check_rs_cell(r_lines: &[String], s_lines: &[String], config: &JoinConfig, label: &str) {
    check_rs_cell_on(default_spec(), r_lines, s_lines, config, label)
}

/// Seeded R-S corpora with guaranteed overlap: S is an unrelated
/// citeseerx base plus copies of every 4th R record under fresh RIDs —
/// half verbatim (similarity 1) and half with the last title word dropped
/// (similarity just under 1). Purely independent corpora share no
/// τ-similar pairs at these sizes, which would make the R-S matrix
/// vacuous (see `seeded_corpora_contain_similar_pairs`).
fn rs_corpora(seed: u64) -> (Vec<String>, Vec<String>) {
    let r = datagen::dblp(60, seed);
    let mut s = datagen::citeseerx(40, seed + 1000);
    for (i, rec) in r.iter().enumerate().filter(|(i, _)| i % 4 == 0) {
        let mut copy = rec.clone();
        copy.rid = 10_000 + i as u64;
        if i % 8 == 0 {
            let mut words: Vec<&str> = copy.title.split(' ').collect();
            if words.len() > 5 {
                words.pop();
                copy.title = words.join(" ");
            }
        }
        s.push(copy);
    }
    (datagen::to_lines(&r), datagen::to_lines(&s))
}

/// The full matrix for one kernel: stage-1 ordering × routing × measure
/// × {self-join, R-S} × 3 seeded corpora each — and every cell on both
/// execution backends and on one thread, bitwise.
fn kernel_matrix(stage2: Stage2Algo) {
    for stage1 in STAGE1S {
        for routing in ROUTINGS {
            for threshold in measures() {
                let config = JoinConfig {
                    stage1,
                    stage2,
                    routing,
                    threshold,
                    ..JoinConfig::recommended()
                };
                let label_base = format!(
                    "{} routing={routing:?} t={threshold:?}",
                    config.combo_name()
                );
                for seed in SEEDS {
                    let lines = datagen::to_lines(&datagen::dblp(80, seed));
                    check_self_cell(&lines, &config, &format!("{label_base} self seed={seed}"));
                }
                for seed in SEEDS {
                    let (r, s) = rs_corpora(seed);
                    check_rs_cell(&r, &s, &config, &format!("{label_base} rs seed={seed}"));
                }
            }
        }
    }
}

#[test]
fn differential_bk_matches_oracle() {
    kernel_matrix(kernels()[0]);
}

#[test]
fn differential_pk_matches_oracle() {
    kernel_matrix(kernels()[1]);
}

#[test]
fn differential_bk_map_blocks_matches_oracle() {
    kernel_matrix(kernels()[2]);
}

#[test]
fn differential_bk_reduce_blocks_matches_oracle() {
    kernel_matrix(kernels()[3]);
}

/// One skew cell, self-join: the same corpus under skew off and under a
/// forced-low-threshold adaptive plan must commit **bitwise identical**
/// rows; the skew-on run additionally holds on one thread, in worker
/// processes and
/// against the oracle (with ddmin shrinking on divergence). Returns the
/// number of groups the plan actually split, so callers can assert the
/// cell was not vacuous.
fn check_skew_self_cell(lines: &[String], config: &JoinConfig, label: &str) -> usize {
    let off_config = JoinConfig {
        skew: SkewConfig::off(),
        ..config.clone()
    };
    let sim_spec = ClusterSpec {
        backend: BackendKind::Simulated,
        ..default_spec()
    };
    let off = pipeline_self_on(sim_spec, lines, &off_config)
        .unwrap_or_else(|e| panic!("{label} [skew off]: pipeline: {e}"));
    // Skew-on, simulated — on a kept cluster so the plan the run used can
    // be rebuilt from the committed token order (the plan is a pure
    // function of inputs, tokens, and config).
    let c = cluster_on(sim_spec);
    c.dfs().write_text("/records", lines).unwrap();
    let outcome = self_join(&c, "/records", "/work", config)
        .unwrap_or_else(|e| panic!("{label} [skew on]: pipeline: {e}"));
    let on = joined_rows(&c, &outcome).unwrap_or_else(|e| panic!("{label} [skew on]: {e}"));
    assert_eq!(
        rows_bits(&off),
        rows_bits(&on),
        "{label}: splitting changed the committed pairs"
    );
    for spec in parity_specs(default_spec()) {
        let rows = pipeline_self_on(spec, lines, config)
            .unwrap_or_else(|e| panic!("{label} [{spec:?}]: pipeline: {e}"));
        assert_eq!(
            rows_bits(&on),
            rows_bits(&rows),
            "{label}: {spec:?} diverges under splitting"
        );
    }
    report_self_divergence(sim_spec, lines, config, label, &on);
    build_skew_plan(c.dfs(), &["/records"], &outcome.tokens_path, config)
        .unwrap()
        .len()
}

/// R-S counterpart of [`check_skew_self_cell`].
fn check_skew_rs_cell(
    r_lines: &[String],
    s_lines: &[String],
    config: &JoinConfig,
    label: &str,
) -> usize {
    let off_config = JoinConfig {
        skew: SkewConfig::off(),
        ..config.clone()
    };
    let sim_spec = ClusterSpec {
        backend: BackendKind::Simulated,
        ..default_spec()
    };
    let off = pipeline_rs_on(sim_spec, r_lines, s_lines, &off_config)
        .unwrap_or_else(|e| panic!("{label} [skew off]: pipeline: {e}"));
    let c = cluster_on(sim_spec);
    c.dfs().write_text("/r", r_lines).unwrap();
    c.dfs().write_text("/s", s_lines).unwrap();
    let outcome = rs_join(&c, "/r", "/s", "/work", config)
        .unwrap_or_else(|e| panic!("{label} [skew on]: pipeline: {e}"));
    let on = joined_rows(&c, &outcome).unwrap_or_else(|e| panic!("{label} [skew on]: {e}"));
    assert_eq!(
        rows_bits(&off),
        rows_bits(&on),
        "{label}: splitting changed the committed pairs"
    );
    for spec in parity_specs(default_spec()) {
        let rows = pipeline_rs_on(spec, r_lines, s_lines, config)
            .unwrap_or_else(|e| panic!("{label} [{spec:?}]: pipeline: {e}"));
        assert_eq!(
            rows_bits(&on),
            rows_bits(&rows),
            "{label}: {spec:?} diverges under splitting"
        );
    }
    report_rs_divergence(sim_spec, r_lines, s_lines, config, label, &on);
    build_skew_plan(c.dfs(), &["/r", "/s"], &outcome.tokens_path, config)
        .unwrap()
        .len()
}

/// The skew matrix for one kernel: routing × measure × seeds, each cell
/// run skew-off vs forced-low-threshold adaptive (stride-1 sample, hot at
/// 6 routed records, ≤ 4 buckets) on both backends. The aggregate
/// non-vacuity assert proves the forced plan really split groups somewhere
/// in the matrix — a threshold so low it never triggers would make every
/// cell trivially pass.
fn skew_matrix(stage2: Stage2Algo) {
    let mut split_groups = 0usize;
    for routing in ROUTINGS {
        for threshold in [Threshold::jaccard(0.8), Threshold::overlap(4)] {
            let config = JoinConfig {
                stage2,
                routing,
                threshold,
                skew: SkewConfig::forced(6, 4),
                ..JoinConfig::recommended()
            };
            let label_base = format!(
                "skew {} routing={routing:?} t={threshold:?}",
                config.combo_name()
            );
            for seed in SEEDS {
                let lines = datagen::to_lines(&datagen::dblp(80, seed));
                split_groups += check_skew_self_cell(
                    &lines,
                    &config,
                    &format!("{label_base} self seed={seed}"),
                );
            }
            let (r, s) = rs_corpora(SEEDS[0]);
            split_groups += check_skew_rs_cell(&r, &s, &config, &format!("{label_base} rs"));
        }
    }
    assert!(
        split_groups > 0,
        "forced skew matrix must actually split groups"
    );
}

#[test]
fn differential_skew_bk_is_invisible() {
    skew_matrix(kernels()[0]);
}

#[test]
fn differential_skew_pk_is_invisible() {
    skew_matrix(kernels()[1]);
}

#[test]
fn differential_skew_bk_map_blocks_is_invisible() {
    skew_matrix(kernels()[2]);
}

#[test]
fn differential_skew_bk_reduce_blocks_is_invisible() {
    skew_matrix(kernels()[3]);
}

/// Both stage-3 variants must agree with the oracle too (the matrix above
/// runs BRJ; OPRJ shares stage 2 but indexes the pair list its own way).
#[test]
fn differential_oprj_matches_oracle() {
    for stage2 in kernels() {
        let config = JoinConfig {
            stage2,
            stage3: Stage3Algo::Oprj,
            ..JoinConfig::recommended()
        };
        for seed in SEEDS {
            let lines = datagen::to_lines(&datagen::dblp(80, seed));
            check_self(
                &lines,
                &config,
                &format!("{} oprj self seed={seed}", config.combo_name()),
            );
            let (r, s) = rs_corpora(seed);
            check_rs(
                &r,
                &s,
                &config,
                &format!("{} oprj rs seed={seed}", config.combo_name()),
            );
        }
    }
}

/// Q-gram tokenization crossed into the kernel matrix: every kernel must
/// stay exact when join attributes are tokenized into overlapping q-grams
/// — a far denser token-frequency distribution than words, and much longer
/// prefixes at the same τ, so the prefix filter and the kernels' length
/// bounds are exercised on very different shapes.
#[test]
fn differential_qgram_tokenization_matches_oracle() {
    let mut nonvacuous = 0usize;
    for q in [2usize, 3] {
        for stage2 in kernels() {
            let config = JoinConfig {
                stage2,
                tokenizer: TokenizerKind::QGram(q),
                threshold: Threshold::jaccard(0.8),
                ..JoinConfig::recommended()
            };
            for seed in SEEDS {
                let lines = datagen::to_lines(&datagen::dblp(60, seed));
                nonvacuous += oracle_self(&lines, &config).len();
                check_self(
                    &lines,
                    &config,
                    &format!("{} qgram={q} self seed={seed}", config.combo_name()),
                );
            }
            let (r, s) = rs_corpora(SEEDS[0]);
            nonvacuous += oracle_rs(&r, &s, &config).len();
            check_rs(
                &r,
                &s,
                &config,
                &format!("{} qgram={q} rs", config.combo_name()),
            );
        }
    }
    assert!(nonvacuous > 0, "q-gram cells must not be vacuous");
}

/// Synthetic records over a closed vocabulary: 8 words per record drawn
/// from `{prefix}0..{prefix}{vocab}` with a sliding window, so records
/// overlap heavily within a relation and not at all across relations with
/// different prefixes.
fn synth_lines(n: usize, rid_base: u64, prefix: &str, vocab: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let words: Vec<String> = (0..8)
                .map(|j| format!("{prefix}{}", (i * 3 + j) % vocab))
                .collect();
            format!("{}\t{}\tx\t", rid_base + i as u64, words.join(" "))
        })
        .collect()
}

/// Pathological R-S shapes for the BK and PK kernels.
///
/// 1. **S ≫ R**: stage 1 runs on the much smaller R (the paper's guidance),
///    so almost every S record's tokens are ranked by a dictionary built
///    from a sliver of the data — and S copies of R records must still join
///    exactly.
/// 2. **Disjoint dictionaries at scale**: no S token appears in R's token
///    order, so every S projection is discarded in stage 2. The join must
///    return exactly zero pairs — not an error, and not spurious pairs.
#[test]
fn differential_pathological_rs_corpora() {
    let kernels2 = [Stage2Algo::Bk, Stage2Algo::Pk];
    // Shape 1: S an order of magnitude larger than R, with guaranteed
    // overlap (S carries a copy of every R record under fresh RIDs).
    for seed in SEEDS {
        let r = datagen::dblp(15, seed);
        let mut s = datagen::increase(&datagen::citeseerx(60, seed + 7), 3);
        for (i, rec) in r.iter().enumerate() {
            let mut copy = rec.clone();
            copy.rid = 50_000 + i as u64;
            s.push(copy);
        }
        for (i, rec) in s.iter_mut().enumerate() {
            rec.rid = 100_000 + i as u64;
        }
        let (r_lines, s_lines) = (datagen::to_lines(&r), datagen::to_lines(&s));
        assert!(
            s_lines.len() >= 10 * r_lines.len(),
            "shape must stay pathological: |S|={} |R|={}",
            s_lines.len(),
            r_lines.len()
        );
        for stage2 in kernels2 {
            let config = JoinConfig {
                stage2,
                ..JoinConfig::recommended()
            };
            assert!(
                !oracle_rs(&r_lines, &s_lines, &config).is_empty(),
                "S ≫ R cell must not be vacuous"
            );
            check_rs(
                &r_lines,
                &s_lines,
                &config,
                &format!("{} s>>r seed={seed}", config.combo_name()),
            );
        }
    }
    // Shape 2: disjoint dictionaries at scale.
    let r_lines = synth_lines(100, 0, "r", 40);
    let s_lines = synth_lines(400, 10_000, "s", 40);
    for stage2 in kernels2 {
        let config = JoinConfig {
            stage2,
            ..JoinConfig::recommended()
        };
        assert!(
            oracle_rs(&r_lines, &s_lines, &config).is_empty(),
            "disjoint dictionaries share no pairs by construction"
        );
        check_rs(
            &r_lines,
            &s_lines,
            &config,
            &format!("{} disjoint-dict", config.combo_name()),
        );
    }
}

/// Every kernel must stay exact on stressed cluster shapes: a 1-node
/// cluster (no parallelism, every task on the same machine — a historical
/// harness gap) and a tight per-task memory budget that makes every
/// `MemoryGauge` charge site count without pushing the seeded corpora
/// into OOM. Both shapes run on both execution backends and on one thread
/// with bitwise parity asserted (the cell check overrides the spec's
/// `backend` and `threads`). One routing × one measure × one seed per
/// cell keeps the runtime proportionate; the full matrix above covers the
/// algorithmic combinations on the default cluster.
#[test]
fn differential_holds_on_one_node_and_tight_memory_clusters() {
    let shapes = [
        ClusterSpec {
            nodes: 1,
            task_memory: None,
            backend: BackendKind::Simulated,
            threads: None,
        },
        ClusterSpec {
            nodes: 3,
            task_memory: Some(64 * 1024),
            backend: BackendKind::Simulated,
            threads: None,
        },
    ];
    for shape in shapes {
        for stage2 in kernels() {
            let config = JoinConfig {
                stage2,
                ..JoinConfig::recommended()
            };
            let label = format!("{} on {shape:?}", config.combo_name());
            let lines = datagen::to_lines(&datagen::dblp(80, SEEDS[0]));
            check_self_cell_on(shape, &lines, &config, &format!("{label} self"));
            let (r, s) = rs_corpora(SEEDS[0]);
            check_rs_cell_on(shape, &r, &s, &config, &format!("{label} rs"));
        }
    }
}

/// Guard against a vacuous harness: the seeded corpora must actually
/// contain similar pairs under every measure in the matrix.
#[test]
fn seeded_corpora_contain_similar_pairs() {
    for threshold in measures() {
        let config = JoinConfig::recommended().with_threshold(threshold);
        let self_total: usize = SEEDS
            .iter()
            .map(|&seed| oracle_self(&datagen::to_lines(&datagen::dblp(80, seed)), &config).len())
            .sum();
        assert!(self_total > 0, "no self-join pairs at {threshold:?}");
        let rs_total: usize = SEEDS
            .iter()
            .map(|&seed| {
                let (r, s) = rs_corpora(seed);
                oracle_rs(&r, &s, &config).len()
            })
            .sum();
        assert!(rs_total > 0, "no R-S pairs at {threshold:?}");
    }
}

/// Guard against a toothless harness: a pipeline run under a *different*
/// predicate than the oracle must register as a divergence.
#[test]
fn harness_detects_injected_divergence() {
    let lines = datagen::to_lines(&datagen::dblp(80, SEEDS[0]));
    let strict = JoinConfig::recommended().with_threshold(Threshold::jaccard(0.8));
    let loose = JoinConfig::recommended().with_threshold(Threshold::jaccard(0.7));
    let expected = oracle_self(&lines, &strict);
    let actual = pipeline_self(&lines, &loose).unwrap();
    let d = oracle::diff(&expected, &actual);
    assert!(
        !d.spurious.is_empty() || !d.sim_mismatches.is_empty(),
        "injected threshold skew went undetected: {d}"
    );
}

/// Each pair from exactly one reducer, self-join: two records sharing
/// several prefix tokens meet in several reducers under Individual routing,
/// but only the owner of their smallest shared token emits the pair — one
/// raw stage-2 line, normalized to `(min, max)`, whatever the kernel and
/// the stage-3 variant.
#[test]
fn duplicate_rid_pairs_eliminated_in_self_join() {
    // 10 shared tokens at τ=0.8 → probe prefix of 3 → the records meet in
    // 3 reducers. RIDs deliberately reversed relative to sort order.
    let attr = "alpha beta gamma delta epsilon zeta eta theta iota kappa";
    let lines = vec![
        format!("9\t{attr}\tx\t"),
        format!("2\t{attr}\tx\t"),
        "5\tcompletely different words here nothing shared at all\ty\t".to_string(),
    ];
    // Which reducer owns the pair follows from the two records alone, so
    // every kernel commits it to the same part file.
    let mut owner_part: Option<String> = None;
    for stage2 in kernels() {
        for stage3 in [Stage3Algo::Brj, Stage3Algo::Oprj] {
            let config = JoinConfig {
                stage2,
                stage3,
                ..JoinConfig::recommended()
            };
            let c = cluster(3);
            c.dfs().write_text("/records", &lines).unwrap();
            let outcome = self_join(&c, "/records", "/work", &config).unwrap();
            let part = c
                .dfs()
                .data_files(&outcome.ridpairs_path)
                .into_iter()
                .find(|f| !c.dfs().read_text(f).unwrap().is_empty())
                .expect("some part holds the pair");
            assert_eq!(
                owner_part.get_or_insert_with(|| part.clone()),
                &part,
                "{stage2:?} emitted the pair from another reducer"
            );
            // The records really do meet more than once — otherwise this
            // test proves nothing about ownership.
            let job = &outcome.stage2.jobs[0];
            assert!(
                job.counter("stage2.routed_pairs") >= 6,
                "both records must be routed to several reducers"
            );
            let raw: Vec<String> = c.dfs().read_text(&outcome.ridpairs_path).unwrap();
            assert_eq!(
                raw.iter().filter(|l| l.starts_with("2\t9\t")).count(),
                1,
                "{stage2:?}: exactly one reducer emits the pair, got {raw:?}"
            );
            assert_eq!(raw.len(), 1, "{stage2:?}: and nothing else: {raw:?}");
            let joined = read_joined(&c, &outcome.joined_path).unwrap();
            let hits: Vec<_> = joined.iter().map(|(k, _)| *k).collect();
            assert_eq!(hits, vec![(2, 9)], "{stage2:?} / {stage3:?}");
        }
    }
}

/// Each pair from exactly one reducer, R-S: same property, and the pair
/// keeps the `(r, s)` orientation — including when the S RID is
/// numerically smaller.
#[test]
fn duplicate_rid_pairs_eliminated_in_rs_join() {
    let attr = "alpha beta gamma delta epsilon zeta eta theta iota kappa";
    let r_lines = vec![
        format!("7\t{attr}\tx\t"),
        "8\tsome other unrelated r record text\ty\t".to_string(),
    ];
    // S RID 3 < R RID 7: orientation, not normalization, must win.
    let s_lines = vec![format!("3\t{attr}\tz\t")];
    for stage2 in kernels() {
        for stage3 in [Stage3Algo::Brj, Stage3Algo::Oprj] {
            let config = JoinConfig {
                stage2,
                stage3,
                ..JoinConfig::recommended()
            };
            let c = cluster(3);
            c.dfs().write_text("/r", &r_lines).unwrap();
            c.dfs().write_text("/s", &s_lines).unwrap();
            let outcome = rs_join(&c, "/r", "/s", "/work", &config).unwrap();
            let raw: Vec<String> = c.dfs().read_text(&outcome.ridpairs_path).unwrap();
            assert_eq!(
                raw.iter().filter(|l| l.starts_with("7\t3\t")).count(),
                1,
                "{stage2:?}: exactly one reducer emits the (r, s) pair, got {raw:?}"
            );
            assert_eq!(raw.len(), 1, "{stage2:?}: and nothing else: {raw:?}");
            let joined = read_joined(&c, &outcome.joined_path).unwrap();
            let hits: Vec<_> = joined.iter().map(|(k, _)| *k).collect();
            assert_eq!(hits, vec![(7, 3)], "{stage2:?} / {stage3:?}");
        }
    }
}

/// Decode a flat index into a (kernel, routing) cell — lets the property
/// test draw a uniform config without nested strategies.
fn config_cell(index: usize, threshold: Threshold) -> JoinConfig {
    let stage2 = kernels()[index % 4];
    let routing = ROUTINGS[(index / 4) % 2];
    JoinConfig {
        stage2,
        routing,
        threshold,
        ..JoinConfig::recommended()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized corpora over a tiny vocabulary (heavy token collisions,
    /// duplicate records, empty and single-token join attributes) across
    /// random config cells. Shrinking to a minimal counterexample happens
    /// inside `check_self`/`check_rs`.
    #[test]
    fn random_corpora_match_oracle(
        sets in prop::collection::vec(prop::collection::vec(0u8..12, 0..8), 2..28),
        cell in 0usize..8,
        measure in 0usize..4,
        split in 1usize..27,
    ) {
        let config = config_cell(cell, measures()[measure]);
        let lines: Vec<String> = sets
            .iter()
            .enumerate()
            .map(|(i, ws)| {
                let words: Vec<String> = ws.iter().map(|w| format!("w{w}")).collect();
                format!("{i}\t{}\tauthor\t", words.join(" "))
            })
            .collect();
        check_self(&lines, &config, &format!("proptest self {}", config.combo_name()));
        // Reuse the corpus as an R-S split at a generated cut point.
        let cut = split.min(lines.len() - 1).max(1);
        let (r, s) = lines.split_at(cut);
        check_rs(r, s, &config, &format!("proptest rs {}", config.combo_name()));
        prop_assert!(true);
    }
}

/// Hidden worker entry for `MR_BACKEND=process`: the driver re-spawns this
/// test binary as worker processes that land here. In a normal test run
/// the worker env var is unset and this is an instant no-op pass.
#[test]
fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}
