//! `fuzzyjoin-cli` — parallel set-similarity joins over local text files.
//!
//! Wraps the [`fuzzyjoin`] pipeline for command-line use: input files are
//! loaded into the cluster's on-disk DFS, the three-stage join runs on the
//! chosen backend, and results are written back to local files.
//!
//! ```text
//! fuzzyjoin-cli gen      --kind dblp --records 10000 --scale 5 --out dblp.tsv
//! fuzzyjoin-cli selfjoin --input dblp.tsv --out pairs.tsv --threshold 0.8
//! fuzzyjoin-cli rsjoin   --r dblp.tsv --s cite.tsv --out matches.tsv
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;

use std::fmt::Write as _;
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};

use args::Args;
use fuzzyjoin::{
    read_joined, rs_join, run_report_resolved, self_join, BadRecordPolicy, Cluster, ClusterConfig,
    FaultPlan, JoinConfig, JoinOutcome, RecordFormat, SimFunction, SkewConfig, SkewMode,
    Stage1Algo, Stage2Algo, Stage3Algo, Threshold, TokenRouting, TokenizerKind,
};
use mapreduce::{BackendKind, TraceSink};

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage: fuzzyjoin-cli <command> [--flag value ...]

commands:
  gen       generate a synthetic corpus
            --kind dblp|citeseerx|dna  --records N  --out FILE
            [--scale F] [--seed S] [--skew-exponent Z]
  selfjoin  self-join one file
            --input FILE  --out FILE
            [--threshold T] [--measure jaccard|cosine|dice]
            [--combo bto|opto-bk|pk-brj|oprj] [--nodes N] [--qgram Q]
            [--rid-field I] [--join-fields 1,2] [--groups G] [--full yes]
            [--backend simulated|process] [--dfs-root DIR]
            [--task-timeout-secs T]
            [--fault-seed S] [--fault-plan SPEC]
            [--skew adaptive|off] [--skew-split-max B]
            [--skew-hot-threshold N]
  rsjoin    join two files (stage 1 runs on --r; make it the smaller one)
            --r FILE --s FILE --out FILE  [same options as selfjoin]

fault injection (chaos testing; results are unaffected by design):
  --fault-seed S     run under the aggressive chaos preset with seed S
  --fault-plan SPEC  custom plan, e.g.
                     seed=42,transient=0.1,panic=0.05,oom=0.02,late=0.05,straggler=0.1x8,node_down=2
                     plus wall-clock chaos: hang=P (worker stops responding;
                     requires --task-timeout-secs on --backend process) and
                     slow_heartbeat=P (worker suppresses heartbeats but keeps
                     working — exercises the heartbeat detector)
                     (--fault-seed overrides the plan's seed); driver-level
                     points: crash_after=N / crash_mid=N (the driver dies
                     after, or mid, job N, counted from 0 over the jobs it
                     runs: exit 1, driver crashed; relaunch over the same
                     --dfs-root to resume. A relaunch counts only the jobs
                     it runs, not those it skips, so the same plan crashes
                     it again further on) and
                     corrupt=/dfs/path (flip a bit in a committed file; the
                     CRC layer catches it on the next read and the join
                     fails)
                     storage faults, on every backend:
                     enospc=N (disk full after N bytes; enospc=N+heal lets a
                     scavenger pass reset the budget), eio=P (seeded
                     read/write/rename I/O errors, retried as transient) and
                     torn=P (a write persists only a prefix; the CRC wall
                     catches it on read, and a relaunch over the same
                     --dfs-root re-runs the producing stage)

execution (selfjoin/rsjoin):
  --backend KIND  simulated (default): the deterministic in-process
                  executor on the driver's thread pool, each spill run
                  handed to its reducer as it is; process: process-isolated
                  workers (this binary re-spawned) sharing the driver's
                  DFS — every job of a join runs its tasks in the
                  workers (the driver's own threads run only
                  closure-built jobs, which tests alone make). Join
                  output is byte-identical in every case.
  --dfs-root DIR  keep the DFS at DIR (created if missing and persistent
                  across runs); without it every backend uses a
                  self-cleaning temporary directory (under /dev/shm where
                  there is one)

skew handling (selfjoin/rsjoin):
  --skew adaptive     sample the input before stage 2 and split hot routing
                      groups into bucket-pair reduce keys (mappers replicate
                      hot records; every candidate pair still meets in at
                      least one reducer, so the output is byte-identical to
                      --skew off — only the per-reducer load changes)
  --skew-split-max B  cap on buckets (= replication factor) per split group
                      (default 8)
  --skew-hot-threshold N  split a group when its estimated routed record
                      count reaches N (default 4096)

supervision (wall-clock watchdog, on every backend):
  --task-timeout-secs T       kill any task attempt still running after T
                              seconds of wall-clock time; the attempt is
                              retried as a transient node loss (process
                              backend kills the worker process; simulated
                              fails the join fast since in-process attempts
                              cannot be killed). Off by default. While
                              busy, process workers send a heartbeat every
                              T/20 seconds; a worker silent for 0.4*T
                              seconds is declared hung and killed before
                              its deadline

recovery (selfjoin/rsjoin):
  every join resumes over what its --dfs-root holds: a job whose _SUCCESS
  manifest (input fingerprint + per-part checksums) validates is skipped,
  and every other job re-runs into its cleared output directory, so a
  join relaunched after a crash, a kill or a detected corruption writes
  the pairs an uninterrupted join writes
  --bad-records POLICY  malformed input lines: strict (default, fail the
                        job), skip (count and continue), or skip:N (skip at
                        most N per job, then fail)

observability (selfjoin/rsjoin):
  --trace-out FILE    write the execution trace: one JSONL span event per
                      task attempt for a .jsonl FILE, else Chrome
                      trace_event JSON loadable in Perfetto/about:tracing
  --metrics-json FILE write the schema-versioned machine-readable run
                      report (fuzzyjoin.run-report v3): per stage and job,
                      modelled and wall time, task, record and shuffle
                      volumes, locality, histogram percentiles, hot keys,
                      fault statistics and the phase profile (wall time
                      split into setup/spawn/map/regroup/reduce/commit/
                      finalize windows plus busy attribution) — measured
                      on every backend, merged back from worker processes
";

/// Hidden worker entry for `--backend process`: when this binary was
/// re-spawned by a driver (the worker environment variable is set),
/// register the job factories and hand the process over to the worker
/// frame loop — this call never returns in that case. In a normal
/// invocation it is a no-op; call it before argument parsing, since a
/// worker's argv is libtest-shaped, not CLI-shaped.
pub fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}

/// Entry point: parse and execute, returning the human-readable summary.
pub fn run(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "gen" => cmd_gen(&args),
        "selfjoin" => cmd_selfjoin(&args),
        "rsjoin" => cmd_rsjoin(&args),
        "" => Err("missing command".into()),
        other => Err(format!("unknown command {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

fn cmd_gen(args: &Args) -> Result<String, String> {
    args.ensure_known(&["kind", "records", "out", "scale", "seed", "skew-exponent"])?;
    let kind = args.get("kind").unwrap_or("dblp");
    let records: usize = args.get_parsed("records", 10_000)?;
    let scale: usize = args.get_parsed("scale", 1)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let out = args.require("out")?;
    // Token-frequency Zipf exponent override: higher values concentrate
    // mass on the hottest tokens (the benchmark's `zipf-lowtau-self`).
    let skew_exponent: Option<f64> = match args.get("skew-exponent") {
        Some(v) => Some(v.parse().map_err(|e| format!("bad --skew-exponent: {e}"))?),
        None => None,
    };

    let lines = match kind {
        "dblp" | "citeseerx" => {
            let mut config = if kind == "dblp" {
                datagen::GeneratorConfig::dblp(records, seed)
            } else {
                datagen::citeseerx_config(records, seed)
            };
            if let Some(z) = skew_exponent {
                config.zipf_exponent = z;
            }
            datagen::to_lines(&datagen::increase(&datagen::generate(&config), scale))
        }
        "dna" => {
            if skew_exponent.is_some() {
                return Err("--skew-exponent only applies to dblp/citeseerx".into());
            }
            let config = datagen::DnaConfig {
                records: records * scale,
                seed,
                ..Default::default()
            };
            datagen::dna_to_lines(&datagen::generate_dna(&config))
        }
        other => return Err(format!("unknown corpus kind {other:?}")),
    };
    write_lines(out, &lines)?;
    Ok(format!(
        "wrote {} {} records to {}\n",
        lines.len(),
        kind,
        out
    ))
}

// ---------------------------------------------------------------------------
// joins
// ---------------------------------------------------------------------------

const JOIN_FLAGS: &[&str] = &[
    "input",
    "r",
    "s",
    "out",
    "threshold",
    "measure",
    "combo",
    "nodes",
    "qgram",
    "rid-field",
    "join-fields",
    "groups",
    "full",
    "backend",
    "dfs-root",
    "task-timeout-secs",
    "fault-seed",
    "fault-plan",
    "skew",
    "skew-split-max",
    "skew-hot-threshold",
    "bad-records",
    "trace-out",
    "metrics-json",
];

/// Parse the fault-injection flags: `--fault-plan` gives the rates (and
/// optionally a seed), `--fault-seed` alone enables the aggressive chaos
/// preset and otherwise overrides the plan's seed.
fn fault_plan(args: &Args) -> Result<Option<FaultPlan>, String> {
    let mut plan = match args.get("fault-plan") {
        Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("bad --fault-plan: {e}"))?),
        None => None,
    };
    if let Some(seed) = args.get("fault-seed") {
        let seed: u64 = seed.parse().map_err(|e| format!("bad --fault-seed: {e}"))?;
        plan = Some(match plan {
            Some(mut p) => {
                p.seed = seed;
                p
            }
            None => FaultPlan::aggressive(seed),
        });
    }
    if plan.is_some() {
        quiet_injected_panics();
    }
    Ok(plan)
}

/// Injected panics are expected under a fault plan (the engine catches and
/// retries them); keep their backtraces off stderr while letting genuine
/// panics through.
fn quiet_injected_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
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

fn join_config(args: &Args) -> Result<(JoinConfig, usize), String> {
    let tau: f64 = args.get_parsed("threshold", 0.8)?;
    let func = match args.get("measure").unwrap_or("jaccard") {
        "jaccard" => SimFunction::Jaccard,
        "cosine" => SimFunction::Cosine,
        "dice" => SimFunction::Dice,
        other => return Err(format!("unknown measure {other:?}")),
    };
    let threshold = Threshold::new(func, tau)?;

    let combo = args.get("combo").unwrap_or("bto-pk-brj").to_lowercase();
    let [s1, s2, s3] = combo.split('-').collect::<Vec<_>>()[..] else {
        return Err(format!("bad --combo {combo:?} (expected like bto-pk-brj)"));
    };
    let stage1 = match s1 {
        "bto" => Stage1Algo::Bto,
        "opto" => Stage1Algo::Opto,
        other => return Err(format!("unknown stage-1 algorithm {other:?}")),
    };
    let stage2 = match s2 {
        "bk" => Stage2Algo::Bk,
        "pk" => Stage2Algo::Pk,
        other => return Err(format!("unknown stage-2 algorithm {other:?}")),
    };
    let stage3 = match s3 {
        "brj" => Stage3Algo::Brj,
        "oprj" => Stage3Algo::Oprj,
        other => return Err(format!("unknown stage-3 algorithm {other:?}")),
    };

    let rid_field: usize = args.get_parsed("rid-field", 0)?;
    let join_fields: Vec<usize> = match args.get("join-fields") {
        None => vec![1, 2],
        Some(spec) => spec
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("bad --join-fields: {e}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let tokenizer = match args.get("qgram") {
        None => TokenizerKind::Word,
        Some(q) => TokenizerKind::QGram(
            q.parse::<usize>()
                .map_err(|e| format!("bad --qgram: {e}"))?,
        ),
    };
    let routing = match args.get("groups") {
        None => TokenRouting::Individual,
        Some(g) => TokenRouting::Grouped {
            groups: g.parse::<u32>().map_err(|e| format!("bad --groups: {e}"))?,
        },
    };
    let bad_records = match args.get("bad-records") {
        None => BadRecordPolicy::Strict,
        Some(spec) => {
            BadRecordPolicy::parse(spec).map_err(|e| format!("bad --bad-records: {e}"))?
        }
    };
    let nodes: usize = args.get_parsed("nodes", 10)?;
    if nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }

    let mut skew = SkewConfig::off();
    if let Some(mode) = args.get("skew") {
        skew.mode = SkewMode::parse(mode).map_err(|e| format!("bad --skew: {e}"))?;
    }
    if let Some(v) = args.get("skew-split-max") {
        skew.split_max = v
            .parse()
            .map_err(|e| format!("bad --skew-split-max: {e}"))?;
    }
    if let Some(v) = args.get("skew-hot-threshold") {
        skew.hot_threshold = v
            .parse()
            .map_err(|e| format!("bad --skew-hot-threshold: {e}"))?;
    }

    let config = JoinConfig {
        threshold,
        format: RecordFormat {
            rid_field,
            join_fields,
        },
        tokenizer,
        stage1,
        stage2,
        routing,
        stage3,
        bad_records,
        skew,
    };
    // The library names each rejected value by its flag.
    config.validate().map_err(|e| format!("bad --{e}"))?;
    Ok((config, nodes))
}

/// Parse `--backend` (absent, or a [`BackendKind`] name).
fn backend_flag(args: &Args) -> Result<BackendKind, String> {
    match args.get("backend") {
        None => Ok(BackendKind::default()),
        Some(name) => BackendKind::parse(name)
            .ok_or_else(|| format!("bad --backend {name:?} (expected simulated or process)")),
    }
}

/// A switch flag (`--full`): absent is off, `yes` is on, and any other
/// value is refused.
fn yes_flag(args: &Args, name: &str) -> Result<bool, String> {
    match args.get(name) {
        None => Ok(false),
        Some("yes") => Ok(true),
        Some(other) => Err(format!("bad --{name} {other:?} (expected yes)")),
    }
}

fn cmd_selfjoin(args: &Args) -> Result<String, String> {
    args.ensure_known(JOIN_FLAGS)?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let (config, nodes) = join_config(args)?;

    let full = yes_flag(args, "full")?;
    let mut cluster = make_cluster(nodes, args)?;
    let sink = attach_trace(&mut cluster, args);
    let n = load_file(&cluster, input, "/input")?;
    let outcome =
        self_join(&cluster, "/input", "/work", &config).map_err(|e| format!("join failed: {e}"))?;
    let written = write_results(&cluster, &outcome, out, full)?;
    let mut s = summary(
        &format!("self-join of {n} records from {input}"),
        &config,
        nodes,
        &outcome,
        written,
        out,
    );
    emit_observability(&cluster, args, &outcome, &config, sink.as_ref(), &mut s)?;
    Ok(s)
}

fn cmd_rsjoin(args: &Args) -> Result<String, String> {
    args.ensure_known(JOIN_FLAGS)?;
    let r = args.require("r")?;
    let s = args.require("s")?;
    let out = args.require("out")?;
    let (config, nodes) = join_config(args)?;

    let full = yes_flag(args, "full")?;
    let mut cluster = make_cluster(nodes, args)?;
    let sink = attach_trace(&mut cluster, args);
    let nr = load_file(&cluster, r, "/r")?;
    let ns = load_file(&cluster, s, "/s")?;
    let outcome =
        rs_join(&cluster, "/r", "/s", "/work", &config).map_err(|e| format!("join failed: {e}"))?;
    let written = write_results(&cluster, &outcome, out, full)?;
    let mut text = summary(
        &format!("R-S join of {nr} x {ns} records from {r} and {s}"),
        &config,
        nodes,
        &outcome,
        written,
        out,
    );
    emit_observability(&cluster, args, &outcome, &config, sink.as_ref(), &mut text)?;
    Ok(text)
}

/// Attach a trace sink to the cluster when `--trace-out` asks for one.
fn attach_trace(cluster: &mut Cluster, args: &Args) -> Option<TraceSink> {
    args.get("trace-out").map(|_| {
        let sink = TraceSink::new();
        cluster.set_trace(sink.clone());
        sink
    })
}

/// Write the `--trace-out` / `--metrics-json` files after the join
/// completed. Trace and report emission happen outside the measured task
/// windows, so they never affect simulated times.
fn emit_observability(
    cluster: &Cluster,
    args: &Args,
    outcome: &JoinOutcome,
    config: &JoinConfig,
    sink: Option<&TraceSink>,
    text: &mut String,
) -> Result<(), String> {
    if let (Some(path), Some(sink)) = (args.get("trace-out"), sink) {
        let body = if path.ends_with(".jsonl") {
            sink.to_jsonl()
        } else {
            sink.to_chrome_trace()
        };
        fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(text, "trace ({} events) written to {path}", sink.len());
    }
    if let Some(path) = args.get("metrics-json") {
        let report = run_report_resolved(cluster, outcome, config).map_err(|e| e.to_string())?;
        fs::write(path, report.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(text, "run report written to {path}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// plumbing
// ---------------------------------------------------------------------------

fn make_cluster(nodes: usize, args: &Args) -> Result<Cluster, String> {
    let faults = fault_plan(args)?;
    let backend = backend_flag(args)?;
    let task_timeout_secs = match args.get("task-timeout-secs") {
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|e| e.to_string())
                .and_then(|secs| mapreduce::task_deadline(secs).map(|_| secs))
                .map_err(|e| format!("bad --task-timeout-secs: {e}"))?,
        ),
        None => None,
    };
    let config = ClusterConfig {
        // Fault injection needs a retry budget, and so does the process
        // backend (a lost worker process is a retryable NodeLost, not a
        // bug); fault-free in-process runs keep the strict default where
        // any failure surfaces immediately.
        max_task_attempts: if faults.is_some() || backend == BackendKind::Process {
            8
        } else {
            1
        },
        faults,
        backend,
        dfs_root: args.get("dfs-root").map(std::path::PathBuf::from),
        task_timeout_secs,
        ..ClusterConfig::with_nodes(nodes)
    };
    Cluster::new(config, 4 << 20).map_err(|e| e.to_string())
}

fn load_file(cluster: &Cluster, path: &str, dfs_path: &str) -> Result<usize, String> {
    let file = fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    // A persistent --dfs-root carries the previous run's input across
    // drivers (a relaunch after a crash or a kill). Reload it: identical bytes
    // produce identical block CRCs, so manifest fingerprints stay valid
    // and committed stages still skip.
    if cluster.dfs().exists(dfs_path) {
        cluster.dfs().delete(dfs_path).map_err(|e| e.to_string())?;
    }
    let mut writer = cluster
        .dfs()
        .text_writer(dfs_path)
        .map_err(|e| e.to_string())?;
    let mut n = 0usize;
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        if read == 0 {
            break;
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if !trimmed.is_empty() {
            writer.write_line(trimmed);
            n += 1;
        }
    }
    writer.close().map_err(|e| e.to_string())?;
    Ok(n)
}

fn write_lines(path: &str, lines: &[String]) -> Result<(), String> {
    let file = fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    for line in lines {
        writeln!(w, "{line}").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    w.flush().map_err(|e| format!("cannot write {path}: {e}"))
}

/// Write results: pairs mode (`rid1 \t rid2 \t sim`) or full mode with the
/// complete record lines indented under each pair.
fn write_results(
    cluster: &Cluster,
    outcome: &JoinOutcome,
    path: &str,
    full: bool,
) -> Result<usize, String> {
    let joined = read_joined(cluster, &outcome.joined_path).map_err(|e| e.to_string())?;
    let file = fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    for ((a, b), (line_a, line_b, sim)) in &joined {
        if full {
            writeln!(w, "# {a}\t{b}\t{sim}").and_then(|()| {
                writeln!(w, "  {line_a}")?;
                writeln!(w, "  {line_b}")
            })
        } else {
            writeln!(w, "{a}\t{b}\t{sim}")
        }
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    w.flush().map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(joined.len())
}

fn summary(
    what: &str,
    config: &JoinConfig,
    nodes: usize,
    outcome: &JoinOutcome,
    pairs: usize,
    out: &str,
) -> String {
    let (s1, s2, s3) = outcome.stage_sim_secs();
    let mut s = String::new();
    let _ = writeln!(s, "{what}");
    let _ = writeln!(
        s,
        "combo {} on {} simulated nodes, threshold {:?} {}",
        config.combo_name(),
        nodes,
        config.threshold.func(),
        config.threshold.tau()
    );
    let _ = writeln!(s, "stage 1 (token ordering):  {s1:.3}s simulated");
    let _ = writeln!(s, "stage 2 (RID-pair kernel): {s2:.3}s simulated");
    let _ = writeln!(s, "stage 3 (record join):     {s3:.3}s simulated");
    let _ = writeln!(
        s,
        "shuffled {} bytes; wall time {:.3}s",
        outcome.shuffle_bytes(),
        outcome.wall_secs()
    );
    let retries = outcome.task_retries();
    let (launched, won, killed) = outcome.speculative();
    if retries + launched + outcome.output_aborts() > 0 {
        let _ = writeln!(
            s,
            "faults survived: {retries} retries, {} aborts, speculative {launched} launched/{won} won/{killed} killed",
            outcome.output_aborts(),
        );
    }
    let rec = &outcome.recovery;
    if !(rec.jobs_skipped.is_empty() && rec.jobs_rerun.is_empty()) {
        let _ = writeln!(
            s,
            "resume: {} job(s) skipped (committed output reused), {} re-run",
            rec.jobs_skipped.len(),
            rec.jobs_rerun.len(),
        );
    }
    let bad = outcome.bad_records_skipped();
    if bad > 0 {
        let _ = writeln!(s, "bad records skipped: {bad} (summed across jobs)");
    }
    let _ = writeln!(s, "{pairs} pairs written to {out}");
    s
}

// Re-exported for integration tests.
#[doc(hidden)]
pub use args::Args as ParsedArgs;

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("fuzzyjoin-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_then_selfjoin_roundtrip() {
        let corpus = tmp("corpus.tsv");
        let pairs = tmp("pairs.tsv");
        let msg = run(&argv(&format!(
            "gen --kind dblp --records 300 --scale 2 --seed 5 --out {corpus}"
        )))
        .unwrap();
        assert!(msg.contains("600 dblp records"));

        let msg = run(&argv(&format!(
            "selfjoin --input {corpus} --out {pairs} --threshold 0.8 --nodes 4"
        )))
        .unwrap();
        assert!(msg.contains("self-join of 600 records"), "{msg}");
        assert!(msg.contains("BTO-PK-BRJ"));
        let out = fs::read_to_string(&pairs).unwrap();
        assert!(!out.is_empty(), "expected pairs");
        for line in out.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 3);
            let a: u64 = f[0].parse().unwrap();
            let b: u64 = f[1].parse().unwrap();
            assert!(a < b);
            let sim: f64 = f[2].parse().unwrap();
            assert!(sim + 1e-9 >= 0.8);
        }
    }

    #[test]
    fn rsjoin_and_full_output() {
        let r = tmp("r.tsv");
        let s = tmp("s.tsv");
        let out = tmp("rs-out.txt");
        run(&argv(&format!(
            "gen --kind dblp --records 200 --seed 7 --out {r}"
        )))
        .unwrap();
        // S reuses R's file so matches are guaranteed.
        fs::copy(&r, &s).unwrap();
        let msg = run(&argv(&format!(
            "rsjoin --r {r} --s {s} --out {out} --threshold 0.9 --nodes 2 --full yes"
        )))
        .unwrap();
        assert!(msg.contains("R-S join of 200 x 200 records"), "{msg}");
        let text = fs::read_to_string(&out).unwrap();
        assert!(text.lines().next().unwrap().starts_with("# "));
    }

    #[test]
    fn dna_gen_and_qgram_join() {
        let corpus = tmp("dna.tsv");
        let pairs = tmp("dna-pairs.tsv");
        run(&argv(&format!(
            "gen --kind dna --records 300 --seed 3 --out {corpus}"
        )))
        .unwrap();
        let msg = run(&argv(&format!(
            "selfjoin --input {corpus} --out {pairs} --threshold 0.9 --qgram 4 \
             --join-fields 1 --nodes 2 --combo bto-bk-brj"
        )))
        .unwrap();
        assert!(msg.contains("BTO-BK-BRJ"));
        assert!(fs::metadata(&pairs).unwrap().len() > 0);
    }

    #[test]
    fn config_parsing_errors() {
        assert!(run(&argv("bogus")).is_err());
        assert!(run(&argv("")).is_err());
        assert!(run(&argv("selfjoin --out x")).is_err(), "missing --input");
        assert!(run(&argv("selfjoin --input a --out b --measure wrong")).is_err());
        assert!(run(&argv("selfjoin --input a --out b --combo nope")).is_err());
        assert!(run(&argv("selfjoin --input a --out b --typo 1")).is_err());
        assert!(run(&argv("gen --kind marsian --out x")).is_err());
        // Values no job can run with are refused before the input is read.
        for (flags, message) in [
            ("--qgram 0", "bad --qgram: q must be at least 1"),
            ("--groups 0", "bad --groups: must be at least 1"),
            (
                "--skew-split-max 1",
                "bad --skew-split-max: must be at least 2",
            ),
            (
                "--skew-hot-threshold 0",
                "bad --skew-hot-threshold: must be at least 1",
            ),
            ("--task-timeout-secs 0", "bad --task-timeout-secs: "),
            // A deadline past what the host's clock can hold.
            ("--task-timeout-secs 1e20", "bad --task-timeout-secs: "),
            // A switch is `yes` or absent; no other value turns it on or off.
            ("--full no", "bad --full \"no\" (expected yes)"),
            ("--full 1", "bad --full \"1\" (expected yes)"),
        ] {
            let err = run(&argv(&format!("selfjoin --input none --out b {flags}"))).unwrap_err();
            assert!(err.starts_with(message), "{flags}: {err}");
        }
    }

    #[test]
    fn combo_variants_parse() {
        for combo in ["bto-pk-brj", "opto-bk-oprj"] {
            let args = Args::parse(&argv(&format!(
                "selfjoin --input a --out b --combo {combo}"
            )))
            .unwrap();
            assert!(join_config(&args).is_ok(), "combo {combo}");
        }
    }

    #[test]
    fn usage_and_join_flags_list_the_same_flags() {
        use std::collections::BTreeSet;
        let joins = &USAGE[USAGE.find("  selfjoin  ").expect("selfjoin section")..];
        let documented: BTreeSet<&str> = joins
            .split("--")
            .skip(1)
            .filter_map(|rest| {
                rest.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .next()
                    .filter(|flag| !flag.is_empty())
            })
            .collect();
        let accepted: BTreeSet<&str> = JOIN_FLAGS.iter().copied().collect();
        assert_eq!(documented, accepted);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("fuzzyjoin-cli-tests2");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn cosine_measure_and_bto_range_combo() {
        let corpus = tmp("c.tsv");
        let pairs = tmp("c-pairs.tsv");
        run(&argv(&format!(
            "gen --kind dblp --records 250 --seed 9 --out {corpus}"
        )))
        .unwrap();
        let join = |combo: &str| {
            run(&argv(&format!(
                "selfjoin --input {corpus} --out {pairs} --threshold 0.9 \
                 --measure cosine --combo {combo} --nodes 3"
            )))
        };
        let msg = join("bto-pk-brj").unwrap();
        assert!(msg.contains("BTO-PK-BRJ"), "{msg}");
        assert!(msg.contains("Cosine"), "{msg}");
        // Stage 1 is BTO or OPTO: the range-partitioned BTO-R is no combo.
        let err = join("bto-r-pk-brj").unwrap_err();
        assert!(err.starts_with("bad --combo \"bto-r-pk-brj\""), "{err}");
    }

    #[test]
    fn grouped_routing_flag() {
        let corpus = tmp("g.tsv");
        let pairs = tmp("g-pairs.tsv");
        run(&argv(&format!(
            "gen --kind dblp --records 200 --seed 4 --out {corpus}"
        )))
        .unwrap();
        // Grouped routing must produce the same pairs as individual.
        let run_with = |extra: &str, out: &str| {
            run(&argv(&format!(
                "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes 2 {extra}"
            )))
            .unwrap();
            fs::read_to_string(out).unwrap()
        };
        let grouped = run_with("--groups 16", &pairs);
        let individual = run_with("", &tmp("g-pairs2.tsv"));
        assert_eq!(grouped, individual);
    }

    #[test]
    fn fault_injection_does_not_change_results() {
        let corpus = tmp("f.tsv");
        run(&argv(&format!(
            "gen --kind dblp --records 200 --seed 6 --out {corpus}"
        )))
        .unwrap();
        let run_with = |extra: &str, out: &str| {
            let msg = run(&argv(&format!(
                "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes 3 {extra}"
            )))
            .unwrap();
            (msg, fs::read_to_string(out).unwrap())
        };
        let (clean_msg, clean) = run_with("", &tmp("f-clean.tsv"));
        assert!(!clean_msg.contains("faults survived"), "{clean_msg}");
        let (msg, chaotic) = run_with("--fault-seed 42", &tmp("f-chaos.tsv"));
        assert_eq!(chaotic, clean, "chaos must not change the pairs");
        assert!(msg.contains("faults survived"), "{msg}");
        let (_, custom) = run_with(
            "--fault-plan transient=0.1,late=0.05 --fault-seed 7",
            &tmp("f-plan.tsv"),
        );
        assert_eq!(custom, clean);
    }

    #[test]
    fn bad_fault_flags_are_clean_errors() {
        let err = run(&argv(
            "selfjoin --input a --out b --fault-plan frobnicate=1",
        ))
        .unwrap_err();
        assert!(err.contains("bad --fault-plan"), "{err}");
        let err = run(&argv("selfjoin --input a --out b --fault-seed x")).unwrap_err();
        assert!(err.contains("bad --fault-seed"), "{err}");
    }

    /// A fresh `--dfs-root` under the test directory.
    fn dfs_root(name: &str) -> String {
        let root = tmp(name);
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn resume_after_injected_driver_crash_matches_clean_run() {
        let corpus = tmp("rz.tsv");
        run(&argv(&format!(
            "gen --kind dblp --records 200 --seed 11 --out {corpus}"
        )))
        .unwrap();
        let clean_out = tmp("rz-clean.tsv");
        run(&argv(&format!(
            "selfjoin --input {corpus} --out {clean_out} --threshold 0.8 --nodes 3"
        )))
        .unwrap();
        let clean = fs::read_to_string(&clean_out).unwrap();

        // The injected crash ends the driver; the next launch over the same
        // --dfs-root recovers to identical output, and the committed jobs
        // are reused, not re-run.
        for (plan, name) in [("crash_after=1", "rz-after"), ("crash_mid=2", "rz-mid")] {
            let root = dfs_root(&format!("{name}-dfs"));
            let out = tmp(&format!("{name}.tsv"));
            let join = |extra: &str| {
                run(&argv(&format!(
                    "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes 3 \
                     --dfs-root {root} {extra}"
                )))
            };
            let err = join(&format!("--fault-plan {plan}")).unwrap_err();
            assert!(err.contains("driver crashed"), "{err}");
            let msg = join("").unwrap();
            assert!(msg.contains("resume:"), "{msg}");
            assert_eq!(
                fs::read_to_string(&out).unwrap(),
                clean,
                "resumed run must match the clean run ({plan})"
            );
            fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn resume_after_detected_corruption_matches_clean_run() {
        let corpus = tmp("cz.tsv");
        run(&argv(&format!(
            "gen --kind dblp --records 200 --seed 11 --out {corpus}"
        )))
        .unwrap();
        let clean_out = tmp("cz-clean.tsv");
        run(&argv(&format!(
            "selfjoin --input {corpus} --out {clean_out} --threshold 0.8 --nodes 3"
        )))
        .unwrap();
        let clean = fs::read_to_string(&clean_out).unwrap();

        let root = dfs_root("cz-dfs");
        let out = tmp("cz-heal.tsv");
        let join = |extra: &str| {
            run(&argv(&format!(
                "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes 3 \
                 --dfs-root {root} {extra}"
            )))
        };
        // The flipped bit is a classified checksum error, never silently
        // wrong pairs.
        let err = join("--fault-plan corrupt=/work/tokens/part-00000").unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // The next launch finds the manifest invalid, re-runs the producing
        // stage, and the output matches the clean run.
        let msg = join("").unwrap();
        assert!(msg.contains("resume:"), "{msg}");
        assert_eq!(fs::read_to_string(&out).unwrap(), clean);
        fs::remove_dir_all(&root).unwrap();
    }

    /// A join over the store a 10-node join left behind, on 2 nodes, writes
    /// what a 2-node join over an empty store writes. No job's output
    /// depends on the node count, so every committed job is reused.
    #[test]
    fn a_join_on_fewer_nodes_over_a_kept_dfs_root_matches_a_fresh_one() {
        let corpus = tmp("nz.tsv");
        run(&argv(&format!(
            "gen --kind dblp --records 200 --seed 11 --out {corpus}"
        )))
        .unwrap();
        let join = |nodes: usize, root: &str, out: &str| {
            run(&argv(&format!(
                "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes {nodes} \
                 --dfs-root {root}"
            )))
        };
        let (kept, fresh) = (dfs_root("nz-kept-dfs"), dfs_root("nz-fresh-dfs"));
        join(10, &kept, &tmp("nz-10.tsv")).unwrap();
        let msg = join(2, &kept, &tmp("nz-2-kept.tsv")).unwrap();
        assert!(msg.contains("resume: 5 job(s) skipped"), "{msg}");
        join(2, &fresh, &tmp("nz-2-fresh.tsv")).unwrap();
        assert_eq!(
            fs::read(tmp("nz-2-kept.tsv")).unwrap(),
            fs::read(tmp("nz-2-fresh.tsv")).unwrap()
        );
        for root in [kept, fresh] {
            fs::remove_dir_all(root).unwrap();
        }
    }

    #[test]
    fn bad_records_policy_flags() {
        let corpus = tmp("bad.tsv");
        fs::write(
            &corpus,
            "1\tefficient parallel set similarity joins\tvernica carey li\n\
             this line has no tabs and no rid\n\
             2\tefficient parallel set similarity joins\tvernica carey li\n",
        )
        .unwrap();
        let out = tmp("bad-pairs.tsv");
        // Strict (the default) fails the job on the malformed line.
        let err = run(&argv(&format!(
            "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes 2"
        )))
        .unwrap_err();
        assert!(err.contains("join failed"), "{err}");
        // Skip carries on and reports the skips.
        let msg = run(&argv(&format!(
            "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes 2 \
             --bad-records skip"
        )))
        .unwrap();
        assert!(msg.contains("bad records skipped"), "{msg}");
        let pairs = fs::read_to_string(&out).unwrap();
        assert!(pairs.contains("1\t2\t"), "{pairs}");
        // A budget of zero is exhausted by the first bad line.
        let err = run(&argv(&format!(
            "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes 2 \
             --bad-records skip:0"
        )))
        .unwrap_err();
        assert!(err.contains("join failed"), "{err}");
        // Bad flag values are clean errors.
        let err = run(&argv("selfjoin --input a --out b --bad-records lenient")).unwrap_err();
        assert!(err.contains("bad --bad-records"), "{err}");
        // Every join resumes: there is no mode to ask for.
        let err = run(&argv("selfjoin --input a --out b --resume yes")).unwrap_err();
        assert_eq!(err, "unknown flag --resume");
    }

    /// The run report (`--metrics-json`) is the one summary a join writes:
    /// there is no text report to ask for.
    #[test]
    fn report_prints_phase_attribution_and_keeps_output_identical() {
        let err = run(&argv("selfjoin --input a --out b --report yes")).unwrap_err();
        assert_eq!(err, "unknown flag --report");
    }

    #[test]
    fn skew_adaptive_flag_keeps_pairs_identical() {
        let corpus = tmp("sk.tsv");
        // A high Zipf exponent concentrates tokens, so forced splitting has
        // real hot groups to act on.
        run(&argv(&format!(
            "gen --kind dblp --records 250 --seed 17 --skew-exponent 1.2 --out {corpus}"
        )))
        .unwrap();
        let run_with = |extra: &str, out: &str| {
            run(&argv(&format!(
                "selfjoin --input {corpus} --out {out} --threshold 0.8 --nodes 3 {extra}"
            )))
            .unwrap();
            fs::read_to_string(out).unwrap()
        };
        let off = run_with("--skew off", &tmp("sk-off.tsv"));
        let adaptive = run_with(
            "--skew adaptive --skew-hot-threshold 8 --skew-split-max 4",
            &tmp("sk-on.tsv"),
        );
        assert_eq!(adaptive, off, "splitting must not change the pairs");
        assert!(!off.is_empty(), "expected pairs");
    }

    #[test]
    fn bad_skew_flags_are_clean_errors() {
        let err = run(&argv("selfjoin --input a --out b --skew maybe")).unwrap_err();
        assert!(err.contains("bad --skew"), "{err}");
        let err = run(&argv("selfjoin --input a --out b --skew-split-max 1")).unwrap_err();
        assert!(err.contains("--skew-split-max"), "{err}");
        let err = run(&argv("selfjoin --input a --out b --skew-hot-threshold 0")).unwrap_err();
        assert!(err.contains("--skew-hot-threshold"), "{err}");
        let err = run(&argv("gen --kind dna --out x --skew-exponent 1.1")).unwrap_err();
        assert!(err.contains("--skew-exponent"), "{err}");
    }

    #[test]
    fn missing_input_file_is_a_clean_error() {
        let err = run(&argv(
            "selfjoin --input /nonexistent/x.tsv --out /tmp/y.tsv",
        ))
        .unwrap_err();
        assert!(err.contains("cannot open"), "{err}");
    }
}
