//! The parent process: it generates the corpora, then drives rounds of
//! samples, each sample in a child process of its own.
//!
//! A round is one sample of every workload, one child after another, so only
//! one join runs at any moment and a noisy spell on a shared host falls on
//! every workload, not on one. After the rounds one more child per workload
//! computes the reference and runs the traced sample and the ladder.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use mapreduce::{obj, Json};

use crate::corpus::{self, Corpus};
use crate::report;
use crate::spec::{self, Workload};
use crate::workload::{assemble, timed_reports, Attempt, SampleReport, Stat};

/// Timed rounds a run never goes below when it reports end-to-end metrics.
pub const MIN_TIMED_ROUNDS: usize = 7;
/// Timed rounds at which a run stops whatever `--seconds` says.
const MAX_TIMED_ROUNDS: usize = 40;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workloads, in round order.
    pub workloads: Vec<Workload>,
    /// Corpus seed.
    pub seed: u64,
    /// Keep taking timed rounds until this many seconds have been measured.
    /// A `--trace 1` run spends its time on the ladder instead.
    pub seconds: Option<f64>,
    /// `Some(false)`: timed rounds only. `Some(true)`: a short timed
    /// baseline, then the traced sample and the ladder. `None`: both in
    /// full, for a person.
    pub trace: Option<bool>,
    /// Tiny corpora: checks the harness, measures nothing.
    pub smoke: bool,
    /// Directory for everything the run writes.
    pub out_dir: PathBuf,
    /// Where the result set goes.
    pub json_path: PathBuf,
}

impl Options {
    /// `(warm-up rounds, timed rounds at least)`.
    fn rounds(&self) -> (usize, usize) {
        match (self.smoke, self.trace) {
            (true, _) => (1, 2),
            // Two warm-ups and nine rounds when no time cap applies.
            (false, None) => (2, 9),
            (false, Some(false)) => (1, MIN_TIMED_ROUNDS),
            // Only the baseline the traced sample is compared with.
            (false, Some(true)) => (1, 3),
        }
    }

    fn traced(&self) -> bool {
        self.trace != Some(false)
    }
}

/// The corpus files of a workload, deleted when the run ends.
struct CorpusFiles<'a> {
    dir: &'a Path,
    workload: &'static str,
}

impl Drop for CorpusFiles<'_> {
    fn drop(&mut self) {
        Corpus::remove_files(self.dir, self.workload);
    }
}

/// A workload as the parent holds it during a run.
struct WorkloadState<'a> {
    workload: Workload,
    generate_s: f64,
    attempts: Vec<Attempt>,
    _files: CorpusFiles<'a>,
}

/// Run this executable as `mode` for `workload` and return the JSON object
/// it prints as its last line. Only one child runs at a time.
fn run_child(
    mode: &str,
    workload: &Workload,
    options: &Options,
    extra: &[String],
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([mode, "--workload", workload.name, "--out-dir"])
        .arg(&options.out_dir)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {mode} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!("{mode} child ended with {}", output.status));
    }
    Json::parse(line).map_err(|e| format!("{mode} child printed {line:?}: {e}"))
}

/// Run the benchmark as `options` say. Returns the process exit code.
pub fn run(options: &Options) -> Result<i32, String> {
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("create {}: {e}", options.out_dir.display()))?;
    let (warmups, min_timed) = options.rounds();
    let started = Instant::now();
    // Progress goes to stderr with the seconds since the run began.
    let log =
        |message: String| eprintln!("[bench {:6.1}s] {message}", started.elapsed().as_secs_f64());

    let mut states = Vec::new();
    for workload in &options.workloads {
        log(format!("{}: generating the corpus", workload.name));
        let generating = Instant::now();
        let corpus = corpus::generate(workload.corpus, options.seed);
        let generate_s = generating.elapsed().as_secs_f64();
        let files = CorpusFiles {
            dir: &options.out_dir,
            workload: workload.name,
        };
        corpus.save(&options.out_dir, workload.name)?;
        states.push(WorkloadState {
            workload: *workload,
            generate_s,
            attempts: Vec::new(),
            _files: files,
        });
    }

    // One sample of every workload per round, each in a process of its own.
    let round = |states: &mut [WorkloadState], timed: bool, index: usize| {
        let kind = if timed { "timed" } else { "warmup" };
        for state in states.iter_mut() {
            let label = format!("{kind}-{index}");
            let args = ["--label".to_string(), label.clone()];
            let outcome = run_child("sample", &state.workload, options, &args).and_then(|json| {
                SampleReport::from_json(&json).ok_or(format!("bad sample report {json}"))
            });
            let name = state.workload.name;
            match &outcome {
                Ok(report) => log(format!("{label} {name}: {:.3} s", report.join_wall_s)),
                Err(e) => log(format!("{label} {name}: failed: {e}")),
            }
            state.attempts.push(Attempt {
                label,
                timed,
                outcome,
            });
        }
    };
    for index in 0..warmups {
        round(&mut states, false, index);
    }
    let measuring = Instant::now();
    let mut timed_rounds = 0;
    while timed_rounds < min_timed
        || (timed_rounds < MAX_TIMED_ROUNDS
            && options.trace != Some(true)
            && options
                .seconds
                .is_some_and(|s| measuring.elapsed().as_secs_f64() < s))
    {
        round(&mut states, true, timed_rounds);
        timed_rounds += 1;
    }

    let mut results = Vec::new();
    for state in &states {
        let ladder = if options.traced() {
            ", traced sample and ladder"
        } else {
            ""
        };
        log(format!("{}: reference{ladder}", state.workload.name));
        let mut args = vec![
            "--trace".to_string(),
            u8::from(options.traced()).to_string(),
            "--generate-s".to_string(),
            state.generate_s.to_string(),
        ];
        let timed = timed_reports(&state.attempts);
        if !timed.is_empty() {
            let median = |f: fn(&SampleReport) -> f64| {
                Stat::median_of(&timed.iter().map(|s| f(s)).collect::<Vec<_>>()).value
            };
            args.extend([
                "--untraced-wall".to_string(),
                median(|s| s.join_wall_s).to_string(),
                "--untraced-cpu".to_string(),
                median(|s| s.join_cpu_s).to_string(),
            ]);
        }
        // A finish child that dies leaves the samples without a reference:
        // every one of them then counts as failed.
        let finish = run_child("finish", &state.workload, options, &args).unwrap_or_else(|e| {
            log(format!("{}: {e}", state.workload.name));
            obj(vec![("errors", Json::Arr(vec![Json::Str(e)]))])
        });
        results.push(assemble(&state.workload, &state.attempts, &finish));
    }
    drop(states);

    let set = report::result_set(options, warmups, timed_rounds, results);
    std::fs::write(&options.json_path, format!("{set}\n"))
        .map_err(|e| format!("write {}: {e}", options.json_path.display()))?;
    log("done".to_string());
    print!("{}", report::render(&set));
    println!("result set: {}", options.json_path.display());
    let mut failed = report::ops_failed(&set) > 0;
    if let (Some(per_layer), [workload]) = (options.trace, options.workloads.as_slice()) {
        // The driver's contract: one JSON object as the last line.
        match report::contract_line(&set, workload.name, per_layer) {
            Some(line) => println!("{line}"),
            None => failed = true,
        }
    }
    Ok(i32::from(failed))
}

/// Parse `fjbench run` arguments.
pub fn parse_run_args(args: &[String], out_dir: PathBuf) -> Result<Options, String> {
    let mut options = Options {
        workloads: spec::WORKLOADS.to_vec(),
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
        json_path: out_dir.join("result.json"),
        out_dir,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let workload = spec::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?;
                options.workloads = vec![*workload];
            }
            "--seed" => options.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(secs.is_finite() && secs >= 0.0) {
                    return Err(format!("bad --seconds: {value}"));
                }
                options.seconds = Some(secs);
            }
            "--trace" => {
                options.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            "--json" => options.json_path = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if options.smoke {
        for workload in &mut options.workloads {
            workload.corpus = workload.corpus.smoke();
        }
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Options, String> {
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        parse_run_args(&args, PathBuf::from("out"))
    }

    #[test]
    fn the_drivers_form_selects_one_workload_and_its_rounds() {
        let o = parse("--workload cite-rs --seed 9 --seconds 16 --trace 0").unwrap();
        assert_eq!(o.workloads.len(), 1);
        assert_eq!(
            (o.workloads[0].name, o.seed, o.seconds),
            ("cite-rs", 9, Some(16.0))
        );
        assert_eq!((o.rounds(), o.traced()), ((1, MIN_TIMED_ROUNDS), false));
        let o = parse("--workload cite-rs --trace 1").unwrap();
        assert_eq!((o.rounds(), o.traced()), ((1, 3), true));
    }

    #[test]
    fn the_default_is_every_workload_in_full_rounds() {
        let o = parse("").unwrap();
        assert_eq!(o.workloads.len(), spec::WORKLOADS.len());
        assert_eq!((o.seed, o.rounds(), o.traced()), (42, (2, 9), true));
        assert_eq!(o.json_path, PathBuf::from("out/result.json"));
        let smoke = parse("--smoke").unwrap();
        assert!(smoke.workloads.iter().all(|w| w.corpus.base < 1_000));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed x",
            "--frob 1",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
