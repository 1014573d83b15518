//! `fjbench`: the benchmark's executable. `run.sh` builds and calls it.
//!
//! ```text
//! fjbench run   [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--json FILE]
//! fjbench agree A.json B.json
//! ```

use std::path::PathBuf;

use fuzzyjoin_benchmark::corpus::Corpus;
use fuzzyjoin_benchmark::workload::{finish, sample_once, FromParent};
use fuzzyjoin_benchmark::{driver, report, spec};
use mapreduce::Json;

fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// `sample` and `finish`: the parent re-runs this executable once per sample
/// and once per workload after the rounds. The child loads the corpus the
/// parent saved, does its work, and prints one line of JSON.
fn child(mode: &str, args: &[String]) -> Result<i32, String> {
    let mut workload = None;
    let mut dir = out_dir();
    let mut label = String::from("sample");
    let mut traced = false;
    let mut generate_s = 0.0;
    let mut untraced_wall = None;
    let mut untraced_cpu = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let secs = || -> Result<f64, String> {
            value
                .parse()
                .map_err(|e| format!("bad {flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = spec::workload(value),
            "--out-dir" => dir = PathBuf::from(value),
            "--label" => label = value.clone(),
            "--trace" => traced = value == "1",
            "--generate-s" => generate_s = secs()?,
            "--untraced-wall" => untraced_wall = Some(secs()?),
            "--untraced-cpu" => untraced_cpu = Some(secs()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("a known --workload is needed")?;
    let corpus = Corpus::load(&dir, workload.name, workload.corpus.is_rs())?;
    let reply = if mode == "sample" {
        sample_once(workload, &corpus, &dir, &label)?.to_json()
    } else {
        let from_parent = FromParent {
            generate_s,
            untraced: untraced_wall.zip(untraced_cpu),
        };
        let done = finish(workload, &corpus, &dir, traced, from_parent);
        if let Some(trace) = &done.trace {
            let path = dir.join(format!("trace-{}.jsonl", workload.name));
            std::fs::write(&path, trace.to_jsonl())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        done.json
    };
    println!("{reply}");
    Ok(0)
}

fn agree(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("usage: agree A.json B.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("parse {path}: {e}"))
    };
    let (text, offenders) = report::agree(&load(a)?, &load(b)?);
    print!("{text}");
    Ok(if offenders == 0 { 0 } else { 2 })
}

fn main() {
    // A process-backend driver re-spawns this executable as its workers;
    // in a worker this call never returns.
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();

    if cfg!(debug_assertions) {
        eprintln!("fjbench: refusing to measure a debug build; use run.sh or --release");
        std::process::exit(1);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            driver::parse_run_args(rest, out_dir()).and_then(|options| driver::run(&options))
        }
        Some((command, rest)) if command == "sample" || command == "finish" => child(command, rest),
        Some((command, rest)) if command == "agree" => agree(rest),
        _ => Err("usage: fjbench run|agree ... (see benchmark/README.md)".into()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("fjbench: {e}");
            std::process::exit(1);
        }
    }
}
