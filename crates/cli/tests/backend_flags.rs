//! The execution flags at the binary's surface: `--backend` names the two
//! backends and nothing else, and `--task-timeout-secs` holds on the
//! default backend too.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_fuzzyjoin-cli");

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fj-flags-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cli(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("run fuzzyjoin-cli")
}

/// The first line the binary writes to stderr: its error.
fn error_line(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr.lines().next().unwrap_or_default().to_string()
}

#[test]
fn a_backend_outside_the_two_exits_1_naming_only_them() {
    for name in ["sharded", "threads"] {
        let out = cli(&["selfjoin", "--input", "a", "--out", "b", "--backend", name]);
        assert_eq!(out.status.code(), Some(1), "--backend {name}");
        assert_eq!(
            error_line(&out),
            format!("error: bad --backend \"{name}\" (expected simulated or process)")
        );
    }
}

/// An in-process attempt cannot be killed, so one that returns past its
/// deadline fails the join: exit 1, the deadline named, no output written.
/// Every attempt outlives a one-microsecond deadline.
#[test]
fn a_join_past_its_task_deadline_exits_1_and_writes_no_output() {
    let dir = fresh_dir("deadline");
    let corpus = dir.join("corpus.tsv");
    let corpus = corpus.to_str().unwrap();
    let mut gen: Vec<&str> = "gen --kind dblp --records 200 --seed 7 --out"
        .split(' ')
        .collect();
    gen.push(corpus);
    let gen = cli(&gen);
    assert!(gen.status.success(), "{}", error_line(&gen));
    let join = |out: &str, extra: &[&str]| {
        let out = dir.join(out);
        let mut args = vec!["selfjoin", "--input", corpus, "--threshold", "0.8"];
        args.extend_from_slice(&["--nodes", "2", "--out", out.to_str().unwrap()]);
        args.extend_from_slice(extra);
        (cli(&args), out)
    };
    let (on_time, pairs) = join("on-time.tsv", &["--task-timeout-secs", "600"]);
    assert!(on_time.status.success(), "{}", error_line(&on_time));
    assert!(std::fs::metadata(&pairs).unwrap().len() > 0);
    let (late, pairs) = join("late.tsv", &["--task-timeout-secs", "1e-6"]);
    assert_eq!(late.status.code(), Some(1), "a late join fails");
    let error = error_line(&late);
    assert!(error.contains("deadline exceeded"), "{error}");
    assert!(!pairs.exists(), "a failed join wrote output");
    let _ = std::fs::remove_dir_all(&dir);
}
