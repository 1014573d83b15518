//! Kill-anywhere crash torture: SIGKILL the real CLI driver at seeded
//! random wall-clock offsets — not at cooperative crash points — and keep
//! resuming fresh drivers over the surviving disk DFS until the join
//! completes. The final output must be byte-identical to a fault-free run.
//!
//! This is the capstone durability argument: `crash_after`/`crash_mid`
//! prove recovery works at the two points we thought to test; this suite
//! proves it works wherever the process actually dies — mid block write,
//! mid rename, mid manifest commit, mid spill — on all three backends,
//! with injected storage faults (EIO, torn writes, a healing ENOSPC)
//! active at the same time.
//!
//! `TORTURE_SEED` (CI sweeps several) seeds both the kill offsets and the
//! injected storage-fault plans.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_fuzzyjoin-cli");

/// Upper bound on driver launches per cell before the test gives up.
const MAX_RUNS: usize = 60;

fn torture_seed() -> u64 {
    std::env::var("TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF00D_FACE)
}

/// splitmix64: a tiny seeded generator so the kill schedule is
/// reproducible from `TORTURE_SEED` without pulling in a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` (bound > 0).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

enum RunExit {
    /// Exit code 0: the join completed and wrote its output.
    Success,
    /// The harness SIGKILLed the driver at the scheduled offset.
    Killed,
    /// The driver exited nonzero on its own (e.g. an injected EIO
    /// exhausted the retry budget) — the next launch resumes anyway.
    Failed,
}

/// `plan` is the storage-fault keys *without* a seed; the harness derives
/// a fresh seed per driver launch. Fault draws are keyed on
/// (seed, op-index, path), so a fixed seed would replay the exact same
/// fault on the exact same operation after every restart — a deterministic
/// livelock no real storm exhibits. Re-rolling per launch keeps the whole
/// schedule reproducible from `TORTURE_SEED` while letting retries see
/// fresh weather.
fn spawn_join(corpus: &Path, out: &Path, root: &Path, backend: &str, plan: Option<&str>) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.arg("selfjoin")
        .arg("--input")
        .arg(corpus)
        .arg("--out")
        .arg(out)
        .arg("--threshold")
        .arg("0.8")
        .arg("--nodes")
        .arg("3")
        .arg("--backend")
        .arg(backend)
        .arg("--dfs-root")
        .arg(root)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(plan) = plan {
        cmd.arg("--fault-plan").arg(plan);
    }
    cmd.spawn().expect("spawn fuzzyjoin-cli")
}

/// Wait for the child, SIGKILLing it once `kill_after` elapses. Polling at
/// 1ms keeps the kill offset honest to a millisecond or so.
fn reap(mut child: Child, kill_after: Option<Duration>) -> RunExit {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return if status.success() {
                RunExit::Success
            } else {
                RunExit::Failed
            };
        }
        if let Some(t) = kill_after {
            if start.elapsed() >= t {
                let _ = child.kill(); // SIGKILL: no cleanup handlers run
                let _ = child.wait();
                return RunExit::Killed;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fj-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_corpus(path: &Path) {
    let lines = datagen::to_lines(&datagen::dblp(400, 5));
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
}

/// One torture cell: fault-free reference, then kill-anywhere iterations
/// until a driver completes, then a byte comparison.
fn torture(backend: &str, plan: Option<&str>, tag: &str) {
    let dir = fresh_dir(tag);
    let corpus = dir.join("corpus.tsv");
    write_corpus(&corpus);

    // Fault-free reference run (its own DFS root, no plan, never killed).
    let ref_out = dir.join("ref.tsv");
    let ref_start = Instant::now();
    match reap(
        spawn_join(&corpus, &ref_out, &dir.join("refdfs"), backend, None),
        None,
    ) {
        RunExit::Success => {}
        _ => panic!("[{tag}] fault-free reference run failed"),
    }
    let ref_wall = ref_start.elapsed().max(Duration::from_millis(40));
    let reference = std::fs::read(&ref_out).unwrap();
    assert!(!reference.is_empty(), "[{tag}] reference produced no pairs");

    let out = dir.join("out.tsv");
    let root = dir.join("dfs");
    let mut rng = Rng(torture_seed() ^ fnv(tag));
    let wall_ms = ref_wall.as_millis() as u64;
    let mut kills = 0usize;
    let mut fails = 0usize;
    let mut completed = false;
    for run in 0..MAX_RUNS {
        // The first few offsets land well inside the reference wall time so
        // the suite provably kills mid-run before anything has committed;
        // later ones range up to 1.2x the wall so resumed drivers get a
        // real chance to finish — and every fourth run is never killed at
        // all, so convergence only depends on the (per-launch re-rolled)
        // storage faults, not on offset luck.
        let kill_after = if run < 3 {
            Some(Duration::from_millis(2 + rng.below((wall_ms / 2).max(2))))
        } else if run % 4 == 3 {
            None
        } else {
            Some(Duration::from_millis(2 + rng.below(wall_ms * 6 / 5 + 20)))
        };
        let run_plan = plan.map(|p| format!("seed={},{p}", rng.next()));
        let child = spawn_join(&corpus, &out, &root, backend, run_plan.as_deref());
        match reap(child, kill_after) {
            RunExit::Success => {
                // A completion before any kill landed proves nothing —
                // keep torturing (a later kill may even truncate the output
                // file mid-rewrite; only a *final* success breaks out, so
                // the comparison below always sees a completed rewrite).
                if kills >= 1 {
                    completed = true;
                    break;
                }
            }
            RunExit::Killed => kills += 1,
            RunExit::Failed => fails += 1,
        }
    }
    assert!(
        completed,
        "[{tag}] join did not complete within {MAX_RUNS} runs ({kills} kills, {fails} failures)"
    );
    let tortured = std::fs::read(&out).unwrap();
    assert_eq!(
        tortured, reference,
        "[{tag}] resumed output differs from the fault-free run \
         ({kills} kills, {fails} fault-induced failures)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// EIO + torn-write keys used by the storage cells (the harness adds a
/// per-launch seed derived from `TORTURE_SEED`).
const STORM_PLAN: &str = "eio=0.01,torn=0.03";

#[test]
fn kill_anywhere_simulated() {
    torture("simulated", None, "sim-clean");
}

#[test]
fn kill_anywhere_sharded() {
    torture("sharded", None, "shard-clean");
}

#[test]
fn kill_anywhere_process() {
    torture("process", None, "proc-clean");
}

#[test]
fn kill_anywhere_simulated_with_storage_faults() {
    torture("simulated", Some(STORM_PLAN), "sim-storm");
}

#[test]
fn kill_anywhere_sharded_with_storage_faults() {
    torture("sharded", Some(STORM_PLAN), "shard-storm");
}

#[test]
fn kill_anywhere_process_with_storage_faults() {
    torture("process", Some(STORM_PLAN), "proc-storm");
}

/// The ENOSPC-heal cell: a byte budget small enough to fire several times
/// mid-join, healing on the scavenger pass each time, on top of the
/// kill-anywhere schedule. The budget must stay above the largest single
/// file the join writes or no retry could ever fit.
#[test]
fn kill_anywhere_enospc_heal() {
    torture("simulated", Some("enospc=200000+heal"), "enospc-heal");
}

/// The window the sync wave opens: a driver that dies with a job's last
/// part renamed and nothing of it synced — no wave, no manifest. For each of
/// the join's five jobs, one driver (the injected `crash_mid` ends the
/// process) leaves exactly that behind, and a fresh
/// driver over the surviving store discards the directory and re-runs the
/// job to the reference bytes.
#[test]
fn a_driver_dead_between_the_last_part_and_the_wave_resumes() {
    for backend in ["simulated", "sharded", "process"] {
        let dir = fresh_dir(&format!("wave-{backend}"));
        let corpus = dir.join("corpus.tsv");
        write_corpus(&corpus);
        let ref_out = dir.join("ref.tsv");
        let reference = spawn_join(&corpus, &ref_out, &dir.join("refdfs"), backend, None);
        assert!(matches!(reap(reference, None), RunExit::Success));
        let reference = std::fs::read(&ref_out).unwrap();
        for job in 0..5 {
            let out = dir.join(format!("out-{job}.tsv"));
            let root = dir.join(format!("dfs-{job}"));
            let crashed = Command::new(BIN)
                .args(["selfjoin", "--threshold", "0.8", "--nodes", "3"])
                .args(["--backend", backend])
                .args(["--fault-plan", &format!("crash_mid={job}")])
                .arg("--input")
                .arg(&corpus)
                .arg("--out")
                .arg(&out)
                .arg("--dfs-root")
                .arg(&root)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .unwrap();
            assert!(
                matches!(reap(crashed, None), RunExit::Failed),
                "[{backend}] job {job}: the injected crash ends the driver"
            );
            let resumed = spawn_join(&corpus, &out, &root, backend, None);
            assert!(matches!(reap(resumed, None), RunExit::Success));
            assert_eq!(
                std::fs::read(&out).unwrap(),
                reference,
                "[{backend}] resume after a crash before job {job}'s wave"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The cell that never leaves a launch unkilled: every launch is scheduled
/// for a SIGKILL, the first two 2–61 ms in and the rest 2–701 ms in, so a
/// launch completes only when it outruns its kill.
#[test]
fn kill_anywhere_survives_every_launch_scheduled_for_a_kill() {
    let dir = fresh_dir("every-launch");
    let corpus = dir.join("corpus.tsv");
    write_corpus(&corpus);
    let ref_out = dir.join("ref.tsv");
    match reap(
        spawn_join(&corpus, &ref_out, &dir.join("refdfs"), "sharded", None),
        None,
    ) {
        RunExit::Success => {}
        _ => panic!("reference run failed"),
    }
    let reference = std::fs::read(&ref_out).unwrap();

    let out = dir.join("out.tsv");
    let root = dir.join("dfs");
    // "relaxed" keys the kill schedule; it stays so that one TORTURE_SEED
    // replays the runs recorded for this cell.
    let mut rng = Rng(torture_seed() ^ fnv("relaxed"));
    let (mut kills, mut fails) = (0, 0);
    let mut completed = false;
    for run in 0..MAX_RUNS {
        let kill = if run < 2 {
            Duration::from_millis(2 + rng.below(60))
        } else {
            Duration::from_millis(2 + rng.below(700))
        };
        let child = spawn_join(&corpus, &out, &root, "sharded", None);
        match reap(child, Some(kill)) {
            RunExit::Success => {
                if kills >= 1 {
                    completed = true;
                    break;
                }
            }
            RunExit::Killed => kills += 1,
            RunExit::Failed => fails += 1,
        }
    }
    assert!(
        completed,
        "join never completed within {MAX_RUNS} runs ({kills} kills, {fails} failures)"
    );
    assert_eq!(
        std::fs::read(&out).unwrap(),
        reference,
        "resumed output differs from the fault-free run ({kills} kills, {fails} failures)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
