//! CPU time and peak memory of this process and its children, read from
//! `/proc` (the benchmark runs on Linux only).

use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` times. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture Rust targets.
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` after the command name, which may
/// itself hold spaces and parentheses: field 3 (state) comes first.
fn stat_fields(pid: &str) -> Option<Vec<String>> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// User plus system CPU seconds of this process and of the children it has
/// waited for (fields 14 to 17 of `/proc/self/stat`).
pub fn cpu_secs() -> f64 {
    let fields = stat_fields("self").expect("/proc/self/stat is readable on Linux");
    // Field n of the file is fields[n - 3].
    let ticks: u64 = fields[11..15]
        .iter()
        .map(|f| f.parse::<u64>().expect("stat times are integers"))
        .sum();
    ticks as f64 / TICKS_PER_SEC
}

/// Peak resident set (`VmHWM`) of process `pid` in MB; `None` once it is
/// gone.
fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MB.
pub fn self_hwm_mb() -> f64 {
    vm_hwm_mb("self").expect("/proc/self/status has VmHWM on Linux")
}

/// Largest `VmHWM` among the live children of process `parent`, in MB.
fn largest_child_hwm_mb(parent: u32) -> f64 {
    let Ok(entries) = fs::read_dir("/proc") else {
        return 0.0;
    };
    let parent = parent.to_string();
    let mut largest = 0.0f64;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .filter(|n| n.bytes().all(|b| b.is_ascii_digit()))
        else {
            continue;
        };
        // Field 4 of stat is the parent pid.
        if stat_fields(pid).is_some_and(|f| f.get(1) == Some(&parent)) {
            largest = largest.max(vm_hwm_mb(pid).unwrap_or(0.0));
        }
    }
    largest
}

/// Watches the worker processes of the process backend. The engine starts
/// and reaps them inside `Cluster::run`, so their peak memory can only be
/// read while they live: a thread looks every 100 ms and keeps the largest
/// `VmHWM` it saw. A high-water mark only grows, so a worker's last reading
/// misses at most the growth of its final 100 ms.
pub struct WorkerRssWatch {
    stop: Arc<AtomicBool>,
    largest_kb: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl WorkerRssWatch {
    /// Start watching the children of this process.
    pub fn start() -> WorkerRssWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let largest_kb = Arc::new(AtomicU64::new(0));
        let me = std::process::id();
        let thread = {
            // Both atomics carry a statistic and a stop request; neither
            // publishes other data.
            let (stop, largest_kb) = (Arc::clone(&stop), Arc::clone(&largest_kb));
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let kb = (largest_child_hwm_mb(me) * 1024.0) as u64;
                    largest_kb.fetch_max(kb, Ordering::Relaxed);
                    thread::sleep(Duration::from_millis(100));
                }
            })
        };
        WorkerRssWatch {
            stop,
            largest_kb,
            thread: Some(thread),
        }
    }

    /// Largest worker `VmHWM` seen so far, in MB.
    pub fn largest_mb(&self) -> f64 {
        self.largest_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

impl Drop for WorkerRssWatch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The thread only reads /proc; a panic there loses a statistic.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_plausible() {
        let before = cpu_secs();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_secs() - before >= 0.03,
            "60 ms of spinning is >= 3 ticks"
        );
        assert!(self_hwm_mb() > 1.0);
    }

    #[test]
    fn watch_sees_a_child_process() {
        let watch = WorkerRssWatch::start();
        let mut child = std::process::Command::new("sleep")
            .arg("0.5")
            .spawn()
            .expect("sleep exists");
        thread::sleep(Duration::from_millis(300));
        let seen = watch.largest_mb();
        child.wait().unwrap();
        assert!(seen > 0.0, "a live child has a resident set");
    }
}
