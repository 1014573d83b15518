//! Wall-clock task supervision for the real execution backends.
//!
//! The simulated timeline already survives stragglers and failures —
//! speculation and retry backoff are charged to *sim* time. But the
//! sharded and process backends execute on the
//! actual host clock, where a worker that hangs (SIGSTOP, infinite loop, a
//! never-flushed frame) blocks the driver forever and no amount of
//! simulated-time machinery notices. This module is the driver-side answer:
//! a [`Supervisor`] owns one monitor thread that watches every in-flight
//! task attempt and fires an expiry callback when either
//!
//! * the attempt's **deadline** passes (`task_timeout_secs` of wall time
//!   since the attempt started), or
//! * the attempt's **heartbeat window** passes without progress (the
//!   process protocol interleaves heartbeat frames with task execution;
//!   each one [`Activity::touch`]es the watch).
//!
//! The callback kills the worker (SIGKILL the child process, or trip the
//! sharded backend's [`CancelToken`]); the resulting transport error flows
//! through the existing classified-retry machinery as a transient
//! `NodeLost`, so recovery — not this module — decides what happens next.
//! Supervision never touches simulated time or committed bytes: it only
//! ever converts "stuck forever" into "failed, retryable".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cluster::ClusterConfig;
use crate::counters::Counters;
use crate::error::{MrError, Result};
use crate::task::Phase;
use crate::trace::{EventKind, TraceEvent, TraceSink};

/// Why a watch expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExpireReason {
    /// The per-task wall-clock deadline passed.
    Deadline,
    /// No heartbeat/progress was recorded for longer than the window.
    Heartbeat,
}

impl ExpireReason {
    /// Stable name used in trace event details.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ExpireReason::Deadline => "deadline",
            ExpireReason::Heartbeat => "heartbeat",
        }
    }
}

/// Progress handle for one watched attempt: heartbeat arrivals (or any
/// other sign of life) call [`Activity::touch`] to reset the heartbeat
/// window. Cheap to clone and safe to touch from any thread.
#[derive(Clone)]
pub(crate) struct Activity {
    epoch: Instant,
    cell: Arc<AtomicU64>,
}

impl Activity {
    fn new(epoch: Instant) -> Self {
        let cell = Arc::new(AtomicU64::new(epoch.elapsed().as_millis() as u64));
        Activity { epoch, cell }
    }

    /// Record a sign of life now.
    pub(crate) fn touch(&self) {
        self.cell
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    fn stale_for(&self, now: Instant) -> Duration {
        let now_ms = now.duration_since(self.epoch).as_millis() as u64;
        Duration::from_millis(now_ms.saturating_sub(self.cell.load(Ordering::Relaxed)))
    }
}

type ExpireFn = Box<dyn FnOnce(ExpireReason) + Send>;

struct WatchState {
    id: u64,
    started: Instant,
    deadline: Option<Duration>,
    heartbeat_window: Option<Duration>,
    activity: Activity,
    on_expire: Option<ExpireFn>,
}

impl WatchState {
    fn expiry(&self, now: Instant) -> Option<ExpireReason> {
        if let Some(d) = self.deadline {
            if now.duration_since(self.started) > d {
                return Some(ExpireReason::Deadline);
            }
        }
        if let Some(w) = self.heartbeat_window {
            if self.activity.stale_for(now) > w {
                return Some(ExpireReason::Heartbeat);
            }
        }
        None
    }
}

struct Inner {
    watches: Mutex<WatchTable>,
    wake: Condvar,
}

#[derive(Default)]
struct WatchTable {
    entries: Vec<WatchState>,
    next_id: u64,
    stop: bool,
}

/// The driver-side monitor: one background thread scanning every
/// registered watch at a fixed tick. Dropping the supervisor stops the
/// thread; dropping a [`WatchGuard`] deregisters its watch (the normal
/// end of a healthy attempt).
pub(crate) struct Supervisor {
    inner: Arc<Inner>,
    epoch: Instant,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Start a supervisor whose monitor thread scans at `tick` (clamped
    /// to [10ms, 250ms] so expiry latency stays small without busy
    /// spinning).
    pub(crate) fn new(tick: Duration) -> Self {
        let tick = tick.clamp(Duration::from_millis(10), Duration::from_millis(250));
        let inner = Arc::new(Inner {
            watches: Mutex::new(WatchTable::default()),
            wake: Condvar::new(),
        });
        let monitor_inner = Arc::clone(&inner);
        let monitor = std::thread::Builder::new()
            .name("mr-supervisor".into())
            .spawn(move || monitor_loop(&monitor_inner, tick))
            .expect("spawn supervisor thread");
        Supervisor {
            inner,
            epoch: Instant::now(),
            monitor: Some(monitor),
        }
    }

    /// Register one attempt. `on_expire` runs at most once, on the
    /// monitor thread, outside the watch lock; it must be fast and must
    /// not block on the supervised work (kill a child, trip a token,
    /// bump counters).
    pub(crate) fn watch(
        &self,
        deadline: Option<Duration>,
        heartbeat_window: Option<Duration>,
        on_expire: impl FnOnce(ExpireReason) + Send + 'static,
    ) -> WatchGuard {
        let activity = Activity::new(self.epoch);
        let mut table = lock_table(&self.inner.watches);
        let id = table.next_id;
        table.next_id += 1;
        table.entries.push(WatchState {
            id,
            started: Instant::now(),
            deadline,
            heartbeat_window,
            activity: activity.clone(),
            on_expire: Some(Box::new(on_expire)),
        });
        WatchGuard {
            inner: Arc::clone(&self.inner),
            id,
            activity,
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        lock_table(&self.inner.watches).stop = true;
        self.inner.wake.notify_all();
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
    }
}

/// Keeps one watch alive; dropping it deregisters the watch, so an
/// attempt that finishes (however it finishes) can no longer expire.
pub(crate) struct WatchGuard {
    inner: Arc<Inner>,
    id: u64,
    activity: Activity,
}

impl WatchGuard {
    /// The progress handle for this watch.
    pub(crate) fn activity(&self) -> Activity {
        self.activity.clone()
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let mut table = lock_table(&self.inner.watches);
        table.entries.retain(|w| w.id != self.id);
    }
}

fn lock_table(m: &Mutex<WatchTable>) -> std::sync::MutexGuard<'_, WatchTable> {
    // A panic inside an expiry callback must not wedge every later lock.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn monitor_loop(inner: &Inner, tick: Duration) {
    let mut table = lock_table(&inner.watches);
    loop {
        if table.stop {
            return;
        }
        let now = Instant::now();
        let mut fired: Vec<(ExpireFn, ExpireReason)> = Vec::new();
        for w in &mut table.entries {
            if w.on_expire.is_some() {
                if let Some(reason) = w.expiry(now) {
                    fired.push((w.on_expire.take().expect("checked"), reason));
                }
            }
        }
        if !fired.is_empty() {
            // Run callbacks outside the lock: they may kill children or
            // take other locks, and new watches must stay registrable.
            drop(table);
            for (f, reason) in fired {
                f(reason);
            }
            table = lock_table(&inner.watches);
            continue;
        }
        let (next, _) = inner
            .wake
            .wait_timeout(table, tick)
            .unwrap_or_else(|e| e.into_inner());
        table = next;
    }
}

/// Cooperative cancellation for in-process attempts: the token is checked
/// at every attempt boundary, so once the supervisor trips it no further
/// attempt starts or is accepted. Threads cannot be killed, so this is the
/// strongest "abandon" the sharded executor supports — the job fails fast
/// with a classified timeout instead of hanging the driver.
#[derive(Clone, Default)]
pub(crate) struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Trip the token: all holders observe cancellation from now on.
    pub(crate) fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has the token been tripped?
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A worker whose last heartbeat is older than this many heartbeat
/// intervals is presumed hung and killed, even before its task deadline.
const HEARTBEAT_GRACE: f64 = 8.0;

/// One job's wall-clock supervision: the monitor thread, the per-attempt
/// deadline and heartbeat window from the [`ClusterConfig`], and what every
/// expiry reports (the `mr.supervise.task_timeout` counter and a
/// `task_timeout` trace event). Who is watching says only how to stop the
/// attempt: the process transport SIGKILLs the worker child, in-process
/// attempts trip the job's [`CancelToken`].
pub(crate) struct Watchdog {
    supervisor: Supervisor,
    deadline: Duration,
    heartbeat_window: Duration,
    cancel: CancelToken,
    counters: Counters,
    trace: Option<TraceSink>,
    job: String,
    nodes: usize,
}

impl Watchdog {
    /// `None` when the config sets no `task_timeout_secs`: supervision is
    /// off and no monitor thread exists.
    pub(crate) fn new(
        config: &ClusterConfig,
        counters: &Counters,
        trace: Option<&TraceSink>,
        job: &str,
    ) -> Option<Self> {
        let deadline = Duration::from_secs_f64(config.task_timeout_secs?);
        let heartbeat_window =
            Duration::from_secs_f64(config.heartbeat_interval_secs * HEARTBEAT_GRACE);
        Some(Watchdog {
            supervisor: Supervisor::new(deadline.min(heartbeat_window) / 4),
            deadline,
            heartbeat_window,
            cancel: CancelToken::new(),
            counters: counters.clone(),
            trace: trace.cloned(),
            job: job.to_string(),
            nodes: config.nodes,
        })
    }

    /// Watch one attempt until the guard drops. `heartbeats` says whether
    /// its executor emits them (only worker processes do); `stop` is how to
    /// end the attempt when the watch expires.
    pub(crate) fn watch(
        &self,
        (phase, task, attempt): (Phase, usize, usize),
        heartbeats: bool,
        stop: impl FnOnce() + Send + 'static,
    ) -> WatchGuard {
        let (counters, trace, job) = (self.counters.clone(), self.trace.clone(), self.job.clone());
        let node = task % self.nodes;
        let window = heartbeats.then_some(self.heartbeat_window);
        self.supervisor
            .watch(Some(self.deadline), window, move |reason| {
                stop();
                counters.get("mr.supervise.task_timeout").incr();
                if let Some(sink) = &trace {
                    let mut ev = TraceEvent::new(EventKind::TaskTimeout, job.as_str())
                        .at_task(phase, task, attempt, node);
                    ev.detail = Some(reason.as_str().to_string());
                    sink.emit(ev);
                }
            })
    }

    /// Run one in-process attempt under the job's deadline, when it has a
    /// watchdog (`None` just runs the body). Threads cannot be
    /// killed, so expiry trips the job's cancel token: this attempt's
    /// result is discarded when it eventually returns, no attempt starts
    /// afterwards, and the job fails fast with a classified error instead
    /// of committing output that arrived past its deadline. A body that
    /// never returns is not recoverable in-process (that is what the
    /// process backend is for).
    pub(crate) fn supervised<O>(
        dog: Option<&Self>,
        at: (Phase, usize, usize),
        body: impl FnOnce() -> Result<O>,
    ) -> Result<O> {
        let Some(dog) = dog else { return body() };
        let expired = || {
            Err(MrError::TaskFailed(format!(
                "{}: task wall-clock deadline exceeded (in-process attempts cannot be killed, \
                 so the job fails fast)",
                dog.job
            )))
        };
        if dog.cancel.is_cancelled() {
            return expired();
        }
        let cancel = dog.cancel.clone();
        let guard = dog.watch(at, false, move || cancel.cancel());
        let out = body();
        drop(guard);
        if dog.cancel.is_cancelled() {
            return expired();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn deadline_expiry_fires_exactly_once() {
        let sup = Supervisor::new(Duration::from_millis(10));
        let (tx, rx) = mpsc::channel();
        let _watch = sup.watch(Some(Duration::from_millis(30)), None, move |reason| {
            tx.send(reason).unwrap();
        });
        let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, ExpireReason::Deadline);
        // The callback is FnOnce and taken on fire; nothing arrives again.
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn touch_keeps_a_heartbeat_watch_alive_and_starvation_kills_it() {
        let sup = Supervisor::new(Duration::from_millis(10));
        let (tx, rx) = mpsc::channel();
        let watch = sup.watch(None, Some(Duration::from_millis(80)), move |reason| {
            tx.send(reason).unwrap();
        });
        let activity = watch.activity();
        // Touch often enough to stay inside the window…
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(20));
            activity.touch();
        }
        assert!(rx.try_recv().is_err(), "healthy heartbeats must not expire");
        // …then go silent and expire.
        let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, ExpireReason::Heartbeat);
    }

    #[test]
    fn dropping_the_guard_deregisters_before_expiry() {
        let sup = Supervisor::new(Duration::from_millis(10));
        let (tx, rx) = mpsc::channel::<ExpireReason>();
        let watch = sup.watch(Some(Duration::from_millis(60)), None, move |reason| {
            let _ = tx.send(reason);
        });
        drop(watch);
        assert!(
            rx.recv_timeout(Duration::from_millis(250)).is_err(),
            "deregistered watch fired anyway"
        );
    }

    #[test]
    fn cancel_token_trips_for_all_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }
}
