//! Wall-clock task supervision for the real execution backends.
//!
//! The sharded and process backends are supervised on the host clock, where
//! a hung worker (SIGSTOP, an infinite loop, a never-flushed frame) blocks
//! the driver forever; the simulated backend, the reference, is not. A job's
//! [`Watchdog`] gives every worker conversation it watches a timer of its
//! own, a [`Watch`], which fires when the attempt's **deadline**
//! (`task_timeout_secs`) passes or its **heartbeat window** — eight of
//! `ClusterConfig::heartbeat_interval`, 40 % of the deadline — passes
//! without a heartbeat ([`Watch::touch`]).
//!
//! Firing runs the watcher's `stop` (SIGKILL the worker) on the timer's
//! thread, and [`Watch::finish`] joins that thread: `stop` has either run
//! before the attempt's owner resumes or it never runs, and the owner learns
//! which. A fired attempt is failed whatever it returned, as a transient
//! `NodeLost` the retry machinery handles. An in-process attempt cannot be
//! stopped, so it needs no timer: [`Watchdog::supervised`] reads its
//! elapsed time when it returns and fails the job fast if the deadline has
//! passed. Supervision never changes committed bytes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cluster::ClusterConfig;
use crate::counters::Counters;
use crate::engine::At;
use crate::error::{MrError, Result};
use crate::trace::{EventKind, TraceEvent, TraceSink};

/// Which clock fired a watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExpireReason {
    /// The per-task wall-clock deadline passed.
    Deadline,
    /// No heartbeat arrived for longer than the window.
    Heartbeat,
}

/// One watched attempt's timer: a thread waiting on a channel of
/// heartbeats until the earlier of the deadline and the heartbeat window.
/// Ending the watch — [`Watch::finish`], or dropping it — closes the
/// channel and joins the thread.
pub(crate) struct Watch {
    beats: Option<Sender<()>>,
    timer: Option<JoinHandle<Option<ExpireReason>>>,
}

impl Watch {
    /// A heartbeat: the attempt is alive now.
    pub(crate) fn touch(&self) {
        if let Some(beats) = &self.beats {
            let _ = beats.send(());
        }
    }

    /// End the watch. `Some` says which clock fired it, and that its `stop`
    /// has run; `None` that it never will.
    pub(crate) fn finish(mut self) -> Option<ExpireReason> {
        self.end()
    }

    fn end(&mut self) -> Option<ExpireReason> {
        self.beats = None;
        // A `stop` that panicked stopped nothing: not fired.
        self.timer.take()?.join().ok().flatten()
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        self.end();
    }
}

/// What every expiry reports: the `mr.supervise.task_timeout` counter and
/// a `task_timeout` trace event naming the attempt and the clock.
#[derive(Clone)]
struct Expiry {
    counters: Counters,
    trace: Option<TraceSink>,
    job: String,
}

impl Expiry {
    fn report(&self, (phase, task, attempt, node): At, reason: ExpireReason) {
        self.counters.get("mr.supervise.task_timeout").incr();
        if let Some(sink) = &self.trace {
            let mut ev = TraceEvent::new(EventKind::TaskTimeout, &self.job)
                .at_task(phase, task, attempt, node);
            ev.detail = Some(format!("{reason:?}").to_lowercase());
            sink.emit(ev);
        }
    }
}

/// A worker whose last heartbeat is older than this many heartbeat
/// intervals is presumed hung and killed, even before its task deadline.
const HEARTBEAT_GRACE: u32 = 8;

/// One job's wall-clock supervision, shared by all of its attempts that run
/// on the host clock: the per-attempt deadline and heartbeat window from
/// the [`ClusterConfig`], and what every expiry reports.
pub(crate) struct Watchdog {
    deadline: Duration,
    heartbeat_window: Duration,
    /// An in-process attempt overran: no attempt on the driver's threads
    /// starts or is accepted from now on.
    cancelled: AtomicBool,
    expiry: Expiry,
}

impl Watchdog {
    /// `None` when the config sets no `task_timeout_secs`: supervision is
    /// off and no timer thread ever exists.
    pub(crate) fn new(
        config: &ClusterConfig,
        counters: &Counters,
        trace: Option<&TraceSink>,
        job: &str,
    ) -> Option<Self> {
        Some(Watchdog {
            deadline: Duration::from_secs_f64(config.task_timeout_secs?),
            heartbeat_window: config.heartbeat_interval()? * HEARTBEAT_GRACE,
            cancelled: AtomicBool::new(false),
            expiry: Expiry {
                counters: counters.clone(),
                trace: trace.cloned(),
                job: job.to_string(),
            },
        })
    }

    /// Watch attempt `at` from now: its executor heartbeats through
    /// [`Watch::touch`], and `stop` is how to end the attempt when the
    /// watch fires.
    pub(crate) fn watch(&self, at: At, stop: impl FnOnce() + Send + 'static) -> Watch {
        let expiry = self.expiry.clone();
        let window = self.heartbeat_window;
        let (beats, heard) = mpsc::channel();
        let mut last = Instant::now();
        let deadline = last + self.deadline;
        let timer = std::thread::Builder::new().name("mr-watch".into());
        let timer = timer.spawn(move || {
            let reason = loop {
                let (until, reason) = if last + window < deadline {
                    (last + window, ExpireReason::Heartbeat)
                } else {
                    (deadline, ExpireReason::Deadline)
                };
                match heard.recv_timeout(until.saturating_duration_since(Instant::now())) {
                    Ok(()) => last = Instant::now(),
                    Err(RecvTimeoutError::Disconnected) => return None,
                    Err(RecvTimeoutError::Timeout) => break reason,
                }
            };
            stop();
            expiry.report(at, reason);
            Some(reason)
        });
        Watch {
            beats: Some(beats),
            timer: Some(timer.expect("spawn watch timer")),
        }
    }

    /// Run one in-process attempt under the job's deadline, when it has a
    /// watchdog (`None` just runs the body). Threads cannot be killed, so an
    /// attempt that returns past its deadline is failed, whatever it
    /// returned, and cancels the job's in-process attempts: none starts
    /// afterwards, and the job fails fast with a classified error instead
    /// of committing output that arrived past its deadline. A body that
    /// never returns is not recoverable in-process (that is what worker
    /// processes are for).
    pub(crate) fn supervised<O>(
        dog: Option<&Self>,
        at: At,
        body: impl FnOnce() -> Result<O>,
    ) -> Result<O> {
        let Some(dog) = dog else { return body() };
        if !dog.cancelled.load(Ordering::Acquire) {
            let start = Instant::now();
            let out = body();
            if start.elapsed() < dog.deadline {
                return out;
            }
            dog.expiry.report(at, ExpireReason::Deadline);
            dog.cancelled.store(true, Ordering::Release);
        }
        Err(MrError::TaskFailed(format!(
            "{}: task wall-clock deadline exceeded (in-process attempts cannot be killed, \
             so the job fails fast)",
            dog.expiry.job
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Phase;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    const AT: At = (Phase::Map, 0, 0, 0);

    fn supervised(timeout: f64) -> ClusterConfig {
        ClusterConfig {
            task_timeout_secs: Some(timeout),
            ..ClusterConfig::default()
        }
    }

    /// A watchdog over `timeout` seconds, heartbeats every `timeout / 20`.
    fn dog(timeout: f64) -> Watchdog {
        Watchdog::new(&supervised(timeout), &Counters::new(), None, "watched").unwrap()
    }

    fn timeouts(dog: &Watchdog) -> u64 {
        dog.expiry.counters.value("mr.supervise.task_timeout")
    }

    /// A `stop` that reports on a channel.
    fn signal() -> (impl FnOnce() + Send + 'static, mpsc::Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        (move || tx.send(()).unwrap(), rx)
    }

    /// The heartbeat is derived, not set: a worker beats every deadline /
    /// 20, and the driver's watchdog waits eight of that same interval.
    #[test]
    fn the_heartbeat_window_is_eight_derived_intervals() {
        assert_eq!(ClusterConfig::default().heartbeat_interval(), None);
        for (timeout, interval_ms) in [(5.0, 250), (2.0, 100), (30.0, 1_500)] {
            let interval = supervised(timeout).heartbeat_interval().unwrap();
            assert_eq!(interval, Duration::from_millis(interval_ms), "{timeout} s");
            assert_eq!(dog(timeout).heartbeat_window, interval * 8, "{timeout} s");
            assert_eq!(dog(timeout).deadline, interval * 20, "{timeout} s");
        }
    }

    /// An in-process attempt is timed when it returns: one under the
    /// deadline keeps its result, one past it fails, is counted once and
    /// cancels every later attempt of the job before it starts.
    #[test]
    fn an_in_process_attempt_past_its_deadline_fails_the_rest_of_the_job() {
        let dog = dog(0.05);
        let on_time = Watchdog::supervised(Some(&dog), AT, || Ok(7));
        assert_eq!(on_time.unwrap(), 7);
        let late = Watchdog::supervised(Some(&dog), AT, || {
            std::thread::sleep(Duration::from_millis(80));
            Ok(7)
        });
        assert!(matches!(late, Err(MrError::TaskFailed(_))), "{late:?}");
        let ran = AtomicUsize::new(0);
        let next = Watchdog::supervised(Some(&dog), AT, || Ok(ran.fetch_add(1, Ordering::SeqCst)));
        assert!(next.is_err());
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "a cancelled job starts nothing"
        );
        assert_eq!(timeouts(&dog), 1);
    }

    #[test]
    fn deadline_expiry_fires_exactly_once() {
        // A 120 ms heartbeat window under a 300 ms deadline.
        let dog = dog(0.3);
        let (stop, stopped) = signal();
        let start = Instant::now();
        let watch = dog.watch(AT, stop);
        // Beat well inside the window until the deadline fires.
        while stopped.recv_timeout(Duration::from_millis(10)).is_err() {
            assert!(start.elapsed() < Duration::from_secs(5), "never fired");
            watch.touch();
        }
        assert_eq!(watch.finish(), Some(ExpireReason::Deadline));
        // The timer has returned; nothing fires again.
        assert!(stopped.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(timeouts(&dog), 1);
    }

    #[test]
    fn touch_keeps_a_heartbeat_watch_alive_and_starvation_kills_it() {
        // An 800 ms heartbeat window under a 2 s deadline.
        let dog = dog(2.0);
        let (stop, stopped) = signal();
        let start = Instant::now();
        let watch = dog.watch(AT, stop);
        // Touch often enough to stay inside the window, for longer than
        // one window…
        while start.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(50));
            watch.touch();
        }
        assert!(
            stopped.try_recv().is_err(),
            "healthy heartbeats must not expire"
        );
        // …then go silent and expire on the window, before the deadline.
        stopped.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(watch.finish(), Some(ExpireReason::Heartbeat));
        assert_eq!(timeouts(&dog), 1);
    }

    #[test]
    fn finishing_before_the_deadline_means_stop_never_runs() {
        let dog = dog(0.06);
        let (stop, stopped) = signal();
        assert_eq!(dog.watch(AT, stop).finish(), None);
        let late = stopped.recv_timeout(Duration::from_millis(200));
        assert!(late.is_err(), "a finished watch fired anyway");
        assert_eq!(timeouts(&dog), 0);
    }

    /// The owner's verdict and the timer's action agree even when the body
    /// ends right at the deadline: `stop` ran exactly when `finish` says the
    /// watch fired, and never after `finish` returned.
    #[test]
    fn a_watch_fires_exactly_when_finish_says_so() {
        let (mut fired, mut quiet) = (0, 0);
        for round in 0..240u32 {
            // Heartbeat windows (0.4 × the deadline) from 0.5 to 2 ms
            // around a 1.2 ms body that never beats.
            let dog = dog(f64::from(5 + round % 16) * 1e-4 / 0.4);
            let stops = Arc::new(AtomicUsize::new(0));
            let counted = Arc::clone(&stops);
            let watch = dog.watch(AT, move || {
                counted.fetch_add(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_micros(1_200));
            let verdict = watch.finish();
            let seen = stops.load(Ordering::SeqCst);
            assert_eq!(seen, usize::from(verdict.is_some()), "round {round}");
            std::thread::sleep(Duration::from_micros(300));
            let after = stops.load(Ordering::SeqCst);
            assert_eq!(after, seen, "round {round}: stop ran after finish");
            if verdict.is_some() {
                fired += 1;
            } else {
                quiet += 1;
            }
        }
        // Both outcomes are exercised: the race is really run.
        assert!(fired > 0 && quiet > 0, "fired {fired}, quiet {quiet}");
    }
}
