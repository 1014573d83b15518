//! Structured tracing, log-bucketed histograms, and heavy-hitter tracking.
//!
//! The engine can record a span event stream per `(job, phase, task,
//! attempt)` — start/end, bytes, records, outcomes and injected faults,
//! commits/aborts — into a [`TraceSink`]: what ran, on the wall clock. The
//! stream exports as JSONL (one event per line, schema-versioned) and as
//! Chrome `trace_event` JSON loadable in Perfetto. Event recording happens
//! *outside* the timed sections of every task attempt, so tracing never
//! perturbs measured task seconds.
//!
//! [`Histogram`] provides log-bucketed value distributions (p50/p95/p99/max)
//! for task durations, reduce-group sizes, and any per-task quantity user
//! code records through [`crate::TaskContext::histogram`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::codec_struct;
use crate::error::Result;
use crate::json::{obj, Json};
use crate::task::Phase;

/// Version stamped into every JSONL trace event as `"v"`. Consumers must
/// ignore unknown fields and kinds, and read every field but `v`, `ts_us`,
/// `kind` and `job` as optional (absent where it does not apply); this
/// number only changes when one of those four is removed or a field is
/// retyped.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Histogram of map-task measured seconds, recorded per job.
pub const HIST_MAP_TASK_SECS: &str = "task.map.secs";
/// Histogram of reduce-task measured seconds, recorded per job.
pub const HIST_REDUCE_TASK_SECS: &str = "task.reduce.secs";
/// Histogram of records per reduce group, recorded per job.
pub const HIST_REDUCE_GROUP_RECORDS: &str = "reduce.group.records";
/// Counter bumped when a job's top reduce key exceeds the configured share
/// of shuffle records.
pub const HEAVY_HITTER_WARNINGS: &str = "mr.skew.heavy_hitter_warnings";

// ---------------------------------------------------------------------------
// events
// ---------------------------------------------------------------------------

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job began executing.
    JobStart,
    /// A job finished (duration in `dur_us`).
    JobEnd,
    /// A task attempt began.
    TaskStart,
    /// A task attempt finished — exactly one per started attempt, whether
    /// it succeeded, failed, or panicked (see `outcome`).
    TaskEnd,
    /// A reduce attempt's output was atomically promoted to its part file.
    Commit,
    /// A failed reduce attempt's partial output was discarded.
    Abort,
    /// The job's top reduce key exceeded the configured share of shuffle
    /// records — the operational symptom of a bad token order.
    SkewWarning,
    /// A join skipped a job because its commit manifest validated
    /// (`detail` carries the decision context).
    ResumeSkip,
    /// Orphaned `_attempt-*` files from a crashed prior run were deleted at
    /// job start (`records` carries how many).
    Scavenge,
    /// A checksum/manifest validation failure was detected (`detail` names
    /// the file or reason); the producing stage will be re-executed.
    ChecksumFail,
    /// Wall-clock supervision killed a task attempt: its deadline passed
    /// or its worker's heartbeats went stale (`detail` says which). The
    /// attempt retries through the classified-retry machinery.
    TaskTimeout,
    /// A process worker slot accumulated enough transport/timeout losses
    /// inside the quarantine window and was removed from rotation
    /// (`detail` carries the loss count).
    Quarantine,
}

/// Every kind beside its stable wire name: the one table
/// [`EventKind::as_str`] and [`EventKind::parse`] read.
const EVENT_KINDS: [(EventKind, &str); 12] = [
    (EventKind::JobStart, "job_start"),
    (EventKind::JobEnd, "job_end"),
    (EventKind::TaskStart, "task_start"),
    (EventKind::TaskEnd, "task_end"),
    (EventKind::Commit, "commit"),
    (EventKind::Abort, "abort"),
    (EventKind::SkewWarning, "skew_warning"),
    (EventKind::ResumeSkip, "resume_skip"),
    (EventKind::Scavenge, "scavenge"),
    (EventKind::ChecksumFail, "checksum_fail"),
    (EventKind::TaskTimeout, "task_timeout"),
    (EventKind::Quarantine, "quarantine"),
];

/// The name `table` gives `value`; every value is listed.
fn name_of<T: PartialEq>(table: &[(T, &'static str)], value: &T) -> &'static str {
    let listed = table.iter().find(|(v, _)| v == value);
    listed.expect("every value is named").1
}

/// The value `table` names `name`, if any.
fn named<T: Copy>(table: &[(T, &str)], name: &str) -> Option<T> {
    table.iter().find(|(_, n)| *n == name).map(|(v, _)| *v)
}

impl EventKind {
    /// Stable wire name of the kind.
    pub fn as_str(self) -> &'static str {
        name_of(&EVENT_KINDS, &self)
    }

    /// Parse a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        named(&EVENT_KINDS, s)
    }
}

/// How a task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The attempt completed and its output (if any) was committed.
    Ok,
    /// The attempt returned an error.
    Failed,
    /// The attempt panicked (user code or an injected panic fault).
    Panicked,
}

/// Every outcome beside its stable wire name: the one table
/// [`Outcome::as_str`] and [`Outcome::parse`] read.
const OUTCOMES: [(Outcome, &str); 3] = [
    (Outcome::Ok, "ok"),
    (Outcome::Failed, "failed"),
    (Outcome::Panicked, "panicked"),
];

impl Outcome {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        name_of(&OUTCOMES, &self)
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Outcome> {
        named(&OUTCOMES, s)
    }
}

/// One structured trace event. Fields that do not apply to the event's
/// kind are `None` and omitted from the JSONL encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the sink was created (wall clock).
    pub ts_us: u64,
    /// What this event marks.
    pub kind: EventKind,
    /// Job name.
    pub job: String,
    /// Phase of the task, for task-scoped events.
    pub phase: Option<Phase>,
    /// Task index within its phase.
    pub task: Option<u64>,
    /// Zero-based attempt number.
    pub attempt: Option<u64>,
    /// Simulated node the attempt ran on.
    pub node: Option<u64>,
    /// Span duration in microseconds (`TaskEnd`, `JobEnd`).
    pub dur_us: Option<u64>,
    /// How the attempt ended (`TaskEnd` only).
    pub outcome: Option<Outcome>,
    /// Error message of a failed attempt.
    pub error: Option<String>,
    /// Injected fault applied to the attempt, if any.
    pub fault: Option<String>,
    /// Bytes processed (task input/output, or job shuffle bytes).
    pub bytes: Option<u64>,
    /// Records processed.
    pub records: Option<u64>,
    /// Free-form detail (warning text, timeout clock, …).
    pub detail: Option<String>,
}

impl TraceEvent {
    /// A new event of `kind` for `job` with every optional field unset.
    /// The timestamp is filled in by [`TraceSink::emit`].
    pub fn new(kind: EventKind, job: impl Into<String>) -> Self {
        TraceEvent {
            ts_us: 0,
            kind,
            job: job.into(),
            phase: None,
            task: None,
            attempt: None,
            node: None,
            dur_us: None,
            outcome: None,
            error: None,
            fault: None,
            bytes: None,
            records: None,
            detail: None,
        }
    }

    /// Set the task coordinates `(phase, task, attempt, node)`.
    pub fn at_task(mut self, phase: Phase, task: usize, attempt: usize, node: usize) -> Self {
        self.phase = Some(phase);
        self.task = Some(task as u64);
        self.attempt = Some(attempt as u64);
        self.node = Some(node as u64);
        self
    }

    /// The event as a JSON object: schema version, timestamp, kind and job,
    /// then every field that is set.
    fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let text = |v: &str| Json::Str(v.to_string());
        let mut members = vec![
            ("v", num(TRACE_SCHEMA_VERSION)),
            ("ts_us", num(self.ts_us)),
            ("kind", text(self.kind.as_str())),
            ("job", text(&self.job)),
        ];
        let optional = [
            ("phase", self.phase.map(|p| text(p.as_str()))),
            ("task", self.task.map(num)),
            ("attempt", self.attempt.map(num)),
            ("node", self.node.map(num)),
            ("dur_us", self.dur_us.map(num)),
            ("outcome", self.outcome.map(|o| text(o.as_str()))),
            ("error", self.error.as_deref().map(text)),
            ("fault", self.fault.as_deref().map(text)),
            ("bytes", self.bytes.map(num)),
            ("records", self.records.map(num)),
            ("detail", self.detail.as_deref().map(text)),
        ];
        members.extend(optional.into_iter().filter_map(|(k, v)| Some((k, v?))));
        obj(members)
    }

    /// Encode as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse one JSONL line back into an event, or `None` for a kind this
    /// version does not know (consumers ignore it: [`TRACE_SCHEMA_VERSION`]).
    pub fn from_json_line(line: &str) -> Result<Option<TraceEvent>> {
        let v = Json::parse(line)?;
        let bad = |what: &str| crate::error::MrError::Codec(format!("trace event: {what}: {line}"));
        let kind = match v.get("kind").and_then(Json::as_str).map(EventKind::parse) {
            Some(Some(kind)) => kind,
            Some(None) => return Ok(None),
            None => return Err(bad("missing kind")),
        };
        let job = v
            .get("job")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing job"))?
            .to_string();
        let phases = [Phase::Map, Phase::Reduce].map(|p| (p, p.as_str()));
        let phase = match v.get("phase").and_then(Json::as_str) {
            None => None,
            Some(s) => Some(named(&phases, s).ok_or_else(|| bad("unknown phase"))?),
        };
        let outcome = match v.get("outcome").and_then(Json::as_str) {
            None => None,
            Some(s) => Some(Outcome::parse(s).ok_or_else(|| bad("unknown outcome"))?),
        };
        let num = |name: &str| v.get(name).and_then(Json::as_u64);
        let text = |name: &str| v.get(name).and_then(Json::as_str).map(str::to_string);
        Ok(Some(TraceEvent {
            ts_us: num("ts_us").ok_or_else(|| bad("missing ts_us"))?,
            kind,
            job,
            phase,
            task: num("task"),
            attempt: num("attempt"),
            node: num("node"),
            dur_us: num("dur_us"),
            outcome,
            error: text("error"),
            fault: text("fault"),
            bytes: num("bytes"),
            records: num("records"),
            detail: text("detail"),
        }))
    }
}

// ---------------------------------------------------------------------------
// sink
// ---------------------------------------------------------------------------

/// A shared, append-only event sink. Cloning shares the underlying buffer;
/// recording is one short mutex-protected push, and events carry
/// timestamps relative to the sink's creation.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

struct SinkInner {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// A fresh sink; event timestamps count from this moment.
    pub fn new() -> Self {
        TraceSink {
            inner: Arc::new(SinkInner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Microseconds elapsed since the sink was created.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Record `event` stamped with the current wall time.
    pub fn emit(&self, mut event: TraceEvent) {
        event.ts_us = self.now_us();
        self.inner.events.lock().push(event);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all events in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().clone()
    }

    /// Serialize every event as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        let events = self.inner.events.lock();
        let mut s = String::with_capacity(events.len() * 128);
        for e in events.iter() {
            s.push_str(&e.to_json_line());
            s.push('\n');
        }
        s
    }

    /// Parse a JSONL trace, skipping lines of a kind this version does not know.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| TraceEvent::from_json_line(l).transpose())
            .collect()
    }

    /// Serialize as Chrome `trace_event` JSON (loadable in Perfetto or
    /// `chrome://tracing`), every span in process "execution (wall clock)".
    pub fn to_chrome_trace(&self) -> String {
        let pid = Json::Num(1.0);
        let events = self.inner.events.lock();
        // Stable tid per (job, phase, task) so all attempts of a task share
        // a track; tid 0 is the job-level track.
        let mut tids: BTreeMap<String, u64> = BTreeMap::new();
        let mut tid_of = |label: &str| -> u64 {
            let next = tids.len() as u64 + 1;
            *tids.entry(label.to_string()).or_insert(next)
        };
        let phase_name = |p: Option<Phase>| p.map_or("job", Phase::as_str);
        let mut out: Vec<Json> = Vec::new();
        for e in events.iter() {
            let track = match e.task {
                Some(t) => format!("{}/{}-{}", e.job, phase_name(e.phase), t),
                None => format!("{}/job", e.job),
            };
            let tid = tid_of(&track);
            let (ph, ts, dur, name) = match e.kind {
                // Complete spans: ts is the span start.
                EventKind::TaskEnd => {
                    let dur = e.dur_us.unwrap_or(0);
                    let name = format!(
                        "{}-{}#a{}",
                        phase_name(e.phase),
                        e.task.unwrap_or(0),
                        e.attempt.unwrap_or(0)
                    );
                    ("X", e.ts_us.saturating_sub(dur), Some(dur), name)
                }
                EventKind::JobEnd => {
                    let dur = e.dur_us.unwrap_or(0);
                    ("X", e.ts_us.saturating_sub(dur), Some(dur), e.job.clone())
                }
                // Instants.
                kind => ("i", e.ts_us, None, kind.as_str().to_string()),
            };
            let mut members: Vec<(&str, Json)> = vec![
                ("name", Json::Str(name)),
                ("ph", Json::Str(ph.to_string())),
                ("pid", pid.clone()),
                ("tid", Json::Num(tid as f64)),
                ("ts", Json::Num(ts as f64)),
            ];
            if let Some(dur) = dur {
                members.push(("dur", Json::Num(dur as f64)));
            }
            if ph == "i" {
                members.push(("s", Json::Str("t".to_string())));
            }
            members.push(("args", e.to_json()));
            out.push(obj(members));
        }
        // Name the tracks so Perfetto shows task labels instead of numbers.
        for (label, tid) in &tids {
            out.push(obj(vec![
                ("name", Json::Str("thread_name".to_string())),
                ("ph", Json::Str("M".to_string())),
                ("pid", pid.clone()),
                ("tid", Json::Num(*tid as f64)),
                ("args", obj(vec![("name", Json::Str(label.clone()))])),
            ]));
        }
        out.push(obj(vec![
            ("name", Json::Str("process_name".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", pid),
            (
                "args",
                obj(vec![("name", Json::Str("execution (wall clock)".into()))]),
            ),
        ]));
        obj(vec![
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
        ])
        .to_string()
    }
}

// ---------------------------------------------------------------------------
// histograms
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two. Bucket boundaries are `2^(i/16)`, so a
/// bucket's relative width is ~4.4% and percentile estimates (taken at the
/// bucket's geometric center) are within ~2.2% of the exact order
/// statistic.
const SUB_BUCKETS: f64 = 16.0;

fn bucket_index(v: f64) -> i32 {
    (v.log2() * SUB_BUCKETS).floor() as i32
}

fn bucket_center(idx: i32) -> f64 {
    2f64.powf((idx as f64 + 0.5) / SUB_BUCKETS)
}

#[derive(Default)]
struct HistData {
    zeros: u64,
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A log-bucketed histogram. Cloning shares the underlying cells, like
/// [`crate::Counter`]; recording is one short mutex-protected update.
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Arc<Mutex<HistData>>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value. Non-finite values are ignored; values ≤ 0 land in
    /// a dedicated zero bucket.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let mut d = self.inner.lock();
        if d.count == 0 {
            d.min = v;
            d.max = v;
        } else {
            d.min = d.min.min(v);
            d.max = d.max.max(v);
        }
        d.count += 1;
        d.sum += v;
        if v <= 0.0 {
            d.zeros += 1;
        } else {
            *d.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        }
    }

    /// Record an integer count.
    pub fn record_count(&self, n: u64) {
        self.record(n as f64);
    }

    /// Fold a snapshot into this live histogram — how the driver merges
    /// per-task histogram deltas shipped back from worker processes.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        let mut d = self.inner.lock();
        if d.count == 0 {
            d.min = snap.min;
            d.max = snap.max;
        } else {
            d.min = d.min.min(snap.min);
            d.max = d.max.max(snap.max);
        }
        d.count += snap.count;
        d.sum += snap.sum;
        d.zeros += snap.zeros;
        for &(i, c) in &snap.buckets {
            *d.buckets.entry(i).or_insert(0) += c;
        }
    }

    /// Immutable snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let d = self.inner.lock();
        HistogramSnapshot {
            count: d.count,
            sum: d.sum,
            min: if d.count == 0 { 0.0 } else { d.min },
            max: if d.count == 0 { 0.0 } else { d.max },
            zeros: d.zeros,
            buckets: d.buckets.iter().map(|(&i, &c)| (i, c)).collect(),
        }
    }
}

/// A plain-data snapshot of a [`Histogram`], carried in
/// [`crate::JobMetrics`] and mergeable across tasks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (0 when empty).
    pub min: f64,
    /// Largest recorded value (0 when empty).
    pub max: f64,
    /// Values ≤ 0.
    pub zeros: u64,
    /// `(bucket index, count)` in ascending index order; a value `v > 0`
    /// lands in bucket `floor(log2(v) * 16)`.
    pub buckets: Vec<(i32, u64)>,
}

impl HistogramSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate of the `p`-th percentile (`0 < p <= 100`), within one log
    /// bucket (~2.2% relative error) of the exact order statistic; the
    /// result is clamped to the exact observed `[min, max]`, so
    /// `percentile(100) == max` exactly.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        if rank == self.count {
            return self.max;
        }
        let mut cum = self.zeros;
        if rank <= cum {
            return self.min.min(0.0);
        }
        for &(idx, c) in &self.buckets {
            cum += c;
            if rank <= cum {
                return bucket_center(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.zeros += other.zeros;
        let mut merged: BTreeMap<i32, u64> = self.buckets.iter().copied().collect();
        for &(i, c) in &other.buckets {
            *merged.entry(i).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// A registry of named histograms shared by every task of a job, mirroring
/// [`crate::Counters`].
#[derive(Clone, Default)]
pub struct Histograms {
    inner: Arc<RwLock<BTreeMap<String, Histogram>>>,
}

impl Histograms {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch (creating if absent) the histogram with the given name.
    pub fn get(&self, name: &str) -> Histogram {
        if let Some(h) = self.inner.read().get(name) {
            return h.clone();
        }
        let mut map = self.inner.write();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Snapshot every histogram as `(name, snapshot)` in name order.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

codec_struct!(HistogramSnapshot {
    count,
    sum,
    min,
    max,
    zeros,
    buckets,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{Estimate, SpaceSaving};

    fn full_event() -> TraceEvent {
        TraceEvent {
            ts_us: 1234,
            kind: EventKind::TaskEnd,
            job: "stage2-pk \"quoted\"\n".into(),
            phase: Some(Phase::Reduce),
            task: Some(7),
            attempt: Some(2),
            node: Some(3),
            dur_us: Some(456),
            outcome: Some(Outcome::Failed),
            error: Some("boom\ttab".into()),
            fault: Some("straggle(8)".into()),
            bytes: Some(1024),
            records: Some(99),
            detail: Some("unicode é 漢".into()),
        }
    }

    #[test]
    fn event_jsonl_roundtrip_all_fields() {
        let e = full_event();
        let line = e.to_json_line();
        assert_eq!(TraceEvent::from_json_line(&line).unwrap(), Some(e));
    }

    #[test]
    fn every_name_parses_back_to_what_wrote_it() {
        for (kind, name) in EVENT_KINDS {
            assert_eq!((kind.as_str(), EventKind::parse(name)), (name, Some(kind)));
        }
        for (outcome, name) in OUTCOMES {
            assert_eq!(
                (outcome.as_str(), Outcome::parse(name)),
                (name, Some(outcome))
            );
        }
        assert_eq!(EventKind::parse("task"), None);
        assert_eq!(Outcome::parse("lost"), None);
        // A phase reads back through the name `Phase::as_str` writes.
        for phase in [Phase::Map, Phase::Reduce] {
            let e = TraceEvent::new(EventKind::TaskStart, "j").at_task(phase, 0, 0, 0);
            assert_eq!(
                TraceEvent::from_json_line(&e.to_json_line()).unwrap(),
                Some(e)
            );
        }
        let line = r#"{"v":1,"ts_us":0,"kind":"task_start","job":"j","phase":"merge"}"#;
        assert!(TraceEvent::from_json_line(line).is_err());
    }

    #[test]
    fn event_jsonl_roundtrip_minimal() {
        let e = TraceEvent::new(EventKind::JobStart, "wordcount");
        let line = e.to_json_line();
        let parsed = TraceEvent::from_json_line(&line).unwrap();
        assert_eq!(parsed, Some(e));
        assert!(line.contains("\"v\":1"));
    }

    #[test]
    fn sink_orders_and_serializes() {
        let sink = TraceSink::new();
        sink.emit(TraceEvent::new(EventKind::JobStart, "j"));
        sink.emit(TraceEvent::new(EventKind::TaskStart, "j").at_task(Phase::Map, 0, 0, 1));
        assert_eq!(sink.len(), 2);
        let parsed = TraceSink::parse_jsonl(&sink.to_jsonl()).unwrap();
        assert_eq!(parsed, sink.events());
        assert!(parsed[0].ts_us <= parsed[1].ts_us);
    }

    /// A kind this version does not know — the `profile` events an earlier
    /// release wrote — is skipped, not fatal; what is malformed still is.
    #[test]
    fn parse_jsonl_skips_kinds_it_does_not_know() {
        let sink = TraceSink::new();
        sink.emit(TraceEvent::new(EventKind::JobStart, "j"));
        sink.emit(TraceEvent::new(EventKind::JobEnd, "j"));
        let known = sink.to_jsonl();
        let (first, second) = known.split_once('\n').unwrap();
        let profile = r#"{"v":1,"ts_us":7,"kind":"profile","job":"j","detail":"map 1.0s"}"#;
        let mixed = format!("{first}\n{profile}\n{second}");
        assert_eq!(TraceSink::parse_jsonl(&mixed).unwrap(), sink.events());
        for bad in [
            r#"{"v":1,"ts_us":7,"job":"j"}"#,
            r#"{"v":1,"ts_us":7,"kind":"task_end","job":"j","outcome":"lost"}"#,
            r#"{"v":1,"ts_us":7,"kind":"profile""#,
        ] {
            assert!(
                TraceSink::parse_jsonl(&format!("{first}\n{bad}\n")).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_spans() {
        let sink = TraceSink::new();
        sink.emit(TraceEvent::new(EventKind::TaskStart, "j").at_task(Phase::Map, 0, 0, 1));
        let mut end = TraceEvent::new(EventKind::TaskEnd, "j").at_task(Phase::Map, 0, 0, 1);
        end.dur_us = Some(10);
        end.outcome = Some(Outcome::Ok);
        sink.emit(end);
        let chrome = sink.to_chrome_trace();
        let v = Json::parse(&chrome).unwrap();
        let events = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 1, "one wall span");
        for e in complete {
            assert!(e.get("dur").is_some());
            assert!(e.get("ts").is_some());
        }
    }

    #[test]
    fn histogram_percentiles_against_sorted_oracle() {
        // Deterministic pseudo-random values over several orders of
        // magnitude.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut values = Vec::new();
        let h = Histogram::new();
        for _ in 0..5000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = (state % 1_000_000) as f64 / 997.0 + 1e-6;
            values.push(v);
            h.record(v);
        }
        values.sort_by(f64::total_cmp);
        let snap = h.snapshot();
        assert_eq!(snap.count, 5000);
        for p in [10.0, 50.0, 90.0, 95.0, 99.0] {
            let rank = ((p / 100.0) * values.len() as f64).ceil() as usize - 1;
            let exact = values[rank];
            let est = snap.percentile(p);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.03, "p{p}: est {est} vs exact {exact} (rel {rel})");
        }
        assert_eq!(snap.percentile(100.0), *values.last().unwrap());
        assert_eq!(snap.max, *values.last().unwrap());
        assert_eq!(snap.min, *values.first().unwrap());
    }

    #[test]
    fn histogram_handles_zeros_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile(50.0), 0.0);
        h.record(0.0);
        h.record(0.0);
        h.record(8.0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.zeros, 2);
        assert_eq!(s.percentile(50.0), 0.0);
        assert!(s.percentile(100.0) == 8.0);
        h.record(f64::NAN);
        assert_eq!(h.snapshot().count, 3, "non-finite values are ignored");
    }

    #[test]
    fn histogram_snapshots_merge() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for i in 1..100u64 {
            let target = if i % 2 == 0 { &a } else { &b };
            target.record_count(i);
            all.record_count(i);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        let mut empty = HistogramSnapshot::default();
        empty.merge(&merged);
        assert_eq!(empty, all.snapshot());
    }

    #[test]
    fn histograms_registry_shares_cells() {
        let hists = Histograms::new();
        hists.get("x").record(1.0);
        hists.get("x").record(2.0);
        let snap = hists.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.count, 2);
    }

    /// The heavy-hitter report's sketch over string labels, filled by unit
    /// adds.
    fn labels(capacity: usize, adds: &[&str]) -> SpaceSaving<String> {
        let mut t = SpaceSaving::new(capacity);
        for label in adds {
            t.add(label.to_string(), 1);
        }
        t
    }

    /// A sketch's `(key, count)` entries in key order.
    fn by_key(t: &SpaceSaving<String>) -> Vec<(String, u64)> {
        let mut e: Vec<_> = t
            .entries()
            .iter()
            .map(|(k, e)| (k.clone(), e.count))
            .collect();
        e.sort();
        e
    }

    #[test]
    fn topk_exact_within_capacity() {
        let mut t = SpaceSaving::new(8);
        for (label, n) in [("a", 5), ("b", 3), ("c", 9), ("a", 2)] {
            t.add(label.to_string(), n);
        }
        let (a, c) = ("a".to_string(), "c".to_string());
        assert_eq!(t.top(2), vec![(c.clone(), 9), (a.clone(), 7)]);
        // Within capacity every estimate is exact.
        assert_eq!(t.total(), 19);
        assert_eq!(t.estimate(&a), Some(Estimate { count: 7, error: 0 }));
        assert_eq!(t.estimate(&"z".to_string()), None);
        assert_eq!(t.heavy(5), vec![(c, 9), (a, 7)]);
    }

    #[test]
    fn topk_keeps_heavy_hitters_under_eviction() {
        let mut t = SpaceSaving::new(4);
        // One genuinely heavy label among many singletons.
        for i in 0..100 {
            t.add(format!("noise-{i}"), 1);
            t.add("heavy".to_string(), 10);
        }
        let top = t.top(1);
        assert_eq!(top[0].0, "heavy");
        assert!(top[0].1 >= 1000);
        assert_eq!(t.total(), 1100);
        // Every estimate brackets the truth, and only the heavy label is
        // guaranteed to be hot.
        for (label, e) in t.entries() {
            let truth = if label == "heavy" { 1000 } else { 1 };
            assert!(e.count >= truth && e.at_least() <= truth, "{label}: {e:?}");
        }
        assert_eq!(t.heavy(2), vec![("heavy".to_string(), 1000)]);
    }

    #[test]
    fn topk_merge_accumulates() {
        let mut a = labels(8, &["x", "x"]);
        a.merge(&labels(8, &["x", "x", "x", "y"]));
        assert_eq!(a.top(1), vec![("x".to_string(), 5)]);
        // A merged estimate keeps its uncertainty: `y` took `x`'s place in
        // a one-entry sketch, and is still only guaranteed once.
        let mut a = labels(8, &["x", "x"]);
        a.merge(&labels(1, &["x", "x", "x", "y"]));
        let y = a.estimate(&"y".to_string()).unwrap();
        assert_eq!((y.count, y.at_least()), (4, 1));
        assert_eq!(a.heavy(2), vec![("x".to_string(), 2)]);
    }

    /// Regression: eviction on tied counts used to pick the positionally
    /// first minimum, so merging the same per-attempt sketches in a
    /// different order (retries, backend scheduling) evicted
    /// different labels and heavy-hitter reports drifted. Ties must break
    /// by label, deterministically, matching `top()`.
    #[test]
    fn topk_tied_eviction_is_order_independent() {
        // Three capacity-full sketches holding the same labels at tied
        // counts, filled in different insertion orders; "z" forces one
        // eviction among the tied minima.
        let orders = [
            ["a", "b", "c", "z"],
            ["c", "a", "b", "z"],
            ["b", "c", "a", "z"],
        ];
        let results: Vec<_> = orders
            .iter()
            .map(|order| by_key(&labels(3, order)))
            .collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        // The greatest tied label ("c") is the victim; smaller labels
        // survive, matching top()'s ascending-label preference on ties.
        let survivors: Vec<&str> = results[0].iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(survivors, vec!["a", "b", "z"]);

        // The same drift through `merge`: two attempt sketches holding the
        // same tied labels at different internal positions must evict the
        // same label when a third sketch is folded in.
        let mut left = labels(2, &["p", "q"]);
        let mut right = labels(2, &["q", "p"]);
        left.merge(&labels(2, &["w"]));
        right.merge(&labels(2, &["w"]));
        assert_eq!(by_key(&left), by_key(&right));
    }
}
