//! Spans recorded from the benchmark's own code around its calls into each
//! layer. They stay in memory during the run and are written out at its
//! end. Nothing here reaches into the crates under test.

use std::time::Instant;

use mapreduce::{obj, Json};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in the trace.
    pub id: usize,
    /// Span that caused this one.
    pub parent: Option<usize>,
    /// Layer or call name.
    pub name: String,
    /// Start, in seconds since the trace began.
    pub start: f64,
    /// End, likewise.
    pub end: f64,
    /// The duration was reported by the engine (`JobMetrics::wall_secs`)
    /// and not measured here; the position inside the parent is inferred.
    pub reported: bool,
}

impl Span {
    /// Seconds the span lasted.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The spans of one traced sample and the rungs after it.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    sample: String,
    spans: Vec<Span>,
}

impl Trace {
    /// Start a trace; `sample` identifies the request every span belongs to.
    pub fn new(sample: impl Into<String>) -> Trace {
        Trace {
            origin: Instant::now(),
            sample: sample.into(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; it lasts until [`Trace::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start,
            end: start,
            reported: false,
        });
        id
    }

    /// End span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Run `f` under a new span and return its result with the span's id.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Trace, usize) -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent);
        let value = f(self, id);
        self.close(id);
        (value, id)
    }

    /// Add child spans of `parent` for durations the engine reported, laid
    /// back to back so that the last ends where the parent ends: a stage
    /// does its own work (the skew pre-pass, loading the token order)
    /// before it starts its jobs.
    pub fn reported_children(&mut self, parent: usize, children: &[(String, f64)]) {
        let total: f64 = children.iter().map(|(_, secs)| secs).sum();
        let parent_span = &self.spans[parent];
        // Job walls are measured inside the parent's interval; clamp only
        // against clock rounding.
        let mut at = (parent_span.end - total).max(parent_span.start);
        let end = parent_span.end;
        for (name, secs) in children {
            let id = self.spans.len();
            let stop = (at + secs).min(end);
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name: name.clone(),
                start: at,
                end: stop,
                reported: true,
            });
            at = stop;
        }
    }

    /// All spans, in start order of their creation.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of span `id`.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].secs()
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        (self.spans[id].secs() - children).max(0.0)
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = obj(vec![
                ("sample", Json::Str(self.sample.clone())),
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::Str(s.name.clone())),
                ("start_s", Json::Num(s.start)),
                ("end_s", Json::Num(s.end)),
                ("reported", Json::Bool(s.reported)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_is_the_remainder() {
        let mut trace = Trace::new("t");
        let ((), root) = trace.span("root", None, |trace, root| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            trace.span("child", Some(root), |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(10));
            });
        });
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        assert!(trace.secs(1) >= 0.010);
        let own = trace.self_secs(root);
        assert!((0.005..trace.secs(root)).contains(&own), "self {own}");
    }

    #[test]
    fn reported_children_end_with_their_parent() {
        let mut trace = Trace::new("t");
        let ((), stage) = trace.span("stage", None, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        let stage_secs = trace.secs(stage);
        trace.reported_children(stage, &[("job-a".into(), 0.004), ("job-b".into(), 0.006)]);
        let spans = trace.spans();
        assert!(spans[1].reported && spans[2].reported);
        assert_eq!(spans[1].end, spans[2].start);
        assert_eq!(spans[2].end, spans[stage].end);
        assert!((trace.self_secs(stage) - (stage_secs - 0.010)).abs() < 1e-9);
        assert_eq!(trace.to_jsonl().lines().count(), 3);
    }
}
