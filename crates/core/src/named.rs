//! Job counters and histograms held by name for the length of a task.

use mapreduce::{Counter, Histogram, TaskContext};

/// A job counter or histogram a mapper or reducer updates per record:
/// looked up by name on first use, then kept for the rest of the task.
/// `TaskContext::counter` / `histogram` take a lock and walk a name map on
/// every call; resolving on first use rather than in `setup` leaves the set
/// of counters a job reports exactly what it was.
#[derive(Clone)]
pub(crate) struct Named<T> {
    name: &'static str,
    handle: Option<T>,
}

impl<T> Named<T> {
    pub(crate) const fn new(name: &'static str) -> Self {
        Named { name, handle: None }
    }
}

impl Named<Counter> {
    pub(crate) fn get(&mut self, ctx: &TaskContext) -> &Counter {
        self.handle.get_or_insert_with(|| ctx.counter(self.name))
    }
}

impl Named<Histogram> {
    pub(crate) fn get(&mut self, ctx: &TaskContext) -> &Histogram {
        self.handle.get_or_insert_with(|| ctx.histogram(self.name))
    }
}
