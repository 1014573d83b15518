//! Task-side context and the output-collector abstraction.

use crate::cache::Cache;
use crate::counters::{Counter, Counters};
use crate::dfs::Dfs;
use crate::error::Result;
use crate::memory::MemoryGauge;
use crate::trace::{Histogram, Histograms};

/// Which phase a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
}

impl Phase {
    /// The phase's name in task labels and trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::Reduce => "reduce",
        }
    }
}

/// Per-task context handed to map/reduce functions, mirroring Hadoop's
/// `Mapper.Context` / `Reducer.Context`.
pub struct TaskContext {
    /// Phase of the running task.
    pub phase: Phase,
    /// Task index within its phase.
    pub task_id: usize,
    /// Simulated node executing the task.
    pub node: usize,
    /// Number of reduce tasks in the job (Hadoop's `getNumReduceTasks`).
    pub num_reducers: usize,
    /// Path of the input file the current record came from. The paper's
    /// stage-3 BRJ mapper "can differentiate between the two types of inputs
    /// by looking at the input file name" — this is that file name. Empty
    /// for reduce tasks.
    pub input_path: String,
    /// Zero-based execution attempt of this task (> 0 after retries).
    pub attempt: usize,
    counters: Counters,
    histograms: Histograms,
    memory: MemoryGauge,
    cache: Cache,
    dfs: Dfs,
}

impl TaskContext {
    /// Construct a context (engine-internal, public for tests and for
    /// driving tasks manually).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        phase: Phase,
        task_id: usize,
        node: usize,
        num_reducers: usize,
        counters: Counters,
        memory: MemoryGauge,
        cache: Cache,
        dfs: Dfs,
    ) -> Self {
        TaskContext {
            phase,
            task_id,
            node,
            num_reducers,
            input_path: String::new(),
            attempt: 0,
            counters,
            histograms: Histograms::new(),
            memory,
            cache,
            dfs,
        }
    }

    /// Fetch (or create) a named user counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.get(name)
    }

    /// Fetch (or create) a named user histogram — record per-group or
    /// per-record distributions into it (e.g. candidate counts); snapshots
    /// land in [`crate::JobMetrics::histograms`]. Like counters, values
    /// recorded by attempts that later fail and retry are not rolled back.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms.get(name)
    }

    /// The task's memory gauge; charge it for data the task holds.
    pub fn memory(&self) -> &MemoryGauge {
        &self.memory
    }

    /// The job's broadcast side-data cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Handle to the distributed file system, for loading side files in
    /// `setup` (as Hadoop tasks read distributed-cache files).
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Human-readable task label for error messages.
    pub fn label(&self) -> String {
        match self.phase {
            Phase::Map => format!("map-{}", self.task_id),
            Phase::Reduce => format!("reduce-{}", self.task_id),
        }
    }

    /// Engine-internal: set the current input path.
    pub(crate) fn set_input_path(&mut self, path: &str) {
        self.input_path.clear();
        self.input_path.push_str(path);
    }

    /// Engine-internal: share the job-wide histogram registry.
    pub(crate) fn set_histograms(&mut self, histograms: Histograms) {
        self.histograms = histograms;
    }
}

/// Output collector: map and reduce functions emit `(key, value)` pairs
/// through this trait (Hadoop's `context.write`).
pub trait Emit<K, V> {
    /// Emit one pair.
    fn emit(&mut self, key: K, value: V) -> Result<()>;

    /// Emit a pair the caller keeps (one value under many keys, say). The
    /// engine's collectors encode it from the references; the default clones.
    fn emit_ref(&mut self, key: &K, value: &V) -> Result<()>
    where
        K: Clone,
        V: Clone,
    {
        self.emit(key.clone(), value.clone())
    }
}

/// An [`Emit`] implementation that collects pairs into a vector — useful in
/// tests and for driving mappers outside the engine.
#[derive(Debug, Default)]
pub struct VecEmitter<K, V> {
    /// Collected pairs.
    pub pairs: Vec<(K, V)>,
}

impl<K, V> VecEmitter<K, V> {
    /// An empty collector.
    pub fn new() -> Self {
        VecEmitter { pairs: Vec::new() }
    }
}

impl<K, V> Emit<K, V> for VecEmitter<K, V> {
    fn emit(&mut self, key: K, value: V) -> Result<()> {
        self.pairs.push((key, value));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TaskContext {
        TaskContext::new(
            Phase::Map,
            3,
            1,
            4,
            Counters::new(),
            MemoryGauge::unlimited("t"),
            Cache::new(),
            Dfs::new(1, 64),
        )
    }

    #[test]
    fn labels_and_counters() {
        let c = ctx();
        assert_eq!(c.label(), "map-3");
        c.counter("x").add(2);
        assert_eq!(c.counter("x").get(), 2);
    }

    #[test]
    fn histograms_are_shared_cells() {
        let c = ctx();
        c.histogram("h").record(4.0);
        c.histogram("h").record(2.0);
        let snap = c.histogram("h").snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, 4.0);
    }

    #[test]
    fn input_path_updates() {
        let mut c = ctx();
        assert_eq!(c.input_path, "");
        c.set_input_path("/data/records");
        assert_eq!(c.input_path, "/data/records");
        c.set_input_path("/data/pairs");
        assert_eq!(c.input_path, "/data/pairs");
    }

    #[test]
    fn vec_emitter_collects() {
        let mut e = VecEmitter::new();
        e.emit(1u32, "a".to_string()).unwrap();
        e.emit(2u32, "b".to_string()).unwrap();
        assert_eq!(e.pairs.len(), 2);
    }
}
