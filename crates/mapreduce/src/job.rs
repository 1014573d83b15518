//! Job specification and builder.

use std::sync::Arc;

use crate::cache::Cache;
use crate::codec::Codec;
use crate::dfs::Dfs;
use crate::error::Result;
use crate::input::SplitSource;
use crate::mapper::Mapper;
use crate::partitioner::Grouping;
use crate::reducer::{CombineFn, Reducer};

/// Formats one output pair as a text line.
pub type TextFormat<K, V> = Arc<dyn Fn(&K, &V) -> String + Send + Sync>;

/// Renders an intermediate key as a short label for the reduce-key
/// heavy-hitter report (e.g. the prefix-token rank a stage-2 key routes
/// on). Labels are aggregated with a top-k sketch, so many distinct labels
/// are fine; the function should be cheap.
pub type KeyLabel<K> = Arc<dyn Fn(&K) -> String + Send + Sync>;

/// Where a job's reduce output goes.
pub enum Output<K, V> {
    /// Discard output (pure side-effect/metric jobs, engine tests).
    None,
    /// Sequence-file directory: `dir/part-NNNNN` of encoded pairs.
    Seq(String),
    /// Text-file directory: `dir/part-NNNNN` of formatted lines — Hadoop's
    /// `TextOutputFormat`.
    Text(String, TextFormat<K, V>),
}

impl<K, V> Output<K, V> {
    /// Output directory, if any.
    pub fn dir(&self) -> Option<&str> {
        match self {
            Output::None => None,
            Output::Seq(d) | Output::Text(d, _) => Some(d),
        }
    }
}

/// A fully-specified MapReduce job.
///
/// Construct with [`Job::new`] and customize with the builder methods; run
/// with [`crate::Cluster::run`].
pub struct Job<M: Mapper, R: Reducer<Key = M::OutKey, InValue = M::OutValue>> {
    /// Job name (metrics, error labels).
    pub name: String,
    /// Mapper prototype; cloned once per map attempt.
    pub mapper: M,
    /// Reducer prototype; cloned once per reduce attempt.
    pub reducer: R,
    /// Optional map-side combiner.
    pub combiner: Option<CombineFn<M::OutKey, M::OutValue>>,
    /// Which reducer and which reduce call each intermediate key goes to
    /// (see [`Job::group_on`]). Within a partition keys are sorted by their
    /// own `Ord`.
    pub(crate) grouping: Grouping<M::OutKey>,
    /// Number of reduce tasks; defaults to one wave of the cluster's reduce
    /// slots.
    pub num_reducers: Option<usize>,
    /// Input splits (possibly from several files).
    pub inputs: Vec<SplitSource<M::InKey, M::InValue>>,
    /// Output destination.
    pub output: Output<R::OutKey, R::OutValue>,
    /// Broadcast side data available to all tasks.
    pub cache: Cache,
    /// Optional labeler enabling the reduce-key heavy-hitter report (see
    /// [`crate::JobMetrics::reduce_key_heavy_hitters`]).
    pub key_label: Option<KeyLabel<M::OutKey>>,
    /// Fingerprint of the job's inputs + relevant configuration, recorded
    /// in the output directory's `_SUCCESS` commit manifest. Resume-mode
    /// drivers recompute it and skip the job when the manifest matches.
    /// `None` records fingerprint 0 (manifest still written, never
    /// resumable-by-fingerprint).
    pub fingerprint: Option<u64>,
    /// How a worker *process* rebuilds this job (see [`crate::backend`]'s
    /// process backend), set by [`Job::from_spec`]. A job without one runs
    /// on the driver's threads even under the process backend.
    pub remote: Option<RemoteJobSpec>,
}

/// A job as one encodable value: everything [`build`](JobSpec::build) needs
/// beyond the shared [`Dfs`]. The driver builds the job it runs from a spec
/// ([`Job::from_spec`]) and ships the spec's own bytes; a worker process
/// decodes them and calls the same `build`
/// ([`register_job_spec`](crate::register_job_spec)), so the two cannot
/// describe different jobs. Both sides lay the input out from the same
/// file headers, so task ids line up, and neither reads a block to do it.
pub trait JobSpec: Codec {
    /// The job's mapper.
    type Mapper: Mapper;
    /// The job's reducer.
    type Reducer: Reducer<
        Key = <Self::Mapper as Mapper>::OutKey,
        InValue = <Self::Mapper as Mapper>::OutValue,
    >;

    /// Name of the worker-side factory of this job: the name the worker
    /// executable registered the spec under.
    fn factory(&self) -> &'static str;

    /// The whole job — mapper, reducer, policies, inputs and output —
    /// against `dfs`.
    fn build(&self, dfs: &Dfs) -> Result<Job<Self::Mapper, Self::Reducer>>;
}

/// What the driver sends a worker process to rebuild a job from: the name
/// of a registered factory and the encoded [`JobSpec`] it decodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteJobSpec {
    /// Registered factory name (must match on driver and worker).
    pub factory: String,
    /// The encoded spec.
    pub payload: Vec<u8>,
}

impl<M, R> Job<M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    /// A job with default policies: hash partitioning, full-key grouping, no
    /// combiner, discarded output.
    pub fn new(name: impl Into<String>, mapper: M, reducer: R) -> Self {
        Job {
            name: name.into(),
            mapper,
            reducer,
            combiner: None,
            grouping: Grouping::whole_key(),
            num_reducers: None,
            inputs: Vec::new(),
            output: Output::None,
            cache: Cache::new(),
            key_label: None,
            fingerprint: None,
            remote: None,
        }
    }

    /// The job `spec` describes, as the driver runs it: built by the spec,
    /// and carrying the spec's bytes for worker processes.
    pub fn from_spec<S>(spec: &S, dfs: &Dfs) -> Result<Self>
    where
        S: JobSpec<Mapper = M, Reducer = R>,
    {
        let mut job = spec.build(dfs)?;
        job.remote = Some(RemoteJobSpec {
            factory: spec.factory().to_string(),
            payload: spec.to_bytes(),
        });
        Ok(job)
    }

    /// Add input splits.
    pub fn inputs(mut self, splits: Vec<SplitSource<M::InKey, M::InValue>>) -> Self {
        self.inputs.extend(splits);
        self
    }

    /// Set the combiner.
    pub fn combiner(mut self, c: CombineFn<M::OutKey, M::OutValue>) -> Self {
        self.combiner = Some(c);
        self
    }

    /// Secondary sort: partition on `stable_hash(&project(key))` and make
    /// keys with equal projections one reduce call, in which they arrive in
    /// full-key order. `group_on(|k: &(u32, u32)| k.0)` is the paper's
    /// "custom partitioning function … on the group value". Routing and
    /// grouping come from the one projection, so no reduce group is split
    /// across reducers.
    pub fn group_on<P, F>(mut self, project: F) -> Self
    where
        P: std::hash::Hash + PartialEq,
        F: Fn(&M::OutKey) -> P + Send + Sync + 'static,
    {
        self.grouping = Grouping::on(project);
        self
    }

    /// The reduce task, of `parts`, that receives `key`.
    pub fn partition(&self, key: &M::OutKey, parts: u32) -> u32 {
        self.grouping.partition(key, parts)
    }

    /// Whether keys `a` and `b` meet in one reduce call.
    pub fn same_group(&self, a: &M::OutKey, b: &M::OutKey) -> bool {
        self.grouping.same_group(a, b)
    }

    /// Fix the number of reduce tasks (e.g. 1 for global sorts).
    pub fn reducers(mut self, n: usize) -> Self {
        self.num_reducers = Some(n);
        self
    }

    /// Write output as a sequence-file directory.
    pub fn output_seq(mut self, dir: impl Into<String>) -> Self {
        self.output = Output::Seq(dir.into());
        self
    }

    /// Write output as formatted text.
    pub fn output_text(
        mut self,
        dir: impl Into<String>,
        fmt: TextFormat<R::OutKey, R::OutValue>,
    ) -> Self {
        self.output = Output::Text(dir.into(), fmt);
        self
    }

    /// Attach broadcast side data.
    pub fn cache(mut self, cache: Cache) -> Self {
        self.cache = cache;
        self
    }

    /// Label intermediate keys for the reduce-key heavy-hitter report.
    pub fn key_label(mut self, f: KeyLabel<M::OutKey>) -> Self {
        self.key_label = Some(f);
        self
    }

    /// Record an input/config fingerprint in the job's commit manifest
    /// (see [`crate::JobManifest`]).
    pub fn fingerprint(mut self, fp: u64) -> Self {
        self.fingerprint = Some(fp);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::IdentityMapper;
    use crate::reducer::IdentityReducer;

    #[test]
    fn builder_sets_fields() {
        let job = Job::new(
            "test",
            IdentityMapper::<u32, u32>::new(),
            IdentityReducer::<u32, u32>::new(),
        )
        .reducers(3)
        .output_seq("/out");
        assert_eq!(job.name, "test");
        assert_eq!(job.num_reducers, Some(3));
        assert_eq!(job.output.dir(), Some("/out"));
    }

    #[test]
    fn default_output_is_none() {
        let job = Job::new(
            "t",
            IdentityMapper::<u32, u32>::new(),
            IdentityReducer::<u32, u32>::new(),
        );
        assert!(job.output.dir().is_none());
        assert!(job.inputs.is_empty());
    }
}
