//! A shared-nothing MapReduce engine over a block-based distributed file
//! system on disk, running its tasks on threads or in worker processes.
//!
//! This crate is the substrate for the SIGMOD 2010 parallel set-similarity
//! join reproduction: the paper's algorithms are expressed as Hadoop jobs, so
//! this engine reproduces the Hadoop execution model —
//!
//! * `map(k1, v1) -> list(k2, v2)` and `reduce(k2, list(v2)) -> list(k3, v3)`
//!   user functions with `setup`/`cleanup` hooks ([`Mapper`], [`Reducer`]);
//! * optional map-side **combiners** ([`CombineFn`]);
//! * hash **partitioning**, keys sorted by their own `Ord`, and
//!   **secondary sort**: partition and group on one projection of the key
//!   ([`Job::group_on`]) — the key-manipulation toolbox the paper's kernels
//!   rely on;
//! * a spill-based shuffle that serializes every intermediate pair through a
//!   binary [`Codec`], so reported shuffle bytes are real;
//! * a block-based [`Dfs`] with round-robin placement, text and sequence
//!   files, per-block checksums and one-split-per-block inputs, on disk
//!   where worker processes and a resuming driver share it;
//! * two execution backends ([`BackendKind`]) — tasks on the driver's
//!   threads and tasks in worker processes — committing identical bytes;
//! * broadcast side data ([`Cache`]) with per-task memory accounting
//!   ([`MemoryGauge`]) that reproduces the paper's out-of-memory behaviour;
//! * per-job metrics ([`JobMetrics`]) holding one [`TaskRecord`] per
//!   committed task — phase, node, input bytes, measured seconds and any
//!   injected slow-down — from which `fuzzyjoin::model` computes what the
//!   paper's 10-node cluster would have made of the job.
//!
//! # Example
//!
//! Word count over a text file on a 4-node cluster:
//!
//! ```
//! use std::sync::Arc;
//! use mapreduce::{
//!     text_input, Cluster, ClusterConfig, ClosureMapper, ClosureReducer, Emit, Job,
//!     sum_combiner, TaskContext,
//! };
//!
//! let cluster = Cluster::new(ClusterConfig::with_nodes(4), 1 << 16).unwrap();
//! cluster.dfs().write_text("/in", ["a b a", "b a"]).unwrap();
//!
//! let mapper = ClosureMapper::new(
//!     |_off: &u64, line: &String, out: &mut dyn Emit<String, u64>, _: &TaskContext| {
//!         for w in line.split_whitespace() {
//!             out.emit(w.to_string(), 1)?;
//!         }
//!         Ok(())
//!     },
//! );
//! let reducer = ClosureReducer::new(
//!     |k: &String,
//!      vs: &mut dyn Iterator<Item = (String, u64)>,
//!      out: &mut dyn Emit<String, u64>,
//!      _: &TaskContext| { out.emit(k.clone(), vs.map(|(_, n)| n).sum()) },
//! );
//! let job = Job::new("wordcount", mapper, reducer)
//!     .inputs(text_input(cluster.dfs(), "/in").unwrap())
//!     .combiner(sum_combiner())
//!     .output_seq("/out");
//! let metrics = cluster.run(job).unwrap();
//! assert_eq!(metrics.reduce_output_records, 2);
//!
//! let mut counts: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 3), ("b".into(), 2)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::too_many_lines)]

pub mod backend;
pub mod cache;
pub mod cluster;
pub mod codec;
#[doc(hidden)]
pub mod compat;
pub mod counters;
pub mod dfs;
pub mod engine;
pub mod error;
pub mod faults;
pub mod input;
pub mod job;
pub mod json;
pub mod kv;
pub mod manifest;
pub mod mapper;
pub mod memory;
pub mod metrics;
pub mod partitioner;
pub mod profile;
pub mod reducer;
pub mod remote;
pub mod run;
pub mod sketch;
mod supervise;
pub mod task;
pub mod trace;

pub use backend::BackendKind;
pub use cache::Cache;
pub use cluster::{task_deadline, ClusterConfig, SLOTS_PER_NODE};
pub use codec::{ByteReader, Codec};
pub use counters::{Counter, Counters};
pub use dfs::{is_hidden, is_under, BlockSplit, BlockWriter, Dfs, FileKind, FileStat};
pub use engine::Cluster;
pub use error::{ErrorClass, MrError, Result};
pub use faults::{Fault, FaultPlan};
pub use input::{seq_input, text_input, SplitSource};
pub use job::{Job, JobSpec, KeyLabel, Output, RemoteJobSpec, TextFormat};
pub use json::{obj, Json};
pub use kv::{Key, Value};
pub use manifest::{
    success_path, Fingerprint, JobManifest, ManifestCheck, ManifestPart, MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION, SUCCESS_FILE,
};
pub use mapper::{ClosureMapper, IdentityMapper, Mapper, SwapMapper};
pub use memory::MemoryGauge;
pub use metrics::{JobMetrics, PhaseMetrics, PipelineMetrics, TaskRecord};
pub use partitioner::stable_hash;
pub use profile::JobProfile;
pub use reducer::{sum_combiner, ClosureReducer, CombineFn, IdentityReducer, Reducer};
pub use remote::{process_worker_main, register_job_spec, CORRUPT_FRAME_ENV, WORKER_ENV};
pub use run::{GroupValues, MergeStream, Run};
pub use sketch::SpaceSaving;
pub use task::{Emit, Phase, TaskContext, VecEmitter};
pub use trace::{
    EventKind, Histogram, HistogramSnapshot, Histograms, Outcome, TraceEvent, TraceSink,
    HEAVY_HITTER_WARNINGS, HIST_MAP_TASK_SECS, HIST_REDUCE_GROUP_RECORDS, HIST_REDUCE_TASK_SECS,
    TRACE_SCHEMA_VERSION,
};

// What `benchmark/` imports from the crate root, at its old paths. The
// crate's own `run` shadows `compat::run`, which `run` re-exports.
#[doc(hidden)]
pub use compat::*;
