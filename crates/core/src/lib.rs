//! **fuzzyjoin** — parallel set-similarity joins on MapReduce.
//!
//! An end-to-end implementation of *Efficient Parallel Set-Similarity Joins
//! Using MapReduce* (Vernica, Carey, Li — SIGMOD 2010) on top of the
//! [`mapreduce`] engine and the [`setsim`] single-node kernels.
//!
//! The join runs in three stages, each a MapReduce job (or two):
//!
//! 1. **Token ordering** ([`stage1`]) — BTO or OPTO compute the global
//!    token order by ascending frequency.
//! 2. **RID-pair generation** ([`stage2`]) — record projections are routed
//!    on prefix tokens (individual or grouped) under composite keys sorted
//!    by length, and verified by the BK or PK kernel; Section-5 block processing
//!    handles groups that exceed the reducer's memory budget. Each pair
//!    is emitted by exactly one reducer ([`keys::owner_key`]).
//! 3. **Record join** ([`stage3`]) — BRJ or OPRJ materialize the actual
//!    record pairs; BRJ shuffles only the records some pair names.
//!
//! Self-joins and R-S joins are both supported end to end; see
//! [`self_join`] and [`rs_join`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
pub mod config;
pub mod keys;
pub mod model;
mod named;
pub mod pipeline;
pub mod recovery;
pub mod report;
pub mod skew;
pub mod stage1;
pub mod stage2;
pub mod stage3;
mod tokenizer_cache;

pub use config::{
    BadRecordPolicy, JoinConfig, RecordFormat, Stage1Algo, Stage2Algo, Stage3Algo, TokenRouting,
    TokenizerKind, BAD_RECORDS_COUNTER,
};
pub use keys::{owner_key, routing_groups, Projection, Relations, Stage2Key};
pub use pipeline::{read_rid_pairs, rs_join, self_join, JoinOutcome};
pub use recovery::{job_fingerprint, Recovery, JOB_SKIPPED_COUNTER};
pub use report::{run_report, run_report_resolved, REPORT_SCHEMA, REPORT_SCHEMA_VERSION};
pub use skew::{build_plan as build_skew_plan, SkewConfig, SkewMode, SkewPlan};
pub use stage3::{read_joined, JoinedPair, PairKey};

/// Register the worker-side factory of every job this crate runs — all
/// ten: three of stage 1, the four stage-2 kernels, three of stage 3. A
/// binary whose joins may run on [`BackendKind::Process`] must call this
/// before [`mapreduce::process_worker_main`]: its workers build every job
/// they are opened with from these, and a job they cannot build fails.
/// Idempotent.
pub fn register_process_jobs() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        stage1::register_process_jobs();
        stage2::register_process_jobs();
        stage3::register_process_jobs();
    });
}

// Re-export the pieces callers need to drive a join.
pub use mapreduce::{BackendKind, Cluster, ClusterConfig, FaultPlan, MrError, Result};
pub use setsim::{FilterConfig, SimFunction, Threshold};
