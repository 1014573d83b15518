//! The repo benchmark: four join workloads, six end-to-end metrics each,
//! and a per-layer ladder with a single-thread baseline. `README.md` beside
//! this package defines every metric; `run.sh` is the command.

#![warn(missing_docs)]

pub mod corpus;
pub mod driver;
pub mod procfs;
pub mod reference;
pub mod report;
pub mod rungs;
pub mod sample;
pub mod spec;
pub mod trace;
pub mod workload;
