//! Error types for the MapReduce engine and the simulated DFS, plus the
//! transient-vs-permanent classification the retry loop relies on.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MrError>;

/// Errors produced by the engine, the DFS, or user map/reduce functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// A DFS path does not exist.
    FileNotFound(String),
    /// A DFS path already exists and overwrite was not requested.
    FileExists(String),
    /// Data could not be decoded from its on-wire representation.
    Codec(String),
    /// A task exceeded its configured memory budget.
    ///
    /// This is the error the paper's OPRJ variant hits when the broadcast
    /// RID-pair list outgrows a map task's heap (Section 6.2).
    OutOfMemory {
        /// Human-readable description of the task that failed.
        task: String,
        /// Bytes the task attempted to hold.
        requested: u64,
        /// The per-task budget from [`crate::ClusterConfig::task_memory`].
        budget: u64,
        /// Whether a retry could plausibly succeed. Deterministic
        /// budget-accounting overflows (the [`crate::MemoryGauge`] path)
        /// are permanent: the same attempt charges the same bytes. An
        /// injected or environmental OOM (another task's pressure on a
        /// shared node) is transient.
        transient: bool,
    },
    /// A user map/reduce function reported a failure.
    TaskFailed(String),
    /// A user map/reduce function panicked; the panic was caught at the
    /// attempt boundary and the payload message preserved.
    TaskPanicked(String),
    /// The simulated node running the task went down mid-attempt (fault
    /// injection); the attempt is lost and retried elsewhere.
    NodeLost {
        /// The node that failed.
        node: usize,
        /// Human-readable description of the task that was running.
        task: String,
    },
    /// The job specification is inconsistent (e.g. zero reducers).
    InvalidConfig(String),
    /// A DFS file's content no longer matches its stored CRC — the
    /// simulated equivalent of HDFS detecting a corrupt block on read.
    /// Corrupt data is never returned to the caller.
    ChecksumMismatch {
        /// The corrupt file.
        path: String,
        /// CRC recorded when the file was written.
        expected: u32,
        /// CRC of the bytes actually present.
        found: u32,
    },
    /// The driver "crashed" at an injected crash point (see
    /// [`crate::FaultPlan::crash_after`] / [`crate::FaultPlan::crash_mid`]).
    /// Unlike a job failure, a driver crash leaves the output directory
    /// exactly as it was — partial parts, orphaned attempts and all — so
    /// recovery tests can resume over the surviving DFS.
    DriverCrash(String),
    /// The disk backing the DFS is full (`ENOSPC`, real or injected).
    /// Transient-after-cleanup: the engine runs a scavenger pass to free
    /// orphaned attempt/spill files and retries the attempt.
    StorageFull {
        /// The path whose write hit the full disk.
        path: String,
    },
    /// A retryable I/O error from the disk store (`EINTR`, injected
    /// `EIO`): the operation may succeed when re-issued, unlike a
    /// deterministic [`MrError::Codec`] decode failure.
    StorageIo {
        /// The path the operation targeted.
        path: String,
        /// The operation that failed (`read`, `write`, `rename`).
        op: String,
    },
}

/// Retry classification of an [`MrError`] — Hadoop distinguishes attempt
/// failures (retry the task) from job-level failures (fail immediately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// A retry could plausibly succeed: re-execute the attempt.
    Transient,
    /// Deterministic failure: every retry would fail identically.
    Permanent,
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::FileNotFound(p) => write!(f, "DFS file not found: {p}"),
            MrError::FileExists(p) => write!(f, "DFS file already exists: {p}"),
            MrError::Codec(msg) => write!(f, "codec error: {msg}"),
            MrError::OutOfMemory {
                task,
                requested,
                budget,
                ..
            } => write!(
                f,
                "task {task} out of memory: requested {requested} bytes, budget {budget} bytes"
            ),
            MrError::TaskFailed(msg) => write!(f, "task failed: {msg}"),
            MrError::TaskPanicked(msg) => write!(f, "task panicked: {msg}"),
            MrError::NodeLost { node, task } => {
                write!(f, "node {node} lost while running task {task}")
            }
            MrError::InvalidConfig(msg) => write!(f, "invalid job configuration: {msg}"),
            MrError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "DFS checksum mismatch reading {path}: expected {expected:08x}, found {found:08x}"
            ),
            MrError::DriverCrash(msg) => write!(f, "driver crashed (injected): {msg}"),
            MrError::StorageFull { path } => {
                write!(f, "storage full (ENOSPC) writing {path}")
            }
            MrError::StorageIo { path, op } => {
                write!(f, "storage I/O error during {op} of {path}")
            }
        }
    }
}

impl std::error::Error for MrError {}

impl MrError {
    /// True if this error is the memory-budget failure mode.
    pub fn is_out_of_memory(&self) -> bool {
        matches!(self, MrError::OutOfMemory { .. })
    }

    /// Classify for the retry loop. Transient errors are worth re-executing
    /// the attempt for; permanent errors fail the job immediately — retrying
    /// an `InvalidConfig` or a deterministic `Codec` failure burns attempts
    /// without any chance of a different outcome.
    pub fn class(&self) -> ErrorClass {
        match self {
            // Environmental / nondeterministic: a new attempt may succeed.
            // StorageFull is transient-after-cleanup: the retry path runs a
            // scavenger pass first, so a re-attempt writes into freed space.
            // StorageIo covers interrupted/flaky disk operations (EINTR,
            // injected EIO) where re-issuing the syscall can succeed.
            MrError::TaskFailed(_)
            | MrError::TaskPanicked(_)
            | MrError::NodeLost { .. }
            | MrError::StorageFull { .. }
            | MrError::StorageIo { .. } => ErrorClass::Transient,
            MrError::OutOfMemory { transient, .. } => {
                if *transient {
                    ErrorClass::Transient
                } else {
                    ErrorClass::Permanent
                }
            }
            // Deterministic: identical inputs produce the identical failure.
            // A checksum mismatch is permanent at the task level — every
            // re-read returns the same corrupt bytes; recovery happens one
            // layer up by re-executing the *producing* stage, not by
            // retrying the reader.
            MrError::FileNotFound(_)
            | MrError::FileExists(_)
            | MrError::Codec(_)
            | MrError::InvalidConfig(_)
            | MrError::ChecksumMismatch { .. }
            | MrError::DriverCrash(_) => ErrorClass::Permanent,
        }
    }

    /// True if a retry could plausibly succeed (see [`MrError::class`]).
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }

    /// True if this is an injected driver crash (see
    /// [`MrError::DriverCrash`]), the signal recovery harnesses resume on.
    pub fn is_driver_crash(&self) -> bool {
        matches!(self, MrError::DriverCrash(_))
    }

    /// True if this is a DFS data-integrity failure
    /// ([`MrError::ChecksumMismatch`]). Like a driver crash, it is
    /// recoverable one layer up: a resume invalidates the producing job's
    /// manifest and re-executes that stage.
    pub fn is_checksum_mismatch(&self) -> bool {
        matches!(self, MrError::ChecksumMismatch { .. })
    }

    /// True if this is a disk-full failure ([`MrError::StorageFull`]), the
    /// signal on which the engine runs an immediate scavenger pass before
    /// the retry.
    pub fn is_storage_full(&self) -> bool {
        matches!(self, MrError::StorageFull { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = MrError::FileNotFound("/a/b".into());
        assert_eq!(e.to_string(), "DFS file not found: /a/b");
        let e = MrError::OutOfMemory {
            task: "reduce-3".into(),
            requested: 10,
            budget: 5,
            transient: false,
        };
        assert!(e.to_string().contains("reduce-3"));
        assert!(e.is_out_of_memory());
        assert!(!MrError::Codec("x".into()).is_out_of_memory());
        let e = MrError::TaskPanicked("boom".into());
        assert_eq!(e.to_string(), "task panicked: boom");
        let e = MrError::NodeLost {
            node: 2,
            task: "job/map-1".into(),
        };
        assert!(e.to_string().contains("node 2"));
        let e = MrError::ChecksumMismatch {
            path: "/out/part-00000".into(),
            expected: 0xdead_beef,
            found: 0x0bad_f00d,
        };
        assert_eq!(
            e.to_string(),
            "DFS checksum mismatch reading /out/part-00000: \
             expected deadbeef, found 0badf00d"
        );
        let e = MrError::DriverCrash("after job 2".into());
        assert_eq!(e.to_string(), "driver crashed (injected): after job 2");
        assert!(e.is_driver_crash());
        assert!(!MrError::Codec("x".into()).is_driver_crash());
        let e = MrError::StorageFull {
            path: "/out/_attempt-00001-0".into(),
        };
        assert_eq!(
            e.to_string(),
            "storage full (ENOSPC) writing /out/_attempt-00001-0"
        );
        let e = MrError::StorageIo {
            path: "/out/part-00001".into(),
            op: "rename".into(),
        };
        assert_eq!(
            e.to_string(),
            "storage I/O error during rename of /out/part-00001"
        );
    }

    #[test]
    fn classification_per_variant() {
        // Transient: user failures, panics, node loss, environmental OOM.
        assert!(MrError::TaskFailed("flaky".into()).is_transient());
        assert!(MrError::TaskPanicked("boom".into()).is_transient());
        assert!(MrError::NodeLost {
            node: 0,
            task: "t".into()
        }
        .is_transient());
        assert!(MrError::OutOfMemory {
            task: "t".into(),
            requested: 1,
            budget: 0,
            transient: true,
        }
        .is_transient());
        // Storage faults from the real disk store: ENOSPC is
        // transient-after-cleanup (scavenge then retry), EINTR/EIO is
        // retryable as-is.
        assert!(MrError::StorageFull {
            path: "/out/_attempt-00001-0".into()
        }
        .is_transient());
        assert!(MrError::StorageFull { path: "/x".into() }.is_storage_full());
        assert!(!MrError::Codec("x".into()).is_storage_full());
        assert!(MrError::StorageIo {
            path: "/out/part-00001".into(),
            op: "read".into()
        }
        .is_transient());
        // Permanent: deterministic failures retries cannot fix.
        assert!(!MrError::InvalidConfig("bad".into()).is_transient());
        assert!(!MrError::Codec("garbled".into()).is_transient());
        assert!(!MrError::FileNotFound("/x".into()).is_transient());
        assert!(!MrError::FileExists("/x".into()).is_transient());
        assert!(!MrError::OutOfMemory {
            task: "t".into(),
            requested: 2,
            budget: 1,
            transient: false,
        }
        .is_transient());
        assert!(!MrError::ChecksumMismatch {
            path: "/x".into(),
            expected: 1,
            found: 2,
        }
        .is_transient());
        assert!(!MrError::DriverCrash("mid job 0".into()).is_transient());
        assert_eq!(
            MrError::TaskFailed("x".into()).class(),
            ErrorClass::Transient
        );
        assert_eq!(MrError::Codec("x".into()).class(), ErrorClass::Permanent);
    }
}
