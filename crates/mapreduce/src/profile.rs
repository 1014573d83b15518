//! Per-phase wall-time and byte attribution for a job execution.
//!
//! The engine and every backend record coarse phase timings into the job's
//! ordinary [`crate::Counters`] under the `profile.*` names below. Riding on
//! counters is deliberate: worker processes already send their per-request
//! counter deltas back with every task reply and the driver already merges
//! them, so process-worker phase timings cross the pipe with **zero
//! wire-protocol changes**.
//!
//! Two families of counters:
//!
//! * **Wall windows** (`profile.wall.*_us`) — non-overlapping driver-side
//!   spans that partition a job's wall clock: setup, worker-pool spawn, map
//!   phase, regroup, reduce phase, output
//!   commit, and metrics finalization. Because the windows are measured
//!   back-to-back on the driver thread, their sum approaches the job's wall
//!   time by construction — that is what makes the ≥95 % coverage contract
//!   checkable.
//! * **Busy attribution** (`profile.busy.*`) — time (and bytes) summed
//!   across task attempts and worker processes: user map/reduce execution,
//!   spill sort, shuffle transport (parking and fetching runs: a pointer
//!   copy, a bounded-channel send, or run-file I/O), regroup/merge work. Busy time
//!   may exceed the enclosing wall window when threads overlap; it explains
//!   *where* a wall window went rather than partitioning it.
//!
//! Collection is always on — the instrumentation is a handful of
//! `Instant::elapsed` calls per *attempt*, not per record — and a job's
//! [`JobProfile`] is read back from its counters wherever it is wanted (the
//! run report embeds one per job).

use crate::json::{obj, Json};
use crate::metrics::JobMetrics;

/// Wall window: driver-side setup before the backend runs (input split
/// planning, shared-state construction, fault arming). Microseconds.
pub const WALL_SETUP_US: &str = "profile.wall.setup_us";
/// Wall window: spawning + handshaking the process-backend worker pool.
/// Microseconds; zero on the in-process backends.
pub const WALL_SPAWN_US: &str = "profile.wall.spawn_us";
/// Wall window: the map phase, as seen by the driver. Microseconds.
pub const WALL_MAP_US: &str = "profile.wall.map_us";
/// Wall window: the serial regroup between map and reduce — sealing the
/// shuffle transport and routing every parked run to its partition in
/// `(map task, spill)` order. Microseconds.
pub const WALL_REGROUP_US: &str = "profile.wall.regroup_us";
/// Wall window: the reduce phase, as seen by the driver. Microseconds.
pub const WALL_REDUCE_US: &str = "profile.wall.reduce_us";
/// Wall window: the atomic output-commit protocol (rename of `_attempt-*`
/// files, manifest write). Microseconds.
pub const WALL_COMMIT_US: &str = "profile.wall.commit_us";
/// Wall window: building `JobMetrics` (task records, histogram merging)
/// after the reduce outputs are committed. Microseconds.
pub const WALL_FINALIZE_US: &str = "profile.wall.finalize_us";

/// Busy time inside user map functions and encoding their output at emit
/// (attempt execution minus spill), summed over attempts. Microseconds.
pub const BUSY_MAP_EXEC_US: &str = "profile.busy.map_exec_us";
/// Busy time sorting buffered map output and copying it into spill runs
/// (decoding and combining it too, with a combiner). Microseconds.
pub const BUSY_SPILL_US: &str = "profile.busy.spill_us";
/// Encoded bytes written into spill runs, summed over attempts.
pub const BUSY_SPILL_BYTES: &str = "profile.busy.spill_bytes";
/// Busy time moving encoded runs between map and reduce sides: blocking
/// bounded-channel sends (sharded) or run-file write/read I/O (process).
/// Microseconds.
pub const BUSY_SHUFFLE_TRANSPORT_US: &str = "profile.busy.shuffle_transport_us";
/// Bytes moved by the shuffle transport (run payload bytes).
pub const BUSY_SHUFFLE_TRANSPORT_BYTES: &str = "profile.busy.shuffle_transport_bytes";
/// Busy time routing parked runs per reduce partition; the regroup is
/// serial, so this equals the regroup wall window. Microseconds.
pub const BUSY_REGROUP_US: &str = "profile.busy.regroup_us";
/// Busy time in the sorted-run merge feeding each reduce (k-way merge and
/// merge-factor pre-passes). Microseconds.
pub const BUSY_MERGE_US: &str = "profile.busy.merge_us";
/// Busy time inside user reduce functions (attempt execution minus merge),
/// summed over attempts. Microseconds.
pub const BUSY_REDUCE_EXEC_US: &str = "profile.busy.reduce_exec_us";

/// A job's per-phase profile, extracted from its counters.
///
/// All `wall_*` fields are the non-overlapping driver windows; `busy_*`
/// fields are summed worker-side attribution. Times are microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobProfile {
    /// Driver setup window (µs).
    pub wall_setup_us: u64,
    /// Worker-pool spawn window (µs, process backend only).
    pub wall_spawn_us: u64,
    /// Map-phase window (µs).
    pub wall_map_us: u64,
    /// Serial regroup window (µs).
    pub wall_regroup_us: u64,
    /// Reduce-phase window (µs).
    pub wall_reduce_us: u64,
    /// Output-commit window (µs).
    pub wall_commit_us: u64,
    /// Metrics-finalization window (µs).
    pub wall_finalize_us: u64,
    /// User map execution busy time (µs).
    pub busy_map_exec_us: u64,
    /// Spill sort/combine/encode busy time (µs).
    pub busy_spill_us: u64,
    /// Spill bytes encoded.
    pub busy_spill_bytes: u64,
    /// Shuffle transport busy time (µs).
    pub busy_shuffle_transport_us: u64,
    /// Shuffle transport bytes moved.
    pub busy_shuffle_transport_bytes: u64,
    /// Regroup/routing busy time (µs).
    pub busy_regroup_us: u64,
    /// Sorted-run merge busy time (µs).
    pub busy_merge_us: u64,
    /// User reduce execution busy time (µs).
    pub busy_reduce_exec_us: u64,
}

impl JobProfile {
    /// Extract the profile recorded in a job's counters. Counters that were
    /// never touched read as zero.
    pub fn from_metrics(m: &JobMetrics) -> JobProfile {
        JobProfile {
            wall_setup_us: m.counter(WALL_SETUP_US),
            wall_spawn_us: m.counter(WALL_SPAWN_US),
            wall_map_us: m.counter(WALL_MAP_US),
            wall_regroup_us: m.counter(WALL_REGROUP_US),
            wall_reduce_us: m.counter(WALL_REDUCE_US),
            wall_commit_us: m.counter(WALL_COMMIT_US),
            wall_finalize_us: m.counter(WALL_FINALIZE_US),
            busy_map_exec_us: m.counter(BUSY_MAP_EXEC_US),
            busy_spill_us: m.counter(BUSY_SPILL_US),
            busy_spill_bytes: m.counter(BUSY_SPILL_BYTES),
            busy_shuffle_transport_us: m.counter(BUSY_SHUFFLE_TRANSPORT_US),
            busy_shuffle_transport_bytes: m.counter(BUSY_SHUFFLE_TRANSPORT_BYTES),
            busy_regroup_us: m.counter(BUSY_REGROUP_US),
            busy_merge_us: m.counter(BUSY_MERGE_US),
            busy_reduce_exec_us: m.counter(BUSY_REDUCE_EXEC_US),
        }
    }

    /// The wall windows as `(phase name, µs)` pairs, in execution order,
    /// including zero windows.
    pub fn wall_phases(&self) -> [(&'static str, u64); 7] {
        [
            ("setup", self.wall_setup_us),
            ("spawn", self.wall_spawn_us),
            ("map", self.wall_map_us),
            ("regroup", self.wall_regroup_us),
            ("reduce", self.wall_reduce_us),
            ("commit", self.wall_commit_us),
            ("finalize", self.wall_finalize_us),
        ]
    }

    /// The busy attributions as `(phase name, µs)` pairs.
    pub fn busy_phases(&self) -> [(&'static str, u64); 6] {
        [
            ("map_exec", self.busy_map_exec_us),
            ("spill", self.busy_spill_us),
            ("shuffle_transport", self.busy_shuffle_transport_us),
            ("regroup", self.busy_regroup_us),
            ("merge", self.busy_merge_us),
            ("reduce_exec", self.busy_reduce_exec_us),
        ]
    }

    /// Total wall seconds attributed to named phases (sum of the windows).
    pub fn covered_secs(&self) -> f64 {
        self.wall_phases().iter().map(|(_, us)| *us).sum::<u64>() as f64 / 1e6
    }

    /// Fraction of `wall_secs` the named wall windows account for. The
    /// profiling contract is coverage ≥ 0.95 on every backend. Returns 1.0
    /// for degenerate zero-wall jobs.
    pub fn coverage(&self, wall_secs: f64) -> f64 {
        if wall_secs <= 0.0 {
            return 1.0;
        }
        self.covered_secs() / wall_secs
    }

    /// True when no phase recorded a nonzero value.
    pub fn is_empty(&self) -> bool {
        self.wall_phases().iter().all(|(_, us)| *us == 0)
            && self.busy_phases().iter().all(|(_, us)| *us == 0)
    }

    /// JSON object with the wall windows, busy attributions, byte counters,
    /// and coverage against the given job wall time. Shape:
    /// `{"wall_us": {...}, "busy_us": {...}, "bytes": {...},
    ///   "covered_secs": s, "coverage": f}`.
    pub fn to_json(&self, wall_secs: f64) -> Json {
        let wall = self
            .wall_phases()
            .iter()
            .map(|(name, us)| (name.to_string(), Json::Num(*us as f64)))
            .collect::<Vec<_>>();
        let busy = self
            .busy_phases()
            .iter()
            .map(|(name, us)| (name.to_string(), Json::Num(*us as f64)))
            .collect::<Vec<_>>();
        obj(vec![
            ("wall_us", Json::Obj(wall)),
            ("busy_us", Json::Obj(busy)),
            (
                "bytes",
                obj(vec![
                    ("spill", Json::Num(self.busy_spill_bytes as f64)),
                    (
                        "shuffle_transport",
                        Json::Num(self.busy_shuffle_transport_bytes as f64),
                    ),
                ]),
            ),
            ("covered_secs", Json::Num(self.covered_secs())),
            ("coverage", Json::Num(self.coverage(wall_secs))),
        ])
    }
}

/// Convert a `std::time::Duration`-style seconds value into the integer
/// microseconds stored in profile counters.
pub fn secs_to_us(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * 1e6).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(counters: Vec<(String, u64)>) -> JobMetrics {
        JobMetrics {
            counters,
            ..Default::default()
        }
    }

    #[test]
    fn from_metrics_reads_counters_and_defaults_to_zero() {
        let m = metrics_with(vec![
            (WALL_MAP_US.into(), 1_500_000),
            (WALL_REDUCE_US.into(), 500_000),
            (BUSY_SPILL_BYTES.into(), 4096),
        ]);
        let p = JobProfile::from_metrics(&m);
        assert_eq!(p.wall_map_us, 1_500_000);
        assert_eq!(p.wall_reduce_us, 500_000);
        assert_eq!(p.busy_spill_bytes, 4096);
        assert_eq!(p.wall_setup_us, 0);
        assert_eq!(p.busy_merge_us, 0);
    }

    #[test]
    fn coverage_is_covered_over_wall() {
        let m = metrics_with(vec![
            (WALL_MAP_US.into(), 1_500_000),
            (WALL_REDUCE_US.into(), 480_000),
        ]);
        let p = JobProfile::from_metrics(&m);
        assert!((p.covered_secs() - 1.98).abs() < 1e-9);
        let cov = p.coverage(2.0);
        assert!((cov - 0.99).abs() < 1e-9, "{cov}");
        assert_eq!(p.coverage(0.0), 1.0);
    }

    #[test]
    fn json_mentions_every_phase() {
        let m = metrics_with(vec![
            (WALL_MAP_US.into(), 100),
            (BUSY_SHUFFLE_TRANSPORT_BYTES.into(), 7),
        ]);
        let p = JobProfile::from_metrics(&m);
        let json = p.to_json(1.0).to_string();
        for key in ["wall_us", "busy_us", "bytes", "covered_secs", "coverage"] {
            assert!(json.contains(key), "{json}");
        }
        assert!(json.contains("\"shuffle_transport\":7"), "{json}");
        assert!(!p.is_empty());
        assert!(JobProfile::default().is_empty());
    }

    #[test]
    fn secs_to_us_rounds_and_clamps() {
        assert_eq!(secs_to_us(-1.0), 0);
        assert_eq!(secs_to_us(0.0000015), 2);
        assert_eq!(secs_to_us(1.5), 1_500_000);
    }
}
