//! Per-task memory budgeting.
//!
//! The paper devotes Section 5 to the case where a reducer's working set does
//! not fit in its task heap, and Section 6.2 observes the OPRJ variant dying
//! with an `OutOfMemoryError` once the broadcast RID-pair list grows too
//! large. To reproduce those behaviours deterministically the engine gives
//! every task a [`MemoryGauge`]: user code *charges* the gauge for the data
//! it decides to hold, and the charge fails with
//! [`MrError::OutOfMemory`](crate::MrError::OutOfMemory) once the budget is
//! exceeded — independent of how much physical RAM the host has.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{MrError, Result};

/// Tracks bytes a task has chosen to hold against its budget.
///
/// Cloning shares the underlying accounting, so a gauge can be handed to
/// helper structures (indexes, buffers) owned by the same task.
#[derive(Clone)]
pub struct MemoryGauge {
    used: Arc<AtomicU64>,
    high_water: Arc<AtomicU64>,
    budget: u64,
    task: Arc<str>,
}

impl MemoryGauge {
    /// A gauge with the given byte budget. `task` labels OOM errors.
    pub fn new(task: impl Into<Arc<str>>, budget: u64) -> Self {
        MemoryGauge {
            used: Arc::new(AtomicU64::new(0)),
            high_water: Arc::new(AtomicU64::new(0)),
            budget,
            task: task.into(),
        }
    }

    /// An effectively unlimited gauge (used when no budget is configured).
    pub fn unlimited(task: impl Into<Arc<str>>) -> Self {
        Self::new(task, u64::MAX)
    }

    /// Account for `bytes` of newly-held data, failing if the budget would
    /// be exceeded. On failure nothing is charged.
    pub fn charge(&self, bytes: u64) -> Result<()> {
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        let now = prev + bytes;
        if now > self.budget {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(MrError::OutOfMemory {
                task: self.task.to_string(),
                requested: now,
                budget: self.budget,
                // Budget accounting is deterministic: the same attempt
                // would charge the same bytes, so retries cannot help.
                transient: false,
            });
        }
        self.high_water.fetch_max(now, Ordering::Relaxed);
        Ok(())
    }

    /// Release previously charged bytes.
    pub fn release(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "releasing more than charged");
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Largest number of bytes ever simultaneously charged.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// The configured budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Remaining headroom in bytes.
    pub fn available(&self) -> u64 {
        self.budget.saturating_sub(self.used())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_release_track_usage() {
        let g = MemoryGauge::new("t", 100);
        g.charge(60).unwrap();
        assert_eq!(g.used(), 60);
        assert_eq!(g.available(), 40);
        g.release(20);
        assert_eq!(g.used(), 40);
        assert_eq!(g.high_water(), 60);
    }

    #[test]
    fn over_budget_charge_fails_and_rolls_back() {
        let g = MemoryGauge::new("reduce-1", 100);
        g.charge(90).unwrap();
        let err = g.charge(20).unwrap_err();
        assert!(err.is_out_of_memory());
        match err {
            MrError::OutOfMemory {
                task,
                requested,
                budget,
                transient,
            } => {
                assert_eq!(task, "reduce-1");
                assert_eq!(requested, 110);
                assert_eq!(budget, 100);
                assert!(!transient, "gauge OOM is deterministic");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Rolled back: another small charge still fits.
        assert_eq!(g.used(), 90);
        g.charge(10).unwrap();
    }

    #[test]
    fn unlimited_gauge_never_fails() {
        let g = MemoryGauge::unlimited("t");
        g.charge(u64::MAX / 2).unwrap();
        g.charge(u64::MAX / 4).unwrap();
    }

    #[test]
    fn clones_share_accounting() {
        let g = MemoryGauge::new("t", 100);
        let g2 = g.clone();
        g2.charge(70).unwrap();
        assert_eq!(g.used(), 70);
        assert!(g.charge(40).is_err());
    }
}
