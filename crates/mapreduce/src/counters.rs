//! User-visible job counters, mirroring Hadoop's `Counter` facility.
//!
//! Counters are cheap to update from any task thread and are aggregated into
//! the final [`crate::JobMetrics`]. User code addresses them by name through
//! [`crate::TaskContext::counter`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A single named counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named counters shared by every task of a job.
#[derive(Clone, Default)]
pub struct Counters {
    inner: Arc<RwLock<BTreeMap<String, Counter>>>,
}

impl Counters {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch (creating if absent) the counter with the given name.
    pub fn get(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.read().get(name) {
            return c.clone();
        }
        let mut map = self.inner.write();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Add `secs` to the profile counter `name`, in whole microseconds (a
    /// negative span adds nothing).
    pub fn add_secs(&self, name: &str, secs: f64) {
        self.get(name).add(crate::profile::secs_to_us(secs));
    }

    /// Add the seconds since `start` to the profile counter `name`.
    pub fn add_since(&self, name: &str, start: std::time::Instant) {
        self.add_secs(name, start.elapsed().as_secs_f64());
    }

    /// Snapshot all counters as `(name, value)` pairs in name order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Value of a counter, or 0 if it was never touched.
    pub fn value(&self, name: &str) -> u64 {
        self.inner.read().get(name).map_or(0, Counter::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let counters = Counters::new();
        let a = counters.get("records");
        let b = counters.get("records");
        a.add(3);
        b.incr();
        assert_eq!(counters.value("records"), 4);
        assert_eq!(counters.value("missing"), 0);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let counters = Counters::new();
        counters.get("zeta").add(1);
        counters.get("alpha").add(2);
        let snap = counters.snapshot();
        assert_eq!(
            snap,
            vec![("alpha".to_string(), 2), ("zeta".to_string(), 1)]
        );
    }

    #[test]
    fn counters_are_thread_safe() {
        let counters = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = counters.get("n");
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(counters.value("n"), 4000);
    }
}
