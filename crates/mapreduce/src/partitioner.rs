//! Key partitioning, grouping and sort policies.
//!
//! The paper leans on three things about intermediate keys:
//!
//! * the **partition** a key goes to, and
//! * the **reduce group** it joins: both are the whole key by default, or
//!   one projection of it ([`crate::Job::group_on`]): the PK kernel's
//!   "custom partitioning function … on the group value", which also
//!   groups on that value, so all of one group's keys meet in one reduce
//!   call on one reducer;
//! * the **sort** on the full key, which delivers a group's values in key
//!   order (secondary sort). It is the key type's own `Ord`: the engine
//!   sorts by nothing else.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::kv::Key;

/// Deterministic hash for partitioning. `DefaultHasher::new()` uses fixed
/// SipHash keys, so partition assignment is stable across runs and
/// processes — required for reproducible experiments.
pub fn stable_hash<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

type RouteFn<K> = Arc<dyn Fn(&K, u32) -> u32 + Send + Sync>;
type SameGroupFn<K> = Arc<dyn Fn(&K, &K) -> bool + Send + Sync>;

/// How a job splits its intermediate keys over reducers and into reduce
/// calls, both derived from one projection of the key, so a reduce group
/// never spans two reducers.
pub(crate) struct Grouping<K> {
    partition: RouteFn<K>,
    same_group: SameGroupFn<K>,
}

impl<K: Key> Grouping<K> {
    /// Hadoop's defaults: `HashPartitioner` on the whole key, one reduce call
    /// per distinct key.
    pub(crate) fn whole_key() -> Self {
        Grouping {
            partition: Arc::new(|key, parts| (stable_hash(key) % u64::from(parts)) as u32),
            same_group: Arc::new(|a, b| a == b),
        }
    }

    /// Partition on `stable_hash(&project(key))` and group keys whose
    /// projections are equal.
    pub(crate) fn on<P, F>(project: F) -> Self
    where
        P: Hash + PartialEq,
        F: Fn(&K) -> P + Send + Sync + 'static,
    {
        let project = Arc::new(project);
        let by = Arc::clone(&project);
        Grouping {
            partition: Arc::new(move |key, parts| {
                (stable_hash(&project(key)) % u64::from(parts)) as u32
            }),
            same_group: Arc::new(move |a, b| by(a) == by(b)),
        }
    }

    /// The reduce task, of `parts`, that receives `key`.
    pub(crate) fn partition(&self, key: &K, parts: u32) -> u32 {
        (self.partition)(key, parts)
    }

    /// Whether `a` and `b` share one reduce call.
    pub(crate) fn same_group(&self, a: &K, b: &K) -> bool {
        (self.same_group)(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_deterministic() {
        assert_eq!(stable_hash(&42u64), stable_hash(&42u64));
        assert_ne!(stable_hash(&1u64), stable_hash(&2u64));
    }

    #[test]
    fn hash_partitioner_is_in_range_and_stable() {
        let g = Grouping::<String>::whole_key();
        for parts in [1u32, 2, 7, 40] {
            for s in ["a", "bb", "ccc"] {
                let v = g.partition(&s.to_string(), parts);
                assert!(v < parts);
                assert_eq!(v, g.partition(&s.to_string(), parts));
                assert_eq!(u64::from(v), stable_hash(&s.to_string()) % u64::from(parts));
            }
        }
    }

    #[test]
    fn partition_by_ignores_rest_of_key() {
        let g = Grouping::on(|k: &(u32, u32)| k.0);
        for parts in [3u32, 16] {
            assert_eq!(g.partition(&(7, 1), parts), g.partition(&(7, 999), parts));
        }
    }

    #[test]
    fn group_by_projection() {
        let g = Grouping::on(|k: &(u32, u32)| k.0);
        assert!(g.same_group(&(1, 5), &(1, 9)));
        assert!(!g.same_group(&(1, 5), &(2, 5)));
    }

    #[test]
    fn natural_policies() {
        let g = Grouping::<u32>::whole_key();
        assert!(g.same_group(&3, &3));
        assert!(!g.same_group(&3, &4));
    }
}
