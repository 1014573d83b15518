//! Key partitioning and grouping policies.
//!
//! The paper leans on three things about intermediate keys; a job customizes
//! two of them:
//!
//! * the **partitioner** (PK kernels partition composite `(group, length)`
//!   keys on the group component only),
//! * the **grouping comparator** (all lengths of one group form a single
//!   reduce call).
//!
//! The third, the sort on the full composite key that delivers record
//! projections in increasing length order, is the key type's own `Ord`: the
//! engine sorts by nothing else. [`natural_sort`] is that order as a value,
//! for callers of [`crate::run`] that take one.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::kv::Key;

/// Decides which reduce task receives a key: `(key, num_partitions) -> p`.
pub type PartitionFn<K> = Arc<dyn Fn(&K, u32) -> u32 + Send + Sync>;

/// Total order used to sort intermediate keys within each partition.
pub type SortCmp<K> = Arc<dyn Fn(&K, &K) -> Ordering + Send + Sync>;

/// Equivalence that delimits reduce groups; coarser than or equal to the
/// sort order's equality.
pub type GroupEq<K> = Arc<dyn Fn(&K, &K) -> bool + Send + Sync>;

/// Deterministic hash for partitioning. `DefaultHasher::new()` uses fixed
/// SipHash keys, so partition assignment is stable across runs and
/// processes — required for reproducible experiments.
pub fn stable_hash<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// The default hash partitioner (Hadoop's `HashPartitioner`).
pub fn hash_partitioner<K: Key>() -> PartitionFn<K> {
    Arc::new(|key, parts| (stable_hash(key) % u64::from(parts)) as u32)
}

/// Partition on a projection of the key: `partition_by(|(g, _len)| *g)`
/// implements the paper's "custom partitioning function so that the
/// partitioning is done only on the group value".
pub fn partition_by<K, P, F>(project: F) -> PartitionFn<K>
where
    K: Key,
    P: Hash,
    F: Fn(&K) -> P + Send + Sync + 'static,
{
    Arc::new(move |key, parts| (stable_hash(&project(key)) % u64::from(parts)) as u32)
}

/// Natural `Ord`-based sort comparator.
pub fn natural_sort<K: Key>() -> SortCmp<K> {
    Arc::new(K::cmp)
}

/// Natural full-key equality grouping.
pub fn natural_grouping<K: Key>() -> GroupEq<K> {
    Arc::new(|a, b| a == b)
}

/// A total-order range partitioner (Hadoop's `TotalOrderPartitioner`):
/// `boundaries` are `P − 1` sorted split points; keys below `boundaries[0]`
/// go to partition 0, keys in `[boundaries[i-1], boundaries[i])` to
/// partition `i`, and so on. Combined with per-partition sorting, reading
/// the output parts in index order yields a **totally ordered** result with
/// many reducers — removing the single-reducer sort bottleneck the paper
/// observes in stage 1.
pub fn range_partitioner<K: Key + Sync>(boundaries: Vec<K>) -> PartitionFn<K> {
    debug_assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "boundaries must be sorted"
    );
    Arc::new(move |key, parts| {
        let p = boundaries.partition_point(|b| b <= key) as u32;
        p.min(parts.saturating_sub(1))
    })
}

/// Evenly-spaced boundary sample for [`range_partitioner`]: picks `parts−1`
/// quantile elements from a **sorted** key sample.
pub fn sample_boundaries<K: Key>(sorted_sample: &[K], parts: usize) -> Vec<K> {
    assert!(parts >= 1);
    if parts == 1 || sorted_sample.is_empty() {
        return Vec::new();
    }
    debug_assert!(sorted_sample.windows(2).all(|w| w[0] <= w[1]));
    let mut out = Vec::with_capacity(parts - 1);
    for i in 1..parts {
        let idx = i * sorted_sample.len() / parts;
        out.push(sorted_sample[idx.min(sorted_sample.len() - 1)].clone());
    }
    out.dedup();
    out
}

/// Group on a projection of the key: records whose projections are equal
/// share one reduce call even though their full keys differ (secondary
/// sort).
pub fn group_by<K, P, F>(project: F) -> GroupEq<K>
where
    K: Key,
    P: PartialEq,
    F: Fn(&K) -> P + Send + Sync + 'static,
{
    Arc::new(move |a, b| project(a) == project(b))
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
        let p = hash_partitioner::<String>();
        for parts in [1u32, 2, 7, 40] {
            for s in ["a", "bb", "ccc"] {
                let v = p(&s.to_string(), parts);
                assert!(v < parts);
                assert_eq!(v, p(&s.to_string(), parts));
            }
        }
    }

    #[test]
    fn partition_by_ignores_rest_of_key() {
        let p = partition_by(|k: &(u32, u32)| k.0);
        for parts in [3u32, 16] {
            assert_eq!(p(&(7, 1), parts), p(&(7, 999), parts));
        }
    }

    #[test]
    fn group_by_projection() {
        let g = group_by(|k: &(u32, u32)| k.0);
        assert!(g(&(1, 5), &(1, 9)));
        assert!(!g(&(1, 5), &(2, 5)));
    }

    #[test]
    fn range_partitioner_respects_boundaries() {
        let p = range_partitioner(vec![10u32, 20, 30]);
        assert_eq!(p(&5, 4), 0);
        assert_eq!(p(&10, 4), 1);
        assert_eq!(p(&19, 4), 1);
        assert_eq!(p(&20, 4), 2);
        assert_eq!(p(&35, 4), 3);
        // Clamp when the job runs with fewer partitions than boundaries+1.
        assert_eq!(p(&35, 2), 1);
    }

    #[test]
    fn range_partitioner_preserves_global_order() {
        let sample: Vec<u32> = (0..100).map(|i| i * 3).collect();
        let bounds = sample_boundaries(&sample, 5);
        let p = range_partitioner(bounds);
        let parts: Vec<u32> = (0..300u32).map(|k| p(&k, 5)).collect();
        assert!(
            parts.windows(2).all(|w| w[0] <= w[1]),
            "monotone partitions"
        );
        assert_eq!(parts[0], 0);
        assert_eq!(parts[299], 4);
    }

    #[test]
    fn sample_boundaries_quantiles() {
        let sample: Vec<u32> = (0..100).collect();
        let b = sample_boundaries(&sample, 4);
        assert_eq!(b, vec![25, 50, 75]);
        assert!(sample_boundaries(&sample, 1).is_empty());
        assert!(sample_boundaries(&Vec::<u32>::new(), 4).is_empty());
        // Tiny samples dedup.
        let b = sample_boundaries(&[7u32, 7, 7], 4);
        assert_eq!(b, vec![7]);
    }

    #[test]
    fn natural_policies() {
        let s = natural_sort::<u32>();
        assert_eq!(s(&1, &2), Ordering::Less);
        let g = natural_grouping::<u32>();
        assert!(g(&3, &3));
        assert!(!g(&3, &4));
    }
}
