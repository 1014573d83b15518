//! The space-saving sketch of Metwally, Agrawal & El Abbadi over keys of
//! type `K`: the engine's heavy-hitter report over reduce-key labels, and
//! the skew pre-pass's load estimate over routing groups. Every tracked
//! key's `count` is ≥ its true frequency and `count − error` ≤ it, so
//! [`SpaceSaving::heavy`] cuts on a guaranteed lower bound and never names
//! a cold key hot; any key more frequent than `total / capacity` is tracked.
//!
//! With at most `capacity` distinct keys every estimate is exact. Beyond
//! that, a new key takes the minimum count's place, ties broken by the
//! **greatest** key — the order [`SpaceSaving::top`] and
//! [`SpaceSaving::heavy`] report ties in — so which key goes never depends
//! on where equal counts sit, on any backend or retry pattern.

use std::collections::BTreeMap;

use crate::codec::{ByteReader, Codec};
use crate::codec_struct;
use crate::error::{MrError, Result};

/// A tracked key's estimate: an upper-bound `count` and the inherited
/// `error`, with `count - error` an exact lower bound on the true
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Upper bound on the key's true frequency.
    pub count: u64,
    /// Count inherited from the evicted minimum at takeover; 0 while the
    /// sketch has spare capacity (estimates are then exact).
    pub error: u64,
}
codec_struct!(Estimate { count, error });

impl Estimate {
    /// Exact lower bound on the key's true frequency.
    pub fn at_least(&self) -> u64 {
        self.count.saturating_sub(self.error)
    }
}

/// A space-saving sketch tracking up to `capacity` keys.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K> {
    capacity: usize,
    /// The whole state: tracked keys in insertion order, a newcomer in its victim's place.
    items: Vec<(K, Estimate)>,
    /// Where each tracked key sits in `items`.
    index: BTreeMap<K, usize>,
}

impl<K: Ord + Clone> SpaceSaving<K> {
    /// A sketch tracking up to `capacity` keys (min 1).
    pub fn new(capacity: usize) -> Self {
        SpaceSaving {
            capacity: capacity.max(1),
            items: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Sketch capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight added so far (the stream length for unit adds): every
    /// eviction hands its count on, so it is the sum of the counts.
    pub fn total(&self) -> u64 {
        self.items.iter().map(|(_, e)| e.count).sum()
    }

    /// Add `n` occurrences of `key`.
    pub fn add(&mut self, key: K, n: u64) {
        self.absorb(key, Estimate { count: n, error: 0 });
    }

    /// Add `seen`, another sketch's estimate for `key`: its count and its
    /// uncertainty both carry over.
    fn absorb(&mut self, key: K, seen: Estimate) {
        if let Some(&i) = self.index.get(&key) {
            let e = &mut self.items[i].1;
            e.count += seen.count;
            e.error += seen.error;
            return;
        }
        if self.items.len() < self.capacity {
            self.index.insert(key.clone(), self.items.len());
            self.items.push((key, seen));
            return;
        }
        let (i, (victim, floor)) = self
            .items
            .iter()
            .enumerate()
            .min_by(|(_, (ka, ea)), (_, (kb, eb))| ea.count.cmp(&eb.count).then(kb.cmp(ka)))
            .map(|(i, (k, e))| (i, (k, e.count)))
            .expect("non-empty at capacity");
        self.index.remove(victim);
        self.index.insert(key.clone(), i);
        let count = floor + seen.count;
        let error = floor + seen.error;
        self.items[i] = (key, Estimate { count, error });
    }

    /// Merge another sketch into this one, its keys in its insertion order.
    pub fn merge(&mut self, other: &Self) {
        for (key, e) in &other.items {
            self.absorb(key.clone(), *e);
        }
    }

    /// The tracked estimate for `key`, if present.
    pub fn estimate(&self, key: &K) -> Option<Estimate> {
        self.index.get(key).map(|&i| self.items[i].1)
    }

    /// Every tracked `(key, estimate)` in insertion order (never more than
    /// the capacity).
    pub fn entries(&self) -> &[(K, Estimate)] {
        &self.items
    }

    /// The top `k` keys by count, descending, ties by ascending key.
    pub fn top(&self, k: usize) -> Vec<(K, u64)> {
        self.ranked(|e| e.count, k, 0)
    }

    /// Keys whose **guaranteed** frequency (`count − error`) is at least
    /// `threshold`, with that lower bound, ordered by descending bound and
    /// then ascending key. The exact tail cutoff: no false positives.
    pub fn heavy(&self, threshold: u64) -> Vec<(K, u64)> {
        self.ranked(Estimate::at_least, usize::MAX, threshold.max(1))
    }

    fn ranked(&self, by: impl Fn(&Estimate) -> u64, k: usize, min: u64) -> Vec<(K, u64)> {
        let mut out: Vec<(K, u64)> = self
            .items
            .iter()
            .map(|(key, e)| (key.clone(), by(e)))
            .filter(|&(_, n)| n >= min)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }
}

/// A sketch crosses the process backend's pipes as itself: capacity plus
/// the entries in insertion order, which is its whole state.
impl<K: Codec + Ord + Clone> Codec for SpaceSaving<K> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.capacity.encode(buf);
        self.items.encode(buf);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let mut sketch = SpaceSaving::new(usize::decode(r)?);
        let items = Vec::<(K, Estimate)>::decode(r)?;
        let bad = |why: String| Err(MrError::Codec(format!("space-saving sketch {why}")));
        if items.len() > sketch.capacity {
            let (n, capacity) = (items.len(), sketch.capacity);
            return bad(format!("holds {n} entries over its capacity {capacity}"));
        }
        for (i, (key, e)) in items.iter().enumerate() {
            if e.error > e.count || sketch.index.insert(key.clone(), i).is_some() {
                return bad(format!("entry {i} is not one `add` could have built"));
            }
        }
        sketch.items = items;
        Ok(sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The tracked keys, in key order.
    fn keys(s: &SpaceSaving<u32>) -> Vec<u32> {
        let mut keys: Vec<u32> = s.entries().iter().map(|(k, _)| *k).collect();
        keys.sort();
        keys
    }

    #[test]
    fn exact_within_capacity() {
        let mut s = SpaceSaving::new(8);
        for (k, n) in [(1u32, 5u64), (2, 3), (1, 2), (3, 1)] {
            s.add(k, n);
        }
        assert_eq!(s.total(), 11);
        let e = s.estimate(&1).unwrap();
        assert_eq!((e.count, e.error), (7, 0));
        assert_eq!(s.estimate(&9), None);
        assert_eq!(s.heavy(3), vec![(1, 7), (2, 3)]);
    }

    #[test]
    fn bounds_hold_under_eviction() {
        let mut s = SpaceSaving::new(4);
        let mut exact: HashMap<u32, u64> = HashMap::new();
        // A skewed stream wider than capacity.
        for i in 0..600u32 {
            let k = if i % 3 == 0 { i % 5 } else { i % 40 };
            s.add(k, 1);
            *exact.entry(k).or_insert(0) += 1;
        }
        assert_eq!(s.total(), 600);
        for (k, e) in s.entries() {
            let truth = exact.get(k).copied().unwrap_or(0);
            assert!(e.count >= truth, "upper bound violated for {k}");
            assert!(e.at_least() <= truth, "lower bound violated for {k}");
        }
        // heavy() never names a key beyond its true frequency.
        for (k, lb) in s.heavy(10) {
            assert!(exact[&k] >= lb);
        }
    }

    #[test]
    fn eviction_ties_break_deterministically() {
        // Fill to capacity with tied counts in two different orders; the
        // same subsequent add must evict the same key both times.
        let mut a = SpaceSaving::new(3);
        for k in [10u32, 20, 30] {
            a.add(k, 1);
        }
        let mut b = SpaceSaving::new(3);
        for k in [30u32, 10, 20] {
            b.add(k, 1);
        }
        a.add(99, 1);
        b.add(99, 1);
        assert_eq!(keys(&a), keys(&b));
        // Greatest key among minima (30) is the victim; smaller keys live.
        assert_eq!(keys(&a), vec![10, 20, 99]);
    }
}
