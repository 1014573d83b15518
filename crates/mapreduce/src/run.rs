//! Spill runs and the reduce-side merge.
//!
//! A *run* is a sorted sequence of encoded `(key, value)` pairs — what a map
//! task spills for one partition. The reduce side performs a k-way merge of
//! all runs for its partition and walks the merged stream group by group,
//! exactly like Hadoop's sort/merge phase. Keys are decoded and compared by
//! their own `Ord`, which charges the same comparator cost a real shuffle
//! pays.

use std::sync::Arc;

use crate::codec::{ByteReader, Codec};
use crate::error::{MrError, Result};
use crate::kv::{Key, Value};
use crate::partitioner::Grouping;

// The comparator form of this module's functions, at its old path.
#[doc(hidden)]
pub use crate::compat::run::*;

/// A sorted, encoded sequence of `(key, value)` pairs.
#[derive(Debug, Clone)]
pub struct Run {
    /// Encoded pairs, back to back.
    pub data: Arc<[u8]>,
    /// Number of pairs in the run.
    pub records: usize,
}

impl Run {
    /// Encode a slice of pairs (assumed already sorted) into a run.
    pub fn encode<K: Codec, V: Codec>(pairs: &[(K, V)]) -> Run {
        let mut buf = Vec::with_capacity(pairs.len() * 16);
        for (k, v) in pairs {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        Run {
            data: Arc::from(buf),
            records: pairs.len(),
        }
    }

    /// Encoded size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }
}

struct RunCursor<K, V> {
    data: Arc<[u8]>,
    pos: usize,
    remaining: usize,
    head: Option<(K, V)>,
}

impl<K: Value, V: Value> RunCursor<K, V> {
    fn new(run: Run) -> Result<Self> {
        let mut c = RunCursor {
            data: run.data,
            pos: 0,
            remaining: run.records,
            head: None,
        };
        c.advance()?;
        Ok(c)
    }

    /// Decode the next pair into `head` (or leave `None` at end).
    fn advance(&mut self) -> Result<()> {
        self.head = None;
        if self.remaining > 0 {
            let mut r = ByteReader::new(&self.data[self.pos..]);
            self.head = Some((K::decode(&mut r)?, V::decode(&mut r)?));
            self.pos += r.position();
            self.remaining -= 1;
        }
        Ok(())
    }
}

/// The first cursor holding the smallest head key.
fn min_index<K: Ord, V>(cursors: &[RunCursor<K, V>]) -> Option<usize> {
    let heads = cursors.iter().enumerate();
    let heads = heads.filter_map(|(i, c)| Some((i, &c.head.as_ref()?.0)));
    heads.min_by(|a, b| a.1.cmp(b.1)).map(|(i, _)| i)
}

/// K-way merge over sorted runs, with one-pair lookahead for grouping.
pub struct MergeStream<K: Value, V: Value> {
    cursors: Vec<RunCursor<K, V>>,
    /// The cursor holding the smallest key (the lowest such cursor among
    /// equal keys); `None` once every run is consumed.
    min: Option<usize>,
    /// Pairs handed out so far.
    records_read: u64,
}

impl<K: Key, V: Value> MergeStream<K, V> {
    /// Open a merge over the given runs, each sorted by the key's `Ord`.
    pub fn open(runs: Vec<Run>) -> Result<Self> {
        let cursors: Result<Vec<_>> = runs.into_iter().map(RunCursor::new).collect();
        let cursors = cursors?;
        Ok(MergeStream {
            min: min_index(&cursors),
            cursors,
            records_read: 0,
        })
    }

    /// The smallest key not yet consumed.
    pub fn peek_key(&self) -> Option<&K> {
        self.min
            .map(|i| &self.cursors[i].head.as_ref().expect("head").0)
    }

    /// Pop the smallest pair; the one scan of the cursors finds the next.
    pub fn next_pair(&mut self) -> Result<Option<(K, V)>> {
        let Some(i) = self.min else {
            return Ok(None);
        };
        let pair = self.cursors[i].head.take().expect("head");
        let advanced = self.cursors[i].advance();
        self.min = min_index(&self.cursors);
        advanced?;
        self.records_read += 1;
        Ok(Some(pair))
    }

    /// Pairs consumed so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }
}

/// Streaming iterator over one reduce group. Yields `(key, value)` pairs
/// while the stream's next key is in the group key's group; never reads
/// past the group boundary.
pub struct GroupValues<'s, K: Value, V: Value> {
    stream: &'s mut MergeStream<K, V>,
    group_key: K,
    grouping: &'s Grouping<K>,
    error: Option<MrError>,
    done: bool,
}

impl<'s, K: Key, V: Value> GroupValues<'s, K, V> {
    /// Open the group starting at the stream's current position.
    pub(crate) fn new(
        stream: &'s mut MergeStream<K, V>,
        group_key: K,
        grouping: &'s Grouping<K>,
    ) -> Self {
        GroupValues {
            stream,
            group_key,
            grouping,
            error: None,
            done: false,
        }
    }

    /// Consume any records the reducer left unread, so the engine can move
    /// to the next group. Returns a decode error if one occurred.
    pub fn drain(mut self) -> Result<u64> {
        let skipped = self.by_ref().count() as u64;
        self.error.take().map_or(Ok(skipped), Err)
    }
}

impl<K: Key, V: Value> Iterator for GroupValues<'_, K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        let next_key = self.stream.peek_key().filter(|_| !self.done);
        if !next_key.is_some_and(|k| self.grouping.same_group(&self.group_key, k)) {
            self.done = true;
            return None;
        }
        self.stream.next_pair().unwrap_or_else(|e| {
            self.error = Some(e);
            self.done = true;
            None
        })
    }
}

/// Sort a buffer of pairs by key (stable, so equal keys keep emission
/// order) and apply the combiner to each equal-key group.
pub fn sort_combine<K: Key, V: Value>(
    mut pairs: Vec<(K, V)>,
    combiner: Option<&crate::reducer::CombineFn<K, V>>,
    combine_in: &mut u64,
    combine_out: &mut u64,
) -> Vec<(K, V)> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let Some(combine) = combiner else {
        return pairs;
    };
    let mut out = Vec::with_capacity(pairs.len());
    let mut iter = pairs.into_iter().peekable();
    while let Some((key, first)) = iter.next() {
        let mut group = vec![first];
        while let Some((_, v)) = iter.next_if(|(k, _)| key.cmp(k).is_eq()) {
            group.push(v);
        }
        *combine_in += group.len() as u64;
        let combined = combine(&key, group);
        *combine_out += combined.len() as u64;
        out.extend(combined.into_iter().map(|v| (key.clone(), v)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::sum_combiner;

    fn run_of(pairs: Vec<(u32, String)>) -> Run {
        Run::encode(&pairs)
    }

    #[test]
    fn run_encode_counts() {
        let r = run_of(vec![(1, "a".into()), (2, "b".into())]);
        assert_eq!(r.records, 2);
        assert!(r.len_bytes() > 0);
    }

    #[test]
    fn merge_interleaves_sorted_runs() {
        let r1 = run_of(vec![(1, "a".into()), (4, "d".into()), (6, "f".into())]);
        let r2 = run_of(vec![(2, "b".into()), (3, "c".into()), (5, "e".into())]);
        let mut m: MergeStream<u32, String> = MergeStream::open(vec![r1, r2]).unwrap();
        let mut keys = Vec::new();
        while let Some((k, _)) = m.next_pair().unwrap() {
            keys.push(k);
        }
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.records_read(), 6);
    }

    #[test]
    fn merge_handles_duplicates_and_empty_runs() {
        let r1 = run_of(vec![(1, "a".into()), (1, "b".into())]);
        let r2 = run_of(vec![]);
        let r3 = run_of(vec![(1, "c".into()), (2, "d".into())]);
        let mut m: MergeStream<u32, String> = MergeStream::open(vec![r1, r2, r3]).unwrap();
        let mut pairs = Vec::new();
        while let Some(p) = m.next_pair().unwrap() {
            pairs.push(p);
        }
        assert_eq!(pairs.len(), 4);
        assert!(pairs[..3].iter().all(|(k, _)| *k == 1));
        assert_eq!(pairs[3].0, 2);
    }

    #[test]
    fn group_values_stops_at_boundary() {
        let r = run_of(vec![(1, "a".into()), (1, "b".into()), (2, "c".into())]);
        let mut m: MergeStream<u32, String> = MergeStream::open(vec![r]).unwrap();
        let first = m.peek_key().cloned().unwrap();
        let grouping = Grouping::whole_key();
        let g = GroupValues::new(&mut m, first, &grouping);
        let vals: Vec<String> = g.map(|(_, v)| v).collect();
        assert_eq!(vals, vec!["a", "b"]);
        // Stream still holds the next group.
        assert_eq!(m.peek_key(), Some(&2));
    }

    #[test]
    fn group_values_drain_skips_unread() {
        let r = run_of(vec![(1, "a".into()), (1, "b".into()), (2, "c".into())]);
        let mut m: MergeStream<u32, String> = MergeStream::open(vec![r]).unwrap();
        let first = m.peek_key().cloned().unwrap();
        let grouping = Grouping::whole_key();
        let g = GroupValues::new(&mut m, first, &grouping);
        // Reducer reads nothing; drain skips both records of group 1.
        assert_eq!(g.drain().unwrap(), 2);
        assert_eq!(m.peek_key(), Some(&2));
    }

    #[test]
    fn secondary_sort_grouping() {
        // Composite keys (group, length): sort on both, group on the first.
        let pairs: Vec<((u32, u32), String)> = vec![
            ((1, 3), "len3".into()),
            ((1, 5), "len5".into()),
            ((2, 1), "other".into()),
        ];
        let r = Run::encode(&pairs);
        let mut m: MergeStream<(u32, u32), String> = MergeStream::open(vec![r]).unwrap();
        let first = m.peek_key().cloned().unwrap();
        let grouping = Grouping::on(|k: &(u32, u32)| k.0);
        let g = GroupValues::new(&mut m, first, &grouping);
        let lens: Vec<u32> = g.map(|(k, _)| k.1).collect();
        assert_eq!(lens, vec![3, 5], "values stream in length order");
        assert_eq!(m.peek_key(), Some(&(2, 1)));
    }

    #[test]
    fn sort_combine_applies_combiner_per_group() {
        let pairs = vec![
            ("b".to_string(), 1u64),
            ("a".to_string(), 2),
            ("b".to_string(), 3),
        ];
        let mut cin = 0;
        let mut cout = 0;
        let out = sort_combine(pairs, Some(&sum_combiner::<String>()), &mut cin, &mut cout);
        assert_eq!(out, vec![("a".to_string(), 2), ("b".to_string(), 4)]);
        assert_eq!(cin, 3);
        assert_eq!(cout, 2);
    }

    #[test]
    fn sort_without_combiner_keeps_all_records() {
        let pairs = vec![(2u32, 1u64), (1, 2), (2, 3)];
        let mut cin = 0;
        let mut cout = 0;
        let out = sort_combine(pairs, None, &mut cin, &mut cout);
        assert_eq!(out, vec![(1, 2), (2, 1), (2, 3)]);
        assert_eq!(cin, 0);
    }
}

/// Merge several sorted runs into a single run (one Hadoop merge pass):
/// streams the k-way merge and re-encodes, preserving order and duplicates.
pub fn merge_into_one<K: Key, V: Value>(runs: Vec<Run>) -> Result<Run> {
    let records: usize = runs.iter().map(|r| r.records).sum();
    let bytes: usize = runs.iter().map(Run::len_bytes).sum();
    let mut stream: MergeStream<K, V> = MergeStream::open(runs)?;
    let mut buf = Vec::with_capacity(bytes);
    while let Some((k, v)) = stream.next_pair()? {
        k.encode(&mut buf);
        v.encode(&mut buf);
    }
    Ok(Run {
        data: Arc::from(buf),
        records,
    })
}

/// Spill runs a reduce task merges in one pass (Hadoop's `io.sort.factor`);
/// a partition with more runs gets intermediate passes first.
pub const MERGE_FACTOR: usize = 64;

/// Reduce the number of runs to at most `factor` using multi-pass merging —
/// Hadoop's `io.sort.factor` behaviour: while too many runs exist, the
/// smallest `factor` runs are merged into one. Returns the final runs and
/// the number of intermediate merge passes performed.
pub fn merge_to_factor<K: Key, V: Value>(
    mut runs: Vec<Run>,
    factor: usize,
) -> Result<(Vec<Run>, u64)> {
    let factor = factor.max(2);
    let mut passes = 0u64;
    while runs.len() > factor {
        // Merge the smallest runs first (minimizes total merge I/O).
        runs.sort_by_key(|r| std::cmp::Reverse(r.len_bytes()));
        let take = factor.min(runs.len() - factor + 1);
        let batch: Vec<Run> = (0..take).map(|_| runs.pop().expect("non-empty")).collect();
        runs.push(merge_into_one::<K, V>(batch)?);
        passes += 1;
    }
    Ok((runs, passes))
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    fn sorted_run(start: u32, step: u32, n: u32) -> Run {
        let pairs: Vec<(u32, u32)> = (0..n).map(|i| (start + i * step, i)).collect();
        Run::encode(&pairs)
    }

    fn drain(runs: Vec<Run>) -> Vec<u32> {
        let mut m: MergeStream<u32, u32> = MergeStream::open(runs).unwrap();
        let mut keys = Vec::new();
        while let Some((k, _)) = m.next_pair().unwrap() {
            keys.push(k);
        }
        keys
    }

    #[test]
    fn merge_into_one_preserves_order_and_count() {
        let runs = vec![
            sorted_run(0, 3, 10),
            sorted_run(1, 3, 10),
            sorted_run(2, 3, 10),
        ];
        let merged = merge_into_one::<u32, u32>(runs).unwrap();
        assert_eq!(merged.records, 30);
        let keys = drain(vec![merged]);
        assert_eq!(keys, (0..30).collect::<Vec<u32>>());
    }

    #[test]
    fn merge_to_factor_bounds_run_count() {
        let runs: Vec<Run> = (0..20).map(|i| sorted_run(i, 20, 15)).collect();
        let expected = drain(runs.clone());
        let (merged, passes) = merge_to_factor::<u32, u32>(runs, 4).unwrap();
        assert!(merged.len() <= 4, "got {} runs", merged.len());
        assert!(passes > 0);
        assert_eq!(drain(merged), expected, "multi-pass merge must not reorder");
    }

    #[test]
    fn merge_to_factor_noop_when_few_runs() {
        let runs = vec![sorted_run(0, 1, 5), sorted_run(100, 1, 5)];
        let (merged, passes) = merge_to_factor::<u32, u32>(runs, 8).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(passes, 0);
    }

    #[test]
    fn merge_to_factor_handles_empty() {
        let (merged, passes) = merge_to_factor::<u32, u32>(Vec::new(), 4).unwrap();
        assert!(merged.is_empty());
        assert_eq!(passes, 0);
    }
}
