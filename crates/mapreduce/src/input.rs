//! Input splits: the units of work handed to map tasks.
//!
//! Each split carries a `tag` (the originating file path — the paper's BRJ
//! mapper dispatches on it) and a `node_hint` (the DFS node holding the
//! block). A job whose mapper consumes `(K, V)` records can mix splits from
//! any number of files with compatible record types — that is how the
//! engine models Hadoop's `MultipleInputs`.

use crate::dfs::{self, Dfs};
use crate::error::Result;
use crate::kv::Value;

type ReadFn<K, V> = Box<dyn Fn(&Dfs) -> Result<Vec<(K, V)>> + Send + Sync>;
type DecodeFn<K, V> = fn(&dfs::BlockSplit, &[u8]) -> Result<Vec<(K, V)>>;

/// One map task's input.
pub struct SplitSource<K, V> {
    /// Originating file path (exposed as [`crate::TaskContext::input_path`]).
    pub tag: String,
    /// DFS node holding the data, when known.
    pub node_hint: Option<usize>,
    /// Input size in bytes, for the locality model's remote-read penalty
    /// (0 when unknown).
    pub size_hint: u64,
    reader: ReadFn<K, V>,
}

impl<K: Value, V: Value> SplitSource<K, V> {
    /// A split backed by in-memory records (tests, synthetic inputs).
    pub fn from_records(tag: impl Into<String>, records: Vec<(K, V)>) -> Self {
        SplitSource {
            tag: tag.into(),
            node_hint: None,
            size_hint: 0,
            reader: Box::new(move |_dfs| Ok(records.clone())),
        }
    }

    /// Materialize the split's records. Readable repeatedly, so failed task
    /// attempts can be retried.
    pub fn read(&self, dfs: &Dfs) -> Result<Vec<(K, V)>> {
        (self.reader)(dfs)
    }
}

/// One split per block of the file (or directory) at `path`, laid out from
/// the file headers; the map attempt that reads a split fetches and checks
/// that block, and `records` decodes it.
fn block_input<K: Value, V: Value>(
    dfs: &Dfs,
    path: &str,
    records: DecodeFn<K, V>,
) -> Result<Vec<SplitSource<K, V>>> {
    let split = |block: dfs::BlockSplit| SplitSource {
        tag: block.path.clone(),
        node_hint: Some(block.node),
        size_hint: block.len,
        reader: Box::new(move |dfs| records(&block, &dfs.read_block(&block)?)),
    };
    Ok(dfs.splits(path)?.into_iter().map(split).collect())
}

/// One split per block of a text file (or directory): records are
/// `(byte offset, line)` — Hadoop's `TextInputFormat`.
pub fn text_input(dfs: &Dfs, path: &str) -> Result<Vec<SplitSource<u64, String>>> {
    block_input(dfs, path, dfs::text_records)
}

/// One split per block of a sequence file (or directory).
pub fn seq_input<K: Value, V: Value>(dfs: &Dfs, path: &str) -> Result<Vec<SplitSource<K, V>>> {
    block_input(dfs, path, |_, data| dfs::seq_records(data))
}

/// Partition in-memory records into `n` splits round-robin — a convenience
/// for engine tests that do not involve the DFS.
pub fn mem_input<K: Value, V: Value>(
    tag: &str,
    records: Vec<(K, V)>,
    n: usize,
) -> Vec<SplitSource<K, V>> {
    assert!(n > 0);
    let mut buckets: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
    for (i, kv) in records.into_iter().enumerate() {
        buckets[i % n].push(kv);
    }
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(i, b)| SplitSource::from_records(format!("{tag}#{i}"), b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_input_round_robins() {
        let records: Vec<(u32, u32)> = (0..7).map(|i| (i, i * 10)).collect();
        let splits = mem_input("t", records, 3);
        assert_eq!(splits.len(), 3);
        let dfs = Dfs::new(1, 64);
        let lens: Vec<usize> = splits
            .into_iter()
            .map(|s| s.read(&dfs).unwrap().len())
            .collect();
        assert_eq!(lens, vec![3, 2, 2]);
    }

    #[test]
    fn text_input_splits_carry_tags_and_hints() {
        let dfs = Dfs::new(2, 16);
        dfs.write_text("/in", (0..10).map(|i| format!("row-{i}")))
            .unwrap();
        let splits = text_input(&dfs, "/in").unwrap();
        assert!(splits.len() > 1);
        for s in &splits {
            assert_eq!(s.tag, "/in");
            assert!(s.node_hint.is_some());
        }
        let total: usize = splits
            .into_iter()
            .map(|s| s.read(&dfs).unwrap().len())
            .sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn seq_input_roundtrip() {
        let dfs = Dfs::new(1, 32);
        let pairs: Vec<(u64, u64)> = (0..20).map(|i| (i, i * i)).collect();
        dfs.write_seq("/s", &pairs).unwrap();
        let splits = seq_input::<u64, u64>(&dfs, "/s").unwrap();
        let mut all = Vec::new();
        for s in splits {
            all.extend(s.read(&dfs).unwrap());
        }
        assert_eq!(all, pairs);
    }
}
