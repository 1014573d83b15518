//! Input splits: the units of work handed to map tasks.
//!
//! Each split carries a `tag` (the originating file path — the paper's BRJ
//! mapper dispatches on it) and a `node_hint` (the DFS node holding the
//! block). A job whose mapper consumes `(K, V)` records can mix splits from
//! any number of files with compatible record types — that is how the
//! engine models Hadoop's `MultipleInputs`.

use crate::dfs::{self, BlockSplit, Dfs};
use crate::error::Result;
use crate::kv::Value;

/// What a split hands each record to, in order; an error ends the visit.
type Visit<'a, K, V> = &'a mut dyn FnMut(&K, &V) -> Result<()>;
/// An opened split: visits its records once.
pub(crate) type OpenSplit<'s, K, V> = Box<dyn FnOnce(Visit<'_, K, V>) -> Result<()> + 's>;
type DecodeFn<K, V> = fn(&BlockSplit, &[u8], Visit<'_, K, V>) -> Result<()>;

enum Records<K, V> {
    /// In-memory records (tests, synthetic inputs).
    Mem(Vec<(K, V)>),
    /// One DFS block, and how to decode its bytes.
    Block(BlockSplit, DecodeFn<K, V>),
}

/// One map task's input.
pub struct SplitSource<K, V> {
    /// Originating file path (exposed as [`crate::TaskContext::input_path`]).
    pub tag: String,
    /// DFS node holding the data, when known.
    pub node_hint: Option<usize>,
    /// Input size in bytes, for the locality model's remote-read penalty
    /// (0 when unknown).
    pub size_hint: u64,
    records: Records<K, V>,
}

impl<K: Value, V: Value> SplitSource<K, V> {
    /// A split backed by in-memory records (tests, synthetic inputs).
    pub fn from_records(tag: impl Into<String>, records: Vec<(K, V)>) -> Self {
        SplitSource {
            tag: tag.into(),
            node_hint: None,
            size_hint: 0,
            records: Records::Mem(records),
        }
    }

    /// Fetch the split's data — a block split reads its block and checks
    /// it against its CRC here — ready to be visited. Openable repeatedly,
    /// so failed task attempts can be retried.
    pub(crate) fn open(&self, dfs: &Dfs) -> Result<OpenSplit<'_, K, V>> {
        Ok(match &self.records {
            Records::Mem(records) => {
                Box::new(|visit| records.iter().try_for_each(|(k, v)| visit(k, v)))
            }
            Records::Block(block, decode) => {
                let data = dfs.read_block(block)?;
                Box::new(move |visit| decode(block, &data, visit))
            }
        })
    }

    /// Collect the split's records (tests and tools; map attempts visit).
    pub fn read(&self, dfs: &Dfs) -> Result<Vec<(K, V)>> {
        let mut out = Vec::new();
        self.open(dfs)?(&mut |k, v| {
            out.push((k.clone(), v.clone()));
            Ok(())
        })?;
        Ok(out)
    }
}

/// One split per block of the file (or directory) at `path`, laid out from
/// the file headers; the map attempt that opens a split fetches and checks
/// that block, and `decode` visits its records.
fn block_input<K: Value, V: Value>(
    dfs: &Dfs,
    path: &str,
    decode: DecodeFn<K, V>,
) -> Result<Vec<SplitSource<K, V>>> {
    let split = |block: BlockSplit| SplitSource {
        tag: block.path.clone(),
        node_hint: Some(block.node),
        size_hint: block.len,
        records: Records::Block(block, decode),
    };
    Ok(dfs.splits(path)?.into_iter().map(split).collect())
}

/// One split per block of a text file (or directory): records are
/// `(byte offset, line)` — Hadoop's `TextInputFormat`.
pub fn text_input(dfs: &Dfs, path: &str) -> Result<Vec<SplitSource<u64, String>>> {
    block_input(dfs, path, |block, data, visit| {
        dfs::text_lines(&block.path, block.offset, data, |at, line| visit(&at, line))
    })
}

/// One split per block of a sequence file (or directory).
pub fn seq_input<K: Value, V: Value>(dfs: &Dfs, path: &str) -> Result<Vec<SplitSource<K, V>>> {
    block_input(dfs, path, |_, data, visit| {
        dfs::seq_records(data, |k, v| visit(&k, &v))
    })
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
        let dfs = Dfs::new(1, 64).unwrap();
        let lens: Vec<usize> = splits
            .into_iter()
            .map(|s| s.read(&dfs).unwrap().len())
            .collect();
        assert_eq!(lens, vec![3, 2, 2]);
    }

    #[test]
    fn text_input_splits_carry_tags_and_hints() {
        let dfs = Dfs::new(2, 16).unwrap();
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

    /// `\n` or `\r\n` ends a line for every text reader: the driver's
    /// `read_text` and the map side's splits read the same lines, and no
    /// `\r` reaches a mapper.
    #[test]
    fn read_text_and_text_splits_read_crlf_lines_alike() {
        let dfs = Dfs::new(2, 16).unwrap();
        let lines = ["7\tx\r", "", "8\ty\r", "\r", "9\tz"];
        dfs.write_text("/crlf", lines).unwrap();
        let split_lines: Vec<String> = text_input(&dfs, "/crlf")
            .unwrap()
            .iter()
            .flat_map(|s| s.read(&dfs).unwrap().into_iter().map(|(_, line)| line))
            .collect();
        assert_eq!(split_lines, ["7\tx", "", "8\ty", "", "9\tz"]);
        assert_eq!(dfs.read_text("/crlf").unwrap(), split_lines);
    }

    #[test]
    fn seq_input_roundtrip() {
        let dfs = Dfs::new(1, 32).unwrap();
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
