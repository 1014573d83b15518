//! Input splits: the units of work handed to map tasks, one DFS block each
//! (Hadoop's `InputSplit`).
//!
//! Each split carries its block, whose file path is the split's tag (the
//! paper's BRJ mapper dispatches on it) and whose node is where its map task
//! starts. A job whose mapper consumes `(K, V)` records can mix splits from
//! any number of files with compatible record types — that is how the
//! engine models Hadoop's `MultipleInputs`.

use crate::dfs::{self, BlockSplit, Dfs};
use crate::error::Result;
use crate::kv::Value;

/// What a split hands each record to, in order; an error ends the visit.
type Visit<'a, K, V> = &'a mut dyn FnMut(&K, &V) -> Result<()>;
type DecodeFn<K, V> = fn(&BlockSplit, &[u8], Visit<'_, K, V>) -> Result<()>;

/// One map task's input: a DFS block, and how to decode its bytes.
pub struct SplitSource<K, V> {
    block: BlockSplit,
    decode: DecodeFn<K, V>,
}

impl<K: Value, V: Value> SplitSource<K, V> {
    /// Originating file path (exposed as [`crate::TaskContext::input_path`]).
    pub(crate) fn tag(&self) -> &str {
        &self.block.path
    }

    /// DFS node holding the block: where the split's map task starts.
    pub(crate) fn node(&self) -> usize {
        self.block.node
    }

    /// The block's size in bytes.
    pub(crate) fn size(&self) -> u64 {
        self.block.len
    }

    /// Fetch the split's block and check it against its CRC, ready to be
    /// visited. Openable repeatedly, so failed task attempts can be retried.
    pub(crate) fn open(
        &self,
        dfs: &Dfs,
    ) -> Result<impl FnOnce(Visit<'_, K, V>) -> Result<()> + '_> {
        let data = dfs.read_block(&self.block)?;
        Ok(move |visit: Visit<'_, K, V>| (self.decode)(&self.block, &data, visit))
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
    let split = |block| SplitSource { block, decode };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_input_splits_carry_tags_and_hints() {
        let dfs = Dfs::new(2, 16).unwrap();
        dfs.write_text("/in", (0..10).map(|i| format!("row-{i}")))
            .unwrap();
        let splits = text_input(&dfs, "/in").unwrap();
        assert!(splits.len() > 1);
        for s in &splits {
            assert_eq!(s.tag(), "/in");
            assert!(s.node() < 2);
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
