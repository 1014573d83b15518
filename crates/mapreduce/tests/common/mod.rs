//! Helpers shared by the engine's integration tests.

use mapreduce::{seq_input, Dfs, SplitSource, Value};

/// Deal `records` round-robin into `n` sequence files `{path}-{i}` and
/// return their splits, in file order: the input of a job whose test is not
/// about the records' text form. Empty files are not written.
pub fn seq_splits<K: Value, V: Value>(
    dfs: &Dfs,
    path: &str,
    records: Vec<(K, V)>,
    n: usize,
) -> Vec<SplitSource<K, V>> {
    let mut files: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
    for (i, kv) in records.into_iter().enumerate() {
        files[i % n].push(kv);
    }
    let mut splits = Vec::new();
    for (i, file) in files.iter().enumerate().filter(|(_, f)| !f.is_empty()) {
        let file_path = format!("{path}-{i}");
        dfs.write_seq(&file_path, file).unwrap();
        splits.extend(seq_input(dfs, &file_path).unwrap());
    }
    splits
}
