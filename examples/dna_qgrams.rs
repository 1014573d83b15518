//! DNA near-duplicate detection with q-grams — the paper's GeneBank
//! motivation ("the GeneBank dataset has 100 million records and 416 GB").
//!
//! Runs the full parallel pipeline on DNA sequences using the q-gram
//! tokenizer with Jaccard similarity and prints a few of the pairs found.
//!
//! ```bash
//! cargo run --release --example dna_qgrams
//! ```

use datagen::{dna_to_lines, generate_dna, DnaConfig};
use fuzzyjoin::{
    read_joined, self_join, Cluster, ClusterConfig, JoinConfig, RecordFormat, Threshold,
    TokenizerKind,
};

fn main() {
    let config = DnaConfig {
        records: 2_000,
        mean_length: 100,
        mutant_probability: 0.2,
        max_mutations: 3,
        seed: 2026,
    };
    let records = generate_dna(&config);
    println!(
        "generated {} DNA sequences (~{} bases each), ~{}% mutated copies",
        records.len(),
        config.mean_length,
        (config.mutant_probability * 100.0) as u32
    );

    let cluster = Cluster::new(ClusterConfig::with_nodes(8), 1 << 20).expect("cluster");
    cluster
        .dfs()
        .write_text("/dna", dna_to_lines(&records))
        .expect("write corpus");

    // q-gram tokens (q = 4) over the sequence; Jaccard >= 0.85 finds
    // sequences differing by a handful of mutations.
    let join_config = JoinConfig {
        format: RecordFormat::two_column(),
        tokenizer: TokenizerKind::QGram(4),
        ..JoinConfig::recommended()
    }
    .with_threshold(Threshold::jaccard(0.85));

    println!(
        "running {} with 4-gram tokens at Jaccard >= 0.85...",
        join_config.combo_name()
    );
    let outcome = self_join(&cluster, "/dna", "/work", &join_config).expect("join");
    let joined = read_joined(&cluster, &outcome.joined_path).expect("read output");
    println!(
        "found {} near-duplicate sequence pairs in {:.3}s simulated",
        joined.len(),
        outcome.sim_secs()
    );

    for ((a, b), (_, _, sim)) in joined.iter().take(3) {
        println!("  seq {a} ~ seq {b}: jaccard(4-grams) = {sim:.3}");
    }
    assert!(!joined.is_empty(), "expected mutated near-duplicates");
}
