//! Quickstart: end-to-end parallel set-similarity self-join on a tiny
//! inline dataset.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use fuzzyjoin::{read_joined, self_join, Cluster, ClusterConfig, JoinConfig, Threshold};

fn main() {
    // A 4-node simulated cluster with a 64 KiB DFS block size.
    let cluster = Cluster::new(ClusterConfig::with_nodes(4), 64 << 10).expect("cluster");

    // Records: RID \t title \t authors \t misc. The join attribute is the
    // concatenation of title and authors, as in the paper's experiments.
    let records = [
        "1\tefficient parallel set similarity joins using mapreduce\tvernica carey li\tsigmod 2010",
        "2\tefficient parallel set similarity joins with mapreduce\tvernica carey li\tpreprint",
        "3\ta comparison of approaches to large scale data analysis\tpavlo paulson rasin\tsigmod 2009",
        "4\tcomparison of approaches to large scale data analysis\tpavlo paulson rasin abadi\tsigmod 2009",
        "5\tsimilarity search in high dimensions via hashing\tgionis indyk motwani\tvldb 1999",
    ];
    cluster
        .dfs()
        .write_text("/data/records", records)
        .expect("write input");

    // The paper's recommended robust configuration (BTO-PK-BRJ) at a lower
    // threshold so the demo pairs qualify.
    let config = JoinConfig::recommended().with_threshold(Threshold::jaccard(0.7));
    println!(
        "running {} self-join on {} records...\n",
        config.combo_name(),
        records.len()
    );

    let outcome = self_join(&cluster, "/data/records", "/tmp/join", &config).expect("join");

    let (s1, s2, s3) = outcome.stage_sim_secs();
    println!("stage 1 (token ordering):  {s1:.4}s simulated");
    println!("stage 2 (RID-pair kernel): {s2:.4}s simulated");
    println!("stage 3 (record join):     {s3:.4}s simulated");
    println!("shuffled {} bytes total\n", outcome.shuffle_bytes());

    let joined = read_joined(&cluster, &outcome.joined_path).expect("read output");
    println!("{} similar pairs found:", joined.len());
    for ((a, b), (line_a, line_b, sim)) in &joined {
        let title = |l: &str| l.split('\t').nth(1).unwrap_or("?").to_string();
        println!("  ({a}, {b})  sim={sim:.3}");
        println!("      {}", title(line_a));
        println!("      {}", title(line_b));
    }
    assert!(
        !joined.is_empty(),
        "expected similar pairs in the demo data"
    );
}
