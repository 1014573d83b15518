//! R-S join between two different bibliographic sources — the paper's
//! DBLP ⋈ CITESEERX experiment in miniature: match publications across a
//! compact catalog (DBLP-style) and a crawl with long abstracts
//! (CITESEERX-style), where record sizes differ by an order of magnitude.
//!
//! ```bash
//! cargo run --release --example rs_join_citations
//! ```

use fuzzyjoin::{read_joined, rs_join, Cluster, ClusterConfig, JoinConfig, Threshold};

fn main() {
    // CITESEERX-style records reuse some DBLP titles (same publications
    // crawled from the web), so cross-source matches exist: generate S by
    // cloning a fraction of R's titles/authors into citeseer-style records.
    let r_records = datagen::dblp(1_500, 99);
    let mut s_records = datagen::citeseerx(1_200, 77);
    for (i, s) in s_records.iter_mut().enumerate() {
        if i % 3 == 0 {
            let src = &r_records[(i * 7) % r_records.len()];
            s.title = src.title.clone();
            s.authors = src.authors.clone();
        }
    }

    let r_lines = datagen::to_lines(&r_records);
    let s_lines = datagen::to_lines(&s_records);
    let r_bytes: usize = r_lines.iter().map(|l| l.len()).sum();
    let s_bytes: usize = s_lines.iter().map(|l| l.len()).sum();
    println!(
        "R (dblp-style): {} records, {} KiB — S (citeseer-style): {} records, {} KiB",
        r_lines.len(),
        r_bytes >> 10,
        s_lines.len(),
        s_bytes >> 10
    );

    let cluster = Cluster::new(ClusterConfig::with_nodes(10), 1 << 20).expect("cluster");
    cluster
        .dfs()
        .write_text("/dblp", &r_lines)
        .expect("write R");
    cluster
        .dfs()
        .write_text("/citeseerx", &s_lines)
        .expect("write S");

    // Stage 1 runs on R (the smaller relation); S tokens outside R's
    // dictionary are discarded in stage 2, as in the paper.
    let config = JoinConfig::recommended().with_threshold(Threshold::jaccard(0.8));
    println!(
        "running {} R-S join at Jaccard >= 0.80...\n",
        config.combo_name()
    );
    let outcome = rs_join(&cluster, "/dblp", "/citeseerx", "/work", &config).expect("join");

    let (s1, s2, s3) = outcome.stage_sim_secs();
    println!("stage 1: {s1:.4}s simulated");
    println!("stage 2: {s2:.4}s simulated");
    println!(
        "stage 3: {s3:.4}s simulated  (carries S's large records; at paper scale this stage grows into a major share)"
    );

    let joined = read_joined(&cluster, &outcome.joined_path).expect("read output");
    println!(
        "\nmatched {} publication pairs across sources",
        joined.len()
    );
    for ((r, s), (r_line, _s_line, sim)) in joined.iter().take(3) {
        let title = r_line.split('\t').nth(1).unwrap_or("?");
        println!("  dblp#{r} = citeseerx#{s} (sim {sim:.2}): {title}");
    }
    assert!(!joined.is_empty(), "expected cross-source matches");
}
