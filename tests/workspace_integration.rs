//! Cross-crate integration: datagen corpora through the full pipeline, with
//! output and metric invariants.

use std::collections::HashSet;

use fuzzyjoin::{
    read_joined, read_rid_pairs, rs_join, self_join, Cluster, ClusterConfig, JoinConfig, Threshold,
};

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::with_nodes(5), 64 << 10).unwrap()
}

#[test]
fn dblp_corpus_end_to_end_with_output_invariants() {
    let records = datagen::increase(&datagen::dblp(400, 9), 2);
    let lines = datagen::to_lines(&records);
    let c = cluster();
    c.dfs().write_text("/dblp", &lines).unwrap();
    let config = JoinConfig::recommended().with_threshold(Threshold::jaccard(0.8));
    let outcome = self_join(&c, "/dblp", "/work", &config).unwrap();
    let joined = read_joined(&c, &outcome.joined_path).unwrap();
    assert!(!joined.is_empty());

    let by_rid: std::collections::HashMap<u64, &datagen::DataRecord> =
        records.iter().map(|r| (r.rid, r)).collect();
    let mut seen = HashSet::new();
    for ((a, b), (line_a, line_b, sim)) in &joined {
        // Pairs are normalized, unique, and carry the exact input lines.
        assert!(a < b, "pair ({a},{b}) not normalized");
        assert!(seen.insert((*a, *b)), "duplicate pair ({a},{b})");
        assert_eq!(line_a, &by_rid[a].to_line());
        assert_eq!(line_b, &by_rid[b].to_line());
        // Similarity is in range and meets the threshold.
        assert!((0.0..=1.0).contains(sim));
        assert!(*sim + 1e-9 >= 0.8, "pair below threshold: {sim}");
    }
}

#[test]
fn token_list_is_frequency_ordered() {
    let lines = datagen::to_lines(&datagen::dblp(300, 4));
    let c = cluster();
    c.dfs().write_text("/dblp", &lines).unwrap();
    let outcome = self_join(&c, "/dblp", "/work", &JoinConfig::recommended()).unwrap();
    let tokens = c.dfs().read_text(&outcome.tokens_path).unwrap();
    assert!(!tokens.is_empty());
    // Recompute frequencies and check the list is ascending.
    use setsim::{Tokenizer, WordTokenizer};
    let tok = WordTokenizer::new();
    let mut freq = std::collections::HashMap::new();
    for line in &lines {
        let f: Vec<&str> = line.split('\t').collect();
        for w in tok.tokenize(&format!("{} {}", f[1], f[2])) {
            *freq.entry(w).or_insert(0u64) += 1;
        }
    }
    assert_eq!(tokens.len(), freq.len(), "token list covers the dictionary");
    for w in tokens.windows(2) {
        assert!(
            freq[&w[0]] <= freq[&w[1]],
            "token order not ascending: {} ({}) then {} ({})",
            w[0],
            freq[&w[0]],
            w[1],
            freq[&w[1]]
        );
    }
}

#[test]
fn rid_pairs_file_names_each_joined_pair_once() {
    let lines = datagen::to_lines(&datagen::dblp(400, 9));
    let c = cluster();
    c.dfs().write_text("/dblp", &lines).unwrap();
    let outcome = self_join(&c, "/dblp", "/work", &JoinConfig::recommended()).unwrap();
    // Two similar records meet in every reducer their prefixes share, but
    // only the pair's owner emits it: the raw stage-2 lines, the distinct
    // pairs among them and stage 3's joined rows are the same in number.
    let raw: Vec<String> = c.dfs().read_text(&outcome.ridpairs_path).unwrap();
    let mut pairs = read_rid_pairs(&c, &outcome.ridpairs_path).unwrap();
    assert_eq!(raw.len(), pairs.len());
    pairs.dedup_by_key(|&mut (a, b, _)| (a, b));
    assert_eq!(raw.len(), pairs.len(), "stage 2 wrote a pair twice");
    let joined = read_joined(&c, &outcome.joined_path).unwrap();
    assert!(!joined.is_empty());
    assert_eq!(pairs.len(), joined.len());
}

#[test]
fn rs_join_dblp_citeseerx_end_to_end() {
    let dblp = datagen::dblp(300, 5);
    let mut cite = datagen::citeseerx(300, 6);
    // Plant cross-source matches.
    for (i, s) in cite.iter_mut().enumerate() {
        if i % 5 == 0 {
            let src = &dblp[i % dblp.len()];
            s.title = src.title.clone();
            s.authors = src.authors.clone();
        }
    }
    let c = cluster();
    c.dfs().write_text("/r", datagen::to_lines(&dblp)).unwrap();
    c.dfs().write_text("/s", datagen::to_lines(&cite)).unwrap();
    let outcome = rs_join(&c, "/r", "/s", "/work", &JoinConfig::recommended()).unwrap();
    let joined = read_joined(&c, &outcome.joined_path).unwrap();
    assert!(
        joined.len() >= 60,
        "expected the planted matches, got {}",
        joined.len()
    );
    let r_rids: HashSet<u64> = dblp.iter().map(|r| r.rid).collect();
    let s_rids: HashSet<u64> = cite.iter().map(|r| r.rid).collect();
    for ((r, s), (r_line, s_line, _)) in &joined {
        assert!(r_rids.contains(r), "left side must be an R record");
        assert!(s_rids.contains(s), "right side must be an S record");
        assert!(s_line.split('\t').count() >= 5, "S records carry abstracts");
        assert!(
            r_line.split('\t').count() == 4,
            "R records have no abstract"
        );
    }
}

#[test]
fn shuffle_bytes_grow_with_data() {
    let base = datagen::dblp(300, 12);
    let mut bytes = Vec::new();
    for factor in [1usize, 4] {
        let c = cluster();
        c.dfs()
            .write_text(
                "/dblp",
                datagen::to_lines(&datagen::increase(&base, factor)),
            )
            .unwrap();
        let outcome = self_join(&c, "/dblp", "/work", &JoinConfig::recommended()).unwrap();
        bytes.push(outcome.shuffle_bytes());
    }
    assert!(
        bytes[1] > bytes[0] * 3,
        "x4 data should shuffle ~4x the bytes: {bytes:?}"
    );
}

#[test]
fn simulated_time_reflects_cluster_size_on_balanced_work() {
    // With plenty of independent tasks, more nodes => less simulated time.
    // Total speedup is sublinear (stage 1's single-reducer sort is serial —
    // the same effect the paper reports), so assert a modest end-to-end
    // improvement and a solid one for the embarrassingly-parallel stage 2.
    // Simulated seconds are built from measured durations of millisecond
    // tasks, so one preemption on a busy host inflates a whole run; the best
    // of three runs per topology is what the time model gives. The corpus
    // is large enough for the parallel stages to outweigh stage 1's serial
    // sort with room to spare: at ×4 the exact stage-2/3 dataflow had cut
    // their work so far that the end-to-end ratio sat at 1.2–2.3.
    let lines = datagen::to_lines(&datagen::increase(&datagen::dblp(500, 3), 10));
    let mut totals = Vec::new();
    let mut stage2s = Vec::new();
    for nodes in [1usize, 10] {
        let mut best_total = f64::INFINITY;
        let mut best_stage2 = f64::INFINITY;
        for _ in 0..3 {
            let c = Cluster::new(ClusterConfig::with_nodes(nodes), 16 << 10).unwrap();
            c.dfs().write_text("/dblp", &lines).unwrap();
            let outcome = self_join(&c, "/dblp", "/work", &JoinConfig::recommended()).unwrap();
            best_total = best_total.min(outcome.sim_secs());
            best_stage2 = best_stage2.min(outcome.stage_sim_secs().1);
        }
        totals.push(best_total);
        stage2s.push(best_stage2);
    }
    assert!(
        totals[1] < totals[0] / 1.2,
        "10 nodes should beat 1 end to end: {totals:?}"
    );
    assert!(
        stage2s[1] < stage2s[0] / 2.0,
        "stage 2 should parallelize well: {stage2s:?}"
    );
}
