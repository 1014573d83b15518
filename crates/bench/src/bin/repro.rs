//! `repro` — regenerate every table and figure of the paper's evaluation
//! (Section 6) on the simulated cluster.
//!
//! ```bash
//! cargo run --release -p fuzzyjoin-bench --bin repro -- all
//! cargo run --release -p fuzzyjoin-bench --bin repro -- fig9
//! REPRO_BASE=5000 cargo run --release -p fuzzyjoin-bench --bin repro -- fig8
//! ```
//!
//! Reported times are modelled cluster seconds (see `fuzzyjoin::model`);
//! the paper's absolute numbers came from a 10-node hardware cluster, so
//! only the *shapes* — which algorithm wins, how curves bend — are
//! comparable.

use fuzzyjoin::model::sim_secs;
use fuzzyjoin::{
    stage1, stage2, stage3, JoinConfig, JoinOutcome, Stage1Algo, Stage2Algo, Stage3Algo, Threshold,
    TokenRouting,
};
use fuzzyjoin_bench::{
    base_citeseerx, base_dblp, base_records, best_of, combos, load_corpus, make_cluster,
    print_table, run_rs_join, run_self_join, secs, SCALEUP_POINTS, SIZE_FACTORS, SPEEDUP_NODES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    println!(
        "# repro: base DBLP/CITESEERX corpus = {} records (REPRO_BASE), Jaccard >= 0.80",
        base_records()
    );
    match what {
        "fig8" => fig8(),
        "fig9" | "fig10" => fig9_fig10(),
        "table1" => table1(),
        "fig11" | "table2" => fig11_table2(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "groups" => groups(),
        "skew" => skew(),
        "shuffle" => shuffle(),
        "oom" => oom(),
        "blocks" => blocks(),
        "all" => {
            fig8();
            fig9_fig10();
            table1();
            fig11_table2();
            fig12();
            fig13();
            fig14();
            groups();
            skew();
            shuffle();
            oom();
            blocks();
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; one of: fig8 fig9 fig10 table1 fig11 table2 \
                 fig12 fig13 fig14 groups skew shuffle oom blocks all"
            );
            std::process::exit(2);
        }
    }
}

fn stage_row(name: &str, n: usize, o: &JoinOutcome) -> Vec<String> {
    let (s1, s2, s3) = o.stage_sim_secs();
    vec![
        name.to_string(),
        format!("x{n}"),
        secs(s1),
        secs(s2),
        secs(s3),
        secs(o.sim_secs()),
    ]
}

/// Figure 8: self-join running time vs dataset size, 10 nodes, 3 combos,
/// broken down per stage.
fn fig8() {
    let base = base_dblp();
    let mut rows = Vec::new();
    for &n in SIZE_FACTORS {
        for (name, config) in combos() {
            let o = best_of(2, || run_self_join(&base, n, 10, &config)).expect("join");
            rows.push(stage_row(name, n, &o));
        }
    }
    print_table(
        "Figure 8: self-join time vs dataset size (DBLP x n, 10 nodes; simulated seconds)",
        &["combination", "size", "stage1", "stage2", "stage3", "total"],
        &rows,
    );
}

/// Figures 9 and 10: self-join speedup — absolute times and relative
/// speedup (vs the 2-node time) as the cluster grows, DBLP×10.
fn fig9_fig10() {
    let base = base_dblp();
    let mut abs_rows = Vec::new();
    let mut rel_rows = Vec::new();
    let mut first: Vec<f64> = Vec::new();
    for (ci, (name, config)) in combos().iter().enumerate() {
        for &nodes in SPEEDUP_NODES {
            let o = best_of(2, || run_self_join(&base, 10, nodes, config)).expect("join");
            let t = o.sim_secs();
            if nodes == SPEEDUP_NODES[0] {
                first.push(t);
            }
            let ideal = first[ci] * SPEEDUP_NODES[0] as f64 / nodes as f64;
            abs_rows.push(vec![
                name.to_string(),
                nodes.to_string(),
                secs(t),
                secs(ideal),
            ]);
            rel_rows.push(vec![
                name.to_string(),
                nodes.to_string(),
                format!("{:.2}", first[ci] / t),
                format!("{:.2}", nodes as f64 / SPEEDUP_NODES[0] as f64),
            ]);
        }
    }
    print_table(
        "Figure 9: self-join speedup, absolute (DBLP x 10; simulated seconds)",
        &["combination", "nodes", "time", "ideal"],
        &abs_rows,
    );
    print_table(
        "Figure 10: self-join speedup, relative to 2 nodes",
        &["combination", "nodes", "speedup", "ideal"],
        &rel_rows,
    );
}

/// Table 1: per-stage running time of each stage alternative on DBLP×10
/// for 2/4/8/10 nodes.
fn table1() {
    let base = base_dblp();
    let node_counts = [2usize, 4, 8, 10];
    let mut bto = Vec::new();
    let mut opto = Vec::new();
    let mut bk = Vec::new();
    let mut pk = Vec::new();
    let mut brj = Vec::new();
    let mut oprj = Vec::new();
    for &nodes in &node_counts {
        let cluster = make_cluster(nodes);
        load_corpus(&cluster, &base, 10, "/dblp");
        let t = Threshold::jaccard(0.80);
        let mk = |s1, s2, s3| {
            JoinConfig {
                stage1: s1,
                stage2: s2,
                stage3: s3,
                ..JoinConfig::recommended()
            }
            .with_threshold(t)
        };

        // Stage 1 alternatives.
        let cfg = mk(Stage1Algo::Bto, Stage2Algo::Bk, Stage3Algo::Brj);
        let (tokens, m) = stage1::run(&cluster, "/dblp", &cfg, "/w-bto").expect("bto");
        bto.push(sim_secs(&m));
        let cfg_o = JoinConfig {
            stage1: Stage1Algo::Opto,
            ..cfg.clone()
        };
        let (_, m) = stage1::run(&cluster, "/dblp", &cfg_o, "/w-opto").expect("opto");
        opto.push(sim_secs(&m));

        // Stage 2 alternatives (over BTO's token list).
        let (_, m) = stage2::run_self(&cluster, "/dblp", &tokens, &cfg, "/w-bk").expect("bk");
        bk.push(sim_secs(&m));
        let cfg_pk = mk(Stage1Algo::Bto, Stage2Algo::Pk, Stage3Algo::Brj);
        let (pairs, m) =
            stage2::run_self(&cluster, "/dblp", &tokens, &cfg_pk, "/w-pk").expect("pk");
        pk.push(sim_secs(&m));

        // Stage 3 alternatives (over PK's RID pairs).
        let (_, m) = stage3::run_self(&cluster, "/dblp", &pairs, &cfg_pk, "/w-brj").expect("brj");
        brj.push(sim_secs(&m));
        let cfg_oprj = JoinConfig {
            stage3: Stage3Algo::Oprj,
            ..cfg_pk
        };
        let (_, m) =
            stage3::run_self(&cluster, "/dblp", &pairs, &cfg_oprj, "/w-oprj").expect("oprj");
        oprj.push(sim_secs(&m));
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push_row = |stage: &str, alg: &str, times: &[f64]| {
        let mut row = vec![stage.to_string(), alg.to_string()];
        row.extend(times.iter().copied().map(secs));
        rows.push(row);
    };
    push_row("1", "BTO", &bto);
    push_row("1", "OPTO", &opto);
    push_row("2", "BK", &bk);
    push_row("2", "PK", &pk);
    push_row("3", "BRJ", &brj);
    push_row("3", "OPRJ", &oprj);
    print_table(
        "Table 1: per-stage time of each alternative, self-join DBLP x 10 (simulated seconds)",
        &["stage", "alg", "2 nodes", "4 nodes", "8 nodes", "10 nodes"],
        &rows,
    );
}

/// Figure 11 + Table 2: self-join scaleup — nodes and data grow together
/// (n nodes, DBLP×2.5n).
fn fig11_table2() {
    let base = base_dblp();
    let mut rows = Vec::new();
    let mut stage_rows = Vec::new();
    for (name, config) in combos() {
        for &(nodes, factor) in SCALEUP_POINTS {
            let o = best_of(2, || run_self_join(&base, factor, nodes, &config)).expect("join");
            let (s1, s2, s3) = o.stage_sim_secs();
            rows.push(vec![
                name.to_string(),
                nodes.to_string(),
                format!("x{factor}"),
                secs(o.sim_secs()),
            ]);
            stage_rows.push(vec![
                name.to_string(),
                format!("{nodes}/x{factor}"),
                secs(s1),
                secs(s2),
                secs(s3),
            ]);
        }
    }
    print_table(
        "Figure 11: self-join scaleup (n nodes, DBLP x 2.5n; flat = perfect scaleup)",
        &["combination", "nodes", "size", "total"],
        &rows,
    );
    print_table(
        "Table 2: per-stage self-join scaleup times",
        &["combination", "nodes/size", "stage1", "stage2", "stage3"],
        &stage_rows,
    );
}

/// Figure 12: R-S join time vs dataset size, 10 nodes.
fn fig12() {
    let dblp = base_dblp();
    let cite = base_citeseerx();
    let mut rows = Vec::new();
    for &n in SIZE_FACTORS {
        for (name, config) in combos() {
            match best_of(2, || run_rs_join(&dblp, &cite, n, 10, &config)) {
                Ok(o) => rows.push(stage_row(name, n, &o)),
                Err(e) if e.is_out_of_memory() => {
                    rows.push(vec![
                        name.to_string(),
                        format!("x{n}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "OOM".into(),
                    ]);
                }
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }
    }
    print_table(
        "Figure 12: R-S join time vs dataset size (DBLP x n JOIN CITESEERX x n, 10 nodes)",
        &["combination", "size", "stage1", "stage2", "stage3", "total"],
        &rows,
    );
}

/// Figure 13: R-S join speedup at ×10 data.
fn fig13() {
    let dblp = base_dblp();
    let cite = base_citeseerx();
    let mut rows = Vec::new();
    for (name, config) in combos() {
        let mut first = None;
        for &nodes in SPEEDUP_NODES {
            let o = best_of(2, || run_rs_join(&dblp, &cite, 10, nodes, &config)).expect("join");
            let t = o.sim_secs();
            let f = *first.get_or_insert(t);
            rows.push(vec![
                name.to_string(),
                nodes.to_string(),
                secs(t),
                format!("{:.2}", f / t),
            ]);
        }
    }
    print_table(
        "Figure 13: R-S join speedup (x10 datasets; simulated seconds, relative to 2 nodes)",
        &["combination", "nodes", "time", "speedup"],
        &rows,
    );
}

/// Figure 14: R-S join scaleup.
fn fig14() {
    let dblp = base_dblp();
    let cite = base_citeseerx();
    let mut rows = Vec::new();
    for (name, config) in combos() {
        for &(nodes, factor) in SCALEUP_POINTS {
            match best_of(2, || run_rs_join(&dblp, &cite, factor, nodes, &config)) {
                Ok(o) => rows.push(vec![
                    name.to_string(),
                    nodes.to_string(),
                    format!("x{factor}"),
                    secs(o.sim_secs()),
                ]),
                Err(e) if e.is_out_of_memory() => rows.push(vec![
                    name.to_string(),
                    nodes.to_string(),
                    format!("x{factor}"),
                    "OOM".into(),
                ]),
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }
    }
    print_table(
        "Figure 14: R-S join scaleup (n nodes, x2.5n datasets; flat = perfect scaleup)",
        &["combination", "nodes", "size", "total"],
        &rows,
    );
}

/// Section 6.1.1: effect of the number of token groups on the PK kernel.
/// The paper's finding: best performance with one group per token
/// (individual routing).
fn groups() {
    let base = base_dblp();
    let mut rows = Vec::new();
    let sweep: Vec<(String, TokenRouting)> = vec![
        ("32".into(), TokenRouting::Grouped { groups: 32 }),
        ("256".into(), TokenRouting::Grouped { groups: 256 }),
        ("2048".into(), TokenRouting::Grouped { groups: 2048 }),
        ("16384".into(), TokenRouting::Grouped { groups: 16384 }),
        ("per-token".into(), TokenRouting::Individual),
    ];
    for (label, routing) in sweep {
        let config = JoinConfig {
            routing,
            ..combos()[1].1.clone()
        };
        let mut best: Option<mapreduce::PipelineMetrics> = None;
        for _ in 0..2 {
            let cluster = make_cluster(10);
            load_corpus(&cluster, &base, 10, "/dblp");
            let (tokens, _) = stage1::run(&cluster, "/dblp", &config, "/w").expect("stage1");
            let (_, m) =
                stage2::run_self(&cluster, "/dblp", &tokens, &config, "/w2").expect("stage2");
            if best.as_ref().is_none_or(|b| sim_secs(&m) < sim_secs(b)) {
                best = Some(m);
            }
        }
        let m = best.expect("two runs");
        let job = &m.jobs[0];
        rows.push(vec![
            label,
            secs(sim_secs(&m)),
            job.shuffle_records.to_string(),
            job.reduce_input_groups.to_string(),
        ]);
    }
    print_table(
        "Section 6.1.1: PK kernel vs number of token groups (DBLP x 10, 10 nodes)",
        &["groups", "stage2 time", "shuffled recs", "reduce groups"],
        &rows,
    );
}

/// Technical-report companion data: "information about the total amount of
/// data sent between map and reduce for each stage is included in [26]" —
/// per-stage shuffle bytes and records for the self-join size sweep, under
/// the recommended BTO-PK-BRJ combination.
fn shuffle() {
    let base = base_dblp();
    let mut rows = Vec::new();
    for &n in SIZE_FACTORS {
        let o = run_self_join(&base, n, 10, &combos()[1].1).expect("join");
        let stage_bytes = |m: &mapreduce::PipelineMetrics| {
            (
                m.jobs.iter().map(|j| j.shuffle_bytes).sum::<u64>(),
                m.jobs.iter().map(|j| j.shuffle_records).sum::<u64>(),
            )
        };
        for (stage, metrics) in [("1", &o.stage1), ("2", &o.stage2), ("3", &o.stage3)] {
            let (bytes, records) = stage_bytes(metrics);
            rows.push(vec![
                format!("x{n}"),
                stage.to_string(),
                bytes.to_string(),
                records.to_string(),
            ]);
        }
    }
    print_table(
        "TR companion: shuffle volume per stage (self-join DBLP x n, BTO-PK-BRJ, 10 nodes)",
        &["size", "stage", "shuffle bytes", "shuffle records"],
        &rows,
    );
}

/// Section 6.1.1, stage-3 analysis: the paper attributes BRJ's poor speedup
/// to skew in the RID pairs that join ("on the average an RID appeared on
/// 3.74 RID pairs, with a standard deviation of 14.85 and a maximum of
/// 187") — recompute the same statistics for the synthetic corpus, plus the
/// stage-3 reduce-task skew factor the imbalance produces.
fn skew() {
    let base = base_dblp();
    let cluster = make_cluster(10);
    load_corpus(&cluster, &base, 10, "/dblp");
    let config = combos()[1].1.clone(); // BTO-PK-BRJ
    let outcome = fuzzyjoin::self_join(&cluster, "/dblp", "/work", &config).expect("join");
    let pairs = fuzzyjoin::read_rid_pairs(&cluster, &outcome.ridpairs_path).expect("pairs");

    let mut freq: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for (a, b, _) in &pairs {
        *freq.entry(*a).or_insert(0) += 1;
        *freq.entry(*b).or_insert(0) += 1;
    }
    let n = freq.len().max(1) as f64;
    let mean = freq.values().sum::<u64>() as f64 / n;
    let var = freq
        .values()
        .map(|&v| (v as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let max = freq.values().copied().max().unwrap_or(0);
    let fill_job = &outcome.stage3.jobs[0];
    print_table(
        "Section 6.1.1: RID-pair skew driving stage-3 imbalance (DBLP x 10, 10 nodes)",
        &["metric", "value"],
        &[
            vec!["joined RID pairs".into(), pairs.len().to_string()],
            vec!["RIDs appearing in pairs".into(), freq.len().to_string()],
            vec!["mean pairs per RID".into(), format!("{mean:.2}")],
            vec!["stddev pairs per RID".into(), format!("{:.2}", var.sqrt())],
            vec!["max pairs per RID".into(), max.to_string()],
            vec![
                "stage-3 fill-job reduce skew (max/mean task time)".into(),
                format!("{:.2}", fill_job.reduce.skew()),
            ],
        ],
    );
}

/// Section 6.2: OPRJ runs out of memory once the broadcast RID-pair list
/// exceeds the per-task budget, while BRJ keeps working.
fn oom() {
    let base = base_dblp();
    // Calibrate the task budget against the data, like picking a JVM heap:
    // measure the x10 RID-pair list (raw, with cross-reducer duplicates —
    // that is what OPRJ loads), then set the budget comfortably above the
    // x10 need but below the x25 need (pairs grow linearly with the data).
    let budget = {
        let cluster = make_cluster(10);
        load_corpus(&cluster, &base, 10, "/dblp");
        let config = combos()[1].1.clone();
        let (tokens, _) = stage1::run(&cluster, "/dblp", &config, "/w").expect("stage1");
        let (pairs_path, _) =
            stage2::run_self(&cluster, "/dblp", &tokens, &config, "/w2").expect("stage2");
        let raw_lines = cluster.dfs().read_text(&pairs_path).expect("pairs").len() as u64;
        // 2 index entries per line at ~96 bytes each, times 1.6 headroom.
        (raw_lines * 2 * 96 * 16) / 10
    };
    let mut rows = Vec::new();
    for &factor in &[5usize, 10, 25] {
        for (name, stage3) in [
            ("BTO-PK-BRJ", Stage3Algo::Brj),
            ("BTO-PK-OPRJ", Stage3Algo::Oprj),
        ] {
            let mut cc = fuzzyjoin::ClusterConfig::with_nodes(10);
            cc.task_memory = Some(budget);
            let cluster = fuzzyjoin::Cluster::new(cc, 256 << 10).expect("cluster");
            load_corpus(&cluster, &base, factor, "/dblp");
            let config = JoinConfig {
                stage3,
                ..combos()[1].1.clone()
            };
            let result = fuzzyjoin::self_join(&cluster, "/dblp", "/work", &config);
            let cell = match result {
                Ok(o) => secs(o.sim_secs()),
                Err(e) if e.is_out_of_memory() => "OOM".into(),
                Err(e) => panic!("unexpected failure: {e}"),
            };
            rows.push(vec![name.to_string(), format!("x{factor}"), cell]);
        }
    }
    print_table(
        &format!(
            "Section 6.2: stage-3 memory behaviour under a {budget}-byte task budget \
             (OPRJ broadcasts the full RID-pair list per task)"
        ),
        &["combination", "size", "total time"],
        &rows,
    );
}

/// Section 5: block processing under a reducer memory budget too small for
/// the largest reduce group.
fn blocks() {
    let base = base_dblp();
    // Grouped routing concentrates reduce groups — the paper's stress case.
    let factor = 5;
    let budget = (base_records() as u64 * factor as u64) * 30;
    let variants: Vec<(&str, Stage2Algo)> = vec![
        ("BK (no blocks)", Stage2Algo::Bk),
        (
            "BK map-based blocks",
            Stage2Algo::BkMapBlocks { blocks: 16 },
        ),
        (
            "BK reduce-based blocks",
            Stage2Algo::BkReduceBlocks { blocks: 16 },
        ),
    ];
    let mut rows = Vec::new();
    for (name, algo) in variants {
        let mut cc = fuzzyjoin::ClusterConfig::with_nodes(10);
        cc.task_memory = Some(budget);
        let cluster = fuzzyjoin::Cluster::new(cc, 256 << 10).expect("cluster");
        load_corpus(&cluster, &base, factor, "/dblp");
        let config = JoinConfig {
            stage2: algo,
            routing: TokenRouting::Grouped { groups: 4 },
            ..JoinConfig::recommended()
        };
        let (tokens, _) = stage1::run(&cluster, "/dblp", &config, "/w").expect("stage1");
        let result = stage2::run_self(&cluster, "/dblp", &tokens, &config, "/w2");
        match result {
            Ok((_, m)) => {
                let job = &m.jobs[0];
                rows.push(vec![
                    name.to_string(),
                    secs(sim_secs(&m)),
                    job.shuffle_bytes.to_string(),
                    job.counter("stage2.local_disk_bytes").to_string(),
                ]);
            }
            Err(e) if e.is_out_of_memory() => {
                rows.push(vec![name.to_string(), "OOM".into(), "-".into(), "-".into()]);
            }
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    print_table(
        &format!(
            "Section 5: stage-2 kernels under a {budget}-byte reducer budget \
             (DBLP x {factor}, 4 token groups)"
        ),
        &["kernel", "stage2 time", "shuffle bytes", "local disk bytes"],
        &rows,
    );
}
