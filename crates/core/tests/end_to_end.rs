//! End-to-end pipeline tests: every algorithm combination must produce
//! exactly the pairs a naive single-node join of the same data produces.

use fuzzyjoin::{
    read_joined, read_rid_pairs, rs_join, self_join, Cluster, ClusterConfig, JoinConfig,
    Stage1Algo, Stage2Algo, Stage3Algo, Threshold, TokenRouting,
};
use mapreduce::Json;
use setsim::{naive, TokenOrder, Tokenizer, WordTokenizer};

fn cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig::with_nodes(nodes), 2048).unwrap()
}

/// Ground truth for a corpus of record lines under the bibliographic format.
fn naive_pairs(lines: &[String], t: &Threshold) -> Vec<(u64, u64)> {
    let tok = WordTokenizer::new();
    let parsed: Vec<(u64, String)> = lines
        .iter()
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (
                f[0].parse().unwrap(),
                format!(
                    "{} {}",
                    f.first().map(|_| f[1]).unwrap_or(""),
                    f.get(2).unwrap_or(&"")
                ),
            )
        })
        .collect();
    let lists: Vec<Vec<String>> = parsed.iter().map(|(_, a)| tok.tokenize(a)).collect();
    let order = TokenOrder::from_corpus(&lists);
    let sets: Vec<(u64, Vec<u32>)> = parsed
        .iter()
        .zip(&lists)
        .map(|((rid, _), l)| (*rid, order.project(l)))
        .collect();
    naive::self_join(&sets, t)
        .into_iter()
        .map(|(a, b, _)| (a, b))
        .collect()
}

fn corpus(seed: u64, n: usize) -> Vec<String> {
    datagen::to_lines(&datagen::dblp(n, seed))
}

#[test]
fn all_combinations_match_naive_self_join() {
    let lines = corpus(101, 150);
    let t = Threshold::jaccard(0.8);
    let expected = naive_pairs(&lines, &t);
    assert!(!expected.is_empty(), "corpus must contain similar pairs");

    let stage1s = [Stage1Algo::Bto, Stage1Algo::Opto];
    let stage2s = [
        Stage2Algo::Bk,
        Stage2Algo::Pk,
        Stage2Algo::BkMapBlocks { blocks: 3 },
        Stage2Algo::BkReduceBlocks { blocks: 3 },
    ];
    let stage3s = [Stage3Algo::Brj, Stage3Algo::Oprj];

    for s1 in stage1s {
        for s2 in stage2s {
            for s3 in stage3s {
                let config = JoinConfig {
                    stage1: s1,
                    stage2: s2,
                    stage3: s3,
                    ..JoinConfig::recommended()
                };
                let c = cluster(3);
                c.dfs().write_text("/records", &lines).unwrap();
                let outcome = self_join(&c, "/records", "/work", &config).unwrap();
                let joined = read_joined(&c, &outcome.joined_path).unwrap();
                let got: Vec<(u64, u64)> = joined.iter().map(|(k, _)| *k).collect();
                assert_eq!(
                    got,
                    expected,
                    "combo {} disagrees with naive join",
                    config.combo_name()
                );
            }
        }
    }
}

#[test]
fn routing_strategies_agree() {
    let lines = corpus(7, 120);
    let t = Threshold::jaccard(0.8);
    let expected = naive_pairs(&lines, &t);
    for routing in [
        TokenRouting::Individual,
        TokenRouting::Grouped { groups: 1 },
        TokenRouting::Grouped { groups: 7 },
        TokenRouting::Grouped { groups: 64 },
    ] {
        let config = JoinConfig {
            routing,
            ..JoinConfig::recommended()
        };
        let c = cluster(2);
        c.dfs().write_text("/records", &lines).unwrap();
        let outcome = self_join(&c, "/records", "/work", &config).unwrap();
        let got: Vec<(u64, u64)> = read_joined(&c, &outcome.joined_path)
            .unwrap()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, expected, "routing {routing:?}");
    }
}

#[test]
fn joined_output_carries_full_records_and_similarity() {
    let lines = vec![
        "1\tparallel set similarity joins using mapreduce\tvernica carey li\tsigmod".to_string(),
        "2\tparallel set similarity joins using mapreduce\tvernica carey li\tdup".to_string(),
        "3\tunrelated topic entirely\tsomeone else\tx".to_string(),
    ];
    let c = cluster(2);
    c.dfs().write_text("/records", &lines).unwrap();
    let outcome = self_join(&c, "/records", "/work", &JoinConfig::recommended()).unwrap();
    let joined = read_joined(&c, &outcome.joined_path).unwrap();
    assert_eq!(joined.len(), 1);
    let ((a, b), (line_a, line_b, sim)) = joined.into_iter().next().unwrap();
    assert_eq!((a, b), (1, 2));
    assert_eq!(line_a, lines[0]);
    assert_eq!(line_b, lines[1]);
    assert!((sim - 1.0).abs() < 1e-9, "identical join attributes");
}

#[test]
fn rid_pairs_match_joined_output() {
    let lines = corpus(55, 100);
    let c = cluster(2);
    c.dfs().write_text("/records", &lines).unwrap();
    let outcome = self_join(&c, "/records", "/work", &JoinConfig::recommended()).unwrap();
    let pairs = read_rid_pairs(&c, &outcome.ridpairs_path).unwrap();
    let joined = read_joined(&c, &outcome.joined_path).unwrap();
    assert_eq!(pairs.len(), joined.len());
    for ((a, b, _), ((ja, jb), _)) in pairs.iter().zip(&joined) {
        assert_eq!((a, b), (ja, jb));
    }
}

#[test]
fn rs_join_matches_naive() {
    let r_lines = corpus(61, 80);
    let s_recs = datagen::citeseerx(80, 62);
    let s_lines = datagen::to_lines(&s_recs);
    let t = Threshold::jaccard(0.8);

    // Naive ground truth over the R dictionary (S-only tokens dropped).
    let tok = WordTokenizer::new();
    let parse = |l: &String| -> (u64, String) {
        let f: Vec<&str> = l.split('\t').collect();
        (f[0].parse().unwrap(), format!("{} {}", f[1], f[2]))
    };
    let r_parsed: Vec<(u64, String)> = r_lines.iter().map(parse).collect();
    let s_parsed: Vec<(u64, String)> = s_lines.iter().map(parse).collect();
    let r_lists: Vec<Vec<String>> = r_parsed.iter().map(|(_, a)| tok.tokenize(a)).collect();
    let order = TokenOrder::from_corpus(&r_lists);
    let r_sets: Vec<(u64, Vec<u32>)> = r_parsed
        .iter()
        .zip(&r_lists)
        .map(|((rid, _), l)| (*rid, order.project(l)))
        .collect();
    let s_sets: Vec<(u64, Vec<u32>)> = s_parsed
        .iter()
        .map(|(rid, a)| (*rid, order.project(&tok.tokenize(a))))
        .collect();
    let expected: Vec<(u64, u64)> = naive::rs_join(&r_sets, &s_sets, &t)
        .into_iter()
        .map(|(a, b, _)| (a, b))
        .collect();

    for s2 in [
        Stage2Algo::Bk,
        Stage2Algo::Pk,
        Stage2Algo::BkMapBlocks { blocks: 2 },
        Stage2Algo::BkReduceBlocks { blocks: 2 },
    ] {
        for s3 in [Stage3Algo::Brj, Stage3Algo::Oprj] {
            let config = JoinConfig {
                stage2: s2,
                stage3: s3,
                ..JoinConfig::recommended()
            };
            let c = cluster(3);
            c.dfs().write_text("/r", &r_lines).unwrap();
            c.dfs().write_text("/s", &s_lines).unwrap();
            let outcome = rs_join(&c, "/r", "/s", "/work", &config).unwrap();
            let got: Vec<(u64, u64)> = read_joined(&c, &outcome.joined_path)
                .unwrap()
                .iter()
                .map(|(k, _)| *k)
                .collect();
            assert_eq!(got, expected, "combo {}", config.combo_name());
        }
    }
}

#[test]
fn rs_join_handles_overlapping_rid_spaces() {
    // R and S both use RIDs 1..3 — relation tags must keep them apart.
    let r_lines = vec![
        "1\talpha beta gamma delta\tx\t".to_string(),
        "2\tdistinct r title here\ty\t".to_string(),
    ];
    let s_lines = vec![
        "1\talpha beta gamma delta\tx\t".to_string(),
        "2\tother s record text\tz\t".to_string(),
    ];
    let c = cluster(2);
    c.dfs().write_text("/r", &r_lines).unwrap();
    c.dfs().write_text("/s", &s_lines).unwrap();
    let outcome = rs_join(&c, "/r", "/s", "/work", &JoinConfig::recommended()).unwrap();
    let joined = read_joined(&c, &outcome.joined_path).unwrap();
    assert_eq!(joined.len(), 1);
    let ((r, s), (r_line, s_line, _)) = joined.into_iter().next().unwrap();
    assert_eq!((r, s), (1, 1));
    assert_eq!(r_line, r_lines[0]);
    assert_eq!(s_line, s_lines[0]);
}

#[test]
fn results_are_identical_across_cluster_sizes() {
    let lines = corpus(77, 130);
    let mut all = Vec::new();
    for nodes in [1usize, 4, 10] {
        let c = cluster(nodes);
        c.dfs().write_text("/records", &lines).unwrap();
        let outcome = self_join(&c, "/records", "/work", &JoinConfig::recommended()).unwrap();
        let got: Vec<(u64, u64)> = read_joined(&c, &outcome.joined_path)
            .unwrap()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        all.push(got);
    }
    assert_eq!(all[0], all[1]);
    assert_eq!(all[1], all[2]);
}

#[test]
fn oprj_runs_out_of_memory_on_small_budget() {
    // Enough similar pairs that the broadcast pair list cannot fit in a tiny
    // task budget — the paper's Section 6.2 observation.
    let lines = corpus(201, 300);
    let mut cc = ClusterConfig::with_nodes(2);
    cc.task_memory = Some(2_000); // bytes
    let c = Cluster::new(cc, 4096).unwrap();
    c.dfs().write_text("/records", &lines).unwrap();
    let config = JoinConfig {
        stage3: Stage3Algo::Oprj,
        ..JoinConfig::recommended()
    };
    let err = self_join(&c, "/records", "/work", &config).unwrap_err();
    assert!(err.is_out_of_memory(), "got {err:?}");
}

#[test]
fn bk_oom_is_rescued_by_block_processing() {
    // Long records over a small shared dictionary: the token order easily
    // fits a task's budget, but the single routing group's projection list
    // does not. Plain BK dies; reduce-based block processing completes and
    // matches the expected result.
    let mut lines = Vec::new();
    for i in 0..700u64 {
        let words: Vec<String> = (0..100u64)
            .map(|k| format!("w{}", (i * 7 + k) % 400))
            .collect();
        lines.push(format!("{i}\t{}\tauthor\t", words.join(" ")));
    }
    let t = Threshold::jaccard(0.8);
    let expected = naive_pairs(&lines, &t);
    assert!(!expected.is_empty());

    let budget = 250_000u64; // bytes: > token order, < one group's buffer
    let make = || {
        let mut cc = ClusterConfig::with_nodes(1);
        cc.task_memory = Some(budget);
        Cluster::new(cc, 1 << 20).unwrap()
    };

    // Plain BK: OOM. (Grouped routing funnels everything to few reducers.)
    let c1 = make();
    c1.dfs().write_text("/records", &lines).unwrap();
    let bk = JoinConfig {
        stage2: Stage2Algo::Bk,
        routing: TokenRouting::Grouped { groups: 1 },
        ..JoinConfig::recommended()
    };
    let err = self_join(&c1, "/records", "/work", &bk).unwrap_err();
    assert!(err.is_out_of_memory(), "plain BK should OOM, got {err:?}");

    // Reduce-based blocks: completes within the same budget.
    let c2 = make();
    c2.dfs().write_text("/records", &lines).unwrap();
    let blocks = JoinConfig {
        stage2: Stage2Algo::BkReduceBlocks { blocks: 16 },
        routing: TokenRouting::Grouped { groups: 1 },
        ..JoinConfig::recommended()
    };
    let outcome = self_join(&c2, "/records", "/work", &blocks).unwrap();
    let got: Vec<(u64, u64)> = read_joined(&c2, &outcome.joined_path)
        .unwrap()
        .iter()
        .map(|(k, _)| *k)
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn metrics_expose_stage_breakdown() {
    let lines = corpus(3, 80);
    let c = cluster(2);
    c.dfs().write_text("/records", &lines).unwrap();
    let outcome = self_join(&c, "/records", "/work", &JoinConfig::recommended()).unwrap();
    assert_eq!(outcome.stage1.jobs.len(), 2, "BTO = two jobs");
    assert_eq!(outcome.stage2.jobs.len(), 1);
    assert_eq!(outcome.stage3.jobs.len(), 2, "BRJ = two jobs");
    assert!(outcome.sim_secs() > 0.0);
    assert!(outcome.wall_secs() > 0.0);
    assert!(outcome.shuffle_bytes() > 0);
    let (s1, s2, s3) = outcome.stage_sim_secs();
    assert!(s1 > 0.0 && s2 > 0.0 && s3 > 0.0);
}

#[test]
fn pk_funnel_narrows_down_to_the_emitted_pairs() {
    let lines = corpus(17, 400);
    for routing in [
        TokenRouting::Individual,
        TokenRouting::Grouped { groups: 4 },
    ] {
        let c = cluster(3);
        c.dfs().write_text("/records", &lines).unwrap();
        let config = JoinConfig {
            threshold: Threshold::jaccard(0.6),
            routing,
            ..JoinConfig::recommended()
        };
        let outcome = self_join(&c, "/records", "/work", &config).unwrap();
        let job = &outcome.stage2.jobs[0];
        let [postings, unowned, candidates, bitmap, positional, suffix_calls, suffix, verified] =
            fuzzyjoin::stage2::reducers::FUNNEL_COUNTERS.map(|name| job.counter(name));
        let chain = [postings, candidates, bitmap, positional, suffix, verified];
        assert!(chain.windows(2).all(|w| w[0] >= w[1]), "{chain:?}");
        assert!(suffix_calls <= positional);
        // Records meet in every reducer their prefixes share; all but one
        // of those meetings end at the ownership test.
        assert!(unowned > 0, "replicated records must meet more than once");
        assert!(postings >= candidates + unowned);
        assert!(verified > 0 && postings > verified, "{chain:?}");
        assert_eq!(candidates, job.counter("stage2.candidates"));
        assert_eq!(verified, job.counter("stage2.pairs_emitted"));
        assert_eq!(
            verified,
            c.dfs().read_text(&outcome.ridpairs_path).unwrap().len() as u64,
            "one stage-2 output line per verified pair"
        );
        // The run report carries them with every other job counter.
        let report = fuzzyjoin::report::run_report(&outcome, &config, None).to_string();
        for name in fuzzyjoin::stage2::reducers::FUNNEL_COUNTERS {
            assert!(report.contains(name), "{name} missing from the report");
        }
    }
}

/// `(path suffix, len, crc)` of every committed data file under `dir`.
fn committed_bytes(c: &Cluster, dir: &str) -> Vec<(String, u64, u32)> {
    c.dfs()
        .data_files(dir)
        .into_iter()
        .map(|f| {
            let stat = c.dfs().stat(&f).unwrap();
            (f[dir.len()..].to_string(), stat.len, stat.crc)
        })
        .collect()
}

/// How many distinct RIDs stage 2's pairs name as first member, as second
/// member, and in all: the records BRJ has to move.
fn column_participants(c: &Cluster, ridpairs_path: &str) -> [u64; 3] {
    let pairs = read_rid_pairs(c, ridpairs_path).unwrap();
    let (first, second): (Vec<u64>, Vec<u64>) = pairs.iter().map(|p| (p.0, p.1)).unzip();
    let all = [first.clone(), second.clone()].concat();
    [first, second, all].map(|rids| {
        let distinct: std::collections::BTreeSet<u64> = rids.into_iter().collect();
        distinct.len() as u64
    })
}

/// BRJ's dataflow, as counters: each job shuffles the participating records
/// it keeps once plus one entry per pair, job 1 writes one fill per pair,
/// and every record a job is handed is either shuffled or filtered. An R-S
/// join keeps one pair column per job; a self-join reads its relation once,
/// so job 1 keeps both columns and job 2 is handed what job 1 forwards.
#[test]
fn brj_moves_each_participant_through_each_shuffle_once() {
    let lines = corpus(101, 150);
    let (r, s) = overlapping_relations();
    let config = JoinConfig::recommended();
    let c = cluster(3);
    c.dfs().write_text("/records", &lines).unwrap();
    c.dfs().write_text("/r", &r).unwrap();
    c.dfs().write_text("/s", &s).unwrap();
    let own = self_join(&c, "/records", "/work", &config).unwrap();
    let rs = rs_join(&c, "/r", "/s", "/work-rs", &config).unwrap();
    for (outcome, is_rs) in [(own, false), (rs, true)] {
        let pairs = outcome.stage2.jobs[0].counter("stage2.pairs_emitted");
        assert!(pairs > 0, "vacuous corpus");
        let [first, second, all] = column_participants(&c, &outcome.ridpairs_path);
        // Per job: (participants its mappers keep, records it is handed).
        let expected = if is_rs {
            [(first, r.len() as u64), (second, s.len() as u64)]
        } else {
            assert!(
                first < all && second < all,
                "some record is in one column only"
            );
            [(all, lines.len() as u64), (second, all)]
        };
        let [fill, assemble] = &outcome.stage3.jobs[..] else {
            panic!("BRJ runs two jobs");
        };
        assert_eq!(fill.counter("stage3.fills"), pairs);
        assert_eq!(assemble.counter("stage3.joined_pairs"), pairs);
        for (job, (kept, handed)) in [fill, assemble].into_iter().zip(expected) {
            assert!(kept > 0 && kept < lines.len() as u64);
            assert_eq!(job.counter("stage3.participants"), kept, "{}", job.name);
            assert_eq!(job.shuffle_records, kept + pairs, "{}", job.name);
            assert_eq!(
                job.counter("stage3.records_filtered"),
                handed - kept,
                "{}: every record no pair names is dropped before the shuffle",
                job.name
            );
        }
    }
}

/// R with 60 records and S with copies of every fourth of them under RIDs
/// of its own, among records that join nothing.
fn overlapping_relations() -> (Vec<String>, Vec<String>) {
    let r = corpus(11, 60);
    let mut s = datagen::to_lines(&datagen::citeseerx(40, 1011));
    for (i, line) in r.iter().enumerate().filter(|(i, _)| i % 4 == 0) {
        let (_, rest) = line.split_once('\t').unwrap();
        s.push(format!("{}\t{rest}", 10_000 + i));
    }
    (r, s)
}

/// Hub cells: one S record joined by 40 R records, one R record joined by
/// 40 S records, and a self-join whose middle record is the second member
/// of one pair and the first of another. BRJ's output is OPRJ's to the
/// byte, each line on the side of the pair its record was named on.
#[test]
fn brj_hub_records_join_as_oprj_joins_them() {
    let (many, one) = (
        "alpha beta gamma delta epsilon zeta",
        "eta theta iota kappa lambda mu",
    );
    let line = |rid: u64, title: &str, rel: &str| format!("{rid}\t{title}\tx\t{rel}-{rid}");
    // R: RID 0 is the hub of `one`; 1..=40 all join S's lone `many` record.
    let r: Vec<String> = (0..=40)
        .map(|rid| line(rid, if rid == 0 { one } else { many }, "r"))
        .collect();
    let s: Vec<String> = (0..=40)
        .map(|rid| line(rid, if rid == 0 { many } else { one }, "s"))
        .collect();
    let chain: Vec<String> = (1..=3).map(|rid| line(rid, many, "self")).collect();
    let run = |stage3: Stage3Algo| {
        let config = JoinConfig {
            stage3,
            ..JoinConfig::recommended()
        };
        let c = cluster(3);
        c.dfs().write_text("/r", &r).unwrap();
        c.dfs().write_text("/s", &s).unwrap();
        c.dfs().write_text("/chain", &chain).unwrap();
        let rs = rs_join(&c, "/r", "/s", "/work-rs", &config).unwrap();
        let own = self_join(&c, "/chain", "/work", &config).unwrap();
        let read = |path: &str| read_joined(&c, path).unwrap();
        (read(&rs.joined_path), read(&own.joined_path))
    };
    let (rs, own) = run(Stage3Algo::Brj);
    assert_eq!((rs.clone(), own.clone()), run(Stage3Algo::Oprj));
    assert_eq!(rs.len(), 80);
    for ((a, b), (first, second, _)) in &rs {
        assert!(*a == 0 || *b == 0, "every pair has a hub");
        assert_eq!((first, second), (&r[*a as usize], &s[*b as usize]));
    }
    let keys: Vec<(u64, u64)> = own.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, [(1, 2), (1, 3), (2, 3)]);
    for ((a, b), (first, second, _)) in &own {
        let expected = (&chain[*a as usize - 1], &chain[*b as usize - 1]);
        assert_eq!((first, second), expected);
    }
}

/// Semi-join edge cell (i): when the participating RIDs a mapper keeps do
/// not fit a task's memory budget, both BRJ jobs run unfiltered — and
/// commit the same output as the filtered run, on both sides of the
/// boundary.
#[test]
fn brj_without_room_for_the_participants_commits_the_same_bytes() {
    let lines = corpus(101, 150);
    let config = JoinConfig::recommended();
    let c = cluster(3);
    c.dfs().write_text("/records", &lines).unwrap();
    let outcome = self_join(&c, "/records", "/work", &config).unwrap();
    let counters = |jobs: &[mapreduce::JobMetrics], name: &str| -> Vec<u64> {
        jobs.iter().map(|j| j.counter(name)).collect()
    };
    let participants = counters(&outcome.stage3.jobs, "stage3.participants");
    let filtered = counters(&outcome.stage3.jobs, "stage3.records_filtered");
    let [_, second, all] = column_participants(&c, &outcome.ridpairs_path);
    assert_eq!(participants, [all, second]);
    assert!(filtered.iter().all(|&n| n > 0));

    // Stage 3 again over the same pair file, on drivers whose tasks have
    // room for exactly what job 1's mappers keep, and for one byte less.
    let run = |budget: u64, work: &str| {
        let tight = Cluster::with_dfs(
            ClusterConfig {
                task_memory: Some(budget),
                ..c.config().clone()
            },
            c.dfs().clone(),
        )
        .unwrap();
        fuzzyjoin::stage3::run_self(&tight, "/records", &outcome.ridpairs_path, &config, work)
            .unwrap()
            .1
    };
    let fits = run(all * 8, "/fits");
    assert_eq!(counters(&fits.jobs, "stage3.records_filtered"), filtered);
    assert!(c.dfs().exists("/fits/participants"));
    assert_eq!(
        committed_bytes(&c, "/fits/fills"),
        committed_bytes(&c, "/work/fills")
    );
    let plain = run(all * 8 - 1, "/plain");
    assert_eq!(counters(&plain.jobs, "stage3.records_filtered"), [0, 0]);
    assert_eq!(counters(&plain.jobs, "stage3.participants"), participants);
    assert!(!c.dfs().exists("/plain/participants"), "no side file");
    // Plain BRJ shuffles every record, in both jobs: job 1 forwards all of
    // them, not knowing which ones job 2 needs.
    let pairs = outcome.stage2.jobs[0].counter("stage2.pairs_emitted");
    for job in &plain.jobs {
        assert_eq!(
            job.shuffle_records,
            lines.len() as u64 + pairs,
            "{}",
            job.name
        );
    }
    let reference = committed_bytes(&c, "/work/joined");
    assert!(!reference.is_empty());
    assert_eq!(committed_bytes(&c, "/fits/joined"), reference);
    assert_eq!(committed_bytes(&c, "/plain/joined"), reference);
}

/// The four records of the per-relation cells: RID 1 is an R record that
/// joins and an S record that does not; RID 2 the other way round.
fn crossed_relations() -> ([String; 2], [String; 2]) {
    let joining = "alpha beta gamma delta epsilon zeta eta theta iota kappa";
    let r = [
        format!("1\t{joining}\tx\t"),
        "2\tan r record nothing else resembles\ty\t".to_string(),
    ];
    let s = [
        "1\tsome s record of entirely other words\tz\t".to_string(),
        format!("2\t{joining}\tx\t"),
    ];
    (r, s)
}

/// Semi-join edge cell (ii): R and S number their records independently.
/// One merged set would shuffle all four records; a set per pair column
/// shuffles exactly the two that a pair names, one in each job.
#[test]
fn participants_are_kept_per_relation() {
    let (r, s) = crossed_relations();
    let c = cluster(2);
    c.dfs().write_text("/r", &r).unwrap();
    c.dfs().write_text("/s", &s).unwrap();
    let outcome = rs_join(&c, "/r", "/s", "/work", &JoinConfig::recommended()).unwrap();
    let joined = read_joined(&c, &outcome.joined_path).unwrap();
    assert_eq!(joined.len(), 1);
    assert_eq!(joined[0].0, (1, 2));
    assert!(joined[0].1 .0.starts_with("1\talpha") && joined[0].1 .1.starts_with("2\talpha"));
    for job in &outcome.stage3.jobs {
        assert_eq!(job.counter("stage3.participants"), 1, "{}", job.name);
        assert_eq!(job.counter("stage3.records_filtered"), 1, "{}", job.name);
        assert_eq!(job.map_output_records, 1 + 1, "one record, one pair");
    }
}

/// Relations are told apart on a path boundary: an R path that merely
/// begins with the S path is still R (a prefix match tagged every R record
/// S and came back with no pair, and no error). Joining a path with itself
/// is refused.
#[test]
fn relation_paths_match_on_a_path_boundary() {
    let (r, s) = crossed_relations();
    let config = JoinConfig::recommended();
    for (r_path, s_path) in [("/r", "/s"), ("/s-small", "/s"), ("/in/s2", "/in/s")] {
        for stage3 in [Stage3Algo::Brj, Stage3Algo::Oprj] {
            let c = cluster(2);
            c.dfs().write_text(r_path, &r).unwrap();
            c.dfs().write_text(s_path, &s).unwrap();
            let config = JoinConfig {
                stage3,
                ..config.clone()
            };
            let outcome = rs_join(&c, r_path, s_path, "/work", &config).unwrap();
            let joined = read_joined(&c, &outcome.joined_path).unwrap();
            let keys: Vec<(u64, u64)> = joined.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, [(1, 2)], "R at {r_path}, S at {s_path}, {stage3:?}");
        }
    }
    let c = cluster(2);
    c.dfs().write_text("/s", &s).unwrap();
    for s_path in ["/s", "/s/"] {
        let err = rs_join(&c, "/s", s_path, "/work", &config).unwrap_err();
        assert!(
            matches!(err, fuzzyjoin::MrError::InvalidConfig(_)),
            "{err:?}"
        );
    }
    assert!(c.dfs().list("/work").is_empty(), "refused before any job");
}

/// Semi-join edge cell (iii): an empty pair file names no record, so neither
/// job shuffles anything and the join commits an empty output.
#[test]
fn brj_over_an_empty_pair_file_shuffles_no_record() {
    let lines: Vec<String> = (0..20)
        .map(|i| format!("{i}\tonly{i}a only{i}b only{i}c only{i}d\tx\t"))
        .collect();
    let c = cluster(2);
    c.dfs().write_text("/records", &lines).unwrap();
    let outcome = self_join(&c, "/records", "/work", &JoinConfig::recommended()).unwrap();
    assert!(read_rid_pairs(&c, &outcome.ridpairs_path)
        .unwrap()
        .is_empty());
    let [fill, assemble] = &outcome.stage3.jobs[..] else {
        panic!("BRJ runs two jobs");
    };
    assert_eq!(fill.counter("stage3.records_filtered"), 20);
    assert_eq!(
        assemble.counter("stage3.records_filtered"),
        0,
        "none forwarded"
    );
    for job in [fill, assemble] {
        assert_eq!(job.counter("stage3.participants"), 0);
        assert_eq!(job.shuffle_records, 0);
        assert_eq!(job.shuffle_bytes, 0);
    }
    assert!(read_joined(&c, &outcome.joined_path).unwrap().is_empty());
}

#[test]
fn empty_input_produces_empty_output() {
    let c = cluster(2);
    c.dfs()
        .write_text("/records", Vec::<String>::new())
        .unwrap();
    let outcome = self_join(&c, "/records", "/work", &JoinConfig::recommended()).unwrap();
    assert!(read_joined(&c, &outcome.joined_path).unwrap().is_empty());
}

#[test]
fn scaled_dataset_scales_join_result() {
    let base = datagen::dblp(150, 42);
    let t = Threshold::jaccard(0.8);
    let mut counts = Vec::new();
    for factor in [1usize, 3] {
        let lines = datagen::to_lines(&datagen::increase(&base, factor));
        let c = cluster(4);
        c.dfs().write_text("/records", &lines).unwrap();
        let outcome = self_join(
            &c,
            "/records",
            "/work",
            &JoinConfig::recommended().with_threshold(t),
        )
        .unwrap();
        counts.push(read_joined(&c, &outcome.joined_path).unwrap().len());
    }
    assert!(counts[0] > 0);
    let ratio = counts[1] as f64 / counts[0] as f64;
    assert!(
        (2.0..=4.5).contains(&ratio),
        "x3 data should give ~3x results: {counts:?}"
    );
}

#[test]
fn report_lists_all_jobs() {
    let lines = corpus(3, 60);
    let c = cluster(2);
    c.dfs().write_text("/records", &lines).unwrap();
    let config = JoinConfig::recommended();
    let outcome = self_join(&c, "/records", "/work", &config).unwrap();
    let report = fuzzyjoin::run_report(&outcome, &config, None);
    let stages = report.get("stages").and_then(Json::as_arr).unwrap();
    let jobs: Vec<Vec<&str>> = stages
        .iter()
        .map(|stage| {
            let jobs = stage.get("jobs").and_then(Json::as_arr).unwrap();
            jobs.iter()
                .map(|job| job.get("name").and_then(Json::as_str).unwrap())
                .collect()
        })
        .collect();
    assert_eq!(
        jobs,
        [
            vec!["stage1-bto-count", "stage1-bto-sort"],
            vec!["stage2-pk"],
            vec!["stage3-brj-fill", "stage3-brj-assemble"],
        ]
    );
    let totals = report.get("totals").unwrap();
    assert_eq!(
        totals.get("shuffle_bytes").and_then(Json::as_u64),
        Some(outcome.shuffle_bytes())
    );
}

#[test]
fn other_measures_match_naive_end_to_end() {
    // Cosine, Dice, and overlap thresholds through the full pipeline.
    let lines = corpus(91, 120);
    let tok = WordTokenizer::new();
    let parsed: Vec<(u64, String)> = lines
        .iter()
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f[0].parse().unwrap(), format!("{} {}", f[1], f[2]))
        })
        .collect();
    let lists: Vec<Vec<String>> = parsed.iter().map(|(_, a)| tok.tokenize(a)).collect();
    let order = TokenOrder::from_corpus(&lists);
    let sets: Vec<(u64, Vec<u32>)> = parsed
        .iter()
        .zip(&lists)
        .map(|((rid, _), l)| (*rid, order.project(l)))
        .collect();

    for t in [
        Threshold::cosine(0.85),
        Threshold::dice(0.85),
        Threshold::overlap(8),
    ] {
        let expected: Vec<(u64, u64)> = naive::self_join(&sets, &t)
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect();
        let c = cluster(3);
        c.dfs().write_text("/records", &lines).unwrap();
        let config = JoinConfig::recommended().with_threshold(t);
        let outcome = self_join(&c, "/records", "/work", &config).unwrap();
        let got: Vec<(u64, u64)> = read_joined(&c, &outcome.joined_path)
            .unwrap()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, expected, "measure {t:?}");
    }
}

#[test]
fn qgram_tokenization_end_to_end_matches_naive() {
    use setsim::QGramTokenizer;
    let lines: Vec<String> = datagen::dna_to_lines(&datagen::generate_dna(&datagen::DnaConfig {
        records: 120,
        mean_length: 60,
        mutant_probability: 0.3,
        max_mutations: 2,
        seed: 17,
    }));
    let t = Threshold::jaccard(0.85);
    // Naive ground truth over 3-gram sets.
    let tok = QGramTokenizer::new(3);
    let parsed: Vec<(u64, Vec<String>)> = lines
        .iter()
        .map(|l| {
            let mut f = l.split('\t');
            (
                f.next().unwrap().parse().unwrap(),
                tok.tokenize(f.next().unwrap()),
            )
        })
        .collect();
    let lists: Vec<Vec<String>> = parsed.iter().map(|(_, g)| g.clone()).collect();
    let order = TokenOrder::from_corpus(&lists);
    let sets: Vec<(u64, Vec<u32>)> = parsed
        .iter()
        .map(|(rid, g)| (*rid, order.project(g)))
        .collect();
    let expected: Vec<(u64, u64)> = naive::self_join(&sets, &t)
        .into_iter()
        .map(|(a, b, _)| (a, b))
        .collect();
    assert!(!expected.is_empty(), "mutants must join at 0.85");

    let c = cluster(3);
    c.dfs().write_text("/dna", &lines).unwrap();
    let config = JoinConfig {
        format: fuzzyjoin::RecordFormat::two_column(),
        tokenizer: fuzzyjoin::TokenizerKind::QGram(3),
        ..JoinConfig::recommended()
    }
    .with_threshold(t);
    let outcome = self_join(&c, "/dna", "/work", &config).unwrap();
    let got: Vec<(u64, u64)> = read_joined(&c, &outcome.joined_path)
        .unwrap()
        .iter()
        .map(|(k, _)| *k)
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn pipeline_survives_flaky_tasks() {
    // With retries enabled and an engine-level transient fault injected via
    // a tiny spill buffer + normal operation, results stay exact. (True
    // fault injection lives in the mapreduce engine tests; here we assert
    // the pipeline is correct under a retry-enabled config.)
    let lines = corpus(8, 100);
    let t = Threshold::jaccard(0.8);
    let expected = naive_pairs(&lines, &t);
    let mut cc = ClusterConfig::with_nodes(3);
    cc.max_task_attempts = 3;
    cc.spill_buffer_bytes = 2048;
    let c = Cluster::new(cc, 2048).unwrap();
    c.dfs().write_text("/records", &lines).unwrap();
    let outcome = self_join(&c, "/records", "/work", &JoinConfig::recommended()).unwrap();
    let got: Vec<(u64, u64)> = read_joined(&c, &outcome.joined_path)
        .unwrap()
        .iter()
        .map(|(k, _)| *k)
        .collect();
    assert_eq!(got, expected);
}

/// Hidden worker entry for `MR_BACKEND=process`: the driver re-spawns this
/// test binary as worker processes that land here. In a normal test run
/// the worker env var is unset and this is an instant no-op pass.
#[test]
fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}
