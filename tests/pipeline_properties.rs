//! Workspace-level property tests: the full parallel pipeline against the
//! naive single-node oracle on randomly generated corpora.

use proptest::prelude::*;

use fuzzyjoin::{
    read_joined, self_join, Cluster, ClusterConfig, JoinConfig, RecordFormat, Stage2Algo,
    Stage3Algo, Threshold,
};
use setsim::{naive, TokenOrder, Tokenizer, WordTokenizer};

/// Random two-column record lines: `rid \t words`, with words drawn from a
/// small vocabulary so similar pairs are common.
fn corpus_strategy() -> impl Strategy<Value = Vec<String>> {
    let word = (0u32..30).prop_map(|i| format!("w{i}"));
    let attr = prop::collection::vec(word, 1..12);
    prop::collection::vec(attr, 1..40).prop_map(|attrs| {
        attrs
            .into_iter()
            .enumerate()
            .map(|(i, ws)| format!("{}\t{}", i + 1, ws.join(" ")))
            .collect()
    })
}

fn naive_ground_truth(lines: &[String], t: &Threshold) -> Vec<(u64, u64)> {
    let tok = WordTokenizer::new();
    let parsed: Vec<(u64, String)> = lines
        .iter()
        .map(|l| {
            let mut it = l.split('\t');
            (
                it.next().unwrap().parse().unwrap(),
                it.next().unwrap_or("").to_string(),
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

fn run_pipeline(lines: &[String], config: &JoinConfig) -> Vec<(u64, u64)> {
    let cluster = Cluster::new(ClusterConfig::with_nodes(3), 1024).unwrap();
    cluster.dfs().write_text("/in", lines).unwrap();
    let outcome = self_join(&cluster, "/in", "/work", config).unwrap();
    read_joined(&cluster, &outcome.joined_path)
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recommended configuration equals the naive oracle on arbitrary
    /// corpora and thresholds.
    #[test]
    fn recommended_pipeline_equals_naive(
        lines in corpus_strategy(),
        tau in prop_oneof![Just(0.5f64), Just(0.7), Just(0.8), Just(0.9), Just(1.0)],
    ) {
        let t = Threshold::jaccard(tau);
        let config = JoinConfig {
            format: RecordFormat::two_column(),
            ..JoinConfig::recommended()
        }
        .with_threshold(t);
        let expected = naive_ground_truth(&lines, &t);
        let got = run_pipeline(&lines, &config);
        prop_assert_eq!(got, expected);
    }

    /// BK, PK, and both Section-5 block kernels all agree with the oracle.
    #[test]
    fn every_kernel_equals_naive(lines in corpus_strategy()) {
        let t = Threshold::jaccard(0.7);
        let expected = naive_ground_truth(&lines, &t);
        for stage2 in [
            Stage2Algo::Bk,
            Stage2Algo::Pk,
            Stage2Algo::BkMapBlocks { blocks: 2 },
            Stage2Algo::BkReduceBlocks { blocks: 2 },
        ] {
            let config = JoinConfig {
                format: RecordFormat::two_column(),
                stage2,
                ..JoinConfig::recommended()
            }
            .with_threshold(t);
            let got = run_pipeline(&lines, &config);
            prop_assert_eq!(&got, &expected, "stage2 = {:?}", stage2);
        }
    }

    /// OPRJ and BRJ produce identical final output.
    #[test]
    fn stage3_variants_agree(lines in corpus_strategy()) {
        let t = Threshold::jaccard(0.7);
        let mut results = Vec::new();
        for stage3 in [Stage3Algo::Brj, Stage3Algo::Oprj] {
            let config = JoinConfig {
                format: RecordFormat::two_column(),
                stage3,
                ..JoinConfig::recommended()
            }
            .with_threshold(t);
            results.push(run_pipeline(&lines, &config));
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    /// The pipeline is deterministic: identical inputs, identical outputs,
    /// on any cluster size.
    #[test]
    fn pipeline_is_deterministic(lines in corpus_strategy(), nodes in 1usize..6) {
        let t = Threshold::jaccard(0.8);
        let config = JoinConfig {
            format: RecordFormat::two_column(),
            ..JoinConfig::recommended()
        }
        .with_threshold(t);
        let run = |n: usize| {
            let cluster = Cluster::new(ClusterConfig::with_nodes(n), 512).unwrap();
            cluster.dfs().write_text("/in", &lines).unwrap();
            let outcome = self_join(&cluster, "/in", "/work", &config).unwrap();
            read_joined(&cluster, &outcome.joined_path).unwrap()
        };
        prop_assert_eq!(run(nodes), run(nodes));
        prop_assert_eq!(run(nodes), run(1));
    }
}
