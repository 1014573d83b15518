//! The per-layer ladder: one small measurement per layer, on the workload's
//! own data, run after the traced sample in the same process.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fuzzyjoin::keys::{plain, REL_R, REL_S};
use fuzzyjoin::{JoinedPair, PairKey, Projection, Stage2Key};
use mapreduce::{
    natural_sort, seq_input, shuffle, sum_combiner, ByteReader, Codec, IdentityMapper,
    IdentityReducer, Job, MergeStream, Run,
};

use crate::corpus::{relation_file, Corpus};
use crate::reference::Reference;
use crate::sample::{self, R_PATH, S_PATH};
use crate::spec::{self, Workload};

/// A stage-2 map-output pair: what crosses the stage-2 shuffle.
pub type Pair = (Stage2Key, Projection);

/// Pairs the in-memory rungs work on at most.
const MAX_RUNG_PAIRS: usize = 200_000;
/// Pairs per run sent over the shuffle channel.
const CHANNEL_RUN_PAIRS: usize = 2_048;
/// Runs sent over the shuffle channel at least.
const CHANNEL_MIN_SENDS: usize = 20_000;

/// Median of the seconds `f` takes over `reps` calls. `f` returns the
/// seconds of its timed part, so set-up inside it stays untimed.
fn median_secs(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut secs: Vec<f64> = (0..reps).map(|_| f()).collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// The projected records as stage-2 pairs, keyed by first prefix token and
/// length class the way the stage-2 mapper keys them.
pub fn stage2_pairs(reference: &Reference) -> Vec<Pair> {
    let keyed = |records: &[setsim::Record], rel: u8| -> Vec<Pair> {
        records
            .iter()
            .map(|(rid, ranks)| {
                let group = ranks.first().copied().unwrap_or(0);
                (plain(group, ranks.len() as u32, rel), (*rid, ranks.clone()))
            })
            .collect()
    };
    let mut pairs = keyed(&reference.r, REL_R);
    if let Some(s) = &reference.s {
        pairs.extend(keyed(s, REL_S));
    }
    pairs
}

/// `codec`: encode and decode seconds per pair, and encoded bytes per pair.
pub struct CodecRung {
    /// Nanoseconds to encode one pair.
    pub encode_ns_per_rec: f64,
    /// Nanoseconds to decode one pair.
    pub decode_ns_per_rec: f64,
    /// Encoded bytes per pair.
    pub bytes_per_rec: f64,
}

/// Round-trip `pairs` through their `Codec`.
pub fn codec(pairs: &[Pair]) -> CodecRung {
    let pairs = &pairs[..pairs.len().min(MAX_RUNG_PAIRS)];
    let n = pairs.len().max(1) as f64;
    let mut buf: Vec<u8> = Vec::new();
    let encode_s = median_secs(5, || {
        buf.clear();
        let start = Instant::now();
        for (k, v) in pairs {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        black_box(&buf);
        start.elapsed().as_secs_f64()
    });
    let decode_s = median_secs(5, || {
        let start = Instant::now();
        let mut reader = ByteReader::new(&buf);
        for _ in 0..pairs.len() {
            let k = Stage2Key::decode(&mut reader).expect("own encoding decodes");
            let v = Projection::decode(&mut reader).expect("own encoding decodes");
            black_box((k, v));
        }
        start.elapsed().as_secs_f64()
    });
    CodecRung {
        encode_ns_per_rec: encode_s * 1e9 / n,
        decode_ns_per_rec: decode_s * 1e9 / n,
        bytes_per_rec: buf.len() as f64 / n,
    }
}

/// `run`: nanoseconds per record of `sort_and_combine` over stage 1's
/// `(token, 1)` map output with the sum combiner, which is where a combiner
/// runs in this pipeline.
pub fn sort_combine_ns_per_rec(token_counts: &[(String, u64)]) -> f64 {
    let cmp = natural_sort::<String>();
    let combiner = sum_combiner::<String>();
    let secs = median_secs(3, || {
        let input = token_counts.to_vec();
        let (mut combine_in, mut combine_out) = (0u64, 0u64);
        let start = Instant::now();
        let out = mapreduce::run::sort_and_combine(
            input,
            &cmp,
            Some(&combiner),
            &mut combine_in,
            &mut combine_out,
        );
        black_box(out);
        start.elapsed().as_secs_f64()
    });
    secs * 1e9 / token_counts.len().max(1) as f64
}

/// `run`: nanoseconds per record of `MergeStream::next_pair` merging
/// `fanin` sorted runs of stage-2 pairs.
pub fn merge_ns_per_rec(pairs: &[Pair], fanin: usize) -> f64 {
    let mut sorted = pairs[..pairs.len().min(MAX_RUNG_PAIRS)].to_vec();
    sorted.sort_by_key(|pair| pair.0);
    let mut dealt: Vec<Vec<Pair>> = vec![Vec::new(); fanin];
    for (i, pair) in sorted.iter().enumerate() {
        dealt[i % fanin].push(pair.clone());
    }
    let runs: Vec<Run> = dealt.iter().map(|run| Run::encode(run)).collect();
    let secs = median_secs(3, || {
        let start = Instant::now();
        let mut stream = MergeStream::<Stage2Key, Projection>::new(runs.clone(), natural_sort())
            .expect("own runs decode");
        while let Some(pair) = stream.next_pair().expect("own runs decode") {
            black_box(pair);
        }
        start.elapsed().as_secs_f64()
    });
    secs * 1e9 / sorted.len().max(1) as f64
}

/// `shuffle`: MB per second through one `shuffle::bounded` channel, one
/// producer and one consumer, sending encoded runs.
pub fn channel_mb_per_s(pairs: &[Pair], capacity: usize) -> f64 {
    let runs: Vec<Run> = pairs[..pairs.len().min(MAX_RUNG_PAIRS)]
        .chunks(CHANNEL_RUN_PAIRS)
        .map(Run::encode)
        .collect();
    let rounds = CHANNEL_MIN_SENDS.div_ceil(runs.len().max(1));
    let (tx, rx) = shuffle::bounded::<Run>(capacity);
    let start = Instant::now();
    let received: u64 = std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..rounds {
                for run in &runs {
                    if tx.send(run.clone()).is_err() {
                        return;
                    }
                }
            }
        });
        let mut bytes = 0u64;
        while let Some(run) = rx.recv() {
            bytes += run.len_bytes() as u64;
        }
        bytes
    });
    received as f64 / 1e6 / start.elapsed().as_secs_f64()
}

/// `dfs`: MB per second writing and reading text, and round-tripping a
/// sequence file, on the workload's store.
pub struct DfsRung {
    /// `write_text` of the inputs.
    pub write_mb_per_s: f64,
    /// `read_text` of the inputs.
    pub read_mb_per_s: f64,
    /// `write_seq` then `read_seq` of rows shaped like the joined output.
    pub seq_roundtrip_mb_per_s: f64,
}

/// Rows of the joined output's type, built from input lines: as many as the
/// join produces pairs, so the sequence file has the real output's size.
fn joined_rows(corpus: &Corpus, pairs: u64) -> Vec<(PairKey, JoinedPair)> {
    let right = corpus.s.as_ref().unwrap_or(&corpus.r);
    let n = (pairs as usize).clamp(1, corpus.r.len().min(right.len()) - 1);
    (0..n)
        .map(|i| {
            let key = (i as u64, i as u64 + 1);
            (key, (corpus.r[i].clone(), right[i + 1].clone(), 0.875))
        })
        .collect()
}

/// Time the DFS calls the benchmark's set-up and the join's output use.
pub fn dfs(
    workload: &Workload,
    corpus: &Corpus,
    pairs: u64,
    out_dir: &Path,
) -> Result<DfsRung, String> {
    let input_mb = corpus.input_bytes() as f64 / 1e6;
    // `load` is the write being measured.
    let (store, write_s) = sample::load(workload.backend, corpus, out_dir, "rung-dfs")?;
    let dfs = store.cluster.dfs();

    let start = Instant::now();
    black_box(dfs.read_text(R_PATH).map_err(|e| e.to_string())?);
    if corpus.s.is_some() {
        black_box(dfs.read_text(S_PATH).map_err(|e| e.to_string())?);
    }
    let read_s = start.elapsed().as_secs_f64();

    let rows = joined_rows(corpus, pairs);
    let start = Instant::now();
    dfs.write_seq("/rung/joined", &rows)
        .map_err(|e| e.to_string())?;
    let back: Vec<(PairKey, JoinedPair)> =
        dfs.read_seq("/rung/joined").map_err(|e| e.to_string())?;
    let seq_s = start.elapsed().as_secs_f64();
    let seq_mb = dfs.len_under("/rung/joined") as f64 / 1e6;
    black_box(back);

    Ok(DfsRung {
        write_mb_per_s: input_mb / write_s,
        read_mb_per_s: input_mb / read_s,
        seq_roundtrip_mb_per_s: 2.0 * seq_mb / seq_s,
    })
}

/// `engine`: wall seconds of a job whose mapper and reducer do nothing,
/// over `pairs` on the workload's backend: the framework's own cost.
pub fn identity_job(
    workload: &Workload,
    pairs: &[Pair],
    out_dir: &Path,
) -> Result<(f64, usize), String> {
    let store = sample::new_cluster(workload.backend, out_dir, "rung-identity")?;
    let cluster = &store.cluster;
    cluster
        .dfs()
        .write_seq("/rung/pairs", pairs)
        .map_err(|e| e.to_string())?;
    let inputs = seq_input::<Stage2Key, Projection>(cluster.dfs(), "/rung/pairs")
        .map_err(|e| e.to_string())?;
    let job = Job::new(
        "rung-identity",
        IdentityMapper::<Stage2Key, Projection>::new(),
        IdentityReducer::<Stage2Key, Projection>::new(),
    )
    .inputs(inputs)
    .output_seq("/rung/identity-out");
    let start = Instant::now();
    let metrics = cluster.run(job).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    if metrics.reduce_output_records != pairs.len() as u64 {
        return Err(format!(
            "identity job returned {} of {} records",
            metrics.reduce_output_records,
            pairs.len()
        ));
    }
    Ok((wall_s, pairs.len()))
}

/// `cli`: wall seconds of `fuzzyjoin_cli::run` joining the corpus files the
/// parent saved under `out_dir` to a TSV result file, and the pairs it
/// wrote.
pub fn cli_run(workload: &Workload, out_dir: &Path) -> Result<(f64, u64), String> {
    let pid = std::process::id();
    let out_file = out_dir.join(format!("cli-{pid}-out.tsv"));
    let dfs_root = out_dir.join(format!("cli-{pid}-dfs"));
    let path_arg = |p: &Path| p.to_string_lossy().into_owned();
    let input = |relation: &str| path_arg(&relation_file(out_dir, workload.name, relation));

    let mut args: Vec<String> = if workload.corpus.is_rs() {
        vec![
            "rsjoin".into(),
            "--r".into(),
            input("r"),
            "--s".into(),
            input("s"),
        ]
    } else {
        vec!["selfjoin".into(), "--input".into(), input("r")]
    };
    args.extend([
        "--out".into(),
        path_arg(&out_file),
        "--threshold".into(),
        workload.tau.to_string(),
        "--backend".into(),
        workload.backend.as_str().into(),
        "--nodes".into(),
        spec::NODES.to_string(),
    ]);
    if let fuzzyjoin::TokenRouting::Grouped { groups } = workload.routing {
        args.extend(["--groups".into(), groups.to_string()]);
    }
    if workload.skew_adaptive {
        args.extend(["--skew".into(), "adaptive".into()]);
    }
    if workload.on_disk() {
        // Without a root the CLI would put the store under /tmp, outside
        // the checkout.
        args.extend(["--dfs-root".into(), path_arg(&dfs_root)]);
    }

    let start = Instant::now();
    let result = fuzzyjoin_cli::run(&args);
    let wall_s = start.elapsed().as_secs_f64();
    let written = std::fs::read_to_string(&out_file).map(|text| text.lines().count() as u64);
    let _ = std::fs::remove_file(&out_file);
    let _ = std::fs::remove_dir_all(&dfs_root);
    result?;
    let written = written.map_err(|e| format!("read {}: {e}", out_file.display()))?;
    Ok((wall_s, written))
}
