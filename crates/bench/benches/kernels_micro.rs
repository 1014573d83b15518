//! Microbenchmarks of the single-node kernels underneath stage 2: naive vs
//! All-Pairs vs PPJoin vs PPJoin+, plus the verification and codec hot
//! paths. These are the ablations DESIGN.md calls out for the filter stack.
//! `dfs_integrity` and `record_path` are the odd ones out: the DFS's
//! checksummed write and read paths, which every byte of every job crosses,
//! and what stages 1 and 2 do to every record before any kernel sees it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datagen::{DataRecord, GeneratorConfig};
use setsim::{
    allpairs, bitmap, intersection_size, naive, overlap_at_least, ppjoin, suffix, FilterConfig,
    Threshold, TokenBuf, TokenOrder, Tokenizer, WordTokenizer,
};

/// Tokenise `text(record)` and project it onto the corpus's own token order.
fn project(records: &[DataRecord], text: impl Fn(&DataRecord) -> String) -> Vec<(u64, Vec<u32>)> {
    let tok = WordTokenizer::new();
    let lists: Vec<Vec<String>> = records.iter().map(|r| tok.tokenize(&text(r))).collect();
    let order = TokenOrder::from_corpus(&lists);
    records
        .iter()
        .zip(&lists)
        .map(|(r, l)| (r.rid, order.project(l)))
        .collect()
}

fn projected_corpus(n: usize) -> Vec<(u64, Vec<u32>)> {
    project(&datagen::dblp(n, 7), DataRecord::join_attribute)
}

/// The shape of the benchmark's `zipf-lowtau-self` workload: DBLP-style
/// records over a Zipf-1.2 vocabulary, joined at τ 0.5, where a hot token's
/// posting list is most of the index and candidates outnumber pairs ~500:1.
fn zipf_corpus(n: usize) -> Vec<(u64, Vec<u32>)> {
    let mut config = GeneratorConfig::dblp(n, 7);
    config.zipf_exponent = 1.2;
    project(&datagen::generate(&config), DataRecord::join_attribute)
}

/// Title, authors and abstract of a CITESEERX-style record.
fn with_abstract(r: &DataRecord) -> String {
    format!(
        "{} {}",
        r.join_attribute(),
        r.abstract_text.as_deref().unwrap_or("")
    )
}

/// Sets of `lo..=hi` tokens: title, authors and the head of the abstract of
/// CITESEERX-style records.
fn long_corpus(n: usize, lo: usize, hi: usize) -> Vec<(u64, Vec<u32>)> {
    let mut sets = project(&datagen::citeseerx(n, 7), with_abstract);
    for (rid, tokens) in &mut sets {
        tokens.truncate(lo + (*rid as usize * 7) % (hi - lo + 1));
    }
    sets
}

fn bench_kernels(c: &mut Criterion) {
    let sets = projected_corpus(800);
    let t = Threshold::jaccard(0.8);
    let mut g = c.benchmark_group("selfjoin_kernels");
    g.sample_size(10);
    g.bench_function("naive", |b| b.iter(|| naive::self_join(&sets, &t)));
    g.bench_function("allpairs", |b| b.iter(|| allpairs::self_join(&sets, &t)));
    g.bench_function("ppjoin", |b| {
        b.iter(|| ppjoin::self_join(&sets, &t, FilterConfig::ppjoin()))
    });
    g.bench_function("ppjoin_plus", |b| {
        b.iter(|| ppjoin::self_join(&sets, &t, FilterConfig::ppjoin_plus()))
    });
    g.bench_function("prefix_only", |b| {
        b.iter(|| ppjoin::self_join(&sets, &t, FilterConfig::prefix_only()))
    });
    g.finish();
}

fn bench_zipf_lowtau(c: &mut Criterion) {
    let sets = zipf_corpus(6000);
    let t = Threshold::jaccard(0.5);
    let mut g = c.benchmark_group("zipf12_tau05_selfjoin");
    g.sample_size(5);
    g.bench_function("ppjoin", |b| {
        b.iter(|| ppjoin::self_join(&sets, &t, FilterConfig::ppjoin()))
    });
    g.bench_function("ppjoin_plus", |b| {
        b.iter(|| ppjoin::self_join(&sets, &t, FilterConfig::ppjoin_plus()))
    });
    g.finish();
}

/// What the kernel holds when it reaches the suffix filter: a pair that
/// passed the length and positional filters, the two records' bitmaps, the
/// positions after its last shared prefix token, the prefix overlap, and α.
struct Survivor<'a> {
    x: &'a [u32],
    y: &'a [u32],
    bx: u64,
    by: u64,
    seen_x: usize,
    seen_y: usize,
    overlap: usize,
    alpha: usize,
}

/// Every pair of `sets` that the kernel would hand to the suffix filter.
fn positional_survivors<'a>(sets: &'a [(u64, Vec<u32>)], t: &Threshold) -> Vec<Survivor<'a>> {
    let mut out = Vec::new();
    for (i, (_, x)) in sets.iter().enumerate() {
        for (_, y) in &sets[..i] {
            let (x, y) = if x.len() >= y.len() { (x, y) } else { (y, x) };
            if !t.length_compatible(x.len(), y.len()) {
                continue;
            }
            let alpha = t.overlap_needed(x.len(), y.len());
            let px = &x[..t.probe_prefix_len(x.len())];
            let py = &y[..t.index_prefix_len(y.len())];
            let Some(last) = px.iter().rposition(|tok| py.binary_search(tok).is_ok()) else {
                continue;
            };
            let seen_x = last + 1;
            let seen_y = py.binary_search(&px[last]).expect("just found") + 1;
            let overlap = intersection_size(&x[..seen_x], &y[..seen_y]);
            if overlap + (x.len() - seen_x).min(y.len() - seen_y) < alpha {
                continue;
            }
            out.push(Survivor {
                x,
                y,
                bx: bitmap::bitmap(x),
                by: bitmap::bitmap(y),
                seen_x,
                seen_y,
                overlap,
                alpha,
            });
        }
    }
    out
}

fn merge(s: &Survivor<'_>) -> bool {
    overlap_at_least(s.x, s.y, s.seen_x, s.seen_y, s.overlap, s.alpha).is_some()
}

fn suffix_probe(s: &Survivor<'_>) -> bool {
    suffix::suffix_survives(
        &s.x[s.seen_x..],
        &s.y[s.seen_y..],
        s.alpha.saturating_sub(s.overlap),
    )
}

fn bitmap_probe(s: &Survivor<'_>) -> bool {
    bitmap::overlap_bound(s.x.len(), s.y.len(), s.bx, s.by) >= s.alpha
}

/// Suffix filter against the early-terminating merge it is meant to save,
/// on the pairs the kernel would give it. This is the measurement behind
/// `setsim::suffix::MIN_PROBE_TOKENS` (the table is in its doc comment):
/// per pruned pair the probe costs 1.4–2.7× the saved merge on 8–12-token
/// sets, draws level at 24–48 and is the cheaper one at 64–128, which puts
/// the gate at 128 combined suffix tokens.
///
/// The `bitmap` rows run the kernel's bitmap filter on the same pairs (the
/// kernel runs it before the positional filter, at first touch); the group
/// name carries the share of them it prunes, which falls as the sets fill
/// the 64 bits.
fn bench_suffix_vs_merge(c: &mut Criterion) {
    let short: Vec<(u64, Vec<u32>)> = zipf_corpus(3000)
        .into_iter()
        .filter(|(_, s)| (8..=12).contains(&s.len()))
        .collect();
    let mid = long_corpus(1500, 24, 48);
    let long = long_corpus(1500, 64, 128);
    for (name, sets, tau) in [
        ("short_8_12_tau05", &short, 0.5),
        ("short_8_12_tau08", &short, 0.8),
        ("mid_24_48_tau05", &mid, 0.5),
        ("mid_24_48_tau08", &mid, 0.8),
        ("long_64_128_tau05", &long, 0.5),
        ("long_64_128_tau08", &long, 0.8),
    ] {
        let t = Threshold::jaccard(tau);
        let pairs = positional_survivors(sets, &t);
        let pruned = pairs.iter().filter(|s| !suffix_probe(s)).count();
        let bitmap_pruned = pairs.iter().filter(|s| !bitmap_probe(s)).count();
        let mut g = c.benchmark_group(format!(
            "suffix_vs_merge/{name}/{}_pairs_{}_pruned_bitmap_{}pct",
            pairs.len(),
            pruned,
            100 * bitmap_pruned / pairs.len().max(1)
        ));
        g.sample_size(20);
        g.bench_function("merge", |b| {
            b.iter(|| pairs.iter().filter(|s| merge(s)).count())
        });
        g.bench_function("suffix", |b| {
            b.iter(|| pairs.iter().filter(|s| suffix_probe(s)).count())
        });
        g.bench_function("suffix_then_merge", |b| {
            b.iter(|| pairs.iter().filter(|s| suffix_probe(s) && merge(s)).count())
        });
        g.bench_function("bitmap", |b| {
            b.iter(|| pairs.iter().filter(|s| bitmap_probe(s)).count())
        });
        g.bench_function("bitmap_then_merge", |b| {
            b.iter(|| pairs.iter().filter(|s| bitmap_probe(s) && merge(s)).count())
        });
        // The filter can only save the merges of the pairs it prunes.
        let doomed: Vec<&Survivor<'_>> = pairs.iter().filter(|s| !suffix_probe(s)).collect();
        g.bench_function("merge_of_pruned", |b| {
            b.iter(|| doomed.iter().filter(|s| merge(s)).count())
        });
        g.bench_function("suffix_of_pruned", |b| {
            b.iter(|| doomed.iter().filter(|s| suffix_probe(s)).count())
        });
        g.finish();
    }
}

fn bench_verify(c: &mut Criterion) {
    let t = Threshold::jaccard(0.8);
    let x: Vec<u32> = (0..200).map(|i| i * 3).collect();
    let y: Vec<u32> = (0..200).map(|i| i * 3 + (i % 10 == 0) as u32).collect();
    let mut g = c.benchmark_group("verify");
    g.bench_function("verify_pair_200", |b| {
        b.iter(|| setsim::verify_pair(&t, &x, &y))
    });
    g.bench_function("intersection_200", |b| {
        b.iter(|| setsim::intersection_size(&x, &y))
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    use mapreduce::Codec;
    let projection: (u64, Vec<u32>) = (123456, (0..40).collect());
    let encoded = projection.to_bytes();
    let mut g = c.benchmark_group("shuffle_codec");
    g.bench_with_input(
        BenchmarkId::new("encode_projection", encoded.len()),
        &projection,
        |b, p| {
            b.iter(|| {
                let mut buf = Vec::with_capacity(128);
                p.encode(&mut buf);
                buf
            })
        },
    );
    g.bench_function("decode_projection", |b| {
        b.iter(|| <(u64, Vec<u32>)>::from_bytes(&encoded).expect("decode"))
    });
    g.finish();
}

/// What the checksum costs where the pipeline pays it: a 16 MiB text file
/// written (CRC over every byte, block by block), verified (CRC again), laid
/// out for the map phase (headers only: one `BlockSplit` per block) and read
/// the way its map tasks read it (each block under its own CRC), all
/// through the public `Dfs` API, in a [`Dfs::new`] temp root.
fn bench_dfs_integrity(c: &mut Criterion) {
    use mapreduce::Dfs;
    let mut budget = 16usize << 20;
    let lines: Vec<String> = datagen::to_lines(&datagen::dblp(200_000, 7))
        .into_iter()
        .take_while(|line| {
            budget = budget.saturating_sub(line.len() + 1);
            budget > 0
        })
        .collect();
    let dfs = Dfs::new(10, 4 << 20).unwrap();
    dfs.write_text("/bench/in", &lines).expect("write");
    let bytes = dfs.file_len("/bench/in").expect("stat");
    let mut g = c.benchmark_group("dfs_integrity");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("write_text", |b| {
        b.iter_with_setup(
            || dfs.delete_prefix("/bench/out"),
            |_| dfs.write_text("/bench/out", &lines).expect("write"),
        )
    });
    g.bench_function("verify", |b| {
        b.iter(|| dfs.verify("/bench/in").expect("verify"))
    });
    g.bench_function("splits", |b| {
        b.iter(|| dfs.splits("/bench/in").expect("splits"))
    });
    let blocks = dfs.splits("/bench/in").expect("splits");
    g.bench_function("read_blocks", |b| {
        b.iter(|| {
            let read = |s| dfs.read_block(s).expect("block").len();
            blocks.iter().map(read).sum::<usize>()
        })
    });
    g.finish();
}

/// The record path: tokenizing through the `Vec<String>` collector against
/// the reused [`TokenBuf`], on DBLP-like join attributes (≈ 13 tokens, all
/// found by scanning) and CITESEERX-like ones with their abstracts (≈ 150
/// tokens, found through the table); projecting into a new vector against a
/// kept one; and stage 1's count of 50 000 records as one map task runs it.
fn bench_record_path(c: &mut Criterion) {
    use fuzzyjoin::{stage1::TokenCountMapper, JoinConfig};
    use mapreduce::{Cache, Counters, Dfs, Mapper, MemoryGauge, Phase, TaskContext, VecEmitter};

    let dblp = datagen::dblp(50_000, 7);
    let short: Vec<String> = dblp.iter().map(DataRecord::join_attribute).collect();
    let long: Vec<String> = datagen::citeseerx(5_000, 7)
        .iter()
        .map(with_abstract)
        .collect();
    let tok = WordTokenizer::new();
    let mut g = c.benchmark_group("record_path");
    g.sample_size(5);
    for (name, texts) in [("dblp", &short), ("citeseerx", &long)] {
        g.throughput(Throughput::Elements(texts.len() as u64));
        g.bench_function(format!("tokenize_vec/{name}"), |b| {
            b.iter(|| texts.iter().map(|t| tok.tokenize(t).len()).sum::<usize>())
        });
        g.bench_function(format!("tokenize_buf/{name}"), |b| {
            let mut buf = TokenBuf::new();
            b.iter(|| {
                let mut tokens = 0;
                for t in texts {
                    tok.tokenize_into(t, &mut buf);
                    tokens += buf.len();
                }
                tokens
            })
        });
    }

    let lists: Vec<Vec<String>> = short.iter().map(|t| tok.tokenize(t)).collect();
    let order = TokenOrder::from_corpus(&lists);
    g.throughput(Throughput::Elements(lists.len() as u64));
    g.bench_function("project/dblp", |b| {
        b.iter(|| lists.iter().map(|l| order.project(l).len()).sum::<usize>())
    });
    g.bench_function("project_into/dblp", |b| {
        let mut ranks = Vec::new();
        b.iter(|| {
            let mut total = 0;
            for l in &lists {
                order.project_into(l.iter().map(String::as_str), &mut ranks);
                total += ranks.len();
            }
            total
        })
    });
    g.bench_function("tokenize_project_buf/dblp", |b| {
        let (mut buf, mut ranks) = (TokenBuf::new(), Vec::new());
        b.iter(|| {
            let mut total = 0;
            for t in &short {
                tok.tokenize_into(t, &mut buf);
                order.project_buf(&buf, &mut ranks);
                total += ranks.len();
            }
            total
        })
    });

    let lines = datagen::to_lines(&dblp);
    let ctx = TaskContext::new(
        Phase::Map,
        0,
        0,
        1,
        Counters::new(),
        MemoryGauge::unlimited("bench"),
        Cache::new(),
        Dfs::new(1, 64).unwrap(),
    );
    let prototype = TokenCountMapper::new(&JoinConfig::recommended());
    g.throughput(Throughput::Elements(lines.len() as u64));
    g.bench_function("stage1_count/dblp", |b| {
        b.iter(|| {
            let mut mapper = prototype.clone();
            let mut out = VecEmitter::new();
            for line in &lines {
                mapper.map(&0, line, &mut out, &ctx).expect("map");
            }
            mapper.cleanup(&mut out, &ctx).expect("cleanup");
            out.pairs.len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_zipf_lowtau,
    bench_suffix_vs_merge,
    bench_verify,
    bench_codec,
    bench_dfs_integrity,
    bench_record_path
);
criterion_main!(benches);
