//! Property-based tests for the MapReduce substrate: codec round-trips, DFS
//! invariants, scheduling bounds, engine-vs-reference equivalence, and the
//! space-saving sketch against exact counts.

use proptest::prelude::*;

use mapreduce::{
    mem_input, natural_sort, schedule, text_input, ClosureMapper, ClosureReducer, Cluster,
    ClusterConfig, Codec, Dfs, Emit, Job, JobManifest, ManifestCheck, MergeStream, Run, SimTask,
    SpaceSaving, TaskContext, SLOTS_PER_NODE,
};

// ---------------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------------

fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = v.to_bytes();
    let back = T::from_bytes(&bytes).expect("decode");
    prop_assert_eq!(&back, v);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_roundtrips_primitives(
        a in any::<u64>(),
        b in any::<i64>(),
        c in any::<u32>(),
        d in any::<bool>(),
        e in any::<f64>().prop_filter("NaN != NaN", |f| !f.is_nan()),
    ) {
        roundtrip(&a)?;
        roundtrip(&b)?;
        roundtrip(&c)?;
        roundtrip(&d)?;
        roundtrip(&e)?;
    }

    #[test]
    fn codec_roundtrips_compounds(
        s in ".{0,40}",
        v in prop::collection::vec(any::<u32>(), 0..50),
        o in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    ) {
        roundtrip(&s)?;
        roundtrip(&v)?;
        roundtrip(&o)?;
        roundtrip(&(s.clone(), v.clone()))?;
        roundtrip(&((1u8, s), (v, 3.5f64)))?;
    }

    /// Concatenated encodings decode back in sequence — the shuffle's
    /// framing assumption.
    #[test]
    fn codec_streams_concatenate(pairs in prop::collection::vec((any::<u64>(), ".{0,12}"), 0..20)) {
        let mut buf = Vec::new();
        for (k, v) in &pairs {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        let mut r = mapreduce::ByteReader::new(&buf);
        let mut back = Vec::new();
        while !r.is_empty() {
            let k = u64::decode(&mut r).expect("key");
            let v = String::decode(&mut r).expect("value");
            back.push((k, v));
        }
        prop_assert_eq!(back, pairs);
    }

    /// Truncating any encoding never panics — it errors.
    #[test]
    fn codec_truncation_is_an_error(v in prop::collection::vec(any::<u64>(), 1..20)) {
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(Vec::<u64>::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over sorted runs that share keys, the merge yields exactly a stable
    /// sort of the runs' concatenation (equal keys in run order, the
    /// `(map task, spill)` order the reduce side relies on), and `peek_key`
    /// always names the key the next `next_pair` returns.
    #[test]
    fn merge_is_a_stable_sort_of_its_runs(
        runs in prop::collection::vec(prop::collection::vec(0u32..6, 0..12), 0..7),
    ) {
        let runs: Vec<Vec<(u32, (u32, u32))>> = runs
            .into_iter()
            .enumerate()
            .map(|(r, mut keys)| {
                keys.sort_unstable();
                let tag = |(i, k)| (k, (r as u32, i as u32));
                keys.into_iter().enumerate().map(tag).collect()
            })
            .collect();
        let mut expected = runs.concat();
        expected.sort_by_key(|(k, _)| *k);
        let encoded = runs.iter().map(|run| Run::encode(run)).collect();
        let mut merge = MergeStream::<u32, (u32, u32)>::new(encoded, natural_sort()).unwrap();
        let mut merged = Vec::new();
        loop {
            let peeked = merge.peek_key().copied();
            let next = merge.next_pair().unwrap();
            prop_assert_eq!(peeked, next.as_ref().map(|(k, _)| *k));
            match next {
                Some(pair) => merged.push(pair),
                None => break,
            }
        }
        prop_assert_eq!(merge.records_read(), expected.len() as u64);
        prop_assert_eq!(merged, expected);
    }
}

// ---------------------------------------------------------------------------
// DFS
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Text files round-trip through any block size, and splits repartition
    /// the exact same records.
    #[test]
    fn dfs_text_roundtrip(
        lines in prop::collection::vec("[a-zA-Z0-9 ]{0,30}", 0..40),
        block_size in 16usize..256,
        nodes in 1usize..6,
    ) {
        let dfs = Dfs::new(nodes, block_size);
        dfs.write_text("/f", &lines).unwrap();
        prop_assert_eq!(dfs.read_text("/f").unwrap(), lines.clone());
        let total: usize = text_input(&dfs, "/f")
            .unwrap()
            .iter()
            .map(|s| s.read(&dfs).unwrap().len())
            .sum();
        prop_assert_eq!(total, lines.len());
    }

    /// Seq files round-trip through any block size.
    #[test]
    fn dfs_seq_roundtrip(
        pairs in prop::collection::vec((any::<u64>(), ".{0,16}"), 0..40),
        block_size in 16usize..256,
    ) {
        let dfs = Dfs::new(3, block_size);
        dfs.write_seq("/s", &pairs).unwrap();
        prop_assert_eq!(dfs.read_seq::<u64, String>("/s").unwrap(), pairs);
    }

    /// Round-robin placement keeps node loads within one block of balanced.
    #[test]
    fn dfs_placement_is_balanced(
        n_lines in 10usize..100,
        nodes in 2usize..6,
    ) {
        let dfs = Dfs::new(nodes, 64);
        let lines: Vec<String> = (0..n_lines).map(|i| format!("record-{i:06}")).collect();
        dfs.write_text("/f", &lines).unwrap();
        let bytes = dfs.node_bytes();
        let blocks_max = bytes.iter().max().unwrap();
        let blocks_min = bytes.iter().min().unwrap();
        prop_assert!(blocks_max - blocks_min <= 80, "imbalance: {:?}", bytes);
    }
}

// ---------------------------------------------------------------------------
// scheduling
// ---------------------------------------------------------------------------

/// Hint-free tasks that run as long as expected.
fn healthy(durations: &[f64]) -> Vec<SimTask> {
    let task = |&duration| SimTask {
        duration,
        expected: duration,
        node_hint: None,
        input_bytes: 0,
    };
    durations.iter().map(task).collect()
}

/// The textbook list schedule, as the oracle: each task, in order, to the
/// slot that frees first.
fn list_schedule_makespan(durations: &[f64], slots: usize) -> f64 {
    let mut free_at = vec![0.0f64; slots];
    for d in durations {
        *free_at.iter_mut().min_by(|a, b| a.total_cmp(b)).unwrap() += d;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Without hints or stragglers `schedule` is the plain list schedule,
    /// to the bit.
    #[test]
    fn schedule_equals_plain_list_schedule_without_hints_or_stragglers(
        durations in prop::collection::vec(0.0f64..10.0, 0..80),
        nodes in 1usize..6,
    ) {
        let out = schedule(&healthy(&durations), nodes);
        let oracle = list_schedule_makespan(&durations, nodes * SLOTS_PER_NODE);
        prop_assert_eq!(out.makespan.to_bits(), oracle.to_bits());
        prop_assert!(out.races.is_empty());
        prop_assert_eq!((out.local_tasks, out.remote_tasks), (durations.len() as u64, 0));
    }

    /// Makespan bounds: max(duration) <= makespan <= sum(durations), and
    /// more slots never increase it.
    #[test]
    fn makespan_bounds(
        durations in prop::collection::vec(0.0f64..10.0, 1..80),
        nodes in 1usize..5,
    ) {
        let slots = nodes * SLOTS_PER_NODE;
        let m = schedule(&healthy(&durations), nodes).makespan;
        let max = durations.iter().copied().fold(0.0, f64::max);
        let sum: f64 = durations.iter().sum();
        prop_assert!(m >= max - 1e-9);
        prop_assert!(m <= sum + 1e-9);
        let m_more = schedule(&healthy(&durations), nodes + 1).makespan;
        prop_assert!(m_more <= m + 1e-9, "more slots worsened makespan");
        // Work conservation: makespan >= sum / slots.
        prop_assert!(m >= sum / slots as f64 - 1e-9);
    }

    /// Locality-aware scheduling never beats the no-penalty lower bound.
    #[test]
    fn locality_schedule_bounds(
        tasks in prop::collection::vec((0.0f64..5.0, 0usize..4, 0u64..10_000), 1..60),
        nodes in 1usize..5,
    ) {
        let specs: Vec<SimTask> = tasks
            .iter()
            .map(|&(duration, node, input_bytes)| SimTask {
                duration,
                expected: duration,
                node_hint: Some(node % nodes),
                input_bytes,
            })
            .collect();
        let out = schedule(&specs, nodes);
        let durations: Vec<f64> = tasks.iter().map(|t| t.0).collect();
        let ideal = list_schedule_makespan(&durations, nodes * SLOTS_PER_NODE);
        prop_assert!(out.makespan >= ideal - 1e-9, "locality beat the ideal");
        prop_assert_eq!(out.local_tasks + out.remote_tasks, tasks.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// engine vs reference
// ---------------------------------------------------------------------------

fn reference_word_count(lines: &[String]) -> Vec<(String, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    for line in lines {
        for w in line.split_whitespace() {
            *counts.entry(w.to_string()).or_insert(0u64) += 1;
        }
    }
    counts.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine computes exactly the reference word count for any input,
    /// topology, and block size — with and without a combiner.
    #[test]
    fn engine_word_count_equals_reference(
        lines in prop::collection::vec("[a-d ]{0,20}", 0..30),
        nodes in 1usize..5,
        block_size in 32usize..256,
        with_combiner in any::<bool>(),
    ) {
        let cluster = Cluster::new(ClusterConfig::with_nodes(nodes), block_size).unwrap();
        cluster.dfs().write_text("/in", &lines).unwrap();
        let mapper = ClosureMapper::new(
            |_k: &u64, line: &String, out: &mut dyn Emit<String, u64>, _ctx: &TaskContext| {
                for w in line.split_whitespace() {
                    out.emit(w.to_string(), 1)?;
                }
                Ok(())
            },
        );
        let reducer = ClosureReducer::new(
            |k: &String,
             vs: &mut dyn Iterator<Item = (String, u64)>,
             out: &mut dyn Emit<String, u64>,
             _ctx: &TaskContext| out.emit(k.clone(), vs.map(|(_, n)| n).sum()),
        );
        let mut job = Job::new("wc", mapper, reducer)
            .inputs(text_input(cluster.dfs(), "/in").unwrap())
            .output_seq("/out");
        if with_combiner {
            job = job.combiner(mapreduce::sum_combiner());
        }
        cluster.run(job).unwrap();
        let mut got: Vec<(String, u64)> = cluster.dfs().read_seq("/out").unwrap();
        got.sort();
        prop_assert_eq!(got, reference_word_count(&lines));
    }

    /// Jobs over in-memory splits behave identically regardless of how the
    /// records are split.
    #[test]
    fn split_count_does_not_change_results(
        records in prop::collection::vec((any::<u32>(), any::<u32>()), 1..50),
        splits in 1usize..8,
    ) {
        let run = |n: usize| {
            let cluster = Cluster::new(ClusterConfig::with_nodes(2), 1024).unwrap();
            let job = Job::new(
                "sum",
                mapreduce::IdentityMapper::<u32, u32>::new(),
                ClosureReducer::new(
                    |k: &u32,
                     vs: &mut dyn Iterator<Item = (u32, u32)>,
                     out: &mut dyn Emit<u32, u64>,
                     _ctx: &TaskContext| {
                        out.emit(*k, vs.map(|(_, v)| u64::from(v)).sum())
                    },
                ),
            )
            .inputs(mem_input("m", records.clone(), n))
            .output_seq("/out");
            cluster.run(job).unwrap();
            let mut out: Vec<(u32, u64)> = cluster.dfs().read_seq("/out").unwrap();
            out.sort();
            out
        };
        prop_assert_eq!(run(1), run(splits));
    }
}

// ---------------------------------------------------------------------------
// commit manifests under damage
// ---------------------------------------------------------------------------

/// Commit a two-part output directory with a valid `_SUCCESS` manifest and
/// return the manifest's JSON text.
fn committed_output(dfs: &Dfs) -> String {
    dfs.write_text("/out/part-00000", ["alpha", "beta"])
        .unwrap();
    dfs.write_text("/out/part-00001", ["gamma"]).unwrap();
    JobManifest::collect(dfs, "stage", 7, "/out")
        .unwrap()
        .write(dfs, "/out")
        .unwrap();
    dfs.read_text("/out/_SUCCESS").unwrap().join("\n")
}

/// Exactly what a resume driver does with `/out`: read the manifest and
/// validate it. `true` means the directory would be trusted and skipped.
fn would_trust(dfs: &Dfs) -> bool {
    match JobManifest::read(dfs, "/out") {
        Ok(Some(m)) => m.validate(dfs, "/out", 7) == ManifestCheck::Valid,
        Ok(None) | Err(_) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `_SUCCESS` holding any strict prefix of the manifest document — a
    /// driver killed mid-manifest-write — never validates and never panics;
    /// the job re-runs.
    #[test]
    fn truncated_manifest_never_validates(frac in 0.0f64..1.0) {
        let dfs = Dfs::new(1, 32);
        let text = committed_output(&dfs);
        let cut = ((text.len() as f64) * frac) as usize;
        prop_assert!(cut < text.len());
        let prefix = &text[..cut];
        dfs.delete("/out/_SUCCESS").unwrap();
        dfs.write_text("/out/_SUCCESS", [prefix]).unwrap();
        prop_assert!(
            !would_trust(&dfs),
            "a {cut}/{}-byte manifest prefix must not validate",
            text.len()
        );
    }

    /// Flipping any single bit of the *stored* `_SUCCESS` container on disk
    /// never tricks validation into trusting altered content. CRC-32
    /// detects every single-bit payload error, so a flip that touches the
    /// manifest bytes (or the stored CRC, kind, magic, or block table
    /// structure) is rejected before the manifest is parsed. The only flips
    /// that can still validate land in header metadata the reader does not
    /// consume — the `len` field and per-block node placements — and those
    /// leave the decoded manifest byte-identical, which the test checks.
    #[test]
    fn bit_flipped_success_container_never_validates(
        idx in any::<u64>(),
        bit in 0u32..8,
    ) {
        let dfs = Dfs::new_temp_disk(1, 32).unwrap();
        let original = committed_output(&dfs);
        let path = dfs.disk_root().unwrap().join("fs/out/_SUCCESS");
        let mut bytes = std::fs::read(&path).unwrap();
        let i = (idx % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        if would_trust(&dfs) {
            let reread = dfs.read_text("/out/_SUCCESS").unwrap().join("\n");
            prop_assert_eq!(
                reread,
                original,
                "container byte {} bit {} validated with altered content",
                i,
                bit
            );
        }
    }

    /// Fuzzing the manifest *text* (as if the damage slipped past the
    /// container CRC): never panics, and the only single-byte flips that
    /// can still validate are in the two fields validation deliberately
    /// ignores — the job name (informational) and the schema-version digit
    /// (forward-compatibility allows older versions).
    #[test]
    fn byte_flipped_manifest_json_is_detected_or_ignored_field(
        idx in any::<u64>(),
        bit in 0u32..8,
    ) {
        let dfs = Dfs::new(1, 32);
        let text = committed_output(&dfs);
        let i = (idx % text.len() as u64) as usize;
        let mut bytes = text.clone().into_bytes();
        bytes[i] ^= 1 << bit;
        let Ok(flipped) = String::from_utf8(bytes) else {
            // Not representable as a text line; the container layer would
            // have to carry it, and the test above covers raw bytes.
            return Ok(());
        };
        dfs.delete("/out/_SUCCESS").unwrap();
        dfs.write_text("/out/_SUCCESS", [flipped.as_str()]).unwrap();
        if would_trust(&dfs) {
            let job_val = text.find("\"job\":\"").unwrap() + "\"job\":\"".len();
            let job_span = job_val..job_val + "stage".len();
            let v_digit = text.find("\"v\":").unwrap() + "\"v\":".len();
            prop_assert!(
                job_span.contains(&i) || i == v_digit,
                "flip at byte {i} bit {bit} validated outside the ignored fields"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// space-saving sketch
// ---------------------------------------------------------------------------

/// Deterministic Zipf-like stream: key `k` is drawn with probability
/// ∝ `1/(k+1)^s` via inverse-CDF sampling over a precomputed weight
/// table, seeded with `StdRng` — the token-frequency shape the skew
/// router's sketch has to survive.
fn zipf_stream(seed: u64, universe: usize, exponent: f64, len: usize) -> Vec<u32> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let weights: Vec<f64> = (0..universe)
        .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let mut x = rng.random_range(0.0..total);
            for (k, w) in weights.iter().enumerate() {
                if x < *w {
                    return k as u32;
                }
                x -= w;
            }
            (universe - 1) as u32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Space-saving sketch vs the exact-count oracle on seeded Zipf
    /// streams: for every tracked key `count` is an upper bound and
    /// `count − error` an exact lower bound on the true frequency, the
    /// inherited error never exceeds `total/capacity`, every key heavier
    /// than `total/capacity` is tracked, and `heavy()` never overstates a
    /// guaranteed bound (the exact tail cutoff the skew router splits on).
    #[test]
    fn space_saving_bounds_hold_on_zipf_streams(
        seed in any::<u64>(),
        capacity in 4usize..48,
        exp_tenths in 8u32..25,
        len in 200usize..1200,
    ) {
        use std::collections::HashMap;
        let stream = zipf_stream(seed, 96, f64::from(exp_tenths) / 10.0, len);
        let mut exact: HashMap<u32, u64> = HashMap::new();
        let mut sketch = SpaceSaving::new(capacity);
        for k in &stream {
            *exact.entry(*k).or_insert(0) += 1;
            sketch.add(*k, 1);
        }
        prop_assert_eq!(sketch.total(), len as u64);
        let slack = sketch.total() / sketch.capacity() as u64;
        for (k, e) in sketch.entries() {
            let truth = exact.get(k).copied().unwrap_or(0);
            prop_assert!(e.count >= truth, "upper bound violated for {}", k);
            prop_assert!(e.at_least() <= truth, "lower bound violated for {}", k);
            prop_assert!(e.error <= slack, "error {} beyond total/capacity {}", e.error, slack);
        }
        // No heavy misses: every key above total/capacity is tracked.
        for (k, n) in &exact {
            if *n > slack {
                prop_assert!(sketch.estimate(k).is_some(), "heavy key {} missed", k);
            }
        }
        // Exact tail cutoff: heavy() bounds are true lower bounds.
        for (k, lb) in sketch.heavy(slack.max(1)) {
            prop_assert!(exact[&k] >= lb, "heavy() overstated {}", k);
        }
    }

    /// Batching invariance: coalescing consecutive duplicates into one
    /// weighted `add` yields the identical sketch (same entries, same
    /// estimates) — the determinism the driver's plan purity relies on.
    #[test]
    fn space_saving_is_batching_invariant(
        seed in any::<u64>(),
        capacity in 2usize..24,
        len in 50usize..400,
    ) {
        let stream = zipf_stream(seed, 24, 1.3, len);
        let mut unit = SpaceSaving::new(capacity);
        for k in &stream {
            unit.add(*k, 1);
        }
        let mut runs = SpaceSaving::new(capacity);
        let mut i = 0;
        while i < stream.len() {
            let mut j = i + 1;
            while j < stream.len() && stream[j] == stream[i] {
                j += 1;
            }
            runs.add(stream[i], (j - i) as u64);
            i = j;
        }
        prop_assert_eq!(unit.entries(), runs.entries());
    }
}
