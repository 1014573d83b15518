//! Skew-adaptive routing test wall: plan invariants, chaos, and
//! crash/resume with splitting active.
//!
//! Four layers:
//!
//! 1. **Plan invariants** (proptest): for arbitrary plans and records,
//!    any two records of a split group share at least one bucket-pair
//!    key (pair completeness — the property that makes splitting safe),
//!    replication never exceeds the configured bucket cap, unsplit
//!    groups pass through routing untouched, the planner never splits a
//!    group below the hot threshold, and the owner of every similar pair
//!    is a key both of its records were routed to.
//! 2. **Exactly once under a split**: similar pairs whose records fall
//!    in the same bucket of a split group (they meet in every sub-key of
//!    that bucket's row and column) and in different buckets each leave
//!    one raw stage-2 line.
//! 3. **Chaos**: the aggressive seeded fault plan composed with forced
//!    splitting must still commit output bitwise identical to a
//!    fault-free *unsplit* run — faults and replication may not
//!    interact to change pairs. The seed comes from `CHAOS_SEED`.
//! 4. **Crash/resume**: an injected driver crash at every job index
//!    (both crash kinds) with splitting active resumes to output
//!    bitwise identical to the unsplit fault-free baseline, with
//!    committed jobs skipped via their manifests; and because the skew
//!    config is covered by the stage-2 fingerprint tag, toggling it
//!    invalidates the kernel stage while the token order is reused.
//!
//! `MR_BACKEND` selects the executor (the CI `skew` job sweeps all
//! three); the hidden `process_worker_entry` test hosts re-spawned
//! worker processes.

use std::collections::BTreeSet;
use std::sync::{Arc, Once};

use fuzzyjoin::keys::{owner_key, plain, Member, Ownership, REL_R};
use fuzzyjoin::{
    build_skew_plan, read_joined, read_rid_pairs, routing_groups, rs_join, self_join, Cluster,
    ClusterConfig, FaultPlan, JoinConfig, JoinOutcome, SkewConfig, SkewPlan, Stage2Algo, Threshold,
    TokenRouting,
};
use mapreduce::SpaceSaving;
use proptest::prelude::*;
use setsim::first_common;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Injected panics are part of aggressive chaos plans; keep them off
/// stderr while letting genuine panics through.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected user-code panic") {
                prev(info);
            }
        }));
    });
}

fn cluster_with(faults: Option<FaultPlan>) -> Cluster {
    let config = ClusterConfig {
        max_task_attempts: 8,
        faults,
        backend: mapreduce::BackendKind::from_env(),
        ..ClusterConfig::with_nodes(3)
    };
    Cluster::new(config, 2048).unwrap()
}

/// A fresh driver over the SAME DFS as the crashed one, crash points and
/// one-shot corruption cleared — what a real resume does.
fn resume_cluster(crashed: &Cluster) -> Cluster {
    let mut faults = crashed.config().faults.clone();
    if let Some(p) = faults.as_mut() {
        p.crash_after = None;
        p.crash_mid = None;
        p.corrupt_path = None;
    }
    let config = ClusterConfig {
        faults,
        ..crashed.config().clone()
    };
    Cluster::with_dfs(config, crashed.dfs().clone()).unwrap()
}

/// The forced skew config every cell here uses: exact (stride-1) sample,
/// hot at 6 routed records, at most 4 buckets — low enough to really
/// split groups on the 80-record seeded corpora.
fn forced_skew() -> SkewConfig {
    SkewConfig::forced(6, 4)
}

/// Base config for the chaos/recovery cells: grouped routing concentrates
/// every record's prefix emissions onto 8 reduce groups, the shape where
/// hot groups actually form (under Individual routing the prefix tokens
/// are by construction the *rarest*, so the forced plan would be empty on
/// these corpora — the differential matrix covers that side).
fn grouped_config() -> JoinConfig {
    JoinConfig {
        routing: TokenRouting::Grouped { groups: 8 },
        ..JoinConfig::recommended()
    }
}

fn write_self_input(cluster: &Cluster) {
    let lines = datagen::to_lines(&datagen::dblp(80, 11));
    cluster.dfs().write_text("/records", &lines).unwrap();
}

fn write_rs_inputs(cluster: &Cluster) {
    let r = datagen::to_lines(&datagen::dblp(60, 11));
    // Guarantee overlap: S carries copies of every 4th R record.
    let mut s = datagen::to_lines(&datagen::citeseerx(40, 1011));
    for (i, line) in r.iter().enumerate().filter(|(i, _)| i % 4 == 0) {
        let mut fields: Vec<&str> = line.split('\t').collect();
        let rid = format!("{}", 10_000 + i);
        fields[0] = &rid;
        s.push(fields.join("\t"));
    }
    cluster.dfs().write_text("/r", &r).unwrap();
    cluster.dfs().write_text("/s", &s).unwrap();
}

/// Everything a run produces that splitting must not be able to change.
#[derive(Debug, PartialEq)]
struct RunOutput {
    rid_pairs: Vec<(u64, u64, f64)>,
    joined: Vec<(u64, u64, f64)>,
}

fn collect(cluster: &Cluster, outcome: &JoinOutcome) -> RunOutput {
    let rid_pairs = read_rid_pairs(cluster, &outcome.ridpairs_path).unwrap();
    assert!(
        rid_pairs
            .windows(2)
            .all(|w| (w[0].0, w[0].1) != (w[1].0, w[1].1)),
        "stage 2 wrote a pair twice"
    );
    RunOutput {
        rid_pairs,
        joined: read_joined(cluster, &outcome.joined_path)
            .unwrap()
            .into_iter()
            .map(|((a, b), (_, _, sim))| (a, b, sim))
            .collect(),
    }
}

/// Assert the run's skew plan really split something (rebuilding it from
/// the committed token order — the plan is a pure function of inputs,
/// tokens, and config), so the cell is not vacuously passing.
fn assert_plan_engaged(
    cluster: &Cluster,
    inputs: &[&str],
    outcome: &JoinOutcome,
    config: &JoinConfig,
) {
    let plan = build_skew_plan(cluster.dfs(), inputs, &outcome.tokens_path, config).unwrap();
    assert!(!plan.is_empty(), "forced skew plan split nothing");
}

fn kernels() -> [Stage2Algo; 2] {
    [Stage2Algo::Bk, Stage2Algo::Pk]
}

// ---------------------------------------------------------------------------
// Exactly once under a split
// ---------------------------------------------------------------------------

/// One routing group holds every record and is split four ways, so each
/// record is sent to the four sub-keys of its bucket's row and column. A
/// similar pair whose records share bucket `b` meets in all four of them,
/// one whose buckets differ meets only in `(min, max)`; either way stage 2
/// must write the pair on exactly one raw line.
#[test]
fn same_bucket_and_cross_bucket_pairs_leave_one_raw_line_each() {
    const BUCKETS: u32 = 4;
    let bucket = |rid: u64| SkewPlan::bucket_of(SkewPlan::rid_hash(rid), BUCKETS);
    // Twelve pairs of identical records over disjoint vocabularies: pair
    // `i` is (100 + i, partner), the partner's RID picked so that even
    // pairs share a bucket and odd pairs do not.
    let mut lines = Vec::new();
    let mut expected = Vec::new();
    let mut next = 1000u64;
    for i in 0..12u64 {
        let a = 100 + i;
        let same = i % 2 == 0;
        let b = (next..)
            .find(|&r| (bucket(r) == bucket(a)) == same)
            .unwrap();
        next = b + 1;
        let words: Vec<String> = (0..6).map(|w| format!("p{i}w{w}")).collect();
        for rid in [a, b] {
            lines.push(format!("{rid}\t{}\tx\t", words.join(" ")));
        }
        expected.push((a, b));
    }
    for stage2 in kernels() {
        let config = JoinConfig {
            stage2,
            routing: TokenRouting::Grouped { groups: 1 },
            skew: SkewConfig::forced(6, BUCKETS),
            ..JoinConfig::recommended()
        };
        let cluster = cluster_with(None);
        cluster.dfs().write_text("/records", &lines).unwrap();
        let outcome = self_join(&cluster, "/records", "/work", &config).unwrap();
        let plan =
            build_skew_plan(cluster.dfs(), &["/records"], &outcome.tokens_path, &config).unwrap();
        assert_eq!(plan.entries(), vec![(0, BUCKETS)], "the one group is split");
        let raw: Vec<(u64, u64)> = cluster
            .dfs()
            .read_text(&outcome.ridpairs_path)
            .unwrap()
            .iter()
            .map(|l| {
                let (a, b, _) = fuzzyjoin::stage2::parse_pair_line(l).unwrap();
                (a, b)
            })
            .collect();
        for pair in &expected {
            assert_eq!(
                raw.iter().filter(|p| *p == pair).count(),
                1,
                "{stage2:?}: pair {pair:?} (same bucket: {}) in {raw:?}",
                bucket(pair.0) == bucket(pair.1)
            );
        }
        assert_eq!(raw.len(), expected.len(), "{stage2:?}: {raw:?}");
    }
}

// ---------------------------------------------------------------------------
// Chaos with splitting active
// ---------------------------------------------------------------------------

/// BK and PK, self-join and R-S: aggressive chaos + forced splitting must
/// stay bitwise identical to the fault-free unsplit baseline — the joined
/// output and the sorted stage-2 RID pairs, each pair on one line in both
/// (which part file a pair lands in follows its owner key and may differ).
#[test]
fn chaos_with_forced_splitting_matches_fault_free_unsplit_run() {
    quiet_injected_panics();
    let plan = FaultPlan::aggressive(chaos_seed());
    for stage2 in kernels() {
        let off = JoinConfig {
            stage2,
            ..grouped_config()
        };
        let skewed = JoinConfig {
            skew: forced_skew(),
            ..off.clone()
        };

        // Self-join cell.
        let base_cluster = cluster_with(None);
        write_self_input(&base_cluster);
        let base = self_join(&base_cluster, "/records", "/work", &off).unwrap();
        let baseline = collect(&base_cluster, &base);
        assert!(!baseline.joined.is_empty(), "vacuous corpus for {stage2:?}");

        let chaos = cluster_with(Some(plan.clone()));
        write_self_input(&chaos);
        let outcome = self_join(&chaos, "/records", "/work", &skewed).unwrap();
        assert_eq!(
            collect(&chaos, &outcome),
            baseline,
            "{stage2:?} chaos + splitting changed the self-join output"
        );
        assert!(outcome.task_retries() > 0, "plan must engage ({stage2:?})");
        assert_plan_engaged(&chaos, &["/records"], &outcome, &skewed);

        // R-S cell.
        let base_cluster = cluster_with(None);
        write_rs_inputs(&base_cluster);
        let base = rs_join(&base_cluster, "/r", "/s", "/work", &off).unwrap();
        let baseline = collect(&base_cluster, &base);
        assert!(!baseline.joined.is_empty(), "vacuous R-S corpus");

        let chaos = cluster_with(Some(plan.clone()));
        write_rs_inputs(&chaos);
        let outcome = rs_join(&chaos, "/r", "/s", "/work", &skewed).unwrap();
        assert_eq!(
            collect(&chaos, &outcome),
            baseline,
            "{stage2:?} chaos + splitting changed the R-S output"
        );
        assert!(outcome.task_retries() > 0);
        assert_plan_engaged(&chaos, &["/r", "/s"], &outcome, &skewed);
    }
}

// ---------------------------------------------------------------------------
// Crash/resume with splitting active
// ---------------------------------------------------------------------------

/// Crash at every job index of the 5-job pipeline (both crash kinds) with
/// splitting active; every resume must converge to the unsplit fault-free
/// baseline, skipping exactly the committed jobs via their manifests. The
/// resumed driver rebuilds the identical plan from the surviving token
/// order (the plan is deterministic and its config is in the stage-2
/// fingerprint tag), so a committed split stage-2 job validates and skips.
#[test]
fn every_crash_point_resumes_bitwise_identical_with_splitting() {
    let off = grouped_config();
    let skewed = JoinConfig {
        skew: forced_skew(),
        ..off.clone()
    };
    let base_cluster = cluster_with(None);
    write_self_input(&base_cluster);
    let base = self_join(&base_cluster, "/records", "/work", &off).unwrap();
    let base_out = collect(&base_cluster, &base);
    assert!(!base_out.joined.is_empty(), "vacuous corpus");
    let total_jobs = base.all_jobs().count();
    assert_eq!(total_jobs, 5, "recommended combo runs 5 jobs");

    for point in 0..total_jobs {
        for mid in [false, true] {
            let plan = FaultPlan {
                crash_after: (!mid).then_some(point),
                crash_mid: mid.then_some(point),
                ..FaultPlan::quiet(0)
            };
            let crashed = cluster_with(Some(plan));
            write_self_input(&crashed);
            let err = self_join(&crashed, "/records", "/work", &skewed).unwrap_err();
            assert!(err.is_driver_crash(), "point {point} mid={mid}: {err:?}");

            let fresh = resume_cluster(&crashed);
            let outcome = self_join(&fresh, "/records", "/work", &skewed).unwrap();
            assert_eq!(
                collect(&fresh, &outcome),
                base_out,
                "resumed split output diverged (point {point}, mid={mid})"
            );
            let committed = if mid { point } else { point + 1 };
            assert_eq!(
                outcome.recovery.jobs_skipped.len(),
                committed,
                "point {point} mid={mid}: {:?}",
                outcome.recovery
            );
            assert_eq!(
                outcome.recovery.jobs_rerun.len(),
                total_jobs - committed,
                "point {point} mid={mid}: {:?}",
                outcome.recovery
            );
            assert_plan_engaged(&fresh, &["/records"], &outcome, &skewed);
        }
    }
}

/// Resuming over a *completed* split run is a no-op — the deterministic
/// plan revalidates every manifest — while toggling the skew config
/// invalidates the kernel stage (its fingerprint tag covers the config)
/// but reuses the skew-independent token order.
#[test]
fn toggling_skew_invalidates_the_kernel_but_reuses_the_token_order() {
    let off = grouped_config();
    let skewed = JoinConfig {
        skew: forced_skew(),
        ..off.clone()
    };
    let cluster = cluster_with(None);
    write_self_input(&cluster);
    let base = self_join(&cluster, "/records", "/work", &skewed).unwrap();
    let base_out = collect(&cluster, &base);
    assert_plan_engaged(&cluster, &["/records"], &base, &skewed);

    // Same config: every manifest validates, nothing re-runs.
    let fresh = resume_cluster(&cluster);
    let resumed = self_join(&fresh, "/records", "/work", &skewed).unwrap();
    assert_eq!(resumed.recovery.jobs_skipped.len(), 5, "no-op resume");
    assert!(resumed.recovery.jobs_rerun.is_empty());
    assert_eq!(collect(&fresh, &resumed), base_out);

    // Skew off: the stage-2 tag changes, so the kernel re-runs; stage 1 is
    // skew-independent and must be reused. The unsplit kernel writes the
    // same pairs from differently keyed reducers, so stage 3's fill job
    // re-runs off the changed part files — but the fills it writes are
    // identical (their order comes from the shuffle's sort on `(rid, tag,
    // partner)`, not from the order the pairs arrived in), so the final
    // assemble job's fingerprint revalidates and it is skipped: integrity
    // chains on content, not on what ran. The output cannot change.
    let fresh = resume_cluster(&cluster);
    let resumed = self_join(&fresh, "/records", "/work", &off).unwrap();
    assert_eq!(
        resumed.recovery.jobs_skipped,
        ["stage1-bto-count", "stage1-bto-sort", "stage3-brj-assemble"],
        "token order is skew-independent and must be reused: {:?}",
        resumed.recovery
    );
    assert!(
        resumed
            .recovery
            .jobs_rerun
            .iter()
            .any(|j| j.contains("stage2")),
        "{:?}",
        resumed.recovery.jobs_rerun
    );
    assert_eq!(
        collect(&fresh, &resumed),
        base_out,
        "toggling skew must not change the committed pairs"
    );
}

// ---------------------------------------------------------------------------
// Plan invariants (property tests)
// ---------------------------------------------------------------------------

/// Arbitrary plans: a handful of groups, 2–8 buckets each (duplicate
/// groups collapse to the last drawn bucket count).
fn plan_entries() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..1000, 2u32..=8), 1..6).prop_map(|pairs| {
        pairs
            .into_iter()
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pair completeness: any two records of a split group share at least
    /// one bucket-pair key, and each record's replication stays within
    /// the group's bucket count.
    #[test]
    fn split_records_always_share_a_reduce_key(
        entries in plan_entries(),
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let plan = SkewPlan::from_entries(entries.clone());
        for (g, b) in entries {
            let kx: BTreeSet<u32> = plan.keys_for(g, x).unwrap().iter().copied().collect();
            let ky: BTreeSet<u32> = plan.keys_for(g, y).unwrap().iter().copied().collect();
            prop_assert!(
                kx.intersection(&ky).next().is_some(),
                "records {x} and {y} of group {g} share no bucket-pair key"
            );
            prop_assert!(kx.len() <= b as usize, "replication beyond the bucket count");
            prop_assert!(!kx.is_empty());
        }
    }

    /// Routing: unsplit groups pass through untouched, the emitted key
    /// count is bounded by |groups| × max replication, and the hot count
    /// reports exactly the split groups the record hit.
    #[test]
    fn routing_bounds_replication_and_passes_cold_groups_through(
        entries in plan_entries(),
        groups in prop::collection::btree_set(0u32..2000, 0..12),
        rid in any::<u64>(),
    ) {
        let plan = SkewPlan::from_entries(entries);
        let mut routed: Vec<u32> = groups.iter().copied().collect();
        let hot = plan.route(&mut routed, rid);
        // The set the routing used to build, ascending as a set iterates.
        let mut expected = BTreeSet::new();
        for &g in &groups {
            match plan.keys_for(g, SkewPlan::rid_hash(rid)) {
                Some(keys) => expected.extend(keys),
                None => {
                    expected.insert(g);
                }
            }
        }
        prop_assert_eq!(&routed, &expected.into_iter().collect::<Vec<u32>>());
        prop_assert!(
            routed.len() <= groups.len() * plan.max_buckets().max(1) as usize,
            "replication exceeded the configured max"
        );
        for g in &groups {
            if plan.buckets_for(*g).is_none() {
                prop_assert!(routed.contains(g), "cold group {g} was rewritten");
            }
        }
        let expected_hot = groups.iter().filter(|g| plan.buckets_for(**g).is_some()).count();
        prop_assert_eq!(hot, expected_hot);
    }

    /// The planner's exact tail cutoff: with the sketch within capacity
    /// (estimates exact), a group is split iff its load clears the hot
    /// threshold, and bucket counts respect the configured cap.
    #[test]
    fn planner_splits_exactly_the_hot_groups(
        raw_counts in prop::collection::vec((0u32..64, 1u64..500), 1..32),
        hot_threshold in 1u64..200,
        split_max in 2u32..10,
    ) {
        let counts: std::collections::BTreeMap<u32, u64> = raw_counts.into_iter().collect();
        let mut sketch = SpaceSaving::new(counts.len().max(1));
        for (k, n) in &counts {
            sketch.add(*k, *n);
        }
        let sk = SkewConfig::forced(hot_threshold, split_max);
        let plan = fuzzyjoin::skew::plan_from_sketch(&sketch, &sk);
        for (g, b) in plan.entries() {
            prop_assert!((2..=split_max.max(2)).contains(&b));
            prop_assert!(counts[&g] >= hot_threshold, "cold group {g} was split");
        }
        for (g, n) in &counts {
            if *n >= hot_threshold {
                prop_assert!(plan.buckets_for(*g).is_some(), "hot group {g} was missed");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Ownership is sound: for a similar pair, the smallest token the two
    /// routing prefixes share is the smallest token the records share at
    /// all (what the indexed kernel's first touch sees), and the key it
    /// maps to is one **both** records were routed to — whatever the
    /// routing and the plan — does not depend on
    /// which record is named first, and is the only routing key whose
    /// reducer claims the pair.
    #[test]
    fn owner_of_a_similar_pair_is_a_key_both_records_were_routed_to(
        base in prop::collection::btree_set(0u32..60, 3..24),
        edits in prop::collection::vec((0usize..24, 0u32..60), 0..4),
        rids in (any::<u64>(), any::<u64>()),
        scheme in (0usize..4, 0u32..10),
        split in (any::<u64>(), 2u32..=8),
    ) {
        let threshold = [
            Threshold::jaccard(0.6),
            Threshold::cosine(0.7),
            Threshold::dice(0.7),
            Threshold::overlap(3),
        ][scheme.0];
        let routing = match scheme.1 {
            0 => TokenRouting::Individual,
            groups => TokenRouting::Grouped { groups },
        };
        // y: x with as many of the drawn token swaps as keep the pair
        // similar (none, at worst: a record is similar to its copy).
        let x: Vec<u32> = base.iter().copied().collect();
        let y = (0..=edits.len())
            .rev()
            .map(|kept| {
                let mut y = base.clone();
                for (drop, add) in &edits[..kept] {
                    y.remove(&x[drop % x.len()]);
                    y.insert(*add);
                }
                y.into_iter().collect::<Vec<u32>>()
            })
            .find(|y| threshold.matches(&x, y).is_some())
            .expect("a record joins its own copy");
        let prefix = |r: &[u32]| r[..threshold.probe_prefix_len(r.len())].to_vec();
        let m = first_common(&prefix(&x), &prefix(&y));
        prop_assert!(m.is_some(), "similar records share a prefix token");
        prop_assert_eq!(m, first_common(&x, &y));
        let m = m.unwrap();

        let groups = |ranks: &[u32]| {
            let mut groups = Vec::new();
            routing_groups(&threshold, routing, ranks, &mut groups);
            groups.into_iter().collect::<BTreeSet<u32>>()
        };
        let (gx, gy) = (groups(&x), groups(&y));
        // An arbitrary plan over the groups these records really use.
        let plan = SkewPlan::from_entries(
            gx.union(&gy)
                .enumerate()
                .filter(|(i, _)| split.0 >> (i % 64) & 1 == 1)
                .map(|(_, &g)| (g, split.1))
                .collect(),
        );
        let route = |groups: BTreeSet<u32>, rid| {
            let mut routed = groups.into_iter().collect();
            plan.route(&mut routed, rid);
            routed.into_iter().collect::<BTreeSet<u32>>()
        };
        let (rx, ry) = (route(gx, rids.0), route(gy, rids.1));
        let (mx, my) = (Member::new(rids.0), Member::new(rids.1));
        let owner = owner_key(routing, &plan, m, mx, my);
        prop_assert!(rx.contains(&owner), "x was not routed to the owner {owner}: {rx:?}");
        prop_assert!(ry.contains(&owner), "y was not routed to the owner {owner}: {ry:?}");
        prop_assert_eq!(owner, owner_key(routing, &plan, m, my, mx));
        // What the reducers ask: of the keys the records were routed to,
        // exactly the owner says yes — the per-pair form and the indexed
        // kernel's per-token form alike (the latter asked about another
        // token first, so its memo has to turn over).
        let config = JoinConfig {
            threshold,
            routing,
            ..JoinConfig::recommended()
        };
        let ownership = Ownership::new(&config, Arc::new(plan));
        for &k in rx.union(&ry) {
            let key = plain(k, 0, REL_R);
            prop_assert_eq!(ownership.owns(&key, m, mx, my), k == owner);
            let mut probe = ownership.probing(&key, mx);
            probe.owns(m + 1, || my);
            prop_assert_eq!(probe.owns(m, || my), k == owner, "key {}", k);
        }
    }
}

/// Hidden worker entry for `MR_BACKEND=process`: the driver re-spawns this
/// test binary as worker processes that land here. In a normal test run
/// the worker env var is unset and this is an instant no-op pass.
#[test]
fn process_worker_entry() {
    fuzzyjoin::register_process_jobs();
    mapreduce::process_worker_main();
}
