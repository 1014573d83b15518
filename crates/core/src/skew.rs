//! Skew-adaptive routing: splitting hot reduce keys by replication.
//!
//! Grouped-token routing bounds reducer load only when token frequencies
//! are benign; on a Zipf-skewed corpus one hot prefix token serializes
//! stage 2 on a single reducer. This module closes the loop the
//! heavy-hitter report only *warns* about: a cheap driver-side sampling
//! pre-pass estimates per-group load with a space-saving sketch
//! ([`mapreduce::SpaceSaving`]), and every group whose **guaranteed** load
//! clears the hot threshold is split into `B` buckets of candidate
//! records. Mappers then replicate each record of a hot group to the
//! bucket *pairs* involving its own bucket — the triangle/cross scheme of
//! Afrati & Ullman's reducer-capacity model — so every candidate pair
//! still meets in at least one reduce group:
//!
//! ```text
//! record x (bucket bx) emits keys {(min(bx,i), max(bx,i)) : i in 0..B}
//! record y (bucket by) emits keys {(min(by,i), max(by,i)) : i in 0..B}
//! → both emit (min(bx,by), max(bx,by))           — pair completeness
//! ```
//!
//! Each record of a hot group is replicated `B` times (its row and column
//! of the bucket-pair triangle), and the group fans out into `B(B+1)/2`
//! reduce keys whose largest candidate set is ~`2/B` of the original, so
//! replication buys a per-reducer load bound. Two records of *different*
//! buckets meet in exactly one sub-key, `(min(bx,by), max(bx,by))`; two
//! records of the *same* bucket `b` share their whole row and column and
//! meet in all `B` sub-keys `(min(b,i), max(b,i))`. Which of those emits
//! the pair is the reducers' ownership rule ([`crate::keys::owner_key`]):
//! the bucket pair itself, so `(b, b)` for a same-bucket pair. Every pair
//! is therefore still verified and written once, and committed output is
//! **bitwise identical** to an unsplit run — the differential wall in
//! `tests/differential.rs` enforces exactly that.
//!
//! The plan is a pure function of `(inputs, token order, config)`:
//! sampling is deterministic (fixed stride over the input lines in DFS
//! file order), the sketch breaks ties by key, and the resume fingerprint
//! covers inputs by content and the skew config via the stage-2 tag, so
//! crash/resume sees the identical plan and can safely skip committed
//! stage-2 output.

use std::collections::BTreeMap;
use std::fmt;

use mapreduce::{codec_enum, codec_struct, stable_hash, Dfs, MrError, Result, SpaceSaving};
use setsim::TokenOrder;

use crate::config::{JoinConfig, TokenRouting};
use crate::keys::routing_groups;
use crate::tokenizer_cache::CachedTokenizer;

/// Whether the skew control loop is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkewMode {
    /// No sampling pre-pass, no splitting (the paper's behaviour).
    #[default]
    Off,
    /// Sample the input, split hot routing groups into bucket pairs.
    Adaptive,
}

impl SkewMode {
    /// Parse a CLI spelling: `off` or `adaptive`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "off" => Ok(SkewMode::Off),
            "adaptive" => Ok(SkewMode::Adaptive),
            _ => Err(MrError::InvalidConfig(format!(
                "skew mode must be off or adaptive, got {s:?}"
            ))),
        }
    }
}

impl fmt::Display for SkewMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkewMode::Off => write!(f, "off"),
            SkewMode::Adaptive => write!(f, "adaptive"),
        }
    }
}

/// Configuration of the skew-adaptive routing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewConfig {
    /// Whether splitting is enabled at all.
    pub mode: SkewMode,
    /// Hard cap on buckets per split group (replication factor ≤ this).
    pub split_max: u32,
    /// A group is hot when its estimated routed-record count reaches this;
    /// the bucket count targets ~`hot_threshold` records per bucket pair.
    /// The pre-pass's sample rate follows from it (`pre_pass_stride`).
    pub hot_threshold: u64,
}

/// Distinct groups the pre-pass's space-saving sketch tracks.
const SKETCH_CAPACITY: usize = 512;

/// The pre-pass samples every `stride`-th input line, with the stride
/// derived from the hot threshold so that a group at the threshold gets
/// about 256 sampled hits: `(hot_threshold / 256).clamp(1, 16)`. Thresholds
/// under 512 are sampled exactly; the default 4096 samples at 16.
fn pre_pass_stride(hot_threshold: u64) -> u64 {
    (hot_threshold / 256).clamp(1, 16)
}

impl SkewConfig {
    /// Splitting disabled (the default).
    pub fn off() -> Self {
        SkewConfig {
            mode: SkewMode::Off,
            split_max: 8,
            hot_threshold: 4096,
        }
    }

    /// Adaptive splitting with default knobs.
    pub fn adaptive() -> Self {
        SkewConfig {
            mode: SkewMode::Adaptive,
            ..Self::off()
        }
    }

    /// Adaptive splitting with a forced-low hot threshold, so splitting
    /// triggers even on small test corpora (and, under 512, the sample is
    /// exact).
    pub fn forced(hot_threshold: u64, split_max: u32) -> Self {
        SkewConfig {
            mode: SkewMode::Adaptive,
            split_max,
            hot_threshold,
        }
    }
}

impl Default for SkewConfig {
    fn default() -> Self {
        Self::off()
    }
}

codec_enum!(SkewMode ("skew mode") { 0 => Off, 1 => Adaptive });
codec_struct!(SkewConfig {
    mode,
    split_max,
    hot_threshold,
});

/// Salt distinguishing synthesized split keys from each other; collisions
/// with ordinary group ids (or between split keys) are harmless — they
/// only co-locate extra candidates, and a pair's owner is still one `u32`.
const SPLIT_KEY_SALT: u32 = 0x534B_4557; // "SKEW"

/// The synthesized routing key for bucket pair `(i, j)` of split group
/// `group` (callers pass `i <= j`).
pub fn split_key(group: u32, i: u32, j: u32) -> u32 {
    stable_hash(&(SPLIT_KEY_SALT, group, i, j)) as u32
}

/// One split group: its bucket count and the routing keys of its bucket
/// pairs, hashed once when the plan is built.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Split {
    buckets: u32,
    /// `keys[i * buckets + j]` is the key of bucket pair `{i, j}`, so row
    /// `b` holds the keys a record of bucket `b` is routed to.
    keys: Vec<u32>,
}

impl Split {
    fn new(group: u32, buckets: u32) -> Self {
        let keys = (0..buckets)
            .flat_map(|i| (0..buckets).map(move |j| split_key(group, i.min(j), i.max(j))))
            .collect();
        Split { buckets, keys }
    }

    fn row(&self, bucket: u32) -> &[u32] {
        let b = self.buckets as usize;
        &self.keys[bucket as usize * b..][..b]
    }
}

/// The routing plan: which groups are split, into how many buckets.
///
/// Built once per stage-2 job by [`build_plan`] and shipped to workers in
/// the remote job payload, so the process backend routes identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SkewPlan {
    /// `group → split` (every bucket count ≥ 2).
    splits: BTreeMap<u32, Split>,
}

impl SkewPlan {
    /// The empty plan: no group is split, routing is unchanged.
    pub fn empty() -> Self {
        SkewPlan::default()
    }

    /// Rebuild a plan from wire entries (bucket counts < 2 are dropped —
    /// they would mean "not split").
    pub fn from_entries(entries: Vec<(u32, u32)>) -> Self {
        SkewPlan {
            splits: entries
                .into_iter()
                .filter(|&(_, b)| b >= 2)
                .map(|(g, b)| (g, Split::new(g, b)))
                .collect(),
        }
    }

    /// Plan entries as `(group, buckets)` in group order, for the wire.
    pub fn entries(&self) -> Vec<(u32, u32)> {
        self.splits.iter().map(|(&g, s)| (g, s.buckets)).collect()
    }

    /// Whether no group is split.
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
    }

    /// Number of split groups.
    pub fn len(&self) -> usize {
        self.splits.len()
    }

    /// Bucket count for `group`, if it is split.
    pub fn buckets_for(&self, group: u32) -> Option<u32> {
        self.splits.get(&group).map(|s| s.buckets)
    }

    /// Largest bucket count in the plan (the worst replication factor).
    pub fn max_buckets(&self) -> u32 {
        self.splits.values().map(|s| s.buckets).max().unwrap_or(0)
    }

    /// Total reduce keys the split groups fan out into: Σ `B(B+1)/2`.
    pub fn total_split_keys(&self) -> u64 {
        self.splits
            .values()
            .map(|s| u64::from(s.buckets) * u64::from(s.buckets + 1) / 2)
            .sum()
    }

    /// What a record's buckets are drawn from: a hash of its RID only —
    /// never of relation or length — so a record has the same bucket
    /// wherever it is looked at. Callers that place one record many times
    /// take it once.
    pub fn rid_hash(rid: u64) -> u64 {
        stable_hash(&rid)
    }

    /// The bucket, in a group split `buckets` ways, of the record whose
    /// [`rid_hash`](Self::rid_hash) is given.
    pub fn bucket_of(rid_hash: u64, buckets: u32) -> u32 {
        (rid_hash % u64::from(buckets)) as u32
    }

    /// Routing keys of a record (by [`rid_hash`](Self::rid_hash)) within
    /// split group `group`: its bucket's row and column of the bucket-pair
    /// triangle, indexed by the other bucket — entry `b` is the key it
    /// shares with the records of bucket `b`. `None` when the plan does not
    /// split `group`.
    pub fn keys_for(&self, group: u32, rid_hash: u64) -> Option<&[u32]> {
        let split = self.splits.get(&group)?;
        Some(split.row(Self::bucket_of(rid_hash, split.buckets)))
    }

    /// Apply the plan to a record's routing groups, ascending and
    /// deduplicated, in place: unsplit groups pass through, split groups
    /// are replaced by the record's bucket-pair keys, and the result is
    /// again ascending and deduplicated. Returns how many split groups the
    /// record hit.
    pub fn route(&self, groups: &mut Vec<u32>, rid: u64) -> usize {
        if self.splits.is_empty() {
            return 0;
        }
        let rid_hash = Self::rid_hash(rid);
        let base = groups.len();
        let mut hot = 0usize;
        for i in 0..base {
            if let Some(keys) = self.keys_for(groups[i], rid_hash) {
                hot += 1;
                groups.extend_from_slice(keys);
            }
        }
        if hot > 0 {
            // Drop the split groups themselves; their keys follow the first
            // `base` entries.
            let mut i = 0;
            groups.retain(|g| {
                i += 1;
                i > base || !self.splits.contains_key(g)
            });
            groups.sort_unstable();
            groups.dedup();
        }
        hot
    }

    /// Human labels for every synthesized split key, for the heavy-hitter
    /// report: `rank:G/split:I-J` (individual routing) or
    /// `group:G/split:I-J` (grouped).
    pub fn split_key_labels(&self, routing: TokenRouting) -> BTreeMap<u32, String> {
        let prefix = match routing {
            TokenRouting::Individual => "rank",
            TokenRouting::Grouped { .. } => "group",
        };
        let mut labels = BTreeMap::new();
        for (&g, split) in &self.splits {
            for i in 0..split.buckets {
                for (j, &key) in (i..).zip(&split.row(i)[i as usize..]) {
                    labels.insert(key, format!("{prefix}:{g}/split:{i}-{j}"));
                }
            }
        }
        labels
    }
}

/// Build the routing plan for a stage-2 job: stride-sample the record
/// inputs, project each sampled record through the stage-1 token order,
/// feed its routing groups (the *same* [`routing_groups`] the mapper
/// uses) into a space-saving sketch, and
/// split every group whose guaranteed load clears the hot threshold.
///
/// The cutoff uses the sketch's exact lower bound (`count − error`), so a
/// cold group is never split — replication is only paid where load is
/// provably present. Bucket counts target `hot_threshold` records per
/// bucket, clamped to `[2, split_max]`.
///
/// Malformed sample lines are skipped regardless of the bad-record
/// policy: the sample only shapes routing, and the mapper re-applies the
/// real policy to every record.
pub fn build_plan(
    dfs: &Dfs,
    inputs: &[&str],
    tokens_path: &str,
    config: &JoinConfig,
) -> Result<SkewPlan> {
    let sk = &config.skew;
    if sk.mode == SkewMode::Off {
        return Ok(SkewPlan::empty());
    }
    let order = TokenOrder::from_ordered_tokens(dfs.read_text(tokens_path)?)
        .map_err(MrError::TaskFailed)?;
    let mut tokenizer = CachedTokenizer::new(config.tokenizer);
    // One record's attribute, projection and routing groups, reused down
    // the sample.
    let mut attr = String::new();
    let mut ranks = Vec::new();
    let mut groups = Vec::new();
    let stride = pre_pass_stride(sk.hot_threshold);
    let mut sketch: SpaceSaving<u32> = SpaceSaving::new(SKETCH_CAPACITY);
    let mut line_no = 0u64;
    for input in inputs {
        for file in dfs.data_files(input) {
            for line in dfs.read_text(&file)? {
                let idx = line_no;
                line_no += 1;
                if !idx.is_multiple_of(stride) {
                    continue;
                }
                if config.format.parse_into(&line, &mut attr).is_err() {
                    continue;
                }
                order.project_buf(tokenizer.tokenize(&attr), &mut ranks);
                if ranks.is_empty() {
                    continue;
                }
                routing_groups(&config.threshold, config.routing, &ranks, &mut groups);
                for &g in &groups {
                    sketch.add(g, 1);
                }
            }
        }
    }
    Ok(plan_from_sketch(&sketch, sk))
}

/// Turn sketch estimates into a plan (factored out for property tests).
pub fn plan_from_sketch(sketch: &SpaceSaving<u32>, sk: &SkewConfig) -> SkewPlan {
    let stride = pre_pass_stride(sk.hot_threshold);
    let hot = sk.hot_threshold.max(1);
    // A group is hot when its guaranteed full-input load (sampled lower
    // bound × stride) reaches the threshold.
    let sampled_cutoff = hot.div_ceil(stride);
    let mut splits = BTreeMap::new();
    for (g, lower_bound) in sketch.heavy(sampled_cutoff) {
        let estimated = lower_bound.saturating_mul(stride);
        let buckets = (estimated.div_ceil(hot) as u32).clamp(2, sk.split_max.max(2));
        splits.insert(g, Split::new(g, buckets));
    }
    SkewPlan { splits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!(SkewMode::parse("off").unwrap(), SkewMode::Off);
        assert_eq!(SkewMode::parse("adaptive").unwrap(), SkewMode::Adaptive);
        assert!(SkewMode::parse("on").is_err());
        for m in [SkewMode::Off, SkewMode::Adaptive] {
            assert_eq!(SkewMode::parse(&m.to_string()).unwrap(), m);
        }
    }

    #[test]
    fn empty_plan_routes_identically() {
        let plan = SkewPlan::empty();
        let mut groups = vec![1, 2, 3];
        assert_eq!(plan.route(&mut groups, 42), 0);
        assert_eq!(groups, [1, 2, 3]);
    }

    #[test]
    fn split_groups_share_a_bucket_pair_key() {
        let plan = SkewPlan::from_entries(vec![(7, 4)]);
        // Any two records must share ≥ 1 key within the split group.
        for x in 0..40u64 {
            for y in 0..40u64 {
                let kx: BTreeSet<u32> = plan.keys_for(7, x).unwrap().iter().copied().collect();
                let ky: BTreeSet<u32> = plan.keys_for(7, y).unwrap().iter().copied().collect();
                assert!(
                    kx.intersection(&ky).next().is_some(),
                    "records {x} and {y} share no bucket-pair key"
                );
            }
        }
    }

    #[test]
    fn replication_is_exactly_the_bucket_count() {
        let plan = SkewPlan::from_entries(vec![(7, 4)]);
        for rid in 0..100u64 {
            // One key per bucket of the group, the record's own included.
            assert_eq!(plan.keys_for(7, rid).unwrap().len(), 4);
            assert!(plan.keys_for(8, rid).is_none(), "group 8 is not split");
        }
    }

    #[test]
    fn from_entries_drops_degenerate_buckets() {
        let plan = SkewPlan::from_entries(vec![(1, 0), (2, 1), (3, 2)]);
        assert_eq!(plan.entries(), vec![(3, 2)]);
        assert_eq!(plan.max_buckets(), 2);
        assert_eq!(plan.total_split_keys(), 3);
    }

    #[test]
    fn plan_from_sketch_applies_exact_cutoff_and_clamp() {
        let sk = SkewConfig::forced(10, 4);
        let mut sketch = SpaceSaving::new(64);
        sketch.add(1u32, 100); // hot: ceil(100/10)=10 → clamped to 4
        sketch.add(2u32, 15); // hot: ceil(15/10)=2
        sketch.add(3u32, 9); // cold
        let plan = plan_from_sketch(&sketch, &sk);
        assert_eq!(plan.entries(), vec![(1, 4), (2, 2)]);
    }

    #[test]
    fn the_pre_pass_stride_follows_the_hot_threshold() {
        for (hot_threshold, stride) in [(4096, 16), (511, 1), (2048, 8), (1 << 20, 16)] {
            assert_eq!(pre_pass_stride(hot_threshold), stride, "{hot_threshold}");
        }
        assert_eq!(pre_pass_stride(SkewConfig::adaptive().hot_threshold), 16);
        assert_eq!(pre_pass_stride(0), 1);
    }

    #[test]
    fn sampled_cutoff_scales_with_stride() {
        // Hot threshold 2048 samples every 8th line.
        let sk = SkewConfig::forced(2048, 8);
        let mut sketch = SpaceSaving::new(64);
        sketch.add(1u32, 256); // ≥ 2048/8 sampled → estimated 2048 → 2 buckets
        sketch.add(2u32, 255); // below the sampled cutoff
        let plan = plan_from_sketch(&sketch, &sk);
        assert_eq!(plan.entries(), vec![(1, 2)]);
    }

    #[test]
    fn split_key_labels_cover_the_triangle() {
        let plan = SkewPlan::from_entries(vec![(5, 3)]);
        let labels = plan.split_key_labels(TokenRouting::Individual);
        assert_eq!(labels.len(), 6, "3 buckets → 6 bucket pairs");
        assert!(labels.values().any(|l| l == "rank:5/split:0-2"));
        let grouped = plan.split_key_labels(TokenRouting::Grouped { groups: 8 });
        assert!(grouped.values().all(|l| l.starts_with("group:5/split:")));
    }
}
