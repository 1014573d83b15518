//! The composite stage-2 key, its sort order, and the relations stage 2
//! reads.
//!
//! Stage 2 manipulates MapReduce keys heavily — this is the heart of the
//! paper's "exploit the framework by manipulating keys" idea. One composite
//! key shape covers every stage-2 variant:
//!
//! ```text
//! (group, pass, kind, class, rel)
//! ```
//!
//! * `group` — routing key derived from a prefix token (individual token or
//!   round-robin token group). Partitioning and reduce-grouping use **only**
//!   this component (the paper's custom partitioner).
//! * `pass`, `kind` — block-processing sequence numbers (Section 5):
//!   `pass` is the resident-block index, `kind` 0 = load into memory,
//!   1 = stream against memory. Zero outside blocks mode.
//! * `class` — the length class. Self-joins use the record's set size, so
//!   within each group projections arrive in increasing size order for the
//!   PK kernel's index eviction. In R-S joins, R records use the
//!   *lower-bound* length so every R record precedes the S records it can
//!   join (Figure 6).
//! * `rel` — relation tag: 0 = R (or self), 1 = S. Sorting places R before
//!   S within a length class.

use std::sync::Arc;

use mapreduce::{codec_struct, text_input, Dfs, MrError, Result, SplitSource};
use setsim::{first_common, Threshold};

use crate::config::{JoinConfig, TokenRouting};
use crate::skew::SkewPlan;

/// The composite stage-2 key.
pub type Stage2Key = (u32, u32, u8, u32, u8);

/// Relation tag for the single relation of a self-join and for R.
pub const REL_R: u8 = 0;
/// Relation tag for S.
pub const REL_S: u8 = 1;

/// What a join reads: R alone for a self-join, R and S for an R-S join —
/// the self-join plus a relation tag. Both are DFS paths of record files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relations {
    /// The records of R, or of the one relation of a self-join.
    pub r: String,
    /// The records of S.
    pub s: Option<String>,
}
codec_struct!(Relations { r, s });

impl Relations {
    /// The relations at `r` and, for an R-S join, `s`.
    pub fn new(r: &str, s: Option<&str>) -> Self {
        Relations {
            r: r.to_string(),
            s: s.map(str::to_string),
        }
    }

    /// Whether this is an R-S join.
    pub fn is_rs(&self) -> bool {
        self.s.is_some()
    }

    /// The record paths, R first.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.r.as_str()).chain(self.s.as_deref())
    }

    /// Refuse an R-S join of a path with itself: every record would be
    /// tagged S and the join would come back empty.
    pub fn validate(&self) -> Result<()> {
        match &self.s {
            Some(s) if s.trim_end_matches('/') == self.r.trim_end_matches('/') => {
                Err(MrError::InvalidConfig(format!(
                    "relations: R and S are both {s:?}; join a relation with itself as a self-join"
                )))
            }
            _ => Ok(()),
        }
    }

    /// The relation of a record read from `input_path`: [`REL_S`] for files
    /// under the S path, [`REL_R`] otherwise.
    pub fn tag_of(&self, input_path: &str) -> u8 {
        match &self.s {
            Some(s) if is_under(input_path, s) => REL_S,
            _ => REL_R,
        }
    }

    /// One text split per block of every record file, R's first.
    pub fn splits(&self, dfs: &Dfs) -> Result<Vec<SplitSource<u64, String>>> {
        let mut splits = Vec::new();
        for path in self.paths() {
            splits.extend(text_input(dfs, path)?);
        }
        Ok(splits)
    }
}

/// Whether a split file is an input path or lies in that directory — how a
/// multi-input mapper tells its inputs apart.
pub use mapreduce::is_under;

/// Load-block marker (blocks mode).
pub const KIND_LOAD: u8 = 0;
/// Stream-block marker (blocks mode).
pub const KIND_STREAM: u8 = 1;

/// A plain (non-blocks) key.
pub fn plain(group: u32, class: u32, rel: u8) -> Stage2Key {
    (group, 0, KIND_LOAD, class, rel)
}

/// A blocks-mode key.
pub fn blocked(group: u32, pass: u32, kind: u8, class: u32, rel: u8) -> Stage2Key {
    (group, pass, kind, class, rel)
}

/// The value routed with each key: a record projection (RID + sorted token
/// ranks) — the paper's "record projections" of stage 2.
pub type Projection = (u64, Vec<u32>);

/// Routing groups for a record's probe prefix: one group per prefix token
/// (individual or round-robin grouped), written to `groups` (cleared first)
/// ascending and deduplicated. This is the *pre-skew* key scheme; it is
/// shared verbatim between the stage-2 mapper and the skew estimator's
/// sampling pre-pass ([`crate::skew::build_plan`]) so the plan's group ids
/// always match what the mapper routes.
pub fn routing_groups(
    threshold: &Threshold,
    routing: TokenRouting,
    ranks: &[u32],
    groups: &mut Vec<u32>,
) {
    let prefix_len = threshold.probe_prefix_len(ranks.len());
    groups.clear();
    groups.extend(
        ranks[..prefix_len]
            .iter()
            .map(|&rank| routing.group_of(rank)),
    );
    groups.sort_unstable();
    groups.dedup();
}

/// A record as the ownership rule sees it: what its routing keys depend on
/// beyond its prefix tokens.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// The record id.
    pub rid: u64,
    /// [`SkewPlan::rid_hash`] of `rid`, taken once: a record is asked about
    /// once per partner it meets.
    rid_hash: u64,
}

impl Member {
    /// The record `rid`.
    pub fn new(rid: u64) -> Self {
        Member {
            rid,
            rid_hash: SkewPlan::rid_hash(rid),
        }
    }
}

/// The one reduce key that emits the pair `(x, y)`, given the smallest
/// token `m` their routing prefixes share: `m` taken through exactly the
/// mapper's scheme ([`routing_groups`], then [`SkewPlan::route`]). Each
/// step picks, among the keys both records were sent to, one that depends
/// on the pair alone:
///
/// * the token group of `m` — both prefixes hold `m`;
/// * under a skew split, the bucket pair `(min(bx,by), max(bx,by))`. Two
///   records of one bucket `b` meet in all `B` sub-keys `(min(b,i),
///   max(b,i))` of their shared row and column; this picks `(b, b)`.
///
/// A reducer compares the result with its own key's group component, so
/// logical keys that collide in the `u32` stay harmless: the pair still has
/// one owner, and both records are there.
pub fn owner_key(routing: TokenRouting, plan: &SkewPlan, m: u32, x: Member, y: Member) -> u32 {
    let group = routing.group_of(m);
    match plan.keys_for(group, x.rid_hash) {
        None => group,
        Some(keys) => keys[SkewPlan::bucket_of(y.rid_hash, keys.len() as u32) as usize],
    }
}

/// What a stage-2 reducer needs to decide whether a pair is its to emit:
/// the routing scheme its job's mapper used.
#[derive(Debug, Clone)]
pub struct Ownership {
    threshold: Threshold,
    routing: TokenRouting,
    skew: Arc<SkewPlan>,
}

impl Ownership {
    /// Ownership under the routing of a job whose mapper was built from
    /// the same configuration and plan.
    pub fn new(config: &JoinConfig, skew: Arc<SkewPlan>) -> Self {
        Ownership {
            threshold: config.threshold,
            routing: config.routing,
            skew,
        }
    }

    /// Routing that sends every token to group 0, so a test feeding one
    /// reduce group under key group 0 sees it own every pair.
    #[cfg(test)]
    pub(crate) fn one_group(threshold: Threshold) -> Self {
        let config = JoinConfig {
            threshold,
            routing: TokenRouting::Grouped { groups: 1 },
            ..JoinConfig::recommended()
        };
        Self::new(&config, Arc::new(SkewPlan::empty()))
    }

    /// The join predicate of the job.
    pub fn threshold(&self) -> &Threshold {
        &self.threshold
    }

    /// Whether the reduce group of `key` emits the pair whose smallest
    /// shared prefix token is `m`.
    pub fn owns(&self, key: &Stage2Key, m: u32, x: Member, y: Member) -> bool {
        owner_key(self.routing, &self.skew, m, x, y) == key.0
    }

    /// [`owns`](Self::owns) for one record `x` of `key`'s reduce group
    /// against many partners, as the indexed kernel asks it: once per
    /// partner, token by token.
    pub fn probing<'a>(&'a self, key: &Stage2Key, x: Member) -> ProbeOwnership<'a> {
        ProbeOwnership {
            owner: self,
            key: key.0,
            x,
            token: None,
            partners: Partners::None,
        }
    }

    /// [`owns`](Self::owns) for kernels that hold both projections and no
    /// index: finds `m` by merging the two routing prefixes. A pair whose
    /// prefixes share no token cannot join (the prefix filter) and has no
    /// owner.
    pub fn owns_pair(&self, key: &Stage2Key, x: (u64, &[u32]), y: (u64, &[u32])) -> bool {
        let prefix = |tokens: &[u32]| self.threshold.probe_prefix_len(tokens.len());
        first_common(&x.1[..prefix(x.1)], &y.1[..prefix(y.1)]).is_some_and(|m| {
            let (x, y) = (Member::new(x.0), Member::new(y.0));
            self.owns(key, m, x, y)
        })
    }
}

/// Which partners of one record the reduce group owns the pair with, for
/// pairs whose smallest shared token is a given one.
#[derive(Debug, Clone, Copy)]
enum Partners<'a> {
    /// The token's group is another reduce key.
    None,
    /// The token's group is this reduce key and is not split.
    All,
    /// The token's group is split and this reduce key is among the record's
    /// routing keys in it (entry `b`: the key shared with bucket `b`).
    InBuckets(&'a [u32]),
}

/// [`Ownership::owns`] with everything that depends only on the reduce key,
/// the record and the token worked out once per token: a probe asks about
/// hundreds of partners under each prefix token, and for most tokens the
/// answer is the same for all of them.
#[derive(Debug)]
pub struct ProbeOwnership<'a> {
    owner: &'a Ownership,
    key: u32,
    x: Member,
    token: Option<u32>,
    partners: Partners<'a>,
}

impl<'a> ProbeOwnership<'a> {
    /// Whether the reduce group emits the pair of the record with partner
    /// `y`, `m` being the smallest token they share. The partner is looked
    /// up only when the answer depends on it.
    pub fn owns(&mut self, m: u32, y: impl FnOnce() -> Member) -> bool {
        if self.token != Some(m) {
            self.token = Some(m);
            self.partners = self.partners_under(m);
        }
        match self.partners {
            Partners::None => false,
            Partners::All => true,
            Partners::InBuckets(keys) => {
                keys[SkewPlan::bucket_of(y().rid_hash, keys.len() as u32) as usize] == self.key
            }
        }
    }

    fn partners_under(&self, m: u32) -> Partners<'a> {
        let o = self.owner;
        let group = o.routing.group_of(m);
        match o.skew.keys_for(group, self.x.rid_hash) {
            None if group == self.key => Partners::All,
            Some(keys) if keys.contains(&self.key) => Partners::InBuckets(keys),
            _ => Partners::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skew::split_key;

    #[test]
    fn relations_are_told_apart_on_a_path_boundary() {
        let rs = Relations::new("/in/s2", Some("/in/s"));
        for (path, rel) in [
            ("/in/s2", REL_R),
            ("/in/s2/part-00000", REL_R),
            ("/in/s", REL_S),
            ("/in/s/part-00000", REL_S),
        ] {
            assert_eq!(rs.tag_of(path), rel, "{path}");
        }
        assert!(is_under("/s/part-00000", "/s/"));
        assert!(rs.validate().is_ok());
        assert!(Relations::new("/s", None).validate().is_ok());
        let same = Relations::new("/s", Some("/s/")).validate();
        assert!(matches!(same, Err(MrError::InvalidConfig(_))), "{same:?}");
    }

    use crate::stage2::{mapper::ProjectionMapper, KernelReducer};

    /// The job stage 2 runs, for the routing its kernels share.
    fn stage2_job() -> mapreduce::Job<ProjectionMapper, KernelReducer> {
        let dfs = Dfs::new(1, 64).unwrap();
        dfs.write_text("/r", ["1\ttitle\tauthor"]).unwrap();
        crate::stage2::tests::kernel_job(&dfs, "/r", &JoinConfig::recommended()).unwrap()
    }

    #[test]
    fn partitioner_ignores_everything_but_group() {
        let job = stage2_job();
        let (a, b) = (plain(9, 3, REL_R), blocked(9, 7, KIND_STREAM, 99, REL_S));
        for parts in [3, 16] {
            assert_eq!(job.partition(&a, parts), job.partition(&b, parts));
            let hashed = mapreduce::stable_hash(&9u32) % u64::from(parts);
            assert_eq!(u64::from(job.partition(&a, parts)), hashed);
        }
    }

    #[test]
    fn grouping_matches_on_group_only() {
        let job = stage2_job();
        assert!(job.same_group(&plain(4, 1, REL_R), &plain(4, 9, REL_S)));
        assert!(!job.same_group(&plain(4, 1, REL_R), &plain(5, 1, REL_R)));
    }

    #[test]
    fn sort_order_is_pass_kind_class_rel() {
        let mut keys = vec![
            blocked(1, 1, KIND_LOAD, 5, REL_R),
            blocked(1, 0, KIND_STREAM, 9, REL_R),
            blocked(1, 0, KIND_LOAD, 9, REL_R),
            blocked(1, 0, KIND_LOAD, 2, REL_S),
            blocked(1, 0, KIND_LOAD, 2, REL_R),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                blocked(1, 0, KIND_LOAD, 2, REL_R),
                blocked(1, 0, KIND_LOAD, 2, REL_S),
                blocked(1, 0, KIND_LOAD, 9, REL_R),
                blocked(1, 0, KIND_STREAM, 9, REL_R),
                blocked(1, 1, KIND_LOAD, 5, REL_R),
            ]
        );
    }

    #[test]
    fn owner_key_follows_the_mapper_scheme_step_by_step() {
        let none = SkewPlan::empty();
        let (x, y) = (Member::new(11), Member::new(12));
        // Token group: the token itself, or its round-robin group.
        let individual = TokenRouting::Individual;
        let grouped = TokenRouting::Grouped { groups: 8 };
        assert_eq!(owner_key(individual, &none, 21, x, y), 21);
        assert_eq!(owner_key(grouped, &none, 21, x, y), 5);
        // Skew split of that key: the records' bucket pair, ordered.
        let plan = SkewPlan::from_entries(vec![(5, 4)]);
        let bucket = |m: Member| SkewPlan::bucket_of(m.rid_hash, 4);
        let (bx, by) = (bucket(x), bucket(y));
        assert_ne!(bx, by, "pick RIDs in different buckets");
        assert_eq!(
            owner_key(grouped, &plan, 21, x, y),
            split_key(5, bx.min(by), bx.max(by))
        );
        // A group the plan does not split is untouched by it.
        assert_eq!(owner_key(grouped, &plan, 22, x, y), 6);
    }

    #[test]
    fn same_bucket_pairs_are_owned_by_the_diagonal_sub_key() {
        let plan = SkewPlan::from_entries(vec![(5, 4)]);
        let bucket = |m: Member| SkewPlan::bucket_of(m.rid_hash, 4);
        let x = Member::new(11);
        // Two records of one bucket `b` meet in every `(min(b,i), max(b,i))`;
        // the documented owner among them is `(b, b)`.
        let b = bucket(x);
        let twin = (12u64..)
            .map(Member::new)
            .find(|&m| bucket(m) == b)
            .unwrap();
        let routing = TokenRouting::Grouped { groups: 8 };
        assert_eq!(
            plan.keys_for(5, x.rid_hash),
            plan.keys_for(5, twin.rid_hash),
            "the pair meets in all four sub-keys"
        );
        assert_eq!(owner_key(routing, &plan, 21, x, twin), split_key(5, b, b));
    }

    #[test]
    fn owns_pair_goes_by_the_smallest_shared_prefix_token() {
        // τ = 0.5 over 4 tokens: prefixes of 3. The records share prefix
        // tokens 3 and 5 (and 9, outside both prefixes).
        let config = JoinConfig::recommended().with_threshold(Threshold::jaccard(0.5));
        let owner = Ownership::new(&config, Arc::new(SkewPlan::empty()));
        let (x, y) = ((1u64, &[2u32, 3, 5, 9][..]), (2u64, &[3u32, 4, 5, 9][..]));
        assert!(owner.owns_pair(&plain(3, 4, REL_R), x, y));
        assert!(
            !owner.owns_pair(&plain(5, 4, REL_R), x, y),
            "met again, not owned"
        );
        assert!(!owner.owns_pair(&plain(9, 4, REL_R), x, y));
        // No shared prefix token: no owner anywhere (and no join either).
        let z = (3u64, &[6u32, 7, 8, 9][..]);
        for g in 2..10 {
            assert!(!owner.owns_pair(&plain(g, 4, REL_R), x, z));
        }
    }

    #[test]
    fn rs_length_class_delivers_r_before_joinable_s() {
        // Figure 6: R records of length 5 get class lower_bound(5)=4 and
        // sort before S records of lengths 4..6.
        let t = setsim::Threshold::jaccard(0.8);
        let r_len = 5usize;
        let r_key = plain(1, t.lower_bound(r_len) as u32, REL_R);
        for s_len in t.lower_bound(r_len)..=r_len + 1 {
            let s_key = plain(1, s_len as u32, REL_S);
            assert!(r_key < s_key, "R(len {r_len}) must precede S(len {s_len})");
        }
    }
}
