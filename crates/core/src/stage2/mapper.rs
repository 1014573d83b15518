//! The stage-2 mapper: record projection and prefix-token routing.
//!
//! For every input record the mapper extracts the RID and join-attribute
//! value, reorders the tokens by the stage-1 global order (loading that
//! order in its initialization, like the paper's mappers load it from the
//! distributed cache), computes the probe prefix, and emits one projection
//! per routing key derived from the prefix tokens.

use std::collections::BTreeSet;
use std::sync::Arc;

use mapreduce::{stable_hash, Counter, Emit, Histogram, Mapper, Result, TaskContext};
use setsim::TokenOrder;

use crate::config::{JoinConfig, Stage2Algo};
use crate::keys::{
    routing_groups, Projection, Relations, Stage2Key, KIND_LOAD, KIND_STREAM, REL_R, REL_S,
};
use crate::named::Named;
use crate::skew::SkewPlan;
use crate::tokenizer_cache::CachedTokenizer;

/// Stage-2 mapper shared by every kernel variant. The kernel decides how
/// projections are replicated: one key per routing group, or Section 5's
/// block-processing passes.
#[derive(Clone)]
pub struct ProjectionMapper {
    config: JoinConfig,
    tokenizer: CachedTokenizer,
    tokens_path: String,
    /// Inputs under the S path are tagged as S records.
    relations: Relations,
    skew: Arc<SkewPlan>,
    order: Option<Arc<TokenOrder>>,
    counters: MapCounters,
    /// The record's join attribute, `(rid, ranks)` and routing keys, kept
    /// for their capacity; the one projection is emitted under every key.
    attr: String,
    record: Projection,
    keys: Vec<Stage2Key>,
}

/// The job counters the mapper bumps per record, held for the task.
#[derive(Clone)]
struct MapCounters {
    projections: Named<Counter>,
    empty_projections: Named<Counter>,
    routed_pairs: Named<Counter>,
    split_records: Named<Counter>,
    split_emits: Named<Counter>,
    replication_factor: Named<Histogram>,
}

impl ProjectionMapper {
    /// The mapper of a join of `relations` under `config`, projecting
    /// through the token order at `tokens_path` and routing by `skew`.
    pub fn new(
        config: &JoinConfig,
        tokens_path: &str,
        relations: Relations,
        skew: Arc<SkewPlan>,
    ) -> Self {
        ProjectionMapper {
            config: config.clone(),
            tokenizer: CachedTokenizer::new(config.tokenizer),
            tokens_path: tokens_path.to_string(),
            relations,
            skew,
            order: None,
            counters: MapCounters {
                projections: Named::new("stage2.projections"),
                empty_projections: Named::new("stage2.empty_projections"),
                routed_pairs: Named::new("stage2.routed_pairs"),
                split_records: Named::new("skew.split_records"),
                split_emits: Named::new("skew.split_emits"),
                replication_factor: Named::new("skew.replication_factor"),
            },
            attr: String::new(),
            record: (0, Vec::new()),
            keys: Vec::new(),
        }
    }

    /// Routing groups for a record's probe prefix, including the optional
    /// length-bucket sub-routing of Section 5 (pre-skew).
    fn groups_for(&self, ranks: &[u32]) -> BTreeSet<u32> {
        let c = &self.config;
        routing_groups(&c.threshold, c.routing, c.length_sub_routing, ranks)
    }

    /// Final routing keys for a record: prefix groups, then the skew plan's
    /// bucket-pair splitting. Bucketing is by RID only — never by relation
    /// or length class — so both members of any candidate pair land in the
    /// bucket pair `(min(bx,by), max(bx,by))` and pair completeness holds
    /// in every emit mode, self-join and R-S alike.
    fn route_groups(&mut self, rid: u64, ctx: &TaskContext) -> BTreeSet<u32> {
        let base = self.groups_for(&self.record.1);
        if self.skew.is_empty() {
            return base;
        }
        let before = base.len();
        let (groups, hot) = self.skew.route(base, rid);
        if hot > 0 {
            self.counters.split_records.get(ctx).incr();
            self.counters
                .split_emits
                .get(ctx)
                .add(groups.len().saturating_sub(before) as u64);
        }
        self.counters
            .replication_factor
            .get(ctx)
            .record(groups.len() as f64 / before.max(1) as f64);
        groups
    }
}

impl Mapper for ProjectionMapper {
    type InKey = u64;
    type InValue = String;
    type OutKey = Stage2Key;
    type OutValue = Projection;

    fn setup(&mut self, ctx: &TaskContext) -> Result<()> {
        let tokens_path = self.tokens_path.clone();
        let dfs = ctx.dfs().clone();
        let order =
            ctx.cache()
                .get_or_load::<TokenOrder, _>("stage2.token-order", ctx.memory(), || {
                    let lines = dfs.read_text(&tokens_path)?;
                    let order = TokenOrder::from_ordered_tokens(lines)
                        .map_err(mapreduce::MrError::TaskFailed)?;
                    let bytes = order.approx_bytes();
                    Ok((order, bytes))
                })?;
        self.order = Some(order);
        Ok(())
    }

    fn map(
        &mut self,
        _offset: &u64,
        line: &String,
        out: &mut dyn Emit<Stage2Key, Projection>,
        ctx: &TaskContext,
    ) -> Result<()> {
        let rid = match self.config.format.parse_into(line, &mut self.attr) {
            Ok(rid) => rid,
            Err(e) => return self.config.bad_records.on_bad_record(ctx, e),
        };
        let rs = self.relations.is_rs();
        let rel = self.relations.tag_of(&ctx.input_path);
        let tokens = self.tokenizer.tokenize(&self.attr);
        let order = self.order.as_ref().expect("setup ran");
        // Unknown tokens (S tokens absent from R's dictionary) are dropped
        // by the projection, as in the paper.
        order.project_into(tokens.iter(), &mut self.record.1);
        if self.record.1.is_empty() {
            self.counters.empty_projections.get(ctx).incr();
            return Ok(());
        }
        self.record.0 = rid;
        let len = self.record.1.len() as u32;
        // R records take their lower-bound length as class so they arrive
        // before every S record they can join (Figure 6); self-join and S
        // records use their actual length.
        let class = if rs && rel == REL_R {
            self.config.threshold.lower_bound(len as usize) as u32
        } else {
            len
        };
        let groups = self.route_groups(rid, ctx);
        self.counters.projections.get(ctx).incr();
        let keys = &mut self.keys;
        keys.clear();
        for g in groups {
            match self.config.stage2 {
                Stage2Algo::Bk | Stage2Algo::Pk { .. } => keys.push((g, 0, KIND_LOAD, class, rel)),
                Stage2Algo::BkMapBlocks { blocks } => {
                    let b = (stable_hash(&rid) % u64::from(blocks.max(1))) as u32;
                    if rel == REL_R {
                        keys.push((g, b, KIND_LOAD, class, rel));
                        if !rs {
                            // Self-join: stream against every earlier block.
                            keys.extend((0..b).map(|pass| (g, pass, KIND_STREAM, class, rel)));
                        }
                    } else {
                        // S records stream against every R block.
                        keys.extend(
                            (0..blocks.max(1)).map(|pass| (g, pass, KIND_STREAM, class, rel)),
                        );
                    }
                }
                Stage2Algo::BkReduceBlocks { blocks } => {
                    let pass = if rel == REL_S {
                        // S arrives after every R block.
                        blocks.max(1)
                    } else {
                        (stable_hash(&rid) % u64::from(blocks.max(1))) as u32
                    };
                    keys.push((g, pass, KIND_LOAD, class, rel));
                }
            }
        }
        // Added once per record: the counter is shared by every map task
        // of the job.
        self.counters.routed_pairs.get(ctx).add(keys.len() as u64);
        for key in keys.iter() {
            out.emit_ref(key, &self.record)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RecordFormat, TokenRouting, TokenizerKind};
    use mapreduce::{Cache, Cluster, ClusterConfig, Counters, MemoryGauge, Phase, VecEmitter};
    use setsim::Threshold;

    fn make_ctx(cluster: &Cluster, input_path: &str) -> TaskContext {
        let mut ctx = TaskContext::new(
            Phase::Map,
            0,
            0,
            4,
            Counters::new(),
            MemoryGauge::unlimited("t"),
            Cache::new(),
            cluster.dfs().clone(),
        );
        ctx.input_path = input_path.to_string();
        ctx
    }

    fn setup_cluster_with_tokens(tokens: &[&str]) -> Cluster {
        let cluster = Cluster::new(ClusterConfig::with_nodes(2), 512).unwrap();
        cluster.dfs().write_text("/tokens", tokens).unwrap();
        cluster
    }

    fn config() -> JoinConfig {
        JoinConfig {
            threshold: Threshold::jaccard(0.5),
            format: RecordFormat::two_column(),
            stage2: Stage2Algo::Bk,
            ..JoinConfig::recommended()
        }
    }

    fn mapper_of(config: &JoinConfig, s_path: Option<&str>) -> ProjectionMapper {
        let relations = Relations::new("/in", s_path);
        ProjectionMapper::new(config, "/tokens", relations, Arc::new(SkewPlan::empty()))
    }

    fn mapper(stage2: Stage2Algo, s_path: Option<&str>) -> ProjectionMapper {
        mapper_of(&JoinConfig { stage2, ..config() }, s_path)
    }

    #[test]
    fn plain_emission_routes_on_prefix_tokens() {
        let cluster = setup_cluster_with_tokens(&["rare", "mid", "common", "filler"]);
        let ctx = make_ctx(&cluster, "/in");
        let mut m = mapper(Stage2Algo::Bk, None);
        m.setup(&ctx).unwrap();
        let mut out = VecEmitter::new();
        // 4 tokens at tau 0.5: prefix = 4 - 2 + 1 = 3 tokens.
        m.map(&0, &"7\trare mid common filler".to_string(), &mut out, &ctx)
            .unwrap();
        assert_eq!(out.pairs.len(), 3, "one emission per prefix token");
        for ((g, pass, kind, class, rel), (rid, ranks)) in &out.pairs {
            assert!(*g < 3, "groups are the prefix ranks");
            assert_eq!((*pass, *kind, *rel), (0, KIND_LOAD, REL_R));
            assert_eq!(*class, 4);
            assert_eq!(*rid, 7);
            assert_eq!(ranks, &vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn unknown_tokens_are_dropped() {
        let cluster = setup_cluster_with_tokens(&["a", "b"]);
        let ctx = make_ctx(&cluster, "/in");
        let mut m = mapper(Stage2Algo::Bk, None);
        m.setup(&ctx).unwrap();
        let mut out = VecEmitter::new();
        m.map(&0, &"1\ta zzz b".to_string(), &mut out, &ctx)
            .unwrap();
        assert!(out.pairs.iter().all(|(_, (_, ranks))| ranks == &vec![0, 1]));
        // A record of only-unknown tokens is skipped entirely.
        let mut out2 = VecEmitter::new();
        m.map(&0, &"2\tzzz qqq".to_string(), &mut out2, &ctx)
            .unwrap();
        assert!(out2.pairs.is_empty());
    }

    #[test]
    fn every_emit_carries_what_setsim_projects() {
        let dictionary = [
            "rare",
            "mid",
            "common",
            "filler",
            "a",
            "b",
            "c",
            "d",
            "e",
            "f",
            "g",
            "h",
            "οδος",
            "ça",
            "i\u{307}stanbul",
        ];
        let cluster = setup_cluster_with_tokens(&dictionary);
        let order = TokenOrder::from_ordered_tokens(dictionary).unwrap();
        let tokenizer = TokenizerKind::Word.build();
        let ctx = make_ctx(&cluster, "/in");
        let mut m = mapper(Stage2Algo::Bk, None);
        m.setup(&ctx).unwrap();
        // One mapper down all the lines, so each record follows another's
        // buffers: the cases of the tests above, then words that lower-case
        // by context, by length, and twice over.
        for (rid, attr) in [
            "rare mid common filler",
            "a zzz b",
            "zzz qqq",
            "a b c d",
            "a b",
            "a b c d e f g h",
            "ΟΔΟΣ Ça İstanbul rare ÇA — οδοσ, a",
            "",
            "h H h",
        ]
        .into_iter()
        .enumerate()
        {
            let expected = order.project(&tokenizer.tokenize(attr));
            let mut out = VecEmitter::new();
            m.map(&0, &format!("{rid}\t{attr}"), &mut out, &ctx)
                .unwrap();
            assert_eq!(out.pairs.len(), m.groups_for(&expected).len(), "{attr:?}");
            for (_, projection) in &out.pairs {
                assert_eq!(projection, &(rid as u64, expected.clone()), "{attr:?}");
            }
        }
    }

    #[test]
    fn rs_mode_tags_relation_and_length_class() {
        let cluster = setup_cluster_with_tokens(&["a", "b", "c", "d"]);
        let mut m = mapper(Stage2Algo::Bk, Some("/s"));
        // R record from /r.
        let ctx_r = make_ctx(&cluster, "/r");
        m.setup(&ctx_r).unwrap();
        let mut out = VecEmitter::new();
        m.map(&0, &"1\ta b c d".to_string(), &mut out, &ctx_r)
            .unwrap();
        for ((_, _, _, class, rel), _) in &out.pairs {
            assert_eq!(*rel, REL_R);
            assert_eq!(*class, 2, "R class = lower bound of 4 at tau 0.5");
        }
        // S record from /s/part-0.
        let ctx_s = make_ctx(&cluster, "/s/part-0");
        let mut out = VecEmitter::new();
        m.map(&0, &"9\ta b c d".to_string(), &mut out, &ctx_s)
            .unwrap();
        for ((_, _, _, class, rel), _) in &out.pairs {
            assert_eq!(*rel, REL_S);
            assert_eq!(*class, 4, "S class = actual length");
        }
    }

    #[test]
    fn map_blocks_replicates_for_earlier_passes() {
        let cluster = setup_cluster_with_tokens(&["a", "b", "c", "d"]);
        let ctx = make_ctx(&cluster, "/in");
        let mut m = mapper(Stage2Algo::BkMapBlocks { blocks: 4 }, None);
        m.setup(&ctx).unwrap();
        let mut out = VecEmitter::new();
        m.map(&0, &"5\ta b".to_string(), &mut out, &ctx).unwrap();
        // 2 tokens at tau 0.5: prefix = 2 (lower_bound(2)=1). For each group
        // the record loads once at its own block b and streams b times.
        let b = (stable_hash(&5u64) % 4) as u32;
        let loads = out
            .pairs
            .iter()
            .filter(|((_, _, kind, _, _), _)| *kind == KIND_LOAD)
            .count();
        let streams = out
            .pairs
            .iter()
            .filter(|((_, _, kind, _, _), _)| *kind == KIND_STREAM)
            .count();
        assert_eq!(loads, 2);
        assert_eq!(streams, 2 * b as usize);
    }

    #[test]
    fn grouped_routing_merges_tokens() {
        let cluster = setup_cluster_with_tokens(&["a", "b", "c", "d"]);
        let ctx = make_ctx(&cluster, "/in");
        let routing = TokenRouting::Grouped { groups: 1 };
        let mut m = mapper_of(
            &JoinConfig {
                routing,
                ..config()
            },
            None,
        );
        m.setup(&ctx).unwrap();
        let mut out = VecEmitter::new();
        m.map(&0, &"3\ta b c d".to_string(), &mut out, &ctx)
            .unwrap();
        assert_eq!(out.pairs.len(), 1, "all prefix tokens share group 0");
        assert_eq!(out.pairs[0].0 .0, 0);
    }

    /// Completeness of length sub-routing: for ANY τ-similar pair, the two
    /// records' routing-key sets must intersect, whatever the bucket width.
    /// The shorter record emits its own bucket `len/width` for every prefix
    /// group; the longer one covers `lower_bound(len)/width ..= len/width`,
    /// which contains the shorter's bucket precisely because the pair passes
    /// the length filter — this test exercises that argument empirically
    /// across measures, routings, and widths on randomized similar pairs.
    #[test]
    fn length_sub_routing_preserves_pair_completeness() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let thresholds = [
            Threshold::jaccard(0.8),
            Threshold::cosine(0.85),
            Threshold::dice(0.85),
        ];
        let routings = [
            TokenRouting::Individual,
            TokenRouting::Grouped { groups: 8 },
        ];
        let widths = [1u32, 2, 3, 7];
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for t in thresholds {
            for routing in routings {
                for width in widths {
                    let m = mapper_of(
                        &JoinConfig {
                            threshold: t,
                            routing,
                            length_sub_routing: Some(width),
                            ..config()
                        },
                        None,
                    );
                    let mut checked = 0;
                    let mut attempts = 0;
                    while checked < 100 && attempts < 100_000 {
                        attempts += 1;
                        let len = rng.random_range(2usize..=40);
                        let mut set = BTreeSet::new();
                        while set.len() < len {
                            set.insert(rng.random_range(0u32..60));
                        }
                        let x: Vec<u32> = set.iter().copied().collect();
                        // Mutate x a little to get a candidate partner.
                        let mut yset = set.clone();
                        for _ in 0..rng.random_range(0usize..=2) {
                            let victim = x[rng.random_range(0..x.len())];
                            yset.remove(&victim);
                        }
                        for _ in 0..rng.random_range(0usize..=2) {
                            yset.insert(rng.random_range(0u32..60));
                        }
                        let y: Vec<u32> = yset.iter().copied().collect();
                        if y.is_empty() || t.matches(&x, &y).is_none() {
                            continue;
                        }
                        checked += 1;
                        let gx = m.groups_for(&x);
                        let gy = m.groups_for(&y);
                        assert!(
                            gx.intersection(&gy).next().is_some(),
                            "similar pair shares no routing key \
                             (t={t:?} routing={routing:?} width={width}):\n  \
                             x={x:?}\n  y={y:?}\n  gx={gx:?}\n  gy={gy:?}"
                        );
                    }
                    assert!(checked >= 100, "generator starved: {checked} pairs");
                }
            }
        }
    }

    #[test]
    fn length_sub_routing_replicates_into_buckets() {
        let cluster = setup_cluster_with_tokens(&["a", "b", "c", "d", "e", "f", "g", "h"]);
        let ctx = make_ctx(&cluster, "/in");
        let mut m = mapper_of(
            &JoinConfig {
                routing: TokenRouting::Grouped { groups: 1 },
                length_sub_routing: Some(1),
                ..config()
            },
            None,
        );
        m.setup(&ctx).unwrap();
        let mut out = VecEmitter::new();
        // len 8, lower bound 4: buckets 4..=8 -> 5 synthetic groups.
        m.map(&0, &"3\ta b c d e f g h".to_string(), &mut out, &ctx)
            .unwrap();
        assert_eq!(out.pairs.len(), 5);
    }
}
