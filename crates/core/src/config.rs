//! Join configuration: the algorithm choices of the paper's three stages.

use std::fmt;

use setsim::{SimFunction, Threshold};

use mapreduce::{codec_enum, codec_struct, ByteReader, Codec, MrError, Result, TaskContext};

use crate::skew::SkewConfig;

/// Counter recording input records skipped under a lenient
/// [`BadRecordPolicy`]; surfaced per job in `JobMetrics::counters` and
/// summed into the run report's `recovery` section.
pub const BAD_RECORDS_COUNTER: &str = "recovery.bad_records";

/// What to do with an input line that fails record parsing (Hadoop's
/// skip-bad-records facility).
///
/// Applies to *record* inputs of stages 1–3 — original dataset lines, which
/// may legitimately be dirty. Intermediate files the pipeline itself wrote
/// (token orders, RID pairs) are always parsed strictly: a malformed line
/// there is corruption, not dirt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BadRecordPolicy {
    /// Fail the task (and so the job) on the first malformed record.
    #[default]
    Strict,
    /// Skip malformed records, counting each under
    /// [`BAD_RECORDS_COUNTER`].
    Skip,
    /// Skip up to N malformed records per job; the N+1-th fails the job.
    SkipUpTo(u64),
}

impl BadRecordPolicy {
    /// Parse a CLI spelling: `strict`, `skip`, or `skip:N`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "strict" => Ok(BadRecordPolicy::Strict),
            "skip" => Ok(BadRecordPolicy::Skip),
            _ => match s.strip_prefix("skip:").map(str::parse::<u64>) {
                Some(Ok(n)) => Ok(BadRecordPolicy::SkipUpTo(n)),
                _ => Err(MrError::InvalidConfig(format!(
                    "bad-records policy must be strict, skip, or skip:N, got {s:?}"
                ))),
            },
        }
    }

    /// Apply the policy to one malformed record: either propagate `err`
    /// (strict / budget exhausted) or count the skip and continue.
    ///
    /// The skip budget of [`BadRecordPolicy::SkipUpTo`] is job-global: the
    /// counter is shared by all tasks of the job, and increments from
    /// attempts that later retry are not rolled back, so the cap is a floor
    /// on strictness, never an undercount.
    pub fn on_bad_record(&self, ctx: &TaskContext, err: MrError) -> Result<()> {
        let limit = match self {
            BadRecordPolicy::Strict => return Err(err),
            BadRecordPolicy::Skip => u64::MAX,
            BadRecordPolicy::SkipUpTo(n) => *n,
        };
        let counter = ctx.counter(BAD_RECORDS_COUNTER);
        counter.add(1);
        if counter.get() > limit {
            return Err(MrError::TaskFailed(format!(
                "bad-record budget exhausted (limit {limit}): {err}"
            )));
        }
        Ok(())
    }
}

impl fmt::Display for BadRecordPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BadRecordPolicy::Strict => write!(f, "strict"),
            BadRecordPolicy::Skip => write!(f, "skip"),
            BadRecordPolicy::SkipUpTo(n) => write!(f, "skip:{n}"),
        }
    }
}

/// How input lines are parsed into `(RID, join attribute)`.
///
/// The paper's preprocessed datasets are tab-separated lines whose first
/// field is the RID; the join attribute is the concatenation of one or more
/// fields (title + authors in the experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordFormat {
    /// Index of the RID field.
    pub rid_field: usize,
    /// Indices of the fields concatenated into the join attribute.
    pub join_fields: Vec<usize>,
}

impl RecordFormat {
    /// The format of [`datagen`]-style records: RID in field 0, join
    /// attribute = title (field 1) + authors (field 2).
    pub fn bibliographic() -> Self {
        RecordFormat {
            rid_field: 0,
            join_fields: vec![1, 2],
        }
    }

    /// RID in field 0, join attribute in field 1.
    pub fn two_column() -> Self {
        RecordFormat {
            rid_field: 0,
            join_fields: vec![1],
        }
    }

    /// Parse a line into `(rid, join attribute)`.
    pub fn parse(&self, line: &str) -> Result<(u64, String)> {
        let mut attr = String::new();
        let rid = self.parse_into(line, &mut attr)?;
        Ok((rid, attr))
    }

    /// [`RecordFormat::parse`] into an attribute buffer the caller keeps:
    /// `attr` is cleared, then filled. Walks the line's fields once when
    /// the RID comes before the join fields and those are listed in
    /// ascending order.
    pub fn parse_into(&self, line: &str, attr: &mut String) -> Result<u64> {
        attr.clear();
        let mut fields = line.split('\t');
        let rid = self.rid_of(line, fields.nth(self.rid_field))?;
        // Index of the field `fields` yields next.
        let mut next = self.rid_field + 1;
        for &f in &self.join_fields {
            if f < next {
                fields = line.split('\t');
                next = 0;
            }
            if let Some(v) = fields.nth(f - next) {
                if !attr.is_empty() {
                    attr.push(' ');
                }
                attr.push_str(v);
            }
            next = f + 1;
        }
        Ok(rid)
    }

    /// The RID of a line, for callers that do not need the join attribute.
    pub fn rid(&self, line: &str) -> Result<u64> {
        self.rid_of(line, line.split('\t').nth(self.rid_field))
    }

    fn rid_of(&self, line: &str, field: Option<&str>) -> Result<u64> {
        let rid_str = field.ok_or_else(|| {
            MrError::TaskFailed(format!("record has no field {}: {line:?}", self.rid_field))
        })?;
        rid_str
            .parse::<u64>()
            .map_err(|e| MrError::TaskFailed(format!("bad RID {rid_str:?}: {e}")))
    }
}

/// Tokenization applied to join attributes (must match between stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenizerKind {
    /// Word tokens (the paper's experiments).
    Word,
    /// Overlapping q-grams.
    QGram(usize),
}

impl TokenizerKind {
    /// Instantiate the tokenizer.
    pub fn build(&self) -> Box<dyn setsim::Tokenizer + Send + Sync> {
        match self {
            TokenizerKind::Word => Box::new(setsim::WordTokenizer::new()),
            TokenizerKind::QGram(q) => Box::new(setsim::QGramTokenizer::new(*q)),
        }
    }
}

/// Stage-1 algorithm: how the global token order is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage1Algo {
    /// Basic Token Ordering: two MapReduce jobs (count, then parallel sort
    /// with a single reducer).
    Bto,
    /// One-Phase Token Ordering: one job; the single reducer accumulates
    /// counts and sorts in its tear-down.
    Opto,
}

/// How prefix tokens are mapped to routing keys in stage 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenRouting {
    /// One key per prefix token ("Using Individual Tokens"). With PK this is
    /// the paper's best configuration — "one group per token".
    Individual,
    /// Round-robin token groups ("Using Grouped Tokens"): token rank `r`
    /// routes to group `r % groups`, balancing summed token frequencies.
    Grouped {
        /// Number of groups.
        groups: u32,
    },
}

impl TokenRouting {
    /// Group id for a token rank.
    pub fn group_of(&self, rank: u32) -> u32 {
        match self {
            TokenRouting::Individual => rank,
            TokenRouting::Grouped { groups } => rank % groups,
        }
    }
}

/// Stage-2 algorithm: how RID pairs of similar records are found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage2Algo {
    /// Basic Kernel: in-memory nested loops with the length filter.
    Bk,
    /// PPJoin+ Kernel: streaming indexed kernel with PPJoin+'s positional
    /// and suffix filters, exploiting the `(group, length)` composite-key
    /// sort.
    Pk,
    /// Section 5, map-based block processing: the map function replicates
    /// and interleaves sub-blocks so the reducer holds one block at a time.
    BkMapBlocks {
        /// Number of sub-blocks per reduce partition.
        blocks: u32,
    },
    /// Section 5, reduce-based block processing: each block is sent once;
    /// the reducer stores non-resident blocks on its local disk.
    BkReduceBlocks {
        /// Number of sub-blocks per reduce partition.
        blocks: u32,
    },
}

/// Stage-3 algorithm: how RID pairs are rejoined with their records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage3Algo {
    /// Basic Record Join: two jobs (fill each half, then assemble).
    Brj,
    /// One-Phase Record Join: the RID-pair list is broadcast to every map
    /// task — faster on small lists, runs out of memory on large ones.
    Oprj,
}

/// Full configuration of an end-to-end join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinConfig {
    /// The join predicate.
    pub threshold: Threshold,
    /// Input line format.
    pub format: RecordFormat,
    /// Tokenization.
    pub tokenizer: TokenizerKind,
    /// Stage-1 variant.
    pub stage1: Stage1Algo,
    /// Stage-2 variant.
    pub stage2: Stage2Algo,
    /// Prefix-token routing.
    pub routing: TokenRouting,
    /// Stage-3 variant.
    pub stage3: Stage3Algo,
    /// Policy for malformed input records (stages parsing original dataset
    /// lines).
    pub bad_records: BadRecordPolicy,
    /// Skew-adaptive routing: sample the input before stage 2 and split
    /// hot routing groups into bucket-pair reduce keys (see
    /// [`crate::skew`]). Off by default.
    pub skew: SkewConfig,
}

impl JoinConfig {
    /// The paper's recommended robust configuration: BTO-PK-BRJ with
    /// individual-token routing and Jaccard 0.80.
    pub fn recommended() -> Self {
        JoinConfig {
            threshold: Threshold::jaccard(0.80),
            format: RecordFormat::bibliographic(),
            tokenizer: TokenizerKind::Word,
            stage1: Stage1Algo::Bto,
            stage2: Stage2Algo::Pk,
            routing: TokenRouting::Individual,
            stage3: Stage3Algo::Brj,
            bad_records: BadRecordPolicy::Strict,
            skew: SkewConfig::off(),
        }
    }

    /// The fastest combination in the paper's experiments: BTO-PK-OPRJ.
    pub fn fastest() -> Self {
        JoinConfig {
            stage3: Stage3Algo::Oprj,
            ..Self::recommended()
        }
    }

    /// The baseline combination: BTO-BK-BRJ.
    pub fn basic() -> Self {
        JoinConfig {
            stage2: Stage2Algo::Bk,
            ..Self::recommended()
        }
    }

    /// Replace the threshold.
    pub fn with_threshold(mut self, t: Threshold) -> Self {
        self.threshold = t;
        self
    }

    /// Reject values no job can run with, each named by the knob that sets
    /// it. The pipeline entry points check this once, before any job
    /// starts; a decoded config has passed it.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.tokenizer == TokenizerKind::QGram(0) {
            return Err("qgram: q must be at least 1".into());
        }
        if self.routing == (TokenRouting::Grouped { groups: 0 }) {
            return Err("groups: must be at least 1".into());
        }
        if self.format.join_fields.is_empty() {
            return Err("join-fields: must name at least one field".into());
        }
        if self.skew.split_max < 2 {
            return Err("skew-split-max: must be at least 2".into());
        }
        if self.skew.hot_threshold == 0 {
            return Err("skew-hot-threshold: must be at least 1".into());
        }
        Ok(())
    }

    /// Human-readable combination name like `BTO-PK-BRJ`.
    pub fn combo_name(&self) -> String {
        let s1 = match self.stage1 {
            Stage1Algo::Bto => "BTO",
            Stage1Algo::Opto => "OPTO",
        };
        let s2 = match self.stage2 {
            Stage2Algo::Bk => "BK",
            Stage2Algo::Pk => "PK",
            Stage2Algo::BkMapBlocks { .. } => "BK(mapblocks)",
            Stage2Algo::BkReduceBlocks { .. } => "BK(redblocks)",
        };
        let s3 = match self.stage3 {
            Stage3Algo::Brj => "BRJ",
            Stage3Algo::Oprj => "OPRJ",
        };
        format!("{s1}-{s2}-{s3}")
    }
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self::recommended()
    }
}

// ---------------------------------------------------------------------------
// Wire form
// ---------------------------------------------------------------------------
//
// A join job reaches a worker process as its spec's bytes, and every spec
// carries the `JoinConfig`. Each enum's tags are listed once: in its
// `codec_enum!`, or in the impl of an enum holding a `setsim` type.

fn unknown_tag(what: &str, tag: u8) -> MrError {
    MrError::Codec(format!("unknown {what} tag {tag}"))
}

codec_enum!(Stage1Algo ("stage-1 algorithm") { 0 => Bto, 1 => Opto });
codec_enum!(Stage3Algo ("stage-3 algorithm") { 0 => Brj, 1 => Oprj });
codec_enum!(BadRecordPolicy ("bad-record policy") { 0 => Strict, 1 => Skip, 2 => SkipUpTo(n) });
codec_enum!(TokenizerKind ("tokenizer") { 0 => Word, 1 => QGram(q) });
codec_enum!(TokenRouting ("routing") { 0 => Individual, 1 => Grouped { groups } });
codec_struct!(RecordFormat {
    rid_field,
    join_fields
});

impl Codec for Stage2Algo {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Stage2Algo::Bk => buf.push(0),
            Stage2Algo::Pk => buf.push(1),
            Stage2Algo::BkMapBlocks { blocks } => (2u8, blocks).encode(buf),
            Stage2Algo::BkReduceBlocks { blocks } => (3u8, blocks).encode(buf),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(Stage2Algo::Bk),
            1 => Ok(Stage2Algo::Pk),
            2 => Ok(Stage2Algo::BkMapBlocks {
                blocks: Codec::decode(r)?,
            }),
            3 => Ok(Stage2Algo::BkReduceBlocks {
                blocks: Codec::decode(r)?,
            }),
            t => Err(unknown_tag("stage-2 algorithm", t)),
        }
    }
}

/// Similarity functions by wire tag.
const SIM_FUNCTIONS: [SimFunction; 4] = [
    SimFunction::Jaccard,
    SimFunction::Cosine,
    SimFunction::Dice,
    SimFunction::Overlap,
];

/// The threshold is a foreign type, so it is spelled out here: function tag,
/// then τ. Decoding hands back only what [`JoinConfig::validate`] accepts.
impl Codec for JoinConfig {
    fn encode(&self, buf: &mut Vec<u8>) {
        let func = self.threshold.func();
        let tag = SIM_FUNCTIONS.iter().position(|f| *f == func);
        buf.push(tag.expect("every similarity function is listed") as u8);
        self.threshold.tau().encode(buf);
        self.format.encode(buf);
        self.tokenizer.encode(buf);
        self.stage1.encode(buf);
        self.stage2.encode(buf);
        self.routing.encode(buf);
        self.stage3.encode(buf);
        self.bad_records.encode(buf);
        self.skew.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let tag = r.take_u8()?;
        let func = SIM_FUNCTIONS.get(usize::from(tag)).copied();
        let func = func.ok_or_else(|| unknown_tag("similarity function", tag))?;
        let config = JoinConfig {
            threshold: Threshold::new(func, Codec::decode(r)?).map_err(MrError::Codec)?,
            format: Codec::decode(r)?,
            tokenizer: Codec::decode(r)?,
            stage1: Codec::decode(r)?,
            stage2: Codec::decode(r)?,
            routing: Codec::decode(r)?,
            stage3: Codec::decode(r)?,
            bad_records: Codec::decode(r)?,
            skew: Codec::decode(r)?,
        };
        config.validate().map_err(MrError::Codec)?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skew::SkewMode;
    use proptest::prelude::*;

    #[test]
    fn record_format_parses_bibliographic_lines() {
        let f = RecordFormat::bibliographic();
        let (rid, attr) = f
            .parse("17\tparallel joins\tvernica carey li\tsigmod 2010")
            .unwrap();
        assert_eq!(rid, 17);
        assert_eq!(attr, "parallel joins vernica carey li");
    }

    #[test]
    fn record_format_errors() {
        let f = RecordFormat::bibliographic();
        assert!(f.parse("").is_err());
        assert!(f.parse("abc\tt\ta").is_err());
        // Missing join fields are tolerated (short lines still parse).
        let (rid, attr) = f.parse("5\tonly title").unwrap();
        assert_eq!(rid, 5);
        assert_eq!(attr, "only title");
    }

    #[test]
    fn record_format_takes_fields_in_the_listed_order() {
        let line = "x\ttitle\t9\tauthors";
        let f = |rid_field, join_fields: &[usize]| RecordFormat {
            rid_field,
            join_fields: join_fields.to_vec(),
        };
        for (format, attr) in [
            (f(2, &[0, 1]), "x title"),
            (f(2, &[3, 1]), "authors title"),
            (f(2, &[1, 1, 7, 3]), "title title authors"),
            (f(2, &[2]), "9"),
            (f(2, &[]), ""),
        ] {
            assert_eq!(format.parse(line).unwrap(), (9, attr.to_string()));
            assert_eq!(format.rid(line).unwrap(), 9);
        }
        // `parse_into` replaces what the buffer held, also on a short line.
        let mut buf = "left over".to_string();
        assert_eq!(f(0, &[1, 2]).parse_into("4\tonly", &mut buf).unwrap(), 4);
        assert_eq!(buf, "only");
    }

    #[test]
    fn rid_reports_what_parse_reports() {
        let f = RecordFormat {
            rid_field: 1,
            join_fields: vec![0],
        };
        for line in ["", "no rid field", "a\tb", "a\t-3", "a\t"] {
            let expected = f.parse(line).unwrap_err().to_string();
            assert_eq!(f.rid(line).unwrap_err().to_string(), expected, "{line:?}");
        }
        assert!(f
            .parse("")
            .unwrap_err()
            .to_string()
            .contains("record has no field 1: \"\""));
        assert!(f
            .parse("a\tb")
            .unwrap_err()
            .to_string()
            .contains("bad RID \"b\""));
    }

    #[test]
    fn routing_group_assignment() {
        let r = TokenRouting::Individual;
        assert_eq!(r.group_of(123), 123);
        let g = TokenRouting::Grouped { groups: 10 };
        assert_eq!(g.group_of(123), 3);
        assert_eq!(g.group_of(7), 7);
    }

    #[test]
    fn combo_names() {
        assert_eq!(JoinConfig::recommended().combo_name(), "BTO-PK-BRJ");
        assert_eq!(JoinConfig::fastest().combo_name(), "BTO-PK-OPRJ");
        assert_eq!(JoinConfig::basic().combo_name(), "BTO-BK-BRJ");
    }

    #[test]
    fn bad_record_policy_parses_and_displays() {
        assert_eq!(
            BadRecordPolicy::parse("strict").unwrap(),
            BadRecordPolicy::Strict
        );
        assert_eq!(
            BadRecordPolicy::parse("skip").unwrap(),
            BadRecordPolicy::Skip
        );
        assert_eq!(
            BadRecordPolicy::parse("skip:3").unwrap(),
            BadRecordPolicy::SkipUpTo(3)
        );
        assert!(BadRecordPolicy::parse("lenient").is_err());
        assert!(BadRecordPolicy::parse("skip:").is_err());
        assert!(BadRecordPolicy::parse("skip:-1").is_err());
        for p in [
            BadRecordPolicy::Strict,
            BadRecordPolicy::Skip,
            BadRecordPolicy::SkipUpTo(7),
        ] {
            assert_eq!(BadRecordPolicy::parse(&p.to_string()).unwrap(), p);
        }
    }

    #[test]
    fn validate_names_the_knob_it_rejects() {
        let ok = JoinConfig::recommended();
        assert_eq!(ok.validate(), Ok(()));
        let rejected = |config: JoinConfig| config.validate().unwrap_err();
        let mut c = ok.clone();
        c.tokenizer = TokenizerKind::QGram(0);
        assert!(rejected(c).starts_with("qgram: "));
        let mut c = ok.clone();
        c.routing = TokenRouting::Grouped { groups: 0 };
        assert!(rejected(c).starts_with("groups: "));
        let mut c = ok.clone();
        c.format.join_fields.clear();
        assert!(rejected(c).starts_with("join-fields: "));
        let mut c = ok.clone();
        c.skew.split_max = 1;
        assert!(rejected(c).starts_with("skew-split-max: "));
        let mut c = ok.clone();
        c.skew.hot_threshold = 0;
        assert!(rejected(c).starts_with("skew-hot-threshold: "));
    }

    /// Every variant of every `codec_enum!` enum the configuration holds
    /// encodes to the bytes its hand-written codec wrote: a tag, then the
    /// variant's fields as varints.
    #[test]
    fn enum_wire_bytes_are_pinned() {
        let pinned: [(Vec<u8>, &[u8]); 16] = [
            (Stage1Algo::Bto.to_bytes(), &[0]),
            (Stage1Algo::Opto.to_bytes(), &[1]),
            (Stage3Algo::Brj.to_bytes(), &[0]),
            (Stage3Algo::Oprj.to_bytes(), &[1]),
            (BadRecordPolicy::Strict.to_bytes(), &[0]),
            (BadRecordPolicy::Skip.to_bytes(), &[1]),
            (BadRecordPolicy::SkipUpTo(300).to_bytes(), &[2, 0xAC, 0x02]),
            (TokenizerKind::Word.to_bytes(), &[0]),
            (TokenizerKind::QGram(3).to_bytes(), &[1, 3]),
            (TokenRouting::Individual.to_bytes(), &[0]),
            (
                TokenRouting::Grouped { groups: 200 }.to_bytes(),
                &[1, 0xC8, 0x01],
            ),
            (SkewMode::Off.to_bytes(), &[0]),
            (SkewMode::Adaptive.to_bytes(), &[1]),
            (Stage2Algo::Bk.to_bytes(), &[0]),
            (Stage2Algo::Pk.to_bytes(), &[1]),
            (Stage2Algo::BkMapBlocks { blocks: 4 }.to_bytes(), &[2, 4]),
        ];
        for (i, (got, want)) in pinned.iter().enumerate() {
            assert_eq!(got.as_slice(), *want, "case {i}");
        }
        assert!(Stage1Algo::from_bytes(&[3]).is_err());
        assert!(SkewMode::from_bytes(&[2]).is_err());
        assert!(TokenRouting::from_bytes(&[2, 1]).is_err());
    }

    #[test]
    fn decode_hands_back_only_valid_configs() {
        // Encoding does not validate; decoding does.
        let mut c = JoinConfig::recommended();
        c.routing = TokenRouting::Grouped { groups: 0 };
        let err = JoinConfig::from_bytes(&c.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("groups: "), "{err}");
        // The first byte is the similarity-function tag, the next eight τ.
        let mut bytes = JoinConfig::recommended().to_bytes();
        bytes[0] = 9;
        let err = JoinConfig::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("similarity function tag 9"));
        let mut bytes = JoinConfig::recommended().to_bytes();
        bytes[1..9].copy_from_slice(&1.5f64.to_le_bytes());
        assert!(JoinConfig::from_bytes(&bytes).is_err(), "Jaccard 1.5");
    }

    /// Every variant of every enum the configuration holds.
    fn configs() -> impl Strategy<Value = JoinConfig> {
        let fraction = |t: u32| f64::from(t) / 100.0;
        let threshold = prop_oneof![
            (1u32..=100).prop_map(move |t| Threshold::jaccard(fraction(t))),
            (1u32..=100).prop_map(move |t| Threshold::cosine(fraction(t))),
            (1u32..=100).prop_map(move |t| Threshold::dice(fraction(t))),
            (1u32..40).prop_map(|t| Threshold::new(SimFunction::Overlap, f64::from(t)).unwrap()),
        ];
        let format = (0usize..4, prop::collection::vec(0usize..6, 1..4)).prop_map(
            |(rid_field, join_fields)| RecordFormat {
                rid_field,
                join_fields,
            },
        );
        let tokenizer = prop_oneof![
            Just(TokenizerKind::Word),
            (1usize..9).prop_map(TokenizerKind::QGram)
        ];
        let stage1 = prop_oneof![Just(Stage1Algo::Bto), Just(Stage1Algo::Opto)];
        let stage2 = prop_oneof![
            Just(Stage2Algo::Bk),
            Just(Stage2Algo::Pk),
            (1u32..9).prop_map(|blocks| Stage2Algo::BkMapBlocks { blocks }),
            (1u32..9).prop_map(|blocks| Stage2Algo::BkReduceBlocks { blocks }),
        ];
        let routing = prop_oneof![
            Just(TokenRouting::Individual),
            (1u32..500).prop_map(|groups| TokenRouting::Grouped { groups }),
        ];
        let stage3 = prop_oneof![Just(Stage3Algo::Brj), Just(Stage3Algo::Oprj)];
        let bad_records = prop_oneof![
            Just(BadRecordPolicy::Strict),
            Just(BadRecordPolicy::Skip),
            any::<u64>().prop_map(BadRecordPolicy::SkipUpTo),
        ];
        let mode = prop_oneof![Just(SkewMode::Off), Just(SkewMode::Adaptive)];
        let skew = (mode, 2u32..17, 1u64..100_000).prop_map(|(mode, split_max, hot_threshold)| {
            SkewConfig {
                mode,
                split_max,
                hot_threshold,
            }
        });
        (
            (threshold, format, tokenizer, stage1, stage2),
            (routing, stage3, bad_records, skew),
        )
            .prop_map(|(a, b)| JoinConfig {
                threshold: a.0,
                format: a.1,
                tokenizer: a.2,
                stage1: a.3,
                stage2: a.4,
                routing: b.0,
                stage3: b.1,
                bad_records: b.2,
                skew: b.3,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The wire form loses nothing, and no damaged encoding panics the
        /// decoder or gets an invalid configuration past it.
        #[test]
        fn configs_round_trip_and_mutated_bytes_never_panic(config in configs()) {
            let bytes = config.to_bytes();
            prop_assert_eq!(&JoinConfig::from_bytes(&bytes).unwrap(), &config);
            for at in 0..bytes.len() {
                for flip in [0x01, 0x02, 0x80, 0xFF] {
                    let mut mutated = bytes.clone();
                    mutated[at] ^= flip;
                    if let Ok(decoded) = JoinConfig::from_bytes(&mutated) {
                        prop_assert_eq!(decoded.validate(), Ok(()));
                    }
                }
            }
        }
    }

    #[test]
    fn tokenizer_kind_builds() {
        let w = TokenizerKind::Word.build();
        assert_eq!(w.tokenize("A b"), vec!["a", "b"]);
        let q = TokenizerKind::QGram(2).build();
        assert!(!q.tokenize("ab").is_empty());
    }
}
