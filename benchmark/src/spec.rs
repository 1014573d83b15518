//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their bounds, and the per-layer metric names. `BENCHMARK.json` at the
//! repository root lists the same names; a self-test keeps the two equal.

use fuzzyjoin::{BackendKind, JoinConfig, SkewConfig, Threshold, TokenRouting};

/// Nodes of the simulated cluster (the CLI default).
pub const NODES: usize = 10;
/// DFS block size in bytes (the CLI default).
pub const BLOCK_SIZE: usize = 4 << 20;
/// Retry budget on the process backend (the CLI default there).
pub const PROCESS_MAX_ATTEMPTS: usize = 8;

/// Execution threads: the host's cores, at most four, so a result from a
/// large host still compares with one from a small host.
pub fn threads() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The shape of a workload's corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorpusKind {
    /// DBLP-style short records: a self-join input.
    Dblp,
    /// DBLP-style R and CITESEERX-style S of `base` records each, every
    /// fourth S record reusing an R record's title and authors, both
    /// increased over one shared token order: an R-S join input.
    CiteRs,
    /// DBLP-style records whose tokens are drawn with this Zipf exponent
    /// (the generator's default is 1.0).
    Zipf(f64),
}

/// How the corpus of a workload is built from the seed: `base` generated
/// records, increased `factor` times with the paper's token-shift technique.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Shape of the records.
    pub kind: CorpusKind,
    /// Generated records (per relation).
    pub base: usize,
    /// Times the base is increased.
    pub factor: usize,
}

impl CorpusSpec {
    /// The same corpus shape at a size a debug build joins in a second.
    pub fn smoke(self) -> CorpusSpec {
        CorpusSpec {
            base: 300,
            factor: 2,
            ..self
        }
    }

    /// Whether the workload joins two relations.
    pub fn is_rs(self) -> bool {
        self.kind == CorpusKind::CiteRs
    }
}

/// One benchmark workload: a corpus shape and the join run over it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Corpus shape.
    pub corpus: CorpusSpec,
    /// Execution backend.
    pub backend: BackendKind,
    /// Jaccard threshold.
    pub tau: f64,
    /// Prefix-token routing.
    pub routing: TokenRouting,
    /// Skew-adaptive routing on.
    pub skew_adaptive: bool,
}

impl Workload {
    /// The join configuration: BTO-PK-BRJ with this workload's threshold,
    /// routing and skew setting.
    pub fn join_config(&self) -> JoinConfig {
        JoinConfig {
            routing: self.routing,
            skew: if self.skew_adaptive {
                SkewConfig::adaptive()
            } else {
                SkewConfig::off()
            },
            ..JoinConfig::recommended().with_threshold(Threshold::jaccard(self.tau))
        }
    }

    /// Whether the DFS of this workload lives on disk.
    pub fn on_disk(&self) -> bool {
        self.backend == BackendKind::Process
    }
}

/// The benchmark's workloads. Sizes give a join of two to three seconds on
/// a 2-core host, so that one run of the driver (a warm-up and seven timed
/// joins) fits its time cap.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dblp-self",
        why: "balanced self-join of short records on the simulated backend: the CLI's default path, per-record framework cost dominates",
        corpus: CorpusSpec {
            kind: CorpusKind::Dblp,
            base: 20_000,
            factor: 10,
        },
        backend: BackendKind::Simulated,
        tau: 0.8,
        routing: TokenRouting::Individual,
        skew_adaptive: false,
    },
    Workload {
        name: "cite-rs",
        why: "R-S join of short against long records on the sharded backend: codec, merge, shuffle and stage 3 carry whole records, the kernel does little",
        corpus: CorpusSpec {
            kind: CorpusKind::CiteRs,
            base: 7_500,
            factor: 10,
        },
        backend: BackendKind::Sharded,
        tau: 0.8,
        routing: TokenRouting::Individual,
        skew_adaptive: false,
    },
    Workload {
        name: "zipf-lowtau-self",
        why: "skewed tokens at threshold 0.5 with grouped routing and adaptive skew splitting: the stage-2 kernel dominates, codec and stage 1 do not",
        corpus: CorpusSpec {
            kind: CorpusKind::Zipf(1.2),
            base: 18_000,
            factor: 2,
        },
        backend: BackendKind::Sharded,
        tau: 0.5,
        routing: TokenRouting::Grouped { groups: 64 },
        skew_adaptive: true,
    },
    Workload {
        name: "dblp-self-process",
        why: "the dblp-self join on worker processes over an on-disk DFS with durable commits: run files, pipes, fsync and the in-process fallback",
        corpus: CorpusSpec {
            kind: CorpusKind::Dblp,
            base: 20_000,
            factor: 10,
        },
        backend: BackendKind::Process,
        tau: 0.8,
        routing: TokenRouting::Individual,
        skew_adaptive: false,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share by which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
    /// A count the program makes: two runs of one seed read the same.
    pub exact: bool,
}

/// The end-to-end metrics, reported per workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "join_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "join_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "shuffle_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
];

/// The per-layer metrics `(name, unit, better)`, reported per workload from
/// the traced sample and the rungs that follow it.
pub const PER_LAYER: [(&str, &str, Better); 66] = [
    ("datagen.generate_s", "s", Better::Lower),
    ("datagen.records", "count", Better::Higher),
    ("datagen.input_mb", "MB", Better::Higher),
    ("dfs.write_mb_per_s", "MB/s", Better::Higher),
    ("dfs.read_mb_per_s", "MB/s", Better::Higher),
    ("dfs.seq_roundtrip_mb_per_s", "MB/s", Better::Higher),
    ("codec.encode_ns_per_rec", "ns", Better::Lower),
    ("codec.decode_ns_per_rec", "ns", Better::Lower),
    ("codec.bytes_per_rec", "B", Better::Lower),
    ("run.sort_combine_ns_per_rec", "ns", Better::Lower),
    ("run.merge_ns_per_rec", "ns", Better::Lower),
    ("run.merge_fanin", "count", Better::Lower),
    ("shuffle.channel_mb_per_s", "MB/s", Better::Higher),
    ("engine.identity_us_per_rec", "us", Better::Lower),
    ("engine.identity_wall_s", "s", Better::Lower),
    ("engine.wall_setup_s", "s", Better::Lower),
    ("engine.wall_spawn_s", "s", Better::Lower),
    ("engine.wall_map_s", "s", Better::Lower),
    ("engine.wall_regroup_s", "s", Better::Lower),
    ("engine.wall_reduce_s", "s", Better::Lower),
    ("engine.wall_commit_s", "s", Better::Lower),
    ("engine.wall_finalize_s", "s", Better::Lower),
    ("engine.busy_map_exec_s", "s", Better::Lower),
    ("engine.busy_spill_s", "s", Better::Lower),
    ("engine.busy_transport_s", "s", Better::Lower),
    ("engine.busy_merge_s", "s", Better::Lower),
    ("engine.busy_reduce_exec_s", "s", Better::Lower),
    ("engine.map_tasks", "count", Better::Lower),
    ("engine.reduce_tasks", "count", Better::Lower),
    ("engine.spills", "count", Better::Lower),
    ("engine.merge_passes", "count", Better::Lower),
    ("engine.task_retries", "count", Better::Lower),
    ("engine.process_fallback_jobs", "count", Better::Lower),
    ("engine.simulated_ref_wall_s", "s", Better::Lower),
    ("setsim.tokenize_ns_per_rec", "ns", Better::Lower),
    ("setsim.project_ns_per_rec", "ns", Better::Lower),
    ("setsim.ppjoin_single_s", "s", Better::Lower),
    ("setsim.candidates_examined", "count", Better::Lower),
    ("setsim.pairs", "count", Better::Higher),
    ("setsim.verify_useful_ratio", "ratio", Better::Higher),
    ("stage1.wall_s", "s", Better::Lower),
    ("stage1.self_s", "s", Better::Lower),
    ("stage1.shuffle_mb", "MB", Better::Lower),
    ("stage1.combine_ratio", "ratio", Better::Lower),
    ("stage1.tokens", "count", Better::Lower),
    ("stage2.wall_s", "s", Better::Lower),
    ("stage2.self_s", "s", Better::Lower),
    ("stage2.shuffle_mb", "MB", Better::Lower),
    ("stage2.replication_rate", "ratio", Better::Lower),
    ("stage2.max_reduce_group_records", "count", Better::Lower),
    ("stage2.reduce_skew", "ratio", Better::Lower),
    ("stage2.rid_pairs_out", "count", Better::Lower),
    ("stage2.dup_pair_ratio", "ratio", Better::Lower),
    ("stage2.skew_split_groups", "count", Better::Lower),
    ("stage2.wall_skew_off_s", "s", Better::Lower),
    ("stage3.wall_s", "s", Better::Lower),
    ("stage3.self_s", "s", Better::Lower),
    ("stage3.shuffle_mb", "MB", Better::Lower),
    (
        "stage3.shuffle_bytes_per_output_byte",
        "ratio",
        Better::Lower,
    ),
    ("stage3.pairs_out", "count", Better::Higher),
    ("pipeline.traced_wall_s", "s", Better::Lower),
    ("pipeline.trace_overhead_pct", "%", Better::Lower),
    ("pipeline.cpu_util", "ratio", Better::Higher),
    ("pipeline.cost_ratio", "ratio", Better::Lower),
    ("cli.run_wall_s", "s", Better::Lower),
    ("cli.overhead_s", "s", Better::Lower),
];
