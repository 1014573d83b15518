//! One sample: set a cluster up, join, check the output.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fuzzyjoin::{
    read_joined, rs_join, self_join, stage1, stage2, stage3, BackendKind, Cluster, ClusterConfig,
    JoinConfig, JoinOutcome,
};

use crate::corpus::Corpus;
use crate::procfs::cpu_secs;
use crate::reference::digest_pairs;
use crate::spec::{self, Workload};
use crate::trace::Trace;

/// DFS path of R (the only input of a self-join).
pub const R_PATH: &str = "/r";
/// DFS path of S.
pub const S_PATH: &str = "/s";
/// DFS work directory of the join.
pub const WORK: &str = "/work";

/// Where a sample keeps its on-disk DFS: a fresh directory under `out_dir`,
/// removed when the sample ends.
struct DfsRoot(PathBuf);

impl DfsRoot {
    fn create(out_dir: &Path, label: &str) -> Result<DfsRoot, String> {
        let path = out_dir.join(format!("dfs-{}-{label}", std::process::id()));
        // A directory left by a killed run would make the sample resume
        // over old files.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(DfsRoot(path))
    }
}

impl Drop for DfsRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A cluster and, for an on-disk store, the directory that holds it.
pub struct Store {
    /// The cluster.
    pub cluster: Cluster,
    _root: Option<DfsRoot>,
}

/// How a sample differs from the workload's own configuration: the ladder
/// runs the same join on another backend or with skew handling off.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    /// Run on this backend instead of the workload's.
    pub backend: Option<BackendKind>,
    /// Switch skew-adaptive routing off.
    pub skew_off: bool,
}

/// A cluster shaped like the CLI's default for `backend`, with the thread
/// count pinned. The process backend gets a fresh on-disk DFS under
/// `out_dir` with durable commits, as `--backend process` does.
pub fn new_cluster(backend: BackendKind, out_dir: &Path, label: &str) -> Result<Store, String> {
    let root = if backend == BackendKind::Process {
        Some(DfsRoot::create(out_dir, label)?)
    } else {
        None
    };
    let config = ClusterConfig {
        backend,
        execution_threads: Some(spec::threads()),
        max_task_attempts: if backend == BackendKind::Process {
            spec::PROCESS_MAX_ATTEMPTS
        } else {
            1
        },
        dfs_root: root.as_ref().map(|r| r.0.clone()),
        ..ClusterConfig::with_nodes(spec::NODES)
    };
    let cluster = Cluster::new(config, spec::BLOCK_SIZE).map_err(|e| e.to_string())?;
    Ok(Store {
        cluster,
        _root: root,
    })
}

/// Create a cluster on `backend` and write `corpus` into its DFS. Returns
/// the store and the seconds both took together.
pub fn load(
    backend: BackendKind,
    corpus: &Corpus,
    out_dir: &Path,
    label: &str,
) -> Result<(Store, f64), String> {
    let start = Instant::now();
    let store = new_cluster(backend, out_dir, label)?;
    let dfs = store.cluster.dfs();
    dfs.write_text(R_PATH, &corpus.r)
        .map_err(|e| e.to_string())?;
    if let Some(s) = &corpus.s {
        dfs.write_text(S_PATH, s).map_err(|e| e.to_string())?;
    }
    Ok((store, start.elapsed().as_secs_f64()))
}

/// What one sample measured.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Seconds setting the cluster up.
    pub setup_s: f64,
    /// Seconds from inputs in the DFS to the joined output committed.
    pub join_wall_s: f64,
    /// CPU seconds of this process and its reaped children over the join.
    pub join_cpu_s: f64,
    /// Digest of the joined output.
    pub digest: u64,
    /// Joined pairs.
    pub pairs: u64,
    /// Per-stage metrics of the join.
    pub outcome: JoinOutcome,
    /// Bytes of the joined output in the DFS.
    pub output_bytes: u64,
}

/// Digest the joined output the way the reference is digested. A self-join
/// pair is keyed smaller RID first.
fn output_digest(
    cluster: &Cluster,
    outcome: &JoinOutcome,
    is_rs: bool,
) -> Result<(u64, u64), String> {
    let joined = read_joined(cluster, &outcome.joined_path).map_err(|e| e.to_string())?;
    let mut pairs: Vec<(u64, u64, f64)> = joined
        .iter()
        .map(|((a, b), (_, _, sim))| {
            if is_rs {
                (*a, *b, *sim)
            } else {
                (*a.min(b), *a.max(b), *sim)
            }
        })
        .collect();
    pairs.sort_by(|p, q| p.0.cmp(&q.0).then(p.1.cmp(&q.1)));
    Ok((digest_pairs(&pairs), pairs.len() as u64))
}

fn join_untraced(
    cluster: &Cluster,
    config: &JoinConfig,
    is_rs: bool,
) -> fuzzyjoin::Result<JoinOutcome> {
    if is_rs {
        rs_join(cluster, R_PATH, S_PATH, WORK, config)
    } else {
        self_join(cluster, R_PATH, WORK, config)
    }
}

/// The join as three stage calls, each under a span whose children are the
/// stage's jobs. Returns the outcome and the ids of the stage spans.
fn join_traced(
    cluster: &Cluster,
    config: &JoinConfig,
    is_rs: bool,
    trace: &mut Trace,
    parent: usize,
) -> fuzzyjoin::Result<(JoinOutcome, [usize; 3])> {
    let job_children = |m: &mapreduce::PipelineMetrics| -> Vec<(String, f64)> {
        m.jobs
            .iter()
            .map(|j| (j.name.clone(), j.wall_secs))
            .collect()
    };
    let (r1, s1) = trace.span("stage1", Some(parent), |_, _| {
        stage1::run(cluster, R_PATH, config, WORK)
    });
    let (tokens_path, m1) = r1?;
    trace.reported_children(s1, &job_children(&m1));

    let (r2, s2) = trace.span("stage2", Some(parent), |_, _| {
        if is_rs {
            stage2::run_rs(cluster, R_PATH, S_PATH, &tokens_path, config, WORK)
        } else {
            stage2::run_self(cluster, R_PATH, &tokens_path, config, WORK)
        }
    });
    let (ridpairs_path, m2) = r2?;
    trace.reported_children(s2, &job_children(&m2));

    let (r3, s3) = trace.span("stage3", Some(parent), |_, _| {
        if is_rs {
            stage3::run_rs(cluster, R_PATH, S_PATH, &ridpairs_path, config, WORK)
        } else {
            stage3::run_self(cluster, R_PATH, &ridpairs_path, config, WORK)
        }
    });
    let (joined_path, m3) = r3?;
    trace.reported_children(s3, &job_children(&m3));

    let outcome = JoinOutcome {
        tokens_path,
        ridpairs_path,
        joined_path,
        stage1: m1,
        stage2: m2,
        stage3: m3,
        ..JoinOutcome::default()
    };
    Ok((outcome, [s1, s2, s3]))
}

/// Span ids of a traced sample.
#[derive(Debug, Clone, Copy)]
pub struct SampleSpans {
    /// The join: stage 1 to stage 3.
    pub join: usize,
    /// The three stages.
    pub stages: [usize; 3],
}

/// Run one sample of `workload` over `corpus`. With a trace the join runs
/// stage by stage under spans; without one it is a single
/// `fuzzyjoin::self_join` / `rs_join` call.
pub fn run(
    workload: &Workload,
    variant: Variant,
    corpus: &Corpus,
    out_dir: &Path,
    label: &str,
    mut trace: Option<(&mut Trace, usize)>,
) -> Result<(Sample, Option<SampleSpans>), String> {
    let is_rs = workload.corpus.is_rs();
    let mut config = workload.join_config();
    if variant.skew_off {
        config.skew = fuzzyjoin::SkewConfig::off();
    }
    let backend = variant.backend.unwrap_or(workload.backend);

    let (store, setup_s) = match trace.as_mut() {
        None => load(backend, corpus, out_dir, label)?,
        Some((trace, parent)) => {
            trace
                .span("setup", Some(*parent), |_, _| {
                    load(backend, corpus, out_dir, label)
                })
                .0?
        }
    };
    let cluster = &store.cluster;

    let cpu_before = cpu_secs();
    let start = Instant::now();
    let (outcome, spans) = match trace.as_mut() {
        None => (
            join_untraced(cluster, &config, is_rs).map_err(|e| e.to_string())?,
            None,
        ),
        Some((trace, parent)) => {
            let (joined, join) = trace.span("join", Some(*parent), |trace, join| {
                join_traced(cluster, &config, is_rs, trace, join)
            });
            let (outcome, stages) = joined.map_err(|e| e.to_string())?;
            (outcome, Some(SampleSpans { join, stages }))
        }
    };
    let join_wall_s = start.elapsed().as_secs_f64();
    let join_cpu_s = cpu_secs() - cpu_before;

    let (digest, pairs) = output_digest(cluster, &outcome, is_rs)?;
    let output_bytes = cluster.dfs().len_under(&outcome.joined_path);
    Ok((
        Sample {
            setup_s,
            join_wall_s,
            join_cpu_s,
            digest,
            pairs,
            outcome,
            output_bytes,
        },
        spans,
    ))
}
