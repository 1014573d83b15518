//! Recovery bookkeeping: deciding which pipeline jobs can be skipped.
//!
//! Every join ([`crate::pipeline::self_join`], [`crate::pipeline::rs_join`])
//! resumes: before launching each job the driver checks the output
//! directory's `_SUCCESS` commit manifest ([`mapreduce::JobManifest`]): if
//! the manifest is present, its fingerprint matches what the driver
//! computes *now* (same inputs by content, same relevant config), and every
//! committed part still verifies against its checksum, the job is skipped
//! and its committed output reused. Anything else — missing manifest,
//! changed inputs/config, missing or corrupted parts — re-runs the job,
//! and the engine clears the directory before the job writes to it. A job
//! whose directory is empty simply runs, unrecorded, until the join has
//! found earlier output: a fresh join records nothing, and a resumed one
//! records every job it did not skip as re-run.
//!
//! Fingerprints chain integrity through the pipeline: a job's fingerprint
//! covers its input files' lengths and CRCs, so if an upstream stage re-ran
//! and produced *different* bytes, every downstream fingerprint changes and
//! the downstream stages re-run too; if the re-run reproduced identical
//! bytes (the common case — the engine is deterministic), downstream
//! manifests stay valid and are skipped.

use mapreduce::{
    Cluster, Dfs, EventKind, Fingerprint, Job, JobManifest, JobMetrics, JobSpec, ManifestCheck,
    MrError, Result, TraceEvent,
};

use crate::config::JoinConfig;

/// Counter (in [`JobMetrics::counters`]) marking a job that a join
/// skipped because its committed output was still valid.
pub const JOB_SKIPPED_COUNTER: &str = "recovery.job_skipped";

/// What a join decided about each job's earlier output, threaded through
/// the stage drivers: empty for a join over a fresh work directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Names of jobs skipped because their committed output was valid.
    pub jobs_skipped: Vec<String>,
    /// Jobs that ran again once the join had found earlier output, as
    /// `name: reason`.
    pub jobs_rerun: Vec<String>,
    /// Committed files whose stored checksum no longer matched their bytes —
    /// detected corruption, never silently reused.
    pub checksum_failures: u64,
}

impl Recovery {
    /// Skip or run the job `job_name` that writes to `dir`: fingerprint it
    /// over `inputs` and `config_tag` ([`job_fingerprint`]), and either
    /// reuse the committed output, answering with placeholder metrics that
    /// carry [`JOB_SKIPPED_COUNTER`], or hand the fingerprint to `run`,
    /// which runs the job's spec under it ([`run_spec`]).
    pub fn run_or_skip(
        &mut self,
        cluster: &Cluster,
        job_name: &str,
        inputs: &[&str],
        config_tag: &str,
        dir: &str,
        run: impl FnOnce(u64) -> Result<JobMetrics>,
    ) -> Result<JobMetrics> {
        let fingerprint = job_fingerprint(cluster.dfs(), job_name, inputs, config_tag);
        if self.should_skip(cluster, job_name, dir, fingerprint) {
            Ok(Self::skipped_job_metrics(job_name, cluster.config().nodes))
        } else {
            run(fingerprint)
        }
    }

    /// Decide whether the job writing to `dir` can be skipped: `true` when
    /// its commit manifest validates against `fingerprint`. Otherwise the
    /// job runs, and the engine clears `dir` before it writes there; it is
    /// recorded as a re-run unless `dir` is empty and the join has found no
    /// earlier output yet.
    fn should_skip(
        &mut self,
        cluster: &Cluster,
        job_name: &str,
        dir: &str,
        fingerprint: u64,
    ) -> bool {
        let dfs = cluster.dfs();
        let reason = match JobManifest::read(dfs, dir) {
            Ok(Some(manifest)) => {
                let check = manifest.validate(dfs, dir, fingerprint);
                if check == ManifestCheck::Valid {
                    self.jobs_skipped.push(job_name.to_string());
                    if let Some(t) = cluster.trace() {
                        let mut e = TraceEvent::new(EventKind::ResumeSkip, job_name);
                        e.detail = Some(format!("committed output valid at {dir}"));
                        t.emit(e);
                    }
                    return true;
                }
                if check.is_corruption() {
                    self.note_checksum_failure(cluster, job_name, &check.reason());
                }
                check.reason()
            }
            Ok(None) if *self == Recovery::default() && dfs.list(dir).is_empty() => return false,
            Ok(None) => "no commit manifest".to_string(),
            Err(e) => {
                if matches!(e, MrError::ChecksumMismatch { .. }) {
                    self.note_checksum_failure(cluster, job_name, &e.to_string());
                }
                format!("unreadable manifest: {e}")
            }
        };
        self.jobs_rerun.push(format!("{job_name}: {reason}"));
        false
    }

    fn note_checksum_failure(&mut self, cluster: &Cluster, job_name: &str, detail: &str) {
        self.checksum_failures += 1;
        if let Some(t) = cluster.trace() {
            let mut e = TraceEvent::new(EventKind::ChecksumFail, job_name);
            e.detail = Some(detail.to_string());
            t.emit(e);
        }
    }

    /// Placeholder metrics for a skipped job, so stage metrics stay
    /// positionally comparable with a fresh run's. Carries the topology,
    /// the [`JOB_SKIPPED_COUNTER`] marker and nothing else.
    fn skipped_job_metrics(name: &str, nodes: usize) -> JobMetrics {
        JobMetrics {
            name: name.to_string(),
            nodes,
            counters: vec![(JOB_SKIPPED_COUNTER.to_string(), 1)],
            ..JobMetrics::default()
        }
    }
}

/// Run the job `spec` describes, stamped with `fingerprint`. Every job of
/// stages 1–3 is built here and nowhere else, by [`JobSpec::build`] — the
/// function a worker process calls on the same spec's bytes.
pub(crate) fn run_spec<S: JobSpec>(
    cluster: &Cluster,
    spec: &S,
    fingerprint: u64,
) -> Result<JobMetrics> {
    cluster.run(Job::from_spec(spec, cluster.dfs())?.fingerprint(fingerprint))
}

/// Fingerprint of a job's identity: its name, the stage's relevant config
/// (a caller-built tag), and each input's files by `(path, len, CRC)`.
///
/// Length and *stored* CRC come from one header-only [`Dfs::stat`] per
/// file — no payload is read — which keeps this cheap, and [`Dfs`] verifies
/// bytes against that CRC on every read anyway, so a fingerprint match plus
/// readable inputs implies matching content.
pub fn job_fingerprint(dfs: &Dfs, job_name: &str, inputs: &[&str], config_tag: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update(job_name.as_bytes());
    fp.update(&[0]);
    fp.update(config_tag.as_bytes());
    fp.update(&[0]);
    for input in inputs {
        fp.update(input.as_bytes());
        fp.update(&[0]);
        let files = dfs.data_files(input);
        fp.update_u64(files.len() as u64);
        for f in &files {
            fp.update(f.as_bytes());
            let (len, crc) = dfs.stat(f).map_or((0, 0), |s| (s.len, s.crc));
            fp.update_u64(len);
            fp.update_u64(u64::from(crc));
        }
    }
    fp.finish()
}

/// Config tag covering everything that changes stage-1 output.
pub fn stage1_tag(config: &JoinConfig) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        config.stage1, config.tokenizer, config.format, config.bad_records
    )
}

/// Config tag covering everything that changes stage-2 output. The skew
/// config is part of the tag even though splitting never changes committed
/// *pairs*: the job's intermediate shape (and its metrics) differ, and the
/// skew plan itself is a pure function of the inputs (covered by content
/// fingerprinting) and this config, so tagging the config pins the plan.
pub fn stage2_tag(config: &JoinConfig, rs: bool) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|skew={:?}|rs={rs}",
        config.threshold,
        config.stage2,
        config.routing,
        config.tokenizer,
        config.format,
        config.bad_records,
        config.skew
    )
}

/// Config tag covering everything that changes stage-3 output.
pub fn stage3_tag(config: &JoinConfig) -> String {
    format!(
        "{:?}|{:?}|{:?}",
        config.stage3, config.format, config.bad_records
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mapreduce::ClusterConfig;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_nodes(2), 512).unwrap()
    }

    /// What a worker process does with `spec` — decode the bytes the driver
    /// sent, build — gives the job the driver built: same name, reducer
    /// count, output directory and input splits, from a spec that encodes
    /// to the same bytes again. Returns those four for the caller to pin.
    pub(crate) fn worker_builds_the_drivers_job<S: JobSpec>(
        spec: &S,
        dfs: &Dfs,
    ) -> (String, Option<usize>, String, usize) {
        let shape = |spec: &S| {
            let job = spec.build(dfs).unwrap();
            let dir = job.output.dir().expect("a stage job has an output");
            (
                job.name.clone(),
                job.num_reducers,
                dir.to_string(),
                job.inputs.len(),
            )
        };
        let bytes = spec.to_bytes();
        let decoded = S::from_bytes(&bytes).unwrap();
        assert_eq!(
            decoded.to_bytes(),
            bytes,
            "a field did not survive the wire"
        );
        let built = shape(spec);
        assert_eq!(shape(&decoded), built);
        built
    }

    /// A stage driver handed a config no job can run with answers
    /// `InvalidConfig`, naming the knob — not a missing input, a panic, or
    /// (on worker processes) a spec its workers cannot decode.
    pub(crate) fn refuses_a_bad_config<T>(run: impl Fn(&Cluster, &JoinConfig) -> Result<T>) {
        let mut bad = JoinConfig::recommended();
        bad.routing = crate::config::TokenRouting::Grouped { groups: 0 };
        // An empty DFS: any other first step fails as `FileNotFound`.
        match run(&cluster(), &bad).map(|_| ()) {
            Err(MrError::InvalidConfig(msg)) => assert!(msg.starts_with("groups: "), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn an_empty_directory_is_neither_skipped_nor_rerun() {
        let c = cluster();
        let mut rec = Recovery::default();
        assert!(!rec.should_skip(&c, "j", "/out", 1));
        assert_eq!(rec, Recovery::default(), "a fresh job records nothing");
        // Once the join has found earlier output, the jobs after it run
        // again.
        rec.jobs_skipped.push("i".into());
        assert!(!rec.should_skip(&c, "j", "/out", 1));
        assert_eq!(rec.jobs_rerun, ["j: no commit manifest"]);
    }

    #[test]
    fn valid_output_is_skipped_and_invalid_output_rerun() {
        let c = cluster();
        c.dfs().write_text("/out/part-00000", ["x"]).unwrap();
        JobManifest::collect(c.dfs(), "j", 1, "/out")
            .unwrap()
            .write(c.dfs(), "/out")
            .unwrap();
        let mut rec = Recovery::default();
        assert!(rec.should_skip(&c, "j", "/out", 1));
        assert_eq!(rec.jobs_skipped, vec!["j"]);
        // Fingerprint mismatch: re-run. The engine, not the check, clears
        // the directory, when the job starts.
        assert!(!rec.should_skip(&c, "j", "/out", 2));
        assert_eq!(rec.jobs_rerun.len(), 1);
        assert!(rec.jobs_rerun[0].contains("fingerprint mismatch"));
        assert!(c.dfs().exists("/out/part-00000"));
        // Parts without a manifest: re-run.
        c.dfs().delete(&mapreduce::success_path("/out")).unwrap();
        assert!(!rec.should_skip(&c, "j", "/out", 1));
        assert!(rec.jobs_rerun[1].contains("no commit manifest"));
        assert_eq!(rec.checksum_failures, 0);
    }

    #[test]
    fn corruption_counts_as_checksum_failure_and_forces_rerun() {
        let c = cluster();
        c.dfs().write_text("/out/part-00000", ["x"]).unwrap();
        JobManifest::collect(c.dfs(), "j", 1, "/out")
            .unwrap()
            .write(c.dfs(), "/out")
            .unwrap();
        c.dfs().corrupt("/out/part-00000").unwrap();
        let mut rec = Recovery::default();
        assert!(!rec.should_skip(&c, "j", "/out", 1));
        assert_eq!(rec.checksum_failures, 1);
        assert!(rec.jobs_rerun[0].contains("checksum failed"));
    }

    #[test]
    fn fingerprint_tracks_input_content_and_config() {
        let c = cluster();
        c.dfs().write_text("/in/part-00000", ["a"]).unwrap();
        let base = job_fingerprint(c.dfs(), "j", &["/in"], "cfg");
        assert_eq!(base, job_fingerprint(c.dfs(), "j", &["/in"], "cfg"));
        assert_ne!(base, job_fingerprint(c.dfs(), "k", &["/in"], "cfg"));
        assert_ne!(base, job_fingerprint(c.dfs(), "j", &["/in"], "cfg2"));
        c.dfs().delete("/in/part-00000").unwrap();
        c.dfs().write_text("/in/part-00000", ["b"]).unwrap();
        assert_ne!(
            base,
            job_fingerprint(c.dfs(), "j", &["/in"], "cfg"),
            "changed input content must change the fingerprint"
        );
        // Re-writing identical content restores the fingerprint: integrity
        // chains on content, not write time.
        c.dfs().delete("/in/part-00000").unwrap();
        c.dfs().write_text("/in/part-00000", ["a"]).unwrap();
        assert_eq!(base, job_fingerprint(c.dfs(), "j", &["/in"], "cfg"));
    }

    #[test]
    fn fingerprint_and_manifest_take_metadata_from_the_header_alone() {
        use mapreduce::{ManifestCheck, MrError};
        let dfs = Dfs::new(2, 16).unwrap();
        let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
        dfs.write_text("/out/part-00000", &lines).unwrap();
        let fp = job_fingerprint(&dfs, "j", &["/out"], "cfg");
        let manifest = JobManifest::collect(&dfs, "j", fp, "/out").unwrap();
        assert_eq!(manifest.validate(&dfs, "/out", fp), ManifestCheck::Valid);

        // Zero the payload in place, same length: neither the fingerprint
        // nor `collect` reads it, so both still answer from the header.
        let real = dfs.root().join("fs/out/part-00000");
        let mut bytes = std::fs::read(&real).unwrap();
        let header = bytes.len() - manifest.parts[0].len as usize;
        bytes[header..].fill(0);
        std::fs::write(&real, &bytes).unwrap();
        assert_eq!(job_fingerprint(&dfs, "j", &["/out"], "cfg"), fp);
        assert_eq!(
            JobManifest::collect(&dfs, "j", fp, "/out").unwrap(),
            manifest
        );
        // Everything that returns or vouches for bytes still reads them.
        assert!(matches!(
            dfs.verify("/out/part-00000"),
            Err(MrError::ChecksumMismatch { expected, .. }) if expected == manifest.parts[0].crc
        ));
        assert_eq!(
            manifest.validate(&dfs, "/out", fp),
            ManifestCheck::ChecksumFailed("/out/part-00000".to_string())
        );
    }

    #[test]
    fn stage_tags_cover_the_bad_record_policy() {
        let mut cfg = JoinConfig::recommended();
        let (t1, t2, t3) = (stage1_tag(&cfg), stage2_tag(&cfg, false), stage3_tag(&cfg));
        cfg.bad_records = crate::config::BadRecordPolicy::Skip;
        assert_ne!(t1, stage1_tag(&cfg));
        assert_ne!(t2, stage2_tag(&cfg, false));
        assert_ne!(t3, stage3_tag(&cfg));
        assert_ne!(stage2_tag(&cfg, false), stage2_tag(&cfg, true));
    }

    #[test]
    fn stage2_tag_covers_the_skew_config() {
        let mut cfg = JoinConfig::recommended();
        let base = stage2_tag(&cfg, false);
        cfg.skew = crate::skew::SkewConfig::forced(8, 4);
        let forced = stage2_tag(&cfg, false);
        assert_ne!(base, forced, "enabling skew must invalidate stage 2");
        cfg.skew.split_max = 6;
        assert_ne!(forced, stage2_tag(&cfg, false), "knobs are covered too");
        assert_eq!(stage1_tag(&cfg), stage1_tag(&JoinConfig::recommended()));
    }
}
