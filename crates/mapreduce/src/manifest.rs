//! Job commit manifests — the `_SUCCESS` marker with teeth.
//!
//! On successful completion of any job with an output directory, the engine
//! writes a `_SUCCESS` file into that directory (Hadoop's
//! `FileOutputCommitter` marker) containing a JSON manifest: a schema
//! version, a caller-supplied fingerprint of the job's inputs and relevant
//! configuration, and the name/length/CRC of every committed `part-*` file.
//!
//! Before each job, a driver reads the manifest back and decides whether the
//! job's output is still trustworthy: the fingerprint must match what the
//! driver would compute today, every listed part must exist with the listed
//! length and CRC, the stored bytes must still verify against that CRC, and
//! no extra data file may have appeared. Any discrepancy invalidates the
//! manifest and the stage is re-executed — the recovery model of Dean &
//! Ghemawat's MapReduce, where durable committed output is the unit of
//! resumption.
//!
//! The manifest file's basename starts with `_`, so it is invisible to
//! directory reads and splits ([`crate::dfs::is_hidden`]) but visible to
//! `list`/`delete_prefix` — it can never be mistaken for data.

use crate::dfs::Dfs;
use crate::error::{MrError, Result};
use crate::json::{obj, Json};

/// Identifies the document type (the `schema` field of every manifest).
pub const MANIFEST_SCHEMA: &str = "mr.job-manifest";

/// Current manifest schema version. Additive changes do not bump this;
/// removals and meaning changes do.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Basename of the manifest file inside a job's output directory.
pub const SUCCESS_FILE: &str = "_SUCCESS";

/// Path of the manifest for the output directory `dir`.
pub fn success_path(dir: &str) -> String {
    format!("{}/{SUCCESS_FILE}", dir.trim_end_matches('/'))
}

/// One committed output file, as recorded in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestPart {
    /// Basename of the part file (e.g. `part-00003`).
    pub name: String,
    /// File length in bytes.
    pub len: u64,
    /// CRC-32 of the file's contents.
    pub crc: u32,
}

/// Result of validating a manifest against the current DFS state and the
/// fingerprint the driver expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestCheck {
    /// Everything matches: the job's committed output is reusable.
    Valid,
    /// The inputs or configuration changed since the manifest was written.
    FingerprintMismatch {
        /// Fingerprint the driver computed now.
        expected: u64,
        /// Fingerprint recorded in the manifest.
        found: u64,
    },
    /// A part listed in the manifest is gone or its length/CRC changed.
    PartMismatch(String),
    /// A part's stored bytes fail CRC verification (data corruption).
    ChecksumFailed(String),
    /// The directory's data files are not exactly the manifest's parts.
    PartSetChanged,
}

impl ManifestCheck {
    /// True when this check outcome indicates detected data corruption (as
    /// opposed to a legitimate config/input change).
    pub fn is_corruption(&self) -> bool {
        matches!(self, ManifestCheck::ChecksumFailed(_))
    }

    /// Short label for trace events and logs.
    pub fn reason(&self) -> String {
        match self {
            ManifestCheck::Valid => "valid".to_string(),
            ManifestCheck::FingerprintMismatch { expected, found } => {
                format!("fingerprint mismatch: expected {expected:016x}, found {found:016x}")
            }
            ManifestCheck::PartMismatch(p) => format!("part changed: {p}"),
            ManifestCheck::ChecksumFailed(p) => format!("checksum failed: {p}"),
            ManifestCheck::PartSetChanged => "part set changed".to_string(),
        }
    }
}

/// The commit manifest of one successful job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobManifest {
    /// Name of the job that produced the output.
    pub job: String,
    /// Fingerprint of the job's inputs + relevant config, supplied by the
    /// driver via [`crate::Job::fingerprint`] (0 when the driver opted out).
    pub fingerprint: u64,
    /// Every committed data file, name-ordered.
    pub parts: Vec<ManifestPart>,
}

impl JobManifest {
    /// Build a manifest by scanning `dir`'s committed data files, recording
    /// each one's length and stored CRC.
    pub fn collect(dfs: &Dfs, job: &str, fingerprint: u64, dir: &str) -> Result<JobManifest> {
        let mut parts = Vec::new();
        for path in dfs.data_files(dir) {
            let name = path.rsplit('/').next().unwrap_or(path.as_str()).to_string();
            let stat = dfs.stat(&path)?;
            parts.push(ManifestPart {
                name,
                len: stat.len,
                crc: stat.crc,
            });
        }
        Ok(JobManifest {
            job: job.to_string(),
            fingerprint,
            parts,
        })
    }

    /// Serialize as a single-line JSON document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema", Json::Str(MANIFEST_SCHEMA.to_string())),
            ("v", Json::Num(MANIFEST_SCHEMA_VERSION as f64)),
            ("job", Json::Str(self.job.clone())),
            // Hex string: u64 fingerprints don't fit the f64 mantissa.
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "parts",
                Json::Arr(
                    self.parts
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("name", Json::Str(p.name.clone())),
                                ("len", Json::Num(p.len as f64)),
                                ("crc", Json::Num(f64::from(p.crc))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a manifest document. Unknown fields are ignored (the same
    /// compatibility rule as every schema in this workspace).
    pub fn from_json(doc: &Json) -> Result<JobManifest> {
        let bad = |what: &str| MrError::Codec(format!("job manifest: {what}"));
        match doc.get("schema").and_then(Json::as_str) {
            Some(MANIFEST_SCHEMA) => {}
            _ => return Err(bad("missing or unknown schema")),
        }
        let v = doc
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing v"))?;
        if v > MANIFEST_SCHEMA_VERSION {
            return Err(bad(&format!("unsupported version {v}")));
        }
        let job = doc
            .get("job")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing job"))?
            .to_string();
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad("missing or malformed fingerprint"))?;
        let mut parts = Vec::new();
        for p in doc
            .get("parts")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing parts"))?
        {
            parts.push(ManifestPart {
                name: p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("part without name"))?
                    .to_string(),
                len: p
                    .get("len")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("part without len"))?,
                crc: p
                    .get("crc")
                    .and_then(Json::as_u64)
                    .and_then(|c| u32::try_from(c).ok())
                    .ok_or_else(|| bad("part without crc"))?,
            });
        }
        Ok(JobManifest {
            job,
            fingerprint,
            parts,
        })
    }

    /// Write the manifest as `dir/_SUCCESS`, replacing any stale one.
    pub fn write(&self, dfs: &Dfs, dir: &str) -> Result<()> {
        let path = success_path(dir);
        if dfs.exists(&path) {
            dfs.delete(&path)?;
        }
        dfs.write_text(&path, [self.to_json().to_string()])
    }

    /// Read the manifest of `dir`, if one exists. `Ok(None)` means no
    /// manifest (the job never committed); `Err` means a manifest exists
    /// but cannot be trusted (unreadable, corrupt, or malformed).
    pub fn read(dfs: &Dfs, dir: &str) -> Result<Option<JobManifest>> {
        let path = success_path(dir);
        if !dfs.exists(&path) {
            return Ok(None);
        }
        let lines = dfs.read_text(&path)?;
        let text = lines.join("\n");
        let doc = Json::parse(&text)?;
        Ok(Some(JobManifest::from_json(&doc)?))
    }

    /// Validate this manifest against the DFS and the fingerprint the
    /// driver expects now. Checks, in order: fingerprint, exact part set,
    /// per-part existence/length/stored CRC, then actual data bytes
    /// against the CRC.
    pub fn validate(&self, dfs: &Dfs, dir: &str, expected_fingerprint: u64) -> ManifestCheck {
        if self.fingerprint != expected_fingerprint {
            return ManifestCheck::FingerprintMismatch {
                expected: expected_fingerprint,
                found: self.fingerprint,
            };
        }
        let dir = dir.trim_end_matches('/');
        let present: Vec<String> = dfs.data_files(dir);
        let expected: Vec<String> = self
            .parts
            .iter()
            .map(|p| format!("{dir}/{}", p.name))
            .collect();
        if present != expected {
            return ManifestCheck::PartSetChanged;
        }
        for part in &self.parts {
            let path = format!("{dir}/{}", part.name);
            let ok = dfs
                .stat(&path)
                .is_ok_and(|s| s.len == part.len && s.crc == part.crc);
            if !ok {
                return ManifestCheck::PartMismatch(path);
            }
            if dfs.verify(&path).is_err() {
                return ManifestCheck::ChecksumFailed(path);
            }
        }
        ManifestCheck::Valid
    }
}

/// FNV-1a over a byte stream — the workspace's stock fingerprint hash,
/// and (seeded) the hash every fault draw is keyed by: a [`crate::FaultPlan`]'s
/// per-attempt seed and the disk store's per-operation storage faults. Fold
/// in each component of a job's identity (name, config tag, input
/// paths/lengths/CRCs) via [`Fingerprint::update`].
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Start a fresh fingerprint (FNV-1a offset basis).
    pub fn new() -> Self {
        Self::seeded(0)
    }

    /// Start a fingerprint whose offset basis is mixed with `seed`.
    pub fn seeded(seed: u64) -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325 ^ seed)
    }

    /// Fold bytes into the fingerprint. Callers should delimit variable-
    /// length fields themselves (e.g. hash a length or separator too).
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold a `u64` (little-endian) into the fingerprint.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs_with_parts() -> Dfs {
        let dfs = Dfs::new(2, 1024).unwrap();
        dfs.write_text("/out/part-00000", ["a", "b"]).unwrap();
        dfs.write_text("/out/part-00001", ["c"]).unwrap();
        dfs
    }

    #[test]
    fn manifest_roundtrip() {
        let dfs = dfs_with_parts();
        let m = JobManifest::collect(&dfs, "job-x", 0xfeed_face_dead_beef, "/out").unwrap();
        assert_eq!(m.parts.len(), 2);
        assert_eq!(m.parts[0].name, "part-00000");
        m.write(&dfs, "/out").unwrap();
        let back = JobManifest::read(&dfs, "/out").unwrap().unwrap();
        assert_eq!(back, m);
        assert_eq!(back.fingerprint, 0xfeed_face_dead_beef);
        // The manifest itself is hidden from data reads.
        assert_eq!(dfs.read_text("/out").unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn missing_manifest_reads_as_none() {
        let dfs = dfs_with_parts();
        assert!(JobManifest::read(&dfs, "/out").unwrap().is_none());
    }

    #[test]
    fn validation_catches_every_divergence() {
        let dfs = dfs_with_parts();
        let m = JobManifest::collect(&dfs, "j", 7, "/out").unwrap();
        m.write(&dfs, "/out").unwrap();
        assert_eq!(m.validate(&dfs, "/out", 7), ManifestCheck::Valid);
        // Wrong fingerprint.
        assert!(matches!(
            m.validate(&dfs, "/out", 8),
            ManifestCheck::FingerprintMismatch {
                expected: 8,
                found: 7
            }
        ));
        // Extra data file.
        dfs.write_text("/out/part-00002", ["zzz"]).unwrap();
        assert_eq!(m.validate(&dfs, "/out", 7), ManifestCheck::PartSetChanged);
        dfs.delete("/out/part-00002").unwrap();
        // Missing part.
        dfs.delete("/out/part-00001").unwrap();
        assert_eq!(m.validate(&dfs, "/out", 7), ManifestCheck::PartSetChanged);
        // Replaced part (different content ⇒ different CRC).
        dfs.write_text("/out/part-00001", ["different"]).unwrap();
        assert!(matches!(
            m.validate(&dfs, "/out", 7),
            ManifestCheck::PartMismatch(_)
        ));
    }

    #[test]
    fn validation_detects_bit_corruption() {
        let dfs = dfs_with_parts();
        let m = JobManifest::collect(&dfs, "j", 1, "/out").unwrap();
        m.write(&dfs, "/out").unwrap();
        dfs.corrupt("/out/part-00000").unwrap();
        let check = m.validate(&dfs, "/out", 1);
        assert!(check.is_corruption(), "got {check:?}");
        assert!(check.reason().contains("checksum failed"));
    }

    #[test]
    fn unknown_manifest_fields_are_ignored() {
        let dfs = dfs_with_parts();
        let m = JobManifest::collect(&dfs, "j", 3, "/out").unwrap();
        let Json::Obj(mut members) = m.to_json() else {
            panic!("manifest serializes as an object")
        };
        members.push(("future_field".to_string(), Json::Str("ignored".into())));
        let back = JobManifest::from_json(&Json::Obj(members)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn malformed_manifest_is_an_error_not_a_skip() {
        let dfs = dfs_with_parts();
        dfs.write_text(&success_path("/out"), ["{\"schema\":\"nope\"}"])
            .unwrap();
        assert!(JobManifest::read(&dfs, "/out").is_err());
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let mut a = Fingerprint::new();
        a.update(b"ab");
        let mut b = Fingerprint::new();
        b.update(b"ba");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.update(b"a");
        c.update(b"b");
        assert_eq!(a.finish(), c.finish());
        let mut d = Fingerprint::new();
        d.update_u64(1);
        let mut e = Fingerprint::new();
        e.update_u64(2);
        assert_ne!(d.finish(), e.finish());
    }
}
