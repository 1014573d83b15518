//! Seeded input corpora, as the text lines the join reads.

use std::path::{Path, PathBuf};

use datagen::{DataRecord, GeneratorConfig};

use crate::spec::{CorpusKind, CorpusSpec};

/// The generated input of one workload.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Lines of R (the only relation of a self-join).
    pub r: Vec<String>,
    /// Lines of S, for an R-S join.
    pub s: Option<Vec<String>>,
}

/// The file [`Corpus::save`] writes relation `"r"` or `"s"` of `workload`
/// to: one record per line, the format `fuzzyjoin-cli` reads.
pub fn relation_file(dir: &Path, workload: &str, relation: &str) -> PathBuf {
    dir.join(format!("corpus-{workload}.{relation}.tsv"))
}

impl Corpus {
    /// Write the lines to `dir`, for the child processes of `workload` to
    /// [`Corpus::load`]: the parent generates a corpus once, every sample
    /// runs in a process of its own.
    pub fn save(&self, dir: &Path, workload: &str) -> Result<(), String> {
        let write = |relation: &str, lines: &[String]| {
            let path = relation_file(dir, workload, relation);
            let mut text = lines.join("\n");
            text.push('\n');
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
        };
        write("r", &self.r)?;
        self.s.as_deref().map_or(Ok(()), |s| write("s", s))
    }

    /// Read what [`Corpus::save`] wrote; S when `is_rs`.
    pub fn load(dir: &Path, workload: &str, is_rs: bool) -> Result<Corpus, String> {
        let read = |relation: &str| -> Result<Vec<String>, String> {
            let path = relation_file(dir, workload, relation);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            Ok(text.lines().map(str::to_string).collect())
        };
        Ok(Corpus {
            r: read("r")?,
            s: if is_rs { Some(read("s")?) } else { None },
        })
    }

    /// Delete the files of [`Corpus::save`].
    pub fn remove_files(dir: &Path, workload: &str) {
        for relation in ["r", "s"] {
            let _ = std::fs::remove_file(relation_file(dir, workload, relation));
        }
    }

    /// Input records, R plus S.
    pub fn records(&self) -> usize {
        self.r.len() + self.s.as_ref().map_or(0, Vec::len)
    }

    /// Input bytes, R plus S, one newline per line.
    pub fn input_bytes(&self) -> u64 {
        let bytes = |lines: &[String]| lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        bytes(&self.r) + self.s.as_deref().map_or(0, bytes)
    }
}

/// Generate the corpus of `spec` from `seed`: the same seed gives the same
/// lines.
pub fn generate(spec: CorpusSpec, seed: u64) -> Corpus {
    let CorpusSpec { kind, base, factor } = spec;
    let (r, s) = match kind {
        CorpusKind::Dblp | CorpusKind::Zipf(_) => {
            let mut config = GeneratorConfig::dblp(base, seed);
            if let CorpusKind::Zipf(exponent) = kind {
                config.zipf_exponent = exponent;
            }
            let records = datagen::increase(&datagen::generate(&config), factor);
            (datagen::to_lines(&records), None)
        }
        CorpusKind::CiteRs => {
            let (r, s) = cite_rs(base, factor, seed);
            (r, Some(s))
        }
    };
    Corpus { r, s }
}

/// DBLP-style R and CITESEERX-style S that share publications. Every fourth
/// S record takes the title and authors of an R record, as the web crawl of
/// a catalogued paper would. Both relations are increased in one call over
/// their concatenation, so that copy `c` of R and copy `c` of S shift along
/// the same token order and still match each other: cross-relation pairs
/// grow with the factor instead of vanishing after copy 0.
fn cite_rs(base: usize, factor: usize, seed: u64) -> (Vec<String>, Vec<String>) {
    let r = datagen::dblp(base, seed);
    let mut s = datagen::citeseerx(base, seed);
    for (i, rec) in s.iter_mut().enumerate() {
        if i % 4 == 0 {
            let src = &r[(i * 7) % r.len()];
            rec.title = src.title.clone();
            rec.authors = src.authors.clone();
        }
    }
    // `increase` offsets the RIDs of copy c by c * (largest RID + 1), so
    // inside the concatenation S needs RIDs disjoint from R's.
    let r_len = r.len();
    let s_rid_offset = r.iter().map(|rec| rec.rid).max().unwrap_or(0) + 1;
    let mut both: Vec<DataRecord> = r;
    both.extend(s.into_iter().map(|mut rec| {
        rec.rid += s_rid_offset;
        rec
    }));
    let per_copy = both.len();
    let increased = datagen::increase(&both, factor);
    let mut r_lines = Vec::with_capacity(r_len * factor);
    let mut s_lines = Vec::with_capacity((per_copy - r_len) * factor);
    for (i, rec) in increased.iter().enumerate() {
        if i % per_copy < r_len {
            r_lines.push(rec.to_line());
        } else {
            s_lines.push(rec.to_line());
        }
    }
    (r_lines, s_lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines_and_other_seed_other_lines() {
        let spec = CorpusSpec {
            kind: CorpusKind::CiteRs,
            base: 60,
            factor: 2,
        };
        let a = generate(spec, 7);
        let b = generate(spec, 7);
        let c = generate(spec, 8);
        assert_eq!(a.r, b.r);
        assert_eq!(a.s, b.s);
        assert_ne!(a.r, c.r);
        assert_eq!(a.r.len(), 120);
        assert_eq!(a.s.as_ref().map(Vec::len), Some(120));
        assert_eq!(a.records(), 240);
    }

    #[test]
    fn saved_corpus_loads_back() {
        let dir = std::env::temp_dir().join(format!("fjbench-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CorpusSpec {
            kind: CorpusKind::CiteRs,
            base: 40,
            factor: 2,
        };
        let corpus = generate(spec, 1);
        corpus.save(&dir, "w").unwrap();
        let back = Corpus::load(&dir, "w", true).unwrap();
        assert_eq!((&back.r, &back.s), (&corpus.r, &corpus.s));
        Corpus::remove_files(&dir, "w");
        assert!(Corpus::load(&dir, "w", true).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rids_are_unique_within_each_relation() {
        let corpus = generate(
            CorpusSpec {
                kind: CorpusKind::CiteRs,
                base: 50,
                factor: 3,
            },
            3,
        );
        for lines in [&corpus.r, corpus.s.as_ref().unwrap()] {
            let mut rids: Vec<&str> = lines
                .iter()
                .map(|l| l.split('\t').next().unwrap())
                .collect();
            rids.sort_unstable();
            rids.dedup();
            assert_eq!(rids.len(), lines.len());
        }
    }
}
