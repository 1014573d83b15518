//! GenBank-style DNA sequence corpora.
//!
//! The paper's introduction motivates scale with the GeneBank dataset
//! ("100 million records, 416 GB"). This generator produces DNA-like
//! records — a RID and a nucleotide sequence — with planted mutated
//! near-duplicates, for exercising the q-gram tokenizer on sequence data.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One DNA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnaRecord {
    /// Unique record id.
    pub rid: u64,
    /// Nucleotide sequence (`acgt`).
    pub sequence: String,
}

impl DnaRecord {
    /// Serialize as `rid \t sequence`.
    pub fn to_line(&self) -> String {
        format!("{}\t{}", self.rid, self.sequence)
    }
}

/// Configuration for a DNA corpus.
#[derive(Debug, Clone)]
pub struct DnaConfig {
    /// Number of sequences.
    pub records: usize,
    /// Mean sequence length in bases.
    pub mean_length: usize,
    /// Probability a record is a mutated copy of an earlier one.
    pub mutant_probability: f64,
    /// Number of point mutations / indels applied to a mutant (uniform in
    /// `1..=max_mutations`).
    pub max_mutations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DnaConfig {
    fn default() -> Self {
        DnaConfig {
            records: 1_000,
            mean_length: 120,
            mutant_probability: 0.15,
            max_mutations: 4,
            seed: 42,
        }
    }
}

const BASES: [char; 4] = ['a', 'c', 'g', 't'];

/// Generate a DNA corpus.
pub fn generate_dna(config: &DnaConfig) -> Vec<DnaRecord> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out: Vec<DnaRecord> = Vec::with_capacity(config.records);
    for i in 0..config.records {
        let rid = 1 + i as u64;
        let sequence = if !out.is_empty() && rng.random_bool(config.mutant_probability) {
            let base = &out[rng.random_range(0..out.len())];
            let mut seq: Vec<char> = base.sequence.chars().collect();
            let mutations = rng.random_range(1..=config.max_mutations.max(1));
            for _ in 0..mutations {
                if seq.is_empty() {
                    break;
                }
                let pos = rng.random_range(0..seq.len());
                match rng.random_range(0..3u8) {
                    0 => seq[pos] = BASES[rng.random_range(0..4)], // substitute
                    1 => {
                        seq.insert(pos, BASES[rng.random_range(0..4)]); // insert
                    }
                    _ => {
                        seq.remove(pos); // delete
                    }
                }
            }
            seq.into_iter().collect()
        } else {
            let len = (config.mean_length as i64 + rng.random_range(-20i64..=20)).max(20) as usize;
            (0..len).map(|_| BASES[rng.random_range(0..4)]).collect()
        };
        out.push(DnaRecord { rid, sequence });
    }
    out
}

/// Serialize a DNA corpus to record lines.
pub fn dna_to_lines(records: &[DnaRecord]) -> Vec<String> {
    records.iter().map(DnaRecord::to_line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let c = DnaConfig {
            records: 50,
            ..Default::default()
        };
        let a = generate_dna(&c);
        let b = generate_dna(&c);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for r in &a {
            assert!(r.sequence.chars().all(|ch| "acgt".contains(ch)));
            assert!(r.sequence.len() >= 15);
        }
    }

    /// Edit distance, one row of the DP table at a time.
    fn levenshtein(a: &[u8], b: &[u8]) -> usize {
        let mut row: Vec<usize> = (0..=b.len()).collect();
        for (i, ca) in a.iter().enumerate() {
            let mut diagonal = row[0];
            row[0] = i + 1;
            for (j, cb) in b.iter().enumerate() {
                let substitute = diagonal + usize::from(ca != cb);
                diagonal = row[j + 1];
                row[j + 1] = substitute.min(diagonal + 1).min(row[j] + 1);
            }
        }
        row[b.len()]
    }

    #[test]
    fn mutants_stay_close_in_edit_distance() {
        let c = DnaConfig {
            records: 200,
            mutant_probability: 0.3,
            max_mutations: 3,
            seed: 9,
            ..Default::default()
        };
        let recs = generate_dna(&c);
        // There must be pairs within edit distance 3 (the planted mutants).
        let mut close = 0;
        for (i, x) in recs.iter().enumerate() {
            for y in &recs[i + 1..] {
                let (a, b) = (x.sequence.as_bytes(), y.sequence.as_bytes());
                if a.len().abs_diff(b.len()) <= 3 && levenshtein(a, b) <= 3 {
                    close += 1;
                }
            }
        }
        assert!(close > 10, "expected planted near-duplicates, got {close}");
    }

    #[test]
    fn line_format() {
        let r = DnaRecord {
            rid: 7,
            sequence: "acgt".into(),
        };
        assert_eq!(r.to_line(), "7\tacgt");
    }
}
