//! The result set: its JSON form, its printed form, the one-line form the
//! driver reads, and the comparison of two sets against the bounds.

use std::fmt::Write as _;

use mapreduce::{obj, Json};

use crate::driver::Options;
use crate::spec::{self, Better, END_TO_END, PER_LAYER};

/// Schema name of a result set.
pub const SCHEMA: &str = "fuzzyjoin.benchmark";

/// Assemble the result set of a run from its workloads' results.
pub fn result_set(
    options: &Options,
    warmups: usize,
    timed_rounds: usize,
    workloads: Vec<Json>,
) -> Json {
    let env = |name: &str| Json::Str(std::env::var(name).unwrap_or_else(|_| "unknown".into()));
    obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("v", Json::Num(1.0)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
        (
            "provenance",
            obj(vec![
                ("seed", Json::Num(options.seed as f64)),
                ("smoke", Json::Bool(options.smoke)),
                ("nproc", Json::Num(spec::nproc() as f64)),
                ("threads", Json::Num(spec::threads() as f64)),
                ("git_commit", env("BENCH_GIT_COMMIT")),
                ("rustc", env("BENCH_RUSTC")),
                ("warmup_rounds", Json::Num(warmups as f64)),
                ("timed_rounds", Json::Num(timed_rounds as f64)),
                (
                    "cluster",
                    obj(vec![
                        ("nodes", Json::Num(spec::NODES as f64)),
                        ("block_bytes", Json::Num(spec::BLOCK_SIZE as f64)),
                        ("combo", Json::Str("BTO-PK-BRJ".into())),
                        ("measure", Json::Str("jaccard".into())),
                    ]),
                ),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn workloads(set: &Json) -> &[Json] {
    set.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn workload<'a>(set: &'a Json, name: &str) -> Option<&'a Json> {
    workloads(set)
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
}

/// Failed operations over all workloads of a set.
pub fn ops_failed(set: &Json) -> u64 {
    workloads(set)
        .iter()
        .map(|w| w.get("ops_failed").and_then(Json::as_u64).unwrap_or(1))
        .sum()
}

/// Every metric of the set by name with its unit, one per line.
pub fn render(set: &Json) -> String {
    let mut out = String::new();
    if let Some(p) = set.get("provenance") {
        let _ = writeln!(out, "provenance {p}");
    }
    for w in workloads(set) {
        let name = w.get("workload").and_then(Json::as_str).unwrap_or("?");
        if let Some(sizes) = w.get("sizes") {
            let _ = writeln!(out, "{name} sizes {sizes}");
        }
        for key in ["ops_attempted", "ops_failed"] {
            let n = w.get(key).and_then(Json::as_u64).unwrap_or(0);
            let _ = writeln!(out, "{name} {key} {n} count");
        }
        for e in w.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
            let _ = writeln!(out, "{name} error {e}");
        }
        for m in END_TO_END {
            let Some(stat) = w.get("end_to_end").and_then(|e| e.get(m.name)) else {
                continue;
            };
            let f = |k: &str| stat.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "{name} {} {:.6} {} (min {:.6}, max {:.6}, n {})",
                m.name,
                f("value"),
                m.unit,
                f("min"),
                f("max"),
                f("n")
            );
        }
        for (metric, unit, _) in PER_LAYER {
            let Some(entry) = w.get("per_layer").and_then(|p| p.get(metric)) else {
                continue;
            };
            match entry.get("value").and_then(Json::as_f64) {
                Some(v) => {
                    let _ = writeln!(out, "{name} {metric} {v:.6} {unit}");
                }
                None => {
                    let _ = writeln!(out, "{name} {metric} missing {unit}");
                }
            }
        }
    }
    out
}

/// The one-line result of a single-workload run: the end-to-end medians,
/// or with `per_layer` the ladder's values. `None` when a metric is
/// missing.
pub fn contract_line(set: &Json, name: &str, per_layer: bool) -> Option<Json> {
    let w = workload(set, name)?;
    let attempted = w.get("ops_attempted")?.as_u64()?;
    let failed = w.get("ops_failed")?.as_u64()?;
    let entry = |value: f64, unit: &str| {
        obj(vec![
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ])
    };
    let mut metrics = Vec::new();
    if per_layer {
        for (metric, unit, _) in PER_LAYER {
            let value = w.get("per_layer")?.get(metric)?.get("value")?.as_f64()?;
            metrics.push((metric.to_string(), entry(value, unit)));
        }
    } else {
        for m in END_TO_END {
            let value = w.get("end_to_end")?.get(m.name)?.get("value")?.as_f64()?;
            metrics.push((m.name.to_string(), entry(value, m.unit)));
        }
    }
    Some(obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// By what share `b` is worse than `a`, in the metric's direction.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare two result sets: for every workload and end-to-end metric,
/// neither value may be worse than the other by more than the metric's
/// bound, and when both sets come from one seed the counts must be equal.
/// Where a set's own samples spread (third minus first quartile) wider than
/// the bound, a gap beyond the bound is reported as unresolved, not as a
/// disagreement: such samples cannot carry a verdict at that bound. Returns
/// the comparison, one line per pairing, and the number of offenders.
pub fn agree(a: &Json, b: &Json) -> (String, usize) {
    let mut out = String::new();
    let mut offenders = 0;
    let seed = |set: &Json| {
        set.get("provenance")
            .and_then(|p| p.get("seed"))
            .and_then(Json::as_u64)
    };
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    for wa in workloads(a) {
        let name = wa.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workload(b, name) else {
            let _ = writeln!(out, "{name}: only in the first set");
            offenders += 1;
            continue;
        };
        for m in END_TO_END {
            let field = |w: &Json, key: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|s| s.get(key))
                    .and_then(Json::as_f64)
            };
            // A set without quartiles (an older file) is taken as steady.
            let spread = |w: &Json| match (field(w, "q1"), field(w, "q3"), field(w, "value")) {
                (Some(q1), Some(q3), Some(value)) => (q3 - q1) / value,
                _ => 0.0,
            };
            let (Some(ma), Some(mb)) = (field(wa, "value"), field(wb, "value")) else {
                let _ = writeln!(out, "{name} {}: missing", m.name);
                offenders += 1;
                continue;
            };
            let apart = worse_by(m.better, ma, mb).max(worse_by(m.better, mb, ma));
            let verdict = if m.exact && same_seed && ma != mb {
                offenders += 1;
                "COUNT DIFFERS"
            } else if apart > m.bound && spread(wa).max(spread(wb)) > m.bound {
                "unresolved: the samples spread wider than the bound"
            } else if apart > m.bound {
                offenders += 1;
                "APART"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{name} {}: {ma:.6} vs {mb:.6} {} ({:+.2}% apart, bound {:.0}%) {verdict}",
                m.name,
                m.unit,
                100.0 * apart,
                100.0 * m.bound
            );
        }
    }
    for wb in workloads(b) {
        let name = wb.get("workload").and_then(Json::as_str).unwrap_or("?");
        if workload(a, name).is_none() {
            let _ = writeln!(out, "{name}: only in the second set");
            offenders += 1;
        }
    }
    let _ = writeln!(out, "{offenders} offender(s)");
    (out, offenders)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(seed: u64, wall: f64, shuffle: f64) -> Json {
        noisy_set(seed, wall, shuffle, 0.02)
    }

    /// A one-workload set whose `join_wall_s` samples have quartiles
    /// `wall_spread` of the value apart; the other metrics are steady.
    fn noisy_set(seed: u64, wall: f64, shuffle: f64, wall_spread: f64) -> Json {
        let stat = |v: f64, spread: f64| {
            obj(vec![
                ("value", Json::Num(v)),
                ("q1", Json::Num(v * (1.0 - spread / 2.0))),
                ("q3", Json::Num(v * (1.0 + spread / 2.0))),
            ])
        };
        let e2e: Vec<(String, Json)> = END_TO_END
            .iter()
            .map(|m| {
                let s = match m.name {
                    "join_wall_s" => stat(wall, wall_spread),
                    "shuffle_mb" => stat(shuffle, 0.0),
                    _ => stat(1.0, 0.02),
                };
                (m.name.to_string(), s)
            })
            .collect();
        obj(vec![
            ("provenance", obj(vec![("seed", Json::Num(seed as f64))])),
            (
                "workloads",
                Json::Arr(vec![obj(vec![
                    ("workload", Json::Str("w".into())),
                    ("ops_attempted", Json::Num(3.0)),
                    ("ops_failed", Json::Num(0.0)),
                    ("end_to_end", Json::Obj(e2e)),
                ])]),
            ),
        ])
    }

    #[test]
    fn agree_accepts_noise_and_names_what_is_apart() {
        let (text, n) = agree(&set(1, 2.0, 50.0), &set(1, 2.1, 50.0));
        assert_eq!(n, 0, "{text}");
        // Slower by more than the bound, in either order.
        let (text, n) = agree(&set(1, 2.0, 50.0), &set(1, 3.0, 50.0));
        assert_eq!(n, 1, "{text}");
        assert!(
            text.contains("w join_wall_s") && text.contains("APART"),
            "{text}"
        );
        let (_, n) = agree(&set(1, 3.0, 50.0), &set(1, 2.0, 50.0));
        assert_eq!(n, 1);
    }

    #[test]
    fn samples_spread_wider_than_the_bound_carry_no_verdict() {
        let (text, n) = agree(&set(1, 2.0, 50.0), &noisy_set(1, 3.0, 50.0, 1.0));
        assert_eq!(n, 0, "{text}");
        assert!(text.contains("unresolved"), "{text}");
    }

    #[test]
    fn counts_of_one_seed_must_be_equal() {
        let (text, n) = agree(&set(1, 2.0, 50.0), &set(1, 2.0, 50.001));
        assert_eq!(n, 1, "{text}");
        assert!(text.contains("COUNT DIFFERS"), "{text}");
        // Other seeds give other corpora: only the bound applies.
        let (_, n) = agree(&set(1, 2.0, 50.0), &set(2, 2.0, 50.001));
        assert_eq!(n, 0);
    }

    #[test]
    fn contract_line_has_every_end_to_end_metric() {
        let line = contract_line(&set(1, 2.0, 50.0), "w", false).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(contract_line(&set(1, 2.0, 50.0), "w", true).is_none());
    }
}
