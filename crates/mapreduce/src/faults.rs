//! Seeded, deterministic fault injection for the MapReduce engine.
//!
//! Hadoop's value proposition — and the reason the paper can run 10-node
//! joins without babysitting them — is that task attempts fail all the time
//! (JVM crashes, bad disks, overloaded nodes) and the framework retries,
//! re-commits, and speculates its way to a correct result. This module lets
//! the in-process engine reproduce those conditions *deterministically*: a
//! [`FaultPlan`] decides, per `(job, phase, task, attempt)`, whether the
//! attempt suffers a transient error, a user-code panic, an out-of-memory
//! kill, a slow-down (straggler), or lands on a dead node.
//!
//! Decisions are pure functions of the plan seed and the attempt coordinates
//! — independent of thread scheduling and wall-clock time — so a chaos run
//! is exactly reproducible from its seed, and a fault-free run of the same
//! job is bitwise comparable to the chaos run's output.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::manifest::Fingerprint;
use crate::task::Phase;

/// The fault injected into one task attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The attempt fails with a retryable `TaskFailed` error at start.
    Transient,
    /// The user function panics mid-attempt (must be caught, not fatal).
    Panic,
    /// The attempt dies with an environmental (retryable) out-of-memory.
    Oom,
    /// The attempt does all its work, then fails *after* writing its output
    /// but *before* committing it — the case the output-commit protocol
    /// exists for.
    LateFail,
    /// The attempt succeeds but straggles: its task record carries the
    /// factor, by which the modelled cluster stretches the attempt
    /// (speculative execution's prey).
    Straggle(f64),
    /// The worker stalls forever mid-task without dying — no error frame,
    /// no pipe close, no progress. Only wall-clock supervision (task
    /// deadlines, heartbeat expiry) can notice it; the watchdog kills
    /// the worker and the attempt retries as a transient `NodeLost`.
    Hang,
    /// The worker keeps working but stops emitting heartbeat frames for
    /// longer than the heartbeat window, so the watchdog presumes it
    /// hung and kills it mid-task. Exercises heartbeat expiry (as opposed
    /// to the task deadline).
    SlowHeartbeat,
}

/// A deterministic fault plan: per-attempt fault probabilities plus an
/// optional dead node, all driven by one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability an attempt fails with a transient error at start.
    pub p_transient: f64,
    /// Probability an attempt panics inside the user function.
    pub p_panic: f64,
    /// Probability an attempt dies with an environmental OOM.
    pub p_oom: f64,
    /// Probability an attempt fails after writing, before committing.
    pub p_late: f64,
    /// Probability a surviving attempt is a straggler.
    pub p_straggler: f64,
    /// Probability an attempt hangs forever mid-task (process workers
    /// stall without dying; in-process attempts model the watchdog's kill
    /// directly). Needs a task deadline to be survivable.
    pub p_hang: f64,
    /// Probability a process worker suppresses heartbeats long enough to
    /// be presumed hung and killed. Ignored by in-process attempts (no
    /// heartbeat protocol to starve).
    pub p_slow_heartbeat: f64,
    /// Slow-down factor recorded for stragglers (≥ 1).
    pub straggler_factor: f64,
    /// A node that is down for the whole job: every attempt placed on it
    /// fails with [`crate::MrError::NodeLost`].
    pub dead_node: Option<usize>,
    /// Driver crash point: "crash" (return [`crate::MrError::DriverCrash`])
    /// right *after* the N-th job on the cluster (0-based) commits its
    /// output and manifest. The DFS is left intact for a resume.
    pub crash_after: Option<usize>,
    /// Driver crash point: "crash" *mid* the N-th job (0-based), after its
    /// reduce tasks committed their parts but before the job-level commit —
    /// parts exist, no `_SUCCESS` manifest does.
    pub crash_mid: Option<usize>,
    /// Silently flip a bit in this committed file right after the job that
    /// produced it commits — the corruption the CRC layer must catch.
    pub corrupt_path: Option<String>,
    /// Storage fault: the disk store reports `ENOSPC` once this many
    /// payload bytes have been written through it (`enospc=N`). Unlike
    /// the attempt-level probabilities above, this is a per-*operation*
    /// fault on the disk [`crate::Dfs`]: it fires wherever the byte budget
    /// runs out, not at a task boundary.
    pub enospc_after_bytes: Option<u64>,
    /// Whether an injected `ENOSPC` heals after a scavenger pass frees
    /// space (`enospc=N+heal`): the byte budget resets, modeling a disk
    /// that has room again once orphaned attempt/spill files are removed.
    /// Without `+heal`, every write past the budget keeps failing.
    pub enospc_heals: bool,
    /// Storage fault: probability that one disk read/write/rename fails
    /// with a retryable I/O error (`eio=P`). Drawn per operation, pure in
    /// `(seed, op-index, op-kind, path)`.
    pub p_disk_eio: f64,
    /// Storage fault: probability that one disk write is *torn* —
    /// persists only a prefix of the payload but reports success
    /// (`torn=P`), simulating a crash mid-write. The CRC wall catches the
    /// damage at read time as a checksum mismatch, which resume heals by
    /// re-running the producing stage.
    pub p_torn_write: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            p_transient: 0.0,
            p_panic: 0.0,
            p_oom: 0.0,
            p_late: 0.0,
            p_straggler: 0.0,
            p_hang: 0.0,
            p_slow_heartbeat: 0.0,
            straggler_factor: 1.0,
            dead_node: None,
            crash_after: None,
            crash_mid: None,
            corrupt_path: None,
            enospc_after_bytes: None,
            enospc_heals: false,
            p_disk_eio: 0.0,
            p_torn_write: 0.0,
        }
    }
}

// What a process worker needs to reach the driver's exact `decide()`
// outcomes. The storage keys (`enospc`/`eio`/`torn`) stay off the wire by
// design: the driver's `Dfs` handle injects them, so a worker decodes the
// quiet defaults and sees a clean disk.
crate::codec_struct!(
    FaultPlan {
        seed,
        p_transient,
        p_panic,
        p_oom,
        p_late,
        p_straggler,
        p_hang,
        p_slow_heartbeat,
        straggler_factor,
        dead_node,
        crash_after,
        crash_mid,
        corrupt_path,
    }..FaultPlan::default()
);

impl FaultPlan {
    /// A plan that injects nothing (useful as a parse/merge base).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// The aggressive preset used by the chaos suites: ≥ 20% of attempts
    /// fail (transient + panic + OOM + late), 10% of survivors straggle 8×.
    pub fn aggressive(seed: u64) -> Self {
        FaultPlan {
            seed,
            p_transient: 0.08,
            p_panic: 0.05,
            p_oom: 0.03,
            p_late: 0.04,
            p_straggler: 0.10,
            straggler_factor: 8.0,
            ..Default::default()
        }
    }

    /// Total probability that an attempt fails outright (a hang counts:
    /// the watchdog turns it into a kill-and-retry).
    pub fn failure_probability(&self) -> f64 {
        self.p_transient + self.p_panic + self.p_oom + self.p_late + self.p_hang
    }

    /// True if the plan injects storage faults into the DFS
    /// (`enospc=` / `eio=` / `torn=`).
    pub fn has_storage_faults(&self) -> bool {
        self.enospc_after_bytes.is_some() || self.p_disk_eio > 0.0 || self.p_torn_write > 0.0
    }

    /// Validate probabilities and the dead-node index against a topology.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        let mut plan = self.clone();
        for (name, field) in KEYS {
            let p = match field {
                Field::Prob(of) => *of(&mut plan),
                Field::Straggler => plan.p_straggler,
                _ => continue,
            };
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("fault probability {name}={p} must be in [0, 1]"));
            }
        }
        // The storage draws (`eio`, `torn`) are per operation, not part of
        // the attempt-level chain: a storage op is not a task attempt.
        if self.failure_probability() + self.p_slow_heartbeat > 1.0 {
            return Err(format!(
                "fault failure probabilities sum to {} (> 1)",
                self.failure_probability() + self.p_slow_heartbeat
            ));
        }
        if !self.straggler_factor.is_finite() || self.straggler_factor < 1.0 {
            return Err(format!(
                "straggler_factor {} must be finite and >= 1",
                self.straggler_factor
            ));
        }
        if self.enospc_heals && self.enospc_after_bytes.is_none() {
            return Err("fault plan: enospc heal flag without an enospc byte budget".into());
        }
        if let Some(dead) = self.dead_node {
            if dead >= nodes {
                return Err(format!("dead_node {dead} out of range for {nodes} node(s)"));
            }
            if nodes == 1 {
                return Err("cannot kill the only node in the cluster".into());
            }
        }
        Ok(())
    }

    /// Parse a compact plan spec, e.g.
    /// `seed=42,transient=0.1,panic=0.05,oom=0.02,late=0.05,straggler=0.1x8,node_down=2`.
    /// Unknown keys are rejected; omitted keys default to "no such fault".
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry `{part}` is not key=value"))?;
            let key = key.trim();
            let Some((_, field)) = KEYS.iter().find(|(k, _)| *k == key) else {
                return Err(format!("fault plan: unknown key `{key}`"));
            };
            field.set(&mut plan, key, value.trim())?;
        }
        Ok(plan)
    }

    /// True if `node` is configured as down.
    pub fn node_is_dead(&self, node: usize) -> bool {
        self.dead_node == Some(node)
    }

    /// Decide the fault (if any) for one task attempt. Pure in
    /// `(seed, job, phase, task_id, attempt)`.
    pub fn decide(&self, job: &str, phase: Phase, task_id: usize, attempt: usize) -> Option<Fault> {
        if self.failure_probability() == 0.0
            && self.p_straggler == 0.0
            && self.p_slow_heartbeat == 0.0
        {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(self.attempt_seed(job, phase, task_id, attempt));
        let u: f64 = rng.random();
        let mut edge = self.p_transient;
        if u < edge {
            return Some(Fault::Transient);
        }
        edge += self.p_panic;
        if u < edge {
            return Some(Fault::Panic);
        }
        edge += self.p_oom;
        if u < edge {
            return Some(Fault::Oom);
        }
        edge += self.p_late;
        if u < edge {
            return Some(Fault::LateFail);
        }
        // New fault kinds extend the chain *after* the original edges, so a
        // plan that leaves them at 0.0 makes exactly the decisions it made
        // before they existed.
        edge += self.p_hang;
        if u < edge {
            return Some(Fault::Hang);
        }
        edge += self.p_slow_heartbeat;
        if u < edge {
            return Some(Fault::SlowHeartbeat);
        }
        // Survivors may straggle (independent draw).
        if self.p_straggler > 0.0 && rng.random_bool(self.p_straggler) {
            return Some(Fault::Straggle(self.straggler_factor));
        }
        None
    }

    /// Stable per-attempt seed: FNV-1a over the coordinates, mixed with the
    /// plan seed. Deterministic across platforms and thread interleavings.
    fn attempt_seed(&self, job: &str, phase: Phase, task_id: usize, attempt: usize) -> u64 {
        let mut h = Fingerprint::seeded(self.seed);
        h.update(job.as_bytes());
        h.update(&[match phase {
            Phase::Map => 0u8,
            Phase::Reduce => 1u8,
        }]);
        h.update_u64(task_id as u64);
        h.update_u64(attempt as u64);
        h.finish()
    }
}

/// How a spec key's value is spelled, and which field(s) of the plan it
/// sets.
#[derive(Clone, Copy)]
enum Field {
    /// `seed=N`.
    Seed,
    /// A probability, `key=P`.
    Prob(fn(&mut FaultPlan) -> &mut f64),
    /// A job or node index, `key=N`.
    Index(fn(&mut FaultPlan) -> &mut Option<usize>),
    /// `straggler=P` or `straggler=PxFACTOR`.
    Straggler,
    /// `corrupt=PATH`.
    Corrupt,
    /// `enospc=N` (bytes) or `enospc=N+heal`.
    Enospc,
}

/// Every key of a plan spec, in the order [`FaultPlan`]'s `Display` writes
/// them: the one list that `parse`, `Display` and `validate` read.
const KEYS: [(&str, Field); 15] = [
    ("seed", Field::Seed),
    ("transient", Field::Prob(|p| &mut p.p_transient)),
    ("panic", Field::Prob(|p| &mut p.p_panic)),
    ("oom", Field::Prob(|p| &mut p.p_oom)),
    ("late", Field::Prob(|p| &mut p.p_late)),
    ("straggler", Field::Straggler),
    ("hang", Field::Prob(|p| &mut p.p_hang)),
    ("slow_heartbeat", Field::Prob(|p| &mut p.p_slow_heartbeat)),
    ("node_down", Field::Index(|p| &mut p.dead_node)),
    ("crash_after", Field::Index(|p| &mut p.crash_after)),
    ("crash_mid", Field::Index(|p| &mut p.crash_mid)),
    ("corrupt", Field::Corrupt),
    ("enospc", Field::Enospc),
    ("eio", Field::Prob(|p| &mut p.p_disk_eio)),
    ("torn", Field::Prob(|p| &mut p.p_torn_write)),
];

impl Field {
    /// Set this key's field(s) of `plan` from `value`.
    fn set(self, plan: &mut FaultPlan, key: &str, value: &str) -> Result<(), String> {
        let bad = |why: &str| format!("fault plan: `{key}={value}` {why}");
        let number = |v: &str| v.parse::<f64>().map_err(|_| bad("is not a number"));
        // `A` or `AxB` for straggler, `A` or `A+B` for enospc.
        let split = |at| {
            value
                .split_once(at)
                .map_or((value, None), |(a, b)| (a, Some(b)))
        };
        match self {
            Field::Seed => plan.seed = value.parse().map_err(|_| bad("is not a u64"))?,
            Field::Prob(of) => *of(plan) = number(value)?,
            Field::Index(of) => {
                *of(plan) = Some(value.parse().map_err(|_| bad("is not an index"))?)
            }
            Field::Straggler => {
                let (p, factor) = split('x');
                plan.p_straggler = number(p)?;
                // A bare probability races stragglers at least 4× slow.
                plan.straggler_factor = match factor {
                    Some(factor) => number(factor)?,
                    None => plan.straggler_factor.max(4.0),
                };
            }
            Field::Corrupt if value.is_empty() => return Err(bad("needs a DFS path")),
            Field::Corrupt => plan.corrupt_path = Some(value.to_string()),
            Field::Enospc => {
                let (bytes, heal) = split('+');
                if heal.is_some_and(|modifier| modifier != "heal") {
                    return Err(bad("takes no modifier but `+heal`"));
                }
                plan.enospc_after_bytes =
                    Some(bytes.parse().map_err(|_| bad("is not a byte count"))?);
                plan.enospc_heals = heal.is_some();
            }
        }
        Ok(())
    }

    /// This key's value in `plan` as `set` reads it, or `None` while its
    /// field(s) hold their default. (The accessors are `&mut`, so readers
    /// pass a copy.)
    fn show(self, plan: &mut FaultPlan) -> Option<String> {
        match self {
            Field::Seed => Some(plan.seed.to_string()),
            Field::Prob(of) => Some(*of(plan)).filter(|p| *p != 0.0).map(|p| p.to_string()),
            Field::Index(of) => of(plan).map(|n| n.to_string()),
            Field::Straggler => (plan.p_straggler != 0.0 || plan.straggler_factor != 1.0)
                .then(|| format!("{}x{}", plan.p_straggler, plan.straggler_factor)),
            Field::Corrupt => plan.corrupt_path.clone(),
            Field::Enospc => plan.enospc_after_bytes.map(|bytes| {
                let heal = if plan.enospc_heals { "+heal" } else { "" };
                format!("{bytes}{heal}")
            }),
        }
    }
}

/// The spec [`FaultPlan::parse`] reads back into this plan: `seed`, then
/// every key whose field is off its default, comma-separated.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut plan = self.clone();
        let mut sep = "";
        for (key, field) in KEYS {
            if let Some(value) = field.show(&mut plan) {
                write!(f, "{sep}{key}={value}")?;
                sep = ",";
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decisions_are_deterministic_and_attempt_scoped() {
        let plan = FaultPlan::aggressive(42);
        let a = plan.decide("job", Phase::Map, 3, 0);
        let b = plan.decide("job", Phase::Map, 3, 0);
        assert_eq!(a, b, "same coordinates, same decision");
        // Different coordinates decide independently: over many attempts
        // the aggressive plan must produce both faults and non-faults.
        let mut faults = 0;
        let mut clean = 0;
        for task in 0..200 {
            for attempt in 0..3 {
                match plan.decide("job", Phase::Reduce, task, attempt) {
                    Some(_) => faults += 1,
                    None => clean += 1,
                }
            }
        }
        assert!(faults > 60, "aggressive plan injects faults: {faults}");
        assert!(clean > 200, "most attempts survive: {clean}");
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::aggressive(1);
        let b = FaultPlan::aggressive(2);
        let decisions_a: Vec<_> = (0..100).map(|t| a.decide("j", Phase::Map, t, 0)).collect();
        let decisions_b: Vec<_> = (0..100).map(|t| b.decide("j", Phase::Map, t, 0)).collect();
        assert_ne!(decisions_a, decisions_b);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::quiet(7);
        for task in 0..50 {
            assert_eq!(plan.decide("j", Phase::Map, task, 0), None);
        }
    }

    #[test]
    fn observed_fault_rate_tracks_probabilities() {
        let plan = FaultPlan {
            seed: 9,
            p_transient: 0.25,
            ..Default::default()
        };
        let hits = (0..4000)
            .filter(|&t| plan.decide("j", Phase::Map, t, 0) == Some(Fault::Transient))
            .count();
        assert!((800..1200).contains(&hits), "rate off: {hits}/4000");
    }

    #[test]
    fn straggle_carries_factor() {
        let plan = FaultPlan {
            seed: 3,
            p_straggler: 1.0,
            straggler_factor: 6.5,
            ..Default::default()
        };
        assert_eq!(
            plan.decide("j", Phase::Map, 0, 0),
            Some(Fault::Straggle(6.5))
        );
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = FaultPlan::quiet(0);
        p.p_transient = 1.5;
        assert!(p.validate(4).is_err());
        p.p_transient = f64::NAN;
        assert!(p.validate(4).is_err());
        let mut p = FaultPlan::quiet(0);
        p.p_transient = 0.6;
        p.p_panic = 0.6;
        assert!(p.validate(4).is_err(), "failure probs sum > 1");
        let mut p = FaultPlan::quiet(0);
        p.straggler_factor = 0.5;
        assert!(p.validate(4).is_err());
        p.straggler_factor = f64::NAN;
        assert!(p.validate(4).is_err());
        let mut p = FaultPlan::quiet(0);
        p.dead_node = Some(4);
        assert!(p.validate(4).is_err(), "node index out of range");
        p.dead_node = Some(0);
        assert!(p.validate(1).is_err(), "cannot kill the only node");
        assert!(p.validate(2).is_ok());
    }

    #[test]
    fn parse_round_trips_the_documented_spec() {
        let plan = FaultPlan::parse(
            "seed=42,transient=0.1,panic=0.05,oom=0.02,late=0.05,straggler=0.1x8,node_down=2",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.p_transient, 0.1);
        assert_eq!(plan.p_panic, 0.05);
        assert_eq!(plan.p_oom, 0.02);
        assert_eq!(plan.p_late, 0.05);
        assert_eq!(plan.p_straggler, 0.1);
        assert_eq!(plan.straggler_factor, 8.0);
        assert_eq!(plan.dead_node, Some(2));
        plan.validate(4).unwrap();
    }

    #[test]
    fn parse_covers_driver_crash_and_corruption_keys() {
        let plan =
            FaultPlan::parse("seed=7,crash_after=2,corrupt=/work/tokens/part-00000").unwrap();
        assert_eq!(plan.crash_after, Some(2));
        assert_eq!(plan.crash_mid, None);
        assert_eq!(
            plan.corrupt_path.as_deref(),
            Some("/work/tokens/part-00000")
        );
        let plan = FaultPlan::parse("crash_mid=0").unwrap();
        assert_eq!(plan.crash_mid, Some(0));
        let shown = plan.to_string();
        assert!(shown.contains("crash_mid=0"), "{shown}");
        assert!(FaultPlan::parse("seed=7,crash_after=2,corrupt=/p")
            .unwrap()
            .to_string()
            .contains("crash_after=2"),);
        assert!(FaultPlan::parse("crash_after=x").is_err());
        assert!(FaultPlan::parse("crash_mid=-1").is_err());
        assert!(FaultPlan::parse("corrupt=").is_err());
    }

    #[test]
    fn hang_and_slow_heartbeat_parse_decide_and_display() {
        let plan = FaultPlan::parse("seed=5,hang=0.3,slow_heartbeat=0.2").unwrap();
        assert_eq!(plan.p_hang, 0.3);
        assert_eq!(plan.p_slow_heartbeat, 0.2);
        plan.validate(4).unwrap();
        let shown = plan.to_string();
        assert!(shown.contains("hang=0.3"), "{shown}");
        assert!(shown.contains("slow_heartbeat=0.2"), "{shown}");
        // Default plans print neither key (keeps old goldens stable).
        let quiet = FaultPlan::quiet(5).to_string();
        assert!(!quiet.contains("hang"), "{quiet}");

        // Both kinds are actually drawn at their configured rates.
        let sure = FaultPlan {
            seed: 5,
            p_hang: 1.0,
            ..Default::default()
        };
        assert_eq!(sure.decide("j", Phase::Map, 0, 0), Some(Fault::Hang));
        let sure = FaultPlan {
            seed: 5,
            p_slow_heartbeat: 1.0,
            ..Default::default()
        };
        assert_eq!(
            sure.decide("j", Phase::Map, 0, 0),
            Some(Fault::SlowHeartbeat)
        );

        // Chain-sum validation covers the new probabilities.
        let mut p = FaultPlan::quiet(0);
        p.p_hang = 0.6;
        p.p_slow_heartbeat = 0.6;
        assert!(p.validate(4).is_err(), "chain sum > 1");
        p.p_slow_heartbeat = f64::NAN;
        assert!(p.validate(4).is_err());
    }

    #[test]
    fn new_fault_kinds_do_not_perturb_existing_plans() {
        // A plan with hang/slow_heartbeat at 0.0 must make exactly the
        // decisions it made before those fields existed: the edge chain
        // only grows past `late`, never shifts.
        let plan = FaultPlan::aggressive(42);
        for task in 0..300 {
            let d = plan.decide("job", Phase::Map, task, 0);
            assert!(
                !matches!(d, Some(Fault::Hang | Fault::SlowHeartbeat)),
                "zero-probability fault drawn at task {task}"
            );
        }
    }

    #[test]
    fn storage_keys_parse_validate_and_display() {
        let plan = FaultPlan::parse("seed=11,enospc=200000+heal,eio=0.05,torn=0.1").unwrap();
        assert_eq!(plan.enospc_after_bytes, Some(200_000));
        assert!(plan.enospc_heals);
        assert_eq!(plan.p_disk_eio, 0.05);
        assert_eq!(plan.p_torn_write, 0.1);
        assert!(plan.has_storage_faults());
        plan.validate(4).unwrap();
        let shown = plan.to_string();
        assert!(shown.contains("enospc=200000+heal"), "{shown}");
        assert!(shown.contains("eio=0.05"), "{shown}");
        assert!(shown.contains("torn=0.1"), "{shown}");

        // Without `+heal` the budget never resets.
        let plan = FaultPlan::parse("enospc=512").unwrap();
        assert_eq!(plan.enospc_after_bytes, Some(512));
        assert!(!plan.enospc_heals);
        assert!(!plan.to_string().contains("heal"));

        // Default plans print none of the storage keys and report no
        // storage faults (keeps old goldens stable).
        let quiet = FaultPlan::quiet(11);
        assert!(!quiet.has_storage_faults());
        let shown = quiet.to_string();
        assert!(!shown.contains("enospc"), "{shown}");
        assert!(!shown.contains("eio"), "{shown}");
        assert!(!shown.contains("torn"), "{shown}");

        // Storage probabilities are validated like the attempt-level ones,
        // but do not count against the attempt chain sum: a full-throttle
        // attempt plan plus storage faults is still valid.
        let mut p = FaultPlan::quiet(0);
        p.p_disk_eio = 1.5;
        assert!(p.validate(4).is_err());
        p.p_disk_eio = 0.0;
        p.p_torn_write = f64::NAN;
        assert!(p.validate(4).is_err());
        let mut p = FaultPlan::quiet(0);
        p.p_transient = 0.6;
        p.p_panic = 0.4;
        p.p_disk_eio = 0.9;
        p.p_torn_write = 0.9;
        assert!(
            p.validate(4).is_ok(),
            "storage draws are per-op, not chained"
        );
        let mut p = FaultPlan::quiet(0);
        p.enospc_heals = true;
        assert!(p.validate(4).is_err(), "heal flag needs a byte budget");

        // Malformed storage specs are rejected like any other key.
        assert!(FaultPlan::parse("enospc=lots").is_err());
        assert!(FaultPlan::parse("enospc=100+later").is_err());
        assert!(FaultPlan::parse("eio=maybe").is_err());
        assert!(FaultPlan::parse("torn=").is_err());
    }

    #[test]
    fn storage_keys_do_not_perturb_attempt_decisions() {
        // Storage faults live outside the attempt edge chain: adding them
        // to a plan must not change any task-attempt decision.
        let base = FaultPlan::aggressive(42);
        let mut with_storage = base.clone();
        with_storage.enospc_after_bytes = Some(1);
        with_storage.p_disk_eio = 0.9;
        with_storage.p_torn_write = 0.9;
        for task in 0..300 {
            assert_eq!(
                base.decide("job", Phase::Map, task, 0),
                with_storage.decide("job", Phase::Map, task, 0),
                "attempt decision changed at task {task}"
            );
        }
    }

    /// Valid plans (on a four-node cluster) with each key on or off.
    fn plans() -> impl Strategy<Value = FaultPlan> {
        let p = || prop_oneof![Just(0.0), 0.0..0.15f64];
        let index = || prop_oneof![Just(None), (0usize..4).prop_map(Some)];
        let factor = prop_oneof![Just(1.0), 1.0..20.0f64];
        let attempts = (p(), p(), p(), p(), (p(), p(), p(), factor));
        let corrupt = prop_oneof![
            Just(None),
            "[a-z0-9/_.-]{1,16}".prop_map(|s| Some(format!("/{s}")))
        ];
        let driver = (index(), index(), index(), corrupt);
        let budget = prop_oneof![Just(None), any::<u64>().prop_map(Some)];
        let storage = (budget, any::<bool>(), p(), p());
        (any::<u64>(), attempts, driver, storage).prop_map(|(seed, a, d, s)| FaultPlan {
            seed,
            p_transient: a.0,
            p_panic: a.1,
            p_oom: a.2,
            p_late: a.3,
            p_hang: a.4 .0,
            p_slow_heartbeat: a.4 .1,
            p_straggler: a.4 .2,
            straggler_factor: a.4 .3,
            dead_node: d.0,
            crash_after: d.1,
            crash_mid: d.2,
            corrupt_path: d.3,
            enospc_after_bytes: s.0,
            enospc_heals: s.0.is_some() && s.1,
            p_disk_eio: s.2,
            p_torn_write: s.3,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A plan prints as the spec that parses back into it.
        #[test]
        fn display_prints_the_spec_parse_reads_back(plan in plans()) {
            prop_assert_eq!(plan.validate(4), Ok(()));
            let spec = plan.to_string();
            prop_assert_eq!(FaultPlan::parse(&spec), Ok(plan.clone()), "{spec}");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("unknown=1").is_err());
        assert!(FaultPlan::parse("transient=lots").is_err());
        assert!(FaultPlan::parse("seed=-1").is_err());
        // Bare straggler probability gets a sensible default factor.
        let p = FaultPlan::parse("straggler=0.2").unwrap();
        assert_eq!(p.p_straggler, 0.2);
        assert!(p.straggler_factor >= 4.0);
    }
}
