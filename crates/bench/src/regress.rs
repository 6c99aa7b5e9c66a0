//! The attribution regression harness behind `bench regress`: runs a pinned
//! workload matrix with miss classification on, snapshots the attribution
//! metrics to `BENCH_attrib.json`, and gates changes against the committed
//! baseline with a relative tolerance.
//!
//! The simulator is bit-deterministic, so the baseline is expected to match
//! exactly on an unchanged tree; the tolerance (default 2%) leaves room for
//! deliberate model tuning without churning the baseline on every commit.

use ccnuma_sim::json::{self, quote, Value};
use ccnuma_sim::time::Ns;
use scaling_study::experiments::{basic, Scale};
use scaling_study::runner::{Runner, StudyError};

/// The pinned workload matrix: quick-scale basic problems on small
/// machines, chosen to exercise every miss cause (capacity/conflict from
/// radix and fft, coherence from ocean and water-nsq) in a few seconds.
pub const MATRIX_APPS: &[&str] = &["fft", "ocean", "radix", "water-nsq"];

/// Processor counts of the pinned matrix.
pub const MATRIX_PROCS: &[usize] = &[4, 8];

/// Default relative tolerance of the drift gate.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// One measured point of the regression matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressEntry {
    /// Workload name (e.g. `"ocean"`).
    pub app: String,
    /// Problem description (e.g. `"34x34 grid"`).
    pub problem: String,
    /// Processors used.
    pub nprocs: usize,
    /// Parallel wall-clock (virtual ns).
    pub wall_ns: Ns,
    /// Total memory stall across processors (virtual ns).
    pub mem_stall_ns: Ns,
    /// Queueing share of the memory stall (virtual ns).
    pub queue_ns: Ns,
    /// Total data misses.
    pub misses: u64,
    /// Miss counts per cause, indexed by
    /// [`MissCause::index`](ccnuma_sim::attrib::MissCause::index):
    /// cold, capacity, conflict, true sharing, false sharing.
    pub causes: [u64; 5],
}

impl RegressEntry {
    /// The `"app/problem/NNp"` key identifying this point.
    pub fn key(&self) -> String {
        format!("{}/{}/{}p", self.app, self.problem, self.nprocs)
    }
}

/// Runs the pinned matrix and returns one entry per (app, procs) point.
///
/// # Errors
///
/// Propagates any simulation or verification failure.
pub fn measure() -> Result<Vec<RegressEntry>, StudyError> {
    let scale = Scale::Quick;
    let mut runner = Runner::new(scale.cache_bytes());
    runner.set_attrib(true);
    let mut out = Vec::new();
    for &id in MATRIX_APPS {
        let w = basic(id, scale);
        for &np in MATRIX_PROCS {
            let rec = runner.run(w.as_ref(), np)?;
            let causes = rec.stats.cause_counts();
            out.push(RegressEntry {
                app: rec.app,
                problem: rec.problem,
                nprocs: rec.nprocs,
                wall_ns: rec.wall_ns,
                mem_stall_ns: rec.stats.total(|p| p.mem_ns),
                queue_ns: rec.stats.mem_breakdown().queue_total(),
                misses: rec.stats.total(|p| p.misses()),
                causes,
            });
        }
    }
    Ok(out)
}

/// [`measure`] fanned out over the sweep engine's work-stealing pool:
/// the same pinned matrix, the same entries in the same order, but each
/// point simulated on its own host thread. The entries skip the
/// sequential baselines [`Runner`] would compute (no field of
/// [`RegressEntry`] needs one), so this is strictly less work per point
/// as well as parallel across points — and still bit-identical to
/// [`measure`], which `measure_is_jobs_invariant` pins.
///
/// # Errors
///
/// Propagates the first simulation or verification failure in matrix
/// order.
pub fn measure_with_jobs(jobs: usize) -> Result<Vec<RegressEntry>, StudyError> {
    let scale = Scale::Quick;
    let points: Vec<(&str, usize)> = MATRIX_APPS
        .iter()
        .flat_map(|&id| MATRIX_PROCS.iter().map(move |&np| (id, np)))
        .collect();
    let (results, _) = ccnuma_sweep::pool::run(&points, jobs, |&(id, np)| {
        let w = basic(id, scale);
        let mut cfg = ccnuma_sim::config::MachineConfig::origin2000_scaled(np, scale.cache_bytes());
        cfg.classify_misses = true;
        let (wall_ns, stats) = scaling_study::runner::execute_workload(w.as_ref(), cfg)?;
        Ok(RegressEntry {
            app: w.name(),
            problem: w.problem(),
            nprocs: np,
            wall_ns,
            mem_stall_ns: stats.total(|p| p.mem_ns),
            queue_ns: stats.mem_breakdown().queue_total(),
            misses: stats.total(|p| p.misses()),
            causes: stats.cause_counts(),
        })
    });
    results.into_iter().collect()
}

/// Serializes entries as the `BENCH_attrib.json` document.
pub fn to_json(entries: &[RegressEntry]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"app\": {}, \"problem\": {}, \"nprocs\": {}, \
             \"wall_ns\": {}, \"mem_stall_ns\": {}, \"queue_ns\": {}, \
             \"misses\": {}, \"causes\": {}}}",
            quote(&e.app),
            quote(&e.problem),
            e.nprocs,
            e.wall_ns,
            e.mem_stall_ns,
            e.queue_ns,
            e.misses,
            json::list(&e.causes)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Parses a `BENCH_attrib.json` document produced by [`to_json`].
///
/// # Errors
///
/// Returns a description of the first malformed field found.
pub fn parse(doc: &str) -> Result<Vec<RegressEntry>, String> {
    let v = json::parse(doc)?;
    v.field("entries", Value::as_array)?
        .iter()
        .map(|e| {
            Ok(RegressEntry {
                app: e.field("app", Value::as_str)?.to_string(),
                problem: e.field("problem", Value::as_str)?.to_string(),
                nprocs: e.field("nprocs", Value::as_u64)? as usize,
                wall_ns: e.field("wall_ns", Value::as_u64)?,
                mem_stall_ns: e.field("mem_stall_ns", Value::as_u64)?,
                queue_ns: e.field("queue_ns", Value::as_u64)?,
                misses: e.field("misses", Value::as_u64)?,
                causes: e.field("causes", Value::as_u64s)?,
            })
        })
        .collect()
}

/// Compares `current` against `baseline` with relative `tolerance` and
/// returns one message per drifted metric, missing point, or new point.
/// An empty result means the gate passes.
pub fn compare(baseline: &[RegressEntry], current: &[RegressEntry], tolerance: f64) -> Vec<String> {
    let drifts = |key: &str, name: &str, base: u64, cur: u64, out: &mut Vec<String>| {
        let denom = base.max(1) as f64;
        let rel = (cur as f64 - base as f64) / denom;
        if rel.abs() > tolerance {
            out.push(format!(
                "{key}: {name} drifted {:+.2}% (baseline {base}, current {cur})",
                100.0 * rel
            ));
        }
    };
    let mut out = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key() == b.key()) else {
            out.push(format!("{}: missing from current run", b.key()));
            continue;
        };
        let key = b.key();
        drifts(&key, "wall_ns", b.wall_ns, c.wall_ns, &mut out);
        drifts(
            &key,
            "mem_stall_ns",
            b.mem_stall_ns,
            c.mem_stall_ns,
            &mut out,
        );
        drifts(&key, "queue_ns", b.queue_ns, c.queue_ns, &mut out);
        drifts(&key, "misses", b.misses, c.misses, &mut out);
        for (i, (bc, cc)) in b.causes.iter().zip(&c.causes).enumerate() {
            let name = format!("causes[{}]", ccnuma_sim::attrib::cause_slot_name(i));
            drifts(&key, &name, *bc, *cc, &mut out);
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.key() == c.key()) {
            out.push(format!(
                "{}: not in baseline (regenerate with `bench regress`)",
                c.key()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(app: &str, np: usize, wall: u64) -> RegressEntry {
        RegressEntry {
            app: app.into(),
            problem: "p".into(),
            nprocs: np,
            wall_ns: wall,
            mem_stall_ns: 500,
            queue_ns: 100,
            misses: 40,
            causes: [10, 10, 5, 10, 5],
        }
    }

    #[test]
    fn compare_passes_identical_and_within_tolerance() {
        let base = vec![entry("fft", 4, 1_000)];
        assert!(compare(&base, &base, 0.02).is_empty());
        let mut close = base.clone();
        close[0].wall_ns = 1_015; // +1.5% < 2%
        assert!(compare(&base, &close, 0.02).is_empty());
    }

    #[test]
    fn compare_flags_drift_and_shape_changes() {
        let base = vec![entry("fft", 4, 1_000), entry("ocean", 8, 2_000)];
        let mut cur = vec![entry("fft", 4, 1_100), entry("radix", 4, 500)];
        cur[0].causes[4] = 20; // false-share count blew up
        let msgs = compare(&base, &cur, 0.02);
        assert!(
            msgs.iter().any(|m| m.contains("wall_ns drifted +10.00%")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("causes[coh-false]")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("ocean/p/8p: missing")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("radix/p/4p: not in baseline")),
            "{msgs:?}"
        );
    }

    #[test]
    fn measure_covers_matrix_and_reconciles() {
        let entries = measure().unwrap();
        assert_eq!(entries.len(), MATRIX_APPS.len() * MATRIX_PROCS.len());
        for e in &entries {
            assert_eq!(e.causes.iter().sum::<u64>(), e.misses, "{}", e.key());
            assert!(e.queue_ns <= e.mem_stall_ns, "{}", e.key());
        }
        // Determinism: measuring again reproduces the snapshot bit-exactly.
        let again = measure().unwrap();
        assert_eq!(entries, again);
    }

    #[test]
    fn measure_is_jobs_invariant() {
        // The parallel path must reproduce the serial snapshot bit for
        // bit, in the same pinned order — otherwise routing `bench
        // regress` through the pool would churn BENCH_attrib.json.
        let serial = measure().unwrap();
        let parallel = measure_with_jobs(4).unwrap();
        assert_eq!(serial, parallel);
    }
}
