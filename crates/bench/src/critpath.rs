//! The critical-path regression harness behind `bench critpath`: runs the
//! pinned workload matrix (the same one `bench regress` uses) with
//! critical-path profiling on, snapshots each cell's on-path composition
//! and what-if projections to `BENCH_critpath.json`, and gates changes
//! against the committed baseline with a relative tolerance.
//!
//! The simulator — and the collector, which consumes its deterministic
//! event stream — is bit-deterministic, so the baseline is expected to
//! match exactly on an unchanged tree at any `--jobs` count; the
//! tolerance (default 2%) leaves room for deliberate model tuning.

use ccnuma_sim::critpath::CritReport;
use ccnuma_sim::json::{self, quote, Value};
use ccnuma_sim::time::Ns;
use scaling_study::experiments::{basic, Scale};
use scaling_study::report::Table;
use scaling_study::runner::{Runner, StudyError};

use crate::regress::{MATRIX_APPS, MATRIX_PROCS};

/// Default relative tolerance of the drift gate.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// Names of the seven on-path buckets, in [`CritEntry::path`] order.
pub const PATH_NAMES: [&str; 7] = [
    "busy",
    "sync_op",
    "mem_local",
    "mem_remote",
    "lock_wait",
    "barrier_wait",
    "sem_wait",
];

/// Names of the what-if scenarios, in [`CritEntry::whatif`] order — the
/// order [`CritReport`] emits them in.
pub const SCENARIO_NAMES: [&str; 6] = [
    "measured",
    "sync=0",
    "hub_queue=0",
    "queue=0",
    "remote*0.5",
    "busy-only",
];

/// One measured point of the critical-path matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritEntry {
    /// Workload name (e.g. `"ocean"`).
    pub app: String,
    /// Problem description (e.g. `"34x34 grid"`).
    pub problem: String,
    /// Processors used.
    pub nprocs: usize,
    /// Parallel wall-clock (virtual ns) — what the path sums to.
    pub wall_ns: Ns,
    /// On-path time per bucket, in [`PATH_NAMES`] order. Sums to
    /// [`CritEntry::wall_ns`] exactly.
    pub path: [Ns; 7],
    /// Projected wall clock per what-if scenario, in [`SCENARIO_NAMES`]
    /// order. `whatif[0]` (measured) equals [`CritEntry::wall_ns`].
    pub whatif: [Ns; 6],
}

impl CritEntry {
    /// The `"app/problem/NNp"` key identifying this point.
    pub fn key(&self) -> String {
        format!("{}/{}/{}p", self.app, self.problem, self.nprocs)
    }

    /// On-path `(busy, memory, sync)` percentage split.
    pub fn share_pct(&self) -> (f64, f64, f64) {
        let t = self.wall_ns.max(1) as f64;
        let [busy, sync_op, ml, mr, lw, bw, sw] = self.path;
        (
            100.0 * busy as f64 / t,
            100.0 * (ml + mr) as f64 / t,
            100.0 * (sync_op + lw + bw + sw) as f64 / t,
        )
    }

    /// Projected speedup of scenario `i` (in [`SCENARIO_NAMES`] order).
    pub fn speedup(&self, i: usize) -> f64 {
        if self.whatif[i] == 0 {
            1.0
        } else {
            self.wall_ns as f64 / self.whatif[i] as f64
        }
    }
}

fn entry_from(app: String, problem: String, nprocs: usize, rep: &CritReport) -> CritEntry {
    let t = &rep.total;
    let mut whatif = [0u64; 6];
    for (slot, w) in whatif.iter_mut().zip(&rep.whatif) {
        *slot = w.wall_ns;
    }
    CritEntry {
        app,
        problem,
        nprocs,
        wall_ns: rep.wall_ns,
        path: [
            t.busy_ns,
            t.sync_op_ns,
            t.mem_local_ns,
            t.mem_remote_ns,
            t.lock_wait_ns,
            t.barrier_wait_ns,
            t.sem_wait_ns,
        ],
        whatif,
    }
}

/// Runs the pinned matrix with critical-path profiling (and miss
/// classification, so the path's cause/resource detail is populated) and
/// returns one entry per (app, procs) point.
///
/// # Errors
///
/// Propagates any simulation or verification failure.
pub fn measure() -> Result<Vec<CritEntry>, StudyError> {
    let scale = Scale::Quick;
    let mut runner = Runner::new(scale.cache_bytes());
    runner.set_attrib(true);
    runner.set_critpath(true);
    let mut out = Vec::new();
    for &id in MATRIX_APPS {
        let w = basic(id, scale);
        for &np in MATRIX_PROCS {
            let rec = runner.run(w.as_ref(), np)?;
            let rep = rec
                .stats
                .critpath
                .as_ref()
                .expect("critpath enabled on every matrix run");
            out.push(entry_from(rec.app, rec.problem, rec.nprocs, rep));
        }
    }
    Ok(out)
}

/// [`measure`] fanned out over the sweep engine's work-stealing pool:
/// the same pinned matrix, the same entries in the same order, each
/// point simulated on its own host thread — and still bit-identical to
/// [`measure`], which `measure_is_jobs_invariant` pins.
///
/// # Errors
///
/// Propagates the first simulation or verification failure in matrix
/// order.
pub fn measure_with_jobs(jobs: usize) -> Result<Vec<CritEntry>, StudyError> {
    let scale = Scale::Quick;
    let points: Vec<(&str, usize)> = MATRIX_APPS
        .iter()
        .flat_map(|&id| MATRIX_PROCS.iter().map(move |&np| (id, np)))
        .collect();
    let (results, _) = ccnuma_sweep::pool::run(&points, jobs, |&(id, np)| {
        let w = basic(id, scale);
        let mut cfg = ccnuma_sim::config::MachineConfig::origin2000_scaled(np, scale.cache_bytes());
        cfg.classify_misses = true;
        cfg.critpath = true;
        let (_, stats) = scaling_study::runner::execute_workload(w.as_ref(), cfg)?;
        let rep = stats
            .critpath
            .as_ref()
            .expect("critpath enabled on every matrix run");
        Ok(entry_from(w.name(), w.problem(), np, rep))
    });
    results.into_iter().collect()
}

/// Renders entries as the `bench critpath` summary table: on-path
/// shares and the headline what-if speedups per matrix point.
pub fn table(entries: &[CritEntry]) -> Table {
    let mut t = Table::new(
        "critical-path matrix",
        &["run", "busy", "memory", "sync", "sync=0", "remote*0.5"],
    );
    for e in entries {
        let (busy, mem, sync) = e.share_pct();
        t.row(vec![
            e.key(),
            format!("{busy:.1}%"),
            format!("{mem:.1}%"),
            format!("{sync:.1}%"),
            format!("{:.2}x", e.speedup(1)),
            format!("{:.2}x", e.speedup(4)),
        ]);
    }
    t
}

/// Serializes entries as the `BENCH_critpath.json` document.
pub fn to_json(entries: &[CritEntry]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"app\": {}, \"problem\": {}, \"nprocs\": {}, \
             \"wall_ns\": {}, \"path\": {}, \"whatif\": {}}}",
            quote(&e.app),
            quote(&e.problem),
            e.nprocs,
            e.wall_ns,
            json::list(&e.path),
            json::list(&e.whatif)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Parses a `BENCH_critpath.json` document produced by [`to_json`].
///
/// # Errors
///
/// Returns a description of the first malformed field found.
pub fn parse(doc: &str) -> Result<Vec<CritEntry>, String> {
    let v = json::parse(doc)?;
    v.field("entries", Value::as_array)?
        .iter()
        .map(|e| {
            Ok(CritEntry {
                app: e.field("app", Value::as_str)?.to_string(),
                problem: e.field("problem", Value::as_str)?.to_string(),
                nprocs: e.field("nprocs", Value::as_u64)? as usize,
                wall_ns: e.field("wall_ns", Value::as_u64)?,
                path: e.field("path", Value::as_u64s)?,
                whatif: e.field("whatif", Value::as_u64s)?,
            })
        })
        .collect()
}

/// Compares `current` against `baseline` with relative `tolerance` and
/// returns one message per drifted metric, missing point, or new point.
/// An empty result means the gate passes.
pub fn compare(baseline: &[CritEntry], current: &[CritEntry], tolerance: f64) -> Vec<String> {
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
        for (i, (bp, cp)) in b.path.iter().zip(&c.path).enumerate() {
            let name = format!("path[{}]", PATH_NAMES[i]);
            drifts(&key, &name, *bp, *cp, &mut out);
        }
        for (i, (bw, cw)) in b.whatif.iter().zip(&c.whatif).enumerate() {
            let name = format!("whatif[{}]", SCENARIO_NAMES[i]);
            drifts(&key, &name, *bw, *cw, &mut out);
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.key() == c.key()) {
            out.push(format!(
                "{}: not in baseline (regenerate with `bench critpath`)",
                c.key()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(app: &str, np: usize, wall: u64) -> CritEntry {
        CritEntry {
            app: app.into(),
            problem: "p".into(),
            nprocs: np,
            wall_ns: wall,
            path: [wall / 2, 0, wall / 8, wall / 8, 0, wall / 4, 0],
            whatif: [wall, wall * 3 / 4, wall, wall, wall * 7 / 8, wall / 2],
        }
    }

    #[test]
    fn compare_passes_identical_and_flags_drift() {
        let base = vec![entry("fft", 4, 1_000), entry("ocean", 8, 2_000)];
        assert!(compare(&base, &base, 0.02).is_empty());
        let mut cur = vec![entry("fft", 4, 1_000), entry("radix", 4, 500)];
        cur[0].path[5] = 300; // barrier-wait share grew +20%
        cur[0].whatif[1] = 600;
        let msgs = compare(&base, &cur, 0.02);
        assert!(
            msgs.iter().any(|m| m.contains("path[barrier_wait]")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("whatif[sync=0]")),
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
    fn shares_and_speedups_derive_from_the_entry() {
        let e = entry("fft", 4, 1_000);
        let (busy, mem, sync) = e.share_pct();
        assert!((busy - 50.0).abs() < 1e-9);
        assert!((mem - 25.0).abs() < 1e-9);
        assert!((sync - 25.0).abs() < 1e-9);
        assert!((e.speedup(5) - 2.0).abs() < 1e-9, "busy-only bound");
        let t = table(&[e]);
        assert_eq!(t.len(), 1);
        assert!(t.to_csv().contains("50.0%"));
    }

    #[test]
    fn measure_covers_matrix_and_reconciles() {
        let entries = measure().unwrap();
        assert_eq!(entries.len(), MATRIX_APPS.len() * MATRIX_PROCS.len());
        for e in &entries {
            assert_eq!(
                e.path.iter().sum::<u64>(),
                e.wall_ns,
                "{}: path partitions the wall",
                e.key()
            );
            assert_eq!(e.whatif[0], e.wall_ns, "{}: measured replay", e.key());
            let busy_bound = e.whatif[5];
            for (i, &w) in e.whatif.iter().enumerate() {
                assert!(
                    w <= e.wall_ns,
                    "{}: {} ≤ measured",
                    e.key(),
                    SCENARIO_NAMES[i]
                );
                assert!(
                    w >= busy_bound,
                    "{}: {} ≥ busy bound",
                    e.key(),
                    SCENARIO_NAMES[i]
                );
            }
        }
        // Determinism: measuring again reproduces the snapshot bit-exactly.
        let again = measure().unwrap();
        assert_eq!(entries, again);
    }

    #[test]
    fn measure_is_jobs_invariant() {
        // The parallel path must reproduce the serial snapshot bit for
        // bit, in the same pinned order — otherwise routing `bench
        // critpath` through the pool would churn BENCH_critpath.json.
        let serial = measure().unwrap();
        let parallel = measure_with_jobs(4).unwrap();
        assert_eq!(serial, parallel);
    }
}
