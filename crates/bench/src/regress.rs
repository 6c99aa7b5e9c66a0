//! The gate harness behind `bench regress` and `bench perf`, and the
//! attribution half of the accuracy gate.
//!
//! `bench regress` runs the pinned workload matrix once, with miss
//! classification and the critical-path profiler both on, and snapshots
//! two documents from that one pass: the attribution metrics to
//! `BENCH_attrib.json` ([`RegressEntry`]) and the on-path composition and
//! what-if projections to `BENCH_critpath.json` ([`CritEntry`]). Both
//! observers are pinned passive, so one pass yields the same bytes as two
//! separate ones would.
//!
//! The pieces every gate shares live here too: `over_matrix`, the one pool
//! loop over the pinned matrix; `drift` and `pair`, the comparators; and
//! [`write_or_check`], which writes the baselines or gates against them.
//!
//! The simulator is bit-deterministic, so the baseline is expected to match
//! exactly on an unchanged tree; the tolerance (default 2%) leaves room for
//! deliberate model tuning without churning the baseline on every commit.

use std::path::Path;

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::json::{self, quote, Value};
use ccnuma_sim::time::Ns;
use scaling_study::experiments::{basic, Scale};
use scaling_study::runner::{execute_workload, StudyError};
use splash_apps::common::Workload;

use crate::critpath::{self, CritEntry};

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

/// Runs `cell` on every point of the pinned matrix, fanned out over the
/// sweep engine's work-stealing pool on `jobs` host threads (`jobs = 1`
/// is the serial case), and returns the results in matrix order. Each
/// point gets its quick-scale Origin config with `tweak` applied.
///
/// # Errors
///
/// Propagates the first failure in matrix order.
pub(crate) fn over_matrix<T: Send>(
    jobs: usize,
    tweak: impl Fn(&mut MachineConfig) + Sync,
    cell: impl Fn(&dyn Workload, MachineConfig) -> Result<T, StudyError> + Sync,
) -> Result<Vec<T>, StudyError> {
    let scale = Scale::Quick;
    let points: Vec<(&str, usize)> = MATRIX_APPS
        .iter()
        .flat_map(|&id| MATRIX_PROCS.iter().map(move |&np| (id, np)))
        .collect();
    let (results, _) = ccnuma_sweep::pool::run(&points, jobs, |&(id, np)| {
        let mut cfg = MachineConfig::origin2000_scaled(np, scale.cache_bytes());
        tweak(&mut cfg);
        cell(basic(id, scale).as_ref(), cfg)
    });
    results.into_iter().collect()
}

/// Runs the pinned matrix once with miss classification and the
/// critical-path profiler on and returns both accuracy snapshots, one
/// entry of each per (app, procs) point in matrix order. Bit-identical at
/// any `jobs` count.
///
/// # Errors
///
/// Propagates the first simulation or verification failure in matrix
/// order.
pub fn measure(jobs: usize) -> Result<(Vec<RegressEntry>, Vec<CritEntry>), StudyError> {
    let cells = over_matrix(
        jobs,
        |cfg| {
            cfg.classify_misses = true;
            cfg.critpath = true;
        },
        |w, cfg| {
            let nprocs = cfg.nprocs;
            let (wall_ns, stats) = execute_workload(w, cfg)?;
            let rep = stats
                .critpath
                .as_ref()
                .expect("critpath enabled on every matrix run");
            let crit = CritEntry::from_report(w, nprocs, rep);
            let attrib = RegressEntry {
                app: w.name(),
                problem: w.problem(),
                nprocs,
                wall_ns,
                mem_stall_ns: stats.total(|p| p.mem_ns),
                queue_ns: stats.mem_breakdown().queue_total(),
                misses: stats.total(|p| p.misses()),
                causes: stats.cause_counts(),
            };
            Ok((attrib, crit))
        },
    )?;
    Ok(cells.into_iter().unzip())
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

/// Appends a message to `out` when `cur` drifted from `base` by more than
/// the relative `tolerance` (relative to `base`, or to 1 when it is 0).
pub(crate) fn drift(
    out: &mut Vec<String>,
    key: &str,
    name: &str,
    base: u64,
    cur: u64,
    tolerance: f64,
) {
    let rel = (cur as f64 - base as f64) / base.max(1) as f64;
    if rel.abs() > tolerance {
        out.push(format!(
            "{key}: {name} drifted {:+.2}% (baseline {base}, current {cur})",
            100.0 * rel
        ));
    }
}

/// Pairs each baseline entry with the current entry of the same `key`,
/// appending one message to `out` per point missing from the current run
/// and per point not in the baseline (`cmd` regenerates the baseline).
pub(crate) fn pair<'a, T>(
    baseline: &'a [T],
    current: &'a [T],
    key: fn(&T) -> String,
    cmd: &str,
    out: &mut Vec<String>,
) -> Vec<(&'a T, &'a T)> {
    let mut pairs = Vec::new();
    for b in baseline {
        match current.iter().find(|c| key(c) == key(b)) {
            Some(c) => pairs.push((b, c)),
            None => out.push(format!("{}: missing from current run", key(b))),
        }
    }
    for c in current {
        if !baseline.iter().any(|b| key(b) == key(c)) {
            out.push(format!(
                "{}: not in baseline (regenerate with `{cmd}`)",
                key(c)
            ));
        }
    }
    pairs
}

/// Compares `current` against `baseline` with relative `tolerance` and
/// returns one message per drifted metric, missing point, or new point.
/// An empty result means the gate passes.
pub fn compare(baseline: &[RegressEntry], current: &[RegressEntry], tolerance: f64) -> Vec<String> {
    let mut out = Vec::new();
    let pairs = pair(
        baseline,
        current,
        RegressEntry::key,
        "bench regress",
        &mut out,
    );
    for (b, c) in pairs {
        let key = b.key();
        let mut d = |name: &str, base, cur| drift(&mut out, &key, name, base, cur, tolerance);
        d("wall_ns", b.wall_ns, c.wall_ns);
        d("mem_stall_ns", b.mem_stall_ns, c.mem_stall_ns);
        d("queue_ns", b.queue_ns, c.queue_ns);
        d("misses", b.misses, c.misses);
        for (i, (bc, cc)) in b.causes.iter().zip(&c.causes).enumerate() {
            let name = format!("causes[{}]", ccnuma_sim::attrib::cause_slot_name(i));
            d(&name, *bc, *cc);
        }
    }
    out
}

/// One committed baseline document and the fresh measurement gated
/// against it.
pub struct Gate<'a> {
    /// The baseline's file name, e.g. `BENCH_attrib.json`.
    pub file: &'static str,
    /// The fresh measurement, serialized as a baseline document.
    pub current: String,
    /// Parses a baseline document and compares the fresh measurement
    /// against it.
    pub compare: Compare<'a>,
}

/// A gate's comparison: baseline document in, one message per violation
/// out, or why the document is malformed.
pub type Compare<'a> = Box<dyn Fn(&str) -> Result<Vec<String>, String> + 'a>;

/// The two accuracy gates of one [`measure`] pass, `BENCH_attrib.json`
/// and `BENCH_critpath.json`.
pub fn gates<'a>(
    attrib: &'a [RegressEntry],
    crit: &'a [CritEntry],
    tolerance: f64,
) -> [Gate<'a>; 2] {
    [
        Gate {
            file: "BENCH_attrib.json",
            current: to_json(attrib),
            compare: Box::new(move |doc| Ok(compare(&parse(doc)?, attrib, tolerance))),
        },
        Gate {
            file: "BENCH_critpath.json",
            current: critpath::to_json(crit),
            compare: Box::new(move |doc| {
                Ok(critpath::compare(&critpath::parse(doc)?, crit, tolerance))
            }),
        },
    ]
}

/// Without `check`, writes each gate's fresh document to its baseline in
/// `dir`. With `check`, reads each baseline and compares instead; a gate
/// that fails leaves its fresh document beside the baseline as
/// `BENCH_<x>.current.json`. Returns every violation message: empty means
/// the gates pass (or the baselines were written).
///
/// # Errors
///
/// A baseline that cannot be read, parsed or written. `cmd` is the
/// command that regenerates the baselines.
pub fn write_or_check(
    dir: &Path,
    cmd: &str,
    check: bool,
    gates: &[Gate],
) -> Result<Vec<String>, String> {
    let mut all = Vec::new();
    for g in gates {
        let path = dir.join(g.file);
        let shown = path.display();
        if !check {
            std::fs::write(&path, &g.current).map_err(|e| format!("cannot write {shown}: {e}"))?;
            eprintln!("[bench] wrote baseline {shown}");
            continue;
        }
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline {shown}: {e} (generate it with `{cmd}`)"))?;
        let msgs = (g.compare)(&doc).map_err(|e| format!("malformed baseline {shown}: {e}"))?;
        if msgs.is_empty() {
            eprintln!("[bench] OK: no drift vs {shown}");
            continue;
        }
        let fresh = path.with_extension("current.json");
        match std::fs::write(&fresh, &g.current) {
            Ok(()) => eprintln!("[bench] fresh measurement written to {}", fresh.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", fresh.display()),
        }
        eprintln!("[bench] FAIL: {} violation(s) vs {shown}:", msgs.len());
        for m in &msgs {
            eprintln!("  {m}");
        }
        all.extend(msgs);
    }
    Ok(all)
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
        let (entries, _) = measure(1).unwrap();
        assert_eq!(entries.len(), MATRIX_APPS.len() * MATRIX_PROCS.len());
        for e in &entries {
            assert_eq!(e.causes.iter().sum::<u64>(), e.misses, "{}", e.key());
            assert!(e.queue_ns <= e.mem_stall_ns, "{}", e.key());
        }
        // Determinism: measuring again reproduces the snapshot bit-exactly.
        let (again, _) = measure(1).unwrap();
        assert_eq!(entries, again);
    }

    #[test]
    fn measure_is_jobs_invariant() {
        // The pool must reproduce the one-job snapshot bit for bit, in
        // the same pinned order — otherwise `--jobs` would churn
        // BENCH_attrib.json.
        let (serial, _) = measure(1).unwrap();
        let (parallel, _) = measure(4).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn write_or_check_writes_passes_and_flags_both_documents() {
        let dir = std::env::temp_dir().join(format!("bench-gate-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir); // a stale run's baselines
        std::fs::create_dir_all(&dir).unwrap();
        let attrib = vec![entry("fft", 4, 1_000)];
        let crit = vec![CritEntry {
            app: "fft".into(),
            problem: "p".into(),
            nprocs: 4,
            wall_ns: 1_000,
            path: [500, 0, 125, 125, 0, 250, 0],
            whatif: [1_000, 750, 1_000, 1_000, 875, 500],
        }];
        let run = |check, a: &[RegressEntry], c: &[CritEntry]| {
            write_or_check(&dir, "bench regress", check, &gates(a, c, 0.02))
        };

        let err = run(true, &attrib, &crit).unwrap_err();
        assert!(
            err.contains("BENCH_attrib.json") && err.contains("`bench regress`"),
            "{err}"
        );

        assert_eq!(run(false, &attrib, &crit), Ok(vec![]));
        assert_eq!(run(true, &attrib, &crit), Ok(vec![]));
        assert!(!dir.join("BENCH_attrib.current.json").exists());

        let (mut a2, mut c2) = (attrib.clone(), crit.clone());
        a2[0].misses = 80;
        c2[0].path[5] = 300;
        let msgs = run(true, &a2, &c2).unwrap();
        assert!(
            msgs.iter().any(|m| m.contains("fft/p/4p: misses drifted")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("fft/p/4p: path[barrier_wait] drifted")),
            "{msgs:?}"
        );
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap();
        assert_eq!(read("BENCH_attrib.current.json"), to_json(&a2));
        assert_eq!(read("BENCH_critpath.current.json"), critpath::to_json(&c2));
        assert_eq!(
            read("BENCH_attrib.json"),
            to_json(&attrib),
            "check never writes"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
