//! The engine-throughput harness behind `bench perf`: times the pinned
//! workload matrix on the host clock, snapshots events-per-second and
//! ns-per-event to `BENCH_engine.json`, and gates changes against the
//! committed baseline with a *relative* tolerance.
//!
//! Unlike `bench regress` (which compares bit-deterministic simulated
//! numbers), this harness measures wall-clock throughput, which varies
//! with the host. Two things make the gate portable anyway:
//!
//! * the per-cell engine-event count ([`PerfEntry::events`]) is
//!   deterministic and compared exactly — a change means the engine's
//!   work changed, not the machine speed;
//! * ns-per-event drift is judged *after* dividing out the matrix-wide
//!   geometric-mean speed factor between baseline and current host, so
//!   a uniformly slower runner passes and only per-cell *relative*
//!   regressions fail.

use std::time::Instant;

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::json::{self, quote, Value};
use ccnuma_sim::prof::{self, HostProfile};
use scaling_study::runner::{execute_workload, StudyError};

use crate::regress::{over_matrix, pair, Gate, MATRIX_APPS, MATRIX_PROCS};

/// Default relative tolerance of the throughput gate. Deliberately far
/// looser than the accuracy gate's 2%: wall clocks on shared CI runners
/// jitter by tens of percent.
pub const DEFAULT_TOLERANCE: f64 = 0.35;

/// Default timed repetitions per cell (a discarded warmup rep runs
/// first).
pub const DEFAULT_REPS: usize = 3;

/// Optional-subsystem overhead modes measured by
/// [`measure_overheads`], in report order. `"baseline"` (all off) is
/// implicit; `"live"` runs the full telemetry wiring (registry +
/// refresher) beside an unmodified config.
pub const OVERHEAD_MODES: &[&str] = &["attrib", "trace", "sanitize", "critpath", "profile", "live"];

/// One measured point of the throughput matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Workload name (e.g. `"ocean"`).
    pub app: String,
    /// Problem description (e.g. `"34x34 grid"`).
    pub problem: String,
    /// Processors used.
    pub nprocs: usize,
    /// Engine events processed — deterministic, compared exactly.
    pub events: u64,
    /// Median host nanoseconds per engine event across the timed reps.
    pub ns_per_event: u64,
}

impl PerfEntry {
    /// The `"app/problem/NNp"` key identifying this point.
    pub fn key(&self) -> String {
        format!("{}/{}/{}p", self.app, self.problem, self.nprocs)
    }

    /// Simulated events per host second implied by the median rep.
    pub fn events_per_sec(&self) -> f64 {
        if self.ns_per_event == 0 {
            0.0
        } else {
            1e9 / self.ns_per_event as f64
        }
    }
}

/// One row of the subsystem-overhead report.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadEntry {
    /// Mode name (`"baseline"` or one of [`OVERHEAD_MODES`]).
    pub mode: &'static str,
    /// Summed per-cell host nanoseconds for one matrix pass.
    pub total_ns: u64,
    /// Percent overhead versus the all-off baseline pass.
    pub overhead_pct: f64,
}

/// Switches on the optional subsystem `mode` prices. `"baseline"` and
/// `"live"` leave the config all-off (the live wiring runs beside it).
///
/// # Panics
///
/// On a mode that is not `"baseline"` or one of [`OVERHEAD_MODES`].
fn apply_mode(cfg: &mut MachineConfig, mode: &str) {
    match mode {
        "baseline" | "live" => {}
        "attrib" => cfg.classify_misses = true,
        "trace" => cfg.trace = ccnuma_sim::trace::TraceConfig::on(),
        "sanitize" => cfg.sanitize.enabled = true,
        "critpath" => cfg.critpath = true,
        "profile" => cfg.profile = true,
        other => panic!("unknown overhead mode {other:?}"),
    }
}

/// Times the pinned matrix: per cell, one discarded warmup rep then
/// `reps` timed reps, reporting the median. Cells fan out over `jobs`
/// host threads (each cell's reps stay on one thread).
///
/// # Errors
///
/// Propagates the first simulation or verification failure in matrix
/// order, and fails a cell whose engine-event count differs between reps
/// (the engine is deterministic, so the count must not).
pub fn measure(jobs: usize, reps: usize) -> Result<Vec<PerfEntry>, StudyError> {
    let reps = reps.max(1);
    over_matrix(
        jobs,
        |_| {},
        |w, cfg| {
            let mut e = PerfEntry {
                app: w.name(),
                problem: w.problem(),
                nprocs: cfg.nprocs,
                events: 0,
                ns_per_event: 0,
            };
            let mut times = Vec::with_capacity(reps);
            for rep in 0..=reps {
                let t = Instant::now();
                let (_, stats) = execute_workload(w, cfg.clone())?;
                let dt = t.elapsed().as_nanos() as u64;
                if rep > 0 && stats.events != e.events {
                    return Err(StudyError::Verify(format!(
                        "{}: engine events differ between reps ({} then {})",
                        e.key(),
                        e.events,
                        stats.events
                    )));
                }
                e.events = stats.events;
                if rep > 0 {
                    times.push(dt); // warmup rep discarded
                }
            }
            times.sort_unstable();
            e.ns_per_event = times[times.len() / 2] / e.events.max(1);
            Ok(e)
        },
    )
}

/// One single-rep pass over the matrix in `mode`; returns the per-cell
/// host nanoseconds in matrix order (per-cell times keep the numbers
/// comparable at any job count, unlike the pass's wall clock).
fn matrix_pass(jobs: usize, mode: &str) -> Result<Vec<u64>, StudyError> {
    over_matrix(
        jobs,
        |cfg| apply_mode(cfg, mode),
        |w, cfg| {
            let t = Instant::now();
            execute_workload(w, cfg)?;
            Ok(t.elapsed().as_nanos() as u64)
        },
    )
}

/// Measures the host-time cost of each optional subsystem by comparing
/// a composite matrix pass of each mode against the all-off baseline.
/// Three defenses against host noise: the composite is the sum of
/// *per-cell minima* across passes (scheduler interference only ever
/// adds time, and taking the minimum per cell discards it cell by cell
/// instead of requiring one whole pass to get lucky end to end);
/// passes are *round-robin interleaved* — pass `i` of every mode runs
/// before pass `i+1` of any, so a machine whose speed drifts over
/// seconds (turbo, co-tenants) exposes every mode to the same fast and
/// slow windows; and the caller picks the pass count. The `"live"` row
/// runs the full telemetry wiring (registry, refresher, rate pipeline)
/// for the duration of its passes.
///
/// # Errors
///
/// Propagates the first simulation or verification failure.
pub fn measure_overheads(jobs: usize, passes: usize) -> Result<Vec<OverheadEntry>, StudyError> {
    let passes = passes.max(1);
    let n_cells = MATRIX_APPS.len() * MATRIX_PROCS.len();
    let mut best = vec![vec![u64::MAX; n_cells]; OVERHEAD_MODES.len() + 1];
    let fold = |best: &mut Vec<u64>, pass: Vec<u64>| {
        for (b, t) in best.iter_mut().zip(pass) {
            *b = (*b).min(t);
        }
    };
    for _ in 0..passes {
        let pass = matrix_pass(jobs, "baseline")?;
        fold(&mut best[0], pass);
        for (i, &mode) in OVERHEAD_MODES.iter().enumerate() {
            let wiring = (mode == "live")
                .then(|| crate::live::Wiring::start(std::time::Duration::from_millis(100)));
            let pass = matrix_pass(jobs, mode);
            if let Some(w) = wiring {
                w.stop();
            }
            fold(&mut best[i + 1], pass?);
        }
    }
    let base: u64 = best[0].iter().sum();
    let mut out = vec![OverheadEntry {
        mode: "baseline",
        total_ns: base,
        overhead_pct: 0.0,
    }];
    for (i, &mode) in OVERHEAD_MODES.iter().enumerate() {
        let total: u64 = best[i + 1].iter().sum();
        out.push(OverheadEntry {
            mode,
            total_ns: total,
            overhead_pct: 100.0 * (total as f64 / base.max(1) as f64 - 1.0),
        });
    }
    Ok(out)
}

/// Runs one profiled pass over the matrix (`cfg.profile = on`) and
/// hands back the drained aggregate host profile — the input for the
/// Chrome-trace and collapsed-stack exports.
///
/// # Errors
///
/// Propagates the first simulation or verification failure.
pub fn profile_matrix(jobs: usize) -> Result<HostProfile, StudyError> {
    prof::reset();
    matrix_pass(jobs, "profile")?;
    Ok(prof::take())
}

/// Serializes entries as the `BENCH_engine.json` document. The model
/// fingerprint pins which engine produced the numbers; a fingerprint
/// bump forces a baseline regeneration rather than a spurious drift
/// report.
pub fn to_json(reps: usize, entries: &[PerfEntry]) -> String {
    let mut out = format!(
        "{{\n  \"version\": 1,\n  \"model\": {},\n  \"reps\": {},\n  \"entries\": [",
        quote(ccnuma_sim::MODEL_FINGERPRINT),
        reps
    );
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"app\": {}, \"problem\": {}, \"nprocs\": {}, \
             \"events\": {}, \"ns_per_event\": {}}}",
            quote(&e.app),
            quote(&e.problem),
            e.nprocs,
            e.events,
            e.ns_per_event
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Parses a `BENCH_engine.json` document produced by [`to_json`];
/// returns `(model, reps, entries)`.
///
/// # Errors
///
/// Returns a description of the first malformed field found.
pub fn parse(doc: &str) -> Result<(String, usize, Vec<PerfEntry>), String> {
    let v = json::parse(doc)?;
    let entries = v
        .field("entries", Value::as_array)?
        .iter()
        .map(|e| {
            Ok(PerfEntry {
                app: e.field("app", Value::as_str)?.to_string(),
                problem: e.field("problem", Value::as_str)?.to_string(),
                nprocs: e.field("nprocs", Value::as_u64)? as usize,
                events: e.field("events", Value::as_u64)?,
                ns_per_event: e.field("ns_per_event", Value::as_u64)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let model = v.field("model", Value::as_str)?.to_string();
    Ok((model, v.field("reps", Value::as_u64)? as usize, entries))
}

/// Geometric mean of the per-cell current/baseline ns-per-event ratios
/// — the matrix-wide machine-speed factor between the two runs.
fn speed_factor(pairs: &[(&PerfEntry, &PerfEntry)]) -> f64 {
    let mut sum_ln = 0.0;
    let mut n = 0usize;
    for (b, c) in pairs {
        if b.ns_per_event > 0 && c.ns_per_event > 0 {
            sum_ln += (c.ns_per_event as f64 / b.ns_per_event as f64).ln();
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        (sum_ln / n as f64).exp()
    }
}

/// Compares `current` against `baseline`: event counts exactly,
/// ns-per-event with relative `tolerance` *after* dividing out the
/// matrix-wide speed factor. Returns one message per violation; empty
/// means the gate passes.
pub fn compare(
    model: &str,
    baseline: &[PerfEntry],
    current: &[PerfEntry],
    tolerance: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    if model != ccnuma_sim::MODEL_FINGERPRINT {
        out.push(format!(
            "model fingerprint changed (baseline {model:?}, current {:?}): \
             regenerate with `bench perf`",
            ccnuma_sim::MODEL_FINGERPRINT
        ));
        return out;
    }
    let pairs = pair(baseline, current, PerfEntry::key, "bench perf", &mut out);
    let speed = speed_factor(&pairs);
    for (b, c) in &pairs {
        if c.events != b.events {
            out.push(format!(
                "{}: engine events changed (baseline {}, current {}) — \
                 the engine's work changed, regenerate with `bench perf`",
                b.key(),
                b.events,
                c.events
            ));
        }
        let rel = (c.ns_per_event as f64 / b.ns_per_event.max(1) as f64) / speed - 1.0;
        if rel.abs() > tolerance {
            out.push(format!(
                "{}: ns/event drifted {:+.1}% relative to the matrix \
                 (baseline {}, current {}, machine-speed factor {:.2}x)",
                b.key(),
                100.0 * rel,
                b.ns_per_event,
                c.ns_per_event,
                speed
            ));
        }
    }
    out
}

/// The throughput gate of one [`measure`] pass, `BENCH_engine.json`.
pub fn gate(reps: usize, current: &[PerfEntry], tolerance: f64) -> Gate<'_> {
    Gate {
        file: "BENCH_engine.json",
        current: to_json(reps, current),
        compare: Box::new(move |doc| {
            let (model, _, base) = parse(doc)?;
            Ok(compare(&model, &base, current, tolerance))
        }),
    }
}

/// Renders the per-cell throughput table.
pub fn table(entries: &[PerfEntry]) -> String {
    let mut out =
        String::from("cell                                    events    ns/event      Mev/s\n");
    for e in entries {
        out.push_str(&format!(
            "{:<38} {:>8} {:>11} {:>10.2}\n",
            e.key(),
            e.events,
            e.ns_per_event,
            e.events_per_sec() / 1e6
        ));
    }
    out
}

/// Renders the subsystem-overhead table.
pub fn overhead_table(rows: &[OverheadEntry]) -> String {
    let mut out = String::from("subsystem    total host ms   overhead\n");
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>13.1} {:>+9.1}%\n",
            r.mode,
            r.total_ns as f64 / 1e6,
            r.overhead_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(app: &str, np: usize, events: u64, ns: u64) -> PerfEntry {
        PerfEntry {
            app: app.into(),
            problem: "p".into(),
            nprocs: np,
            events,
            ns_per_event: ns,
        }
    }

    #[test]
    fn uniform_machine_slowdown_passes_the_gate() {
        let base = vec![entry("fft", 4, 100, 200), entry("ocean", 8, 300, 400)];
        // A 3x slower host, same per-cell shape: the speed factor
        // absorbs it entirely.
        let slow: Vec<PerfEntry> = base
            .iter()
            .map(|e| PerfEntry {
                ns_per_event: e.ns_per_event * 3,
                ..e.clone()
            })
            .collect();
        let msgs = compare(ccnuma_sim::MODEL_FINGERPRINT, &base, &slow, 0.05);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn per_cell_skew_and_event_changes_fail_the_gate() {
        let base = vec![
            entry("fft", 4, 100, 200),
            entry("ocean", 8, 300, 400),
            entry("radix", 4, 500, 100),
        ];
        let mut cur = base.clone();
        cur[0].ns_per_event = 600; // 3x this cell only
        cur[1].events = 999; // deterministic count changed
        let msgs = compare(ccnuma_sim::MODEL_FINGERPRINT, &base, &cur, 0.35);
        assert!(
            msgs.iter()
                .any(|m| m.contains("fft/p/4p") && m.contains("ns/event drifted")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("ocean/p/8p") && m.contains("events changed")),
            "{msgs:?}"
        );
    }

    #[test]
    fn shape_and_model_changes_are_flagged() {
        let base = vec![entry("fft", 4, 100, 200), entry("ocean", 8, 300, 400)];
        let cur = vec![entry("fft", 4, 100, 200), entry("radix", 4, 500, 100)];
        let msgs = compare(ccnuma_sim::MODEL_FINGERPRINT, &base, &cur, 0.35);
        assert!(
            msgs.iter().any(|m| m.contains("ocean/p/8p: missing")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("radix/p/4p: not in baseline")),
            "{msgs:?}"
        );
        let msgs = compare("some-old-model", &base, &base, 0.35);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("model fingerprint changed"), "{msgs:?}");
    }

    #[test]
    fn every_overhead_mode_prices_its_own_config() {
        let base = MachineConfig::origin2000_scaled(4, 1 << 16);
        for &mode in OVERHEAD_MODES {
            let mut cfg = base.clone();
            apply_mode(&mut cfg, mode);
            // Only the live wiring runs beside an unmodified config.
            assert_eq!(cfg == base, mode == "live", "{mode}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown overhead mode")]
    fn misspelled_overhead_mode_fails() {
        apply_mode(&mut MachineConfig::origin2000_scaled(4, 1 << 16), "attribs");
    }

    #[test]
    fn measure_covers_matrix_with_deterministic_events() {
        let a = measure(2, 1).unwrap();
        assert_eq!(a.len(), MATRIX_APPS.len() * MATRIX_PROCS.len());
        for e in &a {
            assert!(e.events > 0, "{}", e.key());
            assert!(e.ns_per_event > 0, "{}", e.key());
        }
        // The timed half varies run to run; the event counts must not.
        let b = measure(1, 1).unwrap();
        let ae: Vec<(String, u64)> = a.iter().map(|e| (e.key(), e.events)).collect();
        let be: Vec<(String, u64)> = b.iter().map(|e| (e.key(), e.events)).collect();
        assert_eq!(ae, be, "events are jobs- and rep-invariant");
    }
}
