//! `ccnuma-sweep`: a parallel, resumable experiment-orchestration
//! engine for the paper's full matrix.
//!
//! One simulation uses roughly one host core (the per-processor threads
//! take turns advancing the engine in virtual-time order, parked while
//! they wait), so the full `apps × versions × procs` matrix is
//! embarrassingly parallel across *cells*. This crate fans the cells
//! out over a std-only [worker pool](pool) that shares one queue,
//! identifies every cell by a [content hash](key) of everything that
//! determines its result, and appends finished cells to a [crash-safe
//! JSONL store](store) — so `--resume` re-runs exactly the cells that
//! are missing, torn, or (optionally) quarantined, and nothing else.
//!
//! The pieces:
//!
//! - [`matrix`] — the `apps × versions × procs` DSL and its expansion
//!   into concrete cells;
//! - [`key`] — content-addressed run identity ([`RunKey`](key::RunKey));
//! - [`run`] — per-cell execution with panic isolation, timeout, and
//!   retry ([`Executor`]);
//! - [`store`] — the append-only JSONL result store;
//! - [`pool`] — the scheduler: one shared queue, taken in order;
//! - [`sweep`] — the driver tying them together.

pub mod events;
pub mod key;
pub mod matrix;
pub mod pool;
pub mod run;
pub mod store;

/// The JSON reader and escaper the store is written with, re-exported
/// for crates (the daemon) that reach the simulator only through here.
pub use ccnuma_sim::json;

use std::path::{Path, PathBuf};

use ccnuma_sim::stats::RunStats;
use matrix::{CellSpec, MatrixSpec};
use run::{Executor, RunOptions};
use store::{CellRecord, Store};

/// How a sweep should be driven.
#[derive(Clone)]
pub struct SweepConfig {
    /// Worker threads (clamped to the number of pending cells; `1`
    /// runs serially in-place).
    pub jobs: usize,
    /// Reuse the existing store: completed cells are skipped, missing
    /// or torn ones re-run. When false the store is truncated first.
    pub resume: bool,
    /// With `resume`, also re-run quarantined (non-`Ok`) cells instead
    /// of skipping them.
    pub retry_quarantined: bool,
    /// Path of the JSONL result store.
    pub store_path: PathBuf,
    /// Per-cell execution options (retries, timeout, fault injection).
    pub opts: RunOptions,
    /// Directory to write per-cell attribution JSON into (cells must
    /// have been swept with `attrib=on` for the counts to be classified).
    pub attrib_dir: Option<PathBuf>,
    /// Directory to write per-cell Chrome/Perfetto traces into (only
    /// cells swept with `trace=on` carry a trace).
    pub trace_dir: Option<PathBuf>,
    /// Per-cell lifecycle event sink ([`events::ExecEvent`]); called
    /// from worker threads.
    pub events: Option<events::EventSink>,
}

impl std::fmt::Debug for SweepConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepConfig")
            .field("jobs", &self.jobs)
            .field("resume", &self.resume)
            .field("retry_quarantined", &self.retry_quarantined)
            .field("store_path", &self.store_path)
            .field("opts", &self.opts)
            .field("attrib_dir", &self.attrib_dir)
            .field("trace_dir", &self.trace_dir)
            .field("events", &self.events.is_some())
            .finish()
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            jobs: 1,
            resume: false,
            retry_quarantined: false,
            store_path: PathBuf::from("sweep_results.jsonl"),
            opts: RunOptions::default(),
            attrib_dir: None,
            trace_dir: None,
            events: None,
        }
    }
}

/// What a sweep did, cell by cell.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Cells actually simulated this invocation.
    pub executed: usize,
    /// Cells satisfied without a fresh simulation: store hits, plus
    /// duplicates of a cell executed this invocation.
    pub cached: usize,
    /// Labels of cells whose record is quarantined (any non-`Ok`
    /// status), whether from this invocation or a previous one.
    pub quarantined: Vec<String>,
    /// One record per matrix cell, in matrix order.
    pub records: Vec<CellRecord>,
    /// Full sanitize reports of the cells *executed this invocation*
    /// with sanitizing enabled, sorted by label (cached cells only
    /// carry their counts, inside [`CellRecord::sanitize`]).
    pub sanitizes: Vec<(String, ccnuma_sim::sanitize::SanitizeReport)>,
    /// Full critical-path reports of the cells *executed this
    /// invocation* with critical-path profiling enabled, sorted by label
    /// (cached cells only carry their summary triple, inside
    /// [`CellRecord::critpath`]).
    pub critpaths: Vec<(String, ccnuma_sim::critpath::CritReport)>,
    /// Lines dropped while loading the store (torn or foreign).
    pub dropped_lines: usize,
    /// Epoch-sampled machine gauges of the cells *executed this
    /// invocation* with tracing enabled, sorted by label — the same
    /// series the per-cell trace files carry, handed back so a live
    /// observer can mirror post-mortem gauges without re-parsing files.
    pub gauges: Vec<(String, Vec<ccnuma_sim::trace::GaugeSample>)>,
}

/// Expands `matrix` into cells and runs every cell that the store does
/// not already answer for, fanned out over `cfg.jobs` workers. Each
/// finished cell is appended to the store *by the worker that ran it*,
/// before the sweep moves on — a crash loses at most the cells in
/// flight, never a completed one.
///
/// # Errors
///
/// Any I/O error opening the store or writing reports; simulation
/// failures are data ([`CellStatus`](store::CellStatus)), not errors.
pub fn sweep(matrix: &MatrixSpec, cfg: &SweepConfig) -> std::io::Result<SweepOutcome> {
    let cells = matrix.cells();
    let store = Store::open(&cfg.store_path, cfg.resume)?;

    // Partition into cached hits and pending work. Duplicate cells
    // (identical run keys, possible in hand-built specs) collapse onto
    // one pending run and share its record at stitch time.
    let keys: Vec<String> = cells.iter().map(|c| c.key().hash_hex()).collect();
    let mut pending: Vec<&CellSpec> = Vec::new();
    let mut pending_keys: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut cached: Vec<Option<CellRecord>> = vec![None; cells.len()];
    for (i, cell) in cells.iter().enumerate() {
        let hit = store
            .get(&keys[i])
            .filter(|rec| !(cfg.retry_quarantined && rec.status.quarantined()));
        match hit {
            Some(rec) => {
                events::emit(
                    &cfg.events,
                    events::ExecEvent::Finished {
                        label: rec.label.clone(),
                        status: rec.status,
                        cache_hit: true,
                        attempts: 0,
                        host_ms: 0,
                    },
                );
                cached[i] = Some(rec);
            }
            None => {
                if pending_keys.insert(&keys[i]) {
                    pending.push(cell);
                }
            }
        }
    }
    // Longest runs first: bigger simulated machines take longer, and
    // scheduling them early keeps the tail of the sweep short.
    pending.sort_by_key(|c| std::cmp::Reverse(c.nprocs));

    let total = pending.len();
    let mut executor = Executor::new(cfg.opts.clone());
    if let Some(sink) = &cfg.events {
        executor = executor.with_events(sink.clone());
    }
    let (ran, _) = pool::run(&pending, cfg.jobs, |spec| {
        let (rec, stats) = executor.run_cell_full(spec);
        // Persist before the worker takes its next cell: a crash loses
        // at most the cells in flight.
        let appended = store.append(&rec);
        let exported = stats.as_ref().map_or(Ok(()), |s| export_cell(cfg, spec, s));
        // Hand back only what the outcome keeps; the rest of the stats
        // (the trace's spans above all) is dropped here.
        let kept = stats.map(|s| (s.sanitize, s.critpath, s.trace.map(|t| t.gauges)));
        (rec, appended.and(exported), kept)
    });

    let mut by_key = std::collections::HashMap::new();
    let (mut sanitizes, mut critpaths, mut gauges) = (Vec::new(), Vec::new(), Vec::new());
    for (rec, written, kept) in ran {
        written?;
        if let Some((sanitize, critpath, cell_gauges)) = kept {
            let label = || rec.label.clone();
            sanitizes.extend(sanitize.map(|r| (label(), r)));
            critpaths.extend(critpath.map(|r| (label(), r)));
            gauges.extend(cell_gauges.filter(|g| !g.is_empty()).map(|g| (label(), g)));
        }
        by_key.insert(rec.key.clone(), rec);
    }
    // Stitch executed records back into matrix order (lookup, not
    // removal — duplicate cells share the one executed record).
    let mut records = Vec::with_capacity(cells.len());
    let mut quarantined = Vec::new();
    for i in 0..cells.len() {
        let rec = match cached[i].take() {
            Some(rec) => rec,
            None => by_key
                .get(keys[i].as_str())
                .expect("every pending cell produced a record")
                .clone(),
        };
        if rec.status.quarantined() {
            quarantined.push(rec.label.clone());
        }
        records.push(rec);
    }
    sanitizes.sort_by(|a, b| a.0.cmp(&b.0));
    critpaths.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(SweepOutcome {
        executed: total,
        cached: cells.len() - total,
        quarantined,
        records,
        sanitizes,
        critpaths,
        dropped_lines: store.dropped_lines,
        gauges,
    })
}

/// Writes the per-cell export files `cfg` asks for: attribution JSON,
/// the Chrome trace and the critical-path trace. Every write is
/// attempted; the first error is returned.
fn export_cell(cfg: &SweepConfig, spec: &CellSpec, stats: &RunStats) -> std::io::Result<()> {
    let attrib = cfg.attrib_dir.as_ref().map_or(Ok(()), |dir| {
        write_cell_file(dir, spec, ".json", |label| {
            scaling_study::report::attrib_json(label, stats)
        })
    });
    let Some(dir) = &cfg.trace_dir else {
        return attrib;
    };
    let trace = stats.trace.as_ref().map_or(Ok(()), |trace| {
        write_cell_file(dir, spec, ".trace.json", |label| {
            ccnuma_sim::trace::chrome_trace_file(&[(label.to_string(), trace)])
        })
    });
    let critpath = stats.critpath.as_ref().map_or(Ok(()), |rep| {
        write_cell_file(dir, spec, ".critpath.json", |label| {
            rep.to_chrome_json(label)
        })
    });
    attrib.and(trace).and(critpath)
}

/// File-name-safe form of a cell label (`fft/orig[2]/4p` →
/// `fft_orig_2__4p`).
fn safe_name(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Writes one per-cell export file, `<dir>/<safe label><suffix>`, whose
/// body `render` builds from the cell's label.
fn write_cell_file(
    dir: &Path,
    spec: &CellSpec,
    suffix: &str,
    render: impl FnOnce(&str) -> String,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let label = spec.label();
    std::fs::write(
        dir.join(format!("{}{suffix}", safe_name(&label))),
        render(&label),
    )
}
