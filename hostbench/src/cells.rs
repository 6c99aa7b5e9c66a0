//! Matrix cells, run the two ways the benchmark needs.
//!
//! Untraced passes call [`ccnuma_sweep::sweep`] as a user would. The
//! traced pass runs the same cells through the same public calls the
//! sweep makes (`MatrixSpec::parse`, `cells`, `key`, `pool::run`,
//! `Machine::new`, `Workload::build`, `Machine::run`, the job's verifier,
//! `execute_workload` for the sequential baseline, `Store::append`) with
//! a span around each, so their host time lands in named layers.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ccnuma_sim::machine::Machine;
use ccnuma_sim::mapping::ProcessMapping;
use ccnuma_sim::stats::RunStats;
use ccnuma_sim::time::Ns;
use ccnuma_sweep::matrix::{scale_name, CellSpec, MatrixSpec};
use ccnuma_sweep::store::{CellRecord, CellStatus, Store};
use ccnuma_sweep::SweepConfig;
use scaling_study::runner::execute_workload;

use crate::procfs::{Delta, Sample};
use crate::spans::Recorder;

/// Parses a matrix and expands it into cells.
pub fn expand(dsl: &str) -> Vec<CellSpec> {
    MatrixSpec::parse(dsl)
        .unwrap_or_else(|e| panic!("bad matrix {dsl:?}: {e}"))
        .cells()
}

/// Host seconds of `Machine::new` plus `Workload::build` summed over
/// `cells` — the set-up a simulation pays before its first event.
pub fn build_cost_s(cells: &[CellSpec]) -> f64 {
    let mut total = 0.0;
    for c in cells {
        let w = c.workload().expect("matrix cells have workloads");
        let cfg = c.machine();
        let t = Instant::now();
        let mut m = Machine::new(cfg).expect("matrix machines are valid");
        let job = w.build(&mut m);
        total += t.elapsed().as_secs_f64();
        drop((job, m));
    }
    total
}

/// File-name-safe form of a cell label, as the sweep names its exports.
pub fn safe_name(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// One untraced pass through [`ccnuma_sweep::sweep`].
#[derive(Debug)]
pub struct SweepPass {
    /// Records in matrix order.
    pub records: Vec<CellRecord>,
    /// Counters over the whole call.
    pub delta: Delta,
}

/// Runs `dsl` through the sweep into a fresh store at `store`, with
/// optional attribution and trace export directories.
pub fn sweep_pass(dsl: &str, jobs: usize, store: &Path, export: Option<&Path>) -> SweepPass {
    let matrix = MatrixSpec::parse(dsl).unwrap_or_else(|e| panic!("bad matrix {dsl:?}: {e}"));
    let cfg = SweepConfig {
        jobs,
        store_path: store.to_path_buf(),
        attrib_dir: export.map(Path::to_path_buf),
        trace_dir: export.map(Path::to_path_buf),
        ..SweepConfig::default()
    };
    let before = Sample::now();
    let out = ccnuma_sweep::sweep(&matrix, &cfg).expect("sweep store I/O");
    SweepPass {
        records: out.records,
        delta: before.delta(&Sample::now()),
    }
}

/// What the traced pipeline measured for one cell.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// The cell's record, exactly as the sweep would store it.
    pub rec: CellRecord,
    /// Serviced accesses (reads + writes) over all processors.
    pub accesses: u64,
    /// Host seconds inside `Machine::run`.
    pub run_s: f64,
}

impl CellOut {
    /// A cell the store already answered.
    fn cached(rec: CellRecord) -> CellOut {
        CellOut {
            rec,
            accesses: 0,
            run_s: 0.0,
        }
    }
}

/// Cached sequential baselines, one per app/version/size and machine,
/// shared by every processor count (as the sweep's executor does).
type Baselines = Mutex<HashMap<String, Arc<OnceLock<Result<Ns, String>>>>>;

/// The traced cell pipeline.
pub struct Traced<'a> {
    /// Where spans go.
    pub rec: &'a Recorder,
    /// Turn on the simulator's own host profiler (`cfg.profile`).
    pub profile: bool,
    /// Directory to export attribution, trace and critical-path files.
    pub export: Option<PathBuf>,
    baselines: Baselines,
}

/// Result of one traced pass.
#[derive(Debug)]
pub struct TracedPass {
    /// One entry per cell, in matrix order.
    pub cells: Vec<CellOut>,
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// Counters over the pass.
    pub delta: Delta,
    /// Host ms of parse + `cells()` + `key()` for the matrix.
    pub expand_ms: f64,
    /// Per-cell host latency, ms.
    pub cell_ms: Vec<f64>,
    /// Worker lanes.
    pub jobs: usize,
    /// Cells answered from the store instead of simulated.
    pub cached: usize,
}

impl<'a> Traced<'a> {
    /// A pipeline recording into `rec`.
    pub fn new(rec: &'a Recorder, profile: bool, export: Option<PathBuf>) -> Self {
        Traced {
            rec,
            profile,
            export,
            baselines: Mutex::default(),
        }
    }

    /// Runs `dsl` into a fresh store at `store` on `jobs` workers,
    /// longest cells first as the sweep orders them.
    pub fn pass(&self, workload: &str, dsl: &str, jobs: usize, store: &Path) -> TracedPass {
        let before = Sample::now();
        let t0 = Instant::now();
        let (cells, expand_ms, cell_ms, cached) =
            self.rec
                .span_lanes("unattributed:pass", None, workload, jobs as u32, |root| {
                    let t = Instant::now();
                    let (cells, keys) =
                        self.rec.span("sweep.matrix:expand", Some(root), "", |_| {
                            let cells = expand(dsl);
                            let keys: Vec<String> =
                                cells.iter().map(|c| c.key().hash_hex()).collect();
                            (cells, keys)
                        });
                    let expand_ms = t.elapsed().as_secs_f64() * 1e3;
                    let store = self.rec.span("sweep.store:open", Some(root), "", |_| {
                        Store::open(store, false).expect("open store")
                    });
                    // Store hits are answered without a run, as in the sweep.
                    let hits: Vec<Option<CellRecord>> =
                        self.rec.span("sweep.store:lookup", Some(root), "", |_| {
                            keys.iter().map(|k| store.get(k)).collect()
                        });
                    let mut order: Vec<usize> =
                        (0..cells.len()).filter(|&i| hits[i].is_none()).collect();
                    order.sort_by_key(|&i| std::cmp::Reverse(cells[i].nprocs));
                    let (mut outs, _) = ccnuma_sweep::pool::run(&order, jobs, |&i| {
                        let t = Instant::now();
                        let out = self.cell(&cells[i], &keys[i], &store, root);
                        (i, out, t.elapsed().as_secs_f64() * 1e3)
                    });
                    let cached = hits.iter().filter(|h| h.is_some()).count();
                    for (i, hit) in hits.into_iter().enumerate() {
                        if let Some(rec) = hit {
                            outs.push((i, CellOut::cached(rec), 0.0));
                        }
                    }
                    outs.sort_by_key(|(i, ..)| *i);
                    let cell_ms = outs.iter().map(|o| o.2).collect();
                    (
                        outs.into_iter().map(|o| o.1).collect::<Vec<_>>(),
                        expand_ms,
                        cell_ms,
                        cached,
                    )
                });
        TracedPass {
            cells,
            wall_s: t0.elapsed().as_secs_f64(),
            delta: before.delta(&Sample::now()),
            expand_ms,
            cell_ms,
            jobs,
            cached,
        }
    }

    /// One cell, every layer in its own span; panics and verification
    /// failures become quarantined records, as in the sweep.
    fn cell(&self, spec: &CellSpec, key: &str, store: &Store, parent: u64) -> CellOut {
        let label = spec.label();
        let rec = self.rec;
        rec.span("sweep.run:cell", Some(parent), &label, |id| {
            let t0 = Instant::now();
            let mut out = CellOut {
                rec: CellRecord {
                    key: key.to_string(),
                    label: label.clone(),
                    app: spec.app.clone(),
                    version: spec.version.clone(),
                    problem: "?".into(),
                    nprocs: spec.nprocs,
                    scale: scale_name(spec.scale).to_string(),
                    status: CellStatus::Failed,
                    attempts: 1,
                    host_ms: 0,
                    wall_ns: 0,
                    seq_ns: 0,
                    busy_ns: 0,
                    mem_ns: 0,
                    sync_ns: 0,
                    misses: 0,
                    events: 0,
                    causes: [0; 5],
                    sanitize: None,
                    critpath: None,
                    error: None,
                },
                accesses: 0,
                run_s: 0.0,
            };
            let attempt = catch_unwind(AssertUnwindSafe(|| self.simulate(spec, &label, id, &mut out)));
            match attempt {
                Ok(Ok(stats)) => match self.baseline_ns(spec, &label, id) {
                    Ok(seq) => {
                        out.rec.status = CellStatus::Ok;
                        out.rec.set_stats(stats.wall_ns, seq, &stats);
                        self.export_cell(spec, &label, &stats, id);
                    }
                    Err(e) => out.rec.error = Some(format!("sequential baseline failed: {e}")),
                },
                Ok(Err(e)) => out.rec.error = Some(e),
                Err(_) => {
                    out.rec.status = CellStatus::Panicked;
                    out.rec.error = Some("panicked".into());
                }
            }
            out.rec.host_ms = t0.elapsed().as_millis() as u64;
            rec.span("sweep.store:append", Some(id), &label, |_| {
                if let Err(e) = store.append(&out.rec) {
                    out.rec.status = CellStatus::Failed;
                    out.rec.error = Some(format!("store append: {e}"));
                }
            });
            out
        })
    }

    fn simulate(
        &self,
        spec: &CellSpec,
        label: &str,
        id: u64,
        out: &mut CellOut,
    ) -> Result<RunStats, String> {
        let rec = self.rec;
        let w = spec
            .workload()
            .ok_or_else(|| format!("no workload for {label}"))?;
        out.rec.problem = w.problem();
        let mut cfg = spec.machine();
        cfg.profile = self.profile;
        let mut m = rec
            .span("sim.machine:new", Some(id), label, |_| Machine::new(cfg))
            .map_err(|e| e.to_string())?;
        let job = rec.span("apps:build", Some(id), label, |_| w.build(&mut m));
        let body = job.body;
        let t = Instant::now();
        let stats = rec
            .span("sim.engine:run", Some(id), label, |_| m.run(move |ctx| body(ctx)))
            .map_err(|e| e.to_string())?;
        out.run_s = t.elapsed().as_secs_f64();
        out.accesses = stats.total(|p| p.accesses());
        rec.span("apps:verify", Some(id), label, |_| (job.verify)())
            .map_err(|e| format!("verification failed: {e}"))?;
        Ok(stats)
    }

    /// The sequential baseline, computed once per workload and machine
    /// family inside a `runner:seq_baseline` span.
    fn baseline_ns(&self, spec: &CellSpec, label: &str, parent: u64) -> Result<Ns, String> {
        let mut seq_cfg = spec.machine();
        seq_cfg.nprocs = 1;
        seq_cfg.mapping = ProcessMapping::Linear;
        seq_cfg.schedule = None;
        let mut seq_spec = spec.clone();
        seq_spec.nprocs = 1;
        seq_spec.sched_seed = None;
        let key = format!(
            "{}/{}/{:?}@{}",
            spec.app,
            spec.version,
            spec.size,
            seq_cfg.stable_fingerprint()
        );
        let slot = Arc::clone(self.baselines.lock().unwrap().entry(key).or_default());
        slot.get_or_init(|| {
            self.rec.span("runner:seq_baseline", Some(parent), label, |_| {
                let w = seq_spec
                    .workload()
                    .ok_or_else(|| format!("no workload for {label}"))?;
                catch_unwind(AssertUnwindSafe(|| {
                    execute_workload(w.as_ref(), seq_cfg.clone()).map_err(|e| e.to_string())
                }))
                .unwrap_or_else(|_| Err("baseline panicked".into()))
                .map(|(ns, _)| ns)
            })
        })
        .clone()
    }

    /// Writes the cell's attribution, trace and critical-path files, as
    /// the sweep's export directories hold them.
    fn export_cell(&self, spec: &CellSpec, label: &str, stats: &RunStats, parent: u64) {
        let Some(dir) = &self.export else {
            return;
        };
        self.rec.span("observers:export", Some(parent), label, |_| {
            let stem = safe_name(label);
            let mut files: Vec<(String, String)> = Vec::new();
            if spec.attrib {
                files.push((
                    format!("{stem}.json"),
                    scaling_study::report::attrib_json(label, stats),
                ));
            }
            if let Some(trace) = &stats.trace {
                files.push((
                    format!("{stem}.trace.json"),
                    ccnuma_sim::trace::chrome_trace_file(&[(label.to_string(), trace)]),
                ));
            }
            if let Some(rep) = &stats.critpath {
                files.push((format!("{stem}.critpath.json"), rep.to_chrome_json(label)));
            }
            std::fs::create_dir_all(dir).expect("create export dir");
            for (name, body) in files {
                std::fs::write(dir.join(name), body).expect("write export file");
            }
        });
    }
}
