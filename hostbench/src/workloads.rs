//! The simulation workloads (`sweep_full`, `repro_quick`,
//! `observers_on`), untraced and traced, and the report they fill.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ccnuma_sim::live::LIVE;
use ccnuma_sim::prof::Region;
use ccnuma_sweep::store::CellRecord;
use scaling_study::experiments::{Scale, APP_IDS};
use study_bench::figures;

use crate::cells::{self, build_cost_s, expand, safe_name, sweep_pass, Traced};
use crate::oracle::{fnv1a64, Expected};
use crate::procfs::{self, Delta, Sample};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, Tally};

/// Times the set-up is repeated in a run; the median is reported.
pub const SETUP_REPS: usize = 5;

/// The four observers `observers_on` turns on.
pub const OBSERVERS: [&str; 4] = ["attrib", "trace", "sanitize", "critpath"];

/// Apps `observers_on` runs.
const OBSERVED_APPS: [&str; 4] = ["fft", "ocean", "radix", "water-nsq"];

/// Where and how a run works.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: permutes cell order and the request mix.
    pub seed: u64,
    /// Measurement budget: passes repeat until it is spent.
    pub seconds: Duration,
    /// Pool jobs and client connections (at most 2).
    pub jobs: usize,
    /// Scratch directory owned by this run.
    pub tmp: PathBuf,
}

/// SplitMix64: the benchmark's seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A shuffled copy of `items`.
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Correctness accounting.
    pub tally: Tally,
}

impl Report {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds the self time of each layer in `spans` (and any of
    /// `layers` it lacks, as 0) under `self_s.<workload>.<layer>`.
    pub fn put_ledger(&mut self, workload: &str, spans: &[Span], layers: &[&str]) {
        let mut l = spans::ledger(spans);
        for layer in layers {
            l.entry(layer.to_string()).or_default();
        }
        for (layer, s) in l {
            self.put(format!("self_s.{workload}.{layer}"), s, "s");
        }
    }
}

/// Runs `pass` until the budget is spent (at least once); each pass
/// returns the counters it spanned.
pub fn repeat(ctx: &Ctx, mut pass: impl FnMut(usize) -> Delta) -> Vec<Delta> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || t0.elapsed() < ctx.seconds {
        out.push(pass(out.len()));
    }
    out
}

/// The end-to-end metrics every workload reports.
pub fn put_end_to_end(r: &mut Report, setup_s: f64, passes: &[Delta]) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpu: f64 = passes.iter().map(Delta::cpu_s).sum();
    r.put("wall_s", median(&walls), "s");
    r.put("cpu_s", cpu / passes.len() as f64, "s");
    r.put("setup_s", setup_s, "s");
    r.put("peak_rss_mb", procfs::peak_rss_mb(), "MB");
}

/// Median over [`SETUP_REPS`] of `f`'s result.
pub fn setup_median(f: impl Fn() -> f64) -> f64 {
    median(&(0..SETUP_REPS).map(|_| f()).collect::<Vec<_>>())
}

fn expected_full() -> Expected {
    Expected::records(include_str!("../expected/sweep_full.jsonl"))
}

fn expected_observers() -> Expected {
    Expected::records(include_str!("../expected/observers_on.jsonl"))
}

fn expected_repro() -> Expected {
    Expected::digests(include_str!("../expected/repro_quick.txt"))
}

/// The paper-scale matrix with the apps in seeded order.
pub fn full_dsl(rng: &mut Rng) -> String {
    format!(
        "scale=full apps={} versions=both",
        rng.shuffled(APP_IDS).join(",")
    )
}

/// The observed slice with the given observer settings.
fn observed_dsl(rng: &mut Rng, observers: &str) -> String {
    format!(
        "scale=full apps={} versions=orig procs=32,64 {observers}",
        rng.shuffled(&OBSERVED_APPS).join(",")
    )
}

fn all_observers() -> String {
    OBSERVERS.map(|o| format!("{o}=on")).join(" ")
}

fn check_records(tally: &mut Tally, exp: &Expected, records: &[CellRecord]) {
    for r in records {
        tally.record(exp.check_record(r));
    }
}

/// Checks that each cell left its three export files in `dir`.
fn check_exports(dir: &Path, records: &[CellRecord]) -> Vec<Result<(), String>> {
    records
        .iter()
        .map(|r| {
            let stem = safe_name(&r.label);
            for suffix in [".json", ".trace.json", ".critpath.json"] {
                let f = dir.join(format!("{stem}{suffix}"));
                if !f.is_file() {
                    return Err(format!("{}: export {} missing", r.label, f.display()));
                }
            }
            Ok(())
        })
        .collect()
}

/// `sweep_full`: the paper-scale matrix through `ccnuma_sweep::sweep`.
pub fn sweep_full(ctx: &Ctx) -> Report {
    let mut rng = Rng::new(ctx.seed);
    let exp = expected_full();
    let mut r = Report::default();
    let cells = expand(&full_dsl(&mut rng));
    let setup_s = setup_median(|| build_cost_s(&cells));
    let passes = repeat(ctx, |i| {
        let store = ctx.tmp.join(format!("sweep_full-{i}.jsonl"));
        let p = sweep_pass(&full_dsl(&mut rng), ctx.jobs, &store, None);
        check_records(&mut r.tally, &exp, &p.records);
        let _ = std::fs::remove_file(&store);
        p.delta
    });
    put_end_to_end(&mut r, setup_s, &passes);
    r
}

/// `observers_on`: four apps at 32p and 64p with every observer on,
/// exporting into the run's scratch directory.
pub fn observers_on(ctx: &Ctx) -> Report {
    let mut rng = Rng::new(ctx.seed);
    let exp = expected_observers();
    let mut r = Report::default();
    let cells = expand(&observed_dsl(&mut rng, &all_observers()));
    let setup_s = setup_median(|| build_cost_s(&cells));
    let passes = repeat(ctx, |i| {
        observed_pass(ctx, &mut rng, &exp, &mut r.tally, i).delta
    });
    put_end_to_end(&mut r, setup_s, &passes);
    r
}

fn observed_pass(
    ctx: &Ctx,
    rng: &mut Rng,
    exp: &Expected,
    tally: &mut Tally,
    i: usize,
) -> cells::SweepPass {
    let store = ctx.tmp.join(format!("observers-{i}.jsonl"));
    let export = ctx.tmp.join(format!("export-{i}"));
    let p = sweep_pass(
        &observed_dsl(rng, &all_observers()),
        ctx.jobs,
        &store,
        Some(&export),
    );
    let exports = check_exports(&export, &p.records);
    for (rec, ex) in p.records.iter().zip(exports) {
        tally.record(exp.check_record(rec).and(ex));
    }
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_dir_all(&export);
    p
}

/// One experiment as `repro` runs it: a fresh runner, the tables, and
/// their printed text.
fn run_experiment(name: &str) -> Result<String, String> {
    let mut runner = figures::runner_for(Scale::Quick);
    match figures::run_experiment(name, &mut runner, Scale::Quick) {
        None => Err(format!("{name}: unknown experiment")),
        Some(Err(e)) => Err(format!("{name}: {e}")),
        Some(Ok(tables)) => Ok(tables.iter().map(|t| format!("{t}\n")).collect()),
    }
}

/// `repro_quick`: every experiment at quick scale, serially, as
/// `repro all --quick` runs them.
pub fn repro_quick(ctx: &Ctx) -> Report {
    let mut rng = Rng::new(ctx.seed);
    let exp = expected_repro();
    let mut r = Report::default();
    let cells = expand("scale=quick apps=all versions=both");
    let setup_s = setup_median(|| build_cost_s(&cells));
    let passes = repeat(ctx, |_| repro_pass(&mut rng, &exp, &mut r.tally));
    put_end_to_end(&mut r, setup_s, &passes);
    r
}

fn repro_pass(rng: &mut Rng, exp: &Expected, tally: &mut Tally) -> Delta {
    let before = Sample::now();
    for name in rng.shuffled(figures::EXPERIMENT_NAMES) {
        let out = run_experiment(name);
        tally.record(out.and_then(|text| exp.check_digest(name, fnv1a64(text.as_bytes()))));
    }
    before.delta(&Sample::now())
}

fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    (traced_s - untraced_s) / untraced_s * 100.0
}

/// The traced `sweep_full` pass: every per-layer metric of the
/// simulator and the sweep. Returns the warm store it filled and the
/// pass's wall time.
pub fn traced_sweep_full(ctx: &Ctx, rng: &mut Rng, r: &mut Report) -> (PathBuf, f64, Vec<Span>) {
    let rec = Recorder::default();
    let traced = Traced::new(&rec, true, None);
    let store = ctx.tmp.join("traced-full.jsonl");
    ccnuma_sim::prof::reset();
    let p = traced.pass("sweep_full", &full_dsl(rng), ctx.jobs, &store);
    let hp = ccnuma_sim::prof::take();
    let recs: Vec<CellRecord> = p.cells.iter().map(|c| c.rec.clone()).collect();
    check_records(&mut r.tally, &expected_full(), &recs);
    let spans = rec.spans();

    let sum = |f: &dyn Fn(&cells::CellOut) -> f64| p.cells.iter().map(f).sum::<f64>();
    let events = sum(&|c| c.rec.events as f64);
    let accesses = sum(&|c| c.accesses as f64);
    let run_s = sum(&|c| c.run_s);
    let big: Vec<&cells::CellOut> = p.cells.iter().filter(|c| c.rec.nprocs == 128).collect();
    let big_run: f64 = big.iter().map(|c| c.run_s).sum();
    let big_events: f64 = big.iter().map(|c| c.rec.events as f64).sum();
    let region_pct = |reg: Region| {
        hp.regions[reg.index()].self_ns as f64 / hp.total_self_ns().max(1) as f64 * 100.0
    };
    let cpu = p.delta.cpu_s();
    let appends = spans::durations_ms(&spans, "sweep.store:append");

    r.put("apps.build_s", spans::total_s(&spans, "apps:build"), "s");
    r.put("apps.verify_s", spans::total_s(&spans, "apps:verify"), "s");
    r.put("sim.machine_new_s", spans::total_s(&spans, "sim.machine:new"), "s");
    r.put("sim.run_s", run_s, "s");
    r.put("sim.events", events, "count");
    r.put("sim.accesses", accesses, "count");
    r.put("sim.accesses_per_event", accesses / events, "ratio");
    r.put("sim.ns_per_event", run_s * 1e9 / events, "ns");
    r.put("sim.ns_per_event.128p", big_run * 1e9 / big_events, "ns");
    r.put("sim.ns_per_access", run_s * 1e9 / accesses, "ns");
    r.put("sim.dispatch_pct", region_pct(Region::EngineDispatch), "%");
    r.put("sim.memsys_pct", region_pct(Region::MemsysService), "%");
    r.put("sim.directory_pct", region_pct(Region::Directory), "%");
    r.put("host.sys_frac", p.delta.sys_s / cpu, "ratio");
    r.put("host.vcsw_per_event", p.delta.vcsw as f64 / events, "ratio");
    r.put("host.nvcsw_per_event", p.delta.nvcsw as f64 / events, "ratio");
    r.put("host.cpu_util", cpu / (p.wall_s * p.jobs as f64), "ratio");
    r.put(
        "runner.seq_baseline_s",
        spans::total_s(&spans, "runner:seq_baseline"),
        "s",
    );
    r.put("sweep.expand_ms", p.expand_ms, "ms");
    r.put(
        "sweep.pool_util",
        p.cell_ms.iter().sum::<f64>() / 1e3 / (p.wall_s * p.jobs as f64),
        "ratio",
    );
    r.put(
        "sweep.store_append_us",
        appends.iter().sum::<f64>() * 1e3 / appends.len().max(1) as f64,
        "us",
    );
    r.put(
        "sweep.cache_hit_ratio.sweep_full",
        p.cached as f64 / p.cells.len() as f64,
        "ratio",
    );
    (store, p.wall_s, spans)
}

/// Layers the `sweep_full` ledger always reports.
pub const SIM_LAYERS: [&str; 8] = [
    spans::UNATTRIBUTED,
    "sweep.matrix",
    "sweep.store",
    "sweep.run",
    "sim.machine",
    "apps",
    "sim.engine",
    "runner",
];

/// The traced `repro_quick` pass. Returns its wall time.
pub fn traced_repro(rng: &mut Rng, r: &mut Report) -> (f64, Vec<Span>) {
    let exp = expected_repro();
    let rec = Recorder::default();
    let live0 = LIVE.snapshot();
    let before = Sample::now();
    rec.span("unattributed:pass", None, "repro_quick", |root| {
        for name in rng.shuffled(figures::EXPERIMENT_NAMES) {
            let tables = rec.span(&format!("figures:{name}"), Some(root), name, |_| {
                let mut runner = figures::runner_for(Scale::Quick);
                figures::run_experiment(name, &mut runner, Scale::Quick)
            });
            let text = rec.span("report:render", Some(root), name, |_| match tables {
                Some(Ok(ts)) => Ok(ts.iter().map(|t| format!("{t}\n")).collect::<String>()),
                Some(Err(e)) => Err(format!("{name}: {e}")),
                None => Err(format!("{name}: unknown experiment")),
            });
            rec.span("bench:check", Some(root), name, |_| {
                r.tally
                    .record(text.and_then(|t| exp.check_digest(name, fnv1a64(t.as_bytes()))));
            });
        }
    });
    let d = before.delta(&Sample::now());
    let live = LIVE.snapshot();
    let spans = rec.spans();
    for name in figures::EXPERIMENT_NAMES {
        r.put(
            format!("figures.{name}_s"),
            spans::total_s(&spans, &format!("figures:{name}")),
            "s",
        );
    }
    let events = (live.events - live0.events) as f64;
    r.put("sim.events.repro_quick", events, "count");
    r.put(
        "sim.runs.repro_quick",
        (live.runs_finished - live0.runs_finished) as f64,
        "count",
    );
    r.put("host.sys_frac.repro_quick", d.sys_s / d.cpu_s(), "ratio");
    r.put(
        "host.vcsw_per_event.repro_quick",
        d.vcsw as f64 / events,
        "ratio",
    );
    (d.wall_s, spans)
}

/// Layers the `repro_quick` ledger always reports.
pub const REPRO_LAYERS: [&str; 4] = [spans::UNATTRIBUTED, "figures", "report", "bench"];

/// The traced `observers_on` passes: one per observer against all
/// off, then all on with export. Returns the all-on pass's wall time.
pub fn traced_observers(ctx: &Ctx, rng: &mut Rng, r: &mut Report) -> (f64, Vec<Span>) {
    let exp = expected_observers();
    let mut wall = |observers: &str, i: usize| {
        let rec = Recorder::default();
        let store = ctx.tmp.join(format!("traced-obs-{i}.jsonl"));
        let p = Traced::new(&rec, false, None).pass(
            "observers_on",
            &observed_dsl(rng, observers),
            ctx.jobs,
            &store,
        );
        // Observers are passive: every simulated field but the ones
        // they add must match the all-on expectation.
        for c in &p.cells {
            r.tally.record(exp.check_passive(&c.rec));
        }
        let _ = std::fs::remove_file(&store);
        p.wall_s
    };
    let off = wall("", 0);
    let mut pcts = Vec::new();
    for (i, o) in OBSERVERS.iter().enumerate() {
        pcts.push((o, overhead_pct(wall(&format!("{o}=on"), i + 1), off)));
    }
    for (o, pct) in pcts {
        r.put(format!("observe.{o}_pct"), pct, "%");
    }

    let rec = Recorder::default();
    let export = ctx.tmp.join("traced-export");
    let store = ctx.tmp.join("traced-obs-all.jsonl");
    let traced = Traced::new(&rec, false, Some(export.clone()));
    let p = traced.pass(
        "observers_on",
        &observed_dsl(rng, &all_observers()),
        ctx.jobs,
        &store,
    );
    let recs: Vec<CellRecord> = p.cells.iter().map(|c| c.rec.clone()).collect();
    let exports = check_exports(&export, &recs);
    for (rec, ex) in recs.iter().zip(exports) {
        r.tally.record(exp.check_record(rec).and(ex));
    }
    let spans = rec.spans();
    let trace_bytes: u64 = std::fs::read_dir(&export)
        .map(|es| {
            es.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".trace.json"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    r.put("observe.all_pct", overhead_pct(p.wall_s, off), "%");
    r.put(
        "observe.export_s",
        spans::total_s(&spans, "observers:export"),
        "s",
    );
    r.put("observe.trace_bytes", trace_bytes as f64, "bytes");
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_dir_all(&export);
    (p.wall_s, spans)
}

/// Layers the `observers_on` ledger always reports.
pub const OBSERVER_LAYERS: [&str; 9] = [
    spans::UNATTRIBUTED,
    "sweep.matrix",
    "sweep.store",
    "sweep.run",
    "sim.machine",
    "apps",
    "sim.engine",
    "runner",
    "observers",
];

/// One untraced pass of `workload` (for the trace-overhead figure),
/// its correctness folded into `r`.
pub fn untraced_once(ctx: &Ctx, workload: &str, rng: &mut Rng, r: &mut Report) -> f64 {
    match workload {
        "sweep_full" => {
            let store = ctx.tmp.join("untraced-full.jsonl");
            let p = sweep_pass(&full_dsl(rng), ctx.jobs, &store, None);
            check_records(&mut r.tally, &expected_full(), &p.records);
            let _ = std::fs::remove_file(&store);
            p.delta.wall_s
        }
        "repro_quick" => repro_pass(rng, &expected_repro(), &mut r.tally).wall_s,
        "observers_on" => {
            let exp = expected_observers();
            observed_pass(ctx, rng, &exp, &mut r.tally, 999).delta.wall_s
        }
        other => unreachable!("no untraced simulation pass for {other}"),
    }
}

/// Writes the expected files from one pass of each simulation workload.
pub fn bless(ctx: &Ctx) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    let mut rng = Rng::new(ctx.seed);
    let full = sweep_pass(&full_dsl(&mut rng), ctx.jobs, &ctx.tmp.join("bless-full.jsonl"), None);
    std::fs::write(
        dir.join("sweep_full.jsonl"),
        crate::oracle::render_records(&full.records),
    )?;
    let obs = sweep_pass(
        &observed_dsl(&mut rng, &all_observers()),
        ctx.jobs,
        &ctx.tmp.join("bless-obs.jsonl"),
        None,
    );
    std::fs::write(
        dir.join("observers_on.jsonl"),
        crate::oracle::render_records(&obs.records),
    )?;
    let mut digests = Vec::new();
    for name in figures::EXPERIMENT_NAMES {
        let text = run_experiment(name).map_err(std::io::Error::other)?;
        digests.push((name.to_string(), fnv1a64(text.as_bytes())));
    }
    std::fs::write(
        dir.join("repro_quick.txt"),
        crate::oracle::render_digests(&digests),
    )?;
    eprintln!(
        "[hostbench] blessed {} + {} records and {} digests into {}",
        full.records.len(),
        obs.records.len(),
        digests.len(),
        dir.display()
    );
    Ok(())
}
