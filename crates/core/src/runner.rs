//! Running workloads on simulated machines with cached sequential
//! baselines — the measurement harness of the study.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::error::{panic_message, SimError};
use ccnuma_sim::machine::Machine;
use ccnuma_sim::mapping::ProcessMapping;
use ccnuma_sim::schedule::ScheduleConfig;
use ccnuma_sim::stats::RunStats;
use ccnuma_sim::time::Ns;
use ccnuma_sim::trace::TraceConfig;
use splash_apps::common::Workload;

use crate::metrics;

/// An error while running a study measurement.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum StudyError {
    /// The simulation failed (configuration, deadlock, panic).
    Sim(SimError),
    /// The workload ran but produced a wrong result.
    Verify(String),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::Sim(e) => write!(f, "simulation failed: {e}"),
            StudyError::Verify(msg) => write!(f, "result verification failed: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Sim(e) => Some(e),
            StudyError::Verify(_) => None,
        }
    }
}

impl From<SimError> for StudyError {
    fn from(e: SimError) -> Self {
        StudyError::Sim(e)
    }
}

/// One verified measurement.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name (e.g. `"fft"`, `"barnes/merge"`).
    pub app: String,
    /// Problem description (e.g. `"2^14 points"`).
    pub problem: String,
    /// Processors used.
    pub nprocs: usize,
    /// Parallel wall-clock (virtual ns).
    pub wall_ns: Ns,
    /// Sequential baseline wall-clock (virtual ns).
    pub seq_ns: Ns,
    /// Full per-processor statistics of the parallel run.
    pub stats: RunStats,
}

impl RunRecord {
    /// Speedup over the sequential baseline.
    pub fn speedup(&self) -> f64 {
        metrics::speedup(self.seq_ns, self.wall_ns)
    }

    /// Parallel efficiency (speedup / processors).
    pub fn efficiency(&self) -> f64 {
        metrics::efficiency(self.seq_ns, self.wall_ns, self.nprocs)
    }

    /// The run's `"app/problem/NNp"` label, under which observer output
    /// (traces, attribution, sanitizer and critical-path reports) is
    /// filed.
    pub fn label(&self) -> String {
        format!("{}/{}/{}p", self.app, self.problem, self.nprocs)
    }
}

/// The observers a [`Runner`] switches on for every parallel run, and a
/// sweep cell (`ccnuma_sweep::matrix::CellSpec::machine`) for its run.
/// Switches apply on-only: an observer the run's own
/// [`MachineConfig`] already enables stays on. Every observer is
/// passive, so switching one on never changes simulated results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observe {
    /// Record a time-resolved event trace ([`MachineConfig::trace`]).
    pub trace: bool,
    /// Classify misses for stall attribution
    /// ([`MachineConfig::classify_misses`]).
    pub attrib: bool,
    /// Race-check the event stream ([`MachineConfig::sanitize`]).
    pub sanitize: bool,
    /// Profile the critical path ([`MachineConfig::critpath`]).
    pub critpath: bool,
}

impl Observe {
    /// Whether any observer is switched on.
    pub fn any(self) -> bool {
        self.trace || self.attrib || self.sanitize || self.critpath
    }

    /// Switches the selected observers on in `cfg`.
    pub fn apply(self, cfg: &mut MachineConfig) {
        if self.trace {
            cfg.trace = TraceConfig::on();
        }
        if self.attrib {
            cfg.classify_misses = true;
        }
        if self.sanitize {
            cfg.sanitize.enabled = true;
        }
        if self.critpath {
            cfg.critpath = true;
        }
    }
}

/// The machine a run's sequential baseline executes on: `cfg` with one
/// processor, the linear mapping, no schedule perturbation (every seed
/// of a cell shares the one unperturbed denominator) and every observer
/// off. This is the only definition of the baseline machine; speedup and
/// efficiency everywhere divide by a run on it.
pub fn seq_config(cfg: &MachineConfig) -> MachineConfig {
    let mut seq = cfg.clone();
    seq.nprocs = 1;
    seq.mapping = ProcessMapping::Linear;
    seq.schedule = None;
    seq.classify_misses = false;
    seq.trace = TraceConfig::default();
    seq.sanitize.enabled = false;
    seq.critpath = false;
    seq.profile = false;
    seq
}

/// One baseline computation, shared by every run that needs it.
type BaselineSlot = Arc<OnceLock<Result<Ns, StudyError>>>;

/// The sequential-baseline cache: one entry per workload name, problem
/// and [`seq_config`] fingerprint
/// ([`MachineConfig::stable_fingerprint`]), so any two runs whose
/// baselines would simulate the same thing share one. The key assumes a
/// workload's name and problem identify its program, as they do across
/// the experiment catalog's variants. It is safe to use from many
/// threads: concurrent requesters of one baseline block on the same
/// [`OnceLock`] instead of duplicating the run, and a panic inside the
/// run is caught and cached as a [`SimError::AppPanic`].
#[derive(Debug, Default)]
pub struct Baselines {
    slots: Mutex<HashMap<(String, String, String), BaselineSlot>>,
}

impl Baselines {
    /// The sequential baseline of `workload` for a run on `cfg`,
    /// simulated on [`seq_config`]`(cfg)` the first time it is asked
    /// for.
    ///
    /// # Errors
    ///
    /// As [`execute_workload`]; a failed baseline stays failed.
    pub fn get(&self, workload: &dyn Workload, cfg: &MachineConfig) -> Result<Ns, StudyError> {
        let seq = seq_config(cfg);
        let key = (
            workload.name(),
            workload.problem(),
            seq.stable_fingerprint(),
        );
        let slot = {
            let mut slots = self.slots.lock().expect("baseline cache lock poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        slot.get_or_init(|| {
            catch_unwind(AssertUnwindSafe(|| execute_workload(workload, seq)))
                .unwrap_or_else(|p| Err(SimError::AppPanic(panic_message(p)).into()))
                .map(|(ns, _)| ns)
        })
        .clone()
    }

    /// The number of distinct baselines requested so far.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("baseline cache lock poisoned")
            .len()
    }

    /// Whether no baseline has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The measurement harness: builds machines, runs workloads, verifies
/// results, and caches sequential baselines ([`Baselines`]).
#[derive(Debug)]
pub struct Runner {
    /// Cache size of the scaled machine (see
    /// [`MachineConfig::origin2000_scaled`]).
    cache_bytes: usize,
    baselines: Baselines,
    /// Observers switched on for every parallel run; sequential
    /// baselines never observe. While any is on, each parallel run's
    /// statistics are kept for [`Runner::drain_observed`].
    pub observe: Observe,
    /// When set, every parallel run executes under
    /// [`ScheduleConfig::random`] with this seed — a different but
    /// bit-reproducible interleaving. Sequential baselines are never
    /// perturbed: speedups stay measured against the one unperturbed
    /// denominator.
    pub schedule_seed: Option<u64>,
    observed: Vec<(String, RunStats)>,
}

impl Runner {
    /// A runner whose machines use `cache_bytes` of L2 per processor.
    pub fn new(cache_bytes: usize) -> Self {
        Runner {
            cache_bytes,
            baselines: Baselines::default(),
            observe: Observe::default(),
            schedule_seed: None,
            observed: Vec::new(),
        }
    }

    /// Takes the statistics of the parallel runs made while
    /// [`Runner::observe`] had an observer on, in run order, each under
    /// its [`RunRecord::label`].
    pub fn drain_observed(&mut self) -> Vec<(String, RunStats)> {
        std::mem::take(&mut self.observed)
    }

    /// The default scaled machine configuration for `nprocs` processors.
    pub fn machine_for(&self, nprocs: usize) -> MachineConfig {
        MachineConfig::origin2000_scaled(nprocs, self.cache_bytes)
    }

    /// Runs `workload` on a machine configured by `cfg` (plus the
    /// runner's [`Observe`] switches and schedule seed), verifying the
    /// result.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Sim`] on simulation failure and
    /// [`StudyError::Verify`] if the computed result is wrong.
    pub fn run_on(
        &mut self,
        workload: &dyn Workload,
        mut cfg: MachineConfig,
    ) -> Result<RunRecord, StudyError> {
        let seq_ns = self.sequential_ns(workload, &cfg)?;
        self.observe.apply(&mut cfg);
        if let Some(seed) = self.schedule_seed {
            cfg.schedule = Some(ScheduleConfig::random(seed));
        }
        let nprocs = cfg.nprocs;
        let (wall_ns, stats) = execute_workload(workload, cfg)?;
        let rec = RunRecord {
            app: workload.name(),
            problem: workload.problem(),
            nprocs,
            wall_ns,
            seq_ns,
            stats,
        };
        if self.observe.any() {
            self.observed.push((rec.label(), rec.stats.clone()));
        }
        Ok(rec)
    }

    /// Runs `workload` on the default scaled machine with `nprocs`
    /// processors.
    ///
    /// # Errors
    ///
    /// As [`Runner::run_on`].
    pub fn run(&mut self, workload: &dyn Workload, nprocs: usize) -> Result<RunRecord, StudyError> {
        self.run_on(workload, self.machine_for(nprocs))
    }

    /// The cached sequential baseline for `workload` on a machine like
    /// `cfg` (see [`Baselines::get`]).
    ///
    /// # Errors
    ///
    /// As [`Runner::run_on`].
    pub fn sequential_ns(
        &self,
        workload: &dyn Workload,
        cfg: &MachineConfig,
    ) -> Result<Ns, StudyError> {
        self.baselines.get(workload, cfg)
    }
}

/// Runs `workload` once on a machine configured by `cfg`, verifying the
/// computed result, and returns the wall-clock and full statistics.
///
/// This is the stateless core of [`Runner::run_on`] — it needs no `&mut
/// Runner`, holds no caches, and everything it touches is plain data, so
/// parallel drivers (the `sweep` engine) can call it concurrently from
/// many host threads, constructing the workload inside each worker.
///
/// # Errors
///
/// Returns [`StudyError::Sim`] on simulation failure and
/// [`StudyError::Verify`] if the computed result is wrong.
pub fn execute_workload(
    workload: &dyn Workload,
    cfg: MachineConfig,
) -> Result<(Ns, RunStats), StudyError> {
    let mut machine = Machine::new(cfg)?;
    let job = workload.build(&mut machine);
    let body = job.body;
    let stats = machine.run(move |ctx| body(ctx))?;
    (job.verify)().map_err(StudyError::Verify)?;
    Ok((stats.wall_ns, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash_apps::fft::Fft;
    use splash_apps::sor::Sor;

    #[test]
    fn run_produces_sane_speedup() {
        let mut r = Runner::new(64 << 10);
        let rec = r.run(&Fft::new(14), 8).unwrap();
        assert!(rec.speedup() > 1.5, "speedup {}", rec.speedup());
        assert!(rec.efficiency() <= 1.5);
        assert_eq!(rec.nprocs, 8);
        assert_eq!(rec.app, "fft");
    }

    #[test]
    fn baselines_are_cached() {
        let r = Runner::new(64 << 10);
        let w = Sor::new(16);
        let cfg = r.machine_for(4);
        let a = r.sequential_ns(&w, &cfg).unwrap();
        let before = r.baselines.len();
        let b = r.sequential_ns(&w, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.baselines.len(), before);
    }

    #[test]
    fn different_machines_get_different_baselines() {
        let r = Runner::new(64 << 10);
        let w = Sor::new(16);
        let cfg_a = r.machine_for(4);
        let mut cfg_b = cfg_a.clone();
        cfg_b.cache = ccnuma_sim::config::CacheConfig::scaled(16 << 10);
        r.sequential_ns(&w, &cfg_a).unwrap();
        r.sequential_ns(&w, &cfg_b).unwrap();
        assert_eq!(r.baselines.len(), 2);
    }

    #[test]
    fn baseline_key_covers_the_cost_model() {
        let r = Runner::new(64 << 10);
        let w = Sor::new(16);
        let cfg_a = r.machine_for(4);
        let mut cfg_b = cfg_a.clone();
        cfg_b.cost.flop_ns *= 2;
        let a = r.sequential_ns(&w, &cfg_a).unwrap();
        let b = r.sequential_ns(&w, &cfg_b).unwrap();
        assert!(b > a, "slower flops must slow the baseline: {a} vs {b}");
        assert_eq!(r.baselines.len(), 2);
    }

    #[test]
    fn baselines_ignore_observers_and_schedule() {
        let r = Runner::new(64 << 10);
        let w = Sor::new(16);
        let plain = r.machine_for(4);
        let mut observed = plain.clone();
        Observe {
            trace: true,
            attrib: true,
            sanitize: true,
            critpath: true,
        }
        .apply(&mut observed);
        observed.schedule = Some(ScheduleConfig::random(3));
        assert_eq!(seq_config(&plain), seq_config(&observed));
        let a = r.sequential_ns(&w, &plain).unwrap();
        let b = r.sequential_ns(&w, &observed).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.baselines.len(), 1);
    }

    #[test]
    fn run_on_keeps_the_trace_in_its_record() {
        let mut r = Runner::new(64 << 10);
        let mut cfg = r.machine_for(4);
        cfg.trace = TraceConfig::on();
        let rec = r.run_on(&Sor::new(16), cfg).unwrap();
        assert!(rec.stats.trace.is_some());
        // No runner observer is on, so nothing is kept for draining.
        assert!(r.drain_observed().is_empty());
    }

    #[test]
    fn attrib_collects_labelled_json() {
        let mut r = Runner::new(64 << 10);
        assert!(!r.observe.any());
        r.observe.attrib = true;
        let w = Sor::new(16);
        let rec = r.run(&w, 4).unwrap();
        let observed = r.drain_observed();
        assert_eq!(observed.len(), 1);
        let (label, stats) = &observed[0];
        assert_eq!(*label, rec.label());
        let json = &crate::report::attrib_json(label, stats);
        assert!(
            label.starts_with("sor/") && label.ends_with("/4p"),
            "{label}"
        );
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"resources\""));
        // Classification was forced on: the causes section carries counts.
        assert!(json.contains("\"cold\""), "{json}");
        // Drained: a second take returns nothing.
        assert!(r.drain_observed().is_empty());
    }

    #[test]
    fn verification_failures_surface() {
        use splash_apps::common::Job;
        struct Broken;
        impl Workload for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn problem(&self) -> String {
                "n/a".into()
            }
            fn build(&self, _m: &mut Machine) -> Job {
                Job::new(|_ctx| {}, || Err("intentionally wrong".into()))
            }
        }
        let mut r = Runner::new(64 << 10);
        match r.run(&Broken, 2) {
            Err(StudyError::Verify(msg)) => assert!(msg.contains("intentionally")),
            other => panic!("expected verify error, got {other:?}"),
        }
    }
}
