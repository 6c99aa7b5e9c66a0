//! The matrix DSL: `apps × versions × procs` (× problem sizes).
//!
//! A [`MatrixSpec`] describes a rectangle of the paper's experiment space
//! in one line, e.g.:
//!
//! ```text
//! apps=all versions=both procs=scale scale=quick            # Figures 2/3 + 9
//! apps=fft,ocean versions=orig procs=2,4,8 sizes=sweep      # Figure 4 slice
//! apps=ocean versions=orig procs=8 attrib=on                # attrib experiment
//! ```
//!
//! [`MatrixSpec::cells`] expands the rectangle into concrete
//! [`CellSpec`]s, each of which knows how to build its workload and
//! machine and derive its [`RunKey`].

use ccnuma_sim::config::MachineConfig;
use scaling_study::experiments::{self, Scale, APP_IDS, ORIGINAL_VERSION};
use scaling_study::runner::Observe;
use splash_apps::common::Workload;

use crate::key::RunKey;

/// Which versions of each application to include.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionSel {
    /// Only the original version.
    Orig,
    /// Only restructured versions (apps without any are skipped).
    Restructured,
    /// Original plus every restructured version.
    Both,
    /// An explicit list of version ids; apps lacking one are skipped.
    Named(Vec<String>),
}

/// Which problem sizes to include.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeSel {
    /// The basic (Table 2) problem size.
    Basic,
    /// Every point of the Figure-4 problem-size sweep (original version
    /// only — the restructuring catalog is defined at the basic size).
    Sweep,
}

/// A rectangle of the experiment matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixSpec {
    /// Experiment scale (machine sizes and problem sizes).
    pub scale: Scale,
    /// Application ids to sweep.
    pub apps: Vec<String>,
    /// Version selection per app.
    pub versions: VersionSel,
    /// Processor counts; empty means the scale's default axis.
    pub procs: Vec<usize>,
    /// Problem-size selection.
    pub sizes: SizeSel,
    /// Classify misses and carry attribution data through every run.
    pub attrib: bool,
    /// Record a time-resolved trace of every executed run (cached cells
    /// are skipped, so they re-emit nothing; tracing is observational and
    /// deliberately *not* part of the run key).
    pub trace: bool,
    /// Run the happens-before sanitizer over every cell and carry its
    /// finding counts through the stored records.
    pub sanitize: bool,
    /// Run the critical-path profiler over every cell and carry its
    /// path summary through the stored records.
    pub critpath: bool,
    /// Schedule-space exploration: expand every cell into this many
    /// seeded schedule-perturbation runs (`0` = unperturbed). Seeds run
    /// `base..base+N` where `base` is [`MatrixSpec::sched_seed`] or 1.
    pub schedules: u32,
    /// A fixed schedule-perturbation seed: replay one interleaving
    /// (when [`MatrixSpec::schedules`] is 0), or the sweep's base seed.
    pub sched_seed: Option<u64>,
}

impl Default for MatrixSpec {
    fn default() -> Self {
        MatrixSpec {
            scale: Scale::Quick,
            apps: APP_IDS.iter().map(|s| s.to_string()).collect(),
            versions: VersionSel::Both,
            procs: Vec::new(),
            sizes: SizeSel::Basic,
            attrib: false,
            trace: false,
            sanitize: false,
            critpath: false,
            schedules: 0,
            sched_seed: None,
        }
    }
}

/// The scale's canonical name, as stored in run keys and the JSONL store.
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale {other:?} (quick or full)")),
    }
}

impl MatrixSpec {
    /// Parses the whitespace-separated `key=value` DSL. Unset keys keep
    /// their defaults (`apps=all versions=both procs=scale sizes=basic
    /// scale=quick attrib=off trace=off`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown token;
    /// unknown application ids are rejected here, not at run time.
    pub fn parse(dsl: &str) -> Result<MatrixSpec, String> {
        let mut spec = MatrixSpec::default();
        for tok in dsl.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
            match k {
                "scale" => spec.scale = parse_scale(v)?,
                "apps" => {
                    if v == "all" {
                        spec.apps = APP_IDS.iter().map(|s| s.to_string()).collect();
                    } else {
                        // Dedup while keeping order: a repeated app would
                        // expand into cells with identical run keys.
                        let mut apps: Vec<String> = Vec::new();
                        for a in v.split(',') {
                            if !APP_IDS.contains(&a) {
                                return Err(format!(
                                    "unknown application {a:?} (apps: {})",
                                    APP_IDS.join(" ")
                                ));
                            }
                            if !apps.iter().any(|x| x == a) {
                                apps.push(a.to_string());
                            }
                        }
                        spec.apps = apps;
                    }
                }
                "versions" => {
                    spec.versions = match v {
                        "orig" => VersionSel::Orig,
                        "restr" => VersionSel::Restructured,
                        "both" => VersionSel::Both,
                        list => VersionSel::Named(list.split(',').map(str::to_string).collect()),
                    }
                }
                "procs" => {
                    if v == "scale" {
                        spec.procs = Vec::new();
                    } else {
                        // Dedup while keeping order, as for apps.
                        let mut procs: Vec<usize> = Vec::new();
                        for p in v.split(',') {
                            let p: usize = p
                                .parse()
                                .map_err(|_| format!("bad processor count {p:?}"))?;
                            if p == 0 {
                                return Err("processor counts must be positive".into());
                            }
                            if !procs.contains(&p) {
                                procs.push(p);
                            }
                        }
                        spec.procs = procs;
                    }
                }
                "sizes" => {
                    spec.sizes = match v {
                        "basic" => SizeSel::Basic,
                        "sweep" => SizeSel::Sweep,
                        other => return Err(format!("unknown sizes {other:?} (basic or sweep)")),
                    }
                }
                "attrib" => spec.attrib = parse_bool(v)?,
                "trace" => spec.trace = parse_bool(v)?,
                "sanitize" => spec.sanitize = parse_bool(v)?,
                "critpath" => spec.critpath = parse_bool(v)?,
                "schedules" => {
                    spec.schedules = v.parse().map_err(|_| format!("bad schedule count {v:?}"))?
                }
                "sched-seed" => {
                    spec.sched_seed =
                        Some(v.parse().map_err(|_| format!("bad schedule seed {v:?}"))?)
                }
                other => return Err(format!("unknown matrix key {other:?}")),
            }
        }
        Ok(spec)
    }

    /// The processor-count axis: the explicit list, or the scale's
    /// default ([`Scale::procs`]).
    pub fn proc_axis(&self) -> Vec<usize> {
        if self.procs.is_empty() {
            self.scale.procs().to_vec()
        } else {
            self.procs.clone()
        }
    }

    fn versions_for(&self, app: &str) -> Vec<String> {
        let available = experiments::version_ids(app);
        match &self.versions {
            VersionSel::Orig => vec![ORIGINAL_VERSION.to_string()],
            VersionSel::Both => available,
            VersionSel::Restructured => available
                .into_iter()
                .filter(|v| v != ORIGINAL_VERSION)
                .collect(),
            VersionSel::Named(names) => available
                .into_iter()
                .filter(|v| names.contains(v))
                .collect(),
        }
    }

    /// The schedule-seed axis: `[None]` when unperturbed, one fixed seed
    /// for replay, or `schedules` consecutive seeds for exploration.
    pub fn seed_axis(&self) -> Vec<Option<u64>> {
        if self.schedules > 0 {
            let base = self.sched_seed.unwrap_or(1);
            (0..u64::from(self.schedules))
                .map(|i| Some(base + i))
                .collect()
        } else {
            vec![self.sched_seed]
        }
    }

    /// Expands the rectangle into concrete cells, in a stable order
    /// (apps, then versions, then sizes, then processor counts, then
    /// schedule seeds).
    pub fn cells(&self) -> Vec<CellSpec> {
        let procs = self.proc_axis();
        let seeds = self.seed_axis();
        let mut out = Vec::new();
        let mut push = |app: &str, version: String, size, nprocs| {
            for &sched_seed in &seeds {
                out.push(CellSpec {
                    app: app.to_string(),
                    version: version.clone(),
                    size,
                    nprocs,
                    scale: self.scale,
                    attrib: self.attrib,
                    trace: self.trace,
                    sanitize: self.sanitize,
                    critpath: self.critpath,
                    sched_seed,
                });
            }
        };
        for app in &self.apps {
            match self.sizes {
                SizeSel::Basic => {
                    for version in self.versions_for(app) {
                        for &nprocs in &procs {
                            push(app, version.clone(), None, nprocs);
                        }
                    }
                }
                SizeSel::Sweep => {
                    let n = experiments::sweep(app, self.scale).len();
                    for size in 0..n {
                        for &nprocs in &procs {
                            push(app, ORIGINAL_VERSION.to_string(), Some(size), nprocs);
                        }
                    }
                }
            }
        }
        out
    }
}

/// One concrete cell of the matrix: everything needed to (re)build and
/// run its simulation, as plain `Send` data — workers construct the
/// workload on their own thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Application id.
    pub app: String,
    /// Version id (see [`experiments::version_ids`]).
    pub version: String,
    /// Problem-size index into [`experiments::sweep`], or `None` for the
    /// basic size.
    pub size: Option<usize>,
    /// Simulated processor count.
    pub nprocs: usize,
    /// Experiment scale.
    pub scale: Scale,
    /// Classify misses during the run.
    pub attrib: bool,
    /// Record a time-resolved trace of the run.
    pub trace: bool,
    /// Race-check the run's event stream.
    pub sanitize: bool,
    /// Profile the run's critical path.
    pub critpath: bool,
    /// Perturb the run's schedule with this seed
    /// ([`ccnuma_sim::schedule`]); `None` runs the default interleaving.
    pub sched_seed: Option<u64>,
}

impl CellSpec {
    /// Human-readable cell label, e.g. `"fft/orig/4p"`,
    /// `"ocean/orig[2]/8p"` for the third sweep size, or
    /// `"fft/orig/4p@s3"` for a seed-3 schedule-perturbation run.
    pub fn label(&self) -> String {
        let base = match self.size {
            None => format!("{}/{}/{}p", self.app, self.version, self.nprocs),
            Some(i) => format!("{}/{}[{i}]/{}p", self.app, self.version, self.nprocs),
        };
        match self.sched_seed {
            None => base,
            Some(s) => format!("{base}@s{s}"),
        }
    }

    /// Splits a cell label into its seedless base and the schedule seed,
    /// e.g. `"fft/orig/4p@s3"` → `("fft/orig/4p", Some(3))`. The inverse
    /// of the suffix [`CellSpec::label`] appends.
    pub fn split_label(label: &str) -> (&str, Option<u64>) {
        match label.rsplit_once("@s") {
            Some((base, seed)) => match seed.parse() {
                Ok(s) => (base, Some(s)),
                Err(_) => (label, None),
            },
            None => (label, None),
        }
    }

    /// Builds the cell's workload. `None` if the version does not exist
    /// for the app (possible only for hand-built specs —
    /// [`MatrixSpec::cells`] never emits one).
    pub fn workload(&self) -> Option<Box<dyn Workload>> {
        match self.size {
            None => experiments::versioned(&self.app, &self.version, self.scale),
            Some(i) => {
                let mut ws = experiments::sweep(&self.app, self.scale);
                if i < ws.len() {
                    Some(ws.swap_remove(i))
                } else {
                    None
                }
            }
        }
    }

    /// The machine configuration the cell runs on: the scale's default
    /// scaled Origin2000, with the cell's observers switched on
    /// ([`Observe`]) and seeded schedule perturbation when
    /// [`CellSpec::sched_seed`] is set.
    pub fn machine(&self) -> MachineConfig {
        let mut cfg = MachineConfig::origin2000_scaled(self.nprocs, self.scale.cache_bytes());
        Observe {
            trace: self.trace,
            attrib: self.attrib,
            sanitize: self.sanitize,
            critpath: self.critpath,
        }
        .apply(&mut cfg);
        cfg.schedule = self
            .sched_seed
            .map(ccnuma_sim::schedule::ScheduleConfig::random);
        cfg
    }

    /// The content key identifying this cell in the result store.
    /// Requires building the workload to read its problem description.
    ///
    /// # Panics
    ///
    /// Panics if the cell's version does not exist for its app.
    pub fn key(&self) -> RunKey {
        let w = self
            .workload()
            .unwrap_or_else(|| panic!("no workload for cell {}", self.label()));
        RunKey {
            app: self.app.clone(),
            version: self.version.clone(),
            problem: w.problem(),
            nprocs: self.nprocs,
            scale: scale_name(self.scale).to_string(),
            machine: self.machine().stable_fingerprint(),
            sim: ccnuma_sim::MODEL_FINGERPRINT.to_string(),
            attrib: self.attrib,
            sanitize: self.sanitize,
            critpath: self.critpath,
            sched_seed: self.sched_seed,
        }
    }
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        other => Err(format!("expected on/off, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quick_matrix_covers_all_app_versions() {
        let spec = MatrixSpec::default();
        let cells = spec.cells();
        // 11 originals + 6 restructured versions, × 3 quick proc counts.
        assert_eq!(cells.len(), 17 * 3);
        assert!(cells.iter().all(|c| c.scale == Scale::Quick));
        assert!(cells.iter().any(|c| c.label() == "barnes/spatial/8p"));
        assert!(cells.iter().any(|c| c.label() == "radix/samplesort/2p"));
    }

    #[test]
    fn dsl_round_trip_and_errors() {
        let spec = MatrixSpec::parse("apps=fft,ocean versions=orig procs=2,4 attrib=on").unwrap();
        assert_eq!(spec.apps, ["fft", "ocean"]);
        assert_eq!(spec.versions, VersionSel::Orig);
        assert_eq!(spec.proc_axis(), [2, 4]);
        assert!(spec.attrib);
        assert_eq!(spec.cells().len(), 4);

        assert!(MatrixSpec::parse("apps=nope").is_err());
        assert!(MatrixSpec::parse("procs=0").is_err());
        assert!(MatrixSpec::parse("bogus=1").is_err());
        assert!(MatrixSpec::parse("procs").is_err());
        assert!(MatrixSpec::parse("scale=medium").is_err());
    }

    #[test]
    fn duplicate_apps_and_procs_are_deduped() {
        let spec = MatrixSpec::parse("apps=fft,ocean,fft versions=orig procs=4,4,2").unwrap();
        assert_eq!(spec.apps, ["fft", "ocean"]);
        assert_eq!(spec.proc_axis(), [4, 2]);
        assert_eq!(spec.cells().len(), 4);
    }

    #[test]
    fn sweep_sizes_expand_figure4_axis() {
        let spec = MatrixSpec::parse("apps=fft versions=orig procs=4 sizes=sweep").unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 3, "quick fft sweep has three sizes");
        let problems: Vec<String> = cells
            .iter()
            .map(|c| c.workload().unwrap().problem())
            .collect();
        let distinct: std::collections::HashSet<&String> = problems.iter().collect();
        assert_eq!(distinct.len(), 3, "each sweep cell is a different size");
        // Distinct problems mean distinct run keys.
        assert_ne!(cells[0].key().hash_hex(), cells[1].key().hash_hex());
    }

    #[test]
    fn restructured_only_selection_skips_apps_without_versions() {
        let spec = MatrixSpec::parse("apps=ocean,barnes versions=restr procs=2").unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2, "ocean has no restructured version");
        assert!(cells.iter().all(|c| c.app == "barnes"));
    }

    #[test]
    fn attrib_changes_the_run_key() {
        let mk = |attrib| {
            CellSpec {
                app: "fft".into(),
                version: "orig".into(),
                size: None,
                nprocs: 4,
                scale: Scale::Quick,
                attrib,
                trace: false,
                sanitize: false,
                critpath: false,
                sched_seed: None,
            }
            .key()
            .hash_hex()
        };
        assert_ne!(mk(false), mk(true));
    }

    #[test]
    fn sanitize_changes_the_run_key_and_machine() {
        let mk = |sanitize| CellSpec {
            app: "fft".into(),
            version: "orig".into(),
            size: None,
            nprocs: 4,
            scale: Scale::Quick,
            attrib: false,
            trace: false,
            sanitize,
            critpath: false,
            sched_seed: None,
        };
        assert_ne!(mk(false).key().hash_hex(), mk(true).key().hash_hex());
        assert!(mk(true).machine().sanitize.enabled);
        assert!(!mk(false).machine().sanitize.enabled);
        let spec = MatrixSpec::parse("apps=fft versions=orig procs=2 sanitize=on").unwrap();
        assert!(spec.sanitize);
        assert!(spec.cells().iter().all(|c| c.sanitize));
    }

    #[test]
    fn critpath_changes_the_run_key_and_machine() {
        let mk = |critpath| CellSpec {
            app: "fft".into(),
            version: "orig".into(),
            size: None,
            nprocs: 4,
            scale: Scale::Quick,
            attrib: false,
            trace: false,
            sanitize: false,
            critpath,
            sched_seed: None,
        };
        assert_ne!(mk(false).key().hash_hex(), mk(true).key().hash_hex());
        assert!(mk(true).machine().critpath);
        assert!(!mk(false).machine().critpath);
        let spec = MatrixSpec::parse("apps=fft versions=orig procs=2 critpath=on").unwrap();
        assert!(spec.critpath);
        assert!(spec.cells().iter().all(|c| c.critpath));
    }

    #[test]
    fn sched_seed_changes_the_run_key_and_machine() {
        let mk = |sched_seed| CellSpec {
            app: "fft".into(),
            version: "orig".into(),
            size: None,
            nprocs: 4,
            scale: Scale::Quick,
            attrib: false,
            trace: false,
            sanitize: false,
            critpath: false,
            sched_seed,
        };
        // Unset hashes to the historical key; every seed gets its own.
        assert_ne!(mk(None).key().hash_hex(), mk(Some(1)).key().hash_hex());
        assert_ne!(mk(Some(1)).key().hash_hex(), mk(Some(2)).key().hash_hex());
        assert!(mk(None).machine().schedule.is_none());
        assert_eq!(
            mk(Some(7)).machine().schedule,
            Some(ccnuma_sim::schedule::ScheduleConfig::random(7))
        );
        // Seed-labeled cells never collide with performance cells.
        assert_eq!(mk(Some(3)).label(), "fft/orig/4p@s3");
        assert_eq!(
            CellSpec::split_label("fft/orig/4p@s3"),
            ("fft/orig/4p", Some(3))
        );
        assert_eq!(CellSpec::split_label("fft/orig/4p"), ("fft/orig/4p", None));
        assert_eq!(
            CellSpec::split_label("ocean/orig[2]/8p@s12"),
            ("ocean/orig[2]/8p", Some(12))
        );
    }

    #[test]
    fn schedules_axis_expands_seeded_cells() {
        let spec =
            MatrixSpec::parse("apps=fft versions=orig procs=4 sanitize=on schedules=3").unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 3);
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            ["fft/orig/4p@s1", "fft/orig/4p@s2", "fft/orig/4p@s3"]
        );
        let keys: std::collections::HashSet<String> =
            cells.iter().map(|c| c.key().hash_hex()).collect();
        assert_eq!(keys.len(), 3, "every seed is its own store entry");

        // A base seed shifts the seed range; a bare sched-seed replays one.
        let spec =
            MatrixSpec::parse("apps=fft versions=orig procs=4 schedules=2 sched-seed=10").unwrap();
        assert_eq!(spec.seed_axis(), [Some(10), Some(11)]);
        let spec = MatrixSpec::parse("apps=fft versions=orig procs=4 sched-seed=5").unwrap();
        assert_eq!(spec.seed_axis(), [Some(5)]);
        assert_eq!(spec.cells()[0].label(), "fft/orig/4p@s5");

        assert!(MatrixSpec::parse("schedules=x").is_err());
        assert!(MatrixSpec::parse("sched-seed=").is_err());
    }

    #[test]
    fn trace_does_not_change_the_run_key() {
        let mk = |trace| {
            CellSpec {
                app: "fft".into(),
                version: "orig".into(),
                size: None,
                nprocs: 4,
                scale: Scale::Quick,
                attrib: false,
                trace,
                sanitize: false,
                critpath: false,
                sched_seed: None,
            }
            .key()
            .hash_hex()
        };
        assert_eq!(mk(false), mk(true));
    }
}
