//! `repro` — regenerate the tables and figures of Jiang & Singh (ISCA'99).
//!
//! ```text
//! repro <experiment> [--quick] [--csv] [--trace <out.json>] [--out <dir>]
//!                   [--attrib <dir>] [--sanitize] [--schedule-seed <s>]
//!
//! experiments:
//!   table1 table2 fig2 fig3 fig4 fig5-8 fig9 fig10 table3
//!   prefetch migration sync mapping nodeshare phases attrib guidelines all
//!
//! --quick          small machines and problems (seconds instead of minutes)
//! --csv            emit CSV instead of aligned text tables
//! --trace <file>   trace every parallel run and write one merged Chrome
//!                  trace-event JSON file (load it in Perfetto or
//!                  chrome://tracing)
//! --out <dir>      also write each table to <dir> as both .txt and .csv,
//!                  plus a manifest.json listing every emitted file
//! --attrib <dir>   classify misses on every parallel run and write one
//!                  attribution JSON per run to <dir>
//! --sanitize       race-check every parallel run with the happens-before
//!                  sanitizer; findings are summarized on stderr and, with
//!                  --out, written to sanitize-findings.json in the
//!                  manifest
//! --schedule-seed <s>  perturb every parallel run's schedule with seed s
//!                  (seeded tie-breaks, lock-grant and semaphore-wake
//!                  order); the same seed replays the same interleaving
//!                  bit-for-bit, so a finding from `bench sanitize
//!                  --schedules N` can be re-examined here. Sequential
//!                  baselines stay unperturbed
//! ```

use std::path::{Path, PathBuf};

use ccnuma_sim::json::quote;
use ccnuma_sim::sanitize::SanitizeReport;
use ccnuma_sim::trace::{chrome_trace_file, Trace};
use scaling_study::experiments::Scale;
use scaling_study::report::Table;
use scaling_study::runner::{Observe, Runner};
use study_bench::figures;

struct Opts {
    csv: bool,
    scale: Scale,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    attrib: Option<PathBuf>,
    sanitize: bool,
    schedule_seed: Option<u64>,
}

/// Turns a table title into a safe file stem, e.g.
/// `"Figure 3: average breakdown"` → `"figure-3-average-breakdown"`.
fn slug(title: &str) -> String {
    let mut s = String::with_capacity(title.len());
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            s.push(c.to_ascii_lowercase());
        } else if !s.ends_with('-') {
            s.push('-');
        }
    }
    let s = s.trim_matches('-').to_string();
    if s.is_empty() {
        "table".into()
    } else {
        s
    }
}

fn emit_tables(tables: &[Table], opts: &Opts, emitted: &mut Vec<String>) -> std::io::Result<()> {
    for t in tables {
        if opts.csv {
            println!("# {}", t.title);
            print!("{}", t.to_csv());
        } else {
            println!("{t}");
        }
    }
    if let Some(dir) = &opts.out {
        for t in tables {
            let stem = slug(&t.title);
            for (ext, body) in [("txt", t.to_string()), ("csv", t.to_csv())] {
                let file = format!("{stem}.{ext}");
                std::fs::write(dir.join(&file), body)?;
                emitted.push(file);
            }
        }
    }
    Ok(())
}

/// What the observed runs of an invocation leave for the output files,
/// each labelled `"<experiment>: app/problem/NNp"`.
#[derive(Default)]
struct Collected {
    traces: Vec<(String, Trace)>,
    attribs: Vec<(String, String)>,
    sanitizes: Vec<(String, SanitizeReport)>,
}

fn run_one(
    name: &str,
    runner: &mut Runner,
    opts: &Opts,
    collected: &mut Collected,
    emitted: &mut Vec<String>,
) -> Result<(), Box<dyn std::error::Error>> {
    let tables: Vec<Table> = figures::run_experiment(name, runner, opts.scale)
        .ok_or_else(|| format!("unknown experiment {name:?} (try --help)"))??;
    emit_tables(&tables, opts, emitted)?;
    for (label, mut stats) in runner.drain_observed() {
        let tagged = format!("{name}: {label}");
        if opts.trace.is_some() {
            if let Some(trace) = stats.trace.take() {
                collected.traces.push((tagged.clone(), trace));
            }
        }
        if opts.attrib.is_some() {
            let json = scaling_study::report::attrib_json(&label, &stats);
            collected.attribs.push((tagged.clone(), json));
        }
        if let Some(rep) = stats.sanitize.take() {
            collected.sanitizes.push((tagged, rep));
        }
    }
    Ok(())
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: repro <experiment>... [--quick] [--csv] [--trace <out.json>] [--out <dir>] [--attrib <dir>] [--sanitize] [--schedule-seed <s>]"
    );
    eprintln!("experiments: {} all", figures::EXPERIMENT_NAMES.join(" "));
    std::process::exit(code);
}

fn parse_opts(args: &[String]) -> (Opts, Vec<String>) {
    let mut opts = Opts {
        csv: false,
        scale: Scale::Full,
        trace: None,
        out: None,
        attrib: None,
        sanitize: false,
        schedule_seed: None,
    };
    let mut names = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => opts.csv = true,
            "--quick" => opts.scale = Scale::Quick,
            "--trace" => match it.next() {
                Some(f) => opts.trace = Some(PathBuf::from(f)),
                None => {
                    eprintln!("error: --trace needs a file argument");
                    usage(2);
                }
            },
            "--out" => match it.next() {
                Some(d) => opts.out = Some(PathBuf::from(d)),
                None => {
                    eprintln!("error: --out needs a directory argument");
                    usage(2);
                }
            },
            "--attrib" => match it.next() {
                Some(d) => opts.attrib = Some(PathBuf::from(d)),
                None => {
                    eprintln!("error: --attrib needs a directory argument");
                    usage(2);
                }
            },
            "--sanitize" => opts.sanitize = true,
            "--schedule-seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => opts.schedule_seed = Some(s),
                _ => {
                    eprintln!("error: --schedule-seed needs an integer seed");
                    usage(2);
                }
            },
            "--help" | "-h" => usage(0),
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other:?}");
                usage(2);
            }
            other => names.push(other.to_string()),
        }
    }
    (opts, names)
}

fn write_trace_file(path: &Path, traces: &[(String, Trace)]) -> std::io::Result<()> {
    let refs: Vec<(String, &Trace)> = traces.iter().map(|(l, t)| (l.clone(), t)).collect();
    std::fs::write(path, chrome_trace_file(&refs))?;
    eprintln!(
        "[repro] wrote {} trace(s) to {}",
        traces.len(),
        path.display()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, names) = parse_opts(&args);
    if names.is_empty() {
        usage(2);
    }
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let selected: Vec<String> = if names.iter().any(|n| n == "all") {
        figures::EXPERIMENT_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        names
    };
    // Validate every name up front: a typo anywhere in the list fails
    // fast with the catalog on stderr, instead of surfacing only after
    // the experiments before it have run.
    let unknown: Vec<&String> = selected
        .iter()
        .filter(|n| !figures::is_experiment(n))
        .collect();
    if !unknown.is_empty() {
        for n in &unknown {
            eprintln!("error: unknown experiment {n:?}");
        }
        eprintln!("experiments: {} all", figures::EXPERIMENT_NAMES.join(" "));
        std::process::exit(2);
    }
    // One runner for the whole invocation: experiments share its
    // sequential baselines.
    let mut runner = figures::runner_for(opts.scale);
    runner.observe = Observe {
        trace: opts.trace.is_some(),
        attrib: opts.attrib.is_some(),
        sanitize: opts.sanitize,
        critpath: false,
    };
    runner.schedule_seed = opts.schedule_seed;
    let mut collected = Collected::default();
    let mut emitted: Vec<String> = Vec::new();
    for name in &selected {
        eprintln!("[repro] running {name} ({:?} scale)...", opts.scale);
        let t0 = std::time::Instant::now();
        if let Err(e) = run_one(name, &mut runner, &opts, &mut collected, &mut emitted) {
            eprintln!("error: {name}: {e}");
            std::process::exit(1);
        }
        eprintln!("[repro] {name} done in {:.1?}", t0.elapsed());
    }
    if let Some(path) = &opts.trace {
        // A bare filename lands next to the tables when --out is given.
        let path = match &opts.out {
            Some(dir) if path.parent().is_some_and(|p| p.as_os_str().is_empty()) => dir.join(path),
            _ => path.clone(),
        };
        if let Err(e) = write_trace_file(&path, &collected.traces) {
            eprintln!("error: writing trace file: {e}");
            std::process::exit(1);
        }
        if opts.out.as_deref() == path.parent() {
            if let Some(name) = path.file_name() {
                emitted.push(name.to_string_lossy().into_owned());
            }
        }
    }
    if let Some(dir) = &opts.attrib {
        if let Err(e) = write_attrib_files(dir, &collected.attribs, &opts, &mut emitted) {
            eprintln!("error: writing attribution files: {e}");
            std::process::exit(1);
        }
    }
    if opts.sanitize {
        let sanitizes = &collected.sanitizes;
        let dirty = sanitizes.iter().filter(|(_, r)| !r.is_clean()).count();
        eprintln!(
            "[repro] sanitize: {} run(s) checked, {dirty} with findings",
            sanitizes.len()
        );
        for (label, rep) in sanitizes {
            if !rep.is_clean() {
                eprintln!("[repro]   {label}: {}", rep.summary());
            }
        }
        if let Some(dir) = &opts.out {
            let mut doc = String::from("{\n  \"version\": 1,\n  \"reports\": [");
            for (i, (label, rep)) in sanitizes.iter().enumerate() {
                if i > 0 {
                    doc.push(',');
                }
                doc.push('\n');
                doc.push_str(scaling_study::report::sanitize_json(label, rep).trim_end());
            }
            doc.push_str("\n  ]\n}\n");
            let file = "sanitize-findings.json";
            if let Err(e) = std::fs::write(dir.join(file), doc) {
                eprintln!("error: writing {file}: {e}");
                std::process::exit(1);
            }
            emitted.push(file.to_string());
        }
    }
    if let Some(dir) = &opts.out {
        if let Err(e) = write_manifest(dir, &emitted) {
            eprintln!("error: writing manifest: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes one attribution JSON per run to `dir` (created if missing).
/// Files written into the `--out` directory are also recorded in the
/// manifest.
fn write_attrib_files(
    dir: &Path,
    attribs: &[(String, String)],
    opts: &Opts,
    emitted: &mut Vec<String>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (label, json) in attribs {
        let file = format!("{}.json", slug(label));
        std::fs::write(dir.join(&file), json)?;
        if opts.out.as_deref() == Some(dir) {
            emitted.push(file);
        }
    }
    eprintln!(
        "[repro] wrote {} attribution file(s) to {}",
        attribs.len(),
        dir.display()
    );
    Ok(())
}

/// Writes `manifest.json` into the `--out` directory, listing every file
/// emitted there by this invocation.
fn write_manifest(dir: &Path, emitted: &[String]) -> std::io::Result<()> {
    let mut s = String::from("{\n  \"version\": 1,\n  \"files\": [");
    for (i, f) in emitted.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        s.push_str(&quote(f));
    }
    s.push_str("\n  ]\n}\n");
    std::fs::write(dir.join("manifest.json"), s)?;
    eprintln!(
        "[repro] wrote manifest.json ({} file(s)) to {}",
        emitted.len(),
        dir.display()
    );
    Ok(())
}
