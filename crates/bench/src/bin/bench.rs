//! `bench` — accuracy and throughput gates, and the matrix sweep driver.
//!
//! ```text
//! bench regress [--check] [--tolerance <pct>] [--jobs <n>] [--telemetry]
//!
//! regress             run the pinned workload matrix once, with miss
//!                     classification and the critical-path profiler on,
//!                     print the on-path busy/memory/sync split and
//!                     headline what-if speedups, and write the
//!                     attribution snapshot to BENCH_attrib.json and the
//!                     critical-path snapshot to BENCH_critpath.json
//! --check             gate both documents against the committed
//!                     baselines instead of overwriting them; exit 1 on
//!                     drift (each drifted document's fresh measurement is
//!                     left in BENCH_<x>.current.json for inspection)
//! --tolerance <pct>   allowed relative drift per metric (default 2.0)
//! --jobs <n>          simulate matrix points on n host threads (default 1;
//!                     results are bit-identical at any job count)
//! --telemetry         measure with the full live-telemetry observer
//!                     running (registry, rate pipeline, loopback HTTP
//!                     server); with --check this is the observer-
//!                     passivity gate — results must stay bit-identical
//!
//! bench perf [--check] [--tolerance <pct>] [--jobs <n>] [--reps <k>]
//!            [--json <file>] [--profile <file>] [--no-overhead]
//!
//! perf                time the pinned workload matrix on the host clock
//!                     (median of --reps repetitions after a discarded
//!                     warmup) and write the throughput snapshot to
//!                     BENCH_engine.json; also measures the host-time
//!                     overhead of each optional subsystem (attrib,
//!                     trace, sanitize, critpath, profile, live) against
//!                     an all-off pass
//! --check             gate against the committed baseline instead of
//!                     overwriting it; exit 1 on drift (the fresh
//!                     measurement lands in BENCH_engine.current.json).
//!                     Event counts must match exactly; ns/event drift
//!                     is judged after dividing out the matrix-wide
//!                     machine-speed factor, so only *relative* per-cell
//!                     regressions fail
//! --tolerance <pct>   allowed relative ns/event drift (default 35.0)
//! --reps <k>          timed repetitions per cell (default 3)
//! --json <file>       also write the full report (entries + overhead
//!                     rows) to <file>
//! --profile <file>    run one profiled pass (cfg.profile=on) and write
//!                     the aggregate host profile as Chrome-trace JSON
//!                     to <file> (chrome://tracing, Perfetto)
//! --no-overhead       skip the subsystem-overhead passes
//! --jobs <n>          measure cells on n host threads (events stay
//!                     deterministic; timings are per-cell, not wall)
//!
//! bench sweep [key=value ...] [--jobs <n>] [--store <file>] [--resume]
//!             [--retry-quarantined] [--retries <n>] [--timeout-s <s>]
//!             [--attrib-dir <dir>] [--trace-dir <dir>]
//!             [--inject-panic <label>] [--require-cached] [--quiet]
//!
//! sweep               expand an apps × versions × procs matrix and run
//!                     every cell, appending results to a crash-safe JSONL
//!                     store keyed by content hash
//!   key=value ...     matrix DSL, e.g.:
//!                       apps=fft,ocean versions=orig procs=2,4,8
//!                       scale=quick sizes=sweep attrib=on trace=on
//!                     defaults: scale=quick apps=all versions=both
//!                     procs=scale sizes=basic attrib=off trace=off
//! --jobs <n>          worker threads (default 1)
//! --store <file>      JSONL result store (default sweep_results.jsonl)
//! --resume            skip cells whose key hash is already in the store
//! --retry-quarantined with --resume, also re-run non-ok cells
//! --retries <n>       extra attempts after a panic/timeout (default 0)
//! --timeout-s <s>     per-attempt wall-clock budget in seconds
//! --attrib-dir <dir>  write per-cell attribution JSON here (use attrib=on)
//! --trace-dir <dir>   write per-cell Chrome traces here (use trace=on)
//! --inject-panic <l>  make the cell labelled <l> panic (fault injection)
//! --require-cached    exit 2 if any cell had to execute (CI resume check)
//! --quiet             suppress per-cell progress lines
//! --live <addr>       serve live telemetry over HTTP while the sweep
//!                     runs: /metrics (Prometheus text), /snapshot
//!                     (JSON epoch record), /events (SSE epoch samples
//!                     + per-cell lifecycle events); e.g. 127.0.0.1:9100
//! --live-log <file>   append one JSON epoch record per sampling epoch
//!                     to <file> (crash-safe JSONL, `bench top --log`
//!                     renders it)
//! --epoch-ms <n>      telemetry sampling period (default 250)
//!
//! bench top (--addr <host:port> | --log <file>) [--watch] [--json]
//!           [--interval-ms <n>] [--count <n>]
//!
//! top                 render a terminal dashboard from a live /snapshot
//!                     endpoint or a --live-log JSONL file; one-shot by
//!                     default, --watch redraws every --interval-ms
//!                     (default 1000) until --count frames (default: no
//!                     limit)
//! --json              print the raw epoch record as one JSON line
//!                     instead of the dashboard (same shape as the
//!                     --live-log JSONL and /snapshot body)
//!
//! bench serve [--addr <host:port>] [--store <file>] [--jobs <n>]
//!             [--idle-timeout-s <s>] [--retries <n>] [--timeout-s <s>]
//!             [--epoch-ms <n>]
//!
//! serve               run the sweep daemon: a long-lived server that
//!                     accepts matrix submissions from many clients over
//!                     HTTP, deduplicates cells against one shared
//!                     content-addressed store, and streams per-job
//!                     progress over SSE. Routes: POST /sweep (matrix
//!                     DSL body), GET /jobs/<id>, GET /jobs/<id>/events,
//!                     GET /cell/<key>, GET /healthz /metrics /snapshot,
//!                     POST /shutdown. `bench top --addr` works against
//!                     it directly
//! --addr <host:port>  listen address (default 127.0.0.1:9900)
//! --store <file>      shared JSONL result store (default
//!                     sweepd_store.jsonl); resumed on restart
//! --jobs <n>          simulation worker threads (default 1)
//! --idle-timeout-s <s> shut down after <s> seconds with no requests
//!                     and no running work
//! --retries / --timeout-s   per-cell run options, as for sweep
//! --epoch-ms <n>      telemetry sampling period (default 250)
//!
//! bench submit --server <host:port> [key=value ...] [--wait] [--poll-ms <n>]
//!
//! submit              submit a matrix to a running daemon; with --wait,
//!                     poll until every cell has a record and print the
//!                     per-cell table (exit 1 if any cell quarantined)
//!
//! bench sanitize [key=value ...] [--jobs <n>] [--store <file>] [--resume]
//!                [--retries <n>] [--timeout-s <s>] [--out <file>] [--quiet]
//!                [--schedules <n>] [--seed-base <s>]
//!
//! sanitize            run the matrix through the happens-before sanitizer
//!                     and gate on its findings: exit 1 if any cell has
//!                     races, lock cycles, or lints; exit 2 if any cell
//!                     is quarantined or lost its report (infrastructure,
//!                     not verdict)
//!   key=value ...     matrix DSL, appended to the default
//!                     `scale=quick procs=1,4,16`; `sanitize=on` is forced
//! --schedules <n>     run every cell under n seeded schedule
//!                     perturbations (seeds base..base+n-1; DSL
//!                     `schedules=n`); findings are deduplicated across
//!                     seeds and reported with the seeds exposing them
//! --seed-base <s>     first schedule seed (default 1; DSL `sched-seed=s`)
//! --out <file>        write a findings JSON document (counts per cell
//!                     plus every full report) to <file>
//!                     (other flags as for sweep)
//!
//! exit status: 0 clean; 1 quarantined cells, drift, or sanitizer
//! findings (sanitize: findings only); 2 usage, a --require-cached miss,
//! a gate baseline that cannot be read or written, or sanitize
//! infrastructure failures (quarantined / missing reports).
//! ```

use std::path::{Path, PathBuf};
use std::time::Duration;

use ccnuma_sim::json::quote;
use ccnuma_sweep::matrix::MatrixSpec;
use ccnuma_sweep::{sweep, SweepConfig};
use ccnuma_telemetry::hub::{Hub, HubConfig};
use study_bench::{critpath, live, perf, regress, schedsan};

fn usage(code: i32) -> ! {
    eprintln!("usage: bench regress [--check] [--tolerance <pct>] [--jobs <n>] [--telemetry]");
    eprintln!(
        "       bench perf [--check] [--tolerance <pct>] [--jobs <n>] [--reps <k>]\n\
         \x20                  [--json <file>] [--profile <file>] [--no-overhead]"
    );
    eprintln!(
        "       bench sweep [key=value ...] [--jobs <n>] [--store <file>] [--resume]\n\
         \x20                  [--retry-quarantined] [--retries <n>] [--timeout-s <s>]\n\
         \x20                  [--attrib-dir <dir>] [--trace-dir <dir>]\n\
         \x20                  [--inject-panic <label>] [--require-cached] [--quiet]\n\
         \x20                  [--live <addr>] [--live-log <file>] [--epoch-ms <n>]"
    );
    eprintln!(
        "       bench serve [--addr <host:port>] [--store <file>] [--jobs <n>]\n\
         \x20                  [--idle-timeout-s <s>] [--retries <n>] [--timeout-s <s>]\n\
         \x20                  [--epoch-ms <n>]"
    );
    eprintln!("       bench submit --server <host:port> [key=value ...] [--wait] [--poll-ms <n>]");
    eprintln!(
        "       bench sanitize [key=value ...] [--jobs <n>] [--store <file>] [--resume]\n\
         \x20                  [--retries <n>] [--timeout-s <s>] [--out <file>] [--quiet]\n\
         \x20                  [--schedules <n>] [--seed-base <s>]"
    );
    eprintln!(
        "       bench top (--addr <host:port> | --log <file>) [--watch] [--json]\n\
         \x20                  [--interval-ms <n>] [--count <n>]"
    );
    std::process::exit(code);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("regress") => cmd_regress(&args[1..]),
        Some("perf") => cmd_perf(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("sanitize") => cmd_sanitize(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("--help" | "-h") => usage(0),
        _ => usage(2),
    }
}

fn parse_count(it: &mut std::slice::Iter<'_, String>, flag: &str) -> usize {
    match it.next().map(|v| v.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => n,
        _ => {
            eprintln!("error: {flag} needs a positive integer");
            usage(2);
        }
    }
}

/// The flags the gate subcommands (`bench regress`, `bench perf`) share.
struct GateArgs {
    check: bool,
    /// Allowed relative drift, as a fraction (`--tolerance 2` is 0.02).
    tolerance: f64,
    jobs: usize,
}

/// Parses the shared gate flags, starting from the default `tolerance`.
/// Every other flag goes to `other`, which takes any value from the
/// remaining arguments and returns false for a flag it does not know.
fn gate_args(
    args: &[String],
    tolerance: f64,
    mut other: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> bool,
) -> GateArgs {
    let mut gate = GateArgs {
        check: false,
        tolerance,
        jobs: 1,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => gate.check = true,
            "--tolerance" => match it.next().and_then(|t| parse_tolerance(t)) {
                Some(t) => gate.tolerance = t,
                None => {
                    eprintln!("error: --tolerance needs a finite, non-negative percentage");
                    usage(2);
                }
            },
            "--jobs" => gate.jobs = parse_count(&mut it, "--jobs"),
            "--help" | "-h" => usage(0),
            flag if other(flag, &mut it) => {}
            flag => {
                eprintln!("error: unexpected argument {flag:?}");
                usage(2);
            }
        }
    }
    gate
}

/// A `--tolerance` percentage as a fraction; `None` unless it is finite
/// and non-negative (`"inf"` would otherwise pass any drift).
fn parse_tolerance(pct: &str) -> Option<f64> {
    let t = pct.parse::<f64>().ok()?;
    (t.is_finite() && t >= 0.0).then_some(t / 100.0)
}

/// Writes the baselines (or, with `check`, gates against them) and exits
/// with the verdict: 0 when the gates pass, 1 on drift, 2 when a baseline
/// cannot be read, parsed or written.
fn write_or_check(cmd: &str, check: bool, gates: &[regress::Gate]) -> ! {
    match regress::write_or_check(Path::new("."), cmd, check, gates) {
        Ok(msgs) => std::process::exit(i32::from(!msgs.is_empty())),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// `bench regress`: one pass over the pinned matrix with miss
/// classification and the critical-path profiler on, written to (or,
/// with `--check`, gated against) `BENCH_attrib.json` and
/// `BENCH_critpath.json`.
fn cmd_regress(args: &[String]) -> ! {
    let mut telemetry = false;
    let gate = gate_args(args, regress::DEFAULT_TOLERANCE, |flag, _| match flag {
        "--telemetry" => {
            telemetry = true;
            true
        }
        _ => false,
    });

    eprintln!(
        "[bench] measuring the pinned matrix ({} apps x {} proc counts, {} job(s))...",
        regress::MATRIX_APPS.len(),
        regress::MATRIX_PROCS.len(),
        gate.jobs
    );
    // With --telemetry the whole observer stack runs during the
    // measurement: the registry refresher, the rate pipeline, and the
    // HTTP/SSE server on a loopback port. The comparison below is then
    // the observer-passivity gate: telemetry on or off, the attribution
    // and critical-path numbers must be bit-identical.
    let observer = telemetry.then(|| {
        let wiring = live::Wiring::start(Duration::from_millis(100));
        let hub = Hub::start(
            wiring.registry.clone(),
            HubConfig {
                epoch: Duration::from_millis(100),
                addr: Some("127.0.0.1:0".into()),
                log_path: None,
            },
        )
        .unwrap_or_else(|e| fail(&format!("cannot start telemetry hub: {e}")));
        eprintln!(
            "[bench] telemetry observer live at http://{}/metrics",
            hub.local_addr().expect("hub bound")
        );
        (wiring, hub)
    });
    let t0 = std::time::Instant::now();
    let (attrib, crit) = match regress::measure(gate.jobs) {
        Ok(c) => c,
        Err(e) => fail(&format!("measurement failed: {e}")),
    };
    if let Some((wiring, hub)) = observer {
        wiring.stop();
        hub.shutdown();
    }
    eprintln!(
        "[bench] measured {} points in {:.1?}",
        attrib.len(),
        t0.elapsed()
    );
    eprint!("{}", critpath::table(&crit));
    let gates = regress::gates(&attrib, &crit, gate.tolerance);
    write_or_check("bench regress", gate.check, &gates)
}

/// `bench perf`: time the pinned matrix, report subsystem overhead, and
/// (with `--check`) gate host throughput against `BENCH_engine.json`.
fn cmd_perf(args: &[String]) -> ! {
    let mut reps = perf::DEFAULT_REPS;
    let mut json_out: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut overhead = true;
    let gate = gate_args(args, perf::DEFAULT_TOLERANCE, |flag, rest| {
        match flag {
            "--reps" => reps = parse_count(rest, "--reps"),
            "--json" => json_out = Some(PathBuf::from(rest.next().unwrap_or_else(|| usage(2)))),
            "--profile" => {
                profile_out = Some(PathBuf::from(rest.next().unwrap_or_else(|| usage(2))))
            }
            "--no-overhead" => overhead = false,
            _ => return false,
        }
        true
    });
    let jobs = gate.jobs;

    eprintln!(
        "[bench] timing the pinned matrix ({} apps x {} proc counts, \
         {reps} rep(s) + warmup, {jobs} job(s))...",
        regress::MATRIX_APPS.len(),
        regress::MATRIX_PROCS.len()
    );
    let t0 = std::time::Instant::now();
    let current = match perf::measure(jobs, reps) {
        Ok(c) => c,
        Err(e) => fail(&format!("measurement failed: {e}")),
    };
    eprintln!(
        "[bench] measured {} cells in {:.1?}",
        current.len(),
        t0.elapsed()
    );
    print!("{}", perf::table(&current));

    let overheads = if overhead {
        eprintln!(
            "[bench] measuring optional-subsystem overhead (min of {reps} passes per mode)..."
        );
        let rows = match perf::measure_overheads(jobs, reps) {
            Ok(r) => r,
            Err(e) => fail(&format!("overhead measurement failed: {e}")),
        };
        print!("{}", perf::overhead_table(&rows));
        Some(rows)
    } else {
        None
    };

    if let Some(path) = &profile_out {
        eprintln!("[bench] profiling one matrix pass...");
        let p = match perf::profile_matrix(jobs) {
            Ok(p) => p,
            Err(e) => fail(&format!("profiled pass failed: {e}")),
        };
        print!("{}", p.text_table());
        if let Err(e) = std::fs::write(path, p.chrome_trace()) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!(
            "[bench] wrote Chrome-trace host profile to {}",
            path.display()
        );
    }

    if let Some(path) = &json_out {
        let mut doc = perf::to_json(reps, &current)
            .trim_end()
            .strip_suffix('}')
            .expect("to_json ends with }")
            .trim_end()
            .to_string();
        if let Some(rows) = &overheads {
            doc.push_str(",\n  \"overheads\": [");
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    doc.push(',');
                }
                doc.push_str(&format!(
                    "\n    {{\"mode\": \"{}\", \"total_ns\": {}, \"overhead_pct\": {:.3}, \
                     \"range_pct\": [{:.3}, {:.3}]}}",
                    r.mode, r.total_ns, r.overhead_pct, r.range_pct.0, r.range_pct.1
                ));
            }
            doc.push_str("\n  ]");
        }
        doc.push_str("\n}\n");
        if let Err(e) = std::fs::write(path, doc) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!("[bench] wrote perf report to {}", path.display());
    }

    let gates = [perf::gate(reps, &current, gate.tolerance)];
    write_or_check("bench perf", gate.check, &gates)
}

/// Parses the flags the matrix subcommands (`bench sweep`, `bench
/// sanitize`) share into `cfg` and returns the matrix DSL tokens and
/// whether `--quiet` was given. Every other flag goes to `other`, which
/// takes any value from the remaining arguments and returns false for a
/// flag it does not know.
fn matrix_args<'a>(
    args: &'a [String],
    cfg: &mut SweepConfig,
    mut other: impl FnMut(&str, &mut std::slice::Iter<'a, String>, &mut SweepConfig) -> bool,
) -> (Vec<&'a str>, bool) {
    let mut dsl = Vec::new();
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => cfg.jobs = parse_count(&mut it, "--jobs"),
            "--store" => cfg.store_path = PathBuf::from(it.next().unwrap_or_else(|| usage(2))),
            "--resume" => cfg.resume = true,
            "--retries" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) => cfg.opts.retries = n,
                _ => usage(2),
            },
            "--timeout-s" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) if s >= 1 => cfg.opts.timeout = Some(Duration::from_secs(s)),
                _ => usage(2),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(0),
            flag if other(flag, &mut it, cfg) => {}
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag:?}");
                usage(2);
            }
            tok => dsl.push(tok),
        }
    }
    (dsl, quiet)
}

/// Parses the matrix DSL, or exits 2 with the usage text.
fn parse_matrix(dsl: &str) -> MatrixSpec {
    MatrixSpec::parse(dsl).unwrap_or_else(|e| {
        eprintln!("error: bad matrix: {e}");
        usage(2)
    })
}

fn cmd_sweep(args: &[String]) -> ! {
    let mut cfg = SweepConfig::default();
    let mut require_cached = false;
    let mut live_addr: Option<String> = None;
    let mut live_log: Option<PathBuf> = None;
    let mut epoch = Duration::from_millis(250);
    let (dsl, quiet) = matrix_args(args, &mut cfg, |flag, rest, cfg| {
        let mut value = || rest.next().unwrap_or_else(|| usage(2)).clone();
        match flag {
            "--retry-quarantined" => cfg.retry_quarantined = true,
            "--attrib-dir" => cfg.attrib_dir = Some(PathBuf::from(value())),
            "--trace-dir" => cfg.trace_dir = Some(PathBuf::from(value())),
            "--inject-panic" => cfg.opts.inject_panic = Some(value()),
            "--require-cached" => require_cached = true,
            "--live" => live_addr = Some(value()),
            "--live-log" => live_log = Some(PathBuf::from(value())),
            "--epoch-ms" => epoch = Duration::from_millis(parse_count(rest, "--epoch-ms") as u64),
            _ => return false,
        }
        true
    });
    if cfg.retry_quarantined && !cfg.resume {
        eprintln!("error: --retry-quarantined only makes sense with --resume");
        usage(2);
    }

    let matrix = parse_matrix(&dsl.join(" "));
    let cells = matrix.cells();
    eprintln!(
        "[sweep] {} cell(s), {} job(s), store {}",
        cells.len(),
        cfg.jobs,
        cfg.store_path.display()
    );

    // The observer stack. The wiring (registry + refresher) always
    // runs so per-cell lifecycle lands in one registry; the hub (HTTP
    // server and/or JSONL epoch log) only when asked for. Progress now
    // comes from the event recorder — one line per finished cell —
    // instead of the sweep driver's ETA lines, so the same summary is
    // printed with or without --live.
    let wiring = live::Wiring::start(epoch);
    let hub = if live_addr.is_some() || live_log.is_some() {
        let hub = Hub::start(
            wiring.registry.clone(),
            HubConfig {
                epoch,
                addr: live_addr,
                log_path: live_log,
            },
        )
        .unwrap_or_else(|e| fail(&format!("cannot start telemetry hub: {e}")));
        if let Some(addr) = hub.local_addr() {
            eprintln!("[sweep] live telemetry at http://{addr}/metrics | /snapshot | /events");
        }
        Some(hub)
    } else {
        None
    };
    cfg.events = Some(live::recorder(
        &wiring.registry,
        cells.len(),
        hub.as_ref().map(|h| h.handle()),
        !quiet,
    ));

    let t0 = std::time::Instant::now();
    let out = sweep(&matrix, &cfg).unwrap_or_else(|e| fail(&format!("sweep failed: {e}")));

    // Teardown order: ingest post-mortem trace gauges and critical-path
    // shares first so the final epoch sample (taken by hub.shutdown)
    // carries them, then a final counter mirror, then the hub's last
    // sample + `end` frame.
    wiring.ingest_traces(&out.gauges);
    wiring.ingest_critpaths(&out.critpaths);
    wiring.stop();
    if let Some(hub) = hub {
        hub.shutdown();
    }

    if out.dropped_lines > 0 {
        eprintln!(
            "[sweep] dropped {} torn/foreign store line(s); their cells re-ran",
            out.dropped_lines
        );
    }
    eprintln!(
        "[sweep] done in {:.1?}: {} cell(s) — executed {}, cached {}, quarantined {}",
        t0.elapsed(),
        out.records.len(),
        out.executed,
        out.cached,
        out.quarantined.len(),
    );
    if !out.quarantined.is_empty() {
        for label in &out.quarantined {
            let rec = out
                .records
                .iter()
                .find(|r| &r.label == label)
                .expect("quarantined label has a record");
            eprintln!(
                "[sweep] quarantined: {label} ({}{})",
                rec.status.name(),
                rec.error
                    .as_deref()
                    .map(|e| format!(": {e}"))
                    .unwrap_or_default()
            );
        }
        std::process::exit(1);
    }
    if require_cached && out.executed > 0 {
        eprintln!(
            "error: --require-cached, but {} cell(s) executed (resume cache miss)",
            out.executed
        );
        std::process::exit(2);
    }
    std::process::exit(0);
}

/// `bench serve`: run the sweep daemon until shutdown.
fn cmd_serve(args: &[String]) -> ! {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage(0);
    }
    let opts = match study_bench::daemon::ServeOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage(2);
        }
    };
    std::process::exit(study_bench::daemon::serve(opts));
}

/// `bench submit`: submit a matrix to a running daemon.
fn cmd_submit(args: &[String]) -> ! {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage(0);
    }
    let opts = match study_bench::daemon::SubmitOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage(2);
        }
    };
    std::process::exit(study_bench::daemon::submit(opts));
}

/// `bench top`: render the live dashboard from a `/snapshot` endpoint
/// or a `--live-log` JSONL file.
fn cmd_top(args: &[String]) -> ! {
    let mut addr: Option<String> = None;
    let mut log: Option<PathBuf> = None;
    let mut watch = false;
    let mut json = false;
    let mut interval = Duration::from_millis(1000);
    let mut count: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = Some(a.clone()),
                None => usage(2),
            },
            "--log" => match it.next() {
                Some(f) => log = Some(PathBuf::from(f)),
                None => usage(2),
            },
            "--watch" => watch = true,
            "--json" => json = true,
            "--interval-ms" => {
                interval = Duration::from_millis(parse_count(&mut it, "--interval-ms") as u64)
            }
            "--count" => count = Some(parse_count(&mut it, "--count")),
            "--help" | "-h" => usage(0),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                usage(2);
            }
        }
    }
    let fetch: Box<dyn Fn() -> Result<live::EpochRecord, String>> = match (&addr, &log) {
        (Some(a), None) => {
            let a = a.clone();
            Box::new(move || live::fetch_snapshot(&a))
        }
        (None, Some(p)) => {
            let p = p.clone();
            Box::new(move || live::last_log_record(&p))
        }
        _ => {
            eprintln!("error: top needs exactly one of --addr or --log");
            usage(2);
        }
    };

    let mut frames = 0usize;
    loop {
        match fetch() {
            Ok(rec) => {
                if json {
                    // Machine-readable one-shot / per-frame output: the
                    // epoch record in the exact JSONL shape the log and
                    // /snapshot use.
                    println!("{}", rec.to_json());
                } else {
                    if watch {
                        // Clear the screen and home the cursor between frames.
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{}", live::render_top(&rec));
                }
            }
            Err(e) if watch => eprintln!("[top] {e}"),
            Err(e) => fail(&e),
        }
        frames += 1;
        if !watch || count.is_some_and(|n| frames >= n) {
            std::process::exit(0);
        }
        std::thread::sleep(interval);
    }
}

/// `bench sanitize`: sweep the matrix with the happens-before sanitizer
/// on and gate on what it finds.
fn cmd_sanitize(args: &[String]) -> ! {
    let mut cfg = SweepConfig {
        store_path: PathBuf::from("sanitize_results.jsonl"),
        ..Default::default()
    };
    let mut out_path: Option<PathBuf> = None;
    let mut schedules: Option<u32> = None;
    let mut seed_base: Option<u64> = None;
    let (dsl, quiet) = matrix_args(args, &mut cfg, |flag, rest, _| {
        match flag {
            "--out" => out_path = Some(PathBuf::from(rest.next().unwrap_or_else(|| usage(2)))),
            "--schedules" => match rest.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) if n >= 1 => schedules = Some(n),
                _ => usage(2),
            },
            "--seed-base" => match rest.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => seed_base = Some(s),
                _ => usage(2),
            },
            _ => return false,
        }
        true
    });

    // Defaults first so the user's tokens override them; `sanitize=on`
    // (and the schedule flags, which are just DSL spellings) last so
    // they cannot be turned off — a clean exit must mean the sanitizer
    // actually looked at what was asked for.
    let mut dsl = format!("scale=quick procs=1,4,16 {} sanitize=on", dsl.join(" "));
    if let Some(n) = schedules {
        dsl.push_str(&format!(" schedules={n}"));
    }
    if let Some(s) = seed_base {
        dsl.push_str(&format!(" sched-seed={s}"));
    }
    let matrix = parse_matrix(&dsl);
    let cells = matrix.cells();
    eprintln!(
        "[sanitize] {} cell(s), {} job(s), store {}",
        cells.len(),
        cfg.jobs,
        cfg.store_path.display()
    );
    // The same per-cell progress lines as `bench sweep`, from the same
    // recorder, over a registry nothing else reads.
    cfg.events = Some(live::recorder(
        &ccnuma_telemetry::Registry::new(),
        cells.len(),
        None,
        !quiet,
    ));
    let t0 = std::time::Instant::now();
    let out = sweep(&matrix, &cfg).unwrap_or_else(|e| fail(&format!("sweep failed: {e}")));
    eprintln!(
        "[sanitize] done in {:.1?}: executed {}, cached {}, quarantined {}",
        t0.elapsed(),
        out.executed,
        out.cached,
        out.quarantined.len(),
    );

    // Per-cell verdicts. A missing count on an ok cell cannot happen
    // (sanitize=on is part of the run key), but if it ever does it must
    // read as a failure, not a silent pass.
    let mut missing = 0usize;
    for rec in &out.records {
        if rec.sanitize.is_none() && rec.status == ccnuma_sweep::store::CellStatus::Ok {
            eprintln!("[sanitize] {}: ok cell carries no report", rec.label);
            missing += 1;
        }
    }

    // Fold the schedule-seed axis: one row per base cell, findings
    // deduplicated across seeds with the seeds that exposed them.
    let seeded = matrix.schedules > 0 || matrix.sched_seed.is_some();
    let seed_rows = schedsan::seed_rows(&out.records);
    let dirty = seed_rows
        .iter()
        .filter(|r| r.seeds_with_findings > 0)
        .count();
    if seeded {
        println!("{}", schedsan::seed_table(&seed_rows));
    } else {
        let mut rows = Vec::new();
        for rec in &out.records {
            if let Some(counts) = rec.sanitize {
                rows.push((rec.app.clone(), rec.version.clone(), rec.nprocs, counts));
            }
        }
        println!("{}", scaling_study::report::sanitize_table(&rows));
    }

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, findings_json(&dsl, &out)) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!(
            "[sanitize] wrote findings ({} full report(s)) to {}",
            out.sanitizes.len(),
            path.display()
        );
    }

    let fmt_seeds = |seeds: &[Option<u64>]| {
        seeds
            .iter()
            .map(|s| s.map_or("default".into(), |s| s.to_string()))
            .collect::<Vec<_>>()
            .join(",")
    };
    for g in schedsan::group(&out.sanitizes) {
        if g.is_clean() {
            continue;
        }
        let [r, c, l] = g.counts();
        eprintln!(
            "[sanitize] {}: {r} race(s), {c} lock cycle(s), {l} lint(s) \
             across {} of {} schedule(s)",
            g.label,
            g.seeds_with_findings().len(),
            g.seeds_run.len(),
        );
        for f in &g.races {
            let r = &f.finding;
            eprintln!(
                "  race on {:#x}+{}: {} vs {} [seeds {}]",
                r.addr,
                r.bytes,
                r.prior,
                r.current,
                fmt_seeds(&f.seeds)
            );
        }
        for f in &g.cycles {
            eprintln!(
                "  lock cycle: {:?} [seeds {}]",
                f.finding.locks,
                fmt_seeds(&f.seeds)
            );
        }
        for f in &g.lints {
            eprintln!(
                "  {}: {} [seeds {}]",
                f.finding.kind.name(),
                f.finding.message,
                fmt_seeds(&f.seeds)
            );
        }
    }
    if !out.quarantined.is_empty() {
        for label in &out.quarantined {
            eprintln!("[sanitize] quarantined: {label}");
        }
    }
    // Infrastructure failures (a cell that never produced a verdict)
    // exit 2; sanitizer findings — a real verdict — exit 1. Infra wins
    // when both happen: the finding list is incomplete.
    if missing > 0 || !out.quarantined.is_empty() {
        eprintln!(
            "[sanitize] FAIL (infrastructure): {missing} missing report(s), {} quarantined \
             ({dirty} cell(s) with findings so far)",
            out.quarantined.len()
        );
        std::process::exit(2);
    }
    if dirty > 0 {
        eprintln!("[sanitize] FAIL: {dirty} cell(s) with findings");
        std::process::exit(1);
    }
    eprintln!(
        "[sanitize] OK: {} cell(s) race-free{}",
        seed_rows.len(),
        if seeded {
            format!(
                " across {} schedule run(s)",
                seed_rows.iter().map(|r| r.seeds_run).sum::<usize>()
            )
        } else {
            String::new()
        }
    );
    std::process::exit(0);
}

/// The `--out` findings document: counts per cell plus every full
/// report produced this invocation.
fn findings_json(dsl: &str, out: &ccnuma_sweep::SweepOutcome) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n");
    s.push_str(&format!("  \"matrix\": {},\n", quote(dsl)));
    s.push_str("  \"cells\": [");
    for (i, rec) in out.records.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let counts = rec
            .sanitize
            .map(|[r, c, l]| format!("[{r}, {c}, {l}]"))
            .unwrap_or_else(|| "null".into());
        s.push_str(&format!(
            "\n    {{\"label\": {}, \"status\": \"{}\", \"sanitize\": {counts}}}",
            quote(&rec.label),
            rec.status.name()
        ));
    }
    s.push_str("\n  ],\n  \"reports\": [");
    for (i, (label, rep)) in out.sanitizes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str(scaling_study::report::sanitize_json(label, rep).trim_end());
    }
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::parse_tolerance;

    #[test]
    fn tolerance_is_a_finite_non_negative_percentage() {
        assert_eq!(parse_tolerance("2.5"), Some(0.025));
        assert_eq!(parse_tolerance("0"), Some(0.0));
        for bad in ["inf", "infinity", "1e999", "NaN", "-1", "x", ""] {
            assert_eq!(parse_tolerance(bad), None, "{bad:?}");
        }
    }
}
