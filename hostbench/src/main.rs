//! The repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <sweep_full|repro_quick|serve_warm|observers_on> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics. `--trace 1` runs one untraced pass of the workload, then a
//! traced pass of every workload, and reports the per-layer metrics
//! (each defined on the workload named in `hostbench/METRICS.md`), the
//! self time per layer and the tracing overhead. Either way every
//! simulated result is checked against `expected/`, and the last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Spans of a traced run are written to
//! `.hostbench_out/<workload>.spans.jsonl`.
//!
//! `--bless` rewrites `expected/` from the current model.

mod cells;
mod oracle;
mod procfs;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Duration;

use workloads::{Ctx, Report, Rng};

/// The workloads this binary runs. `BENCHMARK.json` lists the two
/// whose figures hold steady on a shared host; the traced run covers all.
const WORKLOADS: [&str; 4] = ["sweep_full", "repro_quick", "serve_warm", "observers_on"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    fixture: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         hostbench --bless",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bless: false,
        fixture: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--bless" => a.bless = true,
            "--build-fixture" => a.fixture = Some(PathBuf::from(value())),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if !a.bless && a.fixture.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        usage(&format!("unknown workload {:?}", a.workload));
    }
    a
}

/// Every workload traced; per-layer metrics, ledgers and the overhead
/// of tracing `workload` against one untraced pass of it.
fn traced(ctx: &Ctx, workload: &str) -> Report {
    let mut rng = Rng::new(ctx.seed);
    let mut r = Report::default();
    let mut overhead = f64::NAN;
    let mut pct = |traced_s: f64, untraced_s: f64| {
        overhead = (traced_s - untraced_s) / untraced_s * 100.0;
    };
    let out = Path::new(".hostbench_out");
    let mut all_spans = Vec::new();

    let untraced = |w: &str, rng: &mut Rng, r: &mut Report| {
        (workload == w).then(|| workloads::untraced_once(ctx, w, rng, r))
    };
    let u = untraced("sweep_full", &mut rng, &mut r);
    let (store, wall, spans) = workloads::traced_sweep_full(ctx, &mut rng, &mut r);
    if let Some(u) = u {
        pct(wall, u);
    }
    r.put_ledger("sweep_full", &spans, &workloads::SIM_LAYERS);
    all_spans.push(("sweep_full", spans));

    let u = untraced("repro_quick", &mut rng, &mut r);
    let (wall, spans) = workloads::traced_repro(&mut rng, &mut r);
    if let Some(u) = u {
        pct(wall, u);
    }
    r.put_ledger("repro_quick", &spans, &workloads::REPRO_LAYERS);
    all_spans.push(("repro_quick", spans));

    let u = untraced("observers_on", &mut rng, &mut r);
    let (wall, spans) = workloads::traced_observers(ctx, &mut rng, &mut r);
    if let Some(u) = u {
        pct(wall, u);
    }
    r.put_ledger("observers_on", &spans, &workloads::OBSERVER_LAYERS);
    all_spans.push(("observers_on", spans));

    // The traced sweep's store plus the quick matrix is the warm store.
    serve::append_quick(&store, &mut rng, ctx.jobs);
    let (wall, u, spans) =
        serve::traced_serve(ctx, &mut rng, &store, workload == "serve_warm", &mut r);
    if let Some(u) = u {
        pct(wall, u);
    }
    r.put_ledger("serve_warm", &spans, &serve::SERVE_LAYERS);
    all_spans.push(("serve_warm", spans));

    r.put("bench.trace_overhead_pct", overhead, "%");
    for (name, spans) in all_spans {
        let path = out.join(format!("{name}.spans.jsonl"));
        if let Err(e) = spans::write_jsonl(&path, &spans) {
            eprintln!("[hostbench] cannot write {}: {e}", path.display());
        }
    }
    r
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let name = if args.bless { "bless" } else { args.workload.as_str() };
    let tmp = Path::new(".hostbench_tmp").join(format!("{name}-{}", std::process::id()));
    if let Some(store) = &args.fixture {
        serve::build_fixture(store, args.seed, jobs);
        return;
    }
    std::fs::create_dir_all(&tmp).expect("create scratch directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds.max(0.0)),
        jobs,
        tmp: tmp.clone(),
    };
    if args.bless {
        let res = workloads::bless(&ctx);
        let _ = std::fs::remove_dir_all(&tmp);
        res.expect("bless");
        return;
    }
    let report = if args.trace {
        traced(&ctx, &args.workload)
    } else {
        match args.workload.as_str() {
            "sweep_full" => workloads::sweep_full(&ctx),
            "repro_quick" => workloads::repro_quick(&ctx),
            "serve_warm" => serve::serve_warm(&ctx),
            "observers_on" => workloads::observers_on(&ctx),
            _ => unreachable!("workload validated"),
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".hostbench_tmp");

    let t = &report.tally;
    println!(
        "# hostbench workload={} seed={} trace={} jobs={jobs}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "{:<40} {:>16.6} ratio ({} failed of {} attempted)",
        "fail_frac",
        t.fail_frac(),
        t.failed,
        t.attempted
    );
    for why in &t.reasons {
        eprintln!("[hostbench] failure: {why}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
}
