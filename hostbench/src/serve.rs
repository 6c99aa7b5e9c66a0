//! `serve_warm`: a `ccnuma-sweepd` daemon over a warm store, driven by
//! closed-loop clients. No simulation runs while it is measured.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use ccnuma_sweep::store::{CellRecord, Store};
use ccnuma_sweepd::server::{Daemon, DaemonConfig};
use ccnuma_telemetry::registry::Registry;
use scaling_study::experiments::APP_IDS;

use crate::cells::{expand, sweep_pass};
use crate::procfs::{Delta, Sample};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, percentile, sorted, tail_ok, Tally};
use crate::workloads::{full_dsl, put_end_to_end, Ctx, Report, Rng, SETUP_REPS};

/// Requests per pass, split over the clients.
pub const PASS_REQUESTS: usize = 1000;

/// `GET /cell` requests per round (after one `POST /sweep` and one
/// `GET /jobs/<id>`).
const CELLS_PER_ROUND: usize = 3;

/// Requests per client round.
const ROUND: usize = 2 + CELLS_PER_ROUND;

/// Set-up repetitions of the daemon start.
const START_REPS: usize = 5;

/// Fills the store at `path` with the full and quick matrices, the
/// full one's apps in seeded order. Run in a child process so that its
/// memory does not count in the serving process's peak.
pub fn build_fixture(path: &Path, seed: u64, jobs: usize) {
    let mut rng = Rng::new(seed);
    sweep_pass(&full_dsl(&mut rng), jobs, path, None);
    append_quick(path, &mut rng, jobs);
}

/// Appends the quick matrix's records, apps in seeded order, to the
/// store at `path`.
pub fn append_quick(path: &Path, rng: &mut Rng, jobs: usize) {
    let quick = format!(
        "scale=quick apps={} versions=both",
        rng.shuffled(APP_IDS).join(",")
    );
    // A fresh sweep truncates its store, so sweep into a second file.
    let tmp = path.with_extension("quick.jsonl");
    sweep_pass(&quick, jobs, &tmp, None);
    let text = std::fs::read_to_string(&tmp).expect("read quick store");
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .expect("append quick records");
    let _ = std::fs::remove_file(&tmp);
}

/// Runs [`build_fixture`] in a child process of this binary.
fn fixture_in_child(ctx: &Ctx, path: &Path) {
    let exe = std::env::current_exe().expect("own executable");
    let status = std::process::Command::new(exe)
        .arg("--build-fixture")
        .arg(path)
        .args(["--seed", &ctx.seed.to_string()])
        .status()
        .expect("spawn fixture process");
    assert!(status.success(), "fixture process failed: {status}");
}

/// The warm store as the clients must see it.
struct Warm {
    /// Store line of every record, by key.
    lines: HashMap<String, String>,
    /// Matrices to submit, each with its cells' keys in matrix order.
    matrices: Vec<(String, Vec<String>)>,
}

impl Warm {
    fn load(path: &Path) -> Warm {
        let text = std::fs::read_to_string(path).expect("read warm store");
        let lines: HashMap<String, String> = text
            .lines()
            .filter_map(|l| CellRecord::parse_line(l).ok().map(|r| (r.key, l.to_string())))
            .collect();
        let mut matrices = Vec::new();
        for scale in ["quick", "full"] {
            for app in APP_IDS {
                let dsl = format!("scale={scale} apps={app} versions=both");
                let keys = expand(&dsl).iter().map(|c| c.key().hash_hex()).collect();
                matrices.push((dsl, keys));
            }
        }
        Warm { lines, matrices }
    }
}

/// One request as a client saw it.
#[derive(Debug, Clone)]
struct ReqSample {
    route: &'static str,
    total_ms: f64,
    connect_ms: f64,
    bytes: usize,
}

/// One HTTP/1.1 round trip on a fresh connection (as the daemon's own
/// client makes them). Returns status, body, connect ms and bytes read.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String, f64, usize), String> {
    let t = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: sweepd\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .and_then(|()| s.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).map_err(|e| format!("read: {e}"))?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad response head {:?}", raw.lines().next()))?;
    let body = raw.find("\r\n\r\n").map_or("", |i| &raw[i + 4..]).to_string();
    Ok((status, body, connect_ms, raw.len()))
}

fn num_field(body: &str, name: &str) -> Option<u64> {
    let at = body.find(&format!("\"{name}\":"))? + name.len() + 3;
    let digits: String = body[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// What one client did in a pass.
#[derive(Default)]
struct ClientOut {
    samples: Vec<ReqSample>,
    tally: Tally,
    cells: u64,
    cached: u64,
}

/// One client: `rounds` of submit, job fetch and cell fetches, each
/// reply checked against the store's own lines.
fn client(
    addr: SocketAddr,
    warm: &Warm,
    rng: &mut Rng,
    rounds: usize,
    rec: Option<(&Recorder, u64)>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let call = |out: &mut ClientOut, route: &'static str, method: &str, path: &str, body: &str| {
        let t = Instant::now();
        let res = match rec {
            Some((r, root)) => r.span(&format!("sweepd:{route}"), Some(root), path, |_| {
                http(addr, method, path, body)
            }),
            None => http(addr, method, path, body),
        };
        let total_ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok((200, body, connect_ms, bytes)) => {
                out.samples.push(ReqSample {
                    route,
                    total_ms,
                    connect_ms,
                    bytes,
                });
                Some(body)
            }
            Ok((code, body, ..)) => {
                out.tally
                    .record(Err(format!("{method} {path}: {code}: {}", body.trim())));
                None
            }
            Err(e) => {
                out.tally.record(Err(format!("{method} {path}: {e}")));
                None
            }
        }
    };
    let check = |out: &mut ClientOut, f: &dyn Fn() -> Result<(), String>| {
        let res = match rec {
            Some((r, root)) => r.span("bench:check", Some(root), "", |_| f()),
            None => f(),
        };
        out.tally.record(res);
    };
    for _ in 0..rounds {
        let (dsl, keys) = &warm.matrices[rng.below(warm.matrices.len())];
        let Some(body) = call(&mut out, "post_sweep", "POST", "/sweep", dsl) else {
            continue;
        };
        let (job, cells, cached) = (
            num_field(&body, "job"),
            num_field(&body, "cells").unwrap_or(0),
            num_field(&body, "cached").unwrap_or(0),
        );
        out.cells += cells;
        out.cached += cached;
        check(&mut out, &|| {
            if cells == keys.len() as u64 && cached == cells && body.contains("\"complete\":true") {
                Ok(())
            } else {
                Err(format!("POST /sweep {dsl:?}: not all cached: {}", body.trim()))
            }
        });
        let Some(job) = job else { continue };
        let path = format!("/jobs/{job}");
        if let Some(body) = call(&mut out, "get_job", "GET", &path, "") {
            check(&mut out, &|| {
                let st = ccnuma_sweepd::client::parse_job_status(&body)?;
                if !st.complete || st.records.len() != keys.len() {
                    return Err(format!("{path}: incomplete job"));
                }
                for (rec, key) in st.records.iter().zip(keys) {
                    let got = rec.as_ref().map(CellRecord::to_json_line);
                    if got.as_deref() != warm.lines.get(key).map(String::as_str) {
                        return Err(format!("{path}: record {key} differs from the store"));
                    }
                }
                Ok(())
            });
        }
        for _ in 0..CELLS_PER_ROUND {
            let key = &keys[rng.below(keys.len())];
            let path = format!("/cell/{key}");
            if let Some(body) = call(&mut out, "get_cell", "GET", &path, "") {
                check(&mut out, &|| {
                    if Some(body.trim()) == warm.lines.get(key).map(String::as_str) {
                        Ok(())
                    } else {
                        Err(format!("{path}: reply differs from the store line"))
                    }
                });
            }
        }
    }
    out
}

/// One pass: the clients, in parallel, [`PASS_REQUESTS`] requests in all.
fn pass(
    ctx: &Ctx,
    addr: SocketAddr,
    warm: &Warm,
    rng: &mut Rng,
    rec: Option<&Recorder>,
) -> (Delta, ClientOut) {
    let rounds = PASS_REQUESTS / ROUND / ctx.jobs;
    let seeds: Vec<u64> = (0..ctx.jobs).map(|_| rng.next_u64()).collect();
    let before = Sample::now();
    let run = |root: Option<u64>| {
        std::thread::scope(|s| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let rec = rec.zip(root);
                    s.spawn(move || client(addr, warm, &mut Rng::new(seed), rounds, rec))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    };
    let outs = match rec {
        Some(r) => r.span_lanes("unattributed:pass", None, "serve_warm", ctx.jobs as u32, |root| {
            run(Some(root))
        }),
        None => run(None),
    };
    let delta = before.delta(&Sample::now());
    let mut all = ClientOut::default();
    for o in outs {
        all.samples.extend(o.samples);
        all.tally.merge(o.tally);
        all.cells += o.cells;
        all.cached += o.cached;
    }
    (delta, all)
}

/// Starts the daemon on `store` and waits for a healthy `/healthz`.
/// Returns it with the seconds that took.
fn start(store: &Path) -> (Daemon, f64) {
    let t = Instant::now();
    let cfg = DaemonConfig {
        store_path: store.to_path_buf(),
        ..DaemonConfig::default()
    };
    let d = Daemon::start(cfg, Registry::new()).expect("start daemon");
    let addr = d.local_addr();
    loop {
        if let Ok((200, ..)) = http(addr, "GET", "/healthz", "") {
            break;
        }
        assert!(t.elapsed() < Duration::from_secs(30), "daemon never healthy");
        std::thread::sleep(Duration::from_millis(1));
    }
    (d, t.elapsed().as_secs_f64())
}

fn stop(d: Daemon) {
    d.request_shutdown();
    d.join().expect("daemon shutdown");
}

/// Median seconds of [`START_REPS`] daemon starts up to a healthy
/// `/healthz`.
fn setup_s(store: &Path) -> f64 {
    let times: Vec<f64> = (0..START_REPS)
        .map(|_| {
            let (d, s) = start(store);
            stop(d);
            s
        })
        .collect();
    median(&times)
}

/// The untraced `serve_warm` workload. Each pass gets a freshly started
/// daemon (not timed): the daemon keeps every job it accepted, so one
/// daemon per run would tie its memory to how many requests the run
/// happened to fit in.
pub fn serve_warm(ctx: &Ctx) -> Report {
    let mut rng = Rng::new(ctx.seed);
    let store = ctx.tmp.join("warm.jsonl");
    fixture_in_child(ctx, &store);
    let warm = Warm::load(&store);
    let setup_s = setup_s(&store);
    let mut r = Report::default();
    let mut ms = Vec::new();
    let passes = crate::workloads::repeat(ctx, |_| {
        let (daemon, _) = start(&store);
        let (p, out) = pass(ctx, daemon.local_addr(), &warm, &mut rng, None);
        stop(daemon);
        r.tally.merge(out.tally);
        ms.extend(out.samples.iter().map(|s| s.total_ms));
        p
    });
    if !tail_ok(ms.len(), 0.99) {
        let n = ms.len();
        r.tally
            .record(Err(format!("only {n} requests: too few for a p99")));
    }
    put_end_to_end(&mut r, setup_s, &passes);
    let ms = sorted(&ms);
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    r.put("req_per_s", ms.len() as f64 / wall, "1/s");
    r.put("req_p50_ms", percentile(&ms, 0.50), "ms");
    r.put("req_p99_ms", percentile(&ms, 0.99), "ms");
    r
}

fn route_ms(samples: &[ReqSample], route: &str) -> Vec<f64> {
    sorted(
        &samples
            .iter()
            .filter(|s| s.route == route)
            .map(|s| s.total_ms)
            .collect::<Vec<_>>(),
    )
}

/// The traced `serve_warm` passes over the warm store at `store`
/// (already filled). Also runs one untraced pass when `untraced` is
/// set. Returns (traced pass wall, untraced pass wall, spans).
pub fn traced_serve(
    ctx: &Ctx,
    rng: &mut Rng,
    store: &Path,
    untraced: bool,
    r: &mut Report,
) -> (f64, Option<f64>, Vec<Span>) {
    let opens: Vec<f64> = (0..SETUP_REPS * 2)
        .map(|_| {
            let t = Instant::now();
            let s = Store::open(store, true).expect("open warm store");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(s);
            ms
        })
        .collect();
    let warm = Warm::load(store);
    let s = Store::open(store, true).expect("open warm store");
    let keys: Vec<&String> = warm.lines.keys().collect();
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        for k in &keys {
            std::hint::black_box(s.get(k));
        }
    }
    let get_us = t.elapsed().as_secs_f64() * 1e6 / (reps * keys.len()) as f64;
    drop(s);

    let (daemon, _) = start(store);
    let addr = daemon.local_addr();
    let untraced_s = untraced.then(|| {
        let (p, out) = pass(ctx, addr, &warm, rng, None);
        r.tally.merge(out.tally);
        p.wall_s
    });
    let rec = Recorder::default();
    let mut samples = Vec::new();
    let (mut walls, mut cells, mut cached) = (Vec::new(), 0, 0);
    // Enough passes for a p99 of the rarest route.
    while route_ms(&samples, "post_sweep").len() < 1000 {
        let (p, out) = pass(ctx, addr, &warm, rng, Some(&rec));
        walls.push(p.wall_s);
        samples.extend(out.samples);
        r.tally.merge(out.tally);
        cells += out.cells;
        cached += out.cached;
    }
    stop(daemon);

    r.put("sweep.store_open_ms", median(&opens), "ms");
    r.put("sweep.store_get_us", get_us, "us");
    r.put(
        "sweep.cache_hit_ratio.serve_warm",
        cached as f64 / cells.max(1) as f64,
        "ratio",
    );
    for route in ["post_sweep", "get_job", "get_cell"] {
        let ms = route_ms(&samples, route);
        r.put(format!("sweepd.{route}_ms.p50"), percentile(&ms, 0.5), "ms");
        r.put(format!("sweepd.{route}_ms.p99"), percentile(&ms, 0.99), "ms");
        if !tail_ok(ms.len(), 0.99) {
            r.tally
                .record(Err(format!("{route}: {} samples, too few for a p99", ms.len())));
        }
    }
    let connect = sorted(&samples.iter().map(|s| s.connect_ms).collect::<Vec<_>>());
    r.put("sweepd.connect_ms.p50", percentile(&connect, 0.5), "ms");
    r.put(
        "sweepd.resp_bytes",
        samples.iter().map(|s| s.bytes as f64).sum::<f64>() / samples.len() as f64,
        "bytes",
    );
    (median(&walls), untraced_s, rec.spans())
}

/// Layers the `serve_warm` ledger always reports.
pub const SERVE_LAYERS: [&str; 3] = [spans::UNATTRIBUTED, "sweepd", "bench"];
