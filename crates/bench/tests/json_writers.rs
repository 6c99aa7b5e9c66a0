//! Every JSON writer in the workspace, read back through the one reader,
//! [`ccnuma_sim::json::parse`]. The strings carry `"`, `\`, every
//! control character U+0000–U+001F and non-ASCII text, so a writer that
//! leaves anything raw, or a reader that decodes an escape wrongly,
//! fails here. This crate also sees both escapers the crate graph allows
//! (the simulator's and the telemetry crate's) and pins them together.

use ccnuma_sim::json::{self, Value};
use ccnuma_sim::prelude::*;
use ccnuma_sim::trace::chrome_trace_file;
use ccnuma_sweep::events::ExecEvent;
use ccnuma_sweep::store::{CellRecord, CellStatus};
use ccnuma_sweepd::{client, jobs::Job};
use ccnuma_telemetry::expo::{self, esc_json};
use ccnuma_telemetry::Registry;
use scaling_study::report;
use study_bench::live::{self, EpochRecord};
use study_bench::{critpath, perf, regress};

/// `"`, `\`, U+0000–U+001F and non-ASCII text in one string.
fn nasty() -> String {
    let ctl: String = (0u8..0x20).map(char::from).collect();
    format!("{ctl}q\"b\\s näïve — 日本 🚀")
}

/// Whether `s` occurs intact in a string value or object key of `v`.
fn holds(v: &Value, s: &str) -> bool {
    match v {
        Value::Str(x) => x.contains(s),
        Value::Array(items) => items.iter().any(|i| holds(i, s)),
        Value::Object(members) => members.iter().any(|(k, x)| k.contains(s) || holds(x, s)),
        _ => false,
    }
}

fn record(s: &str) -> CellRecord {
    let [key, label, app, version, problem, scale] = [s; 6].map(str::to_string);
    CellRecord {
        key,
        label,
        app,
        version,
        problem,
        scale,
        status: CellStatus::Panicked,
        causes: [1, 2, 3, 4, u64::MAX],
        sanitize: Some([0, 1, 2]),
        critpath: Some([3, 4, 5]),
        error: Some(format!("panicked at {{[{s}]}}")),
        ..CellRecord::default()
    }
}

/// A small traced, attributed, sanitized, critical-path-profiled run
/// whose phase is named `s`.
fn run(s: &str) -> RunStats {
    let mut cfg = MachineConfig::origin2000_scaled(2, 16 << 10);
    cfg.trace = TraceConfig::on();
    cfg.classify_misses = true;
    cfg.sanitize = SanitizeConfig::on();
    cfg.critpath = true;
    let mut m = Machine::new(cfg).unwrap();
    let data = m.shared_vec::<u64>(64, Placement::Blocked);
    let bar = m.barrier();
    let phase = s.to_string();
    m.run(move |ctx| {
        ctx.phase(&phase);
        for i in 0..64 {
            data.write(ctx, i, i as u64);
        }
        ctx.barrier(bar);
    })
    .unwrap()
}

#[test]
fn every_writer_reads_back_through_json_parse() {
    let s = nasty();
    let st = run(&s);
    let (trace, cp) = (st.trace.as_ref().unwrap(), st.critpath.as_ref().unwrap());
    let job = Job {
        id: 3,
        dsl: s.clone(),
        labels: vec![s.clone(), "b".into()],
        keys: vec!["k".into(), "k2".into()],
        records: vec![Some(record(&s)), None],
        cached: 1,
        executed: 0,
        subscribers: Vec::new(),
    };
    let attrib = vec![regress::RegressEntry {
        app: s.clone(),
        problem: s.clone(),
        nprocs: 4,
        wall_ns: 1,
        mem_stall_ns: 2,
        queue_ns: 3,
        misses: 4,
        causes: [5, 6, 7, 8, u64::MAX],
    }];
    let engine = vec![perf::PerfEntry {
        app: s.clone(),
        problem: s.clone(),
        nprocs: 8,
        events: 10,
        ns_per_event: 11,
    }];
    let crit = vec![critpath::CritEntry {
        app: s.clone(),
        problem: s.clone(),
        nprocs: 2,
        wall_ns: 7,
        path: [1; 7],
        whatif: [7, 6, 5, 4, 3, 2],
    }];
    let epoch = EpochRecord {
        seq: 4,
        t_ms: 9,
        metrics: vec![(s.clone(), Some(1.5)), ("gone".into(), None)],
    };
    // The hub's epoch record, as `/snapshot` and the live log carry it.
    let reg = Registry::new();
    reg.counter_with("c_total", &[("k", &s)], "h").add(3);
    let metrics = expo::json(&reg.snapshot());
    let hub_epoch = format!("{{\"seq\":1,\"t_ms\":2,\"metrics\":{metrics}}}");
    let retried = ExecEvent::Retried {
        label: s.clone(),
        attempt: 1,
        error: s.clone(),
    };

    let docs = [
        ("store line", record(&s).to_json_line()),
        ("BENCH_attrib.json", regress::to_json(&attrib)),
        ("BENCH_engine.json", perf::to_json(3, &engine)),
        ("BENCH_critpath.json", critpath::to_json(&crit)),
        ("job JSON", job.to_json()),
        ("cell event", retried.to_json()),
        ("epoch record", epoch.to_json()),
        ("hub epoch record", hub_epoch),
        (
            "Chrome trace file",
            chrome_trace_file(&[(s.clone(), trace)]),
        ),
        ("Trace::to_chrome_json", trace.to_chrome_json(&s)),
        ("CritReport::to_chrome_json", cp.to_chrome_json(&s)),
        ("attrib_json", report::attrib_json(&s, &st)),
        ("critpath_json", report::critpath_json(&s, cp)),
        (
            "sanitize_json",
            report::sanitize_json(&s, st.sanitize.as_ref().unwrap()),
        ),
    ];
    for (writer, doc) in &docs {
        let v = json::parse(doc).unwrap_or_else(|e| panic!("{writer}: {e}\n{doc}"));
        assert!(holds(&v, &s), "{writer}: string lost or mangled\n{doc}");
        let raw = doc.trim_end().bytes().any(|b| b < 0x20 && b != b'\n');
        assert!(!raw, "{writer}: raw control character\n{doc}");
    }

    // One record per physical line, and every typed reader inverts its
    // writer exactly.
    assert!(!docs[0].1.contains('\n'));
    assert_eq!(CellRecord::parse_line(&docs[0].1), Ok(record(&s)));
    assert_eq!(regress::parse(&docs[1].1), Ok(attrib));
    let model = ccnuma_sim::MODEL_FINGERPRINT.to_string();
    assert_eq!(perf::parse(&docs[2].1), Ok((model, 3, engine)));
    assert_eq!(critpath::parse(&docs[3].1), Ok(crit));
    let status = client::JobStatus {
        job: 3,
        total: 2,
        cached: 1,
        executed: 0,
        done: 1,
        complete: false,
        quarantined: vec![s.clone()],
        records: job.records.clone(),
    };
    assert_eq!(client::parse_job_status(&docs[4].1), Ok(status));
    assert_eq!(live::parse_epoch_record(&docs[6].1), Some(epoch));
    let hub = live::parse_epoch_record(&docs[7].1).unwrap();
    assert_eq!(
        hub.get(&format!("c_total{{k={s}}}")),
        Some(3.0),
        "bench top reads hub keys"
    );
}

#[test]
fn committed_baselines_rewrite_byte_for_byte() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).unwrap();
    let doc = read("BENCH_attrib.json");
    assert_eq!(regress::to_json(&regress::parse(&doc).unwrap()), doc);
    let doc = read("BENCH_critpath.json");
    assert_eq!(critpath::to_json(&critpath::parse(&doc).unwrap()), doc);
    let doc = read("BENCH_engine.json");
    let (_, reps, entries) = perf::parse(&doc).unwrap();
    assert_eq!(perf::to_json(reps, &entries), doc);
}

#[test]
fn the_two_escapers_agree_byte_for_byte() {
    let multibyte = ['é', '—', '日', '🚀', '\u{7ff}', '\u{ffff}'];
    for c in (0u8..=0x7f).map(char::from).chain(multibyte) {
        let s = format!("a{c}b");
        let telemetry = format!("\"{}\"", esc_json(&s));
        assert_eq!(json::quote(&s), telemetry, "U+{:04X}", c as u32);
    }
}
