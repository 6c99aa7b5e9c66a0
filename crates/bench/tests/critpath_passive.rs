//! The critical-path profiler, end to end at the bench level: the
//! observer-passivity pin (`cfg.critpath` on or off, a run is
//! bit-identical — which is what lets `bench regress` take both accuracy
//! baselines from one pass with the collector on), and the invariants its
//! `BENCH_critpath.json` gate relies on — the path partitioning the wall
//! and the what-if projections bracketing it — over a real matrix cell.

use ccnuma_sweep::matrix::MatrixSpec;
use scaling_study::runner::execute_workload;

/// The pin the tentpole stands on: `critpath` observes the dependency
/// structure of the run and never participates in it. The same cell
/// with the knob off and on must produce the same machine fingerprint
/// (and so the same RunKey), the same virtual wall clock, and
/// bit-identical `RunStats` once the report itself is set aside —
/// while the profiled run actually collects a path.
#[test]
fn critpath_knob_is_observer_passive() {
    let spec = MatrixSpec::parse("apps=ocean versions=orig procs=4")
        .unwrap()
        .cells()
        .remove(0);
    let w = spec.workload().unwrap();
    let cfg_off = spec.machine();
    let mut cfg_on = spec.machine();
    cfg_on.critpath = true;
    assert_eq!(
        cfg_off.stable_fingerprint(),
        cfg_on.stable_fingerprint(),
        "critpath is excluded from the stable fingerprint (RunKey)"
    );

    let (ns_off, stats_off) = execute_workload(w.as_ref(), cfg_off).expect("bare run");
    let (ns_on, mut stats_on) = execute_workload(w.as_ref(), cfg_on).expect("profiled run");
    assert_eq!(ns_off, ns_on, "wall clock must not see the profiler");
    assert!(stats_off.critpath.is_none(), "critpath off records nothing");
    let rep = stats_on.critpath.take().expect("critpath on collects");
    assert_eq!(stats_off, stats_on, "RunStats must be bit-identical");

    // The collected report satisfies the reconciliation the gate
    // relies on: the path partitions the wall to the nanosecond and
    // every projection is bracketed by [busy bound, measured].
    assert_eq!(rep.wall_ns, ns_on);
    assert_eq!(rep.total.total_ns(), ns_on, "path sums to wall");
    let measured = rep
        .whatif
        .iter()
        .find(|s| s.name == "measured")
        .expect("measured scenario");
    assert_eq!(measured.wall_ns, ns_on, "replay reproduces the wall");
    let busy_bound = stats_on.procs.iter().map(|p| p.busy_ns).max().unwrap();
    for s in &rep.whatif {
        assert!(s.wall_ns <= ns_on, "{}: projection ≤ measured", s.name);
        assert!(
            s.wall_ns >= busy_bound,
            "{}: projection ≥ busy bound",
            s.name
        );
    }
}
