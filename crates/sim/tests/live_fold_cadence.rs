//! A run folds its counter growth into the process-wide live counters
//! once every 4096 engine events and once at its end, never more often.
//!
//! One test only: the live counters and the host profiler's pool are
//! global, so no other engine may run in this process while it compares
//! snapshots.

use std::sync::{Arc, Mutex};

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::live::LIVE;
use ccnuma_sim::machine::{Machine, Placement};
use ccnuma_sim::prof::{self, Region};

/// Engine events between two mid-run folds.
const FLUSH_EVERY: u64 = 4096;

#[test]
fn live_counters_fold_every_4096_events_and_at_run_end() {
    let mut cfg = MachineConfig::origin2000_scaled(2, 16 << 10);
    cfg.profile = true;
    let mut m = Machine::new(cfg).unwrap();
    let x = m.shared_vec::<u64>(64, Placement::Blocked);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen_in = Arc::clone(&seen);

    let before = LIVE.snapshot();
    let folds_before = prof::cumulative().1[Region::LiveFlush as usize];
    let stats = m
        .run(move |ctx| {
            for i in 0..5000 {
                x.write(ctx, ctx.id(), i);
                ctx.flush();
                seen_in.lock().unwrap().push(LIVE.snapshot().events);
            }
        })
        .unwrap();
    let after = LIVE.snapshot();
    let folds = prof::cumulative().1[Region::LiveFlush as usize] - folds_before;

    assert!(stats.events > 2 * FLUSH_EVERY, "{} events", stats.events);
    // Mid-run folds happen after every FLUSH_EVERY processed events, the
    // first after event FLUSH_EVERY; the end fold (not a profiled span)
    // carries the remainder.
    assert_eq!(folds, (stats.events - 1) / FLUSH_EVERY);
    let seen = seen.lock().unwrap();
    for &e in seen.iter() {
        assert_eq!((e - before.events) % FLUSH_EVERY, 0, "fold off cadence");
    }
    assert!(
        seen.iter().any(|&e| e > before.events),
        "no fold was visible mid-run"
    );
    assert_eq!(after.events - before.events, stats.events);
    let accesses: u64 = stats.procs.iter().map(|p| p.accesses()).sum();
    assert_eq!(after.accesses - before.accesses, accesses);
    assert_eq!(after.runs_finished - before.runs_finished, 1);
}
