//! Failed runs still reach the process-wide live counters.
//!
//! One test only: the counters are global, so no other engine may run in
//! this process while it compares snapshots.

use ccnuma_sim::config::MachineConfig;
use ccnuma_sim::error::SimError;
use ccnuma_sim::live::LIVE;
use ccnuma_sim::machine::{Machine, Placement};

#[test]
fn failed_runs_are_counted_and_flushed() {
    let before = LIVE.snapshot();

    let mut m = Machine::new(MachineConfig::origin2000_scaled(2, 16 << 10)).unwrap();
    let b = m.barrier();
    let err = m
        .run(move |ctx| {
            ctx.compute_ops(10);
            if ctx.id() == 0 {
                ctx.barrier(b);
            }
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock(_)), "{err}");

    let mut m = Machine::new(MachineConfig::origin2000_scaled(2, 16 << 10)).unwrap();
    let x = m.shared_vec::<u64>(64, Placement::Blocked);
    let err = m
        .run(move |ctx| {
            x.write(ctx, ctx.id(), 1);
            ctx.flush();
            if ctx.id() == 1 {
                panic!("planted failure");
            }
        })
        .unwrap_err();
    assert!(matches!(err, SimError::AppPanic(_)), "{err}");

    let after = LIVE.snapshot();
    assert_eq!(after.runs_started - before.runs_started, 2);
    assert_eq!(after.runs_finished - before.runs_finished, 2);
    assert!(
        after.events > before.events,
        "failed runs dropped their events"
    );
    assert!(
        after.accesses > before.accesses,
        "the panicked run's accesses were dropped"
    );
}
