//! Live machine counters: process-wide cumulative activity totals.
//!
//! Every engine in the process folds its activity into
//! one set of global atomic counters — engine events processed, accesses,
//! hits, misses by [`MissCause`](crate::attrib::MissCause), and the exact
//! per-[`ResourceClass`](crate::attrib::ResourceClass) service/queueing
//! nanoseconds of every memory stall. An external observer (the
//! `ccnuma-telemetry` sampler) reads these on a host-time epoch and
//! differentiates them into rates: simulated-events/sec, misses/sec,
//! per-class occupancy and queue depth.
//!
//! The counters are **observer-passive by construction**: a run only
//! ever *writes* them, adding the growth of its own per-processor
//! statistics every `FLUSH_EVERY` events and at its end (relaxed atomics;
//! see `crate::observe`), and no simulation decision ever reads them
//! back. Enabling or disabling an observer therefore cannot change a
//! single simulated nanosecond — the bit-identical pin lives in
//! `crates/bench/tests/telemetry_live.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::ProcStats;

/// Number of classified miss-cause slots mirrored live (matches
/// [`MissCause::index`](crate::attrib::MissCause::index)).
pub const LIVE_CAUSES: usize = 5;

/// Number of resource classes mirrored live (matches
/// [`ResourceClass::index`](crate::attrib::ResourceClass::index)).
pub const LIVE_CLASSES: usize = 4;

/// The process-wide cumulative counters. All values only ever grow
/// (monotonic counters); readers snapshot with [`LiveCounters::snapshot`]
/// and differentiate.
#[derive(Debug, Default)]
pub struct LiveCounters {
    /// Simulation runs started.
    pub runs_started: AtomicU64,
    /// Simulation runs finished (successfully or not, the engine flushes
    /// what it accumulated).
    pub runs_finished: AtomicU64,
    /// Engine events (thread requests) processed.
    pub events: AtomicU64,
    /// Line-granular memory accesses serviced.
    pub accesses: AtomicU64,
    /// Cache hits.
    pub hits: AtomicU64,
    /// Cache misses (local + remote clean + remote dirty).
    pub misses: AtomicU64,
    /// Classified misses by cause slot `[cold, capacity, conflict,
    /// coh-true, coh-false]`; only populated by runs with
    /// `classify_misses` enabled.
    pub miss_causes: [AtomicU64; LIVE_CAUSES],
    /// Uncontended service nanoseconds per resource class
    /// `[hub, mem, dir, net]` (the attrib taxonomy).
    pub service_ns: [AtomicU64; LIVE_CLASSES],
    /// Queueing-delay nanoseconds per resource class `[hub, mem, dir,
    /// net]`. Differentiated against host time this is the time-average
    /// number of transactions queued at the class (Little's law).
    pub queue_ns: [AtomicU64; LIVE_CLASSES],
    /// Total memory-stall nanoseconds charged.
    pub mem_stall_ns: AtomicU64,
    /// Simulated (virtual) nanoseconds completed, folded in at run end.
    pub sim_ns: AtomicU64,
}

/// A plain-integer point-in-time copy of [`LiveCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// See [`LiveCounters::runs_started`].
    pub runs_started: u64,
    /// See [`LiveCounters::runs_finished`].
    pub runs_finished: u64,
    /// See [`LiveCounters::events`].
    pub events: u64,
    /// See [`LiveCounters::accesses`].
    pub accesses: u64,
    /// See [`LiveCounters::hits`].
    pub hits: u64,
    /// See [`LiveCounters::misses`].
    pub misses: u64,
    /// See [`LiveCounters::miss_causes`].
    pub miss_causes: [u64; LIVE_CAUSES],
    /// See [`LiveCounters::service_ns`].
    pub service_ns: [u64; LIVE_CLASSES],
    /// See [`LiveCounters::queue_ns`].
    pub queue_ns: [u64; LIVE_CLASSES],
    /// See [`LiveCounters::mem_stall_ns`].
    pub mem_stall_ns: u64,
    /// See [`LiveCounters::sim_ns`].
    pub sim_ns: u64,
}

impl LiveCounters {
    /// Reads every counter (relaxed; the snapshot is not required to be a
    /// consistent cut — counters are independent monotonic series).
    pub fn snapshot(&self) -> LiveSnapshot {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LiveSnapshot {
            runs_started: r(&self.runs_started),
            runs_finished: r(&self.runs_finished),
            events: r(&self.events),
            accesses: r(&self.accesses),
            hits: r(&self.hits),
            misses: r(&self.misses),
            miss_causes: std::array::from_fn(|i| r(&self.miss_causes[i])),
            service_ns: std::array::from_fn(|i| r(&self.service_ns[i])),
            queue_ns: std::array::from_fn(|i| r(&self.queue_ns[i])),
            mem_stall_ns: r(&self.mem_stall_ns),
            sim_ns: r(&self.sim_ns),
        }
    }
}

/// The process-wide counters. Shared by every engine in the process, so
/// concurrent sweep cells aggregate naturally.
pub static LIVE: LiveCounters = LiveCounters {
    runs_started: AtomicU64::new(0),
    runs_finished: AtomicU64::new(0),
    events: AtomicU64::new(0),
    accesses: AtomicU64::new(0),
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    miss_causes: [const { AtomicU64::new(0) }; LIVE_CAUSES],
    service_ns: [const { AtomicU64::new(0) }; LIVE_CLASSES],
    queue_ns: [const { AtomicU64::new(0) }; LIVE_CLASSES],
    mem_stall_ns: AtomicU64::new(0),
    sim_ns: AtomicU64::new(0),
};

/// How many engine events pass between two folds of a run's counters
/// into [`LIVE`].
pub(crate) const FLUSH_EVERY: u64 = 4096;

impl LiveSnapshot {
    /// The sums over `procs` of the per-processor counters mirrored
    /// live, with the engine's `events`; the run counters and `sim_ns`
    /// stay zero.
    pub(crate) fn of<'a>(events: u64, procs: impl Iterator<Item = &'a ProcStats>) -> Self {
        let mut s = LiveSnapshot {
            events,
            ..LiveSnapshot::default()
        };
        for p in procs {
            s.accesses += p.accesses();
            s.hits += p.hits;
            s.misses += p.misses();
            for (c, n) in s.miss_causes.iter_mut().zip(p.cause_counts()) {
                *c += n;
            }
            for i in 0..LIVE_CLASSES {
                s.service_ns[i] += p.mem_breakdown.service[i];
                s.queue_ns[i] += p.mem_breakdown.queue[i];
            }
            s.mem_stall_ns += p.mem_ns;
        }
        s
    }
}

impl LiveCounters {
    /// Adds what `now` grew by since `last` (both from
    /// [`LiveSnapshot::of`] over one run), then makes `now` the new
    /// `last`.
    pub(crate) fn advance(&self, last: &mut LiveSnapshot, now: LiveSnapshot) {
        let add = |a: &AtomicU64, new: u64, old: u64| {
            if new != old {
                a.fetch_add(new - old, Ordering::Relaxed);
            }
        };
        add(&self.events, now.events, last.events);
        add(&self.accesses, now.accesses, last.accesses);
        add(&self.hits, now.hits, last.hits);
        add(&self.misses, now.misses, last.misses);
        for (i, a) in self.miss_causes.iter().enumerate() {
            add(a, now.miss_causes[i], last.miss_causes[i]);
        }
        for i in 0..LIVE_CLASSES {
            add(&self.service_ns[i], now.service_ns[i], last.service_ns[i]);
            add(&self.queue_ns[i], now.queue_ns[i], last.queue_ns[i]);
        }
        add(&self.mem_stall_ns, now.mem_stall_ns, last.mem_stall_ns);
        *last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_buffers_then_flushes_exactly() {
        let live = LiveCounters::default();
        let mut a = ProcStats {
            reads: 3,
            writes: 1,
            hits: 2,
            misses_local: 1,
            misses_remote_dirty: 1,
            misses_coherence: 1,
            misses_false_share: 1,
            mem_ns: 45,
            ..ProcStats::default()
        };
        a.mem_breakdown.service = [5, 6, 7, 8];
        a.mem_breakdown.queue = [1, 2, 3, 4];
        let b = ProcStats {
            writes: 1,
            hits: 1,
            ..ProcStats::default()
        };
        let mut last = LiveSnapshot::default();
        live.advance(&mut last, LiveSnapshot::of(10, [&a, &b].into_iter()));
        let s = live.snapshot();
        assert_eq!((s.events, s.accesses, s.hits, s.misses), (10, 5, 3, 2));
        assert_eq!(s.miss_causes, [0, 0, 0, 0, 1]);
        assert_eq!((s.service_ns[2], s.queue_ns[3], s.mem_stall_ns), (7, 4, 45));
        // A second fold adds only the growth since the first.
        a.reads += 1;
        live.advance(&mut last, LiveSnapshot::of(12, [&a, &b].into_iter()));
        let s = live.snapshot();
        assert_eq!(
            (s.events, s.accesses, s.hits, s.mem_stall_ns),
            (12, 6, 3, 45)
        );
    }
}
