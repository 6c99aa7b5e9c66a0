//! The observer stream: every passive consumer of a run behind one value.
//!
//! The engine reports each thing that happens exactly once, and each
//! consumer does its own bookkeeping behind that report:
//!
//! | happening                           | trace          | critpath       | sanitizer        | ranges      |
//! |-------------------------------------|----------------|----------------|------------------|-------------|
//! | busy / sync-op charge               | span           | chunk time     |                  |             |
//! | sync-wait charge                    | span           | wait edge      |                  |             |
//! | serviced access                     | span, instants | chunk time     |                  | attribution |
//! | request's op batch                  |                |                | shadow memory    |             |
//! | phase change                        |                | chunk boundary | access phase     |             |
//! | lock acquire / release              | hold span      |                | locksets, clocks |             |
//! | barrier arrival / release           | episode span   | episode        | clocks, lints    |             |
//! | `fetch_add`, semaphore post / grant |                |                | clocks           |             |
//!
//! The live counters ([`LIVE`]) take no per-happening report: every
//! [`FLUSH_EVERY`] engine events, and once at the end of every run
//! (failed runs too), they add what the engine's own [`ProcStats`] sums
//! and event count grew by since the last fold. The trace's gauges read
//! the same sums.
//!
//! Nothing here is ever read back for timing, so turning a consumer on or
//! off cannot move a simulated nanosecond. With every consumer off, a
//! report costs one branch.

use std::sync::atomic::Ordering::Relaxed;

use crate::attrib::CAUSE_OTHER;
use crate::config::MachineConfig;
use crate::contend::Contention;
use crate::critpath::CritCollector;
use crate::live::{LiveSnapshot, FLUSH_EVERY, LIVE};
use crate::memsys::{AccessKind, Outcome};
use crate::page::Addr;
use crate::prof::{self, Region};
use crate::profile::Profiler;
use crate::proto::{MemOp, OpKind};
use crate::sanitize::Sanitizer;
use crate::stats::{ProcStats, RunStats};
use crate::time::Ns;
use crate::trace::{InstantKind, SpanKind, TraceBuffer};

/// What a processor's charged time went to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Charge {
    /// Computation.
    Busy,
    /// A synchronization operation's own cost.
    SyncOp,
    /// Waiting at a synchronization object until `Wake` released it.
    Wait(Wake),
}

/// What ended a sync wait, for the critical path's dependency edge.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wake {
    /// A lock release by this processor.
    Lock(usize),
    /// A semaphore post by this processor.
    Sem(usize),
    /// The barrier release reported next ([`Observers::barrier_release`]).
    Barrier,
}

/// Every passive consumer of one run.
pub(crate) struct Observers {
    /// Whether any per-happening consumer is on.
    on: bool,
    trace: TraceBuffer,
    crit: Option<Box<CritCollector>>,
    san: Option<Box<Sanitizer>>,
    ranges: Profiler,
    /// Virtual time at which each lock was last acquired (hold spans).
    held_from: Vec<Ns>,
    /// The sums last folded into [`LIVE`].
    live: LiveSnapshot,
}

impl Observers {
    /// The consumers `cfg` switches on, for a machine with `nlocks`
    /// locks, fetch cells at `cells` and labelled ranges `labels`.
    pub(crate) fn new(
        cfg: &MachineConfig,
        nlocks: usize,
        cells: &[(Addr, i64)],
        labels: &[(String, Addr, u64)],
    ) -> Self {
        LIVE.runs_started.fetch_add(1, Relaxed);
        let trace = TraceBuffer::new(cfg.trace.clone(), cfg.nprocs);
        let san = cfg.sanitize.enabled.then(|| {
            let line = cfg.cache.line_bytes as u64;
            let mut s = Sanitizer::new(cfg.nprocs, cfg.sanitize.granularity, line);
            for (i, &(addr, _)) in cells.iter().enumerate() {
                s.register_fetch_cell(i, addr);
            }
            Box::new(s)
        });
        let crit = cfg
            .critpath
            .then(|| Box::new(CritCollector::new(cfg.nprocs)));
        let mut ranges = Profiler::default();
        for (name, base, bytes) in labels {
            ranges.register(name, *base, *bytes);
        }
        Observers {
            on: trace.enabled() || crit.is_some() || san.is_some() || !ranges.is_empty(),
            trace,
            crit,
            san,
            ranges,
            held_from: vec![0; nlocks],
            live: LiveSnapshot::default(),
        }
    }

    /// An engine event at virtual time `t`, after `events` earlier ones:
    /// samples the gauges when an epoch is due and, once every
    /// [`FLUSH_EVERY`] events have been processed, folds the live counters.
    pub(crate) fn event<'a>(
        &mut self,
        t: Ns,
        events: u64,
        contention: &Contention,
        procs: impl Iterator<Item = &'a ProcStats> + Clone,
    ) {
        self.trace.sample(t, contention, procs.clone());
        if events > 0 && events.is_multiple_of(FLUSH_EVERY) {
            let span = prof::span(Region::LiveFlush);
            LIVE.advance(&mut self.live, LiveSnapshot::of(events, procs));
            drop(span);
            // Piggyback the profiler's fold-to-global on the same cadence
            // so live observers see mid-run data.
            prof::flush_thread();
        }
    }

    /// The run has settled at `wall` after `events` events: a last gauge
    /// sample, a last live fold, and the run counted as finished, whether
    /// or not it `succeeded`.
    pub(crate) fn end<'a>(
        &mut self,
        wall: Ns,
        events: u64,
        contention: &Contention,
        procs: impl Iterator<Item = &'a ProcStats> + Clone,
        succeeded: bool,
    ) {
        self.trace.sample(wall, contention, procs.clone());
        LIVE.advance(&mut self.live, LiveSnapshot::of(events, procs));
        if succeeded {
            LIVE.sim_ns.fetch_add(wall, Relaxed);
        }
        LIVE.runs_finished.fetch_add(1, Relaxed);
    }

    /// Fills in each consumer's output on the `stats` of a finished run.
    pub(crate) fn finish(self, phase_names: Vec<String>, stats: &mut RunStats) {
        stats.ranges = self.ranges.into_profiles(&phase_names);
        stats.sanitize = self.san.map(|s| s.finalize(&phase_names));
        stats.critpath = self.crit.map(|c| c.finalize(stats.wall_ns, &phase_names));
        stats.trace = self.trace.finish(phase_names);
    }

    /// The sanitizer's lints (barrier divergence, say) for a deadlock
    /// report, which has no statistics to attach them to; empty when the
    /// sanitizer is off or found nothing.
    pub(crate) fn deadlock_note(&mut self, phase_names: &[String]) -> String {
        let lints = self.san.take().map(|s| s.finalize(phase_names).lints);
        let lints: Vec<String> = lints
            .iter()
            .flatten()
            .map(|l| format!("{}: {}", l.kind.name(), l.message))
            .collect();
        if lints.is_empty() {
            return String::new();
        }
        format!("; sanitize: {}", lints.join("; "))
    }

    /// `p` spent `[t0, t0 + ns)` of phase `ph` on `what`.
    #[inline]
    pub(crate) fn charge(&mut self, p: usize, ph: u32, t0: Ns, ns: Ns, what: Charge) {
        if !self.on {
            return;
        }
        let kind = match what {
            Charge::Busy => SpanKind::Busy,
            Charge::SyncOp => SpanKind::SyncOp,
            Charge::Wait(_) => SpanKind::SyncWait,
        };
        self.trace.span(p, ph, kind, t0, ns);
        if let Some(cp) = self.crit.as_deref_mut() {
            match what {
                Charge::Busy => cp.busy(p, ns),
                Charge::SyncOp => cp.sync_op(p, ns),
                Charge::Wait(wake) => cp.wait(p, t0, t0 + ns, wake),
            }
        }
    }

    /// `p`'s `kind` access to the line at `addr`, serviced as `o` from
    /// `t0` in phase `ph`.
    #[inline]
    pub(crate) fn access(
        &mut self,
        p: usize,
        ph: u32,
        t0: Ns,
        addr: Addr,
        kind: AccessKind,
        o: &Outcome,
    ) {
        if !self.on {
            return;
        }
        if !self.ranges.is_empty() {
            let _sp = prof::span(Region::Attrib);
            self.ranges.attribute(p, addr, kind, o, ph);
        }
        if self.trace.enabled() {
            let k = if o.home_local {
                SpanKind::MemLocal
            } else {
                SpanKind::MemRemote
            };
            self.trace.span(p, ph, k, t0, o.latency);
            if o.migrated {
                self.trace.instant(p, t0, InstantKind::PageMigration, 0);
            }
            if o.invals >= 2 {
                self.trace.instant(p, t0, InstantKind::InvalBurst, o.invals);
            }
            if o.late_prefetch {
                self.trace.instant(p, t0, InstantKind::LatePrefetch, 0);
            }
        }
        if let Some(cp) = self.crit.as_deref_mut() {
            let cause = o.miss_cause.map_or(CAUSE_OTHER, |c| c.index());
            cp.mem(p, o.home_local, cause, o.latency, &o.breakdown);
        }
    }

    /// `p`'s request carried the data accesses `san`.
    #[inline]
    pub(crate) fn ops(&mut self, p: usize, san: &[MemOp]) {
        if let Some(s) = self.san.as_deref_mut() {
            let _sp = prof::span(Region::Sanitize);
            for op in san {
                match op.kind {
                    OpKind::Read => s.read(p, op.addr, op.bytes),
                    OpKind::Write => s.write(p, op.addr, op.bytes),
                    OpKind::Prefetch => {}
                }
            }
        }
    }

    /// `p` entered phase `id` at `t`.
    pub(crate) fn phase(&mut self, p: usize, id: u32, t: Ns) {
        if !self.on {
            return;
        }
        if let Some(s) = self.san.as_deref_mut() {
            s.set_phase(p, id);
        }
        if let Some(cp) = self.crit.as_deref_mut() {
            cp.set_phase(p, id, t);
        }
    }

    /// `p` acquired (or was granted) lock `id` at `t`.
    pub(crate) fn lock_acquire(&mut self, p: usize, id: usize, t: Ns) {
        if let Some(s) = self.san.as_deref_mut() {
            s.lock_acquire(p, id);
        }
        self.held_from[id] = t;
    }

    /// `p` released lock `id` at `t`, in phase `ph`.
    pub(crate) fn lock_release(&mut self, p: usize, id: usize, ph: u32, t: Ns) {
        if !self.on {
            return;
        }
        if let Some(s) = self.san.as_deref_mut() {
            s.lock_release(p, id);
        }
        let from = self.held_from[id];
        let (kind, held) = (SpanKind::LockHold, t.saturating_sub(from));
        self.trace.span_obj(p, ph, kind, from, held, id as u32);
    }

    /// `p` arrived at barrier `id`, its clock at the arrival time.
    pub(crate) fn barrier_arrive(&mut self, p: usize, id: usize) {
        if !self.on {
            return;
        }
        if let Some(s) = self.san.as_deref_mut() {
            s.barrier_arrive(p, id);
        }
        if let Some(cp) = self.crit.as_deref_mut() {
            cp.barrier_arrive(p);
        }
    }

    /// Barrier `id` released every `(processor, arrival time)` of
    /// `arrivals`, after their waits and wake-ups were charged.
    pub(crate) fn barrier_release(&mut self, id: usize, arrivals: &[(usize, Ns)]) {
        if !self.on {
            return;
        }
        if let Some(s) = self.san.as_deref_mut() {
            s.barrier_complete(id);
        }
        if let Some(cp) = self.crit.as_deref_mut() {
            cp.barrier_release(arrivals);
        }
        self.trace.barrier(id, arrivals);
    }

    /// `p` performed a `fetch_add` on cell `id`.
    pub(crate) fn fetch_add(&mut self, p: usize, id: usize) {
        if let Some(s) = self.san.as_deref_mut() {
            s.fetch_add(p, id);
        }
    }

    /// `p` posted semaphore `id`.
    pub(crate) fn sem_post(&mut self, p: usize, id: usize) {
        if let Some(s) = self.san.as_deref_mut() {
            s.sem_post(p, id);
        }
    }

    /// `p` completed a wait on semaphore `id`.
    pub(crate) fn sem_grant(&mut self, p: usize, id: usize) {
        if let Some(s) = self.san.as_deref_mut() {
            s.sem_acquire(p, id);
        }
    }
}
