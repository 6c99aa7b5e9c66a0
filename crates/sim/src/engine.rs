//! The conservative discrete-event execution engine.
//!
//! One OS thread runs each simulated processor's application body. The
//! engine processes thread requests in virtual-time order: pending
//! requests sit in a heap keyed by `(time, pid)`, and the heap minimum is
//! processed only while it lies strictly before the *frontier*, the
//! earliest clock of a thread still running application code (which
//! could yet submit earlier work). So every run is deterministic
//! regardless of host scheduling.
//!
//! There is no engine thread. The engine lives behind one mutex in
//! [`Shared`]; a thread that submits a request takes the lock, queues the
//! request and runs the dispatch loop itself until the frontier stops it.
//! A submitter that finds the engine busy does not sleep on the lock: it
//! leaves the request in an inbox that the holder drains before it lets
//! go. Replies go into the target thread's [`Slot`], which is unparked unless
//! it is the dispatching thread itself: when a thread's own request is
//! processed on its own dispatch, it returns to application code with no
//! syscall; otherwise it parks until some other thread's dispatch
//! replies. Several threads still run application code at once after a
//! barrier or broadcast wake. The mutex and the slot locks order every
//! engine step and every reply before what the woken thread does next.
//! The thread that called `Machine::run` only waits for the run to settle
//! (all finished, or failed), joins, and assembles the [`RunStats`].
//!
//! All time charged to a processor flows through `charge`, `charge_wait`
//! and `charge_access`, which update the per-processor totals and the per-phase accumulators
//! together, so the two reconcile by construction. Every passive consumer
//! (trace, critical path, sanitizer, range profiler, live counters) sits
//! behind one [`Observers`] value: the helpers and the sync steps report
//! each charge and each sync step to it exactly once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};

use crate::attrib::{word_mask, MissCause, CAUSE_OTHER};
use crate::config::{BarrierImpl, LockImpl, MachineConfig};
use crate::error::SimError;
use crate::memsys::{AccessClass, AccessKind, MemorySystem, Outcome};
use crate::observe::{Charge, Observers, Wake};
use crate::page::Addr;
use crate::prof::{self, Region};
use crate::proto::{Action, EngineGone, MemOp, OpKind, Reply, Request};
use crate::schedule::Perturber;
use crate::stats::{PhaseBreakdown, PhaseStats, ProcStats, RunStats};
use crate::sync::{BarrierState, LockState, SemState};
use crate::time::Ns;

/// An atomic fetch&add cell.
pub(crate) struct FetchCell {
    pub addr: Addr,
    pub value: i64,
}

/// All synchronization object state for one run.
pub(crate) struct SyncTables {
    pub locks: Vec<LockState>,
    pub barriers: Vec<BarrierState>,
    pub sems: Vec<SemState>,
    pub cells: Vec<FetchCell>,
}

/// Locks `m`, ignoring poison: a panic inside engine code is reported as
/// the run's error by the thread that raised it, and nothing read under
/// these locks afterwards depends on the interrupted update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a processor thread finds in its [`Slot`].
#[derive(Default)]
enum SlotState {
    #[default]
    Empty,
    Ready(Reply),
    /// The run was aborted: unwind with [`EngineGone`].
    Gone,
}

/// One processor thread's mailbox: where a dispatching thread leaves the
/// reply, and the handle it wakes the owner with.
#[derive(Default)]
pub(crate) struct Slot {
    state: Mutex<SlotState>,
    thread: OnceLock<Thread>,
}

impl Slot {
    /// Registers the calling thread as the slot's owner. Must precede the
    /// owner's first request, since replies unpark this handle.
    pub(crate) fn bind(&self) {
        let _ = self.thread.set(thread::current());
    }

    fn put(&self, state: SlotState, wake: bool) {
        *lock(&self.state) = state;
        if wake {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }

    /// Parks the owner until its reply arrives. Unwinds with
    /// [`EngineGone`] once the run is aborted.
    pub(crate) fn wait(&self) -> Reply {
        loop {
            {
                let mut st = lock(&self.state);
                match std::mem::replace(&mut *st, SlotState::Empty) {
                    SlotState::Ready(r) => return r,
                    SlotState::Gone => {
                        *st = SlotState::Gone;
                        drop(st);
                        std::panic::panic_any(EngineGone);
                    }
                    SlotState::Empty => {}
                }
            }
            // Spurious wakes just re-check the slot.
            thread::park();
        }
    }
}

/// The engine and the processor slots of one run, shared by its threads.
pub(crate) struct Shared {
    engine: Mutex<Engine>,
    /// Requests whose submitter found the engine busy. The engine's holder
    /// accepts them before it releases the engine (see [`Shared::drive`]).
    inbox: Mutex<Vec<(usize, Request)>>,
    slots: Arc<[Slot]>,
    /// Set, and signalled, once `Engine::outcome` is set.
    settled: (Mutex<bool>, Condvar),
}

impl Shared {
    pub(crate) fn new(engine: Engine) -> Self {
        Shared {
            slots: Arc::clone(&engine.slots),
            engine: Mutex::new(engine),
            inbox: Mutex::new(Vec::new()),
            settled: (Mutex::new(false), Condvar::new()),
        }
    }

    /// Processor `p`'s slot.
    pub(crate) fn slot(&self, p: usize) -> &Slot {
        &self.slots[p]
    }

    /// Queues processor `p`'s request and, unless another thread holds
    /// the engine (it will take the request over), dispatches every event
    /// that has become safe to process, on the calling thread.
    pub(crate) fn submit(&self, p: usize, req: Request) {
        match self.engine.try_lock() {
            Ok(eng) => self.drive(eng, p, Some(req)),
            Err(TryLockError::WouldBlock) => {
                // Sleeping on the engine lock would cost a thread switch;
                // leave the request for the holder instead. If the holder
                // released before seeing it, take over.
                lock(&self.inbox).push((p, req));
                match self.engine.try_lock() {
                    Ok(eng) => self.drive(eng, p, None),
                    Err(TryLockError::WouldBlock) => {}
                    Err(TryLockError::Poisoned(_)) => std::panic::panic_any(EngineGone),
                }
            }
            // Engine code panicked on another thread, which reports it.
            Err(TryLockError::Poisoned(_)) => std::panic::panic_any(EngineGone),
        }
    }

    /// Accepts `own` and the inbox, dispatches, and releases the engine
    /// only with the inbox empty. The release happens under the inbox
    /// lock, so a request queued after the last check finds the engine
    /// free (or held by a thread that will check again): none is lost.
    fn drive(&self, mut eng: MutexGuard<'_, Engine>, me: usize, own: Option<Request>) {
        if eng.outcome.is_some() {
            return; // aborted: every slot already says Gone
        }
        if let Some(req) = own {
            eng.accept(me, req);
        }
        loop {
            let queued = std::mem::take(&mut *lock(&self.inbox));
            for (q, req) in queued {
                eng.accept(q, req);
            }
            match eng.dispatch(me) {
                Ok(false) => {}
                Ok(true) => return self.settle(&mut eng, Ok(())),
                Err(e) => return self.settle(&mut eng, Err(e)),
            }
            let inbox = lock(&self.inbox);
            if inbox.is_empty() {
                drop(eng);
                return;
            }
        }
    }

    /// Aborts the run with [`SimError::AppPanic`] unless it already
    /// settled.
    pub(crate) fn fail(&self, msg: String) {
        let mut eng = lock(&self.engine);
        if eng.outcome.is_none() {
            self.settle(&mut eng, Err(SimError::AppPanic(msg)));
        }
    }

    fn settle(&self, eng: &mut Engine, outcome: Result<(), SimError>) {
        if outcome.is_err() {
            for s in self.slots.iter() {
                s.put(SlotState::Gone, true);
            }
        }
        eng.outcome = Some(outcome);
        let (done, cv) = &self.settled;
        *lock(done) = true;
        cv.notify_all();
    }

    /// Blocks until every processor has finished or the run failed.
    pub(crate) fn wait_settled(&self) {
        let (done, cv) = &self.settled;
        let _done = cv
            .wait_while(lock(done), |d| !*d)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// The engine, once every processor thread has been joined.
    pub(crate) fn into_engine(self) -> Engine {
        self.engine
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sync object a processor is parked on, for the deadlock report.
#[derive(Clone, Copy)]
enum Blocked {
    Lock(usize),
    Barrier(usize),
    Sem(usize),
}

impl fmt::Display for Blocked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blocked::Lock(id) => write!(f, "lock {id}"),
            Blocked::Barrier(id) => write!(f, "barrier {id}"),
            Blocked::Sem(id) => write!(f, "semaphore {id}"),
        }
    }
}

struct ProcRuntime {
    clock: Ns,
    stats: ProcStats,
    /// Interned id of the phase this processor is currently in.
    phase: u32,
    pending: Option<Request>,
    /// The last processed request's emptied buffers, returned with the
    /// next reply.
    spare: Reply,
    /// Thread is executing application code (we owe nothing, it owes a request).
    running: bool,
    /// The sync object this processor is parked on, if any.
    parked_on: Option<Blocked>,
    done: bool,
}

pub(crate) struct Engine {
    cfg: MachineConfig,
    mem: MemorySystem,
    sync: SyncTables,
    procs: Vec<ProcRuntime>,
    heap: BinaryHeap<Reverse<(Ns, usize)>>,
    slots: Arc<[Slot]>,
    /// The processor whose thread is dispatching: its replies need no wake.
    me: usize,
    done_count: usize,
    events: u64,
    /// Set once: all finished (`Ok`) or the run's error.
    outcome: Option<Result<(), SimError>>,
    log2p: u32,
    /// Interned phase names; id 0 is the implicit `"main"` phase.
    phase_names: Vec<String>,
    /// Per-processor, per-phase time accumulators.
    phase_acc: Vec<Vec<PhaseBreakdown>>,
    /// Every passive consumer of the run; never consulted for timing.
    obs: Observers,
    /// Seeded schedule perturber, when `cfg.schedule` is set. All its
    /// decisions happen under the engine lock, in deterministic event
    /// order, so a seed replays bit-identically; when `None` every
    /// choice point takes its original code path unchanged.
    sched: Option<Box<Perturber>>,
}

impl Engine {
    pub(crate) fn new(
        cfg: MachineConfig,
        mem: MemorySystem,
        sync: SyncTables,
        obs: Observers,
    ) -> Self {
        let n = cfg.nprocs;
        let sched = cfg.schedule.map(|sc| Box::new(Perturber::new(sc, n)));
        Engine {
            log2p: (n.max(2) as u32).next_power_of_two().trailing_zeros(),
            cfg,
            mem,
            sync,
            procs: (0..n)
                .map(|_| ProcRuntime {
                    clock: 0,
                    stats: ProcStats::default(),
                    phase: 0,
                    pending: None,
                    spare: Reply::default(),
                    running: true,
                    parked_on: None,
                    done: false,
                })
                .collect(),
            heap: BinaryHeap::new(),
            slots: (0..n).map(|_| Slot::default()).collect(),
            me: 0,
            done_count: 0,
            events: 0,
            outcome: None,
            phase_names: vec!["main".to_string()],
            phase_acc: (0..n).map(|_| vec![PhaseBreakdown::default()]).collect(),
            obs,
            sched,
        }
    }

    /// Processes events in `(time, pid)` order on behalf of the calling
    /// thread, processor `me`, until the frontier forbids the next one.
    /// Returns whether every processor has finished.
    fn dispatch(&mut self, me: usize) -> Result<bool, SimError> {
        self.me = me;
        let n = self.procs.len();
        loop {
            if self.done_count == n {
                return Ok(true);
            }
            // Frontier: the earliest virtual time at which a still-running
            // thread could submit new work.
            let frontier = self
                .procs
                .iter()
                .filter(|p| p.running && !p.done)
                .map(|p| p.clock)
                .min();
            // Strict inequality: a running processor whose clock equals the
            // heap minimum could still submit a request at that same time
            // with a smaller processor id, and the (time, pid) tie must be
            // broken by the heap, not by host thread timing — otherwise
            // runs would not be bit-deterministic.
            let can_pop = match (self.heap.peek(), frontier) {
                (Some(&Reverse((t, _))), Some(f)) => t < f,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if can_pop {
                let Reverse((t, mut p)) = self.heap.pop().expect("peeked");
                if let Some(sched) = self.sched.as_deref_mut() {
                    // Same-virtual-time ties otherwise resolve lowest-pid
                    // first; let the perturber pick among the tied
                    // processors instead. Entries pushed *while* handling
                    // this event can still land at time t — they contend
                    // at the next pop, exactly as under the default order.
                    if matches!(self.heap.peek(), Some(&Reverse((t2, _))) if t2 == t) {
                        let mut tied = vec![p];
                        while let Some(&Reverse((t2, q))) = self.heap.peek() {
                            if t2 != t {
                                break;
                            }
                            self.heap.pop();
                            tied.push(q);
                        }
                        let i = sched.pick_tied(&tied);
                        p = tied.swap_remove(i);
                        for q in tied {
                            self.heap.push(Reverse((t, q)));
                        }
                    }
                    sched.tick();
                }
                // Popped times are nondecreasing, so this drives the
                // gauge sampling clock forward monotonically.
                let stats = self.procs.iter().map(|r| &r.stats);
                self.obs.event(t, self.events, &self.mem.contention, stats);
                {
                    let _sp = prof::span(Region::EngineDispatch);
                    self.process(p);
                }
                self.events += 1;
            } else if frontier.is_some() {
                // A running thread will submit and carry on from here.
                return Ok(false);
            } else {
                // Nothing runnable, nothing pending: deadlock.
                let blocked: Vec<String> = self
                    .procs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| p.parked_on.map(|r| format!("proc {i} on {r}")))
                    .collect();
                let note = self.obs.deadlock_note(&self.phase_names);
                return Err(SimError::Deadlock(blocked.join(", ") + &note));
            }
        }
    }

    /// The run's statistics once it has settled, or its error.
    pub(crate) fn into_stats(mut self) -> Result<RunStats, SimError> {
        let outcome = self.outcome.take().expect("run has settled");
        let wall = self
            .procs
            .iter()
            .map(|p| p.stats.finish_ns)
            .max()
            .unwrap_or(0);
        let stats = self.procs.iter().map(|r| &r.stats);
        let (events, ok) = (self.events, outcome.is_ok());
        self.obs.end(wall, events, &self.mem.contention, stats, ok);
        outcome?;
        let phases: Vec<PhaseStats> = self
            .phase_names
            .iter()
            .enumerate()
            .map(|(i, name)| PhaseStats {
                name: name.clone(),
                procs: self
                    .phase_acc
                    .iter()
                    .map(|pp| pp.get(i).copied().unwrap_or_default())
                    .collect(),
            })
            .collect();
        let procs: Vec<ProcStats> = self.procs.into_iter().map(|p| p.stats).collect();
        if cfg!(debug_assertions) {
            check_conservation(&procs, &self.phase_acc);
        }
        let mut stats = RunStats {
            wall_ns: wall,
            events: self.events,
            page_migrations: self.mem.page_migrations(),
            resources: self.mem.contention.summary(),
            phases,
            procs,
            ..RunStats::default()
        };
        self.obs.finish(self.phase_names, &mut stats);
        Ok(stats)
    }

    fn accept(&mut self, p: usize, req: Request) {
        debug_assert!(self.procs[p].pending.is_none(), "proc {p} double-submitted");
        self.procs[p].running = false;
        self.procs[p].pending = Some(req);
        self.heap.push(Reverse((self.procs[p].clock, p)));
    }

    fn reply(&mut self, p: usize, value: i64) {
        let rt = &mut self.procs[p];
        rt.running = true;
        rt.parked_on = None;
        let reply = Reply {
            value,
            ..std::mem::take(&mut rt.spare)
        };
        self.slots[p].put(SlotState::Ready(reply), p != self.me);
    }

    /// Interns a phase name, returning its id.
    fn intern_phase(&mut self, name: &str) -> u32 {
        if let Some(i) = self.phase_names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.phase_names.push(name.to_string());
        (self.phase_names.len() - 1) as u32
    }

    /// Charges `ns` of `what` to `p` from its clock, advancing it.
    fn charge(&mut self, p: usize, what: Charge, ns: Ns) {
        if ns == 0 {
            return;
        }
        let rt = &mut self.procs[p];
        let (t0, ph) = (rt.clock, rt.phase);
        rt.clock += ns;
        let s = slice(&mut self.phase_acc[p], ph);
        let (total, part) = match what {
            Charge::Busy => (&mut rt.stats.busy_ns, &mut s.busy_ns),
            Charge::SyncOp => (&mut rt.stats.sync_op_ns, &mut s.sync_op_ns),
            Charge::Wait(_) => (&mut rt.stats.sync_wait_ns, &mut s.sync_wait_ns),
        };
        *total += ns;
        *part += ns;
        self.obs.charge(p, ph, t0, ns, what);
    }

    /// Charges `p`'s wait at a sync object from its `arrived` time, where
    /// its clock stopped when it parked, until `until`.
    fn charge_wait(&mut self, p: usize, arrived: Ns, until: Ns, wake: Wake) {
        debug_assert_eq!(self.procs[p].clock, arrived, "proc {p} moved while parked");
        self.charge(p, Charge::Wait(wake), until - arrived);
    }

    /// Charges `p`'s serviced `kind` access to the line at `addr`,
    /// advancing its clock.
    fn charge_access(&mut self, p: usize, addr: Addr, kind: AccessKind, o: &Outcome) {
        let rt = &mut self.procs[p];
        let stats = &mut rt.stats;
        match kind {
            AccessKind::Read => stats.reads += 1,
            AccessKind::Write => stats.writes += 1,
        }
        match o.class {
            AccessClass::Hit => stats.hits += 1,
            AccessClass::LocalMiss => stats.misses_local += 1,
            AccessClass::RemoteClean => stats.misses_remote_clean += 1,
            AccessClass::RemoteDirty => stats.misses_remote_dirty += 1,
            AccessClass::Upgrade => stats.upgrades += 1,
        }
        stats.mem_ns += o.latency;
        if o.home_local {
            stats.mem_local_ns += o.latency;
        } else {
            stats.mem_remote_ns += o.latency;
        }
        stats.invals_sent += u64::from(o.invals);
        stats.writebacks += u64::from(o.writeback);
        stats.prefetch_late += u64::from(o.late_prefetch);
        stats.miss_hops += u64::from(o.hops);
        stats.mem_breakdown.add(&o.breakdown);
        let cause_slot = match o.miss_cause {
            Some(MissCause::Cold) => {
                stats.misses_cold += 1;
                MissCause::Cold.index()
            }
            Some(c @ (MissCause::CoherenceTrueShare | MissCause::CoherenceFalseShare)) => {
                stats.misses_coherence += 1;
                if c == MissCause::CoherenceFalseShare {
                    stats.misses_false_share += 1;
                }
                c.index()
            }
            Some(c @ (MissCause::Capacity | MissCause::Conflict)) => {
                stats.misses_capacity += 1;
                if c == MissCause::Conflict {
                    stats.misses_conflict += 1;
                }
                c.index()
            }
            None => CAUSE_OTHER,
        };
        stats.mem_cause_ns[cause_slot] += o.latency;
        let (t0, ph) = (rt.clock, rt.phase);
        rt.clock += o.latency;
        let s = slice(&mut self.phase_acc[p], ph);
        s.mem_ns += o.latency;
        if o.home_local {
            s.mem_local_ns += o.latency;
        } else {
            s.mem_remote_ns += o.latency;
        }
        s.mem_breakdown.add(&o.breakdown);
        s.mem_cause_ns[cause_slot] += o.latency;
        self.obs.access(p, ph, t0, addr, kind, o);
    }

    fn apply_ops(&mut self, p: usize, busy: Ns, ops: &[MemOp], san: &[MemOp]) {
        self.charge(p, Charge::Busy, busy);
        self.obs.ops(p, san);
        if ops.is_empty() {
            return;
        }
        // One span per request's op batch, not per line: coarse enough to
        // keep profiling overhead in the noise, fine enough to split the
        // memory system from engine dispatch.
        let _sp = prof::span(Region::MemsysService);
        let line_bytes = self.mem.line_bytes();
        for op in ops {
            let first = op.addr / line_bytes;
            let last = (op.addr + op.bytes - 1) / line_bytes;
            for line in first..=last {
                let addr = line * line_bytes;
                match op.kind {
                    OpKind::Read | OpKind::Write => {
                        let kind = if op.kind == OpKind::Read {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        // The op's true byte range, clipped to this line,
                        // is the word footprint false-sharing detection
                        // runs on.
                        let mask = word_mask(addr, line_bytes, op.addr, op.addr + op.bytes);
                        let o = self
                            .mem
                            .access_masked(p, addr, kind, self.procs[p].clock, mask);
                        self.charge_access(p, addr, kind, &o);
                    }
                    OpKind::Prefetch => {
                        let (issue, _fill) = self.mem.prefetch(p, addr, self.procs[p].clock);
                        self.procs[p].stats.prefetches += 1;
                        self.charge(p, Charge::Busy, issue);
                    }
                }
            }
        }
    }

    /// Cost of an atomic RMW on `addr` under the configured lock primitive.
    fn rmw_cost(&mut self, p: usize, addr: Addr, now: Ns) -> Ns {
        match self.cfg.lock_impl {
            LockImpl::TicketLlsc => self.mem.llsc_rmw(p, addr, now).latency,
            LockImpl::TicketFetchOp => self.mem.fetchop(p, addr, now),
        }
    }

    fn process(&mut self, p: usize) {
        let Request {
            busy,
            mut ops,
            mut san,
            action,
        } = self.procs[p]
            .pending
            .take()
            .expect("heap entry without pending request");
        self.apply_ops(p, busy, &ops, &san);
        ops.clear();
        san.clear();
        self.procs[p].spare = Reply { value: 0, ops, san };
        match action {
            Action::Flush => self.reply(p, 0),
            Action::Phase(name) => {
                let id = self.intern_phase(&name);
                self.procs[p].phase = id;
                self.obs.phase(p, id, self.procs[p].clock);
                self.reply(p, 0);
            }
            Action::Finish => {
                let rt = &mut self.procs[p];
                rt.stats.finish_ns = rt.clock;
                rt.done = true;
                rt.running = false;
                self.done_count += 1;
            }
            Action::Lock(id) => {
                let addr = self.sync.locks[id].addr;
                let now = self.procs[p].clock;
                let cost = self.rmw_cost(p, addr, now);
                self.procs[p].stats.atomics += 1;
                self.charge(p, Charge::SyncOp, cost);
                let t = self.procs[p].clock;
                if self.sync.locks[id].acquire_or_enqueue(p, t) {
                    self.procs[p].stats.lock_acquires += 1;
                    self.obs.lock_acquire(p, id, t);
                    self.reply(p, 0);
                } else {
                    self.procs[p].parked_on = Some(Blocked::Lock(id));
                }
            }
            Action::Unlock(id) => {
                let addr = self.sync.locks[id].addr;
                let now = self.procs[p].clock;
                // Releasing writes the lock word; usually a cache hit for
                // the holder under LL/SC, an at-memory op under fetch&op.
                let cost = match self.cfg.lock_impl {
                    LockImpl::TicketLlsc => {
                        self.mem.access(p, addr, AccessKind::Write, now).latency
                    }
                    LockImpl::TicketFetchOp => self.mem.fetchop(p, addr, now),
                };
                self.charge(p, Charge::SyncOp, cost);
                let release_t = self.procs[p].clock;
                self.obs.lock_release(p, id, self.procs[p].phase, release_t);
                // Grant order is the perturber's lock choice point: with a
                // schedule set and several waiters queued, a seeded pick
                // replaces the FIFO (ticket-order) handoff.
                let granted = match self.sched.as_deref_mut() {
                    Some(sched) if self.sync.locks[id].queue.len() > 1 => {
                        let idx = sched.pick_waiter(&self.sync.locks[id].queue);
                        self.sync.locks[id].release_nth(p, idx)
                    }
                    _ => self.sync.locks[id].release(p),
                };
                if let Some((w, arrived)) = granted {
                    // The release can complete before the waiter's acquire
                    // attempt has (they overlap in virtual time); the grant
                    // happens at whichever is later.
                    let grant_t = release_t.max(arrived);
                    // Hand off: the new holder pulls the lock line over.
                    let handoff = self.rmw_cost(w, addr, grant_t);
                    self.charge_wait(w, arrived, grant_t, Wake::Lock(p));
                    self.procs[w].stats.lock_acquires += 1;
                    self.charge(w, Charge::SyncOp, handoff);
                    self.obs.lock_acquire(w, id, grant_t);
                    self.reply(w, 0);
                }
                self.reply(p, 0);
            }
            Action::Barrier(id) => {
                let addr = self.sync.barriers[id].addr;
                let now = self.procs[p].clock;
                let arrive_cost = match self.cfg.barrier_impl {
                    BarrierImpl::TournamentLlsc => {
                        // log₂P stages of flag updates, mostly remote.
                        Ns::from(self.log2p)
                            * (self.cfg.latency.llsc_extra_ns
                                + self.cfg.latency.remote_clean_ns / 2)
                    }
                    BarrierImpl::CentralLlsc => self.mem.llsc_rmw(p, addr, now).latency,
                    BarrierImpl::CentralFetchOp => self.mem.fetchop(p, addr, now),
                };
                self.charge(p, Charge::SyncOp, arrive_cost);
                self.obs.barrier_arrive(p, id);
                let t = self.procs[p].clock;
                if let Some(mut arrivals) = self.sync.barriers[id].arrive(p, t) {
                    let release_t = arrivals.iter().map(|&(_, a)| a).max().unwrap_or(t);
                    arrivals.sort_unstable();
                    // The wake sweep below serializes the woken processors'
                    // wake-up accesses through the memory system, so its
                    // order is a scheduling choice point: perturb it.
                    if let Some(sched) = self.sched.as_deref_mut() {
                        sched.shuffle(&mut arrivals);
                    }
                    for &(w, arrived) in &arrivals {
                        let wake_cost = match self.cfg.barrier_impl {
                            BarrierImpl::TournamentLlsc => {
                                Ns::from(self.log2p) * self.cfg.latency.link_ns
                            }
                            BarrierImpl::CentralLlsc => {
                                self.mem
                                    .access(w, addr, AccessKind::Read, release_t)
                                    .latency
                            }
                            BarrierImpl::CentralFetchOp => self.mem.fetchop(w, addr, release_t),
                        };
                        self.charge_wait(w, arrived, release_t, Wake::Barrier);
                        self.procs[w].stats.barriers += 1;
                        self.charge(w, Charge::SyncOp, wake_cost);
                        self.reply(w, 0);
                    }
                    self.obs.barrier_release(id, &arrivals);
                } else {
                    self.procs[p].parked_on = Some(Blocked::Barrier(id));
                }
            }
            Action::FetchAdd { id, delta } => {
                self.obs.fetch_add(p, id);
                let addr = self.sync.cells[id].addr;
                let now = self.procs[p].clock;
                let cost = self.rmw_cost(p, addr, now);
                self.procs[p].stats.atomics += 1;
                self.charge(p, Charge::SyncOp, cost);
                let prev = self.sync.cells[id].value;
                self.sync.cells[id].value += delta;
                self.reply(p, prev);
            }
            Action::SemWait(id) => {
                let addr = self.sync.sems[id].addr;
                let now = self.procs[p].clock;
                let cost = self.rmw_cost(p, addr, now);
                self.procs[p].stats.atomics += 1;
                self.charge(p, Charge::SyncOp, cost);
                let t = self.procs[p].clock;
                if self.sync.sems[id].wait_or_enqueue(p, t) {
                    self.obs.sem_grant(p, id);
                    self.reply(p, 0);
                } else {
                    self.procs[p].parked_on = Some(Blocked::Sem(id));
                }
            }
            Action::SemPost { id, n } => {
                self.obs.sem_post(p, id);
                let addr = self.sync.sems[id].addr;
                let now = self.procs[p].clock;
                let cost = self.rmw_cost(p, addr, now);
                self.procs[p].stats.atomics += 1;
                self.charge(p, Charge::SyncOp, cost);
                let t = self.procs[p].clock;
                // Wake order is the perturber's semaphore choice point.
                let woken = match self.sched.as_deref_mut() {
                    Some(sched) => self.sync.sems[id].post_with(n, |q| sched.pick_waiter(q)),
                    None => self.sync.sems[id].post(n),
                };
                for (w, arrived) in woken {
                    let grant_t = t.max(arrived);
                    let wake = self.mem.access(w, addr, AccessKind::Read, grant_t).latency;
                    self.charge_wait(w, arrived, grant_t, Wake::Sem(p));
                    self.charge(w, Charge::SyncOp, wake);
                    self.obs.sem_grant(w, id);
                    self.reply(w, 0);
                }
                self.reply(p, 0);
            }
        }
    }
}

/// Processor accumulators `v`'s slice for phase `ph`, grown on first use.
fn slice(v: &mut Vec<PhaseBreakdown>, ph: u32) -> &mut PhaseBreakdown {
    let i = ph as usize;
    if v.len() <= i {
        v.resize(i + 1, PhaseBreakdown::default());
    }
    &mut v[i]
}

/// Conservation at stats assembly: every processor's time splits exactly
/// into busy, memory and synchronization, and its phase slices sum to its
/// totals.
fn check_conservation(procs: &[ProcStats], phase_acc: &[Vec<PhaseBreakdown>]) {
    for (p, (s, slices)) in procs.iter().zip(phase_acc).enumerate() {
        assert_eq!(
            s.busy_ns + s.mem_ns + s.sync_ns(),
            s.finish_ns,
            "proc {p}: busy + mem + sync != finish"
        );
        let mut sum = PhaseBreakdown::default();
        for slice in slices {
            sum.add(slice);
        }
        assert_eq!(
            (sum.busy_ns, sum.mem_ns, sum.sync_wait_ns, sum.sync_op_ns),
            (s.busy_ns, s.mem_ns, s.sync_wait_ns, s.sync_op_ns),
            "proc {p}: phase slices do not sum to its totals"
        );
    }
}
