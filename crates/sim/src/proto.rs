//! Engine ↔ processor-thread protocol (crate internal).
//!
//! Each engine-visible action of an application thread is a [`Request`];
//! the thread submits it and dispatches engine events itself (see
//! `engine.rs`), and is unblocked by a [`Reply`] in its slot once the
//! action completes in virtual time.

use crate::page::Addr;
use crate::time::Ns;

/// Kind of a buffered memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Read,
    Write,
    Prefetch,
}

/// One buffered memory operation (possibly spanning multiple lines).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemOp {
    pub addr: Addr,
    pub bytes: u64,
    pub kind: OpKind,
}

/// A request from an application thread to the engine: the busy time
/// accumulated since the previous request, the buffered memory operations
/// to apply first, and — when the sanitizer is enabled — the exact
/// (uncoalesced) byte footprints of those operations in `san`, so race
/// detection never sees the covering merges the timing stream makes
/// (empty when sanitizing is off). `action` is what happens after them.
#[derive(Debug)]
pub(crate) struct Request {
    pub busy: Ns,
    pub ops: Vec<MemOp>,
    pub san: Vec<MemOp>,
    pub action: Action,
}

/// The engine-visible action that ends a [`Request`].
#[derive(Debug)]
pub(crate) enum Action {
    /// Flush buffered work only.
    Flush,
    /// Arrive at a barrier.
    Barrier(usize),
    /// Acquire a lock (blocks until granted).
    Lock(usize),
    /// Release a lock.
    Unlock(usize),
    /// Atomic fetch-and-add on a fetch cell; the reply carries the prior value.
    FetchAdd { id: usize, delta: i64 },
    /// Decrement a semaphore, blocking while it is zero.
    SemWait(usize),
    /// Increment a semaphore by `n`, waking blocked waiters.
    SemPost { id: usize, n: u32 },
    /// Marks the start of a named application phase for this processor;
    /// buffered work is charged to the previous phase first.
    Phase(String),
    /// The application body returned; no reply follows.
    Finish,
}

/// Engine reply unblocking a thread. `value` is meaningful only for
/// [`Action::FetchAdd`]. `ops` and `san` are the request's buffers,
/// emptied, handed back so the thread refills them without regrowing.
#[derive(Debug, Default)]
pub(crate) struct Reply {
    pub value: i64,
    pub ops: Vec<MemOp>,
    pub san: Vec<MemOp>,
}

/// Sentinel panic payload used to silently unwind application threads when
/// the engine has already terminated (deadlock or a peer's panic). The
/// quiet panic hook suppresses its default backtrace output.
pub(crate) struct EngineGone;
