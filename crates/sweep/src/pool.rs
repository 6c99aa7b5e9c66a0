//! The sweep's two schedulers, each over one shared queue: [`run`]
//! fans a fixed batch out over scoped workers and joins, and
//! [`TaskQueue`] serves tasks that a server pushes while it lives.
//!
//! Tasks here are whole simulations (milliseconds to minutes), so one
//! queue shared by every worker costs nothing measurable, and no worker
//! idles while work is queued. It also keeps the caller's order: items
//! start in index order and tasks in push order, which is what lets the
//! sweep's longest-first sort shorten the tail.
//!
//! Results come back in item order regardless of execution
//! interleaving, so parallel sweeps are deterministic end to end.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Counters describing one pool run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Worker threads actually spawned.
    pub workers: usize,
}

/// Tasks completed by either scheduler across the process, so an
/// external observer can watch a sweep or the daemon progress.
/// Write-only from the pool's side.
pub static LIVE_TASKS_DONE: AtomicU64 = AtomicU64::new(0);

/// Runs `f` over every item on `jobs` worker threads that take items
/// from one shared cursor, so items start in index order; returns the
/// results in item order plus scheduling metrics. `jobs` is clamped to
/// `1..=items.len()`; `jobs <= 1` or a single item degenerates to an
/// in-place serial loop (no threads).
pub fn run<T, R, F>(items: &[T], jobs: usize, f: F) -> (Vec<R>, PoolMetrics)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    // One worker's share: the items it took, each with its index.
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
            LIVE_TASKS_DONE.fetch_add(1, Ordering::Relaxed);
        }
    };
    let shares = if jobs == 1 {
        vec![work()]
    } else {
        // A panicking item ends its worker; the others drain the cursor
        // and the panic reaches the caller through join().
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs).map(|_| scope.spawn(work)).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("pool worker panicked"))
                .collect()
        })
    };
    let mut results: Vec<(usize, R)> = shares.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    (
        results.into_iter().map(|(_, r)| r).collect(),
        PoolMetrics { workers: jobs },
    )
}

/// A unit of work for the persistent [`TaskQueue`].
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Everything the queue's workers share, under one lock.
#[derive(Default)]
struct QueueState {
    tasks: VecDeque<Task>,
    stop: bool,
    running: usize,
    panics: u64,
}

#[derive(Default)]
struct Shared {
    state: Mutex<QueueState>,
    /// Signalled on every push and on shutdown; workers wait on it
    /// while the queue is empty.
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("task queue lock poisoned")
    }
}

/// A long-lived pool for a server: unlike [`run`], which fans out one
/// fixed batch and joins, tasks arrive continuously
/// ([`TaskQueue::push`]) and workers live until [`TaskQueue::shutdown`].
/// Workers take tasks from one shared queue in push order; a panicking
/// task is isolated (counted, worker survives).
pub struct TaskQueue {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TaskQueue(queued: {}, running: {})",
            self.queued(),
            self.running()
        )
    }
}

impl TaskQueue {
    /// Spawns `workers` (at least one) idle worker threads.
    pub fn start(workers: usize) -> TaskQueue {
        let shared = Arc::new(Shared::default());
        let handles = (0..workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("taskq-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn task-queue worker")
            })
            .collect();
        TaskQueue {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues one task at the back. Pushed after shutdown began the
    /// task is silently dropped with the rest of the backlog.
    pub fn push(&self, task: Task) {
        self.shared.lock().tasks.push_back(task);
        self.shared.wake.notify_one();
    }

    /// Tasks enqueued but not yet picked up.
    pub fn queued(&self) -> usize {
        self.shared.lock().tasks.len()
    }

    /// Tasks currently executing on a worker.
    pub fn running(&self) -> usize {
        self.shared.lock().running
    }

    /// Tasks that panicked (isolated; their worker kept serving).
    pub fn task_panics(&self) -> u64 {
        self.shared.lock().panics
    }

    /// Stops the workers and joins them: tasks already *running* finish
    /// normally, tasks still queued are dropped. Returns how many were
    /// dropped. Idempotent — a second call returns 0.
    pub fn shutdown(&self) -> usize {
        self.shared.lock().stop = true;
        self.shared.wake.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for h in workers {
            let _ = h.join();
        }
        // Drop the backlog outside the lock: a task's captures may
        // have drop glue of their own.
        let backlog = std::mem::take(&mut self.shared.lock().tasks);
        backlog.len()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut st = shared
                .wake
                .wait_while(shared.lock(), |st| !st.stop && st.tasks.is_empty())
                .expect("task queue lock poisoned");
            // Stop wins over a non-empty queue: shutdown drops the
            // backlog (and reports it) instead of racing the join to
            // drain it.
            if st.stop {
                return;
            }
            st.running += 1;
            st.tasks.pop_front().expect("woken with a task queued")
        };
        // Isolate panics: one poisoned cell must not take the worker
        // (and eventually the whole queue) down with it.
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_ok();
        let mut st = shared.lock();
        st.running -= 1;
        st.panics += u64::from(!ok);
        drop(st);
        LIVE_TASKS_DONE.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let (out, m) = run(&items, 4, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(m.workers, 4);
    }

    #[test]
    fn serial_degenerate_cases() {
        let items = [1, 2, 3];
        let (out, m) = run(&items, 1, |&i| i + 1);
        assert_eq!(out, [2, 3, 4]);
        assert_eq!(m.workers, 1);
        let (out, _) = run(&items, 0, |&i| i);
        assert_eq!(out, [1, 2, 3]);
        let empty: [u32; 0] = [];
        let (out, _) = run(&empty, 8, |&i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_clamp_to_item_count() {
        let items = [5];
        let (out, m) = run(&items, 16, |&i| i);
        assert_eq!(out, [5]);
        assert_eq!(m.workers, 1);
    }

    #[test]
    fn idle_workers_drain_the_backlog_behind_a_slow_item() {
        // Item 0 pins one worker for a while; the other must run every
        // quick item meanwhile, so none waits behind the slow one and
        // the slow one finishes last.
        let items: Vec<u64> = vec![80, 0, 0, 0];
        let finished = Mutex::new(Vec::new());
        let (out, _) = run(&items, 2, |&ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            finished.lock().unwrap().push(ms);
            ms
        });
        assert_eq!(out, items);
        assert_eq!(finished.into_inner().unwrap(), [0, 0, 0, 80]);
    }

    #[test]
    fn items_start_in_index_order() {
        // Item 0 pins one worker; the other must take the quick items
        // in index order, so a longest-first sort by the caller holds.
        let items: Vec<(usize, u64)> = [80, 0, 0, 0, 0, 0].into_iter().enumerate().collect();
        let started = Mutex::new(Vec::new());
        run(&items, 2, |&(i, ms)| {
            if ms == 0 {
                started.lock().unwrap().push(i);
            }
            std::thread::sleep(std::time::Duration::from_millis(ms));
        });
        assert_eq!(started.into_inner().unwrap(), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn task_panic_propagates_instead_of_hanging() {
        let items: Vec<usize> = (0..16).collect();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&items, 4, |&i| {
                if i == 5 {
                    panic!("injected task panic");
                }
                i
            })
        }));
        assert!(res.is_err(), "the task panic must reach the caller");
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        run(&items, 8, |&i| counters[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(deadline_ms) {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn task_queue_runs_every_pushed_task_exactly_once() {
        let q = TaskQueue::start(4);
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..64).map(|_| AtomicUsize::new(0)).collect());
        for i in 0..64 {
            let counters = Arc::clone(&counters);
            q.push(Box::new(move || {
                counters[i].fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(
            wait_until(5000, || counters
                .iter()
                .all(|c| c.load(Ordering::SeqCst) == 1)),
            "all 64 tasks ran exactly once: {:?}",
            counters
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect::<Vec<_>>()
        );
        assert_eq!(q.queued(), 0);
        assert_eq!(q.shutdown(), 0, "nothing left to drop");
    }

    #[test]
    fn task_queue_isolates_panicking_tasks() {
        let q = TaskQueue::start(2);
        let done = Arc::new(AtomicUsize::new(0));
        q.push(Box::new(|| panic!("injected task panic")));
        let d = Arc::clone(&done);
        q.push(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(
            wait_until(5000, || done.load(Ordering::SeqCst) == 1),
            "the worker survived the panic and ran the next task"
        );
        assert!(wait_until(5000, || q.task_panics() == 1));
        q.shutdown();
    }

    #[test]
    fn task_queue_shutdown_finishes_running_and_drops_queued() {
        // One worker: a slow task occupies it while the backlog piles
        // up behind; shutdown must finish the running task and report
        // the rest dropped.
        let q = TaskQueue::start(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(AtomicUsize::new(0));
        {
            let ran = Arc::clone(&ran);
            let gate = Arc::clone(&gate);
            q.push(Box::new(move || {
                gate.store(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(100));
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(
            wait_until(5000, || gate.load(Ordering::SeqCst) == 1),
            "slow task started"
        );
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            q.push(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let dropped = q.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "in-flight task finished");
        assert_eq!(dropped, 8, "backlog dropped, not run");
        assert_eq!(q.queued(), 0);
        assert_eq!(q.running(), 0);
        assert_eq!(q.shutdown(), 0, "shutdown is idempotent");
    }

    #[test]
    fn task_queue_starts_tasks_in_push_order() {
        // Task 0 pins one worker; the other must start the rest in the
        // order they were pushed.
        let q = TaskQueue::start(2);
        let started = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32 {
            let started = Arc::clone(&started);
            q.push(Box::new(move || match i {
                0 => std::thread::sleep(Duration::from_millis(80)),
                _ => started.lock().unwrap().push(i),
            }));
        }
        assert!(wait_until(5000, || started.lock().unwrap().len() == 31));
        q.shutdown();
        assert_eq!(*started.lock().unwrap(), (1..32).collect::<Vec<_>>());
    }

    #[test]
    fn task_queue_workers_drain_a_backlog_behind_a_slow_task() {
        // Two workers: a slow task pins one while quick tasks pile up;
        // the other must run them all rather than leave any behind the
        // slow one, so the slow task finishes last.
        let q = TaskQueue::start(2);
        let finished = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32 {
            let finished = Arc::clone(&finished);
            q.push(Box::new(move || {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(80));
                }
                finished.lock().unwrap().push(i);
            }));
        }
        assert!(
            wait_until(5000, || finished.lock().unwrap().len() == 32),
            "all tasks completed: {:?}",
            finished.lock().unwrap()
        );
        assert_eq!(finished.lock().unwrap().last(), Some(&0));
        q.shutdown();
    }
}
