//! Shared execution runtime for the compression pipelines.
//!
//! Before this crate, every parallel layer of the workspace owned its own
//! thread pool: the segment pool of the codec-stream writer, the
//! readahead decode pool, and the lossy chunk pool — plus a *static*
//! per-shard split of the store's thread budget. Idle capacity in one
//! pool could not help a busy neighbour.
//!
//! [`Engine`] replaces all of them with one scheduler over independent
//! tasks: a fixed set of long-lived worker threads popping **one FIFO
//! queue** behind one mutex, parked on one condvar while it is empty.
//! Whichever worker is free takes the oldest queued task, so a shard (or
//! stream) with nothing to do leaves its capacity to a busy one without
//! any per-submitter bookkeeping. The tasks are codec blocks that run
//! for milliseconds, so one short lock per submit and per pop is noise
//! next to the work it hands out.
//!
//! A submit pushes under the lock and wakes **one** parked worker.
//! Dropping the last handle sets the shutdown flag under the same lock
//! and wakes everyone; the workers drain what is queued, then exit
//! (joined by the final drop, except from inside an engine task).
//!
//! Ordering is deliberately *not* the engine's job: tasks are independent,
//! and each submitter restores its own order (the codec writers reassemble
//! frames by sequence number, the lossy classifier is a single serialized
//! actor task). That per-block independence is what lets the same bytes
//! come out at every worker count. FIFO still helps those submitters: the
//! oldest sequence number — the one an ordered-reassembly window waits
//! for — is the first to run.
//!
//! Two shapes cover every pipeline in the workspace:
//!
//! * [`Engine::submit`] — fire-and-forget `'static` task (segment
//!   compression, readahead decode, chunk files, network connections).
//! * [`WorkerLocal`] — per-worker scratch storage, so a task category can
//!   reuse buffers across tasks without locking during the work itself.
//!
//! There is one process-wide default engine ([`Engine::global_with`]),
//! grown to the largest worker count any caller has asked for; writers and
//! readers also accept an injected [`Engine`] so tests can pin worker
//! counts and read isolated counters.
//!
//! # Examples
//!
//! ```
//! use atc_engine::Engine;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let engine = Engine::new(2);
//! let sum = Arc::new(AtomicU64::new(0));
//! for i in 0..10u64 {
//!     let sum = Arc::clone(&sum);
//!     engine.submit(move || {
//!         sum.fetch_add(i, Ordering::Relaxed);
//!     });
//! }
//! drop(engine); // the last handle drains the queue, then joins the workers
//! assert_eq!(sum.load(Ordering::Relaxed), 45);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A queued unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Sanity cap on the worker count a caller may request: a thread count
/// typed as a byte count should not spawn a million OS threads. Far above
/// any useful oversubscription level.
const MAX_WORKERS: usize = 256;

/// Renders a caught panic payload for an error message.
///
/// Submitters that `catch_unwind` inside their tasks (to convert a
/// panicking codec into a latched stream error) share this one
/// downcast-and-borrow helper.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

thread_local! {
    /// Index of the engine worker running on this thread (None on
    /// producer/consumer threads).
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Snapshot of an engine's counters (see [`Engine::stats`]).
///
/// All counters are cumulative since the engine was created and are
/// updated with relaxed atomics — exact totals once the engine is
/// quiescent, approximate while tasks are in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tasks handed to the engine.
    pub submitted: u64,
    /// Tasks executed by engine workers.
    pub tasks_run: u64,
    /// Always 0: every worker pops the one shared queue, so no task is
    /// ever taken from another worker. Kept so existing readers of the
    /// stats still compile.
    pub steals: u64,
    /// Tasks that panicked (the panic is caught; the submitter observes
    /// it through its own result channel).
    pub panics: u64,
    /// [`WorkerLocal`] slots initialized fresh.
    pub scratch_fresh: u64,
    /// [`WorkerLocal`] slots reused from an earlier task on the same
    /// worker.
    pub scratch_reused: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    tasks_run: AtomicU64,
    panics: AtomicU64,
    scratch_fresh: AtomicU64,
    scratch_reused: AtomicU64,
}

/// What the workers wait on: the pending tasks, oldest first, and
/// whether the last handle is gone.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on every push (one waiter) and at shutdown (all).
    work: Condvar,
    counters: Counters,
    /// Serializes growth; holds the worker join handles for the final
    /// drop, so its length is the worker count.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn workers(&self) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.workers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until a task is queued (oldest first), or returns None once
    /// the queue is empty and shutting down.
    fn next_task(&self) -> Option<Task> {
        let mut queue = self.queue();
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                return Some(task);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.work.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Guard owned by [`Engine`] handles only (never by worker threads;
/// queued tasks that capture a handle keep the guard alive until they
/// ran). Dropping the last one tells the workers to drain and exit, then
/// joins them.
struct ShutdownGuard {
    shared: Arc<Shared>,
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.shared.queue().shutdown = true;
        // lock-held: none — the flag was set under `queue`, and a worker
        // checks it under that lock before every wait, so it either sees
        // the flag or is already waiting and receives this broadcast.
        self.shared.work.notify_all();
        // Join the workers so engine teardown is deterministic. If the
        // last handle drops *inside* an engine task, that worker cannot
        // join itself — it is skipped and exits on its own right after.
        let handles = std::mem::take(&mut *self.shared.workers());
        let me = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// A handle to a task engine.
///
/// Cheap to clone; the worker threads live until every handle is dropped
/// (they finish whatever is queued first). The process-wide default
/// engine from [`Engine::global_with`] is never shut down.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
    _guard: Arc<ShutdownGuard>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers())
            .finish()
    }
}

impl Engine {
    /// Spawns an engine with `workers` worker threads (`0` is clamped
    /// to 1, and counts above 256 to 256).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::default(),
            work: Condvar::new(),
            counters: Counters::default(),
            workers: Mutex::default(),
        });
        let engine = Self {
            _guard: Arc::new(ShutdownGuard {
                shared: Arc::clone(&shared),
            }),
            shared,
        };
        engine.grow_to(workers.max(1));
        engine
    }

    /// The process-wide default engine, grown to at least `min_workers`.
    ///
    /// Every writer/reader that is not handed an explicit engine submits
    /// here, so one process shares one set of compression workers no
    /// matter how many streams are open. The worker count only ever
    /// grows (to the largest count any caller requested) and the engine
    /// lives for the rest of the process.
    pub fn global_with(min_workers: usize) -> Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        let engine = GLOBAL.get_or_init(|| Engine::new(min_workers.max(1)));
        engine.grow_to(min_workers);
        engine.clone()
    }

    /// Adds workers until the engine has at least `target` of them.
    fn grow_to(&self, target: usize) {
        let target = target.min(MAX_WORKERS);
        let mut handles = self.shared.workers();
        while handles.len() < target {
            let index = handles.len();
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("atc-engine-{index}"))
                .spawn(move || worker(&shared, index))
                // atclint: allow(library-unwrap) -- OS thread-spawn
                // failure at engine construction has no fallback; the
                // engine contract is workers exist or the process dies.
                .expect("spawn engine worker");
            handles.push(handle);
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers().len()
    }

    /// Queues `task` behind everything already submitted. Never blocks
    /// on running work; submitters bound their own in-flight tasks.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.shared.queue().tasks.push_back(Box::new(task));
        // ordering: Relaxed — monotonic stats counter.
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        // lock-held: none — the push happened under `queue`, and a worker
        // re-checks the queue under that lock before every wait, so it
        // either sees the task or is already waiting for this notify.
        self.shared.work.notify_one();
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.shared.counters;
        // ordering: Relaxed — observability counters; a snapshot has no
        // cross-counter consistency promise.
        EngineStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            tasks_run: c.tasks_run.load(Ordering::Relaxed),
            steals: 0,
            panics: c.panics.load(Ordering::Relaxed),
            scratch_fresh: c.scratch_fresh.load(Ordering::Relaxed), // ordering: ditto
            scratch_reused: c.scratch_reused.load(Ordering::Relaxed),
        }
    }

    /// Index of the engine worker running the current thread, if any.
    pub fn current_worker() -> Option<usize> {
        WORKER_INDEX.with(Cell::get)
    }
}

/// Worker-thread body: run queued tasks oldest first until shutdown has
/// drained the queue.
fn worker(shared: &Shared, index: usize) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    while let Some(task) = shared.next_task() {
        // ordering: Relaxed — stats counter.
        shared.counters.tasks_run.fetch_add(1, Ordering::Relaxed);
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            // Submitters observe the failure through their own result
            // channels (a missing result / poisoned latch); the worker
            // itself must survive to run unrelated submitters' tasks.
            // ordering: Relaxed — stats counter.
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-worker scratch storage: one `T` slot per engine worker, taken for
/// the duration of a task and put back afterwards.
///
/// This is how task categories thread reusable buffers through the shared
/// engine without a lock held during the work itself: [`WorkerLocal::with`]
/// removes the current worker's slot under a short lock, runs the
/// closure lock-free, and restores the slot. Calls from non-worker
/// threads (the inline `threads <= 1` paths) get a fresh `T` each time.
/// Fresh-vs-reused counts feed [`EngineStats::scratch_fresh`] /
/// [`EngineStats::scratch_reused`].
#[derive(Debug)]
pub struct WorkerLocal<T> {
    slots: Mutex<Vec<Option<T>>>,
    engine: Engine,
}

impl<T: Default + Send> WorkerLocal<T> {
    /// Creates empty per-worker storage bound to `engine`'s counters.
    pub fn new(engine: &Engine) -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            engine: engine.clone(),
        }
    }

    /// Runs `f` with this worker's slot (default-initialized on first
    /// use), restoring the slot afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let index = Engine::current_worker();
        let counters = &self.engine.shared.counters;
        let mut value = match index {
            Some(i) => {
                let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
                if slots.len() <= i {
                    slots.resize_with(i + 1, || None);
                }
                slots[i].take()
            }
            None => None,
        };
        // ordering: Relaxed — stats counters.
        match &value {
            Some(_) => counters.scratch_reused.fetch_add(1, Ordering::Relaxed),
            None => counters.scratch_fresh.fetch_add(1, Ordering::Relaxed),
        };
        let mut v = value.take().unwrap_or_default();
        let result = f(&mut v);
        if let Some(i) = index {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots[i] = Some(v);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_all_submitted_tasks() {
        let engine = Engine::new(3);
        assert_eq!(engine.workers(), 3);
        let (tx, rx) = mpsc::channel::<usize>();
        for n in 0..100usize {
            let tx = tx.clone();
            engine.submit(move || tx.send(n).unwrap());
        }
        drop(tx);
        let sum: usize = rx.iter().sum();
        assert_eq!(sum, (0..100).sum::<usize>());
        let stats = engine.stats();
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.tasks_run, 100);
        assert_eq!(stats.steals, 0);
    }

    /// One worker parked on a gate must not strand the queue: the other
    /// worker runs every later task while the gate is still shut.
    #[test]
    fn parked_worker_does_not_strand_tasks() {
        let engine = Engine::new(2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        engine.submit(move || {
            parked_tx.send(()).unwrap();
            let _ = gate_rx.recv();
        });
        parked_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let (tx, rx) = mpsc::channel::<()>();
        for _ in 0..64 {
            let tx = tx.clone();
            engine.submit(move || tx.send(()).unwrap());
        }
        drop(tx);
        for _ in 0..64 {
            rx.recv_timeout(Duration::from_secs(30))
                .expect("a task stranded behind the parked worker");
        }
        assert_eq!(engine.stats().tasks_run, 65);
        drop(gate_tx);
    }

    #[test]
    fn one_worker_runs_tasks_in_submit_order() {
        let engine = Engine::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for n in 0..200usize {
            let order = Arc::clone(&order);
            engine.submit(move || order.lock().unwrap().push(n));
        }
        drop(engine); // drains the queue, then joins the worker
        assert_eq!(*order.lock().unwrap(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_does_not_kill_the_worker() {
        let engine = Engine::new(1);
        let (tx, rx) = mpsc::channel::<&'static str>();
        engine.submit(|| panic!("task panic"));
        let tx2 = tx.clone();
        engine.submit(move || tx2.send("alive").unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)).unwrap(), "alive");
        assert_eq!(engine.stats().panics, 1);
    }

    #[test]
    fn worker_local_reuses_per_worker_state() {
        let engine = Engine::new(2);
        let local: Arc<WorkerLocal<Vec<u8>>> = Arc::new(WorkerLocal::new(&engine));
        let (tx, rx) = mpsc::channel::<usize>();
        for _ in 0..40 {
            let local = Arc::clone(&local);
            let tx = tx.clone();
            engine.submit(move || {
                local.with(|buf| {
                    buf.push(1);
                    tx.send(buf.len()).unwrap();
                });
            });
        }
        drop(tx);
        let lens: Vec<usize> = rx.iter().collect();
        assert_eq!(lens.len(), 40);
        assert!(
            *lens.iter().max().unwrap() > 1,
            "state must persist across tasks on a worker"
        );
        let stats = engine.stats();
        assert!(
            stats.scratch_fresh <= 2,
            "at most one fresh slot per worker"
        );
        assert_eq!(stats.scratch_fresh + stats.scratch_reused, 40);
    }

    #[test]
    #[cfg(not(miri))] // the global engine's workers outlive the test
    fn global_engine_grows_to_the_largest_request() {
        let a = Engine::global_with(1);
        let before = a.workers();
        let b = Engine::global_with(before + 1);
        assert!(b.workers() > before);
        // Handles alias the same engine.
        let c = Engine::global_with(1);
        assert_eq!(b.workers(), c.workers());
    }

    #[test]
    fn drop_finishes_queued_tasks() {
        let (tx, rx) = mpsc::channel::<usize>();
        {
            let engine = Engine::new(2);
            for n in 0..50usize {
                let tx = tx.clone();
                engine.submit(move || tx.send(n).unwrap());
            }
            // engine handle drops here with tasks possibly still queued
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 50, "queued tasks still run after drop");
    }

    /// Requests above `MAX_WORKERS` are capped.
    #[test]
    fn worker_count_is_clamped_to_the_slab() {
        let engine = Engine::new(100_000);
        assert_eq!(engine.workers(), MAX_WORKERS);
    }

    /// Many producers submitting concurrently: every task must run
    /// exactly once no matter how the pushes interleave with the pops.
    #[test]
    fn stress_many_producers_oversubscribed_homes() {
        let producers = 8usize;
        let per_producer = if cfg!(miri) { 25 } else { 2_000 };
        let engine = Engine::new(4);
        let ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..producers {
                let engine = engine.clone();
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    for _ in 0..per_producer {
                        let ran = Arc::clone(&ran);
                        engine.submit(move || {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        drop(engine); // joins workers after the queue drains
        assert_eq!(ran.load(Ordering::Relaxed), producers * per_producer);
    }

    /// Dropping the engine while its workers are busy on a backlog must
    /// neither hang nor lose tasks — shutdown drains everything, then
    /// joins.
    #[test]
    fn shutdown_while_stealing_drains_everything() {
        let total = if cfg!(miri) { 50 } else { 1_000 };
        for _ in 0..if cfg!(miri) { 2 } else { 20 } {
            let engine = Engine::new(4);
            let ran = Arc::new(AtomicUsize::new(0));
            for _ in 0..total {
                let ran = Arc::clone(&ran);
                engine.submit(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            drop(engine);
            assert_eq!(ran.load(Ordering::Relaxed), total);
        }
    }

    /// Submits while every worker is busy only queue: the backlog runs
    /// once the workers are free again.
    #[test]
    fn submit_on_saturated_engine_completes() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel::<()>();
        let gate = Arc::new(AtomicUsize::new(0));
        // Occupy both workers.
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            let tx = tx.clone();
            engine.submit(move || {
                while gate.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                tx.send(()).unwrap();
            });
        }
        for _ in 0..100 {
            let tx = tx.clone();
            engine.submit(move || tx.send(()).unwrap());
        }
        gate.store(1, Ordering::Release);
        drop(tx);
        assert_eq!(rx.iter().count(), 102);
    }

    /// Workers that went back to an empty queue wake for later submits:
    /// each round's task is submitted only after the previous one ran,
    /// so the workers are parked (or on their way to it) every time.
    #[test]
    fn parked_workers_wake_for_later_submits() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel::<usize>();
        for round in 0..100usize {
            let tx = tx.clone();
            engine.submit(move || tx.send(round).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(30)).unwrap(), round);
        }
    }

    #[test]
    fn current_worker_is_set_only_on_engine_threads() {
        assert_eq!(Engine::current_worker(), None);
        let engine = Engine::new(3);
        let (tx, rx) = mpsc::channel::<Option<usize>>();
        for _ in 0..30 {
            let tx = tx.clone();
            engine.submit(move || tx.send(Engine::current_worker()).unwrap());
        }
        drop(tx);
        for index in rx.iter() {
            assert!(matches!(index, Some(i) if i < 3), "{index:?}");
        }
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let engine = Engine::new(0);
        assert_eq!(engine.workers(), 1);
        let (tx, rx) = mpsc::channel::<()>();
        engine.submit(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(30)).unwrap();
    }

    /// The last handle dropped inside an engine task: that worker must
    /// not join itself, and the drop must not hang.
    #[test]
    fn last_handle_dropped_inside_a_task() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel::<()>();
        let inner = engine.clone();
        engine.submit(move || {
            drop(inner);
            tx.send(()).unwrap();
        });
        drop(engine);
        rx.recv_timeout(Duration::from_secs(30)).unwrap();
    }
}
