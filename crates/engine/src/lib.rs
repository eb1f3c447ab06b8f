//! Shared work-stealing execution runtime for the compression pipelines.
//!
//! Before this crate, every parallel layer of the workspace owned its own
//! thread pool: the segment pool of the codec-stream writer, the
//! readahead decode pool, and the lossy chunk pool — plus a *static*
//! per-shard split of the store's thread budget. Idle capacity in one
//! pool could not help a busy neighbour.
//!
//! [`Engine`] replaces all of them with one scheduler over independent
//! tasks: a fixed set of long-lived worker threads, each owning a
//! **lock-free Chase–Lev deque** (see `deque.rs`) plus a small
//! finely-locked *inbox* for tasks submitted from other threads, and a
//! shared finely-locked injector queue. A submitter is assigned a *home*
//! worker ([`Engine::assign_home`]); its tasks land in that worker's
//! inbox, the worker spills them onto its own deque, and any worker that
//! runs dry first drains the injector, then **steals** — lock-free CAS
//! on a sibling deque's top, falling back to a sibling's inbox. A shard
//! (or stream) with nothing to do therefore automatically donates its
//! capacity to a busy one — the [`EngineStats::steals`] counter makes
//! the donation observable. No global lock exists anywhere on the
//! submit/pop/steal path; the counters are relaxed atomics.
//!
//! Idle workers park on a condvar behind a sleeping-workers count:
//! a submit wakes **one** sleeper (and touches the condvar mutex only if
//! someone is actually asleep), so submitting to a saturated engine is
//! wait-free and never stampedes the other sleepers. Dropping the last
//! handle wakes everyone, and the workers drain what is queued, then
//! exit (joined by the final drop, except from inside an engine task).
//!
//! Ordering is deliberately *not* the engine's job: tasks are independent,
//! and each submitter restores its own order (the codec writers reassemble
//! frames by sequence number, the lossy classifier is a single serialized
//! actor task). That per-block independence is what lets the same bytes
//! come out at every worker count.
//!
//! Two shapes cover every pipeline in the workspace:
//!
//! * [`Engine::submit`] / [`Engine::submit_any`] — fire-and-forget
//!   `'static` task on a home deque or the shared injector (segment
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
//! let home = engine.assign_home();
//! for i in 0..10u64 {
//!     let sum = Arc::clone(&sum);
//!     engine.submit(home, move || {
//!         sum.fetch_add(i, Ordering::Relaxed);
//!     });
//! }
//! drop(engine); // the last handle drains the queues, then joins the workers
//! assert_eq!(sum.load(Ordering::Relaxed), 45);
//! ```

#![warn(missing_docs)]

mod deque;

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use deque::{ChaseLev, Steal};

/// A queued unit of work.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Hard cap on workers per engine: the worker registry is a fixed slab
/// of this many slots so readers can index it without any lock or
/// reallocation hazard. Far above any sane oversubscription level.
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
    /// Tasks handed to the engine (home inboxes + injector).
    pub submitted: u64,
    /// Tasks executed by engine workers.
    pub tasks_run: u64,
    /// Tasks a worker took from *another* worker's deque or inbox — the
    /// work-donation counter: nonzero means an idle worker picked up a
    /// busy submitter's backlog.
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
    steals: AtomicU64,
    panics: AtomicU64,
    scratch_fresh: AtomicU64,
    scratch_reused: AtomicU64,
}

/// Per-worker scheduling state.
///
/// The deque is owner-only on its bottom end (`push`/`pop` are reached
/// exclusively from the owning worker's loop); the inbox is where every
/// *other* thread leaves tasks for this worker, under a lock that is
/// held only for a queue operation, never during work. `inbox_len`
/// mirrors the inbox's length (updated inside the lock) so scan loops
/// skip empty inboxes without acquiring anything.
struct WorkerState {
    deque: ChaseLev,
    inbox: Mutex<VecDeque<Task>>,
    inbox_len: AtomicUsize,
}

impl WorkerState {
    fn new() -> Self {
        Self {
            deque: ChaseLev::new(),
            inbox: Mutex::new(VecDeque::new()),
            inbox_len: AtomicUsize::new(0),
        }
    }
}

struct Shared {
    /// Fixed slab of worker slots; `slots[..count]` are initialized.
    /// `OnceLock` gives lock-free reads after publication.
    slots: Box<[OnceLock<WorkerState>]>,
    /// Number of published workers (store-release after the slot is set).
    count: AtomicUsize,
    /// Overflow/anonymous queue drained by whichever worker is free.
    injector: Mutex<VecDeque<Task>>,
    /// Length mirror of `injector` (updated inside its lock): lets the
    /// scan skip an empty injector without the lock. A stale-empty read
    /// is safe — `pending` guarantees a re-scan before anyone parks.
    injector_len: AtomicUsize,
    /// Tasks enqueued anywhere but not yet claimed by a worker. The
    /// sleep protocol's Dekker flag: a parking worker re-checks it after
    /// registering as a sleeper, a submitter increments it before
    /// checking `sleepers` (both `SeqCst`), so one side always sees the
    /// other and no wakeup is lost.
    pending: AtomicUsize,
    /// Workers currently parked (or committing to park) on `wake`.
    /// Modified only under `sleep`; read lock-free by submitters.
    sleepers: AtomicUsize,
    /// Mutex the condvar parks on; protects no data of its own.
    sleep: Mutex<()>,
    wake: Condvar,
    counters: Counters,
    /// Set when the last owning handle drops: workers drain what is
    /// queued, then exit.
    shutdown: AtomicBool,
    next_home: AtomicUsize,
    /// Serializes growth; also stores the worker join handles for the
    /// final drop.
    lifecycle: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// The published worker at `index` (< `count`).
    fn slot(&self, index: usize) -> &WorkerState {
        // atclint: allow(library-unwrap) -- infallible: callers index
        // below `count`, and `grow_to` sets each slot before the
        // Release store of `count` that makes the index reachable.
        self.slots[index].get().expect("worker slot published")
    }

    /// Makes a freshly pushed task findable: bumps the pending count and
    /// wakes exactly one parked worker if there is one. Lock-free unless
    /// a worker is actually asleep.
    fn signal_work(&self) {
        // ordering: SeqCst pending increment + SeqCst sleepers load is
        // one half of the Dekker handshake with `worker`'s park path
        // (SeqCst sleepers increment + SeqCst pending re-check): in the
        // single total order, either we see their sleeper registration
        // (and notify) or they see our pending increment (and re-scan).
        self.pending.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // lock-held: `sleep` — taking the mutex orders this notify
            // against a worker mid-way into parking: it is either still
            // before its pending re-check (and will see our increment)
            // or already waiting (and receives the notify).
            let _guard = self.sleep.lock().unwrap_or_else(|e| e.into_inner());
            self.wake.notify_one();
        }
    }
}

/// Guard owned by [`Engine`] handles only (never by worker threads or
/// queued tasks' captured handles... those clone the whole `Engine`, which
/// keeps the guard alive until the task ran). Dropping the last one tells
/// the workers to drain and exit, then joins them.
struct ShutdownGuard {
    shared: Arc<Shared>,
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        // ordering: SeqCst — the shutdown flag joins the pending/
        // sleepers total order, so a worker's final `pending == 0 &&
        // shutdown` check cannot see a stale false for both.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Shutdown is the one broadcast: every sleeper must wake to
        // observe the flag. lock-held: `sleep` — notifying under the
        // mutex means a worker between its shutdown check and `wait`
        // cannot miss it.
        {
            let _guard = self.shared.sleep.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.wake.notify_all();
        }
        // Join the workers so engine teardown is deterministic (and so
        // tools like Miri see no threads outlive the test). If the last
        // handle drops *inside* an engine task, that worker cannot join
        // itself — it is skipped and exits on its own right after.
        let handles = std::mem::take(
            &mut *self
                .shared
                .lifecycle
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        let me = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// A handle to a work-stealing task engine.
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
            slots: (0..MAX_WORKERS).map(|_| OnceLock::new()).collect(),
            count: AtomicUsize::new(0),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            next_home: AtomicUsize::new(0),
            lifecycle: Mutex::new(Vec::new()),
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
        // ordering: Acquire pairs with the Release `count` store below,
        // so a reader that sees index i published also sees slot i set.
        if self.shared.count.load(Ordering::Acquire) >= target {
            return;
        }
        let mut handles = self
            .shared
            .lifecycle
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // ordering: Acquire — re-read under the lifecycle lock (another
        // handle may have grown the engine while we waited for it).
        let mut count = self.shared.count.load(Ordering::Acquire);
        while count < target {
            self.shared.slots[count]
                .set(WorkerState::new())
                .unwrap_or_else(|_| unreachable!("slot {count} published twice"));
            // ordering: Release — publish the slot set above before any
            // reader can compute this index from `count`.
            self.shared.count.store(count + 1, Ordering::Release);
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("atc-engine-{count}"))
                .spawn(move || worker(shared, count))
                // atclint: allow(library-unwrap) -- OS thread-spawn
                // failure at engine construction has no fallback; the
                // engine contract is workers exist or the process dies.
                .expect("spawn engine worker");
            handles.push(handle);
            count += 1;
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        // ordering: Acquire — see `grow_to`'s publication protocol.
        self.shared.count.load(Ordering::Acquire)
    }

    /// Assigns a home worker index for a new submitter (round-robin).
    ///
    /// Tasks submitted to a home land on that worker's queues; idle
    /// workers steal from it, so the home is an affinity hint, never a
    /// constraint.
    pub fn assign_home(&self) -> usize {
        // ordering: Relaxed — a round-robin ticket; only atomicity
        // matters, no other memory rides on it.
        self.shared.next_home.fetch_add(1, Ordering::Relaxed)
    }

    /// Queues `task` for `home`'s worker (modulo the worker count).
    /// Never blocks; submitters bound their own in-flight work.
    pub fn submit(&self, home: usize, task: impl FnOnce() + Send + 'static) {
        // ordering: Acquire — see `grow_to`'s publication protocol.
        let slot = self
            .shared
            .slot(home % self.shared.count.load(Ordering::Acquire));
        {
            let mut inbox = slot.inbox.lock().unwrap_or_else(|e| e.into_inner());
            inbox.push_back(Box::new(task));
            // ordering: Release length mirror, stored inside the lock;
            // lets `find_task` skip an empty inbox without locking. A
            // stale-empty read is safe — `pending` (SeqCst) forces a
            // re-scan before any worker parks.
            slot.inbox_len.store(inbox.len(), Ordering::Release);
        }
        // ordering: Relaxed — monotonic stats counter.
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.signal_work();
    }

    /// Queues `task` on the shared injector (no home affinity).
    pub fn submit_any(&self, task: impl FnOnce() + Send + 'static) {
        {
            let mut injector = self
                .shared
                .injector
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            injector.push_back(Box::new(task));
            // ordering: Release length mirror inside the lock — same
            // protocol as `submit`'s inbox_len.
            self.shared
                .injector_len
                .store(injector.len(), Ordering::Release);
        }
        // ordering: Relaxed — monotonic stats counter.
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.signal_work();
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.shared.counters;
        // ordering: Relaxed — observability counters; a snapshot has no
        // cross-counter consistency promise.
        EngineStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            tasks_run: c.tasks_run.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
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

/// Finds a task for worker `index`: own deque, own inbox (spilling the
/// backlog onto the deque so thieves can help), the injector, then a
/// round-robin steal sweep over the siblings' deques and inboxes.
/// Returns the task and whether it was stolen.
fn find_task(shared: &Shared, me: &WorkerState, index: usize) -> Option<(Task, bool)> {
    if let Some(ptr) = me.deque.pop() {
        // SAFETY: `pop` hands out a pushed pointer exactly once.
        return Some((unsafe { deque::from_ptr(ptr) }, false));
    }
    // ordering: Acquire/Release on the queue-length mirrors throughout
    // this scan — stores happen inside the owning lock, loads gate the
    // lock acquisition. A stale-empty read only skips a queue; the
    // SeqCst `pending` handshake forces a full re-scan before any
    // worker parks, so no task is stranded.
    if me.inbox_len.load(Ordering::Acquire) > 0 {
        let mut inbox = me.inbox.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(first) = inbox.pop_front() {
            // Spill the rest of the backlog onto our own (owner-side)
            // deque: thieves can then relieve us without touching the
            // inbox lock again.
            for task in inbox.drain(..) {
                me.deque.push(deque::into_ptr(task));
            }
            // ordering: Release mirror store under the inbox lock.
            me.inbox_len.store(0, Ordering::Release);
            return Some((first, false));
        }
    }
    // ordering: Acquire gate, Release mirror — as above.
    if shared.injector_len.load(Ordering::Acquire) > 0 {
        let mut injector = shared.injector.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(task) = injector.pop_front() {
            shared.injector_len.store(injector.len(), Ordering::Release);
            return Some((task, false));
        }
    }
    // ordering: Acquire pairs with `grow_to`'s Release count store.
    let n = shared.count.load(Ordering::Acquire);
    for d in 1..n {
        let j = (index + d) % n;
        let sibling = shared.slot(j);
        loop {
            match sibling.deque.steal() {
                // SAFETY: a successful CAS hands out the pointer once.
                Steal::Success(ptr) => return Some((unsafe { deque::from_ptr(ptr) }, true)),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        // ordering: Acquire gate, Release mirror — as above.
        if sibling.inbox_len.load(Ordering::Acquire) > 0 {
            let mut inbox = sibling.inbox.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(task) = inbox.pop_front() {
                sibling.inbox_len.store(inbox.len(), Ordering::Release);
                return Some((task, true));
            }
        }
    }
    None
}

/// Worker-thread body: run tasks while any are findable, park otherwise.
fn worker(shared: Arc<Shared>, index: usize) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    let me = shared.slot(index);
    loop {
        if let Some((task, stolen)) = find_task(&shared, me, index) {
            // ordering: SeqCst — `pending` lives in the Dekker total
            // order with `signal_work`; see the field docs.
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            if stolen {
                // ordering: Relaxed — stats counters, both below too.
                shared.counters.steals.fetch_add(1, Ordering::Relaxed);
            }
            shared.counters.tasks_run.fetch_add(1, Ordering::Relaxed);
            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                // Submitters observe the failure through their own result
                // channels (a missing result / poisoned latch); the worker
                // itself must survive to run unrelated submitters' tasks.
                // ordering: Relaxed — stats counter.
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            }
            continue;
        }
        // Nothing findable. If tasks were enqueued while the scan was
        // running (pending > 0), retry the scan instead of touching the
        // sleep mutex — the transient miss is common under a fast
        // producer and must not cost a lock acquisition.
        // ordering: SeqCst — every `pending`/`sleepers`/`shutdown`
        // access in this park path stays in the one total order with
        // `signal_work`'s increment+check, so either the submitter sees
        // our sleeper registration or we see its pending increment.
        if shared.pending.load(Ordering::SeqCst) > 0 {
            continue;
        }
        // Park. Register as a sleeper *before* the final pending
        // re-check (the Dekker handshake with `signal_work`), all under
        // the sleep mutex so a notify cannot slip between the re-check
        // and the wait.
        let guard = shared.sleep.lock().unwrap_or_else(|e| e.into_inner());
        // ordering: SeqCst — see the park-path comment above.
        if shared.pending.load(Ordering::SeqCst) == 0 && shared.shutdown.load(Ordering::SeqCst) {
            // Quiescent and shutting down: exit. (With pending > 0 we
            // loop again instead — queued work is drained even during
            // shutdown.)
            return;
        }
        // ordering: SeqCst — see the park-path comment above.
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        if shared.pending.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst) {
            let _guard = shared.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        // ordering: SeqCst — see the park-path comment above.
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
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
        let home = engine.assign_home();
        for n in 0..100usize {
            let tx = tx.clone();
            engine.submit(home, move || tx.send(n).unwrap());
        }
        drop(tx);
        let sum: usize = rx.iter().sum();
        assert_eq!(sum, (0..100).sum::<usize>());
        let stats = engine.stats();
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.tasks_run, 100);
    }

    #[test]
    fn idle_workers_steal_from_a_busy_home() {
        // All tasks target home 0; with 4 workers and tasks that take a
        // little while, the other three must steal to finish the batch.
        let engine = Engine::new(4);
        let (tx, rx) = mpsc::channel::<()>();
        for _ in 0..64 {
            let tx = tx.clone();
            engine.submit(0, move || {
                std::thread::sleep(Duration::from_millis(1));
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 64);
        assert!(
            engine.stats().steals > 0,
            "idle workers must steal a skewed backlog"
        );
    }

    #[test]
    fn task_panic_does_not_kill_the_worker() {
        let engine = Engine::new(1);
        let (tx, rx) = mpsc::channel::<&'static str>();
        engine.submit(0, || panic!("task panic"));
        let tx2 = tx.clone();
        engine.submit(0, move || tx2.send("alive").unwrap());
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
            engine.submit(0, move || {
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
            let home = engine.assign_home();
            for n in 0..50usize {
                let tx = tx.clone();
                engine.submit(home, move || tx.send(n).unwrap());
            }
            // engine handle drops here with tasks possibly still queued
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 50, "queued tasks still run after drop");
    }

    #[test]
    fn submit_any_round_robins_through_the_injector() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel::<()>();
        for _ in 0..10 {
            let tx = tx.clone();
            engine.submit_any(move || tx.send(()).unwrap());
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 10);
    }

    #[test]
    fn worker_count_is_clamped_to_the_slab() {
        let engine = Engine::new(100_000);
        assert_eq!(engine.workers(), 256);
    }

    /// Many producers × oversubscribed homes: every task must run
    /// exactly once no matter how submissions interleave with steals.
    #[test]
    fn stress_many_producers_oversubscribed_homes() {
        let producers = 8usize;
        let per_producer = if cfg!(miri) { 25 } else { 2_000 };
        let engine = Engine::new(4);
        let ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..producers {
                let engine = engine.clone();
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    // 23 distinct homes on 4 workers: heavy aliasing.
                    for i in 0..per_producer {
                        let ran = Arc::clone(&ran);
                        engine.submit(p * 31 + i, move || {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        drop(engine); // joins workers after the queues drain
        assert_eq!(ran.load(Ordering::Relaxed), producers * per_producer);
    }

    /// Regression test: dropping the engine while thieves are mid-steal
    /// (a skewed backlog being actively redistributed) must neither hang
    /// nor lose tasks — shutdown drains everything, then joins.
    #[test]
    fn shutdown_while_stealing_drains_everything() {
        let total = if cfg!(miri) { 50 } else { 1_000 };
        for _ in 0..if cfg!(miri) { 2 } else { 20 } {
            let engine = Engine::new(4);
            let ran = Arc::new(AtomicUsize::new(0));
            for _ in 0..total {
                let ran = Arc::clone(&ran);
                // Everything on one home: the other three workers are
                // stealing the backlog when the drop lands.
                engine.submit(0, move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            drop(engine);
            assert_eq!(ran.load(Ordering::Relaxed), total);
        }
    }

    /// A submit with every worker busy must not wake anyone (there is no
    /// one to wake): the sleeping-workers count gates the notify, so a
    /// saturated engine takes the wait-free path. Indirectly observable:
    /// the engine still finishes everything, and quickly.
    #[test]
    fn submit_on_saturated_engine_completes() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel::<()>();
        let gate = Arc::new(AtomicUsize::new(0));
        // Occupy both workers.
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            let tx = tx.clone();
            engine.submit_any(move || {
                while gate.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                tx.send(()).unwrap();
            });
        }
        // Saturated submits: sleepers == 0, pure queue pushes.
        for _ in 0..100 {
            let tx = tx.clone();
            engine.submit(0, move || tx.send(()).unwrap());
        }
        gate.store(1, Ordering::Release);
        drop(tx);
        assert_eq!(rx.iter().count(), 102);
    }
}
