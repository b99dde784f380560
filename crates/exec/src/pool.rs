//! The persistent work-stealing worker pool and its cheap cloneable
//! [`Parallelism`] handle.

use crate::ranges::{balanced_prefix_ranges, prefix_sums, uniform_ranges};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tpp_obs::{Recorder, SpanTimer};

/// Spans per participant in every [`Parallelism::steal_spans`] job: enough
/// that a participant finishing its cheap spans early steals real work
/// from the shared cursor, few enough that claim overhead stays
/// negligible. The one span-count rule of the workspace.
const SPANS_PER_WORKER: usize = 4;

/// Predicted work below which a [`Parallelism::steal_spans`] job runs
/// inline as one span on the calling thread, whatever the pool's width:
/// the one inline-or-pool rule of the workspace. The unit is **one
/// adjacency or posting entry read**; a job's work is the sum of its
/// weights, or its item count when it has none (one entry per item).
///
/// A dispatch costs a wake-up and a join, and in a resident process it
/// first waits for another request's job to retire (`ExecPool` runs one
/// job at a time). On a 2-vCPU container an idle 2-wide dispatch of no
/// work round-trips in ~17 µs, and a span reads an entry in 1–3 ns: a
/// 16k-entry job took 17 µs inline against 25 µs pooled, a 64k-entry one
/// 168 µs against 136 µs. Below 64k entries two participants cannot win
/// back the dispatch, let alone a wait behind another request's job.
const MIN_POOLED_WORK: usize = 1 << 16;

/// A dispatched task, type- and lifetime-erased for storage in the shared
/// pool state. The raw pointer is only ever dereferenced between the epoch
/// bump that installs it and the `active == 0` hand-back that
/// [`ExecPool::run`] blocks on, so the borrow it erases is always live at
/// every dereference site.
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared access from any thread is fine)
// and the pointer itself is only a capability to that shared borrow, so
// moving it across threads is sound.
unsafe impl Send for TaskPtr {}

/// Mutex-guarded pool state: the current job, its completion countdown,
/// and the first panic payload of the dispatch.
struct PoolState {
    /// The installed task of the current dispatch (`None` while idle).
    task: Option<TaskPtr>,
    /// Dispatch counter; a worker runs one task per observed increment.
    epoch: u64,
    /// Workers still executing the current dispatch.
    active: usize,
    /// First worker panic of the current dispatch (re-raised by `run`).
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set once on drop; workers exit their wait loop and return.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for the next epoch (or shutdown).
    work: Condvar,
    /// The dispatcher waits here for `active` to reach zero.
    done: Condvar,
}

impl PoolShared {
    /// Locks the pool state, recovering from poisoning. The state's
    /// invariants are maintained by simple assignments and counter
    /// arithmetic, none of which can be left half-done by an unwind, so a
    /// poisoned flag only records that *some* thread panicked nearby —
    /// which the dispatch path already handles via the `panic` slot. In a
    /// resident process, refusing to recover would turn one bad request
    /// into a permanent outage of the shared pool.
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stable address identifying this pool for the thread-local
    /// re-entrancy check (valid as long as any `Arc<PoolShared>` is live).
    fn key(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }
}

thread_local! {
    /// Pools this thread is currently executing a dispatch of — as the
    /// dispatching participant or as a worker running the task body. A
    /// nested `run` on any of these would deadlock on the dispatch queue,
    /// so it is rejected immediately instead.
    static ACTIVE_DISPATCHES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// RAII entry in [`ACTIVE_DISPATCHES`]: pushed for the span of a task body
/// (or a whole dispatch), popped on drop — unwind-safe, so a panicking
/// task still unregisters.
struct DispatchMark(usize);

impl DispatchMark {
    fn enter(key: usize) -> DispatchMark {
        ACTIVE_DISPATCHES.with(|d| d.borrow_mut().push(key));
        DispatchMark(key)
    }

    fn is_active(key: usize) -> bool {
        ACTIVE_DISPATCHES.with(|d| d.borrow().contains(&key))
    }
}

impl Drop for DispatchMark {
    fn drop(&mut self) {
        ACTIVE_DISPATCHES.with(|d| {
            let mut active = d.borrow_mut();
            if let Some(pos) = active.iter().rposition(|&k| k == self.0) {
                active.remove(pos);
            }
        });
    }
}

/// A long-lived worker pool: `threads - 1` OS threads spawned **once** at
/// construction, plus the dispatching thread itself, execute every
/// [`run`](Self::run) call. This replaces the per-call
/// `std::thread::scope` fan-outs the engine scan, the partitioned index,
/// and the CSR snapshot build each used to own: a k-round greedy run now
/// pays thread creation once, not k+ times.
///
/// # Determinism contract
///
/// The pool itself never orders results: [`run`](Self::run) hands every
/// participant the same closure and an arbitrary participant id. All
/// determinism lives one layer up, in the [`Parallelism`] combinators —
/// they claim work through a shared atomic cursor (so *which* participant
/// runs an item is scheduling noise) and reduce results **in item/span
/// order**, which is what makes every caller bit-identical to its
/// sequential path for every thread count. Nothing observable may depend
/// on participant ids or claim interleavings; the proptests in this crate
/// and the plan/build/commit equivalence suites downstream pin exactly
/// that.
///
/// # Sequential pools
///
/// `ExecPool::new(1)` spawns no threads at all and
/// [`run`](Self::run) degenerates to a plain inline call — the sequential
/// path allocates nothing and takes no locks.
///
/// # Panics and re-entrancy
///
/// A panic in any participant (including the dispatcher's own share) is
/// caught, the remaining participants finish their claimed work, and the
/// first payload is re-raised from [`run`](Self::run) — the pool stays
/// usable afterwards, and a panic landing at any lock site never wedges
/// it (poisoned state locks are recovered, see `PoolShared::lock_state`).
/// One pool still runs one job at a time, but the two ways of violating
/// that are now told apart: dispatch from a *second thread* queues behind
/// the current job and runs when it finishes (how a resident service
/// shares one pool across concurrent requests), while dispatch from
/// *inside a running task* of the same pool — which could never make
/// progress — panics immediately.
pub struct ExecPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    /// Serializes whole dispatches: a second dispatching thread parks here
    /// until the current job fully retires.
    dispatch: Mutex<()>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ExecPool {
    /// Builds a pool with `threads` total participants (`0` = all
    /// available cores, per [`crate::resolve_threads`]). `threads - 1`
    /// worker threads are spawned now and live until the pool drops.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = crate::resolve_threads(threads);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                task: None,
                epoch: 0,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tpp-exec-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("spawning executor worker")
            })
            .collect();
        ExecPool {
            shared,
            workers,
            threads,
            dispatch: Mutex::new(()),
        }
    }

    /// Total participants of a dispatch: the spawned workers plus the
    /// dispatching thread itself.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(participant_id)` once on **every** participant
    /// (ids `0..threads()`, the dispatcher being `0`), blocking until all
    /// of them return. Participants coordinate *work* among themselves
    /// (typically through an atomic cursor — see the [`Parallelism`]
    /// combinators); the pool only guarantees that each participant runs
    /// the closure exactly once per dispatch.
    ///
    /// With one participant this is a plain inline `task(0)` call: no
    /// allocation, no locks, no atomics.
    ///
    /// # Panics
    /// Re-raises the first participant panic, and panics on re-entrant
    /// dispatch from inside a running task of this same pool (a dispatch
    /// from another *thread* queues instead — see the type-level docs).
    pub fn run(&self, task: &(dyn Fn(usize) + Sync)) {
        let _ = self.run_queued(task);
    }

    /// [`run`](Self::run), returning how long the dispatch waited for the
    /// job of another dispatching thread to retire before its own began.
    fn run_queued(&self, task: &(dyn Fn(usize) + Sync)) -> Duration {
        if self.threads == 1 {
            task(0);
            return Duration::ZERO;
        }
        let key = self.shared.key();
        assert!(
            !DispatchMark::is_active(key),
            "re-entrant ExecPool dispatch: this thread is already running a \
             task of this pool (nested dispatch can never be scheduled; use \
             a different pool or the sequential path)"
        );
        // Whole-dispatch queue: concurrent dispatchers run one job at a
        // time, in arrival order. Poisoning only means a previous
        // dispatcher panicked *after* its job retired (the re-raise below
        // happens with the guard released), so recovery is safe.
        let queued = Instant::now();
        let turn = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
        let waited = queued.elapsed();
        let mark = DispatchMark::enter(key);
        {
            let mut st = self.shared.lock_state();
            let ptr: *const (dyn Fn(usize) + Sync) = task;
            // SAFETY: this only erases the borrow's lifetime. The pointer
            // is cleared below after `active` reaches zero, and `run` does
            // not return (not even by unwinding) before that point, so no
            // worker can observe it once `task`'s borrow expires.
            let ptr: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(ptr) };
            st.task = Some(TaskPtr(ptr));
            st.epoch += 1;
            st.active = self.threads - 1;
            self.shared.work.notify_all();
        }
        // The dispatcher is participant 0; its own panic must not skip the
        // join below (workers still borrow the task's captures).
        let own = catch_unwind(AssertUnwindSafe(|| task(0)));
        let worker_panic = {
            let mut st = self.shared.lock_state();
            while st.active > 0 {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.task = None;
            st.panic.take()
        };
        drop(mark);
        drop(turn);
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        waited
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            // Worker bodies catch task panics, so join only fails if the
            // pool machinery itself is broken — surface that loudly.
            handle.join().expect("executor worker died outside a task");
        }
    }
}

fn worker_loop(shared: &PoolShared, id: usize) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = shared.lock_state();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.task.as_ref().expect("epoch advanced without task").0;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the dispatcher keeps the closure alive until `active`
        // reaches zero, which happens strictly after this call returns.
        let task = unsafe { &*task };
        let result = {
            // Mark the task span so a nested dispatch on this same pool
            // from inside the task body is rejected, not deadlocked.
            let mark = DispatchMark::enter(shared.key());
            let result = catch_unwind(AssertUnwindSafe(|| task(id)));
            drop(mark);
            result
        };
        let mut st = shared.lock_state();
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_one();
        }
    }
}

/// A cheap cloneable handle to one [`ExecPool`], plumbed once from the
/// thread-count knob (`tpp protect --threads`, `GreedyConfig::exec`)
/// down through every parallel layer. Clones share the same pool — the
/// engine's sweeps and the index build dispatch onto the same spawn-once
/// workers.
///
/// Both combinators are **deterministic**: work is claimed through an
/// atomic cursor (so scheduling is free to be unfair) but results are
/// assembled in item/span order, making every output bit-identical to the
/// sequential path for every thread count. With `threads() == 1` every
/// combinator runs inline on the caller with no extra allocation, and
/// [`steal_spans`](Self::steal_spans) also runs inline any job too small
/// to pay for a dispatch.
#[derive(Clone)]
pub struct Parallelism {
    pool: Arc<ExecPool>,
    /// Telemetry sink for dispatch latency and claim balance; the
    /// disabled default keeps every combinator on its pre-instrumentation
    /// path (one `Option` branch per dispatch, nothing per item).
    recorder: Recorder,
}

impl std::fmt::Debug for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parallelism")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}

impl Parallelism {
    /// A handle over a fresh pool with `threads` participants (`0` = all
    /// available cores).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Parallelism {
            pool: Arc::new(ExecPool::new(threads)),
            recorder: Recorder::disabled(),
        }
    }

    /// A handle over **this same pool** (and its spawn-once workers) that
    /// reports into `recorder` instead of this handle's sink — how a
    /// resident process serves many requests from one pool while giving
    /// each request its own stats tree. Dispatches from the two handles
    /// queue behind each other (see [`ExecPool`]'s dispatch serialization).
    #[must_use]
    pub fn attach_recorder(&self, recorder: Recorder) -> Parallelism {
        let handle = Parallelism {
            pool: Arc::clone(&self.pool),
            recorder,
        };
        if let Some(stats) = handle.recorder.stats() {
            stats.exec.threads.set_max(handle.threads() as u64);
        }
        handle
    }

    /// `true` when both handles dispatch onto the same underlying pool
    /// (clones and [`attach_recorder`](Self::attach_recorder) offshoots).
    #[must_use]
    pub fn same_pool(&self, other: &Parallelism) -> bool {
        Arc::ptr_eq(&self.pool, &other.pool)
    }

    /// The telemetry sink this handle (and every clone) reports into.
    /// Downstream layers that receive a `Parallelism` reach their own
    /// stats sections through it, so one knob threads observability
    /// through engine, index, and store alike.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The single-participant handle: every combinator runs inline on the
    /// caller, allocation- and lock-free.
    #[must_use]
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Participants per dispatch (at least 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// `true` when dispatch runs inline on the caller only.
    fn is_sequential(&self) -> bool {
        self.threads() <= 1
    }

    /// The underlying pool (for direct [`ExecPool::run`] dispatch).
    #[must_use]
    pub fn pool(&self) -> &ExecPool {
        &self.pool
    }

    /// The determinism-critical claim/collect/sort scaffold shared by
    /// [`run_indexed`](Self::run_indexed) and
    /// [`steal_spans`](Self::steal_spans): indices `0..count` are claimed
    /// through one atomic cursor, each participant reuses one private
    /// context (created lazily on its first claimed index, so a
    /// participant that arrives after the cursor is exhausted pays
    /// nothing — contexts can be expensive scratch clones), and results
    /// come back **in index order**. Callers guarantee `threads > 1` and
    /// `count > 1`.
    fn claim_in_order<C, R, M, W>(&self, count: usize, make_ctx: M, work: W) -> Vec<R>
    where
        R: Send,
        M: Fn() -> C + Sync,
        W: Fn(&mut C, usize) -> R + Sync,
    {
        let stats = self.recorder.stats();
        let dispatch_span = SpanTimer::hist(stats.map(|s| &s.exec.dispatch_ns));
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(count));
        let waited = self.pool.run_queued(&|pid| {
            let mut ctx: Option<C> = None;
            let mut got: Vec<(usize, R)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                got.push((i, work(ctx.get_or_insert_with(&make_ctx), i)));
            }
            if let Some(st) = stats {
                let claimed = got.len() as u64;
                st.exec.claims_per_participant.record(claimed);
                st.exec.items_claimed.add(claimed);
                if pid != 0 {
                    st.exec.items_stolen.add(claimed);
                }
                if claimed == 0 {
                    st.exec.idle_participants.inc();
                }
            }
            if !got.is_empty() {
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(got);
            }
        });
        if let Some(st) = stats {
            st.exec.dispatches.inc();
            st.exec.queue_wait_ns.record_duration(waited);
        }
        dispatch_span.stop();
        let mut tagged = collected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs `work(i)` for every `i in 0..count` across the pool, indices
    /// claimed work-stealing through one atomic cursor, and returns the
    /// results **in index order** — which participant ran an index is
    /// never observable. `count <= 1` (or a sequential handle) runs
    /// inline.
    pub fn run_indexed<R, W>(&self, count: usize, work: W) -> Vec<R>
    where
        R: Send,
        W: Fn(usize) -> R + Sync,
    {
        if self.threads() <= 1 || count <= 1 {
            return (0..count).map(work).collect();
        }
        self.claim_in_order(count, || (), |(), i| work(i))
    }

    /// The work-stealing span scaffold behind every parallel job: cuts
    /// `items` into at most `threads × SPANS_PER_WORKER` contiguous
    /// weight-balanced spans, lets participants claim spans through one
    /// atomic cursor (each reusing one private `make_ctx` context, created
    /// lazily on its first claimed span), and returns every span's
    /// `run_span` result **in span order** — which participant ran a span,
    /// and how many spans there were, is scheduling noise the caller never
    /// observes once the per-span results are flattened or reduced in
    /// order. No items means no spans at every width. This is the one span
    /// rule of the workspace: callers never choose a span count.
    ///
    /// It is also the one inline-or-pool rule: a job whose predicted work
    /// is below `MIN_POOLED_WORK` entries runs `run_span` once, inline,
    /// over the whole slice — the path of a sequential handle — so it
    /// dispatches nothing and never queues behind another thread's job.
    /// Callers state work, never a decision.
    ///
    /// `weights` gives each item's predicted cost in entries read (one
    /// adjacency or posting entry = 1, one weight per item); the weights
    /// balance the spans and sum to the job's work. It is called only on a
    /// handle wider than one, so a sequential run never computes them.
    /// `None` means every item costs 1: the spans cut near-equal item
    /// counts, and the work is the item count.
    ///
    /// # Panics
    /// Panics if `weights` returns a length other than `items`'s.
    pub fn steal_spans<'w, T, C, R, W, M, F>(
        &self,
        items: &[T],
        weights: W,
        make_ctx: M,
        run_span: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        W: FnOnce() -> Option<Cow<'w, [usize]>>,
        M: Fn() -> C + Sync,
        F: Fn(&mut C, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let spans = (!self.is_sequential())
            .then(|| self.pooled_spans(items.len(), weights().as_deref()))
            .flatten();
        let Some(spans) = spans else {
            return vec![run_span(&mut make_ctx(), items)];
        };
        // When heavy weight skew yields fewer spans than participants,
        // the surplus participants still wake, find the cursor exhausted,
        // and re-sleep — one lock round-trip each, no context creation
        // (lazy), bounded single-digit microseconds per dispatch.
        self.claim_in_order(spans.len(), make_ctx, |ctx, i| {
            run_span(ctx, &items[spans[i].clone()])
        })
    }

    /// The spans of a `len`-item job on this (parallel) handle, or `None`
    /// when the job runs inline: its work is below `MIN_POOLED_WORK`, or
    /// it cuts into one span. One prefix-sum pass gives both the work and
    /// the weight-balanced cut.
    fn pooled_spans(&self, len: usize, weights: Option<&[usize]>) -> Option<Vec<Range<usize>>> {
        let parts = self.threads() * SPANS_PER_WORKER;
        let spans = match weights {
            None => (len >= MIN_POOLED_WORK).then(|| uniform_ranges(len, parts)),
            Some(w) => {
                assert_eq!(
                    w.len(),
                    len,
                    "steal_spans needs one weight per item: {} weights for {len} items",
                    w.len()
                );
                let prefix = prefix_sums(w);
                (prefix[len] >= MIN_POOLED_WORK as u64)
                    .then(|| balanced_prefix_ranges(&prefix, parts))
            }
        };
        spans.filter(|spans| spans.len() > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panic payloads are `&str` for literal messages and `String` for
    /// formatted ones; tests accept either.
    fn payload_text(payload: &Box<dyn std::any::Any + Send>) -> String {
        payload.downcast_ref::<&str>().map_or_else(
            || {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            },
            |s| (*s).to_string(),
        )
    }

    #[test]
    fn sequential_pool_runs_inline() {
        let exec = Parallelism::sequential();
        assert_eq!(exec.threads(), 1);
        assert!(exec.is_sequential());
        let out = exec.run_indexed(5, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        // Nested dispatch on a sequential pool is plain recursion.
        let nested = exec.run_indexed(3, |i| exec.run_indexed(2, move |j| i + j));
        assert_eq!(nested, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
    }

    #[test]
    fn run_indexed_is_in_order_at_every_thread_count() {
        for threads in [1usize, 2, 3, 4, 8] {
            let exec = Parallelism::new(threads);
            let out = exec.run_indexed(97, |i| i * i);
            assert_eq!(
                out,
                (0..97).map(|i| i * i).collect::<Vec<_>>(),
                "x{threads}"
            );
        }
    }

    #[test]
    fn zero_span_dispatch_is_a_no_op() {
        let exec = Parallelism::new(3);
        assert!(exec.run_indexed(0, |i| i).is_empty());
        let spans: Vec<usize> =
            exec.steal_spans(&[] as &[u8], || None, || (), |(), chunk| chunk.len());
        assert!(spans.is_empty());
        // The pool is still healthy afterwards.
        assert_eq!(exec.run_indexed(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let exec = Parallelism::new(4);
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run_indexed(16, |i| {
                assert!(i != 11, "poisoned item");
                i
            })
        }));
        let payload = attempt.expect_err("panic must propagate to the dispatcher");
        let msg = payload_text(&payload);
        assert!(msg.contains("poisoned item"), "got: {msg}");
        // The dispatch that panicked is fully retired; the pool keeps
        // serving.
        assert_eq!(exec.run_indexed(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn reentrant_dispatch_is_rejected() {
        let exec = Parallelism::new(2);
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run_indexed(4, |i| {
                // Dispatching on the pool we are running on: rejected.
                exec.run_indexed(2, |j| j).len() + i
            })
        }));
        let payload = attempt.expect_err("re-entrant dispatch must panic");
        let msg = payload_text(&payload);
        assert!(msg.contains("re-entrant"), "got: {msg}");
        // Rejection unwinds cleanly; the pool keeps serving.
        assert_eq!(exec.run_indexed(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn concurrent_dispatch_from_two_threads_queues() {
        // Two threads sharing one pool dispatch at the same time: the
        // second queues behind the first instead of panicking — the
        // resident-service sharing mode.
        let exec = Parallelism::new(3);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let exec = exec.clone();
                std::thread::spawn(move || {
                    let out = exec.run_indexed(64, move |i| i + t);
                    assert_eq!(out, (0..64).map(|i| i + t).collect::<Vec<_>>());
                })
            })
            .collect();
        for t in threads {
            t.join().expect("concurrent dispatch must not panic");
        }
    }

    #[test]
    fn poisoned_state_lock_is_recovered() {
        let exec = Parallelism::new(3);
        // Poison the state mutex the hard way: lock it on another thread
        // and panic while holding the guard.
        let shared = Arc::clone(&exec.pool.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("deliberate poison");
        });
        assert!(poisoner.join().is_err(), "poisoner must panic");
        assert!(
            exec.pool.shared.state.is_poisoned(),
            "mutex must be poisoned"
        );
        // Every later dispatch (and the drop path) must recover and work.
        assert_eq!(
            exec.run_indexed(8, |i| i * 3),
            (0..8).map(|i| i * 3).collect::<Vec<_>>()
        );
        drop(exec);
    }

    #[test]
    fn dispatch_after_a_panicked_dispatch_succeeds() {
        // The serve-lifecycle regression: one request's dispatch panics
        // (every participant, so the dispatcher's own share panics too);
        // the next dispatch on the same pool must succeed, not die in a
        // poisoned lock.
        let exec = Parallelism::new(4);
        for round in 0..3 {
            let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
                exec.run_indexed(16, |i| -> usize { panic!("bad request {round} item {i}") })
            }));
            assert!(attempt.is_err(), "panic must propagate");
            assert_eq!(
                exec.run_indexed(5, |i| i + round),
                (0..5).map(|i| i + round).collect::<Vec<_>>(),
                "pool must keep serving after panicked dispatch {round}"
            );
        }
    }

    #[test]
    fn attach_recorder_shares_the_pool_with_a_private_stats_tree() {
        let base = Parallelism::new(2);
        let rec_a = Recorder::enabled();
        let rec_b = Recorder::enabled();
        let a = base.attach_recorder(rec_a.clone());
        let b = base.attach_recorder(rec_b.clone());
        assert!(base.same_pool(&a) && base.same_pool(&b) && a.same_pool(&b));
        assert!(!base.same_pool(&Parallelism::new(2)));
        let _ = a.run_indexed(10, |i| i);
        assert_eq!(rec_a.stats().unwrap().exec.dispatches.get(), 1);
        assert_eq!(
            rec_b.stats().unwrap().exec.dispatches.get(),
            0,
            "sinks are per-handle"
        );
        let _ = b.run_indexed(10, |i| i);
        assert_eq!(rec_b.stats().unwrap().exec.dispatches.get(), 1);
        assert_eq!(a.threads(), 2);
    }

    #[test]
    fn drop_while_idle_shuts_down_cleanly() {
        // Never dispatched at all.
        drop(ExecPool::new(4));
        // Dispatched, then idle, then dropped.
        let exec = Parallelism::new(3);
        let _ = exec.run_indexed(8, |i| i);
        drop(exec);
        // Clones share one pool; dropping the last handle shuts it down.
        let a = Parallelism::new(2);
        let b = a.clone();
        drop(a);
        assert_eq!(b.run_indexed(2, |i| i), vec![0, 1]);
        drop(b);
    }

    #[test]
    fn recorder_sees_dispatches_and_claims() {
        let rec = Recorder::enabled();
        let exec = Parallelism::new(3).attach_recorder(rec.clone());
        let out = exec.run_indexed(40, |i| i);
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        let st = rec.stats().unwrap();
        assert_eq!(st.exec.threads.get(), 3);
        assert_eq!(st.exec.dispatches.get(), 1);
        assert_eq!(st.exec.items_claimed.get(), 40);
        assert_eq!(st.exec.dispatch_ns.count(), 1);
        let _ = exec.run_indexed(9, |i| i);
        assert_eq!(st.exec.dispatches.get(), 2);
        assert_eq!(st.exec.items_claimed.get(), 49);
        // A sequential recorded handle runs inline: no dispatches counted.
        let seq = Parallelism::new(1).attach_recorder(rec.clone());
        let _ = seq.run_indexed(8, |i| i);
        assert_eq!(st.exec.dispatches.get(), 2);
    }

    #[test]
    fn steal_spans_reduces_in_span_order() {
        // Flattened per-item results, in item order, equal a plain
        // sequential map at every width, weighted or not, on a reused
        // pool. Both jobs are large enough to be pooled.
        let items: Vec<u32> = (0..MIN_POOLED_WORK as u32 + 1000).collect();
        let weights: Vec<usize> = items.iter().map(|&x| (x as usize * 7919) % 13).collect();
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let exec = Parallelism::new(threads);
            for w in [None, Some(weights.as_slice())] {
                for pass in 0..2 {
                    let got = exec
                        .steal_spans(
                            &items,
                            || w.map(Cow::from),
                            || (),
                            |(), chunk| {
                                chunk
                                    .iter()
                                    .map(|&x| u64::from(x) * 3 + 1)
                                    .collect::<Vec<u64>>()
                            },
                        )
                        .concat();
                    assert_eq!(
                        got,
                        expect,
                        "x{threads} weighted {} pass {pass}",
                        w.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn steal_spans_plan_is_the_one_span_rule() {
        // Every span of a pooled job is reported as its item range: at
        // most 4 per participant, non-empty, contiguous, covering every
        // item.
        let items: Vec<usize> = (0..MIN_POOLED_WORK + 97).collect();
        let skewed: Vec<usize> = items
            .iter()
            .map(|&i| if i % 10 == 0 { 50 } else { 1 })
            .collect();
        for threads in [2usize, 3, 4, 8] {
            let exec = Parallelism::new(threads);
            for w in [None, Some(skewed.as_slice())] {
                let spans = exec.steal_spans(
                    &items,
                    || w.map(Cow::from),
                    || (),
                    |(), chunk| chunk[0]..chunk[0] + chunk.len(),
                );
                assert!(spans.len() <= 4 * threads, "x{threads}: {spans:?}");
                let mut cursor = 0;
                for span in &spans {
                    assert_eq!(span.start, cursor, "x{threads}: {spans:?}");
                    assert!(span.end > span.start, "x{threads}: {spans:?}");
                    cursor = span.end;
                }
                assert_eq!(cursor, items.len(), "x{threads}");
            }
        }
        // A sequential handle never weighs its items, makes one context
        // and runs one span over the whole slice.
        let contexts = AtomicUsize::new(0);
        let runs = AtomicUsize::new(0);
        let spans = Parallelism::sequential().steal_spans(
            &items,
            || -> Option<Cow<[usize]>> { unreachable!("a sequential handle weighed its items") },
            || contexts.fetch_add(1, Ordering::Relaxed),
            |_, chunk| {
                runs.fetch_add(1, Ordering::Relaxed);
                chunk.len()
            },
        );
        assert_eq!(spans, vec![items.len()]);
        assert_eq!(contexts.load(Ordering::Relaxed), 1);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jobs_below_the_pooled_work_run_inline_at_every_width() {
        // Unit items below the threshold, and weighted items whose weights
        // sum below it, run as one inline span with one context and no
        // dispatch; a job at the threshold, by item count or by weight,
        // dispatches on every pool wider than one. Results never differ.
        let few: Vec<u64> = (0..1000).collect();
        let many: Vec<u64> = (0..MIN_POOLED_WORK as u64).collect();
        let light = vec![(MIN_POOLED_WORK - 1) / few.len(); few.len()];
        let heavy = vec![MIN_POOLED_WORK.div_ceil(few.len()); few.len()];
        type Job<'a> = (&'a str, &'a [u64], Option<&'a [usize]>, bool);
        let jobs: [Job; 4] = [
            ("few unit items", &few, None, false),
            ("light weights", &few, Some(&light), false),
            ("many unit items", &many, None, true),
            ("heavy weights", &few, Some(&heavy), true),
        ];
        for threads in [1usize, 2, 3, 8] {
            for &(name, items, weights, pooled) in &jobs {
                let rec = Recorder::enabled();
                let exec = Parallelism::new(threads).attach_recorder(rec.clone());
                let contexts = AtomicUsize::new(0);
                let sums = exec.steal_spans(
                    items,
                    || weights.map(Cow::from),
                    || contexts.fetch_add(1, Ordering::Relaxed),
                    |_, chunk| chunk.iter().sum::<u64>(),
                );
                let label = format!("{name} x{threads}");
                assert_eq!(
                    sums.iter().sum::<u64>(),
                    items.iter().sum::<u64>(),
                    "{label}"
                );
                let dispatched = rec.stats().unwrap().exec.dispatches.get();
                if pooled && threads > 1 {
                    assert_eq!(dispatched, 1, "{label}");
                    assert!(sums.len() > 1, "{label}: {} spans", sums.len());
                } else {
                    assert_eq!(dispatched, 0, "{label}");
                    assert_eq!(sums.len(), 1, "{label}: one inline span");
                    assert_eq!(contexts.load(Ordering::Relaxed), 1, "{label}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2 weights for 4 items")]
    fn steal_spans_rejects_a_short_weight_slice() {
        let items = [10u64, 20, 30, 40];
        let _ = Parallelism::new(2).steal_spans(
            &items,
            || Some(Cow::from(&[1usize, 1][..])),
            || (),
            |(), chunk| chunk.iter().sum::<u64>(),
        );
    }
}
