//! Vendored stand-in for the `rayon` crate.
//!
//! Provides the subset this workspace uses: [`join`], [`scope`], a
//! [`ThreadPool`] built via [`ThreadPoolBuilder`] whose
//! [`install`](ThreadPool::install) scopes work onto that pool, and a
//! `par_iter().map().collect()` slice subset under [`iter`] /
//! [`prelude`]. Internally it is a shared-queue pool whose waiters *help*:
//! a thread blocked on a scope pops and runs pending jobs instead of
//! sleeping, so nested `join`/`scope` calls cannot deadlock — the
//! property that makes rayon's work-stealing safe to lean on, without the
//! per-thread deque machinery.
//!
//! The global pool is sized by the `CROSSMESH_THREADS` environment
//! variable (falling back to the machine's available parallelism); a pool
//! of one thread runs every task inline on the caller, which makes
//! "1 thread" a true sequential baseline for benchmarks.
//!
//! Scope spawn and join points are `crossmesh-hb` instrumentation seams:
//! when armed, each spawned job gets a fresh pair of happens-before edge
//! ids — spawner→job (released at spawn, acquired when the job starts)
//! and job→scope-exit (released when the job finishes, acquired after the
//! scope's latch opens) — so the race detector sees fork/join ordering
//! exactly as precise per-job edges. Disarmed, the cost is one relaxed
//! atomic load per spawn.

use crossmesh_hb as hb;
use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared pool state: the job queue and the worker wake-up channel.
struct PoolState {
    /// Total concurrency of the pool (workers + the installing caller).
    threads: usize,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl PoolState {
    fn new(threads: usize) -> Self {
        PoolState {
            threads,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn push(&self, job: Job) {
        hb::preempt();
        self.queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back(job);
        self.available.notify_one();
    }

    /// Pops the most recently pushed job. Helpers blocked in a scope use
    /// this so the job they run is (almost always) their own just-spawned
    /// child: helping then nests proportionally to the *user* recursion
    /// depth, not the total task count. Popping oldest-first there lets a
    /// recursive join workload stack thousands of unrelated task frames
    /// on one thread.
    fn try_pop_newest(&self) -> Option<Job> {
        hb::preempt();
        self.queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_back()
    }
}

fn worker_loop(state: Arc<PoolState>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(state.clone()));
    loop {
        let job = {
            let mut queue = state.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = state
                    .available
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

thread_local! {
    /// The pool the current thread belongs to (worker) or has installed.
    static CURRENT: std::cell::RefCell<Option<Arc<PoolState>>> =
        const { std::cell::RefCell::new(None) };
}

/// Worker threads run pending tasks inline while blocked in [`join`], so a
/// deeply recursive workload can stack many task frames on one worker; give
/// workers more headroom than the platform default.
const WORKER_STACK_BYTES: usize = 8 * 1024 * 1024;

fn spawn_worker(state: Arc<PoolState>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("crossmesh-pool-worker".into())
        .stack_size(WORKER_STACK_BYTES)
        .spawn(move || worker_loop(state))
        .expect("spawn pool worker")
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CROSSMESH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

fn global_state() -> Arc<PoolState> {
    static GLOBAL: OnceLock<Arc<PoolState>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let threads = default_threads();
            let state = Arc::new(PoolState::new(threads));
            // The caller participates, so spawn threads - 1 workers; the
            // global pool lives for the process, its workers are detached.
            for _ in 1..threads {
                spawn_worker(state.clone());
            }
            state
        })
        .clone()
}

fn current_state() -> Arc<PoolState> {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(global_state)
}

/// The concurrency of the pool the current thread would submit to.
pub fn current_num_threads() -> usize {
    current_state().threads
}

/// Tracks the spawned-but-unfinished jobs of one scope, and the first
/// panic any of them raised.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// job→scope-exit edge ids of every job spawned while the hb seam was
    /// engaged; the scope acquires them after the latch opens.
    hb_joins: Mutex<Vec<u64>>,
}

impl Latch {
    fn new() -> Self {
        Latch {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
            hb_joins: Mutex::new(Vec::new()),
        }
    }

    fn increment(&self) {
        *self.pending.lock().unwrap_or_else(|p| p.into_inner()) += 1;
    }

    fn decrement(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.pending.lock().unwrap_or_else(|p| p.into_inner()) == 0
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn resume_if_panicked(&self) {
        let payload = self.panic.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

/// Blocks until `latch` opens, running pending pool jobs while waiting so
/// nested scopes make progress instead of deadlocking.
fn help_until_done(state: &PoolState, latch: &Latch) {
    loop {
        if latch.is_done() {
            return;
        }
        if let Some(job) = state.try_pop_newest() {
            job();
            continue;
        }
        // Nothing to steal: sleep briefly; the timeout covers the race
        // where a job is pushed between the pop attempt and the wait.
        let pending = latch.pending.lock().unwrap_or_else(|p| p.into_inner());
        if *pending == 0 {
            return;
        }
        let _ = latch
            .done
            .wait_timeout(pending, Duration::from_millis(1))
            .unwrap_or_else(|p| p.into_inner());
    }
}

/// A raw pointer that may cross threads; sound because the scope it points
/// into outlives every job that dereferences it.
struct SendPtr(*const ());
unsafe impl Send for SendPtr {}

/// A scope in which tasks borrowing the enclosing stack frame may be
/// spawned; `scope` does not return until all of them have completed.
pub struct Scope<'scope> {
    state: Arc<PoolState>,
    latch: Arc<Latch>,
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("threads", &self.state.threads)
            .finish()
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns a task that may borrow anything outliving the scope. On a
    /// one-thread pool the task runs inline, preserving a strictly
    /// sequential execution order.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.latch.increment();
        if self.state.threads <= 1 {
            f(self);
            self.latch.decrement();
            return;
        }
        // Fork edge: released here, acquired when the job starts on its
        // worker; the join edge runs the other way (released at job end,
        // acquired by the scope after the latch opens).
        let hb_ids = if hb::engaged() {
            let fork = hb::fresh_id();
            let join = hb::fresh_id();
            hb::release(fork);
            self.latch
                .hb_joins
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(join);
            Some((fork, join))
        } else {
            None
        };
        let latch = self.latch.clone();
        let scope_ptr = SendPtr(self as *const Scope<'scope> as *const ());
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            // Force capture of the Send wrapper itself; precise capture
            // would otherwise grab only the non-Send raw pointer field.
            let scope_ptr: SendPtr = scope_ptr;
            let SendPtr(raw) = scope_ptr;
            // SAFETY: `scope` waits for this job before the Scope value
            // (and everything 'scope borrows) can be dropped.
            let scope = unsafe { &*(raw as *const Scope<'scope>) };
            if let Some((fork, _)) = hb_ids {
                hb::acquire(fork);
            }
            match catch_unwind(AssertUnwindSafe(|| f(scope))) {
                Ok(()) => {}
                Err(payload) => latch.record_panic(payload),
            }
            if let Some((_, join)) = hb_ids {
                hb::release(join);
            }
            latch.decrement();
        });
        // SAFETY: erasing 'scope to 'static is sound because the job is
        // guaranteed to finish before `scope` returns (the latch wait),
        // so no borrow is used after its referent is gone.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.state.push(job);
    }
}

/// Creates a scope on the current pool, runs `f` in it, then waits for
/// every spawned task (helping to run queued work while waiting).
/// Panics from spawned tasks are propagated after all tasks finish.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let state = current_state();
    let sc = Scope {
        state: state.clone(),
        latch: Arc::new(Latch::new()),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&sc)));
    // Even if `f` panicked, spawned jobs still borrow the stack: drain
    // them before unwinding further.
    help_until_done(&state, &sc.latch);
    // Join edges: every finished job released its id before decrementing
    // the latch, so acquiring here orders all job effects before the
    // scope's continuation.
    if hb::engaged() {
        let joins: Vec<u64> = sc
            .latch
            .hb_joins
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        for join in joins {
            hb::acquire(join);
        }
    }
    match result {
        Ok(r) => {
            sc.latch.resume_if_panicked();
            r
        }
        Err(payload) => resume_unwind(payload),
    }
}

/// Runs both closures, potentially in parallel, and returns both results.
/// `oper_a` runs on the calling thread; `oper_b` is offered to the pool.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut rb = None;
    let ra = {
        let rb_slot = &mut rb;
        scope(|s| {
            s.spawn(move |_| *rb_slot = Some(oper_b()));
            oper_a()
        })
    };
    let rb = rb.expect("join: second operand completed without a result");
    (ra, rb)
}

/// Error building a [`ThreadPool`]; the shim never actually fails, the
/// type exists for API compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for an explicitly sized [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (machine-sized) thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the pool concurrency; `0` means the default.
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Never fails in the shim; the `Result` mirrors rayon's API.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        let state = Arc::new(PoolState::new(threads));
        // The installing caller participates, so spawn threads - 1 workers.
        let workers = (1..threads).map(|_| spawn_worker(state.clone())).collect();
        Ok(ThreadPool { state, workers })
    }
}

/// An explicitly sized pool; work submitted inside
/// [`install`](ThreadPool::install) runs at this pool's concurrency.
pub struct ThreadPool {
    state: Arc<PoolState>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.state.threads)
            .finish()
    }
}

impl ThreadPool {
    /// The pool's concurrency (workers plus the installing caller).
    pub fn current_num_threads(&self) -> usize {
        self.state.threads
    }

    /// Runs `f` with this pool as the current thread's pool: every
    /// `join`/`scope`/`par_iter` inside targets it.
    pub fn install<R, F: FnOnce() -> R>(&self, f: F) -> R {
        let previous = CURRENT.with(|c| c.borrow_mut().replace(self.state.clone()));
        struct Restore(Option<Arc<PoolState>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(previous);
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Flip the flag under the queue lock: a worker that has just seen
        // `shutdown == false` still holds that lock until it is parked in
        // `available.wait`, so the wake-up below cannot fall into the gap
        // between its check and its wait (which left `join` hanging).
        {
            let _queue = self.state.queue.lock().unwrap_or_else(|p| p.into_inner());
            self.state.shutdown.store(true, Ordering::Release);
        }
        self.state.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Parallel iteration over slices: the `par_iter().map().collect()`
/// subset.
pub mod iter {
    use super::{current_state, scope};
    use std::marker::PhantomData;

    /// Types that can hand out a parallel iterator over `&self`.
    pub trait IntoParallelRefIterator<'data> {
        /// Element type yielded by reference.
        type Item: Sync + 'data;

        /// A parallel iterator over the elements.
        fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = T;

        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { items: self }
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = T;

        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { items: self }
        }
    }

    /// Parallel iterator over a slice.
    #[derive(Debug)]
    pub struct ParIter<'data, T: Sync> {
        items: &'data [T],
    }

    impl<'data, T: Sync> ParIter<'data, T> {
        /// Maps each element through `f` in parallel.
        pub fn map<R, F>(self, f: F) -> ParMap<'data, T, R, F>
        where
            R: Send,
            F: Fn(&'data T) -> R + Sync,
        {
            ParMap {
                items: self.items,
                f,
                _result: PhantomData,
            }
        }
    }

    /// The mapped form of [`ParIter`]; consumed by
    /// [`collect`](ParMap::collect).
    pub struct ParMap<'data, T: Sync, R: Send, F> {
        items: &'data [T],
        f: F,
        _result: PhantomData<fn() -> R>,
    }

    impl<T: Sync, R: Send, F> std::fmt::Debug for ParMap<'_, T, R, F> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ParMap")
                .field("len", &self.items.len())
                .finish()
        }
    }

    impl<'data, T, R, F> ParMap<'data, T, R, F>
    where
        T: Sync,
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        /// Runs the map and collects results in input order. Order (and
        /// therefore the collected value) is independent of thread count.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            let n = self.items.len();
            let threads = current_state().threads;
            let mut out: Vec<Option<R>> = Vec::with_capacity(n);
            out.resize_with(n, || None);
            if threads <= 1 || n <= 1 {
                for (slot, item) in out.iter_mut().zip(self.items) {
                    *slot = Some((self.f)(item));
                }
            } else {
                let chunk = n.div_ceil(threads * 2).max(1);
                let f = &self.f;
                scope(|s| {
                    let mut slots: &mut [Option<R>] = &mut out;
                    let mut items = self.items;
                    while !items.is_empty() {
                        let k = chunk.min(items.len());
                        let (head_slots, rest_slots) = slots.split_at_mut(k);
                        let (head_items, rest_items) = items.split_at(k);
                        slots = rest_slots;
                        items = rest_items;
                        s.spawn(move |_| {
                            for (slot, item) in head_slots.iter_mut().zip(head_items) {
                                *slot = Some(f(item));
                            }
                        });
                    }
                });
            }
            out.into_iter()
                .map(|v| v.expect("parallel map filled every slot"))
                .collect()
        }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn scope_runs_every_spawn() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_joins_do_not_deadlock() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.install(|| fib(16)), 987);
    }

    #[test]
    fn deep_recursive_joins_stay_within_stack() {
        // ~20k tasks; helping must pop newest-first so nesting tracks the
        // recursion depth (~20) rather than the task count, else this
        // overflows the test thread's stack.
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.install(|| fib(20)), 6765);
    }

    #[test]
    fn par_map_preserves_order_across_pools() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got: Vec<u64> =
                pool.install(|| items.par_iter().map(|&x| x * x).collect::<Vec<u64>>());
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn install_scopes_the_pool() {
        let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let four = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(one.install(current_num_threads), 1);
        assert_eq!(four.install(current_num_threads), 4);
        four.install(|| {
            assert_eq!(one.install(current_num_threads), 1);
            assert_eq!(current_num_threads(), 4);
        });
    }

    #[test]
    fn spawned_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
            pool.install(|| {
                scope(|s| {
                    s.spawn(|_| panic!("boom"));
                });
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn one_thread_pool_runs_inline() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let main_id = std::thread::current().id();
        pool.install(|| {
            scope(|s| {
                s.spawn(move |_| {
                    assert_eq!(std::thread::current().id(), main_id);
                });
            });
        });
    }
}
