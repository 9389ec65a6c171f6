//! A persistent **round-worker pool** and the one fan-out loop that every
//! parallel caller runs on it.
//!
//! The engine's two round phases used to fan out over `std::thread::scope`,
//! paying an OS thread spawn + join per worker **twice per round** — tens of
//! microseconds against a ~230µs round, which made `threads: 4` 1.8× *slower*
//! than `threads: 1` on the steady-state benchmark. [`RoundPool`] spawns its
//! workers exactly once and parks them on a condvar gate between uses, so
//! the per-round cost drops from thread creation to two condvar handoffs.
//!
//! ## One pull loop
//!
//! [`for_each_with`] is the only fan-out: the pool's workers pull items from
//! one shared, `Mutex`-guarded iterator until it runs dry, each building its
//! per-worker state once, on its first item. The engine hands it the lazy
//! chain of its parts' `&mut` buffer chunks, so a multi-part round neither
//! collects a task list nor allocates anything else; [`map_with`] (and
//! [`RoundPool::map`] on top of it) is a thin in-order adapter that zips
//! each task with its own result slot. With no pool, a width-1 pool or at
//! most one item, the loop runs inline on the caller.
//!
//! ## Lifecycle
//!
//! * [`RoundPool::new`]`(width)` spawns `width - 1` OS threads; the calling
//!   thread is worker 0. A pool of width 1 spawns nothing and runs jobs
//!   inline. `new` never clamps its width.
//! * [`RoundPool::run`] executes one *job* — `f(worker_index)` on every
//!   worker concurrently — and returns when all of them have finished.
//! * The caller owns the pool and lends it out: an engine borrows it for
//!   its lifetime (`Engine::new(.., Some(&mut pool))`) and splits every
//!   round into one part per worker, and a batch borrows it for one
//!   [`map_with`]. [`with_local_pool`] caches one pool per OS thread, so
//!   the batch runner and the service layer spawn their workers once per
//!   thread, not once per call.
//! * Dropping the pool releases the workers and joins them.
//!
//! ## Thread-count policy
//!
//! A user-facing thread count becomes a pool width in two steps:
//! [`resolve_threads`] maps `0` (auto) to the machine's available
//! parallelism, and [`clamp_width`] caps the result at
//! [`std::thread::available_parallelism`], logging once per process when a
//! request is lowered — parked workers beyond the cores only add scheduler
//! pressure. [`with_threads`] applies both and lends this thread's pool.
//! A caller that wants exactly `k` workers on any box (the engine's
//! multi-part tests) builds `RoundPool::new(k)` itself.
//!
//! ## Safety
//!
//! Handing a borrowing closure to persistent threads requires erasing its
//! lifetime — the one `unsafe` block in this crate (see `ErasedJob`). It
//! is sound because of the gate protocol in [`RoundPool::run`]: the job
//! pointer is published (under the state mutex) when the generation counter
//! advances, workers dereference it only before decrementing the
//! completion count, and the caller (which owns the pointee) blocks until
//! that count reaches zero. `run` takes `&mut self`, so the exclusive
//! access the protocol assumes is enforced by the borrow checker — two
//! concurrent `run`s on one pool do not compile. Worker panics are caught
//! at the job boundary and re-raised on the caller, so a panicking
//! algorithm can neither wedge the gate nor kill a worker.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};
use std::thread::JoinHandle;

/// First panic payload observed by a job's workers.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A type-erased pointer to the job currently being executed.
///
/// Stored as `'static` because the slot outlives any one job; the *actual*
/// lifetime is enforced by the run protocol (set before the start barrier,
/// dereferenced only before the end barrier, cleared after it).
struct ErasedJob(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is a `Sync` closure, and the pointer is only
// dereferenced by workers while `RoundPool::run` — whose argument it borrows
// — is blocked between the start and end barriers. See the module docs.
#[allow(unsafe_code)]
unsafe impl Send for ErasedJob {}

/// Everything the workers and the caller coordinate through, behind one
/// mutex. A condvar *gate* (generation counter) instead of `Barrier`s: the
/// participant count is whatever actually spawned, so a failed thread spawn
/// degrades the pool instead of stranding the already-spawned workers on a
/// barrier that can never fill.
struct State {
    /// Incremented per job; a worker runs each generation exactly once.
    generation: u64,
    /// The current job, `Some` only while a `run` is in flight.
    job: Option<ErasedJob>,
    /// Workers still executing the current generation.
    active: usize,
    /// Set to release the workers for good.
    stop: bool,
    /// First worker panic of the current job, re-raised by the caller.
    panic: Option<PanicPayload>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new generation (or stop).
    work_cv: Condvar,
    /// The caller waits here for `active` to reach zero.
    done_cv: Condvar,
}

/// A fixed-width pool of persistent round workers. See the module docs for
/// the lifecycle and the soundness argument.
pub struct RoundPool {
    shared: Arc<Shared>,
    width: usize,
    handles: Vec<JoinHandle<()>>,
}

impl RoundPool {
    /// Spawns `width - 1` parked worker threads (the caller is worker 0).
    /// `width <= 1` spawns nothing; jobs then run inline on the caller.
    ///
    /// A failed spawn (thread exhaustion under hostile load) degrades the
    /// pool to the workers that did start — logged, never panicking with
    /// threads already parked.
    pub fn new(width: usize) -> RoundPool {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                job: None,
                active: 0,
                stop: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(width - 1);
        for idx in 1..width {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("round-worker-{idx}"))
                .spawn(move || worker_loop(idx, &worker_shared))
            {
                Ok(h) => handles.push(h),
                Err(e) => {
                    eprintln!(
                        "anonet-sim: spawned only {} of {} round workers ({e}); \
                         continuing with a narrower pool",
                        handles.len(),
                        width - 1
                    );
                    break;
                }
            }
        }
        RoundPool { shared, width, handles }
    }

    /// The configured width, including the caller. (The live worker count
    /// can be lower if spawning degraded; `run` still executes every index —
    /// the caller covers the shares of workers that never spawned.)
    pub fn width(&self) -> usize {
        self.width
    }

    /// Runs `f(worker_index)` for **every** index in `0..width` — spawned
    /// workers take their own index, the caller executes index 0 plus the
    /// indices of any workers that failed to spawn — and returns once all
    /// of them finished. A worker panic is re-raised here after the round
    /// completes; the pool stays usable afterwards.
    ///
    /// Takes `&mut self`: the gate protocol (one job slot, one generation,
    /// one completion count) requires exclusive access, and the borrow
    /// checker enforcing it is what keeps the lifetime-erased job pointer
    /// sound even for a pool shared through an `Arc`/`Mutex` downstream —
    /// two concurrent `run`s on one pool cannot compile.
    pub fn run(&mut self, f: &(dyn Fn(usize) + Sync)) {
        // Index coverage is a contract: the caller also runs the shares of
        // never-spawned workers (degraded pool), in index order; a panic
        // abandons its remaining shares exactly like a sequential loop.
        let spawned = self.handles.len();
        let width = self.width;
        let caller_shares = || {
            f(0);
            for idx in spawned + 1..width {
                f(idx);
            }
        };
        if self.handles.is_empty() {
            return caller_shares();
        }
        // SAFETY: only the lifetime is erased. The pointer is cleared again
        // below, after every worker reported done, before `f`'s borrow can
        // end — the workers never observe it outside `f`'s actual lifetime.
        #[allow(unsafe_code)]
        let erased = ErasedJob(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f)
        });
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.job = Some(erased);
            st.generation += 1;
            st.active = self.handles.len();
        }
        self.shared.work_cv.notify_all();
        // The caller is worker 0; it must reach the completion wait even if
        // its own share panics, or the job pointer could outlive the borrow.
        let caller = catch_unwind(AssertUnwindSafe(caller_shares));
        // Take the payload *before* unwinding so the guard is dropped first
        // (a panic while the lock is held would poison it for every later
        // round).
        let worker_panic = {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            while st.active > 0 {
                st = self.shared.done_cv.wait(st).expect("pool state poisoned");
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
        if let Err(p) = caller {
            resume_unwind(p);
        }
    }

    /// Fans `tasks` out over the workers (pulled one at a time, so a slow
    /// task does not serialise the rest behind a fixed assignment) and
    /// returns the results **in task order**. Equivalent to
    /// `tasks.map(f)` run sequentially — bit-identical results, tested.
    pub fn map<T: Send, R: Send>(
        &mut self,
        tasks: Vec<T>,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> Vec<R> {
        map_with(Some(self), tasks, || (), |_, i, t| f(i, t))
    }
}

impl Drop for RoundPool {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shared.state.lock().expect("pool state poisoned").stop = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(idx: usize, shared: &Shared) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.stop {
                    return;
                }
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    break st.job.as_ref().expect("job set for new generation").0;
                }
                st = shared.work_cv.wait(st).expect("pool state poisoned");
            }
        };
        // SAFETY: the caller blocks in `run` until this worker decrements
        // `active` below, so the pointee outlives this call.
        #[allow(unsafe_code)]
        let result = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job })(idx)));
        let mut st = shared.state.lock().expect("pool state poisoned");
        if let Err(p) = result {
            // Keep the first payload; the worker itself must survive to
            // keep the completion counts intact.
            st.panic.get_or_insert(p);
        }
        st.active -= 1;
        if st.active == 0 {
            drop(st);
            shared.done_cv.notify_one();
        }
    }
}

/// The one fan-out loop: every worker of `pool` pulls items from the shared
/// iterator until it is exhausted and calls `f` on each, with per-worker
/// state that `init` builds on the worker's first item (so `init` runs at
/// most `width` times), letting a caller recycle allocations such as an
/// [`EngineScratch`](crate::engine::EngineScratch) across items. Items are
/// pulled in iterator order, one at a time under the lock; `f` runs outside
/// it. Results must not depend on which worker ran an item.
///
/// `None`, a width-1 pool, or an iterator that can yield at most one item
/// runs the loop inline on the caller. The loop allocates nothing itself.
pub fn for_each_with<I: Iterator + Send, S>(
    pool: Option<&mut RoundPool>,
    items: I,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, I::Item) + Sync,
) {
    match pool {
        Some(pool) if pool.width() > 1 && items.size_hint().1.map_or(true, |n| n > 1) => {
            let items = Mutex::new(items);
            pool.run(&|_worker| {
                let mut state = None;
                loop {
                    // The guard is a temporary: `f` runs with the lock free.
                    let Some(item) = items.lock().expect("pool items poisoned").next() else {
                        break;
                    };
                    f(state.get_or_insert_with(&init), item);
                }
            });
        }
        _ => {
            let mut state = init();
            items.for_each(|item| f(&mut state, item));
        }
    }
}

/// [`for_each_with`] collecting `f(state, index, task)` **in task order**:
/// each task carries its own result slot. Equivalent to a sequential map —
/// bit-identical results, tested.
pub fn map_with<S, T: Send, R: Send>(
    pool: Option<&mut RoundPool>,
    tasks: Vec<T>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, T) -> R + Sync,
) -> Vec<R> {
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(tasks.len()).collect();
    let tasks = tasks.into_iter().enumerate().zip(&mut slots);
    for_each_with(pool, tasks, init, |state, ((i, task), slot)| *slot = Some(f(state, i, task)));
    slots.into_iter().map(|r| r.expect("every task ran")).collect()
}

thread_local! {
    /// One reusable pool per OS thread (see [`with_local_pool`]).
    static LOCAL_POOL: RefCell<Option<RoundPool>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's cached [`RoundPool`], (re)creating it when the
/// cached width differs. A service worker or batch caller that issues many
/// fan-outs therefore spawns its workers once, not once per call — pass the
/// machine-derived width (not one coupled to the task count) so consecutive
/// calls keep hitting the cache. Reentrant calls are safe (the inner call
/// builds a transient pool).
pub fn with_local_pool<R>(width: usize, f: impl FnOnce(&mut RoundPool) -> R) -> R {
    /// Returns the pool to the TLS slot on drop, so a panicking job (which
    /// `RoundPool::run` deliberately survives) does not throw the spawned
    /// workers away with it.
    struct Restore(Option<RoundPool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let pool = self.0.take();
            // try_with: during thread teardown the TLS slot may already be
            // gone, and a second panic inside an unwind would abort.
            let _ = LOCAL_POOL.try_with(|cell| *cell.borrow_mut() = pool);
        }
    }
    let cached = LOCAL_POOL.with(|cell| cell.borrow_mut().take());
    let mut guard = Restore(Some(match cached {
        Some(p) if p.width() == width.max(1) => p,
        _ => RoundPool::new(width),
    }));
    f(guard.0.as_mut().expect("pool present until drop"))
}

/// Lends `f` this thread's cached pool at the width a user-facing thread
/// count resolves to ([`resolve_threads`], then [`clamp_width`]), or `None`
/// when that width is 1.
pub fn with_threads<R>(threads: usize, f: impl FnOnce(Option<&mut RoundPool>) -> R) -> R {
    match clamp_width(resolve_threads(threads)) {
        1 => f(None),
        width => with_local_pool(width, |pool| f(Some(pool))),
    }
}

/// The machine's available parallelism (cached; 1 when unknown).
pub fn hardware_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolves a user-facing thread count: `0` means **auto** (the machine's
/// available parallelism); any explicit count is kept. Pair with
/// [`clamp_width`] for the pool width.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        hardware_threads()
    } else {
        requested
    }
}

/// Caps a resolved thread count at the machine's available parallelism —
/// spawning more parked workers than cores only adds scheduler pressure.
/// Logs once per process when a request is lowered, so oversubscribed
/// configurations are never silent.
pub fn clamp_width(resolved: usize) -> usize {
    let hw = hardware_threads();
    if resolved > hw {
        static WARN: Once = Once::new();
        WARN.call_once(|| {
            eprintln!(
                "anonet-sim: {resolved} threads requested, capping the worker pool at the \
                 available parallelism ({hw})"
            );
        });
        hw
    } else {
        resolved.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn map_matches_sequential_for_every_width() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * i + 1).collect();
        for width in [1usize, 2, 3, 4, 8] {
            let mut pool = RoundPool::new(width);
            assert_eq!(pool.width(), width);
            let tasks: Vec<u64> = (0..97).collect();
            let got = pool.map(tasks, |i, t| {
                assert_eq!(i as u64, t);
                t * t + 1
            });
            assert_eq!(got, expect, "width={width}");
        }
    }

    #[test]
    fn run_executes_every_worker_exactly_once_per_round() {
        let mut pool = RoundPool::new(4);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..50 {
            pool.run(&|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 50, "worker {w}");
        }
    }

    #[test]
    fn pool_is_reused_across_many_rounds_and_survives_panics() {
        let mut pool = RoundPool::new(3);
        // A worker panic is re-raised on the caller...
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..8).collect::<Vec<u32>>(), |_, t| {
                if t == 5 {
                    panic!("task 5 exploded");
                }
                t
            })
        }));
        assert!(r.is_err());
        // ...and the pool keeps working afterwards (workers never die).
        let got = pool.map((0..8).collect::<Vec<u32>>(), |_, t| t + 1);
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn caller_panic_reaches_the_caller_and_pool_survives() {
        let mut pool = RoundPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 0 {
                    panic!("caller share exploded");
                }
            });
        }));
        assert!(r.is_err());
        pool.run(&|_| {});
    }

    #[test]
    fn map_with_none_is_sequential() {
        let got = map_with(None, vec![3u32, 1, 4], || (), |_, i, t| (i, t));
        assert_eq!(got, vec![(0, 3), (1, 1), (2, 4)]);
        let empty: Vec<u32> = Vec::new();
        assert!(map_with(None, empty, || (), |_, _, t: u32| t).is_empty());
    }

    #[test]
    fn map_with_keeps_per_worker_state() {
        // `RoundPool::new` does not clamp, so every width below spawns a
        // real multi-worker pool even on a one-core box.
        let expect: Vec<u64> = (0..97u64).map(|i| i * 3).collect();
        for width in [1usize, 2, 3, 4, 8] {
            let mut pool = RoundPool::new(width);
            let inits = AtomicUsize::new(0);
            // Each worker's state records the tasks it ran, so a task can
            // check that it sees exactly what earlier tasks on the same
            // worker left behind.
            let got = map_with(
                Some(&mut pool),
                (0..97u64).collect(),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new()
                },
                |seen, i, t| {
                    assert_eq!(i as u64, t);
                    assert!(seen.iter().all(|&s| s < t), "width={width}: tasks pulled in order");
                    seen.push(t);
                    (t * 3, seen.len())
                },
            );
            let results: Vec<u64> = got.iter().map(|&(r, _)| r).collect();
            assert_eq!(results, expect, "width={width}");
            let runs = inits.load(Ordering::Relaxed);
            assert!((1..=width).contains(&runs), "width={width}: init ran {runs} times");
            // Every task after a worker's first saw that worker's history:
            // the per-task history lengths sum to Σ_w (1 + … + tasks_w).
            let firsts = got.iter().filter(|&&(_, len)| len == 1).count();
            assert_eq!(firsts, runs, "width={width}: one fresh state per initialised worker");
        }
    }

    #[test]
    fn local_pool_is_cached_per_width() {
        let a = with_local_pool(3, |p| {
            assert_eq!(p.width(), 3);
            p.map(vec![1u32, 2, 3], |_, t| t * 2)
        });
        assert_eq!(a, vec![2, 4, 6]);
        // Same width: reuses the cached pool (no way to observe identity
        // directly, but the call must keep working and stay width 3).
        with_local_pool(3, |p| assert_eq!(p.width(), 3));
        with_local_pool(2, |p| assert_eq!(p.width(), 2));
    }

    #[test]
    fn resolve_and_clamp_policy() {
        let hw = hardware_threads();
        assert!(hw >= 1);
        assert_eq!(resolve_threads(0), hw);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(clamp_width(1), 1);
        assert_eq!(clamp_width(hw + 7), hw);
        assert_eq!(clamp_width(0), 1); // degenerate input still yields a worker
    }
}
