//! A warm engine run allocates nothing: once an [`EngineScratch`] has seen
//! an instance, running the same instance through it again makes no heap
//! allocation from [`Engine::with_scratch`] through the last
//! [`Engine::step`] — on one part, and on two parts fanned out over a
//! 2-worker [`RoundPool`]. That covers the construction's refill of the
//! recycled vectors, the sweeps of every part (which build no task list,
//! pooled or not), the partition refresh of every round in which nodes
//! halt, and the broadcast rank table.
//!
//! Allocations are counted by a `System`-forwarding global allocator. A
//! one-part run is counted in a thread-local counter, so tests running in
//! parallel on other threads do not disturb the count. A pooled run also
//! executes on the pool's worker, so it is counted process-wide, on every
//! thread *enlisted* into the count: the test thread and, through one
//! [`RoundPool::run`], each of the pool's workers. Only one test enlists
//! threads, so the process-wide counter is its alone.

use anonet_sim::{
    BcastAlgorithm, Broadcast, Delivery, Engine, EngineScratch, Graph, PnAlgorithm, PortNumbering,
    RoundPool,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ENLISTED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made on enlisted threads, process-wide.
static ENLISTED_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting every allocation on the calling thread,
/// and on enlisted threads also process-wide (`realloc` and `alloc_zeroed`
/// go through `alloc` by default).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s and a static atomic, which never allocate.
// lint: allow(unsafe-audit) — a counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwarded to `System.alloc` with the caller's layout.
    // lint: allow(unsafe-audit) — `GlobalAlloc::alloc` is an `unsafe fn`
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread's own teardown may allocate after its
        // thread-locals are gone.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        if ENLISTED.try_with(Cell::get).unwrap_or(false) {
            ENLISTED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: forwarded to `System.dealloc`, which allocated `ptr`.
    // lint: allow(unsafe-audit) — `GlobalAlloc::dealloc` is an `unsafe fn`
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Node `v` halts at round `v % 5 + 1`: the frontier shrinks in each of
/// the first five rounds, so each refreshes the partition.
fn halt_round(input: u64) -> u64 {
    input % 5 + 1
}

/// PN hash whose every send is uniform.
struct UniformHash {
    h: u64,
    halt_at: u64,
}

impl PnAlgorithm for UniformHash {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = ();

    fn init(_: &(), degree: usize, input: &u64) -> Self {
        UniformHash { h: input ^ degree as u64, halt_at: halt_round(*input) }
    }
    fn send(&self, cfg: &(), round: u64, out: &mut [u64]) {
        out.fill(self.send_uniform(cfg, round).expect("always uniform"));
    }
    fn send_uniform(&self, _: &(), round: u64) -> Option<u64> {
        Some(self.h.wrapping_add(round))
    }
    fn receive(&mut self, _: &(), round: u64, incoming: &[&u64]) -> Option<u64> {
        for &&m in incoming {
            self.h = self.h.rotate_left(7).wrapping_add(m);
        }
        (round >= self.halt_at).then_some(self.h)
    }
}

/// PN hash that sends per port, with variable-width messages, so the send
/// sweep measures every node's slots.
struct PortHash {
    h: u64,
    halt_at: u64,
}

impl PnAlgorithm for PortHash {
    type Msg = Option<u64>;
    type Input = u64;
    type Output = u64;
    type Config = ();

    fn init(_: &(), degree: usize, input: &u64) -> Self {
        PortHash { h: input ^ degree as u64, halt_at: halt_round(*input) }
    }
    fn send(&self, _: &(), round: u64, out: &mut [Option<u64>]) {
        for (p, m) in out.iter_mut().enumerate() {
            let x = self.h.wrapping_add(round).wrapping_add(p as u64);
            *m = (x % 3 != 0).then_some(x);
        }
    }
    fn receive(&mut self, _: &(), round: u64, incoming: &[&Option<u64>]) -> Option<u64> {
        for (p, m) in incoming.iter().enumerate() {
            self.h = self.h.rotate_left(7).wrapping_add(m.unwrap_or(p as u64));
        }
        (round >= self.halt_at).then_some(self.h)
    }
}

/// Broadcast census with the same halting schedule.
struct Census {
    h: u64,
    halt_at: u64,
}

impl BcastAlgorithm for Census {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = ();

    fn init(_: &(), degree: usize, input: &u64) -> Self {
        Census { h: input.wrapping_mul(31) ^ degree as u64, halt_at: halt_round(*input) }
    }
    fn send(&self, _: &(), round: u64) -> u64 {
        // Few distinct values, so hubs take the counting gather.
        (self.h.wrapping_add(round)) % 7
    }
    fn receive(&mut self, _: &(), round: u64, incoming: &[&u64]) -> Option<u64> {
        for &&m in incoming {
            self.h = self.h.rotate_left(9).wrapping_add(m);
        }
        (round >= self.halt_at).then_some(self.h)
    }
}

/// A 4-regular circulant on 200 nodes, a hub joined to 18 more of them,
/// and one isolated node: uneven degrees, including zero.
fn graph() -> Graph {
    let n = 200;
    let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    edges.extend((0..n).map(|v| (v, (v + 5) % n)));
    edges.extend((20..n).step_by(10).map(|v| (0, v)));
    Graph::from_edges(n + 1, &edges).unwrap()
}

/// Runs the instance twice through one scratch, on `pool` when given (one
/// part otherwise), and returns what `allocs` counted during the second
/// run, from construction through its last round.
fn warm_run_allocs<A: Send + Sync, D: Delivery<A, Input = u64, Config = ()>>(
    g: &Graph,
    mut pool: Option<&mut RoundPool>,
    allocs: fn() -> u64,
) -> u64 {
    let inputs: Vec<u64> = (0..g.n() as u64).collect();
    let mut scratch = EngineScratch::<A, D>::new();
    let mut counted = u64::MAX;
    for _ in 0..2 {
        let before = allocs();
        let pool = pool.as_deref_mut();
        let mut engine = Engine::<A, D>::with_scratch(g, &(), &inputs, pool, &mut scratch).unwrap();
        while !engine.step() {
            assert!(engine.round() < 10, "every node halts by round 5");
        }
        counted = allocs() - before;
        assert_eq!(engine.round(), 5);
        assert!(engine.finish_scratch(&mut scratch).is_some());
    }
    counted
}

fn enlisted_allocs() -> u64 {
    ENLISTED_ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn counter_sees_allocations() {
    let before = allocs();
    let v = std::hint::black_box(vec![1u64; 4]);
    assert!(allocs() > before);
    drop(v);
}

#[test]
fn warm_uniform_pn_run_allocates_nothing() {
    assert_eq!(warm_run_allocs::<UniformHash, PortNumbering>(&graph(), None, allocs), 0);
}

#[test]
fn warm_per_port_pn_run_allocates_nothing() {
    assert_eq!(warm_run_allocs::<PortHash, PortNumbering>(&graph(), None, allocs), 0);
}

#[test]
fn warm_broadcast_run_allocates_nothing() {
    assert_eq!(warm_run_allocs::<Census, Broadcast>(&graph(), None, allocs), 0);
}

#[test]
fn warm_two_worker_runs_allocate_nothing() {
    let mut pool = RoundPool::new(2);
    // Enlist the test thread (worker 0) and the pool's spawned worker, and
    // check that the counter sees an allocation on each of them.
    pool.run(&|_| ENLISTED.with(|e| e.set(true)));
    let before = enlisted_allocs();
    pool.run(&|_| drop(std::hint::black_box(Box::new(0u64))));
    assert_eq!(enlisted_allocs() - before, 2, "both workers are counted");
    let (g, count) = (graph(), enlisted_allocs);
    let pool = &mut pool;
    assert_eq!(warm_run_allocs::<UniformHash, PortNumbering>(&g, Some(pool), count), 0);
    assert_eq!(warm_run_allocs::<PortHash, PortNumbering>(&g, Some(pool), count), 0);
    assert_eq!(warm_run_allocs::<Census, Broadcast>(&g, Some(pool), count), 0);
}
