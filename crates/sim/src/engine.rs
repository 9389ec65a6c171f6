//! The single synchronous round core shared by both computation models.
//!
//! A round is executed in two phases, exactly as §1.3 prescribes: every node
//! first produces its outgoing messages (from its state *before* the round),
//! then every node consumes the messages delivered to it. The two-phase
//! structure makes nodes trivially independent within a phase, so the
//! parallel path partitions the swept nodes into contiguous ranges and fans
//! each phase out over a persistent [`RoundPool`] ([`Delivery::slot_span`]
//! is monotone, so the per-range message buffers are disjoint `&mut`
//! slices — Rayon-style data parallelism with no locks).
//!
//! **Pool lifecycle**: the caller owns the pool. [`Engine::new`] /
//! [`Engine::with_scratch`] borrow it for the engine's lifetime and split
//! every round into one part per pool worker; `None` runs one part on the
//! calling thread. No thread is ever spawned here, let alone per round
//! (per-round thread spawns were the multithreaded slowdown). The
//! run-to-completion wrappers ([`run_engine_scratch`], [`run_pn`],
//! [`run_bcast`]) run one part; a multi-part run builds its engine on a
//! caller-owned pool (see [`crate::pool`] for the thread-count policy).
//!
//! **Partition invariants**: the sweep list is split into at most one
//! range per pool worker, contiguous and balanced by **slot/arc weight**
//! (`degree + 1` per node), not node count — on a skewed-degree graph
//! (star, power-law) equal node counts would hand nearly all arcs to one
//! part and serialise the round behind it. Parts are recomputed only when
//! the frontier changes (`spans_dirty`); each part covers a contiguous node
//! span and hence, by slot-span monotonicity, a contiguous disjoint slot
//! span. The refresh refills the recycled partition vectors in place.
//! Partitioning never affects results: outputs and [`Trace`] are
//! bit-identical for every pool width (property-tested).
//!
//! There is exactly **one** engine, [`Engine`], generic over a
//! [`Delivery`] model; [`PnEngine`] and [`BcastEngine`] are thin typed
//! façades (type aliases) over it. Everything model-independent — phase
//! scaffolding, thread partitioning, instrumentation, round accounting, and
//! the fault-injection hooks ([`Engine::states`] / [`Engine::states_mut`]
//! used by the self-stabilization experiments) — exists only here.
//!
//! ## Data-oriented core
//!
//! The hot state is laid out as parallel flat arrays (SoA), all indexed by
//! node id and sliced per part by the CSR prefix sums:
//!
//! * `buf` — one message slot per arc (port numbering) or per node
//!   (broadcast), addressed by [`Delivery::slot_span`], which is just the
//!   graph's `arc_start` prefix-sum lookup: node `v` owns slots
//!   `arc_start[v]..arc_start[v+1]`. Contiguous node ranges therefore own
//!   contiguous, disjoint slot ranges — the property every `&mut` split
//!   below relies on.
//! * `nodes` / `uniform` ([`Delivery::NODE_SLOTS`] deliveries, i.e. port
//!   numbering) — one message slot and one flag byte per node. When
//!   [`PnAlgorithm::send_uniform`] returns `Some(m)`, the send sweep moves
//!   `m` into the node slot, sets the flag and leaves the node's arc slots
//!   untouched; otherwise it clears the flag and writes the arc slots. The
//!   receive phase resolves port p of node v through the sender u at the
//!   other end: `nodes[u]` when `uniform[u]`, else the reverse arc's slot
//!   in `buf`. Node ranges split these arrays exactly like `buf`.
//! * `sweep` — the sorted list of not-yet-halted nodes; each part of the
//!   partition is a contiguous range of it. No swept node has halted, so
//!   neither sweep phase tests a halted flag (`outputs` is only written
//!   once per node, at its halt).
//! * Per-part arenas (`PartArena`) — the receive phase's newly-halted lists and
//!   [`GatherScratch`] rank/count tables, recycled across rounds.
//!
//! Each phase is **one sweep**: every part, however densely the sweep list
//! covers its node span, walks its range of `sweep` with the same loop, and
//! one lazy `split_spans` chain, zipped with the part arenas, hands each
//! part its list range and its disjoint `&mut` chunks of the buffers. The
//! pool's workers pull the parts straight off that chain
//! ([`pool::for_each_with`]); a single part (every service solve runs on
//! one thread) runs inline. Either way there is no task list, and a warm
//! round allocates nothing: each part writes its send totals into its arena
//! (folded in part order after the phase), and the receive phase's
//! incoming-reference list reuses storage parked in the arena
//! (`tests/round_allocs.rs` counts the allocations, pooled runs included).
//!
//! The send sweep writes each swept node's slots once (default-fill fused
//! with `send` while the lines are L1-hot; a uniform send writes one node
//! slot instead of `degree` arc slots). Fixed-width messages
//! ([`MessageSize::FIXED_BITS`] = `Some(b)`) are never measured in the
//! sweep: the round's [`Trace`] bits are one term, the sum of
//! [`Delivery::uniform_bits`]`(g, v, b)` over the sweep list, recomputed
//! with the partition — the rule the halted-node cache uses. Variable-width
//! messages are accounted node by node as they are sent: a uniform message
//! is measured once and counted `degree` times, so the [`Trace`] reads
//! exactly as if it had been written into every arc slot.
//!
//! The receive sweep chases reverse arcs (or heads, for node slots) through
//! the bulk [`Graph::rev_arcs`] / [`Graph::heads`] slices (one bounds check
//! per node, not per arc). The send sweep counts its uniform senders, and a
//! round in which all or none of the swept nodes sent uniformly gathers
//! from one array without reading the flags ([`Senders`]); only a mixed
//! round checks the flag per arc. Broadcast rounds additionally build the
//! round-global [`CanonTable`] between the phases (see [`crate::delivery`])
//! so no per-node sort runs in the receive sweep; [`Engine::canon_rounds`]
//! counts those builds as the smoke signal that the counting path is
//! actually exercised. The receive sweep gathers only for nodes that
//! [listen](Delivery::listens) this round; the rest receive an empty slice,
//! which the [`BcastAlgorithm::listens`] contract makes indistinguishable
//! from their real multiset. A round in which no swept node listens builds
//! no table.
//!
//! **Halted frontier**: the engine sweeps only the sorted list of
//! not-yet-halted nodes, so per-round cost is O(active slots) instead of
//! O(n + arcs). At the end of every round in which nodes halt, they leave
//! the list, their `Msg::default()` slots — arc and node slots alike — are
//! written once and their per-round [`Trace`] contribution is cached,
//! keeping the message/bit accounting **bit-identical** to the model's
//! all-nodes-send semantics
//! (halted nodes keep sending empty default messages every round; property
//! tests assert equality with a naive reference that sweeps every node).
//!
//! Determinism: for any pool width the engine produces bit-identical
//! outputs and traces (tested), because phases are barriers and no node
//! reads another node's *current*-round state.

use crate::delivery::{
    Broadcast, CanonTable, Delivery, GatherScratch, Outbox, PortNumbering, Senders,
};
use crate::graph::Graph;
use crate::model::{BcastAlgorithm, MessageSize, PnAlgorithm};
use crate::pool::{self, RoundPool};
use std::fmt;
use std::ops::Range;

/// Instrumentation collected by an engine run.
///
/// `messages`/bit counts follow the model: every node sends on every incident
/// edge in every round (halted nodes send the empty default message). The
/// engine never sweeps a halted node; its contribution is accounted from a
/// cache instead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Number of completed communication rounds.
    pub rounds: u64,
    /// Total messages delivered (arcs × rounds).
    pub messages: u64,
    /// Total payload bits across all delivered messages.
    pub total_bits: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: u64,
}

/// Logical-time statistics for one completed round, handed to a
/// [`RoundObserver`] after the round's barrier.
///
/// Everything here is counted in **logical time** (rounds, nodes, slots,
/// bits) — no wall clocks, so observers are safe in the deterministic
/// crates and observed runs stay bit-reproducible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// The 1-based round that just completed.
    pub round: u64,
    /// Nodes swept this round: the not-yet-halted frontier.
    pub active_nodes: u64,
    /// Nodes that halted during this round.
    pub newly_halted: u64,
    /// Message slots the send sweep filled this round: the active nodes'
    /// slots only (halted nodes' slots were written once at halt and are
    /// not rewritten). A uniform port-numbering send fills all of its
    /// node's arcs through one node-slot write, and counts `degree` here.
    pub slots_written: u64,
    /// Whether the round-global canonicalisation table was (re)built between
    /// the phases this round (`RANKED` deliveries only, and only in rounds
    /// where some swept node [listens](crate::Delivery::listens)).
    pub canon_pass: bool,
    /// Payload bits accounted to [`Trace::total_bits`] this round (including
    /// the cached contribution of halted nodes).
    pub bits: u64,
}

/// Per-round engine instrumentation hook.
///
/// Attached with [`Engine::set_observer`]; the default is no observer, which
/// costs one branch per round.
/// The observer runs on the engine's calling thread, after the round's
/// receive barrier, so it never races the parallel sweep phases.
pub trait RoundObserver {
    /// Called once after every completed round.
    fn on_round(&mut self, stats: &RoundStats);
}

/// The do-nothing observer (useful for overhead measurements: attaching it
/// exercises the dispatch path without doing any work).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl RoundObserver for NoopObserver {
    fn on_round(&mut self, _stats: &RoundStats) {}
}

/// Errors from an engine run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The round limit was reached before every node halted.
    RoundLimit {
        /// The limit that was exceeded.
        limit: u64,
        /// How many nodes had already halted.
        halted: usize,
        /// Total number of nodes.
        n: usize,
    },
    /// The number of inputs does not match the number of nodes.
    InputLength {
        /// Number of inputs provided.
        got: usize,
        /// Number of nodes in the graph.
        want: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimit { limit, halted, n } => {
                write!(f, "round limit {limit} reached with only {halted}/{n} nodes halted")
            }
            SimError::InputLength { got, want } => {
                write!(f, "got {got} inputs for {want} nodes")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outputs plus instrumentation from a completed run.
#[derive(Clone, Debug)]
pub struct RunResult<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Instrumentation.
    pub trace: Trace,
}

/// Reusable allocations for repeated engine constructions.
///
/// A short run (a few rounds on a small graph) spends a measurable share of
/// its time allocating the per-node state, output, message-slot and sweep
/// vectors. Callers that construct engines in a loop — the batch pool, the
/// service layer, micro-benchmarks — keep one `EngineScratch` per worker and
/// go through [`Engine::with_scratch`] / [`Engine::finish_scratch`] (or the
/// [`run_engine_scratch`] wrapper): every internal vector is recycled across
/// constructions, so steady-state construction allocates nothing once the
/// high-water graph size has been seen. Results are bit-identical to the
/// non-reusing path (the vectors are fully cleared and refilled).
///
/// An [`Engine`] runs on one `EngineScratch` value: it takes the caller's
/// at construction and hands it back, cleared, at
/// [`Engine::finish_scratch`].
pub struct EngineScratch<A, D: Delivery<A>> {
    states: Vec<A>,
    outputs: Vec<Option<D::Output>>,
    buf: Vec<D::Msg>,
    /// One slot per node for uniform sends ([`Delivery::NODE_SLOTS`]
    /// deliveries; empty otherwise).
    nodes: Vec<D::Msg>,
    /// Per node: whether its current send sits in `nodes` rather than in
    /// its `buf` slots (same length as `nodes`).
    uniform: Vec<bool>,
    /// Node ids swept by the round loop, sorted ascending: exactly the
    /// not-yet-halted frontier.
    sweep: Vec<u32>,
    /// Merged newly-halted list of the current round.
    newly: Vec<u32>,
    /// Round-global canonicalisation table (`RANKED` deliveries only).
    canon: CanonTable,
    /// Per-part receive-phase arenas, aligned with `parts`.
    arenas: Vec<PartArena>,
    /// The partition of the sweep list: ranges into `sweep`, the node span
    /// each covers, and its buffer slot span. Refilled only when the sweep
    /// list changes.
    parts: Vec<Range<usize>>,
    node_spans: Vec<Range<usize>>,
    buf_spans: Vec<Range<usize>>,
}

impl<A, D: Delivery<A>> Default for EngineScratch<A, D> {
    fn default() -> Self {
        EngineScratch {
            states: Vec::new(),
            outputs: Vec::new(),
            buf: Vec::new(),
            nodes: Vec::new(),
            uniform: Vec::new(),
            sweep: Vec::new(),
            newly: Vec::new(),
            canon: CanonTable::default(),
            arenas: Vec::new(),
            parts: Vec::new(),
            node_spans: Vec::new(),
            buf_spans: Vec::new(),
        }
    }
}

/// Per-part persistent scratch: the part's send totals, its newly-halted
/// list, its [`GatherScratch`] rank/count tables and the storage of its
/// incoming-reference list. One per partition, recycled across rounds and
/// engine constructions, so each sweep writes its results without any
/// cross-part sharing.
#[derive(Debug, Default)]
struct PartArena {
    /// What this part's send sweep returned this round (see [`send_part`]).
    sent: (u64, u64, usize),
    newly: Vec<u32>,
    gs: GatherScratch,
    /// The incoming-reference list's allocation, parked empty between
    /// rounds (the references themselves cannot outlive a round).
    refs: Vec<&'static ()>,
}

/// Empties `v` and returns its allocation retyped as a list of references
/// with another lifetime and referent: references cannot outlive a round,
/// but their storage can. Collecting a `vec::IntoIter` into a `Vec` of an
/// element with the same size and alignment reuses the buffer in place, so
/// this allocates nothing.
fn recycle<'y, T, U>(mut v: Vec<&T>) -> Vec<&'y U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("the list was just cleared")).collect()
}

impl<A, D: Delivery<A>> EngineScratch<A, D> {
    /// An empty scratch (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Refills `out` with at most `parts` contiguous non-empty ranges splitting
/// `0..n` whose cumulative `weight` is balanced: a part is closed as soon as
/// the running total crosses its proportional threshold (or when the
/// remaining items are exactly enough to keep every remaining part
/// non-empty). Every part except one holding a single oversized item
/// carries at most `total/parts + max_item_weight` — the greedy bound the
/// skew tests assert.
///
/// With uniform weights this reduces exactly to the historical
/// count-balanced split (larger parts first).
pub(crate) fn partition_weighted(
    n: usize,
    parts: usize,
    weight: impl Fn(usize) -> u64,
    out: &mut Vec<Range<usize>>,
) {
    out.clear();
    if n <= 1 || parts <= 1 {
        out.extend((n > 0).then_some(0..n));
        return;
    }
    let parts = parts.min(n);
    let total: u64 = (0..n).map(&weight).sum();
    let mut start = 0usize;
    let mut cum = 0u64;
    for i in 0..n {
        cum += weight(i);
        let filled = out.len() + 1; // part count if we close after item i
        if filled < parts {
            let must_close = n - (i + 1) == parts - filled;
            // u128: the cross-multiplied threshold cannot overflow for any
            // u32-node graph × sane thread count.
            let reached = (cum as u128) * (parts as u128) >= (total as u128) * (filled as u128);
            if must_close || reached {
                out.push(start..i + 1);
                start = i + 1;
            }
        }
    }
    out.push(start..n);
}

/// Splits `data` lazily into disjoint `&mut` chunks covering the given
/// strictly increasing, non-overlapping index spans (gaps between spans are
/// skipped; empty spans at the cursor yield empty chunks). Allocates
/// nothing.
fn split_spans<T>(
    data: &mut [T],
    spans: impl IntoIterator<Item = Range<usize>>,
) -> impl Iterator<Item = &mut [T]> {
    let mut rest = data;
    let mut cursor = 0;
    spans.into_iter().map(move |span| {
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(span.start - cursor);
        let (head, tail) = tail.split_at_mut(span.len());
        rest = tail;
        cursor = span.end;
        head
    })
}

/// The send sweep of one part: sends every node of `list` (sorted node ids
/// whose node span starts at `first` and whose slots start at `base`, the
/// offsets of `chunk`, `node_chunk` and `flags`). Returns the `Trace` bits
/// (total, max) of variable-width messages — fixed-width ones are
/// accounted per round by the engine — and the number of uniform senders.
/// The buffers are separate parameters so that the compiler knows they do
/// not alias each other or the graph.
#[allow(clippy::too_many_arguments)]
fn send_part<A, D: Delivery<A>>(
    g: &Graph,
    cfg: &D::Config,
    round: u64,
    states: &[A],
    list: &[u32],
    first: usize,
    base: usize,
    chunk: &mut [D::Msg],
    node_chunk: &mut [D::Msg],
    flags: &mut [bool],
) -> (u64, u64, usize) {
    let account = D::Msg::FIXED_BITS.is_none();
    let (mut total, mut max, mut senders) = (0u64, 0u64, 0usize);
    let mut add = |(t, m): (u64, u64)| {
        total += t;
        max = max.max(m);
    };
    // hot-path: begin — send sweep
    for &v in list {
        let v = v as usize;
        let state = &states[v];
        if D::NODE_SLOTS {
            // A uniform message is written once into the node slot and
            // measured once; the arc slots are left alone.
            let i = v - first;
            if let Some(m) = D::send_uniform(state, cfg, round) {
                if account {
                    add(D::uniform_bits(g, v, m.approx_bits()));
                }
                node_chunk[i] = m;
                flags[i] = true;
                senders += 1;
                continue;
            }
            flags[i] = false;
        }
        let slots = D::slot_span(g, v..v + 1);
        let own = &mut chunk[slots.start - base..slots.end - base];
        own.fill_with(D::Msg::default);
        D::send(state, cfg, round, own);
        if account {
            add(D::slot_bits(g, v, own));
        }
    }
    // hot-path: end
    (total, max, senders)
}

/// The receive sweep of one part: gathers each node of `list` its incoming
/// messages from the round's outbox (only when it
/// [listens](Delivery::listens) this round; otherwise it receives an empty
/// slice), delivers them, and records its halt in the part's arena.
/// `states` and `outputs` start at node `first`.
#[allow(clippy::too_many_arguments)]
fn receive_part<'b, A, D: Delivery<A>>(
    g: &Graph,
    cfg: &D::Config,
    round: u64,
    outbox: &Outbox<'b, D::Msg>,
    canon: &CanonTable,
    list: &[u32],
    first: usize,
    states: &mut [A],
    outputs: &mut [Option<D::Output>],
    arena: &mut PartArena,
) {
    // The reference list reuses the arena's storage; sized to the
    // worst-case degree, so neither this nor the sweep allocates once warm.
    let mut refs: Vec<&'b D::Msg> = recycle(std::mem::take(&mut arena.refs));
    refs.reserve(g.max_degree());
    arena.newly.clear();
    // hot-path: begin — receive sweep
    for &v in list {
        let i = v as usize - first;
        refs.clear();
        if D::listens(&states[i], cfg, round) {
            D::gather(g, v as usize, outbox, canon, &mut arena.gs, &mut refs);
        }
        if let Some(out) = D::receive(&mut states[i], cfg, round, &refs) {
            outputs[i] = Some(out);
            arena.newly.push(v);
        }
    }
    // hot-path: end
    arena.refs = recycle(refs);
}

/// An in-flight synchronous execution: the one round core, generic over the
/// delivery model `D`.
///
/// [`Engine::step`] advances one synchronous round; [`Engine::run`] steps to
/// completion, and [`run_pn`] / [`run_bcast`] (and the generic
/// [`run_engine_scratch`]) are one-part run-to-completion wrappers. Use
/// [`PnEngine`] / [`BcastEngine`] to name the two instantiations.
pub struct Engine<'a, A, D: Delivery<A>> {
    graph: &'a Graph,
    cfg: &'a D::Config,
    /// Every recyclable vector.
    s: EngineScratch<A, D>,
    /// The borrowed round pool: one part per worker; `None` runs one part
    /// on the calling thread.
    pool: Option<&'a mut RoundPool>,
    /// Rounds in which the canon table was (re)built — the smoke counter
    /// that proves the counting canonicalisation path runs.
    canon_rounds: u64,
    halted: usize,
    trace: Trace,
    /// Cached per-round `Trace` bits (total, max) of all halted nodes.
    halted_bits: (u64, u64),
    /// `approx_bits` of `D::Msg::default()`, computed once.
    default_bits: u64,
    /// Whether the sweep list changed since the partition was computed.
    spans_dirty: bool,
    /// Message slots owned by the current sweep list — what one send sweep
    /// writes. Recomputed with the partition (frontier changes only).
    active_slots: u64,
    /// Per-round `Trace` bits (total, max) of the sweep list's sends when
    /// messages are fixed-width ([`MessageSize::FIXED_BITS`]); `(0, 0)`
    /// otherwise. Recomputed with the partition.
    fixed_bits: (u64, u64),
    /// Per-round instrumentation hook ([`Engine::set_observer`]); `None`
    /// (the default) costs one branch per round.
    observer: Option<&'a mut dyn RoundObserver>,
}

impl<'a, A: Send + Sync, D: Delivery<A>> Engine<'a, A, D> {
    /// Initialises every node. `inputs` is indexed by node id. Each round
    /// is split into one part per worker of `pool`, which the engine
    /// borrows for its lifetime; `None` runs every round as one part on the
    /// calling thread. Outputs and [`Trace`] do not depend on the pool.
    pub fn new(
        graph: &'a Graph,
        cfg: &'a D::Config,
        inputs: &[D::Input],
        pool: Option<&'a mut RoundPool>,
    ) -> Result<Self, SimError> {
        Self::with_scratch(graph, cfg, inputs, pool, &mut EngineScratch::new())
    }

    /// Initialises every node, recycling the allocations held by `scratch`
    /// (which is left empty; [`Engine::finish_scratch`] refills it). See
    /// [`EngineScratch`] for when this pays off.
    pub fn with_scratch(
        graph: &'a Graph,
        cfg: &'a D::Config,
        inputs: &[D::Input],
        pool: Option<&'a mut RoundPool>,
        scratch: &mut EngineScratch<A, D>,
    ) -> Result<Self, SimError> {
        let n = graph.n();
        if inputs.len() != n {
            return Err(SimError::InputLength { got: inputs.len(), want: n });
        }
        // The sweep list stores node ids as u32 (matching the graph's CSR
        // arc words); fail loudly rather than truncate on absurd n.
        assert!(n <= u32::MAX as usize, "engine supports at most 2^32 - 1 nodes");
        // A scratch is either new or cleared by `finish_scratch`, so the
        // per-run vectors are refilled by extension; the rest are refilled
        // where they are used.
        let mut s = std::mem::take(scratch);
        s.states.extend((0..n).map(|v| D::init(cfg, graph.degree(v), &inputs[v])));
        s.outputs.resize_with(n, || None);
        s.buf.resize_with(D::slot_span(graph, 0..n).len(), D::Msg::default);
        let node_len = if D::NODE_SLOTS { n } else { 0 };
        s.nodes.resize_with(node_len, D::Msg::default);
        s.uniform.resize(node_len, false);
        s.sweep.extend(0..n as u32);
        Ok(Engine {
            graph,
            cfg,
            s,
            pool,
            canon_rounds: 0,
            halted: 0,
            trace: Trace::default(),
            halted_bits: (0, 0),
            default_bits: D::Msg::default().approx_bits(),
            spans_dirty: true,
            active_slots: 0,
            fixed_bits: (0, 0),
            observer: None,
        })
    }

    /// Attaches a per-round observer; it is notified after every
    /// [`Engine::step`] from here on.
    pub fn set_observer(&mut self, observer: &'a mut dyn RoundObserver) {
        self.observer = Some(observer);
    }

    /// Number of nodes that have halted.
    pub fn halted(&self) -> usize {
        self.halted
    }

    /// Number of nodes the round loop still sweeps: the not-yet-halted
    /// frontier.
    pub fn frontier_len(&self) -> usize {
        self.s.sweep.len()
    }

    /// Completed rounds so far.
    pub fn round(&self) -> u64 {
        self.trace.rounds
    }

    /// Read access to node states (white-box tests and instrumentation only —
    /// a real distributed node cannot see this).
    pub fn states(&self) -> &[A] {
        &self.s.states
    }

    /// Mutable access to node states — the **fault-injection hook** used by
    /// the self-stabilization experiments to model adversarial memory
    /// corruption between rounds. Never used by algorithms themselves.
    pub fn states_mut(&mut self) -> &mut [A] {
        &mut self.s.states
    }

    /// Instrumentation so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Rounds in which the round-global canonicalisation table was built.
    /// Zero for port numbering; equal to [`round`](Engine::round) for a
    /// broadcast algorithm whose nodes always listen (rounds in which no
    /// node listens skip the build). `perf_baseline` asserts that equality
    /// on its always-listening broadcast workload, so a silent fallback to
    /// per-node sorting fails the run.
    pub fn canon_rounds(&self) -> u64 {
        self.canon_rounds
    }

    /// Repartitions the sweep list after it changed, refilling the recycled
    /// partition vectors in place, and recomputes the per-round terms that
    /// depend only on the list. The list is sorted, so each part owns a
    /// contiguous node span, hence a contiguous slot span. Parts are
    /// balanced by slot/arc weight (degree + 1), not node count — equal
    /// node counts serialise skewed-degree graphs behind the part holding
    /// the hubs.
    fn refresh_partition(&mut self) {
        let g = self.graph;
        let width = self.pool.as_ref().map_or(1, |p| p.width());
        let EngineScratch { sweep, parts, node_spans, buf_spans, arenas, .. } = &mut self.s;
        partition_weighted(sweep.len(), width, |i| g.degree(sweep[i] as usize) as u64 + 1, parts);
        node_spans.clear();
        node_spans
            .extend(parts.iter().map(|r| sweep[r.start] as usize..sweep[r.end - 1] as usize + 1));
        buf_spans.clear();
        buf_spans.extend(node_spans.iter().map(|s| D::slot_span(g, s.clone())));
        if arenas.len() < parts.len() {
            arenas.resize_with(parts.len(), PartArena::default);
        }
        // What one send sweep writes, and what fixed-width sends add to the
        // trace: every swept node's slots, each carrying `b` bits. With
        // variable-width messages `b = 0` makes the bit term `(0, 0)`.
        let b = D::Msg::FIXED_BITS.unwrap_or(0);
        let (mut slots, mut total, mut max) = (0, 0, 0);
        for &v in sweep.iter() {
            let v = v as usize;
            slots += D::slot_span(g, v..v + 1).len() as u64;
            let (t, m) = D::uniform_bits(g, v, b);
            total += t;
            max = max.max(m);
        }
        self.active_slots = slots;
        self.fixed_bits = (total, max);
        self.spans_dirty = false;
    }

    /// Runs one synchronous round; returns `true` when every node has halted.
    pub fn step(&mut self) -> bool {
        let round = self.trace.rounds + 1;
        let (g, cfg) = (self.graph, self.cfg);
        // Partition the sweep list (not 0..n): with a collapsed frontier the
        // whole round costs O(active slots).
        if self.spans_dirty {
            self.refresh_partition();
        }
        let EngineScratch {
            states,
            outputs,
            buf,
            nodes,
            uniform,
            sweep,
            newly,
            canon,
            arenas,
            parts,
            node_spans,
            buf_spans,
        } = &mut self.s;
        let swept: &[u32] = sweep;
        // A part's span of node slots: its node span when the delivery
        // keeps node slots, empty otherwise.
        let node_slot_span = |s: &Range<usize>| if D::NODE_SLOTS { s.clone() } else { 0..0 };

        // Phase 1: send, fused with the accounting of variable-width
        // messages over the same sweep; also counts the uniform senders.
        {
            let states: &[A] = states;
            let parts = parts
                .iter()
                .zip(node_spans.iter())
                .zip(buf_spans.iter())
                .zip(split_spans(buf, buf_spans.iter().cloned()))
                .zip(split_spans(nodes, node_spans.iter().map(node_slot_span)))
                .zip(split_spans(uniform, node_spans.iter().map(node_slot_span)))
                .zip(arenas.iter_mut());
            pool::for_each_with(self.pool.as_deref_mut(), parts, Default::default, |(), part| {
                let ((((((list, span), slots), chunk), node_chunk), flags), arena) = part;
                let (list, first, base) = (&swept[list.clone()], span.start, slots.start);
                arena.sent = send_part::<A, D>(
                    g, cfg, round, states, list, first, base, chunk, node_chunk, flags,
                );
            });
        }
        let (total, max, uniform_senders) = arenas[..parts.len()]
            .iter()
            .fold((0, 0, 0), |(t, m, u), a| (t + a.sent.0, m.max(a.sent.1), u + a.sent.2));
        // Captured for the observer before the post-receive halt bookkeeping
        // below grows `halted_bits`: this is exactly what the round adds to
        // `Trace::total_bits`.
        let round_bits = total + self.fixed_bits.0 + self.halted_bits.0;
        let active_nodes = swept.len() as u64;
        let slots_written = self.active_slots;
        self.trace.messages += g.arcs() as u64;
        self.trace.total_bits += round_bits;
        self.trace.max_message_bits =
            self.trace.max_message_bits.max(max).max(self.fixed_bits.1).max(self.halted_bits.1);

        // Between the phases: (re)build the round-global canonicalisation
        // table from the full post-send buffer, once — this replaces the
        // per-node message sorts the receive phase used to pay. A round in
        // which no swept node listens gathers nothing, so it needs no table
        // (the scan stops at the first listener).
        let canon_pass =
            D::RANKED && swept.iter().any(|&v| D::listens(&states[v as usize], cfg, round));
        if canon_pass {
            D::build_canon(g, buf, canon);
            self.canon_rounds += 1;
        }

        // Phase 2: receive. Each part fills its own arena's newly-halted
        // list and uses its arena's rank tables; the lists are merged in
        // part order below (so the concatenation stays sorted regardless of
        // which worker ran which part).
        {
            // Halted nodes hold default messages in both kinds of slot, so
            // only the swept senders decide whether the gather needs the
            // flags.
            let senders = if uniform_senders == 0 {
                Senders::Slots
            } else if uniform_senders == swept.len() {
                Senders::Nodes
            } else {
                Senders::Mixed(uniform)
            };
            let outbox = Outbox { slots: buf, nodes, senders };
            let canon: &CanonTable = canon;
            let parts = parts
                .iter()
                .zip(node_spans.iter())
                .zip(split_spans(states, node_spans.iter().cloned()))
                .zip(split_spans(outputs, node_spans.iter().cloned()))
                .zip(arenas.iter_mut());
            pool::for_each_with(self.pool.as_deref_mut(), parts, Default::default, |(), part| {
                let ((((list, span), states), outputs), arena) = part;
                let (list, first) = (&swept[list.clone()], span.start);
                receive_part::<A, D>(
                    g, cfg, round, &outbox, canon, list, first, states, outputs, arena,
                );
            });
        }
        // Merge the per-part newly-halted lists (part order keeps the merge
        // sorted) into the engine's recycled list.
        newly.clear();
        for arena in arenas.iter_mut().take(parts.len()) {
            newly.append(&mut arena.newly);
        }
        self.halted += newly.len();

        if !newly.is_empty() {
            // Write the halted nodes' default messages once — they are never
            // touched again — and cache their per-round Trace contribution.
            // A halted node sends uniformly from here on: its node slot
            // carries the default message; its arc slots are reset too, so
            // they hold nothing from earlier rounds.
            for &v in newly.iter() {
                let v = v as usize;
                buf[D::slot_span(g, v..v + 1)].fill_with(D::Msg::default);
                if D::NODE_SLOTS {
                    nodes[v] = D::Msg::default();
                    uniform[v] = true;
                }
                let (t, m) = D::uniform_bits(g, v, self.default_bits);
                self.halted_bits = (self.halted_bits.0 + t, self.halted_bits.1.max(m));
            }
            // Drop them from the sweep list: both lists are sorted, so one
            // merge pass does it in place.
            let mut next = newly.iter().peekable();
            sweep.retain(|v| next.next_if_eq(&v).is_none());
            self.spans_dirty = true;
        }

        self.trace.rounds = round;
        if let Some(obs) = self.observer.as_deref_mut() {
            // hot-path: begin — observer notify (logical counters only; no
            // allocation is allowed here, same rule as the sweeps)
            obs.on_round(&RoundStats {
                round,
                active_nodes,
                newly_halted: newly.len() as u64,
                slots_written,
                canon_pass,
                bits: round_bits,
            });
            // hot-path: end
        }
        self.halted == g.n()
    }

    /// Consumes the engine, handing **every** internal allocation back to
    /// `scratch`, cleared, and returning the outputs if all nodes have
    /// halted (`None` otherwise — allocations are recycled either way).
    pub fn finish_scratch(
        mut self,
        scratch: &mut EngineScratch<A, D>,
    ) -> Option<RunResult<D::Output>> {
        let result = (self.halted == self.graph.n()).then(|| RunResult {
            outputs: self.s.outputs.drain(..).map(|o| o.expect("halted")).collect(),
            trace: self.trace.clone(),
        });
        // Drop every per-run value the next construction refills by
        // extension, keeping the allocations: a worker may idle between
        // runs, so heap-carrying states and messages are not kept alive
        // until the next construction.
        let s = &mut self.s;
        s.states.clear();
        s.outputs.clear();
        s.buf.clear();
        s.nodes.clear();
        s.uniform.clear();
        s.sweep.clear();
        *scratch = self.s;
        result
    }

    /// Steps until every node has halted, at most `max_rounds` rounds in
    /// all, then hands the allocations back to `scratch` (see
    /// [`Engine::finish_scratch`]) — the stepping loop behind every
    /// run-to-completion entry point.
    pub fn run(
        mut self,
        max_rounds: u64,
        scratch: &mut EngineScratch<A, D>,
    ) -> Result<RunResult<D::Output>, SimError> {
        while self.round() < max_rounds {
            if self.step() {
                return Ok(self.finish_scratch(scratch).expect("all halted"));
            }
        }
        let (halted, n) = (self.halted, self.graph.n());
        self.finish_scratch(scratch);
        Err(SimError::RoundLimit { limit: max_rounds, halted, n })
    }
}

/// An in-flight port-numbering-model execution: the generic [`Engine`]
/// instantiated with [`PortNumbering`] delivery.
pub type PnEngine<'a, A> = Engine<'a, A, PortNumbering>;

/// An in-flight broadcast-model execution: the generic [`Engine`]
/// instantiated with [`Broadcast`] delivery. Incoming messages are delivered
/// as a canonically sorted multiset.
pub type BcastEngine<'a, A> = Engine<'a, A, Broadcast>;

/// Runs an algorithm to completion under delivery model `D` as one part on
/// the calling thread, taking the engine's internal vectors from and
/// returning them to `scratch`, so repeated short runs through the same
/// scratch allocate nothing once warm — the generic core behind [`run_pn`] /
/// [`run_bcast`]. A multi-part run borrows a [`RoundPool`] through
/// [`Engine::new`] and [`Engine::run`]; results do not depend on the pool.
pub fn run_engine_scratch<A: Send + Sync, D: Delivery<A>>(
    graph: &Graph,
    cfg: &D::Config,
    inputs: &[D::Input],
    max_rounds: u64,
    scratch: &mut EngineScratch<A, D>,
) -> Result<RunResult<D::Output>, SimError> {
    Engine::<A, D>::with_scratch(graph, cfg, inputs, None, scratch)?.run(max_rounds, scratch)
}

/// Runs a port-numbering algorithm to completion on one thread.
pub fn run_pn<A: PnAlgorithm>(
    graph: &Graph,
    cfg: &A::Config,
    inputs: &[A::Input],
    max_rounds: u64,
) -> Result<RunResult<A::Output>, SimError> {
    let mut scratch = EngineScratch::new();
    run_engine_scratch::<A, PortNumbering>(graph, cfg, inputs, max_rounds, &mut scratch)
}

/// Runs a broadcast algorithm to completion on one thread.
pub fn run_bcast<A: BcastAlgorithm>(
    graph: &Graph,
    cfg: &A::Config,
    inputs: &[A::Input],
    max_rounds: u64,
) -> Result<RunResult<A::Output>, SimError> {
    run_engine_scratch::<A, Broadcast>(graph, cfg, inputs, max_rounds, &mut EngineScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test algorithm: every node learns the maximum degree within distance
    /// `rounds_budget` and halts; messages carry the best value seen.
    struct MaxDegreeProbe {
        best: u64,
        budget: u64,
    }

    impl PnAlgorithm for MaxDegreeProbe {
        type Msg = u64;
        type Input = ();
        type Output = u64;
        type Config = u64; // number of rounds to run

        fn init(cfg: &u64, degree: usize, _input: &()) -> Self {
            MaxDegreeProbe { best: degree as u64, budget: *cfg }
        }
        fn send(&self, _cfg: &u64, _round: u64, out: &mut [u64]) {
            for o in out {
                *o = self.best;
            }
        }
        fn receive(&mut self, _cfg: &u64, round: u64, incoming: &[&u64]) -> Option<u64> {
            for &&m in incoming {
                self.best = self.best.max(m);
            }
            (round >= self.budget).then_some(self.best)
        }
    }

    fn star(leaves: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (1..=leaves).map(|v| (0, v)).collect();
        Graph::from_edges(leaves + 1, &edges).unwrap()
    }

    #[test]
    fn probe_converges_on_star() {
        let g = star(5);
        let inputs = vec![(); 6];
        let res = run_pn::<MaxDegreeProbe>(&g, &2, &inputs, 10).unwrap();
        assert_eq!(res.outputs, vec![5; 6]);
        assert_eq!(res.trace.rounds, 2);
        assert_eq!(res.trace.messages, 2 * g.arcs() as u64);
    }

    #[test]
    fn round_limit_error() {
        let g = star(3);
        let inputs = vec![(); 4];
        let err = run_pn::<MaxDegreeProbe>(&g, &5, &inputs, 3).unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 3, halted: 0, n: 4 });
    }

    #[test]
    fn input_length_error() {
        let g = star(3);
        let err = run_pn::<MaxDegreeProbe>(&g, &1, &[(), ()], 3).unwrap_err();
        assert_eq!(err, SimError::InputLength { got: 2, want: 4 });
    }

    #[test]
    fn parallel_matches_sequential_pn() {
        // A graph big enough to exercise several chunks.
        let n = 257;
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let inputs = vec![(); n];
        let seq = run_pn::<MaxDegreeProbe>(&g, &7, &inputs, 100).unwrap();
        for t in [2, 3, 8] {
            let mut pool = RoundPool::new(t);
            let par = PnEngine::<MaxDegreeProbe>::new(&g, &7, &inputs, Some(&mut pool))
                .unwrap()
                .run(100, &mut EngineScratch::new())
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "threads={t}");
            assert_eq!(par.trace, seq.trace, "threads={t}");
        }
    }

    /// PN algorithm with a *staggered* halting schedule: node halts once its
    /// running maximum has been stable for `budget` rounds would be complex;
    /// instead, halt at round `input` (so the frontier shrinks every round).
    struct Staggered {
        halt_at: u64,
        acc: u64,
    }

    impl PnAlgorithm for Staggered {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Config = ();

        fn init(_cfg: &(), degree: usize, input: &u64) -> Self {
            Staggered { halt_at: *input, acc: degree as u64 }
        }
        fn send(&self, _cfg: &(), round: u64, out: &mut [u64]) {
            for (p, o) in out.iter_mut().enumerate() {
                *o = self.acc.wrapping_add(round).wrapping_add(p as u64);
            }
        }
        fn receive(&mut self, _cfg: &(), round: u64, incoming: &[&u64]) -> Option<u64> {
            for &&m in incoming {
                self.acc = self.acc.rotate_left(5).wrapping_add(m);
            }
            (round >= self.halt_at).then_some(self.acc)
        }
    }

    #[test]
    fn frontier_shrinks_and_trace_counts_skipped_nodes() {
        let g = star(4);
        // Leaves halt at round 1, the hub at round 3.
        let inputs = vec![3u64, 1, 1, 1, 1];
        let mut engine = PnEngine::<Staggered>::new(&g, &(), &inputs, None).unwrap();
        assert_eq!(engine.frontier_len(), 5);
        engine.step();
        assert_eq!(engine.frontier_len(), 1); // only the hub remains
        engine.step();
        engine.step();
        assert_eq!(engine.frontier_len(), 0);
        let res = engine.finish_scratch(&mut EngineScratch::new()).expect("halted");
        // All-nodes-send semantics: arcs × rounds messages, 64 bits each.
        assert_eq!(res.trace.messages, 3 * g.arcs() as u64);
        assert_eq!(res.trace.total_bits, 3 * g.arcs() as u64 * 64);
    }

    /// Observer that accumulates every [`RoundStats`] it sees.
    #[derive(Default)]
    struct Tally {
        stats: Vec<RoundStats>,
    }

    impl RoundObserver for Tally {
        fn on_round(&mut self, stats: &RoundStats) {
            self.stats.push(*stats);
        }
    }

    #[test]
    fn observer_sums_match_trace_accounting() {
        let n = 64;
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let inputs: Vec<u64> = (0..n as u64).map(|v| v % 8 + 1).collect();
        let base = run_pn::<Staggered>(&g, &(), &inputs, 20).unwrap();
        let mut tally = Tally::default();
        let mut scratch = EngineScratch::new();
        let mut engine =
            PnEngine::<Staggered>::with_scratch(&g, &(), &inputs, None, &mut scratch).unwrap();
        engine.set_observer(&mut tally);
        let res = engine.run(20, &mut scratch).unwrap();
        // The observer never perturbs the run.
        assert_eq!(res.outputs, base.outputs);
        assert_eq!(res.trace, base.trace);
        // Per-round bits sum to exactly the trace's total.
        assert_eq!(tally.stats.len() as u64, res.trace.rounds);
        let bits: u64 = tally.stats.iter().map(|s| s.bits).sum();
        assert_eq!(bits, res.trace.total_bits);
        assert!(tally.stats.iter().all(|s| !s.canon_pass), "PN never builds canon tables");
        // Rounds are 1-based and consecutive; the frontier never grows.
        for (i, s) in tally.stats.iter().enumerate() {
            assert_eq!(s.round, i as u64 + 1);
        }
        // Active-node counts track the halting schedule exactly.
        let mut active = n as u64;
        for s in &tally.stats {
            assert_eq!(s.active_nodes, active);
            // Cycle graph: every active node owns 2 slots.
            assert_eq!(s.slots_written, 2 * active);
            active -= s.newly_halted;
        }
        assert_eq!(active, 0);
    }

    /// Broadcast test algorithm: nodes exchange degree multisets; output is
    /// the sorted multiset of neighbour degrees (tests multiset delivery).
    struct DegreeCensus {
        degree: u64,
        seen: Vec<u64>,
    }

    impl BcastAlgorithm for DegreeCensus {
        type Msg = u64;
        type Input = ();
        type Output = Vec<u64>;
        type Config = ();

        fn init(_cfg: &(), degree: usize, _input: &()) -> Self {
            DegreeCensus { degree: degree as u64, seen: Vec::new() }
        }
        fn send(&self, _cfg: &(), _round: u64) -> u64 {
            self.degree
        }
        fn receive(&mut self, _cfg: &(), _round: u64, incoming: &[&u64]) -> Option<Vec<u64>> {
            self.seen = incoming.iter().map(|&&m| m).collect();
            Some(self.seen.clone())
        }
    }

    #[test]
    fn broadcast_delivers_sorted_multiset() {
        // Path 0-1-2 plus leaf 3 on node 1: node 1 has degree 3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]).unwrap();
        let res = run_bcast::<DegreeCensus>(&g, &(), &[(); 4], 5).unwrap();
        assert_eq!(res.outputs[0], vec![3]);
        assert_eq!(res.outputs[1], vec![1, 1, 1]);
        assert_eq!(res.outputs[2], vec![3]);
        assert_eq!(res.trace.rounds, 1);
    }

    #[test]
    fn broadcast_sender_oblivious() {
        // Regardless of port order, the received multiset is identical.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]).unwrap();
        let r = g.reorder_ports(|_, old| old.iter().rev().copied().collect());
        let a = run_bcast::<DegreeCensus>(&g, &(), &[(); 4], 5).unwrap();
        let b = run_bcast::<DegreeCensus>(&r, &(), &[(); 4], 5).unwrap();
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn broadcast_builds_canon_table_every_round() {
        // The counting-canonicalisation path must actually run (one canon
        // build per broadcast round); a silent fallback to per-node sorting
        // would leave the counter at zero.
        let g = star(40);
        let mut engine = BcastEngine::<DegreeCensus>::new(&g, &(), &[(); 41], None).unwrap();
        engine.step();
        assert_eq!(engine.canon_rounds(), 1);

        let mut pn = PnEngine::<MaxDegreeProbe>::new(&g, &2, &[(); 41], None).unwrap();
        pn.step();
        assert_eq!(pn.canon_rounds(), 0, "port numbering never builds the table");
    }

    #[test]
    fn parallel_matches_sequential_bcast() {
        let n = 128;
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let seq = run_bcast::<DegreeCensus>(&g, &(), &vec![(); n], 5).unwrap();
        let mut pool = RoundPool::new(4);
        let par = BcastEngine::<DegreeCensus>::new(&g, &(), &vec![(); n], Some(&mut pool))
            .unwrap()
            .run(5, &mut EngineScratch::new())
            .unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.trace, par.trace);
    }

    /// [`partition_weighted`] into a vector that holds stale ranges, so
    /// every property below also checks that the refill clears it.
    fn partition(n: usize, parts: usize, weight: impl Fn(usize) -> u64) -> Vec<Range<usize>> {
        let mut out = vec![7..9, 0..0, 3..4];
        partition_weighted(n, parts, weight, &mut out);
        out
    }

    #[test]
    fn partition_covers_range() {
        // Uniform and skewed weights alike: contiguous, non-empty, at most
        // `p` parts, covering 0..n exactly.
        for n in [0usize, 1, 5, 16, 17] {
            for p in [1usize, 2, 3, 8, 40] {
                for weight in [(|_| 1) as fn(usize) -> u64, |i| (i as u64 % 5) * 100 + 1] {
                    let parts = partition(n, p, weight);
                    assert!(parts.len() <= p.max(1));
                    let mut covered = 0;
                    let mut prev_end = 0;
                    for r in &parts {
                        assert_eq!(r.start, prev_end);
                        assert!(!r.is_empty());
                        covered += r.len();
                        prev_end = r.end;
                    }
                    assert_eq!(covered, n);
                }
            }
        }
    }

    #[test]
    fn uniform_weights_reproduce_count_balanced_split() {
        // The historical node-count partition: larger parts first.
        assert_eq!(partition(10, 3, |_| 1), vec![0..4, 4..7, 7..10]);
        assert_eq!(partition(16, 3, |_| 1), vec![0..6, 6..11, 11..16]);
        assert_eq!(partition(5, 8, |_| 1), vec![0..1, 1..2, 2..3, 3..4, 4..5]);
    }

    #[test]
    fn weighted_partition_isolates_a_hub() {
        // A star's hub (weight 10_000) followed by 9_999 unit leaves: the
        // node-count split would hand the hub *plus* a quarter of the
        // leaves to part 0; the weighted split closes part 0 right after
        // the hub, so the leaves parallelise across the remaining parts.
        let w = |i: usize| if i == 0 { 10_000 } else { 1 };
        let parts = partition(10_000, 4, w);
        assert_eq!(parts[0], 0..1, "hub must sit in a part of its own");
        assert!(parts.len() >= 3, "leaves must spread over the remaining parts");
    }

    #[test]
    fn weighted_partition_greedy_balance_bound() {
        // Pseudo-random heavy-tailed weights: every part's weight stays
        // within total/parts + max single weight (the greedy bound) — the
        // property that keeps one part from serialising a round.
        let mut state = 0x9E3779B97F4A7C15u64;
        let weights: Vec<u64> = (0..257)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = state >> 33;
                if r % 17 == 0 {
                    r % 10_000 + 1 // occasional heavy item
                } else {
                    r % 8 + 1
                }
            })
            .collect();
        let total: u64 = weights.iter().sum();
        let max_w = *weights.iter().max().unwrap();
        for p in [2usize, 3, 4, 8] {
            let parts = partition(weights.len(), p, |i| weights[i]);
            for r in &parts {
                let part_w: u64 = weights[r.clone()].iter().sum();
                assert!(
                    part_w <= total / p as u64 + max_w,
                    "p={p} part {r:?} weight {part_w} exceeds {} + {max_w}",
                    total / p as u64
                );
            }
        }
    }

    #[test]
    fn weighted_partition_heavy_tail_item_keeps_all_parts() {
        // All the weight at the end: the must-close rule still yields the
        // full number of non-empty parts.
        let parts = partition(4, 2, |i| if i == 3 { 1000 } else { 1 });
        assert_eq!(parts, vec![0..3, 3..4]);
    }

    #[test]
    fn split_spans_skips_gaps() {
        let mut data: Vec<u32> = (0..10).collect();
        let chunks = split_spans(&mut data, [1..3, 5..6, 8..10]);
        let views: Vec<Vec<u32>> = chunks.map(|c| c.to_vec()).collect();
        assert_eq!(views, vec![vec![1, 2], vec![5], vec![8, 9]]);
        assert_eq!(split_spans(&mut data, []).count(), 0);
        // Empty spans yield empty chunks: the node-slot split of a delivery
        // without node slots.
        assert!(split_spans(&mut data, [0..0, 0..0]).all(|c| c.is_empty()));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // Run a sequence of different-sized instances through one scratch;
        // every result (outputs + trace) matches the fresh-allocation path,
        // including after a larger instance leaves oversized buffers behind
        // and on the error path.
        let mut scratch = EngineScratch::new();
        for n in [64usize, 17, 128, 5, 64] {
            let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
            let g = Graph::from_edges(n, &edges).unwrap();
            let inputs: Vec<u64> = (0..n as u64).map(|v| v % 7 + 1).collect();
            let fresh = run_pn::<Staggered>(&g, &(), &inputs, 20).unwrap();
            let reused =
                run_engine_scratch::<Staggered, PortNumbering>(&g, &(), &inputs, 20, &mut scratch)
                    .unwrap();
            assert_eq!(reused.outputs, fresh.outputs, "n={n}");
            assert_eq!(reused.trace, fresh.trace, "n={n}");
            // Error path recycles too and reports identically.
            let err =
                run_engine_scratch::<Staggered, PortNumbering>(&g, &(), &inputs, 3, &mut scratch)
                    .unwrap_err();
            assert!(matches!(err, SimError::RoundLimit { limit: 3, .. }), "n={n}");
        }
    }

    #[test]
    fn isolated_nodes_halt() {
        let g = Graph::from_edges(3, &[]).unwrap();
        let res = run_pn::<MaxDegreeProbe>(&g, &1, &[(); 3], 2).unwrap();
        assert_eq!(res.outputs, vec![0, 0, 0]);
    }

    #[test]
    fn stepping_a_fully_halted_network_keeps_accounting() {
        // After everyone halts (round 1), extra steps still count default
        // messages: one per arc per round, 64 bits each.
        let g = star(3);
        let inputs = vec![1u64; 4];
        let mut a = PnEngine::<Staggered>::new(&g, &(), &inputs, None).unwrap();
        for _ in 0..4 {
            a.step();
        }
        assert_eq!(a.trace().messages, 4 * g.arcs() as u64);
        assert_eq!(a.trace().total_bits, 4 * g.arcs() as u64 * 64);
    }

    #[test]
    fn stepping_a_fully_halted_broadcast_network_keeps_accounting() {
        // The broadcast twin: every node halts in round 1, and each later
        // round still delivers every node's default broadcast along each
        // incident arc.
        let g = star(3);
        let mut a = BcastEngine::<DegreeCensus>::new(&g, &(), &[(); 4], None).unwrap();
        assert!(a.step());
        for _ in 0..3 {
            a.step();
        }
        assert_eq!(a.trace().messages, 4 * g.arcs() as u64);
        assert_eq!(a.trace().total_bits, 4 * g.arcs() as u64 * 64);
    }
}
