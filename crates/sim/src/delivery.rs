//! The delivery abstraction: the *only* two differences between the paper's
//! computation models, captured as a trait so the round engine exists once.
//!
//! Both models (§1.3) share the same synchronous two-phase round structure:
//! every node produces its outgoing messages from its pre-round state, a
//! barrier, then every node consumes the messages delivered to it. What
//! differs is purely *where outgoing messages live* and *how incoming
//! messages are gathered*:
//!
//! * **Port numbering** ([`PortNumbering`]): a node of degree d owns d buffer
//!   slots (one per out-arc, in port order) and receives the reverse-arc
//!   slots of its neighbours — port-aligned delivery. It also owns one
//!   *node slot* and a one-byte *uniform* flag: in a round where
//!   [`PnAlgorithm::send_uniform`] returns `Some(m)`, the node's send is
//!   `m` written once into its node slot, with the flag set, and its arc
//!   slots are left alone. Gather resolves port p of node v to the sender
//!   u at the other end: u's node slot when u's flag is set, otherwise the
//!   reverse arc's slot. The node slots are the [`Broadcast`] layout (one
//!   slot per node) kept beside the arc slots, not a third model. Most
//!   rounds are all-uniform or all-per-port ([`Senders`]), and their gather
//!   reads one array without consulting the flags.
//! * **Broadcast** ([`Broadcast`]): a node owns one slot, fanned out along
//!   every incident edge, and receives its neighbours' slots as a canonically
//!   **sorted multiset** (enforced here, so no algorithm can depend on sender
//!   identity). A node whose [`BcastAlgorithm::listens`] answers `false`
//!   for the round is not gathered for at all: [`Delivery::listens`] tells
//!   the engine to hand its receive an empty slice, and a round in which no
//!   swept node listens skips [`Delivery::build_canon`] too.
//!
//! [`Delivery`] captures exactly those differences (slot layout, send,
//! gather, and the per-model [`Trace`](crate::engine::Trace) bit accounting);
//! a uniform port-numbering send is still accounted as `degree` messages of
//! its size, with the size measured once per node rather than once per slot.
//! The engine's one send sweep measures only variable-width messages: for
//! fixed-width ones ([`MessageSize::FIXED_BITS`]) it sums
//! [`Delivery::uniform_bits`] over the sweep list once per frontier change
//! and charges that term every round.
//! [`Engine`](crate::engine::Engine) implements everything else — phase
//! scaffolding, arc-weight-balanced partitioning over the persistent
//! [`RoundPool`](crate::pool::RoundPool), halted-frontier skipping,
//! instrumentation, and the fault-injection hooks — exactly once.
//!
//! The key structural property the engine relies on is that a contiguous
//! range of nodes owns a contiguous range of buffer slots
//! ([`Delivery::slot_span`] is monotone), so per-thread buffer chunks are
//! disjoint `&mut` slices with no locks.
//!
//! ## Counting-based multiset canonicalisation
//!
//! The broadcast model's canonical sorted multiset used to be produced by a
//! per-node `sort()` of message *references* on every receive — `Θ(d log d)`
//! message comparisons per node per round. The data-oriented core replaces
//! that with a **round-global rank table** ([`CanonTable`]): after the send
//! phase, [`Delivery::build_canon`] (`RANKED` deliveries only) assigns each
//! distinct message value a dense rank and records one representative slot
//! per rank. The build deduplicates first and sorts second: every slot is
//! hashed into an open-addressing table of representative slots, and a hash
//! match counts only once `==` confirms it, so a hash never decides
//! equality on its own. Only the D distinct representatives are then sorted,
//! for O(n) hashes and equality checks plus O(D log D) comparisons per round
//! instead of O(n log n) comparisons — a broadcast round usually carries far
//! fewer distinct values than slots. A node's gather then sorts tiny `u32`
//! rank keys (or, for high-degree nodes when the round has few distinct
//! values, skips sorting entirely via a counting pass over the reusable
//! [`GatherScratch`] table) and emits representative references — message
//! comparisons happen once per round, not once per node. Equal ranks mean
//! equal values, and receivers only observe values, so the produced multiset
//! is observationally identical to the sorted one; a debug assertion checks
//! sortedness on every gather.

use crate::graph::Graph;
use crate::model::{BcastAlgorithm, MessageSize, PnAlgorithm};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Round-global canonicalisation table for `RANKED` deliveries (broadcast).
///
/// Built once per round by [`Delivery::build_canon`] from the post-send
/// message buffer: `ranks[slot]` is the dense rank of `buf[slot]`'s value
/// among the round's distinct message values (rank order = value order),
/// and `reps[rank]` is one representative slot holding that value. The
/// build first deduplicates the slots through `table`, an open-addressing
/// hash table of representatives, and then sorts only the representatives.
/// All storage is recycled across rounds and engine runs (via
/// [`EngineScratch`](crate::engine::EngineScratch)) — steady-state rounds
/// allocate nothing.
#[derive(Debug, Default)]
pub struct CanonTable {
    /// Dedupe table (linear probing, power-of-two size, at most half full):
    /// each occupied bucket holds a provisional id, vacant ones hold
    /// `VACANT`. After the dedupe pass it is reused as provisional id → rank.
    table: Vec<u32>,
    /// `hashes[id]` = hash of the value with provisional id `id`.
    hashes: Vec<u64>,
    /// Provisional ids in value order (sort scratch).
    order: Vec<u32>,
    /// `ranks[slot]` = dense rank of `buf[slot]`'s value.
    ranks: Vec<u32>,
    /// `reps[rank]` = a slot whose message has that rank's value.
    reps: Vec<u32>,
}

/// A vacant bucket of [`CanonTable::table`].
const VACANT: u32 = u32::MAX;

/// Buckets of [`CanonTable::table`] at the start of every build; the table
/// doubles whenever it would become more than half full.
const MIN_BUCKETS: usize = 16;

/// A seedless multiply-rotate [`Hasher`] (the FxHash word step): each word
/// costs a rotate, a xor and a multiply, and a value always hashes the
/// same. [`Broadcast::build_canon`](Delivery::build_canon) deduplicates a
/// round's slots with it, and `anonet-core` chains §5 history digests with
/// it.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    /// A hasher whose state is `state`, e.g. an earlier
    /// [`finish`](Hasher::finish), so that a digest can be extended.
    pub fn from_state(state: u64) -> WordHasher {
        WordHasher(state)
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

impl CanonTable {
    /// Number of distinct message values in the round this table was built
    /// for (0 before any build).
    #[inline]
    pub fn distinct(&self) -> usize {
        self.reps.len()
    }
}

/// Reusable per-part scratch for rank-based gathering: small `u32` key and
/// count tables that replace per-node message sorts. `counts` maintains an
/// all-zeroes invariant between gathers so the counting path never pays a
/// clear proportional to the table size.
#[derive(Debug, Default)]
pub struct GatherScratch {
    /// Rank keys of the gathering node's incoming messages.
    keys: Vec<u32>,
    /// Histogram indexed by rank (counting path) or per-distinct-value
    /// multiplicities (`gather_local`).
    counts: Vec<u32>,
}

/// What the send phase of a round left for the receive phase to gather
/// from.
#[derive(Clone, Copy, Debug)]
pub struct Outbox<'b, M> {
    /// The slot buffer: one slot per arc (port numbering) or per node
    /// (broadcast), laid out by [`Delivery::slot_span`].
    pub slots: &'b [M],
    /// One slot per node, holding the node's uniform message in rounds
    /// where it sent one ([`Delivery::NODE_SLOTS`] deliveries only; empty
    /// otherwise).
    pub nodes: &'b [M],
    /// Where each sender's messages sit this round.
    pub senders: Senders<'b>,
}

/// Where a round's senders left their messages. A halted node's slots of
/// both kinds hold `Msg::default()`, so it matches every variant.
#[derive(Clone, Copy, Debug)]
pub enum Senders<'b> {
    /// Every node's messages are in its `slots`.
    Slots,
    /// Every node's message is in its node slot.
    Nodes,
    /// Per node: whether its message is in its node slot (`true`) or in
    /// its `slots`.
    Mixed(&'b [bool]),
}

/// Below this degree a tiny unstable sort of `u32` rank keys beats the
/// counting pass (which walks every distinct rank of the round).
const COUNTING_MIN_DEGREE: usize = 16;

/// Delivery semantics of one computation model for algorithm `A`.
///
/// Implementors are zero-sized model markers ([`PortNumbering`],
/// [`Broadcast`]); all methods are associated functions. The associated
/// types re-export `A`'s own message/input/output/config types so the
/// generic engine can name them without a shared algorithm supertrait.
pub trait Delivery<A> {
    /// Message type; `Default` is the "no content" message of halted nodes.
    type Msg: Clone + Default + Send + Sync + MessageSize + 'static;
    /// Per-node local input.
    type Input: Clone + Sync;
    /// Per-node output.
    type Output: Clone + Send + Sync + Debug;
    /// Global configuration known to all nodes.
    type Config: Sync;

    /// True when gathering consults a round-global [`CanonTable`]: the
    /// engine must call [`build_canon`](Delivery::build_canon) between the
    /// send and receive phases of every round. Broadcast sets this; port
    /// numbering is port-aligned and needs no canonicalisation.
    const RANKED: bool = false;

    /// True when the engine keeps one node slot and one uniform flag per
    /// node beside the slot buffer and asks
    /// [`send_uniform`](Delivery::send_uniform) before
    /// [`send`](Delivery::send). Port numbering sets this; a broadcast slot
    /// is already one per node.
    const NODE_SLOTS: bool = false;

    /// Creates the initial state of a node with `degree` ports.
    fn init(cfg: &Self::Config, degree: usize, input: &Self::Input) -> A;

    /// The contiguous range of delivery-buffer slots owned by the contiguous
    /// node range `nodes` (port numbering: their out-arcs; broadcast: one
    /// slot per node). Must be monotone — consecutive node ranges own
    /// consecutive slot ranges — and tile the whole buffer over `0..n`.
    fn slot_span(g: &Graph, nodes: Range<usize>) -> Range<usize>;

    /// Writes the node's outgoing messages into its own slots. `out` is the
    /// node's `slot_span`, pre-filled with `Msg::default()`.
    fn send(state: &A, cfg: &Self::Config, round: u64, out: &mut [Self::Msg]);

    /// The node's message for every port this round, when it is the same
    /// on all of them ([`NODE_SLOTS`](Delivery::NODE_SLOTS) deliveries
    /// only). The default is `None`: send per slot.
    fn send_uniform(state: &A, cfg: &Self::Config, round: u64) -> Option<Self::Msg> {
        let _ = (state, cfg, round);
        None
    }

    /// Whether the node reads its incoming messages this round. When
    /// `false`, the engine skips [`gather`](Delivery::gather) and delivers
    /// an empty slice. Broadcast asks [`BcastAlgorithm::listens`]; the
    /// default (port numbering) always gathers.
    fn listens(state: &A, cfg: &Self::Config, round: u64) -> bool {
        let _ = (state, cfg, round);
        true
    }

    /// Builds the round-global [`CanonTable`] from the post-send buffer.
    /// Called once per round by the engine when
    /// [`RANKED`](Delivery::RANKED) is set; the default is a no-op.
    fn build_canon(g: &Graph, buf: &[Self::Msg], canon: &mut CanonTable) {
        let _ = (g, buf, canon);
    }

    /// Gathers node `v`'s incoming messages from the round's outbox into
    /// `scratch` (which must be empty on entry), canonicalised as the model
    /// requires: broadcast emits the sorted multiset via the round's
    /// [`CanonTable`] ranks, port numbering is port-aligned (each port reads
    /// its sender's node slot or arc slot) and ignores `canon`/`gs`
    /// entirely.
    fn gather<'b>(
        g: &Graph,
        v: usize,
        out: &Outbox<'b, Self::Msg>,
        canon: &CanonTable,
        gs: &mut GatherScratch,
        scratch: &mut Vec<&'b Self::Msg>,
    );

    /// Gathers one round's incoming messages from a node's **per-port inbox**
    /// (`inbox[p]` holds the message that arrived on port `p`), canonicalised
    /// exactly like [`gather`](Delivery::gather). This is what an
    /// event-driven executor needs: `anonet-runtime` buffers arrivals per
    /// port instead of in a global slot buffer, and delegating the
    /// canonicalisation here keeps the model semantics (port alignment vs.
    /// sorted multiset) defined in exactly one place. There is no
    /// round-global table here; broadcast canonicalises by counting distinct
    /// values through `gs` instead of sorting references.
    fn gather_local<'b>(
        inbox: &'b [Self::Msg],
        gs: &mut GatherScratch,
        scratch: &mut Vec<&'b Self::Msg>,
    );

    /// Delivers `incoming` to the node; returning `Some` halts it.
    fn receive(
        state: &mut A,
        cfg: &Self::Config,
        round: u64,
        incoming: &[&Self::Msg],
    ) -> Option<Self::Output>;

    /// `(total_delivered_bits, max_single_message_bits)` accounted to node
    /// `v`'s own slots this round. Must reproduce the historical per-model
    /// accounting bit-exactly: port numbering counts each slot once;
    /// broadcast counts the single slot `deg(v)` times for the total but
    /// counts it toward the max even when `deg(v) == 0`. The engine calls
    /// it only for variable-width messages.
    fn slot_bits(g: &Graph, v: usize, slots: &[Self::Msg]) -> (u64, u64);

    /// The same accounting for a node whose every slot carries a message
    /// of `bits` bits: a uniform send, a halted node's `Msg::default()`, or
    /// any send of a fixed-width message ([`MessageSize::FIXED_BITS`]).
    /// This is what lets the engine measure a uniform message once, skip
    /// halted nodes entirely, and account a round of fixed-width sends by
    /// one term summed when the frontier changes, while keeping
    /// [`Trace`](crate::engine::Trace) counts identical to the
    /// all-nodes-send, one-slot-per-arc semantics.
    fn uniform_bits(g: &Graph, v: usize, bits: u64) -> (u64, u64);
}

/// Zero-sized marker: port-numbering-model delivery (see [`PnAlgorithm`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PortNumbering;

impl<A: PnAlgorithm> Delivery<A> for PortNumbering {
    type Msg = A::Msg;
    type Input = A::Input;
    type Output = A::Output;
    type Config = A::Config;

    const NODE_SLOTS: bool = true;

    #[inline(always)]
    fn init(cfg: &Self::Config, degree: usize, input: &Self::Input) -> A {
        A::init(cfg, degree, input)
    }

    #[inline(always)]
    fn slot_span(g: &Graph, nodes: Range<usize>) -> Range<usize> {
        g.arc_span(nodes)
    }

    #[inline(always)]
    fn send(state: &A, cfg: &Self::Config, round: u64, out: &mut [Self::Msg]) {
        state.send(cfg, round, out);
    }

    #[inline(always)]
    fn send_uniform(state: &A, cfg: &Self::Config, round: u64) -> Option<Self::Msg> {
        state.send_uniform(cfg, round)
    }

    #[inline(always)]
    fn gather<'b>(
        g: &Graph,
        v: usize,
        out: &Outbox<'b, Self::Msg>,
        _canon: &CanonTable,
        _gs: &mut GatherScratch,
        scratch: &mut Vec<&'b Self::Msg>,
    ) {
        // Port-aligned: the message arriving on port p is what the neighbour
        // u at its other end sent on the reverse arc — u's node slot when u
        // sent uniformly this round, else the reverse arc's own slot. The
        // bulk head and rev-arc slices trade one bounds check per arc for
        // one per node, and their exact length lets `extend` reserve once
        // instead of per push.
        // hot-path: begin — port-numbering gather
        let arcs = g.arc_range(v);
        let (slots, nodes) = (out.slots, out.nodes);
        match out.senders {
            Senders::Slots => {
                scratch.extend(g.rev_arcs(arcs).iter().map(|&r| &slots[r as usize]));
            }
            Senders::Nodes => {
                scratch.extend(g.heads(arcs).iter().map(|&u| &nodes[u as usize]));
            }
            Senders::Mixed(uniform) => {
                let (heads, revs) = (g.heads(arcs.clone()), g.rev_arcs(arcs));
                scratch.reserve(heads.len());
                for (&u, &r) in heads.iter().zip(revs) {
                    // Both candidates are addresses, not loads: taking
                    // both and selecting keeps a mixed round's
                    // unpredictable flags off the branch predictor.
                    let u = u as usize;
                    let (node, arc) = (&nodes[u], &slots[r as usize]);
                    scratch.push(if uniform[u] { node } else { arc });
                }
            }
        }
        // hot-path: end
    }

    #[inline(always)]
    fn gather_local<'b>(
        inbox: &'b [Self::Msg],
        _gs: &mut GatherScratch,
        scratch: &mut Vec<&'b Self::Msg>,
    ) {
        // Port-aligned: the inbox is already indexed by port.
        scratch.extend(inbox.iter());
    }

    #[inline(always)]
    fn receive(
        state: &mut A,
        cfg: &Self::Config,
        round: u64,
        incoming: &[&Self::Msg],
    ) -> Option<Self::Output> {
        state.receive(cfg, round, incoming)
    }

    #[inline]
    fn slot_bits(_g: &Graph, _v: usize, slots: &[Self::Msg]) -> (u64, u64) {
        let mut total = 0;
        let mut max = 0;
        for m in slots {
            let b = m.approx_bits();
            total += b;
            max = max.max(b);
        }
        (total, max)
    }

    #[inline]
    fn uniform_bits(g: &Graph, v: usize, bits: u64) -> (u64, u64) {
        // One message per arc, as if each slot had been written.
        let d = g.degree(v) as u64;
        (d * bits, if d > 0 { bits } else { 0 })
    }
}

/// Zero-sized marker: broadcast-model delivery (see [`BcastAlgorithm`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Broadcast;

impl<A: BcastAlgorithm> Delivery<A> for Broadcast {
    type Msg = A::Msg;
    type Input = A::Input;
    type Output = A::Output;
    type Config = A::Config;

    const RANKED: bool = true;

    #[inline(always)]
    fn init(cfg: &Self::Config, degree: usize, input: &Self::Input) -> A {
        A::init(cfg, degree, input)
    }

    #[inline(always)]
    fn slot_span(_g: &Graph, nodes: Range<usize>) -> Range<usize> {
        nodes
    }

    #[inline(always)]
    fn send(state: &A, cfg: &Self::Config, round: u64, out: &mut [Self::Msg]) {
        out[0] = state.send(cfg, round);
    }

    #[inline(always)]
    fn listens(state: &A, cfg: &Self::Config, round: u64) -> bool {
        state.listens(cfg, round)
    }

    fn build_canon(_g: &Graph, buf: &[Self::Msg], canon: &mut CanonTable) {
        debug_assert!(buf.len() < VACANT as usize);
        // hot-path: begin — round-global canonicalisation build
        let CanonTable { table, hashes, order, ranks, reps } = canon;
        table.clear();
        table.resize(MIN_BUCKETS, VACANT);
        hashes.clear();
        reps.clear();
        ranks.clear();
        // Dedupe: give each slot the provisional id of the first slot with
        // an equal value. A bucket matches only when `==` agrees.
        for (s, m) in buf.iter().enumerate() {
            // Neighbouring slots often hold the same value: reuse its id.
            if s > 0 && buf[s - 1] == *m {
                ranks.push(ranks[s - 1]);
                continue;
            }
            let mut hasher = WordHasher::default();
            m.hash(&mut hasher);
            let h = hasher.finish();
            let mut b = h as usize & (table.len() - 1);
            let id = loop {
                let id = table[b];
                if id == VACANT {
                    let id = reps.len() as u32;
                    reps.push(s as u32);
                    hashes.push(h);
                    if 2 * reps.len() > table.len() {
                        // Keep the load at most 1/2: double and re-insert.
                        let size = 2 * table.len();
                        table.clear();
                        table.resize(size, VACANT);
                        for (id, &h) in hashes.iter().enumerate() {
                            let mut b = h as usize & (size - 1);
                            while table[b] != VACANT {
                                b = (b + 1) & (size - 1);
                            }
                            table[b] = id as u32;
                        }
                    } else {
                        table[b] = id;
                    }
                    break id;
                }
                if hashes[id as usize] == h && buf[reps[id as usize] as usize] == *m {
                    break id;
                }
                b = (b + 1) & (table.len() - 1);
            };
            ranks.push(id);
        }
        // Sort the D representatives, then renumber ids into ranks.
        order.clear();
        order.extend(0..reps.len() as u32);
        order.sort_unstable_by(|&a, &b| {
            buf[reps[a as usize] as usize].cmp(&buf[reps[b as usize] as usize])
        });
        for (rank, id) in order.iter_mut().enumerate() {
            table[*id as usize] = rank as u32;
            *id = reps[*id as usize];
        }
        std::mem::swap(order, reps);
        for r in ranks.iter_mut() {
            *r = table[*r as usize];
        }
        // hot-path: end
    }

    #[inline]
    fn gather<'b>(
        g: &Graph,
        v: usize,
        out: &Outbox<'b, Self::Msg>,
        canon: &CanonTable,
        gs: &mut GatherScratch,
        scratch: &mut Vec<&'b Self::Msg>,
    ) {
        let buf = out.slots;
        debug_assert_eq!(canon.ranks.len(), buf.len(), "build_canon must precede ranked gather");
        debug_assert!(scratch.is_empty());
        // hot-path: begin — ranked broadcast gather
        gs.keys.clear();
        gs.keys.extend(g.neighbors(v).map(|(_, u)| canon.ranks[u]));
        let d = gs.keys.len();
        let distinct = canon.reps.len();
        if d >= COUNTING_MIN_DEGREE && distinct <= 2 * d {
            // Counting emission: histogram the rank keys, then walk the
            // rank space in order. `counts` is all-zeroes on entry and the
            // walk re-zeroes every bin it visits, so the invariant is
            // maintained without a table-sized clear.
            if gs.counts.len() < distinct {
                gs.counts.resize(distinct, 0);
            }
            for &k in &gs.keys {
                gs.counts[k as usize] += 1;
            }
            for r in 0..distinct {
                let c = std::mem::replace(&mut gs.counts[r], 0);
                let rep = &buf[canon.reps[r] as usize];
                for _ in 0..c {
                    scratch.push(rep);
                }
            }
        } else {
            // Rank keys are plain u32s: an unstable sort of d of them is
            // far cheaper than d log d message comparisons.
            gs.keys.sort_unstable();
            scratch.extend(gs.keys.iter().map(|&k| &buf[canon.reps[k as usize] as usize]));
        }
        // Canonical multiset order: the algorithm cannot learn which
        // neighbour sent which message. Equal ranks are equal values, so
        // emitting representatives is observationally identical to sorting
        // the references — and this assertion catches any regression.
        debug_assert!(scratch.windows(2).all(|w| w[0] <= w[1]));
        // hot-path: end
    }

    #[inline]
    fn gather_local<'b>(
        inbox: &'b [Self::Msg],
        gs: &mut GatherScratch,
        scratch: &mut Vec<&'b Self::Msg>,
    ) {
        // Same canonical multiset order as `gather`, without a round-global
        // table: maintain a sorted list of distinct values (as inbox
        // indices) with multiplicities, then emit. Duplicate-heavy inboxes
        // pay O(d log k) comparisons for k distinct values instead of
        // O(d log d).
        // hot-path: begin — local inbox canonicalisation
        gs.keys.clear();
        gs.counts.clear();
        for (i, m) in inbox.iter().enumerate() {
            match gs.keys.binary_search_by(|&k| inbox[k as usize].cmp(m)) {
                Ok(p) => gs.counts[p] += 1,
                Err(p) => {
                    gs.keys.insert(p, i as u32);
                    gs.counts.insert(p, 1);
                }
            }
        }
        for (p, &k) in gs.keys.iter().enumerate() {
            let rep = &inbox[k as usize];
            for _ in 0..gs.counts[p] {
                scratch.push(rep);
            }
        }
        debug_assert!(scratch.windows(2).all(|w| w[0] <= w[1]));
        // hot-path: end
    }

    #[inline(always)]
    fn receive(
        state: &mut A,
        cfg: &Self::Config,
        round: u64,
        incoming: &[&Self::Msg],
    ) -> Option<Self::Output> {
        state.receive(cfg, round, incoming)
    }

    #[inline]
    fn slot_bits(g: &Graph, v: usize, slots: &[Self::Msg]) -> (u64, u64) {
        // One broadcast, delivered along each incident edge; an isolated
        // node's broadcast still counts toward the max (historical
        // accounting, kept bit-identical).
        let b = slots[0].approx_bits();
        (b * g.degree(v) as u64, b)
    }

    #[inline]
    fn uniform_bits(g: &Graph, v: usize, bits: u64) -> (u64, u64) {
        (bits * g.degree(v) as u64, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::model::BcastAlgorithm;

    type D = Broadcast;

    /// What a broadcast message type needs, plus `Debug` for assertions.
    trait TestMsg: Clone + Default + Ord + Hash + Debug + Send + Sync + MessageSize + 'static {}
    impl<M: Clone + Default + Ord + Hash + Debug + Send + Sync + MessageSize + 'static> TestMsg for M {}

    /// Broadcast algorithm with message type `M`, to instantiate the
    /// delivery for each test message type.
    struct EchoOf<M>(std::marker::PhantomData<M>);
    impl<M: TestMsg> BcastAlgorithm for EchoOf<M> {
        type Msg = M;
        type Input = ();
        type Output = ();
        type Config = ();
        fn init(_: &(), _: usize, _: &()) -> Self {
            EchoOf(std::marker::PhantomData)
        }
        fn send(&self, _: &(), _: u64) -> M {
            M::default()
        }
        fn receive(&mut self, _: &(), _: u64, _: &[&M]) -> Option<()> {
            None
        }
    }

    /// The `u64` instance the gather tests use.
    type Echo = EchoOf<u64>;

    /// Reference canonicalisation: what the pre-table implementation did.
    fn sorted_values(g: &Graph, v: usize, buf: &[u64]) -> Vec<u64> {
        let mut vals: Vec<u64> = g.neighbors(v).map(|(_, u)| buf[u]).collect();
        vals.sort();
        vals
    }

    /// Deterministic xorshift so the equivalence sweep needs no rng dep.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Table-based gather must emit exactly the multiset sort emitted,
    /// value-for-value, across randomized duplicate-heavy buffers — on both
    /// the counting-emission path (hub node, few distinct values) and the
    /// key-sort path (low degree).
    #[test]
    fn counting_gather_matches_sort_reference() {
        // Star forces a high-degree hub (counting path) plus leaves
        // (key-sort path); the cycle chain exercises mid degrees.
        let mut edges: Vec<(usize, usize)> = (1..40).map(|i| (0, i)).collect();
        edges.extend((1..39).map(|i| (i, i + 1)));
        let g = Graph::from_edges(40, &edges).unwrap();
        let mut seed = 0x5eed_cafe_f00d_u64;
        for dup_mod in [1u64, 2, 3, 8, 40] {
            let buf: Vec<u64> = (0..g.n()).map(|_| xorshift(&mut seed) % dup_mod).collect();
            let mut canon = CanonTable::default();
            <D as Delivery<Echo>>::build_canon(&g, &buf, &mut canon);
            let mut gs = GatherScratch::default();
            for v in 0..g.n() {
                let mut scratch: Vec<&u64> = Vec::new();
                let out = Outbox { slots: &buf[..], nodes: &[], senders: Senders::Slots };
                <D as Delivery<Echo>>::gather(&g, v, &out, &canon, &mut gs, &mut scratch);
                let got: Vec<u64> = scratch.iter().map(|m| **m).collect();
                assert_eq!(got, sorted_values(&g, v, &buf), "node {v}, dup_mod {dup_mod}");
            }
        }
    }

    /// `gather_local`'s counting canonicalisation must match a plain sort
    /// of the inbox values.
    #[test]
    fn gather_local_counting_matches_sort_reference() {
        let mut seed = 0xdead_beef_u64;
        for len in [0usize, 1, 2, 5, 17, 64] {
            for dup_mod in [1u64, 2, 5, 1000] {
                let inbox: Vec<u64> = (0..len).map(|_| xorshift(&mut seed) % dup_mod).collect();
                let mut gs = GatherScratch::default();
                let mut scratch: Vec<&u64> = Vec::new();
                <D as Delivery<Echo>>::gather_local(&inbox, &mut gs, &mut scratch);
                let got: Vec<u64> = scratch.iter().map(|m| **m).collect();
                let mut want = inbox.clone();
                want.sort();
                assert_eq!(got, want, "len {len}, dup_mod {dup_mod}");
            }
        }
    }

    fn build<M: TestMsg>(buf: &[M]) -> CanonTable {
        let g = Graph::from_edges(buf.len(), &[]).unwrap();
        let mut canon = CanonTable::default();
        <D as Delivery<EchoOf<M>>>::build_canon(&g, buf, &mut canon);
        canon
    }

    /// The sort-then-scan build that the dedupe-then-sort build replaced:
    /// sort every slot by value, then start a new rank wherever neighbours
    /// differ. Returns the ranks and each rank's value.
    fn sort_reference<M: Ord + Clone>(buf: &[M]) -> (Vec<u32>, Vec<M>) {
        let mut idx: Vec<usize> = (0..buf.len()).collect();
        idx.sort_unstable_by(|&a, &b| buf[a].cmp(&buf[b]));
        let mut ranks = vec![0u32; buf.len()];
        let mut values: Vec<M> = Vec::new();
        for (i, &s) in idx.iter().enumerate() {
            if i == 0 || buf[idx[i - 1]] != buf[s] {
                values.push(buf[s].clone());
            }
            ranks[s] = (values.len() - 1) as u32;
        }
        (ranks, values)
    }

    fn assert_matches_reference<M: TestMsg>(buf: &[M], what: &str) {
        let canon = build(buf);
        let (ranks, values) = sort_reference(buf);
        assert_eq!(canon.ranks, ranks, "{what}: ranks");
        let reps: Vec<M> = canon.reps.iter().map(|&s| buf[s as usize].clone()).collect();
        assert_eq!(reps, values, "{what}: representative values");
    }

    /// A message whose hash is constant: every probe collides, so only
    /// `==` can tell values apart.
    #[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
    struct Collide(u64);
    impl Hash for Collide {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(7);
        }
    }
    impl MessageSize for Collide {
        fn approx_bits(&self) -> u64 {
            64
        }
    }

    std::thread_local! {
        static COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A message whose `Ord` counts its calls.
    #[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
    struct Counted(u64);
    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            COMPARISONS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }
    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl MessageSize for Counted {
        fn approx_bits(&self) -> u64 {
            64
        }
    }

    /// Dedupe-then-sort gives the same ranks and representative values as
    /// the sort it replaced, over duplicate-heavy to all-distinct buffers.
    #[test]
    fn dedupe_then_sort_matches_the_sort_reference() {
        let mut seed = 0x0dd_5eed_u64;
        for n in [0usize, 1, 2, 7, 64, 300] {
            for dup_mod in [1u64, 2, 3, 8, n.max(1) as u64] {
                let buf: Vec<u64> = (0..n).map(|_| xorshift(&mut seed) % dup_mod).collect();
                assert_matches_reference(&buf, &format!("n {n}, dup_mod {dup_mod}"));
                let wide: Vec<u64> =
                    buf.iter().map(|v| v.wrapping_mul(0x9e37_79b9 << 20)).collect();
                assert_matches_reference(&wide, &format!("wide, n {n}, dup_mod {dup_mod}"));
            }
        }
    }

    /// With every hash equal, each probe walks a collision chain and only
    /// `==` separates the values: the ranks must still be exact.
    #[test]
    fn colliding_hashes_still_rank_exactly() {
        let mut seed = 0x0c01_11de_u64;
        for (n, dup_mod) in [(40usize, 1u64), (40, 3), (100, 17), (64, 64)] {
            let buf: Vec<Collide> =
                (0..n).map(|_| Collide(xorshift(&mut seed) % dup_mod)).collect();
            assert_matches_reference(&buf, &format!("n {n}, dup_mod {dup_mod}"));
        }
    }

    /// Only the D distinct representatives are sorted: the build makes at
    /// most D·⌈log₂ D⌉ + 2D comparisons, however many slots repeat them.
    #[test]
    fn build_compares_only_distinct_values() {
        let mut seed = 0xc0_47ed_u64;
        for n in [1usize, 10, 100, 1000, 5000] {
            for distinct in [1u64, 2, 3, 8, 20, 50, 200, 1000] {
                let buf: Vec<Counted> =
                    (0..n).map(|_| Counted(xorshift(&mut seed) % distinct)).collect();
                COMPARISONS.with(|c| c.set(0));
                let canon = build(&buf);
                let cmps = COMPARISONS.with(std::cell::Cell::get);
                let d = canon.distinct() as u64;
                let log = u64::from(d.next_power_of_two().trailing_zeros());
                assert!(
                    cmps <= d * log + 2 * d,
                    "n {n}, D {d}: {cmps} comparisons > D·⌈log₂ D⌉ + 2D = {}",
                    d * log + 2 * d
                );
            }
        }
    }

    /// The rank table itself: ranks are value-ordered and dense, and every
    /// representative actually holds its rank's value.
    #[test]
    fn canon_table_ranks_are_dense_and_value_ordered() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let buf: Vec<u64> = vec![7, 3, 7, 1, 3, 9];
        let mut canon = CanonTable::default();
        <D as Delivery<Echo>>::build_canon(&g, &buf, &mut canon);
        assert_eq!(canon.distinct(), 4); // {1, 3, 7, 9}
        for (s, &r) in canon.ranks.iter().enumerate() {
            assert_eq!(buf[canon.reps[r as usize] as usize], buf[s]);
        }
        for w in canon.reps.windows(2) {
            assert!(buf[w[0] as usize] < buf[w[1] as usize]);
        }
    }
}
