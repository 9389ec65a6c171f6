//! §5: vertex cover in the **broadcast model** — maximal edge packing in
//! O(Δ² + Δ·log\*W) rounds on G itself, by simulating the §4 algorithm on
//! the incidence structure of G.
//!
//! The edge-packing instance (G, w) becomes a fractional-packing instance
//! (H, w) with `f = 2, k = Δ`: node v ↦ subset node s(v), edge e ↦ element
//! u(e). Elements are *not* physical entities, so each node v replays them:
//! v broadcasts the **full history** `h(v, i−1)` of s(v)'s §4 messages every
//! round; from its own history and a received neighbour history it can
//! re-simulate the shared element — and because the element treats its two
//! neighbours symmetrically (broadcast model), v never needs to know *which*
//! neighbour a history came from. This costs message size (the paper:
//! "without increasing the number of communication rounds, but at the cost
//! of increasing message complexity") — experiment E4 measures exactly that
//! blowup via the engine's bit instrumentation.
//!
//! ## Histories
//!
//! A history is an append-only chain: [`HistoryMsg`] is an `Option<Arc<_>>`
//! to its newest link, and each link holds one §4 message, a shared pointer
//! to the history before it, and three running totals — the length, the
//! summed [`MessageSize::approx_bits`] of its messages, and a digest, a hash
//! chain built with the seedless multiply-rotate [`WordHasher`]. A node
//! extends its own chain by one link per round, so a send is an `Arc` clone
//! and the size, the hash and most comparisons are O(1); the message bits
//! the engine accounts are unchanged (`64 + Σ approx_bits`, as if the whole
//! sequence were copied, which is what the model charges).
//!
//! **Interning.** Appends are hash-consed: the run's intern table, kept in
//! [`VcBcastConfig`] and dropped with it, maps each new link's digest to the
//! first link built with that digest. An append reuses that link when it
//! extends the same previous link (by pointer) with an equal message, so
//! equal histories built in one run share one `Arc`, prefix by prefix. A
//! digest that collides with a different history only forgoes sharing: the
//! value is kept on a link of its own. Nodes still see only values.
//!
//! **Order.** Histories are ordered by length, then by digest, then by
//! their messages compared newest first. The last step walks both chains
//! back and stops at the first link the two share by pointer, since
//! everything before it is equal — for interned histories of equal value
//! that is the first link, so equality costs O(1). Every key is a function
//! of the message sequence alone, so this is a total order on history
//! *values* — which is all the engine's canonical multiset needs; no node
//! output depends on which total order it is, because `receive` sorts what
//! it collects. The walk, like dropping a chain, is a loop: a long history
//! never recurses.
//!
//! ## Memo
//!
//! Element states are memoized by history *value* (`HistoryMap<HistoryMsg,
//! state>`), which is broadcast-legal — the state is a pure function of the
//! unordered pair of endpoint histories — and avoids the O(T) re-simulation
//! per edge per round. The round-t lookup key is the neighbour's history
//! minus its newest link, i.e. the very chain it sent last round, so the
//! lookup hashes one digest and its equality check ends at the first
//! pointer comparison; inserting the new key is an `Arc` clone. Digests are
//! unseeded, so a client could pick weights whose histories collide; a
//! table holds at most one entry per port (≤ Δ), so that costs at most Δ
//! comparisons per lookup.
//!
//! Determinism note: the memo and intern tables are keyed lookups only —
//! nothing ever *iterates* a `HashMap` here. Outputs (`elem_info`, message
//! order) are produced by walking `incoming` in port order and sorting
//! collected multisets, so no hash order reaches a `Trace` or an output.
//! Which of two equal links a multi-threaded run shares depends on timing,
//! but values, sizes and digests do not. The
//! `anonet-lint` `determinism` check enforces this; the waivers below each
//! assert membership-only use.

use crate::sc_bcast::{ScConfig, ScMsg, ScNode, ScOutput};
use crate::vc_pn::VcInstance;
use anonet_bigmath::PackingValue;
use anonet_sim::{
    run_engine_scratch, BatchRunner, BcastAlgorithm, Broadcast, EngineScratch, Graph, MessageSize,
    SimError, Trace, WordHasher,
};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// The memo tables' map type.
type HistoryMap<K, T> = HashMap<K, T, BuildHasherDefault<WordHasher>>; // lint: allow(determinism) — membership-only memo tables, never iterated

/// The intern table's map type: digest → the link first built with it.
type InternMap<V> = HashMap<u64, Arc<Link<V>>, BuildHasherDefault<WordHasher>>; // lint: allow(determinism) — membership-only intern table, never iterated

/// One run's hash-cons table of history links (see the module docs),
/// shared by every node of the run and freed with it. It is type-erased so
/// that [`VcBcastConfig`] does not depend on the value type; it holds an
/// `InternMap<V>` once the first link is interned.
#[derive(Default)]
struct Interner(Mutex<Option<Box<dyn Any + Send>>>);

/// Global configuration: the §4 configuration of the derived instance
/// (`f = 2`, `k = Δ`), plus the run's history intern table.
pub struct VcBcastConfig {
    /// Configuration of the simulated §4 run.
    pub sc: ScConfig,
    /// Shared links of the run's histories; a clone starts empty.
    intern: Interner,
}

impl Clone for VcBcastConfig {
    fn clone(&self) -> Self {
        VcBcastConfig { sc: self.sc.clone(), intern: Interner::default() }
    }
}

impl fmt::Debug for VcBcastConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VcBcastConfig").field("sc", &self.sc).finish_non_exhaustive()
    }
}

impl VcBcastConfig {
    /// Builds the configuration for bounds Δ and W.
    pub fn new(delta: usize, max_weight: u64) -> VcBcastConfig {
        VcBcastConfig {
            sc: ScConfig::new(2, delta.max(1), max_weight),
            intern: Interner::default(),
        }
    }

    /// Total rounds on G: one more than the simulated §4 schedule (after
    /// G-round i, each node knows its subset's messages through §4-round i;
    /// the final §4 receive happens at G-round T+1).
    pub fn total_rounds(&self) -> u64 {
        self.sc.total_rounds() + 1
    }
}

/// One node of G simulating its subset node and incident elements.
pub struct VcBcastNode<V: PackingValue> {
    /// Simulator for s(v).
    subset: ScNode<V>,
    /// `h(v, i)`: messages s(v) sent in §4-rounds 1..=i.
    history: HistoryMsg<V>,
    /// Element states after §4-round (i−1) receives, keyed by the
    /// neighbour's history value.
    memo: HistoryMap<HistoryMsg<V>, ScNode<V>>,
    /// Collected element outputs (multiset, sorted) at the end.
    elem_info: Vec<(V, bool)>,
    /// The subset's final output.
    in_cover: Option<bool>,
}

/// Output of a §5 node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcBcastOutput<V> {
    /// Whether s(v) is saturated, i.e. v joins the vertex cover.
    pub in_cover: bool,
    /// Per incident element (unattributed multiset, sorted): final `(y,
    /// saturated)` — enough to reconstruct Σy and check maximality globally.
    pub elem_info: Vec<(V, bool)>,
}

/// History message: all §4 messages the sender's subset node has broadcast,
/// as a shared append-only chain (see the module docs for its order).
#[derive(Clone, Default)]
pub struct HistoryMsg<V: PackingValue>(Option<Arc<Link<V>>>);

/// One link of a history chain: the newest message and the history before
/// it, with the running totals of the history ending here.
struct Link<V: PackingValue> {
    msg: ScMsg<V>,
    prev: Option<Arc<Link<V>>>,
    /// Number of messages.
    len: u64,
    /// Σ `approx_bits` of the messages.
    bits: u64,
    /// Hash chain over the messages, oldest first.
    digest: u64,
}

impl<V: PackingValue> HistoryMsg<V> {
    /// The history extended by `msg`, on a link of its own.
    #[cfg(test)]
    fn push(&self, msg: ScMsg<V>) -> HistoryMsg<V> {
        HistoryMsg(Some(Arc::new(self.link(msg))))
    }

    /// The history extended by `msg`, sharing the link of an equal history
    /// built earlier in the same run when there is one.
    fn push_interned(&self, msg: ScMsg<V>, intern: &Interner) -> HistoryMsg<V> {
        let mut guard = intern.0.lock().unwrap_or_else(PoisonError::into_inner);
        if !guard.as_ref().is_some_and(|t| t.is::<InternMap<V>>()) {
            *guard = Some(Box::new(InternMap::<V>::default()));
        }
        let table = guard.as_mut().and_then(|t| t.downcast_mut::<InternMap<V>>());
        let table = table.expect("intern table holds this value type");
        let link = self.link(msg);
        match table.entry(link.digest) {
            Entry::Occupied(e) => {
                let shared = e.get();
                let same_prev = match (&shared.prev, &link.prev) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                    (a, b) => a.is_none() && b.is_none(),
                };
                if same_prev && shared.msg == link.msg {
                    return HistoryMsg(Some(Arc::clone(shared)));
                }
                // A digest collision: the value stays correct on a link of
                // its own, it only forgoes sharing.
                HistoryMsg(Some(Arc::new(link)))
            }
            Entry::Vacant(e) => HistoryMsg(Some(Arc::clone(e.insert(Arc::new(link))))),
        }
    }

    /// The link that extends this history by `msg`.
    fn link(&self, msg: ScMsg<V>) -> Link<V> {
        let (len, bits, digest) = self.0.as_ref().map_or((0, 0, 0), |l| (l.len, l.bits, l.digest));
        let mut h = WordHasher::from_state(digest);
        msg.hash(&mut h);
        let bits = bits + msg.approx_bits();
        Link { msg, prev: self.0.clone(), len: len + 1, bits, digest: h.finish() }
    }

    /// Number of messages.
    fn len(&self) -> u64 {
        self.0.as_ref().map_or(0, |l| l.len)
    }

    /// The newest message.
    fn last(&self) -> Option<&ScMsg<V>> {
        self.0.as_ref().map(|l| &l.msg)
    }

    /// The history without its newest message: the chain this one extends.
    fn prefix(&self) -> HistoryMsg<V> {
        HistoryMsg(self.0.as_ref().and_then(|l| l.prev.clone()))
    }

    /// The messages, newest first.
    fn iter_rev(&self) -> impl Iterator<Item = &ScMsg<V>> {
        std::iter::successors(self.0.as_deref(), |l| l.prev.as_deref()).map(|l| &l.msg)
    }
}

impl<V: PackingValue> MessageSize for HistoryMsg<V> {
    fn approx_bits(&self) -> u64 {
        64 + self.0.as_ref().map_or(0, |l| l.bits)
    }
}

impl<V: PackingValue> Ord for HistoryMsg<V> {
    fn cmp(&self, other: &Self) -> Ordering {
        let key = |h: &Self| h.0.as_ref().map_or((0, 0), |l| (l.len, l.digest));
        key(self).cmp(&key(other)).then_with(|| {
            // Equal lengths and digests: walk both chains back in step until
            // they share a link.
            let (mut a, mut b) = (self.0.as_ref(), other.0.as_ref());
            while let (Some(x), Some(y)) = (a, b) {
                if Arc::ptr_eq(x, y) {
                    break;
                }
                match x.msg.cmp(&y.msg) {
                    Ordering::Equal => (a, b) = (x.prev.as_ref(), y.prev.as_ref()),
                    ord => return ord,
                }
            }
            Ordering::Equal
        })
    }
}

impl<V: PackingValue> PartialOrd for HistoryMsg<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: PackingValue> PartialEq for HistoryMsg<V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<V: PackingValue> Eq for HistoryMsg<V> {}

impl<V: PackingValue> Hash for HistoryMsg<V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.as_ref().map_or(0, |l| l.digest));
    }
}

impl<V: PackingValue> fmt::Debug for HistoryMsg<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut msgs: Vec<&ScMsg<V>> = self.iter_rev().collect();
        msgs.reverse();
        f.debug_tuple("HistoryMsg").field(&msgs).finish()
    }
}

impl<V: PackingValue> Drop for Link<V> {
    fn drop(&mut self) {
        // Unlink iteratively: the default drop would recurse once per link.
        let mut prev = self.prev.take();
        while let Some(mut link) = prev.and_then(Arc::into_inner) {
            prev = link.prev.take();
        }
    }
}

impl<V: PackingValue> BcastAlgorithm for VcBcastNode<V> {
    type Msg = HistoryMsg<V>;
    type Input = u64; // node weight
    type Output = VcBcastOutput<V>;
    type Config = VcBcastConfig;

    fn init(cfg: &VcBcastConfig, degree: usize, input: &u64) -> Self {
        VcBcastNode {
            subset: ScNode::init(&cfg.sc, degree, &Some(*input)),
            history: HistoryMsg::default(),
            memo: HistoryMap::default(),
            elem_info: Vec::new(),
            in_cover: None,
        }
    }

    fn send(&self, _cfg: &VcBcastConfig, _round: u64) -> HistoryMsg<V> {
        self.history.clone()
    }

    fn receive(
        &mut self,
        cfg: &VcBcastConfig,
        round: u64,
        incoming: &[&HistoryMsg<V>],
    ) -> Option<VcBcastOutput<V>> {
        let total = cfg.sc.total_rounds();
        let t = round - 1; // the §4 round whose receive we can now perform

        if t >= 1 {
            let own = self.history.last().expect("own history has t ≥ 1 messages");
            let mut new_memo: HistoryMap<HistoryMsg<V>, ScNode<V>> = HistoryMap::default();
            let mut elem_msgs: Vec<ScMsg<V>> = Vec::with_capacity(incoming.len());
            // Per distinct history value: the element's round-t broadcast and
            // (at the end) its output. Results are replayed once per
            // *occurrence* — neighbours with identical histories host
            // distinct but identically-behaving elements.
            type Replayed<V> = (ScMsg<V>, Option<(V, bool)>);
            let mut computed: HistoryMap<&HistoryMsg<V>, Replayed<V>> = HistoryMap::default();

            for &h in incoming {
                debug_assert_eq!(h.len(), t, "history length mismatch");
                let (msg, info) = match computed.entry(h) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        // State after t−1 receives: fresh for t = 1, memoized
                        // prefix otherwise.
                        let mut st = if t == 1 {
                            ScNode::<V>::init(&cfg.sc, 2, &None)
                        } else {
                            self.memo
                                .get(&h.prefix())
                                .expect("prefix state memoized last round")
                                .clone()
                        };
                        // The element's §4-round-t broadcast …
                        let msg_t = st.send(&cfg.sc, t);
                        // … and its round-t receive: the sorted pair of its
                        // two endpoint subsets' round-t messages.
                        let theirs = h.last().expect("neighbour history has t ≥ 1 messages");
                        let pair = if own <= theirs { [own, theirs] } else { [theirs, own] };
                        let out = st.receive(&cfg.sc, t, &pair);
                        let info = if t == total {
                            match out {
                                Some(ScOutput::Element { y, saturated }) => Some((y, saturated)),
                                _ => panic!("element must output at §4-round {total}"),
                            }
                        } else {
                            None
                        };
                        new_memo.insert(h.clone(), st);
                        e.insert((msg_t, info))
                    }
                };
                elem_msgs.push(msg.clone());
                if let Some(info) = info {
                    self.elem_info.push(info.clone());
                }
            }
            // Feed s(v) its §4-round-t receive (canonically sorted multiset).
            elem_msgs.sort();
            let refs: Vec<&ScMsg<V>> = elem_msgs.iter().collect();
            let out = self.subset.receive(&cfg.sc, t, &refs);
            if t == total {
                let Some(ScOutput::Subset { in_cover }) = out else {
                    panic!("subset must output at §4-round {total}");
                };
                self.in_cover = Some(in_cover);
            }
            self.memo = new_memo;
        }

        if t < total {
            // Advance s(v): its §4-round-(t+1) broadcast.
            let next = self.subset.send(&cfg.sc, t + 1);
            self.history = self.history.push_interned(next, &cfg.intern);
            None
        } else {
            self.elem_info.sort();
            Some(VcBcastOutput {
                in_cover: self.in_cover.expect("set at t == total"),
                elem_info: std::mem::take(&mut self.elem_info),
            })
        }
    }
}

/// Result of a §5 run on G.
#[derive(Clone, Debug)]
pub struct VcBcastRun<V> {
    /// 2-approximate vertex cover by node id.
    pub cover: Vec<bool>,
    /// Σ y(e) over all edges (each element reported once per endpoint, so
    /// the per-node sums are halved).
    pub dual_value: V,
    /// Whether every simulated element ended saturated (Theorem 2 says yes —
    /// asserted by tests; exposed for the experiment harness).
    pub all_saturated: bool,
    /// Engine instrumentation — this is where the §5 message-size blowup
    /// shows up.
    pub trace: Trace,
}

/// Runs the §5 broadcast-model vertex cover on many independent instances
/// across one pool of `threads` workers, each instance through
/// [`run_vc_broadcast_scratch`]. `results[i]` corresponds to `instances[i]`
/// (bounds per [`VcInstance`]).
pub fn run_vc_broadcast_many<V: PackingValue>(
    instances: &[VcInstance<'_>],
    threads: usize,
) -> Vec<Result<VcBcastRun<V>, SimError>> {
    BatchRunner::new(threads).map(instances, run_vc_broadcast_scratch)
}

/// Runs the §5 broadcast-model vertex cover on one instance under its
/// global bounds (Δ, W), as one part on the calling thread, taking the
/// engine's allocations from and returning them to `scratch` — the one body
/// every §5 entry point (the batch, the service's pipeline,
/// [`run_vc_broadcast`]) runs. Per-node outputs fold into the cover and the
/// dual value.
pub fn run_vc_broadcast_scratch<V: PackingValue>(
    inst: &VcInstance<'_>,
    scratch: &mut EngineScratch<VcBcastNode<V>, Broadcast>,
) -> Result<VcBcastRun<V>, SimError> {
    let cfg = VcBcastConfig::new(inst.delta, inst.max_weight);
    let res = run_engine_scratch::<VcBcastNode<V>, Broadcast>(
        inst.graph,
        &cfg,
        inst.weights,
        cfg.total_rounds(),
        scratch,
    )?;
    let cover = res.outputs.iter().map(|o| o.in_cover).collect();
    let mut double_dual = V::zero();
    let mut all_saturated = true;
    for o in &res.outputs {
        for (y, sat) in &o.elem_info {
            double_dual = double_dual.add(y);
            all_saturated &= *sat;
        }
    }
    let dual_value = double_dual.div(&V::from_u64(2));
    Ok(VcBcastRun { cover, dual_value, all_saturated, trace: res.trace })
}

/// Runs the §5 broadcast-model vertex cover deriving Δ and W from the
/// instance.
pub fn run_vc_broadcast<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
) -> Result<VcBcastRun<V>, SimError> {
    run_vc_broadcast_scratch(&VcInstance::new(g, weights), &mut EngineScratch::new())
}

/// Builds the §5 incidence instance explicitly (for the equivalence tests and
/// the E4 experiment): subsets = nodes of G (in id order, port order of
/// members = port order of G), elements = edges of G.
pub fn incidence_instance(g: &Graph, weights: &[u64]) -> anonet_sim::SetCoverInstance {
    let members: Vec<Vec<usize>> =
        (0..g.n()).map(|v| g.arc_range(v).map(|a| g.edge_of(a)).collect()).collect();
    anonet_sim::SetCoverInstance::new(g.m(), &members, weights.to_vec())
        .expect("incidence instance of a valid graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_bigmath::BigRat;
    use anonet_gen::Rng;
    use anonet_sim::BcastEngine;
    use std::hash::BuildHasher;

    type H = HistoryMsg<BigRat>;

    fn build(msgs: &[ScMsg<BigRat>]) -> H {
        msgs.iter().fold(H::default(), |h, m| h.push(m.clone()))
    }

    /// The messages, oldest first.
    fn to_vec(h: &H) -> Vec<ScMsg<BigRat>> {
        let mut v: Vec<ScMsg<BigRat>> = h.iter_rev().cloned().collect();
        v.reverse();
        v
    }

    fn hash_of(h: &H) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(h)
    }

    fn same_chain(a: &H, b: &H) -> bool {
        match (&a.0, &b.0) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            (None, None) => true,
            _ => false,
        }
    }

    /// A small alphabet, so random histories are often equal or share
    /// long prefixes.
    fn random_msg(rng: &mut Rng) -> ScMsg<BigRat> {
        match rng.below(6) {
            0 => ScMsg::Nil,
            1 => ScMsg::InUyi,
            2 => ScMsg::Y(BigRat::from_u64(rng.below(2))),
            3 => ScMsg::Resid(BigRat::from_u64(2)),
            4 => ScMsg::Col(rng.below(2) as u32),
            _ => ScMsg::Cols(Arc::from([1, 2])),
        }
    }

    /// Histories that extend each other, rebuilt on separate chains, or
    /// fresh: a mix of shared links and equal values on distinct chains.
    fn random_histories(rng: &mut Rng, count: usize) -> Vec<H> {
        let mut pool = vec![H::default()];
        while pool.len() < count {
            let base = pool[rng.index(pool.len())].clone();
            let next = match rng.below(3) {
                0 => base.push(random_msg(rng)),
                1 => build(&to_vec(&base)),
                _ => build(&(0..rng.below(4)).map(|_| random_msg(rng)).collect::<Vec<_>>()),
            };
            pool.push(next);
        }
        pool
    }

    #[test]
    fn equal_values_on_separate_chains_are_equal() {
        let msgs = [ScMsg::Y(BigRat::from_u64(3)), ScMsg::Nil, ScMsg::Cols(Arc::from([0, 4]))];
        let (a, b) = (build(&msgs), build(&msgs));
        assert!(!same_chain(&a, &b));
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, a.prefix());
        assert_eq!(a.prefix(), build(&msgs[..2]));
        assert_eq!(H::default(), build(&[]));
    }

    #[test]
    fn order_is_a_total_order_on_values() {
        let mut rng = Rng::new(0x5eed);
        let hs = random_histories(&mut rng, 48);
        let values: Vec<Vec<ScMsg<BigRat>>> = hs.iter().map(to_vec).collect();
        for (a, va) in hs.iter().zip(&values) {
            for (b, vb) in hs.iter().zip(&values) {
                let ab = a.cmp(b);
                assert_eq!(ab, b.cmp(a).reverse(), "antisymmetry");
                assert_eq!(ab == Ordering::Equal, va == vb, "equality is value equality");
                if ab == Ordering::Equal {
                    assert_eq!(hash_of(a), hash_of(b));
                }
                for c in &hs {
                    if ab != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                        assert_ne!(a.cmp(c), Ordering::Greater, "transitivity");
                    }
                }
            }
        }
    }

    #[test]
    fn equal_digests_fall_back_to_newest_first_messages() {
        // Forge a digest collision: the order must still separate values,
        // comparing the newest differing message.
        let forge = |h: H| {
            let link = Arc::into_inner(h.0.unwrap()).unwrap();
            let (msg, prev, len, bits) = (link.msg.clone(), link.prev.clone(), link.len, link.bits);
            HistoryMsg(Some(Arc::new(Link { msg, prev, len, bits, digest: 7 })))
        };
        let a = forge(build(&[ScMsg::Col(1), ScMsg::Nil]));
        let b = forge(build(&[ScMsg::Col(2), ScMsg::Nil]));
        let c = forge(build(&[ScMsg::Col(0), ScMsg::InUyi]));
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(b.cmp(&c), Ordering::Less, "the newest message decides first");
        assert_ne!(a, b);
        assert_eq!(a, forge(build(&[ScMsg::Col(1), ScMsg::Nil])));
    }

    #[test]
    fn approx_bits_match_the_whole_sequence() {
        let mut rng = Rng::new(0xb175);
        for h in random_histories(&mut rng, 64) {
            let old_way = 64 + to_vec(&h).iter().map(MessageSize::approx_bits).sum::<u64>();
            assert_eq!(h.approx_bits(), old_way);
        }
        assert_eq!(H::default().approx_bits(), 64);
    }

    #[test]
    fn each_send_extends_the_previous_one() {
        // Two nodes joined by one edge, stepped by hand: every round's
        // history is last round's chain plus one link.
        let cfg = VcBcastConfig::new(1, 5);
        let mut nodes =
            [VcBcastNode::<BigRat>::init(&cfg, 1, &2), VcBcastNode::<BigRat>::init(&cfg, 1, &5)];
        let mut last: Option<[H; 2]> = None;
        let mut outputs = Vec::new();
        for round in 1..=cfg.total_rounds() {
            let sent = [nodes[0].send(&cfg, round), nodes[1].send(&cfg, round)];
            if let Some(prev) = &last {
                for (s, p) in sent.iter().zip(prev) {
                    assert_eq!(s.len(), round - 1);
                    assert!(same_chain(&s.prefix(), p), "round {round}");
                }
            }
            outputs.push(nodes[0].receive(&cfg, round, &[&sent[1]]));
            outputs.push(nodes[1].receive(&cfg, round, &[&sent[0]]));
            last = Some(sent);
        }
        let done: Vec<_> = outputs.into_iter().flatten().collect();
        assert_eq!(done.len(), 2, "both nodes halt in the last round");
        assert!(done.iter().all(|o| o.elem_info == vec![(BigRat::from_u64(2), true)]));
    }

    #[test]
    fn interned_pushes_of_equal_messages_share_links() {
        let intern = Interner::default();
        let msgs = [ScMsg::Y(BigRat::from_u64(3)), ScMsg::Nil, ScMsg::Cols(Arc::from([0, 4]))];
        let interned = |msgs: &[ScMsg<BigRat>]| {
            msgs.iter().fold(H::default(), |h, m| h.push_interned(m.clone(), &intern))
        };
        let (a, b) = (interned(&msgs), interned(&msgs));
        assert!(same_chain(&a, &b), "equal histories share one link");
        assert!(same_chain(&a.prefix(), &interned(&msgs[..2])));
        assert_eq!(a, build(&msgs), "interning keeps the value");
        let c = interned(&[ScMsg::Y(BigRat::from_u64(3)), ScMsg::InUyi]);
        assert_ne!(a.prefix(), c);
        assert!(same_chain(&a.prefix().prefix(), &c.prefix()), "a shared prefix is shared");
    }

    #[test]
    fn equal_histories_of_a_petersen_run_share_links() {
        let g = anonet_gen::family::petersen();
        let w: Vec<u64> = (0..10).map(|i| i % 3 + 1).collect();
        let cfg = VcBcastConfig::new(g.max_degree(), 3);
        let mut engine = BcastEngine::<VcBcastNode<BigRat>>::new(&g, &cfg, &w, None).unwrap();
        let mut equal_pairs = 0;
        for _ in 0..40 {
            engine.step();
            let hs: Vec<&H> = engine.states().iter().map(|s| &s.history).collect();
            for (i, a) in hs.iter().enumerate() {
                for b in &hs[i + 1..] {
                    if to_vec(a) == to_vec(b) {
                        assert!(same_chain(a, b), "round {}: equal histories", engine.round());
                        equal_pairs += 1;
                    }
                }
            }
        }
        assert!(equal_pairs > 0, "the weights repeat, so some histories are equal");
    }

    #[test]
    fn long_chains_compare_and_drop_without_recursion() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let long = (0..1_000_000).fold(H::default(), |h, _| h.push(ScMsg::Nil));
                assert_eq!(long.len(), 1_000_000);
                drop(long);
                // Equal values on separate chains: the comparison walks
                // every link.
                let chain = |n: u64| (0..n).fold(H::default(), |h, i| h.push(ScMsg::Col(i as u32)));
                let (a, b) = (chain(200_000), chain(200_000));
                assert_eq!(a, b);
                assert_eq!(a.cmp(&b.prefix()), Ordering::Greater);
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
