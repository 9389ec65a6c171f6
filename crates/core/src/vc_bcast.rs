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
//! Implementation note: element states are memoized by history *value*
//! (`HashMap<Vec<ScMsg>, state>`), which is broadcast-legal — the state is a
//! pure function of the unordered pair of endpoint histories — and avoids
//! the O(T) re-simulation per edge per round. Every lookup hashes a whole
//! history, so the tables use `HistoryHasher`, a seedless multiply-rotate
//! hash, instead of std's SipHash.
//!
//! Determinism note: the memo tables are keyed lookups only — nothing ever
//! *iterates* a `HashMap` here. Outputs (`elem_info`, message order) are
//! produced by walking `incoming` in port order and sorting collected
//! multisets, so no hash order reaches a `Trace` or an output. The
//! `anonet-lint` `determinism` check enforces this; the waivers below each
//! assert membership-only use.

use crate::sc_bcast::{ScConfig, ScMsg, ScNode, ScOutput};
use crate::vc_pn::VcInstance;
use anonet_bigmath::PackingValue;
use anonet_sim::{
    run_bcast_many, run_bcast_threads, BcastAlgorithm, BcastJob, Graph, MessageSize, RunResult,
    SimError, Trace,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A seedless multiply-rotate [`Hasher`] (the FxHash word step) for the
/// history-keyed memo tables: each word costs a rotate, a xor and a
/// multiply, and the same history always hashes the same. Without a seed,
/// a client could pick weights whose histories collide; a table holds at
/// most one entry per port (≤ Δ), so that costs at most Δ comparisons per
/// lookup.
#[derive(Clone, Copy, Default)]
struct HistoryHasher(u64);

impl HistoryHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for HistoryHasher {
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

/// The memo tables' map type.
type HistoryMap<K, T> = HashMap<K, T, BuildHasherDefault<HistoryHasher>>; // lint: allow(determinism) — membership-only memo tables, never iterated

/// Global configuration: the §4 configuration of the derived instance
/// (`f = 2`, `k = Δ`).
#[derive(Clone, Debug)]
pub struct VcBcastConfig {
    /// Configuration of the simulated §4 run.
    pub sc: ScConfig,
}

impl VcBcastConfig {
    /// Builds the configuration for bounds Δ and W.
    pub fn new(delta: usize, max_weight: u64) -> VcBcastConfig {
        VcBcastConfig { sc: ScConfig::new(2, delta.max(1), max_weight) }
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
    history: Vec<ScMsg<V>>,
    /// Element states after §4-round (i−1) receives, keyed by the
    /// neighbour's history value.
    memo: HistoryMap<Vec<ScMsg<V>>, ScNode<V>>,
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

/// History message: all §4 messages the sender's subset node has broadcast.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct HistoryMsg<V: PackingValue>(pub Vec<ScMsg<V>>);

impl<V: PackingValue> MessageSize for HistoryMsg<V> {
    fn approx_bits(&self) -> u64 {
        64 + self.0.iter().map(MessageSize::approx_bits).sum::<u64>()
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
            history: Vec::new(),
            memo: HistoryMap::default(),
            elem_info: Vec::new(),
            in_cover: None,
        }
    }

    fn send(&self, _cfg: &VcBcastConfig, _round: u64) -> HistoryMsg<V> {
        HistoryMsg(self.history.clone())
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
            let mut new_memo: HistoryMap<Vec<ScMsg<V>>, ScNode<V>> = HistoryMap::default();
            let mut elem_msgs: Vec<ScMsg<V>> = Vec::with_capacity(incoming.len());
            // Per distinct history value: the element's round-t broadcast and
            // (at the end) its output. Results are replayed once per
            // *occurrence* — neighbours with identical histories host
            // distinct but identically-behaving elements.
            type Replayed<V> = (ScMsg<V>, Option<(V, bool)>);
            let mut computed: HistoryMap<&Vec<ScMsg<V>>, Replayed<V>> = HistoryMap::default();

            for h in incoming.iter().map(|m| &m.0) {
                debug_assert_eq!(h.len() as u64, t, "history length mismatch");
                let (msg, info) = match computed.entry(h) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        // State after t−1 receives: fresh for t = 1, memoized
                        // prefix otherwise.
                        let mut st = if t == 1 {
                            ScNode::<V>::init(&cfg.sc, 2, &None)
                        } else {
                            self.memo
                                .get(&h[..(t - 1) as usize])
                                .expect("prefix state memoized last round")
                                .clone()
                        };
                        // The element's §4-round-t broadcast …
                        let msg_t = st.send(&cfg.sc, t);
                        // … and its round-t receive: the sorted pair of its
                        // two endpoint subsets' round-t messages.
                        let own = &self.history[(t - 1) as usize];
                        let theirs = &h[(t - 1) as usize];
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
            self.history.push(next);
            None
        } else {
            self.elem_info.sort();
            Some(VcBcastOutput {
                in_cover: self.in_cover.expect("set at t == total"),
                elem_info: self.elem_info.clone(),
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

/// Runs the §5 broadcast-model vertex cover with explicit bounds (Δ, W).
pub fn run_vc_broadcast_with<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    delta: usize,
    max_weight: u64,
    threads: usize,
) -> Result<VcBcastRun<V>, SimError> {
    let cfg = VcBcastConfig::new(delta, max_weight);
    let res: RunResult<VcBcastOutput<V>> =
        run_bcast_threads::<VcBcastNode<V>>(g, &cfg, weights, cfg.total_rounds(), threads)?;
    Ok(assemble_vc_bcast_run(res))
}

/// Folds per-node outputs into the cover and the dual value.
fn assemble_vc_bcast_run<V: PackingValue>(res: RunResult<VcBcastOutput<V>>) -> VcBcastRun<V> {
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
    VcBcastRun { cover, dual_value, all_saturated, trace: res.trace }
}

/// Runs the §5 broadcast-model vertex cover on many independent instances
/// across one pool of `threads` workers. `results[i]` corresponds to
/// `instances[i]` (bounds per [`VcInstance`]).
pub fn run_vc_broadcast_many<V: PackingValue>(
    instances: &[VcInstance<'_>],
    threads: usize,
) -> Vec<Result<VcBcastRun<V>, SimError>> {
    let cfgs: Vec<VcBcastConfig> =
        instances.iter().map(|i| VcBcastConfig::new(i.delta, i.max_weight)).collect();
    let jobs: Vec<BcastJob<'_, VcBcastNode<V>>> = instances
        .iter()
        .zip(&cfgs)
        .map(|(i, cfg)| BcastJob::new(i.graph, cfg, i.weights, cfg.total_rounds()))
        .collect();
    run_bcast_many(&jobs, threads).into_iter().map(|res| res.map(assemble_vc_bcast_run)).collect()
}

/// Runs the §5 broadcast-model vertex cover deriving Δ and W from the
/// instance.
pub fn run_vc_broadcast<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
) -> Result<VcBcastRun<V>, SimError> {
    let delta = g.max_degree();
    let w = weights.iter().copied().max().unwrap_or(1).max(1);
    run_vc_broadcast_with(g, weights, delta, w, 1)
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
