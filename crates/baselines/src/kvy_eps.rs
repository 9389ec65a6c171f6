//! The (2+ε)-approximation primal–dual baseline (Table 1 rows \[16\]/\[21\]+\[14\]
//! technique family): anonymous, weighted, with running time growing as the
//! weights and 1/ε grow — the "safe algorithm" of Papadimitriou–Yannakakis /
//! Khuller–Vishkin–Young adapted to synchronous message passing.
//!
//! Every round each *active* node offers `r(v)/deg_act(v)` to its active
//! edges and each active edge accepts the smaller offer. A node freezes once
//! `y[v] ≥ (1−ε)·w_v` and joins the cover; an edge is done when an endpoint
//! froze. Cover weight ≤ Σ_C y(v)/(1−ε) ≤ (2/(1−ε))·OPT.
//!
//! Unlike the paper's §3, termination is data-dependent — the head-to-head
//! experiment (E1) shows the round count climbing with W while §3 stays at
//! its fixed O(Δ + log\*W) schedule.

use anonet_bigmath::PackingValue;
use anonet_core::packing::EdgePacking;
use anonet_sim::{
    run_engine_scratch, EngineScratch, Graph, MessageSize, PnAlgorithm, PortNumbering, SimError,
    Trace,
};

/// Global configuration.
#[derive(Clone, Debug)]
pub struct KvyConfig {
    /// The slack ε as a rational `eps_num / eps_den` (0 < ε < 1).
    pub eps_num: u64,
    /// Denominator of ε.
    pub eps_den: u64,
}

/// Wire messages: offers and freeze notifications.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum KvyMsg<V> {
    /// No content.
    #[default]
    Nil,
    /// My offer for this round (None once frozen), and whether I froze.
    Offer(Option<V>, bool),
}

impl<V: PackingValue> MessageSize for KvyMsg<V> {
    fn approx_bits(&self) -> u64 {
        match self {
            KvyMsg::Nil => 0,
            KvyMsg::Offer(o, _) => 2 + o.as_ref().map_or(0, |v| v.wire_bits()),
        }
    }
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct KvyNode<V> {
    w: V,
    y_total: V,
    y: Vec<V>,
    threshold: V, // (1-ε)·w
    frozen: bool,
    /// Round at which this node froze (it halts one round later, after the
    /// freeze flag has been delivered to every neighbour).
    frozen_at: Option<u64>,
    nb_frozen: Vec<bool>,
    /// This round's offer `r(v)/deg_act(v)` (`None` once frozen or with no
    /// active edge), computed once when the round's state is final — by
    /// `init` and at the end of every `receive` — and read by both `send`
    /// and `receive`.
    offer: Option<V>,
}

impl<V: PackingValue> KvyNode<V> {
    /// Whether port `p`'s edge is active: neither endpoint has frozen.
    fn port_active(&self, p: usize) -> bool {
        !self.frozen && !self.nb_frozen[p]
    }

    /// The offer the current state makes on each active edge.
    fn next_offer(&self) -> Option<V> {
        let deg_act = if self.frozen { 0 } else { self.nb_frozen.iter().filter(|&&f| !f).count() };
        (deg_act > 0).then(|| self.w.sub(&self.y_total).div(&V::from_u64(deg_act as u64)))
    }
}

impl<V: PackingValue> PnAlgorithm for KvyNode<V> {
    type Msg = KvyMsg<V>;
    type Input = u64;
    type Output = KvyOutput<V>;
    type Config = KvyConfig;

    fn init(cfg: &KvyConfig, degree: usize, input: &u64) -> Self {
        let w = V::from_u64(*input);
        let threshold = freeze_threshold(&w, cfg.eps_num, cfg.eps_den);
        let mut node = KvyNode {
            w,
            y_total: V::zero(),
            y: vec![V::zero(); degree],
            threshold,
            frozen: false,
            frozen_at: None,
            nb_frozen: vec![false; degree],
            offer: None,
        };
        node.offer = node.next_offer();
        node
    }

    fn send(&self, _cfg: &KvyConfig, _round: u64, out: &mut [KvyMsg<V>]) {
        for (p, m) in out.iter_mut().enumerate() {
            let o = if self.port_active(p) { self.offer.clone() } else { None };
            *m = KvyMsg::Offer(o, self.frozen);
        }
    }

    /// Every port carries the same message unless some, but not all, of
    /// the node's edges are still active.
    fn send_uniform(&self, _cfg: &KvyConfig, _round: u64) -> Option<KvyMsg<V>> {
        if self.frozen || self.nb_frozen.iter().all(|&f| f) {
            return Some(KvyMsg::Offer(None, self.frozen));
        }
        (!self.nb_frozen.contains(&true)).then(|| KvyMsg::Offer(self.offer.clone(), false))
    }

    fn receive(
        &mut self,
        _cfg: &KvyConfig,
        round: u64,
        incoming: &[&KvyMsg<V>],
    ) -> Option<KvyOutput<V>> {
        let my_offer = self.offer.take();
        for (p, m) in incoming.iter().enumerate() {
            // Nil comes only from halted neighbours; a neighbour halts only
            // when frozen or when all *its* neighbours (including us) froze —
            // either way the edge is resolved, so treat it as a frozen flag.
            let (their_offer, their_frozen) = match m {
                KvyMsg::Offer(o, f) => (o.as_ref(), *f),
                KvyMsg::Nil => (None, true),
            };
            if let (Some(mine), Some(theirs), false) =
                (my_offer.as_ref(), their_offer, self.nb_frozen[p])
            {
                if self.port_active(p) {
                    let inc = mine.min(theirs).clone();
                    self.y[p] = self.y[p].add(&inc);
                    self.y_total = self.y_total.add(&inc);
                }
            }
            self.nb_frozen[p] = self.nb_frozen[p] || their_frozen;
        }
        if !self.frozen && self.y_total >= self.threshold {
            self.frozen = true;
            self.frozen_at = Some(round);
        }
        // Halt when (a) frozen and the flag has been delivered (one round
        // after freezing), or (b) every incident edge is resolved by a
        // frozen neighbour.
        let done = match self.frozen_at {
            Some(r) => round > r,
            None => (0..self.y.len()).all(|p| self.nb_frozen[p]),
        };
        if done {
            return Some(KvyOutput { in_cover: self.frozen, y: self.y.clone() });
        }
        self.offer = self.next_offer();
        None
    }
}

/// Per-node output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvyOutput<V> {
    /// Whether the node joined the cover (froze at (1−ε)-saturation).
    pub in_cover: bool,
    /// Final `y(e)` per port.
    pub y: Vec<V>,
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct KvyRun<V> {
    /// The (feasible, (1−ε)-maximal) edge packing.
    pub packing: EdgePacking<V>,
    /// The (2/(1−ε))-approximate cover.
    pub cover: Vec<bool>,
    /// Engine instrumentation (data-dependent round count!).
    pub trace: Trace,
}

/// The freeze threshold `(1−ε)·w` for ε = `eps_num/eps_den`, computed as
/// `w·(den − num)/den` with one division.
pub(crate) fn freeze_threshold<V: PackingValue>(w: &V, eps_num: u64, eps_den: u64) -> V {
    w.mul(&V::from_u64(eps_den - eps_num)).div(&V::from_u64(eps_den))
}

/// Runs the (2+ε) primal–dual baseline.
pub fn run_kvy<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    eps_num: u64,
    eps_den: u64,
    max_rounds: u64,
) -> Result<KvyRun<V>, SimError> {
    run_kvy_scratch(g, weights, eps_num, eps_den, max_rounds, &mut EngineScratch::new())
}

/// [`run_kvy`] reusing engine allocations across calls — the
/// repeated-short-run entry point (results bit-identical to [`run_kvy`]).
pub fn run_kvy_scratch<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    eps_num: u64,
    eps_den: u64,
    max_rounds: u64,
    scratch: &mut EngineScratch<KvyNode<V>, PortNumbering>,
) -> Result<KvyRun<V>, SimError> {
    assert!(eps_num >= 1 && eps_num < eps_den, "need 0 < ε < 1");
    let cfg = KvyConfig { eps_num, eps_den };
    let res =
        run_engine_scratch::<KvyNode<V>, PortNumbering>(g, &cfg, weights, max_rounds, scratch)?;
    let packing = EdgePacking::from_ports(g, res.outputs.iter().map(|o| &o.y[..]));
    let cover = res.outputs.iter().map(|o| o.in_cover).collect();
    Ok(KvyRun { packing, cover, trace: res.trace })
}
