//! A Bar-Yehuda–Censor-Hillel–Schwartzman-style (2+ε)-approximation
//! (PAPERS.md: "(2+ε)-approximation in O(log Δ/ε·log log Δ) rounds"):
//! deterministic, anonymous, weighted, primal–dual with **bulk geometric
//! raises** instead of KVY's per-round offer splitting.
//!
//! Every round each active node announces its *bid level* `b(v)` — the
//! smallest `b` with `deg_act(v)·W/2^b ≤ r(v)`, i.e. the coarsest raise unit
//! it can afford on **all** of its active edges simultaneously — plus its
//! freeze flag. Each active edge then raises `y(e)` by `W/2^max(b(u),b(v))`
//! (the finer of the two units): both endpoints compute the same amount from
//! the exchanged levels, and each can afford it because the chosen unit is
//! no coarser than its own. A node freezes at `y[v] ≥ (1−ε)·w_v` and joins
//! the cover, so the Bar-Yehuda–Even bound gives
//! `w(C) ≤ Σ_C y(v)/(1−ε) ≤ (2/(1−ε))·Σy`.
//!
//! The bulk raise is what distinguishes the mechanism from [`crate::kvy_eps`]:
//! a node whose own level dominates its neighbourhood raises *every* active
//! edge by a unit exceeding `r(v)/(2·deg_act(v))`, halving its residual in
//! one round — the geometric-level structure behind the polylogarithmic
//! round bound of the BCHS paper. The per-run certificate (checked by
//! `certify_vertex_cover_rational`) is sound regardless of round count, and
//! termination is unconditional: while an edge is active both residuals
//! exceed `ε·w ≥ ε`, so every raise exceeds `ε/(2Δ)` and bounded loads kill
//! every edge in finitely many rounds.

use crate::kvy_eps::freeze_threshold;
use anonet_bigmath::PackingValue;
use anonet_core::packing::EdgePacking;
use anonet_sim::{
    run_engine_scratch, EngineScratch, Graph, MessageSize, PnAlgorithm, PortNumbering, SimError,
    Trace,
};

/// Defensive ceiling on the bid level. For in-contract inputs
/// `2^b ≤ 2·Δ·W·den/num`, so honest levels stay far below it.
const MAX_LEVEL: u32 = 200;

/// Global configuration.
#[derive(Clone, Debug)]
pub struct BchsConfig {
    /// The slack ε as a rational `eps_num / eps_den` (0 < ε < 1).
    pub eps_num: u64,
    /// Denominator of ε.
    pub eps_den: u64,
    /// Global weight bound W ≥ max_v w_v — the level-0 raise unit.
    pub max_weight: u64,
}

/// Wire messages: bid levels and freeze notifications.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum BchsMsg {
    /// No content.
    #[default]
    Nil,
    /// My bid level for this round (`None` once frozen or with no active
    /// edges), and whether I froze.
    Level(Option<u32>, bool),
}

impl MessageSize for BchsMsg {
    fn approx_bits(&self) -> u64 {
        match self {
            BchsMsg::Nil => 0,
            // 2 tag/flag bits + the level (honest levels fit 8 bits).
            BchsMsg::Level(l, _) => 2 + l.map_or(0, |_| 8),
        }
    }
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct BchsNode<V> {
    w: V,
    y_total: V,
    y: Vec<V>,
    threshold: V, // (1-ε)·w
    max_weight: u64,
    frozen: bool,
    /// Round at which this node froze (it halts one round later, after the
    /// freeze flag has been delivered to every neighbour).
    frozen_at: Option<u64>,
    nb_frozen: Vec<bool>,
    /// This round's bid level (`None` once frozen or with no active edge),
    /// computed once when the round's state is final — by `init` and at the
    /// end of every `receive` — and read by both `send` and `receive`.
    level: Option<u32>,
}

impl<V: PackingValue> BchsNode<V> {
    /// Whether port `p`'s edge is active: neither endpoint has frozen.
    fn port_active(&self, p: usize) -> bool {
        !self.frozen && !self.nb_frozen[p]
    }

    /// The bid level the current state announces on each active edge.
    fn next_level(&self) -> Option<u32> {
        let deg_act = if self.frozen { 0 } else { self.nb_frozen.iter().filter(|&&f| !f).count() };
        (deg_act > 0).then(|| self.bid_level(deg_act as u64))
    }

    /// The raise unit of level `b`: `W/2^b`, one exact division in `V`.
    fn unit(&self, b: u32) -> V {
        V::from_u64(self.max_weight.max(1)).div(&pow2(b))
    }

    /// The smallest level whose unit this node can afford on every active
    /// edge at once: `min { b : deg_act·W/2^b ≤ r(v) }`, capped at
    /// `MAX_LEVEL`. Minimality is the progress invariant — for `b > 0`,
    /// `W/2^b > r(v)/(2·deg_act)`.
    fn bid_level(&self, deg_act: u64) -> u32 {
        let r = self.w.sub(&self.y_total);
        if deg_act == 0 {
            // Level 0 already asks for nothing: affordable unless r < 0.
            return if r < V::zero() { MAX_LEVEL } else { 0 };
        }
        if !r.is_positive() {
            return MAX_LEVEL; // a positive demand never fits r ≤ 0
        }
        // deg·W/2^b ≤ r  ⇔  deg·W/r ≤ 2^b.
        let q = V::from_u64(deg_act).mul(&V::from_u64(self.max_weight.max(1))).div(&r);
        least_level(&q)
    }
}

/// `min { b : q ≤ 2^b }`, capped at `MAX_LEVEL`: a binary search over the
/// levels whose power of two is a single `u64`, a doubling walk beyond.
fn least_level<V: PackingValue>(q: &V) -> u32 {
    if *q > pow2(63) {
        let (mut b, mut p) = (64, pow2::<V>(64));
        while b < MAX_LEVEL && *q > p {
            p = p.add(&p);
            b += 1;
        }
        return b;
    }
    let (mut lo, mut hi) = (0u32, 63u32);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if *q <= pow2(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `2^b` exactly in `V` (one `u64` embedding for `b < 64`, a product beyond).
fn pow2<V: PackingValue>(b: u32) -> V {
    if b < 64 {
        V::from_u64(1 << b)
    } else {
        V::from_u64(1 << 63).mul(&pow2(b - 63))
    }
}

impl<V: PackingValue> PnAlgorithm for BchsNode<V> {
    type Msg = BchsMsg;
    type Input = u64;
    type Output = BchsOutput<V>;
    type Config = BchsConfig;

    fn init(cfg: &BchsConfig, degree: usize, input: &u64) -> Self {
        assert!(*input <= cfg.max_weight, "weight exceeds the declared bound W");
        let w = V::from_u64(*input);
        let threshold = freeze_threshold(&w, cfg.eps_num, cfg.eps_den);
        let mut node = BchsNode {
            w,
            y_total: V::zero(),
            y: vec![V::zero(); degree],
            threshold,
            max_weight: cfg.max_weight,
            frozen: false,
            frozen_at: None,
            nb_frozen: vec![false; degree],
            level: None,
        };
        node.level = node.next_level();
        node
    }

    fn send(&self, _cfg: &BchsConfig, _round: u64, out: &mut [BchsMsg]) {
        for (p, m) in out.iter_mut().enumerate() {
            let l = if self.port_active(p) { self.level } else { None };
            *m = BchsMsg::Level(l, self.frozen);
        }
    }

    /// Every port carries the same message unless some, but not all, of
    /// the node's edges are still active.
    fn send_uniform(&self, _cfg: &BchsConfig, _round: u64) -> Option<BchsMsg> {
        if self.frozen || self.nb_frozen.iter().all(|&f| f) {
            return Some(BchsMsg::Level(None, self.frozen));
        }
        (!self.nb_frozen.contains(&true)).then_some(BchsMsg::Level(self.level, false))
    }

    fn receive(
        &mut self,
        _cfg: &BchsConfig,
        round: u64,
        incoming: &[&BchsMsg],
    ) -> Option<BchsOutput<V>> {
        let my_level = self.level;
        for (p, m) in incoming.iter().enumerate() {
            // Nil comes only from halted neighbours; a neighbour halts only
            // when frozen or when all *its* neighbours (including us) froze —
            // either way the edge is resolved, so treat it as a frozen flag.
            let (their_level, their_frozen) = match m {
                BchsMsg::Level(l, f) => (*l, *f),
                BchsMsg::Nil => (None, true),
            };
            if let (Some(mine), Some(theirs), false) = (my_level, their_level, self.nb_frozen[p]) {
                if self.port_active(p) {
                    // Both endpoints compute W/2^max(b_u,b_v) from the
                    // exchanged levels — symmetric, and affordable by each
                    // because the unit is no coarser than its own bid.
                    let inc = self.unit(mine.max(theirs));
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
            return Some(BchsOutput { in_cover: self.frozen, y: self.y.clone() });
        }
        self.level = self.next_level();
        None
    }
}

/// Per-node output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BchsOutput<V> {
    /// Whether the node joined the cover (froze at (1−ε)-saturation).
    pub in_cover: bool,
    /// Final `y(e)` per port.
    pub y: Vec<V>,
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct BchsRun<V> {
    /// The feasible edge packing accumulated by the bulk raises.
    pub packing: EdgePacking<V>,
    /// The (2/(1−ε))-approximate cover (the frozen set).
    pub cover: Vec<bool>,
    /// Engine instrumentation (data-dependent round count).
    pub trace: Trace,
}

/// Runs the BCHS-style bulk-raise primal–dual baseline.
pub fn run_bchs<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    eps_num: u64,
    eps_den: u64,
    max_rounds: u64,
) -> Result<BchsRun<V>, SimError> {
    run_bchs_scratch(g, weights, eps_num, eps_den, max_rounds, &mut EngineScratch::new())
}

/// [`run_bchs`] reusing engine allocations across calls — the
/// repeated-short-run entry point (results bit-identical to [`run_bchs`]).
pub fn run_bchs_scratch<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    eps_num: u64,
    eps_den: u64,
    max_rounds: u64,
    scratch: &mut EngineScratch<BchsNode<V>, PortNumbering>,
) -> Result<BchsRun<V>, SimError> {
    assert!(eps_num >= 1 && eps_num < eps_den, "need 0 < ε < 1");
    let max_weight = weights.iter().copied().max().unwrap_or(1).max(1);
    let cfg = BchsConfig { eps_num, eps_den, max_weight };
    let res =
        run_engine_scratch::<BchsNode<V>, PortNumbering>(g, &cfg, weights, max_rounds, scratch)?;
    let packing = EdgePacking::from_ports(g, res.outputs.iter().map(|o| &o.y[..]));
    let cover = res.outputs.iter().map(|o| o.in_cover).collect();
    Ok(BchsRun { packing, cover, trace: res.trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_bigmath::BigRat;
    use anonet_core::certify::certify_vertex_cover_rational;
    use anonet_exact::{is_vertex_cover, min_weight_vertex_cover};
    use anonet_gen::family;

    fn check(g: &Graph, weights: &[u64]) {
        // ε = 1/4 ⇒ factor 2/(1−ε) = 8/3.
        let run = run_bchs::<BigRat>(g, weights, 1, 4, 1_000_000).unwrap();
        assert!(is_vertex_cover(g, &run.cover), "must cover all edges");
        assert!(run.packing.is_feasible(g, weights), "packing must stay feasible");
        let cert = certify_vertex_cover_rational(g, weights, &run.packing, &run.cover, 8, 3)
            .expect("the (2+ε) certificate must verify");
        // And the bound really holds against the exact optimum.
        let opt = min_weight_vertex_cover(g, weights).weight;
        assert!(
            3 * cert.cover_weight <= 8 * opt,
            "w(C) = {} exceeds (8/3)·OPT with OPT = {opt}",
            cert.cover_weight
        );
    }

    #[test]
    fn unit_weight_families() {
        for g in [
            family::path(9),
            family::cycle(8),
            family::cycle(9),
            family::star(6),
            family::grid(4, 4),
            family::petersen(),
            family::complete(6),
        ] {
            let w = vec![1u64; g.n()];
            check(&g, &w);
        }
    }

    #[test]
    fn weighted_families() {
        for (i, g) in [family::path(8), family::star(7), family::grid(3, 4), family::frucht()]
            .iter()
            .enumerate()
        {
            // Deterministic spread of weights across two orders of magnitude.
            let w: Vec<u64> =
                (0..g.n()).map(|v| 1 + ((v as u64 * 37 + i as u64 * 13) % 97)).collect();
            check(g, &w);
        }
    }

    #[test]
    fn random_graphs() {
        use anonet_gen::family::gnp_capped;
        for seed in 0..10u64 {
            let g = gnp_capped(16, 0.3, 5, seed);
            let w: Vec<u64> = (0..g.n()).map(|v| 1 + (v as u64 * 31 + seed) % 50).collect();
            check(&g, &w);
        }
    }

    #[test]
    fn single_edge_freezes_fast() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let run = run_bchs::<BigRat>(&g, &[1, 1], 1, 4, 64).unwrap();
        // Level 0 unit is W = 1 > r ⇒ level 1 unit 1/2 raises both to 1/2,
        // then 3/4 ≥ (1−ε)·w: both freeze within a handful of rounds.
        assert_eq!(run.cover, vec![true, true]);
        assert!(run.trace.rounds <= 8, "bulk raises must converge fast, took {}", run.trace.rounds);
    }

    #[test]
    fn rounds_are_invariant_under_weight_scaling() {
        // The distinctive property of the geometric bid levels: scaling
        // every weight by 2^s scales W, residuals, and units alike, so the
        // levels — and with them the whole run — are unchanged. KVY's
        // absolute offers have no such invariance (its round count is what
        // grows with W in experiment E1).
        let g = family::grid(4, 4);
        let mut rounds = Vec::new();
        for shift in [0u32, 10, 20, 30] {
            let w: Vec<u64> = (0..g.n()).map(|v| (1 + v as u64 % 5) << shift).collect();
            let run = run_bchs::<BigRat>(&g, &w, 1, 4, 10_000).unwrap();
            rounds.push(run.trace.rounds);
        }
        assert!(rounds.iter().all(|&r| r == rounds[0]), "levels are scale-free: {rounds:?}");
    }

    /// The per-level loops `unit`/`bid_level` ran before the closed forms.
    fn loop_unit<V: PackingValue>(w: u64, b: u32) -> V {
        let mut u = V::from_u64(w.max(1));
        for _ in 0..b {
            u = u.div(&V::from_u64(2));
        }
        u
    }

    fn loop_bid_level<V: PackingValue>(deg: u64, w: u64, r: &V) -> u32 {
        let deg = V::from_u64(deg);
        let mut u = V::from_u64(w.max(1));
        let mut b = 0u32;
        while deg.mul(&u) > *r && b < MAX_LEVEL {
            u = u.div(&V::from_u64(2));
            b += 1;
        }
        b
    }

    fn closed_forms_match_loops<V: PackingValue>() {
        let node = |w: u64, r: V| BchsNode::<V> {
            w: V::from_u64(w),
            y_total: V::from_u64(w).sub(&r),
            y: Vec::new(),
            threshold: V::zero(),
            max_weight: w,
            frozen: false,
            frozen_at: None,
            nb_frozen: Vec::new(),
            level: None,
        };
        let tiny = |k: u32| V::one().div(&pow2(k)); // 2^-k
        let mut residuals: Vec<V> = vec![V::zero(), V::zero().sub(&V::one()), tiny(3)];
        for (n, d) in [(1u64, 1u64), (3, 4), (5, 1), (7, 3), (1 << 20, 1), (1 << 33, 3)] {
            residuals.push(V::from_u64(n).div(&V::from_u64(d)));
        }
        // Residuals small enough to need levels ≥ 64, and past MAX_LEVEL.
        for k in [40u32, 61, 62, 63, 64, 65, 100, 150, 190, 230] {
            residuals.push(tiny(k));
            residuals.push(V::from_u64(3).mul(&tiny(k)));
        }
        let mut high_levels = 0;
        for w in [1u64, 2, 3, 64, 1000, 1 << 31, (1 << 32) - 1, 1 << 32] {
            for deg in [0u64, 1, 2, 3, 4, 7, 16] {
                for r in &residuals {
                    let want = loop_bid_level(deg, w, r);
                    assert_eq!(node(w, r.clone()).bid_level(deg), want, "deg {deg}, W {w}, r {r}");
                    high_levels += usize::from(want >= 64);
                }
            }
            let n = node(w, V::one());
            for b in [0u32, 1, 2, 17, 31, 32, 33, 62, 63, 64, 65, 127, 128, 199, 200] {
                assert_eq!(n.unit(b), loop_unit::<V>(w, b), "W {w}, b {b}");
            }
        }
        assert!(high_levels > 0, "the sweep must reach levels ≥ 64");
    }

    #[test]
    fn closed_form_levels_and_units_match_the_loops() {
        closed_forms_match_loops::<BigRat>();
        closed_forms_match_loops::<anonet_bigmath::AutoRat>();
    }

    #[test]
    fn isolated_nodes_halt_immediately() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let run = run_bchs::<BigRat>(&g, &[2, 3, 9], 1, 4, 64).unwrap();
        assert!(!run.cover[2], "an isolated node must not pay for anything");
    }
}
