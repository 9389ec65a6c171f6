//! Polishchuk–Suomela "simple local 3-approximation" (Table 1 row \[30\]):
//! deterministic, unweighted, **3-approximation** in O(Δ) rounds in the
//! port-numbering model.
//!
//! The algorithm computes a maximal matching in the bipartite double cover
//! of G greedily: each node plays a *white* and a *black* role; white(v)
//! proposes along v's ports in increasing order until accepted, black(v)
//! accepts the first proposal it sees (minimum port on ties). A node joins
//! the cover iff either of its roles is matched.

use anonet_bigmath::PackingValue;
use anonet_core::packing::EdgePacking;
use anonet_sim::{
    run_engine_scratch, EngineScratch, Graph, MessageSize, PnAlgorithm, PortNumbering, SimError,
    Trace,
};

/// Messages of the PS algorithm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum PsMsg {
    /// No content.
    #[default]
    Nil,
    /// White role proposes along this edge.
    Propose,
    /// Black role accepts the proposal received on this port.
    Accept,
}

impl MessageSize for PsMsg {
    const FIXED_BITS: Option<u64> = Some(2);
    fn approx_bits(&self) -> u64 {
        2
    }
}

/// Node state: both roles of the bipartite double cover.
#[derive(Clone, Debug)]
pub struct PsNode {
    deg: usize,
    /// Port whose proposal white(v) is awaiting (next to try).
    next_port: usize,
    /// Port on which white(v) was accepted.
    white_matched: Option<usize>,
    /// Port whose proposal black(v) accepted.
    black_matched: Option<usize>,
    /// Set in the round black(v) accepts — the Accept goes out next round.
    pending_accept: Option<usize>,
}

/// Global configuration: the degree bound Δ.
#[derive(Clone, Debug)]
pub struct PsConfig {
    /// Maximum degree Δ.
    pub delta: usize,
}

impl PsConfig {
    /// Total rounds: one propose + one respond round per port.
    pub fn total_rounds(&self) -> u64 {
        2 * self.delta as u64
    }
}

/// Final output of one node: cover membership plus which of its two
/// double-cover roles got matched — the witness from which the half-matching
/// dual packing (and with it a machine-checkable 4·Σy certificate) is built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PsOutput {
    /// Whether the node joined the cover (either role matched).
    pub in_cover: bool,
    /// Port on which white(v) was accepted, if any.
    pub white_matched: Option<usize>,
    /// Port whose proposal black(v) accepted, if any.
    pub black_matched: Option<usize>,
}

impl PnAlgorithm for PsNode {
    type Msg = PsMsg;
    type Input = ();
    type Output = PsOutput;
    type Config = PsConfig;

    fn init(cfg: &PsConfig, degree: usize, _input: &()) -> Self {
        assert!(degree <= cfg.delta);
        PsNode {
            deg: degree,
            next_port: 0,
            white_matched: None,
            black_matched: None,
            pending_accept: None,
        }
    }

    fn send(&self, _cfg: &PsConfig, round: u64, out: &mut [PsMsg]) {
        if round % 2 == 1 {
            // Propose round t = (round-1)/2: white proposes on port t.
            let t = ((round - 1) / 2) as usize;
            if self.white_matched.is_none() && t == self.next_port && t < self.deg {
                out[t] = PsMsg::Propose;
            }
        } else if let Some(p) = self.pending_accept {
            out[p] = PsMsg::Accept;
        }
    }

    fn receive(&mut self, cfg: &PsConfig, round: u64, incoming: &[&PsMsg]) -> Option<PsOutput> {
        if round % 2 == 1 {
            // Black role: accept the minimum-port proposal if unmatched.
            if self.black_matched.is_none() {
                if let Some(p) = incoming.iter().position(|m| matches!(m, PsMsg::Propose)) {
                    self.black_matched = Some(p);
                    self.pending_accept = Some(p);
                }
            }
        } else {
            // White role: check for an accept on the port just proposed.
            let t = (round / 2 - 1) as usize;
            if self.white_matched.is_none() && t == self.next_port && t < self.deg {
                if matches!(incoming[t], PsMsg::Accept) {
                    self.white_matched = Some(t);
                } else {
                    self.next_port += 1;
                }
            }
            self.pending_accept = None;
        }
        (round == cfg.total_rounds()).then(|| PsOutput {
            in_cover: self.white_matched.is_some() || self.black_matched.is_some(),
            white_matched: self.white_matched,
            black_matched: self.black_matched,
        })
    }
}

/// Result of a PS run.
#[derive(Clone, Debug)]
pub struct PsRun {
    /// Cover membership by node id.
    pub cover: Vec<bool>,
    /// Per-node role outcomes (feeds [`half_matching_packing`]).
    pub roles: Vec<PsOutput>,
    /// Engine instrumentation (always 2Δ rounds).
    pub trace: Trace,
}

/// Folds the matched double-cover roles into an edge packing over G: each
/// matched white(u)↔black(v) pair puts `1/2` on edge `{u,v}`. A node's two
/// roles are each matched at most once, so its load is at most `2·(1/2) = 1`
/// — dual-feasible for **unit** weights — while every covered node accounts
/// for at least one of the `2·Σy` matched role slots, giving the checkable
/// bound `|C| ≤ 4·Σy` (the true guarantee, `|C| ≤ 3·OPT`, is combinatorial
/// and cross-checked against the exact solver in tests instead).
pub fn half_matching_packing<V: PackingValue>(g: &Graph, roles: &[PsOutput]) -> EdgePacking<V> {
    let half = V::one().div(&V::from_u64(2));
    let mut y = vec![V::zero(); g.m()];
    for (v, out) in roles.iter().enumerate() {
        // Count each pair once, from its white side.
        if let Some(p) = out.white_matched {
            let e = g.edge_of(g.arc(v, p));
            y[e] = y[e].add(&half);
        }
    }
    EdgePacking { y }
}

/// Runs the Polishchuk–Suomela 3-approximation (unweighted), deriving Δ
/// from the graph.
pub fn run_ps3(g: &Graph) -> Result<PsRun, SimError> {
    run_ps3_scratch(g, g.max_degree(), &mut EngineScratch::new())
}

/// Runs the Polishchuk–Suomela 3-approximation with an explicit global Δ,
/// taking the engine's allocations from and returning them to `scratch` —
/// the one body every PS entry point runs.
pub fn run_ps3_scratch(
    g: &Graph,
    delta: usize,
    scratch: &mut EngineScratch<PsNode, PortNumbering>,
) -> Result<PsRun, SimError> {
    let cfg = PsConfig { delta: delta.max(1) };
    let res = run_engine_scratch::<PsNode, PortNumbering>(
        g,
        &cfg,
        &vec![(); g.n()],
        cfg.total_rounds(),
        scratch,
    )?;
    let cover = res.outputs.iter().map(|o| o.in_cover).collect();
    Ok(PsRun { cover, roles: res.outputs, trace: res.trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_exact::{is_vertex_cover, min_weight_vertex_cover};
    use anonet_gen::family;

    fn check(g: &Graph) {
        let run = run_ps3(g).unwrap();
        assert!(is_vertex_cover(g, &run.cover), "must cover all edges");
        // 3-approximation vs exact optimum (unweighted).
        let opt = min_weight_vertex_cover(g, &vec![1; g.n()]).weight;
        let size = run.cover.iter().filter(|&&b| b).count() as u64;
        assert!(size <= 3 * opt, "|C| = {size} > 3·OPT = {}", 3 * opt);
        assert_eq!(run.trace.rounds, 2 * g.max_degree().max(1) as u64);
        // The half-matching dual certifies |C| ≤ 4·Σy machine-checkably.
        let packing = half_matching_packing::<anonet_bigmath::BigRat>(g, &run.roles);
        let unit = vec![1u64; g.n()];
        let cert = anonet_core::certify::certify_vertex_cover_rational(
            g, &unit, &packing, &run.cover, 4, 1,
        )
        .expect("half-matching certificate must verify");
        assert_eq!(cert.cover_weight, size);
    }

    #[test]
    fn single_edge_matches_both() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let run = run_ps3(&g).unwrap();
        // white(0) proposes to black(1) and vice versa: both matched.
        assert_eq!(run.cover, vec![true, true]);
    }

    #[test]
    fn families() {
        check(&family::path(9));
        check(&family::cycle(8));
        check(&family::cycle(9));
        check(&family::star(6));
        check(&family::grid(4, 4));
        check(&family::petersen());
        check(&family::frucht());
        check(&family::complete(6));
    }

    #[test]
    fn random_graphs() {
        use anonet_gen::family::gnp_capped;
        for seed in 0..10u64 {
            check(&gnp_capped(16, 0.3, 5, seed));
        }
    }

    #[test]
    fn rounds_independent_of_n() {
        let mut scratch = EngineScratch::new();
        let a = run_ps3_scratch(&family::cycle(10), 2, &mut scratch).unwrap().trace.rounds;
        let b = run_ps3_scratch(&family::cycle(1000), 2, &mut scratch).unwrap().trace.rounds;
        assert_eq!(a, b);
    }
}
