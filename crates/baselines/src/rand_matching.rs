//! Randomized maximal matching (Table 1's randomized O(log n) rows, e.g.
//! Israeli–Itai-style proposal algorithms): each round every unmatched node
//! proposes along one uniformly random live port; mutual proposals match.
//! Terminates (Las Vegas) with a maximal matching in O(log n) rounds w.h.p.;
//! matched nodes form a 2-approximate unweighted vertex cover.
//!
//! Randomness is *per-node seeded* (the seed is part of the input, so runs
//! are reproducible); this is exactly the assumption the paper's
//! deterministic algorithms avoid.

use anonet_gen::Rng;
use anonet_sim::{run_pn, Graph, MessageSize, PnAlgorithm, SimError, Trace};

/// Wire messages.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum RmMsg {
    /// No content — only ever received from a *halted* neighbour (matched or
    /// dead-ended), so it deactivates the edge.
    #[default]
    Nil,
    /// Sender is unmatched but proposing elsewhere this round.
    Alive,
    /// Proposal along this edge.
    Propose,
    /// "I am matched" — deactivates the edge.
    Matched,
}

impl MessageSize for RmMsg {
    const FIXED_BITS: Option<u64> = Some(2);
    fn approx_bits(&self) -> u64 {
        2
    }
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct RmNode {
    rng: Rng,
    matched: bool,
    /// Round at which we matched (halt one round later, after notifying).
    matched_at: Option<u64>,
    live: Vec<bool>,
    /// The port proposed on this round (chosen during send — but send is
    /// immutable, so the choice is pre-drawn in receive for the *next* round).
    proposal: Option<usize>,
}

impl RmNode {
    fn live_ports(&self) -> Vec<usize> {
        (0..self.live.len()).filter(|&p| self.live[p]).collect()
    }

    fn draw_proposal(&mut self) {
        let live = self.live_ports();
        self.proposal = if self.matched || live.is_empty() {
            None
        } else {
            Some(live[self.rng.index(live.len())])
        };
    }
}

impl PnAlgorithm for RmNode {
    type Msg = RmMsg;
    type Input = u64; // per-node seed
    type Output = bool; // matched ⇒ in cover
    type Config = ();

    fn init(_cfg: &(), degree: usize, input: &u64) -> Self {
        let mut node = RmNode {
            rng: Rng::new(*input),
            matched: false,
            matched_at: None,
            live: vec![true; degree],
            proposal: None,
        };
        node.draw_proposal();
        node
    }

    fn send(&self, _cfg: &(), _round: u64, out: &mut [RmMsg]) {
        if self.matched {
            for m in out.iter_mut() {
                *m = RmMsg::Matched;
            }
        } else {
            for m in out.iter_mut() {
                *m = RmMsg::Alive;
            }
            if let Some(p) = self.proposal {
                out[p] = RmMsg::Propose;
            }
        }
    }

    fn receive(&mut self, _cfg: &(), round: u64, incoming: &[&RmMsg]) -> Option<bool> {
        if !self.matched {
            // Mutual proposal on my proposed port?
            if let Some(p) = self.proposal {
                if matches!(incoming[p], RmMsg::Propose) {
                    self.matched = true;
                    self.matched_at = Some(round);
                }
            }
        }
        for (p, m) in incoming.iter().enumerate() {
            // Nil comes only from halted (matched or dead-ended) neighbours.
            if matches!(m, RmMsg::Matched | RmMsg::Nil) {
                self.live[p] = false;
            }
        }
        self.draw_proposal();
        let done = match self.matched_at {
            Some(r) => round > r,
            None => self.live_ports().is_empty(),
        };
        done.then_some(self.matched)
    }
}

/// Result of a randomized matching run.
#[derive(Clone, Debug)]
pub struct RmRun {
    /// Cover membership (= matched) by node id.
    pub cover: Vec<bool>,
    /// Engine instrumentation (random, Las Vegas round count).
    pub trace: Trace,
}

/// Runs the randomized matching; node seeds derive from `seed`.
pub fn run_rand_matching(g: &Graph, seed: u64, max_rounds: u64) -> Result<RmRun, SimError> {
    let mut master = Rng::new(seed);
    let inputs: Vec<u64> = (0..g.n()).map(|_| master.next_u64()).collect();
    let res = run_pn::<RmNode>(g, &(), &inputs, max_rounds)?;
    Ok(RmRun { cover: res.outputs, trace: res.trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_exact::{is_vertex_cover, min_weight_vertex_cover};
    use anonet_gen::family;

    fn check(g: &Graph, seed: u64) -> u64 {
        let run = run_rand_matching(g, seed, 10_000).unwrap();
        assert!(is_vertex_cover(g, &run.cover), "matched nodes must cover");
        // Matched nodes come in pairs covering a matching: 2-approx.
        if g.n() <= 16 {
            let opt = min_weight_vertex_cover(g, &vec![1; g.n()]).weight;
            let size = run.cover.iter().filter(|&&b| b).count() as u64;
            assert!(size <= 2 * opt, "size {size} > 2·OPT {opt}");
        }
        run.trace.rounds
    }

    #[test]
    fn families() {
        for seed in 0..5u64 {
            check(&family::path(9), seed);
            check(&family::cycle(12), seed);
            check(&family::star(5), seed);
            check(&family::petersen(), seed);
            check(&family::grid(4, 3), seed);
        }
    }

    #[test]
    fn single_edge_matches() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let run = run_rand_matching(&g, 7, 100).unwrap();
        assert_eq!(run.cover, vec![true, true]);
    }

    #[test]
    fn rounds_grow_slowly_with_n() {
        // O(log n) w.h.p.: the round count on a large cycle stays small.
        let r = check(&family::cycle(2048), 3);
        assert!(r < 200, "rounds = {r} suspiciously large for n = 2048");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = family::grid(5, 5);
        let a = run_rand_matching(&g, 11, 10_000).unwrap();
        let b = run_rand_matching(&g, 11, 10_000).unwrap();
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.trace, b.trace);
    }
}
