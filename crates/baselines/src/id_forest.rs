//! ID-based maximal edge packing in O(Δ + log\*N) rounds — the Table 1
//! "\[28\] (edge colouring)" technique family: deterministic, weighted,
//! 2-approximation, but **requires unique identifiers** and its running time
//! depends on the identifier space (hence on n).
//!
//! Orient every edge towards the higher identifier (acyclic), split each
//! node's outgoing edges into forests F₁…F_Δ by rank, 3-colour every forest
//! with Cole–Vishkin seeded by the identifiers, then saturate the (forest ×
//! colour) star classes sequentially with the α-rule — exactly the §3
//! Phase II machinery, applied to *all* edges with the ID orientation
//! instead of Phase I's colour orientation. The head-to-head with §3
//! (experiment E1) isolates what the identifier assumption buys and costs.

use anonet_bigmath::{PackingValue, UBig};
use anonet_core::encode::{cv_step, cv_step_root, CvSchedule};
use anonet_core::packing::EdgePacking;
use anonet_sim::{run_pn, Graph, MessageSize, PnAlgorithm, RunResult, SimError, Trace};

/// Global configuration: Δ and the identifier space bound N (ids in 1..=N).
#[derive(Clone, Debug)]
pub struct IdPackConfig {
    /// Maximum degree Δ.
    pub delta: usize,
    /// Identifier space bound (ids are unique in `1..=id_bound`).
    pub id_bound: u64,
    /// Cole–Vishkin steps for colours seeded by identifiers.
    pub cv_steps: u32,
}

impl IdPackConfig {
    /// Builds the configuration.
    pub fn new(delta: usize, id_bound: u64) -> IdPackConfig {
        let cv_steps = CvSchedule::for_bound(&UBig::from_u64(id_bound.saturating_add(1))).steps;
        IdPackConfig { delta, id_bound, cv_steps }
    }

    fn orient_round(&self) -> u64 {
        1
    }
    /// CV rounds are `orient_round + 2 ..= cv_end` (after the forest round).
    fn cv_end(&self) -> u64 {
        self.orient_round() + 1 + self.cv_steps as u64
    }
    fn shift_start(&self) -> u64 {
        self.cv_end() + 1
    }
    fn stars_start(&self) -> u64 {
        self.shift_start() + 6
    }
    /// Total rounds: `8 + T_cv(N) + 6Δ` — O(Δ + log\*N).
    pub fn total_rounds(&self) -> u64 {
        self.stars_start() - 1 + 6 * self.delta as u64
    }
}

/// Wire messages.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum IdPackMsg<V> {
    /// No content.
    #[default]
    Nil,
    /// My identifier, plus the forest index if this edge is my outgoing one.
    IdForest(u64, Option<u16>),
    /// Per-forest Cole–Vishkin colours.
    Colours(Vec<Option<UBig>>),
    /// Star phase: leaf residual.
    Resid(V),
    /// Star phase: root grant.
    Grant(V),
}

impl<V: PackingValue> MessageSize for IdPackMsg<V> {
    fn approx_bits(&self) -> u64 {
        match self {
            IdPackMsg::Nil => 0,
            IdPackMsg::IdForest(..) => 64 + 17,
            IdPackMsg::Colours(cs) => {
                cs.iter().map(|c| 1 + c.as_ref().map_or(0, |u| u.bits().max(1))).sum()
            }
            IdPackMsg::Resid(v) | IdPackMsg::Grant(v) => v.wire_bits(),
        }
    }
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct IdPackNode<V> {
    id: u64,
    r: V,
    y: Vec<V>,
    parent_port: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    colours: Vec<Option<UBig>>,
    forest_of_port: Vec<Option<u16>>,
    pending_grants: Vec<Option<V>>,
    await_grant: Option<usize>,
}

impl<V: PackingValue> PnAlgorithm for IdPackNode<V> {
    type Msg = IdPackMsg<V>;
    type Input = (u64, u64); // (weight, unique id)
    type Output = crate::id_forest::IdPackOutput<V>;
    type Config = IdPackConfig;

    fn init(cfg: &IdPackConfig, degree: usize, input: &(u64, u64)) -> Self {
        let (w, id) = *input;
        assert!(degree <= cfg.delta);
        assert!(id >= 1 && id <= cfg.id_bound, "id {id} outside 1..={}", cfg.id_bound);
        IdPackNode {
            id,
            r: V::from_u64(w),
            y: vec![V::zero(); degree],
            parent_port: vec![None; cfg.delta],
            children: vec![Vec::new(); cfg.delta],
            colours: vec![None; cfg.delta],
            forest_of_port: vec![None; degree],
            pending_grants: vec![None; degree],
            await_grant: None,
        }
    }

    fn send(&self, cfg: &IdPackConfig, round: u64, out: &mut [IdPackMsg<V>]) {
        if round == cfg.orient_round() {
            // We do not yet know neighbour ids, so forest assignment happens
            // in a second exchange — but ids are static, so we can send both
            // at once only if assignment is deterministic from ids… it is
            // not (we need the neighbour id first). Send id only; forests
            // ride along in the *second* round, see below.
            for m in out.iter_mut() {
                *m = IdPackMsg::IdForest(self.id, None);
            }
        } else if round == cfg.orient_round() + 1 {
            for (p, m) in out.iter_mut().enumerate() {
                *m = IdPackMsg::IdForest(self.id, self.forest_of_port[p]);
            }
        } else if round <= cfg.cv_end() + 6 {
            for m in out.iter_mut() {
                *m = IdPackMsg::Colours(self.colours.clone());
            }
        } else {
            let rel = round - cfg.stars_start();
            let pair = (rel / 2) as usize;
            let (forest, colour) = (pair / 3, (pair % 3) as u64);
            if rel % 2 == 0 {
                if let Some(p) = self.parent_port[forest] {
                    if self.colours[forest].as_ref().and_then(UBig::to_u64) == Some(colour)
                        && self.r.is_positive()
                    {
                        out[p] = IdPackMsg::Resid(self.r.clone());
                    }
                }
            } else {
                for (p, m) in out.iter_mut().enumerate() {
                    if let Some(g) = &self.pending_grants[p] {
                        *m = IdPackMsg::Grant(g.clone());
                    }
                }
            }
        }
    }

    fn receive(
        &mut self,
        cfg: &IdPackConfig,
        round: u64,
        incoming: &[&IdPackMsg<V>],
    ) -> Option<IdPackOutput<V>> {
        if round == cfg.orient_round() {
            // Orientation towards higher id; rank outgoing ports into forests.
            let mut rank = 0u16;
            for (p, m) in incoming.iter().enumerate() {
                let IdPackMsg::IdForest(nb_id, _) = m else { panic!("expected IdForest") };
                assert_ne!(*nb_id, self.id, "identifiers must be unique");
                if *nb_id > self.id {
                    self.forest_of_port[p] = Some(rank);
                    self.parent_port[rank as usize] = Some(p);
                    rank += 1;
                }
            }
        } else if round == cfg.orient_round() + 1 {
            for (p, m) in incoming.iter().enumerate() {
                let IdPackMsg::IdForest(_, f) = m else { panic!("expected IdForest") };
                if let Some(i) = f {
                    self.children[*i as usize].push(p);
                }
            }
            let code = UBig::from_u64(self.id);
            for i in 0..cfg.delta {
                if self.parent_port[i].is_some() || !self.children[i].is_empty() {
                    self.colours[i] = Some(code.clone());
                }
            }
        } else if round <= cfg.cv_end() {
            for i in 0..cfg.delta {
                if self.colours[i].is_none() {
                    continue;
                }
                let new = match self.parent_port[i] {
                    Some(p) => {
                        let IdPackMsg::Colours(cs) = incoming[p] else {
                            panic!("expected Colours")
                        };
                        cv_step(self.colours[i].as_ref().unwrap(), cs[i].as_ref().unwrap())
                    }
                    None => cv_step_root(self.colours[i].as_ref().unwrap()),
                };
                self.colours[i] = Some(new);
            }
        } else if round < cfg.stars_start() {
            let rel = round - cfg.shift_start(); // 0..6
            let shifting = rel % 2 == 0;
            let elim_colour = 5 - rel / 2;
            for i in 0..cfg.delta {
                if self.colours[i].is_none() {
                    continue;
                }
                let cur = self.colours[i].as_ref().unwrap().to_u64().unwrap();
                if shifting {
                    match self.parent_port[i] {
                        Some(p) => {
                            let IdPackMsg::Colours(cs) = incoming[p] else {
                                panic!("expected Colours")
                            };
                            self.colours[i] = cs[i].clone();
                        }
                        None => {
                            let new = (0..3).find(|&c| c != cur).unwrap();
                            self.colours[i] = Some(UBig::from_u64(new));
                        }
                    }
                } else if cur == elim_colour {
                    let mut forbidden = [false; 6];
                    if let Some(p) = self.parent_port[i] {
                        let IdPackMsg::Colours(cs) = incoming[p] else {
                            panic!("expected Colours")
                        };
                        forbidden[cs[i].as_ref().unwrap().to_u64().unwrap() as usize] = true;
                    }
                    for &p in &self.children[i] {
                        let IdPackMsg::Colours(cs) = incoming[p] else {
                            panic!("expected Colours")
                        };
                        forbidden[cs[i].as_ref().unwrap().to_u64().unwrap() as usize] = true;
                    }
                    let new = (0u64..3).find(|&c| !forbidden[c as usize]).unwrap();
                    self.colours[i] = Some(UBig::from_u64(new));
                }
            }
        } else {
            let rel = round - cfg.stars_start();
            let pair = (rel / 2) as usize;
            let (forest, colour) = (pair / 3, (pair % 3) as u64);
            if rel % 2 == 0 {
                self.await_grant = self.parent_port[forest].filter(|_| {
                    self.colours[forest].as_ref().and_then(UBig::to_u64) == Some(colour)
                        && self.r.is_positive()
                });
                let mut leaves: Vec<(usize, V)> = Vec::new();
                for (p, m) in incoming.iter().enumerate() {
                    if let IdPackMsg::Resid(ru) = m {
                        leaves.push((p, (*ru).clone()));
                    }
                }
                if !leaves.is_empty() {
                    if !self.r.is_positive() {
                        for (p, _) in leaves {
                            self.pending_grants[p] = Some(V::zero());
                        }
                    } else {
                        let total = anonet_bigmath::value::sum(leaves.iter().map(|(_, r)| r));
                        if total < self.r {
                            for (p, ru) in leaves {
                                self.y[p] = self.y[p].add(&ru);
                                self.pending_grants[p] = Some(ru);
                            }
                            self.r = self.r.sub(&total);
                        } else {
                            for (p, ru) in leaves {
                                let g = ru.mul(&self.r).div(&total);
                                self.y[p] = self.y[p].add(&g);
                                self.pending_grants[p] = Some(g);
                            }
                            self.r = V::zero();
                        }
                    }
                }
            } else {
                if let Some(p) = self.await_grant.take() {
                    let IdPackMsg::Grant(g) = incoming[p] else { panic!("leaf expected a Grant") };
                    self.y[p] = self.y[p].add(g);
                    self.r = self.r.sub(g);
                }
                for g in self.pending_grants.iter_mut() {
                    *g = None;
                }
            }
        }

        (round == cfg.total_rounds())
            .then(|| IdPackOutput { in_cover: self.r.is_zero(), y: self.y.clone() })
    }
}

/// Per-node output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdPackOutput<V> {
    /// Cover membership (saturated).
    pub in_cover: bool,
    /// Final `y(e)` per port.
    pub y: Vec<V>,
}

/// Result of an ID-based edge-packing run.
#[derive(Clone, Debug)]
pub struct IdPackRun<V> {
    /// The maximal edge packing.
    pub packing: EdgePacking<V>,
    /// 2-approximate vertex cover.
    pub cover: Vec<bool>,
    /// Engine instrumentation.
    pub trace: Trace,
}

/// Runs the ID-based edge packing; `ids[v]` must be unique in `1..=id_bound`.
pub fn run_id_edge_packing<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    ids: &[u64],
    id_bound: u64,
) -> Result<IdPackRun<V>, SimError> {
    let cfg = IdPackConfig::new(g.max_degree().max(1), id_bound);
    let inputs: Vec<(u64, u64)> = weights.iter().copied().zip(ids.iter().copied()).collect();
    let res: RunResult<IdPackOutput<V>> =
        run_pn::<IdPackNode<V>>(g, &cfg, &inputs, cfg.total_rounds())?;
    let packing = EdgePacking::from_ports(g, res.outputs.iter().map(|o| &o.y[..]));
    let cover = res.outputs.iter().map(|o| o.in_cover).collect();
    Ok(IdPackRun { packing, cover, trace: res.trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_bigmath::BigRat;
    use anonet_gen::{family, WeightSpec};

    fn check(g: &Graph, weights: &[u64]) {
        let n = g.n();
        let ids: Vec<u64> = (1..=n as u64).collect();
        let run = run_id_edge_packing::<BigRat>(g, weights, &ids, n as u64).unwrap();
        assert!(run.packing.is_feasible(g, weights));
        assert!(run.packing.is_maximal(g, weights), "must be maximal");
        assert_eq!(run.cover, run.packing.saturated_nodes(g, weights));
        let cw: u64 = (0..n).filter(|&v| run.cover[v]).map(|v| weights[v]).sum();
        let two_dual = run.packing.dual_value().mul(&BigRat::from_u64(2));
        assert!(BigRat::from_u64(cw) <= two_dual);
        let cfg = IdPackConfig::new(g.max_degree().max(1), n as u64);
        assert_eq!(run.trace.rounds, cfg.total_rounds());
    }

    #[test]
    fn families_weighted() {
        for (g, seed) in [
            (family::path(8), 1u64),
            (family::cycle(9), 2),
            (family::star(5), 3),
            (family::grid(4, 3), 4),
            (family::petersen(), 5),
            (family::complete(6), 6),
        ] {
            let w = WeightSpec::Uniform(30).draw_many(g.n(), seed);
            check(&g, &w);
            check(&g, &vec![1; g.n()]);
        }
    }

    #[test]
    fn random_graphs() {
        for seed in 0..6u64 {
            let g = family::gnp_capped(14, 0.3, 4, seed);
            let w = WeightSpec::Uniform(12).draw_many(14, seed + 9);
            check(&g, &w);
        }
    }

    #[test]
    fn shuffled_ids_still_work() {
        use anonet_gen::Rng;
        let g = family::torus(3, 4);
        let w = WeightSpec::Uniform(8).draw_many(12, 3);
        let mut rng = Rng::new(42);
        let perm = rng.permutation(12);
        let ids: Vec<u64> = perm.iter().map(|&p| p as u64 + 1).collect();
        let run = run_id_edge_packing::<BigRat>(&g, &w, &ids, 12).unwrap();
        assert!(run.packing.is_maximal(&g, &w));
    }

    #[test]
    fn rounds_grow_with_id_space() {
        // The log*N dependence: enormous id spaces cost (a few) extra rounds.
        let small = IdPackConfig::new(3, 16);
        let huge = IdPackConfig::new(3, u64::MAX);
        assert!(huge.total_rounds() >= small.total_rounds());
        assert!(huge.total_rounds() <= small.total_rounds() + 4);
    }
}
