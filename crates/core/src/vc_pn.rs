//! §3: maximal edge packing — and hence 2-approximate minimum-weight vertex
//! cover — in **O(Δ + log\*W)** rounds in the port-numbering model.
//!
//! The node program follows the paper exactly, organised as a fixed round
//! schedule computable from the global parameters (Δ, W) alone (anonymous
//! nodes cannot detect global termination, so *every* phase has a
//! pre-agreed length):
//!
//! | rounds                | phase                                         |
//! |-----------------------|-----------------------------------------------|
//! | `2Δ`                  | Phase I: Δ iterations of steps (i)–(iii), each = 1 status round + 1 offer round |
//! | `1`                   | final residual-status exchange                |
//! | `1`                   | forest assignment (ports → F₁…F_Δ)            |
//! | `T_cv = O(log*χ)`     | Cole–Vishkin on each forest in parallel       |
//! | `6`                   | 3 × (shift-down + eliminate) : 6 → 3 colours  |
//! | `6Δ`                  | star saturation for each (forest, colour)     |
//!
//! Phase I maintains, per port, the *lexicographic comparison so far* between
//! the two endpoints' colour sequences (the sequences grow by one rational
//! per iteration; once a position differs the comparison is fixed forever),
//! so full sequences never travel on the wire. Phase II encodes the local
//! sequence into the Lemma 2 integer and 3-colours each forest.

use crate::encode::{Colour, CvSchedule, SeqEncoder};
use crate::packing::EdgePacking;
use anonet_bigmath::PackingValue;
use anonet_sim::{
    run_engine_scratch, BatchRunner, EngineScratch, Graph, MessageSize, PnAlgorithm, PortNumbering,
    SimError, Trace,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Global configuration: the paper's Δ and W, plus quantities every node
/// derives from them (the Lemma 2 encoder and the Cole–Vishkin schedule).
#[derive(Clone, Debug)]
pub struct VcConfig {
    /// Maximum degree bound Δ (≥ actual max degree).
    pub delta: usize,
    /// Maximum weight bound W (≥ every node weight, ≥ 1).
    pub max_weight: u64,
    /// The Phase I sequence encoder (scale `(Δ!)^Δ`, base `W(Δ!)^Δ + 1`).
    pub encoder: SeqEncoder,
    /// Rounds of Cole–Vishkin needed to reach 6 colours from χ.
    pub cv_steps: u32,
}

impl VcConfig {
    /// Builds the configuration for bounds Δ and W.
    pub fn new(delta: usize, max_weight: u64) -> VcConfig {
        assert!(max_weight >= 1, "W must be at least 1");
        let encoder = SeqEncoder::phase1(delta, max_weight);
        let cv_steps = CvSchedule::for_bound(&encoder.code_bound()).steps;
        VcConfig { delta, max_weight, encoder, cv_steps }
    }

    /// End of Phase I (after Δ two-round iterations).
    fn phase1_end(&self) -> u64 {
        2 * self.delta as u64
    }
    /// The final status-exchange round.
    fn status2_round(&self) -> u64 {
        self.phase1_end() + 1
    }
    /// The forest-assignment round.
    fn forest_round(&self) -> u64 {
        self.phase1_end() + 2
    }
    /// Last Cole–Vishkin round.
    fn cv_end(&self) -> u64 {
        self.forest_round() + self.cv_steps as u64
    }
    /// First of the six shift-down/eliminate rounds.
    fn shift_start(&self) -> u64 {
        self.cv_end() + 1
    }
    /// First star round.
    fn stars_start(&self) -> u64 {
        self.shift_start() + 6
    }
    /// Total schedule length: `8Δ + T_cv + 8` rounds — the Theorem 1 bound
    /// O(Δ + log*W) with explicit constants.
    pub fn total_rounds(&self) -> u64 {
        self.stars_start() - 1 + 6 * self.delta as u64
    }

    /// Which phase a (1-based) round belongs to.
    fn phase(&self, round: u64) -> Phase {
        if round <= self.phase1_end() {
            let it = (round - 1) / 2;
            if round % 2 == 1 {
                Phase::P1Status { iter: it }
            } else {
                Phase::P1Offer { iter: it }
            }
        } else if round == self.status2_round() {
            Phase::Status2
        } else if round == self.forest_round() {
            Phase::Forest
        } else if round <= self.cv_end() {
            Phase::Cv
        } else if round < self.stars_start() {
            let rel = (round - self.shift_start()) as usize; // 0..6
            let colour = 5 - (rel / 2) as u64; // eliminate 5, then 4, then 3
            if rel % 2 == 0 {
                Phase::ShiftDown
            } else {
                Phase::Eliminate { colour }
            }
        } else {
            let rel = round - self.stars_start(); // 0 .. 6Δ
            let pair = (rel / 2) as usize;
            let star = StarId { forest: pair / 3, colour: (pair % 3) as u64 };
            if rel % 2 == 0 {
                Phase::StarResid(star)
            } else {
                Phase::StarGrant(star)
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StarId {
    forest: usize,
    colour: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    P1Status { iter: u64 },
    P1Offer { iter: u64 },
    Status2,
    Forest,
    Cv,
    ShiftDown,
    Eliminate { colour: u64 },
    StarResid(StarId),
    StarGrant(StarId),
}

/// Wire messages of the edge-packing algorithm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum VcMsg<V> {
    /// No content (also what halted nodes emit).
    #[default]
    Nil,
    /// "My residual is positive" (Phase I status and the final status round).
    Status(bool),
    /// Phase I offer `x(v)`; `None` when the sender is not in `V_yc`.
    Offer(Option<V>),
    /// "This edge is my r-th outgoing edge" (forest index), or `None`.
    Forest(Option<u16>),
    /// Per-forest Cole–Vishkin colours (`None` for forests the sender is not
    /// in): the sender's own colour vector, shared by every port and by
    /// every round until one of its colours changes. Colours are inline
    /// machine words up to 128 bits ([`Colour`]).
    Colours(Arc<[Option<Colour>]>),
    /// Star phase: a leaf's residual, sent to its parent.
    Resid(V),
    /// Star phase: the root's granted increment for this edge.
    Grant(V),
}

impl<V: PackingValue> MessageSize for VcMsg<V> {
    fn approx_bits(&self) -> u64 {
        match self {
            VcMsg::Nil => 0,
            VcMsg::Status(_) => 1,
            VcMsg::Offer(x) => 1 + x.as_ref().map_or(0, |v| v.wire_bits()),
            VcMsg::Forest(f) => 1 + if f.is_some() { 16 } else { 0 },
            VcMsg::Colours(cs) => {
                cs.iter().map(|c| 1 + c.as_ref().map_or(0, |u| u.bits().max(1))).sum()
            }
            VcMsg::Resid(v) | VcMsg::Grant(v) => v.wire_bits(),
        }
    }
}

/// What a node keeps per port.
#[derive(Clone, Debug)]
struct Port<V> {
    /// `y(e)`: the node's copy of the incident edge's value.
    y: V,
    /// Lexicographic comparison own-sequence vs neighbour-sequence, fixed
    /// at the first differing position.
    ord: Ordering,
    /// Neighbour active status from the latest status round.
    nb_active: bool,
    /// The edge is currently in `E_yc`.
    in_eyc: bool,
    /// The edge is in the unsaturated set A (Phase II).
    in_a: bool,
    /// Forest index if this is one of my outgoing edges.
    forest: Option<u16>,
    /// Grant to emit in the next star round (root role).
    pending_grant: Option<V>,
}

/// What a node keeps per forest F₁…F_Δ.
#[derive(Clone, Debug, Default)]
struct ForestSlot {
    /// My outgoing (parent) port.
    parent_port: Option<usize>,
    /// Ports with incoming forest edges (my children).
    children: Vec<usize>,
}

/// Per-node state of the §3 algorithm.
#[derive(Clone, Debug)]
pub struct EdgePackingNode<V> {
    /// Residual weight `r_y(v)`.
    r: V,
    /// Per-port state, indexed by port.
    ports: Vec<Port<V>>,
    /// Own colour sequence (grows to length Δ during Phase I).
    seq: Vec<V>,
    /// Own offer `x(v)` for the current Phase I iteration (None ⇔ v ∉ V_yc).
    my_x: Option<V>,
    /// Per-forest parent and children, indexed by forest.
    forests: Vec<ForestSlot>,
    /// Per-forest: my current Cole–Vishkin colour (None ⇔ not in the
    /// forest). My `Colours` messages share this vector; only
    /// `set_colour` changes it.
    colours: Arc<[Option<Colour>]>,
    /// The colour vector before the last change, reused by `set_colour`.
    spare: Option<Arc<[Option<Colour>]>>,
    /// Port on which I await a grant (leaf role).
    await_grant: Option<usize>,
}

impl<V: PackingValue> EdgePackingNode<V> {
    fn active(&self) -> bool {
        self.r.is_positive()
    }

    /// Whether I am an active colour-`star.colour` child in forest
    /// `star.forest`: such a leaf sends its residual to its parent port in
    /// the star's residual round.
    fn star_leaf(&self, star: StarId) -> Option<usize> {
        self.forests[star.forest].parent_port.filter(|_| {
            self.colours[star.forest].as_ref().and_then(Colour::to_u64) == Some(star.colour)
                && self.active()
        })
    }

    /// My message in a status, offer or colour round, where every port
    /// carries the same one.
    fn same_on_every_port(&self, phase: Phase) -> VcMsg<V> {
        match phase {
            Phase::P1Status { .. } | Phase::Status2 => VcMsg::Status(self.active()),
            Phase::P1Offer { .. } => VcMsg::Offer(self.my_x.clone()),
            // Cv, ShiftDown and Eliminate.
            _ => VcMsg::Colours(Arc::clone(&self.colours)),
        }
    }

    fn my_colour_small(&self, i: usize) -> u64 {
        // Clamped total decoding: in fault-free runs colours are ≤ 5 at every
        // call site; corrupted states are clamped into the palette.
        self.colours[i].as_ref().and_then(Colour::to_u64).unwrap_or(0).min(5)
    }

    /// Sets forest `i`'s colour. An unchanged colour keeps the vector this
    /// round's messages share. The first change of a round moves to the
    /// spare vector, which last round's messages held and which is free
    /// again by now, so steady colour rounds allocate nothing.
    fn set_colour(&mut self, i: usize, c: Colour) {
        if self.colours[i].as_ref() == Some(&c) {
            return;
        }
        if Arc::get_mut(&mut self.colours).is_none() {
            let next = match self.spare.as_mut().and_then(Arc::get_mut) {
                Some(spare) => {
                    spare.clone_from_slice(&self.colours);
                    self.spare.take()
                }
                None => None,
            };
            let next = next.unwrap_or_else(|| self.colours.iter().cloned().collect());
            self.spare = Some(std::mem::replace(&mut self.colours, next));
        }
        Arc::get_mut(&mut self.colours).expect("colours unshared")[i] = Some(c);
    }
}

/// Final per-node output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcOutput<V> {
    /// Cover membership: `true` iff the node is saturated.
    pub in_cover: bool,
    /// Final `y(e)` per port.
    pub y: Vec<V>,
}

impl<V: PackingValue> PnAlgorithm for EdgePackingNode<V> {
    type Msg = VcMsg<V>;
    type Input = u64;
    type Output = VcOutput<V>;
    type Config = VcConfig;

    fn init(cfg: &VcConfig, degree: usize, input: &u64) -> Self {
        assert!(degree <= cfg.delta, "degree {degree} exceeds Δ = {}", cfg.delta);
        assert!(
            *input >= 1 && *input <= cfg.max_weight,
            "weight {input} outside 1..=W = {}",
            cfg.max_weight
        );
        let port = Port {
            y: V::zero(),
            ord: Ordering::Equal,
            nb_active: true,
            in_eyc: false,
            in_a: false,
            forest: None,
            pending_grant: None,
        };
        EdgePackingNode {
            r: V::from_u64(*input),
            ports: vec![port; degree],
            seq: Vec::with_capacity(cfg.delta),
            my_x: None,
            forests: vec![ForestSlot::default(); cfg.delta],
            colours: vec![None; cfg.delta].into(),
            spare: None,
            await_grant: None,
        }
    }

    fn send(&self, cfg: &VcConfig, round: u64, out: &mut [VcMsg<V>]) {
        match cfg.phase(round) {
            Phase::Forest => {
                for (port, m) in self.ports.iter().zip(out.iter_mut()) {
                    *m = VcMsg::Forest(port.forest);
                }
            }
            Phase::StarResid(star) => {
                // Leaf role: if I am a colour-j child in forest i and still
                // unsaturated, send my residual to my parent.
                if let Some(p) = self.star_leaf(star) {
                    out[p] = VcMsg::Resid(self.r.clone());
                }
            }
            Phase::StarGrant(_) => {
                for (port, m) in self.ports.iter().zip(out.iter_mut()) {
                    if let Some(g) = &port.pending_grant {
                        *m = VcMsg::Grant(g.clone());
                    }
                }
            }
            phase => out.fill(self.same_on_every_port(phase)),
        }
    }

    /// Status, offer and colour rounds send one value on every port; the
    /// forest and star rounds do too for a node with nothing port-specific
    /// to say (no outgoing forest edge, not a sending leaf, no grants).
    fn send_uniform(&self, cfg: &VcConfig, round: u64) -> Option<VcMsg<V>> {
        match cfg.phase(round) {
            Phase::Forest => {
                self.ports.iter().all(|p| p.forest.is_none()).then_some(VcMsg::Forest(None))
            }
            Phase::StarResid(star) => self.star_leaf(star).is_none().then_some(VcMsg::Nil),
            Phase::StarGrant(_) => {
                self.ports.iter().all(|p| p.pending_grant.is_none()).then_some(VcMsg::Nil)
            }
            phase => Some(self.same_on_every_port(phase)),
        }
    }

    fn receive(
        &mut self,
        cfg: &VcConfig,
        round: u64,
        incoming: &[&VcMsg<V>],
    ) -> Option<VcOutput<V>> {
        match cfg.phase(round) {
            Phase::P1Status { .. } => {
                let me_active = self.active();
                let mut degyc = 0usize;
                for (port, m) in self.ports.iter_mut().zip(incoming) {
                    // Total decoding (self-stabilization contract): anything
                    // other than Status(true) counts as inactive.
                    port.nb_active = matches!(m, VcMsg::Status(true));
                    port.in_eyc = me_active && port.nb_active && port.ord == Ordering::Equal;
                    degyc += usize::from(port.in_eyc);
                }
                self.my_x = (degyc > 0).then(|| self.r.div(&V::from_u64(degyc as u64)));
            }
            Phase::P1Offer { .. } => {
                let one = V::one();
                let own_append = self.my_x.clone().unwrap_or_else(|| one.clone());
                for (port, m) in self.ports.iter_mut().zip(incoming) {
                    let xu = match m {
                        VcMsg::Offer(x) => x.as_ref(),
                        _ => None, // corrupted neighbour: treat as not in V_yc
                    };
                    if port.in_eyc {
                        if let (Some(mine), Some(theirs)) = (self.my_x.as_ref(), xu) {
                            let inc = mine.min(theirs).clone();
                            port.y = port.y.add(&inc);
                            self.r = self.r.sub(&inc);
                        }
                    }
                    if port.ord == Ordering::Equal {
                        port.ord = own_append.cmp(xu.unwrap_or(&one));
                    }
                }
                self.seq.push(own_append);
                self.my_x = None;
            }
            Phase::Status2 => {
                let me_active = self.active();
                let mut rank = 0u16;
                for (p, (port, m)) in self.ports.iter_mut().zip(incoming).enumerate() {
                    let a = matches!(m, VcMsg::Status(true));
                    port.nb_active = a;
                    // Phase I postcondition (Lemma 1): an unsaturated edge is
                    // multicoloured — so ord != Equal whenever both ends are
                    // active. Under fault injection the invariant can break
                    // transiently; requiring it here (rather than asserting)
                    // keeps the program total.
                    port.in_a = me_active && a && port.ord != Ordering::Equal;
                    if port.in_a && port.ord == Ordering::Less {
                        // My colour is lower: the edge is oriented away from
                        // me; it becomes my rank-th outgoing edge → forest.
                        port.forest = Some(rank);
                        self.forests[rank as usize].parent_port = Some(p);
                        rank += 1;
                    }
                }
            }
            Phase::Forest => {
                for (p, m) in incoming.iter().enumerate() {
                    if let VcMsg::Forest(Some(i)) = m {
                        if (*i as usize) < cfg.delta {
                            self.forests[*i as usize].children.push(p);
                        }
                    }
                }
                // Initialise Cole–Vishkin colours: the Lemma 2 code of my
                // Phase I sequence, in every forest I participate in. A
                // corrupted sequence falls back to a fixed valid code.
                let code = cfg
                    .encoder
                    .try_encode(&self.seq)
                    .unwrap_or_else(|| cfg.encoder.fallback_code::<V>());
                for i in 0..cfg.delta {
                    let forest = &self.forests[i];
                    if forest.parent_port.is_some() || !forest.children.is_empty() {
                        self.set_colour(i, code.clone());
                    }
                }
            }
            Phase::Cv => {
                for i in 0..cfg.delta {
                    let Some(own) = self.colours[i].as_ref() else { continue };
                    let parent = self.forests[i].parent_port.and_then(|p| match incoming[p] {
                        VcMsg::Colours(cs) => cs.get(i).and_then(Option::as_ref),
                        _ => None,
                    });
                    let new = match parent {
                        // A corrupted parent may echo our own colour; the
                        // root rule is a safe total fallback.
                        Some(pc) if pc != own => own.cv_step(pc),
                        _ => own.cv_step_root(),
                    };
                    self.set_colour(i, new);
                }
            }
            Phase::ShiftDown => {
                for i in 0..cfg.delta {
                    if self.colours[i].is_none() {
                        continue;
                    }
                    match self.forests[i].parent_port {
                        Some(p) => {
                            let pc = match incoming[p] {
                                VcMsg::Colours(cs) => cs.get(i).and_then(Option::as_ref),
                                _ => None,
                            };
                            // Clamp to the 6-colour palette (totality).
                            let c = pc.and_then(Colour::to_u64).unwrap_or(0).min(5);
                            self.set_colour(i, Colour::small(c));
                        }
                        None => {
                            // Root: pick the smallest colour in {0,1,2}
                            // different from my current one (children adopt my
                            // current one).
                            let cur = self.my_colour_small(i);
                            let new = (0..3).find(|&c| c != cur).unwrap();
                            self.set_colour(i, Colour::small(new));
                        }
                    }
                }
            }
            Phase::Eliminate { colour } => {
                for i in 0..cfg.delta {
                    if self.colours[i].is_none() || self.my_colour_small(i) != colour {
                        continue;
                    }
                    let mut forbidden = [false; 6];
                    let mut forbid = |m: &VcMsg<V>| {
                        if let VcMsg::Colours(cs) = m {
                            if let Some(Some(c)) = cs.get(i) {
                                if let Some(c) = c.to_u64() {
                                    forbidden[(c.min(5)) as usize] = true;
                                }
                            }
                        }
                    };
                    let forest = &self.forests[i];
                    if let Some(p) = forest.parent_port {
                        forbid(incoming[p]);
                    }
                    for &p in &forest.children {
                        forbid(incoming[p]);
                    }
                    // In a fault-free run, the shift-down guarantees parent +
                    // monochromatic children forbid ≤ 2 colours; under faults
                    // fall back to 0 (totality).
                    let new = (0u64..3).find(|&c| !forbidden[c as usize]).unwrap_or(0);
                    self.set_colour(i, Colour::small(new));
                }
            }
            Phase::StarResid(star) => {
                // Leaf: remember where I expect a grant.
                self.await_grant = self.star_leaf(star);
                // Root: gather residuals and compute grants now (send() is
                // immutable, so the decision is made here).
                let mut leaves: Vec<(usize, V)> = Vec::new();
                for (p, m) in incoming.iter().enumerate() {
                    if let VcMsg::Resid(ru) = m {
                        leaves.push((p, (*ru).clone()));
                    }
                }
                if leaves.is_empty() {
                    return None;
                }
                if !self.active() {
                    // I am saturated: all these edges are already saturated.
                    for (p, _) in leaves {
                        self.ports[p].pending_grant = Some(V::zero());
                    }
                    return None;
                }
                // Corrupted leaves may report non-positive residuals; drop
                // them (fault-free leaves always send positive values).
                leaves.retain(|(_, r)| r.is_positive());
                if leaves.is_empty() {
                    return None;
                }
                let total = anonet_bigmath::value::sum(leaves.iter().map(|(_, r)| r));
                if total < self.r {
                    // α < 1: saturate every leaf.
                    for (p, ru) in leaves {
                        let port = &mut self.ports[p];
                        port.y = port.y.add(&ru);
                        port.pending_grant = Some(ru);
                    }
                    self.r = self.r.sub(&total);
                } else {
                    // α ≥ 1: scale grants by r_v / Σ r_u, saturating me.
                    for (p, ru) in leaves {
                        let g = ru.mul(&self.r).div(&total);
                        let port = &mut self.ports[p];
                        port.y = port.y.add(&g);
                        port.pending_grant = Some(g);
                    }
                    self.r = V::zero();
                }
            }
            Phase::StarGrant(_) => {
                if let Some(p) = self.await_grant.take() {
                    // A corrupted root may fail to grant; skip (totality).
                    if let VcMsg::Grant(g) = incoming[p] {
                        let port = &mut self.ports[p];
                        port.y = port.y.add(g);
                        self.r = self.r.sub(g);
                    }
                }
                for port in self.ports.iter_mut() {
                    port.pending_grant = None;
                }
            }
        }

        (round == cfg.total_rounds()).then(|| VcOutput {
            in_cover: self.r.is_zero(),
            y: self.ports.iter().map(|p| p.y.clone()).collect(),
        })
    }
}

/// Result of a full §3 run: the packing, the cover, and instrumentation.
#[derive(Clone, Debug)]
pub struct VcRun<V> {
    /// The maximal edge packing found.
    pub packing: EdgePacking<V>,
    /// 2-approximate vertex cover (the saturated nodes), by node id.
    pub cover: Vec<bool>,
    /// Engine instrumentation (rounds = the full fixed schedule).
    pub trace: Trace,
}

/// Folds per-node §3 outputs into the cover and the per-edge packing,
/// asserting that the two endpoint copies of every edge value agree. This is
/// the one place raw `VcOutput`s become a `(cover, packing)` pair — the
/// synchronous entry points and the asynchronous-runtime consumers (which
/// hold raw outputs) both funnel through it.
///
/// # Panics
/// Panics if the endpoint copies of some `y(e)` disagree (cannot happen in a
/// fault-free §3 run — an internal consistency assertion).
pub fn fold_vc_outputs<V: PackingValue>(
    g: &Graph,
    outputs: &[VcOutput<V>],
) -> (Vec<bool>, EdgePacking<V>) {
    let packing = EdgePacking::from_ports(g, outputs.iter().map(|o| &o.y[..]));
    (outputs.iter().map(|o| o.in_cover).collect(), packing)
}

/// One §3 instance of a batched run: a graph, its node weights, and the
/// global bounds (Δ, W) the anonymous nodes are told.
#[derive(Clone, Copy, Debug)]
pub struct VcInstance<'a> {
    /// Communication graph.
    pub graph: &'a Graph,
    /// Node weights, indexed by node id.
    pub weights: &'a [u64],
    /// Maximum degree bound Δ.
    pub delta: usize,
    /// Maximum weight bound W.
    pub max_weight: u64,
}

impl<'a> VcInstance<'a> {
    /// An instance with bounds derived from the graph and weights.
    pub fn new(graph: &'a Graph, weights: &'a [u64]) -> Self {
        let delta = graph.max_degree();
        let max_weight = weights.iter().copied().max().unwrap_or(1).max(1);
        VcInstance { graph, weights, delta, max_weight }
    }

    /// An instance with explicit global bounds (Δ, W).
    pub fn with_bounds(
        graph: &'a Graph,
        weights: &'a [u64],
        delta: usize,
        max_weight: u64,
    ) -> Self {
        VcInstance { graph, weights, delta, max_weight }
    }
}

/// Runs the §3 algorithm on many independent instances across one pool of
/// `threads` workers, each instance through [`run_edge_packing_scratch`].
/// `results[i]` corresponds to `instances[i]`.
pub fn run_edge_packing_many<V: PackingValue>(
    instances: &[VcInstance<'_>],
    threads: usize,
) -> Vec<Result<VcRun<V>, SimError>> {
    BatchRunner::new(threads).map(instances, run_edge_packing_scratch)
}

/// Runs the §3 algorithm on one instance under its global bounds (Δ, W),
/// as one part on the calling thread, taking the engine's allocations from
/// and returning them to `scratch` — the one body every §3 entry point
/// (the batch, the service's pipeline, [`run_edge_packing`]) runs.
///
/// # Panics
/// Panics if some degree exceeds Δ or some weight lies outside 1..=W, or if
/// the two endpoint copies of an edge value disagree (cannot happen — checked
/// as an internal consistency assertion).
pub fn run_edge_packing_scratch<V: PackingValue>(
    inst: &VcInstance<'_>,
    scratch: &mut EngineScratch<EdgePackingNode<V>, PortNumbering>,
) -> Result<VcRun<V>, SimError> {
    let cfg = VcConfig::new(inst.delta, inst.max_weight);
    let res = run_engine_scratch::<EdgePackingNode<V>, PortNumbering>(
        inst.graph,
        &cfg,
        inst.weights,
        cfg.total_rounds(),
        scratch,
    )?;
    let (cover, packing) = fold_vc_outputs(inst.graph, &res.outputs);
    Ok(VcRun { packing, cover, trace: res.trace })
}

/// Runs the §3 algorithm deriving Δ and W from the instance.
pub fn run_edge_packing<V: PackingValue>(g: &Graph, weights: &[u64]) -> Result<VcRun<V>, SimError> {
    run_edge_packing_scratch(&VcInstance::new(g, weights), &mut EngineScratch::new())
}
