//! §4: maximal fractional packing — and hence f-approximate minimum-weight
//! set cover — in **O(f²k² + fk·log\*W)** rounds in the **broadcast model**.
//!
//! Both subset nodes and elements run the same node program (they are all
//! computational entities of the bipartite graph H); the role comes from the
//! local input. Writing `D = (k−1)·f` (the degree bound of the implicit
//! multigraph K of length-2 paths), the fixed schedule per iteration
//! `j ∈ {1, …, D+1}` is:
//!
//! | rounds       | phase                                                    |
//! |--------------|----------------------------------------------------------|
//! | `5(D+1)`     | saturation phase for each colour i (steps (i)–(vi), §4.3) |
//! | `2`          | saturation-status refresh + χ-colouring c₁ from p(u)      |
//! | `2·T_cv`     | weak colour reduction (§4.5), two broadcast rounds per Cole–Vishkin step |
//! | `10(D+1)`    | trivial colour reduction 6(D+1) → D+1, two rounds per class |
//!
//! plus two final rounds so subsets learn their saturation status. One
//! deliberate deviation from the paper text: §4.5 claims repeated
//! Cole–Vishkin yields a weak **3**-colouring, but the CV fixpoint is 6
//! colours and the standard 6→3 shift-down is only sound on rooted trees,
//! not on the DAG B (nodes may have successors of several colours). We stop
//! at a weak **6**-colouring and set `c₃ = 6c + c₂`; every property the proof
//! uses — (a) B′ edges become multicoloured, (b) multicoloured edges of K
//! stay multicoloured — is preserved, and only the constant in O(D) changes.

use crate::encode::{cv_step, cv_step_root, CvSchedule, SeqEncoder};
use crate::packing::FractionalPacking;
use anonet_bigmath::{PackingValue, UBig};
use anonet_sim::{
    run_engine_scratch, BatchRunner, BcastAlgorithm, Broadcast, EngineScratch, MessageSize,
    SetCoverInstance, SimError, Trace,
};
use std::sync::Arc;

/// Global configuration: the paper's f, k, W and derived quantities.
#[derive(Clone, Debug)]
pub struct ScConfig {
    /// Maximum element degree f.
    pub f: usize,
    /// Maximum subset size k.
    pub k: usize,
    /// Maximum subset weight W.
    pub max_weight: u64,
    /// `D = (k−1)·f`, the degree bound of K.
    pub d: usize,
    /// The §4.4 encoder for `c₁` (scale `(k!)^((D+1)²)`).
    pub encoder: SeqEncoder,
    /// Cole–Vishkin steps for the weak colour reduction.
    pub cv_steps: u32,
    /// `schedule[r − 1]` is the phase of round r, for every round of the
    /// schedule.
    schedule: Box<[ScPhase]>,
}

impl ScConfig {
    /// Builds the configuration for bounds (f, k, W).
    pub fn new(f: usize, k: usize, max_weight: u64) -> ScConfig {
        assert!(f >= 1 && k >= 1, "need f, k >= 1");
        assert!(max_weight >= 1, "W must be at least 1");
        let d = (k - 1) * f;
        let scale = UBig::factorial(k as u64).pow(((d + 1) * (d + 1)) as u64);
        let encoder = SeqEncoder::single(scale, max_weight);
        let cv_steps = CvSchedule::for_bound(&encoder.code_bound()).steps;
        let mut cfg = ScConfig { f, k, max_weight, d, encoder, cv_steps, schedule: Box::default() };
        let total = cfg.colours() as u64 * cfg.per_iter() + 2;
        cfg.schedule = (1..=total).map(|round| cfg.closed_form_phase(round)).collect();
        cfg
    }

    /// Number of colours `D + 1`.
    pub fn colours(&self) -> usize {
        self.d + 1
    }

    /// Rounds per iteration: `15(D+1) + 2 + 2·T_cv`.
    fn per_iter(&self) -> u64 {
        15 * self.colours() as u64 + 2 + 2 * self.cv_steps as u64
    }

    /// Total schedule length: `(D+1)·per_iter + 2` — the Theorem 2 bound
    /// O(f²k² + fk·log\*W) with explicit constants.
    pub fn total_rounds(&self) -> u64 {
        self.schedule.len() as u64
    }

    /// The phase of 1-based `round ≤ total_rounds()`, a lookup in the
    /// precomputed schedule (every node halts in the last round).
    #[inline]
    fn phase(&self, round: u64) -> ScPhase {
        self.schedule[(round - 1) as usize]
    }

    /// The phase of 1-based `round` in closed form; fills the schedule.
    fn closed_form_phase(&self, round: u64) -> ScPhase {
        let r0 = round - 1; // 0-based
        let per = self.per_iter();
        let iters_end = self.colours() as u64 * per;
        if r0 >= iters_end {
            return match r0 - iters_end {
                0 => ScPhase::FinalY,
                _ => ScPhase::FinalResid,
            };
        }
        let rel = r0 % per;
        let sat_len = 5 * self.colours() as u64;
        if rel < sat_len {
            return ScPhase::Sat {
                colour: (rel / 5) as u32,
                step: (rel % 5) as u8,
                iter_start: rel == 0,
            };
        }
        let rel = rel - sat_len;
        if rel == 0 {
            return ScPhase::StatusY;
        }
        if rel == 1 {
            return ScPhase::StatusResid;
        }
        let rel = rel - 2;
        if rel < 2 * self.cv_steps as u64 {
            return ScPhase::WeakCv {
                sub: (rel % 2) as u8,
                last_step: rel / 2 == self.cv_steps as u64 - 1,
            };
        }
        let rel = rel - 2 * self.cv_steps as u64;
        let class_idx = rel / 2;
        ScPhase::Reduce {
            colour: (6 * self.colours() as u64 - 1 - class_idx) as u32,
            sub: (rel % 2) as u8,
            last_class: class_idx == 5 * self.colours() as u64 - 1,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScPhase {
    /// Saturation phase (§4.3) for one colour; `step` is (i)–(v) as 0..5.
    Sat { colour: u32, step: u8, iter_start: bool },
    /// Colouring-phase status refresh: elements broadcast y.
    StatusY,
    /// Colouring-phase status refresh: subsets broadcast residuals.
    StatusResid,
    /// Weak colour reduction (§4.5), one CV step = 2 broadcast sub-rounds.
    WeakCv { sub: u8, last_step: bool },
    /// Trivial colour reduction class; `colour` is the class being eliminated.
    Reduce { colour: u32, sub: u8, last_class: bool },
    /// Final round: elements broadcast y.
    FinalY,
    /// Final round: subsets broadcast residuals.
    FinalResid,
}

/// Wire messages of the §4 algorithm (broadcast model: `Ord` lets the engine
/// canonicalise the incoming multiset).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScMsg<V> {
    /// No content.
    #[default]
    Nil,
    /// Element: current `y(u)`.
    Y(V),
    /// Subset: current residual `r_y(s)`.
    Resid(V),
    /// Element: "I am in `U_yi`".
    InUyi,
    /// Subset: `x_i(s)`.
    X(V),
    /// Element: `p(u)`.
    P(V),
    /// Element (weak CV sub-round 1): `(c′(v), c(v), p(v))`.
    Triple(UBig, u32, V),
    /// Subset (weak CV sub-round 2): `{(c′(v), i, x_i(s)) : p(v) = q_i(s)}`,
    /// sorted, shared by every send of the round.
    Triples(Arc<[(UBig, u32, V)]>),
    /// Element (reduction sub-round 1): current colour `c₃`.
    Col(u32),
    /// Subset (reduction sub-round 2): set of element colours seen, sorted,
    /// shared by every send of the round.
    Cols(Arc<[u32]>),
}

impl<V: PackingValue> MessageSize for ScMsg<V> {
    fn approx_bits(&self) -> u64 {
        match self {
            ScMsg::Nil | ScMsg::InUyi => 1,
            ScMsg::Y(v) | ScMsg::Resid(v) | ScMsg::X(v) | ScMsg::P(v) => v.wire_bits(),
            ScMsg::Triple(c, _, p) => c.bits() + 32 + p.wire_bits(),
            ScMsg::Triples(ts) => {
                64 + ts.iter().map(|(c, _, x)| c.bits() + 32 + x.wire_bits()).sum::<u64>()
            }
            ScMsg::Col(_) => 32,
            ScMsg::Cols(cs) => 64 + 32 * cs.len() as u64,
        }
    }
}

/// Node state: either a subset node or an element node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScNode<V> {
    /// A subset node `s ∈ S`.
    Subset(SubsetState<V>),
    /// An element `u ∈ U`.
    Element(ElementState<V>),
}

impl<V: PackingValue> ScNode<V> {
    /// Element view `(y, saturated, colour)` — trace instrumentation for the
    /// Fig. 1 worked example (a real node cannot be observed like this).
    pub fn element_view(&self) -> Option<(&V, bool, u32)> {
        match self {
            ScNode::Element(e) => Some((&e.y, e.saturated, e.c)),
            ScNode::Subset(_) => None,
        }
    }

    /// Subset view `(residual,)` — trace instrumentation.
    pub fn subset_resid(&self) -> Option<&V> {
        match self {
            ScNode::Subset(s) => Some(&s.resid),
            ScNode::Element(_) => None,
        }
    }
}

/// Subset-node state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetState<V> {
    weight: V,
    /// Residual `r_y(s)` (recomputed whenever elements broadcast y).
    resid: V,
    /// `x_i(s)` per colour of the current iteration.
    x: Vec<Option<V>>,
    /// `q_i(s)` per colour of the current iteration.
    q: Vec<Option<V>>,
    /// Triples to broadcast in the next weak-CV sub-round.
    pending_triples: Arc<[(UBig, u32, V)]>,
    /// Colour set to broadcast in the next reduction sub-round.
    pending_cols: Arc<[u32]>,
}

/// Element-node state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElementState<V> {
    /// Current improper colouring `c(u) ∈ {0, …, D}` (paper: 1..D+1).
    c: u32,
    /// `y(u)`.
    y: V,
    /// Whether some neighbouring subset is saturated (monotone).
    saturated: bool,
    /// Membership in `U_yi` for the current saturation phase.
    in_uyi: bool,
    /// `p(u)` from this iteration's saturation phase (for colour c(u)).
    p: Option<V>,
    /// Weak-CV working colour `c′(u)`.
    cprime: Option<UBig>,
    /// `c₃(u)` during the trivial reduction.
    c3: u32,
}

/// Per-node output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScOutput<V> {
    /// Subset node output.
    Subset {
        /// Whether the subset is saturated, i.e. joins the cover.
        in_cover: bool,
    },
    /// Element node output.
    Element {
        /// Final `y(u)`.
        y: V,
        /// Whether the element ended saturated (Theorem 2: always true).
        saturated: bool,
    },
}

impl<V: PackingValue> BcastAlgorithm for ScNode<V> {
    type Msg = ScMsg<V>;
    type Input = Option<u64>;
    type Output = ScOutput<V>;
    type Config = ScConfig;

    fn init(cfg: &ScConfig, degree: usize, input: &Option<u64>) -> Self {
        match input {
            Some(w) => {
                assert!(degree <= cfg.k, "subset size {degree} exceeds k = {}", cfg.k);
                assert!(
                    *w >= 1 && *w <= cfg.max_weight,
                    "weight {w} outside 1..=W = {}",
                    cfg.max_weight
                );
                ScNode::Subset(SubsetState {
                    weight: V::from_u64(*w),
                    resid: V::from_u64(*w),
                    x: vec![None; cfg.colours()],
                    q: vec![None; cfg.colours()],
                    pending_triples: Arc::from([]),
                    pending_cols: Arc::from([]),
                })
            }
            None => {
                assert!(degree <= cfg.f, "element degree {degree} exceeds f = {}", cfg.f);
                ScNode::Element(ElementState {
                    c: 0,
                    y: V::zero(),
                    saturated: false,
                    in_uyi: false,
                    p: None,
                    cprime: None,
                    c3: 0,
                })
            }
        }
    }

    fn send(&self, cfg: &ScConfig, round: u64) -> ScMsg<V> {
        match (self, cfg.phase(round)) {
            // ---- saturation phase (§4.3) ----
            (ScNode::Element(e), ScPhase::Sat { step: 0, .. }) => ScMsg::Y(e.y.clone()),
            (ScNode::Subset(s), ScPhase::Sat { step: 1, .. }) => ScMsg::Resid(s.resid.clone()),
            (ScNode::Element(e), ScPhase::Sat { step: 2, .. }) => {
                if e.in_uyi {
                    ScMsg::InUyi
                } else {
                    ScMsg::Nil
                }
            }
            (ScNode::Subset(s), ScPhase::Sat { colour, step: 3, .. }) => {
                match &s.x[colour as usize] {
                    Some(x) => ScMsg::X(x.clone()),
                    None => ScMsg::Nil,
                }
            }
            (ScNode::Element(e), ScPhase::Sat { step: 4, .. }) => {
                if e.in_uyi {
                    ScMsg::P(e.p.clone().expect("U_yi element has p"))
                } else {
                    ScMsg::Nil
                }
            }
            // ---- colouring-phase status refresh / final rounds ----
            (ScNode::Element(e), ScPhase::StatusY) | (ScNode::Element(e), ScPhase::FinalY) => {
                ScMsg::Y(e.y.clone())
            }
            (ScNode::Subset(s), ScPhase::StatusResid)
            | (ScNode::Subset(s), ScPhase::FinalResid) => ScMsg::Resid(s.resid.clone()),
            // ---- weak colour reduction (§4.5) ----
            (ScNode::Element(e), ScPhase::WeakCv { sub: 0, .. }) => {
                if e.saturated {
                    ScMsg::Nil
                } else {
                    ScMsg::Triple(
                        e.cprime.clone().expect("unsaturated element has c′"),
                        e.c,
                        e.p.clone().expect("unsaturated element has p"),
                    )
                }
            }
            (ScNode::Subset(s), ScPhase::WeakCv { sub: 1, .. }) => {
                ScMsg::Triples(Arc::clone(&s.pending_triples))
            }
            // ---- trivial colour reduction ----
            (ScNode::Element(e), ScPhase::Reduce { sub: 0, .. }) => {
                if e.saturated {
                    ScMsg::Nil
                } else {
                    ScMsg::Col(e.c3)
                }
            }
            (ScNode::Subset(s), ScPhase::Reduce { sub: 1, .. }) => {
                ScMsg::Cols(Arc::clone(&s.pending_cols))
            }
            _ => ScMsg::Nil,
        }
    }

    /// Exactly one role speaks per round, and the other role's receive
    /// ignores the all-`Nil` multiset it would get. Subsets read every
    /// round in which elements speak. An element reads only while
    /// unsaturated (a saturated element never changes again): the
    /// residuals of step (ii), `StatusResid` and `FinalResid`, the `X`
    /// offers of step (iv) while in `U_yi`, the triples of weak-CV
    /// sub-round 2, and the colour sets of its own reduction class.
    fn listens(&self, cfg: &ScConfig, round: u64) -> bool {
        let phase = cfg.phase(round);
        match self {
            ScNode::Subset(_) => matches!(
                phase,
                ScPhase::Sat { step: 0 | 2 | 4, .. }
                    | ScPhase::StatusY
                    | ScPhase::WeakCv { sub: 0, .. }
                    | ScPhase::Reduce { sub: 0, .. }
                    | ScPhase::FinalY
            ),
            ScNode::Element(e) => {
                !e.saturated
                    && match phase {
                        ScPhase::Sat { step: 1, .. }
                        | ScPhase::StatusResid
                        | ScPhase::WeakCv { sub: 1, .. }
                        | ScPhase::FinalResid => true,
                        ScPhase::Sat { step: 3, .. } => e.in_uyi,
                        ScPhase::Reduce { colour, sub: 1, .. } => e.c3 == colour,
                        _ => false,
                    }
            }
        }
    }

    fn receive(
        &mut self,
        cfg: &ScConfig,
        round: u64,
        incoming: &[&ScMsg<V>],
    ) -> Option<ScOutput<V>> {
        let phase = cfg.phase(round);
        match (&mut *self, phase) {
            // ---- saturation phase ----
            (ScNode::Subset(s), ScPhase::Sat { step: 0, iter_start, .. }) => {
                if iter_start {
                    s.x.iter_mut().for_each(|x| *x = None);
                    s.q.iter_mut().for_each(|q| *q = None);
                }
                s.recompute_resid(incoming);
            }
            (ScNode::Element(e), ScPhase::Sat { step: 0, iter_start, .. })
                if iter_start => {
                    e.p = None;
                    e.cprime = None;
                }
            (ScNode::Element(e), ScPhase::Sat { colour, step: 1, .. }) => {
                e.update_saturated(incoming);
                e.in_uyi = !e.saturated && e.c == colour;
            }
            (ScNode::Subset(s), ScPhase::Sat { colour, step: 2, .. }) => {
                let cnt = incoming.iter().filter(|m| matches!(m, ScMsg::InUyi)).count();
                s.x[colour as usize] = (cnt > 0).then(|| s.resid.div(&V::from_u64(cnt as u64)));
            }
            (ScNode::Element(e), ScPhase::Sat { step: 3, .. })
                if e.in_uyi => {
                    let p = incoming
                        .iter()
                        .filter_map(|m| match m {
                            ScMsg::X(x) => Some(x),
                            _ => None,
                        })
                        .min()
                        .expect("every neighbour of a U_yi element is in S'")
                        .clone();
                    e.p = Some(p);
                }
            (ScNode::Subset(s), ScPhase::Sat { colour, step: 4, .. }) => {
                s.q[colour as usize] = incoming
                    .iter()
                    .filter_map(|m| match m {
                        ScMsg::P(p) => Some(p),
                        _ => None,
                    })
                    .min()
                    .cloned();
            }
            (ScNode::Element(e), ScPhase::Sat { step: 4, .. })
                // Step (vi): y(u) ← y(u) + p(u).
                if e.in_uyi => {
                    e.y = e.y.add(e.p.as_ref().unwrap());
                    e.in_uyi = false;
                }
            // ---- colouring phase: status refresh + c₁ ----
            (ScNode::Subset(s), ScPhase::StatusY) => s.recompute_resid(incoming),
            (ScNode::Element(e), ScPhase::StatusResid) => {
                e.update_saturated(incoming);
                if !e.saturated {
                    // χ-colouring c₁ of B: the Lemma-2-style code of p(u).
                    let p = e.p.as_ref().expect("unsaturated element has p").clone();
                    e.cprime = Some(cfg.encoder.encode(std::slice::from_ref(&p)));
                }
            }
            // ---- weak colour reduction ----
            (ScNode::Subset(s), ScPhase::WeakCv { sub: 0, .. }) => {
                let mut triples = Vec::new();
                for m in incoming {
                    if let ScMsg::Triple(cp, i, p) = m {
                        if s.q[*i as usize].as_ref() == Some(p) {
                            let x = s.x[*i as usize].clone().expect("q_i set implies x_i set");
                            triples.push((cp.clone(), *i, x));
                        }
                    }
                }
                triples.sort();
                triples.dedup();
                if *s.pending_triples != *triples {
                    s.pending_triples = triples.into();
                }
            }
            (ScNode::Element(e), ScPhase::WeakCv { sub: 1, last_step })
                if !e.saturated => {
                    let own = e.cprime.as_ref().unwrap();
                    let p = e.p.as_ref().unwrap();
                    // ℓ(u) = min L(u): smallest successor colour ≠ own.
                    let mut ell: Option<&UBig> = None;
                    for m in incoming {
                        if let ScMsg::Triples(ts) = m {
                            for (cp, i, x) in ts.iter() {
                                if *i == e.c && x == p && cp != own {
                                    ell = Some(match ell {
                                        Some(cur) if cur <= cp => cur,
                                        _ => cp,
                                    });
                                }
                            }
                        }
                    }
                    let new = match ell {
                        Some(l) => cv_step(own, l),
                        None => cv_step_root(own),
                    };
                    e.cprime = Some(new);
                    if last_step {
                        let c2 = e.cprime.as_ref().unwrap().to_u64().expect("c₂ ≤ 5");
                        debug_assert!(c2 <= 5);
                        e.c3 = 6 * e.c + c2 as u32;
                    }
                }
            // ---- trivial colour reduction ----
            (ScNode::Subset(s), ScPhase::Reduce { sub: 0, .. }) => {
                let mut cols: Vec<u32> = incoming
                    .iter()
                    .filter_map(|m| match m {
                        ScMsg::Col(c) => Some(*c),
                        _ => None,
                    })
                    .collect();
                cols.sort_unstable();
                cols.dedup();
                // Consecutive classes often see the same colours (saturated
                // subsets see none): keep the shared payload then.
                if *s.pending_cols != *cols {
                    s.pending_cols = cols.into();
                }
            }
            (ScNode::Element(e), ScPhase::Reduce { colour, sub: 1, last_class }) => {
                if !e.saturated && e.c3 == colour {
                    // Recolour into {0, …, D}, avoiding every K-neighbour
                    // colour different from my own: the smallest free
                    // colour, searched 64 at a time over the sorted sets.
                    let mut base = 0u32;
                    let free = loop {
                        let mut used = 0u64;
                        for m in incoming {
                            if let ScMsg::Cols(cs) = m {
                                let from = cs.partition_point(|&c| c < base);
                                for &c in cs[from..].iter().take_while(|&&c| c - base < 64) {
                                    if c != e.c3 {
                                        used |= 1u64 << (c - base);
                                    }
                                }
                            }
                        }
                        if used != u64::MAX {
                            break base + used.trailing_ones();
                        }
                        base += 64;
                    };
                    assert!(
                        (free as usize) < cfg.colours(),
                        "≤ D distinct K-neighbours, palette has D+1 colours"
                    );
                    e.c3 = free;
                }
                if last_class && !e.saturated {
                    debug_assert!((e.c3 as usize) < cfg.colours());
                    e.c = e.c3;
                }
            }
            // ---- final status ----
            (ScNode::Subset(s), ScPhase::FinalY) => s.recompute_resid(incoming),
            (ScNode::Element(e), ScPhase::FinalResid) => e.update_saturated(incoming),
            _ => {}
        }

        (round == cfg.total_rounds()).then(|| match self {
            ScNode::Subset(s) => ScOutput::Subset { in_cover: s.resid.is_zero() },
            ScNode::Element(e) => ScOutput::Element { y: e.y.clone(), saturated: e.saturated },
        })
    }
}

impl<V: PackingValue> SubsetState<V> {
    fn recompute_resid(&mut self, incoming: &[&ScMsg<V>]) {
        let mut load = V::zero();
        for m in incoming {
            match m {
                ScMsg::Y(y) => load = load.add(y),
                other => panic!("subset expected Y messages, got {other:?}"),
            }
        }
        self.resid = self.weight.sub(&load);
        debug_assert!(self.resid >= V::zero(), "packing exceeded subset weight");
    }
}

impl<V: PackingValue> ElementState<V> {
    fn update_saturated(&mut self, incoming: &[&ScMsg<V>]) {
        for m in incoming {
            match m {
                ScMsg::Resid(r) => {
                    if r.is_zero() {
                        self.saturated = true;
                    }
                }
                other => panic!("element expected Resid messages, got {other:?}"),
            }
        }
    }
}

/// Result of a full §4 run.
#[derive(Clone, Debug)]
pub struct ScRun<V> {
    /// The maximal fractional packing found.
    pub packing: FractionalPacking<V>,
    /// f-approximate set cover (saturated subsets), by subset index.
    pub cover: Vec<bool>,
    /// Engine instrumentation.
    pub trace: Trace,
}

/// One §4 instance of a batched run with explicit global bounds (f, k, W) —
/// the bounds every anonymous node is told, which fix the round schedule.
#[derive(Clone, Copy, Debug)]
pub struct ScInstance<'a> {
    /// The bipartite set-cover instance.
    pub inst: &'a SetCoverInstance,
    /// Maximum element frequency bound f.
    pub f: usize,
    /// Maximum subset size bound k.
    pub k: usize,
    /// Maximum weight bound W.
    pub max_weight: u64,
}

impl<'a> ScInstance<'a> {
    /// An instance with bounds derived from the instance itself.
    pub fn new(inst: &'a SetCoverInstance) -> Self {
        ScInstance {
            inst,
            f: inst.f().max(1),
            k: inst.k().max(1),
            max_weight: inst.max_weight().max(1),
        }
    }

    /// An instance with explicit global bounds (f, k, W).
    pub fn with_bounds(inst: &'a SetCoverInstance, f: usize, k: usize, max_weight: u64) -> Self {
        ScInstance { inst, f, k, max_weight }
    }
}

/// Runs the §4 algorithm on many independent instances with explicit
/// per-instance bounds across one pool of `threads` workers, each instance
/// through [`run_fractional_packing_scratch`]. `results[i]` corresponds to
/// `instances[i]`.
pub fn run_fractional_packing_many_with<V: PackingValue>(
    instances: &[ScInstance<'_>],
    threads: usize,
) -> Vec<Result<ScRun<V>, SimError>> {
    BatchRunner::new(threads).map(instances, run_fractional_packing_scratch)
}

/// Runs the §4 algorithm on one instance under its global bounds
/// (f, k, W), as one part on the calling thread, taking the engine's
/// allocations from and returning them to `scratch` — the one body every §4
/// entry point (the batch, the service's pipeline,
/// [`run_fractional_packing`]) runs. Per-node outputs fold into the packing
/// and the cover.
pub fn run_fractional_packing_scratch<V: PackingValue>(
    inst: &ScInstance<'_>,
    scratch: &mut EngineScratch<ScNode<V>, Broadcast>,
) -> Result<ScRun<V>, SimError> {
    let sc = inst.inst;
    let cfg = ScConfig::new(inst.f, inst.k, inst.max_weight);
    // Per-node inputs: a subset's weight, `None` for an element.
    let inputs: Vec<Option<u64>> =
        (0..sc.graph.n()).map(|v| sc.is_subset(v).then(|| sc.weights[v])).collect();
    let res = run_engine_scratch::<ScNode<V>, Broadcast>(
        &sc.graph,
        &cfg,
        &inputs,
        cfg.total_rounds(),
        scratch,
    )?;
    let mut y = vec![V::zero(); sc.n_elements()];
    let mut cover = vec![false; sc.n_subsets];
    for (v, out) in res.outputs.iter().enumerate() {
        match out {
            ScOutput::Subset { in_cover } => cover[v] = *in_cover,
            ScOutput::Element { y: yu, .. } => y[v - sc.n_subsets] = yu.clone(),
        }
    }
    Ok(ScRun { packing: FractionalPacking { y }, cover, trace: res.trace })
}

/// Runs the §4 algorithm deriving (f, k, W) from the instance.
pub fn run_fractional_packing<V: PackingValue>(
    inst: &SetCoverInstance,
) -> Result<ScRun<V>, SimError> {
    run_fractional_packing_scratch(&ScInstance::new(inst), &mut EngineScratch::new())
}
