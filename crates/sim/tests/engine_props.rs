//! Property tests for the simulator: the unified engine, which sweeps only
//! the not-yet-halted frontier, is bit-identical — outputs *and* traces — to
//! a naive seed-semantics reference that sweeps every node every round,
//! across pool widths for both delivery models (on random graphs and on
//! graphs with isolated nodes) and for algorithms that
//! mix uniform and per-port sends; every adopter's uniform send agrees with
//! its per-port send; broadcast is sender-oblivious under arbitrary port
//! permutations; lifts project; and instrumentation accounting matches the
//! all-nodes-send model.

use anonet_baselines::bchs::{BchsConfig, BchsNode};
use anonet_baselines::kvy_eps::{KvyConfig, KvyNode};
use anonet_bench::{halting_inputs, HaltingGossip};
use anonet_bigmath::BigRat;
use anonet_core::vc_pn::{EdgePackingNode, VcConfig};
use anonet_sim::cover::{check_lift_outputs, lift};
use anonet_sim::{
    run_bcast, run_pn, BcastAlgorithm, Broadcast, Delivery, Engine, EngineScratch, Graph,
    MessageSize, PnAlgorithm, PnEngine, PortNumbering, RoundPool, RunResult, SimError, Trace,
};
use proptest::prelude::*;
use std::fmt::Debug;

/// One pool per part count the multi-part checks run at. `RoundPool::new`
/// never clamps, so each pool splits every round into that many parts and
/// runs them on that many real workers, even on a one-core box.
fn pools() -> [RoundPool; 4] {
    [1, 2, 4, 8].map(RoundPool::new)
}

/// Runs `A` under `D` to completion on `pool`, one part per worker, through
/// `scratch`.
fn run_on<A: Send + Sync, D: Delivery<A>>(
    g: &Graph,
    cfg: &D::Config,
    inputs: &[D::Input],
    limit: u64,
    pool: &mut RoundPool,
    scratch: &mut EngineScratch<A, D>,
) -> Result<RunResult<D::Output>, SimError> {
    Engine::<A, D>::with_scratch(g, cfg, inputs, Some(pool), scratch)?.run(limit, scratch)
}

/// A PN test algorithm with non-trivial state: iterated neighbourhood
/// hashing (a fingerprint of the local view, different per port order).
struct ViewHash {
    h: u64,
    rounds: u64,
}

impl PnAlgorithm for ViewHash {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = u64; // rounds to run

    fn init(_cfg: &u64, degree: usize, input: &u64) -> Self {
        ViewHash { h: *input ^ (degree as u64).wrapping_mul(0x9E37), rounds: 0 }
    }
    fn send(&self, _cfg: &u64, _round: u64, out: &mut [u64]) {
        for (p, m) in out.iter_mut().enumerate() {
            *m = self.h.wrapping_add(p as u64);
        }
    }
    fn receive(&mut self, cfg: &u64, round: u64, incoming: &[&u64]) -> Option<u64> {
        for (p, &&m) in incoming.iter().enumerate() {
            self.h = self
                .h
                .rotate_left(7)
                .wrapping_mul(0x100000001B3)
                .wrapping_add(m)
                .wrapping_add(p as u64);
        }
        self.rounds = round;
        (round >= *cfg).then_some(self.h)
    }
}

/// Broadcast census: multiset fingerprint of the 2-hop neighbourhood.
struct Census {
    h: u64,
}

impl BcastAlgorithm for Census {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = u64;

    fn init(_cfg: &u64, degree: usize, input: &u64) -> Self {
        Census { h: input.wrapping_mul(31).wrapping_add(degree as u64) }
    }
    fn send(&self, _cfg: &u64, _round: u64) -> u64 {
        self.h
    }
    fn receive(&mut self, cfg: &u64, round: u64, incoming: &[&u64]) -> Option<u64> {
        // Sorted multiset (enforced by the engine) folded order-dependently:
        // the result is a function of the multiset only.
        for &&m in incoming {
            self.h = self.h.rotate_left(9).wrapping_add(m);
        }
        (round >= *cfg).then_some(self.h)
    }
}

/// PN hash with *staggered halting*: node v halts at round
/// `(input % cfg) + 1`, so the active frontier shrinks round by round —
/// exactly the shape the engine's halted-frontier sweep must get right.
struct StaggerHash {
    h: u64,
    halt_at: u64,
}

impl PnAlgorithm for StaggerHash {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = u64; // halting-round spread

    fn init(cfg: &u64, degree: usize, input: &u64) -> Self {
        StaggerHash { h: *input ^ (degree as u64).wrapping_mul(0x9E37), halt_at: input % cfg + 1 }
    }
    fn send(&self, _cfg: &u64, round: u64, out: &mut [u64]) {
        for (p, m) in out.iter_mut().enumerate() {
            *m = self.h.wrapping_add(round).wrapping_add(p as u64);
        }
    }
    fn receive(&mut self, _cfg: &u64, round: u64, incoming: &[&u64]) -> Option<u64> {
        for (p, &&m) in incoming.iter().enumerate() {
            self.h = self.h.rotate_left(7).wrapping_mul(0x100000001B3).wrapping_add(m ^ p as u64);
        }
        (round >= self.halt_at).then_some(self.h)
    }
}

/// A message type for [`MixedHash`]: how a hash becomes a message and
/// back.
trait MixMsg: Clone + Default + Send + Sync + MessageSize + 'static {
    fn make(x: u64) -> Self;
    fn read(&self) -> u64;
}

/// Fixed width: the engine accounts whole chunks at once.
impl MixMsg for u64 {
    fn make(x: u64) -> Self {
        x
    }
    fn read(&self) -> u64 {
        *self
    }
}

/// Variable width: the engine accounts node by node.
impl MixMsg for Option<u64> {
    fn make(x: u64) -> Self {
        (x % 4 != 0).then_some(x)
    }
    fn read(&self) -> u64 {
        self.unwrap_or(0x55)
    }
}

/// PN hash with staggered halting whose nodes switch between uniform and
/// per-port sends from round to round. In every fourth round all of them
/// send uniformly and in the round after none does; in the others each
/// node picks by its hash, so one round's gather reads node slots and arc
/// slots side by side.
struct MixedHash<M> {
    h: u64,
    halt_at: u64,
    _msg: std::marker::PhantomData<M>,
}

impl<M: MixMsg> PnAlgorithm for MixedHash<M> {
    type Msg = M;
    type Input = u64;
    type Output = u64;
    type Config = u64; // halting-round spread

    fn init(cfg: &u64, degree: usize, input: &u64) -> Self {
        let h = *input ^ (degree as u64).wrapping_mul(0x9E37);
        MixedHash { h, halt_at: input % cfg + 1, _msg: std::marker::PhantomData }
    }
    fn send(&self, cfg: &u64, round: u64, out: &mut [M]) {
        if let Some(m) = self.send_uniform(cfg, round) {
            out.fill(m);
            return;
        }
        for (p, m) in out.iter_mut().enumerate() {
            *m = M::make(self.h.wrapping_add(round).wrapping_add(p as u64));
        }
    }
    fn send_uniform(&self, _cfg: &u64, round: u64) -> Option<M> {
        let pick = match round % 4 {
            0 => 1,
            1 => 2,
            _ => (self.h ^ round) % 3,
        };
        match pick {
            0 => Some(M::default()),
            1 => Some(M::make(self.h.wrapping_mul(round))),
            _ => None,
        }
    }
    fn receive(&mut self, _cfg: &u64, round: u64, incoming: &[&M]) -> Option<u64> {
        for (p, m) in incoming.iter().enumerate() {
            self.h =
                self.h.rotate_left(7).wrapping_mul(0x100000001B3).wrapping_add(m.read() ^ p as u64);
        }
        (round >= self.halt_at).then_some(self.h)
    }
}

/// Broadcast census with the same staggered halting schedule.
struct StaggerCensus {
    h: u64,
    halt_at: u64,
}

impl BcastAlgorithm for StaggerCensus {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Config = u64;

    fn init(cfg: &u64, degree: usize, input: &u64) -> Self {
        StaggerCensus {
            h: input.wrapping_mul(31).wrapping_add(degree as u64),
            halt_at: input % cfg + 1,
        }
    }
    fn send(&self, _cfg: &u64, round: u64) -> u64 {
        self.h.wrapping_add(round)
    }
    fn receive(&mut self, _cfg: &u64, round: u64, incoming: &[&u64]) -> Option<u64> {
        for &&m in incoming {
            self.h = self.h.rotate_left(9).wrapping_add(m);
        }
        (round >= self.halt_at).then_some(self.h)
    }
}

/// Naive reference simulator with the seed engine's exact semantics —
/// single-threaded, sweeps *every* node *every* round, measures the whole
/// buffer. The oracle the unified engine must match bit for bit.
fn reference_pn<A: PnAlgorithm>(
    g: &Graph,
    cfg: &A::Config,
    inputs: &[A::Input],
    max_rounds: u64,
) -> RunResult<A::Output> {
    let n = g.n();
    let mut states: Vec<A> = (0..n).map(|v| A::init(cfg, g.degree(v), &inputs[v])).collect();
    let mut outputs: Vec<Option<A::Output>> = vec![None; n];
    let mut buf: Vec<A::Msg> = (0..g.arcs()).map(|_| A::Msg::default()).collect();
    let mut trace = Trace::default();
    for round in 1..=max_rounds {
        for slot in buf.iter_mut() {
            *slot = A::Msg::default();
        }
        for v in 0..n {
            if outputs[v].is_none() {
                states[v].send(cfg, round, &mut buf[g.arc_range(v)]);
            }
        }
        for m in &buf {
            let b = m.approx_bits();
            trace.total_bits += b;
            trace.max_message_bits = trace.max_message_bits.max(b);
        }
        trace.messages += g.arcs() as u64;
        for v in 0..n {
            if outputs[v].is_some() {
                continue;
            }
            let refs: Vec<&A::Msg> = g.arc_range(v).map(|a| &buf[g.rev(a)]).collect();
            outputs[v] = states[v].receive(cfg, round, &refs);
        }
        trace.rounds = round;
        if outputs.iter().all(Option::is_some) {
            break;
        }
    }
    RunResult { outputs: outputs.into_iter().map(|o| o.expect("halted")).collect(), trace }
}

/// Broadcast twin of [`reference_pn`].
fn reference_bcast<A: BcastAlgorithm>(
    g: &Graph,
    cfg: &A::Config,
    inputs: &[A::Input],
    max_rounds: u64,
) -> RunResult<A::Output> {
    let n = g.n();
    let mut states: Vec<A> = (0..n).map(|v| A::init(cfg, g.degree(v), &inputs[v])).collect();
    let mut outputs: Vec<Option<A::Output>> = vec![None; n];
    let mut buf: Vec<A::Msg> = (0..n).map(|_| A::Msg::default()).collect();
    let mut trace = Trace::default();
    for round in 1..=max_rounds {
        for (v, slot) in buf.iter_mut().enumerate() {
            *slot =
                if outputs[v].is_some() { A::Msg::default() } else { states[v].send(cfg, round) };
        }
        for (v, m) in buf.iter().enumerate() {
            let b = m.approx_bits();
            trace.total_bits += b * g.degree(v) as u64;
            trace.max_message_bits = trace.max_message_bits.max(b);
        }
        trace.messages += g.arcs() as u64;
        for v in 0..n {
            if outputs[v].is_some() {
                continue;
            }
            let mut multiset: Vec<&A::Msg> = g.neighbors(v).map(|(_, u)| &buf[u]).collect();
            multiset.sort();
            if let Some(out) = states[v].receive(cfg, round, &multiset) {
                outputs[v] = Some(out);
            }
        }
        trace.rounds = round;
        if outputs.iter().all(Option::is_some) {
            break;
        }
    }
    RunResult { outputs: outputs.into_iter().map(|o| o.expect("halted")).collect(), trace }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Tentpole acceptance: the unified engine — on 1, 2, 4 and 8 parts,
    /// fresh or with **reused scratch** — is bit-identical (outputs and
    /// Trace) to the seed-semantics reference, in the port-numbering model,
    /// on a random graph and on the [`isolated_graphs`].
    #[test]
    fn pn_engine_bit_identical_to_reference(
        n in 2usize..40,
        p in 0.05f64..0.5,
        seed in any::<u64>(),
        spread in 1u64..7,
    ) {
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(seed | 1)).collect();
        let limit = spread + 2;
        let mut pools = pools();
        for g in std::iter::once(seeded_gnp(n, p, seed)).chain(isolated_graphs(n)) {
            let base = reference_pn::<StaggerHash>(&g, &spread, &inputs, limit);
            let mut scratch = EngineScratch::new();
            for pool in &mut pools {
                let threads = pool.width();
                let res = run_on::<StaggerHash, PortNumbering>(
                    &g, &spread, &inputs, limit, pool, &mut EngineScratch::new()).unwrap();
                prop_assert_eq!(&res.outputs, &base.outputs, "t={}", threads);
                prop_assert_eq!(&res.trace, &base.trace, "t={}", threads);
                let reused = run_on::<StaggerHash, PortNumbering>(
                    &g, &spread, &inputs, limit, pool, &mut scratch).unwrap();
                prop_assert_eq!(&reused.outputs, &base.outputs, "scratch t={}", threads);
                prop_assert_eq!(&reused.trace, &base.trace, "scratch t={}", threads);
            }
        }
    }

    /// Uniform sends: an algorithm whose nodes mix uniform and per-port
    /// rounds is bit-identical to the reference, which only ever calls the
    /// per-port `send` — with fixed-width and variable-width messages, on
    /// every part count, fresh and with reused scratch.
    #[test]
    fn pn_mixed_uniform_sends_bit_identical_to_reference(
        n in 2usize..40,
        p in 0.05f64..0.5,
        seed in any::<u64>(),
        spread in 1u64..7,
    ) {
        let g = seeded_gnp(n, p, seed);
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(seed | 1)).collect();
        let limit = spread + 2;
        check_mixed::<u64>(&g, spread, &inputs, limit)?;
        check_mixed::<Option<u64>>(&g, spread, &inputs, limit)?;
    }

    /// Same acceptance in the broadcast model.
    #[test]
    fn bcast_engine_bit_identical_to_reference(
        n in 2usize..30,
        p in 0.05f64..0.6,
        seed in any::<u64>(),
        spread in 1u64..6,
    ) {
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul((seed >> 1) | 1)).collect();
        let limit = spread + 2;
        let mut pools = pools();
        for g in std::iter::once(seeded_gnp(n, p, seed)).chain(isolated_graphs(n)) {
            let base = reference_bcast::<StaggerCensus>(&g, &spread, &inputs, limit);
            let mut scratch = EngineScratch::new();
            for pool in &mut pools {
                let threads = pool.width();
                let res = run_on::<StaggerCensus, Broadcast>(
                    &g, &spread, &inputs, limit, pool, &mut EngineScratch::new()).unwrap();
                prop_assert_eq!(&res.outputs, &base.outputs, "t={}", threads);
                prop_assert_eq!(&res.trace, &base.trace, "t={}", threads);
                let reused = run_on::<StaggerCensus, Broadcast>(
                    &g, &spread, &inputs, limit, pool, &mut scratch).unwrap();
                prop_assert_eq!(&reused.outputs, &base.outputs, "scratch t={}", threads);
                prop_assert_eq!(&reused.trace, &base.trace, "scratch t={}", threads);
            }
        }
    }

    /// Skewed-degree graphs — a star hub over every node plus a binary-tree
    /// backbone, i.e. a power-law-flavoured degree profile — are exactly the
    /// shape whose arcs the old node-count partition crammed into one part.
    /// The arc-weight partition must keep outputs and Trace bit-identical to
    /// the reference for every part count and scratch reuse (this case would have caught an imbalance-fix bug; the balance
    /// itself is asserted by the `partition_weighted` unit tests).
    #[test]
    fn pn_engine_bit_identical_on_skewed_degrees(
        n in 8usize..64,
        seed in any::<u64>(),
        spread in 1u64..7,
    ) {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((2..n).map(|v| (v, v / 2))); // v/2 >= 1, never a star duplicate
        let g = Graph::from_edges(n, &edges).unwrap();
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(seed | 1)).collect();
        let limit = spread + 2;
        let base = reference_pn::<StaggerHash>(&g, &spread, &inputs, limit);
        let mut scratch = EngineScratch::new();
        for pool in &mut pools() {
            let threads = pool.width();
            let res = run_on::<StaggerHash, PortNumbering>(
                &g, &spread, &inputs, limit, pool, &mut scratch).unwrap();
            prop_assert_eq!(&res.outputs, &base.outputs, "t={}", threads);
            prop_assert_eq!(&res.trace, &base.trace, "t={}", threads);
        }
    }

    /// The broadcast twin of the skewed-degree case (one slot per node, but
    /// gather work is still degree-weighted).
    #[test]
    fn bcast_engine_bit_identical_on_skewed_degrees(
        n in 8usize..48,
        seed in any::<u64>(),
        spread in 1u64..6,
    ) {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((2..n).map(|v| (v, v / 2))); // v/2 >= 1, never a star duplicate
        let g = Graph::from_edges(n, &edges).unwrap();
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul((seed >> 1) | 1)).collect();
        let limit = spread + 2;
        let base = reference_bcast::<StaggerCensus>(&g, &spread, &inputs, limit);
        let mut scratch = EngineScratch::new();
        for pool in &mut pools() {
            let threads = pool.width();
            let res = run_on::<StaggerCensus, Broadcast>(
                &g, &spread, &inputs, limit, pool, &mut scratch).unwrap();
            prop_assert_eq!(&res.outputs, &base.outputs, "t={}", threads);
            prop_assert_eq!(&res.trace, &base.trace, "t={}", threads);
        }
    }

    #[test]
    fn pn_parallel_equals_sequential(
        n in 2usize..40,
        p in 0.05f64..0.5,
        seed in any::<u64>(),
        rounds in 1u64..6,
        threads in 2usize..9,
    ) {
        let g = seeded_gnp(n, p, seed);
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(seed | 1)).collect();
        let a = run_pn::<ViewHash>(&g, &rounds, &inputs, rounds + 1).unwrap();
        let mut pool = RoundPool::new(threads);
        let b = run_on::<ViewHash, PortNumbering>(
            &g, &rounds, &inputs, rounds + 1, &mut pool, &mut EngineScratch::new()).unwrap();
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(&a.trace, &b.trace);
    }

    #[test]
    fn bcast_is_sender_oblivious(
        n in 2usize..30,
        p in 0.1f64..0.6,
        seed in any::<u64>(),
        perm_seed in any::<u64>(),
        rounds in 1u64..5,
    ) {
        let g = seeded_gnp(n, p, seed);
        let inputs: Vec<u64> = (0..n as u64).collect();
        let base = run_bcast::<Census>(&g, &rounds, &inputs, rounds + 1).unwrap();
        // Arbitrary per-node port permutation must not change anything.
        let mut state = perm_seed | 1;
        let permuted = g.reorder_ports(|_, old| {
            let mut v = old.to_vec();
            for i in (1..v.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99991);
                v.swap(i, (state % (i as u64 + 1)) as usize);
            }
            v
        });
        let twisted = run_bcast::<Census>(&permuted, &rounds, &inputs, rounds + 1).unwrap();
        prop_assert_eq!(base.outputs, twisted.outputs);
    }

    #[test]
    fn pn_lift_outputs_project(
        n in 3usize..16,
        p in 0.1f64..0.6,
        seed in any::<u64>(),
        k in 2usize..5,
        rounds in 1u64..4,
    ) {
        let g = seeded_gnp(n, p, seed);
        let inputs: Vec<u64> = (0..n as u64).collect();
        let base = run_pn::<ViewHash>(&g, &rounds, &inputs, rounds + 1).unwrap();
        let l = lift(&g, k, seed ^ 0xFACE);
        let lifted_inputs: Vec<u64> =
            (0..l.graph.n()).map(|vp| inputs[l.projection[vp]]).collect();
        let lifted = run_pn::<ViewHash>(&l.graph, &rounds, &lifted_inputs, rounds + 1).unwrap();
        prop_assert_eq!(check_lift_outputs(&l, &base.outputs, &lifted.outputs), None);
    }

    #[test]
    fn trace_accounting(
        n in 2usize..20,
        p in 0.1f64..0.6,
        seed in any::<u64>(),
        rounds in 1u64..5,
    ) {
        let g = seeded_gnp(n, p, seed);
        let inputs: Vec<u64> = (0..n as u64).collect();
        let res = run_pn::<ViewHash>(&g, &rounds, &inputs, rounds + 1).unwrap();
        prop_assert_eq!(res.trace.rounds, rounds);
        prop_assert_eq!(res.trace.messages, rounds * g.arcs() as u64);
        // Every u64 message is 64 bits.
        prop_assert_eq!(res.trace.total_bits, rounds * g.arcs() as u64 * 64);
        prop_assert_eq!(res.trace.max_message_bits, if g.arcs() > 0 { 64 } else { 0 });
    }

    #[test]
    fn graph_invariants(n in 1usize..30, p in 0.0f64..0.8, seed in any::<u64>()) {
        let g = seeded_gnp(n, p, seed);
        // Handshake lemma and arc pairing.
        let degree_sum: usize = (0..g.n()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
        prop_assert_eq!(g.arcs(), 2 * g.m());
        for a in 0..g.arcs() {
            prop_assert_eq!(g.rev(g.rev(a)), a);
            prop_assert_eq!(g.tail(g.rev(a)), g.head(a));
        }
        // adjacency() round-trips.
        let g2 = Graph::from_adjacency(g.adjacency()).unwrap();
        prop_assert_eq!(g2, g);
    }
}

/// [`MixedHash`] with message type `M` on 1, 2, 4 and 8 parts, fresh and
/// with reused scratch, against the per-arc reference.
fn check_mixed<M: MixMsg>(
    g: &Graph,
    spread: u64,
    inputs: &[u64],
    limit: u64,
) -> Result<(), TestCaseError> {
    let base = reference_pn::<MixedHash<M>>(g, &spread, inputs, limit);
    let mut scratch = EngineScratch::new();
    for pool in &mut pools() {
        let threads = pool.width();
        let res = run_on::<MixedHash<M>, PortNumbering>(
            g,
            &spread,
            inputs,
            limit,
            pool,
            &mut EngineScratch::new(),
        )
        .unwrap();
        prop_assert_eq!(&res.outputs, &base.outputs, "t={}", threads);
        prop_assert_eq!(&res.trace, &base.trace, "t={}", threads);
        let reused =
            run_on::<MixedHash<M>, PortNumbering>(g, &spread, inputs, limit, pool, &mut scratch)
                .unwrap();
        prop_assert_eq!(&reused.outputs, &base.outputs, "scratch t={}", threads);
        prop_assert_eq!(&reused.trace, &base.trace, "scratch t={}", threads);
    }
    Ok(())
}

/// Steps `A` for at most `limit` rounds and, before every round, checks
/// every node's `send_uniform` against its `send`: whenever the former
/// returns `Some(m)`, the latter writes `m` on every port. The engine
/// relies on the first and the asynchronous runtime on the second, so the
/// two must never disagree. Returns `(uniform, per_port)`: how many
/// (node, round) pairs took each path.
fn uniform_sends_agree<A: PnAlgorithm>(
    g: &Graph,
    cfg: &A::Config,
    inputs: &[A::Input],
    limit: u64,
) -> (u64, u64)
where
    A::Msg: PartialEq + Debug,
{
    let mut engine = PnEngine::<A>::new(g, cfg, inputs, None).unwrap();
    let (mut uniform, mut per_port) = (0, 0);
    while engine.round() < limit {
        let round = engine.round() + 1;
        for (v, state) in engine.states().iter().enumerate() {
            let mut out = vec![A::Msg::default(); g.degree(v)];
            state.send(cfg, round, &mut out);
            match state.send_uniform(cfg, round) {
                Some(m) => {
                    assert!(
                        out.iter().all(|x| *x == m),
                        "node {v}, round {round}: send wrote {out:?}, send_uniform said {m:?}"
                    );
                    uniform += 1;
                }
                None => per_port += 1,
            }
        }
        if engine.step() {
            break;
        }
    }
    (uniform, per_port)
}

/// The fixed-seed instances the adopter checks run on: (graph, weights).
fn adopter_instances() -> Vec<(Graph, Vec<u64>)> {
    [(12usize, 0.3f64, 1u64), (24, 0.2, 2), (24, 0.35, 3), (40, 0.1, 4)]
        .into_iter()
        .map(|(n, p, seed)| {
            let g = seeded_gnp(n, p, seed);
            let w = (0..n as u64).map(|v| (v.wrapping_mul(seed * 0x9E37 + 1) >> 3) % 1000 + 1);
            (g, w.collect())
        })
        .collect()
}

/// §3 (every phase of the full schedule), the KVY and BCHS baselines, and
/// the engine benchmark's `HaltingGossip` all send uniformly where their
/// `send` writes one value on every port — and some of their rounds take
/// each path.
#[test]
fn adopters_send_uniform_agrees_with_send() {
    let (mut uniform, mut per_port) = ([0u64; 4], [0u64; 4]);
    let mut tally = |i: usize, (u, p): (u64, u64)| {
        uniform[i] += u;
        per_port[i] += p;
    };
    for (g, w) in adopter_instances() {
        let max_w = w.iter().copied().max().unwrap_or(1);
        let cfg = VcConfig::new(g.max_degree(), max_w);
        let rounds = cfg.total_rounds();
        tally(0, uniform_sends_agree::<EdgePackingNode<BigRat>>(&g, &cfg, &w, rounds));
        let kvy = KvyConfig { eps_num: 1, eps_den: 4 };
        tally(1, uniform_sends_agree::<KvyNode<BigRat>>(&g, &kvy, &w, 10_000));
        let bchs = BchsConfig { eps_num: 1, eps_den: 4, max_weight: max_w };
        tally(2, uniform_sends_agree::<BchsNode<BigRat>>(&g, &bchs, &w, 10_000));
        let gossip = halting_inputs(g.n(), |v| v % 5 + 1);
        tally(3, uniform_sends_agree::<HaltingGossip>(&g, &(), &gossip, 10));
    }
    for (i, name) in ["§3", "KVY", "BCHS", "HaltingGossip"].into_iter().enumerate() {
        assert!(uniform[i] > 0, "{name}: no uniform send was exercised");
    }
    // Per-port sends remain where a node has something port-specific to
    // say; the gossip is uniform throughout.
    for (i, name) in ["§3", "KVY", "BCHS"].into_iter().enumerate() {
        assert!(per_port[i] > 0, "{name}: no per-port send was exercised");
    }
    assert_eq!(per_port[3], 0, "HaltingGossip is uniform in every round");
}

/// Fixed graphs on which the models' fixed-width max-bits rules part: an
/// isolated node adds nothing to the port-numbering max but its message's
/// width to the broadcast max. The edgeless graph on `n` nodes, and a star
/// over the first `n/2 + 1` nodes with the rest isolated.
fn isolated_graphs(n: usize) -> [Graph; 2] {
    let star: Vec<(usize, usize)> = (1..=n / 2).map(|v| (0, v)).collect();
    [Graph::from_edges(n, &[]).unwrap(), Graph::from_edges(n, &star).unwrap()]
}

/// Seeded G(n, p) without pulling `anonet-gen` into `sim`'s dev-deps.
fn seeded_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut state = seed | 1;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if ((state >> 11) as f64 / (1u64 << 53) as f64) < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

#[test]
fn message_size_is_observed() {
    // Vec messages: bits counted per entry.
    struct Wide;
    impl PnAlgorithm for Wide {
        type Msg = Vec<u64>;
        type Input = ();
        type Output = ();
        type Config = ();
        fn init(_: &(), _d: usize, _i: &()) -> Self {
            Wide
        }
        fn send(&self, _: &(), _r: u64, out: &mut [Vec<u64>]) {
            for m in out {
                *m = vec![0; 10];
            }
        }
        fn receive(&mut self, _: &(), _r: u64, inc: &[&Vec<u64>]) -> Option<()> {
            let _ = inc;
            Some(())
        }
    }
    let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
    let res = run_pn::<Wide>(&g, &(), &[(), ()], 2).unwrap();
    assert_eq!(res.trace.max_message_bits, vec![0u64; 10].approx_bits());
}
