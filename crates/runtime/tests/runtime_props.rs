//! Property tests for the asynchronous runtime.
//!
//! The tentpole acceptance: under zero-delay lossless FIFO links the
//! runtime's outputs are **bit-identical** to the synchronous engine across
//! both delivery models and thread counts — including for the paper's §3
//! edge-packing PN algorithm and the §5 broadcast algorithm — and under a
//! lossy/jittered configuration with retransmission (plus churn) the §3
//! algorithm still terminates with a certified ≤ 2·OPT cover. Plus seeded
//! determinism: the same `NetworkConfig` seed yields an identical event
//! trace, witnessed by the full `AsyncTrace` including `event_hash`.

use anonet_bigmath::BigRat;
use anonet_core::certify::certify_vertex_cover;
use anonet_core::vc_bcast::{VcBcastConfig, VcBcastNode};
use anonet_core::vc_pn::{fold_vc_outputs, EdgePackingNode, VcConfig};
use anonet_gen::{family, Rng};
use anonet_runtime::{
    run_async_bcast, run_async_engine, run_async_pn, ChurnPlan, DelayModel, NetworkConfig,
};
use anonet_selfstab::FaultPlan;
use anonet_sim::{
    run_bcast, run_pn, BcastAlgorithm, Broadcast, Delivery, Engine, EngineScratch, Graph,
    PnAlgorithm, PortNumbering, RoundPool, RunResult,
};
use proptest::prelude::*;

/// PN hash workload with staggered halting (mirrors the engine props):
/// node v halts at round `(input % cfg) + 1`, so nodes finish at different
/// times and the runtime's halted-node default replies are exercised.
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

/// Broadcast census with the same staggered halting schedule (the multiset
/// fold is order-independent, so the output is a function of the multiset).
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

/// A random simple graph with a deterministic seed (may be disconnected,
/// may contain isolated nodes — both paths matter for the runtime).
fn seeded_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = Rng::new(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.chance(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("gnp is simple")
}

/// The synchronous oracle on an explicit `parts`-worker pool. `RoundPool::new`
/// never clamps, so every round really splits into `parts` parts on any box.
fn sync_on_parts<A: Send + Sync, D: Delivery<A>>(
    g: &Graph,
    cfg: &D::Config,
    inputs: &[D::Input],
    limit: u64,
    parts: usize,
) -> RunResult<D::Output> {
    let mut pool = RoundPool::new(parts);
    Engine::<A, D>::new(g, cfg, inputs, Some(&mut pool))
        .and_then(|engine| engine.run(limit, &mut EngineScratch::new()))
        .unwrap()
}

/// Weights in 1..=w for the §3 instances.
fn seeded_weights(n: usize, w: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xABCD);
    (0..n).map(|_| rng.range_u64(1, w)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Acceptance: zero-delay lossless FIFO runtime outputs are bit-identical
    /// to the synchronous engine in the port-numbering model, across engine
    /// thread counts.
    #[test]
    fn ideal_pn_bit_identical_to_engine(
        n in 2usize..32,
        p in 0.05f64..0.5,
        seed in any::<u64>(),
        spread in 1u64..7,
    ) {
        let g = seeded_gnp(n, p, seed);
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(seed | 1)).collect();
        let limit = spread + 2;
        let res = run_async_pn::<StaggerHash>(&g, &spread, &inputs, limit, &NetworkConfig::ideal())
            .unwrap();
        // `8` deliberately overshoots small CI boxes: oversubscribed parts
        // must keep the oracle bit-identical too.
        for threads in [1usize, 2, 4, 8] {
            let sync =
                sync_on_parts::<StaggerHash, PortNumbering>(&g, &spread, &inputs, limit, threads);
            prop_assert_eq!(&res.outputs, &sync.outputs, "t={}", threads);
        }
    }

    /// The same acceptance in the broadcast model.
    #[test]
    fn ideal_bcast_bit_identical_to_engine(
        n in 2usize..24,
        p in 0.05f64..0.6,
        seed in any::<u64>(),
        spread in 1u64..6,
    ) {
        let g = seeded_gnp(n, p, seed);
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul((seed >> 1) | 1)).collect();
        let limit = spread + 2;
        let res = run_async_bcast::<StaggerCensus>(&g, &spread, &inputs, limit, &NetworkConfig::ideal())
            .unwrap();
        for threads in [1usize, 4, 8] {
            let sync =
                sync_on_parts::<StaggerCensus, Broadcast>(&g, &spread, &inputs, limit, threads);
            prop_assert_eq!(&res.outputs, &sync.outputs, "t={}", threads);
        }
    }

    /// The synchronizer's stronger guarantee: outputs stay bit-identical to
    /// the synchronous engine under jitter, reordering, loss with
    /// retransmission, and churn — the network changes *when* messages
    /// arrive, never *what* a node consumes per round.
    #[test]
    fn adverse_network_preserves_outputs(
        n in 2usize..20,
        p in 0.1f64..0.5,
        seed in any::<u64>(),
        drop in 0.0f64..0.3,
    ) {
        let g = seeded_gnp(n, p, seed);
        let spread = 5u64;
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(seed | 1)).collect();
        let sync = run_pn::<StaggerHash>(&g, &spread, &inputs, spread + 2).unwrap();
        let net = NetworkConfig::ideal()
            .with_delays(DelayModel::Uniform { lo: 0, hi: 7 })
            .with_loss(drop, 4)
            .with_churn(ChurnPlan {
                plan: FaultPlan { rounds: vec![1, 3], fraction: 0.25, seed: seed ^ 0xC0FFEE },
                round_ticks: 5,
                downtime: 9,
            })
            .non_fifo()
            .with_seed(seed.wrapping_add(17));
        let res = run_async_pn::<StaggerHash>(&g, &spread, &inputs, spread + 2, &net).unwrap();
        prop_assert_eq!(&res.outputs, &sync.outputs);
    }

    /// The same adverse-network guarantee for the *broadcast* model:
    /// sorted-multiset gathering must canonicalise out-of-order, lossy,
    /// churny arrivals (including halted-node default replies) exactly like
    /// the synchronous engine.
    #[test]
    fn adverse_network_preserves_bcast_outputs(
        n in 2usize..18,
        p in 0.1f64..0.5,
        seed in any::<u64>(),
        drop in 0.0f64..0.25,
    ) {
        let g = seeded_gnp(n, p, seed);
        let spread = 4u64;
        let inputs: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(seed | 1)).collect();
        let sync = run_bcast::<StaggerCensus>(&g, &spread, &inputs, spread + 2).unwrap();
        let net = NetworkConfig::ideal()
            .with_delays(DelayModel::Uniform { lo: 0, hi: 6 })
            .with_loss(drop, 4)
            .with_churn(ChurnPlan {
                plan: FaultPlan { rounds: vec![2], fraction: 0.25, seed: seed ^ 0xBEEF },
                round_ticks: 4,
                downtime: 7,
            })
            .non_fifo()
            .with_seed(seed.wrapping_add(33));
        let res = run_async_bcast::<StaggerCensus>(&g, &spread, &inputs, spread + 2, &net).unwrap();
        prop_assert_eq!(&res.outputs, &sync.outputs);
    }

    /// Seeded determinism: the same `NetworkConfig` yields the identical
    /// event trace (every counter and the event-sequence digest); a
    /// different seed yields a different digest on any workload with
    /// randomness left to resolve.
    #[test]
    fn same_seed_same_event_trace(
        n in 3usize..20,
        p in 0.1f64..0.5,
        seed in any::<u64>(),
    ) {
        let g = seeded_gnp(n, p, seed);
        let spread = 4u64;
        let inputs: Vec<u64> = (0..n as u64).collect();
        let net = NetworkConfig::ideal()
            .with_delays(DelayModel::Exponential { mean: 5 })
            .with_loss(0.15, 6)
            .non_fifo()
            .with_seed(seed);
        let a = run_async_pn::<StaggerHash>(&g, &spread, &inputs, spread + 2, &net).unwrap();
        let b = run_async_pn::<StaggerHash>(&g, &spread, &inputs, spread + 2, &net).unwrap();
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(&a.trace, &b.trace);
    }

    /// Loss accounting cannot silently undercount: every drop is recorded,
    /// drops imply retransmissions, and the unique-receipt counters match
    /// the lossless run of the same workload (retransmission makes loss
    /// invisible at the algorithm level, visible in the wire accounting).
    #[test]
    fn loss_accounting_is_conserved(
        n in 3usize..16,
        p in 0.2f64..0.6,
        seed in any::<u64>(),
    ) {
        let g = seeded_gnp(n, p, seed);
        let spread = 4u64;
        let inputs: Vec<u64> = (0..n as u64).collect();
        let ideal = run_async_pn::<StaggerHash>(
            &g, &spread, &inputs, spread + 2, &NetworkConfig::ideal().with_seed(seed)).unwrap();
        let lossy = run_async_pn::<StaggerHash>(
            &g, &spread, &inputs, spread + 2,
            &NetworkConfig::ideal().with_loss(0.25, 3).with_seed(seed)).unwrap();
        prop_assert_eq!(lossy.trace.messages, ideal.trace.messages);
        prop_assert_eq!(lossy.trace.payload_bits, ideal.trace.payload_bits);
        if lossy.trace.dropped_data > 0 {
            prop_assert!(lossy.trace.retransmissions > 0);
            prop_assert!(lossy.trace.retransmitted_bits + lossy.trace.dropped_data_bits > 0);
        }
        // Every transmission was eventually delivered or accounted dropped
        // (some in-flight duplicates may remain when the run completes).
        prop_assert!(
            lossy.trace.delivered + lossy.trace.dropped_data
                <= lossy.trace.sent + lossy.trace.retransmissions
        );
    }
}

/// Runs §3 edge packing on both executors and checks bit-identical outputs.
fn assert_vc_pn_equivalent(g: &Graph, weights: &[u64], net: &NetworkConfig) {
    let cfg = VcConfig::new(g.max_degree(), weights.iter().copied().max().unwrap_or(1).max(1));
    let limit = cfg.total_rounds();
    let sync = run_pn::<EdgePackingNode<BigRat>>(g, &cfg, weights, limit).unwrap();
    let res =
        run_async_engine::<EdgePackingNode<BigRat>, PortNumbering>(g, &cfg, weights, limit, net)
            .unwrap();
    assert_eq!(res.outputs, sync.outputs, "§3 outputs must be bit-identical");
}

#[test]
fn vc_pn_ideal_equivalence_acceptance() {
    // The §3 edge-packing PN algorithm under zero delay, no loss, FIFO:
    // bit-identical outputs to the synchronous engine (the acceptance test),
    // across several graph families.
    for (g, seed) in [
        (family::cycle(9), 1u64),
        (family::petersen(), 2),
        (family::random_regular(20, 3, 11), 3),
        (family::random_tree(16, 4, 12), 4),
        (family::grid(4, 4), 5),
    ] {
        let w = seeded_weights(g.n(), 9, seed);
        assert_vc_pn_equivalent(&g, &w, &NetworkConfig::ideal());
    }
}

#[test]
fn vc_bcast_ideal_equivalence_acceptance() {
    // One broadcast algorithm (§5 vertex cover) under the ideal network:
    // bit-identical outputs to the synchronous engine.
    for (g, seed) in [(family::cycle(8), 6u64), (family::star(5), 7), (family::grid(3, 3), 8)] {
        let w = seeded_weights(g.n(), 5, seed);
        let cfg = VcBcastConfig::new(g.max_degree(), w.iter().copied().max().unwrap_or(1).max(1));
        let limit = cfg.total_rounds();
        let sync = run_bcast::<VcBcastNode<BigRat>>(&g, &cfg, &w, limit).unwrap();
        let res = run_async_engine::<VcBcastNode<BigRat>, Broadcast>(
            &g,
            &cfg,
            &w,
            limit,
            &NetworkConfig::ideal(),
        )
        .unwrap();
        assert_eq!(res.outputs, sync.outputs, "§5 outputs must be bit-identical");
    }
}

#[test]
fn vc_pn_lossy_jittered_terminates_with_certified_cover() {
    // Acceptance: under a lossy/jittered configuration with retransmission
    // (plus churn), §3 still terminates and produces a valid ≤ 2·OPT cover,
    // certified by the Bar-Yehuda–Even dual argument.
    for (i, g) in [family::random_regular(18, 3, 21), family::grid(4, 5), family::petersen()]
        .iter()
        .enumerate()
    {
        let weights = seeded_weights(g.n(), 8, 31 + i as u64);
        let net = NetworkConfig::ideal()
            .with_delays(DelayModel::PerLink { lo: 1, hi: 12, jitter: 4 })
            .with_loss(0.1, 8)
            .with_churn(ChurnPlan {
                plan: FaultPlan { rounds: vec![2, 6], fraction: 0.2, seed: 5 + i as u64 },
                round_ticks: 20,
                downtime: 30,
            })
            .non_fifo()
            .with_seed(100 + i as u64);
        let cfg = VcConfig::new(g.max_degree(), weights.iter().copied().max().unwrap().max(1));
        let res = run_async_engine::<EdgePackingNode<BigRat>, PortNumbering>(
            g,
            &cfg,
            &weights,
            cfg.total_rounds(),
            &net,
        )
        .unwrap();
        // Fold per-node outputs into the edge packing + cover and certify.
        let (cover, packing) = fold_vc_outputs(g, &res.outputs);
        let cert = certify_vertex_cover(g, &weights, &packing, &cover)
            .expect("§3 guarantees must hold under loss/churn");
        assert!(cert.certified_ratio() <= 2.0 + 1e-9);
        assert!(res.trace.crashes > 0, "churn must have struck");
    }
}

#[test]
fn isolated_and_tiny_graphs() {
    // Isolated nodes self-drive; single edges exercise the minimal
    // synchronizer handshake.
    let g = Graph::from_edges(4, &[(1, 2)]).unwrap();
    let spread = 3u64;
    let inputs = vec![7u64, 8, 9, 10];
    let sync = run_pn::<StaggerHash>(&g, &spread, &inputs, 10).unwrap();
    for net in [
        NetworkConfig::ideal(),
        NetworkConfig::ideal().with_delays(DelayModel::Constant(3)).with_seed(2),
        NetworkConfig::ideal().with_loss(0.3, 2).with_seed(3),
    ] {
        let res = run_async_pn::<StaggerHash>(&g, &spread, &inputs, 10, &net).unwrap();
        assert_eq!(res.outputs, sync.outputs);
    }
}
