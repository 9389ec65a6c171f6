//! Correctness suite for the §4 fractional-packing algorithm and the §5
//! broadcast-model simulation: feasibility, maximality (Theorem 2), the
//! f-approximation certificate, exact round schedules, the Fig. 3 symmetry
//! lower bound, and §4-on-incidence ≡ §5-on-G equivalence.

use anonet_bigmath::{AutoRat, BigRat, PackingValue};
use anonet_core::certify::certify_set_cover;
use anonet_core::packing::FractionalPacking;
use anonet_core::sc_bcast::{
    run_fractional_packing, run_fractional_packing_many_with, run_fractional_packing_scratch,
    ScConfig, ScInstance, ScMsg, ScNode, ScOutput, ScRun,
};
use anonet_core::trivial::{run_trivial, trivial_bound};
use anonet_core::vc_bcast::{incidence_instance, run_vc_broadcast, VcBcastConfig};
use anonet_core::vc_pn::run_edge_packing;
use anonet_gen::{family, reduction, setcover, WeightSpec};
use anonet_sim::{
    BcastAlgorithm, BcastEngine, EngineScratch, Graph, RoundPool, SetCoverInstance, Trace,
};
use proptest::prelude::*;

/// All §4 guarantees in one checker.
fn check_sc<V: PackingValue>(inst: &SetCoverInstance) {
    let run = run_fractional_packing::<V>(inst).expect("run completes");
    assert!(run.packing.is_feasible(inst), "packing must be feasible");
    assert!(run.packing.is_maximal(inst), "packing must be maximal (Theorem 2)");
    assert_eq!(run.cover, run.packing.saturated_subsets(inst));
    assert!(inst.is_cover(&run.cover), "saturated subsets must cover U");
    // Full certificate.
    let cert = certify_set_cover(inst, &run.packing, &run.cover).expect("certificate");
    assert!(cert.certified_ratio() <= inst.f().max(1) as f64 + 1e-9);
    // Exact schedule.
    let cfg = ScConfig::new(inst.f().max(1), inst.k().max(1), inst.max_weight());
    assert_eq!(run.trace.rounds, cfg.total_rounds(), "schedule must be exact");
}

#[test]
fn batched_runner_matches_individual_sc_runs() {
    let instances: Vec<SetCoverInstance> = (0..4u64)
        .map(|seed| setcover::random_bounded(12, 8, 2, 3, WeightSpec::Uniform(20), seed))
        .collect();
    for threads in [1usize, 3] {
        let refs: Vec<ScInstance<'_>> = instances.iter().map(ScInstance::new).collect();
        let batch = run_fractional_packing_many_with::<BigRat>(&refs, threads);
        for (inst, run) in instances.iter().zip(batch) {
            let run = run.unwrap();
            let solo = run_fractional_packing::<BigRat>(inst).unwrap();
            assert_eq!(run.cover, solo.cover, "threads={threads}");
            assert_eq!(run.packing.y, solo.packing.y, "threads={threads}");
            assert_eq!(run.trace, solo.trace, "threads={threads}");
        }
    }
}

#[test]
fn tiny_single_subset() {
    // One subset covering one element: must saturate.
    let inst = SetCoverInstance::new(1, &[vec![0]], vec![7]).unwrap();
    let run = run_fractional_packing::<BigRat>(&inst).unwrap();
    assert_eq!(run.cover, vec![true]);
    assert_eq!(run.packing.y[0], BigRat::from_u64(7));
    check_sc::<BigRat>(&inst);
}

#[test]
fn two_subsets_shared_element() {
    // e0 ∈ s0, s1 with w = (3, 5): y(e0) grows to 3 saturating s0.
    let inst = SetCoverInstance::new(1, &[vec![0], vec![0]], vec![3, 5]).unwrap();
    let run = run_fractional_packing::<BigRat>(&inst).unwrap();
    assert_eq!(run.packing.y[0], BigRat::from_u64(3));
    assert_eq!(run.cover, vec![true, false]);
    check_sc::<BigRat>(&inst);
}

#[test]
fn chain_instance() {
    // s0={e0,e1} s1={e1,e2} s2={e2,e3}, weights mixed.
    let inst =
        SetCoverInstance::new(4, &[vec![0, 1], vec![1, 2], vec![2, 3]], vec![4, 9, 2]).unwrap();
    check_sc::<BigRat>(&inst);
    check_sc::<AutoRat>(&inst);
}

#[test]
fn schedule_formula_and_growth() {
    // total = (D+1)(15(D+1) + 2 + 2 T_cv) + 2 with D = (k-1)f.
    for (f, k, w) in [(1usize, 1usize, 1u64), (2, 2, 10), (3, 4, 1 << 16), (2, 5, u64::MAX)] {
        let cfg = ScConfig::new(f, k, w);
        let d = (k - 1) * f;
        assert_eq!(cfg.d, d);
        let per = 15 * (d as u64 + 1) + 2 + 2 * cfg.cv_steps as u64;
        assert_eq!(cfg.total_rounds(), (d as u64 + 1) * per + 2);
        // log* term stays tiny even for astronomically large χ.
        assert!(cfg.cv_steps <= 7);
    }
    // O(f²k²) shape: doubling k roughly quadruples rounds for fixed f.
    let r2 = ScConfig::new(2, 2, 100).total_rounds();
    let r4 = ScConfig::new(2, 4, 100).total_rounds();
    assert!(r4 > 3 * r2 && r4 < 16 * r2, "r2={r2} r4={r4}");
}

#[test]
fn random_bounded_instances() {
    for seed in 0..4u64 {
        let inst = setcover::random_bounded(12, 8, 2, 4, WeightSpec::Uniform(20), seed);
        check_sc::<BigRat>(&inst);
    }
}

#[test]
fn grid_coverage_instance() {
    let inst = setcover::grid_coverage(6, 6, 3, 2, WeightSpec::Uniform(8), 5);
    check_sc::<BigRat>(&inst);
}

#[test]
fn fig3_symmetric_kpp_forces_ratio_p() {
    // §6 / Fig. 3: on the symmetric K_{p,p}, any deterministic PN algorithm
    // outputs all p subsets (OPT = 1) — our broadcast algorithm included.
    for p in 1..=4usize {
        let inst = setcover::symmetric_kpp(p, 1);
        let run = run_fractional_packing::<BigRat>(&inst).unwrap();
        assert_eq!(run.cover, vec![true; p], "p = {p}: all subsets saturated");
        check_sc::<BigRat>(&inst);
        // The trivial algorithm fares no better (it picks min-weight = all
        // tie-broken... one per element, but by symmetry that is port 0 of
        // each element — still p distinct subsets? No: each element picks its
        // own port-0 subset (m + 0) mod p = m — p distinct subsets again.
        let triv = run_trivial(&inst).unwrap();
        assert_eq!(triv.cover.iter().filter(|&&b| b).count(), p);
    }
}

#[test]
fn trivial_k_approx_on_reduction_instance() {
    // Fig. 4 instance: trivial algorithm covers; bound w(C) ≤ Σ_u min w.
    let inst = reduction::cycle_cover_instance(12, 3);
    let run = run_trivial(&inst).unwrap();
    assert!(inst.is_cover(&run.cover));
    let (w, bound) = trivial_bound::<BigRat>(&inst, &run.cover);
    assert!(w <= bound);
    // §4 on the same instance: f-approx with f = p = 3.
    check_sc::<BigRat>(&inst);
}

#[test]
fn weighted_kpp_breaks_symmetry() {
    // Distinct weights break the symmetry: the cheapest subset should
    // saturate and the ratio improves over p.
    let inst = SetCoverInstance::with_ports(
        &[vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]],
        &[vec![0, 2, 1], vec![1, 0, 2], vec![2, 1, 0]],
        vec![1, 50, 50],
    )
    .unwrap();
    let run = run_fractional_packing::<BigRat>(&inst).unwrap();
    assert!(run.cover[0], "cheap subset must saturate");
    check_sc::<BigRat>(&inst);
}

#[test]
fn rat128_matches_bigrat_sc() {
    for seed in 0..3u64 {
        let inst = setcover::random_bounded(8, 6, 2, 3, WeightSpec::Uniform(12), seed);
        let a = run_fractional_packing::<BigRat>(&inst).unwrap();
        let b = run_fractional_packing::<AutoRat>(&inst).unwrap();
        assert_eq!(a.cover, b.cover, "seed {seed}");
        for (u, (ya, yb)) in a.packing.y.iter().zip(&b.packing.y).enumerate() {
            assert!(!yb.is_promoted(), "element {u} left the Rat128 arm");
            assert_eq!(yb.to_bigrat(), *ya, "element {u}");
        }
    }
}

#[test]
fn explicit_bounds_with_slack() {
    let inst = setcover::random_bounded(10, 6, 2, 3, WeightSpec::Uniform(9), 3);
    let run = run_fractional_packing_scratch::<BigRat>(
        &ScInstance::with_bounds(&inst, 3, 5, 100),
        &mut EngineScratch::new(),
    )
    .unwrap();
    assert!(run.packing.is_maximal(&inst));
    assert_eq!(run.trace.rounds, ScConfig::new(3, 5, 100).total_rounds());
}

#[test]
fn parallel_matches_sequential_sc() {
    let inst = setcover::random_bounded(20, 12, 2, 4, WeightSpec::Uniform(16), 9);
    let seq = run_fractional_packing_scratch::<BigRat>(
        &ScInstance::with_bounds(&inst, 2, 4, 16),
        &mut EngineScratch::new(),
    )
    .unwrap();
    // `RoundPool::new` never clamps: every round runs as 4 parts on any box.
    let cfg = ScConfig::new(2, 4, 16);
    let inputs: Vec<Option<u64>> =
        (0..inst.graph.n()).map(|v| inst.is_subset(v).then(|| inst.weights[v])).collect();
    let mut pool = RoundPool::new(4);
    let res = BcastEngine::<ScNode<BigRat>>::new(&inst.graph, &cfg, &inputs, Some(&mut pool))
        .and_then(|engine| engine.run(cfg.total_rounds(), &mut EngineScratch::new()))
        .unwrap();
    let mut par =
        ScRun { packing: FractionalPacking { y: vec![] }, cover: vec![], trace: res.trace };
    for out in res.outputs {
        match out {
            ScOutput::Subset { in_cover } => par.cover.push(in_cover),
            ScOutput::Element { y, .. } => par.packing.y.push(y),
        }
    }
    assert_eq!(seq.cover, par.cover);
    assert_eq!(seq.packing, par.packing);
    assert_eq!(seq.trace, par.trace);
}

/// Runs §4 round by round without the engine, gathering every node's real
/// multiset. Wherever a node says it does not listen, it also receives `&[]`
/// on a copy of its state, and both copies must end equal with equal
/// outputs: the `listens` contract. Returns the outputs of the full-gather
/// run and how many (node, round) pairs did not listen.
fn full_gather_run<V: PackingValue>(inst: &SetCoverInstance) -> (Vec<ScOutput<V>>, u64) {
    let g = &inst.graph;
    let cfg = ScConfig::new(inst.f().max(1), inst.k().max(1), inst.max_weight().max(1));
    let mut states: Vec<ScNode<V>> = (0..g.n())
        .map(|v| ScNode::init(&cfg, g.degree(v), &inst.is_subset(v).then(|| inst.weights[v])))
        .collect();
    let mut outputs: Vec<Option<ScOutput<V>>> = vec![None; g.n()];
    let mut deaf_pairs = 0;
    for round in 1..=cfg.total_rounds() {
        let sent: Vec<ScMsg<V>> = states.iter().map(|s| s.send(&cfg, round)).collect();
        for (v, state) in states.iter_mut().enumerate() {
            let mut incoming: Vec<&ScMsg<V>> = g.neighbors(v).map(|(_, u)| &sent[u]).collect();
            incoming.sort();
            let deaf = (!state.listens(&cfg, round)).then(|| state.clone());
            outputs[v] = state.receive(&cfg, round, &incoming);
            if let Some(mut deaf) = deaf {
                deaf_pairs += 1;
                let out = deaf.receive(&cfg, round, &[]);
                assert_eq!(
                    deaf, *state,
                    "node {v} round {round}: state differs without its multiset"
                );
                assert_eq!(out, outputs[v], "node {v} round {round}: output differs");
            }
        }
    }
    (
        outputs.into_iter().map(|o| o.expect("every node halts in the last round")).collect(),
        deaf_pairs,
    )
}

/// `listens` answers `false` only where the multiset cannot matter, and the
/// engine, which skips those gathers, matches the full-gather run exactly.
#[test]
fn sc_listens_only_skips_multisets_that_receive_ignores() {
    for seed in 0..4u64 {
        let inst = setcover::random_bounded(14, 9, 2, 3, WeightSpec::Uniform(40), seed);
        let (outputs, deaf_pairs) = full_gather_run::<AutoRat>(&inst);
        let rounds = ScConfig::new(inst.f(), inst.k(), inst.max_weight()).total_rounds();
        let pairs = rounds * inst.graph.n() as u64;
        assert!(2 * deaf_pairs > pairs, "seed {seed}: only {deaf_pairs} of {pairs} pairs deaf");
        let run = run_fractional_packing::<AutoRat>(&inst).unwrap();
        for (v, out) in outputs.iter().enumerate() {
            match out {
                ScOutput::Subset { in_cover } => assert_eq!(*in_cover, run.cover[v]),
                ScOutput::Element { y, .. } => assert_eq!(*y, run.packing.y[v - inst.n_subsets]),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// §5: broadcast-model vertex cover via simulation
// ---------------------------------------------------------------------------

#[test]
fn vc_broadcast_equals_sc_on_incidence() {
    // The §5 simulation must produce exactly the cover that §4 produces when
    // run directly on the incidence instance H(G).
    for (g, seed) in [
        (family::path(6), 1u64),
        (family::cycle(7), 2),
        (family::petersen(), 3),
        (family::grid(3, 3), 4),
        (family::star(4), 5),
    ] {
        let w = WeightSpec::Uniform(9).draw_many(g.n(), seed);
        let sim = run_vc_broadcast::<BigRat>(&g, &w).unwrap();
        assert!(sim.all_saturated, "every element must end saturated");

        let inst = incidence_instance(&g, &w);
        let delta = g.max_degree().max(1);
        let wmax = w.iter().copied().max().unwrap();
        let direct = run_fractional_packing_scratch::<BigRat>(
            &ScInstance::with_bounds(&inst, 2, delta, wmax),
            &mut EngineScratch::new(),
        )
        .unwrap();
        assert_eq!(sim.cover, direct.cover, "seed {seed}");
        assert_eq!(sim.dual_value, direct.packing.dual_value());
        // One extra round on G (history catches up at T+1).
        assert_eq!(sim.trace.rounds, direct.trace.rounds + 1);
    }
}

#[test]
fn vc_broadcast_is_a_2_approx_vertex_cover() {
    for seed in 0..3u64 {
        let g = family::gnp_capped(12, 0.3, 3, seed);
        let w = WeightSpec::Uniform(7).draw_many(g.n(), seed + 50);
        let run = run_vc_broadcast::<BigRat>(&g, &w).unwrap();
        // Valid cover.
        for (_, u, v) in g.edge_iter() {
            assert!(run.cover[u] || run.cover[v]);
        }
        // Certified factor 2 via the dual value.
        let cw: u64 = (0..g.n()).filter(|&v| run.cover[v]).map(|v| w[v]).sum();
        assert!(BigRat::from_u64(cw) <= run.dual_value.mul(&BigRat::from_u64(2)));
    }
}

#[test]
fn vc_broadcast_message_blowup_vs_pn() {
    // §5 trades message size for model weakness: same O(Δ)-ish round regime,
    // but max message bits must be much larger than the §3 PN algorithm's.
    let g = family::cycle(8);
    let w = vec![3u64; 8];
    let pn = run_edge_packing::<BigRat>(&g, &w).unwrap();
    let bc = run_vc_broadcast::<BigRat>(&g, &w).unwrap();
    assert!(
        bc.trace.max_message_bits > 10 * pn.trace.max_message_bits,
        "broadcast sim max msg = {} bits, PN max msg = {} bits",
        bc.trace.max_message_bits,
        pn.trace.max_message_bits
    );
    // And more rounds: O(Δ²) vs O(Δ) regime (here both small, just sanity).
    assert!(bc.trace.rounds > pn.trace.rounds);
}

#[test]
fn vc_broadcast_frucht_symmetry() {
    // §7: on the Frucht graph (3-regular, trivial automorphisms) a
    // broadcast-model algorithm cannot distinguish nodes from the 3-regular
    // tree, so with unit weights the packing must be perfectly symmetric —
    // every node saturated, y ≡ 1/3 — and dual = m/3 = 6.
    let g = family::frucht();
    let w = vec![1u64; 12];
    let run = run_vc_broadcast::<BigRat>(&g, &w).unwrap();
    assert_eq!(run.cover, vec![true; 12], "all nodes in the cover by symmetry");
    assert_eq!(run.dual_value, BigRat::from_u64(6), "Σy = 18 edges × 1/3");
    // The port-numbering §3 algorithm, in contrast, is allowed to break
    // symmetry (the paper notes prior PN algorithms never output y ≡ 1/3).
    let pn = run_edge_packing::<BigRat>(&g, &w).unwrap();
    assert!(pn.packing.is_maximal(&g, &w));
}

#[test]
fn vc_broadcast_schedule() {
    let cfg = VcBcastConfig::new(3, 9);
    assert_eq!(cfg.total_rounds(), ScConfig::new(2, 3, 9).total_rounds() + 1);
}

// ---------------------------------------------------------------------------
// Golden pins: traces, covers and dual values recorded from the
// straightforward implementation (whole-history §5 messages, per-send §4
// payload vectors). The shared-chain histories and precomputed §4 schedule
// must reproduce them exactly under both value types.
// ---------------------------------------------------------------------------

/// One pinned run: its trace, its cover as a `0`/`1` string, and the
/// `Display` of its dual value Σy.
struct Pin {
    trace: Trace,
    cover: &'static str,
    dual: &'static str,
}

fn pin_trace(rounds: u64, messages: u64, total_bits: u64, max_message_bits: u64) -> Trace {
    Trace { rounds, messages, total_bits, max_message_bits }
}

fn cover_bits(cover: &[bool]) -> String {
    cover.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn assert_pin(what: &str, trace: &Trace, cover: &[bool], dual: String, pin: &Pin) {
    assert_eq!(trace, &pin.trace, "{what}: trace");
    assert_eq!(cover_bits(cover), pin.cover, "{what}: cover");
    assert_eq!(dual, pin.dual, "{what}: dual value");
}

fn check_vc_pin<V: PackingValue>(what: &str, g: &Graph, w: &[u64], pin: &Pin) {
    let run = run_vc_broadcast::<V>(g, w).unwrap();
    assert!(run.all_saturated, "{what}: Theorem 2");
    assert_pin(what, &run.trace, &run.cover, run.dual_value.to_string(), pin);
}

#[test]
fn golden_vc_broadcast_pins() {
    let petersen_w = WeightSpec::Uniform(9).draw_many(10, 3);
    let cases: [(&str, Graph, Vec<u64>, Pin); 3] = [
        (
            "Δ = 2 path, w = (1, 2, 1)",
            family::path(3),
            vec![1, 2, 1],
            Pin { trace: pin_trace(168, 672, 1_198_064, 3839), cover: "111", dual: "2" },
        ),
        (
            "Frucht, unit weights",
            family::frucht(),
            vec![1; 12],
            Pin {
                trace: pin_trace(428, 15_408, 70_700_724, 9661),
                cover: "111111111111",
                dual: "6",
            },
        ),
        (
            "weighted Petersen",
            family::petersen(),
            petersen_w,
            Pin {
                trace: pin_trace(428, 12_840, 67_194_354, 11_658),
                cover: "1011111001",
                dual: "58/3",
            },
        ),
    ];
    for (what, g, w, pin) in &cases {
        check_vc_pin::<AutoRat>(what, g, w, pin);
        check_vc_pin::<BigRat>(what, g, w, pin);
    }
}

fn check_sc_pin<V: PackingValue>(what: &str, inst: &SetCoverInstance, pin: &Pin) {
    let run = run_fractional_packing::<V>(inst).unwrap();
    assert!(run.packing.is_maximal(inst), "{what}: Theorem 2");
    assert_pin(what, &run.trace, &run.cover, run.packing.dual_value().to_string(), pin);
}

#[test]
fn golden_set_cover_pin() {
    let inst = setcover::random_bounded(32, 16, 2, 3, WeightSpec::Uniform(16), 11);
    assert_eq!((inst.f(), inst.k()), (2, 3));
    let pin = Pin {
        trace: pin_trace(427, 40_992, 561_344, 170),
        cover: "1001111111111111",
        dual: "304/3",
    };
    check_sc_pin::<AutoRat>("k = 3 random set cover", &inst, &pin);
    check_sc_pin::<BigRat>("k = 3 random set cover", &inst, &pin);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_sc_instances(
        n_elem in 2usize..10,
        n_sub in 2usize..8,
        f in 1usize..3,
        k in 2usize..4,
        wmax in 1u64..50,
        seed in any::<u64>(),
    ) {
        prop_assume!(n_sub * k >= n_elem);
        let inst = setcover::random_bounded(n_elem, n_sub, f, k, WeightSpec::Uniform(wmax), seed);
        check_sc::<BigRat>(&inst);
    }

    #[test]
    fn random_vc_broadcast(
        n in 3usize..9,
        p in 0.2f64..0.6,
        seed in any::<u64>(),
    ) {
        let g = family::gnp_capped(n, p, 3, seed);
        let w = WeightSpec::Uniform(5).draw_many(n, seed ^ 0x99);
        let sim = run_vc_broadcast::<BigRat>(&g, &w).unwrap();
        prop_assert!(sim.all_saturated);
        let inst = incidence_instance(&g, &w);
        if inst.n_elements() > 0 {
            let bounds = ScInstance::with_bounds(
                &inst, 2, g.max_degree(), w.iter().copied().max().unwrap());
            let direct = run_fractional_packing_scratch::<BigRat>(
                &bounds, &mut EngineScratch::new()).unwrap();
            prop_assert_eq!(&sim.cover, &direct.cover);
        }
    }
}
