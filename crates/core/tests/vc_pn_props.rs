//! Correctness suite for the §3 edge-packing algorithm: every run must
//! produce a feasible, **maximal** edge packing whose saturated nodes form a
//! vertex cover of weight ≤ 2·Σy(e) (the Bar-Yehuda–Even certificate), in
//! exactly the fixed round schedule, on both exact value types, and
//! invariantly under covering lifts.

use anonet_bigmath::{AutoRat, BigRat, PackingValue};
use anonet_core::vc_pn::{
    fold_vc_outputs, run_edge_packing, run_edge_packing_scratch, EdgePackingNode, VcConfig,
    VcInstance, VcRun,
};
use anonet_gen::{family, WeightSpec};
use anonet_sim::cover::lift;
use anonet_sim::{EngineScratch, Graph, PnEngine, RoundPool};
use proptest::prelude::*;

/// All §3 guarantees in one checker.
fn check_run<V: PackingValue>(g: &Graph, weights: &[u64]) {
    let run = run_edge_packing::<V>(g, weights).expect("run completes");
    // Feasible.
    assert!(run.packing.is_feasible(g, weights), "packing must be feasible");
    // Maximal: every edge saturated.
    assert!(run.packing.is_maximal(g, weights), "packing must be maximal");
    // The cover is exactly the saturated nodes.
    assert_eq!(run.cover, run.packing.saturated_nodes(g, weights));
    // The cover covers every edge.
    for (_, u, v) in g.edge_iter() {
        assert!(run.cover[u] || run.cover[v], "edge {{{u},{v}}} uncovered");
    }
    // Certificate: w(C) <= 2 * dual value  (and dual <= OPT, so ratio <= 2).
    let cover_weight: u64 = (0..g.n()).filter(|&v| run.cover[v]).map(|v| weights[v]).sum();
    let two_dual = run.packing.dual_value().mul(&V::from_u64(2));
    assert!(
        V::from_u64(cover_weight) <= two_dual,
        "certificate violated: w(C) = {cover_weight} > 2*dual = {two_dual:?}"
    );
    // Round count equals the fixed schedule.
    let delta = g.max_degree();
    let w = weights.iter().copied().max().unwrap_or(1);
    let cfg = VcConfig::new(delta, w.max(1));
    assert_eq!(run.trace.rounds, cfg.total_rounds(), "schedule must be exact");
}

#[test]
fn single_edge_unweighted() {
    let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
    let run = run_edge_packing::<BigRat>(&g, &[1, 1]).unwrap();
    // y(e) = 1 saturates... no: both nodes have w = 1, Phase I iteration 1:
    // both offer 1/1; edge gets min = 1 saturating BOTH nodes.
    assert_eq!(run.packing.y[0], BigRat::one());
    assert_eq!(run.cover, vec![true, true]);
    check_run::<BigRat>(&g, &[1, 1]);
}

#[test]
fn single_edge_weighted_asymmetric() {
    let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
    // w = (1, 5): the edge can only reach y = 1; node 0 saturates.
    let run = run_edge_packing::<BigRat>(&g, &[1, 5]).unwrap();
    assert_eq!(run.packing.y[0], BigRat::one());
    assert_eq!(run.cover, vec![true, false]);
    // Optimal cover is {0} with weight 1 — the algorithm matches the optimum.
    check_run::<BigRat>(&g, &[1, 5]);
}

#[test]
fn triangle_unweighted_symmetric() {
    // Regular graph with equal weights: Phase I alone saturates everything
    // (the case where multicolouring is impossible); y(e) = 1/2, all nodes in
    // the cover (ratio exactly 3/2 vs OPT = 2).
    let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
    let run = run_edge_packing::<BigRat>(&g, &[1, 1, 1]).unwrap();
    for e in 0..3 {
        assert_eq!(run.packing.y[e], BigRat::from_frac(1, 2));
    }
    assert_eq!(run.cover, vec![true, true, true]);
    check_run::<BigRat>(&g, &[1, 1, 1]);
}

#[test]
fn path_weighted_middle_cheap() {
    // Path a - b - c with w(b) small: b should saturate, covering both edges.
    let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let run = run_edge_packing::<BigRat>(&g, &[10, 1, 10]).unwrap();
    assert!(run.cover[1]);
    check_run::<BigRat>(&g, &[10, 1, 10]);
    let cover_weight: u64 = (0..3).filter(|&v| run.cover[v]).map(|v| [10, 1, 10][v]).sum();
    assert!(cover_weight <= 2, "OPT = 1, certificate allows at most 2, got {cover_weight}");
}

#[test]
fn star_heavy_hub() {
    let g = family::star(6);
    let mut w = vec![100u64; 7];
    w[0] = 3; // cheap hub
    let run = run_edge_packing::<BigRat>(&g, &w).unwrap();
    assert!(run.cover[0], "cheap hub must be saturated");
    check_run::<BigRat>(&g, &w);
}

#[test]
fn schedule_is_exact_formula() {
    // total = 8Δ + T_cv + 8 (see VcConfig docs).
    for (delta, w) in [(0usize, 1u64), (1, 1), (2, 1), (3, 7), (5, 1 << 20), (8, u64::MAX)] {
        let cfg = VcConfig::new(delta, w);
        assert_eq!(
            cfg.total_rounds(),
            8 * delta as u64 + cfg.cv_steps as u64 + 8,
            "Δ={delta}, W={w}"
        );
        // Theorem 1 shape: T_cv is tiny (log* of anything real is <= 6).
        assert!(cfg.cv_steps <= 7, "T_cv = {} too large", cfg.cv_steps);
    }
}

#[test]
fn rounds_independent_of_n() {
    // The same (Δ, W) gives the same round count regardless of n — the
    // "strictly local" property that distinguishes this algorithm in Table 1.
    let mut counts = Vec::new();
    for n in [8usize, 64, 512] {
        let g = family::random_regular(n, 4, 99);
        let w = WeightSpec::Uniform(100).draw_many(n, 5);
        let run = run_edge_packing_scratch::<BigRat>(
            &VcInstance::with_bounds(&g, &w, 4, 100),
            &mut EngineScratch::new(),
        )
        .unwrap();
        assert!(run.packing.is_maximal(&g, &w));
        counts.push(run.trace.rounds);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "rounds varied with n: {counts:?}");
}

#[test]
fn families_unweighted() {
    for (name, g) in [
        ("path", family::path(17)),
        ("cycle", family::cycle(16)),
        ("cycle-odd", family::cycle(15)),
        ("star", family::star(9)),
        ("grid", family::grid(6, 5)),
        ("torus", family::torus(4, 4)),
        ("hypercube", family::hypercube(4)),
        ("petersen", family::petersen()),
        ("frucht", family::frucht()),
        ("complete", family::complete(7)),
        ("caterpillar", family::caterpillar(5, 3)),
    ] {
        let w = vec![1u64; g.n()];
        check_run::<BigRat>(&g, &w);
        check_run::<AutoRat>(&g, &w);
        let _ = name;
    }
}

#[test]
fn families_weighted() {
    for seed in 0..3u64 {
        for g in [family::grid(5, 4), family::random_regular(20, 3, seed), family::petersen()] {
            for spec in [
                WeightSpec::Uniform(10),
                WeightSpec::Uniform(1 << 16),
                WeightSpec::Bimodal { w: 1 << 20, cheap_prob: 0.3 },
            ] {
                let w = spec.draw_many(g.n(), seed * 31 + 7);
                check_run::<BigRat>(&g, &w);
            }
        }
    }
}

#[test]
fn huge_weights_w_2_64() {
    // "the algorithms are fast even if one chooses a very large value of W
    // such as W = 2^64" (§1.4).
    let g = family::random_regular(16, 3, 4);
    let w = WeightSpec::Uniform(u64::MAX).draw_many(16, 11);
    let run = run_edge_packing_scratch::<BigRat>(
        &VcInstance::with_bounds(&g, &w, 3, u64::MAX),
        &mut EngineScratch::new(),
    )
    .unwrap();
    assert!(run.packing.is_maximal(&g, &w));
    let cfg = VcConfig::new(3, u64::MAX);
    assert_eq!(run.trace.rounds, cfg.total_rounds());
}

#[test]
fn rat128_matches_bigrat() {
    // Same instance, both value types: identical packings and covers, with
    // every AutoRat value still in its inline Rat128 arm.
    for seed in 0..5u64 {
        let g = family::gnp_capped(18, 0.25, 4, seed);
        let w = WeightSpec::Uniform(30).draw_many(g.n(), seed + 100);
        let a = run_edge_packing::<BigRat>(&g, &w).unwrap();
        let b = run_edge_packing::<AutoRat>(&g, &w).unwrap();
        assert_eq!(a.cover, b.cover, "seed {seed}");
        for (e, (ya, yb)) in a.packing.y.iter().zip(&b.packing.y).enumerate() {
            assert!(!yb.is_promoted(), "edge {e} left the Rat128 arm, seed {seed}");
            assert_eq!(yb.to_bigrat(), *ya, "edge {e}, seed {seed}");
        }
    }
}

#[test]
fn autorat_matches_bigrat_across_promotion_boundary() {
    // Weights straddling u32::MAX push intermediate star-phase rationals
    // past i128 on some edges but not others, so the AutoRat run exercises
    // both arms and the fixed↔big promotion/demotion transitions. The fast
    // path must stay bit-identical to the all-BigRat reference: same covers,
    // same packing values, and the same Trace (wire_bits agrees across arms).
    for seed in 0..4u64 {
        let g = family::gnp_capped(16, 0.3, 4, seed);
        let w: Vec<u64> = (0..g.n() as u64)
            .map(|v| {
                if (v + seed) % 2 == 0 {
                    u32::MAX as u64 - (v + seed) % 7
                } else {
                    u32::MAX as u64 + 1 + (v * 977 + seed)
                }
            })
            .collect();
        let a = run_edge_packing::<BigRat>(&g, &w).unwrap();
        let b = run_edge_packing::<AutoRat>(&g, &w).unwrap();
        assert_eq!(a.cover, b.cover, "seed {seed}");
        assert_eq!(a.trace, b.trace, "trace must be bit-identical, seed {seed}");
        for (e, (ya, yb)) in a.packing.y.iter().zip(&b.packing.y).enumerate() {
            assert_eq!(*ya, yb.to_bigrat(), "edge {e} value, seed {seed}");
        }
        assert_eq!(a.packing.dual_value(), b.packing.dual_value().to_bigrat(), "seed {seed}");
    }
}

#[test]
fn isolated_nodes_are_excluded() {
    let g = Graph::from_edges(5, &[(0, 1)]).unwrap();
    let run = run_edge_packing::<BigRat>(&g, &[1, 1, 7, 7, 7]).unwrap();
    assert!(!run.cover[2] && !run.cover[3] && !run.cover[4]);
    check_run::<BigRat>(&g, &[1, 1, 7, 7, 7]);
}

#[test]
fn empty_graph() {
    let g = Graph::from_edges(4, &[]).unwrap();
    let run = run_edge_packing::<BigRat>(&g, &[5, 5, 5, 5]).unwrap();
    assert_eq!(run.cover, vec![false; 4]);
    assert!(run.packing.y.is_empty());
}

#[test]
fn lift_invariance() {
    // §7 / Suomela survey §5: deterministic PN algorithms commute with
    // covering maps — the lift of a node computes exactly the node's output.
    let g = family::petersen();
    let w = WeightSpec::Uniform(9).draw_many(10, 21);
    let base = run_edge_packing::<BigRat>(&g, &w).unwrap();

    let l = lift(&g, 3, 1234);
    let lifted_w: Vec<u64> = (0..l.graph.n()).map(|vp| w[l.projection[vp]]).collect();
    let lifted = run_edge_packing::<BigRat>(&l.graph, &lifted_w).unwrap();

    for vp in 0..l.graph.n() {
        assert_eq!(
            lifted.cover[vp], base.cover[l.projection[vp]],
            "lift node {vp} disagrees with base node {}",
            l.projection[vp]
        );
    }
    assert!(lifted.packing.is_maximal(&l.graph, &lifted_w));
}

#[test]
fn port_numbering_can_change_output_but_not_guarantees() {
    // Different port orders may give different (valid) covers.
    let g = family::grid(4, 4);
    let w = WeightSpec::Uniform(50).draw_many(16, 3);
    check_run::<BigRat>(&g, &w);
    let reordered = g.reorder_ports(|_, old| old.iter().rev().copied().collect());
    check_run::<BigRat>(&reordered, &w);
}

#[test]
fn explicit_global_bounds_allowed_to_exceed_instance() {
    // Δ and W are upper bounds; running with slack must stay correct.
    let g = family::cycle(8);
    let w = vec![3u64; 8];
    let run = run_edge_packing_scratch::<BigRat>(
        &VcInstance::with_bounds(&g, &w, 5, 1000),
        &mut EngineScratch::new(),
    )
    .unwrap();
    assert!(run.packing.is_maximal(&g, &w));
    let cfg = VcConfig::new(5, 1000);
    assert_eq!(run.trace.rounds, cfg.total_rounds());
}

#[test]
fn parallel_engine_identical() {
    let g = family::random_regular(64, 4, 17);
    let w = WeightSpec::Uniform(64).draw_many(64, 18);
    let seq = run_edge_packing_scratch::<BigRat>(
        &VcInstance::with_bounds(&g, &w, 4, 64),
        &mut EngineScratch::new(),
    )
    .unwrap();
    // `RoundPool::new` never clamps: every round runs as 4 parts on any box.
    let cfg = VcConfig::new(4, 64);
    let mut pool = RoundPool::new(4);
    let res = PnEngine::<EdgePackingNode<BigRat>>::new(&g, &cfg, &w, Some(&mut pool))
        .and_then(|engine| engine.run(cfg.total_rounds(), &mut EngineScratch::new()))
        .unwrap();
    let (cover, packing) = fold_vc_outputs(&g, &res.outputs);
    let par = VcRun { packing, cover, trace: res.trace };
    assert_eq!(seq.cover, par.cover);
    assert_eq!(seq.packing, par.packing);
    assert_eq!(seq.trace, par.trace);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_gnp_instances(
        n in 2usize..28,
        p in 0.05f64..0.6,
        cap in 2usize..6,
        wmax in 1u64..1000,
        seed in any::<u64>(),
    ) {
        let g = family::gnp_capped(n, p, cap, seed);
        let w = WeightSpec::Uniform(wmax).draw_many(n, seed ^ 0xabcd);
        check_run::<BigRat>(&g, &w);
    }

    #[test]
    fn random_regular_instances(
        half_n in 4usize..12,
        d in 2usize..5,
        seed in any::<u64>(),
    ) {
        let n = 2 * half_n;
        let g = family::random_regular(n, d, seed);
        let w = WeightSpec::LogUniform(1 << 30).draw_many(n, seed ^ 0x1234);
        check_run::<BigRat>(&g, &w);
    }

    #[test]
    fn random_trees(
        n in 2usize..40,
        cap in 2usize..6,
        seed in any::<u64>(),
    ) {
        let g = family::random_tree(n, cap, seed);
        let w = WeightSpec::Uniform(100).draw_many(n, seed ^ 0x77);
        check_run::<BigRat>(&g, &w);
    }
}
