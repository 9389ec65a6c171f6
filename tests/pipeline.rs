//! Cross-crate integration tests: generator → simulator → algorithm →
//! certificate → exact-solver pipelines, exercising the whole workspace
//! through the umbrella crate's public API.

use anonet::baselines::{run_id_edge_packing, run_kvy, run_ps3, run_rand_matching};
use anonet::bigmath::{AutoRat, BigRat, PackingValue};
use anonet::core::certify::{certify_set_cover, certify_vertex_cover};
use anonet::core::sc_bcast::{run_fractional_packing, run_fractional_packing_scratch, ScInstance};
use anonet::core::trivial::run_trivial;
use anonet::core::vc_bcast::{incidence_instance, run_vc_broadcast};
use anonet::core::vc_pn::run_edge_packing;
use anonet::exact::{is_vertex_cover, min_weight_set_cover, min_weight_vertex_cover};
use anonet::gen::{family, setcover, WeightSpec};
use anonet::sim::EngineScratch;

/// The ISSUE-1 smoke test: generate via `anonet::gen`, drive the PN engine
/// via `anonet::sim` directly (no convenience wrapper), and check cover
/// validity plus the ≤ 2·OPT bound against `anonet::exact`.
#[test]
fn gen_sim_exact_smoke() {
    use anonet::core::vc_pn::{EdgePackingNode, VcConfig};
    use anonet::sim::run_pn;

    fn check<V: PackingValue>(g: &anonet::sim::Graph, w: &[u64]) {
        let delta = g.max_degree();
        let wmax = w.iter().copied().max().unwrap_or(1).max(1);
        let cfg = VcConfig::new(delta, wmax);
        let res = run_pn::<EdgePackingNode<V>>(g, &cfg, w, cfg.total_rounds()).unwrap();
        let cover: Vec<bool> = res.outputs.iter().map(|o| o.in_cover).collect();
        assert!(is_vertex_cover(g, &cover), "sim output must be a vertex cover");
        let cover_weight: u64 = (0..g.n()).filter(|&v| cover[v]).map(|v| w[v]).sum();
        let opt = min_weight_vertex_cover(g, w);
        assert!(
            cover_weight <= 2 * opt.weight,
            "2·OPT violated: {cover_weight} > 2·{}",
            opt.weight
        );
        assert_eq!(res.trace.rounds, cfg.total_rounds(), "fixed schedule must be exact");
    }

    for seed in 0..5u64 {
        let g = family::gnp_capped(12, 0.35, 4, seed);
        let w = WeightSpec::LogUniform(50).draw_many(12, seed + 99);
        check::<BigRat>(&g, &w);
        check::<AutoRat>(&g, &w);
    }
    check::<BigRat>(&family::petersen(), &[1; 10]);
}

#[test]
fn full_vc_pipeline_with_exact_ratio() {
    for seed in 0..4u64 {
        let g = family::gnp_capped(16, 0.3, 4, seed);
        let w = WeightSpec::Uniform(40).draw_many(16, seed + 21);

        let run = run_edge_packing::<BigRat>(&g, &w).unwrap();
        let cert = certify_vertex_cover(&g, &w, &run.packing, &run.cover).unwrap();

        let opt = min_weight_vertex_cover(&g, &w);
        assert!(cert.cover_weight <= 2 * opt.weight, "2-approximation violated");
        // The dual really is a lower bound on OPT.
        assert!(cert.dual_value <= BigRat::from_u64(opt.weight));
    }
}

#[test]
fn full_sc_pipeline_with_exact_ratio() {
    for seed in 0..3u64 {
        let inst = setcover::random_bounded(12, 8, 2, 4, WeightSpec::Uniform(25), seed);
        let run = run_fractional_packing::<BigRat>(&inst).unwrap();
        let cert = certify_set_cover(&inst, &run.packing, &run.cover).unwrap();

        let opt = min_weight_set_cover(&inst);
        let f = inst.f() as u64;
        assert!(cert.cover_weight <= f * opt.weight, "f-approximation violated");
        assert!(cert.dual_value <= BigRat::from_u64(opt.weight));
    }
}

#[test]
fn all_vc_algorithms_cover_the_same_instance() {
    let g = family::random_regular(24, 4, 11);
    let w = WeightSpec::Uniform(30).draw_many(24, 12);
    let unit = vec![1u64; 24];
    let ids: Vec<u64> = (1..=24).collect();

    let a = run_edge_packing::<BigRat>(&g, &w).unwrap();
    assert!(is_vertex_cover(&g, &a.cover));

    let b = run_id_edge_packing::<BigRat>(&g, &w, &ids, 24).unwrap();
    assert!(is_vertex_cover(&g, &b.cover));

    let c = run_kvy::<BigRat>(&g, &w, 1, 4, 100_000).unwrap();
    assert!(is_vertex_cover(&g, &c.cover));

    let d = run_ps3(&g).unwrap();
    assert!(is_vertex_cover(&g, &d.cover));

    let e = run_rand_matching(&g, 5, 100_000).unwrap();
    assert!(is_vertex_cover(&g, &e.cover));

    let f = run_vc_broadcast::<BigRat>(&g, &unit).unwrap();
    assert!(is_vertex_cover(&g, &f.cover));
}

#[test]
fn sec5_equals_sec4_on_incidence_structure() {
    let g = family::grid(3, 4);
    let w = WeightSpec::Uniform(9).draw_many(12, 33);
    let sim = run_vc_broadcast::<BigRat>(&g, &w).unwrap();
    let inst = incidence_instance(&g, &w);
    let direct = run_fractional_packing_scratch::<BigRat>(
        &ScInstance::with_bounds(&inst, 2, g.max_degree(), *w.iter().max().unwrap()),
        &mut EngineScratch::new(),
    )
    .unwrap();
    assert_eq!(sim.cover, direct.cover);
}

#[test]
fn min_f_k_story() {
    // §6: with both algorithms available we achieve p = min{f, k} on any
    // instance — f < k ⇒ use §4; f ≥ k ⇒ use the trivial algorithm.
    let inst = setcover::random_bounded(10, 8, 2, 5, WeightSpec::Unit, 3);
    let (f, k) = (inst.f(), inst.k());
    let opt = min_weight_set_cover(&inst).weight;
    let cover = if f <= k {
        run_fractional_packing::<BigRat>(&inst).unwrap().cover
    } else {
        run_trivial(&inst).unwrap().cover
    };
    assert!(inst.is_cover(&cover));
    assert!(inst.cover_weight(&cover) <= f.min(k) as u64 * opt);
}

#[test]
fn value_types_agree_end_to_end() {
    let g = family::torus(3, 4);
    let w = WeightSpec::Uniform(20).draw_many(12, 5);
    let big = run_edge_packing::<BigRat>(&g, &w).unwrap();
    let fixed = run_edge_packing::<AutoRat>(&g, &w).unwrap();
    assert_eq!(big.cover, fixed.cover);
    assert_eq!(big.trace.rounds, fixed.trace.rounds);
}

#[test]
fn batched_runner_matches_sequential_pipeline() {
    use anonet::core::vc_pn::{run_edge_packing_many, VcInstance};
    use anonet::sim::Graph;

    // A mixed fleet of instances served through one pool must reproduce the
    // one-at-a-time results (outputs, covers, traces) exactly.
    let cases: Vec<(Graph, Vec<u64>)> = (0..6u64)
        .map(|seed| {
            let g = family::gnp_capped(14, 0.3, 4, seed);
            let w = WeightSpec::Uniform(32).draw_many(14, seed + 7);
            (g, w)
        })
        .collect();
    let instances: Vec<VcInstance<'_>> = cases.iter().map(|(g, w)| VcInstance::new(g, w)).collect();
    for threads in [1usize, 3] {
        let batch = run_edge_packing_many::<BigRat>(&instances, threads);
        for ((g, w), run) in cases.iter().zip(batch) {
            let run = run.unwrap();
            let solo = run_edge_packing::<BigRat>(g, w).unwrap();
            assert_eq!(run.cover, solo.cover, "threads={threads}");
            assert_eq!(run.trace, solo.trace, "threads={threads}");
            assert!(is_vertex_cover(g, &run.cover));
            certify_vertex_cover(g, w, &run.packing, &run.cover).unwrap();
        }
    }
}

#[test]
fn umbrella_reexports_are_usable() {
    // The re-export surface compiles and the basic types interoperate.
    let g = anonet::sim::Graph::from_edges(2, &[(0, 1)]).unwrap();
    let run = run_edge_packing::<BigRat>(&g, &[1, 1]).unwrap();
    assert_eq!(run.packing.dual_value(), BigRat::one());
}
