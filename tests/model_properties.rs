//! Model-level integration properties: anonymity, port-numbering
//! sensitivity, broadcast sender-obliviousness, and covering-space
//! invariance — checked through the full algorithm stack.

use anonet::bigmath::BigRat;
use anonet::core::sc_bcast::run_fractional_packing;
use anonet::core::vc_pn::{run_edge_packing, run_edge_packing_scratch, VcInstance};
use anonet::gen::{family, setcover, Rng, WeightSpec};
use anonet::sim::cover::lift;
use anonet::sim::{EngineScratch, Graph, SetCoverInstance};

#[test]
fn pn_output_depends_only_on_ports_weights() {
    // Re-running on an identical graph gives identical output (full
    // determinism — no hidden state, no randomness).
    let g = family::petersen();
    let w = WeightSpec::Uniform(15).draw_many(10, 3);
    let a = run_edge_packing::<BigRat>(&g, &w).unwrap();
    let b = run_edge_packing::<BigRat>(&g, &w).unwrap();
    assert_eq!(a.cover, b.cover);
    assert_eq!(a.packing, b.packing);
}

#[test]
fn port_permutation_changes_only_within_guarantees() {
    let g = family::grid(4, 4);
    let w = WeightSpec::Uniform(25).draw_many(16, 9);
    let mut rng = Rng::new(17);
    for _ in 0..3 {
        let permuted = g.reorder_ports(|_, old| {
            let mut v = old.to_vec();
            rng.shuffle(&mut v);
            v
        });
        let run = run_edge_packing::<BigRat>(&permuted, &w).unwrap();
        assert!(run.packing.is_feasible(&permuted, &w));
        assert!(run.packing.is_maximal(&permuted, &w));
    }
}

#[test]
fn broadcast_output_is_port_independent() {
    // The §4 algorithm may not depend on port order at all (broadcast
    // model): permuting ports must give the *identical* result.
    let base = setcover::random_bounded(10, 7, 2, 3, WeightSpec::Uniform(9), 21);
    let run_a = run_fractional_packing::<BigRat>(&base).unwrap();

    let mut rng = Rng::new(4);
    let permuted_graph = base.graph.reorder_ports(|_, old| {
        let mut v = old.to_vec();
        rng.shuffle(&mut v);
        v
    });
    let permuted = SetCoverInstance {
        graph: permuted_graph,
        n_subsets: base.n_subsets,
        weights: base.weights.clone(),
    };
    let run_b = run_fractional_packing::<BigRat>(&permuted).unwrap();
    assert_eq!(run_a.cover, run_b.cover);
    assert_eq!(run_a.packing.y, run_b.packing.y);
}

#[test]
fn deep_lift_invariance() {
    // 2-lift of a 2-lift = 4-fold cover; outputs still project correctly.
    let g = family::cycle(5);
    let w = WeightSpec::Uniform(7).draw_many(5, 2);
    let base = run_edge_packing::<BigRat>(&g, &w).unwrap();

    let l1 = lift(&g, 2, 5);
    let w1: Vec<u64> = (0..l1.graph.n()).map(|v| w[l1.projection[v]]).collect();
    let l2 = lift(&l1.graph, 2, 6);
    let w2: Vec<u64> = (0..l2.graph.n()).map(|v| w1[l2.projection[v]]).collect();

    let run = run_edge_packing::<BigRat>(&l2.graph, &w2).unwrap();
    for v in 0..l2.graph.n() {
        let base_node = l1.projection[l2.projection[v]];
        assert_eq!(run.cover[v], base.cover[base_node], "depth-2 lift node {v}");
    }
}

#[test]
fn disconnected_components_are_independent() {
    // Running on a disjoint union equals running on the parts (locality).
    let g1 = family::cycle(5);
    let g2 = family::star(3);
    let w1 = WeightSpec::Uniform(9).draw_many(5, 1);
    let w2 = WeightSpec::Uniform(9).draw_many(4, 2);

    // Union graph: nodes 0..5 from g1, 5..9 from g2.
    let mut edges: Vec<(usize, usize)> = g1.edge_iter().map(|(_, u, v)| (u, v)).collect();
    edges.extend(g2.edge_iter().map(|(_, u, v)| (u + 5, v + 5)));
    let gu = anonet::sim::Graph::from_edges(9, &edges).unwrap();
    let wu: Vec<u64> = w1.iter().chain(w2.iter()).copied().collect();

    // Same global bounds for all three runs (Δ, W are global parameters).
    let delta = gu.max_degree();
    let wmax = *wu.iter().max().unwrap();
    let mut scratch = EngineScratch::new();
    let mut run = |g: &Graph, w: &[u64]| {
        let inst = VcInstance::with_bounds(g, w, delta, wmax);
        run_edge_packing_scratch::<BigRat>(&inst, &mut scratch).unwrap()
    };
    let (u, a, b) = (run(&gu, &wu), run(&g1, &w1), run(&g2, &w2));

    assert_eq!(&u.cover[..5], &a.cover[..]);
    assert_eq!(&u.cover[5..], &b.cover[..]);
}
