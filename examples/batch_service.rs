//! Batch service: answer many independent vertex-cover "requests" through
//! one worker pool — the serve-many-requests shape the batched runner
//! exists for.
//!
//! The paper's point is that round counts depend only on the *local*
//! parameters (Δ, W), never on n, so a fleet of small instances is exactly
//! as cheap per node as one big one — and embarrassingly parallel across
//! instances. Here a mock monitoring service receives 24 sensor networks at
//! once and returns a certified 2-approximate monitor set for each.
//!
//! Run with: `cargo run --example batch_service`

use anonet::bigmath::AutoRat;
use anonet::core::certify::certify_vertex_cover;
use anonet::core::vc_pn::{run_edge_packing_many, VcInstance};
use anonet::gen::{family, WeightSpec};
use anonet::sim::Graph;

fn main() {
    // 24 "requests": sensor networks of varying size and shape, each with
    // its own deployment-cost weights. Fixed seeds keep the demo stable.
    let requests: Vec<(Graph, Vec<u64>)> = (0..24u64)
        .map(|i| {
            let n = 32 + 8 * (i as usize % 5);
            let g = match i % 3 {
                0 => family::random_regular(n, 4, i),
                1 => family::grid(n / 4, 4),
                _ => family::random_tree(n, 5, i),
            };
            let w = WeightSpec::Uniform(1 << 10).draw_many(g.n(), 1000 + i);
            (g, w)
        })
        .collect();

    let instances: Vec<VcInstance<'_>> =
        requests.iter().map(|(g, w)| VcInstance::new(g, w)).collect();

    // One pool, all requests; each instance runs the §3 algorithm on a
    // single-threaded engine with halted-frontier skipping.
    let runs = run_edge_packing_many::<AutoRat>(&instances, 4);

    let mut total_rounds = 0u64;
    for (i, ((g, w), run)) in requests.iter().zip(&runs).enumerate() {
        let run = run.as_ref().expect("fixed schedule always completes");
        let cert = certify_vertex_cover(g, w, &run.packing, &run.cover)
            .expect("every answer ships with its certificate");
        total_rounds += run.trace.rounds;
        println!(
            "request {i:2}: n = {:3}, Δ = {}, rounds = {:3}, cover weight = {:5}, ratio ≤ {:.3}",
            g.n(),
            g.max_degree(),
            run.trace.rounds,
            cert.cover_weight,
            cert.certified_ratio()
        );
    }
    println!(
        "\nserved {} requests ({} simulated rounds total) through one worker pool",
        requests.len(),
        total_rounds
    );
}
