//! **E3 — Theorem 2 shape**: round complexity of the §4 fractional-packing
//! algorithm is O(f²k² + fk·log\*W) — quadratic in D = (k−1)f, essentially
//! flat in W.
//!
//! Regenerate with: `cargo run --release -p anonet-bench --bin fig_rounds_sc`

use anonet_bench::{f3, md_table};
use anonet_bigmath::BigRat;
use anonet_core::sc_bcast::{run_fractional_packing_scratch, ScConfig, ScInstance};
use anonet_gen::{setcover, WeightSpec};
use anonet_sim::EngineScratch;

fn main() {
    fk_sweep();
    w_sweep();
}

fn fk_sweep() {
    let w_bound = 1u64 << 8;
    let mut rows = Vec::new();
    let mut scratch = EngineScratch::new();
    for (f, k) in [(1usize, 2usize), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5)] {
        let inst = setcover::random_bounded(30, 20, f, k, WeightSpec::Uniform(w_bound), 17);
        let bounds = ScInstance::with_bounds(&inst, f, k, w_bound);
        let run = run_fractional_packing_scratch::<BigRat>(&bounds, &mut scratch).unwrap();
        assert!(run.packing.is_maximal(&inst));
        let cfg = ScConfig::new(f, k, w_bound);
        let d = (k - 1) * f;
        let fk2 = (f * f * k * k) as f64;
        rows.push(vec![
            format!("({f}, {k})"),
            d.to_string(),
            run.trace.rounds.to_string(),
            cfg.total_rounds().to_string(),
            f3(run.trace.rounds as f64 / fk2),
        ]);
    }
    md_table(
        "E3a — rounds vs (f, k) at W = 2^8: O(f²k²) growth (rounds/f²k² ≈ constant)",
        &["(f, k)", "D", "measured rounds", "schedule", "rounds / f²k²"],
        &rows,
    );
}

fn w_sweep() {
    let (f, k) = (2usize, 3usize);
    let mut rows = Vec::new();
    let mut scratch = EngineScratch::new();
    for w_bound in [1u64, 1 << 8, 1 << 32, u64::MAX] {
        let inst = setcover::random_bounded(24, 16, f, k, WeightSpec::Uniform(w_bound), 23);
        let bounds = ScInstance::with_bounds(&inst, f, k, w_bound);
        let run = run_fractional_packing_scratch::<BigRat>(&bounds, &mut scratch).unwrap();
        assert!(run.packing.is_maximal(&inst));
        let cfg = ScConfig::new(f, k, w_bound);
        rows.push(vec![
            format!("2^{}", 64 - w_bound.leading_zeros().min(63)),
            run.trace.rounds.to_string(),
            cfg.cv_steps.to_string(),
            run.trace.max_message_bits.to_string(),
        ]);
    }
    md_table(
        "E3b — rounds vs W at (f, k) = (2, 3): the fk·log*W term is essentially constant",
        &["W ≈", "measured rounds", "T_cv", "max msg bits"],
        &rows,
    );
}
