//! `AutoRat` against `BigRat` on every served solver that the `vc_pn`
//! property suite does not already cover: §5 broadcast vertex cover, §4 set
//! cover, the PS3 half-matching certificate, KVY and BCHS. The service runs
//! these on `AutoRat` and widens the certificate to `BigRat` for the wire,
//! so each run must match the all-`BigRat` reference exactly — covers,
//! traces, packing values and the widened certificate — on fixed-seed
//! families with weights up to the declared-W cap of 2³².

use anonet::baselines::{half_matching_packing, run_bchs, run_kvy, run_ps3};
use anonet::bigmath::{AutoRat, BigRat};
use anonet::core::certify::{
    certify_set_cover, certify_vertex_cover_rational, Certificate, CertifyError,
};
use anonet::core::packing::EdgePacking;
use anonet::core::sc_bcast::run_fractional_packing;
use anonet::core::vc_bcast::run_vc_broadcast;
use anonet::gen::{family, setcover, WeightSpec};
use anonet::sim::Graph;

/// The canonical decoder's sanity cap on W.
const W_CAP: u64 = 1 << 32;

/// Weights in `1..=2^32`: a log-uniform spread, with the cap itself and its
/// neighbours planted so large residual ratios occur on every graph.
fn weights(n: usize, seed: u64) -> Vec<u64> {
    let mut w = WeightSpec::LogUniform(W_CAP).draw_many(n, seed);
    for (v, x) in w.iter_mut().enumerate() {
        match (v as u64 + seed) % 5 {
            0 => *x = W_CAP,
            1 => *x = W_CAP - 1 - seed % 3,
            _ => {}
        }
    }
    w
}

/// Graphs with Δ ≤ 4, mixing random and structured port orders.
fn graphs() -> Vec<Graph> {
    let mut gs = vec![family::path(7), family::cycle(6), family::star(4), family::petersen()];
    for seed in 0..4u64 {
        gs.push(family::gnp_capped(14, 0.3, 4, seed));
        gs.push(family::random_regular(12, 3, seed));
    }
    gs
}

fn assert_same_cert(
    big: Result<Certificate<BigRat>, CertifyError>,
    auto: Result<Certificate<AutoRat>, CertifyError>,
    what: &str,
) {
    let (big, auto) = (big.expect(what), auto.expect(what));
    assert_eq!(big.cover_weight, auto.cover_weight, "{what}: cover weight");
    assert_eq!(big.factor, auto.factor, "{what}: factor");
    assert_eq!(big.dual_value, auto.dual_value.to_bigrat(), "{what}: widened dual");
}

fn assert_same_packing(big: &EdgePacking<BigRat>, auto: &EdgePacking<AutoRat>, what: &str) {
    assert_eq!(big.y.len(), auto.y.len(), "{what}: edge count");
    for (e, (b, a)) in big.y.iter().zip(&auto.y).enumerate() {
        assert_eq!(*b, a.to_bigrat(), "{what}: y({e})");
    }
}

#[test]
fn vc_bcast_autorat_matches_bigrat() {
    // §5 histories grow with the schedule, so the graphs stay small.
    let gs = [family::path(3), family::path(5), family::cycle(5), family::star(3)];
    for (i, g) in gs.iter().enumerate() {
        let w = weights(g.n(), i as u64);
        let what = format!("vc_bcast graph {i}");
        let big = run_vc_broadcast::<BigRat>(g, &w).expect(&what);
        let auto = run_vc_broadcast::<AutoRat>(g, &w).expect(&what);
        assert_eq!(big.cover, auto.cover, "{what}: cover");
        assert_eq!(big.trace, auto.trace, "{what}: trace");
        assert_eq!(big.all_saturated, auto.all_saturated, "{what}: saturation");
        assert_eq!(big.dual_value, auto.dual_value.to_bigrat(), "{what}: dual");
    }
}

#[test]
fn set_cover_autorat_matches_bigrat() {
    for seed in 0..6u64 {
        let (f, k) = (2 + seed as usize % 2, 3);
        let inst = setcover::random_bounded(12, 8, f, k, WeightSpec::LogUniform(W_CAP), seed);
        let what = format!("set_cover seed {seed}");
        let big = run_fractional_packing::<BigRat>(&inst).expect(&what);
        let auto = run_fractional_packing::<AutoRat>(&inst).expect(&what);
        assert_eq!(big.cover, auto.cover, "{what}: cover");
        assert_eq!(big.trace, auto.trace, "{what}: trace");
        for (u, (b, a)) in big.packing.y.iter().zip(&auto.packing.y).enumerate() {
            assert_eq!(*b, a.to_bigrat(), "{what}: y({u})");
        }
        assert_same_cert(
            certify_set_cover(&inst, &big.packing, &big.cover),
            certify_set_cover(&inst, &auto.packing, &auto.cover),
            &what,
        );
    }
}

#[test]
fn ps3_half_matching_certificate_autorat_matches_bigrat() {
    for (i, g) in graphs().iter().enumerate() {
        let what = format!("vc_ps3 graph {i}");
        let run = run_ps3(g).expect(&what);
        let unit = vec![1u64; g.n()];
        let big = half_matching_packing::<BigRat>(g, &run.roles);
        let auto = half_matching_packing::<AutoRat>(g, &run.roles);
        assert_same_packing(&big, &auto, &what);
        assert_same_cert(
            certify_vertex_cover_rational(g, &unit, &big, &run.cover, 4, 1),
            certify_vertex_cover_rational(g, &unit, &auto, &run.cover, 4, 1),
            &what,
        );
    }
}

#[test]
fn kvy_and_bchs_autorat_match_bigrat() {
    for (i, g) in graphs().iter().enumerate() {
        let w = weights(g.n(), 10 + i as u64);
        let what = format!("vc_kvy graph {i}");
        let big = run_kvy::<BigRat>(g, &w, 1, 4, 100_000).expect(&what);
        let auto = run_kvy::<AutoRat>(g, &w, 1, 4, 100_000).expect(&what);
        assert_eq!(big.cover, auto.cover, "{what}: cover");
        assert_eq!(big.trace, auto.trace, "{what}: trace");
        assert_same_packing(&big.packing, &auto.packing, &what);
        assert_same_cert(
            certify_vertex_cover_rational(g, &w, &big.packing, &big.cover, 8, 3),
            certify_vertex_cover_rational(g, &w, &auto.packing, &auto.cover, 8, 3),
            &what,
        );

        let what = format!("vc_bchs graph {i}");
        let big = run_bchs::<BigRat>(g, &w, 1, 4, 100_000).expect(&what);
        let auto = run_bchs::<AutoRat>(g, &w, 1, 4, 100_000).expect(&what);
        assert_eq!(big.cover, auto.cover, "{what}: cover");
        assert_eq!(big.trace, auto.trace, "{what}: trace");
        assert_same_packing(&big.packing, &auto.packing, &what);
        assert_same_cert(
            certify_vertex_cover_rational(g, &w, &big.packing, &big.cover, 8, 3),
            certify_vertex_cover_rational(g, &w, &auto.packing, &auto.cover, 8, 3),
            &what,
        );
    }
}
