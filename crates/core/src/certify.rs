//! Machine-checkable approximation certificates (Bar-Yehuda–Even, §1.1/§1.2).
//!
//! An edge/fractional packing `y` is LP-dual-feasible, so `Σ y ≤ OPT`; the
//! saturated set C(y) satisfies `w(C) ≤ 2·Σy` (resp. `≤ f·Σy`). A
//! [`Certificate`] bundles both sides: it *proves* the approximation ratio of
//! a concrete run without knowing OPT — the experiments report
//! `certified_ratio = w(C)/Σy` next to the true ratio where an exact solver
//! is available.

use crate::packing::{covers_every_edge, EdgePacking, FractionalPacking};
use anonet_bigmath::PackingValue;
use anonet_sim::{Graph, SetCoverInstance};

/// A verified approximation certificate for one run.
#[derive(Clone, Debug)]
pub struct Certificate<V> {
    /// Total weight of the produced cover.
    pub cover_weight: u64,
    /// The dual objective Σy — a lower bound on OPT.
    pub dual_value: V,
    /// The guaranteed factor (2 for vertex cover, f for set cover).
    pub factor: u64,
}

impl<V: PackingValue> Certificate<V> {
    /// `w(C) / Σy` as f64 — an upper bound on the true approximation ratio
    /// (reporting only).
    pub fn certified_ratio(&self) -> f64 {
        if self.dual_value.is_zero() {
            if self.cover_weight == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.cover_weight as f64 / self.dual_value.to_f64()
        }
    }
}

/// Errors found while verifying a vertex-cover run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertifyError {
    /// The packing violates a constraint `y[v] ≤ w_v` or `y(e) ≥ 0`.
    Infeasible,
    /// Some edge has no saturated endpoint.
    NotMaximal,
    /// The claimed cover differs from the saturated set.
    CoverMismatch,
    /// Some edge is not covered.
    NotACover,
    /// `w(C) > factor · Σy`.
    RatioViolated,
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CertifyError::Infeasible => "packing infeasible",
            CertifyError::NotMaximal => "packing not maximal",
            CertifyError::CoverMismatch => "cover differs from saturated set",
            CertifyError::NotACover => "output is not a cover",
            CertifyError::RatioViolated => "factor·dual < cover weight",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for CertifyError {}

/// Verifies every §3 guarantee of a vertex-cover run and issues the
/// 2-approximation certificate.
pub fn certify_vertex_cover<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    packing: &EdgePacking<V>,
    cover: &[bool],
) -> Result<Certificate<V>, CertifyError> {
    if !packing.is_feasible(g, weights) {
        return Err(CertifyError::Infeasible);
    }
    // The saturated set, computed once: maximality is "it covers every edge".
    let saturated = packing.saturated_nodes(g, weights);
    if !covers_every_edge(g, &saturated) {
        return Err(CertifyError::NotMaximal);
    }
    if saturated != cover {
        return Err(CertifyError::CoverMismatch);
    }
    let cover_weight: u64 = (0..g.n()).filter(|&v| cover[v]).map(|v| weights[v]).sum();
    let dual = packing.dual_value();
    if V::from_u64(cover_weight) > dual.mul(&V::from_u64(2)) {
        return Err(CertifyError::RatioViolated);
    }
    Ok(Certificate { cover_weight, dual_value: dual, factor: 2 })
}

/// Verifies a vertex-cover run against an arbitrary **rational** factor
/// `num/den` and issues the certificate with the factor pre-scaled to an
/// integer: the returned certificate carries `factor = num` and
/// `dual_value = Σy/den`, so the standard integer-factor bound
/// `w(C) ≤ factor·dual` re-checked by clients is *exactly* the rational
/// bound `w(C) ≤ (num/den)·Σy` — no wire change needed. Since
/// `Σy/den ≤ Σy ≤ OPT`, the scaled dual is still a valid lower bound.
///
/// Unlike [`certify_vertex_cover`], neither maximality nor
/// cover-equals-saturated-set is required: portfolio solvers such as the
/// (2+ε) primal–dual family stop at (1−ε)-saturation and cover the frozen
/// set, which is sound but fails both §3-specific checks. What *is*
/// verified — dual feasibility, cover validity, and the exact ratio
/// inequality `den·w(C) ≤ num·Σy` — is everything the Bar-Yehuda–Even
/// argument needs.
pub fn certify_vertex_cover_rational<V: PackingValue>(
    g: &Graph,
    weights: &[u64],
    packing: &EdgePacking<V>,
    cover: &[bool],
    factor_num: u64,
    factor_den: u64,
) -> Result<Certificate<V>, CertifyError> {
    assert!(factor_den >= 1, "factor denominator must be positive");
    if !packing.is_feasible(g, weights) {
        return Err(CertifyError::Infeasible);
    }
    if cover.len() != g.n() || !covers_every_edge(g, cover) {
        return Err(CertifyError::NotACover);
    }
    let cover_weight: u64 = (0..g.n()).filter(|&v| cover[v]).map(|v| weights[v]).sum();
    let dual = packing.dual_value();
    let lhs = V::from_u64(cover_weight).mul(&V::from_u64(factor_den));
    if lhs > dual.mul(&V::from_u64(factor_num)) {
        return Err(CertifyError::RatioViolated);
    }
    let scaled = dual.div(&V::from_u64(factor_den));
    Ok(Certificate { cover_weight, dual_value: scaled, factor: factor_num })
}

/// Verifies every §4 guarantee of a set-cover run and issues the
/// f-approximation certificate.
pub fn certify_set_cover<V: PackingValue>(
    inst: &SetCoverInstance,
    packing: &FractionalPacking<V>,
    cover: &[bool],
) -> Result<Certificate<V>, CertifyError> {
    if !packing.is_feasible(inst) {
        return Err(CertifyError::Infeasible);
    }
    if !packing.is_maximal(inst) {
        return Err(CertifyError::NotMaximal);
    }
    if packing.saturated_subsets(inst) != cover {
        return Err(CertifyError::CoverMismatch);
    }
    if !inst.is_cover(cover) {
        return Err(CertifyError::NotACover);
    }
    let f = inst.f().max(1) as u64;
    let cover_weight = inst.cover_weight(cover);
    let dual = packing.dual_value();
    if V::from_u64(cover_weight) > dual.mul(&V::from_u64(f)) {
        return Err(CertifyError::RatioViolated);
    }
    Ok(Certificate { cover_weight, dual_value: dual, factor: f })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_bigmath::BigRat;

    #[test]
    fn valid_vc_certificate() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let w = [1u64, 5];
        let packing = EdgePacking { y: vec![BigRat::one()] };
        let cover = vec![true, false];
        let cert = certify_vertex_cover(&g, &w, &packing, &cover).unwrap();
        assert_eq!(cert.cover_weight, 1);
        assert_eq!(cert.dual_value, BigRat::one());
        assert_eq!(cert.factor, 2);
        assert!((cert.certified_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_maximal() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let w = [1u64, 5];
        let packing = EdgePacking { y: vec![BigRat::zero()] };
        assert_eq!(
            certify_vertex_cover(&g, &w, &packing, &[false, false]).unwrap_err(),
            CertifyError::NotMaximal
        );
    }

    #[test]
    fn rejects_infeasible() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let w = [1u64, 5];
        let packing = EdgePacking { y: vec![BigRat::from_u64(2)] };
        assert_eq!(
            certify_vertex_cover(&g, &w, &packing, &[true, false]).unwrap_err(),
            CertifyError::Infeasible
        );
    }

    #[test]
    fn rejects_cover_mismatch() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let w = [1u64, 5];
        let packing = EdgePacking { y: vec![BigRat::one()] };
        assert_eq!(
            certify_vertex_cover(&g, &w, &packing, &[true, true]).unwrap_err(),
            CertifyError::CoverMismatch
        );
    }

    #[test]
    fn rational_factor_certificate_scales_the_dual() {
        // Path 0-1-2, y = (1/3, 1/3): feasible, NOT maximal, cover = {1}.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let w = [1u64, 1, 1];
        let third = BigRat::from_frac(1, 3);
        let packing = EdgePacking { y: vec![third.clone(), third] };
        let cover = vec![false, true, false];
        // The §3 certifier rejects this run outright (not maximal) …
        assert_eq!(
            certify_vertex_cover(&g, &w, &packing, &cover).unwrap_err(),
            CertifyError::NotMaximal
        );
        // … but the rational certifier accepts it at factor 3/2:
        // w(C) = 1 ≤ (3/2)·(2/3) = 1, tight.
        let cert = certify_vertex_cover_rational(&g, &w, &packing, &cover, 3, 2).unwrap();
        assert_eq!(cert.cover_weight, 1);
        assert_eq!(cert.factor, 3);
        assert_eq!(cert.dual_value, BigRat::from_frac(1, 3)); // Σy/den = (2/3)/2
                                                              // The re-checked bound w ≤ factor·dual holds with equality.
        assert!(BigRat::from_u64(1) <= cert.dual_value.mul(&BigRat::from_u64(3)));
        // Factor 4/3 is violated exactly: (4/3)·(2/3) = 8/9 < 1.
        assert_eq!(
            certify_vertex_cover_rational(&g, &w, &packing, &cover, 4, 3).unwrap_err(),
            CertifyError::RatioViolated
        );
    }

    #[test]
    fn rational_factor_still_rejects_bad_runs() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let w = [1u64, 5];
        let over = EdgePacking { y: vec![BigRat::from_u64(2)] };
        assert_eq!(
            certify_vertex_cover_rational(&g, &w, &over, &[true, false], 2, 1).unwrap_err(),
            CertifyError::Infeasible
        );
        let ok = EdgePacking { y: vec![BigRat::one()] };
        assert_eq!(
            certify_vertex_cover_rational(&g, &w, &ok, &[false, false], 2, 1).unwrap_err(),
            CertifyError::NotACover
        );
    }

    #[test]
    fn valid_sc_certificate() {
        let inst = SetCoverInstance::new(2, &[vec![0, 1], vec![1]], vec![2, 5]).unwrap();
        let packing = FractionalPacking { y: vec![BigRat::one(), BigRat::one()] };
        // s0 load = 2 = w0: saturated; covers both elements.
        let cover = vec![true, false];
        let cert = certify_set_cover(&inst, &packing, &cover).unwrap();
        assert_eq!(cert.cover_weight, 2);
        assert_eq!(cert.factor, 2); // f = 2 (element 1 in two subsets)
    }
}
