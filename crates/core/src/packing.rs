//! Edge packings and fractional packings — the LP-dual objects of §1.1/§1.2
//! — with exact feasibility, saturation, and maximality checks.

use anonet_bigmath::PackingValue;
use anonet_sim::{Graph, SetCoverInstance};

/// An edge packing `y: E → [0, ∞)` on a node-weighted graph (§1.1), stored by
/// undirected edge id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgePacking<V> {
    /// `y(e)` per edge id.
    pub y: Vec<V>,
}

impl<V: PackingValue> EdgePacking<V> {
    /// The all-zero packing.
    pub fn zero(g: &Graph) -> Self {
        EdgePacking { y: vec![V::zero(); g.m()] }
    }

    /// Folds per-node, per-port edge values into one value per edge:
    /// `ports` yields, for every node `v` in id order, `v`'s copy of `y` on
    /// each of its ports. The run of a distributed edge-packing algorithm
    /// leaves exactly this behind.
    ///
    /// # Panics
    /// Panics if the two endpoint copies of some `y(e)` disagree.
    pub fn from_ports<'a>(g: &Graph, ports: impl IntoIterator<Item = &'a [V]>) -> Self
    where
        V: 'a,
    {
        let mut y = vec![V::zero(); g.m()];
        for (v, vals) in ports.into_iter().enumerate() {
            for (p, val) in vals.iter().enumerate() {
                let a = g.arc(v, p);
                let e = g.edge_of(a);
                if v < g.head(a) {
                    y[e] = val.clone();
                } else {
                    assert_eq!(&y[e], val, "endpoint copies of y(e) disagree (edge {e})");
                }
            }
        }
        EdgePacking { y }
    }

    /// `y[v] = Σ_{e ∋ v} y(e)`.
    pub fn load(&self, g: &Graph, v: usize) -> V {
        let mut acc = V::zero();
        for a in g.arc_range(v) {
            acc = acc.add(&self.y[g.edge_of(a)]);
        }
        acc
    }

    /// Residual weight `r_y(v) = w_v − y[v]`.
    pub fn residual(&self, g: &Graph, weights: &[u64], v: usize) -> V {
        V::from_u64(weights[v]).sub(&self.load(g, v))
    }

    /// Feasibility: `y(e) ≥ 0` for all e and `y[v] ≤ w_v` for all v.
    pub fn is_feasible(&self, g: &Graph, weights: &[u64]) -> bool {
        self.y.iter().all(|y| *y >= V::zero())
            && (0..g.n()).all(|v| self.load(g, v) <= V::from_u64(weights[v]))
    }

    /// Whether node `v` is saturated (`y[v] = w_v`).
    pub fn is_saturated(&self, g: &Graph, weights: &[u64], v: usize) -> bool {
        self.load(g, v) == V::from_u64(weights[v])
    }

    /// The saturated node set `C(y)` as a membership vector.
    pub fn saturated_nodes(&self, g: &Graph, weights: &[u64]) -> Vec<bool> {
        (0..g.n()).map(|v| self.is_saturated(g, weights, v)).collect()
    }

    /// Maximality: every edge has a saturated endpoint (§1.1).
    pub fn is_maximal(&self, g: &Graph, weights: &[u64]) -> bool {
        covers_every_edge(g, &self.saturated_nodes(g, weights))
    }

    /// The dual objective `Σ_e y(e)` — a lower bound on the LP optimum and
    /// hence on the minimum-weight vertex cover.
    pub fn dual_value(&self) -> V {
        anonet_bigmath::value::sum(&self.y)
    }
}

/// Whether every edge of `g` has an endpoint in `set` (a membership vector).
pub fn covers_every_edge(g: &Graph, set: &[bool]) -> bool {
    g.edge_iter().all(|(_, u, v)| set[u] || set[v])
}

/// A fractional packing `y: U → [0, ∞)` on a set-cover instance (§1.2),
/// stored by element index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FractionalPacking<V> {
    /// `y(u)` per element index (0-based).
    pub y: Vec<V>,
}

impl<V: PackingValue> FractionalPacking<V> {
    /// The all-zero packing.
    pub fn zero(inst: &SetCoverInstance) -> Self {
        FractionalPacking { y: vec![V::zero(); inst.n_elements()] }
    }

    /// `y[s] = Σ_{u ∈ N(s)} y(u)`.
    pub fn load(&self, inst: &SetCoverInstance, s: usize) -> V {
        let mut acc = V::zero();
        for u in inst.members(s) {
            acc = acc.add(&self.y[u]);
        }
        acc
    }

    /// Residual weight `r_y(s) = w_s − y[s]`.
    pub fn residual(&self, inst: &SetCoverInstance, s: usize) -> V {
        V::from_u64(inst.weights[s]).sub(&self.load(inst, s))
    }

    /// Feasibility: `y(u) ≥ 0` and `y[s] ≤ w_s` for every subset s.
    pub fn is_feasible(&self, inst: &SetCoverInstance) -> bool {
        self.y.iter().all(|y| *y >= V::zero())
            && (0..inst.n_subsets).all(|s| self.load(inst, s) <= V::from_u64(inst.weights[s]))
    }

    /// Whether subset `s` is saturated (`y[s] = w_s`).
    pub fn is_subset_saturated(&self, inst: &SetCoverInstance, s: usize) -> bool {
        self.load(inst, s) == V::from_u64(inst.weights[s])
    }

    /// The saturated subset collection `C(y)`.
    pub fn saturated_subsets(&self, inst: &SetCoverInstance) -> Vec<bool> {
        (0..inst.n_subsets).map(|s| self.is_subset_saturated(inst, s)).collect()
    }

    /// Whether element `u` is saturated (some containing subset saturated).
    pub fn is_element_saturated(&self, inst: &SetCoverInstance, u: usize) -> bool {
        inst.containing(u).any(|s| self.is_subset_saturated(inst, s))
    }

    /// Maximality: every element is saturated (§1.2).
    pub fn is_maximal(&self, inst: &SetCoverInstance) -> bool {
        (0..inst.n_elements()).all(|u| self.is_element_saturated(inst, u))
    }

    /// The dual objective `Σ_u y(u)` — a lower bound on the minimum-weight
    /// set cover.
    pub fn dual_value(&self) -> V {
        anonet_bigmath::value::sum(&self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_bigmath::BigRat;
    use anonet_sim::Graph;

    fn triangle() -> (Graph, Vec<u64>) {
        (Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap(), vec![2, 2, 2])
    }

    fn r(n: i64, d: u64) -> BigRat {
        BigRat::from_frac(n, d)
    }

    #[test]
    fn zero_packing_feasible_not_maximal() {
        let (g, w) = triangle();
        let p = EdgePacking::<BigRat>::zero(&g);
        assert!(p.is_feasible(&g, &w));
        assert!(!p.is_maximal(&g, &w));
        assert_eq!(p.dual_value(), BigRat::zero());
        assert_eq!(p.saturated_nodes(&g, &w), vec![false; 3]);
    }

    #[test]
    fn saturating_packing_on_triangle() {
        let (g, w) = triangle();
        // y = 1 on each edge: every node has load 2 = w.
        let p = EdgePacking { y: vec![r(1, 1); 3] };
        assert!(p.is_feasible(&g, &w));
        assert!(p.is_maximal(&g, &w));
        assert_eq!(p.saturated_nodes(&g, &w), vec![true; 3]);
        assert_eq!(p.dual_value(), r(3, 1));
        assert_eq!(p.residual(&g, &w, 0), BigRat::zero());
    }

    #[test]
    fn infeasible_detected() {
        let (g, w) = triangle();
        let p = EdgePacking { y: vec![r(3, 2), r(3, 2), BigRat::zero()] };
        // Node 1 load = 3/2 + ... node 1 is in edges 0 and 1: 3/2+3/2 = 3 > 2.
        assert!(!p.is_feasible(&g, &w));
        let neg = EdgePacking { y: vec![r(-1, 1), BigRat::zero(), BigRat::zero()] };
        assert!(!neg.is_feasible(&g, &w));
    }

    #[test]
    fn partial_maximality() {
        // Path 0-1-2, w = [1, 1, 1]; saturate only edge (0,1) by y=1.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let w = vec![1, 1, 1];
        let p = EdgePacking { y: vec![r(1, 1), BigRat::zero()] };
        assert!(p.is_feasible(&g, &w));
        // Edge (1,2): node 1 is saturated, so the edge is saturated: maximal!
        assert!(p.is_maximal(&g, &w));
        assert_eq!(p.saturated_nodes(&g, &w), vec![true, true, false]);
    }

    fn small_sc() -> SetCoverInstance {
        SetCoverInstance::new(3, &[vec![0, 1], vec![1, 2]], vec![4, 6]).unwrap()
    }

    #[test]
    fn fractional_packing_checks() {
        let inst = small_sc();
        let zero = FractionalPacking::<BigRat>::zero(&inst);
        assert!(zero.is_feasible(&inst));
        assert!(!zero.is_maximal(&inst));

        // y = (2, 2, 4): s0 load = 4 = w0 (saturated), s1 load = 6 = w1.
        let p = FractionalPacking { y: vec![r(2, 1), r(2, 1), r(4, 1)] };
        assert!(p.is_feasible(&inst));
        assert!(p.is_maximal(&inst));
        assert_eq!(p.saturated_subsets(&inst), vec![true, true]);
        assert_eq!(p.dual_value(), r(8, 1));

        // y = (4, 0, 0): s0 saturated; element 2 (only in s1) unsaturated.
        let q = FractionalPacking { y: vec![r(4, 1), BigRat::zero(), BigRat::zero()] };
        assert!(q.is_feasible(&inst));
        assert!(!q.is_maximal(&inst));
        assert!(q.is_element_saturated(&inst, 0));
        assert!(q.is_element_saturated(&inst, 1));
        assert!(!q.is_element_saturated(&inst, 2));

        // Overload s0.
        let bad = FractionalPacking { y: vec![r(3, 1), r(2, 1), BigRat::zero()] };
        assert!(!bad.is_feasible(&inst));
    }
}
