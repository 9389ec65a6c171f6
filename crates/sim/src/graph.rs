//! Communication graphs in CSR form with explicit port numbering.
//!
//! The paper's port-numbering model (§1.3) lets a node of degree d refer to
//! its neighbours by integers 1..d. Here ports are 0-based indices into the
//! node's contiguous arc range; the *order of the adjacency lists defines the
//! port numbering*, so generators that need adversarial or symmetric port
//! assignments (e.g. Fig. 3) simply order the lists accordingly.
//!
//! Construction is hash-free: [`Graph::from_adjacency`] sorts one key per
//! arc to find duplicates and pair reverse arcs, and every choice that shapes
//! the result (edge ids, which error is reported) follows the caller-ordered
//! adjacency lists, so no hasher seed can reach a graph or an error message.

use std::collections::HashSet;
use std::fmt;

/// Error raised by graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Endpoint out of range.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// Self-loops are not allowed (simple graphs only, per the paper).
    SelfLoop(usize),
    /// Duplicate undirected edge.
    DuplicateEdge(usize, usize),
    /// Adjacency lists do not describe a symmetric relation.
    AsymmetricAdjacency(usize, usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::AsymmetricAdjacency(u, v) => {
                write!(f, "adjacency lists asymmetric: {u} lists {v} but not vice versa")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph in CSR (compressed sparse row) layout with
/// port numbering.
///
/// Each undirected edge `{u, v}` is stored as two directed *arcs* `u→v` and
/// `v→u`. Arcs are grouped contiguously by source node; the position of an
/// arc within its source's group is the source's **port number** for that
/// edge (0-based; the paper writes 1..deg(v)).
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `arc_start[v]..arc_start[v+1]` is the arc range of node `v`; len n+1.
    arc_start: Vec<usize>,
    /// Head (target node) of each arc.
    arc_head: Vec<u32>,
    /// Index of the reverse arc.
    arc_rev: Vec<u32>,
    /// Undirected edge id of each arc (two arcs share an id).
    arc_edge: Vec<u32>,
    /// Endpoints of each undirected edge, `(min, max)` by construction order.
    edges: Vec<(u32, u32)>,
    /// Maximum degree Δ, fixed at construction.
    max_degree: usize,
}

impl Graph {
    /// Builds a graph from an edge list; port order at each node is the order
    /// in which its edges appear in `edges`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut seen = HashSet::new(); // lint: allow(determinism) — membership-only duplicate detector, never iterated
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(GraphError::DuplicateEdge(u, v));
            }
            adj[u].push(v);
            adj[v].push(u);
        }
        Graph::from_adjacency(adj)
    }

    /// Builds a graph from explicit ordered adjacency lists: `adj[v][p]` is
    /// the neighbour of `v` on port `p`. The lists must be symmetric, simple
    /// and loop-free. This is the entry point for generators that control the
    /// port numbering exactly (symmetric instances, covering lifts).
    ///
    /// Ports keep the list order. Edge ids are numbered in adjacency order at
    /// each edge's *second* arc. On invalid input the error names the first
    /// offending arc in list order — out of range, self-loop, or the repeat
    /// of an earlier entry — and, for otherwise valid lists, the first arc
    /// whose reverse is missing.
    pub fn from_adjacency(adj: Vec<Vec<usize>>) -> Result<Graph, GraphError> {
        let n = adj.len();
        let mut arc_start = Vec::with_capacity(n + 1);
        arc_start.push(0usize);
        for list in &adj {
            arc_start.push(arc_start[arc_start.len() - 1] + list.len());
        }
        let total_arcs = arc_start[n];
        let max_degree = adj.iter().map(Vec::len).max().unwrap_or(0);

        // One key per arc, (lo, hi, tail == hi, arc) packed high to low: a
        // sort groups each node pair into one run, the lo-tail arcs first,
        // each side in list order. Scanning stops at the first out-of-range
        // or self-loop entry; only a repeat before it can be reported.
        let mut arc_head = Vec::with_capacity(total_arcs);
        let mut keys: Vec<u128> = Vec::with_capacity(total_arcs);
        let mut bad = None;
        'scan: for (v, list) in adj.iter().enumerate() {
            for &u in list {
                if u >= n {
                    bad = Some(GraphError::NodeOutOfRange { node: u, n });
                    break 'scan;
                }
                if u == v {
                    bad = Some(GraphError::SelfLoop(v));
                    break 'scan;
                }
                keys.push(arc_key(v, u, arc_head.len()));
                arc_head.push(u as u32);
            }
        }
        keys.sort_unstable();

        // A repeat is a key equal to its predecessor up to the arc index;
        // the earliest repeated arc is the one a list walk meets first.
        let repeat = keys.windows(2).filter(|w| w[0] >> 63 == w[1] >> 63).map(|w| w[1]);
        if let Some(k) = repeat.min_by_key(|&k| key_arc(k)) {
            let (v, u) = key_ends(k);
            return Err(GraphError::DuplicateEdge(v, u));
        }
        if let Some(e) = bad {
            return Err(e);
        }

        // Every run now holds at most one arc per side: a full run is an arc
        // and its reverse, a lone arc has no reverse.
        let mut arc_rev = vec![0u32; total_arcs];
        let mut lone: Option<u128> = None;
        let mut i = 0;
        while i < keys.len() {
            let k = keys[i];
            if i + 1 < keys.len() && keys[i + 1] >> 64 == k >> 64 {
                let (a, b) = (key_arc(k), key_arc(keys[i + 1]));
                arc_rev[a] = b as u32;
                arc_rev[b] = a as u32;
                i += 2;
            } else {
                if lone.map_or(true, |l| key_arc(k) < key_arc(l)) {
                    lone = Some(k);
                }
                i += 1;
            }
        }
        if let Some(k) = lone {
            let (v, u) = key_ends(k);
            return Err(GraphError::AsymmetricAdjacency(v, u));
        }

        let mut arc_edge = vec![0u32; total_arcs];
        let mut edges = Vec::with_capacity(total_arcs / 2);
        for a in 0..total_arcs {
            let b = arc_rev[a] as usize;
            if b < a {
                let e = edges.len() as u32;
                arc_edge[a] = e;
                arc_edge[b] = e;
                let (u, v) = (arc_head[a], arc_head[b]);
                edges.push((u.min(v), u.max(v)));
            }
        }
        Ok(Graph { arc_start, arc_head, arc_rev, arc_edge, edges, max_degree })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.arc_start.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed arcs (2m).
    #[inline]
    pub fn arcs(&self) -> usize {
        self.arc_head.len()
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.arc_start[v + 1] - self.arc_start[v]
    }

    /// Maximum degree Δ (0 for the empty graph).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The arc id of node `v`'s port `p`.
    #[inline]
    pub fn arc(&self, v: usize, p: usize) -> usize {
        debug_assert!(p < self.degree(v));
        self.arc_start[v] + p
    }

    /// The arc range of node `v` (its out-arcs, in port order).
    #[inline]
    pub fn arc_range(&self, v: usize) -> std::ops::Range<usize> {
        self.arc_start[v]..self.arc_start[v + 1]
    }

    /// The combined out-arc range of the contiguous node range `nodes`:
    /// `arc_span(a..b)` covers exactly the arcs of nodes `a, a+1, …, b−1`,
    /// in node order. Empty node ranges yield empty arc ranges, and
    /// `arc_span(a..b).len()` is the sum of the degrees in `a..b` — the
    /// invariant the engine's per-thread buffer slicing relies on.
    #[inline]
    pub fn arc_span(&self, nodes: std::ops::Range<usize>) -> std::ops::Range<usize> {
        debug_assert!(nodes.start <= nodes.end && nodes.end <= self.n());
        self.arc_start[nodes.start]..self.arc_start[nodes.end]
    }

    /// Head (target) of an arc.
    #[inline]
    pub fn head(&self, arc: usize) -> usize {
        self.arc_head[arc] as usize
    }

    /// Source of an arc.
    #[inline]
    pub fn tail(&self, arc: usize) -> usize {
        self.head(self.rev(arc))
    }

    /// The reverse arc.
    #[inline]
    pub fn rev(&self, arc: usize) -> usize {
        self.arc_rev[arc] as usize
    }

    /// The reverse-arc words of a contiguous arc range, as one slice — the
    /// engine's gather walks this instead of paying a bounds check per
    /// [`rev`](Graph::rev) call, and its exact length lets the caller
    /// reserve once.
    #[inline]
    pub fn rev_arcs(&self, arcs: std::ops::Range<usize>) -> &[u32] {
        &self.arc_rev[arcs]
    }

    /// The head words of a contiguous arc range, as one slice — the
    /// port-numbering gather walks it beside [`rev_arcs`](Graph::rev_arcs)
    /// to find each port's sender.
    #[inline]
    pub fn heads(&self, arcs: std::ops::Range<usize>) -> &[u32] {
        &self.arc_head[arcs]
    }

    /// Undirected edge id of an arc.
    #[inline]
    pub fn edge_of(&self, arc: usize) -> usize {
        self.arc_edge[arc] as usize
    }

    /// Endpoints `(min, max)` of undirected edge `e`.
    #[inline]
    pub fn edge(&self, e: usize) -> (usize, usize) {
        let (u, v) = self.edges[e];
        (u as usize, v as usize)
    }

    /// Port number of an arc at its source.
    #[inline]
    pub fn port_of(&self, arc: usize) -> usize {
        arc - self.arc_start[self.tail(arc)]
    }

    /// Iterates `(port, neighbour)` pairs of node `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.arc_range(v).map(move |a| (a - self.arc_start[v], self.head(a)))
    }

    /// Iterates all undirected edges as `(edge_id, u, v)`.
    pub fn edge_iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.edges.iter().enumerate().map(|(e, &(u, v))| (e, u as usize, v as usize))
    }

    /// Returns the ordered adjacency lists (port order).
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        (0..self.n()).map(|v| self.neighbors(v).map(|(_, u)| u).collect()).collect()
    }

    /// Returns a graph with each node's port order permuted by `perm`, where
    /// `perm(v, old_ports) -> new_order` returns the neighbour list of `v` in
    /// the new port order. Used to test port-numbering sensitivity.
    pub fn reorder_ports(&self, mut perm: impl FnMut(usize, &[usize]) -> Vec<usize>) -> Graph {
        let adj: Vec<Vec<usize>> = (0..self.n())
            .map(|v| {
                let old: Vec<usize> = self.neighbors(v).map(|(_, u)| u).collect();
                let new = perm(v, &old);
                assert_eq!(
                    {
                        let mut a = new.clone();
                        a.sort_unstable();
                        a
                    },
                    {
                        let mut b = old.clone();
                        b.sort_unstable();
                        b
                    },
                    "reorder_ports must permute the neighbour list of node {v}"
                );
                new
            })
            .collect();
        Graph::from_adjacency(adj).expect("permutation of a valid graph is valid")
    }

    /// True iff `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).any(|(_, w)| w == v)
    }
}

/// Sort key of arc `arc` from `tail` to `head`: the node pair `(lo, hi)`,
/// then the side bit (set when the tail is `hi`), then the arc index.
fn arc_key(tail: usize, head: usize, arc: usize) -> u128 {
    let (lo, hi) = (tail.min(head) as u128, tail.max(head) as u128);
    lo << 96 | hi << 64 | u128::from(tail > head) << 63 | arc as u128
}

fn side(key: u128) -> bool {
    key >> 63 & 1 == 1
}

fn key_arc(key: u128) -> usize {
    (key as u64 & (u64::MAX >> 1)) as usize
}

/// `(tail, head)` of a key's arc.
fn key_ends(key: u128) -> (usize, usize) {
    let (lo, hi) = ((key >> 96) as usize, (key >> 64) as u32 as usize);
    if side(key) {
        (hi, lo)
    } else {
        (lo, hi)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={}, Δ={})", self.n(), self.m(), self.max_degree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.arcs(), 6);
        assert_eq!(g.max_degree(), 2);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn empty_and_isolated() {
        let g = Graph::from_edges(4, &[]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        let g0 = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g0.n(), 0);
    }

    #[test]
    fn rev_arcs_are_involution() {
        let g = triangle();
        for a in 0..g.arcs() {
            assert_eq!(g.rev(g.rev(a)), a);
            assert_ne!(g.rev(a), a);
            assert_eq!(g.head(g.rev(a)), g.tail(a));
            assert_eq!(g.edge_of(a), g.edge_of(g.rev(a)));
        }
    }

    #[test]
    fn ports_follow_insertion_order() {
        // Node 1 sees edge (0,1) first, then (1,2): port 0 -> 0, port 1 -> 2.
        let g = triangle();
        let nb: Vec<(usize, usize)> = g.neighbors(1).collect();
        assert_eq!(nb, vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn port_of_and_arc_consistent() {
        let g = triangle();
        for v in 0..g.n() {
            for p in 0..g.degree(v) {
                let a = g.arc(v, p);
                assert_eq!(g.port_of(a), p);
                assert_eq!(g.tail(a), v);
            }
        }
    }

    #[test]
    fn arc_span_matches_arc_ranges() {
        // Star: degrees (3, 1, 1, 1) — deliberately non-uniform.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        for a in 0..=g.n() {
            for b in a..=g.n() {
                let span = g.arc_span(a..b);
                let expect: usize = (a..b).map(|v| g.degree(v)).sum();
                assert_eq!(span.len(), expect, "span {a}..{b}");
                if a < b {
                    assert_eq!(span.start, g.arc_range(a).start);
                    assert_eq!(span.end, g.arc_range(b - 1).end);
                } else {
                    assert!(span.is_empty());
                }
            }
        }
        // Full span covers every arc exactly once.
        assert_eq!(g.arc_span(0..g.n()), 0..g.arcs());
        // Consecutive spans tile.
        assert_eq!(g.arc_span(0..2).end, g.arc_span(2..4).start);
    }

    #[test]
    fn arc_span_empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(g.arc_span(0..0).is_empty());
        let g = Graph::from_edges(3, &[]).unwrap();
        assert!(g.arc_span(0..3).is_empty());
    }

    #[test]
    fn edge_endpoints() {
        let g = triangle();
        let mut ends: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();
        ends.sort_unstable();
        assert_eq!(ends, vec![(0, 1), (0, 2), (1, 2)]);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 5)]).unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, n: 2 }
        );
        assert_eq!(Graph::from_edges(2, &[(1, 1)]).unwrap_err(), GraphError::SelfLoop(1));
        assert_eq!(
            Graph::from_edges(2, &[(0, 1), (1, 0)]).unwrap_err(),
            GraphError::DuplicateEdge(1, 0)
        );
        assert!(matches!(
            Graph::from_adjacency(vec![vec![1], vec![]]),
            Err(GraphError::AsymmetricAdjacency(0, 1))
        ));
    }

    #[test]
    fn from_adjacency_controls_ports() {
        // Path 0-1-2 with node 1 listing 2 before 0.
        let g = Graph::from_adjacency(vec![vec![1], vec![2, 0], vec![1]]).unwrap();
        let nb: Vec<(usize, usize)> = g.neighbors(1).collect();
        assert_eq!(nb, vec![(0, 2), (1, 0)]);
    }

    #[test]
    fn reorder_ports_reverses() {
        let g = triangle();
        let r = g.reorder_ports(|_, old| old.iter().rev().copied().collect());
        assert_eq!(r.n(), 3);
        assert_eq!(r.m(), 3);
        let nb: Vec<(usize, usize)> = r.neighbors(1).collect();
        assert_eq!(nb, vec![(0, 2), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "must permute")]
    fn reorder_ports_validates() {
        let g = triangle();
        let _ = g.reorder_ports(|_, _| vec![0, 0]);
    }

    /// The hash-based builder `from_adjacency` used before the sort-based
    /// one: the reference the differential below checks against.
    fn hashed_reference(adj: &[Vec<usize>]) -> Result<Graph, GraphError> {
        use std::collections::{HashMap, HashSet};
        let n = adj.len();
        let mut pair_count: HashSet<(usize, usize)> = HashSet::new();
        for (v, list) in adj.iter().enumerate() {
            let mut local = HashSet::new();
            for &u in list {
                if u >= n {
                    return Err(GraphError::NodeOutOfRange { node: u, n });
                }
                if u == v {
                    return Err(GraphError::SelfLoop(v));
                }
                if !local.insert(u) {
                    return Err(GraphError::DuplicateEdge(v, u));
                }
                pair_count.insert((v, u));
            }
        }
        for (v, list) in adj.iter().enumerate() {
            for &u in list {
                if !pair_count.contains(&(u, v)) {
                    return Err(GraphError::AsymmetricAdjacency(v, u));
                }
            }
        }
        let mut arc_start = vec![0usize];
        for list in adj {
            arc_start.push(arc_start.last().unwrap() + list.len());
        }
        let total_arcs = *arc_start.last().unwrap();
        let mut arc_head = vec![0u32; total_arcs];
        let mut arc_rev = vec![0u32; total_arcs];
        let mut arc_edge = vec![0u32; total_arcs];
        let mut edges = Vec::new();
        let mut first_arc = HashMap::<(usize, usize), usize>::new();
        for (v, list) in adj.iter().enumerate() {
            for (p, &u) in list.iter().enumerate() {
                let a = arc_start[v] + p;
                arc_head[a] = u as u32;
                let key = (v.min(u), v.max(u));
                match first_arc.get(&key) {
                    None => {
                        first_arc.insert(key, a);
                    }
                    Some(&b) => {
                        arc_rev[a] = b as u32;
                        arc_rev[b] = a as u32;
                        let e = edges.len() as u32;
                        arc_edge[a] = e;
                        arc_edge[b] = e;
                        edges.push((key.0 as u32, key.1 as u32));
                    }
                }
            }
        }
        let max_degree = adj.iter().map(Vec::len).max().unwrap_or(0);
        Ok(Graph { arc_start, arc_head, arc_rev, arc_edge, edges, max_degree })
    }

    /// xorshift64 — a fixed-seed stream for the differential below.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random simple graph with shuffled port orders, as adjacency lists.
    fn random_adjacency(state: &mut u64) -> Vec<Vec<usize>> {
        let n = (next(state) % 24) as usize;
        let mut adj = vec![Vec::new(); n];
        for u in 0..n {
            for v in u + 1..n {
                if next(state) % 4 == 0 {
                    adj[u].push(v);
                    adj[v].push(u);
                }
            }
        }
        for list in &mut adj {
            for i in (1..list.len()).rev() {
                list.swap(i, (next(state) % (i as u64 + 1)) as usize);
            }
        }
        adj
    }

    #[test]
    fn sort_based_builder_matches_the_hashed_reference() {
        let mut state = 0x2545_f491_4f6c_dd1d;
        let mut errors = [0usize; 4];
        for case in 0..3000 {
            let mut adj = random_adjacency(&mut state);
            // Two cases in three corrupt the lists, a few times over.
            for _ in 0..(next(&mut state) % 3) {
                let n = adj.len();
                if n == 0 {
                    break;
                }
                let v = (next(&mut state) % n as u64) as usize;
                let len = adj[v].len() as u64;
                let at = (next(&mut state) % (len + 1)) as usize;
                match next(&mut state) % 5 {
                    // Out of range.
                    0 => adj[v].push(n + (next(&mut state) % 3) as usize),
                    // Self-loop.
                    1 => adj[v].insert(at, v),
                    // Repeat of an entry.
                    2 if len > 0 => {
                        let u = adj[v][(next(&mut state) % len) as usize];
                        adj[v].insert(at, u);
                    }
                    // Missing reverse.
                    3 if len > 0 => {
                        adj[v].remove((next(&mut state) % len) as usize);
                    }
                    // Extra entry without a reverse.
                    _ => {
                        let u = (next(&mut state) % n as u64) as usize;
                        if u != v && !adj[v].contains(&u) {
                            adj[v].push(u);
                        }
                    }
                }
            }
            let want = hashed_reference(&adj);
            let got = Graph::from_adjacency(adj.clone());
            assert_eq!(got, want, "case {case}: {adj:?}");
            if let Err(e) = &want {
                errors[match e {
                    GraphError::NodeOutOfRange { .. } => 0,
                    GraphError::SelfLoop(_) => 1,
                    GraphError::DuplicateEdge(..) => 2,
                    GraphError::AsymmetricAdjacency(..) => 3,
                }] += 1;
            }
        }
        assert!(errors.iter().all(|&c| c >= 50), "every error variant exercised: {errors:?}");
    }

    #[test]
    fn first_offending_arc_in_list_order_is_reported() {
        // A repeat before an out-of-range entry wins, and vice versa.
        let g = Graph::from_adjacency(vec![vec![1, 1, 5], vec![0]]);
        assert_eq!(g.unwrap_err(), GraphError::DuplicateEdge(0, 1));
        let g = Graph::from_adjacency(vec![vec![5, 1, 1], vec![0]]);
        assert_eq!(g.unwrap_err(), GraphError::NodeOutOfRange { node: 5, n: 2 });
        // The second repeat of a triple is reported, not the third.
        let g = Graph::from_adjacency(vec![vec![2, 1, 1, 1], vec![0], vec![0]]);
        assert_eq!(g.unwrap_err(), GraphError::DuplicateEdge(0, 1));
        // The first arc without a reverse, in list order.
        let g = Graph::from_adjacency(vec![vec![2], vec![2], vec![1]]);
        assert_eq!(g.unwrap_err(), GraphError::AsymmetricAdjacency(0, 2));
    }

    #[test]
    fn max_degree_is_stored() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.reorder_ports(|_, old| old.iter().rev().copied().collect()).max_degree(), 3);
    }

    #[test]
    fn adjacency_roundtrip() {
        let g = triangle();
        let adj = g.adjacency();
        let g2 = Graph::from_adjacency(adj).unwrap();
        assert_eq!(g, g2);
    }
}
