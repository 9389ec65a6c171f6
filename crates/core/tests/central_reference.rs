//! An independent *centralized* re-implementation of the §3 algorithm,
//! written straight from the paper's pseudocode (global view, no message
//! passing), compared **exactly** against the distributed implementation.
//! Along the way it verifies Lemma 1 (the maximum degree of G_yc drops every
//! Phase I iteration) and Lemma 2 (every colour element q satisfies
//! 0 < q ≤ W and q·(Δ!)^Δ ∈ ℕ) on every instance it touches.

use anonet_bigmath::{BigRat, PackingValue, UBig};
use anonet_core::encode::{cv_step, cv_step_root, SeqEncoder};
use anonet_core::vc_pn::{run_edge_packing_scratch, VcConfig, VcInstance};
use anonet_gen::{family, WeightSpec};
use anonet_sim::{EngineScratch, Graph};
use std::cmp::Ordering;

type V = BigRat;

/// Centralized §3: returns (y per edge, cover).
fn central_sec3(g: &Graph, weights: &[u64], delta: usize, w_bound: u64) -> (Vec<V>, Vec<bool>) {
    let n = g.n();
    let m = g.m();
    let mut y: Vec<V> = vec![V::zero(); m];
    let mut seq: Vec<Vec<V>> = vec![Vec::new(); n];
    let resid = |y: &Vec<V>, v: usize| -> V {
        let mut r = V::from_u64(weights[v]);
        for a in g.arc_range(v) {
            r = r.sub(&y[g.edge_of(a)]);
        }
        r
    };

    // ---- Phase I: Δ iterations of steps (i)–(iii) ----
    let scale = UBig::factorial(delta as u64).pow(delta as u64);
    let mut prev_max_degyc = usize::MAX;
    for _it in 0..delta {
        let r: Vec<V> = (0..n).map(|v| resid(&y, v)).collect();
        let in_eyc: Vec<bool> = (0..m)
            .map(|e| {
                let (u, v) = g.edge(e);
                r[u].is_positive() && r[v].is_positive() && seq[u] == seq[v]
            })
            .collect();
        let degyc: Vec<usize> =
            (0..n).map(|v| g.arc_range(v).filter(|&a| in_eyc[g.edge_of(a)]).count()).collect();
        // Lemma 1: the maximum degree of G_yc decreases by ≥ 1 per iteration.
        let max_degyc = degyc.iter().copied().max().unwrap_or(0);
        assert!(
            prev_max_degyc == usize::MAX || max_degyc < prev_max_degyc || max_degyc == 0,
            "Lemma 1 violated: max deg {prev_max_degyc} -> {max_degyc}"
        );
        prev_max_degyc = max_degyc;

        let x: Vec<Option<V>> = (0..n)
            .map(|v| (degyc[v] > 0).then(|| r[v].div(&V::from_u64(degyc[v] as u64))))
            .collect();
        for e in 0..m {
            if in_eyc[e] {
                let (u, v) = g.edge(e);
                let (xu, xv) = (x[u].as_ref().unwrap(), x[v].as_ref().unwrap());
                y[e] = y[e].add(if xu <= xv { xu } else { xv });
            }
        }
        for v in 0..n {
            let q = x[v].clone().unwrap_or_else(V::one);
            // Lemma 2: 0 < q ≤ W and q (Δ!)^Δ ∈ ℕ.
            assert!(q.is_positive(), "Lemma 2: colour element must be positive");
            assert!(q <= V::from_u64(w_bound), "Lemma 2: q ≤ W");
            assert!(
                q.checked_scale_to_uint(&scale).is_some(),
                "Lemma 2: q·(Δ!)^Δ must be integral"
            );
            seq[v].push(q);
        }
    }
    // Phase I postcondition: E_yc is empty.
    {
        let r: Vec<V> = (0..n).map(|v| resid(&y, v)).collect();
        for (e, u, v) in g.edge_iter() {
            let _ = e;
            assert!(
                !(r[u].is_positive() && r[v].is_positive() && seq[u] == seq[v]),
                "E_yc nonempty after Δ iterations"
            );
        }
    }

    // ---- Phase II ----
    let r: Vec<V> = (0..n).map(|v| resid(&y, v)).collect();
    let active: Vec<bool> = r.iter().map(|x| x.is_positive()).collect();
    // A-edges oriented lower → higher colour (lexicographic sequence order).
    let in_a: Vec<bool> = (0..m)
        .map(|e| {
            let (u, v) = g.edge(e);
            active[u] && active[v]
        })
        .collect();
    // Forest assignment: each node ranks its outgoing A-edges by port order.
    let mut forest_of_edge: Vec<Option<usize>> = vec![None; m];
    let mut parent_port: Vec<Vec<Option<usize>>> = vec![vec![None; delta]; n]; // node -> forest -> port
    let mut children: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); delta]; n];
    for u in 0..n {
        let mut rank = 0usize;
        for a in g.arc_range(u) {
            let e = g.edge_of(a);
            let v = g.head(a);
            if in_a[e] && seq[u].cmp(&seq[v]) == Ordering::Less {
                forest_of_edge[e] = Some(rank);
                parent_port[u][rank] = Some(a - g.arc_range(u).start);
                rank += 1;
            }
        }
    }
    for v in 0..n {
        for (p, a) in g.arc_range(v).enumerate() {
            let e = g.edge_of(a);
            let u = g.head(a);
            // v is the parent if u oriented this edge into a forest.
            if let Some(i) = forest_of_edge[e] {
                if seq[u].cmp(&seq[v]) == Ordering::Less {
                    children[v][i].push(p);
                }
            }
        }
    }

    // Cole–Vishkin per forest.
    let cfg = VcConfig::new(delta, w_bound);
    let enc = SeqEncoder::phase1(delta, w_bound);
    let mut colours: Vec<Vec<Option<UBig>>> = (0..n)
        .map(|v| {
            (0..delta)
                .map(|i| {
                    (parent_port[v][i].is_some() || !children[v][i].is_empty())
                        .then(|| enc.encode(&seq[v]))
                })
                .collect()
        })
        .collect();
    let parent_of =
        |v: usize, i: usize| -> Option<usize> { parent_port[v][i].map(|p| g.head(g.arc(v, p))) };
    for _ in 0..cfg.cv_steps {
        let snapshot = colours.clone();
        for v in 0..n {
            for i in 0..delta {
                if snapshot[v][i].is_none() {
                    continue;
                }
                let own = snapshot[v][i].as_ref().unwrap();
                colours[v][i] = Some(match parent_of(v, i) {
                    Some(par) => cv_step(own, snapshot[par][i].as_ref().unwrap()),
                    None => cv_step_root(own),
                });
            }
        }
    }
    // 3 × (shift-down + eliminate 5, 4, 3).
    for elim in [5u64, 4, 3] {
        let snapshot = colours.clone();
        for v in 0..n {
            for i in 0..delta {
                if snapshot[v][i].is_none() {
                    continue;
                }
                colours[v][i] = Some(match parent_of(v, i) {
                    Some(par) => snapshot[par][i].clone().unwrap(),
                    None => {
                        let cur = snapshot[v][i].as_ref().unwrap().to_u64().unwrap();
                        UBig::from_u64((0..3).find(|&c| c != cur).unwrap())
                    }
                });
            }
        }
        let snapshot = colours.clone();
        for v in 0..n {
            for i in 0..delta {
                if snapshot[v][i].is_none()
                    || snapshot[v][i].as_ref().unwrap().to_u64() != Some(elim)
                {
                    continue;
                }
                let mut forbidden = [false; 6];
                if let Some(par) = parent_of(v, i) {
                    forbidden[snapshot[par][i].as_ref().unwrap().to_u64().unwrap() as usize] = true;
                }
                for &p in &children[v][i] {
                    let c = g.head(g.arc(v, p));
                    forbidden[snapshot[c][i].as_ref().unwrap().to_u64().unwrap() as usize] = true;
                }
                colours[v][i] =
                    Some(UBig::from_u64((0..3).find(|&c| !forbidden[c as usize]).unwrap()));
            }
        }
    }

    // Star saturation, (forest, colour) classes in sequence.
    let mut r: Vec<V> = (0..n).map(|v| resid(&y, v)).collect();
    for i in 0..delta {
        for j in 0..3u64 {
            // Gather leaves per root.
            let mut per_root: Vec<Vec<(usize, V)>> = vec![Vec::new(); n]; // root -> (edge, r_leaf)
            for u in 0..n {
                if let Some(p) = parent_port[u][i] {
                    if colours[u][i].as_ref().and_then(UBig::to_u64) == Some(j)
                        && r[u].is_positive()
                    {
                        let a = g.arc(u, p);
                        per_root[g.head(a)].push((g.edge_of(a), r[u].clone()));
                    }
                }
            }
            for v in 0..n {
                if per_root[v].is_empty() {
                    continue;
                }
                if !r[v].is_positive() {
                    continue; // grants of zero
                }
                let total = anonet_bigmath::value::sum(per_root[v].iter().map(|(_, ru)| ru));
                if total < r[v] {
                    for (e, ru) in per_root[v].clone() {
                        y[e] = y[e].add(&ru);
                        let (a, b) = g.edge(e);
                        let leaf = if a == v { b } else { a };
                        r[leaf] = r[leaf].sub(&ru);
                    }
                    r[v] = r[v].sub(&total);
                } else {
                    for (e, ru) in per_root[v].clone() {
                        let grant = ru.mul(&r[v]).div(&total);
                        y[e] = y[e].add(&grant);
                        let (a, b) = g.edge(e);
                        let leaf = if a == v { b } else { a };
                        r[leaf] = r[leaf].sub(&grant);
                    }
                    r[v] = V::zero();
                }
            }
        }
    }

    let cover: Vec<bool> = (0..n).map(|v| r[v].is_zero()).collect();
    (y, cover)
}

fn compare(g: &Graph, weights: &[u64]) {
    let delta = g.max_degree();
    let w_bound = weights.iter().copied().max().unwrap_or(1);
    let dist = run_edge_packing_scratch::<V>(
        &VcInstance::with_bounds(g, weights, delta, w_bound),
        &mut EngineScratch::new(),
    )
    .unwrap();
    let (y, cover) = central_sec3(g, weights, delta, w_bound);
    assert_eq!(dist.cover, cover, "covers differ from the centralized reference");
    assert_eq!(dist.packing.y, y, "packings differ from the centralized reference");
}

#[test]
fn matches_on_named_families() {
    for (g, seed) in [
        (family::path(7), 0u64),
        (family::cycle(8), 1),
        (family::cycle(9), 2),
        (family::star(5), 3),
        (family::grid(4, 3), 4),
        (family::petersen(), 5),
        (family::frucht(), 6),
        (family::complete(5), 7),
        (family::caterpillar(4, 2), 8),
    ] {
        let w = WeightSpec::Uniform(20).draw_many(g.n(), seed + 40);
        compare(&g, &w);
        compare(&g, &vec![1; g.n()]);
    }
}

#[test]
fn matches_on_random_graphs() {
    for seed in 0..12u64 {
        let g = family::gnp_capped(15, 0.3, 4, seed);
        let w = WeightSpec::LogUniform(1 << 12).draw_many(15, seed + 7);
        compare(&g, &w);
    }
}

#[test]
fn matches_on_regular_weighted() {
    for seed in 0..6u64 {
        let g = family::random_regular(14, 3, seed);
        let w = WeightSpec::Bimodal { w: 500, cheap_prob: 0.4 }.draw_many(14, seed + 3);
        compare(&g, &w);
    }
}
