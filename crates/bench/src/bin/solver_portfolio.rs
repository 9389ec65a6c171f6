//! **Solver-portfolio comparison table**: drives every registered solver in
//! `anonet_service::portfolio` over the real wire protocol against fixed-seed
//! `anonet-gen` families, and emits a comparative table — rounds, payload
//! bits, cover weight, certified ratio, and (the instances are small enough
//! for branch-and-bound) the true ratio against `anonet-exact` OPT.
//!
//! Regenerate with:
//! `cargo run --release -p anonet-bench --bin solver_portfolio [-- out.json]`
//! (at the repository root, that rewrites the committed
//! `BENCH_portfolio.json`, which `tests/golden.rs` pins byte for byte).
//!
//! Every reply's Bar-Yehuda–Even certificate is re-checked client-side
//! (`den·w(C) ≤ num·Σy`, exact rational arithmetic), and where the exact
//! optimum is computed the true ratio is asserted against the portfolio's
//! advertised factor — so the table is evidence, not just numbers.

use anonet_core::canon::certificate_bound_holds;
use anonet_core::vc_pn::VcInstance;
use anonet_exact::{min_weight_set_cover, min_weight_vertex_cover};
use anonet_gen::{family, setcover, WeightSpec};
use anonet_service::portfolio::{self, InstanceKind};
use anonet_service::{
    client, Client, InstanceResult, Server, ServiceConfig, SolveRequest, SolveResponse,
    SolverDescriptor,
};
use anonet_sim::{Graph, SetCoverInstance};

/// One (solver × family) measurement.
struct Row {
    solver: &'static str,
    wire_id: u8,
    family: String,
    n: usize,
    rounds: u64,
    bits: u64,
    cover_weight: u64,
    certified_ratio: f64,
    opt: u64,
    true_ratio: f64,
}

/// The fixed-seed vertex-cover families: small enough that `anonet-exact`
/// branch-and-bound terminates fast, varied enough that the solvers'
/// behaviour differs (even cycle = tight for 2-approx, trees = easy,
/// G(n,p) = irregular degrees).
fn vc_families() -> Vec<(String, Graph)> {
    vec![
        ("cycle_n32".to_string(), family::cycle(32)),
        ("regular_n32_d4".to_string(), family::random_regular(32, 4, 11)),
        ("gnp_n32".to_string(), family::gnp_capped(32, 0.12, 8, 12)),
        ("tree_n32".to_string(), family::random_tree(32, 6, 13)),
    ]
}

fn sc_families() -> Vec<(String, SetCoverInstance)> {
    vec![
        (
            "sc_rand_e24_s12".to_string(),
            setcover::random_bounded(24, 12, 2, 4, WeightSpec::Uniform(32), 17),
        ),
        ("sc_kpp_p3".to_string(), setcover::symmetric_kpp(3, 5)),
    ]
}

/// Solves a one-instance request, re-checks the served certificate
/// client-side, asserts `w(C) ≤ factor × OPT` against the exact optimum
/// `opt` and fills the row. The factor is the registry's; set cover's is the
/// instance's own f, carried by the certificate (`factor_num == 0`).
fn measure(
    c: &mut Client,
    desc: &SolverDescriptor,
    fam: &str,
    n: usize,
    req: &SolveRequest,
    opt: u64,
) -> Row {
    let solved = match c.solve(req).expect("solve") {
        SolveResponse::Ok(results) => match results.into_iter().next() {
            Some(InstanceResult::Solved(s)) => s,
            other => panic!("{}/{fam}: unexpected result {other:?}", desc.name),
        },
        other => panic!("{}/{fam}: unexpected response {other:?}", desc.name),
    };
    assert!(
        certificate_bound_holds(&solved.certificate),
        "{}/{fam}: served certificate failed the client-side re-check",
        desc.name
    );
    let w = solved.certificate.cover_weight;
    let (num, den) = match desc.factor_num {
        0 => (solved.certificate.factor, 1),
        num => (num, desc.factor_den),
    };
    // The factor is a theorem; a violation here means the served solver is
    // not the advertised one.
    assert!(
        (w as u128) * (den as u128) <= (num as u128) * (opt as u128),
        "{}/{fam}: w(C) = {w} exceeds {num}/{den} × OPT = {opt}",
        desc.name
    );
    Row {
        solver: desc.name,
        wire_id: desc.id.to_u8(),
        family: fam.to_string(),
        n,
        rounds: solved.trace.rounds,
        bits: solved.trace.bits,
        cover_weight: w,
        certified_ratio: solved.certificate.certified_ratio(),
        opt,
        true_ratio: w as f64 / opt.max(1) as f64,
    }
}

fn main() {
    let mut out_path = "BENCH_portfolio.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            other if other.starts_with('-') => {
                eprintln!("solver_portfolio: unknown flag {other}");
                eprintln!("usage: solver_portfolio [out.json]");
                std::process::exit(2);
            }
            other => out_path = other.to_string(),
        }
    }

    let server = Server::start(
        "127.0.0.1:0",
        ServiceConfig { workers: 2, threads_per_job: 1, ..ServiceConfig::default() },
    )
    .expect("bind loopback");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let vc = vc_families();
    let sc = sc_families();
    let mut rows: Vec<Row> = Vec::new();

    for desc in portfolio::solvers() {
        match desc.input {
            InstanceKind::VertexCover => {
                for (fam, g) in &vc {
                    // Unweighted solvers (PS3) are driven with unit weights;
                    // everything else gets a fixed-seed uniform spread.
                    let weights = if desc.weighted {
                        WeightSpec::Uniform(32).draw_many(g.n(), 23)
                    } else {
                        vec![1u64; g.n()]
                    };
                    let req = client::vc_request(desc.id, &[VcInstance::new(g, &weights)]);
                    let opt = min_weight_vertex_cover(g, &weights).weight;
                    rows.push(measure(&mut c, desc, fam, g.n(), &req, opt));
                }
            }
            InstanceKind::SetCover => {
                for (fam, inst) in &sc {
                    let req = client::sc_request(&[inst]);
                    let opt = min_weight_set_cover(inst).weight;
                    rows.push(measure(&mut c, desc, fam, inst.n_subsets, &req, opt));
                }
            }
        }
    }
    server.shutdown();

    // Aligned comparison table, grouped by solver in registry (= wire id)
    // order.
    println!(
        "{:<10} {:>2}  {:<16} {:>4} {:>7} {:>9} {:>6} {:>6} {:>10} {:>10}  {:<8}",
        "solver",
        "id",
        "family",
        "n",
        "rounds",
        "bits",
        "w(C)",
        "OPT",
        "cert_ratio",
        "true_ratio",
        "factor"
    );
    for r in &rows {
        let desc = &portfolio::solvers()[r.wire_id as usize];
        let factor = if desc.factor_num == 0 {
            "f".to_string()
        } else if desc.factor_den == 1 {
            format!("{}", desc.factor_num)
        } else {
            format!("{}/{}", desc.factor_num, desc.factor_den)
        };
        println!(
            "{:<10} {:>2}  {:<16} {:>4} {:>7} {:>9} {:>6} {:>6} {:>10.4} {:>10.4}  {:<8}",
            r.solver,
            r.wire_id,
            r.family,
            r.n,
            r.rounds,
            r.bits,
            r.cover_weight,
            r.opt,
            r.certified_ratio,
            r.true_ratio,
            factor
        );
    }

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"schema\": \"anonet-bench-portfolio/1\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"solver\": \"{}\", \"wire_id\": {}, \"family\": \"{}\", \"n\": {}, \
             \"rounds\": {}, \"bits\": {}, \"cover_weight\": {}, \"opt\": {}, \
             \"certified_ratio\": {:.4}, \"true_ratio\": {:.4}}}{}\n",
            r.solver,
            r.wire_id,
            r.family,
            r.n,
            r.rounds,
            r.bits,
            r.cover_weight,
            r.opt,
            r.certified_ratio,
            r.true_ratio,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_portfolio.json");
    println!("\nwrote {out_path} ({} rows)", rows.len());
}
