//! `loadgen`: synthesize a request stream from `anonet-gen` families and
//! drive a running `anonet-serve`, reporting goodput (solved req/s),
//! offered rate, and latency percentiles over solved requests — or do a
//! single verified round-trip with `--once`.
//!
//! One driver thread multiplexes every connection. `--concurrency C`
//! opens C connections with one request in flight each (the classic
//! closed loop); `--conns N` opens N connections with
//! `PIPELINE_DEPTH` requests in flight each. Give at most one of the two
//! (the default is `--concurrency 2`). `--open RATE` sends on a fixed
//! schedule of RATE requests/s over either, latency measured from each
//! request's due time; without it the loop is closed.
//!
//! ```sh
//! loadgen --addr 127.0.0.1:7411 --solver vc-pn --family regular \
//!         --n 64 --degree 4 --instances 16 --requests 128 \
//!         --concurrency 4 --assert-certified
//! loadgen --addr 127.0.0.1:7411 --solver vc-pn --requests 400 \
//!         --conns 8 --open 200 --assert-certified
//! loadgen --addr 127.0.0.1:7411 --portfolio --requests 60 --assert-certified
//! loadgen --addr 127.0.0.1:7411 --once --assert-certified
//! loadgen --addr 127.0.0.1:7411 --stats
//! ```

use anonet_gen::WeightSpec;
use anonet_service::loadgen::{
    drive, drive_mixed, synthesize, DriveConfig, FamilyKind, LoopMode, WorkloadSpec, PIPELINE_DEPTH,
};
use anonet_service::portfolio;
use anonet_service::{Client, InstanceResult, SolveRequest, SolveResponse, SolverId};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--solver ID|NAME] [--portfolio]\n\
         \x20             [--family cycle|regular|gnp|tree] [--n N] [--degree D]\n\
         \x20             [--instances K] [--requests N] [--batch B] [--concurrency C]\n\
         \x20             [--conns N] [--open RATE] [--weights unit|uniform:W|loguniform:W]\n\
         \x20             [--seed S] [--no-cache] [--assert-certified] [--once] [--stats]\n\
         \x20             [--metrics-json] [--server-metrics] [--debug-dump]\n\
         \n\
         --concurrency C: C connections, 1 request in flight each (default 2)\n\
         --conns N:       N connections, {PIPELINE_DEPTH} requests in flight each\n\
         \x20                (give at most one of --concurrency and --conns)\n\
         --open RATE:     send RATE requests/s on a fixed schedule, latency\n\
         \x20                from each request's due time (default: closed loop)\n\
         \n\
         solvers: {}",
        portfolio::solvers()
            .iter()
            .map(|d| format!("{} ({})", d.name, d.id.to_u8()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2)
}

/// Takes the flag's value argument, naming the flag if it is missing.
fn val(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        usage()
    })
}

/// Parses a flag value, naming the flag and the offending value on failure
/// (`invalid value for --requests: 'abc'`) instead of dumping bare usage.
fn parse<T: std::str::FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T {
    let raw = val(flag, args);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: '{raw}'");
        usage()
    })
}

/// Resolves a solver by wire id (`"3"`) or registry name (`"vc-ps3"`,
/// `"vc_ps3"`).
fn parse_solver(flag: &str, s: &str) -> SolverId {
    let by_id = s.parse::<u8>().ok().and_then(SolverId::from_u8);
    by_id.or_else(|| portfolio::by_name(s).map(|d| d.id)).unwrap_or_else(|| {
        eprintln!("invalid value for {flag}: '{s}' (unknown solver)");
        usage()
    })
}

fn parse_weights(flag: &str, s: &str) -> WeightSpec {
    let bad = || -> ! {
        eprintln!("invalid value for {flag}: '{s}'");
        usage()
    };
    match s.split_once(':') {
        None if s == "unit" => WeightSpec::Unit,
        Some(("uniform", w)) => WeightSpec::Uniform(w.parse().unwrap_or_else(|_| bad())),
        Some(("loguniform", w)) => WeightSpec::LogUniform(w.parse().unwrap_or_else(|_| bad())),
        _ => bad(),
    }
}

fn main() {
    let mut spec = WorkloadSpec {
        solver: SolverId::VC_PN,
        family: FamilyKind::Regular,
        n: 64,
        degree: 4,
        instances: 16,
        weights: WeightSpec::Uniform(64),
        seed: 1,
    };
    let mut cfg = DriveConfig::default();
    let (mut once, mut stats_only, mut assert_certified) = (false, false, false);
    let (mut metrics_json, mut server_metrics, mut debug_dump) = (false, false, false);
    let mut mixed_portfolio = false;
    let (mut concurrency, mut conns) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let f = flag.as_str();
        match f {
            "--addr" => cfg.addr = val(f, &mut args),
            "--solver" => spec.solver = parse_solver(f, &val(f, &mut args)),
            "--portfolio" => mixed_portfolio = true,
            "--family" => {
                spec.family = match val(f, &mut args).as_str() {
                    "cycle" => FamilyKind::Cycle,
                    "regular" => FamilyKind::Regular,
                    "gnp" => FamilyKind::Gnp,
                    "tree" => FamilyKind::Tree,
                    other => {
                        eprintln!("invalid value for {f}: '{other}'");
                        usage()
                    }
                }
            }
            "--n" => spec.n = parse(f, &mut args),
            "--degree" => spec.degree = parse(f, &mut args),
            "--instances" => spec.instances = parse(f, &mut args),
            "--weights" => spec.weights = parse_weights(f, &val(f, &mut args)),
            "--seed" => spec.seed = parse(f, &mut args),
            "--requests" => cfg.requests = parse(f, &mut args),
            "--batch" => cfg.batch = parse(f, &mut args),
            "--concurrency" => concurrency = Some(parse(f, &mut args)),
            "--conns" => conns = Some(parse(f, &mut args)),
            "--open" => cfg.mode = LoopMode::Open { rate: parse(f, &mut args) },
            "--no-cache" => cfg.no_cache = true,
            "--assert-certified" => assert_certified = true,
            "--once" => once = true,
            "--stats" => stats_only = true,
            "--metrics-json" => metrics_json = true,
            "--server-metrics" => server_metrics = true,
            "--debug-dump" => debug_dump = true,
            _ => {
                eprintln!("unknown flag {f}");
                usage()
            }
        }
    }

    if spec.instances == 0 || cfg.batch == 0 {
        fail("--instances and --batch must be at least 1");
    }
    (cfg.conns, cfg.depth) = match (concurrency, conns) {
        (Some(_), Some(_)) => fail("--concurrency and --conns exclude each other: give one"),
        (Some(c), None) => (c, 1),
        (None, Some(n)) => (n, PIPELINE_DEPTH),
        (None, None) => (cfg.conns, cfg.depth),
    };
    if cfg.conns == 0 {
        fail("--concurrency and --conns must be at least 1");
    }
    if let LoopMode::Open { rate } = cfg.mode {
        if !rate.is_finite() || rate <= 0.0 {
            fail("--open RATE must be a positive number");
        }
    }

    if stats_only || server_metrics || debug_dump {
        let mut c = Client::connect_retry(cfg.addr.as_str(), Duration::from_secs(5))
            .unwrap_or_else(|e| fail(&format!("connect {}: {e}", cfg.addr)));
        if stats_only {
            let s = c.stats().unwrap_or_else(|e| fail(&format!("stats: {e}")));
            println!("{s:#?}");
        }
        if server_metrics {
            let snap = c.metrics().unwrap_or_else(|e| fail(&format!("metrics: {e}")));
            println!("{}", snap.to_json());
        }
        if debug_dump {
            let dump = c.debug_dump().unwrap_or_else(|e| fail(&format!("debug dump: {e}")));
            println!("{dump}");
        }
        return;
    }

    let report = if mixed_portfolio {
        // Mixed-portfolio preset: one synthesized pool per registered
        // solver, requests round-robining over the whole registry so cache
        // keys and per-solver telemetry all get exercised in one run.
        let pools: Vec<(SolverId, Vec<Vec<u8>>)> = portfolio::solvers()
            .iter()
            .map(|d| {
                let per = WorkloadSpec { solver: d.id, ..spec };
                (d.id, synthesize(&per))
            })
            .collect();
        drive_mixed(&pools, &cfg).unwrap_or_else(|e| fail(&format!("loadgen drive: {e}")))
    } else {
        let blobs = synthesize(&spec);
        if once {
            run_once(&cfg, spec.solver, &blobs[0], assert_certified);
            return;
        }
        drive(spec.solver, &blobs, &cfg).unwrap_or_else(|e| fail(&format!("loadgen drive: {e}")))
    };
    if metrics_json {
        println!("{}", report.metrics_snapshot().to_json());
    } else {
        println!("{}", report.render());
    }
    if assert_certified {
        if report.errors > 0 || report.certified_instances != report.solved_instances {
            fail(&format!(
                "certification check failed: {} errors, {}/{} certified",
                report.errors, report.certified_instances, report.solved_instances
            ));
        }
        if report.solved_instances == 0 {
            fail("certification check failed: nothing solved");
        }
        println!("all {} solved instances carried verifying certificates", report.solved_instances);
    }
}

fn run_once(cfg: &DriveConfig, solver: SolverId, blob: &[u8], assert_certified: bool) {
    let mut c = Client::connect_retry(cfg.addr.as_str(), Duration::from_secs(5))
        .unwrap_or_else(|e| fail(&format!("connect {}: {e}", cfg.addr)));
    let mut req = SolveRequest::new(solver, vec![blob.to_vec()]);
    if cfg.no_cache {
        req = req.no_cache();
    }
    let resp = c.solve(&req).unwrap_or_else(|e| fail(&format!("solve: {e}")));
    match resp {
        SolveResponse::Ok(results) => match &results[0] {
            InstanceResult::Solved(s) => {
                let cert_ok = anonet_core::canon::certificate_bound_holds(&s.certificate);
                println!(
                    "solved: |cover bitmap| = {}, in cover = {}, cached = {}, \
                     certified ratio = {:.4} (factor {}), rounds = {}, cert check = {}",
                    s.cover.len(),
                    s.cover.iter().filter(|&&b| b).count(),
                    s.from_cache,
                    s.certificate.certified_ratio(),
                    s.certificate.factor,
                    s.trace.rounds,
                    if cert_ok { "ok" } else { "FAILED" },
                );
                if assert_certified && !cert_ok {
                    fail("certificate bound violated");
                }
            }
            InstanceResult::Error(e) => fail(&format!("instance error: {e}")),
        },
        other => fail(&format!("unexpected response: {other:?}")),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(1)
}
