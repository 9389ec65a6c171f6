//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against a freshly spawned server process and prints
//! `name value unit` lines followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer ones.
//! Exits non-zero when any correctness check fails.
//! See README.md.

use anonet_perfbench::check::Tally;
use anonet_perfbench::client::{self, Ctx, WindowOut};
use anonet_perfbench::pipeline::{self, Clock};
use anonet_perfbench::procfs;
use anonet_perfbench::replay::{LayerReplay, LAYERS};
use anonet_perfbench::report::{self, Outcome, END_TO_END};
use anonet_perfbench::serve::{self, ServerProc};
use anonet_perfbench::spans::{self, SpanLog};
use anonet_perfbench::stats::{self, Quiet};
use anonet_perfbench::workload::{self, Stream, Workload, SETUPS};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Spans written per file at the end of a traced run.
const SPAN_FILE_LIMIT: usize = 200_000;
/// Requests the traced run replays in-process, at most.
const MAX_REPLAY: usize = 50_000;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut o = Opts { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next()?;
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--seed" => o.seed = val.parse().ok()?,
            "--seconds" => o.seconds = val.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => o.trace = val == "1",
            _ => return None,
        }
    }
    Some(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.first().map(String::as_str) == Some("serve") {
        return serve::child_main(args.get(1).map_or("", String::as_str), nproc);
    }
    let Some(opts) = parse(&args) else { return usage() };
    let Some(w) = Workload::by_name(&opts.workload, nproc) else { return usage() };
    match run(&w, &opts, nproc) {
        Ok(outcome) if outcome.correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The git revision of the checkout, when it is a git work tree.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r)).unwrap_or_else(|| head.clone()),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Server-side counters over one window.
#[derive(Default)]
struct ServerDelta {
    cpu_us: u64,
    ctx_switches: u64,
    hwm_kb: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    readiness_events: u64,
    readiness_waits: u64,
}

fn scalar(s: &anonet_obs::Snapshot, name: &str) -> u64 {
    s.scalar(name).unwrap_or(0)
}

fn histo(s: &anonet_obs::Snapshot, name: &str) -> (u64, u64) {
    s.histo(name).map_or((0, 0), |h| (h.count, h.sum))
}

/// Runs one measurement window and the server-side accounting around it.
fn window(
    w: &Workload,
    ctx: &Ctx<'_>,
    conns: &mut [TcpStream],
    counter: &AtomicU64,
    window_ns: u64,
    pid: u32,
) -> Result<(WindowOut, ServerDelta), String> {
    let err = |e: std::io::Error| e.to_string();
    let m0 = client::metrics(&mut conns[0]).map_err(err)?;
    let p0 = procfs::sample(pid).ok_or("cannot read the server's /proc entry")?;
    let out = client::closed_window(ctx, conns, w.depth, counter, window_ns);
    let p1 = procfs::sample(pid).ok_or("cannot read the server's /proc entry")?;
    let m1 = client::metrics(&mut conns[0]).map_err(err)?;
    let d = |name: &str| scalar(&m1, name).saturating_sub(scalar(&m0, name));
    let (c0, s0) = histo(&m0, "net.readiness_batch");
    let (c1, s1) = histo(&m1, "net.readiness_batch");
    let delta = ServerDelta {
        cpu_us: p1.cpu_us.saturating_sub(p0.cpu_us),
        ctx_switches: p1.ctx_switches.saturating_sub(p0.ctx_switches),
        hwm_kb: p1.hwm_kb,
        cache_hits: d("cache_hits"),
        cache_misses: d("cache_misses"),
        cache_evictions: d("cache_evictions"),
        readiness_waits: c1.saturating_sub(c0),
        readiness_events: s1.saturating_sub(s0),
    };
    Ok((out, delta))
}

/// Every request of a window, drained ones included.
fn all_of(out: &WindowOut) -> Tally {
    let mut t = out.tally;
    t.merge(&out.drained);
    t
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run(w: &Workload, opts: &Opts, nproc: usize) -> Result<Outcome, String> {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\" rev={}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        nproc,
        env!("PERFBENCH_RUSTC_VERSION"),
        git_rev()
    );
    println!("# server: {}", w.describe());

    let mut stream: Stream = workload::build_stream(w.name, opts.seed);
    pipeline::fill_expected(&mut stream, nproc).map_err(|e| format!("oracle: {e}"))?;

    // Set up the server several times; keep the last one for measuring.
    let mut setup_ns = Vec::new();
    let mut warm = Tally::default();
    let mut kept: Option<(ServerProc, Vec<TcpStream>)> = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let srv = ServerProc::spawn(w.name).map_err(|e| format!("spawn: {e}"))?;
        let mut conns = client::connect(srv.addr, w.conns).map_err(|e| format!("connect: {e}"))?;
        warm.merge(&client::warm_up(&stream, &mut conns[0]));
        setup_ns.push(t.elapsed().as_nanos() as u64);
        if i + 1 < SETUPS {
            drop(conns);
            srv.stop().map_err(|e| format!("stop: {e}"))?;
        } else {
            kept = Some((srv, conns));
        }
    }
    let (srv, mut conns) = kept.ok_or("no set-up ran")?;
    let setup_s = stats::median(&mut setup_ns) as f64 / 1e9;

    let clock = Clock::start();
    let counter = AtomicU64::new(0);
    let total_ns = (opts.seconds * 1e9) as u64;
    let mut values = BTreeMap::new();
    let mut failures = warm.correctness_failures();
    let (attempted, failed);

    if !opts.trace {
        let ctx = Ctx { stream: &stream, clock, traced: false };
        let (out, delta) = window(w, &ctx, &mut conns, &counter, total_ns, srv.pid)?;
        drop(conns);
        srv.stop().map_err(|e| format!("stop: {e}"))?;
        let all = all_of(&out);
        let q = out.quiet();
        describe_window("measured", &q, &out);
        failures += all.correctness_failures();
        attempted = all.attempted();
        failed = all.failed();
        values.insert("ok_rps".to_string(), q.ok_rps);
        values.insert("p50_ms".to_string(), stats::ms(q.lat.p50_ns));
        values.insert("p99_ms".to_string(), stats::ms(q.lat.p99_ns));
        values.insert("ok_frac".to_string(), ratio(all.ok as f64, all.attempted() as f64));
        values.insert("setup_s".to_string(), setup_s);
        values.insert("server_rss_mb".to_string(), delta.hwm_kb as f64 / 1024.0);
        values.insert("cpu_us_per_ok".to_string(), ratio(delta.cpu_us as f64, out.tally.ok as f64));
    } else {
        // Untraced half, then traced half, then the in-process replay.
        let half = total_ns / 2;
        let ctx = Ctx { stream: &stream, clock, traced: false };
        let (plain, delta) = window(w, &ctx, &mut conns, &counter, half, srv.pid)?;
        let ctx = Ctx { stream: &stream, clock, traced: true };
        let cpu0 = procfs::cpu_us("self").unwrap_or(0);
        let (traced, _) = window(w, &ctx, &mut conns, &counter, half, srv.pid)?;
        let client_cpu = procfs::cpu_us("self").unwrap_or(0).saturating_sub(cpu0);
        drop(conns);
        srv.stop().map_err(|e| format!("stop: {e}"))?;

        let (plain_all, traced_all) = (all_of(&plain), all_of(&traced));
        let (plain_q, traced_q) = (plain.quiet(), traced.quiet());
        describe_window("untraced", &plain_q, &plain);
        describe_window("traced", &traced_q, &traced);
        failures += plain_all.correctness_failures() + traced_all.correctness_failures();
        attempted = plain_all.attempted() + traced_all.attempted();
        failed = plain_all.failed() + traced_all.failed();

        let (replayed, log, counts) = replay_window(w, &stream, &clock, &traced, half / 2);
        failures += counts.errors;
        println!("# replay: {} requests, {} errors", replayed.len(), counts.errors);

        for (name, _) in report::per_layer() {
            values.insert(name, 0.0);
        }
        for (name, v) in traced.spans.median_self_us().into_iter().chain(log.median_self_us()) {
            if let Some(slot) = values.get_mut(&name) {
                *slot = v;
            }
        }
        values.insert(
            "client.cpu_us_per_req".to_string(),
            ratio(client_cpu as f64, traced_all.attempted() as f64),
        );
        let reqs = counts.requests as f64;
        for (tag, rounds) in &counts.rounds {
            let mut r = rounds.clone();
            values.insert(format!("sim.rounds.{tag}"), stats::median(&mut r) as f64);
        }
        values.insert("sim.bits_per_req".to_string(), ratio(counts.bits as f64, reqs));
        values.insert("wire.bytes_in_per_req".to_string(), ratio(counts.bytes_in as f64, reqs));
        values.insert("wire.bytes_out_per_req".to_string(), ratio(counts.bytes_out as f64, reqs));
        values.insert(
            "sim.fanout_efficiency".to_string(),
            ratio(counts.fanout_solo_ns as f64, counts.fanout_capacity_ns as f64),
        );
        let probes = (delta.cache_hits + delta.cache_misses) as f64;
        values
            .insert("service.cache_hit_ratio".to_string(), ratio(delta.cache_hits as f64, probes));
        values.insert("service.cache_evictions".to_string(), delta.cache_evictions as f64);
        values.insert(
            "net.readiness_batch_mean".to_string(),
            ratio(delta.readiness_events as f64, delta.readiness_waits as f64),
        );
        values.insert(
            "service.ctx_switches_per_req".to_string(),
            ratio(delta.ctx_switches as f64, plain_all.attempted() as f64),
        );

        // Residual: client p50 minus the sum of the per-request medians of
        // each replayed layer.
        let totals = log.per_request_totals(&LAYERS, &replayed);
        let medians: Vec<u64> = totals.into_iter().map(|mut t| stats::median(&mut t)).collect();
        let residual = spans::residual_ns(traced_q.lat.p50_ns, &medians);
        println!(
            "# residual: client p50 {:.1} us = layers {:.1} us + residual {:.1} us",
            stats::us(traced_q.lat.p50_ns),
            stats::us(medians.iter().sum()),
            residual as f64 / 1e3
        );
        let compute: u64 = LAYERS
            .iter()
            .zip(&medians)
            .filter(|(l, _)| {
                l.starts_with("sim.") || l.starts_with("core.") || l.starts_with("runtime.")
            })
            .map(|(_, m)| m)
            .sum();
        println!(
            "# sim/core/runtime layers: {:.1}% of client p50",
            100.0 * ratio(compute as f64, traced_q.lat.p50_ns as f64)
        );
        let mut by_solver: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, t) in log.spans.iter().zip(log.self_times()) {
            if !s.tag.is_empty() {
                *by_solver.entry(s.tag).or_default() += t;
            }
        }
        let all: u64 = by_solver.values().sum();
        let shares: Vec<String> = by_solver
            .iter()
            .map(|(k, v)| format!("{k} {:.1}%", 100.0 * ratio(*v as f64, all as f64)))
            .collect();
        println!("# replayed engine + certify time by solver: {}", shares.join(", "));
        values.insert("residual_us".to_string(), residual as f64 / 1e3);
        values.insert(
            "trace.overhead_p50_us".to_string(),
            (traced_q.lat.p50_ns as f64 - plain_q.lat.p50_ns as f64) / 1e3,
        );
        values.insert("trace.overhead_ok_rps".to_string(), traced_q.ok_rps - plain_q.ok_rps);

        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        for (log, kind) in [(&traced.spans, "client"), (&log, "replay")] {
            let path = out_dir.join(format!("{}.{kind}.spans.tsv", w.name));
            if let Err(e) = log.write_tsv(&path, SPAN_FILE_LIMIT) {
                println!("# could not write {}: {e}", path.display());
            }
        }
    }

    println!(
        "# setup: {} set-ups, median {setup_s:.4} s; warm-up failures {}",
        SETUPS,
        warm.failed()
    );
    if failures > 0 {
        println!("# CORRECTNESS: {failures} failed checks");
    }
    let outcome = Outcome { correct: failures == 0, attempted, failed, values };
    let metrics: Vec<(String, &str)> = if opts.trace {
        report::per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    println!("{}", outcome.render(&metrics));
    Ok(outcome)
}

/// Prints a window's sample support, steal time, quiet-half and
/// whole-window percentiles and tally, and flags a p99 with fewer than
/// [`stats::MIN_TAIL_SUPPORT`] samples beyond it.
fn describe_window(label: &str, q: &Quiet, out: &WindowOut) {
    if q.lat.beyond_p99 < stats::MIN_TAIL_SUPPORT {
        println!(
            "# {label}: p99 unresolved: {} samples beyond it, fewer than {}",
            q.lat.beyond_p99,
            stats::MIN_TAIL_SUPPORT
        );
    }
    println!(
        "# {label}: window={:.2} s steal={} ms; quiet half: {}/{} slices, steal={} ms, samples={} beyond_p99={} p50={:.4} ms p99={:.4} ms; whole window: samples={} p50={:.4} ms p99={:.4} ms; tally={:?} drained={:?}",
        out.window_ns as f64 / 1e9,
        q.steal_ms.1,
        q.pooled,
        q.slices,
        q.steal_ms.0,
        q.lat.n,
        q.lat.beyond_p99,
        stats::ms(q.lat.p50_ns),
        stats::ms(q.lat.p99_ns),
        q.plain.n,
        stats::ms(q.plain.p50_ns),
        stats::ms(q.plain.p99_ns),
        out.tally,
        out.drained
    );
}

/// Replays the traced window's stream positions in-process (for at most
/// `budget_ns`), after bringing the replay cache to the server's state.
fn replay_window(
    w: &Workload,
    stream: &Stream,
    clock: &Clock,
    traced: &WindowOut,
    budget_ns: u64,
) -> (Vec<u64>, SpanLog, anonet_perfbench::replay::ReplayCounts) {
    let mut replay = LayerReplay::new(w);
    for tmpl in stream.templates.iter().filter(|t| t.warm) {
        replay.preload(tmpl);
    }
    let preroll = 4 * w.cache_cap as u64;
    for pos in traced.first_pos.saturating_sub(preroll)..traced.first_pos {
        replay.preload(&stream.templates[stream.template_of(pos)]);
    }
    let mut log = SpanLog::default();
    let mut replayed = Vec::new();
    let stop = clock.now() + budget_ns;
    for pos in traced.first_pos..traced.end_pos {
        if clock.now() > stop || replayed.len() >= MAX_REPLAY {
            break;
        }
        replay.replay(pos, &stream.templates[stream.template_of(pos)], clock, &mut log);
        replayed.push(pos);
    }
    (replayed, log, replay.counts)
}
