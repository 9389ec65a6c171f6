//! The server's solve path, replayed in-process through the layers' public
//! functions: canonical decode (`core::canon`), engine run (`sim` through
//! `core`/`baselines`, or the `runtime` for async scenarios), certification
//! (`core::certify`, including the AutoRat → BigRat widen) and body encode
//! (`wire::encode_solved_body`).
//!
//! Each solver arm mirrors its registry entry point in the service's
//! `portfolio` module call for call, so the body it produces is the one the
//! server must serve — the correctness gate compares the two byte for byte.

use crate::workload::Stream;
use anonet_baselines::ps3::PsNode;
use anonet_baselines::{half_matching_packing, run_bchs, run_kvy, run_ps3_scratch};
use anonet_bigmath::{AutoRat, BigRat};
use anonet_core::canon::{self, OwnedScInstance, OwnedVcInstance};
use anonet_core::certify::{
    certify_set_cover, certify_vertex_cover, certify_vertex_cover_rational, Certificate,
};
use anonet_core::sc_bcast::{run_fractional_packing_many_with, ScInstance};
use anonet_core::vc_bcast::run_vc_broadcast_many;
use anonet_core::vc_pn::{
    fold_vc_outputs, run_edge_packing_many, EdgePackingNode, VcConfig, VcInstance,
};
use anonet_runtime::{run_async_pn, scenario, NetworkConfig};
use anonet_service::wire::{self, ExecMode, Scenario, WireTrace};
use anonet_service::SolverId;
use anonet_sim::pool as sim_pool;
use anonet_sim::{EngineScratch, PortNumbering, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The served (2+ε) solvers run at ε = 1/4 with this round cap.
const EPS_NUM: u64 = 1;
const EPS_DEN: u64 = 4;
const MAX_ROUNDS: u64 = 100_000;

/// Layer boundaries of one instance's solve, as nanosecond stamps on the
/// caller's clock: `[start, decoded, ran, certified, encoded]`.
pub type Stamps = [u64; 5];

/// One instance solved in-process.
#[derive(Clone, Debug)]
pub struct Solved {
    /// `wire::encode_solved_body` bytes.
    pub body: Vec<u8>,
    /// Engine (or runtime) rounds.
    pub rounds: u64,
    /// Engine (or runtime) payload bits.
    pub bits: u64,
    /// Layer boundary stamps.
    pub stamps: Stamps,
    /// True when the run went through the async runtime.
    pub is_async: bool,
}

/// A monotonic nanosecond clock with a fixed origin.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

fn sync_trace(t: &Trace) -> WireTrace {
    WireTrace {
        is_async: false,
        rounds: t.rounds,
        messages: t.messages,
        bits: t.total_bits,
        max_message_bits: t.max_message_bits,
        ..WireTrace::default()
    }
}

fn widen(c: Certificate<AutoRat>) -> Certificate<BigRat> {
    Certificate {
        cover_weight: c.cover_weight,
        dual_value: c.dual_value.to_bigrat(),
        factor: c.factor,
    }
}

fn scenario_config(s: Scenario, seed: u64) -> NetworkConfig {
    match s {
        Scenario::Ideal => scenario::ideal(),
        Scenario::Datacenter => scenario::datacenter(seed),
        Scenario::Wan => scenario::wan(seed),
        Scenario::LossyRadio => scenario::lossy_radio(seed),
        Scenario::ChurnyRadio => scenario::churny_radio(seed),
    }
}

fn vc_inst(d: &OwnedVcInstance) -> VcInstance<'_> {
    VcInstance::with_bounds(&d.graph, &d.weights, d.delta, d.max_weight)
}

fn one<T>(mut v: Vec<T>) -> T {
    v.pop().expect("one result per instance")
}

/// Solves one instance blob the way the server's registry entry for
/// `solver` does, stamping each layer boundary on `clock`.
pub fn solve_one(
    solver: SolverId,
    mode: ExecMode,
    blob: &[u8],
    clock: &Clock,
) -> Result<Solved, String> {
    let t0 = clock.now();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    if solver == SolverId::SET_COVER {
        let d: OwnedScInstance = canon::decode_sc(blob).map_err(|e| e.to_string())?;
        let t1 = clock.now();
        let inst = ScInstance::with_bounds(&d.inst, d.f, d.k, d.max_weight);
        let run = one(run_fractional_packing_many_with::<AutoRat>(&[inst], 1))
            .map_err(|e| fail("execution failed", &e))?;
        let t2 = clock.now();
        let cert = widen(
            certify_set_cover(&d.inst, &run.packing, &run.cover)
                .map_err(|e| fail("certification failed", &e))?,
        );
        let t3 = clock.now();
        let t = sync_trace(&run.trace);
        let body = wire::encode_solved_body(&run.cover, &cert, &t);
        let t4 = clock.now();
        return Ok(Solved {
            body,
            rounds: t.rounds,
            bits: t.bits,
            stamps: [t0, t1, t2, t3, t4],
            is_async: false,
        });
    }
    let d = canon::decode_vc(blob).map_err(|e| e.to_string())?;
    let t1 = clock.now();
    let (cover, cert, trace, t2) = match (solver, mode) {
        (SolverId::VC_PN, ExecMode::Sync) => {
            let run = one(run_edge_packing_many::<AutoRat>(&[vc_inst(&d)], 1))
                .map_err(|e| fail("execution failed", &e))?;
            let t2 = clock.now();
            let cert = widen(
                certify_vertex_cover(&d.graph, &d.weights, &run.packing, &run.cover)
                    .map_err(|e| fail("certification failed", &e))?,
            );
            (run.cover, cert, sync_trace(&run.trace), t2)
        }
        (SolverId::VC_PN, ExecMode::Async(s, seed)) => {
            let cfg = VcConfig::new(d.delta, d.max_weight);
            let res = run_async_pn::<EdgePackingNode<AutoRat>>(
                &d.graph,
                &cfg,
                &d.weights,
                cfg.total_rounds(),
                &scenario_config(s, seed),
            )
            .map_err(|e| fail("async execution failed", &e))?;
            let t2 = clock.now();
            let (cover, packing) = fold_vc_outputs(&d.graph, &res.outputs);
            let cert = widen(
                certify_vertex_cover(&d.graph, &d.weights, &packing, &cover)
                    .map_err(|e| fail("certification failed", &e))?,
            );
            let t = &res.trace;
            let trace = WireTrace {
                is_async: true,
                rounds: t.rounds,
                messages: t.messages,
                bits: t.payload_bits,
                max_message_bits: t.max_message_bits,
                events: t.events,
                virtual_time: t.virtual_time,
                retransmissions: t.retransmissions,
                dropped_data: t.dropped_data,
            };
            (cover, cert, trace, t2)
        }
        (SolverId::VC_BCAST, _) => {
            let run = one(run_vc_broadcast_many::<AutoRat>(&[vc_inst(&d)], 1))
                .map_err(|e| fail("execution failed", &e))?;
            let t2 = clock.now();
            let cover_weight: u64 =
                (0..d.graph.n()).filter(|&v| run.cover[v]).map(|v| d.weights[v]).sum();
            let covers = d.graph.edge_iter().all(|(_, u, v)| run.cover[u] || run.cover[v]);
            let cert =
                Certificate { cover_weight, dual_value: run.dual_value.to_bigrat(), factor: 2 };
            if !run.all_saturated || !covers || !canon::certificate_bound_holds(&cert) {
                return Err("certification failed: §5 invariants violated".into());
            }
            (run.cover, cert, sync_trace(&run.trace), t2)
        }
        (SolverId::VC_PS3, _) => {
            if let Some(w) = d.weights.iter().find(|&&w| w != 1) {
                return Err(format!("solver vc_ps3 is unweighted: weight {w} ≠ 1 present"));
            }
            let mut scratch: EngineScratch<PsNode, PortNumbering> = EngineScratch::new();
            let run = run_ps3_scratch(&d.graph, d.delta, &mut scratch)
                .map_err(|e| fail("execution failed", &e))?;
            let t2 = clock.now();
            let packing = half_matching_packing::<BigRat>(&d.graph, &run.roles);
            let cert =
                certify_vertex_cover_rational(&d.graph, &d.weights, &packing, &run.cover, 4, 1)
                    .map_err(|e| fail("certification failed", &e))?;
            (run.cover, cert, sync_trace(&run.trace), t2)
        }
        (SolverId::VC_KVY | SolverId::VC_BCHS, _) => {
            let (cover, packing, trace) = if solver == SolverId::VC_KVY {
                let r = run_kvy::<AutoRat>(&d.graph, &d.weights, EPS_NUM, EPS_DEN, MAX_ROUNDS)
                    .map_err(|e| fail("execution failed", &e))?;
                (r.cover, r.packing, r.trace)
            } else {
                let r = run_bchs::<AutoRat>(&d.graph, &d.weights, EPS_NUM, EPS_DEN, MAX_ROUNDS)
                    .map_err(|e| fail("execution failed", &e))?;
                (r.cover, r.packing, r.trace)
            };
            let t2 = clock.now();
            let cert = widen(
                certify_vertex_cover_rational(&d.graph, &d.weights, &packing, &cover, 8, 3)
                    .map_err(|e| fail("certification failed", &e))?,
            );
            (cover, cert, sync_trace(&trace), t2)
        }
        (other, _) => return Err(format!("solver {} not replayable", other.name())),
    };
    let t3 = clock.now();
    let body = wire::encode_solved_body(&cover, &cert, &trace);
    let t4 = clock.now();
    Ok(Solved {
        body,
        rounds: trace.rounds,
        bits: trace.bits,
        stamps: [t0, t1, t2, t3, t4],
        is_async: trace.is_async,
    })
}

/// One oracle result: template index, instance index, body or error.
type OracleBody = (usize, usize, Result<Vec<u8>, String>);

/// The oracle: fills every template's expected bodies by solving each
/// instance in-process, spread over `threads` threads.
pub fn fill_expected(stream: &mut Stream, threads: usize) -> Result<(), String> {
    let tasks: Vec<(usize, usize)> = stream
        .templates
        .iter()
        .enumerate()
        .flat_map(|(t, tmpl)| (0..tmpl.req.instances.len()).map(move |i| (t, i)))
        .collect();
    let next = AtomicUsize::new(0);
    let templates = &stream.templates;
    let clock = Clock::start();
    // lint: allow(thread-discipline) — the benchmark's own oracle, run before any timing starts
    let parts: Vec<Vec<OracleBody>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&(t, i)) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let req = &templates[t].req;
                        let body = solve_one(req.solver, req.mode, &req.instances[i], &clock)
                            .map(|s| s.body);
                        done.push((t, i, body));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    for tmpl in &mut stream.templates {
        tmpl.expected = vec![Vec::new(); tmpl.req.instances.len()];
    }
    for (t, i, body) in parts.into_iter().flatten() {
        stream.templates[t].expected[i] = body?;
    }
    Ok(())
}

/// True for solvers whose server entry point fans a request's instances
/// across the job's pool (PS3 runs them sequentially).
pub fn fans_out(solver: SolverId) -> bool {
    solver != SolverId::VC_PS3
}

/// Runs `blobs` (sync mode) through the same fan-out the server uses for
/// `solver` at pool width `width` and returns the batch's wall time in
/// nanoseconds. Results are discarded; [`solve_one`] already checked them.
pub fn fanout_wall_ns(solver: SolverId, blobs: &[&[u8]], width: usize) -> u64 {
    if solver == SolverId::SET_COVER {
        let ds: Vec<OwnedScInstance> =
            blobs.iter().filter_map(|b| canon::decode_sc(b).ok()).collect();
        let insts: Vec<ScInstance<'_>> =
            ds.iter().map(|d| ScInstance::with_bounds(&d.inst, d.f, d.k, d.max_weight)).collect();
        let t = Instant::now();
        std::hint::black_box(run_fractional_packing_many_with::<AutoRat>(&insts, width));
        return t.elapsed().as_nanos() as u64;
    }
    let ds: Vec<OwnedVcInstance> = blobs.iter().filter_map(|b| canon::decode_vc(b).ok()).collect();
    let insts: Vec<VcInstance<'_>> = ds.iter().map(vc_inst).collect();
    let t = Instant::now();
    match solver {
        SolverId::VC_PN => {
            std::hint::black_box(run_edge_packing_many::<AutoRat>(&insts, width));
        }
        SolverId::VC_BCAST => {
            std::hint::black_box(run_vc_broadcast_many::<AutoRat>(&insts, width));
        }
        SolverId::VC_KVY | SolverId::VC_BCHS => {
            let w = sim_pool::clamp_width(sim_pool::resolve_threads(width));
            let kvy = solver == SolverId::VC_KVY;
            std::hint::black_box(sim_pool::with_local_pool(w, |p| {
                p.map(ds.iter().collect(), |_, d| {
                    if kvy {
                        run_kvy::<AutoRat>(&d.graph, &d.weights, EPS_NUM, EPS_DEN, MAX_ROUNDS)
                            .map(|r| r.trace.rounds)
                    } else {
                        run_bchs::<AutoRat>(&d.graph, &d.weights, EPS_NUM, EPS_DEN, MAX_ROUNDS)
                            .map(|r| r.trace.rounds)
                    }
                })
            }));
        }
        _ => return 0,
    }
    t.elapsed().as_nanos() as u64
}
