//! The solver-portfolio registry: one table describing every algorithm the
//! service can run, consumed by wire decode, server dispatch, telemetry
//! registration, the load generator, and the bench bins.
//!
//! Each entry is a [`SolverDescriptor`]: the stable wire id, the name (which
//! doubles as the telemetry counter suffix and the flight-recorder label),
//! the communication model, capability flags, the approximation factor as an
//! **exact rational**, and the execute entry point the worker calls.
//!
//! ## One solve pipeline
//!
//! Every entry point is the same generic pipeline: decode each canonical
//! blob, fan the instances out over the worker's persistent pool
//! (`anonet_sim::BatchRunner::map`, one engine scratch per pool worker), run
//! the solver's `solve_one`, record the trace, and encode the body. A
//! solver therefore supplies only its canonical decoder (`canon::decode_vc`
//! or `canon::decode_sc`) and a `solve_one(&inst, mode, &mut scratch)` that
//! runs the fixed local schedule and certifies the result under the
//! solver's rule, returning the cover, the certificate and the wire trace.
//! Adding a solver is a new `solve_one` plus one row here — nothing else in
//! the stack enumerates solver kinds by hand.
//!
//! ## Wire ids
//!
//! Ids 0–2 are the paper's original problems and keep their pre-registry
//! byte values (requests and responses are pinned byte-identical by tests);
//! 3–5 are the related-work portfolio. Ids are dense — the table is indexed
//! by id — and **never reused**: a retired solver would leave a hole behind
//! a `None`-like tombstone rather than renumber the survivors.
//!
//! ## Rational factors over the integer-factor wire certificate
//!
//! The wire certificate carries an integer `factor` and checks
//! `w(C) ≤ factor·dual`. A solver with a rational guarantee `num/den`
//! (e.g. the (2+ε) family at ε = 1/4: 2/(1−ε) = 8/3) is served with
//! `factor = num` and the dual **pre-scaled** to `Σy/den`
//! (see `certify_vertex_cover_rational`): the client-side re-check
//! `w(C) ≤ num·(Σy/den)` is then *exactly* the rational bound, and the
//! scaled dual is still a genuine lower bound on OPT — no wire change.
//!
//! PS3's true guarantee (3·OPT) is combinatorial, not LP-dual; its replies
//! carry the machine-checkable half-matching bound `|C| ≤ 4·Σy`, and the
//! 3-approximation is cross-validated against `anonet-exact` in tests.

use crate::server::Shared;
use crate::wire::{self, ExecMode, Scenario, SolveRequest, SolveResponse, WireTrace};
use anonet_baselines::bchs::{run_bchs_scratch, BchsNode};
use anonet_baselines::kvy_eps::{run_kvy_scratch, KvyNode};
use anonet_baselines::ps3::{half_matching_packing, run_ps3_scratch, PsNode};
use anonet_bigmath::{AutoRat, BigRat};
use anonet_core::canon::{self, OwnedScInstance, OwnedVcInstance};
use anonet_core::certify::{
    certify_set_cover, certify_vertex_cover, certify_vertex_cover_rational, Certificate,
    CertifyError,
};
use anonet_core::packing::EdgePacking;
use anonet_core::sc_bcast::{run_fractional_packing_scratch, ScInstance, ScNode};
use anonet_core::vc_bcast::{run_vc_broadcast_scratch, VcBcastNode};
use anonet_core::vc_pn::{
    fold_vc_outputs, run_edge_packing_scratch, EdgePackingNode, VcConfig, VcInstance,
};
use anonet_runtime::{run_async_pn, scenario, AsyncTrace, NetworkConfig};
use anonet_sim::{BatchRunner, Broadcast, EngineScratch, PortNumbering, SimError, Trace};
use std::fmt::Display;

/// A solver's stable wire identifier — the byte after the message header in
/// a solve request. Only ids present in the registry are constructible, so a
/// held `SolverId` always resolves to a descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolverId(u8);

impl SolverId {
    /// §3 maximal edge packing / 2-approximate vertex cover (PN model).
    pub const VC_PN: SolverId = SolverId(0);
    /// §5 vertex cover through the broadcast-model simulation.
    pub const VC_BCAST: SolverId = SolverId(1);
    /// §4 f-approximate set cover (broadcast model).
    pub const SET_COVER: SolverId = SolverId(2);
    /// Polishchuk–Suomela local 3-approximation (unweighted, O(Δ) rounds).
    pub const VC_PS3: SolverId = SolverId(3);
    /// KVY-style (2+ε) primal–dual at ε = 1/4 (factor 8/3).
    pub const VC_KVY: SolverId = SolverId(4);
    /// BCHS-style bulk-raise (2+ε) primal–dual at ε = 1/4 (factor 8/3).
    pub const VC_BCHS: SolverId = SolverId(5);

    /// Wire byte.
    pub fn to_u8(self) -> u8 {
        self.0
    }

    /// Parses the wire byte; `None` for ids outside the registry.
    pub fn from_u8(v: u8) -> Option<SolverId> {
        ((v as usize) < SOLVERS.len()).then_some(SolverId(v))
    }

    /// This solver's registry entry.
    pub fn descriptor(self) -> &'static SolverDescriptor {
        // In-bounds by construction: a SolverId only comes from
        // from_u8/by_name/the consts, all of which stay inside the table.
        &SOLVERS[self.0 as usize]
    }

    /// The solver's registry name (telemetry suffix, flight-recorder label).
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }
}

/// The communication model a solver runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverModel {
    /// Deterministic port-numbering model (`anonet_sim::PnAlgorithm`).
    PortNumbering,
    /// Broadcast model (port-oblivious sends).
    Broadcast,
}

/// Which canonical instance encoding a solver consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceKind {
    /// `canon::encode_vc` blobs (graph + weights + Δ + W).
    VertexCover,
    /// `canon::encode_sc` blobs (set system + f + k + W).
    SetCover,
}

/// Per-instance outcome on the server side: `(from_cache, body)` with `body`
/// from `wire::encode_solved_body`, or an error message.
pub(crate) type InstanceOutcome = Result<(bool, Vec<u8>), String>;

/// The execute entry point: runs the not-yet-cached instances (`missing` are
/// indices into `req.instances`) and returns one outcome per index in order.
/// Every entry is `pipeline` over the solver's decoder and `solve_one`.
pub(crate) type SolverRun = fn(&Shared, &SolveRequest, &[usize]) -> Vec<InstanceOutcome>;

/// One registered solver — everything the stack needs to decode, dispatch,
/// meter, load-test, and document it.
pub struct SolverDescriptor {
    /// Stable wire id (also the table index).
    pub id: SolverId,
    /// Registry name: `solve.kind.<name>` counter, flight-recorder label,
    /// and the `--solver` CLI spelling.
    pub name: &'static str,
    /// Communication model.
    pub model: SolverModel,
    /// Instance encoding consumed.
    pub input: InstanceKind,
    /// `false` ⇒ the solver requires unit weights; weighted instances are
    /// rejected per instance when their blobs are decoded.
    pub weighted: bool,
    /// Certified approximation factor, numerator.
    pub factor_num: u64,
    /// Certified approximation factor, denominator.
    pub factor_den: u64,
    /// Round-complexity note for tables and docs.
    pub rounds: &'static str,
    /// Whether the async runtime path serves this solver.
    pub supports_async: bool,
    pub(crate) run: SolverRun,
}

/// ε = 1/4 for the served (2+ε) solvers: certified factor 2/(1−ε) = 8/3.
const EPS_NUM: u64 = 1;
/// Denominator of the served ε.
const EPS_DEN: u64 = 4;
/// Round cap for the data-dependent primal–dual solvers; a run that exceeds
/// it is answered with a structured per-instance error, not a hang.
const PORTFOLIO_MAX_ROUNDS: u64 = 100_000;

/// The registry. Table order IS wire-id order (checked by a test).
static SOLVERS: &[SolverDescriptor] = &[
    SolverDescriptor {
        id: SolverId::VC_PN,
        name: "vc_pn",
        model: SolverModel::PortNumbering,
        input: InstanceKind::VertexCover,
        weighted: true,
        factor_num: 2,
        factor_den: 1,
        rounds: "O(Δ + log*W)",
        supports_async: true,
        run: |sh, req, missing| pipeline(sh, req, missing, canon::decode_vc, solve_vc_pn),
    },
    SolverDescriptor {
        id: SolverId::VC_BCAST,
        name: "vc_bcast",
        model: SolverModel::Broadcast,
        input: InstanceKind::VertexCover,
        weighted: true,
        factor_num: 2,
        factor_den: 1,
        rounds: "O(Δ² + Δ·log*W) (simulated §4)",
        supports_async: false,
        run: |sh, req, missing| pipeline(sh, req, missing, canon::decode_vc, solve_vc_bcast),
    },
    SolverDescriptor {
        id: SolverId::SET_COVER,
        name: "set_cover",
        model: SolverModel::Broadcast,
        input: InstanceKind::SetCover,
        weighted: true,
        factor_num: 0, // f is instance-dependent; the certificate carries it
        factor_den: 1,
        rounds: "O(f²k² + fk·log*W)",
        supports_async: false,
        run: |sh, req, missing| pipeline(sh, req, missing, canon::decode_sc, solve_set_cover),
    },
    SolverDescriptor {
        id: SolverId::VC_PS3,
        name: "vc_ps3",
        model: SolverModel::PortNumbering,
        input: InstanceKind::VertexCover,
        weighted: false,
        factor_num: 4, // checkable half-matching bound; true guarantee is 3
        factor_den: 1,
        rounds: "2Δ",
        supports_async: false,
        run: |sh, req, missing| pipeline(sh, req, missing, canon::decode_vc, solve_vc_ps3),
    },
    SolverDescriptor {
        id: SolverId::VC_KVY,
        name: "vc_kvy",
        model: SolverModel::PortNumbering,
        input: InstanceKind::VertexCover,
        weighted: true,
        factor_num: 8,
        factor_den: 3,
        rounds: "data-dependent (grows with W)",
        supports_async: false,
        run: |sh, req, missing| pipeline(sh, req, missing, canon::decode_vc, solve_vc_kvy),
    },
    SolverDescriptor {
        id: SolverId::VC_BCHS,
        name: "vc_bchs",
        model: SolverModel::PortNumbering,
        input: InstanceKind::VertexCover,
        weighted: true,
        factor_num: 8,
        factor_den: 3,
        rounds: "data-dependent, weight-scale-free",
        supports_async: false,
        run: |sh, req, missing| pipeline(sh, req, missing, canon::decode_vc, solve_vc_bchs),
    },
];

/// Every registered solver, in wire-id order.
pub fn solvers() -> &'static [SolverDescriptor] {
    SOLVERS
}

/// Looks a solver up by registry name. `-` and `_` are interchangeable so
/// CLI spellings like `vc-ps3` work.
pub fn by_name(name: &str) -> Option<&'static SolverDescriptor> {
    let norm = name.replace('-', "_");
    SOLVERS.iter().find(|d| d.name == norm)
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

fn async_trace(t: &AsyncTrace) -> WireTrace {
    WireTrace {
        is_async: true,
        rounds: t.rounds,
        messages: t.messages,
        bits: t.payload_bits,
        max_message_bits: t.max_message_bits,
        events: t.events,
        virtual_time: t.virtual_time,
        retransmissions: t.retransmissions,
        dropped_data: t.dropped_data,
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

/// What a solver's `solve_one` hands the pipeline: the cover, its
/// certificate widened to the wire's `BigRat`, and the wire trace — or the
/// per-instance error string the client sees.
type Solution = Result<(Vec<bool>, Certificate<BigRat>, WireTrace), String>;

/// The one solve pipeline behind every registry entry: decode each
/// not-yet-cached blob, fan the instances out over this worker's persistent
/// pool (each pool worker recycling one `S` engine scratch across the
/// instances it pulls), solve and certify each with the solver's
/// `solve_one`, record the trace, and encode the body. Per-instance errors
/// stay in place, so outcomes line up with `missing`.
fn pipeline<I, E: Display, S: Default>(
    shared: &Shared,
    req: &SolveRequest,
    missing: &[usize],
    decode: fn(&[u8]) -> Result<I, E>,
    solve_one: fn(&I, ExecMode, &mut S) -> Solution,
) -> Vec<InstanceOutcome> {
    let blobs: Vec<&[u8]> = missing.iter().map(|&i| req.instances[i].as_slice()).collect();
    // The pool is cached per service worker at the machine-derived width,
    // so varying batch sizes do not respawn it; width 1 runs inline.
    BatchRunner::new(shared.cfg.threads_per_job).map(&blobs, |blob, scratch| {
        let inst = decode(blob).map_err(|e| e.to_string())?;
        let (cover, cert, trace) = solve_one(&inst, req.mode, scratch)?;
        shared.telemetry.record_solve_trace(trace.rounds, trace.bits);
        Ok((false, wire::encode_solved_body(&cover, &cert, &trace)))
    })
}

fn execution_failed(e: SimError) -> String {
    format!("execution failed: {e}")
}

/// Widens a fast-path certificate to the `BigRat` wire representation. The
/// solvers run on [`AutoRat`] (fixed-width with checked promotion); the wire
/// format and result cache stay on exact arbitrary precision.
fn widen(c: Result<Certificate<AutoRat>, CertifyError>) -> Result<Certificate<BigRat>, String> {
    let c = c.map_err(|e| format!("certification failed: {e}"))?;
    Ok(Certificate {
        cover_weight: c.cover_weight,
        dual_value: c.dual_value.to_bigrat(),
        factor: c.factor,
    })
}

/// The certify rule of the solvers without a §3 maximality witness: dual
/// feasibility, cover validity and `den·w(C) ≤ num·Σy`.
fn certify_rational(
    d: &OwnedVcInstance,
    cover: Vec<bool>,
    packing: &EdgePacking<AutoRat>,
    trace: &Trace,
    num: u64,
    den: u64,
) -> Solution {
    let cert =
        widen(certify_vertex_cover_rational(&d.graph, &d.weights, packing, &cover, num, den))?;
    Ok((cover, cert, sync_trace(trace)))
}

fn vc_instance(d: &OwnedVcInstance) -> VcInstance<'_> {
    VcInstance::with_bounds(&d.graph, &d.weights, d.delta, d.max_weight)
}

fn solve_vc_pn(
    d: &OwnedVcInstance,
    mode: ExecMode,
    scratch: &mut EngineScratch<EdgePackingNode<AutoRat>, PortNumbering>,
) -> Solution {
    let (cover, packing, trace) = match mode {
        ExecMode::Sync => {
            let run =
                run_edge_packing_scratch(&vc_instance(d), scratch).map_err(execution_failed)?;
            (run.cover, run.packing, sync_trace(&run.trace))
        }
        ExecMode::Async(s, seed) => {
            let cfg = VcConfig::new(d.delta, d.max_weight);
            let res = run_async_pn::<EdgePackingNode<AutoRat>>(
                &d.graph,
                &cfg,
                &d.weights,
                cfg.total_rounds(),
                &scenario_config(s, seed),
            )
            .map_err(|e| format!("async execution failed: {e}"))?;
            let (cover, packing) = fold_vc_outputs(&d.graph, &res.outputs);
            (cover, packing, async_trace(&res.trace))
        }
    };
    let cert = widen(certify_vertex_cover(&d.graph, &d.weights, &packing, &cover))?;
    Ok((cover, cert, trace))
}

fn solve_vc_bcast(
    d: &OwnedVcInstance,
    _: ExecMode,
    scratch: &mut EngineScratch<VcBcastNode<AutoRat>, Broadcast>,
) -> Solution {
    let run = run_vc_broadcast_scratch(&vc_instance(d), scratch).map_err(execution_failed)?;
    // §5 outputs do not carry the full packing; the maximality witness is
    // `all_saturated` (Theorem 2) and the cover + ratio bound are checked
    // directly.
    let cover_weight: u64 = (0..d.graph.n()).filter(|&v| run.cover[v]).map(|v| d.weights[v]).sum();
    let covers = d.graph.edge_iter().all(|(_, u, v)| run.cover[u] || run.cover[v]);
    let cert = Certificate { cover_weight, dual_value: run.dual_value.to_bigrat(), factor: 2 };
    if !run.all_saturated || !covers || !canon::certificate_bound_holds(&cert) {
        return Err("certification failed: §5 invariants violated".into());
    }
    Ok((run.cover, cert, sync_trace(&run.trace)))
}

fn solve_set_cover(
    d: &OwnedScInstance,
    _: ExecMode,
    scratch: &mut EngineScratch<ScNode<AutoRat>, Broadcast>,
) -> Solution {
    let inst = ScInstance::with_bounds(&d.inst, d.f, d.k, d.max_weight);
    let run = run_fractional_packing_scratch(&inst, scratch).map_err(execution_failed)?;
    let cert = widen(certify_set_cover(&d.inst, &run.packing, &run.cover))?;
    Ok((run.cover, cert, sync_trace(&run.trace)))
}

fn solve_vc_ps3(
    d: &OwnedVcInstance,
    _: ExecMode,
    scratch: &mut EngineScratch<PsNode, PortNumbering>,
) -> Solution {
    // Capability check at instance-decode time: PS3 is unweighted.
    if let Some(w) = d.weights.iter().find(|&&w| w != 1) {
        return Err(format!("solver vc_ps3 is unweighted: weight {w} ≠ 1 present"));
    }
    let run = run_ps3_scratch(&d.graph, d.delta, scratch).map_err(execution_failed)?;
    let packing = half_matching_packing::<AutoRat>(&d.graph, &run.roles);
    certify_rational(d, run.cover, &packing, &run.trace, 4, 1)
}

fn solve_vc_kvy(
    d: &OwnedVcInstance,
    _: ExecMode,
    scratch: &mut EngineScratch<KvyNode<AutoRat>, PortNumbering>,
) -> Solution {
    let run =
        run_kvy_scratch(&d.graph, &d.weights, EPS_NUM, EPS_DEN, PORTFOLIO_MAX_ROUNDS, scratch)
            .map_err(execution_failed)?;
    certify_rational(d, run.cover, &run.packing, &run.trace, 8, 3)
}

fn solve_vc_bchs(
    d: &OwnedVcInstance,
    _: ExecMode,
    scratch: &mut EngineScratch<BchsNode<AutoRat>, PortNumbering>,
) -> Solution {
    let run =
        run_bchs_scratch(&d.graph, &d.weights, EPS_NUM, EPS_DEN, PORTFOLIO_MAX_ROUNDS, scratch)
            .map_err(execution_failed)?;
    certify_rational(d, run.cover, &run.packing, &run.trace, 8, 3)
}

/// The whole-request guard a worker applies before dispatching to
/// [`SolverDescriptor::run`]: modes the solver does not support are answered
/// with a structured `Unsupported` response.
pub(crate) fn mode_supported(req: &SolveRequest) -> Result<(), Vec<u8>> {
    let desc = req.solver.descriptor();
    if matches!(req.mode, ExecMode::Async(..)) && !desc.supports_async {
        return Err(wire::encode_solve_response(&SolveResponse::Unsupported(format!(
            "async execution supports vc_pn only, not {}",
            desc.name
        ))));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_dense_and_in_id_order() {
        for (i, d) in solvers().iter().enumerate() {
            assert_eq!(d.id.to_u8() as usize, i, "solver {} out of position", d.name);
            assert_eq!(SolverId::from_u8(i as u8), Some(d.id));
            assert_eq!(d.id.name(), d.name);
            assert!(d.factor_den >= 1);
        }
        assert_eq!(SolverId::from_u8(solvers().len() as u8), None);
        assert_eq!(SolverId::from_u8(u8::MAX), None);
    }

    #[test]
    fn legacy_ids_are_pinned() {
        assert_eq!(SolverId::VC_PN.to_u8(), 0);
        assert_eq!(SolverId::VC_BCAST.to_u8(), 1);
        assert_eq!(SolverId::SET_COVER.to_u8(), 2);
        assert_eq!(SolverId::VC_PN.name(), "vc_pn");
        assert_eq!(SolverId::VC_BCAST.name(), "vc_bcast");
        assert_eq!(SolverId::SET_COVER.name(), "set_cover");
    }

    #[test]
    fn broadcast_descriptors_state_the_paper_bounds() {
        // §5 simulates §4 on the incidence structure; both are broadcast-model.
        let vc = by_name("vc_bcast").unwrap();
        assert_eq!(vc.model, SolverModel::Broadcast);
        assert_eq!(vc.rounds, "O(Δ² + Δ·log*W) (simulated §4)");
        let sc = by_name("set_cover").unwrap();
        assert_eq!(sc.model, SolverModel::Broadcast);
        assert_eq!(sc.rounds, "O(f²k² + fk·log*W)");
    }

    #[test]
    fn lookup_by_name_accepts_both_spellings() {
        assert_eq!(by_name("vc_ps3").unwrap().id, SolverId::VC_PS3);
        assert_eq!(by_name("vc-ps3").unwrap().id, SolverId::VC_PS3);
        assert!(by_name("nope").is_none());
        // Only vc_pn rides the async runtime.
        for d in solvers() {
            assert_eq!(d.supports_async, d.id == SolverId::VC_PN, "{}", d.name);
        }
    }
}
