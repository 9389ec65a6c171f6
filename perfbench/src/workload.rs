//! The three workloads and the seeded request streams they send.
//!
//! A workload fixes the server configuration, the arrival discipline, and
//! the instance pools; the `--seed` argument fixes which instances are
//! generated and in which order requests draw them. The server only ever
//! receives the generated canonical blobs. See README.md for why each
//! workload exists and which layers it loads.

use anonet_core::canon::{self, OwnedScInstance, OwnedVcInstance};
use anonet_gen::{Rng, WeightSpec};
use anonet_service::loadgen::{synthesize, FamilyKind, WorkloadSpec};
use anonet_service::wire::{self, Scenario, SolveRequest};
use anonet_service::{ConnModel, ServiceConfig, SolverId};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["cold_mix", "hot_hits", "closed_mixed"];

/// Requests per stream before it wraps around.
pub const ORDER_LEN: usize = 1 << 17;

/// One benchmark workload: server configuration plus the client's closed
/// loop (each connection keeps `depth` requests in flight and sends the
/// next one when a reply lands).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Server connection model.
    pub conn_model: ConnModel,
    /// Server worker threads.
    pub workers: usize,
    /// Fan-out pool width per worker.
    pub threads_per_job: usize,
    /// Result-cache capacity in entries.
    pub cache_cap: usize,
    /// Client connections (one client thread each).
    pub conns: usize,
    /// Pipelined requests in flight per connection.
    pub depth: usize,
}

/// Server set-ups per run; the reported `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Server cache capacity of `closed_mixed` (entries): deliberately smaller
/// than its instance pool.
pub const MIXED_CACHE: usize = 48;

impl Workload {
    /// The named workload sized for `nproc` cores, or `None`.
    pub fn by_name(name: &str, nproc: usize) -> Option<Workload> {
        let nproc = nproc.max(1);
        Some(match name {
            "cold_mix" => Workload {
                name: "cold_mix",
                conn_model: ConnModel::Threads,
                workers: 1,
                threads_per_job: nproc,
                cache_cap: 1024,
                conns: nproc,
                depth: 1,
            },
            "hot_hits" => Workload {
                name: "hot_hits",
                conn_model: ConnModel::Reactor,
                workers: nproc,
                threads_per_job: 1,
                cache_cap: 1024,
                conns: 1,
                depth: 24,
            },
            "closed_mixed" => Workload {
                name: "closed_mixed",
                conn_model: ConnModel::Threads,
                workers: nproc,
                threads_per_job: 1,
                cache_cap: MIXED_CACHE,
                conns: nproc,
                depth: 4,
            },
            _ => return None,
        })
    }

    /// The server configuration this workload runs against.
    pub fn server_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: self.workers,
            threads_per_job: self.threads_per_job,
            cache_cap: self.cache_cap,
            conn_model: self.conn_model,
            ..ServiceConfig::default()
        }
    }

    /// One-line description of the server configuration, for result stamps.
    pub fn describe(&self) -> String {
        let c = self.server_config();
        format!(
            "conn_model={:?} workers={} threads_per_job={} cache_cap={} cache_bytes={} queue_cap={} client_conns={} depth={}",
            c.conn_model,
            c.workers,
            c.threads_per_job,
            c.cache_cap,
            c.cache_bytes,
            c.queue_cap,
            self.conns,
            self.depth
        )
    }
}

/// A decoded pool instance, kept for the client-side cover check.
#[derive(Clone, Debug)]
pub enum Decoded {
    /// A vertex-cover instance.
    Vc(OwnedVcInstance),
    /// A set-cover instance.
    Sc(OwnedScInstance),
}

impl Decoded {
    /// Decodes a canonical blob of the solver's input kind.
    pub fn decode(solver: SolverId, blob: &[u8]) -> Result<Decoded, String> {
        if solver == SolverId::SET_COVER {
            canon::decode_sc(blob).map(Decoded::Sc).map_err(|e| e.to_string())
        } else {
            canon::decode_vc(blob).map(Decoded::Vc).map_err(|e| e.to_string())
        }
    }

    /// True when `cover` covers every edge (VC) or element (SC).
    pub fn is_covered_by(&self, cover: &[bool]) -> bool {
        match self {
            Decoded::Vc(d) => {
                cover.len() == d.graph.n()
                    && d.graph.edge_iter().all(|(_, u, v)| cover[u] || cover[v])
            }
            Decoded::Sc(d) => cover.len() == d.inst.n_subsets && d.inst.is_cover(cover),
        }
    }
}

/// One request the stream can send: the request itself plus, per
/// instance, the expected served body (filled by the in-process replay).
#[derive(Clone, Debug)]
pub struct Template {
    /// The request (encoded afresh for every send).
    pub req: SolveRequest,
    /// Decoded instances, index-aligned with `req.instances`.
    pub decoded: Vec<Decoded>,
    /// Expected `encode_solved_body` bytes per instance (empty until the
    /// oracle has run).
    pub expected: Vec<Vec<u8>>,
    /// Part of the warm-up pass.
    pub warm: bool,
}

/// A workload's seeded request stream: templates plus the order in which
/// stream positions draw them.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Every distinct request the stream sends.
    pub templates: Vec<Template>,
    /// Template index of stream position `i % ORDER_LEN`.
    pub order: Vec<u32>,
}

impl Stream {
    /// Template index of stream position `pos`.
    pub fn template_of(&self, pos: u64) -> usize {
        self.order[(pos % self.order.len() as u64) as usize] as usize
    }

    /// The encoded request payloads of positions `0..count`, concatenated
    /// as wire frames — the exact byte stream a client sends.
    pub fn request_bytes(&self, count: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for pos in 0..count {
            let payload = wire::encode_solve_request(&self.templates[self.template_of(pos)].req);
            wire::write_frame(&mut out, &payload).expect("Vec writes cannot fail");
        }
        out
    }
}

/// Instance family of one solver's pool.
#[derive(Clone, Copy, Debug)]
struct Family {
    solver: SolverId,
    family: FamilyKind,
    n: usize,
    degree: usize,
    weights: WeightSpec,
}

/// `cold_mix` sizes, one row per registry solver. Chosen so no solver takes
/// more than about a third of server time while a 30 s run still collects
/// several thousand latency samples (README.md has the measured shares).
const COLD: [Family; 6] = [
    Family {
        solver: SolverId::VC_PN,
        family: FamilyKind::Regular,
        n: 256,
        degree: 3,
        weights: WeightSpec::LogUniform(65536),
    },
    Family {
        solver: SolverId::VC_BCAST,
        family: FamilyKind::Regular,
        n: 2,
        degree: 1,
        weights: WeightSpec::LogUniform(2),
    },
    Family {
        solver: SolverId::SET_COVER,
        family: FamilyKind::Regular,
        n: 32,
        degree: 3,
        weights: WeightSpec::LogUniform(16),
    },
    Family {
        solver: SolverId::VC_PS3,
        family: FamilyKind::Regular,
        n: 384,
        degree: 4,
        weights: WeightSpec::Unit,
    },
    Family {
        solver: SolverId::VC_KVY,
        family: FamilyKind::Regular,
        n: 384,
        degree: 4,
        weights: WeightSpec::LogUniform(1024),
    },
    Family {
        solver: SolverId::VC_BCHS,
        family: FamilyKind::Regular,
        n: 160,
        degree: 3,
        weights: WeightSpec::LogUniform(64),
    },
];

/// The first instance of every `cold_mix` `vc_bcast` request: a Δ = 2
/// path. The rest of the batch are `COLD`'s single edges, because §5's
/// simulation runs 168 rounds at Δ = 2 (≈ 10 ms even on three nodes) and a
/// whole batch of such instances would take most of the server's time.
const COLD_BCAST_PATH: Family = Family {
    solver: SolverId::VC_BCAST,
    family: FamilyKind::Tree,
    n: 3,
    degree: 2,
    weights: WeightSpec::LogUniform(2),
};

/// Distinct requests per solver in `cold_mix`.
const COLD_TEMPLATES: usize = 4;
/// Instances per `cold_mix` request.
const COLD_BATCH: usize = 4;

/// `hot_hits` pool: small VC instances that all fit in the cache.
const HOT: Family = Family {
    solver: SolverId::VC_PN,
    family: FamilyKind::Regular,
    n: 48,
    degree: 3,
    weights: WeightSpec::LogUniform(64),
};
const HOT_POOL: usize = 64;

/// `closed_mixed` pools: a popular set that stays cached, a tail larger
/// than the cache, and small async-scenario instances.
const MIXED_SYNC: Family = Family {
    solver: SolverId::VC_PN,
    family: FamilyKind::Regular,
    n: 256,
    degree: 4,
    weights: WeightSpec::LogUniform(1024),
};
const MIXED_ASYNC: Family = Family {
    solver: SolverId::VC_PN,
    family: FamilyKind::Regular,
    n: 12,
    degree: 3,
    weights: WeightSpec::LogUniform(16),
};
const MIXED_POPULAR: usize = 24;
const MIXED_TAIL: usize = 240;
const MIXED_ASYNC_POOL: usize = 200;
/// Share of `closed_mixed` requests that ask for an async scenario.
const MIXED_ASYNC_SHARE: f64 = 0.1;
/// Share of `closed_mixed` requests drawn from the popular set.
const MIXED_POPULAR_SHARE: f64 = 0.87;

/// Mixes the workload seed with a per-pool salt.
fn pool_seed(seed: u64, salt: u64) -> u64 {
    (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Generates `count` canonical blobs of `f` from `seed`.
fn blobs(f: &Family, count: usize, seed: u64) -> Vec<Vec<u8>> {
    synthesize(&WorkloadSpec {
        solver: f.solver,
        family: f.family,
        n: f.n,
        degree: f.degree,
        instances: count,
        weights: f.weights,
        seed,
    })
}

fn template(req: SolveRequest, warm: bool) -> Template {
    let decoded = req
        .instances
        .iter()
        .map(|b| Decoded::decode(req.solver, b).expect("generated blobs decode"))
        .collect();
    Template { req, decoded, expected: Vec::new(), warm }
}

/// Builds the named workload's request stream for `seed`.
///
/// # Panics
/// Panics on an unknown workload name.
pub fn build_stream(name: &str, seed: u64) -> Stream {
    let mut rng = Rng::new(pool_seed(seed, 0x0DE5));
    let mut templates = Vec::new();
    let order: Vec<u32> = match name {
        "cold_mix" => {
            for (si, f) in COLD.iter().enumerate() {
                let mut pool =
                    blobs(f, COLD_TEMPLATES * COLD_BATCH, pool_seed(seed, si as u64 + 1));
                if f.solver == SolverId::VC_BCAST {
                    let paths = blobs(&COLD_BCAST_PATH, COLD_TEMPLATES, pool_seed(seed, 7));
                    for (chunk, path) in pool.chunks_mut(COLD_BATCH).zip(paths) {
                        chunk[0] = path;
                    }
                }
                for chunk in pool.chunks(COLD_BATCH) {
                    let req = SolveRequest::new(f.solver, chunk.to_vec()).no_cache();
                    templates.push(template(req, true));
                }
            }
            // Round-robin the solvers; a seeded pick among each solver's
            // requests.
            (0..ORDER_LEN)
                .map(|i| ((i % COLD.len()) * COLD_TEMPLATES + rng.index(COLD_TEMPLATES)) as u32)
                .collect()
        }
        "hot_hits" => {
            for blob in blobs(&HOT, HOT_POOL, pool_seed(seed, 11)) {
                templates.push(template(SolveRequest::new(HOT.solver, vec![blob]), true));
            }
            (0..ORDER_LEN).map(|_| rng.index(HOT_POOL) as u32).collect()
        }
        "closed_mixed" => {
            let sync = blobs(&MIXED_SYNC, MIXED_POPULAR + MIXED_TAIL, pool_seed(seed, 21));
            for (i, blob) in sync.into_iter().enumerate() {
                // Popular entries and the first stretch of the tail warm up.
                let warm = i < 2 * MIXED_POPULAR;
                templates.push(template(SolveRequest::new(MIXED_SYNC.solver, vec![blob]), warm));
            }
            let scenarios = [Scenario::Datacenter, Scenario::Wan];
            for (i, blob) in
                blobs(&MIXED_ASYNC, MIXED_ASYNC_POOL, pool_seed(seed, 22)).into_iter().enumerate()
            {
                let req = SolveRequest::new(MIXED_ASYNC.solver, vec![blob])
                    .with_scenario(scenarios[i % scenarios.len()], i as u64 + 1);
                templates.push(template(req, i < 8));
            }
            let (popular, tail) = (MIXED_POPULAR, MIXED_TAIL);
            (0..ORDER_LEN)
                .map(|_| {
                    let r = rng.f64();
                    let idx = if r < MIXED_ASYNC_SHARE {
                        popular + tail + rng.index(MIXED_ASYNC_POOL)
                    } else if r < MIXED_ASYNC_SHARE + MIXED_POPULAR_SHARE {
                        rng.index(popular)
                    } else {
                        popular + rng.index(tail)
                    };
                    idx as u32
                })
                .collect()
        }
        other => panic!("unknown workload {other}"),
    };
    Stream { templates, order }
}
