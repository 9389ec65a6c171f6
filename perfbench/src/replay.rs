//! In-process replay of a request stream through the server's layers,
//! timing each public call as a span: framing (`net::FrameFsm`), request
//! decode (`wire`), cache key/probe/insert (`service::cache::LruCache`,
//! sized like the server's), the solve path of [`crate::pipeline`], response
//! encode (`wire::encode_solve_response_raw`) and the telemetry commit
//! (`service::telemetry::Telemetry::commit`).

use crate::pipeline::{self, Clock};
use crate::spans::{SpanLog, ROOT};
use crate::workload::{Template, Workload};
use anonet_core::canon::ByteReader;
use anonet_net::FrameFsm;
use anonet_service::cache::LruCache;
use anonet_service::telemetry::{outcome, RequestRecord, Telemetry};
use anonet_service::wire::{self, ExecMode, FLAG_NO_CACHE};
use anonet_service::ServiceConfig;
use std::collections::BTreeMap;

/// Layer span names of the replay, in request order. `sim.run` and
/// `core.certify` carry the solver as their tag; `runtime.run` replaces
/// `sim.run` for async-scenario requests.
pub const LAYERS: [&str; 12] = [
    "net.frame",
    "wire.decode_request",
    "service.cache_key",
    "service.cache_get",
    "core.canon_decode",
    "sim.run",
    "runtime.run",
    "core.certify",
    "wire.encode_body",
    "service.cache_insert",
    "wire.encode_response",
    "service.telemetry_commit",
];

/// One instance's served result: `(from_cache, body)` or an error.
type InstanceOutcome = Result<(bool, Vec<u8>), String>;

/// Exact counts the replay accumulates.
#[derive(Clone, Debug, Default)]
pub struct ReplayCounts {
    /// Requests replayed.
    pub requests: u64,
    /// Request frame payload bytes.
    pub bytes_in: u64,
    /// Response payload bytes.
    pub bytes_out: u64,
    /// Engine/runtime payload bits of computed instances.
    pub bits: u64,
    /// Rounds of each computed instance, by solver name.
    pub rounds: BTreeMap<&'static str, Vec<u64>>,
    /// Σ solo engine time of fanned-out batches, nanoseconds.
    pub fanout_solo_ns: u64,
    /// Σ width × batched wall time of the same batches, nanoseconds.
    pub fanout_capacity_ns: u64,
    /// Requests that failed to decode or solve in the replay (must stay 0).
    pub errors: u64,
}

/// The replaying server stand-in.
pub struct LayerReplay {
    cache: LruCache,
    telemetry: Telemetry,
    fsm: FrameFsm,
    cache_on: bool,
    width: usize,
    /// What the replay counted so far.
    pub counts: ReplayCounts,
}

impl LayerReplay {
    /// A replay configured like `w`'s server.
    pub fn new(w: &Workload) -> LayerReplay {
        let cfg: ServiceConfig = w.server_config();
        LayerReplay {
            cache: LruCache::with_byte_budget(cfg.cache_cap, cfg.cache_bytes),
            telemetry: Telemetry::new(cfg.flight_cap),
            fsm: FrameFsm::new(wire::MAX_FRAME),
            cache_on: cfg.cache_cap > 0,
            width: anonet_sim::pool::clamp_width(anonet_sim::pool::resolve_threads(
                cfg.threads_per_job,
            )),
            counts: ReplayCounts::default(),
        }
    }

    /// Brings the replay cache to the state a request of `tmpl` leaves on
    /// the server (untimed): hits are touched, misses inserted with the
    /// oracle's bodies.
    pub fn preload(&mut self, tmpl: &Template) {
        if !self.cache_on || tmpl.req.flags & FLAG_NO_CACHE != 0 {
            return;
        }
        for (i, body) in tmpl.expected.iter().enumerate() {
            let key = tmpl.req.cache_key(i);
            if self.cache.get(&key).is_none() {
                self.cache.insert(key, body.clone());
            }
        }
    }

    /// Replays one request (stream position `pos`), logging its spans.
    pub fn replay(&mut self, pos: u64, tmpl: &Template, clock: &Clock, log: &mut SpanLog) {
        let payload = wire::encode_solve_request(&tmpl.req);
        let mut frame = Vec::with_capacity(payload.len() + 4);
        wire::write_frame(&mut frame, &payload).expect("Vec writes cannot fail");

        let root = log.push(pos, "replay.request", "", ROOT, clock.now(), 0);
        let t = clock.now();
        let fed = self.fsm.feed(&frame);
        let got = self.fsm.next_frame();
        log.push(pos, "net.frame", "", root, t, clock.now());
        let (Ok(()), Some(got)) = (fed, got) else {
            self.counts.errors += 1;
            return;
        };

        let t = clock.now();
        let mut r = ByteReader::new(&got);
        let req = match wire::read_header(&mut r).and_then(|_| wire::decode_solve_request(&mut r)) {
            Ok(req) => req,
            Err(_) => {
                self.counts.errors += 1;
                return;
            }
        };
        log.push(pos, "wire.decode_request", "", root, t, clock.now());

        let k = req.instances.len();
        let use_cache = self.cache_on && req.flags & FLAG_NO_CACHE == 0;
        let mut keys = Vec::new();
        let mut results: Vec<Option<InstanceOutcome>> = vec![None; k];
        if use_cache {
            for (i, slot) in results.iter_mut().enumerate() {
                let t = clock.now();
                let key = req.cache_key(i);
                let t1 = clock.now();
                log.push(pos, "service.cache_key", "", root, t, t1);
                let hit = self.cache.get(&key).map(|b| b.to_vec());
                log.push(pos, "service.cache_get", "", root, t1, clock.now());
                *slot = hit.map(|b| Ok((true, b)));
                keys.push(key);
            }
        }

        let tag = req.solver.name();
        let mut missed: Vec<usize> = Vec::new();
        let mut solo_ns = 0;
        for i in 0..k {
            if results[i].is_some() {
                continue;
            }
            missed.push(i);
            let solved = match pipeline::solve_one(req.solver, req.mode, &req.instances[i], clock) {
                Ok(s) => s,
                Err(e) => {
                    self.counts.errors += 1;
                    results[i] = Some(Err(e));
                    continue;
                }
            };
            let [s0, s1, s2, s3, s4] = solved.stamps;
            log.push(pos, "core.canon_decode", "", root, s0, s1);
            if solved.is_async {
                log.push(pos, "runtime.run", "", root, s1, s2);
            } else {
                log.push(pos, "sim.run", tag, root, s1, s2);
                self.counts.rounds.entry(tag).or_default().push(solved.rounds);
            }
            log.push(pos, "core.certify", tag, root, s2, s3);
            log.push(pos, "wire.encode_body", "", root, s3, s4);
            solo_ns += s2 - s1;
            self.counts.bits += solved.bits;
            if use_cache {
                let t = clock.now();
                self.cache.insert(keys[i].clone(), solved.body.clone());
                log.push(pos, "service.cache_insert", "", root, t, clock.now());
            }
            results[i] = Some(Ok((false, solved.body)));
        }
        let results: Vec<InstanceOutcome> =
            results.into_iter().map(|r| r.expect("every instance resolved")).collect();

        let t = clock.now();
        let reply = wire::encode_solve_response_raw(&results);
        let t1 = clock.now();
        log.push(pos, "wire.encode_response", "", root, t, t1);
        let hits = results.iter().filter(|r| matches!(r, Ok((true, _)))).count() as u32;
        self.telemetry.commit(RequestRecord {
            msg_type: wire::MSG_SOLVE_REQUEST,
            problem: tag,
            instances: k as u32,
            bytes_in: payload.len() as u64,
            bytes_out: reply.len() as u64,
            cache_hits: hits,
            cache_misses: k as u32 - hits,
            outcome: outcome::OK,
            ..RequestRecord::default()
        });
        let end = clock.now();
        log.push(pos, "service.telemetry_commit", "", root, t1, end);
        log.spans[root as usize].end_ns = end;

        self.counts.requests += 1;
        self.counts.bytes_in += payload.len() as u64;
        self.counts.bytes_out += reply.len() as u64;

        // The server runs a request's misses as one batch across its pool;
        // time that batch too (outside the request's spans) for the
        // fan-out efficiency.
        if self.width > 1
            && missed.len() >= 2
            && req.mode == ExecMode::Sync
            && pipeline::fans_out(req.solver)
        {
            let blobs: Vec<&[u8]> = missed.iter().map(|&i| req.instances[i].as_slice()).collect();
            let wall = pipeline::fanout_wall_ns(req.solver, &blobs, self.width);
            self.counts.fanout_solo_ns += solo_ns;
            self.counts.fanout_capacity_ns += wall * self.width as u64;
        }
    }
}
