//! Service-side observability: the phase-metric registry and the flight
//! recorder.
//!
//! ## A request's life, as the phases see it
//!
//! ```text
//!   client ──frame──▶ conn thread ──job──▶ queue ──▶ worker ──reply──▶ conn thread
//!            read_us   decode_us          queue_us    solve_us           write_us
//!                          │                          encode_us              ▲
//!                          └──── every instance cached: answered inline ─────┘
//!                                 solve_us (probe), encode_us (copy-out)
//! ```
//!
//! * `phase.read_us` — waiting for and reading the request frame (for a
//!   keep-alive connection this includes client think time: it spans
//!   "ready to read" to "frame complete");
//! * `phase.decode_us` — header + body parsing on the connection thread;
//! * `phase.queue_us` — enqueue to worker pickup (the backpressure signal);
//!   0 for a request answered inline from the cache, which never queues;
//! * `phase.solve_us` — cache probe plus batch execution (for an inline
//!   hit: building the keys and probing them);
//! * `phase.encode_us` — response encoding on the worker (for an inline
//!   hit: copying the cached bodies into the reply);
//! * `phase.write_us` — writing the response frame back;
//! * `request.total_us` — read start to write end.
//!
//! All durations are recorded in microseconds into `anonet-obs` log₂
//! histograms, so the registry's memory stays constant under any load. The
//! wall clock is read only through `anonet_obs::clock` — this crate is on
//! the lint's allowlist for that; the deterministic crates are not.
//!
//! ## The flight recorder
//!
//! A fixed-size ring of the last N per-request records (timestamps, sizes,
//! phase durations, outcome). It answers three questions after a
//! misbehaving burst: *what* arrived (kinds, sizes), *where* the time went
//! (per-record phase splits, not just aggregates), and *what failed*
//! (outcome per record, panics included). It is dumped as JSON on a worker
//! panic (stderr), on a wire `MSG_DEBUG_DUMP` request, and at exit via
//! `anonet-serve --dump-on-exit`.

use crate::portfolio::{self, SolverId};
use anonet_obs::clock;
use anonet_obs::{Counter, Histo, Registry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Outcome labels a [`RequestRecord`] can carry.
pub mod outcome {
    /// Request served with an `Ok` response.
    pub const OK: &str = "ok";
    /// Rejected with `Busy` (queue full).
    pub const BUSY: &str = "busy";
    /// Frame failed to parse.
    pub const MALFORMED: &str = "malformed";
    /// Worker panicked; per-instance errors were returned.
    pub const PANIC: &str = "panic";
    /// Well-formed request for a capability this build does not serve
    /// (unknown solver id, or a mode the solver's registry entry rejects).
    pub const UNSUPPORTED: &str = "unsupported";
    /// Stats / metrics / debug-dump request.
    pub const INFO: &str = "info";
}

/// One request's record in the flight recorder.
#[derive(Clone, Debug, Default)]
pub struct RequestRecord {
    /// Wall-clock arrival, milliseconds since the Unix epoch.
    pub t_unix_ms: u64,
    /// Wire message type of the request frame.
    pub msg_type: u8,
    /// Problem kind for solve requests (`""` otherwise).
    pub problem: &'static str,
    /// Instances in the request (solve requests).
    pub instances: u32,
    /// Request frame payload bytes.
    pub bytes_in: u64,
    /// Response frame payload bytes.
    pub bytes_out: u64,
    /// Phase durations, microseconds (see the module docs).
    pub read_us: u64,
    /// Decode phase.
    pub decode_us: u64,
    /// Queue wait (0 when the request was answered from the cache at
    /// dispatch).
    pub queue_us: u64,
    /// Cache probe + execution.
    pub solve_us: u64,
    /// Response encoding.
    pub encode_us: u64,
    /// Response write.
    pub write_us: u64,
    /// Read start → write end.
    pub total_us: u64,
    /// Cache hits among this request's instances.
    pub cache_hits: u32,
    /// Cache misses among this request's instances.
    pub cache_misses: u32,
    /// One of the [`outcome`] labels.
    pub outcome: &'static str,
}

impl RequestRecord {
    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"t_unix_ms\":{},\"msg_type\":{},\"problem\":\"{}\",\"instances\":{},\
             \"bytes_in\":{},\"bytes_out\":{},\"read_us\":{},\"decode_us\":{},\
             \"queue_us\":{},\"solve_us\":{},\"encode_us\":{},\"write_us\":{},\
             \"total_us\":{},\"cache_hits\":{},\"cache_misses\":{},\"outcome\":\"{}\"}}",
            self.t_unix_ms,
            self.msg_type,
            self.problem,
            self.instances,
            self.bytes_in,
            self.bytes_out,
            self.read_us,
            self.decode_us,
            self.queue_us,
            self.solve_us,
            self.encode_us,
            self.write_us,
            self.total_us,
            self.cache_hits,
            self.cache_misses,
            self.outcome,
        ));
    }
}

/// Fixed-size ring of the last N request records.
struct FlightRecorder {
    cap: usize,
    ring: Mutex<VecDeque<RequestRecord>>,
}

impl FlightRecorder {
    fn new(cap: usize) -> Self {
        FlightRecorder { cap, ring: Mutex::new(VecDeque::with_capacity(cap.min(1024))) }
    }

    /// Ring lock with poison recovery: records are plain data pushed one at
    /// a time, so a panic elsewhere cannot have left them half-written.
    fn lock(&self) -> MutexGuard<'_, VecDeque<RequestRecord>> {
        match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.ring.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    fn push(&self, rec: RequestRecord) {
        if self.cap == 0 {
            return;
        }
        let mut ring = self.lock();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(rec);
    }
}

/// The service's metric registry with pre-registered hot-path handles, plus
/// the flight recorder. One per [`Server`](crate::Server), shared by every
/// connection and worker thread.
pub struct Telemetry {
    /// The underlying registry — the service's one metrics store (gauges
    /// for queue/cache/worker state are set at snapshot time by the server,
    /// which owns those sources).
    pub registry: Registry,
    /// Frame read phase.
    pub read_us: Arc<Histo>,
    /// Decode phase.
    pub decode_us: Arc<Histo>,
    /// Queue wait phase.
    pub queue_us: Arc<Histo>,
    /// Cache probe + execution phase.
    pub solve_us: Arc<Histo>,
    /// Response encode phase.
    pub encode_us: Arc<Histo>,
    /// Response write phase.
    pub write_us: Arc<Histo>,
    /// Whole-request latency.
    pub total_us: Arc<Histo>,
    /// Request payload sizes.
    pub bytes_in: Arc<Histo>,
    /// Response payload sizes.
    pub bytes_out: Arc<Histo>,
    /// Per-solve engine rounds (logical time, from the trace).
    pub solve_rounds: Arc<Histo>,
    /// Per-solve communication bits (from the trace).
    pub solve_bits: Arc<Histo>,
    /// Solve requests by solver, indexed by wire id — one counter per
    /// portfolio registry entry, named `solve.kind.<name>`. Registering a
    /// solver automatically registers its counter.
    kinds: Vec<Arc<Counter>>,
    /// Worker panics caught and answered with per-instance errors.
    pub worker_panics: Arc<Counter>,
    /// Requests answered with an `Ok` response.
    pub served_ok: Arc<Counter>,
    /// Requests rejected with `Busy` (queue full).
    pub rejected_busy: Arc<Counter>,
    /// Frames that failed to parse.
    pub malformed: Arc<Counter>,
    /// Per-instance decode/execution errors inside `Ok` responses.
    pub exec_errors: Arc<Counter>,
    /// Connections the threads model closed at accept over `max_conns` (the
    /// reactor counts its own in `net.shed_conns`).
    pub shed_conns: Arc<Counter>,
    flight: FlightRecorder,
}

impl Telemetry {
    /// Builds the registry with every service metric pre-registered, and a
    /// flight recorder holding the last `flight_cap` records.
    pub fn new(flight_cap: usize) -> Telemetry {
        let registry = Registry::new();
        Telemetry {
            read_us: registry.histo("phase.read_us"),
            decode_us: registry.histo("phase.decode_us"),
            queue_us: registry.histo("phase.queue_us"),
            solve_us: registry.histo("phase.solve_us"),
            encode_us: registry.histo("phase.encode_us"),
            write_us: registry.histo("phase.write_us"),
            total_us: registry.histo("request.total_us"),
            bytes_in: registry.histo("request.bytes_in"),
            bytes_out: registry.histo("request.bytes_out"),
            solve_rounds: registry.histo("solve.rounds"),
            solve_bits: registry.histo("solve.bits"),
            kinds: portfolio::solvers()
                .iter()
                .map(|d| registry.counter(&format!("solve.kind.{}", d.name)))
                .collect(),
            worker_panics: registry.counter("worker.panics"),
            served_ok: registry.counter("served_ok"),
            rejected_busy: registry.counter("rejected_busy"),
            malformed: registry.counter("malformed"),
            exec_errors: registry.counter("exec_errors"),
            shed_conns: registry.counter("shed_conns"),
            flight: FlightRecorder::new(flight_cap),
            registry,
        }
    }

    /// The per-solver solve counter.
    pub fn kind_counter(&self, s: SolverId) -> &Counter {
        // In-bounds by construction: `kinds` is built from the same registry
        // table that makes every SolverId constructible, one entry per id.
        &self.kinds[s.to_u8() as usize]
    }

    /// Records one computed (non-cached) solve's logical-cost trace.
    pub fn record_solve_trace(&self, rounds: u64, bits: u64) {
        self.solve_rounds.record(rounds);
        self.solve_bits.record(bits);
    }

    /// Commits a finished request to the phase histograms and the flight
    /// recorder. Phases a record never entered (e.g. `solve_us` on a busy
    /// rejection) are still recorded as 0 so per-phase counts stay equal to
    /// the request count and the histograms stay comparable.
    pub fn commit(&self, rec: RequestRecord) {
        self.read_us.record(rec.read_us);
        self.decode_us.record(rec.decode_us);
        self.queue_us.record(rec.queue_us);
        self.solve_us.record(rec.solve_us);
        self.encode_us.record(rec.encode_us);
        self.write_us.record(rec.write_us);
        self.total_us.record(rec.total_us);
        self.bytes_in.record(rec.bytes_in);
        self.bytes_out.record(rec.bytes_out);
        self.flight.push(rec);
    }

    /// The flight-recorder document: schema header, dump reason, wall-clock
    /// dump time, and the retained records oldest-first.
    pub fn dump_json(&self, reason: &str) -> String {
        let records: Vec<RequestRecord> = self.flight.lock().iter().cloned().collect();
        let mut out = String::with_capacity(64 + records.len() * 192);
        out.push_str("{\"schema\":\"anonet-flight/1\",\"reason\":\"");
        anonet_obs::json_escape_into(&mut out, reason);
        out.push_str(&format!("\",\"dumped_at_ms\":{},\"records\":[", clock::unix_millis()));
        for (i, rec) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            rec.json_into(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Panic-path dump: write the flight document to stderr so the evidence
    /// survives even if the process is about to die. The worker that caught
    /// the panic keeps serving afterwards.
    pub fn dump_on_panic(&self) {
        self.worker_panics.inc();
        eprintln!("{}", self.dump_json("worker-panic"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_ring_keeps_last_n() {
        let t = Telemetry::new(3);
        for i in 0..5u64 {
            t.commit(RequestRecord { bytes_in: i, outcome: outcome::OK, ..Default::default() });
        }
        let dump = t.dump_json("test");
        assert!(dump.contains("\"schema\":\"anonet-flight/1\""));
        // Only the last 3 records survive.
        assert!(!dump.contains("\"bytes_in\":1,"));
        assert!(dump.contains("\"bytes_in\":2,"));
        assert!(dump.contains("\"bytes_in\":4,"));
        assert_eq!(t.total_us.count(), 5);
    }

    #[test]
    fn zero_capacity_disables_recording_but_not_metrics() {
        let t = Telemetry::new(0);
        t.commit(RequestRecord { outcome: outcome::OK, ..Default::default() });
        assert!(t.dump_json("test").contains("\"records\":[]"));
        assert_eq!(t.read_us.count(), 1);
    }
}
