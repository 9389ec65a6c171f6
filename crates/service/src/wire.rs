//! The binary wire protocol: framing, message encoding, message decoding.
//!
//! ## Framing
//!
//! Every message travels as one **frame**: a `u32` little-endian payload
//! length followed by that many payload bytes. Payloads larger than
//! [`MAX_FRAME`] are rejected (a malicious length prefix must not trigger a
//! huge allocation).
//!
//! ## Payload layout
//!
//! All integers are little-endian; `blob` means a `u32` length prefix
//! followed by that many raw bytes.
//!
//! ```text
//! header     := magic "ANSV" (4 bytes) | version: u16 (= 1) | msg_type: u8
//! msg_type   := 1 solve request | 2 solve response
//!             | 3 stats request | 4 stats response
//!             | 5 metrics request | 6 metrics response
//!             | 7 debug dump request | 8 debug dump response
//!
//! solve req  := header | solver: u8 | mode: u8 | seed: u64 | flags: u8
//!             | count: u32 | count × instance blob
//! solver     := stable id from the solver-portfolio registry
//!               (`crate::portfolio::solvers()`): 0 vc_pn (§3),
//!               1 vc_bcast (§5), 2 set_cover (§4), 3 vc_ps3, 4 vc_kvy,
//!               5 vc_bchs. Ids 0–2 predate the registry and are pinned
//!               byte-for-byte by regression tests; an id outside the
//!               registry decodes to [`WireError::UnknownSolver`], which
//!               the server answers with a structured `Unsupported`.
//! mode       := 0 synchronous engine
//!             | 1..=5 asynchronous runtime scenario
//!               (1 ideal, 2 datacenter, 3 wan, 4 lossy_radio, 5 churny_radio)
//! seed       := scenario seed for asynchronous modes (0 for sync)
//! flags      := bit 0: bypass the result cache
//!               | bit 7 (debug builds only): deliberate worker panic
//!                 (test instrumentation; ignored in release)
//! instance   := canonical blob from `anonet_core::canon`
//!               (`encode_vc` for VC problems, `encode_sc` for set cover)
//!
//! solve resp := header | status: u8 | status body
//! status     := 0 ok | 1 busy (backpressure) | 2 malformed | 3 unsupported
//! ok         := count: u32 | count × result
//! busy       := retry_after_ms: u32 | queue_len: u32
//! malformed / unsupported := message blob (UTF-8)
//!
//! result     := 0: u8 | error message blob            (per-instance error)
//!             | 1: u8 | from_cache: u8
//!               | n: u32 | ceil(n/8) cover bitmap bytes (bit v = node v /
//!                 subset v in the cover; LSB-first within each byte)
//!               | certificate blob (`canon::encode_certificate`)
//!               | trace_kind: u8 (0 sync, 1 async) | 8 × u64:
//!                 rounds, messages, bits, max_message_bits,
//!                 events, virtual_time, retransmissions, dropped_data
//!                 (the last four are 0 for sync traces)
//!
//! stats resp := header | 11 × u64:
//!               served_ok, rejected_busy, malformed, exec_errors,
//!               cache_hits, cache_misses, cache_evictions, cache_len,
//!               queue_len, workers, shed_conns
//!
//! metrics resp := header | schema: u16 (= 1) | entry_count: u32
//!               | entry_count × metric entry
//! metric entry := name blob (UTF-8) | kind: u8
//! kind         := 0 counter | 1 gauge — both followed by value: u64
//!               | 2 histogram, followed by:
//!                 count: u64 | sum: u64 | max: u64 | nbuckets: u16
//!                 | nbuckets × (bucket_idx: u8 | bucket_count: u64)
//!                 (log₂ buckets, `anonet_obs::bucket_bounds`; only
//!                 non-empty buckets travel)
//!
//! debug dump resp := header | JSON blob (flight-recorder document)
//! ```
//!
//! The legacy fixed-width stats frame (msg 3/4) is kept byte-for-byte
//! compatible for old clients — its exact encoding is pinned by a
//! regression test. New fields land in the self-describing metrics frame
//! (msg 5/6), which carries its own schema version and entry count, so
//! adding a metric is not a wire break.
//!
//! The per-instance `result` bytes after the `from_cache` flag are exactly
//! what the server's result cache stores, so a cache hit is a byte copy.

use crate::portfolio::SolverId;
use anonet_bigmath::BigRat;
use anonet_core::canon::{ByteReader, ByteWriter, CanonError};
use anonet_core::certify::Certificate;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Magic bytes opening every payload.
pub const MAGIC: [u8; 4] = *b"ANSV";
/// Protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Maximum accepted frame payload, in bytes (defensive bound).
pub const MAX_FRAME: usize = 1 << 28;

/// Maximum instances per solve request. Each per-instance response record
/// costs bytes the request did not pay for (~130 bytes of certificate/trace
/// framing, or an error message), so an uncapped count lets a ≤ [`MAX_FRAME`]
/// request of tiny blobs amplify into a response *larger* than [`MAX_FRAME`]
/// that the server cannot frame. At 4096 instances the fixed per-record
/// overhead stays far below the frame bound.
pub const MAX_INSTANCES: usize = 4096;

/// Message type tags.
pub const MSG_SOLVE_REQUEST: u8 = 1;
/// Solve response tag.
pub const MSG_SOLVE_RESPONSE: u8 = 2;
/// Stats request tag.
pub const MSG_STATS_REQUEST: u8 = 3;
/// Stats response tag.
pub const MSG_STATS_RESPONSE: u8 = 4;
/// Metrics request tag (self-describing key/value frame).
pub const MSG_METRICS_REQUEST: u8 = 5;
/// Metrics response tag.
pub const MSG_METRICS_RESPONSE: u8 = 6;
/// Debug dump request tag (flight-recorder JSON).
pub const MSG_DEBUG_DUMP_REQUEST: u8 = 7;
/// Debug dump response tag.
pub const MSG_DEBUG_DUMP_RESPONSE: u8 = 8;

/// Schema version of the metrics frame body. Bump only on incompatible
/// layout changes; adding entries is not a break (the frame is key/value).
pub const METRICS_SCHEMA_VERSION: u16 = 1;

/// Maximum metric entries accepted when decoding a metrics frame —
/// hostile-peer allocation bound, far above any honest registry size.
pub const MAX_METRICS: usize = 4096;

/// How the server should execute the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The synchronous engine through the batch pool.
    Sync,
    /// The asynchronous runtime under a named scenario (see
    /// `anonet_runtime::scenario`); the `u64` is the scenario seed.
    Async(Scenario, u64),
}

/// Named asynchronous network scenarios, mirroring
/// `anonet_runtime::scenario`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Zero delay, lossless, FIFO.
    Ideal,
    /// Constant 2-tick links.
    Datacenter,
    /// Heterogeneous latency, reordering links.
    Wan,
    /// Geometric latency with 5% loss.
    LossyRadio,
    /// `LossyRadio` plus crash/restart churn.
    ChurnyRadio,
}

impl Scenario {
    /// Wire byte (the `mode` field; 0 is reserved for sync).
    pub fn to_u8(self) -> u8 {
        match self {
            Scenario::Ideal => 1,
            Scenario::Datacenter => 2,
            Scenario::Wan => 3,
            Scenario::LossyRadio => 4,
            Scenario::ChurnyRadio => 5,
        }
    }

    /// Parses the wire byte.
    pub fn from_u8(v: u8) -> Option<Scenario> {
        match v {
            1 => Some(Scenario::Ideal),
            2 => Some(Scenario::Datacenter),
            3 => Some(Scenario::Wan),
            4 => Some(Scenario::LossyRadio),
            5 => Some(Scenario::ChurnyRadio),
            _ => None,
        }
    }
}

/// Request flag: bypass the result cache for this request.
pub const FLAG_NO_CACHE: u8 = 1;

/// Request flag honoured in **debug builds only**: panic the worker mid-job.
/// Test instrumentation for the worker pool's panic-isolation path; release
/// builds ignore it.
#[doc(hidden)]
pub const FLAG_TEST_PANIC: u8 = 1 << 7;

/// A decoded solve request.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The registered solver all instances in this request go to.
    pub solver: SolverId,
    /// Execution mode (sync engine or async scenario).
    pub mode: ExecMode,
    /// Request flags ([`FLAG_NO_CACHE`]).
    pub flags: u8,
    /// Canonical instance blobs (`anonet_core::canon`).
    pub instances: Vec<Vec<u8>>,
}

impl SolveRequest {
    /// A synchronous request over canonical instance blobs.
    pub fn new(solver: SolverId, instances: Vec<Vec<u8>>) -> SolveRequest {
        SolveRequest { solver, mode: ExecMode::Sync, flags: 0, instances }
    }

    /// Switches to asynchronous execution under `scenario` with `seed`.
    pub fn with_scenario(mut self, scenario: Scenario, seed: u64) -> SolveRequest {
        self.mode = ExecMode::Async(scenario, seed);
        self
    }

    /// Bypasses the result cache.
    pub fn no_cache(mut self) -> SolveRequest {
        self.flags |= FLAG_NO_CACHE;
        self
    }

    /// The cache key of instance `i`: solver byte, mode byte, seed and the
    /// canonical blob — everything that determines the response bytes. The
    /// solver byte keeps every registered solver's results disjoint in the
    /// shared LRU (ids are stable, so keys survive registry growth).
    pub fn cache_key(&self, i: usize) -> Vec<u8> {
        let (mode, seed) = match self.mode {
            ExecMode::Sync => (0u8, 0u64),
            ExecMode::Async(s, seed) => (s.to_u8(), seed),
        };
        let mut w = ByteWriter::new();
        w.put_u8(self.solver.to_u8());
        w.put_u8(mode);
        w.put_u64(seed);
        // lint: allow(panic-path) — `i` is the caller's loop index over `self.instances`, not a wire-read length
        w.put_bytes(&self.instances[i]);
        w.into_bytes()
    }
}

/// Execution statistics carried with every solved instance — the sync
/// engine's `Trace` or a summary of the async runtime's `AsyncTrace`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireTrace {
    /// True if this came from the asynchronous runtime.
    pub is_async: bool,
    /// Completed rounds.
    pub rounds: u64,
    /// Messages (sync: arcs × rounds; async: unique receipts).
    pub messages: u64,
    /// Payload bits.
    pub bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Async only: events processed by the event loop.
    pub events: u64,
    /// Async only: virtual completion time in ticks.
    pub virtual_time: u64,
    /// Async only: retransmissions.
    pub retransmissions: u64,
    /// Async only: data transmissions lost.
    pub dropped_data: u64,
}

/// One instance's outcome inside an `Ok` response.
#[derive(Clone, Debug)]
pub enum InstanceResult {
    /// The instance failed to decode or execute (message is human-readable).
    Error(String),
    /// The instance was solved (possibly from cache).
    Solved(Solved),
}

/// A solved instance: assignment, certificate and execution stats.
#[derive(Clone, Debug)]
pub struct Solved {
    /// True if the result was served from the LRU cache.
    pub from_cache: bool,
    /// Cover membership by node id (vertex cover) or subset id (set cover).
    pub cover: Vec<bool>,
    /// The Bar-Yehuda–Even approximation certificate, exact.
    pub certificate: Certificate<BigRat>,
    /// Execution statistics.
    pub trace: WireTrace,
}

/// A decoded solve response.
#[derive(Clone, Debug)]
pub enum SolveResponse {
    /// Per-instance results, same order as the request.
    Ok(Vec<InstanceResult>),
    /// The job queue is full — retry after the hinted delay.
    Busy {
        /// Suggested client backoff, in milliseconds.
        retry_after_ms: u32,
        /// Queue length observed at rejection time.
        queue_len: u32,
    },
    /// The request could not be parsed.
    Malformed(String),
    /// The problem/mode combination is not supported.
    Unsupported(String),
}

/// A decoded stats response: the service's counters at a point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests answered with an `Ok` response.
    pub served_ok: u64,
    /// Requests rejected with `Busy` (queue full).
    pub rejected_busy: u64,
    /// Frames that failed to parse.
    pub malformed: u64,
    /// Per-instance decode/execution errors inside `Ok` responses.
    pub exec_errors: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_len: u64,
    /// Jobs currently queued.
    pub queue_len: u64,
    /// Worker threads configured.
    pub workers: u64,
    /// Connections closed at accept time because `max_conns` was reached.
    pub shed_conns: u64,
}

/// Errors raised while decoding a payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than announced content.
    Truncated,
    /// Bad magic bytes.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u16),
    /// Unknown or unexpected message type.
    BadMessageType(u8),
    /// A solver id outside the portfolio registry. Distinct from
    /// [`WireError::Invalid`] so the server can answer with a structured
    /// `Unsupported` (a capability gap) instead of `Malformed` (a protocol
    /// violation).
    UnknownSolver(u8),
    /// A field held an invalid value.
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadMagic => write!(f, "bad magic (expected \"ANSV\")"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadMessageType(t) => write!(f, "unexpected message type {t}"),
            WireError::UnknownSolver(id) => write!(f, "unknown solver id {id}"),
            WireError::Invalid(m) => write!(f, "invalid payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CanonError> for WireError {
    fn from(e: CanonError) -> WireError {
        match e {
            CanonError::Truncated => WireError::Truncated,
            other => WireError::Invalid(other.to_string()),
        }
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Writes one frame (length prefix + payload) with one vectored write, so
/// on a socket the frame leaves in one system call and, under
/// `TCP_NODELAY`, one segment instead of a bare 4-byte prefix followed by
/// the payload. A short write is finished with plain writes from where it
/// stopped. An oversized payload is an error, not a panic — a connection
/// handler must survive building a response it cannot frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let prefix = (payload.len() as u32).to_le_bytes();
    let sent = loop {
        match w.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(payload)]) {
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    if sent < prefix.len() {
        w.write_all(prefix.get(sent..).unwrap_or_default())?;
        w.write_all(payload)?;
    } else {
        w.write_all(payload.get(sent - prefix.len()..).unwrap_or_default())?;
    }
    w.flush()
}

/// How far [`read_frame`] commits its buffer ahead of the payload bytes
/// that have arrived.
const READ_AHEAD: usize = 64 << 10;

/// Reads one frame. `Ok(None)` means the peer closed the connection cleanly
/// at a frame boundary.
///
/// The payload buffer is sized from the length prefix, at most
/// [`READ_AHEAD`] (64 KiB) at a time, so a frame that has fully arrived is
/// read with one `read` call after the prefix's. The bound is what keeps a
/// hostile prefix cheap: a peer that announces [`MAX_FRAME`] and then
/// stalls (or trickles) pins at most 64 KiB more than it has really sent.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    // Read the prefix byte-accurately rather than with `read_exact`, whose
    // `UnexpectedEof` cannot distinguish a clean close (zero prefix bytes)
    // from a connection torn mid-prefix — only the former is `Ok(None)`.
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        // lint: allow(panic-path) — `got < len.len()` is the loop condition two lines up
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection torn mid length prefix",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = Vec::new();
    let mut got = 0;
    while got < len {
        if got == payload.len() {
            payload.resize(len.min(got + READ_AHEAD), 0);
        }
        // lint: allow(panic-path) — `got < len` and the resize above keep `got < payload.len()`
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame payload truncated"))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

/// A writer pre-seeded with the protocol header.
fn header(msg_type: u8) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_bytes(&VERSION.to_le_bytes());
    w.put_u8(msg_type);
    w
}

/// Checks the header, returning the message type.
pub fn read_header(r: &mut ByteReader<'_>) -> Result<u8, WireError> {
    let magic = r.get_bytes(4).map_err(|_| WireError::Truncated)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let lo = r.get_u8().map_err(|_| WireError::Truncated)?;
    let hi = r.get_u8().map_err(|_| WireError::Truncated)?;
    let version = u16::from_le_bytes([lo, hi]);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    r.get_u8().map_err(|_| WireError::Truncated)
}

/// Encodes a solve request payload.
pub fn encode_solve_request(req: &SolveRequest) -> Vec<u8> {
    let mut w = header(MSG_SOLVE_REQUEST);
    w.put_u8(req.solver.to_u8());
    let (mode, seed) = match req.mode {
        ExecMode::Sync => (0u8, 0u64),
        ExecMode::Async(s, seed) => (s.to_u8(), seed),
    };
    w.put_u8(mode);
    w.put_u64(seed);
    w.put_u8(req.flags);
    w.put_u32(req.instances.len() as u32);
    for blob in &req.instances {
        w.put_blob(blob);
    }
    w.into_bytes()
}

/// Decodes a solve request body (header already consumed).
pub fn decode_solve_request(r: &mut ByteReader<'_>) -> Result<SolveRequest, WireError> {
    let solver_byte = r.get_u8()?;
    let solver = SolverId::from_u8(solver_byte).ok_or(WireError::UnknownSolver(solver_byte))?;
    let mode_byte = r.get_u8()?;
    let seed = r.get_u64()?;
    let mode = if mode_byte == 0 {
        ExecMode::Sync
    } else {
        let s = Scenario::from_u8(mode_byte)
            .ok_or_else(|| WireError::Invalid(format!("unknown exec mode {mode_byte}")))?;
        ExecMode::Async(s, seed)
    };
    let flags = r.get_u8()?;
    let count = r.get_u32()? as usize;
    if count > MAX_INSTANCES {
        return Err(WireError::Invalid(format!(
            "instance count {count} exceeds MAX_INSTANCES = {MAX_INSTANCES}"
        )));
    }
    let mut instances = Vec::new();
    for _ in 0..count {
        instances.push(r.get_blob()?.to_vec());
    }
    if instances.is_empty() {
        return Err(WireError::Invalid("request carries no instances".into()));
    }
    Ok(SolveRequest { solver, mode, flags, instances })
}

/// Encodes the body of one solved instance **after** the `from_cache` flag —
/// exactly the bytes the result cache stores.
pub fn encode_solved_body(
    cover: &[bool],
    certificate: &Certificate<BigRat>,
    trace: &WireTrace,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(cover.len() as u32);
    let mut byte = 0u8;
    for (i, &b) in cover.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.put_u8(byte);
            byte = 0;
        }
    }
    if cover.len() % 8 != 0 {
        w.put_u8(byte);
    }
    w.put_blob(&anonet_core::canon::encode_certificate(certificate));
    w.put_u8(u8::from(trace.is_async));
    for v in [
        trace.rounds,
        trace.messages,
        trace.bits,
        trace.max_message_bits,
        trace.events,
        trace.virtual_time,
        trace.retransmissions,
        trace.dropped_data,
    ] {
        w.put_u64(v);
    }
    w.into_bytes()
}

fn decode_solved_body(r: &mut ByteReader<'_>, from_cache: bool) -> Result<Solved, WireError> {
    let n = r.get_u32()? as usize;
    // `get_bytes` bounds the bitmap against the payload, but the cover Vec
    // costs one byte per *entry* — 8× the bitmap — so also cap the declared
    // count before allocating: a hostile peer may not turn a ≤ MAX_FRAME
    // frame into a multi-GiB client-side allocation. Honest instances carry
    // far fewer nodes than MAX_FRAME (each costs ≥ 12 request bytes).
    if n > MAX_FRAME {
        return Err(WireError::Invalid(format!("cover length {n} exceeds MAX_FRAME")));
    }
    let bytes = r.get_bytes(n.div_ceil(8))?;
    // lint: allow(panic-path) — `i < n` and `bytes.len() == n.div_ceil(8)`, so `i / 8 < bytes.len()`
    let cover = (0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect();
    let certificate = anonet_core::canon::decode_certificate(r.get_blob()?)?;
    let is_async = r.get_u8()? != 0;
    let mut vals = [0u64; 8];
    for v in vals.iter_mut() {
        *v = r.get_u64()?;
    }
    let trace = WireTrace {
        is_async,
        rounds: vals[0],
        messages: vals[1],
        bits: vals[2],
        max_message_bits: vals[3],
        events: vals[4],
        virtual_time: vals[5],
        retransmissions: vals[6],
        dropped_data: vals[7],
    };
    Ok(Solved { from_cache, cover, certificate, trace })
}

/// Encodes a solve response payload.
pub fn encode_solve_response(resp: &SolveResponse) -> Vec<u8> {
    let mut w = header(MSG_SOLVE_RESPONSE);
    match resp {
        SolveResponse::Ok(results) => {
            let mut ok = OkResponse::new(results.len());
            for res in results {
                match res {
                    InstanceResult::Error(msg) => ok.push_error(msg),
                    InstanceResult::Solved(s) => ok.push_solved(
                        s.from_cache,
                        &encode_solved_body(&s.cover, &s.certificate, &s.trace),
                    ),
                }
            }
            return ok.finish();
        }
        SolveResponse::Busy { retry_after_ms, queue_len } => {
            w.put_u8(1);
            w.put_u32(*retry_after_ms);
            w.put_u32(*queue_len);
        }
        SolveResponse::Malformed(msg) => {
            w.put_u8(2);
            w.put_blob(msg.as_bytes());
        }
        SolveResponse::Unsupported(msg) => {
            w.put_u8(3);
            w.put_blob(msg.as_bytes());
        }
    }
    w.into_bytes()
}

/// An `Ok` solve response built result by result straight into the payload
/// buffer, each pre-encoded body (from [`encode_solved_body`]) taken by
/// reference — so a body held by the result cache is copied exactly once,
/// into the reply.
pub(crate) struct OkResponse(ByteWriter);

impl OkResponse {
    /// Opens a response that will carry `count` results.
    pub(crate) fn new(count: usize) -> OkResponse {
        let mut w = header(MSG_SOLVE_RESPONSE);
        w.put_u8(0);
        w.put_u32(count as u32);
        OkResponse(w)
    }

    /// Appends a solved instance.
    pub(crate) fn push_solved(&mut self, from_cache: bool, body: &[u8]) {
        self.0.put_u8(1);
        self.0.put_u8(u8::from(from_cache));
        self.0.put_bytes(body);
    }

    /// Appends a per-instance error.
    pub(crate) fn push_error(&mut self, msg: &str) {
        self.0.put_u8(0);
        self.0.put_blob(msg.as_bytes());
    }

    /// The finished payload.
    pub(crate) fn finish(self) -> Vec<u8> {
        self.0.into_bytes()
    }
}

/// Builds an `Ok` response payload directly from pre-encoded per-instance
/// results (`(from_cache, body_bytes)` with `body` from
/// [`encode_solved_body`], or an error message) — the server-side fast path
/// that avoids re-encoding cached bodies.
pub fn encode_solve_response_raw(results: &[Result<(bool, Vec<u8>), String>]) -> Vec<u8> {
    let mut w = OkResponse::new(results.len());
    for res in results {
        match res {
            Err(msg) => w.push_error(msg),
            Ok((from_cache, body)) => w.push_solved(*from_cache, body),
        }
    }
    w.finish()
}

/// Decodes a solve response body (header already consumed).
pub fn decode_solve_response(r: &mut ByteReader<'_>) -> Result<SolveResponse, WireError> {
    let status = r.get_u8()?;
    match status {
        0 => {
            let count = r.get_u32()? as usize;
            let mut results = Vec::new();
            for _ in 0..count {
                let tag = r.get_u8()?;
                results.push(match tag {
                    0 => InstanceResult::Error(String::from_utf8_lossy(r.get_blob()?).into_owned()),
                    1 => {
                        let from_cache = r.get_u8()? != 0;
                        InstanceResult::Solved(decode_solved_body(r, from_cache)?)
                    }
                    other => return Err(WireError::Invalid(format!("bad result tag {other}"))),
                });
            }
            Ok(SolveResponse::Ok(results))
        }
        1 => Ok(SolveResponse::Busy { retry_after_ms: r.get_u32()?, queue_len: r.get_u32()? }),
        2 => Ok(SolveResponse::Malformed(String::from_utf8_lossy(r.get_blob()?).into_owned())),
        3 => Ok(SolveResponse::Unsupported(String::from_utf8_lossy(r.get_blob()?).into_owned())),
        other => Err(WireError::Invalid(format!("bad response status {other}"))),
    }
}

/// Encodes a stats request payload.
pub fn encode_stats_request() -> Vec<u8> {
    header(MSG_STATS_REQUEST).into_bytes()
}

/// Encodes a stats response payload.
pub fn encode_stats_response(s: &StatsSnapshot) -> Vec<u8> {
    let mut w = header(MSG_STATS_RESPONSE);
    for v in [
        s.served_ok,
        s.rejected_busy,
        s.malformed,
        s.exec_errors,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.cache_len,
        s.queue_len,
        s.workers,
        s.shed_conns,
    ] {
        w.put_u64(v);
    }
    w.into_bytes()
}

/// Decodes a stats response body (header already consumed).
pub fn decode_stats_response(r: &mut ByteReader<'_>) -> Result<StatsSnapshot, WireError> {
    let mut vals = [0u64; 11];
    for v in vals.iter_mut() {
        *v = r.get_u64()?;
    }
    Ok(StatsSnapshot {
        served_ok: vals[0],
        rejected_busy: vals[1],
        malformed: vals[2],
        exec_errors: vals[3],
        cache_hits: vals[4],
        cache_misses: vals[5],
        cache_evictions: vals[6],
        cache_len: vals[7],
        queue_len: vals[8],
        workers: vals[9],
        shed_conns: vals[10],
    })
}

/// Encodes a metrics request payload.
pub fn encode_metrics_request() -> Vec<u8> {
    header(MSG_METRICS_REQUEST).into_bytes()
}

/// Encodes a metrics response payload from a registry snapshot: a
/// self-describing, versioned key/value frame (see the module docs for the
/// layout). Histograms travel as their non-empty log₂ buckets.
pub fn encode_metrics_response(snap: &anonet_obs::Snapshot) -> Vec<u8> {
    let mut w = header(MSG_METRICS_RESPONSE);
    w.put_bytes(&METRICS_SCHEMA_VERSION.to_le_bytes());
    w.put_u32(snap.entries.len() as u32);
    for (name, value) in &snap.entries {
        w.put_blob(name.as_bytes());
        match value {
            anonet_obs::MetricValue::Counter(v) => {
                w.put_u8(0);
                w.put_u64(*v);
            }
            anonet_obs::MetricValue::Gauge(v) => {
                w.put_u8(1);
                w.put_u64(*v);
            }
            anonet_obs::MetricValue::Histo(h) => {
                w.put_u8(2);
                w.put_u64(h.count);
                w.put_u64(h.sum);
                w.put_u64(h.max);
                let nonzero = h.buckets.iter().filter(|&&c| c != 0).count();
                w.put_bytes(&(nonzero as u16).to_le_bytes());
                for (idx, &c) in h.buckets.iter().enumerate() {
                    if c != 0 {
                        w.put_u8(idx as u8);
                        w.put_u64(c);
                    }
                }
            }
        }
    }
    w.into_bytes()
}

/// Decodes a metrics response body (header already consumed).
pub fn decode_metrics_response(r: &mut ByteReader<'_>) -> Result<anonet_obs::Snapshot, WireError> {
    let lo = r.get_u8()?;
    let hi = r.get_u8()?;
    let schema = u16::from_le_bytes([lo, hi]);
    if schema != METRICS_SCHEMA_VERSION {
        return Err(WireError::Invalid(format!("unsupported metrics schema {schema}")));
    }
    let count = r.get_u32()? as usize;
    if count > MAX_METRICS {
        return Err(WireError::Invalid(format!("metric count {count} exceeds MAX_METRICS")));
    }
    let mut entries = Vec::new();
    for _ in 0..count {
        let name = String::from_utf8_lossy(r.get_blob()?).into_owned();
        let kind = r.get_u8()?;
        let value = match kind {
            0 => anonet_obs::MetricValue::Counter(r.get_u64()?),
            1 => anonet_obs::MetricValue::Gauge(r.get_u64()?),
            2 => {
                let mut h = anonet_obs::HistoSnapshot {
                    count: r.get_u64()?,
                    sum: r.get_u64()?,
                    max: r.get_u64()?,
                    ..anonet_obs::HistoSnapshot::default()
                };
                let lo = r.get_u8()?;
                let hi = r.get_u8()?;
                let nbuckets = u16::from_le_bytes([lo, hi]) as usize;
                if nbuckets > anonet_obs::NUM_BUCKETS {
                    return Err(WireError::Invalid(format!("{nbuckets} histogram buckets")));
                }
                for _ in 0..nbuckets {
                    let idx = r.get_u8()? as usize;
                    let c = r.get_u64()?;
                    if idx >= anonet_obs::NUM_BUCKETS {
                        return Err(WireError::Invalid(format!("bucket index {idx}")));
                    }
                    // lint: allow(panic-path) — `idx` is range-checked against NUM_BUCKETS on the line above
                    h.buckets[idx] = c;
                }
                anonet_obs::MetricValue::Histo(Box::new(h))
            }
            other => return Err(WireError::Invalid(format!("bad metric kind {other}"))),
        };
        entries.push((name, value));
    }
    Ok(anonet_obs::Snapshot { entries })
}

/// Encodes a debug dump request payload.
pub fn encode_debug_dump_request() -> Vec<u8> {
    header(MSG_DEBUG_DUMP_REQUEST).into_bytes()
}

/// Encodes a debug dump response: the flight-recorder JSON document as one
/// blob. The document is self-describing; the wire adds only framing.
pub fn encode_debug_dump_response(json: &str) -> Vec<u8> {
    let mut w = header(MSG_DEBUG_DUMP_RESPONSE);
    w.put_blob(json.as_bytes());
    w.into_bytes()
}

/// Decodes a debug dump response body (header already consumed).
pub fn decode_debug_dump_response(r: &mut ByteReader<'_>) -> Result<String, WireError> {
    Ok(String::from_utf8_lossy(r.get_blob()?).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn frame_rejects_absurd_length() {
        let buf = (u32::MAX).to_le_bytes().to_vec();
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn frame_rejects_truncated_payload() {
        // The prefix promises more bytes than the peer ever sends.
        let mut buf = 10u32.to_le_bytes().to_vec();
        buf.extend_from_slice(b"short");
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn frame_distinguishes_clean_close_from_torn_prefix() {
        // Zero bytes: clean close at a frame boundary.
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
        // A partial length prefix is a torn connection, not a clean close.
        let buf = [7u8, 0];
        assert_eq!(read_frame(&mut &buf[..]).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A writer that records every call made on it and accepts everything.
    #[derive(Default)]
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                self.bytes.extend_from_slice(b);
                n += b.len();
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_is_written_with_one_call() {
        for payload in [&b""[..], b"hello", &[7u8; 70_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.calls, 1, "{}-byte payload", payload.len());
            let mut want = (payload.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(payload);
            assert_eq!(w.bytes, want);
        }
    }

    /// A writer that takes at most `limit` bytes per call, across buffers:
    /// `write_frame` must finish a short write from where it stopped.
    struct TrickleWriter {
        limit: usize,
        bytes: Vec<u8>,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let start = self.bytes.len();
            for b in bufs {
                let room = self.limit - (self.bytes.len() - start);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_write_resumes_after_short_writes() {
        // 3 stops inside the prefix, 6 inside the payload.
        for limit in [3, 6] {
            let mut w = TrickleWriter { limit, bytes: Vec::new() };
            write_frame(&mut w, b"hello, world").unwrap();
            assert_eq!(read_frame(&mut &w.bytes[..]).unwrap().unwrap(), b"hello, world");
        }
    }

    /// A reader that hands out everything it holds on each call and counts
    /// the calls, like a socket whose whole frame has already arrived.
    struct CountingReader<'a> {
        calls: usize,
        data: &'a [u8],
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.data.read(buf)
        }
    }

    #[test]
    fn frame_is_read_with_presized_calls() {
        for (len, max_calls) in [(1_195, 2), (70_000, 4)] {
            let mut framed = Vec::new();
            write_frame(&mut framed, &vec![5u8; len]).unwrap();
            let mut r = CountingReader { calls: 0, data: &framed };
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![5u8; len]);
            assert!(r.calls <= max_calls, "{len}-byte payload took {} reads", r.calls);
        }
    }

    #[test]
    fn request_rejects_hostile_instance_count() {
        // Tiny blobs amplify ~5× into per-instance response records; an
        // uncapped count would let a legal request force an unframeable
        // (> MAX_FRAME) response.
        let req = SolveRequest::new(SolverId::VC_PN, vec![Vec::new(); MAX_INSTANCES + 1]);
        let payload = encode_solve_request(&req);
        let mut r = ByteReader::new(&payload);
        read_header(&mut r).unwrap();
        assert!(matches!(decode_solve_request(&mut r), Err(WireError::Invalid(_))));
    }

    #[test]
    fn solved_body_rejects_hostile_cover_length() {
        // A peer declaring ~2^31 cover entries (each costing only ⅛ payload
        // byte) must not force a multi-GiB client-side allocation.
        let mut w = ByteWriter::new();
        w.put_u32(MAX_FRAME as u32 + 1);
        let body = w.into_bytes();
        let mut r = ByteReader::new(&body);
        assert!(matches!(decode_solved_body(&mut r, false), Err(WireError::Invalid(_))));
    }

    #[test]
    fn solve_request_roundtrip() {
        let req = SolveRequest::new(SolverId::SET_COVER, vec![vec![1, 2, 3], vec![4]])
            .with_scenario(Scenario::Wan, 99)
            .no_cache();
        let payload = encode_solve_request(&req);
        let mut r = ByteReader::new(&payload);
        assert_eq!(read_header(&mut r).unwrap(), MSG_SOLVE_REQUEST);
        let dec = decode_solve_request(&mut r).unwrap();
        assert_eq!(dec.solver, SolverId::SET_COVER);
        assert_eq!(dec.mode, ExecMode::Async(Scenario::Wan, 99));
        assert_eq!(dec.flags, FLAG_NO_CACHE);
        assert_eq!(dec.instances, req.instances);
    }

    #[test]
    fn cache_key_separates_mode_and_blob() {
        let blob = vec![7u8; 16];
        let sync = SolveRequest::new(SolverId::VC_PN, vec![blob.clone()]);
        let asy = SolveRequest::new(SolverId::VC_PN, vec![blob.clone()])
            .with_scenario(Scenario::Ideal, 1);
        let asy2 = SolveRequest::new(SolverId::VC_PN, vec![blob.clone()])
            .with_scenario(Scenario::Ideal, 2);
        let other = SolveRequest::new(SolverId::VC_BCAST, vec![blob]);
        assert_ne!(sync.cache_key(0), asy.cache_key(0));
        assert_ne!(asy.cache_key(0), asy2.cache_key(0));
        assert_ne!(sync.cache_key(0), other.cache_key(0));
    }

    #[test]
    fn solve_response_roundtrip() {
        let cert =
            Certificate { cover_weight: 10, dual_value: BigRat::from_frac(21, 4), factor: 2 };
        let trace = WireTrace { rounds: 7, messages: 10, bits: 80, ..WireTrace::default() };
        let cover = vec![true, false, true, true, false, false, false, false, true];
        let resp = SolveResponse::Ok(vec![
            InstanceResult::Solved(Solved {
                from_cache: true,
                cover: cover.clone(),
                certificate: cert.clone(),
                trace: trace.clone(),
            }),
            InstanceResult::Error("nope".into()),
        ]);
        let payload = encode_solve_response(&resp);
        // The same bytes as the server's pre-encoded-body path.
        let raw = encode_solve_response_raw(&[
            Ok((true, encode_solved_body(&cover, &cert, &trace))),
            Err("nope".into()),
        ]);
        assert_eq!(payload, raw);
        let mut r = ByteReader::new(&payload);
        assert_eq!(read_header(&mut r).unwrap(), MSG_SOLVE_RESPONSE);
        match decode_solve_response(&mut r).unwrap() {
            SolveResponse::Ok(results) => {
                match &results[0] {
                    InstanceResult::Solved(s) => {
                        assert!(s.from_cache);
                        assert_eq!(
                            s.cover,
                            vec![true, false, true, true, false, false, false, false, true]
                        );
                        assert_eq!(s.certificate.dual_value, cert.dual_value);
                        assert_eq!(s.trace, trace);
                    }
                    other => panic!("expected solved, got {other:?}"),
                }
                assert!(matches!(&results[1], InstanceResult::Error(m) if m == "nope"));
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn busy_and_error_responses_roundtrip() {
        for resp in [
            SolveResponse::Busy { retry_after_ms: 50, queue_len: 9 },
            SolveResponse::Malformed("bad".into()),
            SolveResponse::Unsupported("no".into()),
        ] {
            let payload = encode_solve_response(&resp);
            let mut r = ByteReader::new(&payload);
            read_header(&mut r).unwrap();
            let dec = decode_solve_response(&mut r).unwrap();
            match (&resp, &dec) {
                (
                    SolveResponse::Busy { retry_after_ms: a, queue_len: b },
                    SolveResponse::Busy { retry_after_ms: c, queue_len: d },
                ) => assert_eq!((a, b), (c, d)),
                (SolveResponse::Malformed(a), SolveResponse::Malformed(b)) => assert_eq!(a, b),
                (SolveResponse::Unsupported(a), SolveResponse::Unsupported(b)) => {
                    assert_eq!(a, b)
                }
                other => panic!("mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn stats_roundtrip() {
        let s = StatsSnapshot {
            served_ok: 1,
            rejected_busy: 2,
            malformed: 3,
            exec_errors: 4,
            cache_hits: 5,
            cache_misses: 6,
            cache_evictions: 7,
            cache_len: 8,
            queue_len: 9,
            workers: 10,
            shed_conns: 11,
        };
        let payload = encode_stats_response(&s);
        let mut r = ByteReader::new(&payload);
        assert_eq!(read_header(&mut r).unwrap(), MSG_STATS_RESPONSE);
        assert_eq!(decode_stats_response(&mut r).unwrap(), s);
    }

    #[test]
    fn legacy_stats_bytes_are_pinned() {
        // Old clients parse msg 4 as a fixed 11 × u64 body with no count
        // prefix. This test pins the exact bytes so the legacy frame can
        // never drift while the metrics frame evolves. If it fails, a new
        // field leaked into the legacy message — put it in msg 6 instead.
        let s = StatsSnapshot {
            served_ok: 1,
            rejected_busy: 2,
            malformed: 3,
            exec_errors: 4,
            cache_hits: 5,
            cache_misses: 6,
            cache_evictions: 7,
            cache_len: 8,
            queue_len: 9,
            workers: 10,
            shed_conns: 0x1122334455667788,
        };
        let mut expected = Vec::new();
        expected.extend_from_slice(b"ANSV"); // magic
        expected.extend_from_slice(&1u16.to_le_bytes()); // version
        expected.push(MSG_STATS_RESPONSE);
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0x1122334455667788] {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(encode_stats_response(&s), expected);
        assert_eq!(expected.len(), 4 + 2 + 1 + 11 * 8);
    }

    #[test]
    fn metrics_frame_roundtrip() {
        let reg = anonet_obs::Registry::new();
        reg.counter("served_ok").add(42);
        reg.gauge("queue_len").set(3);
        let h = reg.histo("phase.solve_us");
        for v in [0u64, 1, 5, 5, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let payload = encode_metrics_response(&snap);
        let mut r = ByteReader::new(&payload);
        assert_eq!(read_header(&mut r).unwrap(), MSG_METRICS_RESPONSE);
        let dec = decode_metrics_response(&mut r).unwrap();
        assert_eq!(dec, snap);
        assert_eq!(dec.scalar("served_ok"), Some(42));
        let histo = dec.histo("phase.solve_us").unwrap();
        assert_eq!(histo.count, 6);
        assert_eq!(histo.max, u64::MAX);
    }

    #[test]
    fn metrics_frame_rejects_hostile_counts() {
        // Hostile entry count.
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_bytes(&VERSION.to_le_bytes());
        w.put_u8(MSG_METRICS_RESPONSE);
        w.put_bytes(&METRICS_SCHEMA_VERSION.to_le_bytes());
        w.put_u32(u32::MAX);
        let payload = w.into_bytes();
        let mut r = ByteReader::new(&payload);
        read_header(&mut r).unwrap();
        assert!(matches!(decode_metrics_response(&mut r), Err(WireError::Invalid(_))));

        // Out-of-range bucket index.
        let mut w = header(MSG_METRICS_RESPONSE);
        w.put_bytes(&METRICS_SCHEMA_VERSION.to_le_bytes());
        w.put_u32(1);
        w.put_blob(b"h");
        w.put_u8(2); // histo
        w.put_u64(1); // count
        w.put_u64(1); // sum
        w.put_u64(1); // max
        w.put_bytes(&1u16.to_le_bytes()); // nbuckets
        w.put_u8(200); // bucket index past NUM_BUCKETS
        w.put_u64(1);
        let payload = w.into_bytes();
        let mut r = ByteReader::new(&payload);
        read_header(&mut r).unwrap();
        assert!(matches!(decode_metrics_response(&mut r), Err(WireError::Invalid(_))));
    }

    #[test]
    fn metrics_frame_rejects_unknown_schema() {
        let mut w = header(MSG_METRICS_RESPONSE);
        w.put_bytes(&(METRICS_SCHEMA_VERSION + 1).to_le_bytes());
        w.put_u32(0);
        let payload = w.into_bytes();
        let mut r = ByteReader::new(&payload);
        read_header(&mut r).unwrap();
        assert!(matches!(decode_metrics_response(&mut r), Err(WireError::Invalid(_))));
    }

    #[test]
    fn debug_dump_roundtrip() {
        let doc = "{\"schema\":\"anonet-flight/1\",\"records\":[]}";
        let payload = encode_debug_dump_response(doc);
        let mut r = ByteReader::new(&payload);
        assert_eq!(read_header(&mut r).unwrap(), MSG_DEBUG_DUMP_RESPONSE);
        assert_eq!(decode_debug_dump_response(&mut r).unwrap(), doc);
    }

    #[test]
    fn header_rejects_garbage() {
        let mut r = ByteReader::new(b"XXXX\x01\x00\x01");
        assert_eq!(read_header(&mut r).unwrap_err(), WireError::BadMagic);
        let mut r = ByteReader::new(b"ANSV\x63\x00\x01");
        assert_eq!(read_header(&mut r).unwrap_err(), WireError::BadVersion(0x63));
        let mut r = ByteReader::new(b"ANSV");
        assert_eq!(read_header(&mut r).unwrap_err(), WireError::Truncated);
    }
}
