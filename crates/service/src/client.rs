//! Client library: a blocking TCP connection speaking the service's wire
//! protocol, plus request-building conveniences over `anonet_core::canon`.

use crate::portfolio::{InstanceKind, SolverId};
use crate::wire::{
    self, SolveRequest, SolveResponse, StatsSnapshot, WireError, MSG_DEBUG_DUMP_RESPONSE,
    MSG_METRICS_RESPONSE, MSG_SOLVE_RESPONSE, MSG_STATS_RESPONSE,
};
use anonet_core::canon::{self, ByteReader};
use anonet_core::vc_pn::VcInstance;
use anonet_sim::SetCoverInstance;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A blocking client connection. One request is in flight at a time
/// (request/response protocol); open several clients for concurrency.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Connects, retrying until `timeout` elapses — for racing a freshly
    /// spawned server process (CI smoke jobs).
    pub fn connect_retry(addr: impl ToSocketAddrs + Copy, timeout: Duration) -> io::Result<Client> {
        Ok(Client { stream: connect_retry(addr, timeout)? })
    }

    /// Sends `payload` and decodes the reply, which must be a `want` frame.
    fn call<T>(&mut self, payload: &[u8], want: u8, decode: Decoder<T>) -> io::Result<T> {
        wire::write_frame(&mut self.stream, payload)?;
        let reply = wire::read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Ok(decode_reply(&reply, want, decode)?)
    }

    /// Sends a solve request and waits for the response.
    pub fn solve(&mut self, req: &SolveRequest) -> io::Result<SolveResponse> {
        self.call(&wire::encode_solve_request(req), MSG_SOLVE_RESPONSE, wire::decode_solve_response)
    }

    /// Fetches the server's statistics counters.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        self.call(&wire::encode_stats_request(), MSG_STATS_RESPONSE, wire::decode_stats_response)
    }

    /// Fetches the server's self-describing metrics snapshot (phase
    /// histograms, per-problem solve counters, legacy stats counters).
    pub fn metrics(&mut self) -> io::Result<anonet_obs::Snapshot> {
        self.call(
            &wire::encode_metrics_request(),
            MSG_METRICS_RESPONSE,
            wire::decode_metrics_response,
        )
    }

    /// Fetches the server's flight-recorder dump: the last N request
    /// records as a JSON document.
    pub fn debug_dump(&mut self) -> io::Result<String> {
        self.call(
            &wire::encode_debug_dump_request(),
            MSG_DEBUG_DUMP_RESPONSE,
            wire::decode_debug_dump_response,
        )
    }
}

/// Opens a `TCP_NODELAY` stream, retrying every 25 ms until `timeout`
/// elapses.
pub(crate) fn connect_retry(
    addr: impl ToSocketAddrs + Copy,
    timeout: Duration,
) -> io::Result<TcpStream> {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) if start.elapsed() >= timeout => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// A wire body decoder, as [`decode_reply`] takes it.
type Decoder<T> = fn(&mut ByteReader<'_>) -> Result<T, WireError>;

/// Decodes one reply frame, which must carry message type `want`.
pub(crate) fn decode_reply<T>(frame: &[u8], want: u8, decode: Decoder<T>) -> Result<T, WireError> {
    let mut r = ByteReader::new(frame);
    match wire::read_header(&mut r)? {
        t if t == want => decode(&mut r),
        t => Err(WireError::BadMessageType(t)),
    }
}

/// Builds a VC request for any registered vertex-cover solver
/// (e.g. [`SolverId::VC_PN`], [`SolverId::VC_PS3`]) from borrowed
/// instances, canonically encoding each.
pub fn vc_request(solver: SolverId, instances: &[VcInstance<'_>]) -> SolveRequest {
    assert!(solver.descriptor().input == InstanceKind::VertexCover, "use sc_request for set cover");
    let blobs = instances
        .iter()
        .map(|i| canon::encode_vc(i.graph, i.weights, i.delta, i.max_weight))
        .collect();
    SolveRequest::new(solver, blobs)
}

/// Builds a set-cover request from borrowed instances (bounds derived from
/// each instance), canonically encoding each.
pub fn sc_request(instances: &[&SetCoverInstance]) -> SolveRequest {
    let blobs = instances
        .iter()
        .map(|inst| {
            canon::encode_sc(inst, inst.f().max(1), inst.k().max(1), inst.max_weight().max(1))
        })
        .collect();
    SolveRequest::new(SolverId::SET_COVER, blobs)
}
