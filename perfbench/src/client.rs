//! The load generator: a closed loop over plain TCP connections (one
//! client thread each, `depth` pipelined requests in flight), with exact
//! per-request latency samples and, in traced mode, client spans around
//! every public call (`wire::encode_solve_request`, the wait for the reply,
//! `wire::decode_solve_response`, and the correctness gate). Meanwhile the
//! calling thread reads the machine's steal time once a second, for
//! [`Quiet`].

use crate::check::{self, Failure, Tally};
use crate::pipeline::Clock;
use crate::procfs;
use crate::spans::{SpanLog, ROOT};
use crate::stats::{self, Quiet};
use crate::workload::Stream;
use anonet_core::canon::ByteReader;
use anonet_service::wire;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How long a client waits for any one reply before counting a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What every loop needs: the request stream, the clock, and whether to
/// record spans.
pub struct Ctx<'a> {
    /// The seeded stream.
    pub stream: &'a Stream,
    /// Shared clock (span and latency stamps).
    pub clock: Clock,
    /// Record client spans.
    pub traced: bool,
}

/// One request in flight.
#[derive(Clone, Copy, Debug)]
struct Pending {
    pos: u64,
    tmpl: usize,
    t_enc0: u64,
    /// End of the encode, immediately before the frame is written.
    t_send: u64,
}

/// What one measurement window observed.
#[derive(Clone, Debug, Default)]
pub struct WindowOut {
    /// `(completion, latency)` of every request solved inside the window,
    /// nanoseconds.
    pub samples: Vec<(u64, u64)>,
    /// Outcomes of requests that completed inside the window.
    pub tally: Tally,
    /// Outcomes of requests drained after the window (correctness only).
    pub drained: Tally,
    /// Client spans (traced mode).
    pub spans: SpanLog,
    /// Window start on the clock, nanoseconds.
    pub start_ns: u64,
    /// Window length, nanoseconds.
    pub window_ns: u64,
    /// Machine steal time in each [`stats::SLICE_NS`] slice of the window,
    /// ms.
    pub steal_ms: Vec<u64>,
    /// Stream positions sent during the window: `first_pos..end_pos`.
    pub first_pos: u64,
    /// One past the last position sent.
    pub end_pos: u64,
}

impl WindowOut {
    fn merge(&mut self, o: WindowOut) {
        self.samples.extend(o.samples);
        self.tally.merge(&o.tally);
        self.drained.merge(&o.drained);
        self.spans.append(o.spans);
    }

    /// Throughput and latency over the window's quieter half.
    pub fn quiet(&self) -> Quiet {
        Quiet::of(&self.samples, self.start_ns, self.window_ns, &self.steal_ms)
    }
}

/// Opens `n` connections to `addr`.
pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))?;
            Ok(s)
        })
        .collect()
}

/// Sends one frame and reads one reply frame.
fn roundtrip(conn: &mut TcpStream, payload: &[u8]) -> io::Result<Vec<u8>> {
    wire::write_frame(conn, payload)?;
    wire::read_frame(conn)?.ok_or_else(|| io::Error::other("server closed the connection"))
}

/// The warm-up pass: each warm template once, in order, on one connection.
pub fn warm_up(stream: &Stream, conn: &mut TcpStream) -> Tally {
    let mut tally = Tally::default();
    for tmpl in stream.templates.iter().filter(|t| t.warm) {
        let outcome = match roundtrip(conn, &wire::encode_solve_request(&tmpl.req)) {
            Ok(reply) => check::decode_reply(&reply).and_then(|r| check::verify(&r, tmpl)),
            Err(_) => Err(Failure::Timeout),
        };
        tally.add(outcome);
    }
    tally
}

/// Fetches the server's metrics snapshot over `conn`.
pub fn metrics(conn: &mut TcpStream) -> io::Result<anonet_obs::Snapshot> {
    let reply = roundtrip(conn, &wire::encode_metrics_request())?;
    let mut r = ByteReader::new(&reply);
    match wire::read_header(&mut r)? {
        wire::MSG_METRICS_RESPONSE => Ok(wire::decode_metrics_response(&mut r)?),
        t => Err(wire::WireError::BadMessageType(t).into()),
    }
}

/// Decodes and verifies one reply, counts it, and logs its spans.
fn settle(
    ctx: &Ctx<'_>,
    p: &Pending,
    reply: Option<&[u8]>,
    t_recv: u64,
    deadline: u64,
    out: &mut WindowOut,
) {
    let tmpl = &ctx.stream.templates[p.tmpl];
    let (outcome, t_dec, t_ver) = match reply {
        None => (Err(Failure::Timeout), t_recv, t_recv),
        Some(payload) => {
            let resp = check::decode_reply(payload);
            let t_dec = ctx.clock.now();
            let outcome = resp.and_then(|r| check::verify(&r, tmpl));
            (outcome, t_dec, ctx.clock.now())
        }
    };
    if t_dec <= deadline {
        if outcome.is_ok() {
            out.samples.push((t_dec, t_dec - p.t_send));
        }
        out.tally.add(outcome);
    } else {
        out.drained.add(outcome);
    }
    if ctx.traced {
        let log = &mut out.spans;
        let root = log.push(p.pos, "client.request", "", ROOT, p.t_enc0, t_ver);
        log.push(p.pos, "client.encode_request", "", root, p.t_enc0, p.t_send);
        log.push(p.pos, "client.wait", "", root, p.t_send, t_recv);
        log.push(p.pos, "client.decode_response", "", root, t_recv, t_dec);
        log.push(p.pos, "client.verify", "", root, t_dec, t_ver);
    }
}

/// Encodes the request at stream position `pos`, stamping the encode.
fn encode(ctx: &Ctx<'_>, pos: u64) -> (Pending, Vec<u8>) {
    let tmpl = ctx.stream.template_of(pos);
    let t_enc0 = ctx.clock.now();
    let payload = wire::encode_solve_request(&ctx.stream.templates[tmpl].req);
    (Pending { pos, tmpl, t_enc0, t_send: ctx.clock.now() }, payload)
}

/// A closed loop: every connection keeps `depth` requests in flight for
/// `window_ns`, then drains. Stream positions come from `counter`.
pub fn closed_window(
    ctx: &Ctx<'_>,
    conns: &mut [TcpStream],
    depth: usize,
    counter: &AtomicU64,
    window_ns: u64,
) -> WindowOut {
    let first_pos = counter.load(Ordering::SeqCst);
    let start_ns = ctx.clock.now();
    let deadline = start_ns + window_ns;
    // lint: allow(thread-discipline) — benchmark client threads (one per connection, at most nproc), not engine parallelism
    let (parts, steal_ms) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| s.spawn(move || closed_conn(ctx, conn, depth, counter, deadline)))
            .collect();
        // The calling thread reads the steal time while the clients run.
        let steal_ms = steal_per_slice(ctx, start_ns, window_ns);
        let parts: Vec<WindowOut> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (parts, steal_ms)
    });
    let mut out = WindowOut { start_ns, window_ns, steal_ms, first_pos, ..WindowOut::default() };
    for p in parts {
        out.merge(p);
    }
    out.end_pos = counter.load(Ordering::SeqCst);
    out
}

/// Machine steal time in each [`stats::SLICE_NS`] slice of the window that
/// starts at `start_ns`, read at every slice boundary, ms.
fn steal_per_slice(ctx: &Ctx<'_>, start_ns: u64, window_ns: u64) -> Vec<u64> {
    let mut last = procfs::steal_ms().unwrap_or(0);
    (1..=stats::slice_count(window_ns) as u64)
        .map(|i| {
            let end = start_ns + window_ns.min(i * stats::SLICE_NS);
            std::thread::sleep(Duration::from_nanos(end.saturating_sub(ctx.clock.now())));
            let now = procfs::steal_ms().unwrap_or(last);
            let d = now.saturating_sub(last);
            last = now;
            d
        })
        .collect()
}

fn closed_conn(
    ctx: &Ctx<'_>,
    conn: &mut TcpStream,
    depth: usize,
    counter: &AtomicU64,
    deadline: u64,
) -> WindowOut {
    let mut out = WindowOut::default();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(depth);
    let mut broken = false;
    loop {
        while !broken && inflight.len() < depth && ctx.clock.now() < deadline {
            let pos = counter.fetch_add(1, Ordering::Relaxed);
            let (p, payload) = encode(ctx, pos);
            if wire::write_frame(conn, &payload).is_err() {
                broken = true;
            }
            inflight.push_back(p);
        }
        let Some(p) = inflight.pop_front() else { break };
        let reply = if broken { None } else { wire::read_frame(conn).ok().flatten() };
        broken |= reply.is_none();
        settle(ctx, &p, reply.as_deref(), ctx.clock.now(), deadline, &mut out);
    }
    out
}
