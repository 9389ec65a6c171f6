//! Load generation: synthesize request streams from `anonet-gen` families
//! and drive a server open- or closed-loop, reporting **goodput** (solved
//! requests/s) and **offered rate** (all round-trips/s) separately, plus
//! latency percentiles over solved requests only.
//!
//! One driver thread multiplexes [`DriveConfig::conns`] persistent
//! nonblocking connections over epoll — the client-side twin of the
//! server's reactor model, cheap enough to hold 10k connections from one
//! process. Each connection keeps up to [`DriveConfig::depth`] requests in
//! flight, and a request goes out, once due, on the next connection with a
//! free slot.
//!
//! * **Closed loop**: every request is due at once, so each reply frees a
//!   slot for the next request — this measures capacity. At depth 1 it is
//!   the classic closed loop of `conns` clients. Latency runs from the
//!   instant a request is enqueued on its connection. A `Busy` reply holds
//!   that connection's next send for the reply's `retry_after_ms`.
//! * **Open loop**: request `i` is due at `start + i / rate`, and latency
//!   runs from that due time, so time spent waiting for a free slot is
//!   charged to the request as well as queueing at the server (no
//!   coordinated omission). The driver sleeps in `epoll_wait`, whose
//!   timeout is in whole milliseconds, so a request may leave up to 1 ms
//!   after it is due, and that lateness counts too. There is no backoff: a
//!   pause would shift every later due time.
//!
//! Requests cycle through a pool of `instances` distinct canonical blobs;
//! choosing `requests > instances` exercises the server's result cache.

use crate::client::{connect_retry, decode_reply};
use crate::portfolio::{InstanceKind, SolverId};
use crate::wire::{self, InstanceResult, Scenario, SolveRequest, SolveResponse};
use anonet_core::canon;
use anonet_gen::{family, setcover, WeightSpec};
use anonet_net::epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use anonet_net::{FrameFsm, WriteQueue};
use anonet_obs::{Histo, HistoSnapshot, MetricValue, Snapshot};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io;
use std::iter::repeat;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Graph family a workload draws from.
#[derive(Clone, Copy, Debug)]
pub enum FamilyKind {
    /// `family::cycle(n)` (Δ = 2).
    Cycle,
    /// `family::random_regular(n, degree, seed)`.
    Regular,
    /// `family::gnp_capped(n, 8/n, degree, seed)`.
    Gnp,
    /// `family::random_tree(n, degree, seed)`.
    Tree,
}

/// What instances to synthesize.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Registered solver every request goes to. Its descriptor's
    /// [`InstanceKind`] picks the encoding, and an unweighted solver forces
    /// unit weights regardless of [`WorkloadSpec::weights`] — the generator
    /// must synthesize instances the solver's capability flags accept.
    pub solver: SolverId,
    /// Graph family (ignored for set cover, which uses `random_bounded`).
    pub family: FamilyKind,
    /// Nodes per instance (elements, for set cover).
    pub n: usize,
    /// Degree parameter (subset size bound k, for set cover).
    pub degree: usize,
    /// Number of distinct instances in the pool.
    pub instances: usize,
    /// Weight regime.
    pub weights: WeightSpec,
    /// Base seed; instance `i` uses `seed + i`.
    pub seed: u64,
}

/// Synthesizes the pool of canonical instance blobs for `spec`.
pub fn synthesize(spec: &WorkloadSpec) -> Vec<Vec<u8>> {
    let desc = spec.solver.descriptor();
    (0..spec.instances)
        .map(|i| {
            let seed = spec.seed.wrapping_add(i as u64);
            match desc.input {
                InstanceKind::VertexCover => {
                    let n = spec.n.max(2);
                    let g = match spec.family {
                        FamilyKind::Cycle => family::cycle(n.max(3)),
                        FamilyKind::Regular => {
                            // Clamp to a feasible regular degree, then fix the
                            // n·d parity (d may legitimately drop to 0: an
                            // edgeless graph, not a panic).
                            let mut d = spec.degree.min(n - 1);
                            if (n * d) % 2 == 1 {
                                d -= 1;
                            }
                            family::random_regular(n, d, seed)
                        }
                        FamilyKind::Gnp => {
                            family::gnp_capped(n, 8.0 / n as f64, spec.degree.max(1), seed)
                        }
                        FamilyKind::Tree => family::random_tree(n, spec.degree.max(2), seed),
                    };
                    let weights =
                        if desc.weighted { spec.weights } else { anonet_gen::WeightSpec::Unit };
                    let w = weights.draw_many(g.n(), seed ^ 0xC0DE);
                    let delta = g.max_degree().max(1);
                    let max_w = weights.max_weight().max(1);
                    canon::encode_vc(&g, &w, delta, max_w)
                }
                InstanceKind::SetCover => {
                    let f = 2;
                    let k = spec.degree.max(2);
                    let n_subsets = spec.n.div_ceil(k).max(1) * 2;
                    let inst =
                        setcover::random_bounded(spec.n, n_subsets, f, k, spec.weights, seed);
                    canon::encode_sc(
                        &inst,
                        inst.f().max(1),
                        inst.k().max(1),
                        inst.max_weight().max(1),
                    )
                }
            }
        })
        .collect()
}

/// Arrival discipline.
#[derive(Clone, Copy, Debug)]
pub enum LoopMode {
    /// Each reply frees its slot for the next request; latency runs from
    /// enqueue.
    Closed,
    /// Fixed-rate schedule (requests per second across all connections);
    /// latency runs from each request's due time.
    Open {
        /// Target request rate per second.
        rate: f64,
    },
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriveConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Connections, all multiplexed on the one driver thread.
    pub conns: usize,
    /// Requests each connection keeps in flight (pipelined). `1` is the
    /// classic closed loop (`loadgen --concurrency`); `loadgen --conns`
    /// uses [`PIPELINE_DEPTH`].
    pub depth: usize,
    /// Total requests to issue (at least one per connection).
    pub requests: usize,
    /// Instances per request (batched when > 1).
    pub batch: usize,
    /// Arrival discipline.
    pub mode: LoopMode,
    /// Bypass the server's result cache.
    pub no_cache: bool,
    /// Async scenario to request (None = sync).
    pub scenario: Option<(Scenario, u64)>,
    /// Give up on connecting after this long.
    pub connect_timeout: Duration,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            addr: "127.0.0.1:7411".into(),
            conns: 2,
            depth: 1,
            requests: 64,
            batch: 1,
            mode: LoopMode::Closed,
            no_cache: false,
            scenario: None,
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// What one drive run observed.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Requests answered `Ok` with every instance solved.
    pub ok: u64,
    /// Requests rejected with `Busy`.
    pub busy: u64,
    /// Requests that failed: answered with per-instance or protocol errors,
    /// or never answered because their connection dropped mid-run
    /// ([`Report::dropped_requests`] of them).
    pub errors: u64,
    /// Connections that closed or failed before all of their requests were
    /// answered.
    pub dropped_conns: u64,
    /// Requests left unanswered on those connections, or never sent because
    /// every connection had dropped; included in [`Report::errors`].
    pub dropped_requests: u64,
    /// Solved instances served from the server's cache (`from_cache` flag).
    pub cached_instances: u64,
    /// Solved instances total.
    pub solved_instances: u64,
    /// Solved instances whose certificate bound checked out at the edge.
    pub certified_instances: u64,
    /// Wall-clock of the whole drive.
    pub elapsed: Duration,
    /// Latency histogram (microseconds) of **fully solved (`ok`) requests
    /// only**. `Busy` rejections and error responses are excluded so the
    /// percentiles describe solved requests — a server shedding 90% of its
    /// load with instant `Busy` replies can no longer advertise a
    /// spectacular p99. A log₂ `anonet-obs` histogram rather than a sample
    /// vector, so an open-loop soak run's memory stays constant; quantiles
    /// are exact at bucket granularity (within 2× above the true value,
    /// `max` exact).
    pub latency_us: HistoSnapshot,
}

impl Report {
    /// **Goodput**: fully solved (`ok`) requests per second — the number
    /// that means "work done". `Busy` rejections and errors don't count.
    pub fn goodput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ok as f64 / secs
        } else {
            0.0
        }
    }

    /// **Offered rate**: every round-trip driven per second (`ok + busy +
    /// errors`) — how hard the generator actually pushed. The gap between
    /// this and [`Report::goodput`] is the shed/failed fraction.
    pub fn offered_rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            (self.ok + self.busy + self.errors) as f64 / secs
        } else {
            0.0
        }
    }

    /// The `q`-quantile latency (`0.0 ..= 1.0`) by nearest rank, at the
    /// histogram's bucket granularity (see [`Report::latency_us`]).
    pub fn percentile(&self, q: f64) -> Duration {
        Duration::from_micros(self.latency_us.quantile(q))
    }

    /// Observed cache-hit rate over solved instances.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.solved_instances > 0 {
            self.cached_instances as f64 / self.solved_instances as f64
        } else {
            0.0
        }
    }

    /// Failed requests that were answered with an error reply (as opposed
    /// to lost with a dropped connection).
    pub fn error_replies(&self) -> u64 {
        self.errors - self.dropped_requests
    }

    /// Human-readable one-block summary.
    pub fn render(&self) -> String {
        format!(
            "requests: ok {} busy {} err {} ({} error replies, {} unanswered on {} dropped connections) | goodput {:.1} req/s (offered {:.1}) | instances: {} solved, {} cached ({:.0}% hit), {} certified\nok-latency: p50 {:?} p90 {:?} p99 {:?} max {:?} | elapsed {:?}",
            self.ok,
            self.busy,
            self.errors,
            self.error_replies(),
            self.dropped_requests,
            self.dropped_conns,
            self.goodput(),
            self.offered_rate(),
            self.solved_instances,
            self.cached_instances,
            100.0 * self.cache_hit_rate(),
            self.certified_instances,
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
            Duration::from_micros(self.latency_us.max),
            self.elapsed,
        )
    }

    /// The report as an `anonet-obs` snapshot — the same key/value schema
    /// the server's metrics frame uses, so `loadgen --metrics-json` output
    /// and server-side metrics can be joined by one consumer
    /// (`perf_baseline` BENCH rows do exactly that).
    pub fn metrics_snapshot(&self) -> Snapshot {
        Snapshot {
            entries: vec![
                ("driven.busy".to_string(), MetricValue::Counter(self.busy)),
                ("driven.elapsed_us".to_string(), {
                    let us = self.elapsed.as_micros();
                    MetricValue::Gauge(u64::try_from(us).unwrap_or(u64::MAX))
                }),
                ("driven.dropped_conns".to_string(), MetricValue::Counter(self.dropped_conns)),
                (
                    "driven.dropped_requests".to_string(),
                    MetricValue::Counter(self.dropped_requests),
                ),
                ("driven.errors".to_string(), MetricValue::Counter(self.errors)),
                ("driven.ok".to_string(), MetricValue::Counter(self.ok)),
                ("instances.cached".to_string(), MetricValue::Counter(self.cached_instances)),
                ("instances.certified".to_string(), MetricValue::Counter(self.certified_instances)),
                ("instances.solved".to_string(), MetricValue::Counter(self.solved_instances)),
                (
                    "latency.ok_us".to_string(),
                    MetricValue::Histo(Box::new(self.latency_us.clone())),
                ),
            ],
        }
    }
}

/// Drives `cfg.requests` requests built from the blob pool against the
/// server, returning the aggregate report.
pub fn drive(solver: SolverId, blobs: &[Vec<u8>], cfg: &DriveConfig) -> io::Result<Report> {
    drive_mixed(&[(solver, blobs.to_vec())], cfg)
}

/// Requests one connection keeps in flight in the CLI's `--conns` mode.
/// Small enough that latency measures the server, deep enough that the wire
/// never goes idle between a reply and the next request.
pub const PIPELINE_DEPTH: usize = 4;

/// Request `i` of a drive: round-robin over the solver pools, then
/// `cfg.batch` consecutive entries of that solver's own pool (a request
/// carries exactly one solver).
fn request(pools: &[(SolverId, Vec<Vec<u8>>)], cfg: &DriveConfig, i: usize) -> SolveRequest {
    let (solver, blobs) = &pools[i % pools.len()];
    let instances =
        (0..cfg.batch).map(|j| blobs[(i * cfg.batch + j) % blobs.len()].clone()).collect();
    let mut req = SolveRequest::new(*solver, instances);
    if let Some((sc, seed)) = cfg.scenario {
        req = req.with_scenario(sc, seed);
    }
    if cfg.no_cache {
        req = req.no_cache();
    }
    req
}

/// The `depth` slots of each of `conns` connections, ordered so that the
/// first `first` (at least `conns`, at most `conns · depth`) spread evenly
/// with each connection's adjacent, and the rest follow round-robin.
fn slot_order(first: usize, conns: usize, depth: usize) -> VecDeque<usize> {
    let share = |c: usize| first / conns + usize::from(c < first % conns);
    (0..conns)
        .flat_map(|c| repeat(c).take(share(c)))
        .chain((0..depth).flat_map(|l| (0..conns).filter(move |&c| share(c) <= l)))
        .collect()
}

/// Tallies one reply frame into `report`, recording the latency from
/// `origin` if every instance was solved. Returns the backoff a `Busy`
/// reply asks for.
fn settle_reply(
    frame: &[u8],
    origin: Instant,
    report: &mut Report,
    latencies: &Histo,
) -> Option<Duration> {
    match decode_reply(frame, wire::MSG_SOLVE_RESPONSE, wire::decode_solve_response) {
        Ok(SolveResponse::Ok(results)) => {
            for res in &results {
                if let InstanceResult::Solved(sv) = res {
                    report.solved_instances += 1;
                    report.cached_instances += u64::from(sv.from_cache);
                    let certified = canon::certificate_bound_holds(&sv.certificate);
                    report.certified_instances += u64::from(certified);
                }
            }
            if results.iter().any(|res| matches!(res, InstanceResult::Error(_))) {
                report.errors += 1;
            } else {
                // Only solved round-trips enter the percentiles; Busy/error
                // replies would drag p99 toward the (cheap) rejection path
                // instead of the solve path.
                report.ok += 1;
                let us = origin.elapsed().as_micros();
                latencies.record(u64::try_from(us).unwrap_or(u64::MAX));
            }
        }
        Ok(SolveResponse::Busy { retry_after_ms, .. }) => {
            report.busy += 1;
            return Some(Duration::from_millis(u64::from(retry_after_ms)));
        }
        Ok(_) | Err(_) => report.errors += 1,
    }
    None
}

const BASE_INTEREST: u32 = EPOLLIN | EPOLLRDHUP;

/// One nonblocking driver connection.
struct Conn {
    sock: TcpStream,
    fsm: FrameFsm,
    wq: WriteQueue,
    /// Latency origins of the in-flight requests, oldest first (pipelined
    /// replies come back in order).
    origins: VecDeque<Instant>,
    /// Closed loop: no send before this instant (a `Busy` reply's backoff).
    not_before: Instant,
    interest: u32,
    dead: bool,
}

impl Conn {
    /// Writes what the socket takes, and asks for `EPOLLOUT` while bytes
    /// remain queued.
    fn flush(&mut self, ep: &Epoll, token: usize) -> io::Result<()> {
        while !self.wq.is_empty() {
            match self.wq.write_to(&mut (&self.sock)) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let want = BASE_INTEREST | if self.wq.is_empty() { 0 } else { EPOLLOUT };
        if want != self.interest {
            ep.modify(self.sock.as_raw_fd(), want, token as u64)?;
            self.interest = want;
        }
        Ok(())
    }

    /// Feeds every byte the socket holds to the framer. False on EOF, a
    /// read error or a malformed frame.
    fn fill(&mut self) -> bool {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match io::Read::read(&mut (&self.sock), &mut buf) {
                Ok(0) => return false,
                Ok(got) => {
                    if self.fsm.feed(&buf[..got]).is_err() {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

/// Drives a **mixed-portfolio** workload: request `i` round-robins the
/// per-solver pools (solver `pools[i % pools.len()]`, instances batched
/// from that solver's own blob pool), so one run exercises several
/// registered solvers' dispatch paths, per-solver telemetry counters, and
/// the solver byte in the result-cache key.
///
/// The run opens `cfg.conns` connections on this thread and sends request
/// `i`, once it is due, on the next connection with a free slot of the
/// `cfg.depth` it may keep in flight. Every connection issues at least one
/// request: asking for 10k conns but fewer requests silently means one
/// request per connection.
pub fn drive_mixed(pools: &[(SolverId, Vec<Vec<u8>>)], cfg: &DriveConfig) -> io::Result<Report> {
    assert!(!pools.is_empty(), "empty solver pool list");
    assert!(pools.iter().all(|(_, blobs)| !blobs.is_empty()), "empty instance pool");
    assert!(cfg.conns > 0 && cfg.depth > 0, "conns and depth must be at least 1");
    let rate = match cfg.mode {
        LoopMode::Closed => None,
        LoopMode::Open { rate } => Some(rate),
    };
    assert!(rate.map_or(true, |r| r.is_finite() && r > 0.0), "open-loop rate must be positive");
    let requests = cfg.requests.max(cfg.conns);

    let ep = Epoll::new()?;
    let mut cs: Vec<Conn> = Vec::with_capacity(cfg.conns);
    for i in 0..cfg.conns {
        let sock = connect_retry(cfg.addr.as_str(), cfg.connect_timeout)?;
        sock.set_nonblocking(true)?;
        ep.add(sock.as_raw_fd(), BASE_INTEREST, i as u64)?;
        cs.push(Conn {
            sock,
            fsm: FrameFsm::new(wire::MAX_FRAME),
            wq: WriteQueue::new(),
            origins: VecDeque::new(),
            not_before: Instant::now(),
            interest: BASE_INTEREST,
            dead: false,
        });
    }
    // One entry per free pipeline slot, in the order requests take them.
    // A closed loop's first pass sends at once: its slots come first, spread
    // evenly and adjacent per connection, so each writes its share in one
    // go. An open loop's requests come one at a time: round-robin. Either
    // way every connection issues a request. A slot whose connection is
    // backing off waits in `held`, keyed by the instant it may send again.
    let first = requests.min(cfg.conns.saturating_mul(if rate.is_some() { 1 } else { cfg.depth }));
    let mut free = slot_order(first, cfg.conns, cfg.depth);
    let mut held: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();

    let mut report = Report::default();
    let latencies = Histo::new();
    let start = Instant::now();
    let due = |i: usize| rate.map_or(start, |r| start + Duration::from_secs_f64(i as f64 / r));
    // Requests sent, and requests answered or charged as lost.
    let (mut issued, mut settled) = (0usize, 0usize);
    let mut open = cfg.conns;
    let mut evbuf = vec![EpollEvent::default(); 512];
    while settled < requests {
        let now = Instant::now();
        while let Some(&Reverse((at, idx))) = held.peek() {
            if at > now {
                break;
            }
            held.pop();
            free.push_back(idx);
        }
        // A connection's adjacent requests are written in one go; a hard
        // write error surfaces as EPOLLERR/EOF below.
        let mut writing: Option<usize> = None;
        while issued < requests && due(issued) <= now {
            let Some(idx) = free.pop_front() else { break };
            let c = &cs[idx];
            if c.dead {
                continue;
            }
            if c.not_before > now {
                held.push(Reverse((c.not_before, idx)));
                continue;
            }
            if let Some(w) = writing.filter(|&w| w != idx) {
                let _ = cs[w].flush(&ep, w);
            }
            writing = Some(idx);
            let payload = wire::encode_solve_request(&request(pools, cfg, issued));
            let c = &mut cs[idx];
            // Closed loop: latency from enqueue. Open loop: from the due
            // time, so waiting for a free slot is charged to the request
            // (no coordinated omission).
            c.origins.push_back(rate.map_or_else(Instant::now, |_| due(issued)));
            c.wq.push_frame(payload);
            issued += 1;
        }
        if let Some(w) = writing {
            let _ = cs[w].flush(&ep, w);
        }
        if open == 0 {
            // Every connection is gone: the requests never sent are lost.
            let lost = (requests - settled) as u64;
            report.dropped_requests += lost;
            report.errors += lost;
            break;
        }

        // Sleep until the next due request (if a slot is free for it), the
        // next backoff expiry, or readiness.
        let next_due = (issued < requests && !free.is_empty()).then(|| due(issued));
        let wake = held.peek().map(|Reverse((at, _))| *at).into_iter().chain(next_due).min();
        let timeout_ms = wake.map_or(1_000, |at| {
            at.saturating_duration_since(Instant::now()).as_micros().div_ceil(1_000).min(1_000)
        });
        let n = ep.wait(&mut evbuf, timeout_ms as i32)?;
        for ev in &evbuf[..n] {
            let (events, idx) = ({ ev.events }, { ev.data } as usize);
            let Some(c) = cs.get_mut(idx) else { continue };
            if c.dead {
                continue;
            }
            let mut dead = events & (EPOLLERR | EPOLLHUP) != 0;
            if events & (EPOLLIN | EPOLLRDHUP) != 0 {
                dead |= !c.fill();
                while let Some(frame) = c.fsm.next_frame() {
                    // A reply with no request in flight breaks the protocol.
                    let Some(origin) = c.origins.pop_front() else {
                        dead = true;
                        break;
                    };
                    let backoff = settle_reply(&frame, origin, &mut report, &latencies);
                    // The open loop's schedule paces requests: a backoff
                    // there would shift every later due time.
                    if let (Some(pause), None) = (backoff, rate) {
                        c.not_before = Instant::now() + pause;
                    }
                    settled += 1;
                    free.push_back(idx);
                }
            }
            if events & EPOLLOUT != 0 {
                dead |= c.flush(&ep, idx).is_err();
            }
            if dead {
                // A connection dropped mid-run charges its unanswered
                // requests as errors instead of hanging the drive, counted
                // apart from error replies.
                let lost = c.origins.len();
                report.dropped_conns += u64::from(lost > 0);
                report.dropped_requests += lost as u64;
                report.errors += lost as u64;
                settled += lost;
                let _ = ep.delete(c.sock.as_raw_fd());
                c.dead = true;
                open -= 1;
            }
        }
    }

    report.latency_us = latencies.snapshot();
    report.elapsed = start.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_order_spreads_the_first_pass_then_round_robins() {
        // A closed loop's first pass: 10 requests on 4 connections.
        let order: Vec<usize> = slot_order(10, 4, 4).into();
        assert_eq!(order, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 2, 3, 0, 1, 2, 3]);
        // An open loop: one request per connection, then round-robin.
        let order: Vec<usize> = slot_order(3, 3, 2).into();
        assert_eq!(order, [0, 1, 2, 0, 1, 2]);
        // Every slot is listed once, whatever the first pass takes.
        for first in 5..=15 {
            let order = slot_order(first, 5, 3);
            assert!((0..5).all(|c| order.iter().filter(|&&o| o == c).count() == 3), "{first}");
        }
    }

    #[test]
    fn synthesize_handles_degenerate_regular_parameters() {
        // Odd n × odd degree (and n = 1) used to panic inside
        // random_regular; the parity/bounds fix-up must make every
        // combination decodable instead.
        for (n, degree) in [(3, 1), (1, 1), (2, 5), (5, 3), (4, 0)] {
            let spec = WorkloadSpec {
                solver: SolverId::VC_PN,
                family: FamilyKind::Regular,
                n,
                degree,
                instances: 2,
                weights: anonet_gen::WeightSpec::Unit,
                seed: 9,
            };
            for blob in synthesize(&spec) {
                canon::decode_vc(&blob).unwrap_or_else(|e| panic!("n={n} d={degree}: {e}"));
            }
        }
    }

    #[test]
    fn synthesize_covers_every_family_and_problem() {
        for family in [FamilyKind::Cycle, FamilyKind::Regular, FamilyKind::Gnp, FamilyKind::Tree] {
            let spec = WorkloadSpec {
                solver: SolverId::VC_PN,
                family,
                n: 12,
                degree: 3,
                instances: 3,
                weights: anonet_gen::WeightSpec::Uniform(9),
                seed: 4,
            };
            for blob in synthesize(&spec) {
                canon::decode_vc(&blob).expect("valid VC blob");
            }
        }
        let spec = WorkloadSpec {
            solver: SolverId::SET_COVER,
            family: FamilyKind::Cycle,
            n: 10,
            degree: 3,
            instances: 3,
            weights: anonet_gen::WeightSpec::Uniform(5),
            seed: 4,
        };
        for blob in synthesize(&spec) {
            canon::decode_sc(&blob).expect("valid SC blob");
        }
    }
}
