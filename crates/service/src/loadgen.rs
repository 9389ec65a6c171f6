//! Load generation: synthesize request streams from `anonet-gen` families
//! and drive a server open- or closed-loop, reporting **goodput** (solved
//! requests/s) and **offered rate** (all round-trips/s) separately, plus
//! latency percentiles over solved requests only.
//!
//! * **Closed loop**: `concurrency` connections each issue the next request
//!   the moment the previous response lands — measures capacity.
//! * **Open loop**: requests are released on a fixed schedule (`rate`
//!   requests/second across the pool) and latency is measured from the
//!   *scheduled* release time, so queueing delay is charged to the server
//!   (no coordinated omission).
//!
//! Requests cycle through a pool of `instances` distinct canonical blobs;
//! choosing `requests > instances` exercises the server's result cache.

use crate::client::Client;
use crate::portfolio::{InstanceKind, SolverId};
use crate::wire::{InstanceResult, Scenario, SolveRequest, SolveResponse};
use anonet_core::canon;
use anonet_gen::{family, setcover, WeightSpec};
use anonet_obs::{Histo, HistoSnapshot, MetricValue, Snapshot};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
    /// Back-to-back requests per connection.
    Closed,
    /// Fixed-rate schedule (requests per second across the whole pool).
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
    /// Client connections (threads).
    pub concurrency: usize,
    /// Total requests to issue.
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
    /// Persistent-connection count for the epoll-multiplexed mode
    /// (`--conns`). `0` keeps the classic thread-per-client pool;
    /// `N > 0` opens `N` nonblocking connections on **one** driver thread,
    /// each pipelining up to [`PIPELINE_DEPTH`] requests — the client-side
    /// twin of the server's reactor model, cheap enough to hold 10k
    /// connections open from a single process.
    pub conns: usize,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            addr: "127.0.0.1:7411".into(),
            concurrency: 2,
            requests: 64,
            batch: 1,
            mode: LoopMode::Closed,
            no_cache: false,
            scenario: None,
            connect_timeout: Duration::from_secs(5),
            conns: 0,
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
    /// answered (connection-pool driver only).
    pub dropped_conns: u64,
    /// Requests left unanswered on those connections; included in
    /// [`Report::errors`].
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

/// Drives a **mixed-portfolio** workload: request `i` round-robins the
/// per-solver pools (solver `pools[i % pools.len()]`, instances batched
/// from that solver's own blob pool), so one run exercises several
/// registered solvers' dispatch paths, per-solver telemetry counters, and
/// the solver byte in the result-cache key.
pub fn drive_mixed(pools: &[(SolverId, Vec<Vec<u8>>)], cfg: &DriveConfig) -> io::Result<Report> {
    assert!(!pools.is_empty(), "empty solver pool list");
    assert!(pools.iter().all(|(_, blobs)| !blobs.is_empty()), "empty instance pool");
    if let LoopMode::Open { rate } = cfg.mode {
        assert!(rate.is_finite() && rate > 0.0, "open-loop rate must be positive");
    }
    if cfg.conns > 0 {
        return drive_conns(pools, cfg);
    }
    let next = AtomicUsize::new(0);
    let agg: Mutex<Report> = Mutex::new(Report::default());
    let start = Instant::now();
    let threads = cfg.concurrency.max(1);
    let mut first_err: Option<io::Error> = None;
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let agg = &agg;
                s.spawn(move || -> io::Result<()> {
                    let mut client = Client::connect_retry(cfg.addr.as_str(), cfg.connect_timeout)?;
                    let mut local = Report::default();
                    let latencies = Histo::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cfg.requests {
                            break;
                        }
                        // Round-robin the solver pools, then batch
                        // `cfg.batch` consecutive entries of that solver's
                        // own pool (a request carries exactly one solver).
                        let (solver, blobs) = &pools[i % pools.len()];
                        let instances: Vec<Vec<u8>> = (0..cfg.batch)
                            .map(|j| blobs[(i * cfg.batch + j) % blobs.len()].clone())
                            .collect();
                        let mut req = SolveRequest::new(*solver, instances);
                        if let Some((sc, seed)) = cfg.scenario {
                            req = req.with_scenario(sc, seed);
                        }
                        if cfg.no_cache {
                            req = req.no_cache();
                        }
                        let scheduled = match cfg.mode {
                            LoopMode::Closed => Instant::now(),
                            LoopMode::Open { rate } => {
                                let at = start + Duration::from_secs_f64(i as f64 / rate);
                                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                at
                            }
                        };
                        let resp = client.solve(&req)?;
                        let rtt = scheduled.elapsed();
                        match resp {
                            SolveResponse::Ok(results) => {
                                let mut any_err = false;
                                for res in &results {
                                    match res {
                                        InstanceResult::Solved(sv) => {
                                            local.solved_instances += 1;
                                            local.cached_instances += u64::from(sv.from_cache);
                                            let certified =
                                                canon::certificate_bound_holds(&sv.certificate);
                                            local.certified_instances += u64::from(certified);
                                        }
                                        InstanceResult::Error(_) => any_err = true,
                                    }
                                }
                                if any_err {
                                    local.errors += 1;
                                } else {
                                    local.ok += 1;
                                    // Only solved round-trips enter the
                                    // percentiles; Busy/error replies would
                                    // drag p99 toward the (cheap) rejection
                                    // path instead of the solve path.
                                    let us = rtt.as_micros();
                                    latencies.record(u64::try_from(us).unwrap_or(u64::MAX));
                                }
                            }
                            SolveResponse::Busy { retry_after_ms, .. } => {
                                local.busy += 1;
                                // Closed loop: honour the backoff hint. Open
                                // loop: the schedule paces requests, and a
                                // sleep here would shift every later
                                // scheduled instant — re-introducing the
                                // coordinated omission the open loop avoids.
                                if matches!(cfg.mode, LoopMode::Closed) {
                                    std::thread::sleep(Duration::from_millis(
                                        retry_after_ms as u64,
                                    ));
                                }
                            }
                            SolveResponse::Malformed(_) | SolveResponse::Unsupported(_) => {
                                local.errors += 1;
                            }
                        }
                    }
                    // lint: allow(lock-hygiene) — scope-local aggregation, not service state: if a worker panicked the scope join below propagates it before the report is read, so recovery would hide the failure
                    let mut agg = agg.lock().expect("report poisoned");
                    agg.ok += local.ok;
                    agg.busy += local.busy;
                    agg.errors += local.errors;
                    agg.cached_instances += local.cached_instances;
                    agg.solved_instances += local.solved_instances;
                    agg.certified_instances += local.certified_instances;
                    // Merge order across threads doesn't matter: snapshot
                    // merge is associative and commutative.
                    agg.latency_us.merge(&latencies.snapshot());
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            if let Err(e) = h.join().expect("loadgen thread panicked") {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        Ok(())
    })?;
    if let Some(e) = first_err {
        return Err(e);
    }
    let mut report = agg.into_inner().expect("report poisoned");
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Requests one connection keeps in flight in the `--conns` pipelined mode.
/// Small enough that latency measures the server, deep enough that the wire
/// never goes idle between a reply and the next request.
pub const PIPELINE_DEPTH: usize = 4;

/// Connects with retry, like `Client::connect_retry`, but yielding the bare
/// socket for nonblocking use.
fn connect_raw(addr: &str, timeout: Duration) -> io::Result<std::net::TcpStream> {
    let start = Instant::now();
    loop {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if start.elapsed() >= timeout => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// The epoll-multiplexed driver behind [`DriveConfig::conns`]: `conns`
/// persistent nonblocking connections on one thread, each pipelining up to
/// [`PIPELINE_DEPTH`] requests. Latency is measured from the instant a
/// request enters the connection's write queue to the instant its reply
/// frame completes, so client-side pipelining delay is charged to the
/// request (no coordinated omission on the client's own queue). Every
/// connection issues at least one request: asking for 10k conns but fewer
/// requests silently means one request per connection.
fn drive_conns(pools: &[(SolverId, Vec<Vec<u8>>)], cfg: &DriveConfig) -> io::Result<Report> {
    use anonet_net::epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    use anonet_net::{FrameFsm, WriteQueue};
    use std::collections::VecDeque;
    use std::os::fd::AsRawFd;

    let conns = cfg.conns;
    let requests = cfg.requests.max(conns);

    // Pre-encode the request payloads the pool cycles through — encoding is
    // identical to the threaded driver's per-request construction: request
    // `i` round-robins the solver pools and batches within its own pool.
    // Cycle length covers every (solver, pool offset) combination.
    let longest = pools.iter().map(|(_, blobs)| blobs.len()).max().unwrap_or(1);
    let payloads: Vec<Vec<u8>> = (0..longest * pools.len())
        .map(|i| {
            let (solver, blobs) = &pools[i % pools.len()];
            let instances: Vec<Vec<u8>> =
                (0..cfg.batch).map(|j| blobs[(i * cfg.batch + j) % blobs.len()].clone()).collect();
            let mut req = SolveRequest::new(*solver, instances);
            if let Some((sc, seed)) = cfg.scenario {
                req = req.with_scenario(sc, seed);
            }
            if cfg.no_cache {
                req = req.no_cache();
            }
            crate::wire::encode_solve_request(&req)
        })
        .collect();

    struct Conn {
        sock: std::net::TcpStream,
        fsm: FrameFsm,
        wq: WriteQueue,
        /// Requests this connection must complete.
        assigned: usize,
        sent: usize,
        recvd: usize,
        /// Enqueue instants of in-flight requests, FIFO (pipelined replies
        /// come back in order).
        sent_at: VecDeque<Instant>,
        interest: u32,
        done: bool,
    }

    const BASE_INTEREST: u32 = EPOLLIN | EPOLLRDHUP;
    let ep = Epoll::new()?;
    let mut cs: Vec<Conn> = Vec::with_capacity(conns);
    for i in 0..conns {
        let sock = connect_raw(cfg.addr.as_str(), cfg.connect_timeout)?;
        sock.set_nodelay(true)?;
        sock.set_nonblocking(true)?;
        ep.add(sock.as_raw_fd(), BASE_INTEREST, i as u64)?;
        let assigned = requests / conns + usize::from(i < requests % conns);
        cs.push(Conn {
            sock,
            fsm: FrameFsm::new(crate::wire::MAX_FRAME),
            wq: WriteQueue::new(),
            assigned,
            sent: 0,
            recvd: 0,
            sent_at: VecDeque::new(),
            interest: BASE_INTEREST,
            done: false,
        });
    }

    let mut report = Report::default();
    let latencies = Histo::new();
    let start = Instant::now();
    let mut issued = 0usize;
    let mut open = conns;

    // Tallies one decoded reply frame into the report, mirroring the
    // threaded driver's per-response accounting (Busy backoff excepted:
    // pipelined connections never sleep).
    let settle_reply = |frame: &[u8], queued_at: Instant, report: &mut Report| {
        let resp = crate::client::decode_reply(
            frame,
            crate::wire::MSG_SOLVE_RESPONSE,
            crate::wire::decode_solve_response,
        );
        match resp {
            Ok(SolveResponse::Ok(results)) => {
                let mut any_err = false;
                for res in &results {
                    match res {
                        InstanceResult::Solved(sv) => {
                            report.solved_instances += 1;
                            report.cached_instances += u64::from(sv.from_cache);
                            let certified = canon::certificate_bound_holds(&sv.certificate);
                            report.certified_instances += u64::from(certified);
                        }
                        InstanceResult::Error(_) => any_err = true,
                    }
                }
                if any_err {
                    report.errors += 1;
                } else {
                    report.ok += 1;
                    let us = queued_at.elapsed().as_micros();
                    latencies.record(u64::try_from(us).unwrap_or(u64::MAX));
                }
            }
            Ok(SolveResponse::Busy { .. }) => report.busy += 1,
            Ok(_) | Err(_) => report.errors += 1,
        }
    };

    let mut evbuf = vec![EpollEvent::default(); 512];
    while open > 0 {
        // Seed/refill write queues: each live connection keeps up to
        // PIPELINE_DEPTH requests in flight.
        for (i, c) in cs.iter_mut().enumerate() {
            if c.done {
                continue;
            }
            while c.sent < c.assigned && c.sent - c.recvd < PIPELINE_DEPTH {
                c.wq.push_frame(payloads[issued % payloads.len()].clone());
                c.sent_at.push_back(Instant::now());
                c.sent += 1;
                issued += 1;
            }
            while !c.wq.is_empty() {
                match c.wq.write_to(&mut (&c.sock)) {
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break, // surfaces as EPOLLERR/EOF below
                }
            }
            let want = BASE_INTEREST | if c.wq.is_empty() { 0 } else { EPOLLOUT };
            if want != c.interest {
                // The fd may already be gone on a hard error; the readiness
                // sweep below settles the connection either way.
                if ep.modify(c.sock.as_raw_fd(), want, i as u64).is_ok() {
                    c.interest = want;
                }
            }
        }

        let n = ep.wait(&mut evbuf, 1_000)?;
        for ev in &evbuf[..n] {
            let (events, idx) = ({ ev.events }, { ev.data } as usize);
            let Some(c) = cs.get_mut(idx) else { continue };
            if c.done {
                continue;
            }
            let mut dead = events & (EPOLLERR | EPOLLHUP) != 0;
            if events & (EPOLLIN | EPOLLRDHUP) != 0 {
                let mut buf = [0u8; 64 * 1024];
                loop {
                    match io::Read::read(&mut (&c.sock), &mut buf) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(got) => {
                            if c.fsm.feed(&buf[..got]).is_err() {
                                dead = true;
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                while let Some(frame) = c.fsm.next_frame() {
                    let queued_at = c.sent_at.pop_front().unwrap_or_else(Instant::now);
                    settle_reply(&frame, queued_at, &mut report);
                    c.recvd += 1;
                }
            }
            if events & EPOLLOUT != 0 {
                while !c.wq.is_empty() {
                    match c.wq.write_to(&mut (&c.sock)) {
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
            }
            if c.recvd >= c.assigned || dead {
                // A connection dropped mid-run charges its unanswered
                // requests as errors instead of hanging the drive, counted
                // apart from error replies.
                let lost = (c.assigned - c.recvd) as u64;
                report.dropped_conns += u64::from(lost > 0);
                report.dropped_requests += lost;
                report.errors += lost;
                let _ = ep.delete(c.sock.as_raw_fd());
                c.done = true;
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
