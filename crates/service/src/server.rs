//! The solver service: a TCP accept loop, a bounded job queue with
//! backpressure, a worker pool running each job through the solve pipeline,
//! and the LRU result cache.
//!
//! ## Request lifecycle
//!
//! Both connection models hand every request frame to [`dispatch`], the one
//! place frames are parsed, counted and labelled: info requests (stats,
//! metrics, debug dump) and protocol errors are answered inline, and so is
//! a solve request whose every instance is already in the result cache
//! (key = solver + mode + canonical blob). Every served solver is a
//! deterministic function of that key, so a hit needs no engine: the cached
//! bodies are copied straight into the reply on the thread that decoded the
//! frame, with the same counters and flight record a worker would have
//! left (`queue_us` 0). Any other solve request comes back for the caller
//! to **try** to enqueue. If the queue is at capacity the client
//! immediately receives a `Busy` response with a retry-after hint — the
//! server never blocks a client on a full queue, and `Busy` only ever
//! answers a request that needs a worker: a fully cached one is answered
//! `Ok` even when the queue is full. Otherwise the job waits for a worker,
//! which probes the cache per instance, runs the misses through the
//! requested solver's registry entry ([`crate::portfolio`]: one pipeline of
//! canonical decode, pool fan-out, engine run, certification and body
//! encode for every solver), caches the encoded bodies, and replies.
//! Responses are therefore **bit-identical to direct batch-runner runs** of
//! the same instances — the loopback integration test asserts it.
//!
//! ## Metrics
//!
//! Every counter lives in the telemetry registry; the cache, queue and
//! worker values are read into gauges when a snapshot is taken. The metrics
//! frame is that snapshot, and the legacy 11×u64 stats frame is read off it.
//!
//! ## Execution modes
//!
//! Synchronous requests run on the lockstep engine. Asynchronous requests
//! (VC-PN only) run each instance on the `anonet-runtime` discrete-event
//! executor under a named scenario; by the synchronizer guarantee the
//! assignment is bit-identical to the synchronous one, and the response
//! carries the `AsyncTrace` summary instead of the engine `Trace`.

use crate::cache::LruCache;
use crate::portfolio::{self, InstanceOutcome};
use crate::telemetry::{outcome, RequestRecord, Telemetry};
use crate::wire::{
    self, SolveRequest, SolveResponse, StatsSnapshot, WireError, FLAG_NO_CACHE, FLAG_TEST_PANIC,
    MSG_DEBUG_DUMP_REQUEST, MSG_METRICS_REQUEST, MSG_SOLVE_REQUEST, MSG_STATS_REQUEST,
};
use anonet_core::canon::ByteReader;
use anonet_obs::clock::{unix_millis, Stopwatch};
use anonet_obs::{MetricValue, Snapshot};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// How client connections are multiplexed onto the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnModel {
    /// One OS thread per connection (the original model). Simple, and the
    /// differential-testing oracle for the reactor: both models must produce
    /// byte-identical responses to identical request streams.
    Threads,
    /// One nonblocking reactor thread multiplexing every connection over
    /// `anonet-net`'s epoll loop — O(1) threads for C10K+ idle peers, with
    /// pipelined requests answered in order.
    Reactor,
}

impl std::str::FromStr for ConnModel {
    type Err = String;

    fn from_str(s: &str) -> Result<ConnModel, String> {
        match s {
            "threads" => Ok(ConnModel::Threads),
            "reactor" => Ok(ConnModel::Reactor),
            other => Err(format!("unknown connection model '{other}' (threads|reactor)")),
        }
    }
}

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the job queue. `0` is allowed and means
    /// nothing drains — useful for deterministic backpressure tests.
    pub workers: usize,
    /// Maximum queued jobs before requests are rejected with `Busy`.
    pub queue_cap: usize,
    /// Result-cache capacity in entries (`0` disables caching).
    pub cache_cap: usize,
    /// Result-cache byte budget over keys + bodies (keys embed whole
    /// canonical blobs, so entry counts alone do not bound memory).
    pub cache_bytes: usize,
    /// Batch-runner pool width each worker uses for one request's instances
    /// (`0` = auto: the machine's available parallelism; capped there
    /// either way). The pool threads persist per worker across requests.
    pub threads_per_job: usize,
    /// Backoff hint carried in `Busy` responses, in milliseconds.
    pub retry_after_ms: u32,
    /// Maximum live connections, under either [`ConnModel`] (one thread
    /// each under `Threads`, one reactor slot each under `Reactor`);
    /// connections accepted beyond the cap are closed immediately, shedding
    /// load at the door instead of pinning unbounded threads or buffers.
    pub max_conns: usize,
    /// Idle timeout per connection, in milliseconds (`0` disables it).
    /// Without one, `max_conns` stalled peers that never send a byte would
    /// pin every slot forever and lock all new clients out.
    pub idle_timeout_ms: u64,
    /// Flight-recorder capacity: the last N request records kept for debug
    /// dumps (`0` disables recording; phase histograms still run).
    pub flight_cap: usize,
    /// Connection multiplexing model: classic thread-per-connection or the
    /// `anonet-net` epoll reactor.
    pub conn_model: ConnModel,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_cap: 64,
            cache_cap: 1024,
            cache_bytes: 64 << 20,
            threads_per_job: 1,
            retry_after_ms: 50,
            max_conns: 256,
            idle_timeout_ms: 60_000,
            flight_cap: 256,
            conn_model: ConnModel::Threads,
        }
    }
}

/// Where a finished job's payload and flight record go: back to the
/// blocking connection thread (threads model), or into the reactor's
/// completion queue, where the worker commits the record itself (reactor
/// model).
pub(crate) enum Reply {
    Thread(mpsc::Sender<(Vec<u8>, RequestRecord)>),
    Reactor(crate::reactor::ReactorReply),
}

/// A decoded solve request bound for a worker, with the cache keys of its
/// instances. Each key copies an instance's canonical blob, so it is built
/// once per request — at dispatch, which probes the cache with it — and the
/// worker moves it into the cache. Empty when the request does not use the
/// cache.
pub(crate) struct Submission {
    req: SolveRequest,
    keys: Vec<Vec<u8>>,
}

/// A queued solve request with its flight record, which the worker fills in
/// with the queue, solve and encode phases.
struct Job {
    sub: Submission,
    rec: RequestRecord,
    reply: Reply,
    queued: Stopwatch,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServiceConfig,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    cache: Mutex<LruCache>,
    conns: AtomicUsize,
    stop: AtomicBool,
    pub(crate) telemetry: Telemetry,
}

impl Shared {
    fn new(cfg: ServiceConfig) -> Shared {
        Shared {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cache: Mutex::new(LruCache::with_byte_budget(cfg.cache_cap, cfg.cache_bytes)),
            conns: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            telemetry: Telemetry::new(cfg.flight_cap),
        }
    }

    /// Locks the result cache, recovering from poisoning: a job that
    /// panicked mid-mutation may have left the slab inconsistent, so the
    /// contents (counters included) are dropped and serving continues with
    /// a cold cache — one bad job must not wedge every later request on a
    /// poisoned `Mutex`.
    fn lock_cache(&self) -> MutexGuard<'_, LruCache> {
        match self.cache.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                *g = LruCache::with_byte_budget(self.cfg.cache_cap, self.cfg.cache_bytes);
                // Clear the flag, or every later lock would land here and
                // wipe the fresh cache again — caching permanently off.
                self.cache.clear_poison();
                g
            }
        }
    }

    /// Locks the job queue, recovering from poisoning. Unlike the cache,
    /// the queued jobs stay: they are plain data (request + reply sender)
    /// that a panic elsewhere cannot have half-mutated, and dropping them
    /// would strand every queued client waiting on a reply channel whose
    /// sender just vanished.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.queue.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Whether `req` reads and fills the result cache.
    fn uses_cache(&self, req: &SolveRequest) -> bool {
        req.flags & FLAG_NO_CACHE == 0 && self.cfg.cache_cap > 0
    }

    /// Wraps `req` for [`Shared::submit`], building its cache keys when it
    /// uses the cache.
    pub(crate) fn submission(&self, req: SolveRequest) -> Submission {
        let keys = if self.uses_cache(&req) {
            (0..req.instances.len()).map(|i| req.cache_key(i)).collect()
        } else {
            Vec::new()
        };
        Submission { req, keys }
    }

    /// Enqueues a solve request, moving its flight record into the job, or
    /// — when the queue is full or the service is stopping — leaves the
    /// record with the caller (outcome `busy`) and returns the encoded
    /// `Busy` payload to answer inline.
    pub(crate) fn submit(
        &self,
        sub: Submission,
        rec: &mut RequestRecord,
        reply: Reply,
    ) -> Result<(), Vec<u8>> {
        let mut q = self.lock_queue();
        if self.stop.load(Ordering::Relaxed) || q.len() >= self.cfg.queue_cap {
            self.telemetry.rejected_busy.inc();
            rec.outcome = outcome::BUSY;
            return Err(wire::encode_solve_response(&SolveResponse::Busy {
                retry_after_ms: self.cfg.retry_after_ms,
                queue_len: q.len() as u32,
            }));
        }
        let rec = std::mem::take(rec);
        q.push_back(Job { sub, rec, reply, queued: Stopwatch::start() });
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Answers `req` on the calling thread when every one of its instances
    /// is cached: the reply needs no engine, so it takes no worker and no
    /// queue slot. Counts exactly what the worker path counts for the same
    /// request (the solver's kind counter, `served_ok`, one cache hit per
    /// instance) and fills `rec` as a worker would, minus the queue wait.
    ///
    /// Returns the request as a [`Submission`] (with the cache keys it was
    /// probed under), having counted nothing, when it must go through
    /// [`Shared::submit`] instead: it bypasses the cache, carries the debug
    /// panic flag (whose instrumentation lives on the worker), asks for a
    /// mode its solver rejects, or misses on any instance — the worker then
    /// probes again and counts the hits and misses itself.
    fn answer_cached(
        &self,
        req: SolveRequest,
        rec: &mut RequestRecord,
    ) -> Result<Vec<u8>, Submission> {
        let mut sw = Stopwatch::start();
        let sub = self.submission(req);
        let reply = 'probe: {
            let Submission { req, keys } = &sub;
            if !self.uses_cache(req)
                || req.flags & FLAG_TEST_PANIC != 0
                || portfolio::mode_supported(req).is_err()
            {
                break 'probe None;
            }
            let mut cache = self.lock_cache();
            if !keys.iter().all(|key| cache.contains(key)) {
                break 'probe None;
            }
            rec.solve_us = sw.lap_us();
            let mut reply = wire::OkResponse::new(keys.len());
            for key in keys {
                // Present: `contains` saw every key under this same lock.
                let Some(body) = cache.get(key) else { break 'probe None };
                reply.push_solved(true, body);
            }
            Some(reply)
        };
        let Some(reply) = reply else { return Err(sub) };
        let tel = &self.telemetry;
        tel.kind_counter(sub.req.solver).inc();
        tel.served_ok.inc();
        rec.outcome = outcome::OK;
        rec.cache_hits = sub.keys.len() as u32;
        let payload = reply.finish();
        rec.encode_us = sw.lap_us();
        Ok(payload)
    }

    /// The one metrics snapshot both info frames are built from: the cache,
    /// queue and worker values are read into their gauges first, and the
    /// reactor's own shed count (`net.shed_conns`) is folded into
    /// `shed_conns`, so that entry reads the same under either connection
    /// model.
    pub(crate) fn metrics_snapshot(&self) -> Snapshot {
        let (hits, misses, evictions, len) = {
            let cache = self.lock_cache();
            let (h, m, e) = cache.counters();
            (h, m, e, cache.len() as u64)
        };
        let queue_len = self.lock_queue().len() as u64;
        let registry = &self.telemetry.registry;
        for (name, value) in [
            ("cache_hits", hits),
            ("cache_misses", misses),
            ("cache_evictions", evictions),
            ("cache_len", len),
            ("queue_len", queue_len),
            ("workers", self.cfg.workers as u64),
        ] {
            registry.gauge(name).set(value);
        }
        let mut snap = registry.snapshot();
        let net_shed = snap.scalar("net.shed_conns").unwrap_or(0);
        if let Some((_, MetricValue::Counter(shed))) =
            snap.entries.iter_mut().find(|(name, _)| name == "shed_conns")
        {
            *shed += net_shed;
        }
        snap
    }

    /// The legacy stats view, read off [`Shared::metrics_snapshot`].
    pub(crate) fn stats(&self) -> StatsSnapshot {
        let snap = self.metrics_snapshot();
        let get = |name: &str| snap.scalar(name).unwrap_or(0);
        StatsSnapshot {
            served_ok: get("served_ok"),
            rejected_busy: get("rejected_busy"),
            malformed: get("malformed"),
            exec_errors: get("exec_errors"),
            cache_hits: get("cache_hits"),
            cache_misses: get("cache_misses"),
            cache_evictions: get("cache_evictions"),
            cache_len: get("cache_len"),
            queue_len: get("queue_len"),
            workers: get("workers"),
            shed_conns: get("shed_conns"),
        }
    }
}

/// What [`dispatch`] decided for one request frame.
pub(crate) enum Dispatch {
    /// Answer inline with this payload (an info reply, an error, or a
    /// solve request served wholly from the cache).
    Reply(Vec<u8>),
    /// A decoded solve request for the caller to [`Shared::submit`].
    Submit(Submission),
}

/// The one request dispatch both connection models share: parses the frame,
/// answers info requests, protocol errors and fully cached solve requests
/// inline, and labels the request in `rec` (arrival, size, message type,
/// decode time, solver, outcome).
/// Identical request streams therefore get identical replies and counter
/// movements under either model. The caller owns only the transport phases.
pub(crate) fn dispatch(shared: &Shared, payload: &[u8], rec: &mut RequestRecord) -> Dispatch {
    let sw = Stopwatch::start();
    rec.t_unix_ms = unix_millis();
    rec.bytes_in = payload.len() as u64;
    rec.outcome = outcome::INFO;
    let mut r = ByteReader::new(payload);
    let header = wire::read_header(&mut r);
    if let Ok(t) = header {
        rec.msg_type = t;
    }
    let reply = match header {
        Ok(MSG_SOLVE_REQUEST) => {
            let decoded = wire::decode_solve_request(&mut r);
            rec.decode_us = sw.total_us();
            match decoded {
                Ok(req) => {
                    rec.problem = req.solver.name();
                    rec.instances = req.instances.len() as u32;
                    return match shared.answer_cached(req, rec) {
                        Ok(reply) => Dispatch::Reply(reply),
                        Err(sub) => Dispatch::Submit(sub),
                    };
                }
                // A well-formed frame naming a solver this build does not
                // register is a capability gap, not a protocol violation:
                // structured `Unsupported`, no malformed strike.
                Err(WireError::UnknownSolver(id)) => {
                    rec.outcome = outcome::UNSUPPORTED;
                    SolveResponse::Unsupported(format!("unknown solver id {id}"))
                }
                Err(e) => SolveResponse::Malformed(e.to_string()),
            }
        }
        Ok(MSG_STATS_REQUEST) => {
            return Dispatch::Reply(wire::encode_stats_response(&shared.stats()))
        }
        Ok(MSG_METRICS_REQUEST) => {
            return Dispatch::Reply(wire::encode_metrics_response(&shared.metrics_snapshot()))
        }
        Ok(MSG_DEBUG_DUMP_REQUEST) => {
            let dump = shared.telemetry.dump_json("on-demand");
            return Dispatch::Reply(wire::encode_debug_dump_response(&dump));
        }
        Ok(t) => SolveResponse::Malformed(format!("unexpected message type {t}")),
        Err(e) => SolveResponse::Malformed(e.to_string()),
    };
    if matches!(reply, SolveResponse::Malformed(_)) {
        rec.outcome = outcome::MALFORMED;
        shared.telemetry.malformed.inc();
    }
    Dispatch::Reply(wire::encode_solve_response(&reply))
}

/// Executes one request end to end, returning the response payload and
/// filling in the worker-side phases and outcome of its flight record.
/// `keys` are the request's cache keys ([`Shared::submission`]); the
/// computed results are inserted under them.
fn execute(
    shared: &Shared,
    req: &SolveRequest,
    mut keys: Vec<Vec<u8>>,
    rec: &mut RequestRecord,
) -> Vec<u8> {
    if cfg!(debug_assertions) && req.flags & FLAG_TEST_PANIC != 0 {
        // lint: allow(panic-path) — deliberate test instrumentation, debug builds only, and the worker_loop catch_unwind is exactly what it exercises
        panic!("FLAG_TEST_PANIC set: deliberate worker panic (test instrumentation)");
    }
    // Modes a solver does not support (per its registry capability flags)
    // are answered with a structured `Unsupported` before any counting.
    if let Err(unsupported) = portfolio::mode_supported(req) {
        rec.outcome = outcome::UNSUPPORTED;
        return unsupported;
    }

    let tel = &shared.telemetry;
    tel.kind_counter(req.solver).inc();
    let mut sw = Stopwatch::start();
    let k = req.instances.len();
    let mut outcomes: Vec<Option<InstanceOutcome>> = (0..k).map(|_| None).collect();
    let use_cache = shared.uses_cache(req);
    if use_cache {
        let mut cache = shared.lock_cache();
        for i in 0..k {
            if let Some(body) = cache.get(&keys[i]) {
                outcomes[i] = Some(Ok((true, body.to_vec())));
            }
        }
    }

    let missing: Vec<usize> = (0..k).filter(|&i| outcomes[i].is_none()).collect();
    if !missing.is_empty() {
        let computed = (req.solver.descriptor().run)(shared, req, &missing);
        if use_cache {
            let mut cache = shared.lock_cache();
            for (&i, outcome) in missing.iter().zip(computed.iter()) {
                if let Ok((_, body)) = outcome {
                    cache.insert(std::mem::take(&mut keys[i]), body.clone());
                }
            }
        }
        for (&i, outcome) in missing.iter().zip(computed) {
            outcomes[i] = Some(outcome);
        }
    }

    let results: Vec<InstanceOutcome> =
        // lint: allow(panic-path) — every slot is filled by construction: the cache pass writes hits, the execute pass writes the rest
        outcomes.into_iter().map(|o| o.expect("every instance resolved")).collect();
    let cache_hits = results.iter().filter(|r| matches!(r, Ok((true, _)))).count() as u32;
    rec.cache_hits = cache_hits;
    rec.cache_misses = k as u32 - cache_hits;
    tel.exec_errors.add(results.iter().filter(|r| r.is_err()).count() as u64);
    tel.served_ok.inc();
    rec.solve_us = sw.lap_us();
    let payload = wire::encode_solve_response_raw(&results);
    rec.encode_us = sw.lap_us();
    payload
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let Job { sub, mut rec, reply, queued } = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                // Same recovery policy as `lock_queue`: a poisoned wait
                // means some other holder panicked, not that the queue
                // contents are bad — keep draining it.
                q = match shared.cv.wait(q) {
                    Ok(g) => g,
                    Err(poisoned) => {
                        shared.queue.clear_poison();
                        poisoned.into_inner()
                    }
                };
            }
        };
        rec.queue_us = queued.total_us();
        rec.outcome = outcome::OK;
        // A panicking job must not take the worker down with it (a handful
        // of hostile requests would otherwise silently drain the pool until
        // nothing drains the queue): unwind here, answer with per-instance
        // errors, and keep the thread. The unwind path also dumps the
        // flight recorder to stderr — the records preceding the panic are
        // exactly the evidence a post-mortem needs.
        let Submission { req, keys } = sub;
        let payload = match catch_unwind(AssertUnwindSafe(|| {
            execute(&shared, &req, keys, &mut rec)
        })) {
            Ok(payload) => payload,
            Err(_) => {
                let tel = &shared.telemetry;
                tel.dump_on_panic();
                let n = req.instances.len();
                tel.exec_errors.add(n as u64);
                tel.served_ok.inc();
                rec.outcome = outcome::PANIC;
                let errs: Vec<InstanceOutcome> =
                    (0..n).map(|_| Err("internal error: execution panicked".to_string())).collect();
                wire::encode_solve_response_raw(&errs)
            }
        };
        match reply {
            // The client may have gone away; that is its problem, not ours.
            Reply::Thread(tx) => {
                let _ = tx.send((payload, rec));
            }
            // The reactor path owns the flight record: finish it here (the
            // reactor thread only moves bytes) and wake the event loop.
            Reply::Reactor(r) => r.finish(payload, rec, &shared.telemetry),
        }
    }
}

/// Releases a connection slot on drop, so the count stays accurate even if
/// the handler thread unwinds — a leaked slot would shrink `max_conns`
/// permanently.
struct ConnSlot(Arc<Shared>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // A peer that stops sending must eventually release its connection
    // slot; the timeout makes read_frame error out instead of blocking
    // forever. It only covers the gap *between* requests — while a job
    // runs, this thread waits on the reply channel, not the socket.
    if shared.cfg.idle_timeout_ms > 0 {
        let _ = stream
            .set_read_timeout(Some(std::time::Duration::from_millis(shared.cfg.idle_timeout_ms)));
    }
    loop {
        // One stopwatch walks the whole request: laps are the transport
        // splits, `total_us` at the end is read start → write end. The read
        // phase of a keep-alive connection includes the wait for the next
        // frame.
        let mut sw = Stopwatch::start();
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(p)) => p,
            _ => return, // clean close or broken transport
        };
        let mut rec = RequestRecord { read_us: sw.lap_us(), ..RequestRecord::default() };
        let reply = match dispatch(shared, &payload, &mut rec) {
            Dispatch::Reply(reply) => reply,
            Dispatch::Submit(sub) => {
                let (tx, rx) = mpsc::channel();
                match shared.submit(sub, &mut rec, Reply::Thread(tx)) {
                    Ok(()) => match rx.recv() {
                        Ok((reply, done)) => {
                            rec = done;
                            reply
                        }
                        Err(_) => return, // service shut down mid-flight
                    },
                    Err(busy) => busy,
                }
            }
        };
        rec.bytes_out = reply.len() as u64;
        // Decode, queue, solve and encode are already split out in `rec`;
        // restart the lap so the write phase is the write alone.
        sw.lap_us();
        let write_ok = wire::write_frame(&mut stream, &reply).is_ok();
        rec.write_us = sw.lap_us();
        rec.total_us = sw.total_us();
        shared.telemetry.commit(rec);
        if !write_ok {
            return;
        }
    }
}

/// A running solver service bound to a TCP address.
///
/// Dropping the server (or calling [`Server::shutdown`]) stops the accept
/// loop, drains the queue, and joins the workers. Use `"127.0.0.1:0"` to
/// bind an ephemeral port and read it back with [`Server::local_addr`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Present under [`ConnModel::Reactor`]: the handles `stop_impl` uses to
    /// stop the event loop (flag + eventfd wake) instead of the throwaway
    /// connection that unblocks a blocking accept loop.
    reactor: Option<crate::reactor::ReactorControl>,
}

impl Server {
    /// Binds `addr` and starts the accept loop and worker pool.
    pub fn start(addr: &str, cfg: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(cfg));
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        let (accept, reactor) = match cfg.conn_model {
            ConnModel::Threads => {
                let shared = Arc::clone(&shared);
                let accept = std::thread::spawn(move || {
                    for conn in listener.incoming() {
                        if shared.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            // Only this thread increments, so load-then-add is
                            // race-free: handlers can only *lower* the count.
                            if shared.conns.load(Ordering::Relaxed) >= shared.cfg.max_conns {
                                // Over the cap: shed the connection (visibly).
                                shared.telemetry.shed_conns.inc();
                                continue;
                            }
                            shared.conns.fetch_add(1, Ordering::Relaxed);
                            let slot = ConnSlot(Arc::clone(&shared));
                            std::thread::spawn(move || handle_conn(stream, &slot.0));
                        }
                    }
                });
                (accept, None)
            }
            ConnModel::Reactor => {
                let (accept, ctl) = crate::reactor::spawn(listener, &shared)?;
                (accept, Some(ctl))
            }
        };
        Ok(Server { shared, local_addr, accept: Some(accept), workers, reactor })
    }

    /// The bound address (resolves `:0` ephemeral binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time statistics snapshot (also served over the wire).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// The self-describing metrics snapshot (also served over the wire as
    /// the metrics frame): phase histograms, per-solver solve counters, and
    /// the legacy stats counters and gauges, name-sorted.
    pub fn metrics(&self) -> anonet_obs::Snapshot {
        self.shared.metrics_snapshot()
    }

    /// The flight-recorder JSON document (also served over the wire as the
    /// debug dump response). `reason` is stamped into the document.
    pub fn flight_dump_json(&self, reason: &str) -> String {
        self.shared.telemetry.dump_json(reason)
    }

    /// Blocks until the accept loop exits — "serve forever" for the CLI.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, drains queued jobs, joins the workers.
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.cv.notify_all();
        match &self.reactor {
            // The reactor polls: flip its stop flag and kick the eventfd.
            Some(ctl) => ctl.stop(),
            // Unblock the blocking accept loop with a throwaway connection.
            None => {
                let _ = TcpStream::connect(self.local_addr);
            }
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::SolverId;

    #[test]
    fn fully_cached_requests_are_answered_at_dispatch_past_a_full_queue() {
        // workers = 0: nothing drains, so the queue stays full.
        let cfg = ServiceConfig { workers: 0, queue_cap: 2, ..ServiceConfig::default() };
        let shared = Shared::new(cfg);
        let (tx, _rx) = mpsc::channel();
        for i in 0..cfg.queue_cap {
            let req = SolveRequest::new(SolverId::VC_PN, vec![vec![i as u8]]);
            let mut rec = RequestRecord::default();
            let sub = shared.submission(req);
            assert!(shared.submit(sub, &mut rec, Reply::Thread(tx.clone())).is_ok());
        }
        let req = SolveRequest::new(SolverId::VC_PN, vec![vec![0xAB; 16]]);
        let body = vec![1, 2, 3, 4, 5];
        shared.lock_cache().insert(req.cache_key(0), body.clone());
        let before = shared.stats();

        let mut rec = RequestRecord::default();
        let reply = match dispatch(&shared, &wire::encode_solve_request(&req), &mut rec) {
            Dispatch::Reply(reply) => reply,
            Dispatch::Submit(_) => panic!("a fully cached request must not need a worker"),
        };
        assert_eq!(reply, wire::encode_solve_response_raw(&[Ok((true, body))]));
        let after = shared.stats();
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        assert_eq!(after.served_ok, before.served_ok + 1);
        assert_eq!(after.cache_misses, before.cache_misses);
        assert_eq!(after.rejected_busy, before.rejected_busy);
        assert_eq!(after.queue_len, before.queue_len);
        assert_eq!(after.queue_len, cfg.queue_cap as u64);
        assert_eq!(rec.queue_us, 0);
        assert_eq!(rec.outcome, outcome::OK);
        assert_eq!((rec.cache_hits, rec.cache_misses), (1, 0));
    }

    #[test]
    fn requests_that_miss_or_bypass_the_cache_go_to_the_queue_uncounted() {
        let shared = Shared::new(ServiceConfig { workers: 0, ..ServiceConfig::default() });
        let blobs = vec![vec![1u8; 8], vec![2u8; 8]];
        let partial = SolveRequest::new(SolverId::VC_PN, blobs);
        shared.lock_cache().insert(partial.cache_key(0), vec![9]);
        let mut panicking = SolveRequest::new(SolverId::VC_PN, vec![vec![1u8; 8]]);
        panicking.flags |= FLAG_TEST_PANIC;
        let async_bcast = SolveRequest::new(SolverId::VC_BCAST, vec![vec![1u8; 8]])
            .with_scenario(wire::Scenario::Ideal, 1);
        shared.lock_cache().insert(async_bcast.cache_key(0), vec![9]);
        for req in [
            partial,
            SolveRequest::new(SolverId::VC_PN, vec![vec![1u8; 8]]).no_cache(),
            panicking,
            async_bcast,
        ] {
            let mut rec = RequestRecord::default();
            let payload = wire::encode_solve_request(&req);
            assert!(matches!(dispatch(&shared, &payload, &mut rec), Dispatch::Submit(_)));
        }
        let stats = shared.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses, stats.served_ok), (0, 0, 0));
        assert_eq!(shared.metrics_snapshot().scalar("solve.kind.vc_pn"), Some(0));
    }

    #[test]
    fn cache_lock_recovers_from_poisoning() {
        let shared = Shared::new(ServiceConfig::default());
        shared.lock_cache().insert(vec![1], vec![2]);
        // Poison the mutex: panic while holding the guard. The accessor is
        // fine here — the mutex is healthy at lock time; it is the panic
        // *while holding* the returned guard that poisons it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = shared.lock_cache();
            panic!("poison");
        }));
        // Recovery drops the possibly-inconsistent contents and keeps
        // serving instead of wedging every later lock on the poison.
        let mut cache = shared.lock_cache();
        assert_eq!(cache.len(), 0);
        cache.insert(vec![1], vec![2]);
        assert_eq!(cache.len(), 1);
        drop(cache);
        // The poison flag was cleared: a later lock must *not* wipe the
        // rebuilt cache again (that would disable caching permanently).
        assert_eq!(shared.lock_cache().len(), 1);
    }
}
