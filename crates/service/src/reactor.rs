//! The reactor-model connection layer: glue between the [`anonet_net`]
//! event loop and the service's job queue.
//!
//! Under [`ConnModel::Reactor`](crate::server::ConnModel::Reactor) a single
//! `anonet-net` reactor thread owns every client socket. Its handler — the
//! [`ServiceHandler`] here — runs *on the reactor thread*, so it must never
//! block: it hands each frame to the shared [`dispatch`], which answers info
//! requests (stats, metrics, debug dump), error replies and solve requests
//! whose every instance is cached inline — a hit holds the cache lock for a
//! probe and a copy, never for an engine run. Other solve requests are
//! enqueued on the same bounded job queue the threads model uses and
//! answered [`Action::Pending`]. A worker later finishes the job and pushes
//! the payload through the reactor's completion queue
//! ([`ReactorReply::finish`]), which wakes the event loop via its eventfd.
//! An inline reply that overtakes a pending one on the same connection is
//! parked by the event loop until its turn, so pipelined replies still
//! leave in request order.
//!
//! ## Byte identity with the threads model
//!
//! Both models parse, count and answer through the same [`dispatch`] and
//! the same worker path, so identical request streams produce
//! **byte-identical** responses under either model (the differential
//! loopback test asserts exactly this). What differs is only the flight
//! record's transport phases: the reactor reads and writes asynchronously
//! on behalf of every connection at once, so per-request `read_us`/`write_us`
//! are not attributable and stay 0; queue/solve/encode timings are measured
//! by the worker exactly as in the threads model.

use crate::server::{dispatch, Dispatch, Reply, Shared};
use crate::telemetry::{RequestRecord, Telemetry};
use crate::wire;
use anonet_net::{Action, CompletionSender, Handler, NetMetrics, Reactor, ReactorConfig, Token};
use anonet_obs::clock::Stopwatch;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The reply route of a reactor-submitted job: everything a worker needs to
/// finish the flight record and route the payload back to the right
/// connection (and the right pipeline position) on the event loop.
pub(crate) struct ReactorReply {
    token: Token,
    seq: u64,
    started: Stopwatch,
    done: CompletionSender,
}

impl ReactorReply {
    /// Completes the job from a worker thread: commits the flight record the
    /// worker filled in and hands the payload to the reactor's completion
    /// queue (waking the event loop).
    pub(crate) fn finish(self, payload: Vec<u8>, mut rec: RequestRecord, tel: &Telemetry) {
        rec.bytes_out = payload.len() as u64;
        rec.total_us = self.started.total_us();
        tel.commit(rec);
        self.done.send(self.token, self.seq, payload);
    }
}

/// The per-reactor frame handler: dispatches each request frame and either
/// answers inline or queues a job. One instance serves every connection —
/// `(token, seq)` is all the per-request state it needs.
pub(crate) struct ServiceHandler {
    shared: Arc<Shared>,
    done: CompletionSender,
}

impl Handler for ServiceHandler {
    fn on_frame(&mut self, token: Token, seq: u64, payload: Vec<u8>) -> Action {
        let started = Stopwatch::start();
        let mut rec = RequestRecord::default();
        let reply = match dispatch(&self.shared, &payload, &mut rec) {
            Dispatch::Reply(reply) => reply,
            Dispatch::Submit(sub) => {
                let route = ReactorReply { token, seq, started, done: self.done.clone() };
                match self.shared.submit(sub, &mut rec, Reply::Reactor(route)) {
                    Ok(()) => return Action::Pending,
                    Err(busy) => busy,
                }
            }
        };
        rec.bytes_out = reply.len() as u64;
        rec.total_us = started.total_us();
        self.shared.telemetry.commit(rec);
        Action::Reply(reply)
    }
}

/// Shutdown handles for a running reactor: `Server::stop_impl` flips the
/// flag and kicks the eventfd instead of making a throwaway connection.
pub(crate) struct ReactorControl {
    stop: Arc<AtomicBool>,
    waker: Arc<anonet_net::Waker>,
}

impl ReactorControl {
    /// Asks the event loop to exit and wakes it out of `epoll_wait`.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
    }
}

/// Builds the reactor over an already-bound listener (so bind errors stay on
/// the caller), registers its `net.*` metrics in the service registry, and
/// spawns the single event-loop thread.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: &Arc<Shared>,
) -> io::Result<(JoinHandle<()>, ReactorControl)> {
    let metrics = NetMetrics::register(&shared.telemetry.registry);
    let rcfg = ReactorConfig {
        max_conns: shared.cfg.max_conns,
        idle_timeout_ms: shared.cfg.idle_timeout_ms,
        max_frame: wire::MAX_FRAME,
        ..ReactorConfig::default()
    };
    let sh = Arc::clone(shared);
    let reactor = Reactor::with_handler(
        listener,
        move |done| ServiceHandler { shared: sh, done },
        rcfg,
        metrics,
    )?;
    let ctl = ReactorControl { stop: reactor.stop_flag(), waker: reactor.waker() };
    let handle = std::thread::spawn(move || {
        // Fatal epoll errors end the loop; the server object notices on join.
        let _ = reactor.run();
    });
    Ok((handle, ctl))
}
