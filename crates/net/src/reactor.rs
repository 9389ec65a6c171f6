//! The readiness loop: one thread, one epoll set, a slab of connection
//! state machines.
//!
//! The reactor owns the listener, every client socket, an
//! [`EventFd`]-backed [`Waker`], and a completion queue. Protocol logic
//! lives behind the [`Handler`] trait: the reactor hands it complete
//! frames (in arrival order, with a per-connection sequence number) and
//! the handler either replies inline ([`Action::Reply`]), defers to
//! worker threads ([`Action::Pending`], resolved later through a
//! [`CompletionSender`]), or closes the connection ([`Action::Close`]).
//!
//! See the crate docs for the six readiness/state-machine invariants this
//! module maintains; the code cross-references them as `invariant (N)`.

use crate::epoll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::frame::{FrameFsm, WriteQueue};
use crate::wheel::DeadlineWheel;
use anonet_obs::{Counter, Gauge, Histo, Registry};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Epoll token of the accept socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token of the waker eventfd.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Stack buffer for one `read` call; the per-sweep budget spans several.
const READ_CHUNK: usize = 16 * 1024;
/// Readiness events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 1024;
/// Accept-queue depth requested for the listener (the kernel caps it at
/// `net.core.somaxconn`, 4096 by default).
const LISTEN_BACKLOG: i32 = 4096;

/// Identifies one live connection: slab index in the low 32 bits, a
/// generation in the high 32. A completion carrying a stale generation
/// (its connection closed and the slot was reused) is dropped instead of
/// answering the wrong peer — invariant (6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

impl Token {
    fn new(idx: usize, generation: u32) -> Token {
        Token(((generation as u64) << 32) | idx as u64)
    }

    fn idx(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// What the [`Handler`] wants done with one request frame.
pub enum Action {
    /// Send this payload as the reply (framed by the reactor, delivered in
    /// sequence position).
    Reply(Vec<u8>),
    /// The handler queued asynchronous work; a [`Completion`] with this
    /// frame's `(token, seq)` will arrive through the completion queue.
    Pending,
    /// Drop the connection (protocol violation); nothing further is sent.
    Close,
}

/// Protocol logic plugged into the reactor. Called only from the reactor
/// thread.
pub trait Handler {
    /// One complete request frame from `token`, the `seq`-th on its
    /// connection (0-based). Replies — inline or via completion — are
    /// delivered to the peer strictly in `seq` order (invariant (3)).
    fn on_frame(&mut self, token: Token, seq: u64, frame: Vec<u8>) -> Action;

    /// The connection is gone (peer close, timeout, error, shutdown).
    /// Pending completions for it will be silently dropped.
    fn on_close(&mut self, _token: Token) {}
}

/// An asynchronous reply produced by a worker thread.
pub struct Completion {
    /// The connection the originating frame arrived on.
    pub token: Token,
    /// The originating frame's sequence number.
    pub seq: u64,
    /// The reply payload (framed by the reactor).
    pub payload: Vec<u8>,
}

/// Wakes the reactor out of `epoll_wait` from another thread.
pub struct Waker {
    fd: EventFd,
}

impl Waker {
    /// Interrupts the reactor's current (or next) wait.
    pub fn wake(&self) {
        self.fd.wake();
    }
}

/// Clonable handle worker threads use to deliver replies; each send wakes
/// the reactor.
#[derive(Clone)]
pub struct CompletionSender {
    tx: mpsc::Sender<Completion>,
    waker: Arc<Waker>,
}

impl CompletionSender {
    /// Delivers one reply. Infallible: if the reactor is gone the reply is
    /// moot (its connection died with the reactor).
    pub fn send(&self, token: Token, seq: u64, payload: Vec<u8>) {
        let _ = self.tx.send(Completion { token, seq, payload });
        self.waker.wake();
    }
}

/// The reactor's observability handles, registered in an
/// [`anonet_obs::Registry`] so they ride the existing metrics frame.
#[derive(Clone)]
pub struct NetMetrics {
    /// Live connections (`net.conns`).
    pub conns: Arc<Gauge>,
    /// Microseconds spent blocked in `epoll_wait` (`net.epoll_wait_us`).
    pub epoll_wait_us: Arc<Histo>,
    /// Events returned per wait (`net.readiness_batch`).
    pub readiness_batch: Arc<Histo>,
    /// Connections shed at accept over `max_conns` (`net.shed_conns`).
    pub shed_conns: Arc<Counter>,
    /// Connections expired by the deadline wheel (`net.idle_timeouts`).
    pub idle_timeouts: Arc<Counter>,
}

impl NetMetrics {
    /// Registers (or re-resolves) the reactor metrics under their
    /// canonical `net.*` names.
    pub fn register(reg: &Registry) -> NetMetrics {
        NetMetrics {
            conns: reg.gauge("net.conns"),
            epoll_wait_us: reg.histo("net.epoll_wait_us"),
            readiness_batch: reg.histo("net.readiness_batch"),
            shed_conns: reg.counter("net.shed_conns"),
            idle_timeouts: reg.counter("net.idle_timeouts"),
        }
    }
}

/// Reactor tuning. The defaults suit the solver service; tests shrink
/// them to force the edge paths.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Live-connection cap; accepts beyond it are shed at the door.
    pub max_conns: usize,
    /// Idle deadline per connection in ms (`0` disables expiry). Refreshed
    /// only at frame boundaries — invariant (2).
    pub idle_timeout_ms: u64,
    /// Largest acceptable request payload (frames declaring more close the
    /// connection before any payload is buffered).
    pub max_frame: usize,
    /// Read budget per connection per readiness sweep — invariant (1).
    pub read_budget: usize,
    /// Pipelined requests in flight per connection before read interest is
    /// paused — invariant (5).
    pub max_inflight: usize,
    /// Queued write bytes per connection before read interest is paused —
    /// invariant (5).
    pub max_write_buffer: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_conns: 10_240,
            idle_timeout_ms: 60_000,
            max_frame: 1 << 28,
            read_budget: 256 * 1024,
            max_inflight: 64,
            max_write_buffer: 1 << 20,
        }
    }
}

/// Per-connection state: the framing machine, the write queue, the
/// pipeline bookkeeping, and the idle deadline.
struct Conn {
    sock: TcpStream,
    fsm: FrameFsm,
    wq: WriteQueue,
    /// Sequence number the next arriving frame gets.
    next_seq: u64,
    /// Sequence number the next flushed reply must carry.
    next_to_send: u64,
    /// Replies completed out of order, parked until their turn.
    parked: BTreeMap<u64, Vec<u8>>,
    /// Frames dispatched to the handler whose reply is not yet queued.
    inflight: usize,
    /// True deadline (ms since reactor start); the wheel holds a coarse
    /// candidate entry, this field decides.
    deadline: u64,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Peer closed its write half; drain our replies, then close.
    read_closed: bool,
}

/// The reactor. Construct with [`Reactor::new`], hand out
/// [`Reactor::completion_sender`] / [`Reactor::waker`] /
/// [`Reactor::stop_flag`], then [`Reactor::run`] on a dedicated thread.
pub struct Reactor<H: Handler> {
    ep: Epoll,
    listener: TcpListener,
    local_addr: SocketAddr,
    handler: H,
    cfg: ReactorConfig,
    metrics: NetMetrics,
    waker: Arc<Waker>,
    completions: mpsc::Receiver<Completion>,
    completion_tx: mpsc::Sender<Completion>,
    stop: Arc<AtomicBool>,
    slots: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
    wheel: DeadlineWheel,
    started: Instant,
    live: usize,
}

impl<H: Handler> Reactor<H> {
    /// Wraps `listener` (switched to nonblocking) and sets up the epoll
    /// set, the waker, and the completion queue.
    pub fn new(
        listener: TcpListener,
        handler: H,
        cfg: ReactorConfig,
        metrics: NetMetrics,
    ) -> io::Result<Reactor<H>> {
        Reactor::with_handler(listener, |_| handler, cfg, metrics)
    }

    /// Like [`Reactor::new`], but the handler is built *after* the
    /// completion machinery, receiving the [`CompletionSender`] it will
    /// hand to worker threads.
    pub fn with_handler<F>(
        listener: TcpListener,
        make_handler: F,
        cfg: ReactorConfig,
        metrics: NetMetrics,
    ) -> io::Result<Reactor<H>>
    where
        F: FnOnce(CompletionSender) -> H,
    {
        listener.set_nonblocking(true)?;
        // One thread accepts for every connection: give connect bursts the
        // kernel's deepest accept queue instead of std's 128.
        crate::epoll::set_listen_backlog(&listener, LISTEN_BACKLOG)?;
        let local_addr = listener.local_addr()?;
        let ep = Epoll::new()?;
        let waker = Arc::new(Waker { fd: EventFd::new()? });
        ep.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        ep.add(waker.fd.raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        let (completion_tx, completions) = mpsc::channel();
        let handler =
            make_handler(CompletionSender { tx: completion_tx.clone(), waker: Arc::clone(&waker) });
        // Wheel resolution: fine enough that short test timeouts expire
        // promptly, coarse enough that a 60 s production timeout costs a
        // few wakeups per minute.
        let resolution = (cfg.idle_timeout_ms / 4).clamp(5, 250);
        Ok(Reactor {
            ep,
            listener,
            local_addr,
            handler,
            cfg,
            metrics,
            waker,
            completions,
            completion_tx,
            stop: Arc::new(AtomicBool::new(false)),
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            wheel: DeadlineWheel::new(resolution, 64),
            started: Instant::now(),
            live: 0,
        })
    }

    /// The bound address (resolves `:0` ephemeral binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle for worker threads to deliver replies through.
    pub fn completion_sender(&self) -> CompletionSender {
        CompletionSender { tx: self.completion_tx.clone(), waker: Arc::clone(&self.waker) }
    }

    /// The waker (needed to make [`Reactor::run`] notice the stop flag).
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Set to true (then [`Waker::wake`]) to make [`Reactor::run`] return.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Runs the readiness loop until the stop flag is set. All live
    /// connections are dropped on the way out.
    pub fn run(mut self) -> io::Result<()> {
        let mut events = vec![EpollEvent::default(); EVENT_BATCH];
        let mut expired: Vec<u64> = Vec::new();
        let timeout_ms = self.wheel.resolution_ms().min(i32::MAX as u64) as i32;
        while !self.stop.load(Ordering::Relaxed) {
            let waited = Instant::now();
            let n = self.ep.wait(&mut events, timeout_ms)?;
            self.metrics.epoll_wait_us.record(waited.elapsed().as_micros() as u64);
            self.metrics.readiness_batch.record(n as u64);
            for ev in events.iter().take(n).copied() {
                match ev.data {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.waker.fd.drain();
                        self.drain_completions();
                    }
                    raw => self.conn_ready(Token(raw), ev.events),
                }
            }
            // Completions can also arrive while we are mid-sweep; drain
            // opportunistically so a busy reactor never leaves replies
            // parked a full tick.
            self.drain_completions();
            let now = self.now_ms();
            expired.clear();
            self.wheel.advance(now, &mut expired);
            for raw in expired.drain(..) {
                self.check_deadline(Token(raw), now);
            }
        }
        // Shutdown: close every live connection.
        for idx in 0..self.slots.len() {
            self.close(idx);
        }
        Ok(())
    }

    /// Accepts until the listener would block — invariant (6): shedding
    /// and the gauge both live on this thread.
    fn accept_ready(&mut self) {
        loop {
            let sock = match self.listener.accept() {
                Ok((sock, _)) => sock,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE, ECONNABORTED): drop
                // this round; the backlog re-arms the level-triggered set.
                Err(_) => return,
            };
            if self.live >= self.cfg.max_conns {
                self.metrics.shed_conns.inc();
                continue; // dropping `sock` closes it: shed at the door
            }
            if sock.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = sock.set_nodelay(true);
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.slots.push(None);
                    self.generations.push(0);
                    self.slots.len() - 1
                }
            };
            let token = Token::new(idx, self.generations[idx]);
            let interest = EPOLLIN | EPOLLRDHUP;
            if self.ep.add(sock.as_raw_fd(), interest, token.0).is_err() {
                self.free.push(idx);
                continue;
            }
            let now = self.now_ms();
            let deadline = if self.cfg.idle_timeout_ms == 0 {
                u64::MAX
            } else {
                now + self.cfg.idle_timeout_ms
            };
            if deadline != u64::MAX {
                self.wheel.insert(token.0, deadline);
            }
            self.slots[idx] = Some(Conn {
                sock,
                fsm: FrameFsm::new(self.cfg.max_frame),
                wq: WriteQueue::new(),
                next_seq: 0,
                next_to_send: 0,
                parked: BTreeMap::new(),
                inflight: 0,
                deadline,
                interest,
                read_closed: false,
            });
            self.live += 1;
            self.metrics.conns.inc();
        }
    }

    /// True if `token` still names a live connection (slot occupied, same
    /// generation).
    fn is_live(&self, token: Token) -> bool {
        let idx = token.idx();
        idx < self.slots.len()
            && self.generations[idx] == token.generation()
            && self.slots[idx].is_some()
    }

    fn conn_ready(&mut self, token: Token, events: u32) {
        if !self.is_live(token) {
            return; // stale readiness for a recycled slot
        }
        let idx = token.idx();
        if events & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(idx);
            return;
        }
        if events & (EPOLLIN | EPOLLRDHUP) != 0 && !self.read_phase(idx) {
            return; // closed during reads
        }
        if events & EPOLLOUT != 0 && !self.write_phase(idx) {
            return; // closed during writes
        }
        self.settle(idx);
    }

    /// Reads up to the sweep budget — invariant (1) — feeding the framing
    /// machine and dispatching completed frames. Returns false if the
    /// connection was closed.
    fn read_phase(&mut self, idx: usize) -> bool {
        let mut budget = self.cfg.read_budget;
        let mut buf = [0u8; READ_CHUNK];
        while budget > 0 {
            let Some(conn) = self.slots[idx].as_mut() else { return false };
            let want = budget.min(READ_CHUNK);
            match conn.sock.read(&mut buf[..want]) {
                Ok(0) => {
                    conn.read_closed = true;
                    if conn.fsm.close().is_err() {
                        // Torn mid-frame: nothing sensible left to flush.
                        self.close(idx);
                        return false;
                    }
                    break;
                }
                Ok(n) => {
                    if conn.fsm.feed(&buf[..n]).is_err() {
                        // Oversize declaration — drop before buffering.
                        self.close(idx);
                        return false;
                    }
                    budget -= n;
                    if n < want {
                        break; // socket drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return false;
                }
            }
        }
        self.dispatch_frames(idx)
    }

    /// Hands queued complete frames to the handler, up to the in-flight
    /// cap — invariants (3) and (5). Returns false if the connection was
    /// closed.
    fn dispatch_frames(&mut self, idx: usize) -> bool {
        loop {
            let now = self.now_ms();
            let token;
            let seq;
            let frame;
            {
                let Some(conn) = self.slots[idx].as_mut() else { return false };
                if conn.inflight >= self.cfg.max_inflight {
                    return true;
                }
                match conn.fsm.next_frame() {
                    Some(f) => frame = f,
                    None => return true,
                }
                token = Token::new(idx, self.generations[idx]);
                seq = conn.next_seq;
                conn.next_seq += 1;
                conn.inflight += 1;
                // Invariant (2): a *complete* frame is the only read-side
                // liveness signal.
                if self.cfg.idle_timeout_ms > 0 {
                    conn.deadline = now + self.cfg.idle_timeout_ms;
                }
            }
            match self.handler.on_frame(token, seq, frame) {
                Action::Reply(payload) => {
                    if !self.complete(token, seq, payload) {
                        return false;
                    }
                }
                Action::Pending => {}
                Action::Close => {
                    self.close(idx);
                    return false;
                }
            }
        }
    }

    /// Queues one reply into its connection's in-order flush — invariant
    /// (3) — and pushes bytes opportunistically. Returns false if the
    /// connection was (or had been) closed.
    fn complete(&mut self, token: Token, seq: u64, payload: Vec<u8>) -> bool {
        if !self.is_live(token) {
            return false; // late completion for a recycled slot: dropped
        }
        let idx = token.idx();
        {
            let Some(conn) = self.slots[idx].as_mut() else { return false };
            conn.parked.insert(seq, payload);
            conn.inflight = conn.inflight.saturating_sub(1);
            while let Some(p) = conn.parked.remove(&conn.next_to_send) {
                conn.wq.push_frame(p);
                conn.next_to_send += 1;
            }
        }
        self.write_phase(idx)
    }

    /// Drains the write queue until empty or the socket would block —
    /// invariant (4): half-written frames stay queued with their offset.
    /// Returns false if the connection was closed.
    fn write_phase(&mut self, idx: usize) -> bool {
        let mut progressed = false;
        loop {
            let Some(conn) = self.slots[idx].as_mut() else { return false };
            if conn.wq.is_empty() {
                break;
            }
            match conn.wq.write_to(&mut conn.sock) {
                Ok(0) => break,
                Ok(_) => progressed = true,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return false;
                }
            }
        }
        if progressed && self.cfg.idle_timeout_ms > 0 {
            // Write progress is the response-side frame-boundary signal: a
            // peer actively draining replies is live — invariant (2).
            let deadline = self.now_ms() + self.cfg.idle_timeout_ms;
            if let Some(conn) = self.slots[idx].as_mut() {
                conn.deadline = deadline;
            }
        }
        true
    }

    /// Post-event bookkeeping: close drained half-open connections, then
    /// reconcile the registered epoll interest with the connection's state
    /// — invariants (4) and (5).
    fn settle(&mut self, idx: usize) {
        let Some(conn) = self.slots[idx].as_ref() else { return };
        let finished = conn.read_closed
            && conn.inflight == 0
            && conn.fsm.ready_frames() == 0
            && conn.parked.is_empty()
            && conn.wq.is_empty();
        if finished {
            self.close(idx);
            return;
        }
        let Some(conn) = self.slots[idx].as_mut() else { return };
        let paused = conn.read_closed
            || conn.inflight >= self.cfg.max_inflight
            || conn.wq.bytes() >= self.cfg.max_write_buffer;
        let mut want = EPOLLRDHUP;
        if !paused {
            want |= EPOLLIN;
        }
        if !conn.wq.is_empty() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            let token = Token::new(idx, self.generations[idx]);
            if self.ep.modify(conn.sock.as_raw_fd(), want, token.0).is_ok() {
                conn.interest = want;
            }
        }
    }

    /// Applies worker completions; each may unblock parked frames on its
    /// connection.
    fn drain_completions(&mut self) {
        while let Ok(c) = self.completions.try_recv() {
            if self.complete(c.token, c.seq, c.payload) {
                let idx = c.token.idx();
                // The in-flight count dropped: frames parked behind the
                // pipeline cap may dispatch now.
                if self.dispatch_frames(idx) {
                    self.settle(idx);
                }
            }
        }
    }

    /// Resolves a wheel candidate: expired connections close — invariant
    /// (2) — refreshed ones re-enter at their true deadline.
    fn check_deadline(&mut self, token: Token, now: u64) {
        if !self.is_live(token) {
            return; // stale wheel entry for a closed connection
        }
        let idx = token.idx();
        let Some(conn) = self.slots[idx].as_ref() else { return };
        if conn.deadline <= now {
            self.metrics.idle_timeouts.inc();
            self.close(idx);
        } else if conn.deadline != u64::MAX {
            self.wheel.insert(token.0, conn.deadline);
        }
    }

    /// Tears one connection down: epoll deregistration, slot recycling
    /// (generation bump), gauge decrement, handler notification.
    fn close(&mut self, idx: usize) {
        let Some(conn) = self.slots.get_mut(idx).and_then(Option::take) else { return };
        let token = Token::new(idx, self.generations[idx]);
        let _ = self.ep.delete(conn.sock.as_raw_fd());
        drop(conn);
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.metrics.conns.dec();
        self.handler.on_close(token);
    }
}
