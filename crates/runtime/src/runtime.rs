//! The asynchronous executor: an α-synchronizer driving unchanged
//! [`PnAlgorithm`]/[`BcastAlgorithm`] node programs over a simulated
//! message-passing network.
//!
//! ## Execution model
//!
//! Each node is driven purely by message arrivals. A node entering
//! (1-based) round `r` immediately transmits its round-`r` messages — one
//! per port, each tagged with `r` — and then waits. Every data arrival is
//! acknowledged; unacknowledged messages are retransmitted every
//! [`LossModel::rto`] ticks. Once the node holds a round-`r` message on
//! every port it executes the algorithm's `receive` (gathered through
//! [`Delivery::gather_local`], so port alignment vs. sorted-multiset
//! semantics stay defined in `anonet-sim`) and advances to round `r + 1` or
//! halts.
//!
//! ## Why this is correct (the synchronizer argument)
//!
//! *Round-skew invariant*: a node reaches round `r + 1` only after receiving
//! a round-`r` message from every neighbour, and a neighbour tags messages
//! with the round it is currently in — so if some node is in round `r + 2`,
//! every one of its neighbours has completed round `r + 1`, and neighbouring
//! nodes are never more than one round apart. Consequently a live node only
//! ever sees data tagged `r` or `r + 1`: the current round is consumed
//! directly, the next round is buffered, anything older is an acknowledged
//! duplicate. Each node therefore consumes, for every round, *exactly* the
//! multiset of messages the synchronous engine would deliver — per port for
//! the port-numbering model, canonically sorted for broadcast — and since
//! the algorithms are deterministic the outputs are **bit-identical to the
//! synchronous [`Engine`](anonet_sim::Engine) under every network
//! configuration**, not just the ideal one (property-tested; the
//! zero-delay lossless FIFO case is the acceptance test, the general
//! case is the synchronizer's guarantee). Loss and churn change only *when*
//! messages arrive, never *what* arrives: retransmission is idempotent
//! because the receiver deduplicates by (port, round).
//!
//! A node that halts at round `h` keeps answering: when a round-`r > h`
//! message arrives it replies with `Msg::default()` tagged `r` — exactly
//! the message the synchronous engine's halted nodes keep sending — and that
//! reply goes through the same retransmit-until-acked machinery, so a lost
//! reply cannot deadlock a live neighbour.
//!
//! ## Instrumentation
//!
//! [`MessageSize`] carries over unchanged: [`AsyncTrace`] accounts payload
//! bits of unique receipts (comparable to the synchronous
//! [`Trace`](anonet_sim::Trace) for fixed-schedule algorithms, where every
//! node sends every round), and *separately* accounts retransmitted and
//! dropped transmissions plus the synchronizer's own overhead (round tags
//! and acks) — so instrumentation cannot silently undercount under loss.

use crate::config::NetworkConfig;
use crate::events::{Event, EventKind, EventQueue, Payload};
use anonet_gen::Rng;
use anonet_sim::{
    BcastAlgorithm, Broadcast, Delivery, GatherScratch, Graph, MessageSize, PnAlgorithm,
    PortNumbering, Trace,
};
use std::fmt;

/// Bits of a synchronizer round tag (data messages) and of an ack.
const TAG_BITS: u64 = 64;

/// Instrumentation of an asynchronous run.
///
/// `messages`/`payload_bits`/`max_message_bits` count **unique receipts**
/// (one per delivered (arc, round), duplicates excluded) — for fixed-round-
/// schedule algorithms these equal the synchronous engine's `Trace` counts.
/// Everything the network added on top is accounted separately:
/// retransmissions, drops, acks, and round tags. All fields are pure
/// functions of `(graph, inputs, NetworkConfig)` — two runs with the same
/// seed produce identical traces, including [`event_hash`](Self::event_hash).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AsyncTrace {
    /// Highest completed round over all nodes.
    pub rounds: u64,
    /// Unique data receipts (first delivery of each (arc, round)).
    pub messages: u64,
    /// Payload bits of unique receipts.
    pub payload_bits: u64,
    /// Largest single payload observed, in bits.
    pub max_message_bits: u64,
    /// First-time data transmissions.
    pub sent: u64,
    /// Data arrivals processed by an up node (duplicates included).
    pub delivered: u64,
    /// Delivered data the receiver had already seen (or no longer needed).
    pub duplicates: u64,
    /// Repeat transmissions triggered by retransmission timeouts.
    pub retransmissions: u64,
    /// Payload bits of those retransmissions.
    pub retransmitted_bits: u64,
    /// Data transmissions lost to link loss or a crashed receiver.
    pub dropped_data: u64,
    /// Payload bits of lost data transmissions.
    pub dropped_data_bits: u64,
    /// Acknowledgement transmissions.
    pub acks: u64,
    /// Bits spent on acknowledgements.
    pub ack_bits: u64,
    /// Acks lost to link loss or a crashed receiver.
    pub dropped_acks: u64,
    /// Bits spent on data round tags (every transmission, retransmissions
    /// included).
    pub tag_bits: u64,
    /// Churn: crash events applied.
    pub crashes: u64,
    /// Churn: restart events applied.
    pub restarts: u64,
    /// Events processed by the loop.
    pub events: u64,
    /// Virtual time of the last processed event, in ticks.
    pub virtual_time: u64,
    /// FNV-1a digest of the processed event sequence (times, kinds,
    /// endpoints, rounds) — the compact witness for seeded determinism.
    pub event_hash: u64,
}

impl AsyncTrace {
    /// Bits the synchronizer itself added on the wire: round tags plus acks.
    /// Dividing by [`payload_bits`](Self::payload_bits) gives the overhead
    /// ratio the `perf_baseline` rows report.
    pub fn sync_overhead_bits(&self) -> u64 {
        self.tag_bits + self.ack_bits
    }

    /// The algorithm-level view as a synchronous [`Trace`], for
    /// instrumentation consumers that predate the runtime: unique receipts
    /// and their payload bits. For fixed-round-schedule algorithms under any
    /// lossless-or-retransmitting configuration this equals the synchronous
    /// engine's trace.
    pub fn delivered_trace(&self) -> Trace {
        Trace {
            rounds: self.rounds,
            messages: self.messages,
            total_bits: self.payload_bits,
            max_message_bits: self.max_message_bits,
        }
    }

    /// Exports the trace into an `anonet-obs` registry as `runtime.*`
    /// gauges — the bridge from the runtime's own accounting to the
    /// workspace metrics schema ([`anonet_obs::Snapshot::to_json`], the
    /// service's metrics frame). Gauges, not counters: a trace is a
    /// consistent snapshot of one run, and re-exporting a newer trace
    /// overwrites rather than double-counts. Purely logical quantities —
    /// no wall clock is involved, so this is callable from deterministic
    /// code. The default is simply not to call it: the runtime itself never
    /// touches a registry.
    pub fn export_metrics(&self, registry: &anonet_obs::Registry) {
        for (name, value) in [
            ("runtime.rounds", self.rounds),
            ("runtime.messages", self.messages),
            ("runtime.payload_bits", self.payload_bits),
            ("runtime.max_message_bits", self.max_message_bits),
            ("runtime.sent", self.sent),
            ("runtime.delivered", self.delivered),
            ("runtime.duplicates", self.duplicates),
            ("runtime.retransmissions", self.retransmissions),
            ("runtime.retransmitted_bits", self.retransmitted_bits),
            ("runtime.dropped_data", self.dropped_data),
            ("runtime.dropped_data_bits", self.dropped_data_bits),
            ("runtime.acks", self.acks),
            ("runtime.ack_bits", self.ack_bits),
            ("runtime.dropped_acks", self.dropped_acks),
            ("runtime.tag_bits", self.tag_bits),
            ("runtime.sync_overhead_bits", self.sync_overhead_bits()),
            ("runtime.crashes", self.crashes),
            ("runtime.restarts", self.restarts),
            ("runtime.events", self.events),
            ("runtime.virtual_time", self.virtual_time),
            ("runtime.event_hash", self.event_hash),
        ] {
            registry.gauge(name).set(value);
        }
    }
}

/// Errors from an asynchronous run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsyncError {
    /// The number of inputs does not match the number of nodes.
    InputLength {
        /// Number of inputs provided.
        got: usize,
        /// Number of nodes in the graph.
        want: usize,
    },
    /// Some node completed `limit` rounds without halting.
    RoundLimit {
        /// The round limit.
        limit: u64,
        /// Nodes halted when the limit was hit.
        halted: usize,
        /// Total number of nodes.
        n: usize,
    },
    /// The configured event budget was exhausted.
    EventLimit {
        /// The event budget.
        limit: u64,
        /// Nodes halted when the budget ran out.
        halted: usize,
        /// Total number of nodes.
        n: usize,
    },
    /// The event queue drained before every node halted — unreachable for a
    /// well-formed configuration (kept total rather than panicking).
    Stalled {
        /// Nodes halted at the stall.
        halted: usize,
        /// Total number of nodes.
        n: usize,
    },
}

impl fmt::Display for AsyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsyncError::InputLength { got, want } => {
                write!(f, "got {got} inputs for {want} nodes")
            }
            AsyncError::RoundLimit { limit, halted, n } => {
                write!(f, "round limit {limit} reached with only {halted}/{n} nodes halted")
            }
            AsyncError::EventLimit { limit, halted, n } => {
                write!(f, "event limit {limit} reached with only {halted}/{n} nodes halted")
            }
            AsyncError::Stalled { halted, n } => {
                write!(f, "event queue drained with only {halted}/{n} nodes halted")
            }
        }
    }
}

impl std::error::Error for AsyncError {}

/// Outputs plus instrumentation from a completed asynchronous run.
#[derive(Clone, Debug)]
pub struct AsyncResult<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Instrumentation.
    pub trace: AsyncTrace,
}

/// Per-node runtime state wrapped around the algorithm state.
struct NodeRt<A, D: Delivery<A>> {
    state: A,
    /// Round currently executing (1-based); after halting, the halt round.
    round: u64,
    halted: Option<D::Output>,
    /// Churn: whether the node is currently up.
    up: bool,
    /// Send-slot buffer for the current round (degree slots for port
    /// numbering, one for broadcast — [`Delivery::slot_span`] decides).
    outbox: Vec<D::Msg>,
    /// Per-port inbox of the current round (`have_cur` marks filled slots).
    inbox_cur: Vec<D::Msg>,
    have_cur: Vec<bool>,
    got_cur: usize,
    /// Per-port inbox of the *next* round (neighbours may run one ahead).
    inbox_next: Vec<D::Msg>,
    have_next: Vec<bool>,
    got_next: usize,
    /// Unacknowledged transmissions `(port, round, message)` — resent every
    /// rto until acked. Tracked only when the configuration can lose
    /// messages.
    outstanding: Vec<(u32, u64, D::Msg)>,
    /// After halting: per port, the highest round already answered with a
    /// default reply (persistent dedup — a stale re-request must be neither
    /// re-counted nor re-served). Empty while the node is live.
    served: Vec<u64>,
    /// Retransmission-timer generation (stale timeout events are skipped)
    /// and whether a timer is currently scheduled.
    timer_gen: u64,
    timer_armed: bool,
}

/// An in-flight asynchronous execution, generic over the delivery model `D`
/// exactly like the synchronous [`Engine`](anonet_sim::Engine) — every
/// existing algorithm runs unmodified.
pub struct AsyncRuntime<'a, A, D: Delivery<A>> {
    g: &'a Graph,
    cfg: &'a D::Config,
    net: NetworkConfig,
    max_rounds: u64,
    nodes: Vec<NodeRt<A, D>>,
    queue: EventQueue<D::Msg>,
    rng: Rng,
    /// Per-arc base latency (all zero unless `DelayModel::PerLink`).
    link_base: Vec<u64>,
    /// Per-arc latest scheduled arrival, for the FIFO clamp.
    last_arrival: Vec<u64>,
    halted: usize,
    /// Reusable rank/count tables for `Delivery::gather_local` (broadcast
    /// counting canonicalisation; unused by port numbering).
    gather_gs: GatherScratch,
    trace: AsyncTrace,
}

impl<'a, A, D: Delivery<A>> AsyncRuntime<'a, A, D> {
    /// Initialises every node (via the model's own `init`) and schedules the
    /// scripted churn events. No messages are sent yet — [`run`](Self::run)
    /// performs the round-1 transmissions.
    pub fn new(
        g: &'a Graph,
        cfg: &'a D::Config,
        inputs: &[D::Input],
        max_rounds: u64,
        net: &NetworkConfig,
    ) -> Result<Self, AsyncError> {
        if inputs.len() != g.n() {
            return Err(AsyncError::InputLength { got: inputs.len(), want: g.n() });
        }
        assert!(g.n() <= u32::MAX as usize, "runtime supports at most 2^32 - 1 nodes");
        let mut rng = Rng::new(net.seed);
        let link_base: Vec<u64> =
            (0..g.arcs()).map(|_| net.delays.sample_link_base(&mut rng)).collect();
        let nodes: Vec<NodeRt<A, D>> = (0..g.n())
            .map(|v| {
                let deg = g.degree(v);
                let slots = D::slot_span(g, v..v + 1).len();
                NodeRt {
                    state: D::init(cfg, deg, &inputs[v]),
                    round: 1,
                    halted: None,
                    up: true,
                    outbox: (0..slots).map(|_| D::Msg::default()).collect(),
                    inbox_cur: (0..deg).map(|_| D::Msg::default()).collect(),
                    have_cur: vec![false; deg],
                    got_cur: 0,
                    inbox_next: (0..deg).map(|_| D::Msg::default()).collect(),
                    have_next: vec![false; deg],
                    got_next: 0,
                    outstanding: Vec::new(),
                    served: Vec::new(),
                    timer_gen: 0,
                    timer_armed: false,
                }
            })
            .collect();
        let mut queue = EventQueue::new();
        if let Some(churn) = &net.churn {
            // Victim selection uses the same `FaultPlan::victims` rule as the
            // self-stabilization strikes (per-strike sets still differ from a
            // transformer run, whose rng interleaves scramble draws).
            let mut crng = Rng::new(churn.plan.seed);
            for &r in &churn.plan.rounds {
                let t = churn.round_ticks.saturating_mul(r);
                for v in churn.plan.victims(g.n(), &mut crng) {
                    queue.push(t, EventKind::Crash { node: v as u32 });
                    queue.push(t + churn.downtime, EventKind::Restart { node: v as u32 });
                }
            }
        }
        Ok(AsyncRuntime {
            g,
            cfg,
            net: net.clone(),
            max_rounds,
            nodes,
            queue,
            rng,
            link_base,
            last_arrival: vec![0; g.arcs()],
            halted: 0,
            gather_gs: GatherScratch::default(),
            trace: AsyncTrace {
                // FNV-1a offset basis; every processed event folds in.
                event_hash: 0xCBF2_9CE4_8422_2325,
                ..AsyncTrace::default()
            },
        })
    }

    /// Events currently scheduled (timers, in-flight messages, churn).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Instrumentation so far.
    pub fn trace(&self) -> &AsyncTrace {
        &self.trace
    }

    /// Number of nodes that have halted.
    pub fn halted(&self) -> usize {
        self.halted
    }

    /// Runs the event loop to completion.
    pub fn run(mut self) -> Result<AsyncResult<D::Output>, AsyncError> {
        let n = self.g.n();
        // Round-1 transmissions, in node order at time 0.
        for v in 0..n {
            self.emit_round(v, 0);
        }
        // Isolated nodes are driven by nothing — advance them directly.
        for v in 0..n {
            if self.g.degree(v) == 0 {
                self.advance(v, 0)?;
            }
        }
        while self.halted < n {
            let Some(ev) = self.queue.pop() else {
                return Err(AsyncError::Stalled { halted: self.halted, n });
            };
            if self.trace.events >= self.net.max_events {
                return Err(AsyncError::EventLimit {
                    limit: self.net.max_events,
                    halted: self.halted,
                    n,
                });
            }
            self.trace.events += 1;
            self.trace.virtual_time = ev.time;
            self.hash_event(&ev);
            match ev.kind {
                EventKind::Arrival { node, port, payload } => {
                    self.on_arrival(node as usize, port as usize, payload, ev.time)?;
                }
                EventKind::Timeout { node, gen } => self.on_timeout(node as usize, gen, ev.time),
                EventKind::Crash { node } => self.on_crash(node as usize),
                EventKind::Restart { node } => self.on_restart(node as usize, ev.time),
            }
        }
        let outputs = self.nodes.into_iter().map(|nd| nd.halted.expect("all halted")).collect();
        Ok(AsyncResult { outputs, trace: self.trace })
    }

    /// Folds one event into the deterministic trace digest (FNV-1a; the
    /// basis is seeded at construction).
    fn hash_event(&mut self, ev: &Event<D::Msg>) {
        fn fold(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let mut h = self.trace.event_hash;
        fold(&mut h, ev.time);
        match &ev.kind {
            EventKind::Arrival { node, port, payload } => {
                let (tag, round) = match payload {
                    Payload::Data { round, .. } => (1u64, *round),
                    Payload::Ack { round } => (2, *round),
                };
                fold(&mut h, tag);
                fold(&mut h, u64::from(*node) << 32 | u64::from(*port));
                fold(&mut h, round);
            }
            EventKind::Timeout { node, gen } => {
                fold(&mut h, 3);
                fold(&mut h, u64::from(*node));
                fold(&mut h, *gen);
            }
            EventKind::Crash { node } => {
                fold(&mut h, 4);
                fold(&mut h, u64::from(*node));
            }
            EventKind::Restart { node } => {
                fold(&mut h, 5);
                fold(&mut h, u64::from(*node));
            }
        }
        self.trace.event_hash = h;
    }

    /// The shared link layer: loss coin flip, latency sample, FIFO clamp,
    /// arrival scheduling. Returns `false` when the transmission was
    /// dropped. Data and acks route identically — any change to link
    /// semantics lives here once.
    fn transmit(&mut self, from: usize, port: usize, payload: Payload<D::Msg>, now: u64) -> bool {
        if self.net.loss.drop_prob > 0.0 && self.rng.chance(self.net.loss.drop_prob) {
            return false;
        }
        let a = self.g.arc(from, port);
        let to = self.g.head(a) as u32;
        let to_port = self.g.port_of(self.g.rev(a)) as u32;
        let mut t = now + self.net.delays.sample(self.link_base[a], &mut self.rng);
        if self.net.fifo {
            t = t.max(self.last_arrival[a]);
            self.last_arrival[a] = t;
        }
        self.queue.push(t, EventKind::Arrival { node: to, port: to_port, payload });
        true
    }

    /// Transmits one data message on `(from, port)` with wire accounting.
    fn send_data(
        &mut self,
        from: usize,
        port: usize,
        round: u64,
        msg: D::Msg,
        retx: bool,
        now: u64,
    ) {
        let bits = msg.approx_bits();
        if retx {
            self.trace.retransmissions += 1;
            self.trace.retransmitted_bits += bits;
        } else {
            self.trace.sent += 1;
        }
        self.trace.tag_bits += TAG_BITS;
        if !self.transmit(from, port, Payload::Data { round, msg }, now) {
            self.trace.dropped_data += 1;
            self.trace.dropped_data_bits += bits;
        }
    }

    /// Transmits one ack on `(from, port)` for the given round tag.
    fn send_ack(&mut self, from: usize, port: usize, round: u64, now: u64) {
        self.trace.acks += 1;
        self.trace.ack_bits += TAG_BITS;
        if !self.transmit(from, port, Payload::Ack { round }, now) {
            self.trace.dropped_acks += 1;
        }
    }

    /// Computes and transmits node `v`'s current-round messages (one per
    /// port), registering them for retransmission when the network can lose
    /// them.
    fn emit_round(&mut self, v: usize, now: u64) {
        let deg = self.g.degree(v);
        let track = self.net.needs_timers();
        let nd = &mut self.nodes[v];
        let round = nd.round;
        for slot in nd.outbox.iter_mut() {
            *slot = D::Msg::default();
        }
        D::send(&nd.state, self.cfg, round, &mut nd.outbox);
        // Take the outbox out of the node so transmissions can borrow the
        // runtime mutably; the per-port message clones are inherent (the
        // queue, and the retransmission set when tracking, own their copies).
        let outbox = std::mem::take(&mut nd.outbox);
        for p in 0..deg {
            let msg = outbox[if outbox.len() == 1 { 0 } else { p }].clone();
            if track {
                self.nodes[v].outstanding.push((p as u32, round, msg.clone()));
            }
            self.send_data(v, p, round, msg, false, now);
        }
        self.nodes[v].outbox = outbox;
        if track && deg > 0 {
            self.arm_timer(v, now);
        }
    }

    /// Schedules (at most one) retransmission timer for node `v`.
    fn arm_timer(&mut self, v: usize, now: u64) {
        if !self.net.needs_timers() {
            return;
        }
        let rto = self.net.loss.rto;
        let nd = &mut self.nodes[v];
        if nd.timer_armed {
            return;
        }
        nd.timer_gen += 1;
        nd.timer_armed = true;
        let gen = nd.timer_gen;
        self.queue.push(now + rto, EventKind::Timeout { node: v as u32, gen });
    }

    fn on_arrival(
        &mut self,
        node: usize,
        port: usize,
        payload: Payload<D::Msg>,
        now: u64,
    ) -> Result<(), AsyncError> {
        if !self.nodes[node].up {
            // Crashed receiver: the transmission is lost; the sender's
            // retransmission timer recovers it after the restart.
            match payload {
                Payload::Data { msg, .. } => {
                    self.trace.dropped_data += 1;
                    self.trace.dropped_data_bits += msg.approx_bits();
                }
                Payload::Ack { .. } => self.trace.dropped_acks += 1,
            }
            return Ok(());
        }
        match payload {
            Payload::Ack { round } => {
                let nd = &mut self.nodes[node];
                nd.outstanding.retain(|(p, r, _)| !(*p == port as u32 && *r == round));
                Ok(())
            }
            Payload::Data { round, msg } => self.on_data(node, port, round, msg, now),
        }
    }

    fn on_data(
        &mut self,
        node: usize,
        port: usize,
        mr: u64,
        msg: D::Msg,
        now: u64,
    ) -> Result<(), AsyncError> {
        let nd = &self.nodes[node];
        let live = nd.halted.is_none();
        let r = nd.round;
        if live && mr > r + 1 {
            // Unreachable by the round-skew invariant; dropped *without* an
            // ack so the sender retries once we catch up (totality).
            debug_assert!(false, "round skew > 1: node {node} at {r} got round {mr}");
            self.trace.dropped_data += 1;
            self.trace.dropped_data_bits += msg.approx_bits();
            return Ok(());
        }
        self.trace.delivered += 1;
        self.send_ack(node, port, mr, now);
        if !live {
            // Halted at round `r`: serve `Msg::default()` for rounds the
            // neighbour still needs — the same message the synchronous
            // engine's halted nodes keep sending — through the normal
            // retransmission machinery (a lost reply must not deadlock the
            // neighbour).
            let track = self.net.needs_timers();
            let nd = &mut self.nodes[node];
            // `served[port]` is a persistent watermark: a request round at or
            // below it was already answered (and its receipt counted) — a
            // stale retransmission must be neither re-counted nor re-served.
            if mr > r && mr > nd.served[port] {
                nd.served[port] = mr;
                if track {
                    nd.outstanding.push((port as u32, mr, D::Msg::default()));
                }
                // The neighbour's message *was* received (then discarded): a
                // unique receipt of its payload.
                self.count_unique(msg.approx_bits());
                self.send_data(node, port, mr, D::Msg::default(), false, now);
                if track {
                    self.arm_timer(node, now);
                }
            } else {
                self.trace.duplicates += 1;
            }
            return Ok(());
        }
        let bits = msg.approx_bits();
        let nd = &mut self.nodes[node];
        if mr == r {
            if !nd.have_cur[port] {
                nd.have_cur[port] = true;
                nd.inbox_cur[port] = msg;
                nd.got_cur += 1;
                let complete = nd.got_cur == self.g.degree(node);
                self.count_unique(bits);
                if complete {
                    return self.advance(node, now);
                }
            } else {
                self.trace.duplicates += 1;
            }
        } else if mr == r + 1 {
            if !nd.have_next[port] {
                nd.have_next[port] = true;
                nd.inbox_next[port] = msg;
                nd.got_next += 1;
                self.count_unique(bits);
            } else {
                self.trace.duplicates += 1;
            }
        } else {
            // mr < r: a retransmitted copy of an already-consumed round.
            self.trace.duplicates += 1;
        }
        Ok(())
    }

    /// Accounts one unique data receipt of the given payload size.
    fn count_unique(&mut self, bits: u64) {
        self.trace.messages += 1;
        self.trace.payload_bits += bits;
        self.trace.max_message_bits = self.trace.max_message_bits.max(bits);
    }

    /// Executes rounds at node `v` for as long as its current-round inbox is
    /// complete: receive, then either halt or advance and transmit the next
    /// round. Isolated nodes loop here until they halt (or overrun the
    /// round limit, which is an immediate error — such a node can never
    /// halt).
    fn advance(&mut self, v: usize, now: u64) -> Result<(), AsyncError> {
        let deg = self.g.degree(v);
        loop {
            let nd = &mut self.nodes[v];
            debug_assert!(nd.halted.is_none() && nd.got_cur == deg);
            let round = nd.round;
            if round > self.max_rounds {
                return Err(AsyncError::RoundLimit {
                    limit: self.max_rounds,
                    halted: self.halted,
                    n: self.g.n(),
                });
            }
            let mut scratch: Vec<&D::Msg> = Vec::with_capacity(deg);
            D::gather_local(&nd.inbox_cur, &mut self.gather_gs, &mut scratch);
            let out = D::receive(&mut nd.state, self.cfg, round, &scratch);
            drop(scratch);
            self.trace.rounds = self.trace.rounds.max(round);
            if let Some(o) = out {
                nd.halted = Some(o);
                self.halted += 1;
                // Answer the round-(h+1) messages already buffered in the
                // next-round inbox: their senders were acked at arrival and
                // will never retransmit, so without an eager default reply a
                // live neighbour would deadlock waiting on this port. Their
                // receipts were counted at arrival, so the served watermark
                // starts at h+1 for exactly those ports.
                let reply_round = round + 1;
                nd.served = vec![0; deg];
                let pending: Vec<usize> =
                    (0..deg).filter(|&p| self.nodes[v].have_next[p]).collect();
                let track = self.net.needs_timers();
                {
                    let nd = &mut self.nodes[v];
                    for &p in &pending {
                        nd.served[p] = reply_round;
                        if track {
                            nd.outstanding.push((p as u32, reply_round, D::Msg::default()));
                        }
                    }
                }
                let any = !pending.is_empty();
                for p in pending {
                    self.send_data(v, p, reply_round, D::Msg::default(), false, now);
                }
                if track && any {
                    self.arm_timer(v, now);
                }
                return Ok(());
            }
            // Advance: rotate the next-round inbox in and transmit.
            nd.round = round + 1;
            std::mem::swap(&mut nd.inbox_cur, &mut nd.inbox_next);
            std::mem::swap(&mut nd.have_cur, &mut nd.have_next);
            nd.got_cur = nd.got_next;
            nd.got_next = 0;
            for (slot, have) in nd.inbox_next.iter_mut().zip(nd.have_next.iter_mut()) {
                *slot = D::Msg::default();
                *have = false;
            }
            self.emit_round(v, now);
            if deg > 0 && self.nodes[v].got_cur < deg {
                return Ok(());
            }
        }
    }

    fn on_timeout(&mut self, v: usize, gen: u64, now: u64) {
        let nd = &mut self.nodes[v];
        if gen != nd.timer_gen {
            return; // stale (cancelled by a crash or superseded)
        }
        nd.timer_armed = false;
        if !nd.up || nd.outstanding.is_empty() {
            return;
        }
        let resend = nd.outstanding.clone();
        self.arm_timer(v, now);
        for (p, r, m) in resend {
            self.send_data(v, p as usize, r, m, true, now);
        }
    }

    fn on_crash(&mut self, v: usize) {
        let nd = &mut self.nodes[v];
        if !nd.up {
            return; // overlapping strikes: already down
        }
        nd.up = false;
        // Cancel the retransmission timer; state survives (crash-recovery
        // with stable storage).
        nd.timer_gen += 1;
        nd.timer_armed = false;
        self.trace.crashes += 1;
    }

    fn on_restart(&mut self, v: usize, now: u64) {
        let nd = &mut self.nodes[v];
        if nd.up {
            return;
        }
        nd.up = true;
        self.trace.restarts += 1;
        let resend = nd.outstanding.clone();
        if !resend.is_empty() {
            self.arm_timer(v, now);
            for (p, r, m) in resend {
                self.send_data(v, p as usize, r, m, true, now);
            }
        }
    }
}

/// Runs an algorithm to completion under delivery model `D` on the
/// asynchronous runtime — the generic core behind [`run_async_pn`] /
/// [`run_async_bcast`], mirroring
/// [`run_engine_scratch`](anonet_sim::run_engine_scratch).
pub fn run_async_engine<A, D: Delivery<A>>(
    g: &Graph,
    cfg: &D::Config,
    inputs: &[D::Input],
    max_rounds: u64,
    net: &NetworkConfig,
) -> Result<AsyncResult<D::Output>, AsyncError> {
    AsyncRuntime::<A, D>::new(g, cfg, inputs, max_rounds, net)?.run()
}

/// Runs a port-numbering algorithm to completion on the asynchronous
/// runtime.
pub fn run_async_pn<A: PnAlgorithm>(
    g: &Graph,
    cfg: &A::Config,
    inputs: &[A::Input],
    max_rounds: u64,
    net: &NetworkConfig,
) -> Result<AsyncResult<A::Output>, AsyncError> {
    run_async_engine::<A, PortNumbering>(g, cfg, inputs, max_rounds, net)
}

/// Runs a broadcast algorithm to completion on the asynchronous runtime.
pub fn run_async_bcast<A: BcastAlgorithm>(
    g: &Graph,
    cfg: &A::Config,
    inputs: &[A::Input],
    max_rounds: u64,
    net: &NetworkConfig,
) -> Result<AsyncResult<A::Output>, AsyncError> {
    run_async_engine::<A, Broadcast>(g, cfg, inputs, max_rounds, net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChurnPlan, DelayModel};
    use anonet_selfstab::FaultPlan;
    use anonet_sim::run_pn;

    /// Gossip the running maximum; halt at the round carried in the input's
    /// low byte (mirrors the engine bench workload).
    struct Gossip {
        best: u64,
        halt_at: u64,
    }

    impl PnAlgorithm for Gossip {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Config = ();

        fn init(_: &(), _degree: usize, input: &u64) -> Self {
            Gossip { best: *input >> 8, halt_at: (*input & 0xFF).max(1) }
        }
        fn send(&self, _: &(), _round: u64, out: &mut [u64]) {
            for m in out {
                *m = self.best;
            }
        }
        fn receive(&mut self, _: &(), round: u64, incoming: &[&u64]) -> Option<u64> {
            for &&m in incoming {
                self.best = self.best.max(m);
            }
            (round >= self.halt_at).then_some(self.best)
        }
    }

    fn inputs(n: usize, halt: impl Fn(u64) -> u64) -> Vec<u64> {
        (0..n as u64).map(|v| (v << 8) | (halt(v) & 0xFF)).collect()
    }

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn ideal_matches_sync_engine() {
        let g = ring(16);
        let ins = inputs(16, |v| v % 5 + 1);
        let sync = run_pn::<Gossip>(&g, &(), &ins, 20).unwrap();
        let res = run_async_pn::<Gossip>(&g, &(), &ins, 20, &NetworkConfig::ideal()).unwrap();
        assert_eq!(res.outputs, sync.outputs);
    }

    #[test]
    fn trace_exports_to_metrics_registry() {
        let g = ring(16);
        let ins = inputs(16, |v| v % 5 + 1);
        let res = run_async_pn::<Gossip>(&g, &(), &ins, 20, &NetworkConfig::ideal()).unwrap();
        let reg = anonet_obs::Registry::new();
        res.trace.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.scalar("runtime.rounds"), Some(res.trace.rounds));
        assert_eq!(snap.scalar("runtime.messages"), Some(res.trace.messages));
        assert_eq!(snap.scalar("runtime.event_hash"), Some(res.trace.event_hash));
        assert_eq!(snap.scalar("runtime.sync_overhead_bits"), Some(res.trace.sync_overhead_bits()));
        // Re-exporting a trace overwrites: gauges, not counters.
        res.trace.export_metrics(&reg);
        assert_eq!(reg.snapshot().scalar("runtime.rounds"), Some(res.trace.rounds));
    }

    #[test]
    fn lossy_jittered_still_matches_sync_outputs() {
        let g = ring(12);
        let ins = inputs(12, |v| v % 4 + 2);
        let sync = run_pn::<Gossip>(&g, &(), &ins, 20).unwrap();
        let net = NetworkConfig::ideal()
            .with_delays(DelayModel::Uniform { lo: 0, hi: 9 })
            .with_loss(0.2, 4)
            .non_fifo()
            .with_seed(99);
        let res = run_async_pn::<Gossip>(&g, &(), &ins, 20, &net).unwrap();
        assert_eq!(res.outputs, sync.outputs);
        assert!(res.trace.dropped_data > 0, "20% loss must drop something");
        assert!(res.trace.retransmissions > 0, "drops must trigger retransmissions");
    }

    #[test]
    fn churn_delays_but_does_not_corrupt() {
        let g = ring(10);
        let ins = inputs(10, |_| 6);
        let sync = run_pn::<Gossip>(&g, &(), &ins, 20).unwrap();
        let churn = ChurnPlan {
            plan: FaultPlan { rounds: vec![1, 2], fraction: 0.3, seed: 7 },
            round_ticks: 3,
            downtime: 11,
        };
        // Nonzero latency so the run spans virtual time and the scripted
        // crash instants actually fall inside it.
        let net = NetworkConfig::ideal()
            .with_delays(DelayModel::Constant(2))
            .with_loss(0.0, 4)
            .with_churn(churn)
            .with_seed(5);
        let res = run_async_pn::<Gossip>(&g, &(), &ins, 20, &net).unwrap();
        assert_eq!(res.outputs, sync.outputs);
        assert!(res.trace.crashes > 0 && res.trace.restarts > 0);
    }

    #[test]
    fn isolated_nodes_advance_and_halt() {
        let g = Graph::from_edges(3, &[]).unwrap();
        let res = run_async_pn::<Gossip>(&g, &(), &inputs(3, |_| 4), 10, &NetworkConfig::ideal())
            .unwrap();
        assert_eq!(res.outputs, vec![0, 1, 2]);
        assert_eq!(res.trace.rounds, 4);
    }

    #[test]
    fn round_limit_error() {
        let g = ring(4);
        let err = run_async_pn::<Gossip>(&g, &(), &inputs(4, |_| 9), 3, &NetworkConfig::ideal())
            .unwrap_err();
        assert_eq!(err, AsyncError::RoundLimit { limit: 3, halted: 0, n: 4 });
    }

    #[test]
    fn input_length_error() {
        let g = ring(4);
        let err = run_async_pn::<Gossip>(&g, &(), &[0, 0], 3, &NetworkConfig::ideal()).unwrap_err();
        assert_eq!(err, AsyncError::InputLength { got: 2, want: 4 });
    }

    #[test]
    fn event_limit_error() {
        let g = ring(8);
        let net = NetworkConfig::ideal().with_max_events(5);
        let err = run_async_pn::<Gossip>(&g, &(), &inputs(8, |_| 4), 10, &net).unwrap_err();
        assert!(matches!(err, AsyncError::EventLimit { limit: 5, .. }));
    }

    #[test]
    fn seeded_determinism_whole_trace() {
        let g = ring(14);
        let ins = inputs(14, |v| v % 3 + 2);
        let net = NetworkConfig::ideal()
            .with_delays(DelayModel::Exponential { mean: 6 })
            .with_loss(0.1, 5)
            .with_seed(1234);
        let a = run_async_pn::<Gossip>(&g, &(), &ins, 30, &net).unwrap();
        let b = run_async_pn::<Gossip>(&g, &(), &ins, 30, &net).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.trace, b.trace);
        let other =
            run_async_pn::<Gossip>(&g, &(), &ins, 30, &net.clone().with_seed(4321)).unwrap();
        assert_ne!(a.trace.event_hash, other.trace.event_hash, "different seed, different trace");
    }

    #[test]
    fn ideal_trace_matches_sync_for_uniform_halting() {
        // Uniform halting round: every node sends every round, so unique
        // receipts coincide with the synchronous all-nodes-send accounting.
        let g = ring(9);
        let ins = inputs(9, |_| 5);
        let sync = run_pn::<Gossip>(&g, &(), &ins, 10).unwrap();
        let res = run_async_pn::<Gossip>(&g, &(), &ins, 10, &NetworkConfig::ideal()).unwrap();
        assert_eq!(res.trace.delivered_trace(), sync.trace);
        assert_eq!(res.trace.duplicates, 0);
        assert_eq!(res.trace.retransmissions, 0);
        assert_eq!(res.trace.acks, res.trace.sent);
    }
}
