//! # anonet-sim
//!
//! A synchronous anonymous-network simulator implementing the exact
//! computation model of Åstrand & Suomela (SPAA 2010), §1.3:
//!
//! * [`graph::Graph`] — simple undirected communication graphs in CSR layout,
//!   where adjacency-list order *is* the port numbering;
//! * [`model::PnAlgorithm`] / [`model::BcastAlgorithm`] — the port-numbering
//!   and broadcast models, as algorithm traits;
//! * [`delivery::Delivery`] — the **delivery abstraction**: the only two
//!   differences between the models (per-port message vectors with
//!   port-aligned delivery vs. one broadcast received as a canonically
//!   sorted multiset), captured as a trait with zero-sized markers
//!   [`delivery::PortNumbering`] and [`delivery::Broadcast`];
//! * [`engine::Engine`] — the **single** generic round core. [`PnEngine`]
//!   and [`BcastEngine`] are thin typed façades (type aliases) over it, so
//!   the send/receive phase scaffolding, partitioning,
//!   instrumentation and the fault-injection hooks exist exactly once;
//! * [`batch::BatchRunner`] — batched multi-instance execution: one
//!   function mapped over many independent instances across one worker
//!   pool — the "serve many requests" entry point;
//! * [`cover`] — k-fold covering lifts, turning the §7 symmetry theorems into
//!   executable invariants.
//!
//! ## Frontier invariant
//!
//! The engine sweeps only the nodes that have not halted: per-round cost is
//! O(active slots), not O(n + arcs), because a halted node leaves the sweep
//! list at the end of its halting round, its `Msg::default()` slots are
//! written once then, and its per-round [`Trace`] contribution is cached.
//! The **`Trace` semantics are the model's**: message and bit counts follow
//! the all-nodes-send accounting (halted nodes keep sending empty default
//! messages), and property tests assert bit-identical outputs and traces,
//! across pool widths, against a naive reference that sweeps every node.
//!
//! The parallel path fans contiguous node ranges — balanced by arc weight,
//! so skewed-degree graphs don't serialise behind one part — over a
//! **persistent** [`pool::RoundPool`] that the caller owns and the engine
//! borrows, one part per worker, parked on a condvar gate between rounds;
//! the monotone `Delivery::slot_span` keeps each range's message slots a
//! disjoint `&mut` slice, and results are bit-identical to the sequential
//! path. Batches and rounds share one fan-out loop,
//! [`pool::for_each_with`]. Thread counts resolve through [`pool`]: `0` =
//! auto, and the worker width is capped at the machine's available
//! parallelism.
//!
//! The crate contains exactly one `unsafe` block: the lifetime erasure that
//! hands a borrowing phase closure to the persistent workers, sound by the
//! pool's barrier protocol (see [`pool`]'s module docs).

#![deny(unsafe_code)] // sole exception: the audited erasure in `pool`
#![warn(missing_docs)]

pub mod batch;
pub mod bipartite;
pub mod cover;
pub mod delivery;
pub mod engine;
pub mod graph;
pub mod model;
pub mod pool;

pub use batch::BatchRunner;
pub use bipartite::{SetCoverError, SetCoverInstance};
pub use delivery::{
    Broadcast, CanonTable, Delivery, GatherScratch, Outbox, PortNumbering, Senders, WordHasher,
};
pub use engine::{
    run_bcast, run_engine_scratch, run_pn, BcastEngine, Engine, EngineScratch, NoopObserver,
    PnEngine, RoundObserver, RoundStats, RunResult, SimError, Trace,
};
pub use graph::{Graph, GraphError};
pub use model::{BcastAlgorithm, MessageSize, PnAlgorithm};
pub use pool::RoundPool;
