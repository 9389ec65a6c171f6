//! # anonet-service
//!
//! A long-lived, multithreaded solver service for the paper's covering
//! problems — the layer that turns the one-shot reproduction binaries into
//! a request/response system: clients submit canonically encoded instances
//! over TCP and receive certified assignments back.
//!
//! The pieces:
//!
//! * [`wire`] — the length-prefixed, versioned binary protocol (full byte
//!   layout in the module docs). Requests name a solver from the portfolio
//!   registry by stable id, an execution mode (sync engine or an
//!   `anonet-runtime` scenario), and carry one or more canonical instance
//!   blobs from `anonet_core::canon`; responses carry the cover assignment,
//!   the exact Bar-Yehuda–Even [`Certificate`] (re-checkable at the edge:
//!   `w(C) ≤ factor · Σy`), and engine/runtime trace statistics — or a
//!   structured error;
//! * [`portfolio`] — the solver registry: one [`SolverDescriptor`] per
//!   servable algorithm (the paper's §3/§4/§5 solvers plus the related-work
//!   baselines PS3, KVY-(2+ε) and BCHS-(2+ε)), consumed by wire decode,
//!   server dispatch, telemetry registration, the load generator, and the
//!   bench bins. Every entry runs one shared solve pipeline (decode, pool
//!   fan-out, solve, certify, encode), so a solver supplies only its
//!   canonical decoder and a per-instance `solve_one` that runs and
//!   certifies it — registering a solver is that function plus one row;
//! * [`server`] — accept loop, one request dispatch shared by both
//!   connection models, bounded job queue with backpressure (a full queue
//!   answers `Busy` + retry-after instead of blocking), and a worker pool
//!   that runs each request through its solver's registry entry, so
//!   responses are bit-identical to direct batch runs;
//! * [`cache`] — an LRU result cache keyed by the canonical instance + mode
//!   bytes, with hit/miss/eviction counters surfaced through the stats
//!   endpoint;
//! * [`client`] — a blocking client plus request-building helpers;
//! * [`telemetry`] — the service's one metrics registry: per-request phase
//!   tracing into `anonet-obs` histograms (read / decode / queue / solve /
//!   encode / write), per-solver solve counters, the stats counters, and
//!   the flight recorder: a ring of the last N request
//!   records dumped as JSON on panic, on a wire debug-dump request, or at
//!   exit;
//! * [`loadgen`] — workload synthesis from `anonet-gen` families and an
//!   open/closed-loop driver reporting throughput and latency percentiles.
//!
//! Everything is `std`-only — no external dependencies, in keeping with the
//! fully offline workspace.
//!
//! ## Quickstart
//!
//! ```no_run
//! use anonet_service::{client, server, wire};
//! use anonet_core::vc_pn::VcInstance;
//! use anonet_gen::family;
//!
//! let srv = server::Server::start("127.0.0.1:0", server::ServiceConfig::default()).unwrap();
//! let g = family::petersen();
//! let w = vec![3u64; 10];
//! let req = client::vc_request(anonet_service::SolverId::VC_PN, &[VcInstance::new(&g, &w)]);
//! let mut c = client::Client::connect(srv.local_addr()).unwrap();
//! match c.solve(&req).unwrap() {
//!     wire::SolveResponse::Ok(results) => println!("{results:?}"),
//!     other => println!("{other:?}"),
//! }
//! srv.shutdown();
//! ```
//!
//! [`Certificate`]: anonet_core::certify::Certificate

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod loadgen;
pub mod portfolio;
mod reactor;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use client::Client;
pub use portfolio::{solvers, InstanceKind, SolverDescriptor, SolverId, SolverModel};
pub use server::{ConnModel, Server, ServiceConfig};
pub use wire::{
    ExecMode, InstanceResult, Scenario, SolveRequest, SolveResponse, Solved, StatsSnapshot,
    WireTrace,
};
