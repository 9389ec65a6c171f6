//! # anonet-perfbench
//!
//! The service benchmark: one command that starts the real solver server
//! (`anonet_service::Server`) in a child process, drives it over TCP with a
//! seeded workload, checks every answer, and prints end-to-end metrics —
//! or, with `--trace 1`, per-layer metrics from client spans and an
//! in-process replay of the same request stream through the server's
//! layers. README.md documents the workloads and every metric.

#![forbid(unsafe_code)]

pub mod check;
pub mod client;
pub mod pipeline;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;
