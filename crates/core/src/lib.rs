//! # anonet-core
//!
//! Reference implementation of Åstrand & Suomela, *"Fast Distributed
//! Approximation Algorithms for Vertex Cover and Set Cover in Anonymous
//! Networks"* (SPAA 2010):
//!
//! * [`vc_pn`] — §3: maximal edge packing / 2-approximate minimum-weight
//!   vertex cover in O(Δ + log\*W) rounds, port-numbering model;
//! * [`sc_bcast`] — §4: maximal fractional packing / f-approximate
//!   minimum-weight set cover in O(f²k² + fk·log\*W) rounds, broadcast model;
//! * [`vc_bcast`] — §5: the history-replay simulation giving a maximal edge
//!   packing in O(Δ² + Δ·log\*W) broadcast rounds on G itself;
//! * [`trivial`] — the folklore k-approximation for set cover (§2, §6);
//! * [`packing`], [`certify`] — dual objects and machine-checkable
//!   approximation certificates;
//! * [`encode`] — Lemma 2 colour encodings and Cole–Vishkin primitives;
//! * [`canon`] — canonical instance byte encodings, stable FNV digests, and
//!   certificate serialization (the service layer's wire substrate).
//!
//! All algorithms are deterministic, anonymous (no node identifiers), and
//! generic over the exact numeric type [`anonet_bigmath::PackingValue`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod certify;
pub mod encode;
pub mod packing;
pub mod sc_bcast;
pub mod trivial;
pub mod vc_bcast;
pub mod vc_pn;

pub use packing::{EdgePacking, FractionalPacking};
pub use vc_pn::{run_edge_packing, VcConfig, VcRun};
