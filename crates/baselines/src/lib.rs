//! # anonet-baselines
//!
//! Prior-work baselines for the paper's **Table 1** comparison, implemented
//! on the same simulator so round counts and covers are directly comparable
//! with the §3 algorithm:
//!
//! | module | Table 1 row (technique family) | model | weighted | factor | rounds |
//! |--------|-------------------------------|-------|----------|--------|--------|
//! | [`ps3`] | Polishchuk–Suomela \[30\] | port numbering | no | 3 | O(Δ) |
//! | [`id_forest`] | Panconesi–Rizzi-style \[28\] | **unique ids** | yes | 2 | O(Δ + log\*N) |
//! | [`kvy_eps`] | KVY / PY primal–dual \[16\], \[21\]+\[14\] | port numbering | yes | 2+ε | data-dependent (grows with W, 1/ε) |
//! | [`bchs`] | Bar-Yehuda–Censor-Hillel–Schwartzman-style bulk primal–dual | port numbering | yes | 2+ε | data-dependent, weight-scale-free |
//! | [`rand_matching`] | randomized matching \[12\]/\[17\]-style | **randomized** | no | 2 | O(log n) w.h.p. |
//! | [`central`] | Bar-Yehuda–Even \[6\] | centralized | yes | 2 | — |
//!
//! The PN-model rows ([`ps3`], [`kvy_eps`], [`bchs`]) are not just reference
//! code: the service's solver-portfolio registry serves them over the wire
//! next to the paper's own algorithms, each reply carrying a re-checkable
//! Bar-Yehuda–Even certificate (`anonet_core::certify`).
//!
//! Rows *not* implemented (documented in DESIGN.md §2): the randomized
//! weighted LP algorithms \[12, 17\] (represented here by the randomized
//! matching), Hańćkowiak et al. \[13\] (superseded by \[28\] in the comparison),
//! and Åstrand et al. \[2\] (its unweighted O(Δ²) guarantee is this paper's §3
//! restricted to W = 1, which experiment E1 measures directly).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bchs;
pub mod central;
pub mod id_forest;
pub mod kvy_eps;
pub mod ps3;
pub mod rand_matching;

pub use bchs::{run_bchs, run_bchs_scratch};
pub use central::{bar_yehuda_even, greedy_edge_packing, greedy_maximal_matching};
pub use id_forest::run_id_edge_packing;
pub use kvy_eps::{run_kvy, run_kvy_scratch};
pub use ps3::{half_matching_packing, run_ps3, run_ps3_scratch};
pub use rand_matching::run_rand_matching;
