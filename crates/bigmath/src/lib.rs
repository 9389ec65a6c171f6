//! # anonet-bigmath
//!
//! Self-contained arbitrary-precision arithmetic for the `anonet` project —
//! the Rust reproduction of Åstrand & Suomela, *"Fast Distributed
//! Approximation Algorithms for Vertex Cover and Set Cover in Anonymous
//! Networks"* (SPAA 2010).
//!
//! The paper's algorithms manipulate exact rationals whose denominators grow
//! like `(Δ!)^Δ` (Lemma 2) and `(k!)^((D+1)²)` (§4.4); node colours are
//! injective integer encodings of those rationals with up to
//! `Δ·log₂(W·(Δ!)^Δ)` bits. This crate provides:
//!
//! * [`UBig`] — unsigned big integers (schoolbook mul, Knuth-D div, binary gcd),
//! * [`IBig`] — signed big integers,
//! * [`BigRat`] — exact rationals in lowest terms,
//! * [`Rat128`] — fixed-width `i128` rationals, the inline arm of [`AutoRat`],
//! * [`AutoRat`] — exact rationals at `i128` speed that promote to [`BigRat`]
//!   on overflow (the value type every served solve runs on),
//! * [`PackingValue`] — the numeric trait the algorithms are generic over,
//!   implemented by [`BigRat`] and [`AutoRat`].
//!
//! No external bignum dependency is used; everything is implemented here and
//! property-tested against `u128`/`i128` reference semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auto;
pub mod fixed;
pub mod ibig;
pub mod rat;
pub mod ubig;
pub mod value;

pub use auto::AutoRat;
pub use fixed::Rat128;
pub use ibig::{IBig, Sign};
pub use rat::BigRat;
pub use ubig::UBig;
pub use value::PackingValue;
