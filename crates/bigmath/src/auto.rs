//! Self-promoting exact rationals: `Rat128` speed with `BigRat` safety.
//!
//! [`AutoRat`] is the engine's fixed-width weight fast path. A value starts
//! in the [`Rat128`] arm and every arithmetic op first tries the
//! non-panicking `checked_*` fixed-width routines; only when an intermediate
//! would overflow `i128` does the op re-run in [`BigRat`] and the value
//! *promote* to the heap arm. Conversely, after every big-arm op the result
//! is *demoted* back to the fixed arm when it fits again.
//!
//! ## Canonical-arm invariant
//!
//! A value representable as `Rat128` (numerator in
//! `(i128::MIN, i128::MAX]`, denominator `≤ i128::MAX`) is **always** stored
//! in the `Fix` arm; the `Big` arm holds only values that do not fit. Both
//! arms keep lowest-terms, positive-denominator components, so a number has
//! exactly one representation and the *derived* `PartialEq`/`Eq`/`Hash` are
//! numerically correct — which the packing algorithms rely on for
//! colour-from-value equality (paper §3.2, §4.4).
//!
//! `Ord` is implemented manually: the common `Fix`/`Fix` case uses the
//! overflow-checked cross-multiplication and falls back to wide comparison
//! only when that overflows; mixed arms compare through `BigRat`.
//!
//! `wire_bits` agrees across arms for the same value (sign bit + component
//! magnitudes), so instrumentation traces are bit-identical to an
//! all-`BigRat` run regardless of which arm a value happens to occupy.

use crate::fixed::Rat128;
use crate::ibig::IBig;
use crate::rat::BigRat;
use crate::ubig::UBig;
use crate::value::PackingValue;
use std::cmp::Ordering;
use std::fmt;

/// Exact rational that transparently promotes from `i128` components to
/// arbitrary precision on overflow, and demotes back when it fits.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AutoRat(Repr);

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Repr {
    /// Fixed-width arm; holds every value that fits (canonical-arm invariant).
    Fix(Rat128),
    /// Arbitrary-precision arm; holds only values that do not fit `Rat128`.
    Big(Box<BigRat>),
}

/// Widens a fixed-width rational; components transfer directly (both types
/// keep lowest terms with a positive denominator).
fn big_of(r: Rat128) -> BigRat {
    BigRat::new(IBig::from_i128(r.numer()), UBig::from_u128(r.denom() as u128))
}

/// A non-negative fixed-width value's numerator and denominator as `UBig`s.
fn wide_parts(r: &Rat128) -> (UBig, UBig) {
    (UBig::from_u128(r.numer() as u128), UBig::from_u128(r.denom() as u128))
}

/// `numer · scale` divided by the denominator, as quotient and remainder,
/// when the value is non-negative and the product fits a `u128`.
fn scale_words(r: &Rat128, scale: &UBig) -> Option<(u128, u128)> {
    let num = u128::try_from(r.numer()).ok()?;
    let p = num.checked_mul(scale.to_u128()?)?;
    let d = r.denom() as u128;
    Some((p / d, p % d))
}

/// Re-establishes the canonical-arm invariant after a big-arm operation.
fn demote(b: BigRat) -> AutoRat {
    if let (Some(n), Some(d)) = (b.numer().to_i128(), b.denom().to_u128()) {
        // `i128::MIN` stays big: `Rat128` cannot take its absolute value.
        if n != i128::MIN && d <= i128::MAX as u128 {
            return AutoRat(Repr::Fix(Rat128::new(n, d as i128)));
        }
    }
    AutoRat(Repr::Big(Box::new(b)))
}

impl AutoRat {
    /// The value 0.
    pub const ZERO: AutoRat = AutoRat(Repr::Fix(Rat128::ZERO));

    /// Builds from a fixed-width rational (always the `Fix` arm).
    pub fn from_rat128(r: Rat128) -> Self {
        AutoRat(Repr::Fix(r))
    }

    /// Builds from an arbitrary-precision rational, demoting when it fits.
    pub fn from_bigrat(b: BigRat) -> Self {
        demote(b)
    }

    /// Builds `num / den` in lowest terms. Panics if `den == 0`.
    pub fn from_frac(num: i64, den: u64) -> Self {
        AutoRat(Repr::Fix(Rat128::new(num as i128, den as i128)))
    }

    /// Widens to an arbitrary-precision rational (for wire boundaries that
    /// speak `BigRat`).
    pub fn to_bigrat(&self) -> BigRat {
        match &self.0 {
            Repr::Fix(r) => big_of(*r),
            Repr::Big(b) => (**b).clone(),
        }
    }

    /// `true` iff the value currently lives in the arbitrary-precision arm,
    /// i.e. it does not fit `Rat128`. Exposed for tests and diagnostics.
    pub fn is_promoted(&self) -> bool {
        matches!(self.0, Repr::Big(_))
    }

    /// Runs a binary op: the checked fixed-width routine when both sides are
    /// fixed, else (or on overflow) the wide routine followed by demotion.
    fn binop(
        &self,
        rhs: &Self,
        fix: impl Fn(Rat128, Rat128) -> Option<Rat128>,
        big: impl Fn(&BigRat, &BigRat) -> BigRat,
    ) -> AutoRat {
        if let (Repr::Fix(a), Repr::Fix(b)) = (&self.0, &rhs.0) {
            if let Some(r) = fix(*a, *b) {
                return AutoRat(Repr::Fix(r));
            }
        }
        demote(big(&self.to_bigrat(), &rhs.to_bigrat()))
    }
}

impl Default for AutoRat {
    fn default() -> Self {
        AutoRat::ZERO
    }
}

impl Ord for AutoRat {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Fix(a), Repr::Fix(b)) => {
                a.checked_cmp(*b).unwrap_or_else(|| big_of(*a).cmp(&big_of(*b)))
            }
            // Mixed arms can never be numerically equal (canonical-arm
            // invariant), so comparing through `BigRat` agrees with `Eq`.
            (Repr::Fix(a), Repr::Big(b)) => big_of(*a).cmp(b),
            (Repr::Big(a), Repr::Fix(b)) => (**a).cmp(&big_of(*b)),
            (Repr::Big(a), Repr::Big(b)) => a.cmp(b),
        }
    }
}

impl PartialOrd for AutoRat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PackingValue for AutoRat {
    fn zero() -> Self {
        AutoRat::ZERO
    }
    fn from_u64(v: u64) -> Self {
        AutoRat(Repr::Fix(Rat128::from_int(v as i128)))
    }
    fn add(&self, rhs: &Self) -> Self {
        self.binop(rhs, Rat128::checked_add, |a, b| a + b)
    }
    fn sub(&self, rhs: &Self) -> Self {
        self.binop(rhs, Rat128::checked_sub, |a, b| a - b)
    }
    fn mul(&self, rhs: &Self) -> Self {
        self.binop(rhs, Rat128::checked_mul_rat, |a, b| a * b)
    }
    fn div(&self, rhs: &Self) -> Self {
        self.binop(rhs, Rat128::checked_div_rat, |a, b| a / b)
    }
    fn is_zero(&self) -> bool {
        match &self.0 {
            Repr::Fix(r) => r.is_zero(),
            Repr::Big(b) => b.is_zero(),
        }
    }
    fn is_positive(&self) -> bool {
        match &self.0 {
            Repr::Fix(r) => r.is_positive(),
            Repr::Big(b) => b.is_positive(),
        }
    }
    fn scale_to_uint(&self, scale: &UBig) -> UBig {
        match &self.0 {
            Repr::Fix(r) => {
                assert!(r.numer() >= 0, "scale_to_uint on negative value");
                if let Some((q, rem)) = scale_words(r, scale) {
                    assert!(rem == 0, "div_exact: non-zero remainder");
                    return UBig::from_u128(q);
                }
                let (num, den) = wide_parts(r);
                num.mul_ref(scale).div_exact(&den)
            }
            Repr::Big(b) => PackingValue::scale_to_uint(&**b, scale),
        }
    }
    fn checked_scale_to_uint(&self, scale: &UBig) -> Option<UBig> {
        match &self.0 {
            Repr::Fix(r) => {
                if r.numer() < 0 {
                    return None;
                }
                if let Some((q, rem)) = scale_words(r, scale) {
                    return (rem == 0).then(|| UBig::from_u128(q));
                }
                let (num, den) = wide_parts(r);
                let (q, rem) = num.mul_ref(scale).div_rem(&den);
                rem.is_zero().then_some(q)
            }
            Repr::Big(b) => PackingValue::checked_scale_to_uint(&**b, scale),
        }
    }
    fn to_f64(&self) -> f64 {
        match &self.0 {
            Repr::Fix(r) => r.to_f64(),
            Repr::Big(b) => b.to_f64(),
        }
    }
    fn wire_bits(&self) -> u64 {
        match &self.0 {
            Repr::Fix(r) => {
                let bits = |v: i128| 128 - v.unsigned_abs().leading_zeros() as u64;
                1 + bits(r.numer()) + bits(r.denom())
            }
            Repr::Big(b) => PackingValue::wire_bits(&**b),
        }
    }
}

impl fmt::Display for AutoRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Fix(r) => write!(f, "{r}"),
            Repr::Big(b) => write!(f, "{b}"),
        }
    }
}

impl fmt::Debug for AutoRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AutoRat({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(n: i64, d: u64) -> AutoRat {
        AutoRat::from_frac(n, d)
    }

    #[test]
    fn stays_fixed_for_small_values() {
        let a = fix(1, 2).add(&fix(1, 3));
        assert_eq!(a, fix(5, 6));
        assert!(!a.is_promoted());
    }

    #[test]
    fn promotes_on_overflow_and_demotes_when_it_fits() {
        let huge = AutoRat::from_rat128(Rat128::new(i128::MAX / 2, 1));
        let sq = huge.mul(&huge);
        assert!(sq.is_promoted());
        // Dividing the square back down lands in the fixed arm again.
        let back = sq.div(&huge);
        assert!(!back.is_promoted());
        assert_eq!(back, huge);
    }

    #[test]
    fn from_bigrat_demotes_when_possible() {
        assert!(!AutoRat::from_bigrat(BigRat::from_frac(7, 9)).is_promoted());
        let wide = BigRat::from_u64(u64::MAX);
        let wide = wide.mul(&wide).mul(&wide); // ~192 bits, beyond i128
        assert!(AutoRat::from_bigrat(wide).is_promoted());
    }

    #[test]
    fn mixed_arm_comparison_and_equality() {
        let small = fix(3, 4);
        let max = AutoRat::from_rat128(Rat128::new(i128::MAX, 1));
        let big = max.add(&max);
        assert!(big.is_promoted());
        assert!(small < big);
        assert!(big > small);
        assert_ne!(small, big);
        // Round-tripping the big value through BigRat preserves the arm.
        assert_eq!(AutoRat::from_bigrat(big.to_bigrat()), big);
    }

    #[test]
    fn wire_bits_agree_across_arms() {
        // Same numeric value measured via both arms' formulas.
        for (n, d) in [(0i64, 1u64), (1, 1), (-7, 3), (i64::MAX, 255)] {
            let fixed = fix(n, d);
            let wide = BigRat::from_frac(n, d);
            assert_eq!(fixed.wire_bits(), PackingValue::wire_bits(&wide));
        }
    }

    #[test]
    fn matches_bigrat_across_promotion_boundary() {
        // Deterministic pseudo-random walk whose magnitudes repeatedly cross
        // the i128 overflow boundary; AutoRat must track BigRat exactly.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut auto = AutoRat::from_u64(1);
        let mut big = BigRat::from_u64(1);
        let mut promoted_seen = false;
        for step in 0..200 {
            let k = rng() % 4;
            // Factors near u32::MAX so repeated mul overflows i128 quickly.
            let f = (rng() % 8) + u32::MAX as u64;
            let (n, d) = (f as i64, (rng() % 1000) + 1);
            match k {
                0 => {
                    auto = auto.add(&AutoRat::from_frac(n, d));
                    big = big.add(&BigRat::from_frac(n, d));
                }
                1 => {
                    auto = auto.sub(&AutoRat::from_frac(n, d));
                    big = big.sub(&BigRat::from_frac(n, d));
                }
                2 => {
                    auto = auto.mul(&AutoRat::from_frac(n, d));
                    big = big.mul(&BigRat::from_frac(n, d));
                }
                _ => {
                    auto = auto.div(&AutoRat::from_frac(n, d));
                    big = big.div(&BigRat::from_frac(n, d));
                }
            }
            promoted_seen |= auto.is_promoted();
            assert_eq!(auto.to_bigrat(), big, "diverged at step {step}");
            assert_eq!(auto.wire_bits(), PackingValue::wire_bits(&big));
        }
        assert!(promoted_seen, "walk never crossed the promotion boundary");
    }
}
