//! The numeric abstraction used by the packing algorithms.
//!
//! All algorithms in `anonet-core` are generic over [`PackingValue`], so the
//! same code runs with exact arbitrary precision ([`BigRat`]) or with the
//! self-promoting fast path ([`AutoRat`](crate::auto::AutoRat), `i128`
//! speed until a value outgrows it). Exactness is part of the contract:
//! `Ord`/`Eq` must be *numerical* equality, because the algorithms derive
//! graph colourings from value equality (paper §3.2, §4.4).

use crate::rat::BigRat;
use crate::ubig::UBig;
use std::fmt::{Debug, Display};
use std::hash::Hash;

/// An exact, totally ordered field value used for packing weights, offers and
/// residuals.
pub trait PackingValue:
    Clone + Ord + Eq + Hash + Debug + Display + Default + Send + Sync + 'static
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self {
        Self::from_u64(1)
    }
    /// Embeds a natural number.
    fn from_u64(v: u64) -> Self;
    /// `self + rhs`.
    fn add(&self, rhs: &Self) -> Self;
    /// `self - rhs`.
    fn sub(&self, rhs: &Self) -> Self;
    /// `self * rhs`.
    fn mul(&self, rhs: &Self) -> Self;
    /// `self / rhs` (exact; `rhs` non-zero).
    fn div(&self, rhs: &Self) -> Self;
    /// `true` iff the value is 0.
    fn is_zero(&self) -> bool;
    /// `true` iff the value is strictly positive.
    fn is_positive(&self) -> bool;
    /// Encodes `self * scale` as a non-negative integer (the Lemma 2 colour
    /// encoding). Panics if the product is not a non-negative integer.
    fn scale_to_uint(&self, scale: &UBig) -> UBig;
    /// Non-panicking [`scale_to_uint`](PackingValue::scale_to_uint): `None`
    /// if the value is negative or `scale` does not clear the denominator.
    /// Needed by the self-stabilization wrapper, where corrupted states can
    /// carry out-of-contract values.
    fn checked_scale_to_uint(&self, scale: &UBig) -> Option<UBig>;
    /// Approximate `f64` (reporting only; never used in algorithm decisions).
    fn to_f64(&self) -> f64;
    /// Approximate wire size in bits when sent in a message (instrumentation).
    fn wire_bits(&self) -> u64;
}

impl PackingValue for BigRat {
    fn zero() -> Self {
        BigRat::zero()
    }
    fn from_u64(v: u64) -> Self {
        BigRat::from_u64(v)
    }
    fn add(&self, rhs: &Self) -> Self {
        self + rhs
    }
    fn sub(&self, rhs: &Self) -> Self {
        self - rhs
    }
    fn mul(&self, rhs: &Self) -> Self {
        self * rhs
    }
    fn div(&self, rhs: &Self) -> Self {
        self / rhs
    }
    fn is_zero(&self) -> bool {
        BigRat::is_zero(self)
    }
    fn is_positive(&self) -> bool {
        BigRat::is_positive(self)
    }
    fn scale_to_uint(&self, scale: &UBig) -> UBig {
        BigRat::scale_to_uint(self, scale)
    }
    fn checked_scale_to_uint(&self, scale: &UBig) -> Option<UBig> {
        if self.is_negative() {
            return None;
        }
        let (q, r) = self.numer().magnitude().mul_ref(scale).div_rem(self.denom());
        r.is_zero().then_some(q)
    }
    fn to_f64(&self) -> f64 {
        BigRat::to_f64(self)
    }
    fn wire_bits(&self) -> u64 {
        // Sign bit plus numerator and denominator magnitudes.
        1 + self.numer().magnitude().bits() + self.denom().bits()
    }
}

/// Convenience: sums an iterator of values.
pub fn sum<'a, V: PackingValue>(vals: impl IntoIterator<Item = &'a V>) -> V {
    let mut acc = V::zero();
    for v in vals {
        acc = acc.add(v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::AutoRat;
    use crate::fixed::Rat128;

    fn exercise<V: PackingValue>() {
        let two = V::from_u64(2);
        let three = V::from_u64(3);
        let half = V::one().div(&two);
        let third = V::one().div(&three);
        assert!(third < half);
        assert_eq!(half.add(&third), V::from_u64(5).div(&V::from_u64(6)));
        assert_eq!(half.mul(&two), V::one());
        assert_eq!(half.sub(&half), V::zero());
        assert!(V::zero().is_zero());
        assert!(!V::zero().is_positive());
        assert!(half.is_positive());
        assert_eq!(half.scale_to_uint(&UBig::from_u64(10)).to_u64(), Some(5));
        assert!((half.to_f64() - 0.5).abs() < 1e-12);
        assert_eq!(V::default(), V::zero());
    }

    #[test]
    fn bigrat_implements_contract() {
        exercise::<BigRat>();
    }

    #[test]
    fn autorat_implements_contract() {
        exercise::<AutoRat>();
    }

    #[test]
    fn sum_helper() {
        let vals = vec![BigRat::from_frac(1, 2), BigRat::from_frac(1, 3), BigRat::from_frac(1, 6)];
        assert_eq!(sum::<BigRat>(&vals), BigRat::one());
        assert_eq!(sum::<BigRat>(&[]), BigRat::zero());
    }

    /// `AutoRat`'s `Rat128` arm scales like `BigRat` whether or not the
    /// product fits a `u128`, for exact and inexact scales and negative
    /// values.
    #[test]
    fn rat128_scaling_matches_bigrat_across_the_word_boundary() {
        let scales = [
            UBig::from_u64(1),
            UBig::from_u64(216),
            UBig::from_u128(u128::MAX / 3),
            UBig::from_u128(u128::MAX),
            UBig::one().shl_bits(130),
        ];
        let values = [(0i128, 1i128), (5, 6), (-5, 6), (i128::MAX, 3), (1, 7), (12, 1)];
        for (n, d) in values {
            let fix = AutoRat::from_rat128(Rat128::new(n, d));
            assert!(!fix.is_promoted(), "{n}/{d} must sit in the Rat128 arm");
            let big = BigRat::new(crate::IBig::from_i128(n), UBig::from_u128(d as u128));
            for scale in &scales {
                let want = PackingValue::checked_scale_to_uint(&big, scale);
                assert_eq!(PackingValue::checked_scale_to_uint(&fix, scale), want, "{n}/{d}");
                if let Some(q) = want {
                    assert_eq!(PackingValue::scale_to_uint(&fix, scale), q);
                }
            }
        }
    }

    #[test]
    fn cross_check_bigrat_rat128() {
        // The same arithmetic through both implementations agrees.
        let ops: Vec<(i64, u64)> = vec![(1, 3), (5, 7), (-2, 9), (11, 4)];
        let mut big = BigRat::zero();
        let mut fix = Rat128::ZERO;
        for (n, d) in ops {
            big = big.add(&BigRat::from_frac(n, d));
            fix = fix + Rat128::new(n as i128, d as i128);
            big = big.mul(&BigRat::from_frac(2, 3));
            fix = fix * Rat128::new(2, 3);
        }
        assert_eq!(big.numer().to_i128(), Some(fix.numer()));
        assert_eq!(big.denom().to_u128(), Some(fix.denom() as u128));
    }
}
