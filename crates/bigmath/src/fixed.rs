//! Fixed-width exact rationals over `i128`: the inline arm of
//! [`AutoRat`](crate::auto::AutoRat).
//!
//! [`Rat128`] is not a [`PackingValue`](crate::value::PackingValue) on its
//! own. `AutoRat` holds every value that fits in a `Rat128` and runs the
//! non-panicking `checked_*` routines below; when one answers `None`, the
//! value promotes to [`BigRat`](crate::rat::BigRat). The operator impls
//! (`+`, `-`, `*`, `/`) **panic on overflow**, and the test suite
//! cross-checks them against `BigRat`.
//!
//! Sizing the regime: Phase I values stay on the Lemma 2 grid, denominator
//! `L = (Δ!)^Δ`, but the §3 star-phase grant `r_u·r_v/Σr` can reach
//! denominator `~L³·W`, and *global* reporting sums such as the packing's
//! `dual_value` take lcms across stars that grow with the instance. In
//! practice values stay in the `Rat128` arm for the full pipeline up to
//! about `Δ ≤ 4` with small weights, and for Phase-I-bounded quantities up
//! to `Δ ≤ 5`, `W ≤ 2^16`; beyond that `AutoRat` promotes (the Δ = 6
//! instances of the `sensor_network` example are such a case).
//!
//! ## Invariants
//!
//! Every value built by this module is in lowest terms with a positive
//! denominator, so the derived `Eq`/`Hash` are numerical. The `checked_*`
//! routines (the ones [`AutoRat`](crate::auto::AutoRat) runs) never return a
//! numerator or denominator equal to `i128::MIN`: that value has no `i128`
//! absolute value, so they answer `None` instead and `AutoRat` promotes —
//! `i128::MIN` never sits in its fixed arm.
//!
//! ## Fast paths
//!
//! The arithmetic is bound by normalisation, so the kernel avoids `i128`
//! division (a software routine on x86-64) wherever the invariants allow:
//!
//! * **GCD** is binary (shifts and subtractions) on `u128` magnitudes, and
//!   drops to a `u64` loop as soon as both operands fit. Operands more than
//!   16 bits apart, the smaller fitting `u64`, first take one remainder
//!   step instead of many subtractions.
//! * **Division by the GCD** is exact, so it is skipped when `g = 1` and
//!   done on 64-bit hardware division when both operands fit `u64`.
//! * **Addition** of two values with the same denominator adds the
//!   numerators and normalises once, without cross-scaling. Otherwise it
//!   follows Knuth (TAOCP 4.5.1): with `g = gcd(b, d)`, the sum
//!   `a/b + c/d` needs at most the small GCD `gcd(t, g)` of its scaled
//!   numerator `t`, and none at all when `g = 1`.
//! * **Multiplication** cross-reduces `(a/b)·(c/d)` by `gcd(a, d)` and
//!   `gcd(c, b)`. With lowest-terms inputs the product of the reduced parts
//!   is already in lowest terms, so no re-normalising GCD follows. A product
//!   equal to `i128::MIN` still goes through [`Rat128::checked_new`], which
//!   refuses it.
//! * **Reciprocal** swaps the components (and moves the sign): a
//!   lowest-terms value stays in lowest terms.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational with `i128` components, in lowest terms, `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat128 {
    num: i128,
    den: i128,
}

/// Binary GCD of two `u64`s (`gcd(0, b) = b`).
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary GCD of two `u128`s, finishing in [`gcd_u64`] once both fit.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    if a == 1 || b == 1 {
        return 1;
    }
    if a < b {
        std::mem::swap(&mut a, &mut b);
    }
    if b >> 64 == 0 && a.leading_zeros() + 16 < b.leading_zeros() {
        // Far-apart magnitudes: one remainder step replaces many
        // subtract-and-shift steps.
        let r = a % b;
        return u128::from(gcd_u64(b as u64, r as u64));
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if (a | b) >> 64 == 0 {
            return u128::from(gcd_u64(a as u64, b as u64)) << shift;
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `gcd(|a|, |b|)`; may be `2^127` only when both are `i128::MIN` or 0.
fn gcd_i128(a: i128, b: i128) -> u128 {
    gcd_u128(a.unsigned_abs(), b.unsigned_abs())
}

/// `x / g` for a divisor `g ≥ 1` of `x`: skipped for `g = 1`, on 64-bit
/// hardware division when `|x|` fits `u64`.
fn div_exact(x: i128, g: u128) -> i128 {
    if g == 1 {
        return x;
    }
    let m = x.unsigned_abs();
    let q = if m >> 64 == 0 { u128::from(m as u64 / g as u64) } else { m / g };
    // |q| ≤ |x| / 2, so the cast and the negation cannot overflow.
    if x < 0 {
        -(q as i128)
    } else {
        q as i128
    }
}

impl Rat128 {
    /// The value 0.
    pub const ZERO: Rat128 = Rat128 { num: 0, den: 1 };
    /// The value 1.
    pub const ONE: Rat128 = Rat128 { num: 1, den: 1 };

    /// Builds `num / den` in lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0` or on `i128` overflow during normalisation.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rat128 with zero denominator");
        Rat128::checked_new(num, den).expect("Rat128 overflow (normalise)")
    }

    /// Builds from an integer.
    pub fn from_int(v: i128) -> Self {
        Rat128 { num: v, den: 1 }
    }

    /// Numerator (lowest terms).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (positive, lowest terms).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(&self) -> Rat128 {
        assert!(self.num != 0, "reciprocal of zero");
        self.checked_recip().expect("Rat128 overflow (negate)")
    }

    /// Approximate `f64` value (reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Non-panicking [`new`](Rat128::new): `None` on a zero denominator or
    /// when normalisation overflows (including the unreducible
    /// `i128::MIN`, which has no representable absolute value).
    pub fn checked_new(num: i128, den: i128) -> Option<Rat128> {
        if den == 0 || num == i128::MIN || den == i128::MIN {
            return None;
        }
        if num == 0 {
            return Some(Rat128::ZERO);
        }
        let g = gcd_i128(num, den);
        let (n, d) = (div_exact(num, g), div_exact(den, g));
        // Neither side is `i128::MIN`, so the sign flip cannot overflow.
        Some(if d < 0 { Rat128 { num: -n, den: -d } } else { Rat128 { num: n, den: d } })
    }

    /// Non-panicking negation (`None` only for the unreducible `i128::MIN`).
    pub fn checked_neg(self) -> Option<Rat128> {
        Some(Rat128 { num: self.num.checked_neg()?, den: self.den })
    }

    /// Non-panicking addition: `None` when any intermediate overflows.
    pub fn checked_add(self, rhs: Rat128) -> Option<Rat128> {
        if self.den == rhs.den {
            return Rat128::checked_new(self.num.checked_add(rhs.num)?, self.den);
        }
        // Knuth's addition (TAOCP 4.5.1): with g = gcd(b, d),
        // a/b + c/d = t / (b/g · d) for t = a·(d/g) + c·(b/g), and only
        // gcd(t, g) can still divide both — no normalising GCD when g = 1.
        let g = gcd_i128(self.den, rhs.den);
        let (b_g, d_g) = (div_exact(self.den, g), div_exact(rhs.den, g));
        let t = self.num.checked_mul(d_g)?.checked_add(rhs.num.checked_mul(b_g)?)?;
        if t == 0 {
            return Some(Rat128::ZERO);
        }
        if t == i128::MIN {
            return None; // no |t|: let the caller widen
        }
        let g2 = if g == 1 { 1 } else { gcd_u128(t.unsigned_abs(), g) };
        let den = b_g.checked_mul(div_exact(rhs.den, g2))?;
        Some(Rat128 { num: div_exact(t, g2), den })
    }

    /// Non-panicking subtraction.
    pub fn checked_sub(self, rhs: Rat128) -> Option<Rat128> {
        self.checked_add(rhs.checked_neg()?)
    }

    /// Non-panicking multiplication.
    pub fn checked_mul_rat(self, rhs: Rat128) -> Option<Rat128> {
        if self.num == i128::MIN || rhs.num == i128::MIN {
            return None; // gcd needs |num|
        }
        if self.num == 0 || rhs.num == 0 {
            return Some(Rat128::ZERO);
        }
        // Cross-reduce before multiplying to delay overflow; lowest-terms
        // inputs then give a lowest-terms product.
        let g1 = gcd_i128(self.num, rhs.den);
        let g2 = gcd_i128(rhs.num, self.den);
        let num = div_exact(self.num, g1).checked_mul(div_exact(rhs.num, g2))?;
        let den = div_exact(self.den, g2).checked_mul(div_exact(rhs.den, g1))?;
        if num == i128::MIN {
            return Rat128::checked_new(num, den); // refuses: no |i128::MIN|
        }
        Some(Rat128 { num, den })
    }

    /// Non-panicking reciprocal (`None` on zero or `i128::MIN` numerator).
    pub fn checked_recip(self) -> Option<Rat128> {
        match self.num.cmp(&0) {
            Ordering::Equal => None,
            Ordering::Greater => Some(Rat128 { num: self.den, den: self.num }),
            Ordering::Less => {
                Some(Rat128 { num: self.den.checked_neg()?, den: self.num.checked_neg()? })
            }
        }
    }

    /// Non-panicking division (`None` on a zero divisor or overflow).
    pub fn checked_div_rat(self, rhs: Rat128) -> Option<Rat128> {
        self.checked_mul_rat(rhs.checked_recip()?)
    }

    /// Non-panicking comparison: `None` when the cross-multiplication
    /// overflows `i128` (the caller falls back to wide arithmetic).
    pub fn checked_cmp(self, rhs: Rat128) -> Option<Ordering> {
        if self.den == rhs.den {
            return Some(self.num.cmp(&rhs.num));
        }
        Some(self.num.checked_mul(rhs.den)?.cmp(&rhs.num.checked_mul(self.den)?))
    }
}

impl Default for Rat128 {
    fn default() -> Self {
        Rat128::ZERO
    }
}

impl Ord for Rat128 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.checked_cmp(*other)
            .expect("Rat128 overflow (mul); use BigRat for this parameter regime")
    }
}

impl PartialOrd for Rat128 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for Rat128 {
    type Output = Rat128;
    fn add(self, rhs: Rat128) -> Rat128 {
        self.checked_add(rhs).expect("Rat128 overflow (add)")
    }
}

impl Sub for Rat128 {
    type Output = Rat128;
    fn sub(self, rhs: Rat128) -> Rat128 {
        self + (-rhs)
    }
}

impl Mul for Rat128 {
    type Output = Rat128;
    fn mul(self, rhs: Rat128) -> Rat128 {
        self.checked_mul_rat(rhs)
            .expect("Rat128 overflow (mul); use BigRat for this parameter regime")
    }
}

impl Div for Rat128 {
    type Output = Rat128;
    fn div(self, rhs: Rat128) -> Rat128 {
        assert!(rhs.num != 0, "Rat128 division by zero");
        self * rhs.recip()
    }
}

impl Neg for Rat128 {
    type Output = Rat128;
    fn neg(self) -> Rat128 {
        Rat128 { num: -self.num, den: self.den }
    }
}

impl fmt::Display for Rat128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat128({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibig::IBig;
    use crate::rat::BigRat;
    use crate::ubig::UBig;

    fn r(n: i128, d: i128) -> Rat128 {
        Rat128::new(n, d)
    }

    #[test]
    fn canonical() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(1, -2), r(-1, 2));
        assert_eq!(r(-1, -2), r(1, 2));
        assert_eq!(r(0, 5), Rat128::ZERO);
        assert_eq!(r(3, 1).denom(), 1);
    }

    #[test]
    fn field_ops() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(2, 3) / r(4, 9), r(3, 2));
        assert_eq!(r(3, 7).recip(), r(7, 3));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 3) > r(2, 1));
    }

    #[test]
    fn add_delays_overflow_via_gcd() {
        // Same denominator: no cross-multiplication blow-up.
        let big_den = 1i128 << 100;
        let a = r(1, big_den);
        let b = r(1, big_den);
        assert_eq!(a + b, r(2, big_den));
    }

    #[test]
    fn overflow_panics() {
        let huge = r(i128::MAX / 2, 1);
        let res = std::panic::catch_unwind(|| huge * huge);
        assert!(res.is_err());
    }

    /// Checks every field op of `a`, `b` against `BigRat`: results in lowest
    /// terms with a positive denominator. `None` (an intermediate past
    /// `i128`, where `AutoRat` promotes) is allowed; returns how many ops
    /// produced a fixed-width result.
    fn big(r: Rat128) -> BigRat {
        BigRat::new(IBig::from_i128(r.num), UBig::from_u128(r.den as u128))
    }

    fn agrees_with_bigrat(a: Rat128, b: Rat128) -> usize {
        let (ba, bb) = (big(a), big(b));
        let mut ops: Vec<(&str, Option<Rat128>, BigRat)> = vec![
            ("add", a.checked_add(b), &ba + &bb),
            ("sub", a.checked_sub(b), &ba - &bb),
            ("mul", a.checked_mul_rat(b), &ba * &bb),
        ];
        if !b.is_zero() {
            ops.push(("div", a.checked_div_rat(b), &ba / &bb));
        }
        let mut fixed = 0;
        for (name, fix, want) in ops {
            let Some(fix) = fix else { continue };
            assert_eq!(big(fix), want, "{a:?} {name} {b:?}");
            assert!(fix.den > 0 && gcd_i128(fix.num, fix.den) == 1, "{fix:?} not normalised");
            fixed += 1;
        }
        if let Some(ord) = a.checked_cmp(b) {
            assert_eq!(ord, ba.cmp(&bb), "{a:?} cmp {b:?}");
        }
        fixed
    }

    #[test]
    fn gcd_kernel_matches_euclid() {
        fn euclid(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let vals =
            [0u128, 1, 2, 3, 6, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 64) + 2, 3 << 70, 1 << 127];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(gcd_u128(a, b), euclid(a, b), "gcd({a}, {b})");
            }
        }
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_i128(-12, 18), 6);
        assert_eq!(gcd_i128(i128::MIN, 0), 1 << 127);
    }

    #[test]
    fn operands_straddling_two_to_the_64() {
        // Components on both sides of 2^64, so the GCD runs its u128 and u64
        // loops and the exact division both its hardware and wide paths.
        let below = (1i128 << 64) - 6; // 2·3·… just below 2^64
        let above = (1i128 << 64) * 3 + 6; // a multiple of 6 above 2^64
        let cases = [
            r(above, 9),
            r(below, 15),
            r(7, above),
            r(-above, below),
            r(1 << 70, 3 << 62),
            r(below, 1 << 62),
        ];
        let mut fixed = 0;
        for &a in &cases {
            for &b in &cases {
                fixed += agrees_with_bigrat(a, b);
            }
        }
        assert!(fixed >= 80, "only {fixed} of 144 ops stayed fixed-width");
        assert_eq!(r(above, 6), r((1i128 << 63) + 1, 1));
        assert_eq!(r(3 << 70, 6 << 64), r(32, 1));
    }

    #[test]
    fn equal_denominators_take_the_shortcut() {
        assert_eq!(r(1, 6) + r(1, 6), r(1, 3));
        assert_eq!(r(5, 1 << 100) + r(3, 1 << 100), r(1, 1 << 97));
        assert_eq!(r(1, 6) - r(1, 6), Rat128::ZERO);
        assert_eq!(r(1, 7).checked_cmp(r(3, 7)), Some(Ordering::Less));
        // Same denominator, numerator sum past i128: no result, no panic.
        assert_eq!(r(i128::MAX, 3).checked_add(r(i128::MAX - 2, 3)), None);
        assert_eq!(agrees_with_bigrat(r(-5, 12), r(11, 12)), 4);
    }

    #[test]
    fn integer_operands() {
        for (a, b) in [(7, 5), (-9, 3), (0, 4), (1 << 62, -(1 << 61)), (i128::MAX / 4, 2)] {
            let ops = if b == 0 { 3 } else { 4 };
            assert_eq!(agrees_with_bigrat(Rat128::from_int(a), Rat128::from_int(b)), ops);
        }
        assert_eq!(Rat128::from_int(6) / Rat128::from_int(4), r(3, 2));
        assert_eq!(Rat128::from_int(-6).recip(), r(-1, 6));
    }

    #[test]
    fn product_on_i128_min_is_refused_and_autorat_promotes() {
        use crate::auto::AutoRat;
        use crate::value::PackingValue;

        // Exactly -2^127: representable as an i128, but not as a Rat128
        // (no absolute value), so the checked product refuses it …
        let a = Rat128::from_int(-(1 << 63));
        let b = Rat128::from_int(1 << 64);
        assert_eq!(a.checked_mul_rat(b), None);
        assert_eq!(r(-(1 << 63), 5).checked_mul_rat(r(5 << 64, 1)), None);
        // … and AutoRat lands in the wide arm with the exact value.
        let p = AutoRat::from_rat128(a).mul(&AutoRat::from_rat128(b));
        assert!(p.is_promoted());
        assert_eq!(p.to_bigrat(), &big(a) * &big(b));
    }

    #[test]
    fn display() {
        assert_eq!(r(-3, 6).to_string(), "-1/2");
        assert_eq!(r(8, 4).to_string(), "2");
    }
}
