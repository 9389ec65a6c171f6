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
//! * **Word path.** Solver values are small: the §3/§4 duals and the
//!   primal–dual baselines keep nearly every numerator and denominator below
//!   2^31. When both operands of `checked_add`, `checked_sub`,
//!   `checked_mul_rat`, `checked_div_rat` or `checked_cmp` have every
//!   component below 2^31 in magnitude, the operation runs on `i64`/`u64`
//!   words with no overflow checks: each cross product is below 2^62 and a
//!   sum of two of them below 2^63, so nothing it computes can overflow an
//!   `i64`. Its GCD is a binary GCD on `u64` whose step replaces the pair by
//!   its minimum and its odd-part difference (no swap branch), after one
//!   remainder step when the operands are more than 8 bits apart, and its
//!   exact divisions run on 32-bit hardware division when both operands
//!   fit (64-bit division costs more on many x86-64 cores). The result is
//!   built directly in lowest terms by the same arguments as above (Knuth's
//!   for the sum, cross-reduction for the product), with no normalising GCD;
//!   a zero operand of a sum returns the other operand. `checked_new` takes
//!   the same `u64` GCD and word division whenever both of its components
//!   are below 2^63. Larger operands take the `i128` path, so a result is
//!   refused (and [`AutoRat`](crate::auto::AutoRat) promotes) exactly when it
//!   was before: the word path only runs where the `i128` path cannot
//!   overflow.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational with `i128` components, in lowest terms, `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat128 {
    num: i128,
    den: i128,
}

/// Binary GCD of two `u64`s (`gcd(0, b) = b`). Each step replaces the odd
/// pair by its minimum and the odd part of its difference, which needs no
/// swap branch.
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    b >>= b.trailing_zeros();
    while a != b {
        let d = a.abs_diff(b);
        b = a.min(b);
        a = d >> d.trailing_zeros();
    }
    a << shift
}

/// Components strictly below this magnitude take the word path (see the
/// module doc): cross products stay below 2^62 and their sums below 2^63.
const WORD_LIMIT: u128 = 1 << 31;

/// `x / g` for a divisor `g ≥ 1` of `x`: skipped for `g = 1`, on 32-bit
/// hardware division (cheaper than 64-bit on many x86-64 cores) when both
/// fit.
#[inline]
fn div_word(x: i64, g: u64) -> i64 {
    if g == 1 {
        return x;
    }
    let m = x.unsigned_abs();
    let q = if (m | g) >> 32 == 0 { u64::from(m as u32 / g as u32) } else { m / g };
    // |q| ≤ |x| < 2^63, so the cast and the negation cannot overflow.
    if x < 0 {
        -(q as i64)
    } else {
        q as i64
    }
}

/// `gcd(|x|, |y|)` for the word path. A numerator and a denominator are
/// often far apart (an integer has denominator 1): past a factor of 2^8,
/// one hardware remainder replaces the many subtract-and-shift steps.
#[inline]
fn gcd_word(x: i64, y: i64) -> u64 {
    let (a, b) = (x.unsigned_abs(), y.unsigned_abs());
    let (hi, lo) = (a.max(b), a.min(b));
    if lo != 0 && hi >> 8 > lo {
        let r = if hi >> 32 == 0 { u64::from(hi as u32 % lo as u32) } else { hi % lo };
        return gcd_u64(lo, r);
    }
    gcd_u64(a, b)
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

/// `a/b + c/d` on the word path: lowest-terms operands, `b, d > 0`, every
/// component below 2^31 in magnitude.
#[inline]
fn add_words(a: i64, b: i64, c: i64, d: i64) -> Rat128 {
    if c == 0 {
        return Rat128::of_words(a, b);
    }
    if a == 0 {
        return Rat128::of_words(c, d);
    }
    if b == d {
        // gcd(0, b) = b, so a zero sum lands on 0/1.
        let t = a + c;
        let g = gcd_word(t, b);
        return Rat128::of_words(div_word(t, g), div_word(b, g));
    }
    let g = gcd_u64(b as u64, d as u64);
    if g == 1 {
        return Rat128::of_words(a * d + c * b, b * d);
    }
    let (b_g, d_g) = (b / g as i64, d / g as i64);
    let t = a * d_g + c * b_g;
    // Lowest-terms operands with b ≠ d never sum to 0.
    debug_assert_ne!(t, 0);
    let g2 = gcd_word(t, g as i64);
    Rat128::of_words(div_word(t, g2), b_g * div_word(d, g2))
}

/// `(a/b)·(c/d)` on the word path (same preconditions as [`add_words`]).
#[inline]
fn mul_words(a: i64, b: i64, c: i64, d: i64) -> Rat128 {
    if a == 0 || c == 0 {
        return Rat128::ZERO;
    }
    let (g1, g2) = (gcd_word(a, d), gcd_word(c, b));
    Rat128::of_words(div_word(a, g1) * div_word(c, g2), div_word(b, g2) * div_word(d, g1))
}

impl Rat128 {
    /// The value 0.
    pub const ZERO: Rat128 = Rat128 { num: 0, den: 1 };
    /// The value 1.
    pub const ONE: Rat128 = Rat128 { num: 1, den: 1 };

    /// A value from word-path components already in lowest terms.
    #[inline]
    fn of_words(num: i64, den: i64) -> Rat128 {
        Rat128 { num: num.into(), den: den.into() }
    }

    /// `(a, b, c, d)` for `self = a/b` and `rhs = c/d` when every component
    /// is below 2^31 in magnitude: the operands of the word path.
    #[inline]
    fn words(self, rhs: Rat128) -> Option<(i64, i64, i64, i64)> {
        // Denominators are positive, so their casts are their magnitudes.
        let all =
            self.num.unsigned_abs() | self.den as u128 | rhs.num.unsigned_abs() | rhs.den as u128;
        (all < WORD_LIMIT).then_some((
            self.num as i64,
            self.den as i64,
            rhs.num as i64,
            rhs.den as i64,
        ))
    }

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
        if den == 0 || num == 0 || (num.unsigned_abs() | den.unsigned_abs()) >> 63 != 0 {
            return Rat128::new_wide(num, den);
        }
        // Word path: both fit an i64 with room for the sign flip.
        let (n, d) = (num as i64, den as i64);
        let g = gcd_word(n, d);
        let (n, d) = (div_word(n, g), div_word(d, g));
        Some(if d < 0 { Rat128::of_words(-n, -d) } else { Rat128::of_words(n, d) })
    }

    /// [`checked_new`](Rat128::checked_new) on `i128`.
    fn new_wide(num: i128, den: i128) -> Option<Rat128> {
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
        match self.words(rhs) {
            Some((a, b, c, d)) => Some(add_words(a, b, c, d)),
            None => self.add_wide(rhs),
        }
    }

    /// [`checked_add`](Rat128::checked_add) on `i128`.
    fn add_wide(self, rhs: Rat128) -> Option<Rat128> {
        if self.den == rhs.den {
            return Rat128::new_wide(self.num.checked_add(rhs.num)?, self.den);
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
        match self.words(rhs) {
            Some((a, b, c, d)) => Some(add_words(a, b, -c, d)),
            None => self.add_wide(rhs.checked_neg()?),
        }
    }

    /// Non-panicking multiplication.
    pub fn checked_mul_rat(self, rhs: Rat128) -> Option<Rat128> {
        match self.words(rhs) {
            Some((a, b, c, d)) => Some(mul_words(a, b, c, d)),
            None => self.mul_wide(rhs),
        }
    }

    /// [`checked_mul_rat`](Rat128::checked_mul_rat) on `i128`.
    fn mul_wide(self, rhs: Rat128) -> Option<Rat128> {
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
            return Rat128::new_wide(num, den); // refuses: no |i128::MIN|
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
        match self.words(rhs) {
            // Multiply by d/c with the sign moved to the numerator.
            Some((a, b, c, d)) if c != 0 => Some(mul_words(a, b, c.signum() * d, c.abs())),
            _ => self.mul_wide(rhs.checked_recip()?),
        }
    }

    /// Non-panicking comparison: `None` when the cross-multiplication
    /// overflows `i128` (the caller falls back to wide arithmetic).
    pub fn checked_cmp(self, rhs: Rat128) -> Option<Ordering> {
        match self.words(rhs) {
            Some((a, b, c, d)) => Some((a * d).cmp(&(c * b))),
            None => self.cmp_wide(rhs),
        }
    }

    /// [`checked_cmp`](Rat128::checked_cmp) on `i128`.
    fn cmp_wide(self, rhs: Rat128) -> Option<Ordering> {
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
        let words = [0u64, 1, 2, 3, 6, 12, 18, (1 << 31) - 1, 1 << 31, 3 << 40, 1 << 63, u64::MAX];
        for &a in &words {
            for &b in &words {
                let want = euclid(a.into(), b.into());
                assert_eq!(u128::from(gcd_u64(a, b)), want, "gcd({a}, {b})");
                if let (Ok(x), Ok(y)) = (i64::try_from(a), i64::try_from(b)) {
                    assert_eq!(u128::from(gcd_word(-x, y)), want, "gcd_word({a}, {b})");
                }
            }
        }
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

    /// The word path against the `i128` path and `BigRat`, for every op, on
    /// operands at and around its 2^31 bound and far beyond it. Both paths
    /// must give the same `Option` (so `AutoRat` promotes exactly when the
    /// `i128` path alone would), and every result must equal `BigRat`'s, in
    /// lowest terms.
    #[test]
    fn word_path_matches_the_i128_path_and_bigrat() {
        const W: i128 = 1 << 31;
        let nums = [0, 1, -1, 6, -10, W - 1, -(W - 1), W, -W, 1 << 62, 1 << 63, -(1 << 63)];
        let nums = nums.into_iter().chain([i128::MAX, -i128::MAX, 3 * (W - 1)]);
        // Equal, coprime and shared-factor denominators on both sides of 2^31.
        let dens = [1, 2, 6, 10, 15, W - 1, 2 * (W - 1), W, 1 << 62, 1 << 63, i128::MAX];
        let mut vals: Vec<Rat128> =
            nums.flat_map(|n| dens.iter().map(move |&d| Rat128::new(n, d))).collect();
        vals.sort_by_key(|r| (r.num, r.den));
        vals.dedup();
        let mut word_pairs = 0;
        for &a in &vals {
            for &b in &vals {
                let word = a.words(b).is_some();
                word_pairs += usize::from(word);
                let ops = [
                    ("add", a.checked_add(b), a.add_wide(b), &big(a) + &big(b)),
                    ("sub", a.checked_sub(b), a.add_wide(-b), &big(a) - &big(b)),
                    ("mul", a.checked_mul_rat(b), a.mul_wide(b), &big(a) * &big(b)),
                ];
                let div = (!b.is_zero()).then(|| {
                    ("div", a.checked_div_rat(b), a.mul_wide(b.recip()), &big(a) / &big(b))
                });
                for (name, got, wide, want) in ops.into_iter().chain(div) {
                    assert_eq!(got, wide, "{a:?} {name} {b:?}: word and i128 paths differ");
                    assert!(got.is_some() || !word, "{a:?} {name} {b:?}: word path refused");
                    if let Some(r) = got {
                        assert_eq!(big(r), want, "{a:?} {name} {b:?}");
                        assert!(r.den > 0 && gcd_i128(r.num, r.den) == 1, "{r:?} not normalised");
                    }
                }
                let cmp = a.checked_cmp(b);
                assert_eq!(cmp, a.cmp_wide(b), "{a:?} cmp {b:?}");
                if let Some(ord) = cmp {
                    assert_eq!(ord, big(a).cmp(&big(b)), "{a:?} cmp {b:?}");
                }
            }
        }
        assert!(word_pairs > 400, "only {word_pairs} pairs took the word path");
        // Construction: the u64 path against the i128 one, signs included.
        let comps = [0, 1, -1, 6, -15, W - 1, W, -W, 1 << 62, (1 << 63) - 1, 1 << 63, i128::MAX];
        for &n in &comps {
            for &d in &comps {
                assert_eq!(Rat128::checked_new(n, d), Rat128::new_wide(n, d), "new({n}, {d})");
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(r(-3, 6).to_string(), "-1/2");
        assert_eq!(r(8, 4).to_string(), "2");
    }
}
