//! Colour encodings (Lemma 2) and Cole–Vishkin colour-reduction primitives.
//!
//! Phase I leaves every node with a sequence of Δ rationals; Lemma 2 shows
//! each element q satisfies `0 < q ≤ W` and `q·(Δ!)^Δ ∈ ℕ`, so the sequence
//! injects into `{1, …, χ}` for `χ = (W·(Δ!)^Δ)^Δ`. [`SeqEncoder`] implements
//! that injection *order-preservingly* (lexicographic sequence order =
//! numeric order of codes), which is what Phase II's edge orientation and the
//! Cole–Vishkin initial colours both need.
//!
//! [`cv_step`] is one Cole–Vishkin reduction: from colours of bit-length b to
//! colours `2i + bit < 2b`, where i is the lowest bit position at which the
//! node differs from its successor. [`CvSchedule`] computes — from the global
//! parameters only — how many steps reach the 6-colour fixpoint, so every
//! node runs the identical schedule without communication (§1.3: anonymous
//! nodes share only the global parameters).
//!
//! [`Colour`] carries a §3 forest colour on machine words: inline while it
//! fits 128 bits, a heap [`UBig`] only beyond (the [`AutoRat`] precedent).
//! After the first Cole–Vishkin step every colour is a few bits, so the
//! colour rounds stop allocating.
//!
//! [`AutoRat`]: anonet_bigmath::AutoRat

use anonet_bigmath::{PackingValue, UBig};
use std::borrow::Cow;

/// Order-preserving injection from length-`len` sequences of packing values
/// (each in `(0, W]` with denominator dividing `scale`) into big integers.
#[derive(Clone, Debug)]
pub struct SeqEncoder {
    /// The Lemma 2 denominator bound, e.g. `(Δ!)^Δ`.
    pub scale: UBig,
    /// Digit base: `W·scale + 1` (digits are `q·scale ∈ {1, …, W·scale}`).
    pub base: UBig,
    /// Sequence length (Δ for Phase I).
    pub len: usize,
}

impl SeqEncoder {
    /// Encoder for Phase I of the edge-packing algorithm: sequences of Δ
    /// values with denominators dividing `(Δ!)^Δ`.
    pub fn phase1(delta: usize, max_weight: u64) -> SeqEncoder {
        let scale = UBig::factorial(delta as u64).pow(delta as u64);
        let base = {
            let mut b = UBig::from_u64(max_weight).mul_ref(&scale);
            b.add_assign_ref(&UBig::one());
            b
        };
        SeqEncoder { scale, base, len: delta }
    }

    /// Encoder for a single value (sequences of length 1) with the given
    /// denominator bound — used by the set-cover colouring phase, where
    /// `scale = (k!)^((D+1)²)` (§4.4).
    pub fn single(scale: UBig, max_weight: u64) -> SeqEncoder {
        let base = {
            let mut b = UBig::from_u64(max_weight).mul_ref(&scale);
            b.add_assign_ref(&UBig::one());
            b
        };
        SeqEncoder { scale, base, len: 1 }
    }

    /// Encodes a sequence; position 0 is the most significant digit, so code
    /// order equals lexicographic order (with numeric element order).
    ///
    /// # Panics
    /// Panics if the sequence has the wrong length or an element is out of
    /// range (non-positive, > W, or denominator not dividing `scale`).
    pub fn encode<V: PackingValue>(&self, seq: &[V]) -> UBig {
        assert_eq!(seq.len(), self.len, "sequence length mismatch");
        let mut acc = UBig::zero();
        for q in seq {
            assert!(q.is_positive(), "colour element must be positive");
            let digit = q.scale_to_uint(&self.scale);
            assert!(!digit.is_zero() && digit < self.base, "colour element out of range");
            acc = acc.mul_ref(&self.base);
            acc.add_assign_ref(&digit);
        }
        acc
    }

    /// Upper bound (exclusive) on codes: `base^len` — the paper's χ, up to
    /// the +1 in the digit base.
    pub fn code_bound(&self) -> UBig {
        self.base.pow(self.len as u64)
    }

    /// Non-panicking [`encode`](SeqEncoder::encode), as a [`Colour`]:
    /// `None` if the sequence has the wrong length or any element violates
    /// the Lemma 2 contract. The code is accumulated on machine words while
    /// it fits 128 bits. Used by the self-stabilization wrapper, which must
    /// stay total under arbitrarily corrupted state.
    pub fn try_encode<V: PackingValue>(&self, seq: &[V]) -> Option<Colour> {
        if seq.len() != self.len {
            return None;
        }
        let base = self.base.to_u128();
        let mut acc = Colour::small(0);
        for q in seq {
            if !q.is_positive() {
                return None;
            }
            let digit = q.checked_scale_to_uint(&self.scale)?;
            if digit.is_zero() || digit >= self.base {
                return None;
            }
            let small = match (&acc.0, base, digit.to_u128()) {
                (ColourRepr::Small(a), Some(b), Some(d)) => {
                    a.checked_mul(b).and_then(|x| x.checked_add(d))
                }
                _ => None,
            };
            acc = match small {
                Some(c) => Colour(ColourRepr::Small(c)),
                None => {
                    let mut big = acc.to_ubig().mul_ref(&self.base);
                    big.add_assign_ref(&digit);
                    Colour::from_ubig(big)
                }
            };
        }
        Some(acc)
    }

    /// A guaranteed-valid fallback code (the all-ones sequence): used when a
    /// corrupted state fails [`try_encode`](SeqEncoder::try_encode).
    pub fn fallback_code<V: PackingValue>(&self) -> Colour {
        let ones = vec![V::one(); self.len];
        Colour::from_ubig(self.encode(&ones))
    }
}

/// Index of the lowest bit where `a` and `b` differ.
///
/// # Panics
/// Panics if `a == b` (Cole–Vishkin requires distinct successor colours).
pub fn first_diff_bit(a: &UBig, b: &UBig) -> u64 {
    let (la, lb) = (a.limbs(), b.limbs());
    let len = la.len().max(lb.len());
    for i in 0..len {
        let xa = la.get(i).copied().unwrap_or(0);
        let xb = lb.get(i).copied().unwrap_or(0);
        if xa != xb {
            return i as u64 * 64 + (xa ^ xb).trailing_zeros() as u64;
        }
    }
    panic!("first_diff_bit: colours are equal");
}

/// One Cole–Vishkin step for a node with a successor: the new colour is
/// `2i + bit_i(own)` where `i = first_diff_bit(own, successor)`.
pub fn cv_step(own: &UBig, successor: &UBig) -> UBig {
    let i = first_diff_bit(own, successor);
    let bit = u64::from(own.bit(i));
    UBig::from_u64(2 * i + bit)
}

/// The Cole–Vishkin step for a **root** (no successor): `bit_0(own)`,
/// guaranteed to differ from any child's step value (a child that differs
/// from the root at bit 0 keeps its own bit 0, which differs from the
/// root's).
pub fn cv_step_root(own: &UBig) -> UBig {
    UBig::from_u64(u64::from(own.bit(0)))
}

/// A Cole–Vishkin colour that stays inline while it fits 128 bits.
///
/// Canonical-arm invariant: a value below 2¹²⁸ is always held inline, so
/// the derived equality is numeric equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Colour(ColourRepr);

#[derive(Clone, Debug, PartialEq, Eq)]
enum ColourRepr {
    /// Every colour below 2¹²⁸.
    Small(u128),
    /// Only colours of more than 128 bits.
    Big(UBig),
}

impl Colour {
    /// The colour `c`.
    pub fn small(c: u64) -> Colour {
        Colour(ColourRepr::Small(u128::from(c)))
    }

    /// The colour `u`, held inline when it fits.
    pub fn from_ubig(u: UBig) -> Colour {
        Colour(u.to_u128().map_or(ColourRepr::Big(u), ColourRepr::Small))
    }

    /// The colour as a big integer (borrowed when it is one already).
    pub fn to_ubig(&self) -> Cow<'_, UBig> {
        match &self.0 {
            ColourRepr::Small(c) => Cow::Owned(UBig::from_u128(*c)),
            ColourRepr::Big(u) => Cow::Borrowed(u),
        }
    }

    /// The colour as a `u64`, if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match &self.0 {
            ColourRepr::Small(c) => u64::try_from(*c).ok(),
            ColourRepr::Big(_) => None,
        }
    }

    /// Number of significant bits (0 for the colour 0), as [`UBig::bits`].
    pub fn bits(&self) -> u64 {
        match &self.0 {
            ColourRepr::Small(c) => u64::from(128 - c.leading_zeros()),
            ColourRepr::Big(u) => u.bits(),
        }
    }

    /// Value of bit `i`.
    pub fn bit(&self, i: u64) -> bool {
        match &self.0 {
            ColourRepr::Small(c) => i < 128 && (c >> i) & 1 == 1,
            ColourRepr::Big(u) => u.bit(i),
        }
    }

    /// [`cv_step`] on colours: `2i + bit_i(self)` for the lowest bit `i` at
    /// which `self` and `successor` differ. Allocates only when either
    /// colour is wider than 128 bits.
    ///
    /// # Panics
    /// Panics if the colours are equal.
    pub fn cv_step(&self, successor: &Colour) -> Colour {
        let i = match (&self.0, &successor.0) {
            (ColourRepr::Small(a), ColourRepr::Small(b)) => {
                assert_ne!(a, b, "first_diff_bit: colours are equal");
                u64::from((a ^ b).trailing_zeros())
            }
            _ => first_diff_bit(&self.to_ubig(), &successor.to_ubig()),
        };
        Colour::small(2 * i + u64::from(self.bit(i)))
    }

    /// [`cv_step_root`] on colours: `bit_0(self)`.
    pub fn cv_step_root(&self) -> Colour {
        Colour::small(u64::from(self.bit(0)))
    }
}

/// The deterministic Cole–Vishkin schedule for a given initial colour space.
///
/// All quantities depend only on the global parameters, so every node
/// computes the identical schedule locally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CvSchedule {
    /// Number of `cv_step` rounds needed to reach colours in `{0, …, 5}`.
    pub steps: u32,
}

impl CvSchedule {
    /// Schedule for initial colours `< bound`.
    pub fn for_bound(bound: &UBig) -> CvSchedule {
        // Colour-space bit length evolution: b -> bits(2b - 1); stop when all
        // colours fit in {0..5}, i.e. when values < 2b <= 6 (b <= 3).
        let mut b = bound.bits().max(1);
        let mut steps = 0u32;
        while b > 3 {
            b = 64 - (2 * b - 1).leading_zeros() as u64;
            steps += 1;
        }
        // One final step maps b <= 3 into {0..5}.
        CvSchedule { steps: steps + 1 }
    }

    /// log*-style growth: the step count is O(log* bound) (tested).
    pub fn rounds(&self) -> u64 {
        self.steps as u64
    }
}

/// Iterated logarithm `log* n` (base 2), the paper's complexity yardstick.
pub fn log_star(mut n: f64) -> u32 {
    let mut it = 0;
    while n > 1.0 {
        n = n.log2();
        it += 1;
    }
    it
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_bigmath::{AutoRat, BigRat};

    #[test]
    fn encoder_is_order_preserving_injection() {
        let enc = SeqEncoder::phase1(3, 4); // scale = 6^3 = 216, base = 865
        let r = |n: i64, d: u64| BigRat::from_frac(n, d);
        let seqs = [
            vec![r(1, 2), r(1, 2), r(1, 1)],
            vec![r(1, 2), r(1, 2), r(2, 1)],
            vec![r(1, 2), r(1, 1), r(1, 3)],
            vec![r(1, 1), r(1, 3), r(1, 3)],
            vec![r(4, 1), r(4, 1), r(4, 1)],
        ];
        let codes: Vec<UBig> = seqs.iter().map(|s| enc.encode(s)).collect();
        // Injective.
        for i in 0..codes.len() {
            for j in i + 1..codes.len() {
                assert_ne!(codes[i], codes[j], "codes {i} vs {j}");
            }
        }
        // Lexicographic order preserved (seqs listed in increasing lex order).
        for w in codes.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Bound.
        for c in &codes {
            assert!(*c < enc.code_bound());
        }
    }

    /// `try_encode` gives `encode`'s code on either side of 128 bits, and
    /// `None` where `encode` would panic.
    #[test]
    fn try_encode_matches_encode_across_the_promotion_boundary() {
        let r = |n: i64, d: u64| BigRat::from_frac(n, d);
        for (delta, w) in [(3usize, 4u64), (3, 1 << 40), (4, 1 << 20), (8, 1)] {
            let enc = SeqEncoder::phase1(delta, w);
            let seqs = [
                vec![r(1, 1); delta],
                (0..delta).map(|i| r(1, i as u64 + 1)).collect::<Vec<_>>(),
                vec![r(w as i64, 1); delta],
            ];
            for seq in &seqs {
                let want = enc.encode(seq);
                assert_eq!(
                    enc.try_encode(seq),
                    Some(Colour::from_ubig(want.clone())),
                    "Δ {delta}, W {w}"
                );
                assert_eq!(*enc.try_encode(seq).unwrap().to_ubig(), want);
                assert_eq!(
                    enc.try_encode(
                        &seq.iter().cloned().map(AutoRat::from_bigrat).collect::<Vec<_>>()
                    ),
                    enc.try_encode(seq)
                );
            }
            assert_eq!(enc.try_encode(&vec![r(1, 1); delta + 1]), None, "wrong length");
            let mut bad = vec![r(1, 1); delta];
            bad[delta - 1] = r(w as i64 + 1, 1);
            assert_eq!(enc.try_encode(&bad), None, "digit out of range");
            bad[delta - 1] = BigRat::zero();
            assert_eq!(enc.try_encode(&bad), None, "zero digit");
        }
        assert!(SeqEncoder::phase1(3, 1 << 40).code_bound().bits() > 128);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn encoder_rejects_zero_elements() {
        let enc = SeqEncoder::phase1(2, 4);
        let _ = enc.encode(&[BigRat::zero(), BigRat::one()]);
    }

    #[test]
    fn first_diff_bit_cases() {
        let u = UBig::from_u64;
        assert_eq!(first_diff_bit(&u(0b1010), &u(0b1000)), 1);
        assert_eq!(first_diff_bit(&u(1), &u(0)), 0);
        assert_eq!(first_diff_bit(&UBig::one().shl_bits(100), &UBig::zero()), 100);
        assert_eq!(first_diff_bit(&UBig::one().shl_bits(100), &UBig::one().shl_bits(101)), 100);
    }

    #[test]
    #[should_panic(expected = "equal")]
    fn first_diff_bit_equal_panics() {
        let _ = first_diff_bit(&UBig::from_u64(7), &UBig::from_u64(7));
    }

    #[test]
    fn cv_step_separates_chain() {
        // A directed path with distinct colours: after one step, adjacent
        // nodes still differ.
        let colours: Vec<UBig> =
            [83u64, 20, 91, 64, 3].iter().map(|&c| UBig::from_u64(c)).collect();
        let mut new = Vec::new();
        for i in 0..colours.len() {
            if i + 1 < colours.len() {
                new.push(cv_step(&colours[i], &colours[i + 1]));
            } else {
                new.push(cv_step_root(&colours[i]));
            }
        }
        for i in 0..new.len() - 1 {
            assert_ne!(new[i], new[i + 1], "position {i}");
        }
        // New colours are < 2 * bitlen(old bound).
        for c in &new {
            assert!(c.to_u64().unwrap() < 2 * 7);
        }
    }

    #[test]
    fn cv_root_child_never_collide() {
        // Exhaustive check over small colour pairs.
        for root in 0u64..64 {
            for child in 0u64..64 {
                if root == child {
                    continue;
                }
                let r = UBig::from_u64(root);
                let c = UBig::from_u64(child);
                assert_ne!(cv_step(&c, &r), cv_step_root(&r), "root={root} child={child}");
            }
        }
    }

    /// Colours agree with the `UBig` primitives on both sides of the
    /// 128-bit promotion boundary.
    #[test]
    fn colours_match_ubig_across_the_promotion_boundary() {
        let one = UBig::one();
        let values = [
            UBig::zero(),
            UBig::from_u64(1),
            UBig::from_u64(0b1011_0000),
            UBig::from_u128(u128::MAX),
            one.shl_bits(127),
            one.shl_bits(128),
            one.shl_bits(128).mul_ref(&UBig::from_u64(3)),
            one.shl_bits(200).mul_ref(&UBig::from_u64(5)),
        ];
        for a in &values {
            let ca = Colour::from_ubig(a.clone());
            assert_eq!(ca.bits(), a.bits());
            assert_eq!(ca.to_u64(), a.to_u64());
            assert_eq!(*ca.to_ubig(), *a);
            assert_eq!(ca.cv_step_root(), Colour::from_ubig(cv_step_root(a)));
            for i in [0, 5, 127, 128, 200, 202] {
                assert_eq!(ca.bit(i), a.bit(i), "bit {i} of {a}");
            }
            for b in &values {
                let cb = Colour::from_ubig(b.clone());
                assert_eq!(ca == cb, a == b);
                if a != b {
                    assert_eq!(ca.cv_step(&cb), Colour::from_ubig(cv_step(a, b)), "{a} vs {b}");
                }
            }
        }
        assert_eq!(Colour::from_ubig(one.shl_bits(127)).to_ubig().bits(), 128);
        assert!(matches!(Colour::from_ubig(one.shl_bits(128)).0, ColourRepr::Big(_)));
        assert!(matches!(Colour::from_ubig(UBig::from_u128(u128::MAX)).0, ColourRepr::Small(_)));
    }

    #[test]
    fn cv_schedule_log_star_growth() {
        let tiny = CvSchedule::for_bound(&UBig::from_u64(6));
        assert_eq!(tiny.steps, 1);
        let small = CvSchedule::for_bound(&UBig::from_u64(1 << 20));
        let huge = CvSchedule::for_bound(&UBig::from_u64(2).pow(1 << 20));
        // log* growth: a tower jump adds O(1) steps.
        assert!(small.steps >= 2);
        assert!(huge.steps <= small.steps + 3, "small={} huge={}", small.steps, huge.steps);
    }

    #[test]
    fn cv_schedule_is_sufficient() {
        // Simulate the worst case: run cv_step on a path of maximally distinct
        // colours for the scheduled number of steps; all end in {0..5}.
        let bound = UBig::from_u64(2).pow(300);
        let sched = CvSchedule::for_bound(&bound);
        let mut colours: Vec<UBig> = (0..40u64)
            .map(|i| {
                // Spread-out distinct colours below the bound.
                UBig::from_u64(i + 1).mul_ref(&UBig::from_u64(2).pow(290))
            })
            .collect();
        for _ in 0..sched.steps {
            let mut next = Vec::with_capacity(colours.len());
            for i in 0..colours.len() {
                if i + 1 < colours.len() {
                    next.push(cv_step(&colours[i], &colours[i + 1]));
                } else {
                    next.push(cv_step_root(&colours[i]));
                }
            }
            colours = next;
        }
        for (i, c) in colours.iter().enumerate() {
            assert!(c.to_u64().unwrap() <= 5, "colour {i} = {c}");
            if i + 1 < colours.len() {
                assert_ne!(colours[i], colours[i + 1]);
            }
        }
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(2f64.powi(100)), 5);
    }
}
