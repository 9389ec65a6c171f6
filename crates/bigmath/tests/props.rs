//! Property tests: big-integer and rational arithmetic against
//! `u128`/`i128` reference semantics plus algebraic laws on large values.

use anonet_bigmath::{AutoRat, BigRat, IBig, PackingValue, Rat128, UBig};
use proptest::prelude::*;

fn ubig_big() -> impl Strategy<Value = UBig> {
    // Random limb vectors up to 6 limbs (384 bits).
    proptest::collection::vec(any::<u64>(), 0..6).prop_map(UBig::from_limbs)
}

proptest! {
    #[test]
    fn u128_add_matches(a in any::<u128>(), b in any::<u128>()) {
        let sum = &UBig::from_u128(a) + &UBig::from_u128(b);
        // Reference via 256-bit decomposition.
        let (lo, carry) = a.overflowing_add(b);
        let mut expect = UBig::from_u128(lo);
        if carry {
            expect = &expect + &UBig::one().shl_bits(128);
        }
        prop_assert_eq!(sum, expect);
    }

    #[test]
    fn u128_sub_matches(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let diff = &UBig::from_u128(hi) - &UBig::from_u128(lo);
        prop_assert_eq!(diff.to_u128(), Some(hi - lo));
        prop_assert_eq!(UBig::from_u128(lo).checked_sub(&UBig::from_u128(hi)).is_none(), hi != lo);
    }

    #[test]
    fn u64_mul_matches(a in any::<u64>(), b in any::<u64>()) {
        let prod = UBig::from_u64(a).mul_ref(&UBig::from_u64(b));
        prop_assert_eq!(prod.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn div_rem_roundtrip(a in ubig_big(), d in ubig_big()) {
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&q.mul_ref(&d) + &r, a);
    }

    #[test]
    fn div_rem_matches_u128(a in any::<u128>(), d in 1..=u128::MAX) {
        let (q, r) = UBig::from_u128(a).div_rem(&UBig::from_u128(d));
        prop_assert_eq!(q.to_u128(), Some(a / d));
        prop_assert_eq!(r.to_u128(), Some(a % d));
    }

    #[test]
    fn mul_commutative_associative(a in ubig_big(), b in ubig_big(), c in ubig_big()) {
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
        prop_assert_eq!(a.mul_ref(&b).mul_ref(&c), a.mul_ref(&b.mul_ref(&c)));
    }

    #[test]
    fn mul_distributes(a in ubig_big(), b in ubig_big(), c in ubig_big()) {
        let lhs = a.mul_ref(&(&b + &c));
        let rhs = &a.mul_ref(&b) + &a.mul_ref(&c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn shift_roundtrip(a in ubig_big(), s in 0u64..300) {
        prop_assert_eq!(a.shl_bits(s).shr_bits(s), a.clone());
        // Left shift multiplies by 2^s.
        prop_assert_eq!(a.shl_bits(s), a.mul_ref(&UBig::from_u64(2).pow(s)));
    }

    #[test]
    fn gcd_properties(a in ubig_big(), b in ubig_big()) {
        let g = a.gcd(&b);
        if a.is_zero() && b.is_zero() {
            prop_assert!(g.is_zero());
        } else {
            prop_assert!(!g.is_zero());
            prop_assert!(a.div_rem(&g).1.is_zero());
            prop_assert!(b.div_rem(&g).1.is_zero());
            // gcd(a/g, b/g) = 1
            let a2 = a.div_exact(&g);
            let b2 = b.div_exact(&g);
            prop_assert!(a2.gcd(&b2).is_one());
        }
        prop_assert_eq!(a.gcd(&b), b.gcd(&a));
    }

    #[test]
    fn gcd_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        fn ref_gcd(mut a: u128, mut b: u128) -> u128 {
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        }
        prop_assert_eq!(UBig::from_u128(a).gcd(&UBig::from_u128(b)).to_u128(), Some(ref_gcd(a, b)));
    }

    #[test]
    fn display_parse_roundtrip(a in ubig_big()) {
        prop_assert_eq!(UBig::from_decimal(&a.to_string()), Some(a));
    }

    #[test]
    fn ordering_consistent_with_sub(a in ubig_big(), b in ubig_big()) {
        prop_assert_eq!(a <= b, b.checked_sub(&a).is_some());
    }

    #[test]
    fn ibig_ring_matches_i128(a in -(1i128<<62)..(1i128<<62), b in -(1i128<<62)..(1i128<<62)) {
        let (x, y) = (IBig::from_i128(a), IBig::from_i128(b));
        prop_assert_eq!((&x + &y).to_i128(), Some(a + b));
        prop_assert_eq!((&x - &y).to_i128(), Some(a - b));
        prop_assert_eq!((&x * &y).to_i128(), Some(a * b));
        if b != 0 {
            let (q, r) = x.div_rem(&y);
            prop_assert_eq!(q.to_i128(), Some(a / b));
            prop_assert_eq!(r.to_i128(), Some(a % b));
        }
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
    }

    #[test]
    fn bigrat_field_laws(
        an in -1000i64..1000, ad in 1u64..1000,
        bn in -1000i64..1000, bd in 1u64..1000,
        cn in -1000i64..1000, cd in 1u64..1000,
    ) {
        let a = BigRat::from_frac(an, ad);
        let b = BigRat::from_frac(bn, bd);
        let c = BigRat::from_frac(cn, cd);
        // Commutativity, associativity, distributivity.
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // Inverses.
        prop_assert_eq!(&a - &a, BigRat::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a / &a, BigRat::one());
            prop_assert_eq!(&a * &a.recip(), BigRat::one());
        }
    }

    #[test]
    fn bigrat_vs_rat128(
        an in -1000i64..1000, ad in 1u64..1000,
        bn in -1000i64..1000, bd in 1u64..1000,
    ) {
        let ab = BigRat::from_frac(an, ad);
        let bb = BigRat::from_frac(bn, bd);
        let af = Rat128::new(an as i128, ad as i128);
        let bf = Rat128::new(bn as i128, bd as i128);
        let same = |big: &BigRat, fix: Rat128| {
            big.numer().to_i128() == Some(fix.numer())
                && big.denom().to_u128() == Some(fix.denom() as u128)
        };
        prop_assert!(same(&(&ab + &bb), af + bf));
        prop_assert!(same(&(&ab - &bb), af - bf));
        prop_assert!(same(&(&ab * &bb), af * bf));
        if bn != 0 {
            prop_assert!(same(&(&ab / &bb), af / bf));
        }
        prop_assert_eq!(ab.cmp(&bb), af.cmp(&bf));
    }

    #[test]
    fn bigrat_ordering_via_f64_sanity(an in -10_000i64..10_000, ad in 1u64..10_000) {
        let a = BigRat::from_frac(an, ad);
        let approx = an as f64 / ad as f64;
        prop_assert!((a.to_f64() - approx).abs() <= 1e-9 * approx.abs().max(1.0));
    }

    #[test]
    fn scale_to_uint_exact(n in 0i64..1_000_000, d in 1u64..1000) {
        // scale = d * m always divides n*scale/d.
        let q = BigRat::from_frac(n, d);
        let scale = UBig::from_u64(d).mul_ref(&UBig::from_u64(840));
        let scaled = q.scale_to_uint(&scale);
        // q * scale = n * scale / d = n * 840 * (d/gcd...) — check against direct computation.
        let expect = UBig::from_u128(n as u128 * 840 * d as u128 / d as u128);
        prop_assert_eq!(scaled, expect);
    }

    #[test]
    fn packing_value_generic_paths(n in 1u64..100, d in 1u64..100) {
        // Exercise the trait object-free generic path for both value types.
        fn run<V: PackingValue>(n: u64, d: u64) -> f64 {
            let v = V::from_u64(n).div(&V::from_u64(d));
            v.add(&v).to_f64()
        }
        let a = run::<BigRat>(n, d);
        let b = run::<AutoRat>(n, d);
        prop_assert!((a - b).abs() < 1e-9);
    }
}
