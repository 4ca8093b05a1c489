//! Property-based tests for the algebraic substrates.

use mlcx_gf2::{minpoly, Gf2Poly, GfField, MulKernel};
use proptest::prelude::*;

fn arb_poly(max_deg: usize) -> impl Strategy<Value = Gf2Poly> {
    proptest::collection::vec(any::<bool>(), 0..=max_deg + 1).prop_map(|coeffs| {
        let mut p = Gf2Poly::zero();
        for (i, c) in coeffs.into_iter().enumerate() {
            p.set_coeff(i, c);
        }
        p
    })
}

proptest! {
    #[test]
    fn poly_addition_commutes(a in arb_poly(200), b in arb_poly(200)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn poly_addition_associates(a in arb_poly(150), b in arb_poly(150), c in arb_poly(150)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn poly_self_cancellation(a in arb_poly(300)) {
        prop_assert!((&a + &a).is_zero());
    }

    #[test]
    fn poly_multiplication_commutes(a in arb_poly(120), b in arb_poly(120)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn poly_multiplication_distributes(a in arb_poly(90), b in arb_poly(90), c in arb_poly(90)) {
        let lhs = a.mul(&(&b + &c));
        let rhs = &a.mul(&b) + &a.mul(&c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn poly_degree_of_product_adds(a in arb_poly(100), b in arb_poly(100)) {
        // Over GF(2) leading terms cannot cancel: deg(ab) = deg a + deg b.
        if let (Some(da), Some(db)) = (a.degree(), b.degree()) {
            prop_assert_eq!(a.mul(&b).degree(), Some(da + db));
        }
    }

    #[test]
    fn poly_division_invariant(a in arb_poly(250), d in arb_poly(60)) {
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(&d);
        prop_assert_eq!(&q.mul(&d) + &r, a);
        if let Some(rd) = r.degree() {
            prop_assert!(rd < d.degree().unwrap());
        }
    }

    #[test]
    fn field_axioms_random_elements(
        m in 2u32..=12,
        seeds in proptest::collection::vec(0u32..u32::MAX, 3),
    ) {
        let f = GfField::new(m).unwrap();
        let size = f.size();
        let (a, b, c) = (seeds[0] % size, seeds[1] % size, seeds[2] % size);
        // Associativity and commutativity of multiplication.
        prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        // Distributivity over addition (xor).
        prop_assert_eq!(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
        // Identity.
        prop_assert_eq!(f.mul(a, 1), a);
    }

    #[test]
    fn field_inverse_roundtrip(m in 2u32..=12, seed in 1u32..u32::MAX) {
        let f = GfField::new(m).unwrap();
        let a = seed % (f.size() - 1) + 1; // nonzero
        let inv = f.inv(a).unwrap();
        prop_assert_eq!(f.mul(a, inv), 1);
        prop_assert_eq!(f.inv(inv).unwrap(), a);
    }

    #[test]
    fn field_frobenius_is_additive(m in 2u32..=12, seeds in proptest::collection::vec(0u32..u32::MAX, 2)) {
        // (a + b)^2 = a^2 + b^2 in characteristic 2.
        let f = GfField::new(m).unwrap();
        let (a, b) = (seeds[0] % f.size(), seeds[1] % f.size());
        prop_assert_eq!(f.mul(a ^ b, a ^ b), f.mul(a, a) ^ f.mul(b, b));
    }

    #[test]
    fn minimal_polys_have_coset_degree(m in 3u32..=10, s_seed in 1u32..5000) {
        let f = GfField::new(m).unwrap();
        let s = s_seed % f.order();
        prop_assume!(s != 0);
        let coset = minpoly::cyclotomic_coset(m, s);
        let mp = minpoly::minimal_poly(&f, s);
        prop_assert_eq!(mp.degree(), Some(coset.len()));
        // Vanishes on alpha^s.
        prop_assert_eq!(mp.eval_in_field(&f, f.alpha_pow(s as i64)), 0);
    }

    #[test]
    fn every_mul_kernel_matches_reference(a in arb_poly(300), b in arb_poly(300)) {
        // Differential harness for the multiply kernels: each must be
        // bit-identical to the bit-serial oracle, the production kernel on
        // whichever multiply this build and CPU give it.
        let reference = a.mul_with(&b, MulKernel::Reference);
        for kernel in MulKernel::ALL {
            let out = kernel.mul_raw(a.as_words(), b.as_words());
            prop_assert_eq!(Gf2Poly::from_words(out), reference.clone());
        }
    }

    #[test]
    fn mul_kernels_canonicalize_word_boundaries(shift_a in 0usize..200, shift_b in 0usize..200) {
        // Single-bit operands land products exactly on/around word seams;
        // every kernel must produce the same canonical (normalized) words.
        let mut a = Gf2Poly::zero();
        a.set_coeff(shift_a, true);
        let mut b = Gf2Poly::zero();
        b.set_coeff(shift_b, true);
        for kernel in MulKernel::ALL {
            let p = a.mul_with(&b, kernel);
            prop_assert!(p.is_normalized());
            prop_assert_eq!(p.degree(), Some(shift_a + shift_b));
        }
    }

    #[test]
    fn production_mul_matches_oracle_on_generator_sized_operands(
        acc in proptest::collection::vec(any::<u64>(), 17),
        wide in proptest::collection::vec(any::<u64>(), 17),
        narrow in any::<u64>(),
    ) {
        // `GeneratorTable` multiplies a running g(x) of up to 17 words
        // (deg 1040 at t = 65 over GF(2^16)) by one-word minimal
        // polynomials; 17 x 17 bounds any product of two generators.
        let acc = Gf2Poly::from_words(acc);
        for rhs in [Gf2Poly::from_words(vec![narrow]), Gf2Poly::from_words(wide)] {
            prop_assert_eq!(acc.mul(&rhs), acc.mul_with(&rhs, MulKernel::Reference));
        }
    }

    #[test]
    fn generator_poly_bose_bound(m in 4u32..=11, t in 1u32..=6) {
        let f = GfField::new(m).unwrap();
        prop_assume!((m * t) < f.order());
        let g = minpoly::generator_poly(&f, t);
        let deg = g.degree().unwrap();
        prop_assert!(deg <= (m * t) as usize);
        // Designed roots are roots.
        for i in 1..=(2 * t) as i64 {
            prop_assert_eq!(g.eval_in_field(&f, f.alpha_pow(i)), 0);
        }
    }
}

/// `generator_poly` runs on `Gf2Poly::mul`; these are FNV-1a hashes of
/// g(x)'s little-endian words, pinned before `mul` first moved to
/// `MulKernel::best()`, and held through every production multiply since.
#[test]
fn generator_polys_are_unchanged_by_the_multiply_kernel() {
    let f = GfField::new(16).unwrap();
    for (t, degree, fnv) in [
        (3u32, 48usize, 0x6017_b2bd_d2e9_6486u64),
        (14, 224, 0x99c4_445f_26a9_4683),
        (30, 480, 0x7a3b_91b6_541c_4063),
        (65, 1040, 0xe3c5_bbee_d98f_6d15),
    ] {
        let g = minpoly::generator_poly(&f, t);
        assert_eq!(g.degree(), Some(degree), "t = {t}");
        let hash = g
            .as_words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(hash, fnv, "t = {t}");
    }
}
