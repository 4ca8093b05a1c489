//! Differential tests for the root search: the production solve
//! ([`chien::find_error_positions_stride`]) must return exactly what the
//! oracle sweep ([`chien::find_error_positions`]) returns — the same sorted
//! positions, and `None` on the same locators.

use std::collections::BTreeSet;

use mlcx_bch::chien::{find_error_positions, find_error_positions_stride};
use mlcx_gf2::GfField;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The two shortened lengths the controller's ROM spans over GF(2^16):
/// 4 KiB + parity at t = 14 and at t = 65.
const PAGE_CODEWORDS: [usize; 2] = [32_992, 33_808];

/// `lambda(x) = prod_j (1 + alpha^(e_j) x)`: errors at codeword exponents
/// `e_j`, i.e. roots `alpha^(-e_j)`.
fn locator_for(field: &GfField, error_exps: &[u32]) -> Vec<u32> {
    let mut lambda = vec![1u32];
    for &e in error_exps {
        let x = field.alpha_pow(e as i64);
        let mut next = vec![0u32; lambda.len() + 1];
        for (d, &c) in lambda.iter().enumerate() {
            next[d] ^= c;
            next[d + 1] ^= field.mul(c, x);
        }
        lambda = next;
    }
    lambda
}

/// Runs both searches, asserts they agree, returns the common answer.
fn both(field: &GfField, lambda: &[u32], n_bits: usize) -> Option<Vec<usize>> {
    let solved = find_error_positions_stride(field, lambda, n_bits);
    let swept = find_error_positions(field, lambda, n_bits);
    assert_eq!(solved, swept, "n_bits {n_bits}, lambda {lambda:?}");
    solved
}

fn distinct_below(rng: &mut StdRng, count: usize, bound: usize) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    while set.len() < count {
        set.insert(rng.random_range(0..bound));
    }
    set
}

/// GF(2^13) beside it: 512-byte sectors at t = 8 and t = 40.
const SECTOR_CODEWORDS: [usize; 2] = [4_200, 4_616];

#[test]
fn split_locators_of_every_degree_at_the_page_codeword_lengths() {
    // Every degree from 2 up, so that splitting chains of every shape —
    // all of which now end in quadratics or linear factors — are walked.
    let mut rng = StdRng::seed_from_u64(0x5EED_C41E);
    for (m, lengths, t) in [(16, PAGE_CODEWORDS, 65), (13, SECTOR_CODEWORDS, 40)] {
        let f = GfField::new(m).unwrap();
        for n_bits in lengths {
            for deg in 2..=t {
                let positions = distinct_below(&mut rng, deg, n_bits);
                let exps: Vec<u32> = positions.iter().map(|&p| (n_bits - 1 - p) as u32).collect();
                let mut lambda = locator_for(&f, &exps);
                // Berlekamp-Massey's scaling (lambda_0 = 1) is not assumed.
                let scale = rng.random_range(1..f.size());
                for c in &mut lambda {
                    *c = f.mul(*c, scale);
                }
                let expect: Vec<usize> = positions.into_iter().collect();
                assert_eq!(
                    both(&f, &lambda, n_bits),
                    Some(expect),
                    "m {m}, degree {deg}"
                );
            }
        }
    }
}

#[test]
fn quadratic_locators_are_solved_in_closed_form_or_refused() {
    let mut rng = StdRng::seed_from_u64(0x0DE6_0002);
    for (m, lengths) in [(16, PAGE_CODEWORDS), (13, SECTOR_CODEWORDS)] {
        let f = GfField::new(m).unwrap();
        let order = f.order();
        for n_bits in lengths {
            let n = n_bits as u32;
            // Two roots in the window: the ends, neighbours, random pairs.
            let random: Vec<[u32; 2]> = (0..64)
                .map(|_| {
                    let mut pair = distinct_below(&mut rng, 2, n_bits).into_iter();
                    [pair.next().unwrap() as u32, pair.next().unwrap() as u32]
                })
                .collect();
            for exps in [[0, n - 1], [0, 1], [n - 2, n - 1]]
                .into_iter()
                .chain(random)
            {
                let mut expect = exps.map(|e| n_bits - 1 - e as usize);
                expect.sort_unstable();
                let scale = rng.random_range(1..f.size());
                let lambda: Vec<u32> = locator_for(&f, &exps)
                    .iter()
                    .map(|&c| f.mul(c, scale))
                    .collect();
                assert_eq!(both(&f, &lambda, n_bits), Some(expect.to_vec()));
            }
            // A double root: (1 + X x)^2 has no x term.
            for e in [0, 30, n - 1] {
                let lambda = locator_for(&f, &[e, e]);
                assert_eq!(lambda[1], 0);
                assert_eq!(both(&f, &lambda, n_bits), None, "double root {e}");
            }
            // Roots outside the field: x^2 + x + u with Tr(u) = 1, scaled
            // and stretched (x -> x / c) so that lambda_1 is not 1.
            let mut refused = 0;
            for _ in 0..64 {
                let u = rng.random_range(1..f.size());
                if f.solve_quadratic(u).is_some() {
                    continue;
                }
                let c = rng.random_range(1..f.size());
                let lambda = [f.mul(u, f.mul(c, c)), c, 1];
                assert_eq!(both(&f, &lambda, n_bits), None, "irreducible, u = {u}");
                refused += 1;
            }
            assert!(refused > 16, "half of the field has trace 1");
            // One root in the window, one past either end of it.
            for outside in [n, n + 1, order - 1, (n + order) / 2] {
                for inside in [0, 5, n - 1] {
                    let lambda = locator_for(&f, &[inside, outside]);
                    assert_eq!(both(&f, &lambda, n_bits), None, "{inside}, {outside}");
                }
            }
            // A root at zero.
            assert_eq!(both(&f, &[0, 1, f.alpha_pow(9)], n_bits), None);
        }
    }
}

#[test]
fn window_edges_and_degenerate_locators() {
    let f = GfField::new(16).unwrap();
    let order = f.order();
    for n_bits in PAGE_CODEWORDS {
        let n = n_bits as u32;
        // First and last stream position, and both at once.
        assert_eq!(
            both(&f, &locator_for(&f, &[0, n - 1, 77]), n_bits),
            Some(vec![0, n_bits - 1 - 77, n_bits - 1])
        );
        // One exponent past either end of the shortened window.
        for outside in [n, n + 1, order - 1, order - 2, (n + order) / 2] {
            assert_eq!(both(&f, &locator_for(&f, &[5, outside]), n_bits), None);
            let many: Vec<u32> = (100..140).chain([outside]).collect();
            assert_eq!(both(&f, &locator_for(&f, &many), n_bits), None);
        }
        // A repeated root: two factors, one position.
        assert_eq!(both(&f, &locator_for(&f, &[30, 30]), n_bits), None);
        assert_eq!(
            both(&f, &locator_for(&f, &[1, 2, 3, 30, 4, 30, 5]), n_bits),
            None
        );
        // lambda_0 = 0: x divides lambda, and 0 is no alpha^j.
        let mut shifted = vec![0u32];
        shifted.extend(locator_for(&f, &[10, 20, 30]));
        assert_eq!(both(&f, &shifted, n_bits), None);
        assert_eq!(both(&f, &[0, 0, 1], n_bits), None);
        // Trailing zeros above the true degree are not part of lambda.
        let mut padded = locator_for(&f, &[9, 99, 999]);
        padded.extend([0, 0]);
        assert_eq!(
            both(&f, &padded, n_bits),
            Some(vec![n_bits - 1000, n_bits - 100, n_bits - 10])
        );
    }
}

#[test]
fn zero_interior_coefficients() {
    let f = GfField::new(16).unwrap();
    let n_bits = PAGE_CODEWORDS[1];
    // X1 + X2 + X3 = 0 makes lambda_1 vanish; pick the first such triple
    // whose third exponent also lies inside the window.
    let (e1, e2, e3) = (0..200u32)
        .flat_map(|a| (a + 1..200).map(move |b| (a, b)))
        .find_map(|(a, b)| {
            let e3 = f.log(f.alpha_pow(a as i64) ^ f.alpha_pow(b as i64))?;
            (e3 < n_bits as u32).then_some((a, b, e3))
        })
        .unwrap();
    let lambda = locator_for(&f, &[e1, e2, e3]);
    assert_eq!(lambda[1], 0);
    let mut expect: Vec<usize> = [e1, e2, e3]
        .iter()
        .map(|&e| n_bits - 1 - e as usize)
        .collect();
    expect.sort_unstable();
    assert_eq!(both(&f, &lambda, n_bits), Some(expect));
    // Sparse locators that do not split, or split outside the window.
    for lambda in [
        vec![1, 0, 0, 1],
        vec![1, 0, 1],
        vec![7, 0, 0, 0, 0, 3],
        vec![1, 0, 0, 0, 0, 0, 0, 0, 1],
        vec![1, 1, 0, 0, 0, 0, 0, 1],
    ] {
        both(&f, &lambda, n_bits);
        both(&f, &lambda, f.order() as usize);
    }
}

#[test]
fn unshortened_codes_use_every_exponent() {
    for m in [4u32, 8, 16] {
        let f = GfField::new(m).unwrap();
        let n_bits = f.order() as usize;
        let exps = [0, 1, f.order() / 2, f.order() - 2, f.order() - 1];
        let mut expect: Vec<usize> = exps.iter().map(|&e| n_bits - 1 - e as usize).collect();
        expect.sort_unstable();
        assert_eq!(both(&f, &locator_for(&f, &exps), n_bits), Some(expect));
    }
    // Every nonzero element but one is a root: the largest degree a
    // locator over GF(2^4) can have.
    let f = GfField::new(4).unwrap();
    let exps: Vec<u32> = (0..14).collect();
    assert_eq!(
        both(&f, &locator_for(&f, &exps), 15),
        Some((0..14).map(|e| 14 - e).rev().collect())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Root sets drawn from the whole group over the small fields, any
    /// window: inside, outside and straddling, up to the largest degree
    /// the field admits.
    #[test]
    fn small_fields_agree_on_any_root_set_and_window(
        m_pick in 0usize..4,
        deg_pick in 0usize..64,
        window_pick in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let f = GfField::new([4, 6, 8, 10][m_pick]).unwrap();
        let order = f.order() as usize;
        let deg = 2 + deg_pick % (order - 2).min(64);
        let n_bits = deg + window_pick as usize % (order - deg + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let exps: Vec<u32> = distinct_below(&mut rng, deg, order)
            .into_iter()
            .map(|e| e as u32)
            .collect();
        let found = both(&f, &locator_for(&f, &exps), n_bits);
        prop_assert_eq!(found.is_some(), exps.iter().all(|&e| (e as usize) < n_bits));
    }

    /// Uniformly random coefficient vectors over the small fields: most do
    /// not split, some split outside the window, a few are locators.
    #[test]
    fn small_fields_agree_on_random_coefficients(
        m_pick in 0usize..4,
        deg_pick in 0usize..64,
        window_pick in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let f = GfField::new([4, 6, 8, 10][m_pick]).unwrap();
        let order = f.order() as usize;
        let deg = 2 + deg_pick % (order - 2).min(64);
        let n_bits = deg + window_pick as usize % (order - deg + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lambda: Vec<u32> = (0..deg).map(|_| rng.random_range(0..f.size())).collect();
        lambda.push(rng.random_range(1..f.size()));
        both(&f, &lambda, n_bits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uniformly random coefficient vectors over GF(2^16) at the page
    /// codeword lengths: a failed sweep on the oracle's side, a failed
    /// split check on the production side.
    #[test]
    fn random_coefficients_over_gf2_16_agree(
        deg in 2usize..=65,
        long in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = GfField::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lambda: Vec<u32> = (0..deg).map(|_| rng.random_range(0..f.size())).collect();
        lambda.push(rng.random_range(1..f.size()));
        both(&f, &lambda, PAGE_CODEWORDS[long as usize]);
    }
}
