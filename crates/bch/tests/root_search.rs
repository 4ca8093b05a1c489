//! Differential tests for the root search: the production solve
//! ([`chien::find_error_positions_stride`]) must return exactly what the
//! oracle sweep ([`chien::find_error_positions`]) returns — the same sorted
//! positions, and `None` on the same locators.

use std::collections::BTreeSet;

use mlcx_bch::chien::{find_error_positions, find_error_positions_stride};
use mlcx_gf2::kernels::{frobenius_chain, frobenius_scratch_len};
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
    // all of which end in factors of degree 4 and less — are walked.
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
fn locators_of_degree_66_to_70_over_gf2_16() {
    // Past the paper's t = 65: a user-set `ecc_tmax` reaches t = 70.
    let mut rng = StdRng::seed_from_u64(0x66_70);
    let f = GfField::new(16).unwrap();
    for n_bits in PAGE_CODEWORDS {
        for deg in 66..=70 {
            let positions = distinct_below(&mut rng, deg, n_bits);
            let exps: Vec<u32> = positions.iter().map(|&p| (n_bits - 1 - p) as u32).collect();
            let scale = rng.random_range(1..f.size());
            let lambda: Vec<u32> = locator_for(&f, &exps)
                .iter()
                .map(|&c| f.mul(c, scale))
                .collect();
            let expect: Vec<usize> = positions.into_iter().collect();
            assert_eq!(both(&f, &lambda, n_bits), Some(expect), "degree {deg}");
            // One root moved past the window, or onto another: refused.
            let mut outside = exps.clone();
            outside[0] = n_bits as u32 + rng.random_range(0..f.order() - n_bits as u32);
            assert_eq!(both(&f, &locator_for(&f, &outside), n_bits), None);
            let mut repeated = exps;
            repeated[0] = repeated[1];
            assert_eq!(both(&f, &locator_for(&f, &repeated), n_bits), None);
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

/// `scale * prod_i (x + roots[i])`, low coefficient first.
fn poly_with_roots(field: &GfField, roots: &[u32], scale: u32) -> Vec<u32> {
    let mut p = vec![scale];
    for &r in roots {
        p.push(0);
        for c in (0..p.len()).rev() {
            p[c] = field.mul(p[c], r) ^ if c > 0 { p[c - 1] } else { 0 };
        }
    }
    p
}

/// Where the sweep finds the root `alpha^j`: step `(j - start) mod N`.
fn step_of(field: &GfField, root: u32, n_bits: usize) -> usize {
    (field.log(root).unwrap() as usize + n_bits - 1) % field.order() as usize
}

#[test]
fn every_cubic_and_quartic_over_the_small_fields_agrees() {
    // Every monic polynomial of degree 3 and 4 over GF(2^4) and every
    // cubic over GF(2^5), unshortened and through a window: all the ways
    // a closed form can decline (a root at 0, a repeated root, a factor
    // that is irreducible, a root past the window) and every root set.
    for (m, degrees) in [(4u32, 3..=4), (5, 3..=3)] {
        let f = GfField::new(m).unwrap();
        let order = f.order() as usize;
        for deg in degrees {
            let mut split = 0;
            for low in 0..f.size().pow(deg) {
                let mut lambda: Vec<u32> = (0..deg).map(|c| low >> (c * m) & f.order()).collect();
                lambda.push(1);
                split += usize::from(both(&f, &lambda, order).is_some());
                both(&f, &lambda, order - 4);
            }
            // One per set of `deg` distinct nonzero roots.
            let sets = (0..deg as usize).fold(1, |c, i| c * (order - i) / (i + 1));
            assert_eq!(split, sets, "m {m}, degree {deg}");
        }
    }
}

#[test]
fn every_set_of_three_and_of_four_roots_is_solved_in_closed_form() {
    let mut rng = StdRng::seed_from_u64(0xC10_5ED);
    // Exhaustively over the small fields, unshortened...
    for m in [4u32, 5] {
        let f = GfField::new(m).unwrap();
        let order = f.order();
        let mut solved = |exps: &[u32]| {
            let roots: Vec<u32> = exps.iter().map(|&e| f.alpha_pow(e as i64)).collect();
            let lambda = poly_with_roots(&f, &roots, rng.random_range(1..f.size()));
            let mut expect: Vec<usize> = roots
                .iter()
                .map(|&r| step_of(&f, r, order as usize))
                .collect();
            expect.sort_unstable();
            assert_eq!(both(&f, &lambda, order as usize), Some(expect), "m {m}");
        };
        for e2 in 0..order {
            for e1 in 0..e2 {
                for e0 in 0..e1 {
                    solved(&[e0, e1, e2]);
                    (e2 + 1..order).for_each(|e3| solved(&[e0, e1, e2, e3]));
                }
            }
        }
    }
    // ...and 4 096 seeded sets of each size at the codeword lengths of the
    // large ones, every sixteenth of them against the sweep as well.
    for (m, n_bits) in [(13, SECTOR_CODEWORDS[1]), (16, PAGE_CODEWORDS[1])] {
        let f = GfField::new(m).unwrap();
        for deg in [3, 4] {
            for round in 0..4096 {
                let positions = distinct_below(&mut rng, deg, n_bits);
                let exps: Vec<u32> = positions.iter().map(|&p| (n_bits - 1 - p) as u32).collect();
                let scale = rng.random_range(1..f.size());
                let lambda: Vec<u32> = locator_for(&f, &exps)
                    .iter()
                    .map(|&c| f.mul(c, scale))
                    .collect();
                let solved = if round % 16 == 0 {
                    both(&f, &lambda, n_bits)
                } else {
                    find_error_positions_stride(&f, &lambda, n_bits)
                };
                assert_eq!(solved, Some(positions.into_iter().collect()), "m {m}");
            }
        }
    }
}

#[test]
fn cubics_and_quartics_on_each_branch_of_the_closed_form() {
    let mut rng = StdRng::seed_from_u64(0xB2A_4C4E5);
    for (m, n_bits) in [(13, SECTOR_CODEWORDS[1]), (16, PAGE_CODEWORDS[1])] {
        let f = GfField::new(m).unwrap();
        let order = f.order() as usize;
        let sqrt = |v: u32| f.pow(v, 1 << (m - 1));
        for _ in 0..64 {
            let mut draw = || rng.random_range(1..f.size());
            let (r1, r2, r3, scale) = (draw(), draw(), draw(), draw());
            if r1 == r2 || r1 == r3 || r2 == r3 || r1 ^ r2 ^ r3 == 0 {
                continue;
            }
            let solved = |roots: &[u32], n_bits: usize| {
                let mut expect: Vec<usize> =
                    roots.iter().map(|&r| step_of(&f, r, n_bits)).collect();
                expect.sort_unstable();
                let found = both(&f, &poly_with_roots(&f, roots, scale), n_bits);
                assert_eq!(found.is_some(), expect.iter().all(|&s| s < n_bits));
                if let Some(found) = found {
                    assert_eq!(found, expect);
                }
            };
            // A quartic without its cubic term is affine as it stands...
            let affine = [r1, r2, r3, r1 ^ r2 ^ r3];
            assert_eq!(poly_with_roots(&f, &affine, 1)[3], 0);
            solved(&affine, order);
            solved(&affine, n_bits);
            // ...one without its linear term (the reciprocals sum to zero)
            // needs no shift.
            let unshifted = affine.map(|r| f.inv(r).unwrap());
            assert_eq!(poly_with_roots(&f, &unshifted, 1)[1], 0);
            solved(&unshifted, order);
            solved(&unshifted, n_bits);
            // Neither term, and a cubic without its square term.
            let subspace = [r1, r2, r1 ^ r2];
            solved(&subspace, order);
            // A cubic whose x^2 coefficient is a root of it has the square
            // x^2 + b2 beside it: a repeated root, which nobody finds.
            let s = sqrt(r2);
            let declining = poly_with_roots(&f, &[r1, s, s], scale);
            assert_eq!(
                f.mul(declining[2], declining[1]),
                f.mul(declining[0], declining[3])
            );
            assert_eq!(both(&f, &declining, order), None);
            // A double root at sqrt(c / a): the shifted constant vanishes.
            let double = poly_with_roots(&f, &[r3, r3, r1, r2], 1);
            assert_eq!(sqrt(f.div(double[1], double[3]).unwrap()), r3);
            assert_eq!(both(&f, &double, order), None);
            // Repeated roots otherwise, and a root at 0.
            assert_eq!(
                both(&f, &poly_with_roots(&f, &[r1, r1, r1], scale), order),
                None
            );
            assert_eq!(
                both(&f, &poly_with_roots(&f, &[r1, r2, r1, r2], scale), order),
                None
            );
            assert_eq!(
                both(&f, &poly_with_roots(&f, &[0, r1, r2], scale), order),
                None
            );
            assert_eq!(
                both(&f, &poly_with_roots(&f, &[r1, 0, r2, r3], scale), order),
                None
            );
            // An irreducible quadratic beside one or two roots.
            let u = draw();
            if f.solve_quadratic(u).is_none() {
                let cubic = [f.mul(u, r1), u ^ r1, 1 ^ r1, 1];
                assert_eq!(both(&f, &cubic, order), None, "(x^2 + x + u)(x + r1)");
                let mut quartic = vec![0];
                quartic.extend(cubic);
                for c in 0..4 {
                    quartic[c] ^= f.mul(cubic[c], r2);
                }
                assert_eq!(both(&f, &quartic, order), None);
            }
            // One root past the end of the shortened window.
            let inside = |e: u32| f.alpha_pow(-((e as usize % n_bits) as i64));
            let outside = f.alpha_pow(-((n_bits + r1 as usize % (order - n_bits)) as i64));
            for roots in [
                vec![inside(r1), inside(r2 + 1), outside],
                vec![inside(r1), inside(r2 + 1), inside(r3 + 2), outside],
            ] {
                let distinct: BTreeSet<u32> = roots.iter().copied().collect();
                if distinct.len() == roots.len() {
                    let lambda = poly_with_roots(&f, &roots, scale);
                    assert_eq!(both(&f, &lambda, n_bits), None);
                    assert!(both(&f, &lambda, order).is_some());
                }
            }
        }
    }
}

#[test]
fn the_kernel_chain_is_repeated_squaring_by_field_arithmetic() {
    // z_i = x^(2^i) mod f, every degree the codec's locators reach, by
    // schoolbook multiplication through `GfField::mul`.
    let mut rng = StdRng::seed_from_u64(0xF20B);
    for m in [13u32, 16] {
        let field = GfField::new(m).unwrap();
        for deg in 3..=65usize {
            let stride = deg.next_multiple_of(2);
            let mut f: Vec<u32> = (0..deg)
                .map(|_| rng.random_range(0..field.size()))
                .collect();
            f.resize(stride, 0);
            let mut scratch = vec![0; frobenius_scratch_len(deg)];
            let mut z = vec![0; (m as usize + 1) * stride];
            let fixed = frobenius_chain(field.barrett(), &f, deg, &mut scratch, &mut z);
            let mut expect = vec![0u32; stride];
            expect[1] = 1;
            for (i, z_i) in z.chunks(stride).enumerate() {
                assert_eq!(z_i, expect, "m {m}, degree {deg}, z_{i}");
                let mut square = vec![0u32; 2 * deg];
                for (j, &c) in z_i[..deg].iter().enumerate() {
                    square[2 * j] = field.mul(c, c);
                }
                for top in (deg..2 * deg).rev() {
                    let lead = std::mem::take(&mut square[top]);
                    for (c, &fc) in f[..deg].iter().enumerate() {
                        square[top - deg + c] ^= field.mul(lead, fc);
                    }
                }
                expect[..deg].copy_from_slice(&square[..deg]);
            }
            let x = z[m as usize * stride..].iter().enumerate();
            assert_eq!(fixed, x.into_iter().all(|(c, &v)| v == u32::from(c == 1)));
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
