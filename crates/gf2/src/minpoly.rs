//! Cyclotomic cosets, minimal polynomials and BCH generator polynomials.
//!
//! A binary BCH code correcting `t` errors over GF(2^m) has generator
//! polynomial `g(x) = lcm(M_1(x), M_2(x), ..., M_2t(x))`, where `M_s` is the
//! minimal polynomial of `alpha^s`. Because conjugate powers share a minimal
//! polynomial, the lcm multiplies one `M_s` per *cyclotomic coset*.
//!
//! The adaptive codec of the DATE 2012 paper keeps the per-`t` generator
//! polynomials in a small ROM that reconfigures the encoder LFSR; this module
//! computes exactly those ROM contents.

use crate::{Gf2Poly, GfField};

/// The cyclotomic coset of `s` modulo `2^m - 1`: `{s, 2s, 4s, ...}`.
///
/// Returned in ascending orbit order starting from `s mod (2^m - 1)`.
///
/// # Example
///
/// ```
/// use mlcx_gf2::minpoly::cyclotomic_coset;
///
/// assert_eq!(cyclotomic_coset(4, 3), vec![3, 6, 12, 9]);
/// ```
pub fn cyclotomic_coset(m: u32, s: u32) -> Vec<u32> {
    let n = (1u32 << m) - 1;
    let start = s % n;
    let mut coset = vec![start];
    let mut cur = (start * 2) % n;
    while cur != start {
        coset.push(cur);
        cur = (cur * 2) % n;
    }
    coset
}

/// The minimal polynomial of `alpha^s` over GF(2).
///
/// The monic polynomial of least degree with `beta = alpha^s` as a root is
/// the first GF(2)-linear dependency among `1, beta, beta^2, ..` taken as
/// `m`-bit vectors: each power is eliminated against the ones before it,
/// carrying along which powers the pivots are sums of, and the first one
/// that vanishes names the polynomial's terms. At most `m + 1` powers and
/// `m` eliminations each — no arithmetic in GF(2^m) beyond the antilogs.
///
/// # Example
///
/// ```
/// use mlcx_gf2::{GfField, Gf2Poly, minpoly::minimal_poly};
///
/// let f = GfField::new(4)?;
/// // The minimal polynomial of alpha itself is the primitive polynomial,
/// // x^4 + x + 1.
/// assert_eq!(minimal_poly(&f, 1), Gf2Poly::from_int(0x13));
/// # Ok::<(), mlcx_gf2::GfError>(())
/// ```
pub fn minimal_poly(field: &GfField, s: u32) -> Gf2Poly {
    let (n, step) = (field.order(), s % field.order());
    // pivot[h]: a sum of powers with top bit h, and which powers (bit i
    // for beta^i) it is the sum of.
    let mut pivot = [(0u32, 0u32); 16];
    let mut log = 0;
    for i in 0..=field.degree() {
        let (mut v, mut terms) = (field.alpha_pow_reduced(log), 1u32 << i);
        while v != 0 {
            let (row, row_terms) = pivot[v.ilog2() as usize];
            if row == 0 {
                break;
            }
            v ^= row;
            terms ^= row_terms;
        }
        if v == 0 {
            return Gf2Poly::from_int(u64::from(terms));
        }
        pivot[v.ilog2() as usize] = (v, terms);
        log += step;
        if log >= n {
            log -= n;
        }
    }
    unreachable!("m + 1 vectors of GF(2)^m are linearly dependent")
}

/// The generator polynomial of the `t`-error-correcting binary BCH code
/// over GF(2^m): `lcm(M_1, ..., M_2t)`.
///
/// # Example
///
/// ```
/// use mlcx_gf2::{GfField, minpoly::generator_poly};
///
/// let f = GfField::new(4)?;
/// // Double-error-correcting BCH(15,7): g(x) has degree 8.
/// let g = generator_poly(&f, 2);
/// assert_eq!(g.degree(), Some(8));
/// # Ok::<(), mlcx_gf2::GfError>(())
/// ```
pub fn generator_poly(field: &GfField, t: u32) -> Gf2Poly {
    GeneratorTable::new(field, t).take(t)
}

/// Whether `s` leads its cyclotomic coset modulo `n = 2^m - 1`: no element
/// of `{s, 2s, 4s, ..}` is smaller. `1 <= s < n`.
fn leads_coset(n: u32, s: u32) -> bool {
    let mut c = s;
    loop {
        c *= 2;
        if c >= n {
            c -= n;
        }
        if c == s {
            return true;
        }
        if c < s {
            return false;
        }
    }
}

/// Incrementally-built table of generator polynomials `g_1 .. g_tmax`.
///
/// Models the polynomial ROM of the adaptable encoder: entry `t` is the
/// generator (and thus the LFSR tap configuration) for correction
/// capability `t`. Building incrementally multiplies in one minimal
/// polynomial per new cyclotomic coset, so the full `t = 1..=65` table for
/// GF(2^16) costs microseconds.
#[derive(Debug, Clone)]
pub struct GeneratorTable {
    polys: Vec<Gf2Poly>,
}

impl GeneratorTable {
    /// Computes generator polynomials for all `t in 1..=tmax`.
    pub fn new(field: &GfField, tmax: u32) -> Self {
        let n = field.order();
        let mut g = Gf2Poly::one();
        let mut polys = Vec::with_capacity(tmax as usize);
        for t in 1..=tmax {
            // New designed roots for this t: alpha^(2t-1) and alpha^(2t).
            // A root's coset is new when the root leads it: its smaller
            // members, if any, were designed roots of an earlier t. Past
            // n - 1 a root repeats one below it (or is alpha^0, no root).
            for s in [2 * t - 1, 2 * t] {
                if s < n && leads_coset(n, s) {
                    g = g.mul(&minimal_poly(field, s));
                }
            }
            polys.push(g.clone());
        }
        GeneratorTable { polys }
    }

    /// The maximum correction capability stored in the table.
    pub fn tmax(&self) -> u32 {
        self.polys.len() as u32
    }

    /// The generator polynomial for correction capability `t` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero or exceeds [`GeneratorTable::tmax`].
    pub fn get(&self, t: u32) -> &Gf2Poly {
        assert!(
            t >= 1 && t <= self.tmax(),
            "correction capability t={t} outside ROM range 1..={}",
            self.tmax()
        );
        &self.polys[(t - 1) as usize]
    }

    fn take(mut self, t: u32) -> Gf2Poly {
        assert!(t >= 1 && t <= self.tmax());
        self.polys.swap_remove((t - 1) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coset_of_zero_power() {
        // s = n wraps to 0; the coset of 0 is {0}.
        assert_eq!(cyclotomic_coset(4, 15), vec![0]);
    }

    #[test]
    fn cosets_partition_and_close_under_doubling() {
        let m = 6;
        let n = (1u32 << m) - 1;
        let mut seen = vec![false; n as usize];
        let mut total = 0;
        for s in 0..n {
            if seen[s as usize] {
                continue;
            }
            let coset = cyclotomic_coset(m, s);
            for &c in &coset {
                assert!(!seen[c as usize], "cosets must be disjoint");
                seen[c as usize] = true;
                assert!(coset.contains(&((c * 2) % n)), "closure under doubling");
            }
            total += coset.len();
        }
        assert_eq!(total, n as usize);
    }

    /// The definition: the product of `x + alpha^i` over the coset of `s`,
    /// carried out in GF(2^m), whose coefficients land in GF(2).
    fn coset_product(field: &GfField, s: u32) -> Gf2Poly {
        let mut coeffs = vec![1u32];
        for i in cyclotomic_coset(field.degree(), s) {
            let root = field.alpha_pow(i64::from(i));
            coeffs.insert(0, 0);
            for d in 0..coeffs.len() - 1 {
                coeffs[d] ^= field.mul(coeffs[d + 1], root);
            }
        }
        assert!(
            coeffs.iter().all(|&c| c <= 1),
            "a coefficient outside GF(2)"
        );
        Gf2Poly::from_exponents(
            &(0..coeffs.len())
                .filter(|&d| coeffs[d] == 1)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn minimal_poly_is_the_product_over_the_coset() {
        // Every exponent of the small fields, the odd ones a t = 65 code
        // takes in the large ones, and the exponent n (the coset of 0).
        for m in 2..=16 {
            let f = GfField::new(m).unwrap();
            let exponents: Vec<u32> = if m <= 8 {
                (0..=f.order()).collect()
            } else {
                (1..130).step_by(2).chain([0, f.order()]).collect()
            };
            for s in exponents {
                assert_eq!(
                    minimal_poly(&f, s),
                    coset_product(&f, s),
                    "m = {m}, s = {s}"
                );
            }
        }
    }

    #[test]
    fn minimal_poly_of_alpha_is_primitive_poly() {
        for m in [3u32, 4, 8, 13] {
            let f = GfField::new(m).unwrap();
            let mp = minimal_poly(&f, 1);
            assert_eq!(mp, Gf2Poly::from_int(f.primitive_poly() as u64), "m={m}");
        }
    }

    #[test]
    fn minimal_polys_are_irreducible_and_generators_square_free() {
        // Minimal polynomials are irreducible by definition; generator
        // polynomials are products of distinct minimal polynomials, hence
        // square-free but reducible for t >= 2.
        let f = GfField::new(8).unwrap();
        for s in [1u32, 3, 5, 7, 11] {
            assert!(minimal_poly(&f, s).is_irreducible(), "s = {s}");
        }
        let g2 = generator_poly(&f, 2);
        assert!(!g2.is_irreducible());
        assert!(g2.is_square_free());
    }

    #[test]
    fn minimal_poly_vanishes_on_whole_coset() {
        let f = GfField::new(8).unwrap();
        for s in [1u32, 3, 5, 9, 17] {
            let mp = minimal_poly(&f, s);
            for c in cyclotomic_coset(8, s) {
                assert_eq!(mp.eval_in_field(&f, f.alpha_pow(c as i64)), 0);
            }
            // Degree equals coset size.
            assert_eq!(mp.degree(), Some(cyclotomic_coset(8, s).len()));
        }
    }

    #[test]
    fn bch_15_classic_generators() {
        // Canonical table: BCH(15,11,t=1) g = x^4+x+1;
        // BCH(15,7,t=2) g = x^8+x^7+x^6+x^4+1; BCH(15,5,t=3) degree 10.
        let f = GfField::new(4).unwrap();
        let table = GeneratorTable::new(&f, 3);
        assert_eq!(table.get(1), &Gf2Poly::from_exponents(&[4, 1, 0]));
        assert_eq!(table.get(2), &Gf2Poly::from_exponents(&[8, 7, 6, 4, 0]));
        assert_eq!(table.get(3).degree(), Some(10));
    }

    #[test]
    fn generator_vanishes_on_designed_roots() {
        let f = GfField::new(10).unwrap();
        for t in [1u32, 2, 5, 11] {
            let g = generator_poly(&f, t);
            for i in 1..=2 * t {
                assert_eq!(
                    g.eval_in_field(&f, f.alpha_pow(i as i64)),
                    0,
                    "g_t for t={t} must vanish at alpha^{i}"
                );
            }
            // Bose bound: deg g <= m*t.
            assert!(g.degree().unwrap() <= (10 * t) as usize);
        }
    }

    #[test]
    fn generator_divides_x_n_minus_1() {
        let f = GfField::new(5).unwrap();
        let n = f.order() as usize;
        let xn1 = Gf2Poly::from_exponents(&[n, 0]);
        for t in 1..=3 {
            let g = generator_poly(&f, t);
            assert!(xn1.rem(&g).is_zero(), "g_{t} must divide x^{n}+1");
        }
    }

    #[test]
    fn generator_table_monotone_degrees() {
        let f = GfField::new(8).unwrap();
        let table = GeneratorTable::new(&f, 10);
        let mut prev = 0;
        for t in 1..=10 {
            let d = table.get(t).degree().unwrap();
            assert!(d >= prev, "generator degree must not decrease with t");
            prev = d;
        }
    }

    #[test]
    #[should_panic(expected = "outside ROM range")]
    fn generator_table_rejects_out_of_range() {
        let f = GfField::new(4).unwrap();
        let table = GeneratorTable::new(&f, 2);
        let _ = table.get(3);
    }

    /// The reference build: a flag per exponent, set for every member of
    /// each coset multiplied in, skips a root whose flag is set.
    fn seen_flags_table(field: &GfField, tmax: u32) -> Vec<Gf2Poly> {
        let n = field.order();
        let mut seen = vec![false; n as usize];
        let mut g = Gf2Poly::one();
        let mut polys = Vec::new();
        for t in 1..=tmax {
            for s in [2 * t - 1, 2 * t] {
                let rep = s % n;
                if rep == 0 || seen[rep as usize] {
                    continue;
                }
                for c in cyclotomic_coset(field.degree(), rep) {
                    seen[c as usize] = true;
                }
                g = g.mul(&minimal_poly(field, rep));
            }
            polys.push(g.clone());
        }
        polys
    }

    #[test]
    fn coset_leaders_build_the_table_the_seen_flags_built() {
        // The adaptive codec's ranges (t up to 65 at m = 16, as far as the
        // code fits at m = 8 and 13), and small fields whose 2t wraps n.
        for (m, tmax) in [(8, 127), (13, 65), (16, 65), (3, 6), (4, 9), (5, 20)] {
            let f = GfField::new(m).unwrap();
            let table = GeneratorTable::new(&f, tmax);
            for (t, old) in (1..=tmax).zip(seen_flags_table(&f, tmax)) {
                assert_eq!(table.get(t), &old, "m = {m}, t = {t}");
                assert_eq!(generator_poly(&f, t), old, "m = {m}, t = {t}");
            }
        }
    }
}
