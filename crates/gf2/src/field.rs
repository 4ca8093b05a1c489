//! GF(2^m) finite fields via log/antilog tables.

use std::error::Error;
use std::fmt;

use crate::kernels::Barrett;

/// Default primitive polynomials for GF(2^m), `m = 2..=16`.
///
/// Entry `i` is the polynomial for `m = i + 2`, encoded as an integer with
/// bit `j` the coefficient of `x^j`. These are the standard minimum-weight
/// primitive polynomials used throughout the coding literature (and in the
/// BCH codec ROMs of NAND flash controllers).
const PRIMITIVE_POLYS: [u32; 15] = [
    0x7,     // m=2:  x^2 + x + 1
    0xB,     // m=3:  x^3 + x + 1
    0x13,    // m=4:  x^4 + x + 1
    0x25,    // m=5:  x^5 + x^2 + 1
    0x43,    // m=6:  x^6 + x + 1
    0x89,    // m=7:  x^7 + x^3 + 1
    0x11D,   // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0x211,   // m=9:  x^9 + x^4 + 1
    0x409,   // m=10: x^10 + x^3 + 1
    0x805,   // m=11: x^11 + x^2 + 1
    0x1053,  // m=12: x^12 + x^6 + x^4 + x + 1
    0x201B,  // m=13: x^13 + x^4 + x^3 + x + 1
    0x4443,  // m=14: x^14 + x^10 + x^6 + x + 1
    0x8003,  // m=15: x^15 + x + 1
    0x1100B, // m=16: x^16 + x^12 + x^3 + x + 1
];

/// The log and antilog tables of one field, `Q = 2^m` and `E = 2(2^m - 1)`
/// entries: the contents of the Galois unit's ROM.
struct Tables<const Q: usize, const E: usize> {
    log: [u16; Q],
    exp: [u16; E],
}

impl<const Q: usize, const E: usize> Tables<Q, E> {
    /// Steps alpha through the multiplicative group of GF(2^m), reducing by
    /// [`PRIMITIVE_POLYS`]' entry for `m`. Evaluated at compile time, where
    /// the assertions are the polynomial's primitivity check.
    const fn build(m: u32) -> Self {
        assert!(Q == 1 << m && E == 2 * (Q - 1), "table sizes are not 2^m");
        let poly = PRIMITIVE_POLYS[(m - 2) as usize];
        assert!(poly >> m == 1, "a primitive polynomial is not of degree m");
        let n = Q - 1;
        let (mut log, mut exp) = ([0u16; Q], [0u16; E]);
        let (mut x, mut i) = (1u32, 0);
        while i < n {
            assert!(x != 1 || i == 0, "a primitive polynomial is not primitive");
            exp[i] = x as u16;
            exp[i + n] = x as u16;
            log[x as usize] = i as u16;
            // Multiply by alpha (= x) and reduce.
            x <<= 1;
            if x & Q as u32 != 0 {
                x ^= poly;
            }
            i += 1;
        }
        assert!(x == 1, "a primitive polynomial is not primitive");
        Tables { log, exp }
    }
}

/// Declares one `static` [`Tables`] per degree, and [`rom`] to look one up.
macro_rules! field_roms {
    ($($m:literal)*) => {
        /// The log and antilog tables of GF(2^m), `2 <= m <= 16`.
        fn rom(m: u32) -> (&'static [u16], &'static [u16]) {
            match m {
                $($m => {
                    static ROM: Tables<{ 1 << $m }, { 2 * ((1 << $m) - 1) }> = Tables::build($m);
                    (&ROM.log, &ROM.exp)
                })*
                _ => unreachable!("GfField::new checks the degree"),
            }
        }
    };
}

field_roms!(2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);

/// Errors raised when constructing or operating on a [`GfField`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GfError {
    /// The requested extension degree is outside the supported `2..=16`.
    UnsupportedDegree {
        /// The degree that was requested.
        m: u32,
    },
    /// Multiplicative inverse of zero was requested.
    ZeroInverse,
}

impl fmt::Display for GfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfError::UnsupportedDegree { m } => {
                write!(f, "unsupported extension degree m={m}, expected 2..=16")
            }
            GfError::ZeroInverse => write!(f, "multiplicative inverse of zero requested"),
        }
    }
}

impl Error for GfError {}

/// The finite field GF(2^m), `2 <= m <= 16`.
///
/// Elements are represented as integers in `0..2^m` (polynomial basis: bit
/// `i` is the coefficient of `x^i`). Multiplication, inversion and powers go
/// through log/antilog tables — the same structure a hardware Galois unit
/// keeps in ROM, and the reason syndrome/Chien datapaths evaluate one field
/// multiply per clock.
///
/// # Example
///
/// ```
/// use mlcx_gf2::GfField;
///
/// let f = GfField::new(8)?;
/// let a = f.alpha_pow(5);
/// let b = f.alpha_pow(9);
/// assert_eq!(f.mul(a, b), f.alpha_pow(14));
/// assert_eq!(f.mul(a, f.inv(a).unwrap()), 1);
/// # Ok::<(), mlcx_gf2::GfError>(())
/// ```
#[derive(Clone)]
pub struct GfField {
    m: u32,
    size: u32,
    prim_poly: u32,
    /// `log[a]` = discrete log of `a` base alpha; `log[0]` is unused.
    log: &'static [u16],
    /// `exp[i]` = alpha^i for `i in 0..2*(size-1)` (doubled to skip a mod).
    exp: &'static [u16],
    /// `quad[b]`: a `y` with `y^2 + y = alpha^b + Tr(alpha^b) c` for one
    /// fixed `c` of trace 1; see [`GfField::solve_quadratic`].
    quad: [u16; 16],
    /// What the packed-slot kernels reduce coefficients with.
    barrett: Barrett,
}

impl GfField {
    /// Constructs GF(2^m) with the standard primitive polynomial.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedDegree`] if `m` is outside `2..=16`.
    pub fn new(m: u32) -> Result<Self, GfError> {
        if !(2..=16).contains(&m) {
            return Err(GfError::UnsupportedDegree { m });
        }
        let (log, exp) = rom(m);
        Ok(Self::with_tables(m, log, exp))
    }

    /// GF(2^m) over the standard primitive polynomial's `log` and `exp`
    /// tables; what is left to compute is the quadratic solver's base and
    /// the Barrett constants.
    fn with_tables(m: u32, log: &'static [u16], exp: &'static [u16]) -> Self {
        let prim_poly = PRIMITIVE_POLYS[(m - 2) as usize];
        let mut field = GfField {
            m,
            size: 1 << m,
            prim_poly,
            log,
            exp,
            quad: [0; 16],
            barrett: Barrett::new(m, prim_poly),
        };
        field.quad = field.quadratic_base();
        field
    }

    /// Inverts `y -> y^2 + y` on the polynomial basis. The map is GF(2)-
    /// linear with kernel `{0, 1}`, so its image — the trace-0 elements —
    /// has dimension `m - 1`: eliminate over the images of the basis,
    /// carrying the preimages along, and one direction stays out of reach.
    fn quadratic_base(&self) -> [u16; 16] {
        // pivot[h] = (v, y): v has top bit h and y^2 + y = v + Tr(v) c.
        let mut pivot = [(0u32, 0u32); 16];
        // Clears `v` from the top for as long as there is a pivot to do
        // it with, `y` following.
        let reduce = |pivot: &[(u32, u32); 16], mut v: u32, mut y: u32| {
            while v != 0 {
                let (row, row_y) = pivot[v.ilog2() as usize];
                if row == 0 {
                    break;
                }
                v ^= row;
                y ^= row_y;
            }
            (v, y)
        };
        for b in 0..self.m {
            let y = 1u32 << b;
            let (v, y) = reduce(&pivot, self.mul(y, y) ^ y, y);
            if v != 0 {
                pivot[v.ilog2() as usize] = (v, y);
            }
        }
        let mut quad = [0u16; 16];
        for (b, entry) in quad.iter_mut().enumerate().take(self.m as usize) {
            let (left, y) = reduce(&pivot, 1 << b, 0);
            if left != 0 {
                // What is left of the first alpha^b out of reach has trace
                // 1 like alpha^b itself: it becomes `c`, the one pivot that
                // was missing, and nothing is out of reach after it.
                pivot[left.ilog2() as usize] = (left, 0);
            }
            *entry = y as u16;
        }
        quad
    }

    /// The extension degree `m`.
    pub fn degree(&self) -> u32 {
        self.m
    }

    /// The field size `2^m`.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The multiplicative group order `2^m - 1` (the full BCH code length).
    pub fn order(&self) -> u32 {
        self.size - 1
    }

    /// The primitive polynomial, encoded as an integer.
    #[cfg(test)]
    pub(crate) fn primitive_poly(&self) -> u32 {
        self.prim_poly
    }

    /// The constants [`crate::kernels::combine`] and its siblings reduce
    /// this field's coefficients with.
    pub fn barrett(&self) -> Barrett {
        self.barrett
    }

    /// Field addition (= XOR; the field has characteristic 2).
    #[inline]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        a ^ b
    }

    /// Field multiplication via log/antilog tables.
    ///
    /// # Panics
    ///
    /// Debug-asserts that both operands lie in `0..2^m`.
    #[inline]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a < self.size && b < self.size);
        if a == 0 || b == 0 {
            return 0;
        }
        let idx = self.log[a as usize] as usize + self.log[b as usize] as usize;
        self.exp[idx] as u32
    }

    /// The discrete logarithm base alpha, or `None` for zero.
    #[inline]
    pub fn log(&self, a: u32) -> Option<u32> {
        debug_assert!(a < self.size);
        (a != 0).then(|| self.log[a as usize] as u32)
    }

    /// `alpha^i` for any signed exponent (reduced mod `2^m - 1`).
    #[inline]
    pub fn alpha_pow(&self, i: i64) -> u32 {
        let n = self.order() as i64;
        let e = i.rem_euclid(n) as usize;
        self.exp[e] as u32
    }

    /// `alpha^e` for an exponent already reduced to `0 <= e < 2^m - 1` —
    /// the division-free antilog the decoder's log-domain polynomial
    /// arithmetic runs on.
    #[inline]
    pub fn alpha_pow_reduced(&self, e: u32) -> u32 {
        debug_assert!(e < self.order());
        self.exp[e as usize] as u32
    }

    /// A root `y` of `y^2 + y = u` — the other one is `y + 1` — or `None`
    /// when there is none in the field, which is when `Tr(u) = 1`.
    ///
    /// Every quadratic with two distinct roots reduces to this form
    /// (`x^2 + bx + c`, `b != 0`: substitute `x = by`, `u = c / b^2`), and
    /// `y` is linear in `u` over GF(2): the XOR of one precomputed solution
    /// per set bit of `u`, which solves `y^2 + y = u + Tr(u) c` for a fixed
    /// `c != 0` — so substituting it back is the trace test (after Linux
    /// `lib/bch.c`, `find_poly_deg2_roots`).
    ///
    /// ```
    /// use mlcx_gf2::GfField;
    ///
    /// let f = GfField::new(8)?;
    /// let u = f.alpha_pow(25) ^ f.alpha_pow(50); // y^2 + y at y = alpha^25
    /// let y = f.solve_quadratic(u).expect("u has trace 0");
    /// assert!(y == f.alpha_pow(25) || y == f.alpha_pow(25) ^ 1);
    /// # Ok::<(), mlcx_gf2::GfError>(())
    /// ```
    #[inline]
    pub fn solve_quadratic(&self, u: u32) -> Option<u32> {
        debug_assert!(u < self.size);
        let (mut y, mut bits) = (0u32, u);
        while bits != 0 {
            y ^= u32::from(self.quad[bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
        (self.mul(y, y) ^ y == u).then_some(y)
    }

    /// The four roots of the affine quartic `X^4 + aX^2 + bX + c`, or
    /// `None` unless it has four distinct ones in the field.
    ///
    /// `L(X) = X^4 + aX^2 + bX` is GF(2)-linear, so the roots of `L(X) = c`
    /// are one solution plus the kernel of `L`, and there are four of them
    /// exactly when the kernel has dimension 2 and `c` lies in the image
    /// (Linux `lib/bch.c`, `find_affine4_roots`; eliminated like
    /// `y^2 + y` is for [`GfField::solve_quadratic`], preimages carried
    /// along, which needs no transpose and so no `m < 16`).
    ///
    /// ```
    /// use mlcx_gf2::GfField;
    ///
    /// let f = GfField::new(16)?;
    /// // X (X + 1) (X + alpha) (X + alpha + 1): its roots are a GF(2)-
    /// // subspace, so it is linear itself (c = 0).
    /// let al = f.alpha_pow(1);
    /// let (a, b) = (f.mul(al, al) ^ al ^ 1, f.mul(al, al) ^ al);
    /// let mut roots = f.solve_affine_quartic(a, b, 0).expect("four roots");
    /// roots.sort_unstable();
    /// assert_eq!(roots, [0, 1, al, al ^ 1]);
    /// # Ok::<(), mlcx_gf2::GfError>(())
    /// ```
    pub fn solve_affine_quartic(&self, a: u32, b: u32, c: u32) -> Option<[u32; 4]> {
        debug_assert!(a < self.size && b < self.size && c < self.size);
        // Without its linear term the quartic is a square.
        let log_b = self.log(b)? as usize;
        let log_a = self.log(a).map(|l| l as usize);
        // A vector is an image `v` in the high half and a `y` with
        // `L(y) = v` in the low half; pivot[h] has top image bit h.
        let mut pivot = [0u32; 16];
        let reduce = |pivot: &[u32; 16], mut w: u32| {
            while w >> 16 != 0 {
                let row = pivot[(w >> 16).ilog2() as usize];
                if row == 0 {
                    break;
                }
                w ^= row;
            }
            w
        };
        let (mut kernel, mut found) = ([0u32; 2], 0);
        for i in 0..self.m as usize {
            // L(alpha^i); the doubled antilog table reaches every index.
            let image =
                self.exp[4 * i] ^ log_a.map_or(0, |l| self.exp[l + 2 * i]) ^ self.exp[log_b + i];
            let w = reduce(&pivot, u32::from(image) << 16 | 1 << i);
            if w >> 16 != 0 {
                pivot[(w >> 16).ilog2() as usize] = w;
            } else {
                *kernel.get_mut(found)? = w;
                found += 1;
            }
        }
        if found != 2 {
            return None;
        }
        let y = reduce(&pivot, c << 16);
        (y >> 16 == 0).then_some([y, y ^ kernel[0], y ^ kernel[1], y ^ kernel[0] ^ kernel[1]])
    }

    /// Raises `a` to the (signed) power `e`.
    ///
    /// `pow(0, 0)` is defined as 1 by the empty-product convention;
    /// `pow(0, e)` for `e > 0` is 0.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` and `e < 0` (inverse of zero).
    pub fn pow(&self, a: u32, e: i64) -> u32 {
        debug_assert!(a < self.size);
        if a == 0 {
            if e == 0 {
                return 1;
            }
            assert!(e > 0, "zero cannot be raised to a negative power");
            return 0;
        }
        let n = self.order() as i64;
        let l = self.log[a as usize] as i64;
        self.alpha_pow(l * (e % n))
    }

    /// Multiplicative inverse, or `Err` for zero.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::ZeroInverse`] when `a == 0`.
    #[inline]
    pub fn inv(&self, a: u32) -> Result<u32, GfError> {
        debug_assert!(a < self.size);
        if a == 0 {
            return Err(GfError::ZeroInverse);
        }
        // 1 <= N - log a <= N: the doubled table reaches it, no division.
        let n = self.order();
        Ok(self.exp[(n - self.log[a as usize] as u32) as usize] as u32)
    }

    /// Division `a / b`.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::ZeroInverse`] when `b == 0`.
    #[inline]
    pub fn div(&self, a: u32, b: u32) -> Result<u32, GfError> {
        Ok(self.mul(a, self.inv(b)?))
    }
}

impl fmt::Debug for GfField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GfField")
            .field("m", &self.m)
            .field("primitive_poly", &format_args!("{:#x}", self.prim_poly))
            .finish()
    }
}

impl PartialEq for GfField {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m && self.prim_poly == other.prim_poly
    }
}

impl Eq for GfField {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_all_supported_degrees() {
        for m in 2..=16 {
            let f = GfField::new(m).unwrap();
            assert_eq!(f.degree(), m);
            assert_eq!(f.size(), 1 << m);
            assert_eq!(f.order(), (1 << m) - 1);
        }
    }

    #[test]
    fn rejects_unsupported_degrees() {
        assert!(matches!(
            GfField::new(1),
            Err(GfError::UnsupportedDegree { m: 1 })
        ));
        assert!(matches!(
            GfField::new(17),
            Err(GfError::UnsupportedDegree { m: 17 })
        ));
    }

    /// The table builder the ROM replaced, run at test time: alpha
    /// stepped through the group, the cycle checked to close at `2^m - 1`.
    fn runtime_tables(m: u32) -> (Vec<u16>, Vec<u16>) {
        let (poly, size) = (PRIMITIVE_POLYS[(m - 2) as usize], 1u32 << m);
        let n = size - 1;
        let mut log = vec![0u16; size as usize];
        let mut exp = vec![0u16; 2 * n as usize];
        let mut x = 1u32;
        for i in 0..n {
            assert!(x < size && (x != 1 || i == 0), "m = {m}: not primitive");
            exp[i as usize] = x as u16;
            exp[(i + n) as usize] = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & size != 0 {
                x ^= poly;
            }
        }
        assert_eq!(x, 1, "m = {m}: not primitive");
        (log, exp)
    }

    #[test]
    fn the_rom_holds_what_the_runtime_builder_computed() {
        for m in 2..=16 {
            let (log, exp) = runtime_tables(m);
            let f = GfField::new(m).unwrap();
            assert_eq!(f.log, &log[..], "m = {m}");
            assert_eq!(f.exp, &exp[..], "m = {m}");
            // The quadratic base is computed through the tables: a field
            // over the runtime ones gets the same.
            let oracle = GfField::with_tables(m, Vec::leak(log), Vec::leak(exp));
            assert_eq!(f.quad, oracle.quad, "m = {m}");
        }
    }

    #[test]
    fn gf16_multiplication_table_spot_checks() {
        // GF(16) with x^4+x+1: alpha^4 = alpha + 1 = 0b0011 = 3.
        let f = GfField::new(4).unwrap();
        assert_eq!(f.alpha_pow(0), 1);
        assert_eq!(f.alpha_pow(1), 2);
        assert_eq!(f.alpha_pow(4), 3);
        assert_eq!(f.mul(2, 2), 4); // alpha * alpha = alpha^2
        assert_eq!(f.mul(8, 2), 3); // alpha^3 * alpha = alpha^4
    }

    #[test]
    fn zero_behaviour() {
        let f = GfField::new(6).unwrap();
        assert_eq!(f.mul(0, 37), 0);
        assert_eq!(f.mul(37, 0), 0);
        assert_eq!(f.log(0), None);
        assert_eq!(f.inv(0), Err(GfError::ZeroInverse));
        assert_eq!(f.pow(0, 0), 1);
        assert_eq!(f.pow(0, 5), 0);
    }

    #[test]
    fn inverse_round_trip_full_field() {
        let f = GfField::new(8).unwrap();
        for a in 1..f.size() {
            let inv = f.inv(a).unwrap();
            assert_eq!(f.mul(a, inv), 1, "a={a}");
        }
    }

    #[test]
    fn alpha_pow_negative_exponents() {
        let f = GfField::new(5).unwrap();
        let n = f.order() as i64;
        assert_eq!(f.alpha_pow(-1), f.alpha_pow(n - 1));
        assert_eq!(f.mul(f.alpha_pow(-7), f.alpha_pow(7)), 1);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let f = GfField::new(7).unwrap();
        let a = f.alpha_pow(19);
        let mut acc = 1u32;
        for e in 0..10i64 {
            assert_eq!(f.pow(a, e), acc, "e={e}");
            acc = f.mul(acc, a);
        }
        // Negative powers: a^-e * a^e == 1
        assert_eq!(f.mul(f.pow(a, -3), f.pow(a, 3)), 1);
    }

    #[test]
    fn fermat_little_theorem_all_elements_gf256() {
        let f = GfField::new(8).unwrap();
        for a in 1..f.size() {
            assert_eq!(f.pow(a, f.order() as i64), 1);
        }
    }

    /// `Tr(u) = u + u^2 + u^4 + ... + u^(2^(m-1))`, by the definition.
    fn trace(f: &GfField, u: u32) -> u32 {
        let mut term = u;
        (0..f.degree()).fold(0, |sum, _| {
            let t = term;
            term = f.mul(term, term);
            sum ^ t
        })
    }

    #[test]
    fn quadratics_solve_exactly_where_the_trace_vanishes() {
        let check = |f: &GfField, u: u32| {
            let tr = trace(f, u);
            assert!(tr <= 1, "the trace lies in GF(2)");
            match f.solve_quadratic(u) {
                Some(y) => {
                    assert_eq!(f.mul(y, y) ^ y, u, "m = {}, u = {u}", f.degree());
                    assert_eq!(tr, 0, "m = {}, u = {u}", f.degree());
                }
                None => assert_eq!(tr, 1, "m = {}, u = {u}", f.degree()),
            }
        };
        // Every element of the small fields...
        for m in 2..=12 {
            let f = GfField::new(m).unwrap();
            (0..f.size()).for_each(|u| check(&f, u));
        }
        // ...4096 seeded ones of each large one.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for m in 13..=16 {
            let f = GfField::new(m).unwrap();
            for _ in 0..4096 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                check(&f, state as u32 & f.order());
            }
        }
    }

    #[test]
    fn affine_quartics_solve_exactly_where_they_have_four_distinct_roots() {
        // Against the definition: the x with x^4 + a x^2 + b x + c = 0.
        let check = |f: &GfField, a: u32, b: u32, c: u32| {
            let value = |x: u32| {
                let x2 = f.mul(x, x);
                f.mul(x2, x2) ^ f.mul(a, x2) ^ f.mul(b, x) ^ c
            };
            let roots: Vec<u32> = (0..f.size()).filter(|&x| value(x) == 0).collect();
            let mut solved = f.solve_affine_quartic(a, b, c).map(Vec::from);
            if let Some(found) = &mut solved {
                found.sort_unstable();
            }
            let expect = (roots.len() == 4).then_some(roots);
            assert_eq!(solved, expect, "m = {}, {a} {b} {c}", f.degree());
        };
        // Every quartic over the small fields...
        for m in 2..=5 {
            let f = GfField::new(m).unwrap();
            for abc in 0..f.size().pow(3) {
                let (a, b, c) = (abc >> (2 * m), abc >> m & f.order(), abc & f.order());
                check(&f, a, b, c);
            }
        }
        // ...seeded ones over the large ones: coefficients at random (few
        // split), then from a root and a kernel picked first — with
        // u = k2 (k1 + k2), x (x + k1) (x + k2) (x + k1 + k2) is
        // x^4 + (u + k1^2) x^2 + k1 u x, and its value at x0 the constant
        // that puts a root there.
        let mut state = 0x0AFF_1E4Au64;
        let mut next = |f: &GfField| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32 & f.order()
        };
        for m in [13, 16] {
            let f = GfField::new(m).unwrap();
            for _ in 0..48 {
                check(&f, next(&f), next(&f), next(&f));
                let (k1, k2, x0) = (next(&f) | 1, next(&f) & !1 | 2, next(&f));
                let u = f.mul(k2, k1 ^ k2);
                let (a, b) = (u ^ f.mul(k1, k1), f.mul(k1, u));
                let x2 = f.mul(x0, x0);
                let c = f.mul(x2, x2) ^ f.mul(a, x2) ^ f.mul(b, x0);
                assert!(f
                    .solve_affine_quartic(a, b, c)
                    .is_some_and(|r| r.contains(&x0)));
                check(&f, a, b, c);
            }
            check(&f, 0, next(&f), next(&f));
            check(&f, next(&f), 0, next(&f));
        }
    }

    #[test]
    fn error_display_nonempty() {
        for e in [GfError::UnsupportedDegree { m: 1 }, GfError::ZeroInverse] {
            assert!(!e.to_string().is_empty());
        }
    }
}
