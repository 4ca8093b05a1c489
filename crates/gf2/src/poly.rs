//! Dense polynomials over GF(2), bit-packed into `u64` words.

use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// A polynomial over GF(2) with coefficients packed into `u64` words.
///
/// Bit `i` of the packed representation is the coefficient of `x^i`
/// (little-endian in the exponent). The representation is kept normalized:
/// there are never trailing all-zero words beyond the leading term, so
/// [`Gf2Poly::degree`] is O(1) in the common case.
///
/// # Example
///
/// ```
/// use mlcx_gf2::Gf2Poly;
///
/// // x^3 + x + 1 (the primitive polynomial of GF(8))
/// let g = Gf2Poly::from_exponents(&[3, 1, 0]);
/// assert_eq!(g.degree(), Some(3));
/// // (x + 1)^2 == x^2 + 1 over GF(2)
/// let sq = Gf2Poly::from_exponents(&[1, 0]).mul(&Gf2Poly::from_exponents(&[1, 0]));
/// assert_eq!(sq, Gf2Poly::from_exponents(&[2, 0]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Gf2Poly {
    /// Packed coefficients; `words[i] >> j & 1` is the coefficient of
    /// `x^(64*i + j)`. Invariant: the last word is nonzero (or the vec is
    /// empty, representing the zero polynomial).
    words: Vec<u64>,
}

impl Gf2Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Gf2Poly { words: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Gf2Poly { words: vec![1] }
    }

    /// The monomial `x^deg`.
    pub fn monomial(deg: usize) -> Self {
        let mut p = Gf2Poly::zero();
        p.set_coeff(deg, true);
        p
    }

    /// Builds a polynomial from the list of exponents with coefficient 1.
    ///
    /// Duplicate exponents cancel (GF(2) addition), matching polynomial
    /// addition semantics.
    pub fn from_exponents(exponents: &[usize]) -> Self {
        let mut p = Gf2Poly::zero();
        for &e in exponents {
            let cur = p.coeff(e);
            p.set_coeff(e, !cur);
        }
        p
    }

    /// Builds a polynomial from packed little-endian words.
    pub fn from_words(words: Vec<u64>) -> Self {
        let mut p = Gf2Poly { words };
        p.normalize();
        p
    }

    /// Interprets an integer as a polynomial (bit `i` ↦ coefficient of `x^i`).
    ///
    /// Convenient for primitive polynomials, e.g. `0b1011` is `x^3 + x + 1`.
    pub fn from_int(bits: u64) -> Self {
        Gf2Poly::from_words(vec![bits])
    }

    /// Returns the packed words (little-endian, normalized).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.words.is_empty()
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        let last = *self.words.last()?;
        debug_assert_ne!(last, 0, "normalization invariant violated");
        Some((self.words.len() - 1) * 64 + (63 - last.leading_zeros() as usize))
    }

    /// The coefficient of `x^i`.
    pub fn coeff(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words.get(w).is_some_and(|word| word >> b & 1 == 1)
    }

    /// Sets the coefficient of `x^i`.
    pub fn set_coeff(&mut self, i: usize, value: bool) {
        let (w, b) = (i / 64, i % 64);
        if value {
            if self.words.len() <= w {
                self.words.resize(w + 1, 0);
            }
            self.words[w] |= 1u64 << b;
        } else if w < self.words.len() {
            self.words[w] &= !(1u64 << b);
            self.normalize();
        }
    }

    /// Number of nonzero coefficients (Hamming weight).
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the exponents with nonzero coefficient, ascending.
    pub fn exponents(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| (w >> b & 1 == 1).then_some(wi * 64 + b))
        })
    }

    /// Multiplication by `x^s` (left shift of the coefficient vector).
    pub fn shl(&self, s: usize) -> Self {
        if self.is_zero() || s == 0 {
            return self.clone();
        }
        let (word_shift, bit_shift) = (s / 64, s % 64);
        let mut words = vec![0u64; self.words.len() + word_shift + 1];
        for (i, &w) in self.words.iter().enumerate() {
            words[i + word_shift] |= w << bit_shift;
            if bit_shift != 0 {
                words[i + word_shift + 1] |= w >> (64 - bit_shift);
            }
        }
        Gf2Poly::from_words(words)
    }

    /// Carry-less (GF(2)) product `self * rhs`, through the production
    /// kernel ([`crate::MulKernel::best`]: `pclmulqdq` where the CPU has
    /// it, shift-and-XOR elsewhere).
    pub fn mul(&self, rhs: &Gf2Poly) -> Self {
        self.mul_with(rhs, crate::MulKernel::best())
    }

    /// Carry-less product through an explicit [`crate::MulKernel`] — how
    /// tests hold the production kernel against the bit-serial oracle.
    ///
    /// Every kernel returns the same polynomial (the raw kernel output is
    /// normalized here, so trailing zero words never leak into the
    /// canonical representation).
    pub fn mul_with(&self, rhs: &Gf2Poly, kernel: crate::MulKernel) -> Self {
        if self.is_zero() || rhs.is_zero() {
            return Gf2Poly::zero();
        }
        Gf2Poly::from_words(kernel.mul_raw(&self.words, &rhs.words))
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Gf2Poly) -> (Gf2Poly, Gf2Poly) {
        let d_deg = divisor
            .degree()
            .expect("division by the zero polynomial over GF(2)");
        let mut rem = self.clone();
        let mut quot = Gf2Poly::zero();
        while let Some(r_deg) = rem.degree() {
            if r_deg < d_deg {
                break;
            }
            let shift = r_deg - d_deg;
            quot.set_coeff(shift, true);
            rem += &divisor.shl(shift);
        }
        (quot, rem)
    }

    /// Remainder of `self mod divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn rem(&self, divisor: &Gf2Poly) -> Gf2Poly {
        self.div_rem(divisor).1
    }

    /// Greatest common divisor (monic by construction over GF(2)).
    pub fn gcd(&self, other: &Gf2Poly) -> Gf2Poly {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Evaluates the polynomial at a point of GF(2^m) given by `field`.
    ///
    /// Used to check that every constructed generator polynomial vanishes on
    /// the designed roots `alpha^1 .. alpha^2t`.
    pub fn eval_in_field(&self, field: &crate::GfField, point: u32) -> u32 {
        // Horner from the top coefficient down.
        let Some(deg) = self.degree() else {
            return 0;
        };
        let mut acc = 0u32;
        for i in (0..=deg).rev() {
            acc = field.mul(acc, point);
            if self.coeff(i) {
                acc ^= 1;
            }
        }
        acc
    }

    /// `true` when the packed representation is canonical (no trailing
    /// all-zero words). Every constructor and operation on [`Gf2Poly`]
    /// maintains this invariant — it is what makes the derived
    /// `PartialEq`/`Hash` and the O(1) [`Gf2Poly::degree`] correct for
    /// degrees that are not a multiple of 64. Exposed so differential
    /// tests over the [`crate::kernels`] can pin it.
    pub fn is_normalized(&self) -> bool {
        self.words.last() != Some(&0)
    }

    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        debug_assert!(self.is_normalized());
    }
}

impl Add<&Gf2Poly> for &Gf2Poly {
    type Output = Gf2Poly;

    fn add(self, rhs: &Gf2Poly) -> Gf2Poly {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl AddAssign<&Gf2Poly> for Gf2Poly {
    fn add_assign(&mut self, rhs: &Gf2Poly) {
        if self.words.len() < rhs.words.len() {
            self.words.resize(rhs.words.len(), 0);
        }
        for (i, &w) in rhs.words.iter().enumerate() {
            self.words[i] ^= w;
        }
        self.normalize();
    }
}

impl Mul<&Gf2Poly> for &Gf2Poly {
    type Output = Gf2Poly;

    fn mul(self, rhs: &Gf2Poly) -> Gf2Poly {
        Gf2Poly::mul(self, rhs)
    }
}

impl fmt::Debug for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2Poly({self})")
    }
}

impl fmt::Display for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        let exps: Vec<usize> = self.exponents().collect();
        for &e in exps.iter().rev() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match e {
                0 => write!(f, "1")?,
                1 => write!(f, "x")?,
                _ => write!(f, "x^{e}")?,
            }
        }
        Ok(())
    }
}

/// Test oracles: Rabin's irreducibility test and square-freeness check
/// the minimal and generator polynomials the BCH ROM is built from.
#[cfg(test)]
impl Gf2Poly {
    /// Formal derivative over GF(2): odd-degree terms drop one degree,
    /// even-degree terms vanish.
    fn derivative(&self) -> Gf2Poly {
        let mut out = Gf2Poly::zero();
        for e in self.exponents() {
            if e % 2 == 1 {
                out.set_coeff(e - 1, !out.coeff(e - 1));
            }
        }
        out
    }

    /// `x^(2^e) mod modulus`, by repeated squaring with reduction.
    fn x_pow_pow2_mod(e: u32, modulus: &Gf2Poly) -> Gf2Poly {
        let mut acc = Gf2Poly::monomial(1).rem(modulus);
        for _ in 0..e {
            acc = acc.mul(&acc).rem(modulus);
        }
        acc
    }

    /// Irreducibility over GF(2), by Rabin's test: `f` of degree `n` is
    /// irreducible iff `x^(2^n) ≡ x (mod f)` and, for every prime divisor
    /// `p` of `n`, `gcd(x^(2^(n/p)) - x, f) = 1`.
    ///
    /// Used to validate the minimal polynomials feeding the BCH generator
    /// ROM. Intended for the moderate degrees of ECC practice (≤ a few
    /// hundred).
    pub(crate) fn is_irreducible(&self) -> bool {
        let Some(n) = self.degree() else {
            return false; // zero polynomial
        };
        if n == 0 {
            return false; // units are not irreducible
        }
        if n == 1 {
            return true;
        }
        // x^(2^n) ≡ x (mod f)?
        let xq = Self::x_pow_pow2_mod(n as u32, self);
        if xq != Gf2Poly::monomial(1).rem(self) {
            return false;
        }
        // gcd(x^(2^(n/p)) + x, f) must be 1 for every prime p | n.
        let mut m = n;
        let mut primes = Vec::new();
        let mut d = 2;
        while d * d <= m {
            if m % d == 0 {
                primes.push(d);
                while m % d == 0 {
                    m /= d;
                }
            }
            d += 1;
        }
        if m > 1 {
            primes.push(m);
        }
        for p in primes {
            let mut g = Self::x_pow_pow2_mod((n / p) as u32, self);
            // g := g + x  (subtraction == addition over GF(2))
            let x = Gf2Poly::monomial(1);
            g += &x;
            if self.gcd(&g).degree() != Some(0) {
                return false;
            }
        }
        true
    }

    /// `true` when the polynomial has no repeated irreducible factors
    /// (`gcd(f, f') = 1`). BCH generator polynomials are always
    /// square-free because they are products of distinct minimal
    /// polynomials.
    pub(crate) fn is_square_free(&self) -> bool {
        let d = self.derivative();
        if d.is_zero() {
            // Over GF(2), f' = 0 means f is a square of something
            // (unless f is constant).
            return self.degree() == Some(0);
        }
        self.gcd(&d).degree() == Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Gf2Poly::zero().is_zero());
        assert_eq!(Gf2Poly::zero().degree(), None);
        assert_eq!(Gf2Poly::one().degree(), Some(0));
        assert_eq!(Gf2Poly::one().weight(), 1);
    }

    #[test]
    fn from_exponents_cancels_duplicates() {
        let p = Gf2Poly::from_exponents(&[3, 3, 1]);
        assert_eq!(p, Gf2Poly::from_exponents(&[1]));
    }

    #[test]
    fn degree_across_word_boundary() {
        let p = Gf2Poly::monomial(200);
        assert_eq!(p.degree(), Some(200));
        assert_eq!(p.weight(), 1);
        assert!(p.coeff(200));
        assert!(!p.coeff(199));
    }

    #[test]
    fn addition_is_xor() {
        let a = Gf2Poly::from_exponents(&[5, 2, 0]);
        let b = Gf2Poly::from_exponents(&[5, 1]);
        let sum = &a + &b;
        assert_eq!(sum, Gf2Poly::from_exponents(&[2, 1, 0]));
        // a + a == 0 (characteristic 2)
        assert!((&a + &a).is_zero());
    }

    #[test]
    fn set_coeff_clears_and_normalizes() {
        let mut p = Gf2Poly::monomial(100);
        p.set_coeff(100, false);
        assert!(p.is_zero());
        assert!(p.as_words().is_empty());
    }

    #[test]
    fn shl_matches_monomial_multiplication() {
        let p = Gf2Poly::from_exponents(&[7, 3, 0]);
        let shifted = p.shl(61); // crosses a word boundary
        let expected = p.mul(&Gf2Poly::monomial(61));
        assert_eq!(shifted, expected);
        assert_eq!(shifted.degree(), Some(68));
    }

    #[test]
    fn multiplication_small_cases() {
        // (x+1)(x+1) = x^2+1
        let x1 = Gf2Poly::from_exponents(&[1, 0]);
        assert_eq!(x1.mul(&x1), Gf2Poly::from_exponents(&[2, 0]));
        // (x^2+x+1)(x+1) = x^3+1
        let a = Gf2Poly::from_exponents(&[2, 1, 0]);
        assert_eq!(a.mul(&x1), Gf2Poly::from_exponents(&[3, 0]));
        // zero absorbs
        assert!(a.mul(&Gf2Poly::zero()).is_zero());
    }

    #[test]
    fn division_identity() {
        let a = Gf2Poly::from_exponents(&[10, 9, 5, 2, 0]);
        let d = Gf2Poly::from_exponents(&[4, 1, 0]);
        let (q, r) = a.div_rem(&d);
        let recomposed = &q.mul(&d) + &r;
        assert_eq!(recomposed, a);
        assert!(r.degree().unwrap_or(0) < d.degree().unwrap());
    }

    #[test]
    fn rem_by_larger_divisor_is_self() {
        let a = Gf2Poly::from_exponents(&[2, 0]);
        let d = Gf2Poly::from_exponents(&[5, 1]);
        assert_eq!(a.rem(&d), a);
    }

    #[test]
    #[should_panic(expected = "zero polynomial")]
    fn division_by_zero_panics() {
        let _ = Gf2Poly::one().div_rem(&Gf2Poly::zero());
    }

    #[test]
    fn gcd_of_multiples() {
        let g = Gf2Poly::from_exponents(&[3, 1, 0]);
        let a = g.mul(&Gf2Poly::from_exponents(&[4, 2]));
        let b = g.mul(&Gf2Poly::from_exponents(&[1, 0]));
        let got = a.gcd(&b);
        // gcd must divide both and be divisible by g
        assert!(a.rem(&got).is_zero());
        assert!(b.rem(&got).is_zero());
        assert!(got.rem(&g).is_zero());
    }

    #[test]
    fn display_formats_terms() {
        let p = Gf2Poly::from_exponents(&[3, 1, 0]);
        assert_eq!(p.to_string(), "x^3 + x + 1");
        assert_eq!(Gf2Poly::zero().to_string(), "0");
        assert_eq!(format!("{:?}", Gf2Poly::one()), "Gf2Poly(1)");
    }

    #[test]
    fn from_words_normalizes_trailing_zero_words() {
        // Same polynomial, three packings: PartialEq/degree must be
        // canonical regardless of how many zero words the caller padded.
        let canonical = Gf2Poly::from_words(vec![0b101]);
        let padded = Gf2Poly::from_words(vec![0b101, 0, 0]);
        assert_eq!(canonical, padded);
        assert_eq!(padded.as_words().len(), 1);
        assert!(padded.is_normalized());
        assert_eq!(padded.degree(), Some(2));
        assert!(Gf2Poly::from_words(vec![0, 0]).is_zero());
    }

    #[test]
    fn word_boundary_tail_masks() {
        // Degrees 63 / 64 / 65: the packing tail straddles the word edge.
        for deg in [62usize, 63, 64, 65, 127, 128] {
            let p = Gf2Poly::monomial(deg);
            assert_eq!(p.degree(), Some(deg), "deg {deg}");
            assert_eq!(p.as_words().len(), deg / 64 + 1, "deg {deg}");
            assert!(p.is_normalized());
            // Clearing the top bit must drop the now-empty word(s).
            let mut q = p.clone();
            q.set_coeff(deg, false);
            assert!(q.is_zero());
            assert!(q.as_words().is_empty());
        }
    }

    #[test]
    fn mul_with_every_kernel_is_canonical_across_word_boundaries() {
        use crate::MulKernel;
        // (x^63 + 1)(x + 1) = x^64 + x^63 + x + 1: the product's top term
        // lands exactly on a fresh word.
        let a = Gf2Poly::from_exponents(&[63, 0]);
        let b = Gf2Poly::from_exponents(&[1, 0]);
        let expect = Gf2Poly::from_exponents(&[64, 63, 1, 0]);
        for k in MulKernel::ALL {
            let got = a.mul_with(&b, k);
            assert_eq!(got, expect, "{k:?}");
            assert!(got.is_normalized(), "{k:?}");
        }
        // x^64 * x^64 = x^128 and (x^64 + x^63)^2 = x^128 + x^126:
        // raw kernel outputs carry trailing zero words that must be
        // trimmed before PartialEq/degree are trustworthy.
        let m = Gf2Poly::monomial(64);
        for k in MulKernel::ALL {
            let got = m.mul_with(&m, k);
            assert_eq!(got.degree(), Some(128), "{k:?}");
            assert_eq!(got.as_words().len(), 3, "{k:?}");
        }
    }

    #[test]
    fn div_rem_at_word_boundary_degrees() {
        // Divisor of degree exactly 64; dividend degree 130.
        let d = Gf2Poly::from_exponents(&[64, 3, 0]);
        let a = Gf2Poly::from_exponents(&[130, 64, 17, 2]);
        let (q, r) = a.div_rem(&d);
        assert_eq!(&q.mul(&d) + &r, a);
        assert!(r.degree().unwrap_or(0) < 64);
        assert!(q.is_normalized() && r.is_normalized());
    }

    #[test]
    fn exponents_iterator_ascending() {
        let p = Gf2Poly::from_exponents(&[65, 64, 3]);
        let exps: Vec<usize> = p.exponents().collect();
        assert_eq!(exps, vec![3, 64, 65]);
    }

    #[test]
    fn derivative_over_gf2() {
        // d/dx (x^5 + x^4 + x + 1) = 5x^4 + 4x^3 + 1 = x^4 + 1 over GF(2).
        let p = Gf2Poly::from_exponents(&[5, 4, 1, 0]);
        assert_eq!(p.derivative(), Gf2Poly::from_exponents(&[4, 0]));
        assert!(Gf2Poly::from_exponents(&[4, 2, 0]).derivative().is_zero());
    }

    #[test]
    fn irreducibility_known_cases() {
        // Primitive (hence irreducible) polynomials.
        assert!(Gf2Poly::from_exponents(&[3, 1, 0]).is_irreducible());
        assert!(Gf2Poly::from_exponents(&[4, 1, 0]).is_irreducible());
        assert!(Gf2Poly::from_exponents(&[16, 12, 3, 1, 0]).is_irreducible());
        // Irreducible but NOT primitive: x^4 + x^3 + x^2 + x + 1.
        assert!(Gf2Poly::from_exponents(&[4, 3, 2, 1, 0]).is_irreducible());
        // Reducible: x^4 + 1 = (x+1)^4; x^2 (no constant term).
        assert!(!Gf2Poly::from_exponents(&[4, 0]).is_irreducible());
        assert!(!Gf2Poly::from_exponents(&[2]).is_irreducible());
        // Degenerate cases.
        assert!(!Gf2Poly::zero().is_irreducible());
        assert!(!Gf2Poly::one().is_irreducible());
        assert!(Gf2Poly::from_exponents(&[1]).is_irreducible());
    }

    #[test]
    fn product_of_irreducibles_is_reducible() {
        let a = Gf2Poly::from_exponents(&[3, 1, 0]);
        let b = Gf2Poly::from_exponents(&[2, 1, 0]);
        assert!(!a.mul(&b).is_irreducible());
    }

    #[test]
    fn square_freeness() {
        let a = Gf2Poly::from_exponents(&[3, 1, 0]);
        let b = Gf2Poly::from_exponents(&[2, 1, 0]);
        assert!(a.mul(&b).is_square_free());
        assert!(!a.mul(&a).is_square_free());
        assert!(Gf2Poly::one().is_square_free());
    }
}
