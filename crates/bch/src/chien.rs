//! Root search for the error locator (third decoding stage).
//!
//! The hardware evaluates the error-locator polynomial at successive field
//! elements with `t x h` constant Galois multipliers. For a *shortened*
//! code only `n` of the `2^m - 1` positions exist; the paper's decoder
//! stores, per correction capability, the first field element to search in
//! a small ROM: the search starts at `alpha^(N - (n-1))` and walks exactly
//! `n` steps, so step index `s` corresponds one-to-one to codeword stream
//! position `s`.
//!
//! Three functions, one contract — `Some(sorted stream positions)` when
//! the locator has `deg(lambda)` distinct roots inside the shortened
//! window, `None` otherwise:
//!
//! * [`find_error_positions`] — the oracle: the sweep itself, one
//!   evaluation per position, `deg * n` field multiplies. It is what
//!   [`crate::CodecKernel::Reference`] runs and what the other two are
//!   tested against.
//! * [`find_error_positions_stride`] — the production search: it *solves*
//!   the locator, independent of `n` — Berlekamp trace splitting down to
//!   factors of degree 4 and less, those in closed form (as Linux
//!   `lib/bch.c` does). The Frobenius chain and the trace sums multiply
//!   carry-less, two coefficients to a machine word
//!   ([`mlcx_gf2::kernels`]): `(m/4 + 1) deg^2 + 2.5 m deg` multiplies for
//!   the chain and `(m/2 + 1) deg` per round, where the log tables took
//!   an antilog lookup per coefficient product — twice as many, each out
//!   of L2 (`log` + `exp` are 384 KiB at `m = 16`). The divisions of a
//!   split (`T mod g`, Euclid, the quotient) are one kernel call
//!   ([`mlcx_gf2::kernels::split`]), on the same multiplier: only the
//!   leading coefficient is reduced per step, so the chain from one step
//!   to the next is a multiply where the log tables took a `log` and an
//!   `exp`, and Euclid takes no inverse until the gcd is found.
//! * [`solve_single_error`] — the degree-1 case in closed form.
//!
//! The sweep answers `Some` exactly when `deg` of the exponents
//! `start ..= N` are roots, i.e. when lambda has `deg` distinct nonzero
//! roots in the field and each maps to a step `s < n`. The production
//! search tests the same three facts algebraically (`lambda_0 != 0`,
//! `x^(2^m) = x mod lambda`, every `s < n`) and returns the same sorted
//! steps, so its `None` is the sweep's `None`. The modeled latency
//! ([`EccHardware`](crate::EccHardware)) is the hardware sweep's either way.

use mlcx_gf2::kernels::{
    combine, frobenius_chain, frobenius_scratch_len, split, split_scratch_len,
};
use mlcx_gf2::GfField;

/// Finds error positions (codeword stream indices, 0 = first message bit).
///
/// `lambda` is the error-locator polynomial from
/// [`crate::berlekamp::error_locator`]; `n_bits` is the shortened codeword
/// length. Returns `None` when the number of roots found inside the valid
/// position range differs from `deg(lambda)` — the decoder must then
/// declare the page uncorrectable (errors outside the shortened range or a
/// degenerate locator).
///
/// # Example
///
/// ```
/// use mlcx_gf2::GfField;
/// use mlcx_bch::chien::find_error_positions;
///
/// let f = GfField::new(8)?;
/// // lambda(x) = 1 + X x with X = alpha^e locates a single error at
/// // codeword exponent e; with n = 100 and e = 97 the stream position is
/// // n - 1 - e = 2.
/// let x = f.alpha_pow(97);
/// let lambda = vec![1, x];
/// assert_eq!(find_error_positions(&f, &lambda, 100), Some(vec![2]));
/// # Ok::<(), mlcx_gf2::GfError>(())
/// ```
pub fn find_error_positions(field: &GfField, lambda: &[u32], n_bits: usize) -> Option<Vec<usize>> {
    let deg = crate::berlekamp::locator_degree(lambda);
    if deg == 0 {
        return None;
    }
    let n_full = field.order() as usize;
    debug_assert!(n_bits <= n_full);

    // First searched exponent (the ROM-stored start coefficient).
    let start = (n_full - (n_bits - 1)) as i64;
    // terms[d] = lambda_d * alpha^(d * start); each step multiplies term d
    // by alpha^d — the constant-multiplier structure of the hardware.
    let mut terms: Vec<u32> = lambda[..=deg]
        .iter()
        .enumerate()
        .map(|(d, &coef)| field.mul(coef, field.alpha_pow(d as i64 * start)))
        .collect();
    let steppers: Vec<u32> = (0..=deg).map(|d| field.alpha_pow(d as i64)).collect();

    let mut positions = Vec::with_capacity(deg);
    for s in 0..n_bits {
        let mut acc = 0u32;
        for &term in &terms {
            acc ^= term;
        }
        if acc == 0 {
            positions.push(s);
            if positions.len() == deg {
                return Some(positions);
            }
        }
        if s + 1 < n_bits {
            for (term, &step) in terms.iter_mut().zip(&steppers) {
                *term = field.mul(*term, step);
            }
        }
    }
    // Fewer roots than deg(lambda): uncorrectable.
    None
}

/// Solves the locator for its roots (the production path).
///
/// Same contract as [`find_error_positions`], by algebra instead of by
/// sweep — the `_stride` in the name is historical (`benchmark/` calls
/// this function by name):
///
/// 1. make lambda monic, `f = lambda / lambda_deg`. A zero constant term
///    is a root at `x = 0`, which is no `alpha^j`: `None`. Up to degree 4
///    the roots have a closed form, which answers there and then: `x = c1 y`
///    turns a quadratic into `y^2 + y = c0 / c1^2`
///    ([`GfField::solve_quadratic`]); a cubic times `x + a2` (`a2` its
///    `x^2` coefficient), and a quartic after the substitutions that
///    remove its linear term and reverse it, are affine,
///    `x^4 + a x^2 + b x + c` ([`GfField::solve_affine_quartic`]). A closed
///    form declines exactly where there are not `deg` distinct nonzero
///    roots in the field, so its `None` is final;
/// 2. `z_i = x^(2^i) mod f` for `i = 0..=m` by repeated squaring
///    ([`frobenius_chain`]: coefficients two to a machine word, carry-less
///    multiplies where the log tables would be walked);
/// 3. `f` divides `x^(2^m) - x`, the product of `x - a` over every field
///    element `a`, iff it has `deg` distinct roots in the field: unless
///    `z_m == x`, `None`;
/// 4. round `k = 0, 1, ..`: `Tr(alpha^k x) mod f = sum_i alpha^(k 2^i) z_i`
///    (one [`combine`]) is 0 at half of the field and 1 at the other half,
///    so `gcd(g, Tr(alpha^k x) mod g)` splits every factor `g` found so
///    far whose roots disagree in that trace bit ([`split`]: the trace
///    modulo `g`, Euclid and `g / gcd` in one call, on the carry-less
///    multiplier). Two distinct roots
///    differ in some bit `k < m`, so at most `m` rounds leave only linear
///    factors — but a factor is not split further than degree 4: from
///    there it is solved in closed form, where waiting for the bits that
///    separate four roots from one another took a locator of degree 34
///    most of its ten rounds;
/// 5. the root `alpha^j` is step `s = (j - start) mod N`; a step
///    `s >= n_bits` lies outside the shortened window: `None`. Sort.
///
/// The working set is one scratch allocation sized from `deg` and `m`
/// (none up to degree 4), the chain's scratch serving the splits after it.
/// What remains on the log tables is a monic `lambda`, the closed forms
/// and the window.
pub fn find_error_positions_stride(
    field: &GfField,
    lambda: &[u32],
    n_bits: usize,
) -> Option<Vec<usize>> {
    let deg = crate::berlekamp::locator_degree(lambda);
    match deg {
        0 => return None,
        1 => return solve_single_error(field, lambda, n_bits),
        _ => {}
    }
    let n = field.order();
    debug_assert!(n_bits <= n as usize);
    let m = field.degree() as usize;
    // 1. Monic f, low coefficients only (the leading 1 is implicit).
    let lead = field.inv(lambda[deg]).expect("leading coefficient");
    let monic = |f: &mut [u32]| {
        for (c, &l) in f.iter_mut().zip(&lambda[..deg]) {
            *c = field.mul(l, lead);
        }
    };
    if deg <= 4 {
        let mut f = [0u32; 4];
        monic(&mut f);
        let roots = closed_form_roots(field, &f[..deg])?;
        return window_positions(field, &roots[..deg], n_bits);
    }
    // The kernels take polynomials as whole two-slot words. The chain's
    // scratch is the split's once the chain is done.
    let stride = deg.next_multiple_of(2);
    let scratch_len = frobenius_scratch_len(deg);
    debug_assert!(scratch_len >= split_scratch_len(deg, stride));

    let mut arena = vec![0u32; (m + 4) * stride + scratch_len + 2 * deg];
    let (f, rest) = arena.split_at_mut(stride);
    let (z, rest) = rest.split_at_mut((m + 1) * stride);
    let (scratch, rest) = rest.split_at_mut(scratch_len);
    let (acc, rest) = rest.split_at_mut(stride);
    let (factor, rest) = rest.split_at_mut(stride);
    let (factors, seg) = rest.split_at_mut(deg);

    monic(f);
    if f[0] == 0 {
        return None;
    }
    // 2, 3. The chain, and f | x^(2^m) - x ?
    if !frobenius_chain(field.barrett(), f, deg, scratch, z) {
        return None;
    }

    // 4. `factors` is a concatenation of monic factors (low coefficients);
    //    `seg[off]` is the degree of the one that starts at `off`.
    factors.copy_from_slice(&f[..deg]);
    seg[0] = deg as u32;
    let z = &z[..m * stride];
    let mut linear = 0;
    for k in 0..m {
        if linear == deg {
            break;
        }
        let mut scalars = [0u32; 16];
        let mut shift = k as u32 % n;
        for s in &mut scalars[..m] {
            *s = field.alpha_pow_reduced(shift);
            shift = double_mod(shift, n);
        }
        acc.fill(0);
        combine(field.barrett(), &scalars[..m], z, acc);
        let mut off = 0;
        while off < deg {
            let e = seg[off] as usize;
            if e >= 2 {
                // The kernel takes the factor as whole two-slot words.
                let f = &mut factor[..e.next_multiple_of(2)];
                f[..e].copy_from_slice(&factors[off..off + e]);
                f[e..].fill(0);
                let scratch = &mut scratch[..split_scratch_len(e, stride)];
                if let Some(g) = split(field, f, e, acc, scratch) {
                    factors[off..off + e].copy_from_slice(&f[..e]);
                    linear += settle(field, factors, seg, off, g)
                        + settle(field, factors, seg, off + g, e - g);
                }
            }
            off += e;
        }
    }
    debug_assert_eq!(linear, deg, "distinct roots differ in a trace bit");
    window_positions(field, factors, n_bits)
}

/// Step 5: the root `alpha^j` of `x + c`, `c = alpha^j`, is step
/// `s = (j - start) mod N` with `start = N - (n_bits - 1)`; all of them
/// inside the window and sorted, or `None`.
fn window_positions(field: &GfField, roots: &[u32], n_bits: usize) -> Option<Vec<usize>> {
    let mut positions = Vec::with_capacity(roots.len());
    for &root in roots {
        let s = (field.log(root)? as usize + n_bits - 1) % field.order() as usize;
        if s >= n_bits {
            return None;
        }
        positions.push(s);
    }
    positions.sort_unstable();
    Some(positions)
}

/// The roots of the monic `f` of degree 2, 3 or 4 (low coefficients), in
/// the first `f.len()` entries, when they are that many distinct nonzero
/// field elements; `None` otherwise — each `None` below is a root at 0, a
/// repeated root or a root outside the field, never a set of roots this
/// form merely cannot reach, so it is the sweep's `None` (after Linux
/// `lib/bch.c`, `find_poly_deg{2,3,4}_roots`):
///
/// * `x^2 + c1 x + c0`: `x = c1 y` turns it into `y^2 + y = c0 / c1^2`,
///   which [`GfField::solve_quadratic`] answers. `c1 = 0` is a double
///   root, a `None` from the solver a pair of roots outside the field;
/// * `x^3 + a2 x^2 + b2 x + c2`: times `x + a2` it is the affine quartic
///   `x^4 + (a2^2 + b2) x^2 + (a2 b2 + c2) x + a2 c2`
///   ([`GfField::solve_affine_quartic`]), whose roots are the cubic's and
///   `a2`. Were `a2` a root of the cubic too (`a2 b2 = c2`) the product
///   would have no linear term and the solver would decline — rightly,
///   since that cubic is `(x + a2)(x^2 + b2)` and `x^2 + b2` a square;
/// * `x^4 + a x^3 + b x^2 + c x + d`, `a = 0`: affine as it stands.
///   Otherwise `x = z + e`, `e^2 = c / a`, removes the linear term,
///   `z^4 + a z^3 + (a e + b) z^2 + d'` with `d' = e^4 + b e^2 + d` — a
///   double root at `e` when `d' = 0` — and `y = 1 / z` turns that into
///   the affine `y^4 + ((a e + b) / d') y^2 + (a / d') y + 1 / d'`.
fn closed_form_roots(field: &GfField, f: &[u32]) -> Option<[u32; 4]> {
    let n = field.order();
    let constant = field.log(f[0])?;
    match *f {
        [_, c1] => {
            let l1 = field.log(c1)?;
            let u = field.alpha_pow_reduced(sub_mod(constant, double_mod(l1, n), n));
            let root = field.mul(c1, field.solve_quadratic(u)?);
            Some([root, root ^ c1, 0, 0])
        }
        [c2, b2, a2] => {
            let a = field.mul(a2, a2) ^ b2;
            let b = field.mul(a2, b2) ^ c2;
            let mut roots = field.solve_affine_quartic(a, b, field.mul(a2, c2))?;
            let extra = roots.iter().position(|&r| r == a2)?;
            roots.swap(extra, 3);
            Some(roots)
        }
        [d, c, b, 0] => field.solve_affine_quartic(b, c, d),
        [d, c, b, a] => {
            let la = field.log(a).expect("a is not zero");
            // e = sqrt(c / a): half the log, made even first.
            let e = field.log(c).map_or(0, |lc| {
                let l = sub_mod(lc, la, n);
                field.alpha_pow_reduced((l + (l & 1) * n) / 2)
            });
            let e2 = field.mul(e, e);
            let shifted_b = field.mul(a, e) ^ b;
            let shifted_d = field.log(field.mul(e2, e2) ^ field.mul(b, e2) ^ d)?;
            let over_d = |v: u32| {
                field
                    .log(v)
                    .map_or(0, |l| field.alpha_pow_reduced(sub_mod(l, shifted_d, n)))
            };
            let roots = field.solve_affine_quartic(over_d(shifted_b), over_d(a), over_d(1))?;
            Some(roots.map(|y| field.inv(y).expect("the constant term 1 / d' is not zero") ^ e))
        }
        _ => unreachable!("closed forms stop at degree 4"),
    }
}

/// Records the monic factor of degree `e` that starts at `factors[off]`,
/// one of degree 2 to 4 as the linear factors it is in closed form.
/// Returns how many linear factors that made. (A factor of a polynomial
/// with distinct nonzero roots in the field has them too, so the closed
/// form does not decline here; if it did, the factor would stay for the
/// trace rounds like a larger one.)
fn settle(field: &GfField, factors: &mut [u32], seg: &mut [u32], off: usize, e: usize) -> usize {
    seg[off] = e as u32;
    let factor = &mut factors[off..off + e];
    match e {
        1 => 1,
        2..=4 => closed_form_roots(field, factor).map_or(0, |roots| {
            factor.copy_from_slice(&roots[..e]);
            seg[off..off + e].fill(1);
            e
        }),
        _ => 0,
    }
}

/// `2l mod N` for a log `l < N`.
#[inline]
fn double_mod(l: u32, n: u32) -> u32 {
    if 2 * l >= n {
        2 * l - n
    } else {
        2 * l
    }
}

/// `a - b mod N` for logs `a, b < N`.
#[inline]
fn sub_mod(a: u32, b: u32, n: u32) -> u32 {
    if a >= b {
        a - b
    } else {
        a + n - b
    }
}

/// Direct solve for a degree-1 locator (the production path).
///
/// `lambda(x) = lambda_0 + lambda_1 x` vanishes at `alpha^j` exactly when
/// `j = log(lambda_0) - log(lambda_1) (mod N)`; the Chien step index `s`
/// maps to exponent `start + s`, so the unique candidate position is
/// `s = (j - start) mod N`, valid iff it falls inside the shortened range.
/// Returns exactly what the linear search over `n_bits` steps would.
pub fn solve_single_error(field: &GfField, lambda: &[u32], n_bits: usize) -> Option<Vec<usize>> {
    debug_assert_eq!(crate::berlekamp::locator_degree(lambda), 1);
    let n_full = field.order() as i64;
    debug_assert!(n_bits as i64 <= n_full);
    // lambda_0 = 0 would put the root at x = 0, which is no alpha^j: the
    // linear search finds nothing.
    let l0 = field.log(lambda[0])?;
    let l1 = field
        .log(lambda[1])
        .expect("degree-1 locator has nonzero lambda_1");
    let start = n_full - (n_bits as i64 - 1);
    let j = (l0 as i64 - l1 as i64).rem_euclid(n_full);
    let s = (j - start).rem_euclid(n_full) as usize;
    (s < n_bits).then(|| vec![s])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// lambda(x) = prod_j (1 + alpha^{e_j} x) expanded over the field.
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

    #[test]
    fn finds_all_positions_full_length() {
        let f = GfField::new(8).unwrap();
        let n = f.order() as usize; // unshortened
        let exps = [0u32, 10, 200];
        let lambda = locator_for(&f, &exps);
        let mut expect: Vec<usize> = exps.iter().map(|&e| n - 1 - e as usize).collect();
        expect.sort_unstable();
        assert_eq!(find_error_positions(&f, &lambda, n), Some(expect));
    }

    #[test]
    fn finds_positions_in_shortened_code() {
        let f = GfField::new(10).unwrap();
        let n = 400usize; // shortened from 1023
                          // Errors at stream positions 0, 57, 399.
        let positions = [0usize, 57, 399];
        let exps: Vec<u32> = positions.iter().map(|&p| (n - 1 - p) as u32).collect();
        let lambda = locator_for(&f, &exps);
        assert_eq!(
            find_error_positions(&f, &lambda, n),
            Some(positions.to_vec())
        );
    }

    #[test]
    fn error_outside_shortened_range_is_rejected() {
        let f = GfField::new(10).unwrap();
        let n = 400usize;
        // One in-range error plus one at exponent n (outside the shortened
        // window): the search must come up one root short.
        let lambda = locator_for(&f, &[(n - 10) as u32, (n + 5) as u32]);
        assert_eq!(find_error_positions(&f, &lambda, n), None);
    }

    #[test]
    fn constant_locator_rejected() {
        let f = GfField::new(8).unwrap();
        assert_eq!(find_error_positions(&f, &[1], 100), None);
        assert_eq!(find_error_positions(&f, &[0], 100), None);
    }

    #[test]
    fn repeated_root_cannot_complete() {
        // lambda = (1 + alpha^e x)^2 has a double root; only one distinct
        // position exists so the count check fails -> None.
        let f = GfField::new(8).unwrap();
        let lambda = locator_for(&f, &[30, 30]);
        assert_eq!(find_error_positions(&f, &lambda, 255), None);
    }

    // The differential suite proper is `tests/root_search.rs`.
    #[test]
    fn root_search_matches_the_sweep() {
        let f = GfField::new(10).unwrap();
        let n = 400usize;
        let cases: [&[usize]; 5] = [
            &[0],
            &[399],
            &[0, 57, 399],
            &[12, 13, 14, 15],
            &[100, 350], // plus out-of-range and degenerate cases below
        ];
        for positions in cases {
            let exps: Vec<u32> = positions.iter().map(|&p| (n - 1 - p) as u32).collect();
            let lambda = locator_for(&f, &exps);
            assert_eq!(
                find_error_positions_stride(&f, &lambda, n),
                find_error_positions(&f, &lambda, n),
                "positions {positions:?}"
            );
        }
        // Out-of-range root and repeated root: both must agree on None.
        for lambda in [
            locator_for(&f, &[(n - 10) as u32, (n + 5) as u32]),
            locator_for(&f, &[30, 30]),
        ] {
            assert_eq!(
                find_error_positions_stride(&f, &lambda, n),
                find_error_positions(&f, &lambda, n)
            );
        }
        assert_eq!(find_error_positions_stride(&f, &[1], n), None);
    }

    #[test]
    fn single_error_solve_matches_linear_search() {
        let f = GfField::new(10).unwrap();
        let n = 400usize;
        // Every in-range position, a sample of out-of-range exponents.
        for p in [0usize, 1, 57, 199, 398, 399] {
            let lambda = locator_for(&f, &[(n - 1 - p) as u32]);
            assert_eq!(
                solve_single_error(&f, &lambda, n),
                find_error_positions(&f, &lambda, n),
                "position {p}"
            );
            assert_eq!(solve_single_error(&f, &lambda, n), Some(vec![p]));
        }
        for e in [n as u32, (n + 100) as u32, f.order() - 1] {
            let lambda = locator_for(&f, &[e]);
            assert_eq!(
                solve_single_error(&f, &lambda, n),
                find_error_positions(&f, &lambda, n),
                "exponent {e}"
            );
        }
        // lambda_0 = 0 (root at x = 0): nothing findable either way.
        let degenerate = [0u32, 5];
        assert_eq!(solve_single_error(&f, &degenerate, n), None);
        assert_eq!(find_error_positions(&f, &degenerate, n), None);
    }
}
