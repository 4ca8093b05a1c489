//! Chien search over the shortened position range (third decoding stage).
//!
//! The hardware evaluates the error-locator polynomial at successive field
//! elements with `t x h` constant Galois multipliers. For a *shortened*
//! code only `n` of the `2^m - 1` positions exist; the paper's decoder
//! stores, per correction capability, the first field element to search in
//! a small ROM. This module mirrors that: the search starts at
//! `alpha^(N - (n-1))` and walks exactly `n` steps, so step index `s`
//! corresponds one-to-one to codeword stream position `s`.

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

/// Log-stride variant of [`find_error_positions`] (the production path).
///
/// Each nonzero term of the locator is tracked as a *log-domain* exponent:
/// term `d` at step `s` is `alpha^(log lambda_d + d*(start+s) mod N)`, so
/// stepping is one add and one conditional subtract instead of a full
/// Galois multiply (two log lookups, zero checks). Bit-identical to the
/// linear search: the evaluated field elements are the same, so the root
/// set, early exit and ordering all match.
pub fn find_error_positions_stride(
    field: &GfField,
    lambda: &[u32],
    n_bits: usize,
) -> Option<Vec<usize>> {
    let deg = crate::berlekamp::locator_degree(lambda);
    if deg == 0 {
        return None;
    }
    let n_full = field.order() as usize;
    debug_assert!(n_bits <= n_full);
    let n = field.order();
    let start = (n_full - (n_bits - 1)) as i64;

    // (stride d, log-domain index) for every nonzero coefficient; zero
    // coefficients contribute nothing at every step, exactly as in the
    // linear search where their term stays 0 forever.
    let terms: Vec<(u32, u32)> = lambda[..=deg]
        .iter()
        .enumerate()
        .filter(|&(_, &coef)| coef != 0)
        .map(|(d, &coef)| {
            let log = field.log(coef).expect("nonzero coefficient has a log");
            let idx = (log as i64 + d as i64 * start).rem_euclid(n as i64) as u32;
            (d as u32, idx)
        })
        .collect();
    let mut logs: Vec<u32> = terms.iter().map(|&(_, idx)| idx).collect();

    let mut positions = Vec::with_capacity(deg);
    for s in 0..n_bits {
        let mut acc = 0u32;
        for &log in &logs {
            acc ^= field.alpha_pow_reduced(log);
        }
        if acc == 0 {
            positions.push(s);
            if positions.len() == deg {
                return Some(positions);
            }
        }
        if s + 1 < n_bits {
            for (log, &(d, _)) in logs.iter_mut().zip(&terms) {
                *log += d;
                if *log >= n {
                    *log -= n;
                }
            }
        }
    }
    None
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

    #[test]
    fn stride_search_matches_linear_search() {
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
