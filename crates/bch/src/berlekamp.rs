//! Berlekamp-Massey error-locator synthesis (second decoding stage).
//!
//! The paper's adaptable decoder uses the inversion-free Berlekamp-Massey
//! (iBM) machine of Micheloni et al., whose iteration count tracks the
//! selected correction capability — that property feeds the latency model
//! ([`EccHardware`](crate::EccHardware)). The software implementation below is the
//! classical (division-form) Berlekamp-Massey recurrence, which produces
//! the *same* error-locator polynomial up to a nonzero scalar; the Chien
//! search only cares about the root set, which is scalar-invariant.
//!
//! The code is binary, and the recurrence knows it. Squaring is additive
//! in characteristic 2 and fixes GF(2), so `r(x)^2 = r(x^2)` for every
//! received word `r` and `S_2k = S_k^2`; with that, the discrepancy of
//! every second iteration is zero whatever the error count (Berlekamp's
//! simplification for binary BCH codes), and [`error_locator`] does not
//! compute it: `t` iterations instead of `2t`. That is a **precondition**
//! on its input — the syndromes of a binary word, which is what
//! [`crate::syndrome`] produces — and the general recurrence, which takes
//! any sequence, stays in the tests as the oracle they hold it to.
//!
//! Each iteration's discrepancy `d = sum_i c_i S_(n+1-i)` is one
//! coefficient of the product of `c` and the syndromes, and is computed as
//! one, two coefficients to a machine word: `ceil((l+1)/2)` carry-less
//! multiplies read straight off the syndromes (behind one zero slot, so
//! the window never starts before them) and one reduction, where the log
//! tables took `l` products — from `l = 4` up; below, the log tables' few
//! products finish before the kernel's dependent multiplies do. The whole
//! loop is one [`mlcx_gf2::kernels::with_dots`] job: each discrepancy
//! waits on the last, and a kernel call apiece would put the kernels'
//! `target_feature` boundary, its arguments passed through memory, on
//! that chain. The update
//! `c += (d / d_last) x^shift b` only ever scales `b`, which changes at a
//! length change and nowhere else, so `b` is kept as its logarithms: one
//! antilog per coefficient instead of two logs and an antilog.

use mlcx_gf2::kernels::{with_dots, Dots};
use mlcx_gf2::GfField;

/// A zero coefficient of `b`, which has no logarithm.
const NO_LOG: u32 = u32::MAX;

/// Up to this many coefficients of `c` (`l <= 3`) the discrepancy is
/// summed on the log tables: its three products are done before one
/// `dot` — a multiply, then the reduction's two, each behind the last —
/// would be. That is every iteration after the last length change of a
/// page with three errors, most of a `t = 65` decode.
const SHORT: usize = 4;

/// Computes the error-locator polynomial from the syndromes `S_1 .. S_2t`
/// of a binary word (`S_2k = S_k^2`; see the module doc — on any other
/// sequence the result is not the shortest LFSR).
///
/// Returns the coefficient vector `lambda[0..=L]` with `lambda[0] = 1`,
/// trimmed of trailing zeros, where the roots of
/// `lambda(x) = prod_j (1 + X_j x)` are the inverses of the error locators
/// `X_j = alpha^(e_j)`.
///
/// The caller must reject the result when `deg(lambda) > t` (more errors
/// than the code can locate) — this function only synthesizes the shortest
/// LFSR that generates the syndrome sequence.
pub fn error_locator(field: &GfField, syndromes: &[u32]) -> Vec<u32> {
    debug_assert!(
        (1..=syndromes.len() / 2)
            .all(|k| syndromes[2 * k - 1] == field.mul(syndromes[k - 1], syndromes[k - 1])),
        "not the syndromes of a binary word"
    );
    let two_t = syndromes.len();
    // Room for deg c <= l <= 2t, in whole two-slot words.
    let size = (two_t + 2).next_multiple_of(2);
    let mut c = vec![0u32; size];
    c[0] = 1;
    // One scratch: the syndromes behind a zero slot, then log b (b = 1).
    let mut scratch = vec![0u32; 2 * size];
    let (padded, log_b) = scratch.split_at_mut(size);
    padded[1..=two_t].copy_from_slice(syndromes);
    log_b[1..].fill(NO_LOG);
    with_dots(
        field.barrett(),
        &mut Recurrence {
            field,
            two_t,
            c: &mut c,
            padded,
            log_b,
        },
    );
    let degree = locator_degree(&c);
    c.truncate(degree + 1);
    c
}

/// [`error_locator`]'s iterations: the whole loop is one [`with_dots`]
/// job, so that its chain of discrepancies does not cross the kernels'
/// `target_feature` boundary once a turn.
struct Recurrence<'a> {
    field: &'a GfField,
    two_t: usize,
    c: &'a mut [u32],
    padded: &'a [u32],
    log_b: &'a mut [u32],
}

impl Dots for Recurrence<'_> {
    #[inline(always)]
    fn run(&mut self, mut dot: impl FnMut(&[u32], &[u32]) -> u32) {
        let Recurrence {
            field,
            two_t,
            ref mut c,
            padded,
            ref mut log_b,
        } = *self;
        let (order, size) = (field.order(), c.len());
        // c_i * x^shift * b_i's coefficient, given log(d / d_last).
        let scaled = |log_coef: u32, log_b: u32| {
            if log_b == NO_LOG {
                return 0;
            }
            let e = log_coef + log_b;
            field.alpha_pow_reduced(if e >= order { e - order } else { e })
        };
        // Every coefficient at or above these indices is zero.
        let (mut c_len, mut b_len) = (1usize, 1usize);
        let mut l = 0usize; // current LFSR length, and deg c <= l
        let mut shift = 1usize; // x^shift multiplier on b
        let mut log_last_d = 0u32; // discrepancy at the last length change

        for n in (0..two_t).step_by(2) {
            // d = S_(n+1) + sum_(i=1..=l) c_i S_(n+1-i): padded[n + 1 - i] is
            // element len - 1 - i of the window (l <= n, so it starts at 0 or
            // after; c_(l+1), where len takes it in, is zero).
            let len = (l + 1).next_multiple_of(2);
            let d = if len <= SHORT {
                (1..=l).fold(padded[n + 1], |d, i| d ^ field.mul(c[i], padded[n + 1 - i]))
            } else {
                dot(&c[..len], &padded[n + 2 - len..n + 2])
            };
            // Every iteration moves b up by x, the skipped one (its
            // discrepancy a zero) included: 2 per turn of this loop.
            let Some(log_d) = field.log(d) else {
                shift += 2;
                continue;
            };
            let log_coef = if log_d >= log_last_d {
                log_d - log_last_d
            } else {
                log_d + order - log_last_d
            };
            // c + coef * x^shift * b, clipped to the buffer like every update.
            let live = b_len.min(size - shift);
            let new_len = c_len.max(live + shift);
            if 2 * l <= n {
                // Length change: the old c becomes b. Top down, so that
                // log b[i - shift] is read before it is overwritten.
                for i in (0..new_len).rev() {
                    let old = c[i];
                    if i >= shift {
                        c[i] ^= scaled(log_coef, log_b[i - shift]);
                    }
                    log_b[i] = field.log(old).unwrap_or(NO_LOG);
                }
                b_len = c_len;
                l = n + 1 - l;
                log_last_d = log_d;
                shift = 2;
            } else {
                for i in 0..live {
                    c[i + shift] ^= scaled(log_coef, log_b[i]);
                }
                shift += 2;
            }
            c_len = new_len;
        }
    }
}

/// The degree of an error-locator polynomial returned by [`error_locator`].
pub fn locator_degree(lambda: &[u32]) -> usize {
    lambda.iter().rposition(|&x| x != 0).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The general recurrence: every iteration, any sequence, the
    /// discrepancy and the update on `GfField::mul` — `error_locator` as it
    /// was before it skipped iterations, packed its discrepancy and kept
    /// `b` as logarithms.
    fn error_locator_general(field: &GfField, syndromes: &[u32]) -> Vec<u32> {
        let two_t = syndromes.len();
        let mut c = vec![0u32; two_t + 2];
        let mut b = vec![0u32; two_t + 2];
        c[0] = 1;
        b[0] = 1;
        // Every coefficient at or above these indices is zero.
        let (mut c_len, mut b_len) = (1usize, 1usize);
        let mut l = 0usize; // current LFSR length
        let mut shift = 1usize; // x^shift multiplier on b
        let mut last_d = 1u32; // discrepancy at the last length change

        for n in 0..two_t {
            // Discrepancy d = S_{n+1} + sum_{i=1..=l} c_i * S_{n+1-i}.
            let mut d = syndromes[n];
            for i in 1..=l.min(n) {
                d ^= field.mul(c[i], syndromes[n - i]);
            }
            if d == 0 {
                shift += 1;
                continue;
            }
            let coef = field.div(d, last_d).unwrap();
            let live = b_len.min(two_t + 2 - shift);
            let new_len = c_len.max(live + shift);
            if 2 * l <= n {
                // Length change: build the new c in b's buffer, top down,
                // then trade the two.
                for i in (0..new_len).rev() {
                    let moved = if i >= shift { b[i - shift] } else { 0 };
                    b[i] = c[i] ^ field.mul(coef, moved);
                }
                std::mem::swap(&mut c, &mut b);
                b_len = c_len;
                l = n + 1 - l;
                last_d = d;
                shift = 1;
            } else {
                for i in 0..live {
                    c[i + shift] ^= field.mul(coef, b[i]);
                }
                shift += 1;
            }
            c_len = new_len;
        }
        while c.len() > 1 && *c.last().unwrap() == 0 {
            c.pop();
        }
        c
    }

    /// The implementation this module shipped before its buffers were
    /// reused: clones `c` on every length change, walks all `2t + 2` slots.
    fn error_locator_reference(field: &GfField, syndromes: &[u32]) -> Vec<u32> {
        let two_t = syndromes.len();
        let mut c = vec![0u32; two_t + 2];
        let mut b = vec![0u32; two_t + 2];
        c[0] = 1;
        b[0] = 1;
        let mut l = 0usize; // current LFSR length
        let mut shift = 1usize; // x^shift multiplier on b
        let mut last_d = 1u32; // discrepancy at the last length change

        for n in 0..two_t {
            // Discrepancy d = S_{n+1} + sum_{i=1..=l} c_i * S_{n+1-i}.
            let mut d = syndromes[n];
            for i in 1..=l.min(n) {
                if c[i] != 0 {
                    d ^= field.mul(c[i], syndromes[n - i]);
                }
            }
            if d == 0 {
                shift += 1;
            } else if 2 * l <= n {
                let prev_c = c.clone();
                let coef = field
                    .div(d, last_d)
                    .expect("last discrepancy is nonzero by construction");
                for i in 0..two_t + 2 - shift {
                    if b[i] != 0 {
                        c[i + shift] ^= field.mul(coef, b[i]);
                    }
                }
                l = n + 1 - l;
                b = prev_c;
                last_d = d;
                shift = 1;
            } else {
                let coef = field
                    .div(d, last_d)
                    .expect("last discrepancy is nonzero by construction");
                for i in 0..two_t + 2 - shift {
                    if b[i] != 0 {
                        c[i + shift] ^= field.mul(coef, b[i]);
                    }
                }
                shift += 1;
            }
        }

        while c.len() > 1 && *c.last().unwrap() == 0 {
            c.pop();
        }
        c
    }

    /// Builds syndromes for a known error-position set:
    /// `S_i = sum_j alpha^(i * e_j)`.
    fn syndromes_for_errors(field: &GfField, t: u32, error_exps: &[u32]) -> Vec<u32> {
        (1..=2 * t as i64)
            .map(|i| {
                error_exps
                    .iter()
                    .fold(0u32, |acc, &e| acc ^ field.alpha_pow(i * e as i64))
            })
            .collect()
    }

    /// Checks lambda vanishes exactly on the inverses of the locators.
    fn assert_roots(field: &GfField, lambda: &[u32], error_exps: &[u32]) {
        assert_eq!(locator_degree(lambda), error_exps.len());
        for &e in error_exps {
            let x = field.alpha_pow(-(e as i64));
            let mut acc = 0u32;
            for (d, &coef) in lambda.iter().enumerate() {
                acc ^= field.mul(coef, field.pow(x, d as i64));
            }
            assert_eq!(acc, 0, "lambda must vanish at alpha^-{e}");
        }
    }

    #[test]
    fn buffer_reuse_is_bit_identical_to_the_cloning_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // Weights 0..=t+3 (the last three beyond the design distance,
        // where the LFSR runs to its longest) at the four capabilities
        // the controller's ROM spans; 8 draws each = 1168 vectors.
        let f = GfField::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(0xB1E5);
        let mut vectors = 0;
        for t in [3u32, 14, 48, 65] {
            for weight in 0..=t + 3 {
                for _ in 0..8 {
                    let exps: Vec<u32> = (0..weight)
                        .map(|_| rng.random_range(0..f.order()))
                        .collect();
                    let syn = syndromes_for_errors(&f, t, &exps);
                    let expect = error_locator_reference(&f, &syn);
                    assert_eq!(
                        error_locator_general(&f, &syn),
                        expect,
                        "t {t}, weight {weight}, exponents {exps:?}"
                    );
                    assert_eq!(error_locator(&f, &syn), expect);
                    vectors += 1;
                }
            }
        }
        assert!(vectors >= 1000);
        // Not syndromes of any word: arbitrary field elements, which only
        // the general recurrence takes.
        for two_t in [1usize, 2, 7, 28, 130] {
            let syn: Vec<u32> = (0..two_t).map(|_| rng.random_range(0..f.size())).collect();
            assert_eq!(
                error_locator_general(&f, &syn),
                error_locator_reference(&f, &syn)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// On the syndromes of a binary word — any number of flips, up to
        /// three past where the LFSR runs to its longest, positions
        /// repeating or not — skipping every second iteration changes no
        /// coefficient.
        #[test]
        fn skipping_recurrence_equals_the_general_one_on_binary_words(
            m_pick in 0usize..3,
            t in 1u32..=65,
            flips_pick in any::<u32>(),
            seed in any::<u64>(),
        ) {
            use rand::{RngExt, SeedableRng};
            let f = GfField::new([8, 13, 16][m_pick]).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let flips = flips_pick % (2 * t + 4);
            let exps: Vec<u32> = (0..flips).map(|_| rng.random_range(0..f.order())).collect();
            let syn = syndromes_for_errors(&f, t, &exps);
            prop_assert_eq!(error_locator(&f, &syn), error_locator_general(&f, &syn));
        }
    }

    #[test]
    fn no_errors_gives_constant_locator() {
        let f = GfField::new(8).unwrap();
        let lambda = error_locator(&f, &[0u32; 8]);
        assert_eq!(lambda, vec![1]);
        assert_eq!(locator_degree(&lambda), 0);
    }

    #[test]
    fn single_error() {
        let f = GfField::new(8).unwrap();
        for e in [0u32, 1, 77, 200, 254] {
            let syn = syndromes_for_errors(&f, 3, &[e]);
            let lambda = error_locator(&f, &syn);
            assert_roots(&f, &lambda, &[e]);
        }
    }

    #[test]
    fn multiple_errors_up_to_t() {
        let f = GfField::new(10).unwrap();
        let cases: [&[u32]; 4] = [
            &[5, 900],
            &[0, 1, 2],
            &[17, 300, 612, 1000],
            &[3, 99, 207, 555, 801],
        ];
        for errs in cases {
            let t = errs.len() as u32;
            let syn = syndromes_for_errors(&f, t, errs);
            let lambda = error_locator(&f, &syn);
            assert_roots(&f, &lambda, errs);
        }
    }

    #[test]
    fn excess_errors_reported_by_degree() {
        // t = 2 code, 4 errors: BM may synthesize an LFSR of length > t,
        // which the decoder rejects. (Occasionally >t errors alias to a
        // low-degree locator — that is exactly BCH miscorrection and is
        // why UBER is nonzero — but for this fixed pattern it does not.)
        let f = GfField::new(8).unwrap();
        let syn = syndromes_for_errors(&f, 2, &[1, 50, 100, 200]);
        let lambda = error_locator(&f, &syn);
        assert!(
            locator_degree(&lambda) > 2 || {
                // If degree <= 2, the locator must NOT reproduce the 4 errors.
                let mut ok = false;
                for &e in &[1u32, 50, 100, 200] {
                    let x = f.alpha_pow(-(e as i64));
                    let mut acc = 0u32;
                    for (d, &coef) in lambda.iter().enumerate() {
                        acc ^= f.mul(coef, f.pow(x, d as i64));
                    }
                    if acc != 0 {
                        ok = true;
                    }
                }
                ok
            }
        );
    }

    #[test]
    fn degree_of_all_zero_is_zero() {
        assert_eq!(locator_degree(&[0, 0, 0]), 0);
        assert_eq!(locator_degree(&[1]), 0);
        assert_eq!(locator_degree(&[1, 0, 5, 0]), 2);
    }
}
