//! Eq. (1) of the paper: UBER of a `t`-error-correcting page code.
//!
//! ```text
//!            C(n, t+1) * RBER^(t+1) * (1 - RBER)^(n-(t+1))
//!   UBER  =  ---------------------------------------------
//!                                n
//! ```
//!
//! i.e. the probability of the dominant uncorrectable event (exactly
//! `t + 1` raw errors in the `n`-bit codeword), normalized per bit. All
//! arithmetic is carried out in log domain — UBER values span 60+ orders
//! of magnitude across the design space (Fig. 10), far beyond `f64`
//! linear range.
//!
//! Solving this equation at the paper's UBER target (1e-11) reproduces
//! the printed Fig. 7 x-ticks to three digits (t = 27 at RBER 2.776e-4
//! vs. the printed 2.75e-4; t = 65 at 1.0028e-3 vs. 1e-3), which is how
//! the whole reproduction is calibrated.

/// Natural log of the gamma function (Lanczos, g = 7, 9 terms;
/// |relative error| < 1e-13 on the positive real axis).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain is x > 0");
    const COEFFS: [f64; 8] = [
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection for small arguments.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural log of the binomial coefficient `C(n, k)`.
pub(crate) fn ln_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "C(n, k) requires k <= n");
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// `log10(UBER)` for an `n_bits` codeword correcting `t` errors at
/// raw error probability `rber`.
///
/// # Panics
///
/// Panics unless `0 < rber < 1` and `t + 1 <= n_bits`.
pub fn log10_uber(n_bits: usize, t: u32, rber: f64) -> f64 {
    assert!(rber > 0.0 && rber < 1.0, "rber must be a probability");
    let n = n_bits as u64;
    let errors = t as u64 + 1;
    assert!(errors <= n, "t + 1 must not exceed the codeword length");
    // ln(1 - rber) via ln_1p keeps the survival factor accurate at the
    // tiny RBERs of fresh devices.
    let ln_u =
        ln_binomial(n, errors) + errors as f64 * rber.ln() + (n - errors) as f64 * (-rber).ln_1p()
            - (n as f64).ln();
    ln_u / std::f64::consts::LN_10
}

/// Linear-domain UBER (underflows to 0 below ~1e-308; prefer
/// [`log10_uber`] for plotting).
pub fn uber(n_bits: usize, t: u32, rber: f64) -> f64 {
    10f64.powf(log10_uber(n_bits, t, rber))
}

/// `true` when eq. (1)'s single-term tail approximation is valid at this
/// operating point: the designed capability must at least cover the mean
/// raw error count (`t + 1 > n * rber`), otherwise "exactly t+1 errors"
/// sits *below* the bulk of the error distribution and the term no longer
/// bounds the uncorrectable probability.
pub fn first_term_valid(n_bits: usize, t: u32, rber: f64) -> bool {
    (t as f64 + 1.0) > n_bits as f64 * rber
}

/// The smallest correction capability `t` in `tmin..=tmax` meeting
/// `UBER <= target` for a shortened code with `k_bits` of data and
/// `m`-bit parity symbols (`n = k + m*t`); `None` when even `tmax`
/// misses the target.
///
/// Only capabilities in eq. (1)'s validity regime
/// ([`first_term_valid`]) are considered — an ECC whose capability lies
/// below the mean error count cannot meet any meaningful UBER target.
///
/// # Example
///
/// ```
/// use mlcx_core::uber::required_t;
///
/// // The paper's working points: fresh memory needs t = 3, ISPP-SV at
/// // end of life needs the full t = 65.
/// assert_eq!(required_t(32768, 16, 1.5e-6, 1e-11, 3, 65), Some(3));
/// assert_eq!(required_t(32768, 16, 1.0e-3, 1e-11, 3, 65), Some(65));
/// ```
pub fn required_t(
    k_bits: usize,
    m: u32,
    rber: f64,
    target_uber: f64,
    tmin: u32,
    tmax: u32,
) -> Option<u32> {
    let target_log = target_uber.log10();
    (tmin..=tmax).find(|&t| {
        let n = k_bits + (m as usize) * t as usize;
        first_term_valid(n, t, rber) && log10_uber(n, t, rber) <= target_log
    })
}

/// `log10` of the *full-tail* UBER, `P(errors >= t+1) / n` — the exact
/// quantity eq. (1) approximates by its first term. Summed in log domain
/// from `e = t+1` until terms become negligible.
///
/// In the design regime the two agree closely; this function exists to
/// quantify the approximation (see the crate tests).
pub fn log10_uber_exact(n_bits: usize, t: u32, rber: f64) -> f64 {
    assert!(rber > 0.0 && rber < 1.0, "rber must be a probability");
    let n = n_bits as u64;
    let ln10 = std::f64::consts::LN_10;
    let term_log10 = |e: u64| {
        (ln_binomial(n, e) + e as f64 * rber.ln() + (n - e) as f64 * (-rber).ln_1p()) / ln10
    };
    let start = t as u64 + 1;
    // Collect term logs until we are well past the distribution mode and
    // the terms have fallen 16 orders below the peak, then log-sum-exp.
    let mode = n as f64 * rber;
    let mut term_logs = Vec::new();
    let mut max_log = f64::NEG_INFINITY;
    let mut e = start;
    loop {
        let l = term_log10(e);
        term_logs.push(l);
        max_log = max_log.max(l);
        if e >= n || (e as f64 > mode && l < max_log - 16.0) {
            break;
        }
        e += 1;
    }
    let sum: f64 = term_logs.iter().map(|l| 10f64.powf(l - max_log)).sum();
    max_log + sum.log10() - (n as f64).log10()
}

/// The largest RBER a capability `t` can serve at `target_uber` (the
/// x-coordinate where a Fig. 7 curve crosses the target line). Bisection
/// on the ascending branch of eq. (1).
pub fn max_rber_for_t(k_bits: usize, m: u32, t: u32, target_uber: f64) -> f64 {
    let n = k_bits + (m as usize) * t as usize;
    let target_log = target_uber.log10();
    // Stay below the mode of the (t+1)-error pmf: p* ~ (t+1)/n.
    let (mut lo, mut hi) = (1e-9, (t as f64 + 1.0) / n as f64);
    for _ in 0..200 {
        let mid = (lo * hi).sqrt();
        if log10_uber(n, t, mid) < target_log {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo * hi).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_reference_values() {
        // Gamma(1) = Gamma(2) = 1; Gamma(11) = 10!.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        let ten_fact: f64 = 3_628_800.0;
        assert!((ln_gamma(11.0) - ten_fact.ln()).abs() < 1e-9);
        // Gamma(0.5) = sqrt(pi).
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_binomial_small_cases() {
        assert!((ln_binomial(5, 2) - 10f64.ln()).abs() < 1e-10);
        assert!((ln_binomial(10, 0)).abs() < 1e-10);
        assert!((ln_binomial(52, 5) - 2_598_960f64.ln()).abs() < 1e-8);
    }

    #[test]
    fn uber_matches_direct_evaluation_small() {
        // n small enough for direct f64 evaluation.
        let n = 100;
        let t = 2;
        let p: f64 = 0.01;
        let direct = {
            let c = 161_700.0; // C(100, 3)
            c * p.powi(3) * (1.0 - p).powi(97) / 100.0
        };
        let log = log10_uber(n, t, p);
        assert!((10f64.powf(log) - direct).abs() / direct < 1e-9);
    }

    #[test]
    fn paper_fig7_xticks_reproduced() {
        // The printed x-ticks of Fig. 7 against eq. (1) at UBER 1e-11.
        let cases = [(27u32, 2.75e-4), (30, 3.35e-4), (65, 1.0e-3)];
        for (t, printed) in cases {
            let solved = max_rber_for_t(32768, 16, t, 1e-11);
            let err = (solved - printed).abs() / printed;
            assert!(
                err < 0.05,
                "t = {t}: solved {solved:.4e} vs printed {printed:.4e}"
            );
        }
    }

    #[test]
    fn required_t_monotone_in_rber() {
        let mut prev = 0;
        for rber in [1e-6, 1e-5, 1e-4, 5e-4, 1e-3] {
            let t = required_t(32768, 16, rber, 1e-11, 1, 80).unwrap();
            assert!(t >= prev, "rber {rber:e}: t = {t}");
            prev = t;
        }
    }

    #[test]
    fn required_t_none_beyond_ceiling() {
        assert_eq!(required_t(32768, 16, 0.05, 1e-11, 3, 65), None);
    }

    #[test]
    fn dv_end_of_life_needs_t14() {
        // The paper's "tMAX = 14 for ISPP-DV".
        let rber_dv_eol = 1.0e-3 / 11.5;
        assert_eq!(required_t(32768, 16, rber_dv_eol, 1e-11, 3, 65), Some(14));
    }

    #[test]
    fn uber_decreases_steeply_with_t() {
        let rber = 1e-4;
        let n = |t: u32| 32768 + 16 * t as usize;
        let u10 = log10_uber(n(10), 10, rber);
        let u20 = log10_uber(n(20), 20, rber);
        let u40 = log10_uber(n(40), 40, rber);
        assert!(u20 < u10 - 5.0);
        assert!(u40 < u20 - 10.0);
    }

    #[test]
    fn uber_increases_with_rber() {
        let n = 33808;
        let a = log10_uber(n, 65, 1e-4);
        let b = log10_uber(n, 65, 5e-4);
        let c = log10_uber(n, 65, 1e-3);
        assert!(a < b && b < c);
    }

    #[test]
    fn linear_uber_usable_in_plot_range() {
        let u = uber(32816, 3, 1.5e-6);
        assert!(u > 1e-13 && u < 1e-10, "u = {u:e}");
    }

    #[test]
    #[should_panic(expected = "rber must be a probability")]
    fn rejects_bad_rber() {
        log10_uber(1000, 1, 1.5);
    }
}
