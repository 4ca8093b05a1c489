//! Numeric helpers: complementary error function and Gaussian tails.

/// Complementary error function, fractional accuracy ~1.2e-7 everywhere
/// (Chebyshev fit, Numerical Recipes "erfcc"). Relative — not absolute —
/// accuracy is what the deep-tail RBER/UBER computations need.
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Upper-tail probability of the standard normal, `Q(x) = P(Z > x)`.
pub(crate) fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_points() {
        // erfc(0) = 1, erfc(inf) -> 0, erfc(-x) = 2 - erfc(x).
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(6.0) < 1e-15);
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-12);
        // erfc(1) = 0.15729920705...
        assert!((erfc(1.0) - 0.157_299_207).abs() < 1e-7);
    }

    #[test]
    fn q_function_known_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-6);
        // Q(1.6449) ~ 0.05, Q(3.0902) ~ 1e-3, Q(4.7534) ~ 1e-6.
        assert!((q_function(1.6449) - 0.05).abs() / 0.05 < 1e-3);
        assert!((q_function(3.0902) - 1e-3).abs() / 1e-3 < 1e-3);
        assert!((q_function(4.7534) - 1e-6).abs() / 1e-6 < 1e-3);
    }
}
