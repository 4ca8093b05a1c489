//! Analytic raw-bit-error-rate model (Gaussian mixture over read levels).
//!
//! Given the four threshold-voltage distributions and the read references,
//! the raw bit error rate is the probability that a cell is classified
//! into the wrong read bin, weighted by the number of Gray-coded bits the
//! misclassification corrupts, averaged over uniformly distributed data.
//! This is the fast, deterministic path the figure generators use; the
//! Monte-Carlo array simulation ([`crate::array`]) validates it.

use crate::levels::{MlcLevel, ThresholdSpec};
use crate::math::q_function;

/// The four threshold-voltage distributions of a programmed page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DistributionSet {
    /// Means of L0..L3, volts.
    pub means: [f64; 4],
    /// Standard deviations of L0..L3, volts.
    pub sigmas: [f64; 4],
}

impl DistributionSet {
    /// Builds the distribution set of a page programmed with placement
    /// step `placement_step_v` and programmed-level sigma `sigma_v`.
    ///
    /// Programmed means sit half an overshoot step above their verify
    /// level (cells stop on the first pulse that crosses VFY), plus the
    /// verify-selection "ratchet" `ratchet_v`: injection noise only lets
    /// a cell pass when it lands *above* VFY, biasing the surviving
    /// population upward by roughly `0.8 * sigma_injection`. The erased
    /// distribution comes from the spec.
    pub(crate) fn programmed(
        spec: &ThresholdSpec,
        placement_step_v: f64,
        ratchet_v: f64,
        sigma_v: f64,
    ) -> Self {
        let shift = 0.5 * placement_step_v + ratchet_v;
        DistributionSet {
            means: [
                spec.erased_mean_v,
                spec.verify_v[0] + shift,
                spec.verify_v[1] + shift,
                spec.verify_v[2] + shift,
            ],
            sigmas: [spec.erased_sigma_v, sigma_v, sigma_v, sigma_v],
        }
    }

    /// Probability mass of distribution `level` falling into the read
    /// bin that senses as `bin` (bins delimited by R1..R3).
    pub(crate) fn mass_in_bin(&self, spec: &ThresholdSpec, level: MlcLevel, bin: MlcLevel) -> f64 {
        let mu = self.means[level.index()];
        let sigma = self.sigmas[level.index()];
        // Upper-tail probabilities beyond each read boundary.
        let tail = |boundary: f64| q_function((boundary - mu) / sigma);
        match bin {
            MlcLevel::L0 => 1.0 - tail(spec.read_v[0]),
            MlcLevel::L1 => tail(spec.read_v[0]) - tail(spec.read_v[1]),
            MlcLevel::L2 => tail(spec.read_v[1]) - tail(spec.read_v[2]),
            MlcLevel::L3 => tail(spec.read_v[2]),
        }
    }

    /// Raw bit error rate under uniformly distributed data.
    pub(crate) fn rber(&self, spec: &ThresholdSpec) -> f64 {
        let mut expected_bit_errors = 0.0;
        for level in MlcLevel::ALL {
            for bin in MlcLevel::ALL {
                if bin == level {
                    continue;
                }
                let mass = self.mass_in_bin(spec, level, bin).max(0.0);
                let bits = ThresholdSpec::bit_errors_between(level, bin);
                expected_bit_errors += 0.25 * mass * bits as f64;
            }
        }
        // Two stored bits per cell.
        expected_bit_errors / 2.0
    }
}

/// Inverts the RBER model: the programmed-level sigma that produces
/// `target_rber` for the given spec and placement step.
///
/// Used to calibrate the aging law against the lifetime RBER anchors
/// (the compact-model equivalent of fitting silicon measurements).
///
/// # Panics
///
/// Panics if `target_rber` is outside the invertible range
/// (approximately `1e-15 .. 1e-1` for the date-2012 spec).
pub(crate) fn sigma_for_rber(
    spec: &ThresholdSpec,
    placement_step_v: f64,
    ratchet_v: f64,
    target_rber: f64,
) -> f64 {
    let eval = |sigma: f64| {
        DistributionSet::programmed(spec, placement_step_v, ratchet_v, sigma).rber(spec)
    };
    let (mut lo, mut hi) = (0.02f64, 1.2f64);
    assert!(
        eval(lo) < target_rber && eval(hi) > target_rber,
        "target RBER {target_rber:e} outside the invertible sigma range"
    );
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if eval(mid) < target_rber {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ThresholdSpec {
        ThresholdSpec::date2012()
    }

    #[test]
    fn masses_sum_to_one() {
        let set = DistributionSet::programmed(&spec(), 0.25, 0.0, 0.15);
        for level in MlcLevel::ALL {
            let total: f64 = MlcLevel::ALL
                .iter()
                .map(|&b| set.mass_in_bin(&spec(), level, b))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "level {level}: {total}");
        }
    }

    #[test]
    fn dominant_mass_in_own_bin() {
        let set = DistributionSet::programmed(&spec(), 0.25, 0.0, 0.15);
        for level in MlcLevel::ALL {
            let own = set.mass_in_bin(&spec(), level, level);
            assert!(own > 0.99, "level {level}: {own}");
        }
    }

    #[test]
    fn rber_monotone_in_sigma() {
        let s = spec();
        let mut prev = 0.0;
        for sigma in [0.10, 0.14, 0.18, 0.22, 0.26] {
            let r = DistributionSet::programmed(&s, 0.25, 0.0, sigma).rber(&s);
            assert!(r > prev, "sigma {sigma}: {r}");
            prev = r;
        }
    }

    #[test]
    fn rber_in_paper_band_for_plausible_sigmas() {
        // The lifetime sigma range must map onto the paper's RBER range
        // (~1e-6 fresh .. ~1e-3 end-of-life).
        let s = spec();
        let fresh = DistributionSet::programmed(&s, 0.25, 0.0, 0.14).rber(&s);
        let old = DistributionSet::programmed(&s, 0.25, 0.0, 0.24).rber(&s);
        assert!(fresh > 1e-8 && fresh < 1e-4, "fresh = {fresh:e}");
        assert!(old > 1e-4 && old < 1e-2, "old = {old:e}");
    }

    #[test]
    fn sigma_inversion_round_trip() {
        let s = spec();
        for target in [1e-6, 1e-4, 1e-3] {
            let sigma = sigma_for_rber(&s, 0.25, 0.08, target);
            let back = DistributionSet::programmed(&s, 0.25, 0.08, sigma).rber(&s);
            assert!(
                (back - target).abs() / target < 1e-3,
                "target {target:e} -> sigma {sigma} -> {back:e}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside the invertible sigma range")]
    fn sigma_inversion_rejects_absurd_targets() {
        sigma_for_rber(&spec(), 0.25, 0.0, 1e-30);
    }

    #[test]
    fn erased_level_contributes_negligibly() {
        // The L0 band sits ~6 sigma below R1: its misreads must be orders
        // below the total RBER.
        let s = spec();
        let set = DistributionSet::programmed(&s, 0.25, 0.0, 0.18);
        let l0_leak: f64 = MlcLevel::ALL[1..]
            .iter()
            .map(|&b| set.mass_in_bin(&s, MlcLevel::L0, b))
            .sum();
        assert!(l0_leak < 0.01 * set.rber(&s), "L0 leak = {l0_leak:e}");
    }
}
