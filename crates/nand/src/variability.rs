//! Variability effects of nanoscaled NAND cells.
//!
//! The paper's compact model "includes variability effects typical of
//! nanoscaled memories": geometrical W/L variation, tunnel-oxide and
//! doping non-homogeneity, injection granularity (electron shot noise),
//! cell-to-cell interference and Program/Erase aging. This module lumps
//! them into the standard deviations that broaden each programmed
//! threshold-voltage distribution, and provides the Gaussian sampler the
//! Monte-Carlo array simulation draws from.

use rand::RngExt;

/// Samples a normal deviate via Box-Muller (no external distribution
/// crate needed).
pub(crate) fn sample_normal<R: RngExt + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.random();
    let u2: f64 = rng.random();
    let radius = (-2.0 * (1.0 - u1).max(1e-300).ln()).sqrt();
    mean + sigma * radius * (std::f64::consts::TAU * u2).cos()
}

/// Lumped variability parameters of the 45 nm cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariabilityModel {
    /// Spread of the per-cell gate-to-threshold offset ("fast" vs "slow"
    /// cells), volts. Driven by W/L geometry and doping variation.
    pub sigma_offset_v: f64,
    /// Injection granularity: shot noise of the electrons injected at the
    /// final placement pulse, volts.
    pub sigma_injection_v: f64,
    /// Residual cell-to-cell interference after neighbours finish
    /// programming, expressed as a threshold-voltage sigma, volts.
    pub sigma_ctc_v: f64,
    /// Static geometric/oxide contribution to the read margin, volts.
    pub sigma_geometry_v: f64,
    /// Mean of the per-cell gate-to-threshold offset, volts (where the
    /// ISPP staircase "lands" on the VTH axis).
    pub offset_mean_v: f64,
    /// The full `delta_ISPP` the injection-noise figure is referenced to:
    /// shot noise scales with the injected charge packet, so a placement
    /// step of `s` carries `sigma_injection_v * sqrt(s / reference)`.
    pub reference_step_v: f64,
}

impl VariabilityModel {
    /// The 45 nm calibration.
    pub fn date2012() -> Self {
        VariabilityModel {
            sigma_offset_v: 0.35,
            sigma_injection_v: 0.10,
            sigma_ctc_v: 0.064,
            sigma_geometry_v: 0.06,
            offset_mean_v: 13.8,
            reference_step_v: 0.25,
        }
    }

    /// Injection (shot) noise sigma for a placement step of
    /// `placement_step_v` — scaled by the square root of the charge
    /// packet ratio.
    pub(crate) fn injection_sigma_v(&self, placement_step_v: f64) -> f64 {
        self.sigma_injection_v * (placement_step_v / self.reference_step_v).sqrt()
    }

    /// Width of a *fresh* programmed distribution when the effective
    /// placement step is `placement_step_v`: the quadrature sum of the
    /// uniform verify-overshoot (`step / sqrt(12)`), injection noise,
    /// cell-to-cell interference and geometric terms.
    pub(crate) fn base_sigma_v(&self, placement_step_v: f64) -> f64 {
        let overshoot = placement_step_v / 12f64.sqrt();
        let injection = self.injection_sigma_v(placement_step_v);
        (overshoot * overshoot
            + injection * injection
            + self.sigma_ctc_v * self.sigma_ctc_v
            + self.sigma_geometry_v * self.sigma_geometry_v)
            .sqrt()
    }

    /// Additional sigma aging must contribute (in quadrature) for the
    /// total width to reach `target_sigma_v`; zero when the fresh width
    /// already exceeds the target.
    pub(crate) fn aging_sigma_v(&self, placement_step_v: f64, target_sigma_v: f64) -> f64 {
        let base = self.base_sigma_v(placement_step_v);
        (target_sigma_v * target_sigma_v - base * base)
            .max(0.0)
            .sqrt()
    }
}

impl Default for VariabilityModel {
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampler_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = sample_normal(&mut rng, 1.5, 0.4);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 1.5).abs() < 0.01, "mean = {mean}");
        assert!((var.sqrt() - 0.4).abs() < 0.01, "sigma = {}", var.sqrt());
    }

    #[test]
    fn base_sigma_combines_in_quadrature() {
        let var = VariabilityModel::date2012();
        let s = var.base_sigma_v(0.25);
        // Must exceed each single component and stay below their sum.
        assert!(s > var.sigma_injection_v);
        assert!(s < 0.25 + var.sigma_injection_v + var.sigma_ctc_v + var.sigma_geometry_v);
        // SV (0.25 V step) vs DV fine step (0.08 V): narrower for DV.
        assert!(var.base_sigma_v(0.08) < s);
    }

    #[test]
    fn aging_sigma_closes_the_gap() {
        let var = VariabilityModel::date2012();
        let base = var.base_sigma_v(0.25);
        let target = base * 1.5;
        let age = var.aging_sigma_v(0.25, target);
        let total = (base * base + age * age).sqrt();
        assert!((total - target).abs() < 1e-12);
        // Already-wider-than-target: no negative aging.
        assert_eq!(var.aging_sigma_v(0.25, base * 0.5), 0.0);
    }
}
