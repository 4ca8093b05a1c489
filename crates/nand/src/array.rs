//! Monte-Carlo array simulation: whole-page programming with variability.
//!
//! This is the "array simulation capability" of the paper's compact model:
//! it programs a page-wide vector of cells through the actual ISPP
//! engines, reads it back against the R1-R3 references and measures the
//! raw bit error rate — validating the crate's analytic RBER model
//! and exposing the distribution statistics (Fig. 5's inputs).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::aging::AgingModel;
use crate::ispp::{IsppConfig, IsppEngine, ProgramAlgorithm};
use crate::levels::{MlcLevel, ThresholdSpec};
use crate::rber::sigma_for_rber;
use crate::variability::VariabilityModel;

/// Distribution statistics of one programmed level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// The level.
    pub level: MlcLevel,
    /// Number of cells targeted at the level.
    pub cells: usize,
    /// Mean threshold voltage, volts.
    pub mean_v: f64,
    /// Threshold standard deviation, volts.
    pub sigma_v: f64,
}

/// Result of one Monte-Carlo page experiment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PageExperiment {
    /// Bit errors found on read-back.
    pub bit_errors: usize,
    /// Total data bits in the page (2 per cell).
    pub total_bits: usize,
    /// Per-level statistics.
    pub levels: Vec<LevelStats>,
    /// Program pulses used.
    pub pulses: u32,
    /// Program duration, seconds.
    pub duration_s: f64,
}

/// Monte-Carlo simulator of page-wide program/read cycles.
///
/// # Example
///
/// ```
/// use mlcx_nand::array::ArraySimulator;
/// use mlcx_nand::ProgramAlgorithm;
///
/// let sim = ArraySimulator::date2012();
/// // One end-of-life ISPP-DV page of 4096 cells: errors exist but are
/// // rare.
/// let rber = sim.measure_rber(ProgramAlgorithm::IsppDv, 1_000_000, 1, 4096, 42);
/// assert!(rber < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct ArraySimulator {
    engine: IsppEngine,
    aging: AgingModel,
    variability: VariabilityModel,
}

impl ArraySimulator {
    /// The paper's configuration.
    pub fn date2012() -> Self {
        ArraySimulator::new(
            IsppConfig::date2012(),
            ThresholdSpec::date2012(),
            VariabilityModel::date2012(),
            AgingModel::date2012(),
        )
    }

    /// Builds a simulator from explicit parameter sets.
    pub fn new(
        config: IsppConfig,
        spec: ThresholdSpec,
        variability: VariabilityModel,
        aging: AgingModel,
    ) -> Self {
        ArraySimulator {
            engine: IsppEngine::new(config, spec, variability),
            aging,
            variability,
        }
    }

    /// The ISPP engine in use.
    pub fn engine(&self) -> &IsppEngine {
        &self.engine
    }

    /// The aging sigma the wear level adds for this algorithm, derived by
    /// inverting the analytic RBER model at the target lifetime RBER.
    pub(crate) fn aging_sigma_v(&self, algorithm: ProgramAlgorithm, cycles: u64) -> f64 {
        let target_rber = self.aging.rber(algorithm, cycles);
        let step = algorithm.placement_step_v(self.engine.config());
        // The verify ratchet biases passing cells upward by ~0.8 sigma of
        // the (step-scaled) injection noise; the inversion must see the
        // same means the Monte-Carlo engine produces.
        let ratchet = 0.8 * self.variability.injection_sigma_v(step);
        let target_sigma = sigma_for_rber(self.engine.spec(), step, ratchet, target_rber);
        self.variability.aging_sigma_v(step, target_sigma)
    }

    /// Programs one page of `cells` random-data cells at the given wear
    /// level and reads it back; deterministic in `seed`.
    pub(crate) fn run_page(
        &self,
        algorithm: ProgramAlgorithm,
        cycles: u64,
        cells: usize,
        seed: u64,
    ) -> PageExperiment {
        let mut rng = StdRng::seed_from_u64(seed);
        let targets: Vec<MlcLevel> = (0..cells)
            .map(|_| MlcLevel::from_index(rng.random_range(0..4)))
            .collect();
        let mut page = self.engine.erased_page(&targets, &mut rng);
        let aging_sigma = self.aging_sigma_v(algorithm, cycles);
        let run = self
            .engine
            .program(&mut page, algorithm, aging_sigma, &mut rng);

        // Read back against the read references and count Gray-bit errors.
        let spec = self.engine.spec();
        let mut bit_errors = 0usize;
        for (cell, &target) in page.iter().zip(&targets) {
            let read = spec.classify(cell.vth());
            bit_errors += ThresholdSpec::bit_errors_between(target, read) as usize;
        }

        let levels = MlcLevel::ALL
            .iter()
            .map(|&level| {
                let vths: Vec<f64> = page
                    .iter()
                    .zip(&targets)
                    .filter(|(_, &t)| t == level)
                    .map(|(c, _)| c.vth())
                    .collect();
                let n = vths.len().max(1) as f64;
                let mean = vths.iter().sum::<f64>() / n;
                let sigma = (vths.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
                LevelStats {
                    level,
                    cells: vths.len(),
                    mean_v: mean,
                    sigma_v: sigma,
                }
            })
            .collect();

        PageExperiment {
            bit_errors,
            total_bits: 2 * cells,
            levels,
            pulses: run.pulses,
            duration_s: run.duration_s,
        }
    }

    /// Measures RBER over `pages` pages of `cells_per_page` cells each.
    pub fn measure_rber(
        &self,
        algorithm: ProgramAlgorithm,
        cycles: u64,
        pages: usize,
        cells_per_page: usize,
        seed: u64,
    ) -> f64 {
        let mut errors = 0usize;
        let mut bits = 0usize;
        for p in 0..pages {
            let exp = self.run_page(algorithm, cycles, cells_per_page, seed ^ (p as u64) << 17);
            errors += exp.bit_errors;
            bits += exp.total_bits;
        }
        errors as f64 / bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dv_distributions_tighter_than_sv() {
        let sim = ArraySimulator::date2012();
        let sv = sim.run_page(ProgramAlgorithm::IsppSv, 1, 4096, 9);
        let dv = sim.run_page(ProgramAlgorithm::IsppDv, 1, 4096, 9);
        for (s, d) in sv.levels.iter().zip(&dv.levels).skip(1) {
            assert!(
                d.sigma_v < s.sigma_v,
                "{}: DV {:.4} vs SV {:.4}",
                s.level,
                d.sigma_v,
                s.sigma_v
            );
        }
    }

    #[test]
    fn measured_rber_matches_analytic_curve_at_end_of_life() {
        // At EOL the SV RBER (1e-3) is large enough to measure on a few
        // hundred thousand bits.
        let sim = ArraySimulator::date2012();
        let target = AgingModel::date2012().rber(ProgramAlgorithm::IsppSv, 1_000_000);
        let measured = sim.measure_rber(ProgramAlgorithm::IsppSv, 1_000_000, 24, 8192, 4);
        let ratio = measured / target;
        assert!(
            (0.5..2.0).contains(&ratio),
            "measured {measured:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn rber_grows_with_wear_in_monte_carlo() {
        let sim = ArraySimulator::date2012();
        let mid = sim.measure_rber(ProgramAlgorithm::IsppSv, 100_000, 12, 8192, 21);
        let old = sim.measure_rber(ProgramAlgorithm::IsppSv, 1_000_000, 12, 8192, 21);
        assert!(old > mid, "old {old:.3e} vs mid {mid:.3e}");
    }

    #[test]
    fn dv_beats_sv_at_equal_wear() {
        let sim = ArraySimulator::date2012();
        let sv = sim.measure_rber(ProgramAlgorithm::IsppSv, 1_000_000, 16, 8192, 33);
        let dv = sim.measure_rber(ProgramAlgorithm::IsppDv, 1_000_000, 16, 8192, 33);
        assert!(
            dv < sv,
            "DV must be more reliable: dv {dv:.3e} vs sv {sv:.3e}"
        );
    }

    #[test]
    fn aging_sigma_monotone_in_cycles() {
        let sim = ArraySimulator::date2012();
        let s1 = sim.aging_sigma_v(ProgramAlgorithm::IsppSv, 1_000);
        let s2 = sim.aging_sigma_v(ProgramAlgorithm::IsppSv, 1_000_000);
        assert!(s2 > s1);
    }

    #[test]
    fn experiment_reports_consistent_totals() {
        let sim = ArraySimulator::date2012();
        let exp = sim.run_page(ProgramAlgorithm::IsppSv, 1000, 1024, 1);
        assert_eq!(exp.total_bits, 2048);
        let level_cells: usize = exp.levels.iter().map(|l| l.cells).sum();
        assert_eq!(level_cells, 1024);
        assert!(exp.bit_errors * 2 < exp.total_bits);
    }
}
