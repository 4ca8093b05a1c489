//! Lifetime (Program/Erase cycling) model — the paper's Fig. 5 curves.
//!
//! RBER as a function of P/E cycles is the *measured input* of the
//! cross-layer framework. Our curves are power laws in cycle count
//! (straight lines on the paper's log-log Fig. 5) anchored to the working
//! points the paper's Fig. 7 / Section 6.2 pin down exactly:
//!
//! * fresh memory: the adaptive ECC's minimum `t = 3` suffices, i.e.
//!   RBER(100 cycles) <= 1.64e-6 (the eq.-1 bound for t = 3 at
//!   UBER = 1e-11);
//! * ISPP-SV at 1e6 cycles needs `t = 65`: RBER = 1.00e-3;
//! * ISPP-DV at 1e6 cycles needs `t = 14`: RBER = 8.72e-5 — which also
//!   fixes the SV/DV gap at 11.5x, the paper's "one order of magnitude".
//!
//! (Those eq.-1 bounds reproduce the paper's Fig. 7 x-ticks to three
//! digits — 2.776e-4 for t = 27 vs. the printed 2.75e-4, 1.0028e-3 for
//! t = 65 vs. the printed 1e-3 — strong evidence this is the calibration
//! the authors used.)

use crate::ispp::ProgramAlgorithm;

/// Lifetime RBER model for both program algorithms.
///
/// # Example
///
/// ```
/// use mlcx_nand::{AgingModel, ProgramAlgorithm};
///
/// let aging = AgingModel::date2012();
/// let sv = aging.rber(ProgramAlgorithm::IsppSv, 1_000_000);
/// let dv = aging.rber(ProgramAlgorithm::IsppDv, 1_000_000);
/// // Fig. 5: about one order of magnitude apart at end of life.
/// assert!(sv / dv > 8.0 && sv / dv < 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingModel {
    /// ISPP-SV RBER at the fresh anchor.
    pub rber_sv_fresh: f64,
    /// ISPP-SV RBER at the end-of-life anchor.
    pub rber_sv_eol: f64,
    /// Cycle count of the fresh anchor.
    pub fresh_cycles: f64,
    /// Cycle count of the end-of-life anchor.
    pub eol_cycles: f64,
    /// Multiplicative RBER improvement of ISPP-DV over ISPP-SV.
    pub dv_improvement: f64,
}

impl AgingModel {
    /// The calibration derived from the paper's eq. (1) working points.
    pub fn date2012() -> Self {
        AgingModel {
            rber_sv_fresh: 1.5e-6,
            rber_sv_eol: 1.0e-3,
            fresh_cycles: 1e2,
            eol_cycles: 1e6,
            dv_improvement: 11.5,
        }
    }

    /// Raw bit error rate after `cycles` program/erase cycles.
    ///
    /// Power law between the anchors, extrapolated smoothly on both
    /// sides; cycle counts below 1 are clamped to 1.
    pub fn rber(&self, algorithm: ProgramAlgorithm, cycles: u64) -> f64 {
        let c = (cycles.max(1)) as f64;
        let slope = (self.rber_sv_eol / self.rber_sv_fresh).ln()
            / (self.eol_cycles / self.fresh_cycles).ln();
        let sv = self.rber_sv_fresh * (c / self.fresh_cycles).powf(slope);
        match algorithm {
            ProgramAlgorithm::IsppSv => sv,
            ProgramAlgorithm::IsppDv => sv / self.dv_improvement,
        }
    }

    /// Logarithmically spaced cycle points for lifetime sweeps
    /// (`points_per_decade` samples per decade from `start` to `end`).
    pub fn lifetime_grid(start: u64, end: u64, points_per_decade: usize) -> Vec<u64> {
        assert!(start >= 1 && end > start && points_per_decade >= 1);
        let decades = (end as f64 / start as f64).log10();
        let total = (decades * points_per_decade as f64).ceil() as usize;
        let mut grid: Vec<u64> = (0..=total)
            .map(|i| {
                let exp = (start as f64).log10() + decades * i as f64 / total as f64;
                10f64.powf(exp).round() as u64
            })
            .collect();
        grid.dedup();
        grid
    }
}

impl Default for AgingModel {
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_respected() {
        let a = AgingModel::date2012();
        let fresh = a.rber(ProgramAlgorithm::IsppSv, 100);
        let eol = a.rber(ProgramAlgorithm::IsppSv, 1_000_000);
        assert!((fresh - 1.5e-6).abs() / 1.5e-6 < 1e-9);
        assert!((eol - 1.0e-3).abs() / 1.0e-3 < 1e-9);
    }

    #[test]
    fn dv_anchor_matches_t14_bound() {
        let a = AgingModel::date2012();
        let dv_eol = a.rber(ProgramAlgorithm::IsppDv, 1_000_000);
        // 8.722e-5 is the eq.-1 RBER bound for t = 14 at UBER 1e-11.
        assert!(
            (dv_eol - 8.7e-5).abs() / 8.7e-5 < 0.01,
            "dv_eol = {dv_eol:e}"
        );
    }

    #[test]
    fn rber_monotone_in_cycles() {
        let a = AgingModel::date2012();
        for alg in [ProgramAlgorithm::IsppSv, ProgramAlgorithm::IsppDv] {
            let mut prev = 0.0;
            for c in [1u64, 10, 100, 1_000, 100_000, 1_000_000] {
                let r = a.rber(alg, c);
                assert!(r > prev, "{alg:?} at {c}: {r}");
                prev = r;
            }
        }
    }

    #[test]
    fn log_log_linearity() {
        // Power law: equal ratios per decade.
        let a = AgingModel::date2012();
        let r1 = a.rber(ProgramAlgorithm::IsppSv, 1_000);
        let r2 = a.rber(ProgramAlgorithm::IsppSv, 10_000);
        let r3 = a.rber(ProgramAlgorithm::IsppSv, 100_000);
        assert!((r2 / r1 - r3 / r2).abs() / (r2 / r1) < 1e-9);
    }

    #[test]
    fn zero_cycles_clamped() {
        let a = AgingModel::date2012();
        assert_eq!(
            a.rber(ProgramAlgorithm::IsppSv, 0),
            a.rber(ProgramAlgorithm::IsppSv, 1)
        );
    }

    #[test]
    fn lifetime_grid_spans_decades() {
        let grid = AgingModel::lifetime_grid(1, 1_000_000, 4);
        assert_eq!(*grid.first().unwrap(), 1);
        assert_eq!(*grid.last().unwrap(), 1_000_000);
        assert!(grid.len() >= 24);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
    }
}
