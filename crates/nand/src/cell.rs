//! Single floating-gate cell under ISPP programming.

use crate::levels::MlcLevel;

/// Programming state of a cell within one ISPP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellPhase {
    /// Still receiving full-strength pulses.
    Programming,
    /// Passed the DV pre-verify: bit-line bias brakes further injection.
    Fine,
    /// Passed its verify level: excluded from further pulses
    /// (program-inhibition).
    Inhibited,
}

/// One floating-gate MOS cell.
///
/// The ISPP staircase response follows the standard compact description:
/// in steady state the threshold tracks the control-gate staircase at a
/// per-cell offset, so each pulse either leaves VTH unchanged (slow cell,
/// still below its asymptote) or advances it by up to one effective step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    vth: f64,
    offset_v: f64,
    target: MlcLevel,
    phase: CellPhase,
}

impl Cell {
    /// A cell in the erased state at `vth`, with its per-cell ISPP offset
    /// and programming target.
    pub(crate) fn new(vth: f64, offset_v: f64, target: MlcLevel) -> Self {
        Cell {
            vth,
            offset_v,
            target,
            phase: if target == MlcLevel::L0 {
                // Erased target: nothing to program, inhibited from the start.
                CellPhase::Inhibited
            } else {
                CellPhase::Programming
            },
        }
    }

    /// Current threshold voltage, volts.
    pub fn vth(&self) -> f64 {
        self.vth
    }

    /// The programming target level.
    pub(crate) fn target(&self) -> MlcLevel {
        self.target
    }

    /// Current programming phase.
    pub(crate) fn phase(&self) -> CellPhase {
        self.phase
    }

    /// `true` once the cell is excluded from further pulses.
    pub(crate) fn is_inhibited(&self) -> bool {
        self.phase == CellPhase::Inhibited
    }

    /// Applies one program pulse at gate voltage `vcg`.
    ///
    /// `fine_step_v` caps the per-pulse threshold advance of cells in
    /// [`CellPhase::Fine`]: the DV bit-line bias reduces the tunnelling
    /// drive, so braked cells creep toward the staircase asymptote in
    /// fine increments instead of full `delta_ISPP` steps — this is what
    /// compacts the final distribution. `injection_noise_v` is the
    /// sampled shot-noise for this pulse. Inhibited cells are unaffected.
    /// Returns the threshold shift produced by the pulse.
    pub(crate) fn apply_pulse(
        &mut self,
        vcg: f64,
        fine_step_v: f64,
        injection_noise_v: f64,
    ) -> f64 {
        if self.phase == CellPhase::Inhibited {
            return 0.0;
        }
        let asymptote = vcg - self.offset_v;
        if asymptote > self.vth {
            let old = self.vth;
            let advance = asymptote - self.vth;
            let capped = if self.phase == CellPhase::Fine {
                advance.min(fine_step_v)
            } else {
                advance
            };
            // Injection granularity perturbs the landing point.
            self.vth = old + capped + injection_noise_v;
            self.vth - old
        } else {
            0.0
        }
    }

    /// Verify against `level_v`: inhibits the cell when VTH has passed.
    /// Returns `true` if the cell passed.
    pub(crate) fn verify(&mut self, level_v: f64) -> bool {
        if self.phase == CellPhase::Inhibited {
            return true;
        }
        if self.vth >= level_v {
            self.phase = CellPhase::Inhibited;
            true
        } else {
            false
        }
    }

    /// DV pre-verify against `level_v`: switches a passing cell into the
    /// fine (braked) placement mode.
    pub(crate) fn pre_verify(&mut self, level_v: f64) {
        if self.phase == CellPhase::Programming && self.vth >= level_v {
            self.phase = CellPhase::Fine;
        }
    }

    /// Adds a post-program disturbance (cell-to-cell interference, aging
    /// noise) to the stored threshold.
    pub(crate) fn disturb(&mut self, delta_v: f64) {
        self.vth += delta_v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erased_target_starts_inhibited() {
        let cell = Cell::new(-2.8, 13.3, MlcLevel::L0);
        assert!(cell.is_inhibited());
    }

    #[test]
    fn staircase_tracks_gate_voltage() {
        let mut cell = Cell::new(-2.8, 13.0, MlcLevel::L3);
        let mut prev = cell.vth();
        for step in 0..10 {
            let vcg = 14.0 + 0.25 * step as f64;
            cell.apply_pulse(vcg, 0.0, 0.0);
            assert!(cell.vth() >= prev);
            prev = cell.vth();
        }
        // In steady state the per-pulse shift equals the step.
        let before = cell.vth();
        cell.apply_pulse(14.0 + 0.25 * 10.0, 0.0, 0.0);
        assert!((cell.vth() - before - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pulse_below_asymptote_does_nothing() {
        let mut cell = Cell::new(3.0, 13.0, MlcLevel::L3);
        let shift = cell.apply_pulse(14.0, 0.0, 0.0); // asymptote = 1.0 < 3.0
        assert_eq!(shift, 0.0);
        assert_eq!(cell.vth(), 3.0);
    }

    #[test]
    fn verify_inhibits_and_freezes() {
        let mut cell = Cell::new(-2.8, 13.0, MlcLevel::L1);
        cell.apply_pulse(14.5, 0.0, 0.0); // vth = 1.5
        assert!(cell.verify(1.0));
        assert!(cell.is_inhibited());
        let vth = cell.vth();
        cell.apply_pulse(19.0, 0.0, 0.0);
        assert_eq!(cell.vth(), vth, "inhibited cells must not move");
    }

    #[test]
    fn fine_mode_caps_the_per_pulse_advance() {
        let mut fast = Cell::new(-2.8, 13.0, MlcLevel::L2);
        let mut braked = Cell::new(-2.8, 13.0, MlcLevel::L2);
        braked.pre_verify(-3.0); // trivially passes: enters fine mode
        assert_eq!(braked.phase(), CellPhase::Fine);
        fast.apply_pulse(15.0, 0.08, 0.0);
        braked.apply_pulse(15.0, 0.08, 0.0);
        // Full-strength cell jumps to the asymptote; braked cell creeps.
        assert!((fast.vth() - 2.0).abs() < 1e-12);
        assert!((braked.vth() - (-2.8 + 0.08)).abs() < 1e-12);
        // Repeated fine pulses converge on the asymptote without
        // overshooting by more than one fine step.
        for _ in 0..80 {
            braked.apply_pulse(15.0, 0.08, 0.0);
        }
        assert!(braked.vth() <= 2.0 + 1e-12);
        assert!(braked.vth() > 2.0 - 0.08 - 1e-12);
    }

    #[test]
    fn pre_verify_below_threshold_keeps_programming() {
        let mut cell = Cell::new(-2.8, 13.0, MlcLevel::L2);
        cell.pre_verify(2.1);
        assert_eq!(cell.phase(), CellPhase::Programming);
    }

    #[test]
    fn disturb_shifts_threshold() {
        let mut cell = Cell::new(1.0, 13.0, MlcLevel::L1);
        cell.disturb(0.05);
        assert!((cell.vth() - 1.05).abs() < 1e-12);
        cell.disturb(-0.1);
        assert!((cell.vth() - 0.95).abs() < 1e-12);
    }
}
