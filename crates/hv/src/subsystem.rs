//! The complete HV subsystem of the paper's 45 nm low-power device.

use crate::dickson::DicksonPump;
use crate::regulator::RegulatedPump;

/// The three charge pumps of the paper's HV module plus the array-level
/// load model, with phase-averaged power evaluation.
///
/// The array load constants stand in for the FlashPower-style equation set
/// (Mohan et al. \[25\]) the paper feeds its SPICE pump currents into: they
/// lump word-line/bit-line switching and sensing power, and are calibrated
/// so a full-page program lands in the 0.15-0.18 W band of Fig. 6.
///
/// # Example
///
/// ```
/// use mlcx_hv::HvSubsystem;
///
/// let hv = HvSubsystem::date2012();
/// // Verify phases are the power-hungry part (bit-line precharge +
/// // sensing) — the root of the ISPP-DV power penalty.
/// assert!(hv.verify_power_w() > hv.pulse_power_w(16.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HvSubsystem {
    /// 12-stage program pump (14-19 V ISPP pulses).
    pub program_pump: DicksonPump,
    /// 8-stage inhibit pump (8 V channel self-boosting).
    pub inhibit_pump: DicksonPump,
    /// 4-stage high-speed verify pump (4.5 V read-pass voltage).
    pub verify_pump: DicksonPump,
    /// Inhibit rail target, volts.
    pub inhibit_target_v: f64,
    /// Verify/read pass-voltage target, volts.
    pub verify_target_v: f64,
    /// Average load on the program pump during a pulse, amperes.
    pub program_load_a: f64,
    /// Average load on the inhibit pump during a pulse, amperes.
    pub inhibit_load_a: f64,
    /// Average load on the verify pump during verify/read, amperes.
    pub verify_load_a: f64,
    /// Array/periphery power during a program pulse (WL drivers, channel
    /// boosting) at the reference staircase voltage, watts.
    pub array_pulse_w: f64,
    /// Array/periphery power during verify/read (bit-line precharge and
    /// sensing), watts.
    pub array_verify_w: f64,
    /// Staircase voltage the array pulse power is referenced to, volts.
    pub array_pulse_v_ref: f64,
    /// Fraction of the array pulse power that scales quadratically with
    /// the staircase voltage (channel-boosting CV^2 component); the rest
    /// is voltage-independent periphery. This is what separates the
    /// L1/L2/L3 pattern curves of Fig. 6.
    pub array_pulse_quadratic_frac: f64,
}

impl HvSubsystem {
    /// The paper's configuration (45 nm, VDD = 1.8 V), calibrated to the
    /// Fig. 6 power band.
    pub fn date2012() -> Self {
        HvSubsystem {
            program_pump: DicksonPump::program_pump_45nm(),
            inhibit_pump: DicksonPump::inhibit_pump_45nm(),
            verify_pump: DicksonPump::verify_pump_45nm(),
            inhibit_target_v: 8.0,
            verify_target_v: 4.5,
            program_load_a: 0.30e-3,
            inhibit_load_a: 0.80e-3,
            verify_load_a: 2.0e-3,
            array_pulse_w: 0.105,
            array_verify_w: 0.163,
            array_pulse_v_ref: 16.5,
            array_pulse_quadratic_frac: 0.3,
        }
    }

    /// Closed-form regulated input power of one pump at `(target, load)`.
    fn regulated_power_w(pump: &DicksonPump, target_v: f64, load_a: f64) -> f64 {
        RegulatedPump::new(*pump, target_v).steady_state_power_w(load_a)
    }

    /// Supply power during a program pulse with the staircase at
    /// `pulse_target_v` (program + inhibit pumps running, plus the
    /// voltage-dependent array/boosting load).
    pub fn pulse_power_w(&self, pulse_target_v: f64) -> f64 {
        let ratio = pulse_target_v / self.array_pulse_v_ref;
        let array = self.array_pulse_w
            * ((1.0 - self.array_pulse_quadratic_frac)
                + self.array_pulse_quadratic_frac * ratio * ratio);
        Self::regulated_power_w(&self.program_pump, pulse_target_v, self.program_load_a)
            + Self::regulated_power_w(
                &self.inhibit_pump,
                self.inhibit_target_v,
                self.inhibit_load_a,
            )
            + array
    }

    /// Supply power during a Verify (threshold-voltage read) phase.
    pub fn verify_power_w(&self) -> f64 {
        Self::regulated_power_w(&self.verify_pump, self.verify_target_v, self.verify_load_a)
            + self.array_verify_w
    }

    /// Supply power during a page read — electrically the same biasing as
    /// a verify.
    pub(crate) fn read_power_w(&self) -> f64 {
        self.verify_power_w()
    }

    /// Supply power while an erase pulse holds the well at high voltage.
    ///
    /// The paper does not characterize erase; this uses the program pump
    /// at its ceiling with a block-level load, giving a plausible figure
    /// for device-level accounting.
    pub(crate) fn erase_power_w(&self) -> f64 {
        Self::regulated_power_w(&self.program_pump, 20.0, 2.0 * self.program_load_a)
            + self.array_pulse_w
    }
}

impl Default for HvSubsystem {
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_power_increases_along_the_staircase() {
        let hv = HvSubsystem::date2012();
        let mut prev = 0.0;
        for step in 0..=20 {
            let v = 14.0 + 0.25 * step as f64;
            let p = hv.pulse_power_w(v);
            assert!(p > prev, "power must rise with ISPP target ({v} V)");
            prev = p;
        }
    }

    #[test]
    fn phase_powers_in_fig6_band() {
        // Individual phases must straddle the 0.15-0.18 W operation band
        // so that pulse/verify mixes land inside it.
        let hv = HvSubsystem::date2012();
        let pulse = hv.pulse_power_w(16.5);
        let verify = hv.verify_power_w();
        assert!((0.12..0.16).contains(&pulse), "pulse = {pulse}");
        assert!((0.16..0.20).contains(&verify), "verify = {verify}");
        assert!(verify > pulse);
    }

    #[test]
    fn read_equals_verify_biasing() {
        let hv = HvSubsystem::date2012();
        assert_eq!(hv.read_power_w(), hv.verify_power_w());
    }

    #[test]
    fn erase_power_is_plausible() {
        // Erase holds the well from the program pump at its ceiling (no
        // inhibit pump): total power must stay in the device band.
        let hv = HvSubsystem::date2012();
        let p = hv.erase_power_w();
        assert!((0.12..0.20).contains(&p), "erase = {p}");
    }
}
