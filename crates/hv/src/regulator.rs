//! Hysteretic (bang-bang) pump regulation.
//!
//! The paper: "each pump generates a growing voltage ramp till the
//! regulation system shuts it down ... connecting a voltage divider in
//! feedback between the output of a charge pump and one input of a
//! differential amplifier ... The charge pump is then shut down when a
//! target voltage is reached and possibly restarted when the target
//! voltage drops below a reference level. This is the only viable solution
//! for an accurate control of the threshold voltages in a MLC NAND Flash
//! device."

use crate::dickson::DicksonPump;

/// The feedback comparator band of a pump regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HystereticRegulator {
    /// Regulation target at the pump output, volts.
    pub target_v: f64,
    /// Restart threshold is `target_v - hysteresis_v`.
    pub hysteresis_v: f64,
    /// Feedback divider ratio (output sensed as `V * ratio`); recorded for
    /// completeness of the analog description.
    pub divider_ratio: f64,
}

impl HystereticRegulator {
    /// A regulator for `target_v` with a band of 1 % of the target.
    pub(crate) fn for_target(target_v: f64) -> Self {
        HystereticRegulator {
            target_v,
            hysteresis_v: 0.01 * target_v,
            divider_ratio: 1.2 / target_v, // compare against a 1.2 V bandgap
        }
    }
}

/// A [`DicksonPump`] inside its regulation loop, stepped in discrete time.
///
/// Tracks the enable duty cycle and the energy drawn from the supply —
/// the two observables the power characterization (paper Fig. 6) needs.
///
/// # Example
///
/// ```
/// use mlcx_hv::{DicksonPump, RegulatedPump};
///
/// let mut pump = RegulatedPump::new(DicksonPump::inhibit_pump_45nm(), 8.0);
/// let report = pump.run_phase(5e-6, 0.2e-3);
/// assert!(report.mean_output_v > 7.8 && report.mean_output_v < 8.3);
/// assert!(report.duty_cycle > 0.0 && report.duty_cycle <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct RegulatedPump {
    pump: DicksonPump,
    regulator: HystereticRegulator,
    output_v: f64,
    enabled: bool,
    /// Integration step, seconds.
    dt_s: f64,
}

/// Aggregates of one regulated phase (see [`RegulatedPump::run_phase`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseReport {
    /// Mean output voltage over the phase.
    pub mean_output_v: f64,
    /// Fraction of the phase with the pump clock enabled.
    pub duty_cycle: f64,
    /// Energy drawn from the supply, joules.
    pub input_energy_j: f64,
    /// Phase duration, seconds.
    pub duration_s: f64,
}

impl PhaseReport {
    /// Mean supply power over the phase, watts.
    pub fn mean_power_w(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.input_energy_j / self.duration_s
        }
    }
}

impl RegulatedPump {
    /// Wraps `pump` with a regulator for `target_v`.
    ///
    /// The integration step adapts to the pump's output time constant
    /// (`R_out * C_out / 30`, capped at 10 ns) so the bang-bang ripple of
    /// fast, strongly-driven pumps stays resolved.
    pub fn new(pump: DicksonPump, target_v: f64) -> Self {
        let tau = pump.output_capacitance_f * pump.output_impedance_ohm();
        RegulatedPump {
            pump,
            regulator: HystereticRegulator::for_target(target_v),
            output_v: pump.supply_v,
            enabled: true,
            dt_s: (tau / 30.0).clamp(0.1e-9, 10e-9),
        }
    }

    /// The wrapped pump.
    pub fn pump(&self) -> &DicksonPump {
        &self.pump
    }

    /// The current regulation target.
    pub fn target_v(&self) -> f64 {
        self.regulator.target_v
    }

    /// Advances one integration step under `load_current_a`; returns the
    /// supply energy consumed in the step.
    pub fn step(&mut self, load_current_a: f64) -> f64 {
        // Comparator with hysteresis.
        if self.output_v >= self.regulator.target_v {
            self.enabled = false;
        } else if self.output_v < self.regulator.target_v - self.regulator.hysteresis_v {
            self.enabled = true;
        }
        let v_nl = self.pump.no_load_output_v();
        let r_out = self.pump.output_impedance_ohm();
        let pump_current = if self.enabled {
            ((v_nl - self.output_v) / r_out).max(0.0)
        } else {
            0.0
        };
        let energy = if self.enabled {
            self.pump.input_power_w(pump_current) * self.dt_s
        } else {
            0.0
        };
        let dv = (pump_current - load_current_a) / self.pump.output_capacitance_f * self.dt_s;
        self.output_v = (self.output_v + dv).max(0.0);
        energy
    }

    /// Runs a whole phase of `duration_s` under a constant load and
    /// returns the aggregate report.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not strictly positive.
    pub fn run_phase(&mut self, duration_s: f64, load_current_a: f64) -> PhaseReport {
        assert!(duration_s > 0.0, "phase duration must be positive");
        let steps = (duration_s / self.dt_s).ceil() as u64;
        let mut energy = 0.0;
        let mut v_acc = 0.0;
        let mut enabled_steps = 0u64;
        for _ in 0..steps {
            energy += self.step(load_current_a);
            if self.enabled {
                enabled_steps += 1;
            }
            v_acc += self.output_v;
        }
        PhaseReport {
            mean_output_v: v_acc / steps as f64,
            duty_cycle: enabled_steps as f64 / steps as f64,
            input_energy_j: energy,
            duration_s: steps as f64 * self.dt_s,
        }
    }

    /// Average supply power at regulation steady state, without transient
    /// simulation: `Vdd * ((N+1) * I_load + duty * N * f * C_par * Vdd)`
    /// with `duty = I_load / I_max(target)`.
    ///
    /// This closed form is what the phase-level power model uses; the
    /// time-stepped simulation above exists to validate it.
    pub fn steady_state_power_w(&self, load_current_a: f64) -> f64 {
        let i_max = self.pump.max_load_current_a(self.regulator.target_v);
        let duty = if i_max > 0.0 {
            (load_current_a / i_max).min(1.0)
        } else {
            1.0
        };
        let n = self.pump.stages as f64;
        let parasitic = n
            * self.pump.clock_hz
            * self.pump.parasitic_ratio
            * self.pump.stage_capacitance_f
            * self.pump.supply_v;
        self.pump.supply_v * ((n + 1.0) * load_current_a + duty * parasitic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regulator_band_construction() {
        let r = HystereticRegulator::for_target(18.0);
        assert!((r.target_v - 18.0).abs() < 1e-12);
        assert!(r.hysteresis_v > 0.0 && r.hysteresis_v < 0.5);
        assert!(r.divider_ratio > 0.0 && r.divider_ratio < 1.0);
    }

    #[test]
    fn holds_voltage_inside_band() {
        let mut p = RegulatedPump::new(DicksonPump::program_pump_45nm(), 16.0);
        // Let it ramp and settle.
        p.run_phase(20e-6, 0.2e-3);
        let report = p.run_phase(10e-6, 0.2e-3);
        assert!(
            report.mean_output_v > 15.5 && report.mean_output_v < 16.5,
            "mean V = {}",
            report.mean_output_v
        );
    }

    #[test]
    fn duty_cycle_rises_with_load() {
        let mut light = RegulatedPump::new(DicksonPump::program_pump_45nm(), 16.0);
        light.run_phase(20e-6, 0.05e-3);
        let l = light.run_phase(20e-6, 0.05e-3);
        let mut heavy = RegulatedPump::new(DicksonPump::program_pump_45nm(), 16.0);
        heavy.run_phase(20e-6, 0.6e-3);
        let h = heavy.run_phase(20e-6, 0.6e-3);
        assert!(
            h.duty_cycle > l.duty_cycle,
            "{} <= {}",
            h.duty_cycle,
            l.duty_cycle
        );
    }

    #[test]
    fn steady_state_power_matches_simulation() {
        let mut p = RegulatedPump::new(DicksonPump::inhibit_pump_45nm(), 8.0);
        p.run_phase(30e-6, 0.3e-3); // settle
        let sim = p.run_phase(30e-6, 0.3e-3).mean_power_w();
        let model = p.steady_state_power_w(0.3e-3);
        let err = (sim - model).abs() / model;
        assert!(
            err < 0.15,
            "sim {sim:.4} vs model {model:.4} (err {err:.3})"
        );
    }

    #[test]
    fn phase_report_power_helper() {
        let r = PhaseReport {
            mean_output_v: 8.0,
            duty_cycle: 0.5,
            input_energy_j: 2e-6,
            duration_s: 1e-3,
        };
        assert!((r.mean_power_w() - 2e-3).abs() < 1e-12);
    }
}
