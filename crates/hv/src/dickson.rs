//! Dickson charge-pump physics.
//!
//! A Dickson pump chains `N` capacitor stages clocked in anti-phase; each
//! stage adds (ideally) one supply voltage to the running rail. The model
//! below uses the standard first-order description that analog designers
//! (and the paper's SPICE testbench) use to size NAND HV systems:
//!
//! * no-load output `V_nl = (N + 1) * Vdd`,
//! * output impedance `R_out = N / (f * C)`,
//! * steady-state output under load `V_out = V_nl - R_out * I_load`,
//! * input current `I_in = (N + 1) * I_pump + N * f * C_par * Vdd`
//!   (delivered charge plus bottom-plate parasitic switching).

/// First-order model of an `N`-stage Dickson ("modified", i.e. CTS
/// diode-cancelled) charge pump.
///
/// # Example
///
/// ```
/// use mlcx_hv::DicksonPump;
///
/// // The paper's program pump: 12 stages from a 1.8 V supply can serve
/// // the 14..19 V ISPP range.
/// let pump = DicksonPump::program_pump_45nm();
/// assert!(pump.no_load_output_v() > 19.0);
/// let v = pump.steady_state_output_v(0.3e-3);
/// assert!(v > 19.0 && v < pump.no_load_output_v());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DicksonPump {
    /// Number of pumping stages `N`.
    pub stages: u32,
    /// Per-stage pumping capacitance, farads.
    pub stage_capacitance_f: f64,
    /// Pump clock frequency, hertz.
    pub clock_hz: f64,
    /// Supply voltage `Vdd`, volts.
    pub supply_v: f64,
    /// Bottom-plate parasitic ratio `C_par / C` per stage.
    pub parasitic_ratio: f64,
    /// Capacitance hanging on the pump output (rail + decoupling), farads.
    pub output_capacitance_f: f64,
}

impl DicksonPump {
    /// The paper's **program** pump: conventional 12-stage Dickson
    /// modified pump supplying the 14-19 V ISPP pulse.
    pub fn program_pump_45nm() -> Self {
        DicksonPump {
            stages: 12,
            stage_capacitance_f: 120e-12,
            clock_hz: 20.0e6,
            supply_v: 1.8,
            parasitic_ratio: 0.12,
            output_capacitance_f: 60e-12,
        }
    }

    /// The paper's **inhibit** pump: same architecture, 8 stages, 8 V for
    /// channel self-boosting of unselected pages.
    pub fn inhibit_pump_45nm() -> Self {
        DicksonPump {
            stages: 8,
            stage_capacitance_f: 120e-12,
            clock_hz: 20.0e6,
            supply_v: 1.8,
            parasitic_ratio: 0.12,
            output_capacitance_f: 80e-12,
        }
    }

    /// The paper's **verify** pump: 4-stage high-speed pump producing the
    /// 4.5 V read-pass voltage for unselected cells during Verify.
    pub fn verify_pump_45nm() -> Self {
        DicksonPump {
            stages: 4,
            stage_capacitance_f: 150e-12,
            clock_hz: 40.0e6, // high-speed
            supply_v: 1.8,
            parasitic_ratio: 0.12,
            output_capacitance_f: 100e-12,
        }
    }

    /// Ideal no-load output voltage `(N + 1) * Vdd`.
    pub fn no_load_output_v(&self) -> f64 {
        (self.stages as f64 + 1.0) * self.supply_v
    }

    /// Output impedance `N / (f * C)`, ohms.
    pub fn output_impedance_ohm(&self) -> f64 {
        self.stages as f64 / (self.clock_hz * self.stage_capacitance_f)
    }

    /// Steady-state output voltage under a constant load current.
    pub fn steady_state_output_v(&self, load_current_a: f64) -> f64 {
        self.no_load_output_v() - self.output_impedance_ohm() * load_current_a
    }

    /// Maximum current deliverable while holding `target_v`
    /// (`(V_nl - V_t) / R_out`; zero when the target is unreachable).
    pub fn max_load_current_a(&self, target_v: f64) -> f64 {
        ((self.no_load_output_v() - target_v) / self.output_impedance_ohm()).max(0.0)
    }

    /// Supply current when the pump is running and delivering
    /// `pump_current_a` at its output.
    pub fn input_current_a(&self, pump_current_a: f64) -> f64 {
        let n = self.stages as f64;
        (n + 1.0) * pump_current_a
            + n * self.clock_hz * self.parasitic_ratio * self.stage_capacitance_f * self.supply_v
    }

    /// Supply power when running (`Vdd * I_in`), watts.
    pub fn input_power_w(&self, pump_current_a: f64) -> f64 {
        self.supply_v * self.input_current_a(pump_current_a)
    }

    /// Power-conversion efficiency at an operating point.
    pub fn efficiency(&self, output_v: f64, load_current_a: f64) -> f64 {
        let p_out = output_v * load_current_a;
        let p_in = self.input_power_w(load_current_a);
        if p_in <= 0.0 {
            0.0
        } else {
            p_out / p_in
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pumps_reach_their_targets() {
        // Program pump must hold 19 V, inhibit 8 V, verify 4.5 V.
        assert!(DicksonPump::program_pump_45nm().max_load_current_a(19.0) > 0.0);
        assert!(DicksonPump::inhibit_pump_45nm().max_load_current_a(8.0) > 0.0);
        assert!(DicksonPump::verify_pump_45nm().max_load_current_a(4.5) > 0.0);
    }

    #[test]
    fn no_load_voltage_scales_with_stages() {
        let p = DicksonPump::program_pump_45nm();
        assert!((p.no_load_output_v() - 23.4).abs() < 1e-9);
        let i = DicksonPump::inhibit_pump_45nm();
        assert!((i.no_load_output_v() - 16.2).abs() < 1e-9);
    }

    #[test]
    fn output_droops_with_load() {
        let p = DicksonPump::program_pump_45nm();
        let v0 = p.steady_state_output_v(0.0);
        let v1 = p.steady_state_output_v(0.5e-3);
        let v2 = p.steady_state_output_v(1.0e-3);
        assert!(v0 > v1 && v1 > v2);
        assert!((v0 - p.no_load_output_v()).abs() < 1e-12);
    }

    #[test]
    fn input_current_has_parasitic_floor() {
        let p = DicksonPump::program_pump_45nm();
        // Even unloaded (but running) the pump burns switching power.
        assert!(p.input_current_a(0.0) > 0.0);
        // And the loaded term dominates at realistic currents.
        assert!(p.input_current_a(1e-3) > 10.0 * 1e-3);
    }

    #[test]
    fn efficiency_below_unity_and_peaks_midrange() {
        let p = DicksonPump::program_pump_45nm();
        for i_load in [0.05e-3, 0.2e-3, 0.5e-3] {
            let v = p.steady_state_output_v(i_load);
            let eta = p.efficiency(v, i_load);
            assert!(eta > 0.0 && eta < 1.0, "eta = {eta}");
        }
        assert_eq!(p.efficiency(18.0, 0.0), 0.0);
    }
}
