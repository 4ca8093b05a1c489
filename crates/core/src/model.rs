//! The complete cross-layer subsystem model and operating-point metrics.

use std::fmt;

use mlcx_bch::{EccHardware, EccPowerModel};
use mlcx_controller::{
    read_path, write_path, ControllerConfig, FlashInterface, LoadStrategy, OcpSocket, ReadPath,
    WritePath,
};
use mlcx_hv::HvSubsystem;
use mlcx_nand::ispp::{pattern_profile, program_profile, IsppConfig, ProgramProfile};
use mlcx_nand::{AgingModel, MlcLevel, NandTiming, ProgramAlgorithm};

use crate::policy::Objective;
use crate::uber;

/// One point of the cross-layer configuration space: a program algorithm
/// at the technology layer plus a correction capability at the
/// architecture layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatingPoint {
    /// The physical-layer knob.
    pub algorithm: ProgramAlgorithm,
    /// The architecture-layer knob.
    pub correction: u32,
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / t={}", self.algorithm, self.correction)
    }
}

/// Evaluated quality metrics of an operating point at a wear level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// `log10` of the uncorrectable bit error rate (eq. 1).
    pub log10_uber: f64,
    /// Sustained read throughput, MB/s.
    pub read_mbps: f64,
    /// Sustained write throughput, MB/s.
    pub write_mbps: f64,
    /// Average device power during programming, watts.
    pub program_power_w: f64,
    /// ECC sub-system power, watts.
    pub ecc_power_w: f64,
}

/// Every calibrated sub-model of the memory sub-system in one place.
///
/// This is the paper's "extensive modeling, simulation and implementation
/// framework" reduced to its quantitative core: evaluate any
/// (algorithm, t, wear) triple into UBER, throughputs and power.
///
/// # Example
///
/// ```
/// use mlcx_core::{OperatingPoint, SubsystemModel};
/// use mlcx_nand::ProgramAlgorithm;
///
/// let model = SubsystemModel::date2012();
/// let op = OperatingPoint { algorithm: ProgramAlgorithm::IsppSv, correction: 65 };
/// let m = model.metrics(&op, 1_000_000);
/// assert!(m.log10_uber <= -11.0); // meets the paper's target at EOL
/// ```
#[derive(Debug, Clone)]
pub struct SubsystemModel {
    /// Lifetime RBER curves.
    pub aging: AgingModel,
    /// ISPP staircase/timing parameters.
    pub ispp: IsppConfig,
    /// ECC hardware latency parameters.
    pub ecc_hw: EccHardware,
    /// ECC power model.
    pub ecc_power: EccPowerModel,
    /// HV subsystem (program power).
    pub hv: HvSubsystem,
    /// Flash bus interface.
    pub bus: FlashInterface,
    /// NoC socket interface.
    pub ocp: OcpSocket,
    /// Device timing constants.
    pub timing: NandTiming,
    /// Page-buffer load strategy.
    pub load_strategy: LoadStrategy,
    /// Message length (one page), bits.
    pub k_bits: usize,
    /// Galois-field degree of the codec.
    pub ecc_m: u32,
    /// Capability floor.
    pub tmin: u32,
    /// Capability ceiling.
    pub tmax: u32,
    /// The UBER requirement (1e-11 in the paper).
    pub uber_target: f64,
}

impl SubsystemModel {
    /// The paper's full calibration: the model of the preset
    /// controller, [`ControllerConfig::date2012`].
    pub fn date2012() -> Self {
        Self::for_controller(&ControllerConfig::date2012())
    }

    /// The model of the hardware a controller built from `config`
    /// drives — the only model a [`StorageEngine`](crate::StorageEngine)
    /// plans with. The ECC engine and its power, both buses, the page
    /// size and the codec range are the configuration's; the device-side
    /// calibration (`aging`, `ispp`, `hv`, `timing`) is written here
    /// once, from the same `date2012()` presets `MemoryController::new`
    /// builds its `NandDevice` from — which is what keeps model and
    /// device equal with no check between them.
    pub fn for_controller(config: &ControllerConfig) -> Self {
        SubsystemModel {
            aging: AgingModel::date2012(),
            ispp: IsppConfig::date2012(),
            ecc_hw: config.ecc_hw,
            ecc_power: config.ecc_power,
            hv: HvSubsystem::date2012(),
            bus: config.flash_if,
            ocp: config.ocp,
            timing: NandTiming::date2012(),
            load_strategy: LoadStrategy::OneRound,
            k_bits: config.geometry.page_bytes * 8,
            ecc_m: config.ecc_m,
            tmin: config.ecc_tmin,
            tmax: config.ecc_tmax,
            uber_target: 1e-11,
        }
    }

    /// RBER of an algorithm at a wear level.
    pub fn rber(&self, algorithm: ProgramAlgorithm, cycles: u64) -> f64 {
        self.aging.rber(algorithm, cycles)
    }

    /// The ECC schedule: smallest `t` meeting the UBER target for the
    /// algorithm's RBER at this wear level (clamped to `tmin`), or `None`
    /// past the capability ceiling.
    pub fn required_t(&self, algorithm: ProgramAlgorithm, cycles: u64) -> Option<u32> {
        uber::required_t(
            self.k_bits,
            self.ecc_m,
            self.rber(algorithm, cycles),
            self.uber_target,
            self.tmin,
            self.tmax,
        )
    }

    /// Parity bits at capability `t` (`m * t` for the shortened code).
    pub fn parity_bits(&self, t: u32) -> usize {
        self.ecc_m as usize * t as usize
    }

    /// `log10(UBER)` of an operating point at a wear level.
    ///
    /// Uses the paper's eq. (1) inside its validity regime; outside it
    /// (capability below the mean raw error count — only reachable by
    /// deliberately mis-configured points like the controller-only
    /// strawman) falls back to the exact tail probability so the metric
    /// stays honest.
    pub fn log10_uber(&self, op: &OperatingPoint, cycles: u64) -> f64 {
        self.log10_uber_at_rber(op, self.rber(op.algorithm, cycles))
    }

    /// `log10(UBER)` of an operating point at an explicitly supplied
    /// raw bit error rate — the entry point for RBER compositions the
    /// endurance curves alone cannot express, e.g. endurance *plus* the
    /// additive read-disturb/retention terms of
    /// [`DisturbModel`](mlcx_nand::disturb::DisturbModel). Same eq. (1)
    /// / exact-tail fallback as [`SubsystemModel::log10_uber`].
    pub fn log10_uber_at_rber(&self, op: &OperatingPoint, rber: f64) -> f64 {
        let n = self.k_bits + self.parity_bits(op.correction);
        if uber::first_term_valid(n, op.correction, rber) {
            uber::log10_uber(n, op.correction, rber)
        } else {
            uber::log10_uber_exact(n, op.correction, rber)
        }
    }

    /// Read-path latency breakdown at capability `t`.
    pub fn read_path(&self, t: u32) -> ReadPath {
        read_path(
            &self.timing,
            &self.bus,
            &self.ecc_hw,
            self.k_bits,
            self.parity_bits(t),
            t,
        )
    }

    /// Write-path latency breakdown for an operating point at a wear
    /// level.
    pub fn write_path(&self, op: &OperatingPoint, cycles: u64) -> WritePath {
        let profile = program_profile(&self.ispp, op.algorithm, cycles);
        write_path(
            &self.ocp,
            self.load_strategy,
            &self.bus,
            &self.ecc_hw,
            self.k_bits,
            self.parity_bits(op.correction),
            profile.duration_s,
        )
    }

    /// Average device power over a mixed-pattern page program.
    pub fn program_power_w(&self, algorithm: ProgramAlgorithm, cycles: u64) -> f64 {
        let profile = program_profile(&self.ispp, algorithm, cycles);
        self.profile_power_w(&profile)
    }

    /// Average device power over a single-level pattern program (the
    /// L1/L2/L3 sweeps of Fig. 6).
    pub(crate) fn pattern_power_w(
        &self,
        algorithm: ProgramAlgorithm,
        level: MlcLevel,
        cycles: u64,
    ) -> f64 {
        let profile = pattern_profile(&self.ispp, algorithm, level, cycles);
        self.profile_power_w(&profile)
    }

    fn profile_power_w(&self, profile: &ProgramProfile) -> f64 {
        let pulse_time = profile.pulses * self.ispp.pulse_s;
        let verify_time = profile.pulses * profile.verifies_per_pulse * self.ispp.verify_s;
        let pulse_energy = pulse_time * self.hv.pulse_power_w(profile.mean_pulse_v);
        let verify_energy = verify_time * self.hv.verify_power_w();
        (pulse_energy + verify_energy) / (pulse_time + verify_time)
    }

    /// Full metric evaluation of an operating point.
    pub fn metrics(&self, op: &OperatingPoint, cycles: u64) -> Metrics {
        let rp = self.read_path(op.correction);
        let wp = self.write_path(op, cycles);
        Metrics {
            log10_uber: self.log10_uber(op, cycles),
            read_mbps: rp.throughput_mbps(self.k_bits / 8),
            write_mbps: wp.throughput_mbps(self.k_bits / 8),
            program_power_w: self.program_power_w(op.algorithm, cycles),
            ecc_power_w: self.ecc_power.power_w(op.correction),
        }
    }

    /// The operating point an [`Objective`] selects at a wear level.
    ///
    /// * `Baseline` — ISPP-SV with the ECC tracking the UBER target;
    /// * `MinUber` — ISPP-DV while *keeping the SV ECC schedule*
    ///   (Section 6.3.1: UBER boost at zero read cost);
    /// * `MaxReadThroughput` — ISPP-DV with the ECC relaxed to the DV
    ///   schedule (Section 6.3.2: read gain at constant UBER).
    ///
    /// Falls back to the capability ceiling when the RBER exceeds what
    /// the codec can serve (end of usable life).
    pub fn configure(&self, objective: Objective, cycles: u64) -> OperatingPoint {
        self.configure_with_extra_rber(objective, cycles, 0.0)
    }

    /// [`SubsystemModel::configure`] with an additive RBER term on top
    /// of the endurance curves — the entry point for scheduling against
    /// workload-dependent mechanisms the wear axis cannot see
    /// (read-disturb / retention, per
    /// [`DisturbModel`](mlcx_nand::disturb::DisturbModel)): the ECC
    /// schedule is solved for `rber(algorithm, cycles) + extra_rber`,
    /// so the selected capability keeps meeting the UBER target on
    /// disturbed data. `extra_rber = 0.0` is exactly
    /// [`SubsystemModel::configure`].
    pub(crate) fn configure_with_extra_rber(
        &self,
        objective: Objective,
        cycles: u64,
        extra_rber: f64,
    ) -> OperatingPoint {
        let t_for = |algorithm| {
            uber::required_t(
                self.k_bits,
                self.ecc_m,
                self.rber(algorithm, cycles) + extra_rber,
                self.uber_target,
                self.tmin,
                self.tmax,
            )
            .unwrap_or(self.tmax)
        };
        let t_sv = t_for(ProgramAlgorithm::IsppSv);
        match objective {
            Objective::Baseline => OperatingPoint {
                algorithm: ProgramAlgorithm::IsppSv,
                correction: t_sv,
            },
            Objective::MinUber => OperatingPoint {
                algorithm: ProgramAlgorithm::IsppDv,
                correction: t_sv,
            },
            Objective::MaxReadThroughput => OperatingPoint {
                algorithm: ProgramAlgorithm::IsppDv,
                correction: t_for(ProgramAlgorithm::IsppDv),
            },
        }
    }
}

impl Default for SubsystemModel {
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SubsystemModel {
        SubsystemModel::date2012()
    }

    #[test]
    fn ecc_schedule_matches_paper_working_points() {
        let m = model();
        assert_eq!(m.required_t(ProgramAlgorithm::IsppSv, 100), Some(3));
        assert_eq!(m.required_t(ProgramAlgorithm::IsppDv, 100), Some(3));
        assert_eq!(m.required_t(ProgramAlgorithm::IsppSv, 1_000_000), Some(65));
        assert_eq!(m.required_t(ProgramAlgorithm::IsppDv, 1_000_000), Some(14));
    }

    #[test]
    fn schedule_is_monotone_over_life() {
        let m = model();
        for alg in ProgramAlgorithm::ALL {
            let mut prev = 0;
            for c in AgingModel::lifetime_grid(1, 1_000_000, 3) {
                let t = m.required_t(alg, c).unwrap();
                assert!(t >= prev, "{alg} at {c}: t = {t}");
                prev = t;
            }
        }
    }

    #[test]
    fn all_objectives_meet_the_uber_target() {
        let m = model();
        for objective in [
            Objective::Baseline,
            Objective::MinUber,
            Objective::MaxReadThroughput,
        ] {
            for c in [1u64, 1_000, 100_000, 1_000_000] {
                let op = m.configure(objective, c);
                let log_u = m.log10_uber(&op, c);
                assert!(
                    log_u <= -11.0 + 1e-9,
                    "{objective:?} at {c} cycles: log10 UBER = {log_u}"
                );
            }
        }
    }

    #[test]
    fn min_uber_beats_baseline_without_read_cost() {
        let m = model();
        let c = 1_000_000;
        let base = m.configure(Objective::Baseline, c);
        let safe = m.configure(Objective::MinUber, c);
        let mb = m.metrics(&base, c);
        let ms = m.metrics(&safe, c);
        assert!(ms.log10_uber < mb.log10_uber - 5.0, "UBER boost expected");
        assert!((ms.read_mbps - mb.read_mbps).abs() / mb.read_mbps < 1e-9);
        assert!(ms.write_mbps < mb.write_mbps);
    }

    #[test]
    fn max_read_gains_throughput_at_same_uber() {
        let m = model();
        let c = 1_000_000;
        let base = m.configure(Objective::Baseline, c);
        let fast = m.configure(Objective::MaxReadThroughput, c);
        let mb = m.metrics(&base, c);
        let mf = m.metrics(&fast, c);
        let gain = mf.read_mbps / mb.read_mbps - 1.0;
        assert!((0.25..0.35).contains(&gain), "gain = {gain}");
        assert!(mf.log10_uber <= -11.0);
        // ECC power relaxes from 7 mW to ~1 mW (Section 6.3.2).
        assert!((mb.ecc_power_w - 7e-3).abs() < 0.5e-3);
        assert!((mf.ecc_power_w - 1e-3).abs() < 0.5e-3);
    }

    #[test]
    fn program_power_in_fig6_band_and_ordering() {
        let m = model();
        for c in [1u64, 1_000, 100_000] {
            let sv = m.program_power_w(ProgramAlgorithm::IsppSv, c);
            let dv = m.program_power_w(ProgramAlgorithm::IsppDv, c);
            assert!((0.14..0.19).contains(&sv), "sv = {sv}");
            let delta_mw = (dv - sv) * 1e3;
            assert!((4.0..12.0).contains(&delta_mw), "delta = {delta_mw} mW");
        }
        // Pattern ordering L1 < L2 < L3.
        let p = |lvl| m.pattern_power_w(ProgramAlgorithm::IsppSv, lvl, 1_000);
        assert!(p(MlcLevel::L1) < p(MlcLevel::L2));
        assert!(p(MlcLevel::L2) < p(MlcLevel::L3));
    }

    #[test]
    fn operating_point_display() {
        let op = OperatingPoint {
            algorithm: ProgramAlgorithm::IsppDv,
            correction: 14,
        };
        assert_eq!(op.to_string(), "ISPP-DV / t=14");
    }
}
