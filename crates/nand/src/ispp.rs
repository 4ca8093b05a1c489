//! The ISPP-SV and ISPP-DV program engines (paper Section 5).
//!
//! Both algorithms share the staircase: a pulse at `V_cg`, verify, inhibit
//! passed cells, increment by `delta_ISPP`, repeat. The **double-verify**
//! variant adds, per active level, a *pre-verify* at a slightly lower
//! reference; cells that pass it have their bit-line biased so subsequent
//! pulses inject less charge (a finer effective step), compacting the
//! final distribution — the paper's physical-layer reliability knob.
//!
//! Two views are provided:
//!
//! * [`IsppEngine`] — the Monte-Carlo engine that actually programs a
//!   vector of cells and emits the HV phase program;
//! * [`program_profile`] — the closed-form expected timing profile used
//!   by the figure generators (calibrated against the engine), including
//!   the aging-driven pulse-count growth that makes the paper's Fig. 9
//!   write-throughput loss drift from ~40 % to ~48 % over life.

use std::fmt;

use mlcx_hv::{Phase, PhaseKind};
use rand::RngExt;

use crate::cell::Cell;
use crate::levels::{MlcLevel, ThresholdSpec};
use crate::variability::{sample_normal, VariabilityModel};

/// The runtime-selectable program algorithm (the paper's physical-layer
/// configuration knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProgramAlgorithm {
    /// Standard ISPP with a single verify per level per pulse.
    IsppSv,
    /// Double-verify ISPP: pre-verify + bit-line brake, then final verify.
    IsppDv,
}

impl ProgramAlgorithm {
    /// Both algorithms, SV first (the factory-default baseline).
    pub const ALL: [ProgramAlgorithm; 2] = [ProgramAlgorithm::IsppSv, ProgramAlgorithm::IsppDv];

    /// The effective placement step of the algorithm: full `delta_ISPP`
    /// for SV, the braked fine step for DV.
    pub(crate) fn placement_step_v(self, config: &IsppConfig) -> f64 {
        match self {
            ProgramAlgorithm::IsppSv => config.step_v,
            ProgramAlgorithm::IsppDv => config.step_v - config.fine_brake_v,
        }
    }
}

impl fmt::Display for ProgramAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramAlgorithm::IsppSv => write!(f, "ISPP-SV"),
            ProgramAlgorithm::IsppDv => write!(f, "ISPP-DV"),
        }
    }
}

/// Staircase and timing parameters (paper: 14-19 V, 250 mV steps,
/// VDD = 1.8 V low-power device).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsppConfig {
    /// First pulse gate voltage, volts.
    pub start_v: f64,
    /// Staircase increment `delta_ISPP`, volts.
    pub step_v: f64,
    /// Gate-voltage ceiling, volts.
    pub end_v: f64,
    /// Hard cap on pulses per operation (algorithm timeout).
    pub max_pulses: u32,
    /// Duration of one program pulse (setup + hold), seconds.
    pub pulse_s: f64,
    /// Duration of one verify read, seconds.
    pub verify_s: f64,
    /// Bit-line brake of the DV fine mode, volts of effective step
    /// reduction.
    pub fine_brake_v: f64,
}

impl IsppConfig {
    /// The paper's configuration.
    pub fn date2012() -> Self {
        IsppConfig {
            start_v: 14.0,
            step_v: 0.25,
            end_v: 19.0,
            max_pulses: 40,
            pulse_s: 16e-6,
            verify_s: 10e-6,
            fine_brake_v: 0.17,
        }
    }

    /// Gate voltage of pulse `i` (clamped at the ceiling).
    pub fn pulse_voltage(&self, i: u32) -> f64 {
        (self.start_v + self.step_v * i as f64).min(self.end_v)
    }

    /// Pulses needed for the staircase to sweep its full range.
    pub(crate) fn staircase_pulses(&self) -> u32 {
        ((self.end_v - self.start_v) / self.step_v).round() as u32 + 1
    }
}

impl Default for IsppConfig {
    fn default() -> Self {
        Self::date2012()
    }
}

/// Outcome of one Monte-Carlo page program.
#[derive(Debug, Clone, PartialEq)]
pub struct IsppRun {
    /// Pulses applied.
    pub pulses: u32,
    /// Verify reads performed (pre-verifies included).
    pub verify_ops: u32,
    /// Total algorithm run time, seconds.
    pub duration_s: f64,
    /// The HV enable-signal program (feed to [`mlcx_hv::Sequencer`]).
    pub phases: Vec<Phase>,
    /// `false` if the pulse cap was hit with cells still unverified.
    pub converged: bool,
}

/// Monte-Carlo ISPP engine over a vector of cells.
///
/// # Example
///
/// ```
/// use mlcx_nand::ispp::{IsppConfig, IsppEngine, ProgramAlgorithm};
/// use mlcx_nand::levels::{MlcLevel, ThresholdSpec};
/// use mlcx_nand::variability::VariabilityModel;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let engine = IsppEngine::new(
///     IsppConfig::date2012(),
///     ThresholdSpec::date2012(),
///     VariabilityModel::date2012(),
/// );
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut cells = engine.erased_page(&[MlcLevel::L2; 256], &mut rng);
/// let run = engine.program(&mut cells, ProgramAlgorithm::IsppSv, 0.0, &mut rng);
/// assert!(run.converged);
/// // All cells passed VFY2 (2.4 V), minus the small post-placement
/// // disturbance the engine applies after verification.
/// assert!(cells.iter().all(|c| c.vth() >= 2.0));
/// ```
#[derive(Debug, Clone)]
pub struct IsppEngine {
    config: IsppConfig,
    spec: ThresholdSpec,
    variability: VariabilityModel,
}

impl IsppEngine {
    /// Builds an engine from its three parameter sets.
    pub fn new(config: IsppConfig, spec: ThresholdSpec, variability: VariabilityModel) -> Self {
        IsppEngine {
            config,
            spec,
            variability,
        }
    }

    /// The staircase configuration.
    pub fn config(&self) -> &IsppConfig {
        &self.config
    }

    /// The threshold references.
    pub fn spec(&self) -> &ThresholdSpec {
        &self.spec
    }

    /// Samples a fresh erased page with per-cell offsets and the given
    /// programming targets.
    pub fn erased_page<R: RngExt + ?Sized>(&self, targets: &[MlcLevel], rng: &mut R) -> Vec<Cell> {
        targets
            .iter()
            .map(|&target| {
                let vth = sample_normal(rng, self.spec.erased_mean_v, self.spec.erased_sigma_v);
                let offset = sample_normal(
                    rng,
                    self.variability.offset_mean_v,
                    self.variability.sigma_offset_v,
                );
                Cell::new(vth, offset, target)
            })
            .collect()
    }

    /// Runs the selected algorithm over the page.
    ///
    /// `aging_sigma_v` is the extra threshold noise contributed by wear
    /// (from the variability model's aging term); it
    /// is applied, together with residual cell-to-cell interference, after
    /// placement — modelling charge detrapping between program and read.
    pub fn program<R: RngExt + ?Sized>(
        &self,
        cells: &mut [Cell],
        algorithm: ProgramAlgorithm,
        aging_sigma_v: f64,
        rng: &mut R,
    ) -> IsppRun {
        let cfg = &self.config;
        let mut phases = Vec::new();
        let mut pulses = 0u32;
        let mut verify_ops = 0u32;

        while pulses < cfg.max_pulses {
            // Which levels still have unfinished cells?
            let mut active = [false; 4];
            for cell in cells.iter() {
                if !cell.is_inhibited() {
                    active[cell.target().index()] = true;
                }
            }
            if !active.iter().any(|&a| a) {
                break;
            }

            // Pulse.
            let vcg = cfg.pulse_voltage(pulses);
            phases.push(Phase {
                kind: PhaseKind::ProgramPulse { target_v: vcg },
                duration_s: cfg.pulse_s,
            });
            let fine_step = ProgramAlgorithm::IsppDv.placement_step_v(cfg);
            for cell in cells.iter_mut() {
                if !cell.is_inhibited() {
                    // Shot noise scales with the injected charge packet:
                    // braked (fine-mode) cells inject less per pulse.
                    let sigma = if cell.phase() == crate::cell::CellPhase::Fine {
                        self.variability.injection_sigma_v(fine_step)
                    } else {
                        self.variability.sigma_injection_v
                    };
                    let noise = sample_normal(rng, 0.0, sigma);
                    cell.apply_pulse(vcg, fine_step, noise);
                }
            }
            pulses += 1;

            // Verify pass(es) per active level.
            for (k, &level_active) in active.iter().enumerate().skip(1) {
                if !level_active {
                    continue;
                }
                let level = MlcLevel::from_index(k);
                let vfy = self.spec.verify_for(level);
                if algorithm == ProgramAlgorithm::IsppDv {
                    let pre = vfy - self.spec.pre_verify_offset_v;
                    phases.push(Phase {
                        kind: PhaseKind::PreVerify { level: k as u8 },
                        duration_s: cfg.verify_s,
                    });
                    verify_ops += 1;
                    for cell in cells.iter_mut().filter(|c| c.target() == level) {
                        cell.pre_verify(pre);
                    }
                }
                phases.push(Phase {
                    kind: PhaseKind::Verify { level: k as u8 },
                    duration_s: cfg.verify_s,
                });
                verify_ops += 1;
                for cell in cells.iter_mut().filter(|c| c.target() == level) {
                    cell.verify(vfy);
                }
            }
        }

        let converged = cells.iter().all(|c| c.is_inhibited());

        // Post-placement disturbances on programmed cells: residual
        // cell-to-cell interference, static geometry/oxide margin
        // variation, and aging (detrapping) noise.
        for cell in cells.iter_mut() {
            if cell.target() != MlcLevel::L0 {
                let ctc = sample_normal(rng, 0.0, self.variability.sigma_ctc_v);
                let geom = sample_normal(rng, 0.0, self.variability.sigma_geometry_v);
                let age = if aging_sigma_v > 0.0 {
                    sample_normal(rng, 0.0, aging_sigma_v)
                } else {
                    0.0
                };
                cell.disturb(ctc + geom + age);
            }
        }

        let duration_s = phases.iter().map(|p| p.duration_s).sum();
        IsppRun {
            pulses,
            verify_ops,
            duration_s,
            phases,
            converged,
        }
    }
}

/// Expected (closed-form) timing profile of a full-sequence page program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramProfile {
    /// Expected pulse count.
    pub pulses: f64,
    /// Expected verify reads per pulse (pre-verifies included).
    pub verifies_per_pulse: f64,
    /// Expected program time, seconds.
    pub duration_s: f64,
    /// Mean staircase gate voltage over the operation, volts.
    pub mean_pulse_v: f64,
}

/// Closed-form expected program profile for a *mixed-pattern* (random
/// data) page at a given wear level.
///
/// Calibration: fresh ISPP-SV ~0.85 ms and ISPP-DV ~1.45 ms ("1.5 ms",
/// Section 6.3.3); DV pulse count grows faster with wear (fine-mode cells
/// fight growing injection noise), driving the Fig. 9 loss from ~40 % to
/// ~48 %.
pub fn program_profile(
    config: &IsppConfig,
    algorithm: ProgramAlgorithm,
    cycles: u64,
) -> ProgramProfile {
    let wear = ((cycles.max(1)) as f64 / 1e6).powf(0.6);
    let staircase = config.staircase_pulses() as f64; // 21 for the paper set
    let (pulses, verifies_per_pulse) = match algorithm {
        ProgramAlgorithm::IsppSv => (staircase * (1.0 + 0.020 * wear), 2.4),
        ProgramAlgorithm::IsppDv => ((staircase + 3.0) * (1.0 + 0.190 * wear), 4.8),
    };
    let duration_s = pulses * (config.pulse_s + verifies_per_pulse * config.verify_s);
    let mean_pulse_v = config.start_v + 0.5 * config.step_v * staircase.min(pulses);
    ProgramProfile {
        pulses,
        verifies_per_pulse,
        duration_s,
        mean_pulse_v,
    }
}

/// Closed-form profile for a *single-level* pattern page (the L1/L2/L3
/// pattern sweeps of the paper's Fig. 6).
pub fn pattern_profile(
    config: &IsppConfig,
    algorithm: ProgramAlgorithm,
    level: MlcLevel,
    cycles: u64,
) -> ProgramProfile {
    assert!(level != MlcLevel::L0, "L0 pattern needs no programming");
    let wear = ((cycles.max(1)) as f64 / 1e6).powf(0.6);
    // Pulses to bring the slowest cells onto the level: deeper levels need
    // a longer staircase ride.
    let base = match level {
        MlcLevel::L1 => 7.0,
        MlcLevel::L2 => 13.0,
        _ => 19.0,
    };
    let (pulses, verifies_per_pulse) = match algorithm {
        ProgramAlgorithm::IsppSv => (base * (1.0 + 0.020 * wear), 1.0),
        ProgramAlgorithm::IsppDv => ((base + 1.2) * (1.0 + 0.190 * wear), 2.0),
    };
    let duration_s = pulses * (config.pulse_s + verifies_per_pulse * config.verify_s);
    let mean_pulse_v = config.start_v + 0.5 * config.step_v * pulses;
    ProgramProfile {
        pulses,
        verifies_per_pulse,
        duration_s,
        mean_pulse_v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> IsppEngine {
        IsppEngine::new(
            IsppConfig::date2012(),
            ThresholdSpec::date2012(),
            VariabilityModel::date2012(),
        )
    }

    fn mixed_targets(n: usize) -> Vec<MlcLevel> {
        (0..n).map(|i| MlcLevel::from_index(i % 4)).collect()
    }

    #[test]
    fn staircase_geometry() {
        let cfg = IsppConfig::date2012();
        assert_eq!(cfg.staircase_pulses(), 21);
        assert!((cfg.pulse_voltage(0) - 14.0).abs() < 1e-12);
        assert!((cfg.pulse_voltage(20) - 19.0).abs() < 1e-12);
        // Clamped at the ceiling.
        assert!((cfg.pulse_voltage(30) - 19.0).abs() < 1e-12);
    }

    #[test]
    fn sv_program_converges_and_places_cells() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(11);
        let mut cells = e.erased_page(&mixed_targets(2048), &mut rng);
        let run = e.program(&mut cells, ProgramAlgorithm::IsppSv, 0.0, &mut rng);
        assert!(run.converged);
        assert!(run.pulses <= e.config().staircase_pulses() + 4);
        // Every programmed cell ended at or above its verify level minus
        // the post-placement disturbance budget.
        for cell in &cells {
            if cell.target() != MlcLevel::L0 {
                let vfy = e.spec().verify_for(cell.target());
                assert!(cell.vth() > vfy - 0.5, "{:?}", cell);
            }
        }
    }

    #[test]
    fn dv_takes_longer_but_places_tighter() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(23);
        let targets = vec![MlcLevel::L2; 4096];

        let mut sv_cells = e.erased_page(&targets, &mut rng);
        let sv = e.program(&mut sv_cells, ProgramAlgorithm::IsppSv, 0.0, &mut rng);
        let mut dv_cells = e.erased_page(&targets, &mut rng);
        let dv = e.program(&mut dv_cells, ProgramAlgorithm::IsppDv, 0.0, &mut rng);

        assert!(sv.converged && dv.converged);
        assert!(dv.duration_s > sv.duration_s, "DV must be slower");
        assert!(dv.verify_ops > sv.verify_ops);

        let sigma = |cells: &[Cell]| {
            let n = cells.len() as f64;
            let mean: f64 = cells.iter().map(|c| c.vth()).sum::<f64>() / n;
            (cells.iter().map(|c| (c.vth() - mean).powi(2)).sum::<f64>() / n).sqrt()
        };
        let s_sv = sigma(&sv_cells);
        let s_dv = sigma(&dv_cells);
        assert!(
            s_dv < s_sv,
            "DV distribution must be tighter: {s_dv:.4} vs {s_sv:.4}"
        );
    }

    #[test]
    fn engine_times_match_closed_form_profile() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(5);
        for alg in ProgramAlgorithm::ALL {
            let mut cells = e.erased_page(&mixed_targets(4096), &mut rng);
            let run = e.program(&mut cells, alg, 0.0, &mut rng);
            let profile = program_profile(e.config(), alg, 1);
            let err = (run.duration_s - profile.duration_s).abs() / profile.duration_s;
            assert!(
                err < 0.30,
                "{alg}: engine {:.1} us vs profile {:.1} us",
                run.duration_s * 1e6,
                profile.duration_s * 1e6
            );
        }
    }

    #[test]
    fn profile_matches_paper_timing_quotes() {
        let cfg = IsppConfig::date2012();
        let sv = program_profile(&cfg, ProgramAlgorithm::IsppSv, 1);
        let dv = program_profile(&cfg, ProgramAlgorithm::IsppDv, 1);
        // Section 6.3.3: ISPP-DV run time ~1.5 ms, dominating the write path.
        assert!(
            (1.3e-3..1.6e-3).contains(&dv.duration_s),
            "dv = {}",
            dv.duration_s
        );
        assert!(
            (0.7e-3..1.0e-3).contains(&sv.duration_s),
            "sv = {}",
            sv.duration_s
        );
        // And the ratio must grow with wear (Fig. 9's upward drift).
        let ratio_fresh = dv.duration_s / sv.duration_s;
        let sv_eol = program_profile(&cfg, ProgramAlgorithm::IsppSv, 1_000_000);
        let dv_eol = program_profile(&cfg, ProgramAlgorithm::IsppDv, 1_000_000);
        let ratio_eol = dv_eol.duration_s / sv_eol.duration_s;
        assert!(ratio_eol > ratio_fresh);
    }

    #[test]
    fn pattern_profiles_order_by_level() {
        let cfg = IsppConfig::date2012();
        let t = |lvl| pattern_profile(&cfg, ProgramAlgorithm::IsppSv, lvl, 1000).duration_s;
        assert!(t(MlcLevel::L1) < t(MlcLevel::L2));
        assert!(t(MlcLevel::L2) < t(MlcLevel::L3));
    }

    #[test]
    #[should_panic(expected = "L0 pattern")]
    fn pattern_profile_rejects_l0() {
        pattern_profile(
            &IsppConfig::date2012(),
            ProgramAlgorithm::IsppSv,
            MlcLevel::L0,
            1,
        );
    }

    #[test]
    fn phases_alternate_pulse_and_verifies() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(3);
        let mut cells = e.erased_page(&[MlcLevel::L1; 64], &mut rng);
        let run = e.program(&mut cells, ProgramAlgorithm::IsppDv, 0.0, &mut rng);
        // First phase must be a pulse; every pre-verify must be followed
        // by a verify of the same level.
        assert!(matches!(run.phases[0].kind, PhaseKind::ProgramPulse { .. }));
        for w in run.phases.windows(2) {
            if let PhaseKind::PreVerify { level } = w[0].kind {
                assert_eq!(w[1].kind, PhaseKind::Verify { level });
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ProgramAlgorithm::IsppSv.to_string(), "ISPP-SV");
        assert_eq!(ProgramAlgorithm::IsppDv.to_string(), "ISPP-DV");
    }

    #[test]
    fn placement_step_reflects_brake() {
        let cfg = IsppConfig::date2012();
        let sv = ProgramAlgorithm::IsppSv.placement_step_v(&cfg);
        let dv = ProgramAlgorithm::IsppDv.placement_step_v(&cfg);
        assert!((sv - 0.25).abs() < 1e-12);
        assert!((dv - 0.08).abs() < 1e-12);
    }
}
