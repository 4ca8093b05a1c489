//! Register-driven phase sequencer.
//!
//! "In a NAND Flash device the timing and sequence of analog circuitry
//! operations are driven by the embedded microcontroller/FSM by means of a
//! set of interface registers, generating the enable signals for the
//! charge pumps. Switching from ISPP-SV to ISPP-DV does not require a
//! modification of the HV subsystem but rather implies a different
//! sequence of enable signals notified through the same register
//! interface." (paper, Section 5.1)
//!
//! The sequencer consumes a list of [`Phase`] records — the enable-signal
//! program — and produces the per-phase energy breakdown. The ISPP engines
//! in `mlcx-nand` emit different phase programs for SV and DV against this
//! *identical* hardware, which is the paper's minimal-cost argument.

use crate::energy::{OperationEnergy, PhaseEnergy};
use crate::subsystem::HvSubsystem;

/// What the HV subsystem is doing during a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseKind {
    /// A program pulse with the ISPP staircase at `target_v`.
    ProgramPulse {
        /// Gate voltage of this staircase step, volts.
        target_v: f64,
    },
    /// A verify read against one of the MLC verify levels.
    Verify {
        /// Which verify level (1..=3 for VFY1..VFY3).
        level: u8,
    },
    /// The extra low-margin verify of the double-verify algorithm.
    PreVerify {
        /// Which verify level the pre-verify belongs to.
        level: u8,
    },
    /// A page read against the read levels R1..R3.
    Read,
    /// An erase pulse on the block well.
    ErasePulse,
}

/// One entry of the enable-signal program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// The biasing configuration.
    pub kind: PhaseKind,
    /// How long the configuration is held, seconds.
    pub duration_s: f64,
}

/// Per-pump enable bits as the FSM's interface registers would hold them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PumpEnables {
    /// Program pump clock enable.
    pub program: bool,
    /// Inhibit pump clock enable.
    pub inhibit: bool,
    /// Verify pump clock enable.
    pub verify: bool,
}

/// Executes enable-signal programs against an [`HvSubsystem`].
///
/// # Example
///
/// ```
/// use mlcx_hv::{HvSubsystem, Phase, PhaseKind, Sequencer};
///
/// let seq = Sequencer::new(HvSubsystem::date2012());
/// let op = seq.execute(&[
///     Phase { kind: PhaseKind::ProgramPulse { target_v: 14.0 }, duration_s: 12e-6 },
///     Phase { kind: PhaseKind::Verify { level: 1 }, duration_s: 12e-6 },
/// ]);
/// assert_eq!(op.phases().len(), 2);
/// assert!(op.total_energy_j() / op.duration_s() > 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Sequencer {
    hv: HvSubsystem,
}

impl Sequencer {
    /// Wraps an HV subsystem.
    pub fn new(hv: HvSubsystem) -> Self {
        Sequencer { hv }
    }

    /// The wrapped subsystem.
    pub fn hv(&self) -> &HvSubsystem {
        &self.hv
    }

    /// The enable bits a phase asserts — the register-interface view.
    pub fn enables(kind: PhaseKind) -> PumpEnables {
        match kind {
            PhaseKind::ProgramPulse { .. } | PhaseKind::ErasePulse => PumpEnables {
                program: true,
                inhibit: true,
                verify: false,
            },
            PhaseKind::Verify { .. } | PhaseKind::PreVerify { .. } | PhaseKind::Read => {
                PumpEnables {
                    program: false,
                    inhibit: false,
                    verify: true,
                }
            }
        }
    }

    /// Mean supply power while a phase is held.
    pub fn phase_power_w(&self, kind: PhaseKind) -> f64 {
        match kind {
            PhaseKind::ProgramPulse { target_v } => self.hv.pulse_power_w(target_v),
            PhaseKind::Verify { .. } | PhaseKind::PreVerify { .. } => self.hv.verify_power_w(),
            PhaseKind::Read => self.hv.read_power_w(),
            PhaseKind::ErasePulse => self.hv.erase_power_w(),
        }
    }

    /// Runs a phase program and returns the energy breakdown.
    pub fn execute(&self, phases: &[Phase]) -> OperationEnergy {
        // Collected from an exact-size iterator: one allocation of
        // `phases.len()` records, however long the program.
        let records = phases.iter().map(|phase| PhaseEnergy {
            label: Self::label(phase.kind),
            duration_s: phase.duration_s,
            energy_j: self.phase_power_w(phase.kind) * phase.duration_s,
        });
        OperationEnergy::from_phases(records.collect())
    }

    fn label(kind: PhaseKind) -> &'static str {
        match kind {
            PhaseKind::ProgramPulse { .. } => "pulse",
            PhaseKind::Verify { .. } => "verify",
            PhaseKind::PreVerify { .. } => "pre-verify",
            PhaseKind::Read => "read",
            PhaseKind::ErasePulse => "erase",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> Sequencer {
        Sequencer::new(HvSubsystem::date2012())
    }

    #[test]
    fn enable_bits_match_phase_roles() {
        let pulse = Sequencer::enables(PhaseKind::ProgramPulse { target_v: 15.0 });
        assert!(pulse.program && pulse.inhibit && !pulse.verify);
        let vfy = Sequencer::enables(PhaseKind::Verify { level: 2 });
        assert!(!vfy.program && !vfy.inhibit && vfy.verify);
        let pre = Sequencer::enables(PhaseKind::PreVerify { level: 1 });
        assert_eq!(pre, vfy);
    }

    #[test]
    fn sv_and_dv_share_the_hardware() {
        // The DV program only adds pre-verify phases — same subsystem, no
        // new enable combinations.
        let s = seq();
        let sv = [
            Phase {
                kind: PhaseKind::ProgramPulse { target_v: 14.0 },
                duration_s: 12e-6,
            },
            Phase {
                kind: PhaseKind::Verify { level: 1 },
                duration_s: 12e-6,
            },
        ];
        let dv = [
            Phase {
                kind: PhaseKind::ProgramPulse { target_v: 14.0 },
                duration_s: 12e-6,
            },
            Phase {
                kind: PhaseKind::PreVerify { level: 1 },
                duration_s: 12e-6,
            },
            Phase {
                kind: PhaseKind::Verify { level: 1 },
                duration_s: 12e-6,
            },
        ];
        let e_sv = s.execute(&sv);
        let e_dv = s.execute(&dv);
        assert!(e_dv.total_energy_j() > e_sv.total_energy_j());
        assert!(e_dv.duration_s() > e_sv.duration_s());
        // Pre-verify biasing is a verify: identical phase power.
        assert_eq!(
            s.phase_power_w(PhaseKind::PreVerify { level: 1 }),
            s.phase_power_w(PhaseKind::Verify { level: 1 })
        );
    }

    #[test]
    fn energies_scale_with_duration() {
        let s = seq();
        let short = s.execute(&[Phase {
            kind: PhaseKind::Read,
            duration_s: 10e-6,
        }]);
        let long = s.execute(&[Phase {
            kind: PhaseKind::Read,
            duration_s: 20e-6,
        }]);
        let ratio = long.total_energy_j() / short.total_energy_j();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn labels_cover_all_kinds() {
        let s = seq();
        let op = s.execute(&[
            Phase {
                kind: PhaseKind::ProgramPulse { target_v: 15.0 },
                duration_s: 1e-6,
            },
            Phase {
                kind: PhaseKind::PreVerify { level: 1 },
                duration_s: 1e-6,
            },
            Phase {
                kind: PhaseKind::Verify { level: 1 },
                duration_s: 1e-6,
            },
            Phase {
                kind: PhaseKind::Read,
                duration_s: 1e-6,
            },
            Phase {
                kind: PhaseKind::ErasePulse,
                duration_s: 1e-6,
            },
        ]);
        let labels: Vec<&str> = op.phases().iter().map(|p| p.label).collect();
        assert_eq!(
            labels,
            vec!["pulse", "pre-verify", "verify", "read", "erase"]
        );
    }
}
