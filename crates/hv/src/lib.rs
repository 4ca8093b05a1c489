//! High-voltage (HV) subsystem models for NAND flash memories.
//!
//! The HV subsystem is "the analog core of a NAND Flash memory" (paper,
//! Section 5.1): programming and verifying cells requires bias voltages far
//! above the 1.8 V supply, generated by Dickson charge pumps and kept on
//! target by feedback regulators. This crate models the three pumps the
//! paper simulates plus the enable-signal sequencer through which the
//! embedded microcontroller drives them:
//!
//! * [`DicksonPump`] — stage-level pump physics: no-load voltage, output
//!   impedance, input current and conversion efficiency.
//! * [`RegulatedPump`] — a pump wrapped in the paper's hysteretic
//!   regulation loop (voltage divider + comparator that shuts the pump
//!   down at target and restarts it below the reference band).
//! * [`HvSubsystem`] — the program (12-stage, 14-19 V), inhibit (8-stage,
//!   8 V) and verify (4-stage high-speed, 4.5 V) pumps of the paper's
//!   45 nm low-power device, with phase-level power evaluation.
//! * [`Sequencer`] — the register-driven phase sequencer: ISPP-SV and
//!   ISPP-DV differ **only** in the enable-signal sequence, never in the
//!   HV hardware, which is exactly the paper's implementation-cost claim.
//!
//! # Example
//!
//! ```
//! use mlcx_hv::HvSubsystem;
//!
//! let hv = HvSubsystem::date2012();
//! // Program-pulse phase at 17 V draws more input power than at 14 V.
//! let lo = hv.pulse_power_w(14.0);
//! let hi = hv.pulse_power_w(17.0);
//! assert!(hi > lo);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod dickson;
mod energy;
mod regulator;
mod sequencer;
mod subsystem;

pub use dickson::DicksonPump;
pub use energy::{OperationEnergy, PhaseEnergy};
pub use regulator::RegulatedPump;
pub use sequencer::{Phase, PhaseKind, PumpEnables, Sequencer};
pub use subsystem::HvSubsystem;
