//! Compact 2-bit/cell (4LC) MLC NAND flash model.
//!
//! This crate is the technology-layer half of the DATE 2012 cross-layer
//! paper: a 45 nm low-power MLC NAND device whose **program algorithm is
//! runtime-selectable** between the standard single-verify ISPP
//! ([`ProgramAlgorithm::IsppSv`]) and the double-verify variant
//! ([`ProgramAlgorithm::IsppDv`]).
//!
//! Layered contents:
//!
//! * [`levels`] — the four threshold-voltage levels L0-L3 with their read
//!   (R1-R3), verify (VFY1-VFY3) and over-programming (OP) references
//!   (paper Fig. 3), and the Gray data mapping.
//! * [`cell`] / [`variability`] — per-cell ISPP response with the
//!   variability effects the paper lists: geometry, doping, injection
//!   granularity, cell-to-cell interference and aging.
//! * [`ispp`] — the ISPP-SV and ISPP-DV program engines: pulse/verify
//!   scheduling, program-inhibit, the DV bit-line brake, the closed-form
//!   timing profile, and the HV phase program handed to `mlcx-hv`.
//! * [`rber`] / [`aging`] — the analytic Gaussian-overlap RBER model and
//!   the lifetime calibration that anchors RBER(cycles, algorithm) to the
//!   paper's Fig. 5 / Fig. 7 working points.
//! * [`array`](mod@array) — Monte-Carlo array simulation of a full page program
//!   (validates the analytic model; reproduces Fig. 4's staircase).
//! * [`device`] — a complete NAND device: blocks, pages, erase/program/
//!   read with timing + energy accounting, per-block wear, and the
//!   code-ROM / code-SRAM algorithm store of Section 6.4.
//!
//! # Example
//!
//! ```
//! use mlcx_nand::{NandDevice, ProgramAlgorithm};
//!
//! let mut dev = NandDevice::date2012(77);
//! dev.select_algorithm(ProgramAlgorithm::IsppDv)?;
//! dev.erase_block(0)?;
//! let data = vec![0xA5u8; dev.geometry().page_bytes];
//! let spare = vec![0u8; 16];
//! dev.program_page(0, 0, &data, &spare)?;
//! let (read, _, _) = dev.read_page(0, 0)?;
//! // Fresh device: the raw page is overwhelmingly likely to be clean,
//! // but only ECC may assume it is.
//! assert_eq!(read.len(), data.len());
//! # Ok::<(), mlcx_nand::NandError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod error;
mod geometry;
mod math;

pub mod aging;
pub mod array;
pub mod cell;
pub mod compact;
pub mod device;
pub mod disturb;
pub mod ispp;
pub mod levels;
pub mod rber;
pub mod timing;
pub mod variability;

pub use aging::AgingModel;
pub use device::{NandDevice, OpReport};
pub use error::NandError;
pub use geometry::{DeviceGeometry, Topology};
pub use ispp::{IsppConfig, ProgramAlgorithm, ProgramProfile};
pub use levels::{MlcLevel, ThresholdSpec};
pub use timing::NandTiming;
