//! Adaptive-rate BCH codec with a cycle-accurate hardware model.
//!
//! This crate implements the architecture-layer half of the DATE 2012
//! cross-layer paper: a Bose-Chaudhuri-Hocquenghem codec whose correction
//! capability `t` is **programmable at runtime** between 1 and `tmax`
//! (the paper instantiates `t = 3..=65` over GF(2^16) for a 4 KiB page).
//!
//! The functional pipeline mirrors the paper's Fig. 2:
//!
//! 1. **Encoder** (`encoder`) — systematic encoding through a parallel
//!    programmable LFSR whose taps come from a generator-polynomial ROM
//!    ([`mlcx_gf2::minpoly::GeneratorTable`]).
//! 2. **Syndrome block** ([`syndrome`]) — computes the `2t` syndromes; a
//!    zero remainder short-circuits the decode (error-free codeword).
//! 3. **Berlekamp-Massey** ([`berlekamp`]) — error-locator polynomial,
//!    `t` hardware iterations.
//! 4. **Chien search** ([`chien`]) — root search over the *shortened*
//!    position range, starting from the ROM-stored first element.
//!
//! Every pipeline stage exists twice: a bit-serial oracle
//! and the word-parallel production path, differentially tested
//! bit-identical. [`CodecKernel`] names the two.
//!
//! On top of the functional codec, [`EccHardware`] and [`EccPowerModel`] provide the latency and
//! power model used to reproduce the paper's Fig. 8 (encode/decode latency
//! vs. memory lifetime at 80 MHz) and the 7 mW -> 1 mW ECC power relaxation
//! of Section 6.3.2.
//!
//! # Example
//!
//! ```
//! use mlcx_bch::{AdaptiveBch, DecodeOutcome};
//!
//! // A small adaptive codec over GF(2^13): 512-byte blocks, t up to 8.
//! let mut codec = AdaptiveBch::new(13, 512 * 8, 1, 8)?;
//! codec.set_correction(4)?;
//!
//! let mut message = vec![0xA5u8; 512];
//! let mut parity = codec.encode(&message)?;
//!
//! message[17] ^= 0x40; // inject a single-bit error
//! let outcome = codec.decode(&mut message, &mut parity)?;
//! assert!(matches!(outcome, DecodeOutcome::Corrected { bit_errors: 1, .. }));
//! assert_eq!(message[17], 0xA5);
//! # Ok::<(), mlcx_bch::BchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod adaptive;
mod bitreg;
mod code;
mod encoder;
mod error;
mod hardware;
mod kernel;

pub mod berlekamp;
pub mod chien;
pub mod syndrome;

pub use adaptive::AdaptiveBch;
pub use code::{BchCode, DecodeOutcome};
pub use error::BchError;
pub use hardware::{EccHardware, EccPowerModel};
pub use kernel::CodecKernel;
