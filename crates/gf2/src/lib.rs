//! Binary-field arithmetic for the `mlcx` NAND-flash simulator.
//!
//! This crate provides the two algebraic substrates required by the adaptive
//! BCH codec of the DATE 2012 cross-layer paper:
//!
//! * [`Gf2Poly`] — dense polynomials over GF(2), bit-packed into machine
//!   words. Used to construct and manipulate BCH generator polynomials and to
//!   implement the LFSR (remainder) view of systematic encoding.
//! * [`GfField`] — the finite field GF(2^m) for `2 <= m <= 16`, implemented
//!   with log/antilog tables exactly as a hardware Galois-field unit would
//!   store them in ROM. Syndrome evaluation, Berlekamp-Massey and the Chien
//!   search all run over this field; quadratics and affine quartics over
//!   it have a closed form ([`GfField::solve_quadratic`],
//!   [`GfField::solve_affine_quartic`]).
//! * [`minpoly`] — cyclotomic cosets, minimal polynomials and BCH generator
//!   polynomial construction (the contents of the small "polynomial ROM" the
//!   paper's adaptable encoder multiplexes over).
//! * [`kernels`] — word-parallel carry-less multiplication: a bit-serial
//!   oracle and one production path, every body of which runs on the
//!   `x86_64` CLMUL instruction (`pclmulqdq`) behind a runtime detect +
//!   `cfg`/feature gate, or on shift-and-XOR everywhere else.
//!   [`Gf2Poly::mul`] runs [`MulKernel::best`]; the oracle exists for
//!   differential tests. The same module carries the multiply-by-constants
//!   fold and row product ([`kernels::fold_clmul`],
//!   [`kernels::row_product_clmul`]) the BCH encoder's remainder pass is
//!   made of for registers wider than one word, GF(2^m)\[x\] with two
//!   coefficients to a machine word ([`kernels::combine`],
//!   [`kernels::frobenius_chain`], [`kernels::with_dots`])
//!   and the divisions of a trace split ([`kernels::split`]) for the
//!   decoder's root search and Berlekamp-Massey, and one division by many
//!   small moduli ([`kernels::residues`]) for its syndromes.
//!
//! # Example
//!
//! Build GF(2^4) and verify a classic identity (every nonzero element has
//! multiplicative order dividing 15):
//!
//! ```
//! use mlcx_gf2::GfField;
//!
//! let field = GfField::new(4)?;
//! for a in 1..16u32 {
//!     assert_eq!(field.pow(a, 15), 1);
//! }
//! # Ok::<(), mlcx_gf2::GfError>(())
//! ```

// `deny` rather than `forbid`: the CLMUL gate of `kernels` carries the
// crate's only `#[allow(unsafe_code)]`, scoped to the intrinsics module
// and guarded by a runtime CPU-feature check.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod field;
mod poly;

pub mod kernels;
pub mod minpoly;

pub use field::{GfError, GfField};
pub use kernels::MulKernel;
pub use poly::Gf2Poly;
