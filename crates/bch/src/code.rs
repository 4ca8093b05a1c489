//! A fixed-capability (shortened) binary BCH code.

use std::fmt;
use std::sync::Arc;

use mlcx_gf2::{minpoly, Gf2Poly, GfField};

use crate::berlekamp;
use crate::bitreg::BitSerialLfsr;
use crate::chien;
use crate::encoder::LfsrEncoder;
use crate::error::BchError;
use crate::kernel::CodecKernel;
use crate::syndrome::{SyndromeCalculator, SyndromeLane};

/// Result of decoding one codeword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The received codeword was already valid (zero remainder shortcut).
    Clean,
    /// Errors were located and corrected in place.
    Corrected {
        /// Total corrected bits (message + parity).
        bit_errors: usize,
        /// Corrected bits that fell inside the message.
        message_bit_errors: usize,
        /// Stream positions of the corrected bits (0 = first message bit).
        positions: Vec<usize>,
    },
    /// More errors than the code can locate: data returned unmodified.
    ///
    /// Note that, as in any bounded-distance decoder, error patterns beyond
    /// the designed distance can also *miscorrect* silently — that residual
    /// probability is exactly the UBER the cross-layer framework manages.
    Uncorrectable,
}

impl DecodeOutcome {
    /// `true` for [`DecodeOutcome::Clean`] or [`DecodeOutcome::Corrected`].
    pub fn is_success(&self) -> bool {
        !matches!(self, DecodeOutcome::Uncorrectable)
    }

    /// Number of bits corrected (0 for clean or uncorrectable pages).
    pub fn corrected_bits(&self) -> usize {
        match self {
            DecodeOutcome::Corrected { bit_errors, .. } => *bit_errors,
            _ => 0,
        }
    }
}

/// A shortened binary BCH code `[n, k]` over GF(2^m) correcting `t` errors.
///
/// The message length is fixed at construction (the paper uses the full
/// 4 KiB page, `k = 32768`); parity is `r = deg g(x) <= m*t` bits appended
/// in the spare area, giving `n = k + r <= 2^m - 1`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mlcx_gf2::GfField;
/// use mlcx_bch::{BchCode, DecodeOutcome};
///
/// let field = Arc::new(GfField::new(13)?);
/// let code = BchCode::new(field, 256 * 8, 3)?;
/// let message = vec![0x5Au8; 256];
/// let mut parity = code.encode(&message)?;
///
/// let mut received = message.clone();
/// received[0] ^= 0x81; // two bit errors
/// received[100] ^= 0x01; // and a third
/// let outcome = code.decode(&mut received, &mut parity)?;
/// assert!(matches!(outcome, DecodeOutcome::Corrected { bit_errors: 3, .. }));
/// assert_eq!(received, message);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct BchCode {
    field: Arc<GfField>,
    t: u32,
    k_bits: usize,
    r_bits: usize,
    generator: Gf2Poly,
    lfsr: Lfsr,
    syndromes: SyndromeCalculator,
}

/// The remainder pass of the kernel a [`BchCode`] runs.
#[derive(Clone)]
enum Lfsr {
    Reference(BitSerialLfsr),
    Fused(LfsrEncoder),
}

impl BchCode {
    /// Builds the `t`-error-correcting code for `k_bits` message bits,
    /// deriving the generator polynomial from the field.
    ///
    /// # Errors
    ///
    /// * [`BchError::MessageNotByteAligned`] if `k_bits % 8 != 0`;
    /// * [`BchError::CodeTooLong`] if `k + r > 2^m - 1`;
    /// * [`BchError::CorrectionOutOfRange`] if `t == 0`.
    pub fn new(field: Arc<GfField>, k_bits: usize, t: u32) -> Result<Self, BchError> {
        Self::new_with_kernel(field, k_bits, t, CodecKernel::default())
    }

    /// Like [`BchCode::new`] with an explicit codec kernel.
    ///
    /// # Errors
    ///
    /// See [`BchCode::new`].
    pub fn new_with_kernel(
        field: Arc<GfField>,
        k_bits: usize,
        t: u32,
        kernel: CodecKernel,
    ) -> Result<Self, BchError> {
        if t == 0 {
            return Err(BchError::CorrectionOutOfRange {
                t,
                tmin: 1,
                tmax: u32::MAX,
            });
        }
        let generator = minpoly::generator_poly(&field, t);
        Self::with_generator_kernel(field, k_bits, t, generator, kernel)
    }

    /// Builds the code from a pre-computed generator polynomial (the
    /// adaptive codec feeds these from its polynomial ROM) on an
    /// explicit codec kernel. Both kernels decode bit-identically.
    ///
    /// # Errors
    ///
    /// See [`BchCode::new`].
    pub fn with_generator_kernel(
        field: Arc<GfField>,
        k_bits: usize,
        t: u32,
        generator: Gf2Poly,
        kernel: CodecKernel,
    ) -> Result<Self, BchError> {
        if !k_bits.is_multiple_of(8) || k_bits == 0 {
            return Err(BchError::MessageNotByteAligned { k_bits });
        }
        let r_bits = generator.degree().unwrap_or(0);
        let n_full = field.order() as usize;
        if k_bits + r_bits > n_full {
            return Err(BchError::CodeTooLong {
                k_bits,
                r_bits,
                n_full,
            });
        }
        let (lfsr, syn_lane) = match kernel {
            CodecKernel::Reference => (
                Lfsr::Reference(BitSerialLfsr::new(&generator)),
                SyndromeLane::Bit,
            ),
            // Fused divides the LFSR remainder by the minimal polynomials,
            // which covers all of it.
            CodecKernel::Fused => (
                Lfsr::Fused(LfsrEncoder::new(&generator)),
                SyndromeLane::Residue,
            ),
        };
        let syndromes = SyndromeCalculator::with_lane(field.clone(), t, syn_lane);
        Ok(BchCode {
            field,
            t,
            k_bits,
            r_bits,
            generator,
            lfsr,
            syndromes,
        })
    }

    /// The codec kernel this instance runs.
    pub fn kernel(&self) -> CodecKernel {
        match self.lfsr {
            Lfsr::Reference(_) => CodecKernel::Reference,
            Lfsr::Fused(_) => CodecKernel::Fused,
        }
    }

    /// Message length `k` in bits.
    pub fn message_bits(&self) -> usize {
        self.k_bits
    }

    /// Parity length `r` in bits (`= deg g`).
    pub fn parity_bits(&self) -> usize {
        self.r_bits
    }

    /// Parity length in bytes (`ceil(r/8)`), as stored in the spare area.
    pub fn parity_bytes(&self) -> usize {
        self.r_bits.div_ceil(8)
    }

    /// Shortened codeword length `n = k + r` in bits.
    pub fn codeword_bits(&self) -> usize {
        self.k_bits + self.r_bits
    }

    /// Code rate `k / n`.
    pub fn rate(&self) -> f64 {
        self.k_bits as f64 / self.codeword_bits() as f64
    }

    /// The generator polynomial.
    pub fn generator(&self) -> &Gf2Poly {
        &self.generator
    }

    /// The underlying field.
    pub fn field(&self) -> &Arc<GfField> {
        &self.field
    }

    /// Systematically encodes `message`, returning the parity bytes.
    ///
    /// # Errors
    ///
    /// [`BchError::BufferSize`] if `message` is not exactly `k/8` bytes.
    pub fn encode(&self, message: &[u8]) -> Result<Vec<u8>, BchError> {
        self.check_message(message)?;
        Ok(match &self.lfsr {
            Lfsr::Reference(lfsr) => lfsr.remainder(message),
            Lfsr::Fused(encoder) => encoder.remainder(message),
        })
    }

    /// Decodes in place: locates up to `t` bit errors across `message` and
    /// `parity` and flips them back.
    ///
    /// # Errors
    ///
    /// [`BchError::BufferSize`] on wrong buffer lengths. Uncorrectable
    /// pages are *not* an `Err` — they are the
    /// [`DecodeOutcome::Uncorrectable`] variant, because they are an
    /// expected runtime condition the reliability manager consumes.
    pub fn decode(&self, message: &mut [u8], parity: &mut [u8]) -> Result<DecodeOutcome, BchError> {
        self.check_message(message)?;
        if parity.len() != self.parity_bytes() {
            return Err(BchError::BufferSize {
                what: "parity",
                expected: self.parity_bytes(),
                actual: parity.len(),
            });
        }
        // Stages 0+1: validity shortcut (paper: "if all remainders are null
        // the codeword is error-free and the decoding process ends") and
        // syndrome computation. The fused kernel does both in one LFSR pass
        // over the message: received mod g is zero iff the codeword is
        // valid, and otherwise S_i is that remainder evaluated at beta_i,
        // straight from the pass's register.
        let syn = match &self.lfsr {
            Lfsr::Fused(encoder) => {
                let syn = encoder.received_remainder(message, parity, |reg| {
                    self.syndromes.compute_register(reg, self.r_bits)
                });
                let Some(syn) = syn else {
                    return Ok(DecodeOutcome::Clean);
                };
                syn
            }
            Lfsr::Reference(lfsr) => {
                if lfsr.codeword_is_valid(message, parity) {
                    return Ok(DecodeOutcome::Clean);
                }
                self.syndromes.compute(message, parity, self.r_bits)
            }
        };
        // Stage 2: Berlekamp-Massey.
        let lambda = berlekamp::error_locator(&self.field, &syn);
        let deg = berlekamp::locator_degree(&lambda);
        if deg == 0 || deg > self.t as usize {
            return Ok(DecodeOutcome::Uncorrectable);
        }
        // Stage 3: the locator's roots inside the shortened range.
        let n_bits = self.codeword_bits();
        let positions = match self.kernel() {
            CodecKernel::Reference => chien::find_error_positions(&self.field, &lambda, n_bits),
            CodecKernel::Fused => chien::find_error_positions_stride(&self.field, &lambda, n_bits),
        };
        let Some(positions) = positions else {
            return Ok(DecodeOutcome::Uncorrectable);
        };
        let mut message_bit_errors = 0;
        for &u in &positions {
            if u < self.k_bits {
                message[u / 8] ^= 1 << (7 - u % 8);
                message_bit_errors += 1;
            } else {
                let v = u - self.k_bits;
                parity[v / 8] ^= 1 << (7 - v % 8);
            }
        }
        Ok(DecodeOutcome::Corrected {
            bit_errors: positions.len(),
            message_bit_errors,
            positions,
        })
    }

    fn check_message(&self, message: &[u8]) -> Result<(), BchError> {
        if message.len() != self.k_bits / 8 {
            return Err(BchError::BufferSize {
                what: "message",
                expected: self.k_bits / 8,
                actual: message.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Debug for BchCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BchCode")
            .field("m", &self.field.degree())
            .field("t", &self.t)
            .field("k_bits", &self.k_bits)
            .field("r_bits", &self.r_bits)
            .field("kernel", &self.kernel())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn code(m: u32, k_bytes: usize, t: u32) -> BchCode {
        let field = Arc::new(GfField::new(m).unwrap());
        BchCode::new(field, k_bytes * 8, t).unwrap()
    }

    fn flip(buf: &mut [u8], bitpos: usize) {
        buf[bitpos / 8] ^= 1 << (7 - bitpos % 8);
    }

    #[test]
    fn clean_round_trip() {
        let c = code(11, 64, 4);
        let msg = vec![0x3Cu8; 64];
        let mut parity = c.encode(&msg).unwrap();
        let mut recv = msg.clone();
        assert_eq!(
            c.decode(&mut recv, &mut parity).unwrap(),
            DecodeOutcome::Clean
        );
        assert_eq!(recv, msg);
    }

    #[test]
    fn corrects_exactly_t_errors() {
        let c = code(12, 128, 5);
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let msg: Vec<u8> = (0..128).map(|_| rng.random()).collect();
            let mut parity = c.encode(&msg).unwrap();
            let mut recv = msg.clone();
            // 5 distinct error positions across message + parity.
            let mut positions = std::collections::BTreeSet::new();
            while positions.len() < 5 {
                positions.insert(rng.random_range(0..c.codeword_bits()));
            }
            for &p in &positions {
                if p < c.message_bits() {
                    flip(&mut recv, p);
                } else {
                    flip(&mut parity, p - c.message_bits());
                }
            }
            let out = c.decode(&mut recv, &mut parity).unwrap();
            match out {
                DecodeOutcome::Corrected {
                    bit_errors,
                    positions: got,
                    ..
                } => {
                    assert_eq!(bit_errors, 5, "trial {trial}");
                    assert_eq!(got, positions.iter().copied().collect::<Vec<_>>());
                }
                other => panic!("trial {trial}: expected correction, got {other:?}"),
            }
            assert_eq!(recv, msg, "trial {trial}");
        }
    }

    #[test]
    fn parity_only_errors_do_not_touch_message() {
        let c = code(10, 32, 3);
        let msg = vec![0xF0u8; 32];
        let mut parity = c.encode(&msg).unwrap();
        let mut recv = msg.clone();
        flip(&mut parity, 0);
        flip(&mut parity, 7);
        let out = c.decode(&mut recv, &mut parity).unwrap();
        match out {
            DecodeOutcome::Corrected {
                bit_errors,
                message_bit_errors,
                ..
            } => {
                assert_eq!(bit_errors, 2);
                assert_eq!(message_bit_errors, 0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(recv, msg);
        // Corrected parity must re-validate.
        assert_eq!(
            c.decode(&mut recv, &mut parity).unwrap(),
            DecodeOutcome::Clean
        );
    }

    #[test]
    fn detects_more_than_t_errors_typical_pattern() {
        let c = code(12, 128, 3);
        let msg = vec![0u8; 128];
        let mut parity = c.encode(&msg).unwrap();
        let mut recv = msg.clone();
        // A burst of t+2 errors; for this pattern the decoder must not
        // silently pretend success with wrong data (it either detects or,
        // with tiny probability, miscorrects — assert what happens here
        // deterministically: detection).
        for p in [0usize, 9, 40, 77, 300] {
            flip(&mut recv, p);
        }
        let out = c.decode(&mut recv, &mut parity).unwrap();
        assert_eq!(out, DecodeOutcome::Uncorrectable);
        // Buffer untouched on detection.
        let mut expect = msg.clone();
        for p in [0usize, 9, 40, 77, 300] {
            flip(&mut expect, p);
        }
        assert_eq!(recv, expect);
    }

    #[test]
    fn rejects_wrong_buffer_sizes() {
        let c = code(10, 32, 2);
        let mut short = vec![0u8; 31];
        assert!(matches!(
            c.encode(&short),
            Err(BchError::BufferSize {
                what: "message",
                ..
            })
        ));
        let mut parity = vec![0u8; c.parity_bytes() + 1];
        assert!(matches!(
            c.decode(&mut short, &mut parity),
            Err(BchError::BufferSize { .. })
        ));
    }

    #[test]
    fn code_too_long_rejected() {
        let field = Arc::new(GfField::new(8).unwrap());
        // k = 248 bits + r(t=2) = 16 > 255.
        assert!(matches!(
            BchCode::new(field, 248, 2),
            Err(BchError::CodeTooLong { .. })
        ));
    }

    #[test]
    fn geometry_accessors() {
        let c = code(13, 512, 4);
        assert_eq!(c.message_bits(), 4096);
        assert_eq!(c.parity_bits(), 52);
        assert_eq!(c.parity_bytes(), 7);
        assert_eq!(c.codeword_bits(), 4148);
        assert!(c.rate() > 0.98 && c.rate() < 1.0);
    }

    #[test]
    fn error_in_final_partial_parity_byte() {
        // r % 8 != 0 exercises the serial syndrome tail and bit mapping.
        let c = code(13, 64, 3); // r = 39 bits -> 5 bytes, 1 bit tail
        assert_eq!(c.parity_bits() % 8, 7);
        let msg = vec![0xAAu8; 64];
        let mut parity = c.encode(&msg).unwrap();
        let mut recv = msg.clone();
        let last = c.parity_bits() - 1; // final parity bit
        flip(&mut parity, last);
        let out = c.decode(&mut recv, &mut parity).unwrap();
        assert!(matches!(
            out,
            DecodeOutcome::Corrected { bit_errors: 1, .. }
        ));
        assert_eq!(
            c.decode(&mut recv, &mut parity).unwrap(),
            DecodeOutcome::Clean
        );
    }

    /// Table bytes per production code over GF(2^16), pinned so that a
    /// footprint change is a deliberate one, on every CPU: the one-word
    /// LFSR's `16 x 256` words of position tables or, from two words up,
    /// the fold's `2 x 18 x W + W + 1`, and the residue lane's
    /// `t x (W + 2)` words of division constants, `t x 4 x 16` evaluation
    /// entries and 64 squaring entries (`W = ceil(16 t / 64)`).
    #[test]
    fn table_footprint_per_code_is_pinned() {
        let field = Arc::new(GfField::new(16).unwrap());
        for (t, lfsr_bytes, syndrome_bytes) in
            [(3, 32 << 10, 584), (14, 1_192, 2_592), (65, 5_040, 18_328)]
        {
            let code = BchCode::new(field.clone(), 4096 * 8, t).unwrap();
            let Lfsr::Fused(encoder) = &code.lfsr else {
                panic!("the default kernel is the production one");
            };
            assert_eq!(encoder.table_bytes(), lfsr_bytes, "t = {t}");
            assert_eq!(code.syndromes.table_bytes(), syndrome_bytes, "t = {t}");
        }
    }

    /// `t = 70` over GF(2^16) (a user-set `ecc_tmax` past the paper's 65):
    /// 1 120 parity bits, an 18-word register that folds with its state on
    /// the heap, and a decode that corrects all 70 errors of a 4 KiB page.
    #[test]
    fn a_register_wider_than_the_papers_encodes_and_corrects_t_errors() {
        let c = code(16, 4096, 70);
        assert_eq!(c.parity_bits(), 1_120);
        let mut rng = StdRng::seed_from_u64(70);
        let msg: Vec<u8> = (0..4096).map(|_| rng.random()).collect();
        let mut parity = c.encode(&msg).unwrap();
        let reference =
            BchCode::new_with_kernel(c.field.clone(), 4096 * 8, 70, CodecKernel::Reference);
        assert_eq!(reference.unwrap().encode(&msg).unwrap(), parity);
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < 70 {
            positions.insert(rng.random_range(0..c.codeword_bits()));
        }
        let mut recv = msg.clone();
        for &p in &positions {
            if p < c.message_bits() {
                flip(&mut recv, p);
            } else {
                flip(&mut parity, p - c.message_bits());
            }
        }
        let out = c.decode(&mut recv, &mut parity).unwrap();
        assert!(
            matches!(out, DecodeOutcome::Corrected { bit_errors: 70, .. }),
            "{out:?}"
        );
        assert_eq!(recv, msg);
        assert_eq!(
            c.decode(&mut recv, &mut parity).unwrap(),
            DecodeOutcome::Clean
        );
    }

    #[test]
    fn default_kernel_is_top_rung() {
        let c = code(11, 64, 4);
        assert_eq!(c.kernel(), CodecKernel::Fused);
        let field = Arc::new(GfField::new(11).unwrap());
        let r = BchCode::new_with_kernel(field, 64 * 8, 4, CodecKernel::Reference).unwrap();
        assert_eq!(r.kernel(), CodecKernel::Reference);
    }

    #[test]
    fn every_kernel_decodes_identically() {
        let field = Arc::new(GfField::new(12).unwrap());
        let codes = [CodecKernel::Reference, CodecKernel::Fused]
            .map(|k| BchCode::new_with_kernel(field.clone(), 96 * 8, 5, k).unwrap());
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..6 {
            let msg: Vec<u8> = (0..96).map(|_| rng.random()).collect();
            let parity0 = codes[0].encode(&msg).unwrap();
            // 0..=t+2 errors: clean, correctable and uncorrectable cases.
            let weight = trial;
            let mut positions = std::collections::BTreeSet::new();
            while positions.len() < weight {
                positions.insert(rng.random_range(0..codes[0].codeword_bits()));
            }
            let mut outcomes = Vec::new();
            for c in &codes {
                assert_eq!(
                    c.encode(&msg).unwrap(),
                    parity0,
                    "encode kernel {}",
                    c.kernel()
                );
                let mut recv = msg.clone();
                let mut parity = parity0.clone();
                for &p in &positions {
                    if p < c.message_bits() {
                        flip(&mut recv, p);
                    } else {
                        flip(&mut parity, p - c.message_bits());
                    }
                }
                let out = c.decode(&mut recv, &mut parity).unwrap();
                outcomes.push((out, recv, parity));
            }
            for (o, r, p) in &outcomes[1..] {
                assert_eq!(o, &outcomes[0].0, "trial {trial}");
                assert_eq!(r, &outcomes[0].1, "trial {trial}");
                assert_eq!(p, &outcomes[0].2, "trial {trial}");
            }
        }
    }

    #[test]
    fn outcome_helpers() {
        assert!(DecodeOutcome::Clean.is_success());
        assert!(!DecodeOutcome::Uncorrectable.is_success());
        assert_eq!(DecodeOutcome::Clean.corrected_bits(), 0);
        let c = DecodeOutcome::Corrected {
            bit_errors: 3,
            message_bit_errors: 2,
            positions: vec![1, 2, 3],
        };
        assert!(c.is_success());
        assert_eq!(c.corrected_bits(), 3);
    }
}
