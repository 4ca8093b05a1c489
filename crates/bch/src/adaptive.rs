//! Runtime-adaptable BCH codec (the paper's Section 4 architecture).
//!
//! The paper's controller envisions "an integrated reliability manager
//! collecting and elaborating ... feedback from the ECC sub-system". That
//! feedback is the [`DecodeOutcome`] each decode returns: the caller folds
//! it (the controller hands it on in its read report), so the codec keeps
//! no counter of its own.

use std::fmt;
use std::sync::Arc;

use mlcx_gf2::{minpoly::GeneratorTable, GfField};

use crate::code::{BchCode, DecodeOutcome};
use crate::error::BchError;
use crate::kernel::CodecKernel;

/// BCH codec with correction capability programmable at runtime.
///
/// Holds the generator-polynomial ROM for `t = 1..=tmax` and lazily
/// instantiates the per-`t` datapath (encoder tables + syndrome tables) on
/// first use, mirroring how the hardware multiplexes one physical LFSR
/// across ROM-selected tap sets.
///
/// The DATE 2012 instantiation is
/// [`AdaptiveBch::date2012`]: GF(2^16), `k = 32768` (4 KiB page),
/// `t = 3..=65`.
///
/// # Example
///
/// ```
/// use mlcx_bch::AdaptiveBch;
///
/// let mut codec = AdaptiveBch::new(13, 128 * 8, 1, 6)?;
/// assert_eq!(codec.correction(), 1); // starts at tmin
/// codec.set_correction(5)?;
/// assert_eq!(codec.parity_bytes(), codec.code()?.parity_bytes());
/// # Ok::<(), mlcx_bch::BchError>(())
/// ```
#[derive(Clone)]
pub struct AdaptiveBch {
    field: Arc<GfField>,
    k_bits: usize,
    tmin: u32,
    tmax: u32,
    kernel: CodecKernel,
    rom: GeneratorTable,
    codes: Vec<Option<Arc<BchCode>>>,
    current_t: u32,
}

impl AdaptiveBch {
    /// Builds an adaptive codec over GF(2^m) for `k_bits` message bits with
    /// capability range `tmin..=tmax`.
    ///
    /// # Errors
    ///
    /// * [`BchError::Field`] for unsupported `m`;
    /// * [`BchError::CorrectionOutOfRange`] when `tmin` is 0 or exceeds `tmax`;
    /// * [`BchError::MessageNotByteAligned`] / [`BchError::CodeTooLong`]
    ///   when the worst-case code does not fit the field.
    pub fn new(m: u32, k_bits: usize, tmin: u32, tmax: u32) -> Result<Self, BchError> {
        Self::new_with_kernel(m, k_bits, tmin, tmax, CodecKernel::default())
    }

    /// Like [`AdaptiveBch::new`] with an explicit codec kernel applied to
    /// every per-`t` code instance.
    ///
    /// # Errors
    ///
    /// See [`AdaptiveBch::new`].
    pub fn new_with_kernel(
        m: u32,
        k_bits: usize,
        tmin: u32,
        tmax: u32,
        kernel: CodecKernel,
    ) -> Result<Self, BchError> {
        let field = Arc::new(GfField::new(m)?);
        if tmin == 0 || tmin > tmax {
            return Err(BchError::CorrectionOutOfRange {
                t: tmin,
                tmin: 1,
                tmax,
            });
        }
        if !k_bits.is_multiple_of(8) || k_bits == 0 {
            return Err(BchError::MessageNotByteAligned { k_bits });
        }
        let rom = GeneratorTable::new(&field, tmax);
        // Worst case must fit: k + deg(g_tmax) <= 2^m - 1.
        let worst_r = rom.get(tmax).degree().unwrap_or(0);
        let n_full = field.order() as usize;
        if k_bits + worst_r > n_full {
            return Err(BchError::CodeTooLong {
                k_bits,
                r_bits: worst_r,
                n_full,
            });
        }
        Ok(AdaptiveBch {
            field,
            k_bits,
            tmin,
            tmax,
            kernel,
            rom,
            codes: vec![None; tmax as usize],
            current_t: tmin,
        })
    }

    /// The paper's configuration: 4 KiB page over GF(2^16), `t = 3..=65`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (none occur for these parameters).
    pub fn date2012() -> Result<Self, BchError> {
        Self::new(16, 4096 * 8, 3, 65)
    }

    /// The message length in bits.
    pub fn message_bits(&self) -> usize {
        self.k_bits
    }

    /// Lower bound of the capability range.
    pub fn tmin(&self) -> u32 {
        self.tmin
    }

    /// Upper bound of the capability range.
    pub fn tmax(&self) -> u32 {
        self.tmax
    }

    /// The currently selected correction capability.
    pub fn correction(&self) -> u32 {
        self.current_t
    }

    /// The codec kernel every code instance runs.
    pub fn kernel(&self) -> CodecKernel {
        self.kernel
    }

    /// Selects a new correction capability (the dedicated input port of the
    /// paper's adaptable block).
    ///
    /// # Errors
    ///
    /// [`BchError::CorrectionOutOfRange`] outside `tmin..=tmax`.
    pub fn set_correction(&mut self, t: u32) -> Result<(), BchError> {
        if t < self.tmin || t > self.tmax {
            return Err(BchError::CorrectionOutOfRange {
                t,
                tmin: self.tmin,
                tmax: self.tmax,
            });
        }
        self.current_t = t;
        Ok(())
    }

    /// The code instance for the current capability (lazily constructed).
    ///
    /// # Errors
    ///
    /// Propagates the code construction's errors (none occur for
    /// parameters validated at construction).
    pub fn code(&mut self) -> Result<Arc<BchCode>, BchError> {
        self.code_for(self.current_t)
    }

    /// The code instance for an arbitrary capability in range.
    ///
    /// # Errors
    ///
    /// [`BchError::CorrectionOutOfRange`] outside `tmin..=tmax`.
    pub fn code_for(&mut self, t: u32) -> Result<Arc<BchCode>, BchError> {
        if t < self.tmin || t > self.tmax {
            return Err(BchError::CorrectionOutOfRange {
                t,
                tmin: self.tmin,
                tmax: self.tmax,
            });
        }
        let idx = (t - 1) as usize;
        if self.codes[idx].is_none() {
            let code = BchCode::with_generator_kernel(
                self.field.clone(),
                self.k_bits,
                t,
                self.rom.get(t).clone(),
                self.kernel,
            )?;
            self.codes[idx] = Some(Arc::new(code));
        }
        Ok(self.codes[idx].as_ref().unwrap().clone())
    }

    /// Parity bytes at the current capability.
    pub fn parity_bytes(&self) -> usize {
        self.parity_bytes_for(self.current_t)
    }

    /// Parity bytes for capability `t` (from the ROM, without building the
    /// datapath).
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `1..=tmax`.
    pub(crate) fn parity_bytes_for(&self, t: u32) -> usize {
        self.rom.get(t).degree().unwrap_or(0).div_ceil(8)
    }

    /// Worst-case parity bytes (`t = tmax`) — the spare-area budget.
    pub fn max_parity_bytes(&self) -> usize {
        self.parity_bytes_for(self.tmax)
    }

    /// Encodes a page at the current capability, returning parity bytes.
    ///
    /// # Errors
    ///
    /// [`BchError::BufferSize`] when `message` is not `k/8` bytes.
    pub fn encode(&mut self, message: &[u8]) -> Result<Vec<u8>, BchError> {
        self.code()?.encode(message)
    }

    /// Decodes a page in place at the current capability.
    ///
    /// # Errors
    ///
    /// [`BchError::BufferSize`] on wrong buffer lengths; uncorrectable
    /// pages are reported through [`DecodeOutcome::Uncorrectable`].
    pub fn decode(
        &mut self,
        message: &mut [u8],
        parity: &mut [u8],
    ) -> Result<DecodeOutcome, BchError> {
        self.code()?.decode(message, parity)
    }

    /// The underlying field.
    pub fn field(&self) -> &Arc<GfField> {
        &self.field
    }
}

impl fmt::Debug for AdaptiveBch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveBch")
            .field("m", &self.field.degree())
            .field("k_bits", &self.k_bits)
            .field("t_range", &(self.tmin..=self.tmax))
            .field("current_t", &self.current_t)
            .field("kernel", &self.kernel)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_tmin_and_validates_range() {
        let mut c = AdaptiveBch::new(10, 64 * 8, 2, 6).unwrap();
        assert_eq!(c.correction(), 2);
        assert!(c.set_correction(6).is_ok());
        assert!(matches!(
            c.set_correction(7),
            Err(BchError::CorrectionOutOfRange { t: 7, .. })
        ));
        assert!(matches!(
            c.set_correction(1),
            Err(BchError::CorrectionOutOfRange { t: 1, .. })
        ));
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(AdaptiveBch::new(10, 64 * 8, 0, 5).is_err());
        assert!(AdaptiveBch::new(10, 64 * 8, 6, 5).is_err());
        assert!(AdaptiveBch::new(10, 63, 1, 5).is_err()); // not byte aligned
        assert!(AdaptiveBch::new(8, 240, 1, 3).is_err()); // too long
        assert!(AdaptiveBch::new(1, 64, 1, 2).is_err()); // bad field
    }

    #[test]
    fn reconfiguration_changes_parity_footprint() {
        let mut c = AdaptiveBch::new(13, 512 * 8, 1, 8).unwrap();
        c.set_correction(1).unwrap();
        let p1 = c.parity_bytes();
        c.set_correction(8).unwrap();
        let p8 = c.parity_bytes();
        assert!(p8 > p1);
        assert_eq!(c.max_parity_bytes(), p8);
    }

    #[test]
    fn encode_decode_after_capability_switch() {
        let mut c = AdaptiveBch::new(13, 256 * 8, 1, 6).unwrap();
        let msg = vec![0x11u8; 256];
        for t in [1u32, 3, 6, 2] {
            c.set_correction(t).unwrap();
            let mut parity = c.encode(&msg).unwrap();
            let mut recv = msg.clone();
            // inject exactly t errors
            for i in 0..t as usize {
                recv[i * 11] ^= 0x20;
            }
            let out = c.decode(&mut recv, &mut parity).unwrap();
            assert_eq!(out.corrected_bits(), t as usize, "t={t}");
            assert_eq!(recv, msg);
        }
    }

    #[test]
    fn each_decode_reports_its_own_outcome() {
        let mut c = AdaptiveBch::new(10, 32 * 8, 1, 4).unwrap();
        c.set_correction(2).unwrap();
        let msg = vec![0u8; 32];
        let mut parity = c.encode(&msg).unwrap();
        let mut recv = msg.clone();
        assert_eq!(
            c.decode(&mut recv, &mut parity).unwrap(),
            DecodeOutcome::Clean
        );
        recv[0] ^= 0x80;
        let out = c.decode(&mut recv, &mut parity).unwrap();
        assert!(matches!(out, DecodeOutcome::Corrected { .. }));
        assert_eq!(out.corrected_bits(), 1);
    }

    #[test]
    fn code_instances_are_cached() {
        let mut c = AdaptiveBch::new(10, 32 * 8, 1, 4).unwrap();
        let a = c.code_for(3).unwrap();
        let b = c.code_for(3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn kernel_propagates_to_code_instances() {
        let mut auto = AdaptiveBch::new(10, 32 * 8, 1, 4).unwrap();
        assert_eq!(auto.kernel(), CodecKernel::Fused);
        assert_eq!(auto.code_for(2).unwrap().kernel(), CodecKernel::Fused);
        let mut refc =
            AdaptiveBch::new_with_kernel(10, 32 * 8, 1, 4, CodecKernel::Reference).unwrap();
        assert_eq!(refc.kernel(), CodecKernel::Reference);
        assert_eq!(refc.code_for(2).unwrap().kernel(), CodecKernel::Reference);
    }
}
