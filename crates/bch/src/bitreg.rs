//! Fixed-width bit register used as the LFSR remainder state.
//!
//! The accessors the LFSR steps call once per bit, byte or slice are
//! `#[inline]`: that compiles them with the encoder's step loop as one
//! body. Without it they are inlined only if rustc happens to place this
//! module in the encoder's codegen unit, which any size change elsewhere
//! in the crate can undo (measured: 4 % of clean-page throughput).

/// An `r`-bit register packed LSB-first into `u64` words.
///
/// Bit `i` holds the coefficient of `x^i` of the running remainder, so the
/// register is exactly the parallel LFSR state of the hardware encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitReg {
    words: Vec<u64>,
    bits: usize,
}

impl BitReg {
    pub(crate) fn zero(bits: usize) -> Self {
        BitReg {
            words: vec![0; bits.div_ceil(64).max(1)],
            bits,
        }
    }

    #[cfg(test)]
    pub(crate) fn from_words(words: &[u64], bits: usize) -> Self {
        let mut reg = BitReg::zero(bits);
        for (i, &w) in words.iter().enumerate().take(reg.words.len()) {
            reg.words[i] = w;
        }
        reg.mask_top();
        reg
    }

    #[cfg(test)]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    #[inline]
    pub(crate) fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The top 8 bits (coefficients `x^(r-1) .. x^(r-8)`), MSB-first.
    ///
    /// Requires `r >= 8`.
    #[inline]
    pub(crate) fn top8(&self) -> u8 {
        self.top_bits(8) as u8
    }

    /// The top `count` bits (coefficients `x^(r-1) .. x^(r-count)`),
    /// MSB-first in the returned value. Requires `count <= 64 <= ...` —
    /// precisely `1 <= count <= 64` and `r >= count`.
    #[inline]
    pub(crate) fn top_bits(&self, count: usize) -> u64 {
        debug_assert!((1..=64).contains(&count) && self.bits >= count);
        let lo = self.bits - count;
        let (w, off) = (lo / 64, lo % 64);
        let mut v = self.words[w] >> off;
        if off != 0 && w + 1 < self.words.len() {
            v |= self.words[w + 1] << (64 - off);
        }
        if count < 64 {
            v &= (1u64 << count) - 1;
        }
        v
    }

    /// Shift the register left by 8 bit positions, discarding overflow.
    #[inline]
    pub(crate) fn shl8(&mut self) {
        self.shln(8);
    }

    /// Shift left by one bit position, discarding overflow.
    #[inline]
    pub(crate) fn shl1(&mut self) {
        self.shln(1);
    }

    /// Shift left by `k` bit positions (`1 <= k <= 64`), discarding
    /// overflow — the wide step of the sliced LFSR datapaths.
    #[inline]
    pub(crate) fn shln(&mut self, k: usize) {
        debug_assert!((1..=64).contains(&k));
        let n = self.words.len();
        if k == 64 {
            for i in (1..n).rev() {
                self.words[i] = self.words[i - 1];
            }
            self.words[0] = 0;
        } else {
            for i in (0..n).rev() {
                let lo = if i == 0 {
                    0
                } else {
                    self.words[i - 1] >> (64 - k)
                };
                self.words[i] = self.words[i] << k | lo;
            }
        }
        self.mask_top();
    }

    #[inline]
    pub(crate) fn xor(&mut self, rhs: &[u64]) {
        debug_assert_eq!(rhs.len(), self.words.len());
        for (w, &r) in self.words.iter_mut().zip(rhs) {
            *w ^= r;
        }
    }

    #[inline]
    fn mask_top(&mut self) {
        let used = self.bits % 64;
        if used != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << used) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top8_reads_msb_first() {
        let mut reg = BitReg::zero(16);
        // Set bits 15 (MSB) and 9.
        reg.words[0] = 1 << 15 | 1 << 9;
        assert_eq!(reg.top8(), 0b1000_0010);
    }

    #[test]
    fn shl8_drops_overflow() {
        let mut reg = BitReg::zero(12);
        reg.words[0] = 0xFFF;
        reg.shl8();
        assert_eq!(reg.words[0], 0xF00);
    }

    #[test]
    fn shl_across_word_boundary() {
        let mut reg = BitReg::zero(80);
        reg.words[0] = 1 << 60;
        reg.shl8();
        assert!(reg.bit(68));
        assert!(!reg.bit(60));
        let mut reg1 = BitReg::zero(80);
        reg1.words[0] = 1 << 63;
        reg1.shl1();
        assert!(reg1.bit(64));
    }

    #[test]
    fn from_words_masks_extra_bits() {
        let reg = BitReg::from_words(&[u64::MAX], 10);
        assert_eq!(reg.words()[0], 0x3FF);
    }

    #[test]
    fn top_bits_matches_bit_reads() {
        // r = 100 puts the top-32/top-64 windows across the word seam.
        let reg = BitReg::from_words(&[0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210], 100);
        for count in [1usize, 7, 8, 31, 32, 33, 63, 64] {
            let got = reg.top_bits(count);
            let mut expect = 0u64;
            for j in 0..count {
                expect <<= 1;
                if reg.bit(100 - 1 - j) {
                    expect |= 1;
                }
            }
            assert_eq!(got, expect, "count = {count}");
        }
    }

    #[test]
    fn shln_matches_repeated_shl1() {
        for k in [2usize, 8, 13, 32, 63, 64] {
            let mut wide = BitReg::from_words(&[0x9E37_79B9_7F4A_7C15, 0x2545_F491_4F6C_DD1D], 90);
            let mut serial = wide.clone();
            wide.shln(k);
            for _ in 0..k {
                serial.shl1();
            }
            assert_eq!(wide, serial, "k = {k}");
        }
    }
}
