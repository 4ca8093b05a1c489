//! The bit-serial LFSR [`crate::CodecKernel::Reference`] runs, and its
//! register — the oracle the production pass in [`crate::encoder`] is held
//! against. One message bit per step, straight from the definition of
//! polynomial division; it shares no table, no register layout and no step
//! code with the production pass, so a differential test between the two
//! compares two independent derivations of `m(x) * x^r mod g(x)`.

use mlcx_gf2::Gf2Poly;

/// An `r`-bit register packed LSB-first into `u64` words.
///
/// Bit `i` holds the coefficient of `x^i` of the running remainder, so the
/// register is exactly the serial LFSR state of the hardware encoder.
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

    pub(crate) fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub(crate) fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Shift left by one bit position, discarding the bit that leaves the
    /// `r`-bit register.
    pub(crate) fn shl1(&mut self) {
        let mut carry = 0;
        for w in &mut self.words {
            (*w, carry) = (*w << 1 | carry, *w >> 63);
        }
        let used = self.bits % 64;
        if used != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << used) - 1;
        }
    }

    pub(crate) fn xor(&mut self, rhs: &[u64]) {
        debug_assert_eq!(rhs.len(), self.words.len());
        for (w, &r) in self.words.iter_mut().zip(rhs) {
            *w ^= r;
        }
    }
}

/// Bit-serial LFSR for one fixed generator polynomial: the same two
/// questions [`crate::encoder::LfsrEncoder`] answers, one bit per step.
#[derive(Debug, Clone)]
pub(crate) struct BitSerialLfsr {
    r_bits: usize,
    /// Low `r` bits of the generator (g without the x^r term).
    feedback: Vec<u64>,
}

impl BitSerialLfsr {
    /// # Panics
    ///
    /// Panics if `g` is constant (degree < 1).
    pub(crate) fn new(generator: &Gf2Poly) -> Self {
        let r_bits = generator
            .degree()
            .filter(|&d| d >= 1)
            .expect("generator polynomial must have degree >= 1");
        let mut fb = generator.clone();
        fb.set_coeff(r_bits, false);
        let mut feedback = vec![0u64; r_bits.div_ceil(64)];
        feedback[..fb.as_words().len()].copy_from_slice(fb.as_words());
        BitSerialLfsr { r_bits, feedback }
    }

    /// `m(x) * x^r mod g(x)` as parity bytes, MSB-first, zero-padded.
    pub(crate) fn remainder(&self, message: &[u8]) -> Vec<u8> {
        let mut state = BitReg::zero(self.r_bits);
        self.fold(&mut state, message, 8 * message.len());
        let mut out = vec![0u8; self.r_bits.div_ceil(8)];
        for v in 0..self.r_bits {
            if state.bit(self.r_bits - 1 - v) {
                out[v / 8] |= 1 << (7 - v % 8);
            }
        }
        out
    }

    /// `true` when `g` divides the received codeword: `message` followed by
    /// the top `r` bits of `parity` leaves the register at zero.
    pub(crate) fn codeword_is_valid(&self, message: &[u8], parity: &[u8]) -> bool {
        let mut state = BitReg::zero(self.r_bits);
        self.fold(&mut state, message, 8 * message.len());
        self.fold(&mut state, parity, self.r_bits);
        state.is_zero()
    }

    /// Steps the first `count` bits of `bytes` (MSB-first) through `state`.
    fn fold(&self, state: &mut BitReg, bytes: &[u8], count: usize) {
        for u in 0..count {
            let bit = bytes[u / 8] >> (7 - u % 8) & 1 == 1;
            // The bit leaving the top is the x^r term: it folds back as the
            // low taps of g.
            let fb = state.bit(self.r_bits - 1) ^ bit;
            state.shl1();
            if fb {
                state.xor(&self.feedback);
            }
        }
    }
}

/// `m(x) * x^r mod g(x)` by `Gf2Poly` long division, in the parity-byte
/// layout: the definition both LFSRs are tested against.
#[cfg(test)]
pub(crate) fn long_division_remainder(message: &[u8], g: &Gf2Poly) -> Vec<u8> {
    let r = g.degree().unwrap();
    let k = message.len() * 8;
    let mut m = Gf2Poly::zero();
    for u in 0..k {
        m.set_coeff(k - 1 - u, message[u / 8] >> (7 - u % 8) & 1 == 1);
    }
    let rem = m.shl(r).rem(g);
    let mut out = vec![0u8; r.div_ceil(8)];
    for v in 0..r {
        if rem.coeff(r - 1 - v) {
            out[v / 8] |= 1 << (7 - v % 8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shl1_crosses_the_word_seam_and_drops_the_top_bit() {
        let mut reg = BitReg::zero(80);
        reg.words[0] = 1 << 63;
        reg.shl1();
        assert!(reg.bit(64) && !reg.bit(63));
        let mut top = BitReg::zero(80);
        top.words[1] = 1 << 15; // bit 79, the register's last
        top.shl1();
        assert!(top.is_zero());
        let mut narrow = BitReg::zero(12);
        narrow.words[0] = 0xFFF;
        narrow.shl1();
        assert_eq!(narrow.words[0], 0xFFE);
    }

    #[test]
    fn matches_long_division_across_the_word_seams() {
        // x^r + x^(r-1) + x^3 + 1 keeps the top tap and the low taps busy
        // at register widths on, just past and well past a word boundary.
        for r in [7usize, 63, 64, 65, 128, 130] {
            let g = Gf2Poly::from_exponents(&[r, r - 1, 3, 0]);
            let lfsr = BitSerialLfsr::new(&g);
            let msg: Vec<u8> = (0..37).map(|i| (i * 73 + 5) as u8).collect();
            let parity = lfsr.remainder(&msg);
            assert_eq!(parity, long_division_remainder(&msg, &g), "r = {r}");
            assert!(lfsr.codeword_is_valid(&msg, &parity), "r = {r}");
        }
    }

    #[test]
    fn divides_by_the_definition() {
        // g = x^4 + x + 1; 0xB2 * x^4 mod g by hand-checkable long division.
        let g = Gf2Poly::from_int(0b1_0011);
        let lfsr = BitSerialLfsr::new(&g);
        let rem = Gf2Poly::from_int(0xB2).shl(4).rem(&g);
        let parity = lfsr.remainder(&[0xB2]);
        assert_eq!(u64::from(parity[0] >> 4), rem.as_words()[0]);
        assert_eq!(parity[0] & 0x0F, 0, "pad bits are zero");
        assert!(lfsr.codeword_is_valid(&[0xB2], &parity));
        // The pad bits of the last parity byte are not part of the codeword.
        assert!(lfsr.codeword_is_valid(&[0xB2], &[parity[0] | 0x0F]));
        assert!(!lfsr.codeword_is_valid(&[0xB2], &[parity[0] ^ 0x10]));
    }
}
