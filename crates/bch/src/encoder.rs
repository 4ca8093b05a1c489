//! Systematic BCH encoding through a programmable parallel LFSR.
//!
//! The hardware described in the paper (after Chen et al. \[28\]) computes
//! parity as the remainder `m(x) * x^r mod g(x)` with an `r`-bit LFSR whose
//! feedback taps are selected by multiplexers from a generator-polynomial
//! ROM. The datapath consumes the message `p` bits per clock, so encode
//! latency is `k/p` cycles **independent of the selected `t`** — the
//! software model mirrors that with a table-driven parallel step.
//!
//! How many message bits one step folds is derived from the register
//! width `r = deg g`, not chosen: a step of `8*lanes` bits reads that many
//! bits off the top of the register, so it needs `r >= 8*lanes`.
//!
//! * `r >= 64` — 64 bits/step via eight position tables (slicing-by-8,
//!   after the CRC slicing technique);
//! * `32 <= r < 64` — 32 bits/step via four position tables;
//! * `8 <= r < 32` — 8 bits/step via one 256-entry table;
//! * `r < 8` — 1 bit/step.
//!
//! The bit-serial step is also what [`crate::CodecKernel::Reference`] runs
//! at every width, as the oracle. All widths compute the identical
//! remainder polynomial.

use mlcx_gf2::Gf2Poly;

use crate::bitreg::BitReg;

/// Datapath width of the [`LfsrEncoder`] (bits folded per step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EncodeLane {
    /// Bit-serial stepping (the oracle, and registers narrower than a byte).
    Bit,
    /// One byte per step through a 256-entry table.
    Byte,
    /// Four bytes per step (slicing-by-4); requires `r >= 32`.
    Slice4,
    /// Eight bytes per step (slicing-by-8); requires `r >= 64`.
    Slice8,
}

impl EncodeLane {
    /// Bytes consumed per sliced step (0 for the serial lanes).
    fn slice_bytes(self) -> usize {
        match self {
            EncodeLane::Bit | EncodeLane::Byte => 0,
            EncodeLane::Slice4 => 4,
            EncodeLane::Slice8 => 8,
        }
    }

    /// The widest lane the register width `r` supports.
    fn widest_for(r_bits: usize) -> EncodeLane {
        if r_bits >= 64 {
            EncodeLane::Slice8
        } else if r_bits >= 32 {
            EncodeLane::Slice4
        } else if r_bits >= 8 {
            EncodeLane::Byte
        } else {
            EncodeLane::Bit
        }
    }
}

/// Parallel LFSR engine for one fixed generator polynomial.
///
/// `step_table[v]` holds `(v(x) * x^r) mod g(x)`: folding one message byte
/// into the remainder costs one table lookup plus one 8-bit shift — the
/// software analogue of the hardware's 8-bit-parallel LFSR network. The
/// sliced lanes extend this with per-byte-position tables
/// `slice_table[j][v] = (v(x) * x^(r + 8*(lanes-1-j))) mod g(x)` so one
/// step folds 4 or 8 message bytes with independent lookups.
#[derive(Debug, Clone)]
pub struct LfsrEncoder {
    r_bits: usize,
    words_per_entry: usize,
    lane: EncodeLane,
    /// Flattened 256-entry table; entry `v` occupies
    /// `step_table[v*words_per_entry .. (v+1)*words_per_entry]`. Built
    /// whenever `r >= 8` (the sliced lanes fall back to it for tail bytes).
    step_table: Vec<u64>,
    /// Flattened `slice_bytes x 256` position tables for the sliced lanes
    /// (empty otherwise); byte position `j`, entry `v` occupies
    /// `slice_table[(j*256 + v)*words_per_entry ..][..words_per_entry]`.
    slice_table: Vec<u64>,
    /// Low `r` bits of the generator (g without the x^r term), for the
    /// bit-serial lane.
    feedback: Vec<u64>,
}

impl LfsrEncoder {
    /// Builds the engine for generator polynomial `g` (degree = parity
    /// bits), stepping as wide as the register allows.
    ///
    /// # Panics
    ///
    /// Panics if `g` is constant (degree < 1).
    pub fn new(generator: &Gf2Poly) -> Self {
        Self::with_lane(
            generator,
            EncodeLane::widest_for(Self::degree_of(generator)),
        )
    }

    /// Builds the bit-serial engine [`crate::CodecKernel::Reference`] runs.
    ///
    /// # Panics
    ///
    /// Panics if `g` is constant (degree < 1).
    pub(crate) fn bit_serial(generator: &Gf2Poly) -> Self {
        Self::with_lane(generator, EncodeLane::Bit)
    }

    fn degree_of(generator: &Gf2Poly) -> usize {
        generator
            .degree()
            .filter(|&d| d >= 1)
            .expect("generator polynomial must have degree >= 1")
    }

    /// `lane` must not be wider than [`EncodeLane::widest_for`] allows.
    fn with_lane(generator: &Gf2Poly, lane: EncodeLane) -> Self {
        let r_bits = Self::degree_of(generator);
        let words_per_entry = r_bits.div_ceil(64).max(1);
        let fill = |table: &mut [u64], v: u64, idx: usize, shift: usize| {
            let rem = Gf2Poly::from_int(v).shl(shift).rem(generator);
            let dst = &mut table[idx * words_per_entry..(idx + 1) * words_per_entry];
            for (i, w) in rem.as_words().iter().enumerate() {
                dst[i] = *w;
            }
        };
        let mut step_table = Vec::new();
        if r_bits >= 8 {
            step_table = vec![0u64; 256 * words_per_entry];
            for v in 0u64..256 {
                fill(&mut step_table, v, v as usize, r_bits);
            }
        }
        let lanes = lane.slice_bytes();
        let mut slice_table = Vec::new();
        if lanes > 0 {
            slice_table = vec![0u64; lanes * 256 * words_per_entry];
            for j in 0..lanes {
                let shift = r_bits + 8 * (lanes - 1 - j);
                for v in 0u64..256 {
                    fill(&mut slice_table, v, j * 256 + v as usize, shift);
                }
            }
        }
        let mut fb = generator.clone();
        fb.set_coeff(r_bits, false);
        let mut feedback = vec![0u64; words_per_entry];
        for (i, w) in fb.as_words().iter().enumerate() {
            feedback[i] = *w;
        }
        LfsrEncoder {
            r_bits,
            words_per_entry,
            lane,
            step_table,
            slice_table,
            feedback,
        }
    }

    /// Number of parity bits `r` (the generator degree).
    pub fn parity_bits(&self) -> usize {
        self.r_bits
    }

    /// Number of bytes needed to store the parity (`ceil(r/8)`).
    pub fn parity_bytes(&self) -> usize {
        self.r_bits.div_ceil(8)
    }

    /// Computes `m(x) * x^r mod g(x)` for a byte-aligned message.
    ///
    /// Message bit 0 (byte 0, MSB) is the coefficient of `x^(k-1)`.
    /// Returns the remainder as parity bytes, MSB-first (parity byte 0 bit 7
    /// is the coefficient of `x^(r-1)`); when `r` is not a multiple of 8 the
    /// low bits of the last byte are zero padding.
    pub fn remainder(&self, message: &[u8]) -> Vec<u8> {
        let mut state = BitReg::zero(self.r_bits);
        self.fold_bytes(&mut state, message);
        self.emit(&state)
    }

    /// Folds additional parity bytes into a running remainder — used by the
    /// decoder's zero-syndrome shortcut, where the full received codeword
    /// (message then parity) must reduce to zero mod `g`.
    ///
    /// Returns `true` when the received codeword is a valid codeword.
    pub fn codeword_is_valid(&self, message: &[u8], parity: &[u8]) -> bool {
        self.codeword_state(message, parity).is_zero()
    }

    /// The LFSR state after folding the whole received codeword:
    /// `received(x) * x^r mod g(x)`. Zero iff the codeword is valid; the
    /// fused decode derives all `2t` syndromes from this one state
    /// (`S_i = state(beta_i) * beta_i^(-r)`).
    pub(crate) fn codeword_state(&self, message: &[u8], parity: &[u8]) -> BitReg {
        let mut state = BitReg::zero(self.r_bits);
        self.fold_bytes(&mut state, message);
        let full = self.r_bits / 8;
        self.fold_bytes(&mut state, &parity[..full]);
        for j in 0..self.r_bits % 8 {
            self.step_bit(&mut state, parity[full] >> (7 - j) & 1 == 1);
        }
        state
    }

    /// Serializes an LFSR state in the parity-byte layout (MSB-first).
    pub(crate) fn state_bytes(&self, state: &BitReg) -> Vec<u8> {
        self.emit(state)
    }

    fn fold_bytes(&self, state: &mut BitReg, bytes: &[u8]) {
        let lanes = self.lane.slice_bytes();
        let tail = match self.lane {
            EncodeLane::Bit => bytes,
            EncodeLane::Byte => {
                for &byte in bytes {
                    self.step_byte(state, byte);
                }
                return;
            }
            EncodeLane::Slice4 | EncodeLane::Slice8 => {
                let mut chunks = bytes.chunks_exact(lanes);
                for chunk in &mut chunks {
                    self.step_slice(state, chunk);
                }
                for &byte in chunks.remainder() {
                    self.step_byte(state, byte);
                }
                return;
            }
        };
        for &byte in tail {
            for j in (0..8).rev() {
                self.step_bit(state, byte >> j & 1 == 1);
            }
        }
    }

    fn step_byte(&self, state: &mut BitReg, byte: u8) {
        let v = (state.top8() ^ byte) as usize;
        state.shl8();
        state.xor(&self.step_table[v * self.words_per_entry..(v + 1) * self.words_per_entry]);
    }

    fn step_slice(&self, state: &mut BitReg, chunk: &[u8]) {
        let lanes = chunk.len();
        let top = state.top_bits(8 * lanes);
        state.shln(8 * lanes);
        for (j, &byte) in chunk.iter().enumerate() {
            let v = ((top >> (8 * (lanes - 1 - j))) as u8 ^ byte) as usize;
            let base = (j * 256 + v) * self.words_per_entry;
            state.xor(&self.slice_table[base..base + self.words_per_entry]);
        }
    }

    fn step_bit(&self, state: &mut BitReg, bit: bool) {
        let fb = state.bit(self.r_bits - 1) ^ bit;
        state.shl1();
        if fb {
            state.xor(&self.feedback);
            // x^r term of g folds back as the low taps; bit 0 toggles too
            // because g always has a nonzero constant term for BCH codes.
        }
    }

    fn emit(&self, state: &BitReg) -> Vec<u8> {
        let mut out = vec![0u8; self.parity_bytes()];
        for v in 0..self.r_bits {
            if state.bit(self.r_bits - 1 - v) {
                out[v / 8] |= 1 << (7 - v % 8);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcx_gf2::{minpoly::generator_poly, GfField};

    /// Reference remainder via polynomial arithmetic.
    fn reference_remainder(message: &[u8], g: &Gf2Poly) -> Vec<u8> {
        let r = g.degree().unwrap();
        let k = message.len() * 8;
        let mut m = Gf2Poly::zero();
        for (u, &byte) in message.iter().enumerate() {
            for j in 0..8 {
                if byte >> (7 - j) & 1 == 1 {
                    m.set_coeff(k - 1 - (u * 8 + j), true);
                }
            }
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

    #[test]
    fn matches_polynomial_reference_gf16() {
        let f = GfField::new(4).unwrap();
        let g = generator_poly(&f, 1); // x^4 + x + 1, r = 4 < 8: bit-serial
        let enc = LfsrEncoder::new(&g);
        assert_eq!(enc.lane, EncodeLane::Bit);
        let msg = [0b1011_0010u8];
        assert_eq!(enc.remainder(&msg), reference_remainder(&msg, &g));
    }

    #[test]
    fn matches_polynomial_reference_gf256() {
        let f = GfField::new(8).unwrap();
        for t in [1u32, 2, 3, 5] {
            let g = generator_poly(&f, t);
            let enc = LfsrEncoder::new(&g);
            let msg: Vec<u8> = (0..24).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(
                enc.remainder(&msg),
                reference_remainder(&msg, &g),
                "t = {t}"
            );
        }
    }

    #[test]
    fn every_lane_matches_the_polynomial_reference() {
        // r = 13*6 = 78 supports Slice8; message lengths exercise the
        // chunk remainders of both sliced lanes.
        let f = GfField::new(13).unwrap();
        let g = generator_poly(&f, 6);
        for lane in [
            EncodeLane::Bit,
            EncodeLane::Byte,
            EncodeLane::Slice4,
            EncodeLane::Slice8,
        ] {
            let enc = LfsrEncoder::with_lane(&g, lane);
            for len in [1usize, 3, 4, 7, 8, 9, 16, 33, 64] {
                let msg: Vec<u8> = (0..len).map(|i| (i * 151 + 29) as u8).collect();
                assert_eq!(
                    enc.remainder(&msg),
                    reference_remainder(&msg, &g),
                    "lane {lane:?}, len {len}"
                );
            }
        }
    }

    #[test]
    fn lane_follows_the_register_width() {
        let f = GfField::new(10).unwrap();
        for (t, r, lane) in [
            (3, 30, EncodeLane::Byte),   // r < 32
            (5, 50, EncodeLane::Slice4), // Slice4 fits, Slice8 not
            (7, 70, EncodeLane::Slice8),
        ] {
            let g = generator_poly(&f, t);
            assert_eq!(g.degree(), Some(r));
            assert_eq!(LfsrEncoder::new(&g).lane, lane, "r = {r}");
            assert_eq!(LfsrEncoder::bit_serial(&g).lane, EncodeLane::Bit);
        }
    }

    #[test]
    fn zero_message_zero_parity() {
        let f = GfField::new(10).unwrap();
        let g = generator_poly(&f, 4);
        let enc = LfsrEncoder::new(&g);
        let parity = enc.remainder(&[0u8; 64]);
        assert!(parity.iter().all(|&b| b == 0));
    }

    #[test]
    fn encoder_is_linear() {
        let f = GfField::new(9).unwrap();
        let g = generator_poly(&f, 3);
        let enc = LfsrEncoder::new(&g);
        let a: Vec<u8> = (0..32).map(|i| (i * 13 + 7) as u8).collect();
        let b: Vec<u8> = (0..32).map(|i| (i * 29 + 3) as u8).collect();
        let sum: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let pa = enc.remainder(&a);
        let pb = enc.remainder(&b);
        let psum = enc.remainder(&sum);
        let xored: Vec<u8> = pa.iter().zip(&pb).map(|(x, y)| x ^ y).collect();
        assert_eq!(psum, xored);
    }

    #[test]
    fn systematic_codeword_validates_in_every_lane() {
        let f = GfField::new(11).unwrap();
        let g = generator_poly(&f, 6);
        let msg: Vec<u8> = (0..100).map(|i| (i * 101 + 55) as u8).collect();
        for lane in [
            EncodeLane::Bit,
            EncodeLane::Byte,
            EncodeLane::Slice4,
            EncodeLane::Slice8,
        ] {
            let enc = LfsrEncoder::with_lane(&g, lane);
            let parity = enc.remainder(&msg);
            assert!(enc.codeword_is_valid(&msg, &parity), "lane {lane:?}");
            // Any single flipped bit must invalidate it.
            let mut bad = msg.clone();
            bad[50] ^= 0x08;
            assert!(!enc.codeword_is_valid(&bad, &parity), "lane {lane:?}");
        }
    }

    #[test]
    fn codeword_state_is_lane_invariant() {
        let f = GfField::new(13).unwrap();
        let g = generator_poly(&f, 8);
        let msg: Vec<u8> = (0..64).map(|i| (i * 73 + 5) as u8).collect();
        let reference = LfsrEncoder::bit_serial(&g);
        let mut parity = reference.remainder(&msg);
        parity[2] ^= 0x10; // corrupt so the state is nonzero
        let expect = reference.state_bytes(&reference.codeword_state(&msg, &parity));
        for lane in [EncodeLane::Byte, EncodeLane::Slice4, EncodeLane::Slice8] {
            let enc = LfsrEncoder::with_lane(&g, lane);
            let got = enc.state_bytes(&enc.codeword_state(&msg, &parity));
            assert_eq!(got, expect, "lane {lane:?}");
        }
    }

    #[test]
    fn parity_sizes() {
        let f = GfField::new(13).unwrap();
        let g = generator_poly(&f, 2);
        let enc = LfsrEncoder::new(&g);
        assert_eq!(enc.parity_bits(), 26);
        assert_eq!(enc.parity_bytes(), 4);
    }
}
