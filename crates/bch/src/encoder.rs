//! Systematic BCH encoding through a programmable parallel LFSR.
//!
//! The hardware described in the paper (after Chen et al. \[28\]) computes
//! parity as the remainder `m(x) * x^r mod g(x)` with an `r`-bit LFSR whose
//! feedback taps are selected by multiplexers from a generator-polynomial
//! ROM. The datapath consumes the message `p` bits per clock, so encode
//! latency is `k/p` cycles **independent of the selected `t`** — the
//! software model mirrors that with one table-driven step that folds 64
//! message bits at every register width `r = deg g`.
//!
//! What lets one step serve every `r` is the register's alignment. The
//! running remainder `s(x)` lives in `W = ceil(r/64)` words, most
//! significant first, **left-aligned**: the words hold `s(x) * x^pad` with
//! `pad = 64*W - r`, i.e. the pass works modulo `G = g * x^pad`, whose
//! degree is a whole number of words whatever `r` is. Folding the next
//! 8 message bytes `c` is then
//!
//! ```text
//! idx   = state[0] ^ be64(c)    // the 64 coefficients leaving the top
//! state = state << 64           // a word move: no bit shift, no mask
//! state ^= T_0[idx byte 0] ^ T_1[idx byte 1] ^ .. ^ T_7[idx byte 7]
//! ```
//!
//! with `T_j[v] = ((v(x) * x^(r + 8*(7-j))) mod g) * x^pad` (slicing-by-8,
//! after the CRC technique). A right-aligned register would have to pull
//! those 64 coefficients off the top of an `r`-bit field — impossible
//! below `r = 64`, a cross-word extract, a bit shift and a mask above —
//! which is why no width here needs a narrower step. A tail of fewer than
//! 8 bytes steps bytewise through `T_7` alone, and the finished register
//! read out big-endian, cut to `ceil(r/8)` bytes, *is* the parity layout.
//!
//! Registers of up to four words (`t <= 16` over GF(2^16)) run the step on
//! the stack from a `[u64; W]` monomorph of the one body; wider ones run
//! the same body over a slice, where the table traffic (8 rows of `W`
//! words per step) is what the time is.
//!
//! [`crate::CodecKernel::Reference`] does not come through here: its
//! bit-serial LFSR is `bitreg.rs`, which shares nothing with this module.

use mlcx_gf2::Gf2Poly;

/// Parallel LFSR engine for one fixed generator polynomial.
#[derive(Debug, Clone)]
pub struct LfsrEncoder {
    r_bits: usize,
    /// Register width `W = ceil(r/64)` in words.
    words: usize,
    /// Flattened `8 x 256 x W` position tables: byte position `j`, value
    /// `v` occupies `tables[(j*256 + v)*W..][..W]`, most significant word
    /// first.
    tables: Vec<u64>,
}

impl LfsrEncoder {
    /// Builds the engine for generator polynomial `g` (degree = parity
    /// bits).
    ///
    /// # Panics
    ///
    /// Panics if `g` is constant (degree < 1).
    pub fn new(generator: &Gf2Poly) -> Self {
        let r_bits = generator
            .degree()
            .filter(|&d| d >= 1)
            .expect("generator polynomial must have degree >= 1");
        let words = r_bits.div_ceil(64);
        // G = g * x^pad has degree 64*W; its lower terms, most significant
        // word first, are x^(64*W) mod G = (x^r mod g) * x^pad = T_7[1].
        let scaled = generator.shl(64 * words - r_bits);
        let feedback: Vec<u64> = scaled.as_words()[..words].iter().rev().copied().collect();
        let at = |j: usize, v: usize| (j * 256 + v) * words;
        let mut tables = vec![0u64; 8 * 256 * words];
        // T_7[2^i] = (x^(r+i) mod g) * x^pad: i multiplications by x mod G.
        let mut reg = feedback.clone();
        for i in 0..8 {
            tables[at(7, 1 << i)..][..words].copy_from_slice(&reg);
            let carry = reg[0] >> 63 == 1;
            shl(&mut reg, 1);
            if carry {
                xor(&mut reg, &feedback);
            }
        }
        // Every table is linear in v.
        for v in 1..256usize {
            let (rest, low) = (v & (v - 1), v & v.wrapping_neg());
            for i in 0..words {
                tables[at(7, v) + i] = tables[at(7, rest) + i] ^ tables[at(7, low) + i];
            }
        }
        // T_j[v] = T_(j+1)[v] * x^8 mod G: one byte step with a zero byte.
        for j in (0..7).rev() {
            for v in 0..256 {
                reg.copy_from_slice(&tables[at(j + 1, v)..][..words]);
                step_byte(&tables[at(7, 0)..], &mut reg, 0);
                tables[at(j, v)..][..words].copy_from_slice(&reg);
            }
        }
        LfsrEncoder {
            r_bits,
            words,
            tables,
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
        self.with_remainder(message, |reg| self.parity_image(reg))
    }

    /// Returns `true` when the received codeword (message, then the top
    /// `r` bits of `parity`) is a multiple of `g` — the decoder's
    /// zero-syndrome shortcut.
    ///
    /// # Panics
    ///
    /// Panics if `parity` is shorter than [`Self::parity_bytes`].
    pub fn codeword_is_valid(&self, message: &[u8], parity: &[u8]) -> bool {
        self.received_remainder(message, parity).is_none()
    }

    /// `received(x) mod g(x)` in the parity-byte layout, `None` when it is
    /// zero (a valid codeword — no allocation on that path for `W <= 4`).
    /// The received word is `m'(x) * x^r + p'(x)` with `deg p' < r`, so its
    /// remainder is the message's plus the received parity, and the
    /// syndromes are this one `r`-bit polynomial evaluated at the roots.
    pub(crate) fn received_remainder(&self, message: &[u8], parity: &[u8]) -> Option<Vec<u8>> {
        let parity = &parity[..self.parity_bytes()];
        self.with_remainder(message, |reg| {
            for (word, bytes) in reg.iter_mut().zip(parity.chunks(8)) {
                let mut be = [0u8; 8];
                be[..bytes.len()].copy_from_slice(bytes);
                *word ^= u64::from_be_bytes(be);
            }
            // When r % 8 != 0 the low bits of the last parity byte are not
            // codeword bits: whatever was read there must not make a valid
            // codeword look dirty.
            reg[self.words - 1] &= !0 << (64 * self.words - self.r_bits);
            reg.iter().any(|&w| w != 0).then(|| self.parity_image(reg))
        })
    }

    /// Runs the pass over `message` and hands `then` the finished register,
    /// which lives on the stack up to four words.
    fn with_remainder<R>(&self, message: &[u8], then: impl FnOnce(&mut [u64]) -> R) -> R {
        match self.words {
            1 => then(&mut self.narrow::<1>(message)),
            2 => then(&mut self.narrow::<2>(message)),
            3 => then(&mut self.narrow::<3>(message)),
            4 => then(&mut self.narrow::<4>(message)),
            wide => {
                let mut reg = vec![0u64; wide];
                self.wide(&mut reg, message);
                then(&mut reg)
            }
        }
    }

    fn narrow<const W: usize>(&self, message: &[u8]) -> [u64; W] {
        let mut reg = [0u64; W];
        fold(&self.tables, &mut reg, message);
        reg
    }

    /// The slice loop, compiled on its own: inlined beside the four stack
    /// bodies it came out a quarter slower at `W = 8`.
    #[inline(never)]
    fn wide(&self, reg: &mut [u64], message: &[u8]) {
        fold(&self.tables, reg, message);
    }

    /// The register's top `r` bits as parity bytes.
    fn parity_image(&self, reg: &[u64]) -> Vec<u8> {
        let mut out = vec![0u8; self.parity_bytes()];
        for (bytes, word) in out.chunks_mut(8).zip(reg) {
            bytes.copy_from_slice(&word.to_be_bytes()[..bytes.len()]);
        }
        out
    }
}

/// The pass: folds `message` into the left-aligned register `reg`, 8 bytes
/// per step, then the tail bytewise. Inlined into each caller so that a
/// `[u64; W]` register unrolls into scalars — and written with loops and
/// `#[inline(always)]` helpers only: a closure in the step (`array::map`,
/// `from_fn`, `Iterator::fold`) is inlined at the optimiser's discretion,
/// and each one tried was outlined, at up to 2.5x the pass time.
#[inline(always)]
fn fold(tables: &[u64], reg: &mut [u64], message: &[u8]) {
    let w = reg.len();
    // One length check here lets every row lookup below go unchecked.
    let tables = &tables[..8 * 256 * w];
    let (chunks, tail) = message.as_chunks::<8>();
    for chunk in chunks {
        let idx = reg[0] ^ u64::from_be_bytes(*chunk);
        let mut rows = [&tables[..w]; 8];
        for (j, row) in rows.iter_mut().enumerate() {
            let v = (idx >> (56 - 8 * j)) as u8 as usize;
            *row = &tables[(j * 256 + v) * w..][..w];
        }
        // The word move and the XOR in one sweep: word i takes word i + 1.
        for i in 0..w - 1 {
            reg[i] = reg[i + 1] ^ sum(&rows, i);
        }
        reg[w - 1] = sum(&rows, w - 1);
    }
    for &byte in tail {
        step_byte(&tables[7 * 256 * w..], reg, byte);
    }
}

/// Word `i` of the eight selected rows, summed.
#[inline(always)]
fn sum(rows: &[&[u64]; 8], i: usize) -> u64 {
    let mut acc = 0;
    for row in rows {
        acc ^= row[i];
    }
    acc
}

/// One byte through `T_7`: the 8 coefficients leaving the top select the
/// row, the register moves up 8 bits.
#[inline(always)]
fn step_byte(t7: &[u64], reg: &mut [u64], byte: u8) {
    let v = ((reg[0] >> 56) as u8 ^ byte) as usize;
    shl(reg, 8);
    xor(reg, &t7[v * reg.len()..][..reg.len()]);
}

/// Shifts the register left by `k` bits (`0 < k < 64`), dropping what
/// leaves the top.
#[inline(always)]
fn shl(reg: &mut [u64], k: u32) {
    for i in 0..reg.len() {
        let below = reg.get(i + 1).map_or(0, |&next| next >> (64 - k));
        reg[i] = reg[i] << k | below;
    }
}

#[inline(always)]
fn xor(reg: &mut [u64], row: &[u64]) {
    for (w, &t) in reg.iter_mut().zip(row) {
        *w ^= t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitreg::{long_division_remainder, BitSerialLfsr};
    use mlcx_gf2::{minpoly::generator_poly, GfField};
    use proptest::prelude::*;

    /// One generator per register class: `(m, t, r, W)`. r < 8; one word
    /// with and without pad bits in the last parity byte; r = 64 exactly;
    /// r = 65; r = 128; multi-word with `r % 64 != 0` at W = 2, 3, 4; the
    /// slice loop at W = 5 and at the paper's t = 65 (W = 17).
    const CLASSES: [(u32, u32, usize, usize); 13] = [
        (4, 1, 4, 1),
        (5, 1, 5, 1),
        (13, 3, 39, 1),
        (16, 3, 48, 1),
        (16, 4, 64, 1),
        (13, 5, 65, 2),
        (13, 6, 78, 2),
        (16, 8, 128, 2),
        (13, 11, 143, 3),
        (16, 12, 192, 3),
        (16, 14, 224, 4),
        (16, 17, 272, 5),
        (16, 65, 1040, 17),
    ];

    fn class_generator(m: u32, t: u32, r: usize, words: usize) -> Gf2Poly {
        let g = generator_poly(&GfField::new(m).unwrap(), t);
        assert_eq!(g.degree(), Some(r), "GF(2^{m}), t = {t}");
        assert_eq!(r.div_ceil(64), words);
        g
    }

    fn payload(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 151 + salt * 29 + 7) as u8).collect()
    }

    #[test]
    fn tables_match_the_polynomial_definition() {
        // T_j[v] == ((v * x^(r + 8*(7-j))) mod g) << pad, every entry.
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let enc = LfsrEncoder::new(&g);
            assert_eq!(enc.tables.len(), 8 * 256 * words);
            for j in 0..8 {
                for v in 0..256usize {
                    let rem = Gf2Poly::from_int(v as u64)
                        .shl(r + 8 * (7 - j))
                        .rem(&g)
                        .shl(64 * words - r);
                    let mut expect = vec![0u64; words];
                    for (i, &w) in rem.as_words().iter().enumerate() {
                        expect[words - 1 - i] = w;
                    }
                    let got = &enc.tables[(j * 256 + v) * words..][..words];
                    assert_eq!(got, &expect[..], "r = {r}, T_{j}[{v}]");
                }
            }
        }
    }

    #[test]
    fn every_register_class_matches_the_oracle_and_long_division() {
        // Lengths cover len < 8 and every len % 8, so both the 8-byte step
        // and each tail length run in the stack bodies and the slice loop;
        // the last is the paper's page.
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let enc = LfsrEncoder::new(&g);
            let oracle = BitSerialLfsr::new(&g);
            assert_eq!((enc.parity_bits(), enc.parity_bytes()), (r, r.div_ceil(8)));
            for len in [
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 20, 33, 64, 70, 127, 4096,
            ] {
                let msg = payload(len, r);
                let parity = enc.remainder(&msg);
                assert_eq!(parity, oracle.remainder(&msg), "r = {r}, len {len}");
                assert_eq!(
                    parity,
                    long_division_remainder(&msg, &g),
                    "r = {r}, len {len}"
                );
                assert!(enc.codeword_is_valid(&msg, &parity), "r = {r}, len {len}");
                assert_eq!(enc.received_remainder(&msg, &parity), None);
            }
        }
    }

    #[test]
    fn any_single_flip_invalidates_the_codeword() {
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let enc = LfsrEncoder::new(&g);
            let oracle = BitSerialLfsr::new(&g);
            // Short enough that no flip lands on another codeword: n stays
            // inside the code length 2^m - 1.
            let len = ((1usize << m) - 1 - r) / 8;
            let len = len.min(if r == 1040 { 3 } else { 21 });
            let msg = payload(len, words);
            let parity = enc.remainder(&msg);
            for u in 0..8 * len + r {
                let (mut bad_msg, mut bad_parity) = (msg.clone(), parity.clone());
                if u < 8 * len {
                    bad_msg[u / 8] ^= 1 << (7 - u % 8);
                } else {
                    let v = u - 8 * len;
                    bad_parity[v / 8] ^= 1 << (7 - v % 8);
                }
                assert!(
                    !enc.codeword_is_valid(&bad_msg, &bad_parity),
                    "r = {r}, flip {u}"
                );
                assert!(!oracle.codeword_is_valid(&bad_msg, &bad_parity));
            }
        }
    }

    #[test]
    fn pad_bits_of_the_last_parity_byte_are_not_codeword_bits() {
        for (m, t, r, words) in CLASSES {
            let pad_bits = 8 * r.div_ceil(8) - r;
            let g = class_generator(m, t, r, words);
            let enc = LfsrEncoder::new(&g);
            let msg = payload(1, r);
            let clean = enc.remainder(&msg);
            let last = clean.len() - 1;
            assert_eq!(clean[last] & ((1 << pad_bits) - 1), 0, "zero padding");
            for pattern in 0..1u8 << pad_bits {
                let mut parity = clean.clone();
                parity[last] |= pattern;
                assert!(enc.codeword_is_valid(&msg, &parity), "r = {r}");
                // A real error beside them: the remainder comes back with
                // the pad bits masked off, whatever they were.
                parity[0] ^= 0x80;
                let mut expect = vec![0u8; clean.len()];
                expect[0] = 0x80;
                assert_eq!(enc.received_remainder(&msg, &parity), Some(expect));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The pass is polynomial division, BCH or not: any generator of
        /// any degree — so every `r % 64` and every `r % 8`, not only the
        /// multiples of `m` the BCH classes reach — and any message length.
        #[test]
        fn random_generators_match_the_oracle_and_long_division(
            r in 1usize..=330,
            len in 0usize..=41,
            seed in any::<u64>(),
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = Gf2Poly::from_words((0..r.div_ceil(64)).map(|_| rng.random()).collect());
            for high in r..64 * r.div_ceil(64) {
                g.set_coeff(high, false);
            }
            g.set_coeff(r, true);
            let msg: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            let enc = LfsrEncoder::new(&g);
            let parity = enc.remainder(&msg);
            prop_assert_eq!(&parity, &long_division_remainder(&msg, &g));
            prop_assert_eq!(&parity, &BitSerialLfsr::new(&g).remainder(&msg));
            prop_assert!(enc.codeword_is_valid(&msg, &parity));
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
    #[should_panic(expected = "degree >= 1")]
    fn constant_generator_is_rejected() {
        LfsrEncoder::new(&Gf2Poly::one());
    }
}
