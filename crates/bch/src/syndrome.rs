//! Syndrome computation (first stage of the BCH decoding flow, Fig. 2).
//!
//! The hardware computes the `2t` syndromes by dividing the received
//! codeword by the `2t` factor polynomials of the generator and evaluating
//! the remainders in GF(2^m). The software model evaluates the received
//! polynomial directly at `alpha^1 .. alpha^2t` — numerically identical,
//! and it preserves the defining property the decoder relies on: *all
//! syndromes are zero iff the codeword is valid*. Two lanes:
//!
//! * [`SyndromeLane::Bit`] — definition-level bit-serial Horner at every
//!   one of the `2t` roots (what [`crate::CodecKernel::Reference`] runs
//!   over the whole codeword);
//! * [`SyndromeLane::Byte`] — Horner one byte per fold via 256-entry
//!   tables, at the `t` odd roots only, four roots in flight at a time;
//!   the even syndromes are squares, `S_2k = S_k^2`, because squaring is
//!   additive in characteristic 2 and fixes the binary coefficients:
//!   `r(x)^2 = r(x^2)` for every received polynomial `r` over GF(2).
//!
//! The production decode ([`crate::CodecKernel::Fused`]) does not walk the
//! codeword here at all. Since `received(x) = q(x) g(x) + rem(x)` and
//! `g(beta_i) = 0`, `S_i = rem(beta_i)`: it hands the byte lane the
//! `r`-bit remainder `received mod g` (the LFSR pass over the message plus
//! the received parity) with an empty message, so a wider fold would have
//! nothing to speed up.

use std::sync::Arc;

use mlcx_gf2::GfField;

/// Horner step width of the [`SyndromeCalculator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyndromeLane {
    /// Bit-serial evaluation straight from the definition.
    Bit,
    /// Byte-parallel table fold at the odd roots, squares for the even.
    #[default]
    Byte,
}

/// Odd-root Horner chains the byte lane keeps in flight: each fold is a
/// log lookup, an add and an antilog lookup in sequence, and independent
/// chains overlap that latency.
const CHAINS: usize = 4;

/// Parallel syndrome evaluator for syndromes `S_1 .. S_2t`.
#[derive(Debug, Clone)]
pub struct SyndromeCalculator {
    field: Arc<GfField>,
    two_t: usize,
    lane: SyndromeLane,
    /// Byte lane: `pow8[k]` = `alpha^(8*(2k+1))`, the byte fold factor of
    /// the odd syndrome `S_(2k+1)`.
    pow8: Vec<u32>,
    /// Byte lane, flattened `t x 256`: entry `[k][b]` is the contribution
    /// of message byte `b` to `S_(2k+1)` before folding.
    tables: Vec<u32>,
}

impl SyndromeCalculator {
    /// Builds the evaluator for correction capability `t` with the default
    /// byte lane.
    pub fn new(field: Arc<GfField>, t: u32) -> Self {
        Self::with_lane(field, t, SyndromeLane::Byte)
    }

    /// Builds the evaluator with an explicit Horner lane.
    pub fn with_lane(field: Arc<GfField>, t: u32, lane: SyndromeLane) -> Self {
        let two_t = (2 * t) as usize;
        // One fold factor and one table per odd root, byte lane only.
        let rows = match lane {
            SyndromeLane::Bit => 0,
            SyndromeLane::Byte => t as usize,
        };
        let mut pow8 = Vec::with_capacity(rows);
        let mut tables = vec![0u32; rows * 256];
        for (k, table) in tables.chunks_exact_mut(256).enumerate() {
            let beta = field.alpha_pow((2 * k + 1) as i64);
            pow8.push(field.pow(beta, 8));
            // Powers beta^0..beta^7 index the bit positions within a byte.
            let mut pows = [0u32; 8];
            for (bitpos, p) in pows.iter_mut().enumerate() {
                *p = field.pow(beta, bitpos as i64);
            }
            for b in 1usize..256 {
                let low = b.trailing_zeros() as usize;
                table[b] = table[b & (b - 1)] ^ pows[low];
            }
        }
        SyndromeCalculator {
            field,
            two_t,
            lane,
            pow8,
            tables,
        }
    }

    /// Number of syndromes produced (`2t`).
    pub fn count(&self) -> usize {
        self.two_t
    }

    /// The Horner lane this evaluator runs.
    pub fn lane(&self) -> SyndromeLane {
        self.lane
    }

    /// Evaluates all syndromes of the received codeword.
    ///
    /// The codeword is the concatenation of `message` (fully used) and the
    /// top `parity_bits` bits of `parity` (MSB-first within each byte).
    /// Returns `S_1 .. S_2t`.
    pub fn compute(&self, message: &[u8], parity: &[u8], parity_bits: usize) -> Vec<u32> {
        let f = &self.field;
        // Parity: full bytes, then the trailing partial byte bit-serially.
        let (parity, tail) = parity.split_at(parity_bits / 8);
        let tail_bits = || (0..parity_bits % 8).map(|j| (tail[0] >> (7 - j) & 1) as u32);
        let mut syn = vec![0u32; self.two_t];
        match self.lane {
            SyndromeLane::Bit => {
                for (i, syn_i) in syn.iter_mut().enumerate() {
                    let beta = f.alpha_pow((i + 1) as i64);
                    let bits = message
                        .iter()
                        .chain(parity)
                        .flat_map(|&byte| (0..8).rev().map(move |j| (byte >> j & 1) as u32));
                    *syn_i = bits
                        .chain(tail_bits())
                        .fold(0, |s, bit| f.mul(s, beta) ^ bit);
                }
            }
            SyndromeLane::Byte => {
                let t = self.two_t / 2;
                for first in (0..t).step_by(CHAINS) {
                    // A short last group re-runs root t-1 in its spare chains.
                    let ks: [usize; CHAINS] = std::array::from_fn(|c| (first + c).min(t - 1));
                    let fold = ks.map(|k| self.pow8[k]);
                    let table = ks.map(|k| &self.tables[k * 256..][..256]);
                    let mut s = [0u32; CHAINS];
                    for bytes in [message, parity] {
                        for &byte in bytes {
                            for c in 0..CHAINS {
                                s[c] = f.mul(s[c], fold[c]) ^ table[c][byte as usize];
                            }
                        }
                    }
                    for (c, &k) in ks.iter().enumerate() {
                        let beta = f.alpha_pow((2 * k + 1) as i64);
                        syn[2 * k] = tail_bits().fold(s[c], |s, bit| f.mul(s, beta) ^ bit);
                    }
                }
                // S_2k = S_k^2, ascending so S_k is final when it is read.
                for k in 1..=t {
                    syn[2 * k - 1] = f.mul(syn[k - 1], syn[k - 1]);
                }
            }
        }
        syn
    }

    /// `true` when every syndrome is zero (valid codeword).
    pub fn all_zero(syndromes: &[u32]) -> bool {
        syndromes.iter().all(|&s| s == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcx_gf2::minpoly::generator_poly;

    /// Direct (bit-serial, definition-level) syndrome evaluation.
    fn reference_syndromes(
        field: &GfField,
        t: u32,
        message: &[u8],
        parity: &[u8],
        parity_bits: usize,
    ) -> Vec<u32> {
        let mut bits = Vec::new();
        for &b in message {
            for j in (0..8).rev() {
                bits.push(b >> j & 1);
            }
        }
        for v in 0..parity_bits {
            bits.push(parity[v / 8] >> (7 - v % 8) & 1);
        }
        (1..=2 * t)
            .map(|i| {
                let beta = field.alpha_pow(i as i64);
                bits.iter()
                    .fold(0u32, |acc, &b| field.mul(acc, beta) ^ b as u32)
            })
            .collect()
    }

    #[test]
    fn matches_reference_evaluation() {
        let field = Arc::new(GfField::new(10).unwrap());
        let t = 3;
        let calc = SyndromeCalculator::new(field.clone(), t);
        let msg: Vec<u8> = (0..40).map(|i| (i * 57 + 13) as u8).collect();
        let g = generator_poly(&field, t);
        let r = g.degree().unwrap();
        let parity = vec![0xC3u8; r.div_ceil(8)];
        assert_eq!(
            calc.compute(&msg, &parity, r),
            reference_syndromes(&field, t, &msg, &parity, r)
        );
    }

    #[test]
    fn every_lane_matches_the_reference() {
        let field = Arc::new(GfField::new(13).unwrap());
        let t = 4;
        let g = generator_poly(&field, t);
        let r = g.degree().unwrap();
        let parity: Vec<u8> = (0..r.div_ceil(8)).map(|i| (i * 91 + 17) as u8).collect();
        for len in [1usize, 2, 7, 8, 31, 32] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 201 + 3) as u8).collect();
            let expect = reference_syndromes(&field, t, &msg, &parity, r);
            for lane in [SyndromeLane::Bit, SyndromeLane::Byte] {
                let calc = SyndromeCalculator::with_lane(field.clone(), t, lane);
                assert_eq!(calc.lane(), lane);
                assert_eq!(
                    calc.compute(&msg, &parity, r),
                    expect,
                    "lane {lane:?}, len {len}"
                );
            }
        }
    }

    /// Message + parity with a partial tail byte, and the fused call shape
    /// (no message, the remainder register as "parity"), at odd and even
    /// `t` and with `t` on, below and above a multiple of the byte lane's
    /// chain count — every one of the `2t` values, the squared ones too.
    #[test]
    fn byte_lane_matches_bit_lane_on_every_syndrome() {
        let field = Arc::new(GfField::new(13).unwrap());
        for t in [1u32, 2, 3, 4, 5, 7, 8, 9, 14, 15] {
            let bit = SyndromeCalculator::with_lane(field.clone(), t, SyndromeLane::Bit);
            let byte = SyndromeCalculator::with_lane(field.clone(), t, SyndromeLane::Byte);
            assert_eq!(byte.count(), 2 * t as usize);
            let r = 13 * t as usize; // a multiple of 8 only at t = 8
            let parity: Vec<u8> = (0..r.div_ceil(8)).map(|i| (i * 91 + 17) as u8).collect();
            let msg: Vec<u8> = (0..37).map(|i| (i * 201 + 3) as u8).collect();
            for message in [&msg[..], &[]] {
                assert_eq!(
                    byte.compute(message, &parity, r),
                    bit.compute(message, &parity, r),
                    "t {t}, message bytes {}",
                    message.len()
                );
            }
        }
    }

    /// The premise of the byte lane's shortcut, on the lane that does not
    /// use it: a polynomial over GF(2) satisfies `r(x)^2 = r(x^2)`.
    #[test]
    fn even_syndromes_are_squares_on_the_bit_lane() {
        let field = Arc::new(GfField::new(11).unwrap());
        let t = 6;
        let calc = SyndromeCalculator::with_lane(field.clone(), t, SyndromeLane::Bit);
        let msg: Vec<u8> = (0..50).map(|i| (i * 7 + 111) as u8).collect();
        let parity: Vec<u8> = (0..9).map(|i| (i * 59 + 5) as u8).collect();
        let syn = calc.compute(&msg, &parity, 11 * t as usize);
        for k in 1..=t as usize {
            assert_eq!(
                syn[2 * k - 1],
                field.mul(syn[k - 1], syn[k - 1]),
                "S_{}",
                2 * k
            );
        }
    }

    #[test]
    fn received_remainder_evaluates_to_the_syndromes() {
        // S_i = (received mod g)(beta_i) must equal the syndromes computed
        // over the whole corrupted codeword, pad bits of the last parity
        // byte (r = 33: seven of them) set or not.
        let field = Arc::new(GfField::new(11).unwrap());
        let t = 3;
        let g = generator_poly(&field, t);
        let r = g.degree().unwrap();
        let enc = crate::encoder::LfsrEncoder::new(&g);
        let calc = SyndromeCalculator::new(field.clone(), t);
        let mut msg: Vec<u8> = (0..50).map(|i| (i * 7 + 111) as u8).collect();
        let mut parity = enc.remainder(&msg);
        msg[10] ^= 0x42; // corrupt
        parity[1] ^= 0x08;
        for pad in [0x00, 0x7F] {
            parity[4] |= pad;
            let direct = calc.compute(&msg, &parity, r);
            let rem = enc.received_remainder(&msg, &parity).unwrap();
            assert_eq!(calc.compute(&[], &rem, r), direct);
        }
    }

    /// Only the top `parity_bits` bits of `parity` are codeword bits: what
    /// sits in the pad bits of its last byte reaches no syndrome, on either
    /// lane (the benchmark's staged replay XORs raw spare bytes, padding
    /// included, into the remainder it evaluates here).
    #[test]
    fn pad_bits_of_the_last_parity_byte_reach_no_syndrome() {
        let field = Arc::new(GfField::new(13).unwrap());
        let (t, r) = (3, 39);
        let msg: Vec<u8> = (0..20).map(|i| (i * 57 + 13) as u8).collect();
        let parity = [0x5D, 0xFB, 0xD1, 0x8F, 0x76];
        for lane in [SyndromeLane::Bit, SyndromeLane::Byte] {
            let calc = SyndromeCalculator::with_lane(field.clone(), t, lane);
            let expect = calc.compute(&msg, &parity, r);
            let mut padded = parity;
            padded[4] |= 0x01;
            assert_eq!(calc.compute(&msg, &padded, r), expect, "lane {lane:?}");
            padded[4] ^= 0x02; // the last real bit does
            assert_ne!(calc.compute(&msg, &padded, r), expect, "lane {lane:?}");
        }
    }

    #[test]
    fn valid_codeword_has_zero_syndromes() {
        let field = Arc::new(GfField::new(9).unwrap());
        let t = 4;
        let g = generator_poly(&field, t);
        let enc = crate::encoder::LfsrEncoder::new(&g);
        let calc = SyndromeCalculator::new(field.clone(), t);
        let msg: Vec<u8> = (0..30).map(|i| (i * 7 + 201) as u8).collect();
        let parity = enc.remainder(&msg);
        let syn = calc.compute(&msg, &parity, enc.parity_bits());
        assert!(SyndromeCalculator::all_zero(&syn), "syndromes: {syn:?}");
    }

    #[test]
    fn single_error_gives_power_syndromes() {
        // With an error at codeword exponent e, S_i = alpha^(i*e).
        let field = Arc::new(GfField::new(8).unwrap());
        let t = 2;
        let calc = SyndromeCalculator::new(field.clone(), t);
        let k_bits = 64usize;
        let r_bits = 16usize;
        let n = k_bits + r_bits;
        let mut msg = vec![0u8; k_bits / 8];
        let parity = vec![0u8; r_bits / 8];
        let pos = 13usize; // stream position
        msg[pos / 8] |= 1 << (7 - pos % 8);
        let e = (n - 1 - pos) as i64;
        let syn = calc.compute(&msg, &parity, r_bits);
        for (idx, &s) in syn.iter().enumerate() {
            assert_eq!(s, field.alpha_pow((idx as i64 + 1) * e), "S_{}", idx + 1);
        }
    }

    #[test]
    fn syndrome_count() {
        let field = Arc::new(GfField::new(6).unwrap());
        assert_eq!(SyndromeCalculator::new(field, 5).count(), 10);
    }

    #[test]
    fn empty_parity_tail_handled() {
        // parity_bits multiple of 8: no serial tail.
        let field = Arc::new(GfField::new(8).unwrap());
        let calc = SyndromeCalculator::new(field.clone(), 1);
        let msg = [0xFFu8; 4];
        let parity = [0x00u8, 0x00];
        let syn = calc.compute(&msg, &parity, 16);
        assert_eq!(syn, reference_syndromes(&field, 1, &msg, &parity, 16));
    }
}
