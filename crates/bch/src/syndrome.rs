//! Syndrome computation (first stage of the BCH decoding flow, Fig. 2).
//!
//! The hardware computes the `2t` syndromes by dividing the received
//! codeword by the `2t` factor polynomials of the generator and evaluating
//! the remainders in GF(2^m). The software model evaluates the received
//! polynomial directly at `alpha^1 .. alpha^2t` — numerically identical,
//! and it preserves the defining property the decoder relies on: *all
//! syndromes are zero iff the codeword is valid*. Two Horner step widths:
//!
//! * [`SyndromeLane::Bit`] — definition-level bit-serial Horner (what
//!   [`crate::CodecKernel::Reference`] runs over the whole codeword);
//! * [`SyndromeLane::Byte`] — one byte per fold via 256-entry tables.
//!
//! The production decode ([`crate::CodecKernel::Fused`]) does not walk the
//! codeword here at all: it evaluates the `r`-bit LFSR remainder with the
//! byte lane instead (see [`SyndromeCalculator::unshift_factors`]), so a
//! wider fold would have nothing to speed up.

use std::sync::Arc;

use mlcx_gf2::GfField;

/// Horner step width of the [`SyndromeCalculator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyndromeLane {
    /// Bit-serial evaluation straight from the definition.
    Bit,
    /// Byte-parallel table fold.
    #[default]
    Byte,
}

/// Parallel syndrome evaluator for syndromes `S_1 .. S_2t`.
#[derive(Debug, Clone)]
pub struct SyndromeCalculator {
    field: Arc<GfField>,
    two_t: usize,
    lane: SyndromeLane,
    /// `pow8[i]` = `alpha^(8*(i+1))`: the per-syndrome byte fold factor.
    pow8: Vec<u32>,
    /// Flattened `two_t x 256` table: entry `[i][b]` is the contribution of
    /// message byte `b` to syndrome `i+1` before folding.
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
        let mut pow8 = Vec::with_capacity(two_t);
        let mut tables = Vec::new();
        if lane == SyndromeLane::Byte {
            tables = vec![0u32; two_t * 256];
        }
        for i in 0..two_t {
            let beta = field.alpha_pow((i + 1) as i64);
            pow8.push(field.pow(beta, 8));
            if lane == SyndromeLane::Bit {
                continue;
            }
            // Powers beta^0..beta^7 index the bit positions within a byte.
            let mut pows = [0u32; 8];
            for (bitpos, p) in pows.iter_mut().enumerate() {
                *p = field.pow(beta, bitpos as i64);
            }
            let base = i * 256;
            for b in 1usize..256 {
                let low = b.trailing_zeros() as usize;
                tables[base + b] = tables[base + (b & (b - 1))] ^ pows[low];
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
        let mut syn = vec![0u32; self.two_t];
        for (i, syn_i) in syn.iter_mut().enumerate() {
            let beta = f.alpha_pow((i + 1) as i64);
            let mut s = 0u32;
            match self.lane {
                SyndromeLane::Bit => {
                    for &byte in message {
                        for j in (0..8).rev() {
                            s = f.mul(s, beta) ^ (byte >> j & 1) as u32;
                        }
                    }
                }
                SyndromeLane::Byte => {
                    let fold = self.pow8[i];
                    let tbl = &self.tables[i * 256..(i + 1) * 256];
                    for &byte in message {
                        s = f.mul(s, fold) ^ tbl[byte as usize];
                    }
                }
            }
            // Parity: full bytes then the trailing partial byte bit-serially.
            let full = parity_bits / 8;
            for &byte in &parity[..full] {
                if self.lane == SyndromeLane::Bit {
                    for j in (0..8).rev() {
                        s = f.mul(s, beta) ^ (byte >> j & 1) as u32;
                    }
                } else {
                    s = f.mul(s, self.pow8[i]) ^ self.tables[i * 256 + byte as usize];
                }
            }
            for j in 0..parity_bits % 8 {
                let bit = parity[full] >> (7 - j) & 1;
                s = f.mul(s, beta) ^ bit as u32;
            }
            *syn_i = s;
        }
        syn
    }

    /// The `beta_i^(-r)` constants that convert an evaluated LFSR remainder
    /// into syndromes: since `received(x) * x^r = q(x) g(x) + state(x)` and
    /// `g(beta_i) = 0`, we get `S_i = state(beta_i) * beta_i^(-r)`. The
    /// fused decode evaluates the `r`-bit `state` with [`Self::compute`]
    /// and multiplies by these factors.
    pub fn unshift_factors(&self, parity_bits: usize) -> Vec<u32> {
        (0..self.two_t)
            .map(|i| self.field.alpha_pow(-((i as i64 + 1) * parity_bits as i64)))
            .collect()
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

    #[test]
    fn unshift_factors_recover_syndromes_from_remainder() {
        // S_i = state(beta_i) * beta_i^(-r) must equal the directly
        // computed syndromes for a corrupted codeword.
        let field = Arc::new(GfField::new(11).unwrap());
        let t = 3;
        let g = generator_poly(&field, t);
        let r = g.degree().unwrap();
        let enc = crate::encoder::LfsrEncoder::new(&g);
        let calc = SyndromeCalculator::new(field.clone(), t);
        let mut msg: Vec<u8> = (0..50).map(|i| (i * 7 + 111) as u8).collect();
        let parity = enc.remainder(&msg);
        msg[10] ^= 0x42; // corrupt
        let direct = calc.compute(&msg, &parity, r);
        let state = enc.codeword_state(&msg, &parity);
        let state_bytes = enc.state_bytes(&state);
        let evaluated = calc.compute(&[], &state_bytes, r);
        let unshift = calc.unshift_factors(r);
        let via_state: Vec<u32> = evaluated
            .iter()
            .zip(&unshift)
            .map(|(&s, &u)| field.mul(s, u))
            .collect();
        assert_eq!(via_state, direct);
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
