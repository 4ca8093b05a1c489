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
//! * [`SyndromeLane::Row`] — the map from the codeword's bits to its
//!   syndromes is GF(2)-linear, so the odd syndromes of the last `m*t`
//!   bits are an XOR of precomputed rows: bit `x^d` contributes
//!   `row_d = [alpha^(d*(2k+1))]` for `k < t` — 16-bit values, packed two
//!   to a `u32` so that a row XORs into the result vector at full width —
//!   and `S_(2k+1)` is entry `k` of the XOR of the rows of the set bits.
//!   Any codeword bits ahead of those go through the bit lane's Horner
//!   fold at the `t` odd roots and are advanced by `beta^(m*t)`. The even
//!   syndromes are squares, `S_2k = S_k^2`, because squaring is additive
//!   in characteristic 2 and fixes the binary coefficients:
//!   `r(x)^2 = r(x^2)` for every received polynomial `r` over GF(2).
//!
//! The production decode ([`crate::CodecKernel::Fused`]) does not walk the
//! codeword here at all. Since `received(x) = q(x) g(x) + rem(x)` and
//! `g(beta_i) = 0`, `S_i = rem(beta_i)`: it hands the row lane the `r`-bit
//! remainder `received mod g` (the LFSR pass over the message plus the
//! received parity) with an empty message, and `r = deg g <= m*t` for every
//! BCH code, so the rows cover all of it — about `r/2` row XORs and no
//! field multiplication before the squarings.

use std::sync::Arc;

use mlcx_gf2::GfField;

/// How the [`SyndromeCalculator`] evaluates the received polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyndromeLane {
    /// Bit-serial evaluation straight from the definition.
    Bit,
    /// XOR of per-bit rows at the odd roots, squares for the even.
    #[default]
    Row,
}

/// Parallel syndrome evaluator for syndromes `S_1 .. S_2t`.
#[derive(Debug, Clone)]
pub struct SyndromeCalculator {
    field: Arc<GfField>,
    two_t: usize,
    lane: SyndromeLane,
    /// Row lane, flattened `m*t x ceil(t/2)`: what the coefficient of `x^d`
    /// contributes to the odd syndromes, `alpha^(d*(2k+1))` for `k < t`,
    /// two to an entry (`k` even in the low half, `k + 1` in the high).
    rows: Vec<u32>,
}

impl SyndromeCalculator {
    /// Builds the evaluator for correction capability `t` with the default
    /// row lane.
    pub fn new(field: Arc<GfField>, t: u32) -> Self {
        Self::with_lane(field, t, SyndromeLane::Row)
    }

    /// Builds the evaluator with an explicit lane.
    pub fn with_lane(field: Arc<GfField>, t: u32, lane: SyndromeLane) -> Self {
        let t = t as usize;
        let covered = match lane {
            SyndromeLane::Bit => 0,
            SyndromeLane::Row => field.degree() as usize * t,
        };
        let (pairs, order) = (t.div_ceil(2), field.order() as usize);
        let mut rows = vec![0u32; covered * pairs];
        for (d, row) in rows.chunks_exact_mut(pairs.max(1)).enumerate() {
            // Along row d the logarithm d*(2k+1) grows by 2d per syndrome.
            let (mut log, stride) = (d % order, 2 * d % order);
            for k in 0..t {
                row[k / 2] |= field.alpha_pow_reduced(log as u32) << (16 * (k % 2));
                log += stride;
                if log >= order {
                    log -= order;
                }
            }
        }
        SyndromeCalculator {
            field,
            two_t: 2 * t,
            lane,
            rows,
        }
    }

    /// Number of syndromes produced (`2t`).
    pub fn count(&self) -> usize {
        self.two_t
    }

    /// The lane this evaluator runs.
    pub fn lane(&self) -> SyndromeLane {
        self.lane
    }

    /// Bytes of row table this evaluator holds.
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.rows[..])
    }

    /// Evaluates all syndromes of the received codeword.
    ///
    /// The codeword is the concatenation of `message` (fully used) and the
    /// top `parity_bits` bits of `parity` (MSB-first within each byte;
    /// whatever follows them in `parity` is ignored). Returns
    /// `S_1 .. S_2t`.
    ///
    /// # Panics
    ///
    /// Panics if `parity` holds fewer than `ceil(parity_bits / 8)` bytes.
    pub fn compute(&self, message: &[u8], parity: &[u8], parity_bits: usize) -> Vec<u32> {
        assert!(
            parity.len() >= parity_bits.div_ceil(8),
            "parity holds {} of the {} parity bytes {parity_bits} parity bits need",
            parity.len(),
            parity_bits.div_ceil(8)
        );
        let f = &self.field;
        let t = self.two_t / 2;
        // The rows take the codeword's last `covered` bits, as many as the
        // table has rows for; what is ahead of them — everything, on the
        // bit lane — goes through Horner.
        let pairs = t.div_ceil(2);
        let covered = parity_bits.min(self.rows.len() / pairs.max(1));
        let lead_parity = parity_bits - covered;
        let lead = message
            .iter()
            .flat_map(|&byte| (0..8).rev().map(move |j| u32::from(byte >> j & 1)))
            .chain((0..lead_parity).map(|v| u32::from(parity[v / 8] >> (7 - v % 8) & 1)));
        let horner = |beta: u32| lead.clone().fold(0, |s, bit| f.mul(s, beta) ^ bit);
        let mut syn = vec![0u32; self.two_t];
        match self.lane {
            SyndromeLane::Bit => {
                for (i, syn_i) in syn.iter_mut().enumerate() {
                    *syn_i = horner(f.alpha_pow((i + 1) as i64));
                }
            }
            SyndromeLane::Row => {
                // The rows of the set bits accumulate in syn[..pairs], two
                // syndromes to a slot as in the table.
                let (packed, _) = syn.split_at_mut(pairs);
                for (c, bytes) in parity[..parity_bits.div_ceil(8)].chunks(8).enumerate() {
                    let mut be = [0u8; 8];
                    be[..bytes.len()].copy_from_slice(bytes);
                    let mut word = u64::from_be_bytes(be);
                    while word != 0 {
                        let bit = word.leading_zeros();
                        word ^= 1 << (63 - bit);
                        // Neither the bits Horner takes nor the pad bits of
                        // the last byte select a row.
                        let v = 64 * c + bit as usize;
                        if (lead_parity..parity_bits).contains(&v) {
                            let row = &self.rows[(parity_bits - 1 - v) * pairs..][..pairs];
                            for (s, &x) in packed.iter_mut().zip(row) {
                                *s ^= x;
                            }
                        }
                    }
                }
                // Unpack S_(2k+1) into its slot top-down: slot 2k is at or
                // above every slot still to be read.
                for k in (0..t).rev() {
                    syn[2 * k] = syn[k / 2] >> (16 * (k % 2)) & 0xFFFF;
                }
                if message.len() + lead_parity > 0 {
                    for k in 0..t {
                        let beta = f.alpha_pow((2 * k + 1) as i64);
                        syn[2 * k] ^= f.mul(horner(beta), f.pow(beta, covered as i64));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcx_gf2::minpoly::generator_poly;
    use proptest::prelude::*;

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
            for lane in [SyndromeLane::Bit, SyndromeLane::Row] {
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

    /// Every one of the `2t` values, the squared ones too, at odd and even
    /// `t` (a half-filled last table entry or none), `parity_bits % 8 != 0`
    /// except at t = 8, in every shape `compute` is called in: message +
    /// parity; the fused shape (no message, the remainder register as
    /// "parity"); more parity bits than the `m*t` the rows cover (the
    /// leading ones join the message in the Horner fold); all-zero and
    /// all-ones remainders; pad bits of the last byte set.
    #[test]
    fn row_lane_matches_bit_lane_on_every_syndrome() {
        let field = Arc::new(GfField::new(13).unwrap());
        for t in [1u32, 2, 3, 4, 5, 7, 8, 9, 14, 15, 65] {
            let bit = SyndromeCalculator::with_lane(field.clone(), t, SyndromeLane::Bit);
            let row = SyndromeCalculator::with_lane(field.clone(), t, SyndromeLane::Row);
            assert_eq!(row.count(), 2 * t as usize);
            let r = 13 * t as usize;
            let msg: Vec<u8> = (0..37).map(|i| (i * 201 + 3) as u8).collect();
            for (fill, bits) in [(None, r), (None, r + 21), (Some(0x00), r), (Some(0xFF), r)] {
                let parity: Vec<u8> = (0..bits.div_ceil(8))
                    .map(|i| fill.unwrap_or((i * 91 + 17) as u8))
                    .collect();
                for message in [&msg[..], &[]] {
                    assert_eq!(
                        row.compute(message, &parity, bits),
                        bit.compute(message, &parity, bits),
                        "t {t}, message bytes {}, parity bits {bits}, fill {fill:?}",
                        message.len()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused shape on random remainders: the row lane is the bit
        /// lane over the field the small codes use and the paper's.
        #[test]
        fn row_lane_matches_bit_lane_on_random_remainders(
            wide_field in any::<bool>(),
            t in 1u32..=20,
            seed in any::<u64>(),
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = if wide_field { 16 } else { 13 };
            let field = Arc::new(GfField::new(m).unwrap());
            let r = (m * t) as usize;
            let rem: Vec<u8> = (0..r.div_ceil(8)).map(|_| rng.random()).collect();
            let bit = SyndromeCalculator::with_lane(field.clone(), t, SyndromeLane::Bit);
            let row = SyndromeCalculator::new(field, t);
            prop_assert_eq!(row.compute(&[], &rem, r), bit.compute(&[], &rem, r));
        }
    }

    #[test]
    #[should_panic(expected = "parity holds 4 of the 5 parity bytes 39 parity bits need")]
    fn short_parity_is_rejected_by_name() {
        let field = Arc::new(GfField::new(13).unwrap());
        SyndromeCalculator::new(field, 3).compute(&[], &[0u8; 4], 39);
    }

    /// The premise of the row lane's shortcut, on the lane that does not
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
        for lane in [SyndromeLane::Bit, SyndromeLane::Row] {
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
        assert!(syn.iter().all(|&s| s == 0), "syndromes: {syn:?}");
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
