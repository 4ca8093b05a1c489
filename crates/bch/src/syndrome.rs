//! Syndrome computation (first stage of the BCH decoding flow, Fig. 2).
//!
//! The hardware computes the `2t` syndromes by dividing the received
//! codeword by the factor polynomials of the generator and evaluating the
//! remainders in GF(2^m). The production lane does that division: since
//! the minimal polynomial `m_j` of `alpha^j` vanishes there,
//! `S_j = (r mod m_j)(alpha^j)` for every received polynomial `r`. Two
//! lanes, one oracle and one production path:
//!
//! * [`SyndromeLane::Bit`] — definition-level bit-serial Horner at every
//!   one of the `2t` roots (what [`crate::CodecKernel::Reference`] runs
//!   over the whole codeword);
//! * [`SyndromeLane::Residue`] — the codeword's last `64 W` bits,
//!   `W = ceil(m t / 64)`, are divided by the `t` minimal polynomials of
//!   the odd roots `alpha^(2k+1)` at once ([`mlcx_gf2::kernels::residues`]:
//!   `W` carry-less multiplies per modulus and a two-multiply Barrett
//!   word, every modulus independent of the others). A residue has at
//!   most `m <= 16` bits, and its value at `alpha^j` is GF(2)-linear in
//!   them: the XOR of four entries of nibble tables built per root, 8 KiB
//!   at `t = 65`, which stay in L1. Any
//!   codeword bits ahead of those go through the bit lane's Horner fold at
//!   the `t` odd roots and are advanced by `beta^(64 W)`. The even
//!   syndromes are squares, `S_2k = S_k^2`, because squaring is additive
//!   in characteristic 2 and fixes the binary coefficients:
//!   `r(x)^2 = r(x^2)` for every received polynomial `r` over GF(2); and
//!   squaring is GF(2)-linear too, four nibble lookups.
//!
//! The production decode ([`crate::CodecKernel::Fused`]) does not walk the
//! codeword here at all. Since `received(x) = q(x) g(x) + rem(x)` and
//! `g(beta_i) = 0`, `S_i = rem(beta_i)`: it hands the residue lane the
//! LFSR pass's register — the `r`-bit remainder `received mod g`,
//! left-aligned in its words — as it is, and `r = deg g <= m*t` for every
//! BCH code, so the division covers all of it. At `t = 65` over GF(2^16)
//! that is `65 x (17 + 2)` independent multiplies, about 0.56 us on a
//! 2.0 GHz Xeon, and 0.8 us for all `2t` syndromes.

use std::sync::Arc;

use mlcx_gf2::kernels::{residues, Residues};
use mlcx_gf2::{minpoly, GfField};

/// How the [`SyndromeCalculator`] evaluates the received polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyndromeLane {
    /// Bit-serial evaluation straight from the definition.
    Bit,
    /// Residues modulo the minimal polynomials of the odd roots, evaluated
    /// there; squares for the even.
    #[default]
    Residue,
}

/// Parallel syndrome evaluator for syndromes `S_1 .. S_2t`.
#[derive(Debug, Clone)]
pub struct SyndromeCalculator {
    field: Arc<GfField>,
    two_t: usize,
    /// The residue lane's tables; `None` on the bit lane.
    residue: Option<ResidueLane>,
}

/// What the residue lane divides by and evaluates with.
#[derive(Debug, Clone)]
struct ResidueLane {
    /// The minimal polynomials of `alpha^(2k+1)`, `k < t`, for a value of
    /// `W = ceil(m t / 64)` words.
    moduli: Residues,
    /// Per odd root `alpha^(2k+1)`, the value there of a residue, as nibble
    /// tables ([`nibble_tables`]).
    eval: Vec<[u16; 64]>,
    /// Squaring in GF(2^m), likewise.
    square: [u16; 64],
}

impl SyndromeCalculator {
    /// Builds the evaluator for correction capability `t` with the default
    /// residue lane.
    pub fn new(field: Arc<GfField>, t: u32) -> Self {
        Self::with_lane(field, t, SyndromeLane::Residue)
    }

    /// Builds the evaluator with an explicit lane.
    pub fn with_lane(field: Arc<GfField>, t: u32, lane: SyndromeLane) -> Self {
        let residue = (lane == SyndromeLane::Residue).then(|| ResidueLane::new(&field, t as usize));
        SyndromeCalculator {
            field,
            two_t: 2 * t as usize,
            residue,
        }
    }

    /// Number of syndromes produced (`2t`).
    pub fn count(&self) -> usize {
        self.two_t
    }

    /// The lane this evaluator runs.
    pub fn lane(&self) -> SyndromeLane {
        match self.residue {
            Some(_) => SyndromeLane::Residue,
            None => SyndromeLane::Bit,
        }
    }

    /// Bytes of tables this evaluator holds.
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> usize {
        self.residue.as_ref().map_or(0, |lane| {
            lane.moduli.table_bytes() + size_of_val(&lane.eval[..]) + size_of_val(&lane.square)
        })
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
        let mut syn = vec![0u32; self.two_t];
        let Some(lane) = &self.residue else {
            let bits = codeword_bits(message, parity, parity_bits);
            for (i, syn_i) in syn.iter_mut().enumerate() {
                *syn_i = horner(f, bits.clone(), f.alpha_pow((i + 1) as i64));
            }
            return syn;
        };
        // The division takes the codeword's last `covered` bits, as many
        // as the table has words for; what is ahead of them goes through
        // Horner.
        let covered = parity_bits.min(64 * lane.moduli.words());
        let lead_parity = parity_bits - covered;
        // Big-endian words of the parity bytes, left-aligned; the pad bits
        // past the last parity bit are the ones the right-alignment shifts
        // out.
        let (words, tail) = parity[..parity_bits.div_ceil(8)].as_chunks::<8>();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        let left = |i: usize| u64::from_be_bytes(*words.get(i).unwrap_or(&last));
        with_words::<STACK_WORDS, _>(lane.moduli.words(), |value| {
            right_align(parity_bits.div_ceil(64), parity_bits, left, value);
            lane.odd_syndromes(value, &mut syn);
        });
        if message.len() + lead_parity > 0 {
            let lead = codeword_bits(message, parity, lead_parity);
            for k in 0..self.two_t / 2 {
                let beta = f.alpha_pow((2 * k + 1) as i64);
                syn[2 * k] ^= f.mul(horner(f, lead.clone(), beta), f.pow(beta, covered as i64));
            }
        }
        lane.square_up(&mut syn);
        syn
    }

    /// The syndromes of the `bits`-bit polynomial left-aligned in `reg`,
    /// most significant word first — the LFSR pass's register, which the
    /// residue lane divides as it is (no byte image of it).
    ///
    /// # Panics
    ///
    /// Panics on the bit lane, or if `bits` is more than `reg` holds or
    /// the division covers (a code's `r <= m t` never is).
    pub(crate) fn compute_register(&self, reg: &[u64], bits: usize) -> Vec<u32> {
        let lane = self
            .residue
            .as_ref()
            .expect("the register is divided on the residue lane");
        let words = lane.moduli.words();
        assert!(
            bits <= 64 * reg.len().min(words),
            "{bits} bits in {} words, {words} covered",
            reg.len()
        );
        let mut syn = vec![0u32; self.two_t];
        with_words::<STACK_WORDS, _>(words, |value| {
            right_align(reg.len(), bits, |i| reg[i], value);
            lane.odd_syndromes(value, &mut syn);
        });
        lane.square_up(&mut syn);
        syn
    }
}

impl ResidueLane {
    fn new(field: &GfField, t: usize) -> Self {
        let (m, n) = (field.degree() as usize, field.order());
        // The generator's own factors: the minimal polynomials of the odd
        // roots (an even root's is its half's).
        let moduli: Vec<u32> = (0..t)
            .map(|k| minpoly::minimal_poly(field, 2 * k as u32 + 1).as_words()[0] as u32)
            .collect();
        let eval = (0..t)
            .map(|k| {
                // alpha^(j b) for bit b of the residue: the log grows by j
                // a bit.
                let (j, mut log) = ((2 * k as u32 + 1) % n, 0);
                nibble_tables(|_| {
                    let power = field.alpha_pow_reduced(log);
                    log += j;
                    if log >= n {
                        log -= n;
                    }
                    power as u16
                })
            })
            .collect();
        // (alpha^b)^2 = alpha^(2b).
        let square = nibble_tables(|b| field.alpha_pow_reduced(2 * b % n) as u16);
        ResidueLane {
            moduli: Residues::new(&moduli, (m * t).div_ceil(64)),
            eval,
            square,
        }
    }

    /// `S_(2k+1)` into `syn[2k]` for every `k < t` from the right-aligned
    /// `W`-word `value`.
    fn odd_syndromes(&self, value: &[u64], syn: &mut [u32]) {
        let t = self.eval.len();
        residues(&self.moduli, value, &mut syn[..t]);
        // Slot 2k is at or above every residue still to be read.
        for k in (0..t).rev() {
            syn[2 * k] = apply(&self.eval[k], syn[k]);
        }
    }

    /// `S_2k = S_k^2`, ascending so `S_k` is final when it is read.
    fn square_up(&self, syn: &mut [u32]) {
        for k in 1..=syn.len() / 2 {
            syn[2 * k - 1] = apply(&self.square, syn[k - 1]);
        }
    }
}

/// A GF(2)-linear map on 16 bits as four nibble tables, from the images of
/// the bits (asked for in order, bit 0 first): entry `16 i + v` is the image
/// of `v << 4i`.
fn nibble_tables(mut image: impl FnMut(u32) -> u16) -> [u16; 64] {
    let mut tables = [0u16; 64];
    for (i, table) in tables.chunks_exact_mut(16).enumerate() {
        for (b, bit) in (4 * i as u32..).zip([1, 2, 4, 8]) {
            table[bit] = image(b);
        }
        for v in 3..16usize {
            if !v.is_power_of_two() {
                table[v] = table[v & (v - 1)] ^ table[v & v.wrapping_neg()];
            }
        }
    }
    tables
}

/// The map of `tables` ([`nibble_tables`]) at `v < 2^16`.
fn apply(tables: &[u16; 64], v: u32) -> u32 {
    (0..4).fold(0, |sum, i| {
        sum ^ u32::from(tables[16 * i + (v as usize >> (4 * i) & 15)])
    })
}

/// The codeword's bits, most significant first: `message`, then the top
/// `parity_bits` bits of `parity`.
fn codeword_bits<'a>(
    message: &'a [u8],
    parity: &'a [u8],
    parity_bits: usize,
) -> impl Iterator<Item = u32> + Clone + 'a {
    message
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |j| u32::from(byte >> j & 1)))
        .chain((0..parity_bits).map(|v| u32::from(parity[v / 8] >> (7 - v % 8) & 1)))
}

/// The polynomial with coefficients `bits` (most significant first) at
/// `beta`.
fn horner(f: &GfField, bits: impl Iterator<Item = u32>, beta: u32) -> u32 {
    bits.fold(0, |s, bit| f.mul(s, beta) ^ bit)
}

/// The widest value the residue lane keeps on the stack: `t = 65` over
/// GF(2^16), the paper's widest code, divides 17 words.
const STACK_WORDS: usize = 17;

/// Runs `then` on `words` zeroed words, on the stack where they fit in
/// `STACK` (the encoder's fold scratch takes this road too).
pub(crate) fn with_words<const STACK: usize, R>(
    words: usize,
    then: impl FnOnce(&mut [u64]) -> R,
) -> R {
    if words <= STACK {
        then(&mut [0; STACK][..words])
    } else {
        then(&mut vec![0; words])
    }
}

/// Fills `out` with the low `out.len()` words of the `bits`-bit polynomial
/// held left-aligned in the `len` words `left(0..len)`, right-aligned, both
/// most significant word first: each word is one moved down by the pad
/// `64 len - bits`, the one above filling in. What `left` has below the
/// polynomial's last bit is shifted out.
fn right_align(len: usize, bits: usize, left: impl Fn(usize) -> u64, out: &mut [u64]) {
    let pad = (64 * len - bits) as u32;
    let word = |i: Option<usize>| i.map_or(0, &left);
    for (q, o) in out.iter_mut().rev().enumerate() {
        let low = word(len.checked_sub(q + 1)) >> pad;
        let high = word(len.checked_sub(q + 2))
            .checked_shl(64 - pad)
            .unwrap_or(0);
        *o = low | high;
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
            for lane in [SyndromeLane::Bit, SyndromeLane::Residue] {
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

    /// The residue lane against the bit lane on every one of the `2t`
    /// values, the squared ones too, in every shape `compute` is called
    /// in: message + parity; the fused shape (no message, the remainder
    /// as "parity", and the register it comes from); more parity bits
    /// than the division covers (the leading ones join the message in the
    /// Horner fold); all-zero and all-ones remainders; pad bits of the
    /// last byte set.
    fn check_residue_lane(m: u32, t: u32) {
        let field = Arc::new(GfField::new(m).unwrap());
        let bit = SyndromeCalculator::with_lane(field.clone(), t, SyndromeLane::Bit);
        let residue = SyndromeCalculator::with_lane(field.clone(), t, SyndromeLane::Residue);
        assert_eq!(residue.count(), 2 * t as usize);
        let r = (m * t) as usize;
        let covered = 64 * r.div_ceil(64);
        let msg: Vec<u8> = (0..37).map(|i| (i * 201 + 3) as u8).collect();
        let shapes = [
            (None, r),
            (None, r + 21),
            (None, covered + 21),
            (Some(0x00), r),
            (Some(0xFF), r),
        ];
        for (fill, bits) in shapes {
            let parity: Vec<u8> = (0..bits.div_ceil(8))
                .map(|i| fill.unwrap_or((i * 91 + 17) as u8))
                .collect();
            for message in [&msg[..], &[]] {
                assert_eq!(
                    residue.compute(message, &parity, bits),
                    bit.compute(message, &parity, bits),
                    "m {m}, t {t}, message bytes {}, parity bits {bits}, fill {fill:?}",
                    message.len()
                );
            }
            // The register: the same bits in big-endian words, pad bits
            // below the last one set, as wide as the division covers.
            if bits > covered {
                continue;
            }
            let mut reg: Vec<u64> = parity
                .chunks(8)
                .map(|c| {
                    let mut be = [0xA5u8; 8];
                    be[..c.len()].copy_from_slice(c);
                    u64::from_be_bytes(be)
                })
                .collect();
            if bits % 64 != 0 {
                *reg.last_mut().unwrap() |= (1 << (64 - bits % 64)) - 1;
            }
            assert_eq!(
                residue.compute_register(&reg, bits),
                bit.compute(&[], &parity, bits),
                "m {m}, t {t}, register of {bits} bits, fill {fill:?}"
            );
        }
    }

    /// At odd and even `t` (a lone last residue or not), `r % 8 != 0`
    /// except where `t` is a multiple of 8, up to the paper's `t = 65`.
    #[test]
    fn residue_lane_matches_bit_lane_on_every_syndrome() {
        for t in [1u32, 2, 3, 4, 5, 7, 8, 9, 14, 15, 65] {
            check_residue_lane(13, t);
        }
    }

    /// The paper's field at the codes `eol_read` decodes with, and the
    /// small fields at every `t` their BCH codes allow, where minimal
    /// polynomials of degree below `m` and two odd roots of one coset (one
    /// modulus twice) occur.
    #[test]
    fn residue_lane_matches_bit_lane_in_the_paper_field_and_the_small_ones() {
        for t in [14, 65] {
            check_residue_lane(16, t);
        }
        // Designed distance 2t + 1 <= n = 2^m - 1.
        for m in 4..=6 {
            for t in 1..1 << (m - 1) {
                check_residue_lane(m, t);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused shape on random remainders: the residue lane is the
        /// bit lane over the field the small codes use and the paper's.
        #[test]
        fn residue_lane_matches_bit_lane_on_random_remainders(
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
            let residue = SyndromeCalculator::new(field, t);
            prop_assert_eq!(residue.compute(&[], &rem, r), bit.compute(&[], &rem, r));
        }
    }

    #[test]
    #[should_panic(expected = "parity holds 4 of the 5 parity bytes 39 parity bits need")]
    fn short_parity_is_rejected_by_name() {
        let field = Arc::new(GfField::new(13).unwrap());
        SyndromeCalculator::new(field, 3).compute(&[], &[0u8; 4], 39);
    }

    /// The premise of the residue lane's shortcut, on the lane that does
    /// not use it: a polynomial over GF(2) satisfies `r(x)^2 = r(x^2)`.
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
        // byte (r = 33: seven of them) set or not — from the remainder's
        // bytes and from the register itself.
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
            let rem = enc
                .received_remainder(&msg, &parity, |reg| {
                    assert_eq!(calc.compute_register(reg, r), direct);
                    enc.parity_image(reg)
                })
                .unwrap();
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
        for lane in [SyndromeLane::Bit, SyndromeLane::Residue] {
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
