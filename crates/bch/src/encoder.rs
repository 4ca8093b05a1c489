//! Systematic BCH encoding through a programmable parallel LFSR.
//!
//! The hardware described in the paper (after Chen et al. \[28\]) computes
//! parity as the remainder `m(x) * x^r mod g(x)` with an `r`-bit LFSR whose
//! feedback taps are selected by multiplexers from a generator-polynomial
//! ROM. The datapath consumes the message `p` bits per clock, so encode
//! latency is `k/p` cycles **independent of the selected `t`**. The
//! software model has one pass at every `t` too: a carry-less fold, `W`
//! multiplies per message word for a register of `W` words, at about the
//! multiplier's rate of one a clock whatever `W` is — the one-word register
//! of every fresh page included, whose steps the fold overlaps rather than
//! waits on.
//!
//! That register is **left-aligned**: the running remainder `s(x)` lives in
//! `W = ceil(r/64)` words, most significant first, holding `s(x) * x^pad`
//! with `pad = 64*W - r` — the pass works modulo `G = g * x^pad`, whose
//! degree is a whole number of words whatever `r` is. Read out big-endian
//! and cut to `ceil(r/8)` bytes, the finished register *is* the parity
//! layout.
//!
//! # A carry-less fold
//!
//! The register is not stepped at all. With `K_k = x^(64k) mod G` (`W`
//! words each), an `L`-word **state** `S`, right-aligned, stays congruent
//! to everything read so far while `L` message words at a time come in
//! underneath it:
//!
//! ```text
//! S * x^(64L) + next  ==  sum_i s_i * K_(2L-1-i)  +  next     (mod G)
//! ```
//!
//! — `W` multiplies per message word ([`mlcx_gf2::kernels::fold_clmul`]:
//! `pclmulqdq` where the CPU has it, shift-and-XOR elsewhere, the state
//! held as 128-bit pairs where the multiply takes its operands), 304 bytes
//! of constants at `t = 3`, 1.2 KiB at `t = 14` and about 5 KiB at
//! `t = 65`. Zeros ahead of a message are free in a right-aligned state,
//! so the message's odd leading bytes and words seed it and the rest is
//! whole steps: no tail. The finish moves the state up by the register's
//! width instead, `Z = sum_i s_i * K_(W+L-1-i)`, `W + 1` words congruent
//! to `m(x) * x^(64W)`, and one Barrett word takes the one word too many
//! off: `q = z_0 + high(z_0 * mu)` with `mu = floor(x^(64W+64) / G)`,
//! `R = Z_low + low(q * G_low)`. That `R` is
//! `m(x) * x^(64W) mod G = (m(x) * x^r mod g) * x^pad` — the left-aligned
//! register, which is why the fold works modulo `G` and not modulo `g`.
//!
//! `L` is not a knob: the product of a step, `W + 1` words, must land
//! inside the state, so `L >= W + 1`; only those `W + 1` words wait on the
//! step before — the other `L - W - 1` are the next message words, whose
//! products start at once — so the longer the better; and the state lives
//! in registers, 18 words, the length the kernel unrolls a step over.
//! `L = 18` up to `W = 17` (`t = 65` over GF(2^16), the paper's widest
//! code); a wider register folds at `L = W + 1`, its state on the heap.
//!
//! [`crate::CodecKernel::Reference`] does not come through here: its
//! bit-serial LFSR is `bitreg.rs`, which shares nothing with this module.

use mlcx_gf2::kernels::{fold_clmul, row_product_clmul};
use mlcx_gf2::Gf2Poly;

use crate::syndrome::with_words;

/// State words `L` of the fold up to `W = 17` (module doc): the state
/// [`fold_clmul`] keeps in registers, 9 pairs. 4 KiB at `W` = 5 folds in
/// 0.92 us at `L` = 18, 1.45 at `L` = 8, whose pairs stay in memory; at
/// `W` = 1, 0.22 and 0.55.
const FOLD_STATE: usize = 18;

/// The fold's state words for a `words`-word register: the step's product,
/// `W + 1` words, has to land inside the state.
fn fold_state(words: usize) -> usize {
    FOLD_STATE.max(words + 1)
}

/// Parallel LFSR engine for one fixed generator polynomial.
#[derive(Debug, Clone)]
pub(crate) struct LfsrEncoder {
    r_bits: usize,
    /// Register width `W = ceil(r/64)` in words.
    words: usize,
    fold: FoldConstants,
}

/// The carry-less fold's constants for one `G = g * x^pad`, in the
/// kernels' layout (`W` rows of `L` words, see
/// [`mlcx_gf2::kernels::row_product_clmul`]), `K_k = x^(64k) mod G`.
#[derive(Debug, Clone)]
struct FoldConstants {
    /// `K_(2L-1-i)` against state word `i`: the state moves up `L` words.
    step: Vec<u64>,
    /// `K_(W+L-1-i)` against state word `i`: the state moves up `W` words,
    /// into `W + 1`.
    finish: Vec<u64>,
    /// `K_W`, which is `G` without its leading term.
    modulus: Vec<u64>,
    /// `floor(x^(64W+64) / G)` without its leading term (Barrett).
    mu: u64,
}

impl LfsrEncoder {
    /// Builds the engine for generator polynomial `g` (degree = parity
    /// bits).
    ///
    /// # Panics
    ///
    /// Panics if `g` is constant (degree < 1).
    pub(crate) fn new(generator: &Gf2Poly) -> Self {
        let r_bits = generator
            .degree()
            .filter(|&d| d >= 1)
            .expect("generator polynomial must have degree >= 1");
        let words = r_bits.div_ceil(64);
        // K_W = x^(64W) mod G, most significant word first: G = g * x^pad
        // has degree 64W, so that is its lower terms, (x^r mod g) * x^pad.
        let scaled = generator.shl(64 * words - r_bits);
        let modulus: Vec<u64> = scaled.as_words()[..words].iter().rev().copied().collect();
        let l = fold_state(words);
        // K_W .. K_(2L-1), each 64 multiplications by x after the last; the
        // 64 carries of the first run are the quotient of x^(64W+64) by G
        // below its leading term.
        let (mut reg, mut mu) = (modulus.clone(), 0u64);
        let mut k = Vec::with_capacity((2 * l - words) * words);
        for power in words..2 * l {
            k.extend_from_slice(&reg);
            for _ in 0..64 {
                let carry = mul_x(&mut reg, &modulus);
                if power == words {
                    mu = mu << 1 | u64::from(carry);
                }
            }
        }
        let by_column = |top: usize| -> Vec<u64> {
            (0..words)
                .flat_map(|w| (0..l).map(move |i| (top - i - words) * words + w))
                .map(|at| k[at])
                .collect()
        };
        LfsrEncoder {
            r_bits,
            words,
            fold: FoldConstants {
                step: by_column(2 * l - 1),
                finish: by_column(words + l - 1),
                modulus,
                mu,
            },
        }
    }

    /// Number of parity bits `r` (the generator degree).
    #[cfg(test)]
    pub(crate) fn parity_bits(&self) -> usize {
        self.r_bits
    }

    /// Number of bytes needed to store the parity (`ceil(r/8)`).
    pub(crate) fn parity_bytes(&self) -> usize {
        self.r_bits.div_ceil(8)
    }

    /// Computes `m(x) * x^r mod g(x)` for a byte-aligned message.
    ///
    /// Message bit 0 (byte 0, MSB) is the coefficient of `x^(k-1)`.
    /// Returns the remainder as parity bytes, MSB-first (parity byte 0 bit 7
    /// is the coefficient of `x^(r-1)`); when `r` is not a multiple of 8 the
    /// low bits of the last byte are zero padding.
    pub(crate) fn remainder(&self, message: &[u8]) -> Vec<u8> {
        self.with_remainder(message, |reg| self.parity_image(reg))
    }

    /// Returns `true` when the received codeword (message, then the top
    /// `r` bits of `parity`) is a multiple of `g` — the decoder's
    /// zero-syndrome shortcut.
    ///
    /// # Panics
    ///
    /// Panics if `parity` is shorter than [`Self::parity_bytes`].
    #[cfg(test)]
    fn codeword_is_valid(&self, message: &[u8], parity: &[u8]) -> bool {
        self.received_remainder(message, parity, |_| ()).is_none()
    }

    /// Hands `then` the register holding `received(x) mod g(x)` —
    /// left-aligned in `W` words, most significant first, the pad bits
    /// below it zero — and returns what it returns; `None`, without
    /// calling it, when the remainder is zero (a valid codeword — no
    /// allocation on that path where the register lives on the stack).
    /// The received word is `m'(x) * x^r + p'(x)` with `deg p' < r`, so its
    /// remainder is the message's plus the received parity, and the
    /// syndromes are this one `r`-bit polynomial evaluated at the roots.
    pub(crate) fn received_remainder<R>(
        &self,
        message: &[u8],
        parity: &[u8],
        then: impl FnOnce(&[u64]) -> R,
    ) -> Option<R> {
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
            reg.iter().any(|&w| w != 0).then(|| then(reg))
        })
    }

    /// Bytes of fold constants this engine holds.
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> usize {
        let k = &self.fold;
        size_of_val(&k.step[..])
            + size_of_val(&k.finish[..])
            + size_of_val(&k.modulus[..])
            + size_of_val(&k.mu)
    }

    /// Runs the pass over `message` and hands `then` the finished register,
    /// which lives on the stack up to `W = 17`.
    fn with_remainder<R>(&self, message: &[u8], then: impl FnOnce(&mut [u64]) -> R) -> R {
        let l = fold_state(self.words);
        with_words::<{ 2 * FOLD_STATE }, _>(l + self.words + 1, |scratch| {
            let (state, z) = scratch.split_at_mut(l);
            then(self.fold.remainder(message, state, z))
        })
    }

    /// The register's top `r` bits as parity bytes.
    pub(crate) fn parity_image(&self, reg: &[u64]) -> Vec<u8> {
        let mut out = vec![0u8; self.parity_bytes()];
        for (bytes, word) in out.chunks_mut(8).zip(reg) {
            bytes.copy_from_slice(&word.to_be_bytes()[..bytes.len()]);
        }
        out
    }
}

impl FoldConstants {
    /// The fold through the zeroed `state` (`L` words) and `z` (`W + 1`):
    /// returns the register, `message(x) * x^(64*W) mod G` (see the module
    /// doc), as the low `W` words of `z`.
    fn remainder<'z>(&self, message: &[u8], state: &mut [u64], z: &'z mut [u64]) -> &'z mut [u64] {
        let l = state.len();
        // The state is right-aligned and zeros ahead of a message are free,
        // so the odd bytes and words *lead*: they seed the state, and what
        // follows is whole steps.
        let (head, words) = message.as_rchunks::<8>();
        let (seed, steps) = words.split_at(words.len() % l);
        let (ahead, seeded) = state.split_at_mut(l - seed.len());
        let mut first = [0u8; 8];
        first[8 - head.len()..].copy_from_slice(head);
        ahead[ahead.len() - 1] = u64::from_be_bytes(first);
        for (s, c) in seeded.iter_mut().zip(seed) {
            *s = u64::from_be_bytes(*c);
        }
        fold_clmul(state, &self.step, steps);
        // Z = state * x^(64*W), congruent: W + 1 words, one too many.
        row_product_clmul(state, &self.finish, z);
        // Barrett: q = floor(z_0 * x^(64*W) / G) is the high word of
        // z_0 * floor(x^(64*W+64) / G), and Z - q*G has nothing left in
        // word 0. The state is spent and takes q*G.
        let mut quotient = [0u64; 2];
        row_product_clmul(&z[..1], &[self.mu], &mut quotient);
        let q = z[0] ^ quotient[0];
        let multiple = &mut state[..z.len()];
        row_product_clmul(&[q], &self.modulus, multiple);
        for (r, m) in z.iter_mut().zip(&*multiple).skip(1) {
            *r ^= m;
        }
        &mut z[1..]
    }
}

/// `reg <- reg * x mod G` for `G`'s lower terms `feedback`, both most
/// significant word first; returns the coefficient that left the top.
fn mul_x(reg: &mut [u64], feedback: &[u64]) -> bool {
    let carry = reg[0] >> 63 == 1;
    for i in 0..reg.len() {
        let below = reg.get(i + 1).map_or(0, |&next| next >> 63);
        reg[i] = reg[i] << 1 | below;
        if carry {
            reg[i] ^= feedback[i];
        }
    }
    carry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitreg::{long_division_remainder, BitSerialLfsr};
    use mlcx_gf2::{minpoly::generator_poly, GfField};
    use proptest::prelude::*;

    /// One generator per register class: `(m, t, r, W)`. r < 8; one word
    /// with and without pad bits in the last parity byte; r = 64 exactly;
    /// r = 65; r = 128; multi-word with `r % 64 != 0` at W = 2, 3, 4; W = 5;
    /// the paper's t = 65 (W = 17, the widest state on the stack); and
    /// t = 70 (W = 18, the first fold state on the heap).
    const CLASSES: [(u32, u32, usize, usize); 14] = [
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
        (16, 70, 1120, 18),
    ];

    fn class_generator(m: u32, t: u32, r: usize, words: usize) -> Gf2Poly {
        let g = generator_poly(&GfField::new(m).unwrap(), t);
        assert_eq!(g.degree(), Some(r), "GF(2^{m}), t = {t}");
        assert_eq!(r.div_ceil(64), words);
        g
    }

    /// `p` as `words` words, most significant first (the register's order).
    fn be_words(p: &Gf2Poly, words: usize) -> Vec<u64> {
        let mut out = vec![0u64; words];
        for (i, &w) in p.as_words().iter().enumerate() {
            out[words - 1 - i] = w;
        }
        out
    }

    fn payload(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 151 + salt * 29 + 7) as u8).collect()
    }

    #[test]
    fn fold_constants_match_long_division() {
        // K_k == x^(64k) mod G against each state word, in the kernels'
        // column layout, and mu == floor(x^(64W+64) / G) below its leading
        // term, by `Gf2Poly` long division.
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let enc = LfsrEncoder::new(&g);
            let k = &enc.fold;
            let l = fold_state(words);
            let scaled = g.shl(64 * words - r);
            let power = |e: usize| be_words(&Gf2Poly::monomial(64 * e).rem(&scaled), words);
            assert_eq!(k.modulus, power(words), "r = {r}");
            assert_eq!((k.step.len(), k.finish.len()), (l * words, l * words));
            for i in 0..l {
                let (step, finish) = (power(2 * l - 1 - i), power(words + l - 1 - i));
                for w in 0..words {
                    assert_eq!(k.step[w * l + i], step[w], "r = {r}, word {i}");
                    assert_eq!(k.finish[w * l + i], finish[w], "r = {r}, word {i}");
                }
            }
            let (quotient, _) = Gf2Poly::monomial(64 * words + 64).div_rem(&scaled);
            assert_eq!(quotient.degree(), Some(64));
            assert_eq!(k.mu, quotient.as_words()[0], "r = {r}");
            assert_eq!(l, if words < 18 { 18 } else { words + 1 }, "r = {r}");
        }
    }

    /// Every width folds, the one-word register of every fresh page
    /// included: an engine holds the fold's `2 x L x W + W + 1` words and
    /// nothing else — 304 bytes at one word, under 6 KiB at the paper's
    /// t = 65.
    #[test]
    fn every_register_width_folds() {
        for (m, t, r, words) in CLASSES {
            let enc = LfsrEncoder::new(&class_generator(m, t, r, words));
            let l = fold_state(words);
            assert_eq!(
                enc.table_bytes(),
                (2 * l * words + words + 1) * 8,
                "r = {r}"
            );
            if words == 1 {
                assert_eq!(enc.table_bytes(), 304, "r = {r}");
            }
            if t == 65 {
                assert!(enc.table_bytes() <= 6 << 10);
            }
        }
    }

    #[test]
    fn every_register_class_matches_the_oracle_and_long_division() {
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let oracle = BitSerialLfsr::new(&g);
            // Every odd-byte head and every seed length below two steps at
            // W = 1; a byte either side of the fold's first three `8*L`
            // boundaries, where a seed word becomes a step; the last is the
            // paper's page.
            let step = 8 * fold_state(words);
            let edges = (1..=3).flat_map(|k| k * step - 1..=k * step + 1);
            let lens: Vec<usize> = (0..=33)
                .chain([47, 70])
                .chain(edges)
                .chain([4096])
                .collect();
            let enc = LfsrEncoder::new(&g);
            assert_eq!((enc.parity_bits(), enc.parity_bytes()), (r, r.div_ceil(8)));
            for &len in &lens {
                let msg = payload(len, r);
                let parity = enc.remainder(&msg);
                assert_eq!(parity, oracle.remainder(&msg), "r = {r}, len {len}");
                assert_eq!(
                    parity,
                    long_division_remainder(&msg, &g),
                    "r = {r}, len {len}"
                );
                assert!(enc.codeword_is_valid(&msg, &parity), "r = {r}, len {len}");
                assert_eq!(enc.received_remainder(&msg, &parity, |_| ()), None);
            }
        }
    }

    #[test]
    fn any_single_flip_invalidates_the_codeword() {
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let oracle = BitSerialLfsr::new(&g);
            // Short enough that no flip lands on another codeword: n stays
            // inside the code length 2^m - 1.
            let len = ((1usize << m) - 1 - r) / 8;
            let len = len.min(if r >= 1040 { 3 } else { 21 });
            let msg = payload(len, words);
            let enc = LfsrEncoder::new(&g);
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

    /// The last parity byte's pad bits (`8 * ceil(r/8) - r` of them) are
    /// not codeword bits: whatever is read there, `msg` with its parity is
    /// valid, and beside a real error the remainder comes back with them
    /// masked off.
    fn assert_pad_bits_are_ignored(enc: &LfsrEncoder, msg: &[u8]) {
        let r = enc.parity_bits();
        let pad_bits = 8 * r.div_ceil(8) - r;
        let clean = enc.remainder(msg);
        let last = clean.len() - 1;
        assert_eq!(
            clean[last] & ((1 << pad_bits) - 1),
            0,
            "r = {r}: zero padding"
        );
        for pattern in 0..1u8 << pad_bits {
            let mut parity = clean.clone();
            parity[last] |= pattern;
            assert!(enc.codeword_is_valid(msg, &parity), "r = {r}");
            parity[0] ^= 0x80;
            let mut expect = vec![0u8; clean.len()];
            expect[0] = 0x80;
            let image = enc.received_remainder(msg, &parity, |reg| enc.parity_image(reg));
            assert_eq!(image, Some(expect), "r = {r}, pad {pattern:#x}");
        }
    }

    #[test]
    fn pad_bits_of_the_last_parity_byte_are_not_codeword_bits() {
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            assert_pad_bits_are_ignored(&LfsrEncoder::new(&g), &payload(1, r));
        }
    }

    /// The one-word register is the pass of every fresh page (`t <= 4`
    /// over GF(2^16)), so every `r` it holds is swept — every pad below
    /// the register, every `r % 8`, and `r = 64` exactly — on a generator
    /// with all its lower terms drawn: against the oracle and long
    /// division, as a valid codeword, and with the pad bits masked. The
    /// lengths: every one to 33 bytes (each odd-byte head, each seed up to
    /// four words), a byte either side of the first two `8 * L`
    /// boundaries, and the page. The default build runs it on `pclmulqdq`
    /// where the CPU has it, `--no-default-features` on shift-and-XOR.
    #[test]
    fn every_one_word_register_matches_the_oracle_and_long_division() {
        let step = 8 * FOLD_STATE;
        let lens: Vec<usize> = (0..=33)
            .chain([step - 1, step + 1, 2 * step - 1, 2 * step + 1, 4096])
            .collect();
        let mut draw = 0x9e37_79b9_7f4a_7c15u64;
        for r in 1..=64 {
            draw ^= draw << 13;
            draw ^= draw >> 7;
            draw ^= draw << 17;
            let mut g = Gf2Poly::from_words(vec![draw]);
            for high in r..64 {
                g.set_coeff(high, false);
            }
            g.set_coeff(r, true);
            let (enc, oracle) = (LfsrEncoder::new(&g), BitSerialLfsr::new(&g));
            assert_eq!((enc.words, enc.parity_bytes()), (1, r.div_ceil(8)));
            for &len in &lens {
                let msg = payload(len, r);
                let parity = enc.remainder(&msg);
                assert_eq!(parity, oracle.remainder(&msg), "r = {r}, len {len}");
                assert_eq!(
                    parity,
                    long_division_remainder(&msg, &g),
                    "r = {r}, len {len}"
                );
                assert!(enc.codeword_is_valid(&msg, &parity), "r = {r}, len {len}");
            }
            assert_pad_bits_are_ignored(&enc, &payload(21, r));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fold is polynomial division, BCH or not: any generator
        /// of any degree — so every `r % 64` and every `r % 8`, not only
        /// the multiples of `m` the BCH classes reach — and any message
        /// length (every odd-byte head, the fold's first
        /// two steps at every `L`).
        #[test]
        fn random_generators_match_the_oracle_and_long_division(
            r in 1usize..=330,
            len in 0usize..=150,
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
            let expect = long_division_remainder(&msg, &g);
            prop_assert_eq!(&expect, &BitSerialLfsr::new(&g).remainder(&msg));
            let enc = LfsrEncoder::new(&g);
            prop_assert_eq!(&enc.remainder(&msg), &expect);
            prop_assert!(enc.codeword_is_valid(&msg, &expect));
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
