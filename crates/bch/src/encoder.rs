//! Systematic BCH encoding through a programmable parallel LFSR.
//!
//! The hardware described in the paper (after Chen et al. \[28\]) computes
//! parity as the remainder `m(x) * x^r mod g(x)` with an `r`-bit LFSR whose
//! feedback taps are selected by multiplexers from a generator-polynomial
//! ROM. The datapath consumes the message `p` bits per clock, so encode
//! latency is `k/p` cycles **independent of the selected `t`** — the
//! software model mirrors that with one table-driven step formula that
//! folds `P` 64-bit words of message at every register width `r = deg g`,
//! and widens `p` the way the hardware would: by stepping deeper.
//! (Registers wider than one word leave the tables for multiplication
//! where the CPU can; last section.)
//!
//! What lets one step serve every `r` is the register's alignment. The
//! running remainder `s(x)` lives in `W = ceil(r/64)` words, most
//! significant first, **left-aligned**: the words hold `s(x) * x^pad` with
//! `pad = 64*W - r`, i.e. the pass works modulo `G = g * x^pad`, whose
//! degree is a whole number of words whatever `r` is. Folding the next
//! `P` message words `c[0..P]` is then
//!
//! ```text
//! idx[p] = reg[p] ^ be64(c[p])   // p < P; reg[p] = 0 for p >= W
//! reg[i] = reg[i+P] ^ XOR over p, j of T_(8p+j)[byte j of idx[p]][i]
//! ```
//!
//! — the `64P` coefficients leaving the top, a move by `P` whole words (no
//! bit shift, no mask), and `8P` table rows — with
//! `T_j[v] = ((v(x) * x^(r + 8*(8P-1-j))) mod g) * x^pad` (slicing-by-8P,
//! after the CRC technique). A right-aligned register would have to pull
//! those coefficients off the top of an `r`-bit field — impossible below
//! `r = 64`, a cross-word extract, a bit shift and a mask above — which is
//! why no width here needs a narrower step. The last eight positions of
//! any depth *are* the one-word step's tables, so what a `P`-word loop
//! leaves takes one-word steps and then single bytes through the tail of
//! the same table, and the finished register read out big-endian, cut to
//! `ceil(r/8)` bytes, *is* the parity layout.
//!
//! Why step deeper: only `reg[0..P]` of one step feed the next step's
//! indices, each through one XOR, one byte extract and one table load, so
//! a two-word step has the dependency chain of a one-word step and its
//! sixteen row loads overlap where the one-word step's eight left the load
//! ports idle. What would lengthen the chain is the XOR of the rows: the
//! compiler makes one serial chain of all `8P`. So the pass keeps the
//! register as the XOR of `P` **lanes**, lane `p` taking the eight rows
//! step word `p` selected and moving like the register does
//! (`lane_p[i] = lane_p[i+P] ^ ..`); the lanes meet where the next index
//! is formed (`reg[p]` above is the XOR of the lanes' word `p`) and are
//! summed once after the last step. A step is then `P` independent chains
//! of eight XORs, and at `W = 1`, where the second word meets no register
//! (`reg[1] = 0`) and the message alone selects its rows, that lane is off
//! the critical path altogether.
//!
//! `P` follows the stack/slice seam. Registers of up to four words
//! (`t <= 16` over GF(2^16)) run the step on the stack from a `[u64; W]`
//! monomorph of the one body, where that chain is what the time is:
//! `P = 2`. Wider ones would run the same body over a slice, where the
//! time is the table traffic (8 rows of `W` words per word of message, out
//! of tables — 272 KiB at `t = 65` — that miss L1 and crowd L2) and a
//! doubled table only adds misses: `P = 1`. The one-word register
//! (`t <= 4`: every code a fresh page is written with) steps on every
//! machine; the stack bodies of two to four words and the slice loop are
//! the pass where the CPU has no carry-less multiply, and only there.
//!
//! # From two words up, a carry-less fold
//!
//! Where it has one ([`mlcx_gf2::clmul_available`] — selected by what the
//! CPU does, here and nowhere else, like `MulKernel::best`), a register of
//! 2 to 17 words is not stepped at all. With `K_k = x^(64k) mod G`
//! (`W` words each), an `L`-word **state** `S`, right-aligned, stays
//! congruent to everything read so far while `L` message words at a time
//! come in underneath it:
//!
//! ```text
//! S * x^(64L) + next  ==  sum_i s_i * K_(2L-1-i)  +  next     (mod G)
//! ```
//!
//! — `W` multiplies per message word
//! ([`mlcx_gf2::kernels::fold_clmul`]), about 5 KiB of constants at
//! `t = 65` where the tables held 272, 1.2 KiB at `t = 14` (`W = 4`: a
//! 4 KiB page in 1.0 us where the stack body's sixteen row loads a step
//! took 3.9) where they held 128. Zeros ahead of a message are free in
//! a right-aligned state, so the message's odd leading bytes and words
//! seed it and the rest is whole steps: no tail. The finish moves the
//! state up by the register's width instead, `Z = sum_i s_i * K_(W+L-1-i)`,
//! `W + 1` words congruent to `m(x) * x^(64W)`, and one Barrett word takes
//! the one word too many off: `q = z_0 + high(z_0 * mu)` with
//! `mu = floor(x^(64W+64) / G)`, `R = Z_low + low(q * G_low)`. That `R` is
//! `m(x) * x^(64W) mod G = (m(x) * x^r mod g) * x^pad` — the **same**
//! left-aligned register the stepped pass leaves, which is why nothing
//! after the pass knows which one ran, and why the fold works modulo `G`
//! too and not modulo `g`.
//!
//! `L` is not a knob: the product of a step, `W + 1` words, must land
//! inside the state, so `L >= W + 1`; a step cannot start before the last
//! has finished, so the longer the better; and the kernel keeps the state
//! in its stack frame, 18 words. `L = 18` for every `W`, which is also
//! where the range ends: a register of more than 17 words (no code of the
//! paper's codec) takes the tables.
//!
//! [`crate::CodecKernel::Reference`] does not come through here: its
//! bit-serial LFSR is `bitreg.rs`, which shares nothing with this module.

use mlcx_gf2::kernels::{fold_clmul, row_product_clmul, FOLD_MAX_WORDS};
use mlcx_gf2::{clmul_available, Gf2Poly};

/// Registers of up to this many words (`t <= 16` over GF(2^16)) step on
/// the stack, in a `[u64; W]` monomorph of the pass — the one-word one
/// everywhere, the others where the CPU has no carry-less multiply.
const STACK_WORDS: usize = 4;
/// Words per step `P` where the register lives on the stack...
const STACK_STEP: usize = 2;
/// ...and where the pass runs over a slice.
const SLICE_STEP: usize = 1;

/// The step depth `P` a `words`-word register runs at, and its tables are
/// built for.
const fn step_words(words: usize) -> usize {
    match words {
        1..=STACK_WORDS => STACK_STEP,
        _ => SLICE_STEP,
    }
}

/// State words `L` of the fold: the widest the kernel holds, whatever `W`
/// is (module doc; 4 KiB at `W` = 5 takes 1.3 us at `L` = 8, 1.0 at 18).
const FOLD_STATE: usize = FOLD_MAX_WORDS;
/// The widest register the fold carries: the step's product, `W + 1`
/// words, has to land inside the state.
const FOLD_WORDS: usize = FOLD_STATE - 1;

/// Parallel LFSR engine for one fixed generator polynomial.
#[derive(Debug, Clone)]
pub struct LfsrEncoder {
    r_bits: usize,
    /// Register width `W = ceil(r/64)` in words.
    words: usize,
    pass: Pass,
}

/// What the pass runs on; both leave the same left-aligned register.
#[derive(Debug, Clone)]
enum Pass {
    /// Flattened `8P x 256 x W` position tables, `P = step_words(W)`: byte
    /// position `j` of the step, value `v` occupies
    /// `tables[(j*256 + v)*W..][..W]`, most significant word first.
    Tables(Vec<u64>),
    Fold(FoldConstants),
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
    /// bits): the fold where the register is wider than one word and the
    /// CPU multiplies carry-less, the tables otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `g` is constant (degree < 1).
    pub fn new(generator: &Gf2Poly) -> Self {
        let words = generator.degree().unwrap_or(0).div_ceil(64);
        if (2..=FOLD_WORDS).contains(&words) && clmul_available() {
            Self::with_fold(generator)
        } else {
            Self::with_tables(generator)
        }
    }

    /// `(r, W)` and `x^(64*W) mod G`, most significant word first:
    /// `G = g * x^pad` has degree `64*W`, so that is its lower terms,
    /// `(x^r mod g) * x^pad`.
    fn shape(generator: &Gf2Poly) -> (usize, usize, Vec<u64>) {
        let r_bits = generator
            .degree()
            .filter(|&d| d >= 1)
            .expect("generator polynomial must have degree >= 1");
        let words = r_bits.div_ceil(64);
        let scaled = generator.shl(64 * words - r_bits);
        let feedback = scaled.as_words()[..words].iter().rev().copied().collect();
        (r_bits, words, feedback)
    }

    /// The engine on position tables, whatever the CPU.
    pub(crate) fn with_tables(generator: &Gf2Poly) -> Self {
        let (r_bits, words, feedback) = Self::shape(generator);
        let at = |j: usize, v: usize| (j * 256 + v) * words;
        let last = 8 * step_words(words) - 1;
        let mut tables = vec![0u64; at(last + 1, 0)];
        // T_last[1] = x^(64*W) mod G, and T_last[2^i] = (x^(r+i) mod g) *
        // x^pad is i multiplications by x mod G.
        let mut reg = feedback.clone();
        for i in 0..8 {
            tables[at(last, 1 << i)..][..words].copy_from_slice(&reg);
            mul_x(&mut reg, &feedback);
        }
        // Every table is linear in v.
        for v in 1..256usize {
            let (rest, low) = (v & (v - 1), v & v.wrapping_neg());
            for i in 0..words {
                tables[at(last, v) + i] = tables[at(last, rest) + i] ^ tables[at(last, low) + i];
            }
        }
        // T_j[v] = T_(j+1)[v] * x^8 mod G: one byte step with a zero byte.
        for j in (0..last).rev() {
            for v in 0..256 {
                reg.copy_from_slice(&tables[at(j + 1, v)..][..words]);
                step_byte(&tables[at(last, 0)..], &mut reg, 0);
                tables[at(j, v)..][..words].copy_from_slice(&reg);
            }
        }
        LfsrEncoder {
            r_bits,
            words,
            pass: Pass::Tables(tables),
        }
    }

    /// The engine on the carry-less fold, whatever the CPU (the kernels
    /// multiply bit-serially where it has no `pclmulqdq`).
    ///
    /// # Panics
    ///
    /// Panics if the register is wider than [`FOLD_WORDS`].
    pub(crate) fn with_fold(generator: &Gf2Poly) -> Self {
        let (r_bits, words, modulus) = Self::shape(generator);
        assert!(words <= FOLD_WORDS, "a {words}-word register does not fold");
        let l = FOLD_STATE;
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
            pass: Pass::Fold(FoldConstants {
                step: by_column(2 * l - 1),
                finish: by_column(words + l - 1),
                modulus,
                mu,
            }),
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

    /// Bytes of position tables or fold constants this engine holds.
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> usize {
        match &self.pass {
            Pass::Tables(tables) => size_of_val(&tables[..]),
            Pass::Fold(k) => {
                size_of_val(&k.step[..])
                    + size_of_val(&k.finish[..])
                    + size_of_val(&k.modulus[..])
                    + size_of_val(&k.mu)
            }
        }
    }

    /// Runs the pass over `message` and hands `then` the finished register,
    /// which lives on the stack: up to [`STACK_WORDS`] words off the
    /// tables, up to [`FOLD_WORDS`] off the fold.
    fn with_remainder<R>(&self, message: &[u8], then: impl FnOnce(&mut [u64]) -> R) -> R {
        match (&self.pass, self.words) {
            (Pass::Fold(k), words) => {
                let mut reg = [0u64; FOLD_WORDS];
                k.remainder(message, &mut reg[..words]);
                then(&mut reg[..words])
            }
            (Pass::Tables(tables), 1) => then(&mut narrow::<1>(tables, message)),
            (Pass::Tables(tables), 2) => then(&mut narrow::<2>(tables, message)),
            (Pass::Tables(tables), 3) => then(&mut narrow::<3>(tables, message)),
            (Pass::Tables(tables), 4) => then(&mut narrow::<4>(tables, message)),
            (Pass::Tables(tables), words) => {
                let mut reg = vec![0u64; words];
                wide(tables, &mut reg, message);
                then(&mut reg)
            }
        }
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
    /// The fold: `reg = message(x) * x^(64*W) mod G`, the register the
    /// table pass leaves (see the module doc).
    fn remainder(&self, message: &[u8], reg: &mut [u64]) {
        let (w, l) = (reg.len(), FOLD_STATE);
        // The state is right-aligned and zeros ahead of a message are free,
        // so the odd bytes and words *lead*: they seed the state, and what
        // follows is whole steps.
        let (head, words) = message.as_rchunks::<8>();
        let (seed, steps) = words.split_at(words.len() % l);
        let mut state = [0u64; FOLD_STATE];
        let (ahead, seeded) = state.split_at_mut(l - seed.len());
        let mut first = [0u8; 8];
        first[8 - head.len()..].copy_from_slice(head);
        ahead[ahead.len() - 1] = u64::from_be_bytes(first);
        for (s, c) in seeded.iter_mut().zip(seed) {
            *s = u64::from_be_bytes(*c);
        }
        fold_clmul(&mut state, &self.step, steps);
        // Z = state * x^(64*W), congruent: W + 1 words, one too many.
        let mut z = [0u64; FOLD_STATE];
        let z = &mut z[..=w];
        row_product_clmul(&state, &self.finish, z);
        // Barrett: q = floor(z_0 * x^(64*W) / G) is the high word of
        // z_0 * floor(x^(64*W+64) / G), and Z - q*G has nothing left in
        // word 0.
        let mut quotient = [0u64; 2];
        row_product_clmul(&z[..1], &[self.mu], &mut quotient);
        let q = z[0] ^ quotient[0];
        let mut multiple = [0u64; FOLD_STATE];
        let multiple = &mut multiple[..=w];
        row_product_clmul(&[q], &self.modulus, multiple);
        for ((r, z), m) in reg.iter_mut().zip(&z[1..]).zip(&multiple[1..]) {
            *r = z ^ m;
        }
    }
}

fn narrow<const W: usize>(tables: &[u64], message: &[u8]) -> [u64; W] {
    let mut lanes = [[0u64; W]; STACK_STEP];
    fold(tables, lanes.each_mut().map(|lane| &mut lane[..]), message);
    lanes[0]
}

/// The slice loop, compiled on its own: inlined beside the four stack
/// bodies it came out a quarter slower at `W = 8`.
#[inline(never)]
fn wide(tables: &[u64], reg: &mut [u64], message: &[u8]) {
    fold::<SLICE_STEP>(tables, [reg], message);
}

/// The pass: folds `message` into the left-aligned register, `P` words per
/// step, then what that leaves one word at a time through the last eight
/// position tables, then bytewise through the last one. The `P` lanes come
/// in zeroed; their XOR is the register while the `P`-word steps run (see
/// the module doc), and `lanes[0]` is the register from there on. Inlined
/// into each caller so that a `[u64; W]` register unrolls into scalars —
/// and written with loops and `#[inline(always)]` helpers only: a closure
/// in the step (`array::map`, `from_fn`, `Iterator::fold`) is inlined at
/// the optimiser's discretion, and each one tried was outlined, at up to
/// 2.5x the pass time.
#[inline(always)]
fn fold<const P: usize>(tables: &[u64], mut lanes: [&mut [u64]; P], message: &[u8]) {
    let w = lanes[0].len();
    // One length check here lets every row lookup below go unchecked; it
    // is also what holds `P` to the depth the tables were built at.
    assert_eq!(tables.len(), 8 * P * 256 * w);
    let (words, tail) = message.as_chunks::<8>();
    let (steps, rest) = words.as_chunks::<P>();
    for chunk in steps {
        step(tables, &mut lanes, chunk);
    }
    let (reg, side) = lanes.split_first_mut().expect("P >= 1");
    for lane in side {
        xor(reg, lane);
    }
    // Positions 8(P-1).. are the one-word step's own tables.
    let tables = &tables[8 * (P - 1) * 256 * w..];
    for chunk in rest {
        step(tables, &mut [&mut **reg], &[*chunk]);
    }
    for &byte in tail {
        step_byte(&tables[7 * 256 * w..], reg, byte);
    }
}

/// One `P`-word step over the `8P` position tables in `tables`: step word
/// `p` selects eight rows by the register's word `p` (the lanes' XOR) and
/// its message word, and lane `p` takes them.
#[inline(always)]
fn step<const P: usize>(tables: &[u64], lanes: &mut [&mut [u64]; P], chunk: &[[u8; 8]; P]) {
    let w = lanes[0].len();
    let mut rows = [[&tables[..w]; 8]; P];
    for p in 0..P {
        // The 64 coefficients leaving the top in word p of the step.
        let mut idx = u64::from_be_bytes(chunk[p]);
        if p < w {
            for lane in lanes.iter() {
                idx ^= lane[p];
            }
        }
        for j in 0..8 {
            let v = (idx >> (56 - 8 * j)) as u8 as usize;
            rows[p][j] = &tables[((8 * p + j) * 256 + v) * w..][..w];
        }
    }
    // The word move and the XOR in one sweep: word i takes word i + P.
    let moved = w.saturating_sub(P);
    for (lane, rows) in lanes.iter_mut().zip(&rows) {
        for i in 0..moved {
            lane[i] = lane[i + P] ^ sum(rows, i);
        }
        for i in moved..w {
            lane[i] = sum(rows, i);
        }
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

/// One byte through the last position table `t_last`: the 8 coefficients
/// leaving the top select the row, the register moves up 8 bits.
#[inline(always)]
fn step_byte(t_last: &[u64], reg: &mut [u64], byte: u8) {
    let v = ((reg[0] >> 56) as u8 ^ byte) as usize;
    shl(reg, 8);
    xor(reg, &t_last[v * reg.len()..][..reg.len()]);
}

/// `reg <- reg * x mod G` for `G`'s lower terms `feedback`; returns the
/// coefficient that left the top.
fn mul_x(reg: &mut [u64], feedback: &[u64]) -> bool {
    let carry = reg[0] >> 63 == 1;
    shl(reg, 1);
    if carry {
        xor(reg, feedback);
    }
    carry
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

    /// Both passes for `g`, whatever this CPU would pick: the tables, then
    /// the fold.
    fn passes(g: &Gf2Poly) -> [LfsrEncoder; 2] {
        [LfsrEncoder::with_tables(g), LfsrEncoder::with_fold(g)]
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
    fn tables_match_the_polynomial_definition() {
        // T_j[v] == ((v * x^(r + 8*(8P-1-j))) mod g) << pad, every entry of
        // every position, at the depth the class steps at.
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let Pass::Tables(tables) = LfsrEncoder::with_tables(&g).pass else {
                panic!("with_tables builds tables");
            };
            let positions = if words <= 4 { 16 } else { 8 };
            assert_eq!(tables.len(), positions * 256 * words, "r = {r}");
            for j in 0..positions {
                for v in 0..256usize {
                    let rem = Gf2Poly::from_int(v as u64)
                        .shl(r + 8 * (positions - 1 - j))
                        .rem(&g)
                        .shl(64 * words - r);
                    let got = &tables[(j * 256 + v) * words..][..words];
                    assert_eq!(got, &be_words(&rem, words)[..], "r = {r}, T_{j}[{v}]");
                }
            }
        }
    }

    #[test]
    fn fold_constants_match_long_division() {
        // K_k == x^(64k) mod G against each state word, in the kernels'
        // column layout, and mu == floor(x^(64W+64) / G) below its leading
        // term, by `Gf2Poly` long division.
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let enc = LfsrEncoder::with_fold(&g);
            let Pass::Fold(k) = &enc.pass else {
                panic!("with_fold builds constants");
            };
            let l = FOLD_STATE;
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
            // The footprint this pass exists for: under 6 KiB where the
            // tables it replaces hold 272.
            if t == 65 {
                assert_eq!(enc.table_bytes(), (2 * 18 * 17 + 17 + 1) * 8);
                assert!(enc.table_bytes() <= 6 << 10);
            }
        }
    }

    #[test]
    fn the_production_wide_pass_is_the_fold_exactly_where_clmul_is_native() {
        for (m, t, r, words) in CLASSES {
            let enc = LfsrEncoder::new(&class_generator(m, t, r, words));
            let folds = matches!(enc.pass, Pass::Fold(_));
            assert_eq!(folds, words >= 2 && clmul_available(), "r = {r}");
        }
        // Wider than the fold's stack state: the tables, on any CPU.
        let mut g = Gf2Poly::monomial(64 * FOLD_WORDS + 1);
        g.set_coeff(0, true);
        assert!(matches!(LfsrEncoder::new(&g).pass, Pass::Tables(_)));
    }

    #[test]
    fn every_register_class_matches_the_oracle_and_long_division() {
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let oracle = BitSerialLfsr::new(&g);
            // Every `len % 16` below 16 and above, so the `P`-word loop, the
            // one-word step it can leave and each byte-tail length all run
            // in every stack body and in the slice loop; a byte either side
            // of the fold's first three `8*L` boundaries, where a seed word
            // becomes a step; the last is the paper's page.
            let step = 8 * FOLD_STATE;
            let edges = (1..=3).flat_map(|k| k * step - 1..=k * step + 1);
            let lens: Vec<usize> = (0..=33)
                .chain([47, 70])
                .chain(edges)
                .chain([4096])
                .collect();
            for enc in passes(&g) {
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
    }

    #[test]
    fn any_single_flip_invalidates_the_codeword() {
        for (m, t, r, words) in CLASSES {
            let g = class_generator(m, t, r, words);
            let oracle = BitSerialLfsr::new(&g);
            // Short enough that no flip lands on another codeword: n stays
            // inside the code length 2^m - 1.
            let len = ((1usize << m) - 1 - r) / 8;
            let len = len.min(if r == 1040 { 3 } else { 21 });
            let msg = payload(len, words);
            for enc in passes(&g) {
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
    }

    #[test]
    fn pad_bits_of_the_last_parity_byte_are_not_codeword_bits() {
        for (m, t, r, words) in CLASSES {
            let pad_bits = 8 * r.div_ceil(8) - r;
            let g = class_generator(m, t, r, words);
            let msg = payload(1, r);
            for enc in passes(&g) {
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
                    let image = enc.received_remainder(&msg, &parity, |reg| enc.parity_image(reg));
                    assert_eq!(image, Some(expect));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Either pass is polynomial division, BCH or not: any generator
        /// of any degree — so every `r % 64` and every `r % 8`, not only
        /// the multiples of `m` the BCH classes reach — and any message
        /// length (every `len % 16` several times over, the fold's first
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
            for enc in passes(&g) {
                prop_assert_eq!(&enc.remainder(&msg), &expect);
                prop_assert!(enc.codeword_is_valid(&msg, &expect));
            }
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
