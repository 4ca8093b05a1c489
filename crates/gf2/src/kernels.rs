//! Carry-less multiplication kernels: one oracle, one production path.
//!
//! Dense GF(2)\[x\] multiplication over bit-packed [`Block`] words:
//!
//! | kernel | role | technique |
//! |--------|------|-----------|
//! | [`mul_raw_reference`] | oracle | bit-serial schoolbook — the definition, and the reference the production path is differential-tested against |
//! | [`mul_raw_clmul`] | production (`x86_64`) | `pclmulqdq`: one 64x64 carry-less multiply per word pair, behind a `cfg` + runtime-detect gate |
//! | [`mul_raw_windowed`] | production (everywhere else) | 4-bit windowed: 16 precomputed shifted multiples of `b`, two table XORs per byte of `a` |
//!
//! All three compute the *same* product. [`MulKernel::best`] picks the
//! production kernel from what the build and the running CPU support:
//! CLMUL when the `clmul` cargo feature is on, the target is `x86_64` and
//! the CPU advertises `pclmulqdq`; the windowed kernel otherwise. That is
//! what [`crate::Gf2Poly::mul`] runs.
//!
//! All kernels accept *raw* word slices (trailing zero words allowed) and
//! return a raw word vector that may carry trailing zero words — callers
//! building a [`crate::Gf2Poly`] must normalize, which
//! [`crate::Gf2Poly::mul_with`] does.
//!
//! Beside the multiply, two entry points for a caller that reduces a long
//! message modulo a fixed polynomial by multiplication instead of tables
//! (`mlcx_bch`'s wide LFSR pass): fixed shapes, **most significant word
//! first**, nothing allocated, `pclmulqdq` where [`clmul_available`] and a
//! bit-serial multiply — the same result, for tests and odd machines, not
//! for speed — everywhere else:
//!
//! | entry point | computes |
//! |-------------|----------|
//! | [`row_product_clmul`] | `sum_i a[i] * K_i`: `L` words against `L` constants of `W` words, into `W + 1` |
//! | [`fold_clmul`] | per `L` message words, `state <- sum_i state[i] * K_i + (next L words)`: the row product landing in the state's low `W + 1` words |

/// The machine word the kernels operate on (64 coefficient bits).
pub type Block = u64;

/// Result length (in words) that can hold `a * b` for any inputs.
fn product_len(a: &[Block], b: &[Block]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    a.len() + b.len()
}

/// Bit-serial schoolbook multiplication (the definition).
///
/// For every set coefficient bit of `a`, XORs `b` shifted by that single
/// bit position into the accumulator, one *bit* at a time. Quadratic in
/// bits; exists purely as the differential-testing oracle.
pub fn mul_raw_reference(a: &[Block], b: &[Block]) -> Vec<Block> {
    let mut acc = vec![0u64; product_len(a, b)];
    for (wi, &aw) in a.iter().enumerate() {
        for bit in 0..64 {
            if aw >> bit & 1 == 1 {
                let shift = wi * 64 + bit;
                let (ws, bs) = (shift / 64, shift % 64);
                for (bj, &bw) in b.iter().enumerate() {
                    if bw == 0 {
                        continue;
                    }
                    acc[ws + bj] ^= bw << bs;
                    if bs != 0 {
                        acc[ws + bj + 1] ^= bw >> (64 - bs);
                    }
                }
            }
        }
    }
    acc
}

/// 4-bit windowed multiplication — the production path wherever CLMUL
/// is unavailable.
///
/// Precomputes the 16 products `w * b` for every 4-bit window value `w`,
/// then folds `a` one nibble at a time: two table XOR-accumulates per byte
/// of `a` instead of up to eight single-bit passes.
pub fn mul_raw_windowed(a: &[Block], b: &[Block]) -> Vec<Block> {
    let out_len = product_len(a, b);
    let mut acc = vec![0u64; out_len];
    if out_len == 0 {
        return acc;
    }
    // window[w] = w(x) * b(x), each b.len() + 1 words long.
    let wlen = b.len() + 1;
    let mut window = vec![0u64; 16 * wlen];
    for w in 1usize..16 {
        // w = (w & (w-1)) ^ (lowest set bit): build each entry from a
        // previously filled one plus a single-bit shift of b.
        let prev = w & (w - 1);
        let bit = (w ^ prev).trailing_zeros() as usize;
        for j in 0..wlen {
            let mut word = window[prev * wlen + j];
            if j < b.len() {
                word ^= b[j] << bit;
            }
            if bit != 0 && j > 0 {
                word ^= b[j - 1] >> (64 - bit);
            }
            window[w * wlen + j] = word;
        }
    }
    for (wi, &aw) in a.iter().enumerate() {
        if aw == 0 {
            continue;
        }
        for nib in 0..16 {
            let w = (aw >> (4 * nib) & 0xF) as usize;
            if w == 0 {
                continue;
            }
            let shift = 4 * nib;
            let tbl = &window[w * wlen..(w + 1) * wlen];
            for (j, &tw) in tbl.iter().enumerate() {
                if tw == 0 {
                    continue;
                }
                acc[wi + j] ^= tw << shift;
                if shift != 0 && wi + j + 1 < out_len {
                    acc[wi + j + 1] ^= tw >> (64 - shift);
                }
            }
        }
    }
    acc
}

/// `true` when [`mul_raw_clmul`] will actually execute `pclmulqdq` on this
/// build/CPU (cargo feature on, `x86_64` target, CPU flag present).
pub fn clmul_available() -> bool {
    clmul::available()
}

/// Carry-less multiply via `pclmulqdq`, one 64x64 product per word pair,
/// XOR-accumulated into the 128-bit lanes.
///
/// Falls back to [`mul_raw_windowed`] (bit-identical result) when
/// [`clmul_available`] is `false`, so it is always safe to call.
pub fn mul_raw_clmul(a: &[Block], b: &[Block]) -> Vec<Block> {
    if clmul::available() {
        clmul::mul(a, b)
    } else {
        mul_raw_windowed(a, b)
    }
}

/// Widest state [`fold_clmul`] takes: its step product lives on the stack.
pub const FOLD_MAX_WORDS: usize = 18;

/// Row product `out = sum_i a[i] * K_i` over GF(2)\[x\]: `L = a.len()` words
/// against `L` constants of `W = out.len() - 1` words each, into `W + 1`
/// words.
///
/// Every multi-word value here and in [`fold_clmul`] is **most significant
/// word first**, and `consts` holds the constants by column: `W` rows of
/// `L` words, `consts[w * L + i]` = word `w` of `K_i`, so that one output
/// column reads `a` and one row front to back.
///
/// Runs `pclmulqdq` where [`clmul_available`], a bit-serial multiply
/// (bit-identical result) everywhere else, so it is always safe to call.
///
/// # Panics
///
/// Panics if `a` or `out` is empty or `consts.len() != L * W`.
pub fn row_product_clmul(a: &[Block], consts: &[Block], out: &mut [Block]) {
    assert!(!a.is_empty() && !out.is_empty(), "empty operand");
    assert_eq!(
        consts.len(),
        a.len() * (out.len() - 1),
        "constants are not W rows of L words"
    );
    if !clmul::row_product(a, consts, out) {
        row_product_with(ShiftXor, a, consts, out);
    }
}

/// Folds `message` into the `L`-word `state`: per `L` message words,
/// `state <- sum_i state[i] * K_i + (the next L words)`, the product a
/// [`row_product_clmul`] over `consts` (`W = consts.len() / L` words per
/// constant, same layout) landing in the state's low `W + 1` words.
///
/// With `K_i = x^(64 * (2L - 1 - i)) mod G` that keeps `state` congruent
/// modulo `G` to everything read so far — `W` multiplies per message word
/// and no table. `message` is a byte string taken as big-endian words, the
/// whole of it in one call so that the `target_feature` boundary is
/// crossed once.
///
/// # Panics
///
/// Panics if `L` is zero or above [`FOLD_MAX_WORDS`], if `consts.len()` is
/// not `L * W` with `W < L` (the product must fit the state), or if
/// `message.len()` is not a multiple of `L`.
pub fn fold_clmul(state: &mut [Block], consts: &[Block], message: &[[u8; 8]]) {
    let l = state.len();
    assert!((1..=FOLD_MAX_WORDS).contains(&l), "state of {l} words");
    assert!(
        consts.len().is_multiple_of(l) && consts.len() / l < l,
        "constants are not W < L rows of L words"
    );
    assert!(
        message.len().is_multiple_of(l),
        "message is not a multiple of L words"
    );
    if !clmul::fold(state, consts, message) {
        fold_with(ShiftXor, state, consts, message);
    }
}

/// The one thing the row product and the fold need of the machine: a
/// 64 x 64 -> 128 bit carry-less multiply XORed into an accumulator that
/// stays wherever the machine keeps it (an `xmm` register for
/// `pclmulqdq`; moving each product to general registers would double
/// the work on the multiplier's port).
trait MulAcc: Copy {
    type Acc: Copy;
    fn zero(self) -> Self::Acc;
    fn mul_acc(self, acc: Self::Acc, a: Block, b: Block) -> Self::Acc;
    /// The accumulator's (high, low) words.
    fn halves(self, acc: Self::Acc) -> (Block, Block);
}

/// Shift-and-XOR, one bit of `a` at a time: the portable [`MulAcc`].
#[derive(Clone, Copy)]
struct ShiftXor;

impl MulAcc for ShiftXor {
    type Acc = u128;

    fn zero(self) -> u128 {
        0
    }

    fn mul_acc(self, acc: u128, a: Block, b: Block) -> u128 {
        (0..64)
            .filter(|bit| a >> bit & 1 == 1)
            .fold(acc, |acc, bit| acc ^ u128::from(b) << bit)
    }

    fn halves(self, acc: u128) -> (Block, Block) {
        ((acc >> 64) as Block, acc as Block)
    }
}

/// [`row_product_clmul`]'s body (shapes already checked): column `w` is
/// one accumulator over `a` and row `w`; its high word meets the low word
/// of the column before.
#[inline(always)]
fn row_product_with<M: MulAcc>(m: M, a: &[Block], consts: &[Block], out: &mut [Block]) {
    let (last, columns) = out.split_last_mut().expect("out is not empty");
    let mut carry = 0;
    for (o, row) in columns.iter_mut().zip(consts.chunks_exact(a.len())) {
        let mut acc = m.zero();
        for (&s, &k) in a.iter().zip(row) {
            acc = m.mul_acc(acc, s, k);
        }
        let (high, low) = m.halves(acc);
        *o = carry ^ high;
        carry = low;
    }
    *last = carry;
}

/// [`fold_clmul`]'s body (shapes already checked).
#[inline(always)]
fn fold_with<M: MulAcc>(m: M, state: &mut [Block], consts: &[Block], message: &[[u8; 8]]) {
    let l = state.len();
    let mut product = [0; FOLD_MAX_WORDS];
    let product = &mut product[..=consts.len() / l];
    // State words above the product take their message word alone.
    let above = l - product.len();
    for chunk in message.chunks_exact(l) {
        row_product_with(m, state, consts, product);
        let (top, low) = state.split_at_mut(above);
        for (s, c) in top.iter_mut().zip(chunk) {
            *s = Block::from_be_bytes(*c);
        }
        for ((s, &p), c) in low.iter_mut().zip(&*product).zip(&chunk[above..]) {
            *s = p ^ Block::from_be_bytes(*c);
        }
    }
}

#[cfg(all(feature = "clmul", target_arch = "x86_64"))]
mod clmul {
    //! The only unsafe in the crate: `pclmulqdq` intrinsics, reachable
    //! solely through the runtime feature check in [`available`].
    #![allow(unsafe_code, reason = "target_feature intrinsics have no safe form")]

    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi64_si128, _mm_extract_epi64, _mm_setzero_si128,
        _mm_xor_si128,
    };

    use super::{fold_with, product_len, row_product_with, Block, MulAcc};

    pub(super) fn available() -> bool {
        // sse4.1 covers the pextrq lane extraction below; every CPU
        // shipping pclmulqdq also ships sse4.1, but detect both anyway.
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    pub(super) fn mul(a: &[Block], b: &[Block]) -> Vec<Block> {
        debug_assert!(available());
        // SAFETY: the sole caller, `mul_raw_clmul`, gets here only after
        // `available()` saw pclmulqdq and sse4.1 (sse2 is x86_64 baseline).
        unsafe { mul_impl(a, b) }
    }

    /// # Safety
    ///
    /// The CPU must execute pclmulqdq, sse2 and sse4.1 (`target_feature`
    /// intrinsics require an unsafe fn); the sole caller, [`mul`], checks.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    unsafe fn mul_impl(a: &[Block], b: &[Block]) -> Vec<Block> {
        let mut acc = vec![0u64; product_len(a, b)];
        for (wi, &aw) in a.iter().enumerate() {
            if aw == 0 {
                continue;
            }
            let va = _mm_cvtsi64_si128(aw as i64);
            for (bj, &bw) in b.iter().enumerate() {
                if bw == 0 {
                    continue;
                }
                let vb = _mm_cvtsi64_si128(bw as i64);
                let prod = _mm_clmulepi64_si128::<0>(va, vb);
                acc[wi + bj] ^= _mm_extract_epi64::<0>(prod) as u64;
                acc[wi + bj + 1] ^= _mm_extract_epi64::<1>(prod) as u64;
            }
        }
        acc
    }

    /// [`super::row_product_clmul`] on `pclmulqdq` (shapes already
    /// checked), or `false` with nothing done where the CPU has none.
    pub(super) fn row_product(a: &[Block], consts: &[Block], out: &mut [Block]) -> bool {
        let Some(cpu) = Pclmul::detect() else {
            return false;
        };
        // SAFETY: a `Pclmul` exists only after `available()` saw pclmulqdq
        // and sse4.1 (sse2 is x86_64 baseline).
        unsafe { row_product_impl(cpu, a, consts, out) }
        true
    }

    /// [`super::fold_clmul`] on `pclmulqdq`, as [`row_product`].
    pub(super) fn fold(state: &mut [Block], consts: &[Block], message: &[[u8; 8]]) -> bool {
        let Some(cpu) = Pclmul::detect() else {
            return false;
        };
        // SAFETY: as in `row_product`.
        unsafe { fold_impl(cpu, state, consts, message) }
        true
    }

    /// Proof that the CPU executes pclmulqdq and sse4.1: the one
    /// constructor checks, which is what lets the [`MulAcc`] methods be
    /// safe to call.
    #[derive(Clone, Copy)]
    struct Pclmul(());

    impl Pclmul {
        fn detect() -> Option<Self> {
            available().then_some(Pclmul(()))
        }
    }

    impl MulAcc for Pclmul {
        type Acc = __m128i;

        #[inline(always)]
        fn zero(self) -> __m128i {
            // SAFETY: sse2 is x86_64 baseline.
            unsafe { _mm_setzero_si128() }
        }

        #[inline(always)]
        fn mul_acc(self, acc: __m128i, a: Block, b: Block) -> __m128i {
            // SAFETY: `self` exists, so `detect` saw pclmulqdq.
            unsafe {
                let (a, b) = (_mm_cvtsi64_si128(a as i64), _mm_cvtsi64_si128(b as i64));
                _mm_xor_si128(acc, _mm_clmulepi64_si128::<0>(a, b))
            }
        }

        #[inline(always)]
        fn halves(self, acc: __m128i) -> (Block, Block) {
            // SAFETY: `self` exists, so `detect` saw sse4.1 (pextrq).
            unsafe {
                (
                    _mm_extract_epi64::<1>(acc) as Block,
                    _mm_extract_epi64::<0>(acc) as Block,
                )
            }
        }
    }

    /// The shared bodies, compiled with the features on so that the
    /// [`MulAcc`] methods inline down to the instructions.
    ///
    /// # Safety
    ///
    /// The CPU must execute pclmulqdq, sse2 and sse4.1; a [`Pclmul`] is
    /// the proof, and `target_feature` functions are unsafe to call from
    /// code compiled without the features all the same.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    unsafe fn row_product_impl(cpu: Pclmul, a: &[Block], consts: &[Block], out: &mut [Block]) {
        row_product_with(cpu, a, consts, out);
    }

    /// # Safety
    ///
    /// As [`row_product_impl`].
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    unsafe fn fold_impl(cpu: Pclmul, state: &mut [Block], consts: &[Block], message: &[[u8; 8]]) {
        fold_with(cpu, state, consts, message);
    }
}

#[cfg(not(all(feature = "clmul", target_arch = "x86_64")))]
mod clmul {
    //! Portable stand-in: CLMUL is unavailable and
    //! [`super::mul_raw_clmul`] falls back to the windowed kernel.
    use super::Block;

    pub(super) fn available() -> bool {
        false
    }

    pub(super) fn mul(_a: &[Block], _b: &[Block]) -> Vec<Block> {
        unreachable!("clmul::mul is only called when available() is true")
    }

    pub(super) fn row_product(_a: &[Block], _consts: &[Block], _out: &mut [Block]) -> bool {
        false
    }

    pub(super) fn fold(_state: &mut [Block], _consts: &[Block], _message: &[[u8; 8]]) -> bool {
        false
    }
}

/// The carry-less multiply kernels by name: the oracle and the two
/// production paths [`MulKernel::best`] chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulKernel {
    /// Bit-serial oracle ([`mul_raw_reference`]).
    Reference,
    /// 4-bit windowed ([`mul_raw_windowed`]): the production path on
    /// builds and CPUs without CLMUL.
    Windowed,
    /// `pclmulqdq` carry-less multiply ([`mul_raw_clmul`]); falls back to
    /// the windowed kernel where CLMUL is unavailable.
    Clmul,
}

impl MulKernel {
    /// Every kernel, oracle first.
    pub const ALL: [MulKernel; 3] = [MulKernel::Reference, MulKernel::Windowed, MulKernel::Clmul];

    /// The production kernel for this build/CPU: CLMUL where it is
    /// native, the windowed kernel otherwise.
    pub fn best() -> MulKernel {
        if clmul_available() {
            MulKernel::Clmul
        } else {
            MulKernel::Windowed
        }
    }

    /// Runs the selected kernel on raw word slices (output may carry
    /// trailing zero words; see the module docs).
    pub fn mul_raw(self, a: &[Block], b: &[Block]) -> Vec<Block> {
        match self {
            MulKernel::Reference => mul_raw_reference(a, b),
            MulKernel::Windowed => mul_raw_windowed(a, b),
            MulKernel::Clmul => mul_raw_clmul(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_words(n: usize, state: &mut u64) -> Vec<u64> {
        (0..n).map(|_| xorshift(state)).collect()
    }

    #[test]
    fn all_rungs_match_reference_on_random_inputs() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for (la, lb) in [(1, 1), (1, 3), (2, 2), (3, 5), (7, 4), (16, 16)] {
            let a = random_words(la, &mut state);
            let b = random_words(lb, &mut state);
            let reference = mul_raw_reference(&a, &b);
            for k in MulKernel::ALL {
                assert_eq!(
                    k.mul_raw(&a, &b),
                    reference,
                    "{k:?} diverged on {la}x{lb} words"
                );
            }
        }
    }

    #[test]
    fn commutative_across_rungs() {
        let mut state = 99u64;
        let a = random_words(5, &mut state);
        let b = random_words(3, &mut state);
        for k in MulKernel::ALL {
            // a*b and b*a differ in raw length; compare content-padded.
            let mut ab = k.mul_raw(&a, &b);
            let mut ba = k.mul_raw(&b, &a);
            let len = ab.len().max(ba.len());
            ab.resize(len, 0);
            ba.resize(len, 0);
            assert_eq!(ab, ba, "{k:?}");
        }
    }

    #[test]
    fn empty_and_zero_operands() {
        for k in MulKernel::ALL {
            assert!(k.mul_raw(&[], &[1, 2, 3]).is_empty());
            assert!(k.mul_raw(&[5], &[]).is_empty());
            assert!(k.mul_raw(&[0, 0], &[0]).iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn single_bit_times_single_bit() {
        // x^63 * x^1 = x^64: crosses the word boundary in every kernel.
        for k in MulKernel::ALL {
            let got = k.mul_raw(&[1u64 << 63], &[1u64 << 1]);
            assert_eq!(got[0], 0, "{k:?}");
            assert_eq!(got[1], 1, "{k:?}");
        }
    }

    #[test]
    fn trailing_zero_words_in_inputs_are_harmless() {
        let a = [0xDEAD_BEEFu64, 0, 0];
        let b = [0x1234_5678u64, 0];
        let reference = mul_raw_reference(&[0xDEAD_BEEF], &[0x1234_5678]);
        for k in MulKernel::ALL {
            let got = k.mul_raw(&a, &b);
            // Same product, possibly longer tail of zeros.
            assert_eq!(&got[..reference.len()], &reference[..], "{k:?}");
            assert!(got[reference.len()..].iter().all(|&w| w == 0));
        }
    }

    /// `sum_i a[i] * K_i` by the oracle multiply, most significant word
    /// first like everything the row product and the fold touch.
    fn row_product_reference(a: &[u64], consts: &[u64], w: usize) -> Vec<u64> {
        let l = a.len();
        let mut out = vec![0u64; w + 1];
        for (i, &s) in a.iter().enumerate() {
            let k: Vec<u64> = (0..w).rev().map(|row| consts[row * l + i]).collect();
            for (j, word) in mul_raw_reference(&[s], &k).into_iter().enumerate() {
                out[w - j] ^= word;
            }
        }
        out
    }

    fn poly(words_msb_first: &[u64]) -> crate::Gf2Poly {
        crate::Gf2Poly::from_words(words_msb_first.iter().rev().copied().collect())
    }

    #[test]
    fn row_product_and_fold_match_the_oracle_on_every_shape() {
        let mut rng = 0x0F01_DED5_EED5_0001u64;
        for l in 1..=FOLD_MAX_WORDS {
            for w in 1..=17 {
                let a = random_words(l, &mut rng);
                let consts = random_words(l * w, &mut rng);
                let mut out = vec![0u64; w + 1];
                row_product_clmul(&a, &consts, &mut out);
                assert_eq!(out, row_product_reference(&a, &consts, w), "L {l}, W {w}");
            }
        }
        for l in 2..=FOLD_MAX_WORDS {
            for w in 1..l {
                // A modulus of degree 64 W and the constants that move the
                // state up L words under it: K_i = x^(64 (2L-1-i)) mod G.
                let mut modulus = vec![1u64];
                modulus.extend(random_words(w, &mut rng));
                let modulus = poly(&modulus);
                let mut consts = vec![0u64; l * w];
                for i in 0..l {
                    let k = crate::Gf2Poly::monomial(64 * (2 * l - 1 - i)).rem(&modulus);
                    for (j, &word) in k.as_words().iter().enumerate() {
                        consts[(w - 1 - j) * l + i] = word;
                    }
                }
                for steps in 0..=4 {
                    let seed = random_words(l, &mut rng);
                    let message = random_words(l * steps, &mut rng);
                    let bytes: Vec<[u8; 8]> = message.iter().map(|m| m.to_be_bytes()).collect();
                    let mut state = seed.clone();
                    fold_clmul(&mut state, &consts, &bytes);
                    // Step by step, by the oracle multiply...
                    let mut expect = seed.clone();
                    for chunk in message.chunks(l) {
                        let product = row_product_reference(&expect, &consts, w);
                        expect = chunk.to_vec();
                        for (e, p) in expect[l - w - 1..].iter_mut().zip(product) {
                            *e ^= p;
                        }
                    }
                    assert_eq!(state, expect, "L {l}, W {w}, {steps} steps");
                    // ...and as what it is for: seed then message, mod G.
                    let all: Vec<u64> = seed.iter().chain(&message).copied().collect();
                    assert_eq!(
                        poly(&state).rem(&modulus),
                        poly(&all).rem(&modulus),
                        "L {l}, W {w}, {steps} steps"
                    );
                }
            }
        }
    }

    // A bad shape must stop at the safe wrapper, whatever the CPU.
    #[test]
    #[should_panic(expected = "W rows of L words")]
    fn row_product_rejects_constants_that_are_not_l_by_w() {
        row_product_clmul(&[1, 2, 3], &[0; 7], &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "W < L rows of L words")]
    fn fold_rejects_a_product_wider_than_the_state() {
        fold_clmul(&mut [0; 4], &[0; 16], &[[0; 8]; 4]);
    }

    #[test]
    #[should_panic(expected = "W < L rows of L words")]
    fn fold_rejects_constants_that_are_not_l_by_w() {
        fold_clmul(&mut [0; 4], &[0; 9], &[[0; 8]; 4]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of L words")]
    fn fold_rejects_a_message_that_is_not_whole_steps() {
        fold_clmul(&mut [0; 4], &[0; 8], &[[0; 8]; 6]);
    }

    #[test]
    #[should_panic(expected = "state of 19 words")]
    fn fold_rejects_a_state_wider_than_its_stack_frame() {
        fold_clmul(&mut [0; 19], &[0; 19], &[]);
    }

    #[test]
    fn best_is_clmul_exactly_where_it_is_native() {
        let best = MulKernel::best();
        assert_ne!(best, MulKernel::Reference);
        assert_eq!(best == MulKernel::Clmul, clmul_available());
        if !cfg!(all(feature = "clmul", target_arch = "x86_64")) {
            assert_eq!(best, MulKernel::Windowed);
        }
    }
}
