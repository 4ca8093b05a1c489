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

#[cfg(all(feature = "clmul", target_arch = "x86_64"))]
mod clmul {
    //! The only unsafe in the crate: `pclmulqdq` intrinsics, reachable
    //! solely through the runtime feature check in [`available`].
    #![allow(unsafe_code, reason = "target_feature intrinsics have no safe form")]

    use super::{product_len, Block};

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
        use std::arch::x86_64::{_mm_clmulepi64_si128, _mm_cvtsi64_si128, _mm_extract_epi64};
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
