//! Property-based and paper-scale integration tests for the BCH codec.

use std::collections::BTreeSet;

use mlcx_bch::{AdaptiveBch, BchCode, DecodeOutcome};
use mlcx_gf2::GfField;
use proptest::prelude::*;
use std::sync::Arc;

fn flip(buf: &mut [u8], bitpos: usize) {
    buf[bitpos / 8] ^= 1 << (7 - bitpos % 8);
}

/// Injects `positions` into a (message, parity) pair split at `k_bits`.
fn inject(message: &mut [u8], parity: &mut [u8], k_bits: usize, positions: &BTreeSet<usize>) {
    for &p in positions {
        if p < k_bits {
            flip(message, p);
        } else {
            flip(parity, p - k_bits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any error pattern of weight <= t is corrected exactly.
    #[test]
    fn corrects_any_pattern_up_to_t(
        m in 9u32..=13,
        t in 1u32..=6,
        k_bytes in 16usize..=96,
        seed in any::<u64>(),
    ) {
        let field = Arc::new(GfField::new(m).unwrap());
        let k_bits = k_bytes * 8;
        prop_assume!(k_bits + (m * t) as usize <= field.order() as usize);
        let code = BchCode::new(field, k_bits, t).unwrap();

        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msg: Vec<u8> = (0..k_bytes).map(|_| rng.random()).collect();
        let mut parity = code.encode(&msg).unwrap();
        let mut recv = msg.clone();

        let n = code.codeword_bits();
        let errors = rng.random_range(0..=t) as usize;
        let mut positions = BTreeSet::new();
        while positions.len() < errors {
            positions.insert(rng.random_range(0..n));
        }
        inject(&mut recv, &mut parity, k_bits, &positions);

        let out = code.decode(&mut recv, &mut parity).unwrap();
        prop_assert_eq!(&recv, &msg);
        match out {
            DecodeOutcome::Clean => prop_assert_eq!(errors, 0),
            DecodeOutcome::Corrected { bit_errors, positions: got, .. } => {
                prop_assert_eq!(bit_errors, errors);
                prop_assert_eq!(got, positions.into_iter().collect::<Vec<_>>());
            }
            DecodeOutcome::Uncorrectable => prop_assert!(false, "must correct <= t errors"),
        }
        // The corrected pair must re-validate as clean.
        let clean = code.decode(&mut recv, &mut parity).unwrap();
        prop_assert_eq!(clean, DecodeOutcome::Clean);
    }

    /// Beyond-capability patterns never silently pass as `Clean` and never
    /// return wrong data under the `Corrected` label *while claiming <= t
    /// flips of the injected pattern* — they either detect, or miscorrect
    /// into a *different* valid codeword (counted, never hidden).
    #[test]
    fn beyond_t_is_detected_or_counted_miscorrection(
        seed in any::<u64>(),
        extra in 1u32..=3,
    ) {
        let field = Arc::new(GfField::new(11).unwrap());
        let t = 3u32;
        let k_bits = 64 * 8;
        let code = BchCode::new(field, k_bits, t).unwrap();

        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msg: Vec<u8> = (0..64).map(|_| rng.random()).collect();
        let mut parity = code.encode(&msg).unwrap();
        let mut recv = msg.clone();

        let n = code.codeword_bits();
        let mut positions = BTreeSet::new();
        while positions.len() < (t + extra) as usize {
            positions.insert(rng.random_range(0..n));
        }
        inject(&mut recv, &mut parity, k_bits, &positions);

        match code.decode(&mut recv, &mut parity).unwrap() {
            DecodeOutcome::Clean => prop_assert!(false, "corrupted codeword cannot be clean"),
            DecodeOutcome::Uncorrectable => {
                // Data untouched on detection.
                let mut expect = msg.clone();
                let msg_positions: BTreeSet<usize> =
                    positions.iter().copied().filter(|&p| p < k_bits).collect();
                inject(&mut expect, &mut vec![0u8; code.parity_bytes()], k_bits, &msg_positions);
                prop_assert_eq!(recv, expect);
            }
            DecodeOutcome::Corrected { bit_errors, .. } => {
                // Miscorrection: must have landed on a valid codeword and
                // reported at most t corrections.
                prop_assert!(bit_errors <= t as usize);
                let check = code.decode(&mut recv, &mut parity).unwrap();
                prop_assert_eq!(check, DecodeOutcome::Clean);
            }
        }
    }

    /// Parity footprint is monotone in t and bounded by m*t bits.
    #[test]
    fn parity_footprint_bounds(t in 1u32..=20) {
        let mut codec = AdaptiveBch::new(14, 256 * 8, 1, 20).unwrap();
        let code = codec.code_for(t).unwrap();
        prop_assert!(code.parity_bits() <= (14 * t) as usize);
        if t > 1 {
            let prev = codec.code_for(t - 1).unwrap();
            prop_assert!(code.parity_bits() >= prev.parity_bits());
        }
    }
}

/// The paper's exact configuration: 4 KiB page, GF(2^16), t = 3..=65.
#[test]
fn date2012_full_scale_roundtrip() {
    let mut codec = AdaptiveBch::date2012().unwrap();
    assert_eq!(codec.message_bits(), 32768);
    assert_eq!(codec.tmin(), 3);
    assert_eq!(codec.tmax(), 65);
    // Worst-case parity must fit a 224-byte spare area (4 KiB page).
    assert!(codec.max_parity_bytes() <= 224);

    let msg: Vec<u8> = (0..4096).map(|i| (i * 89 + 3) as u8).collect();
    let mut outcomes = Vec::new();
    for t in [3u32, 30, 65] {
        codec.set_correction(t).unwrap();
        let mut parity = codec.encode(&msg).unwrap();
        let mut recv = msg.clone();
        for i in 0..t as usize {
            flip(&mut recv, i * 499 + 7);
        }
        let out = codec.decode(&mut recv, &mut parity).unwrap();
        assert_eq!(out.corrected_bits(), t as usize, "t={t}");
        assert_eq!(recv, msg, "t={t}");
        outcomes.push(out);
    }
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, DecodeOutcome::Corrected { .. })));
    let bits: usize = outcomes.iter().map(DecodeOutcome::corrected_bits).sum();
    assert_eq!(bits, 3 + 30 + 65);
}

/// Section 2's criticism of small-block ECC, demonstrated: with the same
/// total correction budget (32 errors per page), the page-wide 4 KiB code
/// absorbs a 20-error burst concentrated in one 512 B region, while the
/// segmented 8 x 512 B scheme (t = 4 each) fails on that segment.
#[test]
fn large_block_handles_error_concentration() {
    let mut big = AdaptiveBch::new(16, 4096 * 8, 1, 32).unwrap();
    big.set_correction(32).unwrap();
    let mut small = AdaptiveBch::new(13, 512 * 8, 1, 4).unwrap();
    small.set_correction(4).unwrap();

    let page: Vec<u8> = (0..4096).map(|i| (i * 31 + 5) as u8).collect();
    // Burst: 20 bit errors inside the first 512 bytes.
    let burst: Vec<usize> = (0..20).map(|i| i * 199 + 3).collect();
    assert!(burst.iter().all(|&p| p < 512 * 8));

    // Page-wide code: corrected.
    let mut parity = big.encode(&page).unwrap();
    let mut recv = page.clone();
    for &p in &burst {
        flip(&mut recv, p);
    }
    let out = big.decode(&mut recv, &mut parity).unwrap();
    assert_eq!(out.corrected_bits(), 20);
    assert_eq!(recv, page);

    // Segmented scheme: the burst-hit segment is beyond its t = 4.
    let seg = &page[..512];
    let mut seg_parity = small.encode(seg).unwrap();
    let mut seg_recv = seg.to_vec();
    for &p in &burst {
        flip(&mut seg_recv, p);
    }
    let seg_out = small.decode(&mut seg_recv, &mut seg_parity).unwrap();
    assert_eq!(seg_out, DecodeOutcome::Uncorrectable);
}
