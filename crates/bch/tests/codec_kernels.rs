//! Differential tests for the codec kernels: the production path
//! ([`CodecKernel::Fused`]) must be bit-identical to the oracle
//! ([`CodecKernel::Reference`]) — same parity on encode, same outcome
//! classification and same corrected buffers on decode, same error
//! classification on malformed inputs.

use std::collections::BTreeSet;
use std::sync::Arc;

use mlcx_bch::{BchCode, BchError, CodecKernel, DecodeOutcome};
use mlcx_gf2::GfField;
use proptest::prelude::*;

fn flip(buf: &mut [u8], bitpos: usize) {
    buf[bitpos / 8] ^= 1 << (7 - bitpos % 8);
}

fn inject(message: &mut [u8], parity: &mut [u8], k_bits: usize, positions: &BTreeSet<usize>) {
    for &p in positions {
        if p < k_bits {
            flip(message, p);
        } else {
            flip(parity, p - k_bits);
        }
    }
}

/// Builds the same (m, k, t) code once per kernel, oracle first.
fn ladder(m: u32, k_bits: usize, t: u32) -> Vec<BchCode> {
    let field = Arc::new(GfField::new(m).unwrap());
    [CodecKernel::Reference, CodecKernel::Fused]
        .iter()
        .map(|&k| BchCode::new_with_kernel(Arc::clone(&field), k_bits, t, k).unwrap())
        .collect()
}

/// Decodes one corrupted copy per kernel and returns (outcome, message, parity).
fn decode_all(
    codes: &[BchCode],
    msg: &[u8],
    parity: &[u8],
    k_bits: usize,
    positions: &BTreeSet<usize>,
) -> Vec<(DecodeOutcome, Vec<u8>, Vec<u8>)> {
    codes
        .iter()
        .map(|code| {
            let mut recv = msg.to_vec();
            let mut par = parity.to_vec();
            inject(&mut recv, &mut par, k_bits, positions);
            let out = code.decode(&mut recv, &mut par).unwrap();
            (out, recv, par)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both kernels produce the exact parity bytes of the bit-serial oracle
    /// on random payloads across field sizes and capabilities.
    #[test]
    fn every_rung_encodes_identically(
        m in 9u32..=13,
        t in 1u32..=8,
        k_bytes in 16usize..=96,
        seed in any::<u64>(),
    ) {
        let field = Arc::new(GfField::new(m).unwrap());
        let k_bits = k_bytes * 8;
        prop_assume!(k_bits + (m * t) as usize <= field.order() as usize);
        let codes = ladder(m, k_bits, t);

        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msg: Vec<u8> = (0..k_bytes).map(|_| rng.random()).collect();

        let reference = codes[0].encode(&msg).unwrap();
        for code in &codes[1..] {
            let parity = code.encode(&msg).unwrap();
            prop_assert_eq!(&parity, &reference);
        }
    }

    /// For every error weight 0..=t both kernels correct to the same
    /// buffers with the same outcome (positions included).
    #[test]
    fn every_rung_corrects_identically(
        m in 10u32..=13,
        t in 1u32..=8,
        seed in any::<u64>(),
    ) {
        let field = Arc::new(GfField::new(m).unwrap());
        let k_bytes = 64usize;
        let k_bits = k_bytes * 8;
        prop_assume!(k_bits + (m * t) as usize <= field.order() as usize);
        let codes = ladder(m, k_bits, t);

        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msg: Vec<u8> = (0..k_bytes).map(|_| rng.random()).collect();
        let parity = codes[0].encode(&msg).unwrap();
        let n = codes[0].codeword_bits();

        for weight in 0..=t as usize {
            let mut positions = BTreeSet::new();
            while positions.len() < weight {
                positions.insert(rng.random_range(0..n));
            }
            let results = decode_all(&codes, &msg, &parity, k_bits, &positions);
            let (ref_out, ref_msg, ref_par) = &results[0];
            // The oracle must actually correct the pattern; the production
            // path must match it bit for bit.
            prop_assert_eq!(ref_msg, &msg);
            match ref_out {
                DecodeOutcome::Clean => prop_assert_eq!(weight, 0),
                DecodeOutcome::Corrected { bit_errors, .. } => {
                    prop_assert_eq!(*bit_errors, weight)
                }
                DecodeOutcome::Uncorrectable => prop_assert!(false, "weight <= t must correct"),
            }
            for (out, got_msg, got_par) in &results[1..] {
                prop_assert_eq!(out, ref_out);
                prop_assert_eq!(got_msg, ref_msg);
                prop_assert_eq!(got_par, ref_par);
            }
        }
    }

    /// Beyond-capability patterns classify identically on both kernels:
    /// either both detect (buffers untouched, identical) or both miscorrect
    /// into the same valid codeword.
    #[test]
    fn every_rung_classifies_uncorrectable_identically(
        extra in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let t = 4u32;
        let k_bits = 64 * 8;
        let codes = ladder(11, k_bits, t);

        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msg: Vec<u8> = (0..64).map(|_| rng.random()).collect();
        let parity = codes[0].encode(&msg).unwrap();
        let n = codes[0].codeword_bits();

        let mut positions = BTreeSet::new();
        while positions.len() < (t + extra) as usize {
            positions.insert(rng.random_range(0..n));
        }
        let results = decode_all(&codes, &msg, &parity, k_bits, &positions);
        let (ref_out, ref_msg, ref_par) = &results[0];
        prop_assert!(*ref_out != DecodeOutcome::Clean, "corrupted codeword cannot be clean");
        for (out, got_msg, got_par) in &results[1..] {
            prop_assert_eq!(out, ref_out);
            prop_assert_eq!(got_msg, ref_msg);
            prop_assert_eq!(got_par, ref_par);
        }
    }
}

/// `(m, t, W)`: the fold at `W = ceil(r/64)` from 1 to 6, 8 and 17, over
/// registers that fill their last word and last parity byte and ones that
/// do not (r < 8, r = 64, 65, 128 and 1040 among them).
const WIDTH_CLASSES: [(u32, u32, usize); 26] = [
    (4, 1, 1),
    (5, 1, 1),
    (7, 1, 1),
    (9, 2, 1),
    (13, 3, 1),
    (16, 3, 1),
    (11, 5, 1),
    (16, 4, 1),
    (13, 5, 2),
    (13, 6, 2),
    (11, 7, 2),
    (12, 8, 2),
    (16, 8, 2),
    (13, 11, 3),
    (16, 9, 3),
    (14, 12, 3),
    (16, 12, 3),
    (13, 15, 4),
    (16, 14, 4),
    (13, 19, 4),
    (16, 16, 4),
    (13, 20, 5),
    (16, 17, 5),
    (14, 24, 6),
    (16, 30, 8),
    (16, 65, 17),
];

/// Each register width the production pass runs at is held against the
/// oracle here: parity, outcome (positions included) and corrected
/// buffers, for error weights up to `t + 2`. Message lengths walk every
/// length to 33 bytes, so the fold seeds its state from every odd-byte
/// head and every short run of words; the classes over GF(2^16) also take
/// the paper's 4 KiB page.
#[test]
fn fused_matches_reference_in_every_register_width_class() {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x16_B17E5);
    let lengths = (1..=33).chain([72, 4096]);
    for (m, t, words) in WIDTH_CLASSES {
        let field = GfField::new(m).unwrap();
        let r = mlcx_gf2::minpoly::generator_poly(&field, t)
            .degree()
            .unwrap();
        assert_eq!(r.div_ceil(64), words, "GF(2^{m}), t = {t}: r = {r}");
        for k_bytes in lengths.clone() {
            let k_bits = k_bytes * 8;
            if k_bits + r > field.order() as usize {
                continue;
            }
            let codes = ladder(m, k_bits, t);
            let msg: Vec<u8> = (0..k_bytes).map(|_| rng.random()).collect();
            let parity = codes[0].encode(&msg).unwrap();
            assert_eq!(
                codes[1].encode(&msg).unwrap(),
                parity,
                "r = {r}, {k_bytes} B"
            );

            let (n, t) = (codes[0].codeword_bits(), t as usize);
            let weights: BTreeSet<usize> = if k_bytes == 4096 {
                [0, 1, t].into()
            } else {
                [0, 1, 2, t / 2, t - 1, t, t + 1, t + 2].into()
            };
            for weight in weights.into_iter().filter(|&w| w <= n) {
                let mut positions = BTreeSet::new();
                while positions.len() < weight {
                    positions.insert(rng.random_range(0..n));
                }
                let results = decode_all(&codes, &msg, &parity, k_bits, &positions);
                if weight <= t {
                    assert_eq!(results[0].1, msg);
                    assert_eq!(results[0].0.corrected_bits(), weight);
                }
                assert_eq!(
                    results[1], results[0],
                    "r = {r}, {k_bytes} B, weight {weight}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// When `r % 8 != 0` the low bits of the last parity byte are storage
    /// padding, not codeword bits. Whatever is read there, both kernels
    /// give the outcome they give with the padding zero — a clean codeword
    /// stays `Clean`, real errors are located at the same positions — and
    /// neither touches the padding. (`remainder(message) ^ parity` carries
    /// the padding into the register; unmasked, one flipped pad bit turns a
    /// clean page into `Uncorrectable`: zero syndromes, non-zero remainder.)
    #[test]
    fn pad_bits_of_the_last_parity_byte_change_nothing(
        k_draw in 0usize..64,
        weight_draw in 0usize..64,
        seed in any::<u64>(),
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // r = 39 (where the trap was found), 5, 30, 55, 78, 143.
        for (m, t) in [(13u32, 3u32), (5, 1), (10, 3), (11, 5), (13, 6), (13, 11)] {
            let field = GfField::new(m).unwrap();
            let r = mlcx_gf2::minpoly::generator_poly(&field, t).degree().unwrap();
            let pad_bits = 8 * r.div_ceil(8) - r;
            prop_assert!(pad_bits > 0, "GF(2^{m}), t = {t}: r = {r}");
            let k_bytes = 1 + k_draw % ((field.order() as usize - r) / 8).min(64);
            let k_bits = k_bytes * 8;
            let codes = ladder(m, k_bits, t);

            let msg: Vec<u8> = (0..k_bytes).map(|_| rng.random()).collect();
            let parity = codes[0].encode(&msg).unwrap();
            let last = parity.len() - 1;
            let mut positions = BTreeSet::new();
            while positions.len() < weight_draw % (t as usize + 1) {
                positions.insert(rng.random_range(0..k_bits + r));
            }
            let zero_padded = decode_all(&codes, &msg, &parity, k_bits, &positions);
            prop_assert_eq!(&zero_padded[1], &zero_padded[0]);
            prop_assert_eq!(zero_padded[0].0.corrected_bits(), positions.len());
            for pattern in 1..1u8 << pad_bits {
                let mut padded = parity.clone();
                padded[last] |= pattern;
                for (got, expect) in decode_all(&codes, &msg, &padded, k_bits, &positions)
                    .iter()
                    .zip(&zero_padded)
                {
                    prop_assert_eq!(&got.0, &expect.0);
                    prop_assert_eq!(&got.1, &msg);
                    // The padding is left as received.
                    prop_assert_eq!(got.2[last], expect.2[last] | pattern);
                    prop_assert_eq!(&got.2[..last], &expect.2[..last]);
                }
            }
        }
    }
}

/// The paper's codec, every capability it can be set to: GF(2^16), a 4 KiB
/// page, `t = 1..=65`, so every register width from 1 to 17 words — the
/// fold at each width — on the real page.
/// Production parity must be the oracle's, and the oracle must accept it.
#[test]
fn every_capability_of_the_paper_codec_encodes_identically() {
    let msg: Vec<u8> = (0..4096usize).map(|i| (i * 131 + 17) as u8).collect();
    for t in 1..=65 {
        let codes = ladder(16, 4096 * 8, t);
        assert_eq!(codes[1].parity_bits(), 16 * t as usize);
        let mut parity = codes[1].encode(&msg).unwrap();
        assert_eq!(parity, codes[0].encode(&msg).unwrap(), "t = {t}");
        let mut recv = msg.clone();
        for code in &codes {
            assert_eq!(
                code.decode(&mut recv, &mut parity).unwrap(),
                DecodeOutcome::Clean,
                "t = {t}, kernel {}",
                code.kernel()
            );
        }
    }
}

/// The parity bytes are what is stored in the spare area: both kernels
/// changing together would pass every differential test and still orphan
/// written media. FNV-1a of the parity of one fixed message, computed at
/// the commit before the register was left-aligned (PR 16).
#[test]
fn parity_layout_is_pinned_to_the_previous_format() {
    let msg: Vec<u8> = (0..4096usize).map(|i| (i * 131 + 17) as u8).collect();
    let fnv = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    };
    for (t, pinned) in [
        (1u32, 0x09bc_ac07_b63a_3c85u64),
        (3, 0x6219_9d4e_ea4e_0f95),
        (14, 0xb5bb_8e50_68c7_20cb),
        (65, 0x33d8_0a0a_47d9_75f2),
    ] {
        for code in ladder(16, 4096 * 8, t) {
            let parity = code.encode(&msg).unwrap();
            assert_eq!(fnv(&parity), pinned, "t = {t}, kernel {}", code.kernel());
        }
    }
    // r = 39: the last byte carries 7 parity bits and one zero pad bit.
    for code in ladder(13, 64 * 8, 3) {
        let parity = code.encode(&msg[..64]).unwrap();
        assert_eq!(parity, [0x5d, 0xfb, 0xd1, 0x8f, 0x76], "{}", code.kernel());
    }
}

/// Malformed inputs raise the identical `BchError` on both kernels.
#[test]
fn every_rung_classifies_errors_identically() {
    let codes = ladder(11, 64 * 8, 3);
    let msg = vec![0u8; 64];
    let parity = codes[0].encode(&msg).unwrap();

    let mut expected_short_msg: Option<BchError> = None;
    let mut expected_short_par: Option<BchError> = None;
    for code in &codes {
        let mut short = vec![0u8; 63];
        let mut par = parity.clone();
        let err = code.decode(&mut short, &mut par).unwrap_err();
        match &expected_short_msg {
            None => expected_short_msg = Some(err),
            Some(e) => assert_eq!(&err, e, "kernel {}", code.kernel()),
        }

        let mut recv = msg.clone();
        let mut par = parity[..parity.len() - 1].to_vec();
        let err = code.decode(&mut recv, &mut par).unwrap_err();
        match &expected_short_par {
            None => expected_short_par = Some(err),
            Some(e) => assert_eq!(&err, e, "kernel {}", code.kernel()),
        }

        let err = code.encode(&[0u8; 12]).unwrap_err();
        assert!(matches!(
            err,
            BchError::BufferSize {
                what: "message",
                ..
            }
        ));
    }
    assert!(matches!(
        expected_short_msg,
        Some(BchError::BufferSize {
            what: "message",
            ..
        })
    ));
    assert!(matches!(
        expected_short_par,
        Some(BchError::BufferSize { what: "parity", .. })
    ));
}
