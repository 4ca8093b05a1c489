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

    /// The production encoder's step width follows the register width
    /// `r = deg g`: bit-serial below 8, the byte table below 32,
    /// slicing-by-4 below 64, slicing-by-8 from there. Narrow registers are
    /// the only way to reach the first three, so each class is held against
    /// the oracle here: parity, outcome (positions included) and corrected
    /// buffers, for error weights up to `t + 2`.
    #[test]
    fn fused_matches_reference_in_every_register_width_class(
        class in 0usize..4,
        pick in 0usize..6,
        k_draw in 0usize..64,
        extra in 0usize..=2,
        seed in any::<u64>(),
    ) {
        let (r_range, codes_mt): (_, &[(u32, u32)]) = match class {
            0 => (1..8, &[(4, 1), (5, 1), (6, 1), (7, 1)]),
            1 => (8..32, &[(8, 1), (9, 2), (8, 3), (13, 2), (10, 3)]),
            2 => (32..64, &[(8, 4), (10, 4), (9, 5), (13, 4), (11, 5), (10, 6)]),
            _ => (64..usize::MAX, &[(13, 5), (11, 6), (10, 7), (12, 8), (13, 8)]),
        };
        let (m, t) = codes_mt[pick % codes_mt.len()];
        let field = GfField::new(m).unwrap();
        let r = mlcx_gf2::minpoly::generator_poly(&field, t).degree().unwrap();
        prop_assert!(r_range.contains(&r), "GF(2^{m}), t = {t}: r = {r}");
        let k_bytes = 1 + k_draw % ((field.order() as usize - r) / 8);
        let k_bits = k_bytes * 8;
        let codes = ladder(m, k_bits, t);

        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msg: Vec<u8> = (0..k_bytes).map(|_| rng.random()).collect();
        let parity = codes[0].encode(&msg).unwrap();
        prop_assert_eq!(&codes[1].encode(&msg).unwrap(), &parity);

        let n = codes[0].codeword_bits();
        for weight in 0..=(t as usize + extra).min(n) {
            let mut positions = BTreeSet::new();
            while positions.len() < weight {
                positions.insert(rng.random_range(0..n));
            }
            let results = decode_all(&codes, &msg, &parity, k_bits, &positions);
            if weight <= t as usize {
                prop_assert_eq!(&results[0].1, &msg);
                prop_assert_eq!(results[0].0.corrected_bits(), weight);
            }
            prop_assert_eq!(&results[1], &results[0]);
        }
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
