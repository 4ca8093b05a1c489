//! Decoder edge cases exercised on both codec kernels: degenerate
//! payloads, extreme error positions, word-boundary error geometry and
//! the zero-syndrome shortcut.

use std::collections::BTreeSet;
use std::sync::Arc;

use mlcx_bch::syndrome::{SyndromeCalculator, SyndromeLane};
use mlcx_bch::{BchCode, CodecKernel, DecodeOutcome};
use mlcx_gf2::GfField;

const M: u32 = 13;
const K_BYTES: usize = 64;
const K_BITS: usize = K_BYTES * 8;
const T: u32 = 8;

fn flip(buf: &mut [u8], bitpos: usize) {
    buf[bitpos / 8] ^= 1 << (7 - bitpos % 8);
}

fn ladder() -> Vec<BchCode> {
    let field = Arc::new(GfField::new(M).unwrap());
    [CodecKernel::Reference, CodecKernel::Fused]
        .iter()
        .map(|&k| BchCode::new_with_kernel(Arc::clone(&field), K_BITS, T, k).unwrap())
        .collect()
}

/// Decodes `positions` injected into a fresh copy and asserts exact
/// correction with the exact reported position set.
fn assert_corrects(code: &BchCode, msg: &[u8], parity: &[u8], positions: &BTreeSet<usize>) {
    let mut recv = msg.to_vec();
    let mut par = parity.to_vec();
    for &p in positions {
        if p < code.message_bits() {
            flip(&mut recv, p);
        } else {
            flip(&mut par, p - code.message_bits());
        }
    }
    let out = code.decode(&mut recv, &mut par).unwrap();
    match out {
        DecodeOutcome::Corrected {
            bit_errors,
            positions: got,
            ..
        } => {
            assert_eq!(bit_errors, positions.len(), "kernel {}", code.kernel());
            assert_eq!(
                got,
                positions.iter().copied().collect::<Vec<_>>(),
                "kernel {}",
                code.kernel()
            );
        }
        other => panic!(
            "kernel {}: expected correction, got {other:?}",
            code.kernel()
        ),
    }
    assert_eq!(recv, msg, "kernel {}", code.kernel());
    assert_eq!(par, parity, "kernel {}", code.kernel());
}

/// The all-zero message is the zero codeword: zero parity, clean decode,
/// and a single flipped bit comes back to zero on both kernels.
#[test]
fn all_zero_buffer_is_the_zero_codeword() {
    for code in ladder() {
        let msg = vec![0u8; K_BYTES];
        let parity = code.encode(&msg).unwrap();
        assert!(
            parity.iter().all(|&b| b == 0),
            "kernel {}: zero message must produce zero parity",
            code.kernel()
        );
        let mut recv = msg.clone();
        let mut par = parity.clone();
        assert_eq!(
            code.decode(&mut recv, &mut par).unwrap(),
            DecodeOutcome::Clean,
            "kernel {}",
            code.kernel()
        );
        assert_corrects(&code, &msg, &parity, &BTreeSet::from([137]));
    }
}

/// The all-ones payload stresses every tap of the LFSR at once.
#[test]
fn all_ones_buffer_round_trips() {
    for code in ladder() {
        let msg = vec![0xFFu8; K_BYTES];
        let parity = code.encode(&msg).unwrap();
        let mut recv = msg.clone();
        let mut par = parity.clone();
        assert_eq!(
            code.decode(&mut recv, &mut par).unwrap(),
            DecodeOutcome::Clean,
            "kernel {}",
            code.kernel()
        );
        // Full-capability burst over the all-ones payload.
        let positions: BTreeSet<usize> = (0..T as usize).map(|i| i * 61 + 2).collect();
        assert_corrects(&code, &msg, &parity, &positions);
    }
}

/// Single-bit errors at the two extreme codeword positions: the very
/// first message bit and the very last parity bit.
#[test]
fn single_bit_error_at_first_and_last_position() {
    for code in ladder() {
        let msg: Vec<u8> = (0..K_BYTES).map(|i| (i * 41 + 9) as u8).collect();
        let parity = code.encode(&msg).unwrap();
        let n = code.codeword_bits();
        assert_corrects(&code, &msg, &parity, &BTreeSet::from([0]));
        assert_corrects(&code, &msg, &parity, &BTreeSet::from([n - 1]));
        // Both extremes in one pattern.
        assert_corrects(&code, &msg, &parity, &BTreeSet::from([0, n - 1]));
    }
}

/// A full-weight burst clustered inside one 64-bit register word decodes
/// identically to the same weight spread across word seams. Both
/// geometries hit the word-wide datapath (the encoder's word steps, the
/// syndromes' division of whole words) at their least-aligned points.
#[test]
fn clustered_and_word_boundary_spread_errors() {
    for code in ladder() {
        let msg: Vec<u8> = (0..K_BYTES).map(|i| (i * 73 + 5) as u8).collect();
        let parity = code.encode(&msg).unwrap();

        // All t errors inside the second 64-bit word (bits 64..128).
        let clustered: BTreeSet<usize> = (0..T as usize).map(|i| 64 + i * 7).collect();
        assert!(clustered.iter().all(|&p| (64..128).contains(&p)));
        assert_corrects(&code, &msg, &parity, &clustered);

        // The same weight straddling word seams: pairs around bit 64,
        // 128, 192 and the message/parity boundary.
        let spread: BTreeSet<usize> =
            BTreeSet::from([62, 64, 126, 128, 190, 192, K_BITS - 1, K_BITS]);
        assert_eq!(spread.len(), T as usize);
        assert_corrects(&code, &msg, &parity, &spread);
    }
}

/// The production register holds the parity left-aligned in 64-bit words,
/// so parity bit `v` is bit `63 - v % 64` of word `v / 64`: errors on both
/// sides of every word seam of that register, on its first and last bit
/// and on the message bit just before it, one at a time and `t` at once,
/// at register widths of 1 to 5 and 17 words with full and partial last
/// words. The message is 21 bytes: two 8-byte steps and a 5-byte tail.
#[test]
fn errors_on_the_word_seams_of_the_parity_register() {
    for (m, t) in [
        (13u32, 3u32),
        (16, 4),
        (13, 5),
        (13, 11),
        (16, 14),
        (16, 17),
        (16, 65),
    ] {
        let field = Arc::new(GfField::new(m).unwrap());
        let msg: Vec<u8> = (0..21).map(|i| (i * 89 + 3) as u8).collect();
        for kernel in [CodecKernel::Reference, CodecKernel::Fused] {
            let code = BchCode::new_with_kernel(Arc::clone(&field), 21 * 8, t, kernel).unwrap();
            let (k, r) = (code.message_bits(), code.parity_bits());
            let parity = code.encode(&msg).unwrap();
            let mut edges = BTreeSet::from([k - 1, k, k + r - 1]);
            for seam in (64..r).step_by(64) {
                edges.extend([k + seam - 1, k + seam]);
            }
            for &edge in &edges {
                assert_corrects(&code, &msg, &parity, &BTreeSet::from([edge]));
            }
            let together: BTreeSet<usize> = edges.into_iter().rev().take(t as usize).collect();
            assert_corrects(&code, &msg, &parity, &together);
        }
    }
}

/// An error-free word-aligned codeword has all 2t syndromes equal to
/// zero under every syndrome lane, and both kernels classify it Clean.
#[test]
fn zero_syndrome_pin_for_error_free_codeword() {
    let codes = ladder();
    let msg: Vec<u8> = (0..K_BYTES).map(|i| (i * 29 + 1) as u8).collect();
    assert_eq!(msg.len() % 8, 0, "word-aligned payload");
    let parity = codes[0].encode(&msg).unwrap();

    let field = Arc::new(GfField::new(M).unwrap());
    for lane in [SyndromeLane::Bit, SyndromeLane::Residue] {
        let calc = SyndromeCalculator::with_lane(Arc::clone(&field), T, lane);
        let syn = calc.compute(&msg, &parity, codes[0].parity_bits());
        assert_eq!(syn.len(), 2 * T as usize);
        assert!(
            syn.iter().all(|&s| s == 0),
            "lane {lane:?}: error-free codeword must have zero syndromes, got {syn:?}"
        );
    }

    for code in &codes {
        let mut recv = msg.clone();
        let mut par = parity.clone();
        assert_eq!(
            code.decode(&mut recv, &mut par).unwrap(),
            DecodeOutcome::Clean,
            "kernel {}",
            code.kernel()
        );
        // One nonzero syndrome flips the classification away from Clean.
        flip(&mut recv, 300);
        assert_ne!(
            code.decode(&mut recv, &mut par).unwrap(),
            DecodeOutcome::Clean,
            "kernel {}",
            code.kernel()
        );
        assert_eq!(
            recv,
            msg,
            "kernel {}: single error must be corrected",
            code.kernel()
        );
    }
}
