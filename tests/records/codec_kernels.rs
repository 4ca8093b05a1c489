//! Codec-kernel record: the same 2048-bit-message BCH code (GF(2^13),
//! t = 8) on the bit-serial oracle and on the production kernel.
//!
//! Bit-identity is pinned the same way the differential tests pin it:
//! both kernels' parity bytes and corrected positions fold to the same
//! checksums, recorded as `exact` metrics in the committed baseline so
//! a kernel change that alters any output fails this test
//! (`crates/bench/baselines/codec_kernels.json`). The oracle's job is
//! to be right: nothing here is timed — the production codec's speed is
//! `bch.*_ns_per_page` of the repo benchmark.

use std::sync::Arc;

use mlcx::gf2::GfField;
use mlcx::{BchCode, CodecKernel, DecodeOutcome};
use mlcx_bench::BenchResult;

const M: u32 = 13;
const MSG_BYTES: usize = 256; // 2048-bit message
const T: u32 = 8;
const SEED: u64 = 2012;
/// Round trips per batch (pinned by the baseline's `iters_per_batch`).
const ITERS: usize = 8;

/// Oracle first, production second.
const KERNELS: [CodecKernel; 2] = [CodecKernel::Reference, CodecKernel::Fused];

fn codes() -> Vec<BchCode> {
    let field = Arc::new(GfField::new(M).unwrap());
    KERNELS
        .iter()
        .map(|&k| BchCode::new_with_kernel(Arc::clone(&field), MSG_BYTES * 8, T, k).unwrap())
        .collect()
}

/// Seeded per-iteration error schedules: weights cycle 0..=t so every
/// batch exercises the clean shortcut, single-error solve and
/// full-capability correction.
fn error_schedule(iters: usize, n_bits: usize) -> Vec<Vec<usize>> {
    let mut state = SEED | 1;
    let mut next = |modulo: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 33) as usize % modulo
    };
    (0..iters)
        .map(|i| {
            let weight = i % (T as usize + 1);
            let mut positions = Vec::new();
            while positions.len() < weight {
                let p = next(n_bits);
                if !positions.contains(&p) {
                    positions.push(p);
                }
            }
            positions.sort_unstable();
            positions
        })
        .collect()
}

fn flip(buf: &mut [u8], bitpos: usize) {
    buf[bitpos / 8] ^= 1 << (7 - bitpos % 8);
}

/// One batch: encode, inject the iteration's schedule, decode, fold
/// parity bytes and corrected positions into checksums.
fn run_batch(code: &BchCode, msg: &[u8], schedule: &[Vec<usize>]) -> (u64, u64) {
    let k_bits = MSG_BYTES * 8;
    let mut parity_sum = 0u64;
    let mut position_sum = 0u64;
    for positions in schedule {
        let parity = code.encode(msg).unwrap();
        for (i, &b) in parity.iter().enumerate() {
            parity_sum = parity_sum.wrapping_add((b as u64) << (i % 8));
        }
        let mut recv = msg.to_vec();
        let mut par = parity;
        for &p in positions {
            if p < k_bits {
                flip(&mut recv, p);
            } else {
                flip(&mut par, p - k_bits);
            }
        }
        match code.decode(&mut recv, &mut par).unwrap() {
            DecodeOutcome::Clean => assert!(positions.is_empty()),
            DecodeOutcome::Corrected { positions: got, .. } => {
                assert_eq!(&got, positions, "kernel {}", code.kernel());
                for &p in &got {
                    position_sum = position_sum.wrapping_mul(31).wrapping_add(p as u64 + 1);
                }
            }
            DecodeOutcome::Uncorrectable => {
                panic!("kernel {}: schedule stays within t", code.kernel())
            }
        }
        assert_eq!(recv, msg, "kernel {}", code.kernel());
    }
    (parity_sum, position_sum)
}

pub(crate) fn record() -> BenchResult {
    let codes = codes();
    let msg: Vec<u8> = (0..MSG_BYTES).map(|i| (i * 97 + 13) as u8).collect();
    let n_bits = codes[0].codeword_bits();
    let schedule = error_schedule(ITERS, n_bits);

    // Bit-identity pin: both kernels fold to the same checksums.
    let checksums: Vec<(u64, u64)> = codes
        .iter()
        .map(|code| run_batch(code, &msg, &schedule))
        .collect();
    for (code, sums) in codes.iter().zip(&checksums) {
        assert_eq!(
            sums,
            &checksums[0],
            "kernel {} diverged from the oracle",
            code.kernel()
        );
    }

    // The provenance note is the committed baseline's, verbatim.
    let mut record = BenchResult::new(
        "codec_kernels",
        "per-rung encode+inject+decode ladder, 2048-bit message, GF(2^13) t=8",
    );
    record.exact = vec![
        ("message_bits".into(), (MSG_BYTES * 8) as f64),
        ("parity_bits".into(), codes[0].parity_bits() as f64),
        ("codeword_bits".into(), n_bits as f64),
        ("iters_per_batch".into(), ITERS as f64),
        ("parity_checksum".into(), checksums[0].0 as f64),
        ("positions_checksum".into(), checksums[0].1 as f64),
    ];
    record
}
