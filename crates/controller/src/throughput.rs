//! Closed-form datapath latency and throughput models.
//!
//! These compose the paper's timing terms exactly as Section 6.3 does:
//!
//! * read path = tR (75 us) + codeword transfer over the flash bus +
//!   ECC decode latency (Fig. 11's denominator);
//! * write path = exposed buffer load + ECC encode + data-in transfer +
//!   ISPP program time (Fig. 9's denominator).

use mlcx_bch::EccHardware;
use mlcx_nand::NandTiming;

use crate::buffer::LoadStrategy;
use crate::flash_if::FlashInterface;
use crate::ocp::OcpSocket;

/// Breakdown of one page-read latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadPath {
    /// Array sensing (tR), seconds.
    pub sense_s: f64,
    /// Codeword transfer over the flash bus, seconds.
    pub transfer_s: f64,
    /// ECC decode, seconds.
    pub decode_s: f64,
}

impl ReadPath {
    /// Total read latency, seconds.
    pub fn total_s(&self) -> f64 {
        self.sense_s + self.transfer_s + self.decode_s
    }

    /// Sustained read throughput for `page_bytes` of payload, MB/s.
    pub fn throughput_mbps(&self, page_bytes: usize) -> f64 {
        page_bytes as f64 / self.total_s() / 1e6
    }
}

/// Breakdown of one page-write latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePath {
    /// Host-side buffer load exposed on the critical path, seconds.
    pub load_s: f64,
    /// ECC encode, seconds.
    pub encode_s: f64,
    /// Data-in transfer over the flash bus, seconds.
    pub transfer_s: f64,
    /// ISPP program time, seconds.
    pub program_s: f64,
}

impl WritePath {
    /// Total write latency, seconds.
    pub fn total_s(&self) -> f64 {
        self.load_s + self.encode_s + self.transfer_s + self.program_s
    }

    /// Sustained write throughput for `page_bytes` of payload, MB/s.
    pub fn throughput_mbps(&self, page_bytes: usize) -> f64 {
        page_bytes as f64 / self.total_s() / 1e6
    }
}

/// Read-path latency for a `k_bits` page protected by `r_bits` of parity
/// decoded at capability `t`.
pub fn read_path(
    timing: &NandTiming,
    bus: &FlashInterface,
    hw: &EccHardware,
    k_bits: usize,
    r_bits: usize,
    t: u32,
) -> ReadPath {
    let n_bits = k_bits + r_bits;
    let codeword_bytes = k_bits / 8 + r_bits.div_ceil(8);
    ReadPath {
        sense_s: timing.read_page_s,
        transfer_s: bus.transaction_time_s(codeword_bytes),
        decode_s: hw.decode_latency_s(n_bits, t),
    }
}

/// Write-path latency for a `k_bits` page encoded at capability `t` with
/// program time `program_s`.
pub fn write_path(
    ocp: &OcpSocket,
    strategy: LoadStrategy,
    bus: &FlashInterface,
    hw: &EccHardware,
    k_bits: usize,
    r_bits: usize,
    program_s: f64,
) -> WritePath {
    let codeword_bytes = k_bits / 8 + r_bits.div_ceil(8);
    WritePath {
        load_s: strategy.exposed_load_time_s(ocp.transfer_time_s(k_bits / 8)),
        encode_s: hw.encode_latency_s(k_bits, r_bits),
        transfer_s: bus.transaction_time_s(codeword_bytes),
        program_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcx_nand::ispp::{program_profile, IsppConfig, ProgramAlgorithm};

    const K: usize = 4096 * 8;

    fn parts() -> (NandTiming, FlashInterface, EccHardware, OcpSocket) {
        (
            NandTiming::date2012(),
            FlashInterface::date2012(),
            EccHardware::date2012(),
            OcpSocket::date2012(),
        )
    }

    #[test]
    fn read_latency_dominated_by_decode_at_end_of_life() {
        let (t, bus, hw, _) = parts();
        // Paper 6.3.2: page read 75 us vs decode up to ~150 us at t = 65.
        let path = read_path(&t, &bus, &hw, K, 16 * 65, 65);
        assert!(path.decode_s > path.sense_s);
        assert!(path.decode_s > 140e-6);
        assert!(
            (350e-6..400e-6).contains(&path.total_s()),
            "{}",
            path.total_s()
        );
    }

    #[test]
    fn fig11_read_gain_about_30_percent_at_eol() {
        let (t, bus, hw, _) = parts();
        let sv = read_path(&t, &bus, &hw, K, 16 * 65, 65);
        let dv = read_path(&t, &bus, &hw, K, 16 * 14, 14);
        let gain = sv.total_s() / dv.total_s() - 1.0;
        assert!(
            (0.25..0.35).contains(&gain),
            "read gain at end of life = {:.3}",
            gain
        );
    }

    #[test]
    fn fig9_write_loss_40_to_48_percent() {
        let (_, bus, hw, ocp) = parts();
        let cfg = IsppConfig::date2012();
        let loss_at = |cycles: u64, t_sv: u32, t_dv: u32| {
            let sv = write_path(
                &ocp,
                LoadStrategy::OneRound,
                &bus,
                &hw,
                K,
                16 * t_sv as usize,
                program_profile(&cfg, ProgramAlgorithm::IsppSv, cycles).duration_s,
            );
            let dv = write_path(
                &ocp,
                LoadStrategy::OneRound,
                &bus,
                &hw,
                K,
                16 * t_dv as usize,
                program_profile(&cfg, ProgramAlgorithm::IsppDv, cycles).duration_s,
            );
            1.0 - dv.throughput_mbps(4096) / sv.throughput_mbps(4096)
        };
        let fresh = loss_at(1, 3, 3);
        let eol = loss_at(1_000_000, 65, 14);
        assert!((0.37..0.44).contains(&fresh), "fresh loss = {fresh:.3}");
        assert!((0.44..0.52).contains(&eol), "eol loss = {eol:.3}");
        assert!(eol > fresh);
    }

    #[test]
    fn two_round_load_mitigates_write_overhead() {
        let (_, bus, hw, ocp) = parts();
        let one = write_path(&ocp, LoadStrategy::OneRound, &bus, &hw, K, 16 * 3, 900e-6);
        let two = write_path(&ocp, LoadStrategy::TwoRound, &bus, &hw, K, 16 * 3, 900e-6);
        assert!(two.total_s() < one.total_s());
        assert_eq!(two.encode_s, one.encode_s);
    }

    #[test]
    fn throughput_inverse_of_latency() {
        let (t, bus, hw, _) = parts();
        let p = read_path(&t, &bus, &hw, K, 16 * 3, 3);
        let mbps = p.throughput_mbps(4096);
        assert!((mbps - 4096.0 / p.total_s() / 1e6).abs() < 1e-9);
        assert!(mbps > 10.0 && mbps < 25.0, "read throughput = {mbps}");
    }
}
