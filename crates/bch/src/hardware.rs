//! Cycle-level latency and power model of the adaptive BCH hardware.
//!
//! Reproduces the timing structure behind the paper's Fig. 8:
//!
//! * **Encoder** — a `p`-bit parallel LFSR consumes the message in `k/p`
//!   clocks (independent of `t`); shifting the `r = m*t` parity bits out
//!   adds `r/p` clocks, the only (weak) `t` dependence of encoding.
//! * **Syndrome** — `2t` parallel LFSRs process the `n`-bit codeword in
//!   `n/p` clocks, plus an alignment phase when the parity footprint does
//!   not fit the datapath parallelism.
//! * **Berlekamp-Massey** — the iBM machine iterates once per correctable
//!   error: `t` clocks.
//! * **Chien search** — the block owns `tmax x h` constant Galois
//!   multipliers ("t x h constant Galois multipliers" in the paper). At
//!   capability `t` they regroup into `tmax*h/t` parallel evaluators, so
//!   the `n`-position sweep costs `ceil(n*t / (tmax*h))` clocks. This is
//!   the dominant, strongly `t`-dependent decode term.
//!
//! At the paper's 80 MHz and `p = 8`, `h = 4`, `tmax = 65` this yields
//! decode latencies from ~56 us (t = 3) to ~160 us (t = 65), matching the
//! envelope of Fig. 8.

use std::fmt;

/// Breakdown of one decode in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecodeCycles {
    /// Alignment pre-phase (parity not fitting the datapath width).
    pub alignment: u64,
    /// Syndrome computation.
    pub syndrome: u64,
    /// Berlekamp-Massey iterations.
    pub ibm: u64,
    /// Chien search sweep.
    pub chien: u64,
}

impl DecodeCycles {
    /// Total decode cycles.
    pub(crate) fn total(&self) -> u64 {
        self.alignment + self.syndrome + self.ibm + self.chien
    }
}

/// Parameters of the synthesized ECC hardware.
///
/// # Example
///
/// ```
/// use mlcx_bch::EccHardware;
///
/// let hw = EccHardware::date2012();
/// let k = 4096 * 8;
/// let n65 = k + 16 * 65;
/// let n3 = k + 16 * 3;
/// // Fig. 8 envelope: decode spans ~56..160 us over the t range.
/// assert!(hw.decode_latency_s(n65, 65) > 150e-6);
/// assert!(hw.decode_latency_s(n3, 3) < 60e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccHardware {
    /// Operating clock in Hz (the paper assumes 80 MHz).
    pub clock_hz: f64,
    /// Datapath parallelism `p` in bits per clock (encoder + syndrome).
    pub datapath_bits: u32,
    /// Chien basis parallelism `h` (evaluations per clock at `t = tmax`).
    pub chien_parallelism: u32,
    /// Maximum correction capability the multiplier pool is sized for.
    pub tmax: u32,
}

impl EccHardware {
    /// The configuration used throughout the paper's evaluation.
    pub fn date2012() -> Self {
        EccHardware {
            clock_hz: 80.0e6,
            datapath_bits: 8,
            chien_parallelism: 4,
            tmax: 65,
        }
    }

    /// Encode cycles for a `k`-bit message producing `r` parity bits.
    pub(crate) fn encode_cycles(&self, k_bits: usize, r_bits: usize) -> u64 {
        let p = self.datapath_bits as u64;
        (k_bits as u64).div_ceil(p) + (r_bits as u64).div_ceil(p)
    }

    /// Encode latency in seconds.
    pub fn encode_latency_s(&self, k_bits: usize, r_bits: usize) -> f64 {
        self.encode_cycles(k_bits, r_bits) as f64 / self.clock_hz
    }

    /// Decode cycle breakdown for an `n`-bit codeword at capability `t`.
    pub(crate) fn decode_cycles(&self, n_bits: usize, t: u32) -> DecodeCycles {
        let p = self.datapath_bits as u64;
        let n = n_bits as u64;
        // Parity alignment phase: one datapath word per misaligned bit.
        let alignment = (p - n % p) % p;
        let syndrome = n.div_ceil(p);
        let ibm = t as u64;
        let pool = (self.tmax * self.chien_parallelism) as u64;
        let chien = (n * t as u64).div_ceil(pool);
        DecodeCycles {
            alignment,
            syndrome,
            ibm,
            chien,
        }
    }

    /// Decode latency in seconds.
    pub fn decode_latency_s(&self, n_bits: usize, t: u32) -> f64 {
        self.decode_cycles(n_bits, t).total() as f64 / self.clock_hz
    }
}

impl Default for EccHardware {
    fn default() -> Self {
        Self::date2012()
    }
}

/// Power drawn by the ECC sub-system as a function of capability.
///
/// Calibrated to the paper's Section 6.3.2: 7 mW at the worst-case
/// configuration (`t = 65`) relaxing to 1 mW at the ISPP-DV end-of-life
/// requirement (`t = 14`). A single power-law captures both anchor points:
/// `P(t) = P_max * (t / tmax)^gamma` with `gamma = ln7 / ln(65/14)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccPowerModel {
    /// Power at `t = t_ref`, in watts.
    pub max_power_w: f64,
    /// Reference capability (the paper's `tmax`).
    pub t_ref: f64,
    /// Power-law exponent.
    pub exponent: f64,
}

impl EccPowerModel {
    /// The paper's calibration (7 mW @ t=65, 1 mW @ t=14).
    pub fn date2012() -> Self {
        let exponent = (7.0f64).ln() / (65.0f64 / 14.0).ln();
        EccPowerModel {
            max_power_w: 7.0e-3,
            t_ref: 65.0,
            exponent,
        }
    }

    /// ECC power at capability `t`, in watts.
    pub fn power_w(&self, t: u32) -> f64 {
        self.max_power_w * (t as f64 / self.t_ref).powf(self.exponent)
    }
}

impl Default for EccPowerModel {
    fn default() -> Self {
        Self::date2012()
    }
}

impl fmt::Display for EccPowerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P(t) = {:.1} mW * (t/{:.0})^{:.3}",
            self.max_power_w * 1e3,
            self.t_ref,
            self.exponent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: usize = 4096 * 8;

    fn n(t: u32) -> usize {
        K + 16 * t as usize
    }

    #[test]
    fn encode_latency_nearly_t_independent() {
        let hw = EccHardware::date2012();
        let e3 = hw.encode_latency_s(K, 16 * 3);
        let e65 = hw.encode_latency_s(K, 16 * 65);
        // Paper: "encoding latency is not influenced by the selected
        // correction capability" (modulo the parity shift-out).
        assert!((e65 - e3) / e3 < 0.05, "e3={e3} e65={e65}");
        // Both near k/p / 80 MHz ~ 51 us.
        assert!(e3 > 45e-6 && e65 < 60e-6);
    }

    #[test]
    fn decode_latency_matches_fig8_envelope() {
        let hw = EccHardware::date2012();
        let d3 = hw.decode_latency_s(n(3), 3);
        let d14 = hw.decode_latency_s(n(14), 14);
        let d65 = hw.decode_latency_s(n(65), 65);
        assert!(d3 < d14 && d14 < d65);
        // Fig. 8: worst case ~160 us; paper text: decoding ~150 us.
        assert!((150e-6..170e-6).contains(&d65), "d65 = {d65}");
        // ISPP-DV end-of-life (t = 14) stays below ~80 us.
        assert!(d14 < 80e-6, "d14 = {d14}");
        assert!(d3 < 60e-6, "d3 = {d3}");
    }

    #[test]
    fn decode_cycles_breakdown_consistent() {
        let hw = EccHardware::date2012();
        let c = hw.decode_cycles(n(65), 65);
        assert_eq!(c.total(), c.alignment + c.syndrome + c.ibm + c.chien);
        // Chien dominates at large t.
        assert!(c.chien > c.syndrome);
        // At t = 3 the syndrome dominates instead.
        let c3 = hw.decode_cycles(n(3), 3);
        assert!(c3.syndrome > c3.chien);
    }

    #[test]
    fn chien_pool_scaling_is_linear_in_t() {
        let hw = EccHardware::date2012();
        let c10 = hw.decode_cycles(n(10), 10).chien as f64;
        let c20 = hw.decode_cycles(n(20), 20).chien as f64;
        let ratio = c20 / c10;
        assert!((1.9..2.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn power_model_hits_paper_anchors() {
        let p = EccPowerModel::date2012();
        assert!((p.power_w(65) - 7.0e-3).abs() < 1e-6);
        assert!((p.power_w(14) - 1.0e-3).abs() < 0.1e-3);
        // Monotone in t.
        assert!(p.power_w(30) > p.power_w(14));
        assert!(!p.to_string().is_empty());
    }
}
