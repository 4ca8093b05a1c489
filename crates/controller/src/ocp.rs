//! OCP-like socket interface to the on-chip network.
//!
//! "The OCP interface connects the controller to the on-chip network,
//! which routes read and write access requests or configuration commands.
//! The network is typically much faster than the Flash device" — the
//! socket model therefore only contributes a small, but non-zero, burst
//! transfer latency to the datapath.

/// Burst-capable socket interface (OCP/AXI-class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OcpSocket {
    /// Data width of the socket, bits.
    pub data_width_bits: u32,
    /// Socket clock, hertz.
    pub clock_hz: f64,
    /// Fixed request/response latency, clock cycles.
    pub latency_cycles: u32,
}

impl OcpSocket {
    /// A 32-bit, 200 MHz socket — representative of the paper's
    /// "largely integrated MPSoCs in the short-to-medium run".
    pub fn date2012() -> Self {
        OcpSocket {
            data_width_bits: 32,
            clock_hz: 200.0e6,
            latency_cycles: 12,
        }
    }

    /// Time to burst `bytes` across the socket, seconds.
    pub(crate) fn transfer_time_s(&self, bytes: usize) -> f64 {
        let beats = (bytes * 8).div_ceil(self.data_width_bits as usize);
        (beats as u64 + self.latency_cycles as u64) as f64 / self.clock_hz
    }
}

impl Default for OcpSocket {
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_size() {
        let ocp = OcpSocket::date2012();
        let one = ocp.transfer_time_s(1024);
        let four = ocp.transfer_time_s(4096);
        assert!(four > 3.0 * one && four < 4.5 * one);
    }

    #[test]
    fn noc_is_much_faster_than_flash() {
        // Paper: the network is much faster than the flash device — a page
        // moves in microseconds, not the 75 us of a flash tR.
        let ocp = OcpSocket::date2012();
        assert!(ocp.transfer_time_s(4096) < 75e-6 / 10.0);
    }

    #[test]
    fn latency_floor_for_tiny_transfers() {
        let ocp = OcpSocket::date2012();
        let t = ocp.transfer_time_s(4);
        assert!(t >= 12.0 / 200.0e6);
    }
}
