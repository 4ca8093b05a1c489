//! Flash device bus interface.
//!
//! The controller talks to the NAND die over an 8-bit asynchronous bus
//! (the 2012-era ONFI legacy interface): command and address cycles
//! followed by data transfer at roughly 32 MB/s. Codeword transfer time
//! over this bus is a first-class term of the read path — together with
//! tR and the ECC decode latency it determines the read throughput of
//! Fig. 11.

/// The NAND bus interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashInterface {
    /// Sustained data rate of the bus, bytes per second.
    pub bus_rate_bps: f64,
    /// Command cycles per operation.
    pub command_cycles: u32,
    /// Address cycles per operation.
    pub address_cycles: u32,
    /// Duration of one command/address cycle, seconds.
    pub cycle_time_s: f64,
}

impl FlashInterface {
    /// The paper-era interface: 8-bit asynchronous bus at 32 MB/s.
    pub fn date2012() -> Self {
        FlashInterface {
            bus_rate_bps: 32.0e6,
            command_cycles: 2,
            address_cycles: 5,
            cycle_time_s: 25e-9,
        }
    }

    /// Command + address phase overhead, seconds.
    pub fn command_overhead_s(&self) -> f64 {
        (self.command_cycles + self.address_cycles) as f64 * self.cycle_time_s
    }

    /// Time to move `bytes` of data over the bus, seconds.
    pub(crate) fn data_transfer_time_s(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bus_rate_bps
    }

    /// Full transfer including command/address phases, seconds.
    pub(crate) fn transaction_time_s(&self, bytes: usize) -> f64 {
        self.command_overhead_s() + self.data_transfer_time_s(bytes)
    }
}

impl Default for FlashInterface {
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codeword_transfer_in_expected_band() {
        let bus = FlashInterface::date2012();
        // 4 KiB + worst-case parity at 32 MB/s: ~132 us.
        let t = bus.data_transfer_time_s(4096 + 130);
        assert!((125e-6..140e-6).contains(&t), "t = {t}");
    }

    #[test]
    fn command_overhead_is_negligible_but_positive() {
        let bus = FlashInterface::date2012();
        let o = bus.command_overhead_s();
        assert!(o > 0.0 && o < 1e-6);
        assert!(bus.transaction_time_s(4096) > bus.data_transfer_time_s(4096));
    }
}
