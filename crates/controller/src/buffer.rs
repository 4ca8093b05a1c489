//! The page-buffer data-load strategies.
//!
//! "Data transfers are processed through a dedicated buffer (e.g., an
//! embedded RAM block). Typically, the size of the RAM is equal to the
//! size of one page." Section 6.3.3 additionally points out that the
//! write-throughput overhead of ISPP-DV "can be mitigated by using a
//! two-round data load strategy on the page buffer" — the second half of
//! the page streams in while the first half is already programming.
//!
//! The simulator keeps no copy of the staged page (the encoder and the
//! device both read the host's slice); what the buffer contributes to a
//! write is the load latency its strategy leaves exposed.

/// How host data is staged into the page buffer on writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadStrategy {
    /// The whole page is loaded before programming starts.
    #[default]
    OneRound,
    /// The page is loaded in two halves, the second overlapping the
    /// program operation — hides half the load latency.
    TwoRound,
}

impl LoadStrategy {
    /// The load latency visible on the write path, given the raw transfer
    /// time of a full page.
    pub(crate) fn exposed_load_time_s(self, full_load_s: f64) -> f64 {
        match self {
            LoadStrategy::OneRound => full_load_s,
            LoadStrategy::TwoRound => 0.5 * full_load_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_strategies_expose_different_latency() {
        let full = 132e-6;
        assert_eq!(LoadStrategy::OneRound.exposed_load_time_s(full), full);
        assert_eq!(LoadStrategy::TwoRound.exposed_load_time_s(full), full / 2.0);
    }
}
