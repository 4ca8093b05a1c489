//! The integrated reliability manager (paper Section 3).
//!
//! "It is in fact possible to envision an integrated reliability manager
//! collecting and elaborating results of a test unit and feedback from
//! the ECC sub-system, in addition to user requirements, thus setting the
//! proper correction capability to pages. In-situ adaptation to actual
//! operating conditions is another clear trend for future MPSoC design."
//!
//! The manager here is feedback-driven: it watches the corrected-bit
//! counts the codec reports per page, keeps the maximum over an
//! observation epoch, and recommends a correction capability that
//! maintains a configurable headroom above the worst observed page. The
//! *analytic* schedule (from the UBER equation) lives in `mlcx-core`;
//! this component is what a controller can do with no model at all,
//! purely in-situ.

use mlcx_bch::DecodeOutcome;

/// Tuning of the adaptation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityPolicy {
    /// Multiplicative margin over the worst observed error count.
    pub headroom: f64,
    /// Pages per observation epoch.
    pub epoch_pages: u32,
    /// Lower bound for recommendations.
    pub tmin: u32,
    /// Upper bound for recommendations.
    pub tmax: u32,
}

impl ReliabilityPolicy {
    /// The default loop for the paper's `t = 3..=65` codec: recommend
    /// twice the worst observed page over 64-page epochs.
    pub fn date2012() -> Self {
        ReliabilityPolicy {
            headroom: 2.0,
            epoch_pages: 64,
            tmin: 3,
            tmax: 65,
        }
    }
}

impl Default for ReliabilityPolicy {
    fn default() -> Self {
        Self::date2012()
    }
}

/// Feedback-driven ECC capability manager.
///
/// # Example
///
/// ```
/// use mlcx_bch::DecodeOutcome;
/// use mlcx_controller::{ReliabilityManager, ReliabilityPolicy};
///
/// let mut mgr = ReliabilityManager::new(ReliabilityPolicy {
///     headroom: 2.0,
///     epoch_pages: 4,
///     tmin: 3,
///     tmax: 65,
/// });
/// // Three quiet pages, then one with 10 corrected bits...
/// for bits in [0usize, 1, 0, 10] {
///     mgr.observe(&DecodeOutcome::Corrected {
///         bit_errors: bits,
///         message_bit_errors: bits,
///         positions: vec![],
///     });
/// }
/// // ...the epoch closes recommending 2x headroom over the worst page.
/// assert_eq!(mgr.take_recommendation(), Some(20));
/// ```
#[derive(Debug, Clone)]
pub struct ReliabilityManager {
    policy: ReliabilityPolicy,
    pages_seen: u32,
    worst_in_epoch: u32,
    uncorrectable_in_epoch: u32,
    pending: Option<u32>,
    epochs_closed: u64,
}

impl ReliabilityManager {
    /// A manager with the given policy.
    pub fn new(policy: ReliabilityPolicy) -> Self {
        ReliabilityManager {
            policy,
            pages_seen: 0,
            worst_in_epoch: 0,
            uncorrectable_in_epoch: 0,
            pending: None,
            epochs_closed: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &ReliabilityPolicy {
        &self.policy
    }

    /// Number of completed observation epochs.
    pub fn epochs_closed(&self) -> u64 {
        self.epochs_closed
    }

    /// Feeds one decode outcome into the loop.
    pub fn observe(&mut self, outcome: &DecodeOutcome) {
        match outcome {
            DecodeOutcome::Clean => {}
            DecodeOutcome::Corrected { bit_errors, .. } => {
                self.worst_in_epoch = self.worst_in_epoch.max(*bit_errors as u32);
            }
            DecodeOutcome::Uncorrectable => {
                self.uncorrectable_in_epoch += 1;
            }
        }
        self.pages_seen += 1;
        if self.pages_seen >= self.policy.epoch_pages {
            self.close_epoch();
        }
    }

    /// Takes the pending capability recommendation, if an epoch closed
    /// since the last call.
    pub fn take_recommendation(&mut self) -> Option<u32> {
        self.pending.take()
    }

    fn close_epoch(&mut self) {
        let mut t = (self.worst_in_epoch as f64 * self.policy.headroom).ceil() as u32;
        if self.uncorrectable_in_epoch > 0 {
            // An uncorrectable page means the capability was at least one
            // error short: jump to the ceiling and let the next epochs
            // relax back down.
            t = self.policy.tmax;
        }
        self.pending = Some(t.clamp(self.policy.tmin, self.policy.tmax));
        self.pages_seen = 0;
        self.worst_in_epoch = 0;
        self.uncorrectable_in_epoch = 0;
        self.epochs_closed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrected(bits: usize) -> DecodeOutcome {
        DecodeOutcome::Corrected {
            bit_errors: bits,
            message_bit_errors: bits,
            positions: vec![],
        }
    }

    fn manager(epoch: u32) -> ReliabilityManager {
        ReliabilityManager::new(ReliabilityPolicy {
            headroom: 2.0,
            epoch_pages: epoch,
            tmin: 3,
            tmax: 65,
        })
    }

    #[test]
    fn quiet_epochs_recommend_tmin() {
        let mut mgr = manager(4);
        for _ in 0..4 {
            mgr.observe(&DecodeOutcome::Clean);
        }
        assert_eq!(mgr.take_recommendation(), Some(3));
        assert_eq!(mgr.take_recommendation(), None, "one-shot");
    }

    #[test]
    fn recommendation_tracks_worst_page_with_headroom() {
        let mut mgr = manager(3);
        mgr.observe(&corrected(2));
        mgr.observe(&corrected(7));
        mgr.observe(&corrected(1));
        assert_eq!(mgr.take_recommendation(), Some(14));
    }

    #[test]
    fn uncorrectable_jumps_to_ceiling() {
        let mut mgr = manager(2);
        mgr.observe(&DecodeOutcome::Uncorrectable);
        mgr.observe(&corrected(1));
        assert_eq!(mgr.take_recommendation(), Some(65));
    }

    #[test]
    fn recommendation_clamped_to_tmax() {
        let mut mgr = manager(1);
        mgr.observe(&corrected(100));
        assert_eq!(mgr.take_recommendation(), Some(65));
    }

    #[test]
    fn epochs_reset_state() {
        let mut mgr = manager(2);
        mgr.observe(&corrected(20));
        mgr.observe(&DecodeOutcome::Clean);
        assert_eq!(mgr.take_recommendation(), Some(40));
        // New epoch starts clean.
        mgr.observe(&DecodeOutcome::Clean);
        mgr.observe(&DecodeOutcome::Clean);
        assert_eq!(mgr.take_recommendation(), Some(3));
        assert_eq!(mgr.epochs_closed(), 2);
    }
}
