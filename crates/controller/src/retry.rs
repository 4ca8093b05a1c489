//! Read-retry policy and per-block learned read-offset tables.
//!
//! The *voltage-domain* reliability mitigation, next to the ECC schedule
//! (correction strength) and the background scrubber (data movement):
//! when a read comes back uncorrectable, re-sense the page at stepped
//! read-reference offsets until the ECC can correct it (arXiv:2209.01424
//! shows online read-reference tuning recovers most retention/disturb
//! error). Each extra sense is a full device read — cell time, bus
//! time, energy, and one more tick of the read-disturb accumulator — so
//! retry trades *read latency* for reliability where the scrubber
//! trades *write amplification*.
//!
//! The ladder walk is expensive exactly once per shift regime: the
//! [`ReadOffsetTable`] remembers the offset that last worked per block,
//! so steady-state reads start near the optimum and the ladder only
//! walks again when the distributions move further.
//!
//! The controller owns both pieces: [`RetryPolicy`] is the `retry` field
//! of its `ControllerConfig` (the engine a layer up takes the whole
//! config), and the learned table lives inside `MemoryController`, reset
//! per block on erase. Each read's `ReadReport` carries its senses and
//! outcome; the engine folds those into its `Counters` (`retry_reads`,
//! `retry_senses`, `retry_exhausted`), which are the retry account.

use std::collections::BTreeMap;

/// Stepped read-reference retry policy for uncorrectable reads.
///
/// The ladder lists reference offsets (in steps, signed) to try in
/// order after the first sense fails to decode; `max_senses` caps the
/// total senses per host read (first sense included). The walk stops at
/// the first offset that decodes, and that offset is learned for the
/// block (see [`ReadOffsetTable`]).
///
/// # Precedence with scrubbing
///
/// Retry and scrub (`ScrubPolicy`) are independent knobs and may both
/// be enabled. They never conflict because they act in different
/// domains and at different times: **retry is per-read and
/// voltage-domain** — it changes only how an individual failing read is
/// sensed, between the read's issue and its completion; **scrub is
/// batch-scoped and data-movement-domain** — `ScrubPolicy::plan_pass`
/// plans relocations against the *flushed* device state between
/// batches. A read recovered by retry still bumps the block's
/// read-disturb accumulator (retry senses included), so a retried block
/// keeps aging toward the scrubber's thresholds; scrubbing a block
/// erases it, which resets both the accumulator and the learned read
/// offset. When both are on, retry absorbs errors between scrub passes
/// and scrub bounds how far the ladder must reach.
///
/// # Example
///
/// ```
/// use mlcx_controller::RetryPolicy;
///
/// let p = RetryPolicy::date2012();
/// assert!(p.is_enabled() && p.max_senses >= 2);
/// assert!(!RetryPolicy::disabled().is_enabled());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Reference offsets (steps from nominal) tried in order on an
    /// uncorrectable first sense. The offset the first sense used is
    /// skipped if it reappears in the ladder.
    pub ladder: Vec<i32>,
    /// Total senses allowed per host read, first sense included; the
    /// ladder walk stops when the budget is spent.
    pub max_senses: u32,
}

impl RetryPolicy {
    /// The alternating ±1..±4 step ladder: nearest rungs first, both
    /// polarities (retention shifts down, read disturb shifts up), deep
    /// enough for the worst modeled combined shift (see the
    /// `ladder_covers_the_modeled_worst_case_shift` test).
    pub fn date2012() -> Self {
        RetryPolicy {
            ladder: vec![1, -1, 2, -2, 3, -3, 4, -4],
            max_senses: 8,
        }
    }

    /// No retry: a single sense at the nominal reference, exactly the
    /// pre-retry datapath. This is the default.
    pub fn disabled() -> Self {
        RetryPolicy {
            ladder: Vec::new(),
            max_senses: 1,
        }
    }

    /// Whether an uncorrectable read can trigger extra senses.
    pub fn is_enabled(&self) -> bool {
        !self.ladder.is_empty() && self.max_senses > 1
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Per-block read-reference offsets learned from successful retries.
///
/// After a ladder walk decodes at some offset, the block's entry is set
/// to that offset and subsequent reads of the block *start* there —
/// steady state pays one sense near the optimum instead of re-walking
/// the ladder. Blocks without an entry read at offset 0 (nominal).
/// Erasing a block resets its Vth distributions, so the controller
/// forgets its entry on erase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadOffsetTable {
    offsets: BTreeMap<usize, i32>,
}

impl ReadOffsetTable {
    /// An empty table: every block senses at the nominal reference.
    pub fn new() -> Self {
        Self::default()
    }

    /// The learned starting offset for `block` (0 when none learned).
    pub fn get(&self, block: usize) -> i32 {
        self.offsets.get(&block).copied().unwrap_or(0)
    }

    /// Records `offset` as the block's starting reference. Learning
    /// offset 0 removes the entry (nominal is the default).
    pub fn learn(&mut self, block: usize, offset: i32) {
        if offset == 0 {
            self.offsets.remove(&block);
        } else {
            self.offsets.insert(block, offset);
        }
    }

    /// Drops the block's entry (called on erase: a fresh block's
    /// distributions are back at nominal).
    pub(crate) fn forget(&mut self, block: usize) {
        self.offsets.remove(&block);
    }

    /// Number of blocks with a learned (nonzero) offset.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether no block has a learned offset.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcx_nand::disturb::DisturbModel;

    #[test]
    fn defaults_are_disabled_and_single_sense() {
        let p = RetryPolicy::default();
        assert_eq!(p, RetryPolicy::disabled());
        assert!(!p.is_enabled());
        assert_eq!(p.max_senses, 1);
        // A ladder without budget is also disabled.
        let p = RetryPolicy {
            ladder: vec![1],
            max_senses: 1,
        };
        assert!(!p.is_enabled());
    }

    #[test]
    fn ladder_covers_the_modeled_worst_case_shift() {
        // The convergence pin: for the worst combined shift the
        // date2012 disturb model produces (a year parked at end of
        // life on a block read to the scrub threshold), some rung of
        // the date2012 ladder must land within half a step of the
        // optimum, inside the sense budget.
        let m = DisturbModel::date2012();
        let p = RetryPolicy::date2012();
        let reads = DisturbModel::SCRUB_READ_THRESHOLD;
        let nominal = m.rber_at_offset(reads, 8760.0, 1_000_000, 0.0, 0);
        let shift = nominal / m.rber_per_step;
        assert!(shift > 1.0, "worst case must actually shift: {shift}");
        let budget = (p.max_senses - 1) as usize;
        let (pos, best) = p
            .ladder
            .iter()
            .take(budget)
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (**a as f64 - shift)
                    .abs()
                    .total_cmp(&(**b as f64 - shift).abs())
            })
            .expect("ladder non-empty");
        assert!(
            (*best as f64 - shift).abs() <= 0.5,
            "no rung within half a step of shift {shift} (best {best})"
        );
        assert!(pos + 1 < budget, "the converging rung must fit the budget");
        // And the recovered RBER at that rung is a small fraction of
        // nominal — the ladder genuinely recovers the read.
        let at_rung = m.rber_at_offset(reads, 8760.0, 1_000_000, 0.0, *best);
        assert!(at_rung < nominal / 5.0, "{at_rung:e} vs {nominal:e}");
    }

    #[test]
    fn offset_table_learns_forgets_and_defaults_to_nominal() {
        let mut t = ReadOffsetTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(3), 0);
        t.learn(3, 2);
        t.learn(7, -1);
        assert_eq!((t.get(3), t.get(7), t.len()), (2, -1, 2));
        // Learning nominal clears the entry; erase forgets it.
        t.learn(3, 0);
        assert_eq!((t.get(3), t.len()), (0, 1));
        t.forget(7);
        assert!(t.is_empty());
    }
}
