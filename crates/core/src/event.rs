//! The discrete-event vocabulary of the engine core.
//!
//! The engine orders execution with events on one *virtual clock* — the
//! same absolute timeline the controller's
//! [`ChannelScheduler`](mlcx_controller::ChannelScheduler)
//! advances its per-die/per-channel busy clocks on. A submitted command
//! is stamped with its *arrival* time; dispatch (in
//! [`SchedPolicy`] order) runs it through the functional datapath and
//! asks the scheduler for the command's merged issue window
//! ([`ChannelScheduler::command_window`](mlcx_controller::ChannelScheduler::command_window));
//! the resulting completion event orders by `(end time, dispatch
//! sequence)`, earliest first, so the engine's `BinaryHeap<EventKey>`
//! pops completions in *completion-time* order — out of order with
//! respect to dispatch whenever dies overlap. The heap holds only the
//! keys; each [`Completion`](crate::engine::Completion) waits in an
//! engine-owned slab at its key's slot until delivery.
//!
//! This module also owns the QoS vocabulary: [`QosSpec`] (per-service
//! weight, deadline and bounded queue depth).

use std::cmp::Ordering;

/// How the engine orders dispatch across services when draining its
/// submission queues. Within one service, dispatch is always FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum SchedPolicy {
    /// Drain each service's queue to completion before the next
    /// service's begins (registration order). The historical drain
    /// order — the default, pinned bit-identical by the determinism
    /// tests.
    #[default]
    ServiceMajor,
    /// Global host submission order across services.
    FifoArrival,
    /// Weighted fair queueing: each dispatch picks the backlogged
    /// service with the least accumulated device time per unit
    /// [`QosSpec::weight`] (ties resolve to the lowest service index).
    /// Heavier weights get proportionally more of the device under
    /// contention.
    WeightedFair,
    /// Earliest deadline first: each dispatch picks the backlogged
    /// service whose head-of-queue command has the earliest
    /// `arrival + `[`QosSpec::deadline_s`] (ties resolve to submission
    /// order).
    Deadline,
}

/// Per-service quality-of-service contract, set by struct update over
/// the neutral default:
///
/// ```
/// use mlcx_core::QosSpec;
///
/// let gold = QosSpec {
///     weight: 8.0,
///     depth: 64,
///     ..QosSpec::default()
/// };
/// assert_eq!(gold.deadline_s, f64::INFINITY);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSpec {
    /// Weighted-fair share under [`SchedPolicy::WeightedFair`]
    /// (default 1.0).
    pub weight: f64,
    /// Relative completion deadline, seconds after arrival, under
    /// [`SchedPolicy::Deadline`] — and the threshold
    /// [`BatchReport::deadline_misses`](crate::engine::BatchReport::deadline_misses)
    /// counts against (default infinity: never missed).
    pub deadline_s: f64,
    /// Bounded submission-queue depth: a submission that would push
    /// the service's pending count past this raises
    /// [`MlcxError::QueueFull`](crate::error::MlcxError::QueueFull)
    /// (default `usize::MAX`: unbounded).
    pub depth: usize,
}

impl Default for QosSpec {
    fn default() -> Self {
        QosSpec {
            weight: 1.0,
            deadline_s: f64::INFINITY,
            depth: usize::MAX,
        }
    }
}

/// One completion, scheduled to surface at `end_s` on the virtual
/// clock: the key the engine's heap orders, with the slab slot where
/// the completion itself waits. The slot takes no part in the order
/// (dispatch sequences are unique).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventKey {
    /// Virtual time the command's last device operation drains (its
    /// dispatch frontier for zero-device commands).
    pub end_s: f64,
    /// Dispatch sequence — the deterministic tie-break for events
    /// sharing an end time.
    pub seq: u64,
    /// Where the completion to deliver waits.
    pub slot: usize,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq && self.end_s.total_cmp(&other.end_s) == Ordering::Equal
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the *earliest*
        // (end, seq).
        other
            .end_s
            .total_cmp(&self.end_s)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn events_pop_in_end_time_order_with_seq_tiebreak() {
        let mut q = BinaryHeap::new();
        // Slots in the opposite order to the keys: they never decide.
        for (slot, (end_s, seq)) in [(3.0, 0), (1.0, 2), (1.0, 1), (2.0, 3)]
            .into_iter()
            .enumerate()
        {
            q.push(EventKey {
                end_s,
                seq,
                slot: 9 - slot,
            });
        }
        assert_eq!(q.len(), 4);
        let order: Vec<(f64, u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.end_s, e.seq, e.slot))
            .collect();
        assert_eq!(
            order,
            vec![(1.0, 1, 7), (1.0, 2, 8), (2.0, 3, 6), (3.0, 0, 9)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn an_event_key_is_three_words() {
        assert_eq!(std::mem::size_of::<EventKey>(), 24);
    }

    /// A completion moves whole through the slot vector and the drained
    /// `Vec`, a read's report inside it, so their sizes are on the
    /// per-command path: 40 bytes more cost `tenant_qos` 1.5 % of its
    /// pages per second. A change of either is a decision, made here.
    #[test]
    fn the_per_command_records_keep_their_size() {
        assert_eq!(std::mem::size_of::<crate::engine::Completion>(), 216);
        assert_eq!(std::mem::size_of::<mlcx_controller::ReadReport>(), 176);
    }

    #[test]
    fn qos_spec_defaults_are_neutral() {
        let q = QosSpec::default();
        assert_eq!(q.weight, 1.0);
        assert_eq!(q.deadline_s, f64::INFINITY);
        assert_eq!(q.depth, usize::MAX);
    }
}
