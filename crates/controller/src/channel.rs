//! Channel/die busy-time scheduling.
//!
//! The controller executes commands one at a time (the functional
//! datapath — BCH encode/decode, error injection — is deterministic and
//! sequential), but a real multi-channel controller overlaps them: while
//! one die is busy programming, another channel's bus can stream the
//! next codeword. [`ChannelScheduler`] models that overlap as virtual
//! busy-time bookkeeping: every operation is split into a *bus* part
//! (channel occupied: data transfer plus the per-channel ECC engine)
//! and a *cell* part (die occupied: sense, program or erase), and the
//! scheduler advances per-die and per-channel clocks to find the
//! earliest issue slot. The makespan of a batch — when the last die
//! falls idle — is the batch's parallel latency.
//!
//! On a 1-channel/1-die topology every operation serializes behind the
//! single die, so the makespan degenerates to the plain sum of
//! operation latencies: the historical single-target numbers are
//! reproduced exactly.

use mlcx_nand::Topology;

/// One operation's occupancy, split into the channel and die parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Channel (bus + per-channel ECC engine) occupancy, seconds.
    pub bus_s: f64,
    /// Die (array) occupancy, seconds.
    pub cell_s: f64,
    /// Whether the bus part precedes the cell part (writes stream data
    /// in first; reads sense first and stream out after).
    pub bus_first: bool,
}

impl OpTiming {
    /// A write-shaped operation: bus transfer in, then the die programs.
    pub fn write(bus_s: f64, cell_s: f64) -> Self {
        OpTiming {
            bus_s,
            cell_s,
            bus_first: true,
        }
    }

    /// A read-shaped operation: the die senses, then streams out.
    pub fn read(cell_s: f64, bus_s: f64) -> Self {
        OpTiming {
            bus_s,
            cell_s,
            bus_first: false,
        }
    }

    /// An erase-shaped operation: die-only, no bus traffic.
    pub fn erase(cell_s: f64) -> Self {
        OpTiming {
            bus_s: 0.0,
            cell_s,
            bus_first: false,
        }
    }
}

/// The issue window the scheduler assigned to one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IssueSlot {
    /// When the operation starts on the virtual timeline, seconds.
    pub start_s: f64,
    /// When its die falls idle again, seconds.
    pub end_s: f64,
}

/// Virtual-time busy tracker for a [`Topology`].
///
/// # Example
///
/// ```
/// use mlcx_controller::{ChannelScheduler, OpTiming};
/// use mlcx_nand::Topology;
///
/// let mut sched = ChannelScheduler::new(Topology::new(2, 1));
/// sched.begin_batch();
/// // Two 1 ms programs on dies behind different channels overlap:
/// sched.issue(0, OpTiming::write(10e-6, 1e-3));
/// sched.issue(1, OpTiming::write(10e-6, 1e-3));
/// assert!(sched.batch_makespan_s() < 1.2e-3); // not 2 ms
/// ```
#[derive(Debug, Clone)]
pub struct ChannelScheduler {
    topology: Topology,
    /// Absolute virtual time each die falls idle.
    die_free_s: Vec<f64>,
    /// Absolute virtual time each channel's bus falls idle.
    chan_free_s: Vec<f64>,
    /// Bus busy time accumulated per channel since `begin_batch`.
    chan_busy_s: Vec<f64>,
    /// Virtual time the current batch opened at.
    batch_start_s: f64,
    /// Merged issue window of the operations since `begin_command`
    /// (`None` until the command issues its first operation).
    cmd_window: Option<IssueSlot>,
    /// Earliest virtual time the current command may start (its host
    /// arrival timestamp; 0 when unset).
    cmd_floor_s: f64,
}

impl ChannelScheduler {
    /// A scheduler with all clocks at zero.
    pub fn new(topology: Topology) -> Self {
        ChannelScheduler {
            die_free_s: vec![0.0; topology.total_dies()],
            chan_free_s: vec![0.0; topology.channels],
            chan_busy_s: vec![0.0; topology.channels],
            batch_start_s: 0.0,
            cmd_window: None,
            cmd_floor_s: 0.0,
            topology,
        }
    }

    /// The topology being scheduled.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Opens a new batch window: the batch starts once every die from
    /// the previous batch has drained (batches are barriers — the
    /// engine's `poll` is a full drain), and the per-channel busy
    /// counters reset.
    pub fn begin_batch(&mut self) {
        let drained = self
            .die_free_s
            .iter()
            .fold(self.batch_start_s, |a, &b| a.max(b));
        self.batch_start_s = drained;
        for busy in &mut self.chan_busy_s {
            *busy = 0.0;
        }
        self.cmd_window = None;
        self.cmd_floor_s = 0.0;
    }

    /// Opens a per-command timing window: every subsequent
    /// [`ChannelScheduler::issue`] (until the next `begin_command`)
    /// merges into one [`IssueSlot`] readable from
    /// [`ChannelScheduler::command_window`], and none of those issues
    /// may start before `not_before_s` (the command's host arrival
    /// time). This is the handoff the event-driven engine core uses to
    /// turn the controller's internal multi-issue commands (a
    /// retry-laddered read, a relocate's read + write) into one
    /// completion event with real start/end timestamps.
    ///
    /// A floor at or before the batch opening is a no-op, so
    /// single-submitter drains — where every arrival predates the
    /// barrier — are bit-identical to the floorless schedule.
    pub fn begin_command(&mut self, not_before_s: f64) {
        self.cmd_window = None;
        self.cmd_floor_s = not_before_s;
    }

    /// The merged `(earliest start, latest end)` window of the
    /// operations issued since the last
    /// [`ChannelScheduler::begin_command`] (`None` for a command that
    /// touched no device resource — trim, configure, failed
    /// validation).
    pub fn command_window(&self) -> Option<IssueSlot> {
        self.cmd_window
    }

    /// Schedules one operation on `die` at the earliest slot its die
    /// (and, for the bus part, its channel) is free, and advances the
    /// clocks.
    ///
    /// # Panics
    ///
    /// Panics when `die` is outside the topology (controller-internal
    /// misuse; host-facing layers validate first).
    pub fn issue(&mut self, die: usize, timing: OpTiming) -> IssueSlot {
        let chan = self.topology.channel_of_die(die);
        let die_free = self.die_free_s[die]
            .max(self.batch_start_s)
            .max(self.cmd_floor_s);
        let slot = if timing.bus_first {
            // Bus transfer gates the die work: wait for both resources.
            let start = die_free.max(self.chan_free_s[chan]);
            let bus_done = start + timing.bus_s;
            self.chan_free_s[chan] = bus_done;
            self.chan_busy_s[chan] += timing.bus_s;
            let end = bus_done + timing.cell_s;
            self.die_free_s[die] = end;
            IssueSlot {
                start_s: start,
                end_s: end,
            }
        } else {
            // Die work first; the bus (if any) streams the result out.
            let start = die_free;
            let cell_done = start + timing.cell_s;
            let end = if timing.bus_s > 0.0 {
                let bus_start = cell_done.max(self.chan_free_s[chan]);
                let bus_done = bus_start + timing.bus_s;
                self.chan_free_s[chan] = bus_done;
                self.chan_busy_s[chan] += timing.bus_s;
                bus_done
            } else {
                cell_done
            };
            // The die holds its page register until the transfer drains.
            self.die_free_s[die] = end;
            IssueSlot {
                start_s: start,
                end_s: end,
            }
        };
        self.cmd_window = Some(match self.cmd_window {
            None => slot,
            Some(w) => IssueSlot {
                start_s: w.start_s.min(slot.start_s),
                end_s: w.end_s.max(slot.end_s),
            },
        });
        slot
    }

    /// The batch's modeled parallel latency: from the batch opening to
    /// the last die falling idle (0 with no operations).
    pub fn batch_makespan_s(&self) -> f64 {
        let end = self
            .die_free_s
            .iter()
            .fold(self.batch_start_s, |a, &b| a.max(b));
        end - self.batch_start_s
    }

    /// Total bus busy time across every channel since the batch opened.
    pub fn batch_channel_busy_s(&self) -> f64 {
        self.chan_busy_s.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const EPS: f64 = 1e-12;

    /// Whether two busy intervals share more than rounding (`EPS`).
    fn overlap(a: (f64, f64), b: (f64, f64)) -> bool {
        a.0 < b.1 - EPS && b.0 < a.1 - EPS
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// No die and no bus is ever double-booked: random reads, writes
        /// and erases over a 2x2 topology, with batch barriers and
        /// command floors (past and future) mixed in. Each op's die
        /// interval is its whole slot; its bus interval is the slot's
        /// first `bus_s` for a write and its last `bus_s` for a read.
        #[test]
        fn no_die_or_channel_is_ever_double_booked(
            steps in proptest::collection::vec((0u32..6, 0usize..4, 1e-6f64..2e-3, 1e-6f64..2e-4), 1..160),
        ) {
            let topology = Topology::new(2, 2);
            let mut s = ChannelScheduler::new(topology);
            let mut dies = vec![Vec::new(); topology.total_dies()];
            let mut buses = vec![Vec::new(); topology.channels];
            for (kind, die, cell_s, bus_s) in steps {
                let timing = match kind {
                    0 => {
                        s.begin_batch();
                        continue;
                    }
                    1 => {
                        s.begin_command(cell_s * 10.0);
                        continue;
                    }
                    2 => OpTiming::read(cell_s, bus_s),
                    3 => OpTiming::write(bus_s, cell_s),
                    4 => OpTiming::erase(cell_s),
                    // A short sense: the shared bus, not the die, binds.
                    _ => OpTiming::read(cell_s / 20.0, bus_s),
                };
                let slot = s.issue(die, timing);
                dies[die].push((slot.start_s, slot.end_s));
                let bus = if timing.bus_first {
                    Some((slot.start_s, slot.start_s + timing.bus_s))
                } else if timing.bus_s > 0.0 {
                    Some((slot.end_s - timing.bus_s, slot.end_s))
                } else {
                    None
                };
                if let Some(bus) = bus {
                    buses[topology.channel_of_die(die)].push(bus);
                }
            }
            for (what, intervals) in dies.iter().chain(&buses).enumerate() {
                for (i, &a) in intervals.iter().enumerate() {
                    for &b in &intervals[i + 1..] {
                        prop_assert!(!overlap(a, b), "resource {what}: {a:?} and {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_die_serializes_to_the_latency_sum() {
        let mut s = ChannelScheduler::new(Topology::single());
        s.begin_batch();
        let ops = [
            OpTiming::write(30e-6, 900e-6),
            OpTiming::read(75e-6, 60e-6),
            OpTiming::erase(2e-3),
            OpTiming::read(75e-6, 120e-6),
        ];
        let mut sum = 0.0;
        for op in ops {
            s.issue(0, op);
            sum += op.bus_s + op.cell_s;
        }
        assert!((s.batch_makespan_s() - sum).abs() < EPS);
    }

    #[test]
    fn independent_channels_overlap_fully() {
        let mut s = ChannelScheduler::new(Topology::new(4, 1));
        s.begin_batch();
        for die in 0..4 {
            s.issue(die, OpTiming::write(10e-6, 1e-3));
        }
        // Four 1.01 ms writes on four channels: makespan is one write.
        assert!((s.batch_makespan_s() - 1.01e-3).abs() < EPS);
    }

    #[test]
    fn shared_channel_serializes_the_bus_but_overlaps_the_cells() {
        let mut s = ChannelScheduler::new(Topology::new(1, 2));
        s.begin_batch();
        s.issue(0, OpTiming::write(100e-6, 1e-3));
        s.issue(1, OpTiming::write(100e-6, 1e-3));
        // Bus transfers serialize (die 1 starts at 100 us), programs
        // overlap: makespan = 200 us + 1 ms, not 2.2 ms.
        assert!((s.batch_makespan_s() - 1.2e-3).abs() < EPS);
    }

    #[test]
    fn same_die_operations_serialize() {
        let mut s = ChannelScheduler::new(Topology::new(2, 2));
        s.begin_batch();
        let a = s.issue(3, OpTiming::write(10e-6, 1e-3));
        let b = s.issue(3, OpTiming::write(10e-6, 1e-3));
        assert!(b.start_s >= a.end_s - EPS);
    }

    #[test]
    fn read_streams_out_after_sensing() {
        let mut s = ChannelScheduler::new(Topology::new(1, 2));
        s.begin_batch();
        // Two reads on dies sharing a channel: senses overlap, the
        // second transfer queues behind the first.
        s.issue(0, OpTiming::read(75e-6, 50e-6));
        s.issue(1, OpTiming::read(75e-6, 50e-6));
        assert!((s.batch_makespan_s() - 175e-6).abs() < EPS);
    }

    #[test]
    fn batches_are_barriers() {
        let mut s = ChannelScheduler::new(Topology::new(2, 1));
        s.begin_batch();
        s.issue(0, OpTiming::erase(2e-3));
        s.issue(1, OpTiming::erase(1e-3));
        assert!((s.batch_makespan_s() - 2e-3).abs() < EPS);
        s.begin_batch();
        assert_eq!(s.batch_makespan_s(), 0.0);
        // The new batch starts after the slow die drained: die 1 cannot
        // start before the previous batch's makespan.
        let slot = s.issue(1, OpTiming::erase(1e-3));
        assert!((slot.start_s - 2e-3).abs() < EPS);
        assert!((s.batch_makespan_s() - 1e-3).abs() < EPS);
    }

    #[test]
    fn command_window_merges_multi_issue_commands() {
        let mut s = ChannelScheduler::new(Topology::single());
        s.begin_batch();
        assert_eq!(s.command_window(), None);
        // A relocate-shaped command: read then write, one window.
        s.begin_command(0.0);
        let read = s.issue(0, OpTiming::read(75e-6, 60e-6));
        let write = s.issue(0, OpTiming::write(30e-6, 900e-6));
        let w = s.command_window().unwrap();
        assert!((w.start_s - read.start_s).abs() < EPS);
        assert!((w.end_s - write.end_s).abs() < EPS);
        // The next command opens a fresh window.
        s.begin_command(0.0);
        assert_eq!(s.command_window(), None);
        let erase = s.issue(0, OpTiming::erase(2e-3));
        assert_eq!(s.command_window(), Some(erase));
    }

    #[test]
    fn command_floor_delays_the_start_only_when_in_the_future() {
        let mut s = ChannelScheduler::new(Topology::single());
        s.begin_batch();
        // A floor behind the die clock is a no-op...
        s.begin_command(0.0);
        let a = s.issue(0, OpTiming::erase(1e-3));
        assert!(a.start_s.abs() < EPS);
        s.begin_command(0.5e-3);
        let b = s.issue(0, OpTiming::erase(1e-3));
        assert!((b.start_s - 1e-3).abs() < EPS, "die still busy");
        // ...a future arrival idles the die until the command arrives.
        s.begin_command(5e-3);
        let c = s.issue(0, OpTiming::erase(1e-3));
        assert!((c.start_s - 5e-3).abs() < EPS);
        assert!((c.end_s - 6e-3).abs() < EPS);
    }
}
