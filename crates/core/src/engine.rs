//! The event-driven command-queue storage engine — the host-facing API
//! of the stack.
//!
//! [`StorageEngine`] fronts the adaptive memory controller with an
//! NVMe-style submission/completion interface: the host registers named
//! *services* (block regions bound to a cross-layer [`Objective`] and an
//! optional [`QosSpec`]), enqueues typed [`Command`]s through its
//! [`SubmissionQueue`] ([`StorageEngine::sq`]), and drains results from
//! its [`CompletionQueue`] ([`StorageEngine::cq`]). Execution is
//! discrete-event: every command is stamped with an *arrival* time on
//! the engine's virtual clock at submission, dispatch runs the queued
//! work through the real controller datapath (functional BCH
//! encode/decode, error-injected NAND model, calibrated latencies) in
//! [`SchedPolicy`] order, and each command's merged channel/die issue
//! window becomes a completion event — so completions surface in
//! *completion-time* order, out of order with respect to dispatch
//! whenever dies overlap. Each drain also produces an aggregate
//! [`BatchReport`] of modeled device time, energy, channel overlap and
//! tail-latency flow percentiles. Those are the engine's only accounts:
//! every per-command fact (its bytes, its own latency, the reports of
//! the operations it ran) is in its [`Completion`], every per-drain sum
//! in the [`BatchReport`], and a host that wants a per-kind or
//! per-service tally folds the completions it drained.
//!
//! The engine is also where the cross-layer re-derivation cost is paid
//! once instead of per page: the operating point selected by a service's
//! objective at a wear level is memoized per `(service, die, wear
//! bucket)` ([`WearBucketing`]) and re-derived when
//! [`StorageEngine::advance_hours`] ages retention-sensitive data, and
//! the controller knobs are only rewritten when the point actually
//! changes ([`MemoryController::apply_point`]).
//!
//! # Example
//!
//! ```
//! use mlcx_core::engine::{Command, EngineBuilder};
//! use mlcx_core::Objective;
//!
//! let mut engine = EngineBuilder::date2012().seed(7).build()?;
//! let media = engine.register_service("media", Objective::MaxReadThroughput, 0..8)?;
//!
//! let data = vec![0x5Au8; 4096];
//! engine.sq().submit(&[
//!     Command::erase(media, 0),
//!     Command::write(media, 0, 0, data.clone()),
//!     Command::read(media, 0, 0),
//! ])?;
//! let completions = engine.cq().drain();
//! assert_eq!(completions.len(), 3);
//! assert!(completions.iter().all(|c| c.result.is_ok()));
//! // Completions carry their event timestamps: arrival -> start -> end.
//! assert!(completions.iter().all(|c| c.arrival_s <= c.start_s && c.start_s <= c.end_s));
//! let report = engine.last_batch();
//! assert!(report.device_latency_s > 0.0 && report.energy_j > 0.0);
//! # Ok::<(), mlcx_core::MlcxError>(())
//! ```

use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::ops::Range;

use mlcx_controller::{ControllerConfig, CtrlError, MemoryController, ReadReport, WriteReport};
use mlcx_nand::OpReport;

use crate::counters::Counters;
use crate::error::MlcxError;
use crate::event::{EventKey, QosSpec, SchedPolicy};
use crate::fault::{FaultInjector, FaultPlan};
use crate::model::{OperatingPoint, SubsystemModel};
use crate::policy::Objective;
use crate::services::{ServiceError, ServiceRegion};

/// An opaque ticket naming a registered service.
///
/// Handles are bound to the engine that issued them: a handle from a
/// different [`StorageEngine`] instance is rejected with
/// [`MlcxError::UnknownHandle`] even when its index happens to be in
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceHandle {
    engine: u32,
    index: u32,
}

impl ServiceHandle {
    /// The raw index (diagnostics only).
    pub fn index(self) -> u32 {
        self.index
    }
}

impl fmt::Display for ServiceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc#{}", self.index)
    }
}

/// An opaque ticket naming one submitted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmdId(u64);

impl CmdId {
    /// The raw sequence number (diagnostics only).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmd#{}", self.0)
    }
}

/// One host command, tagged with the service it runs under.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Read one page.
    Read {
        /// Issuing service.
        service: ServiceHandle,
        /// Target block.
        block: usize,
        /// Target page.
        page: usize,
    },
    /// Write one page.
    Write {
        /// Issuing service.
        service: ServiceHandle,
        /// Target block.
        block: usize,
        /// Target page.
        page: usize,
        /// Exactly one page of data.
        data: Vec<u8>,
    },
    /// Erase one block.
    Erase {
        /// Issuing service.
        service: ServiceHandle,
        /// Target block.
        block: usize,
    },
    /// Discard one page's mapping (its ECC metadata) without touching
    /// the medium.
    Trim {
        /// Issuing service.
        service: ServiceHandle,
        /// Target block.
        block: usize,
        /// Target page.
        page: usize,
    },
    /// Re-bind the service to a different cross-layer objective.
    Configure {
        /// Issuing service.
        service: ServiceHandle,
        /// The new objective.
        objective: Objective,
    },
    /// Copy one page to a freshly erased slot through the full datapath
    /// (read + ECC correct at the source's write-time capability, then
    /// re-encode and program at the service's current operating point) —
    /// the relocation primitive of scrub/read-reclaim maintenance.
    /// Counted under [`Counters::scrub_relocations`]; its output is
    /// [`CommandOutput::Relocate`], never a host read or write.
    Relocate {
        /// Issuing service.
        service: ServiceHandle,
        /// Source `(block, page)`.
        from: (usize, usize),
        /// Destination `(block, page)`; must be erased.
        to: (usize, usize),
    },
    /// Erase a block as scrub maintenance: identical device effect to
    /// [`Command::Erase`] (and it equally resets the block's
    /// read-disturb accumulator), but accounted under
    /// [`Counters::scrub_erases`] so maintenance traffic is separable
    /// from host traffic.
    ScrubErase {
        /// Issuing service.
        service: ServiceHandle,
        /// Target block.
        block: usize,
    },
}

impl Command {
    /// A read command.
    pub fn read(service: ServiceHandle, block: usize, page: usize) -> Self {
        Command::Read {
            service,
            block,
            page,
        }
    }

    /// A write command.
    pub fn write(service: ServiceHandle, block: usize, page: usize, data: Vec<u8>) -> Self {
        Command::Write {
            service,
            block,
            page,
            data,
        }
    }

    /// An erase command.
    pub fn erase(service: ServiceHandle, block: usize) -> Self {
        Command::Erase { service, block }
    }

    /// A trim command.
    pub fn trim(service: ServiceHandle, block: usize, page: usize) -> Self {
        Command::Trim {
            service,
            block,
            page,
        }
    }

    /// A reconfiguration command.
    pub fn configure(service: ServiceHandle, objective: Objective) -> Self {
        Command::Configure { service, objective }
    }

    /// A scrub relocation command.
    pub fn relocate(service: ServiceHandle, from: (usize, usize), to: (usize, usize)) -> Self {
        Command::Relocate { service, from, to }
    }

    /// A scrub erase command.
    pub fn scrub_erase(service: ServiceHandle, block: usize) -> Self {
        Command::ScrubErase { service, block }
    }

    /// The service the command runs under.
    pub fn service(&self) -> ServiceHandle {
        match *self {
            Command::Read { service, .. }
            | Command::Write { service, .. }
            | Command::Erase { service, .. }
            | Command::Trim { service, .. }
            | Command::Configure { service, .. }
            | Command::Relocate { service, .. }
            | Command::ScrubErase { service, .. } => service,
        }
    }
}

/// The successful result payload of one command.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutput {
    /// Read result: corrected data plus the latency/energy breakdown.
    Read(ReadReport),
    /// Write result: the latency/energy breakdown and configuration used.
    Write(WriteReport),
    /// Erase result: the device's busy time and energy.
    Erase {
        /// The device's report of the erase.
        report: OpReport,
        /// Whether the erase ran as scrub maintenance
        /// ([`Command::ScrubErase`]) rather than host or GC traffic.
        scrub: bool,
    },
    /// Trim result.
    Trim {
        /// Whether the page was mapped before the trim.
        was_mapped: bool,
    },
    /// Reconfiguration result.
    Configure {
        /// The objective the service was bound to before.
        previous: Objective,
    },
    /// Scrub relocation result: the reports of its two operations. The
    /// command's latency and energy are the sums of theirs.
    Relocate {
        /// The source read, decoded at the page's write-time capability.
        /// Whether it decoded is `read.outcome`: the best-effort data is
        /// relocated either way, and a miss surfaces at the next host
        /// read. Boxed so the variant is no larger than a host read's.
        read: Box<ReadReport>,
        /// The destination program, re-encoded at the service's current
        /// operating point (`write.t_used`).
        write: WriteReport,
    },
}

impl CommandOutput {
    /// Modeled energy the command spent, joules (0 for the commands
    /// that touch no device resource).
    pub fn energy_j(&self) -> f64 {
        match self {
            CommandOutput::Read(r) => r.energy_j,
            CommandOutput::Write(w) => w.energy_j,
            CommandOutput::Erase { report, .. } => report.energy_j,
            CommandOutput::Relocate { read, write } => read.energy_j + write.energy_j,
            CommandOutput::Trim { .. } | CommandOutput::Configure { .. } => 0.0,
        }
    }
}

/// One completed command, with its event timestamps on the engine's
/// virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The ticket the submission queue returned for the command.
    pub id: CmdId,
    /// The service the command ran under.
    pub service: ServiceHandle,
    /// The command's outcome.
    pub result: Result<CommandOutput, MlcxError>,
    /// When the command arrived (was submitted), absolute seconds on
    /// the virtual clock.
    pub arrival_s: f64,
    /// When its first device operation started (its dispatch frontier
    /// for commands that touch no device resource).
    pub start_s: f64,
    /// When its last device operation drained — the event time the
    /// completion surfaced at.
    pub end_s: f64,
}

impl Completion {
    /// End-to-end flow latency: completion minus arrival, the figure
    /// the per-tenant tail-latency percentiles are computed over.
    pub fn flow_s(&self) -> f64 {
        (self.end_s - self.arrival_s).max(0.0)
    }
}

/// Aggregate accounting of one [`CompletionQueue::drain`].
///
/// A per-command fact is not repeated here: the bytes a read or write
/// moved and its own latency are in its [`Completion`]'s
/// [`CommandOutput`], and the commands that succeeded are
/// `commands - failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchReport {
    /// Commands executed.
    pub commands: usize,
    /// Commands that completed with an error.
    pub failed: usize,
    /// Total modeled datapath latency, seconds (sequential device time).
    pub device_latency_s: f64,
    /// Total modeled energy, joules.
    pub energy_j: f64,
    /// Raw bit errors corrected by the ECC across the batch.
    pub corrected_bits: u64,
    /// Operating points served from the memo cache.
    pub op_cache_hits: u64,
    /// Operating points derived from the model.
    pub op_cache_misses: u64,
    /// Configuration register writes actually issued.
    pub knob_writes: u64,
    /// Modeled batch latency with channel/die overlap: from the batch
    /// opening to the last die falling idle (the scheduler's makespan).
    /// Equals [`BatchReport::device_latency_s`] on a 1-channel/1-die
    /// topology, where nothing can overlap.
    pub parallel_latency_s: f64,
    /// Total bus busy time across every channel during the batch.
    pub channel_busy_s: f64,
    /// Channels in the topology the batch ran on.
    pub channels: usize,
    /// Scrub, read-retry, interference and fault-injection counters of
    /// the batch's successful commands.
    pub counters: Counters,
    /// Median end-to-end flow latency (completion minus arrival)
    /// across the drain's completions, seconds.
    pub flow_p50_s: f64,
    /// p99 flow latency across the drain's completions, seconds.
    pub flow_p99_s: f64,
    /// p99.9 flow latency across the drain's completions, seconds —
    /// the tail the QoS scheduler is judged on.
    pub flow_p999_s: f64,
    /// Completions whose flow latency exceeded their service's
    /// [`QosSpec::deadline_s`] (0 with every deadline at the default
    /// infinity).
    pub deadline_misses: u64,
}

impl BatchReport {
    /// Serial device time over parallel makespan: how many channels'
    /// worth of work the batch actually overlapped (1.0 when nothing
    /// overlaps, up to the die count for a perfectly striped batch; 0
    /// with no device time).
    pub fn achieved_parallelism(&self) -> f64 {
        if self.parallel_latency_s <= 0.0 {
            return 0.0;
        }
        self.device_latency_s / self.parallel_latency_s
    }

    /// Mean fraction of the batch window each channel's bus was busy
    /// (0 with no makespan).
    pub fn channel_utilization(&self) -> f64 {
        if self.parallel_latency_s <= 0.0 || self.channels == 0 {
            return 0.0;
        }
        self.channel_busy_s / (self.channels as f64 * self.parallel_latency_s)
    }

    fn absorb(&mut self, duration_s: f64, energy_j: f64) {
        self.device_latency_s += duration_s;
        self.energy_j += energy_j;
    }
}

/// How the engine buckets wear levels when memoizing operating points.
///
/// The ECC schedule is a monotone step function of wear, so coarse
/// buckets are safe as long as the point is derived at the bucket's
/// *upper* edge (the capability can only be conservative within the
/// bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WearBucketing {
    /// Memoize on the exact cycle count: every same-wear command after
    /// the first is a cache hit, and the selected point is the one a
    /// derivation per command would pick.
    #[default]
    Exact,
    /// Memoize on power-of-two wear buckets, deriving at the bucket's
    /// upper edge: at most 21 derivations per service over a 10^6-cycle
    /// life, at the price of a slightly conservative (never weaker)
    /// capability inside each bucket.
    Log2,
}

impl WearBucketing {
    /// `(cache key, wear to derive at)` for a wear level.
    fn bucket(self, wear: u64) -> (u64, u64) {
        match self {
            WearBucketing::Exact => (wear, wear),
            WearBucketing::Log2 => {
                let key = 64 - u64::from(wear.leading_zeros());
                let upper = if key >= 64 {
                    u64::MAX
                } else {
                    (1u64 << key) - 1
                };
                (key, upper.max(1))
            }
        }
    }
}

/// One submitted, not-yet-dispatched command.
struct QueuedCmd {
    id: CmdId,
    cmd: Command,
    /// Arrival timestamp on the virtual clock (stamped at submission).
    arrival_s: f64,
    /// Global submission sequence — the FIFO/deadline tie-break.
    seq: u64,
}

struct ServiceState {
    region: ServiceRegion,
    qos: QosSpec,
    /// Device time this service has consumed, per unit weight — the
    /// weighted-fair virtual time its dispatches are ordered by.
    vtime_s: f64,
    queue: VecDeque<QueuedCmd>,
    /// Memoized operating point per die, as `(wear-bucket key, disturb
    /// epoch, point)` — the memo is keyed `(service, die, wear bucket)`
    /// because dies age independently, so one die's wear crossing a
    /// bucket edge must not evict the point of its siblings. One slot
    /// per die suffices: within a die wear only moves forward, so an
    /// evicted bucket would never be hit again anyway, and the slots
    /// keep the cache O(dies) per service over the whole device
    /// lifetime. The epoch tags which disturb generation the point was
    /// derived under: wear alone cannot see disturb-driven RBER growth
    /// (reads and retention age move without a single P/E cycle), so
    /// [`StorageEngine::invalidate_operating_points`] bumps the engine
    /// epoch and every stale slot misses on its next lookup.
    op_slots: Vec<Option<(u64, u64, OperatingPoint)>>,
}

/// Fluent construction of a [`StorageEngine`].
///
/// The controller's settings — codec range and kernel, geometry, disturb
/// model, read-retry policy — are fields of the one [`ControllerConfig`]
/// handed to [`EngineBuilder::controller_config`], checked by
/// [`EngineBuilder::build`]; the setters here are the engine's own.
///
/// # Example
///
/// ```
/// use mlcx_controller::{ControllerConfig, RetryPolicy};
/// use mlcx_core::engine::{EngineBuilder, WearBucketing};
///
/// let engine = EngineBuilder::date2012()
///     .seed(99)
///     .controller_config(ControllerConfig {
///         ecc_tmax: 40,
///         retry: RetryPolicy::date2012(),
///         ..ControllerConfig::date2012()
///     })
///     .wear_bucketing(WearBucketing::Log2)
///     .build()?;
/// // The model the engine plans with is its controller's.
/// assert_eq!(engine.model().tmax, 40);
/// assert!(engine.controller().config().retry.is_enabled());
/// # Ok::<(), mlcx_core::MlcxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: ControllerConfig,
    seed: u64,
    bucketing: WearBucketing,
    sched: SchedPolicy,
    fault: FaultPlan,
}

impl EngineBuilder {
    /// A builder seeded with the paper's full calibration.
    pub fn date2012() -> Self {
        EngineBuilder {
            config: ControllerConfig::date2012(),
            seed: 2012,
            bucketing: WearBucketing::default(),
            sched: SchedPolicy::default(),
            fault: FaultPlan::disabled(),
        }
    }

    /// Selects how dispatch is ordered across services (default
    /// [`SchedPolicy::ServiceMajor`] — the historical drain order,
    /// bit-identical to the pre-event engine).
    pub fn sched_policy(mut self, sched: SchedPolicy) -> Self {
        self.sched = sched;
        self
    }

    /// Overrides the controller configuration — every controller
    /// setting, the disturb model and the read-retry policy included —
    /// and with it the model the engine plans with
    /// ([`SubsystemModel::for_controller`]). Retry senses are charged to
    /// the channel scheduler like any read, surface in
    /// [`Counters::retry_senses`]/[`Counters::retry_latency_s`], and —
    /// through the block's learned offset — lower the effective disturb
    /// RBER the `(wear-bucket, disturb-epoch)` memo derives ECC schedules
    /// against.
    pub fn controller_config(mut self, config: ControllerConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a program-fault injection schedule (default
    /// [`FaultPlan::disabled`] — zero injections, zero RNG draws, and a
    /// datapath bit-identical to an engine without the knob). The plan's
    /// own seed drives a dedicated stream, so the same workload replays
    /// under different fault schedules without perturbing the device's
    /// error injection. Only *host* writes roll the schedule —
    /// maintenance relocations do not, so the k-th host program sees
    /// the same fate under every mitigation arm.
    pub fn fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Seeds the device's error-injection stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the operating-point memoization policy.
    pub fn wear_bucketing(mut self, bucketing: WearBucketing) -> Self {
        self.bucketing = bucketing;
        self
    }

    /// Builds the engine and its controller/device pair. The model is
    /// derived from the controller configuration
    /// ([`SubsystemModel::for_controller`]), so it cannot schedule a
    /// capability or codeword shape the codec does not have.
    ///
    /// # Errors
    ///
    /// Controller construction errors (an invalid configuration, codec
    /// build, spare overflow) surface as [`MlcxError::Ctrl`].
    pub fn build(self) -> Result<StorageEngine, MlcxError> {
        let ctrl = MemoryController::new(self.config, self.seed)?;
        let mut engine = StorageEngine::with_bucketing(ctrl, self.bucketing);
        engine.sched = self.sched;
        engine.fault = FaultInjector::new(self.fault);
        Ok(engine)
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::date2012()
    }
}

/// The command-queue storage engine (see the [module docs](self)).
pub struct StorageEngine {
    /// Identifies this instance so handles cannot cross engines.
    engine_id: u32,
    ctrl: MemoryController,
    /// [`SubsystemModel::for_controller`] of `ctrl`'s configuration.
    model: SubsystemModel,
    services: Vec<ServiceState>,
    bucketing: WearBucketing,
    /// Generation counter of the disturb state the memoized operating
    /// points were derived under (see [`ServiceState::op_slots`]).
    disturb_epoch: u64,
    next_id: u64,
    last_batch: BatchReport,
    /// Cross-service dispatch order.
    sched: SchedPolicy,
    /// The engine's virtual clock, absolute seconds — shared with the
    /// channel scheduler's busy-time timeline. Advances as completion
    /// events are delivered.
    clock_s: f64,
    /// Global submission sequence source (arrival-order tie-breaks).
    submit_seq: u64,
    /// Global dispatch sequence source — never restarted, so events of
    /// one dispatch still in flight when the next runs keep a total
    /// `(end time, dispatch seq)` order with its events.
    dispatch_seq: u64,
    /// Pending completion events, keyed `(end time, dispatch seq)`.
    events: BinaryHeap<EventKey>,
    /// The completions of `events`, each at its key's slot; `None` once
    /// delivered.
    parked: Vec<Option<Completion>>,
    /// Slots of `parked` free for the next event.
    free_slots: Vec<usize>,
    /// Executor of the builder's [`FaultPlan`] — rolls its own seeded
    /// stream once per *host* write (never for maintenance relocations,
    /// and never at all when the plan is disabled).
    fault: FaultInjector,
    /// Scratch of the submission path: commands per service in the
    /// submission being checked (kept so a submission — one per command
    /// for an open-loop host — does not allocate to count them).
    incoming: Vec<usize>,
    /// Scratch of the dispatch path: the flow times of one dispatch,
    /// sorted for its percentiles.
    flows: Vec<f64>,
}

/// Source of per-instance engine ids (handle provenance checks).
static NEXT_ENGINE_ID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

impl StorageEngine {
    /// Wraps a controller with a memoization policy — the constructor
    /// behind [`EngineBuilder::build`].
    fn with_bucketing(ctrl: MemoryController, bucketing: WearBucketing) -> Self {
        StorageEngine {
            engine_id: NEXT_ENGINE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            model: SubsystemModel::for_controller(ctrl.config()),
            ctrl,
            services: Vec::new(),
            bucketing,
            disturb_epoch: 0,
            next_id: 0,
            last_batch: BatchReport::default(),
            sched: SchedPolicy::default(),
            clock_s: 0.0,
            submit_seq: 0,
            dispatch_seq: 0,
            events: BinaryHeap::new(),
            parked: Vec::new(),
            free_slots: Vec::new(),
            fault: FaultInjector::new(FaultPlan::disabled()),
            incoming: Vec::new(),
            flows: Vec::new(),
        }
    }

    fn handle_for(&self, index: usize) -> ServiceHandle {
        ServiceHandle {
            engine: self.engine_id,
            index: index as u32,
        }
    }

    /// Registers a service region and returns its handle.
    ///
    /// # Errors
    ///
    /// [`MlcxError::InvalidConfig`] when the block range runs past the
    /// device; [`ServiceError::Overlap`] (as [`MlcxError::Service`]) when
    /// it collides with an existing region.
    pub fn register_service(
        &mut self,
        name: &str,
        objective: Objective,
        blocks: Range<usize>,
    ) -> Result<ServiceHandle, MlcxError> {
        self.register_service_with_qos(name, objective, blocks, QosSpec::default())
    }

    /// [`StorageEngine::register_service`] with an explicit QoS
    /// contract: a weighted-fair share, a relative deadline and a
    /// bounded submission-queue depth.
    ///
    /// # Errors
    ///
    /// As for [`StorageEngine::register_service`].
    pub fn register_service_with_qos(
        &mut self,
        name: &str,
        objective: Objective,
        blocks: Range<usize>,
        qos: QosSpec,
    ) -> Result<ServiceHandle, MlcxError> {
        let device_blocks = self.ctrl.config().geometry.blocks;
        if blocks.end > device_blocks {
            return Err(MlcxError::InvalidConfig {
                reason: format!(
                    "service {name} region {blocks:?} exceeds the {device_blocks}-block device"
                ),
            });
        }
        for existing in &self.services {
            if blocks.start < existing.region.blocks.end
                && existing.region.blocks.start < blocks.end
            {
                return Err(ServiceError::Overlap {
                    existing: existing.region.name.clone(),
                    incoming: name.to_string(),
                }
                .into());
            }
        }
        let handle = self.handle_for(self.services.len());
        let dies = self.ctrl.config().geometry.topology.total_dies();
        self.services.push(ServiceState {
            region: ServiceRegion {
                name: name.to_string(),
                objective,
                blocks,
            },
            qos,
            vtime_s: 0.0,
            queue: VecDeque::new(),
            op_slots: vec![None; dies],
        });
        Ok(handle)
    }

    /// Looks a service up by name.
    pub fn service(&self, name: &str) -> Option<ServiceHandle> {
        self.services
            .iter()
            .position(|s| s.region.name == name)
            .map(|i| self.handle_for(i))
    }

    /// The region a handle is bound to.
    ///
    /// # Errors
    ///
    /// [`MlcxError::UnknownHandle`] for foreign handles.
    pub fn region(&self, handle: ServiceHandle) -> Result<&ServiceRegion, MlcxError> {
        self.state(handle).map(|s| &s.region)
    }

    /// The wrapped controller (wear inspection etc.).
    pub fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// Mutable controller access (aging blocks in experiments).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.ctrl
    }

    /// The cross-layer model driving configuration decisions:
    /// [`SubsystemModel::for_controller`] of the engine's own
    /// controller configuration.
    pub fn model(&self) -> &SubsystemModel {
        &self.model
    }

    /// Advances the device wall clock — the retention time base every
    /// stored page ages against — by `hours`.
    ///
    /// When the retention mechanism is actually enabled this also
    /// invalidates every memoized operating point (the disturb epoch
    /// moves, so the next command per `(service, die)` re-derives): the
    /// `(service, die, wear-bucket)` memo key cannot see RBER that grew
    /// without a P/E cycle, and derivation *does* consume the current
    /// disturb state (the ECC schedule is solved for endurance plus the
    /// region's worst disturb RBER), so a point cached before the jump
    /// genuinely understates the error rate until it is re-derived.
    /// Read-disturb alone does not gate here — a wall-clock jump
    /// changes no per-read term. With a retention-free model
    /// (including the default
    /// [`DisturbModel::disabled`](mlcx_nand::disturb::DisturbModel::disabled))
    /// time has no RBER effect and the cache — and every counter
    /// downstream of it — is left untouched, keeping a clocked run
    /// bit-identical to an unclocked one.
    ///
    /// # Errors
    ///
    /// [`MlcxError::InvalidConfig`] on negative or non-finite `hours`
    /// (time flows forward, by a finite step); the clock and the memo
    /// are then untouched.
    pub fn advance_hours(&mut self, hours: f64) -> Result<(), MlcxError> {
        // The device refuses the same steps; the engine's contract names
        // them as a configuration error.
        if self.ctrl.device_mut().advance_time_hours(hours).is_err() {
            return Err(MlcxError::InvalidConfig {
                reason: format!("the clock advances {hours} hours"),
            });
        }
        if hours > 0.0 && self.ctrl.device().disturb_model().retention_enabled() {
            self.invalidate_operating_points();
        }
        Ok(())
    }

    /// Drops every memoized operating point by bumping the disturb
    /// epoch: the next command per `(service, die)` re-derives against
    /// the current state. This is the invalidation hook for
    /// disturb-driven RBER growth the wear-bucket key cannot express;
    /// [`StorageEngine::advance_hours`] calls it on retention jumps.
    fn invalidate_operating_points(&mut self) {
        self.disturb_epoch += 1;
    }

    /// Commands enqueued but not yet dispatched.
    fn pending(&self) -> usize {
        self.services.iter().map(|s| s.queue.len()).sum()
    }

    /// Accounting of the most recent dispatch (a
    /// [`CompletionQueue::drain`] or the first
    /// [`CompletionQueue::try_complete`] after new submissions).
    pub fn last_batch(&self) -> &BatchReport {
        &self.last_batch
    }

    /// The engine's virtual clock, absolute seconds. Advances as
    /// completion events are delivered.
    pub fn now_s(&self) -> f64 {
        self.clock_s
    }

    fn state(&self, handle: ServiceHandle) -> Result<&ServiceState, MlcxError> {
        if handle.engine != self.engine_id {
            return Err(MlcxError::UnknownHandle {
                handle: handle.index,
            });
        }
        self.services
            .get(handle.index as usize)
            .ok_or(MlcxError::UnknownHandle {
                handle: handle.index,
            })
    }

    /// Validates a command against the service directory and geometry.
    fn validate(&self, cmd: &Command) -> Result<(), MlcxError> {
        let state = self.state(cmd.service())?;
        let region = &state.region;
        let check_block = |block: usize| -> Result<(), MlcxError> {
            if !region.blocks.contains(&block) {
                return Err(ServiceError::OutOfRegion {
                    name: region.name.clone(),
                    block,
                }
                .into());
            }
            Ok(())
        };
        match cmd {
            Command::Read { block, .. }
            | Command::Erase { block, .. }
            | Command::ScrubErase { block, .. }
            | Command::Trim { block, .. } => check_block(*block),
            Command::Relocate { from, to, .. } => {
                check_block(from.0)?;
                check_block(to.0)
            }
            Command::Write { block, data, .. } => {
                check_block(*block)?;
                let expected = self.ctrl.config().geometry.page_bytes;
                if data.len() != expected {
                    return Err(MlcxError::PageSize {
                        expected,
                        actual: data.len(),
                    });
                }
                Ok(())
            }
            Command::Configure { .. } => Ok(()),
        }
    }

    /// The typed submission-queue view — the primary host surface for
    /// enqueueing work (see [`SubmissionQueue`]).
    pub fn sq(&mut self) -> SubmissionQueue<'_> {
        SubmissionQueue { engine: self }
    }

    /// The typed completion-queue view — the primary host surface for
    /// retrieving results (see [`CompletionQueue`]).
    pub fn cq(&mut self) -> CompletionQueue<'_> {
        CompletionQueue { engine: self }
    }

    /// Shared submission path: validate everything, enforce queue
    /// depths, then stamp arrivals and enqueue.
    fn submit_at_impl(
        &mut self,
        commands: Vec<Command>,
        at_s: f64,
    ) -> Result<Vec<CmdId>, MlcxError> {
        for cmd in &commands {
            self.validate(cmd)?;
        }
        // Backpressure, checked atomically with validation: nothing is
        // enqueued when any service's depth bound would be crossed.
        self.incoming.clear();
        self.incoming.resize(self.services.len(), 0);
        for cmd in &commands {
            self.incoming[cmd.service().index as usize] += 1;
        }
        for (state, &extra) in self.services.iter().zip(&self.incoming) {
            if extra > 0 && state.queue.len() + extra > state.qos.depth {
                return Err(MlcxError::QueueFull {
                    service: state.region.name.clone(),
                    depth: state.qos.depth,
                });
            }
        }
        let arrival_s = self.clock_s.max(at_s);
        let mut ids = Vec::with_capacity(commands.len());
        for cmd in commands {
            let id = CmdId(self.next_id);
            self.next_id += 1;
            let seq = self.submit_seq;
            self.submit_seq += 1;
            let idx = cmd.service().index as usize;
            self.services[idx].queue.push_back(QueuedCmd {
                id,
                cmd,
                arrival_s,
                seq,
            });
            ids.push(id);
        }
        Ok(ids)
    }

    /// The backlogged service the dispatch policy picks next, if any.
    fn next_dispatch(&self) -> Option<usize> {
        match self.sched {
            // Historical order: drain each service to completion before
            // the next (registration order) — always the lowest
            // backlogged index.
            SchedPolicy::ServiceMajor => self.services.iter().position(|s| !s.queue.is_empty()),
            // Global host submission order across services.
            SchedPolicy::FifoArrival => self
                .services
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.queue.front().map(|q| (q.seq, i)))
                .min()
                .map(|(_, i)| i),
            // Least accumulated device time per unit weight; ties to
            // the lowest index.
            SchedPolicy::WeightedFair => {
                let mut best: Option<(f64, usize)> = None;
                for (i, s) in self.services.iter().enumerate() {
                    if s.queue.is_empty() {
                        continue;
                    }
                    let key = s.vtime_s / s.qos.weight.max(f64::MIN_POSITIVE);
                    if best.is_none_or(|(k, _)| key < k) {
                        best = Some((key, i));
                    }
                }
                best.map(|(_, i)| i)
            }
            // Earliest absolute deadline of the head-of-queue command;
            // ties to submission order.
            SchedPolicy::Deadline => {
                let mut best: Option<(f64, u64, usize)> = None;
                for (i, s) in self.services.iter().enumerate() {
                    let Some(front) = s.queue.front() else {
                        continue;
                    };
                    let due = front.arrival_s + s.qos.deadline_s;
                    if best.is_none_or(|(d, seq, _)| (due, front.seq) < (d, seq)) {
                        best = Some((due, front.seq, i));
                    }
                }
                best.map(|(_, _, i)| i)
            }
        }
    }

    /// Dispatches every queued command through the controller datapath
    /// in [`SchedPolicy`] order, turning each into a completion event
    /// keyed by its merged channel/die issue window. Fills
    /// [`StorageEngine::last_batch`] (including the flow-latency
    /// percentiles) for the whole dispatch.
    fn dispatch_all(&mut self) {
        self.last_batch = BatchReport::default();
        self.ctrl.scheduler_mut().begin_batch();
        let batch_start_s = self.clock_s;
        // The completion frontier: a command that touches no device
        // resource (trim, configure, failed validation) completes here
        // — never earlier than anything dispatched before it.
        let mut frontier_s = batch_start_s;
        self.flows.clear();
        while let Some(idx) = self.next_dispatch() {
            // `next_dispatch` only returns backlogged services; an empty
            // queue here would be a scheduler bookkeeping bug. Stop
            // dispatching rather than panic mid-batch.
            let Some(queued) = self.services[idx].queue.pop_front() else {
                debug_assert!(false, "next_dispatch returned an empty service");
                break;
            };
            let service = self.handle_for(idx);
            self.ctrl.scheduler_mut().begin_command(queued.arrival_s);
            let result = self.execute_validated(idx, queued.cmd);
            self.last_batch.commands += 1;
            match &result {
                Ok(output) => self.last_batch.counters.record(output),
                Err(_) => self.last_batch.failed += 1,
            }
            let (start_s, end_s) = match self.ctrl.scheduler().command_window() {
                Some(w) => (w.start_s, w.end_s),
                None => (frontier_s, frontier_s),
            };
            frontier_s = frontier_s.max(end_s);
            self.services[idx].vtime_s += end_s - start_s;
            let completion = Completion {
                id: queued.id,
                service,
                result,
                arrival_s: queued.arrival_s,
                start_s,
                end_s,
            };
            let flow_s = completion.flow_s();
            self.flows.push(flow_s);
            if flow_s > self.services[idx].qos.deadline_s {
                self.last_batch.deadline_misses += 1;
            }
            let slot = match self.free_slots.pop() {
                Some(slot) => {
                    self.parked[slot] = Some(completion);
                    slot
                }
                None => {
                    self.parked.push(Some(completion));
                    self.parked.len() - 1
                }
            };
            self.events.push(EventKey {
                end_s,
                seq: self.dispatch_seq,
                slot,
            });
            self.dispatch_seq += 1;
        }
        // Close the dispatch's timing window: the channel scheduler has
        // overlapped the operations across channels/dies, and its
        // makespan is the modeled parallel latency.
        let scheduler = self.ctrl.scheduler();
        self.last_batch.parallel_latency_s = scheduler.batch_makespan_s();
        self.last_batch.channel_busy_s = scheduler.batch_channel_busy_s();
        self.last_batch.channels = scheduler.topology().channels;
        self.flows.sort_by(|a, b| a.total_cmp(b));
        self.last_batch.flow_p50_s = nearest_rank(&self.flows, 0.50);
        self.last_batch.flow_p99_s = nearest_rank(&self.flows, 0.99);
        self.last_batch.flow_p999_s = nearest_rank(&self.flows, 0.999);
    }

    /// Delivers the earliest pending completion event, dispatching
    /// queued submissions first if none are in flight. Advances the
    /// virtual clock to the event's end time. `None` when the engine is
    /// fully idle.
    fn try_complete_impl(&mut self) -> Option<Completion> {
        if self.events.is_empty() && self.pending() > 0 {
            self.dispatch_all();
        }
        let event = self.events.pop()?;
        self.clock_s = self.clock_s.max(event.end_s);
        self.free_slots.push(event.slot);
        let completion = self.parked[event.slot].take();
        debug_assert!(completion.is_some(), "an event's slot holds its completion");
        completion
    }

    /// Dispatches all queued work and delivers every pending event, in
    /// completion order.
    fn drain_impl(&mut self) -> Vec<Completion> {
        if self.pending() > 0 {
            self.dispatch_all();
        }
        let mut out = Vec::with_capacity(self.events.len());
        while let Some(c) = self.try_complete_impl() {
            out.push(c);
        }
        out
    }

    /// The worst additive disturb RBER across the slice of a service's
    /// region living on `die` — what point derivation adds on top of
    /// the endurance curve so freshly scheduled writes keep their UBER
    /// margin on disturbed neighbours. 0.0 (and O(1)) under a disabled
    /// model, so the historical derivations are untouched.
    fn region_disturb_rber(&self, idx: usize, die: usize) -> f64 {
        if !self.ctrl.device().disturb_model().is_enabled() {
            return 0.0;
        }
        let region = &self.services[idx].region.blocks;
        let die_blocks = self.ctrl.config().geometry.die_blocks(die);
        let lo = region.start.max(die_blocks.start);
        let hi = region.end.min(die_blocks.end);
        // Effective (offset-aware) figures: a block whose learned read
        // offset tracks its Vth shift exposes the recovered RBER to the
        // derivation, not the nominal-reference one. Identical to the
        // device's raw accessor with retry off or nothing learned.
        self.ctrl.effective_disturb_rber(lo..hi).unwrap_or(0.0)
    }

    /// The operating point a service runs on `die` at a wear level,
    /// memoized per `(service, die, wear bucket)` under the engine's
    /// [`WearBucketing`] policy. Derivation solves the ECC schedule for
    /// the endurance RBER *plus* the region-on-die's current worst
    /// disturb RBER ([`SubsystemModel::configure_with_extra_rber`]);
    /// the disturb epoch in the memo slot governs how stale that
    /// disturb snapshot may get before a re-derivation is forced.
    fn operating_point(&mut self, idx: usize, die: usize, wear: u64) -> OperatingPoint {
        let objective = self.services[idx].region.objective;
        let (key, derive_at) = self.bucketing.bucket(wear);
        if let Some((cached_key, epoch, op)) = self.services[idx].op_slots[die] {
            if cached_key == key && epoch == self.disturb_epoch {
                self.last_batch.op_cache_hits += 1;
                return op;
            }
        }
        self.last_batch.op_cache_misses += 1;
        let extra = self.region_disturb_rber(idx, die);
        let op = self
            .model
            .configure_with_extra_rber(objective, derive_at, extra);
        self.services[idx].op_slots[die] = Some((key, self.disturb_epoch, op));
        op
    }

    /// The wear a program of `block` derives its operating point at: its
    /// P/E count, at least 1.
    fn program_wear(&self, block: usize) -> Result<u64, CtrlError> {
        Ok(self.ctrl.device().block_cycles(block)?.max(1))
    }

    fn execute_validated(&mut self, idx: usize, cmd: Command) -> Result<CommandOutput, MlcxError> {
        match cmd {
            Command::Write {
                block, page, data, ..
            } => {
                let wear = self.program_wear(block)?;
                let die = self.ctrl.config().geometry.die_of_block(block);
                let op = self.operating_point(idx, die, wear);
                let before = self.ctrl.regs().commands_applied();
                self.ctrl.apply_point(op.algorithm, op.correction)?;
                self.last_batch.knob_writes += self.ctrl.regs().commands_applied() - before;
                if let Some(fraction) = self.fault.next_program() {
                    self.ctrl.device_mut().arm_partial_program(fraction);
                }
                let report = self.ctrl.write_page(block, page, data)?;
                self.last_batch.absorb(report.latency_s, report.energy_j);
                Ok(CommandOutput::Write(report))
            }
            Command::Read { block, page, .. } => {
                let report = self.ctrl.read_page(block, page)?;
                self.last_batch.absorb(report.latency_s, report.energy_j);
                self.last_batch.corrected_bits += report.outcome.corrected_bits() as u64;
                Ok(CommandOutput::Read(report))
            }
            Command::Erase { block, .. } => self.erase(block, false),
            Command::ScrubErase { block, .. } => self.erase(block, true),
            Command::Trim { block, page, .. } => {
                let was_mapped = self.ctrl.trim_page(block, page);
                Ok(CommandOutput::Trim { was_mapped })
            }
            Command::Configure { objective, .. } => {
                let previous = self.services[idx].region.objective;
                self.services[idx].region.objective = objective;
                // The cached points were derived under the old objective.
                for slot in &mut self.services[idx].op_slots {
                    *slot = None;
                }
                Ok(CommandOutput::Configure { previous })
            }
            Command::Relocate { from, to, .. } => {
                let read = self.ctrl.read_page(from.0, from.1)?;
                self.last_batch.absorb(read.latency_s, read.energy_j);
                self.last_batch.corrected_bits += read.outcome.corrected_bits() as u64;
                let wear = self.program_wear(to.0)?;
                let die = self.ctrl.config().geometry.die_of_block(to.0);
                let op = self.operating_point(idx, die, wear);
                let before = self.ctrl.regs().commands_applied();
                self.ctrl.apply_point(op.algorithm, op.correction)?;
                self.last_batch.knob_writes += self.ctrl.regs().commands_applied() - before;
                let write = self.ctrl.write_page(to.0, to.1, &read.data)?;
                self.last_batch.absorb(write.latency_s, write.energy_j);
                Ok(CommandOutput::Relocate {
                    read: Box::new(read),
                    write,
                })
            }
        }
    }

    fn erase(&mut self, block: usize, scrub: bool) -> Result<CommandOutput, MlcxError> {
        let report = self.ctrl.erase_block(block)?;
        self.last_batch.absorb(report.duration_s, report.energy_j);
        Ok(CommandOutput::Erase { report, scrub })
    }
}

impl fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StorageEngine")
            .field("services", &self.services.len())
            .field("pending", &self.pending())
            .field("bucketing", &self.bucketing)
            .field(
                "cached_points",
                &self
                    .services
                    .iter()
                    .map(|s| s.op_slots.iter().filter(|slot| slot.is_some()).count())
                    .sum::<usize>(),
            )
            .finish()
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
/// Zero for an empty slice.
pub(crate) fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1).min(n);
    sorted[rank - 1]
}

/// The typed host submission surface of a [`StorageEngine`].
///
/// Obtained from [`StorageEngine::sq`]; submissions validate atomically,
/// respect each service's bounded queue depth
/// ([`QosSpec::depth`](crate::event::QosSpec::depth) →
/// [`MlcxError::QueueFull`]) and stamp every command with its arrival
/// time on the engine's virtual clock.
#[derive(Debug)]
pub struct SubmissionQueue<'a> {
    engine: &'a mut StorageEngine,
}

impl SubmissionQueue<'_> {
    /// Enqueues a batch of commands, returning one ticket per command
    /// (in order). Arrivals are stamped at the engine's current virtual
    /// time ([`StorageEngine::now_s`]).
    ///
    /// Submission is atomic: every command is validated and every
    /// service's queue depth is checked first; a rejected command
    /// leaves no part of the batch enqueued.
    ///
    /// # Errors
    ///
    /// [`MlcxError::UnknownHandle`], [`MlcxError::Service`]
    /// (out-of-region targets) or [`MlcxError::PageSize`] from
    /// validation; [`MlcxError::QueueFull`] when a service's bounded
    /// depth would be crossed (drain completions and resubmit).
    pub fn submit(&mut self, commands: &[Command]) -> Result<Vec<CmdId>, MlcxError> {
        let at_s = self.engine.clock_s;
        self.engine.submit_at_impl(commands.to_vec(), at_s)
    }

    /// [`SubmissionQueue::submit`], taking ownership of the commands —
    /// write payloads are moved into the queue instead of cloned.
    ///
    /// # Errors
    ///
    /// As for [`SubmissionQueue::submit`]; on error the commands are
    /// dropped without being enqueued.
    pub fn submit_owned(&mut self, commands: Vec<Command>) -> Result<Vec<CmdId>, MlcxError> {
        let at_s = self.engine.clock_s;
        self.engine.submit_at_impl(commands, at_s)
    }

    /// [`SubmissionQueue::submit_owned`] with an explicit arrival time
    /// on the virtual clock. Arrivals never move backwards: `at_s`
    /// earlier than the engine's current virtual time is clamped to
    /// *now*. A future arrival floors the commands' issue windows — the
    /// channel scheduler will not start them earlier.
    ///
    /// # Errors
    ///
    /// As for [`SubmissionQueue::submit_owned`].
    pub fn submit_at(
        &mut self,
        commands: Vec<Command>,
        at_s: f64,
    ) -> Result<Vec<CmdId>, MlcxError> {
        self.engine.submit_at_impl(commands, at_s)
    }

    /// Commands currently queued across all services (excludes
    /// completions already in flight).
    pub fn depth(&self) -> usize {
        self.engine.pending()
    }
}

/// The typed host completion surface of a [`StorageEngine`].
///
/// Obtained from [`StorageEngine::cq`]; completions surface in
/// *completion-time* order on the virtual clock — out of order with
/// respect to submission whenever dies overlap — and each delivery
/// advances [`StorageEngine::now_s`] to the completion's end time.
#[derive(Debug)]
pub struct CompletionQueue<'a> {
    engine: &'a mut StorageEngine,
}

impl CompletionQueue<'_> {
    /// Delivers the earliest pending completion, dispatching queued
    /// submissions first if none are in flight. `None` when the engine
    /// is fully idle (nothing queued, nothing in flight).
    pub fn try_complete(&mut self) -> Option<Completion> {
        self.engine.try_complete_impl()
    }

    /// Dispatches all queued work and delivers every pending
    /// completion, in completion order.
    pub fn drain(&mut self) -> Vec<Completion> {
        self.engine.drain_impl()
    }

    /// Completion events already scheduled but not yet delivered.
    pub fn depth(&self) -> usize {
        self.engine.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcx_nand::ProgramAlgorithm;

    fn engine() -> StorageEngine {
        EngineBuilder::date2012().seed(77).build().unwrap()
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    /// Submits one command and drains its completion.
    fn run_one(e: &mut StorageEngine, cmd: Command) -> Result<CommandOutput, MlcxError> {
        e.sq().submit(&[cmd]).unwrap();
        e.cq().drain().remove(0).result
    }

    #[test]
    fn sq_cq_round_trip_with_accounting() {
        let mut e = engine();
        let media = e
            .register_service("media", Objective::MaxReadThroughput, 0..8)
            .unwrap();
        e.controller_mut().age_block(0, 1_000_000).unwrap();

        let mut cmds = vec![Command::erase(media, 0)];
        for p in 0..4 {
            cmds.push(Command::write(media, 0, p, page(p as u8)));
        }
        for p in 0..4 {
            cmds.push(Command::read(media, 0, p));
        }
        let ids = e.sq().submit(&cmds).unwrap();
        assert_eq!(ids.len(), 9);
        assert_eq!(e.pending(), 9);

        let completions = e.cq().drain();
        assert_eq!(e.pending(), 0);
        assert_eq!(completions.len(), 9);
        for (c, id) in completions.iter().zip(&ids) {
            assert_eq!(c.id, *id);
            assert!(c.result.is_ok(), "{:?}", c.result);
            // Event timestamps are coherent on the virtual clock.
            assert!(c.arrival_s <= c.start_s && c.start_s <= c.end_s);
            assert!(c.flow_s() >= 0.0);
        }
        // Single die: completion order is dispatch order, end times are
        // monotone, and the drain advanced the clock to the last end.
        assert!(completions.windows(2).all(|w| w[0].end_s <= w[1].end_s));
        assert!((e.now_s() - completions.last().unwrap().end_s).abs() < 1e-15);
        // Flow percentiles cover the batch.
        let b = e.last_batch();
        assert!(b.flow_p50_s > 0.0);
        assert!(b.flow_p50_s <= b.flow_p99_s && b.flow_p99_s <= b.flow_p999_s);
        assert_eq!(b.deadline_misses, 0);
        for (p, c) in completions[5..].iter().enumerate() {
            match c.result.as_ref().unwrap() {
                CommandOutput::Read(r) => {
                    assert!(r.outcome.is_success());
                    assert_eq!(r.data, page(p as u8));
                }
                other => panic!("expected read output, got {other:?}"),
            }
        }

        let batch = e.last_batch();
        assert_eq!((batch.commands, batch.failed), (9, 0));
        assert!(batch.device_latency_s > 0.0);
        assert!(batch.energy_j > 0.0);
        // EOL block: the DV schedule must have corrected raw errors.
        assert!(batch.corrected_bits > 0);
        // 4 same-wear writes: one derivation, three cache hits.
        assert_eq!(batch.op_cache_misses, 1);
        assert_eq!(batch.op_cache_hits, 3);
        // One algorithm write + one capability write, never repeated.
        assert_eq!(batch.knob_writes, 2);
    }

    #[test]
    fn default_dispatch_is_service_major_in_fifo_order() {
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        let b = e.register_service("b", Objective::Baseline, 2..4).unwrap();
        // Host order alternates services; execution groups per service,
        // FIFO within each.
        let ids = e
            .sq()
            .submit(&[
                Command::erase(a, 0),
                Command::erase(b, 2),
                Command::erase(a, 1),
                Command::erase(b, 3),
            ])
            .unwrap();
        let completions = e.cq().drain();
        let services: Vec<u32> = completions.iter().map(|c| c.service.index()).collect();
        assert_eq!(services, vec![a.index(), a.index(), b.index(), b.index()]);
        let order: Vec<CmdId> = completions.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![ids[0], ids[2], ids[1], ids[3]]);
    }

    #[test]
    fn submission_is_atomic_on_invalid_command() {
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        let err = e
            .sq()
            .submit(&[Command::erase(a, 0), Command::erase(a, 99)])
            .unwrap_err();
        assert!(matches!(
            err,
            MlcxError::Service(ServiceError::OutOfRegion { .. })
        ));
        assert_eq!(e.pending(), 0, "no partial batch may be enqueued");

        let err = e
            .sq()
            .submit(&[Command::write(a, 0, 0, vec![0u8; 100])])
            .unwrap_err();
        assert!(matches!(
            err,
            MlcxError::PageSize {
                expected: 4096,
                actual: 100
            }
        ));

        let foreign = ServiceHandle {
            engine: u32::MAX,
            index: 42,
        };
        let err = e.sq().submit(&[Command::erase(foreign, 0)]).unwrap_err();
        assert!(matches!(err, MlcxError::UnknownHandle { handle: 42 }));
    }

    #[test]
    fn per_command_failures_complete_instead_of_aborting() {
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        // Reading an unwritten page fails; the following erase succeeds.
        e.sq()
            .submit(&[Command::read(a, 0, 0), Command::erase(a, 0)])
            .unwrap();
        let completions = e.cq().drain();
        assert!(matches!(
            completions[0].result,
            Err(MlcxError::Ctrl(
                mlcx_controller::CtrlError::UnknownPageConfig { .. }
            ))
        ));
        assert!(completions[1].result.is_ok());
        assert_eq!((e.last_batch().commands, e.last_batch().failed), (2, 1));
    }

    #[test]
    fn overlapping_regions_rejected() {
        let mut e = engine();
        e.register_service("a", Objective::Baseline, 0..8).unwrap();
        let err = e
            .register_service("b", Objective::MinUber, 7..12)
            .unwrap_err();
        assert!(matches!(
            err,
            MlcxError::Service(ServiceError::Overlap { .. })
        ));
        // Adjacent is fine.
        e.register_service("c", Objective::MinUber, 8..12).unwrap();
        assert!(e.service("c").is_some());
        assert!(e.service("zzz").is_none());
    }

    #[test]
    fn trim_unmaps_and_configure_rebinds() {
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        e.sq()
            .submit(&[
                Command::erase(a, 0),
                Command::write(a, 0, 0, page(1)),
                Command::trim(a, 0, 0),
                Command::read(a, 0, 0),
                Command::trim(a, 0, 0),
                Command::configure(a, Objective::MinUber),
            ])
            .unwrap();
        let completions = e.cq().drain();
        assert_eq!(
            completions[2].result.as_ref().unwrap(),
            &CommandOutput::Trim { was_mapped: true }
        );
        assert!(
            completions[3].result.is_err(),
            "trimmed page must not read back"
        );
        assert_eq!(
            completions[4].result.as_ref().unwrap(),
            &CommandOutput::Trim { was_mapped: false }
        );
        assert_eq!(
            completions[5].result.as_ref().unwrap(),
            &CommandOutput::Configure {
                previous: Objective::Baseline
            }
        );
        assert_eq!(e.region(a).unwrap().objective, Objective::MinUber);
    }

    #[test]
    fn configure_invalidates_cached_points() {
        let mut e = engine();
        let a = e
            .register_service("a", Objective::MaxReadThroughput, 0..2)
            .unwrap();
        e.controller_mut().age_block(0, 1_000_000).unwrap();
        e.sq()
            .submit(&[Command::erase(a, 0), Command::write(a, 0, 0, page(0))])
            .unwrap();
        e.cq().drain();
        let relaxed = match run_one(&mut e, Command::read(a, 0, 0)).unwrap() {
            CommandOutput::Read(r) => r.t_used,
            _ => unreachable!(),
        };
        assert_eq!(relaxed, 14, "DV schedule at end of life");

        // Re-bind to min-UBER: new writes must pick up the SV schedule's
        // capability (65 at end of life) instead of the cached t = 14.
        e.sq()
            .submit(&[
                Command::configure(a, Objective::MinUber),
                Command::erase(a, 0),
                Command::write(a, 0, 0, page(0)),
            ])
            .unwrap();
        let completions = e.cq().drain();
        match completions[2].result.as_ref().unwrap() {
            CommandOutput::Write(w) => {
                assert_eq!(w.algorithm, ProgramAlgorithm::IsppDv);
                assert_eq!(w.t_used, 65);
            }
            other => panic!("expected write output, got {other:?}"),
        }
    }

    #[test]
    fn single_die_parallel_latency_equals_the_serial_sum() {
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..4).unwrap();
        let mut cmds = vec![Command::erase(a, 0)];
        for p in 0..4 {
            cmds.push(Command::write(a, 0, p, page(p as u8)));
        }
        for p in 0..4 {
            cmds.push(Command::read(a, 0, p));
        }
        e.sq().submit(&cmds).unwrap();
        e.cq().drain();
        let batch = *e.last_batch();
        assert_eq!(batch.channels, 1);
        assert_eq!(
            batch.parallel_latency_s.to_bits(),
            batch.device_latency_s.to_bits(),
            "1x1 topology cannot overlap: {} vs {}",
            batch.parallel_latency_s,
            batch.device_latency_s
        );
        assert!((batch.achieved_parallelism() - 1.0).abs() < 1e-9);
        assert!(batch.channel_utilization() > 0.0);
    }

    #[test]
    fn multi_channel_batches_overlap_and_memoize_per_die() {
        let mut config = mlcx_controller::ControllerConfig::date2012();
        config.geometry.topology = mlcx_nand::Topology::new(4, 1); // 16 blocks/die
        let mut e = EngineBuilder::date2012()
            .controller_config(config)
            .seed(9)
            .build()
            .unwrap();
        let svc = e
            .register_service("wide", Objective::Baseline, 0..64)
            .unwrap();
        // Skew one die to end of life: its writes need their own point.
        e.controller_mut().age_die(2, 1_000_000).unwrap();
        let mut cmds = Vec::new();
        for die in 0..4 {
            let block = die * 16;
            cmds.push(Command::erase(svc, block));
            for p in 0..4 {
                cmds.push(Command::write(svc, block, p, page(p as u8)));
            }
        }
        e.sq().submit(&cmds).unwrap();
        let completions = e.cq().drain();
        assert!(completions.iter().all(|c| c.result.is_ok()));
        let batch = *e.last_batch();
        assert_eq!(batch.channels, 4);
        assert!(
            batch.parallel_latency_s < 0.5 * batch.device_latency_s,
            "four channels must overlap: makespan {} vs serial {}",
            batch.parallel_latency_s,
            batch.device_latency_s
        );
        assert!(batch.achieved_parallelism() > 2.0);
        let u = batch.channel_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization = {u}");
        // The memo is keyed (service, die, wear-bucket): one derivation
        // per die (die 2's EOL point differs), hits for the rest.
        assert_eq!(batch.op_cache_misses, 4);
        assert_eq!(batch.op_cache_hits, 12);
    }

    #[test]
    fn relocate_and_scrub_erase_round_trip_with_accounting() {
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..4).unwrap();
        e.controller_mut().age_block(0, 1_000_000).unwrap();
        e.controller_mut().age_block(1, 1_000_000).unwrap();
        e.sq()
            .submit(&[
                Command::erase(a, 0),
                Command::erase(a, 1),
                Command::write(a, 0, 0, page(0x5A)),
            ])
            .unwrap();
        e.cq().drain();
        assert_eq!(e.last_batch().counters.scrub_relocations, 0);
        assert_eq!(e.last_batch().counters.scrub_erases, 0);
        assert_eq!(e.last_batch().counters.scrub_latency_s, 0.0);

        // Relocate the EOL page to block 1, then scrub-erase block 0.
        e.sq()
            .submit(&[
                Command::relocate(a, (0, 0), (1, 0)),
                Command::scrub_erase(a, 0),
            ])
            .unwrap();
        let completions = e.cq().drain();
        let Ok(CommandOutput::Relocate { read, write }) = &completions[0].result else {
            panic!("expected relocate output, got {:?}", completions[0].result);
        };
        assert!(read.outcome.is_success());
        assert!(
            read.outcome.corrected_bits() > 0,
            "EOL source must need correction"
        );
        assert!(completions[0].result.as_ref().unwrap().energy_j() > 0.0);
        assert!(matches!(
            completions[1].result.as_ref().unwrap(),
            CommandOutput::Erase { scrub: true, .. }
        ));
        let batch = *e.last_batch();
        assert_eq!(batch.counters.scrub_relocations, 1);
        assert_eq!(batch.counters.scrub_erases, 1);
        assert!(batch.counters.scrub_latency_s > 0.0);
        assert!(
            (batch.counters.scrub_latency_s - batch.device_latency_s).abs() < 1e-12,
            "an all-maintenance batch is pure scrub time"
        );
        // The scrub erase reset the disturb accumulator end-to-end.
        assert_eq!(
            e.controller().device().block_reads_since_erase(0).unwrap(),
            0
        );
        // The relocated data reads back from the destination, and the
        // completion carried the data and capability that landed there.
        match run_one(&mut e, Command::read(a, 1, 0)).unwrap() {
            CommandOutput::Read(r) => {
                assert!(r.outcome.is_success());
                assert_eq!(r.data, page(0x5A));
                assert_eq!(read.data, r.data);
                assert_eq!(write.t_used, r.t_used);
            }
            other => panic!("expected read output, got {other:?}"),
        }
        // The old slot's metadata is gone.
        assert!(run_one(&mut e, Command::read(a, 0, 0)).is_err());
    }

    #[test]
    fn advance_hours_rejects_a_step_that_is_negative_or_not_finite() {
        use mlcx_nand::disturb::DisturbModel;
        let mut e = EngineBuilder::date2012()
            .seed(77)
            .controller_config(ControllerConfig {
                disturb: DisturbModel::date2012(),
                ..ControllerConfig::date2012()
            })
            .build()
            .unwrap();
        e.advance_hours(5.0).unwrap();
        for hours in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(e.advance_hours(hours), Err(MlcxError::InvalidConfig { .. })),
                "{hours}"
            );
            // Neither the clock nor the memo epoch moved.
            assert_eq!(e.controller().device().now_hours(), 5.0, "{hours}");
            assert_eq!(e.disturb_epoch, 1, "{hours}");
        }
        assert_eq!(e.advance_hours(0.0), Ok(()));
        assert_eq!(e.controller().device().now_hours(), 5.0);
    }

    #[test]
    fn advance_hours_invalidates_points_only_under_an_enabled_disturb_model() {
        use mlcx_nand::disturb::DisturbModel;
        // Disabled model: the clock moves, the memo does not.
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        e.sq()
            .submit(&[Command::erase(a, 0), Command::write(a, 0, 0, page(1))])
            .unwrap();
        e.cq().drain();
        assert_eq!(e.last_batch().op_cache_misses, 1);
        e.advance_hours(10_000.0).unwrap();
        assert!((e.controller().device().now_hours() - 10_000.0).abs() < 1e-9);
        e.sq().submit(&[Command::write(a, 0, 1, page(2))]).unwrap();
        e.cq().drain();
        assert_eq!(
            (e.last_batch().op_cache_hits, e.last_batch().op_cache_misses),
            (1, 0),
            "a disabled model must keep cached points valid across time"
        );

        // Enabled model: the same jump re-derives.
        let mut e = EngineBuilder::date2012()
            .seed(77)
            .controller_config(ControllerConfig {
                disturb: DisturbModel::date2012(),
                ..ControllerConfig::date2012()
            })
            .build()
            .unwrap();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        e.sq()
            .submit(&[Command::erase(a, 0), Command::write(a, 0, 0, page(1))])
            .unwrap();
        e.cq().drain();
        e.advance_hours(10_000.0).unwrap();
        e.sq().submit(&[Command::write(a, 0, 1, page(2))]).unwrap();
        e.cq().drain();
        assert_eq!(
            (e.last_batch().op_cache_hits, e.last_batch().op_cache_misses),
            (0, 1),
            "a retention jump must invalidate the memo"
        );
        // The explicit hook works too (scrub orchestrators call it
        // after read-disturb accumulation).
        e.invalidate_operating_points();
        e.sq().submit(&[Command::write(a, 0, 2, page(3))]).unwrap();
        e.cq().drain();
        assert_eq!(e.last_batch().op_cache_misses, 1);
    }

    #[test]
    fn derivation_solves_the_schedule_for_disturbed_rber() {
        use mlcx_nand::disturb::DisturbModel;
        // A wear-independent retention model at mid life: after the
        // clock jump, the invalidated memo must re-derive a *stronger*
        // capability — the schedule is solved for endurance + disturb,
        // not endurance alone.
        let mut e = EngineBuilder::date2012()
            .seed(5)
            .controller_config(ControllerConfig {
                disturb: DisturbModel {
                    retention_scale: 1e-4,
                    retention_wear_exponent: 0.0,
                    ..DisturbModel::disabled()
                },
                ..ControllerConfig::date2012()
            })
            .build()
            .unwrap();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        e.controller_mut().age_block(0, 100_000).unwrap();
        e.sq()
            .submit(&[Command::erase(a, 0), Command::write(a, 0, 0, page(1))])
            .unwrap();
        let t_before = match e.cq().drain()[1].result.as_ref().unwrap() {
            CommandOutput::Write(w) => w.t_used,
            other => panic!("expected write, got {other:?}"),
        };
        e.advance_hours(10_000.0).unwrap();
        e.sq().submit(&[Command::write(a, 0, 1, page(2))]).unwrap();
        let t_after = match e.cq().drain()[0].result.as_ref().unwrap() {
            CommandOutput::Write(w) => w.t_used,
            other => panic!("expected write, got {other:?}"),
        };
        assert!(
            t_after > t_before,
            "the disturbed schedule must strengthen: t {t_before} -> {t_after}"
        );
        // The model-side arithmetic agrees: extra rber of the aged
        // block raises the required capability at the same wear.
        let model = e.model();
        let extra = e.controller().device().block_disturb_rber(0, 0).unwrap();
        assert!(extra > 0.0);
        let plain = model.configure(Objective::Baseline, 100_001);
        let disturbed = model.configure_with_extra_rber(Objective::Baseline, 100_001, extra);
        assert!(disturbed.correction > plain.correction);
        assert_eq!(disturbed.algorithm, plain.algorithm);
    }

    #[test]
    fn retry_policy_rides_the_builder_and_counts_in_the_batch() {
        use mlcx_controller::RetryPolicy;
        use mlcx_nand::disturb::DisturbModel;
        let e = engine();
        assert!(!e.controller().config().retry.is_enabled());

        // The controller unit tests pin the ladder mechanics; here the
        // batch layer: a parked page whose first sense fails must
        // surface retry counters in the BatchReport, and the recovered
        // read must complete successfully.
        let mut e = EngineBuilder::date2012()
            .controller_config(ControllerConfig {
                disturb: DisturbModel {
                    retention_scale: 2e-3,
                    rber_per_step: 1e-3,
                    ..DisturbModel::disabled()
                },
                retry: RetryPolicy::date2012(),
                ..ControllerConfig::date2012()
            })
            .seed(9)
            .build()
            .unwrap();
        assert!(e.controller().config().retry.is_enabled());
        let svc = e.register_service("kv", Objective::Baseline, 0..4).unwrap();
        let data = vec![0x3Cu8; 4096];
        // Age first: the retention wear term keys off the wear *at
        // program time*.
        e.controller_mut().age_block(0, 100_000).unwrap();
        e.sq()
            .submit(&[
                Command::erase(svc, 0),
                Command::write(svc, 0, 0, data.clone()),
            ])
            .unwrap();
        assert!(e.cq().drain().iter().all(|c| c.result.is_ok()));
        e.advance_hours(20_000.0).unwrap();

        e.sq().submit(&[Command::read(svc, 0, 0)]).unwrap();
        let done = e.cq().drain();
        let Ok(CommandOutput::Read(r)) = &done[0].result else {
            panic!("read must complete");
        };
        assert!(r.outcome.is_success() && r.data == data);
        assert!(r.senses > 1);
        let batch = e.last_batch();
        assert_eq!(batch.counters.retry_reads, 1);
        assert_eq!(batch.counters.retry_senses, u64::from(r.senses - 1));
        assert_eq!(batch.counters.retry_exhausted, 0);
        assert!(batch.counters.retry_latency_s > 0.0);
        assert!(r.latency_s >= batch.counters.retry_latency_s);

        // The learned offset flows into derivation: the effective
        // region disturb RBER is now the recovered figure, so a point
        // derived after the retry sees less extra RBER than nominal.
        let learned = e.controller().read_offsets().get(0);
        assert_ne!(learned, 0);
        let eff = e.controller().effective_disturb_rber(0..1).unwrap();
        let nominal = e.controller().device().block_disturb_rber(0, 0).unwrap();
        assert!(eff < nominal, "eff {eff:e} vs nominal {nominal:e}");

        // Steady state: same-seed single-sense read, no new counters.
        e.sq().submit(&[Command::read(svc, 0, 0)]).unwrap();
        assert!(e.cq().drain().iter().all(|c| c.result.is_ok()));
        let batch = e.last_batch();
        assert_eq!(
            (batch.counters.retry_reads, batch.counters.retry_senses),
            (0, 0)
        );
        assert_eq!(batch.counters.retry_latency_s, 0.0);
    }

    #[test]
    fn log2_bucketing_is_conservative_and_coarse() {
        let mut exact = StorageEngine::with_bucketing(
            MemoryController::new(ControllerConfig::date2012(), 1).unwrap(),
            WearBucketing::Exact,
        );
        let mut log2 = StorageEngine::with_bucketing(
            MemoryController::new(ControllerConfig::date2012(), 1).unwrap(),
            WearBucketing::Log2,
        );
        let he = exact
            .register_service("s", Objective::Baseline, 0..64)
            .unwrap();
        let hl = log2
            .register_service("s", Objective::Baseline, 0..64)
            .unwrap();
        for (engine, h) in [(&mut exact, he), (&mut log2, hl)] {
            // All three wear levels (plus the erase's own cycle) land in
            // the 512..=1023 power-of-two bucket.
            for (b, wear) in [(0usize, 600u64), (1, 700), (2, 800)] {
                engine.controller_mut().age_block(b, wear).unwrap();
                engine
                    .sq()
                    .submit(&[Command::erase(h, b), Command::write(h, b, 0, page(7))])
                    .unwrap();
            }
        }
        let ce: Vec<_> = exact.cq().drain();
        let cl: Vec<_> = log2.cq().drain();
        let t_of = |c: &Completion| match c.result.as_ref().unwrap() {
            CommandOutput::Write(w) => w.t_used,
            _ => panic!("expected write"),
        };
        for (a, b) in ce.iter().zip(&cl) {
            if matches!(a.result.as_ref().unwrap(), CommandOutput::Write(_)) {
                assert!(
                    t_of(b) >= t_of(a),
                    "log2 bucket must never weaken the capability"
                );
            }
        }
        // Three nearby wear levels: exact memoizes three points, log2
        // collapses them into one bucket.
        assert_eq!(exact.last_batch().op_cache_misses, 3);
        assert_eq!(log2.last_batch().op_cache_misses, 1);
        assert_eq!(log2.last_batch().op_cache_hits, 2);
    }

    #[test]
    fn bounded_depth_pushes_back_atomically() {
        let mut e = engine();
        let a = e
            .register_service_with_qos(
                "a",
                Objective::Baseline,
                0..2,
                QosSpec {
                    depth: 3,
                    ..QosSpec::default()
                },
            )
            .unwrap();
        e.sq()
            .submit(&[Command::erase(a, 0), Command::erase(a, 1)])
            .unwrap();
        // Two queued + two incoming crosses the depth-3 bound: the whole
        // batch bounces and nothing extra is enqueued.
        let err = e
            .sq()
            .submit(&[Command::erase(a, 0), Command::erase(a, 1)])
            .unwrap_err();
        assert!(
            matches!(err, MlcxError::QueueFull { ref service, depth: 3 } if service == "a"),
            "{err:?}"
        );
        assert_eq!(e.pending(), 2);
        // One more still fits exactly.
        e.sq().submit(&[Command::erase(a, 0)]).unwrap();
        assert_eq!(e.pending(), 3);
        // Draining frees the depth again.
        assert_eq!(e.cq().drain().len(), 3);
        e.sq()
            .submit(&[
                Command::erase(a, 0),
                Command::erase(a, 1),
                Command::erase(a, 0),
            ])
            .unwrap();
        assert_eq!(e.cq().drain().len(), 3);
    }

    #[test]
    fn try_complete_delivers_events_one_at_a_time() {
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        e.sq()
            .submit(&[Command::erase(a, 0), Command::write(a, 0, 0, page(1))])
            .unwrap();
        let first = e.cq().try_complete().expect("first event");
        assert_eq!(e.cq().depth(), 1);
        // The clock sits at the delivered event's end time.
        assert!((e.now_s() - first.end_s).abs() < 1e-15);
        let second = e.cq().try_complete().expect("second event");
        assert!(second.end_s >= first.end_s);
        assert!(e.cq().try_complete().is_none(), "engine is idle");
        // A later submission arrives at (and completes after) the
        // advanced clock.
        e.sq().submit(&[Command::read(a, 0, 0)]).unwrap();
        let third = e.cq().try_complete().unwrap();
        assert!((third.arrival_s - second.end_s).abs() < 1e-15);
        assert!(third.end_s > second.end_s);
    }

    #[test]
    fn submit_at_floors_the_issue_window() {
        let mut e = engine();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        e.sq().submit(&[Command::erase(a, 0)]).unwrap();
        e.cq().drain();
        let now = e.now_s();
        // A future arrival delays the start; a past one clamps to now.
        let future = now + 1.0;
        e.sq()
            .submit_at(vec![Command::write(a, 0, 0, page(1))], future)
            .unwrap();
        e.sq()
            .submit_at(vec![Command::write(a, 0, 1, page(2))], 0.0)
            .unwrap();
        let done = e.cq().drain();
        // The past-arrival command was dispatched second but could
        // start at the device frontier; the future-arrival one waited.
        let by_id: Vec<&Completion> = done.iter().collect();
        let fut = by_id.iter().find(|c| c.arrival_s == future).unwrap();
        let past = by_id.iter().find(|c| c.arrival_s == now).unwrap();
        assert!(fut.start_s >= future);
        assert!(past.arrival_s == now, "past arrival clamps to the clock");
    }

    #[test]
    fn fifo_arrival_interleaves_across_services() {
        let mut e = EngineBuilder::date2012()
            .seed(77)
            .sched_policy(SchedPolicy::FifoArrival)
            .build()
            .unwrap();
        let a = e.register_service("a", Objective::Baseline, 0..2).unwrap();
        let b = e.register_service("b", Objective::Baseline, 2..4).unwrap();
        let ids = e
            .sq()
            .submit(&[
                Command::erase(a, 0),
                Command::erase(b, 2),
                Command::erase(a, 1),
                Command::erase(b, 3),
            ])
            .unwrap();
        let order: Vec<CmdId> = e.cq().drain().iter().map(|c| c.id).collect();
        assert_eq!(order, ids, "FIFO keeps host submission order");
    }

    #[test]
    fn weighted_fair_favors_the_heavy_service() {
        let mut e = EngineBuilder::date2012()
            .seed(77)
            .sched_policy(SchedPolicy::WeightedFair)
            .build()
            .unwrap();
        let light = e
            .register_service_with_qos(
                "light",
                Objective::Baseline,
                0..2,
                QosSpec {
                    weight: 1.0,
                    ..QosSpec::default()
                },
            )
            .unwrap();
        let heavy = e
            .register_service_with_qos(
                "heavy",
                Objective::Baseline,
                2..4,
                QosSpec {
                    weight: 4.0,
                    ..QosSpec::default()
                },
            )
            .unwrap();
        // Submit light's work first: under service-major it would all
        // run before heavy's. Weighted-fair must interleave, giving
        // heavy ~4 dispatches per light one after the opening round.
        let mut cmds = Vec::new();
        for _ in 0..4 {
            cmds.push(Command::erase(light, 0));
        }
        for _ in 0..8 {
            cmds.push(Command::erase(heavy, 2));
        }
        e.sq().submit(&cmds).unwrap();
        let order: Vec<u32> = e.cq().drain().iter().map(|c| c.service.index()).collect();
        // Not service-major: heavy work must appear before light's last.
        let first_heavy = order.iter().position(|&s| s == heavy.index()).unwrap();
        let last_light = order.iter().rposition(|&s| s == light.index()).unwrap();
        assert!(
            first_heavy < last_light,
            "weighted-fair must interleave: {order:?}"
        );
        // In the first 5 dispatches, heavy (weight 4) gets the majority.
        let heavy_early = order[..5].iter().filter(|&&s| s == heavy.index()).count();
        assert!(heavy_early >= 3, "heavy must dominate early: {order:?}");
    }

    #[test]
    fn deadline_dispatch_runs_the_most_urgent_first() {
        let mut e = EngineBuilder::date2012()
            .seed(77)
            .sched_policy(SchedPolicy::Deadline)
            .build()
            .unwrap();
        let lax = e
            .register_service_with_qos(
                "lax",
                Objective::Baseline,
                0..2,
                QosSpec {
                    deadline_s: 10.0,
                    ..QosSpec::default()
                },
            )
            .unwrap();
        let urgent = e
            .register_service_with_qos(
                "urgent",
                Objective::Baseline,
                2..4,
                QosSpec {
                    deadline_s: 1e-4,
                    ..QosSpec::default()
                },
            )
            .unwrap();
        // Same arrivals: the tighter relative deadline must win even
        // though lax was submitted first.
        e.sq()
            .submit(&[
                Command::erase(lax, 0),
                Command::erase(lax, 1),
                Command::erase(urgent, 2),
                Command::erase(urgent, 3),
            ])
            .unwrap();
        let order: Vec<u32> = e.cq().drain().iter().map(|c| c.service.index()).collect();
        assert_eq!(
            order,
            vec![urgent.index(), urgent.index(), lax.index(), lax.index()]
        );
        // Erases take ~ms; a 100 us deadline is missed, the 10 s one is
        // not — and the misses are counted.
        assert_eq!(e.last_batch().deadline_misses, 2);
    }

    #[test]
    fn fault_plan_interrupts_host_programs_and_surfaces_in_batch_counters() {
        let build = |rate: f64| {
            EngineBuilder::date2012()
                .seed(77)
                .controller_config(ControllerConfig {
                    disturb: mlcx_nand::disturb::DisturbModel::date2012(),
                    ..ControllerConfig::date2012()
                })
                .fault_plan(FaultPlan {
                    partial_program_rate: rate,
                    partial_program_fraction: 0.5,
                    seed: 11,
                })
                .build()
                .unwrap()
        };
        let run = |e: &mut StorageEngine| -> (BatchReport, BatchReport) {
            let svc = e
                .register_service("svc", Objective::Baseline, 0..8)
                .unwrap();
            let mut cmds = vec![Command::erase(svc, 0)];
            for p in 0..4 {
                cmds.push(Command::write(svc, 0, p, page(p as u8)));
            }
            e.sq().submit(&cmds).unwrap();
            e.cq().drain();
            let writes = *e.last_batch();
            let reads: Vec<Command> = (0..4).map(|p| Command::read(svc, 0, p)).collect();
            e.sq().submit(&reads).unwrap();
            e.cq().drain();
            (writes, *e.last_batch())
        };

        // Disabled plan: zero injections — but the neighbor-coupling
        // counter still sees the date2012 interference model (each
        // in-order program couples one event onto its lower neighbor,
        // so the last-written page alone reads interference-free).
        let mut quiet = build(0.0);
        let (w, r) = run(&mut quiet);
        assert_eq!(w.counters.injected_partial_programs, 0);
        assert_eq!(r.counters.interference_reads, 3);

        // Unit-rate plan: every host program is interrupted halfway, so
        // every page reads back with a partial-program RBER term.
        let mut noisy = build(1.0);
        let (w, r) = run(&mut noisy);
        assert_eq!(w.counters.injected_partial_programs, 4);
        assert_eq!(r.counters.interference_reads, 4);

        // The schedule is a pure function of the plan's seed.
        let mut again = build(1.0);
        let reports = run(&mut again);
        assert_eq!(reports, (w, r));
    }
}
