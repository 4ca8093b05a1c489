//! Multi-service scenarios, the workload runner and the report types.

use std::ops::Range;

use mlcx_controller::CtrlError;
use mlcx_controller::ScrubPolicy;
use mlcx_controller::{FtlOp, FtlStats, LogicalMap};
use mlcx_nand::NandError;

use crate::counters::Counters;
use crate::engine::{
    nearest_rank, Command, CommandOutput, EngineBuilder, ServiceHandle, StorageEngine,
};
use crate::error::MlcxError;
use crate::event::QosSpec;
use crate::policy::Objective;
use crate::report::{fixed2, sci, Table};
use crate::sim::trace::{TraceGenerator, TraceKind, TraceOp};

/// One service of a scenario: a named block region bound to a
/// cross-layer objective, exercised by one trace pattern.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServiceSpec {
    /// Service name ("log", "archive", ...).
    pub name: String,
    /// The cross-layer objective the region is bound to.
    pub objective: Objective,
    /// The block range the service owns (at least two blocks; one is
    /// FTL garbage-collection headroom).
    pub blocks: Range<usize>,
    /// The access pattern driving the service.
    pub trace: TraceKind,
    /// The service's QoS contract (weight/deadline/queue depth) under
    /// the engine's dispatch policy.
    pub qos: QosSpec,
}

/// One phase of a scenario: a slice of trace traffic followed by an
/// optional lifetime fast-forward.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name ("fresh", "mid-life", ...).
    pub name: String,
    /// Trace operations issued *per service* during the phase.
    pub ops_per_service: usize,
    /// P/E cycles added to **every** block after the phase's traffic
    /// (see `MemoryController::age_all`); 0 skips the fast-forward.
    pub fast_forward_cycles: u64,
    /// Additional per-die fast-forwards `(die, cycles)` applied after
    /// the uniform one — the die-skew knob (dies age independently; a
    /// die that hosted a hot tenant, or a weak die binned low at test).
    pub die_skew: Vec<(usize, u64)>,
    /// Hours added to the device wall clock after the phase's traffic
    /// (see `StorageEngine::advance_hours`) — the retention time base.
    /// 0 skips the jump; with the default disabled disturb model the
    /// jump has no observable effect at all.
    pub elapsed_hours: f64,
}

/// Latency percentiles over one population of device operations.
///
/// Percentiles use the nearest-rank method on the sorted samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples, seconds.
    pub total_s: f64,
    /// Median, seconds.
    pub p50_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
    /// 99.9th percentile, seconds — the tail the QoS scheduler trades
    /// between tenants.
    pub p999_s: f64,
    /// Worst observed sample, seconds.
    pub max_s: f64,
}

impl LatencyStats {
    fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        LatencyStats {
            count: samples.len(),
            total_s: samples.iter().sum(),
            p50_s: nearest_rank(&samples, 0.50),
            p95_s: nearest_rank(&samples, 0.95),
            p99_s: nearest_rank(&samples, 0.99),
            p999_s: nearest_rank(&samples, 0.999),
            max_s: samples[samples.len() - 1],
        }
    }
}

/// Per-service accounting of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePhaseReport {
    /// Service name.
    pub service: String,
    /// The trace pattern that drove the service.
    pub trace: TraceKind,
    /// Host reads issued (mapped pages only).
    pub reads: usize,
    /// Host writes completed.
    pub writes: usize,
    /// Trace reads of never-written pages (skipped, not issued).
    pub cold_reads: usize,
    /// Reads whose ECC decode did not succeed (or that errored).
    pub read_failures: usize,
    /// Successful reads whose payload did not match the expected
    /// deterministic pattern.
    pub integrity_violations: u64,
    /// Host read latency percentiles.
    pub read_latency: LatencyStats,
    /// Host write latency percentiles.
    pub write_latency: LatencyStats,
    /// Host flow-time percentiles (completion minus arrival on the
    /// engine's virtual clock, over every host command of the service):
    /// queueing delay *plus* device time — the latency a tenant
    /// actually observes, and the one the dispatch policy
    /// redistributes.
    pub flow_latency: LatencyStats,
    /// Modeled energy over all the service's operations (incl. GC),
    /// joules.
    pub energy_j: f64,
    /// Raw bit errors the ECC corrected for this service this phase.
    pub corrected_bits: u64,
    /// Measured raw bit error rate: corrected bits over codeword bits
    /// read (0 with no reads).
    pub measured_rber: f64,
    /// The model's RBER for the service's program algorithm at the
    /// phase-end wear.
    pub model_rber: f64,
    /// The model's `log10(UBER)` at the service's operating point at
    /// the phase-end wear.
    pub model_log10_uber: f64,
    /// Worst additive disturb RBER (read disturb + retention) across
    /// the service's blocks at phase end — 0 under the default disabled
    /// disturb model; what a scrubber exists to pull back down.
    pub model_disturb_rber: f64,
    /// The model's `log10(UBER)` at the operating point with the
    /// worst-block disturb RBER added on top of the endurance RBER —
    /// equals [`ServicePhaseReport::model_log10_uber`] when disturb is
    /// disabled or fully scrubbed away.
    pub model_log10_uber_disturbed: f64,
    /// Scrub, read-retry, interference and fault-injection counters of
    /// this service's commands (host, GC and scrub) this phase.
    pub counters: Counters,
    /// Worst program-interference RBER across the service's blocks at
    /// phase end — the pressure the scrub candidate scan sees; 0 under
    /// the default disabled interference model.
    pub model_interference_rber: f64,
    /// Highest P/E cycle count across the service's blocks at phase
    /// end (before the phase's fast-forward).
    pub max_wear: u64,
    /// FTL counter deltas for the phase (write amplification is
    /// [`FtlStats::write_amplification`] of this delta).
    pub ftl: FtlStats,
}

/// Aggregate accounting of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase name (the [`PhaseSpec`] it ran, or `prefill`/`verify`).
    pub name: String,
    /// Per-service breakdowns.
    pub services: Vec<ServicePhaseReport>,
    /// Engine commands executed.
    pub commands: usize,
    /// Total modeled device time, seconds (serial sum).
    pub device_time_s: f64,
    /// Total modeled batch time with channel/die overlap (the sum of
    /// the phase's batch makespans; equals
    /// [`PhaseReport::device_time_s`] on a 1-channel/1-die topology).
    pub parallel_time_s: f64,
    /// Total bus busy time across every channel, seconds.
    pub channel_busy_s: f64,
    /// Total modeled energy, joules.
    pub energy_j: f64,
    /// Operating points served from the engine's memo cache.
    pub op_cache_hits: u64,
    /// Operating points derived from the model.
    pub op_cache_misses: u64,
    /// Configuration register writes actually issued.
    pub knob_writes: u64,
    /// The [`Counters::absorb`] fold of every service's counters.
    pub counters: Counters,
}

/// The full record of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Every executed phase, in order: the optional `prefill`, the
    /// configured phases, then the closing `verify` sweep.
    pub phases: Vec<PhaseReport>,
    /// Engine commands executed across all phases.
    pub total_commands: usize,
    /// Total modeled device time, seconds (serial sum).
    pub total_device_time_s: f64,
    /// Total modeled batch time with channel/die overlap, seconds.
    pub total_parallel_time_s: f64,
    /// Total modeled energy, joules.
    pub total_energy_j: f64,
    /// Operating points derived from the model across the whole run
    /// (the memoization pressure a
    /// [`WearBucketing`](crate::engine::WearBucketing) policy absorbs).
    pub op_cache_misses: u64,
    /// Operating points served from the engine's memo cache.
    pub op_cache_hits: u64,
    /// Mapped pages read back by the closing verification sweep.
    pub verified_pages: usize,
    /// Integrity violations across all phases (0 on a healthy run).
    pub integrity_violations: u64,
    /// ECC decode failures across all phases.
    pub read_failures: usize,
    /// The [`Counters::absorb`] fold of every phase's counters: retry
    /// senses are the latency-domain price of recovery, scrub
    /// relocations and erases the data-movement one.
    pub counters: Counters,
}

impl ScenarioReport {
    /// All per-service reports of every phase, flattened.
    pub fn service_reports(&self) -> impl Iterator<Item = &ServicePhaseReport> {
        self.phases.iter().flat_map(|p| p.services.iter())
    }

    /// Serial device time over overlapped batch time across the run:
    /// how many channels' worth of work the topology absorbed (1.0 on a
    /// single die; 0 with no device time).
    pub fn achieved_parallelism(&self) -> f64 {
        if self.total_parallel_time_s <= 0.0 {
            return 0.0;
        }
        self.total_device_time_s / self.total_parallel_time_s
    }

    /// Renders the per-phase, per-service breakdown as an ASCII table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "phase",
            "service",
            "trace",
            "reads",
            "writes",
            "cold",
            "WA",
            "p50r_us",
            "p99r_us",
            "p50w_us",
            "p99w_us",
            "mJ",
            "rber",
            "d-rber",
            "lg-uber",
            "lg-uber+d",
            "scrub",
            "retry",
            "i-rber",
            "interf",
            "wear",
        ]);
        for phase in &self.phases {
            for s in &phase.services {
                let c = &s.counters;
                t.row(vec![
                    phase.name.clone(),
                    s.service.clone(),
                    s.trace.label().into(),
                    s.reads.to_string(),
                    s.writes.to_string(),
                    s.cold_reads.to_string(),
                    fixed2(s.ftl.write_amplification()),
                    fixed2(s.read_latency.p50_s * 1e6),
                    fixed2(s.read_latency.p99_s * 1e6),
                    fixed2(s.write_latency.p50_s * 1e6),
                    fixed2(s.write_latency.p99_s * 1e6),
                    fixed2(s.energy_j * 1e3),
                    sci(s.measured_rber),
                    sci(s.model_disturb_rber),
                    fixed2(s.model_log10_uber),
                    fixed2(s.model_log10_uber_disturbed),
                    format!("{}r/{}e", c.scrub_relocations, c.scrub_erases),
                    format!("{}r/{}s", c.retry_reads, c.retry_senses),
                    sci(s.model_interference_rber),
                    format!("{}r/{}i", c.interference_reads, c.injected_partial_programs),
                    s.max_wear.to_string(),
                ]);
            }
        }
        let mut out = t.render();
        let c = &self.counters;
        out.push_str(&format!(
            "total: {} commands, {:.3} ms device time ({:.3} ms overlapped, {:.2}x parallel), {:.3} mJ, {} pages verified, {} integrity violations, {} scrub relocations, {} scrub erases, {} retried reads, {} retry senses, {} interference reads, {} injected partial programs\n",
            self.total_commands,
            self.total_device_time_s * 1e3,
            self.total_parallel_time_s * 1e3,
            self.achieved_parallelism(),
            self.total_energy_j * 1e3,
            self.verified_pages,
            self.integrity_violations,
            c.scrub_relocations,
            c.scrub_erases,
            c.retry_reads,
            c.retry_senses,
            c.interference_reads,
            c.injected_partial_programs,
        ));
        out
    }
}

/// A declarative multi-service workload/lifetime scenario.
///
/// Built with [`Scenario::builder`]; executed with [`Scenario::run`],
/// which constructs a fresh engine, formats the service regions, drives
/// every phase's trace traffic through the engine's typed
/// submission/completion queues (logical addresses routed through a
/// per-service [`LogicalMap`]), applies the lifetime fast-forwards, and
/// closes with a full verification sweep.
///
/// # Example
///
/// ```
/// use mlcx_controller::ControllerConfig;
/// use mlcx_core::engine::EngineBuilder;
/// use mlcx_core::sim::{Scenario, TraceKind};
/// use mlcx_core::Objective;
/// use mlcx_nand::DeviceGeometry;
///
/// // A small device keeps the example fast.
/// let mut config = ControllerConfig::date2012();
/// config.geometry = DeviceGeometry { blocks: 8, pages_per_block: 8, ..config.geometry };
/// let scenario = Scenario::builder()
///     .engine(EngineBuilder::date2012().controller_config(config))
///     .seed(7)
///     .service("log", Objective::MaxReadThroughput, 0..4, TraceKind::Sequential)
///     .service("archive", Objective::MinUber, 4..8, TraceKind::zipfian())
///     .phase("fresh", 24, 100_000)
///     .phase("aged", 24, 0)
///     .build()?;
/// let report = scenario.run()?;
/// assert_eq!(report.integrity_violations, 0);
/// assert!(report.total_energy_j > 0.0);
/// # Ok::<(), mlcx_core::MlcxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    engine: EngineBuilder,
    scrub: ScrubPolicy,
    services: Vec<ServiceSpec>,
    phases: Vec<PhaseSpec>,
    seed: u64,
    batch_size: usize,
    prefill: bool,
    utilization: f64,
}

impl Scenario {
    /// A builder with the paper's engine calibration, seed 2012, batch
    /// size 64, no prefill and 85 % utilization.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                engine: EngineBuilder::date2012(),
                scrub: ScrubPolicy::disabled(),
                services: Vec::new(),
                phases: Vec::new(),
                seed: 2012,
                batch_size: 64,
                prefill: false,
                utilization: 0.85,
            },
        }
    }

    /// Runs the scenario end to end.
    ///
    /// # Errors
    ///
    /// Engine construction/validation errors, FTL space exhaustion, and
    /// datapath errors on writes or the simulator's own (GC) traffic;
    /// host read failures (ECC decode misses) are reported in the
    /// [`ScenarioReport`] counters instead.
    pub fn run(&self) -> Result<ScenarioReport, MlcxError> {
        WorkloadRunner::new(self)?.run()
    }
}

/// Fluent construction of a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Overrides the engine configuration. The controller's settings —
    /// geometry, disturb model, read-retry policy — are fields of the
    /// `ControllerConfig` handed to
    /// [`EngineBuilder::controller_config`]; wear bucketing, dispatch
    /// policy and the fault plan are the [`EngineBuilder`]'s own. The
    /// scenario's [`ScenarioBuilder::seed`] is applied on top at run
    /// time: it overrides the seed of the builder passed in.
    pub fn engine(mut self, engine: EngineBuilder) -> Self {
        self.scenario.engine = engine;
        self
    }

    /// Sets the scrub/read-reclaim policy (default
    /// [`ScrubPolicy::disabled`]). The runner scans every service's
    /// region against it between batches and compiles the resulting
    /// relocate+erase maintenance into the same command batches as host
    /// traffic.
    pub fn scrub_policy(mut self, scrub: ScrubPolicy) -> Self {
        self.scenario.scrub = scrub;
        self
    }

    /// The master seed: drives the device error-injection stream and
    /// (via per-service derivation) every trace generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Commands accumulated before a submit/drain round trip through
    /// the engine's queues (default 64).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.scenario.batch_size = batch_size.max(1);
        self
    }

    /// Writes every logical page of every service's trace space once
    /// before phase 1, so read-heavy traces never miss (reported as a
    /// `prefill` phase).
    pub fn prefill(mut self, prefill: bool) -> Self {
        self.scenario.prefill = prefill;
        self
    }

    /// Fraction of each service's exported FTL capacity the trace
    /// address space covers, in `(0, 1]` (default 0.85, clamped).
    ///
    /// This is the standard over-provisioning knob of SSD workload
    /// studies: at 100 % utilization a one-spare-block FTL is forced
    /// into pathological write amplification (every GC victim is almost
    /// entirely live), which drowns the cross-layer signal in
    /// relocation traffic.
    pub fn utilization(mut self, utilization: f64) -> Self {
        self.scenario.utilization = utilization.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Adds a service with the default (neutral) QoS contract.
    pub fn service(
        self,
        name: &str,
        objective: Objective,
        blocks: Range<usize>,
        trace: TraceKind,
    ) -> Self {
        self.service_with_qos(name, objective, blocks, trace, QosSpec::default())
    }

    /// Adds a service with an explicit QoS contract — weighted-fair
    /// share, deadline and bounded queue depth under the engine's
    /// dispatch policy (see [`EngineBuilder::sched_policy`]).
    pub fn service_with_qos(
        mut self,
        name: &str,
        objective: Objective,
        blocks: Range<usize>,
        trace: TraceKind,
        qos: QosSpec,
    ) -> Self {
        self.scenario.services.push(ServiceSpec {
            name: name.to_string(),
            objective,
            blocks,
            trace,
            qos,
        });
        self
    }

    /// Adds a phase.
    pub fn phase(self, name: &str, ops_per_service: usize, fast_forward_cycles: u64) -> Self {
        self.phase_with_elapsed(name, ops_per_service, fast_forward_cycles, 0.0)
    }

    /// Adds a phase that also advances the device wall clock by
    /// `elapsed_hours` after its traffic (and after the wear
    /// fast-forward): stored pages age against the retention model, so
    /// the *next* phase reads data that sat for `elapsed_hours`. With
    /// the default disabled disturb model the jump is a no-op, keeping
    /// clocked scenarios bit-identical to unclocked ones.
    pub fn phase_with_elapsed(
        mut self,
        name: &str,
        ops_per_service: usize,
        fast_forward_cycles: u64,
        elapsed_hours: f64,
    ) -> Self {
        self.scenario.phases.push(PhaseSpec {
            name: name.to_string(),
            ops_per_service,
            fast_forward_cycles,
            die_skew: Vec::new(),
            elapsed_hours,
        });
        self
    }

    /// Adds a phase whose fast-forward is skewed per die: after the
    /// phase's traffic (and the uniform `fast_forward_cycles`, if any),
    /// each `(die, cycles)` entry ages that die's blocks further. The
    /// next phase then runs against a wear-imbalanced bank — the
    /// per-die operating-point memo must split, and read traffic on the
    /// skewed die sees the aged RBER.
    pub fn phase_with_die_skew(
        mut self,
        name: &str,
        ops_per_service: usize,
        fast_forward_cycles: u64,
        die_skew: &[(usize, u64)],
    ) -> Self {
        self.scenario.phases.push(PhaseSpec {
            name: name.to_string(),
            ops_per_service,
            fast_forward_cycles,
            die_skew: die_skew.to_vec(),
            elapsed_hours: 0.0,
        });
        self
    }

    /// Validates and produces the scenario.
    ///
    /// # Errors
    ///
    /// [`MlcxError::InvalidConfig`] when no service or phase is
    /// configured, a phase's `elapsed_hours` is negative or not finite,
    /// a service region holds fewer than two blocks (the FTL needs one
    /// block of garbage-collection headroom per region), or a trace's
    /// parameters fail [`TraceKind::validate`].
    pub fn build(self) -> Result<Scenario, MlcxError> {
        let scenario = self.scenario;
        if scenario.services.is_empty() {
            return Err(MlcxError::InvalidConfig {
                reason: "scenario needs at least one service".into(),
            });
        }
        if scenario.phases.is_empty() {
            return Err(MlcxError::InvalidConfig {
                reason: "scenario needs at least one phase".into(),
            });
        }
        for p in &scenario.phases {
            if !(p.elapsed_hours.is_finite() && p.elapsed_hours >= 0.0) {
                return Err(MlcxError::InvalidConfig {
                    reason: format!("phase {} elapses {} hours", p.name, p.elapsed_hours),
                });
            }
        }
        for s in &scenario.services {
            if s.blocks.len() < 2 {
                return Err(MlcxError::InvalidConfig {
                    reason: format!(
                        "service {} owns {} block(s); at least 2 required (GC headroom)",
                        s.name,
                        s.blocks.len()
                    ),
                });
            }
            if let Err(reason) = s.trace.validate() {
                return Err(MlcxError::InvalidConfig {
                    reason: format!("service {}: {reason}", s.name),
                });
            }
        }
        Ok(scenario)
    }
}

/// A physical `(block, page)` address.
type Slot = (usize, usize);

/// What a submitted command was for, as far as its [`CommandOutput`]
/// cannot say. The service it books against is the completion's own.
enum CmdMeta {
    /// A trace read: verify the payload against `(lpn, version)`.
    HostRead { lpn: usize, version: u64 },
    /// A trace write.
    HostWrite,
    /// A GC relocation read: stash the data in `gc_data[slot]`.
    GcRead { slot: usize },
    /// A GC relocation write or victim erase, or a scrub relocation or
    /// erase: the output (`Write`, `Erase` or `Relocate`) names which.
    Maintenance,
}

/// Per-phase, per-service accumulator.
#[derive(Default)]
struct Acc {
    reads: usize,
    writes: usize,
    cold_reads: usize,
    read_failures: usize,
    integrity_violations: u64,
    read_lat: Vec<f64>,
    write_lat: Vec<f64>,
    flow_lat: Vec<f64>,
    energy_j: f64,
    corrected_bits: u64,
    codeword_bits_read: u64,
    counters: Counters,
}

/// A service's runtime state; its name, objective and trace are the
/// scenario's [`ServiceSpec`] at the same index.
struct SimService {
    handle: ServiceHandle,
    map: LogicalMap,
    gen: TraceGenerator,
    /// Version of the latest accepted write per lpn (payload
    /// derivation), indexed by lpn over the trace space; 0 = never
    /// written.
    versions: Vec<u64>,
    ftl_at_phase_start: FtlStats,
    acc: Acc,
}

impl PhaseReport {
    /// A report with nothing booked yet: the runner adds each drain's
    /// [`BatchReport`](crate::engine::BatchReport) into it, then names it
    /// and fills in the services.
    fn empty() -> Self {
        PhaseReport {
            name: String::new(),
            services: Vec::new(),
            commands: 0,
            device_time_s: 0.0,
            parallel_time_s: 0.0,
            channel_busy_s: 0.0,
            energy_j: 0.0,
            op_cache_hits: 0,
            op_cache_misses: 0,
            knob_writes: 0,
            counters: Counters::default(),
        }
    }
}

/// Compiles trace streams into engine command batches and drives them
/// through the engine's submission/completion queues, routing logical
/// addresses through a per-service [`LogicalMap`] so garbage collection
/// and write amplification are exercised on the real datapath.
///
/// Most callers want [`Scenario::run`]; the runner is public so a
/// harness can time [`WorkloadRunner::new`] (scenario compilation and
/// engine build) apart from [`WorkloadRunner::run`].
pub struct WorkloadRunner {
    engine: StorageEngine,
    /// The scenario being run: phases, batch size, prefill, scrub
    /// policy and every service's spec.
    scenario: Scenario,
    services: Vec<SimService>,
    /// Commands staged for the next submit, with their accounting tags.
    pending: Vec<(Command, CmdMeta)>,
    /// Relocation read payloads, indexed by the batch slot.
    gc_data: Vec<Option<Vec<u8>>>,
    /// The current phase's report under construction, taken by
    /// `phase_report`.
    report: PhaseReport,
}

/// The multiplier of the payload: byte `i` of a page is the top byte of
/// `(tag + i)·K`.
const PAYLOAD_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The bytes of the payload of `(service, lpn, version)`, in order:
/// `(tag + i)·K` taken as the running sum `tag·K + i·K`.
fn payload_bytes(svc: usize, lpn: usize, version: u64) -> impl Iterator<Item = u8> {
    let tag = (svc as u64 + 1)
        .wrapping_mul(PAYLOAD_K)
        .wrapping_add((lpn as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
        .wrapping_add(version.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut product = tag.wrapping_mul(PAYLOAD_K);
    std::iter::repeat_with(move || {
        let byte = (product >> 56) as u8;
        product = product.wrapping_add(PAYLOAD_K);
        byte
    })
}

/// The deterministic page payload of `(service, lpn, version)`.
fn payload(page_bytes: usize, svc: usize, lpn: usize, version: u64) -> Vec<u8> {
    let mut page = vec![0; page_bytes];
    for (byte, expected) in page.iter_mut().zip(payload_bytes(svc, lpn, version)) {
        *byte = expected;
    }
    page
}

/// Whether `data` is the `page_bytes`-byte payload of `(service, lpn,
/// version)`, checked in place.
fn payload_matches(data: &[u8], page_bytes: usize, svc: usize, lpn: usize, version: u64) -> bool {
    // One OR of the differences, no early exit: the loop has no branch.
    data.len() == page_bytes
        && data
            .iter()
            .zip(payload_bytes(svc, lpn, version))
            .fold(0, |diff, (&byte, expected)| diff | (byte ^ expected))
            == 0
}

impl WorkloadRunner {
    /// Builds the engine, registers and formats every service region,
    /// and seeds the trace generators.
    ///
    /// # Errors
    ///
    /// Engine construction and service registration errors
    /// ([`MlcxError::InvalidConfig`] when a region exceeds the device
    /// geometry); `DieOutOfRange` (as [`MlcxError::Ctrl`]) when a phase
    /// skews a die the topology does not have; controller errors from
    /// the format pass.
    pub fn new(scenario: &Scenario) -> Result<Self, MlcxError> {
        let mut engine = scenario.engine.clone().seed(scenario.seed).build()?;
        let geometry = engine.controller().config().geometry;
        let dies = geometry.topology.total_dies();
        // Checked before any traffic runs, with the error `age_die`
        // would raise after it.
        for phase in &scenario.phases {
            if let Some(&(die, _)) = phase.die_skew.iter().find(|&&(die, _)| die >= dies) {
                return Err(CtrlError::Nand(NandError::DieOutOfRange { die, dies }).into());
            }
        }
        let mut services = Vec::with_capacity(scenario.services.len());
        for (i, spec) in scenario.services.iter().enumerate() {
            let handle = engine.register_service_with_qos(
                &spec.name,
                spec.objective,
                spec.blocks.clone(),
                spec.qos,
            )?;
            for block in spec.blocks.clone() {
                engine.controller_mut().erase_block(block)?;
            }
            // Striped allocation: within the region, open blocks
            // round-robin across the dies the region covers, so a
            // service spanning several channels genuinely overlaps.
            let map = LogicalMap::striped(
                spec.blocks.clone(),
                geometry.pages_per_block,
                geometry.blocks_per_die(),
            );
            let trace_seed = scenario
                .seed
                .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let trace_space =
                (((map.capacity_pages() as f64) * scenario.utilization) as usize).max(1);
            let gen = TraceGenerator::new(spec.trace, trace_space, trace_seed)
                .map_err(|reason| MlcxError::InvalidConfig { reason })?;
            services.push(SimService {
                handle,
                map,
                gen,
                versions: vec![0; trace_space],
                ftl_at_phase_start: FtlStats::default(),
                acc: Acc::default(),
            });
        }
        Ok(WorkloadRunner {
            engine,
            scenario: scenario.clone(),
            services,
            pending: Vec::new(),
            gc_data: Vec::new(),
            report: PhaseReport::empty(),
        })
    }

    /// Executes every phase (plus the optional prefill and the closing
    /// verification sweep) and consumes the runner.
    ///
    /// # Errors
    ///
    /// FTL space exhaustion and datapath errors on writes or
    /// simulator-issued (GC) traffic; host read failures (ECC decode
    /// misses) are reported in the [`ScenarioReport`] counters instead.
    pub fn run(mut self) -> Result<ScenarioReport, MlcxError> {
        let mut phases = Vec::new();
        if self.scenario.prefill {
            let mut ops = Vec::new();
            for (svc, s) in self.services.iter().enumerate() {
                ops.extend((0..s.gen.capacity()).map(|lpn| (svc, TraceOp::Write(lpn))));
            }
            phases.push(self.run_phase("prefill".into(), ops, None)?);
        }
        for p in 0..self.scenario.phases.len() {
            // Round-robin across services per op, so the services
            // genuinely contend inside shared batches. The generators
            // never read the device, so drawing the phase's ops up front
            // replays the same streams.
            let mut ops = Vec::new();
            for _ in 0..self.scenario.phases[p].ops_per_service {
                for (svc, s) in self.services.iter_mut().enumerate() {
                    ops.push((svc, s.gen.next_op()));
                }
            }
            let name = self.scenario.phases[p].name.clone();
            phases.push(self.run_phase(name, ops, Some(p))?);
        }
        // Reads map and unmap nothing (a scrub relocation moves a page,
        // not its lpn), so the set collected here is the set swept.
        let mut ops = Vec::new();
        for (svc, s) in self.services.iter().enumerate() {
            ops.extend(
                s.map
                    .mapped_lpns()
                    .into_iter()
                    .map(|lpn| (svc, TraceOp::Read(lpn))),
            );
        }
        let verified_pages = ops.len();
        phases.push(self.run_phase("verify".into(), ops, None)?);

        // The totals: one in-order fold over the phases.
        let mut report = ScenarioReport {
            phases: Vec::new(),
            total_commands: 0,
            total_device_time_s: 0.0,
            total_parallel_time_s: 0.0,
            total_energy_j: 0.0,
            op_cache_misses: 0,
            op_cache_hits: 0,
            verified_pages,
            integrity_violations: 0,
            read_failures: 0,
            counters: Counters::default(),
        };
        for phase in &phases {
            report.total_commands += phase.commands;
            report.total_device_time_s += phase.device_time_s;
            report.total_parallel_time_s += phase.parallel_time_s;
            report.total_energy_j += phase.energy_j;
            report.op_cache_misses += phase.op_cache_misses;
            report.op_cache_hits += phase.op_cache_hits;
            for service in &phase.services {
                report.integrity_violations += service.integrity_violations;
                report.read_failures += service.read_failures;
            }
            report.counters.absorb(&phase.counters);
        }
        report.phases = phases;
        Ok(report)
    }

    /// Applies `ops` in order and drains them. A configured phase (the
    /// scenario's phase `configured`) then runs one closing scrub pass,
    /// so it ends with its maintenance debt visible in its own report,
    /// and after the report applies its fast-forward, die skew and
    /// clock jump.
    fn run_phase(
        &mut self,
        name: String,
        ops: Vec<(usize, TraceOp)>,
        configured: Option<usize>,
    ) -> Result<PhaseReport, MlcxError> {
        for s in &mut self.services {
            s.ftl_at_phase_start = s.map.stats();
        }
        for (svc, op) in ops {
            self.apply_op(svc, op)?;
        }
        self.flush()?;
        let Some(p) = configured else {
            return Ok(self.phase_report(name));
        };
        self.scrub_tick();
        self.flush()?;
        let report = self.phase_report(name);
        let spec = &self.scenario.phases[p];
        if spec.fast_forward_cycles > 0 {
            self.engine
                .controller_mut()
                .age_all(spec.fast_forward_cycles);
        }
        for &(die, cycles) in &spec.die_skew {
            self.engine.controller_mut().age_die(die, cycles)?;
        }
        if spec.elapsed_hours > 0.0 {
            self.engine.advance_hours(spec.elapsed_hours)?;
        }
        Ok(report)
    }

    /// One background-scrub round: every service scans its
    /// region's disturb state and *stages* the resulting relocate+erase
    /// maintenance onto the pending queue, so scrub traffic rides the
    /// next submitted batch — competing with host commands for bus and
    /// cell time inside the same scheduler window.
    ///
    /// Must run only while nothing is staged (right after a flush): the
    /// reclaim plans assume the map's physical state has landed on the
    /// device. Host operations staged *after* the tick are consistent —
    /// per-service FIFO executes the maintenance first, in plan order.
    fn scrub_tick(&mut self) {
        if !self.scenario.scrub.is_enabled() {
            return;
        }
        debug_assert!(
            self.pending.is_empty(),
            "scrub planning needs the staged state flushed"
        );
        let device = self.engine.controller().device();
        for service in &mut self.services {
            let handle = service.handle;
            for op in self.scenario.scrub.plan_pass(device, &mut service.map) {
                let command = match op {
                    FtlOp::Relocate { from, to, .. } => Command::relocate(handle, from, to),
                    FtlOp::Erase { block } => Command::scrub_erase(handle, block),
                    FtlOp::Write { .. } => unreachable!("reclaim plans never host-write"),
                };
                self.pending.push((command, CmdMeta::Maintenance));
            }
        }
    }

    /// Routes one trace operation: reads translate through the service's
    /// map; writes are planned (allocation + GC) and compiled into
    /// engine commands.
    fn apply_op(&mut self, svc: usize, op: TraceOp) -> Result<(), MlcxError> {
        match op {
            TraceOp::Read(lpn) => match self.services[svc].map.translate(lpn) {
                Some((block, page)) => {
                    let service = &self.services[svc];
                    let version = service.versions[lpn];
                    let handle = service.handle;
                    self.services[svc].acc.reads += 1;
                    self.pending.push((
                        Command::read(handle, block, page),
                        CmdMeta::HostRead { lpn, version },
                    ));
                }
                None => self.services[svc].acc.cold_reads += 1,
            },
            TraceOp::Write(lpn) => {
                let plan = {
                    let engine = &self.engine;
                    self.services[svc].map.plan_write(lpn, &mut |b| {
                        engine.controller().device().block_cycles(b).unwrap_or(0)
                    })?
                };
                if let [FtlOp::Write { lpn, to }] = plan[..] {
                    self.stage_host_write(svc, lpn, to);
                } else {
                    // The plan needs garbage collection: relocation
                    // reads must observe every previously staged write,
                    // so the pending batch is flushed first.
                    self.flush()?;
                    self.execute_plan(svc, &plan)?;
                }
            }
        }
        if self.pending.len() >= self.scenario.batch_size {
            self.flush()?;
            // With the staged state landed, let the scrub policy scan;
            // any maintenance it plans is staged ahead of the next
            // batch's host commands.
            self.scrub_tick();
        }
        Ok(())
    }

    /// Stages the host write of `lpn` to its allocated destination.
    fn stage_host_write(&mut self, svc: usize, lpn: usize, to: (usize, usize)) {
        let service = &mut self.services[svc];
        let version = &mut service.versions[lpn];
        *version += 1;
        let page_bytes = self.engine.controller().config().geometry.page_bytes;
        let data = payload(page_bytes, svc, lpn, *version);
        let handle = service.handle;
        self.pending
            .push((Command::write(handle, to.0, to.1, data), CmdMeta::HostWrite));
    }

    /// Executes a multi-op FTL plan: runs of relocations become a read
    /// batch (harvesting the live data) followed by staged relocation
    /// writes; erases and the final host write ride the pending queue
    /// in plan order (FIFO per service preserves it).
    fn execute_plan(&mut self, svc: usize, plan: &[FtlOp]) -> Result<(), MlcxError> {
        let handle = self.services[svc].handle;
        let mut i = 0;
        while i < plan.len() {
            match plan[i] {
                FtlOp::Relocate { .. } => {
                    let mut moves = Vec::new();
                    while let Some(&FtlOp::Relocate { from, to, .. }) = plan.get(i) {
                        moves.push((from, to));
                        i += 1;
                    }
                    self.relocate(svc, &moves)?;
                }
                FtlOp::Erase { block } => {
                    self.pending
                        .push((Command::erase(handle, block), CmdMeta::Maintenance));
                    i += 1;
                }
                FtlOp::Write { lpn, to } => {
                    self.stage_host_write(svc, lpn, to);
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// One run of relocations, as `(from, to)` pairs: read every source
    /// page (its own batch, after a flush so earlier relocation writes
    /// have landed), then stage the copies. The destination writes
    /// re-encode through the service's current operating point at the
    /// destination wear.
    fn relocate(&mut self, svc: usize, moves: &[(Slot, Slot)]) -> Result<(), MlcxError> {
        self.flush()?;
        let handle = self.services[svc].handle;
        self.gc_data = vec![None; moves.len()];
        let mut batch = Vec::with_capacity(moves.len());
        for (slot, &(from, _)) in moves.iter().enumerate() {
            batch.push((
                Command::read(handle, from.0, from.1),
                CmdMeta::GcRead { slot },
            ));
        }
        self.submit_batch(batch)?;
        for (slot, &(_, to)) in moves.iter().enumerate() {
            let data = self.gc_data[slot]
                .take()
                .ok_or_else(|| MlcxError::Internal {
                    reason: format!("relocation read for slot {slot} never stashed its payload"),
                })?;
            self.pending.push((
                Command::write(handle, to.0, to.1, data),
                CmdMeta::Maintenance,
            ));
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), MlcxError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        self.submit_batch(batch)
    }

    /// Submits and drains one batch, adds its
    /// [`BatchReport`](crate::engine::BatchReport) into the phase report,
    /// and books every completion against its service's accumulator.
    ///
    /// Host *read* failures become counters — an ECC decode miss is a
    /// modeled reliability event the report exists to surface. Write
    /// and GC failures abort the run instead: the runner only targets
    /// slots its own FTL allocated, so a rejected write or erase means
    /// the runner and the device disagree about physical state (a bug,
    /// not a modeled event).
    fn submit_batch(&mut self, batch: Vec<(Command, CmdMeta)>) -> Result<(), MlcxError> {
        let (commands, mut tags): (Vec<_>, Vec<_>) =
            batch.into_iter().map(|(c, meta)| (c, Some(meta))).unzip();
        // One submission's ids are consecutive and the drain returns
        // exactly what it submitted: a completion's tag sits at its id's
        // offset from the first.
        let ids = self.engine.sq().submit_owned(commands)?;
        let first = ids.first().map_or(0, |id| id.raw());
        let completions = self.engine.cq().drain();
        let batch = self.engine.last_batch();
        let report = &mut self.report;
        report.commands += batch.commands;
        report.device_time_s += batch.device_latency_s;
        report.parallel_time_s += batch.parallel_latency_s;
        report.channel_busy_s += batch.channel_busy_s;
        report.op_cache_hits += batch.op_cache_hits;
        report.op_cache_misses += batch.op_cache_misses;
        report.knob_writes += batch.knob_writes;

        let page_bytes = self.engine.controller().config().geometry.page_bytes;
        let model = self.engine.model();
        let codeword_bits = |t: u32| (model.k_bits + model.parity_bits(t)) as u64;
        for c in completions {
            let offset = c.id.raw().checked_sub(first);
            let meta = offset
                .and_then(|k| tags.get_mut(usize::try_from(k).ok()?)?.take())
                .ok_or_else(|| MlcxError::Internal {
                    reason: format!(
                        "completion for command #{} the runner never submitted",
                        c.id.raw()
                    ),
                })?;
            // Services register in scenario order: the engine's service
            // index is the runner's. Flow times (completion minus arrival
            // on the virtual clock) book against the issuing service — GC
            // and scrub traffic included, since a tenant's maintenance
            // rides its own queue.
            let svc = c.service.index() as usize;
            let acc = &mut self.services[svc].acc;
            acc.flow_lat.push(c.flow_s());
            if let Ok(output) = &c.result {
                acc.counters.record(output);
                acc.energy_j += output.energy_j();
            }
            match (meta, c.result) {
                (CmdMeta::HostRead { lpn, version }, Ok(CommandOutput::Read(r))) => {
                    acc.read_lat.push(r.latency_s);
                    acc.corrected_bits += r.outcome.corrected_bits() as u64;
                    acc.codeword_bits_read += codeword_bits(r.t_used);
                    if !r.outcome.is_success() {
                        acc.read_failures += 1;
                    } else if !payload_matches(&r.data, page_bytes, svc, lpn, version) {
                        acc.integrity_violations += 1;
                    }
                }
                (CmdMeta::HostRead { .. }, Err(_)) => acc.read_failures += 1,
                (CmdMeta::HostWrite, Ok(CommandOutput::Write(w))) => {
                    acc.writes += 1;
                    acc.write_lat.push(w.latency_s);
                }
                (CmdMeta::GcRead { slot }, Ok(CommandOutput::Read(r))) => {
                    acc.corrected_bits += r.outcome.corrected_bits() as u64;
                    acc.codeword_bits_read += codeword_bits(r.t_used);
                    if !r.outcome.is_success() {
                        // The relocation copies the (corrupted)
                        // best-effort data; any damage surfaces at the
                        // next host read of the page.
                        acc.read_failures += 1;
                    }
                    self.gc_data[slot] = Some(r.data);
                }
                (CmdMeta::Maintenance, Ok(CommandOutput::Relocate { read, .. })) => {
                    if !read.outcome.is_success() {
                        // Best-effort data was relocated anyway; the
                        // damage surfaces at the next host read.
                        acc.read_failures += 1;
                    }
                }
                (CmdMeta::Maintenance, Ok(_)) => {}
                (_, Err(e)) => return Err(e),
                (_, Ok(other)) => {
                    return Err(MlcxError::Internal {
                        reason: format!("mismatched command output {other:?}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Closes the current phase as `name`: the per-service reports, read
    /// against the device and the model at phase end.
    fn phase_report(&mut self, name: String) -> PhaseReport {
        let mut services = Vec::with_capacity(self.services.len());
        let mut counters = Counters::default();
        let ctrl = self.engine.controller();
        let device = ctrl.device();
        let model = self.engine.model();
        for (spec, s) in self.scenario.services.iter().zip(&mut self.services) {
            let blocks = s.map.blocks();
            let max_wear = blocks
                .clone()
                .map(|b| device.block_cycles(b).unwrap_or(0))
                .max()
                .unwrap_or(0);
            // Worst additive disturb across the region: what a read of
            // the most-pressed block's oldest page would pay right now,
            // *at the reference each block would actually be sensed at*
            // — with retry enabled, a block's learned offset discounts
            // the shift the ladder has already tuned away.
            let model_disturb_rber = ctrl.effective_disturb_rber(blocks.clone()).unwrap_or(0.0);
            // Worst program-interference RBER across the region: what
            // neighbor coupling, die-level program disturb and any
            // partially programmed page add on top of the disturb state.
            let model_interference_rber = blocks
                .map(|b| device.block_interference_rber(b).unwrap_or(0.0))
                .fold(0.0, f64::max);
            let op = model.configure(spec.objective, max_wear.max(1));
            let model_rber = model.rber(op.algorithm, max_wear.max(1));
            let model_log10_uber = model.log10_uber(&op, max_wear.max(1));
            let model_log10_uber_disturbed =
                model.log10_uber_at_rber(&op, (model_rber + model_disturb_rber).min(0.5));

            let acc = std::mem::take(&mut s.acc);
            let ftl = s.map.stats().delta_since(&s.ftl_at_phase_start);
            let measured_rber = if acc.codeword_bits_read == 0 {
                0.0
            } else {
                acc.corrected_bits as f64 / acc.codeword_bits_read as f64
            };
            counters.absorb(&acc.counters);
            services.push(ServicePhaseReport {
                service: spec.name.clone(),
                trace: spec.trace,
                reads: acc.reads,
                writes: acc.writes,
                cold_reads: acc.cold_reads,
                read_failures: acc.read_failures,
                integrity_violations: acc.integrity_violations,
                read_latency: LatencyStats::from_samples(acc.read_lat),
                write_latency: LatencyStats::from_samples(acc.write_lat),
                flow_latency: LatencyStats::from_samples(acc.flow_lat),
                energy_j: acc.energy_j,
                corrected_bits: acc.corrected_bits,
                measured_rber,
                model_rber,
                model_log10_uber,
                model_disturb_rber,
                model_log10_uber_disturbed,
                counters: acc.counters,
                model_interference_rber,
                max_wear,
                ftl,
            });
        }
        let mut report = std::mem::replace(&mut self.report, PhaseReport::empty());
        report.name = name;
        report.energy_j = services.iter().map(|s| s.energy_j).sum();
        report.services = services;
        report.counters = counters;
        report
    }
}

impl std::fmt::Debug for WorkloadRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadRunner")
            .field("services", &self.services.len())
            .field("phases", &self.scenario.phases.len())
            .field("batch_size", &self.scenario.batch_size)
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcx_controller::ControllerConfig;
    use mlcx_nand::DeviceGeometry;

    fn small_engine() -> EngineBuilder {
        let mut config = ControllerConfig::date2012();
        config.geometry = DeviceGeometry {
            blocks: 12,
            pages_per_block: 8,
            ..config.geometry
        };
        EngineBuilder::date2012().controller_config(config)
    }

    /// The payload as the runner first defined it: one multiply per byte.
    fn payload_by_multiply(page_bytes: usize, svc: usize, lpn: usize, version: u64) -> Vec<u8> {
        let tag = (svc as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((lpn as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
            .wrapping_add(version.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        (0..page_bytes)
            .map(|i| {
                (tag.wrapping_add(i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn the_payload_sum_and_its_in_place_check_equal_the_multiply() {
        let keys = [
            (0, 0, 1),
            (1, 7, 2),
            (3, 4_095, u64::MAX),
            (1_000, usize::MAX, 9),
        ];
        for page_bytes in [0, 1, 7, 8, 4_095, 4_096] {
            for (svc, lpn, version) in keys {
                let oracle = payload_by_multiply(page_bytes, svc, lpn, version);
                assert_eq!(payload(page_bytes, svc, lpn, version), oracle);
                assert!(payload_matches(&oracle, page_bytes, svc, lpn, version));
                assert!(!payload_matches(&oracle, page_bytes + 1, svc, lpn, version));
                if let Some(short) = oracle.len().checked_sub(1) {
                    assert!(!payload_matches(
                        &oracle[..short],
                        page_bytes,
                        svc,
                        lpn,
                        version
                    ));
                }
                for at in [0, page_bytes.saturating_sub(1)]
                    .into_iter()
                    .filter(|_| page_bytes > 0)
                {
                    for bit in [0, 7] {
                        let mut flipped = oracle.clone();
                        flipped[at] ^= 1 << bit;
                        assert!(
                            !payload_matches(&flipped, page_bytes, svc, lpn, version),
                            "{page_bytes} bytes, bit {bit} of byte {at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn builder_rejects_degenerate_scenarios() {
        assert!(matches!(
            Scenario::builder().phase("p", 1, 0).build(),
            Err(MlcxError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Scenario::builder()
                .service("s", Objective::Baseline, 0..4, TraceKind::Sequential)
                .build(),
            Err(MlcxError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Scenario::builder()
                .service("s", Objective::Baseline, 0..1, TraceKind::Sequential)
                .phase("p", 1, 0)
                .build(),
            Err(MlcxError::InvalidConfig { .. })
        ));
        // Degenerate trace parameters fail at build(), not as a panic
        // inside run().
        assert!(matches!(
            Scenario::builder()
                .service(
                    "s",
                    Objective::Baseline,
                    0..4,
                    TraceKind::ReadMostly { read_ratio: 0.0 },
                )
                .phase("p", 1, 0)
                .build(),
            Err(MlcxError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Scenario::builder()
                .service(
                    "s",
                    Objective::Baseline,
                    0..4,
                    TraceKind::Zipfian {
                        hot_fraction: 1.5,
                        hot_probability: 0.9,
                    },
                )
                .phase("p", 1, 0)
                .build(),
            Err(MlcxError::InvalidConfig { .. })
        ));
        // A wall-clock jump that is negative or not a number of hours
        // fails at build(), not as a silently unclocked phase.
        for hours in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Scenario::builder()
                    .service("s", Objective::Baseline, 0..4, TraceKind::Sequential)
                    .phase_with_elapsed("p", 1, 0, hours)
                    .build(),
                Err(MlcxError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn runner_rejects_regions_beyond_geometry() {
        let scenario = Scenario::builder()
            .engine(small_engine())
            .service("s", Objective::Baseline, 0..99, TraceKind::Sequential)
            .phase("p", 1, 0)
            .build()
            .unwrap();
        assert!(matches!(
            scenario.run(),
            Err(MlcxError::InvalidConfig { .. })
        ));
        // A die skew past the topology fails before any traffic runs.
        let scenario = Scenario::builder()
            .engine(small_engine())
            .service("s", Objective::Baseline, 0..4, TraceKind::Sequential)
            .phase_with_die_skew("p", 1, 0, &[(1, 10)])
            .build()
            .unwrap();
        assert!(matches!(
            WorkloadRunner::new(&scenario),
            Err(MlcxError::Ctrl(CtrlError::Nand(NandError::DieOutOfRange {
                die: 1,
                dies: 1
            })))
        ));
    }

    #[test]
    fn single_service_scenario_round_trips_with_gc() {
        let scenario = Scenario::builder()
            .engine(small_engine())
            .seed(11)
            .batch_size(16)
            .service("hot", Objective::Baseline, 0..6, TraceKind::zipfian())
            .phase("a", 120, 0)
            .build()
            .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.integrity_violations, 0);
        assert_eq!(report.read_failures, 0);
        assert!(report.verified_pages > 0);
        let phase = &report.phases[0];
        let s = &phase.services[0];
        assert_eq!(s.writes + s.reads + s.cold_reads, 120);
        assert!(
            s.ftl.gc_runs > 0,
            "zipf overwrites on a small region must trigger GC: {:?}",
            s.ftl
        );
        assert!(s.ftl.write_amplification() >= 1.0);
        assert!(s.write_latency.p50_s > 0.0);
        assert!(s.write_latency.p99_s >= s.write_latency.p50_s);
        assert!(report.total_energy_j > 0.0);
        assert!(report.total_device_time_s > 0.0);
    }

    #[test]
    fn latency_stats_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let stats = LatencyStats::from_samples(samples);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50_s, 50.0);
        assert_eq!(stats.p95_s, 95.0);
        assert_eq!(stats.p99_s, 99.0);
        assert_eq!(stats.max_s, 100.0);
        assert_eq!(LatencyStats::from_samples(Vec::new()).count, 0);
    }

    #[test]
    fn fast_forward_ages_every_block() {
        let scenario = Scenario::builder()
            .engine(small_engine())
            .service("s", Objective::Baseline, 0..4, TraceKind::Sequential)
            .phase("young", 8, 500_000)
            .phase("old", 8, 0)
            .build()
            .unwrap();
        let report = scenario.run().unwrap();
        let young = &report.phases[0].services[0];
        let old = &report.phases[1].services[0];
        assert!(young.max_wear < 1_000);
        assert!(old.max_wear >= 500_000);
        // Aged RBER model responds to the fast-forward.
        assert!(old.model_rber > young.model_rber * 10.0);
        assert!(report.render().contains("old"));
    }
}
