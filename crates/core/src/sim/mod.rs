//! Trace-driven workload and lifetime simulation.
//!
//! The paper's cross-layer trade-offs (per-service reliability vs.
//! performance objectives) only become visible under realistic host
//! workloads aged over P/E cycles — a hand-rolled 64-page batch shows
//! the mechanism, not the behavior. This module closes that gap with
//! three pieces:
//!
//! * `trace` — deterministic synthetic trace generators
//!   ([`TraceGenerator`]) over five access-pattern families
//!   ([`TraceKind`]): sequential logging, uniform random, zipf-like
//!   hot/cold skew, read-mostly serving and bursty ingest. Seeded via
//!   the workspace's deterministic `rand` stub: a `(kind, capacity,
//!   seed)` triple always replays the same stream.
//! * [`WorkloadRunner`] — compiles trace operations into
//!   [`Command`](crate::engine::Command) batches per service and drives
//!   them through the engine's typed submission/completion queues
//!   ([`StorageEngine::sq`](crate::engine::StorageEngine::sq) /
//!   [`cq`](crate::engine::StorageEngine::cq)). Logical addresses
//!   route through a per-service
//!   [`LogicalMap`](mlcx_controller::LogicalMap) (the FTL planning
//!   core), so overwrites, garbage collection and write amplification
//!   run on the real datapath — relocation writes re-encode at the
//!   service's current cross-layer operating point.
//! * [`Scenario`] — the declarative description of a multi-service mix
//!   (e.g. a `MaxReadThroughput` log service contending with a
//!   `MinUber` archive service) across lifetime phases, each phase
//!   optionally fast-forwarding wear via
//!   `MemoryController::age_all` (backed by
//!   [`AgingModel`](mlcx_nand::AgingModel)'s RBER curves at the next
//!   program). [`Scenario::run`] produces a [`ScenarioReport`] with
//!   per-phase, per-service latency percentiles (p50/p95/p99), energy,
//!   measured and modeled RBER, modeled UBER, FTL counters and write
//!   amplification — and ends with a verification sweep that reads
//!   every mapped page back, so data integrity across GC and aging is
//!   asserted, not assumed.
//!
//! * [`presets`] — named workloads: the die-skew and
//!   channel-contention scenarios that exercise the striped FTL, the
//!   per-die operating-point memo and the channel busy-time scheduler
//!   end-to-end on multi-die topologies
//!   ([`Topology`](mlcx_nand::Topology)); the retention-stress and
//!   read-reclaim scenario pair that turns the device's
//!   disturb/retention models plus the background scrubber
//!   ([`ScrubPolicy`](mlcx_controller::ScrubPolicy)) into a measurable
//!   reliability-performance trade-off — run each with scrub off and on
//!   to quantify the UBER recovered and the device time paid; and the
//!   scrub-vs-retry preset that runs the same seeded retention-failure
//!   workload under every [`presets::MitigationMode`], pricing scrub's
//!   write amplification against retry's extra senses; and the
//!   tenant-storm preset ([`presets::tenant_storm`]) that packs
//!   hundreds of QoS-classed tenants onto one bank under
//!   weighted-fair dispatch and reads the per-tenant flow-time tail
//!   (p99/p99.9) out of the report; and the program-interference pair
//!   ([`presets::program_interference`], [`presets::write_hammer`])
//!   that turns neighbour coupling, die-level program disturb and
//!   power-loss fault injection into counted, mitigable damage — the
//!   latter an adversarial tenant hammering a victim's parked data
//!   across the shared die, run under every
//!   [`presets::MitigationMode`].
//!
//! Time is a first-class axis: phases can advance the device wall
//! clock (`ScenarioBuilder::phase_with_elapsed` →
//! `StorageEngine::advance_hours`), stored pages age against the
//! retention model, read-hammered blocks accumulate read disturb, and
//! an enabled `ScrubPolicy` (`ScenarioBuilder::scrub_policy`) scans
//! every service's region and stages relocate+erase maintenance into
//! the same batches as host traffic.
//!
//! Determinism is end to end: the engine's error-injection stream (one
//! stream per die), the trace streams and the payload derivation are
//! all functions of the scenario seed, so a report reproduces exactly.

mod scenario;
mod trace;

pub mod presets;

pub use scenario::{
    LatencyStats, PhaseReport, PhaseSpec, Scenario, ScenarioBuilder, ScenarioReport,
    ServicePhaseReport, WorkloadRunner,
};
pub use trace::{TraceGenerator, TraceKind, TraceOp};
