//! Cross-layer optimization framework for MLC NAND flash memories.
//!
//! This crate is the **primary contribution** of the DATE 2012 paper: it
//! co-configures the architecture layer (the adaptive BCH correction
//! capability `t` of `mlcx-bch`) with the technology layer (the ISPP-SV /
//! ISPP-DV program-algorithm selection of `mlcx-nand`) and quantifies the
//! resulting trade-off space:
//!
//! * [`engine`] — the event-driven host engine [`StorageEngine`]: typed
//!   submission/completion queues over one virtual clock, per-service
//!   QoS (weights, deadlines, bounded depth), per-batch latency/energy
//!   and tail-latency accounting, and memoized cross-layer
//!   configuration (see [`engine::WearBucketing`]).
//! * [`event`] — the discrete-event vocabulary: [`SchedPolicy`] and
//!   [`QosSpec`].
//! * [`fault`] — deterministic fault injection: [`FaultPlan`] schedules
//!   partial-program (power-loss) interruptions over the engine's
//!   program stream from its own seeded RNG.
//! * [`counters`] — [`Counters`]: the scrub / retry / interference /
//!   fault event counters every report carries, declared once, derived
//!   from a command's output in one place and summed by one `absorb`.
//! * [`uber`] — eq. (1) of the paper: the uncorrectable bit error rate of
//!   a `t`-error-correcting page code at a given RBER, in log domain, and
//!   the required-`t` solver that drives every ECC schedule.
//! * `model` — [`SubsystemModel`]: one struct bundling every calibrated
//!   sub-model (aging, ISPP timing, ECC hardware, buses, HV power) with
//!   evaluation of complete operating points.
//! * [`policy`] — the cross-layer optimizer: objective-driven
//!   configuration ([`Objective::MinUber`], [`Objective::MaxReadThroughput`])
//!   and the controller-only strawman the paper argues against.
//! * [`experiments`] — one generator per evaluation figure (Fig. 4-11
//!   plus the ISPP-DV twin of Fig. 7 lost from the camera-ready), each
//!   rendering the same series the paper plots.
//! * [`sim`] — trace-driven workload and lifetime simulation: synthetic
//!   trace generators, a [`Scenario`] builder for multi-service mixes
//!   across wear fast-forwards, and a [`WorkloadRunner`] routing
//!   logical traffic through the FTL and the batched engine.
//!
//! # Example
//!
//! ```
//! use mlcx_core::{Objective, SubsystemModel};
//!
//! let model = SubsystemModel::date2012();
//! // At end of life, the cross-layer max-read configuration gains ~30 %
//! // read throughput over the baseline at the same UBER target.
//! let base = model.configure(Objective::Baseline, 1_000_000);
//! let fast = model.configure(Objective::MaxReadThroughput, 1_000_000);
//! let mb = model.metrics(&base, 1_000_000);
//! let mf = model.metrics(&fast, 1_000_000);
//! assert!(mf.read_mbps / mb.read_mbps > 1.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod error;
mod model;

pub mod counters;
pub mod engine;
pub mod event;
pub mod experiments;
pub mod fault;
pub mod policy;
pub mod report;
pub mod services;
pub mod sim;
pub mod uber;

pub use counters::Counters;
pub use engine::{
    BatchReport, CmdId, Command, CommandOutput, Completion, CompletionQueue, EngineBuilder,
    ServiceHandle, StorageEngine, SubmissionQueue, WearBucketing,
};
pub use error::MlcxError;
pub use event::{QosSpec, SchedPolicy};
pub use fault::FaultPlan;
pub use model::{Metrics, OperatingPoint, SubsystemModel};
pub use policy::Objective;
pub use services::{ServiceError, ServiceRegion};
pub use sim::{Scenario, ScenarioReport, TraceGenerator, TraceKind, WorkloadRunner};
