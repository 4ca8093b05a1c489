//! # mlcx — cross-layer reliability/performance trade-offs for MLC NAND
//!
//! A full reproduction of *Zambelli et al., "A Cross-Layer Approach for
//! New Reliability-Performance Trade-Offs in MLC NAND Flash Memories",
//! DATE 2012*: an adaptive BCH memory controller co-configured with
//! runtime-selectable ISPP program algorithms, on top of complete
//! simulation substrates for every subsystem the paper models — fronted
//! by an event-driven [`StorageEngine`] whose typed submission and
//! completion queues expose the paper's "differentiated storage
//! services" to applications, with per-service QoS (weighted-fair or
//! deadline dispatch, bounded queue depth) on one virtual clock.
//!
//! ## Layout
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`gf2`] | `mlcx-gf2` | GF(2)\[x\] and GF(2^m) arithmetic |
//! | [`bch`] | `mlcx-bch` | adaptive BCH codec + hardware latency/power model |
//! | [`hv`]  | `mlcx-hv` | Dickson charge pumps, regulators, phase sequencer |
//! | [`nand`] | `mlcx-nand` | MLC cell/array model, ISPP-SV/DV engines, aging, device |
//! | [`controller`] | `mlcx-controller` | OCP socket, load strategy, core FSM, reliability manager |
//! | [`xlayer`] | `mlcx-core` | storage engine, UBER math, optimizer, figure experiments |
//!
//! ## Quickstart
//!
//! Bring up the engine, register differentiated services, and push a
//! batch through the functional datapath:
//!
//! ```
//! use mlcx::{Command, EngineBuilder, Objective};
//!
//! let mut engine = EngineBuilder::date2012().seed(7).build()?;
//! let payments = engine.register_service("payments", Objective::MinUber, 0..8)?;
//! let media = engine.register_service("media", Objective::MaxReadThroughput, 8..32)?;
//!
//! let record = vec![0xEEu8; 4096];
//! let frame = vec![0x21u8; 4096];
//! engine.sq().submit(&[
//!     Command::erase(payments, 0),
//!     Command::erase(media, 8),
//!     Command::write(payments, 0, 0, record.clone()),
//!     Command::write(media, 8, 0, frame.clone()),
//!     Command::read(payments, 0, 0),
//!     Command::read(media, 8, 0),
//! ])?;
//! let completions = engine.cq().drain();
//! assert!(completions.iter().all(|c| c.result.is_ok()));
//! // Completions carry arrival/start/end stamps on the virtual clock.
//! assert!(completions.iter().all(|c| c.arrival_s <= c.start_s));
//!
//! // Per-batch accounting comes straight from the calibrated models.
//! let batch = engine.last_batch();
//! assert_eq!(batch.commands, 6);
//! assert!(batch.device_latency_s > 0.0 && batch.energy_j > 0.0);
//! # Ok::<(), mlcx::MlcxError>(())
//! ```
//!
//! The analytic trade-off space is available without a device, through
//! [`SubsystemModel`] (every knob is a `pub` field: vary one with
//! `SubsystemModel { uber_target: 1e-13, ..SubsystemModel::date2012() }`):
//!
//! ```
//! use mlcx::{Objective, SubsystemModel};
//!
//! let model = SubsystemModel::date2012();
//! let op = model.configure(Objective::MaxReadThroughput, 1_000_000);
//! let metrics = model.metrics(&op, 1_000_000);
//! assert!(metrics.log10_uber <= -11.0); // UBER target held
//! ```
//!
//! Run `cargo run --example reproduce_figures` to regenerate every table
//! and figure of the paper's evaluation; see `EXPERIMENTS.md` for the
//! paper-vs-measured record and the legacy-API (`ServicedStore`) →
//! [`StorageEngine::sq`]/[`StorageEngine::cq`] migration table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub use mlcx_bch as bch;
pub use mlcx_controller as controller;
pub use mlcx_core as xlayer;
pub use mlcx_gf2 as gf2;
pub use mlcx_hv as hv;
pub use mlcx_nand as nand;

pub use mlcx_bch::{AdaptiveBch, BchCode, CodecKernel, DecodeOutcome};
pub use mlcx_controller::ScrubPolicy;
pub use mlcx_controller::{
    ConfigCommand, ControllerConfig, CtrlError, MemoryController, ReadReport, ReliabilityManager,
    ReliabilityPolicy, WriteReport,
};
pub use mlcx_controller::{LogicalMap, RetryPolicy};
pub use mlcx_core::{
    BatchReport, CmdId, Command, CommandOutput, Completion, CompletionQueue, Counters,
    EngineBuilder, FaultPlan, MlcxError, Objective, OperatingPoint, QosSpec, Scenario,
    ScenarioReport, SchedPolicy, ServiceError, ServiceHandle, StorageEngine, SubmissionQueue,
    SubsystemModel, TraceGenerator, TraceKind, WearBucketing, WorkloadRunner,
};
pub use mlcx_gf2::MulKernel;
pub use mlcx_nand::{AgingModel, DeviceGeometry, MlcLevel, NandDevice, ProgramAlgorithm, Topology};
