//! Memory controller for the adaptive NAND flash sub-system (paper Fig. 1).
//!
//! The controller sits between the on-chip network (an OCP-like socket)
//! and the flash device: read/write requests flow through the page
//! buffer's load stage and the adaptive BCH codec; configuration commands
//! select the ECC correction capability, the program algorithm and the
//! load strategy, and are counted in a command/status register file.
//!
//! Components:
//!
//! * [`OcpSocket`] — the socket interface and its burst-transfer timing;
//! * [`LoadStrategy`] — the page buffer's one-round and two-round data load
//!   strategies (Section 6.3.3's write-overhead mitigation);
//! * [`FlashInterface`] — the flash bus interface (command/address/data phase
//!   timing at the ~32 MB/s of an asynchronous-NAND-era bus);
//! * [`RegisterFile`] — the command/status register file: sticky status bits
//!   and the reconfiguration counter;
//! * [`MemoryController`] — the core FSM: full write
//!   (load -> encode -> program) and read (tR -> transfer -> decode)
//!   datapaths with latency and energy reports;
//! * [`ReliabilityManager`] — the integrated reliability manager: consumes ECC
//!   feedback, re-configures `t` (and, cross-layer, the program
//!   algorithm) at runtime;
//! * [`read_path`] / [`write_path`] — closed-form read/write throughput used by the
//!   figure harness;
//! * [`ChannelScheduler`] — the multi-channel/multi-die busy-time scheduler: the
//!   datapath feeds it each operation's bus/cell occupancy, and batches
//!   read their modeled parallel makespan and channel utilization back;
//! * `ftl` — a wear-leveling flash translation layer (extension):
//!   the controller-free [`LogicalMap`] plans overwrite traffic into
//!   physical operations the engine executes;
//! * [`ScrubPolicy`] — background scrub / read-reclaim: a policy engine that
//!   scans per-block disturb state (reads since erase, data age) and
//!   plans relocate+erase maintenance through the FTL machinery;
//! * [`RetryPolicy`] — stepped read-reference retry: on an uncorrectable
//!   read, re-sense at ladder offsets tracking the Vth shift, and
//!   remember the winning offset per block so steady-state reads start
//!   near the optimum (the voltage-domain mitigation next to scrub's
//!   data movement).
//!
//! # Example
//!
//! ```
//! use mlcx_controller::{ControllerConfig, MemoryController};
//!
//! let mut ctrl = MemoryController::new(ControllerConfig::date2012(), 7)?;
//! ctrl.erase_block(0)?;
//! let data = vec![0x42u8; 4096];
//! let w = ctrl.write_page(0, 0, &data)?;
//! let r = ctrl.read_page(0, 0)?;
//! assert_eq!(r.data, data);
//! assert!(w.latency_s > r.latency_s); // programming dominates
//! # Ok::<(), mlcx_controller::CtrlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod buffer;
mod channel;
mod controller;
mod error;
mod flash_if;
mod ftl;
mod ocp;
mod regs;
mod reliability;
mod retry;
mod scrub;
mod throughput;

pub use buffer::LoadStrategy;
pub use channel::{ChannelScheduler, IssueSlot, OpTiming};
pub use controller::{
    ControllerConfig, ControllerConfigBuilder, MemoryController, ReadReport, WriteReport,
};
pub use error::CtrlError;
pub use flash_if::FlashInterface;
pub use ftl::{FtlError, FtlOp, FtlStats, LogicalMap};
pub use mlcx_bch::CodecKernel;
pub use ocp::OcpSocket;
pub use regs::{ConfigCommand, RegisterFile, StatusFlags};
pub use reliability::{ReliabilityManager, ReliabilityPolicy};
pub use retry::{ReadOffsetTable, RetryPolicy};
pub use scrub::ScrubPolicy;
pub use throughput::{read_path, write_path, ReadPath, WritePath};
