//! The core controller FSM: full write and read datapaths.

use std::borrow::Cow;
use std::fmt;
use std::mem;
use std::ops::Range;

use mlcx_bch::{AdaptiveBch, BchCode, CodecKernel, DecodeOutcome, EccHardware, EccPowerModel};
use mlcx_hv::HvSubsystem;
use mlcx_nand::device::CodeStore;
use mlcx_nand::disturb::{DisturbModel, RberTerms};
use mlcx_nand::ispp::IsppConfig;
use mlcx_nand::{AgingModel, DeviceGeometry, NandDevice, NandTiming, OpReport, ProgramAlgorithm};

use crate::buffer::LoadStrategy;
use crate::channel::{ChannelScheduler, OpTiming};
use crate::error::CtrlError;
use crate::flash_if::FlashInterface;
use crate::ocp::OcpSocket;
use crate::regs::{ConfigCommand, RegisterFile};
use crate::retry::{ReadOffsetTable, RetryPolicy};
use crate::throughput::{ReadPath, WritePath};

/// Static configuration of the controller instance: every setting is a
/// `pub` field, set by struct update over [`ControllerConfig::date2012`],
/// and [`MemoryController::new`] checks the whole of it.
///
/// # Example
///
/// ```
/// use mlcx_controller::{ControllerConfig, MemoryController, RetryPolicy};
///
/// let config = ControllerConfig {
///     ecc_tmax: 40,
///     retry: RetryPolicy::date2012(),
///     ..ControllerConfig::date2012()
/// };
/// let ctrl = MemoryController::new(config, 7)?;
/// assert_eq!(ctrl.config().ecc_tmax, 40);
/// # Ok::<(), mlcx_controller::CtrlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Galois-field degree of the BCH codec.
    pub ecc_m: u32,
    /// Minimum correction capability.
    pub ecc_tmin: u32,
    /// Maximum correction capability.
    pub ecc_tmax: u32,
    /// Codec kernel of the BCH datapath — the one place the stack selects
    /// it. The preset is [`CodecKernel::Fused`] (the production path);
    /// [`CodecKernel::Reference`] is the bit-identical bit-serial oracle
    /// that differential tests and benches run against it.
    pub ecc_kernel: CodecKernel,
    /// Socket interface parameters.
    pub ocp: OcpSocket,
    /// Flash bus parameters.
    pub flash_if: FlashInterface,
    /// Synthesized ECC hardware parameters (latency model).
    pub ecc_hw: EccHardware,
    /// ECC power model.
    pub ecc_power: EccPowerModel,
    /// Device geometry.
    pub geometry: DeviceGeometry,
    /// Read-disturb / retention model installed on the device. The
    /// preset is [`DisturbModel::disabled`] — the paper's evaluation
    /// conditions — so the default datapath is bit-identical with or
    /// without the knob; enable it (with a scrub policy above) to study
    /// the workload-dependent mechanisms.
    pub disturb: DisturbModel,
    /// Read-retry policy applied on uncorrectable reads. The preset is
    /// [`RetryPolicy::disabled`] — a single sense at the nominal
    /// reference, bit-identical to the pre-retry datapath; enable it
    /// (typically [`RetryPolicy::date2012`], with a disturb model that
    /// actually shifts something) to study the voltage-domain
    /// mitigation. See the precedence notes on [`RetryPolicy`] and
    /// [`crate::scrub::ScrubPolicy`] for how retry composes with
    /// background scrubbing.
    pub retry: RetryPolicy,
}

impl ControllerConfig {
    /// The paper's full configuration.
    pub fn date2012() -> Self {
        ControllerConfig {
            ecc_m: 16,
            ecc_tmin: 3,
            ecc_tmax: 65,
            ecc_kernel: CodecKernel::Fused,
            ocp: OcpSocket::date2012(),
            flash_if: FlashInterface::date2012(),
            ecc_hw: EccHardware::date2012(),
            ecc_power: EccPowerModel::date2012(),
            geometry: DeviceGeometry::date2012(),
            disturb: DisturbModel::disabled(),
            retry: RetryPolicy::disabled(),
        }
    }

    /// A builder seeded with the [`ControllerConfig::date2012`] preset:
    /// [`ControllerConfigBuilder::geometry`] and the check of
    /// [`ControllerConfigBuilder::build`]. Every other setting is a `pub`
    /// field, set by struct update.
    pub fn builder() -> ControllerConfigBuilder {
        ControllerConfigBuilder {
            config: Self::date2012(),
        }
    }

    /// The one check of a configuration, run by [`MemoryController::new`]
    /// and [`ControllerConfigBuilder::build`] alike: a non-empty
    /// capability range, a field degree in 2..=16 and a valid geometry.
    fn validate(&self) -> Result<(), CtrlError> {
        if self.ecc_tmin == 0 || self.ecc_tmin > self.ecc_tmax {
            return Err(CtrlError::InvalidConfig {
                reason: format!(
                    "empty capability range {}..={}",
                    self.ecc_tmin, self.ecc_tmax
                ),
            });
        }
        if !(2..=16).contains(&self.ecc_m) {
            return Err(CtrlError::InvalidConfig {
                reason: format!("field degree m = {} outside 2..=16", self.ecc_m),
            });
        }
        self.geometry
            .validate()
            .map_err(|reason| CtrlError::InvalidConfig { reason })
    }
}

/// A [`ControllerConfig`] over a geometry of its own, checked by
/// [`ControllerConfigBuilder::build`] as [`MemoryController::new`] checks
/// it. Every other setting is a `pub` field of the config.
///
/// # Example
///
/// ```
/// use mlcx_controller::ControllerConfig;
/// use mlcx_nand::DeviceGeometry;
///
/// let geometry = DeviceGeometry::date2012_topology(2, 1);
/// let config = ControllerConfig::builder().geometry(geometry).build()?;
/// assert_eq!(config.geometry.topology.total_dies(), 2);
/// # Ok::<(), mlcx_controller::CtrlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ControllerConfigBuilder {
    config: ControllerConfig,
}

impl ControllerConfigBuilder {
    /// Device geometry.
    pub fn geometry(mut self, geometry: DeviceGeometry) -> Self {
        self.config.geometry = geometry;
        self
    }

    /// Checks and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`CtrlError::InvalidConfig`] when the capability range is empty,
    /// the field degree is outside 2..=16, or the geometry is degenerate
    /// — the verdict [`MemoryController::new`] gives the same config.
    pub fn build(self) -> Result<ControllerConfig, CtrlError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::date2012()
    }
}

/// Latency/energy breakdown of one page write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteReport {
    /// Total latency, seconds.
    pub latency_s: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Buffer load exposed on the critical path, seconds.
    pub load_s: f64,
    /// ECC encode time, seconds.
    pub encode_s: f64,
    /// Data-in transfer over the flash bus, seconds.
    pub transfer_s: f64,
    /// ISPP program time, seconds.
    pub program_s: f64,
    /// Correction capability the page was encoded at.
    pub t_used: u32,
    /// Program algorithm used.
    pub algorithm: ProgramAlgorithm,
    /// Whether this program consumed a pending partial-program arm
    /// (power-loss fault injection): the page was left mid-staircase
    /// and reads back corrupt until its block is erased.
    pub injected_partial: bool,
}

/// Result and breakdown of one page read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadReport {
    /// The (corrected) page data.
    pub data: Vec<u8>,
    /// Decode outcome.
    pub outcome: DecodeOutcome,
    /// Total latency, seconds.
    pub latency_s: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Array sensing time (tR), seconds.
    pub sense_s: f64,
    /// Codeword transfer time, seconds.
    pub transfer_s: f64,
    /// ECC decode time, seconds.
    pub decode_s: f64,
    /// Correction capability used.
    pub t_used: u32,
    /// Total senses this read issued (1 = no retry; each extra sense is
    /// a full device read charged to the channel scheduler).
    pub senses: u32,
    /// Read-reference offset (steps from nominal) of the *final* sense
    /// — the one `data`/`outcome` came from.
    pub reference_offset: i32,
    /// Latency of the retry senses alone (already included in
    /// `latency_s`); 0.0 when the first sense decoded.
    pub retry_latency_s: f64,
    /// The page's RBER terms as the *final* sense saw them; a term the
    /// device's [`DisturbModel`] disables is exactly 0.0.
    pub rber: RberTerms,
}

/// The memory controller of the paper's Fig. 1.
///
/// Owns the adaptive BCH codec, both bus interfaces and the flash
/// device; exposes the two cross-layer knobs through
/// [`ConfigCommand`]s.
///
/// # Example
///
/// ```
/// use mlcx_controller::{ConfigCommand, ControllerConfig, MemoryController};
/// use mlcx_nand::ProgramAlgorithm;
///
/// let mut ctrl = MemoryController::new(ControllerConfig::date2012(), 3)?;
/// // Cross-layer reconfiguration at runtime:
/// ctrl.apply(ConfigCommand::SetAlgorithm(ProgramAlgorithm::IsppDv))?;
/// ctrl.apply(ConfigCommand::SetCorrection(14))?;
/// assert_eq!(ctrl.correction(), 14);
/// # Ok::<(), mlcx_controller::CtrlError>(())
/// ```
pub struct MemoryController {
    config: ControllerConfig,
    codec: AdaptiveBch,
    device: NandDevice,
    regs: RegisterFile,
    load_strategy: LoadStrategy,
    /// ECC capability each written page used (the controller's page
    /// metadata table), indexed `block * pages_per_block + page`;
    /// 0 = unmapped (a capability is at least `ecc_tmin`, and the codec
    /// rejects `ecc_tmin` = 0 at construction).
    page_ecc: Vec<u32>,
    /// Multi-channel/multi-die busy-time model: every datapath
    /// operation registers its bus/cell occupancy here, so batch layers
    /// can read the modeled parallel makespan.
    scheduler: ChannelScheduler,
    /// Per-block read-reference offsets learned from successful
    /// retries; entries are forgotten on erase.
    offsets: ReadOffsetTable,
    /// The datapath's closed forms at each capability, indexed by `t`
    /// and filled on first use: they depend on nothing else but the load
    /// strategy, and a change of strategy empties the table.
    constants: Vec<Option<PathConstants>>,
}

/// What a page read or write at one capability costs before the device
/// answers: the same calls the datapath would otherwise make per page.
#[derive(Debug, Clone, Copy)]
struct PathConstants {
    read: ReadPath,
    /// With a zero program time; the device's report supplies it.
    write: WritePath,
    ecc_power_w: f64,
}

impl MemoryController {
    /// Builds the controller and its device. The device is calibrated
    /// from the `date2012()` presets of `NandTiming`, `IsppConfig`,
    /// `AgingModel` and `HvSubsystem` whatever `config` says — the same
    /// four `mlcx_core`'s `SubsystemModel::for_controller` takes, which is
    /// what keeps the engine's model and this device equal with no check
    /// between them; a device parameter that becomes configurable must
    /// reach both from the one `ControllerConfig`.
    ///
    /// # Errors
    ///
    /// [`CtrlError::InvalidConfig`] when the capability range is empty,
    /// the field degree is outside 2..=16, or the geometry is degenerate;
    /// other codec construction errors; or [`CtrlError::SpareOverflow`]
    /// when the worst-case parity cannot fit the spare area.
    pub fn new(config: ControllerConfig, seed: u64) -> Result<Self, CtrlError> {
        config.validate()?;
        let codec = AdaptiveBch::new_with_kernel(
            config.ecc_m,
            config.geometry.page_bytes * 8,
            config.ecc_tmin,
            config.ecc_tmax,
            config.ecc_kernel,
        )?;
        if codec.max_parity_bytes() > config.geometry.spare_bytes {
            return Err(CtrlError::SpareOverflow {
                parity_bytes: codec.max_parity_bytes(),
                spare_bytes: config.geometry.spare_bytes,
            });
        }
        let mut device = NandDevice::with_config(
            config.geometry,
            NandTiming::date2012(),
            IsppConfig::date2012(),
            AgingModel::date2012(),
            HvSubsystem::date2012(),
            CodeStore::dual_rom(),
            seed,
        );
        device.set_disturb_model(config.disturb);
        let scheduler = ChannelScheduler::new(config.geometry.topology);
        let page_ecc = vec![0; config.geometry.total_pages()];
        let constants = vec![None; config.ecc_tmax as usize + 1];
        Ok(MemoryController {
            config,
            codec,
            device,
            regs: RegisterFile::default(),
            load_strategy: LoadStrategy::OneRound,
            page_ecc,
            scheduler,
            offsets: ReadOffsetTable::new(),
            constants,
        })
    }

    /// The static configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Current correction capability.
    pub fn correction(&self) -> u32 {
        self.codec.correction()
    }

    /// Current program algorithm.
    pub fn algorithm(&self) -> ProgramAlgorithm {
        self.device.algorithm()
    }

    /// The register file (status polling).
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// The adaptive BCH codec (kernel/capability inspection).
    pub fn codec(&self) -> &AdaptiveBch {
        &self.codec
    }

    /// The underlying device (wear inspection).
    pub fn device(&self) -> &NandDevice {
        &self.device
    }

    /// Mutable device access — for experiment setup (positioning wear),
    /// not for datapath use. The disturb model is set through
    /// [`ControllerConfig::disturb`].
    pub fn device_mut(&mut self) -> &mut NandDevice {
        &mut self.device
    }

    /// The per-block learned read-offset table.
    pub fn read_offsets(&self) -> &ReadOffsetTable {
        &self.offsets
    }

    /// The worst additive disturb/retention RBER a read of any block in
    /// `blocks` would see *through this controller right now*: each
    /// block's worst-page disturb RBER evaluated at its learned
    /// read-reference offset, folded in ascending block order. With
    /// retry disabled or no offset learned this is the device's
    /// [`mlcx_nand::NandDevice::block_disturb_rber`] at offset 0; with a
    /// learned offset it is the recovered (effective) figure the upper
    /// layers should plan ECC against. 0.0 for an empty range.
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn effective_disturb_rber(&self, mut blocks: Range<usize>) -> Result<f64, CtrlError> {
        let retry = self.config.retry.is_enabled();
        blocks.try_fold(0.0, |worst: f64, block| {
            let offset = if retry { self.offsets.get(block) } else { 0 };
            Ok(worst.max(self.device.block_disturb_rber(block, offset)?))
        })
    }

    /// The channel/die busy-time scheduler (batch parallelism model).
    pub fn scheduler(&self) -> &ChannelScheduler {
        &self.scheduler
    }

    /// Mutable scheduler access — batch layers open their timing window
    /// with [`ChannelScheduler::begin_batch`] before a drain.
    pub fn scheduler_mut(&mut self) -> &mut ChannelScheduler {
        &mut self.scheduler
    }

    /// Applies a configuration command received over the socket.
    ///
    /// # Errors
    ///
    /// Knob errors (capability out of range, algorithm not in the code
    /// store) propagate; the register write itself cannot fail.
    pub fn apply(&mut self, cmd: ConfigCommand) -> Result<(), CtrlError> {
        match cmd {
            ConfigCommand::SetCorrection(t) => self.codec.set_correction(t)?,
            ConfigCommand::SetAlgorithm(a) => self.device.select_algorithm(a)?,
            ConfigCommand::SetTwoRoundLoad(enable) => {
                let strategy = if enable {
                    LoadStrategy::TwoRound
                } else {
                    LoadStrategy::OneRound
                };
                if strategy != self.load_strategy {
                    self.load_strategy = strategy;
                    self.constants.fill(None);
                }
            }
        }
        self.regs.apply(cmd);
        Ok(())
    }

    /// Erases a block, reporting the device's timing/energy cost.
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn erase_block(&mut self, block: usize) -> Result<OpReport, CtrlError> {
        let report = self.device.erase_block(block)?;
        let die = self.config.geometry.die_of_block(block);
        self.scheduler
            .issue(die, OpTiming::erase(report.duration_s));
        // Page metadata of the erased block is void, and the fresh
        // block's Vth distributions are back at nominal — forget its
        // learned read offset.
        let pages = self.config.geometry.pages_per_block;
        self.page_ecc[block * pages..(block + 1) * pages].fill(0);
        self.offsets.forget(block);
        Ok(report)
    }

    /// Drops the ECC metadata of one page (host trim/discard), returning
    /// whether the page was mapped. Subsequent reads of the page fail
    /// with [`CtrlError::UnknownPageConfig`] until it is rewritten.
    pub fn trim_page(&mut self, block: usize, page: usize) -> bool {
        self.page_ecc_index(block, page)
            .is_some_and(|i| mem::replace(&mut self.page_ecc[i], 0) != 0)
    }

    /// Where a page's entry sits in the metadata table; `None` outside
    /// the geometry (a page index past its block must not alias the
    /// next block's entries).
    fn page_ecc_index(&self, block: usize, page: usize) -> Option<usize> {
        let geometry = &self.config.geometry;
        (block < geometry.blocks && page < geometry.pages_per_block)
            .then(|| block * geometry.pages_per_block + page)
    }

    /// Applies a full cross-layer operating point in one command round,
    /// skipping the register writes whose value is already current — the
    /// batch datapath's fast reconfiguration entry point.
    ///
    /// # Errors
    ///
    /// Knob errors propagate exactly as through [`MemoryController::apply`].
    pub fn apply_point(
        &mut self,
        algorithm: ProgramAlgorithm,
        correction: u32,
    ) -> Result<(), CtrlError> {
        if self.algorithm() != algorithm {
            self.apply(ConfigCommand::SetAlgorithm(algorithm))?;
        }
        if self.correction() != correction {
            self.apply(ConfigCommand::SetCorrection(correction))?;
        }
        Ok(())
    }

    /// Ages a block to a wear point (lifetime experiments).
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn age_block(&mut self, block: usize, cycles: u64) -> Result<(), CtrlError> {
        self.device.age_block(block, cycles)?;
        Ok(())
    }

    /// Ages every block by `cycles` P/E cycles — the lifetime
    /// fast-forward hook of the workload simulator. See
    /// [`mlcx_nand::NandDevice::age_all`] for the retention semantics.
    pub fn age_all(&mut self, cycles: u64) {
        self.device.age_all(cycles);
    }

    /// Ages every block of one die — the die-skew hook of the workload
    /// simulator (dies age independently).
    ///
    /// # Errors
    ///
    /// Device errors propagate ([`mlcx_nand::NandError::DieOutOfRange`]).
    pub fn age_die(&mut self, die: usize, cycles: u64) -> Result<(), CtrlError> {
        self.device.age_die(die, cycles)?;
        Ok(())
    }

    /// Full write datapath: buffer load -> ECC encode -> data-in transfer
    /// -> ISPP program.
    ///
    /// An owned `data` (`Vec<u8>`) becomes the stored page, and so does
    /// the parity the encoder returns; a borrowed one is copied into the
    /// device's page buffer.
    ///
    /// # Errors
    ///
    /// [`CtrlError::BufferSize`] for wrong page sizes; device and codec
    /// errors propagate.
    pub fn write_page<'a>(
        &mut self,
        block: usize,
        page: usize,
        data: impl Into<Cow<'a, [u8]>>,
    ) -> Result<WriteReport, CtrlError> {
        let data = data.into();
        let expected = self.config.geometry.page_bytes;
        if data.len() != expected {
            return Err(CtrlError::BufferSize {
                expected,
                actual: data.len(),
            });
        }

        let t = self.codec.correction();
        let code = self.codec.code_for(t)?;
        let parity = code.encode(&data)?;
        let constants = self.constants(t, &code);
        let path = constants.write;
        // A pending partial-program arm (fault injection) is consumed by
        // this program; report it so batch layers can count injections.
        let injected_partial = self.device.partial_program_armed();
        let dev_report = self.device.program_page(block, page, data, parity)?;
        if let Some(i) = self.page_ecc_index(block, page) {
            self.page_ecc[i] = t;
        }
        // Channel model: buffer load + encode + data-in occupy the
        // channel (per-channel ECC engine), the ISPP program the die.
        let die = self.config.geometry.die_of_block(block);
        self.scheduler.issue(
            die,
            OpTiming::write(
                path.load_s + path.encode_s + path.transfer_s,
                dev_report.duration_s,
            ),
        );

        let ecc_energy = constants.ecc_power_w * path.encode_s;
        Ok(WriteReport {
            latency_s: path.load_s + path.encode_s + path.transfer_s + dev_report.duration_s,
            energy_j: dev_report.energy_j + ecc_energy,
            load_s: path.load_s,
            encode_s: path.encode_s,
            transfer_s: path.transfer_s,
            program_s: dev_report.duration_s,
            t_used: t,
            algorithm: self.device.algorithm(),
            injected_partial,
        })
    }

    /// Full read datapath: tR -> codeword transfer -> ECC decode, with
    /// stepped read-reference retry on an uncorrectable outcome when a
    /// [`RetryPolicy`] is enabled.
    ///
    /// The decode is *functionally executed* on the error-injected data:
    /// the outcome reflects real BCH behaviour, including uncorrectable
    /// pages at wear-out when the capability is set too low.
    ///
    /// With retry enabled, the first sense starts at the block's learned
    /// offset (nominal when none); if it fails to decode, the ladder is
    /// walked — every extra sense a full device read charged to the
    /// channel scheduler — until a sense decodes (the offset is learned
    /// for the block) or the sense budget is spent. The returned report
    /// aggregates all senses: `latency_s`/`energy_j` are totals,
    /// `senses`/`retry_latency_s` expose the retry cost, and
    /// `data`/`outcome`/`reference_offset` come from the final sense.
    /// With retry disabled ([`RetryPolicy::disabled`], the default) the
    /// datapath is bit-identical to the pre-retry controller.
    ///
    /// # Errors
    ///
    /// [`CtrlError::UnknownPageConfig`] if the page was not written
    /// through this controller; device errors propagate.
    pub fn read_page(&mut self, block: usize, page: usize) -> Result<ReadReport, CtrlError> {
        let enabled = self.config.retry.is_enabled();
        let start = if enabled { self.offsets.get(block) } else { 0 };
        let mut report = self.read_page_at_offset(block, page, start)?;
        if enabled && report.outcome == DecodeOutcome::Uncorrectable {
            let budget = self.config.retry.max_senses;
            for rung in 0..self.config.retry.ladder.len() {
                let off = self.config.retry.ladder[rung];
                if off == start || report.senses >= budget {
                    continue;
                }
                let next = self.read_page_at_offset(block, page, off)?;
                let decoded = next.outcome != DecodeOutcome::Uncorrectable;
                report.senses += 1;
                report.latency_s += next.latency_s;
                report.retry_latency_s += next.latency_s;
                report.energy_j += next.energy_j;
                report.sense_s += next.sense_s;
                report.transfer_s += next.transfer_s;
                report.decode_s += next.decode_s;
                report.data = next.data;
                report.outcome = next.outcome;
                report.reference_offset = off;
                report.rber = next.rber;
                if decoded {
                    self.offsets.learn(block, off);
                    break;
                }
            }
        }
        if report.outcome == DecodeOutcome::Uncorrectable {
            self.regs.status_mut().uncorrectable_seen = true;
        }
        Ok(report)
    }

    /// One sense of the read datapath at a given read-reference offset
    /// (the pre-retry `read_page` body, parameterized by `offset`).
    /// Does not touch the status register — the caller judges the
    /// *final* outcome.
    fn read_page_at_offset(
        &mut self,
        block: usize,
        page: usize,
        offset: i32,
    ) -> Result<ReadReport, CtrlError> {
        let t = self
            .page_ecc_index(block, page)
            .map_or(0, |i| self.page_ecc[i]);
        if t == 0 {
            return Err(CtrlError::UnknownPageConfig { block, page });
        }

        // The parity occupies the spare prefix.
        let (mut data, mut parity, dev_report, rber) =
            self.device.read_page_at(block, page, offset)?;

        // Decode at the page's write-time capability; the host's
        // capability stays selected.
        let code = self.codec.code_for(t)?;
        parity.truncate(code.parity_bytes());
        let outcome = code.decode(&mut data, &mut parity)?;

        let constants = self.constants(t, &code);
        let path = constants.read;
        // Channel model: the die senses (tR), then the codeword streams
        // out and decodes on the channel's ECC engine.
        let die = self.config.geometry.die_of_block(block);
        self.scheduler.issue(
            die,
            OpTiming::read(path.sense_s, path.transfer_s + path.decode_s),
        );

        let ecc_energy = constants.ecc_power_w * path.decode_s;
        Ok(ReadReport {
            data,
            outcome,
            latency_s: path.sense_s + path.transfer_s + path.decode_s,
            energy_j: dev_report.energy_j + ecc_energy,
            sense_s: path.sense_s,
            transfer_s: path.transfer_s,
            decode_s: path.decode_s,
            t_used: t,
            senses: 1,
            reference_offset: offset,
            retry_latency_s: 0.0,
            rber,
        })
    }

    /// The datapath's closed forms at capability `t` (`code` is the
    /// codec's code at `t`, so `t` is in range), computed on first use.
    fn constants(&mut self, t: u32, code: &BchCode) -> PathConstants {
        if let Some(constants) = self.constants[t as usize] {
            return constants;
        }
        let k_bits = self.config.geometry.page_bytes * 8;
        let r_bits = code.parity_bits();
        let constants = PathConstants {
            read: crate::throughput::read_path(
                self.device.timing(),
                &self.config.flash_if,
                &self.config.ecc_hw,
                k_bits,
                r_bits,
                t,
            ),
            write: crate::throughput::write_path(
                &self.config.ocp,
                self.load_strategy,
                &self.config.flash_if,
                &self.config.ecc_hw,
                k_bits,
                r_bits,
                0.0,
            ),
            ecc_power_w: self.config.ecc_power.power_w(t),
        };
        self.constants[t as usize] = Some(constants);
        constants
    }
}

impl fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryController")
            .field("correction", &self.correction())
            .field("algorithm", &self.algorithm())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> MemoryController {
        MemoryController::new(ControllerConfig::date2012(), 5).unwrap()
    }

    /// `(retried, extra senses, exhausted)` reads folded from their
    /// reports — the retry account the engine keeps in its `Counters`.
    fn retry_tally<'a>(reports: impl IntoIterator<Item = &'a ReadReport>) -> (u64, u64, u64) {
        reports
            .into_iter()
            .fold((0, 0, 0), |(retried, extra, exhausted), r| {
                let more = u64::from(r.senses - 1);
                let was_retried = more > 0;
                (
                    retried + u64::from(was_retried),
                    extra + more,
                    exhausted + u64::from(was_retried && !r.outcome.is_success()),
                )
            })
    }

    #[test]
    fn write_read_round_trip_with_correction() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        // Age heavily so raw errors are certain, then rely on ECC.
        ctrl.age_block(0, 500_000).unwrap();
        ctrl.apply(ConfigCommand::SetCorrection(40)).unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i * 31) as u8).collect();
        let w = ctrl.write_page(0, 0, &data).unwrap();
        assert_eq!(w.t_used, 40);
        let r = ctrl.read_page(0, 0).unwrap();
        assert!(r.outcome.is_success());
        assert_eq!(r.data, data, "ECC must deliver clean data");
    }

    #[test]
    fn read_uses_write_time_capability() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        ctrl.apply(ConfigCommand::SetCorrection(10)).unwrap();
        let data = vec![0x77u8; 4096];
        ctrl.write_page(0, 0, &data).unwrap();
        // Re-configure before reading: the read must still use t = 10.
        ctrl.apply(ConfigCommand::SetCorrection(65)).unwrap();
        let r = ctrl.read_page(0, 0).unwrap();
        assert_eq!(r.t_used, 10);
        assert_eq!(r.data, data);
    }

    #[test]
    fn unknown_page_config_rejected() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        assert!(matches!(
            ctrl.read_page(0, 3),
            Err(CtrlError::UnknownPageConfig { .. })
        ));
    }

    #[test]
    fn erase_invalidates_page_metadata() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        let data = vec![1u8; 4096];
        ctrl.write_page(0, 0, &data).unwrap();
        ctrl.erase_block(0).unwrap();
        assert!(matches!(
            ctrl.read_page(0, 0),
            Err(CtrlError::UnknownPageConfig { .. })
        ));
    }

    #[test]
    fn config_commands_drive_both_layers() {
        let mut ctrl = controller();
        ctrl.apply(ConfigCommand::SetAlgorithm(ProgramAlgorithm::IsppDv))
            .unwrap();
        ctrl.apply(ConfigCommand::SetCorrection(14)).unwrap();
        assert_eq!(ctrl.algorithm(), ProgramAlgorithm::IsppDv);
        assert_eq!(ctrl.correction(), 14);
        assert!(ctrl.regs().status().ecc_reconfigured);
        assert!(ctrl.apply(ConfigCommand::SetCorrection(66)).is_err());
    }

    #[test]
    fn wrong_page_size_is_rejected_before_anything_is_touched() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        ctrl.scheduler_mut().begin_batch();
        for actual in [4095, 4097] {
            assert_eq!(
                ctrl.write_page(0, 0, vec![0u8; actual]).unwrap_err(),
                CtrlError::BufferSize {
                    expected: 4096,
                    actual
                }
            );
        }
        assert!(ctrl.page_ecc.iter().all(|&t| t == 0), "no page mapped");
        assert_eq!(ctrl.device().block_reads_since_erase(0).unwrap(), 0);
        assert_eq!(
            ctrl.device_mut().read_page(0, 0).unwrap_err(),
            mlcx_nand::NandError::PageNotProgrammed { block: 0, page: 0 },
            "device untouched"
        );
        assert_eq!(ctrl.scheduler().command_window(), None, "nothing issued");
        assert_eq!(ctrl.scheduler().batch_makespan_s(), 0.0);
        // The slot is still erased: a full page programs into it.
        ctrl.write_page(0, 0, vec![0u8; 4096]).unwrap();
    }

    #[test]
    fn write_latency_breakdown_consistent() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        let w = ctrl.write_page(0, 0, vec![0u8; 4096]).unwrap();
        let sum = w.load_s + w.encode_s + w.transfer_s + w.program_s;
        assert!((w.latency_s - sum).abs() / sum < 1e-9);
        // Program dominates the write path (paper 6.3.3).
        assert!(w.program_s > 0.7 * w.latency_s);
    }

    #[test]
    fn dv_write_slower_read_not_slower() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        ctrl.erase_block(1).unwrap();
        let data = vec![0xABu8; 4096];
        let w_sv = ctrl.write_page(0, 0, &data).unwrap();
        let r_sv = ctrl.read_page(0, 0).unwrap();
        ctrl.apply(ConfigCommand::SetAlgorithm(ProgramAlgorithm::IsppDv))
            .unwrap();
        let w_dv = ctrl.write_page(1, 0, &data).unwrap();
        let r_dv = ctrl.read_page(1, 0).unwrap();
        assert!(w_dv.latency_s > 1.3 * w_sv.latency_s);
        assert!((r_dv.latency_s - r_sv.latency_s).abs() < 1e-9);
    }

    #[test]
    fn two_round_load_shortens_writes() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        let data = vec![0u8; 4096];
        let one = ctrl.write_page(0, 0, &data).unwrap();
        ctrl.apply(ConfigCommand::SetTwoRoundLoad(true)).unwrap();
        ctrl.erase_block(1).unwrap();
        let two = ctrl.write_page(1, 0, &data).unwrap();
        assert!(two.load_s < one.load_s);
    }

    #[test]
    fn trim_unmaps_single_pages() {
        let mut ctrl = controller();
        ctrl.erase_block(0).unwrap();
        let data = vec![9u8; 4096];
        ctrl.write_page(0, 0, &data).unwrap();
        ctrl.write_page(0, 1, &data).unwrap();
        assert!(ctrl.trim_page(0, 0));
        assert!(!ctrl.trim_page(0, 0), "second trim is a no-op");
        assert!(matches!(
            ctrl.read_page(0, 0),
            Err(CtrlError::UnknownPageConfig { .. })
        ));
        // The sibling page is untouched.
        assert_eq!(ctrl.read_page(0, 1).unwrap().data, data);
    }

    #[test]
    fn apply_point_skips_redundant_register_writes() {
        let mut ctrl = controller();
        let base = ctrl.regs().commands_applied();
        ctrl.apply_point(ProgramAlgorithm::IsppDv, 14).unwrap();
        assert_eq!(ctrl.regs().commands_applied() - base, 2);
        ctrl.apply_point(ProgramAlgorithm::IsppDv, 14).unwrap();
        assert_eq!(
            ctrl.regs().commands_applied() - base,
            2,
            "no-change round must not touch the registers"
        );
        ctrl.apply_point(ProgramAlgorithm::IsppDv, 20).unwrap();
        assert_eq!(ctrl.regs().commands_applied() - base, 3);
        assert_eq!(ctrl.correction(), 20);
        assert_eq!(ctrl.algorithm(), ProgramAlgorithm::IsppDv);
    }

    #[test]
    fn config_builder_presets_and_validation() {
        let config = ControllerConfig {
            ecc_tmin: 5,
            ecc_tmax: 30,
            ..ControllerConfig::date2012()
        };
        let config = ControllerConfigBuilder { config }.build().unwrap();
        assert_eq!((config.ecc_tmin, config.ecc_tmax), (5, 30));
        assert_eq!(config.ecc_m, 16, "preset fields survive");
        assert_eq!(config.ecc_kernel, CodecKernel::Fused, "preset kernel");
        assert!(MemoryController::new(config, 1).is_ok());

        for bad in [
            ControllerConfig {
                ecc_tmin: 0,
                ..ControllerConfig::date2012()
            },
            ControllerConfig {
                ecc_tmax: 2,
                ..ControllerConfig::date2012()
            },
            ControllerConfig {
                ecc_m: 17,
                ..ControllerConfig::date2012()
            },
        ] {
            assert!(matches!(
                ControllerConfigBuilder {
                    config: bad.clone()
                }
                .build(),
                Err(CtrlError::InvalidConfig { .. })
            ));
            assert!(matches!(
                MemoryController::new(bad, 1),
                Err(CtrlError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn ecc_kernel_knob_reaches_the_codec() {
        let config = ControllerConfig {
            ecc_kernel: CodecKernel::Reference,
            ..ControllerConfig::date2012()
        };
        let ctrl = MemoryController::new(config, 1).unwrap();
        assert_eq!(ctrl.codec().kernel(), CodecKernel::Reference);
    }

    #[test]
    fn single_die_makespan_equals_the_latency_sum() {
        let mut ctrl = controller();
        ctrl.scheduler_mut().begin_batch();
        let data = vec![0x3Cu8; 4096];
        let mut sum = ctrl.erase_block(1).unwrap().duration_s;
        for p in 0..3 {
            sum += ctrl.write_page(1, p, &data).unwrap().latency_s;
        }
        for p in 0..3 {
            sum += ctrl.read_page(1, p).unwrap().latency_s;
        }
        let makespan = ctrl.scheduler().batch_makespan_s();
        assert!(
            (makespan - sum).abs() < 1e-12,
            "1x1 makespan {makespan} must equal serial sum {sum}"
        );
    }

    #[test]
    fn multi_channel_makespan_beats_the_serial_sum() {
        let mut config = ControllerConfig::date2012();
        config.geometry = mlcx_nand::DeviceGeometry {
            blocks: 64,
            topology: mlcx_nand::Topology::new(4, 1),
            ..config.geometry
        };
        let mut ctrl = MemoryController::new(config, 5).unwrap();
        // One block per die (blocks 0, 16, 32, 48).
        for die in 0..4 {
            ctrl.erase_block(die * 16).unwrap();
        }
        ctrl.scheduler_mut().begin_batch();
        let data = vec![0xA5u8; 4096];
        let mut sum = 0.0;
        for die in 0..4 {
            sum += ctrl.write_page(die * 16, 0, &data).unwrap().latency_s;
        }
        let makespan = ctrl.scheduler().batch_makespan_s();
        assert!(
            makespan < 0.5 * sum,
            "4 channels must overlap 4 programs: makespan {makespan} vs sum {sum}"
        );
    }

    #[test]
    fn age_die_skews_block_wear_per_die() {
        let mut config = ControllerConfig::date2012();
        config.geometry.topology = mlcx_nand::Topology::new(2, 1);
        let mut ctrl = MemoryController::new(config, 5).unwrap();
        ctrl.age_die(1, 42_000).unwrap();
        assert_eq!(ctrl.device().block_cycles(0).unwrap(), 0);
        assert_eq!(ctrl.device().block_cycles(32).unwrap(), 42_000);
        assert!(ctrl.age_die(2, 1).is_err());
    }

    #[test]
    fn builder_rejects_topologies_that_split_blocks_unevenly() {
        let result = ControllerConfig::builder()
            .geometry(mlcx_nand::DeviceGeometry {
                topology: mlcx_nand::Topology::new(3, 1), // 64 % 3 != 0
                ..mlcx_nand::DeviceGeometry::date2012()
            })
            .build();
        assert!(matches!(result, Err(CtrlError::InvalidConfig { .. })));
    }

    #[test]
    fn spare_overflow_detected() {
        let mut config = ControllerConfig::date2012();
        config.geometry.spare_bytes = 64; // too small for t = 65 parity
        assert!(matches!(
            MemoryController::new(config, 1),
            Err(CtrlError::SpareOverflow { .. })
        ));
    }

    #[test]
    fn retry_recovers_uncorrectable_reads_and_learns_the_offset() {
        use crate::retry::RetryPolicy;
        // A parked mid-life page: the retention shift pushes the raw
        // error count far past t = 65 at the nominal reference (~95
        // mean raw errors), while any rung within a step of the ~2.7
        // step shift decodes with wide margin — the endurance floor at
        // 100k cycles is only ~1e-4.
        let config = ControllerConfig {
            disturb: DisturbModel {
                retention_scale: 2e-3,
                rber_per_step: 1e-3,
                ..DisturbModel::disabled()
            },
            retry: RetryPolicy::date2012(),
            ..ControllerConfig::date2012()
        };
        let mut ctrl = MemoryController::new(config, 9).unwrap();
        ctrl.apply(ConfigCommand::SetCorrection(65)).unwrap();
        ctrl.erase_block(0).unwrap();
        ctrl.age_block(0, 100_000).unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i * 13) as u8).collect();
        ctrl.write_page(0, 0, &data).unwrap();
        ctrl.device_mut().advance_time_hours(20_000.0).unwrap();

        let r = ctrl.read_page(0, 0).unwrap();
        assert!(r.outcome.is_success(), "the ladder must recover the read");
        assert_eq!(r.data, data);
        assert!(r.senses > 1, "the first sense must have failed");
        assert_ne!(r.reference_offset, 0);
        assert!(r.retry_latency_s > 0.0 && r.retry_latency_s < r.latency_s);
        // One read retried and recovered, none exhausted.
        assert_eq!(retry_tally([&r]), (1, u64::from(r.senses - 1), 0));
        assert_eq!(ctrl.read_offsets().get(0), r.reference_offset);

        // Steady state: the learned offset makes the next read a single
        // sense at the optimum.
        let r2 = ctrl.read_page(0, 0).unwrap();
        assert!(r2.outcome.is_success());
        assert_eq!(r2.senses, 1);
        assert_eq!(r2.reference_offset, r.reference_offset);
        assert_eq!(r2.retry_latency_s, 0.0);

        // The effective (offset-aware) disturb RBER is what the upper
        // layers should now plan against.
        let eff = ctrl.effective_disturb_rber(0..1).unwrap();
        let nominal = ctrl.device().block_disturb_rber(0, 0).unwrap();
        assert!(eff < nominal / 2.0, "eff {eff:e} vs nominal {nominal:e}");

        // Erase resets the distributions and forgets the offset.
        ctrl.erase_block(0).unwrap();
        assert_eq!(ctrl.read_offsets().get(0), 0);
        assert!(ctrl.read_offsets().is_empty());
    }

    #[test]
    fn disabled_retry_is_bit_identical_to_the_pre_retry_datapath() {
        // Two identically-seeded controllers, one carrying the (enabled)
        // retry knob: on a workload whose reads all decode, every report
        // field must match — retry only engages on uncorrectable reads.
        let stress = DisturbModel {
            retention_scale: 6e-4,
            rber_per_step: 1e-3,
            ..DisturbModel::disabled()
        };
        let base = ControllerConfig {
            disturb: stress,
            ..ControllerConfig::date2012()
        };
        let with_retry = ControllerConfig {
            retry: RetryPolicy::date2012(),
            ..base.clone()
        };
        let mut a = MemoryController::new(base, 11).unwrap();
        let mut b = MemoryController::new(with_retry, 11).unwrap();
        for ctrl in [&mut a, &mut b] {
            ctrl.apply(ConfigCommand::SetCorrection(65)).unwrap();
            ctrl.erase_block(0).unwrap();
            ctrl.age_block(0, 100_000).unwrap();
            for page in 0..4 {
                let data: Vec<u8> = (0..4096).map(|i| (i * 7 + page) as u8).collect();
                ctrl.write_page(0, page, &data).unwrap();
            }
        }
        let mut reads = Vec::new();
        for page in 0..4 {
            let ra = a.read_page(0, page).unwrap();
            let rb = b.read_page(0, page).unwrap();
            assert_eq!(ra, rb, "page {page} diverged");
            assert_eq!(ra.senses, 1);
            reads.push(rb);
        }
        assert_eq!(retry_tally(&reads), (0, 0, 0));
    }
}
