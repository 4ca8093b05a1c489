//! A complete NAND flash device with runtime-selectable program algorithm.
//!
//! Integrates geometry, timing, the HV subsystem, the aging model and the
//! Section 6.4 code store: erase/program/read operations with energy and
//! duration accounting, per-block wear tracking, and read-back error
//! injection driven by the lifetime RBER model. A detailed Monte-Carlo
//! path for physics experiments lives in [`crate::array`]; the device
//! model injects statistically equivalent errors at page granularity so
//! whole-workload simulations stay fast.

use std::borrow::Cow;
use std::fmt;
use std::mem;

use mlcx_hv::{HvSubsystem, Phase, PhaseKind, Sequencer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::aging::AgingModel;
use crate::disturb::{DisturbModel, RberTerms};
use crate::error::NandError;
use crate::geometry::DeviceGeometry;
use crate::ispp::{program_profile, IsppConfig, ProgramAlgorithm};
use crate::timing::NandTiming;

/// Duration and energy of one device operation. The operation is the
/// one the caller issued; its average power is `energy_j / duration_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpReport {
    /// Busy time of the device, seconds.
    pub duration_s: f64,
    /// Supply energy consumed, joules.
    pub energy_j: f64,
}

/// The microcode store of Section 6.4.
///
/// Production devices hardwire one algorithm in a code ROM; the paper's
/// proposal stores *both* ISPP variants in the ROM (runtime-selectable at
/// negligible area cost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeStore {
    /// Fixed set of algorithms burnt at fabrication time.
    Rom(Vec<ProgramAlgorithm>),
}

impl CodeStore {
    /// The paper's proposal: both algorithms in ROM.
    pub fn dual_rom() -> Self {
        CodeStore::Rom(vec![ProgramAlgorithm::IsppSv, ProgramAlgorithm::IsppDv])
    }

    /// Whether `algorithm` can be executed from this store.
    pub(crate) fn supports(&self, algorithm: ProgramAlgorithm) -> bool {
        let CodeStore::Rom(algs) = self;
        algs.contains(&algorithm)
    }
}

struct StoredPage {
    data: Vec<u8>,
    spare: Vec<u8>,
    /// The endurance RBER of the algorithm and wear this page was
    /// programmed at: [`AgingModel::rber`], fixed once the page is
    /// programmed.
    endurance_rber: f64,
    cycles_at_program: u64,
    programmed_at_hours: f64,
    /// Adjacent-wordline program events since this page was programmed
    /// (each bumps the page's RBER by the model's coupling term).
    interference_events: u64,
    /// Fraction of the ISPP staircase left unexecuted by an interrupted
    /// program (0.0 for a completed program; > 0.0 reads back corrupt
    /// until the block is erased).
    partial_missing: f64,
    /// Die-wide program count at the moment this page was programmed —
    /// the baseline for its program-disturb exposure.
    die_programs_at_program: u64,
    /// This block's program count at the same moment; same-block
    /// programs are the coupling mechanism, so they are subtracted back
    /// out of the die-wide exposure.
    block_programs_at_program: u64,
}

/// In-order programming plus whole-block erase mean a block's programmed
/// pages are always a prefix: `pages[..programmed]` is the block's
/// content, and the slots beyond it are erased — their `data`/`spare`
/// buffers are kept for the next program of that page to refill, their
/// fields are never read.
struct Block {
    pe_cycles: u64,
    reads_since_erase: u64,
    /// Lifetime program count (never reset: snapshots in [`StoredPage`]
    /// are deltas against it, and an erase voids every snapshot anyway).
    programs: u64,
    /// One slot per page this block has ever held, in page order.
    pages: Vec<StoredPage>,
    /// Pages programmed since the last erase; also the page the block
    /// expects next.
    programmed: usize,
}

impl Block {
    /// The block's content: the programmed prefix of its slots.
    fn stored(&self) -> &[StoredPage] {
        &self.pages[..self.programmed]
    }
}

/// Phase totals of one operation, before the command overhead: what
/// [`mlcx_hv::OperationEnergy::duration_s`] and `total_energy_j` return
/// for its enable-signal program.
#[derive(Clone, Copy)]
struct OpCost {
    duration_s: f64,
    energy_j: f64,
}

/// The pulse/verify program of one algorithm is fixed microcode: pulse
/// `i` is always held `pulse_s` at `pulse_voltage(i)`, every verify slot
/// `verify_s`, and wear only decides how many pairs run. So the totals of
/// the first `k` pairs are a prefix table, extended when a worn block
/// first needs more pairs than any program before it.
///
/// `prefix[k]` is built in exactly the left-fold order `OperationEnergy`
/// sums `[p0, v0, p1, v1, …]` in, from the same per-phase products
/// [`Sequencer::execute`] forms, so a lookup is bit-equal to executing
/// the list. Its inputs ([`IsppConfig`], the [`HvSubsystem`] inside the
/// sequencer, [`NandTiming`]) have no setter after
/// [`NandDevice::with_config`]; adding one means rebuilding the tables
/// there.
struct ProgramCosts {
    /// The verify slot after each pulse: [`program_profile`]'s
    /// per-algorithm verify mix × `verify_s`, and its energy.
    verify: OpCost,
    prefix: Vec<OpCost>,
}

impl ProgramCosts {
    fn new(ispp: &IsppConfig, sequencer: &Sequencer, algorithm: ProgramAlgorithm) -> Self {
        let verify_s = program_profile(ispp, algorithm, 1).verifies_per_pulse * ispp.verify_s;
        let empty: f64 = std::iter::empty::<f64>().sum();
        ProgramCosts {
            verify: OpCost {
                duration_s: verify_s,
                energy_j: sequencer.phase_power_w(PhaseKind::Verify { level: 1 }) * verify_s,
            },
            prefix: vec![OpCost {
                duration_s: empty,
                energy_j: empty,
            }],
        }
    }

    /// Totals of the first `pairs` pulse + verify pairs.
    fn first(&mut self, pairs: usize, ispp: &IsppConfig, sequencer: &Sequencer) -> OpCost {
        for i in self.prefix.len() - 1..pairs {
            let target_v = ispp.pulse_voltage(i as u32);
            let pulse_w = sequencer.phase_power_w(PhaseKind::ProgramPulse { target_v });
            let so_far = self.prefix[i];
            self.prefix.push(OpCost {
                duration_s: so_far.duration_s + ispp.pulse_s + self.verify.duration_s,
                energy_j: so_far.energy_j + pulse_w * ispp.pulse_s + self.verify.energy_j,
            });
        }
        self.prefix[pairs]
    }
}

/// The seed of a die's error-injection stream. Die 0 uses the device
/// seed unchanged, so a 1-channel/1-die topology replays exactly the
/// stream the single-die model produced (the paper-figure experiments
/// stay bit-identical); further dies decorrelate via a golden-ratio mix.
fn die_seed(seed: u64, die: usize) -> u64 {
    if die == 0 {
        seed
    } else {
        seed ^ (die as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// A simulated MLC NAND device.
///
/// # Example
///
/// ```
/// use mlcx_nand::{NandDevice, ProgramAlgorithm};
///
/// let mut dev = NandDevice::date2012(1234);
/// dev.erase_block(3)?;
/// let data = vec![0x5Au8; 4096];
/// let spare = vec![0xFFu8; 130];
/// let report = dev.program_page(3, 0, &data, &spare)?;
/// assert!(report.duration_s > 0.5e-3); // ISPP runs take ~a millisecond
/// let (d, s, _) = dev.read_page(3, 0)?;
/// assert_eq!(d.len(), 4096);
/// // A short spare reads back padded to the full OOB area (0xFF, the
/// // erased state of the unwritten tail).
/// assert_eq!(s.len(), dev.geometry().spare_bytes);
/// # Ok::<(), mlcx_nand::NandError>(())
/// ```
pub struct NandDevice {
    geometry: DeviceGeometry,
    timing: NandTiming,
    ispp: IsppConfig,
    aging: AgingModel,
    sequencer: Sequencer,
    code_store: CodeStore,
    algorithm: ProgramAlgorithm,
    disturb: DisturbModel,
    clock_hours: f64,
    blocks: Vec<Block>,
    /// Per-die error-injection streams: each die injects errors from its
    /// own seeded stream (dies age independently through their blocks).
    die_rngs: Vec<StdRng>,
    /// Lifetime program count per die (program-disturb exposure base).
    die_programs: Vec<u64>,
    /// One-shot partial-program arm: the next program executes only this
    /// fraction of its ISPP staircase (power-loss injection).
    partial_arm: Option<f64>,
    /// Phase totals of a page read and a block erase (constants of the
    /// timing set and the HV subsystem).
    read_cost: OpCost,
    erase_cost: OpCost,
    /// Phase totals of a program, per algorithm: indexed
    /// `algorithm as usize`, which is [`ProgramAlgorithm::ALL`] order.
    program_costs: [ProgramCosts; 2],
}

impl NandDevice {
    /// The paper's device with the dual-algorithm code ROM.
    pub fn date2012(seed: u64) -> Self {
        Self::with_config(
            DeviceGeometry::date2012(),
            NandTiming::date2012(),
            IsppConfig::date2012(),
            AgingModel::date2012(),
            HvSubsystem::date2012(),
            CodeStore::dual_rom(),
            seed,
        )
    }

    /// Full-control constructor.
    ///
    /// # Panics
    ///
    /// Panics when the geometry fails [`DeviceGeometry::validate`]
    /// (zero dimensions, or blocks not dividing evenly over the
    /// topology's dies). Builders above this layer surface the same
    /// condition as a recoverable configuration error first.
    #[expect(
        clippy::panic,
        reason = "an infallible constructor by signature (benchmark/ names it); every builder above validates the geometry first"
    )]
    pub fn with_config(
        geometry: DeviceGeometry,
        timing: NandTiming,
        ispp: IsppConfig,
        aging: AgingModel,
        hv: HvSubsystem,
        code_store: CodeStore,
        seed: u64,
    ) -> Self {
        if let Err(reason) = geometry.validate() {
            panic!("invalid device geometry: {reason}");
        }
        let blocks = (0..geometry.blocks)
            .map(|_| Block {
                pe_cycles: 0,
                reads_since_erase: 0,
                programs: 0,
                pages: Vec::new(),
                programmed: 0,
            })
            .collect();
        let die_rngs: Vec<StdRng> = (0..geometry.topology.total_dies())
            .map(|die| StdRng::seed_from_u64(die_seed(seed, die)))
            .collect();
        let die_programs = vec![0u64; die_rngs.len()];
        let sequencer = Sequencer::new(hv);
        let single_phase = |kind, duration_s| {
            let op = sequencer.execute(&[Phase { kind, duration_s }]);
            OpCost {
                duration_s: op.duration_s(),
                energy_j: op.total_energy_j(),
            }
        };
        let read_cost = single_phase(PhaseKind::Read, timing.read_page_s);
        let erase_cost = single_phase(PhaseKind::ErasePulse, timing.erase_block_s);
        let program_costs = ProgramAlgorithm::ALL.map(|a| ProgramCosts::new(&ispp, &sequencer, a));
        NandDevice {
            geometry,
            timing,
            ispp,
            aging,
            sequencer,
            code_store,
            algorithm: ProgramAlgorithm::IsppSv,
            disturb: DisturbModel::disabled(),
            clock_hours: 0.0,
            blocks,
            die_rngs,
            die_programs,
            partial_arm: None,
            read_cost,
            erase_cost,
            program_costs,
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    /// The timing constants.
    pub fn timing(&self) -> &NandTiming {
        &self.timing
    }

    /// The aging model.
    pub fn aging(&self) -> &AgingModel {
        &self.aging
    }

    /// The currently selected program algorithm.
    pub fn algorithm(&self) -> ProgramAlgorithm {
        self.algorithm
    }

    /// Enables (or replaces) the read-disturb / retention model. The
    /// default device runs with [`DisturbModel::disabled`], matching the
    /// paper's evaluation conditions.
    pub fn set_disturb_model(&mut self, model: DisturbModel) {
        self.disturb = model;
    }

    /// The active disturb model.
    pub fn disturb_model(&self) -> &DisturbModel {
        &self.disturb
    }

    /// Advances the device wall clock (retention time base).
    ///
    /// # Errors
    ///
    /// [`NandError::ClockStep`] for a negative or non-finite `hours`;
    /// the clock is then untouched.
    pub fn advance_time_hours(&mut self, hours: f64) -> Result<(), NandError> {
        if !(hours.is_finite() && hours >= 0.0) {
            return Err(NandError::ClockStep);
        }
        self.clock_hours += hours;
        Ok(())
    }

    /// The device wall clock, hours since construction.
    pub fn now_hours(&self) -> f64 {
        self.clock_hours
    }

    /// Block reads since the last erase (read-disturb accumulator).
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for bad indices.
    pub fn block_reads_since_erase(&self, block: usize) -> Result<u64, NandError> {
        self.check_block(block)?;
        Ok(self.blocks[block].reads_since_erase)
    }

    /// P/E cycles endured by a block.
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for bad indices.
    pub fn block_cycles(&self, block: usize) -> Result<u64, NandError> {
        self.check_block(block)?;
        Ok(self.blocks[block].pe_cycles)
    }

    /// Age of the oldest programmed page in a block, hours since it was
    /// programmed (0.0 for a blank block). This is the retention clock a
    /// scrubber scans against: relocating the block rewrites its pages
    /// at the current time and resets the age.
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for bad indices.
    pub fn block_data_age_hours(&self, block: usize) -> Result<f64, NandError> {
        self.check_block(block)?;
        Ok(self.blocks[block]
            .stored()
            .iter()
            .map(|p| self.clock_hours - p.programmed_at_hours)
            .fold(0.0, f64::max))
    }

    /// The additive RBER the active [`DisturbModel`] would charge a read
    /// of the block's worst page sensed at read-reference `offset` steps
    /// from nominal, right now: a fold of its pages' [`RberTerms`]. At
    /// offset 0, the block's read disturb (all its pages share it) plus
    /// the worst per-page retention + interference — an order of its
    /// own, since adding read disturb inside the max can round one ulp
    /// apart once all three terms are nonzero. Otherwise the worst per-page
    /// [`DisturbModel::rber_at_offset`] — a well-learned offset reports
    /// the *effective* (recovered) disturb RBER a retrying controller
    /// exposes upward. 0.0 for a blank block under any model, and for
    /// any block under [`DisturbModel::disabled`] at offset 0.
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for bad indices.
    pub fn block_disturb_rber(&self, block: usize, offset: i32) -> Result<f64, NandError> {
        self.check_block(block)?;
        let pages = self.block_terms(block);
        if offset == 0 {
            let (read_disturb, worst) = pages.fold((0.0, 0.0), |(_, worst): (f64, f64), t| {
                (t.read_disturb, worst.max(t.retention + t.interference()))
            });
            return Ok(read_disturb + worst);
        }
        Ok(pages
            .map(|t| t.disturb_at(&self.disturb, offset))
            .fold(0.0, f64::max))
    }

    /// The [`RberTerms`] of a stored page of `block` after `reads` block
    /// reads since erase, now: the one place a page's RBER is derived.
    /// Program disturb counts the die's programs on *other* blocks.
    fn page_terms(&self, block: usize, p: &StoredPage, reads: u64) -> RberTerms {
        let die = self.geometry.die_of_block(block);
        let die_delta = self.die_programs[die] - p.die_programs_at_program;
        let own_delta = self.blocks[block].programs - p.block_programs_at_program;
        let other_programs = die_delta.saturating_sub(own_delta);
        let m = &self.disturb;
        RberTerms {
            endurance: p.endurance_rber,
            read_disturb: m.read_disturb_rber(reads),
            retention: m.retention_rber(
                self.clock_hours - p.programmed_at_hours,
                p.cycles_at_program,
            ),
            ..m.program_terms(p.interference_events, other_programs, p.partial_missing)
        }
    }

    /// The [`RberTerms`] of each programmed page of `block`, now.
    fn block_terms(&self, block: usize) -> impl Iterator<Item = RberTerms> + '_ {
        let b = &self.blocks[block];
        b.stored()
            .iter()
            .map(move |p| self.page_terms(block, p, b.reads_since_erase))
    }

    /// The program-interference RBER of one page (0.0 for a blank page):
    /// [`RberTerms::interference`] of its terms.
    ///
    /// # Errors
    ///
    /// Geometry errors for bad indices.
    pub fn page_interference_rber(&self, block: usize, page: usize) -> Result<f64, NandError> {
        self.check_page(block, page)?;
        let b = &self.blocks[block];
        Ok(b.stored().get(page).map_or(0.0, |p| {
            self.page_terms(block, p, b.reads_since_erase)
                .interference()
        }))
    }

    /// Whether a page holds the corrupt residue of an interrupted
    /// program (false for blank pages; cleared only by erase).
    ///
    /// # Errors
    ///
    /// Geometry errors for bad indices.
    pub fn page_partially_programmed(&self, block: usize, page: usize) -> Result<bool, NandError> {
        self.check_page(block, page)?;
        Ok(self.blocks[block]
            .stored()
            .get(page)
            .is_some_and(|p| p.partial_missing > 0.0))
    }

    /// The worst per-page program-interference RBER across a block —
    /// the pressure term a scrubber scans against (0.0 for a blank
    /// block, and for any block under a model with the interference
    /// terms disabled).
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for bad indices.
    pub fn block_interference_rber(&self, block: usize) -> Result<f64, NandError> {
        self.check_block(block)?;
        Ok(self
            .block_terms(block)
            .map(|t| t.interference())
            .fold(0.0, f64::max))
    }

    /// Ages a block by `cycles` P/E cycles without simulating each one —
    /// the lifetime-sweep experiments use this to position the device at a
    /// wear point.
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for bad indices.
    pub fn age_block(&mut self, block: usize, cycles: u64) -> Result<(), NandError> {
        self.check_block(block)?;
        self.blocks[block].pe_cycles += cycles;
        Ok(())
    }

    /// Ages every block by `cycles` P/E cycles — the whole-device
    /// lifetime fast-forward the workload simulator uses between trace
    /// phases. Already-programmed pages keep the RBER of their
    /// program-time wear; only subsequent programs see the new age.
    pub fn age_all(&mut self, cycles: u64) {
        for block in &mut self.blocks {
            block.pe_cycles += cycles;
        }
    }

    /// Ages every block of one die by `cycles` P/E cycles — dies age
    /// independently, so lifetime scenarios can skew wear per die (a
    /// die that served a hot service, a weak die binned low at test).
    ///
    /// # Errors
    ///
    /// [`NandError::DieOutOfRange`] for bad indices.
    pub fn age_die(&mut self, die: usize, cycles: u64) -> Result<(), NandError> {
        self.check_die(die)?;
        for block in self.geometry.die_blocks(die) {
            self.blocks[block].pe_cycles += cycles;
        }
        Ok(())
    }

    /// The highest P/E cycle count across one die's blocks.
    ///
    /// # Errors
    ///
    /// [`NandError::DieOutOfRange`] for bad indices.
    pub fn die_max_cycles(&self, die: usize) -> Result<u64, NandError> {
        self.check_die(die)?;
        Ok(self
            .geometry
            .die_blocks(die)
            .map(|b| self.blocks[b].pe_cycles)
            .max()
            .unwrap_or(0))
    }

    /// The mean P/E cycle count across one die's blocks (rounded down).
    ///
    /// # Errors
    ///
    /// [`NandError::DieOutOfRange`] for bad indices.
    pub fn die_mean_cycles(&self, die: usize) -> Result<u64, NandError> {
        self.check_die(die)?;
        let range = self.geometry.die_blocks(die);
        let count = range.len() as u128;
        if count == 0 {
            return Ok(0);
        }
        let total: u128 = range.map(|b| u128::from(self.blocks[b].pe_cycles)).sum();
        Ok((total / count) as u64)
    }

    /// Selects the program algorithm (the runtime knob of the paper).
    ///
    /// # Errors
    ///
    /// [`NandError::AlgorithmUnavailable`] when the code store does not
    /// hold the requested algorithm.
    pub fn select_algorithm(&mut self, algorithm: ProgramAlgorithm) -> Result<(), NandError> {
        if !self.code_store.supports(algorithm) {
            return Err(NandError::AlgorithmUnavailable { algorithm });
        }
        self.algorithm = algorithm;
        Ok(())
    }

    /// Erases a block.
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for bad indices.
    pub fn erase_block(&mut self, block: usize) -> Result<OpReport, NandError> {
        self.check_block(block)?;
        let pages = self.geometry.pages_per_block;
        let b = &mut self.blocks[block];
        // An erased block is one about to be filled: room for all its
        // slots (once), so even its first fill grows nothing.
        b.pages.reserve_exact(pages - b.pages.len());
        b.programmed = 0;
        b.pe_cycles += 1;
        b.reads_since_erase = 0;
        Ok(self.finish(self.erase_cost))
    }

    /// Arms a one-shot partial-program injection: the *next*
    /// [`NandDevice::program_page`] executes only `fraction` of its ISPP
    /// staircase (clamped to `[0.0, 1.0]`) — a power-loss model where a
    /// program interrupted after k of N pulses leaves the page in a
    /// high-RBER state that reads back corrupt until the block is
    /// erased. The arm is consumed by the next program whether or not
    /// the active [`DisturbModel`] charges for it.
    pub fn arm_partial_program(&mut self, fraction: f64) {
        self.partial_arm = Some(fraction.clamp(0.0, 1.0));
    }

    /// Whether a partial-program arm is pending.
    pub fn partial_program_armed(&self) -> bool {
        self.partial_arm.is_some()
    }

    /// Programs a page with the currently selected algorithm.
    ///
    /// Pages within a block must be programmed in strictly ascending
    /// order (the MLC shared-wordline sequence). Programming a page
    /// bumps the interference state of its already-programmed wordline
    /// neighbors — blank neighbors are untouched, mirroring the
    /// blank-read rule of the read-disturb model.
    ///
    /// A `spare` shorter than the geometry's OOB area is accepted and
    /// pads to `spare_bytes` (0xFF, the erased state) on read-back; an
    /// oversized spare is rejected.
    ///
    /// An owned buffer (`Vec<u8>`) becomes the stored page as it is; a
    /// borrowed one (`&[u8]`, `&Vec<u8>`, `&[u8; N]`) is copied into the
    /// buffer the page's slot keeps across erases. Either way the page
    /// reads back the same.
    ///
    /// # Errors
    ///
    /// Geometry errors for bad indices or buffer sizes;
    /// [`NandError::PageNotErased`] when overwriting;
    /// [`NandError::PageOutOfOrder`] when a lower page is still blank.
    pub fn program_page<'a>(
        &mut self,
        block: usize,
        page: usize,
        data: impl Into<Cow<'a, [u8]>>,
        spare: impl Into<Cow<'a, [u8]>>,
    ) -> Result<OpReport, NandError> {
        let (data, spare) = (data.into(), spare.into());
        self.check_page(block, page)?;
        if data.len() != self.geometry.page_bytes {
            return Err(NandError::BufferSize {
                what: "data",
                expected: self.geometry.page_bytes,
                actual: data.len(),
            });
        }
        if spare.len() > self.geometry.spare_bytes {
            return Err(NandError::BufferSize {
                what: "spare",
                expected: self.geometry.spare_bytes,
                actual: spare.len(),
            });
        }
        let expected = self.blocks[block].programmed;
        if page < expected {
            return Err(NandError::PageNotErased { block, page });
        }
        if page > expected {
            return Err(NandError::PageOutOfOrder {
                block,
                page,
                expected,
            });
        }

        let cycles = self.blocks[block].pe_cycles;
        let profile = program_profile(&self.ispp, self.algorithm, cycles);
        // Expected phase program: pulses at the mean staircase voltage
        // plus the verify mix — statistically equivalent to the
        // Monte-Carlo engine's emission, at device-simulation cost.
        let pulse_count = profile.pulses.round().max(1.0) as u32;
        // A pending partial-program arm truncates the staircase after
        // k of N pulses (power loss mid-program); the missing fraction
        // is what the disturb model charges the page for on read.
        let executed = match self.partial_arm.take() {
            Some(fraction) => (f64::from(pulse_count) * fraction).floor() as u32,
            None => pulse_count,
        };
        let partial_missing = f64::from(pulse_count - executed) / f64::from(pulse_count);
        let cost = self.program_costs[self.algorithm as usize].first(
            executed as usize,
            &self.ispp,
            &self.sequencer,
        );

        let die = self.geometry.die_of_block(block);
        // Program-interference bookkeeping: integers only, maintained
        // unconditionally — a disabled model multiplies them by exactly
        // 0.0, so disabled-model runs stay bit-identical.
        self.die_programs[die] += 1;
        self.blocks[block].programs += 1;
        // Wordline-adjacent coupling: an already-programmed neighbor
        // takes one interference event, a blank one is untouched — and
        // the page above the one the block expects next is always blank.
        let b = &mut self.blocks[block];
        if let Some(below) = page.checked_sub(1) {
            b.pages[below].interference_events += 1;
        }
        let fresh = StoredPage {
            data: Vec::new(),
            spare: Vec::new(),
            endurance_rber: self.aging.rber(self.algorithm, cycles.max(1)),
            cycles_at_program: cycles,
            programmed_at_hours: self.clock_hours,
            interference_events: 0,
            partial_missing,
            die_programs_at_program: self.die_programs[die],
            block_programs_at_program: b.programs,
        };
        match b.pages.get_mut(page) {
            // The slot keeps its buffers across erases: from the block's
            // second fill on a program allocates nothing.
            Some(slot) => {
                *slot = StoredPage {
                    data: mem::take(&mut slot.data),
                    spare: mem::take(&mut slot.spare),
                    ..fresh
                }
            }
            None => b.pages.push(fresh),
        }
        let slot = &mut b.pages[page];
        store(&mut slot.data, data);
        store(&mut slot.spare, spare);
        b.programmed = page + 1;
        Ok(self.finish(cost))
    }

    /// Reads a page back, injecting raw bit errors per the lifetime RBER
    /// model (errors depend on the algorithm and wear *at program time*).
    ///
    /// Senses at the nominal read references — exactly
    /// [`NandDevice::read_page_at`] with a zero reference offset.
    ///
    /// A rejected read of a blank page leaves the block's read-disturb
    /// accumulator untouched (no word line was sensed), and the Nth
    /// successful read sees the disturb accumulated by the N−1 reads
    /// before it — a read cannot disturb the data it is itself sensing.
    ///
    /// # Errors
    ///
    /// Geometry errors; [`NandError::PageNotProgrammed`] for blank pages.
    pub fn read_page(
        &mut self,
        block: usize,
        page: usize,
    ) -> Result<(Vec<u8>, Vec<u8>, OpReport), NandError> {
        let (data, spare, report, _) = self.read_page_at(block, page, 0)?;
        Ok((data, spare, report))
    }

    /// Reads a page back sensing at read-reference `offset` steps from
    /// nominal (signed; see [`DisturbModel::rber_at_offset`]), and hands
    /// back the page's [`RberTerms`] as this sense saw them.
    ///
    /// The injected error rate is the endurance RBER plus the
    /// offset-dependent disturb/retention/interference term: an offset
    /// tracking the page's Vth shift recovers most of the additive RBER,
    /// a zero offset reproduces [`NandDevice::read_page`] bit-for-bit,
    /// and a stale offset on an unshifted page *adds* misreads. Every
    /// sense — retry senses included — bumps the block's read-disturb
    /// accumulator: re-reading is never free at the cell level.
    ///
    /// # Errors
    ///
    /// Geometry errors; [`NandError::PageNotProgrammed`] for blank pages.
    pub fn read_page_at(
        &mut self,
        block: usize,
        page: usize,
        offset: i32,
    ) -> Result<(Vec<u8>, Vec<u8>, OpReport, RberTerms), NandError> {
        self.check_page(block, page)?;
        let geometry_spare = self.geometry.spare_bytes;
        let die = self.geometry.die_of_block(block);
        // Rejected before the disturb bump: a blank page must not accrue
        // read disturb.
        if page >= self.blocks[block].programmed {
            return Err(NandError::PageNotProgrammed { block, page });
        }
        let prior_reads = self.blocks[block].reads_since_erase;
        self.blocks[block].reads_since_erase = prior_reads + 1;
        let stored = &self.blocks[block].pages[page];
        let terms = self.page_terms(block, stored, prior_reads);
        let mut data = stored.data.clone();
        // Room for the pad appended after injection.
        let mut spare = Vec::with_capacity(geometry_spare);
        spare.extend_from_slice(&stored.spare);
        let rber = terms.sensed_at(&self.disturb, offset);
        debug_assert!(spare.len() <= geometry_spare);

        // Errors come from the die's own stream: reads on one die never
        // perturb the injection sequence of another. Injection covers
        // the *stored* bytes only — the pad below is appended after, so
        // short-spare programs draw exactly the stream they always did.
        let rng = &mut self.die_rngs[die];
        let total_bits = (data.len() + spare.len()) * 8;
        let errors = sample_binomial(rng, total_bits as u64, rber);
        for _ in 0..errors {
            let bit = rng.random_range(0..total_bits);
            let (buf, idx) = if bit < data.len() * 8 {
                (&mut data, bit)
            } else {
                (&mut spare, bit - data.len() * 8)
            };
            buf[idx / 8] ^= 1 << (7 - idx % 8);
        }
        // Read-back always presents the full OOB area: the unwritten
        // tail senses as the erased state.
        spare.resize(geometry_spare, 0xFF);

        let report = self.finish(self.read_cost);
        Ok((data, spare, report, terms))
    }

    /// Adds the command overhead: the operation's report is its account.
    fn finish(&self, cost: OpCost) -> OpReport {
        OpReport {
            duration_s: cost.duration_s + self.timing.command_overhead_s,
            energy_j: cost.energy_j,
        }
    }

    fn check_die(&self, die: usize) -> Result<(), NandError> {
        let dies = self.geometry.topology.total_dies();
        if die >= dies {
            return Err(NandError::DieOutOfRange { die, dies });
        }
        Ok(())
    }

    fn check_block(&self, block: usize) -> Result<(), NandError> {
        if block >= self.geometry.blocks {
            return Err(NandError::BlockOutOfRange {
                block,
                blocks: self.geometry.blocks,
            });
        }
        Ok(())
    }

    fn check_page(&self, block: usize, page: usize) -> Result<(), NandError> {
        self.check_block(block)?;
        if page >= self.geometry.pages_per_block {
            return Err(NandError::PageOutOfRange {
                page,
                pages_per_block: self.geometry.pages_per_block,
            });
        }
        Ok(())
    }
}

impl fmt::Debug for NandDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NandDevice")
            .field("geometry", &self.geometry)
            .field("algorithm", &self.algorithm)
            .field("code_store", &self.code_store)
            .finish()
    }
}

/// Puts `bytes` into a slot's buffer: an owned buffer replaces it, a
/// borrowed one is copied into the capacity it keeps.
fn store(buffer: &mut Vec<u8>, bytes: Cow<'_, [u8]>) {
    match bytes {
        Cow::Owned(owned) => *buffer = owned,
        Cow::Borrowed(borrowed) => {
            buffer.clear();
            buffer.extend_from_slice(borrowed);
        }
    }
}

/// Samples Binomial(n, p) — exact Bernoulli walk for tiny expectations,
/// Poisson/normal approximations beyond.
fn sample_binomial<R: RngExt + ?Sized>(rng: &mut R, n: u64, p: f64) -> usize {
    let mean = n as f64 * p;
    if mean < 1e-4 {
        // Effectively "zero or one error" territory.
        return usize::from(rng.random::<f64>() < mean);
    }
    if mean < 30.0 {
        // Knuth Poisson sampler.
        let limit = (-mean).exp();
        let mut k = 0usize;
        let mut prod: f64 = rng.random();
        while prod > limit {
            k += 1;
            prod *= rng.random::<f64>();
        }
        return k.min(n as usize);
    }
    // Normal approximation with continuity clamp.
    let sigma = (mean * (1.0 - p)).sqrt();
    let z = crate::variability::sample_normal(rng, mean, sigma);
    z.round().max(0.0).min(n as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> NandDevice {
        NandDevice::date2012(99)
    }

    #[test]
    fn erase_program_read_round_trip() {
        let mut dev = device();
        dev.erase_block(0).unwrap();
        let data = vec![0xC3u8; 4096];
        let spare = vec![0x0Fu8; 64];
        for page in 0..=7 {
            dev.program_page(0, page, &data, &spare).unwrap();
        }
        let (d, s, _) = dev.read_page(0, 7).unwrap();
        assert_eq!(d.len(), 4096);
        // A short spare pads to the full OOB area on read-back, and the
        // unwritten tail senses as the erased state.
        assert_eq!(s.len(), dev.geometry().spare_bytes);
        assert!(s[64..].iter().all(|&b| b == 0xFF));
        // Fresh block: at RBER ~1.5e-6 a clean read-back is overwhelmingly
        // likely but not guaranteed; allow a stray bit.
        let diff: usize = d
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        assert!(diff <= 2, "diff = {diff}");
    }

    #[test]
    fn the_clock_refuses_backward_and_non_finite_steps() {
        let mut dev = device();
        dev.advance_time_hours(2.0).unwrap();
        for hours in [
            -1.0,
            -f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(dev.advance_time_hours(hours), Err(NandError::ClockStep));
            assert_eq!(
                dev.now_hours(),
                2.0,
                "a refused step of {hours} moved the clock"
            );
        }
        dev.advance_time_hours(0.0).unwrap();
        dev.advance_time_hours(-0.0).unwrap();
        assert_eq!(dev.now_hours(), 2.0);
    }

    #[test]
    fn program_requires_erase() {
        let mut dev = device();
        dev.erase_block(1).unwrap();
        let data = vec![0u8; 4096];
        dev.program_page(1, 0, &data, &[]).unwrap();
        assert_eq!(
            dev.program_page(1, 0, &data, &[]),
            Err(NandError::PageNotErased { block: 1, page: 0 })
        );
        dev.erase_block(1).unwrap();
        dev.program_page(1, 0, &data, &[]).unwrap();
    }

    #[test]
    fn read_blank_page_fails() {
        let mut dev = device();
        dev.erase_block(2).unwrap();
        assert!(matches!(
            dev.read_page(2, 5),
            Err(NandError::PageNotProgrammed { .. })
        ));
    }

    #[test]
    fn geometry_validation() {
        let mut dev = device();
        assert!(matches!(
            dev.erase_block(10_000),
            Err(NandError::BlockOutOfRange { .. })
        ));
        dev.erase_block(0).unwrap();
        assert!(matches!(
            dev.program_page(0, 9_999, vec![0u8; 4096], &[]),
            Err(NandError::PageOutOfRange { .. })
        ));
        assert!(matches!(
            dev.program_page(0, 0, &[0u8; 100], &[]),
            Err(NandError::BufferSize { what: "data", .. })
        ));
        assert!(matches!(
            dev.program_page(0, 0, vec![0u8; 4096], vec![0u8; 1000]),
            Err(NandError::BufferSize { what: "spare", .. })
        ));
    }

    #[test]
    fn algorithm_selection_respects_code_store() {
        let mut dev = device();
        assert_eq!(dev.algorithm(), ProgramAlgorithm::IsppSv);
        dev.select_algorithm(ProgramAlgorithm::IsppDv).unwrap();
        assert_eq!(dev.algorithm(), ProgramAlgorithm::IsppDv);

        let mut legacy = NandDevice::with_config(
            DeviceGeometry::date2012(),
            NandTiming::date2012(),
            IsppConfig::date2012(),
            AgingModel::date2012(),
            HvSubsystem::date2012(),
            CodeStore::Rom(vec![ProgramAlgorithm::IsppSv]),
            1,
        );
        assert_eq!(
            legacy.select_algorithm(ProgramAlgorithm::IsppDv),
            Err(NandError::AlgorithmUnavailable {
                algorithm: ProgramAlgorithm::IsppDv
            })
        );
    }

    #[test]
    fn dv_program_slower_and_read_unaffected() {
        let mut dev = device();
        dev.erase_block(0).unwrap();
        dev.erase_block(1).unwrap();
        let data = vec![0xAAu8; 4096];
        let sv = dev.program_page(0, 0, &data, &[]).unwrap();
        dev.select_algorithm(ProgramAlgorithm::IsppDv).unwrap();
        let dv = dev.program_page(1, 0, &data, &[]).unwrap();
        assert!(dv.duration_s > 1.3 * sv.duration_s);
        // Read time does not depend on the program algorithm.
        let (_, _, r0) = dev.read_page(0, 0).unwrap();
        let (_, _, r1) = dev.read_page(1, 0).unwrap();
        assert!((r0.duration_s - r1.duration_s).abs() < 1e-9);
    }

    #[test]
    fn worn_blocks_read_with_more_errors() {
        let mut dev = device();
        dev.erase_block(0).unwrap();
        dev.age_block(0, 1_000_000).unwrap();
        dev.erase_block(0).unwrap();
        let data = vec![0u8; 4096];
        dev.program_page(0, 0, &data, &[]).unwrap();
        // Expect ~ 4096*8*1e-3 ~ 33 bit errors; assert a broad band.
        let mut total = 0usize;
        for _ in 0..4 {
            let (d, _, _) = dev.read_page(0, 0).unwrap();
            total += d
                .iter()
                .zip(&data)
                .map(|(a, b)| (a ^ b).count_ones() as usize)
                .sum::<usize>();
        }
        let mean = total as f64 / 4.0;
        assert!((10.0..80.0).contains(&mean), "mean errors = {mean}");
    }

    #[test]
    fn wear_accounting() {
        let mut dev = device();
        assert_eq!(dev.block_cycles(5).unwrap(), 0);
        dev.erase_block(5).unwrap();
        dev.erase_block(5).unwrap();
        assert_eq!(dev.block_cycles(5).unwrap(), 2);
        dev.age_block(5, 100).unwrap();
        assert_eq!(dev.block_cycles(5).unwrap(), 102);
    }

    #[test]
    fn op_reports_fold_to_the_average_power() {
        let mut dev = device();
        let reports = [
            dev.erase_block(0).unwrap(),
            dev.program_page(0, 0, vec![0u8; 4096], &[]).unwrap(),
            dev.read_page(0, 0).unwrap().2,
        ];
        let energy_j: f64 = reports.iter().map(|r| r.energy_j).sum();
        let time_s: f64 = reports.iter().map(|r| r.duration_s).sum();
        assert!(energy_j > 0.0);
        let average_w = energy_j / time_s;
        assert!(average_w > 0.05 && average_w < 0.5);
    }

    #[test]
    fn program_power_in_fig6_band() {
        let mut dev = device();
        dev.erase_block(0).unwrap();
        let power_w = |r: OpReport| r.energy_j / r.duration_s;
        let sv = power_w(dev.program_page(0, 0, vec![0u8; 4096], &[]).unwrap());
        assert!((0.14..0.19).contains(&sv), "SV program power = {sv}");
        dev.select_algorithm(ProgramAlgorithm::IsppDv).unwrap();
        dev.erase_block(1).unwrap();
        let dv = power_w(dev.program_page(1, 0, vec![0u8; 4096], &[]).unwrap());
        let delta_mw = (dv - sv) * 1e3;
        assert!(
            (2.0..15.0).contains(&delta_mw),
            "DV-SV power delta = {delta_mw} mW"
        );
    }

    #[test]
    fn read_disturb_accumulates_and_erase_resets() {
        use crate::disturb::DisturbModel;
        let mut dev = device();
        // An aggressive disturb model so the effect is measurable fast.
        dev.set_disturb_model(DisturbModel {
            read_disturb_per_read: 1e-6,
            ..DisturbModel::disabled()
        });
        dev.erase_block(0).unwrap();
        let data = vec![0u8; 4096];
        dev.program_page(0, 0, &data, &[]).unwrap();
        // Hammer the block with reads; errors should grow.
        let mut early = 0usize;
        let mut late = 0usize;
        for i in 0..600 {
            let (d, _, _) = dev.read_page(0, 0).unwrap();
            let errs: usize = d
                .iter()
                .zip(&data)
                .map(|(a, b)| (a ^ b).count_ones() as usize)
                .sum();
            if i < 100 {
                early += errs;
            } else if i >= 500 {
                late += errs;
            }
        }
        assert!(late > early, "late {late} vs early {early}");
        assert_eq!(dev.block_reads_since_erase(0).unwrap(), 600);
        dev.erase_block(0).unwrap();
        assert_eq!(dev.block_reads_since_erase(0).unwrap(), 0);
    }

    #[test]
    fn blank_page_reads_do_not_age_the_block() {
        let mut dev = device();
        dev.erase_block(0).unwrap();
        dev.program_page(0, 0, vec![0u8; 4096], &[]).unwrap();
        // Failed reads of blank pages must not touch the accumulator.
        for _ in 0..5 {
            assert!(matches!(
                dev.read_page(0, 7),
                Err(NandError::PageNotProgrammed { .. })
            ));
        }
        assert_eq!(dev.block_reads_since_erase(0).unwrap(), 0);
        dev.read_page(0, 0).unwrap();
        assert_eq!(dev.block_reads_since_erase(0).unwrap(), 1);
    }

    #[test]
    fn nth_read_sees_disturb_of_the_prior_reads_only() {
        use crate::disturb::DisturbModel;
        let mut dev = device();
        // A pathological per-read term: any read that (incorrectly)
        // counted itself would see RBER 0.5 and shred the page.
        dev.set_disturb_model(DisturbModel {
            read_disturb_per_read: 0.5,
            ..DisturbModel::disabled()
        });
        dev.erase_block(0).unwrap();
        let data = vec![0u8; 4096];
        dev.program_page(0, 0, &data, &[]).unwrap();
        let errs = |d: &[u8]| -> usize {
            d.iter()
                .zip(&data)
                .map(|(a, b)| (a ^ b).count_ones() as usize)
                .sum()
        };
        // First read: zero prior reads, so only the (tiny) fresh
        // endurance RBER applies.
        let (d, _, _) = dev.read_page(0, 0).unwrap();
        assert!(
            errs(&d) <= 2,
            "first read saw its own disturb: {}",
            errs(&d)
        );
        // Second read: one prior read pushes the RBER to the 0.5 cap.
        let (d, _, _) = dev.read_page(0, 0).unwrap();
        assert!(errs(&d) > 1_000, "second read must see prior disturb");
    }

    #[test]
    fn block_disturb_state_accessors() {
        use crate::disturb::DisturbModel;
        let mut dev = device();
        dev.set_disturb_model(DisturbModel::date2012());
        assert_eq!(dev.block_data_age_hours(0).unwrap(), 0.0);
        assert_eq!(dev.block_disturb_rber(0, 0).unwrap(), 0.0);
        dev.age_block(0, 1_000_000).unwrap();
        dev.erase_block(0).unwrap();
        dev.program_page(0, 0, vec![0u8; 4096], &[]).unwrap();
        dev.advance_time_hours(100.0).unwrap();
        dev.program_page(0, 1, vec![0u8; 4096], &[]).unwrap();
        // Oldest page wins the age; rber = read term + worst retention.
        assert!((dev.block_data_age_hours(0).unwrap() - 100.0).abs() < 1e-9);
        dev.read_page(0, 0).unwrap();
        dev.read_page(0, 1).unwrap();
        let m = *dev.disturb_model();
        // The erase after the fast-forward added one cycle of its own.
        // Programming page 1 coupled one interference event onto page 0,
        // the block's worst (oldest) page.
        let expected =
            m.read_disturb_rber(2) + (m.retention_rber(100.0, 1_000_001) + m.program_coupling_rber);
        assert!((dev.block_disturb_rber(0, 0).unwrap() - expected).abs() < 1e-15);
        // Erase resets both axes.
        dev.erase_block(0).unwrap();
        assert_eq!(dev.block_data_age_hours(0).unwrap(), 0.0);
        assert_eq!(dev.block_disturb_rber(0, 0).unwrap(), 0.0);
        assert!(dev.block_disturb_rber(9_999, 0).is_err());
    }

    #[test]
    fn retention_raises_error_rate_over_time() {
        use crate::disturb::DisturbModel;
        let mut dev = device();
        dev.set_disturb_model(DisturbModel {
            retention_scale: 5e-4,
            ..DisturbModel::disabled()
        });
        dev.age_block(0, 1_000_000).unwrap();
        dev.erase_block(0).unwrap();
        let data = vec![0u8; 4096];
        dev.program_page(0, 0, &data, &[]).unwrap();
        let count_errs = |dev: &mut NandDevice| -> usize {
            let mut total = 0;
            for _ in 0..8 {
                let (d, _, _) = dev.read_page(0, 0).unwrap();
                total += d
                    .iter()
                    .zip(&data)
                    .map(|(a, b)| (a ^ b).count_ones() as usize)
                    .sum::<usize>();
            }
            total
        };
        let fresh = count_errs(&mut dev);
        dev.advance_time_hours(10_000.0).unwrap();
        assert!((dev.now_hours() - 10_000.0).abs() < 1e-9);
        let aged = count_errs(&mut dev);
        assert!(aged > fresh, "aged {aged} vs fresh {fresh}");
    }

    #[test]
    fn offset_reads_track_the_shift_and_zero_offset_matches_read_page() {
        use crate::disturb::DisturbModel;
        // Two identically-seeded devices: read_page on one must be
        // bit-identical to read_page_at(.., 0) on the other.
        let build = || {
            let mut dev = device();
            dev.set_disturb_model(DisturbModel {
                retention_scale: 5e-4,
                rber_per_step: 1e-3,
                ..DisturbModel::disabled()
            });
            dev.age_block(0, 1_000_000).unwrap();
            dev.erase_block(0).unwrap();
            dev.program_page(0, 0, vec![0xA5u8; 4096], &[0x5Au8; 16])
                .unwrap();
            dev.advance_time_hours(20_000.0).unwrap();
            dev
        };
        let (mut a, mut b) = (build(), build());
        for _ in 0..6 {
            let (da, sa, _) = a.read_page(0, 0).unwrap();
            let (db, sb, _, _) = b.read_page_at(0, 0, 0).unwrap();
            assert_eq!(da, db);
            assert_eq!(sa, sb);
        }

        // Sensing near the modeled shift injects fewer raw errors than
        // sensing at nominal (averaged over reads on a fresh pair).
        let count = |dev: &mut NandDevice, offset: i32| -> usize {
            (0..16)
                .map(|_| {
                    let (d, _, _, _) = dev.read_page_at(0, 0, offset).unwrap();
                    d.iter()
                        .zip(std::iter::repeat(&0xA5u8))
                        .map(|(x, y)| (x ^ y).count_ones() as usize)
                        .sum::<usize>()
                })
                .sum()
        };
        let (mut nominal, mut tuned) = (build(), build());
        let m = nominal.disturb_model();
        let shift = m.rber_at_offset(0, 20_000.0, 1_000_001, 0.0, 0) / m.rber_per_step;
        let rung = shift.round() as i32;
        assert!(rung >= 1, "the stress must shift at least one step");
        let at_nominal = count(&mut nominal, 0);
        let at_optimum = count(&mut tuned, rung);
        assert!(
            at_optimum < at_nominal / 2,
            "tuned {at_optimum} vs nominal {at_nominal}"
        );

        // Retry senses are not free: each bumps the disturb accumulator.
        assert_eq!(nominal.block_reads_since_erase(0).unwrap(), 16);
    }

    #[test]
    fn multi_die_bank_ages_independently() {
        let mut dev = NandDevice::with_config(
            DeviceGeometry::date2012_topology(2, 2), // 4 dies x 64 blocks
            NandTiming::date2012(),
            IsppConfig::date2012(),
            AgingModel::date2012(),
            HvSubsystem::date2012(),
            CodeStore::dual_rom(),
            7,
        );
        assert_eq!(dev.geometry().topology.total_dies(), 4);
        // Age dies 1 and 3 only: the others stay fresh.
        dev.age_die(1, 10_000).unwrap();
        dev.age_die(3, 250_000).unwrap();
        assert_eq!(dev.die_max_cycles(0).unwrap(), 0);
        assert_eq!(dev.die_mean_cycles(1).unwrap(), 10_000);
        assert_eq!(dev.die_max_cycles(3).unwrap(), 250_000);
        // Block-level wear reflects the die partition boundary.
        assert_eq!(dev.block_cycles(63).unwrap(), 0);
        assert_eq!(dev.block_cycles(64).unwrap(), 10_000);

        // Die addressing is validated.
        assert_eq!(
            dev.age_die(4, 1),
            Err(NandError::DieOutOfRange { die: 4, dies: 4 })
        );
        assert!(matches!(
            dev.die_max_cycles(99),
            Err(NandError::DieOutOfRange { .. })
        ));
    }

    #[test]
    fn die_zero_stream_matches_the_single_die_device() {
        // The 1x1 topology must reproduce the historical single-die
        // model exactly; die 0 of a wider bank replays the same stream.
        let mut single = NandDevice::date2012(1234);
        let mut bank = NandDevice::with_config(
            DeviceGeometry::date2012_topology(4, 1),
            NandTiming::date2012(),
            IsppConfig::date2012(),
            AgingModel::date2012(),
            HvSubsystem::date2012(),
            CodeStore::dual_rom(),
            1234,
        );
        let data = vec![0x5Au8; 4096];
        for dev in [&mut single, &mut bank] {
            dev.age_block(0, 1_000_000).unwrap();
            dev.erase_block(0).unwrap();
            dev.program_page(0, 0, &data, &[]).unwrap();
        }
        for _ in 0..8 {
            let (a, _, _) = single.read_page(0, 0).unwrap();
            let (b, _, _) = bank.read_page(0, 0).unwrap();
            assert_eq!(a, b, "die 0 must replay the single-die stream");
        }
    }

    #[test]
    fn short_spare_pads_and_exact_spare_round_trips() {
        let mut dev = device();
        let oob = dev.geometry().spare_bytes;
        dev.erase_block(0).unwrap();
        // Empty spare: reads back as a full OOB area of erased bytes.
        dev.program_page(0, 0, vec![0u8; 4096], &[]).unwrap();
        let (_, s, _) = dev.read_page(0, 0).unwrap();
        assert_eq!(s.len(), oob);
        assert!(s.iter().all(|&b| b == 0xFF));
        // Exact-size spare: round-trips at full length, unpadded.
        let full = vec![0x33u8; oob];
        dev.program_page(0, 1, vec![0u8; 4096], &full).unwrap();
        let (_, s, _) = dev.read_page(0, 1).unwrap();
        assert_eq!(s.len(), oob);
        let diff: usize = s
            .iter()
            .zip(&full)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        assert!(diff <= 2, "diff = {diff}");
        // Oversized spare is still rejected.
        assert!(matches!(
            dev.program_page(0, 2, vec![0u8; 4096], vec![0u8; oob + 1]),
            Err(NandError::BufferSize { what: "spare", .. })
        ));
    }

    #[test]
    fn pages_must_program_in_ascending_order() {
        let mut dev = device();
        dev.erase_block(0).unwrap();
        let data = vec![0u8; 4096];
        // Skipping ahead names the page the block expects next.
        assert_eq!(
            dev.program_page(0, 2, &data, &[]),
            Err(NandError::PageOutOfOrder {
                block: 0,
                page: 2,
                expected: 0
            })
        );
        dev.program_page(0, 0, &data, &[]).unwrap();
        assert_eq!(
            dev.program_page(0, 3, &data, &[]),
            Err(NandError::PageOutOfOrder {
                block: 0,
                page: 3,
                expected: 1
            })
        );
        // The in-order sequence is accepted, and a double program still
        // reports PageNotErased (not an order violation).
        dev.program_page(0, 1, &data, &[]).unwrap();
        dev.program_page(0, 2, &data, &[]).unwrap();
        assert_eq!(
            dev.program_page(0, 1, &data, &[]),
            Err(NandError::PageNotErased { block: 0, page: 1 })
        );
        // Erase resets the expected sequence.
        dev.erase_block(0).unwrap();
        dev.program_page(0, 0, &data, &[]).unwrap();
    }

    #[test]
    fn neighbor_programs_couple_onto_programmed_pages_only() {
        use crate::disturb::DisturbModel;
        let mut dev = device();
        dev.set_disturb_model(DisturbModel {
            program_coupling_rber: 1e-4,
            ..DisturbModel::disabled()
        });
        dev.erase_block(0).unwrap();
        let data = vec![0u8; 4096];
        dev.program_page(0, 0, &data, &[]).unwrap();
        assert_eq!(dev.page_interference_rber(0, 0).unwrap(), 0.0);
        // Programming page 1 disturbs its programmed neighbor (page 0)
        // but not the blank page 2 above it.
        dev.program_page(0, 1, &data, &[]).unwrap();
        assert_eq!(dev.page_interference_rber(0, 0).unwrap(), 1e-4);
        assert_eq!(dev.page_interference_rber(0, 1).unwrap(), 0.0);
        // Page 2's program disturbs page 1; page 0 is not adjacent.
        dev.program_page(0, 2, &data, &[]).unwrap();
        assert_eq!(dev.page_interference_rber(0, 0).unwrap(), 1e-4);
        assert_eq!(dev.page_interference_rber(0, 1).unwrap(), 1e-4);
        assert_eq!(dev.block_interference_rber(0).unwrap(), 1e-4);
        // Page 2 was blank while pages 0 and 1 were programmed, so it
        // carries no events from before its own program.
        assert_eq!(dev.page_interference_rber(0, 2).unwrap(), 0.0);
        // Erase clears the whole interference state.
        dev.erase_block(0).unwrap();
        assert_eq!(dev.block_interference_rber(0).unwrap(), 0.0);
    }

    #[test]
    fn die_program_disturb_charges_other_blocks_only() {
        use crate::disturb::DisturbModel;
        let mut dev = device();
        dev.set_disturb_model(DisturbModel {
            program_disturb_per_program: 1e-5,
            ..DisturbModel::disabled()
        });
        dev.erase_block(0).unwrap();
        dev.erase_block(1).unwrap();
        let data = vec![0u8; 4096];
        dev.program_page(0, 0, &data, &[]).unwrap();
        // Two programs land on another block of the same (only) die.
        dev.program_page(1, 0, &data, &[]).unwrap();
        dev.program_page(1, 1, &data, &[]).unwrap();
        assert_eq!(dev.page_interference_rber(0, 0).unwrap(), 2e-5);
        // Block 1's own programs are coupling, not die disturb: page
        // (1,0) saw one die-wide program since it was written, but it
        // was its own block's.
        assert_eq!(dev.page_interference_rber(1, 0).unwrap(), 0.0);
        assert_eq!(dev.block_interference_rber(0).unwrap(), 2e-5);
    }

    #[test]
    fn partial_program_reads_corrupt_until_erase() {
        use crate::disturb::DisturbModel;
        let mut dev = device();
        dev.set_disturb_model(DisturbModel {
            partial_program_rber: 0.2,
            ..DisturbModel::disabled()
        });
        dev.erase_block(0).unwrap();
        let data = vec![0u8; 4096];
        // Interrupt the next program after a quarter of its staircase.
        dev.arm_partial_program(0.25);
        assert!(dev.partial_program_armed());
        let partial = dev.program_page(0, 0, &data, &[]).unwrap();
        assert!(!dev.partial_program_armed(), "the arm is one-shot");
        assert!(dev.page_partially_programmed(0, 0).unwrap());
        assert!(dev.page_interference_rber(0, 0).unwrap() > 0.1);
        let (d, _, _) = dev.read_page(0, 0).unwrap();
        let errs: usize = d
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        assert!(errs > 1_000, "partial page must read corrupt: {errs}");
        // The interrupted staircase also costs less program time.
        dev.erase_block(0).unwrap();
        let full = dev.program_page(0, 0, &data, &[]).unwrap();
        assert!(partial.duration_s < 0.5 * full.duration_s);
        // After the erase + clean reprogram the page reads clean again.
        assert!(!dev.page_partially_programmed(0, 0).unwrap());
        let (d, _, _) = dev.read_page(0, 0).unwrap();
        let errs: usize = d
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        assert!(errs <= 2, "clean reprogram must read clean: {errs}");
    }

    #[test]
    fn interference_counters_are_inert_under_a_disabled_model() {
        // Counters are maintained unconditionally, but a disabled model
        // multiplies them by exactly 0.0: RBER views stay at zero.
        let mut dev = device();
        dev.erase_block(0).unwrap();
        dev.erase_block(1).unwrap();
        let data = vec![0u8; 4096];
        for page in 0..4 {
            dev.program_page(0, page, &data, &[]).unwrap();
            dev.program_page(1, page, &data, &[]).unwrap();
        }
        for page in 0..4 {
            assert_eq!(dev.page_interference_rber(0, page).unwrap(), 0.0);
        }
        assert_eq!(dev.block_interference_rber(0).unwrap(), 0.0);
        assert_eq!(dev.block_disturb_rber(0, 0).unwrap(), 0.0);
    }

    /// The formulas the page terms replaced, as they summed: the oracle
    /// [`RberTerms`]' totals are held to, bit for bit.
    mod before {
        use super::*;

        /// `DisturbModel::rber_at_offset` with its nominal sum.
        fn rber_at_offset(
            m: &DisturbModel,
            reads: u64,
            hours: f64,
            cycles: u64,
            interference: f64,
            offset: i32,
        ) -> f64 {
            let nominal =
                (m.read_disturb_rber(reads) + m.retention_rber(hours, cycles)) + interference;
            if offset == 0 {
                return nominal;
            }
            let shift = nominal / m.rber_per_step;
            let off = offset as f64;
            if shift == 0.0 {
                return nominal + m.offset_misread_rber * off * off;
            }
            let residual = nominal * m.offset_residual_fraction;
            let dist = (off - shift) / shift;
            residual + (nominal - residual) * dist * dist
        }

        /// A stored page's program-interference term.
        pub(super) fn interference(dev: &NandDevice, block: usize, p: &StoredPage) -> f64 {
            let m = &dev.disturb;
            let die_delta =
                dev.die_programs[dev.geometry.die_of_block(block)] - p.die_programs_at_program;
            let own_delta = dev.blocks[block].programs - p.block_programs_at_program;
            let programs = die_delta.saturating_sub(own_delta);
            m.program_coupling_rber * p.interference_events as f64
                + m.program_disturb_per_program * programs as f64
                + m.partial_program_rber * p.partial_missing
        }

        fn age(dev: &NandDevice, p: &StoredPage) -> f64 {
            dev.clock_hours - p.programmed_at_hours
        }

        /// The RBER the next read of `(block, page)` at `offset` injects.
        pub(super) fn read_rber(dev: &NandDevice, block: usize, page: usize, offset: i32) -> f64 {
            let b = &dev.blocks[block];
            let p = &b.pages[page];
            let extra = rber_at_offset(
                &dev.disturb,
                b.reads_since_erase,
                age(dev, p),
                p.cycles_at_program,
                interference(dev, block, p),
                offset,
            );
            (p.endurance_rber + extra).min(0.5)
        }

        /// `NandDevice::block_disturb_rber`, both branches.
        pub(super) fn block_disturb(dev: &NandDevice, block: usize, offset: i32) -> f64 {
            let b = &dev.blocks[block];
            if b.programmed == 0 {
                return 0.0;
            }
            let m = &dev.disturb;
            let pages = b.stored().iter();
            if offset == 0 {
                let retention = pages
                    .map(|p| {
                        m.retention_rber(age(dev, p), p.cycles_at_program)
                            + interference(dev, block, p)
                    })
                    .fold(0.0, f64::max);
                return m.read_disturb_rber(b.reads_since_erase) + retention;
            }
            pages
                .map(|p| {
                    let interference = interference(dev, block, p);
                    let (reads, cycles) = (b.reads_since_erase, p.cycles_at_program);
                    rber_at_offset(m, reads, age(dev, p), cycles, interference, offset)
                })
                .fold(0.0, f64::max)
        }
    }

    /// Every block query agrees with [`before`] to the bit, at offsets
    /// -3..=3.
    fn assert_block_queries_match(dev: &NandDevice) {
        for block in 0..4 {
            for offset in -3..=3 {
                let terms = dev.block_disturb_rber(block, offset).unwrap();
                let oracle = before::block_disturb(dev, block, offset);
                assert_eq!(
                    terms.to_bits(),
                    oracle.to_bits(),
                    "block {block} at {offset}"
                );
            }
            let pages = dev.blocks[block].stored();
            let oracle = pages
                .iter()
                .map(|p| before::interference(dev, block, p))
                .fold(0.0, f64::max);
            let worst = dev.block_interference_rber(block).unwrap();
            assert_eq!(worst.to_bits(), oracle.to_bits(), "block {block}");
            for (page, p) in pages.iter().enumerate() {
                let oracle = before::interference(dev, block, p).to_bits();
                let terms = dev.page_interference_rber(block, page).unwrap();
                assert_eq!(terms.to_bits(), oracle, "page ({block}, {page})");
            }
        }
    }

    /// Reads `(block, page)` at `offset`, asserting that its terms sum
    /// to what [`before`] says the read injects.
    fn read_matches(dev: &mut NandDevice, block: usize, page: usize, offset: i32) -> RberTerms {
        let oracle = before::read_rber(dev, block, page, offset);
        let interference = before::interference(dev, block, &dev.blocks[block].pages[page]);
        let (_, _, _, terms) = dev.read_page_at(block, page, offset).unwrap();
        let sensed = terms.sensed_at(&dev.disturb, offset);
        assert_eq!(
            sensed.to_bits(),
            oracle.to_bits(),
            "({block}, {page}) at {offset}"
        );
        assert_eq!(terms.interference().to_bits(), interference.to_bits());
        terms
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// Random coefficients for every mechanism; random erases after
        /// random wear, programs (one in five interrupted), clock steps
        /// and reads at offsets -3..=3 on four blocks of one die. Each
        /// read's terms and every block query stay on [`before`]'s bits.
        #[test]
        fn page_terms_sum_to_the_formulas_they_replaced(
            coefficients in (1e-9f64..1e-4, 1e-6f64..1e-3, 1e-9f64..1e-4, 1e-9f64..1e-5, 1e-3f64..0.2),
            steps in proptest::collection::vec((0u32..8, 0usize..4, 0u32..7, 0.0f64..1.0), 1..120),
        ) {
            let (per_read, retention, coupling, die_disturb, partial) = coefficients;
            let mut dev = device();
            dev.set_disturb_model(DisturbModel {
                read_disturb_per_read: per_read,
                retention_scale: retention,
                program_coupling_rber: coupling,
                program_disturb_per_program: die_disturb,
                partial_program_rber: partial,
                ..DisturbModel::date2012()
            });
            let data = vec![0x3Cu8; dev.geometry().page_bytes];
            for block in 0..4 {
                dev.erase_block(block).unwrap();
            }
            // Page (0, 0), coupled by page 1, disturbed by block 1's
            // program and aged, read twice: the second read carries read
            // disturb, retention and interference at once.
            dev.program_page(0, 0, &data, &[]).unwrap();
            dev.program_page(0, 1, &data, &[]).unwrap();
            dev.program_page(1, 0, &data, &[]).unwrap();
            dev.advance_time_hours(100.0).unwrap();
            read_matches(&mut dev, 0, 0, 0);
            let t = read_matches(&mut dev, 0, 0, 0);
            proptest::prop_assert!(t.read_disturb > 0.0 && t.retention > 0.0 && t.interference() > 0.0);
            assert_block_queries_match(&dev);

            for (kind, block, rung, x) in steps {
                let offset = rung as i32 - 3;
                let programmed = dev.blocks[block].programmed;
                match kind {
                    0 => {
                        dev.age_block(block, (x * 1e6) as u64).unwrap();
                        dev.erase_block(block).unwrap();
                    }
                    1 | 2 if programmed < 8 => {
                        if x < 0.2 {
                            dev.arm_partial_program(x * 5.0);
                        }
                        dev.program_page(block, programmed, &data, &[]).unwrap();
                    }
                    3 => dev.advance_time_hours(x * 5_000.0).unwrap(),
                    _ if programmed > 0 => {
                        let page = (x * programmed as f64) as usize;
                        read_matches(&mut dev, block, page, offset);
                    }
                    _ => {}
                }
                assert_block_queries_match(&dev);
            }
        }
    }

    #[test]
    fn binomial_sampler_sane() {
        let mut rng = StdRng::seed_from_u64(3);
        // Tiny expectation: almost always zero.
        let tiny: usize = (0..1000)
            .map(|_| sample_binomial(&mut rng, 1000, 1e-9))
            .sum();
        assert!(tiny <= 1);
        // Moderate expectation: mean within 20%.
        let n = 2000u64;
        let p = 0.005;
        let total: usize = (0..2000).map(|_| sample_binomial(&mut rng, n, p)).sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 10.0).abs() < 2.0, "mean = {mean}");
        // Large expectation: normal path.
        let big = sample_binomial(&mut rng, 100_000, 0.01);
        assert!((500..1500).contains(&big), "big = {big}");
    }
}
