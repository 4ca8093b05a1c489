//! The device's two "pay once" structures against what they replaced:
//! the operation-cost table against `Sequencer::execute` on the phase
//! list it stands for (to the bit), and the prefix page store that keeps
//! its buffers against a `Vec<Option<page>>` model of the block.

use mlcx_hv::{HvSubsystem, Phase, PhaseKind, Sequencer};
use mlcx_nand::device::CodeStore;
use mlcx_nand::disturb::DisturbModel;
use mlcx_nand::ispp::program_profile;
use mlcx_nand::{
    AgingModel, DeviceGeometry, IsppConfig, NandDevice, NandError, NandTiming, OpReport,
    ProgramAlgorithm, Topology,
};
use proptest::prelude::*;

fn device(geometry: DeviceGeometry, seed: u64) -> NandDevice {
    NandDevice::with_config(
        geometry,
        NandTiming::date2012(),
        IsppConfig::date2012(),
        AgingModel::date2012(),
        HvSubsystem::date2012(),
        CodeStore::dual_rom(),
        seed,
    )
}

/// Pulses a program at this wear runs, and how many of them a partial
/// arm at `fraction` lets execute.
fn pulses(algorithm: ProgramAlgorithm, cycles: u64, fraction: Option<f64>) -> (u32, u32) {
    let profile = program_profile(&IsppConfig::date2012(), algorithm, cycles);
    let count = profile.pulses.round().max(1.0) as u32;
    let executed = match fraction {
        Some(f) => (f64::from(count) * f).floor() as u32,
        None => count,
    };
    (count, executed)
}

/// The oracle: the operation's enable-signal program, built here phase by
/// phase and run through the sequencer, plus the command overhead.
struct Oracle {
    sequencer: Sequencer,
    ispp: IsppConfig,
    timing: NandTiming,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            sequencer: Sequencer::new(HvSubsystem::date2012()),
            ispp: IsppConfig::date2012(),
            timing: NandTiming::date2012(),
        }
    }

    /// `(duration_s, energy_j)` as the device reports them.
    fn run(&self, phases: &[Phase]) -> (f64, f64) {
        let op = self.sequencer.execute(phases);
        (
            op.duration_s() + self.timing.command_overhead_s,
            op.total_energy_j(),
        )
    }

    fn program(
        &self,
        algorithm: ProgramAlgorithm,
        cycles: u64,
        fraction: Option<f64>,
    ) -> (f64, f64) {
        let profile = program_profile(&self.ispp, algorithm, cycles);
        let (_, executed) = pulses(algorithm, cycles, fraction);
        let mut phases = Vec::new();
        for i in 0..executed {
            phases.push(Phase {
                kind: PhaseKind::ProgramPulse {
                    target_v: self.ispp.pulse_voltage(i),
                },
                duration_s: self.ispp.pulse_s,
            });
            phases.push(Phase {
                kind: PhaseKind::Verify { level: 1 },
                duration_s: profile.verifies_per_pulse * self.ispp.verify_s,
            });
        }
        self.run(&phases)
    }

    fn read(&self) -> (f64, f64) {
        self.run(&[Phase {
            kind: PhaseKind::Read,
            duration_s: self.timing.read_page_s,
        }])
    }

    fn erase(&self) -> (f64, f64) {
        self.run(&[Phase {
            kind: PhaseKind::ErasePulse,
            duration_s: self.timing.erase_block_s,
        }])
    }
}

#[track_caller]
fn assert_report_bits(report: &OpReport, (duration_s, energy_j): (f64, f64), what: &str) {
    assert_eq!(
        report.duration_s.to_bits(),
        duration_s.to_bits(),
        "{what}: duration {} vs oracle {duration_s}",
        report.duration_s
    );
    assert_eq!(
        report.energy_j.to_bits(),
        energy_j.to_bits(),
        "{what}: energy {} vs oracle {energy_j}",
        report.energy_j
    );
}

#[test]
fn cost_table_equals_the_sequencer_to_the_bit() {
    let oracle = Oracle::new();
    let mut dev = device(DeviceGeometry::date2012(), 5);
    let data = vec![0x3Cu8; 4096];
    // Ascending wear extends each algorithm's table past its first build
    // (21 -> 22 pairs for SV, 24 -> 33 for DV); the descending pass then
    // reads entries inside a table built for more.
    let wears = [1u64, 1_000, 100_000, 1_000_000, 3_000_000];
    let mut block = 0;
    for &wear in wears.iter().chain(wears.iter().rev()) {
        for algorithm in ProgramAlgorithm::ALL {
            dev.select_algorithm(algorithm).unwrap();
            dev.age_block(block, wear - 1).unwrap();
            let erase = dev.erase_block(block).unwrap();
            assert_report_bits(&erase, oracle.erase(), "erase");
            assert_eq!(dev.block_cycles(block).unwrap(), wear);
            for (page, fraction) in [None, Some(0.0), Some(0.3), Some(1.0)]
                .into_iter()
                .enumerate()
            {
                if let Some(f) = fraction {
                    dev.arm_partial_program(f);
                }
                let report = dev.program_page(block, page, &data, &[]).unwrap();
                let what = format!("{algorithm} at {wear} cycles, arm {fraction:?}");
                assert_report_bits(&report, oracle.program(algorithm, wear, fraction), &what);
                let (_, _, read) = dev.read_page(block, page).unwrap();
                assert_report_bits(&read, oracle.read(), "read");
            }
            block += 1;
        }
    }
    let (full, none) = pulses(ProgramAlgorithm::IsppDv, 3_000_000, Some(0.0));
    assert!(
        full > pulses(ProgramAlgorithm::IsppDv, 1, None).0 && none == 0,
        "the wear list must extend the table and the 0.0 arm must run nothing"
    );

    // A second input: a mixed sequence on a two-die device — one block
    // per die at different wear, both algorithms, a partial arm and
    // skipped reads interleaved.
    let geometry = DeviceGeometry::date2012_topology(1, 2);
    let mut dev = device(geometry, 6);
    let data = vec![0xA5u8; 4096];
    let blocks = [0, geometry.blocks_per_die()];
    dev.age_block(blocks[1], 250_000).unwrap();
    for round in 0..3 {
        for (die, &block) in blocks.iter().enumerate() {
            let erase = dev.erase_block(block).unwrap();
            assert_report_bits(&erase, oracle.erase(), "two-die erase");
            let cycles = dev.block_cycles(block).unwrap();
            for page in 0..4 {
                let algorithm = ProgramAlgorithm::ALL[(page + round + die) % 2];
                dev.select_algorithm(algorithm).unwrap();
                let fraction = (page == 2).then_some(0.5);
                if let Some(f) = fraction {
                    dev.arm_partial_program(f);
                }
                let report = dev.program_page(block, page, &data, &[]).unwrap();
                let what = format!("die {die}: {algorithm} at {cycles} cycles, arm {fraction:?}");
                assert_report_bits(&report, oracle.program(algorithm, cycles, fraction), &what);
                if page != 1 {
                    let (_, _, read) = dev.read_page(block, page).unwrap();
                    assert_report_bits(&read, oracle.read(), "two-die read");
                }
            }
        }
    }
}

// ---- the page store against a `Vec<Option<page>>` model ----

const BLOCKS: usize = 4;
const PAGES: usize = 5;
const PAGE_BYTES: usize = 32;
const SPARE_BYTES: usize = 12;
/// Raw bit flips tolerated in one read-back of the 352 stored bits: the
/// injected RBER stays below 2e-3 here (mean under one flip).
const FLIP_BUDGET: u32 = 10;

fn small_geometry() -> DeviceGeometry {
    DeviceGeometry {
        blocks: BLOCKS,
        pages_per_block: PAGES,
        page_bytes: PAGE_BYTES,
        spare_bytes: SPARE_BYTES,
        topology: Topology::new(1, 2),
    }
}

/// One programmed page as the pre-prefix store held it: `None` in the
/// block's vector is a blank page.
#[derive(Clone)]
struct ModelPage {
    data: Vec<u8>,
    spare: Vec<u8>,
    cycles: u64,
    at_hours: f64,
    events: u64,
    missing: f64,
    die_programs: u64,
    block_programs: u64,
}

struct ModelBlock {
    pages: Vec<Option<ModelPage>>,
    cycles: u64,
    reads: u64,
    programs: u64,
}

struct Model {
    blocks: Vec<ModelBlock>,
    die_programs: [u64; 2],
    now_hours: f64,
    disturb: DisturbModel,
}

impl Model {
    fn interference(&self, block: usize, p: &ModelPage) -> f64 {
        let die = small_geometry().die_of_block(block);
        let die_delta = self.die_programs[die] - p.die_programs;
        let own_delta = self.blocks[block].programs - p.block_programs;
        self.disturb
            .interference_rber(p.events, die_delta.saturating_sub(own_delta), p.missing)
    }

    fn stored(&self, block: usize) -> impl Iterator<Item = &ModelPage> {
        self.blocks[block].pages.iter().flatten()
    }

    /// Every block- and page-level view of the device equals the model's,
    /// computed from programmed pages only.
    fn assert_views(&self, dev: &NandDevice) {
        for (block, b) in self.blocks.iter().enumerate() {
            assert_eq!(dev.block_reads_since_erase(block).unwrap(), b.reads);
            let age = self
                .stored(block)
                .map(|p| self.now_hours - p.at_hours)
                .fold(0.0, f64::max);
            assert_eq!(dev.block_data_age_hours(block).unwrap(), age);
            let worst_interference = self
                .stored(block)
                .map(|p| self.interference(block, p))
                .fold(0.0, f64::max);
            assert_eq!(
                dev.block_interference_rber(block).unwrap(),
                worst_interference
            );
            let blank = self.stored(block).next().is_none();
            let disturb = if blank {
                0.0
            } else {
                self.disturb.read_disturb_rber(b.reads)
                    + self
                        .stored(block)
                        .map(|p| {
                            self.disturb
                                .retention_rber(self.now_hours - p.at_hours, p.cycles)
                                + self.interference(block, p)
                        })
                        .fold(0.0, f64::max)
            };
            assert_eq!(dev.block_disturb_rber(block, 0).unwrap(), disturb);
            for offset in [-1, 2] {
                let at = self
                    .stored(block)
                    .map(|p| {
                        self.disturb.rber_at_offset(
                            b.reads,
                            self.now_hours - p.at_hours,
                            p.cycles,
                            self.interference(block, p),
                            offset,
                        )
                    })
                    .fold(0.0, f64::max);
                assert_eq!(dev.block_disturb_rber(block, offset).unwrap(), at);
            }
            for (page, slot) in b.pages.iter().enumerate() {
                let (interference, partial) = match slot {
                    Some(p) => (self.interference(block, p), p.missing > 0.0),
                    None => (0.0, false),
                };
                assert_eq!(
                    dev.page_interference_rber(block, page).unwrap(),
                    interference,
                    "block {block} page {page}"
                );
                assert_eq!(dev.page_partially_programmed(block, page).unwrap(), partial);
            }
        }
    }
}

fn hamming(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Erase / program / read / age / time sequences: the store that
    /// keeps a block's buffers across erases is indistinguishable from
    /// one that drops them.
    #[test]
    fn page_store_matches_the_option_model(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (0u8..10, 0usize..BLOCKS, 0usize..PAGES, 0usize..=SPARE_BYTES, 0u8..0x80),
            40..120,
        ),
    ) {
        let mut dev = device(small_geometry(), seed);
        dev.set_disturb_model(DisturbModel::date2012());
        let mut model = Model {
            blocks: (0..BLOCKS)
                .map(|_| ModelBlock {
                    pages: vec![None; PAGES],
                    cycles: 0,
                    reads: 0,
                    programs: 0,
                })
                .collect(),
            die_programs: [0; 2],
            now_hours: 0.0,
            disturb: DisturbModel::date2012(),
        };
        for (kind, block, page, spare_len, byte) in ops {
            match kind {
                0 => {
                    dev.erase_block(block).unwrap();
                    let b = &mut model.blocks[block];
                    b.pages = vec![None; PAGES];
                    b.cycles += 1;
                    b.reads = 0;
                }
                // Mostly the page the block expects next, so blocks fill,
                // erase and refill; sometimes any page, for the errors.
                1..=5 => {
                    let next = model.blocks[block].pages.iter().position(Option::is_none);
                    let page = if kind == 5 { page } else { next.unwrap_or(page) };
                    // Never 0xFF, so a stale byte cannot pass for the pad.
                    let data = vec![byte; PAGE_BYTES];
                    let spare = vec![byte ^ 0x55; spare_len];
                    let b = &model.blocks[block];
                    // The pre-prefix precedence: overwrite first, then the
                    // first blank page below.
                    let lower_blank = b.pages[..page].iter().position(Option::is_none);
                    let rejection = if b.pages[page].is_some() {
                        Some(NandError::PageNotErased { block, page })
                    } else {
                        lower_blank.map(|expected| NandError::PageOutOfOrder {
                            block,
                            page,
                            expected,
                        })
                    };
                    // Armed only when the program will run: a rejected
                    // program leaves the arm for the next one.
                    let fraction = (kind == 4 && rejection.is_none())
                        .then_some(f64::from(byte) / 128.0);
                    if let Some(f) = fraction {
                        dev.arm_partial_program(f);
                    }
                    let got = dev.program_page(block, page, &data, &spare);
                    if let Some(error) = rejection {
                        prop_assert_eq!(got, Err(error));
                        model.assert_views(&dev);
                        continue;
                    }
                    prop_assert!(got.is_ok(), "{got:?}");
                    let die = small_geometry().die_of_block(block);
                    let algorithm = dev.algorithm();
                    let (count, executed) = pulses(algorithm, b.cycles, fraction);
                    model.die_programs[die] += 1;
                    let b = &mut model.blocks[block];
                    b.programs += 1;
                    // The old coupling rule, both neighbours: a blank one
                    // is untouched.
                    for n in [page.checked_sub(1), page.checked_add(1)].into_iter().flatten() {
                        if let Some(Some(p)) = b.pages.get_mut(n) {
                            p.events += 1;
                        }
                    }
                    b.pages[page] = Some(ModelPage {
                        data,
                        spare,
                        cycles: b.cycles,
                        at_hours: model.now_hours,
                        events: 0,
                        missing: f64::from(count - executed) / f64::from(count),
                        die_programs: model.die_programs[die],
                        block_programs: b.programs,
                    });
                }
                6 | 7 => {
                    let got = dev.read_page(block, page);
                    match model.blocks[block].pages[page].clone() {
                        None => prop_assert_eq!(
                            got.map(|_| ()),
                            Err(NandError::PageNotProgrammed { block, page })
                        ),
                        Some(p) => {
                            let (data, spare, _) = got.unwrap();
                            model.blocks[block].reads += 1;
                            prop_assert_eq!(spare.len(), SPARE_BYTES);
                            // The pad is appended after injection: exact.
                            prop_assert!(
                                spare[p.spare.len()..].iter().all(|&b| b == 0xFF),
                                "stale spare tail: {spare:?} after programming {:?}",
                                p.spare
                            );
                            if p.missing == 0.0 {
                                let flips = hamming(&data, &p.data)
                                    + hamming(&spare[..p.spare.len()], &p.spare);
                                prop_assert!(flips <= FLIP_BUDGET, "{flips} flips");
                            }
                        }
                    }
                }
                8 => {
                    let cycles = [1, 1_000, 100_000][page % 3];
                    dev.age_block(block, cycles).unwrap();
                    model.blocks[block].cycles += cycles;
                    dev.select_algorithm(ProgramAlgorithm::ALL[spare_len % 2]).unwrap();
                }
                _ => {
                    let hours = f64::from(byte) * 10.0;
                    dev.advance_time_hours(hours).unwrap();
                    model.now_hours += hours;
                }
            }
            model.assert_views(&dev);
        }
    }
}

/// The hazard the retained buffers open, spelled out: a full block of
/// long spares and loud metadata, erased and partially refilled with
/// shorter spares, shows nothing of its previous content.
#[test]
fn refilled_slots_show_nothing_of_their_previous_content() {
    let mut dev = device(small_geometry(), 11);
    dev.set_disturb_model(DisturbModel::date2012());
    for page in 0..PAGES {
        dev.arm_partial_program(0.5);
        dev.program_page(0, page, &[0x11; PAGE_BYTES], &[0x22; SPARE_BYTES])
            .unwrap();
    }
    dev.advance_time_hours(5_000.0).unwrap();
    assert!(dev.block_data_age_hours(0).unwrap() > 0.0);
    assert!(dev.block_interference_rber(0).unwrap() > 0.0);

    dev.erase_block(0).unwrap();
    for page in 0..PAGES {
        assert_eq!(
            dev.read_page(0, page).map(|_| ()),
            Err(NandError::PageNotProgrammed { block: 0, page })
        );
        assert!(!dev.page_partially_programmed(0, page).unwrap());
        assert_eq!(dev.page_interference_rber(0, page).unwrap(), 0.0);
    }
    assert_eq!(dev.block_reads_since_erase(0).unwrap(), 0);
    assert_eq!(dev.block_data_age_hours(0).unwrap(), 0.0);
    assert_eq!(dev.block_disturb_rber(0, 0).unwrap(), 0.0);
    assert_eq!(dev.block_disturb_rber(0, 2).unwrap(), 0.0);
    assert_eq!(dev.block_interference_rber(0).unwrap(), 0.0);

    // Refill two of the five slots with a shorter spare.
    for page in 0..2 {
        dev.program_page(0, page, &[0x33; PAGE_BYTES], &[0x44; 3])
            .unwrap();
    }
    for page in 0..2 {
        let (data, spare, _) = dev.read_page(0, page).unwrap();
        assert!(hamming(&data, &[0x33; PAGE_BYTES]) <= FLIP_BUDGET);
        assert!(hamming(&spare[..3], &[0x44; 3]) <= FLIP_BUDGET);
        assert!(spare[3..].iter().all(|&b| b == 0xFF), "{spare:?}");
        assert_eq!(spare.len(), SPARE_BYTES);
        assert!(!dev.page_partially_programmed(0, page).unwrap());
    }
    // Programmed this hour: the 5 000-hour-old slots beyond are invisible.
    assert_eq!(dev.block_data_age_hours(0).unwrap(), 0.0);
    for page in 2..PAGES {
        assert!(matches!(
            dev.read_page(0, page),
            Err(NandError::PageNotProgrammed { .. })
        ));
        assert!(!dev.page_partially_programmed(0, page).unwrap());
        assert_eq!(dev.page_interference_rber(0, page).unwrap(), 0.0);
    }
    assert_eq!(dev.block_reads_since_erase(0).unwrap(), 2);
    // Page 1's program coupled onto page 0 and onto nothing else.
    let coupling = dev.disturb_model().program_coupling_rber;
    assert_eq!(dev.page_interference_rber(0, 0).unwrap(), coupling);
    assert_eq!(dev.block_interference_rber(0).unwrap(), coupling);
}

// ---- owned and borrowed programs ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An owned buffer becomes the stored page and a borrowed one is
    /// copied into the buffer the slot keeps: at end-of-life wear, with
    /// refills over kept buffers, two devices on one seed read back the
    /// same data, spare and injected errors, and answer every program
    /// alike.
    #[test]
    fn owned_and_borrowed_programs_read_back_the_same(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (0u8..5, 0usize..BLOCKS, 0usize..=64, any::<u8>()),
            30..90,
        ),
    ) {
        let geometry = DeviceGeometry {
            page_bytes: 512,
            spare_bytes: 64,
            ..small_geometry()
        };
        let mut owned = device(geometry, seed);
        let mut borrowed = device(geometry, seed);
        for dev in [&mut owned, &mut borrowed] {
            dev.set_disturb_model(DisturbModel::date2012());
            for block in 0..BLOCKS {
                dev.age_block(block, 1_000_000).unwrap();
            }
        }
        let mut next = [0usize; BLOCKS];
        for (kind, block, spare_len, byte) in ops {
            match kind {
                0 => {
                    prop_assert_eq!(owned.erase_block(block), borrowed.erase_block(block));
                    next[block] = 0;
                }
                1 | 2 => {
                    let page = next[block];
                    let data: Vec<u8> = (0..512).map(|i| byte ^ (i as u8)).collect();
                    let spare = vec![byte.wrapping_add(1); spare_len];
                    prop_assert_eq!(
                        owned.program_page(block, page, data.clone(), spare.clone()),
                        borrowed.program_page(block, page, &data, &spare[..])
                    );
                    next[block] = (page + 1).min(PAGES);
                }
                _ if next[block] > 0 => {
                    let page = usize::from(byte) % next[block];
                    prop_assert_eq!(
                        owned.read_page(block, page),
                        borrowed.read_page(block, page)
                    );
                }
                _ => {}
            }
        }
    }
}
