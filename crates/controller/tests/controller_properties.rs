//! Property-based tests of the full controller datapath.

use mlcx_controller::{ConfigCommand, ControllerConfig, MemoryController};
use mlcx_nand::ProgramAlgorithm;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Data integrity: whatever the wear point (within the codec's
    /// serviceable range), algorithm and scheduled-capability headroom,
    /// a written page reads back bit-exact through the ECC.
    #[test]
    fn write_read_integrity_across_configurations(
        seed in any::<u64>(),
        wear_decade in 0u32..=5,
        dv in any::<bool>(),
        extra_t in 0u32..=10,
    ) {
        let mut ctrl = MemoryController::new(ControllerConfig::date2012(), seed).unwrap();
        let cycles = 10u64.pow(wear_decade);
        ctrl.age_block(0, cycles).unwrap();
        ctrl.erase_block(0).unwrap();

        let algorithm = if dv { ProgramAlgorithm::IsppDv } else { ProgramAlgorithm::IsppSv };
        ctrl.apply(ConfigCommand::SetAlgorithm(algorithm)).unwrap();
        // Schedule with generous empirical headroom: expected raw errors
        // per page ~ n*rber; capability = that + margin, clamped.
        let rber = ctrl.device().aging().rber(algorithm, cycles.max(1));
        let expected_errors = (34_000.0 * rber).ceil() as u32;
        let t = (2 * expected_errors + 3 + extra_t).clamp(3, 65);
        ctrl.apply(ConfigCommand::SetCorrection(t)).unwrap();

        let data: Vec<u8> = (0..4096).map(|i| ((i as u64 * 31 + seed) % 256) as u8).collect();
        ctrl.write_page(0, 0, &data).unwrap();
        let r = ctrl.read_page(0, 0).unwrap();
        prop_assert!(r.outcome.is_success(), "t={t} cycles={cycles}");
        prop_assert_eq!(r.data, data);
    }

    /// Latency composition invariants hold for every configuration: the
    /// breakdown sums to the total, reads are insensitive to the program
    /// algorithm, and decode latency is monotone in the capability.
    #[test]
    fn latency_invariants(t1 in 3u32..=65, t2 in 3u32..=65) {
        let mut ctrl = MemoryController::new(ControllerConfig::date2012(), 1).unwrap();
        ctrl.erase_block(0).unwrap();
        let data = vec![0u8; 4096];

        ctrl.apply(ConfigCommand::SetCorrection(t1)).unwrap();
        ctrl.write_page(0, 0, &data).unwrap();
        let r1 = ctrl.read_page(0, 0).unwrap();
        prop_assert!((r1.latency_s - (r1.sense_s + r1.transfer_s + r1.decode_s)).abs() < 1e-12);

        ctrl.apply(ConfigCommand::SetCorrection(t2)).unwrap();
        ctrl.write_page(0, 1, &data).unwrap();
        let r2 = ctrl.read_page(0, 1).unwrap();
        if t1 < t2 {
            prop_assert!(r1.decode_s <= r2.decode_s + 1e-12);
        } else if t2 < t1 {
            prop_assert!(r2.decode_s <= r1.decode_s + 1e-12);
        }
    }

    /// The register file reflects every accepted command, and rejected
    /// commands leave the configuration untouched.
    #[test]
    fn register_file_consistency(ts in proptest::collection::vec(0u32..80, 1..8)) {
        let mut ctrl = MemoryController::new(ControllerConfig::date2012(), 2).unwrap();
        let mut expected = ctrl.correction();
        for t in ts {
            match ctrl.apply(ConfigCommand::SetCorrection(t)) {
                Ok(()) => {
                    prop_assert!((3..=65).contains(&t));
                    expected = t;
                }
                Err(_) => prop_assert!(!(3..=65).contains(&t)),
            }
            prop_assert_eq!(ctrl.correction(), expected);
        }
    }

    /// The page metadata table is total: `trim_page` and `read_page` on
    /// any `(block, page)` — outside the geometry, never written, erased
    /// or trimmed — answer `false` / `UnknownPageConfig`, never an index
    /// panic, and an erase unmaps exactly its own block.
    #[test]
    fn page_metadata_is_total_and_erase_unmaps_one_block(
        written in proptest::collection::vec((0usize..4, 1usize..=6), 1..4),
        erased in 0usize..4,
        probes in proptest::collection::vec((0usize..200, 0usize..400), 8),
    ) {
        let mut ctrl = MemoryController::new(ControllerConfig::date2012(), 3).unwrap();
        let geometry = ctrl.config().geometry;
        let data = vec![0x5Au8; geometry.page_bytes];
        // Pages mapped per block (blocks of a fresh device are blank).
        let mut mapped = [0usize; 4];
        for (block, pages) in written {
            for page in mapped[block]..pages.max(mapped[block]) {
                ctrl.write_page(block, page, &data).unwrap();
            }
            mapped[block] = pages.max(mapped[block]);
        }
        ctrl.erase_block(erased).unwrap();
        mapped[erased] = 0;

        let unknown = |ctrl: &mut MemoryController, block, page| {
            matches!(
                ctrl.read_page(block, page),
                Err(mlcx_controller::CtrlError::UnknownPageConfig { block: b, page: p })
                    if (b, p) == (block, page)
            )
        };
        for (block, &pages) in mapped.iter().enumerate() {
            for page in 0..8 {
                if page < pages {
                    prop_assert!(ctrl.read_page(block, page).unwrap().outcome.is_success());
                } else {
                    prop_assert!(unknown(&mut ctrl, block, page), "({block}, {page})");
                    prop_assert!(!ctrl.trim_page(block, page));
                }
            }
        }
        // Anywhere else, in or out of the geometry.
        for (block, page) in probes {
            let in_range = block < geometry.blocks && page < geometry.pages_per_block;
            if in_range && block < 4 && page < mapped[block] {
                continue;
            }
            prop_assert!(unknown(&mut ctrl, block, page), "({block}, {page})");
            prop_assert!(!ctrl.trim_page(block, page));
        }
        // A page index past its block must not alias the next block's
        // first pages in the flat table.
        for (below, &pages) in mapped.iter().skip(1).enumerate() {
            for page in 0..pages {
                let past = geometry.pages_per_block + page;
                prop_assert!(!ctrl.trim_page(below, past));
                prop_assert!(unknown(&mut ctrl, below, past));
            }
        }
        let donor = (erased + 1) % 4;
        if mapped[donor] > 0 {
            // A trim unmaps its page alone, once.
            prop_assert!(ctrl.trim_page(donor, 0));
            prop_assert!(!ctrl.trim_page(donor, 0));
            prop_assert!(unknown(&mut ctrl, donor, 0));
            if mapped[donor] > 1 {
                prop_assert!(ctrl.read_page(donor, 1).unwrap().outcome.is_success());
            }
        }
    }
}
