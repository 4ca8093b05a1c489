//! Read-disturb and scrubbing (extension): a read-hammered block slowly
//! accumulates disturb errors on top of its endurance RBER; the ECC
//! feedback catches the creep, and a scrub (read-correct-erase-rewrite)
//! restores the margin — the maintenance loop a flash file system builds
//! on top of the paper's controller.
//!
//! Run with: `cargo run --release --example read_disturb_scrub`

use mlcx::nand::disturb::DisturbModel;
use mlcx::{ConfigCommand, ControllerConfig, MemoryController};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An aggressive disturb model so the demo converges in few reads.
    // (The paper's evaluation runs with disturb disabled.) It acts on
    // reads only, and every read below follows the write.
    let config = ControllerConfig {
        disturb: DisturbModel {
            read_disturb_per_read: 3e-8,
            ..DisturbModel::disabled()
        },
        ..ControllerConfig::date2012()
    };
    let mut ctrl = MemoryController::new(config, 99)?;

    // Early-life block (endurance errors are rare), ECC provisioned with
    // margin — the demo shows disturb eating that margin.
    ctrl.age_block(0, 10_000)?;
    ctrl.erase_block(0)?;
    ctrl.apply(ConfigCommand::SetCorrection(22))?;
    let data: Vec<u8> = (0..4096).map(|i| (i * 41) as u8).collect();
    ctrl.write_page(0, 0, &data)?;

    println!("read-hammering block 0 (disturb accumulates)...\n");
    println!("{:>8} {:>16} {:>12}", "reads", "corrected bits", "status");
    let mut scrubs = 0usize;
    for _batch in 1..=8 {
        let mut worst = 0usize;
        for _ in 0..2000 {
            let r = ctrl.read_page(0, 0)?;
            assert!(r.outcome.is_success(), "data must stay recoverable");
            assert_eq!(r.data, data);
            worst = worst.max(r.outcome.corrected_bits());
        }
        let reads = ctrl.device().block_reads_since_erase(0)?;
        // Scrub policy: when the worst page eats more than half the
        // correction budget, rewrite the block (resetting the disturb
        // accumulator).
        let budget = 22usize;
        if worst * 2 > budget {
            println!("{reads:>8} {worst:>16} {:>12}", "SCRUB");
            let latest = ctrl.read_page(0, 0)?.data;
            ctrl.erase_block(0)?;
            ctrl.write_page(0, 0, &latest)?;
            scrubs += 1;
        } else {
            println!("{reads:>8} {worst:>16} {:>12}", "-");
        }
    }
    assert!(scrubs >= 1, "the demo parameters must trigger scrubbing");
    println!(
        "\nafter scrub: reads-since-erase reset to {}, margins restored",
        ctrl.device().block_reads_since_erase(0)?
    );
    Ok(())
}
