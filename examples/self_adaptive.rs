//! Self-adaptive controller scenario (paper Section 3): the integrated
//! reliability manager watches ECC feedback while the device wears out,
//! and re-configures the correction capability in-situ — no host
//! involvement and no analytic model, just observed corrected-bit counts.
//!
//! Run with: `cargo run --release --example self_adaptive`

use mlcx::{
    ConfigCommand, ControllerConfig, DecodeOutcome, MemoryController, ReliabilityManager,
    ReliabilityPolicy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ctrl = MemoryController::new(ControllerConfig::date2012(), 1234)?;
    let mut manager = ReliabilityManager::new(ReliabilityPolicy {
        headroom: 2.0,
        epoch_pages: 16,
        tmin: 3,
        tmax: 65,
    });

    println!("self-adaptive loop: wear grows, the manager re-tunes t\n");
    println!(
        "{:>10} {:>10} {:>14} {:>10}",
        "cycles", "t before", "worst page", "t after"
    );

    let data: Vec<u8> = (0..4096).map(|i| (i * 13) as u8).collect();
    // The codec's feedback is the outcome each read reports.
    let mut outcomes = Vec::new();
    // March the block through its life in decade steps.
    for wear_step in [0u64, 1_000, 10_000, 100_000, 400_000, 1_000_000] {
        ctrl.age_block(0, wear_step)?;
        let t_before = ctrl.correction();

        // One epoch of normal traffic: write + read 16 pages.
        ctrl.erase_block(0)?;
        let mut worst = 0usize;
        for page in 0..16 {
            ctrl.write_page(0, page, &data)?;
        }
        for page in 0..16 {
            let r = ctrl.read_page(0, page)?;
            worst = worst.max(r.outcome.corrected_bits());
            manager.observe(&r.outcome);
            outcomes.push(r.outcome);
        }

        // The manager's epoch closed: apply its recommendation.
        let mut t_after = t_before;
        if let Some(t) = manager.take_recommendation() {
            if t != t_before {
                ctrl.apply(ConfigCommand::SetCorrection(t))?;
            }
            t_after = t;
        }
        println!(
            "{:>10} {:>10} {:>14} {:>10}",
            ctrl.device().block_cycles(0)?,
            t_before,
            worst,
            t_after
        );
    }

    let corrected = outcomes
        .iter()
        .filter(|o| matches!(o, DecodeOutcome::Corrected { .. }))
        .count();
    let bits_fixed: usize = outcomes.iter().map(DecodeOutcome::corrected_bits).sum();
    let uncorrectable = outcomes.iter().filter(|o| !o.is_success()).count();
    println!(
        "\ncodec feedback: {} pages decoded, {corrected} corrected, {bits_fixed} bits fixed, {uncorrectable} uncorrectable",
        outcomes.len()
    );
    println!(
        "register file saw {} reconfiguration commands",
        ctrl.regs().commands_applied()
    );
    assert!(
        ctrl.correction() > 3,
        "by end of life the manager must have raised t above the floor"
    );
    Ok(())
}
