//! Differentiated storage services (the paper's future work, realized):
//! one device, three service regions — mission-critical payments
//! (min-UBER), a multimedia library (max-read-throughput) and a general
//! baseline region — each automatically configured per batch from its
//! objective and the block's current wear, through the command-queue
//! [`StorageEngine`](mlcx::StorageEngine).
//!
//! Run with: `cargo run --release --example differentiated_services`

use mlcx::{Command, CommandOutput, Completion, EngineBuilder, Objective};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = EngineBuilder::date2012().seed(2012).build()?;

    let payments = engine.register_service("payments", Objective::MinUber, 0..8)?;
    let media = engine.register_service("media", Objective::MaxReadThroughput, 8..40)?;
    let general = engine.register_service("general", Objective::Baseline, 40..64)?;

    // The media region has lived a hard life; payments is mid-life.
    engine.controller_mut().age_block(8, 1_000_000)?;
    engine.controller_mut().age_block(0, 50_000)?;

    println!("service directory:");
    for handle in [payments, media, general] {
        let region = engine.region(handle)?;
        println!(
            "  {:>9}: blocks {:>2}..{:<2} objective {:?}",
            region.name, region.blocks.start, region.blocks.end, region.objective
        );
    }

    // Traffic: one batch carrying all three services' work. Each service
    // gets its own cross-layer configuration, derived from objective +
    // wear (and memoized per wear bucket).
    let record = vec![0xEEu8; 4096];
    let frame = vec![0x21u8; 4096];
    let misc = vec![0x07u8; 4096];

    engine.sq().submit(&[
        Command::erase(payments, 0),
        Command::erase(media, 8),
        Command::erase(general, 40),
        Command::write(payments, 0, 0, record.clone()),
        Command::write(media, 8, 0, frame.clone()),
        Command::write(general, 40, 0, misc.clone()),
        Command::read(payments, 0, 0),
        Command::read(media, 8, 0),
    ])?;
    let completions = engine.cq().drain();
    let output = |c: &Completion| c.result.clone().expect("command must succeed");

    println!("\nper-service write configurations (derived automatically):");
    let names = ["payments", "media", "general"];
    let mut writes = completions
        .iter()
        .filter(|c| matches!(output(c), CommandOutput::Write(_)));
    for name in names {
        if let Some(completion) = writes.next() {
            if let CommandOutput::Write(w) = output(completion) {
                println!(
                    "  {:>9}: {} / t={}  ({:.0} us)",
                    name,
                    w.algorithm,
                    w.t_used,
                    w.latency_s * 1e6
                );
            }
        }
    }

    println!("\nper-service read latencies:");
    for completion in &completions {
        if let CommandOutput::Read(r) = output(completion) {
            let expected: &[u8] = if completion.service == payments {
                &record
            } else {
                &frame
            };
            assert_eq!(r.data, expected);
            println!(
                "  {:>9}: {:.0} us (decode {:.1} us at t={})",
                engine.region(completion.service)?.name,
                r.latency_s * 1e6,
                r.decode_s * 1e6,
                r.t_used
            );
        }
    }

    let batch = engine.last_batch();
    println!(
        "\nbatch accounting: {} commands, {:.2} ms device time, {:.2} mJ, {} bits corrected",
        batch.commands,
        batch.device_latency_s * 1e3,
        batch.energy_j * 1e3,
        batch.corrected_bits
    );

    // Per-service traffic, tallied from the drained completions.
    for (name, handle) in names.iter().zip([payments, media, general]) {
        let (mut written, mut read, mut corrected) = (0, 0, 0);
        for completion in completions.iter().filter(|c| c.service == handle) {
            match output(completion) {
                CommandOutput::Write(_) => written += 1,
                CommandOutput::Read(r) => {
                    read += 1;
                    corrected += r.outcome.corrected_bits();
                }
                _ => {}
            }
        }
        println!("stats {name:>9}: {written} written, {read} read, {corrected} bits corrected");
    }
    Ok(())
}
