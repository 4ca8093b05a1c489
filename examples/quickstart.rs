//! Quickstart: bring up the storage engine, submit a mixed batch through
//! the adaptive-ECC datapath, and reconfigure a service at runtime
//! across the two cross-layer knobs.
//!
//! Run with: `cargo run --release --example quickstart`

use mlcx::{Command, CommandOutput, EngineBuilder, Objective};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An engine in the paper's configuration: 4 KiB pages, BCH over
    // GF(2^16) with t = 3..=65, ISPP-SV factory default.
    let mut engine = EngineBuilder::date2012().seed(2012).build()?;
    let general = engine.register_service("general", Objective::Baseline, 0..16)?;
    println!("engine: {engine:?}");

    // A batch: erase, write, read — queued, then executed in one drain.
    let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    engine.sq().submit(&[
        Command::erase(general, 0),
        Command::write(general, 0, 0, data.clone()),
        Command::read(general, 0, 0),
    ])?;
    let completions = engine.cq().drain();
    for completion in &completions {
        match completion.result.as_ref().expect("batch must succeed") {
            CommandOutput::Write(w) => println!(
                "write: {:.0} us total (load {:.1} + encode {:.1} + xfer {:.1} + program {:.0}), {} / t={}",
                w.latency_s * 1e6,
                w.load_s * 1e6,
                w.encode_s * 1e6,
                w.transfer_s * 1e6,
                w.program_s * 1e6,
                w.algorithm,
                w.t_used
            ),
            CommandOutput::Read(r) => {
                println!(
                    "read:  {:.0} us total (tR {:.0} + xfer {:.1} + decode {:.1}), outcome: {:?}",
                    r.latency_s * 1e6,
                    r.sense_s * 1e6,
                    r.transfer_s * 1e6,
                    r.decode_s * 1e6,
                    r.outcome
                );
                assert_eq!(r.data, data);
            }
            CommandOutput::Erase { report, .. } => {
                println!("erase: {:.0} us", report.duration_s * 1e6)
            }
            other => println!("{other:?}"),
        }
    }
    let batch = engine.last_batch();
    println!(
        "batch: {} commands, {:.2} ms device time, {:.2} mJ",
        batch.commands,
        batch.device_latency_s * 1e3,
        batch.energy_j * 1e3
    );

    // Runtime cross-layer reconfiguration: re-bind the service to the
    // max-read-throughput objective — the engine switches the device to
    // the double-verify algorithm and relaxes the ECC on the next write
    // (the operating point of the paper's Section 6.3.2).
    engine.sq().submit(&[
        Command::configure(general, Objective::MaxReadThroughput),
        Command::erase(general, 1),
        Command::write(general, 1, 0, data.clone()),
        Command::read(general, 1, 0),
    ])?;
    let completions = engine.cq().drain();
    let (mut w_us, mut w_alg) = (0.0, String::new());
    for completion in &completions {
        match completion.result.as_ref().expect("batch must succeed") {
            CommandOutput::Write(w) => {
                w_us = w.latency_s * 1e6;
                w_alg = w.algorithm.to_string();
            }
            CommandOutput::Read(r) => {
                println!(
                    "after cross-layer switch: write {:.0} us ({}), read {:.0} us (t={})",
                    w_us,
                    w_alg,
                    r.latency_s * 1e6,
                    r.t_used
                );
                assert_eq!(r.data, data);
            }
            _ => {}
        }
    }
    println!("page data verified through both configurations");
    Ok(())
}
