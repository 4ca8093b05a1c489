//! Read-intensive multimedia scenario (paper Section 6.3.2): music
//! playback, video streaming, photo browsing. The host asks for *maximum
//! read throughput*; the cross-layer framework switches to ISPP-DV *and*
//! relaxes the ECC to the capability the better RBER affords — decode
//! latency shrinks, read throughput climbs up to ~30 % at end of life,
//! and the UBER target still holds.
//!
//! The example also runs the workload through the full functional
//! controller (real BCH decoding of error-injected pages) to show the
//! configured sub-system actually delivering the stream.
//!
//! Run with: `cargo run --release --example multimedia_playback`

use mlcx::{Command, CommandOutput, EngineBuilder, Objective, ProgramAlgorithm, SubsystemModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = SubsystemModel::date2012();

    println!("multimedia playback: max-read-throughput mode vs baseline\n");
    println!(
        "{:>10} {:>7} {:>7} {:>12} {:>12} {:>8} {:>18}",
        "cycles", "t(base)", "t(fast)", "base MB/s", "fast MB/s", "gain %", "log10 UBER (fast)"
    );
    for cycles in [1u64, 1_000, 100_000, 1_000_000] {
        let base = model.configure(Objective::Baseline, cycles);
        let fast = model.configure(Objective::MaxReadThroughput, cycles);
        let mb = model.metrics(&base, cycles);
        let mf = model.metrics(&fast, cycles);
        println!(
            "{:>10} {:>7} {:>7} {:>12.2} {:>12.2} {:>8.1} {:>18.2}",
            cycles,
            base.correction,
            fast.correction,
            mb.read_mbps,
            mf.read_mbps,
            (mf.read_mbps / mb.read_mbps - 1.0) * 100.0,
            mf.log10_uber,
        );
        assert!(mf.log10_uber <= -11.0, "UBER target must hold");
    }

    // Now stream a "video" through the batched engine at end of life:
    // the max-read-throughput service derives the DV operating point
    // once for the whole batch and the engine reports aggregate
    // throughput from the calibrated datapath models.
    println!("\nstreaming 32 pages through the storage engine at 1e6 cycles...");
    let mut engine = EngineBuilder::date2012().seed(42).build()?;
    let stream = engine.register_service("stream", Objective::MaxReadThroughput, 0..8)?;
    engine.controller_mut().age_block(0, 1_000_000)?;

    let frames: Vec<Vec<u8>> = (0..32)
        .map(|f| (0..4096).map(|i| ((i * 7 + f * 131) % 256) as u8).collect())
        .collect();
    let mut batch = vec![Command::erase(stream, 0)];
    batch.extend(
        frames
            .iter()
            .enumerate()
            .map(|(p, frame)| Command::write(stream, 0, p, frame.clone())),
    );
    batch.extend((0..32).map(|p| Command::read(stream, 0, p)));
    engine.sq().submit_owned(batch)?;

    let mut frame_idx = 0usize;
    // Payload bytes moved: one page per write, the returned data per read.
    let mut bytes = 0usize;
    for completion in engine.cq().drain() {
        match completion.result.expect("stream batch must succeed") {
            CommandOutput::Write(w) => {
                assert_eq!(w.algorithm, ProgramAlgorithm::IsppDv);
                bytes += frames[0].len();
            }
            CommandOutput::Read(r) => {
                assert!(r.outcome.is_success(), "frame {frame_idx} must decode");
                assert_eq!(
                    r.data, frames[frame_idx],
                    "frame {frame_idx} must be bit-exact"
                );
                bytes += r.data.len();
                frame_idx += 1;
            }
            _ => {}
        }
    }
    assert_eq!(frame_idx, 32);
    let report = engine.last_batch();
    println!(
        "32 frames delivered bit-exact: {:.1} MB/s modeled over the batch, \
         {} raw bit errors corrected, {} schedule derivations for {} commands",
        bytes as f64 / report.device_latency_s / 1e6,
        report.corrected_bits,
        report.op_cache_misses,
        report.commands
    );
    Ok(())
}
