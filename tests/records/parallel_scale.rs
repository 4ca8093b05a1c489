//! Parallel-datapath scaling baseline: the *same* seeded workload run on
//! 1-, 2- and 4-channel topologies of an identical 32-block bank, with
//! the modeled per-batch latency (the channel scheduler's makespan)
//! recorded for each. On one channel the makespan is exactly the serial
//! latency sum; on four channels the batch's operations overlap across
//! dies and the makespan collapses.
//!
//! Everything asserted here is deterministic: the workload is a fixed
//! function of the seed, the per-command functional datapath is
//! identical across topologies, and the speedup is a paired median of
//! per-batch makespan ratios (batch `i` on 1 channel vs batch `i` on 4
//! channels), so the committed baseline under
//! `crates/bench/baselines/parallel_scale.json` gates CI regardless of
//! container noise.

use mlcx::{
    BatchReport, Command, ControllerConfig, DeviceGeometry, EngineBuilder, Objective,
    StorageEngine, Topology,
};
use mlcx_bench::{median, BenchResult};

const BLOCKS: usize = 32;
const PAGES_PER_BLOCK: usize = 16;
const BATCHES: usize = 8;
const BLOCKS_PER_BATCH: usize = 8;
const PAGES_PER_OP_BLOCK: usize = 4;
const SEED: u64 = 2012;

/// Commands per batch: erase + 4 writes + 4 reads per touched block.
const CMDS_PER_BATCH: usize = BLOCKS_PER_BATCH * (1 + 2 * PAGES_PER_OP_BLOCK);

fn engine(channels: usize) -> StorageEngine {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: BLOCKS,
        pages_per_block: PAGES_PER_BLOCK,
        topology: Topology::new(channels, 1),
        ..config.geometry
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(SEED)
        .build()
        .expect("bench engine must build");
    engine
        .register_service("tenant", Objective::Baseline, 0..BLOCKS)
        .expect("service must register");
    // Mid-life bank: the schedule is non-trivial but identical across
    // topologies (wear is uniform).
    engine.controller_mut().age_all(100_000);
    engine
}

fn payload(block: usize, page: usize, batch: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 13 + block * 31 + page * 131 + batch * 7) % 256) as u8)
        .collect()
}

/// The blocks batch `b` touches: strided across the whole bank, so on a
/// multi-die topology every batch hits every die.
fn batch_blocks(b: usize) -> impl Iterator<Item = usize> {
    (0..BLOCKS_PER_BATCH).map(move |i| (i * (BLOCKS / BLOCKS_PER_BATCH) + b % 4) % BLOCKS)
}

/// Runs the whole seeded workload, returning one report per batch.
fn run_workload(engine: &mut StorageEngine) -> Vec<BatchReport> {
    let tenant = engine.service("tenant").expect("service exists");
    let mut reports = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let mut cmds = Vec::with_capacity(CMDS_PER_BATCH);
        for block in batch_blocks(b) {
            cmds.push(Command::erase(tenant, block));
            for p in 0..PAGES_PER_OP_BLOCK {
                cmds.push(Command::write(tenant, block, p, payload(block, p, b)));
            }
            for p in 0..PAGES_PER_OP_BLOCK {
                cmds.push(Command::read(tenant, block, p));
            }
        }
        assert_eq!(cmds.len(), CMDS_PER_BATCH);
        engine.sq().submit_owned(cmds).expect("batch must submit");
        let completions = engine.cq().drain();
        assert!(
            completions.iter().all(|c| c.result.is_ok()),
            "batch {b} had failures"
        );
        reports.push(*engine.last_batch());
    }
    reports
}

pub(crate) fn record() -> BenchResult {
    let mut by_channels = Vec::new();
    for channels in [1usize, 2, 4] {
        let mut e = engine(channels);
        let reports = run_workload(&mut e);
        by_channels.push((channels, reports));
    }
    let reports_of =
        |ch: usize| -> &Vec<BatchReport> { &by_channels.iter().find(|(c, _)| *c == ch).unwrap().1 };

    // The serial (functional) latency sum is topology-independent: the
    // same commands run the same datapath.
    let serial: Vec<f64> = reports_of(1).iter().map(|r| r.device_latency_s).collect();
    for (channels, reports) in &by_channels {
        for (b, r) in reports.iter().enumerate() {
            assert!(
                (r.device_latency_s - serial[b]).abs() < 1e-12,
                "{channels}ch batch {b}: serial sum drifted"
            );
        }
    }
    // One channel cannot overlap: makespan == serial sum, exactly.
    for (b, r) in reports_of(1).iter().enumerate() {
        assert!(
            (r.parallel_latency_s - r.device_latency_s).abs() < 1e-12,
            "1ch batch {b} must serialize"
        );
    }

    // Paired per-batch medians: batch latency and speedup vs 1 channel.
    let makespans = |ch: usize| -> Vec<f64> {
        reports_of(ch)
            .iter()
            .map(|r| r.parallel_latency_s)
            .collect()
    };
    let m1 = makespans(1);
    let m2 = makespans(2);
    let m4 = makespans(4);
    let paired_speedup =
        |fast: &[f64]| -> f64 { median(m1.iter().zip(fast).map(|(a, b)| a / b).collect()) };
    let speedup2 = paired_speedup(&m2);
    let speedup4 = paired_speedup(&m4);
    let parallelism4 = median(
        reports_of(4)
            .iter()
            .map(|r| r.achieved_parallelism())
            .collect(),
    );

    println!("\n===== parallel_scale — same seeded workload, channels 1 -> 2 -> 4 =====");
    println!(
        "{:>8} {:>16} {:>16} {:>12} {:>12}",
        "channels", "batch p50 (ms)", "makespan sum", "speedup", "utilization"
    );
    for (channels, reports) in &by_channels {
        let p50 = median(reports.iter().map(|r| r.parallel_latency_s).collect());
        let sum: f64 = reports.iter().map(|r| r.parallel_latency_s).sum();
        let util = median(reports.iter().map(|r| r.channel_utilization()).collect());
        println!(
            "{:>8} {:>16.3} {:>16.3} {:>12.2} {:>12.3}",
            channels,
            p50 * 1e3,
            sum * 1e3,
            median(m1.clone()) / p50,
            util
        );
    }
    println!(
        "paired-median batch-latency speedup: 2ch {speedup2:.2}x, 4ch {speedup4:.2}x \
         (achieved parallelism on 4ch: {parallelism4:.2}x)"
    );

    // The acceptance bar: batch latency improves monotonically 1->2->4,
    // and 4 channels beat 1 channel by a sound margin on every batch.
    assert!(speedup2 > 1.2, "2ch speedup = {speedup2}");
    assert!(speedup4 > 1.5, "4ch speedup = {speedup4}");
    assert!(speedup4 > speedup2, "scaling must be monotone");
    for b in 0..BATCHES {
        assert!(m4[b] < m2[b] && m2[b] < m1[b], "batch {b} must scale");
    }

    let mut record = BenchResult::new(
        "parallel_scale",
        "paired per-batch medians over the seeded workload",
    );
    record.exact = vec![
        ("batches".into(), BATCHES as f64),
        ("commands_per_batch".into(), CMDS_PER_BATCH as f64),
    ];
    record.exact.extend([
        ("batch_latency_1ch_s".into(), median(m1.clone())),
        ("batch_latency_2ch_s".into(), median(m2.clone())),
        ("batch_latency_4ch_s".into(), median(m4.clone())),
        ("speedup_2ch".into(), speedup2),
        ("speedup_4ch".into(), speedup4),
        ("parallelism_4ch".into(), parallelism4),
    ]);
    record
}
