//! Scrub-overhead baseline: the host-visible cost — and the UBER payoff
//! — of background read-reclaim under a read-hot workload.
//!
//! The same seeded read-hammer runs twice on an end-of-life bank with an
//! (aggressive, demo-scaled) read-disturb model: once with the scrubber
//! off, once with a read-threshold scrubber that relocates and erases
//! the hottest block between batches, its maintenance commands riding
//! the *next* host batch — so scrub traffic genuinely competes with host
//! reads for the device. Reported per arm:
//!
//! * host-visible p95 batch-completion latency (the engine's modeled
//!   batch makespan — what a polling host actually waits);
//! * the model `log10(UBER)` at the worst block's endurance + disturb
//!   RBER (the scrubber must recover >= 1 decade — the PR's acceptance
//!   bar);
//! * uncorrectable decodes actually hit by the functional datapath
//!   (unscrubbed hammering drives the raw error count past `t = 65`).
//!
//! Everything asserted is deterministic (seeded injection, modeled
//! time), so the committed baseline under
//! `crates/bench/baselines/scrub_overhead.json` gates CI regardless of
//! container noise.

use std::collections::VecDeque;

use mlcx::nand::disturb::DisturbModel;
use mlcx::{
    Command, CommandOutput, ControllerConfig, DeviceGeometry, EngineBuilder, Objective,
    ScrubPolicy, Scrubber, StorageEngine,
};
use mlcx_bench::{percentile, BenchResult};

const BLOCKS: usize = 16;
const PAGES_PER_BLOCK: usize = 16;
const HOT_BLOCKS: usize = 4;
const BATCHES: usize = 24;
const READS_PER_BATCH: usize = 48;
const SEED: u64 = 2012;
const READ_THRESHOLD: u64 = 60;

fn engine() -> StorageEngine {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: BLOCKS,
        pages_per_block: PAGES_PER_BLOCK,
        ..config.geometry
    };
    config.disturb = DisturbModel {
        // Demo-scaled so ~100 reads matter (the date2012 constant needs
        // ~100k); everything downstream is relative between the arms.
        read_disturb_per_read: 1.5e-6,
        ..DisturbModel::disabled()
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(SEED)
        .build()
        .expect("bench engine must build");
    engine
        .register_service("serving", Objective::Baseline, 0..BLOCKS)
        .expect("service must register");
    // End of life: the SV schedule runs at t = 65 with ~37 mean raw
    // errors per read — real margin for disturb to eat.
    engine.controller_mut().age_all(1_000_000);
    engine
}

fn payload(block: usize, page: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 17 + block * 31 + page * 131) % 256) as u8)
        .collect()
}

struct ArmResult {
    batch_latencies_s: Vec<f64>,
    scrub_relocations: u64,
    scrub_erases: u64,
    uncorrectable: u64,
    worst_disturb_rber: f64,
}

/// Runs the seeded read-hammer, optionally with read-reclaim between
/// batches. Hot data lives on `HOT_BLOCKS` physical blocks that reclaim
/// migrates around the bank; the remaining blocks are erased spares.
fn run_workload(engine: &mut StorageEngine, scrub: bool) -> ArmResult {
    let svc = engine.service("serving").expect("service exists");
    // Prefill the hot set; the rest of the bank stays erased.
    let mut cmds = Vec::new();
    for block in 0..BLOCKS {
        cmds.push(Command::erase(svc, block));
    }
    for block in 0..HOT_BLOCKS {
        for page in 0..PAGES_PER_BLOCK {
            cmds.push(Command::write(svc, block, page, payload(block, page)));
        }
    }
    engine.sq().submit_owned(cmds).expect("prefill submits");
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));

    // Current physical home of each hot slot, and the erased spares.
    let mut hot: Vec<usize> = (0..HOT_BLOCKS).collect();
    let mut spares: VecDeque<usize> = (HOT_BLOCKS..BLOCKS).collect();
    let scrubber = Scrubber::new(ScrubPolicy {
        read_threshold: READ_THRESHOLD,
        retention_age_hours: f64::INFINITY,
        interference_rber_threshold: f64::INFINITY,
        max_blocks_per_pass: 1,
    });

    let mut out = ArmResult {
        batch_latencies_s: Vec::with_capacity(BATCHES),
        scrub_relocations: 0,
        scrub_erases: 0,
        uncorrectable: 0,
        worst_disturb_rber: 0.0,
    };
    // Deterministic page picker (xorshift), identical across the arms.
    let mut state = SEED | 1;
    let mut next = |modulo: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 33) as usize % modulo
    };

    for _batch in 0..BATCHES {
        let mut cmds = Vec::new();
        if scrub {
            // Maintenance planned against the drained state rides ahead
            // of this batch's host reads, competing for the device.
            let candidates = scrubber.candidates(engine.controller().device(), 0..BLOCKS);
            if let Some(&victim) = candidates.first() {
                let spare = spares.pop_front().expect("a spare block is always free");
                for page in 0..PAGES_PER_BLOCK {
                    cmds.push(Command::relocate(svc, (victim, page), (spare, page)));
                }
                cmds.push(Command::scrub_erase(svc, victim));
                let slot = hot
                    .iter()
                    .position(|&b| b == victim)
                    .expect("victim is hot");
                hot[slot] = spare;
                spares.push_back(victim);
            }
        }
        for _ in 0..READS_PER_BATCH {
            let block = hot[next(HOT_BLOCKS)];
            let page = next(PAGES_PER_BLOCK);
            cmds.push(Command::read(svc, block, page));
        }
        engine.sq().submit_owned(cmds).expect("batch submits");
        for c in engine.cq().drain() {
            match c.result.expect("commands succeed") {
                CommandOutput::Read(r) if !r.outcome.is_success() => {
                    out.uncorrectable += 1;
                }
                CommandOutput::Relocate { read, .. } if !read.outcome.is_success() => {
                    out.uncorrectable += 1;
                }
                _ => {}
            }
        }
        let batch = engine.last_batch();
        out.batch_latencies_s.push(batch.parallel_latency_s);
        out.scrub_relocations += batch.counters.scrub_relocations;
        out.scrub_erases += batch.counters.scrub_erases;
    }
    let device = engine.controller().device();
    out.worst_disturb_rber = (0..BLOCKS)
        .map(|b| device.block_disturb_rber(b).unwrap())
        .fold(0.0, f64::max);
    out
}

pub fn record() -> BenchResult {
    let mut e_off = engine();
    let off = run_workload(&mut e_off, false);
    let mut e_on = engine();
    let on = run_workload(&mut e_on, true);

    assert_eq!(off.scrub_relocations, 0);
    assert!(on.scrub_relocations > 0, "the scrubber must have run");
    assert!(on.scrub_erases > 0);

    // The model UBER at the worst block's endurance + disturb RBER.
    let model = e_off.model();
    let op = model.configure(Objective::Baseline, 1_000_000);
    let endurance = model.rber(op.algorithm, 1_000_000);
    let uber_off = model.log10_uber_at_rber(&op, endurance + off.worst_disturb_rber);
    let uber_on = model.log10_uber_at_rber(&op, endurance + on.worst_disturb_rber);
    let recovery = uber_off - uber_on;

    let p95_off = percentile(&off.batch_latencies_s, 0.95);
    let p95_on = percentile(&on.batch_latencies_s, 0.95);
    let p50_off = percentile(&off.batch_latencies_s, 0.50);
    let p50_on = percentile(&on.batch_latencies_s, 0.50);
    let overhead_pct = (p95_on / p95_off - 1.0) * 100.0;

    println!("\n===== scrub_overhead — read-hot hammer, scrubber off vs on =====");
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12} {:>14} {:>12}",
        "arm", "p50 batch(ms)", "p95 batch(ms)", "reloc", "erases", "worst d-rber", "lg-uber"
    );
    for (name, arm, uber) in [("off", &off, uber_off), ("on", &on, uber_on)] {
        println!(
            "{:>6} {:>14.3} {:>14.3} {:>12} {:>12} {:>14.2e} {:>12.2}",
            name,
            percentile(&arm.batch_latencies_s, 0.50) * 1e3,
            percentile(&arm.batch_latencies_s, 0.95) * 1e3,
            arm.scrub_relocations,
            arm.scrub_erases,
            arm.worst_disturb_rber,
            uber
        );
    }
    println!(
        "host-visible p95 overhead: {overhead_pct:+.1}%; model UBER recovered: \
         {recovery:.1} decades; uncorrectable reads off/on: {}/{}",
        off.uncorrectable, on.uncorrectable
    );

    // The acceptance bar: >= 1 decade of model UBER recovered, at a
    // visible (reported) host-latency cost.
    assert!(
        recovery >= 1.0,
        "scrubbing must recover >= 1 decade of model UBER, got {recovery:.2}"
    );
    assert!(
        p95_on > p95_off,
        "maintenance must show up in the host-visible p95: on {p95_on} vs off {p95_off}"
    );
    assert!(
        on.worst_disturb_rber < off.worst_disturb_rber,
        "reclaim must bound the disturb accumulator"
    );
    assert!(
        on.uncorrectable <= off.uncorrectable,
        "scrubbing must not create decode failures"
    );

    let mut record = BenchResult::new(
        "scrub_overhead",
        "read-hot hammer, scrubber off vs on, p95 batch completion",
    );
    record.exact = vec![
        ("batches".into(), BATCHES as f64),
        ("reads_per_batch".into(), READS_PER_BATCH as f64),
        ("scrub_relocations_on".into(), on.scrub_relocations as f64),
        ("scrub_erases_on".into(), on.scrub_erases as f64),
        ("uncorrectable_off".into(), off.uncorrectable as f64),
        ("uncorrectable_on".into(), on.uncorrectable as f64),
    ];
    record.exact.extend([
        ("p50_batch_off_s".into(), p50_off),
        ("p50_batch_on_s".into(), p50_on),
        ("p95_batch_off_s".into(), p95_off),
        ("p95_batch_on_s".into(), p95_on),
        ("p95_overhead_pct".into(), overhead_pct),
        ("uber_off_log10".into(), uber_off),
        ("uber_on_log10".into(), uber_on),
        ("uber_recovery_decades".into(), recovery),
    ]);
    record
}
