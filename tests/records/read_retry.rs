//! Read-retry baseline: the read-latency price — and the UBER payoff —
//! of stepped read-reference retry on retention-shifted data.
//!
//! The same seeded read-serve runs twice against a mid-life bank whose
//! working set was parked 20,000 hours under a (demo-scaled) retention
//! model harsh enough that nominal-reference reads come back
//! uncorrectable: once with retry disabled (every read of parked data
//! fails), once with the date2012 ladder walking each failing block to
//! its shifted optimum and learning the offset so steady state is
//! single-sense. Reported per arm:
//!
//! * p50/p95 host read latency (per-command modeled latency, retry
//!   senses included);
//! * the model `log10(UBER)` at the worst block's endurance + effective
//!   disturb RBER — *effective* meaning at each block's learned read
//!   reference, so the retry arm's recovery is visible (>= 1 decade is
//!   the PR's acceptance bar);
//! * uncorrectable decodes actually hit by the functional datapath.
//!
//! Everything asserted is deterministic (seeded injection, modeled
//! time), so the committed baseline under
//! `crates/bench/baselines/read_retry.json` gates CI regardless of
//! container noise.

use mlcx::nand::disturb::DisturbModel;
use mlcx::{
    Command, CommandOutput, ControllerConfig, DeviceGeometry, EngineBuilder, Objective,
    RetryPolicy, StorageEngine,
};
use mlcx_bench::{percentile, BenchResult};

const BLOCKS: usize = 16;
const PAGES_PER_BLOCK: usize = 16;
const HOT_BLOCKS: usize = 4;
const BATCHES: usize = 12;
const READS_PER_BATCH: usize = 32;
const SEED: u64 = 2012;
const MID_LIFE_CYCLES: u64 = 100_000;
const PARK_HOURS: f64 = 20_000.0;

fn engine(retry: bool) -> StorageEngine {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: BLOCKS,
        pages_per_block: PAGES_PER_BLOCK,
        ..config.geometry
    };
    config.disturb = DisturbModel {
        // Demo-scaled retention: after the park the working set carries
        // ~2.7e-3 additive RBER (~90 raw errors per codeword —
        // uncorrectable at the mid-life schedule), a Vth shift of ~2.7
        // reference steps — within the date2012 ladder's +/-4 reach.
        retention_scale: 2e-3,
        rber_per_step: 1e-3,
        ..DisturbModel::disabled()
    };
    if retry {
        config.retry = RetryPolicy::date2012();
    }
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(SEED)
        .build()
        .expect("bench engine must build");
    engine
        .register_service("serving", Objective::Baseline, 0..BLOCKS)
        .expect("service must register");
    // Mid-life wear *before* the writes: retention acceleration keys
    // off program-time wear, and the schedule still has ladder-reach
    // margin (at end of life the shift would outrun +/-4 steps).
    engine.controller_mut().age_all(MID_LIFE_CYCLES);
    engine
}

fn payload(block: usize, page: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 17 + block * 31 + page * 131) % 256) as u8)
        .collect()
}

struct ArmResult {
    read_latencies_s: Vec<f64>,
    retry_reads: u64,
    retry_senses: u64,
    retry_latency_s: f64,
    uncorrectable: u64,
    worst_effective_rber: f64,
}

/// Writes the hot working set, parks it, then serves seeded random
/// reads against the shifted data.
fn run_workload(engine: &mut StorageEngine) -> ArmResult {
    let svc = engine.service("serving").expect("service exists");
    let mut cmds = Vec::new();
    for block in 0..HOT_BLOCKS {
        cmds.push(Command::erase(svc, block));
        for page in 0..PAGES_PER_BLOCK {
            cmds.push(Command::write(svc, block, page, payload(block, page)));
        }
    }
    engine.sq().submit_owned(cmds).expect("prefill submits");
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));
    // Park: the stored pages age against the retention model.
    engine.advance_hours(PARK_HOURS).unwrap();

    let mut out = ArmResult {
        read_latencies_s: Vec::with_capacity(BATCHES * READS_PER_BATCH),
        retry_reads: 0,
        retry_senses: 0,
        retry_latency_s: 0.0,
        uncorrectable: 0,
        worst_effective_rber: 0.0,
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
        let mut cmds = Vec::with_capacity(READS_PER_BATCH);
        for _ in 0..READS_PER_BATCH {
            cmds.push(Command::read(svc, next(HOT_BLOCKS), next(PAGES_PER_BLOCK)));
        }
        engine.sq().submit_owned(cmds).expect("batch submits");
        for c in engine.cq().drain() {
            match c.result.expect("commands succeed") {
                CommandOutput::Read(r) => {
                    out.read_latencies_s.push(r.latency_s);
                    if !r.outcome.is_success() {
                        out.uncorrectable += 1;
                    }
                }
                other => panic!("read produced {other:?}"),
            }
        }
        let batch = engine.last_batch();
        out.retry_reads += batch.counters.retry_reads;
        out.retry_senses += batch.counters.retry_senses;
        out.retry_latency_s += batch.counters.retry_latency_s;
    }
    out.worst_effective_rber = engine
        .controller()
        .effective_disturb_rber(0..BLOCKS)
        .unwrap();
    out
}

pub(crate) fn record() -> BenchResult {
    let mut e_off = engine(false);
    let off = run_workload(&mut e_off);
    let mut e_on = engine(true);
    let on = run_workload(&mut e_on);

    assert_eq!(off.retry_reads, 0);
    assert!(
        off.uncorrectable > 0,
        "parked reads must fail without retry"
    );
    assert!(on.retry_reads > 0, "the ladder must have walked");
    assert!(on.retry_senses >= on.retry_reads);
    assert!(
        on.uncorrectable < off.uncorrectable / 4,
        "retry must recover most failing reads: {} vs {}",
        on.uncorrectable,
        off.uncorrectable
    );
    let learned = e_on.controller().read_offsets().len() as u64;
    assert!(learned > 0, "successful walks must learn offsets");

    // The model UBER at the worst block's endurance + *effective*
    // disturb RBER (at the learned read reference, where one exists).
    let model = e_off.model();
    let op = model.configure(Objective::Baseline, MID_LIFE_CYCLES);
    let endurance = model.rber(op.algorithm, MID_LIFE_CYCLES);
    let uber_off = model.log10_uber_at_rber(&op, endurance + off.worst_effective_rber);
    let uber_on = model.log10_uber_at_rber(&op, endurance + on.worst_effective_rber);
    let recovery = uber_off - uber_on;

    let p95_off = percentile(&off.read_latencies_s, 0.95);
    let p95_on = percentile(&on.read_latencies_s, 0.95);
    let p50_off = percentile(&off.read_latencies_s, 0.50);
    let p50_on = percentile(&on.read_latencies_s, 0.50);
    let total_off: f64 = off.read_latencies_s.iter().sum();
    let total_on: f64 = on.read_latencies_s.iter().sum();

    println!("\n===== read_retry — parked working set, retry off vs on =====");
    println!(
        "{:>6} {:>13} {:>13} {:>8} {:>8} {:>13} {:>14} {:>10}",
        "arm",
        "p50 read(us)",
        "p95 read(us)",
        "uncorr",
        "senses",
        "retry t(ms)",
        "eff d-rber",
        "lg-uber"
    );
    for (name, arm, uber) in [("off", &off, uber_off), ("on", &on, uber_on)] {
        println!(
            "{:>6} {:>13.2} {:>13.2} {:>8} {:>8} {:>13.3} {:>14.2e} {:>10.2}",
            name,
            percentile(&arm.read_latencies_s, 0.50) * 1e6,
            percentile(&arm.read_latencies_s, 0.95) * 1e6,
            arm.uncorrectable,
            arm.retry_senses,
            arm.retry_latency_s * 1e3,
            arm.worst_effective_rber,
            uber
        );
    }
    println!(
        "retry recovered {recovery:.1} decades of model UBER and {} of {} \
         failed reads for {:.3} ms of extra senses ({} offsets learned)",
        off.uncorrectable - on.uncorrectable,
        off.uncorrectable,
        on.retry_latency_s * 1e3,
        learned
    );

    // The acceptance bar: >= 1 decade of model UBER recovered, paid in
    // read latency (extra senses), with zero data movement.
    assert!(
        recovery >= 1.0,
        "retry must recover >= 1 decade of model UBER, got {recovery:.2}"
    );
    assert!(
        total_on > total_off,
        "retry senses must show up in total read time: on {total_on} vs off {total_off}"
    );
    assert!(on.retry_latency_s > 0.0);

    let mut record = BenchResult::new(
        "read_retry",
        "parked working set, retry off vs on, p95 host read latency",
    );
    record.exact = vec![
        ("batches".into(), BATCHES as f64),
        ("reads_per_batch".into(), READS_PER_BATCH as f64),
        ("uncorrectable_off".into(), off.uncorrectable as f64),
        ("uncorrectable_on".into(), on.uncorrectable as f64),
        ("retry_reads_on".into(), on.retry_reads as f64),
        ("retry_senses_on".into(), on.retry_senses as f64),
        ("offsets_learned_on".into(), learned as f64),
    ];
    record.exact.extend([
        ("p50_read_off_s".into(), p50_off),
        ("p50_read_on_s".into(), p50_on),
        ("p95_read_off_s".into(), p95_off),
        ("p95_read_on_s".into(), p95_on),
        ("retry_latency_on_s".into(), on.retry_latency_s),
        ("uber_off_log10".into(), uber_off),
        ("uber_on_log10".into(), uber_on),
        ("uber_recovery_decades".into(), recovery),
    ]);
    record
}
