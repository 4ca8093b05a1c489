//! Integration tests of the threshold-voltage read-retry subsystem.
//!
//! Two contracts, end to end through the public `mlcx` API:
//!
//! * **Zero-offset bit-identity** — enabling the retry policy must not
//!   perturb the datapath at all until a read actually fails: on
//!   workloads where every first sense decodes, a retry-enabled engine
//!   produces completions (data, latencies, energy) bit-identical to
//!   the pre-retry engine at the same seed. Verified as a property over
//!   random seeds/wear/retention ages/workloads, plus the same identity
//!   at the raw device layer (`read_page_at(.., 0)` == `read_page`).
//!
//! * **Warm-up** — the per-block learned offset table must pay off: the
//!   first pass over retention-shifted data walks the ladder, the
//!   second pass over the same pages serves from the learned offsets at
//!   a single sense each, cutting the mean senses-per-read back to 1.

use mlcx::nand::disturb::DisturbModel;
use mlcx::{
    Command, ControllerConfig, DeviceGeometry, EngineBuilder, NandDevice, Objective, RetryPolicy,
    StorageEngine,
};
use proptest::prelude::*;

/// Deterministic page payload.
fn payload(tag: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 13 + tag * 101) % 256) as u8)
        .collect()
}

/// Builds an engine (optionally with the date2012 retry policy), runs
/// the seeded erase/write/park/read workload, and returns every
/// completion plus the final batch report and the engine itself.
fn run_seeded(
    retry: bool,
    seed: u64,
    cycles: u64,
    hours: f64,
    ops: &[(usize, usize)],
) -> (Vec<mlcx::Completion>, mlcx::BatchReport, StorageEngine) {
    let mut config = ControllerConfig::date2012();
    if retry {
        config.retry = RetryPolicy::date2012();
    }
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(seed)
        .build()
        .expect("engine builds");
    let svc = engine
        .register_service("svc", Objective::Baseline, 0..4)
        .expect("service registers");
    engine.controller_mut().age_all(cycles);

    let mut cmds: Vec<Command> = (0..4).map(|b| Command::erase(svc, b)).collect();
    for (i, &(block, page)) in ops.iter().enumerate() {
        cmds.push(Command::write(svc, block, page, payload(i)));
    }
    engine.sq().submit_owned(cmds).expect("write batch submits");
    let mut completions = engine.cq().drain();

    engine.advance_hours(hours).unwrap();

    let reads: Vec<Command> = ops
        .iter()
        .map(|&(block, page)| Command::read(svc, block, page))
        .collect();
    engine.sq().submit_owned(reads).expect("read batch submits");
    completions.extend(engine.cq().drain());
    let batch = *engine.last_batch();
    (completions, batch, engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// With every first sense decoding (moderate wear, modest retention
    /// age under the calibrated date2012 disturb model), the
    /// retry-enabled engine is the pre-retry engine, bit for bit:
    /// identical completions, identical batch accounting, no ladder
    /// entries, nothing learned.
    #[test]
    fn zero_offset_reads_are_bit_identical_to_the_pre_retry_datapath(
        seed in any::<u64>(),
        wear_decade in 0u32..=3,
        hours in 0.0f64..1_000.0,
        raw_ops in proptest::collection::vec((0usize..4, 0usize..8), 1..24),
    ) {
        // Dedupe (block, page) targets, then remap each block's pages
        // onto 0..n in program order: the device enforces the MLC
        // in-order page-programming rule, so arbitrary page targets
        // would be rejected (deterministically in both arms, but
        // leaving nothing to read back).
        let mut ops = raw_ops;
        ops.sort_unstable();
        ops.dedup();
        let mut next = [0usize; 4];
        for op in &mut ops {
            op.1 = next[op.0];
            next[op.0] += 1;
        }

        let cycles = 10u64.pow(wear_decade);
        let (plain, plain_batch, _) = run_seeded(false, seed, cycles, hours, &ops);
        let (retried, retry_batch, engine) = run_seeded(true, seed, cycles, hours, &ops);

        // Compare (id, result) pairs: the ServiceHandle embeds a global
        // engine-instance counter that differs between the two builds
        // by construction, but everything the datapath produced must
        // match bit for bit.
        let strip = |cs: Vec<mlcx::Completion>| -> Vec<_> {
            cs.into_iter().map(|c| (c.id, c.result)).collect()
        };
        prop_assert_eq!(strip(plain), strip(retried));
        prop_assert_eq!(plain_batch, retry_batch);
        prop_assert_eq!(retry_batch.counters.retry_reads, 0);
        prop_assert_eq!(retry_batch.counters.retry_senses, 0);
        prop_assert!(retry_batch.counters.retry_latency_s == 0.0);
        prop_assert!(engine.controller().read_offsets().is_empty());
    }

    /// The same identity at the raw device layer: a zero read-reference
    /// offset injects exactly the nominal error sequence, whatever the
    /// wear and retention age.
    #[test]
    fn device_zero_offset_sense_matches_read_page(
        seed in any::<u64>(),
        cycles in 1u64..=1_000_000,
        hours in 0.0f64..50_000.0,
    ) {
        let mut nominal = NandDevice::date2012(seed);
        let mut offset = NandDevice::date2012(seed);
        for dev in [&mut nominal, &mut offset] {
            dev.age_block(0, cycles).unwrap();
            dev.erase_block(0).unwrap();
            dev.program_page(0, 0, payload(9), &[]).unwrap();
            dev.advance_time_hours(hours).unwrap();
        }
        let (d0, s0, _) = nominal.read_page(0, 0).unwrap();
        let mut s1 = vec![0xA5; 3];
        let (d1, _, _) = offset.read_page_at(0, 0, 0, &mut s1).unwrap();
        prop_assert_eq!(d0, d1);
        prop_assert_eq!(s0, s1);
        prop_assert_eq!(
            nominal.block_disturb_rber(0, 0).unwrap(),
            offset.block_disturb_rber(0, 0).unwrap()
        );
    }
}

/// The learned offset table cuts the mean senses-per-read once warm:
/// the first pass over parked data pays ladder walks, the second pass
/// over the same pages rides the learned offsets at one sense each.
#[test]
fn learned_offsets_cut_mean_senses_per_read_after_warm_up() {
    const BLOCKS: usize = 8;
    const PAGES: usize = 8;
    const HOT: usize = 4;

    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: BLOCKS,
        pages_per_block: PAGES,
        ..config.geometry
    };
    // The bench's demo-scaled retention: parked data shifts ~2.7
    // reference steps and fails at nominal, well within the ladder.
    config.disturb = DisturbModel {
        retention_scale: 2e-3,
        rber_per_step: 1e-3,
        ..DisturbModel::disabled()
    };
    config.retry = RetryPolicy::date2012();
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(2012)
        .build()
        .expect("engine builds");
    let svc = engine
        .register_service("svc", Objective::Baseline, 0..BLOCKS)
        .expect("service registers");
    engine.controller_mut().age_all(100_000);

    let mut cmds = Vec::new();
    for block in 0..HOT {
        cmds.push(Command::erase(svc, block));
        for page in 0..PAGES {
            cmds.push(Command::write(
                svc,
                block,
                page,
                payload(block * PAGES + page),
            ));
        }
    }
    engine.sq().submit_owned(cmds).expect("prefill submits");
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));
    engine.advance_hours(20_000.0).unwrap();

    let pass = |engine: &mut StorageEngine| {
        let reads: Vec<Command> = (0..HOT)
            .flat_map(|b| (0..PAGES).map(move |p| Command::read(svc, b, p)))
            .collect();
        engine.sq().submit_owned(reads).expect("read pass submits");
        for c in engine.cq().drain() {
            match c.result.expect("reads complete") {
                mlcx::CommandOutput::Read(r) => assert!(r.outcome.is_success()),
                other => panic!("read produced {other:?}"),
            }
        }
        *engine.last_batch()
    };
    let cold = pass(&mut engine);
    let warm = pass(&mut engine);

    let reads = (HOT * PAGES) as f64;
    let cold_mean = 1.0 + cold.counters.retry_senses as f64 / reads;
    let warm_mean = 1.0 + warm.counters.retry_senses as f64 / reads;

    assert!(
        cold.counters.retry_reads > 0,
        "cold pass must enter the ladder"
    );
    assert_eq!(cold.counters.retry_exhausted, 0, "the ladder must converge");
    assert!(
        warm_mean < cold_mean,
        "warm pass must be cheaper: {warm_mean:.3} vs {cold_mean:.3} senses/read"
    );
    // Not pinned to zero: a learned rung one step off the true optimum
    // can still lose the occasional binomial draw and re-walk, but the
    // table must cut the ladder traffic by a wide margin.
    assert!(
        warm.counters.retry_senses * 4 <= cold.counters.retry_senses,
        "a warm table must cut retry senses >= 4x: warm {} vs cold {}",
        warm.counters.retry_senses,
        cold.counters.retry_senses
    );
    assert_eq!(
        engine.controller().read_offsets().len(),
        HOT,
        "every hot block learns exactly one offset"
    );
}
