//! Workload-mix baseline: a two-service trace-driven scenario (zipf
//! key-value store + sequential log) run through the simulator under
//! two operating-point memoization policies — `WearBucketing::Log2`
//! (power-of-two wear buckets) vs the legacy `PerPage` re-derivation.
//!
//! Unlike the engine_batch bench — where same-wear batches make the
//! memoization win systematic — FTL traffic churns the wear of every
//! block (each GC erase bumps its cycle count), so the *wall-clock*
//! delta between the policies sits near the noise floor of a container:
//! the BCH datapath dominates. The recorded baseline therefore asserts
//! the **deterministic structural counters** (Log2 must collapse the
//! model derivations by an order of magnitude) and reports the paired
//! wall-clock medians without failing on their sign; both policies must
//! of course execute identical traffic with zero integrity violations.
//!
//! Timings use strictly alternating paired samples and medians (clock
//! drift on this container hits both workloads equally; see
//! engine_batch).
//!
//! Set `MLCX_SMOKE=1` to run a single tiny iteration (the CI bit-rot
//! guard): wall-clock sampling shrinks to one short paired round, the
//! Criterion pass is skipped, every functional assertion still runs.
//! Each run writes a machine-readable record the `bench_gate` binary
//! compares against `crates/bench/baselines/workload_mix.json`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mlcx_bench::{median, smoke, BenchResult};
use mlcx_controller::ControllerConfig;
use mlcx_core::engine::{EngineBuilder, WearBucketing};
use mlcx_core::sim::{Scenario, ScenarioReport, TraceKind};
use mlcx_core::Objective;
use mlcx_nand::DeviceGeometry;
use std::hint::black_box;

/// The scenario under test: two services, two lifetime phases with a
/// fast-forward to end of life between them.
fn scenario(bucketing: WearBucketing, ops: usize) -> Scenario {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: 16,
        pages_per_block: 16,
        ..config.geometry
    };
    Scenario::builder()
        .engine(EngineBuilder::date2012().controller_config(config))
        .wear_bucketing(bucketing)
        .seed(4096)
        .batch_size(64)
        .prefill(true)
        .service("kv", Objective::Baseline, 0..8, TraceKind::zipfian())
        .service(
            "log",
            Objective::MaxReadThroughput,
            8..16,
            TraceKind::Sequential,
        )
        .phase("fresh", ops, 1_000_000)
        .phase("eol", ops, 0)
        .build()
        .expect("bench scenario must validate")
}

fn run(bucketing: WearBucketing, ops: usize) -> ScenarioReport {
    let report = scenario(bucketing, ops).run().expect("scenario must run");
    assert_eq!(report.integrity_violations, 0, "workload corrupted data");
    assert_eq!(report.read_failures, 0, "ECC failed under the workload");
    report
}

/// One round of strictly alternating paired timings. Returns
/// (log2 median, per-page median, median per-pair difference).
fn measure_round(ops: usize, samples: usize) -> (f64, f64, f64) {
    let mut log2 = Vec::with_capacity(samples);
    let mut perpage = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        black_box(run(WearBucketing::Log2, ops));
        log2.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(run(WearBucketing::PerPage, ops));
        perpage.push(start.elapsed().as_secs_f64());
    }
    let diffs: Vec<f64> = perpage.iter().zip(&log2).map(|(p, e)| p - e).collect();
    (median(log2), median(perpage), median(diffs))
}

fn bench(c: &mut Criterion) {
    let ops = if smoke() { 12 } else { 120 };

    // Functional record (and the whole CI smoke path): the scenario
    // runs clean and reproduces exactly; both policies execute the
    // identical traffic; Log2 absorbs the derivation pressure.
    let log2_report = run(WearBucketing::Log2, ops);
    assert_eq!(
        log2_report,
        run(WearBucketing::Log2, ops),
        "scenario must reproduce deterministically"
    );
    let perpage_report = run(WearBucketing::PerPage, ops);
    println!("\n===== workload_mix — 2-service trace scenario (zipf kv + sequential log) =====");
    println!("{}", log2_report.render());
    assert_eq!(log2_report.total_commands, perpage_report.total_commands);
    assert_eq!(perpage_report.op_cache_hits, 0, "PerPage never memoizes");
    assert!(
        log2_report.op_cache_misses * 10 <= perpage_report.op_cache_misses,
        "Log2 buckets must collapse derivations >=10x: {} vs {}",
        log2_report.op_cache_misses,
        perpage_report.op_cache_misses,
    );
    println!(
        "operating-point derivations: {} (PerPage) -> {} (Log2), {} cache hits",
        perpage_report.op_cache_misses, log2_report.op_cache_misses, log2_report.op_cache_hits,
    );

    let kv_eol = log2_report
        .phases
        .iter()
        .find(|p| p.name == "eol")
        .expect("eol phase")
        .services
        .first()
        .expect("kv service");
    let mut record = BenchResult::new(
        "workload_mix",
        "2-service trace scenario, Log2 memoization vs PerPage re-derivation",
    );
    record.exact = vec![
        ("ops_per_service_per_phase".into(), ops as f64),
        (
            "op_derivations_log2".into(),
            log2_report.op_cache_misses as f64,
        ),
        (
            "op_derivations_perpage".into(),
            perpage_report.op_cache_misses as f64,
        ),
        ("total_commands".into(), log2_report.total_commands as f64),
        ("verified_pages".into(), log2_report.verified_pages as f64),
        (
            "integrity_violations".into(),
            log2_report.integrity_violations as f64,
        ),
        ("read_failures".into(), log2_report.read_failures as f64),
    ];
    record.modeled = vec![
        ("device_time_s".into(), log2_report.total_device_time_s),
        ("parallel_time_s".into(), log2_report.total_parallel_time_s),
        ("total_energy_j".into(), log2_report.total_energy_j),
        (
            "kv_eol_write_amplification".into(),
            kv_eol.write_amplification,
        ),
    ];

    // Paired wall-clock record (reported, not asserted — the BCH
    // datapath dominates and the delta sits near the noise floor). The
    // smoke run keeps one short round so the gate tracks gross
    // slowdowns of the whole simulator path.
    let samples = if smoke() { 2 } else { 7 };
    let (log2_s, perpage_s, paired_diff_s) = measure_round(ops, samples);
    println!("\n===== workload_mix paired timings =====");
    println!("memoized (Log2)    : {:>9.3} ms/scenario", log2_s * 1e3);
    println!("re-derive (PerPage): {:>9.3} ms/scenario", perpage_s * 1e3);
    println!(
        "memoization delta: {:+.1}% (paired-median {:+.0} us)",
        (perpage_s / log2_s - 1.0) * 100.0,
        paired_diff_s * 1e6
    );
    record.wall = vec![("log2_s".into(), log2_s), ("perpage_s".into(), perpage_s)];
    record.write();

    if smoke() {
        println!("smoke mode: skipping the Criterion pass");
        return;
    }

    // Criterion timing for the record.
    let mut group = c.benchmark_group("workload_mix");
    group.bench_function("scenario_log2", |b| {
        b.iter(|| black_box(run(WearBucketing::Log2, ops)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench
}
criterion_main!(benches);
