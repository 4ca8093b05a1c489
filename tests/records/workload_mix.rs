//! Workload-mix record: a two-service trace-driven scenario (zipf
//! key-value store + sequential log) run through the simulator under
//! `WearBucketing::Log2` (power-of-two wear buckets), against what
//! re-deriving the operating point for every page would cost.
//!
//! FTL traffic churns the wear of every block (each GC erase bumps its
//! cycle count), so what memoization buys is a **deterministic
//! structural counter**: Log2 must collapse the model derivations by an
//! order of magnitude with zero integrity violations. Deriving per page
//! costs one derivation per lookup, i.e. the run's hits plus misses —
//! the number the retired `PerPage` policy used to count by running the
//! scenario again, still recorded under `op_derivations_perpage`. The
//! record pins those counters and the scenario's modeled time, energy
//! and write amplification against
//! `crates/bench/baselines/workload_mix.json`.

use mlcx::{
    ControllerConfig, DeviceGeometry, EngineBuilder, Objective, Scenario, ScenarioReport,
    TraceKind, WearBucketing,
};
use mlcx_bench::BenchResult;

/// Host operations per service per phase.
const OPS: usize = 12;

/// Runs the scenario under test — two services, two lifetime phases with
/// a fast-forward to end of life between them — and checks it ran clean.
fn run() -> ScenarioReport {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: 16,
        pages_per_block: 16,
        ..config.geometry
    };
    let report = Scenario::builder()
        .engine(
            EngineBuilder::date2012()
                .controller_config(config)
                .wear_bucketing(WearBucketing::Log2),
        )
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
        .phase("fresh", OPS, 1_000_000)
        .phase("eol", OPS, 0)
        .build()
        .expect("bench scenario must validate")
        .run()
        .expect("scenario must run");
    assert_eq!(report.integrity_violations, 0, "workload corrupted data");
    assert_eq!(report.read_failures, 0, "ECC failed under the workload");
    report
}

pub(crate) fn record() -> BenchResult {
    // The scenario runs clean and reproduces exactly; Log2 absorbs the
    // derivation pressure.
    let log2_report = run();
    assert_eq!(
        log2_report,
        run(),
        "scenario must reproduce deterministically"
    );
    println!("\n===== workload_mix — 2-service trace scenario (zipf kv + sequential log) =====");
    println!("{}", log2_report.render());
    let lookups = log2_report.op_cache_hits + log2_report.op_cache_misses;
    assert!(
        log2_report.op_cache_misses * 10 <= lookups,
        "Log2 buckets must collapse derivations >=10x: {} vs {}",
        log2_report.op_cache_misses,
        lookups,
    );
    println!(
        "operating-point derivations: {} (one per lookup) -> {} (Log2), {} cache hits",
        lookups, log2_report.op_cache_misses, log2_report.op_cache_hits,
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
        ("ops_per_service_per_phase".into(), OPS as f64),
        (
            "op_derivations_log2".into(),
            log2_report.op_cache_misses as f64,
        ),
        ("op_derivations_perpage".into(), lookups as f64),
        ("total_commands".into(), log2_report.total_commands as f64),
        ("verified_pages".into(), log2_report.verified_pages as f64),
        (
            "integrity_violations".into(),
            log2_report.integrity_violations as f64,
        ),
        ("read_failures".into(), log2_report.read_failures as f64),
    ];
    record.exact.extend([
        ("device_time_s".into(), log2_report.total_device_time_s),
        ("parallel_time_s".into(), log2_report.total_parallel_time_s),
        ("total_energy_j".into(), log2_report.total_energy_j),
        (
            "kv_eol_write_amplification".into(),
            kv_eol.ftl.write_amplification(),
        ),
    ]);
    record
}
