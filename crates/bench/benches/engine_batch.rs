//! First performance baseline of the command-queue `StorageEngine`:
//! one 64-page mixed read/write batch submitted through the engine's
//! submission queue vs. the same 64 page operations issued as
//! sequential per-page `execute()` calls on a `PerPage`-bucketed
//! engine (the semantics of the retired `ServicedStore` shim).
//!
//! The host pattern is a realistic mixed stream — an ingest service
//! writing a worn (end-of-life) region, interleaved page-by-page with a
//! library service reading a fresh region. The sequential path must
//! execute the host's order; the engine's submission queues group the
//! batch per service (service-major drain), keeping each service's
//! cross-layer configuration and codec working set resident, and its
//! per-(service, wear-bucket) memo derives the ingest schedule once
//! instead of 32 times. Both paths run the identical functional
//! datapath — real BCH encode/decode against the error-injected NAND
//! model — so the delta isolates what the queued API buys.
//!
//! `MLCX_SMOKE=1` (the CI mode): the functional and structural
//! assertions all run, wall-clock sampling shrinks to one short paired
//! round (recorded for the bench gate, not asserted — the gate's
//! tolerance band owns that call), and the Criterion pass is skipped.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mlcx_bench::{median, smoke, BenchResult};
use mlcx_controller::{ControllerConfig, MemoryController};
use mlcx_core::engine::{
    Command, CommandOutput, EngineBuilder, ServiceHandle, StorageEngine, WearBucketing,
};
use mlcx_core::{Objective, SubsystemModel};
use std::hint::black_box;

const INGEST_BLOCK: usize = 0;
const LIBRARY_BLOCK: usize = 8;
const WRITES: usize = 32;
const READS: usize = 32;
const EOL_CYCLES: u64 = 1_000_000;

/// The host's command stream: write/read alternating page-by-page.
/// `None` page = ingest write slot, `Some(p)` = library read of page `p`.
fn host_pattern() -> Vec<Option<usize>> {
    let mut pattern = Vec::with_capacity(WRITES + READS);
    for i in 0..WRITES {
        pattern.push(None);
        pattern.push(Some(i % READS));
    }
    pattern
}

fn payload(page: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 7 + page * 131) % 256) as u8)
        .collect()
}

/// Writes the fresh library pages both workloads read back.
fn prime_library(ctrl: &mut MemoryController) {
    ctrl.erase_block(LIBRARY_BLOCK).unwrap();
    for page in 0..READS {
        ctrl.write_page(LIBRARY_BLOCK, page, &payload(page))
            .unwrap();
    }
}

fn engine_under_test() -> (StorageEngine, ServiceHandle, ServiceHandle) {
    let mut engine = EngineBuilder::date2012().seed(4096).build().unwrap();
    let ingest = engine
        .register_service("ingest", Objective::MaxReadThroughput, 0..8)
        .unwrap();
    let library = engine
        .register_service("library", Objective::Baseline, 8..16)
        .unwrap();
    engine
        .controller_mut()
        .age_block(INGEST_BLOCK, EOL_CYCLES)
        .unwrap();
    prime_library(engine.controller_mut());
    (engine, ingest, library)
}

/// The sequential baseline: a `PerPage`-bucketed engine driven one
/// `execute()` call at a time, so the cross-layer configuration is
/// re-derived from the region's wear on *every* write — the original
/// per-page store semantics.
fn sequential_under_test() -> (StorageEngine, ServiceHandle, ServiceHandle) {
    let ctrl = MemoryController::new(ControllerConfig::date2012(), 4096).unwrap();
    let mut engine =
        StorageEngine::with_bucketing(ctrl, SubsystemModel::date2012(), WearBucketing::PerPage);
    let ingest = engine
        .register_service("ingest", Objective::MaxReadThroughput, 0..8)
        .unwrap();
    let library = engine
        .register_service("library", Objective::Baseline, 8..16)
        .unwrap();
    engine
        .controller_mut()
        .age_block(INGEST_BLOCK, EOL_CYCLES)
        .unwrap();
    prime_library(engine.controller_mut());
    (engine, ingest, library)
}

/// The 64-page mixed batch through the engine: one submit in host
/// order, one drain.
fn run_batched(engine: &mut StorageEngine, ingest: ServiceHandle, library: ServiceHandle) -> usize {
    let mut cmds = Vec::with_capacity(1 + WRITES + READS);
    cmds.push(Command::erase(ingest, INGEST_BLOCK));
    let mut next_write = 0usize;
    for slot in host_pattern() {
        match slot {
            None => {
                cmds.push(Command::write(
                    ingest,
                    INGEST_BLOCK,
                    next_write,
                    payload(next_write),
                ));
                next_write += 1;
            }
            Some(p) => cmds.push(Command::read(library, LIBRARY_BLOCK, p)),
        }
    }
    engine.sq().submit_owned(cmds).unwrap();
    let completions = engine.cq().drain();
    assert!(completions.iter().all(|c| c.result.is_ok()));
    assert_eq!(engine.last_batch().commands, 1 + WRITES + READS);
    assert!(engine.last_batch().device_latency_s > 0.0);
    assert!(engine.last_batch().energy_j > 0.0);
    completions.len()
}

/// The same 64 page operations as sequential per-page `execute()`
/// calls, in the host's order.
fn run_sequential(
    engine: &mut StorageEngine,
    ingest: ServiceHandle,
    library: ServiceHandle,
) -> usize {
    engine
        .execute(Command::erase(ingest, INGEST_BLOCK))
        .unwrap();
    let mut done = 1;
    let mut next_write = 0usize;
    for slot in host_pattern() {
        match slot {
            None => {
                engine
                    .execute(Command::write(
                        ingest,
                        INGEST_BLOCK,
                        next_write,
                        payload(next_write),
                    ))
                    .unwrap();
                next_write += 1;
            }
            Some(p) => match engine
                .execute(Command::read(library, LIBRARY_BLOCK, p))
                .unwrap()
            {
                CommandOutput::Read(r) => assert!(r.outcome.is_success()),
                other => panic!("expected read output, got {other:?}"),
            },
        }
        done += 1;
    }
    done
}

/// One measurement round: `samples` strictly alternating (paired)
/// timings of both workloads, so clock-frequency drift and background
/// noise hit both equally. Returns (batched median, sequential median,
/// median of per-pair differences).
fn measure_round(
    engine: &mut StorageEngine,
    ingest: ServiceHandle,
    library: ServiceHandle,
    seq: &mut (StorageEngine, ServiceHandle, ServiceHandle),
    samples: usize,
) -> (f64, f64, f64) {
    let mut batched = Vec::with_capacity(samples);
    let mut sequential = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        black_box(run_batched(engine, ingest, library));
        batched.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(run_sequential(&mut seq.0, seq.1, seq.2));
        sequential.push(start.elapsed().as_secs_f64());
    }
    let diffs: Vec<f64> = sequential
        .iter()
        .zip(&batched)
        .map(|(s, b)| s - b)
        .collect();
    (median(batched), median(sequential), median(diffs))
}

fn bench(c: &mut Criterion) {
    let pages = (WRITES + READS) as f64;

    // --- The recorded baseline: batched vs sequential.
    let (mut engine, ingest, library) = engine_under_test();
    let mut seq = sequential_under_test();
    for _ in 0..3 {
        black_box(run_batched(&mut engine, ingest, library));
        black_box(run_sequential(&mut seq.0, seq.1, seq.2));
    }

    // The structural advantage is deterministic: one schedule
    // derivation per same-wear service batch instead of one per write.
    let batch = *engine.last_batch();
    assert_eq!(
        batch.op_cache_misses, 1,
        "the engine must derive the ingest schedule once per batch"
    );
    assert_eq!(batch.op_cache_hits, WRITES as u64 - 1);
    // Single-die topology: the parallel makespan is the serial sum.
    assert!((batch.parallel_latency_s - batch.device_latency_s).abs() < 1e-12);

    let mut record = BenchResult::new(
        "engine_batch",
        "64-page mixed batch, paired alternating medians vs sequential per-page execute()",
    );
    record.exact = vec![
        ("commands".into(), batch.commands as f64),
        ("op_cache_misses".into(), batch.op_cache_misses as f64),
        ("op_cache_hits".into(), batch.op_cache_hits as f64),
        ("knob_writes".into(), batch.knob_writes as f64),
    ];
    record.modeled = vec![
        ("device_latency_s".into(), batch.device_latency_s),
        ("parallel_latency_s".into(), batch.parallel_latency_s),
        ("energy_j".into(), batch.energy_j),
    ];

    if smoke() {
        // One short paired round for the gate's wall record; the
        // ordering assertion stays full-mode (CI noise is the gate's
        // tolerance band to judge).
        let (batched_s, sequential_s, paired_diff_s) =
            measure_round(&mut engine, ingest, library, &mut seq, 8);
        println!(
            "smoke round: batched {:.3} ms, sequential {:.3} ms, paired diff {:+.0} us",
            batched_s * 1e3,
            sequential_s * 1e3,
            paired_diff_s * 1e6
        );
        record.wall = vec![
            ("batched_s".into(), batched_s),
            ("sequential_s".into(), sequential_s),
        ];
        record.write();
        println!("smoke mode: skipping the full paired rounds and the Criterion pass");
        return;
    }

    // The wall-clock advantage is systematic but small (~1-3%), so a
    // noisy environment can mask a single round: measure paired
    // medians, retrying up to 3 rounds before declaring a regression.
    let mut verdict = None;
    let mut recorded_wall = (0.0, 0.0);
    for round in 0..3 {
        let (batched_s, sequential_s, paired_diff_s) =
            measure_round(&mut engine, ingest, library, &mut seq, 24);
        recorded_wall = (batched_s, sequential_s);
        let batched_pps = pages / batched_s;
        let sequential_pps = pages / sequential_s;
        println!(
            "\n===== engine_batch round {round} — 64-page mixed batch (32 EOL writes x 32 fresh reads, alternating) ====="
        );
        println!(
            "batched   StorageEngine : {:>9.3} ms/batch  {:>9.0} pages/s",
            batched_s * 1e3,
            batched_pps
        );
        println!(
            "sequential per-page exec: {:>9.3} ms/batch  {:>9.0} pages/s",
            sequential_s * 1e3,
            sequential_pps
        );
        println!(
            "batched speedup: {:.1}% (paired-median {:.0} us saved per batch)",
            (sequential_s / batched_s - 1.0) * 100.0,
            paired_diff_s * 1e6
        );
        if paired_diff_s > 0.0 && batched_pps > sequential_pps {
            verdict = Some((batched_pps, sequential_pps));
            break;
        }
        println!("round {round} inconclusive (environment noise?), retrying...");
    }
    let (batched_pps, sequential_pps) =
        verdict.expect("batched submission must beat sequential per-page calls within 3 rounds");
    assert!(batched_pps > sequential_pps);
    record.wall = vec![
        ("batched_s".into(), recorded_wall.0),
        ("sequential_s".into(), recorded_wall.1),
    ];
    record.write();

    // --- Criterion timings for the record.
    let mut group = c.benchmark_group("engine_batch");
    group.throughput(Throughput::Elements(pages as u64));
    let (mut engine, ingest, library) = engine_under_test();
    group.bench_function("batched_submit_drain", |b| {
        b.iter(|| black_box(run_batched(&mut engine, ingest, library)))
    });
    let mut seq = sequential_under_test();
    group.bench_function("sequential_per_page_execute", |b| {
        b.iter(|| black_box(run_sequential(&mut seq.0, seq.1, seq.2)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
