//! Structural record of the command-queue `StorageEngine`: one 64-page
//! mixed read/write batch submitted through the engine's submission
//! queue and drained once.
//!
//! The host pattern is a realistic mixed stream — an ingest service
//! writing a worn (end-of-life) region, interleaved page-by-page with a
//! library service reading a fresh region. The engine's submission
//! queues group the batch per service (service-major drain), and its
//! per-(service, wear-bucket) memo derives the ingest schedule once
//! instead of 32 times; the batch runs the real functional datapath —
//! BCH encode/decode against the error-injected NAND model. The record
//! pins the command and derivation counts and the modeled batch latency
//! and energy; how fast the host executes the same path is the repo
//! benchmark's `fresh_mixed/host_kpages_per_s`.

use mlcx::{Command, EngineBuilder, MemoryController, Objective, ServiceHandle, StorageEngine};
use mlcx_bench::BenchResult;

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

/// Writes the fresh library pages the batch reads back.
fn prime_library(ctrl: &mut MemoryController) {
    ctrl.erase_block(LIBRARY_BLOCK).unwrap();
    for page in 0..READS {
        ctrl.write_page(LIBRARY_BLOCK, page, payload(page)).unwrap();
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

/// The 64-page mixed batch through the engine: one submit in host
/// order, one drain.
fn run_batched(engine: &mut StorageEngine, ingest: ServiceHandle, library: ServiceHandle) {
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
}

pub(crate) fn record() -> BenchResult {
    let (mut engine, ingest, library) = engine_under_test();
    // The committed record is the third batch: the seeded device
    // stream advances with every batch, so the count is part of the pin.
    for _ in 0..3 {
        run_batched(&mut engine, ingest, library);
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
        "64-page mixed batch (32 EOL writes x 32 fresh reads, alternating), one submit + one drain",
    );
    record.exact = vec![
        ("commands".into(), batch.commands as f64),
        ("op_cache_misses".into(), batch.op_cache_misses as f64),
        ("op_cache_hits".into(), batch.op_cache_hits as f64),
        ("knob_writes".into(), batch.knob_writes as f64),
    ];
    record.exact.extend([
        ("device_latency_s".into(), batch.device_latency_s),
        ("parallel_latency_s".into(), batch.parallel_latency_s),
        ("energy_j".into(), batch.energy_j),
    ]);
    record
}
