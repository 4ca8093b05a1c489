//! The eight deterministic regression records, each a `#[test]` that
//! holds itself against its committed baseline.
//!
//! Every module's `record()` runs one seeded workload, asserts its
//! functional and structural properties in-process and returns the
//! [`BenchResult`]; the test of the same name then compares it to
//! `crates/bench/baselines/<name>.json` ([`BenchResult::check_against`]:
//! every metric bit-for-bit, same keys on both sides) and panics with
//! the per-field diff table. Tier-1 runs them under the dev profile and
//! CI again optimised, so both builds are held to the same numbers.
//!
//! ```text
//! cargo test --test records                      # all eight vs their baselines
//! cargo test --test records qos_tail -- --nocapture   # one record, with its table
//! cargo test --test records -- --ignored bless   # refresh the baselines (EXPERIMENTS.md)
//! ```

use std::path::PathBuf;

use mlcx_bench::{baselines_dir, BenchResult};

mod codec_kernels;
mod engine_batch;
mod parallel_scale;
mod program_interference;
mod qos_tail;
mod read_retry;
mod scrub_overhead;
mod workload_mix;

/// Declares the record table and one baseline-holding test per record.
macro_rules! records {
    ($($name:ident),* $(,)?) => {
        /// Every record: baseline file stem and builder.
        const RECORDS: &[(&str, fn() -> BenchResult)] =
            &[$((stringify!($name), $name::record)),*];
        $(
            #[test]
            fn $name() {
                hold(stringify!($name), &$name::record());
            }
        )*
    };
}

records!(
    codec_kernels,
    engine_batch,
    parallel_scale,
    program_interference,
    qos_tail,
    read_retry,
    scrub_overhead,
    workload_mix,
);

fn baseline_path(name: &str) -> PathBuf {
    baselines_dir().join(format!("{name}.json"))
}

/// Panics with the per-field diff table unless `record` holds against
/// the committed baseline `name`.
fn hold(name: &str, record: &BenchResult) {
    assert_eq!(record.bench, name);
    let path = baseline_path(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let baseline =
        BenchResult::from_json(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
    if let Err(table) = record.check_against(&baseline) {
        panic!("{table}");
    }
}

/// The "never silently disarmed" property: a baseline no record checks,
/// or a record added to the table without a committed baseline, fails.
#[test]
fn every_baseline_has_a_record_and_every_record_a_baseline() {
    let mut committed: Vec<String> = std::fs::read_dir(baselines_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    committed.sort();
    let expected: Vec<String> = RECORDS.iter().map(|(n, _)| format!("{n}.json")).collect();
    assert_eq!(committed, expected);
}

/// Rewrites every baseline from a fresh run of its record — how a
/// deliberate model change is adopted. On a clean tree it is a
/// byte-level no-op.
#[test]
#[ignore = "rewrites crates/bench/baselines/; run it to adopt an intended change"]
fn bless() {
    for (name, record) in RECORDS {
        std::fs::write(baseline_path(name), record().to_json()).unwrap();
    }
}
