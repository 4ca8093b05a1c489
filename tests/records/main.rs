//! The eight deterministic regression records, each a `#[test]` that
//! holds itself against its committed baseline, and the goldens: every
//! preset arm's report and every figure, held as text (`goldens`).
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
//! cargo test --test records -- --ignored bless   # refresh the baselines and goldens (EXPERIMENTS.md)
//! ```
//!
//! Beside them, the performance trajectory: `trajectory` writes a
//! `BENCH_<pr>.json` at the root from runs of the built repo benchmark,
//! and every committed one is held to `BENCHMARK.json`'s metric names and
//! to its predecessor's simulated numbers
//! ([`mlcx_bench::trajectory::check`]).
//!
//! ```text
//! cargo build --release --offline --manifest-path benchmark/Cargo.toml
//! MLCX_BENCH_PR=<n> cargo test --release --test records -- --ignored --nocapture trajectory
//! # and the parent's file from the same alternating session, its
//! # benchmark built in its own checkout:
//! MLCX_BENCH_PR=<n> MLCX_BENCH_PARENT=<n-1>=../parent cargo test --release --test records \
//!     -- --ignored --nocapture trajectory
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use mlcx_bench::json::{self, Json};
use mlcx_bench::trajectory::{self, Session};
use mlcx_bench::{baselines_dir, BenchResult};

mod codec_kernels;
mod engine_batch;
mod goldens;
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

fn golden_path(name: &str) -> PathBuf {
    baselines_dir().join("goldens").join(format!("{name}.txt"))
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

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// The "never silently disarmed" property: a baseline no record checks,
/// or a record added to the table without a committed baseline, fails;
/// so does a golden nothing renders.
#[test]
fn every_baseline_has_a_record_and_every_record_a_baseline() {
    let mut expected: Vec<String> = RECORDS.iter().map(|(n, _)| format!("{n}.json")).collect();
    expected.push("goldens".to_string());
    expected.sort();
    assert_eq!(listing(&baselines_dir()), expected);
}

/// Every preset arm's report and every figure, held as text against
/// `crates/bench/baselines/goldens/`: a failure names each golden and the
/// first line of it that moved.
#[test]
fn goldens() {
    let rendered = goldens::render();
    let mut expected: Vec<String> = rendered.iter().map(|(n, _)| format!("{n}.txt")).collect();
    expected.sort();
    assert_eq!(listing(&baselines_dir().join("goldens")), expected);
    let moved: Vec<String> = rendered
        .iter()
        .filter_map(|(name, text)| {
            let path = golden_path(name);
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            goldens::first_difference(name, &committed, text)
        })
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// Rewrites every baseline and golden from a fresh run of its record —
/// how a deliberate model change is adopted. On a clean tree it is a
/// byte-level no-op.
#[test]
#[ignore = "rewrites crates/bench/baselines/; run it to adopt an intended change"]
fn bless() {
    for (name, record) in RECORDS {
        std::fs::write(baseline_path(name), record().to_json()).unwrap();
    }
    std::fs::create_dir_all(baselines_dir().join("goldens")).unwrap();
    for (name, text) in goldens::render() {
        std::fs::write(golden_path(&name), text).unwrap();
    }
}

/// Runs of each workload per build and mode in a trajectory session.
const TRAJECTORY_RUNS: usize = 5;
/// The seed every trajectory file is recorded at.
const TRAJECTORY_SEED: u32 = 4096;
/// Seconds of a traced run (an untraced one runs `BENCHMARK.json`'s
/// `run_seconds`).
const TRACED_SECONDS: u32 = 10;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn manifest() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap()
}

/// Every committed `BENCH_<pr>.json`, with its number.
fn trajectory_files() -> Vec<(u32, Json)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(repo_root()).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let Some(pr) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(repo_root().join(&name)).unwrap();
        let file = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        files.push((
            pr.parse()
                .unwrap_or_else(|_| panic!("{name}: no PR number")),
            file,
        ));
    }
    files
}

/// The trajectory's schema: every committed file has `BENCHMARK.json`'s
/// workloads and metric names, and its `sim_*`, `write_amp` and digests
/// equal its predecessor's unless it declares `"model_change"`.
#[test]
fn trajectory_files_hold_the_manifest_names_and_the_simulated_numbers() {
    let mut files = trajectory_files();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");
    if let Err(errors) = trajectory::check(&manifest(), &mut files) {
        panic!("{errors}");
    }
}

/// Writes `BENCH_<MLCX_BENCH_PR>.json` from runs of the built
/// `benchmark/target/release/mlcx-benchmark`: every workload of
/// `BENCHMARK.json`, [`TRAJECTORY_RUNS`] times untraced and as many
/// traced, at [`TRAJECTORY_SEED`]. With `MLCX_BENCH_PARENT=<pr>=<checkout>`
/// the parent's built benchmark runs alternately with this one, and its
/// file is written too.
#[test]
#[ignore = "runs the built repo benchmark for about half an hour and writes BENCH_<pr>.json"]
fn trajectory() {
    let manifest = manifest();
    let pr = |text: &str| -> u32 {
        text.parse()
            .unwrap_or_else(|_| panic!("{text:?} is not a PR number"))
    };
    let mut sides = vec![(
        pr(&std::env::var("MLCX_BENCH_PR")
            .expect("set MLCX_BENCH_PR to the PR number of the file")),
        repo_root().to_path_buf(),
    )];
    if let Ok(parent) = std::env::var("MLCX_BENCH_PARENT") {
        let (number, checkout) = parent
            .split_once('=')
            .expect("MLCX_BENCH_PARENT is <pr>=<checkout>");
        sides.push((pr(number), PathBuf::from(checkout)));
    }
    let seconds = manifest
        .get("run_seconds")
        .and_then(Json::as_number)
        .unwrap();
    let host = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let model = info
                .lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))?
                .1;
            Some(model.trim().to_string())
        });
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut sessions: Vec<(Session, PathBuf)> = sides
        .iter()
        .map(|(pr, checkout)| {
            let binary = checkout.join("benchmark/target/release/mlcx-benchmark");
            assert!(
                binary.is_file(),
                "{} is missing: build it with `cargo build --release --offline \
                 --manifest-path benchmark/Cargo.toml` in that checkout",
                binary.display()
            );
            let ledger = std::fs::read_to_string(checkout.join("tests/surface_ledger.rs"))
                .ok()
                .and_then(|source| trajectory::ledger(&source));
            let header = vec![
                ("seed".to_string(), Json::Number(f64::from(TRAJECTORY_SEED))),
                ("runs".to_string(), Json::Number(TRAJECTORY_RUNS as f64)),
                ("seconds".to_string(), Json::Number(seconds)),
                (
                    "traced_seconds".to_string(),
                    Json::Number(f64::from(TRACED_SECONDS)),
                ),
                (
                    "host".to_string(),
                    Json::String(format!(
                        "{}, {cores} cores",
                        host.as_deref().unwrap_or("unknown CPU")
                    )),
                ),
                (
                    "session".to_string(),
                    Json::String(
                        sides
                            .iter()
                            .map(|(pr, _)| format!("BENCH_{pr}"))
                            .collect::<Vec<_>>()
                            .join(" / ")
                            + ", runs alternating",
                    ),
                ),
                ("ledger".to_string(), ledger.unwrap_or(Json::Null)),
            ];
            (Session::new(*pr, header), binary)
        })
        .collect();
    let workloads = manifest.get("workloads").and_then(Json::as_array).unwrap();
    for workload in workloads.iter().filter_map(|w| w.get("name")?.as_str()) {
        for run in 0..TRAJECTORY_RUNS {
            for (trace, seconds) in [(0, seconds as u32), (1, TRACED_SECONDS)] {
                // Alternate which build goes first, so neither always runs
                // second in a pair.
                let mut order: Vec<usize> = (0..sessions.len()).collect();
                if run % 2 == 1 {
                    order.reverse();
                }
                for side in order {
                    let (session, binary) = &mut sessions[side];
                    let args = [
                        "--workload".to_string(),
                        workload.to_string(),
                        "--seed".to_string(),
                        TRAJECTORY_SEED.to_string(),
                        "--seconds".to_string(),
                        seconds.to_string(),
                        "--trace".to_string(),
                        trace.to_string(),
                    ];
                    // A traced run writes its spans under
                    // `$CARGO_MANIFEST_DIR/out/`, which cargo has set to
                    // this package: point it at the checkout's ignored
                    // `benchmark/out/` instead.
                    let package = binary.ancestors().nth(3).unwrap();
                    let mut child = Command::new(&*binary);
                    child.args(&args).env("CARGO_MANIFEST_DIR", package);
                    session
                        .run(workload, trace == 1, &mut child)
                        .unwrap_or_else(|e| panic!("{e}"));
                    eprintln!(
                        "{}: {workload} run {run} trace {trace} done",
                        session.file_name()
                    );
                }
            }
        }
    }
    // The first side is this checkout: its file carries the paired ratios
    // against the parent's runs.
    for (side, (session, _)) in sessions.iter().enumerate() {
        let parent = sessions.get(1).filter(|_| side == 0).map(|(p, _)| p);
        let text = session.render(parent);
        std::fs::write(repo_root().join(session.file_name()), text).unwrap();
    }
}
