//! The bench-regression gate.
//!
//! Compares the records the benches wrote under `target/bench-results/`
//! against the committed baselines under `crates/bench/baselines/`, and
//! exits non-zero on a regression:
//!
//! * `exact` metrics (structural counters, checksums) must match
//!   bit-for-bit;
//! * `modeled` metrics (deterministic modeled time/energy/speedup) must
//!   stay within the baseline's `modeled_tolerance_pct` band — a
//!   deliberate model change fails loudly until the baselines are
//!   refreshed.
//!
//! Usage (see EXPERIMENTS.md):
//!
//! ```text
//! cargo bench -p mlcx-bench                             # write the records
//! cargo run -p mlcx-bench --bin bench_gate              # compare
//! cargo run -p mlcx-bench --bin bench_gate -- --update  # refresh baselines
//! ```
//!
//! A baseline without a result record and a result record without a
//! baseline both fail a plain run, so the gate is never silently
//! disarmed; `--update` adopts the latter as a fresh baseline.

// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::Path;
use std::process::ExitCode;

use mlcx_bench::{baselines_dir, results_dir, BenchResult};

/// One metric comparison's outcome.
struct Check {
    metric: String,
    baseline: f64,
    actual: f64,
    ok: bool,
    rule: &'static str,
}

/// Result metric keys the baseline does not know about (a metric added
/// to a bench after the last refresh): reported so a new metric is
/// never silently ungated.
fn ungated_metrics(baseline: &BenchResult, result: &BenchResult) -> Vec<String> {
    let sections = [
        ("exact", &baseline.exact, &result.exact),
        ("modeled", &baseline.modeled, &result.modeled),
    ];
    let mut extra = Vec::new();
    for (rule, base, res) in sections {
        for (key, _) in res.iter() {
            if !base.iter().any(|(k, _)| k == key) {
                extra.push(format!("{rule}.{key}"));
            }
        }
    }
    extra
}

fn compare(baseline: &BenchResult, result: &BenchResult) -> Result<Vec<Check>, String> {
    let lookup = |set: &[(String, f64)], key: &str| -> Option<f64> {
        set.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    };
    let mut checks = Vec::new();
    for &(ref key, expect) in &baseline.exact {
        let actual = lookup(&result.exact, key)
            .ok_or_else(|| format!("result is missing exact metric {key:?}"))?;
        checks.push(Check {
            metric: key.clone(),
            baseline: expect,
            actual,
            ok: actual.to_bits() == expect.to_bits(),
            rule: "exact",
        });
    }
    for &(ref key, expect) in &baseline.modeled {
        let actual = lookup(&result.modeled, key)
            .ok_or_else(|| format!("result is missing modeled metric {key:?}"))?;
        let band = baseline.modeled_tolerance_pct / 100.0;
        let ok = if expect == 0.0 {
            actual.abs() <= band
        } else {
            ((actual - expect) / expect).abs() <= band
        };
        checks.push(Check {
            metric: key.clone(),
            baseline: expect,
            actual,
            ok,
            rule: "modeled",
        });
    }
    Ok(checks)
}

/// Renders the failed checks of one bench as a per-field diff table —
/// baseline vs current value, absolute and relative delta — so a gate
/// failure in CI is diagnosable from the log alone.
fn render_diff_table(bench: &str, failed: &[&Check]) -> String {
    let mut out = format!(
        "  {bench}: {} metric(s) outside their baseline bands:\n  {:7} {:40} {:>14} {:>14} {:>14} {:>10}\n",
        failed.len(),
        "rule",
        "metric",
        "baseline",
        "current",
        "delta",
        "rel"
    );
    for c in failed {
        let delta = c.actual - c.baseline;
        let rel = if c.baseline == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.3}%", delta / c.baseline * 100.0)
        };
        out.push_str(&format!(
            "  {:7} {:40} {:>14.6} {:>14.6} {:>+14.6} {:>10}\n",
            c.rule, c.metric, c.baseline, c.actual, delta, rel
        ));
    }
    out
}

fn load(path: &Path) -> Result<BenchResult, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    BenchResult::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// JSON files of a directory, sorted (empty when the dir is absent).
fn json_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    entries.sort();
    entries
}

fn run(baselines: &Path, results: &Path, update: bool) -> Result<bool, String> {
    let entries = json_files(baselines);
    if entries.is_empty() && !update {
        return Err(format!("no baselines under {}", baselines.display()));
    }

    let mut all_ok = true;
    let mut missing = Vec::new();
    let mut covered = Vec::new();
    for baseline_path in &entries {
        let baseline = load(baseline_path)?;
        let result_path = results.join(format!("{}.json", baseline.bench));
        if !result_path.exists() {
            missing.push(baseline.bench.clone());
            continue;
        }
        covered.push(baseline.bench.clone());
        let result = load(&result_path)?;
        if update {
            // Re-serialize through the shared `mlcx_bench::json` writer
            // (rather than copying bytes) so refreshed baselines always
            // carry the canonical dialect, whatever wrote the record.
            std::fs::write(baseline_path, result.to_json())
                .map_err(|e| format!("update {}: {e}", baseline_path.display()))?;
            println!(
                "refreshed {} from {}",
                baseline_path.display(),
                result_path.display()
            );
            continue;
        }
        println!("\n== {} ==", baseline.bench);
        let checks = compare(&baseline, &result).map_err(|e| format!("{}: {e}", baseline.bench))?;
        for c in &checks {
            println!(
                "  [{}] {:7} {:40} baseline {:>14.6}  actual {:>14.6}",
                if c.ok { "ok" } else { "FAIL" },
                c.rule,
                c.metric,
                c.baseline,
                c.actual
            );
        }
        let failed: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();
        if !failed.is_empty() {
            all_ok = false;
            print!("{}", render_diff_table(&baseline.bench, &failed));
        }
        for metric in ungated_metrics(&baseline, &result) {
            println!(
                "  [warn] {metric} is in the result but not the baseline — \
                 NOT gated; refresh with `bench_gate -- --update`"
            );
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "no bench results for {:?} under {} — run the benches first \
             (cargo bench -p mlcx-bench)",
            missing,
            results.display()
        ));
    }

    // Result records with no committed baseline: a newly added bench.
    // `--update` adopts them as fresh baselines; a plain run fails so
    // the gate is never silently disarmed for a gated-looking bench.
    let mut unbaselined = Vec::new();
    for result_path in json_files(results) {
        let result = load(&result_path)?;
        if covered.contains(&result.bench) {
            continue;
        }
        if update {
            let baseline_path = baselines.join(format!("{}.json", result.bench));
            std::fs::write(&baseline_path, result.to_json())
                .map_err(|e| format!("create {}: {e}", baseline_path.display()))?;
            println!(
                "adopted new baseline {} from {}",
                baseline_path.display(),
                result_path.display()
            );
        } else {
            unbaselined.push(result.bench);
        }
    }
    if !unbaselined.is_empty() {
        return Err(format!(
            "result records {:?} have no committed baseline under {} — \
             adopt them with `bench_gate -- --update`",
            unbaselined,
            baselines.display()
        ));
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let update = std::env::args().any(|a| a == "--update");
    match run(&baselines_dir(), &results_dir(), update) {
        Ok(true) => {
            println!("\nbench gate: all baselines hold");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!(
                "\nbench gate: REGRESSION — metrics drifted outside the baseline bands. \
                 If the change is intentional, refresh with \
                 `cargo run -p mlcx-bench --bin bench_gate -- --update` (see EXPERIMENTS.md)."
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench gate: error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(exact: f64, modeled: f64) -> BenchResult {
        let mut r = BenchResult::new("demo", "unit test");
        r.exact.push(("checksum".into(), exact));
        r.modeled.push(("device_time_s".into(), modeled));
        r
    }

    #[test]
    fn exact_is_bit_exact_and_modeled_has_a_band() {
        // A checksum-sized value: 1 ulp is 2048, far inside any relative
        // tolerance, and must still fail.
        let big = 13503135767590940000.0_f64;
        let baseline = record(big, 1.0);
        let verdict = |r: &BenchResult| -> Vec<bool> {
            let checks = compare(&baseline, r).unwrap();
            checks.iter().map(|c| c.ok).collect()
        };
        assert_eq!(verdict(&record(big, 1.0)), [true, true]);
        let one_ulp_up = f64::from_bits(big.to_bits() + 1);
        assert_eq!(verdict(&record(one_ulp_up, 1.0)), [false, true]);
        assert_eq!(verdict(&record(big, 1.009)), [true, true], "inside 1 %");
        assert_eq!(verdict(&record(big, 1.011)), [true, false], "outside 1 %");
    }

    #[test]
    fn gate_fails_on_missing_result_and_on_unbaselined_result() {
        let root = std::env::temp_dir().join(format!("mlcx-bench-gate-{}", std::process::id()));
        let (baselines, results) = (root.join("baselines"), root.join("results"));
        for dir in [&baselines, &results] {
            std::fs::create_dir_all(dir).unwrap();
        }
        let demo = record(7.0, 1.0);
        std::fs::write(baselines.join("demo.json"), demo.to_json()).unwrap();

        // A baseline whose bench never ran.
        let err = run(&baselines, &results, false).unwrap_err();
        assert!(
            err.contains("no bench results") && err.contains("demo"),
            "{err}"
        );

        std::fs::write(results.join("demo.json"), demo.to_json()).unwrap();
        assert_eq!(run(&baselines, &results, false), Ok(true));

        // A record nobody committed a baseline for fails a plain run ...
        let mut extra = demo.clone();
        extra.bench = "extra".into();
        std::fs::write(results.join("extra.json"), extra.to_json()).unwrap();
        let err = run(&baselines, &results, false).unwrap_err();
        assert!(
            err.contains("no committed baseline") && err.contains("extra"),
            "{err}"
        );

        // ... and `--update` adopts it.
        assert_eq!(run(&baselines, &results, true), Ok(true));
        assert!(baselines.join("extra.json").exists());
        assert_eq!(run(&baselines, &results, false), Ok(true));

        std::fs::remove_dir_all(&root).unwrap();
    }
}
