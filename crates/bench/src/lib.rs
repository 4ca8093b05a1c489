//! The deterministic regression records' schema, JSON dialect and gate.
//!
//! The eight records under `tests/records/` each run one seeded workload
//! at the size its committed baseline was recorded at, assert the
//! functional and structural properties in-process, and end by holding
//! their [`BenchResult`] against `crates/bench/baselines/<name>.json`
//! through [`BenchResult::check_against`] — ordinary `#[test]`s, so
//! `cargo test` is the regression gate in both profiles (see
//! EXPERIMENTS.md for the refresh procedure). Every recorded number is a
//! model output: how fast the simulator itself runs (wall clock, RSS,
//! per-layer attribution) is measured by the repo benchmark under
//! `benchmark/`.

#![forbid(unsafe_code)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::PathBuf;

pub mod json;

/// The committed baselines the records are held against.
pub fn baselines_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines")
}

/// Upper median (element `len / 2` after sorting) — the statistic the
/// paired-sample records report.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// Nearest-rank percentile: the `ceil(q * len)`-th smallest value.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[(((q * sorted.len() as f64).ceil() as usize).max(1) - 1).min(sorted.len() - 1)]
}

/// One record's machine-readable outcome, mirrored by the baseline files.
///
/// Two metric classes with different comparison rules
/// ([`BenchResult::check_against`]):
///
/// * `exact` — bit-deterministic structural counters (command counts,
///   derivation counts, checksums): bit equality.
/// * `modeled` — deterministic modeled quantities (device time, energy,
///   makespans, modeled speedups): within the baseline's
///   `modeled_tolerance_pct`, so a deliberate model change fails loudly
///   until the baselines are refreshed.
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Record name (= baseline file stem).
    pub bench: String,
    /// Free-form provenance note.
    pub recorded: String,
    /// Bit-deterministic counters (equality).
    pub exact: Vec<(String, f64)>,
    /// Deterministic modeled metrics (tolerance band).
    pub modeled: Vec<(String, f64)>,
    /// Allowed relative drift for `modeled`, percent.
    pub modeled_tolerance_pct: f64,
}

/// Every key of the record schema.
const KEYS: [&str; 5] = [
    "bench",
    "recorded",
    "modeled_tolerance_pct",
    "exact",
    "modeled",
];

impl BenchResult {
    /// A result skeleton for `bench`.
    pub fn new(bench: &str, recorded: &str) -> Self {
        BenchResult {
            bench: bench.to_string(),
            recorded: recorded.to_string(),
            modeled_tolerance_pct: 1.0,
            ..BenchResult::default()
        }
    }

    /// Serializes the record as a baseline file, through the shared
    /// [`json::Json::render_pretty`] writer.
    pub fn to_json(&self) -> String {
        use json::Json;
        let section = |pairs: &[(String, f64)]| {
            Json::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Number(*v)))
                    .collect(),
            )
        };
        let obj = Json::Object(vec![
            ("bench".into(), Json::String(self.bench.clone())),
            ("recorded".into(), Json::String(self.recorded.clone())),
            (
                "modeled_tolerance_pct".into(),
                Json::Number(self.modeled_tolerance_pct),
            ),
            ("exact".into(), section(&self.exact)),
            ("modeled".into(), section(&self.modeled)),
        ]);
        let mut text = obj.render_pretty();
        text.push('\n');
        text
    }

    /// Holds this record against its committed `baseline`: every `exact`
    /// metric bit-equal, every `modeled` metric within the baseline's
    /// tolerance band, and the same metric keys on both sides — a metric
    /// only one of them knows is a failure, never silently ungated.
    ///
    /// # Errors
    ///
    /// The per-field diff table of everything that does not hold —
    /// baseline vs current value, absolute and relative delta — so a
    /// failure is diagnosable from the test log alone.
    pub fn check_against(&self, baseline: &BenchResult) -> Result<(), String> {
        let band = baseline.modeled_tolerance_pct / 100.0;
        let lookup =
            |set: &[(String, f64)], key: &str| set.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
        let mut rows = String::new();
        for (rule, base, mine) in [
            ("exact", &baseline.exact, &self.exact),
            ("modeled", &baseline.modeled, &self.modeled),
        ] {
            let unbaselined = mine.iter().filter(|(k, _)| lookup(base, k).is_none());
            for (key, _) in base.iter().chain(unbaselined) {
                let row = match (lookup(base, key), lookup(mine, key)) {
                    (Some(expect), Some(actual)) => {
                        let delta = actual - expect;
                        let scale = if expect == 0.0 { 1.0 } else { expect };
                        let holds = match rule {
                            "exact" => actual.to_bits() == expect.to_bits(),
                            _ => (delta / scale).abs() <= band,
                        };
                        if holds {
                            continue;
                        }
                        let rel = if expect == 0.0 {
                            "n/a".to_string()
                        } else {
                            format!("{:+.3}%", delta / expect * 100.0)
                        };
                        format!("{expect:>14.6} {actual:>14.6} {delta:>+14.6} {rel:>10}")
                    }
                    (Some(_), None) => "missing from the record".to_string(),
                    _ => "missing from the baseline".to_string(),
                };
                rows.push_str(&format!("  {rule:7} {key:40} {row}\n"));
            }
        }
        if rows.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{}: metrics off their committed baseline (intentional? refresh: \
             `cargo test --test records -- --ignored bless`, see EXPERIMENTS.md):\n  \
             {:7} {:40} {:>14} {:>14} {:>14} {:>10}\n{rows}",
            self.bench, "rule", "metric", "baseline", "current", "delta", "rel"
        ))
    }

    /// Parses a record (a baseline file) back from JSON.
    ///
    /// # Errors
    ///
    /// A human-readable parse/schema error. A key outside the schema is
    /// an error naming it, so a stale baseline from an older schema (one
    /// still carrying `mode` or `wall`) is refused rather than half-read.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        if let Some((key, _)) = obj.iter().find(|(k, _)| !KEYS.contains(&k.as_str())) {
            return Err(format!("unknown key {key:?} (schema: {KEYS:?})"));
        }
        let field = |key: &str| -> Result<&json::Json, String> {
            value.get(key).ok_or(format!("missing key {key:?}"))
        };
        let text_field = |key: &str| -> Result<String, String> {
            Ok(field(key)?
                .as_str()
                .ok_or(format!("{key:?} must be a string"))?
                .to_string())
        };
        let num_field = |key: &str| -> Result<f64, String> {
            field(key)?
                .as_number()
                .ok_or(format!("{key:?} must be a number"))
        };
        let map_field = |key: &str| -> Result<Vec<(String, f64)>, String> {
            field(key)?
                .as_object()
                .ok_or(format!("{key:?} must be an object"))?
                .iter()
                .map(|(k, v)| {
                    v.as_number()
                        .map(|n| (k.clone(), n))
                        .ok_or(format!("{key:?}.{k:?} must be a number"))
                })
                .collect()
        };
        Ok(BenchResult {
            bench: text_field("bench")?,
            recorded: text_field("recorded")?,
            modeled_tolerance_pct: num_field("modeled_tolerance_pct")?,
            exact: map_field("exact")?,
            modeled: map_field("modeled")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_use_the_benches_rank_conventions() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0, "upper median");
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.50), 3.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn bench_result_round_trips_through_json() {
        let mut r = BenchResult::new("demo", "unit test");
        r.exact.push(("commands".into(), 1217.0));
        r.modeled.push(("device_time_s".into(), 1.21409));
        let text = r.to_json();
        let back = BenchResult::from_json(&text).unwrap();
        assert_eq!(back.bench, "demo");
        assert_eq!(back.exact, r.exact);
        assert_eq!(back.modeled, r.modeled);
        assert_eq!(back.modeled_tolerance_pct, 1.0);

        // A baseline of the older schema is refused by the key it carries.
        for (key, value) in [("mode", "\"smoke\""), ("wall", "{\"batch_s\": 0.003654}")] {
            let legacy = text.replacen('{', &format!("{{\n  \"{key}\": {value},"), 1);
            let err = BenchResult::from_json(&legacy).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
    }

    #[test]
    fn check_against_is_bit_exact_banded_and_strict_about_keys() {
        // A checksum-sized value: 1 ulp is 2048, far inside any relative
        // tolerance, and must still fail.
        let big = 13503135767590940000.0_f64;
        let record = |exact: f64, modeled: f64| {
            let mut r = BenchResult::new("demo", "unit test");
            r.exact.push(("checksum".into(), exact));
            r.modeled.push(("device_time_s".into(), modeled));
            r
        };
        let baseline = record(big, 1.0);
        // The failing rows of the diff table, header dropped.
        let failing = |r: &BenchResult| match r.check_against(&baseline) {
            Ok(()) => Vec::new(),
            Err(table) => table.lines().skip(2).map(str::to_string).collect(),
        };
        assert_eq!(failing(&record(big, 1.009)), [""; 0], "inside 1 %");
        let rows = failing(&record(f64::from_bits(big.to_bits() + 1), 1.011));
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows[0].contains("exact   checksum"), "{rows:?}");
        assert!(rows[1].contains("modeled device_time_s") && rows[1].contains("+1.100%"));

        // A metric only one side knows fails by name — one added after
        // the last refresh included: never silently ungated.
        let mut moved = baseline.clone();
        moved.exact.clear();
        moved.modeled.push(("energy_j".into(), 0.5));
        let rows = failing(&moved);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows[0].contains("checksum") && rows[0].contains("missing from the record"));
        assert!(rows[1].contains("energy_j") && rows[1].contains("missing from the baseline"));
    }
}
