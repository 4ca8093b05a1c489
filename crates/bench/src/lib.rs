//! Deterministic regression records and the gate that compares them.
//!
//! The targets in `benches/` each run one seeded workload at the
//! size its committed baseline was recorded at, assert the functional and
//! structural properties in-process, and write a machine-readable record
//! ([`BenchResult`]) that the `bench_gate` binary compares against
//! `crates/bench/baselines/` — the CI regression gate (see EXPERIMENTS.md
//! for the refresh procedure). Every recorded number is a model output:
//! how fast the simulator itself runs (wall clock, RSS, per-layer
//! attribution) is measured by the repo benchmark under `benchmark/`.

#![forbid(unsafe_code)]
// Rule table: ARCHITECTURE.md "Static analysis & determinism invariants".
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::PathBuf;

pub mod json;

/// Where bench result records land (`target/bench-results/`). The gate
/// reads them from here; `--update` copies them over the baselines.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("bench-results")
}

/// The committed baselines the gate compares against.
pub fn baselines_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines")
}

/// Upper median (element `len / 2` after sorting) — the statistic the
/// paired-sample benches report.
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

/// One bench's machine-readable outcome, mirrored by the baseline files.
///
/// Two metric classes with different comparison rules:
///
/// * `exact` — bit-deterministic structural counters (command counts,
///   derivation counts, checksums): the gate requires bit equality.
/// * `modeled` — deterministic modeled quantities (device time, energy,
///   makespans, modeled speedups): compared within
///   `modeled_tolerance_pct` so a deliberate model change fails loudly
///   until the baselines are refreshed.
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Bench name (= result/baseline file stem).
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

    /// Serializes the record as the gate's JSON schema, through the
    /// shared [`json::Json::render_pretty`] writer.
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

    /// Writes the record to [`results_dir`] (and prints it once, so the
    /// bench log doubles as the record).
    ///
    /// # Panics
    ///
    /// Panics when the results directory cannot be created or written —
    /// a bench without its record would silently disarm the gate.
    pub fn write(&self) {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("bench results dir must be creatable");
        let path = dir.join(format!("{}.json", self.bench));
        std::fs::write(&path, self.to_json()).expect("bench result must be writable");
        println!("bench result recorded: {}", path.display());
    }

    /// Parses a record (result or baseline file) back from JSON.
    ///
    /// # Errors
    ///
    /// A human-readable parse/schema error. A key outside the schema is
    /// an error naming it, so a stale record from an older schema (one
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

        // A record of the older schema is refused by the key it carries.
        for (key, value) in [("mode", "\"smoke\""), ("wall", "{\"batch_s\": 0.003654}")] {
            let legacy = text.replacen('{', &format!("{{\n  \"{key}\": {value},"), 1);
            let err = BenchResult::from_json(&legacy).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
    }
}
