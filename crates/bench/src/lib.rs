//! Shared helpers for the figure benches and the bench-regression gate.
//!
//! The benches themselves live in `benches/`; each regenerates one table
//! or figure of the paper's evaluation (printing the series once) and
//! then lets Criterion time the generator. The performance benches
//! (`engine_batch`, `workload_mix`, `parallel_scale`) additionally write
//! a machine-readable result record ([`BenchResult`]) that the
//! `bench_gate` binary compares against the committed baselines under
//! `crates/bench/baselines/` — the CI regression gate (see
//! EXPERIMENTS.md for the refresh procedure).

#![forbid(unsafe_code)]

use std::path::PathBuf;

use mlcx_core::SubsystemModel;

pub mod json;

/// The model every figure bench runs against.
pub fn model() -> SubsystemModel {
    SubsystemModel::date2012()
}

/// Prints a bench banner with the figure id and its rendered table, once
/// per bench invocation, so `cargo bench` output doubles as the
/// reproduction record.
pub fn banner(figure: &str, table: &str) {
    println!("\n===== {figure} =====");
    println!("{table}");
}

/// Whether the bench runs in CI smoke mode (`MLCX_SMOKE=1`): tiny
/// workloads, trimmed wall-clock sampling, no Criterion pass — every
/// functional assertion still runs, and the result record is written
/// at the scale the committed baselines were recorded at.
pub fn smoke() -> bool {
    std::env::var("MLCX_SMOKE").is_ok_and(|v| v == "1")
}

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

/// Upper median (element `len / 2` after sorting) — the statistic every
/// paired-timing bench reports.
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
/// Three metric classes with different comparison rules:
///
/// * `exact` — bit-deterministic structural counters (command counts,
///   derivation counts): the gate requires equality.
/// * `modeled` — deterministic modeled quantities (device time, energy,
///   makespans, modeled speedups): compared within
///   `modeled_tolerance_pct` so a deliberate model change fails loudly
///   until the baselines are refreshed.
/// * `wall` — paired-median wall-clock seconds: lower is better, and
///   only a slowdown beyond `wall_tolerance_pct` fails (containers are
///   noisy; improvements always pass).
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Bench name (= result/baseline file stem).
    pub bench: String,
    /// "smoke" or "full" — the gate refuses to compare across modes.
    pub mode: String,
    /// Free-form provenance note.
    pub recorded: String,
    /// Bit-deterministic counters (equality).
    pub exact: Vec<(String, f64)>,
    /// Deterministic modeled metrics (tolerance band).
    pub modeled: Vec<(String, f64)>,
    /// Allowed relative drift for `modeled`, percent.
    pub modeled_tolerance_pct: f64,
    /// Paired-median wall-clock seconds (regression-only check).
    pub wall: Vec<(String, f64)>,
    /// Allowed slowdown for `wall`, percent.
    pub wall_tolerance_pct: f64,
}

impl BenchResult {
    /// A result skeleton for `bench` in the current smoke/full mode.
    pub fn new(bench: &str, recorded: &str) -> Self {
        BenchResult {
            bench: bench.to_string(),
            mode: if smoke() { "smoke" } else { "full" }.to_string(),
            recorded: recorded.to_string(),
            modeled_tolerance_pct: 1.0,
            wall_tolerance_pct: 100.0,
            ..BenchResult::default()
        }
    }

    /// Serializes the record as the gate's JSON schema, through the
    /// shared [`json::Json::render_pretty`] writer (the same serializer
    /// the `mlcx-lint` ratchet baseline uses).
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
            ("mode".into(), Json::String(self.mode.clone())),
            ("recorded".into(), Json::String(self.recorded.clone())),
            (
                "modeled_tolerance_pct".into(),
                Json::Number(self.modeled_tolerance_pct),
            ),
            (
                "wall_tolerance_pct".into(),
                Json::Number(self.wall_tolerance_pct),
            ),
            ("exact".into(), section(&self.exact)),
            ("modeled".into(), section(&self.modeled)),
            ("wall".into(), section(&self.wall)),
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
    /// A human-readable parse/schema error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let field = |key: &str| -> Result<&json::Json, String> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(format!("missing key {key:?}"))
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
            mode: text_field("mode")?,
            recorded: text_field("recorded")?,
            modeled_tolerance_pct: num_field("modeled_tolerance_pct")?,
            wall_tolerance_pct: num_field("wall_tolerance_pct")?,
            exact: map_field("exact")?,
            modeled: map_field("modeled")?,
            wall: map_field("wall")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_constructs() {
        let m = super::model();
        assert_eq!(m.tmax, 65);
    }

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
        r.wall.push(("batch_s".into(), 0.003654));
        let text = r.to_json();
        let back = BenchResult::from_json(&text).unwrap();
        assert_eq!(back.bench, "demo");
        assert_eq!(back.exact, r.exact);
        assert_eq!(back.modeled, r.modeled);
        assert_eq!(back.wall, r.wall);
        assert_eq!(back.modeled_tolerance_pct, 1.0);
    }
}
