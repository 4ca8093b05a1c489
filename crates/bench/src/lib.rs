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
pub mod trajectory;

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
/// Every recorded number — structural counters, checksums and modeled
/// quantities (device time, energy, makespans, speedups) alike — is a
/// deterministic function of the record's seed, so one comparison rule
/// holds them all: bit equality ([`BenchResult::check_against`]). A
/// deliberate model change fails loudly until the baselines are
/// refreshed.
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Record name (= baseline file stem).
    pub bench: String,
    /// Free-form provenance note.
    pub recorded: String,
    /// The recorded metrics, held bit-for-bit.
    pub exact: Vec<(String, f64)>,
}

/// Every key of the record schema.
const KEYS: [&str; 3] = ["bench", "recorded", "exact"];

impl BenchResult {
    /// A result skeleton for `bench`.
    pub fn new(bench: &str, recorded: &str) -> Self {
        BenchResult {
            bench: bench.to_string(),
            recorded: recorded.to_string(),
            ..BenchResult::default()
        }
    }

    /// Serializes the record as a baseline file, through the shared
    /// [`json::Json`] pretty writer.
    pub fn to_json(&self) -> String {
        use json::Json;
        let exact = self
            .exact
            .iter()
            .map(|(k, v)| (k.clone(), Json::Number(*v)))
            .collect();
        let obj = Json::Object(vec![
            ("bench".into(), Json::String(self.bench.clone())),
            ("recorded".into(), Json::String(self.recorded.clone())),
            ("exact".into(), Json::Object(exact)),
        ]);
        let mut text = obj.render_pretty();
        text.push('\n');
        text
    }

    /// Holds this record against its committed `baseline`: every metric
    /// bit-equal, and the same metric keys on both sides — a metric only
    /// one of them knows is a failure, never silently ungated.
    ///
    /// # Errors
    ///
    /// The per-field diff table of everything that does not hold —
    /// baseline vs current value, absolute and relative delta — so a
    /// failure is diagnosable from the test log alone.
    pub fn check_against(&self, baseline: &BenchResult) -> Result<(), String> {
        let lookup =
            |set: &[(String, f64)], key: &str| set.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
        let (base, mine) = (&baseline.exact, &self.exact);
        let mut rows = String::new();
        let unbaselined = mine.iter().filter(|(k, _)| lookup(base, k).is_none());
        for (key, _) in base.iter().chain(unbaselined) {
            let row = match (lookup(base, key), lookup(mine, key)) {
                (Some(expect), Some(actual)) => {
                    if actual.to_bits() == expect.to_bits() {
                        continue;
                    }
                    let delta = actual - expect;
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
            rows.push_str(&format!("  {key:40} {row}\n"));
        }
        if rows.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{}: metrics off their committed baseline (intentional? refresh: \
             `cargo test --test records -- --ignored bless`, see EXPERIMENTS.md):\n  \
             {:40} {:>14} {:>14} {:>14} {:>10}\n{rows}",
            self.bench, "metric", "baseline", "current", "delta", "rel"
        ))
    }

    /// Parses a record (a baseline file) back from JSON.
    ///
    /// # Errors
    ///
    /// A human-readable parse/schema error. A key outside the schema is
    /// an error naming it, so a stale baseline from an older schema (one
    /// still carrying `mode`, `wall` or `modeled`) is refused rather than
    /// half-read.
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
            exact: map_field("exact")?,
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
        r.exact.push(("device_time_s".into(), 1.21409));
        let text = r.to_json();
        let back = BenchResult::from_json(&text).unwrap();
        assert_eq!(back.bench, "demo");
        assert_eq!(back.exact, r.exact);

        // A baseline of an older schema is refused by the key it carries.
        for (key, value) in [
            ("mode", "\"smoke\""),
            ("wall", "{\"batch_s\": 0.003654}"),
            ("modeled", "{\"device_time_s\": 1.21409}"),
        ] {
            let legacy = text.replacen('{', &format!("{{\n  \"{key}\": {value},"), 1);
            let err = BenchResult::from_json(&legacy).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
    }

    #[test]
    fn check_against_is_bit_exact_and_strict_about_keys() {
        // A checksum-sized value: 1 ulp is 2048, far inside any relative
        // tolerance, and must still fail — as must a modeled time 1 ulp
        // off.
        let big = 13503135767590940000.0_f64;
        let record = |checksum: f64, time: f64| {
            let mut r = BenchResult::new("demo", "unit test");
            r.exact.push(("checksum".into(), checksum));
            r.exact.push(("device_time_s".into(), time));
            r
        };
        let baseline = record(big, 1.0);
        // The failing rows of the diff table, header dropped.
        let failing = |r: &BenchResult| match r.check_against(&baseline) {
            Ok(()) => Vec::new(),
            Err(table) => table.lines().skip(2).map(str::to_string).collect(),
        };
        assert_eq!(failing(&record(big, 1.0)), [""; 0]);
        let next = |v: f64| f64::from_bits(v.to_bits() + 1);
        let rows = failing(&record(next(big), next(1.0)));
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows[0].contains("checksum"), "{rows:?}");
        assert!(rows[1].contains("device_time_s") && rows[1].contains("+0.000%"));

        // A metric only one side knows fails by name — one added after
        // the last refresh included: never silently ungated.
        let mut moved = baseline.clone();
        moved.exact.remove(0);
        moved.exact.push(("energy_j".into(), 0.5));
        let rows = failing(&moved);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows[0].contains("checksum") && rows[0].contains("missing from the record"));
        assert!(rows[1].contains("energy_j") && rows[1].contains("missing from the baseline"));
    }
}
