//! The committed performance trajectory: one `BENCH_<pr>.json` per
//! performance change at the repository root, each the summary of a
//! session of runs of the repo benchmark (`benchmark/`), so that a
//! speed-up's "before" column is the previous file rather than a number
//! remembered in prose.
//!
//! [`Session`] turns the benchmark's own output into a file: the median,
//! range and run-order values of every metric, the repetition count beside
//! every `host_peak_rss_mb`, the completion digests, the minor page faults
//! and system seconds of every run, and the ledger of
//! `tests/surface_ledger.rs`. Rendered against the session's parent (runs
//! alternating with it), a workload also carries its paired ratios: each
//! pair's child/parent ratio of every wall-clock metric, and whether its
//! throughput runs are bimodal. [`check`] holds every committed file to the
//! metric names of `BENCHMARK.json`, and holds the simulated numbers — every
//! `sim_*`, `write_amp` and completion digest — equal from one file to the
//! next unless the later one declares a `"model_change"` and its reason.

use std::process::Command;

use crate::json::Json;
use crate::median;

/// One workload's runs in one session, in run order.
#[derive(Debug, Default)]
struct Runs {
    /// Metric name, unit, one value per run (`None` where JSON had none).
    metrics: Vec<(String, String, Vec<Option<f64>>)>,
    /// `# repetitions` of each untraced run, beside its `host_peak_rss_mb`.
    rss_repetitions: Vec<f64>,
    digest: Option<String>,
    failed: f64,
    /// Minor page faults and system seconds of each run that [`Session::run`]
    /// ran, untraced runs first in the pair, in run order; `None` where the
    /// counts could not be read.
    usage: [Vec<Option<(f64, f64)>>; 2],
}

/// The waited-for children's minor faults and system seconds so far: the
/// `cminflt` and `cstime` fields of `/proc/self/stat` (Linux; `None`
/// elsewhere), the latter in `USER_HZ` ticks of 1/100 s.
fn children_usage() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name, from `state`
    // (field 3): `cminflt` is field 11, `cstime` field 17.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<f64>().ok();
    Some((field(11)?, field(17)? / 100.0))
}

/// The runs of one benchmark build, summarised into one trajectory file.
#[derive(Debug)]
pub struct Session {
    pr: u32,
    header: Vec<(String, Json)>,
    workloads: Vec<(String, Runs)>,
}

impl Session {
    /// A session for the file `BENCH_<pr>.json`; `header` is written first
    /// as it is (seed, run lengths, host, ledger).
    pub fn new(pr: u32, header: Vec<(String, Json)>) -> Self {
        Session {
            pr,
            header,
            workloads: Vec::new(),
        }
    }

    /// The file name this session writes.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.pr)
    }

    /// Runs `child`, one run of the benchmark on `workload` (a `traced`
    /// one or not), and adds it (see `add_run`) with the minor page faults
    /// and system seconds the kernel counted for it.
    ///
    /// # Errors
    ///
    /// A child that cannot start or fails, and what `add_run` refuses.
    pub fn run(&mut self, workload: &str, traced: bool, child: &mut Command) -> Result<(), String> {
        let before = children_usage();
        let out = child.output().map_err(|e| format!("{workload}: {e}"))?;
        let after = children_usage();
        if !out.status.success() {
            return Err(format!("{workload}: {child:?} failed"));
        }
        let stdout = String::from_utf8(out.stdout).map_err(|e| format!("{workload}: {e}"))?;
        self.add_run(workload, &stdout)?;
        let (_, runs) = self
            .workloads
            .iter_mut()
            .find(|(w, _)| w == workload)
            .expect("add_run added the workload");
        runs.usage[usize::from(traced)]
            .push(before.zip(after).map(|(b, a)| (a.0 - b.0, a.1 - b.1)));
        Ok(())
    }

    /// Adds one run of `workload` from the benchmark's standard output: its
    /// last line (the `{"correct", "attempted", "failed", "metrics"}`
    /// object) and its `# repetitions` and `# bench.completion_digest`
    /// notes.
    ///
    /// # Errors
    ///
    /// Output without a result line, an incorrect run, or a digest that
    /// differs from an earlier run's.
    fn add_run(&mut self, workload: &str, stdout: &str) -> Result<(), String> {
        let result = stdout
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .ok_or(format!("{workload}: no result line"))?;
        let result = crate::json::parse(result)?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{workload}: the run is not correct"));
        }
        let note = |key: &str| {
            stdout
                .lines()
                .find_map(|l| l.strip_prefix("# ")?.strip_prefix(key)?.strip_prefix(' '))
                .map(str::trim)
        };
        let at = match self.workloads.iter().position(|(w, _)| w == workload) {
            Some(at) => at,
            None => {
                self.workloads.push((workload.to_string(), Runs::default()));
                self.workloads.len() - 1
            }
        };
        let runs = &mut self.workloads[at].1;
        if let Some(digest) = note("bench.completion_digest") {
            match &runs.digest {
                Some(seen) if seen != digest => {
                    return Err(format!("{workload}: digest {digest} after {seen}"));
                }
                _ => runs.digest = Some(digest.to_string()),
            }
        }
        runs.failed += result
            .get("failed")
            .and_then(Json::as_number)
            .unwrap_or(0.0);
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{workload}: no metrics"))?;
        for (name, metric) in metrics {
            if name == "host_peak_rss_mb" {
                let reps = note("repetitions").and_then(|r| r.parse().ok());
                runs.rss_repetitions
                    .push(reps.ok_or(format!("{workload}: no repetitions note"))?);
            }
            let value = metric.get("value").and_then(Json::as_number);
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            match runs.metrics.iter_mut().find(|(n, ..)| n == name) {
                Some((.., values)) => values.push(value),
                None => runs
                    .metrics
                    .push((name.clone(), unit.to_string(), vec![value])),
            }
        }
        Ok(())
    }

    /// The trajectory file, rendered; with `parent` (a session whose runs
    /// alternated with this one's, run `i` beside run `i`), each workload
    /// both ran also carries its `"paired"` summary: every pair's
    /// child/parent ratio of each host metric with their median and range,
    /// whether the throughput runs are bimodal, and if so each arm's
    /// upper-mode median.
    pub fn render(&self, parent: Option<&Session>) -> String {
        let numbers =
            |values: &[f64]| Json::Array(values.iter().map(|&v| Json::Number(v)).collect());
        let workloads = self.workloads.iter().map(|(name, runs)| {
            let metrics = runs.metrics.iter().map(|(metric, unit, values)| {
                let known: Vec<f64> = values.iter().flatten().copied().collect();
                let stat = |f: fn(Vec<f64>) -> f64| {
                    if known.is_empty() {
                        Json::Null
                    } else {
                        Json::Number(f(known.clone()))
                    }
                };
                let mut entry = vec![
                    ("unit".to_string(), Json::String(unit.clone())),
                    ("median".to_string(), stat(median)),
                    (
                        "min".to_string(),
                        stat(|v| v.into_iter().fold(f64::INFINITY, f64::min)),
                    ),
                    (
                        "max".to_string(),
                        stat(|v| v.into_iter().fold(f64::NEG_INFINITY, f64::max)),
                    ),
                    (
                        "values".to_string(),
                        Json::Array(
                            values
                                .iter()
                                .map(|v| v.map_or(Json::Null, Json::Number))
                                .collect(),
                        ),
                    ),
                ];
                if metric == "host_peak_rss_mb" {
                    entry.push(("repetitions".to_string(), numbers(&runs.rss_repetitions)));
                }
                (metric.clone(), Json::Object(entry))
            });
            let digest = runs.digest.clone().map_or(Json::Null, Json::String);
            let mut summary = vec![
                ("completion_digest".to_string(), digest),
                ("failed".to_string(), Json::Number(runs.failed)),
                ("metrics".to_string(), Json::Object(metrics.collect())),
            ];
            let usage: Vec<(String, Json)> = ["untraced", "traced"]
                .into_iter()
                .zip(&runs.usage)
                .filter(|(_, usage)| !usage.is_empty())
                .map(|(mode, usage)| {
                    let column = |pick: fn((f64, f64)) -> f64| {
                        let values = usage
                            .iter()
                            .map(|u| u.map_or(Json::Null, |u| Json::Number(pick(u))));
                        Json::Array(values.collect())
                    };
                    let counts = vec![
                        ("minor_faults".to_string(), column(|u| u.0)),
                        ("system_s".to_string(), column(|u| u.1)),
                    ];
                    (mode.to_string(), Json::Object(counts))
                })
                .collect();
            if !usage.is_empty() {
                summary.push(("children".to_string(), Json::Object(usage)));
            }
            let beside = parent.and_then(|p| {
                let (_, theirs) = p.workloads.iter().find(|(w, _)| w == name)?;
                Some((p.file_name(), theirs))
            });
            if let Some((file, theirs)) = beside {
                summary.push(("paired".to_string(), paired(&file, runs, theirs)));
            }
            (name.clone(), Json::Object(summary))
        });
        let mut file = vec![("pr".to_string(), Json::Number(f64::from(self.pr)))];
        file.extend(self.header.iter().cloned());
        file.push(("workloads".to_string(), Json::Object(workloads.collect())));
        let mut text = Json::Object(file).render_pretty();
        text.push('\n');
        text
    }
}

/// The ledger of `tests/surface_ledger.rs` (its source text): the
/// `("name", count)` entries of its `const LEDGER` table, or `None` for a
/// ledger written before the table existed.
pub fn ledger(source: &str) -> Option<Json> {
    let table = source.split_once("const LEDGER")?.1;
    let table = &table[..table.find("];")?];
    let entries = table.lines().filter_map(|line| {
        let (name, count) = line.trim().strip_prefix("(\"")?.split_once("\", ")?;
        let count = count.strip_suffix("),")?.parse().ok()?;
        Some((name.to_string(), Json::Number(count)))
    });
    Some(Json::Object(entries.collect()))
}

/// The throughput metric whose runs decide whether a workload is bimodal.
const THROUGHPUT: &str = "host_kpages_per_s";

/// One arm's throughput runs are bimodal when its slowest run is under
/// this share of its median (host phases only ever slow a run down).
const BIMODAL_MIN_SHARE: f64 = 0.8;

/// An arm's upper mode: its runs within this share of its fastest.
const UPPER_MODE_SHARE: f64 = 0.9;

/// Whether a metric is wall-clock time or memory of the host, which the
/// paired ratios compare (the simulated numbers are equal by [`check`]).
fn host_metric(metric: &str) -> bool {
    metric.starts_with("host_") || metric == "setup_s"
}

/// A non-empty sample under `key`, with its median, min and max.
fn spread(key: &str, values: &[f64]) -> Json {
    let numbers = values.iter().map(|&v| Json::Number(v)).collect();
    let low = values.iter().copied().fold(f64::INFINITY, f64::min);
    let high = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::Object(vec![
        (key.to_string(), Json::Array(numbers)),
        ("median".to_string(), Json::Number(median(values.to_vec()))),
        ("min".to_string(), Json::Number(low)),
        ("max".to_string(), Json::Number(high)),
    ])
}

/// The workload's runs beside its parent's (`file`), pair `i` being run
/// `i` of each: for every host metric, each pair's child/parent ratio
/// with their median and range (above 1 is faster for a throughput,
/// slower for a time or a size); `"bimodal"` when either arm's slowest
/// throughput run is under [`BIMODAL_MIN_SHARE`] of its median, and then
/// each arm's upper-mode median (the median of its runs within
/// [`UPPER_MODE_SHARE`] of its fastest) and their ratio. No run is left
/// out of the ratios.
fn paired(file: &str, ours: &Runs, theirs: &Runs) -> Json {
    let values = |runs: &Runs, metric: &str| -> Vec<Option<f64>> {
        runs.metrics
            .iter()
            .find(|(name, ..)| name == metric)
            .map(|(.., values)| values.clone())
            .unwrap_or_default()
    };
    let mut metrics = Vec::new();
    for (name, ..) in ours.metrics.iter().filter(|(n, ..)| host_metric(n)) {
        let ratios: Vec<f64> = values(ours, name)
            .into_iter()
            .zip(values(theirs, name))
            .filter_map(|(child, parent)| Some(child? / parent?))
            .collect();
        if !ratios.is_empty() {
            metrics.push((name.clone(), spread("ratios", &ratios)));
        }
    }
    let arm =
        |runs: &Runs| -> Vec<f64> { values(runs, THROUGHPUT).into_iter().flatten().collect() };
    let (child, parent) = (arm(ours), arm(theirs));
    let bimodal = [&child, &parent].into_iter().any(|runs| {
        let low = runs.iter().copied().fold(f64::INFINITY, f64::min);
        !runs.is_empty() && low < BIMODAL_MIN_SHARE * median(runs.clone())
    });
    let mut entry = vec![
        ("against".to_string(), Json::String(file.to_string())),
        ("metrics".to_string(), Json::Object(metrics)),
        ("bimodal".to_string(), Json::Bool(bimodal)),
    ];
    if bimodal && !child.is_empty() && !parent.is_empty() {
        let upper = |runs: &[f64]| {
            let fastest = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            median(
                runs.iter()
                    .copied()
                    .filter(|&v| v >= UPPER_MODE_SHARE * fastest)
                    .collect(),
            )
        };
        let (ours, theirs) = (upper(&child), upper(&parent));
        let upper_mode = vec![
            ("metric".to_string(), Json::String(THROUGHPUT.to_string())),
            ("child".to_string(), Json::Number(ours)),
            ("parent".to_string(), Json::Number(theirs)),
            ("ratio".to_string(), Json::Number(ours / theirs)),
        ];
        entry.push(("upper_mode".to_string(), Json::Object(upper_mode)));
    }
    Json::Object(entry)
}

/// Whether a metric is a simulated number, exact per seed.
fn simulated(metric: &str) -> bool {
    metric.starts_with("sim_") || metric == "write_amp"
}

/// Holds the committed trajectory files, `(pr, parsed file)`, to
/// `manifest` (the parsed `BENCHMARK.json`): each has exactly its
/// workloads and its end-to-end and per-layer metric names, its simulated
/// numbers are equal across its runs, and from one file to the next (in
/// PR order) every simulated number and digest is equal to the bit, unless
/// the later file declares `"model_change"` with a reason.
///
/// # Errors
///
/// Every violation, one per line.
pub fn check(manifest: &Json, files: &mut [(u32, Json)]) -> Result<(), String> {
    let names = |key: &str| -> Vec<String> {
        let list = manifest.get(key).and_then(Json::as_array).unwrap_or(&[]);
        list.iter()
            .filter_map(|entry| Some(entry.get("name")?.as_str()?.to_string()))
            .collect()
    };
    let mut metrics = names("end_to_end");
    metrics.extend(names("per_layer"));
    metrics.sort();
    let workloads = names("workloads");
    files.sort_by_key(|(pr, _)| *pr);
    let mut errors = Vec::new();
    let mut previous: Option<(u32, &Json)> = None;
    for (pr, file) in files.iter() {
        let mut found: Vec<&str> = Vec::new();
        for (workload, summary) in file
            .get("workloads")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            found.push(workload);
            let mut names: Vec<String> = summary
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap_or(&[])
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            names.sort();
            if names != metrics {
                errors.push(format!(
                    "BENCH_{pr}: {workload}'s metrics are not BENCHMARK.json's"
                ));
            }
            for name in names.iter().filter(|n| simulated(n)) {
                let (min, max) = (stat(summary, name, "min"), stat(summary, name, "max"));
                if min.map(f64::to_bits) != max.map(f64::to_bits) {
                    errors.push(format!(
                        "BENCH_{pr}: {workload}/{name} differs between runs"
                    ));
                }
            }
        }
        if found != workloads {
            errors.push(format!(
                "BENCH_{pr}: workloads {found:?}, not {workloads:?}"
            ));
        }
        if let Some((before, earlier)) = previous {
            let reason = file.get("model_change").and_then(Json::as_str);
            if reason.is_none_or(str::is_empty) {
                compare(before, earlier, *pr, file, &mut errors);
            }
        }
        previous = Some((*pr, file));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

/// `statistic` of `metric` in one workload's summary.
fn stat(summary: &Json, metric: &str, statistic: &str) -> Option<f64> {
    summary
        .get("metrics")?
        .get(metric)?
        .get(statistic)?
        .as_number()
}

/// The simulated numbers of `file` against those of `earlier`, workload by
/// workload.
fn compare(before: u32, earlier: &Json, pr: u32, file: &Json, errors: &mut Vec<String>) {
    if earlier.get("seed") != file.get("seed") {
        errors.push(format!("BENCH_{pr}: another seed than BENCH_{before}"));
        return;
    }
    for (workload, summary) in file
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(&[])
    {
        let Some(old) = earlier.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        if old.get("completion_digest") != summary.get("completion_digest") {
            errors.push(format!(
                "BENCH_{pr}: {workload}'s digest is not BENCH_{before}'s"
            ));
        }
        let metrics = summary
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (name, _) in metrics.iter().filter(|(n, _)| simulated(n)) {
            let (then, now) = (stat(old, name, "median"), stat(summary, name, "median"));
            if then.map(f64::to_bits) != now.map(f64::to_bits) {
                errors.push(format!(
                    "BENCH_{pr}: {workload}/{name} {now:?}, BENCH_{before} {then:?} \
                     (a deliberate move declares \"model_change\")"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const MANIFEST: &str = r#"{
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "sim_mb_per_s"}, {"name": "host_peak_rss_mb"}],
        "per_layer": [{"name": "bch.encode_ns_per_page"}]
    }"#;

    fn run(sim: f64, rss: f64, reps: u32, digest: u64) -> String {
        format!(
            "  sim_mb_per_s {sim} MB/s\n# repetitions {reps}\n# bench.completion_digest {digest}\n\
             {{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {{\
             \"sim_mb_per_s\": {{\"value\": {sim}, \"unit\": \"MB/s\"}}, \
             \"host_peak_rss_mb\": {{\"value\": {rss}, \"unit\": \"MiB\"}}}}}}\n"
        )
    }

    fn traced(ns: f64) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {{\
             \"bch.encode_ns_per_page\": {{\"value\": {ns}, \"unit\": \"ns/page\"}}}}}}\n"
        )
    }

    fn file(pr: u32, sim: f64, extra: &[(String, Json)]) -> (u32, Json) {
        let mut header = vec![("seed".to_string(), Json::Number(4096.0))];
        header.extend(extra.iter().cloned());
        let mut session = Session::new(pr, header);
        for (rss, reps) in [(40.0, 169), (39.0, 171), (41.5, 160)] {
            session.add_run("w", &run(sim, rss, reps, 7)).unwrap();
            session.add_run("w", &traced(400.0 + rss)).unwrap();
        }
        (pr, parse(&session.render(None)).unwrap())
    }

    #[test]
    fn a_session_keeps_medians_ranges_and_repetitions_beside_the_rss() {
        let (_, json) = file(8, 6.3, &[]);
        let w = json.get("workloads").unwrap().get("w").unwrap();
        assert_eq!(w.get("completion_digest").unwrap().as_str(), Some("7"));
        let rss = w.get("metrics").unwrap().get("host_peak_rss_mb").unwrap();
        assert_eq!(rss.get("median").unwrap().as_number(), Some(40.0));
        assert_eq!(rss.get("min").unwrap().as_number(), Some(39.0));
        assert_eq!(rss.get("max").unwrap().as_number(), Some(41.5));
        let reps = rss.get("repetitions").unwrap().as_array().unwrap();
        assert_eq!(reps, [169.0, 171.0, 160.0].map(Json::Number));
        let encode = w
            .get("metrics")
            .unwrap()
            .get("bch.encode_ns_per_page")
            .unwrap();
        assert_eq!(encode.get("median").unwrap().as_number(), Some(440.0));
    }

    #[test]
    fn a_run_with_another_digest_or_no_result_is_refused() {
        let mut session = Session::new(1, Vec::new());
        session.add_run("w", &run(1.0, 1.0, 9, 7)).unwrap();
        assert!(session.add_run("w", &run(1.0, 1.0, 9, 8)).is_err());
        assert!(session.add_run("w", "# repetitions 9\n").is_err());
        let wrong = run(1.0, 1.0, 9, 7).replace("\"correct\": true", "\"correct\": false");
        assert!(session.add_run("w", &wrong).is_err());
    }

    #[test]
    fn the_check_holds_names_and_simulated_numbers_across_files() {
        let manifest = parse(MANIFEST).unwrap();
        let mut same = [file(7, 6.3, &[]), file(8, 6.3, &[])];
        assert_eq!(check(&manifest, &mut same), Ok(()));
        let mut moved = [file(8, 6.4, &[]), file(7, 6.3, &[])];
        let error = check(&manifest, &mut moved).unwrap_err();
        assert!(error.contains("BENCH_8: w/sim_mb_per_s"), "{error}");
        let declared = [(
            "model_change".to_string(),
            Json::String("new RBER model".into()),
        )];
        let mut moved = [file(7, 6.3, &[]), file(8, 6.4, &declared)];
        assert_eq!(check(&manifest, &mut moved), Ok(()));
        let fewer = parse(&MANIFEST.replace(", {\"name\": \"host_peak_rss_mb\"}", "")).unwrap();
        let error = check(&fewer, &mut same).unwrap_err();
        assert!(
            error.contains("metrics are not BENCHMARK.json's"),
            "{error}"
        );
    }

    /// One untraced run of throughput `kpages` and setup time `setup_s`.
    fn speed(kpages: f64, setup_s: f64) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {{\
             \"setup_s\": {{\"value\": {setup_s}, \"unit\": \"s\"}}, \
             \"host_kpages_per_s\": {{\"value\": {kpages}, \"unit\": \"kpages/s\"}}, \
             \"sim_mb_per_s\": {{\"value\": 6.3, \"unit\": \"MB/s\"}}}}}}\n"
        )
    }

    fn session(pr: u32, kpages: &[f64]) -> Session {
        let mut session = Session::new(pr, Vec::new());
        for &k in kpages {
            session.add_run("w", &speed(k, 0.004)).unwrap();
        }
        session
    }

    #[test]
    fn paired_ratios_keep_every_pair_and_mark_a_bimodal_arm() {
        let parent = session(7, &[100.0, 110.0, 95.0, 105.0, 100.0]);
        let child = session(8, &[200.0, 210.0, 190.0, 205.0, 120.0]);
        let json = parse(&child.render(Some(&parent))).unwrap();
        let paired = json
            .get("workloads")
            .unwrap()
            .get("w")
            .unwrap()
            .get("paired");
        let paired = paired.unwrap();
        assert_eq!(
            paired.get("against").unwrap().as_str(),
            Some("BENCH_7.json")
        );
        let speed = paired
            .get("metrics")
            .unwrap()
            .get("host_kpages_per_s")
            .unwrap();
        let ratios: Vec<f64> = [2.0, 210.0 / 110.0, 2.0, 205.0 / 105.0, 1.2].to_vec();
        assert_eq!(
            speed.get("ratios").unwrap().as_array().unwrap(),
            ratios.iter().map(|&r| Json::Number(r)).collect::<Vec<_>>()
        );
        assert_eq!(
            speed.get("median").unwrap().as_number(),
            Some(205.0 / 105.0)
        );
        assert_eq!(speed.get("min").unwrap().as_number(), Some(1.2));
        let setup = paired.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("median").unwrap().as_number(), Some(1.0));
        assert!(paired.get("metrics").unwrap().get("sim_mb_per_s").is_none());
        // 120 is under 0.8 of the child's median 200: the upper modes are
        // the runs within 0.9 of each arm's fastest.
        assert_eq!(paired.get("bimodal"), Some(&Json::Bool(true)));
        let upper = paired.get("upper_mode").unwrap();
        assert_eq!(upper.get("child").unwrap().as_number(), Some(205.0));
        assert_eq!(upper.get("parent").unwrap().as_number(), Some(105.0));
        assert_eq!(upper.get("ratio").unwrap().as_number(), Some(205.0 / 105.0));

        let steady = session(8, &[200.0, 210.0, 190.0, 205.0, 180.0]);
        let json = parse(&steady.render(Some(&parent))).unwrap();
        let paired = json
            .get("workloads")
            .unwrap()
            .get("w")
            .unwrap()
            .get("paired");
        assert_eq!(paired.unwrap().get("bimodal"), Some(&Json::Bool(false)));
        assert!(paired.unwrap().get("upper_mode").is_none());
        // Without a parent there is nothing to pair.
        let alone = parse(&steady.render(None)).unwrap();
        assert!(alone
            .get("workloads")
            .unwrap()
            .get("w")
            .unwrap()
            .get("paired")
            .is_none());
    }

    #[test]
    fn a_run_of_a_child_carries_its_faults_and_system_seconds_by_mode() {
        let mut session = Session::new(8, Vec::new());
        for traced in [false, true, false] {
            let mut child = Command::new("sh");
            child
                .args(["-c", "printf '%s\\n' \"$RESULT\""])
                .env("RESULT", speed(200.0, 0.004).trim_end());
            session.run("w", traced, &mut child).unwrap();
        }
        let json = parse(&session.render(None)).unwrap();
        let children = json
            .get("workloads")
            .unwrap()
            .get("w")
            .unwrap()
            .get("children");
        let count = |mode: &str, key: &str| {
            let values = children.unwrap().get(mode).unwrap().get(key).unwrap();
            let values = values.as_array().unwrap();
            assert!(values.iter().all(|v| v.as_number().unwrap() >= 0.0));
            values.len()
        };
        assert_eq!(count("untraced", "minor_faults"), 2);
        assert_eq!(count("untraced", "system_s"), 2);
        assert_eq!(count("traced", "minor_faults"), 1);
        let mut failing = Command::new("sh");
        failing.args(["-c", "exit 3"]);
        assert!(session.run("w", false, &mut failing).is_err());
    }

    #[test]
    fn the_ledger_is_read_from_its_table() {
        let source =
            "const X: u8 = 1;\nconst LEDGER: [(&str, usize); 2] = [\n    (\"facade\", 57),\n    \
                      (\"unsafe_fns\", 1),\n];\n";
        let ledger = ledger(source).unwrap();
        assert_eq!(ledger.get("facade").unwrap().as_number(), Some(57.0));
        assert_eq!(ledger.get("unsafe_fns").unwrap().as_number(), Some(1.0));
        assert_eq!(super::ledger("fn main() {}"), None);
    }
}
