//! The numbers the repo prints that no record holds, as text: the
//! `{:#?}` of every preset arm's `ScenarioReport` at seed 7, and what
//! `examples/reproduce_figures.rs` prints. Each is held against
//! `crates/bench/baselines/goldens/<name>.txt`, so a deliberate model
//! change reviews as a `git diff` of the lines that moved.

use std::fmt::Write as _;

use mlcx::xlayer::experiments::{self, fig04, fig07, fig07dv};
use mlcx::xlayer::sim::presets::{self, MitigationMode};
use mlcx::xlayer::sim::Scenario;
use mlcx::{MlcxError, SubsystemModel};

/// The seed every preset arm runs at.
const SEED: u64 = 7;

/// Every golden, `(file stem, text)`: the sixteen preset arms, then the
/// figures.
pub(crate) fn render() -> Vec<(String, String)> {
    let modes = [
        ("none", MitigationMode::None),
        ("scrub_only", MitigationMode::ScrubOnly),
        ("retry_only", MitigationMode::RetryOnly),
        ("both", MitigationMode::Both),
    ];
    let arm = |name: &str, scenario| (name.to_string(), scenario);
    let mut arms: Vec<(String, Result<Scenario, MlcxError>)> = vec![
        arm("die_skew", presets::die_skew(SEED)),
        arm("channel_contention", presets::channel_contention(SEED)),
        arm("retention_stress", presets::retention_stress(SEED, false)),
        arm(
            "retention_stress_scrub",
            presets::retention_stress(SEED, true),
        ),
        arm("read_reclaim", presets::read_reclaim(SEED, false)),
        arm("read_reclaim_scrub", presets::read_reclaim(SEED, true)),
        // One tenant of each weight class; each adds ~8 KB of report.
        arm("tenant_storm_3", presets::tenant_storm(SEED, 3)),
        arm("program_interference", presets::program_interference(SEED)),
    ];
    for (name, mode) in modes {
        let (svr, hammer) = (presets::scrub_vs_retry, presets::write_hammer);
        arms.push(arm(&format!("scrub_vs_retry_{name}"), svr(SEED, mode)));
        arms.push(arm(&format!("write_hammer_{name}"), hammer(SEED, mode)));
    }
    let mut goldens: Vec<(String, String)> = arms
        .into_iter()
        .map(|(name, scenario)| {
            let report = scenario.and_then(|s| s.run());
            let report = report.unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, format!("{report:#?}\n"))
        })
        .collect();
    goldens.push(("reproduce_figures".into(), figures()));
    goldens
}

/// What `examples/reproduce_figures.rs` prints without `--csv`.
fn figures() -> String {
    let model = SubsystemModel::date2012();
    let mut text = experiments::render_all(&model);
    writeln!(text, "Fig. 7 working points (RBER served at UBER = 1e-11):").unwrap();
    for (t, rber) in fig07::working_points(&model) {
        writeln!(text, "  t = {t:>2}  ->  RBER {rber:.3e}").unwrap();
    }
    writeln!(text, "Fig. ?? (ISPP-DV) working points:").unwrap();
    for (t, rber) in fig07dv::working_points(&model) {
        writeln!(text, "  t = {t:>2}  ->  RBER {rber:.3e}").unwrap();
    }
    writeln!(text, "Fig. 4 fit RMS error: {:.3} V", fig04::rms_error_v()).unwrap();
    text
}

/// `None` when `now` is `committed`, else the first line that moved, with
/// both versions and its number.
pub(crate) fn first_difference(name: &str, committed: &str, now: &str) -> Option<String> {
    if committed == now {
        return None;
    }
    let (mut old, mut new) = (committed.lines(), now.lines());
    let mut line = 1;
    loop {
        match (old.next(), new.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                let show = |l: Option<&str>| l.map_or("<end of file>".to_string(), str::to_string);
                return Some(format!(
                    "goldens/{name}.txt line {line} moved:\n  - {}\n  + {}",
                    show(a),
                    show(b)
                ));
            }
        }
    }
}
