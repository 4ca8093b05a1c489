//! The scrub trade-off, end to end: run the retention-stress and
//! read-reclaim scenario presets with the background scrubber off and
//! on (same seed), and print what the scrubber buys — model UBER
//! recovered on the worst block — against what it costs: relocations,
//! erase cycles, and extra modeled device time competing with the host.
//!
//! This is the reliability-performance trade-off the DATE 2012 paper
//! opens at the controller layer, extended to the two failure
//! mechanisms its evaluation leaves disabled (read disturb and data
//! retention), with read-reclaim as the mitigation knob per the SSD
//! error-mitigation literature (arXiv:1706.08642, arXiv:1805.02819).
//!
//! Run with: `cargo run --release --example scrub_tradeoff`

use mlcx::xlayer::sim::presets;
use mlcx::{Scenario, ScenarioReport};

fn run_pair(
    name: &str,
    phase: &str,
    build: impl Fn(bool) -> Result<Scenario, mlcx::MlcxError>,
) -> Result<(), Box<dyn std::error::Error>> {
    let off: ScenarioReport = build(false)?.run()?;
    let on: ScenarioReport = build(true)?.run()?;
    for (arm, report) in [("off", &off), ("on", &on)] {
        assert_eq!(
            report.integrity_violations, 0,
            "{name}/{arm}: data must survive"
        );
    }
    let pick = |r: &ScenarioReport| {
        r.phases
            .iter()
            .find(|p| p.name == phase)
            .expect("phase exists")
            .clone()
    };
    let (p_off, p_on) = (pick(&off), pick(&on));
    let (s_off, s_on) = (&p_off.services[0], &p_on.services[0]);

    println!("== {name} (phase `{phase}`, same seed, scrubber off vs on) ==");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "arm", "d-rber", "lg-uber+d", "reloc", "erases", "device ms", "p95 read us"
    );
    for (arm, p, s) in [("off", &p_off, s_off), ("on", &p_on, s_on)] {
        println!(
            "{:>6} {:>12.2e} {:>12.2} {:>10} {:>10} {:>12.2} {:>12.2}",
            arm,
            s.model_disturb_rber,
            s.model_log10_uber_disturbed,
            s.counters.scrub_relocations,
            s.counters.scrub_erases,
            p.device_time_s * 1e3,
            s.read_latency.p95_s * 1e6,
        );
    }
    let recovered = s_off.model_log10_uber_disturbed - s_on.model_log10_uber_disturbed;
    let cost_ms = (p_on.device_time_s - p_off.device_time_s) * 1e3;
    println!(
        "-> recovered {recovered:.1} decades of model UBER for {cost_ms:+.2} ms of \
         modeled device time ({} relocations, {} erase cycles)\n",
        on.counters.scrub_relocations, on.counters.scrub_erases
    );
    assert!(
        recovered >= 1.0,
        "{name}: the scrubber must recover >= 1 decade, got {recovered:.2}"
    );
    assert!(cost_ms > 0.0, "{name}: maintenance must cost device time");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("background scrub / read-reclaim: reliability bought with device time\n");
    run_pair("retention-stress", "serve", |scrub| {
        presets::retention_stress(7, scrub)
    })?;
    run_pair("read-reclaim", "hammer", |scrub| {
        presets::read_reclaim(31, scrub)
    })?;
    Ok(())
}
