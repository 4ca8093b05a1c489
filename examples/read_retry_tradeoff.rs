//! Scrub vs. read-retry, end to end: run the scrub-vs-retry scenario
//! preset under all four mitigation modes (same seed, same workload)
//! and print what each mitigation buys — failed reads recovered, model
//! UBER decades recovered on the worst block — against what it costs:
//! scrub pays in relocations and erase cycles (write amplification on
//! a workload that itself writes nothing), retry pays purely in extra
//! senses and read latency, moving no data at all.
//!
//! This extends the DATE 2012 paper's controller-layer trade-off with
//! the voltage-domain mitigation of the read-retry literature: stepped
//! read-reference retry tracking the retention-induced Vth shift, with
//! per-block learned offsets making steady state single-sense
//! (arXiv:2209.01424, arXiv:1805.02819).
//!
//! Run with: `cargo run --release --example read_retry_tradeoff`

use mlcx::xlayer::sim::presets::{scrub_vs_retry, MitigationMode};
use mlcx::ScenarioReport;

const SEED: u64 = 7;

/// The verify-sweep service row: it reads back every mapped page, so
/// its worst-block disturb RBER reflects every block's final (learned)
/// read reference.
fn verify_row(r: &ScenarioReport) -> &mlcx::xlayer::sim::ServicePhaseReport {
    &r.phases
        .iter()
        .find(|p| p.name == "verify")
        .expect("verify phase exists")
        .services[0]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("scrub vs read-retry: two currencies for the same reliability\n");
    let arms = [
        ("none", MitigationMode::None),
        ("scrub", MitigationMode::ScrubOnly),
        ("retry", MitigationMode::RetryOnly),
        ("both", MitigationMode::Both),
    ];
    let reports: Vec<(&str, ScenarioReport)> = arms
        .iter()
        .map(|&(name, mode)| Ok((name, scrub_vs_retry(SEED, mode).run()?)))
        .collect::<Result<_, mlcx::MlcxError>>()?;

    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9} {:>12}",
        "arm",
        "failures",
        "d-rber",
        "lg-uber+d",
        "reloc",
        "erases",
        "retries",
        "senses",
        "p95 read us"
    );
    for (name, r) in &reports {
        let v = verify_row(r);
        let serve = r
            .phases
            .iter()
            .find(|p| p.name == "serve")
            .expect("serve phase exists");
        println!(
            "{:>6} {:>10} {:>12.2e} {:>12.2} {:>8} {:>8} {:>9} {:>9} {:>12.2}",
            name,
            r.read_failures,
            v.model_disturb_rber,
            v.model_log10_uber_disturbed,
            r.counters.scrub_relocations,
            r.counters.scrub_erases,
            r.counters.retry_reads,
            r.counters.retry_senses,
            serve.services[0].read_latency.p95_s * 1e6,
        );
    }

    let none = &reports[0].1;
    let retry = &reports[2].1;
    let recovered =
        verify_row(none).model_log10_uber_disturbed - verify_row(retry).model_log10_uber_disturbed;
    println!(
        "\n-> retry-only recovered {recovered:.1} decades of model UBER and \
         {} of {} failed reads with zero relocations and zero erases,\n   \
         paid in {} extra senses; scrub-only bought its recovery with {} \
         relocations + {} erase cycles of pure write amplification",
        none.read_failures - retry.read_failures,
        none.read_failures,
        retry.counters.retry_senses,
        reports[1].1.counters.scrub_relocations,
        reports[1].1.counters.scrub_erases,
    );

    // The acceptance pins, kept live so the example doubles as a check.
    assert!(
        recovered >= 1.0,
        "retry must recover >= 1 decade of model UBER, got {recovered:.2}"
    );
    assert_eq!(
        retry.counters.scrub_relocations, 0,
        "retry must move no data"
    );
    assert_eq!(retry.counters.scrub_erases, 0, "retry must erase nothing");
    assert!(
        retry.read_failures < none.read_failures / 4,
        "retry must recover most failed reads"
    );
    assert!(reports[1].1.counters.scrub_relocations > 0);
    Ok(())
}
