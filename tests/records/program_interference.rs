//! Program-interference baseline: the victim-UBER price of a
//! write-hammer neighbour attack, and what each mitigation buys back.
//!
//! Two seeded scenario presets drive the interference subsystem end to
//! end:
//!
//! * `write_hammer` — an attacker tenant floods its own block range
//!   with write bursts while a victim tenant's parked data sits
//!   read-only on the *same die*. Die-level program disturb presses the
//!   victim's blocks until its reads fail. The identical workload runs
//!   under every mitigation arm: unmitigated, interference-pressure
//!   scrub, stepped read-retry, and both. Reported per arm: the
//!   victim's closing `log10(UBER)` at its worst block's effective
//!   interference RBER, its ECC failures, and the mitigation's own
//!   currency (relocations vs extra senses).
//! * `program_interference` — a self-interfering tenant under a 2%
//!   power-loss fault schedule; its partial-program, reclaim and
//!   failure counters pin the injection path.
//!
//! Everything recorded is deterministic (seeded schedules, modeled
//! time), so the committed baseline under
//! `crates/bench/baselines/program_interference.json` gates CI
//! bit-for-bit on the counters and the modeled UBERs alike. The headline assertions: the unmitigated victim loses more
//! than a decade of model UBER, and scrub or retry alone each recover
//! at least one decade of it — the PR's acceptance bar.

use mlcx::xlayer::sim::presets::{program_interference, write_hammer, MitigationMode};
use mlcx::xlayer::sim::{PhaseReport, ScenarioReport, ServicePhaseReport};
use mlcx_bench::BenchResult;

/// The preset seed the recovery guarantees were calibrated at.
const SEED: u64 = 7;

fn phase<'a>(report: &'a ScenarioReport, name: &str) -> &'a PhaseReport {
    report
        .phases
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("phase {name} must exist"))
}

fn victim<'a>(report: &'a ScenarioReport, ph: &str) -> &'a ServicePhaseReport {
    phase(report, ph)
        .services
        .iter()
        .find(|s| s.service == "victim")
        .expect("victim service must exist")
}

pub fn record() -> BenchResult {
    let arms = [
        ("none", MitigationMode::None),
        ("scrub", MitigationMode::ScrubOnly),
        ("retry", MitigationMode::RetryOnly),
        ("both", MitigationMode::Both),
    ];
    let reports: Vec<(&str, ScenarioReport)> = arms
        .iter()
        .map(|&(name, mode)| {
            (
                name,
                write_hammer(SEED, mode)
                    .unwrap()
                    .run()
                    .expect("preset must run"),
            )
        })
        .collect();
    let by_name =
        |name: &str| -> &ScenarioReport { &reports.iter().find(|(n, _)| *n == name).unwrap().1 };
    let none = by_name("none");
    let scrub = by_name("scrub");
    let retry = by_name("retry");

    // The attack lands: the unmitigated victim's parked blocks carry
    // attacker-earned interference RBER and its reads start failing.
    let v_hammer = victim(none, "hammer");
    assert!(
        v_hammer.model_interference_rber > 1e-3,
        "attacker must press the victim: {:e}",
        v_hammer.model_interference_rber
    );
    assert!(v_hammer.read_failures > 0, "victim reads must fail");
    assert_eq!(v_hammer.writes, 0, "the victim is read-only by design");

    // The damage and the recovery, in model-UBER decades at the
    // closing sweep.
    let vv_none = victim(none, "verify");
    let decades_lost = vv_none.model_log10_uber_disturbed - vv_none.model_log10_uber;
    assert!(
        decades_lost > 1.0,
        "the unmitigated victim must lose > 1 decade, lost {decades_lost:.2}"
    );
    let recovered = |arm: &ScenarioReport| {
        vv_none.model_log10_uber_disturbed - victim(arm, "verify").model_log10_uber_disturbed
    };
    let recovered_scrub = recovered(scrub);
    let recovered_retry = recovered(retry);
    // The acceptance bar: either mitigation alone buys back >= 1 decade
    // of the victim's UBER, each paid in its own currency.
    for (name, decades) in [("scrub", recovered_scrub), ("retry", recovered_retry)] {
        assert!(
            decades >= 1.0,
            "{name} must recover >= 1 decade of victim UBER, got {decades:.2}"
        );
    }
    assert!(scrub.counters.scrub_relocations > 0, "scrub pays in moves");
    assert!(retry.counters.retry_reads > 0, "retry pays in senses");
    assert!(
        retry.read_failures < none.read_failures,
        "retry must recover failing victim reads: {} vs {}",
        retry.read_failures,
        none.read_failures
    );
    // No fault plan on this preset: interference only, zero injections.
    assert_eq!(none.counters.injected_partial_programs, 0);

    // The power-loss schedule, pinned by its own preset: programs
    // interrupted, damaged blocks reclaimed under explicit attribution,
    // and the corrupted pages counted as the data loss they are.
    let inj = program_interference(SEED)
        .unwrap()
        .run()
        .expect("preset must run");
    assert!(inj.counters.injected_partial_programs > 0);
    let interference_reclaims: u64 = inj
        .service_reports()
        .map(|s| s.ftl.interference_reclaims)
        .sum();
    assert!(interference_reclaims > 0);

    println!("\n===== program_interference — write-hammer victim, per mitigation arm =====");
    println!(
        "{:>6} {:>12} {:>10} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "arm", "i-rber", "lg-uber+d", "rf", "reloc", "retried", "senses", "recovered"
    );
    for (name, report) in &reports {
        let vv = victim(report, "verify");
        println!(
            "{:>6} {:>12.3e} {:>10.2} {:>8} {:>8} {:>8} {:>8} {:>12.2}",
            name,
            victim(report, "hammer").model_interference_rber,
            vv.model_log10_uber_disturbed,
            report.read_failures,
            report.counters.scrub_relocations,
            report.counters.retry_reads,
            report.counters.retry_senses,
            vv_none.model_log10_uber_disturbed - vv.model_log10_uber_disturbed,
        );
    }
    println!(
        "unmitigated victim lost {decades_lost:.2} decades; scrub recovered \
         {recovered_scrub:.2}, retry {recovered_retry:.2}; power-loss preset injected {} \
         partial programs, {} interference reclaims, {} read failures",
        inj.counters.injected_partial_programs, interference_reclaims, inj.read_failures
    );

    let mut record = BenchResult::new(
        "program_interference",
        "write-hammer victim UBER per mitigation arm + power-loss injection counters",
    );
    record.exact = vec![
        ("read_failures_none".into(), none.read_failures as f64),
        ("read_failures_scrub".into(), scrub.read_failures as f64),
        ("read_failures_retry".into(), retry.read_failures as f64),
        (
            "interference_reads_none".into(),
            none.counters.interference_reads as f64,
        ),
        (
            "scrub_relocations_scrub".into(),
            scrub.counters.scrub_relocations as f64,
        ),
        (
            "retried_reads_retry".into(),
            retry.counters.retry_reads as f64,
        ),
        (
            "retry_senses_retry".into(),
            retry.counters.retry_senses as f64,
        ),
        (
            "injected_partial_programs".into(),
            inj.counters.injected_partial_programs as f64,
        ),
        ("interference_reclaims".into(), interference_reclaims as f64),
        ("read_failures_inj".into(), inj.read_failures as f64),
    ];
    record.exact.extend([
        (
            "victim_rber_none".into(),
            victim(none, "hammer").model_interference_rber,
        ),
        (
            "victim_uber_none_log10".into(),
            vv_none.model_log10_uber_disturbed,
        ),
        (
            "victim_uber_scrub_log10".into(),
            victim(scrub, "verify").model_log10_uber_disturbed,
        ),
        (
            "victim_uber_retry_log10".into(),
            victim(retry, "verify").model_log10_uber_disturbed,
        ),
        ("decades_lost".into(), decades_lost),
        ("decades_recovered_scrub".into(), recovered_scrub),
        ("decades_recovered_retry".into(), recovered_retry),
    ]);
    record
}
