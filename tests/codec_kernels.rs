//! End-to-end bit-identity pins for the codec kernels.
//!
//! Two guarantees, enforced at the scenario level so kernel selection
//! can never silently change modeled results:
//!
//! 1. `scrub_vs_retry(seed 7)` reproduces bit-for-bit under the default
//!    kernel — every integer column pinned, every float column stable
//!    across a re-run (the committed baselines pin the exact metrics of
//!    runs like it through `tests/records/`).
//! 2. The *same* scenario run under the bit-serial oracle and under the
//!    production kernel yields the *same* [`ScenarioReport`], field for
//!    field.

use mlcx::nand::disturb::DisturbModel;
use mlcx::xlayer::sim::presets::{scrub_vs_retry, MitigationMode};
use mlcx::xlayer::sim::{Scenario, TraceKind};
use mlcx::{
    CodecKernel, ControllerConfig, DeviceGeometry, EngineBuilder, Objective, RetryPolicy,
    ScenarioReport, ScrubPolicy, Topology,
};

/// Integer columns of `scrub_vs_retry(7, mode)`, pinned. A codec-kernel
/// change that alters any decode outcome shifts retry senses, scrub
/// decisions or read failures and breaks these pins.
#[test]
fn scrub_vs_retry_seed7_reproduces_bit_for_bit() {
    struct Pin {
        mode: MitigationMode,
        commands: usize,
        violations: u64,
        read_failures: usize,
        scrub_relocations: u64,
        scrub_erases: u64,
        retried_reads: u64,
        retry_senses: u64,
    }
    let pins = [
        Pin {
            mode: MitigationMode::None,
            commands: 340,
            violations: 10,
            read_failures: 300,
            scrub_relocations: 0,
            scrub_erases: 0,
            retried_reads: 0,
            retry_senses: 0,
        },
        Pin {
            mode: MitigationMode::ScrubOnly,
            commands: 376,
            violations: 283,
            read_failures: 55,
            scrub_relocations: 32,
            scrub_erases: 4,
            retried_reads: 0,
            retry_senses: 0,
        },
        Pin {
            mode: MitigationMode::RetryOnly,
            commands: 340,
            violations: 0,
            read_failures: 1,
            scrub_relocations: 0,
            scrub_erases: 0,
            retried_reads: 5,
            retry_senses: 19,
        },
        Pin {
            mode: MitigationMode::Both,
            commands: 376,
            violations: 0,
            read_failures: 0,
            scrub_relocations: 32,
            scrub_erases: 4,
            retried_reads: 4,
            retry_senses: 12,
        },
    ];

    for pin in pins {
        let report = scrub_vs_retry(7, pin.mode).unwrap().run().unwrap();
        let mode = pin.mode;
        assert_eq!(report.total_commands, pin.commands, "{mode:?}: commands");
        assert_eq!(
            report.integrity_violations, pin.violations,
            "{mode:?}: violations"
        );
        assert_eq!(
            report.read_failures, pin.read_failures,
            "{mode:?}: read failures"
        );
        assert_eq!(
            report.counters.scrub_relocations, pin.scrub_relocations,
            "{mode:?}: relocations"
        );
        assert_eq!(
            report.counters.scrub_erases, pin.scrub_erases,
            "{mode:?}: erases"
        );
        assert_eq!(
            report.counters.retry_reads, pin.retried_reads,
            "{mode:?}: retried reads"
        );
        assert_eq!(
            report.counters.retry_senses, pin.retry_senses,
            "{mode:?}: retry senses"
        );
        // Float columns: a second run must reproduce every field of the
        // report exactly — including modeled times and energies.
        let rerun = scrub_vs_retry(7, pin.mode).unwrap().run().unwrap();
        assert_eq!(report, rerun, "{mode:?}: report must be deterministic");
    }
}

/// The scrub-vs-retry physics re-run under the oracle and the production
/// kernel: the full [`ScenarioReport`] must be identical.
fn scenario_with_kernel(kernel: CodecKernel) -> Scenario {
    let config = ControllerConfig {
        ecc_kernel: kernel,
        geometry: DeviceGeometry {
            blocks: 16,
            pages_per_block: 8,
            topology: Topology::single(),
            ..DeviceGeometry::date2012()
        },
        disturb: DisturbModel {
            retention_scale: 3.5e-4,
            retention_wear_exponent: 0.0,
            rber_per_step: 7.5e-4,
            offset_residual_fraction: 0.01,
            ..DisturbModel::disabled()
        },
        retry: RetryPolicy::date2012(),
        ..ControllerConfig::date2012()
    };
    let engine = EngineBuilder::date2012()
        .controller_config(config)
        .scrub_policy(ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: 5_000.0,
            interference_rber_threshold: f64::INFINITY,
            max_blocks_per_pass: 2,
        });
    Scenario::builder()
        .engine(engine)
        .seed(7)
        .batch_size(24)
        .utilization(0.25)
        .prefill(true)
        .service(
            "serve",
            Objective::Baseline,
            0..16,
            TraceKind::ReadMostly { read_ratio: 1.0 },
        )
        .phase_with_elapsed("park", 0, 0, 20_000.0)
        .phase("serve", 280, 0)
        .build()
        .unwrap()
}

#[test]
fn every_kernel_rung_yields_the_same_scenario_report() {
    let reference = scenario_with_kernel(CodecKernel::Reference).run().unwrap();
    // The run must actually exercise the correction and retry paths —
    // identical-but-trivial reports would prove nothing.
    assert!(
        reference.counters.retry_senses > 0,
        "retry path not exercised"
    );
    assert!(
        reference.counters.scrub_relocations > 0,
        "scrub path not exercised"
    );
    // `Fused` is the default, i.e. what `scrub_vs_retry` itself runs.
    let fused: ScenarioReport = scenario_with_kernel(CodecKernel::Fused).run().unwrap();
    assert_eq!(fused, reference, "fused diverged from the oracle");
}
