//! Integration tests of the program-interference and fault-injection
//! subsystem, end to end through the public `mlcx` API.
//!
//! Three contracts:
//!
//! * **Disabled-model bit-identity** — with zero coupling and a
//!   zero-rate fault plan, the interference machinery must be
//!   invisible: the `scrub_vs_retry(7, …)` integer columns reproduce
//!   their pre-interference pins, every new counter reads zero, and a
//!   property over random seeds shows that a disabled [`FaultPlan`]
//!   (any schedule seed, any fraction) plus an inert
//!   `partial_program_rber` reproduce the plain-build
//!   [`ScenarioReport`] bit for bit — the plan draws no RNG values.
//!
//! * **Device-layer regressions** — the two programming bugfixes hold:
//!   a short spare pads to the geometry's OOB size (0xFF, the erased
//!   state) while an oversized spare is rejected, and out-of-order page
//!   programs are rejected with [`NandError::PageOutOfOrder`] both
//!   ways (skipping ahead, starting mid-block).
//!
//! * **Injection visibility** — an enabled plan surfaces through the
//!   facade: armed partial programs mark pages, bump the engine's
//!   batch counters, and clear on erase.

use mlcx::nand::disturb::DisturbModel;
use mlcx::nand::NandError;
use mlcx::xlayer::sim::presets::{scrub_vs_retry, MitigationMode};
use mlcx::xlayer::sim::{Scenario, TraceKind};
use mlcx::{
    Command, CommandOutput, ControllerConfig, DeviceGeometry, EngineBuilder, FaultPlan, NandDevice,
    Objective, RetryPolicy, ScrubPolicy, Topology,
};
use proptest::prelude::*;

/// Deterministic page payload.
fn payload(tag: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 13 + tag * 101) % 256) as u8)
        .collect()
}

/// With interference disabled (every committed preset), the
/// `scrub_vs_retry(7, …)` integer columns reproduce their
/// pre-interference pins and every new counter reads zero — across all
/// four mitigation arms, including the per-service breakdown.
#[test]
fn scrub_vs_retry_pins_hold_and_interference_counters_stay_zero() {
    // (mode, commands, read_failures): the pre-interference pins; the
    // full column set is pinned in `tests/codec_kernels.rs` and the
    // committed bench baselines.
    let pins = [
        (MitigationMode::None, 340, 300),
        (MitigationMode::ScrubOnly, 376, 55),
        (MitigationMode::RetryOnly, 340, 1),
        (MitigationMode::Both, 376, 0),
    ];
    for (mode, commands, read_failures) in pins {
        let report = scrub_vs_retry(7, mode).unwrap().run().unwrap();
        assert_eq!(report.total_commands, commands, "{mode:?}: commands");
        assert_eq!(
            report.read_failures, read_failures,
            "{mode:?}: read failures"
        );
        assert_eq!(
            report.counters.interference_reads, 0,
            "{mode:?}: interference reads must be zero with coupling disabled"
        );
        assert_eq!(
            report.counters.injected_partial_programs, 0,
            "{mode:?}: no fault plan, no injections"
        );
        for s in report.service_reports() {
            assert_eq!(s.counters.interference_reads, 0, "{mode:?}/{}", s.service);
            assert_eq!(
                s.counters.injected_partial_programs, 0,
                "{mode:?}/{}",
                s.service
            );
            assert!(
                s.model_interference_rber == 0.0,
                "{mode:?}/{}: disabled coupling must model exactly 0, got {}",
                s.service,
                s.model_interference_rber
            );
            assert_eq!(s.ftl.interference_reclaims, 0, "{mode:?}/{}", s.service);
        }
    }
}

/// Builds the retention-stress scenario (scrub + retry both enabled, so
/// the whole datapath runs) either plainly or with the explicitly
/// disabled interference knobs installed.
fn knobbed_scenario(seed: u64, zero_knobs: Option<(f64, u64, f64)>) -> Scenario {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: 16,
        pages_per_block: 8,
        topology: Topology::single(),
        ..config.geometry
    };
    let mut disturb = DisturbModel {
        retention_scale: 3.5e-4,
        rber_per_step: 7.5e-4,
        offset_residual_fraction: 0.01,
        ..DisturbModel::disabled()
    };
    let mut engine = EngineBuilder::date2012();
    if let Some((fraction, plan_seed, partial_rber)) = zero_knobs {
        // Zero coupling, zero injection rate: the knobs are installed
        // but must be inert — including the per-page partial-program
        // RBER coefficient, which only an actual injection charges.
        disturb.program_coupling_rber = 0.0;
        disturb.program_disturb_per_program = 0.0;
        disturb.partial_program_rber = partial_rber;
        engine = engine.fault_plan(FaultPlan {
            partial_program_rate: 0.0,
            partial_program_fraction: fraction,
            seed: plan_seed,
        });
    }
    Scenario::builder()
        .engine(engine.controller_config(ControllerConfig {
            disturb,
            retry: RetryPolicy::date2012(),
            ..config
        }))
        .scrub_policy(ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: 5_000.0,
            interference_rber_threshold: f64::INFINITY,
            max_blocks_per_pass: 2,
        })
        .seed(seed)
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
        .phase("serve", 160, 0)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A zero-coupling model plus a zero-rate fault plan — whatever the
    /// plan's schedule seed, interrupt fraction or the model's inert
    /// partial-program coefficient — reproduces the plain build's
    /// [`mlcx::ScenarioReport`] exactly, field for field: the disabled
    /// plan draws no RNG values and the zero coupling multiplies every
    /// exposure counter by exactly 0.0.
    #[test]
    fn zero_knob_configs_reproduce_the_plain_report_bit_for_bit(
        seed in any::<u64>(),
        fraction in 0.0f64..=1.0,
        plan_seed in any::<u64>(),
        partial_rber in 0.0f64..0.5,
    ) {
        let plain = knobbed_scenario(seed, None).run().unwrap();
        let knobbed = knobbed_scenario(seed, Some((fraction, plan_seed, partial_rber)))
            .run()
            .unwrap();
        prop_assert_eq!(&plain, &knobbed);
        prop_assert_eq!(plain.counters.interference_reads, 0);
        prop_assert_eq!(plain.counters.injected_partial_programs, 0);
    }
}

/// Spare-area regression: a short spare pads to the geometry's OOB size
/// with 0xFF (the erased state) on read-back, an exact-length spare
/// round-trips, and an oversized spare is rejected — the validation is
/// no longer asymmetric between the program and read paths.
#[test]
fn short_spare_pads_and_oversized_spare_is_rejected() {
    let mut dev = NandDevice::date2012(1);
    let spare_bytes = dev.geometry().spare_bytes;
    dev.erase_block(0).unwrap();

    dev.program_page(0, 0, payload(0), &[0xAB, 0xCD]).unwrap();
    let (_, spare, _) = dev.read_page(0, 0).unwrap();
    assert_eq!(spare.len(), spare_bytes, "spare must read back full-size");
    assert_eq!(&spare[..2], &[0xAB, 0xCD]);
    assert!(
        spare[2..].iter().all(|&b| b == 0xFF),
        "the pad must be the erased state"
    );

    let exact = vec![0x5A; spare_bytes];
    dev.program_page(0, 1, payload(1), &exact).unwrap();
    let (_, spare, _) = dev.read_page(0, 1).unwrap();
    assert_eq!(spare, exact, "an exact-length spare round-trips untouched");

    let oversized = vec![0x00; spare_bytes + 1];
    match dev.program_page(0, 2, payload(2), &oversized) {
        Err(NandError::BufferSize {
            what: "spare",
            expected,
            actual,
        }) => {
            assert_eq!(expected, spare_bytes);
            assert_eq!(actual, spare_bytes + 1);
        }
        other => panic!("oversized spare must be rejected, got {other:?}"),
    }
}

/// Page-order regression, both ways: skipping ahead inside a block and
/// starting a freshly erased block mid-sequence are each rejected with
/// [`NandError::PageOutOfOrder`] naming the expected page, and the
/// in-order program that satisfies it succeeds.
#[test]
fn out_of_order_page_programs_are_rejected_both_ways() {
    let mut dev = NandDevice::date2012(2);
    dev.erase_block(0).unwrap();

    dev.program_page(0, 0, payload(0), &[]).unwrap();
    dev.program_page(0, 1, payload(1), &[]).unwrap();
    assert_eq!(
        dev.program_page(0, 3, payload(3), &[]),
        Err(NandError::PageOutOfOrder {
            block: 0,
            page: 3,
            expected: 2,
        }),
        "skipping a page must be rejected"
    );
    dev.program_page(0, 2, payload(2), &[]).unwrap();
    dev.program_page(0, 3, payload(3), &[]).unwrap();

    dev.erase_block(1).unwrap();
    assert_eq!(
        dev.program_page(1, 2, payload(2), &[]),
        Err(NandError::PageOutOfOrder {
            block: 1,
            page: 2,
            expected: 0,
        }),
        "starting mid-block must be rejected"
    );
    dev.program_page(1, 0, payload(0), &[]).unwrap();
}

/// An enabled fault plan surfaces through the facade: every interrupted
/// host program marks its page partially programmed, the batch counters
/// count them, and an erase clears the damage.
#[test]
fn fault_injection_surfaces_through_the_facade_and_clears_on_erase() {
    let plan = FaultPlan {
        partial_program_rate: 1.0,
        partial_program_fraction: 0.5,
        seed: 5,
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(ControllerConfig {
            disturb: DisturbModel {
                partial_program_rber: 5e-2,
                ..DisturbModel::disabled()
            },
            ..ControllerConfig::date2012()
        })
        .fault_plan(plan)
        .build()
        .unwrap();

    let svc = engine
        .register_service("svc", Objective::Baseline, 0..4)
        .unwrap();
    let mut cmds = vec![Command::erase(svc, 0)];
    for page in 0..2 {
        cmds.push(Command::write(svc, 0, page, payload(page)));
    }
    engine.sq().submit_owned(cmds).unwrap();
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));

    assert_eq!(engine.last_batch().counters.injected_partial_programs, 2);
    let device = engine.controller().device();
    assert!(device.page_partially_programmed(0, 0).unwrap());
    assert!(device.page_partially_programmed(0, 1).unwrap());
    assert!(device.page_interference_rber(0, 0).unwrap() > 0.0);

    // Reads of a half-programmed page see the partial-program RBER and
    // are counted as interference reads.
    engine
        .sq()
        .submit_owned(vec![Command::read(svc, 0, 0)])
        .unwrap();
    let read_ok = match engine.cq().drain().pop().unwrap().result {
        Ok(CommandOutput::Read(r)) => r.outcome.is_success(),
        other => panic!("read produced {other:?}"),
    };
    assert_eq!(engine.last_batch().counters.interference_reads, 1);

    // Erase wipes the damage: the block starts over, fully blank.
    engine
        .sq()
        .submit_owned(vec![Command::erase(svc, 0)])
        .unwrap();
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));
    let device = engine.controller().device();
    assert_eq!(device.block_interference_rber(0).unwrap(), 0.0);
    // Whether the corrupt read decoded is a function of the injected
    // error draw; what matters is that it was charged for interference.
    let _ = read_ok;
}
