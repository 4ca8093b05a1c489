//! The time/disturb axis end-to-end: device clock fast-forwards through
//! the engine, retention RBER surfacing in measured scenario reports,
//! erase resetting the read-disturb accumulator through the command
//! queue, and — the compatibility contract — a `DisturbModel::disabled`
//! run being bit-identical to a run that never touches the clock.

use mlcx::nand::disturb::DisturbModel;
use mlcx::xlayer::sim::{presets, Scenario};
use mlcx::{Command, CommandOutput, ControllerConfig, EngineBuilder, Objective, TraceKind};

fn corrected_of(output: &CommandOutput) -> u64 {
    match output {
        CommandOutput::Read(r) => {
            assert!(r.outcome.is_success());
            r.outcome.corrected_bits() as u64
        }
        other => panic!("expected read output, got {other:?}"),
    }
}

#[test]
fn advance_hours_surfaces_retention_rber_in_measured_reads() {
    // A strong retention model at end-of-life wear: the same pages read
    // before and after a multi-year clock jump must need visibly more
    // correction after it.
    let mut engine = EngineBuilder::date2012()
        .seed(404)
        .controller_config(ControllerConfig {
            disturb: DisturbModel {
                read_disturb_per_read: 0.0,
                retention_scale: 1e-4,
                retention_wear_exponent: 0.5,
                reference_cycles: 1e6,
                ..DisturbModel::disabled()
            },
            ..ControllerConfig::date2012()
        })
        .build()
        .unwrap();
    let svc = engine
        .register_service("cold", Objective::Baseline, 0..2)
        .unwrap();
    engine.controller_mut().age_block(0, 1_000_000).unwrap();
    let mut cmds = vec![Command::erase(svc, 0)];
    for p in 0..8 {
        cmds.push(Command::write(svc, 0, p, vec![p as u8; 4096]));
    }
    engine.sq().submit_owned(cmds).unwrap();
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));

    let sweep = |engine: &mut mlcx::StorageEngine| -> u64 {
        let reads: Vec<Command> = (0..8).map(|p| Command::read(svc, 0, p)).collect();
        engine.sq().submit(&reads).unwrap();
        engine
            .cq()
            .drain()
            .iter()
            .map(|c| corrected_of(c.result.as_ref().unwrap()))
            .sum()
    };
    let fresh = sweep(&mut engine);
    engine.advance_hours(30_000.0);
    assert!((engine.controller().device().now_hours() - 30_000.0).abs() < 1e-9);
    let aged = sweep(&mut engine);
    assert!(
        aged > fresh,
        "retention must raise the corrected-bit count: fresh {fresh}, aged {aged}"
    );
    // The device-side accessor agrees with the model arithmetic.
    let rber = engine.controller().device().block_disturb_rber(0).unwrap();
    let expected = DisturbModel {
        read_disturb_per_read: 0.0,
        retention_scale: 1e-4,
        retention_wear_exponent: 0.5,
        reference_cycles: 1e6,
        ..DisturbModel::disabled()
    }
    .retention_rber(30_000.0, 1_000_001);
    assert!((rber - expected).abs() < 1e-12);
}

#[test]
fn erase_resets_the_read_disturb_accumulator_through_the_engine() {
    let mut engine = EngineBuilder::date2012()
        .seed(11)
        .controller_config(ControllerConfig {
            disturb: DisturbModel {
                read_disturb_per_read: 1e-6,
                ..DisturbModel::disabled()
            },
            ..ControllerConfig::date2012()
        })
        .build()
        .unwrap();
    let svc = engine
        .register_service("hot", Objective::Baseline, 0..2)
        .unwrap();
    engine
        .sq()
        .submit(&[
            Command::erase(svc, 0),
            Command::write(svc, 0, 0, vec![0x5A; 4096]),
        ])
        .unwrap();
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));
    for _ in 0..10 {
        let reads: Vec<Command> = (0..20).map(|_| Command::read(svc, 0, 0)).collect();
        engine.sq().submit(&reads).unwrap();
        assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));
    }
    let device = engine.controller().device();
    assert_eq!(device.block_reads_since_erase(0).unwrap(), 200);
    assert!(device.block_disturb_rber(0).unwrap() >= 200.0 * 1e-6 - 1e-12);

    // A host erase through the command queue resets both views.
    engine.sq().submit(&[Command::erase(svc, 0)]).unwrap();
    assert!(engine.cq().drain()[0].result.is_ok());
    let device = engine.controller().device();
    assert_eq!(device.block_reads_since_erase(0).unwrap(), 0);
    assert_eq!(device.block_disturb_rber(0).unwrap(), 0.0);
}

/// Strip the spec-side fields a clocked run necessarily records
/// differently (`elapsed_hours` is part of the phase *description*) and
/// compare everything measured.
fn assert_reports_equal(a: &mlcx::ScenarioReport, b: &mlcx::ScenarioReport) {
    assert_eq!(a.phases.len(), b.phases.len());
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.name, pb.name);
        assert_eq!(pa.services, pb.services, "phase {}", pa.name);
        assert_eq!(pa.commands, pb.commands);
        assert_eq!(pa.device_time_s, pb.device_time_s, "phase {}", pa.name);
        assert_eq!(pa.parallel_time_s, pb.parallel_time_s);
        assert_eq!(pa.energy_j, pb.energy_j);
        assert_eq!(pa.op_cache_hits, pb.op_cache_hits, "phase {}", pa.name);
        assert_eq!(pa.op_cache_misses, pb.op_cache_misses);
        assert_eq!(pa.knob_writes, pb.knob_writes);
        assert_eq!(pa.counters.scrub_relocations, 0);
        assert_eq!(pb.counters.scrub_relocations, 0);
    }
    assert_eq!(a.total_commands, b.total_commands);
    assert_eq!(a.total_device_time_s, b.total_device_time_s);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    assert_eq!(a.op_cache_hits, b.op_cache_hits);
    assert_eq!(a.op_cache_misses, b.op_cache_misses);
    assert_eq!(a.verified_pages, b.verified_pages);
    assert_eq!(a.integrity_violations, b.integrity_violations);
    assert_eq!(a.read_failures, b.read_failures);
}

#[test]
fn disabled_disturb_makes_clocked_runs_bit_identical_to_unclocked_ones() {
    // Identical scenarios except one fast-forwards years of wall-clock
    // between phases: with the default disabled disturb model the clock
    // must have zero observable effect — same injected errors, same
    // latencies, same memoization counters, bit for bit.
    let base = |clocked: bool| {
        let mut config = mlcx::ControllerConfig::date2012();
        config.geometry.blocks = 12;
        config.geometry.pages_per_block = 8;
        let hours = if clocked { 50_000.0 } else { 0.0 };
        Scenario::builder()
            .engine(EngineBuilder::date2012().controller_config(config))
            .seed(2024)
            .batch_size(16)
            .service(
                "kv",
                Objective::MaxReadThroughput,
                0..8,
                TraceKind::zipfian(),
            )
            .service("log", Objective::MinUber, 8..12, TraceKind::Sequential)
            .phase_with_elapsed("young", 60, 400_000, hours)
            .phase_with_elapsed("old", 60, 0, hours)
            .build()
            .unwrap()
    };
    let clocked = base(true).run().unwrap();
    let unclocked = base(false).run().unwrap();
    assert_reports_equal(&clocked, &unclocked);
    // The spec-side difference is recorded faithfully.
    assert_eq!(clocked.phases[0].elapsed_hours, 50_000.0);
    assert_eq!(unclocked.phases[0].elapsed_hours, 0.0);
}

#[test]
fn scrub_presets_run_clean_end_to_end() {
    // Cross-crate smoke of the full loop: device disturb state ->
    // scrubber scan -> reclaim plan -> engine Relocate/ScrubErase
    // commands -> report counters; the closing verify sweep proves the
    // relocations preserved every mapped page.
    let report = presets::read_reclaim(5, true).unwrap().run().unwrap();
    assert_eq!(report.integrity_violations, 0);
    assert_eq!(report.read_failures, 0);
    assert!(report.verified_pages > 0);
    assert!(report.counters.scrub_relocations > 0);
    assert!(report.counters.scrub_erases > 0);
    let rendered = report.render();
    assert!(rendered.contains("scrub relocations"));
}
