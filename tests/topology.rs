//! Channel/die topology edge cases, end to end through the engine and
//! the workload simulator:
//!
//! * the degenerate 1-channel/1-die topology is bit-exact with the
//!   historical single-die stack (same scenario reports, same error
//!   streams, parallel time == serial time);
//! * dies age independently (`age_die` on a subset skews wear without
//!   touching siblings), and the per-die operating-point memo follows;
//! * die addressing is validated at every layer.

use mlcx::xlayer::engine::EngineBuilder;
use mlcx::xlayer::sim::{presets, Scenario, TraceKind};
use mlcx::{Command, ControllerConfig, CtrlError, DeviceGeometry, MlcxError, Objective, Topology};

fn small_config(topology: Topology) -> ControllerConfig {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: 16,
        pages_per_block: 8,
        topology,
        ..config.geometry
    };
    config
}

fn two_service_scenario(topology: Topology, seed: u64) -> Scenario {
    Scenario::builder()
        .engine(EngineBuilder::date2012().controller_config(small_config(topology)))
        .seed(seed)
        .batch_size(16)
        .service(
            "log",
            Objective::MaxReadThroughput,
            0..8,
            TraceKind::Sequential,
        )
        .service("kv", Objective::Baseline, 8..16, TraceKind::zipfian())
        .phase("a", 30, 300_000)
        .phase("b", 20, 0)
        .build()
        .expect("scenario must validate")
}

#[test]
fn degenerate_topology_is_bit_exact_with_the_single_die_stack() {
    // `Topology::single()` is the default: a scenario that never
    // mentions topology and one that sets 1x1 explicitly must produce
    // byte-identical reports (the pre-topology stack's numbers — the
    // recorded workload_mix baseline pins the same property in CI).
    let implicit = two_service_scenario(Topology::default(), 77).run().unwrap();
    let explicit = two_service_scenario(Topology::single(), 77).run().unwrap();
    assert_eq!(implicit, explicit);
    assert_eq!(implicit.integrity_violations, 0);

    // Nothing overlaps behind a single die: the modeled parallel time
    // degenerates to the serial device time, in every phase.
    assert!(implicit.total_device_time_s > 0.0);
    assert!(
        (implicit.total_parallel_time_s - implicit.total_device_time_s).abs() < 1e-9,
        "1x1 parallel {} vs serial {}",
        implicit.total_parallel_time_s,
        implicit.total_device_time_s
    );
    for phase in &implicit.phases {
        assert!(
            (phase.parallel_time_s - phase.device_time_s).abs() < 1e-9,
            "{}",
            phase.name
        );
    }
    assert!((implicit.achieved_parallelism() - 1.0).abs() < 1e-9);

    // A wider topology on the same geometry runs the same traffic but
    // overlaps it — and remains deterministic per seed.
    let wide = two_service_scenario(Topology::new(2, 1), 77).run().unwrap();
    assert_eq!(wide.integrity_violations, 0);
    assert_eq!(wide.total_commands, implicit.total_commands);
    assert!(wide.total_parallel_time_s < implicit.total_parallel_time_s);
    assert!(wide.achieved_parallelism() > 1.0);
    let wide_again = two_service_scenario(Topology::new(2, 1), 77).run().unwrap();
    assert_eq!(wide, wide_again);
}

#[test]
fn aging_a_subset_of_dies_skews_wear_unevenly() {
    let mut engine = EngineBuilder::date2012()
        .controller_config(small_config(Topology::new(4, 1))) // 4 blocks/die
        .seed(3)
        .build()
        .unwrap();
    // Uniform background age, then skew dies 1 and 3 only.
    engine.controller_mut().age_all(1_000);
    engine.controller_mut().age_die(1, 99_000).unwrap();
    engine.controller_mut().age_die(3, 499_000).unwrap();

    let device = engine.controller().device();
    assert_eq!(device.die_max_cycles(0).unwrap(), 1_000);
    assert_eq!(device.die_mean_cycles(1).unwrap(), 100_000);
    assert_eq!(device.die_max_cycles(2).unwrap(), 1_000);
    assert_eq!(device.die_max_cycles(3).unwrap(), 500_000);
    // Block-level boundaries: die partitions are contiguous.
    assert_eq!(device.block_cycles(3).unwrap(), 1_000);
    assert_eq!(device.block_cycles(4).unwrap(), 100_000);
    assert_eq!(device.block_cycles(12).unwrap(), 500_000);

    // Writes against the skewed bank derive one operating point per
    // die: 4 misses for 4 dies under one service, nothing shared.
    let svc = engine
        .register_service("svc", Objective::Baseline, 0..16)
        .unwrap();
    let mut cmds = Vec::new();
    for die in 0..4usize {
        let block = die * 4;
        cmds.push(Command::erase(svc, block));
        cmds.push(Command::write(svc, block, 0, vec![0x5A; 4096]));
        cmds.push(Command::write(svc, block, 1, vec![0xA5; 4096]));
    }
    engine.sq().submit(&cmds).unwrap();
    let completions = engine.cq().drain();
    assert!(completions.iter().all(|c| c.result.is_ok()));
    assert_eq!(engine.last_batch().op_cache_misses, 4);
    assert_eq!(engine.last_batch().op_cache_hits, 4);
}

#[test]
fn die_skew_survives_a_full_scenario_run() {
    let report = presets::die_skew(5).unwrap().run().unwrap();
    assert_eq!(report.integrity_violations, 0);
    assert_eq!(report.read_failures, 0);
    let fresh = &report.phases[0].services[0];
    let skewed = &report.phases[1].services[0];
    assert!(skewed.max_wear >= 900_000 && fresh.max_wear < 10_000);
}

#[test]
fn out_of_range_die_addressing_is_rejected_everywhere() {
    let mut engine = EngineBuilder::date2012()
        .controller_config(small_config(Topology::new(2, 1)))
        .seed(1)
        .build()
        .unwrap();

    // Controller layer: CtrlError wrapping the device error.
    let err = engine.controller_mut().age_die(2, 1).unwrap_err();
    assert!(matches!(
        err,
        CtrlError::Nand(mlcx::nand::NandError::DieOutOfRange { die: 2, dies: 2 })
    ));

    // Device layer: queries validate too.
    let device = engine.controller().device();
    assert!(matches!(
        device.die_max_cycles(7),
        Err(mlcx::nand::NandError::DieOutOfRange { die: 7, dies: 2 })
    ));
    assert!(matches!(
        device.die_energy_meter(2),
        Err(mlcx::nand::NandError::DieOutOfRange { .. })
    ));

    // Simulator layer: a phase skewing a die the topology does not
    // have aborts the run with the unified error.
    let scenario = Scenario::builder()
        .engine(EngineBuilder::date2012().controller_config(small_config(Topology::new(2, 1))))
        .seed(9)
        .service("s", Objective::Baseline, 0..8, TraceKind::Sequential)
        .phase_with_die_skew("bad", 4, 0, &[(5, 1_000)])
        .build()
        .unwrap();
    let err = scenario.run().unwrap_err();
    assert!(matches!(
        err,
        MlcxError::Ctrl(CtrlError::Nand(mlcx::nand::NandError::DieOutOfRange {
            die: 5,
            dies: 2
        }))
    ));
}

#[test]
fn invalid_topologies_fail_at_build_time() {
    // Blocks must divide evenly over dies: 16 % 3 != 0.
    let result = EngineBuilder::date2012()
        .controller_config(small_config(Topology::new(3, 1)))
        .build();
    assert!(matches!(
        result,
        Err(MlcxError::Ctrl(CtrlError::InvalidConfig { .. }))
    ));
    // Zero-dimension topologies are degenerate.
    let result = EngineBuilder::date2012()
        .controller_config(small_config(Topology::new(0, 1)))
        .build();
    assert!(matches!(
        result,
        Err(MlcxError::Ctrl(CtrlError::InvalidConfig { .. }))
    ));
}
