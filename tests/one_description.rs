//! The engine plans with the model of the controller it drives
//! (`SubsystemModel::for_controller`): whatever the configuration says
//! about buses, ECC engine and codec range, the analytic paths and the
//! datapath's own reports are the same numbers.

use mlcx::{
    Command, CommandOutput, ControllerConfig, EngineBuilder, Objective, OperatingPoint,
    StorageEngine, SubsystemModel,
};

/// Erase, write and read page (0, 0) under `Baseline`; returns the write
/// and read outputs.
fn write_then_read(engine: &mut StorageEngine) -> (CommandOutput, CommandOutput) {
    let svc = engine
        .register_service("svc", Objective::Baseline, 0..2)
        .unwrap();
    engine
        .sq()
        .submit(&[
            Command::erase(svc, 0),
            Command::write(svc, 0, 0, vec![0xC3; 4096]),
            Command::read(svc, 0, 0),
        ])
        .unwrap();
    let mut done = engine.cq().drain().into_iter().map(|c| c.result.unwrap());
    done.next();
    (done.next().unwrap(), done.next().unwrap())
}

#[test]
fn model_paths_equal_the_datapath_reports_on_a_non_default_controller() {
    let mut config = ControllerConfig::date2012();
    config.flash_if.bus_rate_bps = 64e6;
    config.ecc_hw.clock_hz = 100e6;
    config.ecc_hw.chien_parallelism = 8;
    config.ocp.clock_hz = 100e6;
    config.ocp.latency_cycles += 2;
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(7)
        .build()
        .unwrap();
    let (CommandOutput::Write(w), CommandOutput::Read(r)) = write_then_read(&mut engine) else {
        panic!("expected a write and a read");
    };
    // The fresh operating point, where the parity is exactly m * t bits.
    assert_eq!((w.t_used, r.t_used), (3, 3));

    let model = engine.model();
    let rp = model.read_path(r.t_used);
    for (modeled, booked) in [
        (rp.sense_s, r.sense_s),
        (rp.transfer_s, r.transfer_s),
        (rp.decode_s, r.decode_s),
        (rp.total_s(), r.latency_s),
    ] {
        assert_eq!(modeled.to_bits(), booked.to_bits(), "{modeled} vs {booked}");
    }
    let op = OperatingPoint {
        algorithm: w.algorithm,
        correction: w.t_used,
    };
    let wp = model.write_path(&op, 1);
    for (modeled, booked) in [
        (wp.load_s, w.load_s),
        (wp.encode_s, w.encode_s),
        (wp.transfer_s, w.transfer_s),
    ] {
        assert_eq!(modeled.to_bits(), booked.to_bits(), "{modeled} vs {booked}");
    }
}

#[test]
fn a_narrower_codec_range_needs_no_hand_matched_model() {
    let config = ControllerConfig {
        ecc_tmax: 40,
        ..ControllerConfig::date2012()
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(7)
        .build()
        .unwrap();
    assert_eq!(engine.model().tmax, 40);
    // End of life asks the date2012 schedule for t = 65: the model caps
    // it at the ceiling the codec actually has.
    engine.controller_mut().age_block(0, 1_000_000).unwrap();
    let (CommandOutput::Write(w), _) = write_then_read(&mut engine) else {
        panic!("expected a write");
    };
    assert_eq!(w.t_used, 40);
}

#[test]
fn the_preset_controller_yields_the_preset_model() {
    // Why no baseline moves: every engine in the tree runs the preset's
    // hardware, and its derived model is date2012's field for field.
    assert_eq!(
        format!(
            "{:?}",
            SubsystemModel::for_controller(&ControllerConfig::date2012())
        ),
        format!("{:?}", SubsystemModel::date2012())
    );
}
