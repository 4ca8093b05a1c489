//! Whole-system scenario: differentiated services + disturb mechanisms +
//! the self-adaptive reliability loop running together on one device.

use mlcx::nand::disturb::DisturbModel;
use mlcx::{
    Command, CommandOutput, ControllerConfig, EngineBuilder, MemoryController, Objective,
    ProgramAlgorithm,
};

#[test]
fn serviced_device_with_disturb_survives_mixed_workload() {
    // Real-world mechanisms on (moderate constants).
    let config = ControllerConfig {
        disturb: DisturbModel {
            read_disturb_per_read: 1e-9,
            retention_scale: 2.5e-5,
            retention_wear_exponent: 0.5,
            reference_cycles: 1e6,
            ..DisturbModel::disabled()
        },
        ..ControllerConfig::date2012()
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(4242)
        .build()
        .unwrap();

    let payments = engine
        .register_service("payments", Objective::MinUber, 0..4)
        .unwrap();
    let media = engine
        .register_service("media", Objective::MaxReadThroughput, 4..12)
        .unwrap();

    // Wear: payments mid-life, media end-of-life.
    engine.controller_mut().age_block(0, 100_000).unwrap();
    engine.controller_mut().age_block(4, 1_000_000).unwrap();

    // Mixed traffic, batched: erases, then interleaved per-service
    // writes (submission queues keep each service FIFO).
    let record: Vec<u8> = (0..4096).map(|i| (i * 7) as u8).collect();
    let clip: Vec<u8> = (0..4096).map(|i| (i * 13 + 5) as u8).collect();
    let mut cmds = vec![Command::erase(payments, 0), Command::erase(media, 4)];
    for page in 0..4 {
        cmds.push(Command::write(payments, 0, page, record.clone()));
        cmds.push(Command::write(media, 4, page, clip.clone()));
    }
    engine.sq().submit_owned(cmds).unwrap();
    for c in engine.cq().drain() {
        assert!(c.result.is_ok(), "{:?}", c.result);
    }

    engine.advance_hours(24.0 * 30.0).unwrap(); // a month on the shelf

    // The media service's traffic, tallied from its completions.
    let (mut media_reads, mut media_corrected_bits) = (0u64, 0u64);
    for _round in 0..10 {
        let mut reads = Vec::new();
        for page in 0..4 {
            reads.push(Command::read(payments, 0, page));
            reads.push(Command::read(media, 4, page));
        }
        engine.sq().submit_owned(reads).unwrap();
        for c in engine.cq().drain() {
            match c.result.unwrap() {
                CommandOutput::Read(r) => {
                    assert!(r.outcome.is_success());
                    if c.service == media {
                        media_reads += 1;
                        media_corrected_bits += r.outcome.corrected_bits() as u64;
                    }
                    let expected = if c.service == payments {
                        &record
                    } else {
                        &clip
                    };
                    assert_eq!(&r.data, expected);
                }
                other => panic!("expected read, got {other:?}"),
            }
        }
    }

    // The worn media region needed real correction work.
    assert!(media_corrected_bits > 0, "EOL region must see errors");
    assert_eq!(media_reads, 40);

    // Page 0 is already written: an overwrite without erase must be
    // rejected end-to-end, as a completion-level device error.
    engine
        .sq()
        .submit(&[Command::write(payments, 0, 0, record.clone())])
        .unwrap();
    let completions = engine.cq().drain();
    assert!(
        completions[0].result.is_err(),
        "overwrite must be rejected end-to-end"
    );
}

#[test]
fn reliability_loop_handles_disturb_creep() {
    use mlcx::{ConfigCommand, ReliabilityManager, ReliabilityPolicy};

    let config = ControllerConfig {
        disturb: DisturbModel {
            read_disturb_per_read: 5e-9,
            ..DisturbModel::disabled()
        },
        ..ControllerConfig::date2012()
    };
    let mut ctrl = MemoryController::new(config, 7).unwrap();
    ctrl.age_block(0, 10_000).unwrap();
    ctrl.erase_block(0).unwrap();
    ctrl.apply(ConfigCommand::SetAlgorithm(ProgramAlgorithm::IsppSv))
        .unwrap();
    ctrl.apply(ConfigCommand::SetCorrection(6)).unwrap();

    let data = vec![0x44u8; 4096];
    ctrl.write_page(0, 0, &data).unwrap();

    let mut mgr = ReliabilityManager::new(ReliabilityPolicy {
        headroom: 2.0,
        epoch_pages: 64,
        tmin: 3,
        tmax: 65,
    });
    let mut recommendations = Vec::new();
    for _ in 0..6 {
        for _ in 0..64 {
            let r = ctrl.read_page(0, 0).unwrap();
            assert!(r.outcome.is_success());
            mgr.observe(&r.outcome);
        }
        if let Some(t) = mgr.take_recommendation() {
            recommendations.push(t);
            ctrl.apply(ConfigCommand::SetCorrection(t)).unwrap();
        }
    }
    // As disturb accumulates over ~400 reads, the recommended capability
    // must never fall below the floor and the loop must keep the data
    // recoverable throughout (asserted read-by-read above).
    assert_eq!(recommendations.len(), 6);
    assert!(recommendations.iter().all(|&t| (3..=65).contains(&t)));
}
