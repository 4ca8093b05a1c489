//! Integration coverage of the event-driven `StorageEngine` API through
//! the `mlcx` facade: submission/completion-queue round-trips across
//! every objective and wear regime, error paths, accounting, and the
//! unified error type.

use mlcx::{
    Command, CommandOutput, ControllerConfig, CtrlError, DeviceGeometry, EngineBuilder,
    MemoryController, MlcxError, Objective, ServiceError, ServiceHandle, StorageEngine, Topology,
    WearBucketing,
};

fn engine(seed: u64) -> StorageEngine {
    EngineBuilder::date2012().seed(seed).build().unwrap()
}

fn patterned_page(tag: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 13 + tag * 977) % 256) as u8)
        .collect()
}

/// Round-trip property: write batch -> read batch -> data identical,
/// corrected raw errors reported — across all three objectives and
/// wear levels {1, 100k, 1M}.
#[test]
fn batch_round_trip_across_objectives_and_wear() {
    for objective in Objective::ALL {
        for (block, cycles) in [(0usize, 1u64), (1, 100_000), (2, 1_000_000)] {
            let mut e = engine(1000 + block as u64);
            let svc = e.register_service("svc", objective, 0..8).unwrap();
            e.controller_mut().age_block(block, cycles).unwrap();

            let pages = 8;
            let payload: Vec<Vec<u8>> = (0..pages).map(patterned_page).collect();
            let mut cmds = vec![Command::erase(svc, block)];
            cmds.extend(
                payload
                    .iter()
                    .enumerate()
                    .map(|(p, d)| Command::write(svc, block, p, d.clone())),
            );
            cmds.extend((0..pages).map(|p| Command::read(svc, block, p)));
            e.sq().submit_owned(cmds).unwrap();

            let completions = e.cq().drain();
            assert_eq!(completions.len(), 2 * pages + 1);
            // The service's traffic, tallied from its completions.
            let (mut reads, mut writes, mut corrected_bits) = (0usize, 0usize, 0u64);
            let (mut bytes_read, mut bytes_written) = (0usize, 0usize);
            for c in &completions {
                assert_eq!(c.service, svc);
                let output = c
                    .result
                    .as_ref()
                    .unwrap_or_else(|err| panic!("{objective:?}@{cycles}: {err}"));
                if let CommandOutput::Write(_) = output {
                    bytes_written += payload[writes].len();
                    writes += 1;
                }
                if let CommandOutput::Read(r) = output {
                    corrected_bits += r.outcome.corrected_bits() as u64;
                    assert!(
                        r.outcome.is_success(),
                        "{objective:?}@{cycles} page {reads}"
                    );
                    assert_eq!(
                        r.data, payload[reads],
                        "{objective:?}@{cycles} page {reads}"
                    );
                    bytes_read += r.data.len();
                    reads += 1;
                }
            }
            assert_eq!((reads, writes), (pages, pages));
            assert_eq!((bytes_read, bytes_written), (pages * 4096, pages * 4096));

            let batch = e.last_batch();
            assert_eq!(batch.failed, 0);
            // One derivation serves the whole same-wear batch.
            assert_eq!(batch.op_cache_misses, 1, "{objective:?}@{cycles}");
            assert_eq!(batch.op_cache_hits, pages as u64 - 1);
            if cycles >= 100_000 {
                assert!(
                    batch.corrected_bits > 0,
                    "{objective:?}@{cycles}: worn pages must show corrected raw errors"
                );
                assert_eq!(corrected_bits, batch.corrected_bits);
            }
        }
    }
}

/// Error paths: unknown service handle, out-of-region block, command to
/// an unerased page.
#[test]
fn error_paths_surface_typed_errors() {
    let mut e = engine(2);
    let svc = e
        .register_service("svc", Objective::Baseline, 0..4)
        .unwrap();

    // Unknown handle (issued by a *different* engine): rejected at
    // submission even though its index is in range here, and nothing is
    // enqueued.
    let mut other = engine(99);
    let foreign: ServiceHandle = other
        .register_service("a", Objective::Baseline, 0..1)
        .unwrap();
    assert_eq!(foreign.index(), 0, "in-range index on purpose");
    let err = e.sq().submit(&[Command::read(foreign, 0, 0)]).unwrap_err();
    assert!(matches!(err, MlcxError::UnknownHandle { handle: 0 }));
    assert_eq!(e.sq().depth(), 0);

    // Out-of-region block: rejected at submission with the service name.
    let err = e.sq().submit(&[Command::erase(svc, 4)]).unwrap_err();
    match err {
        MlcxError::Service(ServiceError::OutOfRegion { name, block }) => {
            assert_eq!(name, "svc");
            assert_eq!(block, 4);
        }
        other => panic!("expected OutOfRegion, got {other:?}"),
    }

    // Write to an unerased page: executes, completes with a device error.
    e.sq()
        .submit(&[
            Command::erase(svc, 0),
            Command::write(svc, 0, 0, vec![1u8; 4096]),
            Command::write(svc, 0, 0, vec![2u8; 4096]), // overwrite, no erase
        ])
        .unwrap();
    let completions = e.cq().drain();
    assert!(completions[1].result.is_ok());
    match &completions[2].result {
        Err(MlcxError::Ctrl(CtrlError::Nand(_))) => {}
        other => panic!("overwrite must surface the device error, got {other:?}"),
    }
    assert_eq!(e.last_batch().failed, 1);

    // Read of a never-written page: unknown page configuration.
    e.sq().submit(&[Command::read(svc, 0, 3)]).unwrap();
    let completions = e.cq().drain();
    assert!(matches!(
        completions[0].result,
        Err(MlcxError::Ctrl(CtrlError::UnknownPageConfig { .. }))
    ));
}

/// One configuration, one verdict: a config the controller cannot run is
/// `InvalidConfig` whichever route hands it over — the controller itself,
/// the engine builder, or (for a geometry) the config builder.
#[test]
fn one_config_gets_one_verdict_on_every_route() {
    let preset = ControllerConfig::date2012;
    let uneven = DeviceGeometry {
        blocks: 64,
        topology: Topology::new(3, 1),
        ..DeviceGeometry::date2012()
    };
    let bad = [
        (
            "t_min = 0",
            ControllerConfig {
                ecc_tmin: 0,
                ..preset()
            },
        ),
        (
            "t_min > t_max",
            ControllerConfig {
                ecc_tmin: 20,
                ecc_tmax: 10,
                ..preset()
            },
        ),
        (
            "m = 1",
            ControllerConfig {
                ecc_m: 1,
                ..preset()
            },
        ),
        (
            "m = 17",
            ControllerConfig {
                ecc_m: 17,
                ..preset()
            },
        ),
        (
            "3 dies over 64 blocks",
            ControllerConfig {
                geometry: uneven,
                ..preset()
            },
        ),
    ];
    for (what, config) in bad {
        assert!(
            matches!(
                MemoryController::new(config.clone(), 1),
                Err(CtrlError::InvalidConfig { .. })
            ),
            "{what}: controller"
        );
        assert!(
            matches!(
                EngineBuilder::date2012().controller_config(config).build(),
                Err(MlcxError::Ctrl(CtrlError::InvalidConfig { .. }))
            ),
            "{what}: engine"
        );
    }
    assert!(matches!(
        ControllerConfig::builder().geometry(uneven).build(),
        Err(CtrlError::InvalidConfig { .. })
    ));

    // A valid config whose parity does not fit keeps its own error.
    let short_spare = ControllerConfig {
        geometry: DeviceGeometry {
            spare_bytes: 64,
            ..DeviceGeometry::date2012()
        },
        ..preset()
    };
    assert!(matches!(
        MemoryController::new(short_spare.clone(), 1),
        Err(CtrlError::SpareOverflow { .. })
    ));
    assert!(matches!(
        EngineBuilder::date2012()
            .controller_config(short_spare)
            .build(),
        Err(MlcxError::Ctrl(CtrlError::SpareOverflow { .. }))
    ));
    assert!(MemoryController::new(preset(), 1).is_ok());
    assert!(EngineBuilder::date2012()
        .controller_config(preset())
        .build()
        .is_ok());
}

/// The unified error type composes a single `std::error::Error` chain
/// from every layer.
#[test]
fn unified_error_chain_reaches_the_device_layer() {
    use std::error::Error as _;

    let mut e = engine(3);
    let svc = e
        .register_service("svc", Objective::Baseline, 0..2)
        .unwrap();
    e.sq()
        .submit(&[
            Command::erase(svc, 0),
            Command::write(svc, 0, 0, vec![1u8; 4096]),
            Command::write(svc, 0, 0, vec![2u8; 4096]),
        ])
        .unwrap();
    let completions = e.cq().drain();
    let err = completions[2].result.as_ref().unwrap_err();
    // MlcxError -> CtrlError -> NandError: two hops of source().
    let ctrl = err.source().expect("controller layer");
    let nand = ctrl.source().expect("device layer");
    assert!(nand.source().is_none());
    assert!(!err.to_string().is_empty());
}

/// Multi-service batches interleave fairly and keep per-service stats
/// and objectives isolated.
#[test]
fn services_stay_isolated_within_one_batch() {
    let mut e = engine(4);
    let pay = e
        .register_service("payments", Objective::MinUber, 0..4)
        .unwrap();
    let media = e
        .register_service("media", Objective::MaxReadThroughput, 4..8)
        .unwrap();
    e.controller_mut().age_block(4, 1_000_000).unwrap();

    e.sq()
        .submit(&[
            Command::erase(pay, 0),
            Command::erase(media, 4),
            Command::write(pay, 0, 0, patterned_page(0)),
            Command::write(media, 4, 0, patterned_page(1)),
            Command::read(pay, 0, 0),
            Command::read(media, 4, 0),
        ])
        .unwrap();
    let completions = e.cq().drain();

    let mut t_used = Vec::new();
    let mut reads = Vec::new();
    for c in &completions {
        match &c.result {
            Ok(CommandOutput::Write(w)) => t_used.push((c.service, w.t_used)),
            Ok(CommandOutput::Read(_)) => reads.push(c.service),
            _ => {}
        }
    }
    // Fresh min-UBER runs the SV schedule's t = 3; worn max-read relaxes
    // to the DV schedule's t = 14 — inside one batch.
    assert!(t_used.contains(&(pay, 3)), "{t_used:?}");
    assert!(t_used.contains(&(media, 14)), "{t_used:?}");

    // One write and one read per service, tallied from the completions.
    assert_eq!(t_used.iter().filter(|&&(s, _)| s == pay).count(), 1);
    assert_eq!(t_used.iter().filter(|&&(s, _)| s == media).count(), 1);
    assert_eq!(reads.iter().filter(|&&s| s == pay).count(), 1);
}

/// The facade re-exports one coherent engine vocabulary.
#[test]
fn facade_reexports_are_the_same_types() {
    let mut e: mlcx::StorageEngine = mlcx::xlayer::engine::EngineBuilder::date2012()
        .wear_bucketing(WearBucketing::Log2)
        .build()
        .unwrap();
    let h: mlcx::ServiceHandle = e
        .register_service("svc", mlcx::Objective::Baseline, 0..2)
        .unwrap();
    let ids: Vec<mlcx::CmdId> = e.sq().submit(&[mlcx::Command::erase(h, 0)]).unwrap();
    let completions: Vec<mlcx::Completion> = e.cq().drain();
    assert_eq!(completions[0].id, ids[0]);
    let _report: &mlcx::BatchReport = e.last_batch();
    // The QoS/event vocabulary is re-exported too.
    let _q = mlcx::QosSpec {
        weight: 2.0,
        depth: 16,
        ..mlcx::QosSpec::default()
    };
    let mut sq: mlcx::SubmissionQueue<'_> = e.sq();
    assert_eq!(sq.depth(), 0);
    sq.submit(&[mlcx::Command::erase(h, 1)]).unwrap();
    let mut cq: mlcx::CompletionQueue<'_> = e.cq();
    assert!(cq.try_complete().is_some());
}
