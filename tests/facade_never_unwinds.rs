//! The facade never unwinds: whatever a host submits through `sq()` and
//! drains through `cq()` — blocks outside its region or past the device,
//! pages past the block, reads of unwritten pages, rewrites of programmed
//! pages, out-of-order programs, payloads of the wrong size, a handle
//! another engine issued — each step returns `Ok` or a typed `Err`, and
//! the engine still serves a clean erase/write/read round trip afterwards.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mlcx::{
    Command, CommandOutput, ControllerConfig, DeviceGeometry, EngineBuilder, Objective,
    ServiceHandle, StorageEngine, Topology,
};
use proptest::prelude::*;

const BLOCKS: usize = 16;
const PAGES: usize = 8;
const PAGE_BYTES: usize = 4096;

/// A 2-channel x 2-die engine of 16 blocks x 8 pages, with two services
/// owning blocks 0..6 and 6..12 (12..16 belong to nobody).
fn engine(seed: u64) -> (StorageEngine, [ServiceHandle; 2]) {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: BLOCKS,
        pages_per_block: PAGES,
        topology: Topology::new(2, 2),
        ..config.geometry
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(seed)
        .build()
        .unwrap();
    let a = engine
        .register_service("a", Objective::Baseline, 0..6)
        .unwrap();
    let b = engine
        .register_service("b", Objective::MinUber, 6..12)
        .unwrap();
    (engine, [a, b])
}

/// One host step, drawn as raw numbers and decoded against the engine's
/// handles: `(kind, handle, block, page, payload size, then drain?)`.
type Step = (u8, u8, usize, usize, u8, bool);

fn command(step: Step, handles: [ServiceHandle; 3]) -> Command {
    let (kind, handle, block, page, size, _) = step;
    let service = handles[usize::from(handle)];
    let size = [PAGE_BYTES, PAGE_BYTES, 0, 17, PAGE_BYTES + 1][usize::from(size)];
    let data = vec![block as u8 ^ page as u8; size];
    match kind {
        0 => Command::read(service, block, page),
        1 | 2 => Command::write(service, block, page, data),
        3 => Command::erase(service, block),
        4 => Command::trim(service, block, page),
        5 => Command::relocate(service, (block, page), (block / 2, page / 2)),
        _ => Command::scrub_erase(service, block),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn no_command_sequence_unwinds_the_engine(
        seed in 0u64..1_000,
        steps in proptest::collection::vec(
            (0u8..7, 0u8..3, 0usize..BLOCKS + 4, 0usize..PAGES + 2, 0u8..5, any::<bool>()),
            10..40,
        ),
    ) {
        let (mut engine, [a, b]) = engine(seed);
        let (_, [foreign, _]) = self::engine(seed + 1);
        let handles = [a, b, foreign];
        for step in steps {
            let cmd = command(step, handles);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let submitted = engine.sq().submit(&[cmd]);
                let drained = if step.5 {
                    engine.cq().drain()
                } else {
                    engine.cq().try_complete().into_iter().collect()
                };
                (submitted.map(|ids| ids.len()), drained.len())
            }));
            prop_assert!(outcome.is_ok(), "{step:?} unwound");
        }
        let rest = catch_unwind(AssertUnwindSafe(|| engine.cq().drain()));
        prop_assert!(rest.is_ok(), "the final drain unwound");

        // The engine still serves its host.
        let data = vec![0x5Au8; PAGE_BYTES];
        engine
            .sq()
            .submit(&[
                Command::erase(a, 2),
                Command::write(a, 2, 0, data.clone()),
                Command::read(a, 2, 0),
            ])
            .unwrap();
        let done = engine.cq().drain();
        prop_assert_eq!(done.len(), 3);
        let read = done.iter().find_map(|c| match &c.result {
            Ok(CommandOutput::Read(r)) => Some(r.data.clone()),
            _ => None,
        });
        prop_assert!(done.iter().all(|c| c.result.is_ok()), "{done:?}");
        prop_assert_eq!(read, Some(data));
    }
}
