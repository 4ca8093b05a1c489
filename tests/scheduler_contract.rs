//! The scheduler's contract under random arrivals, for every
//! `SchedPolicy` on a 2-channel x 2-die engine with bounded queue depths:
//!
//! * the virtual clock `now_s()` never runs backwards;
//! * every accepted `CmdId` completes exactly once;
//! * every completion has `arrival_s <= start_s <= end_s`;
//! * a `QueueFull` rejection changes nothing observable: the completion
//!   stream equals that of a run that never made the rejected submission.
//!
//! And, with one dispatch's events still in flight when the next dispatch
//! runs, completions arrive in non-decreasing `end_s`, each exactly once.

use std::collections::BTreeSet;

use mlcx::{
    CmdId, Command, Completion, ControllerConfig, DeviceGeometry, EngineBuilder, MlcxError,
    Objective, QosSpec, SchedPolicy, ServiceHandle, StorageEngine, Topology,
};
use proptest::prelude::*;

const PAGE_BYTES: usize = 4096;

/// Two services of four blocks each, queue depth 3, on a 2 x 2 engine.
fn engine(policy: SchedPolicy, seed: u64) -> (StorageEngine, [ServiceHandle; 2]) {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: 8,
        pages_per_block: 8,
        topology: Topology::new(2, 2),
        ..config.geometry
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .sched_policy(policy)
        .seed(seed)
        .build()
        .unwrap();
    let qos = |weight, deadline_s| QosSpec {
        weight,
        deadline_s,
        depth: 3,
    };
    let a = engine
        .register_service_with_qos("a", Objective::Baseline, 0..4, qos(1.0, 5e-3))
        .unwrap();
    let b = engine
        .register_service_with_qos("b", Objective::MaxReadThroughput, 4..8, qos(3.0, 2e-3))
        .unwrap();
    (engine, [a, b])
}

/// One host action: submit `count` commands of one service at
/// `now + delay_us`, then take `take` completions.
type Action = (bool, usize, u32, usize);

/// The commands of one action: erase, then program the block's pages in
/// order, then read them back — per service, a cursor walks its blocks.
fn commands(
    handle: ServiceHandle,
    first_block: usize,
    cursor: &mut usize,
    n: usize,
) -> Vec<Command> {
    (0..n)
        .map(|_| {
            let step = *cursor;
            *cursor += 1;
            let block = first_block + (step / 10) % 4;
            match step % 10 {
                0 => Command::erase(handle, block),
                k @ 1..=4 => Command::write(handle, block, k - 1, vec![k as u8; PAGE_BYTES]),
                k => Command::read(handle, block, (k - 5) % 4),
            }
        })
        .collect()
}

/// Runs `actions`, making no submission for the ones in `skip` (their
/// completion takes still happen); returns the completion
/// stream and the actions the engine rejected with `QueueFull`, checking
/// the clock, the stamps and exactly-once completion on the way.
fn run(
    policy: SchedPolicy,
    seed: u64,
    actions: &[Action],
    skip: &BTreeSet<usize>,
) -> (Vec<Completion>, BTreeSet<usize>) {
    let (mut engine, handles) = engine(policy, seed);
    let mut cursors = [0usize; 2];
    let mut accepted = BTreeSet::<CmdId>::new();
    let mut seen = BTreeSet::<CmdId>::new();
    let mut stream = Vec::new();
    let mut rejected = BTreeSet::new();
    let mut now = engine.now_s();
    let mut observe = |c: Completion, now: &mut f64, engine: &StorageEngine| {
        assert!(
            engine.now_s() >= *now,
            "{policy:?}: the clock ran backwards"
        );
        *now = engine.now_s();
        assert!(
            c.arrival_s <= c.start_s && c.start_s <= c.end_s,
            "{policy:?}: {c:?}"
        );
        assert!(seen.insert(c.id), "{policy:?}: {:?} completed twice", c.id);
        stream.push(c);
    };
    for (i, &(second, count, delay_us, take)) in actions.iter().enumerate() {
        let s = usize::from(second);
        let mut cursor = cursors[s];
        let batch = commands(handles[s], 4 * s, &mut cursor, count);
        let at_s = engine.now_s() + f64::from(delay_us) * 1e-6;
        if !skip.contains(&i) {
            match engine.sq().submit_at(batch, at_s) {
                Ok(ids) => {
                    cursors[s] = cursor;
                    accepted.extend(ids);
                }
                Err(MlcxError::QueueFull { .. }) => {
                    rejected.insert(i);
                }
                Err(e) => panic!("{policy:?}: {e}"),
            }
        }
        for _ in 0..take {
            match engine.cq().try_complete() {
                Some(c) => observe(c, &mut now, &engine),
                None => break,
            }
        }
    }
    for c in engine.cq().drain() {
        observe(c, &mut now, &engine);
    }
    assert_eq!(seen, accepted, "{policy:?}: every accepted command, once");
    (stream, rejected)
}

/// What a host observes of a completion stream, engine-independent.
fn observable(stream: &[Completion]) -> Vec<(CmdId, u32, String, [u64; 3])> {
    stream
        .iter()
        .map(|c| {
            let stamps = [c.arrival_s, c.start_s, c.end_s].map(f64::to_bits);
            (c.id, c.service.index(), format!("{:?}", c.result), stamps)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn every_policy_keeps_the_contract_under_random_arrivals(
        seed in 0u64..1_000,
        actions in proptest::collection::vec(
            (any::<bool>(), 1usize..4, 0u32..400, 0usize..3),
            8..24,
        ),
    ) {
        for policy in [
            SchedPolicy::ServiceMajor,
            SchedPolicy::FifoArrival,
            SchedPolicy::WeightedFair,
            SchedPolicy::Deadline,
        ] {
            let (stream, rejected) = run(policy, seed, &actions, &BTreeSet::new());
            // Replaying without the rejected submissions gives the same
            // stream, ids and stamps included (a handle names its engine,
            // so services compare by index).
            let (replayed, none) = run(policy, seed, &actions, &rejected);
            prop_assert!(none.is_empty(), "{policy:?}");
            prop_assert_eq!(observable(&replayed), observable(&stream));
        }
    }
}

#[test]
fn interleaved_dispatches_deliver_in_end_time_order_each_once() {
    for policy in [
        SchedPolicy::ServiceMajor,
        SchedPolicy::FifoArrival,
        SchedPolicy::WeightedFair,
        SchedPolicy::Deadline,
    ] {
        let (mut engine, handles) = engine(policy, 17);
        let mut cursors = [0usize; 2];
        let mut accepted = BTreeSet::<CmdId>::new();
        let mut delivered = Vec::new();
        let mut overlapped = 0;
        let mut submit = |engine: &mut StorageEngine, delay_us: u32| {
            for (s, &handle) in handles.iter().enumerate() {
                let batch = commands(handle, 4 * s, &mut cursors[s], 3);
                let at_s = engine.now_s() + f64::from(delay_us) * 1e-6;
                accepted.extend(engine.sq().submit_at(batch, at_s).unwrap());
            }
        };
        for round in 0..12u32 {
            submit(&mut engine, 40 * round);
            // The first take dispatches; the second submission then waits
            // while that dispatch's events are in flight.
            delivered.extend(engine.cq().try_complete());
            submit(&mut engine, 0);
            delivered.extend(engine.cq().try_complete());
            if round % 3 != 2 {
                // `drain` dispatches the waiting submission beside the
                // events still in flight.
                if engine.cq().depth() > 0 && engine.sq().depth() > 0 {
                    overlapped += 1;
                }
                delivered.extend(engine.cq().drain());
            } else {
                // One at a time: the waiting submission dispatches once
                // the events before it are delivered.
                while let Some(c) = engine.cq().try_complete() {
                    delivered.push(c);
                }
            }
        }
        delivered.extend(engine.cq().drain());
        assert!(
            overlapped > 0,
            "{policy:?}: no dispatch ran beside events in flight"
        );
        for pair in delivered.windows(2) {
            assert!(
                pair[0].end_s <= pair[1].end_s,
                "{policy:?}: {:?} at {} before {:?} at {}",
                pair[0].id,
                pair[0].end_s,
                pair[1].id,
                pair[1].end_s
            );
        }
        let ids: Vec<CmdId> = delivered.iter().map(|c| c.id).collect();
        let once: BTreeSet<CmdId> = ids.iter().copied().collect();
        assert_eq!(
            once.len(),
            ids.len(),
            "{policy:?}: a command completed twice"
        );
        assert_eq!(once, accepted, "{policy:?}: every accepted command");
    }
}

/// Services of weights 1 and 3, four blocks each, on a 1 x 1 engine.
fn weighted_engine(seed: u64) -> (StorageEngine, [ServiceHandle; 2]) {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: 8,
        pages_per_block: 8,
        topology: Topology::new(1, 1),
        ..config.geometry
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .sched_policy(SchedPolicy::WeightedFair)
        .seed(seed)
        .build()
        .unwrap();
    let qos = |weight| QosSpec {
        weight,
        ..QosSpec::default()
    };
    let a = engine
        .register_service_with_qos("a", Objective::Baseline, 0..4, qos(1.0))
        .unwrap();
    let b = engine
        .register_service_with_qos("b", Objective::MaxReadThroughput, 4..8, qos(3.0))
        .unwrap();
    (engine, [a, b])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `WeightedFair` dispatches the backlogged service of least device
    /// time per weight, so while both services are backlogged their
    /// device times per weight stay within one command of each other: at
    /// every prefix of the dispatch order, `|T_a / w_a - T_b / w_b| <=
    /// max_cmd_s / min(w)`, `T` a service's summed `end_s - start_s`. On
    /// one die a command cannot start before the one dispatched ahead of
    /// it, so start order is dispatch order.
    #[test]
    fn weighted_fair_keeps_the_weight_share_within_one_command(
        seed in 0u64..1_000,
        counts in (8usize..60, 8usize..60),
    ) {
        let (mut engine, handles) = weighted_engine(seed);
        let weights = [1.0, 3.0];
        let mut left = [counts.0, counts.1];
        for (s, &handle) in handles.iter().enumerate() {
            let batch = commands(handle, 4 * s, &mut 0, left[s]);
            engine.sq().submit_owned(batch).unwrap();
        }
        let mut done = engine.cq().drain();
        prop_assert_eq!(done.len(), counts.0 + counts.1);
        done.sort_by(|x, y| x.start_s.total_cmp(&y.start_s));
        for pair in done.windows(2) {
            prop_assert!(pair[0].start_s < pair[1].start_s, "two starts: {:?} {:?}", pair[0], pair[1]);
        }
        let max_cmd_s = done.iter().map(|c| c.end_s - c.start_s).fold(0.0, f64::max);
        let bound = max_cmd_s / 1.0f64.min(3.0);
        let mut time = [0.0f64; 2];
        for (k, c) in done.iter().enumerate() {
            if left.contains(&0) {
                break;
            }
            let s = c.service.index() as usize;
            time[s] += c.end_s - c.start_s;
            left[s] -= 1;
            let gap = (time[0] / weights[0] - time[1] / weights[1]).abs();
            prop_assert!(
                gap <= bound,
                "after {} dispatches: T = {:?}, gap {} over the bound {}",
                k + 1,
                time,
                gap,
                bound
            );
        }
    }
}
