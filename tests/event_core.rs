//! The event-driven core's two contracts, pinned end-to-end:
//!
//! 1. **Determinism pin** — the `scrub_vs_retry(7, ·)` preset run
//!    through the event core reproduces, bit for bit, the integer
//!    columns committed before the core landed (PR 7's after-the-fact
//!    makespan accounting). Every functional counter — read failures,
//!    integrity violations, corrected bits, scrub relocations, retry
//!    senses, memo hits — is asserted against hardcoded values.
//!
//! 2. **Multi-submitter stress** — the same multi-tenant workload
//!    driven as 1, 2, and 8 round-robin submitter streams (each
//!    absorbing `QueueFull` backpressure by drain-and-resubmit)
//!    produces the identical *set* of functional completions
//!    (order-independent): stream interleaving permutes dispatch and
//!    therefore per-die RNG draws, but never what each service
//!    observes.
//!
//! Plus the event core's reason to exist: out-of-order completions on a
//! multi-die topology, impossible under the old drain-in-submission-
//! order `poll()`.

use std::collections::{BTreeMap, VecDeque};

use mlcx::xlayer::sim::presets::{scrub_vs_retry, MitigationMode};
use mlcx::{
    Command, CommandOutput, ControllerConfig, EngineBuilder, MlcxError, Objective, QosSpec,
    ServiceHandle, StorageEngine, Topology,
};

/// One mode's pinned integer columns: the values the committed PR 7
/// engine produced for `scrub_vs_retry(7, mode)`.
struct Pin {
    mode: MitigationMode,
    total_commands: usize,
    read_failures: usize,
    integrity_violations: u64,
    scrub_relocations: u64,
    scrub_erases: u64,
    retried_reads: u64,
    retry_senses: u64,
    op_cache_hits: u64,
    op_cache_misses: u64,
    // phases[2] ("serve") / phases[3] ("verify") per-service columns:
    // (reads, read_failures, integrity_violations, corrected_bits).
    serve: (usize, usize, u64, u64),
    verify: (usize, usize, u64, u64),
    serve_knob_writes: u64,
}

const PINS: [Pin; 4] = [
    Pin {
        mode: MitigationMode::None,
        total_commands: 340,
        read_failures: 300,
        integrity_violations: 10,
        scrub_relocations: 0,
        scrub_erases: 0,
        retried_reads: 0,
        retry_senses: 0,
        op_cache_hits: 29,
        op_cache_misses: 1,
        serve: (280, 272, 8, 24),
        verify: (30, 28, 2, 6),
        serve_knob_writes: 0,
    },
    Pin {
        mode: MitigationMode::ScrubOnly,
        total_commands: 376,
        read_failures: 55,
        integrity_violations: 283,
        scrub_relocations: 32,
        scrub_erases: 4,
        retried_reads: 0,
        retry_senses: 0,
        op_cache_hits: 57,
        op_cache_misses: 5,
        serve: (280, 55, 253, 0),
        verify: (30, 0, 30, 0),
        serve_knob_writes: 1,
    },
    Pin {
        mode: MitigationMode::RetryOnly,
        total_commands: 340,
        read_failures: 1,
        integrity_violations: 0,
        scrub_relocations: 0,
        scrub_erases: 0,
        retried_reads: 5,
        retry_senses: 19,
        op_cache_hits: 29,
        op_cache_misses: 1,
        serve: (280, 1, 0, 132),
        verify: (30, 0, 0, 12),
        serve_knob_writes: 0,
    },
    Pin {
        mode: MitigationMode::Both,
        total_commands: 376,
        read_failures: 0,
        integrity_violations: 0,
        scrub_relocations: 32,
        scrub_erases: 4,
        retried_reads: 4,
        retry_senses: 12,
        op_cache_hits: 57,
        op_cache_misses: 5,
        serve: (280, 0, 0, 12),
        verify: (30, 0, 0, 0),
        serve_knob_writes: 2,
    },
];

#[test]
fn event_core_reproduces_the_committed_scrub_vs_retry_integers() {
    for pin in &PINS {
        let report = scrub_vs_retry(7, pin.mode).run().unwrap();
        let m = pin.mode;
        assert_eq!(report.total_commands, pin.total_commands, "{m:?}");
        assert_eq!(report.read_failures, pin.read_failures, "{m:?}");
        assert_eq!(
            report.integrity_violations, pin.integrity_violations,
            "{m:?}"
        );
        assert_eq!(
            report.counters.scrub_relocations, pin.scrub_relocations,
            "{m:?}"
        );
        assert_eq!(report.counters.scrub_erases, pin.scrub_erases, "{m:?}");
        assert_eq!(report.counters.retry_reads, pin.retried_reads, "{m:?}");
        assert_eq!(report.counters.retry_senses, pin.retry_senses, "{m:?}");
        assert_eq!(report.op_cache_hits, pin.op_cache_hits, "{m:?}");
        assert_eq!(report.op_cache_misses, pin.op_cache_misses, "{m:?}");
        assert_eq!(report.verified_pages, 30, "{m:?}");

        // Phase order: prefill, park, serve, verify.
        assert_eq!(report.phases.len(), 4, "{m:?}");
        assert_eq!(report.phases[0].services[0].writes, 30, "{m:?}");
        for (phase, pinned) in [(2usize, &pin.serve), (3, &pin.verify)] {
            let svc = &report.phases[phase].services[0];
            let name = &report.phases[phase].name;
            assert_eq!(svc.reads, pinned.0, "{m:?} {name}");
            assert_eq!(svc.read_failures, pinned.1, "{m:?} {name}");
            assert_eq!(svc.integrity_violations, pinned.2, "{m:?} {name}");
            assert_eq!(svc.corrected_bits, pinned.3, "{m:?} {name}");
        }
        assert_eq!(
            report.phases[2].knob_writes, pin.serve_knob_writes,
            "{m:?} serve"
        );
        assert_eq!(
            report.phases[2].counters.scrub_relocations, pin.scrub_relocations,
            "{m:?} serve"
        );
    }
}

const TENANTS: usize = 8;
const BLOCKS_PER_TENANT: usize = 2;
const PAGES: usize = 4;

fn tenant_payload(tenant: usize, page: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 31 + tenant * 257 + page * 7919) % 256) as u8)
        .collect()
}

fn stress_engine() -> (StorageEngine, Vec<ServiceHandle>) {
    let mut config = ControllerConfig::date2012();
    config.geometry.blocks = TENANTS * BLOCKS_PER_TENANT;
    config.geometry.pages_per_block = 8;
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(4096)
        .build()
        .unwrap();
    let mut handles = Vec::new();
    for t in 0..TENANTS {
        let start = t * BLOCKS_PER_TENANT;
        // Bounded depth well below a tenant's total command count, so
        // every run exercises the QueueFull drain-and-resubmit loop.
        let h = engine
            .register_service_with_qos(
                &format!("tenant-{t}"),
                Objective::Baseline,
                start..start + BLOCKS_PER_TENANT,
                QosSpec::default().depth(PAGES + 1),
            )
            .unwrap();
        handles.push(h);
    }
    (engine, handles)
}

/// A canonical, order-independent fingerprint of one completion:
/// (service index, descriptor, success, read payload).
type Fingerprint = (u32, String, bool, Vec<u8>);

/// Runs the full multi-tenant workload as `streams` round-robin
/// submitter streams and returns the sorted multiset of completion
/// fingerprints.
fn run_stress(streams: usize) -> Vec<Fingerprint> {
    let (mut engine, handles) = stress_engine();

    // Each stream owns a disjoint set of tenants; per tenant: erase +
    // PAGES writes, then two read sweeps, as separate batches so the
    // bounded depth genuinely pushes back.
    let mut queues: Vec<VecDeque<(Vec<Command>, Vec<String>)>> = vec![VecDeque::new(); streams];
    for (t, &h) in handles.iter().enumerate() {
        let queue = &mut queues[t % streams];
        let block = t * BLOCKS_PER_TENANT;
        let mut batch = vec![Command::erase(h, block)];
        let mut descs = vec![format!("erase b{block}")];
        for p in 0..PAGES {
            batch.push(Command::write(h, block, p, tenant_payload(t, p)));
            descs.push(format!("write b{block} p{p}"));
        }
        queue.push_back((batch, descs));
        for sweep in 0..2 {
            queue.push_back((
                (0..PAGES).map(|p| Command::read(h, block, p)).collect(),
                (0..PAGES)
                    .map(|p| format!("read{sweep} b{block} p{p}"))
                    .collect(),
            ));
        }
    }

    // One batch per stream per turn. On `QueueFull` the stream makes
    // room the way a host driver does: reap completions, then resubmit
    // (submission is atomic — nothing of a rejected batch was enqueued).
    let mut id_to_desc = BTreeMap::new();
    let mut completions = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        for queue in &mut queues {
            let Some((batch, descs)) = queue.pop_front() else {
                continue;
            };
            let ids = loop {
                match engine.sq().submit_owned(batch.clone()) {
                    Ok(ids) => break ids,
                    Err(MlcxError::QueueFull { .. }) => completions.extend(engine.cq().drain()),
                    Err(e) => panic!("submission must validate: {e}"),
                }
            };
            for (id, desc) in ids.into_iter().zip(descs) {
                assert!(
                    id_to_desc.insert(id, desc).is_none(),
                    "CmdIds must be unique"
                );
            }
        }
    }
    completions.extend(engine.cq().drain());
    assert_eq!(engine.pending(), 0);
    assert_eq!(engine.completions_pending(), 0);
    assert!(engine.now_s() > 0.0, "the virtual clock must have advanced");

    let mut fingerprints: Vec<Fingerprint> = completions
        .iter()
        .map(|c| {
            assert!(c.arrival_s <= c.start_s && c.start_s <= c.end_s);
            let desc = id_to_desc[&c.id].clone();
            let data = match &c.result {
                Ok(CommandOutput::Read(r)) => r.data.clone(),
                _ => Vec::new(),
            };
            (c.service.index(), desc, c.result.is_ok(), data)
        })
        .collect();
    fingerprints.sort();
    fingerprints
}

#[test]
fn multi_submitter_completion_sets_are_identical_across_thread_counts() {
    let single = run_stress(1);
    // Every command completed, successfully, with round-tripped data.
    assert_eq!(single.len(), TENANTS * (1 + PAGES + 2 * PAGES));
    assert!(single.iter().all(|f| f.2), "every command must succeed");
    for (svc, desc, _, data) in &single {
        if desc.starts_with("read") {
            let page: usize = desc.rsplit('p').next().unwrap().parse().unwrap();
            assert_eq!(
                data,
                &tenant_payload(*svc as usize, page),
                "tenant {svc} {desc}"
            );
        }
    }
    // The functional completion set is interleaving-independent.
    let dual = run_stress(2);
    let octo = run_stress(8);
    assert_eq!(single, dual, "2 streams must complete the same set");
    assert_eq!(single, octo, "8 streams must complete the same set");
}

#[test]
fn multi_die_batches_complete_out_of_submission_order() {
    // Two services on separate dies of a 2-channel bank: a slow program
    // on die 0 submitted *before* a fast read on die 1 must complete
    // *after* it — the reordering the old drain-in-submission-order
    // `poll()` could never surface.
    let mut config = ControllerConfig::date2012();
    config.geometry.blocks = 16;
    config.geometry.pages_per_block = 8;
    config.geometry.topology = Topology::new(2, 1);
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .seed(7)
        .build()
        .unwrap();
    let slow = engine
        .register_service("slow", Objective::Baseline, 0..8)
        .unwrap();
    let fast = engine
        .register_service("fast", Objective::Baseline, 8..16)
        .unwrap();

    // Prime both regions: erase the slow block, seed the fast one.
    engine
        .sq()
        .submit(&[
            Command::erase(slow, 0),
            Command::erase(fast, 8),
            Command::write(fast, 8, 0, vec![0xA5; 4096]),
        ])
        .unwrap();
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));

    let ids = engine
        .sq()
        .submit(&[
            Command::write(slow, 0, 0, vec![0x3C; 4096]),
            Command::read(fast, 8, 0),
        ])
        .unwrap();
    let completions = engine.cq().drain();
    assert_eq!(completions.len(), 2);
    // Completion order is event order (end time), not submission order.
    assert_eq!(completions[0].id, ids[1], "the die-1 read finishes first");
    assert_eq!(completions[1].id, ids[0]);
    assert!(completions[0].end_s < completions[1].end_s);
    // Both started at the same dispatch frontier — genuine overlap.
    assert!(completions[0].start_s < completions[1].end_s);
    assert!(completions.iter().all(|c| c.result.is_ok()));
}

#[test]
fn completion_order_is_total_across_dispatches() {
    // Zero-device commands all complete at the dispatch frontier, so
    // their end times collide and only the dispatch sequence orders
    // them. Deliver one event, submit again while the rest are still in
    // flight, drain: the second dispatch's events must sort after the
    // first's, never tie with them.
    let mut engine = EngineBuilder::date2012().seed(7).build().unwrap();
    let svc = engine
        .register_service("svc", Objective::Baseline, 0..8)
        .unwrap();
    let trims = |pages: std::ops::Range<usize>| -> Vec<Command> {
        pages.map(|p| Command::trim(svc, 0, p)).collect()
    };

    engine.sq().submit(&trims(0..3)).unwrap();
    let mut delivered = vec![engine.cq().try_complete().unwrap()];
    assert_eq!(engine.completions_pending(), 2, "events still in flight");
    engine.sq().submit(&trims(3..6)).unwrap();
    delivered.extend(engine.cq().drain());

    // One service: dispatch order is submission order is id order.
    let order: Vec<(f64, u64)> = delivered.iter().map(|c| (c.end_s, c.id.raw())).collect();
    assert_eq!(order.len(), 6);
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "(end_s, dispatch order) must be strictly increasing: {order:?}"
    );
}
