//! Tests that cross modules: the benchmark's statistics against the
//! program's own, and the open-loop clock. `tests/cli.rs` drives the built
//! binary through every path at `--quick` size.

use mlcx::{DeviceGeometry, Objective, QosSpec, Scenario, SchedPolicy, SubsystemModel, TraceKind};

use crate::engine_run::{self, Op, Plan, Planned, ServiceDef};
use crate::parse_args;
use crate::probe::Probe;
use crate::stats::nearest_rank;

/// A verify sweep over 50 pages written fresh and 50 written at end of
/// life has exactly two read latencies in equal numbers: the even split
/// separates nearest-rank (p50 = the lower value) from interpolating or
/// upper-median rules.
#[test]
fn nearest_rank_agrees_with_latency_stats_on_a_scenario_report() {
    let report = Scenario::builder()
        .seed(11)
        .service("log", Objective::Baseline, 0..8, TraceKind::Sequential)
        .phase("fresh", 50, 1_000_000)
        .phase("eol", 50, 0)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let verify = report.phases.iter().find(|p| p.name == "verify").unwrap();
    let stats = verify.services[0].read_latency;
    assert_eq!(stats.count, 100);

    let model = SubsystemModel::date2012();
    let latency = |wear| {
        let t = model.configure(Objective::Baseline, wear).correction;
        model.read_path(t).total_s()
    };
    let mut samples = vec![latency(1); 50];
    samples.extend(vec![latency(1_000_000); 50]);
    samples.sort_by(f64::total_cmp);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
    assert!(samples[0] < samples[99]);
    for (q, theirs) in [
        (0.50, stats.p50_s),
        (0.95, stats.p95_s),
        (0.99, stats.p99_s),
    ] {
        let ours = nearest_rank(&samples, q);
        assert!(close(ours, theirs), "q {q}: {ours} vs {theirs}");
    }
    assert!(close(nearest_rank(&samples, 0.50), samples[0]));
    assert!(close(stats.max_s, samples[99]));
}

fn one_service_plan(timed: Vec<Vec<Planned>>, open_loop: bool) -> Plan {
    Plan {
        geometry: DeviceGeometry::date2012(),
        age_cycles: 0,
        sched: SchedPolicy::FifoArrival,
        services: vec![ServiceDef {
            name: "t".into(),
            objective: Objective::Baseline,
            blocks: 0..4,
            qos: QosSpec::default(),
        }],
        setup: vec![vec![Planned {
            svc: 0,
            op: Op::Write { block: 0, page: 0 },
            due_s: 0.0,
        }]],
        timed,
        open_loop,
    }
}

/// The second segment's read is due long before the first segment's
/// program has drained, so the engine clamps its arrival to *now*: the
/// benchmark must still charge the wait from the due time.
#[test]
fn open_loop_flow_runs_from_the_due_time_when_the_arrival_is_clamped() {
    let at = |op, due_s| Planned { svc: 0, op, due_s };
    let plan = one_service_plan(
        vec![
            vec![at(Op::Write { block: 1, page: 0 }, 0.0)],
            vec![at(Op::Read { block: 0, page: 0 }, 1e-6)],
        ],
        true,
    );
    let out = engine_run::run_rep(&plan, 5, &mut Probe::default(), false).unwrap();
    assert_eq!((out.attempted, out.failed), (3, 0));
    let acc = &out.acc;
    let program_s = acc.flows[0];
    assert!(program_s > 0.5e-3, "a program takes about a millisecond");
    // Clamped by (almost) the whole program time ...
    assert!(acc.lateness_max_s > program_s - 2e-6);
    // ... which the read's flow time includes, on top of its own latency.
    let read_latency_s = SubsystemModel::date2012().read_path(3).total_s();
    assert!(acc.flows[1] > acc.lateness_max_s + 0.9 * read_latency_s);
    assert!(acc.queue_wait_s >= acc.lateness_max_s);

    // Closed loop, same commands: flow runs from the arrival, no lateness.
    let mut closed = plan.clone();
    closed.open_loop = false;
    let out = engine_run::run_rep(&closed, 5, &mut Probe::default(), false).unwrap();
    assert_eq!(out.acc.lateness_max_s, 0.0);
    assert!(out.acc.flows[1] < 2.0 * read_latency_s);
}

#[test]
fn repetitions_of_one_seed_share_a_digest_and_seeds_differ() {
    let plan = crate::workloads::fresh_mixed(3, true);
    let digest = |seed| {
        engine_run::run_rep(&plan, seed, &mut Probe::default(), false)
            .unwrap()
            .digest
            .low52()
    };
    assert_eq!(digest(3), digest(3));
    // Another seed moves the payloads, not the timestamps the digest
    // folds; a re-planned workload moves both.
    let other = crate::workloads::fresh_mixed(4, true);
    let replanned = engine_run::run_rep(&other, 4, &mut Probe::default(), false).unwrap();
    assert_ne!(replanned.digest.low52(), digest(3));
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |args: &[&str]| parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--trace", "2"]).is_err());
    assert!(parse(&["--seconds"]).is_err());
    assert!(parse(&["--seconds", "-1"]).is_err());
    let ok = parse(&["--workload", "eol_read", "--seed", "9", "--trace", "1"]).unwrap();
    assert_eq!((ok.seed, ok.trace), (9, true));
}
