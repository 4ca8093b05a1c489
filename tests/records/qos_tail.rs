//! Multi-tenant tail-latency baseline: weighted-fair dispatch vs FIFO
//! arrival order on one bank.
//!
//! Three tenant classes (gold weight 8, silver 2, bronze 1) share a
//! single-channel/single-die bank. Every round, each tenant submits a
//! small read burst — bronze first, then silver, then gold, so under
//! FIFO the latency-sensitive gold burst always arrives behind the
//! best-effort backlog. The identical seeded workload runs twice, once
//! under [`SchedPolicy::FifoArrival`] and once under
//! [`SchedPolicy::WeightedFair`], and per-class flow-latency tails
//! (p50/p99/p99.9 of completion-minus-arrival on the virtual clock)
//! are computed from the engine's completion stamps.
//!
//! Everything recorded is deterministic (modeled device time on one
//! virtual clock), so the committed baseline under
//! `crates/bench/baselines/qos_tail.json` gates CI bit-for-bit on the
//! counters and the modeled tails alike.
//! The headline assertion: weighted-fair must measurably shrink gold's
//! p99.9 vs FIFO while completing the identical command set.

use mlcx::{
    Command, ControllerConfig, DeviceGeometry, EngineBuilder, Objective, QosSpec, SchedPolicy,
    ServiceHandle, StorageEngine,
};
use mlcx_bench::{percentile, BenchResult};

const CLASSES: [(&str, f64, usize); 3] =
    [("bronze", 1.0, 12), ("silver", 2.0, 8), ("gold", 8.0, 4)];
const READS_PER_BURST: usize = 2;
const ROUNDS: usize = 40;
const SEED: u64 = 2012;

fn tenant_count() -> usize {
    CLASSES.iter().map(|(_, _, n)| n).sum()
}

fn payload(block: usize, page: usize) -> Vec<u8> {
    (0..4096)
        .map(|i| ((i * 11 + block * 131 + page * 17) % 256) as u8)
        .collect()
}

/// One engine per arm: `tenants` one-block services in class
/// registration order bronze, silver, gold.
fn engine(policy: SchedPolicy) -> (StorageEngine, Vec<(usize, ServiceHandle)>) {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: tenant_count(),
        pages_per_block: 8,
        ..config.geometry
    };
    let mut engine = EngineBuilder::date2012()
        .controller_config(config)
        .sched_policy(policy)
        .seed(SEED)
        .build()
        .expect("bench engine must build");
    let mut tenants = Vec::new();
    let mut block = 0usize;
    for (class_ix, (class, weight, count)) in CLASSES.iter().enumerate() {
        for i in 0..*count {
            let h = engine
                .register_service_with_qos(
                    &format!("{class}-{i:02}"),
                    Objective::Baseline,
                    block..block + 1,
                    QosSpec {
                        weight: *weight,
                        ..QosSpec::default()
                    },
                )
                .expect("service must register");
            tenants.push((class_ix, h));
            block += 1;
        }
    }
    (engine, tenants)
}

/// Runs the seeded workload under one policy; returns per-class flow
/// latencies (seconds) and the total completion count.
fn run_arm(policy: SchedPolicy) -> ([Vec<f64>; 3], usize) {
    let (mut engine, tenants) = engine(policy);

    // Prefill every tenant's block through the engine.
    let mut cmds = Vec::new();
    for &(_, h) in &tenants {
        let block = h.index() as usize;
        cmds.push(Command::erase(h, block));
        for p in 0..READS_PER_BURST {
            cmds.push(Command::write(h, block, p, payload(block, p)));
        }
    }
    engine.sq().submit_owned(cmds).expect("prefill submits");
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));

    let mut flows: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut completed = 0usize;
    for _round in 0..ROUNDS {
        // Arrival order: bronze backlog first, gold burst last.
        for &(_, h) in &tenants {
            let block = h.index() as usize;
            let burst: Vec<Command> = (0..READS_PER_BURST)
                .map(|p| Command::read(h, block, p))
                .collect();
            engine.sq().submit_owned(burst).expect("burst submits");
        }
        for c in engine.cq().drain() {
            assert!(c.result.is_ok());
            let class_ix = tenants[c.service.index() as usize].0;
            flows[class_ix].push(c.flow_s());
            completed += 1;
        }
    }
    (flows, completed)
}

pub(crate) fn record() -> BenchResult {
    let (fifo, fifo_n) = run_arm(SchedPolicy::FifoArrival);
    let (wf, wf_n) = run_arm(SchedPolicy::WeightedFair);

    // Both arms complete the identical command set.
    let expect = tenant_count() * READS_PER_BURST * ROUNDS;
    assert_eq!(fifo_n, expect);
    assert_eq!(wf_n, expect);
    for (class_ix, (_, _, count)) in CLASSES.iter().enumerate() {
        assert_eq!(fifo[class_ix].len(), count * READS_PER_BURST * ROUNDS);
        assert_eq!(wf[class_ix].len(), count * READS_PER_BURST * ROUNDS);
    }

    println!("\n===== qos_tail — 24 tenants, weighted-fair vs FIFO on one bank =====");
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "class", "wt", "fifo p50", "fifo p99", "fifo p999", "wf p50", "wf p99", "wf p999"
    );
    let mut modeled = Vec::new();
    for (class_ix, (class, weight, _)) in CLASSES.iter().enumerate() {
        let row: Vec<f64> = [&fifo[class_ix], &wf[class_ix]]
            .iter()
            .flat_map(|s| [0.50, 0.99, 0.999].map(|q| percentile(s, q)))
            .collect();
        println!(
            "{:>8} {:>6.0} {:>11.3}ms {:>11.3}ms {:>11.3}ms {:>11.3}ms {:>11.3}ms {:>11.3}ms",
            class,
            weight,
            row[0] * 1e3,
            row[1] * 1e3,
            row[2] * 1e3,
            row[3] * 1e3,
            row[4] * 1e3,
            row[5] * 1e3
        );
        for (tag, v) in [
            "fifo_p50",
            "fifo_p99",
            "fifo_p999",
            "wf_p50",
            "wf_p99",
            "wf_p999",
        ]
        .iter()
        .zip(&row)
        {
            modeled.push((format!("{class}_{tag}_s"), *v));
        }
    }

    let gold = CLASSES.len() - 1;
    let fifo_gold_p999 = percentile(&fifo[gold], 0.999);
    let wf_gold_p999 = percentile(&wf[gold], 0.999);
    let improvement_pct = (1.0 - wf_gold_p999 / fifo_gold_p999) * 100.0;
    println!(
        "gold p99.9: fifo {:.3} ms -> weighted-fair {:.3} ms ({improvement_pct:+.1}%)",
        fifo_gold_p999 * 1e3,
        wf_gold_p999 * 1e3
    );

    // The headline: weighted-fair must measurably shrink the favored
    // class's p99.9 (>= 20% on this workload), without losing work.
    assert!(
        wf_gold_p999 < fifo_gold_p999 * 0.8,
        "weighted-fair must cut gold's p99.9 by >= 20%: fifo {fifo_gold_p999}, wf {wf_gold_p999}"
    );
    // And the flip side is bounded starvation, not loss: bronze still
    // completes everything (asserted above) at a worse tail.
    assert!(percentile(&wf[0], 0.999) >= percentile(&fifo[0], 0.999));

    let mut record = BenchResult::new(
        "qos_tail",
        "24 tenants in 3 classes, per-class flow tails, weighted-fair vs FIFO",
    );
    record.exact = vec![
        ("tenants".into(), tenant_count() as f64),
        ("rounds".into(), ROUNDS as f64),
        ("completions_fifo".into(), fifo_n as f64),
        ("completions_wf".into(), wf_n as f64),
    ];
    modeled.push(("gold_p999_improvement_pct".into(), improvement_pct));
    record.exact.extend(modeled);
    record
}
