//! The three engine-driven workloads as [`Plan`]s. Every choice below is a
//! function of the seed; the *amount* of work is not, so host time is
//! comparable across seeds while flow times and the throughput mix move
//! a little with it.

use mlcx::{DeviceGeometry, Objective, QosSpec, SchedPolicy, Topology};

use crate::engine_run::{Op, Plan, Planned, ServiceDef};
use crate::inputs::{derive, Rng};

fn closed(svc: usize, op: Op) -> Planned {
    Planned {
        svc,
        op,
        due_s: 0.0,
    }
}

/// `fresh_mixed` — begin of life, clean codewords, so the per-page fixed
/// costs dominate: bch encode and the clean-syndrome pass, nand page
/// copies, `Command` payload allocation, engine dispatch. Dirty decode
/// does nothing here.
///
/// One `Baseline` service over the paper's 64 x 128 single-die device.
/// Set-up prefills blocks 32..64. A segment erases block *b* and submits
/// its 128 in-order page writes merged, in seeded random order, with 128
/// reads of random pages of a prefilled partner block; 3 rounds x 32
/// segments = 24 576 host pages per repetition (short repetitions, so
/// that many fit in a run: the estimator needs each segment to meet the
/// box's fast state at least once).
pub fn fresh_mixed(seed: u64, quick: bool) -> Plan {
    let geometry = DeviceGeometry::date2012();
    let ppb = geometry.pages_per_block;
    let (rounds, blocks) = if quick { (1, 4) } else { (3, 32) };
    let mut rng = Rng::new(derive(seed, 0xF1));
    let setup = (32..32 + blocks)
        .map(|b| {
            (0..ppb)
                .map(|page| closed(0, Op::Write { block: b, page }))
                .collect()
        })
        .collect();
    let mut timed = Vec::with_capacity(rounds * blocks);
    for _ in 0..rounds {
        let mut targets: Vec<usize> = (0..blocks).collect();
        let mut partners: Vec<usize> = (32..32 + blocks).collect();
        rng.shuffle(&mut targets);
        rng.shuffle(&mut partners);
        for (&block, &partner) in targets.iter().zip(&partners) {
            let mut seg = Vec::with_capacity(2 * ppb + 1);
            seg.push(closed(0, Op::Erase { block }));
            // A random merge: writes keep their ascending page order (the
            // device requires it), reads fall between them at random.
            let (mut writes, mut reads) = (0, 0);
            while writes < ppb || reads < ppb {
                let left = 2 * ppb - writes - reads;
                if rng.below(left) < ppb - writes {
                    seg.push(closed(
                        0,
                        Op::Write {
                            block,
                            page: writes,
                        },
                    ));
                    writes += 1;
                } else {
                    let page = rng.below(ppb);
                    seg.push(closed(
                        0,
                        Op::Read {
                            block: partner,
                            page,
                        },
                    ));
                    reads += 1;
                }
            }
            timed.push(seg);
        }
    }
    Plan {
        geometry,
        age_cycles: 0,
        sched: SchedPolicy::ServiceMajor,
        services: vec![ServiceDef {
            name: "mixed".into(),
            objective: Objective::Baseline,
            blocks: 0..64,
            qos: QosSpec::default(),
        }],
        setup,
        timed,
        open_loop: false,
    }
}

/// `eol_read` — end of life (10^6 cycles): Berlekamp + Chien on
/// error-laden codewords and nand error injection dominate; engine and
/// allocation costs vanish. The three objectives side by side make the
/// paper's Fig. 11 read gain a measured number.
///
/// Set-up writes two blocks per service at the end-of-life operating
/// points (so end-of-life *writes* show in `setup_s`). A round reads each
/// of the 768 written pages once, in seeded random order, cut into
/// segments of 8 to 24 reads (seeded too, so the flow-time distribution is
/// a function of the seed) dispatched in arrival order; 3 rounds = 2 304
/// reads per repetition.
pub fn eol_read(seed: u64, quick: bool) -> Plan {
    let geometry = DeviceGeometry::date2012();
    let (rounds, pages) = if quick {
        (1, 16)
    } else {
        (3, geometry.pages_per_block)
    };
    let objectives = [
        ("baseline", Objective::Baseline),
        ("min_uber", Objective::MinUber),
        ("max_read", Objective::MaxReadThroughput),
    ];
    let services: Vec<ServiceDef> = objectives
        .iter()
        .enumerate()
        .map(|(i, &(name, objective))| ServiceDef {
            name: name.into(),
            objective,
            blocks: 4 * i..4 * i + 4,
            qos: QosSpec::default(),
        })
        .collect();
    let mut setup = Vec::new();
    let mut written = Vec::new();
    for (svc, s) in services.iter().enumerate() {
        for block in s.blocks.start..s.blocks.start + 2 {
            setup.push(
                (0..pages)
                    .map(|page| closed(svc, Op::Write { block, page }))
                    .collect(),
            );
            written.extend((0..pages).map(|page| closed(svc, Op::Read { block, page })));
        }
    }
    let mut rng = Rng::new(derive(seed, 0xE0));
    let mut timed = Vec::new();
    for _ in 0..rounds {
        rng.shuffle(&mut written);
        let mut rest = &written[..];
        while !rest.is_empty() {
            let (seg, tail) = rest.split_at((8 + rng.below(17)).min(rest.len()));
            timed.push(seg.to_vec());
            rest = tail;
        }
    }
    Plan {
        geometry,
        age_cycles: 1_000_000,
        // Arrival order, so that a segment's flow times are partial sums
        // of a seeded mix of the three read latencies: under the default
        // service-major order they pile onto a few multiples of the
        // Baseline latency and the median jumps between two of them from
        // seed to seed.
        sched: SchedPolicy::FifoArrival,
        services,
        setup,
        timed,
        open_loop: false,
    }
}

/// Arrivals per second at 100 % of the modeled capacity of the
/// `tenant_qos` device for its 90/10 read/append mix: the rate at which
/// the same arrival stream, offered all at once, drains (measured once,
/// see the README). The workload runs at 70 % of it.
pub const TENANT_QOS_CAPACITY_PER_S: f64 = 7_600.0;

/// The load `tenant_qos` reports its end-to-end metrics at, percent.
pub const TENANT_QOS_LOAD_PCT: u32 = 70;

/// `tenant_qos` — multi-die, many small drains: `core.event` dispatch,
/// `ChannelScheduler` and per-drain percentile bookkeeping are the
/// largest share and the datapath is cheap; this is where
/// `sim_flow_ms_p99` means what a tenant sees.
///
/// 64 blocks x 32 pages over 4 channels x 2 dies, 8 tenants x 8 blocks
/// (one die each, two tenants per channel) with weights 8/2/1 and
/// deadlines 5/10/20 ms under weighted-fair dispatch. Set-up prefills half of each region. Open
/// loop on the virtual clock: Poisson arrivals at `load_pct` % of
/// [`TENANT_QOS_CAPACITY_PER_S`], 90 % reads of prefilled pages and 10 %
/// appends into a ring over the other half (an append that wraps onto a
/// used block erases it first); a segment is 64 consecutive arrivals,
/// each `submit_at(due)`, then one `drain`; 40 960 arrivals per
/// repetition.
pub fn tenant_qos(seed: u64, quick: bool, load_pct: u32) -> Plan {
    let geometry = DeviceGeometry {
        blocks: 64,
        pages_per_block: 32,
        topology: Topology::new(4, 2),
        ..DeviceGeometry::date2012()
    };
    let ppb = geometry.pages_per_block;
    let arrivals = if quick { 1_280 } else { 40_960 };
    let classes = [
        (8.0, 5.0e-3, Objective::MinUber),
        (8.0, 5.0e-3, Objective::MinUber),
        (2.0, 10.0e-3, Objective::Baseline),
        (2.0, 10.0e-3, Objective::Baseline),
        (2.0, 10.0e-3, Objective::Baseline),
        (1.0, 20.0e-3, Objective::MaxReadThroughput),
        (1.0, 20.0e-3, Objective::MaxReadThroughput),
        (1.0, 20.0e-3, Objective::MaxReadThroughput),
    ];
    let services: Vec<ServiceDef> = classes
        .iter()
        .enumerate()
        .map(|(i, &(weight, deadline_s, objective))| ServiceDef {
            name: format!("tenant{i}"),
            objective,
            blocks: 8 * i..8 * i + 8,
            qos: QosSpec {
                weight,
                deadline_s,
                ..QosSpec::default()
            },
        })
        .collect();
    let setup = (0..services.len())
        .map(|svc| {
            (0..4 * ppb)
                .map(|i| {
                    closed(
                        svc,
                        Op::Write {
                            block: 8 * svc + i / ppb,
                            page: i % ppb,
                        },
                    )
                })
                .collect()
        })
        .collect();

    let rate = TENANT_QOS_CAPACITY_PER_S * f64::from(load_pct) / 100.0;
    let mut rng = Rng::new(derive(seed, 0x7E));
    // Append cursor per tenant: pages appended so far into its 4-block ring.
    let mut appended = vec![0usize; services.len()];
    let mut timed = Vec::with_capacity(arrivals / 64);
    let mut due_s = 0.0;
    for _ in 0..arrivals / 64 {
        let mut seg = Vec::with_capacity(66);
        for _ in 0..64 {
            due_s += -(1.0 - rng.unit()).ln() / rate;
            let svc = rng.below(services.len());
            let op = if rng.below(10) == 0 {
                let n = appended[svc];
                appended[svc] += 1;
                let block = 8 * svc + 4 + (n / ppb) % 4;
                if n.is_multiple_of(ppb) && n >= 4 * ppb {
                    seg.push(Planned {
                        svc,
                        op: Op::Erase { block },
                        due_s,
                    });
                }
                Op::Write {
                    block,
                    page: n % ppb,
                }
            } else {
                let i = rng.below(4 * ppb);
                Op::Read {
                    block: 8 * svc + i / ppb,
                    page: i % ppb,
                }
            };
            seg.push(Planned { svc, op, due_s });
        }
        timed.push(seg);
    }
    Plan {
        geometry,
        age_cycles: 0,
        sched: SchedPolicy::WeightedFair,
        services,
        setup,
        timed,
        open_loop: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(plan: &Plan, f: impl Fn(&Op) -> bool) -> usize {
        plan.timed.iter().flatten().filter(|p| f(&p.op)).count()
    }

    #[test]
    fn plans_are_a_function_of_the_seed_with_fixed_work() {
        for (a, b, c) in [
            (
                fresh_mixed(1, true),
                fresh_mixed(1, true),
                fresh_mixed(2, true),
            ),
            (eol_read(1, true), eol_read(1, true), eol_read(2, true)),
            (
                tenant_qos(1, true, 70),
                tenant_qos(1, true, 70),
                tenant_qos(2, true, 70),
            ),
        ] {
            let ops = |p: &Plan| -> Vec<Op> { p.timed.iter().flatten().map(|p| p.op).collect() };
            assert_eq!(ops(&a), ops(&b));
            assert_ne!(ops(&a), ops(&c));
            assert_eq!(ops(&a).len(), ops(&c).len(), "the seed moves no work");
        }
        let full = fresh_mixed(4096, false);
        assert_eq!(full.timed.len(), 96);
        assert_eq!(count(&full, |o| matches!(o, Op::Write { .. })), 12_288);
        assert_eq!(count(&full, |o| matches!(o, Op::Read { .. })), 12_288);
        let eol = eol_read(4096, false);
        assert_eq!(count(&eol, |_| true), 2_304);
        assert!(eol.timed.iter().all(|s| (1..=24).contains(&s.len())));
        let qos = tenant_qos(4096, false, 70);
        assert_eq!(qos.timed.len(), 640);
        assert_eq!(
            count(&qos, |o| !matches!(o, Op::Erase { .. })),
            40_960,
            "one page operation per arrival"
        );
    }

    #[test]
    fn writes_stay_in_page_order_within_a_block() {
        for plan in [fresh_mixed(9, true), tenant_qos(9, false, 70)] {
            let mut next = std::collections::BTreeMap::new();
            for p in plan.setup.iter().chain(&plan.timed).flatten() {
                match p.op {
                    Op::Erase { block } => {
                        next.insert(block, 0);
                    }
                    Op::Write { block, page } => {
                        let n = next.entry(block).or_insert(0);
                        assert_eq!(page, *n, "block {block}");
                        *n += 1;
                    }
                    Op::Read { .. } => {}
                }
            }
        }
    }
}
