//! `ftl_churn` — the sim-driven workload: K seeded `Scenario`s, each one
//! whole `WorkloadRunner::run` call.
//!
//! The write-side counterpart of the engine workloads: `LogicalMap`
//! planning, GC relocation, sim bookkeeping, payload generation and the
//! verify sweep do the work, on clean codewords so bch does not drown
//! them. A read-path gain that costs writes or GC shows here.
//!
//! Each scenario is a fresh 16 x 16-page single-die device with a `kv`
//! service (`UniformRandom`, blocks 0..8) and a `log` service
//! (`WriteBurst{8}`, blocks 8..16) at 90 % utilization, prefilled, then
//! one `churn` phase of 300 operations per service. Segments stay short
//! (~40 ms) on purpose: at ~110 ms the estimator spread was 6 %.

use mlcx::{
    ControllerConfig, DeviceGeometry, EngineBuilder, Objective, Scenario, ScenarioReport,
    TraceKind, WorkloadRunner,
};

use crate::probe::Probe;
use crate::stats::Fnv;
use crate::Res;

pub const PAGES_PER_BLOCK: usize = 16;
pub const UTILIZATION: f64 = 0.9;
pub const CHURN_OPS: usize = 300;
pub const KV: (Objective, TraceKind) = (Objective::Baseline, TraceKind::UniformRandom);
pub const LOG: (Objective, TraceKind) = (
    Objective::MaxReadThroughput,
    TraceKind::WriteBurst { burst_len: 8 },
);

pub fn geometry() -> DeviceGeometry {
    DeviceGeometry {
        blocks: 16,
        pages_per_block: PAGES_PER_BLOCK,
        ..DeviceGeometry::date2012()
    }
}

pub fn scenarios(quick: bool) -> usize {
    if quick {
        2
    } else {
        16
    }
}

fn scenario(seed: u64) -> Res<Scenario> {
    let config = ControllerConfig::builder().geometry(geometry()).build()?;
    Ok(Scenario::builder()
        .engine(EngineBuilder::date2012().controller_config(config))
        .seed(seed)
        .utilization(UTILIZATION)
        .prefill(true)
        .service("kv", KV.0, 0..8, KV.1)
        .service("log", LOG.0, 8..16, LOG.1)
        .phase("churn", CHURN_OPS, 0)
        .build()?)
}

/// Exact accounting of one repetition (all K scenarios).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimAcc {
    /// Prefill + churn reads and writes the traces issued.
    pub host_pages: u64,
    pub payload_bytes: u64,
    /// Prefill + churn modeled makespan and energy.
    pub parallel_s: f64,
    pub energy_j: f64,
    /// Sums over scenarios of the `kv` churn-phase flow percentiles.
    pub flow_p50_sum_s: f64,
    pub flow_p99_sum_s: f64,
    pub flow_samples: u64,
    /// Churn-phase FTL deltas, both services.
    pub host_writes: u64,
    pub physical_writes: u64,
    pub relocated_pages: u64,
    pub gc_runs: u64,
    pub worst_log10_uber: f64,
    /// Every command any phase executed.
    pub commands: u64,
    /// Device work over every phase, for the count-matched replay.
    pub programs: u64,
    pub reads: u64,
    pub op_hits: u64,
    pub op_misses: u64,
    pub knob_writes: u64,
}

#[derive(Debug)]
pub struct SimRepOut {
    pub digest: Fnv,
    pub attempted: u64,
    pub failed: u64,
    pub acc: SimAcc,
}

fn absorb(report: &ScenarioReport, page_bytes: usize, out: &mut SimRepOut) -> Res<()> {
    let acc = &mut out.acc;
    let d = &mut out.digest;
    for phase in &report.phases {
        let host = phase.name != "verify";
        for s in &phase.services {
            let ops = (s.reads + s.writes) as u64;
            out.attempted += ops;
            acc.reads += s.reads as u64 + s.ftl.relocated_pages;
            acc.programs += s.ftl.physical_writes;
            if host {
                acc.host_pages += ops;
                acc.payload_bytes += ops * page_bytes as u64;
            }
            for x in [s.reads, s.writes, s.cold_reads, s.read_failures] {
                d.write_u64(x as u64);
            }
            d.write_u64(s.corrected_bits);
            d.write_u64(s.ftl.physical_writes);
            d.write_f64(s.flow_latency.total_s);
            d.write_f64(s.energy_j);
        }
        if host {
            acc.parallel_s += phase.parallel_time_s;
            acc.energy_j += phase.energy_j;
        }
        acc.op_hits += phase.op_cache_hits;
        acc.op_misses += phase.op_cache_misses;
        acc.knob_writes += phase.knob_writes;
        d.write_u64(phase.commands as u64);
        d.write_f64(phase.device_time_s);
        d.write_f64(phase.parallel_time_s);
    }
    let churn = report
        .phases
        .iter()
        .find(|p| p.name == "churn")
        .ok_or("scenario report has no churn phase")?;
    let kv = &churn.services[0];
    acc.flow_p50_sum_s += kv.flow_latency.p50_s;
    acc.flow_p99_sum_s += kv.flow_latency.p99_s;
    acc.flow_samples += kv.flow_latency.count as u64;
    for s in &churn.services {
        acc.host_writes += s.ftl.host_writes;
        acc.physical_writes += s.ftl.physical_writes;
        acc.relocated_pages += s.ftl.relocated_pages;
        acc.gc_runs += s.ftl.gc_runs;
        acc.worst_log10_uber = acc.worst_log10_uber.max(s.model_log10_uber);
    }
    acc.commands += report.total_commands as u64;
    out.failed += report.integrity_violations + report.read_failures as u64;
    d.write_u64(report.verified_pages as u64);
    d.write_f64(report.total_energy_j);
    Ok(())
}

/// Runs one repetition: every scenario from a fresh state.
///
/// # Errors
///
/// Scenario construction and run errors.
pub fn run_rep(seed: u64, quick: bool, probe: &mut Probe) -> Res<SimRepOut> {
    let mut out = SimRepOut {
        digest: Fnv::default(),
        attempted: 0,
        failed: 0,
        acc: SimAcc {
            worst_log10_uber: f64::NEG_INFINITY,
            ..SimAcc::default()
        },
    };
    for k in 0..scenarios(quick) as u64 {
        let runner = probe.setup("core.sim.build", |c| -> Res<_> {
            let sc = c.call("core.sim.scenario_build", || scenario(seed.wrapping_add(k)))?;
            Ok(c.call("core.sim.runner_new", || WorkloadRunner::new(&sc))?)
        })?;
        let report = probe.timed("core.sim.run", |c| c.call("core.sim.run", || runner.run()))?;
        absorb(&report, geometry().page_bytes, &mut out)?;
    }
    Ok(out)
}
