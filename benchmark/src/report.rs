//! From measurements to named metrics, and the output formats.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::engine_run;
use crate::manifest;
use crate::probe::{Probe, Tracer};
use crate::replay::{self, Cat, LayerTimes, ReplayInput};
use crate::stats::nearest_rank;
use crate::workloads;
use crate::{sim_run, Args, Bench, Measured, Rep, Res, Work};

/// `(name, value)` in manifest order.
pub type Metrics = Vec<(&'static str, f64)>;

/// The exact (simulated-clock and count) results of one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Reads + writes the workload itself issued in its timed segments.
    pub host_pages: u64,
    /// Commands the program executed in the timed segments.
    pub cmds: u64,
    pub sim_mb_per_s: f64,
    pub flow_ms_p50: f64,
    pub flow_ms_p99: f64,
    pub flow_samples: u64,
    pub uj_per_page: f64,
    pub neg_log10_uber: f64,
    pub write_amp: f64,
}

impl Summary {
    pub fn of(rep: &Rep, bench: &Bench) -> Summary {
        match rep {
            Rep::Engine(out) => {
                let a = &out.acc;
                let mut flows = a.flows.clone();
                flows.sort_by(f64::total_cmp);
                let host_pages = a.host_reads + a.host_writes;
                Summary {
                    attempted: out.attempted,
                    failed: out.failed,
                    digest: out.digest.low52(),
                    host_pages,
                    cmds: a.cmds,
                    sim_mb_per_s: a.payload_bytes as f64 / a.parallel_s / 1e6,
                    flow_ms_p50: nearest_rank(&flows, 0.50) * 1e3,
                    flow_ms_p99: nearest_rank(&flows, 0.99) * 1e3,
                    flow_samples: flows.len() as u64,
                    uj_per_page: a.energy_j / host_pages as f64 * 1e6,
                    neg_log10_uber: -a.worst_log10_uber,
                    write_amp: 1.0,
                }
            }
            Rep::Sim(out) => {
                let a = &out.acc;
                let k = sim_run::scenarios(bench.quick) as f64;
                Summary {
                    attempted: out.attempted,
                    failed: out.failed,
                    digest: out.digest.low52(),
                    host_pages: a.host_pages,
                    cmds: a.commands,
                    sim_mb_per_s: a.payload_bytes as f64 / a.parallel_s / 1e6,
                    flow_ms_p50: a.flow_p50_sum_s / k * 1e3,
                    flow_ms_p99: a.flow_p99_sum_s / k * 1e3,
                    flow_samples: a.flow_samples,
                    uj_per_page: a.energy_j / a.host_pages as f64 * 1e6,
                    neg_log10_uber: -a.worst_log10_uber,
                    write_amp: a.physical_writes as f64 / a.host_writes as f64,
                }
            }
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The nine end-to-end metrics of an untraced measurement.
pub fn end_to_end(m: &Measured, s: &Summary) -> Res<Metrics> {
    Ok(vec![
        ("setup_s", m.setup.at_reference_s()),
        (
            "host_kpages_per_s",
            s.host_pages as f64 / 1e3 / m.timed.at_reference_s(),
        ),
        ("host_peak_rss_mb", peak_rss_mib()?),
        ("sim_mb_per_s", s.sim_mb_per_s),
        ("sim_flow_ms_p50", s.flow_ms_p50),
        ("sim_flow_ms_p99", s.flow_ms_p99),
        ("sim_uj_per_page", s.uj_per_page),
        ("sim_neg_log10_uber", s.neg_log10_uber),
        ("write_amp", s.write_amp),
    ])
}

/// What the layer replays and calibrations of a traced run produced.
pub struct Layers {
    times: LayerTimes,
    /// `(plan_write ns/op, next_op ns/op)`, `ftl_churn` only.
    ftl_trace_ns: (f64, f64),
    /// `tenant_qos` flow p99 at 50 % and 90 % load, ms.
    load_p99_ms: (f64, f64),
    hv_ns: f64,
    gf2_ns: (f64, f64),
}

/// The layer replays of one traced run, one repetition at a time so they
/// interleave with the engine repetitions they are subtracted from.
pub struct ReplaySession {
    input: ReplayInput,
    times: LayerTimes,
}

impl ReplaySession {
    /// Takes the inputs the first traced repetition captured (or, for the
    /// sim-driven workload, a count-matched stand-in for them).
    pub fn new(bench: &Bench, traced_first: &mut Rep) -> Res<Self> {
        let (config, segments, first_timed, age_cycles) = match (&bench.work, traced_first) {
            (Work::Engine(plan), Rep::Engine(out)) => (
                plan.config()?,
                out.captured
                    .take()
                    .ok_or("the traced run captured nothing")?,
                plan.setup.len(),
                plan.age_cycles,
            ),
            (Work::Sim, Rep::Sim(out)) => (
                mlcx::ControllerConfig::builder()
                    .geometry(sim_run::geometry())
                    .build()?,
                replay::synthesize_churn(
                    out.acc.programs,
                    out.acc.reads,
                    sim_run::scenarios(bench.quick),
                ),
                0,
                0,
            ),
            _ => return Err("workload and repetition kinds disagree".into()),
        };
        Ok(ReplaySession {
            input: ReplayInput {
                config,
                device_seed: crate::inputs::derive(bench.seed, 0xE6),
                age_cycles,
                payload_seed: bench.seed,
                segments,
                first_timed,
            },
            times: LayerTimes::default(),
        })
    }

    /// One repetition of every replay.
    pub fn step(&mut self, tracer: Option<&mut Tracer>) -> Res<()> {
        replay::layers_rep(&self.input, &mut self.times, tracer)
    }

    /// Adds the measurements that need no interleaving.
    pub fn finish(self, bench: &Bench) -> Res<Layers> {
        let ftl_trace_ns = match bench.work {
            Work::Sim => replay::ftl_and_trace_ns(bench.seed, sim_run::scenarios(bench.quick), 5)?,
            Work::Engine(_) => (0.0, 0.0),
        };
        let load_p99_ms = if bench.name == "tenant_qos" {
            let p99_at = |load_pct| -> Res<f64> {
                let plan = workloads::tenant_qos(bench.seed, bench.quick, load_pct);
                let out = engine_run::run_rep(&plan, bench.seed, &mut Probe::default(), false)?;
                let mut flows = out.acc.flows;
                flows.sort_by(f64::total_cmp);
                Ok(nearest_rank(&flows, 0.99) * 1e3)
            };
            (p99_at(50)?, p99_at(90)?)
        } else {
            (0.0, 0.0)
        };
        Ok(Layers {
            times: self.times,
            ftl_trace_ns,
            load_p99_ms,
            hv_ns: replay::hv_execute_ns(),
            gf2_ns: replay::gf2_ns()?,
        })
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in manifest order.
pub fn per_layer(
    bench: &Bench,
    untraced: &Measured,
    traced: &Measured,
    s: &Summary,
    layers: &Layers,
) -> Res<Metrics> {
    let t = &layers.times;
    let c = &t.counts;
    let top_ns = traced.timed.at_reference_ns();
    let cmds = s.cmds as f64;
    let pages = s.host_pages as f64;
    let page_ops = (c.programs + c.reads) as f64;
    let dirty = (c.dirty_reads + c.uncorrectable) as f64;
    let ctrl_ns = t.ns(Cat::ControllerOp);
    let bch_ns = t.ns(Cat::BchEncode) + t.ns(Cat::BchDecodeClean) + t.ns(Cat::BchDecodeDirty);
    let nand_ns = t.ns(Cat::NandProgram) + t.ns(Cat::NandRead) + t.ns(Cat::NandErase);
    let is_sim = matches!(bench.work, Work::Sim);
    // The engine and the sim each own the top span of their workloads.
    let (engine_top, sim_top) = if is_sim { (0.0, top_ns) } else { (top_ns, 0.0) };

    let (mut event, mut ftl) = ([0.0; 5], [0.0; 2]);
    let (op_hits, op_misses, knob_writes) = match &untraced.first {
        Rep::Engine(out) => {
            let a = &out.acc;
            if c.corrected_bits != a.corrected_bits || c.reads != a.host_reads {
                return Err(format!(
                    "the controller replay corrected {} bits over {} reads, the engine run {} over {}",
                    c.corrected_bits, c.reads, a.corrected_bits, a.host_reads
                )
                .into());
            }
            event = [
                ratio(a.queue_wait_s, a.flow_total_s),
                ratio(a.device_s, a.parallel_s),
                ratio(a.channel_busy_s, a.channels as f64 * a.parallel_s),
                ratio(a.deadline_misses as f64, cmds),
                a.lateness_max_s * 1e3,
            ];
            (a.op_hits, a.op_misses, a.knob_writes)
        }
        Rep::Sim(out) => {
            let a = &out.acc;
            ftl = [
                ratio(a.relocated_pages as f64, a.host_writes as f64),
                ratio(a.gc_runs as f64 * 1e3, a.host_writes as f64),
            ];
            (a.op_hits, a.op_misses, a.knob_writes)
        }
    };

    let values = [
        ratio(sim_top, pages),
        if is_sim {
            ratio(sim_top - ctrl_ns, pages)
        } else {
            0.0
        },
        layers.ftl_trace_ns.1,
        if is_sim { ratio(cmds, pages) } else { 0.0 },
        ratio(engine_top, cmds),
        if is_sim {
            0.0
        } else {
            ratio(engine_top - ctrl_ns, cmds)
        },
        ratio(untraced.allocs as f64, cmds),
        ratio(untraced.alloc_bytes as f64, cmds),
        ratio(op_hits as f64, (op_hits + op_misses) as f64),
        ratio(knob_writes as f64 * 1e3, cmds),
        event[0],
        event[1],
        event[2],
        event[3],
        event[4],
        layers.load_p99_ms.0,
        layers.load_p99_ms.1,
        replay::read_gain_eol_pct(),
        ratio(ctrl_ns, page_ops),
        ratio(ctrl_ns - bch_ns - nand_ns, page_ops),
        ratio(c.bus_s, c.latency_s),
        layers.ftl_trace_ns.0,
        ftl[0],
        ftl[1],
        ratio(t.ns(Cat::BchEncode), c.programs as f64),
        ratio(t.ns(Cat::BchDecodeClean), c.clean_reads as f64),
        ratio(t.ns(Cat::BchDecodeDirty), dirty),
        ratio(t.ns(Cat::BchSyndrome), dirty),
        ratio(t.ns(Cat::BchBerlekamp), dirty),
        ratio(t.ns(Cat::BchChien), dirty),
        ratio(c.clean_reads as f64, c.reads as f64),
        ratio(c.corrected_bits as f64, c.reads as f64),
        ratio(c.t_sum as f64, page_ops),
        ratio(c.uncorrectable as f64, c.reads as f64),
        ratio(c.ecc_s, c.latency_s),
        ratio(t.ns(Cat::NandProgram), c.programs as f64),
        ratio(t.ns(Cat::NandRead), c.reads as f64),
        ratio(t.ns(Cat::NandErase), c.erases as f64),
        ratio(c.cell_s, c.latency_s),
        layers.hv_ns,
        layers.gf2_ns.0,
        layers.gf2_ns.1,
        (top_ns / untraced.timed.at_reference_ns() - 1.0) * 100.0,
        untraced.timed.noise_ratio(),
        s.digest as f64,
    ];
    Ok(manifest::PER_LAYER
        .iter()
        .map(|m| m.name)
        .zip(values)
        .collect())
}

fn out_dir() -> PathBuf {
    let manifest_dir =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    PathBuf::from(manifest_dir).join("out")
}

/// Writes the span log under `benchmark/out/`.
pub fn write_spans(bench: &Bench, tracer: &Tracer) -> Res<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{}.json", bench.name, bench.seed));
    std::fs::write(&path, tracer.to_json(bench.name, bench.seed))?;
    Ok(path)
}

fn unit_of(name: &str) -> &'static str {
    manifest::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(manifest::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Prints the metrics by name with their units, `# key value` notes, and
/// the result object as the last line.
///
/// # Errors
///
/// A metric JSON cannot carry (not finite): nothing is printed.
pub fn print(bench: &Bench, args: &Args, m: &Measured, s: &Summary, metrics: &Metrics) -> Res<()> {
    if let Some((name, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is {v}").into());
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {} seed {} trace {}{}",
        bench.name,
        bench.seed,
        u8::from(args.trace),
        if bench.quick {
            " QUICK (not for numbers)"
        } else {
            ""
        }
    );
    for (name, value) in metrics {
        let _ = writeln!(text, "  {name:<42} {value:>16.6} {}", unit_of(name));
    }
    let _ = writeln!(text, "# repetitions {}", m.timed.reps());
    let _ = writeln!(
        text,
        "# segments {} timed, {} set-up",
        m.timed.segments(),
        m.setup.segments()
    );
    let totals: Vec<String> = m
        .timed
        .totals_ns()
        .iter()
        .map(|ns| format!("{:.1}", *ns as f64 * 1e-6))
        .collect();
    let _ = writeln!(text, "# repetition_ms {}", totals.join(" "));
    let _ = writeln!(text, "# host_pages {}", s.host_pages);
    let _ = writeln!(text, "# flow_samples {}", s.flow_samples);
    let _ = writeln!(
        text,
        "# bench.timer_noise_ratio {:.4}",
        m.timed.noise_ratio()
    );
    let _ = writeln!(
        text,
        "# fastest_moments_kpages_per_s {:.4}",
        s.host_pages as f64 / 1e3 / (m.timed.min_sum_ns() as f64 * 1e-9)
    );
    let _ = writeln!(
        text,
        "# reference_loop_median_ns {}",
        m.timed.reference_median_ns()
    );
    let _ = writeln!(text, "# bench.completion_digest {}", s.digest);
    let _ = writeln!(
        text,
        "# allocs_per_cmd {:.4}",
        ratio(m.allocs as f64, s.cmds as f64)
    );
    let _ = writeln!(
        text,
        "# alloc_bytes_per_cmd {:.4}",
        ratio(m.alloc_bytes as f64, s.cmds as f64)
    );
    let _ = write!(
        text,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        s.failed == 0,
        s.attempted,
        s.failed
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            text,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    text.push_str("}}");
    println!("{text}");
    Ok(())
}

/// A child's output: its `# key value` notes and its result object.
struct ChildOut {
    text: String,
    notes: Vec<(String, String)>,
    metrics: Vec<(String, f64)>,
    failed: u64,
}

/// Runs one workload in a fresh process of this executable.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Res<ChildOut> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
    let text = String::from_utf8(out.stdout)?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status).into());
    }
    let notes = text
        .lines()
        .filter_map(|l| l.strip_prefix("# "))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let last = text.lines().last().ok_or("child printed nothing")?;
    let (head, body) = last
        .split_once("\"metrics\": {")
        .ok_or("child's last line is not a result object")?;
    let failed = head
        .split_once("\"failed\": ")
        .and_then(|(_, rest)| rest.trim_end_matches([',', ' ']).parse().ok())
        .ok_or("result object has no failed count")?;
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let (name, rest) = entry
            .split_once("\": {\"value\": ")
            .ok_or("malformed metric")?;
        let name = name.rsplit('"').next().ok_or("malformed metric name")?;
        let value = rest.split(',').next().ok_or("malformed metric value")?;
        metrics.push((name.to_string(), value.parse()?));
    }
    Ok(ChildOut {
        text,
        notes,
        metrics,
        failed,
    })
}

/// Runs every workload, each in a fresh process, passing its output on.
pub fn run_all(seed: u64, seconds: f64, trace: bool, quick: bool) -> Res<()> {
    for w in &manifest::WORKLOADS {
        print!("{}", run_child(w.name, seed, seconds, trace, quick)?.text);
    }
    Ok(())
}

/// Runs each workload twice in fresh processes and fails if an end-to-end
/// metric of the second run is worse than the first's by more than its
/// bound (or better by more than it: the code did not change).
pub fn self_check(only: &Option<String>, seed: u64, seconds: f64, quick: bool) -> Res<()> {
    let mut bad = Vec::new();
    for w in manifest::WORKLOADS
        .iter()
        .filter(|w| only.as_deref().is_none_or(|o| o == w.name))
    {
        let a = run_child(w.name, seed, seconds, false, quick)?;
        let b = run_child(w.name, seed, seconds, false, quick)?;
        let note = |c: &ChildOut, key: &str| {
            c.notes
                .iter()
                .find(|(k, _)| k == key)
                .map_or(String::new(), |(_, v)| v.clone())
        };
        println!(
            "{}: timer_noise_ratio {} / {}, repetitions {} / {}",
            w.name,
            note(&a, "bench.timer_noise_ratio"),
            note(&b, "bench.timer_noise_ratio"),
            note(&a, "repetitions"),
            note(&b, "repetitions"),
        );
        for key in [
            "bench.completion_digest",
            "allocs_per_cmd",
            "alloc_bytes_per_cmd",
        ] {
            if note(&a, key) != note(&b, key) {
                bad.push(format!(
                    "{} {key}: {} vs {}",
                    w.name,
                    note(&a, key),
                    note(&b, key)
                ));
            }
        }
        if a.failed + b.failed > 0 {
            bad.push(format!(
                "{}: {} + {} failed operations",
                w.name, a.failed, b.failed
            ));
        }
        for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
            let m = manifest::end_to_end(name).ok_or("child reported an unknown metric")?;
            let exact = name.starts_with("sim_") || name == "write_amp";
            let diff = (x - y).abs() / x.abs();
            let ok = if exact { x == y } else { diff <= m.bound };
            println!(
                "  {name:<22} {x:>14.6} {y:>14.6} {:>8.3} % (bound {} %){}",
                diff * 100.0,
                if exact { 0.0 } else { m.bound * 100.0 },
                if ok { "" } else { "  <-- FAIL" }
            );
            if !ok {
                bad.push(format!("{} {name}: {x} vs {y}", w.name));
            }
        }
    }
    if bad.is_empty() {
        println!("self-check passed");
        Ok(())
    } else {
        Err(format!("self-check failed:\n  {}", bad.join("\n  ")).into())
    }
}
