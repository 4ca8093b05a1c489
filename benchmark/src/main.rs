//! The repo benchmark. See `README.md` for the metric tables, the
//! estimator and how to run it.
//!
//! ```text
//! mlcx-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints the metrics by name with their units and, as the last line of
//! standard output, one JSON object `{correct, attempted, failed, metrics}`.
//! Without `--workload` every workload runs, each in a fresh process.

mod alloc;
mod engine_run;
mod estimator;
mod inputs;
mod manifest;
mod probe;
mod replay;
mod report;
mod sim_run;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use std::time::{Duration, Instant};

use engine_run::{Plan, RepOut};
use estimator::SegTimes;
use probe::{Probe, Tracer};
use report::Summary;
use sim_run::SimRepOut;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage: mlcx-benchmark [--workload fresh_mixed|eol_read|ftl_churn|tenant_qos] \
[--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--self-check] [--print-manifest]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    self_check: bool,
    print_manifest: bool,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 4096,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        self_check: false,
        print_manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--self-check" => args.self_check = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}").into()),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if let Some(w) = &args.workload {
        if !manifest::WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload {w}\n{USAGE}").into());
        }
    }
    Ok(args)
}

/// One repetition's result, whichever harness produced it.
enum Rep {
    Engine(Box<RepOut>),
    Sim(Box<SimRepOut>),
}

impl Rep {
    fn digest(&self) -> u64 {
        match self {
            Rep::Engine(r) => r.digest.low52(),
            Rep::Sim(r) => r.digest.low52(),
        }
    }
}

/// The workload a process measures, with its inputs generated.
enum Work {
    Engine(Plan),
    Sim,
}

struct Bench {
    name: &'static str,
    work: Work,
    seed: u64,
    quick: bool,
}

impl Bench {
    fn new(name: &str, seed: u64, quick: bool) -> Res<Self> {
        let name = manifest::WORKLOADS
            .iter()
            .map(|w| w.name)
            .find(|n| *n == name)
            .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
        let work = match name {
            "fresh_mixed" => Work::Engine(workloads::fresh_mixed(seed, quick)),
            "eol_read" => Work::Engine(workloads::eol_read(seed, quick)),
            "tenant_qos" => Work::Engine(workloads::tenant_qos(
                seed,
                quick,
                workloads::TENANT_QOS_LOAD_PCT,
            )),
            _ => Work::Sim,
        };
        Ok(Bench {
            name,
            work,
            seed,
            quick,
        })
    }

    /// Fewest repetitions the estimator accepts (more run while the time
    /// budget lasts).
    fn min_reps(&self) -> usize {
        match (self.quick, &self.work) {
            (true, _) => 2,
            (false, Work::Engine(_)) => 9,
            (false, Work::Sim) => 20,
        }
    }

    fn rep(&self, probe: &mut Probe, capture: bool) -> Res<Rep> {
        Ok(match &self.work {
            Work::Engine(plan) => Rep::Engine(Box::new(engine_run::run_rep(
                plan, self.seed, probe, capture,
            )?)),
            Work::Sim => Rep::Sim(Box::new(sim_run::run_rep(self.seed, self.quick, probe)?)),
        })
    }
}

/// Repetitions of one workload folded into the estimators.
struct Measured {
    setup: SegTimes,
    timed: SegTimes,
    /// Allocations / bytes inside the timed segments of one repetition
    /// (identical in all of them).
    allocs: u64,
    alloc_bytes: u64,
    first: Rep,
    tracer: Option<Tracer>,
}

/// Folds repetitions of one workload, each from a freshly built state,
/// into the estimators.
struct Measurer<'a> {
    bench: &'a Bench,
    /// Record spans, and capture the first repetition's inputs for the
    /// layer replays.
    traced: bool,
    measured: Option<Measured>,
}

impl<'a> Measurer<'a> {
    fn new(bench: &'a Bench, traced: bool) -> Self {
        Measurer {
            bench,
            traced,
            measured: None,
        }
    }

    /// Runs one repetition.
    ///
    /// # Errors
    ///
    /// Workload errors, or a repetition whose completion digest or
    /// allocation count differs from the first: the work was not
    /// identical, so per-segment quartiles would not be comparable.
    fn step(&mut self) -> Res<&mut Measured> {
        let mut probe = if self.traced {
            Probe::traced()
        } else {
            Probe::default()
        };
        let first = self.measured.is_none();
        let rep = self.bench.rep(&mut probe, self.traced && first)?;
        let m = match self.measured.take() {
            None => Measured {
                setup: SegTimes::default(),
                timed: SegTimes::default(),
                allocs: probe.allocs,
                alloc_bytes: probe.alloc_bytes,
                first: rep,
                tracer: probe.tracer.take(),
            },
            Some(m) => {
                if rep.digest() != m.first.digest() {
                    return Err(format!(
                        "repetition {} has completion digest {}, the first {}",
                        m.timed.reps(),
                        rep.digest(),
                        m.first.digest()
                    )
                    .into());
                }
                if (probe.allocs, probe.alloc_bytes) != (m.allocs, m.alloc_bytes) {
                    return Err(format!(
                        "repetition {} made {} allocations ({} B) in its timed segments, the first {} ({} B)",
                        m.timed.reps(),
                        probe.allocs,
                        probe.alloc_bytes,
                        m.allocs,
                        m.alloc_bytes
                    )
                    .into());
                }
                m
            }
        };
        let m = self.measured.insert(m);
        m.setup.absorb(&probe.setup)?;
        m.timed.absorb(&probe.timed)?;
        Ok(m)
    }

    fn finish(self) -> Res<Measured> {
        self.measured.ok_or_else(|| "no repetition ran".into())
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv).and_then(run) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("mlcx-benchmark: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run(args: Args) -> Res<()> {
    if args.print_manifest {
        print!("{}", manifest::render());
        return Ok(());
    }
    if args.self_check {
        return report::self_check(&args.workload, args.seed, args.seconds, args.quick);
    }
    match &args.workload {
        None => report::run_all(args.seed, args.seconds, args.trace, args.quick),
        Some(w) => run_one(w, &args),
    }
}

fn run_one(workload: &str, args: &Args) -> Res<()> {
    let bench = Bench::new(workload, args.seed, args.quick)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    if !args.trace {
        let mut plain = Measurer::new(&bench, false);
        while plain.step()?.timed.reps() < bench.min_reps() || started.elapsed() < budget {}
        let m = plain.finish()?;
        let summary = Summary::of(&m.first, &bench);
        let metrics = report::end_to_end(&m, &summary)?;
        return report::print(&bench, args, &m, &summary, &metrics);
    }
    // Traced run. Each cycle is one untraced repetition (the reference),
    // one traced repetition (the top spans; the first also captures the
    // inputs) and one repetition of every layer replay, so that numbers
    // subtracted from one another were measured over the same stretch of
    // time on a box whose speed drifts.
    let mut plain = Measurer::new(&bench, false);
    let mut traced = Measurer::new(&bench, true);
    let mut session = None;
    let mut tracer = Tracer::default();
    let mut cycles = 0;
    let mut cycle = Duration::ZERO;
    // At least two cycles; more while another one still fits the budget.
    while cycles < 2 || started.elapsed() + cycle < budget {
        let cycle_started = Instant::now();
        plain.step()?;
        let t = traced.step()?;
        if session.is_none() {
            tracer = t.tracer.take().unwrap_or_default();
            session = Some(report::ReplaySession::new(&bench, &mut t.first)?);
        }
        let session = session.as_mut().ok_or("no replay session")?;
        session.step((cycles == 0).then_some(&mut tracer))?;
        cycles += 1;
        cycle = cycle_started.elapsed();
    }
    let (plain, traced) = (plain.finish()?, traced.finish()?);
    if traced.first.digest() != plain.first.digest() {
        return Err("the traced run's completion digest differs from the untraced run's".into());
    }
    let summary = Summary::of(&plain.first, &bench);
    let layers = session.ok_or("no replay session")?.finish(&bench)?;
    let metrics = report::per_layer(&bench, &plain, &traced, &summary, &layers)?;
    let path = report::write_spans(&bench, &tracer)?;
    eprintln!("spans: {} in {}", tracer.spans.len(), path.display());
    report::print(&bench, args, &plain, &summary, &metrics)
}
