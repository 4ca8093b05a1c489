//! The engine-driven harness: builds a `StorageEngine` through the public
//! facade, pushes a pre-planned sequence of segments through its
//! submission/completion queues, and accounts every completion.
//!
//! `fresh_mixed`, `eol_read` and `tenant_qos` are [`Plan`]s; see
//! `workloads.rs` for what each plans and why.

use std::ops::Range;

use mlcx::{
    Command, CommandOutput, Completion, ControllerConfig, DeviceGeometry, EngineBuilder, Objective,
    ProgramAlgorithm, QosSpec, SchedPolicy, ServiceHandle, StorageEngine,
};

use crate::inputs::payload;
use crate::probe::Probe;
use crate::stats::Fnv;
use crate::Res;

/// One physical page operation a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Erase { block: usize },
    Write { block: usize, page: usize },
    Read { block: usize, page: usize },
}

/// An operation, the service it runs under and (open loop) when it is due.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub svc: usize,
    pub op: Op,
    /// Due time on the virtual clock, seconds (open-loop plans only).
    pub due_s: f64,
}

#[derive(Debug, Clone)]
pub struct ServiceDef {
    pub name: String,
    pub objective: Objective,
    pub blocks: Range<usize>,
    pub qos: QosSpec,
}

/// A workload as data: the device, its services and the segments.
#[derive(Debug, Clone)]
pub struct Plan {
    pub geometry: DeviceGeometry,
    /// P/E cycles every block is aged by before the first command.
    pub age_cycles: u64,
    pub sched: SchedPolicy,
    pub services: Vec<ServiceDef>,
    /// Set-up batches (prefill); each is one closed submit + drain.
    pub setup: Vec<Vec<Planned>>,
    /// The timed segments.
    pub timed: Vec<Vec<Planned>>,
    /// Closed: a segment is one `submit_owned` + one `drain`. Open: each
    /// command is `submit_at(due_s)`, then one `drain` per segment.
    pub open_loop: bool,
}

impl Plan {
    pub fn config(&self) -> Res<ControllerConfig> {
        Ok(ControllerConfig::builder()
            .geometry(self.geometry)
            .build()?)
    }
}

/// An executed operation with the operating point the engine chose for
/// it: the input the layer replays run on.
#[derive(Debug, Clone, Copy)]
pub enum Captured {
    Erase {
        block: usize,
    },
    Write {
        block: usize,
        page: usize,
        version: u32,
        t: u32,
        algorithm: ProgramAlgorithm,
    },
    Read {
        block: usize,
        page: usize,
    },
}

/// Exact accounting of one repetition's timed segments.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Acc {
    pub cmds: u64,
    pub host_reads: u64,
    pub host_writes: u64,
    pub payload_bytes: u64,
    pub parallel_s: f64,
    pub device_s: f64,
    pub channel_busy_s: f64,
    pub channels: usize,
    pub energy_j: f64,
    /// Per-command flow time, seconds, in completion order.
    pub flows: Vec<f64>,
    pub queue_wait_s: f64,
    pub flow_total_s: f64,
    pub lateness_max_s: f64,
    pub deadline_misses: u64,
    pub op_hits: u64,
    pub op_misses: u64,
    pub knob_writes: u64,
    pub corrected_bits: u64,
    /// Worst (largest) modeled log10 UBER across the services.
    pub worst_log10_uber: f64,
}

/// What one repetition produced besides its times.
#[derive(Debug)]
pub struct RepOut {
    pub digest: Fnv,
    pub attempted: u64,
    pub failed: u64,
    pub acc: Acc,
    /// Set-up then timed segments, when capture was requested.
    pub captured: Option<Vec<Vec<Captured>>>,
}

struct Runner<'a> {
    plan: &'a Plan,
    seed: u64,
    engine: StorageEngine,
    handles: Vec<ServiceHandle>,
    /// Write count of every physical page (payload version).
    versions: Vec<u32>,
    /// Virtual time the timed segments start at: open-loop due times are
    /// relative to it (set-up traffic has already advanced the clock).
    origin_s: f64,
    out: RepOut,
}

impl Runner<'_> {
    fn slot(&self, block: usize, page: usize) -> usize {
        block * self.plan.geometry.pages_per_block + page
    }

    /// Builds the command of a planned operation, with the payload
    /// version of the page it touches (bumped first by a write).
    fn command(&mut self, p: &Planned) -> (Command, u32) {
        let h = self.handles[p.svc];
        match p.op {
            Op::Erase { block } => (Command::erase(h, block), 0),
            Op::Read { block, page } => (
                Command::read(h, block, page),
                self.versions[self.slot(block, page)],
            ),
            Op::Write { block, page } => {
                let slot = self.slot(block, page);
                self.versions[slot] += 1;
                let version = self.versions[slot];
                let data = payload(
                    self.plan.geometry.page_bytes,
                    self.seed,
                    block,
                    page,
                    version,
                );
                (Command::write(h, block, page, data), version)
            }
        }
    }

    /// Runs one segment: commands are built before the timer starts and
    /// completions are examined after it stops.
    fn segment(&mut self, probe: &mut Probe, seg: &[Planned], timed: bool) -> Res<()> {
        let first_id;
        let completions: Vec<Completion>;
        let (cmds, versions): (Vec<Command>, Vec<u32>) =
            seg.iter().map(|p| self.command(p)).unzip();
        if self.plan.open_loop && timed {
            let singles: Vec<(Vec<Command>, f64)> = cmds
                .into_iter()
                .zip(seg)
                .map(|(cmd, p)| (vec![cmd], self.origin_s + p.due_s))
                .collect();
            let engine = &mut self.engine;
            let (first, err, done) = probe.timed("core.engine.submit_drain", |c| {
                let (mut first, mut err) = (None, None);
                for (cmd, due_s) in singles {
                    match c.call("core.engine.submit_at", || {
                        engine.sq().submit_at(cmd, due_s)
                    }) {
                        Ok(ids) => first = first.or(ids.first().copied()),
                        Err(e) => err = Some(e),
                    }
                }
                (
                    first,
                    err,
                    c.call("core.engine.drain", || engine.cq().drain()),
                )
            });
            if let Some(e) = err {
                return Err(e.into());
            }
            first_id = first.ok_or("empty segment")?.raw();
            completions = done;
        } else {
            let engine = &mut self.engine;
            let body = |c: &mut crate::probe::Calls| {
                let ids = c.call("core.engine.submit", || engine.sq().submit_owned(cmds));
                (ids, c.call("core.engine.drain", || engine.cq().drain()))
            };
            let (ids, done) = if timed {
                probe.timed("core.engine.submit_drain", body)
            } else {
                probe.setup("core.engine.prefill", body)
            };
            first_id = ids?.first().ok_or("empty segment")?.raw();
            completions = done;
        }
        self.account(seg, &versions, first_id, &completions, timed)
    }

    fn account(
        &mut self,
        seg: &[Planned],
        versions: &[u32],
        first_id: u64,
        completions: &[Completion],
        timed: bool,
    ) -> Res<()> {
        if completions.len() != seg.len() {
            return Err(format!(
                "{} completions for {} commands",
                completions.len(),
                seg.len()
            )
            .into());
        }
        let page_bytes = self.plan.geometry.page_bytes;
        // In completion order: per die that is dispatch order, which is
        // what a replay must follow to draw the same error stream.
        let mut captured = Vec::with_capacity(seg.len());
        for c in completions {
            let idx = (c.id.raw() - first_id) as usize;
            let p = seg.get(idx).ok_or("completion id outside its segment")?;
            self.out.attempted += 1;
            let d = &mut self.out.digest;
            d.write_u64(c.id.raw());
            d.write_u64(u64::from(c.service.index()));
            d.write_u64(u64::from(c.result.is_ok()));
            d.write_f64(c.arrival_s);
            d.write_f64(c.start_s);
            d.write_f64(c.end_s);

            let acc = &mut self.out.acc;
            let mut ok = true;
            match (&c.result, p.op) {
                (Ok(CommandOutput::Read(r)), Op::Read { block, page }) => {
                    ok = r.outcome.is_success()
                        && r.data == payload(page_bytes, self.seed, block, page, versions[idx]);
                    captured.push(Captured::Read { block, page });
                    if timed {
                        acc.host_reads += 1;
                        acc.payload_bytes += r.data.len() as u64;
                        acc.corrected_bits += r.outcome.corrected_bits() as u64;
                    }
                }
                (Ok(CommandOutput::Write(w)), Op::Write { block, page }) => {
                    captured.push(Captured::Write {
                        block,
                        page,
                        version: versions[idx],
                        t: w.t_used,
                        algorithm: w.algorithm,
                    });
                    if timed {
                        acc.host_writes += 1;
                        acc.payload_bytes += page_bytes as u64;
                    }
                }
                (Ok(CommandOutput::Erase { .. }), Op::Erase { block }) => {
                    captured.push(Captured::Erase { block });
                }
                _ => ok = false,
            }
            self.out.failed += u64::from(!ok);
            if timed {
                // Open loop: flow runs from when the command was *due*;
                // `Completion::flow_s` runs from an arrival clamped to now.
                let from_s = if self.plan.open_loop {
                    self.origin_s + p.due_s
                } else {
                    c.arrival_s
                };
                acc.flows.push(c.end_s - from_s);
                acc.flow_total_s += c.end_s - from_s;
                acc.queue_wait_s += c.start_s - from_s;
                acc.lateness_max_s = acc.lateness_max_s.max(c.arrival_s - from_s);
            }
        }
        if timed {
            let b = *self.engine.last_batch();
            let acc = &mut self.out.acc;
            acc.cmds += b.commands as u64;
            acc.parallel_s += b.parallel_latency_s;
            acc.device_s += b.device_latency_s;
            acc.channel_busy_s += b.channel_busy_s;
            acc.channels = b.channels;
            acc.energy_j += b.energy_j;
            acc.deadline_misses += b.deadline_misses;
            acc.op_hits += b.op_cache_hits;
            acc.op_misses += b.op_cache_misses;
            acc.knob_writes += b.knob_writes;
        }
        if let Some(all) = self.out.captured.as_mut() {
            all.push(captured);
        }
        Ok(())
    }

    /// The worst service's modeled log10(UBER) at its operating point and
    /// the wear its region reached.
    fn worst_log10_uber(&self) -> Res<f64> {
        let model = self.engine.model();
        let device = self.engine.controller().device();
        let mut worst = f64::NEG_INFINITY;
        for s in &self.plan.services {
            let mut wear = 1;
            for b in s.blocks.clone() {
                wear = wear.max(device.block_cycles(b)?);
            }
            let op = model.configure(s.objective, wear);
            worst = worst.max(model.metrics(&op, wear).log10_uber);
        }
        Ok(worst)
    }
}

/// Runs one repetition of `plan` from a freshly built engine.
///
/// # Errors
///
/// Construction and submission errors; failed *operations* are counted in
/// [`RepOut::failed`] instead.
pub fn run_rep(plan: &Plan, seed: u64, probe: &mut Probe, capture: bool) -> Res<RepOut> {
    let config = plan.config()?;
    let (engine, handles) = probe.setup("core.engine.build", |c| -> Res<_> {
        let mut engine = c.call("core.engine.build", || {
            EngineBuilder::date2012()
                .controller_config(config)
                .sched_policy(plan.sched)
                .seed(crate::inputs::derive(seed, 0xE6))
                .build()
        })?;
        let mut handles = Vec::with_capacity(plan.services.len());
        for s in &plan.services {
            handles.push(c.call("core.engine.register_service", || {
                engine.register_service_with_qos(&s.name, s.objective, s.blocks.clone(), s.qos)
            })?);
        }
        if plan.age_cycles > 0 {
            c.call("controller.age_all", || {
                engine.controller_mut().age_all(plan.age_cycles)
            });
        }
        Ok((engine, handles))
    })?;
    let mut runner = Runner {
        plan,
        seed,
        engine,
        handles,
        versions: vec![0; plan.geometry.total_pages()],
        origin_s: 0.0,
        out: RepOut {
            digest: Fnv::default(),
            attempted: 0,
            failed: 0,
            acc: Acc::default(),
            captured: capture.then(Vec::new),
        },
    };
    for seg in &plan.setup {
        runner.segment(probe, seg, false)?;
    }
    runner.origin_s = runner.engine.now_s();
    for seg in &plan.timed {
        runner.segment(probe, seg, true)?;
    }
    runner.out.acc.worst_log10_uber = runner.worst_log10_uber()?;
    let acc = &runner.out.acc;
    let d = &mut runner.out.digest;
    for x in [acc.parallel_s, acc.device_s, acc.energy_j, acc.flow_total_s] {
        d.write_f64(x);
    }
    for x in [acc.cmds, acc.corrected_bits, acc.knob_writes, acc.op_misses] {
        d.write_u64(x);
    }
    Ok(runner.out)
}
