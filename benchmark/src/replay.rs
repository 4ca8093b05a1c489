//! Outside-in layer attribution: the inputs a workload produced are
//! replayed on each layer's public functions alone, and a layer's self
//! time is its replay minus its children's.
//!
//! * `controller`: the same erase/write/read sequence with the captured
//!   `(t_used, algorithm)` on a bare `MemoryController`;
//! * `nand`: the same sequence on a bare `NandDevice`, keeping the raw
//!   data + spare each read returns;
//! * `bch`: `BchCode::encode` on each written payload and
//!   `BchCode::decode` on each raw read, then the three decode stages
//!   (syndromes, Berlekamp-Massey, Chien) on the same raw reads that were
//!   dirty;
//! * `controller.ftl` / `core.sim`: `LogicalMap::plan_write` and
//!   `TraceGenerator::next_op` alone on the workload's LPN stream;
//! * `hv`, `gf2`: calibration loops.
//!
//! Devices are seeded like the engine's, and error injection draws from a
//! per-die stream on reads only, so a replay sees the engine run's errors
//! bit for bit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mlcx::bch::syndrome::SyndromeCalculator;
use mlcx::bch::{berlekamp, chien};
use mlcx::gf2::GfField;
use mlcx::hv::{HvSubsystem, Phase, PhaseKind, Sequencer};
use mlcx::nand::device::CodeStore;
use mlcx::nand::ispp::program_profile;
use mlcx::nand::{IsppConfig, NandTiming};
use mlcx::{
    AdaptiveBch, AgingModel, ControllerConfig, DecodeOutcome, LogicalMap, MemoryController,
    MulKernel, NandDevice, ProgramAlgorithm, SubsystemModel, TraceGenerator,
};

use crate::engine_run::Captured;
use crate::estimator::{reference_loop_ns, Sample, SegTimes};
use crate::inputs::{payload, Rng};
use crate::probe::{Tracer, NO_PARENT};
use crate::sim_run;
use crate::Res;

/// What the replays run on.
pub struct ReplayInput {
    pub config: ControllerConfig,
    /// The engine's device seed.
    pub device_seed: u64,
    pub age_cycles: u64,
    /// The benchmark seed payloads derive from.
    pub payload_seed: u64,
    /// Set-up segments, then timed segments.
    pub segments: Vec<Vec<Captured>>,
    /// Index of the first timed segment.
    pub first_timed: usize,
}

/// Replay functions that get their own per-segment estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    ControllerOp,
    NandProgram,
    NandRead,
    NandErase,
    BchEncode,
    BchDecodeClean,
    BchDecodeDirty,
    BchSyndrome,
    BchBerlekamp,
    BchChien,
}

const CATS: usize = 10;

impl Cat {
    fn span(self) -> &'static str {
        match self {
            Cat::ControllerOp => "controller.page_op",
            Cat::NandProgram => "nand.program_page",
            Cat::NandRead => "nand.read_page",
            Cat::NandErase => "nand.erase_block",
            Cat::BchEncode => "bch.encode",
            Cat::BchDecodeClean => "bch.decode_clean",
            Cat::BchDecodeDirty => "bch.decode_dirty",
            Cat::BchSyndrome => "bch.syndrome",
            Cat::BchBerlekamp => "bch.berlekamp",
            Cat::BchChien => "bch.chien",
        }
    }
}

/// Exact counts of one replay repetition's timed segments, plus the
/// modeled-time split the controller's reports give.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReplayCounts {
    pub programs: u64,
    pub reads: u64,
    pub erases: u64,
    pub clean_reads: u64,
    pub dirty_reads: u64,
    pub uncorrectable: u64,
    pub corrected_bits: u64,
    pub t_sum: u64,
    pub bus_s: f64,
    pub ecc_s: f64,
    pub cell_s: f64,
    pub latency_s: f64,
}

/// Per-layer estimators over the timed segments.
#[derive(Debug, Default)]
pub struct LayerTimes {
    est: [SegTimes; CATS],
    pub counts: ReplayCounts,
}

impl LayerTimes {
    /// Estimated nanoseconds (at base clock) of one replay function over
    /// the workload.
    pub fn ns(&self, cat: Cat) -> f64 {
        self.est[cat as usize].at_reference_ns()
    }
}

/// Per-segment nanoseconds of every category for one repetition, and the
/// span log of that repetition when one is wanted.
struct Laps<'a> {
    ns: Vec<[u64; CATS]>,
    /// Reference-loop time around each timed segment.
    ref_ns: Vec<u64>,
    seg: usize,
    timed: bool,
    tracer: Option<&'a mut Tracer>,
    root: u32,
}

impl Laps<'_> {
    fn enter(&mut self, seg: usize, timed: bool, root_span: &'static str) {
        self.seg = seg;
        self.timed = timed;
        if timed {
            self.ns.push([0; CATS]);
            self.ref_ns.push(reference_loop_ns());
            if let Some(tr) = self.tracer.as_deref_mut() {
                self.root = tr.open(root_span, seg as u32, NO_PARENT);
            }
        }
    }

    fn leave(&mut self) {
        if !self.timed {
            return;
        }
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.close(self.root);
        }
        if let Some(before) = self.ref_ns.last_mut() {
            *before = (*before + reference_loop_ns()) / 2;
        }
    }

    /// One call into a layer, timed on its own.
    #[inline]
    fn lap<T>(&mut self, cat: Cat, f: impl FnOnce() -> T) -> T {
        self.lap_by(f, |_| cat)
    }

    /// [`Laps::lap`] where the result decides which estimator the call
    /// belongs to (a decode is clean or dirty only once it has run).
    #[inline]
    fn lap_by<T>(&mut self, f: impl FnOnce() -> T, pick: impl FnOnce(&T) -> Cat) -> T {
        if !self.timed {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let cat = pick(&out);
        if let Some(row) = self.ns.last_mut() {
            row[cat as usize] += ns;
        }
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record(cat.span(), self.seg as u32, self.root, t0, ns);
        }
        out
    }

    fn absorb_into(self, times: &mut LayerTimes, cats: &[Cat]) -> Res<()> {
        for &cat in cats {
            let column: Vec<Sample> = self
                .ns
                .iter()
                .zip(&self.ref_ns)
                .map(|(row, &ref_ns)| Sample {
                    ns: row[cat as usize],
                    ref_ns,
                })
                .collect();
            times.est[cat as usize].absorb(&column)?;
        }
        Ok(())
    }
}

fn page_payload(input: &ReplayInput, block: usize, page: usize, version: u32) -> Vec<u8> {
    payload(
        input.config.geometry.page_bytes,
        input.payload_seed,
        block,
        page,
        version,
    )
}

/// What one replayed controller call returned.
enum OpOut {
    Erase(mlcx::nand::OpReport),
    Write(mlcx::WriteReport),
    Read(mlcx::ReadReport),
}

/// One repetition of the controller replay.
fn controller_rep(
    input: &ReplayInput,
    times: &mut LayerTimes,
    tracer: Option<&mut Tracer>,
) -> Res<()> {
    let mut ctrl = MemoryController::new(input.config.clone(), input.device_seed)?;
    if input.age_cycles > 0 {
        ctrl.age_all(input.age_cycles);
    }
    let mut laps = Laps {
        ns: Vec::new(),
        ref_ns: Vec::new(),
        seg: 0,
        timed: false,
        tracer,
        root: NO_PARENT,
    };
    let mut counts = ReplayCounts::default();
    for (i, seg) in input.segments.iter().enumerate() {
        let timed = i >= input.first_timed;
        laps.enter(i, timed, "controller.replay");
        // Like the engine run: every payload exists before the timer
        // starts, and the whole segment is one timed stretch.
        let payloads: Vec<Vec<u8>> = seg
            .iter()
            .map(|op| match *op {
                Captured::Write {
                    block,
                    page,
                    version,
                    ..
                } => page_payload(input, block, page, version),
                _ => Vec::new(),
            })
            .collect();
        let reports = laps.lap(Cat::ControllerOp, || -> Res<Vec<OpOut>> {
            let mut reports = Vec::with_capacity(seg.len());
            for (op, data) in seg.iter().zip(&payloads) {
                reports.push(match *op {
                    Captured::Erase { block } => OpOut::Erase(ctrl.erase_block(block)?),
                    Captured::Write {
                        block,
                        page,
                        t,
                        algorithm,
                        ..
                    } => {
                        ctrl.apply_point(algorithm, t)?;
                        OpOut::Write(ctrl.write_page(block, page, data)?)
                    }
                    Captured::Read { block, page } => OpOut::Read(ctrl.read_page(block, page)?),
                });
            }
            Ok(reports)
        })?;
        laps.leave();
        if !timed {
            continue;
        }
        for report in reports {
            match report {
                OpOut::Erase(r) => {
                    counts.erases += 1;
                    counts.cell_s += r.duration_s;
                    counts.latency_s += r.duration_s;
                }
                OpOut::Write(w) => {
                    counts.programs += 1;
                    counts.t_sum += u64::from(w.t_used);
                    counts.bus_s += w.load_s + w.transfer_s;
                    counts.ecc_s += w.encode_s;
                    counts.cell_s += w.program_s;
                    counts.latency_s += w.latency_s;
                }
                OpOut::Read(r) => {
                    counts.reads += 1;
                    counts.t_sum += u64::from(r.t_used);
                    counts.corrected_bits += r.outcome.corrected_bits() as u64;
                    match r.outcome {
                        DecodeOutcome::Clean => counts.clean_reads += 1,
                        DecodeOutcome::Uncorrectable => counts.uncorrectable += 1,
                        DecodeOutcome::Corrected { .. } => counts.dirty_reads += 1,
                    }
                    counts.bus_s += r.transfer_s;
                    counts.ecc_s += r.decode_s;
                    counts.cell_s += r.sense_s;
                    counts.latency_s += r.latency_s;
                }
            }
        }
    }
    times.counts = counts;
    laps.absorb_into(times, &[Cat::ControllerOp])
}

/// One repetition of the nand replay, with the bch replays run on each
/// segment's raw reads before they are dropped.
fn nand_bch_rep(
    input: &ReplayInput,
    times: &mut LayerTimes,
    tracer: Option<&mut Tracer>,
) -> Res<()> {
    let geometry = input.config.geometry;
    let mut dev = NandDevice::with_config(
        geometry,
        NandTiming::date2012(),
        IsppConfig::date2012(),
        AgingModel::date2012(),
        HvSubsystem::date2012(),
        CodeStore::dual_rom(),
        input.device_seed,
    );
    if input.age_cycles > 0 {
        dev.age_all(input.age_cycles);
    }
    let mut codec = AdaptiveBch::new_with_kernel(
        input.config.ecc_m,
        geometry.page_bytes * 8,
        input.config.ecc_tmin,
        input.config.ecc_tmax,
        input.config.ecc_kernel,
    )?;
    let field: Arc<GfField> = codec.field().clone();
    let mut syndromes: BTreeMap<u32, SyndromeCalculator> = BTreeMap::new();
    // The capability each page was written at (what the controller keeps
    // in its page metadata table).
    let mut page_t: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    let mut laps = Laps {
        ns: Vec::new(),
        ref_ns: Vec::new(),
        seg: 0,
        timed: false,
        tracer,
        root: NO_PARENT,
    };
    for (i, seg) in input.segments.iter().enumerate() {
        laps.enter(i, i >= input.first_timed, "nand_bch.replay");
        // Each layer alone: encode every payload the segment writes, then
        // the device operations in order, then decode every raw read.
        let mut writes = Vec::new();
        for op in seg {
            if let Captured::Write {
                block,
                page,
                version,
                t,
                ..
            } = *op
            {
                let data = page_payload(input, block, page, version);
                writes.push((data, codec.code_for(t)?));
            }
        }
        let mut encoded = Vec::with_capacity(writes.len());
        for (data, code) in writes {
            let parity = laps.lap(Cat::BchEncode, || code.encode(&data))?;
            encoded.push((data, parity));
        }
        let mut encoded = encoded.into_iter();
        let mut raw_reads = Vec::new();
        for op in seg {
            match *op {
                Captured::Erase { block } => {
                    laps.lap(Cat::NandErase, || dev.erase_block(block))?;
                }
                Captured::Write {
                    block,
                    page,
                    t,
                    algorithm,
                    ..
                } => {
                    let (data, parity) = encoded.next().ok_or("a write lost its payload")?;
                    if dev.algorithm() != algorithm {
                        dev.select_algorithm(algorithm)?;
                    }
                    laps.lap(Cat::NandProgram, || {
                        dev.program_page(block, page, &data, &parity)
                    })?;
                    page_t.insert((block, page), t);
                }
                Captured::Read { block, page } => {
                    let (data, spare, _) =
                        laps.lap(Cat::NandRead, || dev.read_page(block, page))?;
                    let t = *page_t
                        .get(&(block, page))
                        .ok_or("replayed read of a page the replay never wrote")?;
                    raw_reads.push((data, spare, t));
                }
            }
        }
        for (raw_data, spare, t) in raw_reads {
            let code = codec.code_for(t)?;
            let raw_parity = &spare[..code.parity_bytes()];
            let (mut data, mut parity) = (raw_data.clone(), raw_parity.to_vec());
            let outcome = laps.lap_by(
                || code.decode(&mut data, &mut parity),
                |outcome| match outcome {
                    Ok(DecodeOutcome::Clean) => Cat::BchDecodeClean,
                    _ => Cat::BchDecodeDirty,
                },
            )?;
            // The decode stages on the same raw read, dirty pages only (a
            // clean page ends after the remainder pass). `BchCode` keeps
            // its fused syndrome step private, so it is rebuilt from
            // public parts: the received codeword mod g is
            // encode(data) ^ parity, and the syndromes are that remainder
            // evaluated at the roots. The root search is the one `decode`
            // picks: the direct solve for a single error, else the
            // strided Chien search.
            if matches!(outcome, DecodeOutcome::Clean) {
                continue;
            }
            let calc = syndromes
                .entry(t)
                .or_insert_with(|| SyndromeCalculator::new(field.clone(), t));
            let syn = laps.lap(Cat::BchSyndrome, || -> Res<Vec<u32>> {
                let mut rem = code.encode(&raw_data)?;
                for (r, p) in rem.iter_mut().zip(raw_parity) {
                    *r ^= p;
                }
                Ok(calc.compute(&[], &rem, code.parity_bits()))
            })?;
            let lambda = laps.lap(Cat::BchBerlekamp, || berlekamp::error_locator(&field, &syn));
            let n_bits = code.codeword_bits();
            let found = laps.lap(Cat::BchChien, || {
                if berlekamp::locator_degree(&lambda) == 1 {
                    chien::solve_single_error(&field, &lambda, n_bits)
                } else {
                    chien::find_error_positions_stride(&field, &lambda, n_bits)
                }
            });
            if let DecodeOutcome::Corrected { positions, .. } = &outcome {
                if found.as_ref() != Some(positions) {
                    return Err("the staged decode found other error positions than decode".into());
                }
            }
        }
        laps.leave();
    }
    laps.absorb_into(
        times,
        &[
            Cat::NandProgram,
            Cat::NandRead,
            Cat::NandErase,
            Cat::BchEncode,
            Cat::BchDecodeClean,
            Cat::BchDecodeDirty,
            Cat::BchSyndrome,
            Cat::BchBerlekamp,
            Cat::BchChien,
        ],
    )
}

/// Runs one repetition of both replays, folding it into `times` and
/// recording spans when a tracer is given.
///
/// # Errors
///
/// Layer errors: a replay that fails where the engine run succeeded means
/// the capture was wrong.
pub fn layers_rep(
    input: &ReplayInput,
    times: &mut LayerTimes,
    mut tracer: Option<&mut Tracer>,
) -> Res<()> {
    controller_rep(input, times, tracer.as_deref_mut())?;
    nand_bch_rep(input, times, tracer)
}

/// A count-matched stand-in for the device traffic of the `ftl_churn`
/// scenarios, whose commands cannot be intercepted from outside: per
/// scenario, `programs` page programs filling blocks in order (erasing a
/// block before it is reused) with `reads` reads of recently written pages
/// spread evenly between them, at the two services' fresh operating
/// points alternately.
pub fn synthesize_churn(programs: u64, reads: u64, scenarios: usize) -> Vec<Vec<Captured>> {
    let g = sim_run::geometry();
    let model = SubsystemModel::date2012();
    let points = [sim_run::KV.0, sim_run::LOG.0].map(|o| model.configure(o, 1));
    let (programs, reads) = (
        (programs as usize).div_ceil(scenarios),
        (reads as usize).div_ceil(scenarios),
    );
    let mut rng = Rng::new(0xC0DE);
    let mut out = Vec::with_capacity(scenarios);
    let mut written = 0usize; // programs so far, across scenarios
    let mut version = vec![0u32; g.total_pages()];
    for _ in 0..scenarios {
        let mut seg = Vec::with_capacity(programs + reads + programs / g.pages_per_block + 1);
        let mut reads_done = 0;
        for i in 0..programs {
            let slot = written % g.total_pages();
            let (block, page) = (slot / g.pages_per_block, slot % g.pages_per_block);
            if page == 0 && written >= g.total_pages() {
                seg.push(Captured::Erase { block });
            }
            let point = points[i % 2];
            version[slot] += 1;
            seg.push(Captured::Write {
                block,
                page,
                version: version[slot],
                t: point.correction,
                algorithm: point.algorithm,
            });
            written += 1;
            while reads_done * programs < reads * (i + 1) {
                // One of the last pages written in the block being filled.
                let back = rng.below(page + 1);
                seg.push(Captured::Read {
                    block,
                    page: page - back,
                });
                reads_done += 1;
            }
        }
        out.push(seg);
    }
    out
}

/// `(ns per plan_write, ns per next_op)` over the LPN stream the
/// `ftl_churn` runner derives for `seed` (same trace seeds and address
/// space as `WorkloadRunner::new`), minimum of `reps` passes.
pub fn ftl_and_trace_ns(seed: u64, scenarios: usize, reps: usize) -> Res<(f64, f64)> {
    let ppb = sim_run::PAGES_PER_BLOCK;
    let (mut plan_best, mut gen_best) = (u64::MAX, u64::MAX);
    let (mut plans, mut draws) = (0u64, 0u64);
    for _ in 0..reps.max(1) {
        let (mut plan_ns, mut gen_ns) = (0u64, 0u64);
        (plans, draws) = (0, 0);
        for k in 0..scenarios as u64 {
            for (i, (blocks, kind)) in [(0..8, sim_run::KV.1), (8..16, sim_run::LOG.1)]
                .into_iter()
                .enumerate()
            {
                let mut map = LogicalMap::new(blocks, ppb);
                let space = ((map.capacity_pages() as f64 * sim_run::UTILIZATION) as usize).max(1);
                let trace_seed = seed
                    .wrapping_add(k)
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut gen = TraceGenerator::new(kind, space, trace_seed)?;
                let mut writes: Vec<usize> = (0..space).collect();
                let t0 = Instant::now();
                let ops: Vec<_> = (0..sim_run::CHURN_OPS).map(|_| gen.next_op()).collect();
                gen_ns += t0.elapsed().as_nanos() as u64;
                draws += ops.len() as u64;
                writes.extend(ops.iter().filter(|op| op.is_write()).map(|op| op.lpn()));
                let t0 = Instant::now();
                for &lpn in &writes {
                    black_box(map.plan_write(lpn, &mut |_| 0)?);
                }
                plan_ns += t0.elapsed().as_nanos() as u64;
                plans += writes.len() as u64;
            }
        }
        plan_best = plan_best.min(plan_ns);
        gen_best = gen_best.min(gen_ns);
    }
    Ok((
        plan_best as f64 / plans.max(1) as f64,
        gen_best as f64 / draws.max(1) as f64,
    ))
}

/// `hv.execute_ns_per_op`: the sequencer on one fresh program's phase list
/// per algorithm (the list `NandDevice::program_page` builds).
pub fn hv_execute_ns() -> f64 {
    let ispp = IsppConfig::date2012();
    let sequencer = Sequencer::new(HvSubsystem::date2012());
    let lists: Vec<Vec<Phase>> = [ProgramAlgorithm::IsppSv, ProgramAlgorithm::IsppDv]
        .into_iter()
        .map(|algorithm| {
            let profile = program_profile(&ispp, algorithm, 1);
            (0..profile.pulses.round().max(1.0) as u32)
                .flat_map(|i| {
                    [
                        Phase {
                            kind: PhaseKind::ProgramPulse {
                                target_v: ispp.pulse_voltage(i),
                            },
                            duration_s: ispp.pulse_s,
                        },
                        Phase {
                            kind: PhaseKind::Verify { level: 1 },
                            duration_s: profile.verifies_per_pulse * ispp.verify_s,
                        },
                    ]
                })
                .collect()
        })
        .collect();
    calibrate(2_000, || {
        for list in &lists {
            black_box(sequencer.execute(black_box(list)));
        }
    }) / lists.len() as f64
}

/// `(gf2.field_mul_ns, gf2.mul_raw_ns_per_block)`: one GF(2^16)
/// multiplication, and `MulKernel::best()` on two 16-word operands per
/// word of the first operand.
pub fn gf2_ns() -> Res<(f64, f64)> {
    let field = GfField::new(16)?;
    let mut rng = Rng::new(0x6F2);
    let pairs: Vec<(u32, u32)> = (0..4096)
        .map(|_| (rng.below(65_535) as u32 + 1, rng.below(65_535) as u32 + 1))
        .collect();
    let mul = calibrate(200, || {
        let mut acc = 0u32;
        for &(a, b) in &pairs {
            acc ^= field.mul(black_box(a), black_box(b));
        }
        black_box(acc);
    }) / pairs.len() as f64;
    let a: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
    let b: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
    let kernel = MulKernel::best();
    let raw = calibrate(5_000, || {
        black_box(kernel.mul_raw(black_box(&a), black_box(&b)));
    }) / a.len() as f64;
    Ok((mul, raw))
}

/// Nanoseconds per call of `f`: the fastest of 9 batches of `iters` calls.
fn calibrate(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = u64::MAX;
    for _ in 0..9 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best as f64 / f64::from(iters)
}

/// `core.policy.read_gain_eol_pct`: modeled read MB/s of the
/// `MaxReadThroughput` point over `Baseline` at 10^6 cycles, percent.
pub fn read_gain_eol_pct() -> f64 {
    let model = SubsystemModel::date2012();
    let mbps = |objective| {
        let op = model.configure(objective, 1_000_000);
        model.metrics(&op, 1_000_000).read_mbps
    };
    (mbps(mlcx::Objective::MaxReadThroughput) / mbps(mlcx::Objective::Baseline) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_churn_matches_the_counts_and_is_replayable() {
        let segs = synthesize_churn(1_000, 700, 2);
        let count = |f: fn(&Captured) -> bool| segs.iter().flatten().filter(|c| f(c)).count();
        assert_eq!(count(|c| matches!(c, Captured::Write { .. })), 1_000);
        assert_eq!(count(|c| matches!(c, Captured::Read { .. })), 700);
        assert!(count(|c| matches!(c, Captured::Erase { .. })) >= (1_000 - 256) / 16);
        let input = ReplayInput {
            config: ControllerConfig::builder()
                .geometry(sim_run::geometry())
                .build()
                .unwrap(),
            device_seed: 3,
            age_cycles: 0,
            payload_seed: 3,
            segments: segs,
            first_timed: 0,
        };
        let mut tracer = Tracer::default();
        let mut times = LayerTimes::default();
        layers_rep(&input, &mut times, Some(&mut tracer)).unwrap();
        assert_eq!(
            (times.counts.programs, times.counts.reads),
            (1_000, 700),
            "the controller accepted every synthesized operation"
        );
        assert_eq!(times.counts.uncorrectable, 0);
        assert!(times.ns(Cat::ControllerOp) > 0.0 && times.ns(Cat::NandProgram) > 0.0);
        assert!(tracer.spans.iter().any(|s| s.name == "bch.encode"));
    }

    #[test]
    fn calibrations_are_positive() {
        assert!(hv_execute_ns() > 0.0);
        let (mul, raw) = gf2_ns().unwrap();
        assert!(mul > 0.0 && raw > 0.0);
        let gain = read_gain_eol_pct();
        assert!((20.0..40.0).contains(&gain), "{gain}");
    }
}
