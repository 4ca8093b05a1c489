//! Integration coverage of the workload/lifetime simulator: multi-service
//! scenarios through the batched engine + FTL, data integrity across
//! garbage collection and wear fast-forwards, and end-to-end determinism
//! from a fixed seed.

use mlcx::nand::disturb::DisturbModel;
use mlcx::xlayer::engine::EngineBuilder;
use mlcx::xlayer::sim::presets::{
    channel_contention, program_interference, scrub_vs_retry, write_hammer, MitigationMode,
};
use mlcx::xlayer::sim::{Scenario, ScenarioReport, TraceKind};
use mlcx::{
    Command, ControllerConfig, Counters, DeviceGeometry, FaultPlan, MlcxError, Objective,
    RetryPolicy, StorageEngine,
};

/// A 16-block x 8-page device keeps GC-heavy scenarios fast while the
/// datapath (BCH codec, error injection, latency/energy models) stays
/// the paper's.
fn small_engine() -> EngineBuilder {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks: 16,
        pages_per_block: 8,
        ..config.geometry
    };
    EngineBuilder::date2012().controller_config(config)
}

/// The acceptance-criteria mix: three services over three distinct trace
/// kinds and all three objectives, with lifetime fast-forwards to
/// mid-life and end of life.
fn mixed_scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .engine(small_engine())
        .seed(seed)
        .batch_size(32)
        .prefill(true)
        .service(
            "log",
            Objective::MaxReadThroughput,
            0..4,
            TraceKind::Sequential,
        )
        .service("archive", Objective::MinUber, 4..8, TraceKind::zipfian())
        .service(
            "serve",
            Objective::Baseline,
            8..12,
            TraceKind::read_mostly(),
        )
        .phase("fresh", 40, 100_000)
        .phase("mid-life", 30, 900_000)
        .phase("end-of-life", 20, 0)
        .build()
        .expect("scenario must validate")
}

/// A smaller mix for the determinism assertions (three full runs).
fn tiny_scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .engine(small_engine())
        .seed(seed)
        .batch_size(16)
        .service(
            "log",
            Objective::MaxReadThroughput,
            0..3,
            TraceKind::Sequential,
        )
        .service("kv", Objective::Baseline, 3..6, TraceKind::zipfian())
        .phase("a", 25, 200_000)
        .phase("b", 15, 0)
        .build()
        .expect("scenario must validate")
}

#[test]
fn multi_service_mix_round_trips_across_gc_and_wear() {
    let report = mixed_scenario(42).run().expect("scenario must run");

    // Integrity: every page read during the phases and the closing
    // verification sweep matched its expected payload.
    assert_eq!(report.integrity_violations, 0, "data corrupted in flight");
    assert_eq!(report.read_failures, 0, "ECC must hold at every wear");
    assert!(report.verified_pages > 0);

    // prefill + 3 phases + verify.
    assert_eq!(report.phases.len(), 5);
    let by_name = |name: &str| {
        report
            .phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("missing phase {name}"))
    };

    // Every configured phase reports all three services with energy,
    // percentiles and write amplification.
    for phase in ["fresh", "mid-life", "end-of-life"] {
        let p = by_name(phase);
        assert_eq!(p.services.len(), 3, "{phase}");
        assert!(p.energy_j > 0.0, "{phase}");
        assert!(p.device_time_s > 0.0, "{phase}");
        for s in &p.services {
            assert!(s.write_amplification >= 1.0, "{phase}/{}", s.service);
            // Objectives hold the paper's UBER target at every wear.
            assert!(
                s.model_log10_uber <= -11.0 + 1e-9,
                "{phase}/{}: log10 UBER = {}",
                s.service,
                s.model_log10_uber
            );
            if s.writes > 0 {
                assert!(s.write_latency.p50_s > 0.0);
                assert!(s.write_latency.p99_s >= s.write_latency.p95_s);
                assert!(s.write_latency.p95_s >= s.write_latency.p50_s);
            }
            if s.reads > 0 {
                assert!(s.read_latency.p50_s > 0.0);
                assert!(s.read_latency.p99_s >= s.read_latency.p50_s);
            }
        }
    }

    // The sequential log sweeps its whole region cyclically: it must
    // overwrite and therefore garbage-collect.
    let log = &by_name("mid-life").services[0];
    assert_eq!(log.service, "log");
    assert!(
        log.ftl.gc_runs > 0 && log.ftl.relocated_pages > 0,
        "circular log must trigger GC: {:?}",
        log.ftl
    );

    // Wear accrues monotonically through traffic + fast-forwards.
    let fresh = &by_name("fresh").services[1];
    let mid = &by_name("mid-life").services[1];
    let eol = &by_name("end-of-life").services[1];
    assert!(fresh.max_wear < 100_000);
    assert!(mid.max_wear >= 100_000);
    assert!(eol.max_wear >= 1_000_000);

    // The RBER model tracks the fast-forwards: end-of-life error rates
    // are orders of magnitude above fresh ones, and the measured rate
    // (corrected bits / codeword bits) agrees with the model within a
    // factor a short Monte-Carlo run can resolve.
    assert!(eol.model_rber > fresh.model_rber * 50.0);
    if eol.reads > 20 {
        let ratio = eol.measured_rber / eol.model_rber;
        assert!(
            (0.2..5.0).contains(&ratio),
            "measured {:.3e} vs model {:.3e}",
            eol.measured_rber,
            eol.model_rber
        );
    }
}

#[test]
fn scenario_reproduces_exactly_from_a_fixed_seed() {
    let a: ScenarioReport = tiny_scenario(7).run().unwrap();
    let b: ScenarioReport = tiny_scenario(7).run().unwrap();
    assert_eq!(a, b, "same seed must reproduce the identical report");

    let c = tiny_scenario(8).run().unwrap();
    assert_ne!(a, c, "a different seed must change the run");
    // ...but not its integrity.
    assert_eq!(c.integrity_violations, 0);
}

#[test]
fn the_scenario_seed_overrides_the_engine_builder_seed() {
    // `ScenarioBuilder::engine`'s contract: the scenario's seed is applied
    // on top of the builder passed in, so the builder's own seed is
    // immaterial — even at end of life, where the device's error
    // injection shows in every read.
    let run = |engine_seed: u64| {
        Scenario::builder()
            .engine(EngineBuilder::date2012().seed(engine_seed))
            .seed(7)
            .batch_size(16)
            .service("kv", Objective::Baseline, 0..4, TraceKind::zipfian())
            .phase("burn", 0, 1_000_000)
            .phase("eol", 40, 0)
            .build()
            .expect("scenario must validate")
            .run()
            .expect("scenario must run")
    };
    let report = run(1);
    let corrected: u64 = report.service_reports().map(|s| s.corrected_bits).sum();
    assert!(corrected > 0, "errors were injected");
    assert_eq!(report, run(2));
}

#[test]
fn every_objective_survives_eol_overwrite_traffic() {
    // One service per objective, all under the zipf overwrite pattern,
    // aged to end of life mid-run: integrity must hold through GC at
    // every operating point.
    for objective in Objective::ALL {
        let scenario = Scenario::builder()
            .engine(small_engine())
            .seed(13)
            .service("svc", objective, 0..5, TraceKind::zipfian())
            .phase("young", 60, 1_000_000)
            .phase("eol", 30, 0)
            .build()
            .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(
            report.integrity_violations, 0,
            "{objective:?}: corruption under GC + EOL wear"
        );
        assert_eq!(report.read_failures, 0, "{objective:?}");
        let eol = report.phases.iter().find(|p| p.name == "eol").unwrap();
        assert!(eol.services[0].max_wear >= 1_000_000);
        assert!(eol.services[0].writes > 0);
    }
}

#[test]
fn write_burst_and_uniform_traces_drive_the_engine() {
    // The remaining trace kinds run end-to-end too (satellite coverage:
    // all five kinds exercised against the real datapath somewhere).
    let scenario = Scenario::builder()
        .engine(small_engine())
        .seed(5)
        .service(
            "ingest",
            Objective::Baseline,
            0..6,
            TraceKind::WriteBurst { burst_len: 12 },
        )
        .service(
            "scratch",
            Objective::Baseline,
            6..12,
            TraceKind::UniformRandom,
        )
        .phase("only", 60, 0)
        .build()
        .unwrap();
    let report = scenario.run().unwrap();
    assert_eq!(report.integrity_violations, 0);
    let p = &report.phases[0];
    let ingest = &p.services[0];
    assert!(
        ingest.writes > 40,
        "bursts must dominate: {}",
        ingest.writes
    );
    let scratch = &p.services[1];
    assert!(scratch.writes > 0 && scratch.reads + scratch.cold_reads > 0);
}

/// One submit + drain, asserting the spine's first link: folding
/// [`Counters::record`] over the drain's completions reproduces the
/// engine's own per-drain counters.
fn drain_conserves(engine: &mut StorageEngine, commands: Vec<Command>, total: &mut Counters) {
    engine.sq().submit_owned(commands).expect("batch submits");
    let mut folded = Counters::default();
    for c in engine.cq().drain() {
        if let Ok(output) = &c.result {
            folded.record(output);
        }
    }
    assert_eq!(folded, engine.last_batch().counters);
    total.absorb(&folded);
}

#[test]
fn counters_are_conserved_from_completions_to_the_scenario_total() {
    // Drain level, on an engine with retention + interference damage, a
    // retry ladder and a fault plan, fed host traffic and hand-planned
    // scrub maintenance (the runner keeps its own drains to itself).
    let mut engine = EngineBuilder::date2012()
        .seed(9)
        .controller_config(ControllerConfig {
            disturb: DisturbModel {
                retention_scale: 2e-3,
                rber_per_step: 1e-3,
                program_coupling_rber: 1e-4,
                partial_program_rber: 5e-2,
                ..DisturbModel::disabled()
            },
            retry: RetryPolicy::date2012(),
            ..ControllerConfig::date2012()
        })
        .fault_plan(FaultPlan {
            partial_program_rate: 0.25,
            partial_program_fraction: 0.5,
            seed: 11,
        })
        .build()
        .unwrap();
    let svc = engine
        .register_service("kv", Objective::Baseline, 0..4)
        .unwrap();
    engine.controller_mut().age_block(0, 100_000).unwrap();
    let mut total = Counters::default();
    let mut writes = vec![Command::erase(svc, 0), Command::erase(svc, 1)];
    writes.extend((0..8).map(|p| Command::write(svc, 0, p, vec![p as u8; 4096])));
    drain_conserves(&mut engine, writes, &mut total);
    engine.advance_hours(20_000.0);
    let reads = |block| (0..8).map(|p| Command::read(svc, block, p)).collect();
    drain_conserves(&mut engine, reads(0), &mut total);
    let mut scrub: Vec<Command> = (4..8)
        .map(|p| Command::relocate(svc, (0, p), (1, p - 4)))
        .collect();
    scrub.push(Command::scrub_erase(svc, 0));
    drain_conserves(&mut engine, scrub, &mut total);
    drain_conserves(&mut engine, reads(1), &mut total);
    // Every family of the set was exercised, so the equalities above
    // compared nonzero values.
    assert_eq!((total.scrub_relocations, total.scrub_erases), (4, 1));
    assert!(total.scrub_latency_s > 0.0);
    assert!(total.retry_reads > 0 && total.retry_senses >= total.retry_reads);
    assert!(total.retry_latency_s > 0.0);
    assert!(total.interference_reads > 0);
    assert!(total.injected_partial_programs > 0);
    assert_eq!(total.injected_partial_programs, engine.injected_faults());
}

/// Report level: every total is the in-order fold of its parts, to the
/// bit — a phase's energy and counters fold its services', the run's
/// totals fold its phases' (and their services'). No report keeps a
/// tally of its own.
#[test]
fn each_report_is_the_fold_of_its_parts() {
    // `Debug` prints every float as its shortest round-trip text, so
    // equal text is equal bits.
    let same = |a: &Counters, b: &Counters| format!("{a:?}") == format!("{b:?}");
    let mut every_run = Counters::default();
    for (name, scenario) in [
        ("scrub_vs_retry", scrub_vs_retry(7, MitigationMode::Both)),
        ("program_interference", program_interference(7)),
        ("channel_contention", channel_contention(7)),
    ] {
        let report = scenario.unwrap().run().unwrap();
        assert!(report.phases.len() > 2, "{name}: prefill, traffic, verify");
        let (mut commands, mut device_s, mut parallel_s, mut energy_j) = (0, 0.0, 0.0, 0.0);
        let (mut hits, mut misses, mut violations, mut failures) = (0, 0, 0, 0);
        let mut counters = Counters::default();
        for phase in &report.phases {
            let mut phase_energy_j = 0.0;
            let mut phase_counters = Counters::default();
            for s in &phase.services {
                phase_energy_j += s.energy_j;
                phase_counters.absorb(&s.counters);
                violations += s.integrity_violations;
                failures += s.read_failures;
            }
            let at = format!("{name}/{}", phase.name);
            assert_eq!(phase_energy_j.to_bits(), phase.energy_j.to_bits(), "{at}");
            assert!(same(&phase_counters, &phase.counters), "{at}");
            commands += phase.commands;
            device_s += phase.device_time_s;
            parallel_s += phase.parallel_time_s;
            energy_j += phase.energy_j;
            hits += phase.op_cache_hits;
            misses += phase.op_cache_misses;
            counters.absorb(&phase.counters);
        }
        assert_eq!(commands, report.total_commands, "{name}");
        assert_eq!(
            device_s.to_bits(),
            report.total_device_time_s.to_bits(),
            "{name}"
        );
        assert_eq!(
            parallel_s.to_bits(),
            report.total_parallel_time_s.to_bits(),
            "{name}"
        );
        assert_eq!(
            energy_j.to_bits(),
            report.total_energy_j.to_bits(),
            "{name}"
        );
        assert_eq!(
            (hits, misses),
            (report.op_cache_hits, report.op_cache_misses),
            "{name}"
        );
        assert_eq!(violations, report.integrity_violations, "{name}");
        assert_eq!(failures, report.read_failures, "{name}");
        assert!(same(&counters, &report.counters), "{name}");
        assert!(
            commands > 0 && energy_j > 0.0 && hits + misses > 0,
            "{name}"
        );
        every_run.absorb(&counters);
    }
    // The mitigations ran, so the counter folds compared nonzero values.
    assert!(every_run.scrub_relocations > 0 && every_run.retry_reads > 0);
    assert!(every_run.injected_partial_programs > 0);
}

#[test]
fn scrub_relocation_retries_pay_their_latency_in_the_service_report() {
    // Only pages still at their prefill-time capability fail a first
    // sense, and a sense costs the same device read whichever command
    // issued it — so the latency per retry sense is the same with and
    // without the scrubber. The runner used to book the senses of
    // scrub-relocation source reads without their latency: on
    // write_hammer(7, Both) it reported 127.1 ms for 504 senses worth
    // 130.7 ms. (scrub_vs_retry(7, Both) never tripped it: host reads
    // teach every block its offset before the first scrub pass, so no
    // relocation there retries.)
    type Preset = fn(u64, MitigationMode) -> Result<Scenario, MlcxError>;
    for (name, preset) in [
        ("scrub_vs_retry", scrub_vs_retry as Preset),
        ("write_hammer", write_hammer),
    ] {
        let run = |mode| preset(7, mode).unwrap().run().unwrap().counters;
        let (retry_only, both) = (run(MitigationMode::RetryOnly), run(MitigationMode::Both));
        assert!(retry_only.retry_senses > 0 && both.retry_senses > 0);
        assert!(both.scrub_relocations > 0);
        let per_sense_s = |c: &Counters| c.retry_latency_s / c.retry_senses as f64;
        assert!(
            (per_sense_s(&both) - per_sense_s(&retry_only)).abs()
                <= 1e-9 * per_sense_s(&retry_only),
            "{name}: {:e} s per retry sense with scrub, {:e} s without",
            per_sense_s(&both),
            per_sense_s(&retry_only)
        );
    }
}
