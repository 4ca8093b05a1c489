//! Named multi-channel workload presets.
//!
//! The single-target scenarios of the paper cannot express the two
//! failure modes a real multi-die SSD lives with:
//!
//! * **die skew** — dies age at different rates (a die that hosted a
//!   hot tenant, or a weak die binned low at test), so one bank of a
//!   striped region needs a stronger ECC schedule than its siblings;
//! * **channel contention** — tenants whose regions sit on dies behind
//!   the *same* channel serialize on its bus, while a tenant alone on
//!   another channel runs unimpeded.
//!
//! These presets pin both down as deterministic [`Scenario`]s the
//! `WorkloadRunner` drives end-to-end through the striped FTL, the
//! per-die operating-point memo and the channel busy-time scheduler.
//!
//! Every constructor returns [`ScenarioBuilder::build`](crate::sim::ScenarioBuilder::build)'s
//! verdict on what it wrote out, so an `Err` from a preset is a bug in
//! this file, reported the way any invalid scenario is.

use mlcx_controller::{ControllerConfig, RetryPolicy, ScrubPolicy};
use mlcx_nand::disturb::DisturbModel;
use mlcx_nand::{DeviceGeometry, Topology};

use crate::engine::EngineBuilder;
use crate::error::MlcxError;
use crate::event::{QosSpec, SchedPolicy};
use crate::fault::FaultPlan;
use crate::policy::Objective;
use crate::sim::{Scenario, TraceKind};

/// A small multi-die controller: `blocks` x 8-page blocks under
/// `topology` (everything else the paper's calibration), for a preset to
/// finish by struct update and hand to
/// [`EngineBuilder::controller_config`].
fn config_with(blocks: usize, topology: Topology) -> ControllerConfig {
    ControllerConfig {
        geometry: DeviceGeometry {
            blocks,
            pages_per_block: 8,
            topology,
            ..DeviceGeometry::date2012()
        },
        ..ControllerConfig::date2012()
    }
}

/// [`RetryPolicy::date2012`] when `on`, else the disabled policy.
fn retry(on: bool) -> RetryPolicy {
    if on {
        RetryPolicy::date2012()
    } else {
        RetryPolicy::disabled()
    }
}

/// Die-skew preset: one zipf key-value service striped over a
/// 2-channel bank (8 blocks per die), with die 1 fast-forwarded 900k
/// cycles between the phases. The `skewed` phase runs against a
/// wear-imbalanced bank: writes landing on die 1 derive their own
/// (stronger) operating point from the per-die memo while die 0 keeps
/// the fresh schedule, and reads of die-1 pages see end-of-life RBER.
pub fn die_skew(seed: u64) -> Result<Scenario, MlcxError> {
    Scenario::builder()
        .engine(EngineBuilder::date2012().controller_config(config_with(16, Topology::new(2, 1))))
        .seed(seed)
        .batch_size(32)
        .service("kv", Objective::Baseline, 0..16, TraceKind::zipfian())
        .phase_with_die_skew("fresh", 80, 0, &[(1, 900_000)])
        .phase("skewed", 80, 0)
        .build()
}

/// Channel-contention preset: a 2x2 bank (4 dies, 4 blocks each) where
/// a `noisy` write-burst tenant and a `victim` read-mostly tenant own
/// dies 0 and 1 — both behind channel 0 — while an `isolated` tenant
/// with the victim's exact trace owns die 2, alone on channel 1. The
/// two channels' bus busy-times expose the contention: channel 0
/// carries both tenants' transfers serially, channel 1 only the
/// isolated tenant's.
pub fn channel_contention(seed: u64) -> Result<Scenario, MlcxError> {
    Scenario::builder()
        .engine(EngineBuilder::date2012().controller_config(config_with(16, Topology::new(2, 2))))
        .seed(seed)
        .batch_size(32)
        .prefill(true)
        .service(
            "noisy",
            Objective::Baseline,
            0..4,
            TraceKind::WriteBurst { burst_len: 8 },
        )
        .service(
            "victim",
            Objective::Baseline,
            4..8,
            TraceKind::read_mostly(),
        )
        .service(
            "isolated",
            Objective::Baseline,
            8..12,
            TraceKind::read_mostly(),
        )
        .phase("contend", 90, 0)
        .build()
}

/// Retention-stress preset: a read-hot zipfian key-value service on an
/// end-of-life bank whose stored data then sits for 20,000 hours (~2.3
/// years) before the serving phase. With the (paper-calibrated)
/// retention model enabled, the parked data's additive RBER erodes the
/// ECC margin by several decades of model UBER; with `scrub` the
/// retention-age scrubber read-reclaims the stale blocks during the
/// serving phase — rewriting the data at the current clock — and
/// recovers that margin at a measured relocation/erase/device-time
/// cost. Run both arms with the same seed to quantify the trade-off.
pub fn retention_stress(seed: u64, scrub: bool) -> Result<Scenario, MlcxError> {
    let engine = EngineBuilder::date2012().controller_config(ControllerConfig {
        disturb: DisturbModel::date2012(),
        ..config_with(16, Topology::single())
    });
    Scenario::builder()
        .engine(engine)
        .scrub_policy(ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: 5_000.0,
            interference_rber_threshold: f64::INFINITY,
            // Zero blocks per pass is the scrub-off arm.
            max_blocks_per_pass: if scrub { 2 } else { 0 },
        })
        .seed(seed)
        .batch_size(24)
        .service("kv", Objective::Baseline, 0..16, TraceKind::zipfian())
        // Position the bank at end of life first (a pure fast-forward,
        // no traffic), so the data written next is encoded at the EOL
        // schedule and ages at the EOL retention rate (retention
        // acceleration scales with program-time wear).
        .phase("burn", 0, 1_000_000)
        // Write the working set at EOL wear, then park it.
        .phase_with_elapsed("write", 120, 0, 20_000.0)
        // Serve read-hot traffic against the parked data.
        .phase("serve", 280, 0)
        .build()
}

/// Read-reclaim preset: the read-disturb twin of
/// [`retention_stress`]. A read-hot serving tenant (95 % reads over a
/// deliberately small working set) hammers its blocks on an
/// end-of-life bank under an (aggressive, demo-scaled) read-disturb
/// model; with almost no write traffic, garbage collection never
/// recycles the hot blocks, so their `reads_since_erase` accumulators
/// climb unchecked. With `scrub` the scrubber relocates and erases
/// them once they cross the read threshold — resetting the accumulator
/// exactly as arXiv:1706.08642's read-reclaim describes — before the
/// disturb RBER can stack onto the end-of-life endurance floor.
pub fn read_reclaim(seed: u64, scrub: bool) -> Result<Scenario, MlcxError> {
    let engine = EngineBuilder::date2012().controller_config(ControllerConfig {
        disturb: DisturbModel {
            // Demo-scaled: the date2012 per-read constant needs ~100k
            // reads to matter; 3e-6 reaches the same disturb RBER in
            // the ~100 reads a preset-sized trace can issue.
            read_disturb_per_read: 3e-6,
            ..DisturbModel::disabled()
        },
        ..config_with(16, Topology::single())
    });
    Scenario::builder()
        .engine(engine)
        .scrub_policy(ScrubPolicy {
            read_threshold: 40,
            retention_age_hours: f64::INFINITY,
            interference_rber_threshold: f64::INFINITY,
            // Zero blocks per pass is the scrub-off arm.
            max_blocks_per_pass: if scrub { 2 } else { 0 },
        })
        .seed(seed)
        .batch_size(24)
        // A small working set concentrates the reads on few blocks.
        .utilization(0.25)
        .service(
            "hot",
            Objective::Baseline,
            0..16,
            TraceKind::ReadMostly { read_ratio: 0.95 },
        )
        .phase("burn", 0, 1_000_000)
        .phase("hammer", 500, 0)
        .build()
}

/// Multi-tenant QoS storm: `n_tenants` read-mostly tenants (at least
/// one; hundreds are the point) packed onto **one bank** — a single
/// die, two 8-page blocks per tenant — under
/// [`SchedPolicy::WeightedFair`] dispatch. Tenants cycle through three
/// QoS classes by index: `gold` (weight 8), `silver` (weight 2) and
/// `bronze` (weight 1). Every tenant prefills its working set, then the
/// serve phase round-robins trace traffic across all of them, so every
/// batch is a many-way contention for the same die and the dispatch
/// order *is* the latency story: each tenant's observed queueing +
/// device flow time lands in its
/// [`ServicePhaseReport::flow_latency`](crate::sim::ServicePhaseReport::flow_latency)
/// percentiles (p50/p99/p99.9) per phase.
///
/// The storm is deliberately single-die: with no channel overlap
/// available, weighted-fair dispatch is the only mechanism that can
/// shape the tail, which makes its effect on the favored class's
/// p99/p99.9 directly measurable against
/// [`SchedPolicy::FifoArrival`] (the `qos_tail` bench does exactly
/// that comparison).
pub fn tenant_storm(seed: u64, n_tenants: usize) -> Result<Scenario, MlcxError> {
    let n_tenants = n_tenants.max(1);
    let blocks_per_tenant = 2;
    let mut builder = Scenario::builder()
        .engine(
            EngineBuilder::date2012()
                .controller_config(config_with(
                    n_tenants * blocks_per_tenant,
                    Topology::single(),
                ))
                .sched_policy(SchedPolicy::WeightedFair),
        )
        .seed(seed)
        .batch_size(64)
        // A tiny per-tenant working set keeps the prefill proportional
        // to the tenant count, not dominated by it.
        .utilization(0.25)
        .prefill(true);
    for i in 0..n_tenants {
        let (class, weight) = match i % 3 {
            0 => ("gold", 8.0),
            1 => ("silver", 2.0),
            _ => ("bronze", 1.0),
        };
        let lo = i * blocks_per_tenant;
        builder = builder.service_with_qos(
            &format!("{class}-{i:04}"),
            Objective::Baseline,
            lo..lo + blocks_per_tenant,
            TraceKind::read_mostly(),
            QosSpec {
                weight,
                ..QosSpec::default()
            },
        );
    }
    builder.phase("storm", 4, 0).build()
}

/// Which reliability mitigations a [`scrub_vs_retry`] arm enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationMode {
    /// Neither mitigation: the parked data's reads fail uncorrectable.
    None,
    /// Background scrub only: stale blocks are relocated and erased
    /// (data-movement domain — pays write amplification and erases).
    ScrubOnly,
    /// Read-retry only: failing reads re-sense at ladder offsets
    /// (voltage domain — pays extra senses, moves no data).
    RetryOnly,
    /// Both mitigations together.
    Both,
}

impl MitigationMode {
    /// Whether the arm runs the background scrubber.
    pub fn scrub(self) -> bool {
        matches!(self, MitigationMode::ScrubOnly | MitigationMode::Both)
    }

    /// Whether the arm runs stepped read-reference retry.
    pub fn retry(self) -> bool {
        matches!(self, MitigationMode::RetryOnly | MitigationMode::Both)
    }
}

/// Scrub-vs-retry preset: the *same* seeded retention-failure workload
/// run under each [`MitigationMode`], so the two mitigations' costs are
/// directly comparable. A read-only serving tenant's working set is
/// prefilled once (no overwrites, so no stale garbage pages muddy the
/// per-block disturb accounting), parked for 20,000 hours under a
/// demo-scaled wear-independent retention model harsh enough that
/// nominal-reference reads come back *uncorrectable* (unlike
/// [`retention_stress`], where the EOL schedule still decodes), then
/// read-served:
///
/// * [`MitigationMode::None`] — every read of parked data fails; the
///   report's `read_failures` and disturbed-UBER columns show the
///   exposure.
/// * [`MitigationMode::ScrubOnly`] — the retention scrubber rewrites
///   stale blocks at the current clock: recovery paid in relocations
///   and erases (pure write amplification — the workload itself writes
///   nothing).
/// * [`MitigationMode::RetryOnly`] — the ladder re-senses failing reads
///   near the shifted optimum and the per-block offset table makes
///   steady state single-sense: recovery paid purely in read latency —
///   zero relocations, zero erases.
/// * [`MitigationMode::Both`] — retry absorbs errors between scrub
///   passes; scrub bounds how far the ladder must reach.
pub fn scrub_vs_retry(seed: u64, mode: MitigationMode) -> Result<Scenario, MlcxError> {
    let engine = EngineBuilder::date2012().controller_config(ControllerConfig {
        disturb: DisturbModel {
            // Demo-scaled retention, independent of program-time wear
            // (exponent 0) so the prefilled data ages at full rate:
            // ~1.5e-3 additive RBER after the park (~50 raw errors per
            // codeword — uncorrectable at the fresh-wear schedule),
            // with a step size that puts the Vth shift almost exactly
            // two reference steps out, squarely on a date2012 ladder
            // rung.
            retention_scale: 3.5e-4,
            retention_wear_exponent: 0.0,
            rber_per_step: 7.5e-4,
            offset_residual_fraction: 0.01,
            ..DisturbModel::disabled()
        },
        retry: retry(mode.retry()),
        ..config_with(16, Topology::single())
    });
    Scenario::builder()
        .engine(engine)
        .scrub_policy(ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: 5_000.0,
            interference_rber_threshold: f64::INFINITY,
            // Zero blocks per pass is the scrub-off arm.
            max_blocks_per_pass: if mode.scrub() { 2 } else { 0 },
        })
        .seed(seed)
        .batch_size(24)
        // A small working set: the prefill packs it into a few blocks
        // and the read-only serve phase revisits every block.
        .utilization(0.25)
        .prefill(true)
        .service(
            "serve",
            Objective::Baseline,
            0..16,
            TraceKind::ReadMostly { read_ratio: 1.0 },
        )
        // Park the prefilled working set ~2.3 years.
        .phase_with_elapsed("park", 0, 0, 20_000.0)
        // Serve pure read traffic against the parked data.
        .phase("serve", 280, 0)
        .build()
}

/// Program-interference preset: one zipfian key-value tenant whose own
/// overwrite churn is the aggressor. Every program couples RBER onto
/// its programmed wordline neighbours (demo-scaled cell-to-cell
/// interference), and a deterministic fault schedule interrupts 2 % of
/// programs mid-staircase — the power-loss mode, whose pages read back
/// corrupt until erased. The interference-pressure scrubber
/// (`interference_rber_threshold`) is the mitigation: a partially
/// programmed page alone presses its block far past the threshold, so
/// the scrubber reclaims exactly the damaged blocks, attributed in
/// [`FtlStats::interference_reclaims`](mlcx_controller::FtlStats::interference_reclaims).
///
/// Power loss without end-to-end write protection *is* data loss: the
/// interrupted pages fail ECC (surfacing as `read_failures`), and a GC
/// or scrub relocation that copies such a page forward preserves the
/// corruption — so unlike the other presets, a run is *expected* to
/// report failures. The preset exists to count them deterministically.
pub fn program_interference(seed: u64) -> Result<Scenario, MlcxError> {
    let engine = EngineBuilder::date2012()
        .controller_config(ControllerConfig {
            disturb: DisturbModel {
                // Demo-scaled: the date2012 coupling constant needs ~200
                // neighbour events per page to matter; 1e-4 per event shows
                // up within a preset-sized trace. Partial-program corruption
                // keeps its real (catastrophic) severity.
                program_coupling_rber: 1e-4,
                partial_program_rber: 5e-2,
                ..DisturbModel::disabled()
            },
            ..config_with(16, Topology::single())
        })
        .fault_plan(FaultPlan {
            partial_program_rate: 0.02,
            partial_program_fraction: 0.5,
            seed: seed ^ 0xFA17,
        });
    Scenario::builder()
        .engine(engine)
        .scrub_policy(ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: f64::INFINITY,
            interference_rber_threshold: 2e-3,
            max_blocks_per_pass: 2,
        })
        .seed(seed)
        .batch_size(24)
        .utilization(0.5)
        .prefill(true)
        .service("kv", Objective::Baseline, 0..16, TraceKind::zipfian())
        .phase("churn", 240, 0)
        .build()
}

/// Write-hammer preset: the adversarial twin of
/// [`program_interference`]. An `attacker` tenant floods its own block
/// range with write bursts while a `victim` tenant's prefilled data
/// sits parked on the *same die*, read-only. Every attacker program
/// stresses the die's inhibited bitlines (demo-scaled die-level program
/// disturb), so the victim's parked blocks accumulate interference RBER
/// they did nothing to earn — the program-side analogue of a
/// read-disturb neighbourhood attack, with the FTL's block-range
/// isolation bypassed entirely by the shared die.
///
/// Run under each [`MitigationMode`] with the same seed:
///
/// * [`MitigationMode::None`] — victim reads start failing once the
///   accumulated shift outruns the fresh-wear ECC schedule.
/// * [`MitigationMode::ScrubOnly`] — the interference-pressure scrubber
///   relocates the victim's pressed blocks (rewriting them resets their
///   exposure snapshot), paid in relocations/erases.
/// * [`MitigationMode::RetryOnly`] — the stepped ladder tracks the
///   interference Vth shift (~2-3 reference steps at the demo scale)
///   and the learned per-block offsets make steady state single-sense,
///   paid in extra read latency.
/// * [`MitigationMode::Both`] — retry absorbs the shift between scrub
///   passes.
pub fn write_hammer(seed: u64, mode: MitigationMode) -> Result<Scenario, MlcxError> {
    let engine = EngineBuilder::date2012().controller_config(ControllerConfig {
        disturb: DisturbModel {
            // Demo-scaled: the date2012 per-program constant needs ~100k
            // programs on the die to matter; 4e-6 reaches a schedule-
            // breaking victim RBER within the few hundred programs a
            // preset-sized burst trace issues. The step size puts the
            // end-of-run shift almost exactly two reference rungs out —
            // squarely on the date2012 ladder — and the residual keeps
            // the tracked optimum clean.
            program_disturb_per_program: 4e-6,
            program_coupling_rber: 1e-5,
            rber_per_step: 5e-4,
            offset_residual_fraction: 0.01,
            ..DisturbModel::disabled()
        },
        retry: retry(mode.retry()),
        ..config_with(16, Topology::single())
    });
    Scenario::builder()
        .engine(engine)
        .scrub_policy(ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: f64::INFINITY,
            interference_rber_threshold: 7.5e-4,
            // Zero blocks per pass is the scrub-off arm.
            max_blocks_per_pass: if mode.scrub() { 2 } else { 0 },
        })
        .seed(seed)
        .batch_size(24)
        // Small working sets: the victim's parked data packs into a few
        // blocks and the attacker's churn stays GC-light.
        .utilization(0.25)
        .prefill(true)
        .service(
            "attacker",
            Objective::Baseline,
            0..8,
            TraceKind::WriteBurst { burst_len: 8 },
        )
        .service(
            "victim",
            Objective::Baseline,
            8..16,
            TraceKind::ReadMostly { read_ratio: 1.0 },
        )
        .phase("hammer", 280, 0)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_skew_preset_splits_the_wear_and_stays_clean() {
        let report = die_skew(11).unwrap().run().expect("preset must run");
        assert_eq!(report.integrity_violations, 0);
        assert_eq!(report.read_failures, 0);
        let fresh = &report.phases[0].services[0];
        let skewed = &report.phases[1].services[0];
        assert!(fresh.max_wear < 10_000, "fresh phase: {}", fresh.max_wear);
        assert!(
            skewed.max_wear >= 900_000,
            "the skewed die must dominate the service's wear: {}",
            skewed.max_wear
        );
        assert!(skewed.model_rber > fresh.model_rber * 10.0);
        // Two channels: batches overlap, so the run's overlapped time
        // beats the serial sum.
        assert!(report.total_parallel_time_s < report.total_device_time_s);
        assert!(report.achieved_parallelism() > 1.0);
    }

    #[test]
    fn channel_contention_preset_loads_the_shared_channel() {
        let report = channel_contention(23)
            .unwrap()
            .run()
            .expect("preset must run");
        assert_eq!(report.integrity_violations, 0);
        assert_eq!(report.read_failures, 0);
        let contend = report
            .phases
            .iter()
            .find(|p| p.name == "contend")
            .expect("contend phase");
        // All three tenants ran traffic and the topology overlapped it.
        assert_eq!(contend.services.len(), 3);
        assert!(contend.parallel_time_s < contend.device_time_s);
        assert!(contend.channel_busy_s > 0.0);
        // Determinism: the preset is a fixed function of its seed.
        let again = channel_contention(23).unwrap().run().unwrap();
        assert_eq!(report, again);
    }

    /// The serve/hammer phase of a preset report.
    fn phase<'a>(
        report: &'a crate::sim::ScenarioReport,
        name: &str,
    ) -> &'a crate::sim::PhaseReport {
        report
            .phases
            .iter()
            .find(|p| p.name == name)
            .expect("phase must exist")
    }

    #[test]
    fn retention_stress_scrubber_recovers_uber_at_a_latency_cost() {
        let off = retention_stress(7, false)
            .unwrap()
            .run()
            .expect("off arm runs");
        let on = retention_stress(7, true)
            .unwrap()
            .run()
            .expect("on arm runs");
        // Both arms stay functionally clean: the EOL schedule absorbs
        // the retention errors; the damage is UBER margin, not data.
        for report in [&off, &on] {
            assert_eq!(report.integrity_violations, 0);
            assert_eq!(report.read_failures, 0);
        }
        assert_eq!(off.counters.scrub_relocations, 0);
        assert!(on.counters.scrub_relocations > 0, "scrubber must have run");
        assert!(on.counters.scrub_erases > 0);

        let s_off = &phase(&off, "serve").services[0];
        let s_on = &phase(&on, "serve").services[0];
        // Unscrubbed, two years of parked EOL data erodes the margin...
        assert!(
            s_off.model_disturb_rber > 1e-4,
            "parked data must accumulate retention RBER: {:e}",
            s_off.model_disturb_rber
        );
        assert!(s_off.model_log10_uber_disturbed > s_off.model_log10_uber + 1.0);
        // ...and the scrubber recovers >= 1 decade of model log10 UBER.
        let recovered = s_off.model_log10_uber_disturbed - s_on.model_log10_uber_disturbed;
        assert!(
            recovered >= 1.0,
            "scrubber must recover >= 1 decade of UBER, got {recovered:.2} \
             (off {:.2}, on {:.2})",
            s_off.model_log10_uber_disturbed,
            s_on.model_log10_uber_disturbed
        );
        // The recovery is paid for in measured device time (relocation
        // reads/writes + erases competing with host traffic).
        let cost = phase(&on, "serve").device_time_s - phase(&off, "serve").device_time_s;
        assert!(cost > 0.0, "scrub traffic must cost device time");
        assert!(s_on.counters.scrub_relocations > 0 && s_on.counters.scrub_erases > 0);

        // Determinism: both arms are fixed functions of the seed.
        assert_eq!(off, retention_stress(7, false).unwrap().run().unwrap());
        assert_eq!(on, retention_stress(7, true).unwrap().run().unwrap());
    }

    #[test]
    fn read_reclaim_resets_the_disturb_accumulator() {
        let off = read_reclaim(31, false)
            .unwrap()
            .run()
            .expect("off arm runs");
        let on = read_reclaim(31, true).unwrap().run().expect("on arm runs");
        for report in [&off, &on] {
            assert_eq!(report.integrity_violations, 0);
            assert_eq!(report.read_failures, 0);
        }
        let s_off = &phase(&off, "hammer").services[0];
        let s_on = &phase(&on, "hammer").services[0];
        // Unscrubbed, the hammered hot blocks stack read disturb on top
        // of the end-of-life endurance floor.
        assert!(
            s_off.model_disturb_rber > 1e-4,
            "hot blocks must accumulate read disturb: {:e}",
            s_off.model_disturb_rber
        );
        assert!(on.counters.scrub_relocations + on.counters.scrub_erases > 0);
        // Read-reclaim keeps the worst block's disturb bounded near the
        // threshold instead of growing with the hammer.
        assert!(
            s_on.model_disturb_rber < s_off.model_disturb_rber,
            "reclaim must bound the disturb: on {:e} vs off {:e}",
            s_on.model_disturb_rber,
            s_off.model_disturb_rber
        );
        assert!(s_on.model_log10_uber_disturbed < s_off.model_log10_uber_disturbed);
        assert_eq!(on, read_reclaim(31, true).unwrap().run().unwrap());
    }

    #[test]
    fn tenant_storm_serves_256_tenants_on_one_bank_with_flow_tails() {
        let report = tenant_storm(7, 256).unwrap().run().expect("storm must run");
        assert_eq!(report.integrity_violations, 0);
        assert_eq!(report.read_failures, 0);
        let storm = phase(&report, "storm");
        assert_eq!(storm.services.len(), 256);
        // One bank: no channel overlap to hide behind.
        assert!((report.achieved_parallelism() - 1.0).abs() < 1e-9);
        // Every tenant that saw traffic reports a full flow-time tail.
        let mut classes_seen = [false; 3];
        for s in &storm.services {
            let flows = s.flow_latency;
            assert!(flows.count > 0, "tenant {} saw no traffic", s.service);
            assert!(flows.p50_s > 0.0);
            assert!(flows.p999_s >= flows.p99_s && flows.p99_s >= flows.p50_s);
            match s.service.split('-').next().unwrap() {
                "gold" => classes_seen[0] = true,
                "silver" => classes_seen[1] = true,
                "bronze" => classes_seen[2] = true,
                other => panic!("unexpected class {other}"),
            }
        }
        assert_eq!(classes_seen, [true; 3]);
        // Determinism: the storm is a fixed function of its seed.
        let again = tenant_storm(7, 256).unwrap().run().unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn scrub_vs_retry_recovers_uber_in_different_currencies() {
        let none = scrub_vs_retry(7, MitigationMode::None)
            .unwrap()
            .run()
            .unwrap();
        let scrub = scrub_vs_retry(7, MitigationMode::ScrubOnly)
            .unwrap()
            .run()
            .unwrap();
        let retry = scrub_vs_retry(7, MitigationMode::RetryOnly)
            .unwrap()
            .run()
            .unwrap();
        let both = scrub_vs_retry(7, MitigationMode::Both)
            .unwrap()
            .run()
            .unwrap();

        // Unmitigated, the parked data genuinely fails: this preset is
        // harsher than retention_stress on purpose.
        assert!(none.read_failures > 0, "none arm must see failed reads");
        assert_eq!(none.counters.retry_reads, 0);
        assert_eq!(
            none.counters.scrub_relocations + none.counters.scrub_erases,
            0
        );

        // Retry-only moves no data at all...
        assert_eq!(retry.counters.scrub_relocations, 0);
        assert_eq!(retry.counters.scrub_erases, 0);
        assert!(
            retry.counters.retry_reads > 0,
            "the ladder must have walked"
        );
        assert!(retry.counters.retry_senses >= retry.counters.retry_reads);
        // ...and recovers the reads the none arm lost.
        assert!(
            retry.read_failures < none.read_failures / 4,
            "retry must recover most failing reads: {} vs {}",
            retry.read_failures,
            none.read_failures
        );
        assert_eq!(retry.integrity_violations, 0);

        // The verify sweep reads every mapped page, so by its end every
        // parked block has a learned offset: >= 1 decade of model UBER
        // recovered at the effective (offset-aware) reference, with
        // zero relocations/erases.
        let v_none = &phase(&none, "verify").services[0];
        let v_retry = &phase(&retry, "verify").services[0];
        let recovered = v_none.model_log10_uber_disturbed - v_retry.model_log10_uber_disturbed;
        assert!(
            recovered >= 1.0,
            "retry must recover >= 1 decade of UBER, got {recovered:.2} \
             (none {:.2}, retry {:.2})",
            v_none.model_log10_uber_disturbed,
            v_retry.model_log10_uber_disturbed
        );
        // The price is read latency: extra senses, accounted per read.
        let s_retry = &phase(&retry, "serve").services[0];
        assert!(s_retry.counters.retry_latency_s > 0.0);
        assert!(s_retry.counters.retry_reads > 0);

        // Scrub-only pays in data movement: relocation writes and
        // erases against a workload that itself writes nothing — pure
        // write amplification, where retry moved no data at all.
        assert!(
            scrub.counters.scrub_relocations > 0,
            "scrubber must have run"
        );
        assert!(scrub.counters.scrub_erases > 0);
        assert_eq!(scrub.counters.retry_reads, 0);
        assert!(
            scrub.read_failures < none.read_failures,
            "scrub must stem the failures once it has swept: {} vs {}",
            scrub.read_failures,
            none.read_failures
        );

        // Both together: retry absorbs what scrub hasn't reached yet.
        assert!(both.counters.scrub_relocations > 0);
        assert!(both.read_failures <= retry.read_failures);

        // Determinism: every arm is a fixed function of the seed.
        assert_eq!(
            none,
            scrub_vs_retry(7, MitigationMode::None)
                .unwrap()
                .run()
                .unwrap()
        );
        assert_eq!(
            retry,
            scrub_vs_retry(7, MitigationMode::RetryOnly)
                .unwrap()
                .run()
                .unwrap()
        );
    }

    #[test]
    fn program_interference_counts_coupling_faults_and_reclaims() {
        let report = program_interference(7)
            .unwrap()
            .run()
            .expect("preset must run");
        // The fault schedule fired, the coupled/corrupt pages were seen
        // at read time, and the interference-pressure scrubber reclaimed
        // the damaged blocks with explicit attribution.
        assert!(
            report.counters.injected_partial_programs > 0,
            "the 2% schedule must interrupt some of the preset's programs"
        );
        assert!(report.counters.interference_reads > 0);
        let interference_reclaims: u64 = report
            .service_reports()
            .map(|s| s.ftl.interference_reclaims)
            .sum();
        assert!(
            interference_reclaims > 0,
            "partially-programmed pages must press blocks past the scrub threshold"
        );
        assert!(report.counters.scrub_relocations + report.counters.scrub_erases > 0);
        // Power loss without end-to-end protection is data loss: the
        // interrupted pages fail ECC deterministically.
        assert!(report.read_failures > 0);
        let churn = &phase(&report, "churn").services[0];
        assert!(churn.model_interference_rber > 0.0);
        assert!(churn.counters.injected_partial_programs > 0);
        // Determinism: the preset is a fixed function of its seed.
        assert_eq!(report, program_interference(7).unwrap().run().unwrap());
    }

    #[test]
    fn write_hammer_attacker_damage_is_recovered_by_scrub_or_retry() {
        let none = write_hammer(7, MitigationMode::None)
            .unwrap()
            .run()
            .unwrap();
        let scrub = write_hammer(7, MitigationMode::ScrubOnly)
            .unwrap()
            .run()
            .unwrap();
        let retry = write_hammer(7, MitigationMode::RetryOnly)
            .unwrap()
            .run()
            .unwrap();

        let victim = |r: &crate::sim::ScenarioReport, ph: &str| {
            phase(r, ph)
                .services
                .iter()
                .find(|s| s.service == "victim")
                .expect("victim service")
                .clone()
        };

        // Unmitigated, the attacker's programs press the victim's
        // parked blocks across the shared die until its reads fail.
        let v_none = victim(&none, "hammer");
        assert!(
            v_none.model_interference_rber > 1e-3,
            "attacker must press the victim: {:e}",
            v_none.model_interference_rber
        );
        assert!(v_none.counters.interference_reads > 0);
        assert!(v_none.read_failures > 0, "victim reads must start failing");
        assert_eq!(v_none.writes, 0, "the victim is read-only by design");
        assert!(none.counters.injected_partial_programs == 0);

        // The damage in UBER terms, measured at the closing sweep: the
        // victim loses more than a decade, and either mitigation alone
        // recovers at least one decade of it.
        let vv_none = victim(&none, "verify");
        assert!(vv_none.model_log10_uber_disturbed > vv_none.model_log10_uber + 1.0);
        for (arm, report) in [("scrub", &scrub), ("retry", &retry)] {
            let vv = victim(report, "verify");
            let recovered = vv_none.model_log10_uber_disturbed - vv.model_log10_uber_disturbed;
            assert!(
                recovered >= 1.0,
                "{arm} must recover >= 1 decade of victim UBER, got {recovered:.2} \
                 (none {:.2}, {arm} {:.2})",
                vv_none.model_log10_uber_disturbed,
                vv.model_log10_uber_disturbed
            );
        }

        // Each mitigation pays in its own currency.
        assert!(
            scrub.counters.scrub_relocations > 0,
            "scrubber must have run"
        );
        assert_eq!(scrub.counters.retry_reads, 0);
        assert!(
            retry.counters.retry_reads > 0,
            "the ladder must have walked"
        );
        assert_eq!(
            retry.counters.scrub_relocations + retry.counters.scrub_erases,
            0
        );
        assert!(
            retry.read_failures < none.read_failures,
            "retry must recover failing victim reads: {} vs {}",
            retry.read_failures,
            none.read_failures
        );

        // Determinism: every arm is a fixed function of the seed.
        assert_eq!(
            none,
            write_hammer(7, MitigationMode::None)
                .unwrap()
                .run()
                .unwrap()
        );
        assert_eq!(
            scrub,
            write_hammer(7, MitigationMode::ScrubOnly)
                .unwrap()
                .run()
                .unwrap()
        );
    }
}
