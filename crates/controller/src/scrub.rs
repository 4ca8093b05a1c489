//! Background scrub / read-reclaim.
//!
//! Read disturb and retention loss (see [`mlcx_nand::disturb`]) are the
//! two failure mechanisms that *accumulate between writes*: every read
//! of a block soft-programs its neighbours, and stored charge detraps
//! over time. The standard mitigation — read-reclaim, a.k.a. scrubbing
//! (Cai et al., arXiv:1805.02819; the error-mitigation survey,
//! arXiv:1706.08642) — relocates a pressed block's live pages and erases
//! it, resetting both clocks at the price of extra relocation writes and
//! an erase cycle. That price is exactly the reliability-performance
//! trade-off this crate exists to expose: scrub traffic competes with
//! host traffic for bus and cell time.
//!
//! A [`ScrubPolicy`] is also the scanner that enforces it: it checks a
//! block range's disturb state (reads since erase, oldest data age —
//! both exposed by [`NandDevice`]) against its thresholds, and turns the
//! most-pressed candidates into relocate+erase plans through
//! [`LogicalMap::plan_reclaim`] — the same [`FtlOp`] machinery garbage
//! collection uses, so callers execute scrub plans on whatever datapath
//! they already drive (the workload simulator compiles them into engine
//! `Relocate`/`ScrubErase` commands, charged to the channel scheduler
//! like any other operation).
//!
//! A pass keeps no counter: its account is the returned plan (one
//! [`FtlOp::Erase`] per reclaimed block, one [`FtlOp::Relocate`] per
//! moved page) and, once executed on the engine, the
//! `scrub_erases`/`scrub_relocations` counters of its completions. The
//! map's [`crate::FtlStats::interference_reclaims`] records the one fact
//! no plan carries: why a block was reclaimed.

use std::ops::Range;

use mlcx_nand::disturb::DisturbModel;
use mlcx_nand::NandDevice;

use crate::ftl::{FtlOp, LogicalMap};

/// When a block qualifies for read-reclaim, and how much reclaim work a
/// single pass may emit — and the scanner that plans those passes.
///
/// The default ([`ScrubPolicy::disabled`]) never qualifies anything, so
/// every stack layer carries the knob at zero behavioral cost until a
/// caller opts in.
///
/// # Example
///
/// ```
/// use mlcx_controller::ScrubPolicy;
/// use mlcx_controller::{ControllerConfig, LogicalMap, MemoryController};
///
/// let mut ctrl = MemoryController::new(ControllerConfig::date2012(), 1)?;
/// for block in 0..4 {
///     ctrl.erase_block(block)?;
/// }
/// let mut map = LogicalMap::new(0..4, 128);
/// let policy = ScrubPolicy {
///     read_threshold: 1_000,
///     ..ScrubPolicy::date2012()
/// };
/// // Nothing is pressed yet: the pass is empty.
/// assert!(policy.plan_pass(ctrl.device(), &mut map).is_empty());
/// # Ok::<(), mlcx_controller::CtrlError>(())
/// ```
///
/// # Precedence with read-retry
///
/// Scrub and read-retry ([`crate::retry::RetryPolicy`]) are independent
/// knobs and may both be enabled. **Scrub is batch-scoped and
/// data-movement-domain**: [`ScrubPolicy::plan_pass`] plans relocations
/// against the *flushed* device state between batches, paying write
/// amplification and erase cycles. **Retry is per-read and
/// voltage-domain**: it re-senses an individual failing read at stepped
/// reference offsets, paying read latency, and never moves data. The
/// two compose rather than conflict — retry senses still bump the
/// read-disturb accumulator the scrubber scans, so retried blocks keep
/// marching toward the scrub thresholds, and a scrub erase resets both
/// the accumulator and the block's learned read offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubPolicy {
    /// Reads since erase at which a block qualifies (`u64::MAX` never
    /// triggers).
    pub read_threshold: u64,
    /// Oldest-data age in hours at which a block qualifies
    /// (`f64::INFINITY` never triggers; only blocks actually holding
    /// data are considered).
    pub retention_age_hours: f64,
    /// Worst per-page program-interference RBER
    /// ([`mlcx_nand::NandDevice::block_interference_rber`]) at which a
    /// block qualifies (`f64::INFINITY` never triggers). A partially
    /// programmed page or a neighbor-hammered wordline crosses this long
    /// before the read/age clocks do — it is the scrub path's view of
    /// the program-side failure mechanisms.
    pub interference_rber_threshold: f64,
    /// Blocks reclaimed per scrub pass, bounding how much maintenance
    /// traffic a single pass may inject ahead of host commands (0
    /// disables scrubbing outright).
    pub max_blocks_per_pass: usize,
}

impl ScrubPolicy {
    /// The characterization-anchored policy: reclaim at
    /// [`DisturbModel::SCRUB_READ_THRESHOLD`] reads or one year of data
    /// age, one block per pass.
    pub fn date2012() -> Self {
        ScrubPolicy {
            read_threshold: DisturbModel::SCRUB_READ_THRESHOLD,
            retention_age_hours: 8760.0,
            interference_rber_threshold: 1e-4,
            max_blocks_per_pass: 1,
        }
    }

    /// A policy that never scrubs — the paper's evaluation conditions,
    /// and the default everywhere.
    pub fn disabled() -> Self {
        ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: f64::INFINITY,
            interference_rber_threshold: f64::INFINITY,
            max_blocks_per_pass: 0,
        }
    }

    /// Whether this policy can ever emit reclaim work.
    pub fn is_enabled(&self) -> bool {
        self.max_blocks_per_pass > 0
            && (self.read_threshold < u64::MAX
                || self.retention_age_hours.is_finite()
                || self.interference_rber_threshold.is_finite())
    }

    /// Blocks of `blocks` whose disturb state crossed a policy
    /// threshold, most-pressed first (pressure = reads, age and
    /// program-interference RBER, each normalized to its threshold).
    /// Out-of-range blocks are ignored.
    pub fn candidates(&self, device: &NandDevice, blocks: Range<usize>) -> Vec<usize> {
        self.pressed(device, blocks)
            .into_iter()
            .map(|(_, _, b)| b)
            .collect()
    }

    /// Qualifying blocks as `(pressure, interference_qualified, block)`
    /// triples, most-pressed first — `interference_qualified` marks a
    /// block the interference threshold alone would have reclaimed (the
    /// attribution the FTL's `interference_reclaims` counter records).
    fn pressed(&self, device: &NandDevice, blocks: Range<usize>) -> Vec<(f64, bool, usize)> {
        if !self.is_enabled() {
            return Vec::new();
        }
        let mut pressed: Vec<(f64, bool, usize)> = Vec::new();
        for block in blocks {
            let Ok(reads) = device.block_reads_since_erase(block) else {
                continue;
            };
            let Ok(age) = device.block_data_age_hours(block) else {
                continue;
            };
            let read_pressure = if self.read_threshold == u64::MAX {
                0.0
            } else {
                reads as f64 / self.read_threshold.max(1) as f64
            };
            let age_pressure = if self.retention_age_hours.is_finite() {
                // `age > 0` only when the block actually stores data, so
                // a degenerate zero-hour threshold cannot flag blanks.
                if age > 0.0 && self.retention_age_hours <= 0.0 {
                    1.0
                } else if self.retention_age_hours > 0.0 {
                    age / self.retention_age_hours
                } else {
                    0.0
                }
            } else {
                0.0
            };
            let interference_pressure = if self.interference_rber_threshold.is_finite() {
                let rber = device.block_interference_rber(block).unwrap_or(0.0);
                // Same blank-guard shape as the age clock: only a block
                // actually carrying interference can trip a degenerate
                // zero threshold.
                if rber > 0.0 && self.interference_rber_threshold <= 0.0 {
                    1.0
                } else if self.interference_rber_threshold > 0.0 {
                    rber / self.interference_rber_threshold
                } else {
                    0.0
                }
            } else {
                0.0
            };
            if read_pressure >= 1.0 || age_pressure >= 1.0 || interference_pressure >= 1.0 {
                let pressure = read_pressure.max(age_pressure).max(interference_pressure);
                pressed.push((pressure, interference_pressure >= 1.0, block));
            }
        }
        // Most-pressed first; ties broken by block id for determinism.
        pressed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
        pressed
    }

    /// One scrub pass over a map: plans read-reclaim for up to
    /// [`ScrubPolicy::max_blocks_per_pass`] of the most-pressed
    /// candidates, advancing the map's state (the caller must execute
    /// the returned ops in order, exactly like a GC plan). Candidates
    /// the map cannot relocate right now are skipped, not failed —
    /// background maintenance must never take down the host path.
    pub fn plan_pass(&self, device: &NandDevice, map: &mut LogicalMap) -> Vec<FtlOp> {
        if !self.is_enabled() {
            return Vec::new();
        }
        let mut ops = Vec::new();
        let mut reclaimed = 0;
        for (_, interference_qualified, block) in self.pressed(device, map.blocks()) {
            if reclaimed >= self.max_blocks_per_pass {
                break;
            }
            let mut wear = |b: usize| device.block_cycles(b).unwrap_or(0);
            // `OutOfSpace` (plan_reclaim's only error today; a future one
            // is still just a skipped candidate to the background path)
            // and an empty plan both skip the block.
            let Ok(plan) = map.plan_reclaim(block, &mut wear) else {
                continue;
            };
            if plan.is_empty() {
                continue;
            }
            reclaimed += 1;
            if interference_qualified {
                map.note_interference_reclaim();
            }
            ops.extend(plan);
        }
        ops
    }
}

impl Default for ScrubPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControllerConfig, MemoryController};

    fn pressed_controller() -> MemoryController {
        let mut config = ControllerConfig::date2012();
        config.geometry.blocks = 6;
        config.geometry.pages_per_block = 4;
        config.disturb = DisturbModel::date2012();
        let mut ctrl = MemoryController::new(config, 9).unwrap();
        for block in 0..6 {
            ctrl.erase_block(block).unwrap();
        }
        ctrl
    }

    /// Blocks a plan reclaims: one erase each.
    fn erases(plan: &[FtlOp]) -> usize {
        plan.iter()
            .filter(|op| matches!(op, FtlOp::Erase { .. }))
            .count()
    }

    /// Pages a plan moves: one relocation each.
    fn relocations(plan: &[FtlOp]) -> usize {
        plan.iter()
            .filter(|op| matches!(op, FtlOp::Relocate { .. }))
            .count()
    }

    #[test]
    fn disabled_policy_never_qualifies() {
        assert!(!ScrubPolicy::disabled().is_enabled());
        assert!(ScrubPolicy::date2012().is_enabled());
        assert!(!ScrubPolicy {
            max_blocks_per_pass: 0,
            ..ScrubPolicy::date2012()
        }
        .is_enabled());

        let ctrl = pressed_controller();
        let mut map = LogicalMap::new(0..6, 4);
        let policy = ScrubPolicy::disabled();
        assert!(policy.candidates(ctrl.device(), 0..6).is_empty());
        assert!(policy.plan_pass(ctrl.device(), &mut map).is_empty());
    }

    #[test]
    fn read_hammered_blocks_become_candidates_in_pressure_order() {
        let mut ctrl = pressed_controller();
        let data = vec![0u8; 4096];
        ctrl.write_page(0, 0, &data).unwrap();
        ctrl.write_page(1, 0, &data).unwrap();
        for _ in 0..30 {
            ctrl.read_page(0, 0).unwrap();
        }
        for _ in 0..80 {
            ctrl.read_page(1, 0).unwrap();
        }
        let policy = ScrubPolicy {
            read_threshold: 25,
            ..ScrubPolicy::date2012()
        };
        // Block 1 (80 reads) is more pressed than block 0 (30 reads).
        assert_eq!(policy.candidates(ctrl.device(), 0..6), vec![1, 0]);
        let below = ScrubPolicy {
            read_threshold: 1_000,
            ..ScrubPolicy::date2012()
        };
        assert!(below.candidates(ctrl.device(), 0..6).is_empty());
    }

    #[test]
    fn aged_data_becomes_a_candidate_and_blank_blocks_never_do() {
        let mut ctrl = pressed_controller();
        ctrl.write_page(2, 0, vec![0u8; 4096]).unwrap();
        ctrl.device_mut().advance_time_hours(500.0).unwrap();
        let policy = ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: 400.0,
            interference_rber_threshold: f64::INFINITY,
            max_blocks_per_pass: 1,
        };
        // Only the block holding 500-hour-old data qualifies; the blank
        // blocks share the device clock but store nothing.
        assert_eq!(policy.candidates(ctrl.device(), 0..6), vec![2]);
    }

    #[test]
    fn interference_pressed_blocks_qualify_and_reclaims_are_attributed() {
        let mut ctrl = pressed_controller();
        let mut map = LogicalMap::new(0..6, 4);
        let mut wear = |_b: usize| 0u64;
        let plan = map.plan_write(0, &mut wear).unwrap();
        let [FtlOp::Write { to, .. }] = plan[..] else {
            panic!("fresh map must plan a bare write");
        };
        // Interrupt the program: the page's partial-program RBER dwarfs
        // the interference threshold while the read/age clocks are cold.
        ctrl.device_mut().arm_partial_program(0.3);
        ctrl.write_page(to.0, to.1, vec![0u8; 4096]).unwrap();
        let policy = ScrubPolicy {
            read_threshold: u64::MAX,
            retention_age_hours: f64::INFINITY,
            interference_rber_threshold: 1e-3,
            max_blocks_per_pass: 1,
        };
        assert_eq!(policy.candidates(ctrl.device(), 0..6), vec![to.0]);
        let plan = policy.plan_pass(ctrl.device(), &mut map);
        assert!(matches!(plan.last(), Some(FtlOp::Erase { .. })));
        assert_eq!(erases(&plan), 1);
        // The reclaim is attributed to interference pressure.
        assert_eq!(map.stats().interference_reclaims, 1);
    }

    #[test]
    fn plan_pass_reclaims_bounded_work_and_counts_it() {
        let mut ctrl = pressed_controller();
        let mut map = LogicalMap::new(0..6, 4);
        let data = vec![0u8; 4096];
        let mut wear = |_b: usize| 0u64;
        // Map lpns 0..4 onto block 0, 4..8 onto block 1 (plan + execute
        // by hand so the device and map agree).
        for lpn in 0..8usize {
            let plan = map.plan_write(lpn, &mut wear).unwrap();
            let [FtlOp::Write { to, .. }] = plan[..] else {
                panic!("fresh map must plan bare writes");
            };
            ctrl.write_page(to.0, to.1, &data).unwrap();
        }
        for _ in 0..50 {
            ctrl.read_page(0, 0).unwrap();
            ctrl.read_page(1, 0).unwrap();
        }
        let policy = ScrubPolicy {
            read_threshold: 40,
            retention_age_hours: f64::INFINITY,
            interference_rber_threshold: f64::INFINITY,
            max_blocks_per_pass: 1,
        };
        let plan = policy.plan_pass(ctrl.device(), &mut map);
        // One block per pass: 4 relocations + 1 erase, nothing more.
        assert_eq!(plan.len(), 5);
        assert_eq!(relocations(&plan), 4);
        assert_eq!(erases(&plan), 1);
        assert!(matches!(plan[4], FtlOp::Erase { .. }));
        // Execute the plan; the second pass then reclaims the other
        // pressed block.
        for op in plan {
            match op {
                FtlOp::Relocate { from, to, .. } => {
                    let page = ctrl.read_page(from.0, from.1).unwrap().data;
                    ctrl.write_page(to.0, to.1, &page).unwrap();
                }
                FtlOp::Erase { block } => {
                    ctrl.erase_block(block).unwrap();
                }
                FtlOp::Write { .. } => unreachable!(),
            }
        }
        assert_eq!(ctrl.device().block_reads_since_erase(0).unwrap(), 0);
        let plan = policy.plan_pass(ctrl.device(), &mut map);
        assert!(matches!(plan.last(), Some(FtlOp::Erase { block: 1 })));
        assert_eq!(erases(&plan), 1);
    }
}
