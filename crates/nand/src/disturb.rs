//! Read-disturb and data-retention models.
//!
//! Section 1 of the paper lists the primary MLC failure mechanisms:
//! threshold-voltage distribution shifting, program/read disturb, data
//! retention, endurance and single-event upset. The evaluation only
//! sweeps endurance (P/E cycling); this module adds the two other
//! workload-dependent mechanisms so device-level studies can layer them
//! on top of the calibrated endurance curves:
//!
//! * **read disturb** — every read of a block weakly soft-programs its
//!   unselected pages; the error contribution grows linearly with the
//!   read count since the last erase and resets on erase;
//! * **retention loss** — charge detrapping shifts programmed cells over
//!   time; the effect grows with elapsed time (log-like) and is strongly
//!   accelerated by prior cycling.
//!
//! Constants are representative of 4x-nm MLC literature (a block starts
//! to need scrubbing after ~100k reads — see
//! [`DisturbModel::SCRUB_READ_THRESHOLD`], where the accumulated disturb
//! RBER rivals the mid-life endurance RBER — or after months parked at
//! high wear) and are deliberately secondary to the paper-calibrated
//! endurance RBER, which still dominates at end of life.
//!
//! # Vth shift and read-reference offsets
//!
//! Both mechanisms act by *shifting* the programmed threshold-voltage
//! distributions — retention loss moves them down, read disturb moves
//! erased/low states up (Cai et al., arXiv:1805.02819). A read sensed at
//! the nominal references therefore misclassifies the cells the shift
//! pushed across a reference; a read sensed at a *moved* reference that
//! tracks the shift recovers most of them (arXiv:2209.01424). The model
//! exposes this voltage-domain axis through
//! [`DisturbModel::rber_at_offset`], the additive RBER when sensing at a
//! stepped reference offset (the shift, in steps, is the offset-0 RBER
//! over [`DisturbModel::rber_per_step`]). Offset zero is *exactly* the
//! nominal sum — the pre-retry datapath, bit-for-bit — while an offset
//! near the shift collapses the additive RBER to its unrecoverable
//! residual (distribution widening no reference placement can undo).

/// Additive RBER contributions from workload-dependent mechanisms.
///
/// # Example
///
/// ```
/// use mlcx_nand::disturb::DisturbModel;
///
/// let m = DisturbModel::date2012();
/// // A heavily-read block accumulates a visible disturb floor.
/// assert!(m.read_disturb_rber(1_000_000) > m.read_disturb_rber(1_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisturbModel {
    /// RBER added per block read since the last erase.
    pub read_disturb_per_read: f64,
    /// Retention RBER scale at the end-of-life wear point, per decade of
    /// hours.
    pub retention_scale: f64,
    /// Wear exponent of retention acceleration.
    pub retention_wear_exponent: f64,
    /// End-of-life cycle count the retention scale is referenced to.
    pub reference_cycles: f64,
    /// Additive RBER one reference step of Vth misalignment is worth.
    ///
    /// Converts the mechanisms' additive RBER into an equivalent Vth
    /// shift expressed in read-reference steps (the additive RBER over
    /// this constant): the larger this constant, the fewer steps a given
    /// disturb/retention RBER corresponds to. Must stay nonzero even in
    /// [`DisturbModel::disabled`] so the conversion is always
    /// well-defined.
    pub rber_per_step: f64,
    /// Fraction of the additive RBER that no reference offset recovers.
    ///
    /// Shifted distributions also *widen*; sensing at the shifted
    /// optimum still misreads the overlap tails. This is the floor
    /// [`DisturbModel::rber_at_offset`] converges to at the optimal
    /// offset.
    pub offset_residual_fraction: f64,
    /// RBER penalty per squared step of offset applied to an *unshifted*
    /// distribution.
    ///
    /// Moving the reference away from a well-placed nominal point
    /// misreads cells near the references; this keeps a nonzero offset
    /// from ever being free.
    pub offset_misread_rber: f64,
    /// RBER added to a *programmed* wordline-adjacent neighbour each
    /// time a page is programmed next to it (cell-to-cell program
    /// interference, Cai et al. arXiv:1805.03291). Blank neighbours are
    /// untouched — parasitic coupling only corrupts stored charge, the
    /// same rule read disturb follows for blank pages.
    pub program_coupling_rber: f64,
    /// RBER added to a block's programmed pages per program executed on
    /// *other* blocks of the same die since the block's last erase
    /// (inhibited-bitline program-disturb stress — the program-side
    /// analogue of [`DisturbModel::read_disturb_per_read`]).
    pub program_disturb_per_program: f64,
    /// Additive RBER of a partially-programmed page per missing
    /// fraction of its ISPP staircase: a program interrupted after `k`
    /// of `N` pulses (power loss) leaves `1 - k/N` of the charge
    /// placement undone, and the page reads back corrupt until erased.
    pub partial_program_rber: f64,
}

impl DisturbModel {
    /// Reads-since-erase at which a [`DisturbModel::date2012`] block
    /// needs scrubbing: the accumulated disturb RBER
    /// (`read_disturb_per_read * SCRUB_READ_THRESHOLD` = 2e-4) is then
    /// comparable to the mid-life endurance RBER itself, eating the ECC
    /// margin the schedule provisioned. Scrub policies
    /// (`mlcx_controller::ScrubPolicy`) anchor their read
    /// threshold here; the `scrub_threshold_is_material` unit test pins
    /// the constant to the claim.
    pub const SCRUB_READ_THRESHOLD: u64 = 100_000;

    /// Representative 45 nm MLC constants.
    pub fn date2012() -> Self {
        DisturbModel {
            read_disturb_per_read: 2.0e-9,
            retention_scale: 2.5e-5,
            retention_wear_exponent: 0.5,
            reference_cycles: 1e6,
            rber_per_step: 1e-4,
            offset_residual_fraction: 0.05,
            offset_misread_rber: 1e-5,
            program_coupling_rber: 5.0e-7,
            program_disturb_per_program: 5.0e-9,
            partial_program_rber: 5.0e-2,
        }
    }

    /// A model with both mechanisms disabled (the paper's evaluation
    /// conditions). The reference-offset constants stay at their
    /// [`DisturbModel::date2012`] values so the step conversion remains
    /// well-defined; with both mechanisms off the shift is zero and any
    /// nonzero offset only costs [`DisturbModel::offset_misread_rber`].
    pub fn disabled() -> Self {
        DisturbModel {
            read_disturb_per_read: 0.0,
            retention_scale: 0.0,
            retention_wear_exponent: 0.5,
            reference_cycles: 1e6,
            rber_per_step: 1e-4,
            offset_residual_fraction: 0.05,
            offset_misread_rber: 1e-5,
            program_coupling_rber: 0.0,
            program_disturb_per_program: 0.0,
            partial_program_rber: 0.0,
        }
    }

    /// Whether any mechanism can contribute RBER.
    pub fn is_enabled(&self) -> bool {
        self.read_disturb_per_read != 0.0 || self.retention_enabled() || self.interference_enabled()
    }

    /// Whether any *program-side* mechanism (neighbour coupling,
    /// die-level program disturb, partial-program injection) can
    /// contribute RBER.
    pub(crate) fn interference_enabled(&self) -> bool {
        let coupling = self.program_coupling_rber != 0.0;
        let die_disturb = self.program_disturb_per_program != 0.0;
        let partial = self.partial_program_rber != 0.0;
        coupling || die_disturb || partial
    }

    /// Whether the retention mechanism is active (a zero scale is the
    /// disabled sentinel [`DisturbModel::disabled`] assigns).
    pub fn retention_enabled(&self) -> bool {
        self.retention_scale != 0.0
    }

    /// RBER contribution after `reads` block reads since the last erase.
    pub fn read_disturb_rber(&self, reads: u64) -> f64 {
        self.read_disturb_per_read * reads as f64
    }

    /// RBER contribution after `hours` of retention at a given wear.
    pub fn retention_rber(&self, hours: f64, cycles: u64) -> f64 {
        if hours <= 0.0 || !self.retention_enabled() {
            return 0.0;
        }
        let wear =
            (cycles.max(1) as f64 / self.reference_cycles).powf(self.retention_wear_exponent);
        self.retention_scale * wear * (1.0 + hours).log10()
    }

    /// The program-side terms of `events` adjacent programs, `programs`
    /// programs on other blocks of the die and a staircase left `missing`
    /// (0..=1) undone; every other term 0.0.
    pub(crate) fn program_terms(&self, events: u64, programs: u64, missing: f64) -> RberTerms {
        RberTerms {
            coupling: self.program_coupling_rber * events as f64,
            program_disturb: self.program_disturb_per_program * programs as f64,
            partial: self.partial_program_rber * missing,
            ..RberTerms::default()
        }
    }

    /// Total program-side additive RBER of a page: exactly 0.0 whenever
    /// all three mechanisms are disabled, whatever the counters say — the
    /// disabled datapath stays bit-identical.
    pub fn interference_rber(&self, events: u64, programs: u64, missing: f64) -> f64 {
        self.program_terms(events, programs, missing).interference()
    }

    /// Additive RBER when the page is sensed at read-reference `offset`
    /// (in steps, signed), of read disturb + retention + `interference`
    /// (the program-side term, see [`DisturbModel::interference_rber`]):
    /// that nominal sum itself at offset 0 (the pre-retry datapath,
    /// bit-for-bit); the unrecoverable residual (`offset_residual_fraction`
    /// of nominal — widening no reference undoes) at the shift, nominal /
    /// `rber_per_step` steps, growing quadratically with the mismatch;
    /// and, on an unshifted page, [`DisturbModel::offset_misread_rber`]
    /// per squared step — a stale learned offset is never free.
    /// Interference shifts the distributions like retention, so a tracking
    /// reference recovers it — except a partial program's, beyond any ladder.
    pub fn rber_at_offset(
        &self,
        reads: u64,
        hours: f64,
        cycles: u64,
        interference: f64,
        offset: i32,
    ) -> f64 {
        let nominal =
            self.read_disturb_rber(reads) + self.retention_rber(hours, cycles) + interference;
        self.offset_rber(nominal, offset)
    }

    /// [`DisturbModel::rber_at_offset`] of a page whose nominal (offset-0)
    /// additive RBER is `nominal`.
    pub(crate) fn offset_rber(&self, nominal: f64, offset: i32) -> f64 {
        if offset == 0 {
            return nominal;
        }
        let shift = nominal / self.rber_per_step;
        let off = offset as f64;
        // Exactly 0.0 when every mechanism is off (assigned sentinels,
        // never computed): guards the division by `shift` below.
        if shift == 0.0 {
            return nominal + self.offset_misread_rber * off * off;
        }
        let residual = nominal * self.offset_residual_fraction;
        // 0 at the shifted optimum, -1 back at the nominal reference:
        // the quadratic reproduces `nominal` at offset 0 and penalizes
        // overshoot symmetrically.
        let dist = (off - shift) / shift;
        residual + (nominal - residual) * dist * dist
    }
}

impl Default for DisturbModel {
    fn default() -> Self {
        Self::date2012()
    }
}

/// The raw bit-error rate of one stored page, term by term (the split
/// of arXiv:1706.08642 and arXiv:1805.03291): what a read of the page
/// injects, and what the layers above read instead of adding the terms
/// up again. A term whose mechanism the [`DisturbModel`] disables is
/// exactly 0.0, and so is every term of a blank page.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RberTerms {
    /// P/E wear: [`crate::AgingModel::rber`] at the page's program time.
    pub endurance: f64,
    /// Read disturb of the block's earlier reads since its erase.
    pub read_disturb: f64,
    /// Retention loss since the page was programmed.
    pub retention: f64,
    /// Coupling from programs of the wordline-adjacent page.
    pub coupling: f64,
    /// Program disturb from programs on other blocks of the die.
    pub program_disturb: f64,
    /// Corruption left by an interrupted program.
    pub partial: f64,
}

impl RberTerms {
    /// The program-side part: [`DisturbModel::interference_rber`], to
    /// the bit.
    pub fn interference(&self) -> f64 {
        self.coupling + self.program_disturb + self.partial
    }

    /// What a sense at `offset` adds to the endurance term:
    /// [`DisturbModel::rber_at_offset`], to the bit.
    pub(crate) fn disturb_at(&self, model: &DisturbModel, offset: i32) -> f64 {
        let nominal = self.read_disturb + self.retention + self.interference();
        model.offset_rber(nominal, offset)
    }

    /// The RBER a sense at `offset` injects, capped at 0.5.
    pub(crate) fn sensed_at(&self, model: &DisturbModel, offset: i32) -> f64 {
        (self.endurance + self.disturb_at(model, offset)).min(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_disturb_linear_and_resettable() {
        let m = DisturbModel::date2012();
        assert_eq!(m.read_disturb_rber(0), 0.0);
        let r1 = m.read_disturb_rber(100_000);
        let r2 = m.read_disturb_rber(200_000);
        assert!((r2 - 2.0 * r1).abs() < 1e-18);
    }

    #[test]
    fn retention_grows_with_time_and_wear() {
        let m = DisturbModel::date2012();
        assert_eq!(m.retention_rber(0.0, 1_000_000), 0.0);
        let day = m.retention_rber(24.0, 1_000_000);
        let year = m.retention_rber(8760.0, 1_000_000);
        assert!(year > day && day > 0.0);
        // Fresh blocks retain far better than worn ones.
        let fresh = m.retention_rber(8760.0, 100);
        assert!(fresh < year / 10.0, "fresh {fresh:e} vs worn {year:e}");
    }

    #[test]
    fn retention_stays_secondary_to_endurance_at_eol() {
        // One year of retention at end of life must stay below the
        // endurance RBER itself (1e-3) so the paper's curves dominate.
        let m = DisturbModel::date2012();
        assert!(m.retention_rber(8760.0, 1_000_000) < 1e-3 / 5.0);
    }

    #[test]
    fn scrub_threshold_is_material() {
        // The doc claim, as code: at SCRUB_READ_THRESHOLD reads the
        // disturb RBER must rival the mid-life endurance floor (~1e-4 at
        // 100k P/E cycles) — i.e. genuinely need scrubbing — while
        // staying below the 1e-3 end-of-life endurance RBER, so the
        // paper's calibrated curves keep dominating.
        let m = DisturbModel::date2012();
        let at_threshold = m.read_disturb_rber(DisturbModel::SCRUB_READ_THRESHOLD);
        assert!(
            at_threshold >= 1e-4,
            "threshold disturb {at_threshold:e} too weak to justify a scrub"
        );
        assert!(
            at_threshold < 1e-3 / 2.0,
            "threshold disturb {at_threshold:e} would dwarf the endurance RBER"
        );
    }

    #[test]
    fn disabled_model_contributes_nothing() {
        let m = DisturbModel::disabled();
        assert_eq!(m.rber_at_offset(1_000_000, 8760.0, 1_000_000, 0.0, 0), 0.0);
    }

    #[test]
    fn contributions_add() {
        let m = DisturbModel::date2012();
        let total = m.rber_at_offset(500_000, 100.0, 1_000_000, 0.0, 0);
        let parts = m.read_disturb_rber(500_000) + m.retention_rber(100.0, 1_000_000);
        assert!((total - parts).abs() < 1e-18);
    }

    #[test]
    fn zero_offset_is_bitwise_nominal() {
        let m = DisturbModel::date2012();
        for (reads, hours, cycles) in [
            (0, 0.0, 1),
            (50_000, 24.0, 100_000),
            (500_000, 8760.0, 1_000_000),
        ] {
            // `==` on purpose: the offset-0 path must return the very
            // same f64 the pre-retry datapath computed.
            assert!(
                m.rber_at_offset(reads, hours, cycles, 0.0, 0)
                    == m.read_disturb_rber(reads) + m.retention_rber(hours, cycles)
            );
        }
    }

    #[test]
    fn optimum_offset_recovers_to_the_residual() {
        let m = DisturbModel::date2012();
        let (reads, hours, cycles) = (DisturbModel::SCRUB_READ_THRESHOLD, 8760.0, 1_000_000);
        let nominal = m.rber_at_offset(reads, hours, cycles, 0.0, 0);
        let shift = nominal / m.rber_per_step;
        assert!(shift > 1.0, "the worst case must shift past one step");
        // The integer rung nearest the shift must land close to the
        // residual floor, and far below nominal.
        let best = m.rber_at_offset(reads, hours, cycles, 0.0, shift.round() as i32);
        let residual = nominal * m.offset_residual_fraction;
        assert!(best < nominal / 5.0, "best {best:e} vs nominal {nominal:e}");
        assert!(best >= residual, "no offset beats the widening residual");
    }

    #[test]
    fn offset_mismatch_grows_quadratically_and_symmetrically() {
        let m = DisturbModel::date2012();
        let (reads, hours, cycles) = (400_000, 8760.0, 1_000_000);
        let nominal = m.rber_at_offset(reads, hours, cycles, 0.0, 0);
        let shift = nominal / m.rber_per_step;
        let rung = shift.round() as i32;
        let near = m.rber_at_offset(reads, hours, cycles, 0.0, rung);
        let far = m.rber_at_offset(reads, hours, cycles, 0.0, rung + 3);
        assert!(far > near, "overshoot must be penalized");
        // Same |distance| from the optimum => same RBER.
        let a = m.rber_at_offset(reads, hours, cycles, 0.0, 2);
        let off = 2.0;
        let mirror = 2.0 * shift - off;
        let residual = nominal * m.offset_residual_fraction;
        let expect = residual + (nominal - residual) * ((off - shift) / shift).powi(2);
        assert!((a - expect).abs() < 1e-18, "quadratic form holds");
        assert!(mirror.is_finite());
    }

    #[test]
    fn interference_terms_add_and_disable_cleanly() {
        let m = DisturbModel::date2012();
        assert!(m.interference_enabled());
        let total = m.interference_rber(3, 1_000, 0.5);
        let t = m.program_terms(3, 1_000, 0.5);
        assert_eq!(t.coupling, 3.0 * m.program_coupling_rber);
        assert_eq!(t.program_disturb, 1_000.0 * m.program_disturb_per_program);
        assert!((total - (t.coupling + t.program_disturb + t.partial)).abs() < 1e-18);
        // A half-finished staircase reads back hopelessly corrupt.
        assert!(t.partial > 1e-2);

        let off = DisturbModel::disabled();
        assert!(!off.interference_enabled());
        // Counters without a mechanism contribute exactly nothing.
        assert_eq!(off.interference_rber(1_000_000, 1_000_000, 1.0), 0.0);
    }

    #[test]
    fn interference_shifts_the_distributions_like_retention() {
        // A coupled page's interference RBER must be recoverable by a
        // reference offset tracking the enlarged shift — while a partial
        // program's shift is beyond any realistic ladder.
        let m = DisturbModel {
            program_coupling_rber: 1e-4,
            ..DisturbModel::disabled()
        };
        let interference = m.interference_rber(3, 0, 0.0);
        let nominal = m.rber_at_offset(0, 0.0, 1, interference, 0);
        assert!((nominal - 3e-4).abs() < 1e-18);
        let shift = nominal / m.rber_per_step; // 3 steps
        let best = m.rber_at_offset(0, 0.0, 1, interference, shift as i32);
        assert!(best < nominal / 5.0, "tracking offset must recover");

        let partial = DisturbModel::date2012();
        let steps = partial.program_terms(0, 0, 1.0).partial / partial.rber_per_step;
        assert!(steps > 100.0, "partial-program shift outruns the ladder");
    }

    #[test]
    fn offsets_on_unshifted_pages_cost_misreads() {
        let m = DisturbModel::disabled();
        assert_eq!(m.rber_at_offset(1_000, 100.0, 1_000_000, 0.0, 0), 0.0);
        let one = m.rber_at_offset(1_000, 100.0, 1_000_000, 0.0, 1);
        let two = m.rber_at_offset(1_000, 100.0, 1_000_000, 0.0, -2);
        assert!(one > 0.0 && (two - 4.0 * one).abs() < 1e-18);
    }
}
