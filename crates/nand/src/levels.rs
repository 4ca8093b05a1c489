//! MLC threshold-voltage levels, references and data mapping (Fig. 3).

use std::fmt;

/// The four threshold-voltage levels of a 2-bit/cell (4LC) MLC device.
///
/// `L0` is the erased state (distribution below 0 V); a Program operation
/// moves selected cells onto `L1`-`L3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MlcLevel {
    /// Erased level (negative threshold voltage).
    L0,
    /// First programmed level.
    L1,
    /// Second programmed level.
    L2,
    /// Third (highest) programmed level.
    L3,
}

impl MlcLevel {
    /// All four levels in ascending threshold order.
    pub const ALL: [MlcLevel; 4] = [MlcLevel::L0, MlcLevel::L1, MlcLevel::L2, MlcLevel::L3];

    /// Level index 0..=3.
    pub fn index(self) -> usize {
        match self {
            MlcLevel::L0 => 0,
            MlcLevel::L1 => 1,
            MlcLevel::L2 => 2,
            MlcLevel::L3 => 3,
        }
    }

    /// Level from an index 0..=3.
    ///
    /// # Panics
    ///
    /// Panics if `idx > 3`.
    pub fn from_index(idx: usize) -> Self {
        Self::ALL[idx]
    }

    /// The two stored bits under the standard MLC Gray mapping
    /// (L0 = 11, L1 = 01, L2 = 00, L3 = 10), as `(lower_page_bit,
    /// upper_page_bit)`.
    ///
    /// Gray coding means a one-level misread corrupts exactly one of the
    /// two bits — the property the analytic RBER model relies on.
    pub fn gray_bits(self) -> (u8, u8) {
        match self {
            MlcLevel::L0 => (1, 1),
            MlcLevel::L1 => (0, 1),
            MlcLevel::L2 => (0, 0),
            MlcLevel::L3 => (1, 0),
        }
    }

    /// Inverse of [`MlcLevel::gray_bits`].
    pub fn from_gray_bits(lower: u8, upper: u8) -> Self {
        match (lower & 1, upper & 1) {
            (1, 1) => MlcLevel::L0,
            (0, 1) => MlcLevel::L1,
            (0, 0) => MlcLevel::L2,
            _ => MlcLevel::L3,
        }
    }
}

impl fmt::Display for MlcLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.index())
    }
}

/// Read, verify and over-programming voltage references of the device
/// (the annotated quantities of the paper's Fig. 3).
///
/// # Example
///
/// ```
/// use mlcx_nand::ThresholdSpec;
///
/// let spec = ThresholdSpec::date2012();
/// // References interleave: R1 < VFY1 < R2 < VFY2 < R3 < VFY3 < OP.
/// assert!(spec.read_v[0] < spec.verify_v[0]);
/// assert!(spec.verify_v[2] < spec.over_program_v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSpec {
    /// Mean of the erased (L0) distribution, volts.
    pub erased_mean_v: f64,
    /// Standard deviation of the erased distribution, volts.
    pub erased_sigma_v: f64,
    /// Read levels R1..R3, volts.
    pub read_v: [f64; 3],
    /// Verify levels VFY1..VFY3, volts.
    pub verify_v: [f64; 3],
    /// Pre-verify offset of the double-verify algorithm (the DV prior
    /// verify sits at `VFYk - pre_verify_offset_v`), volts.
    pub pre_verify_offset_v: f64,
    /// Over-programming limit OP, volts.
    pub over_program_v: f64,
}

impl ThresholdSpec {
    /// The 45 nm case-study reference set.
    pub fn date2012() -> Self {
        ThresholdSpec {
            erased_mean_v: -2.8,
            erased_sigma_v: 0.35,
            read_v: [-0.60, 1.82, 3.22],
            verify_v: [1.00, 2.40, 3.80],
            pre_verify_offset_v: 0.15,
            over_program_v: 5.20,
        }
    }

    /// The verify level a programmed target level must pass.
    ///
    /// # Panics
    ///
    /// Panics for [`MlcLevel::L0`] (erased cells are never verified).
    pub(crate) fn verify_for(&self, level: MlcLevel) -> f64 {
        assert!(level != MlcLevel::L0, "L0 has no verify level");
        self.verify_v[level.index() - 1]
    }

    /// Classifies a threshold voltage against the read references.
    pub fn classify(&self, vth: f64) -> MlcLevel {
        if vth < self.read_v[0] {
            MlcLevel::L0
        } else if vth < self.read_v[1] {
            MlcLevel::L1
        } else if vth < self.read_v[2] {
            MlcLevel::L2
        } else {
            MlcLevel::L3
        }
    }

    /// Number of differing bits between the Gray codes of two levels —
    /// the bit cost of a misread between them.
    pub(crate) fn bit_errors_between(a: MlcLevel, b: MlcLevel) -> u32 {
        let (al, au) = a.gray_bits();
        let (bl, bu) = b.gray_bits();
        u32::from(al != bl) + u32::from(au != bu)
    }
}

impl Default for ThresholdSpec {
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_interleave() {
        let s = ThresholdSpec::date2012();
        assert!(s.erased_mean_v < s.read_v[0]);
        for k in 0..3 {
            assert!(s.read_v[k] < s.verify_v[k]);
            if k > 0 {
                assert!(s.verify_v[k - 1] < s.read_v[k]);
            }
        }
        assert!(s.verify_v[2] < s.over_program_v);
    }

    #[test]
    fn gray_mapping_round_trip() {
        for level in MlcLevel::ALL {
            let (l, u) = level.gray_bits();
            assert_eq!(MlcLevel::from_gray_bits(l, u), level);
        }
    }

    #[test]
    fn gray_adjacent_levels_differ_by_one_bit() {
        for w in MlcLevel::ALL.windows(2) {
            assert_eq!(ThresholdSpec::bit_errors_between(w[0], w[1]), 1);
        }
        // Non-adjacent L0 <-> L2 costs both bits.
        assert_eq!(
            ThresholdSpec::bit_errors_between(MlcLevel::L0, MlcLevel::L2),
            2
        );
    }

    #[test]
    fn classification_matches_read_levels() {
        let s = ThresholdSpec::date2012();
        assert_eq!(s.classify(-2.5), MlcLevel::L0);
        assert_eq!(s.classify(1.0), MlcLevel::L1);
        assert_eq!(s.classify(2.5), MlcLevel::L2);
        assert_eq!(s.classify(4.2), MlcLevel::L3);
        // Boundary behaviour: exactly at R2 reads as L2.
        assert_eq!(s.classify(s.read_v[1]), MlcLevel::L2);
    }

    #[test]
    fn verify_for_programmed_levels() {
        let s = ThresholdSpec::date2012();
        assert_eq!(s.verify_for(MlcLevel::L1), 1.00);
        assert_eq!(s.verify_for(MlcLevel::L3), 3.80);
    }

    #[test]
    #[should_panic(expected = "L0 has no verify level")]
    fn verify_for_l0_panics() {
        ThresholdSpec::date2012().verify_for(MlcLevel::L0);
    }

    #[test]
    fn display_and_index_round_trip() {
        for (i, level) in MlcLevel::ALL.iter().enumerate() {
            assert_eq!(level.index(), i);
            assert_eq!(MlcLevel::from_index(i), *level);
            assert_eq!(level.to_string(), format!("L{i}"));
        }
    }
}
