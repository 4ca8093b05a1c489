//! The host-time estimator: per-segment lower quartiles of time measured
//! against a reference loop, over repetitions.
//!
//! A workload is a fixed sequence of segments doing identical work in
//! every repetition. The box's core clock moves between its base and turbo
//! states on a time scale of seconds, which shifts whole repetitions by
//! 25 %; and neighbours add slow stretches on top. So every segment is
//! timed together with a short reference loop (a dependent ALU chain,
//! run just before and just after it), each sample is the *ratio* of the
//! two, and a segment's estimate is the lower quartile of its ratios over
//! the repetitions: the quartile discards the slow stretches and sits in
//! the base-clock mode, the ratio removes most of the clock. Scaled by
//! what the reference loop takes at base clock, the sum over segments
//! reads as seconds at base clock.

use crate::stats::median_u64;

/// Dependent xorshift steps in one reference loop.
pub const REFERENCE_STEPS: u32 = 8_000;

/// What the reference loop takes at this box's base clock (2.1 GHz), ns:
/// the scale that turns ratios back into seconds. Measured: the mode of
/// the loop's time is 14.5 to 14.6 us at base clock and 11.4 at turbo.
pub const REFERENCE_NS: f64 = 14_550.0;

/// One timing of one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// The segment's own time, ns.
    pub ns: u64,
    /// Mean of the reference loop's time just before and just after, ns.
    pub ref_ns: u64,
}

impl Sample {
    fn ratio(self) -> f64 {
        self.ns as f64 / self.ref_ns.max(1) as f64
    }
}

/// Runs the reference loop once and returns its time, ns.
#[inline(never)]
pub fn reference_loop_ns() -> u64 {
    let t0 = std::time::Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..REFERENCE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as u64
}

/// Every sample of every segment over the repetitions absorbed so far.
#[derive(Debug, Default, Clone)]
pub struct SegTimes {
    /// `[segment][repetition]`.
    samples: Vec<Vec<Sample>>,
    totals: Vec<u64>,
}

impl SegTimes {
    /// Folds one repetition's per-segment samples in.
    ///
    /// # Errors
    ///
    /// When the repetition has a different number of segments than the
    /// first one (the work would not be identical).
    pub fn absorb(&mut self, rep: &[Sample]) -> Result<(), String> {
        if self.totals.is_empty() {
            self.samples = vec![Vec::new(); rep.len()];
        } else if rep.len() != self.samples.len() {
            return Err(format!(
                "repetition has {} segments, the first had {}",
                rep.len(),
                self.samples.len()
            ));
        }
        for (seg, &s) in self.samples.iter_mut().zip(rep) {
            seg.push(s);
        }
        self.totals.push(rep.iter().map(|s| s.ns).sum());
        Ok(())
    }

    /// Repetitions absorbed.
    pub fn reps(&self) -> usize {
        self.totals.len()
    }

    /// Segments per repetition.
    pub fn segments(&self) -> usize {
        self.samples.len()
    }

    /// Whole-repetition times, ns, in the order they ran.
    pub fn totals_ns(&self) -> &[u64] {
        &self.totals
    }

    /// The estimate: sum over segments of the lower quartile (nearest
    /// rank) of the segment's time-to-reference ratios, scaled to
    /// [`REFERENCE_NS`]. Nanoseconds at base clock.
    pub fn at_reference_ns(&self) -> f64 {
        let mut sum = 0.0;
        let mut ratios = Vec::with_capacity(self.reps());
        for seg in &self.samples {
            ratios.clear();
            ratios.extend(seg.iter().map(|s| s.ratio()));
            ratios.sort_by(f64::total_cmp);
            sum += crate::stats::nearest_rank(&ratios, 0.25);
        }
        sum * REFERENCE_NS
    }

    /// The estimate in seconds.
    pub fn at_reference_s(&self) -> f64 {
        self.at_reference_ns() * 1e-9
    }

    /// Sum over segments of the fastest raw time any repetition saw, ns:
    /// what the box does in its best moments (turbo clock, quiet
    /// neighbours). Printed for reference, not used for metrics: it needs
    /// every segment to meet such a moment, which some runs never do.
    pub fn min_sum_ns(&self) -> u64 {
        self.samples
            .iter()
            .map(|seg| seg.iter().map(|s| s.ns).min().unwrap_or(0))
            .sum()
    }

    /// Median whole-repetition time over the fastest-moments sum: how
    /// unsteady the box was (1.0 on a silent machine).
    pub fn noise_ratio(&self) -> f64 {
        let floor = self.min_sum_ns();
        if floor == 0 {
            return 1.0;
        }
        median_u64(&self.totals) as f64 / floor as f64
    }

    /// Median of every reference-loop time seen, ns: which clock state the
    /// run mostly sat in.
    pub fn reference_median_ns(&self) -> u64 {
        let all: Vec<u64> = self.samples.iter().flatten().map(|s| s.ref_ns).collect();
        median_u64(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 12 repetitions of 40 segments whose true cost is 100 reference
    /// loops each. The clock state changes per repetition (both the
    /// segment and the reference loop scale with it), and a slow stretch
    /// that the reference loop does not see (a noisy neighbour) triples a
    /// different tenth of the segments in every repetition.
    #[test]
    fn clock_states_and_slow_stretches_do_not_move_the_estimate() {
        let mut est = SegTimes::default();
        for rep in 0..12usize {
            let clock = [1.0, 0.79, 1.0, 1.1, 0.79, 1.0][rep % 6];
            let ref_ns = (REFERENCE_NS * clock) as u64;
            let slow = (rep * 4) % 40..(rep * 4) % 40 + 4;
            let samples: Vec<Sample> = (0..40)
                .map(|i| Sample {
                    ns: 100 * ref_ns * if slow.contains(&i) { 3 } else { 1 },
                    ref_ns,
                })
                .collect();
            est.absorb(&samples).unwrap();
        }
        assert_eq!((est.reps(), est.segments()), (12, 40));
        let expect = 40.0 * 100.0 * REFERENCE_NS;
        assert!((est.at_reference_ns() / expect - 1.0).abs() < 1e-3);
        // Whole repetitions were 20 % slow-stretch and up to 10 % clock.
        assert!(est.noise_ratio() > 1.2, "{}", est.noise_ratio());
        assert_eq!(est.min_sum_ns(), 40 * 100 * (REFERENCE_NS * 0.79) as u64);
    }

    #[test]
    fn a_segment_slow_in_every_repetition_stays_slow() {
        let mut est = SegTimes::default();
        let s = |ns| Sample {
            ns,
            ref_ns: REFERENCE_NS as u64,
        };
        for _ in 0..5 {
            est.absorb(&[s(1000), s(5000), s(1000)]).unwrap();
        }
        assert!((est.at_reference_ns() - 7000.0).abs() < 1e-6);
        assert!((est.noise_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn differing_segment_counts_are_rejected() {
        let mut est = SegTimes::default();
        let s = Sample { ns: 1, ref_ns: 1 };
        est.absorb(&[s, s, s]).unwrap();
        assert!(est.absorb(&[s, s]).is_err());
    }

    #[test]
    fn the_reference_loop_takes_microseconds() {
        let ns = (0..5).map(|_| reference_loop_ns()).min().unwrap();
        assert!((2_000..200_000).contains(&ns), "{ns}");
    }
}
