//! Percentiles, medians and the completion digest.

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1),
/// the same rule `LatencyStats` and `BatchReport` use; 0 when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of unsorted integer samples (upper median for even counts).
pub fn median_u64(samples: &[u64]) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0)
}

/// FNV-1a over 64-bit words: the fold behind `bench.completion_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// The low 52 bits: exact as a JSON number (an f64 mantissa).
    pub fn low52(self) -> u64 {
        self.0 & ((1 << 52) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v[..1], 0.99), 1.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_is_stable_order_sensitive_and_json_exact() {
        let fold = |words: &[u64]| {
            let mut h = Fnv::default();
            for &w in words {
                h.write_u64(w);
            }
            h.low52()
        };
        // Pinned: a change to the fold would silently re-baseline every
        // recorded digest.
        assert_eq!(fold(&[]), 0xCBF2_9CE4_8422_2325 & ((1 << 52) - 1));
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        let d = fold(&[7, 0xFFFF_FFFF_FFFF_FFFF]);
        assert_eq!((d as f64) as u64, d);
    }
}
