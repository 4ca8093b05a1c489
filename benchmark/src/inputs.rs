//! Seeded input generation: everything a workload feeds the program is a
//! function of `--seed`, and nothing else.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` far below 2^32 here, so the
    /// bias is below 2^-32).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent stream seed from `seed` and a label.
pub fn derive(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The page payload of `(seed, block, page, version)`: random bytes, so
/// every codeword is a mixed pattern, and regenerable, so a read is
/// verified without keeping what was written.
pub fn payload(page_bytes: usize, seed: u64, block: usize, page: usize, version: u32) -> Vec<u8> {
    let key = ((block as u64) << 40) ^ ((page as u64) << 20) ^ u64::from(version);
    let mut rng = Rng::new(derive(seed, key));
    let mut out = Vec::with_capacity(page_bytes);
    while out.len() + 8 <= page_bytes {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    let tail = rng.next_u64().to_le_bytes();
    out.extend_from_slice(&tail[..page_bytes - out.len()]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(payload(4096, 7, 3, 9, 2), payload(4096, 7, 3, 9, 2));
        assert_ne!(payload(4096, 7, 3, 9, 2), payload(4096, 8, 3, 9, 2));
        assert_ne!(payload(4096, 7, 3, 9, 2), payload(4096, 7, 3, 9, 3));
        assert_eq!(payload(13, 1, 0, 0, 0).len(), 13);
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        let mut w = v.clone();
        a.shuffle(&mut v);
        b.shuffle(&mut w);
        assert_eq!(v, w);
        assert!((0..1000).all(|_| a.below(7) < 7 && a.unit() < 1.0));
    }
}
