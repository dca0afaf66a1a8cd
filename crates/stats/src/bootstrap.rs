//! A dependency-free, deterministic PRNG for resampling.
//!
//! `tauw-stats` deliberately has no runtime dependency on `rand`; a small
//! SplitMix64 generator is more than adequate for drawing bootstrap
//! indices and the experiments' injected failures.

/// Minimal SplitMix64 PRNG (Steele et al. 2014). Deterministic, fast, and
/// good enough for bootstrap index resampling; **not** cryptographic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, n)` via Lemire's multiply-shift (unbiased
    /// enough for bootstrap purposes).
    pub fn next_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn splitmix_index_in_range_and_roughly_uniform() {
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[rng.next_index(10)] += 1;
        }
        for &c in &counts {
            assert!(
                (700..1300).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }
}
