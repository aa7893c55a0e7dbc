//! Dependency-free deterministic randomness and Wile program generators.
//!
//! The repository must build in hermetic environments with no registry
//! access, so randomized tests, the fault-plan samplers, and the
//! benchmark's fuzz workloads all draw from this tiny crate instead of
//! external `rand`/`proptest`. Everything here is seed-reproducible: the
//! same seed always yields the same stream on every platform.

#![warn(missing_docs)]

pub mod shrink;
pub mod wile;

/// SplitMix64 — a tiny, high-quality, splittable PRNG (Steele et al.,
/// OOPSLA 2014). Deterministic across platforms; **not** cryptographic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed the generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fork an independent stream (for parallel workers / sub-samplers).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64(self.next_u64() ^ 0xA5A5_A5A5_A5A5_A5A5)
    }

    /// Uniform in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for the small ranges used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform usize in `[0, n)`. `n` must be nonzero.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform in the half-open range `[lo, hi)`. `lo < hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform u64 in `[lo, hi)`. `lo < hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Pick a uniform element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
    }

    #[test]
    fn range_i64_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = r.range_i64(-5, 5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn split_streams_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = a.split();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!((0..50).all(|_| r.chance(1, 1)));
        assert!((0..50).all(|_| !r.chance(0, 1)));
    }
}
