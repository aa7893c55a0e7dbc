//! The machine's speed around each timed pass, from a fixed reference loop.
//!
//! The 2-vCPU machines this benchmark was sized on slow CPU-bound work by
//! 1.2–2× for seconds to minutes at a time. The cause is contention no
//! process can see: CPU time inflates with wall time, and steal time stays
//! near 0. Ten runs of one workload then spread by 10–30% in wall time, more
//! than any useful regression bound. A fixed loop that uses no talft code,
//! timed right before and right after a pass, slows with the pass. Scaling
//! the pass by [`REF_QUIET_S`] over the loop's time gives its wall time at
//! the machine's quiet speed, and cut those spreads to 3–6%.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference loop's wall time on the machine the benchmark was sized on
/// (2-vCPU Intel Xeon VM) when nothing contends with it: close to the 5th
/// percentile, 15.1 ms, of the 730 timings behind the measured baseline in
/// `README.md`. Only the unit of the scaled times depends on it; every
/// comparison between runs divides it out.
pub const REF_QUIET_S: f64 = 0.016;

/// Ordered-map updates and short vector allocations, the mix of the
/// compiler, checker and analyzers. A pointer chase through a fixed table,
/// tried in its place, tracked the passes' slowdowns worse.
fn reference_work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 50_000;
        *map.entry(k).or_insert(0u64) += 1;
        let v: Vec<u64> = (0..k % 16).collect();
        acc = acc.wrapping_add(v.iter().sum::<u64>());
    }
    map.iter().fold(acc, |a, (k, v)| a ^ k.wrapping_mul(*v))
}

/// Wall time of the reference loop on this thread, the fastest of three.
#[must_use]
pub fn reference_s() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(reference_work());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time `f`, bracketed by reference timings: its wall time and the
/// geometric mean of the reference loop's time before and after it.
pub fn bracketed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = reference_s();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let after = reference_s();
    (out, wall_s, (before * after).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_loop_times_and_brackets() {
        let (out, wall_s, ref_s) = bracketed(|| 7);
        assert_eq!(out, 7);
        assert!(wall_s >= 0.0 && ref_s.is_finite() && ref_s > 0.0);
    }
}
