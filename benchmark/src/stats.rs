//! Order statistics shared by the run, `check` and `compare` paths.

/// Sorted copy of `xs` (total order; the benchmark never produces NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count; 0 when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads `compare` prints match ones computed in Python from the same
/// result files.
/// Fewer than two values collapse to that value.
#[must_use]
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Percentiles the tail metric may report, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile on the ladder that leaves at least ten of `n`
/// samples beyond it (50 when even the median cannot).
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    let permille = TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .unwrap_or(500);
    permille as f64 / 10.0
}

/// Nearest-rank percentile `p` (0–100) of `xs`, with the number of samples
/// strictly above the chosen rank (0 when empty).
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let v = sorted(xs);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(v.len());
    (v[rank - 1], v.len() - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(72), 75.0);
        for n in [20, 40, 72, 100, 137, 1000, 5000] {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            let p = tail_percentile(n as usize);
            let (_, beyond) = percentile(&xs, p);
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
