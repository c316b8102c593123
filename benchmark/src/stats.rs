//! Order statistics for the harness: median of reps, quartiles as the
//! driver computes them, and nearest-rank percentiles that refuse to
//! report a tail the sample cannot support.

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of a sample (mean of the two middle values when even).
/// `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method), which is what the driver applies to ten runs.
/// A single sample is its own three quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the driver holds each end-to-end metric to.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if xs.len() < 2 || q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending-sorted
/// sample: the value at rank `ceil(p/100 · n)`. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank — a tail estimated from a
/// handful of points moves by multiples between identical runs.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// [`percentile`] of an unsorted sample, `0.0` when refused.
pub fn percentile_or_zero(xs: &[f64], p: f64) -> f64 {
    percentile(&sorted(xs), p).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_reps_odd_even_and_outlier() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One +15 % outlier in seven reps does not move the median.
        let reps = [2.70, 2.72, 2.71, 3.12, 2.73, 2.70, 2.74];
        assert_eq!(median(&reps), 2.72);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(spread(&xs), 1.0);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn nearest_rank_and_ten_beyond_rule() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank ceil(0.5 * 1000) = 500
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        // rank 990 leaves exactly ten samples beyond: allowed.
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // rank 999 leaves one: refused.
        assert_eq!(percentile(&xs, 99.9), None);
        // 100 scrapes support p90 (ten beyond) but not p95.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 95.0), None);
        // Nineteen samples cannot even support a median.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_or_zero(&[5.0; 30], 50.0), 5.0);
        assert_eq!(percentile_or_zero(&[5.0; 3], 50.0), 0.0);
    }
}
