//! Statistics collection: everything the paper's evaluation reports.
//!
//! * [`Percentiles`] — exact percentiles from retained samples (FCT tables).
//! * [`TimeWeighted`] — time-weighted average of a step function (queue
//!   occupancy in bytes over time).
//! * [`Cdf`] — CDF extraction for figures like Fig 6(b) and Fig 17.
//! * [`jain_fairness`] — Jain's fairness index (Fig 6a, Fig 15).

use crate::time::{Dur, SimTime};

/// Exact percentile computation over retained samples.
///
/// Experiments retain one f64 per flow (e.g. FCT in seconds); at ≤100k flows
/// this is a few hundred KB, so exactness beats sketching.
#[derive(Clone, Debug, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Empty collection.
    pub fn new() -> Percentiles {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (q ∈ `[0, 1]`) using nearest-rank; 0 if empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.samples[idx]
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile — the paper's tail-latency headline metric.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum sample.
    pub fn max(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        *self.samples.last().unwrap()
    }

    /// Minimum sample.
    pub fn min(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        self.samples[0]
    }

    /// The retained samples, sorted ascending.
    pub fn samples(&mut self) -> &[f64] {
        self.ensure_sorted();
        &self.samples
    }

    /// Absorb all of `other`'s samples (exact merge — the combined
    /// collection is identical to having added every sample here).
    pub fn merge(&mut self, other: &Percentiles) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Extract a CDF with at most `max_points` evenly spaced rank points.
    pub fn cdf(&mut self, max_points: usize) -> Cdf {
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 0 {
            return Cdf { points: vec![] };
        }
        let step = (n / max_points.max(1)).max(1);
        let mut points = Vec::with_capacity(n / step + 1);
        let mut i = step - 1;
        while i < n {
            points.push((self.samples[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if points.last().map(|&(_, p)| p) != Some(1.0) {
            points.push((self.samples[n - 1], 1.0));
        }
        Cdf { points }
    }
}

/// A cumulative distribution function as `(value, P[X ≤ value])` points.
#[derive(Clone, Debug)]
pub struct Cdf {
    /// Sorted `(value, cumulative probability)` pairs.
    pub points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Value at a given cumulative probability (nearest point at or above).
    ///
    /// Binary search over the sorted probability column: `partition_point`
    /// finds the first point with `p >= q`, matching the former linear scan
    /// exactly (including `q` past the last point → last value, empty → 0).
    pub fn value_at(&self, q: f64) -> f64 {
        let idx = self.points.partition_point(|&(_, p)| p < q);
        match self.points.get(idx).or(self.points.last()) {
            Some(&(v, _)) => v,
            None => 0.0,
        }
    }
}

/// Time-weighted average/max of a right-continuous step function, e.g. queue
/// occupancy: `add` the new value at each change; `finish` at the horizon.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    weighted_sum: f64, // ∫ v dt in (value × seconds)
    elapsed: f64,      // seconds integrated
    max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// New accumulator; integration starts at the first `set`.
    pub fn new() -> TimeWeighted {
        TimeWeighted {
            last_t: SimTime::ZERO,
            last_v: 0.0,
            weighted_sum: 0.0,
            elapsed: 0.0,
            max: 0.0,
            started: false,
        }
    }

    /// Record that the tracked value becomes `v` at time `t`.
    pub fn set(&mut self, t: SimTime, v: f64) {
        if self.started {
            let dt = t.since(self.last_t).as_secs_f64();
            self.weighted_sum += self.last_v * dt;
            self.elapsed += dt;
        } else {
            self.started = true;
        }
        self.last_t = t;
        self.last_v = v;
        self.max = self.max.max(v);
    }

    /// Close the integration window at `t` (keeps the current value).
    pub fn finish(&mut self, t: SimTime) {
        let v = self.last_v;
        self.set(t, v);
    }

    /// Time-weighted mean over the observed window (0 if no time elapsed).
    pub fn mean(&self) -> f64 {
        if self.elapsed <= 0.0 {
            0.0
        } else {
            self.weighted_sum / self.elapsed
        }
    }

    /// Maximum value observed.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair.
///
/// Empty or all-zero inputs return 1.0 (vacuously fair), matching how the
/// paper reports intervals where no flow made progress.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sumsq)
}

/// A fixed-interval time series sampler: record a value every `interval` and
/// keep the series for trace figures (Fig 13, Fig 16).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    interval: Dur,
    /// `(time, value)` samples.
    pub samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// New series with the given sampling interval (informational).
    pub fn new(interval: Dur) -> TimeSeries {
        TimeSeries {
            interval,
            samples: Vec::new(),
        }
    }

    /// Sampling interval.
    pub fn interval(&self) -> Dur {
        self.interval
    }

    /// Append a sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.samples.push((t, v));
    }

    /// Values only.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }
}

// --- Snapshot/restore -------------------------------------------------------
//
// Accumulators capture their full dynamic state (configuration like a
// series' interval is rebuilt by setup). Floats round-trip via bit
// patterns, so a restored accumulator continues bit-identically.

use crate::snap::{SnapError, SnapIo};

impl Percentiles {
    /// Snapshot traversal. Insertion order is preserved (not re-sorted) so
    /// a restored collection behaves identically, including `sorted`
    /// laziness.
    pub fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        io.bool(&mut self.sorted)?;
        io.seq(&mut self.samples, 8, |io, s| io.f64(s))
    }
}

impl TimeWeighted {
    /// Snapshot traversal.
    pub fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        io.u64(&mut self.last_t.0)?;
        io.f64(&mut self.last_v)?;
        io.f64(&mut self.weighted_sum)?;
        io.f64(&mut self.elapsed)?;
        io.f64(&mut self.max)?;
        io.bool(&mut self.started)
    }
}

impl TimeSeries {
    /// Snapshot traversal: the recorded samples.
    pub fn persist(&mut self, io: &mut SnapIo) -> Result<(), SnapError> {
        io.seq(&mut self.samples, 16, |io, (t, v)| {
            io.u64(&mut t.0)?;
            io.f64(v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.add(i as f64);
        }
        assert_eq!(p.median(), 50.0);
        assert_eq!(p.p99(), 99.0);
        assert_eq!(p.quantile(1.0), 100.0);
        assert_eq!(p.quantile(0.0), 1.0);
        assert_eq!(p.max(), 100.0);
        assert_eq!(p.min(), 1.0);
        assert_eq!(p.mean(), 50.5);
    }

    #[test]
    fn percentiles_interleaved_adds() {
        let mut p = Percentiles::new();
        p.add(5.0);
        assert_eq!(p.median(), 5.0);
        p.add(1.0);
        p.add(9.0);
        assert_eq!(p.median(), 5.0);
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn percentiles_merge_is_exact() {
        let mut a = Percentiles::new();
        let mut b = Percentiles::new();
        let mut all = Percentiles::new();
        for i in 0..50 {
            a.add((i * 7 % 50) as f64);
            all.add((i * 7 % 50) as f64);
        }
        for i in 0..30 {
            b.add((i * 13 % 100) as f64);
            all.add((i * 13 % 100) as f64);
        }
        a.merge(&b);
        a.merge(&Percentiles::new()); // empty merge is a no-op
        assert_eq!(a.count(), all.count());
        assert_eq!(a.samples(), all.samples());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn percentiles_samples_sorted_view() {
        let mut p = Percentiles::new();
        for x in [3.0, 1.0, 2.0] {
            p.add(x);
        }
        assert_eq!(p.samples(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn cdf_value_at_boundaries() {
        let cdf = Cdf {
            points: vec![(10.0, 0.25), (20.0, 0.5), (30.0, 0.75), (40.0, 1.0)],
        };
        // At/below the first point's probability.
        assert_eq!(cdf.value_at(0.0), 10.0);
        assert_eq!(cdf.value_at(0.25), 10.0);
        // Exactly on and between interior points.
        assert_eq!(cdf.value_at(0.26), 20.0);
        assert_eq!(cdf.value_at(0.5), 20.0);
        assert_eq!(cdf.value_at(0.75), 30.0);
        // At and past the top.
        assert_eq!(cdf.value_at(1.0), 40.0);
        assert_eq!(cdf.value_at(1.5), 40.0);
        // Empty CDF.
        let empty = Cdf { points: vec![] };
        assert_eq!(empty.value_at(0.5), 0.0);
    }

    #[test]
    fn cdf_value_at_matches_linear_scan() {
        let mut p = Percentiles::new();
        for i in 1..=997 {
            p.add((i * 31 % 1000) as f64);
        }
        let cdf = p.cdf(50);
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let linear = cdf
                .points
                .iter()
                .find(|&&(_, pr)| pr >= q)
                .or(cdf.points.last())
                .map(|&(v, _)| v)
                .unwrap_or(0.0);
            assert_eq!(cdf.value_at(q), linear, "q={q}");
        }
    }

    #[test]
    fn cdf_extraction() {
        let mut p = Percentiles::new();
        for i in 1..=1000 {
            p.add(i as f64);
        }
        let cdf = p.cdf(10);
        assert!(cdf.points.len() <= 11);
        assert_eq!(cdf.points.last().unwrap().1, 1.0);
        let median = cdf.value_at(0.5);
        assert!((median - 500.0).abs() <= 100.0);
    }

    #[test]
    fn time_weighted_step_function() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 10.0);
        tw.set(SimTime::ZERO + Dur::secs(1), 20.0);
        tw.finish(SimTime::ZERO + Dur::secs(2));
        // 10 for 1s, 20 for 1s → mean 15.
        assert!((tw.mean() - 15.0).abs() < 1e-9);
        assert_eq!(tw.max(), 20.0);
    }

    #[test]
    fn time_weighted_empty() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.mean(), 0.0);
        assert_eq!(tw.max(), 0.0);
    }

    #[test]
    fn jain_index_values() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One flow hogging: index → 1/n.
        let idx = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
        // Textbook example.
        let idx = jain_fairness(&[4.0, 2.0]);
        assert!((idx - 0.9).abs() < 1e-12);
    }

    #[test]
    fn time_series_collects() {
        let mut ts = TimeSeries::new(Dur::ms(10));
        ts.push(SimTime::ZERO, 1.0);
        ts.push(SimTime::ZERO + Dur::ms(10), 2.0);
        assert_eq!(ts.values(), vec![1.0, 2.0]);
        assert_eq!(ts.interval(), Dur::ms(10));
    }
}
