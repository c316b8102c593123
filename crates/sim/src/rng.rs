//! Deterministic pseudo-random number generation and the distributions the
//! workloads need.
//!
//! The engine uses its own xoshiro256++ implementation (seeded through
//! SplitMix64) rather than a thread-local RNG so that a run is a pure function
//! of its seed: every experiment in the paper reproduction can be re-run
//! bit-for-bit.

use crate::time::Dur;

/// xoshiro256++ PRNG, seeded via SplitMix64.
///
/// Fast (sub-ns per draw), passes BigCrush, and trivially portable. This is
/// the only source of randomness anywhere in the simulator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child generator (for per-flow or per-host
    /// streams that must not perturb each other).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Snapshot support: the raw xoshiro256++ state words.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Uses Lemire's multiply-shift reduction;
    /// the tiny modulo bias is irrelevant at simulation scales.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform duration in `[lo, hi]` inclusive.
    #[inline]
    pub fn range_dur(&mut self, lo: Dur, hi: Dur) -> Dur {
        Dur(self.range_u64(lo.as_ps(), hi.as_ps()))
    }

    /// Exponentially distributed float with the given mean (> 0).
    #[inline]
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - f64() is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Exponentially distributed duration with the given mean.
    #[inline]
    pub fn exp_dur(&mut self, mean: Dur) -> Dur {
        Dur::from_secs_f64(self.exp_f64(mean.as_secs_f64()))
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element index for a slice of length `len`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Symmetric jitter: uniform duration in `[-spread/2, +spread/2]` applied
    /// to `base`, clamped at zero. Used by the credit pacer (§3.1, Fig 6a).
    pub fn jitter(&mut self, base: Dur, spread: Dur) -> Dur {
        if spread.is_zero() {
            return base;
        }
        let half = spread.as_ps() / 2;
        let off = self.range_u64(0, spread.as_ps());
        Dur(base.as_ps().saturating_add(off).saturating_sub(half))
    }
}

impl Rng {
    /// Snapshot traversal: the four state words.
    pub fn persist(&mut self, io: &mut crate::snap::SnapIo) -> Result<(), crate::snap::SnapError> {
        self.s.iter_mut().try_for_each(|word| io.u64(word))
    }
}

/// An empirical distribution defined by CDF control points
/// `(value, cumulative_probability)`, sampled by inversion with log-linear
/// interpolation between points.
///
/// This is how the realistic workloads (Table 2) express their flow-size
/// distributions.
#[derive(Clone, Debug)]
pub struct EmpiricalCdf {
    /// (value, cum_prob) points; cum_prob strictly increasing to 1.0.
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Build from control points. Panics unless probabilities are strictly
    /// increasing, end at 1.0, and values are non-decreasing and positive.
    pub fn new(points: Vec<(f64, f64)>) -> EmpiricalCdf {
        assert!(points.len() >= 2, "need at least two CDF points");
        let mut prev_p = 0.0;
        let mut prev_v = 0.0;
        for &(v, p) in &points {
            assert!(v > 0.0, "values must be positive (log interpolation)");
            assert!(v >= prev_v, "values must be non-decreasing");
            assert!(p > prev_p, "probabilities must be strictly increasing");
            assert!(p <= 1.0 + 1e-12);
            prev_p = p;
            prev_v = v;
        }
        assert!(
            (points.last().unwrap().1 - 1.0).abs() < 1e-9,
            "last probability must be 1.0"
        );
        EmpiricalCdf { points }
    }

    /// Sample a value by inverse-transform.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.quantile(rng.f64())
    }

    /// The value at cumulative probability `q ∈ [0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        let pts = &self.points;
        if q <= pts[0].1 {
            // Below the first control point: interpolate from the first value
            // (treat the first point as mass at its value).
            return pts[0].0;
        }
        for w in pts.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if q <= p1 {
                if v1 <= v0 {
                    return v1;
                }
                // Log-linear interpolation in value-space: heavy-tailed flow
                // sizes span six orders of magnitude, so linear-in-log is the
                // natural interpolant.
                let f = (q - p0) / (p1 - p0);
                return (v0.ln() + f * (v1.ln() - v0.ln())).exp();
            }
        }
        pts.last().unwrap().0
    }

    /// Mean of the distribution, estimated by numerical integration of the
    /// quantile function (used for load calibration in the workload crate).
    pub fn mean(&self) -> f64 {
        // 10k-point midpoint rule over q; plenty for load targeting.
        let n = 10_000;
        let mut acc = 0.0;
        for i in 0..n {
            let q = (i as f64 + 0.5) / n as f64;
            acc += self.quantile(q);
        }
        acc / n as f64
    }

    /// Largest value in the support.
    pub fn max_value(&self) -> f64 {
        self.points.last().unwrap().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
        // All residues reachable.
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng::new(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let v = r.range_u64(10, 12);
            assert!((10..=12).contains(&v));
            lo_seen |= v == 10;
            hi_seen |= v == 12;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn exp_mean_close() {
        let mut r = Rng::new(13);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp_f64(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn jitter_bounds() {
        let mut r = Rng::new(17);
        let base = Dur::us(10);
        let spread = Dur::us(2);
        for _ in 0..10_000 {
            let j = r.jitter(base, spread);
            assert!(j >= Dur::us(9) && j <= Dur::us(11), "{j}");
        }
        // Zero spread is a no-op.
        assert_eq!(r.jitter(base, Dur::ZERO), base);
    }

    #[test]
    fn jitter_clamps_at_zero() {
        let mut r = Rng::new(19);
        for _ in 0..1000 {
            let j = r.jitter(Dur::ps(1), Dur::us(1));
            let _ = j; // must not panic/underflow
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_independent() {
        let mut parent = Rng::new(99);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn empirical_cdf_quantiles() {
        let cdf = EmpiricalCdf::new(vec![(100.0, 0.5), (10_000.0, 1.0)]);
        assert_eq!(cdf.quantile(0.25), 100.0);
        assert_eq!(cdf.quantile(0.5), 100.0);
        // Log-linear midpoint of [100, 10000] is 1000.
        assert!((cdf.quantile(0.75) - 1000.0).abs() < 1.0);
        assert!((cdf.quantile(1.0) - 10_000.0).abs() < 1e-6);
        assert_eq!(cdf.max_value(), 10_000.0);
    }

    #[test]
    fn empirical_cdf_sampling_matches_masses() {
        // 30% mass at 10, 70% log-linear between 10 and 1000.
        let cdf = EmpiricalCdf::new(vec![(10.0, 0.3), (1000.0, 1.0)]);
        let mut r = Rng::new(29);
        let n = 100_000;
        let at_ten = (0..n).filter(|_| cdf.sample(&mut r) <= 10.0).count();
        let frac = at_ten as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn empirical_cdf_mean_of_point_mass_pair() {
        // 50% at 100, 50% spread log-linearly 100..10000.
        let cdf = EmpiricalCdf::new(vec![(100.0, 0.5), (10_000.0, 1.0)]);
        let mut r = Rng::new(31);
        let n = 100_000;
        let sample_mean: f64 = (0..n).map(|_| cdf.sample(&mut r)).sum::<f64>() / n as f64;
        let analytic = cdf.mean();
        assert!(
            (sample_mean - analytic).abs() / analytic < 0.02,
            "sample {sample_mean} vs analytic {analytic}"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn empirical_cdf_rejects_non_increasing_probs() {
        EmpiricalCdf::new(vec![(1.0, 0.5), (2.0, 0.5)]);
    }
}
