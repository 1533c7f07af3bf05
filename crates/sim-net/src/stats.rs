//! Online statistics used to summarise simulated measurements.
//!
//! Three tools, matched to what the paper's evaluation reports:
//!
//! * [`RunningStats`] — Welford's online mean/variance, for mean-latency and
//!   mean-reward rows (Tables 2, 3).
//! * [`QuantileSketch`] — exact quantiles from retained samples, for
//!   percentile error bars (Fig 3, 5th/95th) and p99 latency.
//! * [`Histogram`] — log-bucketed latency histogram for cheap distribution
//!   summaries in long simulations.

use serde::Serialize;

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable for long streams; merging two accumulators is exact
/// (parallel variance formula), which the experiment harness uses to combine
/// per-trial statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored (and counted
    /// nowhere): a single NaN latency sample must not poison a whole table.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (exact).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance, or 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Exact quantiles over retained samples.
///
/// Retains every pushed value; `quantile` sorts lazily on demand. Suitable
/// for the sample sizes in this reproduction (≤ millions), where exactness
/// matters more than memory.
#[derive(Debug, Clone, Default, Serialize)]
pub struct QuantileSketch {
    samples: Vec<f64>,
    sorted: bool,
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation; non-finite values are ignored.
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = false;
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
    /// statistics, or `None` if empty. `q` outside \[0,1\] clamps.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Convenience: the median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Convenience: the 99th percentile (the paper's load-balancing reward).
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Mean of retained samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

/// A log-bucketed histogram for positive measurements (e.g. latencies).
///
/// Buckets are powers of `growth` starting at `first_bound`; values below
/// the first bound land in bucket 0, values above the last in the overflow
/// bucket. Quantile queries return the upper bound of the containing bucket
/// (a conservative estimate).
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    first_bound: f64,
    growth: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` log-spaced buckets: the first
    /// bucket ends at `first_bound`, each subsequent at `growth ×` the
    /// previous, plus one overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `first_bound ≤ 0`, `growth ≤ 1`, or `buckets == 0`.
    pub fn new(first_bound: f64, growth: f64, buckets: usize) -> Self {
        assert!(first_bound > 0.0, "first bucket bound must be positive");
        assert!(growth > 1.0, "bucket growth factor must exceed 1");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            first_bound,
            growth,
            counts: vec![0; buckets + 1],
            total: 0,
        }
    }

    /// A reasonable default for request latencies in seconds: 64 buckets
    /// from 100 µs, growing 25% per bucket (covers ~100 µs to ~150 s).
    pub fn for_latency_secs() -> Self {
        Histogram::new(1e-4, 1.25, 64)
    }

    fn bucket_for(&self, x: f64) -> usize {
        if x <= self.first_bound {
            return 0;
        }
        let idx = ((x / self.first_bound).ln() / self.growth.ln()).ceil() as usize;
        idx.min(self.counts.len() - 1)
    }

    /// Records one measurement. Non-finite or negative values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        let b = self.bucket_for(x);
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Total recorded measurements.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Upper bound of the bucket containing the `q`-quantile, or `None` if
    /// empty.
    ///
    /// The rank convention matches [`QuantileSketch::quantile`]'s linear
    /// interpolation at position `q·(N−1)`: the bound covers the higher of
    /// the two order statistics the sketch would interpolate between, so it
    /// is a true upper bound of the exact quantile.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * (self.total - 1) as f64).ceil() as u64 + 1).min(self.total);
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.first_bound * self.growth.powi(i as i32));
            }
        }
        Some(self.first_bound * self.growth.powi((self.counts.len() - 1) as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn running_stats_ignore_non_finite() {
        let mut s = RunningStats::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_into_empty() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        b.push(3.0);
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 4.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut q = QuantileSketch::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            q.push(x);
        }
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(4.0));
        assert_eq!(q.median(), Some(2.5));
        assert_eq!(q.quantile(1.5), Some(4.0)); // clamps
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let mut q = QuantileSketch::new();
        assert_eq!(q.median(), None);
        assert_eq!(q.mean(), None);
    }

    #[test]
    fn quantile_after_interleaved_pushes() {
        let mut q = QuantileSketch::new();
        q.push(10.0);
        assert_eq!(q.median(), Some(10.0));
        q.push(0.0);
        assert_eq!(q.median(), Some(5.0));
    }

    #[test]
    fn histogram_quantiles_bound_true_values() {
        let mut h = Histogram::for_latency_secs();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // 1ms..1s uniform
        }
        let p50 = h.quantile_upper_bound(0.5).unwrap();
        assert!((0.5..=0.8).contains(&p50), "p50 bound {p50}");
        let p99 = h.quantile_upper_bound(0.99).unwrap();
        assert!((0.99..=1.6).contains(&p99), "p99 bound {p99}");
    }

    #[test]
    fn histogram_ignores_garbage() {
        let mut h = Histogram::for_latency_secs();
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_upper_bound(0.5), None);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::new(1.0, 2.0, 4);
        h.record(1e12);
        assert_eq!(h.count(), 1);
        // Overflow bucket upper bound is first_bound * growth^buckets.
        assert_eq!(h.quantile_upper_bound(1.0), Some(16.0));
    }

    #[test]
    #[should_panic(expected = "growth factor")]
    fn histogram_rejects_bad_growth() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
