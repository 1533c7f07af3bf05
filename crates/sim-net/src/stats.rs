//! Online statistics used to summarise simulated measurements.
//!
//! Two tools, matched to what the paper's evaluation reports:
//!
//! * [`RunningStats`] — Welford's online mean/variance, for mean-latency and
//!   mean-reward rows (Tables 2, 3).
//! * [`QuantileSketch`] — exact quantiles from retained samples, for
//!   percentile error bars (Fig 3, 5th/95th) and p99 latency.

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
}
