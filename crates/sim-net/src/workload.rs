//! Workload generation: arrival processes and key-popularity distributions.
//!
//! The simulators consume a stream of [`Request`]s. Arrival times come from
//! an [`ArrivalProcess`]; which key a request touches comes from a
//! [`KeyDistribution`]. Both are deterministic given an RNG, so workloads
//! replay exactly across policy comparisons — the same access sequence is
//! presented to every eviction policy in Table 3, for instance, so hit-rate
//! differences are attributable to the policy alone.

use rand::Rng;
use serde::Serialize;

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// One generated request: an arrival instant plus the key it touches and the
/// payload size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Request {
    /// When the request arrives.
    pub at: SimTime,
    /// The key (item, machine, endpoint…) the request addresses.
    pub key: u64,
    /// Payload size in bytes.
    pub size_bytes: u64,
}

/// A process generating successive interarrival gaps.
pub trait ArrivalProcess {
    /// The gap until the next arrival.
    fn next_gap(&mut self, rng: &mut DetRng) -> SimDuration;
}

/// One draw from the exponential distribution at rate `lambda`, by
/// inverse CDF on `u ∈ (0, 1]` (`1 − gen()` avoids `ln(0)`).
fn exp_sample(rng: &mut DetRng, lambda: f64) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln() / lambda
}

/// Poisson arrivals: exponential interarrival gaps at `rate` requests/second.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with the given mean rate (requests/second).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive, got {rate}"
        );
        PoissonArrivals { rate }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, rng: &mut DetRng) -> SimDuration {
        SimDuration::from_secs_f64(exp_sample(rng, self.rate))
    }
}

/// Deterministic arrivals: a fixed gap between requests. Useful in tests
/// where exact timing matters.
#[derive(Debug, Clone, Copy)]
pub struct UniformArrivals {
    gap: SimDuration,
}

impl UniformArrivals {
    /// Creates a process with a constant `gap` between arrivals.
    pub fn new(gap: SimDuration) -> Self {
        UniformArrivals { gap }
    }

    /// Creates a process with the given rate (requests/second).
    pub fn from_rate(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        UniformArrivals {
            gap: SimDuration::from_secs_f64(1.0 / rate),
        }
    }
}

impl ArrivalProcess for UniformArrivals {
    fn next_gap(&mut self, _rng: &mut DetRng) -> SimDuration {
        self.gap
    }
}

/// On/off bursty arrivals: alternates between a high-rate "on" phase and a
/// low-rate "off" phase, each with exponentially distributed dwell time.
/// Models diurnal or flash-crowd traffic that breaks the i.i.d. context
/// assumption (paper §5, violation of A2).
#[derive(Debug, Clone)]
pub struct BurstyArrivals {
    on: PoissonArrivals,
    off: PoissonArrivals,
    /// Phase changes per second: `1 / mean dwell`.
    dwell_rate: f64,
    in_on_phase: bool,
    phase_left: SimDuration,
}

impl BurstyArrivals {
    /// Creates a bursty process alternating `on_rate` and `off_rate`
    /// requests/second with mean phase length `mean_dwell`.
    pub fn new(on_rate: f64, off_rate: f64, mean_dwell: SimDuration) -> Self {
        assert!(mean_dwell > SimDuration::ZERO, "dwell must be positive");
        let dwell_rate = 1.0 / mean_dwell.as_secs_f64();
        assert!(
            dwell_rate.is_finite() && dwell_rate > 0.0,
            "dwell rate must be positive and finite, got {dwell_rate}"
        );
        BurstyArrivals {
            on: PoissonArrivals::new(on_rate),
            off: PoissonArrivals::new(off_rate),
            dwell_rate,
            in_on_phase: true,
            phase_left: mean_dwell,
        }
    }
}

impl ArrivalProcess for BurstyArrivals {
    fn next_gap(&mut self, rng: &mut DetRng) -> SimDuration {
        let gap = if self.in_on_phase {
            self.on.next_gap(rng)
        } else {
            self.off.next_gap(rng)
        };
        if gap >= self.phase_left {
            self.in_on_phase = !self.in_on_phase;
            self.phase_left = SimDuration::from_secs_f64(exp_sample(rng, self.dwell_rate));
        } else {
            self.phase_left = self.phase_left - gap;
        }
        gap
    }
}

/// A distribution over keys (and their payload sizes).
pub trait KeyDistribution {
    /// Samples a key.
    fn sample_key(&mut self, rng: &mut DetRng) -> u64;

    /// Payload size in bytes for `key`.
    fn size_of(&self, key: u64) -> u64;

    /// Number of distinct keys, if finite.
    fn key_count(&self) -> Option<u64>;
}

/// Uniform popularity over `n` keys of constant size.
#[derive(Debug, Clone, Copy)]
pub struct UniformKeys {
    n: u64,
    size: u64,
}

impl UniformKeys {
    /// Creates a uniform distribution over keys `0..n`, each of `size` bytes.
    pub fn new(n: u64, size: u64) -> Self {
        assert!(n > 0, "need at least one key");
        UniformKeys { n, size }
    }
}

impl KeyDistribution for UniformKeys {
    fn sample_key(&mut self, rng: &mut DetRng) -> u64 {
        rng.gen_range(0..self.n)
    }

    fn size_of(&self, _key: u64) -> u64 {
        self.size
    }

    fn key_count(&self) -> Option<u64> {
        Some(self.n)
    }
}

/// Zipf popularity over `n` keys: key `k` has weight `1/(k+1)^s`.
///
/// Sampling uses the precomputed cumulative distribution with binary search;
/// O(log n) per sample, exact (no rejection), deterministic.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    cdf: Vec<f64>,
    size: u64,
}

impl ZipfKeys {
    /// Creates a Zipf(`s`) distribution over keys `0..n` of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: u64, s: f64, size: u64) -> Self {
        assert!(n > 0, "need at least one key");
        assert!(s.is_finite() && s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfKeys { cdf, size }
    }
}

impl KeyDistribution for ZipfKeys {
    fn sample_key(&mut self, rng: &mut DetRng) -> u64 {
        let u: f64 = rng.gen();
        // First index with cdf >= u.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) as u64
    }

    fn size_of(&self, _key: u64) -> u64 {
        self.size
    }

    fn key_count(&self) -> Option<u64> {
        Some(self.cdf.len() as u64)
    }
}

/// The paper's Table 3 workload: a few frequently-queried large items and
/// many less-frequently-queried small items.
///
/// "The large items are queried twice as frequently but are four times as
/// big: it is thus more efficient to cache the small items." Large keys are
/// `0..n_large`; small keys are `n_large..n_large+n_small`.
#[derive(Debug, Clone)]
pub struct BigSmallKeys {
    n_large: u64,
    n_small: u64,
    large_size: u64,
    small_size: u64,
    /// Probability that a request hits the large-item class.
    p_large: f64,
}

impl BigSmallKeys {
    /// Creates the big/small mix.
    ///
    /// Each *individual* large item is `freq_ratio` times as popular as each
    /// individual small item, and `size_ratio` times as big. Within a class,
    /// popularity is uniform.
    pub fn new(
        n_large: u64,
        n_small: u64,
        small_size: u64,
        size_ratio: u64,
        freq_ratio: f64,
    ) -> Self {
        assert!(n_large > 0 && n_small > 0, "both classes need keys");
        assert!(freq_ratio > 0.0, "frequency ratio must be positive");
        let w_large = n_large as f64 * freq_ratio;
        let w_small = n_small as f64;
        BigSmallKeys {
            n_large,
            n_small,
            large_size: small_size * size_ratio,
            small_size,
            p_large: w_large / (w_large + w_small),
        }
    }

    /// The paper's configuration: large items 2× as frequent and 4× as big.
    pub fn paper_default(n_large: u64, n_small: u64, small_size: u64) -> Self {
        BigSmallKeys::new(n_large, n_small, small_size, 4, 2.0)
    }

    /// Whether `key` belongs to the large-item class.
    pub fn is_large(&self, key: u64) -> bool {
        key < self.n_large
    }

    /// Probability a single request addresses the large class.
    pub fn p_large(&self) -> f64 {
        self.p_large
    }
}

impl KeyDistribution for BigSmallKeys {
    fn sample_key(&mut self, rng: &mut DetRng) -> u64 {
        if rng.gen_bool(self.p_large) {
            rng.gen_range(0..self.n_large)
        } else {
            self.n_large + rng.gen_range(0..self.n_small)
        }
    }

    fn size_of(&self, key: u64) -> u64 {
        if self.is_large(key) {
            self.large_size
        } else {
            self.small_size
        }
    }

    fn key_count(&self) -> Option<u64> {
        Some(self.n_large + self.n_small)
    }
}

/// Combines an arrival process and a key distribution into a finite request
/// trace.
pub struct WorkloadGenerator<A, K> {
    arrivals: A,
    keys: K,
    clock: SimTime,
}

impl<A: ArrivalProcess, K: KeyDistribution> WorkloadGenerator<A, K> {
    /// Creates a generator starting at t = 0.
    pub fn new(arrivals: A, keys: K) -> Self {
        WorkloadGenerator {
            arrivals,
            keys,
            clock: SimTime::ZERO,
        }
    }

    /// Generates the next request.
    pub fn next_request(&mut self, rng: &mut DetRng) -> Request {
        self.clock += self.arrivals.next_gap(rng);
        let key = self.keys.sample_key(rng);
        Request {
            at: self.clock,
            key,
            size_bytes: self.keys.size_of(key),
        }
    }

    /// Generates a trace of `n` requests.
    pub fn take(&mut self, n: usize, rng: &mut DetRng) -> Vec<Request> {
        (0..n).map(|_| self.next_request(rng)).collect()
    }

    /// Read access to the key distribution (e.g. for size lookups).
    pub fn keys(&self) -> &K {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fork_rng;

    #[test]
    fn poisson_mean_rate_is_respected() {
        let mut rng = fork_rng(1, "poisson");
        let mut p = PoissonArrivals::new(100.0);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_rejects_zero_rate() {
        let _ = PoissonArrivals::new(0.0);
    }

    #[test]
    fn uniform_arrivals_are_exact() {
        let mut rng = fork_rng(1, "uniform");
        let mut u = UniformArrivals::from_rate(10.0);
        assert_eq!(u.next_gap(&mut rng), SimDuration::from_millis(100));
    }

    #[test]
    fn bursty_switches_phases() {
        let mut rng = fork_rng(3, "bursty");
        let mut b = BurstyArrivals::new(1000.0, 1.0, SimDuration::from_secs(1));
        // Collect gaps; must see both very small (on) and large (off) gaps.
        let gaps: Vec<f64> = (0..5000)
            .map(|_| b.next_gap(&mut rng).as_secs_f64())
            .collect();
        let small = gaps.iter().filter(|&&g| g < 0.01).count();
        let large = gaps.iter().filter(|&&g| g > 0.2).count();
        assert!(small > 0, "no on-phase gaps observed");
        assert!(large > 0, "no off-phase gaps observed");
    }

    #[test]
    fn zipf_head_is_more_popular() {
        let mut rng = fork_rng(5, "zipf");
        let mut z = ZipfKeys::new(100, 1.0, 1);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample_key(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10], "rank-0 must beat rank-10");
        assert!(counts[10] > counts[90], "rank-10 must beat rank-90");
        // Rank-0 to rank-1 ratio should be near 2 for s=1.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.5, "head ratio {ratio}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let mut rng = fork_rng(6, "zipf0");
        let mut z = ZipfKeys::new(10, 0.0, 1);
        let mut counts = vec![0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample_key(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 5_000.0).abs() < 400.0, "non-uniform count {c}");
        }
    }

    #[test]
    fn big_small_matches_paper_ratios() {
        let w = BigSmallKeys::paper_default(5, 100, 1000);
        assert_eq!(w.size_of(0), 4000); // large = 4× small
        assert_eq!(w.size_of(50), 1000);
        assert!(w.is_large(4));
        assert!(!w.is_large(5));
        // p_large = 5*2 / (5*2 + 100) = 10/110.
        assert!((w.p_large() - 10.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn big_small_empirical_frequency() {
        let mut rng = fork_rng(7, "bigsmall");
        let mut w = BigSmallKeys::paper_default(5, 100, 1000);
        let n = 100_000;
        let mut large_hits = 0u64;
        let mut per_large = [0u64; 5];
        let mut per_small_total = 0u64;
        for _ in 0..n {
            let k = w.sample_key(&mut rng);
            if w.is_large(k) {
                large_hits += 1;
                per_large[k as usize] += 1;
            } else {
                per_small_total += 1;
            }
        }
        let p = large_hits as f64 / n as f64;
        assert!((p - 10.0 / 110.0).abs() < 0.01, "large share {p}");
        // Each large item should be ~2x each small item.
        let mean_large = per_large.iter().sum::<u64>() as f64 / 5.0;
        let mean_small = per_small_total as f64 / 100.0;
        let ratio = mean_large / mean_small;
        assert!((ratio - 2.0).abs() < 0.3, "freq ratio {ratio}");
    }

    #[test]
    fn generator_times_are_monotone() {
        let mut rng = fork_rng(8, "gen");
        let mut g = WorkloadGenerator::new(PoissonArrivals::new(50.0), UniformKeys::new(10, 64));
        let trace = g.take(1000, &mut rng);
        assert_eq!(trace.len(), 1000);
        for w in trace.windows(2) {
            assert!(w[0].at <= w[1].at, "arrivals must be monotone");
        }
        assert!(trace.iter().all(|r| r.key < 10));
        assert!(trace.iter().all(|r| r.size_bytes == 64));
    }

    #[test]
    fn same_seed_same_trace() {
        let make = || {
            let mut rng = fork_rng(9, "trace");
            let mut g =
                WorkloadGenerator::new(PoissonArrivals::new(50.0), ZipfKeys::new(100, 0.8, 128));
            g.take(100, &mut rng)
        };
        assert_eq!(make(), make());
    }
}
