//! Log-scaled (HDR-style) histograms with deterministic percentiles.
//!
//! Values are `u64` samples on a *logical* scale (logical nanoseconds,
//! queue depths, batch sizes). Buckets are log-linear: exact below 32,
//! then 32 sub-buckets per octave, which bounds relative error at ~3%
//! for any magnitude while keeping the layout a fixed 1920 slots. All
//! state is integer (counts and a saturating integer sum), so recording
//! order never changes the result and merging shards is exact — the
//! properties the byte-identical-export guarantee rests on.

use core::sync::atomic::{AtomicU64, Ordering};
use serde::Serialize;

/// log2 of the number of sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Total bucket count: one linear octave-0 region plus 59 octaves.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Map a value to its bucket index.
fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let octave = (shift + 1) as usize;
    let sub = ((v >> shift) as usize) & (SUB_COUNT - 1);
    (octave << SUB_BITS) + sub
}

/// Smallest value that lands in bucket `i`.
fn bucket_floor(i: usize) -> u64 {
    if i < SUB_COUNT {
        return i as u64;
    }
    ((SUB_COUNT + (i & (SUB_COUNT - 1))) as u64) << ((i >> SUB_BITS) - 1)
}

/// Largest value that lands in bucket `i` (the Prometheus `le` bound).
fn bucket_ceiling(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        return u64::MAX;
    }
    bucket_floor(i + 1) - 1
}

/// A mergeable log-linear histogram. Single-threaded; for concurrent
/// recording use [`AtomicHistogram`] and [`AtomicHistogram::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; NUM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one. Exact: merging shard
    /// histograms equals recording the combined stream.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Deterministic percentile: the floor of the bucket holding the
    /// sample of rank `ceil(q · count)`. Returns 0 on an empty
    /// histogram. The result is a lower bound on the true quantile with
    /// relative error bounded by the bucket width (~3%).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// The window delta `self − prev`: per-bucket saturating
    /// subtraction, for carving one window's worth of samples out of a
    /// cumulative histogram. When `prev` is an earlier snapshot of the
    /// same monotone stream the delta is exact — it equals the histogram
    /// of just the samples recorded between the two snapshots. `min` and
    /// `max` are reconstructed from the surviving buckets (bucket
    /// floors), which is the same resolution [`percentile`] reports at.
    ///
    /// [`percentile`]: Self::percentile
    pub fn delta_since(&self, prev: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        let mut first: Option<usize> = None;
        let mut last = 0usize;
        for i in 0..NUM_BUCKETS {
            let c = self.counts[i].saturating_sub(prev.counts[i]);
            if c > 0 {
                d.counts[i] = c;
                d.count += c;
                if first.is_none() {
                    first = Some(i);
                }
                last = i;
            }
        }
        d.sum = self.sum.saturating_sub(prev.sum);
        if let Some(f) = first {
            d.min = bucket_floor(f);
            d.max = bucket_floor(last);
        }
        d
    }

    /// Non-empty buckets as `(le_bound, bucket_count)` pairs, in
    /// ascending bound order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_ceiling(i), c))
    }

    /// A compact serializable summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// Serializable digest of a [`Histogram`]: counts, bounds, and the
/// standard percentile trio, all integers.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct HistogramSummary {
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (bucket floor).
    pub p50: u64,
    /// 90th percentile (bucket floor).
    pub p90: u64,
    /// 99th percentile (bucket floor).
    pub p99: u64,
}

/// Lock-free histogram for concurrent recording. All updates are
/// relaxed atomics; [`snapshot`](Self::snapshot) materializes a plain
/// [`Histogram`]. A snapshot taken while writers are active is a
/// consistent *per-field* view, not a cross-field atomic cut — export
/// paths snapshot after the workload quiesces, which is also what the
/// byte-identical guarantee requires.
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples with one pass over the atomics — the
    /// batched hot path records a run of equal samples (e.g. zero
    /// inter-arrival gaps within one batch) at the cost of a single
    /// sample. Equivalent to calling [`record`](Self::record) `n` times.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Materialize a plain mergeable [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

/// Cache-line isolation for one stripe's scalar atomics, so recording
/// threads on different stripes never invalidate each other's lines.
#[repr(align(64))]
struct PaddedHistogram(AtomicHistogram);

/// A bank of per-stripe [`AtomicHistogram`]s that merge into one view at
/// snapshot time. Callers route each sample by a stripe index — in the
/// serve loop, the engine shard — so concurrent recorders touch disjoint
/// cache lines instead of all contending on one histogram's `count`,
/// `sum`, and hot-bucket atomics. Merging is deterministic: stripes fold
/// in index order and every [`Histogram`] field commutes under merge.
pub struct StripedHistogram {
    stripes: Box<[PaddedHistogram]>,
}

impl StripedHistogram {
    /// A bank of `stripes` empty histograms (clamped to ≥ 1).
    pub fn new(stripes: usize) -> Self {
        Self {
            stripes: (0..stripes.max(1))
                .map(|_| PaddedHistogram(AtomicHistogram::new()))
                .collect(),
        }
    }

    /// Record one sample on the caller's stripe (wrapped into range).
    pub fn record(&self, stripe: usize, v: u64) {
        self.stripes[stripe % self.stripes.len()].0.record(v);
    }

    /// Record `n` identical samples on the caller's stripe in one pass.
    pub fn record_n(&self, stripe: usize, v: u64, n: u64) {
        self.stripes[stripe % self.stripes.len()].0.record_n(v, n);
    }

    /// Total samples across all stripes.
    pub fn count(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.count()).sum()
    }

    /// Merge every stripe into one plain mergeable [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in self.stripes.iter() {
            h.merge(&s.0.snapshot());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_line() {
        // Floors are strictly increasing and each value maps into the
        // bucket whose [floor, ceiling] range contains it.
        for i in 1..NUM_BUCKETS {
            assert!(bucket_floor(i) > bucket_floor(i - 1), "bucket {i}");
        }
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1000, 1 << 40, u64::MAX] {
            let i = bucket_of(v);
            assert!(bucket_floor(i) <= v && v <= bucket_ceiling(i), "value {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32u64 {
            // Rank v+1 of 32 → quantile (v+1)/32 lands exactly on v.
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(h.percentile(q), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        let p = h.percentile(0.5);
        assert!(p <= 1_000_000);
        assert!((1_000_000 - p) as f64 / 1_000_000.0 < 0.04);
    }

    #[test]
    fn empty_histogram_is_finite_and_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.summary().p50, 0);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [0u64, 5, 31, 32, 100, 1 << 20] {
            a.record(v);
            p.record(v);
        }
        assert_eq!(a.snapshot(), p);
    }

    #[test]
    fn bulk_recording_equals_repeated_recording() {
        let bulk = AtomicHistogram::new();
        let one_by_one = AtomicHistogram::new();
        bulk.record_n(7, 5);
        bulk.record_n(1 << 20, 3);
        bulk.record_n(0, 0); // no-op
        for _ in 0..5 {
            one_by_one.record(7);
        }
        for _ in 0..3 {
            one_by_one.record(1 << 20);
        }
        assert_eq!(bulk.snapshot(), one_by_one.snapshot());

        let striped = StripedHistogram::new(4);
        striped.record_n(2, 7, 5);
        striped.record_n(2, 1 << 20, 3);
        assert_eq!(striped.snapshot(), bulk.snapshot());
    }

    #[test]
    fn delta_since_recovers_the_window_slice() {
        let mut early = Histogram::new();
        for v in [3u64, 40, 40, 1000] {
            early.record(v);
        }
        let mut late = early.clone();
        for v in [7u64, 40, 5000] {
            late.record(v);
        }
        let mut expected = Histogram::new();
        for v in [7u64, 40, 5000] {
            expected.record(v);
        }
        let delta = late.delta_since(&early);
        assert_eq!(delta.count(), expected.count());
        assert_eq!(delta.sum(), expected.sum());
        assert_eq!(
            delta.nonzero_buckets().collect::<Vec<_>>(),
            expected.nonzero_buckets().collect::<Vec<_>>()
        );
        // Empty delta: subtracting a snapshot from itself.
        let none = late.delta_since(&late);
        assert_eq!(none.count(), 0);
        assert_eq!(none.min(), None);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
    }
}
