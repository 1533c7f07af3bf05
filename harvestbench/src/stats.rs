//! Order statistics for latency samples and per-episode figures.

/// Percentiles the tail helper may report, in parts per ten thousand.
pub const LADDER: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pp` (parts per ten thousand) among
/// `n` samples, in integer arithmetic so p99 of 1000 is exactly rank 990.
fn rank(n: usize, pp: u32) -> usize {
    (n * pp as usize).div_ceil(10_000).max(1)
}

/// Nearest-rank percentile of ascending `sorted`; `pp` in parts per ten
/// thousand (`9_900` is p99).
pub fn percentile(sorted: &[f64], pp: u32) -> f64 {
    sorted[rank(sorted.len(), pp) - 1]
}

/// A tail figure with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in parts per ten thousand.
    pub pp: u32,
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// The percentile as a label: `p99`, `p99.9`, ...
    pub fn label(&self) -> String {
        let whole = self.pp / 100;
        let frac = self.pp % 100;
        if frac == 0 {
            format!("p{whole}")
        } else {
            format!("p{whole}.{}", format!("{frac:02}").trim_end_matches('0'))
        }
    }
}

/// Whether at least [`MIN_BEYOND`] of `n` samples lie beyond percentile
/// `pp`.
pub fn supported(n: usize, pp: u32) -> bool {
    n > 0 && n - rank(n, pp) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it. `None` when not even the median is supported.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pp| supported(sorted.len(), pp))
        .map(|pp| Tail {
            pp,
            value: percentile(sorted, pp),
            samples: sorted.len(),
        })
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a sample vector in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 5_000), 500.0);
        assert_eq!(percentile(&v, 9_900), 990.0);
        assert_eq!(percentile(&v, 9_990), 999.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pp, t.value, t.samples), (9_900, 990.0, 1000));
        assert_eq!(t.label(), "p99");
        // 999 samples: p99 leaves 9 beyond, so p90 is the highest.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.pp, t.samples), (9_000, 999));
        // 10 000 samples: p99.9 leaves 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pp, t.value), (9_990, 9_990.0));
        assert_eq!(t.label(), "p99.9");
        // 100 000 samples: p99.99 leaves 10 beyond.
        assert_eq!(tail(&ramp(100_000)).unwrap().label(), "p99.99");
    }

    #[test]
    fn tail_of_tiny_samples() {
        assert_eq!(tail(&ramp(15)), None);
        assert_eq!(tail(&ramp(20)).unwrap().pp, 5_000);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
