//! The one estimator core: streaming moments of per-record estimator
//! terms, and the per-record IPS, SNIPS and DR terms folded through them.
//!
//! Every term-mean estimate and weight gauge this crate reports comes out
//! of [`TermMoments`]. For a contextual-bandit log it is a [`CandidateState`]:
//! the portfolio folds one per candidate over segment bytes
//! ([`crate::portfolio`]); [`crate::OffPolicyEvaluator`] folds one over a
//! [`harvest_core::Dataset`] for a deterministic policy, whose weight is
//! `1{π(x)=a}/p`. So the promotion gate and the paper figures price a
//! policy with the same formulas. The direct method, the A/B arms and the
//! per-episode trajectory estimators fold their terms into one
//! `TermMoments` each, and [`WeightStats`] is one over the importance
//! weights.

use crate::bounds::{empirical_bernstein_radius, BoundConfig};
use crate::estimate::Estimate;
use crate::portfolio::PolicyEstimate;

/// Streaming moments of the per-record estimator terms, enough for the
/// empirical-Bernstein radius: count, sum, sum of squares, range. The sum
/// is taken in observation order, so [`Self::mean`] is the in-order `Σt/n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TermMoments {
    n: u64,
    sum: f64,
    sum_sq: f64,
    /// Smallest term seen (`+∞` when empty).
    min: f64,
    /// Largest term seen (`−∞` when empty).
    max: f64,
}

impl TermMoments {
    pub(crate) fn new() -> Self {
        TermMoments {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub(crate) fn observe(&mut self, t: f64) {
        self.n += 1;
        self.sum += t;
        self.sum_sq += t * t;
        self.min = self.min.min(t);
        self.max = self.max.max(t);
    }

    fn merge(&mut self, other: &TermMoments) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.n > 0 {
            self.sum / self.n as f64
        } else {
            0.0
        }
    }

    /// Sample variance from the streaming moments: 0 when `n ≤ 1` or every
    /// term is equal (where `Σt² − (Σt)²/n` leaves only rounding noise),
    /// otherwise floored at zero against cancellation noise.
    fn variance(&self) -> f64 {
        if self.n <= 1 || self.min == self.max {
            return 0.0;
        }
        let n = self.n as f64;
        ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0)
    }

    /// Bernstein radius around [`Self::mean`] at the config's δ,
    /// simultaneously valid for `k` candidates; `∞` when `n ≤ 1`.
    fn radius(&self, bound: &BoundConfig, k: f64) -> f64 {
        if self.n <= 1 {
            return f64::INFINITY;
        }
        let n = self.n as f64;
        empirical_bernstein_radius(bound, self.variance(), self.max - self.min, n, k)
    }

    /// `value` as an [`Estimate`] over these terms, with standard error
    /// `σ/√n` (0 when empty). The term-mean estimators pass [`Self::mean`].
    pub(crate) fn estimate(&self, value: f64, matched: usize) -> Estimate {
        let std_err = if self.n > 0 {
            (self.variance() / self.n as f64).sqrt()
        } else {
            0.0
        };
        Estimate {
            value,
            n: self.n as usize,
            matched,
            std_err,
        }
    }
}

/// Streaming, mergeable moments of a stream of importance weights: the
/// estimators' term moments (count, `Σw`, `Σw²`, range) over the weights,
/// plus the mass above a clip.
///
/// One record's weight `w = π(aₜ|xₜ)/pₜ` is computed **once** and then
/// shared by everything that needs it: the ESS and clipped-mass gauges
/// here, and each of the `k` portfolio accumulators on the streaming path
/// ([`crate::portfolio`]). The gauges read running sums that merge across
/// per-segment partials; no weight vector is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightStats {
    moments: TermMoments,
    /// `Σ w · 1{w > clip}` — the mass above the diagnostic clip.
    clipped_sum: f64,
    /// The clip threshold this accumulator counts mass against.
    clip: f64,
}

impl WeightStats {
    /// An empty accumulator counting clipped mass above `clip`.
    pub fn new(clip: f64) -> Self {
        WeightStats {
            moments: TermMoments::new(),
            clipped_sum: 0.0,
            clip,
        }
    }

    /// Folds in one precomputed importance weight.
    pub fn observe(&mut self, w: f64) {
        self.moments.observe(w);
        if w > self.clip {
            self.clipped_sum += w;
        }
    }

    /// Componentwise merge of two partials over disjoint record ranges.
    ///
    /// f64 addition is not associative, so a merged result is not in
    /// general bitwise equal to one global left-to-right fold — but for a
    /// *fixed* partition into segments merged in a *fixed* order, the
    /// result is a pure function of the data, independent of which thread
    /// computed each partial. That is the invariant the portfolio
    /// evaluator's parallel-equals-sequential guarantee rests on.
    pub fn merge(&mut self, other: &WeightStats) {
        debug_assert_eq!(self.clip, other.clip, "merging mismatched clips");
        self.moments.merge(&other.moments);
        self.clipped_sum += other.clipped_sum;
    }

    /// Weights observed.
    pub fn n(&self) -> u64 {
        self.moments.n
    }

    /// `Σ w`, in observation order.
    pub fn sum(&self) -> f64 {
        self.moments.sum
    }

    /// Kish effective sample size `(Σw)² / Σw²` (0 when empty).
    pub fn ess(&self) -> f64 {
        let TermMoments { sum, sum_sq, .. } = self.moments;
        if sum_sq > 0.0 {
            sum * sum / sum_sq
        } else {
            0.0
        }
    }

    /// Fraction of total weight mass above the clip (0 when empty). The
    /// `+ 0.0` keeps an all-below-clip stream at plain `0`, not `-0`.
    pub fn clipped_mass(&self) -> f64 {
        if self.moments.sum > 0.0 {
            self.clipped_sum / self.moments.sum + 0.0
        } else {
            0.0
        }
    }

    /// Smallest weight, 0 when empty (export-friendly).
    pub fn min_or_zero(&self) -> f64 {
        if self.moments.min.is_finite() {
            self.moments.min
        } else {
            0.0
        }
    }

    /// Largest weight, 0 when empty (export-friendly).
    pub fn max_or_zero(&self) -> f64 {
        if self.moments.max.is_finite() {
            self.moments.max
        } else {
            0.0
        }
    }
}

/// One candidate's accumulators over a record range: the per-record terms
/// of its three estimators and the importance-weight moments they share.
/// Partials merge in a fixed order, so a fixed partition of the records
/// gives the same estimates whichever thread folded each partial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CandidateState {
    /// Clipped IPS terms `r · min(w, clip)`.
    pub(crate) ips: TermMoments,
    /// SNIPS terms `w · r`; the estimate divides their sum by `Σ w`.
    pub(crate) snips: TermMoments,
    /// Doubly-robust terms `Σₐ π(a|x) r̂(x,a) + w (r − r̂(x, aₜ))`.
    pub(crate) dr: TermMoments,
    pub(crate) weights: WeightStats,
}

impl CandidateState {
    pub(crate) fn new(clip: f64) -> Self {
        CandidateState {
            ips: TermMoments::new(),
            snips: TermMoments::new(),
            dr: TermMoments::new(),
            weights: WeightStats::new(clip),
        }
    }

    /// Folds one record: its reward, its importance weight `π(aₜ|xₜ)/pₜ`
    /// (uncapped), the model baseline `Σₐ π(a|xₜ) r̂(xₜ, a)` and the model's
    /// score for the logged action (both 0 without a model).
    pub(crate) fn observe(&mut self, reward: f64, weight: f64, baseline: f64, model_logged: f64) {
        self.ips.observe(reward * weight.min(self.weights.clip));
        self.snips.observe(reward * weight);
        self.dr.observe(baseline + weight * (reward - model_logged));
        self.weights.observe(weight);
    }

    /// Merges the partial over the next record range.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.ips.merge(&other.ips);
        self.snips.merge(&other.snips);
        self.dr.merge(&other.dr);
        self.weights.merge(&other.weights);
    }

    /// The SNIPS point `Σ w·r / Σ w` (0 when no weight mass).
    pub(crate) fn snips_value(&self) -> f64 {
        if self.weights.sum() > 0.0 {
            self.snips.sum / self.weights.sum()
        } else {
            0.0
        }
    }

    /// The IPS, SNIPS and DR estimates, each interval simultaneously valid
    /// for `k` candidates.
    pub(crate) fn estimates(&self, bound: &BoundConfig, k: f64) -> [PolicyEstimate; 3] {
        let estimate = |terms: &TermMoments, point: f64| {
            let radius = terms.radius(bound, k);
            PolicyEstimate {
                point,
                lcb: point - radius,
                ucb: point + radius,
                ess: self.weights.ess(),
                n: terms.n,
            }
        };
        [
            estimate(&self.ips, self.ips.mean()),
            estimate(&self.snips, self.snips_value()),
            estimate(&self.dr, self.dr.mean()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_constant_term_stream_has_no_spread() {
        // Σt² − (Σt)²/n leaves rounding noise on equal terms (about 5e-9
        // std_err here); equal terms must read as exactly no spread.
        let mut terms = TermMoments::new();
        for _ in 0..100 {
            terms.observe(0.8);
        }
        assert_eq!(terms.estimate(terms.mean(), 100).std_err, 0.0);
        let bound = BoundConfig {
            c: 2.0,
            delta: 0.05,
        };
        assert_eq!(terms.radius(&bound, 1.0), 0.0);
    }

    #[test]
    fn estimate_reports_the_mean_and_its_standard_error() {
        let mut terms = TermMoments::new();
        let e = terms.estimate(terms.mean(), 0);
        assert_eq!(
            (e.value, e.n, e.std_err, e.match_rate()),
            (0.0, 0, 0.0, 0.0)
        );
        terms.observe(7.0);
        let e = terms.estimate(terms.mean(), 1);
        assert_eq!((e.value, e.std_err), (7.0, 0.0));
        let mut terms = TermMoments::new();
        for t in [1.0, 2.0, 3.0, 4.0] {
            terms.observe(t);
        }
        let e = terms.estimate(terms.mean(), 2);
        assert_eq!((e.value, e.n, e.matched, e.match_rate()), (2.5, 4, 2, 0.5));
        // var = 5/3, se = √(5/12).
        assert!((e.std_err - (5.0f64 / 12.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn weight_stats_merge_is_deterministic_and_close_to_sequential() {
        let weights = [0.25, 3.0, 11.5, 0.125, 7.0, 10.0001, 0.5];
        let mut sequential = WeightStats::new(10.0);
        for &w in &weights {
            sequential.observe(w);
        }
        let partial = |range: &[f64]| {
            let mut s = WeightStats::new(10.0);
            for &w in range {
                s.observe(w);
            }
            s
        };
        for split in 0..=weights.len() {
            let (a, b) = weights.split_at(split);
            // Recomputing the same partials and merging in the same order
            // is bit-identical — the parallel-pass invariant.
            let mut first = partial(a);
            first.merge(&partial(b));
            let mut second = partial(a);
            second.merge(&partial(b));
            assert_eq!(first.sum().to_bits(), second.sum().to_bits());
            assert_eq!(first, second);
            // And numerically indistinguishable from one global fold.
            let (merged, global) = (first.moments, sequential.moments);
            assert_eq!(merged.n, global.n);
            assert_eq!(merged.min, global.min);
            assert_eq!(merged.max, global.max);
            assert!((merged.sum - global.sum).abs() < 1e-9);
            assert!((merged.sum_sq - global.sum_sq).abs() < 1e-9);
            assert!((first.clipped_sum - sequential.clipped_sum).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_weight_stats_export_zeros() {
        let stats = WeightStats::new(10.0);
        assert_eq!(stats.ess(), 0.0);
        assert_eq!(stats.clipped_mass(), 0.0);
        assert_eq!(stats.min_or_zero(), 0.0);
        assert_eq!(stats.max_or_zero(), 0.0);
    }
}
