//! The one estimator core: the per-record IPS, SNIPS and DR terms and
//! their streaming moments.
//!
//! Every off-policy value this crate reports for a contextual-bandit log
//! comes out of [`CandidateState`]. The portfolio folds one per candidate
//! over segment bytes ([`crate::portfolio`]); [`crate::OffPolicyEvaluator`]
//! folds one over a [`harvest_core::Dataset`] for a deterministic policy,
//! whose weight is `1{π(x)=a}/p`. So the promotion gate and the paper
//! figures price a policy with the same formulas.

use crate::bounds::{empirical_bernstein_radius, BoundConfig};
use crate::diagnostics::WeightStats;
use crate::estimate::Estimate;
use crate::portfolio::PolicyEstimate;

/// Streaming moments of the per-record estimator terms, enough for the
/// empirical-Bernstein radius: count, sum, sum of squares, range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TermMoments {
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl TermMoments {
    fn new() -> Self {
        TermMoments {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, t: f64) {
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
    /// `σ/√n` (0 when empty).
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
        if self.weights.sum > 0.0 {
            self.snips.sum / self.weights.sum
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
}
