//! Harvest-quality diagnostics: is this log good enough to learn from?
//!
//! Off-policy evaluation is only as trustworthy as the harvested
//! `⟨x, a, r, p⟩` tuples behind it (§4's failure modes: drifted
//! contexts, collapsed propensities, a handful of samples carrying all
//! the weight). This module condenses those failure signatures into one
//! serializable [`HarvestQuality`] gauge set, computed per training
//! round from the weight moments the gate's portfolio pass already folded
//! — so a refusal or a breaker trip can cite *why* the data was
//! distrusted.
//!
//! Every rate is zero-guarded: an empty harvest yields all-zero, finite
//! gauges, never NaN.

use harvest_core::Context;
use serde::Serialize;

use crate::drift::{feature_drift, DriftReport};
pub use crate::fold::WeightStats;

/// Per-round data-quality gauges for a harvested dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HarvestQuality {
    /// Harvested samples.
    pub n: usize,
    /// Kish effective sample size of the importance weights:
    /// `(Σw)² / Σw²`. Equals `n` for uniform weights; collapses toward
    /// 1 when a few samples dominate.
    pub effective_sample_size: f64,
    /// `effective_sample_size / n` in [0, 1] (0 when empty).
    pub ess_fraction: f64,
    /// Smallest importance weight (0 when empty).
    pub min_weight: f64,
    /// Largest importance weight (0 when empty).
    pub max_weight: f64,
    /// Fraction of total weight mass above the clip threshold —
    /// the mass an IPS clip would discard or distort.
    pub clipped_weight_mass: f64,
    /// Fraction of samples logged at the exploration floor
    /// `ε / num_actions` — decisions kept alive only by the ε floor.
    pub floor_hit_rate: f64,
    /// Largest per-feature effect size between the first and second
    /// half of the harvest (ordered by log position).
    pub drift_max_effect_size: f64,
    /// Largest per-feature KS statistic between the two halves.
    pub drift_max_ks: f64,
    /// The drift tripwire: assumption A1 (stable context distribution)
    /// looks violated within this harvest window.
    pub drift_suspected: bool,
}

impl HarvestQuality {
    /// The all-zero gauge set for an empty harvest.
    pub fn empty() -> Self {
        HarvestQuality {
            n: 0,
            effective_sample_size: 0.0,
            ess_fraction: 0.0,
            min_weight: 0.0,
            max_weight: 0.0,
            clipped_weight_mass: 0.0,
            floor_hit_rate: 0.0,
            drift_max_effect_size: 0.0,
            drift_max_ks: 0.0,
            drift_suspected: false,
        }
    }
}

/// What [`harvest_quality`] reads of the harvested decisions, gathered in
/// log order: how many, how many were logged at the exploration floor
/// `ε/K`, and one column per shared feature every decision carries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestColumns {
    epsilon: f64,
    n: usize,
    floor_hits: usize,
    columns: Vec<Vec<f64>>,
}

impl HarvestColumns {
    /// No decisions yet, served under the exploration floor `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        HarvestColumns {
            epsilon,
            n: 0,
            floor_hits: 0,
            columns: Vec::new(),
        }
    }

    /// Adds the next decision: its context and the propensity it was
    /// scored with.
    pub fn push<C: Context>(&mut self, context: &C, propensity: f64) {
        let floor = self.epsilon / context.num_actions() as f64;
        self.floor_hits += usize::from(propensity <= floor * (1.0 + 1e-9));
        let shared = context.shared_features();
        if self.n == 0 {
            self.columns = vec![Vec::new(); shared.len()];
        }
        self.columns.truncate(shared.len());
        for (column, &x) in self.columns.iter_mut().zip(shared) {
            column.push(x);
        }
        self.n += 1;
    }
}

/// Computes the quality gauges for the decisions in `columns` under the
/// importance-weight moments `stats` folded over them (one weight per
/// decision, `π(aₜ|xₜ)/pₜ`, as a portfolio pass folds them; clipped mass
/// counts against the clip `stats` was built with).
///
/// Weight gauges fall back to [`HarvestQuality::empty`] values when
/// `stats` is empty or its count disagrees with the decisions'.
pub fn harvest_quality(columns: HarvestColumns, stats: &WeightStats) -> HarvestQuality {
    let n = columns.n;
    let mut q = HarvestQuality {
        n,
        ..HarvestQuality::empty()
    };

    if n > 0 && stats.n() == n as u64 {
        q.effective_sample_size = stats.ess();
        q.ess_fraction = q.effective_sample_size / n as f64;
        q.min_weight = stats.min_or_zero();
        q.max_weight = stats.max_or_zero();
        q.clipped_weight_mass = stats.clipped_mass();
    }

    if n > 0 {
        q.floor_hit_rate = columns.floor_hits as f64 / n as f64;
    }

    // Within-window drift: compare the first and second half of the
    // harvest in log order. Too few samples → no verdict, not NaN.
    if n >= 4 {
        let report = DriftReport {
            features: columns
                .columns
                .into_iter()
                .enumerate()
                .map(|(f, mut column)| {
                    let (first, second) = column.split_at_mut(n / 2);
                    feature_drift(f, first, second)
                })
                .collect(),
        };
        q.drift_max_effect_size = report.max_effect_size();
        q.drift_max_ks = report.max_ks();
        q.drift_suspected = report.a1_violation_suspected();
    }

    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::SimpleContext;

    /// Two-action decisions with feature `x` logged at propensity `p`,
    /// served under the floor `epsilon`.
    fn columns(points: &[(f64, f64)], epsilon: f64) -> HarvestColumns {
        let mut columns = HarvestColumns::new(epsilon);
        for &(x, p) in points {
            columns.push(&SimpleContext::new(vec![x], 2), p);
        }
        columns
    }

    /// The moments of `weights` under a clip of 10.
    fn stats(weights: &[f64]) -> WeightStats {
        let mut s = WeightStats::new(10.0);
        for &w in weights {
            s.observe(w);
        }
        s
    }

    #[test]
    fn empty_harvest_is_all_finite_zeros() {
        let q = harvest_quality(columns(&[], 0.1), &stats(&[]));
        assert_eq!(q, HarvestQuality::empty());
    }

    #[test]
    fn uniform_weights_have_full_ess() {
        let data = columns(&[(0.1, 0.5), (0.2, 0.5), (0.3, 0.5), (0.4, 0.5)], 0.1);
        let q = harvest_quality(data, &stats(&[1.0; 4]));
        assert!((q.effective_sample_size - 4.0).abs() < 1e-12);
        assert!((q.ess_fraction - 1.0).abs() < 1e-12);
        assert_eq!(q.min_weight, 1.0);
        assert_eq!(q.max_weight, 1.0);
        assert_eq!(q.clipped_weight_mass, 0.0);
    }

    #[test]
    fn one_dominant_weight_collapses_ess() {
        let data = columns(&[(0.1, 0.5), (0.2, 0.5), (0.3, 0.5), (0.4, 0.5)], 0.1);
        let q = harvest_quality(data, &stats(&[100.0, 0.01, 0.01, 0.01]));
        assert!(q.effective_sample_size < 1.1, "{q:?}");
        assert!(q.clipped_weight_mass > 0.99, "{q:?}");
        assert_eq!(q.max_weight, 100.0);
    }

    #[test]
    fn floor_hits_are_counted_exactly() {
        // ε = 0.2, K = 2 → floor propensity 0.1.
        let data = columns(&[(0.1, 0.1), (0.2, 0.9), (0.3, 0.1), (0.4, 0.9)], 0.2);
        let q = harvest_quality(data, &stats(&[1.0; 4]));
        assert!((q.floor_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn within_window_drift_trips_the_gauge() {
        let mut points = Vec::new();
        for i in 0..50 {
            points.push(((i % 5) as f64, 0.5));
        }
        for i in 0..50 {
            points.push(((i % 5) as f64 + 100.0, 0.5));
        }
        let q = harvest_quality(columns(&points, 0.1), &stats(&[1.0; 100]));
        assert!(q.drift_suspected, "{q:?}");
        assert!(q.drift_max_effect_size > 3.0);
    }

    #[test]
    fn mismatched_weights_leave_weight_gauges_zero() {
        let data = columns(&[(0.1, 0.5), (0.2, 0.5)], 0.1);
        let q = harvest_quality(data, &stats(&[1.0]));
        assert_eq!(q.effective_sample_size, 0.0);
        assert_eq!(q.max_weight, 0.0);
        // Non-weight gauges still computed.
        assert!(q.floor_hit_rate >= 0.0);
    }
}
