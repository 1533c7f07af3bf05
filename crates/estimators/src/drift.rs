//! Context-drift diagnostics: detecting violations of assumption A1.
//!
//! Table 2's failure has a detectable signature: deploying a policy changed
//! the *distribution of contexts* (connection counts exploded on server 1),
//! so the logged contexts no longer describe the world the candidate policy
//! would create. A deployment pipeline can use that as a tripwire — compare
//! the contexts of a canary run against the exploration log, and distrust
//! every off-policy estimate if they diverge.
//!
//! The comparison is per shared-feature: mean shift in pooled-standard-
//! deviation units (an effect size, Cohen's d) plus a two-sample
//! Kolmogorov–Smirnov statistic, both hand-rolled.

use harvest_core::{Context, Dataset};
use serde::Serialize;

/// Drift report for one shared-feature dimension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FeatureDrift {
    /// Feature index within the shared feature vector.
    pub feature: usize,
    /// Mean in the logged (exploration) data.
    pub mean_logged: f64,
    /// Mean in the comparison (deployed/canary) data.
    pub mean_deployed: f64,
    /// Absolute standardized mean difference (Cohen's d); > 0.5 is
    /// conventionally a "medium" effect, > 0.8 "large".
    pub effect_size: f64,
    /// Two-sample Kolmogorov–Smirnov statistic (sup-distance between the
    /// empirical CDFs), in [0, 1].
    pub ks_statistic: f64,
}

/// A whole-context drift report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DriftReport {
    /// Per-feature drift, ordered by feature index.
    pub features: Vec<FeatureDrift>,
}

impl DriftReport {
    /// The largest per-feature effect size.
    pub fn max_effect_size(&self) -> f64 {
        self.features
            .iter()
            .map(|f| f.effect_size)
            .fold(0.0, f64::max)
    }

    /// The largest per-feature KS statistic.
    pub fn max_ks(&self) -> f64 {
        self.features
            .iter()
            .map(|f| f.ks_statistic)
            .fold(0.0, f64::max)
    }

    /// A conservative tripwire: true when any feature drifted by a large
    /// effect (d > 0.8) or the KS distance exceeds 0.3. When this fires,
    /// single-decision off-policy estimates computed on the logged data do
    /// not transfer to the deployed regime (assumption A1 is violated).
    pub fn a1_violation_suspected(&self) -> bool {
        self.features
            .iter()
            .any(|f| f.effect_size > 0.8 || f.ks_statistic > 0.3)
    }
}

fn ks_statistic(a: &mut [f64], b: &mut [f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    a.sort_by(|x, y| x.partial_cmp(y).expect("finite features"));
    b.sort_by(|x, y| x.partial_cmp(y).expect("finite features"));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let mut i = 0;
    let mut j = 0;
    let mut d: f64 = 0.0;
    // Sweep the merged value axis; at each distinct value, advance past
    // every tied observation in both samples before comparing the CDFs.
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// The drift of shared feature `feature` between its logged values `xs`
/// and its deployed values `ys`. The means and variances are summed in the
/// given order; then both slices are sorted in place for the KS statistic.
pub(crate) fn feature_drift(feature: usize, xs: &mut [f64], ys: &mut [f64]) -> FeatureDrift {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let var = |v: &[f64], m: f64| {
        if v.len() < 2 {
            0.0
        } else {
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64
        }
    };
    let (mx, my) = (mean(xs), mean(ys));
    let pooled = ((var(xs, mx) + var(ys, my)) / 2.0).sqrt();
    let effect_size = if pooled > 1e-12 {
        (mx - my).abs() / pooled
    } else if (mx - my).abs() > 1e-12 {
        f64::INFINITY
    } else {
        0.0
    };
    FeatureDrift {
        feature,
        mean_logged: mx,
        mean_deployed: my,
        effect_size,
        ks_statistic: ks_statistic(xs, ys),
    }
}

/// Compares the shared-feature distributions of two datasets.
///
/// Both datasets must carry contexts with the same shared-feature
/// dimension; extra dimensions in either are ignored (the comparison runs
/// over the common prefix).
pub fn context_drift<C: Context>(logged: &Dataset<C>, deployed: &Dataset<C>) -> DriftReport {
    let dim_of = |data: &Dataset<C>| {
        data.samples()
            .first()
            .map_or(0, |s| s.context.shared_features().len())
    };
    let column = |data: &Dataset<C>, f: usize| -> Vec<f64> {
        data.iter()
            .map(|s| s.context.shared_features()[f])
            .collect()
    };
    let features = (0..dim_of(logged).min(dim_of(deployed)))
        .map(|f| feature_drift(f, &mut column(logged, f), &mut column(deployed, f)))
        .collect();
    DriftReport { features }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::sample::LoggedDecision;
    use harvest_core::SimpleContext;

    fn dataset_with_feature(values: &[f64]) -> Dataset<SimpleContext> {
        Dataset::from_samples(
            values
                .iter()
                .map(|&x| LoggedDecision {
                    context: SimpleContext::new(vec![x], 2),
                    action: 0,
                    reward: 0.0,
                    propensity: 0.5,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn identical_distributions_show_no_drift() {
        let vals: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let a = dataset_with_feature(&vals);
        let b = dataset_with_feature(&vals);
        let report = context_drift(&a, &b);
        assert_eq!(report.features.len(), 1);
        assert!(report.max_effect_size() < 1e-9);
        assert!(report.max_ks() < 0.02, "ks {}", report.max_ks());
        assert!(!report.a1_violation_suspected());
    }

    #[test]
    fn shifted_distributions_trip_the_wire() {
        let a: Vec<f64> = (0..300).map(|i| (i % 10) as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| (i % 10) as f64 + 20.0).collect();
        let report = context_drift(&dataset_with_feature(&a), &dataset_with_feature(&b));
        assert!(report.max_effect_size() > 3.0);
        assert!(report.max_ks() > 0.9);
        assert!(report.a1_violation_suspected());
    }

    #[test]
    fn constant_features_compare_exactly() {
        let a = dataset_with_feature(&[5.0; 50]);
        let b = dataset_with_feature(&[5.0; 50]);
        assert!(!context_drift(&a, &b).a1_violation_suspected());
        let c = dataset_with_feature(&[6.0; 50]);
        let report = context_drift(&a, &c);
        assert!(report.features[0].effect_size.is_infinite());
        assert!(report.a1_violation_suspected());
    }

    #[test]
    fn ks_statistic_known_values() {
        // Disjoint supports => KS = 1.
        assert!((ks_statistic(&mut [1.0, 2.0], &mut [5.0, 6.0]) - 1.0).abs() < 1e-12);
        // Identical singletons => small.
        assert!(ks_statistic(&mut [3.0], &mut [3.0]) <= 1.0);
    }

    #[test]
    fn empty_datasets_are_safe() {
        let empty: Dataset<SimpleContext> = Dataset::new();
        let a = dataset_with_feature(&[1.0]);
        let report = context_drift(&empty, &a);
        assert!(report.features.is_empty());
        assert!(!report.a1_violation_suspected());
    }
}
