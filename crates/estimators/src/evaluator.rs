//! A unified evaluation front end: estimator selection, bootstrap
//! confidence intervals, and exploration-data diagnostics.

use rand::Rng;

use harvest_core::{Context, Dataset, Policy, Scorer};
use serde::{Deserialize, Serialize};

use crate::direct::direct_method;
use crate::estimate::Estimate;

/// Implementation behind [`EstimatorKind::Ips`].
pub(crate) fn eval_ips<C: Context, P: Policy<C> + ?Sized>(
    data: &Dataset<C>,
    policy: &P,
) -> Estimate {
    eval_clipped_ips(data, policy, f64::INFINITY)
}

/// Implementation behind [`EstimatorKind::ClippedIps`].
pub(crate) fn eval_clipped_ips<C: Context, P: Policy<C> + ?Sized>(
    data: &Dataset<C>,
    policy: &P,
    max_weight: f64,
) -> Estimate {
    assert!(max_weight > 0.0, "max_weight must be positive");
    let mut terms = Vec::with_capacity(data.len());
    let mut matched = 0;
    for s in data {
        if policy.choose(&s.context) == s.action {
            matched += 1;
            let w = (1.0 / s.propensity).min(max_weight);
            terms.push(s.reward * w);
        } else {
            terms.push(0.0);
        }
    }
    Estimate::from_terms(&terms, matched)
}

/// Implementation behind [`EstimatorKind::Snips`].
pub(crate) fn eval_snips<C: Context, P: Policy<C> + ?Sized>(
    data: &Dataset<C>,
    policy: &P,
) -> Estimate {
    let mut num = 0.0;
    let mut den = 0.0;
    let mut matched = 0;
    let mut matched_terms = Vec::new();
    for s in data {
        if policy.choose(&s.context) == s.action {
            matched += 1;
            let w = 1.0 / s.propensity;
            num += s.reward * w;
            den += w;
            matched_terms.push(s.reward);
        }
    }
    if den == 0.0 {
        return Estimate {
            value: 0.0,
            n: data.len(),
            matched: 0,
            std_err: 0.0,
        };
    }
    // Std-err proxy: spread of matched rewards over √matched. (The exact
    // delta-method variance needs weight covariances; this proxy is
    // reported for diagnostics only.)
    let est = Estimate::from_terms(&matched_terms, matched);
    Estimate {
        value: num / den,
        n: data.len(),
        matched,
        std_err: est.std_err,
    }
}

/// Implementation behind [`ModelEstimatorKind::DoublyRobust`].
pub(crate) fn eval_dr<C, P, M>(data: &Dataset<C>, policy: &P, model: &M) -> Estimate
where
    C: Context,
    P: Policy<C> + ?Sized,
    M: Scorer<C> + ?Sized,
{
    let mut terms = Vec::with_capacity(data.len());
    let mut matched = 0;
    for s in data {
        let a_pi = policy.choose(&s.context);
        let mut term = model.score(&s.context, a_pi);
        if a_pi == s.action {
            matched += 1;
            term += (s.reward - model.score(&s.context, s.action)) / s.propensity;
        }
        terms.push(term);
    }
    Estimate::from_terms(&terms, matched)
}

/// Which model-free estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EstimatorKind {
    /// Plain inverse propensity scoring.
    Ips,
    /// IPS with importance weights clipped at the given maximum.
    ClippedIps(f64),
    /// Self-normalized IPS.
    Snips,
}

/// Which model-based estimator to use (both need a reward model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelEstimatorKind {
    /// Direct method: trust the model.
    DirectMethod,
    /// Doubly robust: model baseline + IPS correction.
    DoublyRobust,
}

/// Evaluates policies on exploration data with a chosen estimator.
#[derive(Debug, Clone, Copy)]
pub struct OffPolicyEvaluator {
    kind: EstimatorKind,
}

impl OffPolicyEvaluator {
    /// Creates an evaluator with the given estimator.
    pub fn new(kind: EstimatorKind) -> Self {
        OffPolicyEvaluator { kind }
    }

    /// The configured estimator.
    pub fn kind(&self) -> EstimatorKind {
        self.kind
    }

    /// Point estimate of `policy` on `data`.
    pub fn evaluate<C: Context, P: Policy<C> + ?Sized>(
        &self,
        data: &Dataset<C>,
        policy: &P,
    ) -> Estimate {
        match self.kind {
            EstimatorKind::Ips => eval_ips(data, policy),
            EstimatorKind::ClippedIps(max) => eval_clipped_ips(data, policy, max),
            EstimatorKind::Snips => eval_snips(data, policy),
        }
    }

    /// Point estimate with a reward model (direct method / doubly robust).
    pub fn evaluate_with_model<C, P, M>(
        data: &Dataset<C>,
        policy: &P,
        model: &M,
        kind: ModelEstimatorKind,
    ) -> Estimate
    where
        C: Context,
        P: Policy<C> + ?Sized,
        M: Scorer<C> + ?Sized,
    {
        match kind {
            ModelEstimatorKind::DirectMethod => direct_method(data, policy, model),
            ModelEstimatorKind::DoublyRobust => eval_dr(data, policy, model),
        }
    }

    /// Bootstrap percentile confidence interval for the estimate.
    ///
    /// Resamples the dataset with replacement `reps` times and returns the
    /// `(lo_q, hi_q)` percentiles of the re-estimated values — the
    /// procedure behind Fig 3's 5th/95th error bars.
    pub fn bootstrap_ci<C, P, R>(
        &self,
        data: &Dataset<C>,
        policy: &P,
        reps: usize,
        lo_q: f64,
        hi_q: f64,
        rng: &mut R,
    ) -> (f64, f64)
    where
        C: Context + Clone,
        P: Policy<C> + ?Sized,
        R: Rng + ?Sized,
    {
        assert!(reps > 0, "need at least one bootstrap replicate");
        assert!((0.0..=1.0).contains(&lo_q) && (0.0..=1.0).contains(&hi_q) && lo_q <= hi_q);
        let n = data.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let samples = data.samples();
        let mut values = Vec::with_capacity(reps);
        for _ in 0..reps {
            let resample: Vec<_> = (0..n)
                .map(|_| samples[rng.gen_range(0..n)].clone())
                .collect();
            let ds = Dataset::from_samples(resample).expect("resampled from valid data");
            values.push(self.evaluate(&ds, policy).value);
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
        let pick = |q: f64| {
            let pos = q * (values.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            values[lo] * (1.0 - frac) + values[hi] * frac
        };
        (pick(lo_q), pick(hi_q))
    }
}

/// The IPS estimate of `policy` together with a data-dependent empirical
/// Bernstein confidence radius (simultaneously valid for `k` policies at
/// the bound config's δ).
///
/// Tighter than Eq. 1 whenever the realized importance weights are benign;
/// this is the bound a production evaluator would report per candidate.
pub fn ips_with_bernstein<C, P>(
    data: &Dataset<C>,
    policy: &P,
    cfg: &crate::bounds::BoundConfig,
    k: f64,
) -> (Estimate, f64)
where
    C: Context,
    P: Policy<C> + ?Sized,
{
    let terms = crate::ips::ips_terms(data, policy);
    let est = Estimate::from_terms(&terms, 0);
    let n = terms.len() as f64;
    if n < 2.0 {
        return (eval_ips(data, policy), f64::INFINITY);
    }
    let mean = est.value;
    let var = terms.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / (n - 1.0);
    let lo = terms.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let radius = crate::bounds::empirical_bernstein_radius(cfg, var, hi - lo, n, k);
    (eval_ips(data, policy), radius)
}

/// Diagnostics about how well exploration data supports evaluating a
/// particular policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataDiagnostics {
    /// Number of samples.
    pub n: usize,
    /// Fraction of samples where the policy matches the logged action.
    pub match_rate: f64,
    /// Effective sample size of the matched importance weights.
    pub effective_sample_size: f64,
    /// Largest importance weight among matched samples.
    pub max_weight: f64,
    /// Smallest logged propensity in the data (the `ε` of Eq. 1).
    pub min_propensity: f64,
}

/// Computes [`DataDiagnostics`] for evaluating `policy` on `data`.
pub fn diagnose<C: Context, P: Policy<C> + ?Sized>(
    data: &Dataset<C>,
    policy: &P,
) -> DataDiagnostics {
    let mut matched = 0usize;
    let mut sum_w = 0.0;
    let mut sum_w2 = 0.0;
    let mut max_w: f64 = 0.0;
    for s in data {
        if policy.choose(&s.context) == s.action {
            matched += 1;
            let w = 1.0 / s.propensity;
            sum_w += w;
            sum_w2 += w * w;
            max_w = max_w.max(w);
        }
    }
    DataDiagnostics {
        n: data.len(),
        match_rate: if data.is_empty() {
            0.0
        } else {
            matched as f64 / data.len() as f64
        },
        effective_sample_size: if sum_w2 > 0.0 {
            sum_w * sum_w / sum_w2
        } else {
            0.0
        },
        max_weight: max_w,
        min_propensity: data.min_propensity().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::policy::{ConstantPolicy, UniformPolicy};
    use harvest_core::sample::{FullFeedbackDataset, FullFeedbackSample, LoggedDecision};
    use harvest_core::scorer::TableScorer;
    use harvest_core::simulate::simulate_exploration;
    use harvest_core::SimpleContext;
    use rand::SeedableRng;

    fn bandit_exploration(
        n: usize,
        seed: u64,
    ) -> (FullFeedbackDataset<SimpleContext>, Dataset<SimpleContext>) {
        let mut full = FullFeedbackDataset::default();
        for _ in 0..n {
            full.push(FullFeedbackSample {
                context: SimpleContext::contextless(2),
                rewards: vec![0.3, 0.7],
            })
            .unwrap();
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let expl = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
        (full, expl)
    }

    #[test]
    fn kinds_dispatch() {
        let (_, expl) = bandit_exploration(5000, 1);
        let pol = ConstantPolicy::new(1);
        let v_ips = OffPolicyEvaluator::new(EstimatorKind::Ips)
            .evaluate(&expl, &pol)
            .value;
        let v_snips = OffPolicyEvaluator::new(EstimatorKind::Snips)
            .evaluate(&expl, &pol)
            .value;
        let v_clip = OffPolicyEvaluator::new(EstimatorKind::ClippedIps(1.0))
            .evaluate(&expl, &pol)
            .value;
        assert!((v_ips - 0.7).abs() < 0.05);
        assert!((v_snips - 0.7).abs() < 0.01);
        // Clipping at weight 1 halves the matched mass (p = 0.5 => w = 2
        // clipped to 1).
        assert!(v_clip < v_ips);
    }

    #[test]
    fn model_estimators_dispatch() {
        let (_, expl) = bandit_exploration(2000, 2);
        let pol = ConstantPolicy::new(1);
        let model = TableScorer::new(vec![0.3, 0.7]);
        let dm = OffPolicyEvaluator::evaluate_with_model(
            &expl,
            &pol,
            &model,
            ModelEstimatorKind::DirectMethod,
        );
        assert!((dm.value - 0.7).abs() < 1e-12);
        let dr = OffPolicyEvaluator::evaluate_with_model(
            &expl,
            &pol,
            &model,
            ModelEstimatorKind::DoublyRobust,
        );
        assert!((dr.value - 0.7).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_ci_covers_truth_and_narrows() {
        let (full, expl) = bandit_exploration(4000, 3);
        let pol = ConstantPolicy::new(1);
        let truth = full.value_of_policy(&pol).unwrap();
        let eval = OffPolicyEvaluator::new(EstimatorKind::Ips);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let (lo, hi) = eval.bootstrap_ci(&expl, &pol, 200, 0.05, 0.95, &mut rng);
        assert!(lo <= truth && truth <= hi, "[{lo}, {hi}] vs {truth}");
        // Larger dataset => narrower interval.
        let (_, expl_big) = bandit_exploration(40_000, 5);
        let (lo2, hi2) = eval.bootstrap_ci(&expl_big, &pol, 200, 0.05, 0.95, &mut rng);
        assert!(hi2 - lo2 < hi - lo, "widths {} vs {}", hi2 - lo2, hi - lo);
    }

    #[test]
    fn bootstrap_of_empty_data_is_zero() {
        let eval = OffPolicyEvaluator::new(EstimatorKind::Ips);
        let data: Dataset<SimpleContext> = Dataset::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        assert_eq!(
            eval.bootstrap_ci(&data, &ConstantPolicy::new(0), 10, 0.05, 0.95, &mut rng),
            (0.0, 0.0)
        );
    }

    #[test]
    fn bernstein_radius_brackets_the_truth() {
        let (full, expl) = bandit_exploration(20_000, 9);
        let pol = ConstantPolicy::new(1);
        let truth = full.value_of_policy(&pol).unwrap();
        let cfg = crate::bounds::BoundConfig {
            c: 2.0,
            delta: 0.05,
        };
        let (est, radius) = ips_with_bernstein(&expl, &pol, &cfg, 100.0);
        assert!(radius.is_finite() && radius > 0.0);
        assert!(
            (est.value - truth).abs() < radius,
            "estimate {} truth {truth} radius {radius}",
            est.value
        );
        // More data tightens the radius.
        let (_, expl_small) = bandit_exploration(2_000, 10);
        let (_, small_radius) = ips_with_bernstein(&expl_small, &pol, &cfg, 100.0);
        assert!(radius < small_radius);
    }

    #[test]
    fn bernstein_on_tiny_data_is_infinite() {
        let (_, expl) = bandit_exploration(1, 11);
        let cfg = crate::bounds::BoundConfig {
            c: 2.0,
            delta: 0.05,
        };
        let (_, radius) = ips_with_bernstein(&expl, &ConstantPolicy::new(0), &cfg, 1.0);
        assert!(radius.is_infinite());
    }

    #[test]
    fn diagnostics_report_support() {
        let data = Dataset::from_samples(vec![
            LoggedDecision {
                context: SimpleContext::contextless(2),
                action: 0,
                reward: 1.0,
                propensity: 0.25,
            },
            LoggedDecision {
                context: SimpleContext::contextless(2),
                action: 1,
                reward: 1.0,
                propensity: 0.75,
            },
        ])
        .unwrap();
        let d = diagnose(&data, &ConstantPolicy::new(0));
        assert_eq!(d.n, 2);
        assert_eq!(d.match_rate, 0.5);
        assert_eq!(d.max_weight, 4.0);
        assert_eq!(d.min_propensity, 0.25);
        assert!((d.effective_sample_size - 1.0).abs() < 1e-12);
        // A policy matching nothing.
        let d2 = diagnose(&data, &ConstantPolicy::new(1));
        assert_eq!(d2.match_rate, 0.5);
        let none = Dataset::<SimpleContext>::new();
        let d3 = diagnose(&none, &ConstantPolicy::new(0));
        assert_eq!(d3.match_rate, 0.0);
        assert_eq!(d3.effective_sample_size, 0.0);
    }
}
