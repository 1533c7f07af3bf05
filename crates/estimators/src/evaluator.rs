//! A unified evaluation front end: estimator selection, bootstrap
//! confidence intervals, and exploration-data diagnostics.
//!
//! Every estimate here is a one-candidate fold over the portfolio's
//! accumulators: a deterministic policy is a candidate whose weight is
//! `1{π(x)=a}/p`, and its IPS, SNIPS and DR terms are the ones the
//! promotion gate folds over segment logs.

use rand::Rng;

use harvest_core::{Context, Dataset, LoggedDecision, Policy, Scorer};
use serde::Serialize;

use crate::estimate::Estimate;
use crate::fold::CandidateState;

/// Folds `samples` through one candidate's accumulators for the
/// deterministic `policy`: each sample's weight is `1{π(x)=a}/p`, its DR
/// baseline `r̂(x, π(x))` and its logged-action score `r̂(x, a)`. Returns
/// the fold and the number of samples on which `policy` chose the logged
/// action.
fn fold<'a, C, P>(
    samples: impl IntoIterator<Item = &'a LoggedDecision<C>>,
    policy: &P,
    clip: f64,
    model: impl Fn(&C, usize) -> f64,
) -> (CandidateState, usize)
where
    C: Context + 'a,
    P: Policy<C> + ?Sized,
{
    let mut state = CandidateState::new(clip);
    let mut matched = 0;
    for s in samples {
        let chosen = policy.choose(&s.context);
        let weight = if chosen == s.action {
            matched += 1;
            1.0 / s.propensity
        } else {
            0.0
        };
        let baseline = model(&s.context, chosen);
        state.observe(s.reward, weight, baseline, model(&s.context, s.action));
    }
    (state, matched)
}

/// Which model-free estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum EstimatorKind {
    /// Plain inverse propensity scoring.
    Ips,
    /// IPS with importance weights clipped at the given maximum.
    ClippedIps(f64),
    /// Self-normalized IPS.
    Snips,
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
        self.estimate(data, policy)
    }

    /// The configured estimator over `samples`: IPS or clipped IPS reads the
    /// fold's mean, SNIPS its `Σ w·r / Σ w`.
    fn estimate<'a, C, P>(
        &self,
        samples: impl IntoIterator<Item = &'a LoggedDecision<C>>,
        policy: &P,
    ) -> Estimate
    where
        C: Context + 'a,
        P: Policy<C> + ?Sized,
    {
        let clip = match self.kind {
            EstimatorKind::ClippedIps(max) => {
                assert!(max > 0.0, "max_weight must be positive");
                max
            }
            EstimatorKind::Ips | EstimatorKind::Snips => f64::INFINITY,
        };
        let (state, matched) = fold(samples, policy, clip, |_, _| 0.0);
        match self.kind {
            EstimatorKind::Snips => state.snips.estimate(state.snips_value(), matched),
            EstimatorKind::Ips | EstimatorKind::ClippedIps(_) => {
                state.ips.estimate(state.ips.mean(), matched)
            }
        }
    }

    /// Doubly-robust estimate of `policy` on `data`: the reward model's
    /// baseline plus the IPS-weighted residual.
    pub fn evaluate_with_model<C, P, M>(data: &Dataset<C>, policy: &P, model: &M) -> Estimate
    where
        C: Context,
        P: Policy<C> + ?Sized,
        M: Scorer<C> + ?Sized,
    {
        let (state, matched) = fold(data, policy, f64::INFINITY, |x, a| model.score(x, a));
        state.dr.estimate(state.dr.mean(), matched)
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
        C: Context,
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
            let resample = (0..n).map(|_| &samples[rng.gen_range(0..n)]);
            values.push(self.estimate(resample, policy).value);
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

/// Diagnostics about how well exploration data supports evaluating a
/// particular policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
    let (state, matched) = fold(data, policy, f64::INFINITY, |_, _| 0.0);
    DataDiagnostics {
        n: data.len(),
        match_rate: if data.is_empty() {
            0.0
        } else {
            matched as f64 / data.len() as f64
        },
        effective_sample_size: state.weights.ess(),
        max_weight: state.weights.max_or_zero(),
        min_propensity: data.min_propensity().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_method;
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
        let dm = direct_method(&expl, &pol, &model);
        assert!((dm.value - 0.7).abs() < 1e-12);
        let dr = OffPolicyEvaluator::evaluate_with_model(&expl, &pol, &model);
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
