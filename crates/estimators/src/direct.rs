//! The direct method (DM): evaluate a policy against a learned reward
//! model.
//!
//! ```text
//! dm(π) = (1/N) Σₜ r̂(xₜ, π(xₜ))
//! ```
//!
//! Uses every sample (no matching requirement) so its variance is low, but
//! it inherits every flaw of the model `r̂`: "model-based approaches …
//! tend to be biased" (paper §2). The reward models come from
//! `harvest_core::learner` and implement [`Scorer`].

use harvest_core::{Context, Dataset, Policy, Scorer};

use crate::estimate::Estimate;
use crate::fold::TermMoments;

/// The direct-method estimate of `policy` on `data` under reward model
/// `model`.
pub fn direct_method<C, P, M>(data: &Dataset<C>, policy: &P, model: &M) -> Estimate
where
    C: Context,
    P: Policy<C> + ?Sized,
    M: Scorer<C> + ?Sized,
{
    let mut terms = TermMoments::new();
    let mut matched = 0;
    for s in data {
        let a = policy.choose(&s.context);
        if a == s.action {
            matched += 1;
        }
        terms.observe(model.score(&s.context, a));
    }
    terms.estimate(terms.mean(), matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::learner::{ModelingMode, RegressionCbLearner, SampleWeighting};
    use harvest_core::policy::{ConstantPolicy, StochasticPolicy, UniformPolicy};
    use harvest_core::sample::LoggedDecision;
    use harvest_core::scorer::TableScorer;
    use harvest_core::SimpleContext;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn dm_reads_the_model_not_the_data() {
        let data = Dataset::from_samples(vec![LoggedDecision {
            context: SimpleContext::contextless(2),
            action: 0,
            reward: 99.0, // ignored by DM
            propensity: 0.5,
        }])
        .unwrap();
        let model = TableScorer::new(vec![0.1, 0.7]);
        assert_eq!(
            direct_method(&data, &ConstantPolicy::new(1), &model).value,
            0.7
        );
        assert_eq!(
            direct_method(&data, &ConstantPolicy::new(0), &model).value,
            0.1
        );
    }

    #[test]
    fn dm_with_good_model_is_accurate_with_few_samples() {
        // Fit a model on plenty of exploration data, then DM-evaluate on a
        // tiny set: variance should be tiny because DM uses every sample.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let logging = UniformPolicy::new();
        let mut train = Dataset::new();
        for _ in 0..5000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            let ctx = SimpleContext::new(vec![x], 2);
            let (a, p) = logging.sample(&ctx, &mut rng);
            let r = if a == 0 { x } else { 1.0 - x };
            train
                .push(LoggedDecision {
                    context: ctx,
                    action: a,
                    reward: r,
                    propensity: p,
                })
                .unwrap();
        }
        let model =
            RegressionCbLearner::new(ModelingMode::PerAction, SampleWeighting::Uniform, 1e-3)
                .unwrap()
                .fit(&train)
                .unwrap();
        let (small, _) = train.truncated(50).split_at(50);
        // Truth for "always 0" is E[x] = 0.5.
        let e = direct_method(&small, &ConstantPolicy::new(0), &model);
        assert!((e.value - 0.5).abs() < 0.1, "dm {}", e.value);
    }

    #[test]
    fn dm_bias_with_wrong_model() {
        // A deliberately wrong model gives a confidently wrong estimate —
        // the failure mode that makes DM untrustworthy on its own.
        let data = Dataset::from_samples(
            (0..100)
                .map(|_| LoggedDecision {
                    context: SimpleContext::contextless(2),
                    action: 0,
                    reward: 0.0, // true reward is 0
                    propensity: 0.5,
                })
                .collect(),
        )
        .unwrap();
        let wrong = TableScorer::new(vec![1.0, 1.0]);
        let e = direct_method(&data, &ConstantPolicy::new(0), &wrong);
        assert_eq!(e.value, 1.0); // no amount of data fixes it
        assert_eq!(e.std_err, 0.0);
    }
}
