//! Doubly robust (DR) estimation.
//!
//! ```text
//! dr(π) = (1/N) Σₜ [ r̂(xₜ, π(xₜ)) + 1{π(xₜ)=aₜ} (rₜ − r̂(xₜ, aₜ)) / pₜ ]
//! ```
//!
//! The direct-method term supplies a low-variance baseline; the IPS term
//! corrects its bias using only the *residual* `r − r̂`. The estimator is
//! unbiased if **either** the propensities or the reward model is correct
//! (Dudík, Langford & Li 2011 — the paper's reference \[7\]), and its
//! variance shrinks with the residual magnitude — the paper's §5 plan for
//! taming the variance of long-horizon estimators.

#[cfg(test)]
mod tests {
    use crate::direct::direct_method;
    use crate::{EstimatorKind, OffPolicyEvaluator};
    use harvest_core::policy::{ConstantPolicy, UniformPolicy};
    use harvest_core::sample::{FullFeedbackDataset, FullFeedbackSample, LoggedDecision};
    use harvest_core::scorer::TableScorer;
    use harvest_core::simulate::simulate_exploration;
    use harvest_core::Dataset;
    use harvest_core::{Policy, SimpleContext};
    use rand::Rng;
    use rand::SeedableRng;

    /// Full-feedback data with context-dependent rewards for two actions.
    fn crossing_full(n: usize, seed: u64) -> FullFeedbackDataset<SimpleContext> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut d = FullFeedbackDataset::default();
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            d.push(FullFeedbackSample {
                context: SimpleContext::new(vec![x], 2),
                rewards: vec![x, 1.0 - x],
            })
            .unwrap();
        }
        d
    }

    #[test]
    fn dr_with_perfect_model_has_zero_variance() {
        // r̂ == r exactly: residuals vanish, every term equals the model
        // prediction, std_err ≈ model-prediction spread only.
        let data = Dataset::from_samples(
            (0..100)
                .map(|i| LoggedDecision {
                    context: SimpleContext::contextless(2),
                    action: i % 2,
                    reward: [0.3, 0.8][i % 2],
                    propensity: 0.5,
                })
                .collect(),
        )
        .unwrap();
        let perfect = TableScorer::new(vec![0.3, 0.8]);
        let e = OffPolicyEvaluator::evaluate_with_model(&data, &ConstantPolicy::new(1), &perfect);
        assert!((e.value - 0.8).abs() < 1e-12);
        assert!(e.std_err < 1e-12, "residuals are zero -> no variance");
    }

    #[test]
    fn dr_unbiased_with_wrong_model_but_right_propensities() {
        let full = crossing_full(30_000, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let expl = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
        let wrong = TableScorer::new(vec![0.9, 0.9]); // badly biased model
        let pol = ConstantPolicy::new(0);
        let truth = full.value_of_policy(&pol).unwrap();
        let dm = direct_method(&expl, &pol, &wrong);
        assert!((dm.value - truth).abs() > 0.3, "DM should be badly biased");
        let dr = OffPolicyEvaluator::evaluate_with_model(&expl, &pol, &wrong);
        assert!(
            (dr.value - truth).abs() < 0.03,
            "DR {} vs truth {truth}",
            dr.value
        );
    }

    #[test]
    fn dr_variance_below_ips_with_decent_model() {
        let full = crossing_full(5_000, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let expl = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
        // A decent (not perfect) model: constant 0.5 for both actions —
        // matches E[r] so residuals are centered.
        let model = TableScorer::new(vec![0.5, 0.5]);
        let pol = ConstantPolicy::new(0);
        let dr = OffPolicyEvaluator::evaluate_with_model(&expl, &pol, &model);
        let ips_e = OffPolicyEvaluator::new(EstimatorKind::Ips).evaluate(&expl, &pol);
        assert!(
            dr.std_err < ips_e.std_err,
            "dr se {} vs ips se {}",
            dr.std_err,
            ips_e.std_err
        );
        // And both should estimate ~0.5.
        assert!((dr.value - 0.5).abs() < 0.05);
    }

    #[test]
    fn dr_reduces_to_ips_with_zero_model() {
        let full = crossing_full(200, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let expl = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
        let zero = TableScorer::new(vec![0.0, 0.0]);
        let pol = ConstantPolicy::new(1);
        let dr = OffPolicyEvaluator::evaluate_with_model(&expl, &pol, &zero);
        let terms: Vec<f64> = expl
            .iter()
            .map(|s| {
                if pol.choose(&s.context) == s.action {
                    s.reward / s.propensity
                } else {
                    0.0
                }
            })
            .collect();
        let ips_value = terms.iter().sum::<f64>() / terms.len() as f64;
        assert!((dr.value - ips_value).abs() < 1e-12);
    }
}
