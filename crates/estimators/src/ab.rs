//! Simulated A/B testing — the baseline off-policy evaluation is measured
//! against.
//!
//! "A/B testing … randomizes over policies" (paper §4): each interaction is
//! assigned to one of the K candidate policies, that policy's action is
//! taken, and only that policy's estimate benefits from the sample. The
//! crucial contrast with IPS: a datapoint informs exactly one policy here,
//! versus *every matching policy* under CB exploration.
//!
//! The simulation runs on full-feedback data (so each policy's chosen
//! action has a known reward) — exactly how the machine-health dataset is
//! used in §4.

use rand::Rng;

use harvest_core::{Context, FullFeedbackDataset, Policy};

use crate::estimate::Estimate;
use crate::fold::TermMoments;

/// The outcome of one arm of a simulated A/B test.
#[derive(Debug, Clone)]
pub struct AbArm {
    /// Name of the policy under test.
    pub name: String,
    /// Its on-policy estimate from its own traffic share.
    pub estimate: Estimate,
}

/// Simulates an A/B test of `policies` on full-feedback `data`.
///
/// Each sample is assigned uniformly at random to one arm; the arm's policy
/// picks an action and observes that action's reward. Each arm's estimate
/// is the mean reward over its own traffic only (≈ N/K samples each).
pub fn ab_test<C, P, R>(data: &FullFeedbackDataset<C>, policies: &[P], rng: &mut R) -> Vec<AbArm>
where
    C: Context,
    P: Policy<C>,
    R: Rng + ?Sized,
{
    assert!(!policies.is_empty(), "need at least one arm");
    let k = policies.len();
    let mut arms = vec![TermMoments::new(); k];
    for s in data.samples() {
        let arm = rng.gen_range(0..k);
        let a = policies[arm].choose(&s.context).min(s.rewards.len() - 1);
        arms[arm].observe(s.rewards[a]);
    }
    policies
        .iter()
        .zip(arms)
        .map(|(p, t)| {
            let estimate = t.estimate(t.mean(), 0);
            AbArm {
                name: p.name(),
                // Every sample an arm sees is its own policy's action.
                estimate: Estimate {
                    matched: estimate.n,
                    ..estimate
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EstimatorKind, OffPolicyEvaluator};
    use harvest_core::policy::{ConstantPolicy, UniformPolicy};
    use harvest_core::sample::FullFeedbackSample;
    use harvest_core::simulate::simulate_exploration;
    use harvest_core::SimpleContext;
    use rand::SeedableRng;

    fn arms_data(n: usize, means: &[f64]) -> FullFeedbackDataset<SimpleContext> {
        let mut d = FullFeedbackDataset::default();
        for _ in 0..n {
            d.push(FullFeedbackSample {
                context: SimpleContext::contextless(means.len()),
                rewards: means.to_vec(),
            })
            .unwrap();
        }
        d
    }

    #[test]
    fn each_arm_estimates_its_own_policy() {
        let data = arms_data(9000, &[0.2, 0.5, 0.9]);
        let policies = vec![
            ConstantPolicy::new(0),
            ConstantPolicy::new(1),
            ConstantPolicy::new(2),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let arms = ab_test(&data, &policies, &mut rng);
        assert_eq!(arms.len(), 3);
        for (i, arm) in arms.iter().enumerate() {
            assert!(
                (arm.estimate.value - [0.2, 0.5, 0.9][i]).abs() < 1e-9,
                "arm {i} value {}",
                arm.estimate.value
            );
        }
    }

    #[test]
    fn traffic_splits_roughly_evenly() {
        let data = arms_data(10_000, &[0.0, 0.0]);
        let policies = vec![ConstantPolicy::new(0), ConstantPolicy::new(1)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let arms = ab_test(&data, &policies, &mut rng);
        let total: usize = arms.iter().map(|a| a.estimate.n).sum();
        assert_eq!(total, 10_000);
        for arm in &arms {
            assert!(
                (arm.estimate.n as f64 - 5000.0).abs() < 300.0,
                "share {}",
                arm.estimate.n
            );
        }
    }

    #[test]
    fn ab_per_policy_sample_count_shrinks_with_k_while_ips_does_not() {
        // The data-efficiency story of Fig 1, measured empirically: with K
        // arms, each A/B arm sees N/K samples; IPS evaluates each policy on
        // the matched fraction of *all* N samples (N/K_actions under
        // uniform logging — independent of how many policies you evaluate).
        let n = 12_000;
        let data = arms_data(n, &[0.1, 0.9]);
        let mut policies = Vec::new();
        for _ in 0..12 {
            policies.push(ConstantPolicy::new(0));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let arms = ab_test(&data, &policies, &mut rng);
        for arm in &arms {
            assert!(arm.estimate.n < 1500, "arm saw {} samples", arm.estimate.n);
        }
        // IPS: every one of the 12 identical policies is evaluated on all
        // matched samples (~ N/2 under 2-action uniform logging).
        let expl = simulate_exploration(&data, &UniformPolicy::new(), &mut rng);
        let e =
            OffPolicyEvaluator::new(EstimatorKind::Ips).evaluate(&expl, &ConstantPolicy::new(0));
        assert!(e.matched > 5_000, "ips matched {}", e.matched);
        assert!((e.value - 0.1).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_arm_list_panics() {
        let data = arms_data(10, &[0.0]);
        let none: Vec<ConstantPolicy> = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let _ = ab_test(&data, &none, &mut rng);
    }
}
