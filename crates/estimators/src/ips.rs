//! Inverse propensity scoring (Horvitz–Thompson).
//!
//! The paper's core estimator:
//!
//! ```text
//! ips(π) = (1/N) Σₜ 1{π(xₜ) = aₜ} · rₜ / pₜ
//! ```
//!
//! Unbiased whenever every logged propensity is positive and correct. The
//! cost is variance: each matching sample contributes `r/p`, which blows up
//! as `p → 0`. [`EstimatorKind::ClippedIps`](crate::EstimatorKind::ClippedIps)
//! trades a little bias for bounded weights.

use harvest_core::{Context, Dataset, Policy};

/// The per-sample IPS terms (useful for bootstrap and variance analysis).
pub fn ips_terms<C: Context, P: Policy<C> + ?Sized>(data: &Dataset<C>, policy: &P) -> Vec<f64> {
    data.iter()
        .map(|s| {
            if policy.choose(&s.context) == s.action {
                s.reward / s.propensity
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::ips_terms;
    use crate::evaluator::{eval_clipped_ips, eval_ips};
    use harvest_core::policy::{ConstantPolicy, UniformPolicy, WeightedPolicy};
    use harvest_core::sample::{FullFeedbackDataset, FullFeedbackSample, LoggedDecision};
    use harvest_core::simulate::simulate_exploration;
    use harvest_core::Dataset;
    use harvest_core::SimpleContext;
    use rand::SeedableRng;

    fn ctx(k: usize) -> SimpleContext {
        SimpleContext::contextless(k)
    }

    #[test]
    fn matches_hand_computation() {
        let data = Dataset::from_samples(vec![
            LoggedDecision {
                context: ctx(2),
                action: 0,
                reward: 1.0,
                propensity: 0.5,
            },
            LoggedDecision {
                context: ctx(2),
                action: 1,
                reward: 1.0,
                propensity: 0.5,
            },
        ])
        .unwrap();
        // Policy "always 0" matches the first sample only: (1/0.5 + 0)/2 = 1.
        let e = eval_ips(&data, &ConstantPolicy::new(0));
        assert_eq!(e.value, 1.0);
        assert_eq!(e.matched, 1);
        assert_eq!(e.n, 2);
    }

    #[test]
    fn unbiased_under_uniform_logging() {
        // Ground truth from full feedback; IPS from simulated exploration
        // must land close for large N.
        let mut full = FullFeedbackDataset::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::Rng;
        for _ in 0..20_000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            full.push(FullFeedbackSample {
                context: SimpleContext::new(vec![x], 3),
                rewards: vec![x, 0.5, 1.0 - x],
            })
            .unwrap();
        }
        let expl = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
        for target in [0usize, 1, 2] {
            let pol = ConstantPolicy::new(target);
            let truth = full.value_of_policy(&pol).unwrap();
            let est = eval_ips(&expl, &pol);
            assert!(
                (est.value - truth).abs() < 0.03,
                "action {target}: est {} vs truth {truth}",
                est.value
            );
        }
    }

    #[test]
    fn unbiased_under_nonuniform_logging() {
        let mut full = FullFeedbackDataset::default();
        for _ in 0..30_000 {
            full.push(FullFeedbackSample {
                context: ctx(2),
                rewards: vec![1.0, 0.2],
            })
            .unwrap();
        }
        let logging = WeightedPolicy::new(vec![0.1, 0.9]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let expl = simulate_exploration(&full, &logging, &mut rng);
        // Evaluate "always 0", rarely logged (p = 0.1).
        let est = eval_ips(&expl, &ConstantPolicy::new(0));
        assert!((est.value - 1.0).abs() < 0.05, "est {}", est.value);
        // Match rate should be near 0.1.
        assert!((est.match_rate() - 0.1).abs() < 0.02);
    }

    #[test]
    fn clipping_bounds_weights_and_biases_down() {
        let data = Dataset::from_samples(vec![LoggedDecision {
            context: ctx(2),
            action: 0,
            reward: 1.0,
            propensity: 0.01,
        }])
        .unwrap();
        let raw = eval_ips(&data, &ConstantPolicy::new(0));
        assert_eq!(raw.value, 100.0);
        let clipped = eval_clipped_ips(&data, &ConstantPolicy::new(0), 10.0);
        assert_eq!(clipped.value, 10.0);
        assert!(clipped.value <= raw.value);
    }

    #[test]
    fn non_matching_policy_estimates_zero() {
        let data = Dataset::from_samples(vec![LoggedDecision {
            context: ctx(3),
            action: 0,
            reward: 5.0,
            propensity: 0.5,
        }])
        .unwrap();
        let e = eval_ips(&data, &ConstantPolicy::new(2));
        assert_eq!(e.value, 0.0);
        assert_eq!(e.matched, 0);
    }

    #[test]
    fn terms_align_with_estimate() {
        let data = Dataset::from_samples(vec![
            LoggedDecision {
                context: ctx(2),
                action: 0,
                reward: 2.0,
                propensity: 0.25,
            },
            LoggedDecision {
                context: ctx(2),
                action: 1,
                reward: 3.0,
                propensity: 0.75,
            },
        ])
        .unwrap();
        let pol = ConstantPolicy::new(0);
        let terms = ips_terms(&data, &pol);
        assert_eq!(terms, vec![8.0, 0.0]);
        assert_eq!(eval_ips(&data, &pol).value, 4.0);
    }

    #[test]
    fn empty_data_is_safe() {
        let data: Dataset<SimpleContext> = Dataset::new();
        let e = eval_ips(&data, &ConstantPolicy::new(0));
        assert_eq!(e.value, 0.0);
        assert_eq!(e.n, 0);
    }
}
