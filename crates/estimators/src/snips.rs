//! Self-normalized IPS.
//!
//! ```text
//! snips(π) = Σₜ 1{π(xₜ)=aₜ} rₜ/pₜ  /  Σₜ 1{π(xₜ)=aₜ} 1/pₜ
//! ```
//!
//! Normalizing by the realized importance-weight mass removes the
//! sensitivity to weight noise that plagues plain IPS: the estimate is a
//! weighted average of observed rewards, hence always inside
//! `[min r, max r]` on matched samples. The price is a small (vanishing)
//! bias.

#[cfg(test)]
mod tests {
    use crate::evaluator::{eval_ips, eval_snips};
    use harvest_core::policy::{ConstantPolicy, UniformPolicy};
    use harvest_core::sample::{FullFeedbackDataset, FullFeedbackSample, LoggedDecision};
    use harvest_core::simulate::simulate_exploration;
    use harvest_core::Dataset;
    use harvest_core::SimpleContext;
    use rand::Rng;
    use rand::SeedableRng;

    fn ctx(k: usize) -> SimpleContext {
        SimpleContext::contextless(k)
    }

    #[test]
    fn weighted_average_of_matched_rewards() {
        let data = Dataset::from_samples(vec![
            LoggedDecision {
                context: ctx(2),
                action: 0,
                reward: 1.0,
                propensity: 0.5,
            },
            LoggedDecision {
                context: ctx(2),
                action: 0,
                reward: 3.0,
                propensity: 0.25,
            },
            LoggedDecision {
                context: ctx(2),
                action: 1,
                reward: 100.0,
                propensity: 0.5,
            },
        ])
        .unwrap();
        // Weights 2 and 4 on rewards 1 and 3: (2·1 + 4·3)/6 = 14/6.
        let e = eval_snips(&data, &ConstantPolicy::new(0));
        assert!((e.value - 14.0 / 6.0).abs() < 1e-12);
        assert_eq!(e.matched, 2);
    }

    #[test]
    fn bounded_by_matched_reward_range() {
        // Tiny propensity makes IPS explode; SNIPS must stay in [0, 1].
        let data = Dataset::from_samples(vec![
            LoggedDecision {
                context: ctx(2),
                action: 0,
                reward: 1.0,
                propensity: 0.001,
            },
            LoggedDecision {
                context: ctx(2),
                action: 1,
                reward: 0.0,
                propensity: 0.999,
            },
        ])
        .unwrap();
        let pol = ConstantPolicy::new(0);
        assert!(eval_ips(&data, &pol).value > 100.0);
        let e = eval_snips(&data, &pol);
        assert!(e.value >= 0.0 && e.value <= 1.0, "snips {}", e.value);
    }

    #[test]
    fn converges_to_truth() {
        let mut full = FullFeedbackDataset::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20_000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            full.push(FullFeedbackSample {
                context: SimpleContext::new(vec![x], 2),
                rewards: vec![x, 1.0 - x],
            })
            .unwrap();
        }
        let expl = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
        let pol = ConstantPolicy::new(0);
        let truth = full.value_of_policy(&pol).unwrap();
        let e = eval_snips(&expl, &pol);
        assert!(
            (e.value - truth).abs() < 0.02,
            "est {} truth {truth}",
            e.value
        );
    }

    #[test]
    fn no_matches_is_flagged() {
        let data = Dataset::from_samples(vec![LoggedDecision {
            context: ctx(3),
            action: 1,
            reward: 1.0,
            propensity: 0.5,
        }])
        .unwrap();
        let e = eval_snips(&data, &ConstantPolicy::new(2));
        assert_eq!(e.matched, 0);
        assert_eq!(e.value, 0.0);
    }
}
