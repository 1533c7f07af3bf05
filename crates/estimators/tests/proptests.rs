//! Property tests for estimator identities and laws.

use proptest::prelude::*;

use harvest_core::policy::{
    ConstantPolicy, FnPolicy, PointMassPolicy, StochasticPolicy, UniformPolicy, WeightedPolicy,
};
use harvest_core::sample::{Dataset, FullFeedbackDataset, FullFeedbackSample, LoggedDecision};
use harvest_core::scorer::{LinearScorer, Scorer, TableScorer};
use harvest_core::simulate::simulate_exploration;
use harvest_core::{Context, Policy, SimpleContext};
use harvest_estimators::ab::ab_test;
use harvest_estimators::bounds::{ab_radius, ips_min_n, ips_radius, BoundConfig};
use harvest_estimators::direct::direct_method;
use harvest_estimators::evaluator::diagnose;
use harvest_estimators::trajectory::{
    doubly_robust_pdis, per_decision_is, trajectory_is, variance_profile, Episode, Step,
};
use harvest_estimators::{Estimate, EstimatorKind, OffPolicyEvaluator};

fn arb_dataset(k: usize) -> impl Strategy<Value = Dataset<SimpleContext>> {
    proptest::collection::vec((0..k, -3.0f64..3.0, 0.05f64..1.0), 1..80).prop_map(move |v| {
        Dataset::from_samples(
            v.into_iter()
                .map(|(a, r, p)| LoggedDecision {
                    context: SimpleContext::contextless(k),
                    action: a,
                    reward: r,
                    propensity: p,
                })
                .collect(),
        )
        .unwrap()
    })
}

/// Checks that `est` is the mean of `terms`: `value` is the in-order
/// `Σt/n` bit for bit, and `std_err` is within 1e-9 relative of the
/// two-pass `√(Σ(t − mean)² / ((n − 1) n))`, and exactly 0 when every term
/// is equal.
fn assert_mean_of(est: &Estimate, terms: &[f64]) -> Result<(), TestCaseError> {
    let n = terms.len();
    prop_assert_eq!(est.n, n);
    let mean = if n > 0 {
        terms.iter().fold(0.0, |sum, t| sum + t) / n as f64
    } else {
        0.0
    };
    prop_assert_eq!(
        est.value.to_bits(),
        mean.to_bits(),
        "{} vs {}",
        est.value,
        mean
    );
    if n <= 1 || terms.iter().all(|&t| t == terms[0]) {
        prop_assert_eq!(est.std_err, 0.0);
    } else {
        let ss: f64 = terms.iter().map(|t| (t - mean).powi(2)).sum();
        let se = (ss / (n - 1) as f64 / n as f64).sqrt();
        prop_assert!(
            (est.std_err - se).abs() <= 1e-9 * se,
            "std_err {} vs two-pass {}",
            est.std_err,
            se
        );
    }
    Ok(())
}

/// Episodes of 1–5 two-action steps with contexts `[x]`, logged at
/// propensities in `[0.1, 1)`.
fn arb_episodes() -> impl Strategy<Value = Vec<Episode<SimpleContext>>> {
    proptest::collection::vec(
        proptest::collection::vec((-1.0f64..1.0, 0usize..2, -2.0f64..2.0, 0.1f64..1.0), 1..6),
        0..40,
    )
    .prop_map(|episodes| {
        episodes
            .into_iter()
            .map(|steps| Episode {
                steps: steps
                    .into_iter()
                    .map(|(x, action, reward, propensity)| Step {
                        context: SimpleContext::new(vec![x], 2),
                        action,
                        reward,
                        propensity,
                    })
                    .collect(),
            })
            .collect()
    })
}

/// The importance ratio `π(a|x)/p` of one logged step.
fn ratio<P: StochasticPolicy<SimpleContext>>(target: &P, s: &Step<SimpleContext>) -> f64 {
    target.propensity_of(&s.context, s.action) / s.propensity
}

proptest! {
    #[test]
    fn ips_value_equals_mean_of_terms(data in arb_dataset(4), target in 0usize..4) {
        let pol = ConstantPolicy::new(target);
        let terms: Vec<f64> = data
            .iter()
            .map(|s| if s.action == target { s.reward / s.propensity } else { 0.0 })
            .collect();
        let est = OffPolicyEvaluator::new(EstimatorKind::Ips).evaluate(&data, &pol);
        let mean = terms.iter().sum::<f64>() / terms.len() as f64;
        prop_assert!((est.value - mean).abs() < 1e-9);
        prop_assert_eq!(est.n, data.len());
    }

    #[test]
    fn evaluate_matches_textbook_formulas(
        data in arb_dataset(3),
        target in 0usize..3,
        max_w in 1.0f64..20.0,
        model_scores in proptest::collection::vec(-2.0f64..2.0, 3)
    ) {
        // IPS (1/N) Σ 1{π(x)=a}·r·(1/p), its clipped form, SNIPS
        // Σ 1{π(x)=a}·r·(1/p) / Σ 1{π(x)=a}·(1/p) and DR
        // (1/N) Σ [r̂(x,π(x)) + 1{π(x)=a}(r − r̂(x,a))/p], summed in
        // sample order.
        let pol = ConstantPolicy::new(target);
        let model = TableScorer::new(model_scores.clone());
        let (mut ips, mut clipped, mut num, mut den, mut dr, mut dr_scale) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let mut matched = 0;
        for s in &data {
            let mut dr_term = model_scores[target];
            if s.action == target {
                matched += 1;
                let w = 1.0 / s.propensity;
                ips += s.reward * w;
                clipped += s.reward * w.min(max_w);
                num += s.reward * w;
                den += w;
                dr_term += (s.reward - model_scores[s.action]) / s.propensity;
            }
            dr += dr_term;
            dr_scale += dr_term.abs();
        }
        let n = data.len();
        let snips = if den > 0.0 { num / den } else { 0.0 };
        for (kind, want) in [
            (EstimatorKind::Ips, ips / n as f64),
            (EstimatorKind::ClippedIps(max_w), clipped / n as f64),
            (EstimatorKind::Snips, snips),
        ] {
            let est = OffPolicyEvaluator::new(kind).evaluate(&data, &pol);
            prop_assert_eq!(est.value, want, "{:?}", kind);
            prop_assert_eq!(est.n, n);
            prop_assert_eq!(est.matched, matched);
        }
        let est = OffPolicyEvaluator::evaluate_with_model(&data, &pol, &model);
        let want = dr / n as f64;
        prop_assert!(
            (est.value - want).abs() <= 1e-12 * (dr_scale / n as f64).max(1.0),
            "dr {} vs {}", est.value, want
        );
        prop_assert_eq!(est.n, n);
        prop_assert_eq!(est.matched, matched);
    }

    #[test]
    fn clipping_never_increases_magnitude_on_positive_rewards(
        samples in proptest::collection::vec((0usize..3, 0.0f64..3.0, 0.05f64..1.0), 1..60),
        max_w in 1.0f64..20.0,
        target in 0usize..3
    ) {
        let data = Dataset::from_samples(samples.into_iter().map(|(a, r, p)| LoggedDecision {
            context: SimpleContext::contextless(3),
            action: a, reward: r, propensity: p,
        }).collect()).unwrap();
        let pol = ConstantPolicy::new(target);
        let clipped = OffPolicyEvaluator::new(EstimatorKind::ClippedIps(max_w)).evaluate(&data, &pol);
        let raw = OffPolicyEvaluator::new(EstimatorKind::Ips).evaluate(&data, &pol);
        prop_assert!(clipped.value <= raw.value + 1e-12);
        prop_assert!(clipped.value >= 0.0);
    }

    #[test]
    fn dr_with_zero_model_equals_ips(data in arb_dataset(3), target in 0usize..3) {
        let pol = ConstantPolicy::new(target);
        let zero = TableScorer::new(vec![0.0; 3]);
        let dr = OffPolicyEvaluator::evaluate_with_model(&data, &pol, &zero);
        let plain = OffPolicyEvaluator::new(EstimatorKind::Ips).evaluate(&data, &pol);
        prop_assert!((dr.value - plain.value).abs() < 1e-9);
    }

    #[test]
    fn dm_is_invariant_to_logged_rewards(
        data in arb_dataset(3),
        model_scores in proptest::collection::vec(-2.0f64..2.0, 3),
        target in 0usize..3
    ) {
        let pol = ConstantPolicy::new(target);
        let model = TableScorer::new(model_scores.clone());
        let dm = direct_method(&data, &pol, &model);
        // For a constant policy and a context-free model, DM is exactly the
        // model's score of the target action.
        prop_assert!((dm.value - model_scores[target]).abs() < 1e-9);
    }

    #[test]
    fn snips_and_ips_agree_when_all_propensities_equal(
        rewards_actions in proptest::collection::vec((0usize..2, -2.0f64..2.0), 2..60),
        target in 0usize..2
    ) {
        // With constant propensity p, snips = (sum matched r)/(#matched)
        // and ips = (sum matched r/p)/N. They agree when the match count
        // equals p·N exactly; more usefully, snips must equal the plain
        // mean of matched rewards.
        let p = 0.5;
        let data = Dataset::from_samples(rewards_actions.iter().map(|&(a, r)| LoggedDecision {
            context: SimpleContext::contextless(2),
            action: a, reward: r, propensity: p,
        }).collect()).unwrap();
        let pol = ConstantPolicy::new(target);
        let matched: Vec<f64> = rewards_actions.iter()
            .filter(|(a, _)| *a == target).map(|&(_, r)| r).collect();
        let est = OffPolicyEvaluator::new(EstimatorKind::Snips).evaluate(&data, &pol);
        if matched.is_empty() {
            prop_assert_eq!(est.matched, 0);
        } else {
            let mean = matched.iter().sum::<f64>() / matched.len() as f64;
            prop_assert!((est.value - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn bound_functions_are_monotone(
        eps1 in 0.01f64..0.5, eps2 in 0.01f64..0.5,
        n in 1e3f64..1e8, k in 1.0f64..1e7
    ) {
        let cfg = BoundConfig { c: 2.0, delta: 0.05 };
        let (lo, hi) = if eps1 < eps2 { (eps1, eps2) } else { (eps2, eps1) };
        prop_assert!(ips_radius(&cfg, hi, n, k) <= ips_radius(&cfg, lo, n, k));
        prop_assert!(ips_radius(&cfg, lo, 2.0 * n, k) < ips_radius(&cfg, lo, n, k));
        prop_assert!(ab_radius(&cfg, n, k) >= 0.0);
        // min_n inverts radius.
        let target = 0.05;
        let n_req = ips_min_n(&cfg, lo, k, target);
        prop_assert!((ips_radius(&cfg, lo, n_req, k) - target).abs() < 1e-9);
    }

    #[test]
    fn ab_test_partitions_all_samples(
        n in 1usize..500, arms in 1usize..6, seed in 0u64..100
    ) {
        use rand::SeedableRng;
        let data = FullFeedbackDataset::from_samples(
            (0..n).map(|_| FullFeedbackSample {
                context: SimpleContext::contextless(2),
                rewards: vec![0.2, 0.8],
            }).collect()
        ).unwrap();
        let policies: Vec<ConstantPolicy> =
            (0..arms).map(|i| ConstantPolicy::new(i % 2)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let results = ab_test(&data, &policies, &mut rng);
        prop_assert_eq!(results.len(), arms);
        let total: usize = results.iter().map(|a| a.estimate.n).sum();
        prop_assert_eq!(total, n);
        for arm in &results {
            if arm.estimate.n > 0 {
                // Each arm's estimate is an average of 0.2s and 0.8s
                // (within float summation slack).
                prop_assert!(arm.estimate.value > 0.2 - 1e-9);
                prop_assert!(arm.estimate.value < 0.8 + 1e-9);
            }
        }
    }

    #[test]
    fn trajectory_is_horizon_one_equals_single_step_pdis(
        steps in proptest::collection::vec((0usize..2, -2.0f64..2.0), 1..50),
        target in 0usize..2
    ) {
        let episodes: Vec<Episode<SimpleContext>> = steps.iter().map(|&(a, r)| Episode {
            steps: vec![Step {
                context: SimpleContext::contextless(2),
                action: a, reward: r, propensity: 0.5,
            }],
        }).collect();
        let pol = PointMassPolicy::new(ConstantPolicy::new(target));
        let tis = trajectory_is(&episodes, &pol);
        let pdis = per_decision_is(&episodes, &pol);
        prop_assert!((tis.value - pdis.value).abs() < 1e-12);
    }

    #[test]
    fn diagnostics_are_consistent(data in arb_dataset(3), target in 0usize..3) {
        let pol = ConstantPolicy::new(target);
        let d = diagnose(&data, &pol);
        prop_assert_eq!(d.n, data.len());
        prop_assert!((0.0..=1.0).contains(&d.match_rate));
        prop_assert!(d.effective_sample_size <= data.len() as f64 + 1e-9);
        prop_assert!(d.min_propensity > 0.0);
        if d.match_rate > 0.0 {
            prop_assert!(d.max_weight >= 1.0);
            prop_assert!(d.effective_sample_size > 0.0);
        }
    }

    #[test]
    fn ips_is_unbiased_in_expectation_over_seeds(
        k in 2usize..5,
        rewards in proptest::collection::vec(0.0f64..1.0, 2..5)
    ) {
        use rand::SeedableRng;
        // Small-scale empirical unbiasedness: average IPS over many action
        // reveals approaches the constant truth.
        let k = rewards.len().max(2).min(k.max(2));
        let rewards: Vec<f64> = (0..k).map(|i| rewards[i % rewards.len()]).collect();
        let full = FullFeedbackDataset::from_samples(
            (0..200).map(|_| FullFeedbackSample {
                context: SimpleContext::contextless(k),
                rewards: rewards.clone(),
            }).collect()
        ).unwrap();
        let pol = ConstantPolicy::new(0);
        let truth = rewards[0];
        let mut acc = 0.0;
        let reps = 40;
        for seed in 0..reps {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let expl = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
            acc += OffPolicyEvaluator::new(EstimatorKind::Ips)
                .evaluate(&expl, &pol)
                .value;
        }
        let mean = acc / reps as f64;
        // Standard error of the mean over reps is small; allow generous slack.
        prop_assert!((mean - truth).abs() < 0.15, "mean {mean} vs truth {truth}");
    }
}

proptest! {
    #[test]
    fn direct_method_is_the_mean_of_its_model_scores(
        points in proptest::collection::vec((-2.0f64..2.0, 0usize..3), 0..60),
        rows in proptest::collection::vec(proptest::collection::vec(-2.0f64..2.0, 2), 3)
    ) {
        let data = Dataset::from_samples(points.iter().map(|&(x, a)| LoggedDecision {
            context: SimpleContext::new(vec![x], 3),
            action: a, reward: 0.0, propensity: 0.5,
        }).collect()).unwrap();
        let pol = FnPolicy::new("by x", |c: &SimpleContext| {
            (c.shared_features()[0].abs() * 1.5) as usize % 3
        });
        let model = LinearScorer::PerAction { weights: rows };
        let terms: Vec<f64> =
            data.iter().map(|s| model.score(&s.context, pol.choose(&s.context))).collect();
        assert_mean_of(&direct_method(&data, &pol, &model), &terms)?;
    }

    #[test]
    fn ab_arms_are_the_means_of_their_rewards(
        rewards in proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, 2), 0..120),
        arms in 1usize..5,
        seed in 0u64..1000
    ) {
        use rand::{Rng, SeedableRng};
        let data = FullFeedbackDataset::from_samples(rewards.iter().map(|r| FullFeedbackSample {
            context: SimpleContext::contextless(2),
            rewards: r.clone(),
        }).collect()).unwrap();
        let policies: Vec<ConstantPolicy> = (0..arms).map(|i| ConstantPolicy::new(i % 2)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut split = rng.clone();
        let mut terms = vec![Vec::new(); arms];
        for r in &rewards {
            let arm = split.gen_range(0..arms);
            terms[arm].push(r[arm % 2]);
        }
        for (arm, terms) in ab_test(&data, &policies, &mut rng).iter().zip(&terms) {
            assert_mean_of(&arm.estimate, terms)?;
            prop_assert_eq!(arm.estimate.matched, terms.len());
        }
    }

    #[test]
    fn trajectory_estimators_are_the_means_of_their_episode_terms(
        episodes in arb_episodes(),
        q in 0.05f64..0.95,
        rows in proptest::collection::vec(proptest::collection::vec(-2.0f64..2.0, 2), 2)
    ) {
        let target = WeightedPolicy::new(vec![q, 1.0 - q]).unwrap();
        let model = LinearScorer::PerAction { weights: rows };
        let (mut tis, mut pdis, mut dr) = (Vec::new(), Vec::new(), Vec::new());
        let mut scores = Vec::new();
        for ep in &episodes {
            // Running weights, multiplied in each estimator's own order.
            let (mut w, mut w_dr, mut pd, mut d) = (1.0, 1.0, 0.0, 0.0);
            for s in &ep.steps {
                w *= ratio(&target, s);
                pd += w * s.reward;
                let probs = target.action_probabilities(&s.context);
                model.score_all(&s.context, &mut scores);
                let v_hat: f64 = probs.iter().zip(&scores).map(|(p, r)| p * r).sum();
                d += w_dr * v_hat;
                w_dr = w_dr * target.propensity_of(&s.context, s.action) / s.propensity;
                d += w_dr * (s.reward - scores[s.action]);
            }
            tis.push(w * ep.episode_return());
            pdis.push(pd);
            dr.push(d);
        }
        assert_mean_of(&trajectory_is(&episodes, &target), &tis)?;
        assert_mean_of(&per_decision_is(&episodes, &target), &pdis)?;
        assert_mean_of(&doubly_robust_pdis(&episodes, &target, &model), &dr)?;
    }

    #[test]
    fn variance_profile_reads_the_weight_moments(
        episodes in arb_episodes(),
        target in 0usize..2,
        max_horizon in 1usize..6
    ) {
        let target = PointMassPolicy::new(ConstantPolicy::new(target));
        let profile = variance_profile(&episodes, &target, max_horizon);
        prop_assert_eq!(profile.len(), max_horizon);
        for p in &profile {
            let weights: Vec<f64> = episodes.iter().map(|ep| {
                ep.steps.iter().take(p.horizon).fold(1.0, |w, s| w * ratio(&target, s))
            }).collect();
            let sum: f64 = weights.iter().sum();
            let sum_sq: f64 = weights.iter().map(|w| w * w).sum();
            let ess = if sum_sq > 0.0 { sum * sum / sum_sq } else { 0.0 };
            let n = weights.len().max(1) as f64;
            let matched = weights.iter().filter(|&&w| w > 0.0).count();
            // Value equality: NaN fails it, and an empty `sum` here is -0.0.
            prop_assert_eq!(p.mean_weight, sum / n);
            prop_assert_eq!(p.match_fraction, matched as f64 / n);
            prop_assert_eq!(p.effective_sample_size.to_bits(), ess.to_bits());
            prop_assert_eq!(p.max_weight, weights.iter().cloned().fold(0.0, f64::max));
        }
    }

    #[test]
    fn drift_report_is_reflexively_clean_and_ks_bounded(
        values in proptest::collection::vec(-100.0f64..100.0, 2..80),
        other in proptest::collection::vec(-100.0f64..100.0, 2..80)
    ) {
        use harvest_estimators::drift::context_drift;
        let make = |vals: &[f64]| {
            Dataset::from_samples(vals.iter().map(|&x| LoggedDecision {
                context: SimpleContext::new(vec![x], 2),
                action: 0,
                reward: 0.0,
                propensity: 0.5,
            }).collect()).unwrap()
        };
        let a = make(&values);
        let b = make(&other);
        // Self-comparison never trips the wire.
        let self_report = context_drift(&a, &a);
        prop_assert!(!self_report.a1_violation_suspected(), "{self_report:?}");
        // Cross-comparison statistics are well-formed and symmetric.
        let ab = context_drift(&a, &b);
        let ba = context_drift(&b, &a);
        for (x, y) in ab.features.iter().zip(&ba.features) {
            prop_assert!((0.0..=1.0).contains(&x.ks_statistic));
            prop_assert!((x.ks_statistic - y.ks_statistic).abs() < 1e-9);
            prop_assert!((x.effect_size - y.effect_size).abs() < 1e-9
                || (x.effect_size.is_infinite() && y.effect_size.is_infinite()));
        }
    }

    #[test]
    fn weighted_pdis_is_bounded_by_stepwise_reward_range(
        steps in proptest::collection::vec(
            proptest::collection::vec((0usize..2, -3.0f64..3.0), 1..6), 1..50)
    ) {
        use harvest_estimators::trajectory::weighted_per_decision_is;
        let episodes: Vec<Episode<SimpleContext>> = steps.iter().map(|ep| Episode {
            steps: ep.iter().map(|&(a, r)| Step {
                context: SimpleContext::contextless(2),
                action: a,
                reward: r,
                propensity: 0.5,
            }).collect(),
        }).collect();
        let target = PointMassPolicy::new(ConstantPolicy::new(0));
        let est = weighted_per_decision_is(&episodes, &target);
        // Each step's normalized contribution lies within that step's
        // observed reward range, so |estimate| ≤ H · max |r|.
        let max_h = steps.iter().map(Vec::len).max().unwrap();
        let max_r = steps.iter().flatten().map(|&(_, r)| r.abs()).fold(0.0, f64::max);
        prop_assert!(est.value.abs() <= max_h as f64 * max_r + 1e-9,
            "wpdis {} exceeds {}", est.value, max_h as f64 * max_r);
    }
}
