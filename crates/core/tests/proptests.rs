//! Property tests for the CB framework's core laws.

use proptest::prelude::*;

use harvest_core::context::{phi, phi_dim, phi_shared, Context, SimpleContext};
use harvest_core::learner::{ModelingMode, RegressionCbLearner, SampleWeighting};
use harvest_core::linalg::{axpy, dot, Matrix};
use harvest_core::policy::{
    ConstantPolicy, GreedyPolicy, Policy, SoftmaxPolicy, StochasticPolicy, UniformPolicy,
};
use harvest_core::regression::{LinearModel, RidgeRegression, SgdRegressor};
use harvest_core::sample::{Dataset, LoggedDecision};
use harvest_core::scorer::{ActionPanel, LinearScorer, Scorer, TableScorer};

fn ctx_with_features(shared: Vec<f64>, k: usize) -> SimpleContext {
    SimpleContext::new(shared, k)
}

proptest! {
    #[test]
    fn phi_has_consistent_dimension(
        shared in proptest::collection::vec(-10.0f64..10.0, 0..8),
        af in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 2), 1..5)
    ) {
        let ctx = SimpleContext::with_action_features(shared.clone(), af.clone());
        for a in 0..af.len() {
            prop_assert_eq!(phi(&ctx, a).len(), phi_dim(&ctx));
        }
        prop_assert_eq!(phi_shared(&ctx).len(), shared.len() + 1);
        // The bias term is always the trailing 1.
        prop_assert_eq!(*phi(&ctx, 0).last().unwrap(), 1.0);
    }

    #[test]
    fn greedy_policy_always_picks_a_maximal_action(
        scores in proptest::collection::vec(-100.0f64..100.0, 1..12)
    ) {
        let k = scores.len();
        let pol = GreedyPolicy::new(TableScorer::new(scores.clone()));
        let ctx = SimpleContext::contextless(k);
        let a = pol.choose(&ctx);
        prop_assert!(a < k);
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(scores[a], max);
        // Low-index tie break: no earlier action has the same score.
        for (i, &s) in scores.iter().enumerate().take(a) {
            prop_assert!(s < max, "index {i} also maximal, tie-break broken");
        }
    }

    #[test]
    fn softmax_probabilities_order_matches_scores(
        scores in proptest::collection::vec(-5.0f64..5.0, 2..8),
        temp in 0.1f64..10.0
    ) {
        let k = scores.len();
        let pol = SoftmaxPolicy::new(TableScorer::new(scores.clone()), temp).unwrap();
        let probs = pol.action_probabilities(&SimpleContext::contextless(k));
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for i in 0..k {
            for j in 0..k {
                if scores[i] > scores[j] {
                    prop_assert!(probs[i] >= probs[j] - 1e-12);
                }
            }
        }
    }

    #[test]
    fn uniform_policy_min_propensity_is_one_over_k(k in 1usize..32) {
        let ctx = SimpleContext::contextless(k);
        let p = UniformPolicy::new().min_propensity(&ctx);
        prop_assert!((p - 1.0 / k as f64).abs() < 1e-12);
    }

    #[test]
    fn linalg_dot_axpy_laws(
        x in proptest::collection::vec(-10.0f64..10.0, 1..16),
        alpha in -5.0f64..5.0
    ) {
        let mut y = vec![0.0; x.len()];
        axpy(alpha, &x, &mut y);
        // y = alpha x  =>  dot(y, x) = alpha * |x|^2.
        prop_assert!((dot(&y, &x) - alpha * dot(&x, &x)).abs() < 1e-6);
    }

    #[test]
    fn cholesky_of_gram_plus_ridge_always_succeeds(
        rows in proptest::collection::vec(
            proptest::collection::vec(-3.0f64..3.0, 3), 0..20),
        lambda in 0.01f64..10.0
    ) {
        let mut g = Matrix::zeros(3, 3);
        for r in &rows {
            g.rank1_update(r, 1.0);
        }
        g.add_diagonal(lambda);
        prop_assert!(g.cholesky().is_ok());
    }

    #[test]
    fn ridge_interpolates_consistent_data(
        w_true in proptest::collection::vec(-2.0f64..2.0, 3),
        xs in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 2), 10..60)
    ) {
        // y = w·[x ‖ 1] exactly; a tiny ridge must recover predictions.
        let mut reg = RidgeRegression::new(3, 1e-8).unwrap();
        for x in &xs {
            let mut xb = x.clone();
            xb.push(1.0);
            reg.push(&xb, dot(&w_true, &xb), 1.0);
        }
        let model = reg.fit().unwrap();
        for x in xs.iter().take(5) {
            let mut xb = x.clone();
            xb.push(1.0);
            let err = (model.predict(&xb) - dot(&w_true, &xb)).abs();
            prop_assert!(err < 1e-3, "prediction error {err}");
        }
    }

    #[test]
    fn sgd_predictions_stay_finite_under_any_updates(
        updates in proptest::collection::vec(
            (proptest::collection::vec(-100.0f64..100.0, 2), -1e6f64..1e6, 0.0f64..1e3),
            0..200)
    ) {
        let mut sgd = SgdRegressor::new(2, 0.05, 0.01).unwrap();
        for (x, y, w) in &updates {
            sgd.update(x, *y, *w);
        }
        prop_assert!(sgd.predict(&[1.0, 1.0]).is_finite());
    }

    #[test]
    fn linear_model_prediction_is_linear(
        w in proptest::collection::vec(-5.0f64..5.0, 4),
        x in proptest::collection::vec(-5.0f64..5.0, 4),
        y in proptest::collection::vec(-5.0f64..5.0, 4),
        a in -3.0f64..3.0
    ) {
        let m = LinearModel { weights: w };
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
        let lhs = m.predict(&combo);
        let rhs = a * m.predict(&x) + m.predict(&y);
        prop_assert!((lhs - rhs).abs() < 1e-8);
    }

    #[test]
    fn learner_never_panics_on_arbitrary_valid_datasets(
        samples in proptest::collection::vec(
            (0usize..3, -10.0f64..10.0, 0.1f64..1.0, -5.0f64..5.0), 1..60)
    ) {
        let decisions: Vec<LoggedDecision<SimpleContext>> = samples.iter()
            .map(|&(a, r, p, x)| LoggedDecision {
                context: ctx_with_features(vec![x], 3),
                action: a,
                reward: r,
                propensity: p,
            })
            .collect();
        let data = Dataset::from_samples(decisions).unwrap();
        for weighting in [SampleWeighting::Uniform, SampleWeighting::InversePropensity] {
            let learner = RegressionCbLearner::new(ModelingMode::PerAction, weighting, 0.5)
                .unwrap();
            let scorer = learner.fit(&data).unwrap();
            let probe = ctx_with_features(vec![0.0], 3);
            for a in 0..3 {
                prop_assert!(scorer.score(&probe, a).is_finite());
            }
        }
    }

    #[test]
    fn constant_policy_is_constant(
        action in 0usize..10, k in 1usize..10,
        features in proptest::collection::vec(-1.0f64..1.0, 0..5)
    ) {
        let pol = ConstantPolicy::new(action);
        let ctx = SimpleContext::new(features, k);
        let choice = pol.choose(&ctx);
        prop_assert_eq!(choice, action.min(k - 1));
    }
}

proptest! {
    #[test]
    fn stumps_always_choose_valid_actions(
        feature in 0usize..12,
        threshold in -10.0f64..10.0,
        low in 0usize..20,
        high in 0usize..20,
        shared in proptest::collection::vec(-10.0f64..10.0, 0..6),
        k in 1usize..8
    ) {
        use harvest_core::policy::DecisionStump;
        let s = DecisionStump { feature, threshold, low_action: low, high_action: high };
        let ctx = SimpleContext::new(shared, k);
        prop_assert!(s.choose(&ctx) < k);
    }

    #[test]
    fn depth_two_trees_always_choose_valid_actions(
        rf in 0usize..6, rt in -5.0f64..5.0,
        lf in 0usize..6, lt in -5.0f64..5.0, la in 0usize..10, lb in 0usize..10,
        hf in 0usize..6, ht in -5.0f64..5.0, ha in 0usize..10, hb in 0usize..10,
        shared in proptest::collection::vec(-10.0f64..10.0, 0..6),
        k in 1usize..6
    ) {
        use harvest_core::policy::{DecisionStump, DepthTwoTree};
        let t = DepthTwoTree {
            root_feature: rf,
            root_threshold: rt,
            low: DecisionStump { feature: lf, threshold: lt, low_action: la, high_action: lb },
            high: DecisionStump { feature: hf, threshold: ht, low_action: ha, high_action: hb },
        };
        let ctx = SimpleContext::new(shared, k);
        prop_assert!(t.choose(&ctx) < k);
    }

    #[test]
    fn stump_enumeration_members_partition_the_feature_space(
        thresholds in proptest::collection::vec(-1.0f64..1.0, 1..4),
        x in -1.0f64..1.0
    ) {
        use harvest_core::policy::enumerate_stumps;
        // For any single-feature context, each stump picks exactly its
        // low/high action according to the threshold test.
        let class = enumerate_stumps(1, &thresholds, 3);
        let ctx = SimpleContext::new(vec![x], 3);
        for s in &class {
            let expected = if x <= s.threshold { s.low_action } else { s.high_action };
            prop_assert_eq!(s.choose(&ctx), expected.min(2));
        }
    }
}

/// A weight or feature value: mostly small integers so exact score ties
/// are common, plus both signed zeros, NaN and arbitrary reals.
fn coefficient() -> Union<f64> {
    prop_oneof![
        (-2i32..=2).prop_map(f64::from),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        -4.0f64..4.0,
    ]
}

/// The scores `LinearScorer` produced when every call assembled its `φ`
/// vector and summed the products with `Iterator::sum`: the reference the
/// allocation-free kernel must reproduce bit for bit.
fn reference_scores(scorer: &LinearScorer, ctx: &SimpleContext) -> Vec<f64> {
    let dot = |w: &[f64], x: Vec<f64>| -> f64 { w.iter().zip(&x).map(|(a, b)| a * b).sum() };
    (0..ctx.num_actions())
        .map(|a| match scorer {
            LinearScorer::PerAction { weights } => weights
                .get(a)
                .map_or(f64::NEG_INFINITY, |w| dot(w, phi_shared(ctx))),
            LinearScorer::Pooled { weights } => dot(weights, phi(ctx, a)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scoring_kernel_is_bitwise_the_per_action_score(
        shared in collection::vec(coefficient(), 0..7),
        k in 1usize..11,
        rows in 0usize..12,
        action_dim in 0usize..3,
        pooled in any::<bool>(),
        pool in collection::vec(coefficient(), 64),
    ) {
        let mut draw = pool.iter().copied().cycle();
        let d = shared.len();
        let (scorer, ctx) = if pooled {
            let per_action: Vec<Vec<f64>> = (0..k)
                .map(|_| draw.by_ref().take(action_dim).collect())
                .collect();
            let weights = draw.by_ref().take(d + action_dim + 1).collect();
            (
                LinearScorer::Pooled { weights },
                SimpleContext::with_action_features(shared, per_action),
            )
        } else {
            // `rows` below `k` leaves a tail of actions without weights.
            let weights = (0..rows)
                .map(|_| draw.by_ref().take(d + 1).collect())
                .collect();
            (LinearScorer::PerAction { weights }, SimpleContext::new(shared, k))
        };

        let want = reference_scores(&scorer, &ctx);
        let mut got = vec![f64::NAN; 3];
        scorer.score_all(&ctx, &mut got);
        prop_assert_eq!(got.len(), k);
        for a in 0..k {
            prop_assert_eq!(got[a].to_bits(), want[a].to_bits(), "score_all, action {}", a);
            prop_assert_eq!(
                scorer.score(&ctx, a).to_bits(),
                want[a].to_bits(),
                "score, action {}",
                a
            );
        }
        if !pooled && rows < k {
            prop_assert!(got[rows..].iter().all(|&s| s == f64::NEG_INFINITY));
        }

        // The greedy choice: the lowest action holding the largest
        // non-NaN score, or action 0 when nothing beats `-∞`. NaN never
        // wins.
        let max = want
            .iter()
            .copied()
            .filter(|s| !s.is_nan())
            .fold(f64::NEG_INFINITY, f64::max);
        let want_greedy = if max > f64::NEG_INFINITY {
            want.iter().position(|&s| s == max).unwrap()
        } else {
            0
        };
        let greedy = scorer.greedy_action(&ctx);
        prop_assert_eq!(greedy, want_greedy);
        prop_assert!(want[..greedy].iter().all(|&s| s.is_nan() || s < want[greedy]));
        if max > f64::NEG_INFINITY {
            prop_assert!(!want[greedy].is_nan(), "a NaN score won");
        }
        prop_assert_eq!(GreedyPolicy::new(&scorer).choose(&ctx), greedy);

        // The feature-major panel: tiles of eight actions (the last one
        // padded) when the rows fit the context, the scorer's own path
        // when they do not (`rows` other than `k`, a pooled scorer).
        let panel = ActionPanel::new(scorer.clone());
        let mut tiled = vec![f64::NAN; 2];
        panel.score_all(&ctx, &mut tiled);
        prop_assert_eq!(tiled.len(), k);
        for a in 0..k {
            prop_assert_eq!(tiled[a].to_bits(), want[a].to_bits(), "panel, action {}", a);
        }
        prop_assert_eq!(panel.greedy_action(&ctx), want_greedy);
    }
}
