//! The batch regression CB learner.

use crate::context::{phi, phi_shared, Context};
use crate::error::HarvestError;
use crate::policy::GreedyPolicy;
use crate::regression::RidgeRegression;
use crate::sample::Dataset;
use crate::scorer::LinearScorer;

/// How (context, action) pairs are featurized for the reward model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelingMode {
    /// One weight vector per action slot over shared features. Right when
    /// actions are fixed semantic slots (wait times 1–10 min, named
    /// servers).
    PerAction,
    /// One pooled weight vector over shared ‖ action features. Right when
    /// actions are interchangeable candidates (eviction candidates) and the
    /// action set varies per context.
    Pooled,
}

/// How logged samples are weighted when fitting the reward model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleWeighting {
    /// Every sample weighs 1. Unbiased when the logging policy's action
    /// choice is independent of context (e.g. uniform random); lower
    /// variance.
    Uniform,
    /// Weight each sample by `1/p`. Corrects the logging policy's
    /// context-dependent action preferences, at the cost of variance —
    /// the same bias/variance trade-off as IPS vs direct method.
    InversePropensity,
}

/// Reduces CB policy optimization to importance-weighted ridge regression.
///
/// Fit produces a [`LinearScorer`] reward model `r̂(x, a)`; acting greedily
/// on it is the learned policy. The model doubles as the reward predictor
/// for direct-method and doubly-robust estimation.
#[derive(Debug, Clone)]
pub struct RegressionCbLearner {
    mode: ModelingMode,
    weighting: SampleWeighting,
    lambda: f64,
}

impl RegressionCbLearner {
    /// Creates a learner. `lambda` is the ridge regularizer (must be
    /// positive).
    pub fn new(
        mode: ModelingMode,
        weighting: SampleWeighting,
        lambda: f64,
    ) -> Result<Self, HarvestError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(HarvestError::InvalidParameter {
                name: "lambda",
                message: format!("must be positive, got {lambda}"),
            });
        }
        Ok(RegressionCbLearner {
            mode,
            weighting,
            lambda,
        })
    }

    /// A sensible default: per-action modeling, uniform weighting, λ = 1.
    pub fn default_per_action() -> Self {
        RegressionCbLearner {
            mode: ModelingMode::PerAction,
            weighting: SampleWeighting::Uniform,
            lambda: 1.0,
        }
    }

    /// A sensible default for candidate-style actions: pooled modeling.
    pub fn default_pooled() -> Self {
        RegressionCbLearner {
            mode: ModelingMode::Pooled,
            weighting: SampleWeighting::Uniform,
            lambda: 1.0,
        }
    }

    fn weight_of(&self, propensity: f64) -> f64 {
        match self.weighting {
            SampleWeighting::Uniform => 1.0,
            SampleWeighting::InversePropensity => 1.0 / propensity,
        }
    }

    /// Starts a fit: push the samples, then
    /// [`finish`](FitAccumulator::finish). No sample is kept.
    pub fn accumulator(&self) -> FitAccumulator {
        FitAccumulator {
            learner: self.clone(),
            regs: Vec::new(),
            dim: None,
            error: None,
        }
    }

    /// Fits the reward model from exploration data: every sample pushed
    /// through one [`accumulator`](Self::accumulator), in order.
    pub fn fit<C: Context>(&self, data: &Dataset<C>) -> Result<LinearScorer, HarvestError> {
        let mut fit = self.accumulator();
        for s in data {
            fit.push(&s.context, s.action, s.reward, s.propensity);
        }
        fit.finish()
    }

    /// Fits and wraps the model in a greedy policy.
    pub fn fit_policy<C: Context>(
        &self,
        data: &Dataset<C>,
    ) -> Result<GreedyPolicy<LinearScorer>, HarvestError> {
        Ok(GreedyPolicy::new(self.fit(data)?).named("cb-policy"))
    }
}

/// A reward-model fit in progress ([`RegressionCbLearner::accumulator`]).
///
/// Only the logged action's reward is observed (partial feedback), so each
/// sample updates exactly one action's model (per-action mode) or
/// contributes one pooled row. The first sample fixes the feature
/// dimension; a sample of another dimension fails the fit.
#[derive(Debug, Clone)]
pub struct FitAccumulator {
    learner: RegressionCbLearner,
    /// One regressor per action slot (per-action mode), or the pooled one.
    regs: Vec<RidgeRegression>,
    dim: Option<usize>,
    error: Option<HarvestError>,
}

impl FitAccumulator {
    /// Folds in one logged sample.
    pub fn push<C: Context>(&mut self, context: &C, action: usize, reward: f64, propensity: f64) {
        if self.error.is_some() {
            return;
        }
        let (x, slot, slots) = match self.learner.mode {
            ModelingMode::PerAction => (phi_shared(context), action, context.num_actions()),
            ModelingMode::Pooled => (phi(context, action), 0, 1),
        };
        let dim = *self.dim.get_or_insert(x.len());
        if x.len() != dim {
            self.error = Some(HarvestError::DimensionMismatch {
                expected: dim,
                got: x.len(),
            });
            return;
        }
        while self.regs.len() < slots {
            let reg = RidgeRegression::new(dim, self.learner.lambda).expect("lambda was checked");
            self.regs.push(reg);
        }
        self.regs[slot].push(&x, reward, self.learner.weight_of(propensity));
    }

    /// Solves for the reward model: a weight vector per action up to the
    /// largest action count pushed (per-action mode), or the pooled vector.
    pub fn finish(self) -> Result<LinearScorer, HarvestError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let weights = self.regs.iter().map(|r| r.fit().map(|m| m.weights));
        let mut weights = weights.collect::<Result<Vec<_>, _>>()?;
        match self.learner.mode {
            _ if weights.is_empty() => Err(HarvestError::EmptyDataset),
            ModelingMode::PerAction => Ok(LinearScorer::PerAction { weights }),
            ModelingMode::Pooled => Ok(LinearScorer::Pooled {
                weights: weights.remove(0),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SimpleContext;
    use crate::policy::{Policy, StochasticPolicy, UniformPolicy};
    use crate::sample::LoggedDecision;
    use rand::Rng;
    use rand::SeedableRng;

    /// Builds exploration data where action 0's reward is `x` and action
    /// 1's reward is `1 - x`, logged by uniform random.
    fn crossing_dataset(n: usize, seed: u64) -> Dataset<SimpleContext> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pol = UniformPolicy::new();
        let mut data = Dataset::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            let ctx = SimpleContext::new(vec![x], 2);
            let (a, p) = pol.sample(&ctx, &mut rng);
            let r = if a == 0 { x } else { 1.0 - x };
            data.push(LoggedDecision {
                context: ctx,
                action: a,
                reward: r,
                propensity: p,
            })
            .unwrap();
        }
        data
    }

    #[test]
    fn per_action_learner_finds_crossing_policy() {
        let data = crossing_dataset(2000, 1);
        let learner =
            RegressionCbLearner::new(ModelingMode::PerAction, SampleWeighting::Uniform, 1e-3)
                .unwrap();
        let policy = learner.fit_policy(&data).unwrap();
        // Optimal: action 0 iff x > 0.5.
        assert_eq!(policy.choose(&SimpleContext::new(vec![0.9], 2)), 0);
        assert_eq!(policy.choose(&SimpleContext::new(vec![0.1], 2)), 1);
    }

    #[test]
    fn pooled_learner_uses_action_features() {
        // Reward = action feature value; candidates vary per decision.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pol = UniformPolicy::new();
        let mut data = Dataset::new();
        for _ in 0..1000 {
            let feats: Vec<Vec<f64>> = (0..3).map(|_| vec![rng.gen_range(-1.0..1.0)]).collect();
            let ctx = SimpleContext::with_action_features(vec![], feats.clone());
            let (a, p) = pol.sample(&ctx, &mut rng);
            data.push(LoggedDecision {
                context: ctx,
                action: a,
                reward: feats[a][0],
                propensity: p,
            })
            .unwrap();
        }
        let learner = RegressionCbLearner::default_pooled();
        let policy = learner.fit_policy(&data).unwrap();
        let test =
            SimpleContext::with_action_features(vec![], vec![vec![0.1], vec![0.9], vec![-0.5]]);
        assert_eq!(policy.choose(&test), 1);
    }

    #[test]
    fn ips_weighting_corrects_biased_logging() {
        // Logging policy prefers action 0 when x > 0.5 — its choice depends
        // on context, so the naive fit sees a skewed sample of contexts per
        // action. With IPS weighting the fit must still find the truth.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut data = Dataset::new();
        for _ in 0..4000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            let ctx = SimpleContext::new(vec![x], 2);
            let p0 = if x > 0.5 { 0.9 } else { 0.1 };
            let a = if rng.gen_bool(p0) { 0 } else { 1 };
            let p = if a == 0 { p0 } else { 1.0 - p0 };
            let r = if a == 0 { x } else { 1.0 - x };
            data.push(LoggedDecision {
                context: ctx,
                action: a,
                reward: r,
                propensity: p,
            })
            .unwrap();
        }
        let learner = RegressionCbLearner::new(
            ModelingMode::PerAction,
            SampleWeighting::InversePropensity,
            1e-3,
        )
        .unwrap();
        let policy = learner.fit_policy(&data).unwrap();
        assert_eq!(policy.choose(&SimpleContext::new(vec![0.95], 2)), 0);
        assert_eq!(policy.choose(&SimpleContext::new(vec![0.05], 2)), 1);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let learner = RegressionCbLearner::default_per_action();
        let data: Dataset<SimpleContext> = Dataset::new();
        assert_eq!(learner.fit(&data), Err(HarvestError::EmptyDataset));
    }

    #[test]
    fn rejects_bad_lambda() {
        assert!(
            RegressionCbLearner::new(ModelingMode::PerAction, SampleWeighting::Uniform, 0.0)
                .is_err()
        );
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let mut data = Dataset::new();
        data.push(LoggedDecision {
            context: SimpleContext::new(vec![1.0], 2),
            action: 0,
            reward: 0.5,
            propensity: 0.5,
        })
        .unwrap();
        data.push(LoggedDecision {
            context: SimpleContext::new(vec![1.0, 2.0], 2),
            action: 0,
            reward: 0.5,
            propensity: 0.5,
        })
        .unwrap();
        let learner = RegressionCbLearner::default_per_action();
        assert!(matches!(
            learner.fit(&data),
            Err(HarvestError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn unexplored_action_gets_zero_model() {
        // All logged decisions took action 0; action 1's model is the ridge
        // minimizer (zero weights), so greedy prefers whichever model
        // predicts higher — here action 0 with positive rewards.
        let mut data = Dataset::new();
        for _ in 0..50 {
            data.push(LoggedDecision {
                context: SimpleContext::new(vec![1.0], 2),
                action: 0,
                reward: 1.0,
                propensity: 0.5,
            })
            .unwrap();
        }
        let learner = RegressionCbLearner::default_per_action();
        let policy = learner.fit_policy(&data).unwrap();
        assert_eq!(policy.choose(&SimpleContext::new(vec![1.0], 2)), 0);
    }
}
