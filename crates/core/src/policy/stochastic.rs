//! Randomized (logging) policies.
//!
//! These are the policies whose randomness gets *harvested*: uniform random
//! (Redis eviction sampling, random load balancing), static weighted random
//! (Nginx `weight=` upstreams), ε-greedy (an exploiting policy with an
//! exploration floor), and softmax over scores.

use crate::context::Context;
use crate::error::HarvestError;
use crate::policy::{Policy, StochasticPolicy};
use crate::scorer::Scorer;

/// Uniform random over the context's eligible actions — the canonical
/// maximally-exploring logging policy; its propensities are `1/K`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformPolicy;

impl UniformPolicy {
    /// Creates the uniform policy.
    pub fn new() -> Self {
        UniformPolicy
    }
}

impl<C: Context> StochasticPolicy<C> for UniformPolicy {
    fn action_probabilities(&self, ctx: &C) -> Vec<f64> {
        let k = ctx.num_actions();
        vec![1.0 / k as f64; k]
    }

    fn name(&self) -> String {
        "uniform-random".to_string()
    }
}

/// Fixed-weight random choice (e.g. an Nginx upstream block with `weight=`
/// directives). Weights are normalized at construction.
///
/// If a context has fewer actions than weights, the distribution
/// renormalizes over the eligible prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPolicy {
    probs: Vec<f64>,
}

impl WeightedPolicy {
    /// Creates a weighted policy from non-negative weights.
    pub fn new(weights: Vec<f64>) -> Result<Self, HarvestError> {
        if weights.is_empty() {
            return Err(HarvestError::InvalidParameter {
                name: "weights",
                message: "must be non-empty".to_string(),
            });
        }
        let sum: f64 = weights.iter().sum();
        if !sum.is_finite() || sum <= 0.0 || weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(HarvestError::InvalidDistribution { sum });
        }
        Ok(WeightedPolicy {
            probs: weights.iter().map(|w| w / sum).collect(),
        })
    }

    /// The normalized probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }
}

impl<C: Context> StochasticPolicy<C> for WeightedPolicy {
    fn action_probabilities(&self, ctx: &C) -> Vec<f64> {
        let k = ctx.num_actions();
        if k >= self.probs.len() {
            let mut p = self.probs.clone();
            p.resize(k, 0.0);
            p
        } else {
            let head: f64 = self.probs[..k].iter().sum();
            if head <= 0.0 {
                vec![1.0 / k as f64; k]
            } else {
                self.probs[..k].iter().map(|&w| w / head).collect()
            }
        }
    }

    fn name(&self) -> String {
        "weighted-random".to_string()
    }
}

/// Wraps a deterministic base policy with an ε exploration floor: with
/// probability `1 - ε` follow the base, with probability `ε` pick uniformly.
///
/// The resulting minimum propensity is `ε / K` (or `1 - ε + ε/K` for the
/// base's action), which is exactly the `ε` knob of Eq. 1.
#[derive(Debug, Clone)]
pub struct EpsilonGreedyPolicy<P> {
    base: P,
    epsilon: f64,
}

impl<P> EpsilonGreedyPolicy<P> {
    /// Creates an ε-greedy wrapper. `epsilon` must be in `[0, 1]`.
    pub fn new(base: P, epsilon: f64) -> Result<Self, HarvestError> {
        if !(0.0..=1.0).contains(&epsilon) || !epsilon.is_finite() {
            return Err(HarvestError::InvalidParameter {
                name: "epsilon",
                message: format!("must be in [0, 1], got {epsilon}"),
            });
        }
        Ok(EpsilonGreedyPolicy { base, epsilon })
    }

    /// The exploration fraction.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The exploited base policy.
    pub fn base(&self) -> &P {
        &self.base
    }
}

impl<C: Context, P: Policy<C>> StochasticPolicy<C> for EpsilonGreedyPolicy<P> {
    fn action_probabilities(&self, ctx: &C) -> Vec<f64> {
        let k = ctx.num_actions();
        let exploit = self.base.choose(ctx).min(k - 1);
        let floor = self.epsilon / k as f64;
        let mut probs = vec![floor; k];
        probs[exploit] += 1.0 - self.epsilon;
        probs
    }

    fn name(&self) -> String {
        format!("eps-greedy({:.2}, {})", self.epsilon, self.base.name())
    }
}

/// A point mass on a deterministic policy's choice. Adapts any [`Policy`]
/// into a (degenerate) [`StochasticPolicy`]; data logged by it supports
/// off-policy evaluation of *no other* policy (propensity 1 on one action,
/// 0 elsewhere) — which is exactly the paper's argument for why
/// non-randomized production policies waste optimization potential.
#[derive(Debug, Clone)]
pub struct PointMassPolicy<P> {
    base: P,
}

impl<P> PointMassPolicy<P> {
    /// Wraps `base`.
    pub fn new(base: P) -> Self {
        PointMassPolicy { base }
    }
}

impl<C: Context, P: Policy<C>> StochasticPolicy<C> for PointMassPolicy<P> {
    fn action_probabilities(&self, ctx: &C) -> Vec<f64> {
        let k = ctx.num_actions();
        let mut probs = vec![0.0; k];
        probs[self.base.choose(ctx).min(k - 1)] = 1.0;
        probs
    }

    fn name(&self) -> String {
        self.base.name()
    }
}

/// Boltzmann/softmax exploration over a scorer: action `a` gets probability
/// proportional to `exp(score(x, a) / temperature)`.
#[derive(Debug, Clone)]
pub struct SoftmaxPolicy<S> {
    scorer: S,
    temperature: f64,
}

impl<S> SoftmaxPolicy<S> {
    /// Creates a softmax policy. `temperature` must be positive; smaller
    /// values concentrate probability on the best-scoring action.
    pub fn new(scorer: S, temperature: f64) -> Result<Self, HarvestError> {
        if !(temperature.is_finite() && temperature > 0.0) {
            return Err(HarvestError::InvalidParameter {
                name: "temperature",
                message: format!("must be positive, got {temperature}"),
            });
        }
        Ok(SoftmaxPolicy {
            scorer,
            temperature,
        })
    }
}

impl<C: Context, S: Scorer<C>> StochasticPolicy<C> for SoftmaxPolicy<S> {
    fn action_probabilities(&self, ctx: &C) -> Vec<f64> {
        let mut scores = self.scorer.scores(ctx);
        for s in &mut scores {
            *s /= self.temperature;
        }
        // Stabilized softmax.
        let m = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = scores.iter().map(|&s| (s - m).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    fn name(&self) -> String {
        format!("softmax(T={})", self.temperature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SimpleContext;
    use crate::policy::{validate_distribution, ConstantPolicy};

    fn ctx(k: usize) -> SimpleContext {
        SimpleContext::contextless(k)
    }

    #[test]
    fn uniform_probs() {
        let p = UniformPolicy::new();
        let probs = p.action_probabilities(&ctx(4));
        assert_eq!(probs, vec![0.25; 4]);
        assert_eq!(p.min_propensity(&ctx(4)), 0.25);
    }

    #[test]
    fn weighted_normalizes() {
        let p = WeightedPolicy::new(vec![1.0, 3.0]).unwrap();
        assert_eq!(p.probabilities(), &[0.25, 0.75]);
        validate_distribution(&p.action_probabilities(&ctx(2))).unwrap();
    }

    #[test]
    fn weighted_rejects_garbage() {
        assert!(WeightedPolicy::new(vec![]).is_err());
        assert!(WeightedPolicy::new(vec![0.0, 0.0]).is_err());
        assert!(WeightedPolicy::new(vec![-1.0, 2.0]).is_err());
        assert!(WeightedPolicy::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn weighted_renormalizes_for_smaller_action_sets() {
        let p = WeightedPolicy::new(vec![1.0, 1.0, 2.0]).unwrap();
        let probs = p.action_probabilities(&ctx(2));
        assert_eq!(probs, vec![0.5, 0.5]);
        let probs = p.action_probabilities(&ctx(5));
        assert_eq!(probs.len(), 5);
        assert_eq!(probs[3], 0.0);
        validate_distribution(&probs).unwrap();
    }

    #[test]
    fn epsilon_greedy_floor() {
        let p = EpsilonGreedyPolicy::new(ConstantPolicy::new(1), 0.2).unwrap();
        let probs = p.action_probabilities(&ctx(4));
        assert!((probs[1] - (0.8 + 0.05)).abs() < 1e-12);
        for a in [0, 2, 3] {
            assert!((probs[a] - 0.05).abs() < 1e-12);
        }
        assert!((p.min_propensity(&ctx(4)) - 0.05).abs() < 1e-12);
        validate_distribution(&probs).unwrap();
    }

    #[test]
    fn epsilon_bounds_checked() {
        assert!(EpsilonGreedyPolicy::new(ConstantPolicy::new(0), -0.1).is_err());
        assert!(EpsilonGreedyPolicy::new(ConstantPolicy::new(0), 1.1).is_err());
        assert!(EpsilonGreedyPolicy::new(ConstantPolicy::new(0), f64::NAN).is_err());
    }

    #[test]
    fn epsilon_one_is_uniform() {
        let p = EpsilonGreedyPolicy::new(ConstantPolicy::new(0), 1.0).unwrap();
        let probs = p.action_probabilities(&ctx(5));
        for &q in &probs {
            assert!((q - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn point_mass_is_degenerate() {
        let p = PointMassPolicy::new(ConstantPolicy::new(2));
        let probs = p.action_probabilities(&ctx(4));
        assert_eq!(probs, vec![0.0, 0.0, 1.0, 0.0]);
        assert_eq!(p.min_propensity(&ctx(4)), 0.0);
    }

    #[test]
    fn softmax_orders_by_score_and_sharpens_with_temperature() {
        struct Fixed;
        impl Scorer<SimpleContext> for Fixed {
            fn score(&self, _c: &SimpleContext, a: usize) -> f64 {
                a as f64
            }
        }
        let warm = SoftmaxPolicy::new(Fixed, 1.0).unwrap();
        let cold = SoftmaxPolicy::new(Fixed, 0.1).unwrap();
        let pw = warm.action_probabilities(&ctx(3));
        let pc = cold.action_probabilities(&ctx(3));
        validate_distribution(&pw).unwrap();
        validate_distribution(&pc).unwrap();
        assert!(pw[2] > pw[1] && pw[1] > pw[0]);
        assert!(pc[2] > pw[2], "lower temperature concentrates mass");
    }

    #[test]
    fn softmax_is_stable_for_huge_scores() {
        struct Huge;
        impl Scorer<SimpleContext> for Huge {
            fn score(&self, _c: &SimpleContext, a: usize) -> f64 {
                1e6 * (a as f64 + 1.0)
            }
        }
        let p = SoftmaxPolicy::new(Huge, 1.0).unwrap();
        let probs = p.action_probabilities(&ctx(3));
        assert!(probs.iter().all(|q| q.is_finite()));
        validate_distribution(&probs).unwrap();
        assert!((probs[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_rejects_bad_temperature() {
        struct Z;
        impl Scorer<SimpleContext> for Z {
            fn score(&self, _c: &SimpleContext, _a: usize) -> f64 {
                0.0
            }
        }
        assert!(SoftmaxPolicy::new(Z, 0.0).is_err());
    }
}
