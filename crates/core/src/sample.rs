//! Exploration data: logged decisions and datasets.
//!
//! The unit of harvested data is the tuple `⟨x, a, r, p⟩` (paper §2): a
//! context, the action the deployed policy took, the reward observed for
//! that action only, and the propensity with which the action was chosen.
//! [`Dataset`] collects and validates them.
//!
//! The machine-health scenario additionally yields *full feedback*: the safe
//! default of waiting the maximum time reveals what would have happened at
//! every shorter wait (paper §3). [`FullFeedbackDataset`] models that and is
//! the source of both ground-truth policy values and simulated exploration
//! data.

use rand::Rng;
use serde::Serialize;

use crate::context::Context;
use crate::error::HarvestError;
use crate::policy::Policy;

/// One harvested exploration datapoint `⟨x, a, r, p⟩`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LoggedDecision<C> {
    /// The context observed at decision time.
    pub context: C,
    /// The action the deployed policy took.
    pub action: usize,
    /// The reward observed for that action.
    pub reward: f64,
    /// The probability with which the deployed policy chose `action`,
    /// in `(0, 1]`.
    pub propensity: f64,
}

impl<C: Context> LoggedDecision<C> {
    /// Validates this decision: finite reward, propensity in `(0, 1]`,
    /// action within the context's action set.
    pub fn validate(&self) -> Result<(), HarvestError> {
        if !self.reward.is_finite() {
            return Err(HarvestError::InvalidReward { value: self.reward });
        }
        if self.propensity <= 0.0 || self.propensity > 1.0 || !self.propensity.is_finite() {
            return Err(HarvestError::InvalidPropensity {
                value: self.propensity,
                index: None,
            });
        }
        if self.action >= self.context.num_actions() {
            return Err(HarvestError::ActionOutOfRange {
                action: self.action,
                num_actions: self.context.num_actions(),
            });
        }
        Ok(())
    }
}

/// A validated collection of exploration datapoints.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dataset<C> {
    samples: Vec<LoggedDecision<C>>,
}

impl<C> Default for Dataset<C> {
    fn default() -> Self {
        Dataset {
            samples: Vec::new(),
        }
    }
}

impl<C: Context> Dataset<C> {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a dataset from samples, validating each.
    pub fn from_samples(samples: Vec<LoggedDecision<C>>) -> Result<Self, HarvestError> {
        for (i, s) in samples.iter().enumerate() {
            s.validate().map_err(|e| match e {
                HarvestError::InvalidPropensity { value, .. } => HarvestError::InvalidPropensity {
                    value,
                    index: Some(i),
                },
                other => other,
            })?;
        }
        Ok(Dataset { samples })
    }

    /// Appends one validated sample.
    pub fn push(&mut self, sample: LoggedDecision<C>) -> Result<(), HarvestError> {
        sample.validate()?;
        self.samples.push(sample);
        Ok(())
    }

    /// The samples in logging order.
    pub fn samples(&self) -> &[LoggedDecision<C>] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, LoggedDecision<C>> {
        self.samples.iter()
    }

    /// The smallest propensity in the data — the `ε` of Eq. 1, which governs
    /// off-policy evaluation accuracy. `None` if empty.
    pub fn min_propensity(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.propensity)
            .min_by(|a, b| a.partial_cmp(b).expect("validated propensities"))
    }

    /// Observed reward range `(min, max)`. `None` if empty.
    pub fn reward_range(&self) -> Option<(f64, f64)> {
        if self.samples.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in &self.samples {
            lo = lo.min(s.reward);
            hi = hi.max(s.reward);
        }
        Some((lo, hi))
    }

    /// Mean logged reward — the on-policy (logging policy) value estimate.
    pub fn mean_logged_reward(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.reward).sum::<f64>() / self.samples.len() as f64)
    }

    /// Returns a dataset whose rewards are affinely rescaled to `[0, 1]`
    /// using the observed range, along with the `(offset, scale)` used, so
    /// estimates can be mapped back. Constant rewards map to 0.5.
    ///
    /// Eq. 1's guarantees assume rewards in `[0, 1]`; harvested rewards
    /// (latencies, downtimes) rarely are.
    pub fn normalized(&self) -> (Dataset<C>, RewardScaling)
    where
        C: Clone,
    {
        let (lo, hi) = self.reward_range().unwrap_or((0.0, 1.0));
        let scaling = RewardScaling::from_range(lo, hi);
        let samples = self
            .samples
            .iter()
            .map(|s| LoggedDecision {
                context: s.context.clone(),
                action: s.action,
                reward: scaling.apply(s.reward),
                propensity: s.propensity,
            })
            .collect();
        (Dataset { samples }, scaling)
    }

    /// Splits into `(train, test)` with the first `n_train` samples in
    /// train. Preserves logging order (time order), which is what a real
    /// deployment would do to avoid leaking the future into training.
    pub fn split_at(mut self, n_train: usize) -> (Dataset<C>, Dataset<C>) {
        let n = n_train.min(self.samples.len());
        let test = self.samples.split_off(n);
        (
            Dataset {
                samples: self.samples,
            },
            Dataset { samples: test },
        )
    }

    /// Randomly shuffles sample order in place (Fisher–Yates).
    pub fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.samples.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.samples.swap(i, j);
        }
    }

    /// A dataset containing the first `n` samples (or all, if fewer).
    pub fn truncated(&self, n: usize) -> Dataset<C>
    where
        C: Clone,
    {
        Dataset {
            samples: self.samples[..n.min(self.samples.len())].to_vec(),
        }
    }
}

impl<C> IntoIterator for Dataset<C> {
    type Item = LoggedDecision<C>;
    type IntoIter = std::vec::IntoIter<LoggedDecision<C>>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.into_iter()
    }
}

impl<'a, C> IntoIterator for &'a Dataset<C> {
    type Item = &'a LoggedDecision<C>;
    type IntoIter = std::slice::Iter<'a, LoggedDecision<C>>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// The affine map used to normalize rewards to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RewardScaling {
    /// Subtracted before scaling.
    pub offset: f64,
    /// Multiplied after offsetting.
    pub scale: f64,
}

impl RewardScaling {
    /// Identity scaling.
    pub fn identity() -> Self {
        RewardScaling {
            offset: 0.0,
            scale: 1.0,
        }
    }

    /// Scaling that maps `[lo, hi]` onto `[0, 1]`. A degenerate range maps
    /// everything to 0.5.
    pub fn from_range(lo: f64, hi: f64) -> Self {
        if hi > lo {
            RewardScaling {
                offset: lo,
                scale: 1.0 / (hi - lo),
            }
        } else {
            RewardScaling {
                offset: lo - 0.5,
                scale: 1.0,
            }
        }
    }

    /// Maps a raw reward into normalized space.
    pub fn apply(&self, reward: f64) -> f64 {
        (reward - self.offset) * self.scale
    }

    /// Maps a normalized value back to raw reward units.
    pub fn invert(&self, normalized: f64) -> f64 {
        normalized / self.scale + self.offset
    }
}

/// One full-feedback datapoint: a context and the reward of *every* action.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FullFeedbackSample<C> {
    /// The context.
    pub context: C,
    /// `rewards[a]` is the reward action `a` would have obtained.
    pub rewards: Vec<f64>,
}

impl<C: Context> FullFeedbackSample<C> {
    /// Validates shape and finiteness.
    pub fn validate(&self) -> Result<(), HarvestError> {
        if self.rewards.len() != self.context.num_actions() {
            return Err(HarvestError::DimensionMismatch {
                expected: self.context.num_actions(),
                got: self.rewards.len(),
            });
        }
        for &r in &self.rewards {
            if !r.is_finite() {
                return Err(HarvestError::InvalidReward { value: r });
            }
        }
        Ok(())
    }

    /// The best action and its reward for this sample.
    pub fn best(&self) -> (usize, f64) {
        let mut best = 0;
        for (a, &r) in self.rewards.iter().enumerate() {
            if r > self.rewards[best] {
                best = a;
            }
        }
        (best, self.rewards[best])
    }
}

/// A supervised-style dataset with the counterfactual reward of every action
/// (the machine-health scenario, paper §3).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FullFeedbackDataset<C> {
    samples: Vec<FullFeedbackSample<C>>,
}

impl<C> Default for FullFeedbackDataset<C> {
    fn default() -> Self {
        FullFeedbackDataset {
            samples: Vec::new(),
        }
    }
}

impl<C: Context> FullFeedbackDataset<C> {
    /// Builds a dataset from samples, validating each.
    pub fn from_samples(samples: Vec<FullFeedbackSample<C>>) -> Result<Self, HarvestError> {
        for s in &samples {
            s.validate()?;
        }
        Ok(FullFeedbackDataset { samples })
    }

    /// Appends one validated sample.
    pub fn push(&mut self, sample: FullFeedbackSample<C>) -> Result<(), HarvestError> {
        sample.validate()?;
        self.samples.push(sample);
        Ok(())
    }

    /// The samples.
    pub fn samples(&self) -> &[FullFeedbackSample<C>] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// **Ground truth**: the exact average reward `π` would obtain on this
    /// data. This is what off-policy estimates are compared against in
    /// Figs. 3–4.
    pub fn value_of_policy<P: Policy<C> + ?Sized>(&self, policy: &P) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let total: f64 = self
            .samples
            .iter()
            .map(|s| s.rewards[policy.choose(&s.context).min(s.rewards.len() - 1)])
            .sum();
        Some(total / self.samples.len() as f64)
    }

    /// Value of the pointwise-best action (the unreachable skyline).
    pub fn oracle_value(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let total: f64 = self.samples.iter().map(|s| s.best().1).sum();
        Some(total / self.samples.len() as f64)
    }

    /// Value of the best *constant* action, and which action that is.
    pub fn best_fixed_action(&self) -> Option<(usize, f64)> {
        if self.samples.is_empty() {
            return None;
        }
        let k = self.samples[0].rewards.len();
        let mut best: Option<(usize, f64)> = None;
        for a in 0..k {
            let v: f64 = self
                .samples
                .iter()
                .map(|s| *s.rewards.get(a).unwrap_or(&f64::NEG_INFINITY))
                .sum::<f64>()
                / self.samples.len() as f64;
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some((a, v));
            }
        }
        best
    }

    /// Splits into `(train, test)` at `n_train`.
    pub fn split_at(mut self, n_train: usize) -> (Self, Self) {
        let n = n_train.min(self.samples.len());
        let test = self.samples.split_off(n);
        (
            FullFeedbackDataset {
                samples: self.samples,
            },
            FullFeedbackDataset { samples: test },
        )
    }

    /// Reward range across all actions and samples.
    pub fn reward_range(&self) -> Option<(f64, f64)> {
        if self.samples.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in &self.samples {
            for &r in &s.rewards {
                lo = lo.min(r);
                hi = hi.max(r);
            }
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SimpleContext;
    use crate::policy::ConstantPolicy;

    fn ctx(k: usize) -> SimpleContext {
        SimpleContext::new(vec![1.0], k)
    }

    fn decision(a: usize, r: f64, p: f64) -> LoggedDecision<SimpleContext> {
        LoggedDecision {
            context: ctx(3),
            action: a,
            reward: r,
            propensity: p,
        }
    }

    #[test]
    fn validation_rejects_bad_propensity() {
        assert!(matches!(
            decision(0, 1.0, 0.0).validate(),
            Err(HarvestError::InvalidPropensity { .. })
        ));
        assert!(matches!(
            decision(0, 1.0, 1.5).validate(),
            Err(HarvestError::InvalidPropensity { .. })
        ));
        assert!(decision(0, 1.0, 1.0).validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_action_and_reward() {
        assert!(matches!(
            decision(3, 1.0, 0.5).validate(),
            Err(HarvestError::ActionOutOfRange { .. })
        ));
        assert!(matches!(
            decision(0, f64::NAN, 0.5).validate(),
            Err(HarvestError::InvalidReward { .. })
        ));
    }

    #[test]
    fn from_samples_reports_offending_index() {
        let err =
            Dataset::from_samples(vec![decision(0, 1.0, 0.5), decision(1, 1.0, -0.1)]).unwrap_err();
        assert_eq!(
            err,
            HarvestError::InvalidPropensity {
                value: -0.1,
                index: Some(1)
            }
        );
    }

    #[test]
    fn min_propensity_and_range() {
        let d = Dataset::from_samples(vec![
            decision(0, 2.0, 0.5),
            decision(1, -1.0, 0.25),
            decision(2, 4.0, 1.0),
        ])
        .unwrap();
        assert_eq!(d.min_propensity(), Some(0.25));
        assert_eq!(d.reward_range(), Some((-1.0, 4.0)));
        assert!((d.mean_logged_reward().unwrap() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_round_trips() {
        let d = Dataset::from_samples(vec![decision(0, -2.0, 0.5), decision(1, 8.0, 0.5)]).unwrap();
        let (nd, scaling) = d.normalized();
        assert_eq!(nd.reward_range(), Some((0.0, 1.0)));
        assert_eq!(scaling.invert(scaling.apply(3.0)), 3.0);
        assert_eq!(scaling.apply(-2.0), 0.0);
        assert_eq!(scaling.apply(8.0), 1.0);
    }

    #[test]
    fn normalization_of_constant_rewards() {
        let d = Dataset::from_samples(vec![decision(0, 5.0, 0.5), decision(1, 5.0, 0.5)]).unwrap();
        let (nd, _) = d.normalized();
        assert!(nd.iter().all(|s| s.reward == 0.5));
    }

    #[test]
    fn split_preserves_order() {
        let d =
            Dataset::from_samples((0..10).map(|i| decision(0, i as f64, 0.5)).collect()).unwrap();
        let (train, test) = d.split_at(7);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(test.samples()[0].reward, 7.0);
    }

    #[test]
    fn split_beyond_len_is_safe() {
        let d = Dataset::from_samples(vec![decision(0, 1.0, 0.5)]).unwrap();
        let (train, test) = d.split_at(100);
        assert_eq!(train.len(), 1);
        assert!(test.is_empty());
    }

    #[test]
    fn shuffle_permutes_deterministically() {
        use rand::SeedableRng;
        let mk = || {
            Dataset::from_samples((0..20).map(|i| decision(0, i as f64, 0.5)).collect()).unwrap()
        };
        let mut a = mk();
        let mut b = mk();
        a.shuffle(&mut rand::rngs::StdRng::seed_from_u64(5));
        b.shuffle(&mut rand::rngs::StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        let mut rewards: Vec<f64> = a.iter().map(|s| s.reward).collect();
        rewards.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(rewards, (0..20).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn full_feedback_values() {
        let d = FullFeedbackDataset::from_samples(vec![
            FullFeedbackSample {
                context: ctx(3),
                rewards: vec![1.0, 0.0, 0.0],
            },
            FullFeedbackSample {
                context: ctx(3),
                rewards: vec![0.0, 2.0, 0.0],
            },
        ])
        .unwrap();
        assert_eq!(d.oracle_value(), Some(1.5));
        assert_eq!(d.best_fixed_action(), Some((1, 1.0)));
        let send0 = ConstantPolicy::new(0);
        assert_eq!(d.value_of_policy(&send0), Some(0.5));
        assert_eq!(d.reward_range(), Some((0.0, 2.0)));
    }

    #[test]
    fn full_feedback_validates_shape() {
        let bad = FullFeedbackSample {
            context: ctx(3),
            rewards: vec![1.0, 2.0],
        };
        assert!(matches!(
            bad.validate(),
            Err(HarvestError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_dataset_queries_are_none() {
        let d: Dataset<SimpleContext> = Dataset::new();
        assert_eq!(d.min_propensity(), None);
        assert_eq!(d.reward_range(), None);
        let f: FullFeedbackDataset<SimpleContext> = FullFeedbackDataset::default();
        assert_eq!(f.oracle_value(), None);
        assert_eq!(f.best_fixed_action(), None);
    }
}
