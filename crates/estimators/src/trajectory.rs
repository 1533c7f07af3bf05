//! Trajectory (episode-level) importance sampling.
//!
//! When decisions influence future contexts — load on a server after routing
//! to it — single-decision IPS breaks (paper §5, Table 2). The fix the paper
//! points to is "off-policy estimators that account for long-term effects
//! \[40\]": reweight by the probability of matching *sequences* of actions.
//!
//! This module implements the two standard sequence estimators over
//! [`Episode`]s:
//!
//! * [`trajectory_is`] — full-trajectory IS: an episode's return is weighted
//!   by the product of per-step ratios over the **whole** episode.
//! * [`per_decision_is`] — per-decision IS (PDIS): each reward `r_t` is
//!   weighted only by the ratios of steps `≤ t`, which is unbiased too but
//!   never pays for ratios of future steps.
//!
//! Both are unbiased — and both suffer variance exponential in the horizon,
//! because the product of `K` uniform-logging ratios for a deterministic
//! target is `Kᴴ` on the single matching trajectory and `0` elsewhere. The
//! `variance_profile` diagnostic quantifies exactly that blow-up, which is
//! the paper's argument for moving to doubly-robust hybrids.

use harvest_core::{Context, StochasticPolicy};
use serde::Serialize;

use crate::diagnostics::WeightStats;
use crate::estimate::Estimate;
use crate::fold::TermMoments;

/// One step of a logged episode.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Step<C> {
    /// Context at this step.
    pub context: C,
    /// Action the logging policy took.
    pub action: usize,
    /// Reward observed at this step.
    pub reward: f64,
    /// Propensity of the logged action.
    pub propensity: f64,
}

/// A logged episode: an ordered sequence of dependent decisions.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Episode<C> {
    /// The steps, in time order.
    pub steps: Vec<Step<C>>,
}

impl<C> Episode<C> {
    /// Episode length (horizon).
    pub fn horizon(&self) -> usize {
        self.steps.len()
    }

    /// Undiscounted return (sum of rewards).
    pub fn episode_return(&self) -> f64 {
        self.steps.iter().map(|s| s.reward).sum()
    }
}

/// Full-trajectory importance sampling: estimates the expected episode
/// return of `target` from episodes logged by another policy.
///
/// Each episode contributes `(∏ₜ π(aₜ|xₜ)/pₜ) · G` where `G` is its return.
pub fn trajectory_is<C, P>(episodes: &[Episode<C>], target: &P) -> Estimate
where
    C: Context,
    P: StochasticPolicy<C>,
{
    let mut terms = TermMoments::new();
    let mut matched = 0;
    for ep in episodes {
        let mut w = 1.0;
        for s in &ep.steps {
            w *= target.propensity_of(&s.context, s.action) / s.propensity;
            if w == 0.0 {
                break;
            }
        }
        if w > 0.0 {
            matched += 1;
        }
        terms.observe(w * ep.episode_return());
    }
    terms.estimate(terms.mean(), matched)
}

/// Doubly-robust per-decision importance sampling (Jiang & Li 2016 — the
/// paper's §5 plan: "leveraging doubly robust techniques, which use
/// modeling to predict rewards, to reduce this variance").
///
/// Each episode contributes
///
/// ```text
/// Σₜ [ w_{t−1} · V̂(xₜ) + wₜ · (rₜ − r̂(xₜ, aₜ)) ]
/// ```
///
/// where `wₜ = ∏_{s ≤ t} π(a_s|x_s)/p_s`, `r̂` is a per-step reward model,
/// and `V̂(x) = Σ_a π(a|x) r̂(x, a)` is its value under the target policy.
/// Unbiased whenever PDIS is (the model terms telescope out in
/// expectation); variance shrinks with the model's residuals, because the
/// explosive high-order weights only multiply *residuals* instead of raw
/// rewards.
pub fn doubly_robust_pdis<C, P, M>(episodes: &[Episode<C>], target: &P, model: &M) -> Estimate
where
    C: Context,
    P: StochasticPolicy<C>,
    M: harvest_core::Scorer<C>,
{
    let mut terms = TermMoments::new();
    let mut matched = 0;
    let mut scores = Vec::new();
    for ep in episodes {
        let mut w_prev = 1.0;
        let mut total = 0.0;
        let mut any = false;
        for s in &ep.steps {
            // Model value of the target policy at this step.
            let probs = target.action_probabilities(&s.context);
            model.score_all(&s.context, &mut scores);
            let v_hat: f64 = probs.iter().zip(&scores).map(|(p, r)| p * r).sum();
            total += w_prev * v_hat;
            let w = w_prev * target.propensity_of(&s.context, s.action) / s.propensity;
            if w > 0.0 {
                any = true;
                total += w * (s.reward - scores[s.action]);
            }
            w_prev = w;
            if w_prev == 0.0 {
                // Later steps still contribute their (zero-weighted)
                // baseline terms, which are all zero — stop early.
                break;
            }
        }
        if any {
            matched += 1;
        }
        terms.observe(total);
    }
    terms.estimate(terms.mean(), matched)
}

/// Per-decision importance sampling (PDIS): each reward is weighted by the
/// cumulative ratio up to its own step only.
///
/// Each episode contributes `Σₜ (∏_{s ≤ t} π(a_s|x_s)/p_s) · rₜ`.
pub fn per_decision_is<C, P>(episodes: &[Episode<C>], target: &P) -> Estimate
where
    C: Context,
    P: StochasticPolicy<C>,
{
    let mut terms = TermMoments::new();
    let mut matched = 0;
    for ep in episodes {
        let mut w = 1.0;
        let mut total = 0.0;
        let mut any = false;
        for s in &ep.steps {
            w *= target.propensity_of(&s.context, s.action) / s.propensity;
            if w == 0.0 {
                break;
            }
            any = true;
            total += w * s.reward;
        }
        if any {
            matched += 1;
        }
        terms.observe(total);
    }
    terms.estimate(terms.mean(), matched)
}

/// Weighted (self-normalized) per-decision importance sampling: at each
/// step the cumulative weights are normalized by their realized mass,
///
/// ```text
/// Σₜ [ Σᵢ wᵢ,ₜ · rᵢ,ₜ / Σᵢ wᵢ,ₜ ]
/// ```
///
/// (sum over episodes `i` within each step `t`). Like SNIPS for single
/// decisions: biased but consistent, bounded by the per-step reward range,
/// and dramatically lower variance than PDIS on long horizons where raw
/// weights span orders of magnitude. Steps where no episode carries weight
/// contribute zero (no information survives that deep).
pub fn weighted_per_decision_is<C, P>(episodes: &[Episode<C>], target: &P) -> Estimate
where
    C: Context,
    P: StochasticPolicy<C>,
{
    let max_h = episodes.iter().map(Episode::horizon).max().unwrap_or(0);
    // Running cumulative weight per episode.
    let mut weights: Vec<f64> = vec![1.0; episodes.len()];
    let mut total = 0.0;
    let mut any_matched = vec![false; episodes.len()];
    for t in 0..max_h {
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, ep) in episodes.iter().enumerate() {
            let Some(s) = ep.steps.get(t) else { continue };
            if weights[i] == 0.0 {
                continue;
            }
            weights[i] *= target.propensity_of(&s.context, s.action) / s.propensity;
            if weights[i] > 0.0 {
                any_matched[i] = true;
                num += weights[i] * s.reward;
                den += weights[i];
            }
        }
        if den > 0.0 {
            total += num / den;
        }
    }
    let matched = any_matched.iter().filter(|&&m| m).count();
    Estimate {
        value: total,
        n: episodes.len(),
        matched,
        // Per-step normalization entangles episodes; use a bootstrap over
        // episodes for uncertainty instead of a per-term standard error.
        std_err: 0.0,
    }
}

/// How the importance-weight distribution degrades with horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WeightProfile {
    /// Horizon the profile was computed at (steps considered per episode).
    pub horizon: usize,
    /// Mean trajectory weight (should stay ≈ 1 for a well-specified
    /// target/logging pair — weights are a likelihood ratio).
    pub mean_weight: f64,
    /// Maximum trajectory weight observed.
    pub max_weight: f64,
    /// Effective sample size `(Σw)² / Σw²`, the standard "how many samples
    /// is this really" diagnostic; collapses toward 1 as variance explodes.
    pub effective_sample_size: f64,
    /// Fraction of episodes with nonzero weight.
    pub match_fraction: f64,
}

/// Computes [`WeightProfile`]s for truncated horizons `1..=max_horizon`,
/// quantifying the variance blow-up of trajectory IS.
pub fn variance_profile<C, P>(
    episodes: &[Episode<C>],
    target: &P,
    max_horizon: usize,
) -> Vec<WeightProfile>
where
    C: Context,
    P: StochasticPolicy<C>,
{
    (1..=max_horizon)
        .map(|h| {
            let mut weights = WeightStats::new(f64::INFINITY);
            let mut nonzero = 0;
            for ep in episodes {
                let mut w = 1.0;
                for s in ep.steps.iter().take(h) {
                    w *= target.propensity_of(&s.context, s.action) / s.propensity;
                    if w == 0.0 {
                        break;
                    }
                }
                weights.observe(w);
                nonzero += usize::from(w > 0.0);
            }
            // With no episodes every field reads 0, not 0/0.
            let n = episodes.len().max(1) as f64;
            WeightProfile {
                horizon: h,
                mean_weight: weights.sum() / n,
                max_weight: weights.max_or_zero(),
                effective_sample_size: weights.ess(),
                match_fraction: nonzero as f64 / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::policy::{ConstantPolicy, PointMassPolicy, UniformPolicy};
    use harvest_core::SimpleContext;
    use rand::Rng;
    use rand::SeedableRng;

    fn uniform_episodes(
        n: usize,
        horizon: usize,
        k: usize,
        seed: u64,
    ) -> Vec<Episode<SimpleContext>> {
        // Reward at each step = action index (deterministic), logged by
        // uniform random over k actions.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Episode {
                steps: (0..horizon)
                    .map(|_| {
                        let a = rng.gen_range(0..k);
                        Step {
                            context: SimpleContext::contextless(k),
                            action: a,
                            reward: a as f64,
                            propensity: 1.0 / k as f64,
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn horizon_one_reduces_to_ips() {
        let eps = uniform_episodes(50_000, 1, 2, 1);
        let target = PointMassPolicy::new(ConstantPolicy::new(1));
        let tis = trajectory_is(&eps, &target);
        let pdis = per_decision_is(&eps, &target);
        // Truth: always action 1 => return 1 per episode.
        assert!((tis.value - 1.0).abs() < 0.02, "tis {}", tis.value);
        assert!((pdis.value - tis.value).abs() < 1e-12);
    }

    #[test]
    fn unbiased_at_moderate_horizon() {
        let eps = uniform_episodes(200_000, 3, 2, 2);
        let target = PointMassPolicy::new(ConstantPolicy::new(1));
        // Truth: 3 steps of reward 1 => 3.
        let tis = trajectory_is(&eps, &target);
        assert!((tis.value - 3.0).abs() < 0.15, "tis {}", tis.value);
        let pdis = per_decision_is(&eps, &target);
        assert!((pdis.value - 3.0).abs() < 0.15, "pdis {}", pdis.value);
    }

    #[test]
    fn pdis_variance_not_above_trajectory_is() {
        let eps = uniform_episodes(20_000, 5, 2, 3);
        let target = PointMassPolicy::new(ConstantPolicy::new(1));
        let tis = trajectory_is(&eps, &target);
        let pdis = per_decision_is(&eps, &target);
        assert!(
            pdis.std_err <= tis.std_err + 1e-9,
            "pdis se {} vs tis se {}",
            pdis.std_err,
            tis.std_err
        );
    }

    #[test]
    fn match_fraction_decays_exponentially() {
        // The paper's §5 coverage argument: "a uniform random load
        // balancing policy will almost never choose the same server twenty
        // times in a row."
        let eps = uniform_episodes(10_000, 12, 2, 4);
        let target = PointMassPolicy::new(ConstantPolicy::new(1));
        let profile = variance_profile(&eps, &target, 12);
        assert_eq!(profile.len(), 12);
        // Match fraction halves with each extra step (2 actions).
        assert!((profile[0].match_fraction - 0.5).abs() < 0.02);
        assert!((profile[3].match_fraction - 0.0625).abs() < 0.01);
        assert!(profile[11].match_fraction < 0.002);
        // Mean weight stays ~1 (likelihood ratio) while max weight explodes.
        assert!((profile[0].mean_weight - 1.0).abs() < 0.05);
        assert!(profile[7].max_weight >= 100.0);
        // ESS collapses.
        assert!(profile[0].effective_sample_size > 4000.0);
        assert!(profile[11].effective_sample_size < 50.0);
    }

    #[test]
    fn uniform_target_has_unit_weights() {
        let eps = uniform_episodes(100, 5, 3, 5);
        let profile = variance_profile(&eps, &UniformPolicy::new(), 5);
        for p in profile {
            assert!((p.mean_weight - 1.0).abs() < 1e-9);
            assert!((p.max_weight - 1.0).abs() < 1e-9);
            assert_eq!(p.match_fraction, 1.0);
        }
    }

    #[test]
    fn stochastic_target_partial_credit() {
        // Target = uniform: every logged trajectory matches with ratio 1,
        // so the estimate is just the mean return.
        let eps = uniform_episodes(10_000, 4, 2, 6);
        let mean_return: f64 =
            eps.iter().map(|e| e.episode_return()).sum::<f64>() / eps.len() as f64;
        let tis = trajectory_is(&eps, &UniformPolicy::new());
        assert!((tis.value - mean_return).abs() < 1e-9);
    }

    #[test]
    fn empty_episode_list_is_safe() {
        let eps: Vec<Episode<SimpleContext>> = Vec::new();
        let target = PointMassPolicy::new(ConstantPolicy::new(0));
        assert_eq!(trajectory_is(&eps, &target).n, 0);
        assert_eq!(per_decision_is(&eps, &target).n, 0);
        let zero = harvest_core::scorer::TableScorer::new(vec![0.0, 0.0]);
        assert_eq!(doubly_robust_pdis(&eps, &target, &zero).n, 0);
    }

    #[test]
    fn dr_pdis_with_zero_model_equals_pdis() {
        let eps = uniform_episodes(2_000, 4, 2, 11);
        let target = PointMassPolicy::new(ConstantPolicy::new(1));
        let zero = harvest_core::scorer::TableScorer::new(vec![0.0, 0.0]);
        let dr = doubly_robust_pdis(&eps, &target, &zero);
        let pdis = per_decision_is(&eps, &target);
        assert!((dr.value - pdis.value).abs() < 1e-9);
        assert!((dr.std_err - pdis.std_err).abs() < 1e-9);
    }

    #[test]
    fn dr_pdis_with_perfect_model_cuts_variance() {
        // Rewards are a deterministic function of the action (reward = a),
        // so the table model [0, 1] is exact: the residual terms vanish and
        // only the (lower-order) state-distribution weights w_{t-1}·V̂
        // remain. DR keeps the unbiased value with a fraction of PDIS's
        // standard error.
        let eps = uniform_episodes(20_000, 6, 2, 12);
        let target = PointMassPolicy::new(ConstantPolicy::new(1));
        let perfect = harvest_core::scorer::TableScorer::new(vec![0.0, 1.0]);
        let dr = doubly_robust_pdis(&eps, &target, &perfect);
        let pdis = per_decision_is(&eps, &target);
        // Truth: 6 steps of reward 1.
        assert!((dr.value - 6.0).abs() < 0.15, "dr {}", dr.value);
        assert!(
            dr.std_err < 0.8 * pdis.std_err,
            "dr se {} vs pdis se {}",
            dr.std_err,
            pdis.std_err
        );
    }

    #[test]
    fn dr_pdis_unbiased_with_imperfect_model() {
        let eps = uniform_episodes(100_000, 4, 2, 13);
        let target = PointMassPolicy::new(ConstantPolicy::new(1));
        // A biased model: thinks both actions pay 0.7.
        let rough = harvest_core::scorer::TableScorer::new(vec![0.7, 0.7]);
        let dr = doubly_robust_pdis(&eps, &target, &rough);
        assert!((dr.value - 4.0).abs() < 0.1, "dr {}", dr.value);
        // And still lower variance than plain PDIS.
        let pdis = per_decision_is(&eps, &target);
        assert!(
            dr.std_err < pdis.std_err,
            "dr se {} vs pdis se {}",
            dr.std_err,
            pdis.std_err
        );
    }

    #[test]
    fn dr_pdis_with_stochastic_target() {
        // Target = uniform: all weights are 1, so DR-PDIS = Σₜ V̂(xₜ) +
        // (rₜ − r̂(xₜ,aₜ)) — the model terms cancel the on-policy mean in
        // expectation, leaving an estimate statistically equal to the mean
        // return.
        let eps = uniform_episodes(20_000, 3, 2, 14);
        let mean_return: f64 =
            eps.iter().map(|e| e.episode_return()).sum::<f64>() / eps.len() as f64;
        let model = harvest_core::scorer::TableScorer::new(vec![0.3, 0.9]);
        let dr = doubly_robust_pdis(&eps, &UniformPolicy::new(), &model);
        assert!(
            (dr.value - mean_return).abs() < 0.02,
            "dr {} vs mean {mean_return}",
            dr.value
        );
    }

    #[test]
    fn weighted_pdis_matches_pdis_on_uniform_target() {
        // All ratios are 1, so per-step normalization divides by the
        // episode count: the estimate is the mean per-step reward summed
        // over steps = mean return.
        let eps = uniform_episodes(5_000, 3, 2, 21);
        let mean_return: f64 =
            eps.iter().map(|e| e.episode_return()).sum::<f64>() / eps.len() as f64;
        let wpdis = weighted_per_decision_is(&eps, &UniformPolicy::new());
        assert!((wpdis.value - mean_return).abs() < 1e-9);
        assert_eq!(wpdis.matched, eps.len());
    }

    #[test]
    fn weighted_pdis_is_bounded_on_long_horizons() {
        // Horizon 12 with a deterministic target: plain PDIS estimates from
        // the vanishing matched tail explode or zero out; the weighted
        // variant stays within the feasible return range [0, 12].
        let eps = uniform_episodes(10_000, 12, 2, 22);
        let target = PointMassPolicy::new(ConstantPolicy::new(1));
        let wpdis = weighted_per_decision_is(&eps, &target);
        assert!(
            (0.0..=12.0).contains(&wpdis.value),
            "wpdis {} out of feasible range",
            wpdis.value
        );
        // It should also land near the truth (12 × reward 1) for the
        // early, well-supported steps — allow generous slack for the deep
        // steps where support vanishes.
        assert!(wpdis.value > 6.0, "wpdis {}", wpdis.value);
    }

    #[test]
    fn weighted_pdis_empty_input() {
        let eps: Vec<Episode<SimpleContext>> = Vec::new();
        let target = PointMassPolicy::new(ConstantPolicy::new(0));
        let e = weighted_per_decision_is(&eps, &target);
        assert_eq!(e.n, 0);
        assert_eq!(e.value, 0.0);
    }

    #[test]
    fn variance_profile_of_no_episodes_reads_zero() {
        let eps: Vec<Episode<SimpleContext>> = Vec::new();
        let target = PointMassPolicy::new(ConstantPolicy::new(0));
        for (h, p) in variance_profile(&eps, &target, 3).into_iter().enumerate() {
            assert_eq!(
                p,
                WeightProfile {
                    horizon: h + 1,
                    mean_weight: 0.0,
                    max_weight: 0.0,
                    effective_sample_size: 0.0,
                    match_fraction: 0.0,
                }
            );
        }
    }
}
