//! Seeded inputs: contexts, the reward table, the incumbent policy, and
//! the portfolio candidates. Everything here is a pure function of the
//! `--seed` argument, generated before any timing starts.

use harvest_core::scorer::LinearScorer;
use harvest_core::SimpleContext;

/// Actions per decision.
pub const ACTIONS: usize = 8;
/// Shared context features per decision.
pub const FEATURES: usize = 32;
/// The service's exploration floor.
pub const EPSILON: f64 = 0.1;
/// Contexts per `decide_batch` call.
pub const BATCH: usize = 16;
/// A decision is rewarded this many of its caller's decisions after it
/// was made.
pub const REWARD_LAG: usize = 1024;
/// Logical nanoseconds between a caller's consecutive decisions.
pub const TICK_NS: u64 = 1_000;

/// SplitMix64: a small, fast, fully specified generator, so the inputs
/// never depend on a library's choice of algorithm.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

const STREAM_CONTEXTS: u64 = 1;
const STREAM_TRUTH: u64 = 2;
const STREAM_NOISE: u64 = 3;
const STREAM_INCUMBENT: u64 = 4;
const STREAM_CANDIDATES: u64 = 5;

/// 8 × 33 weights (32 features plus a bias) drawn uniformly in `±scale`.
fn random_weights(rng: &mut SplitMix64, scale: f64) -> Vec<Vec<f64>> {
    (0..ACTIONS)
        .map(|_| (0..=FEATURES).map(|_| scale * rng.next_signed()).collect())
        .collect()
}

fn linear(weights: &[f64], x: &[f64]) -> f64 {
    weights[0] + weights[1..].iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
}

/// One run's traffic: a context and a reward for every action of every
/// decision, plus the policies that serve and evaluate it.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub contexts: Vec<SimpleContext>,
    /// `rewards[i * ACTIONS + a]`: the reward decision `i` earns if it
    /// takes action `a`.
    pub rewards: Vec<f64>,
    /// The greedy linear incumbent promoted at set-up.
    pub incumbent: LinearScorer,
}

impl Inputs {
    /// Generates `decisions` decisions of traffic for `seed`.
    pub fn generate(seed: u64, decisions: usize) -> Inputs {
        let mut truth_rng = SplitMix64::new(seed, STREAM_TRUTH);
        let truth = random_weights(&mut truth_rng, 0.4);
        let mut ctx_rng = SplitMix64::new(seed, STREAM_CONTEXTS);
        let mut noise_rng = SplitMix64::new(seed, STREAM_NOISE);
        let mut contexts = Vec::with_capacity(decisions);
        let mut rewards = Vec::with_capacity(decisions * ACTIONS);
        for _ in 0..decisions {
            let x: Vec<f64> = (0..FEATURES).map(|_| ctx_rng.next_signed()).collect();
            for w in &truth {
                let z = linear(w, &x) + 0.5 * noise_rng.next_signed();
                rewards.push(1.0 / (1.0 + (-z).exp()));
            }
            contexts.push(SimpleContext::new(x, ACTIONS));
        }
        // The incumbent is the truth seen through noise: good, not perfect.
        let mut inc_rng = SplitMix64::new(seed, STREAM_INCUMBENT);
        let incumbent = truth
            .iter()
            .map(|w| w.iter().map(|v| v + 0.2 * inc_rng.next_signed()).collect())
            .collect();
        Inputs {
            contexts,
            rewards,
            incumbent: LinearScorer::PerAction { weights: incumbent },
        }
    }

    /// The reward decision `i` earns for `action`.
    pub fn reward(&self, i: usize, action: usize) -> f64 {
        self.rewards[i * ACTIONS + action]
    }
}

/// `k` greedy candidates spread around the incumbent, deterministic per
/// seed: the portfolio the replay scores.
pub fn candidate_scorers(seed: u64, incumbent: &LinearScorer, k: usize) -> Vec<LinearScorer> {
    let LinearScorer::PerAction { weights } = incumbent else {
        unreachable!("the incumbent is generated per action");
    };
    let mut rng = SplitMix64::new(seed, STREAM_CANDIDATES);
    (0..k)
        .map(|j| {
            // Candidate 0 is the incumbent itself; the rest drift further.
            let scale = 0.05 * j as f64;
            LinearScorer::PerAction {
                weights: weights
                    .iter()
                    .map(|w| w.iter().map(|v| v + scale * rng.next_signed()).collect())
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_generates_identical_inputs() {
        assert_eq!(Inputs::generate(7, 256), Inputs::generate(7, 256));
        let inc = Inputs::generate(7, 1).incumbent;
        assert_eq!(candidate_scorers(7, &inc, 4), candidate_scorers(7, &inc, 4));
    }

    #[test]
    fn different_seed_generates_different_inputs() {
        let (a, b) = (Inputs::generate(7, 256), Inputs::generate(8, 256));
        assert_ne!(a.contexts, b.contexts);
        assert_ne!(a.rewards, b.rewards);
        assert_ne!(a.incumbent, b.incumbent);
        assert_ne!(
            candidate_scorers(7, &a.incumbent, 4),
            candidate_scorers(8, &a.incumbent, 4)
        );
    }

    #[test]
    fn rewards_are_probabilities_for_every_action() {
        let inputs = Inputs::generate(3, 64);
        assert_eq!(inputs.rewards.len(), 64 * ACTIONS);
        assert!(inputs.rewards.iter().all(|r| (0.0..=1.0).contains(r)));
    }
}
