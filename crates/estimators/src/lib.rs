//! Off-policy estimators and evaluation harness.
//!
//! Implements §4 of *Harvesting Randomness to Optimize Distributed Systems*
//! (HotNets'17): estimating a candidate policy's average reward from
//! exploration data `⟨x, a, r, p⟩` logged by a different (randomized)
//! policy, without deploying the candidate.
//!
//! Estimators:
//!
//! * [`ips`] — inverse propensity scoring (Horvitz–Thompson), the paper's
//!   Eq. before (1): unbiased, possibly high variance. Includes a clipped
//!   variant. Its terms `r · min(w, clip)` are the portfolio's.
//! * [`snips`] — self-normalized IPS: biased but lower variance, bounded by
//!   the observed reward range; `Σ w·r / Σ w` over the portfolio's terms.
//! * [`direct`] — the direct method: plug in a reward model `r̂(x, a)`.
//!   Biased when the model is wrong.
//! * [`dr`] — doubly robust: model plus IPS correction (Dudík–Langford–Li),
//!   the paper's §5 plan for variance reduction; the portfolio's DR terms
//!   with the model's score of the policy's action as baseline.
//! * [`trajectory`] — per-trajectory and per-decision importance sampling
//!   over episodes, the paper's §5 route to "estimators that account for
//!   long-term effects" (and a demonstration of their variance blow-up).
//!
//! Supporting pieces:
//!
//! * [`bounds`] — the finite-sample guarantees of Eq. 1 and the A/B-testing
//!   counterpart, used to regenerate Figs. 1 and 2.
//! * [`ab`] — a simulated A/B test that splits data across policies, the
//!   baseline CB is measured against.
//! * [`evaluator`] — the single-policy entry point over IPS, clipped IPS,
//!   SNIPS and DR, with bootstrap confidence intervals and data
//!   diagnostics (match rate, effective sample size). Each call is a
//!   one-candidate fold over the portfolio's accumulators, so the paper
//!   figures and the promotion gate score with one set of formulas.
//! * [`portfolio`] — the streaming portfolio evaluator and the one policy
//!   search ("optimize over a large class of policies" §1): one pass over
//!   recovered segment logs scores 100+ candidate policies in parallel,
//!   byte-identical at any worker count.
//! * [`drift`] — context-drift detection (standardized mean shifts and KS
//!   distances), the operational tripwire for assumption-A1 violations.
//!
//! Every estimate and weight gauge comes out of one streaming accumulator
//! of per-record terms (count, `Σt`, `Σt²`, range): the portfolio's IPS,
//! SNIPS and DR terms, the importance weights behind [`WeightStats`]' ESS
//! and clipped mass, and the terms of the direct method, each A/B arm and
//! the trajectory estimators. Each value is the in-order `Σt/n` of its
//! terms, and its standard error is read from `Σt²`. Weighted PDIS, which
//! normalizes per step rather than averaging per-episode terms, is the one
//! estimate outside it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod bounds;
pub mod diagnostics;
pub mod direct;
pub mod dr;
pub mod drift;
pub mod evaluator;
pub mod ips;
pub mod portfolio;
pub mod snips;
pub mod trajectory;

mod estimate;
mod fold;

pub use diagnostics::{harvest_quality, HarvestColumns, HarvestQuality, WeightStats};
pub use estimate::Estimate;
pub use evaluator::{EstimatorKind, OffPolicyEvaluator};
pub use portfolio::{
    Candidate, EvaluatorConfig, GreedyScorerCandidate, LeaderboardEntry, PolicyEstimate,
    PortfolioEvaluator, PortfolioReport,
};
