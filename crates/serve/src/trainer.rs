//! The background trainer and promotion gate.
//!
//! One training round is the paper's §3 loop in miniature: scavenge the
//! service's own decision log into exploration data ([`harvest_log`]), fit a
//! candidate reward model ([`harvest_core::learner::RegressionCbLearner`]),
//! then gate the candidate *as it would actually be served* — wrapped in the
//! same ε floor the engine applies — against the incumbent on the same
//! harvested data.
//!
//! The gate is deliberately asymmetric: the candidate must clear a
//! finite-sample **lower confidence bound** ([`empirical_bernstein_radius`])
//! above the incumbent's **point estimate**. A candidate that merely looks
//! good inside its own noise band is refused; only statistically-grounded
//! improvements reach the registry. This is what makes unattended continuous
//! promotion safe.
//!
//! Since the portfolio redesign, a round does not gate one candidate but a
//! whole **portfolio**: the fitted scorer plus a deterministic fan of tilted
//! variants, all scored in one pass over the harvested data by
//! [`PortfolioEvaluator`]. The winner by lower confidence bound (under the
//! configured [`GateEstimator`]) challenges the incumbent; the full ranked
//! leaderboard rides along on the [`TrainRound`] for export. Gate knobs —
//! portfolio size, LCB margin, minimum effective sample size, confidence
//! constants — live on [`GateConfig`].

use harvest_core::learner::{ModelingMode, RegressionCbLearner, SampleWeighting};
use harvest_core::policy::UniformPolicy;
use harvest_core::scorer::LinearScorer;
use harvest_core::{Dataset, HarvestError, Scorer, SimpleContext};
use harvest_estimators::bounds::{empirical_bernstein_radius, BoundConfig};
use harvest_estimators::{
    harvest_quality, Candidate, EvaluatorConfig, GreedyScorerCandidate, HarvestQuality,
    LeaderboardEntry, PolicyEstimate, PortfolioEvaluator, PortfolioReport,
};
use harvest_log::pipeline::{HarvestPipeline, HarvestReport};
use harvest_log::record::LogRecord;
use harvest_log::KnownPropensity;
use serde::Serialize;

use crate::registry::ServePolicy;

/// Which off-policy estimator the gate uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateEstimator {
    /// Self-normalized IPS: bounded by the observed reward range, no reward
    /// model needed.
    Snips,
    /// Doubly robust: uses the candidate's own reward model as the
    /// direct-method baseline; lower variance when the model is decent.
    Dr,
}

/// Promotion-gate configuration: how many candidates a round scores and what
/// the winner must clear to replace the incumbent.
///
/// Construct via [`GateConfig::builder`] or [`GateConfig::default`];
/// `#[non_exhaustive]`, so out-of-crate literal construction does not
/// compile.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct GateConfig {
    /// Candidates scored per round: the fitted scorer plus `portfolio − 1`
    /// deterministic tilted variants. Must be at least 1.
    pub portfolio: usize,
    /// The winner's LCB must exceed the incumbent's point estimate by this
    /// much. Zero restores the classic `lcb > incumbent` rule.
    pub lcb_margin: f64,
    /// Refuse to promote a winner whose effective sample size (Kish) on the
    /// harvested data is below this floor.
    pub min_ess: f64,
    /// Constants for the confidence radius.
    pub bound: BoundConfig,
    /// The gate's estimator.
    pub estimator: GateEstimator,
    /// Refuse to promote from fewer harvested samples than this.
    pub min_samples: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            portfolio: 16,
            lcb_margin: 0.0,
            min_ess: 0.0,
            bound: BoundConfig {
                c: 2.0,
                delta: 0.05,
            },
            estimator: GateEstimator::Snips,
            min_samples: 100,
        }
    }
}

impl GateConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> GateConfigBuilder {
        GateConfigBuilder(GateConfig::default())
    }
}

/// Builder for [`GateConfig`].
#[derive(Debug, Clone)]
pub struct GateConfigBuilder(GateConfig);

impl GateConfigBuilder {
    /// Candidates scored per round (fitted scorer included).
    pub fn portfolio(mut self, portfolio: usize) -> Self {
        self.0.portfolio = portfolio;
        self
    }

    /// How far above the incumbent the winner's LCB must land.
    pub fn lcb_margin(mut self, lcb_margin: f64) -> Self {
        self.0.lcb_margin = lcb_margin;
        self
    }

    /// Minimum effective sample size behind a promotable winner.
    pub fn min_ess(mut self, min_ess: f64) -> Self {
        self.0.min_ess = min_ess;
        self
    }

    /// Constants for the confidence radius.
    pub fn bound(mut self, bound: BoundConfig) -> Self {
        self.0.bound = bound;
        self
    }

    /// The gate's off-policy estimator.
    pub fn estimator(mut self, estimator: GateEstimator) -> Self {
        self.0.estimator = estimator;
        self
    }

    /// Refuse to promote from fewer harvested samples than this.
    pub fn min_samples(mut self, min_samples: usize) -> Self {
        self.0.min_samples = min_samples;
        self
    }

    /// Returns the config.
    ///
    /// # Panics
    ///
    /// Panics if `portfolio` is zero, or `lcb_margin` / `min_ess` are not
    /// finite and non-negative.
    pub fn build(self) -> GateConfig {
        assert!(self.0.portfolio >= 1, "portfolio must be at least 1");
        assert!(
            self.0.lcb_margin.is_finite() && self.0.lcb_margin >= 0.0,
            "lcb_margin must be finite and non-negative"
        );
        assert!(
            self.0.min_ess.is_finite() && self.0.min_ess >= 0.0,
            "min_ess must be finite and non-negative"
        );
        self.0
    }
}

/// Trainer and gate configuration.
///
/// Construct via [`TrainerConfig::builder`] or from
/// [`TrainerConfig::default`]; `#[non_exhaustive]`, so out-of-crate
/// literal construction no longer compiles. Gate knobs live on
/// [`GateConfig`] under [`TrainerConfig::gate`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TrainerConfig {
    /// The exploration floor the engine serves with; candidate and
    /// incumbent are both evaluated as served (ε-floored).
    pub epsilon: f64,
    /// Ridge regularizer for the candidate reward model.
    pub lambda: f64,
    /// How (context, action) pairs are featurized.
    pub modeling: ModelingMode,
    /// The promotion gate: portfolio size, margins, and confidence knobs.
    pub gate: GateConfig,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epsilon: 0.1,
            lambda: 1.0,
            modeling: ModelingMode::PerAction,
            gate: GateConfig::default(),
        }
    }
}

impl TrainerConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> TrainerConfigBuilder {
        TrainerConfigBuilder(TrainerConfig::default())
    }
}

/// Builder for [`TrainerConfig`].
#[derive(Debug, Clone)]
pub struct TrainerConfigBuilder(TrainerConfig);

impl TrainerConfigBuilder {
    /// The exploration floor candidates are evaluated under (should match
    /// the engine's ε).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.0.epsilon = epsilon;
        self
    }

    /// Ridge regularizer for the candidate reward model.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.0.lambda = lambda;
        self
    }

    /// How (context, action) pairs are featurized.
    pub fn modeling(mut self, modeling: ModelingMode) -> Self {
        self.0.modeling = modeling;
        self
    }

    /// The promotion gate's configuration.
    pub fn gate(mut self, gate: GateConfig) -> Self {
        self.0.gate = gate;
        self
    }

    /// Returns the config.
    pub fn build(self) -> TrainerConfig {
        self.0
    }
}

/// The gate's verdict, with everything needed to audit it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GateReport {
    /// Harvested samples the verdict rests on.
    pub n: usize,
    /// Candidates scored this round (1 for the single-candidate gate).
    pub portfolio: usize,
    /// Name of the portfolio winner the verdict is about.
    pub winner: String,
    /// The winner's effective sample size (Kish) on the harvested data.
    pub winner_ess: f64,
    /// Winner's as-served estimate.
    pub candidate_value: f64,
    /// The confidence radius subtracted from the winner.
    pub candidate_radius: f64,
    /// `candidate_value − candidate_radius`.
    pub candidate_lcb: f64,
    /// Incumbent's as-served point estimate on the same data.
    pub incumbent_value: f64,
    /// Whether the winner cleared the bar.
    pub promoted: bool,
    /// Why the gate ruled the way it did: `"promoted"`,
    /// `"insufficient_samples"`, `"below_min_ess"`, or
    /// `"lcb_not_above_incumbent"`.
    pub reason: String,
    /// Harvest-quality diagnostics (ESS, weight concentration, propensity
    /// floor hits, drift) over the winner's importance weights — the
    /// evidence behind the verdict, exported alongside it.
    pub quality: HarvestQuality,
}

/// One completed training round.
#[derive(Debug, Clone)]
pub struct TrainRound {
    /// The fitted candidate reward model (promoted or not).
    pub scorer: LinearScorer,
    /// The portfolio winner as it would be served — what the caller
    /// promotes when [`GateReport::promoted`] is set.
    pub winner_policy: ServePolicy,
    /// The full ranked leaderboard from the round's shadow evaluation.
    pub leaderboard: PortfolioReport,
    /// Scavenging provenance.
    pub harvest: HarvestReport,
    /// The gate's verdict.
    pub gate: GateReport,
}

/// Scavenges logs, trains candidates, and gates promotions.
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: TrainerConfig,
}

/// Per-policy single-pass evaluation: the as-served value, the per-sample
/// terms whose spread sets the confidence radius, and the importance
/// weights — all derived from **one** `served_probabilities` call per
/// record, shared by the estimate, the radius, and the quality gauges.
struct EstimateParts {
    value: f64,
    terms: Vec<f64>,
    weights: Vec<f64>,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `(0, 1]`, `lambda` is not positive,
    /// or the gate's portfolio is empty.
    pub fn new(cfg: TrainerConfig) -> Self {
        assert!(
            cfg.epsilon > 0.0 && cfg.epsilon <= 1.0,
            "epsilon must be in (0, 1]"
        );
        assert!(
            cfg.lambda.is_finite() && cfg.lambda > 0.0,
            "lambda must be positive"
        );
        assert!(cfg.gate.portfolio >= 1, "gate portfolio must be at least 1");
        Trainer { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Step 1–2: joins decisions with outcomes and validates propensities.
    /// The engine stamps exact propensities, so logged values are trusted;
    /// uniform is the fallback for records that somehow lack one.
    pub fn harvest(
        &self,
        records: &[LogRecord],
    ) -> Result<(Dataset<SimpleContext>, HarvestReport), HarvestError> {
        HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true).run(records)
    }

    /// Step 3: fits the candidate reward model from harvested data.
    pub fn train(&self, data: &Dataset<SimpleContext>) -> Result<LinearScorer, HarvestError> {
        RegressionCbLearner::new(self.cfg.modeling, SampleWeighting::Uniform, self.cfg.lambda)?
            .fit(data)
    }

    /// Step 4, single-candidate form: the classic promotion gate.
    ///
    /// Estimates both policies *as served* (ε-floored) on the same data and
    /// promotes only if the candidate's lower confidence bound clears the
    /// incumbent's point estimate by the configured margin (and the ESS
    /// floor holds).
    pub fn gate(
        &self,
        data: &Dataset<SimpleContext>,
        incumbent: &ServePolicy,
        candidate: &ServePolicy,
        model: &LinearScorer,
    ) -> GateReport {
        let cand = self.estimate(data, candidate, model);
        let incumbent_value = self.estimate(data, incumbent, model).value;
        let candidate_radius = radius_of(&self.cfg.gate.bound, &cand.terms);
        let quality = harvest_quality(data, &cand.weights, self.cfg.epsilon, WEIGHT_CLIP);
        let winner_ess = quality.effective_sample_size;
        self.verdict(
            data.len(),
            1,
            "candidate".to_string(),
            winner_ess,
            cand.value,
            candidate_radius,
            incumbent_value,
            quality,
        )
    }

    /// Step 4, portfolio form: shadow-evaluates the fitted scorer plus a
    /// deterministic fan of tilted variants in **one pass** over the
    /// harvested data, then gates the LCB-winner against the incumbent.
    ///
    /// Returns the verdict, the winner as a servable policy, and the full
    /// ranked leaderboard.
    pub fn portfolio_gate(
        &self,
        data: &Dataset<SimpleContext>,
        incumbent: &ServePolicy,
        fitted: &LinearScorer,
    ) -> (GateReport, ServePolicy, PortfolioReport) {
        let g = &self.cfg.gate;
        let named: Vec<(String, LinearScorer)> = (0..g.portfolio.max(1))
            .map(|j| {
                if j == 0 {
                    ("cb-fit".to_string(), fitted.clone())
                } else {
                    (format!("cb-tilt-{j:03}"), tilt_scorer(fitted, j))
                }
            })
            .collect();
        let evaluator = PortfolioEvaluator::builder()
            .config(
                EvaluatorConfig::builder()
                    .clip(WEIGHT_CLIP)
                    .bound(g.bound)
                    .build(),
            )
            .candidates(named.iter().map(|(name, s)| {
                Candidate::new(
                    name.clone(),
                    GreedyScorerCandidate::new(s.clone(), self.cfg.epsilon),
                )
            }))
            .model(fitted.clone())
            .build()
            .expect("portfolio has at least one candidate");
        let leaderboard = evaluator.evaluate_dataset(data);
        let pick = |e: &LeaderboardEntry| -> PolicyEstimate {
            match g.estimator {
                GateEstimator::Snips => e.snips,
                GateEstimator::Dr => e.dr,
            }
        };
        // Winner under the *configured* estimator's LCB; the leaderboard
        // itself stays ranked by SNIPS LCB. First-wins on exact ties keeps
        // the choice deterministic.
        let winner = leaderboard
            .entries
            .iter()
            .fold(None::<&LeaderboardEntry>, |best, e| match best {
                Some(b) if pick(e).lcb <= pick(b).lcb => Some(b),
                _ => Some(e),
            })
            .expect("portfolio is non-empty");
        let winner_est = pick(winner);
        let winner_scorer = named
            .iter()
            .find(|(n, _)| *n == winner.name)
            .map(|(_, s)| s.clone())
            .expect("winner came from this portfolio");
        let winner_policy = ServePolicy::Greedy(winner_scorer);
        let incumbent_value = self.estimate(data, incumbent, fitted).value;
        // One extra pass over the winner only — the quality gauges need the
        // full weight vector (percentiles, drift), not just the moments the
        // streaming accumulators kept.
        let weights = self.estimate(data, &winner_policy, fitted).weights;
        let quality = harvest_quality(data, &weights, self.cfg.epsilon, WEIGHT_CLIP);
        let report = self.verdict(
            data.len(),
            named.len(),
            winner.name.clone(),
            winner.ess,
            winner_est.point,
            winner_est.point - winner_est.lcb,
            incumbent_value,
            quality,
        );
        (report, winner_policy, leaderboard)
    }

    /// The shared promotion rule: enough samples, enough effective sample
    /// size, and an LCB clearing the incumbent by the margin.
    #[allow(clippy::too_many_arguments)]
    fn verdict(
        &self,
        n: usize,
        portfolio: usize,
        winner: String,
        winner_ess: f64,
        candidate_value: f64,
        candidate_radius: f64,
        incumbent_value: f64,
        quality: HarvestQuality,
    ) -> GateReport {
        let g = &self.cfg.gate;
        let candidate_lcb = candidate_value - candidate_radius;
        let enough = n >= g.min_samples;
        let ess_ok = winner_ess >= g.min_ess;
        let beats = candidate_lcb > incumbent_value + g.lcb_margin;
        let promoted = enough && ess_ok && beats;
        let reason = if promoted {
            "promoted"
        } else if !enough {
            "insufficient_samples"
        } else if !ess_ok {
            "below_min_ess"
        } else {
            "lcb_not_above_incumbent"
        };
        GateReport {
            n,
            portfolio,
            winner,
            winner_ess,
            candidate_value,
            candidate_radius,
            candidate_lcb,
            incumbent_value,
            promoted,
            reason: reason.to_string(),
            quality,
        }
    }

    /// Runs a full round: harvest → train → portfolio gate. Does **not**
    /// touch the registry; the caller promotes [`TrainRound::winner_policy`]
    /// iff `gate.promoted` (see [`DecisionService::train_and_maybe_promote`]).
    ///
    /// [`DecisionService::train_and_maybe_promote`]: crate::service::DecisionService::train_and_maybe_promote
    pub fn run_round(
        &self,
        records: &[LogRecord],
        incumbent: &ServePolicy,
    ) -> Result<TrainRound, HarvestError> {
        let (data, harvest) = self.harvest(records)?;
        let scorer = self.train(&data)?;
        let (gate, winner_policy, leaderboard) = self.portfolio_gate(&data, incumbent, &scorer);
        Ok(TrainRound {
            scorer,
            winner_policy,
            leaderboard,
            harvest,
            gate,
        })
    }

    /// The as-served estimate of `policy` on `data`, with per-sample terms
    /// and importance weights from a single pass.
    ///
    /// Targets here are stochastic (the served ε-floored distribution), so
    /// the importance weight is `π(aₜ|xₜ)/pₜ` rather than an indicator:
    ///
    /// * SNIPS: `Σ wₜ rₜ / Σ wₜ`, radius from the plain IPS terms `wₜ rₜ`
    ///   (a conservative proxy — SNIPS's own variance is never larger).
    /// * DR: `mean[ Σₐ π(a|xₜ) r̂(xₜ,a) + wₜ (rₜ − r̂(xₜ,aₜ)) ]`, radius
    ///   from exactly those terms.
    fn estimate(
        &self,
        data: &Dataset<SimpleContext>,
        policy: &ServePolicy,
        model: &LinearScorer,
    ) -> EstimateParts {
        let eps = self.cfg.epsilon;
        let mut terms = Vec::with_capacity(data.len());
        let mut weights = Vec::with_capacity(data.len());
        match self.cfg.gate.estimator {
            GateEstimator::Snips => {
                let mut num = 0.0;
                let mut den = 0.0;
                for s in data {
                    let probs = policy.served_probabilities(&s.context, eps);
                    let w = probs[s.action] / s.propensity;
                    num += w * s.reward;
                    den += w;
                    terms.push(w * s.reward);
                    weights.push(w);
                }
                let value = if den > 0.0 { num / den } else { 0.0 };
                EstimateParts {
                    value,
                    terms,
                    weights,
                }
            }
            GateEstimator::Dr => {
                let mut scores = Vec::new();
                for s in data {
                    let probs = policy.served_probabilities(&s.context, eps);
                    model.score_all(&s.context, &mut scores);
                    let baseline: f64 = probs.iter().zip(&scores).map(|(p, r)| p * r).sum();
                    let w = probs[s.action] / s.propensity;
                    let correction = w * (s.reward - scores[s.action]);
                    terms.push(baseline + correction);
                    weights.push(w);
                }
                let value = if terms.is_empty() {
                    0.0
                } else {
                    terms.iter().sum::<f64>() / terms.len() as f64
                };
                EstimateParts {
                    value,
                    terms,
                    weights,
                }
            }
        }
    }
}

/// Weight magnitude above which importance mass counts as "clipped" in the
/// harvest-quality gauges. Diagnostic only — the estimators themselves never
/// clip; this flags how much of the estimate rides on rare heavy weights.
const WEIGHT_CLIP: f64 = 10.0;

/// A deterministically tilted copy of `fitted` — candidate `j` of the
/// portfolio. The tilt is a fixed ±2% lattice over (variant, action, dim),
/// no RNG involved, so the portfolio (and everything downstream of it) is a
/// pure function of the fitted scorer.
fn tilt_scorer(fitted: &LinearScorer, j: usize) -> LinearScorer {
    const AMP: f64 = 0.02;
    let delta = |a: usize, d: usize| AMP * ((((j * 31 + a * 17 + d * 7) % 13) as f64 - 6.0) / 6.0);
    match fitted {
        LinearScorer::PerAction { weights } => LinearScorer::PerAction {
            weights: weights
                .iter()
                .enumerate()
                .map(|(a, w)| {
                    w.iter()
                        .enumerate()
                        .map(|(d, &v)| v + delta(a, d))
                        .collect()
                })
                .collect(),
        },
        LinearScorer::Pooled { weights } => LinearScorer::Pooled {
            weights: weights
                .iter()
                .enumerate()
                .map(|(d, &v)| v + delta(0, d))
                .collect(),
        },
    }
}

/// Empirical-Bernstein radius of the mean of `terms` (k = 1 candidate).
/// Degenerate inputs (n ≤ 1) get an infinite radius: never promote on them.
fn radius_of(bound: &BoundConfig, terms: &[f64]) -> f64 {
    let n = terms.len();
    if n <= 1 {
        return f64::INFINITY;
    }
    let mean = terms.iter().sum::<f64>() / n as f64;
    let var = terms.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let min = terms.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    empirical_bernstein_radius(bound, var, max - min, n as f64, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::LoggedDecision;
    use harvest_sim_net::rng::fork_rng;
    use rand::Rng;

    /// Uniform-logged data where action 0 pays `x` and action 1 pays
    /// `1 − x`: the crossing problem every learner in the workspace faces.
    fn crossing_data(n: usize, seed: u64) -> Dataset<SimpleContext> {
        let mut rng = fork_rng(seed, "trainer-test");
        let mut data = Dataset::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            let a = rng.gen_range(0..2usize);
            let r = if a == 0 { x } else { 1.0 - x };
            data.push(LoggedDecision {
                context: SimpleContext::new(vec![x], 2),
                action: a,
                reward: r,
                propensity: 0.5,
            })
            .unwrap();
        }
        data
    }

    /// φ is `[x, 1]`; these weights make action 0 score `x` and action 1
    /// score `1 − x` — the true reward, hence the optimal greedy policy.
    fn good_scorer() -> LinearScorer {
        LinearScorer::PerAction {
            weights: vec![vec![1.0, 0.0], vec![-1.0, 1.0]],
        }
    }

    /// The optimal policy inverted: picks the *worse* action everywhere.
    fn bad_scorer() -> LinearScorer {
        LinearScorer::PerAction {
            weights: vec![vec![-1.0, 1.0], vec![1.0, 0.0]],
        }
    }

    #[test]
    fn gate_accepts_a_clearly_better_candidate() {
        let data = crossing_data(4000, 1);
        let t = Trainer::new(TrainerConfig::default());
        let candidate = ServePolicy::Greedy(good_scorer());
        let report = t.gate(&data, &ServePolicy::Uniform, &candidate, &good_scorer());
        // Truth: candidate ≈ 0.75 (minus a little ε), incumbent = 0.5.
        assert!(report.promoted, "{report:?}");
        assert!(report.candidate_lcb > report.incumbent_value);
        assert!((report.incumbent_value - 0.5).abs() < 0.05, "{report:?}");
        assert_eq!(report.reason, "promoted");
        assert_eq!(report.portfolio, 1);
        assert_eq!(report.winner, "candidate");
        // Quality gauges ride along: uniform logging with a near-greedy
        // candidate halves the effective sample size, roughly.
        assert_eq!(report.quality.n, 4000);
        assert!(report.quality.effective_sample_size > 0.0);
        assert!(report.quality.ess_fraction <= 1.0 + 1e-12, "{report:?}");
        // The winner's ESS on the report is the same Kish statistic the
        // quality gauges compute.
        assert!((report.winner_ess - report.quality.effective_sample_size).abs() < 1e-9);
    }

    #[test]
    fn gate_refuses_a_degraded_candidate() {
        let data = crossing_data(4000, 2);
        let t = Trainer::new(TrainerConfig::default());
        let candidate = ServePolicy::Greedy(bad_scorer());
        let report = t.gate(&data, &ServePolicy::Uniform, &candidate, &bad_scorer());
        // Truth: candidate ≈ 0.25 < incumbent 0.5 — refused decisively.
        assert!(!report.promoted, "{report:?}");
        assert!(report.candidate_value < report.incumbent_value);
        assert_eq!(report.reason, "lcb_not_above_incumbent");
    }

    #[test]
    fn gate_refuses_on_too_few_samples() {
        let data = crossing_data(20, 3);
        let t = Trainer::new(TrainerConfig {
            gate: GateConfig {
                min_samples: 1000,
                ..GateConfig::default()
            },
            ..TrainerConfig::default()
        });
        let candidate = ServePolicy::Greedy(good_scorer());
        let report = t.gate(&data, &ServePolicy::Uniform, &candidate, &good_scorer());
        assert!(!report.promoted);
        assert_eq!(report.reason, "insufficient_samples");
    }

    #[test]
    fn gate_refuses_below_the_ess_floor() {
        let data = crossing_data(4000, 6);
        let t = Trainer::new(TrainerConfig {
            gate: GateConfig {
                min_ess: 1e9,
                ..GateConfig::default()
            },
            ..TrainerConfig::default()
        });
        let candidate = ServePolicy::Greedy(good_scorer());
        let report = t.gate(&data, &ServePolicy::Uniform, &candidate, &good_scorer());
        assert!(!report.promoted, "{report:?}");
        assert_eq!(report.reason, "below_min_ess");
    }

    #[test]
    fn lcb_margin_raises_the_bar() {
        let data = crossing_data(4000, 7);
        let t = Trainer::new(TrainerConfig {
            gate: GateConfig {
                lcb_margin: 10.0,
                ..GateConfig::default()
            },
            ..TrainerConfig::default()
        });
        let candidate = ServePolicy::Greedy(good_scorer());
        let report = t.gate(&data, &ServePolicy::Uniform, &candidate, &good_scorer());
        assert!(!report.promoted, "{report:?}");
        assert_eq!(report.reason, "lcb_not_above_incumbent");
    }

    #[test]
    fn dr_gate_agrees_on_the_easy_cases() {
        let data = crossing_data(4000, 4);
        let t = Trainer::new(TrainerConfig {
            gate: GateConfig {
                estimator: GateEstimator::Dr,
                ..GateConfig::default()
            },
            ..TrainerConfig::default()
        });
        let good = ServePolicy::Greedy(good_scorer());
        let bad = ServePolicy::Greedy(bad_scorer());
        assert!(
            t.gate(&data, &ServePolicy::Uniform, &good, &good_scorer())
                .promoted
        );
        assert!(
            !t.gate(&data, &ServePolicy::Uniform, &bad, &bad_scorer())
                .promoted
        );
    }

    fn crossing_records(n: u64, seed: u64) -> Vec<LogRecord> {
        use harvest_log::record::{DecisionRecord, OutcomeRecord};
        let mut rng = fork_rng(seed, "round-test");
        let mut records = Vec::new();
        for id in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            let a = rng.gen_range(0..2usize);
            records.push(LogRecord::Decision(DecisionRecord {
                request_id: id,
                timestamp_ns: id,
                component: "test".to_string(),
                shared_features: vec![x],
                action_features: None,
                num_actions: 2,
                action: a,
                propensity: Some(0.5),
                reward: None,
            }));
            records.push(LogRecord::Outcome(OutcomeRecord {
                request_id: id,
                timestamp_ns: id + 1,
                reward: if a == 0 { x } else { 1.0 - x },
            }));
        }
        records
    }

    #[test]
    fn run_round_learns_the_crossing_policy_from_raw_records() {
        let records = crossing_records(3000, 5);
        let t = Trainer::new(TrainerConfig {
            lambda: 1e-3,
            ..TrainerConfig::default()
        });
        let round = t.run_round(&records, &ServePolicy::Uniform).unwrap();
        assert_eq!(round.harvest.scavenge.joined, 3000);
        assert!(round.gate.promoted, "{:?}", round.gate);
        // The learned policy must pick the right side of the crossing.
        let pol = ServePolicy::Greedy(round.scorer);
        assert_eq!(
            pol.greedy_action(&SimpleContext::new(vec![0.9], 2)),
            Some(0)
        );
        assert_eq!(
            pol.greedy_action(&SimpleContext::new(vec![0.1], 2)),
            Some(1)
        );
        // And so must the portfolio winner that actually gets promoted.
        assert_eq!(
            round
                .winner_policy
                .greedy_action(&SimpleContext::new(vec![0.9], 2)),
            Some(0)
        );
        assert_eq!(
            round
                .winner_policy
                .greedy_action(&SimpleContext::new(vec![0.1], 2)),
            Some(1)
        );
    }

    #[test]
    fn run_round_scores_the_whole_portfolio() {
        let records = crossing_records(2000, 8);
        let t = Trainer::new(TrainerConfig {
            lambda: 1e-3,
            ..TrainerConfig::default()
        });
        let round = t.run_round(&records, &ServePolicy::Uniform).unwrap();
        // Default portfolio: the fitted scorer plus 15 tilts.
        assert_eq!(round.gate.portfolio, 16);
        assert_eq!(round.leaderboard.entries.len(), 16);
        assert_eq!(round.leaderboard.n, 2000);
        // Ranked by SNIPS LCB, ranks dense from 1.
        for (i, e) in round.leaderboard.entries.iter().enumerate() {
            assert_eq!(e.rank, i + 1);
            if i > 0 {
                let prev = round.leaderboard.entries[i - 1].snips.lcb;
                assert!(prev >= e.snips.lcb || prev.is_nan());
            }
        }
        // The winner the gate reports is on the leaderboard, and under the
        // default SNIPS estimator it is the top-ranked entry.
        assert_eq!(round.gate.winner, round.leaderboard.entries[0].name);
        // The tilts are small: every candidate still beats uniform on this
        // easy problem, so the whole board sits above the incumbent.
        assert!(round
            .leaderboard
            .entries
            .iter()
            .all(|e| e.snips.point > round.gate.incumbent_value - 0.05));
    }

    #[test]
    fn portfolio_gate_is_deterministic() {
        let data = crossing_data(1500, 9);
        let t = Trainer::new(TrainerConfig::default());
        let (g1, p1, l1) = t.portfolio_gate(&data, &ServePolicy::Uniform, &good_scorer());
        let (g2, p2, l2) = t.portfolio_gate(&data, &ServePolicy::Uniform, &good_scorer());
        assert_eq!(g1, g2);
        assert_eq!(l1.to_json(), l2.to_json());
        assert_eq!(
            p1.greedy_action(&SimpleContext::new(vec![0.5], 2)),
            p2.greedy_action(&SimpleContext::new(vec![0.5], 2))
        );
    }

    #[test]
    fn tilts_are_distinct_and_bounded() {
        let s = good_scorer();
        // j = 0 is reserved for the fitted scorer itself; tilts start at 1.
        assert_ne!(tilt_scorer(&s, 1), s);
        assert_ne!(tilt_scorer(&s, 1), tilt_scorer(&s, 2));
        // Tilts are bounded: no weight moves by more than the ±2% lattice.
        if let (LinearScorer::PerAction { weights: w0 }, LinearScorer::PerAction { weights: w1 }) =
            (&s, &tilt_scorer(&s, 3))
        {
            for (r0, r1) in w0.iter().zip(w1) {
                for (a, b) in r0.iter().zip(r1) {
                    assert!((a - b).abs() <= 0.02 + 1e-12);
                }
            }
        } else {
            panic!("expected PerAction");
        }
    }

    #[test]
    fn gate_builder_reaches_every_gate_field() {
        let cfg = TrainerConfig::builder()
            .gate(
                GateConfig::builder()
                    .bound(BoundConfig { c: 3.0, delta: 0.2 })
                    .estimator(GateEstimator::Dr)
                    .min_samples(42)
                    .portfolio(8)
                    .lcb_margin(0.01)
                    .min_ess(50.0)
                    .build(),
            )
            .build();
        assert_eq!(cfg.gate.bound.c, 3.0);
        assert_eq!(cfg.gate.bound.delta, 0.2);
        assert_eq!(cfg.gate.estimator, GateEstimator::Dr);
        assert_eq!(cfg.gate.min_samples, 42);
        assert_eq!(cfg.gate.portfolio, 8);
        assert_eq!(cfg.gate.lcb_margin, 0.01);
        assert_eq!(cfg.gate.min_ess, 50.0);
    }

    #[test]
    fn empty_terms_never_promote() {
        let t = Trainer::new(TrainerConfig {
            gate: GateConfig {
                min_samples: 0,
                ..GateConfig::default()
            },
            ..TrainerConfig::default()
        });
        let data = Dataset::new();
        let report = t.gate(
            &data,
            &ServePolicy::Uniform,
            &ServePolicy::Greedy(good_scorer()),
            &good_scorer(),
        );
        assert!(!report.promoted);
        assert_eq!(report.candidate_lcb, f64::NEG_INFINITY);
    }
}
