//! The background trainer and promotion gate.
//!
//! One training round is the paper's §3 loop in miniature: join the
//! service's own decision log in place, straight from its segment bytes
//! ([`SegmentJoin`]), fit a candidate reward model
//! ([`harvest_core::learner::RegressionCbLearner`]), then gate the
//! candidate *as it would actually be served* — wrapped in the same ε floor
//! the engine applies — against the incumbent on the same harvested
//! decisions.
//!
//! The gate is deliberately asymmetric: the candidate must clear a
//! finite-sample **lower confidence bound**
//! ([`empirical_bernstein_radius`](harvest_estimators::bounds::empirical_bernstein_radius))
//! above the incumbent's **point estimate**. A candidate that merely looks
//! good inside its own noise band is refused; only statistically-grounded
//! improvements reach the registry. This is what makes unattended continuous
//! promotion safe.
//!
//! Since the portfolio redesign, a round does not gate one candidate but a
//! whole **portfolio**: the fitted scorer plus a deterministic fan of tilted
//! variants, all scored in one pass over the round's [`SegmentJoin`] by
//! [`PortfolioEvaluator::evaluate_join`] — the fold
//! [`PortfolioEvaluator::evaluate_segments`] runs — so the log is scanned
//! once per round.
//! The winner by lower confidence bound (under the
//! configured [`GateEstimator`]) challenges the incumbent; the full ranked
//! leaderboard rides along on the [`TrainRound`] for export. The incumbent
//! is scored the same way, as a one-candidate pass, and the winner's
//! quality gauges come from the weight moments the main pass folded, so
//! every number the gate reads comes from the portfolio's accumulators.
//! Gate knobs — portfolio size, confidence constants, estimator, sample
//! floor — live on [`GateConfig`].

use harvest_core::learner::{FitAccumulator, ModelingMode, RegressionCbLearner, SampleWeighting};
use harvest_core::policy::UniformPolicy;
use harvest_core::scorer::LinearScorer;
use harvest_core::{HarvestError, LoggedDecision, SimpleContext};
use harvest_estimators::bounds::BoundConfig;
use harvest_estimators::{
    harvest_quality, portfolio::StochasticCandidate, Candidate, EvaluatorConfig,
    GreedyScorerCandidate, HarvestColumns, HarvestQuality, LeaderboardEntry, PolicyEstimate,
    PortfolioEvaluator, PortfolioReport,
};
use harvest_log::scavenge::SegmentJoin;
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
    /// Panics if `portfolio` is zero.
    pub fn build(self) -> GateConfig {
        assert!(self.0.portfolio >= 1, "portfolio must be at least 1");
        self.0
    }
}

/// Trainer and gate configuration.
///
/// Construct via [`TrainerConfig::builder`] or from
/// [`TrainerConfig::default`]; `#[non_exhaustive]`, so out-of-crate
/// literal construction no longer compiles. Gate knobs live on
/// [`GateConfig`] under [`TrainerConfig::gate`]. The exploration floor is
/// not here: it is the serving ε, passed to [`Trainer::new`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TrainerConfig {
    /// Ridge regularizer for the candidate reward model.
    pub lambda: f64,
    /// How (context, action) pairs are featurized.
    pub modeling: ModelingMode,
    /// The promotion gate: portfolio size, estimator, and confidence knobs.
    pub gate: GateConfig,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
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
    /// Candidates scored this round ([`GateConfig::portfolio`]).
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
    /// `"insufficient_samples"`, or `"lcb_not_above_incumbent"`.
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
    /// The request id of every decision the round trained and gated on, in
    /// log order.
    pub request_ids: Vec<u64>,
    /// The smallest and largest record stamp in the log the round read
    /// (`None` for a log with no records).
    pub stamps: Option<(u64, u64)>,
    /// The gate's verdict.
    pub gate: GateReport,
}

/// Scavenges logs, trains candidates, and gates promotions.
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: TrainerConfig,
    epsilon: f64,
}

impl Trainer {
    /// Creates a trainer that evaluates candidate and incumbent as served
    /// under the exploration floor `epsilon` — a
    /// [`DecisionService`](crate::service::DecisionService) passes its own
    /// [`EngineConfig::epsilon`](crate::engine::EngineConfig::epsilon).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `(0, 1]`, `lambda` is not positive,
    /// or the gate's portfolio is empty.
    pub fn new(cfg: TrainerConfig, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        assert!(
            cfg.lambda.is_finite() && cfg.lambda > 0.0,
            "lambda must be positive"
        );
        assert!(cfg.gate.portfolio >= 1, "gate portfolio must be at least 1");
        Trainer { cfg, epsilon }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// The exploration floor candidates are evaluated under.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// An empty ridge fit under the configured modeling mode and lambda.
    fn accumulator(&self) -> FitAccumulator {
        RegressionCbLearner::new(self.cfg.modeling, SampleWeighting::Uniform, self.cfg.lambda)
            .expect("Trainer::new checked lambda")
            .accumulator()
    }

    /// Step 3: fits the candidate reward model from the decisions the log's
    /// join keeps.
    pub fn train(&self, segments: &[Vec<u8>]) -> Result<LinearScorer, HarvestError> {
        let mut fit = self.accumulator();
        walk(&SegmentJoin::new(segments, 1), |_, d| {
            fit.push(d.context, d.action, d.reward, d.propensity)
        });
        fit.finish()
    }

    /// Step 4: shadow-evaluates the fitted scorer plus a
    /// deterministic fan of tilted variants in **one pass** over the log
    /// `segments`, then gates the LCB-winner against the incumbent, scored
    /// by a one-candidate pass under the same configuration.
    ///
    /// Returns the verdict, the winner as a servable policy, and the full
    /// ranked leaderboard.
    pub fn portfolio_gate(
        &self,
        segments: &[Vec<u8>],
        incumbent: &ServePolicy,
        fitted: &LinearScorer,
    ) -> (GateReport, ServePolicy, PortfolioReport) {
        let join = SegmentJoin::new(segments, 1);
        let mut columns = HarvestColumns::new(self.epsilon);
        walk(&join, |_, d| columns.push(d.context, d.propensity));
        self.gate(&join, columns, incumbent, fitted)
    }

    /// [`Self::portfolio_gate`] over a join already built, with the
    /// quality columns a walk of it gathered.
    fn gate(
        &self,
        join: &SegmentJoin<'_>,
        columns: HarvestColumns,
        incumbent: &ServePolicy,
        fitted: &LinearScorer,
    ) -> (GateReport, ServePolicy, PortfolioReport) {
        let g = &self.cfg.gate;
        let eps = self.epsilon;
        let evaluate = |candidates: Vec<Candidate>| {
            PortfolioEvaluator::builder()
                .config(
                    EvaluatorConfig::builder()
                        .clip(WEIGHT_CLIP)
                        .bound(g.bound)
                        .build(),
                )
                .candidates(candidates)
                .model(fitted.clone())
                .build()
                .expect("portfolio has at least one candidate")
                .evaluate_join(join)
                .0
        };
        let named: Vec<(String, LinearScorer)> = (0..g.portfolio.max(1))
            .map(|j| {
                if j == 0 {
                    ("cb-fit".to_string(), fitted.clone())
                } else {
                    (format!("cb-tilt-{j:03}"), tilt_scorer(fitted, j))
                }
            })
            .collect();
        let leaderboard = evaluate(
            named
                .iter()
                .map(|(name, s)| {
                    Candidate::new(name.clone(), GreedyScorerCandidate::new(s.clone(), eps))
                })
                .collect(),
        );
        let incumbent = match incumbent {
            ServePolicy::Uniform => {
                Candidate::new("incumbent", StochasticCandidate(UniformPolicy::new()))
            }
            ServePolicy::Greedy(s) => {
                Candidate::new("incumbent", GreedyScorerCandidate::new(s.clone(), eps))
            }
        };
        let pick = |e: &LeaderboardEntry| -> PolicyEstimate {
            match g.estimator {
                GateEstimator::Snips => e.snips,
                GateEstimator::Dr => e.dr,
            }
        };
        let incumbent_value = pick(&evaluate(vec![incumbent]).entries[0]).point;
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
        // The promotion rule: enough samples, and an LCB above the
        // incumbent.
        let n = leaderboard.n;
        let candidate_radius = winner_est.point - winner_est.lcb;
        let candidate_lcb = winner_est.point - candidate_radius;
        let enough = n >= g.min_samples;
        let promoted = enough && candidate_lcb > incumbent_value;
        let reason = if promoted {
            "promoted"
        } else if !enough {
            "insufficient_samples"
        } else {
            "lcb_not_above_incumbent"
        };
        let report = GateReport {
            n,
            portfolio: named.len(),
            winner: winner.name.clone(),
            winner_ess: winner.weights.ess(),
            candidate_value: winner_est.point,
            candidate_radius,
            candidate_lcb,
            incumbent_value,
            promoted,
            reason: reason.to_string(),
            quality: harvest_quality(columns, &winner.weights),
        };
        (report, ServePolicy::Greedy(winner_scorer), leaderboard)
    }

    /// Runs a full round over the log `segments`: their join is built
    /// once, one walk of it (steps 1–2, in segment order) feeds the ridge
    /// fit, the quality columns and the trained ids, then the portfolio
    /// gate scores the same join. The engine stamps exact propensities, so
    /// logged values are trusted; a decision logged without one was drawn
    /// uniformly. Does **not** touch the registry; the caller promotes
    /// [`TrainRound::winner_policy`] iff `gate.promoted` (see
    /// [`DecisionService::train_and_maybe_promote`]).
    ///
    /// [`DecisionService::train_and_maybe_promote`]: crate::service::DecisionService::train_and_maybe_promote
    pub fn run_round(
        &self,
        segments: &[Vec<u8>],
        incumbent: &ServePolicy,
    ) -> Result<TrainRound, HarvestError> {
        let join = SegmentJoin::new(segments, 1);
        let mut fit = self.accumulator();
        let mut columns = HarvestColumns::new(self.epsilon);
        let mut request_ids = Vec::new();
        walk(&join, |id, d| {
            fit.push(d.context, d.action, d.reward, d.propensity);
            columns.push(d.context, d.propensity);
            request_ids.push(id);
        });
        let scorer = fit.finish()?;
        let (gate, winner_policy, leaderboard) = self.gate(&join, columns, incumbent, &scorer);
        Ok(TrainRound {
            scorer,
            winner_policy,
            leaderboard,
            request_ids,
            stamps: join.stamps(),
            gate,
        })
    }
}

/// Visits every decision `join` keeps, segment by segment in log order.
fn walk(join: &SegmentJoin<'_>, mut visit: impl FnMut(u64, LoggedDecision<&SimpleContext>)) {
    let mut context = SimpleContext::contextless(1);
    for i in 0..join.segment_count() {
        join.replay(i, &mut context, &mut visit);
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

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::{Context, Dataset, LoggedDecision};
    use harvest_log::record::{DecisionRecord, LogRecord, OutcomeRecord};
    use harvest_log::segment::{MemorySegments, SegmentConfig, SegmentedLogWriter};
    use harvest_sim_net::rng::fork_rng;
    use rand::Rng;

    /// `records` written to a log that rotates every `max_records`.
    fn write_log(records: &[LogRecord], max_records: usize) -> Vec<Vec<u8>> {
        let cfg = SegmentConfig {
            max_records,
            max_bytes: usize::MAX,
            max_span_ns: u64::MAX,
        };
        let mut w = SegmentedLogWriter::new(MemorySegments::new(), cfg);
        for r in records {
            w.write(r).unwrap();
        }
        w.into_sink().unwrap().snapshot()
    }

    /// `data` logged as one segment: each sample a decision with its reward
    /// and propensity inline.
    fn one_segment(data: &Dataset<SimpleContext>) -> Vec<Vec<u8>> {
        let records: Vec<LogRecord> = data
            .iter()
            .zip(0u64..)
            .map(|(s, id)| {
                LogRecord::Decision(DecisionRecord {
                    request_id: id,
                    timestamp_ns: id,
                    component: "trainer-test".to_string(),
                    shared_features: s.context.shared_features().to_vec(),
                    action_features: None,
                    num_actions: s.context.num_actions(),
                    action: s.action,
                    propensity: Some(s.propensity),
                    reward: Some(s.reward),
                })
            })
            .collect();
        let log = write_log(&records, usize::MAX);
        assert!(log.len() <= 1, "one segment");
        log
    }

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

    /// A trainer whose gate scores a single candidate — the scorer it is
    /// handed, untilted — under `gate`'s other knobs, at ε = 0.1.
    fn single_candidate(gate: GateConfigBuilder) -> Trainer {
        Trainer::new(
            TrainerConfig::builder()
                .gate(gate.portfolio(1).build())
                .build(),
            0.1,
        )
    }

    /// The verdict on `scorer` as served, against the uniform incumbent.
    fn verdict(t: &Trainer, data: &Dataset<SimpleContext>, scorer: LinearScorer) -> GateReport {
        t.portfolio_gate(&one_segment(data), &ServePolicy::Uniform, &scorer)
            .0
    }

    #[test]
    fn gate_accepts_a_clearly_better_candidate() {
        let data = crossing_data(4000, 1);
        let t = single_candidate(GateConfig::builder());
        let report = verdict(&t, &data, good_scorer());
        // Truth: candidate ≈ 0.75 (minus a little ε), incumbent = 0.5.
        assert!(report.promoted, "{report:?}");
        assert!(report.candidate_lcb > report.incumbent_value);
        assert!((report.incumbent_value - 0.5).abs() < 0.05, "{report:?}");
        assert_eq!(report.reason, "promoted");
        assert_eq!(report.portfolio, 1);
        assert_eq!(report.winner, "cb-fit");
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
        let t = single_candidate(GateConfig::builder());
        let report = verdict(&t, &data, bad_scorer());
        // Truth: candidate ≈ 0.25 < incumbent 0.5 — refused decisively.
        assert!(!report.promoted, "{report:?}");
        assert!(report.candidate_value < report.incumbent_value);
        assert_eq!(report.reason, "lcb_not_above_incumbent");
    }

    #[test]
    fn gate_refuses_on_too_few_samples() {
        let data = crossing_data(20, 3);
        let t = single_candidate(GateConfig::builder().min_samples(1000));
        let report = verdict(&t, &data, good_scorer());
        assert!(!report.promoted);
        assert_eq!(report.reason, "insufficient_samples");
    }

    #[test]
    fn dr_gate_agrees_on_the_easy_cases() {
        let data = crossing_data(4000, 4);
        let t = single_candidate(GateConfig::builder().estimator(GateEstimator::Dr));
        assert!(verdict(&t, &data, good_scorer()).promoted);
        assert!(!verdict(&t, &data, bad_scorer()).promoted);
    }

    /// Uniform-logged crossing decisions, each followed by its outcome.
    fn crossing_records(n: u64, seed: u64) -> Vec<LogRecord> {
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
        let log = write_log(&crossing_records(3000, 5), 1024);
        let t = Trainer::new(
            TrainerConfig {
                lambda: 1e-3,
                ..TrainerConfig::default()
            },
            0.1,
        );
        let round = t.run_round(&log, &ServePolicy::Uniform).unwrap();
        assert_eq!(round.request_ids, (0..3000).collect::<Vec<u64>>());
        assert_eq!(round.gate.n, 3000);
        assert_eq!(round.stamps, Some((0, 3000)));
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
        let log = write_log(&crossing_records(2000, 8), 1024);
        let t = Trainer::new(
            TrainerConfig {
                lambda: 1e-3,
                ..TrainerConfig::default()
            },
            0.1,
        );
        let round = t.run_round(&log, &ServePolicy::Uniform).unwrap();
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
    fn the_round_scores_the_log_as_evaluate_segments_does() {
        // Rotation every 97 records splits decisions from their outcomes
        // across segment boundaries.
        let log = write_log(&crossing_records(1500, 10), 97);
        assert!(log.len() > 10);
        let t = Trainer::new(TrainerConfig::default(), 0.1);
        let round = t.run_round(&log, &ServePolicy::Uniform).unwrap();
        let g = &t.config().gate;
        let candidates = (0..g.portfolio).map(|j| {
            let (name, scorer) = if j == 0 {
                ("cb-fit".to_string(), round.scorer.clone())
            } else {
                (format!("cb-tilt-{j:03}"), tilt_scorer(&round.scorer, j))
            };
            Candidate::new(name, GreedyScorerCandidate::new(scorer, t.epsilon()))
        });
        let (direct, _) = PortfolioEvaluator::builder()
            .config(
                EvaluatorConfig::builder()
                    .clip(WEIGHT_CLIP)
                    .bound(g.bound)
                    .build(),
            )
            .candidates(candidates)
            .model(round.scorer.clone())
            .build()
            .unwrap()
            .evaluate_segments(&log);
        assert_eq!(round.leaderboard.to_json(), direct.to_json());
        assert_eq!(round.gate.n, 1500);
    }

    #[test]
    fn portfolio_gate_is_deterministic() {
        let data = one_segment(&crossing_data(1500, 9));
        let t = Trainer::new(TrainerConfig::default(), 0.1);
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
                    .build(),
            )
            .build();
        assert_eq!(cfg.gate.bound.c, 3.0);
        assert_eq!(cfg.gate.bound.delta, 0.2);
        assert_eq!(cfg.gate.estimator, GateEstimator::Dr);
        assert_eq!(cfg.gate.min_samples, 42);
        assert_eq!(cfg.gate.portfolio, 8);
    }

    /// The greedy incumbent the pinned gates run against.
    fn greedy_incumbent() -> ServePolicy {
        ServePolicy::Greedy(LinearScorer::PerAction {
            weights: vec![
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.3, 0.3, 0.1],
            ],
        })
    }

    /// Three-action data logged the way the service logs after a
    /// promotion: ε-greedy (ε = 0.1) over the incumbent, so propensities
    /// are `0.1/3 + 0.9` on its greedy arm and `0.1/3` elsewhere.
    fn served_data(n: usize, seed: u64) -> Dataset<SimpleContext> {
        let mut rng = fork_rng(seed, "trainer-pinned");
        let mut data = Dataset::new();
        for _ in 0..n {
            let x: [f64; 2] = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let context = SimpleContext::new(x.to_vec(), 3);
            let probs = greedy_incumbent().served_probabilities(&context, 0.1);
            let u: f64 = rng.gen_range(0.0..1.0);
            let action = if u < probs[0] {
                0
            } else if u < probs[0] + probs[1] {
                1
            } else {
                2
            };
            let reward = [x[0], 1.0 - x[1], 0.5 * (x[0] + x[1])][action] + rng.gen_range(-0.1..0.1);
            let propensity = probs[action];
            data.push(LoggedDecision {
                context,
                action,
                reward,
                propensity,
            })
            .unwrap();
        }
        data
    }

    /// Every gate report field, floats as raw bits.
    fn report_bits(r: &GateReport) -> String {
        let q = &r.quality;
        let floats = [
            r.winner_ess,
            r.candidate_value,
            r.candidate_radius,
            r.candidate_lcb,
            r.incumbent_value,
            q.effective_sample_size,
            q.ess_fraction,
            q.min_weight,
            q.max_weight,
            q.clipped_weight_mass,
            q.floor_hit_rate,
            q.drift_max_effect_size,
            q.drift_max_ks,
        ];
        let (flags, bits) = (
            (r.promoted, q.n, q.drift_suspected),
            floats.map(f64::to_bits),
        );
        format!(
            "{} {} {} {} {flags:?} {bits:x?}",
            r.n, r.portfolio, r.winner, r.reason
        )
    }

    /// Gate reports on fixed data, captured before the gate read its numbers
    /// from the portfolio accumulators: SNIPS and DR against the greedy
    /// incumbent, then SNIPS against the uniform one.
    const PINNED: [&str; 3] = [
        "1200 16 cb-tilt-006 lcb_not_above_incumbent (false, 1200, false) [40530203ee26e663, 3fe6e0461b7c375d, 3fea55a605df7fbb, bfbbaaff531a42f0, 3fded87c3f8b743a, 40530203ee26e663, 3fb03855461a5e32, 3fa2492492492492, 403c000000000000, 3fe21d12065bb4c6, 3fb2c5f92c5f92c6, 3f7b50937ac1cbae, 3fb1111111111110]",
        "1200 16 cb-tilt-012 promoted (true, 1200, false) [40530bfd7b2b0060, 3fe697705ccfe6ae, 3fc0544bcbae79fc, 3fe2825d69e4482f, 3fdee4c583b4f914, 40530bfd7b2b0060, 3fb040d84dcbf2ab, 3fa2492492492492, 403c000000000000, 3fe276b981dae5fc, 3fb2c5f92c5f92c6, 3f7b50937ac1cbae, 3fb1111111111110]",
        "1200 16 cb-tilt-006 lcb_not_above_incumbent (false, 1200, false) [40530203ee26e663, 3fe6e0461b7c375d, 3fea55a605df7fbb, bfbbaaff531a42f0, 3fe0523e602792fe, 40530203ee26e663, 3fb03855461a5e32, 3fa2492492492492, 403c000000000000, 3fe21d12065bb4c6, 3fb2c5f92c5f92c6, 3f7b50937ac1cbae, 3fb1111111111110]",
    ];

    #[test]
    fn gate_reports_are_pinned_bit_for_bit() {
        let data = one_segment(&served_data(1200, 21));
        let cases = [
            (GateEstimator::Snips, greedy_incumbent()),
            (GateEstimator::Dr, greedy_incumbent()),
            (GateEstimator::Snips, ServePolicy::Uniform),
        ];
        let got = cases.map(|(estimator, incumbent)| {
            let gate = GateConfig::builder().estimator(estimator).build();
            let t = Trainer::new(TrainerConfig::builder().gate(gate).build(), 0.1);
            let fitted = t.train(&data).unwrap();
            report_bits(&t.portfolio_gate(&data, &incumbent, &fitted).0)
        });
        assert_eq!(got, PINNED);
    }

    #[test]
    fn empty_terms_never_promote() {
        let t = single_candidate(GateConfig::builder().min_samples(0));
        let report = t
            .portfolio_gate(&[], &ServePolicy::Uniform, &good_scorer())
            .0;
        assert!(!report.promoted, "{report:?}");
    }
}
