//! Portfolio shadow evaluation: score 100+ candidate policies in one
//! pass over recovered segment logs.
//!
//! The paper's promise is that one run's harvested exploration data
//! answers *many* counterfactual questions at once — the Multiworld
//! Testing loop. This module is that loop's evaluator: a streaming
//! one-pass engine that reads each log segment once and maintains `k`
//! parallel estimator accumulators (IPS, SNIPS, and DR, each with an
//! empirical-Bernstein confidence interval simultaneously valid across
//! the whole portfolio) for every candidate policy.
//!
//! # One-pass accumulator layout
//!
//! Per record, the expensive shared work happens once: the outcome join,
//! context reconstruction, and the reward-model scores `r̂(x, a)` for each
//! action. Per candidate, the importance weight `w = π(aₜ|xₜ)/pₜ` is
//! computed **once** and folded into a handful of running sums: one set of
//! weight moments ([`crate::diagnostics::WeightStats`]) shared by the
//! candidate's three estimators, plus each estimator's term moments.
//!
//! Nothing per decision is buffered, and with greedy candidates nothing
//! per decision is allocated (a [`StochasticCandidate`] still builds its
//! distribution). Decisions are read in place from the segment bytes
//! ([`harvest_log::codec::RecordRef`]), each one's features are decoded
//! into one context a worker reuses, and the greedy candidates and the DR
//! model score through a feature-major [`ActionPanel`]. Memory is `k`
//! accumulator banks per segment plus a reward per outcome, never the
//! decisions themselves.
//!
//! # Three phases, parallel ≡ sequential, byte for byte
//!
//! 1. **Scan** and 2. **join map**: [`SegmentJoin`] checks every
//!    segment's frames (in parallel), then builds the cross-segment
//!    `request_id → reward` map in segment order. This is the same join the
//!    serve trainer reads, so the two agree on which decisions count and
//!    what reward each one has.
//! 3. **Fold** (parallel, per segment): [`SegmentJoin::replay`] walks each
//!    validated prefix again, and every decision it keeps is folded into
//!    that segment's accumulators.
//!
//! The merge then folds per-segment accumulators **in segment-index
//! order**, so the only thing parallelism changes is *which thread*
//! computes each partial, never the order of any floating-point addition.
//! Same segments, same seed ⇒ byte-identical estimates and leaderboard
//! JSON at any worker count.

use harvest_core::scorer::{ActionPanel, LinearScorer};
use harvest_core::{
    Context, HarvestError, LoggedDecision, Scorer, SimpleContext, StochasticPolicy,
};
use harvest_log::scavenge::SegmentJoin;
use harvest_log::segment::RecoveryStats;
use serde::{Serialize, Value};

use crate::bounds::{empirical_bernstein_radius, BoundConfig};
use crate::diagnostics::WeightStats;

/// A point estimate with its simultaneous confidence interval and the
/// sample-support diagnostics a promotion decision needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PolicyEstimate {
    /// The estimator's point value.
    pub point: f64,
    /// Lower confidence bound (`point − radius`; `−∞` when `n ≤ 1`).
    pub lcb: f64,
    /// Upper confidence bound (`point + radius`; `+∞` when `n ≤ 1`).
    pub ucb: f64,
    /// Kish effective sample size of this candidate's importance weights.
    pub ess: f64,
    /// Records observed.
    pub n: u64,
}

/// Streaming moments of the per-record estimator terms, enough for the
/// empirical-Bernstein radius: count, sum, sum of squares, range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct TermMoments {
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl TermMoments {
    fn new() -> Self {
        TermMoments {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, t: f64) {
        self.n += 1;
        self.sum += t;
        self.sum_sq += t * t;
        self.min = self.min.min(t);
        self.max = self.max.max(t);
    }

    fn merge(&mut self, other: &TermMoments) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn mean(&self) -> f64 {
        if self.n > 0 {
            self.sum / self.n as f64
        } else {
            0.0
        }
    }

    /// Bernstein radius around [`Self::mean`] at the config's δ,
    /// simultaneously valid for `k` candidates; `∞` when `n ≤ 1`.
    fn radius(&self, bound: &BoundConfig, k: f64) -> f64 {
        if self.n <= 1 {
            return f64::INFINITY;
        }
        let n = self.n as f64;
        // Sample variance from the streaming moments, floored at zero
        // against cancellation noise.
        let var = ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0);
        empirical_bernstein_radius(bound, var, self.max - self.min, n, k)
    }
}

/// One candidate's accumulators over a record range: the per-record terms
/// of its three estimators and the importance-weight moments they share.
/// Partials merge in a fixed order, so a fixed partition of the records
/// gives the same estimates whichever thread folded each partial.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CandidateState {
    /// Clipped IPS terms `r · min(w, clip)`.
    ips: TermMoments,
    /// SNIPS terms `w · r`; the estimate divides their sum by `Σ w`.
    snips: TermMoments,
    /// Doubly-robust terms `Σₐ π(a|x) r̂(x,a) + w (r − r̂(x, aₜ))`.
    dr: TermMoments,
    weights: WeightStats,
}

impl CandidateState {
    fn new(clip: f64) -> Self {
        CandidateState {
            ips: TermMoments::new(),
            snips: TermMoments::new(),
            dr: TermMoments::new(),
            weights: WeightStats::new(clip),
        }
    }

    /// Folds one record: its reward, its importance weight `π(aₜ|xₜ)/pₜ`
    /// (uncapped), the model baseline `Σₐ π(a|xₜ) r̂(xₜ, a)` and the model's
    /// score for the logged action (both 0 without a model).
    fn observe(&mut self, reward: f64, weight: f64, baseline: f64, model_logged: f64) {
        self.ips.observe(reward * weight.min(self.weights.clip));
        self.snips.observe(reward * weight);
        self.dr.observe(baseline + weight * (reward - model_logged));
        self.weights.observe(weight);
    }

    /// Merges the partial over the next record range.
    fn merge(&mut self, other: &Self) {
        self.ips.merge(&other.ips);
        self.snips.merge(&other.snips);
        self.dr.merge(&other.dr);
        self.weights.merge(&other.weights);
    }

    /// The IPS, SNIPS and DR estimates, each interval simultaneously valid
    /// for `k` candidates.
    fn estimates(&self, bound: &BoundConfig, k: f64) -> [PolicyEstimate; 3] {
        let estimate = |terms: &TermMoments, point: f64| {
            let radius = terms.radius(bound, k);
            PolicyEstimate {
                point,
                lcb: point - radius,
                ucb: point + radius,
                ess: self.weights.ess(),
                n: terms.n,
            }
        };
        let snips = if self.weights.sum > 0.0 {
            self.snips.sum / self.weights.sum
        } else {
            0.0
        };
        [
            estimate(&self.ips, self.ips.mean()),
            estimate(&self.snips, snips),
            estimate(&self.dr, self.dr.mean()),
        ]
    }
}

/// A candidate decision rule the portfolio can score: fills the action
/// distribution it would serve for a context into a caller-owned buffer
/// (so the hot loop over 100+ candidates never allocates).
pub trait CandidatePolicy: Send + Sync {
    /// Writes `π(a|ctx)` for every action into `out` (cleared first).
    fn fill_probabilities(&self, ctx: &SimpleContext, out: &mut Vec<f64>);
}

/// Adapts any thread-safe [`StochasticPolicy`] over [`SimpleContext`]
/// into a portfolio candidate: `StochasticCandidate(UniformPolicy::new())`
/// scores the do-nothing incumbent, softmax and ε-greedy policies ride
/// along the same way.
#[derive(Debug, Clone)]
pub struct StochasticCandidate<P>(pub P);

impl<P: StochasticPolicy<SimpleContext> + Send + Sync> CandidatePolicy for StochasticCandidate<P> {
    fn fill_probabilities(&self, ctx: &SimpleContext, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.0.action_probabilities(ctx));
    }
}

/// ε-greedy over a linear scorer — the candidate shape the serve
/// trainer's portfolio uses. Fills probabilities without allocating:
/// `ε/K` everywhere plus `1 − ε` on the scorer's argmax (first action
/// wins ties, matching the serving path), found through the scorer's
/// [`ActionPanel`].
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyScorerCandidate {
    panel: ActionPanel,
    epsilon: f64,
}

impl GreedyScorerCandidate {
    /// A candidate serving `scorer` greedily under an `epsilon` floor.
    pub fn new(scorer: LinearScorer, epsilon: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "epsilon must be in [0, 1], got {epsilon}"
        );
        GreedyScorerCandidate {
            panel: ActionPanel::new(scorer),
            epsilon,
        }
    }

    /// The scorer this candidate serves.
    pub fn scorer(&self) -> &LinearScorer {
        self.panel.scorer()
    }
}

/// Serializes as `{scorer, epsilon}`: the panel is derived from the scorer.
impl Serialize for GreedyScorerCandidate {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("scorer".to_string(), self.scorer().to_value()),
            ("epsilon".to_string(), self.epsilon.to_value()),
        ])
    }
}

impl CandidatePolicy for GreedyScorerCandidate {
    fn fill_probabilities(&self, ctx: &SimpleContext, out: &mut Vec<f64>) {
        let k = ctx.num_actions();
        out.clear();
        out.resize(k, self.epsilon / k as f64);
        out[self.panel.greedy_action(ctx)] += 1.0 - self.epsilon;
    }
}

/// A named portfolio member.
pub struct Candidate {
    name: String,
    policy: Box<dyn CandidatePolicy>,
}

impl Candidate {
    /// Wraps `policy` under a leaderboard `name`.
    pub fn new(name: impl Into<String>, policy: impl CandidatePolicy + 'static) -> Self {
        Candidate {
            name: name.into(),
            policy: Box::new(policy),
        }
    }

    /// The leaderboard name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate")
            .field("name", &self.name)
            .finish()
    }
}

/// How the evaluator clips, bounds, and parallelizes.
///
/// `#[non_exhaustive]`: construct through [`EvaluatorConfig::builder`].
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EvaluatorConfig {
    /// Importance-weight cap for the IPS terms and the threshold the
    /// clipped-mass diagnostic counts against.
    pub clip: f64,
    /// Empirical-Bernstein bound parameters (the CI's δ lives here).
    pub bound: BoundConfig,
    /// Worker threads for the per-segment scavenge. `1` runs inline;
    /// results are byte-identical at any setting.
    pub parallelism: usize,
}

impl Default for EvaluatorConfig {
    fn default() -> Self {
        EvaluatorConfig {
            clip: 10.0,
            bound: BoundConfig {
                c: 2.0,
                delta: 0.05,
            },
            parallelism: 1,
        }
    }
}

impl EvaluatorConfig {
    /// A builder starting from the defaults (clip 10, δ = 0.05,
    /// sequential).
    pub fn builder() -> EvaluatorConfigBuilder {
        EvaluatorConfigBuilder {
            cfg: EvaluatorConfig::default(),
        }
    }
}

/// Builder for [`EvaluatorConfig`].
#[derive(Debug, Clone)]
pub struct EvaluatorConfigBuilder {
    cfg: EvaluatorConfig,
}

impl EvaluatorConfigBuilder {
    /// Importance-weight cap (must be positive).
    pub fn clip(mut self, clip: f64) -> Self {
        self.cfg.clip = clip;
        self
    }

    /// Confidence level δ for the per-candidate CIs.
    pub fn delta(mut self, delta: f64) -> Self {
        self.cfg.bound.delta = delta;
        self
    }

    /// Full bound configuration (overrides [`Self::delta`]).
    pub fn bound(mut self, bound: BoundConfig) -> Self {
        self.cfg.bound = bound;
        self
    }

    /// Worker threads for the per-segment scavenge (min 1).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Finishes the config, panicking on nonsensical knobs (matching the
    /// serve builders' fail-fast convention).
    pub fn build(self) -> EvaluatorConfig {
        assert!(
            self.cfg.clip > 0.0,
            "clip must be positive, got {}",
            self.cfg.clip
        );
        assert!(self.cfg.parallelism >= 1, "parallelism must be at least 1");
        self.cfg.bound.validate(1.0);
        self.cfg
    }
}

/// One leaderboard row: every estimator's view of one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardEntry {
    /// 1-based rank after sorting by the ranking estimator's LCB.
    pub rank: usize,
    /// The candidate's name.
    pub name: String,
    /// Clipped-IPS estimate.
    pub ips: PolicyEstimate,
    /// SNIPS estimate (the default ranking key).
    pub snips: PolicyEstimate,
    /// Doubly-robust estimate.
    pub dr: PolicyEstimate,
    /// The moments of this candidate's importance weights, which its three
    /// estimators share: its Kish effective sample size, its weight mass
    /// above the clip, and the harvest-quality gauges.
    pub weights: WeightStats,
}

/// Serializes the weight moments as the two gauges a leaderboard reader
/// needs: `ess` and `clipped_mass`.
impl Serialize for LeaderboardEntry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rank".to_string(), self.rank.to_value()),
            ("name".to_string(), self.name.to_value()),
            ("ips".to_string(), self.ips.to_value()),
            ("snips".to_string(), self.snips.to_value()),
            ("dr".to_string(), self.dr.to_value()),
            ("ess".to_string(), self.weights.ess().to_value()),
            (
                "clipped_mass".to_string(),
                self.weights.clipped_mass().to_value(),
            ),
        ])
    }
}

/// The ranked result of one portfolio pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PortfolioReport {
    /// Samples scored (joined decisions).
    pub n: usize,
    /// Segments read.
    pub segments: usize,
    /// Record frames quarantined by segment recovery.
    pub quarantined: usize,
    /// Decisions skipped: no reward, a non-finite reward or feature, a
    /// propensity outside `(0, 1]`, or inconsistent fields.
    pub skipped: usize,
    /// One row per candidate, best LCB first.
    pub entries: Vec<LeaderboardEntry>,
}

impl PortfolioReport {
    /// The winning row (rank 1), if any candidates were scored.
    pub fn winner(&self) -> Option<&LeaderboardEntry> {
        self.entries.first()
    }

    /// The leaderboard as deterministic JSON (non-finite bounds render
    /// as `null`).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("leaderboard serializes")
    }
}

/// One segment's evaluation output: accumulators plus join counters.
struct SegmentResult {
    states: Vec<CandidateState>,
    joined: usize,
    skipped: usize,
}

/// A worker's reusable buffers: the context each decision's features are
/// decoded into, one candidate's probabilities, and the model's scores.
struct WorkerBuffers {
    context: SimpleContext,
    probs: Vec<f64>,
    scores: Vec<f64>,
}

impl WorkerBuffers {
    fn new() -> Self {
        WorkerBuffers {
            context: SimpleContext::contextless(1),
            probs: Vec::new(),
            scores: Vec::new(),
        }
    }
}

/// The frozen portfolio evaluator: a fixed candidate set, an optional
/// DR reward model, and an [`EvaluatorConfig`].
///
/// Build one with [`PortfolioEvaluator::builder`], then score crash-safe
/// log segments in one pass with
/// [`evaluate_segments`](Self::evaluate_segments), or with
/// [`evaluate_join`](Self::evaluate_join) over a join already built.
pub struct PortfolioEvaluator {
    cfg: EvaluatorConfig,
    candidates: Vec<Candidate>,
    model: Option<ActionPanel>,
}

impl std::fmt::Debug for PortfolioEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioEvaluator")
            .field("cfg", &self.cfg)
            .field("candidates", &self.candidates.len())
            .field("model", &self.model.is_some())
            .finish()
    }
}

/// Builder for [`PortfolioEvaluator`].
#[derive(Debug, Default)]
pub struct PortfolioEvaluatorBuilder {
    cfg: Option<EvaluatorConfig>,
    candidates: Vec<Candidate>,
    model: Option<LinearScorer>,
}

impl PortfolioEvaluatorBuilder {
    /// Sets the evaluator configuration (defaults otherwise).
    pub fn config(mut self, cfg: EvaluatorConfig) -> Self {
        self.cfg = Some(cfg);
        self
    }

    /// Adds one candidate.
    pub fn candidate(mut self, candidate: Candidate) -> Self {
        self.candidates.push(candidate);
        self
    }

    /// Adds many candidates.
    pub fn candidates(mut self, candidates: impl IntoIterator<Item = Candidate>) -> Self {
        self.candidates.extend(candidates);
        self
    }

    /// Sets the reward model backing the DR baseline (without one, DR
    /// degenerates to unclipped IPS).
    pub fn model(mut self, model: LinearScorer) -> Self {
        self.model = Some(model);
        self
    }

    /// Finishes the evaluator. Errors with
    /// [`HarvestError::EmptyDataset`] when no candidates were added —
    /// an empty portfolio can never produce a leaderboard.
    pub fn build(self) -> Result<PortfolioEvaluator, HarvestError> {
        if self.candidates.is_empty() {
            return Err(HarvestError::EmptyDataset);
        }
        let cfg = self.cfg.unwrap_or_default();
        cfg.bound.validate(self.candidates.len() as f64);
        Ok(PortfolioEvaluator {
            cfg,
            candidates: self.candidates,
            model: self.model.map(ActionPanel::new),
        })
    }
}

impl PortfolioEvaluator {
    /// Starts a builder.
    pub fn builder() -> PortfolioEvaluatorBuilder {
        PortfolioEvaluatorBuilder::default()
    }

    /// The candidate count `k`.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Always false: the builder rejects empty portfolios.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The evaluator configuration.
    pub fn config(&self) -> &EvaluatorConfig {
        &self.cfg
    }

    fn fresh_states(&self) -> Vec<CandidateState> {
        vec![CandidateState::new(self.cfg.clip); self.candidates.len()]
    }

    /// Folds one joined decision into every candidate's accumulators.
    /// The shared per-record work (propensity inversion, model scores)
    /// happens once, outside the candidate loop.
    fn observe_sample(
        &self,
        states: &mut [CandidateState],
        sample: &LoggedDecision<&SimpleContext>,
        probs: &mut Vec<f64>,
        scores: &mut Vec<f64>,
    ) {
        let ctx = sample.context;
        let num_actions = ctx.num_actions();
        let inv_p = 1.0 / sample.propensity;
        match &self.model {
            Some(model) => model.score_all(ctx, scores),
            None => scores.clear(),
        }
        let model_logged = scores.get(sample.action).copied().unwrap_or(0.0);
        for (candidate, state) in self.candidates.iter().zip(states.iter_mut()) {
            candidate.policy.fill_probabilities(ctx, probs);
            debug_assert_eq!(probs.len(), num_actions, "candidate filled wrong arity");
            let weight = probs[sample.action] * inv_p;
            let baseline = if scores.is_empty() {
                0.0
            } else {
                probs
                    .iter()
                    .zip(scores.iter())
                    .map(|(p, s)| p * s)
                    .sum::<f64>()
            };
            state.observe(sample.reward, weight, baseline, model_logged);
        }
    }

    /// Phase C for one segment: folds every decision the join keeps from
    /// segment `i` into fresh accumulators. A pure function of its inputs
    /// (the worker buffers carry no state between decisions), safe to run
    /// on any thread.
    fn evaluate_segment(
        &self,
        join: &SegmentJoin<'_>,
        i: usize,
        buffers: &mut WorkerBuffers,
    ) -> SegmentResult {
        let mut states = self.fresh_states();
        let mut joined = 0;
        let WorkerBuffers {
            context,
            probs,
            scores,
        } = buffers;
        let skipped = join.replay(i, context, |_, sample| {
            joined += 1;
            self.observe_sample(&mut states, &sample, probs, scores);
        });
        SegmentResult {
            states,
            joined,
            skipped,
        }
    }

    /// One pass over crash-safe log segments: recovers each segment's
    /// valid prefix, joins rewards across segment boundaries, scores every
    /// candidate, and returns the ranked leaderboard plus the recovery
    /// ledger.
    ///
    /// With `parallelism > 1` the per-segment work fans out across that
    /// many worker threads; the result is byte-identical to the
    /// sequential pass (see the module docs for why).
    pub fn evaluate_segments(&self, segments: &[Vec<u8>]) -> (PortfolioReport, RecoveryStats) {
        self.evaluate_join(&SegmentJoin::new(segments, self.cfg.parallelism))
    }

    /// [`evaluate_segments`](Self::evaluate_segments) over a join the
    /// caller already built, so that several passes over one log scan it
    /// once. The fold runs on the join's threads.
    pub fn evaluate_join(&self, join: &SegmentJoin<'_>) -> (PortfolioReport, RecoveryStats) {
        let results = join.per_segment(WorkerBuffers::new, |buffers, i| {
            self.evaluate_segment(join, i, buffers)
        });

        // Merge in segment-index order — the step that pins down every
        // floating-point addition order regardless of thread schedule.
        let mut merged = self.fresh_states();
        let mut joined = 0;
        let mut skipped = 0;
        for result in results {
            joined += result.joined;
            skipped += result.skipped;
            for (into, from) in merged.iter_mut().zip(result.states.iter()) {
                into.merge(from);
            }
        }

        let recovery = join.recovery();
        let report = self.report(
            merged,
            joined,
            join.segment_count(),
            recovery.quarantined_records,
            skipped,
        );
        (report, recovery)
    }

    /// Ranks the merged accumulators into the final leaderboard, best
    /// SNIPS LCB first (ties broken by candidate index — stable sort).
    fn report(
        &self,
        states: Vec<CandidateState>,
        n: usize,
        segments: usize,
        quarantined: usize,
        skipped: usize,
    ) -> PortfolioReport {
        let k = self.candidates.len() as f64;
        let mut entries: Vec<LeaderboardEntry> = self
            .candidates
            .iter()
            .zip(states.iter())
            .map(|(candidate, state)| {
                let [ips, snips, dr] = state.estimates(&self.cfg.bound, k);
                LeaderboardEntry {
                    rank: 0,
                    name: candidate.name.clone(),
                    ips,
                    snips,
                    dr,
                    weights: state.weights,
                }
            })
            .collect();
        entries.sort_by(|a, b| b.snips.lcb.total_cmp(&a.snips.lcb));
        for (i, e) in entries.iter_mut().enumerate() {
            e.rank = i + 1;
        }
        PortfolioReport {
            n,
            segments,
            quarantined,
            skipped,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{eval_dr, eval_ips, eval_snips};
    use harvest_core::policy::GreedyPolicy;
    use harvest_core::sample::LoggedDecision;
    use harvest_core::Dataset;
    use harvest_log::record::{DecisionRecord, LogRecord};
    use harvest_log::segment::{MemorySegments, SegmentConfig, SegmentedLogWriter};

    fn scorer(w0: f64, w1: f64) -> LinearScorer {
        // φ = [x, 1]: action 0 scores w0·x, action 1 scores w1·(1 − x)
        // shaped weights chosen per test.
        LinearScorer::PerAction {
            weights: vec![vec![w0, 0.0], vec![-w1, w1]],
        }
    }

    fn crossing_data(n: usize) -> Dataset<SimpleContext> {
        // Deterministic crossing-reward log: x sweeps [0, 1), actions
        // alternate, propensity 0.5.
        Dataset::from_samples(
            (0..n)
                .map(|i| {
                    let x = (i as f64 + 0.5) / n as f64;
                    let action = i % 2;
                    LoggedDecision {
                        context: SimpleContext::new(vec![x], 2),
                        action,
                        reward: if action == 0 { x } else { 1.0 - x },
                        propensity: 0.5,
                    }
                })
                .collect(),
        )
        .unwrap()
    }

    fn decision(id: u64, x: f64, action: usize, reward: Option<f64>) -> LogRecord {
        LogRecord::Decision(DecisionRecord {
            request_id: id,
            timestamp_ns: id * 1000,
            component: "portfolio-test".to_string(),
            shared_features: vec![x],
            action_features: None,
            num_actions: 2,
            action,
            propensity: Some(0.5),
            reward,
        })
    }

    fn demo_evaluator(k: usize, parallelism: usize) -> PortfolioEvaluator {
        let candidates = (0..k).map(|j| {
            let tilt = j as f64 / k.max(1) as f64;
            Candidate::new(
                format!("cand-{j}"),
                GreedyScorerCandidate::new(scorer(1.0 - tilt, tilt.max(0.05)), 0.1),
            )
        });
        PortfolioEvaluator::builder()
            .config(
                EvaluatorConfig::builder()
                    .clip(10.0)
                    .delta(0.05)
                    .parallelism(parallelism)
                    .build(),
            )
            .candidates(candidates)
            .model(scorer(0.5, 0.5))
            .build()
            .unwrap()
    }

    fn demo_segments(n: u64) -> Vec<Vec<u8>> {
        let mut w = SegmentedLogWriter::new(
            MemorySegments::new(),
            SegmentConfig {
                max_records: 16,
                max_bytes: usize::MAX,
                max_span_ns: u64::MAX,
            },
        );
        for id in 0..n {
            let x = (id as f64 + 0.5) / n as f64;
            // Even ids carry the reward inline; odd ids resolve through a
            // later outcome record (often in the next segment).
            if id % 2 == 0 {
                w.write(&decision(id, x, (id % 2) as usize, Some(x)))
                    .unwrap();
            } else {
                w.write(&decision(id, x, (id % 2) as usize, None)).unwrap();
                w.write(&LogRecord::Outcome(harvest_log::record::OutcomeRecord {
                    request_id: id,
                    timestamp_ns: id * 2000,
                    reward: 1.0 - x,
                }))
                .unwrap();
            }
        }
        w.into_sink().unwrap().snapshot()
    }

    #[test]
    fn accumulators_match_batch_estimators_on_deterministic_policy() {
        // With ε = 0 the candidate is a deterministic greedy policy and
        // the streaming weights reduce to the classic indicator form, so
        // the accumulators must reproduce the batch estimators exactly.
        let data = crossing_data(200);
        let cfg = EvaluatorConfig::builder().clip(f64::MAX).build();
        let candidate = GreedyScorerCandidate::new(scorer(1.0, 1.0), 0.0);
        let policy = GreedyPolicy::new(scorer(1.0, 1.0));

        let mut state = CandidateState::new(cfg.clip);
        let model = scorer(0.5, 0.5);
        let mut probs = Vec::new();
        for s in &data {
            candidate.fill_probabilities(&s.context, &mut probs);
            let weight = probs[s.action] / s.propensity;
            let a_pi = probs.iter().position(|&p| p > 0.5).unwrap();
            let baseline = model.score(&s.context, a_pi);
            state.observe(
                s.reward,
                weight,
                baseline,
                model.score(&s.context, s.action),
            );
        }
        let [ips, snips, dr] = state.estimates(&cfg.bound, 1.0);

        let want_ips = eval_ips(&data, &policy);
        let want_snips = eval_snips(&data, &policy);
        let want_dr = eval_dr(&data, &policy, &model);
        assert!((ips.point - want_ips.value).abs() < 1e-12);
        assert!((snips.point - want_snips.value).abs() < 1e-12);
        assert!((dr.point - want_dr.value).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_single_stream_for_fixed_partition() {
        let data = crossing_data(100);
        let cfg = EvaluatorConfig::default();
        let candidate = GreedyScorerCandidate::new(scorer(1.0, 1.0), 0.2);
        let observe_range = |lo: usize, hi: usize| {
            let mut acc = CandidateState::new(cfg.clip);
            let mut probs = Vec::new();
            for s in data.samples()[lo..hi].iter() {
                candidate.fill_probabilities(&s.context, &mut probs);
                acc.observe(s.reward, probs[s.action] / s.propensity, 0.0, 0.0);
            }
            acc
        };
        let mut a = observe_range(0, 40);
        a.merge(&observe_range(40, 100));
        let mut b = observe_range(0, 40);
        b.merge(&observe_range(40, 100));
        let ea = a.estimates(&cfg.bound, 8.0)[1];
        let eb = b.estimates(&cfg.bound, 8.0)[1];
        assert_eq!(ea.point.to_bits(), eb.point.to_bits());
        assert_eq!(ea.lcb.to_bits(), eb.lcb.to_bits());
        assert_eq!(ea.ess.to_bits(), eb.ess.to_bits());
        assert_eq!(ea.n, 100);
    }

    #[test]
    fn parallel_segments_equal_sequential_byte_for_byte() {
        let segments = demo_segments(300);
        let sequential = demo_evaluator(16, 1);
        let parallel = demo_evaluator(16, 8);
        let (seq_report, seq_rec) = sequential.evaluate_segments(&segments);
        let (par_report, par_rec) = parallel.evaluate_segments(&segments);
        assert_eq!(seq_rec, par_rec);
        assert_eq!(seq_report.to_json(), par_report.to_json());
        assert_eq!(seq_report, par_report);
        assert!(seq_report.n > 0);
    }

    #[test]
    fn leaderboard_is_ranked_by_snips_lcb() {
        let segments = demo_segments(400);
        let (report, _) = demo_evaluator(8, 1).evaluate_segments(&segments);
        assert_eq!(report.entries.len(), 8);
        for (i, e) in report.entries.iter().enumerate() {
            assert_eq!(e.rank, i + 1);
        }
        for pair in report.entries.windows(2) {
            assert!(
                pair[0].snips.lcb >= pair[1].snips.lcb,
                "leaderboard out of order: {} before {}",
                pair[0].snips.lcb,
                pair[1].snips.lcb
            );
        }
        assert_eq!(report.winner().unwrap().rank, 1);
    }

    #[test]
    fn every_candidate_is_scored_on_every_joined_decision() {
        let (report, _) = demo_evaluator(12, 1).evaluate_segments(&demo_segments(500));
        assert_eq!(report.n, 500);
        assert_eq!(report.entries.len(), 12);
        for e in &report.entries {
            assert_eq!(e.snips.n, 500);
            assert!(e.weights.ess() > 0.0);
            assert!(e.snips.lcb <= e.snips.point && e.snips.point <= e.snips.ucb);
        }
    }

    #[test]
    fn greedy_candidate_serializes_as_scorer_and_epsilon() {
        let candidate = GreedyScorerCandidate::new(scorer(1.0, 0.5), 0.25);
        let want = format!(
            "{{\"scorer\":{},\"epsilon\":0.25}}",
            serde_json::to_string(&scorer(1.0, 0.5)).unwrap()
        );
        assert_eq!(serde_json::to_string(&candidate).unwrap(), want);
    }

    #[test]
    fn empty_portfolio_is_rejected() {
        let err = PortfolioEvaluator::builder().build().unwrap_err();
        assert!(matches!(err, HarvestError::EmptyDataset));
    }

    #[test]
    fn tiny_data_has_infinite_bounds_not_nans() {
        let (report, _) = demo_evaluator(3, 1).evaluate_segments(&demo_segments(1));
        for e in &report.entries {
            assert_eq!(e.snips.n, 1);
            assert!(e.snips.lcb == f64::NEG_INFINITY);
            assert!(e.snips.ucb == f64::INFINITY);
            assert!(!e.snips.point.is_nan());
        }
        // And the JSON still serializes (non-finite → null).
        assert!(report.to_json().contains("null"));
    }

    #[test]
    fn a_decision_with_a_non_finite_feature_is_skipped() {
        let mut segments = demo_segments(100);
        let (clean, _) = demo_evaluator(4, 1).evaluate_segments(&segments);
        let mut w = SegmentedLogWriter::new(MemorySegments::new(), SegmentConfig::default());
        w.write(&decision(100, f64::NAN, 0, Some(0.5))).unwrap();
        segments.extend(w.into_sink().unwrap().snapshot());
        let (report, _) = demo_evaluator(4, 1).evaluate_segments(&segments);
        assert_eq!(report.skipped, clean.skipped + 1);
        assert_eq!(report.n, clean.n);
        assert_eq!(report.entries, clean.entries);
    }

    #[test]
    fn quarantined_damage_is_reported_not_scored() {
        let segments = demo_segments(200);
        let clean = demo_evaluator(4, 1).evaluate_segments(&segments).0;
        // Corrupt one mid-log segment: its quarantined suffix must drop
        // out of the score and show up in the ledger.
        let store = MemorySegments::new();
        store.replace_all(segments.clone());
        assert!(store.corrupt_payload(2, 1, 0x01));
        let (damaged, recovery) = demo_evaluator(4, 1).evaluate_segments(&store.snapshot());
        assert!(recovery.quarantined_records > 0);
        assert_eq!(recovery.corrupt_segments, 1);
        assert!(damaged.n < clean.n);
        assert_eq!(damaged.quarantined, recovery.quarantined_records);
    }
}
