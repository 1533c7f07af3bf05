//! Step 1 of the methodology: joining decision and outcome records into
//! `⟨x, a, r⟩` triples.

use std::collections::HashMap;

use harvest_core::SimpleContext;

use crate::codec::DecisionRef;
use crate::record::{DecisionRecord, LogRecord};

/// A scavenged triple: context, action, reward — with the propensity still
/// possibly unknown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScavengedSample {
    /// The decision's request id.
    pub request_id: u64,
    /// The reconstructed context.
    pub context: SimpleContext,
    /// The logged action.
    pub action: usize,
    /// The (possibly reconstructed) reward.
    pub reward: f64,
    /// The propensity, if the decision site logged it.
    pub propensity: Option<f64>,
}

/// Counters describing what the scavenger kept and dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScavengeStats {
    /// Decisions joined with a reward.
    pub joined: usize,
    /// Decisions with no matching outcome (reward never observed).
    pub missing_outcome: usize,
    /// Outcomes with no matching decision (decision log rotated away).
    pub orphan_outcomes: usize,
    /// Decisions dropped because their fields were inconsistent.
    pub invalid: usize,
}

/// The one rule for rebuilding a logged decision's context: at least one
/// action, the action in range, and — when the decision carries per-action
/// features — one row per action, all of one length. `rows` is the row
/// count and the rows' lengths.
fn is_consistent(
    num_actions: usize,
    action: usize,
    rows: Option<(usize, impl Iterator<Item = usize>)>,
) -> bool {
    if num_actions == 0 || action >= num_actions {
        return false;
    }
    match rows {
        None => true,
        Some((count, mut lens)) => {
            count == num_actions && lens.next().is_some_and(|dim| lens.all(|len| len == dim))
        }
    }
}

/// Why a logged decision does not count toward an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unusable {
    /// Neither an outcome nor an inline reward.
    MissingReward,
    /// The reward is not finite.
    InvalidReward,
    /// The propensity is outside `(0, 1]` (zero, negative, above one, or
    /// NaN).
    InvalidPropensity,
}

/// The reward a decision is scored with: its outcome's reward if there is
/// one (the later, more authoritative measurement), otherwise its inline
/// reward, and finite either way.
fn joined_reward(outcome: Option<f64>, inline: Option<f64>) -> Result<f64, Unusable> {
    match outcome.or(inline) {
        None => Err(Unusable::MissingReward),
        Some(r) if r.is_finite() => Ok(r),
        Some(_) => Err(Unusable::InvalidReward),
    }
}

/// The one rule for which logged decisions count, shared by the
/// owned-record harvest ([`scavenge`] then
/// [`HarvestPipeline::run`](crate::pipeline::HarvestPipeline::run)) and the
/// portfolio's in-place segment join. Returns the `(reward, propensity)` a
/// decision is scored with:
///
/// * the reward is the outcome's if there is one, otherwise the inline
///   reward, and it must be finite;
/// * the propensity is the logged one, otherwise `fallback()`, and it must
///   be in `(0, 1]` — the importance weight `π(a|x)/p` is defined only
///   there.
pub fn evaluable(
    outcome: Option<f64>,
    inline: Option<f64>,
    propensity: Option<f64>,
    fallback: impl FnOnce() -> f64,
) -> Result<(f64, f64), Unusable> {
    let reward = joined_reward(outcome, inline)?;
    let p = propensity.unwrap_or_else(fallback);
    if p > 0.0 && p <= 1.0 {
        Ok((reward, p))
    } else {
        Err(Unusable::InvalidPropensity)
    }
}

/// Rebuilds the [`SimpleContext`] a decision record was logged with, or
/// `None` when its fields are inconsistent (action out of range, ragged
/// action features). Shared with warm-restart replay, which must re-score
/// the exact context the original incarnation saw.
pub fn context_of(d: &DecisionRecord) -> Option<SimpleContext> {
    let rows = d
        .action_features
        .as_ref()
        .map(|af| (af.len(), af.iter().map(Vec::len)));
    if !is_consistent(d.num_actions, d.action, rows) {
        return None;
    }
    Some(match &d.action_features {
        Some(af) => SimpleContext::with_action_features(d.shared_features.clone(), af.clone()),
        None => SimpleContext::new(d.shared_features.clone(), d.num_actions),
    })
}

/// [`context_of`] for a decision read in place: refills `ctx` with the
/// context `d` was logged with and returns `true`, or returns `false`
/// (leaving `ctx` as it was) when the fields break the same rule.
pub fn fill_context(d: &DecisionRef<'_>, ctx: &mut SimpleContext) -> bool {
    let rows = d
        .action_features
        .map(|rows| (rows.len(), rows.iter().map(|row| row.len())));
    if !is_consistent(d.num_actions, d.action, rows) {
        return false;
    }
    match d.action_features {
        Some(rows) => {
            ctx.refill_with_action_features(d.shared_features.iter(), rows.iter().map(|r| r.iter()))
        }
        None => ctx.refill(d.shared_features.iter(), d.num_actions),
    }
    true
}

/// Joins decision and outcome records by `request_id`.
///
/// A decision's reward follows the reward half of [`evaluable`]: the
/// matching outcome's when there is one, otherwise the decision's own
/// `reward` field; decisions with neither, or with a non-finite reward, are
/// dropped (and counted). The propensity is left as logged. For duplicate
/// outcome ids the last one wins.
pub fn scavenge(records: &[LogRecord]) -> (Vec<ScavengedSample>, ScavengeStats) {
    // Each outcome's reward, and whether any decision claimed it: an
    // outcome no decision claims is an orphan.
    let mut outcomes: HashMap<u64, (f64, bool)> = HashMap::new();
    for r in records {
        if let LogRecord::Outcome(o) = r {
            outcomes.insert(o.request_id, (o.reward, false));
        }
    }
    let mut stats = ScavengeStats::default();
    let mut samples = Vec::new();
    let mut scavenge_one = |d: &DecisionRecord| {
        let outcome = outcomes.get_mut(&d.request_id).map(|(reward, claimed)| {
            *claimed = true;
            *reward
        });
        let Some(context) = context_of(d) else {
            stats.invalid += 1;
            return;
        };
        let reward = match joined_reward(outcome, d.reward) {
            Ok(r) => r,
            Err(Unusable::MissingReward) => {
                stats.missing_outcome += 1;
                return;
            }
            Err(_) => {
                stats.invalid += 1;
                return;
            }
        };
        stats.joined += 1;
        samples.push(ScavengedSample {
            request_id: d.request_id,
            context,
            action: d.action,
            reward,
            propensity: d.propensity,
        });
    };
    for r in records {
        match r {
            LogRecord::Decision(d) => scavenge_one(d),
            LogRecord::Outcome(_) => {}
            // Batches appear when scavenging a raw (pre-recovery) stream;
            // segment recovery flattens them first. Each batched decision
            // joins exactly as its standalone equivalent would.
            LogRecord::Batch(b) => {
                for d in b.flatten() {
                    scavenge_one(&d);
                }
            }
        }
    }
    stats.orphan_outcomes = outcomes.values().filter(|(_, claimed)| !claimed).count();
    (samples, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OutcomeRecord;

    fn decision(id: u64, reward: Option<f64>) -> LogRecord {
        LogRecord::Decision(DecisionRecord {
            request_id: id,
            timestamp_ns: id * 1000,
            component: "test".to_string(),
            shared_features: vec![id as f64],
            action_features: None,
            num_actions: 2,
            action: (id % 2) as usize,
            propensity: Some(0.5),
            reward,
        })
    }

    fn outcome(id: u64, reward: f64) -> LogRecord {
        LogRecord::Outcome(OutcomeRecord {
            request_id: id,
            timestamp_ns: id * 2000,
            reward,
        })
    }

    #[test]
    fn joins_by_request_id() {
        let records = vec![
            decision(1, None),
            decision(2, None),
            outcome(2, 0.9),
            outcome(1, 0.1),
        ];
        let (samples, stats) = scavenge(&records);
        assert_eq!(stats.joined, 2);
        assert_eq!(samples[0].reward, 0.1);
        assert_eq!(samples[1].reward, 0.9);
    }

    #[test]
    fn synchronous_reward_needs_no_outcome() {
        let (samples, stats) = scavenge(&[decision(5, Some(0.42))]);
        assert_eq!(stats.joined, 1);
        assert_eq!(samples[0].reward, 0.42);
    }

    #[test]
    fn outcome_overrides_synchronous_reward() {
        let (samples, _) = scavenge(&[decision(5, Some(0.42)), outcome(5, 0.9)]);
        assert_eq!(samples[0].reward, 0.9);
    }

    #[test]
    fn missing_and_orphan_records_are_counted() {
        let records = vec![decision(1, None), outcome(99, 1.0)];
        let (samples, stats) = scavenge(&records);
        assert!(samples.is_empty());
        assert_eq!(stats.missing_outcome, 1);
        assert_eq!(stats.orphan_outcomes, 1);
    }

    #[test]
    fn invalid_decisions_are_dropped() {
        let mut d = match decision(1, Some(1.0)) {
            LogRecord::Decision(d) => d,
            _ => unreachable!(),
        };
        d.action = 5; // out of range for num_actions = 2
        let (samples, stats) = scavenge(&[LogRecord::Decision(d)]);
        assert!(samples.is_empty());
        assert_eq!(stats.invalid, 1);
    }

    #[test]
    fn non_finite_rewards_are_dropped() {
        let (samples, stats) = scavenge(&[decision(1, None), outcome(1, f64::NAN)]);
        assert!(samples.is_empty());
        assert_eq!(stats.invalid, 1);
    }

    #[test]
    fn action_features_are_reconstructed() {
        let rec = LogRecord::Decision(DecisionRecord {
            request_id: 1,
            timestamp_ns: 0,
            component: "redis-evict".to_string(),
            shared_features: vec![],
            action_features: Some(vec![vec![1.0, 2.0], vec![3.0, 4.0]]),
            num_actions: 2,
            action: 1,
            propensity: None,
            reward: Some(10.0),
        });
        let (samples, stats) = scavenge(&[rec]);
        assert_eq!(stats.joined, 1);
        use harvest_core::Context;
        assert_eq!(samples[0].context.action_features(1), &[3.0, 4.0]);
        assert_eq!(samples[0].propensity, None);
    }

    #[test]
    fn ragged_action_features_are_invalid() {
        let rec = LogRecord::Decision(DecisionRecord {
            request_id: 1,
            timestamp_ns: 0,
            component: "x".to_string(),
            shared_features: vec![],
            action_features: Some(vec![vec![1.0], vec![2.0, 3.0]]),
            num_actions: 2,
            action: 0,
            propensity: None,
            reward: Some(1.0),
        });
        let (samples, stats) = scavenge(&[rec]);
        assert!(samples.is_empty());
        assert_eq!(stats.invalid, 1);
    }

    #[test]
    fn fill_context_applies_the_rule_of_context_of() {
        use crate::codec::{encode_record, RecordRef};
        let base = match decision(3, Some(1.0)) {
            LogRecord::Decision(d) => d,
            _ => unreachable!(),
        };
        let with = |f: &dyn Fn(&mut DecisionRecord)| {
            let mut d = base.clone();
            f(&mut d);
            d
        };
        let cases = [
            base.clone(),
            with(&|d| d.action = 2),
            with(&|d| d.action_features = Some(vec![vec![1.0, 2.0], vec![3.0, 4.0]])),
            with(&|d| d.action_features = Some(vec![vec![1.0], vec![2.0, 3.0]])),
            with(&|d| d.action_features = Some(vec![vec![1.0]])),
            with(&|d| d.shared_features = vec![0.5; 7]),
            base.clone(),
        ];
        // One context refilled across every shape, as a portfolio worker
        // reuses it.
        let mut ctx = SimpleContext::contextless(1);
        for d in cases {
            let mut payload = Vec::new();
            encode_record(&LogRecord::Decision(d.clone()), &mut payload);
            let Some(RecordRef::Decision(view)) = RecordRef::parse(&payload) else {
                panic!("a decision payload parses as a decision");
            };
            let before = ctx.clone();
            match context_of(&d) {
                Some(want) => {
                    assert!(fill_context(&view, &mut ctx));
                    assert_eq!(ctx, want);
                }
                None => {
                    assert!(!fill_context(&view, &mut ctx));
                    assert_eq!(ctx, before);
                }
            }
        }
    }
}
