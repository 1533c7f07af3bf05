//! Step 1 of the methodology: joining decision and outcome records into
//! `⟨x, a, r⟩` triples — over owned records ([`scavenge`]) or in place over
//! segment bytes ([`SegmentJoin`], which the portfolio pass and the serve
//! trainer both read), under one rule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use harvest_core::{LoggedDecision, SimpleContext};

use crate::codec::{DecisionRef, RecordRef, OUTCOME_PAYLOAD_LEN};
use crate::record::{DecisionRecord, LogRecord};
use crate::segment::{
    replay_prefix, scan_segment, RecoveryStats, SegmentRecovery, FRAME_HEADER_LEN,
};

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
/// in-place [`SegmentJoin`]. Returns the `(reward, propensity)` a
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

/// What the scan keeps of one segment: its recovery, the length of its
/// valid prefix, its outcomes in order, and its smallest and largest
/// record stamp.
#[derive(Debug)]
struct ScannedSegment {
    recovery: SegmentRecovery,
    prefix: usize,
    outcomes: Vec<(u64, f64)>,
    stamps: Option<(u64, u64)>,
}

fn scan_one(bytes: &[u8]) -> ScannedSegment {
    // Every outcome frame is the same size, so no segment holds more
    // outcomes than this and the vector never grows.
    let mut outcomes = Vec::with_capacity(bytes.len() / (FRAME_HEADER_LEN + OUTCOME_PAYLOAD_LEN));
    let mut stamps = None::<(u64, u64)>;
    let (recovery, prefix) = scan_segment(bytes, |record| {
        let stamp = match record {
            RecordRef::Outcome(o) => {
                outcomes.push((o.request_id, o.reward));
                o.timestamp_ns
            }
            RecordRef::Decision(d) => d.timestamp_ns,
            RecordRef::Batch(_) => unreachable!("the scan visits a batch as its decisions"),
        };
        stamps = Some(stamps.map_or((stamp, stamp), |(lo, hi)| (lo.min(stamp), hi.max(stamp))));
    });
    ScannedSegment {
        recovery,
        prefix,
        outcomes,
        stamps,
    }
}

/// The in-place join over crash-safe log segments: which logged decisions
/// count, and with what reward, read straight from the segment bytes.
///
/// [`new`](Self::new) scans every segment (in parallel): [`scan_segment`]
/// checks each frame's CRC and parse, counts the quarantined tail, and keeps
/// the outcomes. Then, in segment order, the outcomes go into one
/// `request_id → reward` map where a later outcome wins, as in [`scavenge`];
/// the map is global because a reward may land in a later segment than its
/// decision. [`replay`](Self::replay) walks one segment's valid prefix again
/// without a second CRC. Nothing per decision is buffered.
#[derive(Debug)]
pub struct SegmentJoin<'s> {
    segments: &'s [Vec<u8>],
    parallelism: usize,
    scanned: Vec<ScannedSegment>,
    rewards: HashMap<u64, f64>,
}

impl<'s> SegmentJoin<'s> {
    /// Scans `segments` on up to `parallelism` threads and builds the
    /// reward map; the join is the same at any thread count.
    pub fn new(segments: &'s [Vec<u8>], parallelism: usize) -> Self {
        let scanned = run_indexed(
            parallelism,
            segments.len(),
            || (),
            |_, i| scan_one(&segments[i]),
        );
        let mut rewards = HashMap::with_capacity(scanned.iter().map(|s| s.outcomes.len()).sum());
        for s in &scanned {
            rewards.extend(s.outcomes.iter().copied());
        }
        SegmentJoin {
            segments,
            parallelism,
            scanned,
            rewards,
        }
    }

    /// How many segments the join reads.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// What recovery found across the segments.
    pub fn recovery(&self) -> RecoveryStats {
        let mut stats = RecoveryStats::default();
        for s in &self.scanned {
            stats.add(&s.recovery);
        }
        stats
    }

    /// The smallest and largest stamp of any record, decision or outcome,
    /// in the valid prefixes (`None` when they hold none).
    pub fn stamps(&self) -> Option<(u64, u64)> {
        let stamps = self.scanned.iter().filter_map(|s| s.stamps);
        stamps.reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
    }

    /// Runs `work(state, i)` for every segment `i` on the join's threads,
    /// each making one `state` it lends to every segment it takes. Results
    /// come back in segment order whichever thread computed them.
    pub fn per_segment<S, T: Send>(
        &self,
        state: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Vec<T> {
        run_indexed(self.parallelism, self.segments.len(), state, work)
    }

    /// Replays segment `i`'s valid prefix and calls `visit` with the request
    /// id of each decision that [`fill_context`] and [`evaluable`] accept, in
    /// log order, joined: its context rebuilt in `context`, and the reward
    /// and propensity `evaluable` returned (a decision logged without a
    /// propensity was drawn uniformly). Returns how many decisions it
    /// skipped.
    pub fn replay(
        &self,
        i: usize,
        context: &mut SimpleContext,
        mut visit: impl FnMut(u64, LoggedDecision<&SimpleContext>),
    ) -> usize {
        let mut skipped = 0;
        replay_prefix(&self.segments[i][..self.scanned[i].prefix], |record| {
            let RecordRef::Decision(d) = record else {
                return;
            };
            let uniform = || 1.0 / d.num_actions as f64;
            let outcome = self.rewards.get(&d.request_id).copied();
            match evaluable(outcome, d.reward, d.propensity, uniform) {
                Ok((reward, propensity)) if fill_context(&d, context) => {
                    let joined = LoggedDecision {
                        context: &*context,
                        action: d.action,
                        reward,
                        propensity,
                    };
                    visit(d.request_id, joined)
                }
                _ => skipped += 1,
            }
        });
        skipped
    }
}

/// Runs `work(state, i)` for every `i < count`, preserving index order in
/// the output. Each worker makes one `state` and lends it to every item it
/// computes. With `parallelism > 1`, workers pull indices from a shared
/// counter and write into per-index slots, so *which thread* computes an
/// item never affects *where* its result lands.
fn run_indexed<S, T: Send>(
    parallelism: usize,
    count: usize,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if parallelism <= 1 || count <= 1 {
        let mut state = state();
        return (0..count).map(|i| work(&mut state, i)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = parallelism.min(count);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = state();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = work(&mut state, i);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every index was computed")
        })
        .collect()
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
        // One context refilled across every shape, as a segment join's caller
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
