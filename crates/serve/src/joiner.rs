//! The reward joiner: matching delayed rewards to decisions under a TTL.
//!
//! A decision's consequence (request latency, machine recovery, cache hit)
//! arrives later, on a different code path, keyed only by `request_id`. The
//! joiner tracks every decision for a bounded logical-time window and admits
//! at most one reward per decision inside that window. Two invariants hold
//! unconditionally (and are property-tested):
//!
//! 1. **No join after expiry** — a reward arriving more than `ttl_ns` after
//!    its decision is refused, even if the decision was never joined.
//! 2. **No duplicate joins** — a second reward for the same decision is
//!    refused, no matter how quickly it arrives.
//!
//! Time is the caller's logical clock (the same one stamped on decisions),
//! and must be non-decreasing across calls; the joiner never reads a wall
//! clock, so replaying a trace reproduces the exact same join outcomes.
//!
//! The service keeps **one joiner per engine shard** and routes every id
//! to the joiner of the shard that decided it (`request_id >> SEQ_BITS`).
//! Each joiner's clock is therefore its own shard's: the decisions it
//! tracks and the rewards routed to it. A fast shard's clock never
//! expires a slow shard's decisions, so whether a reward joins does not
//! depend on how the callers of different shards interleave.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use harvest_log::record::OutcomeRecord;
use serde::Serialize;

use crate::engine::shard_of;
use crate::metrics::ServeMetrics;

/// What happened to one reward observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// Matched a tracked decision inside its TTL; an outcome record was
    /// produced.
    Joined,
    /// The decision was already joined; the reward is refused.
    Duplicate,
    /// The decision's TTL had lapsed; the reward is refused.
    Expired,
    /// No decision with this id was ever tracked.
    Unknown,
    /// The reward was lost in flight (chaos drop) before reaching the
    /// joiner; counted as `rewards_lost`, the decision stays pending.
    Lost,
}

/// Durable joiner state for the control-plane checkpoint: the pending map
/// and both tombstone sets, each sorted so the encoded bytes are a pure
/// function of the joiner's logical state (hash iteration order never
/// leaks into the checkpoint). A service with several shard joiners
/// merges their states into one of these, so the format does not depend
/// on the shard count.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct JoinerState {
    /// `(request_id, deadline)` pairs still awaiting a reward.
    pub pending: Vec<(u64, u64)>,
    /// Ids that joined a reward.
    pub joined: Vec<u64>,
    /// Ids whose TTL lapsed unjoined.
    pub expired: Vec<u64>,
}

impl JoinerState {
    /// One sorted state holding every part (the shard joiners' states).
    pub(crate) fn merged(parts: impl IntoIterator<Item = JoinerState>) -> JoinerState {
        let mut all = JoinerState::default();
        for part in parts {
            all.pending.extend(part.pending);
            all.joined.extend(part.joined);
            all.expired.extend(part.expired);
        }
        all.pending.sort_unstable();
        all.joined.sort_unstable();
        all.expired.sort_unstable();
        all
    }

    /// The part of this state that shard `shard` of `shards` owns.
    pub(crate) fn shard_part(&self, shard: usize, shards: usize) -> JoinerState {
        let mine = |id: u64| shard_of(id, shards) == shard;
        let mut part = self.clone();
        part.pending.retain(|&(id, _)| mine(id));
        part.joined.retain(|&id| mine(id));
        part.expired.retain(|&id| mine(id));
        part
    }
}

/// Where one tracked decision stands. Ids only ever move pending → joined
/// or pending → expired, so each id is counted exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Awaiting a reward until `deadline` (decision time + TTL,
    /// saturating).
    Pending { deadline: u64 },
    /// Joined a reward; a later reward is a duplicate.
    Joined,
    /// The TTL lapsed unjoined; a later reward is late.
    Expired,
}

/// Joins delayed rewards to tracked decisions within a logical-time TTL.
#[derive(Debug)]
pub struct RewardJoiner {
    ttl_ns: u64,
    /// request_id → slot. Joined and expired slots are tombstones kept
    /// forever — the price of exact duplicate/late classification; bound
    /// the id space (e.g. restart per epoch) if memory matters.
    slots: HashMap<u64, Slot>,
    /// `(deadline, request_id)` in deadline order, swept from the front.
    /// A joined id leaves lazily: the sweep skips it when it reaches the
    /// front.
    deadlines: VecDeque<(u64, u64)>,
    /// Number of [`Slot::Pending`] slots.
    pending: usize,
    metrics: Arc<ServeMetrics>,
}

impl RewardJoiner {
    /// Creates a joiner with the given TTL, reporting into `metrics`.
    pub fn new(ttl_ns: u64, metrics: Arc<ServeMetrics>) -> Self {
        RewardJoiner {
            ttl_ns,
            slots: HashMap::new(),
            deadlines: VecDeque::new(),
            pending: 0,
            metrics,
        }
    }

    /// Starts tracking a decision made at `now_ns`. A re-tracked id keeps
    /// its original deadline.
    pub fn track(&mut self, request_id: u64, now_ns: u64) {
        self.sweep(now_ns);
        self.track_swept(request_id, now_ns);
    }

    /// Bulk form of [`track`](RewardJoiner::track) for one batch of
    /// decisions made at the same logical instant. Equivalent to calling
    /// `track` once per id in order — the expiry sweep runs once up front
    /// (repeat sweeps at the same `now_ns` are no-ops), and the depth
    /// histogram still samples after every insert, exactly as the single
    /// calls would.
    pub fn track_many(&mut self, request_ids: impl IntoIterator<Item = u64>, now_ns: u64) {
        self.sweep(now_ns);
        for request_id in request_ids {
            self.track_swept(request_id, now_ns);
        }
    }

    /// Insert + depth sample for one id, after the caller has swept.
    fn track_swept(&mut self, request_id: u64, now_ns: u64) {
        if let Entry::Vacant(slot) = self.slots.entry(request_id) {
            let deadline = now_ns.saturating_add(self.ttl_ns);
            slot.insert(Slot::Pending { deadline });
            self.pending += 1;
            self.enqueue(deadline, request_id);
        }
        // Queue depth sampled at every track: a pure function of the
        // call sequence, hence deterministic under replay.
        if let Some(obs) = self.metrics.obs() {
            let stripe = (request_id >> crate::engine::SEQ_BITS) as usize;
            obs.record_join_queue_depth(stripe, self.pending as u64);
        }
    }

    /// Adds a deadline to the queue, keeping it sorted. A non-decreasing
    /// clock appends at the back; an earlier deadline (a track after a
    /// restore, or from a caller whose clock stepped back) is inserted in
    /// order, so the sweep still expires exactly the deadlines that have
    /// passed.
    fn enqueue(&mut self, deadline: u64, request_id: u64) {
        match self.deadlines.back() {
            Some(&(last, _)) if deadline < last => {
                let at = self.deadlines.partition_point(|&(d, _)| d <= deadline);
                self.deadlines.insert(at, (deadline, request_id));
            }
            _ => self.deadlines.push_back((deadline, request_id)),
        }
    }

    /// Offers a reward observed at `now_ns`. On [`JoinOutcome::Joined`] the
    /// matching outcome record is returned for logging.
    pub fn join(
        &mut self,
        request_id: u64,
        now_ns: u64,
        reward: f64,
    ) -> (JoinOutcome, Option<OutcomeRecord>) {
        self.sweep(now_ns);
        let Some(slot) = self.slots.get_mut(&request_id) else {
            self.metrics.record_join_unknown();
            return (JoinOutcome::Unknown, None);
        };
        let deadline = match *slot {
            Slot::Joined => {
                self.metrics.record_join_duplicate();
                return (JoinOutcome::Duplicate, None);
            }
            Slot::Expired => {
                self.metrics.record_join_late();
                return (JoinOutcome::Expired, None);
            }
            Slot::Pending { deadline } => {
                *slot = Slot::Joined;
                deadline
            }
        };
        self.pending -= 1;
        if let Some(obs) = self.metrics.obs() {
            // Deadline was decision time + TTL (saturating), so the join
            // delay in logical time is recoverable exactly.
            let decided_ns = deadline.saturating_sub(self.ttl_ns);
            let stripe = (request_id >> crate::engine::SEQ_BITS) as usize;
            obs.record_join_delay(stripe, now_ns.saturating_sub(decided_ns));
            obs.tracer().joined(request_id, now_ns);
        }
        self.metrics.record_join_hit();
        (
            JoinOutcome::Joined,
            Some(OutcomeRecord {
                request_id,
                timestamp_ns: now_ns,
                reward,
            }),
        )
    }

    /// Decisions still waiting for a reward.
    pub fn pending_len(&self) -> usize {
        self.pending
    }

    /// Snapshots the joiner's durable state for a checkpoint. Sorted, so
    /// same logical state ⇒ byte-identical encoding.
    pub fn state(&self) -> JoinerState {
        let mut state = JoinerState::default();
        for (&id, slot) in &self.slots {
            match *slot {
                Slot::Pending { deadline } => state.pending.push((id, deadline)),
                Slot::Joined => state.joined.push(id),
                Slot::Expired => state.expired.push(id),
            }
        }
        JoinerState::merged([state])
    }

    /// Restores a checkpointed state verbatim, replacing the current one.
    /// Touches no metrics: the counters describing this state were restored
    /// separately, and a restore is bookkeeping, not new join traffic.
    pub fn restore(&mut self, state: &JoinerState) {
        // Later lists win: a tombstone outranks a pending entry for the
        // same id, as the join checks tombstones first.
        let pending = state
            .pending
            .iter()
            .map(|&(id, deadline)| (id, Slot::Pending { deadline }));
        let expired = state.expired.iter().map(|&id| (id, Slot::Expired));
        let joined = state.joined.iter().map(|&id| (id, Slot::Joined));
        self.slots = pending.chain(expired).chain(joined).collect();
        self.pending = self
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Pending { .. }))
            .count();
        let mut deadlines: Vec<(u64, u64)> = state.pending.iter().map(|&(id, d)| (d, id)).collect();
        deadlines.sort_unstable();
        self.deadlines = deadlines.into();
    }

    /// Warm-restart replay of a logged outcome record. An outcome only ever
    /// reaches the log because some incarnation joined it, so the normal
    /// path is a re-join against the restored pending set (counted
    /// `join_hits`, exactly as the original join was after the checkpoint).
    /// The exception is an **orphan**: the outcome survived in the durable
    /// log but its decision did not (quarantined with a torn segment). Its
    /// reward can never be joined again — it is counted `rewards_lost`, not
    /// dropped on the floor, so the reward ledger still reconciles across
    /// incarnations.
    pub fn replay_outcome(&mut self, request_id: u64, now_ns: u64, reward: f64) -> JoinOutcome {
        let (outcome, _rec) = self.join(request_id, now_ns, reward);
        if outcome == JoinOutcome::Unknown {
            self.metrics.record_reward_lost();
            return JoinOutcome::Lost;
        }
        outcome
    }

    /// Moves every decision whose deadline has passed to expired. A reward
    /// at exactly the deadline still joins; one tick later it is late.
    fn sweep(&mut self, now_ns: u64) {
        while let Some(&(deadline, id)) = self.deadlines.front() {
            if deadline >= now_ns {
                break;
            }
            self.deadlines.pop_front();
            // Joined ids were left in the queue; only a still-pending slot
            // with this deadline expires.
            if let Some(slot) = self.slots.get_mut(&id) {
                if *slot == (Slot::Pending { deadline }) {
                    *slot = Slot::Expired;
                    self.pending -= 1;
                    self.metrics.record_timed_out();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joiner(ttl: u64) -> RewardJoiner {
        RewardJoiner::new(ttl, Arc::new(ServeMetrics::new()))
    }

    #[test]
    fn joins_inside_ttl_and_emits_outcome() {
        let mut j = joiner(100);
        j.track(1, 1000);
        let (outcome, rec) = j.join(1, 1050, 0.7);
        assert_eq!(outcome, JoinOutcome::Joined);
        let rec = rec.unwrap();
        assert_eq!(rec.request_id, 1);
        assert_eq!(rec.timestamp_ns, 1050);
        assert_eq!(rec.reward, 0.7);
        assert_eq!(j.pending_len(), 0);
    }

    #[test]
    fn deadline_is_inclusive() {
        let mut j = joiner(100);
        j.track(1, 1000);
        assert_eq!(j.join(1, 1100, 1.0).0, JoinOutcome::Joined);
        let mut j = joiner(100);
        j.track(1, 1000);
        assert_eq!(j.join(1, 1101, 1.0).0, JoinOutcome::Expired);
    }

    #[test]
    fn duplicates_are_refused() {
        let mut j = joiner(100);
        j.track(1, 0);
        assert_eq!(j.join(1, 10, 1.0).0, JoinOutcome::Joined);
        assert_eq!(j.join(1, 11, 2.0).0, JoinOutcome::Duplicate);
        let s = j.metrics.snapshot();
        assert_eq!(s.join_hits, 1);
        assert_eq!(s.join_duplicates, 1);
    }

    #[test]
    fn unknown_ids_are_distinguished_from_expired() {
        let mut j = joiner(100);
        j.track(1, 0);
        assert_eq!(j.join(2, 10, 1.0).0, JoinOutcome::Unknown);
        assert_eq!(j.join(1, 500, 1.0).0, JoinOutcome::Expired);
        let s = j.metrics.snapshot();
        assert_eq!(s.join_unknown, 1);
        assert_eq!(s.join_late, 1);
        assert_eq!(s.timed_out_decisions, 1);
    }

    #[test]
    fn retracking_keeps_the_original_deadline() {
        let mut j = joiner(100);
        j.track(1, 0);
        j.track(1, 90); // would extend to 190 if re-tracked
        assert_eq!(j.join(1, 150, 1.0).0, JoinOutcome::Expired);
    }

    #[test]
    fn saturating_deadline_never_expires() {
        let mut j = joiner(u64::MAX);
        j.track(1, 5);
        assert_eq!(j.join(1, u64::MAX - 1, 1.0).0, JoinOutcome::Joined);
    }

    #[test]
    fn state_round_trips_and_is_sorted() {
        let mut j = joiner(100);
        for id in [9u64, 3, 7, 1] {
            j.track(id, 0);
        }
        assert_eq!(j.join(3, 10, 1.0).0, JoinOutcome::Joined);
        assert_eq!(j.join(7, 500, 1.0).0, JoinOutcome::Expired); // sweeps 1, 7, 9
        let state = j.state();
        assert!(state.pending.is_empty());
        assert_eq!(state.joined, vec![3]);
        assert_eq!(state.expired, vec![1, 7, 9]);
        let mut restored = joiner(100);
        restored.restore(&state);
        assert_eq!(restored.state(), state);
        // Restored tombstones classify rewards exactly as the original.
        assert_eq!(restored.join(3, 600, 1.0).0, JoinOutcome::Duplicate);
        assert_eq!(restored.join(9, 600, 1.0).0, JoinOutcome::Expired);
    }

    #[test]
    fn restored_pending_decisions_still_join() {
        let mut j = joiner(100);
        j.track(5, 1000);
        let state = j.state();
        assert_eq!(state.pending, vec![(5, 1100)]);
        let mut restored = joiner(100);
        restored.restore(&state);
        let (outcome, rec) = restored.join(5, 1050, 0.4);
        assert_eq!(outcome, JoinOutcome::Joined);
        assert_eq!(rec.unwrap().reward, 0.4);
        // The original deadline survives the restart: one tick past it and
        // the reward is late, exactly as in an uninterrupted run.
        let mut late = joiner(100);
        late.restore(&state);
        assert_eq!(late.join(5, 1101, 0.4).0, JoinOutcome::Expired);
    }

    #[test]
    fn replayed_orphan_outcome_is_counted_lost() {
        let mut j = joiner(100);
        j.track(1, 0);
        // Id 1 replays as a normal join; id 99's decision never survived.
        assert_eq!(j.replay_outcome(1, 10, 1.0), JoinOutcome::Joined);
        assert_eq!(j.replay_outcome(99, 10, 1.0), JoinOutcome::Lost);
        let s = j.metrics.snapshot();
        assert_eq!(s.join_hits, 1);
        assert_eq!(s.rewards_lost, 1);
    }
}
