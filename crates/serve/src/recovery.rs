//! Warm restart: capture, persist, and restore the durable control plane.
//!
//! The decision log ([`harvest_log::segment`]) already makes the *data*
//! crash-safe; this module makes the *control plane* restartable. A
//! [`ServiceCheckpoint`] is everything the service cannot rederive from
//! config alone: the incumbent policy version, the per-shard RNG stream
//! positions and sequence counters, the shard joiners' pending sets and
//! tombstones (merged into one sorted state), the conservation-ledger
//! counters, and the chaos scheduling cursors. It serializes to JSON
//! (sorted collections, no wall clock, no hash-order leakage) and travels
//! inside the CRC-framed checkpoint blobs of [`harvest_log::checkpoint`].
//!
//! Recovery ([`DecisionService::resume`]) is **checkpoint + deterministic
//! replay**:
//!
//! 1. Load the newest checkpoint that validates *and parses*; torn,
//!    corrupt, and unparsable ones are counted discarded, never silently
//!    skipped. No valid checkpoint at all degenerates to a cold start —
//!    full-log replay from the fresh state.
//! 2. Recover the durable log segments and classify the **suffix**: a
//!    decision is post-checkpoint iff its per-shard sequence number is at
//!    or past the checkpointed next-sequence; an outcome iff its id is not
//!    in the checkpointed joined set.
//! 3. Replay the suffix in log order. Each suffix decision re-runs the
//!    exact ε-greedy draw the previous incarnation made (the engine has a
//!    single shared sampling path, so the draw count per decision is
//!    reproduced exactly), advancing the restored RNG and sequence counter
//!    to precisely where the crash left them — request ids can never
//!    collide across incarnations. Each suffix outcome re-joins against
//!    the restored pending set; an **orphan** (outcome survived, its
//!    decision did not) is counted `rewards_lost`, keeping the reward
//!    ledger reconciled.
//!
//! The conservation invariant `enqueued == written + dropped + quarantined`
//! holds across incarnations: restored counters resume the old ledger, each
//! durable suffix record re-counts as enqueued + written, and quarantine
//! found at rest beyond the checkpointed count is added, never dropped.
//!
//! What is *not* checkpointed, by design: the circuit breaker (it is born
//! closed and [rebased](crate::breaker::CircuitBreaker::rebase) over the
//! restored fault counters, so stale pre-crash faults cannot trip it) and
//! the observability bundle (traces and histograms describe an
//! incarnation, not the service's durable history).

use std::collections::HashSet;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use harvest_log::checkpoint::{
    load_latest_filtered, CheckpointStore, CheckpointWriter, CHECKPOINT_HEADER_LEN,
};
use harvest_log::record::{DecisionRecord, LogRecord};
use harvest_log::scavenge::context_of;
use harvest_log::segment::{recover_segments, SegmentSink};
use harvest_sim_net::fault::{ChaosPlan, CheckpointFault};
use serde::{Deserialize, Serialize};

use crate::engine::{ShardState, SEQ_BITS};
use crate::error::{lock_recovering, ServeError};
use crate::joiner::{JoinOutcome, JoinerState};
use crate::metrics::MetricsState;
use crate::registry::PolicyVersion;
use crate::service::{DecisionService, ServeConfig};
use crate::supervisor::WriterResume;

/// The durable control-plane state: everything a warm restart needs that
/// config cannot rederive. Serialized as JSON inside a CRC-framed
/// checkpoint blob; all collections are sorted at capture, so the same
/// logical state always produces byte-identical payloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceCheckpoint {
    /// Caller-defined replay cursor — opaque to the service. A wave-based
    /// driver stores "next wave index", so after a restart it knows which
    /// training rounds to re-run from the recovered log.
    pub cursor: u64,
    /// The serving policy version, verbatim.
    pub incumbent: PolicyVersion,
    /// Lifetime promotion count ([`PolicyRegistry::swap_count`]).
    ///
    /// [`PolicyRegistry::swap_count`]: crate::registry::PolicyRegistry::swap_count
    pub swaps: u64,
    /// Per-shard RNG positions, next sequence numbers, last stamps.
    pub shards: Vec<ShardState>,
    /// Pending joins and tombstones of every shard joiner, merged.
    pub joiner: JoinerState,
    /// The conservation ledger and telemetry counters.
    pub counters: MetricsState,
    /// Promotion naming counter (`cb-round-N`).
    pub promoted_rounds: u64,
    /// Training-round index (chaos trainer-crash scheduling window).
    pub train_rounds: u64,
    /// Global decision index (chaos poison scheduling window).
    pub decision_seq: u64,
    /// Global reward-call index (chaos reward-fault scheduling window).
    pub reward_seq: u64,
}

/// What [`DecisionService::resume`] did, for logs and assertions.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryReport {
    /// No checkpoint validated — the service rebuilt itself by full-log
    /// replay from the fresh cold state.
    pub cold_start: bool,
    /// The restored caller cursor (0 on a cold start).
    pub cursor: u64,
    /// Checkpoints examined, newest first.
    pub checkpoints_scanned: u64,
    /// Damaged or unparsable checkpoints skipped before a valid one.
    pub checkpoints_discarded: u64,
    /// Sequence number of the checkpoint that loaded, if any.
    pub loaded_seq: Option<u64>,
    /// Records recovered from the durable log segments.
    pub recovered_records: u64,
    /// Record frames quarantined at rest.
    pub quarantined_records: u64,
    /// Post-checkpoint decisions replayed through the engine.
    pub replayed_decisions: u64,
    /// Post-checkpoint outcomes replayed through the joiner.
    pub replayed_outcomes: u64,
    /// Replayed outcomes that re-joined a pending decision.
    pub replayed_joins: u64,
    /// Replayed outcomes whose decision did not survive (counted
    /// `rewards_lost`, never dropped).
    pub orphan_outcomes: u64,
    /// Replayed decisions whose id or action disagreed with the logged
    /// record — zero unless the log, the checkpoint, or the config lies.
    pub replay_divergence: u64,
}

impl<S: SegmentSink + Send + 'static> DecisionService<S> {
    /// Assembles the current control-plane state into a checkpoint.
    ///
    /// Call from a quiescent point — the wave boundary discipline: decisions
    /// served, rewards delivered, log drained, training done — so the
    /// snapshot is one consistent cut across registry, engine, joiner, and
    /// counters. `cursor` is the caller's replay cursor, stored verbatim.
    pub fn checkpoint_state(&self, cursor: u64) -> ServiceCheckpoint {
        let incumbent = self.registry.current();
        ServiceCheckpoint {
            cursor,
            incumbent: (*incumbent).clone(),
            swaps: self.registry.swap_count(),
            shards: self.engine.shard_states(),
            joiner: JoinerState::merged(
                self.joiners
                    .iter()
                    .map(|j| lock_recovering(j, Some(&self.metrics)).state()),
            ),
            counters: self.metrics.checkpoint_counters(),
            promoted_rounds: *lock_recovering(&self.rounds, Some(&self.metrics)),
            train_rounds: self.train_rounds.load(Ordering::SeqCst),
            decision_seq: self.decision_seq.load(Ordering::SeqCst),
            reward_seq: self.reward_seq.load(Ordering::SeqCst),
        }
    }

    /// Captures [`checkpoint_state`](Self::checkpoint_state) and publishes
    /// it through `writer` at logical time `now_ns`, bumping the checkpoint
    /// telemetry. Returns the published sequence number.
    ///
    /// Chaos integration: a [`CheckpointFault::Tear`] or
    /// [`CheckpointFault::Corrupt`] scheduled at this writer's next
    /// sequence number damages the published blob exactly as the fault
    /// describes — a later [`resume`](Self::resume) must detect it and fall
    /// back. The *process-death* variants (`KillBefore`, `KillAfter`) are
    /// the driver's to enact — a service cannot model its own death — by
    /// killing the incarnation around this call.
    pub fn write_checkpoint<C: CheckpointStore>(
        &self,
        writer: &mut CheckpointWriter<C>,
        cursor: u64,
        now_ns: u64,
    ) -> io::Result<u64> {
        let fault = self
            .chaos
            .as_ref()
            .and_then(|c| c.checkpoint_fault_at(writer.next_seq()));
        self.metrics.record_checkpoint(now_ns);
        // Counters are stamped first, so a checkpoint accounts for itself:
        // restoring it reports the same `checkpoints_written` the original
        // incarnation would have.
        let state = self.checkpoint_state(cursor);
        let payload = serde_json::to_string(&state)
            .map_err(io::Error::other)?
            .into_bytes();
        match fault {
            Some(CheckpointFault::Tear { keep_frac }) => writer.write_damaged(&payload, |blob| {
                let keep = ((blob.len() as f64 - 1.0) * keep_frac.clamp(0.0, 1.0)) as usize;
                let mut blob = blob;
                blob.truncate(keep.clamp(1, blob.len() - 1));
                blob
            }),
            Some(CheckpointFault::Corrupt { xor }) => writer.write_damaged(&payload, |mut blob| {
                if blob.len() > CHECKPOINT_HEADER_LEN {
                    blob[CHECKPOINT_HEADER_LEN] ^= xor.max(1);
                }
                blob
            }),
            _ => writer.write(&payload),
        }
    }

    /// Boots a service that **continues** a previous incarnation: loads the
    /// newest valid checkpoint from `checkpoints`, replays the
    /// post-checkpoint suffix of the durable log (`segments` — typically
    /// the sink's own segments read back), and returns the warm service
    /// alongside the accounting.
    ///
    /// `cfg` must describe the same service (same seed, shard count, ε);
    /// the new incarnation's writer appends *after* the existing segments
    /// and resumes the consumed portion of any writer fault schedule, so
    /// history is never overwritten and already-fired faults never re-fire.
    ///
    /// With no valid checkpoint this degenerates to a **cold start**: the
    /// damaged checkpoints are counted discarded and the entire log is
    /// replayed from the fresh state — slower, never wrong.
    pub fn resume<C: CheckpointStore>(
        cfg: ServeConfig,
        sink: S,
        chaos: Option<ChaosPlan>,
        checkpoints: &C,
        segments: &[Vec<u8>],
    ) -> Result<(Self, RecoveryReport), ServeError> {
        let (loaded, ckpt_rec) = load_latest_filtered(checkpoints, |_, payload| {
            std::str::from_utf8(payload)
                .ok()
                .and_then(|text| serde_json::from_str::<ServiceCheckpoint>(text).ok())
        });
        let (records, log_stats) = recover_segments(segments);

        let mut report = RecoveryReport {
            cold_start: loaded.is_none(),
            cursor: loaded.as_ref().map_or(0, |c| c.cursor),
            checkpoints_scanned: ckpt_rec.scanned,
            checkpoints_discarded: ckpt_rec.discarded,
            loaded_seq: ckpt_rec.loaded_seq,
            recovered_records: log_stats.recovered as u64,
            quarantined_records: log_stats.quarantined_records as u64,
            ..RecoveryReport::default()
        };

        // The new incarnation's writer starts past the durable history: its
        // segments append after the existing ones, and its fault-schedule
        // clock starts at the number of records the old incarnations
        // already pushed through (written + quarantined at rest), so
        // consumed writer faults stay consumed.
        let resume = WriterResume {
            first_segment: segments.len() as u64,
            first_record_index: (log_stats.recovered + log_stats.quarantined_records) as u64,
        };

        let svc = Self::build(cfg, sink, chaos.map(Arc::new), resume);

        // Restore the checkpointed cut (a cold start keeps the fresh state).
        let mut shard_next_seq: Vec<u64> = Vec::new();
        let mut joined_tombstones: HashSet<u64> = HashSet::new();
        if let Some(ckpt) = &loaded {
            svc.registry.restore(ckpt.incumbent.clone(), ckpt.swaps);
            svc.engine.restore_shard_states(&ckpt.shards)?;
            let shards = svc.joiners.len();
            for (shard, joiner) in svc.joiners.iter().enumerate() {
                lock_recovering(joiner, Some(&svc.metrics))
                    .restore(&ckpt.joiner.shard_part(shard, shards));
            }
            svc.metrics.restore_counters(&ckpt.counters);
            *lock_recovering(&svc.rounds, Some(&svc.metrics)) = ckpt.promoted_rounds;
            svc.train_rounds.store(ckpt.train_rounds, Ordering::SeqCst);
            shard_next_seq = ckpt.shards.iter().map(|s| s.seq).collect();
            joined_tombstones = ckpt.joiner.joined.iter().copied().collect();
        }

        // Quarantine discovered at rest beyond what the checkpoint already
        // counted (e.g. a tear in the killed wave): counted, never silent.
        // At-rest counts can legitimately undercount the runtime counter
        // (a torn batch frame counts once at rest), hence saturating.
        let already_counted = loaded.as_ref().map_or(0, |c| c.counters.log_quarantined);
        svc.metrics.record_quarantined(
            (log_stats.quarantined_records as u64).saturating_sub(already_counted),
        );

        // Replay the post-checkpoint suffix in log order. Decisions re-run
        // their draws (advancing RNG + seq); outcomes re-join. Both re-count
        // enqueued + written: the records are durably in the log, and the
        // restored ledger must cover them exactly once.
        let seq_mask = (1u64 << SEQ_BITS) - 1;
        let mut replay_decision = |d: &DecisionRecord| {
            let shard = (d.request_id >> SEQ_BITS) as usize;
            let seq = d.request_id & seq_mask;
            if seq < shard_next_seq.get(shard).copied().unwrap_or(0) {
                return; // pre-checkpoint: already inside the restored state
            }
            report.replayed_decisions += 1;
            svc.metrics.record_enqueued();
            svc.metrics.record_written();
            let Some(ctx) = context_of(d) else {
                report.replay_divergence += 1;
                return;
            };
            match svc.engine.replay_decision(shard, d.timestamp_ns, &ctx) {
                Ok((id, action, explored)) => {
                    if id != d.request_id || action != d.action {
                        report.replay_divergence += 1;
                    }
                    svc.metrics.record_decision(d.timestamp_ns, explored);
                    svc.joiner(d.request_id).track(d.request_id, d.timestamp_ns);
                }
                Err(_) => report.replay_divergence += 1,
            }
        };
        for record in &records {
            match record {
                LogRecord::Decision(d) => replay_decision(d),
                // Segment recovery flattens batch frames, but replay over
                // caller-supplied records must not rely on that.
                LogRecord::Batch(b) => {
                    for d in b.flatten() {
                        replay_decision(&d);
                    }
                }
                LogRecord::Outcome(o) => {
                    if joined_tombstones.contains(&o.request_id) {
                        continue; // pre-checkpoint join, already restored
                    }
                    report.replayed_outcomes += 1;
                    svc.metrics.record_enqueued();
                    svc.metrics.record_written();
                    svc.metrics.record_replayed_join();
                    let outcome = svc.joiner(o.request_id).replay_outcome(
                        o.request_id,
                        o.timestamp_ns,
                        o.reward,
                    );
                    match outcome {
                        JoinOutcome::Joined => report.replayed_joins += 1,
                        JoinOutcome::Lost => report.orphan_outcomes += 1,
                        _ => {}
                    }
                }
            }
        }

        // Chaos scheduling clocks continue where the old incarnation's
        // durable trace ends: each replayed suffix record consumed one
        // index before the crash. (Reward calls that produced no log record
        // — drops, duplicates, late arrivals *after* the checkpoint — are
        // not reconstructible from the log; a chaos schedule that must stay
        // aligned across a restart should fault only pre-checkpoint waves.)
        let base = loaded.as_ref();
        svc.decision_seq.store(
            base.map_or(0, |c| c.decision_seq) + report.replayed_decisions,
            Ordering::SeqCst,
        );
        svc.reward_seq.store(
            base.map_or(0, |c| c.reward_seq) + report.replayed_outcomes,
            Ordering::SeqCst,
        );

        // Recovery telemetry, then rebase the breaker so restored fault
        // counters (and the quarantine delta above) read as history, not as
        // a fresh fault burst in its first window.
        svc.metrics.record_restart();
        svc.metrics.record_checkpoints_discarded(ckpt_rec.discarded);
        svc.metrics
            .record_recovered_records(log_stats.recovered as u64);
        svc.breaker.rebase(&svc.metrics);

        Ok((svc, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::joiner::JoinOutcome;
    use harvest_core::SimpleContext;
    use harvest_log::checkpoint::MemoryCheckpoints;
    use harvest_log::segment::MemorySegments;

    fn config(seed: u64) -> ServeConfig {
        ServeConfig {
            engine: EngineConfig {
                shards: 2,
                epsilon: 0.2,
                master_seed: seed,
                component: "recovery-test".to_string(),
            },
            ..ServeConfig::default()
        }
    }

    fn drain(svc: &DecisionService<MemorySegments>) {
        while svc.metrics().log_backlog > 0 {
            std::thread::yield_now();
        }
    }

    /// Serve `n` decisions (and join each reward) starting at step `start`.
    fn serve(
        svc: &DecisionService<MemorySegments>,
        start: u64,
        n: u64,
        rewarded: bool,
    ) -> Vec<crate::engine::Decision> {
        let ctx = SimpleContext::new(vec![0.4], 3);
        (start..start + n)
            .map(|i| {
                let d = svc.decide((i % 2) as usize, i * 100, &ctx).unwrap();
                if rewarded {
                    assert_eq!(
                        svc.reward(d.request_id, i * 100 + 10, 1.0),
                        JoinOutcome::Joined
                    );
                }
                d
            })
            .collect()
    }

    #[test]
    fn checkpoint_state_round_trips_through_json() {
        let svc = DecisionService::new(config(3), MemorySegments::new());
        serve(&svc, 0, 10, true);
        drain(&svc);
        let state = svc.checkpoint_state(7);
        let json = serde_json::to_string(&state).unwrap();
        let back: ServiceCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cursor, 7);
        assert_eq!(back.shards, state.shards);
        assert_eq!(back.joiner, state.joiner);
        assert_eq!(back.counters, state.counters);
        assert_eq!(back.decision_seq, 10);
        assert_eq!(back.reward_seq, 10);
        // Same quiescent state ⇒ byte-identical payload.
        assert_eq!(
            json,
            serde_json::to_string(&svc.checkpoint_state(7)).unwrap()
        );
        svc.shutdown().unwrap();
    }

    #[test]
    fn resume_after_clean_checkpoint_continues_byte_for_byte() {
        // Uninterrupted reference: 80 decisions straight through.
        let ref_store = MemorySegments::new();
        let ref_svc = DecisionService::new(config(5), ref_store.clone());
        let mut expected = serve(&ref_svc, 0, 40, true);
        expected.extend(serve(&ref_svc, 40, 40, true));
        let ref_snap = ref_svc.metrics();
        let ref_store = ref_svc.shutdown().unwrap();
        let (ref_records, _) = ref_store.recover();

        // Interrupted run: checkpoint at the 40-decision wave boundary,
        // "crash" (shutdown), resume, serve the remaining 40.
        let store = MemorySegments::new();
        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 3).unwrap();
        let svc = DecisionService::new(config(5), store.clone());
        let mut got = serve(&svc, 0, 40, true);
        drain(&svc);
        svc.write_checkpoint(&mut writer, 1, 39 * 100).unwrap();
        let store = svc.shutdown().unwrap();

        let (svc, report) =
            DecisionService::resume(config(5), store.clone(), None, &ckpts, &store.snapshot())
                .unwrap();
        assert!(!report.cold_start);
        assert_eq!(report.cursor, 1);
        assert_eq!(report.replayed_decisions, 0, "nothing after the checkpoint");
        assert_eq!(report.replay_divergence, 0);
        got.extend(serve(&svc, 40, 40, true));
        assert_eq!(got, expected, "resumed stream must continue bit-for-bit");

        let snap = svc.metrics();
        assert_eq!(snap.decisions, ref_snap.decisions);
        assert_eq!(snap.explorations, ref_snap.explorations);
        assert_eq!(snap.join_hits, ref_snap.join_hits);
        assert_eq!(snap.restart_count, 1);
        assert_eq!(snap.checkpoints_written, 1);
        let store = svc.shutdown().unwrap();
        let (records, stats) = store.recover();
        assert_eq!(stats.quarantined_records, 0);
        assert_eq!(records, ref_records, "durable logs must be identical");
    }

    #[test]
    fn post_checkpoint_suffix_is_replayed_into_identical_state() {
        let ref_svc = DecisionService::new(config(7), MemorySegments::new());
        let mut expected = serve(&ref_svc, 0, 30, true);
        expected.extend(serve(&ref_svc, 30, 30, true));
        let ref_snap = ref_svc.metrics();
        ref_svc.shutdown().unwrap();

        // Crash 30 decisions *after* the checkpoint: those 30 decisions and
        // their outcomes exist only in the log and must replay.
        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 3).unwrap();
        let svc = DecisionService::new(config(7), MemorySegments::new());
        let mut got = serve(&svc, 0, 15, true);
        drain(&svc);
        svc.write_checkpoint(&mut writer, 1, 14 * 100).unwrap();
        got.extend(serve(&svc, 15, 15, true));
        drain(&svc);
        let store = svc.shutdown().unwrap();

        let (svc, report) =
            DecisionService::resume(config(7), store.clone(), None, &ckpts, &store.snapshot())
                .unwrap();
        assert_eq!(report.replayed_decisions, 15);
        assert_eq!(report.replayed_outcomes, 15);
        assert_eq!(report.replayed_joins, 15);
        assert_eq!(report.orphan_outcomes, 0);
        assert_eq!(report.replay_divergence, 0);
        got.extend(serve(&svc, 30, 30, true));
        assert_eq!(got, expected);
        let snap = svc.metrics();
        assert_eq!(snap.decisions, ref_snap.decisions);
        assert_eq!(snap.explorations, ref_snap.explorations);
        assert_eq!(snap.log_enqueued, ref_snap.log_enqueued);
        assert_eq!(snap.join_hits, ref_snap.join_hits);
        assert_eq!(snap.replayed_joins, 15);
        svc.shutdown().unwrap();
    }

    #[test]
    fn damaged_checkpoints_fall_back_and_are_counted() {
        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 4).unwrap();
        let svc = DecisionService::new(config(9), MemorySegments::new());
        serve(&svc, 0, 10, true);
        drain(&svc);
        svc.write_checkpoint(&mut writer, 1, 900).unwrap();
        serve(&svc, 10, 10, true);
        drain(&svc);
        let newest = svc.write_checkpoint(&mut writer, 2, 1900).unwrap();
        assert!(ckpts.tear(newest, 0.5), "damage the newest at rest");
        let store = svc.shutdown().unwrap();

        let (svc, report) =
            DecisionService::resume(config(9), store.clone(), None, &ckpts, &store.snapshot())
                .unwrap();
        assert_eq!(report.loaded_seq, Some(0), "fell back to the older one");
        assert_eq!(report.checkpoints_discarded, 1);
        assert_eq!(report.cursor, 1);
        assert_eq!(report.replayed_decisions, 10, "the second wave replays");
        assert_eq!(svc.metrics().checkpoints_discarded, 1);
        svc.shutdown().unwrap();
    }

    #[test]
    fn all_checkpoints_damaged_degenerates_to_cold_full_log_replay() {
        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 4).unwrap();
        let svc = DecisionService::new(config(11), MemorySegments::new());
        serve(&svc, 0, 20, true);
        drain(&svc);
        let seq = svc.write_checkpoint(&mut writer, 1, 1900).unwrap();
        assert!(ckpts.corrupt(seq, 0x40));
        let store = svc.shutdown().unwrap();

        let (svc, report) =
            DecisionService::resume(config(11), store.clone(), None, &ckpts, &store.snapshot())
                .unwrap();
        assert!(report.cold_start);
        assert_eq!(report.checkpoints_discarded, 1);
        assert_eq!(report.replayed_decisions, 20, "the whole log replays");
        assert_eq!(report.replayed_joins, 20);
        assert_eq!(report.replay_divergence, 0);
        let snap = svc.metrics();
        assert_eq!(snap.decisions, 20);
        assert_eq!(snap.join_hits, 20);
        assert_eq!(snap.restart_count, 1);
        // The cold replay reconstructed the shard streams: new decisions
        // continue with fresh, unique ids.
        let d = svc
            .decide(0, 10_000, &SimpleContext::new(vec![0.4], 3))
            .unwrap();
        assert_eq!(d.request_id & ((1 << SEQ_BITS) - 1), 10);
        svc.shutdown().unwrap();
    }

    #[test]
    fn orphan_outcomes_are_counted_lost_never_dropped() {
        // Hand-build a log whose only decision was quarantined away: the
        // outcome record survives alone.
        let store = MemorySegments::new();
        let svc = DecisionService::new(config(13), store.clone());
        let d = serve(&svc, 0, 1, true).remove(0);
        drain(&svc);
        let store = svc.shutdown().unwrap();
        // Keep only the outcome: drop the decision frame by re-writing the
        // segment list with the decision's bytes torn off the front.
        let (records, _) = store.recover();
        assert_eq!(records.len(), 2);
        let outcome_only: Vec<LogRecord> =
            records.into_iter().filter(|r| !r.is_decision()).collect();
        assert_eq!(outcome_only.len(), 1);
        let mut seg = harvest_log::segment::SegmentedLogWriter::new(
            MemorySegments::new(),
            harvest_log::segment::SegmentConfig::default(),
        );
        for r in &outcome_only {
            seg.write(r).unwrap();
        }
        let lone = seg.into_sink().unwrap();

        let ckpts = MemoryCheckpoints::new();
        let (svc, report) = DecisionService::resume(
            config(13),
            MemorySegments::new(),
            None,
            &ckpts,
            &lone.snapshot(),
        )
        .unwrap();
        assert_eq!(report.replayed_outcomes, 1);
        assert_eq!(report.orphan_outcomes, 1);
        assert_eq!(report.replayed_joins, 0);
        let snap = svc.metrics();
        assert_eq!(snap.rewards_lost, 1, "orphan reward is lost, not vanished");
        assert_eq!(snap.join_hits, 0);
        let _ = d;
        svc.shutdown().unwrap();
    }

    #[test]
    fn chaos_tear_and_corrupt_damage_the_published_checkpoint() {
        use harvest_sim_net::fault::ChaosPlan;
        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 4).unwrap();
        let plan = ChaosPlan::none()
            .fault_checkpoint_at(0, CheckpointFault::Tear { keep_frac: 0.5 })
            .fault_checkpoint_at(1, CheckpointFault::Corrupt { xor: 0x08 });
        let svc = DecisionService::with_chaos(config(17), MemorySegments::new(), plan);
        serve(&svc, 0, 5, true);
        drain(&svc);
        svc.write_checkpoint(&mut writer, 1, 400).unwrap();
        svc.write_checkpoint(&mut writer, 2, 400).unwrap();
        svc.write_checkpoint(&mut writer, 3, 400).unwrap();
        let store = svc.shutdown().unwrap();
        // Checkpoints 0 (torn) and 1 (corrupt) must both fail validation;
        // recovery lands on the clean third one.
        let (svc, report) =
            DecisionService::resume(config(17), store.clone(), None, &ckpts, &store.snapshot())
                .unwrap();
        assert_eq!(report.loaded_seq, Some(2));
        assert_eq!(report.cursor, 3);
        assert_eq!(report.checkpoints_discarded, 0, "newest is valid");
        svc.shutdown().unwrap();
    }
}
