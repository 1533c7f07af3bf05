//! Warm restart: capture, persist, and restore the durable control plane.
//!
//! The decision log ([`harvest_log::segment`]) already makes the *data*
//! crash-safe; this module makes the *control plane* restartable. A
//! [`ServiceCheckpoint`] is everything the service cannot rederive from
//! config alone: the incumbent policy version, the per-shard RNG stream
//! positions and sequence counters, the shard joiners' pending sets and
//! tombstones (merged into one sorted state), the conservation-ledger
//! counters, and the chaos scheduling cursors. It is encoded with the
//! record codec's [`Encoder`]/[`Decoder`] primitives
//! ([`harvest_log::codec`]) and travels inside the CRC-framed checkpoint
//! blobs of [`harvest_log::checkpoint`]. The payload:
//!
//! ```text
//! checkpoint := CODEC_VERSION: u8 | cursor: u64 | incumbent | swaps: u64
//!               | n: varint | n × shard | joiner | counters
//!               | promoted_rounds: u64 | train_rounds: u64
//!               | decision_seq: u64 | reward_seq: u64
//! incumbent  := generation: u64 | name: str | policy
//! policy     := 0                                    (uniform)
//!             | 1 | scorer                           (greedy)
//! scorer     := 0 | rows: varint | rows × f64s       (per-action weights)
//!             | 1 | f64s                             (pooled weights)
//! shard      := rng: 4 × u64 | seq: u64 | last_ns
//! last_ns    := 0 | 1 | u64                          (absent | present)
//! joiner     := n: varint | n × (request_id: u64 | deadline: u64)  (pending)
//!               | ids (joined) | ids (expired)
//! ids        := n: varint | n × request_id: u64
//! counters   := n: varint | n × u64                  (counter table order)
//! ```
//!
//! Every collection is sorted at capture and weights are raw `f64` bits,
//! so the same logical state always encodes to the same bytes, and `∞`,
//! NaN and `-0.0` weights come back exactly. Decoding is strict: an unknown
//! version, policy, scorer or stamp flag byte, a counter count other than
//! the table's row count, a torn payload or a trailing byte all reject it.
//!
//! Recovery ([`DecisionService::resume`]) is **checkpoint + deterministic
//! replay**:
//!
//! 1. Load the newest checkpoint that validates *and decodes*; torn,
//!    corrupt, and undecodable ones are counted discarded, never silently
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

use harvest_core::scorer::LinearScorer;
use harvest_log::checkpoint::{
    load_latest_filtered, CheckpointStore, CheckpointWriter, CHECKPOINT_HEADER_LEN,
};
use harvest_log::codec::{Decoder, Encoder, CODEC_VERSION};
use harvest_log::record::{DecisionRecord, LogRecord};
use harvest_log::scavenge::context_of;
use harvest_log::segment::{recover_segments, SegmentSink};
use harvest_sim_net::fault::{ChaosPlan, CheckpointFault};
use serde::Serialize;

use crate::engine::{ShardState, SEQ_BITS};
use crate::error::{lock_recovering, ServeError};
use crate::joiner::{JoinOutcome, JoinerState};
use crate::metrics::MetricsState;
use crate::registry::{PolicyVersion, ServePolicy};
use crate::service::{DecisionService, ServeConfig};
use crate::supervisor::WriterResume;

/// The durable control-plane state: everything a warm restart needs that
/// config cannot rederive. Encoded as the binary payload of a CRC-framed
/// checkpoint blob (grammar in the [module docs](crate::recovery)); all
/// collections are sorted at capture, so the same logical state always
/// produces byte-identical payloads.
#[derive(Debug, Clone)]
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

const POLICY_UNIFORM: u8 = 0;
const POLICY_GREEDY: u8 = 1;
const SCORER_PER_ACTION: u8 = 0;
const SCORER_POOLED: u8 = 1;

/// Bytes of the shortest encoded shard: four RNG words, a sequence number
/// and an absent stamp.
const MIN_SHARD_LEN: usize = 5 * 8 + 1;

impl ServiceCheckpoint {
    /// The checkpoint payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut enc = Encoder::new(&mut out);
        enc.put_u8(CODEC_VERSION);
        enc.put_u64(self.cursor);
        enc.put_u64(self.incumbent.generation);
        enc.put_str(&self.incumbent.name);
        match &self.incumbent.policy {
            ServePolicy::Uniform => enc.put_u8(POLICY_UNIFORM),
            ServePolicy::Greedy(LinearScorer::PerAction { weights }) => {
                enc.put_u8(POLICY_GREEDY);
                enc.put_u8(SCORER_PER_ACTION);
                enc.put_len(weights.len());
                for row in weights {
                    enc.put_f64s(row);
                }
            }
            ServePolicy::Greedy(LinearScorer::Pooled { weights }) => {
                enc.put_u8(POLICY_GREEDY);
                enc.put_u8(SCORER_POOLED);
                enc.put_f64s(weights);
            }
        }
        enc.put_u64(self.swaps);
        enc.put_len(self.shards.len());
        for shard in &self.shards {
            for word in shard.rng {
                enc.put_u64(word);
            }
            enc.put_u64(shard.seq);
            match shard.last_ns {
                None => enc.put_u8(0),
                Some(ns) => {
                    enc.put_u8(1);
                    enc.put_u64(ns);
                }
            }
        }
        enc.put_len(self.joiner.pending.len());
        for &(id, deadline) in &self.joiner.pending {
            enc.put_u64(id);
            enc.put_u64(deadline);
        }
        put_u64s(&mut enc, &self.joiner.joined);
        put_u64s(&mut enc, &self.joiner.expired);
        put_counters(&mut enc, &self.counters);
        for cursor in [
            self.promoted_rounds,
            self.train_rounds,
            self.decision_seq,
            self.reward_seq,
        ] {
            enc.put_u64(cursor);
        }
        out
    }

    /// Decodes a payload [`encode`](Self::encode) wrote; `None` for
    /// anything else, including a payload with bytes left over.
    pub(crate) fn decode(payload: &[u8]) -> Option<Self> {
        let mut dec = Decoder::new(payload);
        if dec.take_u8()? != CODEC_VERSION {
            return None;
        }
        // Struct fields are evaluated in the order written, which is the
        // payload's order.
        let ckpt = ServiceCheckpoint {
            cursor: dec.take_u64()?,
            incumbent: PolicyVersion {
                generation: dec.take_u64()?,
                name: dec.take_str()?.to_string(),
                policy: take_policy(&mut dec)?,
            },
            swaps: dec.take_u64()?,
            shards: {
                let n = dec.take_count(MIN_SHARD_LEN)?;
                (0..n)
                    .map(|_| take_shard(&mut dec))
                    .collect::<Option<_>>()?
            },
            joiner: JoinerState {
                pending: {
                    let n = dec.take_count(16)?;
                    (0..n)
                        .map(|_| Some((dec.take_u64()?, dec.take_u64()?)))
                        .collect::<Option<_>>()?
                },
                joined: take_u64s(&mut dec)?,
                expired: take_u64s(&mut dec)?,
            },
            counters: take_counters(&mut dec)?,
            promoted_rounds: dec.take_u64()?,
            train_rounds: dec.take_u64()?,
            decision_seq: dec.take_u64()?,
            reward_seq: dec.take_u64()?,
        };
        dec.finish()?;
        Some(ckpt)
    }
}

fn take_policy(dec: &mut Decoder<'_>) -> Option<ServePolicy> {
    match dec.take_u8()? {
        POLICY_UNIFORM => Some(ServePolicy::Uniform),
        POLICY_GREEDY => Some(ServePolicy::Greedy(match dec.take_u8()? {
            SCORER_PER_ACTION => {
                let rows = dec.take_count(1)?;
                LinearScorer::PerAction {
                    weights: (0..rows).map(|_| dec.take_f64s()).collect::<Option<_>>()?,
                }
            }
            SCORER_POOLED => LinearScorer::Pooled {
                weights: dec.take_f64s()?,
            },
            _ => return None,
        })),
        _ => None,
    }
}

fn take_shard(dec: &mut Decoder<'_>) -> Option<ShardState> {
    Some(ShardState {
        rng: [
            dec.take_u64()?,
            dec.take_u64()?,
            dec.take_u64()?,
            dec.take_u64()?,
        ],
        seq: dec.take_u64()?,
        last_ns: match dec.take_u8()? {
            0 => None,
            1 => Some(dec.take_u64()?),
            _ => return None,
        },
    })
}

fn put_u64s(enc: &mut Encoder<'_>, xs: &[u64]) {
    enc.put_len(xs.len());
    for &x in xs {
        enc.put_u64(x);
    }
}

fn take_u64s(dec: &mut Decoder<'_>) -> Option<Vec<u64>> {
    let n = dec.take_count(8)?;
    (0..n).map(|_| dec.take_u64()).collect()
}

/// Appends the counter rows, count first, in counter-table order.
pub(crate) fn put_counters(enc: &mut Encoder<'_>, counters: &MetricsState) {
    put_u64s(enc, &counters.rows());
}

/// Reads what [`put_counters`] wrote; `None` unless the count is the
/// table's row count.
pub(crate) fn take_counters(dec: &mut Decoder<'_>) -> Option<MetricsState> {
    MetricsState::from_rows(&take_u64s(dec)?)
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
    /// Damaged or undecodable checkpoints skipped before a valid one.
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
        let payload = state.encode();
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
        let (loaded, ckpt_rec) =
            load_latest_filtered(checkpoints, |_, payload| ServiceCheckpoint::decode(payload));
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
    use harvest_log::checkpoint::{encode_checkpoint, MemoryCheckpoints};
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

    /// Weights JSON could not carry: both infinities, a quiet NaN with a
    /// payload, and a negative zero.
    fn special_weights() -> Vec<f64> {
        vec![
            f64::INFINITY,
            f64::from_bits(0x7ff8_0000_0000_0001),
            -0.0,
            f64::NEG_INFINITY,
        ]
    }

    fn weight_bits(policy: &ServePolicy) -> Vec<u64> {
        match policy {
            ServePolicy::Uniform => Vec::new(),
            ServePolicy::Greedy(LinearScorer::PerAction { weights }) => {
                weights.iter().flatten().map(|w| w.to_bits()).collect()
            }
            ServePolicy::Greedy(LinearScorer::Pooled { weights }) => {
                weights.iter().map(|w| w.to_bits()).collect()
            }
        }
    }

    #[test]
    fn checkpoint_state_round_trips_through_the_codec() {
        let svc = DecisionService::new(config(3), MemorySegments::new());
        serve(&svc, 0, 10, true);
        // One decision left unrewarded keeps a pending join in the state.
        serve(&svc, 10, 1, false);
        drain(&svc);
        svc.registry.promote(
            ServePolicy::Greedy(LinearScorer::Pooled {
                weights: special_weights(),
            }),
            "pooled",
        );
        let state = svc.checkpoint_state(7);
        let payload = state.encode();
        let back = ServiceCheckpoint::decode(&payload).expect("payload decodes");
        assert_eq!(back.cursor, 7);
        assert_eq!(back.incumbent.generation, 1);
        assert_eq!(back.incumbent.name, "pooled");
        assert_eq!(
            weight_bits(&back.incumbent.policy),
            weight_bits(&state.incumbent.policy)
        );
        assert_eq!(back.swaps, 1);
        assert_eq!(back.shards, state.shards);
        assert_eq!(back.joiner, state.joiner);
        assert_eq!(back.joiner.pending.len(), 1);
        assert_eq!(back.counters, state.counters);
        assert_eq!(back.decision_seq, 11);
        assert_eq!(back.reward_seq, 10);
        assert_eq!(back.encode(), payload);
        // Same quiescent state ⇒ byte-identical payload.
        assert_eq!(payload, svc.checkpoint_state(7).encode());
        svc.shutdown().unwrap();
    }

    #[test]
    fn non_finite_and_negative_zero_weights_survive_a_warm_restart() {
        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 3).unwrap();
        let svc = DecisionService::new(config(19), MemorySegments::new());
        serve(&svc, 0, 10, true);
        drain(&svc);
        let policy = ServePolicy::Greedy(LinearScorer::PerAction {
            weights: vec![special_weights(), vec![1.0, -0.0, f64::NAN, 0.0]],
        });
        let generation = svc.registry.promote(policy.clone(), "cb-round-1");
        svc.write_checkpoint(&mut writer, 1, 900).unwrap();
        let store = svc.shutdown().unwrap();

        let (svc, report) =
            DecisionService::resume(config(19), store.clone(), None, &ckpts, &store.snapshot())
                .unwrap();
        assert!(!report.cold_start, "the promoted policy must not be lost");
        assert_eq!(report.checkpoints_discarded, 0);
        assert_eq!(report.loaded_seq, Some(0));
        let incumbent = svc.registry.current();
        assert_eq!(incumbent.generation, generation);
        assert_eq!(incumbent.name, "cb-round-1");
        assert_eq!(weight_bits(&incumbent.policy), weight_bits(&policy));
        svc.shutdown().unwrap();
    }

    /// A checkpoint the JSON-era build wrote for a fresh one-shard
    /// `recovery-test` service with seed 3, cursor 1.
    const JSON_ERA_PAYLOAD: &str = concat!(
        r#"{"cursor":1,"incumbent":{"generation":0,"name":"bootstrap-uniform","policy":"Uniform"},"#,
        r#""swaps":0,"shards":[{"rng":[14345945268132579830,8364608856705275009,"#,
        r#"3904384578749502070,12150278014594303494],"seq":0,"last_ns":null}],"#,
        r#""joiner":{"pending":[],"joined":[],"expired":[]},"counters":{"decisions":0,"#,
        r#""explorations":0,"log_enqueued":0,"log_written":0,"log_dropped":0,"#,
        r#""log_quarantined":0,"join_hits":0,"join_duplicates":0,"join_late":0,"#,
        r#""join_unknown":0,"timed_out_decisions":0,"swaps":0,"#,
        r#""first_decision_ns":18446744073709551615,"last_decision_ns":0,"#,
        r#""lock_recoveries":0,"shard_wedges":0,"writer_restarts":0,"trainer_crashes":0,"#,
        r#""breaker_trips":0,"breaker_rearms":0,"degraded_decisions":0,"rewards_lost":0,"#,
        r#""admission_shed":0,"watchdog_faults":0,"checkpoints_written":0,"#,
        r#""checkpoints_discarded":0,"last_checkpoint_ns":18446744073709551615,"#,
        r#""recovered_records":0,"replayed_joins":0,"restart_count":0},"#,
        r#""promoted_rounds":0,"train_rounds":0,"decision_seq":0,"reward_seq":0}"#,
    );

    #[test]
    fn malformed_payloads_are_discarded_and_the_older_checkpoint_loads() {
        let mut cfg = config(3);
        cfg.engine.shards = 1;
        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 3).unwrap();
        let svc = DecisionService::new(cfg.clone(), MemorySegments::new());
        let name = "cb-round-1";
        svc.registry.promote(
            ServePolicy::Greedy(LinearScorer::PerAction {
                weights: vec![vec![0.5, -1.0]; 3],
            }),
            name,
        );
        svc.write_checkpoint(&mut writer, 1, 400).unwrap();
        let older = ckpts.raw(0).unwrap();
        let good = svc.checkpoint_state(2).encode();
        let segments = svc.shutdown().unwrap().snapshot();

        // Offsets into `good`: the policy and scorer tags follow the
        // version, cursor, generation and name; the counter count sits
        // before the rows and the four trailing cursors.
        let policy_tag = 1 + 8 + 8 + 1 + name.len();
        let rows = MetricsState::default().rows().len();
        let count_at = good.len() - 4 * 8 - rows * 8 - 1;
        assert_eq!(usize::from(good[count_at]), rows);
        let with = |at: usize, byte: u8| {
            let mut p = good.clone();
            p[at] = byte;
            p
        };
        let mut one_row_short = with(count_at, rows as u8 - 1);
        one_row_short.drain(count_at + 1..count_at + 9);
        let mut one_row_long = with(count_at, rows as u8 + 1);
        one_row_long.splice(count_at + 1..count_at + 1, [0; 8]);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("truncated", good[..good.len() / 2].to_vec()),
            ("last byte torn", good[..good.len() - 1].to_vec()),
            ("trailing byte", [good.as_slice(), &[0]].concat()),
            ("unknown version", with(0, CODEC_VERSION + 1)),
            ("unknown policy tag", with(policy_tag, 2)),
            ("unknown scorer tag", with(policy_tag + 1, 2)),
            ("one counter row short", one_row_short),
            ("one counter row long", one_row_long),
            ("JSON-era payload", JSON_ERA_PAYLOAD.as_bytes().to_vec()),
        ];

        let resume_with_newest = |payload: &[u8]| {
            let mut store = MemoryCheckpoints::new();
            store.publish(0, &older).unwrap();
            store.publish(1, &encode_checkpoint(1, payload)).unwrap();
            let (svc, report) = DecisionService::resume(
                cfg.clone(),
                MemorySegments::new(),
                None,
                &store,
                &segments,
            )
            .unwrap();
            svc.shutdown().unwrap();
            report
        };
        let control = resume_with_newest(&good);
        assert_eq!((control.loaded_seq, control.cursor), (Some(1), 2));
        for (label, payload) in cases {
            assert!(ServiceCheckpoint::decode(&payload).is_none(), "{label}");
            let report = resume_with_newest(&payload);
            assert!(!report.cold_start, "{label}");
            assert_eq!(report.checkpoints_discarded, 1, "{label}");
            assert_eq!(report.loaded_seq, Some(0), "{label}");
            assert_eq!(report.cursor, 1, "{label}");
        }
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
    fn a_decision_with_a_non_finite_feature_still_replays() {
        // The harvest join skips such a decision, but it drew from its
        // shard's stream, so replay must re-draw it like any other.
        let nan = SimpleContext::new(vec![f64::NAN], 3);
        let ref_svc = DecisionService::new(config(9), MemorySegments::new());
        let mut expected = serve(&ref_svc, 0, 10, true);
        expected.push(ref_svc.decide(0, 1_000, &nan).unwrap());
        expected.extend(serve(&ref_svc, 11, 15, true));
        ref_svc.shutdown().unwrap();

        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 3).unwrap();
        let svc = DecisionService::new(config(9), MemorySegments::new());
        let mut got = serve(&svc, 0, 10, true);
        drain(&svc);
        svc.write_checkpoint(&mut writer, 1, 9 * 100).unwrap();
        got.push(svc.decide(0, 1_000, &nan).unwrap());
        got.extend(serve(&svc, 11, 5, true));
        drain(&svc);
        let store = svc.shutdown().unwrap();

        let (svc, report) =
            DecisionService::resume(config(9), store.clone(), None, &ckpts, &store.snapshot())
                .unwrap();
        assert_eq!(report.replayed_decisions, 6);
        assert_eq!(report.replay_divergence, 0);
        got.extend(serve(&svc, 16, 10, true));
        assert_eq!(got, expected);
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
