//! Property tests for the service's two stateful invariant-carriers: the
//! reward joiners' TTL discipline and the bounded log queue's accounting.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use harvest_core::SimpleContext;
use harvest_log::checkpoint::{CheckpointWriter, MemoryCheckpoints};
use harvest_log::record::{LogRecord, OutcomeRecord};
use harvest_log::segment::{MemorySegments, SegmentConfig};
use harvest_serve::joiner::JoinerState;
use harvest_serve::logger::LoggerConfig;
use harvest_serve::supervisor::{spawn_supervised_writer, SupervisorConfig};
use harvest_serve::{
    ChaosPlan, DecisionBatch, DecisionService, JoinOutcome, RewardJoiner, ServeConfig,
    ServeMetrics, SEQ_BITS,
};

const TTL_NS: u64 = 1_000;

/// One step of joiner traffic: advance the clock by `gap`, then either
/// track or join `id`. A track is stamped `back` before the clock (zero
/// two times in three), so some deadlines land below the newest one. Small
/// id space forces duplicates and re-tracks.
fn arb_ops() -> impl Strategy<Value = Vec<(bool, u64, u64, u64)>> {
    let back = prop_oneof![Just(0u64), Just(0u64), 1u64..(2 * TTL_NS)];
    proptest::collection::vec((any::<bool>(), 0u64..12, 0u64..(TTL_NS / 2), back), 0..80)
}

/// One service call: on shard `shard` (folded into range) either decide a
/// batch of `1 + pick % 3` or reward an id chosen by `pick`, after
/// advancing the clock of the shard that owns the call by `gap`.
fn arb_service_ops() -> impl Strategy<Value = Vec<(usize, bool, u64, u64)>> {
    proptest::collection::vec(
        (0usize..8, any::<bool>(), 0u64..(TTL_NS / 2), any::<u64>()),
        0..60,
    )
}

/// The joiner law for one shard, kept independently of the service: the
/// first-track deadlines, the ids already joined, and the shard's clock.
#[derive(Default)]
struct ShardModel {
    deadline: HashMap<u64, u64>,
    joined: HashSet<u64>,
    clock: u64,
}

fn service(shards: usize, seed: u64) -> DecisionService<MemorySegments> {
    let cfg = ServeConfig::builder()
        .shards(shards)
        .master_seed(seed)
        .join_ttl_ns(TTL_NS)
        .build()
        .unwrap();
    DecisionService::new(cfg, MemorySegments::new())
}

/// Drives `ops` through `svc`, checking every reward's outcome against a
/// per-shard model, and returns the joiner state the model expects.
fn serve_against_model(
    svc: &DecisionService<MemorySegments>,
    ops: &[(usize, bool, u64, u64)],
) -> Result<JoinerState, TestCaseError> {
    let shards = svc.num_shards();
    let mut model: Vec<ShardModel> = (0..shards).map(|_| ShardModel::default()).collect();
    let ctx = SimpleContext::contextless(3);
    let mut decided: Vec<u64> = Vec::new();
    let mut out = DecisionBatch::new();
    for &(shard, is_decide, gap, pick) in ops {
        if is_decide {
            let shard = shard % shards;
            let m = &mut model[shard];
            m.clock += gap;
            let contexts = vec![ctx.clone(); 1 + (pick % 3) as usize];
            svc.decide_batch(shard, m.clock, &contexts, &mut out)
                .unwrap();
            for d in out.decisions() {
                m.deadline.insert(d.request_id, m.clock + TTL_NS);
                decided.push(d.request_id);
            }
        } else {
            let id = if !decided.is_empty() && pick % 5 != 0 {
                decided[(pick / 5) as usize % decided.len()]
            } else {
                // Never decided; may name a shard this service lacks.
                ((pick % 8) << SEQ_BITS) | (1 << 39)
            };
            let m = &mut model[(id >> SEQ_BITS) as usize % shards];
            m.clock += gap;
            let expected = match m.deadline.get(&id) {
                _ if m.joined.contains(&id) => JoinOutcome::Duplicate,
                Some(&d) if m.clock <= d => JoinOutcome::Joined,
                Some(_) => JoinOutcome::Expired,
                None => JoinOutcome::Unknown,
            };
            prop_assert_eq!(svc.reward(id, m.clock, 1.0), expected, "id {:#x}", id);
            if expected == JoinOutcome::Joined {
                m.joined.insert(id);
            }
        }
    }
    // Each shard has swept up to its own clock.
    let mut state = JoinerState::default();
    for m in &model {
        for (&id, &d) in &m.deadline {
            if m.joined.contains(&id) {
                state.joined.push(id);
            } else if d < m.clock {
                state.expired.push(id);
            } else {
                state.pending.push((id, d));
            }
        }
    }
    state.pending.sort_unstable();
    state.joined.sort_unstable();
    state.expired.sort_unstable();
    Ok(state)
}

proptest! {
    // The joiner's TTL law, against an independent model: a reward joins
    // iff its id was tracked, has not joined before, and arrives at or
    // before `track_time + TTL` — regardless of interleaving, duplicate
    // tracks, or sweep timing. No join after expiry, no duplicate joins,
    // and the metrics partition the tracked ids exactly.
    #[test]
    fn joiner_ttl_invariants(ops in arb_ops()) {
        let metrics = Arc::new(ServeMetrics::new());
        let mut joiner = RewardJoiner::new(TTL_NS, Arc::clone(&metrics));

        // The model: first-track deadlines (re-tracks never extend) and
        // the set of ids that have already joined.
        let mut deadline: HashMap<u64, u64> = HashMap::new();
        let mut joined: HashSet<u64> = HashSet::new();

        let mut now = 0u64;
        for (is_track, id, gap, back) in ops {
            now += gap;
            if is_track {
                let stamp = now.saturating_sub(back);
                joiner.track(id, stamp);
                deadline.entry(id).or_insert(stamp + TTL_NS);
            } else {
                let (outcome, record) = joiner.join(id, now, 1.0);
                let expected = match deadline.get(&id) {
                    _ if joined.contains(&id) => JoinOutcome::Duplicate,
                    Some(&d) if now <= d => JoinOutcome::Joined,
                    Some(_) => JoinOutcome::Expired,
                    None => JoinOutcome::Unknown,
                };
                prop_assert_eq!(outcome, expected, "id {} at {}", id, now);
                prop_assert_eq!(record.is_some(), outcome == JoinOutcome::Joined);
                if outcome == JoinOutcome::Joined {
                    // No duplicate joins: this must be the first.
                    prop_assert!(joined.insert(id));
                }
            }
        }

        // Every tracked id is in exactly one bucket: joined, swept as
        // expired, or still pending.
        let snap = metrics.snapshot();
        prop_assert_eq!(snap.join_hits as usize, joined.len());
        prop_assert_eq!(
            snap.join_hits + snap.timed_out_decisions + joiner.pending_len() as u64,
            deadline.len() as u64
        );
        // Sweeping never invents expiries: only ids whose deadline truly
        // passed can be counted as timed out.
        let truly_expired = deadline
            .iter()
            .filter(|(id, &d)| d < now && !joined.contains(id))
            .count() as u64;
        prop_assert!(snap.timed_out_decisions <= truly_expired);
    }

    // The service's joiners, one per shard, against a per-shard model:
    // every reward's outcome, and the merged checkpoint state, are what
    // each shard's own clock and traffic dictate — however calls on
    // different shards interleave.
    #[test]
    fn shard_joiners_match_a_per_shard_model(
        shards in 1usize..5,
        seed in any::<u64>(),
        ops in arb_service_ops(),
    ) {
        let svc = service(shards, seed);
        let expected = serve_against_model(&svc, &ops)?;
        let snap = svc.metrics();
        prop_assert_eq!(snap.join_hits as usize, expected.joined.len());
        prop_assert_eq!(snap.timed_out_decisions as usize, expected.expired.len());
        prop_assert_eq!(svc.checkpoint_state(0).joiner, expected);
        svc.shutdown().unwrap();
    }

    // The merged joiner state survives a checkpoint and restore byte for
    // byte, whatever the shard count: restore splits it back by shard, and
    // the next capture merges it into the same sorted state.
    #[test]
    fn joiner_checkpoint_restores_byte_identically(
        which in 0usize..3,
        seed in any::<u64>(),
        ops in arb_service_ops(),
    ) {
        let shards = [1, 2, 8][which];
        let svc = service(shards, seed);
        serve_against_model(&svc, &ops)?;
        let ckpts = MemoryCheckpoints::new();
        let mut writer = CheckpointWriter::new(ckpts.clone(), 2).unwrap();
        svc.write_checkpoint(&mut writer, 0, 0).unwrap();
        let before = svc.checkpoint_state(0);
        let segments = svc.shutdown().unwrap().snapshot();
        let cfg = ServeConfig::builder()
            .shards(shards)
            .master_seed(seed)
            .join_ttl_ns(TTL_NS)
            .build()
            .unwrap();
        let (resumed, report) =
            DecisionService::resume(cfg, MemorySegments::new(), None, &ckpts, &segments).unwrap();
        prop_assert!(!report.cold_start);
        prop_assert_eq!(report.replayed_decisions + report.replayed_outcomes, 0);
        let after = resumed.checkpoint_state(0);
        prop_assert_eq!(
            serde_json::to_string(&after.joiner).unwrap(),
            serde_json::to_string(&before.joiner).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&after.shards).unwrap(),
            serde_json::to_string(&before.shards).unwrap()
        );
        resumed.shutdown().unwrap();
    }

    // The log pipeline's conservation law, under arbitrary kill and tear
    // schedules: every record offered counts `enqueued`, and once drained
    // `enqueued == written + dropped + quarantined` — with recovery
    // agreeing exactly on the written and quarantined counts. A generous
    // restart budget plus a blocking queue means kills never drop.
    #[test]
    fn log_pipeline_conserves_records_under_chaos(
        capacity in 1usize..8,
        n in 0usize..200,
        kills in proptest::collection::btree_set(0u64..220, 0..3),
        tears in proptest::collection::vec((0u64..220, 0.0f64..1.0), 0..3),
    ) {
        let metrics = Arc::new(ServeMetrics::new());
        let cfg = LoggerConfig::builder()
            .capacity(capacity)
            .segment(SegmentConfig { max_records: 16, max_bytes: usize::MAX, max_span_ns: u64::MAX })
            .build();
        let mut plan = ChaosPlan::none();
        for k in &kills {
            plan = plan.kill_writer_at(*k);
        }
        for (idx, keep) in &tears {
            plan = plan.tear_writer_at(*idx, *keep);
        }
        let (logger, writer) = spawn_supervised_writer(
            cfg,
            SupervisorConfig::builder()
                .max_restarts(16)
                .backoff_base_ms(1)
                .backoff_cap_ms(2)
                .build(),
            1,
            Arc::clone(&metrics),
            Some(Arc::new(plan)),
            MemorySegments::new(),
        );
        for id in 0..n as u64 {
            logger.log(LogRecord::Outcome(OutcomeRecord {
                request_id: id,
                timestamp_ns: id,
                reward: 0.0,
            }));
        }
        drop(logger);
        let store = writer.finish().unwrap();

        let snap = metrics.snapshot();
        prop_assert_eq!(snap.log_enqueued, n as u64);
        prop_assert_eq!(
            snap.log_enqueued,
            snap.log_written + snap.log_dropped + snap.log_quarantined
        );
        prop_assert_eq!(snap.log_backlog, 0);
        // The restart budget (16) exceeds any schedule here (≤ 6
        // crashes), so a blocking queue never drops.
        prop_assert_eq!(snap.log_dropped, 0);
        // Recovery agrees with the runtime ledger record for record.
        let (records, stats) = store.recover();
        prop_assert_eq!(records.len() as u64, snap.log_written);
        prop_assert_eq!(stats.recovered as u64, snap.log_written);
        prop_assert_eq!(stats.quarantined_records as u64, snap.log_quarantined);
    }
}
