//! Batch/single equivalence: `decide_batch` is *semantically* the same as
//! calling `decide` once per context, and these tests hold it to the
//! strongest version of that claim — a same-seed batched run and
//! single-call run must produce
//!
//! 1. a byte-identical recovered decision log (segment recovery flattens
//!    batch frames back into individual decision records), and
//! 2. an identical `ServeMetrics` conservation ledger,
//!
//! both on a clean run and under an injected `ChaosPlan` (writer kills,
//! reward drops/delays, shard poisoning). Chaos constraints the batch API
//! documents are respected here: at most one poison per batch id-range
//! (several collapse into one lock recovery), no torn writes (a torn batch
//! frame's at-rest quarantine accounting legitimately differs from the
//! single-call run's — DESIGN.md §10), and breaker thresholds high enough
//! that window-boundary skew mid-batch cannot change which policy serves.

use harvest::core::{Context, SimpleContext};
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::serve::{
    BreakerConfig, ChaosPlan, DecisionBatch, DecisionService, GateConfig, LoggerConfig,
    ServeConfig, SupervisorConfig, TrainerConfig,
};
use harvest::simnet::rng::fork_rng;
use rand::Rng;

const EPSILON: f64 = 0.2;
const ACTIONS: usize = 3;
const SHARDS: usize = 2;
const BATCH: usize = 16;
const STEPS: usize = 64; // 64 batches of 16 = 1024 decisions

fn config(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .shards(SHARDS)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("batch-eq-test")
        .logger(
            LoggerConfig::builder()
                .capacity(256)
                .segment(SegmentConfig {
                    max_records: 96,
                    max_bytes: 64 * 1024,
                    max_span_ns: u64::MAX,
                })
                .build(),
        )
        .supervisor(
            SupervisorConfig::builder()
                .max_restarts(64)
                .backoff_base_ms(1)
                .backoff_cap_ms(2)
                .build(),
        )
        // Thresholds far past anything this workload can reach: the breaker
        // never trips, so mid-batch window-boundary skew (the one documented
        // divergence between the batched and single-call breaker walk)
        // cannot change which policy serves a slot.
        .breaker(
            BreakerConfig::builder()
                .window(1 << 30)
                .trip_faults(1 << 30)
                .rearm_healthy(1)
                .build()
                .expect("valid breaker config"),
        )
        .trainer(
            TrainerConfig::builder()
                .lambda(1e-3)
                // Single-candidate gate: the k=16 simultaneous CI would
                // (correctly) refuse to promote on this small a midpoint
                // harvest, and the second half needs the swapped policy.
                .gate(GateConfig::builder().portfolio(1).min_samples(200).build())
                .build(),
        )
        .build()
        .expect("valid test config")
}

/// The chaos schedule both runs share: two writer kills, reward drops and a
/// delay, and two shard poisonings in *distinct* batch id-ranges (40 falls
/// in batch 2, 400 in batch 25) so both runs pay exactly one lock recovery
/// per poison. Deliberately no tears and no at-rest damage.
fn chaos_plan() -> ChaosPlan {
    ChaosPlan::none()
        .kill_writer_at(100)
        .kill_writer_at(700)
        .drop_reward_at(50)
        .drop_reward_at(333)
        .delay_reward_at(200, 250_000)
        .poison_shard_at(40)
        .poison_shard_at(400)
}

/// How a run serves each group of [`BATCH`] same-instant contexts.
#[derive(Debug, Clone, Copy)]
enum Serve {
    /// One `decide` call per context.
    Single,
    /// `decide_batch` over consecutive chunks of this many contexts.
    Batches(usize),
}

struct RunResult {
    /// Every recovered record, individually rendered (`Debug` prints each
    /// float in its shortest round-trip form, so distinct values differ).
    recovered: Vec<String>,
    quarantined_records: usize,
    /// The full metrics snapshot, serialized.
    metrics: String,
}

/// Drives the seeded workload — one batch of contexts per logical
/// millisecond, rewards after the batch, one training round midway — either
/// through `decide_batch` or through the equivalent `decide` loop. The
/// single-call twin stamps every decision in a group with the *same*
/// `now_ns` and rewards after the group, exactly as the batch path does, so
/// any byte that differs downstream is a batching bug, not a workload
/// artifact.
fn run(seed: u64, serve: Serve, chaos: Option<ChaosPlan>) -> RunResult {
    let store = MemorySegments::new();
    let svc = match chaos {
        Some(plan) => DecisionService::with_chaos(config(seed), store.clone(), plan),
        None => DecisionService::new(config(seed), store.clone()),
    };
    let mut traffic = fork_rng(seed, "batch-eq-traffic");
    let mut now_ns = 0u64;
    let mut out = DecisionBatch::with_capacity(BATCH);
    for step in 0..STEPS {
        if step == STEPS / 2 {
            while svc.metrics().log_backlog > 0 {
                std::thread::yield_now();
            }
            let report = svc
                .train_and_maybe_promote(&store.snapshot())
                .expect("no trainer chaos scheduled");
            assert!(
                report.gate.promoted,
                "seed {seed}: midpoint round must promote for the second half \
                 to exercise the swapped policy (gate: {:?})",
                report.gate
            );
        }
        now_ns += 1_000_000;
        let shard = step % SHARDS;
        let contexts: Vec<SimpleContext> = (0..BATCH)
            .map(|_| {
                let x: f64 = traffic.gen_range(0.0..1.0);
                SimpleContext::new(vec![x], ACTIONS)
            })
            .collect();
        let decisions: Vec<_> = match serve {
            Serve::Batches(size) => contexts
                .chunks(size)
                .flat_map(|chunk| {
                    svc.decide_batch(shard, now_ns, chunk, &mut out)
                        .expect("batch must serve");
                    out.decisions().to_vec()
                })
                .collect(),
            Serve::Single => contexts
                .iter()
                .map(|ctx| svc.decide(shard, now_ns, ctx).expect("single must serve"))
                .collect(),
        };
        for (d, ctx) in decisions.iter().zip(&contexts) {
            let x = ctx.shared_features()[0];
            let reward = if d.action == 0 { x } else { 1.0 - x };
            svc.reward(d.request_id, now_ns + 500_000, reward);
        }
    }
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    let metrics = serde_json::to_string(&svc.metrics()).expect("snapshot serializes");
    svc.shutdown().expect("clean shutdown");
    let (records, stats) = store.recover();
    RunResult {
        recovered: records.iter().map(|r| format!("{r:?}")).collect(),
        quarantined_records: stats.quarantined_records,
        metrics,
    }
}

/// Clean-run equivalence: recovery flattens the batched run's frames into
/// the exact record stream the single-call run persisted, and every counter
/// in the conservation ledger agrees.
#[test]
fn batched_run_recovers_byte_identical_log_and_ledger() {
    let batched = run(17, Serve::Batches(BATCH), None);
    let single = run(17, Serve::Single, None);
    assert_eq!(batched.recovered.len(), single.recovered.len());
    assert!(!batched.recovered.is_empty());
    assert_eq!(
        batched.recovered, single.recovered,
        "batched and single-call recovered logs differ"
    );
    assert_eq!(batched.quarantined_records, 0);
    assert_eq!(single.quarantined_records, 0);
    assert_eq!(
        batched.metrics, single.metrics,
        "batched and single-call metrics ledgers differ"
    );
    // Batches of one are single calls.
    let ones = run(17, Serve::Batches(1), None);
    assert_eq!(ones.recovered, single.recovered);
    assert_eq!(ones.metrics, single.metrics);
    // And the log genuinely depends on the seed.
    let other = run(18, Serve::Batches(BATCH), None);
    assert_ne!(batched.recovered, other.recovered);
}

/// The same equivalence under injected chaos: writer kills (survived via
/// supervisor restarts), reward drops and delays, and shard poisonings all
/// land at the same logical indices in both runs, so the recovered log and
/// the full ledger — including `writer_restarts`, `rewards_lost`, and
/// `shard_wedges` — still agree byte for byte.
#[test]
fn batched_run_stays_equivalent_under_chaos() {
    let batched = run(29, Serve::Batches(BATCH), Some(chaos_plan()));
    let single = run(29, Serve::Single, Some(chaos_plan()));
    assert_eq!(
        batched.recovered, single.recovered,
        "chaos: batched and single-call recovered logs differ"
    );
    assert_eq!(batched.quarantined_records, single.quarantined_records);
    assert_eq!(
        batched.metrics, single.metrics,
        "chaos: batched and single-call metrics ledgers differ"
    );
    let ones = run(29, Serve::Batches(1), Some(chaos_plan()));
    assert_eq!(ones.recovered, single.recovered);
    assert_eq!(ones.metrics, single.metrics);
}
