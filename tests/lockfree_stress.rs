//! Seeded concurrency stress over the hot path.
//!
//! The per-shard SPSC log rings and the atomic queue budget rest on
//! ordering arguments, and the shard locks and the policy registry on the
//! claim that the hot path keeps them uncontended — so this test hammers
//! all of them at once and then audits the books:
//!
//! * four shard-affine workers serve singles and batches on their own
//!   shards while a **rogue** thread violates affinity on shard 0 (the
//!   contended shard lock must stay correct, not just the happy path);
//! * a promoter storms the registry with hot-swaps the whole time, so
//!   every shard's cached-generation check races the swaps;
//! * a chaos thread arms shard wedges mid-traffic, and a checkpointer
//!   concurrently snapshots shard states through the same locks;
//! * the writer thread drains the ticket-ordered rings underneath it all.
//!
//! A second storm drives the whole service: shard-affine callers decide in
//! batches and reward on their own shard's joiner after a lag, while a
//! rogue thread rewards ids of every shard, twice each. Every reward
//! offered must land in exactly one join counter, every join must reach the
//! log as one outcome record, and the log ledger must balance.
//!
//! When the dust settles, conservation must hold exactly: every decision
//! was offered to the log once (`log_enqueued == decisions`), nothing
//! vanished (`enqueued == written + dropped + quarantined`), the recovered
//! segment stream matches the written count, wedge recoveries reconcile
//! with the faults armed, and the registry generation equals the number of
//! promotions. CI runs this under `-C debug-assertions` in release mode so
//! the internal `debug_assert!`s in the ring module stay armed under
//! optimized codegen.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use harvest::core::SimpleContext;
use harvest::logs::record::LogRecord;
use harvest::logs::segment::MemorySegments;
use harvest::serve::{
    spawn_supervised_writer, DecisionBatch, DecisionEngine, DecisionService, EngineConfig,
    LoggerConfig, PolicyRegistry, ServeConfig, ServeMetrics, ServePolicy, SupervisorConfig,
    SEQ_BITS,
};

const SHARDS: usize = 4;
const AFFINE_DECISIONS: usize = 2_000; // per worker, singles + batches mixed
const ROGUE_DECISIONS: usize = 1_000;
const BATCH: usize = 8;
const PROMOTIONS: u64 = 200;
const WEDGES: usize = 64;
const ACTIONS: usize = 4;

struct Harness {
    engine: Arc<DecisionEngine>,
    registry: Arc<PolicyRegistry>,
    metrics: Arc<ServeMetrics>,
}

fn harness(capacity: usize) -> (Harness, impl FnOnce() -> (u64, u64)) {
    let metrics = Arc::new(ServeMetrics::new());
    let registry = Arc::new(PolicyRegistry::new(ServePolicy::Uniform, "v0"));
    let logger_cfg = LoggerConfig::builder().capacity(capacity).build();
    let (logger, writer) = spawn_supervised_writer(
        logger_cfg,
        SupervisorConfig::default(),
        SHARDS,
        Arc::clone(&metrics),
        None,
        MemorySegments::new(),
    );
    let engine_cfg = EngineConfig::builder()
        .shards(SHARDS)
        .epsilon(0.2)
        .master_seed(42)
        .component("stress")
        .build()
        .unwrap();
    let engine = Arc::new(DecisionEngine::new(
        &engine_cfg,
        Arc::clone(&registry),
        Arc::clone(&metrics),
        logger,
    ));
    let finish = {
        let engine = Arc::clone(&engine);
        move || {
            drop(engine);
            let store = writer.finish().unwrap();
            let (records, stats) = store.recover();
            (records.len() as u64, stats.quarantined_records as u64)
        }
    };
    (
        Harness {
            engine,
            registry,
            metrics,
        },
        finish,
    )
}

/// Every thread class at once; exact conservation afterward. The log
/// queue blocks while full, so every served decision must persist.
fn run_storm(capacity: usize) {
    let (h, finish) = harness(capacity);
    let ctx = SimpleContext::new(vec![0.5, -0.25], ACTIONS);
    let contexts: Vec<SimpleContext> = (0..BATCH).map(|_| ctx.clone()).collect();
    let served = AtomicU64::new(0);
    let wedges_armed = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Shard-affine workers: the intended deployment, singles + batches.
        for t in 0..SHARDS {
            let engine = &h.engine;
            let ctx = &ctx;
            let contexts = &contexts;
            let served = &served;
            s.spawn(move || {
                let mut out = DecisionBatch::with_capacity(BATCH);
                let mut i = 0usize;
                let mut now = 0u64;
                while i < AFFINE_DECISIONS {
                    if i.is_multiple_of(7) && i + BATCH <= AFFINE_DECISIONS {
                        engine.decide_batch(t, now, contexts, &mut out).unwrap();
                        served.fetch_add(out.len() as u64, Ordering::Relaxed);
                        i += BATCH;
                    } else {
                        engine.decide(t, now, ctx).unwrap();
                        served.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                    now += 10;
                }
            });
        }
        // Rogue: violates shard affinity on shard 0 the whole time — the
        // shard lock must keep decide() correct under contention.
        {
            let engine = &h.engine;
            let ctx = &ctx;
            let served = &served;
            s.spawn(move || {
                for i in 0..ROGUE_DECISIONS {
                    engine.decide(0, i as u64 * 3, ctx).unwrap();
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Promoter: hot-swap storm against the shards' policy caches.
        {
            let registry = &h.registry;
            s.spawn(move || {
                for g in 1..=PROMOTIONS {
                    let got = registry.promote(ServePolicy::Uniform, format!("v{g}"));
                    assert_eq!(got, g, "promotions are strictly serialized");
                    std::thread::yield_now();
                }
            });
        }
        // Chaos: arm shard wedges mid-traffic.
        {
            let engine = &h.engine;
            let wedges_armed = &wedges_armed;
            let done = &done;
            s.spawn(move || {
                for i in 0..WEDGES {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    assert!(engine.poison_shard(i % SHARDS));
                    wedges_armed.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }
        // Checkpointer: concurrent shard-state snapshots through the locks.
        {
            let engine = &h.engine;
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let states = engine.shard_states();
                    assert_eq!(states.len(), SHARDS);
                    std::thread::yield_now();
                }
            });
        }
        // Watcher: flips `done` once the fixed serving workloads finish, so
        // the open-ended chaos/checkpoint loopers stop and the scope joins.
        {
            let served = &served;
            let done = &done;
            let total = (SHARDS * AFFINE_DECISIONS + ROGUE_DECISIONS) as u64;
            s.spawn(move || {
                while served.load(Ordering::Relaxed) < total {
                    std::thread::yield_now();
                }
                done.store(true, Ordering::Relaxed);
            });
        }
    });

    let total = (SHARDS * AFFINE_DECISIONS + ROGUE_DECISIONS) as u64;
    assert_eq!(served.load(Ordering::Relaxed), total);

    // Arm one final wedge and recover it through a normal decide, so the
    // wedge path is provably exercised regardless of scheduling.
    assert!(h.engine.poison_shard(1));
    let armed = wedges_armed.load(Ordering::Relaxed) + 1;
    h.engine.decide(1, u64::MAX / 2, &ctx).unwrap();
    let served_total = total + 1;

    // The writer drains until every producer hangs up, so *both* engine
    // handles must go: ours here, the closure's inside `finish`.
    drop(h.engine);
    let (recovered, quarantined_at_recovery) = finish();
    let s = h.metrics.snapshot();

    // Conservation, exactly: every decision offered once, nothing vanished.
    assert_eq!(s.decisions, served_total);
    assert_eq!(s.log_enqueued, s.decisions);
    assert_eq!(
        s.log_enqueued,
        s.log_written + s.log_dropped + s.log_quarantined,
        "ledger must balance once drained: {s:?}"
    );
    assert_eq!(s.log_backlog, 0);
    assert_eq!(s.log_dropped, 0, "a blocking queue refuses nothing: {s:?}");
    assert_eq!(
        s.log_written, served_total,
        "every served decision persists"
    );
    assert_eq!(
        recovered, s.log_written,
        "recovered stream == written count"
    );
    assert_eq!(quarantined_at_recovery, 0, "no torn frames were injected");

    // Wedge recoveries reconcile with the faults armed: every recovery is a
    // real wedge (multiple arms can collapse into one recovery, never the
    // reverse), none is counted twice, and at least the hand-recovered one
    // landed.
    assert!(
        s.shard_wedges >= 1,
        "the final armed wedge must be recovered"
    );
    assert!(
        s.shard_wedges <= armed,
        "recoveries ({}) exceed wedges armed ({armed})",
        s.shard_wedges
    );
    assert_eq!(
        s.lock_recoveries, 0,
        "no mutex was poisoned, and a wedge counts only in shard_wedges"
    );

    // The promotion storm is fully serialized through the registry lock.
    assert_eq!(h.registry.generation(), PROMOTIONS);
    assert_eq!(h.registry.swap_count(), PROMOTIONS);
}

#[test]
fn storm_with_blocking_backpressure_loses_nothing() {
    run_storm(128);
}

/// A queue of 32 records against batches of 8 keeps the budget nearly
/// full, so producers contend on the blocking acquire the whole time.
#[test]
fn storm_on_a_nearly_full_queue_blocks_and_loses_nothing() {
    run_storm(32);
}

const STORM_BATCHES: usize = 400; // per shard-affine caller
const REWARD_LAG: usize = 4; // batches between a decision and its reward
const STORM_TTL_NS: u64 = 60;
const ROGUE_IDS: u64 = 1_500; // per shard, each rewarded twice

/// Shard-affine callers decide and reward on their own shards, some
/// rewards twice and some past the TTL, while a rogue rewards every
/// shard's ids twice over: every reward is counted in
/// exactly one join outcome, every join is logged once, and the log ledger
/// balances.
#[test]
fn reward_storm_reconciles_every_reward() {
    let cfg = ServeConfig::builder()
        .shards(SHARDS)
        .epsilon(0.2)
        .master_seed(7)
        .join_ttl_ns(STORM_TTL_NS)
        .logger(LoggerConfig::builder().capacity(128).build())
        .build()
        .unwrap();
    let svc = DecisionService::new(cfg, MemorySegments::new());
    let contexts: Vec<SimpleContext> = (0..BATCH)
        .map(|i| SimpleContext::new(vec![i as f64, -0.25], ACTIONS))
        .collect();
    let offered = AtomicU64::new(0);

    std::thread::scope(|s| {
        for shard in 0..SHARDS {
            let (svc, contexts, offered) = (&svc, &contexts, &offered);
            s.spawn(move || {
                let mut out = DecisionBatch::with_capacity(BATCH);
                let mut lagged: VecDeque<Vec<u64>> = VecDeque::new();
                let mut now = 0u64;
                for i in 0..STORM_BATCHES {
                    // Uneven steps put some lagged rewards past the TTL.
                    now += 10 + (i as u64 % 3) * 5;
                    svc.decide_batch(shard, now, contexts, &mut out).unwrap();
                    lagged.push_back(out.iter().map(|d| d.request_id).collect());
                    let due = if i + 1 == STORM_BATCHES {
                        0
                    } else {
                        REWARD_LAG
                    };
                    // Every fifth round re-sends its rewards.
                    let sends = if i % 5 == 0 { 2 } else { 1 };
                    while lagged.len() > due {
                        for id in lagged.pop_front().unwrap() {
                            for _ in 0..sends {
                                svc.reward(id, now, 1.0);
                                offered.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        // Rogue: rewards ids of every shard — decided or not yet — twice.
        {
            let (svc, offered) = (&svc, &offered);
            s.spawn(move || {
                for seq in 0..ROGUE_IDS {
                    for shard in 0..SHARDS as u64 {
                        let id = (shard << SEQ_BITS) | (seq * 3);
                        for _ in 0..2 {
                            svc.reward(id, 0, 0.5);
                            offered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let metrics = svc.metrics_handle();
    let records = svc.shutdown().unwrap().recover().0;
    let s = metrics.snapshot();
    let offered = offered.load(Ordering::Relaxed);
    assert_eq!(
        s.join_hits + s.join_duplicates + s.join_late + s.join_unknown,
        offered,
        "every reward offered lands in one join counter: {s:?}"
    );
    assert!(
        s.join_hits > 0 && s.join_duplicates > 0 && s.join_late > 0 && s.join_unknown > 0,
        "{s:?}"
    );
    let outcomes = records
        .iter()
        .filter(|r| matches!(r, LogRecord::Outcome(_)))
        .count() as u64;
    assert_eq!(outcomes, s.join_hits, "every join is logged once");
    assert_eq!(s.decisions, (SHARDS * STORM_BATCHES * BATCH) as u64);
    assert_eq!(
        s.log_enqueued,
        s.log_written + s.log_dropped + s.log_quarantined,
        "ledger must balance once drained: {s:?}"
    );
    assert_eq!(s.log_dropped + s.log_quarantined, 0);
}
