//! Seeded concurrency stress over the lock-free hot path.
//!
//! The lock-free refactor (shard-affine cells, epoch/RCU policy reads,
//! per-shard SPSC log rings, atomic queue budget) trades mutexes for
//! ordering arguments — so this test hammers every one of those arguments
//! at once and then audits the books:
//!
//! * four shard-affine workers serve singles and batches on their own
//!   shards while a **rogue** thread violates affinity on shard 0 (the
//!   striped fallback path must stay correct, not just the happy path);
//! * a promoter storms the registry with epoch/RCU hot-swaps the whole
//!   time, so pinned readers race slot overwrites and quiescence waits;
//! * a chaos thread arms shard wedges mid-traffic, and a checkpointer
//!   concurrently snapshots shard states through the same cells;
//! * the writer thread drains the ticket-ordered rings underneath it all.
//!
//! When the dust settles, conservation must hold exactly: every decision
//! was offered to the log once (`log_enqueued == decisions`), nothing
//! vanished (`enqueued == written + dropped + quarantined`), the recovered
//! segment stream matches the written count, wedge recoveries reconcile
//! with the faults armed, and the registry generation equals the number of
//! promotions. CI runs this under `-C debug-assertions` in release mode so
//! the internal `debug_assert!`s in the lock-free modules stay armed under
//! optimized codegen.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use harvest::core::SimpleContext;
use harvest::logs::segment::MemorySegments;
use harvest::serve::{
    spawn_supervised_writer, Backpressure, DecisionBatch, DecisionEngine, EngineConfig,
    LoggerConfig, PolicyRegistry, ServeMetrics, ServePolicy, SupervisorConfig,
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

fn harness(backpressure: Backpressure, capacity: usize) -> (Harness, impl FnOnce() -> (u64, u64)) {
    let metrics = Arc::new(ServeMetrics::new());
    let registry = Arc::new(PolicyRegistry::new(ServePolicy::Uniform, "v0"));
    let logger_cfg = LoggerConfig::builder()
        .capacity(capacity)
        .backpressure(backpressure)
        .shard_rings(SHARDS)
        .build();
    let (logger, writer) = spawn_supervised_writer(
        logger_cfg,
        SupervisorConfig::default(),
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

/// Every thread class at once; exact conservation afterward.
fn run_storm(backpressure: Backpressure, capacity: usize) {
    let (h, finish) = harness(backpressure, capacity);
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
        // striped spin fallback must keep decide() correct under contention.
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
        // Promoter: epoch/RCU hot-swap storm against the pinned readers.
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
        // Checkpointer: concurrent shard-state snapshots through the cells.
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

    // The promotion storm is fully serialized through the RCU cell.
    assert_eq!(h.registry.generation(), PROMOTIONS);
    assert_eq!(h.registry.swap_count(), PROMOTIONS);
}

#[test]
fn storm_with_blocking_backpressure_loses_nothing() {
    run_storm(Backpressure::Block, 128);
    // Block mode refuses nothing at the door; with a healthy writer the
    // whole stream persists. (Asserted inside run_storm via the ledger:
    // dropped can only be nonzero in DropNewest mode.)
}

#[test]
fn storm_with_drop_newest_sheds_measurably_not_silently() {
    run_storm(Backpressure::DropNewest, 32);
}
