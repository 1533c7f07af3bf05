//! Heap traffic on the decide path: greedy scoring allocates nothing, and
//! a batch refills the log frame the writer handed back instead of cloning
//! every decision's features.
//!
//! A counting global allocator wraps the system one for this test binary
//! only; the count is per thread, so tests running alongside on other
//! threads — the log writer included — do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use harvest_core::scorer::{LinearScorer, Scorer};
use harvest_core::SimpleContext;
use harvest_log::segment::MemorySegments;
use harvest_serve::registry::ServePolicy;
use harvest_serve::{
    spawn_supervised_writer, DecisionBatch, DecisionEngine, EngineConfig, LoggerConfig,
    PolicyRegistry, ServeMetrics, SupervisorConfig,
};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter is a const-initialised
// `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn greedy_scoring_allocates_nothing() {
    // 11 actions over 9 weight rows: a block of eight, one single row and
    // two actions past the table; 32 shared features as served.
    let weights: Vec<Vec<f64>> = (0..9)
        .map(|a| {
            (0..33)
                .map(|i| ((a * 7 + i * 3) % 11) as f64 - 5.0)
                .collect()
        })
        .collect();
    let per_action = LinearScorer::PerAction { weights };
    let ctx = SimpleContext::new((0..32).map(|i| f64::from(i) / 32.0).collect(), 11);
    let policy = ServePolicy::Greedy(per_action.clone());
    let mut scores = Vec::with_capacity(11);

    let pooled = LinearScorer::Pooled {
        weights: vec![0.5, -1.0, 2.0, 0.25],
    };
    let pooled_ctx = SimpleContext::with_action_features(
        vec![1.0],
        (0..6).map(|a| vec![a as f64, 1.0]).collect(),
    );

    let n = allocations_during(|| {
        for _ in 0..100 {
            black_box(policy.greedy_action(black_box(&ctx)));
            per_action.score_all(black_box(&ctx), &mut scores);
            black_box(pooled.greedy_action(black_box(&pooled_ctx)));
            pooled.score_all(black_box(&pooled_ctx), &mut scores);
        }
    });
    assert_eq!(n, 0, "scoring allocated {n} times");
}

/// Serves two batches of `n` contexts on a fresh one-shard engine and
/// counts the allocations of the second, made once the writer has written
/// the first frame and handed it back.
fn second_batch_allocations(n: usize) -> u64 {
    let metrics = Arc::new(ServeMetrics::new());
    let (logger, writer) = spawn_supervised_writer(
        LoggerConfig::default(),
        SupervisorConfig::default(),
        1,
        Arc::clone(&metrics),
        None,
        MemorySegments::new(),
    );
    let engine = DecisionEngine::new(
        &EngineConfig::builder().shards(1).build().unwrap(),
        Arc::new(PolicyRegistry::new(ServePolicy::Uniform, "v0")),
        Arc::clone(&metrics),
        logger,
    );
    let contexts: Vec<SimpleContext> = (0..n)
        .map(|i| {
            SimpleContext::with_action_features(
                vec![i as f64; 32],
                (0..4).map(|a| vec![a as f64, 1.0]).collect(),
            )
        })
        .collect();
    let mut out = DecisionBatch::with_capacity(n);
    engine.decide_batch(0, 0, &contexts, &mut out).unwrap();
    while metrics.snapshot().log_backlog > 0 {
        std::thread::yield_now();
    }
    let count = allocations_during(|| {
        engine.decide_batch(0, 1, &contexts, &mut out).unwrap();
    });
    drop(engine);
    let (records, _) = writer.finish().unwrap().recover();
    assert_eq!(records.len(), 2 * n);
    count
}

#[test]
fn a_returned_log_frame_makes_batch_size_free() {
    let small = second_batch_allocations(16);
    let large = second_batch_allocations(64);
    assert_eq!(
        small, large,
        "a batch of 16 allocated {small} times, a batch of 64 {large} times"
    );
}
