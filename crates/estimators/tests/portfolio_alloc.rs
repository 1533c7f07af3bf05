//! Heap traffic of a portfolio pass: `evaluate_segments` allocates per
//! segment, per worker and per candidate, never per decision. Doubling the
//! decisions in every segment leaves its allocation count unchanged.
//!
//! A counting global allocator wraps the system one for this test binary
//! only. The count is global, so that the pass's worker threads are
//! counted too, and this binary holds a single test so nothing else
//! allocates while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use harvest_core::scorer::LinearScorer;
use harvest_estimators::{Candidate, EvaluatorConfig, GreedyScorerCandidate, PortfolioEvaluator};
use harvest_log::record::{BatchDecision, BatchRecord, LogRecord, OutcomeRecord};
use harvest_log::segment::encode_frame;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a static atomic and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEGMENTS: u64 = 4;
const ACTIONS: usize = 8;
const FEATURES: usize = 16;

fn feature(i: u64, j: usize) -> f64 {
    ((i * 31 + j as u64 * 7) % 97) as f64 / 97.0 - 0.5
}

/// `SEGMENTS` segments of `per_segment` decisions each, logged in batches
/// of 8. Even ids carry their reward inline; odd ids are rewarded by an
/// outcome in the next segment (the last segment's never are).
fn segments(per_segment: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut deferred = Vec::new();
    for s in 0..SEGMENTS {
        let mut bytes = Vec::new();
        for (id, reward) in deferred.drain(..) {
            let outcome = LogRecord::Outcome(OutcomeRecord {
                request_id: id,
                timestamp_ns: id,
                reward,
            });
            bytes.extend_from_slice(&encode_frame(&outcome).unwrap());
        }
        let ids: Vec<u64> = (s * per_segment..(s + 1) * per_segment).collect();
        for chunk in ids.chunks(8) {
            let decisions = chunk
                .iter()
                .map(|&i| {
                    let reward = feature(i, 0) + 0.5;
                    if i % 2 == 1 {
                        deferred.push((i, reward));
                    }
                    BatchDecision {
                        request_id: i,
                        timestamp_ns: i,
                        shared_features: (0..FEATURES).map(|j| feature(i, j)).collect(),
                        action_features: None,
                        num_actions: ACTIONS,
                        action: (i % ACTIONS as u64) as usize,
                        propensity: Some(1.0 / ACTIONS as f64),
                        reward: (i % 2 == 0).then_some(reward),
                    }
                })
                .collect();
            let batch = LogRecord::Batch(BatchRecord {
                component: "alloc".to_string(),
                decisions,
            });
            bytes.extend_from_slice(&encode_frame(&batch).unwrap());
        }
        out.push(bytes);
    }
    out
}

fn scorer(tilt: f64) -> LinearScorer {
    LinearScorer::PerAction {
        weights: (0..ACTIONS)
            .map(|a| {
                (0..=FEATURES)
                    .map(|j| feature(a as u64, j) + tilt)
                    .collect()
            })
            .collect(),
    }
}

fn evaluator(parallelism: usize) -> PortfolioEvaluator {
    PortfolioEvaluator::builder()
        .config(EvaluatorConfig::builder().parallelism(parallelism).build())
        .candidates((0..6).map(|j| {
            Candidate::new(
                format!("cand-{j}"),
                GreedyScorerCandidate::new(scorer(j as f64 * 0.1), 0.1),
            )
        }))
        .model(scorer(-0.2))
        .build()
        .unwrap()
}

/// Allocations of one pass over `log`, after a warm-up pass.
fn pass_allocations(ev: &PortfolioEvaluator, log: &[Vec<u8>]) -> u64 {
    let (warm, _) = ev.evaluate_segments(log);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (report, _) = ev.evaluate_segments(log);
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report, warm);
    count
}

#[test]
fn allocations_do_not_grow_with_decisions_per_segment() {
    let small = segments(256);
    let large = segments(512);
    for parallelism in [1, 2] {
        let ev = evaluator(parallelism);
        let a = pass_allocations(&ev, &small);
        let b = pass_allocations(&ev, &large);
        assert!(
            a.abs_diff(b) <= 4,
            "{parallelism} workers: {a} allocations for 256 decisions per segment, \
             {b} for 512"
        );
    }
}
