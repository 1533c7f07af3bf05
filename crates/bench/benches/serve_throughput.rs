//! Criterion bench for decision throughput: one shard vs many, single
//! calls vs batches.
//!
//! Worker threads hammer a [`DecisionEngine`] under a greedy incumbent
//! (the realistic hot path: one atomic generation check, a scorer pass, one
//! or two RNG draws, one record enqueue). With a single shard every thread
//! serializes on the same shard cell; with one shard per thread each cell
//! is effectively private and its acquire is one uncontended atomic swap.
//! The cross-shard axis rotates every thread across all shards so the cost
//! of violating affinity (cache-line bouncing, spin handoffs) stays
//! visible next to the affine number — the regression the pre-refactor
//! bench never measured.
//!
//! The batch axis measures what `decide_batch` amortizes: batch 1 is the
//! degenerate case (batch framing overhead with no amortization), batch 16
//! pays the cell-acquire/sequence/queue-admission/log-frame cost once per
//! 16 decisions, batch 256 almost never. That group serves the uniform
//! bootstrap incumbent and carries its own single-call baseline (see
//! [`bench_batch`]); the acceptance floor is batch 256 on 8 shards at
//! ≥ 2× that baseline's decisions/sec.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use criterion::{black_box, criterion_group, Criterion};
use harvest_bench::bench_json::{merge_section, AxisResult};
use harvest_core::scorer::LinearScorer;
use harvest_core::SimpleContext;
use harvest_log::segment::MemorySegments;
use harvest_serve::supervisor::{
    spawn_supervised_writer, SupervisorConfig, WriterSupervisorHandle,
};
use harvest_serve::{
    Backpressure, DecisionBatch, DecisionEngine, DecisionService, EngineConfig, Histogram,
    LoggerConfig, ObsConfig, PolicyRegistry, ServeConfig, ServeMetrics, ServeObs, ServePolicy,
};
use harvest_wire::{Duplex, OpsQuery, OpsResponse, WireConfig, WireCore};

const THREADS: usize = 8;
const DECISIONS_PER_THREAD: usize = 4_000;
// Divisible by every batch size so every batch-axis entry serves the same
// total decision count (ns/iter comparisons are then decisions/sec
// comparisons directly).
const BATCH_DECISIONS_PER_THREAD: usize = 4_096;
const ACTIONS: usize = 8;
const FEATURES: usize = 32;

fn make_engine(
    shards: usize,
    traced: bool,
    policy: ServePolicy,
) -> (DecisionEngine, WriterSupervisorHandle<std::io::Sink>) {
    // Tracing on/off is the bench axis: the traced variant pays the tracer
    // insert plus one histogram record per decision, and the delta between
    // the two variants is the whole observability overhead on the hot path.
    let metrics = if traced {
        Arc::new(ServeMetrics::with_obs(Arc::new(ServeObs::new(
            &ObsConfig::default(),
        ))))
    } else {
        Arc::new(ServeMetrics::new())
    };
    let registry = Arc::new(PolicyRegistry::new(policy, "bench-policy"));
    // DropNewest: under saturation the hot path pays a failed ring push and
    // a counter bump, never a stall on the writer thread. One SPSC ring per
    // shard so the bench exercises the same producer routing the service
    // wires up.
    let cfg = LoggerConfig::builder()
        .capacity(4096)
        .backpressure(Backpressure::DropNewest)
        .shard_rings(shards)
        .build();
    let (logger, writer) = spawn_supervised_writer(
        cfg,
        SupervisorConfig::default(),
        Arc::clone(&metrics),
        None,
        std::io::sink(),
    );
    let engine_cfg = EngineConfig::builder()
        .shards(shards)
        .epsilon(0.1)
        .master_seed(42)
        .component("bench")
        .build()
        .expect("valid bench config");
    let engine = DecisionEngine::new(&engine_cfg, registry, metrics, logger);
    (engine, writer)
}

/// A realistically-sized model: 8 actions × 32 shared features. The scorer
/// pass runs while the shard cell is held, so this is the contended work.
fn greedy_policy() -> ServePolicy {
    ServePolicy::Greedy(LinearScorer::PerAction {
        weights: (0..ACTIONS)
            .map(|a| {
                (0..FEATURES + 1)
                    .map(|f| ((a * 31 + f * 7) % 13) as f64 * 0.1 - 0.6)
                    .collect()
            })
            .collect(),
    })
}

fn bench_context() -> SimpleContext {
    SimpleContext::new(
        (0..FEATURES).map(|f| (f as f64 * 0.37).sin()).collect(),
        ACTIONS,
    )
}

fn bench_single(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_throughput");
    g.sample_size(40);
    for (shards, traced) in [
        (1usize, false),
        (1usize, true),
        (THREADS, false),
        (THREADS, true),
    ] {
        let (engine, _writer) = make_engine(shards, traced, greedy_policy());
        let ctx = bench_context();
        let tracing = if traced { "tracing_on" } else { "tracing_off" };
        g.bench_function(&format!("{THREADS}threads_{shards}shards_{tracing}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        let engine = &engine;
                        let ctx = &ctx;
                        s.spawn(move || {
                            let shard = t % shards;
                            for i in 0..DECISIONS_PER_THREAD {
                                black_box(engine.decide(shard, i as u64, ctx).unwrap());
                            }
                        });
                    }
                });
            })
        });
    }
    g.finish();
}

/// The affinity axis: the same 8-thread/8-shard workload served affine
/// (each thread owns its shard — the deployment the engine is built for)
/// vs rotating every thread across all shards each call. The rotating
/// variant makes every cell acquire a contended cross-core handoff, so the
/// cost of violating shard affinity is a first-class bench number instead
/// of an accident smeared into the shard-count comparison (the pre-refactor
/// bench had no such axis, which is how an 8-shard slowdown shipped
/// unnoticed — see DESIGN.md).
fn bench_cross_shard(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_throughput_routing");
    g.sample_size(40);
    for affine in [true, false] {
        let (engine, _writer) = make_engine(THREADS, false, greedy_policy());
        let ctx = bench_context();
        let name = if affine { "affine" } else { "cross_shard" };
        g.bench_function(&format!("{THREADS}threads_{THREADS}shards_{name}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        let engine = &engine;
                        let ctx = &ctx;
                        s.spawn(move || {
                            for i in 0..DECISIONS_PER_THREAD {
                                let shard = if affine { t } else { (t + i) % THREADS };
                                black_box(engine.decide(shard, i as u64, ctx).unwrap());
                            }
                        });
                    }
                });
            })
        });
    }
    g.finish();
}

/// The batch axis: single calls vs batch size {1, 16, 256}, on {1, 8}
/// shards. This group runs the **uniform bootstrap incumbent** (the
/// generation-0 policy every deployment serves before its first trained
/// model promotes), so the per-decision work under the lock is one RNG
/// draw — the workload where the fixed per-call costs that `decide_batch`
/// amortizes (cell acquire, id reservation, queue admission, ledger
/// update, log-frame build) *are* the cost being measured, instead of
/// being masked by a scorer pass that batching cannot amortize. The
/// `single` entry is the baseline for the acceptance floor: batch 256 on
/// 8 shards must beat it by ≥ 2× decisions/sec. Batch 1 amortizes
/// nothing: a single call is served as a batch of one, so it tracks
/// `single`.
///
/// Every entry serves THREADS × BATCH_DECISIONS_PER_THREAD decisions per
/// iteration, so reported iteration times compare directly as
/// decisions/sec across the whole group.
fn bench_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_throughput_batched");
    g.sample_size(40);
    for shards in [1usize, THREADS] {
        let (engine, _writer) = make_engine(shards, false, ServePolicy::Uniform);
        let ctx = bench_context();
        g.bench_function(&format!("{THREADS}threads_{shards}shards_single"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        let engine = &engine;
                        let ctx = &ctx;
                        s.spawn(move || {
                            let shard = t % shards;
                            for i in 0..BATCH_DECISIONS_PER_THREAD {
                                black_box(engine.decide(shard, i as u64, ctx).unwrap());
                            }
                        });
                    }
                });
            })
        });
        for batch_size in [1usize, 16, 256] {
            let (engine, _writer) = make_engine(shards, false, ServePolicy::Uniform);
            let contexts: Vec<SimpleContext> = (0..batch_size).map(|_| bench_context()).collect();
            g.bench_function(
                &format!("{THREADS}threads_{shards}shards_batch{batch_size}"),
                |b| {
                    b.iter(|| {
                        std::thread::scope(|s| {
                            for t in 0..THREADS {
                                let engine = &engine;
                                let contexts = &contexts;
                                s.spawn(move || {
                                    let shard = t % shards;
                                    let mut out = DecisionBatch::with_capacity(batch_size);
                                    for i in 0..BATCH_DECISIONS_PER_THREAD / batch_size {
                                        engine
                                            .decide_batch(shard, i as u64, contexts, &mut out)
                                            .unwrap();
                                        black_box(out.len());
                                    }
                                });
                            }
                        });
                    })
                },
            );
        }
    }
    g.finish();
}

/// The scrape axis: the batched hot path through the full
/// [`DecisionService`] with 0 vs 4 concurrent OPS scrapers hammering the
/// wire ops endpoint (full Prometheus render per scrape, through the
/// duplex frame codec). The delta between the two entries is the cost a
/// scrape storm levies on serving. Scrapes never touch a shard cell — they
/// read relaxed counters, the obs histograms, and the scope mutex — so on
/// a machine with spare cores the delta is lock/cache interference only;
/// on a core-starved host it also includes plain CPU sharing with the
/// spinning scrapers, which is the honest number for that deployment.
const SCRAPE_BATCH: usize = 16;
const SCRAPE_BATCHES_PER_THREAD: usize = JSON_DECISIONS_PER_THREAD / SCRAPE_BATCH;

fn make_scrape_rig() -> (
    Arc<DecisionService<MemorySegments>>,
    Arc<Duplex<MemorySegments>>,
) {
    // Same logging posture as `make_engine`: DropNewest with one ring per
    // shard, so the axis measures scrape interference, not writer-thread
    // backpressure stalls.
    let cfg = ServeConfig::builder()
        .shards(THREADS)
        .epsilon(0.1)
        .master_seed(42)
        .component("bench-scrape")
        .logger(
            LoggerConfig::builder()
                .capacity(4096)
                .backpressure(Backpressure::DropNewest)
                .shard_rings(THREADS)
                .build(),
        )
        .build()
        .expect("valid bench config");
    let svc = Arc::new(DecisionService::new(cfg, MemorySegments::new()));
    let core = Arc::new(WireCore::new(Arc::clone(&svc), WireConfig::default()));
    (svc, Duplex::new(core))
}

/// One pass: THREADS decide-batch threads (shard-affine) race to
/// completion while `scrapers` extra threads scrape the ops endpoint in a
/// closed loop until the hot path finishes. Returns wall time and the
/// merged per-batch latency histogram (decide threads only — scrapers are
/// load, not the measurement).
fn scrape_pass(
    svc: &Arc<DecisionService<MemorySegments>>,
    duplex: &Arc<Duplex<MemorySegments>>,
    contexts: &[SimpleContext],
    scrapers: usize,
) -> (u64, Histogram) {
    let done = AtomicUsize::new(0);
    let start = std::time::Instant::now();
    let hists: Vec<Histogram> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let svc = &*svc;
                let done = &done;
                s.spawn(move || {
                    let mut h = Histogram::new();
                    let mut out = DecisionBatch::with_capacity(SCRAPE_BATCH);
                    for i in 0..SCRAPE_BATCHES_PER_THREAD {
                        let t0 = std::time::Instant::now();
                        svc.decide_batch(t, i as u64, contexts, &mut out).unwrap();
                        black_box(out.len());
                        h.record(t0.elapsed().as_nanos() as u64);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    h
                })
            })
            .collect();
        for _ in 0..scrapers {
            let mut conn = duplex.connect();
            let done = &done;
            s.spawn(move || {
                while done.load(Ordering::SeqCst) < THREADS {
                    match conn.ops(&OpsQuery::Prometheus).expect("scrape") {
                        OpsResponse::Report { body } => {
                            black_box(body.len());
                        }
                        OpsResponse::Shed { .. } => {}
                    }
                }
            });
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("bench thread"))
            .collect()
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let mut merged = Histogram::new();
    for h in &hists {
        merged.merge(h);
    }
    (elapsed_ns, merged)
}

fn bench_scrape_under_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_throughput_scrape");
    g.sample_size(20);
    for scrapers in [0usize, 4] {
        let (svc, duplex) = make_scrape_rig();
        let contexts: Vec<SimpleContext> = (0..SCRAPE_BATCH).map(|_| bench_context()).collect();
        g.bench_function(
            &format!("{THREADS}threads_{THREADS}shards_batch{SCRAPE_BATCH}_{scrapers}scrapers"),
            |b| {
                b.iter(|| {
                    black_box(scrape_pass(&svc, &duplex, &contexts, scrapers));
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_single,
    bench_cross_shard,
    bench_batch,
    bench_scrape_under_load
);

const JSON_DECISIONS_PER_THREAD: usize = 4_096;
/// Untimed passes before measurement: warm the allocator, fault in the
/// ring buffers, and let the branch predictors settle. One warmup pass was
/// enough to stop `tracing_on` occasionally "beating" `tracing_off` — the
/// first pass pays one-time costs (page faults, lazy thread-pool state)
/// that have nothing to do with the axis under test.
const WARMUP_RUNS: usize = 1;
/// Measured passes per axis. The reported throughput is the **median**
/// run (robust to a run eating a scheduler hiccup — the fastest batch
/// passes finish in under a millisecond, so a single 100µs preemption
/// swings one run by 20%); the latency percentiles come from the
/// histograms of *all* measured runs pooled, so tail samples aren't
/// discarded with the non-median runs.
const MEASURED_RUNS: usize = 5;

/// One timed pass: every thread records its per-call wall latency into a
/// [`Histogram`]; returns wall time and the merged per-thread histograms.
fn timed_pass<F>(threads: usize, run: &F) -> (u64, Histogram)
where
    F: Fn(usize, &mut Histogram) + Sync,
{
    let start = std::time::Instant::now();
    let hists: Vec<Histogram> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut h = Histogram::new();
                    run(t, &mut h);
                    h
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench thread"))
            .collect()
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let mut merged = Histogram::new();
    for h in &hists {
        merged.merge(h);
    }
    (elapsed_ns, merged)
}

/// Warmup + multi-run measurement for the machine-readable report: the
/// axis rolls up into decisions/sec (median run) + pooled p50/p99 in
/// `BENCH_serve.json`. Separate from the criterion samples so the report
/// pass's per-call `Instant` reads never skew the timed comparisons above.
fn json_axis_on<F>(axes: &mut Vec<AxisResult>, name: String, threads: usize, decisions: u64, run: F)
where
    F: Fn(usize, &mut Histogram) + Sync,
{
    for _ in 0..WARMUP_RUNS {
        timed_pass(threads, &run);
    }
    let mut elapsed = Vec::with_capacity(MEASURED_RUNS);
    let mut pooled = Histogram::new();
    for _ in 0..MEASURED_RUNS {
        let (ns, hist) = timed_pass(threads, &run);
        elapsed.push(ns);
        pooled.merge(&hist);
    }
    elapsed.sort_unstable();
    let median_ns = elapsed[elapsed.len() / 2];
    axes.push(AxisResult::from_run(name, decisions, median_ns, &pooled));
}

fn json_axis<F>(axes: &mut Vec<AxisResult>, name: String, decisions: u64, run: F)
where
    F: Fn(usize, &mut Histogram) + Sync,
{
    json_axis_on(axes, name, THREADS, decisions, run);
}

/// Regenerates the `serve_throughput` section of `BENCH_serve.json`: the
/// same axes as the criterion groups (shards × tracing for single calls,
/// affine vs cross-shard routing, shards × batch size for the batched
/// path), plus an uncontended single-decision latency axis — warmup plus
/// three measured passes each (median throughput, pooled percentiles).
fn write_json_report() -> std::io::Result<()> {
    let mut axes = Vec::new();
    for (shards, traced) in [
        (1usize, false),
        (1usize, true),
        (THREADS, false),
        (THREADS, true),
    ] {
        let (engine, _writer) = make_engine(shards, traced, greedy_policy());
        let ctx = bench_context();
        let tracing = if traced { "tracing_on" } else { "tracing_off" };
        json_axis(
            &mut axes,
            format!("{THREADS}threads_{shards}shards_{tracing}"),
            (THREADS * JSON_DECISIONS_PER_THREAD) as u64,
            |t, h| {
                let shard = t % shards;
                for i in 0..JSON_DECISIONS_PER_THREAD {
                    let t0 = std::time::Instant::now();
                    black_box(engine.decide(shard, i as u64, &ctx).unwrap());
                    h.record(t0.elapsed().as_nanos() as u64);
                }
            },
        );
    }
    // Routing axis: affine (thread t owns shard t) vs rotating every call
    // across all shards. The delta is the price of violating affinity.
    for affine in [true, false] {
        let (engine, _writer) = make_engine(THREADS, false, greedy_policy());
        let ctx = bench_context();
        let name = if affine { "affine" } else { "cross_shard" };
        json_axis(
            &mut axes,
            format!("{THREADS}threads_{THREADS}shards_{name}"),
            (THREADS * JSON_DECISIONS_PER_THREAD) as u64,
            |t, h| {
                for i in 0..JSON_DECISIONS_PER_THREAD {
                    let shard = if affine { t } else { (t + i) % THREADS };
                    let t0 = std::time::Instant::now();
                    black_box(engine.decide(shard, i as u64, &ctx).unwrap());
                    h.record(t0.elapsed().as_nanos() as u64);
                }
            },
        );
    }
    // Single-decision latency: one thread, one shard, no contention — the
    // floor a caller sees per decide() when the hot path has the cell, the
    // policy slot, and the ring producer gate all to itself.
    {
        let (engine, _writer) = make_engine(1, false, greedy_policy());
        let ctx = bench_context();
        json_axis_on(
            &mut axes,
            "single_decision_latency".to_string(),
            1,
            JSON_DECISIONS_PER_THREAD as u64,
            |_, h| {
                for i in 0..JSON_DECISIONS_PER_THREAD {
                    let t0 = std::time::Instant::now();
                    black_box(engine.decide(0, i as u64, &ctx).unwrap());
                    h.record(t0.elapsed().as_nanos() as u64);
                }
            },
        );
    }
    for shards in [1usize, THREADS] {
        for batch_size in [1usize, 16, 256] {
            let (engine, _writer) = make_engine(shards, false, ServePolicy::Uniform);
            let contexts: Vec<SimpleContext> = (0..batch_size).map(|_| bench_context()).collect();
            json_axis(
                &mut axes,
                format!("{THREADS}threads_{shards}shards_batch{batch_size}"),
                (THREADS * (JSON_DECISIONS_PER_THREAD / batch_size) * batch_size) as u64,
                |t, h| {
                    let shard = t % shards;
                    let mut out = DecisionBatch::with_capacity(batch_size);
                    for i in 0..JSON_DECISIONS_PER_THREAD / batch_size {
                        let t0 = std::time::Instant::now();
                        engine
                            .decide_batch(shard, i as u64, &contexts, &mut out)
                            .unwrap();
                        black_box(out.len());
                        h.record(t0.elapsed().as_nanos() as u64);
                    }
                },
            );
        }
    }
    // Scrape-under-load: the batched hot path with 0 vs 4 concurrent OPS
    // scrapers. The throughput delta is the scrape tax on serving.
    for scrapers in [0usize, 4] {
        let (svc, duplex) = make_scrape_rig();
        let contexts: Vec<SimpleContext> = (0..SCRAPE_BATCH).map(|_| bench_context()).collect();
        for _ in 0..WARMUP_RUNS {
            scrape_pass(&svc, &duplex, &contexts, scrapers);
        }
        let mut elapsed = Vec::with_capacity(MEASURED_RUNS);
        let mut pooled = Histogram::new();
        for _ in 0..MEASURED_RUNS {
            let (ns, hist) = scrape_pass(&svc, &duplex, &contexts, scrapers);
            elapsed.push(ns);
            pooled.merge(&hist);
        }
        elapsed.sort_unstable();
        axes.push(AxisResult::from_run(
            format!("scrape_under_load_{scrapers}scrapers"),
            (THREADS * SCRAPE_BATCHES_PER_THREAD * SCRAPE_BATCH) as u64,
            elapsed[elapsed.len() / 2],
            &pooled,
        ));
    }
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve.json"
    ));
    merge_section(path, "serve_throughput", &axes)?;
    eprintln!(
        "wrote serve_throughput section ({} axes) to {}",
        axes.len(),
        path.display()
    );
    Ok(())
}

fn main() {
    benches();
    write_json_report().expect("write BENCH_serve.json");
}
