//! Wire/in-process equivalence and the overload contract.
//!
//! The wire layer must be *transparent*: putting the decision service
//! behind the framed protocol and admission pipeline may not change a
//! single byte of what the service does. These tests hold the duplex
//! transport (real codec, real admission, deterministic pumping) to that
//! claim — a same-seed wired run and in-process run must produce
//!
//! 1. a byte-identical recovered decision log, and
//! 2. an identical `ServeMetrics` conservation ledger,
//!
//! both clean and under an injected `ChaosPlan`. The third test pins the
//! overload contract from the other side: under bursts that blow through
//! the pending budget, the rate limit, request deadlines, and an open
//! breaker, every single request is answered with a valid decision (exact
//! propensities, even degraded) or an explicit `Shed` — zero protocol
//! errors — and the wire ledger reconciles with the service's
//! `admission_shed` count.

use std::sync::Arc;

use harvest::core::{Context, SimpleContext};
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::serve::{
    BreakerConfig, ChaosPlan, DecisionBatch, DecisionService, GateConfig, LoggerConfig,
    ServeConfig, SupervisorConfig, TrainerConfig,
};
use harvest::simnet::rng::fork_rng;
use harvest::wire::{
    Connection, Duplex, Request, Response, ShedReason, Transport, WireConfig, WireCore,
    WireSnapshot,
};
use rand::Rng;

const EPSILON: f64 = 0.2;
const ACTIONS: usize = 3;
const SHARDS: usize = 2;
const BATCH: usize = 16;
const STEPS: usize = 64;

fn config(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .shards(SHARDS)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("wire-eq-test")
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

/// The chaos schedule both runs share (same as `batch_equivalence`): writer
/// kills survived by the supervisor, reward drops and a delay, and two
/// shard poisonings. No tears, no at-rest damage.
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

struct RunResult {
    recovered: Vec<String>,
    quarantined_records: usize,
    metrics: String,
}

/// The shared seeded workload: one group of BATCH contexts per logical
/// millisecond, served in a single `DecideBatch` on even steps and as
/// BATCH individual `Decide`s on odd steps, rewards after each group, one
/// training round midway. `wired == false` calls the service directly;
/// `wired == true` pushes every request through the duplex transport —
/// frames, CRC, admission door, worker queue — and back.
fn run(seed: u64, wired: bool, chaos: Option<ChaosPlan>) -> RunResult {
    let store = MemorySegments::new();
    let svc = Arc::new(match chaos {
        Some(plan) => DecisionService::with_chaos(config(seed), store.clone(), plan),
        None => DecisionService::new(config(seed), store.clone()),
    });
    let duplex = Duplex::new(Arc::new(WireCore::new(
        Arc::clone(&svc),
        WireConfig::default(),
    )));
    let mut conn = Transport::connect(&duplex).expect("duplex connect");

    let mut traffic = fork_rng(seed, "wire-eq-traffic");
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
                "seed {seed}: midpoint round must promote"
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
        // (request_id, action) pairs, in context order.
        let decisions: Vec<(u64, usize)> = if !wired {
            if step % 2 == 0 {
                svc.decide_batch(shard, now_ns, &contexts, &mut out)
                    .expect("batch must serve");
                out.decisions()
                    .iter()
                    .map(|d| (d.request_id, d.action))
                    .collect()
            } else {
                contexts
                    .iter()
                    .map(|ctx| {
                        let d = svc.decide(shard, now_ns, ctx).expect("single must serve");
                        (d.request_id, d.action)
                    })
                    .collect()
            }
        } else if step % 2 == 0 {
            let resp = conn
                .call(&Request::DecideBatch {
                    shard: shard as u32,
                    now_ns,
                    budget_ns: 0,
                    contexts: contexts.clone(),
                })
                .expect("wire batch");
            match resp {
                Response::Batch(ds) => ds
                    .iter()
                    .map(|d| (d.request_id, d.action as usize))
                    .collect(),
                other => panic!("batch must serve, got {other:?}"),
            }
        } else {
            contexts
                .iter()
                .map(|ctx| {
                    let resp = conn
                        .call(&Request::Decide {
                            shard: shard as u32,
                            now_ns,
                            budget_ns: 0,
                            context: ctx.clone(),
                        })
                        .expect("wire decide");
                    match resp {
                        Response::Decision(d) => (d.request_id, d.action as usize),
                        other => panic!("decide must serve, got {other:?}"),
                    }
                })
                .collect()
        };
        for ((request_id, action), ctx) in decisions.iter().zip(&contexts) {
            let x = ctx.shared_features()[0];
            let reward = if *action == 0 { x } else { 1.0 - x };
            if !wired {
                svc.reward(*request_id, now_ns + 500_000, reward);
            } else {
                let resp = conn
                    .call(&Request::Reward {
                        request_id: *request_id,
                        now_ns: now_ns + 500_000,
                        reward,
                    })
                    .expect("wire reward");
                assert!(
                    matches!(resp, Response::RewardAck { .. }),
                    "reward must ack, got {resp:?}"
                );
            }
        }
    }
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    let metrics = serde_json::to_string(&svc.metrics()).expect("snapshot serializes");
    let wire = duplex.core().metrics().snapshot();
    assert!(wire.ledger_ok, "wire ledger must balance: {wire:?}");
    assert_eq!(wire.protocol_errors, 0);
    assert_eq!(wire.frames_corrupt, 0);
    if wired {
        assert_eq!(wire.decisions_requested, (STEPS * BATCH) as u64);
        assert_eq!(wire.decisions_served, (STEPS * BATCH) as u64);
        assert_eq!(wire.shed_total, 0);
    }
    drop(conn);
    drop(duplex);
    let svc = Arc::try_unwrap(svc)
        .ok()
        .expect("all wire handles released");
    svc.shutdown().expect("clean shutdown");
    let (records, stats) = store.recover();
    RunResult {
        recovered: records.iter().map(|r| format!("{r:?}")).collect(),
        quarantined_records: stats.quarantined_records,
        metrics,
    }
}

/// Clean-run transparency: the duplex-transported run recovers the exact
/// record stream the in-process run persisted, and every counter in the
/// conservation ledger — including the new `admission_shed` — agrees.
#[test]
fn wired_run_recovers_byte_identical_log_and_ledger() {
    let wired = run(17, true, None);
    let direct = run(17, false, None);
    assert_eq!(wired.recovered.len(), direct.recovered.len());
    assert!(!wired.recovered.is_empty());
    assert_eq!(
        wired.recovered, direct.recovered,
        "wired and in-process recovered logs differ"
    );
    assert_eq!(wired.quarantined_records, 0);
    assert_eq!(direct.quarantined_records, 0);
    assert_eq!(
        wired.metrics, direct.metrics,
        "wired and in-process metrics ledgers differ"
    );
    // And the log genuinely depends on the seed.
    let other = run(18, true, None);
    assert_ne!(wired.recovered, other.recovered);
}

/// The same transparency under injected chaos: writer kills, reward
/// drops/delays, and shard poisonings land at the same logical indices on
/// both sides of the socket boundary, so the recovered log and the full
/// ledger still agree byte for byte.
#[test]
fn wired_run_stays_equivalent_under_chaos() {
    let wired = run(29, true, Some(chaos_plan()));
    let direct = run(29, false, Some(chaos_plan()));
    assert_eq!(
        wired.recovered, direct.recovered,
        "chaos: wired and in-process recovered logs differ"
    );
    assert_eq!(wired.quarantined_records, direct.quarantined_records);
    assert_eq!(
        wired.metrics, direct.metrics,
        "chaos: wired and in-process metrics ledgers differ"
    );
}

/// Classifies a response under overload: served decisions must carry valid
/// propensities, sheds must carry a reason, and nothing may be a protocol
/// error.
fn classify(resp: &Response, served: &mut u64, degraded: &mut u64, shed: &mut u64) {
    match resp {
        Response::Decision(d) => {
            assert!(
                d.propensity > 0.0 && d.propensity <= 1.0,
                "served propensity must be valid: {d:?}"
            );
            *served += 1;
            if d.degraded {
                *degraded += 1;
            }
        }
        Response::Shed { reason } => {
            let _: ShedReason = *reason;
            *shed += 1;
        }
        other => panic!("overload must serve or shed, got {other:?}"),
    }
}

/// The overload contract: a closed-loop burst far past the pending budget
/// and rate limit, plus deadline-expired queue entries, plus an open
/// breaker — and still every request is answered with a valid decision or
/// an explicit shed, the wire ledger balances, and `admission_shed` on the
/// service reconciles with the wire's shed counters.
#[test]
fn overload_is_answered_never_errored() {
    let mut cfg = config(99);
    // A breaker that actually trips: one fault in a small window.
    cfg.breaker = BreakerConfig::builder()
        .window(8)
        .trip_faults(1)
        .rearm_healthy(1 << 20)
        .build()
        .expect("valid breaker config");
    let store = MemorySegments::new();
    // Round 0 training crashes: that is the fault that opens the breaker.
    let svc = Arc::new(DecisionService::with_chaos(
        cfg,
        store.clone(),
        ChaosPlan::none().crash_trainer_at(0),
    ));
    let duplex = Duplex::new(Arc::new(WireCore::new(
        Arc::clone(&svc),
        // Rate: refills fast enough that the later phases are admitted,
        // but the burst cap still bites inside phase 1's single instant.
        WireConfig::builder()
            .rate_per_sec(10_000)
            .burst(24)
            .pending_capacity(8)
            .build(),
    )));
    let mut conn = Transport::connect(&duplex).expect("duplex connect");
    let mut served = 0u64;
    let mut degraded = 0u64;
    let mut shed = 0u64;

    // Phase 1 — queue burst: 32 decides fired open-loop at one instant.
    // The bucket's burst (24) admits most, the pending budget (8) holds
    // only 8: the rest shed at the door as queue_full or rate_limited.
    for i in 0..32u64 {
        conn.send(&Request::Decide {
            shard: (i % 2) as u32,
            now_ns: 1_000_000,
            budget_ns: 0,
            context: SimpleContext::new(vec![0.5], ACTIONS),
        })
        .expect("send burst");
    }
    duplex.pump();
    for _ in 0..32 {
        let (_, resp) = conn.recv().expect("recv burst");
        classify(&resp, &mut served, &mut degraded, &mut shed);
    }

    // Phase 2 — deadline: two requests with a 1 ms budget are queued, then
    // a later-stamped request advances the logical clock 1 s before the
    // queue drains. The stale work is shed without touching a shard.
    for _ in 0..2 {
        conn.send(&Request::Decide {
            shard: 0,
            now_ns: 2_000_000,
            budget_ns: 1_000_000,
            context: SimpleContext::new(vec![0.5], ACTIONS),
        })
        .expect("send deadline");
    }
    conn.send(&Request::Decide {
        shard: 1,
        now_ns: 1_002_000_000,
        budget_ns: 0,
        context: SimpleContext::new(vec![0.5], ACTIONS),
    })
    .expect("send clock advance");
    duplex.pump();
    let mut deadline_shed = 0u64;
    for _ in 0..3 {
        let (_, resp) = conn.recv().expect("recv deadline");
        if matches!(
            resp,
            Response::Shed {
                reason: ShedReason::DeadlineExpired
            }
        ) {
            deadline_shed += 1;
        }
        classify(&resp, &mut served, &mut degraded, &mut shed);
    }
    assert_eq!(deadline_shed, 2, "queued work past its deadline is shed");

    // Phase 3 — open breaker: crash the trainer, then keep serving. The
    // responses are real decisions from the uniform safe arm (propensity
    // 1/K, degraded flag set) — never protocol errors.
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    svc.train_and_maybe_promote(&store.snapshot())
        .expect_err("round 0 trainer crash is scheduled");
    assert!(svc.breaker_open(), "trainer crash must trip the breaker");
    for i in 0..16u64 {
        let resp = conn
            .call(&Request::Decide {
                shard: (i % 2) as u32,
                now_ns: 1_003_000_000 + i * 20_000_000,
                budget_ns: 0,
                context: SimpleContext::new(vec![0.5], ACTIONS),
            })
            .expect("degraded decide");
        if let Response::Decision(d) = &resp {
            assert!(d.degraded, "open breaker must serve the safe arm");
            assert!(
                (d.propensity - 1.0 / ACTIONS as f64).abs() < 1e-12,
                "safe arm serves the exact uniform propensity"
            );
        }
        classify(&resp, &mut served, &mut degraded, &mut shed);
    }
    assert!(degraded > 0, "the open-breaker phase must serve degraded");

    // The ledgers reconcile: wire-side everything is accounted, and the
    // service-side admission_shed equals exactly what the wire shed.
    let wire: WireSnapshot = duplex.core().metrics().snapshot();
    assert!(wire.ledger_ok, "wire ledger must balance: {wire:?}");
    assert_eq!(wire.protocol_errors, 0, "overload must never error");
    assert_eq!(wire.decisions_errored, 0);
    assert_eq!(wire.decisions_requested, served + shed);
    assert_eq!(wire.decisions_served, served);
    assert_eq!(wire.shed_total, shed);
    assert_eq!(wire.decisions_degraded, degraded);
    assert!(wire.shed_queue_full > 0, "the burst must hit the budget");
    assert_eq!(wire.shed_deadline, 2);
    let serve_snap = svc.metrics();
    assert_eq!(
        serve_snap.admission_shed, wire.shed_total,
        "service admission_shed must reconcile with wire sheds"
    );

    drop(conn);
    drop(duplex);
    let svc = Arc::try_unwrap(svc)
        .ok()
        .expect("all wire handles released");
    svc.shutdown().expect("clean shutdown");
}
