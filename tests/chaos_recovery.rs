//! Chaos acceptance tests for the hardened harvest loop (ISSUE tentpole).
//!
//! Under every injectable fault class — writer kills, torn writes, reward
//! drops and delays, poisoned shard locks, trainer crashes, at-rest damage —
//! the service must:
//!
//! 1. keep serving decisions whose logged propensities are valid;
//! 2. recover a byte-identical valid log prefix under the same seed;
//! 3. uphold the conservation ledger
//!    `enqueued == written + dropped + quarantined` (and its cross-crash
//!    form against recovered segments);
//! 4. demonstrably fall back to the safe default policy when degraded, and
//!    re-arm after sustained health.

use harvest::core::SimpleContext;
use harvest::logs::record::LogRecord;
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::serve::{
    apply_at_rest_faults, BreakerConfig, ChaosHorizon, ChaosPlan, ChaosPlanConfig, DecisionService,
    JoinOutcome, LoggerConfig, MetricsSnapshot, ServeConfig, ServeError, SupervisorConfig,
    TrainerConfig,
};
use harvest::simnet::rng::fork_rng;
use rand::Rng;

const EPSILON: f64 = 0.2;
const ACTIONS: usize = 3;

fn service_config(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .shards(2)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("chaos-test")
        .logger(
            LoggerConfig::builder()
                .capacity(256)
                .segment(SegmentConfig {
                    max_records: 64,
                    max_bytes: 64 * 1024,
                    max_span_ns: u64::MAX,
                })
                .build(),
        )
        .supervisor(
            SupervisorConfig::builder()
                .max_restarts(8)
                .backoff_base_ms(1)
                .backoff_cap_ms(4)
                .build(),
        )
        .trainer(TrainerConfig::builder().lambda(1e-3).build())
        .build()
        .expect("valid test config")
}

/// Drives `n` decisions (with rewards) through a service under `plan`,
/// asserting on every single decision that serving never stops and the
/// logged propensity is valid. Returns the store and the final, fully
/// drained metrics snapshot.
fn drive(
    seed: u64,
    n: usize,
    plan: ChaosPlan,
    train_rounds: usize,
) -> (MemorySegments, MetricsSnapshot) {
    let store = MemorySegments::new();
    let svc = DecisionService::with_chaos(service_config(seed), store.clone(), plan);
    let mut traffic = fork_rng(seed, "chaos-traffic");
    let mut now_ns = 0u64;
    for i in 0..n {
        now_ns += 1_000_000;
        let x: f64 = traffic.gen_range(0.0..1.0);
        let ctx = SimpleContext::new(vec![x], ACTIONS);
        let d = svc
            .decide(i % svc.num_shards(), now_ns, &ctx)
            .expect("service must keep serving under chaos");
        assert!(
            d.propensity.is_finite() && d.propensity > 0.0 && d.propensity <= 1.0,
            "invalid propensity {} at decision {i}",
            d.propensity
        );
        let reward = if d.action == 0 { x } else { 1.0 - x };
        let outcome = svc.reward(d.request_id, now_ns + 500_000, reward);
        assert!(
            matches!(
                outcome,
                JoinOutcome::Joined | JoinOutcome::Lost | JoinOutcome::Expired
            ),
            "unexpected join outcome {outcome:?} at decision {i}"
        );
    }
    // Phase barrier: drain the pipeline, then train on the recovered log.
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    for _ in 0..train_rounds {
        match svc.train_and_maybe_promote(&store.snapshot()) {
            Ok(_) | Err(ServeError::TrainerCrashed { .. }) => {}
            Err(other) => panic!("unexpected training error: {other:?}"),
        }
        // Serving continues after a training round, crashed or not.
        let d = svc
            .decide(
                0,
                now_ns + 1_000_000,
                &SimpleContext::new(vec![0.5], ACTIONS),
            )
            .unwrap();
        assert!(d.propensity > 0.0 && d.propensity <= 1.0);
    }
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    let snap = svc.metrics();
    svc.shutdown().unwrap();
    (store, snap)
}

/// The conservation ledger, in both its runtime and cross-crash forms.
fn assert_conservation(store: &MemorySegments, snap: &MetricsSnapshot) {
    assert_eq!(
        snap.log_enqueued,
        snap.log_written + snap.log_dropped + snap.log_quarantined,
        "runtime ledger violated: {snap:?}"
    );
    let (_, stats) = store.recover();
    // Every persisted frame is a written record or a torn partial the
    // runtime already counted quarantined; recovery re-derives the same
    // split from bytes alone.
    assert_eq!(
        (stats.recovered + stats.quarantined_records) as u64,
        snap.log_written + snap.log_quarantined,
        "recovery disagrees with the runtime ledger: {stats:?} vs {snap:?}"
    );
    assert_eq!(stats.recovered as u64, snap.log_written);
    assert_eq!(stats.quarantined_records as u64, snap.log_quarantined);
}

/// All recovered decision records carry valid explicit propensities.
fn assert_valid_propensities(store: &MemorySegments) {
    let (records, _) = store.recover();
    let mut decisions = 0;
    for r in &records {
        if let LogRecord::Decision(d) = r {
            decisions += 1;
            let p = d.propensity.expect("decision logged without propensity");
            assert!(p.is_finite() && p > 0.0 && p <= 1.0, "bad propensity {p}");
        }
    }
    assert!(decisions > 0, "no decision records recovered");
}

#[test]
fn each_fault_class_alone_keeps_the_service_serving() {
    let cases: Vec<(&str, ChaosPlan)> = vec![
        ("writer-kill", ChaosPlan::none().kill_writer_at(5)),
        ("torn-write", ChaosPlan::none().tear_writer_at(7, 0.5)),
        ("reward-drop", ChaosPlan::none().drop_reward_at(3)),
        (
            "reward-delay",
            ChaosPlan::none().delay_reward_at(3, 60_000_000_000),
        ),
        ("poisoned-shard", ChaosPlan::none().poison_shard_at(4)),
        ("trainer-crash", ChaosPlan::none().crash_trainer_at(0)),
    ];
    for (name, plan) in cases {
        let (store, snap) = drive(101, 150, plan, 1);
        assert_conservation(&store, &snap);
        assert_valid_propensities(&store);
        assert_eq!(snap.log_backlog, 0, "{name}: pipeline not drained");
    }
}

#[test]
fn a_generated_chaos_schedule_conserves_every_record() {
    for seed in [7u64, 19, 40] {
        let horizon = ChaosHorizon {
            writer_records: 700,
            rewards: 400,
            decisions: 400,
            rounds: 2,
            checkpoints: 0,
        };
        let mut rng = fork_rng(seed, "chaos-plan");
        let plan = ChaosPlan::generate(&ChaosPlanConfig::default(), &horizon, &mut rng);
        assert!(!plan.is_empty());
        let at_rest = plan.clone();
        let (store, snap) = drive(seed, 400, plan, 2);
        assert_conservation(&store, &snap);
        assert_valid_propensities(&store);

        // At-rest damage after shutdown: recovery still balances — frames
        // move from recovered to quarantined, none vanish.
        let before = store.recover().1;
        apply_at_rest_faults(&at_rest, &store);
        let after = store.recover().1;
        assert_eq!(
            before.recovered + before.quarantined_records,
            after.recovered + after.quarantined_records,
            "seed {seed}: at-rest damage made frames vanish"
        );
        assert!(after.recovered <= before.recovered);
    }
}

/// Same seed, same generated fault schedule, no training (the incumbent
/// stays uniform, so racy breaker timing cannot alter sampled actions):
/// the persisted segments — crash-sealed boundaries, torn partial frames
/// and all — are byte-identical, and recovery replays the identical valid
/// prefix. A different seed produces a different log.
#[test]
fn same_seed_chaos_runs_recover_byte_identical_prefixes() {
    let run = |seed: u64| {
        let horizon = ChaosHorizon {
            writer_records: 500,
            rewards: 300,
            decisions: 300,
            rounds: 1,
            checkpoints: 0,
        };
        let mut rng = fork_rng(seed, "chaos-plan");
        let plan = ChaosPlan::generate(&ChaosPlanConfig::default(), &horizon, &mut rng);
        let (store, snap) = drive(seed, 300, plan.clone(), 0);
        apply_at_rest_faults(&plan, &store);
        (store, snap)
    };
    let (a, snap_a) = run(23);
    let (b, snap_b) = run(23);
    assert_eq!(
        a.snapshot(),
        b.snapshot(),
        "same-seed chaos runs left different bytes"
    );
    let (recs_a, stats_a) = a.recover();
    let (recs_b, stats_b) = b.recover();
    assert_eq!(recs_a, recs_b);
    assert_eq!(stats_a, stats_b);
    assert_eq!(snap_a.log_written, snap_b.log_written);
    assert_eq!(snap_a.log_quarantined, snap_b.log_quarantined);
    // And the log genuinely depends on the seed.
    let (c, _) = run(24);
    assert_ne!(a.snapshot(), c.snapshot());
}

/// The breaker's full arc: a healthy service promotes a learned incumbent;
/// a trainer crash trips the breaker; degraded decisions are served by the
/// uniform safe arm (exact propensity 1/K) while still being logged; and
/// sustained health re-arms the breaker, returning decisions to the
/// incumbent's greedy mix.
#[test]
fn breaker_falls_back_to_the_safe_arm_and_rearms() {
    let mut cfg = service_config(77);
    cfg.breaker = BreakerConfig::builder()
        .rearm_healthy(16)
        .build()
        .expect("valid breaker config");
    let store = MemorySegments::new();
    // Round 0 trains and promotes normally; round 1 crashes mid-fit.
    let svc =
        DecisionService::with_chaos(cfg, store.clone(), ChaosPlan::none().crash_trainer_at(1));
    let mut traffic = fork_rng(77, "chaos-traffic");
    let mut now_ns = 0u64;
    // Warmup wave under the uniform bootstrap, rewards crossing in x.
    for i in 0..3000u64 {
        now_ns += 1_000_000;
        let x: f64 = traffic.gen_range(0.0..1.0);
        let ctx = SimpleContext::new(vec![x], 2);
        let d = svc.decide((i % 2) as usize, now_ns, &ctx).unwrap();
        let r = if d.action == 0 { x } else { 1.0 - x };
        svc.reward(d.request_id, now_ns + 500_000, r);
    }
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    let log = store.snapshot();
    let report = svc.train_and_maybe_promote(&log).unwrap();
    assert!(
        report.gate.promoted,
        "warmup round must promote: {report:?}"
    );

    // The promoted incumbent serves a greedy ε-mix: propensities are
    // either 1 − ε + ε/K or ε/K, never the uniform 1/K.
    let probe = SimpleContext::new(vec![0.9], 2);
    let d = svc.decide(0, now_ns + 1_000_000, &probe).unwrap();
    assert!(!d.degraded);
    assert!(
        (d.propensity - 0.5).abs() > 1e-9,
        "incumbent is not uniform"
    );

    // Round 1: the injected trainer crash trips the breaker.
    let err = svc.train_and_maybe_promote(&log).unwrap_err();
    assert!(matches!(err, ServeError::TrainerCrashed { round: 1 }));
    assert!(svc.breaker_open());

    // Open breaker: decisions fall back to the uniform safe arm with the
    // exact 1/K propensity, stamped degraded, and still logged.
    let logged_before = svc.metrics().log_enqueued;
    let d = svc.decide(0, now_ns + 2_000_000, &probe).unwrap();
    assert!(d.degraded, "open breaker must serve the safe arm");
    assert!((d.propensity - 0.5).abs() < 1e-12);
    assert_eq!(
        d.generation, 1,
        "degraded decisions still stamp the serving generation"
    );
    assert!(
        svc.metrics().log_enqueued > logged_before,
        "degraded decisions are still logged"
    );

    // Sustained health (writer alive, fault signal flat) re-arms after
    // `rearm_healthy` consecutive decisions; serving returns to the
    // incumbent.
    let mut rearmed_at = None;
    for i in 0..64u64 {
        let d = svc.decide(0, now_ns + 3_000_000 + i, &probe).unwrap();
        if !d.degraded {
            rearmed_at = Some(i);
            break;
        }
    }
    let rearmed_at = rearmed_at.expect("breaker never re-armed under sustained health");
    assert!(
        rearmed_at >= 10,
        "re-arm must require sustained health, not one good request"
    );
    assert!(!svc.breaker_open());
    let snap = svc.metrics();
    assert_eq!(snap.breaker_trips, 1);
    assert_eq!(snap.breaker_rearms, 1);
    assert_eq!(snap.trainer_crashes, 1);
    assert!(snap.degraded_decisions >= rearmed_at);
    // Back on the incumbent's greedy mix.
    let d = svc.decide(0, now_ns + 4_000_000, &probe).unwrap();
    assert!(!d.degraded);
    assert!((d.propensity - 0.5).abs() > 1e-9);

    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    let snap = svc.metrics();
    svc.shutdown().unwrap();
    assert_conservation(&store, &snap);
}
