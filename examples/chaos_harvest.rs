//! The harvest loop under a seeded fault schedule: chaos-hardening demo.
//!
//! A two-shard service serves a synthetic contextual workload while a
//! [`ChaosPlan`] generated from the seed kills the log writer, tears frames
//! mid-append, drops and delays rewards, wedges shards, and crashes
//! the trainer mid-fit. After shutdown the same plan's at-rest faults
//! damage the persisted segments before recovery replays them.
//!
//! The run prints the conservation ledger the CI chaos job greps for:
//! every record offered to the log is written, dropped, or quarantined —
//! never silently lost — and the circuit breaker's trips and re-arms are
//! reported. Everything is a deterministic function of the seed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chaos_harvest -- [seed]
//! ```

use harvest::core::SimpleContext;
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::serve::{
    apply_at_rest_faults, ChaosHorizon, ChaosPlan, ChaosPlanConfig, DecisionService, LoggerConfig,
    ServeConfig, ServeError, SupervisorConfig, TrainerConfig,
};
use harvest::simnet::rng::fork_rng;
use rand::Rng;

const EPSILON: f64 = 0.2;
const ACTIONS: usize = 3;
const REQUESTS: usize = 2000;
const TRAIN_ROUNDS: usize = 2;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);

    let horizon = ChaosHorizon {
        writer_records: (REQUESTS * 2) as u64,
        rewards: REQUESTS as u64,
        decisions: REQUESTS as u64,
        rounds: TRAIN_ROUNDS as u64,
        checkpoints: 0,
    };
    let mut plan_rng = fork_rng(seed, "chaos-plan");
    let plan = ChaosPlan::generate(&ChaosPlanConfig::default(), &horizon, &mut plan_rng);
    println!("chaos-harvest: seed {seed}, schedule [{}]", plan.summary());

    let store = MemorySegments::new();
    let cfg = ServeConfig::builder()
        .shards(2)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("chaos-demo")
        .logger(
            LoggerConfig::builder()
                .capacity(256)
                .segment(SegmentConfig {
                    max_records: 128,
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
        .expect("valid demo config");
    let svc = DecisionService::with_chaos(cfg, store.clone(), plan.clone());

    // Training rounds are interleaved with serving so a mid-fit trainer
    // crash has live traffic after it: the breaker's safe-arm fallback and
    // its eventual re-arm both show up in the served stream.
    let train_at: Vec<usize> = (1..=TRAIN_ROUNDS)
        .map(|r| REQUESTS * r / (TRAIN_ROUNDS + 1))
        .collect();

    let mut traffic = fork_rng(seed, "chaos-traffic");
    let mut now_ns = 0u64;
    let mut degraded_served = 0u64;
    let mut round = 0usize;
    for i in 0..REQUESTS {
        if train_at.contains(&i) {
            while svc.metrics().log_backlog > 0 {
                std::thread::yield_now();
            }
            match svc.train_and_maybe_promote(&store.snapshot()) {
                Ok(report) => println!(
                    "train round {round} (at request {i}): gate {} -> serving gen {} ({})",
                    if report.gate.promoted {
                        "PROMOTED"
                    } else {
                        "kept incumbent"
                    },
                    report.serving_generation,
                    report.serving_name
                ),
                Err(ServeError::TrainerCrashed { round }) => println!(
                    "train round {round} (at request {i}): trainer CRASHED mid-fit (injected); \
                     incumbent kept, breaker open"
                ),
                Err(other) => panic!("unexpected training error: {other:?}"),
            }
            round += 1;
        }
        now_ns += 1_000_000;
        let x: f64 = traffic.gen_range(0.0..1.0);
        let ctx = SimpleContext::new(vec![x], ACTIONS);
        let d = svc
            .decide(i % svc.num_shards(), now_ns, &ctx)
            .expect("service must keep serving under chaos");
        assert!(d.propensity > 0.0 && d.propensity <= 1.0);
        if d.degraded {
            degraded_served += 1;
        }
        let reward = if d.action == 0 { x } else { 1.0 - x };
        svc.reward(d.request_id, now_ns + 500_000, reward);
    }

    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    let snap = svc.metrics();
    svc.shutdown().unwrap();

    println!(
        "\nserved {REQUESTS} requests ({degraded_served} degraded by the safe arm), \
         writer restarts {}, lock recoveries {}, rewards lost {}",
        snap.writer_restarts, snap.lock_recoveries, snap.rewards_lost
    );
    println!(
        "breaker: trips={} rearms={}",
        snap.breaker_trips, snap.breaker_rearms
    );

    let balanced = snap.log_enqueued == snap.log_written + snap.log_dropped + snap.log_quarantined;
    println!(
        "zero silent data loss: enqueued({}) == written({}) + dropped({}) + quarantined({}) -> {}",
        snap.log_enqueued,
        snap.log_written,
        snap.log_dropped,
        snap.log_quarantined,
        if balanced { "OK" } else { "VIOLATED" }
    );
    assert!(balanced, "conservation ledger violated");

    // At-rest damage, then recovery: the longest valid prefix of every
    // segment replays; damaged frames are quarantined and counted.
    let landed = apply_at_rest_faults(&plan, &store);
    let (records, stats) = store.recover();
    println!(
        "at-rest: {landed} fault(s) landed; recovery replayed {} records across {} segments \
         ({} corrupt), quarantined {} records / {} bytes",
        stats.recovered,
        stats.segments,
        stats.corrupt_segments,
        stats.quarantined_records,
        stats.quarantined_bytes
    );
    let cross_crash = (stats.recovered + stats.quarantined_records) as u64 + snap.log_dropped
        == snap.log_enqueued;
    println!(
        "cross-crash ledger: recovered({}) + quarantined({}) + dropped({}) == enqueued({}) -> {}",
        stats.recovered,
        stats.quarantined_records,
        snap.log_dropped,
        snap.log_enqueued,
        if cross_crash { "OK" } else { "VIOLATED" }
    );
    assert!(cross_crash, "cross-crash ledger violated");
    assert!(!records.is_empty());
}
