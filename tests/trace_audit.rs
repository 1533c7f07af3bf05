//! Acceptance tests for the observability tentpole: end-to-end decision
//! traceability and deterministic telemetry export.
//!
//! 1. In a seeded chaos run, **every** decision id is accounted to exactly
//!    one terminal state (written, dropped, or quarantined) once the log
//!    pipeline drains — no unterminated traces, no conflicts, no evictions
//!    at test scale — and the trace partition matches the decision count.
//! 2. Two same-seed runs render byte-identical Prometheus expositions,
//!    JSON snapshots, and trace exports: telemetry is a pure function of
//!    the seed and the call sequence, so any byte that differs between
//!    runs is a behavior change, not noise.

use harvest::core::SimpleContext;
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::serve::{
    ChaosHorizon, ChaosPlan, ChaosPlanConfig, DecisionService, LoggerConfig, ServeConfig,
    SupervisorConfig, Terminal, TrainerConfig,
};
use harvest::simnet::rng::fork_rng;
use rand::Rng;

const EPSILON: f64 = 0.2;
const ACTIONS: usize = 3;
const REQUESTS: usize = 1500;

fn service_config(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .shards(2)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("trace-audit-test")
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

/// Drives the seeded crossing workload: decide, reward, one training round
/// midway. Returns the service with its backlog fully drained.
fn run_workload(svc: &DecisionService<MemorySegments>, store: &MemorySegments, seed: u64) {
    let mut traffic = fork_rng(seed, "trace-audit-traffic");
    let mut now_ns = 0u64;
    for i in 0..REQUESTS {
        if i == REQUESTS / 2 {
            while svc.metrics().log_backlog > 0 {
                std::thread::yield_now();
            }
            // A chaos-crashed trainer round is an acceptable outcome; the
            // trace ledger must balance either way.
            let _ = svc.train_and_maybe_promote(&store.snapshot());
        }
        now_ns += 1_000_000;
        let x: f64 = traffic.gen_range(0.0..1.0);
        let ctx = SimpleContext::new(vec![x], ACTIONS);
        let d = svc
            .decide(i % svc.num_shards(), now_ns, &ctx)
            .expect("service must keep serving");
        let reward = if d.action == 0 { x } else { 1.0 - x };
        svc.reward(d.request_id, now_ns + 500_000, reward);
    }
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
}

#[test]
fn every_decision_reaches_exactly_one_terminal_state_under_chaos() {
    for seed in [11u64, 29, 47] {
        let horizon = ChaosHorizon {
            writer_records: (REQUESTS * 2) as u64,
            rewards: REQUESTS as u64,
            decisions: REQUESTS as u64,
            rounds: 1,
            checkpoints: 0,
        };
        let mut plan_rng = fork_rng(seed, "trace-audit-plan");
        let plan = ChaosPlan::generate(&ChaosPlanConfig::default(), &horizon, &mut plan_rng);
        let store = MemorySegments::new();
        let svc = DecisionService::with_chaos(service_config(seed), store.clone(), plan);
        run_workload(&svc, &store, seed);

        let snap = svc.metrics();
        let audit = svc.trace_audit().expect("tracing is on by default");
        let obs = svc.obs().unwrap().clone();

        // Global partition: every opened trace landed in exactly one
        // terminal bucket, and nothing is still in flight.
        assert_eq!(
            audit.decided, snap.decisions,
            "seed {seed}: one trace per decision"
        );
        assert_eq!(audit.unterminated, 0, "seed {seed}: {audit:?}");
        assert_eq!(
            audit.evictions, 0,
            "seed {seed}: capacity must hold the run"
        );
        assert_eq!(audit.terminal_conflicts, 0, "seed {seed}: {audit:?}");
        assert_eq!(audit.late_events, 0, "seed {seed}: {audit:?}");
        assert_eq!(
            audit.decided,
            audit.written + audit.dropped + audit.quarantined,
            "seed {seed}: trace partition must cover every decision: {audit:?}"
        );

        // The trace partition is consistent with the conservation ledger:
        // the log pipeline also carries outcome records, so the traced
        // decision terminals can never exceed the ledger's totals.
        assert_eq!(
            snap.log_enqueued,
            snap.log_written + snap.log_dropped + snap.log_quarantined,
            "seed {seed}: conservation ledger"
        );
        assert!(audit.written <= snap.log_written, "seed {seed}");
        assert!(audit.dropped <= snap.log_dropped, "seed {seed}");
        assert!(audit.quarantined <= snap.log_quarantined, "seed {seed}");

        // Per-decision: exactly one terminal on every exported trace.
        let traces = obs.tracer().export_sorted();
        assert_eq!(traces.len() as u64, audit.decided);
        for t in &traces {
            assert!(
                t.terminal.is_some(),
                "seed {seed}: decision {} has no terminal state",
                t.id
            );
            if matches!(t.terminal, Some(Terminal::Written)) && !t.enqueued {
                panic!("seed {seed}: shed decision {} marked written", t.id);
            }
        }
        svc.shutdown().unwrap();
    }
}

#[test]
fn same_seed_runs_export_byte_identical_telemetry() {
    let run = |seed: u64| {
        let store = MemorySegments::new();
        let svc = DecisionService::new(service_config(seed), store.clone());
        run_workload(&svc, &store, seed);
        let prom = svc.export_prometheus();
        let json = serde_json::to_string(&svc.obs_snapshot()).expect("snapshot serializes");
        let trace = svc.export_trace_jsonl().expect("tracing is on by default");
        svc.shutdown().unwrap();
        (prom, json, trace)
    };
    let (prom_a, json_a, trace_a) = run(23);
    let (prom_b, json_b, trace_b) = run(23);
    assert_eq!(
        prom_a, prom_b,
        "Prometheus exposition must be deterministic"
    );
    assert_eq!(json_a, json_b, "JSON snapshot must be deterministic");
    assert_eq!(trace_a, trace_b, "trace export must be deterministic");
    // And it is the seed that drives the content, not chance agreement.
    let (prom_c, _, _) = run(24);
    assert_ne!(prom_a, prom_c, "different seeds must diverge somewhere");
}

#[test]
fn disabled_observability_serves_without_a_tracer() {
    let store = MemorySegments::new();
    let mut cfg = service_config(5);
    cfg.obs.enabled = false;
    let svc = DecisionService::new(cfg, store.clone());
    let ctx = SimpleContext::new(vec![0.4], ACTIONS);
    for i in 0..50u64 {
        let d = svc.decide((i % 2) as usize, i * 1_000, &ctx).unwrap();
        svc.reward(d.request_id, i * 1_000 + 500, 1.0);
    }
    assert!(svc.obs().is_none());
    assert!(svc.trace_audit().is_none());
    // The exporters still render: counters only, no histogram families.
    let page = svc.export_prometheus();
    assert!(page.contains("harvest_decisions_total 50"));
    assert!(!page.contains("harvest_trace_decided_total"));
    svc.shutdown().unwrap();
}
