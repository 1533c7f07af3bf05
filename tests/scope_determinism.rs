//! Determinism acceptance for the windowed ops plane (ISSUE 9 tentpole).
//!
//! The scope is ticked at logical window boundaries after the pipeline
//! drains, so everything it exports — the window series, alert states,
//! alert event log, Prometheus page, and the wire OPS scrape bodies — is
//! a pure function of the seed. These tests hold that bar:
//!
//! 1. same-seed clean runs export byte-identical ops planes, and the
//!    bytes a remote scraper receives over the OPS endpoint are those
//!    same bytes;
//! 2. same-seed runs under an identical generated [`ChaosPlan`] (writer
//!    kills, torn writes, reward faults, poisoned shards) still export
//!    byte-identical ops planes — chaos shifts records between
//!    written/dropped/quarantined, but deterministically;
//! 3. the SLO watchdog's fire → hold → clear lifecycle is reproducible
//!    across a warm restart: a run killed and resumed mid-stream raises
//!    the same alert events, at the same windows with the same values,
//!    as the uninterrupted run.

use std::sync::Arc;

use harvest::core::SimpleContext;
use harvest::logs::checkpoint::{CheckpointWriter, MemoryCheckpoints};
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::obs::{validate_exposition, AlertEvent, AlertPhase};
use harvest::serve::{
    ChaosHorizon, ChaosPlan, ChaosPlanConfig, DecisionService, GateConfig, LoggerConfig,
    ScopeConfig, ServeConfig, TrainerConfig,
};
use harvest::simnet::rng::fork_rng;
use harvest::wire::{Duplex, OpsQuery, OpsResponse, WireConfig, WireCore};
use rand::Rng;

const EPSILON: f64 = 0.2;
const ACTIONS: usize = 2;
const WINDOW_NS: u64 = 100_000_000;
const WINDOWS: u64 = 14;
const PER_WINDOW: u64 = 40;
/// The injected overload burst occupies windows 5..=8; with 200 door
/// sheds against 40 served decisions the per-window burn is 200 / 240.
const BURST_FIRST: u64 = 5;
const BURST_LAST: u64 = 8;
const BURST_SHEDS: u64 = 200;
/// With fire/clear hysteresis of 2, the lifecycle is pinned to these
/// windows (see `examples/harvest_scope.rs` for the arithmetic).
const FIRED_AT: u64 = BURST_FIRST + 1;
const CLEARED_AT: u64 = BURST_LAST + 2;
const TRAIN_WINDOW: u64 = 3;

fn config(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .shards(2)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("scope-determinism")
        .logger(
            LoggerConfig::builder()
                .capacity(512)
                .segment(SegmentConfig {
                    max_records: 128,
                    max_bytes: 64 * 1024,
                    max_span_ns: u64::MAX,
                })
                .build(),
        )
        .trainer(
            TrainerConfig::builder()
                .lambda(1e-3)
                // Single-candidate gate: the seeded gate round must promote
                // (the swap is what makes different seeds' series differ),
                // and the k=16 simultaneous CI would (correctly) refuse on
                // this small a harvest.
                .gate(GateConfig::builder().portfolio(1).build())
                .build(),
        )
        .scope(
            ScopeConfig::builder()
                .window_ns(WINDOW_NS)
                .windows(64)
                .slo_threshold(0.3)
                .quality_threshold(0.05)
                .build(),
        )
        .build()
        .expect("valid test config")
}

fn drain(svc: &DecisionService<MemorySegments>) {
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
}

/// One window of seeded traffic. Contexts come from a per-window forked
/// stream so a restarted driver can resume mid-sequence without replaying
/// its own RNG.
fn run_window(svc: &DecisionService<MemorySegments>, seed: u64, w: u64) {
    let mut traffic = fork_rng(seed, &format!("scope-det-window-{w}"));
    let step = WINDOW_NS / (PER_WINDOW + 1);
    let window_start = (w - 1) * WINDOW_NS;
    for i in 0..PER_WINDOW {
        let now_ns = window_start + (i + 1) * step;
        let x: f64 = traffic.gen_range(0.0..1.0);
        let ctx = SimpleContext::new(vec![x], ACTIONS);
        let d = svc
            .decide((i % 2) as usize, now_ns, &ctx)
            .expect("service must serve");
        let reward = if d.action == 0 { x } else { 1.0 - x };
        svc.reward(d.request_id, now_ns + step / 2, reward);
    }
}

/// Everything the ops plane can say, plus the bytes a remote scraper
/// sees for each OPS query kind.
struct OpsExports {
    series: String,
    alerts: String,
    events_jsonl: String,
    prometheus: String,
    scrapes: Vec<(&'static str, String)>,
    events: Vec<AlertEvent>,
}

/// Scrapes every OPS query kind through the in-memory duplex transport —
/// the same `WireCore::ops` path the TCP front-end serves — and hands the
/// service back for shutdown.
fn scrape_all(
    svc: DecisionService<MemorySegments>,
) -> (Vec<(&'static str, String)>, DecisionService<MemorySegments>) {
    let svc = Arc::new(svc);
    let core = Arc::new(WireCore::new(Arc::clone(&svc), WireConfig::default()));
    let duplex = Duplex::new(core);
    let mut conn = duplex.connect();
    let mut out = Vec::new();
    // Fixed scrape order: the wire_prometheus body includes the ops
    // ledger itself, so it is deterministic only because every run
    // scrapes in this exact sequence.
    for (name, q) in [
        ("prometheus", OpsQuery::Prometheus),
        ("snapshot", OpsQuery::Snapshot),
        ("series", OpsQuery::Series),
        ("alerts", OpsQuery::Alerts),
        ("alert_events", OpsQuery::AlertEvents),
        ("wire_prometheus", OpsQuery::WirePrometheus),
    ] {
        match conn.ops(&q).expect("scrape") {
            OpsResponse::Report { body } => out.push((name, body)),
            OpsResponse::Shed { reason } => panic!("{name} scrape shed: {reason}"),
        }
    }
    drop(conn);
    drop(duplex);
    let svc = Arc::try_unwrap(svc)
        .ok()
        .expect("all wire handles released");
    (out, svc)
}

/// Drives the windowed workload (optionally under chaos, optionally with
/// the overload burst and a mid-run gate round) and returns every export.
fn drive(seed: u64, plan: Option<ChaosPlan>, burst: bool, train: bool) -> OpsExports {
    let store = MemorySegments::new();
    let svc = match plan {
        Some(p) => DecisionService::with_chaos(config(seed), store.clone(), p),
        None => DecisionService::new(config(seed), store.clone()),
    };
    let metrics = svc.metrics_handle();
    let mut events = Vec::new();
    for w in 1..=WINDOWS {
        run_window(&svc, seed, w);
        if burst && (BURST_FIRST..=BURST_LAST).contains(&w) {
            metrics.record_admission_shed_n(BURST_SHEDS);
        }
        if train && w == TRAIN_WINDOW {
            drain(&svc);
            svc.train_and_maybe_promote(&store.snapshot())
                .expect("train");
        }
        drain(&svc);
        events.extend(svc.scope_tick(w * WINDOW_NS));
    }
    drain(&svc);
    let series = svc.export_series_json().expect("scope enabled");
    let alerts = svc.export_alerts_json().expect("scope enabled");
    let events_jsonl = svc.export_alert_events_jsonl().expect("scope enabled");
    let prometheus = svc.export_prometheus();
    let (scrapes, svc) = scrape_all(svc);
    svc.shutdown().expect("clean shutdown");
    OpsExports {
        series,
        alerts,
        events_jsonl,
        prometheus,
        scrapes,
        events,
    }
}

fn assert_identical(a: &OpsExports, b: &OpsExports, label: &str) {
    assert_eq!(a.series, b.series, "{label}: window series");
    assert_eq!(a.alerts, b.alerts, "{label}: alert states");
    assert_eq!(a.events_jsonl, b.events_jsonl, "{label}: alert event log");
    assert_eq!(a.prometheus, b.prometheus, "{label}: prometheus page");
    assert_eq!(a.scrapes.len(), b.scrapes.len(), "{label}: scrape count");
    for ((name_a, body_a), (name_b, body_b)) in a.scrapes.iter().zip(&b.scrapes) {
        assert_eq!(name_a, name_b);
        assert_eq!(body_a, body_b, "{label}: OPS {name_a} scrape body");
    }
}

#[test]
fn same_seed_runs_export_byte_identical_ops_planes() {
    for seed in [11u64, 42] {
        let a = drive(seed, None, true, true);
        let b = drive(seed, None, true, true);
        assert_identical(&a, &b, &format!("seed {seed}, clean"));

        // The remote scrape serves exactly the in-process bytes.
        validate_exposition(&a.prometheus).expect("exposition conformance");
        assert_eq!(a.scrapes[0].1, a.prometheus, "OPS scrape == local export");
        assert_eq!(a.scrapes[2].1, a.series, "OPS series == local export");
        assert_eq!(a.scrapes[3].1, a.alerts, "OPS alerts == local export");
        assert_eq!(a.scrapes[4].1, a.events_jsonl, "OPS events == local export");

        // The injected burst drives the pinned SLO lifecycle.
        let slo: Vec<&AlertEvent> = a
            .events
            .iter()
            .filter(|e| e.alert == "slo_burn_rate")
            .collect();
        assert_eq!(
            slo.len(),
            2,
            "seed {seed}: lifecycle events: {:?}",
            a.events
        );
        assert_eq!((slo[0].phase, slo[0].window), (AlertPhase::Fired, FIRED_AT));
        assert_eq!(
            (slo[1].phase, slo[1].window),
            (AlertPhase::Cleared, CLEARED_AT)
        );
    }
    // And the plane genuinely depends on the seed.
    let a = drive(11, None, true, true);
    let c = drive(12, None, true, true);
    assert_ne!(a.series, c.series, "different seeds must differ");
}

#[test]
fn same_seed_chaos_runs_export_byte_identical_ops_planes() {
    // No training: the incumbent stays uniform, so racy breaker timing
    // cannot alter sampled actions (same caveat as the chaos recovery
    // suite). The plan itself is a deterministic function of the seed.
    for seed in [23u64, 40] {
        let run = |seed: u64| {
            let horizon = ChaosHorizon {
                writer_records: WINDOWS * PER_WINDOW * 2,
                rewards: WINDOWS * PER_WINDOW,
                decisions: WINDOWS * PER_WINDOW,
                rounds: 0,
                checkpoints: 0,
            };
            let mut rng = fork_rng(seed, "scope-chaos-plan");
            let plan = ChaosPlan::generate(&ChaosPlanConfig::default(), &horizon, &mut rng);
            assert!(!plan.is_empty());
            drive(seed, Some(plan), true, false)
        };
        let a = run(seed);
        let b = run(seed);
        assert_identical(&a, &b, &format!("seed {seed}, chaos"));
        validate_exposition(&a.prometheus).expect("exposition conformance under chaos");
    }
}

/// The lifecycle driver with a kill/resume point: checkpoints each
/// window, dies after `kill_at`'s tick, resumes from the durable state,
/// and finishes the run. Returns every alert event across incarnations.
fn lifecycle_run(seed: u64, kill_at: Option<u64>) -> Vec<AlertEvent> {
    let store = MemorySegments::new();
    let ckpts = MemoryCheckpoints::new();
    let mut writer = CheckpointWriter::new(ckpts.clone(), 8).expect("writer");
    let mut svc = DecisionService::new(config(seed), store.clone());
    let mut metrics = svc.metrics_handle();
    let mut events = Vec::new();
    for w in 1..=WINDOWS {
        run_window(&svc, seed, w);
        if (BURST_FIRST..=BURST_LAST).contains(&w) {
            metrics.record_admission_shed_n(BURST_SHEDS);
        }
        drain(&svc);
        events.extend(svc.scope_tick(w * WINDOW_NS));
        svc.write_checkpoint(&mut writer, w, w * WINDOW_NS)
            .expect("checkpoint");
        if kill_at == Some(w) {
            let dead = svc.shutdown().expect("kill");
            let segments = dead.snapshot();
            let (resumed, report) =
                DecisionService::resume(config(seed), dead, None, &ckpts, &segments)
                    .expect("resume");
            assert_eq!(report.replay_divergence, 0, "replay must match the log");
            assert_eq!(report.cursor, w, "checkpoint covers the killed window");
            svc = resumed;
            metrics = svc.metrics_handle();
        }
    }
    drain(&svc);
    svc.shutdown().expect("clean shutdown");
    events
}

#[test]
fn alert_lifecycle_survives_a_warm_restart() {
    let seed = 42;
    let reference = lifecycle_run(seed, None);
    let reference_json = serde_json::to_string(&reference).unwrap();
    let slo: Vec<&AlertEvent> = reference
        .iter()
        .filter(|e| e.alert == "slo_burn_rate")
        .collect();
    assert_eq!(slo.len(), 2, "reference lifecycle: {reference:?}");
    assert_eq!((slo[0].phase, slo[0].window), (AlertPhase::Fired, FIRED_AT));
    assert_eq!(
        (slo[1].phase, slo[1].window),
        (AlertPhase::Cleared, CLEARED_AT)
    );

    // Kill before the burst and after the clear. (A restart *inside* a
    // firing streak loses the watchdog's in-memory hysteresis by design —
    // alerts page operators about the current incarnation; the durable
    // facts they summarize live in the checkpointed counters.)
    for kill_at in [3u64, 12] {
        let events = lifecycle_run(seed, Some(kill_at));
        assert_eq!(
            serde_json::to_string(&events).unwrap(),
            reference_json,
            "kill at window {kill_at}: lifecycle must reproduce"
        );
    }
}
