//! harvest-scope: the windowed ops plane driven end to end.
//!
//! A two-shard service runs a seeded workload with the scope enabled:
//! every logical window the example drains the log pipeline and ticks the
//! scope, which slices the counters into window frames, folds the stage
//! journal into decide→terminal latency histograms, and evaluates the
//! watchdogs. Mid-run an injected overload burst floods the admission
//! door with sheds for four windows — the SLO burn-rate watchdog fires
//! after its hysteresis (two breaching windows), holds while the burn
//! lasts, and clears two healthy windows after the burst ends. A gate
//! round midway publishes harvest-quality gauges so the quality watchdog
//! has evidence to stay silent on.
//!
//! Everything is a pure function of the seed, so the example runs the
//! whole workload twice and asserts the window series, alert states,
//! alert event log, and Prometheus page come back byte-identical. CI runs
//! this on several seeds and greps for the `-> OK` lines:
//!
//! ```text
//! alert lifecycle: slo_burn_rate fired@w9 cleared@w13 -> OK
//! byte-identical exports across same-seed runs -> OK
//! ```
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example harvest_scope -- [seed]
//! ```

use harvest::core::SimpleContext;
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::obs::{validate_exposition, AlertEvent, AlertPhase};
use harvest::serve::{DecisionService, LoggerConfig, ScopeConfig, ServeConfig, TrainerConfig};
use harvest::simnet::rng::fork_rng;
use rand::Rng;

const EPSILON: f64 = 0.2;
const ACTIONS: usize = 2;
/// Logical window width: 100 ms.
const WINDOW_NS: u64 = 100_000_000;
/// Windows driven per run.
const WINDOWS: u64 = 20;
/// Decisions served inside each window.
const PER_WINDOW: u64 = 50;
/// The overload burst occupies windows 8..=11.
const BURST_FIRST: u64 = 8;
const BURST_LAST: u64 = 11;
/// Door sheds injected per burst window (burn = 200 / 250 = 0.8).
const BURST_SHEDS: u64 = 200;
/// Gate round runs at the end of this window, publishing quality gauges.
const TRAIN_WINDOW: u64 = 5;

struct RunOutput {
    series_json: String,
    alerts_json: String,
    events_jsonl: String,
    prometheus: String,
    events: Vec<AlertEvent>,
}

fn drain(svc: &DecisionService<MemorySegments>) {
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
}

fn run(seed: u64, verbose: bool) -> RunOutput {
    let store = MemorySegments::new();
    let cfg = ServeConfig::builder()
        .shards(2)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("harvest-scope")
        .logger(
            LoggerConfig::builder()
                .capacity(1024)
                .segment(SegmentConfig {
                    max_records: 256,
                    max_bytes: 64 * 1024,
                    max_span_ns: u64::MAX,
                })
                .build(),
        )
        .trainer(TrainerConfig::builder().lambda(1e-3).build())
        .scope(
            ScopeConfig::builder()
                .window_ns(WINDOW_NS)
                .windows(64)
                .slo_threshold(0.3)
                .quality_threshold(0.05)
                .build(),
        )
        .build()
        .expect("valid demo config");
    let svc = DecisionService::new(cfg, store.clone());
    let metrics = svc.metrics_handle();

    let mut traffic = fork_rng(seed, "harvest-scope-traffic");
    let step = WINDOW_NS / (PER_WINDOW + 1);
    let mut events = Vec::new();
    for w in 1..=WINDOWS {
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
        if (BURST_FIRST..=BURST_LAST).contains(&w) {
            // The injected chaos burst: an overload flood refused at the
            // admission door, ledgered exactly as the wire front-end
            // ledgers its sheds. The SLO burn for these windows is
            // 200 / (50 + 200) = 0.8, far past the 0.3 threshold.
            metrics.record_admission_shed_n(BURST_SHEDS);
        }
        if w == TRAIN_WINDOW {
            // A gate round publishes the harvest-quality gauges the
            // quality watchdog evaluates (healthy here, so it stays
            // silent — no evidence, no verdict before this point).
            drain(&svc);
            let report = svc
                .train_and_maybe_promote(&store.snapshot())
                .expect("training must not crash without chaos");
            if verbose {
                println!(
                    "gate round at window {w}: {} -> serving gen {}",
                    report.gate.reason, report.serving_generation
                );
            }
        }
        // Tick at the window boundary, after the pipeline drains: the
        // journal and counters are then pure functions of the seed, and
        // this tick seals window `w`.
        drain(&svc);
        for ev in svc.scope_tick(w * WINDOW_NS) {
            if verbose {
                println!(
                    "window {:>2}: alert {} {} (value {:.3}, threshold {:.3})",
                    ev.window,
                    ev.alert,
                    match ev.phase {
                        AlertPhase::Fired => "FIRED",
                        AlertPhase::Cleared => "cleared",
                    },
                    ev.value,
                    ev.threshold
                );
            }
            events.push(ev);
        }
    }

    drain(&svc);
    let out = RunOutput {
        series_json: svc.export_series_json().expect("scope enabled"),
        alerts_json: svc.export_alerts_json().expect("scope enabled"),
        events_jsonl: svc.export_alert_events_jsonl().expect("scope enabled"),
        prometheus: svc.export_prometheus(),
        events,
    };
    let s = svc.metrics();
    let balanced = s.log_enqueued == s.log_written + s.log_dropped + s.log_quarantined;
    assert!(balanced, "conservation ledger violated");
    svc.shutdown().expect("clean shutdown");
    out
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);
    println!(
        "harvest-scope: seed {seed}, {WINDOWS} windows x {PER_WINDOW} decisions, \
         overload burst in windows {BURST_FIRST}..={BURST_LAST}"
    );

    let first = run(seed, true);

    // The watchdog lifecycle is fixed by the injected burst, independent
    // of the seed: breaches in windows 8..=11, fire on the second breach,
    // clear after two healthy windows.
    let slo: Vec<&AlertEvent> = first
        .events
        .iter()
        .filter(|e| e.alert == "slo_burn_rate")
        .collect();
    let lifecycle_ok = slo.len() == 2
        && slo[0].phase == AlertPhase::Fired
        && slo[0].window == BURST_FIRST + 1
        && slo[1].phase == AlertPhase::Cleared
        && slo[1].window == BURST_LAST + 2;
    println!(
        "alert lifecycle: slo_burn_rate fired@w{} cleared@w{} -> {}",
        slo.first().map(|e| e.window).unwrap_or(0),
        slo.get(1).map(|e| e.window).unwrap_or(0),
        if lifecycle_ok { "OK" } else { "VIOLATED" }
    );
    assert!(lifecycle_ok, "alert lifecycle violated: {:?}", first.events);
    let quality_silent = first.events.iter().all(|e| e.alert != "harvest_quality");
    assert!(quality_silent, "healthy run must not page on quality");

    validate_exposition(&first.prometheus).expect("exposition conformance");
    println!(
        "prometheus exposition: {} bytes, conformance -> OK",
        first.prometheus.len()
    );

    // Same seed, second run: every export must come back byte-identical.
    let second = run(seed, false);
    let identical = first.series_json == second.series_json
        && first.alerts_json == second.alerts_json
        && first.events_jsonl == second.events_jsonl
        && first.prometheus == second.prometheus;
    println!(
        "byte-identical exports across same-seed runs -> {}",
        if identical { "OK" } else { "VIOLATED" }
    );
    assert!(identical, "same-seed exports must be byte-identical");
}
