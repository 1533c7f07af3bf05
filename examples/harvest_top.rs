//! harvest-top: an observability console for the decision service.
//!
//! Drives a seeded crossing-reward workload through a two-shard
//! [`DecisionService`] with tracing enabled, runs a promotion round
//! mid-stream, and renders what the new telemetry layer can see: the
//! conservation ledger, the decision-trace audit, logical-time histogram
//! percentiles, harvest-quality gauges from the gate, and the full
//! Prometheus text exposition.
//!
//! Three modes:
//!
//! * default — a `top`-style console: one dashboard frame per workload
//!   phase, then the final exposition;
//! * `--once` — batch mode for CI: run the whole workload, print the
//!   conservation/trace ledgers and the exposition page once, and assert
//!   both ledgers balance;
//! * `--remote` — after the workload, bind a live `harvest-wire` TCP
//!   server over the same service and scrape the dashboard through the
//!   OPS frame kind (Prometheus page, JSON snapshot, window series,
//!   alerts), asserting every remote body is byte-identical to the
//!   in-process export.
//!
//! Everything is a deterministic function of the seed: logical clocks,
//! forked RNGs, a log queue that blocks instead of dropping, and a drain before every render mean
//! two same-seed runs print byte-identical pages.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example harvest_top -- [seed] [--once] [--remote]
//! ```

use std::sync::Arc;

use harvest::core::SimpleContext;
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::obs::HistogramSummary;
use harvest::serve::{DecisionService, LoggerConfig, ServeConfig, TrainerConfig};
use harvest::simnet::rng::fork_rng;
use harvest::wire::{OpsQuery, OpsResponse, TcpClient, TcpServer, WireConfig, WireCore};
use rand::Rng;

const EPSILON: f64 = 0.2;
const ACTIONS: usize = 2;
const REQUESTS: usize = 4000;
const FRAMES: usize = 4;

fn percentile_line(name: &str, h: &HistogramSummary) -> String {
    format!(
        "  {name:<28} n={:<6} p50={:<8} p90={:<8} p99={:<8} max={}",
        h.count, h.p50, h.p90, h.p99, h.max
    )
}

/// Waits for the writer to drain the queue, so every offered record has
/// reached its terminal state before anything is rendered.
fn drain(svc: &DecisionService<MemorySegments>) {
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
}

fn frame(svc: &DecisionService<MemorySegments>, label: &str) {
    drain(svc);
    let s = svc.metrics();
    let obs = svc.obs().expect("tracing is enabled");
    let audit = obs.tracer().audit();
    println!("── harvest-top {label} ──");
    println!(
        "  decisions={} explored={:.1}% degraded={} dps(logical)={:.0} join-hit={:.1}%",
        s.decisions,
        100.0 * s.exploration_rate,
        s.degraded_decisions,
        s.decisions_per_sec,
        100.0 * s.join_hit_rate
    );
    println!(
        "  ledger: enqueued={} written={} dropped={} quarantined={} backlog={}",
        s.log_enqueued, s.log_written, s.log_dropped, s.log_quarantined, s.log_backlog
    );
    println!(
        "  trace:  decided={} written={} dropped={} quarantined={} unterminated={} trained={}",
        audit.decided,
        audit.written,
        audit.dropped,
        audit.quarantined,
        audit.unterminated,
        audit.trained
    );
    println!(
        "  breaker: {} (trips={} rearms={} last={})",
        if svc.breaker_open() { "OPEN" } else { "closed" },
        s.breaker_trips,
        s.breaker_rearms,
        svc.breaker_last_trip()
            .map(|r| r.to_string())
            .unwrap_or_else(|| "never".to_string())
    );
    println!(
        "{}",
        percentile_line("interarrival_ns", &obs.interarrival_histogram().summary())
    );
    println!(
        "{}",
        percentile_line("join_delay_ns", &obs.join_delay_histogram().summary())
    );
    println!(
        "{}",
        percentile_line(
            "join_queue_depth",
            &obs.join_queue_depth_histogram().summary()
        )
    );
    println!(
        "{}",
        percentile_line(
            "segment_records",
            &obs.segment_records_histogram().summary()
        )
    );
    if let Some(q) = obs.quality() {
        println!(
            "  quality: n={} ess={:.0} ({:.0}%) max_w={:.2} clipped={:.3} floor_hits={:.3} \
             drift={}",
            q.n,
            q.effective_sample_size,
            100.0 * q.ess_fraction,
            q.max_weight,
            q.clipped_weight_mass,
            q.floor_hit_rate,
            if q.drift_suspected {
                "SUSPECTED"
            } else {
                "none"
            }
        );
    } else {
        println!("  quality: (no gate round yet)");
    }
    if let Some(board) = obs.leaderboard() {
        let w = board.winner().expect("non-empty leaderboard");
        println!(
            "  portfolio: k={} n={} winner={} snips={:+.4} lcb={:+.4} ess={:.0}",
            board.entries.len(),
            board.n,
            w.name,
            w.snips.point,
            w.snips.lcb,
            w.weights.ess()
        );
    } else {
        println!("  portfolio: (no gate round yet)");
    }
}

fn main() {
    let mut seed: u64 = 42;
    let mut once = false;
    let mut remote = false;
    for arg in std::env::args().skip(1) {
        if arg == "--once" {
            once = true;
        } else if arg == "--remote" {
            remote = true;
        } else {
            seed = arg.parse().expect("seed must be a u64");
        }
    }
    println!(
        "harvest-top: seed {seed}{}{}",
        if once { " (--once)" } else { "" },
        if remote { " (--remote)" } else { "" }
    );

    let store = MemorySegments::new();
    let cfg = ServeConfig::builder()
        .shards(2)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("harvest-top")
        .logger(
            LoggerConfig::builder()
                .capacity(512)
                .segment(SegmentConfig {
                    max_records: 256,
                    max_bytes: 64 * 1024,
                    max_span_ns: u64::MAX,
                })
                .build(),
        )
        .trainer(TrainerConfig::builder().lambda(1e-3).build())
        .build()
        .expect("valid demo config");
    let svc = Arc::new(DecisionService::new(cfg, store.clone()));

    // Crossing rewards (action 0 pays x, action 1 pays 1 − x), one gate
    // round after the second phase so the quality gauges have something to
    // say in the later frames.
    let train_at = REQUESTS / 2;
    let mut traffic = fork_rng(seed, "harvest-top-traffic");
    let mut now_ns = 0u64;
    for i in 0..REQUESTS {
        if i == train_at {
            drain(&svc);
            let report = svc
                .train_and_maybe_promote(&store.snapshot())
                .expect("training must not crash without chaos");
            println!(
                "gate round at request {i}: {} (n={}, lcb={:.4} vs incumbent={:.4}) -> gen {}",
                report.gate.reason,
                report.gate.n,
                report.gate.candidate_lcb,
                report.gate.incumbent_value,
                report.serving_generation
            );
            let board = svc
                .obs()
                .expect("tracing is enabled")
                .leaderboard()
                .expect("gate round published a leaderboard");
            println!(
                "shadow portfolio: {} candidates in one pass, winner {}",
                board.entries.len(),
                report.gate.winner
            );
            for e in board.entries.iter().take(5) {
                println!(
                    "  #{:<3} {:<12} snips={:+.4} [{:+.4}, {:+.4}] ess={:.0} clipped={:.3}",
                    e.rank,
                    e.name,
                    e.snips.point,
                    e.snips.lcb,
                    e.snips.ucb,
                    e.weights.ess(),
                    e.weights.clipped_mass()
                );
            }
        }
        now_ns += 1_000_000;
        let x: f64 = traffic.gen_range(0.0..1.0);
        let ctx = SimpleContext::new(vec![x], ACTIONS);
        let d = svc
            .decide(i % svc.num_shards(), now_ns, &ctx)
            .expect("service must serve");
        let reward = if d.action == 0 { x } else { 1.0 - x };
        svc.reward(d.request_id, now_ns + 500_000, reward);
        if (i + 1) % (REQUESTS / FRAMES) == 0 {
            // A scope tick per phase, at a deterministic stamp, so the
            // window series and watchdogs have frames to show in every
            // mode.
            drain(&svc);
            svc.scope_tick(now_ns);
            if !once {
                frame(
                    &svc,
                    &format!("[{}/{FRAMES}]", (i + 1) / (REQUESTS / FRAMES)),
                );
            }
        }
    }

    drain(&svc);
    let s = svc.metrics();
    let audit = svc.trace_audit().expect("tracing is enabled");

    let balanced = s.log_enqueued == s.log_written + s.log_dropped + s.log_quarantined;
    println!(
        "conservation: enqueued({}) == written({}) + dropped({}) + quarantined({}) -> {}",
        s.log_enqueued,
        s.log_written,
        s.log_dropped,
        s.log_quarantined,
        if balanced { "OK" } else { "VIOLATED" }
    );
    assert!(balanced, "conservation ledger violated");

    let accounted = audit.written + audit.dropped + audit.quarantined + audit.evictions;
    let traced = audit.decided == accounted && audit.unterminated == 0;
    println!(
        "trace: decided({}) == written({}) + dropped({}) + quarantined({}) + evicted({}), \
         unterminated({}) -> {}",
        audit.decided,
        audit.written,
        audit.dropped,
        audit.quarantined,
        audit.evictions,
        audit.unterminated,
        if traced { "OK" } else { "VIOLATED" }
    );
    assert!(traced, "trace audit violated");

    println!("\n# Prometheus exposition");
    print!("{}", svc.export_prometheus());

    let snapshot = svc.obs_snapshot();
    println!(
        "\n# JSON snapshot\n{}",
        serde_json::to_string(&snapshot).expect("snapshot serializes")
    );

    if remote {
        scrape_remote(&svc);
    }

    let svc = Arc::try_unwrap(svc).ok().expect("all handles released");
    svc.shutdown().unwrap();
}

/// Binds a live TCP server over the (now quiescent) service and scrapes
/// the dashboard through the wire OPS endpoint, asserting every remote
/// body is byte-identical to the in-process export.
fn scrape_remote(svc: &Arc<DecisionService<MemorySegments>>) {
    let core = Arc::new(WireCore::new(Arc::clone(svc), WireConfig::default()));
    let server = TcpServer::bind(Arc::clone(&core), "127.0.0.1:0", 1).expect("bind loopback");
    let mut client = TcpClient::connect(server.local_addr()).expect("connect");

    let scrape = |client: &mut TcpClient, q: OpsQuery| -> String {
        match client.ops(&q).expect("scrape") {
            OpsResponse::Report { body } => body,
            OpsResponse::Shed { reason } => panic!("scrape shed: {reason}"),
        }
    };
    let checks = [
        (
            "prometheus",
            scrape(&mut client, OpsQuery::Prometheus),
            svc.export_prometheus(),
        ),
        (
            "snapshot",
            scrape(&mut client, OpsQuery::Snapshot),
            serde_json::to_string(&svc.obs_snapshot()).expect("snapshot serializes"),
        ),
        (
            "series",
            scrape(&mut client, OpsQuery::Series),
            svc.export_series_json().expect("scope enabled"),
        ),
        (
            "alerts",
            scrape(&mut client, OpsQuery::Alerts),
            svc.export_alerts_json().expect("scope enabled"),
        ),
    ];
    let ok = checks.iter().all(|(_, remote, local)| remote == local);
    println!(
        "\nremote scrape parity ({}) -> {}",
        checks
            .iter()
            .map(|(name, _, _)| *name)
            .collect::<Vec<_>>()
            .join(", "),
        if ok { "OK" } else { "VIOLATED" }
    );
    for (name, remote, local) in &checks {
        assert_eq!(remote, local, "{name} scrape must match in-process export");
    }
    // The leaderboard travels the same OPS path; compare it separately so
    // the four-family parity line above stays stable for CI.
    let remote_board = scrape(&mut client, OpsQuery::Leaderboard);
    let local_board = svc
        .export_leaderboard_json()
        .unwrap_or_else(|| "null".to_string());
    println!(
        "leaderboard scrape parity -> {}",
        if remote_board == local_board {
            "OK"
        } else {
            "VIOLATED"
        }
    );
    assert_eq!(
        remote_board, local_board,
        "leaderboard scrape must match in-process export"
    );
    server.shutdown();
}
