//! The decision service end to end: serve → log → harvest → train → gate →
//! hot-swap, on load-balancer traffic.
//!
//! A four-shard service routes Fig 5-style requests (two servers, one with
//! a fast path for 30 % of traffic, latency rising with load). Generation 0
//! explores uniformly; after each wave of traffic the trainer harvests the
//! service's own decision log, fits a candidate scorer, and asks the gate
//! for promotion. The run then demonstrates the gate's other half: a
//! sabotaged candidate (the learned scorer inverted) is refused.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example harvest_serve
//! ```

use harvest::lb::{ClusterConfig, LbContext};
use harvest::logs::segment::recover_segments;
use harvest::prelude::*;
use harvest::serve::{GateConfigBuilder, GateEstimator, Trainer};
use harvest::simnet::rng::fork_rng;
use harvest_estimators::bounds::BoundConfig;
use rand::Rng;

const SEED: u64 = 42;
const WAVES: usize = 3;
const REQUESTS_PER_WAVE: usize = 4000;
const BATCH: usize = 16;
const EPSILON: f64 = 0.15;

fn gate_config() -> GateConfigBuilder {
    GateConfig::builder()
        .bound(BoundConfig {
            c: 2.0,
            delta: 0.05,
        })
        .estimator(GateEstimator::Snips)
        .min_samples(500)
}

fn trainer_config(gate: GateConfig) -> TrainerConfig {
    TrainerConfig::builder()
        .lambda(1e-3)
        .modeling(harvest::core::learner::ModelingMode::Pooled)
        .gate(gate)
        .build()
}

fn main() {
    let cluster = ClusterConfig::fig5();
    let store = MemorySegments::new();
    let cfg = ServeConfig::builder()
        .shards(4)
        .epsilon(EPSILON)
        .master_seed(SEED)
        .component("nginx-lb")
        .logger(LoggerConfig::builder().capacity(4096).build())
        .join_ttl_ns(5_000_000_000)
        .trainer(trainer_config(gate_config().build()))
        .build()
        .expect("valid demo config");
    let svc = DecisionService::new(cfg, store.clone());

    println!("harvest-serve: online decision service on the Fig 5 cluster");
    println!(
        "{} shards, eps = {EPSILON}, seed = {SEED}, {REQUESTS_PER_WAVE} requests/wave, batch {BATCH}\n",
        svc.num_shards()
    );

    let mut traffic = fork_rng(SEED, "lb-traffic");
    let mut now_ns = 0u64;
    // Requests arrive in batches of BATCH (think: one poll of an accept
    // queue); the whole batch shares a logical arrival instant and is served
    // by one decide_batch call into this reused buffer.
    let mut batch = DecisionBatch::with_capacity(BATCH);
    let mut contexts: Vec<SimpleContext> = Vec::with_capacity(BATCH);
    let mut loads: Vec<(usize, Vec<u32>)> = Vec::with_capacity(BATCH);
    for wave in 0..WAVES {
        let serving = svc.registry().current();
        let mut latency_sum = 0.0;
        for batch_no in 0..REQUESTS_PER_WAVE / BATCH {
            now_ns += 1_000_000; // one batch per logical millisecond
            contexts.clear();
            loads.clear();
            for _ in 0..BATCH {
                // Request class from the workload mix, load snapshot per
                // server.
                let u: f64 = traffic.gen();
                let class = if u < cluster.class_probs[0] { 0 } else { 1 };
                let connections: Vec<u32> = (0..cluster.num_servers())
                    .map(|_| traffic.gen_range(0..15u32))
                    .collect();
                contexts.push(
                    LbContext {
                        connections: connections.clone(),
                        request_class: class,
                        num_classes: cluster.num_classes(),
                    }
                    .to_cb_context(),
                );
                loads.push((class, connections));
            }
            svc.decide_batch(batch_no % svc.num_shards(), now_ns, &contexts, &mut batch)
                .unwrap();
            for (d, (class, connections)) in batch.iter().zip(&loads) {
                let noise: f64 = 1.0 + cluster.latency_noise * traffic.gen_range(-1.0..1.0);
                let latency =
                    cluster.servers[d.action].latency(*class, connections[d.action]) * noise;
                latency_sum += latency;
                // ~2% of rewards never arrive (lost telemetry): those
                // decisions time out of the joiner instead of joining.
                if traffic.gen_bool(0.98) {
                    svc.reward(d.request_id, now_ns + 500_000, -latency);
                }
            }
        }
        let mean_latency = latency_sum / REQUESTS_PER_WAVE as f64;
        println!(
            "wave {wave}: served by gen {} ({}), mean latency {:.3} s",
            serving.generation, serving.name, mean_latency
        );

        // Harvest the service's own log and run one train → gate round.
        while svc.metrics().log_backlog > 0 {
            std::thread::yield_now();
        }
        let log = store.snapshot();
        let (records, stats) = recover_segments(&log);
        let report = svc.train_and_maybe_promote(&log).unwrap();
        println!(
            "  harvested {} records ({} quarantined), gate: candidate lcb {:.4} vs incumbent {:.4} -> {}",
            records.len(),
            stats.quarantined_records,
            report.gate.candidate_lcb,
            report.gate.incumbent_value,
            if report.gate.promoted {
                "PROMOTED"
            } else {
                "kept incumbent"
            }
        );
        println!(
            "  now serving gen {} ({})\n",
            report.serving_generation, report.serving_name
        );
    }

    // The gate's other half: a degraded candidate must be refused. Invert
    // the incumbent's learned scorer so it prefers the *worst* server, and
    // gate it alone (a portfolio of one: no tilts that could rescue it).
    let incumbent = svc.registry().current();
    if let ServePolicy::Greedy(scorer) = &incumbent.policy {
        let sabotaged = negate(scorer);
        let trainer = Trainer::new(trainer_config(gate_config().portfolio(1).build()), EPSILON);
        let (verdict, _, _) =
            trainer.portfolio_gate(&store.snapshot(), &incumbent.policy, &sabotaged);
        println!(
            "sabotage check: inverted scorer value {:.4} (lcb {:.4}) vs incumbent {:.4} -> {}",
            verdict.candidate_value,
            verdict.candidate_lcb,
            verdict.incumbent_value,
            if verdict.promoted {
                "PROMOTED (bug!)"
            } else {
                "refused -> OK"
            }
        );
        assert!(!verdict.promoted, "the gate promoted an inverted scorer");
    }

    let snapshot = svc.metrics();
    println!(
        "\nrobustness: dropped={} quarantined_records={} writer_restarts={} breaker_trips={} \
         join_duplicates={} lock_recoveries={} degraded_decisions={}",
        snapshot.log_dropped,
        snapshot.log_quarantined,
        snapshot.writer_restarts,
        snapshot.breaker_trips,
        snapshot.join_duplicates,
        snapshot.lock_recoveries,
        snapshot.degraded_decisions,
    );
    // Read the log ledger only after shutdown has drained the writer:
    // records still queued count as enqueued but not yet written.
    let handle = svc.metrics_handle();
    svc.shutdown().unwrap();
    let drained = handle.snapshot();
    let conservation_ok =
        drained.log_enqueued == drained.log_written + drained.log_dropped + drained.log_quarantined;
    println!(
        "conservation: enqueued({}) == written({}) + dropped({}) + quarantined({}) -> {}",
        drained.log_enqueued,
        drained.log_written,
        drained.log_dropped,
        drained.log_quarantined,
        if conservation_ok { "OK" } else { "VIOLATED" }
    );
    println!(
        "final metrics: {}",
        serde_json::to_string(&snapshot).unwrap()
    );
    assert!(conservation_ok, "log conservation must hold");
}

/// The scorer with every weight negated: prefers whatever the original
/// avoids. The canonical "degraded candidate" for gate demonstrations.
fn negate(s: &harvest::core::scorer::LinearScorer) -> harvest::core::scorer::LinearScorer {
    use harvest::core::scorer::LinearScorer;
    match s {
        LinearScorer::PerAction { weights } => LinearScorer::PerAction {
            weights: weights
                .iter()
                .map(|w| w.iter().map(|x| -x).collect())
                .collect(),
        },
        LinearScorer::Pooled { weights } => LinearScorer::Pooled {
            weights: weights.iter().map(|x| -x).collect(),
        },
    }
}
