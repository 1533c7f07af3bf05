//! harvest-portfolio: score a 128-policy portfolio in **one pass** over
//! crash-recovered segment logs.
//!
//! The paper's Fig 1 promise is that one exploration log evaluates an
//! entire policy class at once. This demo makes that concrete end to end:
//!
//! 1. a seeded workload writes decision/outcome records through the
//!    segmented log (outcomes often land one segment after their
//!    decisions, so the scavenger's cross-segment join is on the path);
//! 2. a [`PortfolioEvaluator`] recovers the segments and scores 128
//!    candidate policies — IPS, SNIPS, and DR with empirical-Bernstein
//!    intervals each — in a single streaming pass;
//! 3. the same evaluation fans out across 8 workers and must merge to a
//!    **byte-identical** leaderboard (fixed per-segment partition, fixed
//!    merge order), clean *and* after at-rest log damage;
//! 4. the trainer's shadow gate scores its own tilted portfolio on
//!    the same segments and reports the LCB-winner.
//!
//! Every line is a deterministic function of the seed; the `-> OK`
//! assertions are what CI greps.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example harvest_portfolio -- [seed]
//! ```

use harvest::core::scorer::LinearScorer;
use harvest::estimators::{Candidate, EvaluatorConfig, PortfolioEvaluator};
use harvest::logs::record::{DecisionRecord, LogRecord, OutcomeRecord};
use harvest::logs::segment::{MemorySegments, SegmentConfig, SegmentedLogWriter};
use harvest::prelude::GreedyScorerCandidate;
use harvest::serve::{apply_at_rest_faults, AtRestFault, ChaosPlan, ServePolicy, Trainer};
use harvest::serve::{GateConfig, TrainerConfig};
use harvest::simnet::rng::fork_rng;
use rand::Rng;

const K: usize = 128;
const REQUESTS: u64 = 4_000;
const ACTIONS: usize = 2;
const EPSILON: f64 = 0.1;

/// Candidate j is the threshold policy "action 0 iff x > θⱼ", as a
/// per-action scorer over φ = [x, 1]: action 0 scores x, action 1 scores
/// 2θⱼ − x. The thresholds are spread low-discrepancy across (0.2, 0.8) —
/// deterministic in j, no RNG — so the portfolio brackets the true optimum
/// θ = 0.5 and the leaderboard has a real ranking to show.
fn tilted_scorer(j: usize) -> LinearScorer {
    let theta = 0.2 + 0.6 * ((j as f64) * 0.618_033_988_749_895).fract();
    LinearScorer::PerAction {
        weights: vec![vec![1.0, 0.0], vec![-1.0, 2.0 * theta]],
    }
}

/// Writes the seeded crossing-reward workload through the segmented log.
/// Roughly half the rewards arrive as separate outcome records a little
/// later, so many joins cross a segment boundary.
fn build_segments(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = fork_rng(seed, "portfolio-workload");
    let mut w = SegmentedLogWriter::new(
        MemorySegments::new(),
        SegmentConfig {
            max_records: 256,
            max_bytes: 64 * 1024,
            max_span_ns: u64::MAX,
        },
    );
    let mut pending: Vec<(u64, f64)> = Vec::new();
    for id in 0..REQUESTS {
        let x: f64 = rng.gen_range(0.0..1.0);
        let explore: f64 = rng.gen_range(0.0..1.0);
        // ε-greedy logging over the crossing-reward truth (action 0 pays x,
        // action 1 pays 1 − x), with the exact propensity recorded.
        let greedy = usize::from(x < 0.5);
        let action = if explore < EPSILON {
            usize::from(rng.gen_range(0.0..1.0) < 0.5)
        } else {
            greedy
        };
        let p_floor = EPSILON / ACTIONS as f64;
        let propensity = if action == greedy {
            1.0 - EPSILON + p_floor
        } else {
            p_floor
        };
        let reward = if action == 0 { x } else { 1.0 - x };
        let deferred = id % 2 == 1;
        w.write(&LogRecord::Decision(DecisionRecord {
            request_id: id,
            timestamp_ns: id * 1_000,
            component: "harvest-portfolio".to_string(),
            shared_features: vec![x],
            action_features: None,
            num_actions: ACTIONS,
            action,
            propensity: Some(propensity),
            reward: (!deferred).then_some(reward),
        }))
        .expect("write decision");
        if deferred {
            pending.push((id, reward));
        }
        // Flush deferred outcomes in bursts so they trail their decisions,
        // frequently into the next segment.
        if pending.len() >= 96 {
            for (rid, r) in pending.drain(..) {
                w.write(&LogRecord::Outcome(OutcomeRecord {
                    request_id: rid,
                    timestamp_ns: rid * 1_000 + 500,
                    reward: r,
                }))
                .expect("write outcome");
            }
        }
    }
    for (rid, r) in pending.drain(..) {
        w.write(&LogRecord::Outcome(OutcomeRecord {
            request_id: rid,
            timestamp_ns: rid * 1_000 + 500,
            reward: r,
        }))
        .expect("write outcome");
    }
    w.into_sink().expect("flush").snapshot()
}

fn evaluator(parallelism: usize) -> PortfolioEvaluator {
    PortfolioEvaluator::builder()
        .config(
            EvaluatorConfig::builder()
                .clip(10.0)
                .delta(0.05)
                .parallelism(parallelism)
                .build(),
        )
        .candidates((0..K).map(|j| {
            Candidate::new(
                format!("cand-{j:03}"),
                GreedyScorerCandidate::new(tilted_scorer(j), EPSILON),
            )
        }))
        .model(LinearScorer::PerAction {
            weights: vec![vec![1.0, 0.0], vec![-1.0, 1.0]],
        })
        .build()
        .expect("non-empty portfolio")
}

fn check(label: &str, ok: bool) {
    println!("{label} -> {}", if ok { "OK" } else { "VIOLATED" });
    assert!(ok, "{label}");
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or(42);
    println!("harvest-portfolio: seed {seed}, k={K}, {REQUESTS} requests");

    let segments = build_segments(seed);
    println!("workload: {} log segments written", segments.len());

    // One pass, k = 128: every candidate scored from the same recovery.
    let (sequential, recovery) = evaluator(1).evaluate_segments(&segments);
    println!(
        "recovery: {} records from {} segments ({} corrupt, {} quarantined)",
        recovery.recovered,
        recovery.segments,
        recovery.corrupt_segments,
        recovery.quarantined_records
    );
    check(
        &format!(
            "one pass scored all {} candidates on n={} joined samples",
            sequential.entries.len(),
            sequential.n
        ),
        sequential.entries.len() == K && sequential.n > 0,
    );

    // The leaderboard, ranked by SNIPS lower confidence bound.
    println!("\nleaderboard (top 8 of {K} by SNIPS LCB):");
    println!(
        "  {:<5} {:<10} {:>9} {:>19} {:>9} {:>9} {:>8}",
        "rank", "name", "snips", "[lcb, ucb]", "ips", "dr", "ess"
    );
    for e in sequential.entries.iter().take(8) {
        println!(
            "  #{:<4} {:<10} {:>+9.4} [{:>+8.4}, {:>+8.4}] {:>+9.4} {:>+9.4} {:>8.0}",
            e.rank,
            e.name,
            e.snips.point,
            e.snips.lcb,
            e.snips.ucb,
            e.ips.point,
            e.dr.point,
            e.weights.ess()
        );
    }

    // Parallel scavenge + merge must be byte-identical to the sequential
    // pass: same per-segment partition, same merge order, any thread.
    let (parallel, par_recovery) = evaluator(8).evaluate_segments(&segments);
    check(
        "parallel (8 workers) == sequential scavenge+merge, byte-identical",
        parallel == sequential
            && par_recovery == recovery
            && parallel.to_json() == sequential.to_json(),
    );

    // Same-seed determinism of the exported JSON leaderboard.
    let (again, _) = evaluator(8).evaluate_segments(&build_segments(seed));
    check(
        "same-seed rerun reproduces the leaderboard JSON",
        again.to_json() == sequential.to_json(),
    );

    // The invariant must also hold on a damaged log: corrupt a payload and
    // tear a tail, then compare the two schedules again.
    let store = MemorySegments::new();
    store.replace_all(segments.clone());
    let plan = ChaosPlan::none()
        .damage_at_rest(AtRestFault::CorruptPayload {
            segment_frac: 0.3,
            frame_frac: 0.5,
            xor: 0x20,
        })
        .damage_at_rest(AtRestFault::TearTail {
            segment_frac: 0.8,
            keep_frac: 0.4,
        });
    let applied = apply_at_rest_faults(&plan, &store);
    let damaged = store.snapshot();
    let (seq_damaged, seq_rec) = evaluator(1).evaluate_segments(&damaged);
    let (par_damaged, par_rec) = evaluator(8).evaluate_segments(&damaged);
    println!(
        "\nat-rest damage: {applied} faults applied, {} records quarantined, {} joins lost",
        seq_rec.quarantined_records,
        sequential.n - seq_damaged.n
    );
    check(
        "quarantined suffixes drop out of the score, identically in parallel",
        seq_rec.quarantined_records > 0
            && seq_damaged.n < sequential.n
            && par_damaged == seq_damaged
            && par_rec == seq_rec,
    );

    // Shadow gate: the trainer scores its own tilted portfolio on the same
    // segments and gates the LCB-winner against the incumbent.
    let trainer = Trainer::new(
        TrainerConfig::builder()
            .lambda(1e-3)
            .gate(GateConfig::builder().portfolio(32).min_samples(500).build())
            .build(),
        EPSILON,
    );
    let round = trainer
        .run_round(&segments, &ServePolicy::Uniform)
        .expect("training succeeds");
    let board = &round.leaderboard;
    println!(
        "\nshadow gate: {} candidates, winner {} (lcb {:+.4}, ess {:.0}) vs incumbent {:+.4} \
         => {}",
        round.gate.portfolio,
        round.gate.winner,
        round.gate.candidate_lcb,
        round.gate.winner_ess,
        round.gate.incumbent_value,
        round.gate.reason
    );
    check(
        "shadow gate scored the full portfolio and picked a live winner",
        round.gate.portfolio == 32
            && board.entries.len() == 32
            && board.entries.iter().any(|e| e.name == round.gate.winner),
    );
    check(
        "gate winner beats the uniform incumbent",
        round.gate.promoted && round.gate.candidate_lcb > round.gate.incumbent_value,
    );

    println!("\nharvest-portfolio: all invariants hold");
}
