//! Warm restart under checkpoint chaos: the durability demo.
//!
//! A wave-based driver runs the full harvest loop — serve, join rewards,
//! drain, train/promote, checkpoint — once uninterrupted as the reference,
//! then once per [`CheckpointFault`] class with the process killed at a
//! chosen wave: dying before the checkpoint write lands, tearing the blob
//! mid-write, flipping a payload byte at rest, and dying cleanly after the
//! write. Each killed run resumes via [`DecisionService::resume`] — newest
//! valid checkpoint plus deterministic replay of the decision-log suffix —
//! and must converge **byte-identically** with the reference: same durable
//! log, same incumbent weights, same per-shard RNG positions, same
//! conservation ledger, and no decision id reused across incarnations.
//!
//! The run prints one `-> OK` line per fault class; the CI restart job
//! greps for them. Everything is a deterministic function of the seed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example harvest_restart -- [seed]
//! ```

use std::collections::HashSet;

use harvest::core::SimpleContext;
use harvest::estimators::bounds::BoundConfig;
use harvest::logs::checkpoint::{CheckpointWriter, MemoryCheckpoints};
use harvest::logs::record::LogRecord;
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::serve::{
    ChaosPlan, CheckpointFault, DecisionService, GateConfig, LoggerConfig, MetricsSnapshot,
    RecoveryReport, ServeConfig, TrainerConfig,
};
use harvest::simnet::rng::fork_rng;
use rand::Rng;

const WAVES: usize = 6;
const DECISIONS_PER_WAVE: usize = 60;
const ACTIONS: usize = 3;
const KILL_WAVE: usize = 3;

fn config(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .shards(2)
        .epsilon(0.2)
        .master_seed(seed)
        .component("restart-demo")
        .logger(
            LoggerConfig::builder()
                .capacity(256)
                .segment(SegmentConfig {
                    max_records: 64,
                    max_bytes: usize::MAX,
                    max_span_ns: u64::MAX,
                })
                .build(),
        )
        // A gate loose enough to promote at demo scale, so the killed runs
        // restore (or re-earn) a real trained incumbent.
        .trainer(
            TrainerConfig::builder()
                .lambda(1e-3)
                .gate(
                    GateConfig::builder()
                        .bound(BoundConfig { c: 2.0, delta: 0.2 })
                        // Single-candidate gate: the demo must promote from
                        // a small per-wave harvest, which the k=16
                        // simultaneous CI would (correctly) refuse.
                        .portfolio(1)
                        .min_samples(50)
                        .build(),
                )
                .build(),
        )
        .build()
        .expect("valid demo config")
}

fn run_wave(svc: &DecisionService<MemorySegments>, seed: u64, wave: usize) {
    let mut traffic = fork_rng(seed, &format!("restart-demo-wave-{wave}"));
    for i in 0..DECISIONS_PER_WAVE {
        let step = (wave * DECISIONS_PER_WAVE + i) as u64;
        let now_ns = (step + 1) * 1_000_000;
        let x: f64 = traffic.gen_range(0.0..1.0);
        let ctx = SimpleContext::new(vec![x], ACTIONS);
        let d = svc
            .decide((step % 2) as usize, now_ns, &ctx)
            .expect("decide");
        let reward = if d.action == 0 { x } else { 1.0 - x };
        svc.reward(d.request_id, now_ns + 500, reward);
    }
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
}

fn train(svc: &DecisionService<MemorySegments>, store: &MemorySegments) {
    svc.train_and_maybe_promote(&store.snapshot())
        .expect("train");
}

fn wave_end_ns(wave: usize) -> u64 {
    ((wave + 1) * DECISIONS_PER_WAVE) as u64 * 1_000_000
}

struct RunResult {
    snap: MetricsSnapshot,
    records: Vec<LogRecord>,
    incumbent: String,
    shards: String,
    recovery: Option<RecoveryReport>,
}

fn finish(svc: DecisionService<MemorySegments>, recovery: Option<RecoveryReport>) -> RunResult {
    let state = svc.checkpoint_state(0);
    let snap = svc.metrics();
    let store = svc.shutdown().expect("shutdown");
    let (records, _) = store.recover();
    RunResult {
        snap,
        records,
        incumbent: serde_json::to_string(&state.incumbent).unwrap(),
        shards: serde_json::to_string(&state.shards).unwrap(),
        recovery,
    }
}

fn uninterrupted(seed: u64) -> RunResult {
    let store = MemorySegments::new();
    let mut writer = CheckpointWriter::new(MemoryCheckpoints::new(), 8).expect("writer");
    let svc = DecisionService::new(config(seed), store.clone());
    for wave in 0..WAVES {
        run_wave(&svc, seed, wave);
        train(&svc, &store);
        svc.write_checkpoint(&mut writer, wave as u64 + 1, wave_end_ns(wave))
            .expect("checkpoint");
    }
    finish(svc, None)
}

fn interrupted(seed: u64, fault: CheckpointFault) -> RunResult {
    let store = MemorySegments::new();
    let ckpts = MemoryCheckpoints::new();
    let mut writer = CheckpointWriter::new(ckpts.clone(), 8).expect("writer");
    let plan = ChaosPlan::none().fault_checkpoint_at(KILL_WAVE as u64, fault);
    let mut svc = DecisionService::with_chaos(config(seed), store.clone(), plan.clone());
    let mut recovery = None;
    let mut wave = 0usize;
    let mut replayed_waves = 0usize;
    let mut killed = false;
    while wave < WAVES {
        if replayed_waves > 0 {
            replayed_waves -= 1; // came back through replay; retrain only
        } else {
            run_wave(&svc, seed, wave);
        }
        train(&svc, &store);
        let dies_here = wave == KILL_WAVE && !killed;
        if !(dies_here && matches!(fault, CheckpointFault::KillBefore)) {
            svc.write_checkpoint(&mut writer, wave as u64 + 1, wave_end_ns(wave))
                .expect("checkpoint");
        }
        if dies_here {
            killed = true;
            let dead = svc.shutdown().expect("kill");
            let segments = dead.snapshot();
            let (resumed, report) =
                DecisionService::resume(config(seed), dead, Some(plan.clone()), &ckpts, &segments)
                    .expect("resume");
            svc = resumed;
            wave = report.cursor as usize;
            replayed_waves = report.replayed_decisions as usize / DECISIONS_PER_WAVE;
            recovery = Some(report);
            continue;
        }
        wave += 1;
    }
    finish(svc, recovery)
}

fn converges(reference: &RunResult, run: &RunResult) -> bool {
    let ids: Vec<u64> = run
        .records
        .iter()
        .filter(|r| r.is_decision())
        .map(|r| r.request_id())
        .collect();
    let unique: HashSet<u64> = ids.iter().copied().collect();
    let (a, b) = (&run.snap, &reference.snap);
    run.records == reference.records
        && unique.len() == ids.len()
        && run.incumbent == reference.incumbent
        && run.shards == reference.shards
        && a.decisions == b.decisions
        && a.explorations == b.explorations
        && a.log_enqueued == b.log_enqueued
        && a.log_written == b.log_written
        && a.log_dropped == b.log_dropped
        && a.log_quarantined == b.log_quarantined
        && a.join_hits == b.join_hits
        && a.swaps == b.swaps
        && a.log_enqueued == a.log_written + a.log_dropped + a.log_quarantined
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);

    println!(
        "harvest-restart: seed {seed}, {WAVES} waves x {DECISIONS_PER_WAVE} decisions, \
         kill at wave {KILL_WAVE}"
    );
    let reference = uninterrupted(seed);
    println!(
        "reference run: {} records, {} promotion(s), incumbent {}\n",
        reference.records.len(),
        reference.snap.swaps,
        reference.incumbent.chars().take(60).collect::<String>(),
    );
    assert!(
        reference.snap.swaps >= 1,
        "demo must exercise at least one promotion"
    );

    let faults = [
        (CheckpointFault::KillBefore, "kill-before-checkpoint"),
        (CheckpointFault::Tear { keep_frac: 0.4 }, "torn-checkpoint"),
        (CheckpointFault::Corrupt { xor: 0x10 }, "corrupt-checkpoint"),
        (CheckpointFault::KillAfter, "kill-after-checkpoint"),
    ];
    let mut all_ok = true;
    for (fault, name) in faults {
        let run = interrupted(seed, fault);
        let rec = run.recovery.as_ref().expect("interrupted run resumed");
        let ok = converges(&reference, &run);
        all_ok &= ok;
        println!(
            "restart[{name}]: resumed at cursor {} ({}), replayed {} decisions + {} outcomes, \
             discarded {} checkpoint(s), divergence {} -> {}",
            rec.cursor,
            if rec.cold_start {
                "cold full-log replay"
            } else {
                "warm"
            },
            rec.replayed_decisions,
            rec.replayed_outcomes,
            rec.checkpoints_discarded,
            rec.replay_divergence,
            if ok { "OK" } else { "DIVERGED" }
        );
    }
    assert!(all_ok, "an interrupted run diverged from the reference");

    let s = &reference.snap;
    println!(
        "\ncross-incarnation ledger: enqueued({}) == written({}) + dropped({}) + \
         quarantined({}) -> OK",
        s.log_enqueued, s.log_written, s.log_dropped, s.log_quarantined
    );
    println!("byte-identical convergence across all fault classes -> OK");
}
