//! Kill/restart chaos for the durable control plane.
//!
//! A wave-based driver runs the full harvest loop — serve, join rewards,
//! drain, train/promote, checkpoint — and an adversary kills the process at
//! a chosen wave under every [`CheckpointFault`] class: before the
//! checkpoint write lands, tearing it mid-write, flipping a payload byte,
//! and cleanly after the write. After each kill the service resumes via
//! [`DecisionService::resume`] and the driver finishes the remaining waves.
//!
//! The bar is **byte-identical convergence**: the interrupted run must end
//! with the same durable log (every record, in order), the same incumbent
//! policy (generation, name, and weights), the same per-shard RNG positions
//! and sequence counters, the same joiner state, and the same conservation
//! ledger as the uninterrupted run — and no decision id may ever repeat
//! across incarnations.

use std::collections::HashSet;

use harvest::core::SimpleContext;
use harvest::estimators::bounds::BoundConfig;
use harvest::logs::checkpoint::{CheckpointWriter, MemoryCheckpoints};
use harvest::logs::record::LogRecord;
use harvest::logs::segment::{MemorySegments, SegmentConfig};
use harvest::serve::{
    ChaosPlan, CheckpointFault, DecisionService, GateConfig, LoggerConfig, MetricsSnapshot,
    ServeConfig, TrainerConfig,
};
use harvest::simnet::rng::fork_rng;
use rand::Rng;

const WAVES: usize = 5;
const DECISIONS_PER_WAVE: usize = 60;
const ACTIONS: usize = 3;

fn config(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .shards(2)
        .epsilon(0.2)
        .master_seed(seed)
        .component("warm-restart")
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
        // A gate loose enough to promote at this scale: restarts must
        // exercise a non-bootstrap incumbent (and re-run a promotion lost
        // with an unwritten checkpoint), not just the uniform policy.
        .trainer(
            TrainerConfig::builder()
                .lambda(1e-3)
                .gate(
                    GateConfig::builder()
                        .bound(BoundConfig { c: 2.0, delta: 0.2 })
                        // Single-candidate gate: the scenario needs a
                        // promotion from a 50-sample harvest, which the
                        // k=16 simultaneous CI would (correctly) refuse.
                        .portfolio(1)
                        .min_samples(50)
                        .build(),
                )
                .build(),
        )
        .build()
        .expect("valid test config")
}

/// Serves one wave of traffic and joins every reward. Contexts come from a
/// per-wave forked stream, so the driver can resume mid-sequence after a
/// restart without replaying its own RNG.
fn run_wave(svc: &DecisionService<MemorySegments>, seed: u64, wave: usize) {
    let mut traffic = fork_rng(seed, &format!("restart-wave-{wave}"));
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

/// Everything the convergence assertion compares.
struct RunResult {
    snap: MetricsSnapshot,
    records: Vec<LogRecord>,
    incumbent: String,
    shards: String,
    joiner: String,
}

fn finish(svc: DecisionService<MemorySegments>) -> RunResult {
    let state = svc.checkpoint_state(0);
    let snap = svc.metrics();
    let store = svc.shutdown().expect("shutdown");
    let (records, stats) = store.recover();
    assert_eq!(stats.quarantined_records, 0, "no segment damage injected");
    RunResult {
        snap,
        records,
        incumbent: serde_json::to_string(&state.incumbent).unwrap(),
        shards: serde_json::to_string(&state.shards).unwrap(),
        joiner: serde_json::to_string(&state.joiner).unwrap(),
    }
}

fn uninterrupted(seed: u64) -> RunResult {
    let store = MemorySegments::new();
    let ckpts = MemoryCheckpoints::new();
    let mut writer = CheckpointWriter::new(ckpts, 8).expect("writer");
    let svc = DecisionService::new(config(seed), store.clone());
    for wave in 0..WAVES {
        run_wave(&svc, seed, wave);
        train(&svc, &store);
        svc.write_checkpoint(&mut writer, wave as u64 + 1, wave_end_ns(wave))
            .expect("checkpoint");
    }
    finish(svc)
}

/// Runs the same waves, but the process dies at `kill_wave` under `fault`
/// and resumes from whatever checkpoint survived.
fn interrupted(seed: u64, kill_wave: usize, fault: CheckpointFault) -> RunResult {
    let store = MemorySegments::new();
    let ckpts = MemoryCheckpoints::new();
    let mut writer = CheckpointWriter::new(ckpts.clone(), 8).expect("writer");
    let plan = ChaosPlan::none().fault_checkpoint_at(kill_wave as u64, fault);
    let mut svc = DecisionService::with_chaos(config(seed), store.clone(), plan.clone());
    let mut wave = 0usize;
    let mut replayed_waves = 0usize;
    let mut killed = false;
    while wave < WAVES {
        if replayed_waves > 0 {
            // This wave's decisions and rewards came back through replay;
            // only the lost (post-checkpoint) training work reruns.
            replayed_waves -= 1;
        } else {
            run_wave(&svc, seed, wave);
        }
        train(&svc, &store);
        let dies_here = wave == kill_wave && !killed;
        if !(dies_here && matches!(fault, CheckpointFault::KillBefore)) {
            // Tear/Corrupt damage is applied by the service itself from the
            // chaos plan; KillBefore means no bytes ever land.
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
            assert_eq!(report.replay_divergence, 0, "replay must match the log");
            assert_eq!(
                report.replayed_decisions as usize % DECISIONS_PER_WAVE,
                0,
                "waves are checkpointed whole"
            );
            svc = resumed;
            wave = report.cursor as usize;
            replayed_waves = report.replayed_decisions as usize / DECISIONS_PER_WAVE;
            continue;
        }
        wave += 1;
    }
    finish(svc)
}

fn assert_converged(reference: &RunResult, run: &RunResult, label: &str) {
    assert_eq!(
        run.records, reference.records,
        "{label}: durable log must be record-identical"
    );
    let ids: Vec<u64> = run
        .records
        .iter()
        .filter(|r| r.is_decision())
        .map(|r| r.request_id())
        .collect();
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(
        unique.len(),
        ids.len(),
        "{label}: decision ids must never collide across incarnations"
    );
    assert_eq!(run.incumbent, reference.incumbent, "{label}: incumbent");
    assert_eq!(run.shards, reference.shards, "{label}: shard RNG/seq state");
    assert_eq!(run.joiner, reference.joiner, "{label}: joiner state");
    let (a, b) = (&run.snap, &reference.snap);
    assert_eq!(a.decisions, b.decisions, "{label}: decisions");
    assert_eq!(a.explorations, b.explorations, "{label}: explorations");
    assert_eq!(a.log_enqueued, b.log_enqueued, "{label}: enqueued");
    assert_eq!(a.log_written, b.log_written, "{label}: written");
    assert_eq!(a.log_dropped, b.log_dropped, "{label}: dropped");
    assert_eq!(a.log_quarantined, b.log_quarantined, "{label}: quarantined");
    assert_eq!(a.join_hits, b.join_hits, "{label}: join hits");
    assert_eq!(a.rewards_lost, b.rewards_lost, "{label}: rewards lost");
    assert_eq!(
        a.timed_out_decisions, b.timed_out_decisions,
        "{label}: join timeouts"
    );
    assert_eq!(a.swaps, b.swaps, "{label}: promotions");
    assert_eq!(
        a.log_enqueued,
        a.log_written + a.log_dropped + a.log_quarantined,
        "{label}: conservation ledger"
    );
}

fn fault_classes() -> [(CheckpointFault, &'static str); 4] {
    [
        (CheckpointFault::KillBefore, "kill-before"),
        (CheckpointFault::Tear { keep_frac: 0.4 }, "tear"),
        (CheckpointFault::Corrupt { xor: 0x10 }, "corrupt"),
        (CheckpointFault::KillAfter, "kill-after"),
    ]
}

#[test]
fn every_fault_class_converges_at_an_interior_wave() {
    let seed = 42;
    let reference = uninterrupted(seed);
    assert!(
        reference.snap.swaps >= 1,
        "scenario must exercise a promotion, got none"
    );
    for (fault, name) in fault_classes() {
        let run = interrupted(seed, 2, fault);
        assert_converged(&reference, &run, &format!("seed {seed}, {name} @ wave 2"));
    }
}

#[test]
fn every_fault_class_converges_at_the_first_wave() {
    // Wave 0 is the hard edge: KillBefore and Tear leave *no* valid
    // checkpoint, so recovery degenerates to a cold full-log replay.
    let seed = 7;
    let reference = uninterrupted(seed);
    for (fault, name) in fault_classes() {
        let run = interrupted(seed, 0, fault);
        assert_converged(&reference, &run, &format!("seed {seed}, {name} @ wave 0"));
    }
}

#[test]
fn every_fault_class_converges_at_the_last_wave() {
    let seed = 1;
    let reference = uninterrupted(seed);
    for (fault, name) in fault_classes() {
        let run = interrupted(seed, WAVES - 1, fault);
        assert_converged(
            &reference,
            &run,
            &format!("seed {seed}, {name} @ wave {}", WAVES - 1),
        );
    }
}

#[test]
fn recovery_telemetry_reports_the_fallback() {
    // A torn newest checkpoint must be *counted* — discarded exactly once —
    // and the resumed service must report the restart in its own metrics.
    let seed = 7;
    let run = interrupted(seed, 2, CheckpointFault::Tear { keep_frac: 0.3 });
    assert_eq!(run.snap.restart_count, 1);
    assert_eq!(run.snap.checkpoints_discarded, 1);
    assert_eq!(
        run.snap.replayed_joins as usize, DECISIONS_PER_WAVE,
        "the killed wave's outcomes replay through the joiner"
    );
}
