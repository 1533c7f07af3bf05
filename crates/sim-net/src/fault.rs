//! Chaos-Monkey-style fault injection.
//!
//! Paper §5 ("Exploration coverage") proposes leveraging reliability testing
//! — randomized failures à la Netflix's Chaos Monkey — to push systems into
//! uneven traffic and extreme conditions that produce broader exploration
//! data. This module provides a deterministic fault plan generator and a
//! per-component fault state tracker the simulators consult when computing
//! service times.

use rand::Rng;
use serde::Serialize;

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// What a fault does to the targeted component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// The component is unavailable for the duration; requests routed to it
    /// fail or queue (simulator's choice).
    Crash,
    /// Service time is multiplied by `factor` (> 1) for the duration.
    SlowDown {
        /// Service-time multiplier (must exceed 1 to be a degradation).
        factor: f64,
    },
    /// A fixed extra latency is added to every request for the duration.
    LatencySpike {
        /// Additional latency per request.
        extra: SimDuration,
    },
}

/// One scheduled fault: a component, a window, and an effect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fault {
    /// Index of the targeted component (server, endpoint…).
    pub target: usize,
    /// Start of the fault window.
    pub start: SimTime,
    /// End of the fault window (exclusive).
    pub end: SimTime,
    /// The effect during the window.
    pub kind: FaultKind,
}

impl Fault {
    /// Whether the fault is active at time `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Configuration for random fault generation.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanConfig {
    /// Mean faults per component per simulated second.
    pub rate_per_component: f64,
    /// Mean fault duration.
    pub mean_duration: SimDuration,
    /// Probability a generated fault is a crash (vs a degradation).
    pub crash_fraction: f64,
    /// Slow-down factor range for degradations, e.g. (2.0, 10.0).
    pub slowdown_range: (f64, f64),
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            rate_per_component: 0.01,
            mean_duration: SimDuration::from_secs(5),
            crash_fraction: 0.3,
            slowdown_range: (2.0, 8.0),
        }
    }
}

/// A deterministic schedule of faults over a simulation horizon.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from an explicit fault list. The list is sorted by
    /// start time.
    pub fn from_faults(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| f.start);
        FaultPlan { faults }
    }

    /// Generates a random plan for `components` components over `horizon`.
    ///
    /// Fault start times are Poisson per component; durations are
    /// exponential with the configured mean; kinds follow
    /// `cfg.crash_fraction`.
    pub fn generate(
        components: usize,
        horizon: SimDuration,
        cfg: &FaultPlanConfig,
        rng: &mut DetRng,
    ) -> Self {
        assert!(
            cfg.rate_per_component.is_finite() && cfg.rate_per_component >= 0.0,
            "fault rate must be non-negative"
        );
        let mut faults = Vec::new();
        if cfg.rate_per_component == 0.0 {
            return FaultPlan { faults };
        }
        for target in 0..components {
            let mut t = 0.0;
            let horizon_s = horizon.as_secs_f64();
            loop {
                // Exponential gap via inverse CDF on u ∈ [ε, 1).
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() / cfg.rate_per_component;
                if t >= horizon_s {
                    break;
                }
                let u2: f64 = rng.gen_range(f64::EPSILON..1.0);
                let dur = cfg.mean_duration.mul_f64(-u2.ln());
                let start = SimTime::from_secs_f64(t);
                let kind = if rng.gen_bool(cfg.crash_fraction.clamp(0.0, 1.0)) {
                    FaultKind::Crash
                } else {
                    let (lo, hi) = cfg.slowdown_range;
                    FaultKind::SlowDown {
                        factor: rng.gen_range(lo..hi),
                    }
                };
                faults.push(Fault {
                    target,
                    start,
                    end: start + dur,
                    kind,
                });
            }
        }
        FaultPlan::from_faults(faults)
    }

    /// All faults, sorted by start time.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Faults affecting `target` that are active at `t`.
    pub fn active_for(&self, target: usize, t: SimTime) -> impl Iterator<Item = &Fault> {
        self.faults
            .iter()
            .filter(move |f| f.target == target && f.active_at(t))
    }

    /// Effective service-time multiplier and additive latency for `target`
    /// at `t`, combining all active degradations. Returns `None` if the
    /// component is crashed.
    pub fn effect(&self, target: usize, t: SimTime) -> Option<FaultEffect> {
        let mut eff = FaultEffect::default();
        for f in self.active_for(target, t) {
            match f.kind {
                FaultKind::Crash => return None,
                FaultKind::SlowDown { factor } => eff.multiplier *= factor.max(1.0),
                FaultKind::LatencySpike { extra } => eff.extra_latency += extra,
            }
        }
        Some(eff)
    }
}

/// The combined effect of active (non-crash) faults on a component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEffect {
    /// Service-time multiplier (1.0 = healthy).
    pub multiplier: f64,
    /// Additive latency per request.
    pub extra_latency: SimDuration,
}

impl Default for FaultEffect {
    fn default() -> Self {
        FaultEffect {
            multiplier: 1.0,
            extra_latency: SimDuration::ZERO,
        }
    }
}

impl FaultEffect {
    /// Applies this effect to a base service time.
    pub fn apply(&self, base: SimDuration) -> SimDuration {
        base.mul_f64(self.multiplier) + self.extra_latency
    }
}

// ---------------------------------------------------------------------------
// Serve-loop chaos schedules
// ---------------------------------------------------------------------------

/// A fault aimed at the decision-log writer thread, keyed by the index of
/// the record it is about to process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum WriterFault {
    /// The writer thread panics *before* attempting the record: nothing is
    /// lost — the record stays queued for the restarted incarnation.
    Kill,
    /// The writer attempts the record, appends only `keep_frac` of its frame
    /// bytes (clamped to at least one and at most all-but-one), then
    /// panics: the at-rest image of a crash mid-`write(2)`.
    Tear {
        /// Fraction of the frame to persist before dying, in `(0, 1)`.
        keep_frac: f64,
    },
}

/// A fault applied to one reward delivery, keyed by reward-call index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum RewardFault {
    /// The reward never reaches the joiner (network loss); the decision
    /// eventually expires as missing-outcome.
    Drop,
    /// The reward arrives `by_ns` late on the logical clock; past the join
    /// TTL it is refused as expired.
    Delay {
        /// Added logical delay in nanoseconds.
        by_ns: u64,
    },
}

/// Damage applied to sealed segments at rest, between serving waves. Both
/// variants are *crash-consistent*: they never remove whole frames or touch
/// headers, so recovery can still count every damaged record and the
/// accounting invariant stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AtRestFault {
    /// Bit rot: XOR one byte inside the payload of a frame. Recovery
    /// quarantines that frame and everything after it in the segment.
    CorruptPayload {
        /// Which segment, as a fraction of the segment count.
        segment_frac: f64,
        /// Which frame within the segment, as a fraction of its frames.
        frame_frac: f64,
        /// The XOR mask (non-zero).
        xor: u8,
    },
    /// A torn final write: truncate the last frame of a segment, keeping
    /// `keep_frac` of its bytes.
    TearTail {
        /// Which segment, as a fraction of the segment count.
        segment_frac: f64,
        /// Fraction of the final frame to keep.
        keep_frac: f64,
    },
}

/// A fault aimed at the checkpoint path, keyed by checkpoint index (the Nth
/// `DecisionService::checkpoint` call). The first two variants model a crash
/// racing the checkpoint write; the last two damage the checkpoint itself —
/// recovery must fall back to the previous valid one, counted never silent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum CheckpointFault {
    /// The process dies before any checkpoint bytes are written: the newest
    /// durable state is the *previous* checkpoint plus the decision log.
    KillBefore,
    /// The checkpoint write tears mid-frame (only `keep_frac` of the bytes
    /// land) and the process dies: the torn blob must fail validation.
    Tear {
        /// Fraction of the checkpoint blob to persist, in `(0, 1)`.
        keep_frac: f64,
    },
    /// The checkpoint is written whole, then one payload byte rots at rest
    /// (XOR mask, non-zero). The process continues; a later restart must
    /// detect the damage via the CRC and fall back.
    Corrupt {
        /// The XOR mask (non-zero).
        xor: u8,
    },
    /// The checkpoint is written cleanly and the process dies immediately
    /// after: the pure warm-restart case, with an empty replay suffix.
    KillAfter,
}

/// Sizing for [`ChaosPlan::generate`]: how many operations of each kind the
/// driven trace will perform, so fault indices land inside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosHorizon {
    /// Records the writer will process (fault window for writer faults).
    pub writer_records: u64,
    /// Reward deliveries (fault window for reward faults).
    pub rewards: u64,
    /// Decisions (fault window for shard poisonings).
    pub decisions: u64,
    /// Training rounds (fault window for trainer crashes).
    pub rounds: u64,
    /// Checkpoint calls (fault window for checkpoint faults).
    pub checkpoints: u64,
}

/// How many faults of each class [`ChaosPlan::generate`] schedules.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlanConfig {
    /// Writer-thread kills.
    pub writer_kills: usize,
    /// Torn writes.
    pub writer_tears: usize,
    /// Rewards lost in flight.
    pub reward_drops: usize,
    /// Rewards delayed past plausibility.
    pub reward_delays: usize,
    /// Logical delay range for delayed rewards (nanoseconds).
    pub delay_ns_range: (u64, u64),
    /// Shard-lock poisonings.
    pub shard_poisons: usize,
    /// Trainer crashes mid-fit.
    pub trainer_crashes: usize,
    /// At-rest payload corruptions.
    pub at_rest_corruptions: usize,
    /// At-rest torn tails.
    pub at_rest_tears: usize,
    /// Crashes just before a checkpoint write.
    pub checkpoint_kills_before: usize,
    /// Torn checkpoint writes (crash mid-write).
    pub checkpoint_tears: usize,
    /// At-rest checkpoint corruptions.
    pub checkpoint_corruptions: usize,
    /// Crashes just after a clean checkpoint write.
    pub checkpoint_kills_after: usize,
}

impl Default for ChaosPlanConfig {
    fn default() -> Self {
        ChaosPlanConfig {
            writer_kills: 1,
            writer_tears: 1,
            reward_drops: 2,
            reward_delays: 2,
            delay_ns_range: (1_000_000_000, 60_000_000_000),
            shard_poisons: 1,
            trainer_crashes: 1,
            at_rest_corruptions: 1,
            at_rest_tears: 1,
            checkpoint_kills_before: 0,
            checkpoint_tears: 0,
            checkpoint_corruptions: 0,
            checkpoint_kills_after: 0,
        }
    }
}

/// A deterministic chaos schedule for the serve loop.
///
/// Unlike [`FaultPlan`], which keys faults by simulated time, a `ChaosPlan`
/// keys them by **operation index** — the writer's Nth record, the Nth
/// reward call, the Nth decision, the Nth training round. Thread scheduling
/// and wall-clock jitter therefore cannot move a fault: two runs with the
/// same seed inject exactly the same faults at exactly the same points in
/// the logical trace, which is what makes chaos recovery replayable.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    writer: std::collections::BTreeMap<u64, WriterFault>,
    rewards: std::collections::BTreeMap<u64, RewardFault>,
    poisons: std::collections::BTreeSet<u64>,
    trainer: std::collections::BTreeSet<u64>,
    at_rest: Vec<AtRestFault>,
    checkpoints: std::collections::BTreeMap<u64, CheckpointFault>,
}

impl ChaosPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Schedules a writer kill before record `index` is processed.
    pub fn kill_writer_at(mut self, index: u64) -> Self {
        self.writer.insert(index, WriterFault::Kill);
        self
    }

    /// Schedules a torn write of record `index`.
    pub fn tear_writer_at(mut self, index: u64, keep_frac: f64) -> Self {
        self.writer.insert(index, WriterFault::Tear { keep_frac });
        self
    }

    /// Schedules reward delivery `index` to be lost.
    pub fn drop_reward_at(mut self, index: u64) -> Self {
        self.rewards.insert(index, RewardFault::Drop);
        self
    }

    /// Schedules reward delivery `index` to arrive `by_ns` late.
    pub fn delay_reward_at(mut self, index: u64, by_ns: u64) -> Self {
        self.rewards.insert(index, RewardFault::Delay { by_ns });
        self
    }

    /// Schedules the serving shard of decision `index` to be lock-poisoned
    /// immediately before that decision.
    pub fn poison_shard_at(mut self, index: u64) -> Self {
        self.poisons.insert(index);
        self
    }

    /// Schedules training round `index` to crash mid-fit.
    pub fn crash_trainer_at(mut self, round: u64) -> Self {
        self.trainer.insert(round);
        self
    }

    /// Adds an at-rest damage entry, applied by the harness between waves.
    pub fn damage_at_rest(mut self, fault: AtRestFault) -> Self {
        self.at_rest.push(fault);
        self
    }

    /// Schedules a checkpoint fault at checkpoint call `index`.
    pub fn fault_checkpoint_at(mut self, index: u64, fault: CheckpointFault) -> Self {
        self.checkpoints.insert(index, fault);
        self
    }

    /// Generates a seeded random plan sized by `cfg` inside `horizon`.
    /// Same seed ⇒ same plan; indices are sampled without collision so the
    /// configured fault counts are exact (saturating at the horizon).
    pub fn generate(cfg: &ChaosPlanConfig, horizon: &ChaosHorizon, rng: &mut DetRng) -> Self {
        fn sample_distinct(n: usize, horizon: u64, rng: &mut DetRng) -> Vec<u64> {
            let mut picked = std::collections::BTreeSet::new();
            let want = (n as u64).min(horizon) as usize;
            while picked.len() < want {
                picked.insert(rng.gen_range(0..horizon));
            }
            picked.into_iter().collect()
        }

        let mut plan = ChaosPlan::none();
        let writer_idx = sample_distinct(
            cfg.writer_kills + cfg.writer_tears,
            horizon.writer_records,
            rng,
        );
        for (i, idx) in writer_idx.into_iter().enumerate() {
            if i < cfg.writer_kills {
                plan.writer.insert(idx, WriterFault::Kill);
            } else {
                let keep_frac = rng.gen_range(0.05..0.95);
                plan.writer.insert(idx, WriterFault::Tear { keep_frac });
            }
        }
        let reward_idx =
            sample_distinct(cfg.reward_drops + cfg.reward_delays, horizon.rewards, rng);
        for (i, idx) in reward_idx.into_iter().enumerate() {
            if i < cfg.reward_drops {
                plan.rewards.insert(idx, RewardFault::Drop);
            } else {
                let (lo, hi) = cfg.delay_ns_range;
                let by_ns = rng.gen_range(lo..hi.max(lo + 1));
                plan.rewards.insert(idx, RewardFault::Delay { by_ns });
            }
        }
        for idx in sample_distinct(cfg.shard_poisons, horizon.decisions, rng) {
            plan.poisons.insert(idx);
        }
        for idx in sample_distinct(cfg.trainer_crashes, horizon.rounds, rng) {
            plan.trainer.insert(idx);
        }
        for _ in 0..cfg.at_rest_corruptions {
            plan.at_rest.push(AtRestFault::CorruptPayload {
                segment_frac: rng.gen_range(0.0..1.0),
                frame_frac: rng.gen_range(0.0..1.0),
                xor: rng.gen_range(1..256u32) as u8,
            });
        }
        for _ in 0..cfg.at_rest_tears {
            plan.at_rest.push(AtRestFault::TearTail {
                segment_frac: rng.gen_range(0.0..1.0),
                keep_frac: rng.gen_range(0.05..0.95),
            });
        }
        let ckpt_idx = sample_distinct(
            cfg.checkpoint_kills_before
                + cfg.checkpoint_tears
                + cfg.checkpoint_corruptions
                + cfg.checkpoint_kills_after,
            horizon.checkpoints,
            rng,
        );
        for (i, idx) in ckpt_idx.into_iter().enumerate() {
            let fault = if i < cfg.checkpoint_kills_before {
                CheckpointFault::KillBefore
            } else if i < cfg.checkpoint_kills_before + cfg.checkpoint_tears {
                CheckpointFault::Tear {
                    keep_frac: rng.gen_range(0.05..0.95),
                }
            } else if i < cfg.checkpoint_kills_before
                + cfg.checkpoint_tears
                + cfg.checkpoint_corruptions
            {
                CheckpointFault::Corrupt {
                    xor: rng.gen_range(1..256u32) as u8,
                }
            } else {
                CheckpointFault::KillAfter
            };
            plan.checkpoints.insert(idx, fault);
        }
        plan
    }

    /// The writer fault scheduled for record `index`, if any.
    pub fn writer_fault_at(&self, index: u64) -> Option<WriterFault> {
        self.writer.get(&index).copied()
    }

    /// Record indices with a scheduled writer kill, sorted.
    pub fn writer_kills(&self) -> Vec<u64> {
        self.writer
            .iter()
            .filter(|(_, f)| matches!(f, WriterFault::Kill))
            .map(|(&i, _)| i)
            .collect()
    }

    /// The reward fault scheduled for delivery `index`, if any.
    pub fn reward_fault_at(&self, index: u64) -> Option<RewardFault> {
        self.rewards.get(&index).copied()
    }

    /// Whether decision `index` poisons its shard first.
    pub fn poison_at(&self, index: u64) -> bool {
        self.poisons.contains(&index)
    }

    /// Whether training round `round` crashes mid-fit.
    pub fn trainer_crash_at(&self, round: u64) -> bool {
        self.trainer.contains(&round)
    }

    /// The at-rest damage entries, in insertion order.
    pub fn at_rest(&self) -> &[AtRestFault] {
        &self.at_rest
    }

    /// The checkpoint fault scheduled for checkpoint call `index`, if any.
    pub fn checkpoint_fault_at(&self, index: u64) -> Option<CheckpointFault> {
        self.checkpoints.get(&index).copied()
    }

    /// All scheduled checkpoint faults, keyed by checkpoint index, sorted.
    pub fn checkpoint_faults(&self) -> Vec<(u64, CheckpointFault)> {
        self.checkpoints.iter().map(|(&i, &f)| (i, f)).collect()
    }

    /// Total scheduled faults across all classes.
    pub fn len(&self) -> usize {
        self.writer.len()
            + self.rewards.len()
            + self.poisons.len()
            + self.trainer.len()
            + self.at_rest.len()
            + self.checkpoints.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-line human summary ("2 writer, 4 reward, …").
    pub fn summary(&self) -> String {
        format!(
            "{} writer, {} reward, {} poison, {} trainer, {} at-rest, {} checkpoint",
            self.writer.len(),
            self.rewards.len(),
            self.poisons.len(),
            self.trainer.len(),
            self.at_rest.len(),
            self.checkpoints.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fork_rng;

    fn mk(target: usize, s: u64, e: u64, kind: FaultKind) -> Fault {
        Fault {
            target,
            start: SimTime::from_secs(s),
            end: SimTime::from_secs(e),
            kind,
        }
    }

    #[test]
    fn window_is_half_open() {
        let f = mk(0, 1, 2, FaultKind::Crash);
        assert!(!f.active_at(SimTime::from_millis(999)));
        assert!(f.active_at(SimTime::from_secs(1)));
        assert!(f.active_at(SimTime::from_millis(1999)));
        assert!(!f.active_at(SimTime::from_secs(2)));
    }

    #[test]
    fn effect_combines_degradations() {
        let plan = FaultPlan::from_faults(vec![
            mk(0, 0, 10, FaultKind::SlowDown { factor: 2.0 }),
            mk(
                0,
                0,
                10,
                FaultKind::LatencySpike {
                    extra: SimDuration::from_millis(50),
                },
            ),
            mk(1, 0, 10, FaultKind::SlowDown { factor: 100.0 }),
        ]);
        let eff = plan.effect(0, SimTime::from_secs(5)).unwrap();
        assert_eq!(eff.multiplier, 2.0);
        assert_eq!(eff.extra_latency, SimDuration::from_millis(50));
        let applied = eff.apply(SimDuration::from_millis(100));
        assert_eq!(applied, SimDuration::from_millis(250));
        // Target 2 has no faults.
        assert_eq!(
            plan.effect(2, SimTime::from_secs(5)).unwrap(),
            FaultEffect::default()
        );
    }

    #[test]
    fn crash_dominates() {
        let plan = FaultPlan::from_faults(vec![
            mk(0, 0, 10, FaultKind::SlowDown { factor: 2.0 }),
            mk(0, 3, 6, FaultKind::Crash),
        ]);
        assert!(plan.effect(0, SimTime::from_secs(4)).is_none());
        assert!(plan.effect(0, SimTime::from_secs(7)).is_some());
    }

    #[test]
    fn generated_plan_is_within_horizon_and_sorted() {
        let mut rng = fork_rng(11, "faults");
        let cfg = FaultPlanConfig {
            rate_per_component: 0.5,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(4, SimDuration::from_secs(100), &cfg, &mut rng);
        assert!(
            !plan.faults().is_empty(),
            "expected some faults at rate 0.5"
        );
        for f in plan.faults() {
            assert!(f.start < SimTime::from_secs(100));
            assert!(f.end > f.start);
            assert!(f.target < 4);
        }
        for w in plan.faults().windows(2) {
            assert!(w[0].start <= w[1].start, "plan must be sorted");
        }
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut rng = fork_rng(12, "nofaults");
        let cfg = FaultPlanConfig {
            rate_per_component: 0.0,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(4, SimDuration::from_secs(100), &cfg, &mut rng);
        assert!(plan.faults().is_empty());
    }

    #[test]
    fn chaos_plan_generation_is_deterministic_and_exactly_sized() {
        let cfg = ChaosPlanConfig {
            writer_kills: 2,
            writer_tears: 3,
            reward_drops: 4,
            reward_delays: 2,
            shard_poisons: 2,
            trainer_crashes: 1,
            at_rest_corruptions: 2,
            at_rest_tears: 1,
            ..ChaosPlanConfig::default()
        };
        let horizon = ChaosHorizon {
            writer_records: 10_000,
            rewards: 10_000,
            decisions: 10_000,
            rounds: 4,
            checkpoints: 0,
        };
        let a = ChaosPlan::generate(&cfg, &horizon, &mut fork_rng(7, "chaos"));
        let b = ChaosPlan::generate(&cfg, &horizon, &mut fork_rng(7, "chaos"));
        assert_eq!(a.len(), 2 + 3 + 4 + 2 + 2 + 1 + 2 + 1);
        assert_eq!(a.writer_kills().len(), 2);
        assert_eq!(a.at_rest().len(), 3);
        // Same seed ⇒ identical schedule, at every lookup point.
        for i in 0..10_000 {
            assert_eq!(a.writer_fault_at(i), b.writer_fault_at(i));
            assert_eq!(a.reward_fault_at(i), b.reward_fault_at(i));
            assert_eq!(a.poison_at(i), b.poison_at(i));
        }
        for r in 0..4 {
            assert_eq!(a.trainer_crash_at(r), b.trainer_crash_at(r));
        }
        assert_eq!(a.at_rest(), b.at_rest());
        // And a different seed genuinely moves the faults.
        let c = ChaosPlan::generate(&cfg, &horizon, &mut fork_rng(8, "chaos"));
        assert_ne!(a.writer_kills(), c.writer_kills());
    }

    #[test]
    fn chaos_plan_counts_saturate_at_the_horizon() {
        let cfg = ChaosPlanConfig {
            writer_kills: 50,
            writer_tears: 50,
            ..ChaosPlanConfig::default()
        };
        let horizon = ChaosHorizon {
            writer_records: 10,
            rewards: 100,
            decisions: 100,
            rounds: 2,
            checkpoints: 0,
        };
        let plan = ChaosPlan::generate(&cfg, &horizon, &mut fork_rng(9, "sat"));
        // 100 requested writer faults cannot exceed 10 distinct indices.
        assert_eq!(
            (0..10)
                .filter(|&i| plan.writer_fault_at(i).is_some())
                .count(),
            10
        );
    }

    #[test]
    fn chaos_plan_builders_key_by_exact_index() {
        let plan = ChaosPlan::none()
            .kill_writer_at(5)
            .tear_writer_at(9, 0.4)
            .drop_reward_at(3)
            .delay_reward_at(4, 1_000)
            .poison_shard_at(7)
            .crash_trainer_at(1)
            .damage_at_rest(AtRestFault::TearTail {
                segment_frac: 0.5,
                keep_frac: 0.5,
            })
            .fault_checkpoint_at(2, CheckpointFault::Tear { keep_frac: 0.5 });
        assert_eq!(plan.writer_fault_at(5), Some(WriterFault::Kill));
        assert_eq!(plan.writer_fault_at(6), None);
        assert_eq!(plan.writer_kills(), vec![5]);
        assert!(matches!(
            plan.writer_fault_at(9),
            Some(WriterFault::Tear { .. })
        ));
        assert_eq!(plan.reward_fault_at(3), Some(RewardFault::Drop));
        assert_eq!(
            plan.reward_fault_at(4),
            Some(RewardFault::Delay { by_ns: 1_000 })
        );
        assert!(plan.poison_at(7) && !plan.poison_at(8));
        assert!(plan.trainer_crash_at(1) && !plan.trainer_crash_at(0));
        assert_eq!(
            plan.checkpoint_fault_at(2),
            Some(CheckpointFault::Tear { keep_frac: 0.5 })
        );
        assert_eq!(plan.checkpoint_fault_at(3), None);
        assert_eq!(
            plan.checkpoint_faults(),
            vec![(2, CheckpointFault::Tear { keep_frac: 0.5 })]
        );
        assert_eq!(plan.len(), 8);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.summary(),
            "2 writer, 2 reward, 1 poison, 1 trainer, 1 at-rest, 1 checkpoint"
        );
    }

    #[test]
    fn generated_checkpoint_faults_are_sized_and_deterministic() {
        let cfg = ChaosPlanConfig {
            checkpoint_kills_before: 1,
            checkpoint_tears: 1,
            checkpoint_corruptions: 1,
            checkpoint_kills_after: 1,
            ..ChaosPlanConfig::default()
        };
        let horizon = ChaosHorizon {
            writer_records: 1_000,
            rewards: 1_000,
            decisions: 1_000,
            rounds: 4,
            checkpoints: 16,
        };
        let a = ChaosPlan::generate(&cfg, &horizon, &mut fork_rng(7, "ckpt"));
        let b = ChaosPlan::generate(&cfg, &horizon, &mut fork_rng(7, "ckpt"));
        assert_eq!(a.checkpoint_faults(), b.checkpoint_faults());
        assert_eq!(a.checkpoint_faults().len(), 4);
        let kinds: Vec<CheckpointFault> =
            a.checkpoint_faults().into_iter().map(|(_, f)| f).collect();
        assert!(kinds
            .iter()
            .any(|f| matches!(f, CheckpointFault::KillBefore)));
        assert!(kinds
            .iter()
            .any(|f| matches!(f, CheckpointFault::Tear { .. })));
        assert!(kinds
            .iter()
            .any(|f| matches!(f, CheckpointFault::Corrupt { xor } if *xor != 0)));
        assert!(kinds
            .iter()
            .any(|f| matches!(f, CheckpointFault::KillAfter)));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(
            3,
            SimDuration::from_secs(1000),
            &cfg,
            &mut fork_rng(13, "det"),
        );
        let b = FaultPlan::generate(
            3,
            SimDuration::from_secs(1000),
            &cfg,
            &mut fork_rng(13, "det"),
        );
        assert_eq!(a.faults(), b.faults());
    }
}
