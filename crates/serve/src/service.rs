//! The assembled decision service.
//!
//! [`DecisionService`] wires the subsystems together — registry, sharded
//! engine, supervised crash-safe log writer, reward joiner, trainer/gate,
//! circuit breaker — behind a three-call surface:
//!
//! * [`decide`](DecisionService::decide) — serve one request (hot path);
//! * [`reward`](DecisionService::reward) — report a delayed reward;
//! * [`train_and_maybe_promote`](DecisionService::train_and_maybe_promote)
//!   — run one harvest → train → gate round and hot-swap on success.
//!
//! All three take `&self`: training can run on a background thread while
//! shards keep serving, and a promotion reaches the shards through one
//! atomic flip. The only wall-clock anywhere is the caller's own `now_ns`
//! stamp, so a same-seed replay of the same call sequence reproduces the
//! decision log byte for byte.
//!
//! # Failure behavior
//!
//! The service is built to keep serving through the fault classes a
//! [`ChaosPlan`] can inject (and their real-world counterparts):
//!
//! * **Writer crashes** are absorbed by the supervisor
//!   ([`spawn_supervised_writer`](crate::supervisor::spawn_supervised_writer)):
//!   the thread is restarted with capped exponential backoff, torn tails
//!   are sealed into their segment, and a writer past its restart budget
//!   keeps draining the queue — counting every record dropped — so callers
//!   blocked on a full queue never wedge.
//! * **Wedged shards** (the shard-level chaos fault) are recovered and
//!   counted at the shard's next acquisition, never propagated; poisoned
//!   mutexes elsewhere (joiner, breaker, writer) are likewise recovered
//!   and counted.
//! * **Degraded mode**: the [`CircuitBreaker`] watches the fault signal,
//!   the writer's liveness, and the promotion gate's confidence radius.
//!   While open, decisions are served by the uniform *safe policy*
//!   (paper §3's safe arm), stamped [`Decision::degraded`], and still log
//!   exact propensities — degraded traffic remains harvestable.
//! * **Trainer crashes** surface as [`ServeError::TrainerCrashed`], trip
//!   the breaker, and leave the incumbent untouched.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use harvest_core::SimpleContext;
use harvest_log::record::LogRecord;
use harvest_log::segment::SegmentSink;
use harvest_sim_net::fault::{ChaosPlan, RewardFault};
use serde::Serialize;

use crate::batch::DecisionBatch;
use crate::breaker::{BreakerConfig, CircuitBreaker, TripReason};
use crate::engine::{shard_of, Decision, DecisionEngine, EngineConfig};
use crate::error::{lock_recovering, ServeError};
use crate::export::{obs_snapshot, prometheus_page, ObsSnapshot};
use crate::joiner::{JoinOutcome, RewardJoiner};
use crate::logger::{DecisionLogger, LoggerConfig};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::obs::{ObsConfig, ServeObs};
use crate::registry::{PolicyRegistry, ServePolicy};
use crate::scope::{HarvestScope, ScopeConfig};
use crate::supervisor::{
    spawn_resumed_writer, SupervisorConfig, WriterResume, WriterSupervisorHandle,
};
use crate::trainer::{GateReport, Trainer, TrainerConfig};

/// The safe arm served while the breaker is open: uniform, so its
/// per-action propensity is exactly `1/K` and even degraded traffic yields
/// unbiased harvestable data.
const SAFE_POLICY: ServePolicy = ServePolicy::Uniform;

/// Everything configurable about the service.
///
/// Construct via [`ServeConfig::builder`] (validating, with flattened
/// conveniences for the common engine knobs) or start from
/// [`ServeConfig::default`] and set fields. The struct is
/// `#[non_exhaustive]`: literal construction outside this crate no longer
/// compiles, so new knobs can ship without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Decision engine: shards, ε floor, master seed.
    pub engine: EngineConfig,
    /// Log queue capacity and segment rotation.
    pub logger: LoggerConfig,
    /// Writer supervision: restart budget and backoff.
    pub supervisor: SupervisorConfig,
    /// Degraded-mode circuit breaker thresholds.
    pub breaker: BreakerConfig,
    /// Reward-join TTL in logical nanoseconds.
    pub join_ttl_ns: u64,
    /// Trainer and promotion gate. The gate evaluates candidates as
    /// served, under [`EngineConfig::epsilon`].
    pub trainer: TrainerConfig,
    /// Observability: decision tracer and telemetry histograms.
    pub obs: ObsConfig,
    /// The ops plane: windowed time series, stage-latency timeline, and
    /// deterministic watchdogs. Built exactly when [`ObsConfig::enabled`].
    pub scope: ScopeConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            trainer: TrainerConfig::default(),
            engine: EngineConfig::default(),
            logger: LoggerConfig::default(),
            supervisor: SupervisorConfig::default(),
            breaker: BreakerConfig::default(),
            join_ttl_ns: 10_000_000_000, // 10 logical seconds
            obs: ObsConfig::default(),
            scope: ScopeConfig::default(),
        }
    }
}

impl ServeConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder(ServeConfig::default())
    }
}

/// Builder for [`ServeConfig`].
///
/// The engine's knobs — [`shards`](ServeConfigBuilder::shards),
/// [`epsilon`](ServeConfigBuilder::epsilon),
/// [`master_seed`](ServeConfigBuilder::master_seed),
/// [`component`](ServeConfigBuilder::component) — are flattened onto the
/// builder; the other sub-configs are swapped in whole.
/// [`build`](ServeConfigBuilder::build) validates everything the service
/// would otherwise panic on at construction.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder(ServeConfig);

impl ServeConfigBuilder {
    /// Number of decision shards (must stay ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.0.engine.shards = shards;
        self
    }

    /// The exploration floor ε (must stay in `(0, 1]`). The service gates
    /// candidates as served, so its trainer evaluates under this ε too.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.0.engine.epsilon = epsilon;
        self
    }

    /// Master seed for the per-shard RNG streams.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.0.engine.master_seed = seed;
        self
    }

    /// Component name stamped into decision records.
    pub fn component(mut self, component: impl Into<String>) -> Self {
        self.0.engine.component = component.into();
        self
    }

    /// Replaces the log queue / segment config.
    pub fn logger(mut self, logger: LoggerConfig) -> Self {
        self.0.logger = logger;
        self
    }

    /// Replaces the writer supervision config.
    pub fn supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.0.supervisor = supervisor;
        self
    }

    /// Replaces the circuit-breaker thresholds.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.0.breaker = breaker;
        self
    }

    /// Reward-join TTL in logical nanoseconds.
    pub fn join_ttl_ns(mut self, ttl_ns: u64) -> Self {
        self.0.join_ttl_ns = ttl_ns;
        self
    }

    /// Replaces the trainer / promotion-gate config.
    pub fn trainer(mut self, trainer: TrainerConfig) -> Self {
        self.0.trainer = trainer;
        self
    }

    /// Replaces the observability config.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.0.obs = obs;
        self
    }

    /// Replaces the ops-plane (scope) config.
    pub fn scope(mut self, scope: ScopeConfig) -> Self {
        self.0.scope = scope;
        self
    }

    /// Validates and returns the config: the engine needs ≥ 1 shard and ε
    /// in `(0, 1]`, and the breaker's window, trip, and re-arm thresholds
    /// must be nonzero.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.0.engine.validate()?;
        self.0.breaker.validate()?;
        Ok(self.0)
    }
}

/// One promotion round's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct PromotionReport {
    /// The gate's verdict and its evidence.
    pub gate: GateReport,
    /// The generation now serving (new on promotion, unchanged otherwise).
    pub serving_generation: u64,
    /// Name of the version now serving.
    pub serving_name: String,
}

/// The online decision service. `S` is the segment sink the supervised
/// writer persists into (files in production, [`MemorySegments`] in
/// simulations and chaos tests).
///
/// [`MemorySegments`]: harvest_log::segment::MemorySegments
pub struct DecisionService<S: SegmentSink + Send + 'static> {
    // Fields are crate-visible so the warm-restart path
    // ([`crate::recovery`]) can capture and restore them without widening
    // the public surface.
    pub(crate) registry: Arc<PolicyRegistry>,
    pub(crate) engine: DecisionEngine,
    /// One reward joiner per engine shard; an id joins on the joiner of
    /// the shard that decided it ([`shard_of`]).
    pub(crate) joiners: Box<[Mutex<RewardJoiner>]>,
    logger: DecisionLogger,
    writer: Option<WriterSupervisorHandle<S>>,
    pub(crate) metrics: Arc<ServeMetrics>,
    trainer: Trainer,
    /// Promotion naming counter (`cb-round-N`); advances only on promotion.
    pub(crate) rounds: Mutex<u64>,
    /// Training-round index for chaos crash scheduling; advances per call.
    pub(crate) train_rounds: AtomicU64,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) chaos: Option<Arc<ChaosPlan>>,
    /// Global decision index for chaos scheduling (poison faults).
    pub(crate) decision_seq: AtomicU64,
    /// Global reward-call index for chaos scheduling (drop/delay faults).
    pub(crate) reward_seq: AtomicU64,
    /// The ops plane, when obs is enabled. Ticked behind a mutex — ticks
    /// are control-plane cadence, never the hot path.
    scope: Option<Mutex<HarvestScope>>,
}

impl<S: SegmentSink + Send + 'static> DecisionService<S> {
    /// Boots the service with a uniform (explore-only) generation-0
    /// incumbent, logging segments into `sink`.
    pub fn new(cfg: ServeConfig, sink: S) -> Self {
        Self::build(cfg, sink, None, WriterResume::default())
    }

    /// Like [`DecisionService::new`], with a deterministic fault schedule.
    /// The same `(config, plan, call sequence)` triple reproduces the same
    /// faults, the same decisions, and byte-identical log segments.
    pub fn with_chaos(cfg: ServeConfig, sink: S, plan: ChaosPlan) -> Self {
        Self::build(cfg, sink, Some(Arc::new(plan)), WriterResume::default())
    }

    /// Assembles the service; its writer continues the durable history
    /// `resume` describes (a fresh log for [`WriterResume::default`]).
    pub(crate) fn build(
        cfg: ServeConfig,
        sink: S,
        chaos: Option<Arc<ChaosPlan>>,
        resume: WriterResume,
    ) -> Self {
        let metrics = if cfg.obs.enabled {
            Arc::new(ServeMetrics::with_obs(Arc::new(ServeObs::new())))
        } else {
            Arc::new(ServeMetrics::new())
        };
        let registry = Arc::new(PolicyRegistry::new(
            ServePolicy::Uniform,
            "bootstrap-uniform",
        ));
        // One SPSC ring per engine shard: each shard pushes to its own ring
        // and the writer merges in ticket order, so log hand-off never
        // contends across shards.
        let (logger, writer) = spawn_resumed_writer(
            cfg.logger,
            cfg.supervisor,
            cfg.engine.shards,
            Arc::clone(&metrics),
            chaos.clone(),
            sink,
            resume,
        );
        let engine = DecisionEngine::new(
            &cfg.engine,
            Arc::clone(&registry),
            Arc::clone(&metrics),
            logger.clone(),
        );
        let joiners = (0..engine.num_shards())
            .map(|_| Mutex::new(RewardJoiner::new(cfg.join_ttl_ns, Arc::clone(&metrics))))
            .collect();
        let scope = cfg
            .obs
            .enabled
            .then(|| Mutex::new(HarvestScope::new(&cfg.scope)));
        DecisionService {
            registry,
            engine,
            joiners,
            logger,
            writer: Some(writer),
            metrics,
            // One ε: the gate evaluates candidates exactly as the engine
            // will serve them.
            trainer: Trainer::new(cfg.trainer, cfg.engine.epsilon),
            rounds: Mutex::new(0),
            train_rounds: AtomicU64::new(0),
            breaker: CircuitBreaker::new(cfg.breaker),
            chaos,
            decision_seq: AtomicU64::new(0),
            reward_seq: AtomicU64::new(0),
            scope,
        }
    }

    /// Serves one decision on `shard` at logical time `now_ns`. The
    /// decision record is queued for the log and tracked for reward joining
    /// before this returns.
    ///
    /// When the breaker is open the decision is served by the safe policy
    /// and stamped [`Decision::degraded`]; it still logs its exact
    /// propensity. An out-of-range shard is an error, never a panic.
    pub fn decide(
        &self,
        shard: usize,
        now_ns: u64,
        ctx: &SimpleContext,
    ) -> Result<Decision, ServeError> {
        let mut out = DecisionBatch::new();
        self.decide_batch(shard, now_ns, std::slice::from_ref(ctx), &mut out)?;
        Ok(out.decisions[0])
    }

    /// Serves a batch of decisions on `shard`, all stamped at logical time
    /// `now_ns`, into the caller-owned `out` buffer (cleared first; reuse
    /// one buffer across calls to keep the hot path allocation-amortized).
    ///
    /// [`decide`](DecisionService::decide) is this call on a batch of one,
    /// so a same-seed batch run reproduces the single-call run's decision
    /// stream byte for byte: the circuit breaker is consulted *per
    /// decision* (it can open or re-arm mid-batch), chaos poison faults
    /// scheduled anywhere in the batch's decision-index range fire before
    /// the batch is served, and segment recovery flattens the batch's
    /// single log frame back into the individual decision records. What is
    /// amortized: one shard-lock acquisition, one id-range reservation, one
    /// log-queue hand-off, and bulk joiner tracking per batch instead of
    /// per decision.
    pub fn decide_batch(
        &self,
        shard: usize,
        now_ns: u64,
        contexts: &[SimpleContext],
        out: &mut DecisionBatch,
    ) -> Result<(), ServeError> {
        out.reset();
        let n = contexts.len() as u64;
        let first_index = self.decision_seq.fetch_add(n, Ordering::SeqCst);
        if let Some(chaos) = &self.chaos {
            // Any poison scheduled inside this batch's index range fires up
            // front; the engine recovers the shard once at its single lock
            // acquisition. (Several poisons in one batch therefore collapse
            // into one recovery — schedule at most one per batch when
            // counting recoveries.)
            if (first_index..first_index + n).any(|i| chaos.poison_at(i)) {
                self.engine.poison_shard(shard);
            }
        }
        for _ in contexts {
            let writer_alive = self.writer.as_ref().map(|w| w.alive()).unwrap_or(false);
            out.degraded
                .push(self.breaker.on_decision(writer_alive, &self.metrics));
        }
        self.engine
            .decide_batch_with(shard, now_ns, contexts, Some(&SAFE_POLICY), out)?;
        // The engine has range-checked `shard`.
        lock_recovering(&self.joiners[shard], Some(&self.metrics))
            .track_many(out.decisions.iter().map(|d| d.request_id), now_ns);
        Ok(())
    }

    /// The joiner that owns `request_id`: its deciding shard's.
    pub(crate) fn joiner(&self, request_id: u64) -> MutexGuard<'_, RewardJoiner> {
        let shard = shard_of(request_id, self.joiners.len());
        lock_recovering(&self.joiners[shard], Some(&self.metrics))
    }

    /// Reports the delayed reward for `request_id`. Joins within the TTL
    /// produce an outcome record in the log; duplicates and late arrivals
    /// are refused and counted. Under chaos, a scheduled drop loses the
    /// reward in flight ([`JoinOutcome::Lost`]) and a scheduled delay
    /// shifts its observed delivery time forward.
    pub fn reward(&self, request_id: u64, now_ns: u64, reward: f64) -> JoinOutcome {
        let index = self.reward_seq.fetch_add(1, Ordering::SeqCst);
        let mut observed_ns = now_ns;
        if let Some(chaos) = &self.chaos {
            match chaos.reward_fault_at(index) {
                Some(RewardFault::Drop) => {
                    self.metrics.record_reward_lost();
                    return JoinOutcome::Lost;
                }
                Some(RewardFault::Delay { by_ns }) => {
                    observed_ns = observed_ns.saturating_add(by_ns);
                }
                None => {}
            }
        }
        let (outcome, record) = self
            .joiner(request_id)
            .join(request_id, observed_ns, reward);
        if let Some(rec) = record {
            self.logger.log(LogRecord::Outcome(rec));
        }
        outcome
    }

    /// One harvest → train → gate round over the log `segments` (typically
    /// a snapshot of the service's own store, such as
    /// [`MemorySegments::snapshot`]). The trainer reads the bytes in place:
    /// each segment's valid prefix, joined with rewards across segments, as
    /// the portfolio pass reads them; a damaged tail is quarantined, not
    /// trained on. On a passing gate the candidate is promoted — an atomic
    /// hot-swap the shards pick up on their next decision. Safe to call
    /// from a background thread while serving continues.
    ///
    /// A trainer panic (chaos-injected or real) is caught: the incumbent
    /// stays, the breaker trips, and [`ServeError::TrainerCrashed`] is
    /// returned. A gate whose confidence radius has collapsed also trips
    /// the breaker, even when the round itself succeeds.
    ///
    /// [`MemorySegments::snapshot`]: harvest_log::segment::MemorySegments::snapshot
    pub fn train_and_maybe_promote(
        &self,
        segments: &[Vec<u8>],
    ) -> Result<PromotionReport, ServeError> {
        let round_index = self.train_rounds.fetch_add(1, Ordering::SeqCst);
        let crash = self
            .chaos
            .as_ref()
            .is_some_and(|c| c.trainer_crash_at(round_index));
        let incumbent = self.registry.current();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if crash {
                panic!("chaos: trainer crashed mid-fit (round {round_index})");
            }
            self.trainer.run_round(segments, &incumbent.policy)
        }));
        let round = match outcome {
            Err(_) => {
                self.metrics.record_trainer_crash();
                self.breaker.note_trainer_crash(&self.metrics);
                return Err(ServeError::TrainerCrashed { round: round_index });
            }
            Ok(result) => result?,
        };
        self.breaker
            .note_gate(round.gate.n, round.gate.candidate_radius, &self.metrics);
        if let Some(obs) = self.metrics.obs() {
            obs.set_quality(round.gate.quality);
            obs.set_leaderboard(round.leaderboard.clone());
            // The round's harvest span — last minus first record stamp,
            // logical ns — is the gate→promote stage of the timeline.
            if let Some((first, last)) = round.stamps {
                obs.record_gate_span(last - first);
            }
            // Stamp `trained` on exactly the decisions this round trained
            // and gated on.
            for &id in &round.request_ids {
                obs.tracer().trained(id, round_index);
            }
        }
        if round.gate.promoted {
            let round_no = {
                let mut r = lock_recovering(&self.rounds, Some(&self.metrics));
                *r += 1;
                *r
            };
            self.registry
                .promote(round.winner_policy, format!("cb-round-{round_no}"));
            self.metrics.record_swap();
        }
        let serving = self.registry.current();
        Ok(PromotionReport {
            gate: round.gate,
            serving_generation: serving.generation,
            serving_name: serving.name.clone(),
        })
    }

    /// The policy registry (for inspection and manual promotion).
    pub fn registry(&self) -> &PolicyRegistry {
        &self.registry
    }

    /// Number of decision shards.
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// Whether the supervised writer is still accepting records (alive or
    /// restarting — `false` only once the restart budget is exhausted or
    /// the service is shutting down).
    pub fn writer_alive(&self) -> bool {
        self.writer.as_ref().map(|w| w.alive()).unwrap_or(false)
    }

    /// Whether the circuit breaker is open (serving the safe policy).
    pub fn breaker_open(&self) -> bool {
        self.breaker.is_open()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live counter handle, for admission layers that sit in front of
    /// the service (e.g. the wire front-end) and must ledger the work they
    /// shed into the same conservation accounting.
    pub fn metrics_handle(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The observability bundle, when the service was built with
    /// [`ObsConfig::enabled`] (the default).
    pub fn obs(&self) -> Option<&Arc<ServeObs>> {
        self.metrics.obs()
    }

    /// Why the breaker last tripped, if it ever did.
    pub fn breaker_last_trip(&self) -> Option<TripReason> {
        self.breaker.last_trip()
    }

    /// The tracer's lifecycle-conservation audit, when tracing is enabled.
    pub fn trace_audit(&self) -> Option<harvest_obs::TraceAudit> {
        self.metrics.obs().map(|o| o.tracer().audit())
    }

    /// Every decision trace as replayable JSON lines (sorted by id), when
    /// tracing is enabled.
    pub fn export_trace_jsonl(&self) -> Option<String> {
        self.metrics.obs().map(|o| o.tracer().export_jsonl())
    }

    /// The latest training round's ranked portfolio leaderboard as
    /// deterministic JSON — every candidate's estimate, confidence
    /// interval, effective sample size, and clipped mass. `None` until a
    /// round has run (or when observability is disabled).
    pub fn export_leaderboard_json(&self) -> Option<String> {
        self.metrics.obs().and_then(|o| o.leaderboard_json())
    }

    /// The full JSON-serializable observability snapshot.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        obs_snapshot(
            &self.metrics,
            self.breaker.is_open(),
            self.breaker.last_trip(),
        )
    }

    /// One ops-plane tick at logical time `now_ns`: the scope drains the
    /// stage journal, advances the window series, and evaluates the
    /// watchdogs, returning any alert events raised. A no-op (empty)
    /// when the service was built without a scope.
    ///
    /// For byte-identical stage histograms across same-seed runs, tick
    /// after the log pipeline has drained (`log_backlog == 0`).
    pub fn scope_tick(&self, now_ns: u64) -> Vec<harvest_obs::AlertEvent> {
        match &self.scope {
            Some(scope) => lock_recovering(scope, Some(&self.metrics)).tick(
                now_ns,
                &self.metrics,
                self.breaker.is_open(),
            ),
            None => Vec::new(),
        }
    }

    /// The window-series ring as deterministic JSON, when the scope is
    /// enabled.
    pub fn export_series_json(&self) -> Option<String> {
        self.scope
            .as_ref()
            .map(|s| lock_recovering(s, Some(&self.metrics)).series_export_json())
    }

    /// Current watchdog alert states as deterministic JSON, when the
    /// scope is enabled.
    pub fn export_alerts_json(&self) -> Option<String> {
        self.scope
            .as_ref()
            .map(|s| lock_recovering(s, Some(&self.metrics)).alerts_json())
    }

    /// Every alert fire/clear event so far as JSON lines, when the scope
    /// is enabled.
    pub fn export_alert_events_jsonl(&self) -> Option<String> {
        self.scope
            .as_ref()
            .map(|s| lock_recovering(s, Some(&self.metrics)).events_jsonl())
    }

    /// The Prometheus text exposition page. A scope-carrying service
    /// appends its alert and stage-latency families, so this page — and
    /// the wire OPS scrape, which renders through this same method — is
    /// the full ops-plane view.
    pub fn export_prometheus(&self) -> String {
        let mut p = prometheus_page(
            &self.metrics,
            self.breaker.is_open(),
            self.breaker.last_trip(),
        );
        if let Some(scope) = &self.scope {
            lock_recovering(scope, Some(&self.metrics)).append_prometheus(&mut p);
        }
        p.finish()
    }

    /// Shuts down: disconnects the log queue, waits for the writer to drain
    /// and seal it, and returns the sink holding the complete segments.
    pub fn shutdown(mut self) -> io::Result<S> {
        // `writer` is only ever taken here, and `shutdown` consumes the
        // service — but return an error rather than panic if that ever
        // changes.
        let Some(writer) = self.writer.take() else {
            return Err(io::Error::other("service writer already shut down"));
        };
        // Drop both producer handles so the rings signal hang-up.
        drop(self.engine);
        drop(self.logger);
        writer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_log::segment::{MemorySegments, FRAME_HEADER_LEN};

    fn config(seed: u64) -> ServeConfig {
        ServeConfig {
            engine: EngineConfig {
                shards: 2,
                epsilon: 0.2,
                master_seed: seed,
                component: "svc-test".to_string(),
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn decide_reward_shutdown_round_trip() {
        let svc = DecisionService::new(config(9), MemorySegments::new());
        let ctx = SimpleContext::new(vec![0.3], 3);
        let mut ids = Vec::new();
        for i in 0..50u64 {
            let d = svc.decide((i % 2) as usize, i * 10, &ctx).unwrap();
            assert!(!d.degraded);
            ids.push(d.request_id);
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(svc.reward(*id, i as u64 * 10 + 5, 1.0), JoinOutcome::Joined);
        }
        assert_eq!(svc.reward(ids[0], 1_000, 1.0), JoinOutcome::Duplicate);
        let snap = svc.metrics();
        assert_eq!(snap.decisions, 50);
        assert_eq!(snap.join_hits, 50);
        assert_eq!(snap.join_duplicates, 1);
        let store = svc.shutdown().unwrap();
        let (records, stats) = store.recover();
        assert_eq!(stats.quarantined_records, 0);
        // 50 decisions + 50 outcomes, in submission order.
        assert_eq!(records.len(), 100);
        assert_eq!(stats.recovered, 100);
    }

    #[test]
    fn training_round_promotes_and_decisions_follow() {
        let store = MemorySegments::new();
        let svc = DecisionService::new(
            ServeConfig {
                trainer: TrainerConfig {
                    lambda: 1e-3,
                    ..TrainerConfig::default()
                },
                ..config(11)
            },
            store.clone(),
        );
        let mut rng = harvest_sim_net::rng::fork_rng(11, "svc-train-test");
        use rand::Rng;
        // Crossing rewards: action 0 pays x, action 1 pays 1 − x.
        for i in 0..3000u64 {
            let x: f64 = rng.gen_range(0.0..1.0);
            let ctx = SimpleContext::new(vec![x], 2);
            let d = svc.decide((i % 2) as usize, i * 100, &ctx).unwrap();
            let r = if d.action == 0 { x } else { 1.0 - x };
            svc.reward(d.request_id, i * 100 + 50, r);
        }
        // Read the service's own log back and train on it.
        while svc.metrics().log_backlog > 0 {
            std::thread::yield_now();
        }
        let report = svc.train_and_maybe_promote(&store.snapshot()).unwrap();
        assert!(report.gate.promoted, "{report:?}");
        assert_eq!(report.serving_generation, 1);
        assert_eq!(svc.registry().swap_count(), 1);
        assert_eq!(svc.metrics().swaps, 1);
        // Post-swap, decisions exploit the learned crossing policy.
        let d = svc
            .decide(0, 1_000_000, &SimpleContext::new(vec![0.95], 2))
            .unwrap();
        assert_eq!(d.generation, 1);
        svc.shutdown().unwrap();
    }

    #[test]
    fn the_trainer_gates_under_the_serving_epsilon() {
        let cfg = ServeConfig::builder()
            .epsilon(0.3)
            .trainer(TrainerConfig::default())
            .build()
            .unwrap();
        let svc = DecisionService::new(cfg, MemorySegments::new());
        assert_eq!(svc.trainer.epsilon(), 0.3);
        svc.shutdown().unwrap();
    }

    #[test]
    fn a_single_decision_logs_the_same_frame_as_a_batch_of_one() {
        let ctx = SimpleContext::new(vec![0.4, 0.6], 3);
        let single = DecisionService::new(config(23), MemorySegments::new());
        let batched = DecisionService::new(config(23), MemorySegments::new());
        let mut out = DecisionBatch::new();
        for i in 0..40u64 {
            let shard = (i % 2) as usize;
            let d = single.decide(shard, i * 10, &ctx).unwrap();
            batched
                .decide_batch(shard, i * 10, std::slice::from_ref(&ctx), &mut out)
                .unwrap();
            assert_eq!(out.decisions(), &[d]);
        }
        let single = single.shutdown().unwrap().snapshot();
        let batched = batched.shutdown().unwrap().snapshot();
        assert_eq!(single, batched, "segment bytes differ");
        // Every frame decodes, unflattened, as a plain decision record
        // (codec tag 0) — never as a one-entry batch frame (tag 2).
        let mut frames = 0;
        for bytes in &single {
            let mut off = 0;
            while off < bytes.len() {
                let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                let payload = &bytes[off + FRAME_HEADER_LEN..off + FRAME_HEADER_LEN + len];
                let record = harvest_log::codec::decode_record(payload).unwrap();
                assert!(matches!(record, LogRecord::Decision(_)), "{record:?}");
                off += FRAME_HEADER_LEN + len;
                frames += 1;
            }
        }
        assert_eq!(frames, 40);
    }

    #[test]
    fn dead_writer_opens_the_breaker_and_decisions_degrade() {
        let cfg = ServeConfig {
            supervisor: SupervisorConfig {
                max_restarts: 0,
                ..SupervisorConfig::default()
            },
            ..config(13)
        };
        // Kill the writer on its very first record; zero restart budget
        // makes the death permanent.
        let svc = DecisionService::with_chaos(
            cfg,
            MemorySegments::new(),
            ChaosPlan::none().kill_writer_at(0),
        );
        let ctx = SimpleContext::new(vec![0.5], 4);
        // The kill fires as the writer thread starts (pre-pop, index 0);
        // wait for the supervisor to observe the crash and give up.
        while svc.writer_alive() {
            std::thread::yield_now();
        }
        let d = svc.decide(0, 10, &ctx).unwrap();
        assert!(d.degraded, "dead writer must trip the breaker");
        assert!(svc.breaker_open());
        // Safe arm is uniform: exact propensity 1/K.
        assert!((d.propensity - 0.25).abs() < 1e-12);
        let snap = svc.metrics();
        assert!(snap.breaker_trips >= 1);
        assert!(snap.degraded_decisions >= 1);
        // No record vanished from the ledger: everything offered is either
        // written or counted dropped once the pipeline drains.
        svc.shutdown().unwrap();
    }

    #[test]
    fn trainer_crash_is_caught_trips_the_breaker_and_keeps_the_incumbent() {
        let svc = DecisionService::with_chaos(
            config(17),
            MemorySegments::new(),
            ChaosPlan::none().crash_trainer_at(0),
        );
        let err = svc.train_and_maybe_promote(&[]).unwrap_err();
        match err {
            ServeError::TrainerCrashed { round: 0 } => {}
            other => panic!("expected TrainerCrashed, got {other:?}"),
        }
        assert!(svc.breaker_open());
        assert_eq!(svc.registry().generation(), 0, "incumbent untouched");
        let snap = svc.metrics();
        assert_eq!(snap.trainer_crashes, 1);
        assert_eq!(snap.breaker_trips, 1);
        svc.shutdown().unwrap();
    }

    #[test]
    fn dropped_rewards_are_lost_not_joined() {
        let svc = DecisionService::with_chaos(
            config(19),
            MemorySegments::new(),
            ChaosPlan::none().drop_reward_at(0),
        );
        let ctx = SimpleContext::new(vec![0.5], 2);
        let d = svc.decide(0, 0, &ctx).unwrap();
        assert_eq!(svc.reward(d.request_id, 5, 1.0), JoinOutcome::Lost);
        // The decision is still pending: a retry (next reward index, no
        // fault scheduled) joins normally.
        assert_eq!(svc.reward(d.request_id, 6, 1.0), JoinOutcome::Joined);
        let snap = svc.metrics();
        assert_eq!(snap.rewards_lost, 1);
        assert_eq!(snap.join_hits, 1);
        svc.shutdown().unwrap();
    }
}
