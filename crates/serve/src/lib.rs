//! `harvest-serve`: an online decision service with hot-swappable policies
//! and a gated harvest → train → promote loop.
//!
//! This crate turns the workspace's offline machinery into the *system* the
//! paper envisions (§3's Decision Service): a process that serves randomized
//! decisions, logs its own exploration, learns from that log, and promotes
//! better policies into the serving path without stopping — the harvesting
//! loop closed end to end, and hardened to keep serving through crashes.
//!
//! ```text
//!   requests ──▶ CircuitBreaker ──▶ DecisionEngine (N shards, ε-floor,
//!                   │ open: safe arm     │    ▲ exact propensities)
//!                   │                    │    │ Arc hot-swap
//!                   │                    │    └── PolicyRegistry ◀── promote
//!                   ▼                    ▼                            │ gate:
//!              safe policy    one swap queue (arrival order)         │ LCB >
//!           (still logged with          │                            │ incumbent
//!            exact propensities)        ▼                            │
//!     supervised writer (group commit, restart + backoff, sealed)    │
//!                   │                                                │
//!                   ▼                                                │
//!        crash-safe segments (len ‖ crc32 ‖ payload) ──▶ recovery ──▶ Trainer
//!   rewards ──▶ RewardJoiner (TTL) ─────────┘          (longest valid prefix,
//!                                                       quarantine the rest)
//! ```
//!
//! Seven design rules, each load-bearing:
//!
//! 1. **Exact propensities or nothing.** Every decision is sampled from a
//!    distribution with a known ε floor, and that exact probability is
//!    stamped into the record. This is what makes the log harvestable
//!    (paper Eq. 1 needs `ε > 0` and known `p`).
//! 2. **Determinism by construction.** Per-shard RNGs are forked from one
//!    master seed by label and index; time is the caller's logical clock;
//!    even fault schedules ([`ChaosPlan`]) are seeded. Same seed + same
//!    call sequence ⇒ byte-identical decision log, faults included.
//! 3. **Readers never wait on learners.** The serving path sees policy
//!    updates through one atomic generation check; promotion is an `Arc`
//!    flip, not a lock held across training.
//! 4. **Bounded everywhere.** The log queue has a capacity and blocks the
//!    decision path while full, so no record is refused because of load;
//!    the reward joiner has a TTL; the writer has a restart budget and
//!    capped backoff. Overload degrades measurably (added latency, counted
//!    timeouts), never silently.
//! 5. **Promotion is gated, not hoped.** A candidate ships only when its
//!    finite-sample lower confidence bound beats the incumbent's point
//!    estimate on the same harvested data.
//! 6. **No record vanishes from the ledger.** Every record offered to the
//!    log counts `enqueued`; once the pipeline drains,
//!    `enqueued == written + dropped + quarantined`. Corrupt bytes at
//!    recovery are quarantined and counted, never silently skipped.
//! 7. **Degrade, don't die.** Wedged shards are recovered and counted; a
//!    crashed writer restarts with backoff; a degraded pipeline flips the
//!    [`CircuitBreaker`] to the safe arm (paper §3) — which still logs
//!    exact propensities, so even degraded traffic is harvestable.
//!
//! See `examples/harvest_serve.rs` for the loop driven end to end against
//! the load-balancer simulator, and `examples/chaos_harvest.rs` for the
//! same loop under a seeded fault schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batch;
pub mod breaker;
pub mod chaos;
pub mod engine;
pub mod error;
pub mod export;
pub mod joiner;
pub mod logger;
pub mod metrics;
pub mod obs;
pub mod recovery;
pub mod registry;
pub mod scope;
pub mod service;
pub mod supervisor;
pub mod trainer;

pub use admission::QueueBudget;
pub use batch::DecisionBatch;
pub use breaker::{BreakerConfig, BreakerConfigBuilder, CircuitBreaker, TripReason};
pub use chaos::apply_at_rest_faults;
pub use engine::{Decision, DecisionEngine, EngineConfig, EngineConfigBuilder, SEQ_BITS};
pub use error::ServeError;
pub use export::{export_prometheus, obs_snapshot, ObsSnapshot};
pub use joiner::{JoinOutcome, RewardJoiner};
pub use logger::{DecisionLogger, LoggerConfig, LoggerConfigBuilder};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use obs::{ObsConfig, ObsConfigBuilder, ServeObs};
pub use recovery::{RecoveryReport, ServiceCheckpoint};
pub use registry::{CachedPolicy, PolicyRegistry, PolicyVersion, ServePolicy};
pub use scope::{HarvestScope, ScopeConfig, ScopeConfigBuilder};
pub use service::{DecisionService, PromotionReport, ServeConfig, ServeConfigBuilder};
pub use supervisor::{
    spawn_supervised_writer, SupervisorConfig, SupervisorConfigBuilder, WriterSupervisorHandle,
};
pub use trainer::{
    GateConfig, GateConfigBuilder, GateEstimator, GateReport, TrainRound, Trainer, TrainerConfig,
    TrainerConfigBuilder,
};

// The tracer and histogram primitives, re-exported so exporters and tests
// need only this crate.
pub use harvest_obs::{
    AlertEvent, AlertPhase, DecisionTrace, Histogram, HistogramSummary, ObsAlert, Terminal,
    TraceAudit, Tracer,
};

// Re-exported so chaos tests and examples need only this crate.
pub use harvest_sim_net::fault::{
    AtRestFault, ChaosHorizon, ChaosPlan, ChaosPlanConfig, CheckpointFault, RewardFault,
    WriterFault,
};
