//! # harvest — Harvesting Randomness to Optimize Distributed Systems
//!
//! A from-scratch Rust reproduction of the HotNets'17 paper *Harvesting
//! Randomness to Optimize Distributed Systems* (Lecuyer, Lockerman, Nelson,
//! Sen, Sharma, Slivkins): contextual bandits and off-policy evaluation for
//! the randomized decisions distributed systems already make, plus
//! simulators for the paper's three scenarios (machine health, load
//! balancing, caching) and a harness that regenerates every figure and
//! table.
//!
//! This crate is an umbrella facade: it re-exports the workspace crates
//! under stable module names so applications can depend on one crate.
//!
//! ## Quick start
//!
//! ```
//! use harvest::core::policy::{ConstantPolicy, UniformPolicy};
//! use harvest::core::simulate::simulate_exploration;
//! use harvest::estimators::{EstimatorKind, OffPolicyEvaluator};
//! use harvest::mh::{generate_dataset, MachineHealthConfig};
//! use rand::SeedableRng;
//!
//! // 1. A full-feedback machine-health dataset (the Azure scenario).
//! let full = generate_dataset(&MachineHealthConfig {
//!     incidents: 10_000,
//!     seed: 7,
//! });
//!
//! // 2. Simulate a randomized deployment: reveal one action's reward per
//! //    incident, logged with its propensity.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let exploration = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
//!
//! // 3. Evaluate a candidate policy offline — without deploying it.
//! let candidate = ConstantPolicy::new(2); // always wait 3 minutes
//! let evaluator = OffPolicyEvaluator::new(EstimatorKind::Ips);
//! let estimate = evaluator.evaluate(&exploration, &candidate);
//! let truth = full.value_of_policy(&candidate).unwrap();
//! assert!((estimate.value - truth).abs() < 0.1);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `harvest-core` | contexts, policies, CB learners |
//! | [`estimators`] | `harvest-estimators` | IPS, SNIPS, DM, DR, bounds, A/B |
//! | [`logs`] | `harvest-log` | scavenging, propensity inference, rewards |
//! | [`simnet`] | `harvest-sim-net` | event queue, workloads, faults |
//! | [`lb`] | `harvest-sim-lb` | Nginx-style load-balancer simulator |
//! | [`cache`] | `harvest-sim-cache` | Redis-style cache simulator |
//! | [`mh`] | `harvest-sim-mh` | Azure-style machine-health simulator |
//! | [`serve`] | `harvest-serve` | online decision service (harvest → train → promote) |
//! | [`wire`] | `harvest-wire` | TCP front-end: framed protocol, admission control |
//! | [`obs`] | `harvest-obs` | decision tracer, histograms, Prometheus exposition |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The contextual-bandit framework (re-export of `harvest-core`).
pub mod core {
    pub use harvest_core::*;
}

/// Off-policy estimators and bounds (re-export of `harvest-estimators`).
pub mod estimators {
    pub use harvest_estimators::*;
}

/// Log scavenging pipeline (re-export of `harvest-log`).
pub mod logs {
    pub use harvest_log::*;
}

/// Discrete-event simulation substrate (re-export of `harvest-sim-net`).
pub mod simnet {
    pub use harvest_sim_net::*;
}

/// Load-balancer simulator (re-export of `harvest-sim-lb`).
pub mod lb {
    pub use harvest_sim_lb::*;
}

/// Cache simulator (re-export of `harvest-sim-cache`).
pub mod cache {
    pub use harvest_sim_cache::*;
}

/// Machine-health simulator (re-export of `harvest-sim-mh`).
pub mod mh {
    pub use harvest_sim_mh::*;
}

/// Online decision service (re-export of `harvest-serve`).
pub mod serve {
    pub use harvest_serve::*;
}

/// Socket front-end for the decision service (re-export of `harvest-wire`).
pub mod wire {
    pub use harvest_wire::*;
}

/// Observability primitives (re-export of `harvest-obs`).
pub mod obs {
    pub use harvest_obs::*;
}

/// One error type for the whole facade surface.
///
/// Application code driving the serve loop otherwise juggles
/// [`ServeError`](harvest_serve::ServeError) from decisions and training,
/// [`std::io::Error`] from segment persistence and shutdown, and
/// [`HarvestError`](harvest_core::HarvestError) from the offline pipeline.
/// All three convert into `harvest::Error` via `?`.
#[derive(Debug)]
pub enum Error {
    /// The decision service refused or failed an operation.
    Serve(harvest_serve::ServeError),
    /// The offline harvest/estimation pipeline failed.
    Harvest(harvest_core::HarvestError),
    /// Segment persistence, recovery, or shutdown I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Serve(e) => write!(f, "serve: {e}"),
            Error::Harvest(e) => write!(f, "harvest: {e}"),
            Error::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Serve(e) => Some(e),
            Error::Harvest(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<harvest_serve::ServeError> for Error {
    fn from(e: harvest_serve::ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<harvest_core::HarvestError> for Error {
    fn from(e: harvest_core::HarvestError) -> Self {
        Error::Harvest(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// The names an application driving the serve loop almost always needs.
///
/// ```
/// use harvest::prelude::*;
///
/// fn run() -> Result<(), harvest::Error> {
///     let cfg = ServeConfig::builder()
///         .shards(2)
///         .epsilon(0.1)
///         .master_seed(42)
///         .build()?;
///     let svc = DecisionService::new(cfg, MemorySegments::new());
///     let ctx = SimpleContext::new(vec![0.5], 4);
///     let d = svc.decide(0, 0, &ctx)?;
///     svc.reward(d.request_id, 50, 1.0);
///     svc.shutdown()?;
///     Ok(())
/// }
/// run().unwrap();
/// ```
pub mod prelude {
    pub use harvest_core::{Context, SimpleContext};
    pub use harvest_estimators::{
        Candidate, EstimatorKind, EvaluatorConfig, GreedyScorerCandidate, LeaderboardEntry,
        OffPolicyEvaluator, PolicyEstimate, PortfolioEvaluator, PortfolioReport,
    };
    pub use harvest_log::record::LogRecord;
    pub use harvest_log::segment::MemorySegments;
    pub use harvest_serve::{
        BreakerConfig, ChaosPlan, Decision, DecisionBatch, DecisionService, EngineConfig,
        GateConfig, GateEstimator, JoinOutcome, LoggerConfig, ObsConfig, ServeConfig, ServeError,
        ServePolicy, SupervisorConfig, TrainerConfig,
    };
    pub use harvest_wire::{
        Connection, Request, Response, TcpClient, TcpServer, Transport, WireConfig, WireCore,
    };

    pub use crate::Error;
}
