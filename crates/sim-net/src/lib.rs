//! Discrete-event simulation substrate for the `harvest` workspace.
//!
//! This crate is the foundation every simulator in the reproduction is built
//! on. It deliberately follows the design philosophy of event-driven network
//! stacks such as smoltcp: simplicity and robustness over cleverness, no
//! macro or type tricks, deterministic behaviour, and extensive
//! documentation.
//!
//! The pieces:
//!
//! * [`time`] — a nanosecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]) that is totally ordered and hashable, so it can key
//!   event queues without floating-point comparison hazards.
//! * [`event`] — a generic, FIFO-stable [`event::EventQueue`] plus the
//!   [`event::Simulator`] driver loop.
//! * [`rng`] — deterministic random-number plumbing. Every simulator takes a
//!   single master seed; component RNGs are forked from it by label so that
//!   adding a component never perturbs the random stream of another.
//! * [`workload`] — request/arrival generators (Poisson, deterministic rate,
//!   on/off bursts) and popularity distributions (uniform, Zipf, the paper's
//!   big/small item mix).
//! * [`fault`] — Chaos-Monkey-style fault injection: time-keyed component
//!   faults (crashes, slowdowns, latency spikes) used to widen exploration
//!   coverage per §5 of the paper, and operation-indexed [`fault::ChaosPlan`]
//!   schedules that drive the serve loop's chaos-hardening tests.
//! * [`stats`] — online statistics (Welford mean/variance, exact quantiles)
//!   used to report latency distributions.
//!
//! Everything is synchronous and single-threaded by design: the workloads in
//! this reproduction are CPU-bound simulations, where an async runtime would
//! add overhead and nondeterminism without benefit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod rng;
pub mod stats;
pub mod time;
pub mod workload;

pub use event::{EventQueue, ScheduledEvent, Simulator};
pub use fault::{
    AtRestFault, ChaosHorizon, ChaosPlan, ChaosPlanConfig, CheckpointFault, RewardFault,
    WriterFault,
};
pub use rng::{fork_rng, rng_from_state, rng_state, DetRng};
pub use time::{SimDuration, SimTime};
