//! # harvest-obs — deterministic observability for the harvest loop
//!
//! The paper's premise is that production logs of `⟨x, a, r, p⟩` are
//! trustworthy enough to drive off-policy evaluation. That only holds if
//! the system can *see* when they are not: dropped rewards, clipped
//! propensities, drifting contexts, a collapsing effective sample size.
//! This crate is the seeing apparatus, built under the same determinism
//! rules as the decision path itself (DESIGN.md §4): no wall clock, no
//! ambient RNG, and every export byte-identical across same-seed runs.
//!
//! Three pieces:
//!
//! - [`hist`] — log-scaled (HDR-style) histograms over *logical* time.
//!   Integer-exact counts, saturating integer sums, deterministic
//!   percentiles, mergeable across shards. A lock-free
//!   [`hist::AtomicHistogram`] variant records from concurrent threads
//!   and snapshots into the plain mergeable form.
//! - [`trace`] — a lock-light sharded ring-buffer tracer that records
//!   the causal lifecycle of each decision (decided → enqueued →
//!   written / dropped / quarantined, reward-joined, trained-on) keyed
//!   by decision id, with a replayable JSON-lines export and an audit
//!   that accounts every decision to exactly one terminal state.
//! - [`prom`] — a deterministic Prometheus text-exposition builder
//!   (counters, gauges, labeled families, cumulative histogram series)
//!   whose output is a pure function of the values rendered, plus a
//!   conformance validator every workspace export is tested against.
//! - [`series`] — a windowed time-series engine over the logical clock:
//!   a fixed ring of window frames holding exact counter deltas,
//!   per-window histogram slices, and gauge last-values, with
//!   associative cross-shard merge.
//! - [`alert`] — deterministic hysteresis watchdogs that evaluate one
//!   signal per sealed window and raise typed fire/clear events.
//! - [`counters`] — the [`counter_table!`] macro: each service counter
//!   declared once, with its storage, recorders, snapshot, checkpoint and
//!   Prometheus family generated from that one row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod counters;
pub mod hist;
pub mod prom;
pub mod series;
pub mod trace;

pub use alert::{AlertEvent, AlertPhase, BreachDirection, ObsAlert, Watchdog, WatchdogConfig};
pub use hist::{AtomicHistogram, Histogram, HistogramSummary, StripedHistogram};
pub use prom::{validate_exposition, PromText};
pub use series::{
    FrameExport, SeriesConfig, SeriesExport, SeriesFrame, SeriesSample, WindowSeries,
};
pub use trace::{Decided, DecisionTrace, Terminal, TraceAudit, Tracer, TracerConfig};
