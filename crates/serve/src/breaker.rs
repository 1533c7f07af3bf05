//! The degraded-mode circuit breaker.
//!
//! When the log pipeline degrades — records dropped or quarantined, writer
//! restarting or permanently down, trainer crashing, or the promotion
//! gate's confidence interval collapsing — continuing to serve the learned
//! incumbent is the risky move: its value estimate rests on a log we can no
//! longer trust to be complete. The paper's §3 answer is a *safe arm*: a
//! default policy whose worst case is known. The breaker decides when to
//! serve it.
//!
//! States are the classic two: **closed** (healthy, serve the incumbent)
//! and **open** (degraded, serve the safe policy). A trip happens when
//!
//! * the fault signal ([`ServeMetrics::fault_signal`]) rises by at least
//!   `trip_faults` within a `window`-decision window,
//! * the writer is permanently down (restart budget exhausted), or
//! * training reports a crash or a collapsed confidence radius.
//!
//! Re-arming requires `rearm_healthy` *consecutive* decisions with the
//! writer alive and a flat fault signal — sustained health, not one lucky
//! request. Trips and re-arms are counted in the metrics; decisions served
//! while open are stamped `degraded` and still log exact propensities, so
//! even degraded traffic remains harvestable.

use std::fmt;
use std::sync::Mutex;

use crate::error::{lock_recovering, ServeError};
use crate::metrics::ServeMetrics;

/// Why the breaker last tripped. Retained until the next trip (surviving
/// re-arms), so operators can always answer "why did we degrade?" from a
/// metrics snapshot instead of spelunking logs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TripReason {
    /// The fault signal rose by `delta` within one health-check window.
    FaultSlope {
        /// Fault-signal rise observed over the window.
        delta: u64,
    },
    /// The writer is permanently down (restart budget exhausted).
    WriterDown,
    /// The trainer panicked mid-round.
    TrainerCrash,
    /// The promotion gate's confidence radius collapsed (non-finite or
    /// over a ceiling of 100) on real data.
    GateCollapsed {
        /// The offending confidence radius.
        radius: f64,
    },
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripReason::FaultSlope { delta } => {
                write!(f, "fault_slope(delta={delta})")
            }
            TripReason::WriterDown => write!(f, "writer_down"),
            TripReason::TrainerCrash => write!(f, "trainer_crash"),
            TripReason::GateCollapsed { radius } => {
                write!(f, "gate_collapsed(radius={radius})")
            }
        }
    }
}

/// Circuit-breaker thresholds.
///
/// Construct via [`BreakerConfig::builder`] (validating) or from
/// [`BreakerConfig::default`]; `#[non_exhaustive]`, so out-of-crate
/// literal construction no longer compiles.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct BreakerConfig {
    /// Health-check window length, in decisions.
    pub window: u64,
    /// Fault-signal rise within one window that trips the breaker. Must be
    /// at least 1; a huge value disables slope-based tripping (explicit
    /// trips via writer death / trainer crash still fire).
    pub trip_faults: u64,
    /// Consecutive healthy decisions required to re-arm.
    pub rearm_healthy: u64,
}

/// Gate confidence radii above this (or non-finite, with enough samples)
/// count as estimator collapse and trip the breaker.
const MAX_GATE_RADIUS: f64 = 100.0;

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 64,
            trip_faults: 8,
            rearm_healthy: 128,
        }
    }
}

impl BreakerConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> BreakerConfigBuilder {
        BreakerConfigBuilder(BreakerConfig::default())
    }

    /// What [`CircuitBreaker::new`] would otherwise panic on: `window`,
    /// `trip_faults`, and `rearm_healthy` must all be nonzero (a zero
    /// window or re-arm streak would divide the health check into nothing).
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        for (name, v) in [
            ("window", self.window),
            ("trip_faults", self.trip_faults),
            ("rearm_healthy", self.rearm_healthy),
        ] {
            if v == 0 {
                return Err(ServeError::InvalidConfig {
                    reason: format!("breaker {name} must be nonzero"),
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`BreakerConfig`].
#[derive(Debug, Clone)]
pub struct BreakerConfigBuilder(BreakerConfig);

impl BreakerConfigBuilder {
    /// Health-check window length, in decisions (must stay ≥ 1).
    pub fn window(mut self, window: u64) -> Self {
        self.0.window = window;
        self
    }

    /// Fault-signal rise per window that trips the breaker (must stay
    /// ≥ 1; use a huge value to disable slope-based tripping).
    pub fn trip_faults(mut self, trip_faults: u64) -> Self {
        self.0.trip_faults = trip_faults;
        self
    }

    /// Consecutive healthy decisions required to re-arm (must stay ≥ 1).
    pub fn rearm_healthy(mut self, rearm_healthy: u64) -> Self {
        self.0.rearm_healthy = rearm_healthy;
        self
    }

    /// Validates and returns the config: `window`, `trip_faults`, and
    /// `rearm_healthy` must all be nonzero (a zero window or re-arm
    /// streak would divide the health check into nothing).
    pub fn build(self) -> Result<BreakerConfig, ServeError> {
        self.0.validate()?;
        Ok(self.0)
    }
}

#[derive(Debug, Default)]
struct BreakerState {
    open: bool,
    window_decisions: u64,
    window_start_faults: u64,
    last_faults: u64,
    healthy_streak: u64,
    last_trip: Option<TripReason>,
}

/// The breaker itself: one per service, consulted on every decision.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<BreakerState>,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    ///
    /// # Panics
    ///
    /// Panics if `trip_faults == 0` (every window would trip) or
    /// `rearm_healthy == 0` (the breaker could never stay open).
    pub fn new(cfg: BreakerConfig) -> Self {
        assert!(cfg.trip_faults > 0, "trip_faults must be at least 1");
        assert!(cfg.rearm_healthy > 0, "rearm_healthy must be at least 1");
        assert!(cfg.window > 0, "window must be at least 1");
        CircuitBreaker {
            cfg,
            state: Mutex::new(BreakerState::default()),
        }
    }

    /// Whether the breaker is currently open (serving the safe policy).
    pub fn is_open(&self) -> bool {
        lock_recovering(&self.state, None).open
    }

    /// The reason for the most recent trip, or `None` if the breaker has
    /// never tripped. Survives re-arming.
    pub fn last_trip(&self) -> Option<TripReason> {
        lock_recovering(&self.state, None).last_trip
    }

    /// Consults the breaker for one decision. Returns `true` when this
    /// decision must be served by the safe policy.
    ///
    /// Closed: a dead writer trips immediately; otherwise the fault-signal
    /// slope is checked once per window. Open: health accrues when the
    /// writer is alive and the fault signal is flat; `rearm_healthy` in a
    /// row closes the breaker (and this decision serves normally).
    pub fn on_decision(&self, writer_alive: bool, metrics: &ServeMetrics) -> bool {
        let faults = metrics.fault_signal();
        let mut s = lock_recovering(&self.state, Some(metrics));
        if s.open {
            let healthy = writer_alive && faults == s.last_faults;
            s.last_faults = faults;
            if healthy {
                s.healthy_streak += 1;
            } else {
                s.healthy_streak = 0;
            }
            if s.healthy_streak >= self.cfg.rearm_healthy {
                s.open = false;
                s.healthy_streak = 0;
                s.window_decisions = 0;
                s.window_start_faults = faults;
                metrics.record_breaker_rearm();
                return false;
            }
            return true;
        }
        if !writer_alive {
            trip(&mut s, faults, TripReason::WriterDown, metrics);
            return true;
        }
        s.window_decisions += 1;
        if s.window_decisions >= self.cfg.window {
            let delta = faults.saturating_sub(s.window_start_faults);
            s.window_decisions = 0;
            s.window_start_faults = faults;
            if delta >= self.cfg.trip_faults {
                trip(&mut s, faults, TripReason::FaultSlope { delta }, metrics);
                return true;
            }
        }
        false
    }

    /// Reports a completed gate evaluation. A non-finite or oversized
    /// confidence radius on real data (`n > 1`) means the estimator has
    /// collapsed — the incumbent's pedigree is no longer trustworthy, so
    /// the breaker trips.
    pub fn note_gate(&self, n: usize, candidate_radius: f64, metrics: &ServeMetrics) {
        let collapsed =
            n > 1 && !(candidate_radius.is_finite() && candidate_radius <= MAX_GATE_RADIUS);
        if collapsed {
            let mut s = lock_recovering(&self.state, Some(metrics));
            if !s.open {
                trip(
                    &mut s,
                    metrics.fault_signal(),
                    TripReason::GateCollapsed {
                        radius: candidate_radius,
                    },
                    metrics,
                );
            }
        }
    }

    /// Re-bases the fault-slope window on the current fault signal. A warm
    /// restart restores the previous incarnation's fault counters in one
    /// step; without a rebase the breaker's first window would read that
    /// entire history as a single-window rise and trip spuriously. Resets
    /// only the window accounting — a breaker is born closed, and whether
    /// it should re-open is judged on post-restart evidence.
    pub fn rebase(&self, metrics: &ServeMetrics) {
        let faults = metrics.fault_signal();
        let mut s = lock_recovering(&self.state, Some(metrics));
        s.window_decisions = 0;
        s.window_start_faults = faults;
        s.last_faults = faults;
    }

    /// Reports a trainer crash: trips the breaker unconditionally.
    pub fn note_trainer_crash(&self, metrics: &ServeMetrics) {
        let mut s = lock_recovering(&self.state, Some(metrics));
        if !s.open {
            trip(
                &mut s,
                metrics.fault_signal(),
                TripReason::TrainerCrash,
                metrics,
            );
        }
    }
}

fn trip(s: &mut BreakerState, faults: u64, reason: TripReason, metrics: &ServeMetrics) {
    s.open = true;
    s.healthy_streak = 0;
    s.last_faults = faults;
    s.last_trip = Some(reason);
    metrics.record_breaker_trip();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn breaker(window: u64, trip_faults: u64, rearm: u64) -> (CircuitBreaker, Arc<ServeMetrics>) {
        (
            CircuitBreaker::new(BreakerConfig {
                window,
                trip_faults,
                rearm_healthy: rearm,
            }),
            Arc::new(ServeMetrics::new()),
        )
    }

    #[test]
    fn stays_closed_while_healthy() {
        let (b, m) = breaker(4, 2, 8);
        for _ in 0..100 {
            assert!(!b.on_decision(true, &m));
        }
        assert_eq!(m.snapshot().breaker_trips, 0);
    }

    #[test]
    fn trips_on_fault_slope_and_rearms_after_sustained_health() {
        let (b, m) = breaker(4, 2, 8);
        assert!(!b.on_decision(true, &m));
        m.record_dropped();
        m.record_quarantined(1);
        // The window closes on the 4th decision and sees a delta of 2.
        assert!(!b.on_decision(true, &m));
        assert!(!b.on_decision(true, &m));
        assert!(b.on_decision(true, &m), "breaker should trip at window end");
        assert!(b.is_open());
        assert_eq!(m.snapshot().breaker_trips, 1);
        // 7 healthy decisions keep it open; the 8th re-arms.
        for _ in 0..7 {
            assert!(b.on_decision(true, &m));
        }
        assert!(!b.on_decision(true, &m), "8th healthy decision re-arms");
        assert!(!b.is_open());
        assert_eq!(m.snapshot().breaker_rearms, 1);
    }

    #[test]
    fn a_new_fault_resets_the_healthy_streak() {
        let (b, m) = breaker(2, 1, 4);
        m.record_dropped();
        b.on_decision(true, &m);
        assert!(b.on_decision(true, &m) || b.is_open());
        for _ in 0..3 {
            assert!(b.on_decision(true, &m));
        }
        m.record_dropped(); // fault mid-recovery: streak resets
        assert!(b.on_decision(true, &m));
        for _ in 0..3 {
            assert!(b.on_decision(true, &m));
        }
        assert!(!b.on_decision(true, &m), "full streak after the reset");
    }

    #[test]
    fn dead_writer_trips_immediately_and_blocks_rearm() {
        let (b, m) = breaker(64, 1000, 4);
        assert!(b.on_decision(false, &m));
        assert!(b.is_open());
        // Health never accrues while the writer stays dead.
        for _ in 0..50 {
            assert!(b.on_decision(false, &m));
        }
        assert_eq!(m.snapshot().breaker_rearms, 0);
    }

    #[test]
    fn collapsed_gate_radius_trips_but_bootstrap_noise_does_not() {
        let (b, m) = breaker(64, 1000, 4);
        // n ≤ 1 is bootstrap noise (no finite radius exists yet): no trip.
        b.note_gate(0, f64::INFINITY, &m);
        b.note_gate(1, f64::NAN, &m);
        assert!(!b.is_open());
        // A real dataset with a collapsed CI trips.
        b.note_gate(500, f64::INFINITY, &m);
        assert!(b.is_open());
        assert_eq!(m.snapshot().breaker_trips, 1);
        // A second report while open does not double-trip.
        b.note_gate(500, 1e9, &m);
        assert_eq!(m.snapshot().breaker_trips, 1);
    }

    #[test]
    fn a_finite_gate_radius_trips_only_above_the_ceiling() {
        let (b, m) = breaker(64, 1000, 4);
        b.note_gate(500, 100.0, &m);
        assert!(!b.is_open(), "a radius of exactly the ceiling is healthy");
        b.note_gate(500, 100.5, &m);
        assert!(b.is_open());
        assert_eq!(
            b.last_trip(),
            Some(TripReason::GateCollapsed { radius: 100.5 })
        );
    }

    #[test]
    fn trainer_crash_trips() {
        let (b, m) = breaker(64, 1000, 4);
        b.note_trainer_crash(&m);
        assert!(b.is_open());
        assert_eq!(m.snapshot().breaker_trips, 1);
        assert_eq!(b.last_trip(), Some(TripReason::TrainerCrash));
    }

    #[test]
    fn trip_reasons_are_recorded_and_survive_rearm() {
        let (b, m) = breaker(2, 1, 2);
        assert_eq!(b.last_trip(), None);
        assert!(b.on_decision(false, &m));
        assert_eq!(b.last_trip(), Some(TripReason::WriterDown));
        assert!(b.on_decision(true, &m));
        assert!(!b.on_decision(true, &m), "second healthy decision re-arms");
        assert_eq!(
            b.last_trip(),
            Some(TripReason::WriterDown),
            "reason survives re-arm"
        );
        b.note_gate(500, f64::INFINITY, &m);
        assert!(matches!(
            b.last_trip(),
            Some(TripReason::GateCollapsed { .. })
        ));
    }

    #[test]
    fn rebase_absorbs_restored_fault_counters() {
        let (b, m) = breaker(4, 2, 8);
        // A warm restart restores a fault-heavy history in one step …
        for _ in 0..10 {
            m.record_dropped();
        }
        b.rebase(&m);
        // … which a rebased breaker does not read as a fresh fault slope.
        for _ in 0..20 {
            assert!(!b.on_decision(true, &m));
        }
        assert_eq!(m.snapshot().breaker_trips, 0);
        // New faults after the rebase still trip normally.
        m.record_dropped();
        m.record_dropped();
        for _ in 0..4 {
            b.on_decision(true, &m);
        }
        assert!(b.is_open());
    }

    #[test]
    fn trip_reasons_render_for_operators() {
        assert_eq!(
            TripReason::FaultSlope { delta: 9 }.to_string(),
            "fault_slope(delta=9)"
        );
        assert_eq!(TripReason::WriterDown.to_string(), "writer_down");
        assert_eq!(TripReason::TrainerCrash.to_string(), "trainer_crash");
        assert_eq!(
            TripReason::GateCollapsed { radius: 1.5 }.to_string(),
            "gate_collapsed(radius=1.5)"
        );
    }
}
