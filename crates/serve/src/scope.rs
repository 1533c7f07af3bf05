//! harvest-scope: the windowed time-series ops plane.
//!
//! A [`HarvestScope`] sits beside the service and is *ticked* at
//! deterministic points of the logical clock. Each tick:
//!
//! 1. drains the writer's stage journal (decision stamp + terminal
//!    class) and folds `tick_now − decided_ns` into per-stage
//!    cumulative latency histograms — decide→write, decide→drop,
//!    decide→quarantine. Asynchronous writer progress is invisible in
//!    logical time, so measuring at the tick is the deterministic
//!    substitute for wall-clock stage spans;
//! 2. snapshots the service counters, quality gauges, and stage
//!    histograms into one cumulative [`SeriesSample`] and feeds the
//!    [`WindowSeries`], sealing any windows the clock has passed;
//! 3. evaluates the watchdogs over each sealed window — an **SLO
//!    burn-rate** over the shed/dropped/quarantined share of offered
//!    work, and a **harvest-quality** floor over `min(ess_fraction,
//!    1 − floor_hit_rate)` — with hysteresis on both edges (two windows
//!    to fire, two to clear), raising typed [`AlertEvent`]s and
//!    (optionally) feeding the breaker's fault signal via
//!    [`ServeMetrics::record_watchdog_fault`](crate::metrics::ServeMetrics::record_watchdog_fault).
//!
//! Everything here is a pure function of the `(tick, sample)` sequence,
//! which is a pure function of the seed: same-seed runs export
//! byte-identical window series, alert states, and event logs — and the
//! wire OPS endpoint serves exactly these bytes.

use harvest_obs::{
    AlertEvent, BreachDirection, Histogram, ObsAlert, PromText, SeriesConfig, SeriesExport,
    SeriesSample, Terminal, Watchdog, WatchdogConfig, WindowSeries,
};

use crate::metrics::ServeMetrics;

/// Consecutive breaching windows before a watchdog fires.
const FIRE_AFTER: u32 = 2;

/// Consecutive healthy windows before a firing watchdog clears.
const CLEAR_AFTER: u32 = 2;

/// Sizing, cadence, and watchdog thresholds for the scope.
///
/// Construct via [`ScopeConfig::builder`] or [`ScopeConfig::default`];
/// `#[non_exhaustive]` so new knobs can ship without breaking callers.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ScopeConfig {
    /// Window width in logical nanoseconds; the series treats 0 as 1.
    pub window_ns: u64,
    /// Window frames retained in the ring; the series treats 0 as 1.
    pub windows: usize,
    /// SLO burn-rate threshold: the watchdog breaches when
    /// `(dropped + quarantined + shed) / (decisions + shed)` over a
    /// window reaches this fraction.
    pub slo_threshold: f64,
    /// Harvest-quality floor: the watchdog breaches when
    /// `min(ess_fraction, 1 − floor_hit_rate)` drops to this value or
    /// below. Windows with no trained round yet are skipped (streaks
    /// hold), so the alert never fires on absence of evidence.
    pub quality_threshold: f64,
    /// When `true`, each watchdog *firing* bumps the metrics'
    /// `watchdog_faults` counter, which the circuit breaker's fault
    /// signal includes — a sustained SLO burn can then trip the breaker
    /// even when the raw fault counters alone would not.
    pub feed_breaker: bool,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            window_ns: 1_000_000_000,
            windows: 64,
            slo_threshold: 0.2,
            quality_threshold: 0.2,
            feed_breaker: false,
        }
    }
}

impl ScopeConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> ScopeConfigBuilder {
        ScopeConfigBuilder(ScopeConfig::default())
    }
}

/// Builder for [`ScopeConfig`].
#[derive(Debug, Clone)]
pub struct ScopeConfigBuilder(ScopeConfig);

impl ScopeConfigBuilder {
    /// Window width in logical nanoseconds (0 is treated as 1).
    pub fn window_ns(mut self, window_ns: u64) -> Self {
        self.0.window_ns = window_ns;
        self
    }

    /// Window frames retained in the ring (0 is treated as 1).
    pub fn windows(mut self, windows: usize) -> Self {
        self.0.windows = windows;
        self
    }

    /// SLO burn-rate threshold in [0, 1].
    pub fn slo_threshold(mut self, threshold: f64) -> Self {
        self.0.slo_threshold = threshold;
        self
    }

    /// Harvest-quality floor in [0, 1].
    pub fn quality_threshold(mut self, threshold: f64) -> Self {
        self.0.quality_threshold = threshold;
        self
    }

    /// Wire watchdog firings into the breaker's fault signal.
    pub fn feed_breaker(mut self, feed: bool) -> Self {
        self.0.feed_breaker = feed;
        self
    }

    /// Returns the config.
    pub fn build(self) -> ScopeConfig {
        self.0
    }
}

/// The ops plane: window series + stage timeline + watchdogs. One per
/// service, ticked behind a mutex (ticks are control-plane cadence, not
/// hot path).
pub struct HarvestScope {
    feed_breaker: bool,
    series: WindowSeries,
    /// Cumulative decide→terminal latency histograms, fed from the
    /// stage journal at each tick. Cumulative so the series engine can
    /// slice exact per-window deltas.
    stage_write_ns: Histogram,
    stage_drop_ns: Histogram,
    stage_quarantine_ns: Histogram,
    slo: Watchdog,
    quality: Watchdog,
    /// Every fire/clear event since construction, in tick order.
    events: Vec<AlertEvent>,
}

impl HarvestScope {
    /// A fresh scope under `cfg`.
    pub fn new(cfg: &ScopeConfig) -> Self {
        HarvestScope {
            feed_breaker: cfg.feed_breaker,
            series: WindowSeries::new(SeriesConfig {
                window_ns: cfg.window_ns,
                capacity: cfg.windows,
            }),
            stage_write_ns: Histogram::new(),
            stage_drop_ns: Histogram::new(),
            stage_quarantine_ns: Histogram::new(),
            slo: Watchdog::new(
                "slo_burn_rate",
                WatchdogConfig {
                    threshold: cfg.slo_threshold,
                    direction: BreachDirection::Above,
                    fire_after: FIRE_AFTER,
                    clear_after: CLEAR_AFTER,
                },
            ),
            quality: Watchdog::new(
                "harvest_quality",
                WatchdogConfig {
                    threshold: cfg.quality_threshold,
                    direction: BreachDirection::Below,
                    fire_after: FIRE_AFTER,
                    clear_after: CLEAR_AFTER,
                },
            ),
            events: Vec::new(),
        }
    }

    /// One ops-plane tick at logical time `now_ns`: drain the stage
    /// journal, observe the window series, evaluate watchdogs over any
    /// sealed windows, and return the alert events raised (in order).
    ///
    /// For byte-identical stage histograms across same-seed runs, tick
    /// after the pipeline has drained (`log_backlog == 0`) — the
    /// journal's content is then a pure function of the call sequence.
    pub fn tick(
        &mut self,
        now_ns: u64,
        metrics: &ServeMetrics,
        breaker_open: bool,
    ) -> Vec<AlertEvent> {
        // Stage timeline: journaled terminals become decide→terminal
        // latencies, measured at this deterministic tick point.
        if let Some(obs) = metrics.obs() {
            for (decided_ns, terminal) in obs.drain_stage_journal() {
                let span = now_ns.saturating_sub(decided_ns);
                match terminal {
                    Terminal::Written => self.stage_write_ns.record(span),
                    Terminal::Dropped => self.stage_drop_ns.record(span),
                    Terminal::Quarantined => self.stage_quarantine_ns.record(span),
                }
            }
        }

        let snap = metrics.snapshot();
        let mut sample = SeriesSample::new();
        snap.series_counters(&mut sample);
        sample.gauge("breaker_open", if breaker_open { 1.0 } else { 0.0 });
        let quality = metrics.obs().and_then(|o| o.quality());
        match quality {
            Some(q) => {
                sample
                    .gauge("quality_present", 1.0)
                    .gauge("ess_fraction", q.ess_fraction)
                    .gauge("floor_hit_rate", q.floor_hit_rate);
            }
            None => {
                sample.gauge("quality_present", 0.0);
            }
        }
        sample
            .hist("stage_write_ns", self.stage_write_ns.clone())
            .hist("stage_drop_ns", self.stage_drop_ns.clone())
            .hist("stage_quarantine_ns", self.stage_quarantine_ns.clone());
        if let Some(obs) = metrics.obs() {
            sample
                .hist("join_delay_ns", obs.join_delay_histogram())
                .hist("gate_span_ns", obs.gate_span_histogram());
        }

        let sealed = self.series.observe(now_ns, sample);
        let mut raised = Vec::new();
        for frame in &sealed {
            // SLO burn: the shed-or-lost share of offered work. An
            // empty window is healthy (a rate over nothing burns
            // nothing).
            let lost = frame.counter("log_dropped")
                + frame.counter("log_quarantined")
                + frame.counter("admission_shed");
            let offered = frame.counter("decisions") + frame.counter("admission_shed");
            let burn = if offered == 0 {
                0.0
            } else {
                lost as f64 / offered as f64
            };
            if let Some(ev) = self.slo.observe(frame.window, burn) {
                raised.push(ev);
            }
            // Harvest quality: evaluated only once a round has
            // published gauges — no evidence, no verdict.
            if frame.gauge("quality_present") == Some(1.0) {
                let ess = frame.gauge("ess_fraction").unwrap_or(0.0);
                let floor = frame.gauge("floor_hit_rate").unwrap_or(0.0);
                let q = ess.min(1.0 - floor);
                if let Some(ev) = self.quality.observe(frame.window, q) {
                    raised.push(ev);
                }
            }
        }
        for ev in &raised {
            if self.feed_breaker && ev.phase == harvest_obs::AlertPhase::Fired {
                metrics.record_watchdog_fault();
            }
            self.events.push(ev.clone());
        }
        raised
    }

    /// The window series ring as a serializable export.
    pub fn series_export(&self) -> SeriesExport {
        self.series.export()
    }

    /// The window series as deterministic JSON.
    pub fn series_export_json(&self) -> String {
        self.series.export_json()
    }

    /// Current state of every watchdog, in declaration order.
    pub fn alerts(&self) -> Vec<ObsAlert> {
        vec![self.slo.state(), self.quality.state()]
    }

    /// Watchdog states as deterministic JSON.
    pub fn alerts_json(&self) -> String {
        serde_json::to_string(&self.alerts()).expect("alert states serialize")
    }

    /// Every fire/clear event so far, one JSON object per line.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&serde_json::to_string(ev).expect("alert event serializes"));
            out.push('\n');
        }
        out
    }

    /// Alert fire/clear events recorded so far.
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Appends the scope's Prometheus families to a page under
    /// construction: alert gauges and lifecycle counters, the stage
    /// latency histograms, and the series-ring eviction counter.
    pub fn append_prometheus(&self, p: &mut PromText) {
        let alerts = self.alerts();
        let firing: Vec<(&str, f64)> = alerts
            .iter()
            .map(|a| (a.alert.as_str(), if a.firing { 1.0 } else { 0.0 }))
            .collect();
        let firing_rows: Vec<([(&str, &str); 1], f64)> = firing
            .iter()
            .map(|&(name, v)| ([("alert", name)], v))
            .collect();
        let firing_refs: Vec<(&[(&str, &str)], f64)> =
            firing_rows.iter().map(|(l, v)| (&l[..], *v)).collect();
        p.gauge_family(
            "harvest_alert_firing",
            "1 while the named watchdog alert is firing.",
            &firing_refs,
        );
        let fired_rows: Vec<([(&str, &str); 1], u64)> = alerts
            .iter()
            .map(|a| ([("alert", a.alert.as_str())], a.fired_total))
            .collect();
        let fired_refs: Vec<(&[(&str, &str)], u64)> =
            fired_rows.iter().map(|(l, v)| (&l[..], *v)).collect();
        p.counter_family(
            "harvest_alert_fired_total",
            "Times the named watchdog alert fired.",
            &fired_refs,
        );
        let cleared_rows: Vec<([(&str, &str); 1], u64)> = alerts
            .iter()
            .map(|a| ([("alert", a.alert.as_str())], a.cleared_total))
            .collect();
        let cleared_refs: Vec<(&[(&str, &str)], u64)> =
            cleared_rows.iter().map(|(l, v)| (&l[..], *v)).collect();
        p.counter_family(
            "harvest_alert_cleared_total",
            "Times the named watchdog alert cleared.",
            &cleared_refs,
        );
        p.histogram(
            "harvest_stage_write_latency_ns",
            "Decide-to-written stage latency, logical ns, measured at scope ticks.",
            &self.stage_write_ns,
        );
        p.histogram(
            "harvest_stage_drop_latency_ns",
            "Decide-to-dropped stage latency, logical ns, measured at scope ticks.",
            &self.stage_drop_ns,
        );
        p.histogram(
            "harvest_stage_quarantine_latency_ns",
            "Decide-to-quarantined stage latency, logical ns, measured at scope ticks.",
            &self.stage_quarantine_ns,
        );
        p.counter(
            "harvest_scope_frames_evicted_total",
            "Window frames evicted from the series ring.",
            self.series.evicted(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ServeObs;
    use harvest_obs::AlertPhase;
    use std::sync::Arc;

    fn scoped_metrics() -> ServeMetrics {
        ServeMetrics::with_obs(Arc::new(ServeObs::new()))
    }

    #[test]
    fn stage_journal_becomes_latency_histograms() {
        let m = scoped_metrics();
        let obs = Arc::clone(m.obs().unwrap());
        obs.journal_stage_terminals([100, 300], Terminal::Written);
        obs.journal_stage_terminals([200], Terminal::Dropped);
        let cfg = ScopeConfig::builder().window_ns(1_000).build();
        let mut scope = HarvestScope::new(&cfg);
        scope.tick(1_000, &m, false);
        assert_eq!(scope.stage_write_ns.count(), 2);
        assert_eq!(scope.stage_write_ns.sum(), 900 + 700);
        assert_eq!(scope.stage_drop_ns.count(), 1);
        // Journal drained: the next tick adds nothing.
        scope.tick(2_000, &m, false);
        assert_eq!(scope.stage_write_ns.count(), 2);
    }

    #[test]
    fn slo_watchdog_fires_and_clears_with_hysteresis() {
        let m = scoped_metrics();
        let cfg = ScopeConfig::builder()
            .window_ns(100)
            .slo_threshold(0.5)
            .build();
        let mut scope = HarvestScope::new(&cfg);
        // Two burning windows (every offered record dropped), then
        // healthy ones.
        let mut events = Vec::new();
        for w in 1..=6u64 {
            if w <= 2 {
                m.record_decision(w * 100 - 50, false);
                m.record_enqueued();
                m.record_dropped();
            } else {
                m.record_decision(w * 100 - 50, false);
                m.record_enqueued();
                m.record_written();
            }
            events.extend(scope.tick(w * 100, &m, false));
        }
        let phases: Vec<AlertPhase> = events.iter().map(|e| e.phase).collect();
        assert_eq!(phases, vec![AlertPhase::Fired, AlertPhase::Cleared]);
        assert_eq!(events[0].alert, "slo_burn_rate");
        // Fired after window 2 (second breach), cleared after two
        // healthy windows.
        assert!(events[1].window >= events[0].window + 2);
        let alerts = scope.alerts();
        assert!(!alerts[0].firing);
        assert_eq!(alerts[0].fired_total, 1);
        assert_eq!(alerts[0].cleared_total, 1);
    }

    #[test]
    fn quality_watchdog_skips_windows_without_a_round() {
        let m = scoped_metrics();
        let cfg = ScopeConfig::builder()
            .window_ns(100)
            .quality_threshold(0.5)
            .build();
        let mut scope = HarvestScope::new(&cfg);
        // No quality published: windows seal, watchdog stays silent.
        for w in 1..=3u64 {
            assert!(scope.tick(w * 100, &m, false).is_empty());
        }
        assert!(!scope.alerts()[1].firing);
        // Publish a collapsed-quality round: fires once two sealed
        // windows carry it.
        let mut q = harvest_estimators::HarvestQuality::empty();
        q.ess_fraction = 0.1;
        q.floor_hit_rate = 0.0;
        m.obs().unwrap().set_quality(q);
        // The t=400 observation carries the gauges into window 4; the
        // next two ticks seal windows 4 and 5, and the watchdog fires on
        // the second breach.
        assert!(scope.tick(400, &m, false).is_empty());
        assert!(scope.tick(500, &m, false).is_empty());
        let events = scope.tick(600, &m, false);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].alert, "harvest_quality");
        assert_eq!(events[0].phase, AlertPhase::Fired);
    }

    #[test]
    fn feed_breaker_bumps_the_fault_signal_on_fire_only() {
        let m = scoped_metrics();
        let cfg = ScopeConfig::builder()
            .window_ns(100)
            .slo_threshold(0.5)
            .feed_breaker(true)
            .build();
        let mut scope = HarvestScope::new(&cfg);
        // Two burning windows (every offered record dropped), then two
        // healthy ones. Each tick seals the window before it.
        let mut signal = Vec::new();
        for w in 1..=5u64 {
            m.record_decision(w * 100 - 50, false);
            m.record_enqueued();
            if w <= 2 {
                m.record_dropped();
            } else {
                m.record_written();
            }
            scope.tick(w * 100, &m, false);
            signal.push(m.fault_signal());
        }
        // Sealing the second burning window (t=300) fires: two drops plus
        // one watchdog firing. The clear (t=500) does not bump it.
        assert_eq!(signal, vec![1, 2, 3, 3, 3]);
        assert!(!scope.alerts()[0].firing);
        assert_eq!(scope.alerts()[0].cleared_total, 1);
    }

    #[test]
    fn exports_are_deterministic_and_prometheus_validates() {
        let run = || {
            let m = scoped_metrics();
            let cfg = ScopeConfig::builder().window_ns(100).build();
            let mut scope = HarvestScope::new(&cfg);
            // Windows 2 and 3 burn: the SLO alert fires, then clears.
            for w in 1..=6u64 {
                m.record_decision(w * 100 - 10, w % 2 == 0);
                m.record_enqueued();
                if w == 2 || w == 3 {
                    m.record_dropped();
                } else {
                    m.record_written();
                }
                m.obs()
                    .unwrap()
                    .journal_stage_terminals([w * 100 - 10], Terminal::Written);
                scope.tick(w * 100, &m, false);
            }
            let mut p = PromText::new();
            scope.append_prometheus(&mut p);
            (
                scope.series_export_json(),
                scope.alerts_json(),
                scope.events_jsonl(),
                p.finish(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        harvest_obs::validate_exposition(&a.3).expect("scope prometheus page validates");
        assert_eq!(a.2.lines().count(), 2, "one fire and one clear event");
        assert!(a
            .3
            .contains("harvest_alert_firing{alert=\"slo_burn_rate\"}"));
        assert!(a.0.contains("\"window\":1"));
    }
}
