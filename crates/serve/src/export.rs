//! Telemetry exporters: a JSON snapshot and Prometheus text exposition.
//!
//! Both renderings are **deterministic**: every number they carry derives
//! from logical time, seeded RNGs, and monotone counters, and both walk
//! their fields in a fixed order — so two same-seed runs produce
//! byte-identical pages. That property is asserted by integration tests and
//! is what makes the exposition diffable across runs: any byte that changes
//! is a behavior change, not noise.
//!
//! The JSON side ([`ObsSnapshot`]) is the machine-readable union of the
//! counter snapshot, the breaker's state *and last trip reason*, the latest
//! harvest-quality gauges from the promotion gate, histogram summaries, and
//! the tracer's conservation audit. The Prometheus side renders the same
//! facts in text exposition format for scrape-based collection; see
//! [`export_prometheus`] for the metric families emitted.

use harvest_estimators::{HarvestQuality, PortfolioReport};
use harvest_obs::{HistogramSummary, PromText, TraceAudit};
use serde::Serialize;

use crate::breaker::TripReason;
use crate::metrics::{MetricsSnapshot, ServeMetrics};

/// Point-in-time JSON-serializable view of everything the service can
/// report about itself. Histogram and trace fields are `None` when the
/// service was built without an observability bundle.
#[derive(Debug, Clone, Serialize)]
pub struct ObsSnapshot {
    /// Counter snapshot with derived rates.
    pub metrics: MetricsSnapshot,
    /// Whether the breaker is serving the safe policy right now.
    pub breaker_open: bool,
    /// Human-readable reason for the most recent trip, if any ever fired.
    pub breaker_last_trip: Option<String>,
    /// Harvest-quality gauges from the most recent completed gate round.
    pub quality: Option<HarvestQuality>,
    /// Ranked portfolio leaderboard from the most recent shadow-evaluation
    /// round.
    pub leaderboard: Option<PortfolioReport>,
    /// Per-shard logical inter-arrival gap between consecutive decisions.
    pub decision_interarrival_ns: Option<HistogramSummary>,
    /// Logical delay between a decision and its joined reward.
    pub join_delay_ns: Option<HistogramSummary>,
    /// Pending decisions in the deciding shard's joiner, sampled at every
    /// track call.
    pub join_queue_depth: Option<HistogramSummary>,
    /// Records per sealed log segment.
    pub segment_records: Option<HistogramSummary>,
    /// Bytes per sealed log segment.
    pub segment_bytes: Option<HistogramSummary>,
    /// The tracer's lifecycle-conservation audit.
    pub trace: Option<TraceAudit>,
}

/// Builds the JSON-serializable snapshot. `breaker_open` and `last_trip`
/// come from the breaker because the metrics handle does not know them.
pub fn obs_snapshot(
    metrics: &ServeMetrics,
    breaker_open: bool,
    last_trip: Option<TripReason>,
) -> ObsSnapshot {
    let obs = metrics.obs();
    ObsSnapshot {
        metrics: metrics.snapshot(),
        breaker_open,
        breaker_last_trip: last_trip.map(|r| r.to_string()),
        quality: obs.and_then(|o| o.quality()),
        leaderboard: obs.and_then(|o| o.leaderboard()),
        decision_interarrival_ns: obs.map(|o| o.interarrival_histogram().summary()),
        join_delay_ns: obs.map(|o| o.join_delay_histogram().summary()),
        join_queue_depth: obs.map(|o| o.join_queue_depth_histogram().summary()),
        segment_records: obs.map(|o| o.segment_records_histogram().summary()),
        segment_bytes: obs.map(|o| o.segment_bytes_histogram().summary()),
        trace: obs.map(|o| o.tracer().audit()),
    }
}

/// Numeric code for the last trip reason, for the scrape side (labels are
/// out of scope for the minimal exposition writer): 0 = never tripped,
/// 1 = fault slope, 2 = writer down, 3 = trainer crash, 4 = gate collapsed.
fn trip_code(last_trip: Option<TripReason>) -> f64 {
    match last_trip {
        None => 0.0,
        Some(TripReason::FaultSlope { .. }) => 1.0,
        Some(TripReason::WriterDown) => 2.0,
        Some(TripReason::TrainerCrash) => 3.0,
        Some(TripReason::GateCollapsed { .. }) => 4.0,
    }
}

/// Renders the full Prometheus text exposition page.
///
/// Families: one `harvest_*_total` counter per row of the metrics counter
/// table (so every [`MetricsSnapshot`] counter), derived-rate and breaker
/// gauges
/// (`harvest_log_conservation_ok` is 1 when the drained ledger balances),
/// `harvest_quality_*` gauges (zeros until the first gate round),
/// `harvest_trace_*` conservation-audit counters, and the
/// observability histograms.
///
/// A service that carries a [`HarvestScope`](crate::scope::HarvestScope)
/// appends its alert and stage-latency families before finishing the page
/// (see `DecisionService::export_prometheus`); this free function renders
/// the scope-less base page.
pub fn export_prometheus(
    metrics: &ServeMetrics,
    breaker_open: bool,
    last_trip: Option<TripReason>,
) -> String {
    prometheus_page(metrics, breaker_open, last_trip).finish()
}

/// The base exposition page as a builder still open for appending — the
/// scope-carrying service adds its families before `finish()` so the
/// in-process page and the wire OPS scrape render from one code path.
pub(crate) fn prometheus_page(
    metrics: &ServeMetrics,
    breaker_open: bool,
    last_trip: Option<TripReason>,
) -> PromText {
    let s = metrics.snapshot();
    let mut p = PromText::new();
    s.prometheus_counters(&mut p);
    p.gauge(
        "harvest_checkpoint_age_ns",
        "Logical ns between the last decision and the last checkpoint.",
        s.checkpoint_age_ns as f64,
    );
    p.gauge(
        "harvest_exploration_rate",
        "explorations / decisions.",
        s.exploration_rate,
    );
    p.gauge(
        "harvest_decisions_per_logical_sec",
        "Decisions per logical second of stamped time.",
        s.decisions_per_sec,
    );
    p.gauge(
        "harvest_join_hit_rate",
        "hits / all join attempts.",
        s.join_hit_rate,
    );
    p.gauge(
        "harvest_log_backlog",
        "Records still queued for the writer.",
        s.log_backlog as f64,
    );
    p.gauge(
        "harvest_log_conservation_ok",
        "1 when enqueued == written + dropped + quarantined (drained).",
        if s.log_backlog == 0 { 1.0 } else { 0.0 },
    );
    p.gauge(
        "harvest_breaker_open",
        "1 while the breaker serves the safe policy.",
        if breaker_open { 1.0 } else { 0.0 },
    );
    p.gauge(
        "harvest_breaker_last_trip_code",
        "0 never, 1 fault slope, 2 writer down, 3 trainer crash, 4 gate collapsed.",
        trip_code(last_trip),
    );
    let obs = metrics.obs();
    // Quality gauges always present (zeros before the first gate round), so
    // scrapers and the CI grep see a stable set of families.
    let q = obs
        .and_then(|o| o.quality())
        .unwrap_or_else(HarvestQuality::empty);
    p.gauge(
        "harvest_quality_samples",
        "Harvested samples behind the latest gate round.",
        q.n as f64,
    );
    p.gauge(
        "harvest_quality_ess",
        "Kish effective sample size of the candidate's importance weights.",
        q.effective_sample_size,
    );
    p.gauge("harvest_quality_ess_fraction", "ESS / n.", q.ess_fraction);
    p.gauge(
        "harvest_quality_min_weight",
        "Smallest importance weight.",
        q.min_weight,
    );
    p.gauge(
        "harvest_quality_max_weight",
        "Largest importance weight.",
        q.max_weight,
    );
    p.gauge(
        "harvest_quality_clipped_weight_mass",
        "Share of importance mass above the diagnostic clip.",
        q.clipped_weight_mass,
    );
    p.gauge(
        "harvest_quality_floor_hit_rate",
        "Share of samples logged at the propensity floor.",
        q.floor_hit_rate,
    );
    p.gauge(
        "harvest_quality_drift_max_effect_size",
        "Largest per-feature effect size between harvest halves.",
        q.drift_max_effect_size,
    );
    p.gauge(
        "harvest_quality_drift_max_ks",
        "Largest per-feature KS statistic between harvest halves.",
        q.drift_max_ks,
    );
    p.gauge(
        "harvest_quality_drift_suspected",
        "1 when within-harvest drift breaches the A1 thresholds.",
        if q.drift_suspected { 1.0 } else { 0.0 },
    );
    // Portfolio gauges likewise always present (zeros before the first
    // shadow-evaluation round); a non-finite winner LCB renders as 0 so the
    // exposition stays parseable.
    let lb = obs.and_then(|o| o.leaderboard());
    let (lb_candidates, lb_samples, lb_winner_lcb, lb_winner_ess) =
        match lb.as_ref().and_then(|l| l.winner().map(|w| (l, w))) {
            Some((l, w)) => (
                l.entries.len() as f64,
                l.n as f64,
                if w.snips.lcb.is_finite() {
                    w.snips.lcb
                } else {
                    0.0
                },
                w.weights.ess(),
            ),
            None => (0.0, 0.0, 0.0, 0.0),
        };
    p.gauge(
        "harvest_portfolio_candidates",
        "Candidates scored by the latest shadow-evaluation round.",
        lb_candidates,
    );
    p.gauge(
        "harvest_portfolio_samples",
        "Samples behind the latest leaderboard.",
        lb_samples,
    );
    p.gauge(
        "harvest_portfolio_winner_lcb",
        "Leaderboard winner's SNIPS lower confidence bound (0 when not finite).",
        lb_winner_lcb,
    );
    p.gauge(
        "harvest_portfolio_winner_ess",
        "Leaderboard winner's effective sample size.",
        lb_winner_ess,
    );
    if let Some(o) = obs {
        let audit = o.tracer().audit();
        p.counter(
            "harvest_trace_decided_total",
            "Decision traces opened.",
            audit.decided,
        );
        p.counter(
            "harvest_trace_written_total",
            "Traces terminated written.",
            audit.written,
        );
        p.counter(
            "harvest_trace_dropped_total",
            "Traces terminated dropped.",
            audit.dropped,
        );
        p.counter(
            "harvest_trace_quarantined_total",
            "Traces terminated quarantined.",
            audit.quarantined,
        );
        p.counter(
            "harvest_trace_unterminated",
            "Traces still awaiting a terminal state.",
            audit.unterminated,
        );
        p.counter(
            "harvest_trace_joined_total",
            "Traces with a joined reward.",
            audit.joined,
        );
        p.counter(
            "harvest_trace_trained_total",
            "Traces whose record entered a training round.",
            audit.trained,
        );
        p.counter(
            "harvest_trace_evicted_total",
            "Traces evicted by ring-buffer FIFO capacity (canonical name).",
            audit.evictions,
        );
        p.counter(
            "harvest_trace_late_events_total",
            "Events that arrived after their trace was evicted.",
            audit.late_events,
        );
        p.counter(
            "harvest_trace_terminal_conflicts_total",
            "Traces offered two different terminal states.",
            audit.terminal_conflicts,
        );
        p.counter(
            "harvest_stage_journal_dropped_total",
            "Stage-journal entries dropped to the ring bound.",
            o.stage_journal_dropped(),
        );
        p.histogram(
            "harvest_trace_flush_depth",
            "Deferred-terminal events applied per tracer inbox flush.",
            &o.tracer().flush_depth_histogram(),
        );
        p.histogram(
            "harvest_gate_span_ns",
            "Logical span of each training round's harvest (gate to promote).",
            &o.gate_span_histogram(),
        );
        p.histogram(
            "harvest_decision_interarrival_ns",
            "Per-shard logical gap between consecutive decisions.",
            &o.interarrival_histogram(),
        );
        p.histogram(
            "harvest_join_delay_ns",
            "Logical delay between a decision and its joined reward.",
            &o.join_delay_histogram(),
        );
        p.histogram(
            "harvest_join_queue_depth",
            "Pending decisions in the deciding shard's joiner, sampled at every track call.",
            &o.join_queue_depth_histogram(),
        );
        p.histogram(
            "harvest_segment_records",
            "Records per sealed log segment.",
            &o.segment_records_histogram(),
        );
        p.histogram(
            "harvest_segment_bytes",
            "Bytes per sealed log segment.",
            &o.segment_bytes_histogram(),
        );
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ServeObs;
    use std::sync::Arc;

    #[test]
    fn snapshot_without_obs_has_no_histograms_but_serializes() {
        let m = ServeMetrics::new();
        let snap = obs_snapshot(&m, false, None);
        assert!(snap.trace.is_none());
        assert!(snap.quality.is_none());
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"breaker_open\":false"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn exposition_is_stable_and_carries_quality_families() {
        let m = ServeMetrics::with_obs(Arc::new(ServeObs::new()));
        m.record_decision(10, true);
        let page_a = export_prometheus(&m, false, None);
        let page_b = export_prometheus(&m, false, None);
        assert_eq!(page_a, page_b, "same state must render byte-identically");
        for family in [
            "harvest_decisions_total 1",
            "harvest_quality_ess 0",
            "harvest_portfolio_candidates 0",
            "harvest_portfolio_samples 0",
            "harvest_portfolio_winner_lcb 0",
            "harvest_portfolio_winner_ess 0",
            "harvest_log_conservation_ok 1",
            "harvest_trace_decided_total 0",
            "harvest_checkpoints_written_total 0",
            "harvest_checkpoints_discarded_total 0",
            "harvest_recovered_records_total 0",
            "harvest_replayed_joins_total 0",
            "harvest_restarts_total 0",
            "harvest_checkpoint_age_ns 0",
            "harvest_watchdog_faults_total 0",
            "harvest_trace_evicted_total 0",
            "harvest_stage_journal_dropped_total 0",
            "# TYPE harvest_trace_flush_depth histogram",
            "# TYPE harvest_gate_span_ns histogram",
            "# TYPE harvest_decision_interarrival_ns histogram",
        ] {
            assert!(page_a.contains(family), "missing `{family}` in:\n{page_a}");
        }
        harvest_obs::validate_exposition(&page_a).expect("base page validates");
    }

    #[test]
    fn trip_reason_reaches_both_exports() {
        let m = ServeMetrics::new();
        let snap = obs_snapshot(&m, true, Some(TripReason::WriterDown));
        assert_eq!(snap.breaker_last_trip.as_deref(), Some("writer_down"));
        let page = export_prometheus(&m, true, Some(TripReason::WriterDown));
        assert!(page.contains("harvest_breaker_open 1"));
        assert!(page.contains("harvest_breaker_last_trip_code 2"));
    }
}
