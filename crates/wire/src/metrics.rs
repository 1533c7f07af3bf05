//! Wire-layer telemetry: request counters, shed accounting, histograms.
//!
//! Same shape as `harvest-serve`'s metrics: relaxed atomics on the hot
//! path, a serializable point-in-time snapshot, and a deterministic
//! Prometheus exposition. The load-bearing piece is the **wire ledger**:
//!
//! ```text
//! decisions_requested == decisions_served + shed_rate_limited
//!                                        + shed_queue_full
//!                                        + shed_deadline
//!                                        + decisions_errored
//! ```
//!
//! Every decision a client asks for is either served (possibly degraded,
//! with valid propensities) or explicitly shed with a reason — overload is
//! never allowed to become a silent gap or a protocol error. The ledger is
//! checkable from any snapshot because counters are bumped response-first:
//! a request is counted `requested` at admission, and exactly one of the
//! outcome counters fires before its response frame is encoded.
//!
//! Each counter is declared once, as a row of the `counter_table!` below
//! (DESIGN.md §20); the recorders here are the ones that touch more than
//! one counter or a histogram.

use std::sync::atomic::Ordering;

use harvest_obs::{AtomicHistogram, HistogramSummary, PromText};
use serde::Serialize;

const RELAXED: Ordering = Ordering::Relaxed;

harvest_obs::counter_table! {
    /// Shared atomic counters and histograms for the wire layer.
    pub struct WireMetrics {
        // Logical-time histograms (recorded from request stamps, so they are
        // deterministic under same-seed replay).
        queue_wait_ns: AtomicHistogram,
        request_latency_ns: AtomicHistogram,
        batch_sizes: AtomicHistogram,
    }

    /// A point-in-time reading of the wire counters: every counter row of
    /// the table, then the derived ledger fields and histogram digests.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct WireSnapshot {
        /// All sheds summed.
        pub shed_total: u64,
        /// Whether both ledgers held at read time: `requested == served +
        /// shed_total + errored` for decisions and `ops_requests ==
        /// ops_served + ops_shed` for scrapes.
        pub ledger_ok: bool,
        /// Logical queue-wait distribution.
        pub queue_wait_ns: HistogramSummary,
        /// Logical admission-to-response latency distribution.
        pub request_latency_ns: HistogramSummary,
        /// Decisions per batch frame.
        pub batch_sizes: HistogramSummary,
    }

    rows {
        // Request frames by type.
        ping_requests: "harvest_wire_ping_requests_total", "Ping frames received.", []
            => record_ping();
        decide_requests: "harvest_wire_decide_requests_total",
            "Single-decision frames received.", [];
        batch_requests: "harvest_wire_batch_requests_total", "Batch frames received.", [];
        reward_requests: "harvest_wire_reward_requests_total", "Reward frames received.", []
            => record_reward_request();
        // The decision ledger, in logical decisions (a batch counts its size).
        decisions_requested: "harvest_wire_decisions_requested_total",
            "Decisions asked for over the wire (batches count their size).", [];
        decisions_served: "harvest_wire_decisions_served_total",
            "Decisions answered with a valid propensity.", [];
        decisions_degraded: "harvest_wire_decisions_degraded_total",
            "Served decisions that came from the safe arm (breaker open).", [];
        shed_rate_limited: "harvest_wire_shed_rate_limited_total",
            "Decisions shed by per-connection rate limits.", []
            => record_shed_rate_limited(n);
        shed_queue_full: "harvest_wire_shed_queue_full_total",
            "Decisions shed by the pending-work budget.", []
            => record_shed_queue_full(n);
        shed_deadline: "harvest_wire_shed_deadline_total",
            "Decisions shed because their deadline lapsed in queue.", []
            => record_shed_deadline(n);
        decisions_errored: "harvest_wire_decisions_errored_total",
            "Decisions answered with an Error response.", [];
        // Rewards: forwarded to the joiner, or shed by the rate limit.
        rewards_forwarded: "harvest_wire_rewards_forwarded_total",
            "Rewards forwarded to the joiner.", []
            => record_reward_forwarded();
        rewards_shed: "harvest_wire_rewards_shed_total", "Rewards shed by rate limits.", []
            => record_reward_shed();
        // The ops-plane ledger, kept apart from the decision ledger: a
        // scrape is observability traffic, not a decision, so scrape sheds
        // must not perturb the SLO burn-rate signal computed over decision
        // counters.
        ops_requests: "harvest_wire_ops_requests_total", "Ops scrape frames received.", []
            => record_ops_request();
        ops_served: "harvest_wire_ops_served_total",
            "Ops scrapes answered with a rendered report.", []
            => record_ops_served();
        ops_shed: "harvest_wire_ops_shed_total", "Ops scrapes refused by admission.", []
            => record_ops_shed();
        // Protocol health.
        frames_corrupt: "harvest_wire_frames_corrupt_total",
            "Corrupt frames (each closes its connection).", []
            => record_corrupt_frame();
        protocol_errors: "harvest_wire_protocol_errors_total",
            "Error responses to invalid requests (never overload).", []
            => record_protocol_error();
        responses_sent: "harvest_wire_responses_total", "Response frames sent.", []
            => record_response();
    }
}

impl WireMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        WireMetrics::default()
    }

    /// Counts one decide frame asking for one decision.
    pub fn record_decide_request(&self) {
        self.decide_requests.fetch_add(1, RELAXED);
        self.decisions_requested.fetch_add(1, RELAXED);
    }

    /// Counts one batch frame asking for `n` decisions.
    pub fn record_batch_request(&self, n: u64) {
        self.batch_requests.fetch_add(1, RELAXED);
        self.decisions_requested.fetch_add(n, RELAXED);
        self.batch_sizes.record(n);
    }

    /// Counts `n` decisions served, `degraded` of them by the safe arm.
    pub fn record_served(&self, n: u64, degraded: u64) {
        self.decisions_served.fetch_add(n, RELAXED);
        if degraded > 0 {
            self.decisions_degraded.fetch_add(degraded, RELAXED);
        }
    }

    /// Counts `n` decisions answered with an `Error` response (invalid
    /// shard, internal failure) — still ledgered, never silently lost.
    pub fn record_errored(&self, n: u64) {
        self.decisions_errored.fetch_add(n, RELAXED);
        self.protocol_errors.fetch_add(1, RELAXED);
    }

    /// Records how long a request sat queued, in logical ns.
    pub fn record_queue_wait(&self, ns: u64) {
        self.queue_wait_ns.record(ns);
    }

    /// Records a request's admission-to-response logical latency.
    pub fn record_request_latency(&self, ns: u64) {
        self.request_latency_ns.record(ns);
    }

    /// Total decisions shed, across all three reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_rate_limited.load(RELAXED)
            + self.shed_queue_full.load(RELAXED)
            + self.shed_deadline.load(RELAXED)
    }

    /// Reads every counter at one instant.
    pub fn snapshot(&self) -> WireSnapshot {
        let mut s = self.load_counters();
        s.shed_total = s.shed_rate_limited + s.shed_queue_full + s.shed_deadline;
        s.ledger_ok = s.decisions_requested
            == s.decisions_served + s.shed_total + s.decisions_errored
            && s.ops_requests == s.ops_served + s.ops_shed;
        s.queue_wait_ns = self.queue_wait_ns.snapshot().summary();
        s.request_latency_ns = self.request_latency_ns.snapshot().summary();
        s.batch_sizes = self.batch_sizes.snapshot().summary();
        s
    }

    /// Renders the `harvest_wire_*` Prometheus families. Deterministic:
    /// same counters, byte-identical page.
    pub fn export_prometheus(&self) -> String {
        let s = self.snapshot();
        let mut p = PromText::new();
        s.prometheus_counters(&mut p);
        p.gauge(
            "harvest_wire_ledger_ok",
            "1 when requested == served + shed + errored.",
            if s.ledger_ok { 1.0 } else { 0.0 },
        );
        p.histogram(
            "harvest_wire_queue_wait_ns",
            "Logical ns a request sat queued before processing.",
            &self.queue_wait_ns.snapshot(),
        );
        p.histogram(
            "harvest_wire_request_latency_ns",
            "Logical ns from admission to response.",
            &self.request_latency_ns.snapshot(),
        );
        p.histogram(
            "harvest_wire_batch_sizes",
            "Decisions per batch frame.",
            &self.batch_sizes.snapshot(),
        );
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Every counter row, bumped by an arbitrary amount, renders as one
        // Prometheus family with its value and lands in the snapshot, and
        // `ledger_ok` is exactly the two ledger equations over those values.
        #[test]
        fn every_counter_row_reaches_every_export(adds in proptest::collection::vec(0u64..4, 32)) {
            let m = WireMetrics::new();
            let cells = m.counter_cells();
            prop_assert!(cells.len() <= adds.len());
            for ((_, _, cell), &n) in cells.iter().zip(&adds) {
                cell.fetch_add(n, RELAXED);
            }
            let page = m.export_prometheus();
            let s = m.snapshot();
            let snap = serde_json::to_value(&s);
            for ((field, prom, _), &n) in cells.iter().zip(&adds) {
                let samples: Vec<&str> = page
                    .lines()
                    .filter(|l| l.split(' ').next() == Some(*prom))
                    .collect();
                prop_assert_eq!(samples, vec![format!("{prom} {n}").as_str()]);
                prop_assert_eq!(snap.get(field).and_then(|v| v.as_u64()), Some(n));
            }
            let shed = s.shed_rate_limited + s.shed_queue_full + s.shed_deadline;
            prop_assert_eq!(s.shed_total, shed);
            prop_assert_eq!(
                s.ledger_ok,
                s.decisions_requested == s.decisions_served + shed + s.decisions_errored
                    && s.ops_requests == s.ops_served + s.ops_shed
            );
            let ledger_line = format!("harvest_wire_ledger_ok {}\n", u8::from(s.ledger_ok));
            prop_assert!(page.contains(&ledger_line));
        }
    }

    #[test]
    fn ledger_balances_when_every_request_is_accounted() {
        let m = WireMetrics::new();
        m.record_decide_request();
        m.record_batch_request(4);
        m.record_served(3, 1);
        m.record_shed_rate_limited(1);
        m.record_shed_queue_full(1);
        let s = m.snapshot();
        assert_eq!(s.decisions_requested, 5);
        assert_eq!(s.shed_total, 2);
        assert!(s.ledger_ok, "5 == 3 served + 2 shed");
        assert_eq!(s.decisions_degraded, 1);
    }

    #[test]
    fn ledger_flags_an_unaccounted_request() {
        let m = WireMetrics::new();
        m.record_decide_request();
        assert!(
            !m.snapshot().ledger_ok,
            "requested but neither served nor shed"
        );
        m.record_served(1, 0);
        assert!(m.snapshot().ledger_ok);
    }

    #[test]
    fn exposition_is_stable_and_carries_wire_families() {
        let m = WireMetrics::new();
        m.record_decide_request();
        m.record_served(1, 0);
        m.record_queue_wait(1_000);
        m.record_request_latency(2_000);
        let a = m.export_prometheus();
        let b = m.export_prometheus();
        assert_eq!(a, b, "same state must render byte-identically");
        for family in [
            "harvest_wire_decisions_requested_total 1",
            "harvest_wire_decisions_served_total 1",
            "harvest_wire_ledger_ok 1",
            "# TYPE harvest_wire_request_latency_ns histogram",
        ] {
            assert!(a.contains(family), "missing `{family}` in:\n{a}");
        }
    }
}
