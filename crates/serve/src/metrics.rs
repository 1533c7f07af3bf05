//! Service health counters.
//!
//! Every counter is a relaxed atomic: the hot decision path pays one
//! `fetch_add` per event and never takes a lock. [`ServeMetrics::snapshot`]
//! reads them all at one instant into a plain struct with the derived rates
//! a dashboard would plot (exploration rate, join hit-rate, log backlog,
//! decision throughput).
//!
//! Each counter is declared once, as a row of the `counter_table!` below
//! (DESIGN.md §20): its atomic, recorder, snapshot field, checkpoint field
//! and Prometheus family are all generated from that row. Only the code
//! that touches more than one counter is written out here.
//!
//! Time is *logical*: callers stamp decisions with their own monotonic
//! nanosecond clock (the simulators use [`harvest_sim_net::time::SimTime`]),
//! so throughput is decisions per logical second and the whole service stays
//! deterministic — no wall-clock reads anywhere in the decision path.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use serde::Serialize;

use crate::obs::ServeObs;

const RELAXED: Ordering = Ordering::Relaxed;

harvest_obs::counter_table! {
    /// Shared atomic counters updated by the engine, logger, and joiner.
    #[derive(Debug)]
    pub struct ServeMetrics {
        /// Optional observability bundle (tracer + histograms). Riding inside
        /// the metrics handle means every component that already holds
        /// `Arc<ServeMetrics>` can emit trace events without new plumbing.
        obs: Option<Arc<ServeObs>>,
    }

    /// A point-in-time reading of the service counters: every counter row
    /// of the table, then the derived rates.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct MetricsSnapshot {
        /// `explorations / decisions`.
        pub exploration_rate: f64,
        /// Decisions per logical second (stamped-time span).
        pub decisions_per_sec: f64,
        /// Records still queued: `enqueued − written − dropped − quarantined`.
        pub log_backlog: u64,
        /// `hits / (hits + duplicates + late + unknown)`.
        pub join_hit_rate: f64,
        /// Logical nanoseconds from the newest checkpoint to the newest
        /// decision — the replay exposure a crash right now would incur. Zero
        /// until the first checkpoint is published.
        pub checkpoint_age_ns: u64,
    }

    /// The durable counter set carried inside a control-plane checkpoint:
    /// every row of the table, stamps included, but not the derived rates.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct MetricsState;

    rows {
        decisions: "harvest_decisions_total", "Decisions served.", [series];
        explorations: "harvest_explorations_total",
            "Decisions where the exploration branch fired.", [series];
        // The log ledger: `enqueued == written + dropped + quarantined`
        // once drained. A batch frame counts every decision it carries.
        log_enqueued: "harvest_log_enqueued_total",
            "Records offered to the log pipeline.", []
            => record_enqueued(), record_enqueued_n(n);
        log_written: "harvest_log_written_total",
            "Records persisted by the writer thread.", [series]
            => record_written(), record_written_n(n);
        log_dropped: "harvest_log_dropped_total",
            "Records dropped by backpressure, shutdown, or a dead writer.", [fault, series]
            => record_dropped(), record_dropped_n(n);
        log_quarantined: "harvest_log_quarantined_total",
            "Records lost to damage, counted never skipped.", [fault, series]
            => record_quarantined(n);
        join_hits: "harvest_join_hits_total", "Rewards joined within the TTL.", [series]
            => record_join_hit();
        join_duplicates: "harvest_join_duplicates_total", "Rewards refused as duplicates.", []
            => record_join_duplicate();
        join_late: "harvest_join_late_total", "Rewards refused as late.", [series]
            => record_join_late();
        join_unknown: "harvest_join_unknown_total",
            "Rewards whose decision was never tracked.", [series]
            => record_join_unknown();
        timed_out_decisions: "harvest_timed_out_decisions_total",
            "Tracked decisions whose TTL lapsed unrewarded.", [series]
            => record_timed_out();
        swaps: "harvest_swaps_total", "Policy hot-swaps.", [series] => record_swap();
        first_decision_ns: stamp = u64::MAX;
        last_decision_ns: stamp = 0;
        // Robustness counters: every fault the chaos harness can inject is
        // visible here, so "no silent data loss" is checkable from a
        // snapshot.
        lock_recoveries: "harvest_lock_recoveries_total",
            "Poisoned locks recovered instead of propagating the panic.", [fault]
            => record_lock_recovery();
        shard_wedges: "harvest_shard_wedges_total",
            "Wedged shard cells recovered at acquisition.", [fault]
            => record_shard_wedge();
        writer_restarts: "harvest_writer_restarts_total",
            "Writer-thread restarts by the supervisor.", [fault]
            => record_writer_restart();
        trainer_crashes: "harvest_trainer_crashes_total",
            "Trainer crashes caught mid-fit.", [fault]
            => record_trainer_crash();
        breaker_trips: "harvest_breaker_trips_total", "Circuit-breaker trips.", []
            => record_breaker_trip();
        breaker_rearms: "harvest_breaker_rearms_total", "Circuit-breaker re-arms.", []
            => record_breaker_rearm();
        degraded_decisions: "harvest_degraded_decisions_total",
            "Decisions served by the safe policy.", [series]
            => record_degraded(), record_degraded_n(n);
        rewards_lost: "harvest_rewards_lost_total", "Reward deliveries lost in flight.", []
            => record_reward_lost();
        // Work turned away *in front of* the service (wire rate limits,
        // queue budgets, deadline sheds) never reaches the log, so it is
        // ledgered apart from `log_dropped`.
        admission_shed: "harvest_admission_shed_total",
            "Requests refused at the admission door before reaching a shard.", [series]
            => record_admission_shed_n(n);
        watchdog_faults: "harvest_watchdog_faults_total",
            "Watchdog firings fed into the breaker's fault signal.", [fault]
            => record_watchdog_fault();
        // Durability counters: every checkpoint written or rejected, every
        // record replayed, every restart is counted.
        checkpoints_written: "harvest_checkpoints_written_total",
            "Control-plane checkpoints published.", [];
        checkpoints_discarded: "harvest_checkpoints_discarded_total",
            "Checkpoints rejected at recovery as torn, corrupt, or unparsable.", []
            => record_checkpoints_discarded(n);
        last_checkpoint_ns: stamp = u64::MAX;
        recovered_records: "harvest_recovered_records_total",
            "Log records recovered from durable segments at warm restart.", []
            => record_recovered_records(n);
        replayed_joins: "harvest_replayed_joins_total",
            "Outcomes replayed into the joiner during warm restart.", []
            => record_replayed_join();
        restart_count: "harvest_restarts_total",
            "Warm restarts (service resumed from checkpoint or cold replay).", []
            => record_restart();
    }
}

impl ServeMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Fresh counters carrying an observability bundle.
    pub fn with_obs(obs: Arc<ServeObs>) -> Self {
        ServeMetrics {
            obs: Some(obs),
            ..ServeMetrics::new()
        }
    }

    /// The observability bundle, if this service was built with one.
    pub fn obs(&self) -> Option<&Arc<ServeObs>> {
        self.obs.as_ref()
    }

    /// Records one decision at logical time `now_ns`.
    pub fn record_decision(&self, now_ns: u64, explored: bool) {
        self.record_decisions(now_ns, 1, u64::from(explored));
    }

    /// Records `n` decisions sharing one logical stamp, of which
    /// `explorations` fired the exploration branch — the batched hot path's
    /// equivalent of `n` [`record_decision`](Self::record_decision) calls,
    /// paid as one pass over the atomics.
    pub fn record_decisions(&self, now_ns: u64, n: u64, explorations: u64) {
        if n == 0 {
            return;
        }
        self.decisions.fetch_add(n, RELAXED);
        if explorations > 0 {
            self.explorations.fetch_add(explorations, RELAXED);
        }
        self.first_decision_ns.fetch_min(now_ns, RELAXED);
        self.last_decision_ns.fetch_max(now_ns, RELAXED);
    }

    /// Records one control-plane checkpoint published at logical time
    /// `now_ns`; the stamp feeds the `checkpoint_age_ns` gauge.
    pub fn record_checkpoint(&self, now_ns: u64) {
        self.checkpoints_written.fetch_add(1, RELAXED);
        self.last_checkpoint_ns.store(now_ns, RELAXED);
    }

    /// Reads every counter at one instant and derives the rates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = self.load_counters();
        let first = self.first_decision_ns.load(RELAXED);
        let last = self.last_decision_ns.load(RELAXED);
        let elapsed_s = if first == u64::MAX || last <= first {
            0.0
        } else {
            (last - first) as f64 / 1e9
        };
        s.exploration_rate = ratio(s.explorations, s.decisions);
        s.decisions_per_sec = if elapsed_s > 0.0 {
            s.decisions as f64 / elapsed_s
        } else {
            0.0
        };
        s.log_backlog = s
            .log_enqueued
            .saturating_sub(s.log_written + s.log_dropped + s.log_quarantined);
        let attempts = s.join_hits + s.join_duplicates + s.join_late + s.join_unknown;
        s.join_hit_rate = ratio(s.join_hits, attempts);
        let ckpt = self.last_checkpoint_ns.load(RELAXED);
        s.checkpoint_age_ns = if ckpt == u64::MAX {
            0
        } else {
            last.saturating_sub(ckpt)
        };
        s
    }
}

/// Zero-guarded rate: an empty window yields 0.0, never NaN or ±inf.
/// Every derived rate in [`MetricsSnapshot`] goes through here (or the
/// equivalent `elapsed_s` guard), so an empty snapshot always serializes
/// finite numbers — exporters and dashboards never see a NaN.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{put_counters, take_counters};
    use harvest_log::codec::{Decoder, Encoder};
    use proptest::prelude::*;

    /// The rows the breaker's fault signal sums, pinned so a flag change
    /// is a visible test edit.
    const FAULT_ROWS: [&str; 7] = [
        "log_dropped",
        "log_quarantined",
        "lock_recoveries",
        "shard_wedges",
        "writer_restarts",
        "trainer_crashes",
        "watchdog_faults",
    ];

    /// The rows the scope's window series tracks.
    const SERIES_ROWS: [&str; 12] = [
        "decisions",
        "explorations",
        "log_written",
        "log_dropped",
        "log_quarantined",
        "join_hits",
        "join_late",
        "join_unknown",
        "timed_out_decisions",
        "swaps",
        "degraded_decisions",
        "admission_shed",
    ];

    proptest! {
        // Every counter row, bumped by an arbitrary amount, reaches every
        // generated copy: one Prometheus family with its value, the
        // snapshot, a round trip through the checkpoint codec, the fault
        // signal and the window series.
        #[test]
        fn every_counter_row_reaches_every_export(adds in proptest::collection::vec(0u64..1_000_000, 64)) {
            let m = ServeMetrics::new();
            let cells = m.counter_cells();
            prop_assert!(cells.len() <= adds.len());
            for ((_, _, cell), &n) in cells.iter().zip(&adds) {
                cell.fetch_add(n, RELAXED);
            }
            let page = crate::export::export_prometheus(&m, false, None);
            let snap = serde_json::to_value(&m.snapshot());
            let state = m.checkpoint_counters();
            let mut payload = Vec::new();
            put_counters(&mut Encoder::new(&mut payload), &state);
            let mut dec = Decoder::new(&payload);
            let decoded = take_counters(&mut dec).expect("state decodes");
            prop_assert_eq!(dec.finish(), Some(()));
            let restored = ServeMetrics::new();
            restored.restore_counters(&decoded);
            let mut fault = 0;
            let mut series = Vec::new();
            for ((field, prom, _), &n) in cells.iter().zip(&adds) {
                let samples: Vec<&str> = page
                    .lines()
                    .filter(|l| l.split(' ').next() == Some(*prom))
                    .collect();
                prop_assert_eq!(samples, vec![format!("{prom} {n}").as_str()]);
                prop_assert_eq!(snap.get(field).and_then(|v| v.as_u64()), Some(n));
                if FAULT_ROWS.contains(field) {
                    fault += n;
                }
                if SERIES_ROWS.contains(field) {
                    series.push((field.to_string(), n));
                }
            }
            prop_assert_eq!(restored.checkpoint_counters(), state);
            prop_assert_eq!(restored.snapshot(), m.snapshot());
            prop_assert_eq!(m.fault_signal(), fault);
            let mut sample = harvest_obs::SeriesSample::new();
            m.snapshot().series_counters(&mut sample);
            prop_assert_eq!(sample.counters, series);
        }
    }

    #[test]
    fn snapshot_derives_rates() {
        let m = ServeMetrics::new();
        for i in 0..10 {
            m.record_decision(i * 1_000_000_000, i % 2 == 0);
        }
        m.record_enqueued();
        m.record_enqueued();
        m.record_written();
        m.record_join_hit();
        m.record_join_late();
        m.record_swap();
        let s = m.snapshot();
        assert_eq!(s.decisions, 10);
        assert_eq!(s.explorations, 5);
        assert!((s.exploration_rate - 0.5).abs() < 1e-12);
        // 10 decisions over 9 logical seconds.
        assert!((s.decisions_per_sec - 10.0 / 9.0).abs() < 1e-9);
        assert_eq!(s.log_backlog, 1);
        assert!((s.join_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.swaps, 1);
    }

    #[test]
    fn robustness_counters_flow_into_snapshot_and_fault_signal() {
        let m = ServeMetrics::new();
        m.record_enqueued();
        m.record_enqueued();
        m.record_enqueued();
        m.record_written();
        m.record_dropped();
        m.record_quarantined(1);
        m.record_lock_recovery();
        m.record_writer_restart();
        m.record_trainer_crash();
        m.record_breaker_trip();
        m.record_breaker_rearm();
        m.record_degraded();
        m.record_reward_lost();
        let s = m.snapshot();
        assert_eq!(s.log_quarantined, 1);
        assert_eq!(s.log_backlog, 0); // 3 enqueued = 1 written + 1 dropped + 1 quarantined
        assert_eq!(s.lock_recoveries, 1);
        assert_eq!(s.writer_restarts, 1);
        assert_eq!(s.trainer_crashes, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_rearms, 1);
        assert_eq!(s.degraded_decisions, 1);
        assert_eq!(s.rewards_lost, 1);
        // dropped + quarantined + lock recovery + restart + trainer crash.
        assert_eq!(m.fault_signal(), 5);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = ServeMetrics::new().snapshot();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.exploration_rate, 0.0);
        assert_eq!(s.decisions_per_sec, 0.0);
        assert_eq!(s.join_hit_rate, 0.0);
    }

    #[test]
    fn empty_snapshot_serializes_finite_numbers() {
        // Zero denominators everywhere: every derived rate must still be a
        // finite number, and the JSON must carry no NaN/inf tokens.
        let s = ServeMetrics::new().snapshot();
        for (name, v) in [
            ("exploration_rate", s.exploration_rate),
            ("decisions_per_sec", s.decisions_per_sec),
            ("join_hit_rate", s.join_hit_rate),
        ] {
            assert!(v.is_finite(), "{name} must be finite on empty metrics");
        }
        let json = serde_json::to_string(&s).expect("snapshot serializes");
        for token in ["NaN", "nan", "inf", "Infinity"] {
            assert!(
                !json.contains(token),
                "empty snapshot leaked `{token}`: {json}"
            );
        }
    }

    #[test]
    fn counters_round_trip_through_checkpoint_state() {
        let m = ServeMetrics::new();
        for i in 0..7 {
            m.record_decision(i * 1000, i % 3 == 0);
        }
        m.record_enqueued_n(7);
        m.record_written_n(6);
        m.record_dropped();
        m.record_join_hit();
        m.record_checkpoint(5000);
        m.record_recovered_records(6);
        m.record_replayed_join();
        m.record_restart();
        m.record_checkpoints_discarded(1);
        let state = m.checkpoint_counters();
        let restored = ServeMetrics::new();
        restored.restore_counters(&state);
        assert_eq!(restored.checkpoint_counters(), state);
        assert_eq!(restored.snapshot(), m.snapshot());
        let s = restored.snapshot();
        assert_eq!(s.checkpoints_written, 1);
        assert_eq!(s.checkpoints_discarded, 1);
        assert_eq!(s.checkpoint_age_ns, 1000); // last decision 6000, ckpt 5000
        assert_eq!(s.recovered_records, 6);
        assert_eq!(s.replayed_joins, 1);
        assert_eq!(s.restart_count, 1);
    }

    #[test]
    fn checkpoint_age_is_zero_before_the_first_checkpoint() {
        let m = ServeMetrics::new();
        m.record_decision(9999, false);
        assert_eq!(m.snapshot().checkpoint_age_ns, 0);
    }

    #[test]
    fn with_obs_carries_the_bundle() {
        let m = ServeMetrics::with_obs(Arc::new(ServeObs::new()));
        assert!(m.obs().is_some());
        assert!(ServeMetrics::new().obs().is_none());
    }
}
