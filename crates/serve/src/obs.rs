//! Serve-side observability state: the tracer, the loop's histograms,
//! and the latest harvest-quality gauges, bundled into one handle that
//! rides inside [`ServeMetrics`](crate::metrics::ServeMetrics) so every
//! component that already holds the metrics can emit events.
//!
//! Everything recorded here is a *deterministic observable* — a pure
//! function of the seed, the logical clock, and the call sequence —
//! so same-seed runs export byte-identical pages. That rules out
//! thread-timing-dependent quantities; each histogram below names its
//! deterministic substitute:
//!
//! * **decision inter-arrival** — the logical-ns gap between successive
//!   decisions on the same shard (per-shard stamps are caller-supplied,
//!   so the gaps replay exactly);
//! * **join delay** — reward observation time minus decision time, both
//!   logical;
//! * **join queue depth** — the pending count of the deciding shard's
//!   joiner, sampled at each `track`, a function of the call sequence
//!   alone;
//! * **sealed-segment size** — records and bytes per *sealed* segment
//!   (rotation points are record-indexed, so seals replay; the final
//!   never-sealed segment is not recorded).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use harvest_estimators::{HarvestQuality, PortfolioReport};
use harvest_log::SealObserver;
use harvest_obs::{AtomicHistogram, Histogram, StripedHistogram, Terminal, Tracer, TracerConfig};

/// Stage-journal ring bound: entries beyond this are dropped oldest-first
/// (counted, never silent). 64Ki terminals outlive any tick cadence the
/// examples or tests run at.
const STAGE_JOURNAL_CAP: usize = 65_536;

/// Trace ring shards (each independently locked), and the stripes of the
/// per-shard histograms.
const TRACE_SHARDS: usize = 16;

/// Trace ring capacity per shard; oldest traces are evicted (counted)
/// beyond it.
const TRACE_CAPACITY_PER_SHARD: usize = 4096;

/// Observability switch for the service.
///
/// Construct via [`ObsConfig::builder`] or from [`ObsConfig::default`];
/// `#[non_exhaustive]`, so out-of-crate literal construction no longer
/// compiles and new switches can ship without breaking callers.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ObsConfig {
    /// Master switch: `false` builds the service with no tracer, no
    /// histograms and no ops-plane scope (zero overhead beyond the plain
    /// counters).
    pub enabled: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: true }
    }
}

impl ObsConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> ObsConfigBuilder {
        ObsConfigBuilder(ObsConfig::default())
    }
}

/// Builder for [`ObsConfig`].
#[derive(Debug, Clone)]
pub struct ObsConfigBuilder(ObsConfig);

impl ObsConfigBuilder {
    /// Master switch: `false` builds the service with no tracer, no
    /// histograms and no scope.
    pub fn enabled(mut self, enabled: bool) -> Self {
        self.0.enabled = enabled;
        self
    }

    /// Returns the config.
    pub fn build(self) -> ObsConfig {
        self.0
    }
}

/// The observability bundle: one per service, shared via `Arc` through
/// the metrics handle.
pub struct ServeObs {
    tracer: Tracer,
    /// Striped by engine shard: concurrent decide threads record onto
    /// disjoint cache lines and merge only at snapshot time.
    decision_interarrival_ns: StripedHistogram,
    /// Striped by the rewarded decision's engine shard.
    join_delay_ns: StripedHistogram,
    join_queue_depth: StripedHistogram,
    segment_records: AtomicHistogram,
    segment_bytes: AtomicHistogram,
    /// Latest per-round harvest-quality gauges (from the trainer gate).
    quality: Mutex<Option<HarvestQuality>>,
    /// Latest per-round portfolio leaderboard (from the trainer's shadow
    /// evaluation): every candidate's estimate, CI, ESS, and clipped mass,
    /// ranked. Deterministic — a pure function of seed and call sequence.
    leaderboard: Mutex<Option<PortfolioReport>>,
    /// Decision-stamp/terminal pairs journaled by the writer as records
    /// reach their terminal, awaiting the next scope tick. The tick
    /// drains this and records `tick_now − decided_ns` per terminal
    /// class — stage latency measured at a *deterministic* point of the
    /// logical clock, because asynchronous writer progress is invisible
    /// in logical time. Bounded; overflow drops oldest, counted.
    stage_journal: Mutex<VecDeque<(u64, Terminal)>>,
    stage_journal_dropped: AtomicU64,
    /// Logical span (last − first record stamp) of each training round's
    /// harvest — the gate→promote stage of the timeline.
    gate_span_ns: AtomicHistogram,
}

impl fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeObs")
            .field("traced", &self.tracer.audit().decided)
            .field("interarrivals", &self.decision_interarrival_ns.count())
            .field("join_delays", &self.join_delay_ns.count())
            .finish()
    }
}

impl ServeObs {
    /// Builds the bundle ([`ObsConfig::enabled`] is the caller's concern —
    /// constructing implies enabled).
    pub(crate) fn new() -> Self {
        ServeObs {
            tracer: Tracer::new(TracerConfig {
                shards: TRACE_SHARDS,
                capacity_per_shard: TRACE_CAPACITY_PER_SHARD,
                seq_bits: crate::engine::SEQ_BITS,
            }),
            decision_interarrival_ns: StripedHistogram::new(TRACE_SHARDS),
            join_delay_ns: StripedHistogram::new(TRACE_SHARDS),
            join_queue_depth: StripedHistogram::new(TRACE_SHARDS),
            segment_records: AtomicHistogram::new(),
            segment_bytes: AtomicHistogram::new(),
            quality: Mutex::new(None),
            leaderboard: Mutex::new(None),
            stage_journal: Mutex::new(VecDeque::new()),
            stage_journal_dropped: AtomicU64::new(0),
            gate_span_ns: AtomicHistogram::new(),
        }
    }

    /// Journals decision terminals for the stage timeline: each decision's
    /// logical stamp plus the terminal class it reached. The writer thread
    /// calls this once per group, alongside the trace terminals; the next
    /// [`drain_stage_journal`](Self::drain_stage_journal) (a scope tick)
    /// turns entries into decide→terminal latency samples.
    pub fn journal_stage_terminals(
        &self,
        decided_ns: impl IntoIterator<Item = u64>,
        terminal: Terminal,
    ) {
        let mut journal = self.stage_journal.lock().unwrap_or_else(|e| e.into_inner());
        for ns in decided_ns {
            if journal.len() >= STAGE_JOURNAL_CAP {
                journal.pop_front();
                self.stage_journal_dropped.fetch_add(1, Ordering::Relaxed);
            }
            journal.push_back((ns, terminal));
        }
    }

    /// Drains every journaled terminal, in writer (arrival) order.
    pub fn drain_stage_journal(&self) -> Vec<(u64, Terminal)> {
        let mut journal = self.stage_journal.lock().unwrap_or_else(|e| e.into_inner());
        Vec::from(std::mem::take(&mut *journal))
    }

    /// Stage-journal entries dropped to the ring bound.
    pub fn stage_journal_dropped(&self) -> u64 {
        self.stage_journal_dropped.load(Ordering::Relaxed)
    }

    /// Records one training round's harvest span (last − first record
    /// stamp, logical ns) — the gate→promote stage.
    pub fn record_gate_span(&self, span_ns: u64) {
        self.gate_span_ns.record(span_ns);
    }

    /// Snapshot of the gate→promote harvest-span histogram.
    pub fn gate_span_histogram(&self) -> Histogram {
        self.gate_span_ns.snapshot()
    }

    /// The lifecycle tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records the logical-ns gap between successive same-shard decisions,
    /// on the deciding shard's stripe.
    pub fn record_interarrival(&self, shard: usize, gap_ns: u64) {
        self.decision_interarrival_ns.record(shard, gap_ns);
    }

    /// Bulk form of [`record_interarrival`](Self::record_interarrival):
    /// records the same gap `n` times in O(1). The batched decide path uses
    /// this for the `n − 1` zero gaps inside one batch, keeping the
    /// histogram identical to `n` single calls at one logical instant.
    pub fn record_interarrival_n(&self, shard: usize, gap_ns: u64, n: u64) {
        self.decision_interarrival_ns.record_n(shard, gap_ns, n);
    }

    /// Records one reward-join delay (observation − decision, logical ns),
    /// on the rewarded decision's shard stripe.
    pub fn record_join_delay(&self, shard: usize, delay_ns: u64) {
        self.join_delay_ns.record(shard, delay_ns);
    }

    /// Records the pending depth of shard `shard`'s joiner, sampled at a
    /// `track`.
    pub fn record_join_queue_depth(&self, shard: usize, depth: u64) {
        self.join_queue_depth.record(shard, depth);
    }

    /// Publishes the latest training round's quality gauges.
    pub fn set_quality(&self, q: HarvestQuality) {
        *self.quality.lock().unwrap_or_else(|e| e.into_inner()) = Some(q);
    }

    /// The latest published quality gauges, if a round has run.
    pub fn quality(&self) -> Option<HarvestQuality> {
        *self.quality.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes the latest training round's ranked leaderboard.
    pub fn set_leaderboard(&self, report: PortfolioReport) {
        *self.leaderboard.lock().unwrap_or_else(|e| e.into_inner()) = Some(report);
    }

    /// The latest published leaderboard, if a round has run.
    pub fn leaderboard(&self) -> Option<PortfolioReport> {
        self.leaderboard
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The latest leaderboard as deterministic JSON, if a round has run.
    pub fn leaderboard_json(&self) -> Option<String> {
        self.leaderboard
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|r| r.to_json())
    }

    /// Snapshot of the decision inter-arrival histogram.
    pub fn interarrival_histogram(&self) -> Histogram {
        self.decision_interarrival_ns.snapshot()
    }

    /// Snapshot of the join-delay histogram.
    pub fn join_delay_histogram(&self) -> Histogram {
        self.join_delay_ns.snapshot()
    }

    /// Snapshot of the join-queue-depth histogram.
    pub fn join_queue_depth_histogram(&self) -> Histogram {
        self.join_queue_depth.snapshot()
    }

    /// Snapshot of the sealed-segment record-count histogram.
    pub fn segment_records_histogram(&self) -> Histogram {
        self.segment_records.snapshot()
    }

    /// Snapshot of the sealed-segment byte-size histogram.
    pub fn segment_bytes_histogram(&self) -> Histogram {
        self.segment_bytes.snapshot()
    }
}

impl SealObserver for ServeObs {
    fn segment_sealed(&self, records: usize, bytes: usize) {
        self.segment_records.record(records as u64);
        self.segment_bytes.record(bytes as u64);
    }
}

/// Convenience: the observer handle the segment writer wants.
pub fn seal_observer(obs: &Arc<ServeObs>) -> Arc<dyn SealObserver> {
    Arc::clone(obs) as Arc<dyn SealObserver>
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_stage_journal_drops_its_oldest_entries_counted() {
        let obs = ServeObs::new();
        let pushed = STAGE_JOURNAL_CAP as u64 + 3;
        obs.journal_stage_terminals(0..pushed, Terminal::Written);
        assert_eq!(obs.stage_journal_dropped(), 3);
        let drained = obs.drain_stage_journal();
        assert_eq!(drained.len(), STAGE_JOURNAL_CAP);
        assert!(drained.iter().map(|&(ns, _)| ns).eq(3..pushed));
        assert!(obs.drain_stage_journal().is_empty());
    }
}
