//! The decision-log producer: per-shard SPSC rings into the supervised
//! writer.
//!
//! The decision path must never do file I/O, so shards push records into
//! their own single-producer rings (the private `ring` module) and the supervised
//! writer thread (see [`supervisor`](crate::supervisor)) drains the rings
//! in global ticket order into crash-safe log segments
//! ([`harvest_log::segment`]). The record-weighted [`QueueBudget`] bound
//! blocks the decision path until the writer catches up: no record is
//! refused at the door, so what the log loses can never depend on load.
//! A permanently-failed writer still discards — and counts as `dropped` —
//! what it cannot persist, so blocked callers are never wedged.
//!
//! Accounting invariant, checked by property and chaos tests: **every**
//! record offered to the queue is counted `enqueued`, and
//! once the pipeline drains, `enqueued == written + dropped + quarantined`.
//! No fault class — a full queue, writer crash, torn write, permanent
//! writer death — can make a record vanish from that ledger.
//!
//! [`QueueBudget`]: crate::admission::QueueBudget

use std::sync::Arc;

use harvest_log::record::{BatchRecord, LogRecord};
use harvest_log::segment::SegmentConfig;

// The queue bound lives in [`crate::admission`] (promoted to a shared
// admission primitive; the wire front-end bounds its in-flight work with
// the same type). The rings are sized in frames (frames ≤ records, so no
// ring can fill before the budget does); the budget is the real bound. The
// writer releases a frame's weight when it pops the frame — *before*
// persisting it, so an injected mid-write panic can never leak capacity
// and wedge blocked producers.
use crate::admission::QueueBudget;
use crate::metrics::ServeMetrics;
use crate::ring::LogRings;

/// A push wakes a parked writer once the queue holds this fraction
/// (1 / `BELL_FRACTION`) of its capacity.
const BELL_FRACTION: u64 = 8;

/// Log queue and segment configuration.
///
/// Construct via [`LoggerConfig::builder`] or from
/// [`LoggerConfig::default`]; `#[non_exhaustive]`, so out-of-crate literal
/// construction no longer compiles.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct LoggerConfig {
    /// Queue capacity in **logical records**: a batch frame counts every
    /// decision it carries ([`LogRecord::record_count`]), so the bound —
    /// and the memory it implies — is the same whether producers log
    /// singles or batches.
    pub capacity: usize,
    /// Rotation thresholds for the crash-safe segments the writer emits.
    pub segment: SegmentConfig,
}

impl Default for LoggerConfig {
    fn default() -> Self {
        LoggerConfig {
            capacity: 4096,
            segment: SegmentConfig::default(),
        }
    }
}

impl LoggerConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> LoggerConfigBuilder {
        LoggerConfigBuilder(LoggerConfig::default())
    }
}

/// Builder for [`LoggerConfig`].
#[derive(Debug, Clone)]
pub struct LoggerConfigBuilder(LoggerConfig);

impl LoggerConfigBuilder {
    /// Queue capacity in records.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.0.capacity = capacity;
        self
    }

    /// Segment rotation thresholds.
    pub fn segment(mut self, segment: SegmentConfig) -> Self {
        self.0.segment = segment;
        self
    }

    /// Returns the config.
    pub fn build(self) -> LoggerConfig {
        self.0
    }
}

/// Hang-up token: every [`DecisionLogger`] clone shares one; when the last
/// clone drops, the writer learns the producers are gone — the ring
/// equivalent of the old channel disconnect.
#[derive(Debug)]
struct ProducerToken {
    rings: Arc<LogRings>,
}

impl Drop for ProducerToken {
    fn drop(&mut self) {
        self.rings.producer_gone();
    }
}

/// The producer half: cheap to clone, one per shard or caller thread.
#[derive(Debug, Clone)]
pub struct DecisionLogger {
    rings: Arc<LogRings>,
    budget: Arc<QueueBudget>,
    /// Queued records at which a push wakes a parked writer.
    bell_at: u64,
    metrics: Arc<ServeMetrics>,
    _token: Arc<ProducerToken>,
}

impl DecisionLogger {
    /// Builds the producer half over an existing ring set. Crate-internal:
    /// producers come from
    /// [`spawn_supervised_writer`](crate::supervisor::spawn_supervised_writer).
    pub(crate) fn new(
        rings: Arc<LogRings>,
        budget: Arc<QueueBudget>,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let token = Arc::new(ProducerToken {
            rings: Arc::clone(&rings),
        });
        DecisionLogger {
            bell_at: (budget.capacity() / BELL_FRACTION).max(1),
            rings,
            budget,
            metrics,
            _token: token,
        }
    }

    /// Offers one already-built record to the queue (the service logs
    /// outcomes this way; the decide path reserves before it builds),
    /// blocking while the queue is full. Every offer counts as `enqueued`,
    /// scaled by [`LogRecord::record_count`], so a batch frame counts every
    /// decision it carries.
    pub fn log(&self, record: LogRecord) {
        self.reserve(record.record_count() as u64);
        self.send_reserved(record);
    }

    /// Reserves capacity for an `n`-record frame *before* the frame is
    /// built, blocking until the writer frees enough of the queue. The
    /// frame must then be delivered via
    /// [`send_reserved`](DecisionLogger::send_reserved).
    pub(crate) fn reserve(&self, n: u64) {
        self.budget.acquire_blocking(n);
    }

    /// Offers a frame whose capacity was reserved by
    /// [`reserve`](DecisionLogger::reserve), counting it `enqueued`. The
    /// reservation guarantees ring space (frames ≤ records), so the push
    /// cannot be refused — as long as any producer is alive the writer (or
    /// its post-mortem drain) pops.
    ///
    /// The push wakes a parked writer only once the queue holds at least
    /// 1 / [`BELL_FRACTION`] of its capacity. Below that mark the writer
    /// wakes on its own liveness timeout, so a fast writer drains in bursts
    /// instead of costing every producer a futex wake.
    pub(crate) fn send_reserved(&self, record: LogRecord) {
        let n = record.record_count() as u64;
        self.metrics.record_enqueued_n(n);
        self.rings.push(record);
        if self.budget.in_use() >= self.bell_at {
            self.rings.ring_bell();
        }
    }

    /// A batch frame the writer has persisted and handed back to `shard`,
    /// for the engine to refill instead of allocating a new one.
    pub(crate) fn reclaim_frame(&self, shard: usize) -> Option<BatchRecord> {
        self.rings.reclaim(shard)
    }
}
