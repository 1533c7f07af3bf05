//! The decision-log producer: per-shard SPSC rings into the supervised
//! writer.
//!
//! The decision path must never do file I/O, so shards push records into
//! their own single-producer rings (the private `ring` module) and the supervised
//! writer thread (see [`supervisor`](crate::supervisor)) drains the rings
//! in global ticket order into crash-safe log segments
//! ([`harvest_log::segment`]). The record-weighted [`QueueBudget`] bound
//! forces an explicit [`Backpressure`] choice: block the decision path
//! until the writer catches up (lossless, adds latency) or drop the newest
//! record and count it (lossy, never stalls serving).
//!
//! Accounting invariant, checked by property and chaos tests: **every**
//! record offered to [`DecisionLogger::log`] is counted `enqueued`, and
//! once the pipeline drains, `enqueued == written + dropped + quarantined`.
//! No fault class — backpressure, writer crash, torn write, permanent
//! writer death — can make a record vanish from that ledger.
//!
//! [`QueueBudget`]: crate::admission::QueueBudget

use std::sync::Arc;

use harvest_log::record::LogRecord;
use harvest_log::segment::SegmentConfig;

// The queue bound lives in [`crate::admission`] (promoted to a shared
// admission primitive; the wire front-end bounds its in-flight work with
// the same type). The rings are sized in frames (frames ≤ records, so no
// ring can fill before the budget does); the budget is the real bound. The
// writer releases a frame's weight when it pops the frame — *before*
// persisting it, so an injected mid-write panic can never leak capacity
// and wedge Block-mode producers.
use crate::admission::QueueBudget;
use crate::metrics::ServeMetrics;
use crate::ring::LogRings;

/// A push wakes a parked writer once the queue holds this fraction
/// (1 / `BELL_FRACTION`) of its capacity.
const BELL_FRACTION: u64 = 8;

/// What to do when the log queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the caller until the writer frees a slot. No record is ever
    /// refused at the door, at the cost of decision latency under sustained
    /// overload. (A permanently-failed writer still discards — and counts —
    /// what it cannot persist, so blocking callers are never wedged.)
    Block,
    /// Drop the record being offered and bump the drop counter. Serving
    /// never stalls; the harvested dataset thins out instead.
    DropNewest,
}

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
    /// Full-queue behavior.
    pub backpressure: Backpressure,
    /// Rotation thresholds for the crash-safe segments the writer emits.
    pub segment: SegmentConfig,
    /// Index of the first segment the writer creates. Zero for a fresh
    /// service; a warm restart sets it past the segments already on disk so
    /// the new incarnation appends instead of overwriting history.
    pub first_segment: u64,
    /// How many per-shard SPSC rings to spread producers across — set this
    /// to the engine's shard count (the service does so automatically) so
    /// each shard owns a ring and pushes are uncontended by construction.
    /// Records route by deciding shard (`request_id >> SEQ_BITS`), so any
    /// value ≥ 1 is correct; fewer rings than shards just shares them.
    pub shard_rings: usize,
}

impl Default for LoggerConfig {
    fn default() -> Self {
        LoggerConfig {
            capacity: 4096,
            backpressure: Backpressure::Block,
            segment: SegmentConfig::default(),
            first_segment: 0,
            shard_rings: 1,
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

    /// Full-queue behavior.
    pub fn backpressure(mut self, backpressure: Backpressure) -> Self {
        self.0.backpressure = backpressure;
        self
    }

    /// Segment rotation thresholds.
    pub fn segment(mut self, segment: SegmentConfig) -> Self {
        self.0.segment = segment;
        self
    }

    /// First segment index the writer creates (warm restarts resume past
    /// the segments already persisted).
    pub fn first_segment(mut self, first_segment: u64) -> Self {
        self.0.first_segment = first_segment;
        self
    }

    /// Number of per-shard SPSC rings (match the engine's shard count).
    pub fn shard_rings(mut self, shard_rings: usize) -> Self {
        self.0.shard_rings = shard_rings;
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
    backpressure: Backpressure,
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
        backpressure: Backpressure,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let token = Arc::new(ProducerToken {
            rings: Arc::clone(&rings),
        });
        DecisionLogger {
            bell_at: (budget.capacity() / BELL_FRACTION).max(1),
            rings,
            budget,
            backpressure,
            metrics,
            _token: token,
        }
    }

    /// Offers one record to the queue. Every offer counts as `enqueued` —
    /// scaled by [`LogRecord::record_count`], so a batch frame counts every
    /// decision it carries; offers refused by a full queue (under
    /// [`Backpressure::DropNewest`]) additionally count as `dropped` (again
    /// in logical records).
    ///
    /// Returns `true` when the record entered the queue, `false` when it
    /// was refused at the door — the caller-side signal the tracer needs
    /// to mark a shed decision terminal without waiting on the writer.
    pub fn log(&self, record: LogRecord) -> bool {
        let n = record.record_count() as u64;
        self.metrics.record_enqueued_n(n);
        match self.backpressure {
            Backpressure::Block => self.budget.acquire_blocking(n),
            Backpressure::DropNewest => {
                if !self.budget.try_acquire(n) {
                    self.metrics.record_dropped_n(n);
                    return false;
                }
            }
        }
        self.push(record);
        true
    }

    /// Pushes an admitted frame and wakes a parked writer once the queue
    /// holds at least 1 / [`BELL_FRACTION`] of its capacity. Below that
    /// mark the writer wakes on its own liveness timeout, so a fast writer
    /// drains in bursts instead of costing every producer a futex wake.
    fn push(&self, record: LogRecord) {
        self.rings.push(record);
        if self.budget.in_use() >= self.bell_at {
            self.rings.ring_bell();
        }
    }

    /// Reserves capacity for an `n`-record frame *before* the frame is
    /// built. `true` means the frame is admitted and must be delivered via
    /// [`send_reserved`](DecisionLogger::send_reserved); `false` (only
    /// under [`Backpressure::DropNewest`]) means the frame is refused and
    /// the caller should account for it via
    /// [`refuse`](DecisionLogger::refuse) instead of building it at all.
    ///
    /// This is the batch path's admission control: a refused 256-decision
    /// frame costs one failed reservation, not 256 feature clones plus a
    /// record allocation that would be dropped at the door anyway.
    pub(crate) fn reserve(&self, n: u64) -> bool {
        match self.backpressure {
            Backpressure::Block => {
                self.budget.acquire_blocking(n);
                true
            }
            Backpressure::DropNewest => self.budget.try_acquire(n),
        }
    }

    /// Offers a frame whose capacity was reserved by
    /// [`reserve`](DecisionLogger::reserve). Counts `enqueued` exactly like
    /// [`log`](DecisionLogger::log); the reservation guarantees ring space
    /// (frames ≤ records), so the push cannot be refused — as long as any
    /// producer is alive the writer (or its post-mortem drain) pops.
    pub(crate) fn send_reserved(&self, record: LogRecord) -> bool {
        let n = record.record_count() as u64;
        self.metrics.record_enqueued_n(n);
        self.push(record);
        true
    }

    /// Accounts for an `n`-record frame refused by a failed
    /// [`reserve`](DecisionLogger::reserve): the conservation ledger counts
    /// it offered (`enqueued`) and shed (`dropped`), exactly as if the
    /// built frame had been offered to [`log`](DecisionLogger::log) and
    /// turned away at the door.
    pub(crate) fn refuse(&self, n: u64) {
        self.metrics.record_enqueued_n(n);
        self.metrics.record_dropped_n(n);
    }
}
