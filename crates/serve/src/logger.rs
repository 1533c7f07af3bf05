//! The decision-log producer: one swap queue into the supervised writer.
//!
//! The decision path must never do file I/O, so callers push records into
//! one `Mutex<Vec<LogRecord>>` and the supervised writer thread (see
//! [`supervisor`](crate::supervisor)) swaps the whole vector out for its
//! empty spare and persists the group into crash-safe log segments
//! ([`harvest_log::segment`]) under one writer lock. A push under the lock
//! *is* arrival order, so for any deterministic call sequence the
//! persisted stream is the call order, with no ticket to draw or merge.
//!
//! The record-weighted [`QueueBudget`] bound blocks the decision path until
//! the writer catches up: no record is refused at the door, so what the log
//! loses can never depend on load. The writer holds a record's reservation
//! until the record is persisted and counted, so the budget bounds queued
//! *plus* in-flight records (`log_backlog ≤ capacity`). A permanently
//! failed writer still discards — and counts as `dropped` — what it cannot
//! persist, so blocked callers are never wedged.
//!
//! Accounting invariant, checked by property and chaos tests: **every**
//! record offered to the queue is counted `enqueued`, and
//! once the pipeline drains, `enqueued == written + dropped + quarantined`.
//! No fault class — a full queue, writer crash, torn write, permanent
//! writer death — can make a record vanish from that ledger.
//!
//! [`QueueBudget`]: crate::admission::QueueBudget

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use harvest_log::record::{BatchRecord, LogRecord};
use harvest_log::segment::SegmentConfig;

// The queue bound lives in [`crate::admission`] (a shared admission
// primitive; the wire front-end bounds its in-flight work with the same
// type).
use crate::admission::QueueBudget;
use crate::engine::shard_of;
use crate::metrics::ServeMetrics;

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

/// Written batch frames each shard's return list holds for reuse.
const RETURN_FRAMES: usize = 8;

/// The queue shared by every [`DecisionLogger`] clone and the supervised
/// writer: queued records in arrival order, the written frames on their
/// way back to their shards, and the writer's doorbell.
pub(crate) struct LogQueue {
    records: Mutex<Vec<LogRecord>>,
    /// Written batch frames going back to the shard that built them, one
    /// list per shard, so the feature buffers a caller allocates are the
    /// ones it refills instead of being freed on the writer thread.
    returns: Box<[Mutex<Vec<BatchRecord>>]>,
    /// Set once the last producer handle is gone.
    hung_up: AtomicBool,
    /// Writer parked flag: producers ring the doorbell only when set, so
    /// the steady-state push path makes no futex call.
    sleeping: AtomicBool,
    bell: Condvar,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every holder leaves the vectors whole, so a panic elsewhere loses
    // nothing here.
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl LogQueue {
    /// A queue whose written frames return to `shards` shards.
    pub(crate) fn new(shards: usize) -> Self {
        LogQueue {
            records: Mutex::new(Vec::new()),
            returns: (0..shards.max(1))
                .map(|_| Mutex::new(Vec::with_capacity(RETURN_FRAMES)))
                .collect(),
            hung_up: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            bell: Condvar::new(),
        }
    }

    /// Appends one admitted frame. The caller must hold the frame's
    /// record-weighted budget reservation: that, not the vector, is the
    /// bound.
    fn push(&self, record: LogRecord) {
        lock(&self.records).push(record);
    }

    /// Wakes the writer if it is parked; one atomic swap when it is
    /// already running. The parked writer released the queue lock only by
    /// waiting, so a push that went in after its last look is followed by
    /// this notify, never lost.
    fn ring_bell(&self) {
        if self.sleeping.swap(false, Ordering::AcqRel) {
            self.bell.notify_all();
        }
    }

    /// Marks the producers gone and wakes the writer so it can drain and
    /// exit.
    fn hang_up(&self) {
        let _queue = lock(&self.records);
        self.hung_up.store(true, Ordering::Release);
        self.bell.notify_all();
    }

    /// Swaps every queued record into `group`, which must be empty,
    /// parking until there is one. Returns `false`, leaving `group` empty,
    /// only once the producers are gone and the queue is drained — the
    /// writer's clean-exit condition. The park has a 1 ms timeout: the
    /// liveness floor, and the normal wake-up for a backlog below the
    /// producers' bell mark.
    pub(crate) fn take_all(&self, group: &mut Vec<LogRecord>) -> bool {
        debug_assert!(group.is_empty());
        let mut queue = lock(&self.records);
        loop {
            if !queue.is_empty() {
                std::mem::swap(&mut *queue, group);
                return true;
            }
            if self.hung_up.load(Ordering::Acquire) {
                return false;
            }
            self.sleeping.store(true, Ordering::Release);
            queue = self
                .bell
                .wait_timeout(queue, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner())
                .0;
            self.sleeping.store(false, Ordering::Release);
        }
    }

    /// Puts records the writer took but did not persist back at the front
    /// of the queue, ahead of anything pushed since, so the next take sees
    /// the arrival order unchanged.
    pub(crate) fn put_back(&self, tail: Vec<LogRecord>) {
        let mut queue = lock(&self.records);
        queue.splice(0..0, tail);
    }

    /// Hands a written frame's buffers back to the shard that built it,
    /// leaving an empty frame behind. Only batch frames come back; a full
    /// return list leaves the frame as it is.
    pub(crate) fn recycle(&self, record: &mut LogRecord) {
        let LogRecord::Batch(frame) = record else {
            return;
        };
        let first = frame.decisions.first().map_or(0, |d| d.request_id);
        let mut returns = lock(&self.returns[shard_of(first, self.returns.len())]);
        if returns.len() < RETURN_FRAMES {
            returns.push(BatchRecord {
                component: std::mem::take(&mut frame.component),
                decisions: std::mem::take(&mut frame.decisions),
            });
        }
    }

    /// A written frame handed back to `shard`, if one is waiting.
    fn reclaim(&self, shard: usize) -> Option<BatchRecord> {
        lock(&self.returns[shard % self.returns.len()]).pop()
    }
}

impl std::fmt::Debug for LogQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogQueue")
            .field("queued", &lock(&self.records).len())
            .finish_non_exhaustive()
    }
}

/// Hang-up token: every [`DecisionLogger`] clone shares one; when the last
/// clone drops, the writer learns the producers are gone.
#[derive(Debug)]
struct ProducerToken {
    queue: Arc<LogQueue>,
}

impl Drop for ProducerToken {
    fn drop(&mut self) {
        self.queue.hang_up();
    }
}

/// The producer half: cheap to clone, one per shard or caller thread.
#[derive(Debug, Clone)]
pub struct DecisionLogger {
    queue: Arc<LogQueue>,
    budget: Arc<QueueBudget>,
    /// Queued records at which a push wakes a parked writer.
    bell_at: u64,
    metrics: Arc<ServeMetrics>,
    _token: Arc<ProducerToken>,
}

impl DecisionLogger {
    /// Builds the producer half over an existing queue. Crate-internal:
    /// producers come from
    /// [`spawn_supervised_writer`](crate::supervisor::spawn_supervised_writer).
    pub(crate) fn new(
        queue: Arc<LogQueue>,
        budget: Arc<QueueBudget>,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let token = Arc::new(ProducerToken {
            queue: Arc::clone(&queue),
        });
        DecisionLogger {
            bell_at: (budget.capacity() / BELL_FRACTION).max(1),
            queue,
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
    /// push cannot be refused: as long as any producer is alive the writer
    /// (or its post-mortem drain) takes from the queue.
    ///
    /// The push wakes a parked writer only once the queue holds at least
    /// 1 / [`BELL_FRACTION`] of its capacity. Below that mark the writer
    /// wakes on its own liveness timeout, so a fast writer drains in bursts
    /// instead of costing every producer a futex wake.
    pub(crate) fn send_reserved(&self, record: LogRecord) {
        let n = record.record_count() as u64;
        self.metrics.record_enqueued_n(n);
        self.queue.push(record);
        if self.budget.in_use() >= self.bell_at {
            self.queue.ring_bell();
        }
    }

    /// A batch frame the writer has persisted and handed back to `shard`,
    /// for the engine to refill instead of allocating a new one.
    pub(crate) fn reclaim_frame(&self, shard: usize) -> Option<BatchRecord> {
        self.queue.reclaim(shard)
    }
}
