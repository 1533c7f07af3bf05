//! The writer supervisor: crash-safe segment persistence under restarts.
//!
//! One supervisor thread owns the writer's lifecycle. It spawns a writer
//! *incarnation* thread, joins it, and reacts:
//!
//! * clean exit (the producers hung up and the queue is drained) — done;
//! * panic — seal the possibly-torn current segment with a rotation, sleep
//!   a capped exponential backoff, count a restart, and spawn the next
//!   incarnation. The bounded queue holds the backlog across the gap, so a
//!   writer crash costs latency, never records.
//!
//! An incarnation commits in groups: it swaps the whole log queue (see
//! [`logger`](crate::logger)) for its empty spare and persists everything
//! it took under one writer lock, a slice of up to 64 frames per
//! [`SegmentedLogWriter::write_all`], counting each slice with one ledger
//! bump, one tracer-inbox lock and one stage-journal lock. A slice's
//! budget reservation is released only after it is counted, or on unwind,
//! so the queue budget bounds queued plus in-flight records.
//!
//! When the restart budget is exhausted the writer is declared permanently
//! down: the supervisor keeps draining the queue, a group at a time,
//! counting every record `dropped` — blocked producers are never wedged,
//! and the conservation ledger (`enqueued == written + dropped +
//! quarantined`) stays exact. The circuit breaker sees `alive() == false`
//! and falls back to the safe policy.
//!
//! Fault injection rides the same path: a [`ChaosPlan`] keyed by record
//! index can kill an incarnation before a record (the record survives in the
//! queue) or tear a frame mid-append (the partial frame is counted
//! quarantined here and again, identically, by segment recovery). The
//! group is cut at its first scheduled fault: the records before it are
//! written as a group, the fault is applied to its record, and the
//! unwritten tail goes back to the front of the queue still holding its
//! reservation, so the next incarnation sees exactly the stream a
//! record-at-a-time writer would have. Indices count *attempted* records,
//! so a kill — which attempts nothing — cannot re-fire after restart; a
//! cursor over the sorted kill list advances exactly once per scheduled
//! kill.

use std::io;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use harvest_log::record::LogRecord;
use harvest_log::segment::{encode_frame, SegmentSink, SegmentedLogWriter};
use harvest_sim_net::fault::{ChaosPlan, WriterFault};

use harvest_obs::Terminal;

use crate::admission::QueueBudget;
use crate::error::lock_recovering;
use crate::logger::{DecisionLogger, LogQueue, LoggerConfig};
use crate::metrics::ServeMetrics;
use crate::obs::seal_observer;

const SEQ: Ordering = Ordering::SeqCst;

/// Restart policy for the supervised writer.
///
/// Construct via [`SupervisorConfig::builder`] or from
/// [`SupervisorConfig::default`]; `#[non_exhaustive]`, so out-of-crate
/// literal construction no longer compiles.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct SupervisorConfig {
    /// How many times a crashed writer is restarted before it is declared
    /// permanently down.
    pub max_restarts: u32,
    /// First backoff sleep, in milliseconds; doubles per consecutive
    /// restart.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 8,
            backoff_base_ms: 1,
            backoff_cap_ms: 50,
        }
    }
}

impl SupervisorConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> SupervisorConfigBuilder {
        SupervisorConfigBuilder(SupervisorConfig::default())
    }
}

/// Builder for [`SupervisorConfig`].
#[derive(Debug, Clone)]
pub struct SupervisorConfigBuilder(SupervisorConfig);

impl SupervisorConfigBuilder {
    /// Restart budget before the writer is declared permanently down.
    pub fn max_restarts(mut self, max_restarts: u32) -> Self {
        self.0.max_restarts = max_restarts;
        self
    }

    /// First backoff sleep in milliseconds (doubles per restart).
    pub fn backoff_base_ms(mut self, ms: u64) -> Self {
        self.0.backoff_base_ms = ms;
        self
    }

    /// Backoff ceiling in milliseconds.
    pub fn backoff_cap_ms(mut self, ms: u64) -> Self {
        self.0.backoff_cap_ms = ms;
        self
    }

    /// Returns the config.
    pub fn build(self) -> SupervisorConfig {
        self.0
    }
}

/// State shared between incarnations, the supervisor, and the handle.
struct WriterShared<S> {
    /// The log queue; taken a whole group at a time.
    queue: Arc<LogQueue>,
    /// Record-weighted queue bound, released as groups are counted.
    budget: Arc<QueueBudget>,
    /// `Some` until [`WriterSupervisorHandle::finish`] takes the writer.
    writer: Mutex<Option<SegmentedLogWriter<S>>>,
    /// Records attempted so far — the fault-index clock.
    attempted: AtomicU64,
    /// Sorted record indices with a scheduled kill, consumed left to right.
    kills: Vec<u64>,
    kill_cursor: AtomicUsize,
    chaos: Option<Arc<ChaosPlan>>,
    metrics: Arc<ServeMetrics>,
}

/// Logical records a frame carries: its weight in the queue budget and in
/// the ledger.
fn weight(records: &[LogRecord]) -> u64 {
    records.iter().map(|r| r.record_count() as u64).sum()
}

/// Frames the writer persists, counts and releases at a time. A taken
/// group can hold the whole queue; committing it a slice at a time lets
/// the producers refill the queue, and take back their written batch
/// frames, while the rest of the group is written. Committing it at the
/// end would hold the producers for the whole group and leave their next
/// batches to allocate fresh frames.
const SLICE_FRAMES: usize = 64;

/// A taken group's budget reservation. Each slice's share is released once
/// the slice is counted; dropping the reservation releases the rest —
/// on unwind too, so an injected panic can never leak queue capacity and
/// wedge blocked producers.
struct Reservation<'a> {
    budget: &'a QueueBudget,
    records: u64,
}

impl Reservation<'_> {
    fn release(&mut self, records: u64) {
        self.records -= records;
        self.budget.release(records);
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.records > 0 {
            self.budget.release(self.records);
        }
    }
}

/// Where a group is cut: the first record with a scheduled fault.
enum Cut {
    /// Kill the incarnation before this record.
    Kill,
    /// Tear this record's frame, keeping this fraction of it.
    Tear(f64),
}

impl<S: SegmentSink> WriterShared<S> {
    /// Marks the trace terminal of every decision `records` carry. Must be
    /// called *before* the matching ledger metric is bumped, so that a
    /// drained backlog (`log_backlog == 0`) implies every trace has reached
    /// its terminal — the tracer parks the events and every audit/export
    /// flushes parked events first, which preserves that implication
    /// without this thread taking a trace-shard lock per record. Outcome
    /// records carry no trace of their own and are skipped.
    fn note_terminals(&self, records: &[LogRecord], terminal: Terminal) {
        let Some(obs) = self.metrics.obs() else {
            return;
        };
        let decisions = || {
            records.iter().flat_map(|r| {
                let (single, batch) = match r {
                    LogRecord::Decision(d) => (Some((d.request_id, d.timestamp_ns)), &[][..]),
                    LogRecord::Batch(b) => (None, &b.decisions[..]),
                    LogRecord::Outcome(_) => (None, &[][..]),
                };
                single
                    .into_iter()
                    .chain(batch.iter().map(|d| (d.request_id, d.timestamp_ns)))
            })
        };
        obs.tracer()
            .terminal_deferred_many(decisions().map(|(id, _)| id), terminal);
        obs.journal_stage_terminals(decisions().map(|(_, ts)| ts), terminal);
    }

    /// Whether a kill is scheduled at or before record `index`.
    fn kill_due(&self, index: u64) -> bool {
        self.kills
            .get(self.kill_cursor.load(SEQ))
            .is_some_and(|&kill| index >= kill)
    }

    /// Consumes the due kill and panics.
    fn fire_kill(&self, index: u64) -> ! {
        self.kill_cursor.fetch_add(1, SEQ);
        panic!("chaos: writer killed before record {index}");
    }

    /// The first scheduled fault in `group`, with its position and the
    /// fault-index clock at that record. A batch frame spans its batch
    /// length on the clock (the clock counts *logical* records, matching
    /// the single-call run), and a tear scheduled anywhere inside that span
    /// fires on the whole frame, unless a kill comes first in the span.
    fn first_fault(&self, group: &[LogRecord]) -> (usize, u64, Option<Cut>) {
        let mut index = self.attempted.load(SEQ);
        for (i, record) in group.iter().enumerate() {
            if self.kill_due(index) {
                return (i, index, Some(Cut::Kill));
            }
            let span = record.record_count().max(1) as u64;
            let fault = self
                .chaos
                .as_ref()
                .and_then(|c| (index..index + span).find_map(|i| c.writer_fault_at(i)));
            if let Some(WriterFault::Tear { keep_frac }) = fault {
                return (i, index, Some(Cut::Tear(keep_frac)));
            }
            index += span;
        }
        (group.len(), index, None)
    }

    /// Persists one taken group, cut at its first scheduled fault, and
    /// leaves `group` empty. Panics (after putting the unwritten tail back
    /// on the queue) when the cut is a fault.
    fn persist(&self, group: &mut Vec<LogRecord>) {
        let mut reservation = Reservation {
            budget: &self.budget,
            records: weight(group),
        };
        let mut guard = lock_recovering(&self.writer, Some(&self.metrics));
        let Some(writer) = guard.as_mut() else {
            // The writer was already taken at shutdown; nothing to do but
            // keep the ledger honest.
            self.note_terminals(group, Terminal::Dropped);
            self.metrics.record_dropped_n(weight(group));
            group.clear();
            return;
        };
        let (cut, index, fault) = self.first_fault(group);
        let mut torn = None;
        if let Some(fault) = &fault {
            // The records past the fault are not attempted: they go back to
            // the queue front, still holding their reservation.
            let tail = group.split_off(cut + matches!(fault, Cut::Tear(_)) as usize);
            reservation.records -= weight(&tail);
            self.queue.put_back(tail);
            if let Cut::Tear(_) = fault {
                torn = group.pop();
            }
        }
        for slice in group.chunks_mut(SLICE_FRAMES) {
            let (written, quarantined) = self.write_group(writer, slice);
            // Handed back before they count as written, so a drained ledger
            // means every written frame is back (or was dropped by a full
            // return list).
            for record in slice {
                self.queue.recycle(record);
            }
            self.metrics.record_quarantined(quarantined);
            self.metrics.record_written_n(written);
            reservation.release(written + quarantined);
        }
        group.clear();
        self.attempted.store(index, SEQ);
        match (fault, torn) {
            (Some(Cut::Kill), _) => {
                // A kill attempts nothing and holds no lock: unlike a torn
                // write, it leaves the writer mutex unpoisoned.
                drop(guard);
                self.fire_kill(index);
            }
            (Some(Cut::Tear(keep_frac)), Some(torn)) => {
                // A crash mid-append: persist a strict prefix of the frame,
                // count the record(s) quarantined, and die holding the lock —
                // the poisoned mutex is part of the fault being injected. The
                // runtime ledger counts the whole batch; at-rest recovery of a
                // torn *batch* frame can only count the unparsable partial
                // frame once, an undercount DESIGN.md §10 records.
                self.attempted
                    .store(index + torn.record_count().max(1) as u64, SEQ);
                if let Ok(frame) = encode_frame(&torn) {
                    let keep = (((frame.len() - 1) as f64) * keep_frac.clamp(0.0, 1.0)) as usize;
                    let keep = keep.clamp(1, frame.len() - 1);
                    let _ = writer.append_raw(&frame[..keep]);
                }
                let torn = std::slice::from_ref(&torn);
                self.note_terminals(torn, Terminal::Quarantined);
                self.metrics.record_quarantined(weight(torn));
                panic!("chaos: torn write of record {index}");
            }
            _ => {}
        }
    }

    /// Writes `records` as one group and marks their terminals, returning
    /// the logical records written and quarantined. A record the writer
    /// refuses (its frame would exceed the frame limit, or the sink refused
    /// the append) is quarantined with whatever the failure covers, and the
    /// segment is sealed so the damage cannot spread into later frames; the
    /// rest of the group is still written.
    fn write_group(&self, writer: &mut SegmentedLogWriter<S>, records: &[LogRecord]) -> (u64, u64) {
        let (mut written, mut quarantined) = (0, 0);
        let mut rest = records;
        while !rest.is_empty() {
            let (ok, failed) = match writer.write_all(rest) {
                Ok(_) => (rest.len(), 0),
                Err(e) => (e.written, e.failed.max(1)),
            };
            let (ok_records, after) = rest.split_at(ok);
            let (failed_records, after) = after.split_at(failed);
            self.note_terminals(ok_records, Terminal::Written);
            written += weight(ok_records);
            if !failed_records.is_empty() {
                self.note_terminals(failed_records, Terminal::Quarantined);
                quarantined += weight(failed_records);
                let _ = writer.rotate();
            }
            rest = after;
        }
        (written, quarantined)
    }
}

/// One writer incarnation: take the queue a group at a time until the
/// producers hang up. Returns normally only on hang-up.
fn incarnation<S: SegmentSink>(shared: &WriterShared<S>) {
    // The spare the queue is swapped into; its capacity is reused.
    let mut group = Vec::new();
    loop {
        let index = shared.attempted.load(SEQ);
        if shared.kill_due(index) {
            shared.fire_kill(index);
        }
        let taken = shared.queue.take_all(&mut group);
        if taken {
            shared.persist(&mut group);
        }
        let mut guard = lock_recovering(&shared.writer, Some(&shared.metrics));
        if let Some(w) = guard.as_mut() {
            let _ = w.flush();
        }
        if !taken {
            // Producers gone and the queue drained.
            return;
        }
    }
}

/// The supervisor loop: spawn, join, seal, back off, restart — or give up
/// and drain.
fn supervise<S: SegmentSink + Send + 'static>(
    shared: Arc<WriterShared<S>>,
    cfg: SupervisorConfig,
    alive: Arc<AtomicBool>,
) {
    let mut restarts: u32 = 0;
    loop {
        let child_shared = Arc::clone(&shared);
        let child = std::thread::Builder::new()
            .name(format!("harvest-serve-log-writer-{restarts}"))
            .spawn(move || incarnation(&child_shared))
            .expect("spawn log writer incarnation");
        match child.join() {
            Ok(()) => {
                // Clean disconnect: the queue is drained.
                alive.store(false, SEQ);
                return;
            }
            Err(_panic) => {
                // Seal the possibly-torn tail before anything else writes.
                {
                    let mut guard = lock_recovering(&shared.writer, Some(&shared.metrics));
                    if let Some(w) = guard.as_mut() {
                        let _ = w.rotate();
                    }
                }
                if restarts >= cfg.max_restarts {
                    // Permanently down. Keep draining so blocked
                    // producers never wedge; every queued or future record
                    // is counted dropped.
                    alive.store(false, SEQ);
                    let mut group = Vec::new();
                    while shared.queue.take_all(&mut group) {
                        let _reservation = Reservation {
                            budget: &shared.budget,
                            records: weight(&group),
                        };
                        shared.note_terminals(&group, Terminal::Dropped);
                        shared.metrics.record_dropped_n(weight(&group));
                        group.clear();
                    }
                    return;
                }
                restarts += 1;
                shared.metrics.record_writer_restart();
                let exp = (restarts - 1).min(16);
                let backoff = cfg
                    .backoff_base_ms
                    .saturating_mul(1u64 << exp)
                    .min(cfg.backoff_cap_ms);
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
}

/// Handle to the supervised writer: liveness for the breaker, and the sink
/// back at shutdown.
pub struct WriterSupervisorHandle<S> {
    supervisor: JoinHandle<()>,
    shared: Arc<WriterShared<S>>,
    alive: Arc<AtomicBool>,
}

impl<S: SegmentSink> WriterSupervisorHandle<S> {
    /// Whether the writer is still being kept alive by the supervisor.
    /// `false` means permanently down (restart budget exhausted) or cleanly
    /// shut down.
    pub fn alive(&self) -> bool {
        self.alive.load(SEQ)
    }

    /// Waits for the supervisor to finish (every [`DecisionLogger`] clone
    /// must be dropped first, or this blocks forever) and returns the sink
    /// with all persisted segments.
    ///
    /// This is the one place in the crate a caught panic is re-raised: the
    /// supervisor thread itself never panics by design, so a panic here is
    /// a genuine bug, not an injected fault.
    pub fn finish(self) -> io::Result<S> {
        let WriterSupervisorHandle {
            supervisor, shared, ..
        } = self;
        if let Err(payload) = supervisor.join() {
            panic::resume_unwind(payload);
        }
        let writer = lock_recovering(&shared.writer, Some(&shared.metrics))
            .take()
            .expect("writer taken exactly once, at finish");
        writer.into_sink()
    }
}

/// Where a new writer incarnation starts. Zero for a fresh service; a warm
/// restart resumes past the durable history the previous incarnations left.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WriterResume {
    /// Index of the first segment the writer creates: past the segments
    /// already on disk, so the new incarnation appends instead of
    /// overwriting history.
    pub(crate) first_segment: u64,
    /// Starting value of the fault-index clock (records attempted so far): the
    /// records the previous incarnations durably accounted (`written +
    /// quarantined`), so a seeded [`ChaosPlan`]'s writer faults keyed below
    /// it — already consumed before the crash — can never re-fire.
    pub(crate) first_record_index: u64,
}

/// Spawns the supervised writer over `sink` and returns the producer half
/// plus the supervisor handle. `shards` is the number of shards the
/// writer hands written batch frames back to — the engine's shard count;
/// frames route by deciding shard, so any value ≥ 1 is correct and fewer
/// than the shards just shares the return lists. `chaos` is the
/// deterministic fault schedule (`None` in production).
pub fn spawn_supervised_writer<S: SegmentSink + Send + 'static>(
    cfg: LoggerConfig,
    sup: SupervisorConfig,
    shards: usize,
    metrics: Arc<ServeMetrics>,
    chaos: Option<Arc<ChaosPlan>>,
    sink: S,
) -> (DecisionLogger, WriterSupervisorHandle<S>) {
    spawn_resumed_writer(
        cfg,
        sup,
        shards,
        metrics,
        chaos,
        sink,
        WriterResume::default(),
    )
}

/// [`spawn_supervised_writer`] for a writer that continues the durable
/// history described by `resume`.
pub(crate) fn spawn_resumed_writer<S: SegmentSink + Send + 'static>(
    cfg: LoggerConfig,
    sup: SupervisorConfig,
    shards: usize,
    metrics: Arc<ServeMetrics>,
    chaos: Option<Arc<ChaosPlan>>,
    sink: S,
    resume: WriterResume,
) -> (DecisionLogger, WriterSupervisorHandle<S>) {
    let (logger, shared) = writer_parts(cfg, shards, metrics, chaos, sink, resume);
    (logger, launch(shared, sup))
}

/// The producer half and the writer state, before any writer runs.
fn writer_parts<S: SegmentSink>(
    cfg: LoggerConfig,
    shards: usize,
    metrics: Arc<ServeMetrics>,
    chaos: Option<Arc<ChaosPlan>>,
    sink: S,
    resume: WriterResume,
) -> (DecisionLogger, Arc<WriterShared<S>>) {
    let queue = Arc::new(LogQueue::new(shards));
    let budget = Arc::new(QueueBudget::new(cfg.capacity.max(1) as u64));
    let kills = chaos.as_ref().map(|c| c.writer_kills()).unwrap_or_default();
    let mut writer = SegmentedLogWriter::with_start(sink, cfg.segment, resume.first_segment);
    if let Some(obs) = metrics.obs() {
        writer.set_observer(seal_observer(obs));
    }
    // Resume the fault-index clock where the previous incarnation durably
    // left it: kills keyed strictly below it already fired before the
    // crash, so the cursor starts past them; a kill keyed exactly at the
    // resume index targets a record not yet attempted and stays armed.
    let kill_cursor = kills.partition_point(|&k| k < resume.first_record_index);
    let shared = Arc::new(WriterShared {
        queue: Arc::clone(&queue),
        budget: Arc::clone(&budget),
        writer: Mutex::new(Some(writer)),
        attempted: AtomicU64::new(resume.first_record_index),
        kills,
        kill_cursor: AtomicUsize::new(kill_cursor),
        chaos,
        metrics: Arc::clone(&metrics),
    });
    (DecisionLogger::new(queue, budget, metrics), shared)
}

/// Starts the supervisor, and through it the first writer incarnation.
fn launch<S: SegmentSink + Send + 'static>(
    shared: Arc<WriterShared<S>>,
    sup: SupervisorConfig,
) -> WriterSupervisorHandle<S> {
    let alive = Arc::new(AtomicBool::new(true));
    let supervisor = {
        let shared = Arc::clone(&shared);
        let alive = Arc::clone(&alive);
        std::thread::Builder::new()
            .name("harvest-serve-log-supervisor".to_string())
            .spawn(move || supervise(shared, sup, alive))
            .expect("spawn log writer supervisor")
    };
    WriterSupervisorHandle {
        supervisor,
        shared,
        alive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use harvest_log::record::{BatchDecision, BatchRecord, DecisionRecord, OutcomeRecord};
    use harvest_log::segment::{MemorySegments, SegmentConfig, MAX_FRAME_LEN};

    fn outcome(id: u64) -> LogRecord {
        LogRecord::Outcome(OutcomeRecord {
            request_id: id,
            timestamp_ns: id,
            reward: 1.0,
        })
    }

    fn cfg(capacity: usize) -> LoggerConfig {
        LoggerConfig {
            capacity,
            segment: SegmentConfig {
                max_records: 16,
                max_bytes: usize::MAX,
                max_span_ns: u64::MAX,
            },
        }
    }

    #[test]
    fn writes_everything_in_order_without_faults() {
        let metrics = Arc::new(ServeMetrics::new());
        let (logger, handle) = spawn_supervised_writer(
            cfg(2),
            SupervisorConfig::default(),
            1,
            Arc::clone(&metrics),
            None,
            MemorySegments::new(),
        );
        for id in 0..100 {
            logger.log(outcome(id));
        }
        drop(logger);
        let store = handle.finish().unwrap();
        let (records, stats) = store.recover();
        assert_eq!(stats.recovered, 100);
        assert_eq!(stats.quarantined_records, 0);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r, &outcome(i as u64));
        }
        let s = metrics.snapshot();
        assert_eq!(s.log_enqueued, 100);
        assert_eq!(s.log_written, 100);
        assert_eq!(s.log_dropped, 0);
        assert_eq!(s.log_backlog, 0);
        assert_eq!(s.writer_restarts, 0);
    }

    #[test]
    fn a_killed_writer_restarts_and_loses_nothing() {
        let metrics = Arc::new(ServeMetrics::new());
        let plan = Arc::new(ChaosPlan::none().kill_writer_at(10).kill_writer_at(40));
        let (logger, handle) = spawn_supervised_writer(
            cfg(128),
            SupervisorConfig::default(),
            1,
            Arc::clone(&metrics),
            Some(plan),
            MemorySegments::new(),
        );
        for id in 0..100 {
            logger.log(outcome(id));
        }
        drop(logger);
        let store = handle.finish().unwrap();
        let (records, stats) = store.recover();
        assert_eq!(stats.recovered, 100, "kills must not lose records");
        let s = metrics.snapshot();
        assert_eq!(s.writer_restarts, 2);
        assert_eq!(s.log_written, 100);
        assert_eq!(
            s.log_enqueued,
            s.log_written + s.log_dropped + s.log_quarantined
        );
        assert_eq!(records.len(), 100);
    }

    #[test]
    fn a_torn_write_quarantines_exactly_one_record() {
        let metrics = Arc::new(ServeMetrics::new());
        let plan = Arc::new(ChaosPlan::none().tear_writer_at(7, 0.5));
        let (logger, handle) = spawn_supervised_writer(
            cfg(128),
            SupervisorConfig::default(),
            1,
            Arc::clone(&metrics),
            Some(plan),
            MemorySegments::new(),
        );
        for id in 0..50 {
            logger.log(outcome(id));
        }
        drop(logger);
        let store = handle.finish().unwrap();
        let (records, stats) = store.recover();
        // Record 7 died mid-append; recovery counts the partial frame once.
        assert_eq!(stats.recovered, 49);
        assert_eq!(stats.quarantined_records, 1);
        let s = metrics.snapshot();
        assert_eq!(s.log_written, 49);
        assert_eq!(s.log_quarantined, 1);
        assert_eq!(s.writer_restarts, 1);
        assert_eq!(
            s.log_enqueued,
            s.log_written + s.log_dropped + s.log_quarantined
        );
        // The surviving stream skips exactly record 7.
        assert!(records.iter().all(|r| r != &outcome(7)));
        // Runtime and recovery agree on the quarantine count.
        assert_eq!(stats.quarantined_records as u64, s.log_quarantined);
    }

    #[test]
    fn restart_exhaustion_drains_and_counts_drops() {
        let metrics = Arc::new(ServeMetrics::new());
        // Kill on every record: the budget of 2 restarts is exhausted
        // after the third kill, and the rest of the queue is discarded.
        let mut plan = ChaosPlan::none();
        for i in 0..200 {
            plan = plan.kill_writer_at(i);
        }
        let (logger, handle) = spawn_supervised_writer(
            cfg(4),
            SupervisorConfig {
                max_restarts: 2,
                backoff_base_ms: 1,
                backoff_cap_ms: 2,
            },
            1,
            Arc::clone(&metrics),
            Some(Arc::new(plan)),
            MemorySegments::new(),
        );
        for id in 0..100 {
            logger.log(outcome(id));
        }
        drop(logger);
        let store = handle.finish().unwrap();
        let (_, stats) = store.recover();
        let s = metrics.snapshot();
        // Incarnation 0 dies before its first record; each restarted
        // incarnation writes one record before the next per-record kill
        // fires; the third kill exhausts the budget of 2 restarts.
        assert_eq!(s.writer_restarts, 2);
        assert_eq!(s.log_written, 2);
        assert_eq!(s.log_enqueued, 100);
        assert_eq!(s.log_dropped, 98);
        // Conservation: every record written or counted dropped by the
        // post-mortem drain; nothing vanishes.
        assert_eq!(
            s.log_enqueued,
            s.log_written + s.log_dropped + s.log_quarantined
        );
        assert_eq!(stats.recovered, 2);
    }

    #[test]
    fn same_chaos_schedule_yields_byte_identical_segments() {
        let run = || {
            let metrics = Arc::new(ServeMetrics::new());
            let plan = Arc::new(
                ChaosPlan::none()
                    .kill_writer_at(5)
                    .tear_writer_at(12, 0.3)
                    .kill_writer_at(30),
            );
            let (logger, handle) = spawn_supervised_writer(
                cfg(256),
                SupervisorConfig::default(),
                1,
                metrics,
                Some(plan),
                MemorySegments::new(),
            );
            for id in 0..60 {
                logger.log(outcome(id));
            }
            drop(logger);
            handle.finish().unwrap().snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same schedule must leave byte-identical segments");
    }

    /// A frame of 16 decisions with ids `first..first + 16`.
    fn batch(first: u64) -> LogRecord {
        LogRecord::Batch(BatchRecord {
            component: "batch".to_string(),
            decisions: (first..first + 16)
                .map(|id| BatchDecision {
                    request_id: id,
                    timestamp_ns: id,
                    shared_features: vec![id as f64],
                    action_features: None,
                    num_actions: 4,
                    action: (id % 4) as usize,
                    propensity: Some(0.25),
                    reward: None,
                })
                .collect(),
        })
    }

    /// Writes `records` under `plan` and returns the segment bytes and the
    /// ledger. `prefilled` queues the whole schedule before the first
    /// incarnation starts, so the writer takes it as one group and cuts it
    /// at each fault; otherwise each record is logged only once the
    /// previous one is accounted, one record per group.
    fn run_schedule(
        plan: ChaosPlan,
        records: &[LogRecord],
        prefilled: bool,
    ) -> (Vec<Vec<u8>>, MetricsSnapshot) {
        let metrics = Arc::new(ServeMetrics::new());
        let (logger, shared) = writer_parts(
            cfg(256),
            1,
            Arc::clone(&metrics),
            Some(Arc::new(plan)),
            MemorySegments::new(),
            WriterResume::default(),
        );
        let handle = if prefilled {
            for record in records {
                logger.log(record.clone());
            }
            launch(shared, SupervisorConfig::default())
        } else {
            let handle = launch(shared, SupervisorConfig::default());
            for record in records {
                logger.log(record.clone());
                let mut waited_ms = 0;
                while metrics.snapshot().log_backlog > 0 {
                    waited_ms += 1;
                    assert!(waited_ms < 10_000, "a record was never accounted");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            handle
        };
        drop(logger);
        (handle.finish().unwrap().snapshot(), metrics.snapshot())
    }

    /// The ledger rows a fault schedule moves.
    fn ledger(s: &MetricsSnapshot) -> [u64; 6] {
        [
            s.log_enqueued,
            s.log_written,
            s.log_dropped,
            s.log_quarantined,
            s.writer_restarts,
            s.lock_recoveries,
        ]
    }

    #[test]
    fn a_group_cut_at_its_faults_matches_one_record_at_a_time() {
        // 40 frames; every fifth, from the third, is a 16-decision batch.
        // On the logical-record clock, frame 2 spans 2..18, frames 3 and 4
        // sit at 18 and 19, frame 7 spans 22..38 and frame 12 spans 42..58.
        let records: Vec<LogRecord> = (0..40u64)
            .map(|i| {
                if i % 5 == 2 {
                    batch(1_000 + i * 16)
                } else {
                    outcome(i)
                }
            })
            .collect();
        let plan = || {
            ChaosPlan::none()
                // Before frame 4.
                .kill_writer_at(19)
                // Inside frame 7's batch: the whole frame tears.
                .tear_writer_at(27, 0.4)
                // Inside frame 12's batch: fires before frame 13.
                .kill_writer_at(45)
        };
        let (grouped, grouped_ledger) = run_schedule(plan(), &records, true);
        let (single, single_ledger) = run_schedule(plan(), &records, false);
        assert_eq!(grouped, single, "segment bytes differ");
        assert_eq!(ledger(&grouped_ledger), ledger(&single_ledger));
        // 8 batches of 16 and 32 outcomes; the torn batch is quarantined,
        // each fault costs one restart, and the tear poisons the writer
        // lock once.
        assert_eq!(ledger(&grouped_ledger), [160, 144, 0, 16, 3, 1]);
    }

    #[test]
    fn an_oversized_record_is_quarantined_alone_and_its_neighbours_are_written() {
        let big = LogRecord::Decision(DecisionRecord {
            request_id: 2,
            timestamp_ns: 2,
            component: "x".repeat(MAX_FRAME_LEN),
            shared_features: Vec::new(),
            action_features: None,
            num_actions: 2,
            action: 0,
            propensity: Some(0.5),
            reward: None,
        });
        let records = [outcome(0), outcome(1), big, outcome(3), outcome(4)];
        let (grouped, grouped_ledger) = run_schedule(ChaosPlan::none(), &records, true);
        let (single, single_ledger) = run_schedule(ChaosPlan::none(), &records, false);
        assert_eq!(grouped, single, "segment bytes differ");
        assert_eq!(ledger(&grouped_ledger), ledger(&single_ledger));
        assert_eq!(ledger(&grouped_ledger), [5, 4, 0, 1, 0, 0]);
        // The refusal seals the segment; nothing of the record reached it.
        assert_eq!(grouped.len(), 2);
        let (recovered, stats) = harvest_log::segment::recover_segments(&grouped);
        assert_eq!(
            recovered,
            vec![outcome(0), outcome(1), outcome(3), outcome(4)]
        );
        assert_eq!(stats.quarantined_records, 0);
    }
}
