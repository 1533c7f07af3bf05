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
//! When the restart budget is exhausted the writer is declared permanently
//! down: the supervisor keeps draining the queue, counting every record
//! `dropped` — Block-mode producers are never wedged, and the conservation
//! ledger (`enqueued == written + dropped + quarantined`) stays exact. The
//! circuit breaker sees `alive() == false` and falls back to the safe
//! policy.
//!
//! Fault injection rides the same path: a [`ChaosPlan`] keyed by record
//! index can kill an incarnation before a pop (the record survives in the
//! queue) or tear a frame mid-append (the partial frame is counted
//! quarantined here and again, identically, by segment recovery). Indices
//! count *popped* records, so a kill — which pops nothing — cannot re-fire
//! after restart; a cursor over the sorted kill list advances exactly once
//! per scheduled kill.
//!
//! The queue itself is the per-shard SPSC ring set (the `ring` module): the
//! writer pops frames in global ticket order, so the persisted stream for
//! any deterministic call sequence is identical to what the old bounded
//! MPSC channel produced, while producers never share a channel lock.

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
use crate::logger::{DecisionLogger, LoggerConfig};
use crate::metrics::ServeMetrics;
use crate::obs::seal_observer;
use crate::ring::LogRings;

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
    /// Starting value of the fault-index clock (records popped so far).
    /// Zero for a fresh service; a warm restart sets it to the records the
    /// previous incarnation durably accounted (`written + quarantined`), so
    /// a seeded [`ChaosPlan`]'s writer faults keyed below it — already
    /// consumed before the crash — can never re-fire.
    pub first_record_index: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 8,
            backoff_base_ms: 1,
            backoff_cap_ms: 50,
            first_record_index: 0,
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

    /// Starting value of the fault-index clock (warm restarts resume it at
    /// the previous incarnation's `written + quarantined`).
    pub fn first_record_index(mut self, index: u64) -> Self {
        self.0.first_record_index = index;
        self
    }

    /// Returns the config.
    pub fn build(self) -> SupervisorConfig {
        self.0
    }
}

/// State shared between incarnations, the supervisor, and the handle.
struct WriterShared<S> {
    /// The per-shard ring set; popped in global ticket order.
    rings: Arc<LogRings>,
    /// Record-weighted queue bound, released as frames are popped.
    budget: Arc<QueueBudget>,
    /// `Some` until [`WriterSupervisorHandle::finish`] takes the writer.
    writer: Mutex<Option<SegmentedLogWriter<S>>>,
    /// Records popped from the queue so far — the fault-index clock.
    attempted: AtomicU64,
    /// Sorted record indices with a scheduled kill, consumed left to right.
    kills: Vec<u64>,
    kill_cursor: AtomicUsize,
    chaos: Option<Arc<ChaosPlan>>,
    metrics: Arc<ServeMetrics>,
}

impl<S: SegmentSink> WriterShared<S> {
    /// Marks a decision record's trace terminal. Must be called *before*
    /// the matching ledger metric is bumped, so that a drained backlog
    /// (`log_backlog == 0`) implies every trace has reached its terminal —
    /// the tracer parks the event and every audit/export flushes parked
    /// events first, which preserves that implication without this thread
    /// taking a trace-shard lock per record. Outcome records carry no
    /// trace of their own and are skipped.
    fn note_terminal(&self, record: &LogRecord, terminal: Terminal) {
        let Some(obs) = self.metrics.obs() else {
            return;
        };
        match record {
            LogRecord::Decision(d) => {
                obs.tracer().terminal_deferred(d.request_id, terminal);
                obs.journal_stage_terminal(d.timestamp_ns, terminal);
            }
            // A batch frame terminates every decision it carries — same
            // terminal, one inbox push per id.
            LogRecord::Batch(b) => {
                for d in &b.decisions {
                    obs.tracer().terminal_deferred(d.request_id, terminal);
                    obs.journal_stage_terminal(d.timestamp_ns, terminal);
                }
            }
            LogRecord::Outcome(_) => {}
        }
    }

    /// Panics if a kill is scheduled at or before `next_index`. Called
    /// *before* popping, so the record in question stays queued for the
    /// next incarnation.
    fn maybe_fire_kill(&self, next_index: u64) {
        let cursor = self.kill_cursor.load(SEQ);
        if cursor < self.kills.len() && next_index >= self.kills[cursor] {
            self.kill_cursor.store(cursor + 1, SEQ);
            panic!("chaos: writer killed before record {next_index}");
        }
    }

    /// Persists one popped record, applying any scheduled tear fault. A
    /// batch frame advances the fault-index clock by its batch length (the
    /// clock counts *logical* records, matching the single-call run), and a
    /// fault scheduled anywhere inside that range fires on the whole frame.
    fn write_one(&self, record: &LogRecord) {
        let count = record.record_count() as u64;
        let index = self.attempted.fetch_add(count.max(1), SEQ);
        let fault = self
            .chaos
            .as_ref()
            .and_then(|c| (index..index + count.max(1)).find_map(|i| c.writer_fault_at(i)));
        let mut guard = lock_recovering(&self.writer, Some(&self.metrics));
        let Some(writer) = guard.as_mut() else {
            // The writer was already taken at shutdown; nothing to do but
            // keep the ledger honest.
            self.note_terminal(record, Terminal::Dropped);
            self.metrics.record_dropped_n(count);
            return;
        };
        if let Some(WriterFault::Tear { keep_frac }) = fault {
            // A crash mid-append: persist a strict prefix of the frame,
            // count the record(s) quarantined, and die holding the lock —
            // the poisoned mutex is part of the fault being injected. The
            // runtime ledger counts the whole batch; at-rest recovery of a
            // torn *batch* frame can only count the unparsable partial
            // frame once, an undercount DESIGN.md §10 records.
            if let Ok(frame) = encode_frame(record) {
                let keep = (((frame.len() - 1) as f64) * keep_frac.clamp(0.0, 1.0)) as usize;
                let keep = keep.clamp(1, frame.len() - 1);
                let _ = writer.append_raw(&frame[..keep]);
            }
            self.note_terminal(record, Terminal::Quarantined);
            self.metrics.record_quarantined(count);
            panic!("chaos: torn write of record {index}");
        }
        match writer.write(record) {
            Ok(_) => {
                self.note_terminal(record, Terminal::Written);
                self.metrics.record_written_n(count);
            }
            Err(_) => {
                // The sink refused the append; the frame may be partial.
                // Count the record(s) quarantined and seal the segment so
                // the damage cannot spread into later frames.
                self.note_terminal(record, Terminal::Quarantined);
                self.metrics.record_quarantined(count);
                let _ = writer.rotate();
            }
        }
    }
}

/// One writer incarnation: drain the rings (in global ticket order) in
/// batches until the producers hang up. Returns normally only on hang-up.
fn incarnation<S: SegmentSink>(shared: &WriterShared<S>) {
    loop {
        shared.maybe_fire_kill(shared.attempted.load(SEQ));
        let Some(first) = shared.rings.pop_next(true) else {
            // Producers gone and rings empty: flush and exit cleanly.
            let mut guard = lock_recovering(&shared.writer, Some(&shared.metrics));
            if let Some(w) = guard.as_mut() {
                let _ = w.flush();
            }
            return;
        };
        // Release the budget at pop, before persisting: an injected
        // mid-write panic must never leak queue capacity.
        shared.budget.release(first.record_count() as u64);
        shared.write_one(&first);
        // Batch: drain whatever is already queued before one flush.
        loop {
            shared.maybe_fire_kill(shared.attempted.load(SEQ));
            match shared.rings.pop_next(false) {
                Some(record) => {
                    shared.budget.release(record.record_count() as u64);
                    shared.write_one(&record);
                }
                None => break,
            }
        }
        let mut guard = lock_recovering(&shared.writer, Some(&shared.metrics));
        if let Some(w) = guard.as_mut() {
            let _ = w.flush();
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
                    // Permanently down. Keep draining so Block-mode
                    // producers never wedge; every queued or future record
                    // is counted dropped.
                    alive.store(false, SEQ);
                    while let Some(record) = shared.rings.pop_next(true) {
                        shared.budget.release(record.record_count() as u64);
                        shared.note_terminal(&record, Terminal::Dropped);
                        shared
                            .metrics
                            .record_dropped_n(record.record_count() as u64);
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

/// Spawns the supervised writer over `sink` and returns the producer half
/// plus the supervisor handle. `chaos` is the deterministic fault schedule
/// (`None` in production).
pub fn spawn_supervised_writer<S: SegmentSink + Send + 'static>(
    cfg: LoggerConfig,
    sup: SupervisorConfig,
    metrics: Arc<ServeMetrics>,
    chaos: Option<Arc<ChaosPlan>>,
    sink: S,
) -> (DecisionLogger, WriterSupervisorHandle<S>) {
    // The rings are sized in frames only as a backstop; the record-
    // weighted QueueBudget is the real bound (frames ≤ records, so no ring
    // can fill while the budget has room).
    let rings = Arc::new(LogRings::new(cfg.shard_rings.max(1), cfg.capacity.max(1)));
    let budget = Arc::new(QueueBudget::new(cfg.capacity.max(1) as u64));
    let kills = chaos.as_ref().map(|c| c.writer_kills()).unwrap_or_default();
    let mut writer = SegmentedLogWriter::with_start(sink, cfg.segment, cfg.first_segment);
    if let Some(obs) = metrics.obs() {
        writer.set_observer(seal_observer(obs));
    }
    // Resume the fault-index clock where the previous incarnation durably
    // left it: kills keyed strictly below it already fired before the
    // crash, so the cursor starts past them; a kill keyed exactly at the
    // resume index targets a record not yet popped and stays armed.
    let kill_cursor = kills.partition_point(|&k| k < sup.first_record_index);
    let shared = Arc::new(WriterShared {
        rings: Arc::clone(&rings),
        budget: Arc::clone(&budget),
        writer: Mutex::new(Some(writer)),
        attempted: AtomicU64::new(sup.first_record_index),
        kills,
        kill_cursor: AtomicUsize::new(kill_cursor),
        chaos,
        metrics: Arc::clone(&metrics),
    });
    let alive = Arc::new(AtomicBool::new(true));
    let supervisor = {
        let shared = Arc::clone(&shared);
        let alive = Arc::clone(&alive);
        std::thread::Builder::new()
            .name("harvest-serve-log-supervisor".to_string())
            .spawn(move || supervise(shared, sup, alive))
            .expect("spawn log writer supervisor")
    };
    (
        DecisionLogger::new(rings, budget, cfg.backpressure, metrics),
        WriterSupervisorHandle {
            supervisor,
            shared,
            alive,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::Backpressure;
    use harvest_log::record::OutcomeRecord;
    use harvest_log::segment::{MemorySegments, SegmentConfig};

    fn outcome(id: u64) -> LogRecord {
        LogRecord::Outcome(OutcomeRecord {
            request_id: id,
            timestamp_ns: id,
            reward: 1.0,
        })
    }

    fn cfg(capacity: usize, backpressure: Backpressure) -> LoggerConfig {
        LoggerConfig {
            capacity,
            backpressure,
            segment: SegmentConfig {
                max_records: 16,
                max_bytes: usize::MAX,
                max_span_ns: u64::MAX,
            },
            first_segment: 0,
            shard_rings: 1,
        }
    }

    #[test]
    fn writes_everything_in_order_without_faults() {
        let metrics = Arc::new(ServeMetrics::new());
        let (logger, handle) = spawn_supervised_writer(
            cfg(2, Backpressure::Block),
            SupervisorConfig::default(),
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
            cfg(128, Backpressure::Block),
            SupervisorConfig::default(),
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
            cfg(128, Backpressure::Block),
            SupervisorConfig::default(),
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
            cfg(4, Backpressure::Block),
            SupervisorConfig {
                max_restarts: 2,
                backoff_base_ms: 1,
                backoff_cap_ms: 2,
                first_record_index: 0,
            },
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
        // Incarnation 0 dies pre-pop; each restarted incarnation writes one
        // record before the next per-record kill fires; the third kill
        // exhausts the budget of 2 restarts.
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
                cfg(256, Backpressure::Block),
                SupervisorConfig::default(),
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
}
