//! A lock-light sharded ring tracer for decision lifecycles.
//!
//! Every decision the engine emits is a logged `⟨x, a, r, p⟩` tuple in
//! the making; this tracer records the causal chain each one travels —
//! decided (with its enqueue outcome) → written / dropped / quarantined,
//! plus reward-joined and trained-on annotations — keyed by the decision
//! id. The invariant mirrored from the conservation ledger: once the
//! pipeline drains, every traced decision is accounted to *exactly one*
//! terminal state. [`Tracer::audit`] checks that identity; the
//! JSON-lines export replays it record by record.
//!
//! Concurrency and cost: decision ids are structured —
//! `engine_shard << seq_bits | seq` with a monotone per-shard sequence —
//! and the tracer exploits that instead of hashing. The id's high bits
//! pick the trace shard (one mutex each, so engine shards never contend
//! with each other), and the sequence's low bits pick a slot in that
//! shard's preallocated ring: consecutive decisions from a shard land in
//! *adjacent* slots, so the hot path is one mostly uncontended lock and
//! one cache-friendly sequential slot write — no hashing, no probing, no
//! allocation. When the sequence wraps the ring, the slot's previous
//! resident (exactly `capacity` decisions older) is evicted — counted,
//! never silent. Events for ids no longer (or never) resident bump
//! `late_events` instead of failing.

use crate::hist::{AtomicHistogram, Histogram};
use serde::Serialize;
use std::sync::Mutex;

/// Terminal state of a decision record in the log pipeline. Exactly one
/// of these per decision once the pipeline drains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum Terminal {
    /// Durably appended to a log segment.
    Written,
    /// Never entered the log queue, or drained after writer death.
    Dropped,
    /// Entered the log but was corrupted/torn; excluded from harvest.
    Quarantined,
}

/// The facts known at decision time, recorded as one event so the hot
/// path pays a single tracer lock per decision.
#[derive(Clone, Copy, Debug)]
pub struct Decided {
    /// Logical nanosecond timestamp supplied by the caller.
    pub ns: u64,
    /// Engine shard that produced the decision.
    pub shard: u32,
    /// Chosen action.
    pub action: usize,
    /// Exact logged propensity.
    pub propensity: f64,
    /// Whether the ε-floor exploration branch fired.
    pub explored: bool,
    /// Whether the safe policy served this decision (breaker open).
    pub degraded: bool,
    /// Policy generation that served it.
    pub generation: u64,
    /// Whether the decision record made it into the log queue.
    pub enqueued: bool,
}

/// The full lifecycle of one decision, as exported.
#[derive(Clone, Debug, Serialize)]
pub struct DecisionTrace {
    /// Decision id (`shard << SEQ_BITS | seq`).
    pub id: u64,
    /// Logical time of the decision.
    pub decided_ns: u64,
    /// Engine shard.
    pub shard: u32,
    /// Chosen action.
    pub action: usize,
    /// Exact logged propensity.
    pub propensity: f64,
    /// Exploration branch fired.
    pub explored: bool,
    /// Served by the safe policy.
    pub degraded: bool,
    /// Policy generation.
    pub generation: u64,
    /// Decision record entered the log queue.
    pub enqueued: bool,
    /// Terminal state, once known.
    pub terminal: Option<Terminal>,
    /// Logical time the reward was joined, if one arrived in time.
    pub joined_ns: Option<u64>,
    /// Training round that consumed this decision, if any.
    pub trained_round: Option<u64>,
}

/// Tracer sizing. Capacity is per shard; total resident traces are
/// `shards · capacity_per_shard`.
#[derive(Clone, Copy, Debug)]
pub struct TracerConfig {
    /// Number of independently locked trace shards. Engine shard `s`
    /// maps to trace shard `s % shards`.
    pub shards: usize,
    /// Ring capacity of each shard, rounded up to a power of two. A
    /// decision evicts the resident exactly `capacity` sequence steps
    /// older once its shard's ring wraps.
    pub capacity_per_shard: usize,
    /// Bit width of the sequence field inside a decision id
    /// (`id = engine_shard << seq_bits | seq`). Must match the id
    /// scheme of whatever mints the ids.
    pub seq_bits: u32,
}

impl Default for TracerConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            capacity_per_shard: 4096,
            seq_bits: 40,
        }
    }
}

struct TraceShard {
    /// Ring storage: `seq & slot_mask` picks the slot, so consecutive
    /// decisions from an engine shard fill adjacent slots and a wrap
    /// evicts the resident exactly `capacity` decisions older.
    slots: Box<[Option<DecisionTrace>]>,
    /// Counters live under the shard lock (which every mutation already
    /// holds) rather than as shared atomics: the hot path pays zero
    /// contended read-modify-writes beyond the lock itself.
    evictions: u64,
    late_events: u64,
    terminal_conflicts: u64,
}

/// Cache-line isolation per shard: the mutex state and the counters of
/// neighbouring shards must not share a line, or engine shards would
/// false-share on every trace event.
#[repr(align(64))]
struct PaddedShard(Mutex<TraceShard>);

/// Deferred terminals accumulate up to this many before a batched apply.
/// Small enough that the inbox stays cache-resident; large enough that
/// the writer thread takes each shard lock ~1/64th as often as it would
/// applying terminals one by one.
const TERMINAL_BATCH: usize = 64;

/// Sharded ring tracer over structured decision ids. See the module docs
/// for the model.
pub struct Tracer {
    shards: Vec<PaddedShard>,
    /// Power of two, so the slot index is a mask of the sequence field.
    slot_mask: u64,
    /// Bit position splitting `id` into `(engine_shard, seq)`.
    seq_bits: u32,
    /// Terminal events parked by [`terminal_deferred_many`](Self::terminal_deferred_many)
    /// awaiting a batched apply. Touched only by the log-writer thread
    /// and the export paths — never by the deciding hot path — so the
    /// writer stops ping-ponging the per-shard locks against deciders.
    inbox: Mutex<Vec<(u64, Terminal)>>,
    /// Depth of the inbox at each batched apply — full batches record
    /// [`TERMINAL_BATCH`], export-time drains record the remainder. The
    /// health signal for trace-terminal latency: a distribution skewed
    /// toward small drain depths means exports are doing the writer's
    /// flushing. Deterministic once the pipeline drains, because the
    /// deferred-terminal sequence and the export call sites both are.
    flush_depths: AtomicHistogram,
}

impl Tracer {
    /// Build a tracer from `cfg` (shard count is clamped to ≥ 1, slot
    /// count rounded up to a power of two).
    pub fn new(cfg: TracerConfig) -> Self {
        let n = cfg.shards.max(1);
        let capacity = cfg.capacity_per_shard.max(1).next_power_of_two();
        Self {
            shards: (0..n)
                .map(|_| {
                    PaddedShard(Mutex::new(TraceShard {
                        slots: (0..capacity).map(|_| None).collect(),
                        evictions: 0,
                        late_events: 0,
                        terminal_conflicts: 0,
                    }))
                })
                .collect(),
            slot_mask: (capacity - 1) as u64,
            seq_bits: cfg.seq_bits,
            inbox: Mutex::new(Vec::new()),
            flush_depths: AtomicHistogram::new(),
        }
    }

    /// Histogram of inbox depths at each batched terminal apply. See
    /// the field docs on `flush_depths` for what the shape means.
    pub fn flush_depth_histogram(&self) -> Histogram {
        self.flush_depths.snapshot()
    }

    /// Split an id into its shard's lock and the ring slot of its seq.
    fn locate(&self, id: u64) -> (std::sync::MutexGuard<'_, TraceShard>, usize) {
        let shard = (id >> self.seq_bits) as usize % self.shards.len();
        let slot = (id & self.slot_mask) as usize;
        // A writer incarnation can be killed by chaos injection while
        // holding this lock; recover the data rather than cascade.
        let guard = match self.shards[shard].0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        (guard, slot)
    }

    /// Record a freshly made decision (the one hot-path event): one lock,
    /// one sequential slot write, no allocation.
    pub fn decided(&self, id: u64, d: Decided) {
        let (mut guard, slot) = self.locate(id);
        let shard = &mut *guard;
        match &shard.slots[slot] {
            Some(t) if t.id == id => {
                // The same decision announced twice.
                shard.terminal_conflicts += 1;
                return;
            }
            // Ring wrap: the resident is `capacity` decisions older.
            Some(_) => shard.evictions += 1,
            None => {}
        }
        shard.slots[slot] = Some(DecisionTrace {
            id,
            decided_ns: d.ns,
            shard: d.shard,
            action: d.action,
            propensity: d.propensity,
            explored: d.explored,
            degraded: d.degraded,
            generation: d.generation,
            enqueued: d.enqueued,
            terminal: if d.enqueued {
                None
            } else {
                // Shed at enqueue: terminal is already known.
                Some(Terminal::Dropped)
            },
            joined_ns: None,
            trained_round: None,
        });
    }

    fn with_trace(&self, id: u64, f: impl FnOnce(&mut DecisionTrace)) {
        let (mut guard, slot) = self.locate(id);
        let shard = &mut *guard;
        match &mut shard.slots[slot] {
            Some(t) if t.id == id => f(t),
            _ => shard.late_events += 1,
        }
    }

    /// Record the terminal state of a decision. Set-once: a second,
    /// different terminal is counted as a conflict and ignored.
    pub fn terminal(&self, id: u64, t: Terminal) {
        let (mut guard, slot) = self.locate(id);
        Self::set_terminal(&mut guard, slot, id, t);
    }

    /// Park one terminal per id, all of class `t`, for a later batched
    /// apply instead of taking the trace-shard locks now. This is the
    /// log-writer's path: applying one terminal per written record would
    /// contend the shard locks against the deciding threads on every
    /// single record, and the futex churn dominates the whole tracing
    /// overhead. The writer parks a whole written group under one inbox
    /// lock; the parked events are applied every 64 events
    /// (`TERMINAL_BATCH`, one lock per shard per batch) — the same flush
    /// points one call per id would hit — and flushed by every
    /// audit/export, so a drained pipeline still audits complete.
    pub fn terminal_deferred_many(&self, ids: impl IntoIterator<Item = u64>, t: Terminal) {
        let mut inbox = match self.inbox.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for id in ids {
            inbox.push((id, t));
            if inbox.len() >= TERMINAL_BATCH {
                self.flush_depths.record(inbox.len() as u64);
                self.apply_terminals(&inbox);
                inbox.clear();
            }
        }
    }

    /// Apply every parked terminal. Called by the export paths, so any
    /// observer that reads after the pipeline drains sees every event.
    fn flush_inbox(&self) {
        let events = {
            let mut inbox = match self.inbox.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *inbox)
        };
        if !events.is_empty() {
            self.flush_depths.record(events.len() as u64);
            self.apply_terminals(&events);
        }
    }

    /// Apply a batch, taking each shard's lock at most once. Within a
    /// shard, events apply in arrival order, so set-once semantics match
    /// the immediate path.
    fn apply_terminals(&self, events: &[(u64, Terminal)]) {
        let n = self.shards.len();
        for (idx, padded) in self.shards.iter().enumerate() {
            let mut guard: Option<std::sync::MutexGuard<'_, TraceShard>> = None;
            for &(id, t) in events {
                if (id >> self.seq_bits) as usize % n != idx {
                    continue;
                }
                let g = guard.get_or_insert_with(|| match padded.0.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                });
                let slot = (id & self.slot_mask) as usize;
                Self::set_terminal(g, slot, id, t);
            }
        }
    }

    /// Set-once terminal transition on one slot.
    fn set_terminal(shard: &mut TraceShard, slot: usize, id: u64, t: Terminal) {
        match &mut shard.slots[slot] {
            Some(trace) if trace.id == id => match trace.terminal {
                None => trace.terminal = Some(t),
                Some(prev) if prev == t => {}
                Some(_) => shard.terminal_conflicts += 1,
            },
            _ => shard.late_events += 1,
        }
    }

    /// Record that a reward joined this decision at logical `ns`.
    pub fn joined(&self, id: u64, ns: u64) {
        self.with_trace(id, |trace| {
            if trace.joined_ns.is_none() {
                trace.joined_ns = Some(ns);
            }
        });
    }

    /// Record that training round `round` consumed this decision.
    pub fn trained(&self, id: u64, round: u64) {
        self.with_trace(id, |trace| {
            if trace.trained_round.is_none() {
                trace.trained_round = Some(round);
            }
        });
    }

    /// All resident traces, sorted by decision id — the deterministic
    /// export order.
    pub fn export_sorted(&self) -> Vec<DecisionTrace> {
        self.flush_inbox();
        let mut all = Vec::new();
        for shard in &self.shards {
            let guard = match shard.0.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            all.extend(guard.slots.iter().flatten().cloned());
        }
        all.sort_by_key(|t| t.id);
        all
    }

    /// Replayable JSON-lines export: one `DecisionTrace` object per
    /// line, ascending id order, trailing newline.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for trace in self.export_sorted() {
            out.push_str(&serde_json::to_string(&trace).expect("trace serializes"));
            out.push('\n');
        }
        out
    }

    /// Account every resident trace; the conservation identity holds
    /// when `unterminated == 0` and
    /// `decided == written + dropped + quarantined + evictions`.
    pub fn audit(&self) -> TraceAudit {
        self.flush_inbox();
        let mut audit = TraceAudit::default();
        for shard in &self.shards {
            let guard = match shard.0.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            audit.evictions += guard.evictions;
            audit.late_events += guard.late_events;
            audit.terminal_conflicts += guard.terminal_conflicts;
            for trace in guard.slots.iter().flatten() {
                audit.decided += 1;
                if trace.enqueued {
                    audit.enqueued += 1;
                }
                match trace.terminal {
                    Some(Terminal::Written) => audit.written += 1,
                    Some(Terminal::Dropped) => audit.dropped += 1,
                    Some(Terminal::Quarantined) => audit.quarantined += 1,
                    None => audit.unterminated += 1,
                }
                if trace.joined_ns.is_some() {
                    audit.joined += 1;
                }
                if trace.trained_round.is_some() {
                    audit.trained += 1;
                }
            }
        }
        audit
    }
}

/// The tracer's accounting of every resident decision trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TraceAudit {
    /// Traces recorded (and still resident).
    pub decided: u64,
    /// Of those, how many entered the log queue.
    pub enqueued: u64,
    /// Terminal: durably written.
    pub written: u64,
    /// Terminal: shed or drained.
    pub dropped: u64,
    /// Terminal: corrupted/torn, excluded from harvest.
    pub quarantined: u64,
    /// No terminal yet (pipeline not drained, or a lost record).
    pub unterminated: u64,
    /// Traces with a joined reward.
    pub joined: u64,
    /// Traces consumed by a training round.
    pub trained: u64,
    /// Traces evicted by a newer decision hashing to their slot.
    pub evictions: u64,
    /// Events that arrived for a non-resident id.
    pub late_events: u64,
    /// Conflicting terminal assignments (ignored, counted).
    pub terminal_conflicts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decided(ns: u64) -> Decided {
        Decided {
            ns,
            shard: 0,
            action: 1,
            propensity: 0.9,
            explored: false,
            degraded: false,
            generation: 0,
            enqueued: true,
        }
    }

    #[test]
    fn lifecycle_accounts_to_one_terminal() {
        let t = Tracer::new(TracerConfig::default());
        t.decided(1, decided(10));
        t.decided(2, decided(20));
        t.decided(
            3,
            Decided {
                enqueued: false,
                ..decided(30)
            },
        );
        t.terminal(1, Terminal::Written);
        t.terminal(2, Terminal::Quarantined);
        t.joined(1, 15);
        t.trained(1, 0);
        let audit = t.audit();
        assert_eq!(audit.decided, 3);
        assert_eq!(audit.enqueued, 2);
        assert_eq!(audit.written, 1);
        assert_eq!(audit.quarantined, 1);
        assert_eq!(audit.dropped, 1); // the shed decision
        assert_eq!(audit.unterminated, 0);
        assert_eq!(audit.joined, 1);
        assert_eq!(audit.trained, 1);
        assert_eq!(
            audit.decided,
            audit.written + audit.dropped + audit.quarantined + audit.evictions
        );
    }

    #[test]
    fn terminal_is_set_once() {
        let t = Tracer::new(TracerConfig::default());
        t.decided(7, decided(1));
        t.terminal(7, Terminal::Written);
        t.terminal(7, Terminal::Dropped);
        let audit = t.audit();
        assert_eq!(audit.written, 1);
        assert_eq!(audit.dropped, 0);
        assert_eq!(audit.terminal_conflicts, 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        // One shard, two slots: seqs 0..4 fill slots 0,1,0,1 — each
        // wrap displaces the resident exactly `capacity` seqs older.
        let t = Tracer::new(TracerConfig {
            shards: 1,
            capacity_per_shard: 2,
            ..TracerConfig::default()
        });
        for id in 0..4u64 {
            t.decided(id, decided(id));
        }
        let audit = t.audit();
        assert_eq!(audit.decided, 2);
        assert_eq!(audit.evictions, 2);
        assert_eq!(
            audit.decided + audit.evictions,
            4,
            "every decision is resident or counted as evicted"
        );
        // A terminal for an evicted id is late, not an error.
        t.terminal(0, Terminal::Written);
        assert_eq!(t.audit().late_events, 1);
        t.terminal(3, Terminal::Written);
        assert_eq!(t.audit().written, 1);
    }

    #[test]
    fn engine_shards_never_collide_on_slots() {
        // Same seq from different engine shards: distinct trace shards,
        // so the shared low bits never displace each other.
        let t = Tracer::new(TracerConfig {
            shards: 4,
            capacity_per_shard: 8,
            ..TracerConfig::default()
        });
        for engine_shard in 0..4u64 {
            for seq in 0..8u64 {
                t.decided(engine_shard << 40 | seq, decided(seq));
            }
        }
        let audit = t.audit();
        assert_eq!(audit.decided, 32);
        assert_eq!(audit.evictions, 0);
    }

    #[test]
    fn flush_depths_record_batches_and_drains() {
        let t = Tracer::new(TracerConfig::default());
        for id in 0..100u64 {
            t.decided(id, decided(id));
        }
        // 100 deferred terminals in uneven groups: the batch of 64 applies
        // inline in the middle of the second group, and the audit drains
        // the remaining 36 — the flush points of one call per id.
        for ids in [0..30u64, 30..80, 80..100] {
            t.terminal_deferred_many(ids, Terminal::Written);
        }
        let audit = t.audit();
        assert_eq!(audit.written, 100);
        let h = t.flush_depth_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(64));
        assert_eq!(h.sum(), 100);
    }

    #[test]
    fn export_is_sorted_jsonl() {
        let t = Tracer::new(TracerConfig::default());
        for id in [5u64, 1, 3] {
            t.decided(id, decided(id * 10));
        }
        let line = |id: u64| {
            format!(
                concat!(
                    r#"{{"id":{},"decided_ns":{},"shard":0,"action":1,"propensity":0.9,"#,
                    r#""explored":false,"degraded":false,"generation":0,"enqueued":true,"#,
                    r#""terminal":null,"joined_ns":null,"trained_round":null}}"#,
                ),
                id,
                id * 10
            )
        };
        let expected: Vec<String> = [1, 3, 5].into_iter().map(line).collect();
        assert_eq!(t.export_jsonl(), expected.join("\n") + "\n");
    }
}
