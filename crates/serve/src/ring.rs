//! Per-shard SPSC log rings with a global-ticket merge: the lock-free
//! replacement for the bounded MPSC decision-log channel.
//!
//! Each shard pushes log frames into its own single-producer/single-consumer
//! ring — no shared channel mutex, no futex wake per frame — and the writer
//! thread drains the rings. Draining round-robin alone would make the
//! *merged* segment stream an artifact of thread timing; determinism is the
//! repo's non-negotiable invariant, so every admitted frame draws a **global
//! ticket** (one `fetch_add`, taken while the producer holds its ring's
//! gate) and the writer pops frames in strict ticket order. For any
//! deterministic call sequence the merged stream is then byte-identical to
//! what the old MPSC channel produced: ticket order *is* arrival order.
//!
//! Ring sizing (DESIGN.md §Lock-free hot path): each ring holds
//! `capacity` **frames**, where `capacity` is the [`QueueBudget`]'s bound in
//! logical records. Every admitted frame weighs ≥ 1 record, so the frames
//! outstanding across *all* rings never exceed `capacity` — one ring can
//! never fill while the budget has room, and admission keeps its exact
//! record-weighted semantics. The budget, not the ring, is the bound.
//!
//! Deadlock freedom: a ticket is drawn only *after* the producer has
//! confirmed ring space (while holding the ring's producer gate), so every
//! assigned-but-unpopped ticket is either already in a ring or a few
//! instructions from being so. The writer waiting on ticket `t` therefore
//! always makes progress, and a producer waiting for ring space (only
//! possible with a mis-sized ring; see above) holds no ticket the writer
//! needs.
//!
//! Frame return: after persisting a batch frame the writer pushes it into
//! a small per-shard return ring (another [`SpscRing`], the writer on the
//! producer side), and the shard's next batch refills that frame's buffers
//! instead of allocating new ones. A full return ring drops the frame, so
//! the writer never waits on a shard.
//!
//! [`QueueBudget`]: crate::admission::QueueBudget
//!
//! This module is one of the three audited `unsafe` islands in the crate
//! (with [`cell`](crate::cell) and [`rcu`](crate::rcu)); every `unsafe`
//! block carries a `// SAFETY:` comment checked by `tests/unsafe_audit.rs`
//! and the CI grep.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use harvest_log::record::{BatchRecord, LogRecord};

use crate::engine::shard_of;

/// Written batch frames each shard's return ring holds for reuse.
const RETURN_FRAMES: usize = 8;

/// A bounded single-producer/single-consumer ring.
///
/// "Single" on each side is enforced, not assumed: each side has a TATAS
/// gate (`producer` / `consumer`), uncontended under shard affinity and the
/// single writer thread, so the public API stays safe even when a caller
/// violates affinity — that is the striped fallback path.
pub(crate) struct SpscRing<T> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop (consumer side).
    head: AtomicUsize,
    /// Next slot to push (producer side).
    tail: AtomicUsize,
    producer: AtomicBool,
    consumer: AtomicBool,
}

// SAFETY: slot `i` is written only by the producer side (serialized by the
// `producer` gate) while `head ≤ i < head + capacity`, and read only by the
// consumer side (serialized by the `consumer` gate) after the producer's
// `tail` release-store publishes it — the acquire-load of `tail` in `pop` /
// `peek_map` synchronizes with that store, so sharing `&SpscRing<T>` across
// threads is sound whenever `T: Send`.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring holding at least `capacity` items (rounded up to a power of
    /// two).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        SpscRing {
            mask: cap - 1,
            buf: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            producer: AtomicBool::new(false),
            consumer: AtomicBool::new(false),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    fn acquire_gate(gate: &AtomicBool) {
        loop {
            if !gate.swap(true, Ordering::Acquire) {
                return;
            }
            let mut spins = 0u32;
            while gate.load(Ordering::Relaxed) {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Claims the producer side. Uncontended under shard affinity.
    pub(crate) fn lock_producer(&self) -> ProducerGuard<'_, T> {
        Self::acquire_gate(&self.producer);
        ProducerGuard { ring: self }
    }

    /// Claims the consumer side. Uncontended: one writer thread at a time.
    pub(crate) fn lock_consumer(&self) -> ConsumerGuard<'_, T> {
        Self::acquire_gate(&self.consumer);
        ConsumerGuard { ring: self }
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Drop any items still queued (e.g. a logger dropped before its
        // writer drained — not reachable through the supervisor, but the
        // ring must not leak in that case either).
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            // SAFETY: `&mut self` gives exclusive access; slots in
            // `head..tail` were initialized by `push` and not yet popped,
            // and each is dropped exactly once here.
            unsafe {
                (*self.buf[i & self.mask].get()).assume_init_drop();
            }
        }
    }
}

/// Exclusive producer access; releases the gate on drop.
pub(crate) struct ProducerGuard<'a, T> {
    ring: &'a SpscRing<T>,
}

impl<T> ProducerGuard<'_, T> {
    pub(crate) fn is_full(&self) -> bool {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let head = self.ring.head.load(Ordering::Acquire);
        tail.wrapping_sub(head) == self.ring.capacity()
    }

    /// Pushes one item. The caller must have checked
    /// [`is_full`](Self::is_full); pushing into a full ring panics rather
    /// than overwrite unpopped frames.
    pub(crate) fn push(&mut self, value: T) {
        assert!(!self.is_full(), "SPSC ring overfull: budget mis-sized");
        let tail = self.ring.tail.load(Ordering::Relaxed);
        // SAFETY: the producer gate is held (only this guard writes slots),
        // and `!is_full()` means slot `tail` is not within the consumer's
        // unpopped `head..tail` window, so writing it races nothing.
        unsafe {
            (*self.ring.buf[tail & self.ring.mask].get()).write(value);
        }
        // Release-publish: pairs with the consumer's acquire-load of
        // `tail`, making the slot write above visible before the new tail.
        self.ring
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
    }
}

impl<T> Drop for ProducerGuard<'_, T> {
    fn drop(&mut self) {
        self.ring.producer.store(false, Ordering::Release);
    }
}

/// Exclusive consumer access; releases the gate on drop.
pub(crate) struct ConsumerGuard<'a, T> {
    ring: &'a SpscRing<T>,
}

impl<T> ConsumerGuard<'_, T> {
    /// Whether the ring has nothing to pop right now (test observability).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        let head = self.ring.head.load(Ordering::Relaxed);
        let tail = self.ring.tail.load(Ordering::Acquire);
        head == tail
    }

    /// Applies `f` to the item at the head without popping it.
    pub(crate) fn peek_map<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        let head = self.ring.head.load(Ordering::Relaxed);
        let tail = self.ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: the consumer gate is held, `head < tail` means slot
        // `head` was initialized by a push whose tail release-store the
        // acquire-load above synchronized with, and the producer cannot
        // overwrite it until `head` advances.
        let item = unsafe { (*self.ring.buf[head & self.ring.mask].get()).assume_init_ref() };
        Some(f(item))
    }

    /// Pops the item at the head.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let head = self.ring.head.load(Ordering::Relaxed);
        let tail = self.ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: as in `peek_map`; additionally the slot is read out by
        // value exactly once, because `head` advances past it below and the
        // consumer gate serializes poppers.
        let value = unsafe { (*self.ring.buf[head & self.ring.mask].get()).assume_init_read() };
        // Release-free: pairs with the producer's acquire-load of `head`
        // in `is_full`, letting it reuse the slot.
        self.ring
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for ConsumerGuard<'_, T> {
    fn drop(&mut self) {
        self.ring.consumer.store(false, Ordering::Release);
    }
}

/// One queued frame plus its global arrival ticket.
struct Ticketed {
    ticket: u64,
    record: LogRecord,
}

/// The per-shard ring set shared by every [`DecisionLogger`] clone and the
/// supervised writer: rings, the global ticket counter, the merge cursor,
/// and the writer's doorbell.
///
/// [`DecisionLogger`]: crate::logger::DecisionLogger
pub(crate) struct LogRings {
    rings: Box<[SpscRing<Ticketed>]>,
    /// Written batch frames on their way back to the shard that built
    /// them, one ring per log ring.
    returns: Box<[SpscRing<BatchRecord>]>,
    /// Next ticket to assign; drawn under a ring's producer gate so ring
    /// order and ticket order agree within each ring.
    next_ticket: AtomicU64,
    /// Next ticket the writer will pop — the merge cursor.
    next_pop: AtomicU64,
    /// Live producer handles (logical: all `DecisionLogger` clones share
    /// one). Zero means the writer can exit once tickets are drained.
    producers: AtomicUsize,
    /// Writer parked flag: producers ring the doorbell only when set,
    /// so the steady-state push path never touches the mutex.
    sleeping: AtomicBool,
    doorbell: Mutex<()>,
    bell: Condvar,
}

impl LogRings {
    /// `rings` rings of `capacity` frames each (`capacity` = the queue
    /// budget's bound in logical records; see the module docs for why that
    /// can never overfill a ring).
    pub(crate) fn new(rings: usize, capacity: usize) -> Self {
        LogRings {
            rings: (0..rings.max(1))
                .map(|_| SpscRing::with_capacity(capacity))
                .collect(),
            returns: (0..rings.max(1))
                .map(|_| SpscRing::with_capacity(RETURN_FRAMES))
                .collect(),
            next_ticket: AtomicU64::new(0),
            next_pop: AtomicU64::new(0),
            producers: AtomicUsize::new(1),
            sleeping: AtomicBool::new(false),
            doorbell: Mutex::new(()),
            bell: Condvar::new(),
        }
    }

    /// Which ring a record belongs to: the deciding shard (`id >> SEQ_BITS`)
    /// of its (first) request id, so decision and outcome traffic for one
    /// shard stay on one ring and the producer gate stays uncontended under
    /// shard affinity.
    fn route(&self, record: &LogRecord) -> usize {
        shard_of(record.request_id(), self.rings.len())
    }

    /// Enqueues one admitted frame: draws the global ticket and pushes,
    /// both under the target ring's producer gate. The caller must hold the
    /// frame's record-weighted budget reservation — that is what bounds the
    /// ring (a full ring here means the budget was bypassed, and the push
    /// waits for the writer rather than corrupt the stream).
    ///
    /// A push does not wake a parked writer; the caller decides when the
    /// backlog is worth a [`ring_bell`](Self::ring_bell).
    pub(crate) fn push(&self, record: LogRecord) {
        let ring = &self.rings[self.route(&record)];
        let mut producer = ring.lock_producer();
        while producer.is_full() {
            std::thread::yield_now();
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::AcqRel);
        producer.push(Ticketed { ticket, record });
    }

    /// Hands a written frame back to the shard that built it. Only batch
    /// frames come back; a full return ring drops the frame.
    pub(crate) fn recycle(&self, record: LogRecord) {
        let LogRecord::Batch(frame) = record else {
            return;
        };
        let first = frame.decisions.first().map_or(0, |d| d.request_id);
        let mut producer = self.returns[shard_of(first, self.returns.len())].lock_producer();
        if !producer.is_full() {
            producer.push(frame);
        }
    }

    /// A written frame handed back to `shard`, if one is waiting.
    pub(crate) fn reclaim(&self, shard: usize) -> Option<BatchRecord> {
        self.returns[shard % self.returns.len()]
            .lock_consumer()
            .pop()
    }

    /// Marks one logical producer gone; the last one wakes the writer so it
    /// can drain and exit.
    pub(crate) fn producer_gone(&self) {
        if self.producers.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.doorbell.lock().unwrap_or_else(|e| e.into_inner());
            self.sleeping.store(false, Ordering::SeqCst);
            self.bell.notify_all();
        }
    }

    /// Wakes the writer if it is parked; a no-op (one atomic swap) when it
    /// is already running.
    pub(crate) fn ring_bell(&self) {
        if self.sleeping.swap(false, Ordering::AcqRel) {
            let _guard = self.doorbell.lock().unwrap_or_else(|e| e.into_inner());
            self.bell.notify_all();
        }
    }

    /// Pops the next frame in global ticket order.
    ///
    /// With `block`, parks on the doorbell until a frame arrives and
    /// returns `None` only when every producer is gone and every assigned
    /// ticket has been popped — the writer's clean-exit condition, matching
    /// the old channel's disconnect. Without `block`, returns `None` as
    /// soon as no ticket is pending (the writer's batch-drain probe).
    pub(crate) fn pop_next(&self, block: bool) -> Option<LogRecord> {
        loop {
            let expected = self.next_pop.load(Ordering::Acquire);
            if self.next_ticket.load(Ordering::Acquire) > expected {
                return Some(self.pop_ticket(expected));
            }
            if self.producers.load(Ordering::Acquire) == 0 {
                // Re-check after observing the hang-up: a ticket drawn
                // before the last producer left must still be drained.
                if self.next_ticket.load(Ordering::Acquire) == expected {
                    return None;
                }
                continue;
            }
            if !block {
                return None;
            }
            // Park. The recheck between setting `sleeping` and waiting
            // closes the race with a producer that pushed in between. The
            // timeout is the liveness floor, and the normal wake-up for a
            // backlog below the producers' bell mark.
            self.sleeping.store(true, Ordering::SeqCst);
            if self.next_ticket.load(Ordering::SeqCst) > expected
                || self.producers.load(Ordering::SeqCst) == 0
            {
                self.sleeping.store(false, Ordering::SeqCst);
                continue;
            }
            let guard = self.doorbell.lock().unwrap_or_else(|e| e.into_inner());
            let waited = self
                .bell
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            drop(waited);
        }
    }

    /// Pops the frame holding `ticket`, which is known to be assigned: it
    /// is at some ring's head (tickets are drawn in push order under each
    /// ring's gate, so per-ring ticket order is ascending) or at most a few
    /// instructions from arriving there.
    fn pop_ticket(&self, ticket: u64) -> LogRecord {
        loop {
            for ring in self.rings.iter() {
                let mut consumer = ring.lock_consumer();
                if consumer.peek_map(|t| t.ticket) == Some(ticket) {
                    let t = consumer.pop().expect("peeked frame must pop");
                    drop(consumer);
                    self.next_pop.store(ticket + 1, Ordering::Release);
                    return t.record;
                }
            }
            // The push that drew this ticket is completing; let it finish.
            std::thread::yield_now();
        }
    }
}

impl std::fmt::Debug for LogRings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogRings")
            .field("rings", &self.rings.len())
            .field("next_ticket", &self.next_ticket.load(Ordering::Relaxed))
            .field("next_pop", &self.next_pop.load(Ordering::Relaxed))
            .field("producers", &self.producers.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SEQ_BITS;
    use harvest_log::record::OutcomeRecord;
    use std::sync::Arc;

    fn outcome(shard: u64, seq: u64) -> LogRecord {
        LogRecord::Outcome(OutcomeRecord {
            request_id: (shard << SEQ_BITS) | seq,
            timestamp_ns: seq,
            reward: 0.0,
        })
    }

    #[test]
    fn ring_is_fifo_and_bounded() {
        let ring: SpscRing<u64> = SpscRing::with_capacity(4);
        assert_eq!(ring.capacity(), 4);
        {
            let mut p = ring.lock_producer();
            for i in 0..4 {
                assert!(!p.is_full());
                p.push(i);
            }
            assert!(p.is_full());
        }
        let mut c = ring.lock_consumer();
        assert_eq!(c.peek_map(|&v| v), Some(0));
        for i in 0..4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn unpopped_items_are_dropped_with_the_ring() {
        let flag = Arc::new(AtomicUsize::new(0));
        struct Bump(Arc<AtomicUsize>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let ring: SpscRing<Bump> = SpscRing::with_capacity(8);
        {
            let mut p = ring.lock_producer();
            for _ in 0..3 {
                p.push(Bump(Arc::clone(&flag)));
            }
        }
        ring.lock_consumer().pop();
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        drop(ring);
        assert_eq!(flag.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn merge_order_is_ticket_order_across_rings() {
        let rings = LogRings::new(4, 64);
        // Interleave pushes across shards; the pop order must match the
        // push (= ticket) order exactly.
        let sequence: Vec<(u64, u64)> = (0..32).map(|i| (i % 4, i / 4)).collect();
        for &(shard, seq) in &sequence {
            rings.push(outcome(shard, seq));
        }
        rings.producer_gone();
        for &(shard, seq) in &sequence {
            assert_eq!(rings.pop_next(true), Some(outcome(shard, seq)));
        }
        assert_eq!(rings.pop_next(true), None);
    }

    #[test]
    fn blocking_pop_waits_for_a_late_producer() {
        let rings = Arc::new(LogRings::new(2, 16));
        let r2 = Arc::clone(&rings);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            r2.push(outcome(1, 7));
            r2.producer_gone();
        });
        assert_eq!(rings.pop_next(true), Some(outcome(1, 7)));
        assert_eq!(rings.pop_next(true), None);
        t.join().unwrap();
    }

    #[test]
    fn nonblocking_pop_returns_none_when_idle() {
        let rings = LogRings::new(2, 16);
        assert_eq!(rings.pop_next(false), None);
        rings.push(outcome(0, 0));
        assert_eq!(rings.pop_next(false), Some(outcome(0, 0)));
        assert_eq!(rings.pop_next(false), None);
    }
}
