//! Reusable admission primitives.
//!
//! [`QueueBudget`] began life as the decision logger's private queue bound
//! and is promoted here because the same shape — a weighted semaphore whose
//! units are *logical records*, with a blocking and a refusing acquire —
//! is exactly what a network front-end needs for load shedding: the wire
//! layer (`harvest-wire`) bounds its in-flight decision work with one of
//! these, refusing excess at the door instead of queueing unboundedly.
//!
//! Refusals shed by out-of-crate admission layers are surfaced in the
//! conservation ledger via [`ServeMetrics::record_admission_shed_n`], so a
//! drained system still accounts for every request it turned away.
//!
//! [`ServeMetrics::record_admission_shed_n`]: crate::metrics::ServeMetrics::record_admission_shed_n

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A capacity budget counted in **logical records**: a frame weighs
/// [`record_count`](harvest_log::record::LogRecord::record_count), so a
/// 256-decision batch frame consumes 256 units of capacity, not one channel
/// slot. Without this, batched work would queue `capacity × batch_size`
/// decisions where single calls queue `capacity` — an unbounded memory
/// multiplier and a silent change to what "full" means.
///
/// Two acquire flavors serve the two admission stances:
/// [`acquire_blocking`](QueueBudget::acquire_blocking) (lossless, adds
/// latency — how the decision logger waits for its writer) and
/// [`try_acquire`](QueueBudget::try_acquire) (refusing — wire-level load
/// shedding, where every refusal is counted as a shed). Callers release a
/// reservation when the work it covered leaves the queue — *before* the
/// work is completed, so a mid-completion panic can never leak capacity
/// and wedge blocked producers.
///
/// The count itself is a lone atomic: `try_acquire` and `release` — the
/// lock-free hot path — are a CAS loop each, with no mutex and no futex.
/// The mutex/condvar pair exists only for `acquire_blocking` waiters, and
/// `release` touches it only when the waiter counter says someone is
/// actually parked.
///
/// One edge: a single acquisition heavier than the whole capacity can
/// never fit, so it is admitted when the budget is idle rather than
/// deadlocking — the bound degrades to "one oversized acquisition at a
/// time".
#[derive(Debug)]
pub struct QueueBudget {
    capacity: u64,
    queued: AtomicU64,
    /// Parked `acquire_blocking` callers; `release` skips the mutex when 0.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    freed: Condvar,
}

impl QueueBudget {
    /// A fresh budget admitting up to `capacity` logical records.
    pub fn new(capacity: u64) -> Self {
        QueueBudget {
            capacity,
            queued: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            freed: Condvar::new(),
        }
    }

    /// The configured capacity in logical records.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Records currently reserved.
    pub fn in_use(&self) -> u64 {
        self.queued.load(Ordering::Acquire)
    }

    /// Blocks until `n` records fit (or the queue is empty, for frames
    /// heavier than the whole capacity), then reserves them.
    pub fn acquire_blocking(&self, n: u64) {
        if self.try_acquire(n) {
            return;
        }
        // Slow path: register as a waiter, then re-check *inside* the
        // mutex before every wait — `release` only notifies under the same
        // mutex (and only when `waiters > 0`), so a release between our
        // failed try and the wait cannot be missed.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while !self.try_acquire(n) {
            // Bounded wait: the notify-under-mutex protocol makes a lost
            // wakeup unreachable in practice, and the timeout makes even a
            // theoretical one cost a stall instead of a deadlock.
            guard = self
                .freed
                .wait_timeout(guard, std::time::Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Reserves `n` records if they fit right now; `false` refuses.
    pub fn try_acquire(&self, n: u64) -> bool {
        let mut queued = self.queued.load(Ordering::Relaxed);
        loop {
            if queued.saturating_add(n) > self.capacity && queued > 0 {
                return false;
            }
            match self.queued.compare_exchange_weak(
                queued,
                queued.saturating_add(n),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => queued = actual,
            }
        }
    }

    /// Returns `n` records to the budget and wakes blocked producers.
    pub fn release(&self, n: u64) {
        let mut queued = self.queued.load(Ordering::Relaxed);
        loop {
            match self.queued.compare_exchange_weak(
                queued,
                queued.saturating_sub(n),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => queued = actual,
            }
        }
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Take the mutex before notifying: a waiter is either still
            // inside it (it will re-try and see our decrement) or already
            // parked (the notify reaches it).
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.freed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_acquire_refuses_past_capacity_and_release_restores() {
        let b = QueueBudget::new(4);
        assert_eq!(b.capacity(), 4);
        assert!(b.try_acquire(3));
        assert_eq!(b.in_use(), 3);
        assert!(!b.try_acquire(2), "3 + 2 > 4 must refuse");
        assert!(b.try_acquire(1));
        b.release(4);
        assert_eq!(b.in_use(), 0);
        assert!(b.try_acquire(4));
    }

    #[test]
    fn oversized_acquisition_is_admitted_when_idle() {
        let b = QueueBudget::new(2);
        // Heavier than the whole budget: admitted alone rather than
        // deadlocking, refused while anything else is queued.
        assert!(b.try_acquire(10));
        assert!(!b.try_acquire(1));
        b.release(10);
        assert!(b.try_acquire(1));
    }

    #[test]
    fn acquire_blocking_waits_for_release() {
        let b = Arc::new(QueueBudget::new(1));
        b.acquire_blocking(1);
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || {
            b2.acquire_blocking(1); // blocks until the release below
            b2.release(1);
        });
        b.release(1);
        t.join().unwrap();
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    fn contended_acquire_release_conserves_capacity() {
        let b = Arc::new(QueueBudget::new(8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        b.acquire_blocking(2);
                        b.release(2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(b.in_use(), 0);
        assert!(b.try_acquire(8));
    }
}
