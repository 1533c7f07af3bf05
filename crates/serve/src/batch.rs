//! Reusable output buffer for the batched decide path.
//!
//! [`DecisionBatch`] is the caller-owned scratch that
//! [`DecisionService::decide_batch`](crate::service::DecisionService::decide_batch)
//! and [`DecisionEngine::decide_batch`](crate::engine::DecisionEngine::decide_batch)
//! fill. Reusing one across calls keeps the hot path's own allocations
//! amortized: the decision buffer and the degraded mask retain their
//! capacity between batches, so a steady-state serve loop allocates only
//! what the log record itself must own — one `Vec` of
//! [`BatchDecision`] entries per batch
//! (the record is moved into the writer queue, so its buffer cannot be
//! reclaimed), plus the per-decision feature clones every logged decision
//! has always carried. That replaces the single-call path's per-decision
//! record allocation and per-decision queue hand-off with one of each per
//! batch.

use crate::engine::Decision;
use harvest_log::record::BatchDecision;

/// Caller-owned, reusable output buffer for one batched decide call.
///
/// Create it once (ideally with [`with_capacity`](DecisionBatch::with_capacity)
/// matching your batch size) and pass `&mut` to every `decide_batch` call;
/// each call clears and refills it.
#[derive(Debug, Default)]
pub struct DecisionBatch {
    /// The served decisions, in request order.
    pub(crate) decisions: Vec<Decision>,
    /// Staging for the batch log record's payload. `mem::take`n into the
    /// record at the end of each engine batch, so it is empty between
    /// calls; kept here so the field count documents the full allocation
    /// story in one place.
    pub(crate) entries: Vec<BatchDecision>,
    /// Per-decision degraded-mode mask, filled by the service layer from
    /// the circuit breaker *per decision* — the breaker can open or
    /// re-arm mid-batch, and the RNG draw sequence (hence the whole
    /// decision stream) depends on which policy serves each slot.
    pub(crate) degraded: Vec<bool>,
}

impl DecisionBatch {
    /// An empty batch buffer.
    pub fn new() -> Self {
        DecisionBatch::default()
    }

    /// An empty batch buffer with room for `n` decisions.
    pub fn with_capacity(n: usize) -> Self {
        DecisionBatch {
            decisions: Vec::with_capacity(n),
            entries: Vec::with_capacity(n),
            degraded: Vec::with_capacity(n),
        }
    }

    /// The decisions from the last `decide_batch` call, in request order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Number of decisions currently held.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether the buffer holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Iterates the held decisions.
    pub fn iter(&self) -> std::slice::Iter<'_, Decision> {
        self.decisions.iter()
    }

    /// Clears all buffers, retaining capacity.
    pub(crate) fn reset(&mut self) {
        self.decisions.clear();
        self.entries.clear();
        self.degraded.clear();
    }
}

impl<'a> IntoIterator for &'a DecisionBatch {
    type Item = &'a Decision;
    type IntoIter = std::slice::Iter<'a, Decision>;

    fn into_iter(self) -> Self::IntoIter {
        self.decisions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_survives_reset() {
        let mut b = DecisionBatch::with_capacity(64);
        b.degraded.extend(std::iter::repeat_n(false, 64));
        b.reset();
        assert!(b.is_empty());
        assert!(b.decisions.capacity() >= 64);
        assert!(b.degraded.capacity() >= 64);
        assert_eq!(b.iter().count(), 0);
    }
}
