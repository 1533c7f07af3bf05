//! Reusable output buffer for the batched decide path.
//!
//! [`DecisionBatch`] is the caller-owned scratch that
//! [`DecisionService::decide_batch`](crate::service::DecisionService::decide_batch)
//! and [`DecisionEngine::decide_batch`](crate::engine::DecisionEngine::decide_batch)
//! fill. Reusing one across calls keeps the hot path's own allocations
//! amortized: the decision buffer and the degraded mask retain their
//! capacity between batches. The log frame's buffers — its entry vector
//! and the per-decision feature copies — are reused too, but not through
//! this buffer: the writer hands each written batch frame back to its
//! shard, and the engine refills it.

use crate::engine::Decision;

/// Caller-owned, reusable output buffer for one batched decide call.
///
/// Create it once (ideally with [`with_capacity`](DecisionBatch::with_capacity)
/// matching your batch size) and pass `&mut` to every `decide_batch` call;
/// each call clears and refills it.
#[derive(Debug, Default)]
pub struct DecisionBatch {
    /// The served decisions, in request order.
    pub(crate) decisions: Vec<Decision>,
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
