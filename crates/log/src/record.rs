//! Decision and outcome log records.
//!
//! Systems that make randomized decisions log two kinds of events, often far
//! apart in time:
//!
//! * a [`DecisionRecord`] at decision time — the context the policy saw,
//!   the action taken, and (when the code path knows it) the propensity;
//! * an [`OutcomeRecord`] when the consequence materializes — a request
//!   completes, a machine recovers, an evicted key is re-requested.
//!
//! The scavenger joins them by `request_id`. On disk and on the wire a
//! record is one binary payload of [`crate::codec`], framed by
//! [`crate::segment`].

/// A decision-time log record: the `⟨x, a⟩` (and maybe `p`) of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Correlates this decision with its outcome.
    pub request_id: u64,
    /// Nanoseconds since the start of the trace.
    pub timestamp_ns: u64,
    /// Which component logged this (e.g. "nginx-lb", "redis-evict").
    pub component: String,
    /// Shared context features at decision time.
    pub shared_features: Vec<f64>,
    /// Per-action features, if the action set carries them.
    pub action_features: Option<Vec<Vec<f64>>>,
    /// Size of the eligible action set.
    pub num_actions: usize,
    /// The action taken.
    pub action: usize,
    /// The decision probability, when known at the logging site. `None`
    /// when it must be inferred later (paper §3 step 2).
    pub propensity: Option<f64>,
    /// The reward, when it is known synchronously (e.g. request latency
    /// measured by the proxy itself). `None` when it arrives via a
    /// separate [`OutcomeRecord`].
    pub reward: Option<f64>,
}

/// An outcome log record: the (possibly delayed) reward of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeRecord {
    /// Matches the decision's `request_id`.
    pub request_id: u64,
    /// Nanoseconds since the start of the trace.
    pub timestamp_ns: u64,
    /// The observed reward.
    pub reward: f64,
}

/// One decision inside a [`BatchRecord`]: a [`DecisionRecord`] minus the
/// `component`, which the batch stores once for all of its decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDecision {
    /// Correlates this decision with its outcome.
    pub request_id: u64,
    /// Nanoseconds since the start of the trace.
    pub timestamp_ns: u64,
    /// Shared context features at decision time.
    pub shared_features: Vec<f64>,
    /// Per-action features, if the action set carries them.
    pub action_features: Option<Vec<Vec<f64>>>,
    /// Size of the eligible action set.
    pub num_actions: usize,
    /// The action taken.
    pub action: usize,
    /// The decision probability, when known at the logging site.
    pub propensity: Option<f64>,
    /// The reward, when it is known synchronously.
    pub reward: Option<f64>,
}

impl BatchDecision {
    /// Expands back into a standalone [`DecisionRecord`] under the batch's
    /// shared `component`.
    pub fn into_decision(self, component: &str) -> DecisionRecord {
        self.with_component(component.to_string())
    }

    fn with_component(self, component: String) -> DecisionRecord {
        DecisionRecord {
            request_id: self.request_id,
            timestamp_ns: self.timestamp_ns,
            component,
            shared_features: self.shared_features,
            action_features: self.action_features,
            num_actions: self.num_actions,
            action: self.action,
            propensity: self.propensity,
            reward: self.reward,
        }
    }
}

impl From<DecisionRecord> for BatchDecision {
    fn from(d: DecisionRecord) -> Self {
        BatchDecision {
            request_id: d.request_id,
            timestamp_ns: d.timestamp_ns,
            shared_features: d.shared_features,
            action_features: d.action_features,
            num_actions: d.num_actions,
            action: d.action,
            propensity: d.propensity,
            reward: d.reward,
        }
    }
}

/// A batch of decision records from one component, logged as a single
/// record (and, in the segment format, a single CRC'd frame). The batched
/// hot path uses this to amortize the per-record queue offer and frame
/// write; recovery flattens it back into individual [`DecisionRecord`]s,
/// so everything downstream of recovery sees the exact stream a
/// single-call run would have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// The component all decisions in the batch share.
    pub component: String,
    /// The batched decisions, in decision order.
    pub decisions: Vec<BatchDecision>,
}

impl BatchRecord {
    /// Expands into standalone [`DecisionRecord`]s, in decision order.
    pub fn flatten(&self) -> impl Iterator<Item = DecisionRecord> + '_ {
        self.decisions
            .iter()
            .map(|d| d.clone().into_decision(&self.component))
    }
}

/// Either record kind, as found when replaying a mixed log stream.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A decision-time record.
    Decision(DecisionRecord),
    /// An outcome record.
    Outcome(OutcomeRecord),
    /// A batch of decision records sharing one component (one segment
    /// frame on disk; flattened back to decisions by recovery).
    Batch(BatchRecord),
}

impl LogRecord {
    /// The log frame for `decisions` served together under one
    /// `component`: a lone decision is written as a plain
    /// [`LogRecord::Decision`], anything else as one [`LogRecord::Batch`].
    /// A single call and a batch of one therefore log the same bytes, and
    /// this is the only place that choice is made.
    pub fn from_decisions(component: String, decisions: Vec<BatchDecision>) -> LogRecord {
        match <[BatchDecision; 1]>::try_from(decisions) {
            Ok([d]) => LogRecord::Decision(d.with_component(component)),
            Err(decisions) => LogRecord::Batch(BatchRecord {
                component,
                decisions,
            }),
        }
    }

    /// The request id this record belongs to — the join key between
    /// decisions and outcomes, and the trace key in observability. For a
    /// batch this is the *first* decision's id (the batch reserves a
    /// contiguous id range); `0` for an empty batch.
    pub fn request_id(&self) -> u64 {
        match self {
            LogRecord::Decision(d) => d.request_id,
            LogRecord::Outcome(o) => o.request_id,
            LogRecord::Batch(b) => b.decisions.first().map_or(0, |d| d.request_id),
        }
    }

    /// The logical timestamp this record was stamped with — for a batch,
    /// the first decision's (`0` for an empty batch). Drives time-based
    /// segment rotation; never a wall clock.
    pub fn timestamp_ns(&self) -> u64 {
        match self {
            LogRecord::Decision(d) => d.timestamp_ns,
            LogRecord::Outcome(o) => o.timestamp_ns,
            LogRecord::Batch(b) => b.decisions.first().map_or(0, |d| d.timestamp_ns),
        }
    }

    /// Whether this is a decision-time record. A batch is all decisions,
    /// but callers that need per-decision handling (tracing, joining)
    /// must iterate [`BatchRecord::decisions`] — so this stays `false`
    /// to keep single-record code paths from mishandling batches.
    pub fn is_decision(&self) -> bool {
        matches!(self, LogRecord::Decision(_))
    }

    /// How many logical records this value carries: 1 for a decision or
    /// outcome, the batch length for a batch. The conservation ledger
    /// (`enqueued == written + dropped + quarantined`) is counted in
    /// logical records, so every accounting site scales by this.
    pub fn record_count(&self) -> usize {
        match self {
            LogRecord::Decision(_) | LogRecord::Outcome(_) => 1,
            LogRecord::Batch(b) => b.decisions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_decision() -> DecisionRecord {
        DecisionRecord {
            request_id: 42,
            timestamp_ns: 1_000_000,
            component: "nginx-lb".to_string(),
            shared_features: vec![1.0, 2.0],
            action_features: Some(vec![vec![0.1], vec![0.2]]),
            num_actions: 2,
            action: 1,
            propensity: Some(0.5),
            reward: None,
        }
    }

    #[test]
    fn batch_flattens_to_the_equivalent_decisions() {
        let d0 = sample_decision();
        let mut d1 = sample_decision();
        d1.request_id = 43;
        let batch = BatchRecord {
            component: d0.component.clone(),
            decisions: vec![d0.clone().into(), d1.clone().into()],
        };
        let flat: Vec<DecisionRecord> = batch.flatten().collect();
        assert_eq!(flat, vec![d0, d1]);
        let rec = LogRecord::Batch(batch);
        assert_eq!(rec.record_count(), 2);
        assert_eq!(rec.request_id(), 42);
        assert!(!rec.is_decision());
    }
}
