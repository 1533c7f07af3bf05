//! Contexts: what a policy sees when it makes a decision.
//!
//! A context carries two kinds of features:
//!
//! * **shared features** describe the world at decision time and are common
//!   to all actions — e.g. the machine's hardware SKU and failure history in
//!   the machine-health scenario;
//! * **per-action features** describe each eligible action — e.g. the open
//!   connection count of each backend server, or the size and recency of
//!   each eviction candidate.
//!
//! Splitting them lets learners choose between *per-action* modeling (one
//! weight vector per semantic action slot — right when actions are fixed,
//! like wait times 1–10 min) and *pooled* modeling (one weight vector over
//! action features — right when actions are interchangeable candidates,
//! like items sampled for eviction, where the action set changes per
//! decision).

use serde::Serialize;

/// A decision context: shared features plus a finite action set, optionally
/// with per-action features.
///
/// Action indices are `0..num_actions()`. The action set — both its size and
/// the per-action features — may vary between contexts (paper Table 1: the
/// action set for cache eviction is "a subsample of items").
pub trait Context {
    /// Number of eligible actions in this context. Must be at least 1.
    fn num_actions(&self) -> usize;

    /// Features common to every action.
    fn shared_features(&self) -> &[f64];

    /// Features of a particular action. May be empty if actions carry no
    /// features (pure slot semantics).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `action >= num_actions()`.
    fn action_features(&self, action: usize) -> &[f64];

    /// Dimension of per-action feature vectors (0 if actions carry none).
    fn action_feature_dim(&self) -> usize {
        if self.num_actions() == 0 {
            0
        } else {
            self.action_features(0).len()
        }
    }
}

/// The standard owned context: a shared feature vector and either a plain
/// action count or explicit per-action feature vectors.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimpleContext {
    shared: Vec<f64>,
    per_action: Vec<Vec<f64>>,
    num_actions: usize,
}

impl SimpleContext {
    /// A context with `num_actions` featureless actions.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions == 0`.
    pub fn new(shared: Vec<f64>, num_actions: usize) -> Self {
        assert!(num_actions > 0, "a context needs at least one action");
        SimpleContext {
            shared,
            per_action: Vec::new(),
            num_actions,
        }
    }

    /// A context whose actions carry feature vectors (all the same length).
    ///
    /// # Panics
    ///
    /// Panics if `per_action` is empty or its vectors have differing
    /// lengths.
    pub fn with_action_features(shared: Vec<f64>, per_action: Vec<Vec<f64>>) -> Self {
        assert!(
            !per_action.is_empty(),
            "a context needs at least one action"
        );
        let dim = per_action[0].len();
        assert!(
            per_action.iter().all(|f| f.len() == dim),
            "per-action features must share a dimension"
        );
        let num_actions = per_action.len();
        SimpleContext {
            shared,
            per_action,
            num_actions,
        }
    }

    /// A context with no features at all — `num_actions` anonymous arms.
    /// Degenerates the contextual bandit to a plain multi-armed bandit;
    /// useful in tests and as a baseline.
    pub fn contextless(num_actions: usize) -> Self {
        SimpleContext::new(Vec::new(), num_actions)
    }

    /// Rebuilds this context in place as [`SimpleContext::new`] would,
    /// keeping the shared-feature buffer: a loop that refills one context
    /// per record allocates only when a record outgrows every earlier one.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions == 0`.
    pub fn refill(&mut self, shared: impl IntoIterator<Item = f64>, num_actions: usize) {
        assert!(num_actions > 0, "a context needs at least one action");
        self.shared.clear();
        self.shared.extend(shared);
        self.per_action.clear();
        self.num_actions = num_actions;
    }

    /// Rebuilds this context in place as
    /// [`SimpleContext::with_action_features`] would, refilling the
    /// feature buffers it already has.
    ///
    /// # Panics
    ///
    /// Panics if `per_action` is empty or its rows have differing lengths.
    pub fn refill_with_action_features<R: IntoIterator<Item = f64>>(
        &mut self,
        shared: impl IntoIterator<Item = f64>,
        per_action: impl IntoIterator<Item = R>,
    ) {
        self.shared.clear();
        self.shared.extend(shared);
        let mut rows = 0;
        for row in per_action {
            if rows == self.per_action.len() {
                self.per_action.push(Vec::new());
            }
            let slot = &mut self.per_action[rows];
            slot.clear();
            slot.extend(row);
            rows += 1;
        }
        self.per_action.truncate(rows);
        assert!(rows > 0, "a context needs at least one action");
        let dim = self.per_action[0].len();
        assert!(
            self.per_action.iter().all(|f| f.len() == dim),
            "per-action features must share a dimension"
        );
        self.num_actions = rows;
    }

    /// The explicit per-action feature vectors, or `None` for a context
    /// built without them ([`SimpleContext::new`]).
    pub fn per_action_features(&self) -> Option<&[Vec<f64>]> {
        (!self.per_action.is_empty()).then_some(self.per_action.as_slice())
    }
}

impl Context for SimpleContext {
    fn num_actions(&self) -> usize {
        self.num_actions
    }

    fn shared_features(&self) -> &[f64] {
        &self.shared
    }

    fn action_features(&self, action: usize) -> &[f64] {
        assert!(
            action < self.num_actions,
            "action {action} out of range for {} actions",
            self.num_actions
        );
        if self.per_action.is_empty() {
            &[]
        } else {
            &self.per_action[action]
        }
    }
}

/// Assembles the regression feature vector φ(x, a) for a (context, action)
/// pair: shared features, then the action's features, then a constant 1.0
/// bias term.
///
/// Every regressor and scorer in the workspace uses this same assembly, so
/// models trained by one component are usable by any other.
pub fn phi<C: Context>(ctx: &C, action: usize) -> Vec<f64> {
    let shared = ctx.shared_features();
    let af = ctx.action_features(action);
    let mut v = Vec::with_capacity(shared.len() + af.len() + 1);
    v.extend_from_slice(shared);
    v.extend_from_slice(af);
    v.push(1.0);
    v
}

/// Dimension of [`phi`] vectors for contexts shaped like `ctx`.
pub fn phi_dim<C: Context>(ctx: &C) -> usize {
    ctx.shared_features().len() + ctx.action_feature_dim() + 1
}

/// Assembles the shared-only feature vector (shared features plus bias),
/// used by per-action models that ignore action features.
pub fn phi_shared<C: Context>(ctx: &C) -> Vec<f64> {
    let shared = ctx.shared_features();
    let mut v = Vec::with_capacity(shared.len() + 1);
    v.extend_from_slice(shared);
    v.push(1.0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_context_slot_actions() {
        let c = SimpleContext::new(vec![1.0, 2.0], 3);
        assert_eq!(c.num_actions(), 3);
        assert_eq!(c.shared_features(), &[1.0, 2.0]);
        assert_eq!(c.action_features(2), &[] as &[f64]);
        assert_eq!(c.action_feature_dim(), 0);
    }

    #[test]
    fn simple_context_with_action_features() {
        let c =
            SimpleContext::with_action_features(vec![0.5], vec![vec![1.0, 10.0], vec![2.0, 20.0]]);
        assert_eq!(c.num_actions(), 2);
        assert_eq!(c.action_features(1), &[2.0, 20.0]);
        assert_eq!(c.action_feature_dim(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_action_panics() {
        let c = SimpleContext::new(vec![], 2);
        let _ = c.action_features(2);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn ragged_action_features_panic() {
        let _ = SimpleContext::with_action_features(vec![], vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn zero_actions_panic() {
        let _ = SimpleContext::new(vec![], 0);
    }

    #[test]
    fn phi_concatenates_with_bias() {
        let c = SimpleContext::with_action_features(vec![1.0, 2.0], vec![vec![3.0], vec![4.0]]);
        assert_eq!(phi(&c, 0), vec![1.0, 2.0, 3.0, 1.0]);
        assert_eq!(phi(&c, 1), vec![1.0, 2.0, 4.0, 1.0]);
        assert_eq!(phi_dim(&c), 4);
        assert_eq!(phi_shared(&c), vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn contextless_has_only_bias() {
        let c = SimpleContext::contextless(4);
        assert_eq!(phi(&c, 3), vec![1.0]);
        assert_eq!(phi_dim(&c), 1);
    }

    #[test]
    fn serializes_every_field_in_declaration_order() {
        let c = SimpleContext::with_action_features(vec![1.5], vec![vec![2.0], vec![-3.0]]);
        assert_eq!(
            serde_json::to_string(&c).unwrap(),
            r#"{"shared":[1.5],"per_action":[[2],[-3]],"num_actions":2}"#
        );
    }
}
