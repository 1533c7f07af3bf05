//! Decision-stump and shallow-tree policy templates.
//!
//! Paper §4: "Typically Π is defined by a tunable template, such as
//! decision trees, neural nets, or linear vectors", and the efficiency
//! argument of Figs. 1–2 is about evaluating *millions* of template
//! instances simultaneously. This module provides the tree templates and
//! their enumeration: a single [`DecisionStump`] family over `F` features ×
//! `T` thresholds × `A²` leaf actions already reaches |Π| = F·T·A², and
//! [`DepthTwoTree`]s square that — comfortably past the paper's 10⁶.

use serde::Serialize;

use crate::context::Context;
use crate::policy::Policy;

/// A one-split decision policy: test one shared feature against a
/// threshold, take one of two actions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DecisionStump {
    /// Index into the context's shared features.
    pub feature: usize,
    /// Split threshold.
    pub threshold: f64,
    /// Action when `feature value ≤ threshold`.
    pub low_action: usize,
    /// Action when `feature value > threshold`.
    pub high_action: usize,
}

impl DecisionStump {
    /// Which branch's action this stump takes for `ctx` (clamped into the
    /// context's action set). Missing features compare as 0.0, matching
    /// how absent log fields default.
    fn raw_choose<C: Context>(&self, ctx: &C) -> usize {
        let x = ctx
            .shared_features()
            .get(self.feature)
            .copied()
            .unwrap_or(0.0);
        if x <= self.threshold {
            self.low_action
        } else {
            self.high_action
        }
    }
}

impl<C: Context> Policy<C> for DecisionStump {
    fn choose(&self, ctx: &C) -> usize {
        self.raw_choose(ctx).min(ctx.num_actions() - 1)
    }

    fn name(&self) -> String {
        format!(
            "stump(f{}<={:.3} ? {} : {})",
            self.feature, self.threshold, self.low_action, self.high_action
        )
    }
}

/// A depth-two tree: a root stump whose branches each delegate to another
/// stump. |Π| grows with the square of the stump count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DepthTwoTree {
    /// The root split (its leaf actions are ignored).
    pub root_feature: usize,
    /// The root threshold.
    pub root_threshold: f64,
    /// The stump used when the root test is ≤.
    pub low: DecisionStump,
    /// The stump used when the root test is >.
    pub high: DecisionStump,
}

impl<C: Context> Policy<C> for DepthTwoTree {
    fn choose(&self, ctx: &C) -> usize {
        let x = ctx
            .shared_features()
            .get(self.root_feature)
            .copied()
            .unwrap_or(0.0);
        let leaf = if x <= self.root_threshold {
            &self.low
        } else {
            &self.high
        };
        leaf.raw_choose(ctx).min(ctx.num_actions() - 1)
    }

    fn name(&self) -> String {
        format!(
            "tree(f{}<={:.3} ? {} : {})",
            self.root_feature,
            self.root_threshold,
            Policy::<C>::name(&self.low),
            Policy::<C>::name(&self.high)
        )
    }
}

/// Enumerates every stump over `features` feature indices, the given
/// thresholds, and `actions` actions — the policy class Π whose size enters
/// Eq. 1 as K = features · thresholds · actions².
pub fn enumerate_stumps(features: usize, thresholds: &[f64], actions: usize) -> Vec<DecisionStump> {
    let mut out = Vec::with_capacity(features * thresholds.len() * actions * actions);
    for feature in 0..features {
        for &threshold in thresholds {
            for low_action in 0..actions {
                for high_action in 0..actions {
                    out.push(DecisionStump {
                        feature,
                        threshold,
                        low_action,
                        high_action,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimpleContext;

    #[test]
    fn stump_splits_on_its_feature() {
        let s = DecisionStump {
            feature: 1,
            threshold: 0.5,
            low_action: 0,
            high_action: 2,
        };
        assert_eq!(s.choose(&SimpleContext::new(vec![9.0, 0.4], 3)), 0);
        assert_eq!(s.choose(&SimpleContext::new(vec![9.0, 0.6], 3)), 2);
        // Boundary goes low.
        assert_eq!(s.choose(&SimpleContext::new(vec![9.0, 0.5], 3)), 0);
    }

    #[test]
    fn stump_clamps_actions_and_tolerates_missing_features() {
        let s = DecisionStump {
            feature: 7,
            threshold: -1.0,
            low_action: 9,
            high_action: 9,
        };
        // Feature 7 is missing => 0.0 > -1.0 => high action, clamped to 1.
        assert_eq!(s.choose(&SimpleContext::new(vec![1.0], 2)), 1);
    }

    #[test]
    fn depth_two_tree_composes_stumps() {
        let low = DecisionStump {
            feature: 1,
            threshold: 0.0,
            low_action: 0,
            high_action: 1,
        };
        let high = DecisionStump {
            feature: 1,
            threshold: 0.0,
            low_action: 2,
            high_action: 3,
        };
        let t = DepthTwoTree {
            root_feature: 0,
            root_threshold: 0.0,
            low,
            high,
        };
        let ctx = |a: f64, b: f64| SimpleContext::new(vec![a, b], 4);
        assert_eq!(t.choose(&ctx(-1.0, -1.0)), 0);
        assert_eq!(t.choose(&ctx(-1.0, 1.0)), 1);
        assert_eq!(t.choose(&ctx(1.0, -1.0)), 2);
        assert_eq!(t.choose(&ctx(1.0, 1.0)), 3);
    }

    #[test]
    fn enumeration_counts_match() {
        let thresholds = [0.25, 0.5, 0.75];
        let class = enumerate_stumps(4, &thresholds, 5);
        assert_eq!(class.len(), 4 * 3 * 5 * 5);
        // All members are distinct.
        let mut seen = std::collections::HashSet::new();
        for s in &class {
            assert!(seen.insert((
                s.feature,
                s.threshold.to_bits(),
                s.low_action,
                s.high_action
            )));
        }
        // With 10 features, 100 thresholds, 10 actions the class passes
        // the paper's 10^5; depth-2 trees square the stump count.
        assert_eq!(10usize * 100 * 10 * 10, 100_000);
    }

    #[test]
    fn names_are_descriptive() {
        let s = DecisionStump {
            feature: 2,
            threshold: 0.125,
            low_action: 0,
            high_action: 1,
        };
        let n = Policy::<SimpleContext>::name(&s);
        assert!(n.contains("f2") && n.contains("0.125"), "{n}");
    }
}
