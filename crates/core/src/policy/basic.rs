//! Deterministic policies: constant, closure-based, and greedy-over-scorer.

use crate::context::Context;
use crate::policy::Policy;
use crate::scorer::Scorer;

/// Always takes the same action ("send to 1" in Table 2; a fixed wait time
/// in the machine-health scenario).
///
/// If the configured action exceeds a context's action count, the highest
/// eligible action is taken instead — matching how a fixed configuration
/// behaves when a system shrinks its action set at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantPolicy {
    action: usize,
}

impl ConstantPolicy {
    /// A policy that always takes `action`.
    pub fn new(action: usize) -> Self {
        ConstantPolicy { action }
    }

    /// The configured action.
    pub fn action(&self) -> usize {
        self.action
    }
}

impl<C: Context> Policy<C> for ConstantPolicy {
    fn choose(&self, ctx: &C) -> usize {
        self.action.min(ctx.num_actions() - 1)
    }

    fn name(&self) -> String {
        format!("send-to-{}", self.action)
    }
}

/// A policy defined by a closure; the workhorse for hand-written heuristics
/// ("least loaded", "freq/size") and for constructing large policy classes
/// in the Fig 1 / Fig 2 experiments.
pub struct FnPolicy<F> {
    f: F,
    name: String,
}

impl<F> FnPolicy<F> {
    /// Wraps `f` as a policy with a display `name`.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnPolicy {
            f,
            name: name.into(),
        }
    }
}

impl<C: Context, F: Fn(&C) -> usize> Policy<C> for FnPolicy<F> {
    fn choose(&self, ctx: &C) -> usize {
        let a = (self.f)(ctx);
        debug_assert!(a < ctx.num_actions(), "FnPolicy chose {a} out of range");
        a.min(ctx.num_actions() - 1)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Takes the action with the highest score under a [`Scorer`] — the policy a
/// CB learner induces from its reward model ("greedily picking the lowest
/// latency yields a good policy", paper §5).
///
/// Ties break toward the lowest action index, making the policy
/// deterministic and reproducible.
#[derive(Debug, Clone)]
pub struct GreedyPolicy<S> {
    scorer: S,
    name: String,
}

impl<S> GreedyPolicy<S> {
    /// A greedy policy over `scorer`.
    pub fn new(scorer: S) -> Self {
        GreedyPolicy {
            scorer,
            name: "greedy".to_string(),
        }
    }

    /// Sets the display name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The underlying scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }
}

impl<C: Context, S: Scorer<C>> Policy<C> for GreedyPolicy<S> {
    fn choose(&self, ctx: &C) -> usize {
        self.scorer.greedy_action(ctx)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SimpleContext;

    #[test]
    fn constant_clamps_to_action_set() {
        let p = ConstantPolicy::new(5);
        let small = SimpleContext::contextless(3);
        assert_eq!(p.choose(&small), 2);
        let big = SimpleContext::contextless(10);
        assert_eq!(p.choose(&big), 5);
    }

    #[test]
    fn fn_policy_runs_closure() {
        let p = FnPolicy::new(
            "parity",
            |ctx: &SimpleContext| {
                if ctx.shared_features()[0] > 0.0 {
                    1
                } else {
                    0
                }
            },
        );
        assert_eq!(p.choose(&SimpleContext::new(vec![1.0], 2)), 1);
        assert_eq!(p.choose(&SimpleContext::new(vec![-1.0], 2)), 0);
        assert_eq!(Policy::<SimpleContext>::name(&p), "parity");
    }

    #[test]
    fn greedy_picks_argmax_with_low_index_ties() {
        struct Fixed(Vec<f64>);
        impl Scorer<SimpleContext> for Fixed {
            fn score(&self, _ctx: &SimpleContext, a: usize) -> f64 {
                self.0[a]
            }
        }
        let ctx = SimpleContext::contextless(4);
        let g = GreedyPolicy::new(Fixed(vec![0.0, 3.0, 3.0, 1.0]));
        assert_eq!(g.choose(&ctx), 1, "ties break to the lower index");
        let g = GreedyPolicy::new(Fixed(vec![5.0, 3.0, 3.0, 1.0])).named("custom");
        assert_eq!(g.choose(&ctx), 0);
        assert_eq!(Policy::<SimpleContext>::name(&g), "custom");
    }
}
