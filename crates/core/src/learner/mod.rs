//! Contextual-bandit learners: policy optimization from logged data.
//!
//! Three learners, matching the paper's experiments:
//!
//! * [`RegressionCbLearner`] — the batch learner used for Fig 4 and the CB
//!   rows of Tables 2–3. It reduces CB learning to weighted regression: fit
//!   reward models `r̂(x, a)` on the logged (partial-feedback) data, then
//!   act greedily. "The CB algorithm learns a good estimator of each
//!   server's latency based on context, and greedily picking the lowest
//!   latency yields a good policy" (paper §5).
//! * [`EpochGreedyLearner`] — an online learner in the spirit of
//!   Langford–Zhang epoch-greedy: explore uniformly on a vanishing schedule,
//!   exploit the current greedy policy otherwise, and update per-action
//!   models incrementally. Produces its own exploration data (it *is* a
//!   randomized logging policy).
//! * [`IpsPolicyLearner`] — direct policy optimization: gradient ascent on
//!   the IPS objective over a softmax-linear policy template, no reward
//!   model at all (the "linear vectors" policy class of §4).
//! * [`SupervisedLearner`] — the full-feedback skyline of Fig 4: trains on
//!   the reward of *every* action, which only the machine-health scenario
//!   can provide. "An idealized baseline that cannot be deployed long-term."

mod batch;
mod ips_policy;
mod online;
mod supervised;

pub use batch::{FitAccumulator, ModelingMode, RegressionCbLearner, SampleWeighting};
pub use ips_policy::{IpsPolicyConfig, IpsPolicyLearner, SoftmaxLinearPolicy};
pub use online::EpochGreedyLearner;
pub use supervised::SupervisedLearner;
