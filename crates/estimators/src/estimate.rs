//! The common result type returned by every estimator.

use serde::Serialize;

/// An off-policy estimate of a policy's average reward, with diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Estimate {
    /// The estimated average reward.
    pub value: f64,
    /// Number of exploration samples used.
    pub n: usize,
    /// Samples where the candidate's choice matched the logged action —
    /// the only samples that carry signal for IPS-family estimators.
    pub matched: usize,
    /// Standard error of the per-sample estimator terms (σ/√N). A quick
    /// sanity check; the rigorous bound is `bounds::ips_radius`.
    pub std_err: f64,
}

impl Estimate {
    /// Fraction of samples where the candidate matched the logged action.
    pub fn match_rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.matched as f64 / self.n as f64
        }
    }
}
