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
    /// Builds an estimate from the per-sample terms whose mean is the
    /// estimator value.
    pub fn from_terms(terms: &[f64], matched: usize) -> Estimate {
        let n = terms.len();
        if n == 0 {
            return Estimate {
                value: 0.0,
                n: 0,
                matched: 0,
                std_err: 0.0,
            };
        }
        let mean = terms.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            terms.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Estimate {
            value: mean,
            n,
            matched,
            std_err: (var / n as f64).sqrt(),
        }
    }

    /// Fraction of samples where the candidate matched the logged action.
    pub fn match_rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.matched as f64 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_terms_computes_mean_and_se() {
        let e = Estimate::from_terms(&[1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(e.value, 2.5);
        assert_eq!(e.n, 4);
        assert_eq!(e.matched, 2);
        assert_eq!(e.match_rate(), 0.5);
        // var = 5/3, se = sqrt(5/12).
        assert!((e.std_err - (5.0f64 / 12.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_terms_are_safe() {
        let e = Estimate::from_terms(&[], 0);
        assert_eq!(e.value, 0.0);
        assert_eq!(e.match_rate(), 0.0);
    }

    #[test]
    fn single_term_has_zero_se() {
        let e = Estimate::from_terms(&[7.0], 1);
        assert_eq!(e.value, 7.0);
        assert_eq!(e.std_err, 0.0);
    }
}
