//! Finite-sample guarantees: Eq. 1 and the A/B-testing counterpart.
//!
//! The paper's Eq. 1: with probability `1 − δ`, the IPS estimator evaluates
//! all `K` policies simultaneously to within
//!
//! ```text
//! radius = sqrt( C / (ε N) · ln(K / δ) )
//! ```
//!
//! where `ε` is the minimum propensity in the exploration data and `C` a
//! small constant, with rewards in `[0, 1]`. For A/B testing, each policy
//! sees only `N / K` of the traffic, so "the error could be as large as
//! `C · sqrt(K / N · ln(K/δ))`". The error scales **logarithmically** in K
//! for CB versus **polynomially** for A/B — since `1/ε ≪ K`, A/B is
//! exponentially worse (Fig 1).
//!
//! These closed forms regenerate Fig 1 (N required vs K) and Fig 2
//! (accuracy vs N for several ε).

use serde::Serialize;

/// Constants shared by the bound computations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BoundConfig {
    /// The small constant `C` of Eq. 1.
    pub c: f64,
    /// Failure probability `δ`.
    pub delta: f64,
}

impl BoundConfig {
    /// Typical constants used for Fig 1 in the paper (δ = 0.01).
    pub fn fig1() -> Self {
        BoundConfig {
            c: 2.0,
            delta: 0.01,
        }
    }

    /// Typical constants used for Fig 2 in the paper (δ = 0.05).
    pub fn fig2() -> Self {
        BoundConfig {
            c: 2.0,
            delta: 0.05,
        }
    }

    pub(crate) fn validate(&self, k: f64) {
        assert!(self.c.is_finite() && self.c > 0.0, "C must be positive");
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "delta must be in (0, 1)"
        );
        assert!(k >= 1.0, "need at least one policy");
    }
}

/// Eq. 1: the simultaneous confidence radius for evaluating `k` policies
/// with IPS from `n` exploration samples of minimum propensity `epsilon`.
pub fn ips_radius(cfg: &BoundConfig, epsilon: f64, n: f64, k: f64) -> f64 {
    cfg.validate(k);
    assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
    assert!(n > 0.0, "n must be positive");
    (cfg.c / (epsilon * n) * (k / cfg.delta).ln()).sqrt()
}

/// The A/B-testing counterpart: error for evaluating `k` policies by
/// splitting `n` samples of live traffic across them.
pub fn ab_radius(cfg: &BoundConfig, n: f64, k: f64) -> f64 {
    cfg.validate(k);
    assert!(n > 0.0, "n must be positive");
    cfg.c * (k / n * (k / cfg.delta).ln()).sqrt()
}

/// Fig 1, CB curve: samples needed so that the IPS radius over `k` policies
/// is at most `target_error`.
pub fn ips_min_n(cfg: &BoundConfig, epsilon: f64, k: f64, target_error: f64) -> f64 {
    cfg.validate(k);
    assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
    assert!(target_error > 0.0, "target error must be positive");
    cfg.c * (k / cfg.delta).ln() / (epsilon * target_error * target_error)
}

/// Fig 1, A/B curve: samples needed so that the A/B radius over `k`
/// policies is at most `target_error`.
pub fn ab_min_n(cfg: &BoundConfig, k: f64, target_error: f64) -> f64 {
    cfg.validate(k);
    assert!(target_error > 0.0, "target error must be positive");
    cfg.c * cfg.c * k * (k / cfg.delta).ln() / (target_error * target_error)
}

/// Empirical Bernstein confidence radius (Maurer & Pontil 2009): a
/// data-dependent bound that replaces Eq. 1's worst-case `1/ε` with the
/// *observed* sample variance of the estimator terms:
///
/// ```text
/// radius = sqrt(2 V̂ ln(3K/δ) / n) + 3 R ln(3K/δ) / n
/// ```
///
/// where `V̂` is the sample variance of the per-sample terms and `R` their
/// range. Much tighter than Eq. 1 when the candidate policy matches the
/// logging policy often (small weights), and valid simultaneously for `k`
/// policies by the same union bound.
pub fn empirical_bernstein_radius(
    cfg: &BoundConfig,
    sample_variance: f64,
    range: f64,
    n: f64,
    k: f64,
) -> f64 {
    cfg.validate(k);
    assert!(n > 1.0, "need at least two samples");
    assert!(sample_variance >= 0.0, "variance must be non-negative");
    assert!(range >= 0.0, "range must be non-negative");
    let log_term = (3.0 * k / cfg.delta).ln();
    (2.0 * sample_variance * log_term / n).sqrt() + 3.0 * range * log_term / n
}

/// One row of the Fig 1 series: policies evaluated vs data required.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig1Row {
    /// Number of policies evaluated simultaneously.
    pub k: f64,
    /// Samples required by off-policy (CB) evaluation.
    pub n_cb: f64,
    /// Samples required by A/B testing.
    pub n_ab: f64,
}

/// Generates the Fig 1 series: for each `k` in `ks`, the N required by CB
/// (at exploration floor `epsilon`) and by A/B testing to reach
/// `target_error`.
pub fn fig1_series(cfg: &BoundConfig, epsilon: f64, target_error: f64, ks: &[f64]) -> Vec<Fig1Row> {
    ks.iter()
        .map(|&k| Fig1Row {
            k,
            n_cb: ips_min_n(cfg, epsilon, k, target_error),
            n_ab: ab_min_n(cfg, k, target_error),
        })
        .collect()
}

/// One point of a Fig 2 curve: data size vs theoretical accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig2Point {
    /// Number of exploration samples.
    pub n: f64,
    /// The Eq. 1 radius at that size.
    pub radius: f64,
}

/// Generates one Fig 2 curve: Eq. 1 accuracy over `ns` for a fixed
/// exploration floor `epsilon` and policy-class size `k`.
pub fn fig2_curve(cfg: &BoundConfig, epsilon: f64, k: f64, ns: &[f64]) -> Vec<Fig2Point> {
    ns.iter()
        .map(|&n| Fig2Point {
            n,
            radius: ips_radius(cfg, epsilon, n, k),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: BoundConfig = BoundConfig {
        c: 2.0,
        delta: 0.05,
    };

    #[test]
    fn radius_shrinks_with_n_and_epsilon() {
        let r1 = ips_radius(&CFG, 0.02, 1e6, 1e6);
        let r2 = ips_radius(&CFG, 0.02, 2e6, 1e6);
        let r3 = ips_radius(&CFG, 0.04, 1e6, 1e6);
        assert!(r2 < r1);
        assert!(r3 < r1);
        // Doubling epsilon = doubling N (the paper's "halves the data
        // required" insight).
        assert!((r2 - r3).abs() < 1e-12);
    }

    #[test]
    fn radius_grows_logarithmically_in_k() {
        let r_small = ips_radius(&CFG, 0.1, 1e6, 1e3);
        let r_big = ips_radius(&CFG, 0.1, 1e6, 1e6);
        assert!(r_big > r_small);
        // Going from 10^3 to 10^6 policies should grow the radius by
        // sqrt(ln(1e6/δ)/ln(1e3/δ)) ≈ 1.3, not 1000×.
        assert!(r_big / r_small < 1.5);
    }

    #[test]
    fn ab_radius_grows_polynomially_in_k() {
        let r_small = ab_radius(&CFG, 1e6, 10.0);
        let r_big = ab_radius(&CFG, 1e6, 1000.0);
        assert!(r_big / r_small > 9.0, "A/B error must scale ~sqrt(K)");
    }

    #[test]
    fn min_n_inverts_radius() {
        let eps = 0.04;
        let k = 1e6;
        let target = 0.05;
        let n = ips_min_n(&CFG, eps, k, target);
        let r = ips_radius(&CFG, eps, n, k);
        assert!((r - target).abs() < 1e-9, "radius {r} at inverted n {n}");
        let n_ab = ab_min_n(&CFG, k, target);
        let r_ab = ab_radius(&CFG, n_ab, k);
        assert!((r_ab - target).abs() < 1e-9);
    }

    #[test]
    fn cb_is_exponentially_more_efficient_figure1() {
        // Fig 1's headline: at K = 10^6, CB needs orders of magnitude less
        // data than A/B.
        let cfg = BoundConfig::fig1();
        let rows = fig1_series(&cfg, 0.1, 0.05, &[1.0, 1e3, 1e6]);
        let last = rows.last().unwrap();
        assert!(
            last.n_ab / last.n_cb > 1e4,
            "A/B {} vs CB {}",
            last.n_ab,
            last.n_cb
        );
        // CB requirement grows slowly (log K); A/B grows ~linearly in K.
        assert!(rows[2].n_cb / rows[0].n_cb < 10.0);
        assert!(rows[2].n_ab / rows[1].n_ab > 500.0);
    }

    #[test]
    fn fig2_diminishing_returns() {
        // Paper: "increasing N from 1.7 to 3.4 million improves accuracy by
        // less than 0.01" on the ε = 0.04 curve.
        let cfg = BoundConfig::fig2();
        let pts = fig2_curve(&cfg, 0.04, 1e6, &[1.7e6, 3.4e6]);
        let improvement = pts[0].radius - pts[1].radius;
        assert!(improvement > 0.0);
        assert!(improvement < 0.01, "improvement {improvement}");
    }

    #[test]
    fn fig2_epsilon_ordering() {
        let cfg = BoundConfig::fig2();
        let n = [1e6];
        let r_low = fig2_curve(&cfg, 0.02, 1e6, &n)[0].radius;
        let r_high = fig2_curve(&cfg, 0.25, 1e6, &n)[0].radius;
        assert!(r_high < r_low, "more exploration => tighter radius");
    }

    #[test]
    fn empirical_bernstein_tightens_with_low_variance() {
        // Same n and range: less variance => tighter radius.
        let tight = empirical_bernstein_radius(&CFG, 0.01, 2.0, 10_000.0, 1.0);
        let loose = empirical_bernstein_radius(&CFG, 1.0, 2.0, 10_000.0, 1.0);
        assert!(tight < loose);
        // Shrinks roughly as 1/sqrt(n) once the variance term dominates.
        let n1 = empirical_bernstein_radius(&CFG, 1.0, 2.0, 1e4, 1.0);
        let n2 = empirical_bernstein_radius(&CFG, 1.0, 2.0, 4e4, 1.0);
        assert!(n2 < n1 && n2 > n1 / 2.5);
    }

    #[test]
    fn empirical_bernstein_can_beat_eq1_on_benign_data() {
        // A frequently-matching policy under 10-action uniform logging:
        // IPS terms have variance ≈ E[(r/p)^2 · p] − v² ≈ 10·E[r²]·... — but
        // when the realized variance is small (say 2.0), the data-dependent
        // bound beats Eq. 1's worst case at the same n, K, δ.
        let n = 1e5;
        let k = 1e4;
        let eq1 = ips_radius(&CFG, 0.1, n, k);
        let bern = empirical_bernstein_radius(&CFG, 0.5, 10.0, n, k);
        assert!(bern < eq1, "bernstein {bern} vs eq1 {eq1}");
    }

    #[test]
    #[should_panic(expected = "two samples")]
    fn empirical_bernstein_needs_samples() {
        let _ = empirical_bernstein_radius(&CFG, 1.0, 1.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_zero_epsilon() {
        let _ = ips_radius(&CFG, 0.0, 1e6, 10.0);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_bad_delta() {
        let bad = BoundConfig { c: 1.0, delta: 0.0 };
        let _ = ips_radius(&bad, 0.1, 1e6, 10.0);
    }
}
