//! Regressors: batch ridge regression and online SGD, both with
//! per-sample importance weights.
//!
//! These are the "regression oracles" the CB learners reduce to. Importance
//! weights matter twice in this workspace: inverse-propensity weighting
//! de-biases reward models trained on exploration data, and the propensity
//! estimator in `harvest-log` reuses the same machinery.

use serde::Serialize;

use crate::error::HarvestError;
use crate::linalg::{dot, Matrix};

/// A fitted linear model `ŷ = w · x` (any bias term is part of `x`, as
/// produced by [`crate::context::phi`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinearModel {
    /// The learned weights.
    pub weights: Vec<f64>,
}

impl LinearModel {
    /// A zero model of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        LinearModel {
            weights: vec![0.0; dim],
        }
    }

    /// Predicts `w · x`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x)
    }
}

/// Batch ridge regression via accumulated normal equations.
///
/// Minimizes `Σ wᵢ (yᵢ − w·xᵢ)² + λ‖w‖²`. Accumulation is streaming
/// (`XᵀWX` and `XᵀWy` only), so datasets never need to be materialized as
/// matrices; `fit` is O(d³) once.
#[derive(Debug, Clone)]
pub struct RidgeRegression {
    dim: usize,
    lambda: f64,
    xtx: Matrix,
    xty: Vec<f64>,
    n: usize,
}

impl RidgeRegression {
    /// Creates a ridge accumulator for feature dimension `dim` with
    /// regularizer `lambda`.
    ///
    /// `lambda` must be positive: λ = 0 with collinear features (common
    /// with one-hot encodings) yields a singular system.
    pub fn new(dim: usize, lambda: f64) -> Result<Self, HarvestError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(HarvestError::InvalidParameter {
                name: "lambda",
                message: format!("must be positive, got {lambda}"),
            });
        }
        Ok(RidgeRegression {
            dim,
            lambda,
            xtx: Matrix::zeros(dim, dim),
            xty: vec![0.0; dim],
            n: 0,
        })
    }

    /// Adds one observation with importance weight `weight` (≥ 0).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn push(&mut self, x: &[f64], y: f64, weight: f64) {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        if !y.is_finite() || !weight.is_finite() || weight <= 0.0 {
            return; // Degenerate observations carry no information.
        }
        self.xtx.rank1_update(x, weight);
        for (acc, &xi) in self.xty.iter_mut().zip(x) {
            *acc += weight * xi * y;
        }
        self.n += 1;
    }

    /// Number of (usable) observations pushed.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Solves for the ridge weights. Succeeds even with zero observations
    /// (returns the zero model, the regularizer's minimizer).
    pub fn fit(&self) -> Result<LinearModel, HarvestError> {
        let mut a = self.xtx.clone();
        a.add_diagonal(self.lambda);
        let weights = a.solve_spd(&self.xty)?;
        Ok(LinearModel { weights })
    }
}

/// Online stochastic-gradient regressor for squared loss, with importance
/// weights and an inverse-time learning-rate schedule
/// `η_t = η₀ / (1 + decay · t)`.
///
/// Used by the online epoch-greedy learner, where refitting a batch solve
/// per decision would be wasteful.
#[derive(Debug, Clone, Serialize)]
pub struct SgdRegressor {
    weights: Vec<f64>,
    lr0: f64,
    decay: f64,
    t: u64,
}

impl SgdRegressor {
    /// Creates an SGD regressor of dimension `dim` with initial learning
    /// rate `lr0` and decay `decay` (both must be positive / non-negative).
    pub fn new(dim: usize, lr0: f64, decay: f64) -> Result<Self, HarvestError> {
        if !(lr0.is_finite() && lr0 > 0.0) {
            return Err(HarvestError::InvalidParameter {
                name: "lr0",
                message: format!("must be positive, got {lr0}"),
            });
        }
        if !(decay.is_finite() && decay >= 0.0) {
            return Err(HarvestError::InvalidParameter {
                name: "decay",
                message: format!("must be non-negative, got {decay}"),
            });
        }
        Ok(SgdRegressor {
            weights: vec![0.0; dim],
            lr0,
            decay,
            t: 0,
        })
    }

    /// Predicts `w · x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x)
    }

    /// One SGD step on `(x, y)` with importance weight `weight`.
    ///
    /// The gradient of `½ weight (y − w·x)²` is clipped to keep a single
    /// outlier (or a huge 1/p importance weight) from destabilizing the
    /// model.
    pub fn update(&mut self, x: &[f64], y: f64, weight: f64) {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        if !y.is_finite() || !weight.is_finite() || weight <= 0.0 {
            return;
        }
        self.t += 1;
        let lr = self.lr0 / (1.0 + self.decay * self.t as f64);
        let err = y - self.predict(x);
        let g = (weight * err).clamp(-1e3, 1e3);
        for (w, &xi) in self.weights.iter_mut().zip(x) {
            *w += lr * g * xi;
        }
    }

    /// Number of updates applied.
    pub fn updates(&self) -> u64 {
        self.t
    }

    /// Snapshot of the current weights as a [`LinearModel`].
    pub fn to_model(&self) -> LinearModel {
        LinearModel {
            weights: self.weights.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    fn synthetic(n: usize, w: &[f64], noise: f64, seed: u64) -> Vec<(Vec<f64>, f64)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut x: Vec<f64> = (0..w.len() - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
                x.push(1.0); // bias
                let y = dot(w, &x) + noise * rng.gen_range(-1.0..1.0);
                (x, y)
            })
            .collect()
    }

    #[test]
    fn ridge_recovers_noiseless_weights() {
        let w_true = [2.0, -1.0, 0.5];
        let data = synthetic(200, &w_true, 0.0, 1);
        let mut r = RidgeRegression::new(3, 1e-6).unwrap();
        for (x, y) in &data {
            r.push(x, *y, 1.0);
        }
        let m = r.fit().unwrap();
        for (wi, ti) in m.weights.iter().zip(&w_true) {
            assert!((wi - ti).abs() < 1e-3, "weights {:?}", m.weights);
        }
    }

    #[test]
    fn ridge_shrinks_with_lambda() {
        let w_true = [5.0, 1.0];
        let data = synthetic(100, &w_true, 0.0, 2);
        let fit_with = |lambda: f64| {
            let mut r = RidgeRegression::new(2, lambda).unwrap();
            for (x, y) in &data {
                r.push(x, *y, 1.0);
            }
            r.fit().unwrap().weights[0].abs()
        };
        assert!(fit_with(1000.0) < fit_with(0.001));
    }

    #[test]
    fn ridge_importance_weights_tilt_fit() {
        // Two inconsistent points; weight decides which dominates.
        let mut r = RidgeRegression::new(1, 1e-9).unwrap();
        r.push(&[1.0], 0.0, 1.0);
        r.push(&[1.0], 10.0, 99.0);
        let m = r.fit().unwrap();
        assert!((m.predict(&[1.0]) - 9.9).abs() < 0.01);
    }

    #[test]
    fn ridge_ignores_degenerate_observations() {
        let mut r = RidgeRegression::new(1, 1.0).unwrap();
        r.push(&[1.0], f64::NAN, 1.0);
        r.push(&[1.0], 1.0, 0.0);
        r.push(&[1.0], 1.0, -5.0);
        assert_eq!(r.count(), 0);
        let m = r.fit().unwrap();
        assert_eq!(m.weights, vec![0.0]);
    }

    #[test]
    fn ridge_empty_fit_is_zero_model() {
        let r = RidgeRegression::new(4, 0.5).unwrap();
        assert_eq!(r.fit().unwrap().weights, vec![0.0; 4]);
    }

    #[test]
    fn ridge_rejects_bad_lambda() {
        assert!(RidgeRegression::new(2, 0.0).is_err());
        assert!(RidgeRegression::new(2, -1.0).is_err());
        assert!(RidgeRegression::new(2, f64::NAN).is_err());
    }

    #[test]
    fn sgd_converges_on_linear_target() {
        let w_true = [1.5, -0.5, 0.25];
        let data = synthetic(5000, &w_true, 0.01, 3);
        let mut s = SgdRegressor::new(3, 0.1, 0.001).unwrap();
        for (x, y) in &data {
            s.update(x, *y, 1.0);
        }
        let m = s.to_model();
        for (wi, ti) in m.weights.iter().zip(&w_true) {
            assert!((wi - ti).abs() < 0.1, "weights {:?}", m.weights);
        }
    }

    #[test]
    fn sgd_gradient_clipping_bounds_step() {
        let mut s = SgdRegressor::new(1, 1.0, 0.0).unwrap();
        s.update(&[1.0], 1e12, 1e12);
        assert!(s.predict(&[1.0]).is_finite());
        assert!(s.predict(&[1.0]).abs() <= 1e3);
    }

    #[test]
    fn sgd_rejects_bad_hyperparameters() {
        assert!(SgdRegressor::new(1, 0.0, 0.0).is_err());
        assert!(SgdRegressor::new(1, 0.1, -1.0).is_err());
    }

    #[test]
    fn linear_model_predicts() {
        let m = LinearModel {
            weights: vec![2.0, 3.0],
        };
        assert_eq!(m.predict(&[1.0, 1.0]), 5.0);
        assert_eq!(LinearModel::zeros(2).predict(&[5.0, 5.0]), 0.0);
    }
}
