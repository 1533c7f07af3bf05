//! Fig 3 — off-policy evaluation error on a CB policy from the machine
//! health scenario, relative to full-feedback ground truth.
//!
//! Procedure (paper §4): train a policy on exploration data; then, for a
//! testing dataset of growing size, run many *partial information
//! simulations* — each reveals one uniformly-chosen action's reward per
//! incident — and estimate the policy's value with IPS. The spread of those
//! estimates against the known ground truth is the figure: "with only 3500
//! points, the error is below 20% with median error at 8%".

use harvest_core::learner::{ModelingMode, RegressionCbLearner, SampleWeighting};
use harvest_core::policy::UniformPolicy;
use harvest_core::simulate::{simulate_exploration, simulate_exploration_n};
use harvest_core::{FullFeedbackDataset, SimpleContext};
use harvest_estimators::{EstimatorKind, OffPolicyEvaluator};
use harvest_sim_mh::{generate_dataset, MachineHealthConfig};
use harvest_sim_net::rng::fork_rng_indexed;

use crate::ExperimentConfig;

/// One point of the figure.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct Fig3Row {
    /// Test-set size N.
    pub n: usize,
    /// Ground-truth value of the evaluated policy on the test set prefix.
    pub truth: f64,
    /// Median relative error of the IPS estimate across trials.
    pub median_rel_error: f64,
    /// 5th percentile of the estimated value across trials.
    pub p5_value: f64,
    /// 95th percentile of the estimated value across trials.
    pub p95_value: f64,
    /// Relative half-width of the [p5, p95] band (the figure's error bar).
    pub rel_band: f64,
}

/// The test-set sizes of the sweep.
pub const SIZES: [usize; 7] = [250, 500, 1_000, 2_000, 3_500, 6_000, 10_000];

/// Number of partial-information simulations per size at scale 1.0 (the
/// paper used 1000).
pub const TRIALS: usize = 1_000;

/// Regenerates Fig 3.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig3Row> {
    let full = generate_dataset(&MachineHealthConfig {
        incidents: 8_000 + SIZES[SIZES.len() - 1],
        seed: cfg.seed,
    });
    let (train, test) = full.split_at(8_000);

    // Train the evaluated policy from simulated exploration on the training
    // split — the policy whose value Fig 3 estimates.
    let mut train_rng = fork_rng_indexed(cfg.seed, "fig3-train", 0);
    let train_expl = simulate_exploration(&train, &UniformPolicy::new(), &mut train_rng);
    let policy = RegressionCbLearner::new(ModelingMode::PerAction, SampleWeighting::Uniform, 1e-2)
        .expect("valid lambda")
        .fit_policy(&train_expl)
        .expect("training succeeds");

    let trials = cfg.scaled(TRIALS, 50);
    SIZES
        .iter()
        .map(|&n| {
            let prefix = truncate(&test, n);
            let truth = prefix
                .value_of_policy(&policy)
                .expect("non-empty test prefix");
            let mut estimates = run_trials(&prefix, &policy, trials, cfg.seed, n as u64);
            estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
            let pick = |q: f64| {
                let pos = q * (estimates.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                estimates[lo] * (1.0 - (pos - lo as f64)) + estimates[hi] * (pos - lo as f64)
            };
            let mut rel_errors: Vec<f64> = estimates
                .iter()
                .map(|e| (e - truth).abs() / truth)
                .collect();
            rel_errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median_rel_error = rel_errors[rel_errors.len() / 2];
            let (p5, p95) = (pick(0.05), pick(0.95));
            Fig3Row {
                n,
                truth,
                median_rel_error,
                p5_value: p5,
                p95_value: p95,
                rel_band: ((p95 - truth).abs().max((truth - p5).abs())) / truth,
            }
        })
        .collect()
}

fn truncate(
    data: &FullFeedbackDataset<SimpleContext>,
    n: usize,
) -> FullFeedbackDataset<SimpleContext> {
    FullFeedbackDataset::from_samples(data.samples()[..n.min(data.len())].to_vec())
        .expect("prefix of valid data is valid")
}

/// Runs the partial-information simulations, spread across threads.
fn run_trials(
    prefix: &FullFeedbackDataset<SimpleContext>,
    policy: &(impl harvest_core::Policy<SimpleContext> + Sync),
    trials: usize,
    seed: u64,
    size_tag: u64,
) -> Vec<f64> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(trials.max(1));
    let mut estimates = vec![0.0f64; trials];
    let chunk = trials.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, out) in estimates.chunks_mut(chunk).enumerate() {
            let prefix = &prefix;
            let policy = &policy;
            scope.spawn(move || {
                for (i, slot) in out.iter_mut().enumerate() {
                    let trial = (w * chunk + i) as u64;
                    let mut rng =
                        fork_rng_indexed(seed, "fig3-trial", size_tag * 1_000_000 + trial);
                    let expl = simulate_exploration_n(
                        prefix,
                        &UniformPolicy::new(),
                        prefix.len(),
                        &mut rng,
                    );
                    *slot = OffPolicyEvaluator::new(EstimatorKind::Ips)
                        .evaluate(&expl, policy)
                        .value;
                }
            });
        }
    });
    estimates
}

/// Renders the rows as aligned text.
pub fn render(rows: &[Fig3Row]) -> String {
    let mut out = String::from(
        "Fig 3: IPS estimation error vs test-set size (machine health; uniform logging over 10 actions)\n",
    );
    out.push_str(&format!(
        "{:>8} {:>10} {:>12} {:>12} {:>14} {:>12}\n",
        "N", "truth", "p5 value", "p95 value", "median |err|", "band (rel)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>10.4} {:>12.4} {:>12.4} {:>13.1}% {:>11.1}%\n",
            r.n,
            r.truth,
            r.p5_value,
            r.p95_value,
            100.0 * r.median_rel_error,
            100.0 * r.rel_band
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_shrinks_with_n_and_meets_paper_waypoint() {
        let rows = run(&ExperimentConfig {
            seed: 3,
            scale: 0.2, // 200 trials
        });
        assert_eq!(rows.len(), SIZES.len());
        // Error decreases with data.
        assert!(rows[0].median_rel_error > rows[6].median_rel_error);
        // Paper waypoint: at N = 3500, median error ≈ 8% (≤ 15% here) and
        // the 95th-percentile band is below ~25%.
        let at3500 = rows.iter().find(|r| r.n == 3_500).unwrap();
        assert!(
            at3500.median_rel_error < 0.15,
            "median {}",
            at3500.median_rel_error
        );
        assert!(at3500.rel_band < 0.3, "band {}", at3500.rel_band);
        // The truth is bracketed by the p5/p95 band everywhere.
        for r in &rows {
            assert!(r.p5_value <= r.truth && r.truth <= r.p95_value);
        }
    }
}
