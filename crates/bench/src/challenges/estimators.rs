//! Estimator ablation: IPS vs SNIPS vs DM vs DR bias/variance (§5).

use harvest_core::learner::{ModelingMode, RegressionCbLearner, SampleWeighting};
use harvest_core::policy::UniformPolicy;
use harvest_core::simulate::simulate_exploration;
use harvest_estimators::direct::direct_method;
use harvest_estimators::{EstimatorKind, OffPolicyEvaluator};
use harvest_sim_mh::{generate_dataset, MachineHealthConfig};
use harvest_sim_net::rng::fork_rng_indexed;

use crate::ExperimentConfig;

/// One estimator's accuracy profile across repeated partial-information
/// simulations.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EstimatorRow {
    /// Estimator name.
    pub estimator: String,
    /// Ground-truth policy value.
    pub truth: f64,
    /// Mean estimate across trials.
    pub mean_estimate: f64,
    /// Bias (mean estimate − truth).
    pub bias: f64,
    /// Standard deviation of the estimate across trials.
    pub std_dev: f64,
}

/// Compares the four estimators on the machine-health scenario.
pub fn estimator_ablation(cfg: &ExperimentConfig) -> Vec<EstimatorRow> {
    let test_n = cfg.scaled(4_000, 1_000);
    let full = generate_dataset(&MachineHealthConfig {
        incidents: 2_000 + test_n,
        seed: cfg.seed,
    });
    let (train, test) = full.split_at(2_000);

    // The evaluated policy and a (deliberately imperfect) reward model,
    // both trained on the training split.
    let mut rng = fork_rng_indexed(cfg.seed, "ablation-train", 0);
    let train_expl = simulate_exploration(&train, &UniformPolicy::new(), &mut rng);
    let learner = RegressionCbLearner::new(ModelingMode::PerAction, SampleWeighting::Uniform, 1e-2)
        .expect("valid lambda");
    let policy = learner.fit_policy(&train_expl).expect("training succeeds");
    let model = learner.fit(&train_expl).expect("training succeeds");
    let truth = test.value_of_policy(&policy).expect("non-empty test");

    let trials = cfg.scaled(200, 30);
    let mut sums = [0.0f64; 4];
    let mut sums_sq = [0.0f64; 4];
    for t in 0..trials {
        let mut rng = fork_rng_indexed(cfg.seed, "ablation-trial", t as u64);
        let expl = simulate_exploration(&test, &UniformPolicy::new(), &mut rng);
        let values = [
            OffPolicyEvaluator::new(EstimatorKind::Ips)
                .evaluate(&expl, &policy)
                .value,
            OffPolicyEvaluator::new(EstimatorKind::Snips)
                .evaluate(&expl, &policy)
                .value,
            direct_method(&expl, &policy, &model).value,
            OffPolicyEvaluator::evaluate_with_model(&expl, &policy, &model).value,
        ];
        for (i, v) in values.into_iter().enumerate() {
            sums[i] += v;
            sums_sq[i] += v * v;
        }
    }
    let names = ["ips", "snips", "direct-method", "doubly-robust"];
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mean = sums[i] / trials as f64;
            let var = (sums_sq[i] / trials as f64 - mean * mean).max(0.0);
            EstimatorRow {
                estimator: name.to_string(),
                truth,
                mean_estimate: mean,
                bias: mean - truth,
                std_dev: var.sqrt(),
            }
        })
        .collect()
}

/// Renders the estimator ablation.
pub fn render_estimators(rows: &[EstimatorRow]) -> String {
    let mut out = String::from(
        "Estimator ablation (machine health): bias/variance across partial-info simulations\n",
    );
    out.push_str(&format!(
        "{:<14} {:>10} {:>12} {:>10} {:>10}\n",
        "Estimator", "truth", "mean est.", "bias", "std"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>10.4} {:>12.4} {:>+10.4} {:>10.4}\n",
            r.estimator, r.truth, r.mean_estimate, r.bias, r.std_dev
        ));
    }
    out
}
