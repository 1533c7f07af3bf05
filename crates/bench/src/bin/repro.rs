//! `repro` — regenerates every figure and table of the paper.
//!
//! ```text
//! repro [--seed S] [--scale X] [--json] \
//!       [fig1|fig2|fig3|fig4|fig5|fig6|table2|table3|challenges|all]
//! ```
//!
//! `--scale` shrinks dataset sizes and trial counts proportionally
//! (default 1.0 = paper-scale). Output is aligned text, one block per
//! artifact, matching the rows/series the paper reports; `--json` emits
//! one JSON object per artifact instead (one per line), for external
//! plotting tools.

use std::process::ExitCode;

use harvest_bench::{
    challenges, fig1, fig2, fig3, fig4, fig5, fig6, table2, table3, ExperimentConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--seed S] [--scale X] [--json] \
         [fig1|fig2|fig3|fig4|fig5|fig6|table2|table3|challenges|all]"
    );
    std::process::exit(2);
}

struct Output {
    json: bool,
}

impl Output {
    fn emit<T: serde::Serialize>(&self, artifact: &str, rows: &[T], text: String) {
        if self.json {
            let value = serde_json::json!({ "artifact": artifact, "rows": rows });
            println!("{}", serde_json::to_string(&value).expect("rows serialize"));
        } else {
            println!("{text}");
        }
    }
}

fn main() -> ExitCode {
    let mut cfg = ExperimentConfig::default();
    let mut targets: Vec<String> = Vec::new();
    let mut out = Output { json: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                cfg.seed = v;
            }
            "--scale" => {
                let Some(v) = args.next().and_then(|s| s.parse::<f64>().ok()) else {
                    usage()
                };
                if !(v.is_finite() && v > 0.0) {
                    usage();
                }
                cfg.scale = v;
            }
            "--json" => out.json = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    for target in &targets {
        if target == "all" {
            for artifact in ARTIFACTS {
                run(artifact, &cfg, &out);
            }
        } else if ARTIFACTS.contains(&target.as_str()) {
            run(target, &cfg, &out);
        } else {
            usage();
        }
    }
    ExitCode::SUCCESS
}

/// Every artifact, in the order `all` emits them.
const ARTIFACTS: [&str; 9] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "table3",
    "challenges",
];

/// Regenerates one artifact of [`ARTIFACTS`].
fn run(artifact: &str, cfg: &ExperimentConfig, out: &Output) {
    match artifact {
        "fig1" => {
            let rows = fig1::run(cfg);
            out.emit("fig1", &rows, fig1::render(&rows));
            let rows = fig1::run_empirical(cfg, &[4, 16, 64, 256, 1024]);
            out.emit("fig1_empirical", &rows, fig1::render_empirical(&rows));
        }
        "fig2" => {
            let curves = fig2::run(cfg);
            if out.json {
                let value = serde_json::json!({
                    "artifact": "fig2",
                    "curves": curves.iter().map(|c| serde_json::json!({
                        "epsilon": c.epsilon,
                        "points": c.points,
                    })).collect::<Vec<_>>(),
                });
                println!("{}", serde_json::to_string(&value).expect("serialize"));
            } else {
                println!("{}", fig2::render(&curves));
            }
        }
        "fig3" => {
            let rows = fig3::run(cfg);
            out.emit("fig3", &rows, fig3::render(&rows));
        }
        "fig4" => {
            let rows = fig4::run(cfg);
            out.emit("fig4", &rows, fig4::render(&rows));
        }
        "fig5" => {
            let rows = fig5::run(cfg);
            out.emit("fig5", &rows, fig5::render(&rows));
        }
        "fig6" => {
            let rows = fig6::run(cfg);
            out.emit("fig6", &rows, fig6::render(&rows));
            let online = fig6::run_online(cfg);
            out.emit("fig6_online", &[online], fig6::render_online(&online));
        }
        "table2" => {
            let rows = table2::run(cfg);
            out.emit("table2", &rows, table2::render(&rows));
        }
        "table3" => {
            let rows = table3::run(cfg);
            out.emit("table3", &rows, table3::render(&rows));
        }
        "challenges" => run_challenges(cfg, out),
        _ => unreachable!("not one of ARTIFACTS: {artifact}"),
    }
}

fn run_challenges(cfg: &ExperimentConfig, out: &Output) {
    let rows = challenges::estimator_ablation(cfg);
    out.emit(
        "estimator_ablation",
        &rows,
        challenges::render_estimators(&rows),
    );

    let profile = challenges::trajectory_variance(cfg, 20);
    out.emit(
        "trajectory_variance",
        &profile,
        challenges::render_trajectory(&profile),
    );

    let rows = challenges::dr_pdis_comparison(cfg, &[1, 2, 4, 6, 8, 10]);
    out.emit("dr_pdis", &rows, challenges::render_dr_pdis(&rows));

    let rows = challenges::exploration_coverage(cfg);
    out.emit(
        "exploration_coverage",
        &rows,
        challenges::render_coverage(&rows),
    );

    let rows = challenges::staleness_sweep(cfg, &[0.0, 0.5, 1.0, 2.0, 5.0]);
    out.emit(
        "staleness_sweep",
        &rows,
        challenges::render_staleness(&rows),
    );

    let rows = challenges::simultaneous_evaluation(cfg, 1_000, &[1_000, 3_500, 10_000]);
    out.emit(
        "eq1_validation",
        &rows,
        challenges::render_simultaneous(&rows),
    );

    let rows = challenges::drift_tripwire(cfg);
    out.emit("drift_tripwire", &rows, challenges::render_drift(&rows));

    let rows = challenges::learner_ablation(cfg);
    out.emit(
        "learner_ablation",
        &rows,
        challenges::render_learners(&rows),
    );

    let rows = challenges::eviction_samples_sweep(cfg, &[1, 3, 5, 10, 20]);
    out.emit(
        "eviction_samples_sweep",
        &rows,
        challenges::render_samples_sweep(&rows),
    );

    let rows = challenges::zipf_workload_check(cfg);
    out.emit("zipf_check", &rows, challenges::render_zipf(&rows));

    let rows = challenges::cache_ope_mismatch(cfg);
    out.emit(
        "cache_ope_mismatch",
        &rows,
        challenges::render_ope_mismatch(&rows),
    );
}
