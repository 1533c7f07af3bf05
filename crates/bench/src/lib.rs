//! Experiment harness: regenerates every figure and table of the paper.
//!
//! Each module implements one experiment as a pure function from an
//! [`ExperimentConfig`] to typed rows, so the same code backs the `repro`
//! binary (which prints the rows) and the tests (which assert the paper's
//! shape).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Fig 1 — N required to evaluate K policies, A/B vs CB |
//! | [`fig2`] | Fig 2 — theoretical accuracy vs N for several ε |
//! | [`fig3`] | Fig 3 — IPS error vs test-set size (machine health) |
//! | [`fig4`] | Fig 4 — CB training convergence vs supervised skyline |
//! | [`fig5`] | Fig 5 — the two-server latency model |
//! | [`fig6`] | Fig 6 — hierarchical (Front Door) action-space reduction |
//! | [`table2`] | Table 2 — load-balancing OPE vs online |
//! | [`table3`] | Table 3 — cache eviction hit rates |
//! | [`challenges`] | §5 — trajectory-IS variance, DR ablation, coverage |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod challenges;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table2;
pub mod table3;

/// Shared knobs for all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Master seed.
    pub seed: u64,
    /// Scale factor: 1.0 = paper-scale runs; smaller values shrink dataset
    /// sizes and trial counts proportionally for quick runs and tests.
    pub scale: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 0x55EED,
            scale: 1.0,
        }
    }
}

impl ExperimentConfig {
    /// Scales an integer quantity, keeping a floor so tiny scales still
    /// produce meaningful runs.
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(floor)
    }
}
