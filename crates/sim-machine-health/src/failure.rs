//! The incident model: latent failure behaviour and counterfactual
//! downtimes.
//!
//! An unresponsive machine is either *transient* (it will come back on its
//! own after a context-dependent recovery time) or *hard* (only a reboot
//! brings it back). The controller cannot observe which; it picks a wait
//! time `a` minutes and:
//!
//! * if the machine recovers at `T ≤ a`, downtime is `T`;
//! * otherwise the machine is rebooted at `a`, adding a context-dependent
//!   reboot cost `R`, for downtime `a + R`.
//!
//! Both the transient probability and the time scales depend on the
//! machine's observable features — that dependence is what a contextual
//! policy can exploit and a fixed wait time cannot.

use rand::Rng;
use serde::Serialize;

use harvest_sim_net::rng::DetRng;

use crate::machine::{FailureKind, HardwareSku, MachineSpec};

/// Number of wait-time actions: wait `index + 1 ∈ {1, …, 10}` minutes.
/// Action 9 (wait 10 min) is the safe default Azure ran during data
/// collection.
pub const NUM_ACTIONS: usize = 10;

/// Index of the safe-default action (wait the maximum 10 minutes).
pub const DEFAULT_ACTION: usize = NUM_ACTIONS - 1;

/// The wait time, in minutes, of action index `a`.
pub fn wait_minutes(action: usize) -> f64 {
    (action + 1) as f64
}

/// One incident with its latent (unobservable) ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Incident {
    /// The machine's observable context.
    pub spec: MachineSpec,
    /// Whether the machine would self-recover.
    pub transient: bool,
    /// Self-recovery time in minutes (meaningful only if `transient`).
    pub recovery_time_min: f64,
    /// Reboot duration in minutes for this machine.
    pub reboot_cost_min: f64,
}

/// Probability that an incident on `spec` is transient.
pub fn transient_probability(spec: &MachineSpec) -> f64 {
    let base = match spec.failure_kind {
        FailureKind::Network => 0.80,
        FailureKind::Kernel => 0.60,
        FailureKind::Disk => 0.25,
        FailureKind::Power => 0.05,
    };
    let sku_adj = match spec.sku {
        HardwareSku::Gen4 => -0.05,
        HardwareSku::Gen5 => 0.0,
        HardwareSku::Gen6 => 0.05,
    };
    let history_adj = -0.02 * spec.recent_failures as f64;
    (base + sku_adj + history_adj).clamp(0.02, 0.95)
}

/// Mean self-recovery time in minutes for `spec` (given transience).
pub fn mean_recovery_minutes(spec: &MachineSpec) -> f64 {
    let base = match spec.failure_kind {
        FailureKind::Network => 2.0,
        FailureKind::Kernel => 5.0,
        FailureKind::Disk => 6.5,
        FailureKind::Power => 8.0,
    };
    let sku_adj = match spec.sku {
        HardwareSku::Gen4 => 1.5,
        HardwareSku::Gen5 => 0.5,
        HardwareSku::Gen6 => 0.0,
    };
    base + sku_adj + 0.1 * spec.age_years
}

/// Reboot duration in minutes for `spec`.
pub fn reboot_cost_minutes(spec: &MachineSpec) -> f64 {
    let base = match spec.sku {
        HardwareSku::Gen4 => 9.0,
        HardwareSku::Gen5 => 7.0,
        HardwareSku::Gen6 => 5.0,
    };
    base + 0.2 * spec.age_years
}

impl Incident {
    /// Samples an incident's latent outcome for a machine.
    pub fn sample(spec: MachineSpec, rng: &mut DetRng) -> Self {
        let transient = rng.gen_bool(transient_probability(&spec));
        // Shifted exponential: recoveries take at least 30 s, with a
        // context-dependent mean.
        let mean = mean_recovery_minutes(&spec);
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let recovery_time_min = 0.5 + (mean - 0.5).max(0.1) * (-u.ln());
        // Reboot time jitters ±10%.
        let reboot_cost_min = reboot_cost_minutes(&spec) * rng.gen_range(0.9..1.1);
        Incident {
            spec,
            transient,
            recovery_time_min,
            reboot_cost_min,
        }
    }

    /// The counterfactual downtime (minutes) of waiting `wait_min` minutes.
    pub fn downtime(&self, wait_min: f64) -> f64 {
        if self.transient && self.recovery_time_min <= wait_min {
            self.recovery_time_min
        } else {
            wait_min + self.reboot_cost_min
        }
    }

    /// The *reward* of each wait action: negated VM-scaled downtime,
    /// normalized into `[0, 1]` (1 = no downtime, 0 = worst representable).
    pub fn rewards(&self) -> Vec<f64> {
        (0..NUM_ACTIONS)
            .map(|a| {
                let dt = downtime_minutes(self, a) * self.spec.vm_count as f64;
                (1.0 - dt / MAX_SCALED_DOWNTIME).clamp(0.0, 1.0)
            })
            .collect()
    }
}

/// Worst representable VM-scaled downtime used for normalization: waiting
/// the maximum then paying the slowest reboot, on the largest machine.
pub const MAX_SCALED_DOWNTIME: f64 = (10.0 + 12.0) * 20.0;

/// The downtime (minutes) of taking action index `action` on `incident`.
pub fn downtime_minutes(incident: &Incident, action: usize) -> f64 {
    incident.downtime(wait_minutes(action))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim_net::fork_rng;

    fn spec(kind: FailureKind, sku: HardwareSku) -> MachineSpec {
        MachineSpec {
            sku,
            age_years: 2.0,
            recent_failures: 1,
            failure_kind: kind,
            vm_count: 5,
        }
    }

    #[test]
    fn transient_probability_orders_by_kind() {
        let net = transient_probability(&spec(FailureKind::Network, HardwareSku::Gen5));
        let kern = transient_probability(&spec(FailureKind::Kernel, HardwareSku::Gen5));
        let disk = transient_probability(&spec(FailureKind::Disk, HardwareSku::Gen5));
        let power = transient_probability(&spec(FailureKind::Power, HardwareSku::Gen5));
        assert!(net > kern && kern > disk && disk > power);
        assert!(power >= 0.02, "probability floor");
    }

    #[test]
    fn downtime_of_transient_quick_recovery() {
        let inc = Incident {
            spec: spec(FailureKind::Network, HardwareSku::Gen6),
            transient: true,
            recovery_time_min: 1.5,
            reboot_cost_min: 5.0,
        };
        // Waiting at least 1.5 min captures the self-recovery.
        assert_eq!(inc.downtime(2.0), 1.5);
        assert_eq!(inc.downtime(10.0), 1.5);
        // Waiting only 1 min forces a reboot: 1 + 5.
        assert_eq!(inc.downtime(1.0), 6.0);
    }

    #[test]
    fn downtime_of_hard_failure_grows_with_wait() {
        let inc = Incident {
            spec: spec(FailureKind::Power, HardwareSku::Gen4),
            transient: false,
            recovery_time_min: 3.0, // irrelevant
            reboot_cost_min: 9.0,
        };
        assert_eq!(inc.downtime(1.0), 10.0);
        assert_eq!(inc.downtime(10.0), 19.0);
        // For hard failures, shorter waits strictly dominate.
        let r = inc.rewards();
        for w in r.windows(2) {
            assert!(w[0] >= w[1], "rewards must decrease with wait: {r:?}");
        }
    }

    #[test]
    fn rewards_are_normalized_and_ordered_correctly() {
        let mut rng = fork_rng(1, "inc");
        for _ in 0..500 {
            let inc = Incident::sample(MachineSpec::sample(&mut rng), &mut rng);
            let r = inc.rewards();
            assert_eq!(r.len(), NUM_ACTIONS);
            for &v in &r {
                assert!((0.0..=1.0).contains(&v), "reward {v}");
            }
        }
    }

    #[test]
    fn wait_minutes_maps_index() {
        assert_eq!(wait_minutes(0), 1.0);
        assert_eq!(wait_minutes(DEFAULT_ACTION), 10.0);
    }

    #[test]
    fn sampled_incident_statistics_match_model() {
        let s = spec(FailureKind::Network, HardwareSku::Gen6);
        let q = transient_probability(&s);
        let mut rng = fork_rng(2, "stats");
        let n = 20_000;
        let mut transients = 0;
        let mut recovery_sum = 0.0;
        for _ in 0..n {
            let inc = Incident::sample(s, &mut rng);
            if inc.transient {
                transients += 1;
            }
            recovery_sum += inc.recovery_time_min;
        }
        let frac = transients as f64 / n as f64;
        assert!((frac - q).abs() < 0.01, "transient fraction {frac} vs {q}");
        let mean_rec = recovery_sum / n as f64;
        let expect = mean_recovery_minutes(&s);
        assert!((mean_rec - expect).abs() < 0.2, "mean recovery {mean_rec}");
    }

    #[test]
    fn optimal_wait_depends_on_context() {
        // Network/Gen6 incidents (likely transient, fast recovery, cheap
        // reboot) favour a moderate wait; Power incidents (almost never
        // transient) favour the shortest wait. Check expected downtimes.
        let mut rng = fork_rng(3, "ctx");
        let mut mean_downtime = |k: FailureKind, action: usize| -> f64 {
            let s = spec(k, HardwareSku::Gen6);
            let n = 20_000;
            (0..n)
                .map(|_| downtime_minutes(&Incident::sample(s, &mut rng), action))
                .sum::<f64>()
                / n as f64
        };
        // For power failures, waiting 1 min beats waiting 10 min.
        assert!(mean_downtime(FailureKind::Power, 0) < mean_downtime(FailureKind::Power, 9));
        // For network failures, waiting ~4 min beats waiting 1 min
        // (recoveries take ≥ 0.5 min with mean ≈ 2.2).
        assert!(mean_downtime(FailureKind::Network, 3) < mean_downtime(FailureKind::Network, 0));
    }
}
