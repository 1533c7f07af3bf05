//! Machine specifications and their feature encoding.

use rand::Rng;
use serde::Serialize;

use harvest_sim_net::rng::DetRng;

/// Hardware generation of a machine. Azure logs "detailed
/// hardware/configuration information about each machine" (§3); we model
/// the part that plausibly predicts recovery behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum HardwareSku {
    /// Oldest generation: slow boot firmware, flaky NICs.
    Gen4,
    /// Mid-life generation.
    Gen5,
    /// Newest generation: fast NVMe boot, reliable management plane.
    Gen6,
}

impl HardwareSku {
    /// All SKUs, for enumeration.
    pub const ALL: [HardwareSku; 3] = [HardwareSku::Gen4, HardwareSku::Gen5, HardwareSku::Gen6];

    fn one_hot(self) -> [f64; 3] {
        match self {
            HardwareSku::Gen4 => [1.0, 0.0, 0.0],
            HardwareSku::Gen5 => [0.0, 1.0, 0.0],
            HardwareSku::Gen6 => [0.0, 0.0, 1.0],
        }
    }
}

/// The kind of the machine's most recent failure — logged failure history
/// is part of the context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FailureKind {
    /// Network partition / NIC flap: usually transient.
    Network,
    /// Kernel soft-lockup: often recovers, slowly.
    Kernel,
    /// Disk controller fault: rarely recovers on its own.
    Disk,
    /// Power or firmware fault: essentially never self-recovers.
    Power,
}

impl FailureKind {
    /// All kinds, for enumeration.
    pub const ALL: [FailureKind; 4] = [
        FailureKind::Network,
        FailureKind::Kernel,
        FailureKind::Disk,
        FailureKind::Power,
    ];

    fn one_hot(self) -> [f64; 4] {
        match self {
            FailureKind::Network => [1.0, 0.0, 0.0, 0.0],
            FailureKind::Kernel => [0.0, 1.0, 0.0, 0.0],
            FailureKind::Disk => [0.0, 0.0, 1.0, 0.0],
            FailureKind::Power => [0.0, 0.0, 0.0, 1.0],
        }
    }
}

/// Everything the controller knows about a machine when it goes
/// unresponsive. "Neither is fast-changing" (§3) — these are all
/// slow-moving inventory facts, safe to read from logs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MachineSpec {
    /// Hardware generation.
    pub sku: HardwareSku,
    /// Machine age in years.
    pub age_years: f64,
    /// Failures recorded in the last 90 days.
    pub recent_failures: u32,
    /// Kind of the current (and most recent) failure signal.
    pub failure_kind: FailureKind,
    /// Number of customer VMs placed on the machine — scales the downtime
    /// impact (Table 1: reward is "total downtime (scaled by # of VMs)").
    pub vm_count: u32,
}

impl MachineSpec {
    /// Samples a random machine from a plausible fleet mix.
    pub fn sample(rng: &mut DetRng) -> Self {
        let sku = match rng.gen_range(0..10) {
            0..=2 => HardwareSku::Gen4,
            3..=6 => HardwareSku::Gen5,
            _ => HardwareSku::Gen6,
        };
        let failure_kind = match rng.gen_range(0..10) {
            0..=3 => FailureKind::Network,
            4..=6 => FailureKind::Kernel,
            7..=8 => FailureKind::Disk,
            _ => FailureKind::Power,
        };
        MachineSpec {
            sku,
            age_years: rng.gen_range(0.0..7.0),
            recent_failures: rng.gen_range(0..8),
            failure_kind,
            vm_count: rng.gen_range(1..20),
        }
    }

    /// Encodes the spec as the shared feature vector the policy sees.
    ///
    /// Layout: `[sku one-hot (3) ‖ failure-kind one-hot (4) ‖ age/7 ‖
    /// recent_failures/8 ‖ vm_count/20]` — 10 features, all roughly in
    /// `[0, 1]` so ridge regularization treats them comparably.
    pub fn features(&self) -> Vec<f64> {
        let mut f = Vec::with_capacity(10);
        f.extend_from_slice(&self.sku.one_hot());
        f.extend_from_slice(&self.failure_kind.one_hot());
        f.push(self.age_years / 7.0);
        f.push(self.recent_failures as f64 / 8.0);
        f.push(self.vm_count as f64 / 20.0);
        f
    }

    /// Dimension of [`MachineSpec::features`] vectors.
    pub const FEATURE_DIM: usize = 10;
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim_net::fork_rng;

    #[test]
    fn features_have_documented_layout() {
        let spec = MachineSpec {
            sku: HardwareSku::Gen5,
            age_years: 3.5,
            recent_failures: 4,
            failure_kind: FailureKind::Disk,
            vm_count: 10,
        };
        let f = spec.features();
        assert_eq!(f.len(), MachineSpec::FEATURE_DIM);
        assert_eq!(&f[0..3], &[0.0, 1.0, 0.0]); // Gen5
        assert_eq!(&f[3..7], &[0.0, 0.0, 1.0, 0.0]); // Disk
        assert!((f[7] - 0.5).abs() < 1e-12);
        assert!((f[8] - 0.5).abs() < 1e-12);
        assert!((f[9] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn features_are_bounded() {
        let mut rng = fork_rng(1, "spec");
        for _ in 0..500 {
            let spec = MachineSpec::sample(&mut rng);
            for (i, &v) in spec.features().iter().enumerate() {
                assert!((0.0..=1.0).contains(&v), "feature {i} = {v}");
            }
        }
    }

    #[test]
    fn fleet_mix_covers_all_categories() {
        let mut rng = fork_rng(2, "fleet");
        let specs: Vec<MachineSpec> = (0..2000).map(|_| MachineSpec::sample(&mut rng)).collect();
        for sku in HardwareSku::ALL {
            assert!(specs.iter().any(|s| s.sku == sku), "missing {sku:?}");
        }
        for kind in FailureKind::ALL {
            assert!(
                specs.iter().any(|s| s.failure_kind == kind),
                "missing {kind:?}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = MachineSpec::sample(&mut fork_rng(3, "det"));
        let b = MachineSpec::sample(&mut fork_rng(3, "det"));
        assert_eq!(a, b);
    }
}
