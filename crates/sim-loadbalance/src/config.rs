//! Cluster and server configuration.

use serde::Serialize;

/// One backend server's latency model (Fig 5): for a request of class `k`
/// admitted with `c` open connections,
///
/// ```text
/// latency(k, c) = bases[k] + slope · c
/// ```
///
/// Per-class bases model server heterogeneity (a server with a fast path
/// for one request type), which is the "request type" context of Table 1;
/// a single-entry `bases` gives the homogeneous Fig 5 cartoon.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerConfig {
    /// Base latency per request class, in seconds.
    pub bases: Vec<f64>,
    /// Additional latency per open connection, in seconds.
    pub per_conn_latency_s: f64,
}

impl ServerConfig {
    /// A server with one request class.
    pub fn single_class(base_latency_s: f64, per_conn_latency_s: f64) -> Self {
        ServerConfig {
            bases: vec![base_latency_s],
            per_conn_latency_s,
        }
    }

    /// The deterministic service latency for a class-`class` request with
    /// `conns` open connections.
    pub fn latency(&self, class: usize, conns: u32) -> f64 {
        let base = self.bases[class.min(self.bases.len() - 1)];
        base + self.per_conn_latency_s * conns as f64
    }

    /// The base latency averaged over a class distribution.
    pub fn mean_base(&self, class_probs: &[f64]) -> f64 {
        class_probs
            .iter()
            .enumerate()
            .map(|(k, &p)| p * self.bases[k.min(self.bases.len() - 1)])
            .sum()
    }
}

/// A cluster of backend servers plus workload parameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterConfig {
    /// The backend servers.
    pub servers: Vec<ServerConfig>,
    /// Probability of each request class (sums to 1).
    pub class_probs: Vec<f64>,
    /// Total arrival rate in requests/second (Poisson).
    pub arrival_rate: f64,
    /// Multiplicative latency noise: each service time is scaled by a
    /// uniform factor in `[1 − noise, 1 + noise]`. Zero for a purely
    /// deterministic system.
    pub latency_noise: f64,
}

impl ClusterConfig {
    /// The Fig 5 / Table 2 two-server system, calibrated so the paper's
    /// shape holds:
    ///
    /// * server 1: base 0.20 s for both request classes;
    /// * server 2: base 0.12 s for class-A requests (30 % of traffic — it
    ///   has a fast path for them) but 0.52 s for class-B, i.e. **0.40 s on
    ///   average: slower than server 1 by an additive constant**, as in
    ///   Fig 5;
    /// * both have slope 0.0072 s per open connection; 100 req/s Poisson.
    ///
    /// Consequences (matching Table 2): random routing settles near 0.45 s;
    /// "send to 1" looks like ≈ 0.31 s in randomly-logged data but
    /// overloads server 1 to ≈ 0.7 s when deployed; least-loaded improves
    /// on random but ignores request class; a CB policy that learns the
    /// class × server interaction beats least-loaded.
    pub fn fig5() -> Self {
        ClusterConfig {
            servers: vec![
                ServerConfig {
                    bases: vec![0.20, 0.20],
                    per_conn_latency_s: 0.0072,
                },
                ServerConfig {
                    bases: vec![0.12, 0.52],
                    per_conn_latency_s: 0.0072,
                },
            ],
            class_probs: vec![0.3, 0.7],
            arrival_rate: 100.0,
            latency_noise: 0.05,
        }
    }

    /// A uniform single-class cluster of `n` identical servers (used by the
    /// hierarchy experiments).
    pub fn uniform(n: usize, base_latency_s: f64, per_conn_latency_s: f64, rate: f64) -> Self {
        assert!(n > 0, "need at least one server");
        ClusterConfig {
            servers: vec![ServerConfig::single_class(base_latency_s, per_conn_latency_s); n],
            class_probs: vec![1.0],
            arrival_rate: rate,
            latency_noise: 0.05,
        }
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of request classes.
    pub fn num_classes(&self) -> usize {
        self.class_probs.len()
    }

    /// Validates the configuration, panicking with a clear message on
    /// nonsense values.
    pub fn validate(&self) {
        assert!(!self.servers.is_empty(), "cluster needs servers");
        assert!(
            self.arrival_rate.is_finite() && self.arrival_rate > 0.0,
            "arrival rate must be positive"
        );
        assert!(
            (0.0..1.0).contains(&self.latency_noise),
            "latency noise must be in [0, 1)"
        );
        assert!(!self.class_probs.is_empty(), "need at least one class");
        let psum: f64 = self.class_probs.iter().sum();
        assert!(
            (psum - 1.0).abs() < 1e-9 && self.class_probs.iter().all(|&p| p >= 0.0),
            "class probabilities must form a distribution"
        );
        for (i, s) in self.servers.iter().enumerate() {
            assert!(!s.bases.is_empty(), "server {i}: needs a base latency");
            for &b in &s.bases {
                assert!(
                    b > 0.0 && b.is_finite(),
                    "server {i}: base latency must be positive"
                );
            }
            assert!(
                s.per_conn_latency_s >= 0.0 && s.per_conn_latency_s.is_finite(),
                "server {i}: per-connection latency must be non-negative"
            );
        }
    }

    /// The steady-state latency of routing a fraction `share` of total
    /// traffic (class mix unchanged) to server `i`, from Little's-law
    /// self-consistency: `L = b̄ / (1 − slope · λ · share)` (unstable
    /// shares return ∞).
    ///
    /// Analytic cross-check for the simulator's equilibria.
    pub fn steady_state_latency(&self, i: usize, share: f64) -> f64 {
        let s = &self.servers[i];
        let util = s.per_conn_latency_s * self.arrival_rate * share;
        if util >= 1.0 {
            f64::INFINITY
        } else {
            s.mean_base(&self.class_probs) / (1.0 - util)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_linear_in_connections() {
        let s = ServerConfig::single_class(0.2, 0.01);
        assert_eq!(s.latency(0, 0), 0.2);
        assert!((s.latency(0, 10) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn per_class_bases_select_by_class() {
        let s = ServerConfig {
            bases: vec![0.1, 0.5],
            per_conn_latency_s: 0.0,
        };
        assert_eq!(s.latency(0, 0), 0.1);
        assert_eq!(s.latency(1, 0), 0.5);
        // Out-of-range class clamps to the last base.
        assert_eq!(s.latency(9, 0), 0.5);
        assert!((s.mean_base(&[0.5, 0.5]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn fig5_has_the_paper_structure() {
        let c = ClusterConfig::fig5();
        c.validate();
        assert_eq!(c.num_servers(), 2);
        assert_eq!(c.num_classes(), 2);
        // Server 2 slower by an additive constant *on average*, same slope.
        let b1 = c.servers[0].mean_base(&c.class_probs);
        let b2 = c.servers[1].mean_base(&c.class_probs);
        assert!((b2 - b1 - 0.2).abs() < 1e-9, "Δ = {}", b2 - b1);
        assert_eq!(
            c.servers[0].per_conn_latency_s,
            c.servers[1].per_conn_latency_s
        );
        // But server 2 has the fast path for class A.
        assert!(c.servers[1].bases[0] < c.servers[0].bases[0]);
    }

    #[test]
    fn fig5_steady_state_predicts_table2_shape() {
        let c = ClusterConfig::fig5();
        // Random routing: each server gets half the traffic.
        let random_mean = (c.steady_state_latency(0, 0.5) + c.steady_state_latency(1, 0.5)) / 2.0;
        assert!((0.40..0.52).contains(&random_mean), "random {random_mean}");
        // Server 1 under random routing looks fast (the OPE estimate).
        let s1_under_random = c.steady_state_latency(0, 0.5);
        assert!((0.28..0.36).contains(&s1_under_random), "{s1_under_random}");
        // But sending everything to it is catastrophic.
        let s1_overloaded = c.steady_state_latency(0, 1.0);
        assert!(
            (0.6..0.9).contains(&s1_overloaded),
            "send-to-1 {s1_overloaded}"
        );
    }

    #[test]
    fn unstable_share_is_infinite() {
        let c = ClusterConfig::uniform(1, 0.1, 0.02, 100.0);
        assert!(c.steady_state_latency(0, 1.0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn validate_rejects_zero_rate() {
        let mut c = ClusterConfig::fig5();
        c.arrival_rate = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "base latency")]
    fn validate_rejects_negative_latency() {
        let mut c = ClusterConfig::fig5();
        c.servers[0].bases[0] = -1.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "distribution")]
    fn validate_rejects_bad_class_probs() {
        let mut c = ClusterConfig::fig5();
        c.class_probs = vec![0.5, 0.2];
        c.validate();
    }
}
